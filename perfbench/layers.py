"""Per-layer trace of ``splinespectra``: which functions are wrapped, and the metrics.

The layers are the seven modules of ``src/splinespectra``.  Every public
function of each is wrapped, plus three ``SymmetricBandedMatrix`` methods, and
the aliases the package ``__init__`` re-exports are rebound too.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

import splinespectra
from splinespectra import (analysis, assembly, cli, eigensolve, quadrature,
                           splines, svgplot)
from tracer import END, JOB, NAME, PARENT, START, ATTRS, Tracer

LAYERS = {
    "splines": splines,
    "quadrature": quadrature,
    "assembly": assembly,
    "eigensolve": eigensolve,
    "analysis": analysis,
    "svgplot": svgplot,
    "cli": cli,
}
METHODS = {"assembly": (assembly.SymmetricBandedMatrix,
                        ["add_symmetric_block", "to_dense", "to_sparse"])}
SUBCOMMANDS = ["spectrum", "outliers", "converge", "stopbands", "spectrum2d"]

# solves made for callers that only ever read eigenvalues
VALUES_ONLY_CALLERS = {"analysis.leading_mode_error", "cli.cmd_stopbands",
                       "cli.cmd_spectrum2d"}


def _grid(op, xs) -> dict:
    xs = np.asarray(xs, dtype=float)
    return {"points": int(xs.size), "grid": [id(op), hash(xs.tobytes())]}


SPAN_ATTRS = {
    "assembly.to_dense": lambda self: {"bytes": 8 * self.n ** 2},
    "eigensolve.solve_gevp": lambda op: {"dofs": op.n_dofs},
    "analysis.sample_matrix": _grid,
}


def install_tracer() -> Tracer:
    tracer = Tracer()
    tracer.install(LAYERS, METHODS, aliases=[splinespectra], attrs=SPAN_ATTRS)
    return tracer


def bindings() -> dict[tuple[str, str], object]:
    """Every function-valued attribute the tracer may rebind, by owner and name."""
    owners = [*LAYERS.values(), splinespectra,
              *(cls for cls, _ in METHODS.values())]
    return {(owner.__name__, attr): obj
            for owner in owners for attr, obj in vars(owner).items()
            if callable(obj)}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(tracer: Tracer, job_lines: dict[int, str]) -> dict[str, float]:
    """Per-layer metrics of one traced workload iteration (``cli.csv_bytes`` and
    ``trace.overhead_s`` are added by the runner)."""
    spans = tracer.spans
    self_ns = tracer.self_times()
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, int] = defaultdict(int)
    own: dict[str, int] = defaultdict(int)
    for span, s_ns in zip(spans, self_ns):
        calls[span[NAME]] += 1
        incl[span[NAME]] += span[END] - span[START]
        own[span[NAME]] += s_ns

    def parent_name(span) -> str:
        return spans[span[PARENT]][NAME] if span[PARENT] >= 0 else ""

    m: dict[str, float] = {}
    for name in ("splines.span_basis_rows", "quadrature.map_rule_to_element",
                 "assembly.assemble_layout", "assembly.add_symmetric_block",
                 "assembly.to_dense", "eigensolve.solve_gevp",
                 "analysis.sample_matrix", "analysis.frequency_content",
                 "analysis.am_fit", "analysis.leading_mode_error"):
        m[f"{name}.calls"] = calls[name]
    for name in ("splines.span_basis_rows", "quadrature.map_rule_to_element",
                 "assembly.add_symmetric_block", "assembly.to_dense",
                 "eigensolve.solve_gevp", "analysis.error_budget",
                 "analysis.sample_matrix", "analysis.am_fit"):
        m[f"{name}.self_s"] = own[name] / 1e9
    for name in ("assembly.assemble_layout", "assembly.assemble_2d_tensor",
                 "analysis.error_budget", "analysis.frequency_content",
                 "analysis.outlier_report", "analysis.partition_dofs",
                 "analysis.local_bubble_spectra", "analysis.detect_stopping_bands",
                 "analysis.convergence_study", "svgplot.line_plot",
                 "svgplot.heatmap"):
        m[f"{name}.s"] = incl[name] / 1e9

    basis = [(span, s_ns) for span, s_ns in zip(spans, self_ns)
             if span[NAME] == "splines.span_basis_rows"]
    m["splines.span_basis_rows.self_s.assembly"] = sum(
        s_ns for span, s_ns in basis if _layer(parent_name(span)) == "assembly") / 1e9
    m["splines.span_basis_rows.self_s.sampling"] = sum(
        s_ns for span, s_ns in basis
        if parent_name(span) == "analysis.sample_matrix") / 1e9

    m["assembly.to_dense.bytes"] = sum(
        s[ATTRS]["bytes"] for s in spans if s[NAME] == "assembly.to_dense")

    solves = [s for s in spans if s[NAME] == "eigensolve.solve_gevp"]
    m["eigensolve.solve_gevp.dofs"] = sum(s[ATTRS]["dofs"] for s in solves)
    unread = sum(1 for s in solves if parent_name(s) in VALUES_ONLY_CALLERS)
    m["eigensolve.solve_gevp.vectors_unread_ratio"] = (
        unread / len(solves) if solves else 0.0)

    samples = [s for s in spans if s[NAME] == "analysis.sample_matrix"]
    m["analysis.sample_matrix.points"] = sum(s[ATTRS]["points"] for s in samples)
    seen, repeats = set(), 0
    for s in samples:
        key = (s[JOB], *s[ATTRS]["grid"])
        repeats += key in seen
        seen.add(key)
    m["analysis.sample_matrix.repeat_ratio"] = (
        repeats / len(samples) if samples else 0.0)

    # analysis work the CLI asks for, against the time of the solves
    asked = sum(s[END] - s[START] for s in spans
                if _layer(s[NAME]) == "analysis" and _layer(parent_name(s)) == "cli")
    solve_ns = incl["eigensolve.solve_gevp"]
    m["analysis.over_solve_ratio"] = asked / solve_ns if solve_ns else 0.0

    # a subcommand's own time is the self time of every cli span of its jobs:
    # argument parsing in main plus CSV formatting and writing in cmd_<sub>
    for sub in SUBCOMMANDS:
        jobs = {j for j, line in job_lines.items() if line.split()[0] == sub}
        m[f"cli.cmd_{sub}.s"] = incl[f"cli.cmd_{sub}"] / 1e9
        m[f"cli.cmd_{sub}.self_s"] = sum(
            s_ns for span, s_ns in zip(spans, self_ns)
            if span[JOB] in jobs and _layer(span[NAME]) == "cli") / 1e9
    return m
