"""The benchmark's tracer still finds everything it wraps in the library.

``perfbench/layers.py`` rebinds the package's public functions, their
aliases in the importing modules and three ``SymmetricBandedMatrix`` methods,
all by name.  A library change that renames one of them fails here, in the
repository's own tests, instead of in every traced benchmark run.  One tiny
job of every subcommand also runs traced, and the per-layer metrics it yields
are the ones ``BENCHMARK.json`` declares.  Every job of every workload passes
the benchmark's own output checks against its reference values.  These tests
import ``perfbench`` modules and change none of them.
"""

import json
import math
import sys
from pathlib import Path

from splinespectra import cli
from splinespectra.splines import BlockLayout

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import layers
    from checks import check_job, load_reference
    from workloads import WORKLOADS, job_argv
finally:
    sys.path.remove(PERFBENCH)

LINE = "stopbands --method riga --p 2 --block 5 --elements 20"


def test_traced_job_runs_and_uninstall_restores_every_binding(tmp_path):
    before = layers.bindings()
    tracer = layers.install_tracer()
    tracer.job = 0
    try:
        during = layers.bindings()
        wrapped = {k for k, obj in during.items() if obj is not before[k]}
        assert cli.main(job_argv(LINE, str(tmp_path / "job0"))) == 0
    finally:
        tracer.uninstall()
    after = layers.bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    for key in [("splinespectra.analysis", "span_basis_rows"),
                ("splinespectra.assembly", "span_basis_rows"),
                *(("SymmetricBandedMatrix", name)
                  for name in ("add_symmetric_block", "to_dense", "to_sparse"))]:
        assert key in wrapped
    # one basis evaluation per assembly, one stacked scatter per matrix
    metrics = layers.layer_metrics(tracer, {0: LINE})
    assert metrics["assembly.assemble_layout.calls"] == 1
    assert metrics["splines.span_basis_rows.calls"] == 1
    assert metrics["assembly.add_symmetric_block.calls"] == 2


# one tiny job per subcommand, each plot-writing one with its SVG
EVERY_SUBCOMMAND = [
    "spectrum --method riga --p 2 --block 4 --elements 8 --svg",
    "outliers --method riga --p 2 --block 4 --elements 8",
    "converge --p 2 --elements 4,8,16",
    "stopbands --method riga --p 2 --block 5 --elements 20",
    "spectrum2d --method fea --p 2 --elements 4 --svg",
]


def test_every_subcommand_traces_and_reports_every_metric(tmp_path):
    assert sorted(line.split()[0] for line in EVERY_SUBCOMMAND) == sorted(layers.SUBCOMMANDS)
    before = layers.bindings()
    tracer = layers.install_tracer()
    try:
        for job, line in enumerate(EVERY_SUBCOMMAND):
            tracer.job = job
            assert cli.main(job_argv(line, str(tmp_path / f"job{job}"))) == 0, line
    finally:
        tracer.uninstall()
    after = layers.bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []

    metrics = layers.layer_metrics(tracer, dict(enumerate(EVERY_SUBCOMMAND)))
    declared = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    # the runner adds these two itself
    want = {m["name"] for m in declared["per_layer"]} - {"cli.csv_bytes", "trace.overhead_s"}
    assert set(metrics) == want
    assert all(math.isfinite(v) for v in metrics.values())
    for sub in layers.SUBCOMMANDS:
        assert metrics[f"cli.cmd_{sub}.s"] > 0
    # the stopping-band layers the stopbands job runs keep their traced names
    assert metrics["analysis.detect_stopping_bands.s"] > 0
    assert metrics["analysis.partition_dofs.s"] > 0
    # so do the values-only callers: the converge and stopbands jobs and the
    # leading mode that converge measures on each mesh
    assert metrics["cli.cmd_converge.s"] > 0
    assert metrics["cli.cmd_stopbands.s"] > 0
    assert metrics["analysis.leading_mode_error.calls"] > 0
    # so do the error budget of the spectrum job and its cost against the solve
    assert metrics["analysis.error_budget.s"] > 0
    assert metrics["analysis.over_solve_ratio"] > 0


def test_dense_copies_only_on_the_dense_route(tmp_path):
    """A layout of repeated blocks is solved without a dense ``K`` or ``M``; a
    ragged one still copies both (the traced ``assembly.to_dense.bytes``)."""
    def dense_bytes(line: str) -> float:
        tracer = layers.install_tracer()
        tracer.job = 0
        try:
            assert cli.main(job_argv(line, str(tmp_path / "job0"))) == 0, line
        finally:
            tracer.uninstall()
        return layers.layer_metrics(tracer, {0: line})["assembly.to_dense.bytes"]

    n = BlockLayout.riga(100, 2, 10).n_dofs
    assert dense_bytes("spectrum --method riga --p 2 --block 10 --elements 100") < 8 * n ** 2
    n = BlockLayout.riga(100, 2, 30).n_dofs
    assert dense_bytes("spectrum --method riga --p 2 --block 30 --elements 100") \
        >= 2 * 8 * n ** 2


def test_every_workload_job_passes_the_benchmark_checks(tmp_path):
    reference = load_reference()["jobs"]
    lines = [line for jobs in WORKLOADS.values() for line in jobs]
    assert sorted(lines) == sorted(reference)
    for k, line in enumerate(lines):
        stem = tmp_path / f"job{k}"
        rc = cli.main(job_argv(line, str(stem)))
        assert check_job(line, stem, rc, reference[line]) == [], line
