"""Experiment runner: spectra, convergence, stopping bands, outliers, 2D errors.

Each subcommand writes a deterministic CSV (17 significant digits, ``.``
decimal separator, ``\\n`` line endings) with a ``# config:`` comment line
echoing the full configuration, and optionally a structural SVG plot.  The
library returns its results as column arrays, and every table is written by
one writer from an ordered mapping of header to column: integers print as
integers, ``None`` as an empty cell and everything else, NaN and infinities
included, with 17 significant digits.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 assertion failure (``converge --assert-slope``).
"""

from __future__ import annotations

import argparse
import functools
import locale  # noqa: F401  argparse's gettext imports it on first use: here, not in a job
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace
from itertools import chain
from pathlib import Path

import numpy as np

from . import analysis, svgplot
from .assembly import NumericalError, assemble_layout
from .eigensolve import solve_eigenvalues, solve_gevp
from .quadrature import QuadratureSpec
from .splines import BlockLayout

__all__ = ["main", "entry", "ExperimentConfig"]

MAX_ELEMENTS_2D = 32
MAX_DOFS_2D = 40_000


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    method: str = "iga"
    p: int = 2
    elements: int = 1000
    block: int | None = None
    continuity: int = 0
    bc: str = "dirichlet"
    quadrature: str = "gauss"
    tau: float | None = None
    points: int | None = None
    dim: int = 1

    def validate(self) -> None:
        """Check the CLI's own rules; building the layout and the quadrature
        rule runs the other input checks, which those types own."""
        if self.method not in ("fea", "iga", "riga"):
            raise ConfigError(f"unknown method {self.method!r}")
        if self.method == "fea":
            if self.block not in (None, 1):
                raise ConfigError("fea requires block size 1")
            if self.continuity != 0:
                raise ConfigError("fea requires C^0 continuity")
        if self.method == "iga" and self.block is not None \
                and self.block != self.elements:
            raise ConfigError("iga takes no block size (no separators)")
        if self.method == "iga" and self.continuity != 0:
            raise ConfigError("iga takes no separator continuity (no separators)")
        if self.method == "riga" and self.block is None:
            raise ConfigError("riga requires --block")
        if self.dim == 2 and self.elements > MAX_ELEMENTS_2D:
            raise ConfigError(
                f"2D runs are capped at {MAX_ELEMENTS_2D} elements per direction"
            )
        layout = self.layout()
        self.quadrature_spec().reference_rule(self.p)
        if self.dim == 2 and layout.n_dofs ** 2 > MAX_DOFS_2D:
            raise ConfigError(f"2D problem exceeds the cap of {MAX_DOFS_2D} unknowns")

    def layout(self) -> BlockLayout:
        if self.method == "fea":
            return BlockLayout.fea(self.elements, self.p, self.bc)
        if self.method == "iga":
            return BlockLayout.iga(self.elements, self.p, self.bc)
        return BlockLayout(self.elements, self.p, self.block,
                           self.continuity, self.bc)

    def quadrature_spec(self) -> QuadratureSpec:
        return QuadratureSpec(self.quadrature, self.points, self.tau)

    def echo(self) -> str:
        """Every field as ``key=value`` in key order; unset options echo empty."""
        return " ".join(f"{k}={'' if v is None else v}"
                        for k, v in sorted(asdict(self).items()))


def _write_text(path: str | None, text: str) -> None:
    _write_chunks(path, [text])


def _write_chunks(path: str | None, chunks) -> None:
    """Write the strings of ``chunks`` in order, each once it is made, to the
    file ``path`` or, without one, to stdout."""
    with nullcontext(sys.stdout) if path is None else open(path, "w", newline="") as f:
        f.writelines(chunks)


def _cells(column) -> list[str]:
    """One column's cells: ``str`` for an int, empty for ``None``, ``.17g`` else.

    The column's dtype picks the rule once: integer and bool columns take
    ``str``, float columns one ``%.17g`` template for all their rows, and
    object columns (which hold ``None``) go cell by cell."""
    column = np.asarray(column)
    values = column.tolist()
    if column.dtype.kind in "biu":
        return list(map(str, values))
    if column.dtype.kind == "f":
        return ("%.17g\n" * len(values) % tuple(values)).split("\n")[:-1]
    return ["" if v is None else str(v) if isinstance(v, int) else f"{v:.17g}"
            for v in values]


def _csv(columns: dict, config: ExperimentConfig,
         comments: list[str] | None = None) -> str:
    """The CSV text of equally long ``columns``, headed by their keys in order,
    after the ``# config:`` line and any further ``comments`` lines.  Each
    column goes through :func:`_cells`."""
    head = [f"# config: {config.echo()}", *(comments or []), ",".join(columns)]
    return "\n".join(head) + "\n" + _lines(map(_cells, columns.values()))


def _lines(cells) -> str:
    """The CSV lines of equally long columns of cells, each ended by ``\\n``."""
    rows = [*map(",".join, zip(*cells, strict=True))]
    return "\n".join([*rows, ""]) if rows else ""


def _stack_svgs(svgs: list[str]) -> str:
    """One page holding ``svgplot.line_plot`` pages one above the other."""
    width, h = svgplot.LINE_WIDTH, svgplot.LINE_HEIGHT
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{width}" height="{h * len(svgs)}">']
    for k, svg in enumerate(svgs):
        body = svg.split("\n", 1)[1].rsplit("</svg>", 1)[0]
        parts.append(f'<svg y="{k * h}" width="{width}" height="{h}">')
        parts.append(body)
        parts.append("</svg>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: ExperimentConfig, out: str | None, svg: str | None) -> int:
    op = assemble_layout(cfg.layout(), cfg.quadrature_spec())
    spectrum = solve_gevp(op)
    b = analysis.error_budget(spectrum, op)
    _write_text(out, _csv({
        "j": b.j, "j_over_N0": b.j_over_n0, "lambda_exact": b.lambda_exact,
        "lambda_h": b.lambda_h, "ev_rel": b.ev_rel, "ef_l2_sq": b.ef_l2_sq,
        "ef_energy_rel_sq": b.ef_energy_rel_sq, "energy_gap": b.energy_gap,
        "l2_deficit": b.l2_deficit, "pythagoras_residual": b.pythagoras_residual,
    }, cfg))
    if svg:
        series = [
            (b.j_over_n0, b.ev_rel, "eigenvalue error"),
            (b.j_over_n0, b.ef_l2_sq, "L2 eigenfunction error"),
            (b.j_over_n0, b.ef_energy_rel_sq, "energy eigenfunction error"),
        ]
        lin = svgplot.line_plot(series, title="error budget",
                                xlabel="j / N0", ylabel="error")
        log = svgplot.line_plot(series, title="error budget (log scale)",
                                xlabel="j / N0", ylabel="|error|", logy=True)
        _write_text(svg, _stack_svgs([lin, log]))
    return 0


def cmd_converge(cfg: ExperimentConfig, elements_list: list[int],
                 out: str | None, svg: str | None,
                 assert_slope: float | None, slope_tol: float) -> int:
    layouts = [replace(cfg, elements=n).layout() for n in elements_list]
    hs, errs, slope = analysis.convergence_study(layouts, cfg.quadrature_spec())
    _write_text(out, _csv({"n_elements": elements_list, "h": hs, "ev_rel_j1": errs},
                          cfg, [f"# slope: {slope:.17g}"]))
    if svg:
        _write_text(svg, svgplot.line_plot(
            [(np.log10(hs), np.log10(np.abs(errs)), f"slope {slope:.2f}")],
            title="eigenvalue error convergence", xlabel="log10 h",
            ylabel="log10 |error|"))
    if assert_slope is not None and abs(slope - assert_slope) > slope_tol:
        print(f"slope {slope:.4f} outside {assert_slope} +/- {slope_tol}",
              file=sys.stderr)
        return 4
    return 0


def cmd_stopbands(cfg: ExperimentConfig, out: str | None) -> int:
    if cfg.method == "iga":
        raise ConfigError("stopbands needs separators (fea or riga)")
    layout = cfg.layout()
    blocks = analysis.partition_dofs(layout)
    op = assemble_layout(layout, cfg.quadrature_spec())
    r = analysis.detect_stopping_bands(solve_eigenvalues(op), op, blocks)
    _write_text(out, _csv({
        "lambda_b": r.value, "nearest_lambda_h": r.nearest_global,
        "rel_gap": r.rel_gap, "global_index": r.global_index + 1,
        "block_multiplicity": r.block_multiplicity,
    }, cfg, [f"# bands: {r.band_count} expected: {r.expected_count} "
             f"matched_1e-6: {r.matched_count()}"]))
    return 0


def cmd_outliers(cfg: ExperimentConfig, out: str | None) -> int:
    layout = cfg.layout()
    # a mesh the census does not cover is refused before the solve
    analysis.count_outliers(layout.p, layout.n_separators, layout.bc,
                            layout.separator_continuity)
    op = assemble_layout(layout, cfg.quadrature_spec())
    spectrum = solve_gevp(op)
    r = analysis.outlier_report(spectrum, op)
    _write_text(out, _csv({
        "mode": r.mode, "ev_rel": r.ev_rel, "ev_ratio": r.ev_ratio,
        "flatness": r.flatness, "a1": r.a1, "f1": r.f1, "a2": r.a2, "f2": r.f2,
        "defect_dofs": r.defect_dofs, "defect_elements": r.defect_elements,
        "misfit": r.misfit,
    }, cfg, [f"# predicted: {r.predicted} observed: {r.empirical_count} "
             f"decile_median: {r.decile_median:.17g}"]))

    # bin k is frequency k / 2; the table stops at the dof count
    freqs = 0.5 * np.arange(r.magnitudes.shape[1])
    freqs = freqs[freqs <= op.n_dofs]
    # the header, then one mode's rows at a time, each frequency formatted once
    frequencies = _cells(freqs)
    chunks = chain([_csv({"mode": [], "frequency": [], "magnitude": []}, cfg)],
                   (_lines([[mode] * freqs.size, frequencies, _cells(row)])
                    for mode, row in zip(_cells(r.mode), r.magnitudes[:, :freqs.size])))
    if out is not None:
        out = str(Path(out).with_suffix(".freq" + Path(out).suffix))
    _write_chunks(out, chunks)
    return 0


def cmd_spectrum2d(cfg: ExperimentConfig, out: str | None, svg: str | None) -> int:
    op1 = assemble_layout(cfg.layout(), cfg.quadrature_spec())
    lam1 = solve_eigenvalues(op1)
    jj, kk, exact, discrete, ev_rel = analysis.eigenvalue_errors_2d(lam1, cfg.bc)
    _write_text(out, _csv({"j": jj, "k": kk, "lambda_exact": exact,
                           "lambda_h": discrete, "ev_rel": ev_rel}, cfg))
    if svg:
        # the first row is the lowest wavenumber pair
        grid = np.empty((lam1.size, lam1.size))
        grid[jj - jj[0], kk - kk[0]] = ev_rel
        _write_text(svg, svgplot.heatmap(
            grid, title="2D relative eigenvalue error (log10)",
            xlabel="k", ylabel="j"))
    return 0


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--method", default="iga", choices=["fea", "iga", "riga"])
    sub.add_argument("--p", type=int, default=2)
    sub.add_argument("--elements", default="1000",
                     help="element count (comma list for converge)")
    sub.add_argument("--block", type=int, default=None)
    sub.add_argument("--continuity", type=int, default=0)
    sub.add_argument("--bc", default="dirichlet", choices=["dirichlet", "neumann"])
    sub.add_argument("--quadrature", default="gauss",
                     choices=["gauss", "lobatto", "blended"])
    sub.add_argument("--tau", type=float, default=None)
    sub.add_argument("--points", type=int, default=None)
    sub.add_argument("--out", default=None, help="CSV output path (default stdout)")
    sub.add_argument("--config", default=None,
                     help="key=value file overriding flags")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state in
    it, and each :func:`main` call parses into a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="splinespectra",
        description="spectral analysis of variable-continuity spline meshes")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "converge", "stopbands", "outliers", "spectrum2d"):
        sub = subs.add_parser(name)
        _add_common(sub)
        if name in ("spectrum", "converge", "spectrum2d"):
            sub.add_argument("--svg", default=None, help="SVG output path")
        if name == "converge":
            sub.add_argument("--assert-slope", type=float, default=None)
            sub.add_argument("--slope-tol", type=float, default=0.1)
    return parser


_CONFIG_KEYS = {"method", "p", "elements", "block", "continuity", "bc",
                "quadrature", "tau", "points"}
_INT_KEYS = {"p", "block", "continuity", "points"}


def _apply_config_file(args: argparse.Namespace) -> None:
    if not args.config:
        return
    for line in Path(args.config).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if key in _INT_KEYS:
            setattr(args, key, int(value))
        elif key == "tau":
            setattr(args, key, float(value))
        else:
            setattr(args, key, value)


def _parse_elements(text: str) -> list[int]:
    try:
        return [int(s) for s in str(text).split(",") if s != ""]
    except ValueError as exc:
        raise ConfigError(f"bad element list {text!r}") from exc


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args)
        elements = _parse_elements(args.elements)
        if not elements:
            raise ConfigError("no element count given")
        cfg = ExperimentConfig(
            method=args.method, p=args.p, elements=elements[0],
            block=args.block, continuity=args.continuity, bc=args.bc,
            quadrature=args.quadrature, tau=args.tau, points=args.points,
            dim=2 if args.command == "spectrum2d" else 1,
        )
        cfg.validate()
        if args.command == "converge":
            for n in elements:
                replace(cfg, elements=n).validate()
        if args.command == "spectrum":
            return cmd_spectrum(cfg, args.out, args.svg)
        if args.command == "converge":
            return cmd_converge(cfg, elements, args.out, args.svg,
                                args.assert_slope, args.slope_tol)
        if args.command == "stopbands":
            return cmd_stopbands(cfg, args.out)
        if args.command == "outliers":
            return cmd_outliers(cfg, args.out)
        return cmd_spectrum2d(cfg, args.out, args.svg)
    except (ValueError, OSError) as exc:  # ConfigError and library input checks
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:  # console script hook
    sys.exit(main())
