"""Experiment runner: spectra, convergence, stopping bands, outliers, 2D errors.

Each subcommand writes a deterministic CSV (17 significant digits, ``.``
decimal separator, ``\\n`` line endings) with a ``# config:`` comment line
echoing the full configuration, and optionally a structural SVG plot.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 assertion failure (``converge --assert-slope``).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis, svgplot
from .assembly import MAX_DOFS_2D, NumericalError, assemble_layout
from .eigensolve import solve_gevp
from .quadrature import QuadratureSpec
from .splines import BlockLayout

__all__ = ["main", "entry", "ExperimentConfig"]

MAX_ELEMENTS_2D = 32


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
        pairs = {
            "method": self.method, "p": self.p, "elements": self.elements,
            "block": self.block if self.block is not None else "",
            "continuity": self.continuity, "bc": self.bc,
            "quadrature": self.quadrature,
            "tau": self.tau if self.tau is not None else "",
            "points": self.points if self.points is not None else "",
            "dim": self.dim,
        }
        return " ".join(f"{k}={v}" for k, v in sorted(pairs.items()))


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return ""
    return f"{float(x):.17g}"


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, newline="")


def _csv(header: list[str], rows, config: ExperimentConfig,
         extra_comments: list[str] | None = None) -> str:
    lines = [f"# config: {config.echo()}"]
    lines.extend(extra_comments or [])
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _stack_svgs(svgs: list[str], width: int, heights: list[int]) -> str:
    total = sum(heights)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{width}" height="{total}">']
    y = 0
    for svg, h in zip(svgs, heights):
        body = svg.split("\n", 1)[1].rsplit("</svg>", 1)[0]
        parts.append(f'<svg y="{y}" width="{width}" height="{h}">')
        parts.append(body)
        parts.append("</svg>")
        y += h
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: ExperimentConfig, out: str | None, svg: str | None) -> int:
    op = assemble_layout(cfg.layout(), cfg.quadrature_spec())
    spectrum = solve_gevp(op)
    budgets = analysis.error_budget(spectrum, op)
    header = ["j", "j_over_N0", "lambda_exact", "lambda_h", "ev_rel",
              "ef_l2_sq", "ef_energy_rel_sq", "energy_gap", "l2_deficit",
              "pythagoras_residual"]
    rows = [(b.j, b.j_over_n0, b.lambda_exact, b.lambda_h, b.ev_rel,
             b.ef_l2_sq, b.ef_energy_rel_sq, b.energy_gap, b.l2_deficit,
             b.pythagoras_residual) for b in budgets]
    _write_text(out, _csv(header, rows, cfg))
    if svg:
        x = [b.j_over_n0 for b in budgets]
        series = [
            (x, [b.ev_rel for b in budgets], "eigenvalue error"),
            (x, [b.ef_l2_sq for b in budgets], "L2 eigenfunction error"),
            (x, [b.ef_energy_rel_sq for b in budgets], "energy eigenfunction error"),
        ]
        lin = svgplot.line_plot(series, title="error budget",
                                xlabel="j / N0", ylabel="error")
        log = svgplot.line_plot(series, title="error budget (log scale)",
                                xlabel="j / N0", ylabel="|error|", logy=True)
        _write_text(svg, _stack_svgs([lin, log], 720, [460, 460]))
    return 0


def cmd_converge(cfg: ExperimentConfig, elements_list: list[int],
                 out: str | None, svg: str | None,
                 assert_slope: float | None, slope_tol: float) -> int:
    layouts = [replace(cfg, elements=n).layout() for n in elements_list]
    hs, errs, slope = analysis.convergence_study(layouts, cfg.quadrature_spec())
    header = ["n_elements", "h", "ev_rel_j1"]
    rows = [(n, h, e) for n, h, e in zip(elements_list, hs, errs)]
    comments = [f"# slope: {_fmt(slope)}"]
    _write_text(out, _csv(header, rows, cfg, comments))
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
    part = analysis.partition_dofs(layout)
    op = assemble_layout(layout, cfg.quadrature_spec())
    spectrum = solve_gevp(op)
    local = analysis.local_bubble_spectra(op, part)
    report = analysis.detect_stopping_bands(spectrum, local, layout)
    header = ["lambda_b", "nearest_lambda_h", "rel_gap", "global_index",
              "block_multiplicity"]
    rows = [(m.value, m.nearest_global, m.rel_gap, m.global_index + 1,
             m.block_multiplicity) for m in report.matches]
    comments = [f"# bands: {report.band_count} expected: {report.expected_count} "
                f"matched_1e-6: {report.matched_count(1e-6)}"]
    _write_text(out, _csv(header, rows, cfg, comments))
    return 0


def cmd_outliers(cfg: ExperimentConfig, out: str | None) -> int:
    op = assemble_layout(cfg.layout(), cfg.quadrature_spec())
    spectrum = solve_gevp(op)
    report = analysis.outlier_report(spectrum, op)
    header = ["mode", "ev_rel", "ev_ratio", "flatness", "a1", "f1", "a2", "f2",
              "defect_dofs", "defect_elements", "misfit"]
    rows = []
    for info in report.outliers:
        fit = info.am
        rows.append((info.mode, info.ev_rel, info.ev_ratio, info.flatness,
                     fit.a1, fit.f1, fit.a2, fit.f2, fit.defect_dofs,
                     fit.defect_elements, fit.misfit))
    comments = [f"# predicted: {report.predicted} observed: {report.empirical_count} "
                f"decile_median: {_fmt(report.decile_median)}"]
    _write_text(out, _csv(header, rows, cfg, comments))

    freq_header = ["mode", "frequency", "magnitude"]
    freq_rows = []
    for info in report.outliers:
        fc = info.content
        for f, m in zip(fc.frequencies, fc.magnitudes):
            if f <= op.n_dofs:
                freq_rows.append((info.mode, f, m))
    freq_text = _csv(freq_header, freq_rows, cfg)
    if out is None:
        sys.stdout.write(freq_text)
    else:
        path = Path(out)
        _write_text(str(path.with_suffix(".freq" + path.suffix)), freq_text)
    return 0


def cmd_spectrum2d(cfg: ExperimentConfig, out: str | None, svg: str | None) -> int:
    op1 = assemble_layout(cfg.layout(), cfg.quadrature_spec())
    spectrum = solve_gevp(op1)
    lam1 = spectrum.eigenvalues
    n = lam1.size
    sums = np.add.outer(lam1, lam1).ravel()
    order = np.argsort(sums, kind="stable")
    discrete = sums[order]
    exact, jj, kk = analysis.exact_eigenvalues_2d(n, cfg.bc)
    # the Neumann (0, 0) mode has exact eigenvalue zero: absolute error there
    err = discrete - exact
    ev_rel = np.divide(err, exact, out=err.copy(), where=exact != 0)
    header = ["j", "k", "lambda_exact", "lambda_h", "ev_rel"]
    rows = list(zip(jj, kk, exact, discrete, ev_rel))
    _write_text(out, _csv(header, rows, cfg))
    if svg:
        grid = np.empty((n, n))
        start = 1 if cfg.bc == "dirichlet" else 0
        grid[jj - start, kk - start] = ev_rel
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


def build_parser() -> argparse.ArgumentParser:
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
