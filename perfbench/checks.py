"""Output checks for benchmark jobs, against reference values with tolerances.

A job passes when it exits 0 and its CSV (and SVG) outputs pass every check
below.  Values are compared against ``reference.json`` with a tolerance, never
bytewise, so a change that moves the last bits (another sampling routine, a
values-only eigensolve, another BLAS thread count) passes while a wrong answer
fails.

Eigenvalue tolerance: ``RTOL * |ref| + ROUNDOFF * lambda_max``, where
``lambda_max`` is the job's largest reference eigenvalue.  A dense symmetric
eigensolve is backward stable, so every eigenvalue carries an absolute error
of order ``n * eps * lambda_max``; ``ROUNDOFF`` allows that for ``n`` up to a
few thousand.  Measured differences between LAPACK solver routines on these
jobs stay below ``1e-14 * lambda_max``.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

from workloads import expected_dofs, expected_outliers, job_options

ROUNDOFF = 1e-12
RTOL = 1e-9
PYTHAGORAS_TOL = 1e-7
SLOPE_TOL = 0.01
CONVERGE_RTOL, CONVERGE_ATOL = 1e-3, 2e-9

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# columns that are legitimately empty (an AM fit with a single peak)
_OPTIONAL = {"f2", "defect_dofs", "defect_elements"}


class Csv:
    """A ``splinespectra`` CSV: ``key: value`` comment pairs, header and rows."""

    def __init__(self, text: str):
        lines = text.split("\n")
        self.comments: dict[str, str] = {}
        for line in lines:
            if line.startswith("#") and not line.startswith("# config:"):
                words = line[1:].split()
                for key, value in zip(words[::2], words[1::2]):
                    self.comments[key.rstrip(":")] = value
        body = [line for line in lines if line and not line.startswith("#")]
        self.header = body[0].split(",") if body else []
        self.rows = [line.split(",") for line in body[1:]]

    def column(self, name: str) -> list[float | None]:
        k = self.header.index(name)
        return [float(r[k]) if r[k] != "" else None for r in self.rows]

    def nonfinite(self) -> list[str]:
        """One failure per column holding a cell that is not a finite number."""
        out = []
        for k, name in enumerate(self.header):
            bad = []
            for i, row in enumerate(self.rows):
                if row[k] == "" and name in _OPTIONAL:
                    continue
                try:
                    ok = math.isfinite(float(row[k]))
                except ValueError:
                    ok = False
                if not ok:
                    bad.append(i)
            if bad:
                out.append(f"non-finite {name} in rows {bad[:5]}"
                           f"{' ...' if len(bad) > 5 else ''}")
        return out


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _read(path: Path, failures: list[str]) -> Csv | None:
    try:
        csv = Csv(path.read_text())
    except OSError as exc:
        failures.append(f"cannot read {path.name}: {exc.strerror}")
        return None
    if not csv.header:
        failures.append(f"{path.name} has no header")
        return None
    ragged = [i for i, row in enumerate(csv.rows) if len(row) != len(csv.header)]
    if ragged:
        failures.append(f"{path.name} rows {ragged[:5]} do not match the header")
        return None
    return csv


def _rows(csv: Csv, expected: int, what: str) -> list[str]:
    if len(csv.rows) != expected:
        return [f"{len(csv.rows)} rows, expected {expected} ({what})"]
    return []


def _mismatch(name: str, got, ref, tols) -> list[str]:
    """Entries where ``|got - ref| > tol``; ``None`` in ``ref`` is not compared."""
    bad = [i for i, (g, r, t) in enumerate(zip(got, ref, tols))
           if r is not None and not (g is not None and abs(g - r) <= t)]
    if bad:
        i = bad[0]
        return [f"{name} differs from reference in {len(bad)} rows "
                f"(first row {i}: {got[i]!r} vs {ref[i]!r})"]
    return []


def _eigen_checks(csv: Csv, ref: dict) -> list[str]:
    """Compare ``lambda_h`` and ``ev_rel`` against the reference."""
    lam_h = csv.column("lambda_h")
    lam_ex = csv.column("lambda_exact")
    ev = csv.column("ev_rel")
    lam_max = max(abs(v) for v in ref["lambda_h"])
    tols = [RTOL * abs(r) + ROUNDOFF * lam_max for r in ref["lambda_h"]]
    ev_tols = [t / le if le else math.inf for t, le in zip(tols, lam_ex)]
    return (_mismatch("lambda_h", lam_h, ref["lambda_h"], tols)
            + _mismatch("ev_rel", ev, ref["ev_rel"], ev_tols))


def _svg(path: Path) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return [f"{path.name} is not readable SVG: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"{path.name} root element is {root.tag}"]
    return []


def _check_spectrum(opts, csv: Csv, stem: Path, ref: dict) -> list[str]:
    failures: list[str] = []
    failures += _rows(csv, expected_dofs(opts, int(opts["elements"])), "n_dofs")
    failures += csv.nonfinite()
    if failures:
        return failures
    lam_h, lam_ex = csv.column("lambda_h"), csv.column("lambda_exact")
    floor = ROUNDOFF * max(lam_h)
    below = [i + 1 for i, (h, e) in enumerate(zip(lam_h, lam_ex)) if h < e - floor]
    if below:
        failures.append(f"lambda_h below lambda_exact (Rayleigh-Ritz bound) "
                        f"at modes {below[:5]}")
    worst = max(abs(v) for v in csv.column("pythagoras_residual"))
    if worst > PYTHAGORAS_TOL:
        failures.append(f"|pythagoras_residual| reaches {worst:.3e}")
    return failures + _eigen_checks(csv, ref)


def _check_outliers(opts, csv: Csv, stem: Path, ref: dict) -> list[str]:
    failures: list[str] = []
    freq = _read(stem.with_suffix(".freq.csv"), failures)
    if freq is None:
        return failures
    predicted = int(csv.comments.get("predicted", -1))
    census = expected_outliers(opts)
    if predicted != census:
        failures.append(f"predicted census {predicted}, expected {census}")
    failures += _rows(csv, predicted, "predicted outliers")
    observed = int(csv.comments.get("observed", -1))
    if observed != ref["observed"]:
        failures.append(f"observed census {observed}, reference {ref['observed']}")
    failures += csv.nonfinite() + freq.nonfinite()
    if not freq.rows:
        failures.append("frequency table is empty")
    if failures:
        return failures
    modes = [int(m) for m in csv.column("mode")]
    if modes != ref["modes"]:
        failures.append(f"outlier modes {modes[:3]}... differ from reference")
        return failures
    ev_tols = [RTOL * abs(r) for r in ref["ev_rel"]]
    return failures + _mismatch("ev_rel", csv.column("ev_rel"), ref["ev_rel"], ev_tols)


def _check_stopbands(opts, csv: Csv, stem: Path, ref: dict) -> list[str]:
    failures: list[str] = []
    counts = [int(csv.comments.get(k, -1))
              for k in ("bands", "expected", "matched_1e-6")]
    if len(set(counts)) != 1 or counts[0] != ref["bands"]:
        failures.append(f"bands/expected/matched_1e-6 = {counts}, "
                        f"reference {ref['bands']}")
    failures += _rows(csv, counts[0], "bands")
    failures += csv.nonfinite()
    if failures:
        return failures
    for name in ("lambda_b", "nearest_lambda_h"):
        scale = max(abs(v) for v in ref[name])
        tols = [RTOL * abs(r) + ROUNDOFF * scale for r in ref[name]]
        failures += _mismatch(name, csv.column(name), ref[name], tols)
    return failures


def _check_converge(opts, csv: Csv, stem: Path, ref: dict) -> list[str]:
    failures: list[str] = []
    failures += _rows(csv, len(opts["elements"].split(",")), "mesh sizes")
    failures += csv.nonfinite()
    if failures:
        return failures
    slope = float(csv.comments.get("slope", "nan"))
    if not abs(slope - ref["slope"]) <= SLOPE_TOL:
        failures.append(f"slope {slope!r}, reference {ref['slope']!r}")
    tols = [CONVERGE_RTOL * abs(r) + CONVERGE_ATOL for r in ref["ev_rel_j1"]]
    return failures + _mismatch("ev_rel_j1", csv.column("ev_rel_j1"),
                                ref["ev_rel_j1"], tols)


def _check_spectrum2d(opts, csv: Csv, stem: Path, ref: dict) -> list[str]:
    failures: list[str] = []
    n = expected_dofs(opts, int(opts["elements"]))
    failures += _rows(csv, n * n, "n_dofs squared")
    failures += csv.nonfinite()
    if len(csv.rows) != n * n:
        return failures
    return failures + _eigen_checks(csv, ref)


_CHECKS = {
    "spectrum": _check_spectrum,
    "outliers": _check_outliers,
    "stopbands": _check_stopbands,
    "converge": _check_converge,
    "spectrum2d": _check_spectrum2d,
}


def check_job(line: str, stem: Path, rc: int, ref: dict) -> list[str]:
    """Failures of one job run whose outputs start with ``stem``; empty when it passes."""
    failures = [] if rc == 0 else [f"exit code {rc}"]
    opts = job_options(line)
    csv = _read(stem.with_suffix(".csv"), failures)
    if csv is not None:
        failures += _CHECKS[opts["command"]](opts, csv, stem, ref)
    if "--svg" in line.split():
        failures += _svg(stem.with_suffix(".svg"))
    return failures


def known_failure(failures: list[str], ref: dict) -> bool:
    """True when every failure is a documented defect listed in the reference."""
    known = set(ref.get("known_failures", []))
    return bool(failures) and set(failures) <= known
