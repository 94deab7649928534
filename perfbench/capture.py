"""Write ``reference.json``: the reference values every benchmark run is checked against.

Run from the repository root, only when a change is meant to alter results::

    python3 perfbench/capture.py

Runs every job of every workload once, in this interpreter with one BLAS
thread, and records per job the values ``checks.py`` compares: eigenvalues and
relative errors per mode, the outlier census, band counts and convergence
slopes.  A job that fails its checks aborts the capture, except the defects
listed in ``KNOWN_DEFECTS``, whose failures are recorded as expected.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from checks import REFERENCE_PATH, Csv, check_job  # noqa: E402
from worker import environment, run_jobs  # noqa: E402
from workloads import WORKLOADS, job_options  # noqa: E402

KNOWN_DEFECTS = {
    "spectrum2d --method iga --p 3 --elements 32 --bc neumann":
        "the (0,0) Neumann mode has lambda_exact = 0, and the 2D path writes "
        "ev_rel = inf for it where the 1D path reports an absolute error",
}


def _finite_or_none(values):
    return [v if v is not None and math.isfinite(v) else None for v in values]


def reference_entry(line: str, stem: Path) -> dict:
    command = job_options(line)["command"]
    csv = Csv(stem.with_suffix(".csv").read_text())
    if command in ("spectrum", "spectrum2d"):
        ev = [e if le else None for e, le in
              zip(csv.column("ev_rel"), csv.column("lambda_exact"))]
        return {"lambda_h": csv.column("lambda_h"), "ev_rel": _finite_or_none(ev)}
    if command == "outliers":
        return {"observed": int(csv.comments["observed"]),
                "modes": [int(m) for m in csv.column("mode")],
                "ev_rel": csv.column("ev_rel")}
    if command == "stopbands":
        return {"bands": int(csv.comments["bands"]),
                "lambda_b": csv.column("lambda_b"),
                "nearest_lambda_h": csv.column("nearest_lambda_h")}
    return {"slope": float(csv.comments["slope"]),
            "ev_rel_j1": csv.column("ev_rel_j1")}


def main() -> int:
    from splinespectra import cli

    lines = [line for jobs in WORKLOADS.values() for line in jobs]
    (HERE.parent / ".bench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=HERE.parent / ".bench_tmp"))
    try:
        codes = run_jobs(cli, dict(enumerate(lines)), scratch)
        jobs = {}
        for i, line in enumerate(lines):
            stem = scratch / f"job{i}"
            ref = reference_entry(line, stem)
            failures = check_job(line, stem, codes[i], ref)
            if failures and line not in KNOWN_DEFECTS:
                print(f"{line}: {failures}", file=sys.stderr)
                return 1
            if line in KNOWN_DEFECTS:
                ref["known_defect"] = KNOWN_DEFECTS[line]
                ref["known_failures"] = failures
            jobs[line] = ref
    finally:
        shutil.rmtree(scratch)
    REFERENCE_PATH.write_text(json.dumps(
        {"environment": environment(), "jobs": jobs}, indent=1) + "\n")
    print(f"wrote {len(jobs)} job references to {REFERENCE_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
