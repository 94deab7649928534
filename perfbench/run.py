"""Benchmark of the ``splinespectra`` CLI: one workload, timed or traced.

Run from the repository root::

    python3 perfbench/run.py --workload spectrum-riga --seed 1 --seconds 40 --trace 0

Every iteration runs the workload's whole job list in a fresh interpreter
(``worker.py``) with one BLAS thread, writing its outputs to a scratch
directory under ``.bench_tmp/``, and every output is checked against
``reference.json``.  Iterations repeat until ``--seconds`` is used up (at
least ``MIN_ITERATIONS``).  With ``--trace 0`` the last line of standard output
is the JSON result with the end-to-end metrics; with ``--trace 1`` iterations
alternate untraced and traced, and the result holds the per-layer metrics.
A results file with the environment record goes to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_job, known_failure, load_reference  # noqa: E402
from workloads import WORKLOADS, job_order  # noqa: E402

BLAS_THREADS = "1"
MIN_ITERATIONS = 3
MIN_SETUP_PROBES = 2
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def spawn(args: list[str], stderr_path: Path) -> tuple[float, dict | None]:
    """Run ``worker.py`` with ``args``; return its set-up time and result line."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    with open(stderr_path, "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                text=True, env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        err.seek(0)
        log = err.read()
    if first != "ready\n" or proc.returncode != 0:
        raise BenchError(f"worker {args[:3]} exited {proc.returncode}:\n{log[-2000:]}")
    lines = rest.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else None


class Run:
    """Iterations of one workload, with their samples and output checks."""

    def __init__(self, workload: str, seed: int, scratch: Path):
        self.workload, self.seed, self.scratch = workload, seed, scratch
        self.reference = load_reference()["jobs"]
        self.setups: list[float] = []
        self.walls: dict[int, list[float]] = {0: [], 1: []}
        self.rss: list[float] = []
        self.layers: list[dict] = []
        self.attempted = self.failed = 0
        self.failures: dict[str, list[str]] = {}
        self.unexpected: list[str] = []
        self.env: dict = {}
        self.iterations = 0

    def probe_setup(self) -> None:
        setup, _ = spawn(["--setup-only"], self.scratch / "stderr.log")
        self.setups.append(setup)

    def iterate(self, trace: int) -> None:
        jobs = WORKLOADS[self.workload]
        order = job_order(self.workload, self.seed, self.iterations)
        outdir = self.scratch / f"it{self.iterations}"
        outdir.mkdir()
        args = ["--workload", self.workload, "--order", ",".join(map(str, order)),
                "--outdir", str(outdir), "--trace", str(trace),
                "--spans", str(ROOT / ".bench_results" / f"{self.workload}-spans.json")]
        setup, result = spawn(args, self.scratch / "stderr.log")
        self.setups.append(setup)
        self.walls[trace].append(result["wall_s"])
        self.rss.append(result["peak_rss_mb"])
        self.env = result["env"]
        for i in order:
            line = jobs[i]
            ref = self.reference[line]
            failures = check_job(line, outdir / f"job{i}", result["codes"][str(i)], ref)
            self.attempted += 1
            if failures:
                self.failed += 1
                self.failures[line] = failures
                if not known_failure(failures, ref):
                    self.unexpected.append(line)
        if trace:
            layers = dict(result["layers"])
            layers["cli.csv_bytes"] = sum(p.stat().st_size for p in outdir.glob("*.csv"))
            self.layers.append(layers)
        shutil.rmtree(outdir)
        self.iterations += 1


def measure(run: Run, seconds: float, trace: int) -> None:
    """Run iterations until the next one would end after ``seconds``.

    Untraced runs then spend what is left of ``seconds`` on extra set-up
    probes, so that ``setup_s`` is a median over many set-ups.
    """
    start = time.perf_counter()
    durations: list[float] = []
    modes = [0, 1] if trace else [0]
    minimum = 1 if trace else MIN_ITERATIONS
    while True:
        t = time.perf_counter()
        for mode in modes:
            run.iterate(mode)
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if len(durations) >= minimum and elapsed + statistics.median(durations) > seconds:
            break
    probes = 0
    while not trace:
        elapsed = time.perf_counter() - start
        if probes >= MIN_SETUP_PROBES and elapsed + statistics.median(run.setups) > seconds:
            break
        run.probe_setup()
        probes += 1


def metrics(run: Run, trace: int) -> dict[str, dict]:
    if trace:
        from_layers = {k: statistics.median(r[k] for r in run.layers)
                       for k in run.layers[0]}
        from_layers["trace.overhead_s"] = (statistics.median(run.walls[1])
                                           - statistics.median(run.walls[0]))
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        return {m["name"]: {"value": from_layers[m["name"]], "unit": m["unit"]}
                for m in declared}
    return {
        "setup_s": {"value": statistics.median(run.setups), "unit": "s"},
        "wall_s": {"value": statistics.median(run.walls[0]), "unit": "s"},
        # the highest of the per-iteration peaks: a median would flip between
        # job orders whose heaps peak a few MB apart
        "peak_rss_mb": {"value": max(run.rss), "unit": "MB"},
        "pass_ratio": {"value": 1.0 - run.failed / run.attempted, "unit": "1"},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "splinespectra" / "cli.py").is_file():
        print(f"no splinespectra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    (ROOT / ".bench_results").mkdir(exist_ok=True)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=ROOT / ".bench_tmp"))
    run = Run(args.workload, args.seed, scratch)
    try:
        measure(run, args.seconds, args.trace)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = {
        "correct": not run.unexpected,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics(run, args.trace),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "iterations": run.iterations,
        "environment": run.env,
        "samples": {"setup_s": run.setups, "wall_s": run.walls[0],
                    "traced_wall_s": run.walls[1], "peak_rss_mb": run.rss},
        "fail_ratio": run.failed / run.attempted,
        "failures": run.failures, "unexpected_failures": run.unexpected,
        **result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (ROOT / ".bench_results" / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}: {run.iterations} iterations, "
          f"{run.attempted} jobs, {len(run.setups)} set-ups; "
          f"BLAS threads {BLAS_THREADS}, nproc {run.env.get('nproc')}")
    print(f"fail_ratio {run.failed}/{run.attempted} "
          f"(known defects: {sorted(set(run.failures) - set(run.unexpected))})")
    for line in run.unexpected:
        print(f"UNEXPECTED FAILURE {line}: {run.failures[line]}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
