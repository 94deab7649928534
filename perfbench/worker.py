"""One workload iteration in a fresh interpreter; started by ``run.py``.

Protocol on standard output: the line ``ready`` as soon as
``splinespectra.cli`` is imported (the runner times set-up up to this line),
then, unless ``--setup-only``, one JSON line with the wall time of the job
list, each job's exit code, the peak resident memory and the environment.
With ``--trace 1`` the jobs run under the outside-in tracer; the spans are
written to ``--spans`` and the per-layer metrics added to the JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def environment() -> dict:
    import numpy
    import scipy

    def blas(config: dict) -> str:
        dep = config["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
    }


def run_jobs(cli, lines: dict[int, str], outdir: Path, tracer=None) -> dict[int, int]:
    from workloads import job_argv

    codes = {}
    for i, line in lines.items():
        if tracer is not None:
            tracer.job = i
        try:
            codes[i] = cli.main(job_argv(line, str(outdir / f"job{i}")))
        except Exception:  # a raw traceback is a failed job, not a failed benchmark
            traceback.print_exc()
            codes[i] = 1
    return codes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--order", default="")
    ap.add_argument("--outdir", type=Path)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    from splinespectra import cli

    print("ready", flush=True)
    if args.setup_only:
        return 0

    from workloads import WORKLOADS

    jobs = WORKLOADS[args.workload]
    lines = {int(i): jobs[int(i)] for i in args.order.split(",")}
    tracer = None
    if args.trace:
        import layers

        before = layers.bindings()
        tracer = layers.install_tracer()
    start = time.perf_counter()
    codes = run_jobs(cli, lines, args.outdir, tracer)
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"wall_s": wall, "codes": codes, "peak_rss_mb": peak_kb / 1024,
              "env": environment()}
    if tracer is not None:
        tracer.uninstall()
        changed = [f"{o}.{a}" for (o, a), obj in layers.bindings().items()
                   if before.get((o, a)) is not obj]
        if changed:
            print(f"tracer left wrappers behind: {changed[:5]}", file=sys.stderr)
            return 1
        result["layers"] = layers.layer_metrics(tracer, lines)
        args.spans.write_text(json.dumps({"jobs": lines, "spans": tracer.spans},
                                         separators=(",", ":")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
