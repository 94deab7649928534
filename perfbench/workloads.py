"""The benchmark's workloads: fixed lists of ``splinespectra`` CLI jobs.

Each job is one argument line for ``splinespectra.cli.main``.  The runner adds
``--out`` to every job, and ``--svg <path>`` where the line carries a bare
``--svg``.  The lists are fixed; the seed only permutes the job order.
"""

from __future__ import annotations

import math
import random

WORKLOADS: dict[str, list[str]] = {
    # full solve with eigenvectors plus the dense error budget; the only
    # workload whose memory is dominated by O(n^2) dense copies
    "spectrum-riga": [
        "spectrum --method riga --p 2 --block 100 --elements 2000 --svg",
    ],
    # outlier census: repeated sampling matrices from outlier_report,
    # frequency_content and am_fit; even p takes the sine AM-fit branch,
    # odd p the cosine branch
    "outliers-riga": [
        "outliers --method riga --p 2 --block 100 --elements 1000",
        "outliers --method riga --p 3 --block 50 --elements 400",
    ],
    # many small assemblies and solves whose eigenvectors nobody reads,
    # plus the bubble/band and 2D Kronecker paths; no sampling at all
    "values-sweep": [
        "converge --p 1 --elements 100,200,400,800,1600 --assert-slope 2",
        "converge --p 2 --elements 10,20,40,80,160 --assert-slope 4",
        "converge --p 3 --elements 8,16,32,64 --assert-slope 6",
        "converge --p 2 --elements 10,20,40,80,160 --quadrature lobatto "
        "--assert-slope 4",
        "stopbands --method fea --p 3 --elements 300",
        "stopbands --method riga --p 3 --block 20 --elements 600",
        "stopbands --method riga --p 2 --block 10 --elements 800",
        "spectrum2d --method riga --p 2 --block 8 --elements 32 --svg",
        "spectrum2d --method iga --p 3 --elements 32 --bc neumann",
    ],
}


def job_order(workload: str, seed: int, iteration: int) -> list[int]:
    """Job indices in the order one iteration runs them, drawn from the seed."""
    order = list(range(len(WORKLOADS[workload])))
    random.Random(f"{seed}:{iteration}").shuffle(order)
    return order


def job_argv(line: str, out_stem: str) -> list[str]:
    """Argument list for one job writing ``<out_stem>.csv`` (and ``.svg``)."""
    words = line.split()
    argv = [w for w in words if w != "--svg"] + ["--out", out_stem + ".csv"]
    if "--svg" in words:
        argv += ["--svg", out_stem + ".svg"]
    return argv


def job_options(line: str) -> dict[str, str]:
    """Subcommand and ``--key value`` pairs of a job line (``--svg`` omitted)."""
    words = line.split()
    opts = {"command": words[0]}
    rest = [w for w in words[1:] if w != "--svg"]
    for key, value in zip(rest[::2], rest[1::2]):
        opts[key.lstrip("-")] = value
    return opts


def expected_dofs(opts: dict[str, str], elements: int) -> int:
    """Degrees of freedom of a 1D layout, counted from the knot multiplicities.

    Written out here rather than asked of the library, so that the row-count
    check does not trust the code it checks.  Separators are ``C^0`` (knot
    multiplicity ``p``); every other interior knot is simple.
    """
    p = int(opts.get("p", 2))
    method = opts.get("method", "iga")
    if method == "iga":
        separators = 0
    else:
        block = 1 if method == "fea" else int(opts["block"])
        separators = math.ceil(elements / block) - 1
    dim = elements + p + (p - 1) * separators
    return dim - 2 if opts.get("bc", "dirichlet") == "dirichlet" else dim


def expected_outliers(opts: dict[str, str]) -> int:
    """Outlier census: ``2 * floor((p - 1) / 2)`` under Dirichlet plus ``p - 1`` per separator."""
    p = int(opts["p"])
    elements = int(opts["elements"])
    separators = math.ceil(elements / int(opts["block"])) - 1
    return 2 * ((p - 1) // 2) + (p - 1) * separators
