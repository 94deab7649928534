"""Self-tests of the benchmark's tracer and output checks.

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

(The file name keeps these tests out of the repository's own test run.)
"""

from __future__ import annotations

import itertools
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
from checks import check_job, known_failure, load_reference  # noqa: E402
from splinespectra import analysis, assembly, cli, eigensolve, splines  # noqa: E402
from splinespectra.splines import BlockLayout  # noqa: E402
from tracer import END, NAME, PARENT, START, Tracer  # noqa: E402
from workloads import WORKLOADS, expected_dofs, job_argv, job_options  # noqa: E402

OUTLIER_JOB = "outliers --method riga --p 3 --block 50 --elements 400"
NEUMANN_JOB = "spectrum2d --method iga --p 3 --elements 32 --bc neumann"


def test_self_time_of_nested_calls():
    toy = types.ModuleType("toy")
    exec("def inner():\n    return 1\n\n"
         "def outer():\n    return inner() + inner()\n", toy.__dict__)
    ticks = itertools.count(0, 10)
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.install({"toy": toy})
    try:
        assert toy.outer() == 2
    finally:
        tracer.uninstall()
    names = [s[NAME] for s in tracer.spans]
    assert names == ["toy.outer", "toy.inner", "toy.inner"]
    assert [s[PARENT] for s in tracer.spans] == [-1, 0, 0]
    assert [s[END] - s[START] for s in tracer.spans] == [50, 10, 10]
    assert tracer.self_times() == [30, 10, 10]


def test_alias_rebinding_catches_calls_inside_analysis():
    op = assembly.assemble_layout(BlockLayout.riga(20, 2, 5))
    before = layers.bindings()
    tracer = layers.install_tracer()
    try:
        assert cli.solve_gevp is not before[("splinespectra.cli", "solve_gevp")]
        analysis.sample_matrix(op, [0.1, 0.5, 0.9])
    finally:
        tracer.uninstall()
    parents = {tracer.spans[s[PARENT]][NAME] for s in tracer.spans
               if s[NAME] == "splines.span_basis_rows"}
    assert parents == {"analysis.sample_matrix"}


def test_uninstall_restores_every_original():
    before = layers.bindings()
    tracer = layers.install_tracer()
    try:
        during = layers.bindings()
        wrapped = [k for k, obj in during.items() if obj is not before[k]]
        assert ("splinespectra.analysis", "span_basis_rows") in wrapped
        assert ("SymmetricBandedMatrix", "to_dense") in wrapped
    finally:
        tracer.uninstall()
    after = layers.bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert splines.span_basis_rows is analysis.span_basis_rows
    assert eigensolve.solve_gevp is cli.solve_gevp


def test_metric_names_match_benchmark_json(tmp_path):
    line = "stopbands --method riga --p 2 --block 5 --elements 20"
    tracer = layers.install_tracer()
    tracer.job = 0
    try:
        assert cli.main(job_argv(line, str(tmp_path / "job0"))) == 0
    finally:
        tracer.uninstall()
    metrics = layers.layer_metrics(tracer, {0: line})
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} == set(metrics) | {"cli.csv_bytes",
                                                            "trace.overhead_s"}
    assert metrics["eigensolve.solve_gevp.calls"] == 1
    assert metrics["eigensolve.solve_gevp.vectors_unread_ratio"] == 1.0
    assert metrics["analysis.sample_matrix.calls"] == 0


@pytest.fixture(scope="module")
def outlier_csv(tmp_path_factory):
    stem = tmp_path_factory.mktemp("outliers") / "job0"
    assert cli.main(job_argv(OUTLIER_JOB, str(stem))) == 0
    return stem


def test_checker_accepts_a_correct_outlier_report(outlier_csv):
    ref = load_reference()["jobs"][OUTLIER_JOB]
    assert check_job(OUTLIER_JOB, outlier_csv, 0, ref) == []


def test_checker_rejects_inf(outlier_csv, tmp_path):
    ref = load_reference()["jobs"][OUTLIER_JOB]
    stem = tmp_path / "job0"
    for suffix in (".csv", ".freq.csv"):
        stem.with_suffix(suffix).write_text(
            outlier_csv.with_suffix(suffix).read_text())
    lines = stem.with_suffix(".csv").read_text().split("\n")
    k = next(i for i, s in enumerate(lines) if s and s[0].isdigit())
    cells = lines[k].split(",")
    cells[1] = "inf"
    lines[k] = ",".join(cells)
    stem.with_suffix(".csv").write_text("\n".join(lines))
    failures = check_job(OUTLIER_JOB, stem, 0, ref)
    assert any(f.startswith("non-finite ev_rel") for f in failures)
    assert not known_failure(failures, ref)


def test_checker_rejects_a_wrong_census(outlier_csv, tmp_path):
    ref = load_reference()["jobs"][OUTLIER_JOB]
    stem = tmp_path / "job0"
    stem.with_suffix(".freq.csv").write_text(
        outlier_csv.with_suffix(".freq.csv").read_text())
    text = outlier_csv.with_suffix(".csv").read_text()
    stem.with_suffix(".csv").write_text(text.rsplit("\n", 2)[0] + "\n")  # drop a row
    assert any("predicted outliers" in f for f in check_job(OUTLIER_JOB, stem, 0, ref))
    stem.with_suffix(".csv").write_text(text.replace("# predicted: 16", "# predicted: 15"))
    assert any("predicted census" in f for f in check_job(OUTLIER_JOB, stem, 0, ref))


def test_checker_rejects_a_wrong_value(outlier_csv, tmp_path):
    ref = load_reference()["jobs"][OUTLIER_JOB]
    stem = tmp_path / "job0"
    stem.with_suffix(".freq.csv").write_text(
        outlier_csv.with_suffix(".freq.csv").read_text())
    first = f"{ref['ev_rel'][0]:.17g}"
    text = outlier_csv.with_suffix(".csv").read_text()
    assert f",{first}," in text
    stem.with_suffix(".csv").write_text(
        text.replace(f",{first},", f",{ref['ev_rel'][0] * (1 + 1e-6):.17g},"))
    failures = check_job(OUTLIER_JOB, stem, 0, ref)
    assert any(f.startswith("ev_rel differs from reference") for f in failures)


def test_neumann_inf_is_the_only_known_defect():
    jobs = load_reference()["jobs"]
    known = {line for line, ref in jobs.items() if ref.get("known_failures")}
    assert known == {NEUMANN_JOB}
    assert known_failure(jobs[NEUMANN_JOB]["known_failures"], jobs[NEUMANN_JOB])
    assert not known_failure(["exit code 3"], jobs[NEUMANN_JOB])


def test_expected_dofs_agrees_with_the_layouts():
    for line in {line for jobs in WORKLOADS.values() for line in jobs}:
        opts = job_options(line)
        p, bc = int(opts["p"]), opts.get("bc", "dirichlet")
        for n in map(int, opts["elements"].split(",")):
            layout = {"fea": lambda: BlockLayout.fea(n, p, bc),
                      "riga": lambda: BlockLayout(n, p, int(opts["block"]), 0, bc),
                      }.get(opts.get("method"), lambda: BlockLayout.iga(n, p, bc))()
            assert expected_dofs(opts, n) == layout.n_dofs, line
