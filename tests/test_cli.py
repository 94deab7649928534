import argparse
import collections
import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from splinespectra import analysis, cli, eigensolve, quadrature
from splinespectra.assembly import assemble_layout
from splinespectra.cli import main
from splinespectra.eigensolve import solve_gevp
from splinespectra.quadrature import gauss_rule, lobatto_rule
from splinespectra.splines import BlockLayout

from oracles import QuadratureFormsSpectrum, reference_cells, reference_csv_text

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    from workloads import WORKLOADS, job_argv
finally:
    sys.path.remove(PERFBENCH)

SVG_NS = "{http://www.w3.org/2000/svg}"


def read_csv(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""  # trailing newline, \n endings
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines[:-1] if l and not l.startswith("#")]
    return comments, body[0].split(","), body[1:]


def test_spectrum_riga_row_count(tmp_path):
    out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--method", "riga", "--p", "2", "--elements", "1000",
               "--block", "100", "--out", str(out)])
    assert rc == 0
    comments, header, rows = read_csv(out)
    assert len(rows) == 1009  # 9 separators add 9 modes
    assert header == ["j", "j_over_N0", "lambda_exact", "lambda_h", "ev_rel",
                      "ef_l2_sq", "ef_energy_rel_sq", "energy_gap",
                      "l2_deficit", "pythagoras_residual"]
    assert comments[0].startswith("# config: ")
    assert "method=riga" in comments[0]
    # modes beyond N0 land at abscissa > 1
    assert float(rows[-1].split(",")[1]) > 1.0


def test_spectrum_iga_and_fea_row_counts(tmp_path):
    out = tmp_path / "iga.csv"
    assert main(["spectrum", "--p", "2", "--elements", "1000",
                 "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert len(rows) == 1000
    ratios = [float(r.split(",")[1]) for r in rows]
    assert 0.0 < min(ratios) and max(ratios) == pytest.approx(1.0)

    out = tmp_path / "fea.csv"
    assert main(["spectrum", "--method", "fea", "--p", "2", "--elements", "500",
                 "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert len(rows) == 999


def test_spectrum_deterministic_and_svg(tmp_path):
    args = ["spectrum", "--method", "riga", "--p", "2", "--elements", "60",
            "--block", "10"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    svg = tmp_path / "plot.svg"
    assert main(args + ["--out", str(a), "--svg", str(svg)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    root = ET.parse(svg).getroot()
    polylines = root.findall(f".//{SVG_NS}polyline")
    assert len(polylines) == 6  # three budget series on linear and log panels
    groups = root.findall(f".//{SVG_NS}g")
    assert all("data-xmin" in g.attrib for g in groups if g.get("class") == "plot")


def test_converge_assertions(tmp_path):
    out = tmp_path / "conv.csv"
    rc = main(["converge", "--p", "2", "--elements", "8,16,32,64",
               "--assert-slope", "4.0", "--slope-tol", "0.1", "--out", str(out)])
    assert rc == 0
    comments, header, rows = read_csv(out)
    assert header == ["n_elements", "h", "ev_rel_j1"]
    assert len(rows) == 4
    slope = float(next(c for c in comments if c.startswith("# slope:")).split(":")[1])
    assert slope == pytest.approx(4.0, abs=0.1)

    rc = main(["converge", "--p", "2", "--elements", "8,16,32,64",
               "--assert-slope", "5.0", "--slope-tol", "0.1", "--out", str(out)])
    assert rc == 4

    rc = main(["converge", "--p", "2", "--elements", "8,16", "--out", str(out)])
    assert rc == 2


@pytest.mark.parametrize("flags, make", [
    ("--method riga --block 10", lambda n: BlockLayout.riga(n, 2, 10)),
    ("--method fea", lambda n: BlockLayout.fea(n, 2)),
    ("--bc neumann", lambda n: BlockLayout.iga(n, 2, bc="neumann")),
], ids=["riga", "fea", "iga-neumann"])
def test_converge_solves_the_requested_layout(tmp_path, flags, make):
    out = tmp_path / "conv.csv"
    sizes = [10, 20, 40]
    rc = main(["converge", "--p", "2", "--elements", "10,20,40", *flags.split(),
               "--out", str(out)])
    assert rc == 0
    _, _, rows = read_csv(out)
    got = [float(r.split(",")[2]) for r in rows]
    assert got == [analysis.leading_mode_error(make(n)) for n in sizes]
    assert got != [analysis.leading_mode_error(BlockLayout.iga(n, 2)) for n in sizes]


def test_converge_runs_past_the_dense_wall(tmp_path):
    # each mesh is polished and certified on its bands, with no eigensolve:
    # 25,000 to 100,000 linear elements converge at order 2
    out = tmp_path / "conv.csv"
    assert main(["converge", "--p", "1", "--elements", "25000,50000,100000",
                 "--assert-slope", "2", "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    errs = np.array([float(r.split(",")[2]) for r in rows])
    assert np.all(np.isfinite(errs)) and np.all(errs > 0)
    h = np.array([1 / 25000, 1 / 50000, 1 / 100000])
    # the leading term of the closed form, to the quotient's round-off
    # (up to 9e-15 here)
    np.testing.assert_allclose(errs, (math.pi * h) ** 2 / 12, rtol=0, atol=1e-13)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_converge_exits_3_when_the_mode_fails_its_certificate(monkeypatch, tmp_path, bc,
                                                               capsys):
    # a polish that lands on the second mode: an eigenvalue lies below half
    # of its quotient, so the certificate refuses it
    polish = analysis.polish_eigenvalue
    monkeypatch.setattr(analysis, "polish_eigenvalue",
                        lambda op, estimate: polish(op, 4 * estimate))
    assert main(["converge", "--p", "2", "--elements", "10,20,40", "--bc", bc,
                 "--out", str(tmp_path / "conv.csv")]) == 3
    assert "is not the lowest" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "converge --p 2 --elements 10,20,40 --bc neumann",
    "stopbands --method riga --p 3 --block 4 --elements 16",
    "spectrum2d --method riga --p 2 --block 4 --elements 8",
], ids=lambda line: line.split()[0])
def test_values_only_jobs_form_no_eigenvectors(tmp_path, monkeypatch, line):
    def no_eigenvectors(*args):
        raise AssertionError("a values-only job formed eigenvectors")

    for module in (eigensolve, analysis, cli):
        if hasattr(module, "solve_gevp"):
            monkeypatch.setattr(module, "solve_gevp", no_eigenvectors)
    assert main(line.split() + ["--out", str(tmp_path / "run.csv")]) == 0


@pytest.mark.parametrize("quadrature", ["gauss", "lobatto"])
def test_spectrum_does_not_depend_on_the_solve_kept_forms(tmp_path, monkeypatch, quadrature):
    """The budget takes v^T M v and v^T K v of the solve's pencil from the
    forms the solve kept, one block's sums at the quadrature points, and
    forms those of the Gauss rule the same way.  Its CSV is that of a run
    whose spectrum, held as one array, takes the whole-mesh sums of the
    oracle instead, to round-off: the eigenvalue columns bit for bit, the
    rest within 5e-13 (those that read the pair products take them from the
    columns there, not from the Bloch factors)."""
    args = ["spectrum", "--method", "riga", "--p", "2", "--block", "20",
            "--elements", "200", "--quadrature", quadrature]

    def run(name, spectrum_of):
        monkeypatch.setattr(cli, "solve_gevp", lambda op: spectrum_of(op, solve(op)))
        csv, svg = tmp_path / f"{name}.csv", tmp_path / f"{name}.svg"
        assert main(args + ["--out", str(csv), "--svg", str(svg)]) == 0
        comments, header, rows = read_csv(csv)
        return comments, dict(zip(header, zip(*(row.split(",") for row in rows))))

    def kept(op, spectrum):
        assert isinstance(spectrum, eigensolve._BlochSpectrum)
        assert list(spectrum._forms) == [op.quadrature]
        return spectrum

    solve = cli.solve_gevp
    comments, got = run("kept", kept)
    oracle_comments, expected = run("oracle", lambda op, spectrum: QuadratureFormsSpectrum(
        spectrum, op))
    assert comments == oracle_comments and got.keys() == expected.keys()
    for name, cells in got.items():
        if name in ("j", "j_over_N0", "lambda_exact", "lambda_h", "ev_rel"):
            assert cells == expected[name], name
        else:
            np.testing.assert_allclose(np.array(cells, float), np.array(expected[name], float),
                                       rtol=0, atol=5e-13, err_msg=name)


def test_spectrum_past_the_dense_limit(tmp_path):
    # 6,160 dofs: the repeated blocks give every eigenpair, a block of
    # eigenvector columns at a time, without an n x n array
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--method", "riga", "--p", "2", "--block", "100",
                 "--elements", "6100", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert len(rows) == 6160
    assert [int(r.split(",", 1)[0]) for r in rows] == list(range(1, 6161))
    cells = np.array([[float(c) for c in r.split(",")] for r in rows])
    assert np.all(np.isfinite(cells))
    assert np.max(np.abs(cells[:, header.index("pythagoras_residual")])) < 1e-9


def test_stopbands_past_the_dense_limit(tmp_path):
    # 20,199 dofs: the repeated blocks give every eigenvalue without an n x n array
    out = tmp_path / "bands.csv"
    assert main(["stopbands", "--method", "riga", "--p", "2", "--block", "100",
                 "--elements", "20000", "--out", str(out)]) == 0
    comments, header, rows = read_csv(out)
    assert len(rows) == 100
    assert "# bands: 100 expected: 100 matched_1e-6: 100" in comments


def test_stopbands_csv(tmp_path, monkeypatch):
    out = tmp_path / "bands.csv"
    rc = main(["stopbands", "--method", "riga", "--p", "2", "--elements", "100",
               "--block", "10", "--out", str(out)])
    assert rc == 0
    comments, header, rows = read_csv(out)
    assert len(rows) == 10
    assert any("bands: 10 expected: 10 matched_1e-6: 10" in c for c in comments)
    gaps = [float(r.split(",")[2]) for r in rows]
    assert max(gaps) < 1e-6

    assert main(["stopbands", "--p", "2", "--elements", "100",
                 "--out", str(out)]) == 2  # iga has no separators
    assert main(["stopbands", "--method", "riga", "--p", "3", "--elements", "12",
                 "--block", "4", "--continuity", "1", "--out", str(out)]) == 2

    def no_assembly(*args):
        raise AssertionError("assembled before the partition check")

    monkeypatch.setattr(cli, "assemble_layout", no_assembly)
    for extra in (["--bc", "neumann"], ["--p", "3", "--continuity", "1"]):
        assert main(["stopbands", "--method", "riga", "--p", "2", "--elements", "12",
                     "--block", "4", "--out", str(out)] + extra) == 2


def test_outliers_csv(tmp_path, monkeypatch):
    calls = []
    real = analysis.sample_fields

    def counting(op, xs, V):
        calls.append(len(xs))
        return real(op, xs, V)

    monkeypatch.setattr(analysis, "sample_fields", counting)
    out = tmp_path / "outliers.csv"
    rc = main(["outliers", "--method", "riga", "--p", "2", "--elements", "192",
               "--block", "64", "--out", str(out)])
    assert rc == 0
    assert len(calls) == 1  # the census samples once; the .freq.csv reuses it
    comments, header, rows = read_csv(out)
    assert any("predicted: 2 observed: 2" in c for c in comments)
    assert [int(r.split(",")[0]) for r in rows] == [193, 194]
    freq = out.with_suffix(".freq.csv")
    assert freq.exists()
    _, fheader, frows = read_csv(freq)
    assert fheader == ["mode", "frequency", "magnitude"]
    assert {int(r.split(",")[0]) for r in frows} == {193, 194}


@pytest.mark.parametrize("config", [
    cli.ExperimentConfig(method="riga", p=2, elements=192, block=64),
    cli.ExperimentConfig(method="fea", p=2, elements=30),
], ids=["riga", "fea"])
def test_frequency_table_is_the_whole_table_text(tmp_path, capsys, config):
    """The ``.freq.csv``, written one mode at a time, and the same table on
    stdout are byte for byte the text of the whole table formatted at once
    (``oracles.reference_csv_text``): every mode's row of each bin up to the
    dof count."""
    op = assemble_layout(config.layout(), config.quadrature_spec())
    report = analysis.outlier_report(solve_gevp(op), op)
    freqs = 0.5 * np.arange(report.magnitudes.shape[1])
    freqs = freqs[freqs <= op.n_dofs]
    expected = reference_csv_text({
        "mode": np.repeat(report.mode, freqs.size),
        "frequency": np.tile(freqs, report.mode.size),
        "magnitude": report.magnitudes[:, :freqs.size].ravel(),
    }, config)
    line = ["outliers", "--method", config.method, "--p", str(config.p),
            "--elements", str(config.elements)]
    line += [] if config.block is None else ["--block", str(config.block)]
    out = tmp_path / "run.csv"
    assert main(line + ["--out", str(out)]) == 0
    assert out.with_suffix(".freq.csv").read_text() == expected
    capsys.readouterr()
    assert main(line) == 0
    assert capsys.readouterr().out == out.read_text() + expected


@pytest.mark.parametrize("p", [2, 3])
def test_outliers_max_continuity_separators_match_iga(tmp_path, p):
    # C^(p-1) separators are simple knots: riga builds the iga knot vector,
    # and the census must not count them as C^0 separators
    def run(name, flags):
        out = tmp_path / f"{name}.csv"
        assert main(["outliers", "--p", str(p), "--elements", "100", *flags,
                     "--out", str(out)]) == 0
        texts = [out.read_text(), out.with_suffix(".freq.csv").read_text()]
        return [t.split("\n", 1) for t in texts]

    riga = run("riga", ["--method", "riga", "--block", "10",
                        "--continuity", str(p - 1)])
    iga = run("iga", ["--method", "iga"])
    for (riga_config, riga_body), (iga_config, iga_body) in zip(riga, iga):
        assert riga_config.startswith("# config: ") and riga_config != iga_config
        assert riga_body == iga_body


def test_outliers_refuses_uncovered_census_before_assembly(tmp_path, monkeypatch):
    def no_assembly(*args):
        raise AssertionError("assembled before the census check")

    monkeypatch.setattr(cli, "assemble_layout", no_assembly)
    for line in ("outliers --method riga --p 4 --block 5 --continuity 1 --elements 20",
                 "outliers --p 1 --elements 10"):
        assert main(line.split() + ["--out", str(tmp_path / "o.csv")]) == 2


def test_spectrum2d(tmp_path):
    out = tmp_path / "2d.csv"
    svg = tmp_path / "2d.svg"
    rc = main(["spectrum2d", "--p", "2", "--elements", "8",
               "--out", str(out), "--svg", str(svg)])
    assert rc == 0
    _, header, rows = read_csv(out)
    assert header == ["j", "k", "lambda_exact", "lambda_h", "ev_rel"]
    assert len(rows) == 64  # (8 + 2 - 2)^2 modes
    first = rows[0].split(",")
    assert (int(first[0]), int(first[1])) == (1, 1)
    root = ET.parse(svg).getroot()
    rects = root.findall(f".//{SVG_NS}rect")
    assert len(rects) == 64

    assert main(["spectrum2d", "--p", "2", "--elements", "33",
                 "--out", str(out)]) == 2  # desk-scale cap


def test_spectrum2d_neumann_constant_mode(tmp_path):
    out = tmp_path / "2d.csv"
    assert main(["spectrum2d", "--p", "2", "--elements", "6", "--bc", "neumann",
                 "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    table = np.array([[float(v) for v in r.split(",")] for r in rows])
    assert np.all(np.isfinite(table))
    j, k, lam_exact, lam_h, ev_rel = table[0]
    assert (j, k, lam_exact) == (0, 0, 0.0)
    assert ev_rel == lam_h  # absolute error where the exact eigenvalue is zero


def test_config_file_overrides_flags(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("elements=12\nmethod=riga\nblock=4\n")
    out = tmp_path / "c.csv"
    rc = main(["spectrum", "--p", "2", "--elements", "999",
               "--config", str(cfgfile), "--out", str(out)])
    assert rc == 0
    comments, _, rows = read_csv(out)
    assert "elements=12" in comments[0]
    assert len(rows) == 12 + 2 - 2 + 2  # riga 3 blocks of 4: two separators

    cfgfile.write_text("nonsense=1\n")
    assert main(["spectrum", "--config", str(cfgfile)]) == 2


@pytest.mark.parametrize("args", [
    ["spectrum", "--method", "fea", "--p", "2", "--elements", "10", "--block", "5"],
    ["spectrum", "--method", "riga", "--p", "2", "--elements", "10"],
    ["spectrum", "--quadrature", "blended", "--elements", "10"],
    ["spectrum", "--method", "riga", "--p", "2", "--elements", "10",
     "--block", "4", "--continuity", "5"],
    ["spectrum", "--continuity", "5", "--elements", "10"],  # iga ran, echoed continuity=5
])
def test_config_errors_exit_2(args):
    assert main(args) == 2


@pytest.mark.parametrize("line", [
    "spectrum --elements 1 --p 1",                       # no dofs left
    "outliers --p 1 --elements 10",                      # census needs p >= 2
    "outliers --method riga --p 4 --block 5 --continuity 1 --elements 20",
    "spectrum --points 40 --elements 10",                # no such Gauss rule
    "spectrum --quadrature lobatto --points 1 --elements 10",
    "stopbands --method riga --block 3 --bc neumann --elements 12",
    "spectrum --elements 7000 --p 1",                    # eigensolve size limit
    "stopbands --method riga --p 2 --elements 6001 --block 7",  # same limit, ragged values
    "spectrum2d --method fea --p 7 --elements 32",       # 2D dof cap
    "spectrum --method fea --p 1 --elements 1 --bc neumann",  # N0 = 0
    "spectrum --method iga --p 1 --elements 1 --bc neumann",
    "converge --elements 4,4,4",                         # one distinct size
])
def test_library_input_errors_exit_2(line, capsys):
    assert main(line.split()) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


@pytest.mark.parametrize("flags, rule", [
    ("--points 0", "points"),                       # ran the default p + 1 points
    ("--quadrature blended --tau inf", "tau"),      # reached assembly with warnings
    ("--quadrature blended --tau nan", "tau"),
    ("--quadrature lobatto --tau nan", "tau applies to blended"),  # ran Lobatto, echoed tau
    ("--tau 0.5", "tau applies to blended"),                      # ran Gauss, echoed tau
])
def test_quadrature_input_rules_exit_2(flags, rule, capsys):
    assert main(["spectrum", "--elements", "10", *flags.split()]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert rule in err  # the rule that was broken, not a symptom downstream


def test_outliers_flatness_is_finite(tmp_path):
    # a zero spectrum median gave inf and a RuntimeWarning (an error here)
    out = tmp_path / "outliers.csv"
    assert main(["outliers", "--method", "fea", "--p", "3", "--elements", "30",
                 "--out", str(out)]) == 0
    comments, header, rows = read_csv(out)
    flatness = [float(r.split(",")[header.index("flatness")]) for r in rows]
    assert len(flatness) == 60
    assert all(math.isfinite(f) for f in flatness)
    assert max(flatness) == 1.0 / np.finfo(float).eps


def test_outliers_flatness_of_an_empty_window(tmp_path):
    # mode 4 of riga(4, 3, 2) has no content in sine bins 1 .. n // 2: its
    # ratio was 0 / 0, written as nan with a RuntimeWarning (an error here)
    out = tmp_path / "outliers.csv"
    assert main(["outliers", "--method", "riga", "--p", "3", "--block", "2",
                 "--elements", "4", "--out", str(out)]) == 0
    comments, header, rows = read_csv(out)
    cells = [cell for r in rows for cell in r.split(",")]
    assert len(cells) == 4 * len(header)
    assert all(math.isfinite(float(cell)) for cell in cells)
    assert rows[0].split(",")[header.index("flatness")] == "1"


def test_cli_import_leaves_scipy_optimize_unloaded():
    # only find_optimal_tau needs it, and no subcommand calls that
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, splinespectra.cli; sys.exit('scipy.optimize' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 0, run.stderr


def test_cli_import_leaves_scipy_sparse_linalg_unloaded():
    # the polish factors on the bands: no subcommand needs a sparse solver,
    # whose import costs every CLI run about 18 ms and 2 MB
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, splinespectra.cli; sys.exit('scipy.sparse.linalg' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 0, run.stderr


def test_cli_import_leaves_scipy_special_unloaded():
    # the Lobatto rules come from numpy: scipy.special costs every CLI run
    # about 3.6 MB and 20-50 ms to import
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, splinespectra.cli; sys.exit('scipy.special' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 0, run.stderr


# one small job of each subcommand, on both eigensolve routes and every rule
GUARD_JOBS = [
    "spectrum --method riga --p 2 --block 10 --elements 40",
    "spectrum --method iga --p 3 --elements 12 --bc neumann --quadrature lobatto",
    "outliers --method riga --p 3 --block 10 --elements 30",
    "converge --p 2 --elements 10,20,40 --quadrature blended --tau 0.5",
    "stopbands --method riga --p 2 --block 5 --elements 20",
    "spectrum2d --method riga --p 2 --block 4 --elements 8",
]


def test_cli_runs_without_scipy_and_imports_nothing_inside_a_job(tmp_path):
    # the seven LAPACK routines come from numpy's own LAPACK, and every
    # module a job reaches is imported with the CLI: scipy's import was
    # most of the start-up, and a module imported inside a job is timed
    # with the job.  The polish starts from no random generator and the
    # Gauss rule is the package's own, so numpy.random (6 MB of resident
    # memory) and numpy.polynomial are loaded neither with the CLI nor by a job
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, json, splinespectra.cli as cli\n"
        "unwanted = ('scipy', 'numpy.random', 'numpy.polynomial')\n"
        "out = {'unwanted': sorted(m for m in sys.modules\n"
        "                          if any(m == u or m.startswith(u + '.') for u in unwanted))}\n"
        "for i, line in enumerate(json.loads(sys.argv[1])):\n"
        "    before = set(sys.modules)\n"
        "    code = cli.main(line.split() + ['--out', sys.argv[2] + f'/job{i}.csv'])\n"
        "    out[line] = [code, sorted(set(sys.modules) - before)]\n"
        "print(json.dumps(out))\n")
    run = subprocess.run([sys.executable, "-c", code, json.dumps(GUARD_JOBS), str(tmp_path)],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout.splitlines()[-1])
    assert out.pop("unwanted") == []
    assert out == {line: [0, []] for line in GUARD_JOBS}


def test_python_dash_m_entry_point():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = [sys.executable, "-m", "splinespectra"]
    ok = subprocess.run(run + ["spectrum", "--p", "1", "--elements", "4"],
                        env=env, capture_output=True, text=True, timeout=60)
    assert ok.returncode == 0
    assert ok.stdout.startswith("# config: ")
    assert subprocess.run(run, env=env, capture_output=True,
                          timeout=60).returncode == 2


def test_numerical_failure_exit_3(tmp_path):
    rc = main(["spectrum", "--p", "2", "--elements", "12", "--quadrature",
               "blended", "--tau", "-60.0", "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    # one Gauss point per quadratic element leaves the mass rank-deficient
    for command in ("spectrum", "stopbands"):
        rc = main([command, "--method", "fea", "--p", "2", "--elements", "2",
                   "--points", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 3


def test_stdout_output(capsys):
    assert main(["spectrum", "--p", "1", "--elements", "4"]) == 0
    captured = capsys.readouterr().out
    assert captured.startswith("# config: ")
    assert len(captured.strip().split("\n")) == 2 + 3  # comment, header, 3 modes


@st.composite
def small_cli_lines(draw):
    """Argument lines over every subcommand on meshes of at most six elements.

    Block sizes, continuities and point counts are drawn independently of the
    method, so many lines are invalid and must exit 2."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    quadrature = draw(st.sampled_from(["gauss", "lobatto", "blended"]))
    argv = [draw(st.sampled_from(["spectrum", "converge", "stopbands",
                                  "outliers", "spectrum2d"])),
            "--method", draw(st.sampled_from(["fea", "iga", "riga"])),
            "--p", str(draw(st.integers(1, 4))),
            "--elements", ",".join(map(str, sizes)),
            "--continuity", str(draw(st.integers(0, 3))),
            "--bc", draw(st.sampled_from(["dirichlet", "neumann"])),
            "--quadrature", quadrature,
            "--points", str(draw(st.integers(0, 3)))]
    block = draw(st.none() | st.integers(1, 6))
    if block is not None:
        argv += ["--block", str(block)]
    if quadrature == "blended":
        argv += ["--tau", str(draw(st.sampled_from([2 / 3, 1.0, -2.0])))]
    return argv


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(small_cli_lines())
@example("spectrum --method fea --p 1 --elements 1 --bc neumann".split())
@example("spectrum --method iga --p 1 --elements 1 --bc neumann".split())
@example("spectrum --method fea --p 2 --elements 2 --points 1".split())
@example("stopbands --method fea --p 2 --elements 2 --points 1".split())
def test_cli_exit_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        rc = main(argv + ["--out", str(Path(tmp) / "run.csv")])
        assert rc in (0, 2, 3, 4)
        if rc == 0:
            for path in Path(tmp).glob("*.csv"):
                _, _, rows = read_csv(path)
                cells = [float(c) for r in rows for c in r.split(",") if c]
                assert np.all(np.isfinite(cells)), path.name


def reference_csv(header, rows, config, comments):
    """The CSV writer's rule, applied one row and one cell at a time."""
    def cell(x):
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        if x is None:
            return ""
        return f"{float(x):.17g}"

    lines = [f"# config: {config.echo()}", *comments, ",".join(header)]
    lines += [",".join(cell(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308,
               1.7976931348623157e308, -1e300, 0.1, 1.0 / 3.0]
FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_FLOATS)


@st.composite
def csv_columns(draw):
    """Columns as the subcommands hand them over: int and float arrays, object
    arrays holding ``None`` for missing values, and plain lists of ints."""
    n_rows = draw(st.integers(0, 12))
    columns = {}
    for k in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["int", "float", "optional", "list"]))
        if kind == "float":
            col = np.array(draw(st.lists(FLOATS, min_size=n_rows, max_size=n_rows)))
        elif kind == "optional":
            col = np.array(draw(st.lists(st.none() | FLOATS, min_size=n_rows,
                                         max_size=n_rows)), dtype=object)
        else:
            ints = draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n_rows,
                                 max_size=n_rows))
            col = ints if kind == "list" else np.array(ints, dtype=np.int64)
        columns[f"{kind}{k}"] = col
    return columns


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(columns=csv_columns(), comments=st.sampled_from([None, ["# slope: 4"]]))
def test_csv_columns_match_row_by_row_rule(columns, comments):
    cfg = cli.ExperimentConfig()
    rows = zip(*columns.values())
    assert cli._csv(columns, cfg, comments) == \
        reference_csv(list(columns), rows, cfg, comments or [])


@pytest.mark.parametrize("line", [
    "spectrum --method riga --p 2 --block 10 --elements 40",
    "converge --p 2 --elements 10,20,40",
    "stopbands --method riga --p 3 --block 4 --elements 16",
    "outliers --method riga --p 3 --block 10 --elements 40",
    "outliers --method iga --p 2 --elements 24",
    "spectrum2d --method riga --p 2 --block 4 --elements 8",
], ids=lambda line: "-".join(line.split()[:3:2]))
def test_cells_by_dtype_match_the_per_cell_rule(tmp_path, monkeypatch, line):
    """Every column a subcommand hands to ``_csv`` is formatted, byte for
    byte, as the per-cell rule formats it (the ``.freq.csv`` rows, written
    one mode at a time, are held to the whole-table text by
    ``test_frequency_table_is_the_whole_table_text``)."""
    tables = []
    real = cli._csv

    def recording(columns, config, comments=None):
        tables.append(columns)
        return real(columns, config, comments)

    monkeypatch.setattr(cli, "_csv", recording)
    assert main(line.split() + ["--out", str(tmp_path / "run.csv")]) == 0
    assert tables
    for columns in tables:
        for name, column in columns.items():
            assert cli._cells(column) == reference_cells(column), name


def test_csv_refuses_columns_of_different_lengths():
    with pytest.raises(ValueError):
        cli._csv({"a": np.arange(3), "b": np.zeros(2)}, cli.ExperimentConfig())


# ---------------------------------------------------------------------------
# the parser and the quadrature rules are built once per process
# ---------------------------------------------------------------------------

def _clear_caches():
    cli.build_parser.cache_clear()
    gauss_rule.cache_clear()
    lobatto_rule.cache_clear()


def test_cached_parser_and_rules_change_no_output(tmp_path, capsys):
    # every workload line, a --config line and an exit-2 line whose Gauss rule
    # does not exist, run twice interleaved in one process and once more after
    # the caches are cleared: every exit code, stream and file byte agrees
    cfg = tmp_path / "run.cfg"
    cfg.write_text("elements=12\nmethod=riga\nblock=4\nquadrature=lobatto\n")
    lines = [line for jobs in WORKLOADS.values() for line in jobs]
    lines += [f"spectrum --p 3 --elements 999 --config {cfg} --svg",
              "spectrum --points 40 --elements 10"]

    def run(tag: str, k: int):
        stem = tmp_path / f"{tag}{k}"
        code = main(job_argv(lines[k], str(stem)))
        files = {p.name[len(stem.name):]: p.read_bytes()
                 for p in sorted(tmp_path.glob(f"{stem.name}.*"))}
        return code, capsys.readouterr(), files

    order = [*range(len(lines)), *reversed(range(len(lines)))]
    runs = collections.defaultdict(list)
    for i, k in enumerate(order):
        runs[k].append(run(f"warm{i}-", k))
    _clear_caches()
    for k in range(len(lines)):
        runs[k].append(run("cold-", k))
    for k, (first, second, cold) in runs.items():
        assert first == second == cold, lines[k]
        assert first[0] == (2 if k == len(lines) - 1 else 0)
        assert first[2] or first[0] == 2


@pytest.mark.parametrize("rule", [gauss_rule, lobatto_rule])
def test_a_rule_is_shared_and_read_only(rule):
    for n in (2, 3, 7, quadrature.MAX_POINTS):
        r = rule(n)
        assert rule(n) is r
        assert not r.nodes.flags.writeable and not r.weights.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            r.weights[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.nodes = np.zeros(n)


def test_an_unsupported_rule_raises_on_every_call():
    for _ in range(3):
        for rule, n in ((gauss_rule, 0), (gauss_rule, 33), (lobatto_rule, 1),
                        (lobatto_rule, 33)):
            with pytest.raises(ValueError, match=f"unsupported .* order {n}"):
                rule(n)


def test_values_sweep_builds_one_parser_and_each_rule_once(tmp_path, monkeypatch):
    # nine in-process jobs: one top-level parser, and one root computation
    # per distinct point count of each rule
    _clear_caches()
    parsers, roots = [], collections.Counter()
    init = argparse.ArgumentParser.__init__
    leggauss, jacobi_roots = quadrature._leggauss, quadrature._jacobi_roots
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: parsers.append(kw.get("prog"))
                        or init(self, *a, **kw))
    monkeypatch.setattr(quadrature, "_leggauss",
                        lambda n: roots.update([("gauss", n)]) or leggauss(n))
    monkeypatch.setattr(quadrature, "_jacobi_roots",
                        lambda n: roots.update([("jacobi", n)]) or jacobi_roots(n))
    jobs = WORKLOADS["values-sweep"]
    for k, line in enumerate(jobs):
        assert main(job_argv(line, str(tmp_path / f"job{k}"))) == 0
    assert len(jobs) == 9
    assert parsers.count("splinespectra") == 1
    assert roots and max(roots.values()) == 1
    assert {("gauss", 2), ("gauss", 3), ("gauss", 4), ("jacobi", 1)} <= roots.keys()
