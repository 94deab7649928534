import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from splinespectra import analysis, cli
from splinespectra.cli import main
from splinespectra.splines import BlockLayout

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
    real = analysis.sample_matrix

    def counting(op, xs):
        calls.append(len(xs))
        return real(op, xs)

    monkeypatch.setattr(analysis, "sample_matrix", counting)
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
])
def test_config_errors_exit_2(args):
    assert main(args) == 2


@pytest.mark.parametrize("line", [
    "spectrum --elements 1 --p 1",                       # no dofs left
    "outliers --p 1 --elements 10",                      # census needs p >= 2
    "spectrum --points 40 --elements 10",                # no such Gauss rule
    "spectrum --quadrature lobatto --points 1 --elements 10",
    "stopbands --method riga --block 3 --bc neumann --elements 12",
    "spectrum --elements 7000 --p 1",                    # dense solve limit
    "spectrum2d --method fea --p 7 --elements 32",       # 2D dof cap
    "spectrum --method fea --p 1 --elements 1 --bc neumann",  # N0 = 0
    "spectrum --method iga --p 1 --elements 1 --bc neumann",
    "converge --elements 4,4,4",                         # one distinct size
])
def test_library_input_errors_exit_2(line, capsys):
    assert main(line.split()) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


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
