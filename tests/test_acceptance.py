"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Criterion 3 pins the p=2 leading coefficients of
the relative frequency error 1 - omega_h/omega for Gauss and Lobatto
quadrature; these are half the eigenvalue-error coefficients checked in
tests/test_analysis.py, since omega_h/omega = sqrt(lambda_h/lambda).
"""

import math
import time

import numpy as np
import pytest

from splinespectra.analysis import (
    coefficient_flatness,
    convergence_study,
    count_outliers,
    detect_stopping_bands,
    error_budget,
    eigenvalue_errors,
    outlier_report,
    partition_dofs,
)
from splinespectra.assembly import assemble_layout
from splinespectra.eigensolve import solve_eigenvalues, solve_gevp
from splinespectra.quadrature import QuadratureSpec
from splinespectra.splines import BlockLayout

from oracles import (
    branch_count,
    direct_2d_operators,
    eliminate_2d_dirichlet,
    kron_2d_operators,
    reconstruct_stopping_mode,
)

import scipy.linalg


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_pythagorean_identity():
    start = time.perf_counter()
    worst = 0.0
    for p in (2, 3):
        for n_e in (32, 64):
            op = assemble_layout(BlockLayout.iga(n_e, p))
            b = error_budget(solve_gevp(op), op)
            worst = max(worst, np.abs(b.ev_rel + b.ef_l2_sq - b.ef_energy_rel_sq).max())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-7 and elapsed < 30.0
    assert report(1, ok, f"max residual {worst:.2e} (tol 1e-7), {elapsed:.1f}s (< 30s)")


def test_criterion_2_modified_identity():
    start = time.perf_counter()
    worst_res, worst_gap = 0.0, 0.0
    for p in (2, 3):
        for n_e in (32, 64):
            for tau in (2 / 3, 1.0, 1.8):
                op = assemble_layout(BlockLayout.iga(n_e, p),
                                     QuadratureSpec("blended", tau=tau))
                b = error_budget(solve_gevp(op), op)
                four = b.ev_rel + b.ef_l2_sq + b.energy_gap + b.l2_deficit
                worst_res = max(worst_res, np.abs(four - b.ef_energy_rel_sq).max())
                worst_gap = max(worst_gap, np.abs(b.energy_gap).max())
    elapsed = time.perf_counter() - start
    ok = worst_res < 1e-7 and worst_gap < 1e-10 and elapsed < 60.0
    assert report(2, ok, f"max residual {worst_res:.2e} (tol 1e-7), "
                         f"max energy gap {worst_gap:.2e} (tol 1e-10), "
                         f"{elapsed:.1f}s (< 60s)")


def test_criterion_3_leading_coefficients_as_stated():
    # Stated targets: Gauss -lam1^2 h^4 / 1440, Lobatto +lam1^2 h^4 / 2880,
    # each within 10%, and ratio -2 within 5%.  They are the leading terms
    # of the relative frequency error in the exact-minus-discrete
    # convention, delta_omega = 1 - omega_h/omega (Hughes, Evans & Reali
    # 2014: omega_h/omega = 1 + (omega h)^4/1440 for quadratic splines).
    # The source of the criterion does not fix the sign convention; this is
    # the one convention under which both stated signs and magnitudes hold.
    # ev_rel = lambda_h/lambda - 1 carries twice those magnitudes with the
    # opposite signs (+1/720 Gauss, -1/1440 Lobatto), because
    # omega_h/omega = sqrt(1 + ev_rel) = 1 + ev_rel/2 + O(ev_rel^2).
    # delta_omega = 1 - sqrt(1 + ev_rel) is formed as
    # -ev_rel / (1 + sqrt(1 + ev_rel)) to avoid cancellation.
    lam1 = math.pi ** 2
    h4 = (1.0 / 64) ** 4
    op = assemble_layout(BlockLayout.iga(64, 2))
    ev_gauss = error_budget(solve_gevp(op), op).ev_rel[0]
    opl = assemble_layout(BlockLayout.iga(64, 2), QuadratureSpec("lobatto"))
    ev_lob = error_budget(solve_gevp(opl), opl).ev_rel[0]
    dw_gauss = -ev_gauss / (1.0 + math.sqrt(1.0 + ev_gauss))
    dw_lob = -ev_lob / (1.0 + math.sqrt(1.0 + ev_lob))

    target_gauss = -lam1 ** 2 * h4 / 1440.0
    target_lob = lam1 ** 2 * h4 / 2880.0
    ratio = dw_gauss / dw_lob
    ok_gauss = abs(dw_gauss - target_gauss) <= 0.10 * abs(target_gauss)
    ok_lob = abs(dw_lob - target_lob) <= 0.10 * abs(target_lob)
    ok_ratio = abs(ratio - (-2.0)) <= 0.05 * 2.0
    ok = ok_gauss and ok_lob and ok_ratio
    assert report(
        3, ok,
        "delta_omega = 1 - omega_h/omega: "
        f"gauss ev_rel {ev_gauss:+.3e}, delta_omega {dw_gauss:+.3e} vs stated "
        f"{target_gauss:+.3e} ({'ok' if ok_gauss else 'MISMATCH'}), "
        f"lobatto ev_rel {ev_lob:+.3e}, delta_omega {dw_lob:+.3e} vs stated "
        f"{target_lob:+.3e} ({'ok' if ok_lob else 'MISMATCH'}), "
        f"ratio {ratio:+.4f} vs -2 ({'ok' if ok_ratio else 'MISMATCH'})")


def test_criterion_4_convergence_slopes():
    start = time.perf_counter()
    meshes2 = [BlockLayout.iga(n, 2) for n in (8, 16, 32, 64)]
    meshes3 = [BlockLayout.iga(n, 3) for n in (8, 16, 32, 64)]
    _, _, s_gauss2 = convergence_study(meshes2)
    _, _, s_blend2 = convergence_study(meshes2, QuadratureSpec("blended", tau=2 / 3))
    _, _, s_gauss3 = convergence_study(meshes3)
    elapsed = time.perf_counter() - start
    ok = (abs(s_gauss2 - 4.0) <= 0.1 and abs(s_blend2 - 6.0) <= 0.3
          and abs(s_gauss3 - 6.0) <= 0.2 and elapsed < 10.0)
    assert report(4, ok, f"slopes p2 gauss {s_gauss2:.3f} (4.0±0.1), "
                         f"p2 tau=2/3 {s_blend2:.3f} (6.0±0.3), "
                         f"p3 gauss {s_gauss3:.3f} (6.0±0.2), {elapsed:.1f}s (< 10s)")


def test_criterion_5_outlier_census():
    table = {2: 0, 3: 2, 4: 2, 5: 4, 6: 4, 7: 6, 8: 6}
    census_ok = all(
        count_outliers(p, n_sep) == table[p] + (p - 1) * n_sep
        for p in range(2, 9) for n_sep in range(4)
    )
    op = assemble_layout(BlockLayout.riga(192, 2, 64))
    spectrum = solve_gevp(op)
    rep = outlier_report(spectrum, op)
    flagged_ok = rep.predicted == 2 and rep.empirical_count >= 2 \
        and rep.mode.tolist() == [193, 194]
    flat = [coefficient_flatness(spectrum.eigenvectors[:, m - 1])
            for m in (193, 194)]
    flat_ok = all(f < 3.0 for f in flat)
    ok = census_ok and flagged_ok and flat_ok
    assert report(5, ok, f"census table {'ok' if census_ok else 'MISMATCH'}, "
                         f"fig-9 setup flags top 2 ({rep.empirical_count} flagged), "
                         f"outlier spectrum peak/median {max(flat):.2f} (< 3)")


def test_criterion_6_stopping_bands():
    lay = BlockLayout.riga(100, 2, 10)
    op = assemble_layout(lay)
    blocks = partition_dofs(lay)
    rep = detect_stopping_bands(solve_eigenvalues(op), op, blocks)
    bands_ok = rep.band_count == 10 and rep.matched_count() == 10

    K, M = op.K.to_dense(), op.M.to_dense()
    worst_res = 0.0
    for value in rep.value:
        U = reconstruct_stopping_mode(op, blocks, value)
        res = np.linalg.norm(K @ U - value * (M @ U)) \
            / (value * np.linalg.norm(M @ U))
        worst_res = max(worst_res, res)
    recon_ok = worst_res < 1e-6

    lay_f = BlockLayout.fea(100, 2)
    op_f = assemble_layout(lay_f)
    blocks_f = partition_dofs(lay_f)
    rep_f = detect_stopping_bands(solve_eigenvalues(op_f), op_f, blocks_f)
    fea_ok = rep_f.band_count == 1 and rep_f.matched_count() == 1

    ok = bands_ok and recon_ok and fea_ok
    assert report(6, ok, f"10 blocks of 10: {rep.band_count} bands, "
                         f"{rep.matched_count()} matched < 1e-6; "
                         f"worst reconstruction residual {worst_res:.2e}; "
                         f"fea bands {rep_f.band_count} (want 1)")


def test_criterion_7_dof_accounting():
    rng = np.random.default_rng(2024)
    checked = []
    for _ in range(12):
        p = int(rng.integers(2, 6))
        n_e = int(rng.integers(8, 64))
        bs = int(rng.integers(1, n_e + 1))
        lay = BlockLayout(n_e, p, bs, separator_continuity=0)
        op = assemble_layout(lay)
        spectrum = solve_gevp(op)
        want = n_e + p - 2 + (p - 1) * lay.n_separators
        checked.append(spectrum.n_modes == want)
    ok = all(checked)
    assert report(7, ok, f"12 randomized (p, N_e, block) configs, "
                         f"{sum(checked)}/12 exact")


def test_criterion_8_riga_beats_fea():
    # Comparison of discretization errors; where both errors sit below the
    # eigensolver round-off floor (|ev_rel| < 1e-10, the very lowest modes)
    # the sign of the measured value is noise and the comparison is skipped.
    noise = 1e-10
    op_r = assemble_layout(BlockLayout.riga(1000, 2, 100))
    ev_r = eigenvalue_errors(solve_gevp(op_r), op_r)
    op_f = assemble_layout(BlockLayout.fea(500, 2))
    ev_f = eigenvalue_errors(solve_gevp(op_f), op_f)
    j_max = int(0.9 * 1000)
    violations = [
        j + 1 for j in range(j_max)
        if ev_r[j] > ev_f[j] and not (abs(ev_r[j]) < noise and abs(ev_f[j]) < noise)
    ]
    sub_noise = sum(1 for j in range(j_max)
                    if abs(ev_r[j]) < noise and abs(ev_f[j]) < noise)
    ok = not violations
    assert report(8, ok, f"riga 10x100 vs fea 500 over j <= {j_max}: "
                         f"{len(violations)} violations "
                         f"({sub_noise} modes below the 1e-10 noise floor)")


def test_criterion_9_2d_kronecker_oracle():
    lay = BlockLayout.iga(8, 2)
    op = assemble_layout(lay)
    M2, K2 = kron_2d_operators(op)
    M2d, K2d = direct_2d_operators(op.kv, lay.p + 1)
    n1 = op.kv.n
    w_direct = scipy.linalg.eigh(eliminate_2d_dirichlet(K2d, n1),
                                 eliminate_2d_dirichlet(M2d, n1),
                                 eigvals_only=True)
    w_kron = scipy.linalg.eigh(K2.toarray(), M2.toarray(), eigvals_only=True)
    dev_direct = float(np.max(np.abs(w_kron - w_direct) / w_direct))

    lam1 = solve_eigenvalues(op)
    sums = np.sort(np.add.outer(lam1, lam1).ravel())
    dev_sums = float(np.max(np.abs(np.sort(w_kron) - sums) / sums))
    ok = dev_direct < 1e-9 and dev_sums < 1e-10
    assert report(9, ok, f"kron vs direct 2D assembly {dev_direct:.2e} (< 1e-9), "
                         f"vs pairwise 1D sums {dev_sums:.2e} (< 1e-10)")


def test_criterion_10_branch_structure():
    counts = {}
    for bs in (10, 100, 2):
        op = assemble_layout(BlockLayout.riga(1000, 2, bs))
        counts[bs] = branch_count(solve_eigenvalues(op), op)
    op_f = assemble_layout(BlockLayout.fea(1000, 2))
    lam_f = solve_eigenvalues(op_f)
    counts[1] = branch_count(lam_f, op_f)
    full = branch_count(lam_f, op_f, j_max=lam_f.size)
    ok = counts == {10: 10, 100: 100, 2: 2, 1: 1} and full == 2
    assert report(10, ok, f"branches bs10={counts[10]} bs100={counts[100]} "
                          f"bs2={counts[2]} bs1={counts[1]} (block-size counts), "
                          f"fea full spectrum {full} (acoustic/optical)")
