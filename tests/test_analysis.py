import math
import tracemalloc

import numpy as np
import pytest

from splinespectra.analysis import (
    am_fit,
    branch_count,
    coefficient_flatness,
    convergence_study,
    count_outliers,
    detect_stopping_bands,
    eigenvalue_errors,
    error_budget,
    exact_eigenvalues_2d,
    exact_spectrum_1d,
    find_optimal_tau,
    frequency_content,
    l2_pair_inner,
    local_bubble_spectra,
    outlier_report,
    partition_dofs,
    reconstruct_stopping_mode,
)
from splinespectra import analysis
from splinespectra.assembly import assemble_layout
from splinespectra.eigensolve import solve_gevp
from splinespectra.quadrature import QuadratureSpec
from splinespectra.splines import BlockLayout

from oracles import dense_error_budget, design_rows


@pytest.fixture(scope="module")
def fig9_setup():
    """Quadratic mesh of 192 elements with two separators (193/194 outliers)."""
    op = assemble_layout(BlockLayout.riga(192, 2, 64))
    return op, solve_gevp(op)


# ---------------------------------------------------------------------------
# exact modes
# ---------------------------------------------------------------------------

def test_exact_modes():
    m = exact_spectrum_1d(1)
    assert m.eigenvalue == pytest.approx(math.pi ** 2)
    assert m(0.5) == pytest.approx(math.sqrt(2.0))
    assert m(np.array([0.0, 1.0])) == pytest.approx([0.0, 0.0], abs=1e-15)

    n0 = exact_spectrum_1d(0, bc="neumann")
    assert n0.eigenvalue == 0.0
    assert np.all(n0(np.linspace(0, 1, 5)) == 1.0)

    lam2d, jj, kk = exact_eigenvalues_2d(3)
    assert lam2d[0] == pytest.approx(2 * math.pi ** 2)
    assert (jj[0], kk[0]) == (1, 1)
    assert np.all(np.diff(lam2d) >= 0)

    with pytest.raises(ValueError):
        exact_spectrum_1d(0)
    with pytest.raises(ValueError):
        exact_spectrum_1d(-1, bc="neumann")


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("layout", [
    BlockLayout.riga(12, 3, 4),
    BlockLayout.fea(6, 2),
    BlockLayout.iga(8, 2, bc="neumann"),
], ids=["riga", "fea", "iga-neumann"])
def test_sample_matrix_matches_design_matrix(layout):
    op = assemble_layout(layout)
    inside = np.concatenate([np.linspace(0.0, 1.0, 97), np.unique(op.kv.knots)])
    outside = np.array([-0.25, -1e-12, 1.0 + 1e-12, 2.0])
    rng = np.random.default_rng(3)
    xs = rng.permutation(np.concatenate([inside, outside]))
    S = analysis.sample_matrix(op, xs).toarray()
    out = np.isin(xs, outside)
    np.testing.assert_allclose(S[~out], design_rows(op, xs[~out]), rtol=0, atol=1e-14)
    assert not S[out].any()
    assert analysis.sample_matrix(op, outside).nnz == 0
    assert analysis.sample_matrix(op, []).shape == (0, op.n_dofs)


# ---------------------------------------------------------------------------
# pair inner products
# ---------------------------------------------------------------------------

def test_l2_pair_inner_resolved_mode():
    op = assemble_layout(BlockLayout.iga(16, 2))
    spec = solve_gevp(op)
    v = spec.eigenvectors[:, 0]
    inner = l2_pair_inner(exact_spectrum_1d(1), v, op)
    assert abs(abs(inner) - 1.0) < 1e-6
    # the Neumann constant mode is 1, not sqrt(2) cos(0)
    op = assemble_layout(BlockLayout.iga(16, 2, bc="neumann"))
    v = solve_gevp(op).eigenvectors[:, 0]
    inner = l2_pair_inner(exact_spectrum_1d(0, bc="neumann"), v, op)
    assert abs(abs(inner) - 1.0) < 1e-6


def test_l2_pair_inner_linearity_and_refinement():
    op = assemble_layout(BlockLayout.iga(16, 2))
    spec = solve_gevp(op)
    mode = exact_spectrum_1d(5)
    assert l2_pair_inner(mode, np.zeros(op.n_dofs), op) == 0.0
    v = spec.eigenvectors[:, 4]
    base = l2_pair_inner(mode, v, op)  # default rule uses 2 subintervals here
    refined = l2_pair_inner(mode, v, op, subdivisions=4)
    assert abs(base - refined) < 1e-10


# ---------------------------------------------------------------------------
# error budgets
# ---------------------------------------------------------------------------

def test_leading_coefficients_measured_truth():
    # Conforming Galerkin with exact quadrature overestimates eigenvalues
    # (Rayleigh-Ritz), so the Gauss h^4 coefficient is +1/720 in the
    # eigenvalue ratio; Lobatto underintegration gives -1/1440.  Their
    # ratio is -2, which is what makes tau = 2/3 cancel the leading term.
    # The frequency-error form of these coefficients is acceptance criterion 3.
    lam1 = math.pi ** 2
    h4 = (1.0 / 64) ** 4
    op = assemble_layout(BlockLayout.iga(64, 2))
    ev_gauss = error_budget(solve_gevp(op), op, modes=[1])[0].ev_rel
    assert ev_gauss == pytest.approx(lam1 ** 2 * h4 / 720.0, rel=0.10)

    opl = assemble_layout(BlockLayout.iga(64, 2), QuadratureSpec("lobatto"))
    ev_lob = error_budget(solve_gevp(opl), opl, modes=[1])[0].ev_rel
    assert ev_lob == pytest.approx(-lam1 ** 2 * h4 / 1440.0, rel=0.10)

    assert ev_gauss / ev_lob == pytest.approx(-2.0, rel=0.05)


def test_budget_pythagorean_identity_exact_quadrature():
    op = assemble_layout(BlockLayout.riga(48, 2, 12))
    budgets = error_budget(solve_gevp(op), op)
    for b in budgets:
        assert abs(b.pythagoras_residual) < 1e-7
        assert abs(b.energy_gap) < 1e-10
        assert abs(b.l2_deficit) < 1e-10
        # classical three-term identity
        assert b.ev_rel + b.ef_l2_sq == pytest.approx(b.ef_energy_rel_sq, abs=1e-7)


@pytest.mark.parametrize("tau", [2 / 3, 1.0, 1.8])
def test_budget_modified_identity(tau):
    op = assemble_layout(BlockLayout.iga(32, 2), QuadratureSpec("blended", tau=tau))
    budgets = error_budget(solve_gevp(op), op)
    for b in budgets:
        assert abs(b.pythagoras_residual) < 1e-7
        assert abs(b.energy_gap) < 1e-10
    if tau != 2 / 3:
        assert max(abs(b.l2_deficit) for b in budgets) > 1e-6


def test_budget_mode_selection_and_validation():
    op = assemble_layout(BlockLayout.iga(16, 2))
    spec = solve_gevp(op)
    budgets = error_budget(spec, op, modes=[3, 1])
    assert [b.j for b in budgets] == [3, 1]
    assert budgets[0].j_over_n0 == pytest.approx(3 / 16)
    with pytest.raises(ValueError):
        error_budget(spec, op, modes=[0])
    with pytest.raises(ValueError):
        error_budget(spec, op, modes=[op.n_dofs + 1])


@pytest.mark.parametrize("layout, quadrature", [
    (BlockLayout.fea(50, 2), None),
    (BlockLayout.iga(64, 3), None),
    (BlockLayout.riga(200, 2, 20), None),
    (BlockLayout.riga(200, 2, 20), QuadratureSpec("lobatto")),
    (BlockLayout.iga(64, 3), QuadratureSpec("blended", tau=0.5)),
    (BlockLayout.iga(64, 3, bc="neumann"), None),
], ids=["fea", "iga", "riga", "riga-lobatto", "iga-blended", "iga-neumann"])
def test_budget_matches_dense_oracle(layout, quadrature):
    op = assemble_layout(layout, quadrature)
    spec = solve_gevp(op)
    budgets = error_budget(spec, op)
    expected = dense_error_budget(spec, op)
    for name, values in expected.items():
        got = np.array([getattr(b, name) for b in budgets])
        np.testing.assert_allclose(got, values, rtol=0, atol=1e-12, err_msg=name)


def test_budget_independent_of_block_width(monkeypatch):
    op = assemble_layout(BlockLayout.iga(64, 3))
    spec = solve_gevp(op)
    default = error_budget(spec, op)
    # modes 1..64 use 2 subdivisions, a grid of 64 * 2 * (p + 2) points:
    # blocks of 3 modes, the last one ragged (64 = 21 * 3 + 1)
    monkeypatch.setattr(analysis, "_PAIR_BLOCK_ENTRIES", 3 * 64 * 2 * 5)
    blocked = error_budget(spec, op)
    for a, b in zip(default, blocked):
        for name in ("ef_l2_sq", "ef_energy_rel_sq", "l2_deficit",
                     "pythagoras_residual"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), rel=0, abs=1e-14)


def test_budget_memory_stays_near_the_eigenvectors():
    """No dense operator and no full grid-by-modes array is formed."""
    op = assemble_layout(BlockLayout.riga(1000, 2, 100))
    spec = solve_gevp(op)
    tracemalloc.start()
    try:
        error_budget(spec, op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * 2 ** 20  # 1009 dofs: one n x n copy is 7.8 MiB


def test_budget_neumann_skips_constant_mode():
    op = assemble_layout(BlockLayout.iga(16, 2, bc="neumann"))
    spec = solve_gevp(op)
    errs = eigenvalue_errors(spec, op)
    assert abs(errs[0]) < 1e-10  # constant mode, absolute error
    budgets = error_budget(spec, op)
    assert budgets[0].j == 2
    assert budgets[0].lambda_exact == pytest.approx(math.pi ** 2)
    assert abs(budgets[0].pythagoras_residual) < 1e-7


# ---------------------------------------------------------------------------
# partition and stopping bands
# ---------------------------------------------------------------------------

def test_partition_counts_single_separator():
    lay = BlockLayout.riga(10, 2, 5)
    part = partition_dofs(lay)
    assert part.interface.size == 1
    assert part.bubbles.size == 10
    assert [part.block_bubbles(b).size for b in range(part.n_blocks)] == [5, 5]


def test_partition_no_separators():
    lay = BlockLayout.iga(8, 2)
    part = partition_dofs(lay)
    assert part.interface.size == 0
    assert part.bubbles.size == 8
    assert part.n_blocks == 1


def test_partition_fea_structure():
    lay = BlockLayout.fea(6, 2)
    part = partition_dofs(lay)
    assert part.interface.size == 5   # element boundaries
    assert part.bubbles.size == 6     # one bubble per element
    assert part.n_blocks == 6


def test_partition_requires_c0_dirichlet():
    lay = BlockLayout(12, 3, 4, separator_continuity=1)
    with pytest.raises(ValueError):
        partition_dofs(lay)
    lay = BlockLayout.riga(12, 2, 4, bc="neumann")
    with pytest.raises(ValueError):
        partition_dofs(lay)


def test_single_element_bubble_eigenvalue():
    # quadratic bubble on an element of width h has lambda = 10 / h^2
    lay = BlockLayout.fea(2, 2)
    op = assemble_layout(lay)
    part = partition_dofs(lay)
    local = local_bubble_spectra(op, part)
    for block in local:
        assert block.eigenvalues.size == 1
        assert block.eigenvalues[0] == pytest.approx(10.0 / 0.5 ** 2, rel=1e-12)


def test_interior_blocks_share_spectra():
    lay = BlockLayout.riga(30, 2, 5)
    op = assemble_layout(lay)
    part = partition_dofs(lay)
    local = local_bubble_spectra(op, part)
    interior = [b.eigenvalues for b in local[1:-1]]
    for w in interior[1:]:
        assert np.allclose(w, interior[0], rtol=1e-10)
    assert interior[0].size == 5  # Bsize + p - 2 distinct values


def test_detect_bands_riga_ten_by_ten():
    lay = BlockLayout.riga(100, 2, 10)
    op = assemble_layout(lay)
    spec = solve_gevp(op)
    part = partition_dofs(lay)
    report = detect_stopping_bands(spec, local_bubble_spectra(op, part), lay)
    assert report.band_count == 10 == report.expected_count
    assert report.matched_count(1e-6) == 10


def test_detect_bands_fea_degree_counts():
    for p, want in ((2, 1), (3, 2)):
        lay = BlockLayout.fea(12, p)
        op = assemble_layout(lay)
        spec = solve_gevp(op)
        part = partition_dofs(lay)
        report = detect_stopping_bands(spec, local_bubble_spectra(op, part), lay)
        assert report.band_count == want == report.expected_count
        assert report.matched_count(1e-6) == want


def test_detect_bands_without_separators_is_empty():
    lay = BlockLayout.iga(10, 2)
    op = assemble_layout(lay)
    spec = solve_gevp(op)
    part = partition_dofs(lay)
    report = detect_stopping_bands(spec, local_bubble_spectra(op, part), lay)
    assert report.band_count == 0 == report.expected_count
    assert report.matches == []


def test_reconstruct_stopping_modes():
    lay = BlockLayout.riga(100, 2, 10)
    op = assemble_layout(lay)
    spec = solve_gevp(op)
    part = partition_dofs(lay)
    local = local_bubble_spectra(op, part)
    report = detect_stopping_bands(spec, local, lay)
    K, M = op.K.to_dense(), op.M.to_dense()
    Me = op.M_exact.to_dense()
    for m in report.matches:
        U = reconstruct_stopping_mode(op, part, m.value, local)
        res = np.linalg.norm(K @ U - m.value * (M @ U))
        assert res / (m.value * np.linalg.norm(M @ U)) < 1e-6
        # lies in the global eigenspace at the matched eigenvalue
        v = spec.eigenvectors[:, m.global_index]
        cos = abs(U @ (Me @ v)) / math.sqrt((U @ (Me @ U)) * (v @ (Me @ v)))
        assert math.acos(min(cos, 1.0)) < 1e-4


def test_reconstruct_symmetric_layout_zero_interface():
    lay = BlockLayout.riga(10, 2, 5)
    op = assemble_layout(lay)
    part = partition_dofs(lay)
    local = local_bubble_spectra(op, part)
    for value in local[0].eigenvalues:
        U = reconstruct_stopping_mode(op, part, value, local)
        assert abs(U[part.interface[0]]) < 1e-8 * np.linalg.norm(U)


def test_reconstruct_rejects_non_band_value():
    lay = BlockLayout.riga(10, 2, 5)
    op = assemble_layout(lay)
    part = partition_dofs(lay)
    with pytest.raises(ValueError):
        reconstruct_stopping_mode(op, part, 1.2345)


# ---------------------------------------------------------------------------
# outliers
# ---------------------------------------------------------------------------

TABLE_IGA = {2: 0, 3: 2, 4: 2, 5: 4, 6: 4, 7: 6, 8: 6}


@pytest.mark.parametrize("p", sorted(TABLE_IGA))
@pytest.mark.parametrize("n_sep", [0, 1, 2, 3])
def test_outlier_census_table(p, n_sep):
    assert count_outliers(p, n_sep) == TABLE_IGA[p] + (p - 1) * n_sep


def test_outlier_census_neumann_and_errors():
    assert count_outliers(2, 0, bc="neumann") == 2
    assert count_outliers(3, 0, bc="neumann") == 2
    assert count_outliers(4, 0, bc="neumann") == 4
    with pytest.raises(ValueError):
        count_outliers(1, 0)
    with pytest.raises(ValueError):
        count_outliers(3, -1)


def test_outlier_report_fig9(fig9_setup):
    op, spec = fig9_setup
    report = outlier_report(spec, op)
    assert report.predicted == 2
    assert report.observed_indices == [193, 194]
    assert report.empirical_count == 2
    for info in report.outliers:
        assert info.ev_ratio >= 10.0
        assert info.flatness < 3.0
    # resolved modes are near-pure by the same metric
    assert coefficient_flatness(spec.eigenvectors[:, 149]) > 1e3


def test_outlier_report_samples_once(fig9_setup, monkeypatch):
    op, spec = fig9_setup
    calls = []
    real = analysis.sample_matrix

    def counting(op, xs):
        calls.append(len(xs))
        return real(op, xs)

    monkeypatch.setattr(analysis, "sample_matrix", counting)
    report = outlier_report(spec, op)
    assert len(calls) == 1
    # the shared sampling reproduces the standalone per-mode results exactly
    for info in report.outliers:
        v = spec.eigenvectors[:, info.mode - 1]
        fc = frequency_content(v, op)
        assert np.array_equal(info.content.magnitudes, fc.magnitudes)
        assert info.am == am_fit(v, op)


def test_outlier_report_no_outliers():
    op = assemble_layout(BlockLayout.iga(64, 2))
    spec = solve_gevp(op)
    report = outlier_report(spec, op)
    assert report.predicted == 0
    assert report.observed_indices == []
    assert report.empirical_count == 0


# ---------------------------------------------------------------------------
# frequency content and AM fits
# ---------------------------------------------------------------------------

def test_frequency_content_resolved_mode(fig9_setup):
    op, spec = fig9_setup
    fc = frequency_content(spec.eigenvectors[:, 99], op)
    peaks = fc.dominant_peaks(1)
    assert peaks[0][0] == pytest.approx(100 / 2)  # j/2 cycles per unit length
    assert peaks[0][1] == pytest.approx(math.sqrt(2.0), rel=1e-2)


def test_frequency_content_validation(fig9_setup):
    op, _ = fig9_setup
    v = np.zeros(op.n_dofs)
    with pytest.raises(ValueError):
        frequency_content(v, op, samples=256)   # below 2 N
    with pytest.raises(ValueError):
        frequency_content(v, op, samples=777)   # not a power of two


def test_am_fit_low_mode_single_peak(fig9_setup):
    op, spec = fig9_setup
    fit = am_fit(spec.eigenvectors[:, 4], op)
    assert fit.a1 == pytest.approx(math.sqrt(2.0), rel=1e-2)
    assert fit.f1 == pytest.approx(2.5)
    assert fit.a2 < 1e-4 * fit.a1
    assert fit.misfit < 1e-4


def test_am_fit_near_top_frequency_link(fig9_setup):
    # highest non-pure, non-outlier mode carries the two-wave structure;
    # the peak frequencies add up to the element count exactly, while the
    # dof-count convention is off by the two separator modes
    op, spec = fig9_setup
    fit = am_fit(spec.eigenvectors[:, 190], op)
    assert fit.a2 > 0.9 * fit.a1
    assert fit.f1 + fit.f2 == pytest.approx(192.0)
    assert fit.defect_elements <= 0.5  # within one half-cycle bin
    assert fit.defect_dofs == pytest.approx(2.0)


def test_outlier_has_no_clear_am_structure(fig9_setup):
    op, spec = fig9_setup
    fit = am_fit(spec.eigenvectors[:, 193], op)
    assert fit.misfit > 0.5  # spurious mode, the two-wave model fails


# ---------------------------------------------------------------------------
# branch structure
# ---------------------------------------------------------------------------

def test_branch_count_small_configs():
    for lay, window, want in [
        (BlockLayout.riga(100, 2, 10), None, 10),
        (BlockLayout.riga(100, 2, 2), None, 2),
        (BlockLayout.iga(100, 2), None, 1),
        (BlockLayout.fea(100, 2), None, 1),
    ]:
        op = assemble_layout(lay)
        spec = solve_gevp(op)
        assert branch_count(spec, op, j_max=window) == want
    # FEA over the whole spectrum shows the acoustic/optical split
    op = assemble_layout(BlockLayout.fea(100, 2))
    spec = solve_gevp(op)
    assert branch_count(spec, op, j_max=spec.n_modes) == 2


# ---------------------------------------------------------------------------
# convergence and optimal blending
# ---------------------------------------------------------------------------

def test_convergence_slope_gauss():
    hs, errs, slope = convergence_study([BlockLayout.iga(n, 2) for n in (8, 16, 32, 64)])
    assert slope == pytest.approx(4.0, abs=0.1)
    assert np.all(errs > 0)  # eigenvalues approached from above


def test_convergence_requires_three_meshes():
    for sizes in ((8, 16), (8, 8, 8), (8, 8, 16, 16)):  # distinct sizes count
        with pytest.raises(ValueError):
            convergence_study([BlockLayout.iga(n, 2) for n in sizes])


@pytest.mark.parametrize("make", [
    lambda n: BlockLayout.riga(n, 2, 10),
    lambda n: BlockLayout.fea(n, 2),
    lambda n: BlockLayout.iga(n, 2, bc="neumann"),
], ids=["riga", "fea", "iga-neumann"])
def test_convergence_keeps_the_rate_on_every_layout(make):
    layouts = [make(n) for n in (10, 20, 40, 80, 160)]
    _, errs, slope = convergence_study(layouts)
    assert slope == pytest.approx(4.0, abs=0.05)
    assert np.all(errs > 0)  # first non-constant mode, approached from above


def test_optimal_tau_quadratic():
    tau = find_optimal_tau(2)
    assert tau == pytest.approx(2 / 3, abs=2e-3)


def test_optimal_tau_cubic_improves_error():
    from splinespectra.analysis import leading_mode_error
    tau = find_optimal_tau(3, n_elements=16)
    layout = BlockLayout.iga(16, 3)
    blended = abs(leading_mode_error(layout, QuadratureSpec("blended", tau=tau)))
    gauss = abs(leading_mode_error(layout))
    assert blended < 1e-2 * gauss
