import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splinespectra.analysis import (
    coefficient_flatness,
    convergence_study,
    count_outliers,
    detect_stopping_bands,
    eigenvalue_errors,
    eigenvalue_errors_2d,
    error_budget,
    exact_spectrum,
    find_optimal_tau,
    outlier_report,
    partition_dofs,
)
from splinespectra import analysis
from splinespectra.assembly import assemble_layout
from splinespectra.eigensolve import Spectrum, solve_eigenvalues, solve_gevp
from splinespectra.quadrature import QuadratureSpec
from splinespectra.splines import BlockLayout

from oracles import (
    branch_count,
    dense_error_budget,
    design_rows,
    interface_dofs,
    linear_fem_eigenvalue,
    per_block_bubble_spectra,
    per_mode_two_wave_fit,
    reconstruct_stopping_mode,
    reference_sampling,
    reference_three_part_pair_products,
)


@pytest.fixture(scope="module")
def fig9_setup():
    """Quadratic mesh of 192 elements with two separators (193/194 outliers)."""
    op = assemble_layout(BlockLayout.riga(192, 2, 64))
    return op, solve_gevp(op)


# ---------------------------------------------------------------------------
# exact modes
# ---------------------------------------------------------------------------

def test_exact_modes():
    _, lam1 = exact_spectrum(3)
    jj, kk, lam2d, _, _ = eigenvalue_errors_2d(lam1)
    assert lam2d[0] == pytest.approx(2 * math.pi ** 2)
    assert (jj[0], kk[0]) == (1, 1)
    assert np.all(np.diff(lam2d) >= 0)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("layout", [
    BlockLayout.riga(12, 3, 4),
    BlockLayout.fea(6, 2),
    BlockLayout.iga(8, 2, bc="neumann"),
    BlockLayout(20, 4, 5, 2),
    BlockLayout(9, 5, 4, 1, bc="neumann"),
], ids=["riga", "fea", "iga-neumann", "riga-c2", "riga-c1-neumann"])
def test_sample_matrix_matches_design_matrix(layout):
    # the sparse sampling matrix against scipy's design matrix, and the
    # gather of sample_fields against its products, bit for bit
    op = assemble_layout(layout)
    # every distinct knot (0 and 1 among them) and its two float neighbours
    knots = np.unique(op.kv.knots)
    near = np.concatenate([np.nextafter(knots[1:], 0.0), np.nextafter(knots[:-1], 1.0)])
    inside = np.concatenate([np.linspace(0.0, 1.0, 97), knots, near])
    outside = np.array([-0.25, -1e-12, np.nextafter(0.0, -1.0),
                        np.nextafter(1.0, 2.0), 1.0 + 1e-12, 2.0])
    rng = np.random.default_rng(3)
    xs = rng.permutation(np.concatenate([inside, outside]))
    S = analysis.sample_matrix(op, xs).toarray()
    out = np.isin(xs, outside)
    np.testing.assert_allclose(S[~out], design_rows(op, xs[~out]), rtol=0, atol=1e-14)
    assert not S[out].any()
    assert np.array_equal(S, reference_sampling(op, xs))
    for x, col in ((0.0, 0), (1.0, -1)):
        row = S[xs == x][0]
        if layout.bc == "neumann":  # the end function alone is 1 at its end
            assert row[col] == 1.0 and row.sum() == 1.0
        else:  # every kept function vanishes at the ends
            assert not row.any()
    assert analysis.sample_matrix(op, outside).nnz == 0
    assert analysis.sample_matrix(op, []).shape == (0, op.n_dofs)
    V = rng.standard_normal((op.n_dofs, 5))
    assert np.array_equal(analysis.sample_fields(op, xs, V), analysis.sample_matrix(op, xs) @ V)
    assert np.array_equal(analysis.sample_fields(op, xs, np.asfortranarray(V[:, :1])),
                          analysis.sample_matrix(op, xs) @ V[:, :1])
    assert np.array_equal(analysis.sample_fields(op, xs, np.eye(op.n_dofs)), S)
    assert analysis.sample_fields(op, [], V).shape == (0, 5)


# ---------------------------------------------------------------------------
# pair inner products
# ---------------------------------------------------------------------------

def pair_products(op, V, js, subdivisions):
    """``(u_j, v)`` of the exact modes ``js`` with the columns of ``V``, on
    ``subdivisions`` pieces per element, by the error budget's one route: the
    columns as a dense spectrum, one block of the whole mesh."""
    counts = np.full(len(js), subdivisions)
    spectrum = Spectrum(np.zeros(len(js)), V, op.kv, op.dof_indices)
    return analysis._pair_products(spectrum, op, np.asarray(js), counts, {})


def pair_inner(op, j, v, subdivisions=None):
    """``(u_j, v)`` for exact mode ``j``, on the grid ``error_budget`` uses."""
    if subdivisions is None:
        subdivisions = analysis._required_subdivisions(j, op.layout.h)
    return float(pair_products(op, v[:, None], [j], subdivisions)[0])


def test_l2_pair_inner_resolved_mode():
    op = assemble_layout(BlockLayout.iga(16, 2))
    spec = solve_gevp(op)
    v = spec.eigenvectors[:, 0]
    inner = pair_inner(op, 1, v)
    assert abs(abs(inner) - 1.0) < 1e-6
    # the Neumann constant mode is 1, not sqrt(2) cos(0)
    op = assemble_layout(BlockLayout.iga(16, 2, bc="neumann"))
    v = solve_gevp(op).eigenvectors[:, 0]
    inner = pair_inner(op, 0, v)
    assert abs(abs(inner) - 1.0) < 1e-6


def test_l2_pair_inner_linearity_and_refinement():
    op = assemble_layout(BlockLayout.iga(16, 2))
    spec = solve_gevp(op)
    assert pair_inner(op, 5, np.zeros(op.n_dofs)) == 0.0
    v = spec.eigenvectors[:, 4]
    base = pair_inner(op, 5, v)  # default rule uses 2 subintervals here
    refined = pair_inner(op, 5, v, subdivisions=4)
    assert abs(base - refined) < 1e-10


def test_l2_pair_inner_blocks_match_single_modes():
    # column blocks of consecutive wavenumbers share one phase table; each
    # entry must equal the same mode's product taken on its own
    op = assemble_layout(BlockLayout.riga(30, 3, 5))
    V = solve_gevp(op).eigenvectors
    js = np.arange(3, 20)
    block = pair_products(op, V[:, js - 1], js, 2)
    single = [pair_inner(op, j, V[:, j - 1], subdivisions=2) for j in js]
    assert np.max(np.abs(block - single)) <= 1e-13
    with pytest.raises(ValueError, match="consecutive"):
        pair_products(op, V[:, :2], [1, 3], 2)


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
    ev_gauss = error_budget(solve_gevp(op), op).ev_rel[0]
    assert ev_gauss == pytest.approx(lam1 ** 2 * h4 / 720.0, rel=0.10)

    opl = assemble_layout(BlockLayout.iga(64, 2), QuadratureSpec("lobatto"))
    ev_lob = error_budget(solve_gevp(opl), opl).ev_rel[0]
    assert ev_lob == pytest.approx(-lam1 ** 2 * h4 / 1440.0, rel=0.10)

    assert ev_gauss / ev_lob == pytest.approx(-2.0, rel=0.05)


def test_budget_pythagorean_identity_exact_quadrature():
    op = assemble_layout(BlockLayout.riga(48, 2, 12))
    b = error_budget(solve_gevp(op), op)
    assert np.all(np.abs(b.pythagoras_residual) < 1e-7)
    assert np.all(np.abs(b.energy_gap) < 1e-10)
    assert np.all(np.abs(b.l2_deficit) < 1e-10)
    # classical three-term identity
    assert b.ev_rel + b.ef_l2_sq == pytest.approx(b.ef_energy_rel_sq, abs=1e-7)


@pytest.mark.parametrize("tau", [2 / 3, 1.0, 1.8])
def test_budget_modified_identity(tau):
    op = assemble_layout(BlockLayout.iga(32, 2), QuadratureSpec("blended", tau=tau))
    b = error_budget(solve_gevp(op), op)
    assert np.all(np.abs(b.pythagoras_residual) < 1e-7)
    assert np.all(np.abs(b.energy_gap) < 1e-10)
    if tau != 2 / 3:
        assert np.abs(b.l2_deficit).max() > 1e-6


def test_budget_mode_selection_and_validation():
    op = assemble_layout(BlockLayout.iga(16, 2))
    spec = solve_gevp(op)
    budget = error_budget(spec, op)
    assert np.array_equal(budget.j, np.arange(1, op.n_dofs + 1))
    assert budget.j_over_n0[2] == pytest.approx(3 / 16)


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
    budget = error_budget(spec, op)
    expected = dense_error_budget(spec, op)
    for name, values in expected.items():
        np.testing.assert_allclose(getattr(budget, name), values, rtol=0, atol=1e-12,
                                   err_msg=name)


def test_budget_independent_of_block_width(monkeypatch):
    op = assemble_layout(BlockLayout.iga(64, 3))
    spec = solve_gevp(op)
    default = error_budget(spec, op)
    # modes 1..64 use 2 subdivisions; a column block holds 64 * (p + 1)
    # (function, element) rows: blocks of at most 3 modes, sizes one apart
    # (64 = 20 * 3 + 2 * 2)
    monkeypatch.setattr(analysis, "_PAIR_BLOCK_ENTRIES", 3 * 64 * 4)
    blocked = error_budget(spec, op)
    for name in ("ef_l2_sq", "ef_energy_rel_sq", "l2_deficit",
                 "pythagoras_residual"):
        np.testing.assert_allclose(getattr(blocked, name), getattr(default, name),
                                   rtol=0, atol=1e-14, err_msg=name)


def test_budget_samples_no_grid(monkeypatch):
    """The pair inner products sum element load moments: the budget samples
    no field on a grid."""
    calls = []
    real = analysis.sample_fields

    def counting(op, xs, V):
        calls.append(len(xs))
        return real(op, xs, V)

    monkeypatch.setattr(analysis, "sample_fields", counting)
    op = assemble_layout(BlockLayout.riga(200, 2, 20))
    budget = error_budget(solve_gevp(op), op)
    assert calls == []
    assert np.all(np.abs(budget.pythagoras_residual) < 1e-7)


def test_factored_budget_takes_column_pair_products_only_on_tight_runs(monkeypatch):
    """A factored spectrum's pair products come from its Bloch factors, over
    one closed block.  The localized columns of
    a tight run take them from the factors of their parts that meet their
    exact modes: no load-moment evaluator of the whole mesh is built."""
    built, columns = [], []
    real = analysis._load_moments

    def counting(op, subdivisions, n_el, parts):
        moments = real(op, subdivisions, n_el, parts)
        if n_el < op.layout.n_elements:
            return moments
        built.append(subdivisions)

        def counted(local, js, imag):
            columns.extend(js)
            return moments(local, js, imag)

        return counted

    monkeypatch.setattr(analysis, "_load_moments", counting)
    op = assemble_layout(BlockLayout.riga(200, 2, 20))  # no tight run
    error_budget(solve_gevp(op), op)
    assert built == [] and columns == []

    op = assemble_layout(BlockLayout.riga(192, 2, 64))  # modes 193 and 194 tie
    budget = error_budget(solve_gevp(op), op)
    assert built == [] and columns == []
    assert np.all(np.abs(budget.pythagoras_residual) < 1e-12)


@pytest.mark.parametrize("layout", [
    BlockLayout.riga(2000, 2, 100),  # a tight run of 19
    BlockLayout.riga(400, 3, 50),    # a tight run of 7
    BlockLayout.riga(600, 4, 60),    # band modes in its runs
], ids=lambda lay: f"{lay.n_elements}-{lay.p}-{lay.block_size}")
def test_closed_block_pair_products_match_the_three_part_factors(layout):
    """The pair products from two fields on one closed block agree with
    those from three parts over one block and the next block's first
    element (each interface under ``sin(theta b)``) within 4 units in the
    last place of each product, and within 4 eps absolute on the tight
    runs' localized columns, whose products cancel: the interfaces, formed
    by angle addition, and the window are the only changes.  Measured: 4
    units of the product (riga(600, 4, 60)), 3 eps on the runs."""
    op = assemble_layout(layout)
    spectrum = solve_gevp(op)
    js = exact_spectrum(spectrum.n_modes)[0]
    counts = analysis._required_subdivisions(js, op.layout.h)
    got = analysis._pair_products(spectrum, op, js, counts, {})
    expected = reference_three_part_pair_products(spectrum, op, js, counts)
    tight = np.zeros(js.size, dtype=bool)
    for a, b, _ in spectrum._runs:
        tight[a:b] = True
    assert tight.any()
    error = np.abs(got - expected)
    assert np.all(error[~tight] <= 4 * np.spacing(np.abs(expected[~tight])))
    assert np.all(error <= 4 * np.finfo(float).eps)


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


def test_budget_reads_the_eigenvectors_in_place():
    """Besides the ``A V`` product of one quadratic form at a time, the budget
    copies no ``n x n`` array: its traced peak stays below 1.5 such arrays."""
    op = assemble_layout(BlockLayout.riga(2000, 2, 100))
    spec = solve_gevp(op)
    tracemalloc.start()
    try:
        error_budget(spec, op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * op.n_dofs ** 2


def test_factored_solve_and_budget_hold_no_eigenvector_array():
    """On repeated blocks the solve and the budget walk column blocks of the
    Bloch factors: their traced peak stays below one n x n array."""
    op = assemble_layout(BlockLayout.riga(2000, 2, 100))
    tracemalloc.start()
    try:
        error_budget(solve_gevp(op), op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * op.n_dofs ** 2


def test_budget_neumann_skips_constant_mode():
    op = assemble_layout(BlockLayout.iga(16, 2, bc="neumann"))
    spec = solve_gevp(op)
    errs = eigenvalue_errors(spec, op)
    assert abs(errs[0]) < 1e-10  # constant mode, absolute error
    budget = error_budget(spec, op)
    assert budget.j[0] == 2
    assert budget.lambda_exact[0] == pytest.approx(math.pi ** 2)
    assert abs(budget.pythagoras_residual[0]) < 1e-7


# ---------------------------------------------------------------------------
# partition and stopping bands
# ---------------------------------------------------------------------------

def test_partition_counts_single_separator():
    lay = BlockLayout.riga(10, 2, 5)
    blocks = partition_dofs(lay)
    assert interface_dofs(blocks, lay.n_dofs).size == 1
    assert [b.size for b in blocks] == [5, 5]


def test_partition_no_separators():
    lay = BlockLayout.iga(8, 2)
    blocks = partition_dofs(lay)
    assert interface_dofs(blocks, lay.n_dofs).size == 0
    assert [b.size for b in blocks] == [8]


def test_partition_fea_structure():
    lay = BlockLayout.fea(6, 2)
    blocks = partition_dofs(lay)
    assert interface_dofs(blocks, lay.n_dofs).size == 5   # element boundaries
    assert [b.size for b in blocks] == [1] * 6             # one bubble per element


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
    report = detect_stopping_bands(solve_eigenvalues(op), op, partition_dofs(lay))
    assert report.value.size == 1
    assert report.value[0] == pytest.approx(10.0 / 0.5 ** 2, rel=1e-12)
    assert report.block_multiplicity.tolist() == [2]  # both blocks are consulted


def test_interior_blocks_share_spectra():
    # the premise of solving one bubble pencil per block size
    lay = BlockLayout.riga(30, 2, 5)
    op = assemble_layout(lay)
    blocks = partition_dofs(lay)
    interior = per_block_bubble_spectra(op, blocks)[1:-1]
    for w in interior[1:]:
        assert np.allclose(w, interior[0], rtol=1e-10)
    assert interior[0].size == 5  # Bsize + p - 2 distinct values
    report = detect_stopping_bands(solve_eigenvalues(op), op, blocks)
    assert np.allclose(report.value, interior[0], rtol=1e-10)
    assert report.block_multiplicity.tolist() == [len(interior)] * 5


def test_ragged_two_block_bands_merge_and_count_both_blocks():
    # a block of 15 and a block of 5: the five bubble eigenvalues of the
    # ragged block coincide with five of the full block's
    lay = BlockLayout.riga(20, 2, 15)
    op = assemble_layout(lay)
    blocks = partition_dofs(lay)
    report = detect_stopping_bands(solve_eigenvalues(op), op, blocks)
    assert report.band_count == 15 == report.expected_count
    assert np.count_nonzero(report.block_multiplicity == 2) == 5
    assert np.count_nonzero(report.block_multiplicity == 1) == 10
    ragged = per_block_bubble_spectra(op, blocks)[1]
    shared = report.value[report.block_multiplicity == 2]
    assert np.allclose(shared, ragged, rtol=1e-12)


def test_one_bubble_pencil_solve_per_block_size(monkeypatch):
    # 300 one-element blocks, of which 298 interior ones are consulted
    lay = BlockLayout.fea(300, 3)
    op = assemble_layout(lay)
    calls = []
    real = analysis._band_eigenvalues

    def counting(K, M):
        calls.append(K.n)
        return real(K, M)

    monkeypatch.setattr(analysis, "_band_eigenvalues", counting)
    report = detect_stopping_bands(solve_eigenvalues(op), op, partition_dofs(lay))
    assert calls == [2]
    assert report.block_multiplicity.tolist() == [298, 298]


def test_detect_bands_riga_ten_by_ten():
    lay = BlockLayout.riga(100, 2, 10)
    op = assemble_layout(lay)
    blocks = partition_dofs(lay)
    report = detect_stopping_bands(solve_eigenvalues(op), op, blocks)
    assert report.band_count == 10 == report.expected_count
    assert report.matched_count() == 10


def test_detect_bands_fea_degree_counts():
    for p, want in ((2, 1), (3, 2)):
        lay = BlockLayout.fea(12, p)
        op = assemble_layout(lay)
        blocks = partition_dofs(lay)
        report = detect_stopping_bands(solve_eigenvalues(op), op, blocks)
        assert report.band_count == want == report.expected_count
        assert report.matched_count() == want


def test_detect_bands_without_separators_is_empty():
    lay = BlockLayout.iga(10, 2)
    op = assemble_layout(lay)
    blocks = partition_dofs(lay)
    report = detect_stopping_bands(solve_eigenvalues(op), op, blocks)
    assert report.band_count == 0 == report.expected_count
    assert report.value.tolist() == []


def nearest_by_scan(eigenvalues, value):
    """Index and relative gap of the global eigenvalue nearest ``value``, by a
    scan over the whole spectrum; the first (lowest) index wins a tie."""
    best, best_gap = None, math.inf
    for k, lam in enumerate(eigenvalues.tolist()):
        gap = abs(lam - value) / abs(value)
        if gap < best_gap:
            best, best_gap = k, gap
    return best, best_gap


def assert_bands_match_scan(eigenvalues, pencil_values, layout):
    """The census of ``layout`` against ``eigenvalues``, with every bubble
    pencil's eigenvalues replaced by ``pencil_values``, checked by a scan."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_band_eigenvalues",
                      lambda K, M: np.array(pencil_values, dtype=float))
        report = detect_stopping_bands(eigenvalues, assemble_layout(layout),
                                       partition_dofs(layout))
    for value, nearest, gap, index in zip(report.value, report.nearest_global,
                                          report.rel_gap, report.global_index):
        assert (index, gap) == nearest_by_scan(eigenvalues, value)
        assert nearest == eigenvalues[index]
    return report


def test_detect_bands_outside_the_spectrum_and_on_ties():
    lay = BlockLayout.riga(30, 2, 10)  # three blocks: only the middle one counts
    eigenvalues = np.array([2.0, 4.0, 6.0, 10.0])
    # below lambda_1, equal gaps to 2 and 4, to 4 and 6, to 6 and 10, nearer
    # 10, above lambda_n; 3 is a cluster of two of the pencil's values
    report = assert_bands_match_scan(
        eigenvalues, [1.0, 3.0, 3.0 + 1e-12, 5.0, 8.0, 9.0, 12.0], lay)
    assert report.value.tolist() == [1.0, 3.0, 5.0, 8.0, 9.0, 12.0]
    assert report.global_index.tolist() == [0, 0, 1, 2, 3, 3]
    assert report.block_multiplicity.tolist() == [1, 2, 1, 1, 1, 1]
    assert report.rel_gap.tolist() == [1.0, 1 / 3, 1 / 5, 2 / 8, 1 / 9, 2 / 12]
    assert report.matched_count() == 0


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(eigen=st.lists(st.integers(1, 40), min_size=1, max_size=12, unique=True),
       bands=st.lists(st.integers(-2, 90), min_size=1, max_size=12))
def test_detect_bands_match_a_full_scan(eigen, bands):
    # half-integer spectra and band values: many exactly equal gaps
    eigenvalues = np.sort(np.array(eigen, dtype=float)) / 2
    values = np.array([b for b in bands if b != 0], dtype=float) / 2
    if values.size:
        lay = BlockLayout.riga(20, 2, 10)  # two blocks of one size: one pencil
        assert_bands_match_scan(eigenvalues, values, lay)


def test_reconstruct_stopping_modes():
    lay = BlockLayout.riga(100, 2, 10)
    op = assemble_layout(lay)
    spec = solve_gevp(op)
    blocks = partition_dofs(lay)
    report = detect_stopping_bands(spec.eigenvalues, op, blocks)
    K, M = op.K.to_dense(), op.M.to_dense()
    Me = assemble_layout(lay).M.to_dense()
    for value, index in zip(report.value, report.global_index):
        U = reconstruct_stopping_mode(op, blocks, value)
        res = np.linalg.norm(K @ U - value * (M @ U))
        assert res / (value * np.linalg.norm(M @ U)) < 1e-6
        # lies in the global eigenspace at the matched eigenvalue
        v = spec.eigenvectors[:, index]
        cos = abs(U @ (Me @ v)) / math.sqrt((U @ (Me @ U)) * (v @ (Me @ v)))
        assert math.acos(min(cos, 1.0)) < 1e-4


def test_reconstruct_symmetric_layout_zero_interface():
    lay = BlockLayout.riga(10, 2, 5)
    op = assemble_layout(lay)
    blocks = partition_dofs(lay)
    for value in detect_stopping_bands(solve_eigenvalues(op), op, blocks).value:
        U = reconstruct_stopping_mode(op, blocks, value)
        assert abs(U[interface_dofs(blocks, op.n_dofs)[0]]) < 1e-8 * np.linalg.norm(U)


def test_reconstruct_rejects_non_band_value():
    lay = BlockLayout.riga(10, 2, 5)
    op = assemble_layout(lay)
    blocks = partition_dofs(lay)
    with pytest.raises(ValueError):
        reconstruct_stopping_mode(op, blocks, 1.2345)


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


def test_outlier_census_separator_continuity():
    # a C^(p-1) separator is a simple knot: the mesh is plain IGA
    for p in (2, 3, 4):
        for bc in ("dirichlet", "neumann"):
            assert count_outliers(p, 9, bc, continuity=p - 1) == count_outliers(p, 0, bc)
    # C^0 is the default; intermediate continuity is outside the census
    assert count_outliers(3, 4, continuity=0) == count_outliers(3, 4) == 10
    with pytest.raises(ValueError):
        count_outliers(4, 3, continuity=1)
    assert count_outliers(4, 0, continuity=1) == 2  # no separator to count


def test_outlier_report_fig9(fig9_setup):
    op, spec = fig9_setup
    report = outlier_report(spec, op)
    assert report.predicted == 2
    assert report.mode.tolist() == [193, 194]
    assert report.empirical_count == 2
    assert np.all(report.ev_ratio >= 10.0)
    assert np.all(report.flatness < 3.0)
    # resolved modes are near-pure by the same metric
    assert coefficient_flatness(spec.eigenvectors[:, 149]) > 1e3


def test_coefficient_flatness_below_the_cap_is_the_plain_ratio():
    # the eps floor on the median leaves a broadband sequence's ratio bit for bit
    v = np.random.default_rng(1).standard_normal(40)
    g = np.concatenate([v, [0.0], -v[::-1], [0.0]])
    mags = np.abs(np.fft.rfft(g))[1:21]
    assert coefficient_flatness(v) == float(mags.max() / np.median(mags))


@pytest.mark.parametrize("layout", [
    BlockLayout.riga(192, 2, 64), BlockLayout.iga(64, 3), BlockLayout.iga(40, 2),
    BlockLayout.fea(30, 2), BlockLayout.iga(30, 4, bc="neumann"),
], ids=["riga", "iga-p3", "iga-p2", "fea", "iga-neumann"])
def test_outlier_report_counts_the_flagged_run_like_a_loop(layout):
    op = assemble_layout(layout)
    spec = solve_gevp(op)
    report = outlier_report(spec, op)
    ev = eigenvalue_errors(spec, op)
    med = report.decile_median
    count = 0
    for m in range(spec.n_modes, 0, -1):  # down from the top mode
        if not (med > 0 and abs(ev[m - 1]) >= 10.0 * med):
            break
        count += 1
    assert report.empirical_count == count
    assert report.ev_rel.tolist() == ev[spec.n_modes - report.predicted:].tolist()


def test_outlier_report_samples_once(fig9_setup, monkeypatch):
    op, spec = fig9_setup
    calls = []
    real = analysis.sample_fields

    def counting(op, xs, V):
        calls.append(len(xs))
        return real(op, xs, V)

    monkeypatch.setattr(analysis, "sample_fields", counting)
    report = outlier_report(spec, op)
    assert len(calls) == 1
    # the shared sampling reproduces the standalone per-mode results exactly
    for k, mode in enumerate(report.mode):
        mags, fit = frequency_analysis(spec.eigenvectors[:, mode - 1], op)
        assert np.array_equal(report.magnitudes[k], mags)
        assert {name: getattr(report, name)[k] for name in AM_FIT} == fit


def test_outlier_report_no_outliers():
    op = assemble_layout(BlockLayout.iga(64, 2))
    spec = solve_gevp(op)
    report = outlier_report(spec, op)
    assert report.predicted == 0
    assert report.mode.tolist() == []
    assert report.empirical_count == 0


# ---------------------------------------------------------------------------
# frequency content and AM fits
# ---------------------------------------------------------------------------

AM_FIT = ("a1", "f1", "a2", "f2", "defect_dofs", "defect_elements", "misfit")


def frequency_analysis(v, op):
    """Magnitude spectrum and AM fit terms (by name) of one mode, sampled on its own."""
    f = analysis.sample_matrix(op, analysis._sample_grid(op)) @ v
    mags = analysis._frequency_content(f[None], op.bc)
    fits = analysis._two_wave_fits(f[None], mags, op)
    return mags[0], {name: fits[name][0] for name in AM_FIT}


@pytest.mark.parametrize("layout", [
    BlockLayout.riga(40, 2, 10), BlockLayout.iga(24, 3), BlockLayout.fea(12, 2),
    BlockLayout.iga(20, 4, bc="neumann"), BlockLayout.riga(30, 3, 10, bc="neumann"),
], ids=["riga-p2", "iga-p3", "fea", "iga-p4-neumann", "riga-p3-neumann"])
def test_two_wave_fits_match_the_per_mode_loop(layout):
    # every mode, both wave families, and one spectrum with a single peak
    op = assemble_layout(layout)
    V = solve_gevp(op).eigenvectors
    fields = (analysis.sample_matrix(op, analysis._sample_grid(op)) @ V).T
    mags = analysis._frequency_content(np.ascontiguousarray(fields), op.bc)
    single = np.zeros(mags.shape[1])
    single[5] = 1.0
    fields, mags = np.vstack([fields, fields[:1]]), np.vstack([mags, single])
    fits = analysis._two_wave_fits(fields, mags, op)
    assert fits["f2"][-1] is None and fits["a2"][-1] == 0.0
    for k in range(len(fields)):
        assert {name: fits[name][k] for name in AM_FIT} \
            == per_mode_two_wave_fit(fields[k], mags[k], op)


def test_frequency_content_resolved_mode(fig9_setup):
    op, spec = fig9_setup
    _, fit = frequency_analysis(spec.eigenvectors[:, 99], op)
    assert fit["f1"] == pytest.approx(100 / 2)  # j/2 cycles per unit length
    assert fit["a1"] == pytest.approx(math.sqrt(2.0), rel=1e-2)


def test_am_fit_low_mode_single_peak(fig9_setup):
    op, spec = fig9_setup
    _, fit = frequency_analysis(spec.eigenvectors[:, 4], op)
    assert fit["a1"] == pytest.approx(math.sqrt(2.0), rel=1e-2)
    assert fit["f1"] == pytest.approx(2.5)
    assert fit["a2"] < 1e-4 * fit["a1"]
    assert fit["misfit"] < 1e-4


def test_am_fit_near_top_frequency_link(fig9_setup):
    # highest non-pure, non-outlier mode carries the two-wave structure;
    # the peak frequencies add up to the element count exactly, while the
    # dof-count convention is off by the two separator modes
    op, spec = fig9_setup
    _, fit = frequency_analysis(spec.eigenvectors[:, 190], op)
    assert fit["a2"] > 0.9 * fit["a1"]
    assert fit["f1"] + fit["f2"] == pytest.approx(192.0)
    assert fit["defect_elements"] <= 0.5  # within one half-cycle bin
    assert fit["defect_dofs"] == pytest.approx(2.0)


def test_outlier_has_no_clear_am_structure(fig9_setup):
    op, spec = fig9_setup
    _, fit = frequency_analysis(spec.eigenvectors[:, 193], op)
    assert fit["misfit"] > 0.5  # spurious mode, the two-wave model fails


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
        assert branch_count(solve_eigenvalues(op), op, j_max=window) == want
    # FEA over the whole spectrum shows the acoustic/optical split
    op = assemble_layout(BlockLayout.fea(100, 2))
    lam = solve_eigenvalues(op)
    assert branch_count(lam, op, j_max=lam.size) == 2


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


def test_leading_mode_error_lobatto_coefficient():
    # Lobatto p = 2: ev_rel = -(pi h)^4 / 1440 + O(h^6); at h = 1/160 the raw
    # eigenvalue of a full solve carries round-off of about 0.7% of this error
    h = 1.0 / 160
    want = -(math.pi * h) ** 4 / 1440.0
    got = analysis.leading_mode_error(BlockLayout.iga(160, 2), QuadratureSpec("lobatto"))
    assert abs(got - want) <= 3e-3 * abs(want)


def test_leading_mode_error_linear_closed_form():
    h = 1.0 / 400
    want = (linear_fem_eigenvalue(1, h) - math.pi ** 2) / math.pi ** 2
    got = analysis.leading_mode_error(BlockLayout.iga(400, 1))
    assert abs(got - want) <= 1e-7 * want
