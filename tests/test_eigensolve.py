import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from hypothesis import assume, example, given, settings, strategies as st

from splinespectra import analysis, cli, eigensolve
from splinespectra.assembly import (
    NumericalError,
    SymmetricBandedMatrix,
    assemble_layout,
)
from splinespectra.eigensolve import (
    _band_eigenvalues,
    _bloch_eigenvalues,
    _uniform_patch,
    polish_eigenvalue,
    solve_eigenvalues,
    solve_gevp,
)
from splinespectra.quadrature import QuadratureSpec
from splinespectra.splines import BlockLayout

from oracles import (OracleDivergenceError, QuadratureFormsSpectrum, dense_eigenpairs,
                     extended_block_quotients, kron_2d_operators, linear_fem_eigenvalue,
                     oracle_check, reference_leading_mode_error,
                     reference_polish_eigenvalue, whole_mesh_quotient)


def banded_diag(values):
    mat = SymmetricBandedMatrix.zeros(len(values), 0)
    mat.band[0] = values
    return mat


def test_single_dof():
    op = assemble_layout(BlockLayout.fea(2, 1))
    spec = solve_gevp(op)
    assert spec.eigenvalues[0] == pytest.approx(12.0, rel=1e-13)
    assert spec.eigenvalues[0] > math.pi ** 2  # overestimates the exact value


def test_diagonal_pencil():
    op = SimpleNamespace(K=banded_diag([1.0, 2.0, 3.0]),
                         M=banded_diag([1.0, 1.0, 1.0]), n_dofs=3)
    spec = solve_gevp(op)
    assert np.allclose(spec.eigenvalues, [1, 2, 3])
    assert np.allclose(np.abs(spec.eigenvectors), np.eye(3), atol=1e-14)
    # sign convention: largest-magnitude entry positive
    assert np.all(spec.eigenvectors[np.argmax(np.abs(spec.eigenvectors), 0),
                                    np.arange(3)] > 0)


def test_full_spectrum_count_and_order():
    op = assemble_layout(BlockLayout.iga(1000, 2))
    spec = solve_gevp(op)
    assert spec.n_modes == 1000
    assert np.all(spec.eigenvalues > 0)
    assert np.all(np.diff(spec.eigenvalues) >= 0)


@pytest.mark.parametrize("layout,quad", [
    (BlockLayout.iga(40, 2), None),
    (BlockLayout.riga(40, 3, 8), None),
    (BlockLayout.fea(20, 2), None),
    (BlockLayout.iga(40, 2), QuadratureSpec("blended", tau=1.8)),
])
def test_normalization_orthogonality_residual(layout, quad):
    op = assemble_layout(layout, quad)
    spec = solve_gevp(op)
    M = op.M.to_dense()
    K = op.K.to_dense()
    V = spec.eigenvectors
    G = V.T @ M @ V
    assert np.max(np.abs(np.diag(G) - 1.0)) < 1e-10
    off = G - np.diag(np.diag(G))
    assert np.max(np.abs(off)) < 1e-8
    R = K @ V - M @ V * spec.eigenvalues
    assert np.max(np.linalg.norm(R, axis=0)) <= 1e-8 * spec.eigenvalues[-1]


def test_refuses_oversize_dense():
    op = SimpleNamespace(K=None, M=None, n_dofs=10_000)
    with pytest.raises(ValueError):
        solve_gevp(op)
    with pytest.raises(ValueError, match="10000 dofs exceed the limit of 6000"):
        solve_eigenvalues(op)


def assert_values_match_dense(op):
    lam = solve_eigenvalues(op)
    ref = solve_gevp(op).eigenvalues
    assert lam.shape == ref.shape
    assert np.all(np.diff(lam) >= 0)
    assert np.max(np.abs(lam - ref)) <= 1e-13 * ref[-1]


@pytest.mark.parametrize("layout", [
    BlockLayout.fea(60, 2), BlockLayout.fea(40, 3, bc="neumann"),
    BlockLayout.iga(200, 2), BlockLayout.iga(90, 4, bc="neumann"),
    BlockLayout.riga(200, 2, 20), BlockLayout.riga(120, 3, 12, bc="neumann"),
], ids=lambda lay: f"{lay.n_elements}-{lay.p}-{lay.block_size}-{lay.bc}")
@pytest.mark.parametrize("quad", [
    QuadratureSpec("gauss"), QuadratureSpec("lobatto"),
    QuadratureSpec("blended", tau=0.5),
], ids=lambda q: q.label())
def test_values_match_dense_solve(layout, quad):
    assert_values_match_dense(assemble_layout(layout, quad))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(n_elements=st.integers(1, 24), p=st.integers(1, 4), data=st.data(),
       bc=st.sampled_from(["dirichlet", "neumann"]))
def test_values_match_dense_on_random_layouts(n_elements, p, data, bc):
    block = data.draw(st.integers(1, n_elements))
    continuity = data.draw(st.integers(0, p - 1))
    layout = BlockLayout(n_elements, p, block, continuity, bc)
    assume(layout.n_dofs >= 1)
    assert_values_match_dense(assemble_layout(layout))


def test_values_of_diagonal_pencil_leave_bands_intact():
    op = SimpleNamespace(K=banded_diag([3.0, 1.0, 2.0]),
                         M=banded_diag([1.0, 1.0, 2.0]), n_dofs=3)
    assert np.allclose(solve_eigenvalues(op), [1.0, 1.0, 3.0])
    # LAPACK overwrites its inputs: it must get copies, even of a band that is
    # already Fortran-ordered (one row or one column)
    assert op.K.band.tolist() == [[3.0, 1.0, 2.0]]
    assert op.M.band.tolist() == [[1.0, 1.0, 2.0]]


def test_values_reject_non_finite_band():
    op = assemble_layout(BlockLayout.iga(10, 2))
    op.K.band[1, 3] = np.nan
    with pytest.raises(ValueError):
        solve_eigenvalues(op)


def test_values_reject_indefinite_mass():
    op = SimpleNamespace(K=banded_diag([1.0, 2.0, 3.0]),
                         M=banded_diag([1.0, -1.0, 1.0]), n_dofs=3)
    with pytest.raises(NumericalError, match="not positive definite"):
        solve_eigenvalues(op)


def test_polish_reaches_the_nearest_eigenvalue():
    op = assemble_layout(BlockLayout.riga(40, 3, 8, bc="neumann"))
    lam = solve_gevp(op).eigenvalues
    for k in (1, 2, 7):  # k = 0 is the zero mode, where a relative tolerance means nothing
        assert polish_eigenvalue(op, lam[k] * (1 + 1e-9)) == pytest.approx(lam[k], rel=1e-10)


@pytest.mark.parametrize("layout, quadrature", [
    (BlockLayout.iga(160, 2), None),
    (BlockLayout.riga(200, 3, 20), None),
    (BlockLayout.riga(90, 2, 7), None),                   # ragged blocks
    (BlockLayout.fea(60, 3), None),
    (BlockLayout.iga(40, 3, bc="neumann"), None),
    (BlockLayout.riga(40, 3, 8, bc="neumann"), None),
    (BlockLayout.iga(80, 2), QuadratureSpec("lobatto")),
    (BlockLayout.riga(120, 2, 10), QuadratureSpec("lobatto")),
    (BlockLayout.iga(8, 1), None),
], ids=["iga", "riga", "riga-ragged", "fea", "iga-neumann", "riga-neumann",
        "iga-lobatto", "riga-lobatto", "iga-p1"])
def test_polish_matches_the_sparse_difference_bit_for_bit(layout, quadrature):
    # the shift is factored on the general band built from the stored upper
    # band, which is the dense shifted matrix's general band, bit for bit.
    # The polished quotient, at the quadrature points, agrees with the
    # sparse-LU vector's quotient on the bands to n eps lambda_max.  A mode
    # within 1e-6 (relative) of another is not resolved at a shift 1e-8 off
    # (the top pair of iga-neumann, 1.3e-10 apart): any vector of the pair is
    # an answer, so its quotient need only lie between the pair's values
    op = assemble_layout(layout, quadrature)
    lam = solve_eigenvalues(op)
    u, n = op.K.bandwidth, op.n_dofs
    tol = n * np.finfo(float).eps * lam[-1]
    for k in {1, 2, lam.size // 2, lam.size - 1}:
        estimate = lam[k] * (1 + 1e-9)
        band = op.K.band - estimate * op.M.band
        dense = SymmetricBandedMatrix(band).to_dense()
        general = np.zeros((3 * u + 1, n))
        i, j = np.nonzero(np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= u)
        general[2 * u + i - j, j] = dense[i, j]
        assert np.array_equal(eigensolve._general_band(band), general)
        got = polish_eigenvalue(op, estimate)
        cluster = lam[np.abs(lam - lam[k]) <= 1e-6 * lam[k]]
        if cluster.size == 1:
            assert abs(got - reference_polish_eigenvalue(op, estimate)) <= tol
        else:
            assert cluster[0] - tol <= got <= cluster[-1] + tol


@pytest.mark.parametrize("n_elements", [100, 400, 800, 1600])
def test_polish_is_right_to_a_few_roundings_on_linear_elements(n_elements):
    # linear elements have closed-form eigenvalues: the polished leading
    # mode is within 6.5 eps of them up to 1600 elements (4.1 eps from the
    # exact shift of leading_mode_error), where the quotient on the stored
    # bands was up to 8.0e-12 off (relative)
    op = assemble_layout(BlockLayout.fea(n_elements, 1))
    exact = linear_fem_eigenvalue(1, op.layout.h)
    got = polish_eigenvalue(op, solve_eigenvalues(op, lowest=1)[0])
    assert abs(got - exact) <= 8 * np.finfo(float).eps * exact


def test_polish_rejects_a_singular_shift():
    op = SimpleNamespace(K=banded_diag([0.0, 0.0, 0.0]),
                         M=banded_diag([1.0, 1.0, 1.0]), n_dofs=3)
    with pytest.raises(NumericalError, match="shifted factorization"):
        polish_eigenvalue(op, 0.0)


@st.composite
def leading_mode_cases(draw):
    """A random layout of every kind under either condition, coarse meshes
    of 2 to 8 elements among them, and a Gauss, Lobatto or blended rule."""
    p = draw(st.integers(1, 5))
    bc = draw(st.sampled_from(["dirichlet", "neumann"]))
    shape = draw(st.sampled_from(["iga", "fea", "riga", "ragged"]))
    n_elements = draw(st.integers(2, 8) | st.integers(9, 120))
    if shape == "iga":
        layout = BlockLayout.iga(n_elements, p, bc)
    elif shape == "fea":
        layout = BlockLayout.fea(n_elements, p, bc)
    elif shape == "riga":
        block = draw(st.integers(1, 12))
        layout = BlockLayout.riga(block * draw(st.integers(2, 10)), p, block, bc)
    else:
        block = draw(st.integers(2, 12))
        n_elements = max(n_elements, block + 1)
        layout = BlockLayout.riga(n_elements + (n_elements % block == 0), p, block, bc)
    quadrature = draw(st.sampled_from([None, QuadratureSpec("lobatto")])
                      | st.floats(0.0, 1.0).map(lambda tau: QuadratureSpec("blended", tau=tau)))
    return layout, quadrature


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(case=leading_mode_cases())
@example(case=(BlockLayout.fea(3, 1), None))
@example(case=(BlockLayout.fea(2, 1, "neumann"), QuadratureSpec("lobatto")))
@example(case=(BlockLayout.iga(2, 5, "neumann"), QuadratureSpec("blended", tau=0.5)))
def test_leading_mode_error_matches_the_located_mode(case):
    # the mode polished at its exact eigenvalue on the bands is the one a
    # values-only solve locates, polished by sparse LU: the same quotient
    # to a few roundings of lambda_h / pi^2 (3.2 of them at most, over 400
    # random layouts), on coarse meshes too, where the exact eigenvalue lies
    # up to a quarter of the gap to the next mode away from the discrete one
    layout, quadrature = case
    got = analysis.leading_mode_error(layout, quadrature)
    want = reference_leading_mode_error(layout, quadrature)
    assert abs(got - want) <= 8 * np.finfo(float).eps * (1.0 + want)


@pytest.mark.parametrize("quadrature", [None, QuadratureSpec("lobatto")],
                         ids=["gauss", "lobatto"])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("layout", [BlockLayout.iga(40, 2), BlockLayout.riga(60, 3, 10),
                                    BlockLayout.fea(30, 2), BlockLayout.riga(7, 5, 2)],
                         ids=["iga", "riga", "fea", "riga-coarse"])
def test_certificate_accepts_the_leading_mode_only(layout, bc, quadrature):
    # the first non-constant mode passes; the second, polished from 4 pi^2,
    # fails: an eigenvalue lies below half of it
    op = assemble_layout(dataclasses.replace(layout, bc=bc), quadrature)
    eigensolve._certify_lowest(op, polish_eigenvalue(op, math.pi ** 2))
    second = polish_eigenvalue(op, 4 * math.pi ** 2)
    assert second == pytest.approx(solve_gevp(op).eigenvalues[2 if bc == "neumann" else 1],
                                   rel=1e-9)
    with pytest.raises(NumericalError, match="is not the lowest"):
        eigensolve._certify_lowest(op, second)


def test_certificate_holds_on_a_fine_neumann_mesh():
    # the penalized pencil keeps the Dirichlet-like margin: a compression to
    # the constant's complement by differences failed its 27,061st pivot
    # here.  Linear elements have the closed form under either condition
    layout = BlockLayout.iga(32000, 1, bc="neumann")
    want = (linear_fem_eigenvalue(1, layout.h) - math.pi ** 2) / math.pi ** 2
    assert abs(analysis.leading_mode_error(layout) - want) <= 8 * np.finfo(float).eps


def dense_oracle_check(op, eigenvalues, modes):
    return oracle_check(op.K.to_dense(), op.M.to_dense(), eigenvalues, modes)


def test_oracle_on_random_modes():
    op = assemble_layout(BlockLayout.iga(100, 2))
    spec = solve_gevp(op)
    rng = np.random.default_rng(0)
    modes = sorted(set(rng.integers(1, spec.n_modes + 1, size=5).tolist()))
    report = dense_oracle_check(op, spec.eigenvalues, modes)
    assert report.max_deviation < 1e-9


def test_oracle_single_dof():
    op = assemble_layout(BlockLayout.fea(2, 1))
    spec = solve_gevp(op)
    report = dense_oracle_check(op, spec.eigenvalues, [1])
    assert report.max_deviation < 1e-12


def test_oracle_on_degenerate_2d_pair():
    op = assemble_layout(BlockLayout.iga(8, 2))
    M2, K2 = kron_2d_operators(op)
    lam2 = scipy.linalg.eigh(K2.toarray(), M2.toarray(), eigvals_only=True)
    # modes 2 and 3 are the exactly degenerate (1,2)/(2,1) pair
    assert lam2[1] == pytest.approx(lam2[2], rel=1e-12)
    report = oracle_check(K2.toarray(), M2.toarray(), lam2, [2, 3])
    assert report.max_deviation < 1e-9


def test_oracle_flags_wrong_eigenvalue():
    op = assemble_layout(BlockLayout.iga(30, 2))
    spec = solve_gevp(op)
    spec.eigenvalues[4] *= 1.05  # corrupt one eigenvalue
    with pytest.raises(OracleDivergenceError):
        dense_oracle_check(op, spec.eigenvalues, [5])


# ---------------------------------------------------------------------------
# the block-Fourier route for layouts of repeated blocks
# ---------------------------------------------------------------------------

class DenseSolveCalled(AssertionError):
    pass


def refuse_dense(*args, **kwargs):
    raise DenseSolveCalled("dense eigh called")


def bare(op):
    """The pencil of ``op`` without its layout: always the dense route."""
    return SimpleNamespace(K=op.K, M=op.M, n_dofs=op.n_dofs)


def dense_route(op):
    """``solve_gevp`` of ``op`` by the dense route, whatever its layout."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eigensolve, "_uniform_patch", lambda op: None)
        return solve_gevp(op)


def clusters(w, gap):
    """Index runs of ``w`` (ascending) whose neighbours lie within ``gap``."""
    cuts = np.flatnonzero(np.diff(w) > gap) + 1
    return np.split(np.arange(w.size), cuts)


def assert_matches_dense_oracle(op):
    """Eigenpairs of ``solve_gevp`` against the dense oracle: values within
    ``1e-12 lambda_max``, ``M``-orthonormal to ``1e-12``, residual within
    ``1e-13 lambda_max``; vectors within ``1e-7`` up to sign where the
    eigenvalue is resolved, and the same subspace on each unresolved run."""
    spec = solve_gevp(op)
    w, V = dense_eigenpairs(op)
    lam_max = w[-1]
    K, M = op.K.to_dense(), op.M.to_dense()
    U = spec.eigenvectors
    assert np.max(np.abs(spec.eigenvalues - w)) <= 1e-12 * lam_max
    assert np.max(np.abs(U.T @ M @ U - np.eye(w.size))) <= 1e-12
    assert np.max(np.abs(K @ U - M @ U * spec.eigenvalues)) <= 1e-13 * lam_max
    # runs closer than 1e-6 lambda_max: the dense vectors' error, about
    # n eps lambda_max / gap, would pass 1e-7 there
    for run in clusters(w, 1e-6 * lam_max):
        cross = U[:, run].T @ M @ V[:, run]
        if run.size == 1:
            v, u = V[:, run[0]], U[:, run[0]] * np.sign(cross[0, 0])
            assert np.max(np.abs(u - v)) <= 1e-7 * np.max(np.abs(v))
        else:  # sine of the largest principal angle between the subspaces
            cos_min = np.linalg.svd(cross, compute_uv=False).min()
            assert math.sqrt(max(0.0, 1.0 - cos_min ** 2)) <= 1e-7


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(method=st.sampled_from(["riga", "fea"]), p=st.integers(1, 4),
       block=st.integers(1, 12), n_blocks=st.integers(2, 8),
       rule=st.sampled_from(["gauss", "lobatto"]))
@example(method="fea", p=1, block=1, n_blocks=2, rule="gauss")  # one dof
@example(method="fea", p=1, block=1, n_blocks=8, rule="gauss")  # 1 x 1 pencils
@example(method="riga", p=1, block=12, n_blocks=2, rule="lobatto")
@example(method="riga", p=4, block=12, n_blocks=8, rule="gauss")
def test_block_fourier_route_matches_dense_oracle(method, p, block, n_blocks, rule):
    block = 1 if method == "fea" else block
    op = assemble_layout(BlockLayout.riga(block * n_blocks, p, block),
                         QuadratureSpec(rule))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scipy.linalg, "eigh", refuse_dense)
        solve_gevp(op)  # never reaches the dense route
    assert_matches_dense_oracle(op)


@pytest.mark.parametrize("layout", [
    BlockLayout.riga(40, 2, 7),                  # ragged last block
    BlockLayout.iga(40, 2),                      # one block
    BlockLayout.iga(12, 1),                      # one block of C^0 elements
    BlockLayout.riga(40, 2, 8, bc="neumann"),
    BlockLayout(40, 3, 8, separator_continuity=1),
], ids=lambda lay: f"{lay.n_elements}-{lay.p}-{lay.block_size}-c{lay.separator_continuity}-{lay.bc}")
def test_other_layouts_take_the_dense_route(monkeypatch, layout):
    op = assemble_layout(layout)
    with monkeypatch.context() as patch:
        patch.setattr(scipy.linalg, "eigh", refuse_dense)
        with pytest.raises(DenseSolveCalled):
            solve_gevp(op)
    assert_matches_dense_oracle(op)


def test_bare_pencil_of_repeated_blocks_takes_the_dense_route(monkeypatch):
    op = assemble_layout(BlockLayout.riga(40, 3, 8))
    with monkeypatch.context() as patch:
        patch.setattr(scipy.linalg, "eigh", refuse_dense)
        solve_gevp(op)
        with pytest.raises(DenseSolveCalled):
            solve_gevp(bare(op))
    a, b = solve_gevp(op), solve_gevp(bare(op))
    assert np.max(np.abs(a.eigenvalues - b.eigenvalues)) <= 1e-12 * b.eigenvalues[-1]


def test_bands_that_do_not_repeat_take_the_dense_route(monkeypatch):
    op = assemble_layout(BlockLayout.riga(40, 2, 8))
    op.M.band[-1, 20] *= 1.0 + 1e-9  # one block's mass no longer matches
    with monkeypatch.context() as patch:
        patch.setattr(scipy.linalg, "eigh", refuse_dense)
        with pytest.raises(DenseSolveCalled):
            solve_gevp(op)
    assert_matches_dense_oracle(op)


def test_mirror_antisymmetric_modes_get_one_sign_from_both_routes():
    op = assemble_layout(BlockLayout.riga(60, 2, 10))
    fourier, dense = solve_gevp(op), solve_gevp(bare(op))
    V, U = fourier.eigenvectors, dense.eigenvectors
    odd = [k for k in range(op.n_dofs)
           if np.allclose(U[::-1, k], -U[:, k], atol=1e-9 * np.abs(U[:, k]).max())]
    assert len(odd) > op.n_dofs // 3
    for k in odd:
        assert np.max(np.abs(V[:, k] - U[:, k])) <= 1e-7 * np.abs(U[:, k]).max()


def test_low_modes_of_a_long_uniform_layout_are_accurate(monkeypatch):
    # the discretization error of mode j is (j pi h)^4 / 720 here: 8.5e-15 at
    # j = 1, some 50 units in the last place of lambda.  The dense solve
    # gives 4.1e-12, 4.9e-12 and 5.3e-12, quotients on the stored bands gave
    # -4.0e-12, -9.4e-13 and 3.9e-13, and the small pencils' own eigenvalues
    # lose the low modes to cancellation
    op = assemble_layout(BlockLayout.riga(2000, 2, 100))
    monkeypatch.setattr(scipy.linalg, "eigh", refuse_dense)
    lam = solve_gevp(op).eigenvalues[:3]
    j = np.arange(1, 4)
    exact = (j * math.pi) ** 2
    truth = (j * math.pi * op.layout.h) ** 4 / 720
    np.testing.assert_allclose((lam - exact) / exact, truth, rtol=0.05)


def test_unresolved_cluster_gets_the_localized_basis():
    # two separator outliers, equal to far below n eps lambda_max: either
    # route returns one vector peaked at each separator
    op = assemble_layout(BlockLayout.riga(192, 2, 64))
    for spec in (solve_gevp(op), solve_gevp(bare(op))):
        top = spec.eigenvectors[:, -2:]
        peaks = np.abs(top).argmax(axis=0)
        assert peaks[0] < op.n_dofs // 2 < peaks[1]
        assert abs(peaks[0] + peaks[1] - (op.n_dofs - 1)) <= 2  # mirror images
    assert_matches_dense_oracle(op)


# The factored spectrum's budget takes its pair products (u_j, v_j) from the
# Bloch factors, and v^T K v and v^T M v from its forms, one block's sums at
# the quadrature points.  The reference holds the same spectrum as one array,
# with the pair products of its columns and the whole-mesh sums of
# whole_mesh_quotient.  The pair products differ by at most 5.3e-14 on
# riga(2000, 2, 100) and 7.8e-15 on 123 layouts of up to 12 blocks of up to
# 12 elements, p = 1 .. 5; the forms by at most 2.3e-14 relative on layouts
# of up to 8 blocks of up to 12 elements, p = 1 .. 5, under Gauss, Lobatto
# and blended rules (knot rounding differs from block to block).  The
# eigenvalue terms are the same bit for bit.
_EIGENVALUE_TERMS = ("j", "j_over_n0", "lambda_exact", "lambda_h", "ev_rel")
_BUDGET_ATOL = 5e-13


def assert_budgets_agree(got, expected):
    for field in dataclasses.fields(got):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        if field.name in _EIGENVALUE_TERMS:
            np.testing.assert_array_equal(a, b, err_msg=field.name)
        else:
            np.testing.assert_allclose(a, b, rtol=0, atol=_BUDGET_ATOL, err_msg=field.name)


def reference_budget(spectrum, op):
    """The budget of ``spectrum`` on ``op`` from the same spectrum held as one
    array, its forms the whole-mesh sums of the oracle under every rule."""
    return analysis.error_budget(QuadratureFormsSpectrum(spectrum, op), op)


def materialized(spectrum, op):
    """``spectrum`` held as one array on the mesh of ``op``: a dense spectrum."""
    return eigensolve.Spectrum(spectrum.eigenvalues, spectrum.eigenvectors, op.kv,
                               op.dof_indices)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(p=st.integers(2, 4), block=st.integers(1, 12), n_blocks=st.integers(2, 8),
       data=st.data())
@example(p=2, block=64, n_blocks=3, data=None)  # a tight run of two outliers
@example(p=4, block=12, n_blocks=8, data=None)
def test_factored_eigenvectors_match_the_materialized_and_dense_spectra(p, block, n_blocks,
                                                                         data):
    op = assemble_layout(BlockLayout.riga(block * n_blocks, p, block))
    spectrum = solve_gevp(op)
    assert isinstance(spectrum, eigensolve._BlochSpectrum)
    V, n = spectrum.eigenvectors, spectrum.n_modes
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=6))) if data else [1, n // 2]
    edges = [0, *cuts, n]
    assert np.array_equal(np.hstack([spectrum.columns(a, b)
                                     for a, b in zip(edges[:-1], edges[1:])]), V)

    # the block route against the same spectrum held as one array
    assert_budgets_agree(analysis.error_budget(spectrum, op), reference_budget(spectrum, op))
    materialized = eigensolve.Spectrum(spectrum.eigenvalues, V)
    got = analysis.outlier_report(spectrum, op)
    expected = analysis.outlier_report(materialized, op)
    for field in dataclasses.fields(got):
        np.testing.assert_array_equal(getattr(got, field.name),
                                      getattr(expected, field.name), err_msg=field.name)

    # against the dense eigh route: the budget of every mode resolved by both
    dense = dense_route(op)
    lam_max = dense.eigenvalues[-1]
    assert np.max(np.abs(spectrum.eigenvalues - dense.eigenvalues)) <= 1e-12 * lam_max
    resolved = np.concatenate([run for run in clusters(dense.eigenvalues, 1e-6 * lam_max)
                               if run.size == 1]).astype(int)
    got, expected = analysis.error_budget(spectrum, op), analysis.error_budget(dense, op)
    for name in ("ef_l2_sq", "ef_energy_rel_sq", "energy_gap", "l2_deficit",
                 "pythagoras_residual"):
        np.testing.assert_allclose(getattr(got, name)[resolved],
                                   getattr(expected, name)[resolved], rtol=0, atol=1e-10,
                                   err_msg=name)


_BLENDED = QuadratureSpec("blended", tau=0.5)
_RULES = [QuadratureSpec("gauss"), QuadratureSpec("lobatto"), _BLENDED]


@pytest.mark.parametrize("solved_on, budgeted_on", [
    (QuadratureSpec("lobatto"), QuadratureSpec("gauss")),
    (QuadratureSpec("gauss"), QuadratureSpec("lobatto")),
    (_BLENDED, QuadratureSpec("gauss")),
    (QuadratureSpec("gauss"), _BLENDED),
    (_BLENDED, _BLENDED),
], ids=["lobatto-gauss", "gauss-lobatto", "blended-gauss", "gauss-blended",
        "blended-blended"])
def test_budget_of_a_spectrum_solved_on_another_pencil(solved_on, budgeted_on):
    # the budget reads only the spectrum's eigenpairs and their forms under
    # the rules it names, whichever pencil they were solved on: one block's
    # sums here, the whole mesh's for the same spectrum held as one array,
    # with the library's evaluator or the oracle's
    layout = BlockLayout.riga(60, 2, 10)
    spectrum = solve_gevp(assemble_layout(layout, solved_on))
    assert isinstance(spectrum, eigensolve._BlochSpectrum)
    op = assemble_layout(layout, budgeted_on)
    budget = analysis.error_budget(spectrum, op)
    assert_budgets_agree(budget, reference_budget(spectrum, op))
    assert_budgets_agree(budget, analysis.error_budget(materialized(spectrum, op), op))


@pytest.mark.parametrize("matrix", ["K", "M"])
def test_budget_of_a_pencil_changed_after_the_solve(matrix):
    # the forms are sums at the quadrature points of the spectrum's mesh: a
    # band scaled in place after the solve changes no term of the budget,
    # even under a rule the solve formed no forms of
    layout = BlockLayout.riga(60, 2, 10)
    spectrum = solve_gevp(assemble_layout(layout))
    op = assemble_layout(layout, QuadratureSpec("lobatto"))
    expected = reference_budget(spectrum, op)
    getattr(op, matrix).band *= 2.0
    assert_budgets_agree(analysis.error_budget(spectrum, op), expected)


def record_builds(monkeypatch):
    """Record the width of every block of columns a Bloch spectrum builds."""
    builds = []
    build = eigensolve._BlochSpectrum._build
    monkeypatch.setattr(eigensolve._BlochSpectrum, "_build",
                        lambda self, modes: builds.append(modes.size) or build(self, modes))
    return builds


@pytest.mark.parametrize("matrix", ["K", "M"])
def test_bands_scaled_before_the_solve_are_the_pencil_solved(monkeypatch, matrix):
    # the forms come from op.kv and op.quadrature, the eigenvectors from the
    # bands: bands that are no longer that assembly fail the solve's check,
    # and both routes keep the eigenvalues of the pencil they solved.  The
    # Bloch route builds no column for it
    op = assemble_layout(BlockLayout.riga(60, 2, 10))
    getattr(op, matrix).band *= 3.0
    expected = dense_eigenpairs(op)[0]
    builds = record_builds(monkeypatch)
    spectra = [solve_gevp(op), dense_route(op)]
    assert isinstance(spectra[0], eigensolve._BlochSpectrum) and builds == []
    tol = op.n_dofs * np.finfo(float).eps * expected[-1]
    for spectrum in spectra:
        np.testing.assert_allclose(spectrum.eigenvalues, expected, rtol=0, atol=tol)


@pytest.mark.parametrize("layout", [
    BlockLayout.riga(60, 2, 10),   # m = 10 bubbles: no middle row
    BlockLayout.riga(60, 3, 10),   # m = 11: a middle row
    BlockLayout.riga(192, 2, 64),  # a tight run of two
    BlockLayout.riga(40, 4, 5),
    BlockLayout.riga(4, 1, 1),     # no bubble
], ids=["m10", "m11", "tight", "p4", "m0"])
def test_factors_by_mirror_slices_keep_the_bits_of_the_dense_products(layout):
    # the local bubble vectors are the mirror combinations Qe y_e and Qo y_o:
    # each entry one nonzero term, so the slices give the products' bits
    op = assemble_layout(layout)
    spectrum = solve_gevp(op)
    assert isinstance(spectrum, eigensolve._BlochSpectrum)
    _, _, Qe, Qo = eigensolve._folded_pencils(*_uniform_patch(op))
    m, me = Qe.shape
    n = spectrum.n_modes
    for lo, hi in [(0, n), (n // 3, n - 1), (n - 2, n)]:
        local, _, _ = spectrum.factors(lo, hi)
        modes = spectrum._modes[lo:hi]
        band = modes >= spectrum._Y.shape[1]
        Y = spectrum._Y[:, np.where(band, 0, modes)]
        expected = np.zeros_like(local)
        expected[0, :m], expected[1, :m], expected[2, m] = Qe @ Y[:me], Qo @ Y[me:m], Y[m]
        wave = ~band
        bits = [a[:, :, wave].view(np.int64) for a in (local, expected)]
        assert np.array_equal(*bits)  # zeros keep their signs too
        assert not local[1:, :, band].any()


def tight_columns(lam):
    """Columns of the runs of ``lam`` (ascending) with gaps of at most ``n eps
    lambda_max``, which the solve localizes."""
    tight = np.zeros(lam.size, dtype=bool)
    close = np.diff(lam) <= lam.size * np.finfo(float).eps * np.abs(lam).max()
    tight[1:] |= close
    tight[:-1] |= close
    return tight


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(p=st.integers(1, 5), block=st.integers(1, 12), n_blocks=st.integers(2, 8),
       rule=st.sampled_from(_RULES), extra=st.just(0), bc=st.just("dirichlet"))
@example(p=1, block=1, n_blocks=2, rule=_RULES[0], extra=0, bc="dirichlet")  # one dof
@example(p=5, block=12, n_blocks=2, rule=_RULES[1], extra=0, bc="dirichlet")
# a tight run of two outliers
@example(p=2, block=64, n_blocks=3, rule=_RULES[0], extra=0, bc="dirichlet")
# a tight run of 19
@example(p=2, block=100, n_blocks=20, rule=_RULES[0], extra=0, bc="dirichlet")
# the dense route alone: one block (IGA), a ragged last block, Neumann
@example(p=3, block=64, n_blocks=1, rule=_RULES[2], extra=0, bc="dirichlet")
@example(p=2, block=9, n_blocks=6, rule=_RULES[1], extra=4, bc="dirichlet")
@example(p=4, block=10, n_blocks=4, rule=_RULES[0], extra=0, bc="neumann")
def test_one_block_quotients_match_the_whole_mesh_oracle(p, block, n_blocks, rule, extra, bc):
    # every mode's eigenvalue, and its forms under every rule, against the
    # sums over every element of the built columns: on the block-Fourier
    # route, summed over one block's quadrature points, and on the dense
    # route, over the whole mesh with the library's basis evaluator.  A knot
    # rounds by up to eps / 2, so an element's length by up to n_e eps
    # (relative) and a quotient by up to 2 n_e eps; on the top modes the p +
    # 1 terms of v(x_q) cancel, in the oracle too.  At most 0.76 of (16 p +
    # 2 n_e) eps apart, on riga(24, 5, 12) under Gauss points (97 eps), over
    # every layout of 2, 5 and 8 blocks of up to 12 elements, p = 1 .. 5,
    # each rule solved on and formed under, and both routes; 331 eps on
    # riga(2000, 2, 100).  The eigenvalues of a tight run are those of its
    # modes, within n eps lambda_max of its localized columns' quotients.
    # The Neumann constant mode's quotient is the round-off of v', eps^2
    # lambda_max
    op = assemble_layout(BlockLayout.riga(block * n_blocks + extra, p, block, bc), rule)
    spectra = [solve_gevp(op)]
    uniform = n_blocks > 1 and not extra and bc == "dirichlet"
    assert isinstance(spectra[0], eigensolve._BlochSpectrum) == uniform
    if uniform and op.n_dofs <= eigensolve.DENSE_LIMIT // 10:
        spectra.append(dense_route(op))
    eps = np.finfo(float).eps
    rtol = (16 * p + 2 * op.layout.n_elements) * eps
    for spectrum in spectra:
        lam, V = spectrum.eigenvalues, spectrum.eigenvectors
        vKv, vMv = whole_mesh_quotient(op, V)
        slack = np.where(tight_columns(lam), lam.size * eps, eps * eps) * lam[-1]
        assert np.all(np.abs(lam - vKv / vMv) - slack <= rtol * np.abs(lam))
        # the forms under the solve's rule first, formed by the solve
        for other in [rule] + [r for r in _RULES if r != rule] * (op.n_dofs <= 600):
            for got, want, atol in zip(spectrum.forms(other), whole_mesh_quotient(op, V, other),
                                       (eps * eps * lam[-1], 0.0)):
                np.testing.assert_allclose(got, want, rtol=rtol, atol=atol,
                                           err_msg=other.label())


# The lowest Gauss ev_rel of every mode of riga(2000, 2, 100), riga(400, 3,
# 50), riga(600, 4, 60) and riga(300, 5, 30), and of the 40 layouts below:
# -3.6e-16 (1.6 eps, on riga(300, 5, 30)); quotients on the stored bands gave
# -7.3e-14 on riga(600, 4, 60) and -2.1e-13 on riga(300, 5, 30).  On the
# dense route: -3.6e-16 (1.6 eps, on riga(300, 4, 70) with a ragged last
# block), where the eigenvalues of scipy's eigh read as low as -3.1e-12 on
# riga(500, 3, 60) under Neumann conditions and -2.5e-12 on iga(300, 5).
# The error is the rounding of lambda itself and of the quotient's sums: a
# few units in the last place.
_EV_REL_ALLOWANCE = 8 * np.finfo(float).eps


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(p=st.integers(1, 5), block=st.integers(1, 60), n_blocks=st.integers(2, 20),
       extra=st.just(0), bc=st.just("dirichlet"))
@example(p=2, block=100, n_blocks=20, extra=0, bc="dirichlet")
@example(p=3, block=50, n_blocks=8, extra=0, bc="dirichlet")
@example(p=4, block=60, n_blocks=10, extra=0, bc="dirichlet")
@example(p=5, block=30, n_blocks=10, extra=0, bc="dirichlet")
# the dense route: one block (IGA), a ragged last block, Neumann conditions
@example(p=3, block=600, n_blocks=1, extra=0, bc="dirichlet")
@example(p=5, block=300, n_blocks=1, extra=0, bc="dirichlet")
@example(p=2, block=99, n_blocks=5, extra=95, bc="dirichlet")
@example(p=4, block=70, n_blocks=4, extra=20, bc="dirichlet")
@example(p=2, block=400, n_blocks=1, extra=0, bc="neumann")
@example(p=3, block=60, n_blocks=8, extra=20, bc="neumann")
def test_gauss_eigenvalues_never_fall_below_the_exact_ones(p, block, n_blocks, extra, bc):
    # Gauss p + 1 points integrate the pencil exactly, so by the min-max
    # principle every discrete eigenvalue lies above the exact one; under
    # Neumann conditions, above the constant mode
    op = assemble_layout(BlockLayout.riga(block * n_blocks + extra, p, block, bc))
    spectrum = solve_gevp(op)
    uniform = n_blocks > 1 and not extra and bc == "dirichlet"
    assert isinstance(spectrum, eigensolve._BlochSpectrum) == uniform
    ev_rel = analysis.eigenvalue_errors(spectrum, op)[int(bc == "neumann"):]
    assert ev_rel.min() >= -_EV_REL_ALLOWANCE


@pytest.mark.parametrize("layout, built", [
    (BlockLayout.riga(200, 2, 20), 0),
    (BlockLayout.riga(192, 2, 64), 2),  # a tight run of two outliers
], ids=["no-run", "tight"])
def test_the_solve_builds_only_the_columns_of_tight_runs(monkeypatch, layout, built):
    builds = record_builds(monkeypatch)
    spectrum = solve_gevp(assemble_layout(layout))
    assert builds == ([built] if built else [])
    assert [b - a for a, b, _ in spectrum._runs] == builds


def test_kept_forms_follow_the_sort_of_the_quotients():
    # the quotient pass walks the modes wavenumber by wavenumber, an order
    # the sort of the quotients permutes throughout: each form the solve
    # kept is still that of its column
    op = assemble_layout(BlockLayout.riga(60, 3, 10))
    spectrum = solve_gevp(op)
    assert np.all(np.diff(spectrum.eigenvalues) > 0)
    assert np.mean(spectrum._modes != np.arange(spectrum.n_modes)) > 0.5
    assert op.quadrature in spectrum._forms
    np.testing.assert_allclose(spectrum.forms(op.quadrature),
                               whole_mesh_quotient(op, spectrum.eigenvectors),
                               rtol=1e-13, atol=0)


def test_lowest_quotients_are_right_to_a_few_roundings():
    # the quotients of the lowest modes against the same ones formed in
    # extended precision from the same coefficients, points and weights: at
    # most 1.5 eps apart here, 2.0 eps on the worst of six layouts with p = 1
    # .. 5.  With the element sums added plainly instead of by _sum_rows,
    # 4.7 eps here
    op = assemble_layout(BlockLayout.riga(2100, 2, 70))
    spectrum = solve_gevp(op)
    modes = spectrum._modes[:5]
    exact = extended_block_quotients(op, spectrum._block_coefficients(modes))
    error = (spectrum.eigenvalues[:5] - exact) / exact
    assert np.all(np.abs(error) <= 3 * np.finfo(float).eps)


@pytest.mark.parametrize("rows", [1, 2, 3, 255, 256])
def test_row_sums_are_right_to_one_rounding(rows):
    # _sum_rows against math.fsum, correctly rounded; the plain float64 sum
    # of the same columns is off by more than one unit in the last place in
    # about two thirds of the columns at 255 and 256 rows
    rng = np.random.default_rng(rows)
    x = rng.random((rows, 400)) * np.exp(rng.standard_normal((rows, 400)))
    exact = np.array([math.fsum(column) for column in x.T])
    assert np.all(np.abs(eigensolve._sum_rows(x.copy()) - exact) <= np.spacing(exact))


def _count_builds(monkeypatch, spectrum):
    """Record the column ranges ``spectrum`` builds, and the element count and
    mode count of every sum of quadrature forms, from here on."""
    ranges, sums = [], []
    columns, forms = spectrum.columns, eigensolve._quadrature_forms
    monkeypatch.setattr(spectrum, "columns",
                        lambda lo, hi: ranges.append((lo, hi)) or columns(lo, hi))
    monkeypatch.setattr(eigensolve, "_quadrature_forms",
                        lambda kv, rule, n_el, coefficients, n, fields=1:
                        sums.append((n_el, n)) or forms(kv, rule, n_el, coefficients, n, fields))
    return ranges, sums


@pytest.mark.parametrize("points", [[], ["--points", "3"]], ids=["default", "explicit"])
def test_an_explicit_default_rule_shares_its_forms(monkeypatch, tmp_path, points):
    # three Gauss points at p = 2 are the default rule: the budget's Gauss
    # forms are the ones the solve kept, and the whole mesh is summed once
    sums = []
    forms = eigensolve._quadrature_forms
    monkeypatch.setattr(eigensolve, "_quadrature_forms",
                        lambda kv, rule, n_el, coefficients, n, fields=1:
                        sums.append((n_el, n)) or forms(kv, rule, n_el, coefficients, n, fields))
    assert cli.main(["spectrum", "--method", "riga", "--p", "2", "--block", "7",
                     "--elements", "90", *points, "--out", str(tmp_path / "s.csv")]) == 0
    assert sums == [(90, 102)]


def test_gauss_budget_takes_the_solve_quadratic_forms(monkeypatch):
    # under the reference rule the forms the solve kept serve the budget: it
    # builds no column and forms nothing
    op = assemble_layout(BlockLayout.riga(200, 2, 20))
    spectrum = solve_gevp(op)
    expected = reference_budget(spectrum, op)
    builds = record_builds(monkeypatch)
    ranges, sums = _count_builds(monkeypatch, spectrum)
    budget = analysis.error_budget(spectrum, op)
    assert builds == [] and ranges == [] and sums == []
    assert_budgets_agree(budget, expected)


def test_gauss_budget_builds_only_the_blocks_of_a_tight_run(monkeypatch):
    # the localized columns of a tight run replaced their modes, and the solve
    # kept their forms: only the run's own columns are read again, for their
    # pair products, and nothing is formed
    op = assemble_layout(BlockLayout.riga(192, 2, 64))  # modes 193 and 194 tie
    spectrum = solve_gevp(op)
    n = spectrum.n_modes
    assert [(a, b) for a, b, _ in spectrum._runs] == [(n - 2, n)]
    expected = reference_budget(spectrum, op)
    monkeypatch.setattr(eigensolve, "_BLOCK_ENTRIES", 5 * n)  # blocks of 5 columns
    ranges, sums = _count_builds(monkeypatch, spectrum)
    budget = analysis.error_budget(spectrum, op)
    assert ranges == [(n - 2, n)]
    assert sums == []
    assert_budgets_agree(budget, expected)


@pytest.mark.parametrize("rule", _RULES, ids=lambda rule: rule.kind)
def test_the_budget_builds_no_column_outside_tight_runs(monkeypatch, rule):
    # under any rule the budget's forms are one block's sums, and those of a
    # tight run's localized columns, which the spectrum holds, are summed
    # over the whole mesh: only a tight run's columns are read, for their
    # pair products
    for layout in (BlockLayout.riga(200, 2, 20), BlockLayout.riga(192, 2, 64)):
        op = assemble_layout(layout, rule)
        spectrum = solve_gevp(op)
        runs = [(a, b) for a, b, _ in spectrum._runs]
        expected = reference_budget(spectrum, op)
        with monkeypatch.context() as patch:
            builds = record_builds(patch)
            ranges, sums = _count_builds(patch, spectrum)
            budget = analysis.error_budget(spectrum, op)
        assert ranges == runs and sum(builds) == sum(b - a for a, b in runs)
        # the Gauss forms of a solve under another rule: one block, then the runs
        block = [(layout.block_size, spectrum.n_modes)]
        assert sums == ([] if rule == _RULES[0] else block + [(layout.n_elements, b - a)
                                                             for a, b in runs])
        assert_budgets_agree(budget, expected)


# ---------------------------------------------------------------------------
# the values-only routes
# ---------------------------------------------------------------------------

@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(p=st.integers(1, 5), block=st.integers(1, 30), n_blocks=st.integers(2, 30))
@example(p=5, block=30, n_blocks=30)  # the first two blocks' patch drifts by 2e-13 here
@example(p=1, block=1, n_blocks=2)    # one dof
def test_block_fourier_values_match_the_banded_solve(p, block, n_blocks):
    op = assemble_layout(BlockLayout.riga(block * n_blocks, p, block))
    patch = _uniform_patch(op)
    assert patch is not None
    lam = _bloch_eigenvalues(*patch)
    ref = _band_eigenvalues(op.K, op.M)
    assert lam.size == op.n_dofs
    assert np.all(np.diff(lam) >= 0)
    assert np.max(np.abs(lam - ref)) <= 1e-13 * ref[-1]
    assert np.array_equal(solve_eigenvalues(op), lam)  # the route solve_eigenvalues takes


def assert_lowest_match_full(op, k):
    full = solve_eigenvalues(op)
    lowest = solve_eigenvalues(op, lowest=k)
    assert lowest.shape == (k,)
    assert np.max(np.abs(lowest - full[:k])) <= 1e-13 * full[-1]


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(n_elements=st.integers(1, 60), p=st.integers(1, 5), data=st.data(),
       bc=st.sampled_from(["dirichlet", "neumann"]))
def test_lowest_values_match_the_full_solve(n_elements, p, data, bc):
    block = data.draw(st.integers(1, n_elements))
    continuity = data.draw(st.integers(0, p - 1))
    layout = BlockLayout(n_elements, p, block, continuity, bc)
    assume(layout.n_dofs >= 1)
    assert_lowest_match_full(assemble_layout(layout), data.draw(st.integers(1, layout.n_dofs)))


@pytest.mark.parametrize("layout, k", [
    (BlockLayout.riga(40, 2, 10), 7),            # repeated blocks
    (BlockLayout.riga(40, 2, 7), 1),             # ragged
    (BlockLayout.iga(40, 3, bc="neumann"), 43),  # every mode
])
def test_lowest_values_on_each_route(layout, k):
    assert_lowest_match_full(assemble_layout(layout), k)


def test_lowest_must_be_a_mode_count():
    op = assemble_layout(BlockLayout.iga(10, 2))
    for k in (0, op.n_dofs + 1):
        with pytest.raises(ValueError, match="lowest must be between 1 and"):
            solve_eigenvalues(op, lowest=k)


def test_only_the_block_fourier_values_pass_the_size_limit(monkeypatch):
    # the block-Fourier route of both solvers forms no n x n array, so the
    # limit binds only the dense and banded routes
    monkeypatch.setattr(eigensolve, "DENSE_LIMIT", 50)
    repeated = assemble_layout(BlockLayout.riga(100, 2, 10))
    assert solve_eigenvalues(repeated).size == repeated.n_dofs == 109
    assert solve_gevp(repeated).n_modes == 109
    for layout in (BlockLayout.riga(100, 2, 7), BlockLayout.riga(100, 2, 10, bc="neumann")):
        op = assemble_layout(layout)
        for solve in (solve_eigenvalues, solve_gevp):
            with pytest.raises(ValueError, match="exceed the limit of 50"):
                solve(op)


@pytest.mark.parametrize("layout", [
    BlockLayout.riga(100, 2, 10), BlockLayout.riga(600, 3, 20), BlockLayout.fea(300, 3),
    BlockLayout.riga(240, 5, 30), BlockLayout.fea(2, 1),
], ids=lambda lay: f"{lay.n_elements}-{lay.p}-{lay.block_size}")
@pytest.mark.parametrize("entries", [1, 200, 5000])
def test_block_fourier_values_do_not_depend_on_the_chunk(monkeypatch, layout, entries):
    # one wavenumber per chunk (entries 1), a few, and a ragged last chunk
    patch = _uniform_patch(assemble_layout(layout))
    whole = _bloch_eigenvalues(*patch)
    monkeypatch.setattr(eigensolve, "_BLOCK_ENTRIES", entries)
    assert np.array_equal(_bloch_eigenvalues(*patch), whole)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(n=st.integers(1, 400), lo=st.integers(0, 400), entries=st.integers(1, 2000))
def test_column_blocks_cover_the_range(n, lo, entries):
    lo = min(lo, n)
    spectrum = eigensolve.Spectrum(np.zeros(n), None)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eigensolve, "_BLOCK_ENTRIES", entries)
        blocks = spectrum.blocks(lo)
    edges = [lo, *(b for _, b in blocks)]
    assert [a for a, _ in blocks] == edges[:-1] and edges[-1] == n
    sizes = [b - a for a, b in blocks]
    assert all(size >= 2 for size in sizes) or sizes == [1]
    assert max(sizes, default=0) <= max(2, entries // n) + 1


def record_band_solves(monkeypatch):
    """Record ``(size, lowest)`` of every banded solve, global or per block."""
    calls = []
    real = eigensolve._band_eigenvalues

    def recording(K, M, lowest=None):
        calls.append((K.n, lowest))
        return real(K, M, lowest)

    monkeypatch.setattr(eigensolve, "_band_eigenvalues", recording)
    monkeypatch.setattr(analysis, "_band_eigenvalues", recording)
    return calls


def test_leading_mode_error_solves_for_one_mode(monkeypatch):
    # no eigensolve locates the mode: no banded and no block-Fourier solve
    calls = record_band_solves(monkeypatch)
    real = eigensolve._bloch_eigenvalues
    monkeypatch.setattr(eigensolve, "_bloch_eigenvalues",
                        lambda *patch: calls.append("bloch") or real(*patch))
    analysis.leading_mode_error(BlockLayout.riga(800, 2, 10))
    analysis.leading_mode_error(BlockLayout.iga(200, 2))
    analysis.leading_mode_error(BlockLayout.iga(200, 2, bc="neumann"))
    assert calls == []


def test_stopbands_makes_no_full_range_global_solve(monkeypatch, tmp_path):
    calls = record_band_solves(monkeypatch)
    layout = BlockLayout.riga(800, 2, 10)
    cfg = cli.ExperimentConfig(method="riga", p=2, elements=800, block=10)
    assert cli.cmd_stopbands(cfg, str(tmp_path / "bands.csv")) == 0
    assert calls  # the bubble pencil of a block
    assert all(n < layout.n_dofs for n, _ in calls)
