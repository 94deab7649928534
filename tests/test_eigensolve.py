import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from hypothesis import assume, example, given, settings, strategies as st

from splinespectra import analysis, cli, eigensolve, quadrature
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
                     extended_block_quotients, grid_pair_inner, kron_2d_operators,
                     linear_fem_eigenvalue, oracle_check, reference_leading_mode_error,
                     reference_localized_runs, reference_polish_eigenvalue,
                     reference_quadrature_forms, whole_mesh_quotient)


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
    got = polish_eigenvalue(op, solve_eigenvalues(op)[0])
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


@pytest.mark.parametrize("layout", [BlockLayout.fea(32000, 1),
                                    BlockLayout.iga(32000, 1, bc="neumann")],
                         ids=["dirichlet", "neumann"])
def test_polish_is_right_to_two_roundings_on_a_fine_linear_mesh(layout):
    # the slopes in difference form leave the polished quotient within two
    # roundings of the closed form (1.6 and 0 eps here); the plain sum of
    # slope terms cancelled about log10(1 / h) digits at each point and read
    # 8.9 and 4.9 eps, and up to 30 and 45 eps over eight random starts
    want = (linear_fem_eigenvalue(1, layout.h) - math.pi ** 2) / math.pi ** 2
    assert abs(analysis.leading_mode_error(layout) - want) <= 2 * np.finfo(float).eps


def test_polished_value_does_not_depend_on_the_start(monkeypatch):
    # five starts, random and not, give one quotient to two roundings: 12
    # eps apart over as many random starts with the plain sum of slopes
    op = assemble_layout(BlockLayout.iga(20000, 2))
    n = op.n_dofs
    starts = [np.random.default_rng(seed).standard_normal(n) for seed in (0, 1, 2)]
    starts += [np.linspace(-1.0, 1.0, n) ** 3 + 0.5, eigensolve._polish_start(n)]
    values = []
    for x in starts:
        monkeypatch.setattr(eigensolve, "_polish_start", lambda n, x=x: x.copy())
        values.append(polish_eigenvalue(op, math.pi ** 2))
    assert max(values) - min(values) <= 2 * np.finfo(float).eps * min(values)


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
    raise DenseSolveCalled("dense eigensolve called")


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
            # of M-orthonormal bases: the Bloch columns, localized or not,
            # are M-orthonormal to about n_elements eps, since the bands
            # repeat only to that, and a norm 1 - 1.4e-14 alone reads 1.7e-7
            cross = m_orthonormal(U[:, run], M).T @ M @ m_orthonormal(V[:, run], M)
            cos_min = np.linalg.svd(cross, compute_uv=False).min()
            assert math.sqrt(max(0.0, 1.0 - cos_min ** 2)) <= 1e-7


def m_orthonormal(X, M):
    """The columns of ``X`` made ``M``-orthonormal, spanning the same space."""
    L = np.linalg.cholesky(X.T @ M @ X)
    return scipy.linalg.solve_triangular(L, X.T, lower=True).T


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
        patch.setattr(eigensolve, "_dense_eigenpairs", refuse_dense)
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
        patch.setattr(eigensolve, "_dense_eigenpairs", refuse_dense)
        with pytest.raises(DenseSolveCalled):
            solve_gevp(op)
    assert_matches_dense_oracle(op)


def test_bare_pencil_of_repeated_blocks_takes_the_dense_route(monkeypatch):
    op = assemble_layout(BlockLayout.riga(40, 3, 8))
    with monkeypatch.context() as patch:
        patch.setattr(eigensolve, "_dense_eigenpairs", refuse_dense)
        solve_gevp(op)
        with pytest.raises(DenseSolveCalled):
            solve_gevp(bare(op))
    a, b = solve_gevp(op), solve_gevp(bare(op))
    assert np.max(np.abs(a.eigenvalues - b.eigenvalues)) <= 1e-12 * b.eigenvalues[-1]


def test_bands_that_do_not_repeat_take_the_dense_route(monkeypatch):
    op = assemble_layout(BlockLayout.riga(40, 2, 8))
    op.M.band[-1, 20] *= 1.0 + 1e-9  # one block's mass no longer matches
    with monkeypatch.context() as patch:
        patch.setattr(eigensolve, "_dense_eigenpairs", refuse_dense)
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


@pytest.mark.parametrize("move", ["gauss-nodes", "gauss-weights", "stiffness", "mass"])
def test_a_one_ulp_move_leaves_every_sign(monkeypatch, move):
    # the dense route's mirror-odd modes are odd only to a few 1e-11 here:
    # with a sign tie of 1e-12, the weights moved up or a band moved by one
    # unit in the last place flipped the sign of one of them
    layout = BlockLayout.riga(60, 2, 10)
    U = solve_gevp(bare(assemble_layout(layout))).eigenvectors
    if move.startswith("gauss"):
        rule = quadrature.gauss_rule(layout.p + 1)
        nodes, weights = rule.nodes, rule.weights
        if move == "gauss-nodes":
            nodes = np.nextafter(nodes, 0.0)  # inwards, still symmetric
        else:
            weights = np.nextafter(weights, np.inf)
        monkeypatch.setattr(quadrature, "gauss_rule",
                            lambda n: quadrature.Rule(nodes, weights))
    op = assemble_layout(layout)
    if move == "stiffness":
        op.K.band[:] = np.nextafter(op.K.band, np.inf)
    elif move == "mass":
        op.M.band[:] = np.nextafter(op.M.band, 0.0)
    V = solve_gevp(bare(op)).eigenvectors
    assert np.all(np.sum(U * V, axis=0) > 0.0)


def test_low_modes_of_a_long_uniform_layout_are_accurate(monkeypatch):
    # the discretization error of mode j is (j pi h)^4 / 720 here: 8.5e-15 at
    # j = 1, some 50 units in the last place of lambda.  The dense solve
    # gives 4.1e-12, 4.9e-12 and 5.3e-12, quotients on the stored bands gave
    # -4.0e-12, -9.4e-13 and 3.9e-13, and the small pencils' own eigenvalues
    # lose the low modes to cancellation
    op = assemble_layout(BlockLayout.riga(2000, 2, 100))
    monkeypatch.setattr(eigensolve, "_dense_eigenpairs", refuse_dense)
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
    columns = eigensolve._BlochSpectrum.columns
    monkeypatch.setattr(eigensolve._BlochSpectrum, "columns",
                        lambda self, lo, hi: builds.append(hi - lo) or columns(self, lo, hi))
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
    # the bubble coefficients of the fields A and B are the mirror
    # combinations Qe y_e and Qo y_o: each entry one nonzero term, so the
    # slices give the products' bits.  The interfaces of a wave mode of
    # wavenumber theta are cos(theta / 2) X in A, and -sin(theta / 2) X
    # (left) and sin(theta / 2) X (right) in B; a band mode is A alone,
    # with no interface amplitude
    op = assemble_layout(layout)
    spectrum = solve_gevp(op)
    assert isinstance(spectrum, eigensolve._BlochSpectrum)
    _, _, Qe, Qo = eigensolve._folded_pencils(*_uniform_patch(op))
    m, me = Qe.shape
    n, n_b = spectrum.n_modes, spectrum._n_blocks
    for lo, hi in [(0, n), (n // 3, n - 1), (n - 2, n)]:
        # a tight run's factors are those of its class that meets the exact mode
        C, _ = spectrum.factors(lo, hi)
        assert C.shape == (m + 2, 2, hi - lo)
        tight = np.zeros(n, dtype=bool)
        for a, b, _ in spectrum._runs:
            tight[a:b] = True
        tight = tight[lo:hi]
        modes = spectrum._modes[lo:hi]
        band = modes >= spectrum._Y.shape[1]
        Y = spectrum._Y[:, np.where(band, 0, modes)]
        theta = (modes // (m + 1) + 1) * (math.pi / n_b)
        expected = np.empty_like(C)
        expected[1:-1, 0], expected[1:-1, 1] = Qe @ Y[:me], Qo @ Y[me:m]
        expected[0, 0] = expected[-1, 0] = np.cos(theta / 2) * Y[m]
        expected[-1, 1] = np.sin(theta / 2) * Y[m]
        expected[0, 1] = -expected[-1, 1]
        wave = ~band & ~tight
        bits = [a[:, :, wave].view(np.int64) for a in (C, expected)]
        assert np.array_equal(*bits)  # zeros keep their signs too
        assert not C[:, 1, band & ~tight].any()
        assert not C[[0, -1], 0][:, band & ~tight].any()


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
    # a tight run's pivots, its localized basis and its forms all come from
    # the factors: no column is built, the run's no more than the others
    builds = record_builds(monkeypatch)
    spectrum = solve_gevp(assemble_layout(layout))
    assert builds == []
    assert [b - a for a, b, _ in spectrum._runs] == ([built] if built else [])


@pytest.mark.parametrize("layout", [
    BlockLayout.riga(60, 2, 10), BlockLayout.riga(90, 3, 7), BlockLayout.iga(40, 5),
    BlockLayout.riga(30, 4, 10, "neumann"), BlockLayout.fea(20, 1),
], ids=["riga-p2", "riga-ragged", "iga-p5", "neumann-p4", "fea-p1"])
@pytest.mark.parametrize("rule", _RULES, ids=lambda rule: rule.kind)
def test_quadrature_forms_keep_the_bits_of_the_csr_products(layout, rule):
    # the gathered terms of each point are added in the order of the CSR
    # products they replace, whose bits the Gauss outputs of the CLI keep:
    # one column (the polished mode), a dense spectrum's columns over the
    # whole mesh, and a Bloch spectrum's two fields over one block
    op = assemble_layout(layout, rule)
    spectrum = solve_gevp(op)
    kv, dofs = op.kv, op.dof_indices
    for V in (spectrum.eigenvectors[:, :1], spectrum.eigenvectors):
        def coefficients(modes, V=V):
            C = np.zeros((kv.n, 1, modes.size))
            C[dofs, 0] = V[:, modes]
            return C
        got = eigensolve._quadrature_forms(kv, rule, kv.spans().size, coefficients, V.shape[1])
        want = reference_quadrature_forms(kv, rule, kv.spans().size, coefficients, V.shape[1])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    if isinstance(spectrum, eigensolve._BlochSpectrum):
        args = (kv, rule, layout.block_size, spectrum._block_coefficients, spectrum._n)
        got = eigensolve._quadrature_forms(*args, fields=2)
        assert np.array_equal(got.view(np.int64),
                              reference_quadrature_forms(*args, fields=2).view(np.int64))


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


@pytest.mark.parametrize("layout", [
    BlockLayout.riga(2000, 2, 100),  # a tight run of 19
    BlockLayout.riga(400, 3, 50),    # a tight run of 7
], ids=lambda lay: f"{lay.n_elements}-{lay.p}-{lay.block_size}")
def test_tight_run_columns_do_not_depend_on_the_block_size(monkeypatch, layout):
    # the columns are built a block of rows at a time, each row of a tight
    # run one product of its modes' row with G over the whole run: every
    # block size gives the same bits, signs of zeros included
    spectrum = solve_gevp(assemble_layout(layout))
    assert spectrum._runs
    n = spectrum.n_modes
    columns = []
    for entries in (1, 200, 5000, 1 << 20):
        monkeypatch.setattr(eigensolve, "_BLOCK_ENTRIES", entries)
        columns.append(spectrum.columns(0, n).view(np.uint64))
    for got in columns[1:]:
        assert np.array_equal(got, columns[0])


def test_gauss_budget_builds_only_the_blocks_of_a_tight_run(monkeypatch):
    # the localized columns of a tight run replaced their modes, and the solve
    # kept their forms; their pair products come from the factors of their
    # parts that meet their exact modes: no column is read, and nothing is
    # formed
    op = assemble_layout(BlockLayout.riga(192, 2, 64))  # modes 193 and 194 tie
    spectrum = solve_gevp(op)
    n = spectrum.n_modes
    assert [(a, b) for a, b, _ in spectrum._runs] == [(n - 2, n)]
    expected = reference_budget(spectrum, op)
    monkeypatch.setattr(eigensolve, "_BLOCK_ENTRIES", 5 * n)  # blocks of 5 columns
    ranges, sums = _count_builds(monkeypatch, spectrum)
    budget = analysis.error_budget(spectrum, op)
    assert ranges == []
    assert sums == []
    assert_budgets_agree(budget, expected)


@pytest.mark.parametrize("rule", _RULES, ids=lambda rule: rule.kind)
def test_the_budget_builds_no_column_outside_tight_runs(monkeypatch, rule):
    # under any rule the budget's forms are one block's sums, and those of a
    # tight run's localized columns follow from its modes' by their classes:
    # no column is read, a tight run's no more than the others
    for layout in (BlockLayout.riga(200, 2, 20), BlockLayout.riga(192, 2, 64)):
        op = assemble_layout(layout, rule)
        spectrum = solve_gevp(op)
        expected = reference_budget(spectrum, op)
        with monkeypatch.context() as patch:
            builds = record_builds(patch)
            ranges, sums = _count_builds(patch, spectrum)
            budget = analysis.error_budget(spectrum, op)
        assert ranges == [] and builds == []
        # the Gauss forms of a solve under another rule: one block
        block = [(layout.block_size, spectrum.n_modes)]
        assert sums == ([] if rule == _RULES[0] else block)
        assert_budgets_agree(budget, expected)


# ---------------------------------------------------------------------------
# tight runs from their Bloch factors
# ---------------------------------------------------------------------------



def built_runs(spectrum, op):
    """:func:`reference_localized_runs` of ``spectrum``: the pivoted QR over
    every row of the built columns and a Loewdin step on the stored mass."""
    every = np.arange(spectrum._n)
    return list(reference_localized_runs(
        spectrum.eigenvalues, lambda a, b: spectrum._rows(spectrum._modes[a:b])(every), op.M))


@settings(derandomize=True, deadline=None, database=None, max_examples=12)
@given(p=st.integers(2, 5), block=st.integers(64, 100), n_blocks=st.integers(2, 6))
@example(p=2, block=64, n_blocks=3)    # a run of two wave modes
@example(p=3, block=100, n_blocks=3)   # an odd band mode in a run
@example(p=4, block=60, n_blocks=10)   # band modes and runs of part of a branch
@example(p=3, block=80, n_blocks=4)    # a pick between two rows of equal norm
@example(p=2, block=100, n_blocks=20)  # the run of 19 of spectrum-riga
def test_tight_runs_from_the_factors_match_the_built_columns(p, block, n_blocks):
    # the pivots from the rows of large norm are those of the QR over every
    # row, and the localized columns agree within n eps (their Loewdin step
    # uses V^T M V = I, the reference the stored mass, which the Bloch
    # columns meet to about n_elements eps).  Two rows of equal norm, the
    # mirror images about a separator of a mode of p >= 3, tie: the two
    # factorizations round differently, and each may pick either, so where
    # the picks differ each row picked by one alone ties in norm with one
    # picked by the other alone, and the columns span the run.  Their forms
    # under every rule, summed from the modes' by classes, agree within
    # 1e-12 with the whole mesh's sums of the built columns; and the budget,
    # whose pair products take the run's columns from their factors, agrees
    # with that of the same spectrum held as one array within 5e-13 times
    # lambda_h / lambda, the scale of its form terms.  The whole mesh's sums
    # place a point near x to eps x, a part in about n_elements eps of an
    # element: on a column peaked at one separator that does not average
    # out, and the products of two modes of different classes sum to up to
    # 9e-14 of a square there, not to zero.  Measured: forms within 6.1e-13
    # (riga(2000, 2, 100)), the budget within 2.1e-12 where lambda_h /
    # lambda is 9.3 (riga(600, 4, 60))
    op = assemble_layout(BlockLayout.riga(block * n_blocks, p, block))
    spectrum = solve_gevp(op)
    assert isinstance(spectrum, eigensolve._BlochSpectrum)
    assume(spectrum._runs)
    eps = np.finfo(float).eps
    M = op.M.to_dense()
    reference = built_runs(spectrum, op)
    ours = list(eigensolve._localized_runs(
        spectrum.eigenvalues, lambda a, b: spectrum._rows(spectrum._modes[a:b])))
    assert [(lo, hi) for lo, hi, _, _ in ours] == [(lo, hi) for lo, hi, _, _ in reference]
    assert [(lo, hi) for lo, hi, _ in spectrum._runs] == [(lo, hi) for lo, hi, _, _ in ours]
    for (lo, hi, picked, G), (_, _, rows, W), (_, _, kept) in zip(ours, reference,
                                                                   spectrum._runs):
        np.testing.assert_array_equal(G, kept)
        got = spectrum.columns(lo, hi)
        if np.array_equal(picked, rows):
            W = W * eigensolve._signs(W)
            assert np.abs(got - W).max() <= op.n_dofs * eps * np.abs(W).max()
        else:
            V = spectrum._rows(spectrum._modes[lo:hi])(np.arange(spectrum._n))
            size = np.linalg.norm(V, axis=1)
            mine, theirs = np.setdiff1d(picked, rows), np.setdiff1d(rows, picked)
            assert np.abs(size[mine][:, None] / size[theirs] - 1.0).min(axis=1).max() <= 1e-12
            assert np.abs(got - W @ (W.T @ M @ got)).max() <= 1e-12 * np.abs(got).max()
        for rule in _RULES:
            want = np.array(whole_mesh_quotient(op, got, rule))
            np.testing.assert_allclose(spectrum.forms(rule)[:, lo:hi], want, rtol=1e-12,
                                       atol=0, err_msg=rule.label())
    got, expected = analysis.error_budget(spectrum, op), reference_budget(spectrum, op)
    scale = np.maximum(1.0, expected.lambda_h / expected.lambda_exact)
    for field in dataclasses.fields(got):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        if field.name in _EIGENVALUE_TERMS:
            np.testing.assert_array_equal(a, b, err_msg=field.name)
        else:
            assert np.all(np.abs(a - b) <= _BUDGET_ATOL * scale), field.name


@pytest.mark.parametrize("parallel", [1, 10], ids=["too-few", "unsettled"])
def test_localized_runs_factor_every_row_when_the_rows_of_large_norm_do_not_settle(parallel):
    # rows of large norm along one direction: one is fewer than the run's
    # three vectors, and of ten the second pivot's residual is far below half
    # the largest norm.  Either way every row is factored, as the route over
    # built columns does
    n, r = 2000, 3
    A = 0.01 * np.random.default_rng(parallel).standard_normal((n, r))
    A[:parallel, 0] += 10.0
    V = np.linalg.qr(A)[0]
    w = np.concatenate([np.arange(1.0, n - r + 1), np.full(r, float(n))])
    calls = []
    ours = list(eigensolve._localized_runs(
        w, lambda a, b: lambda rows: calls.append(rows.size) or V[rows]))
    reference = list(reference_localized_runs(w, lambda a, b: V, banded_diag(np.ones(n))))
    assert calls[0] == n and calls[-1] == n  # the norms, then every row
    (lo, hi, picked, G), (_, _, rows, W) = *ours, *reference
    assert (lo, hi) == (n - r, n)
    np.testing.assert_array_equal(picked, rows)
    np.testing.assert_allclose(V @ G, W, rtol=0, atol=1e-13)


def pair_table(op, V):
    """``(u_j, v_c)`` of every exact mode ``j = 1 .. n`` with every column of
    ``V``, one row per column, by the oracle's grid route."""
    js = np.arange(1, op.n_dofs + 1)
    out = np.empty((V.shape[1], js.size))
    for s in np.unique(analysis._required_subdivisions(js, op.layout.h)):
        cols = analysis._required_subdivisions(js, op.layout.h) == s
        for c in range(V.shape[1]):
            out[c, cols] = grid_pair_inner(op, np.repeat(V[:, c:c + 1], cols.sum(), axis=1),
                                           js[cols], s)
    return out


@pytest.mark.parametrize("layout", [BlockLayout.riga(300, 3, 100), BlockLayout.riga(600, 4, 60)],
                         ids=["p3", "p4"])
def test_a_mode_meets_only_the_exact_modes_of_its_class(layout):
    # extended oddly to [-1, 1], a mode is a Bloch wave of the 2 n_b-block
    # lattice of class q (k for a wave mode, 0 for an odd band mode, n_b for
    # an even one) and u_j one of class j mod 2 n_b: (u_j, v_c) vanishes
    # unless q = +-j.  Measured up to 1.0e-14 on the modes of these runs,
    # which include band modes, against up to 0.22 and 0.068 where the
    # classes meet
    op = assemble_layout(layout)
    spectrum = solve_gevp(op)
    n_b = spectrum._n_blocks
    modes = np.concatenate([spectrum._modes[a:b] for a, b, _ in spectrum._runs])
    classes = spectrum._classes(modes)
    assert {0, n_b} & set(classes.tolist())
    table = pair_table(op, spectrum._rows(modes)(np.arange(spectrum._n)))
    q = np.arange(1, op.n_dofs + 1) % (2 * n_b)
    meets = classes[:, None] == np.minimum(q, 2 * n_b - q)
    assert np.abs(table[~meets]).max() <= 2e-14
    assert np.abs(table[meets]).max(initial=0.0) > 0.05


@pytest.mark.parametrize("rule", _RULES, ids=lambda rule: rule.kind)
def test_the_point_gram_of_a_run_is_block_diagonal_by_class(rule):
    # under a mirror-symmetric rule the sums over the quadrature points of
    # the products of two modes of different classes vanish: measured up to
    # 7.5e-14 of the diagonal on the runs of riga(600, 4, 60)
    op = assemble_layout(BlockLayout.riga(600, 4, 60), rule)
    spectrum = solve_gevp(op)
    for lo, hi, _ in spectrum._runs:
        modes = spectrum._modes[lo:hi]
        V = spectrum._rows(modes)(np.arange(spectrum._n))
        pairs = [(a, b) for a in range(hi - lo) for b in range(a + 1, hi - lo)]
        plus = whole_mesh_quotient(op, np.stack([V[:, a] + V[:, b] for a, b in pairs], 1), rule)
        minus = whole_mesh_quotient(op, np.stack([V[:, a] - V[:, b] for a, b in pairs], 1), rule)
        diagonal = whole_mesh_quotient(op, V, rule)
        classes = spectrum._classes(modes)
        for form in range(2):
            cross = (plus[form] - minus[form]) / 4.0
            assert np.abs(cross).max() <= 1e-13 * diagonal[form].max()
            assert all(classes[a] != classes[b] for a, b in pairs)


def test_a_run_of_many_modes_per_class_takes_its_cross_terms(monkeypatch):
    # no solved run has two modes of one class, but the forms and the pair
    # products of any combination V G of modes follow from their factors:
    # here every mode of riga(60, 2, 10), 11 per wavenumber and 5 per band
    # class, under a random orthogonal G
    op = assemble_layout(BlockLayout.riga(60, 2, 10), QuadratureSpec("lobatto"))
    spectrum = solve_gevp(op)
    n = spectrum.n_modes
    G = np.linalg.qr(np.random.default_rng(5).standard_normal((n, n)))[0]
    spectrum._runs = [(0, n, G)]
    spectrum._forms.clear()
    V = spectrum.columns(0, n)
    W = spectrum._rows(spectrum._modes)(np.arange(spectrum._n)) @ G
    np.testing.assert_allclose(W * eigensolve._signs(W), V, rtol=0, atol=1e-13)
    for rule in _RULES:
        np.testing.assert_allclose(spectrum.forms(rule), whole_mesh_quotient(op, V, rule),
                                   rtol=1e-12, atol=0, err_msg=rule.label())
    js = np.arange(1, n + 1)
    subdivisions = analysis._required_subdivisions(js, op.layout.h)
    got = analysis._pair_products(spectrum, op, js, subdivisions, {})
    expected = np.empty(n)
    for s in np.unique(subdivisions):
        cols = subdivisions == s
        expected[cols] = grid_pair_inner(op, V[:, cols], js[cols], s)
    assert np.abs(np.abs(got) - np.abs(expected)).max() <= 1e-13


def traced_peak(stage):
    """``(result, peak)``: the result of ``stage()`` and the peak of the
    memory traced while it ran."""
    tracemalloc.start()
    try:
        return stage(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_factored_solve_and_budget_of_a_run_stay_on_the_factors(monkeypatch):
    # riga(8000, 2, 100) has a tight run of 79 separator outliers: neither the
    # solve nor the budget builds a column, sums forms over the whole mesh
    # or takes load moments of the whole mesh, and each holds at most 16 MB
    # of traced memory: 10.7 and 8.7 MB, where the route over built columns
    # and the stacks of every per-wavenumber pencil peaked at 43.8 and 21.1
    builds, whole = record_builds(monkeypatch), []
    mesh_forms, load_moments = eigensolve._mesh_forms, analysis._load_moments

    def moments(op, subdivisions, n_el, *rest):
        if n_el >= op.layout.n_elements:
            whole.append("moments")
        return load_moments(op, subdivisions, n_el, *rest)

    monkeypatch.setattr(eigensolve, "_mesh_forms",
                        lambda *args: whole.append("forms") or mesh_forms(*args))
    monkeypatch.setattr(analysis, "_load_moments", moments)
    op = assemble_layout(BlockLayout.riga(8000, 2, 100))
    spectrum, solve_peak = traced_peak(lambda: solve_gevp(op))
    budget, budget_peak = traced_peak(lambda: analysis.error_budget(spectrum, op))
    assert [b - a for a, b, _ in spectrum._runs] == [79]
    assert builds == [] and whole == []
    assert solve_peak < 16 * 2 ** 20 and budget_peak < 16 * 2 ** 20
    assert np.abs(budget.pythagoras_residual).max() < 1e-9


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


@pytest.mark.parametrize("layout", [
    BlockLayout.riga(100, 2, 10), BlockLayout.riga(600, 3, 20), BlockLayout.fea(300, 3),
    BlockLayout.riga(240, 5, 30), BlockLayout.riga(192, 2, 64),  # a tight run of two
    BlockLayout.riga(2000, 2, 100), BlockLayout.riga(600, 4, 60), BlockLayout.fea(2, 1),
    BlockLayout.riga(90, 3, 7), BlockLayout.iga(40, 5),  # the dense route
], ids=lambda lay: f"{lay.n_elements}-{lay.p}-{lay.block_size}")
@pytest.mark.parametrize("rule", [*_RULES[:2], QuadratureSpec("blended", tau=0.3)],
                         ids=lambda rule: rule.kind)
def test_block_fourier_forms_do_not_depend_on_the_chunk(monkeypatch, layout, rule):
    # the point gathers reuse their buffers for every chunk of modes, the
    # last one narrower: one mode per chunk (entries 1), a few, and a ragged
    # last chunk give the eigenvalues and the forms of the default chunks.
    # Each element's points are added in one order at every width, so on
    # the dense route, too, the forms of one column alone (the polish's
    # width) are those of the whole array
    op = assemble_layout(layout, rule)
    uniform = layout.n_elements % layout.block_size == 0 \
        and layout.n_elements >= 2 * layout.block_size

    def solve():
        spectrum = solve_gevp(op)
        assert isinstance(spectrum, eigensolve._BlochSpectrum) == uniform
        return [spectrum.eigenvalues, *(spectrum.forms(r) for r in (rule, *_RULES[:2]))]

    whole = solve()
    if not uniform:
        V = solve_gevp(op).eigenvectors
        for r in (rule, *_RULES[:2]):
            forms = eigensolve._mesh_forms(op.kv, op.dof_indices, r, V)
            for j in range(V.shape[1]):
                one = eigensolve._mesh_forms(op.kv, op.dof_indices, r, V[:, j:j + 1])
                assert np.array_equal(one[:, 0], forms[:, j]), j
    for entries in (1, 200, 5000):
        with monkeypatch.context() as patch:
            patch.setattr(eigensolve, "_BLOCK_ENTRIES", entries)
            got = solve()
        for a, b in zip(got, whole):
            assert np.array_equal(a, b), entries


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
    """Record the size of every banded solve, global or per block."""
    calls = []
    real = eigensolve._band_eigenvalues

    def recording(K, M):
        calls.append(K.n)
        return real(K, M)

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
    assert all(n < layout.n_dofs for n in calls)
