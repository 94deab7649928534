import numpy as np
import pytest
import scipy.linalg

from splinespectra import assembly
from splinespectra.assembly import (
    SingularMassError,
    SymmetricBandedMatrix,
    assemble_layout,
)
from splinespectra.quadrature import QuadratureSpec
from splinespectra.splines import BlockLayout

from oracles import (direct_2d_operators, eliminate_2d_dirichlet, kron_2d_operators,
                     reference_sparse)


def row_sums(mat):
    return np.asarray(mat.to_sparse().sum(axis=1)).ravel()


@pytest.mark.parametrize("entries", [1, 50])
@pytest.mark.parametrize("layout, quadrature", [
    (BlockLayout.riga(60, 3, 7), None),
    (BlockLayout.riga(40, 2, 10, bc="neumann"), QuadratureSpec("lobatto")),
    (BlockLayout.iga(25, 4, bc="neumann"), None),
    (BlockLayout.fea(30, 2), QuadratureSpec("blended", tau=0.5)),
])
def test_assembly_does_not_depend_on_the_chunk(monkeypatch, layout, quadrature, entries):
    # the chunks add their element blocks in element order: the same bits
    whole = assemble_layout(layout, quadrature)
    monkeypatch.setattr(assembly, "_ASSEMBLY_ENTRIES", entries)
    chunked = assemble_layout(layout, quadrature)
    assert np.array_equal(chunked.M.band, whole.M.band)
    assert np.array_equal(chunked.K.band, whole.K.band)


def test_linear_two_elements_dirichlet():
    # single interior hat of width 1/2: mass 1/3, stiffness 4
    op = assemble_layout(BlockLayout.fea(2, 1))
    assert np.allclose(op.M.to_dense(), [[1 / 3]], atol=1e-15)
    assert np.allclose(op.K.to_dense(), [[4.0]], atol=1e-13)


def test_mass_total_is_domain_measure():
    # Neumann keeps all functions; partition of unity integrates to 1
    op = assemble_layout(BlockLayout.iga(3, 2, bc="neumann"))
    assert assemble_layout(op.layout).M.to_sparse().sum() == pytest.approx(1.0, abs=1e-12)


def test_stiffness_rowsums_vanish_before_elimination():
    op = assemble_layout(BlockLayout.riga(12, 3, 4, bc="neumann"))
    assert np.max(np.abs(row_sums(op.K))) < 1e-12


@pytest.mark.parametrize("tau", [2 / 3, 1.0, 1.8])
def test_blended_stiffness_is_exact(tau):
    # stiffness integrand has degree 2p-2, integrated exactly by both
    # constituents with p+1 points, so any blend reproduces it
    op = assemble_layout(BlockLayout.riga(16, 2, 4),
                         QuadratureSpec("blended", tau=tau))
    assert np.max(np.abs(op.K.to_dense() - assemble_layout(op.layout).K.to_dense())) < 1e-12


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_gauss_default_matches_exact_reference(p):
    # the default is the error budget's exact reference: one more Gauss
    # point integrates both integrands no better
    op = assemble_layout(BlockLayout.iga(8, p))
    ref = assemble_layout(op.layout, QuadratureSpec("gauss", p + 2))
    assert np.max(np.abs(op.M.to_dense() - ref.M.to_dense())) < 1e-13
    assert np.max(np.abs(op.K.to_dense() - ref.K.to_dense())) < 1e-13


def test_lobatto_mass_differs_from_exact():
    op = assemble_layout(BlockLayout.iga(8, 2), QuadratureSpec("lobatto"))
    assert np.max(np.abs(op.M.to_dense() - assemble_layout(op.layout).M.to_dense())) > 1e-6


@pytest.mark.parametrize("layout", [
    BlockLayout.iga(10, 2), BlockLayout.riga(12, 3, 4), BlockLayout.fea(6, 4),
])
def test_bandwidth_bound_and_symmetry(layout):
    op = assemble_layout(layout)
    assert op.M.bandwidth <= layout.p
    dense = op.M.to_dense()
    assert np.array_equal(dense, dense.T)


def test_riga_separator_coupling_pattern():
    # quadratic blocks of ten: the separator row couples p neighbors on each
    # side while the adjacent bubbles do not couple across the separator
    layout = BlockLayout.riga(20, 2, 10)
    op = assemble_layout(layout)
    M = op.M.to_dense()
    kv = op.kv
    sep_basis = int(np.max(np.where(np.abs(kv.knots - 0.5) <= 1e-12))) - kv.p
    i = sep_basis - 1  # reduced index after Dirichlet strip
    for k in (1, 2):
        assert M[i, i - k] != 0.0
        assert M[i, i + k] != 0.0
    assert M[i - 1, i + 1] == 0.0
    assert M[i + 1, i - 1] == 0.0


def test_stiffness_positive_semidefinite_before_elimination():
    op = assemble_layout(BlockLayout.riga(10, 2, 5, bc="neumann"))
    w = scipy.linalg.eigvalsh(op.K.to_dense())
    assert w.min() >= -1e-10


def test_singular_mass_reported_for_extreme_blend():
    with pytest.raises(SingularMassError):
        assemble_layout(BlockLayout.iga(8, 2), QuadratureSpec("blended", tau=-60.0))


def test_rank_deficient_mass_rejected():
    # one Gauss point per quadratic element: rank 2 for 3 unknowns, yet the
    # banded Cholesky factorization succeeds with a round-off pivot
    with pytest.raises(SingularMassError):
        assemble_layout(BlockLayout.fea(2, 2), QuadratureSpec("gauss", 1))


def test_kron_2d_single_dof():
    op = assemble_layout(BlockLayout.fea(2, 1))
    M2, K2 = kron_2d_operators(op)
    assert np.allclose(M2.toarray(), [[1 / 9]])
    assert np.allclose(K2.toarray(), [[8 / 3]])
    lam = (K2.toarray() / M2.toarray())[0, 0]
    assert lam == pytest.approx(24.0)  # vs exact 2 pi^2 ~ 19.74


def test_kron_2d_dimension_and_cap():
    # the 2D cap is the CLI's (test_cli::test_library_input_errors_exit_2)
    op = assemble_layout(BlockLayout.iga(8, 2))
    M2, K2 = kron_2d_operators(op)
    assert M2.shape == K2.shape == (op.n_dofs ** 2, op.n_dofs ** 2)


def test_kron_matches_direct_2d_assembly():
    layout = BlockLayout.iga(6, 2)
    op = assemble_layout(layout)
    M2d, K2d = direct_2d_operators(op.kv, layout.p + 1)
    n1 = op.kv.n
    M2, K2 = kron_2d_operators(op)
    assert np.allclose(M2.toarray(), eliminate_2d_dirichlet(M2d, n1), atol=1e-14)
    assert np.allclose(K2.toarray(), eliminate_2d_dirichlet(K2d, n1), atol=1e-12)


def test_band_restriction_matches_dense_slice():
    rng = np.random.default_rng(4)
    n, u = 9, 2
    mat = SymmetricBandedMatrix.zeros(n, u)
    for j in range(n):
        for i in range(max(0, j - u), j + 1):
            mat.band[u + i - j, j] = rng.standard_normal()
    sub = mat.restricted(np.arange(1, n - 1))
    assert np.allclose(sub.to_dense(), mat.to_dense()[1:-1, 1:-1])
    with pytest.raises(ValueError):
        mat.restricted(np.array([0, 2, 4]))
    # the sparse form is built from the band, not from the dense matrix
    mats = [mat, sub]
    # iga(1, 3): a band of width 3 on a 2 x 2 matrix
    for layout in (BlockLayout.fea(5, 3), BlockLayout.iga(7, 2),
                   BlockLayout.riga(12, 3, 4), BlockLayout.iga(1, 3)):
        op = assemble_layout(layout)  # Dirichlet-restricted bands
        mats += [op.M, op.K]
    for m in mats:
        assert np.array_equal(m.to_sparse().toarray(), m.to_dense())
        assert np.allclose(row_sums(m), m.to_dense().sum(axis=1), atol=1e-14)
        # the same CSR arrays as scipy's diagonal constructor, zeros dropped,
        # so that sparse products and factorizations keep their bits
        got, want = m.to_sparse(), reference_sparse(m)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_dof_indices_track_eliminated_boundary():
    op = assemble_layout(BlockLayout.iga(6, 3))
    assert op.dof_indices[0] == 1
    assert op.dof_indices[-1] == op.kv.n - 2
    opn = assemble_layout(BlockLayout.iga(6, 3, bc="neumann"))
    assert opn.n_dofs == opn.kv.n
