"""The ctypes LAPACK bindings against scipy's wrappers, from each source:
numpy's own LAPACK and scipy's ``cython_lapack``, the library scipy's
wrappers call, whose results must match theirs bit for bit."""

import ctypes

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

from splinespectra import _lapack
from splinespectra.assembly import NumericalError, SymmetricBandedMatrix
from splinespectra.eigensolve import _band_eigenvalues

# numpy's LAPACK exports no such symbols on an Accelerate or MKL build: the
# library then takes scipy's, which every build has
SOURCES = {name: source for name, source in (("numpy", _lapack._numpy_source()),
                                             ("scipy", _lapack._scipy_source()))
           if source is not None}


@pytest.fixture(params=sorted(SOURCES))
def source(request):
    return SOURCES[request.param]


def assert_matches(source, got, want, rtol=1e-13):
    """Bit for bit from scipy's ``cython_lapack``, the LAPACK of scipy's
    wrappers.  numpy's LAPACK may be another build (OpenBLAS 0.3.31 against
    scipy's 0.3.30 with numpy 2.4 and scipy 1.17), whose Cholesky
    factorization of a 7 x 7 or 130 x 130 matrix and blocked pivoted QR of a
    300 x 200 one round differently: within ``rtol`` of the largest entry."""
    if source is SOURCES["scipy"]:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=rtol * np.abs(want).max(initial=0.0))


def spd(rng, n):
    A = rng.standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


def spd_band(rng, n, u):
    """The upper band of a random symmetric positive definite band matrix."""
    band = rng.standard_normal((u + 1, n))
    band[-1] = np.abs(band[-1]) + 2.0 * (u + 1)
    for d in range(1, u + 1):
        band[u - d, :d] = 0.0  # above the matrix
    return band


def test_the_source_is_numpys_lapack_where_it_exports_the_routines():
    preferred = SOURCES.get("numpy", SOURCES["scipy"])

    def addresses(source):
        return {name: ctypes.cast(call, ctypes.c_void_p).value
                for name, call in source._calls.items()}

    assert addresses(_lapack.lapack) == addresses(preferred)
    assert set(addresses(preferred)) == set(_lapack._CHARS)


@pytest.mark.parametrize("n", [1, 2, 7, 40, 130])
def test_dsygvd_is_scipys_eigh(source, n):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    A += A.T
    B = spd(rng, n)
    w_ref, V_ref = scipy.linalg.eigh(A, B)
    a, b = np.asfortranarray(A), np.asfortranarray(B)
    w, info = source.dsygvd(a, b)
    assert info == 0
    assert_matches(source, w, w_ref)
    assert_matches(source, a, V_ref, 1e-10)  # the vectors' error is eps / gap


def test_dsygvd_reports_a_mass_that_is_not_positive_definite(source):
    n = 6
    B = np.eye(n)
    B[3, 3] = -1.0
    w, info = source.dsygvd(np.asfortranarray(np.diag(np.arange(n, dtype=float))),
                            np.asfortranarray(B))
    assert info == n + 4  # the leading minor of order 4
    with pytest.raises(ValueError, match="infs or NaNs"):
        source.dsygvd(np.full((2, 2), np.nan, order="F"), np.eye(2, order="F"))


@pytest.mark.parametrize("sizes", [(79, 10), (3, 1), (5, 12), (0, 4), (2, 0)])
def test_dtrtri_is_scipys_on_each_factor(source, sizes):
    k, n = sizes
    A = np.random.default_rng(k + n).standard_normal((k, n, n))
    L = np.linalg.cholesky(A @ A.mT + n * np.eye(n))
    ref = np.empty_like(L)
    for i, factor in enumerate(L if L.size else ()):  # scipy refuses an empty matrix
        ref[i] = scipy.linalg.lapack.dtrtri(factor, lower=1)[0]
    got = source.dtrtri(L)
    assert got.flags.c_contiguous and got.shape == L.shape
    assert_matches(source, got, ref)


@pytest.mark.parametrize("shape", [(1, 1), (3, 40), (7, 300), (40, 300), (300, 200), (5, 3)])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("ties", [False, True])
def test_dgeqp3_is_scipys_pivoted_qr(source, shape, order, ties):
    rng = np.random.default_rng(shape[0] * shape[1])
    X = np.asarray(rng.standard_normal(shape), order=order)
    if ties:  # repeated columns: past the rank, round-off picks the pivots
        X[:, 1::7] = X[:, :1]
    kept = X.copy()
    R, pivots = scipy.linalg.qr(X, mode="r", pivoting=True)
    qr, got = source.dgeqp3(X)
    assert np.array_equal(X, kept)  # factored on a copy
    if ties and source is not SOURCES["scipy"]:
        # another build may pick other pivots among columns of nearly equal
        # residual norm; the factorization still reveals the rank
        assert np.array_equal(np.sort(got), np.arange(shape[1]))
        rank = np.linalg.matrix_rank(X)
        diagonal = np.abs(np.diagonal(qr))
        assert diagonal[:rank].min() > 1e-10 * diagonal[0] >= diagonal[rank:].max(initial=0.0)
        return
    assert np.array_equal(got, pivots)
    assert_matches(source, np.triu(qr), R)


@pytest.mark.parametrize("n, u", [(1, 0), (5, 1), (40, 2), (200, 3), (3, 5)])
def test_dpbtrf_is_scipys_cholesky_banded(source, n, u):
    band = spd_band(np.random.default_rng(n + u), n, u)
    factor, info = source.dpbtrf(band)
    assert info == 0
    assert_matches(source, factor, scipy.linalg.cholesky_banded(band))


def test_dpbtrf_reports_the_failing_minor(source):
    band = spd_band(np.random.default_rng(0), 12, 2)
    band[-1, 5] = -1.0
    assert source.dpbtrf(band)[1] == 6
    with pytest.raises(ValueError, match="infs or NaNs"):
        source.dpbtrf(np.full((2, 3), np.inf))


def test_a_band_that_is_not_positive_definite_is_refused():
    band = spd_band(np.random.default_rng(1), 30, 2)
    assert SymmetricBandedMatrix(band.copy()).is_positive_definite()
    band[-1, 17] = -band[-1, 17]
    assert not SymmetricBandedMatrix(band).is_positive_definite()


@pytest.mark.parametrize("n, u", [(1, 0), (6, 1), (50, 2), (300, 3)])
def test_dgbtrf_and_dgbtrs_are_scipys(source, n, u):
    rng = np.random.default_rng(n + u)
    ab = np.zeros((3 * u + 1, n), order="F")
    ab[u:] = rng.standard_normal((2 * u + 1, n))
    lu_ref, piv_ref, info_ref = scipy.linalg.lapack.dgbtrf(ab, u, u)
    lu = ab.copy(order="F")
    pivots, info = source.dgbtrf(lu, u, u)
    assert info == info_ref == 0
    assert_matches(source, lu, lu_ref)
    assert np.array_equal(pivots - 1, piv_ref)  # LAPACK's pivots count from 1
    solve = source.dgbtrs(lu, u, u, pivots)
    for _ in range(3):  # one conversion, several solves
        b = rng.standard_normal(n)
        want = scipy.linalg.lapack.dgbtrs(lu_ref, u, u, b, piv_ref)[0]
        assert_matches(source, solve(b.copy()), want, 1e-12)


def test_dgbtrf_reports_an_exactly_singular_band(source):
    ab = np.zeros((1, 3), order="F")
    ab[0] = [1.0, 0.0, 2.0]
    assert source.dgbtrf(ab, 0, 0)[1] == 2


@pytest.mark.parametrize("n, ka, kb", [(1, 0, 0), (1, 1, 1), (8, 1, 1), (60, 3, 2),
                                       (200, 2, 2), (30, 2, 0)])
def test_dsbgvx_from_each_source_gives_the_same_values(n, ka, kb):
    # scipy wraps no dsbgvx: its source calls the capsule of cython_lapack,
    # as the library did.  Both bands are overwritten: each call takes copies
    rng = np.random.default_rng(n)
    K = spd_band(rng, n, ka)
    M = spd_band(rng, n, kb)
    values = {name: source.dsbgvx(np.array(K, order="F"), np.array(M, order="F"))
              for name, source in SOURCES.items()}
    for w, info in values.values():
        assert info == 0
        assert_matches(SOURCES["numpy"], w, values["scipy"][0])
    dense = scipy.linalg.eigh(SymmetricBandedMatrix(K).to_dense(),
                              SymmetricBandedMatrix(M).to_dense(), eigvals_only=True)
    assert np.max(np.abs(values["scipy"][0] - dense)) <= 1e-12 * np.abs(dense).max()


def test_dsbgvx_reports_a_mass_that_is_not_positive_definite(source):
    n = 10
    K = spd_band(np.random.default_rng(2), n, 1)
    M = spd_band(np.random.default_rng(3), n, 1)
    M[-1, 4] = -5.0
    w, info = source.dsbgvx(np.array(K, order="F"), np.array(M, order="F"))
    assert info > n
    with pytest.raises(NumericalError, match="mass matrix not positive definite"):
        _band_eigenvalues(SymmetricBandedMatrix(K), SymmetricBandedMatrix(M))


def test_the_bindings_refuse_arrays_lapack_cannot_take(source):
    # LAPACK reads and writes its arrays in place, Fortran-ordered
    with pytest.raises(ValueError, match="Fortran-ordered float64"):
        source.dgbtrf(np.zeros((3, 4)), 1, 0)  # C-ordered
    with pytest.raises(ValueError, match="Fortran-ordered float64"):
        source.dsbgvx(np.ones((2, 3), order="F"), np.ones((2, 3), order="F", dtype=np.float32))
    with pytest.raises(ValueError, match="square matrices"):
        source.dsygvd(np.eye(3, order="F"), np.eye(2, order="F"))
    lu = np.ones((1, 3), order="F")
    pivots, _ = source.dgbtrf(lu, 0, 0)
    with pytest.raises(ValueError, match="3 entries"):
        source.dgbtrs(lu, 0, 0, pivots)(np.ones(4))
    L = np.ones((2, 1, 1))
    assert np.array_equal(source.dtrtri(L), L) and np.array_equal(L, np.ones((2, 1, 1)))
