"""Solution of the generalized eigenproblem ``K U = lambda M U``.

The pencil is symmetric with positive definite mass.  There are two paths,
one per kind of result:

- :func:`solve_gevp` computes every eigenpair with a dense
  :func:`scipy.linalg.eigh` (a triangular factorization of ``M`` reduces the
  pencil to a standard symmetric problem).  Eigenvectors are normalized
  against the assembled mass matrix and signed so that the entry of largest
  magnitude in each column is positive.
- :func:`solve_eigenvalues` computes every eigenvalue and no eigenvector,
  straight from the stored upper bands, with LAPACK ``dsbgvd`` (split
  Cholesky factorization of ``M``, band reduction to tridiagonal form, and a
  tridiagonal solve): O(n^2 p) time and O(n p) memory, against O(n^3) time
  and two n x n copies for the dense path.

Both are backward stable, so an eigenvalue is accurate to about
``n eps lambda_max`` in absolute terms, not relative to itself; on fine
meshes that noise swamps the discretization error of the lowest modes.
:func:`polish_eigenvalue` removes it for one chosen mode: shifted inverse
iteration gives the mode's eigenvector, and its Rayleigh quotient has an
error quadratic in the eigenvector's.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.cython_lapack
import scipy.sparse.linalg

from .assembly import DiscreteOperator, NumericalError, SymmetricBandedMatrix

__all__ = ["Spectrum", "solve_gevp", "solve_eigenvalues", "polish_eigenvalue"]

DENSE_LIMIT = 6000
# relative offset of the inverse-iteration shift below the estimate, and the
# step count: each step shrinks the other modes' share by about the ratio of
# the offset to the relative gap between neighbouring eigenvalues
_POLISH_SHIFT = 1e-8
_POLISH_STEPS = 3


@dataclass
class Spectrum:
    """All eigenpairs, ascending; column ``j`` holds the coefficients of mode ``j + 1``."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns in place so each one's largest-magnitude entry is positive."""
    lead = np.abs(vectors).argmax(axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    vectors *= signs
    return vectors


def _check_size(n: int) -> None:
    if n > DENSE_LIMIT:
        raise ValueError(f"eigensolve refused: {n} dofs exceed the limit of {DENSE_LIMIT}")


def solve_gevp(op: DiscreteOperator) -> Spectrum:
    """Solve ``K U = lambda M U`` for the complete spectrum.

    Eigenvalues come back sorted ascending with matching eigenvector columns,
    mass-normalized (``v^T M v = 1``) against the assembled ``M``.
    """
    n = op.n_dofs
    _check_size(n)
    K = op.K.to_dense()
    M = op.M.to_dense()
    try:
        # K and M are fresh and exactly symmetric: their transposes are
        # Fortran-ordered views that LAPACK may overwrite without a copy
        w, v = scipy.linalg.eigh(K.T, M.T, overwrite_a=True, overwrite_b=True)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - guarded at assembly
        raise NumericalError(f"generalized eigensolve failed: {exc}") from exc
    return Spectrum(w, _fix_signs(v))


def _bind_dsbgvd():
    """LAPACK ``dsbgvd`` from scipy's own LAPACK, which ``scipy.linalg.lapack``
    does not wrap; ``cython_lapack`` exports it as a C function pointer."""
    capsule = scipy.linalg.cython_lapack.__pyx_capi__["dsbgvd"]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    address = get_pointer(capsule, get_name(capsule))
    char, int_ = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int)
    farray = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS,WRITEABLE")
    iarray = np.ctypeslib.ndpointer(np.intc, flags="C_CONTIGUOUS,WRITEABLE")
    # jobz, uplo, n, ka, kb, ab, ldab, bb, ldbb, w, z, ldz,
    # work, lwork, iwork, liwork, info
    proto = ctypes.CFUNCTYPE(None, char, char, int_, int_, int_, farray, int_,
                             farray, int_, farray, farray, int_,
                             farray, int_, iarray, int_, int_)
    return proto(address)


_dsbgvd = _bind_dsbgvd()


def solve_eigenvalues(op: DiscreteOperator) -> np.ndarray:
    """All eigenvalues of the 1D pencil ``K u = lambda M u``, ascending.

    Reads the stored upper bands of ``op.K`` and ``op.M`` and forms no
    eigenvector and no dense matrix.  The values agree with
    ``solve_gevp(op).eigenvalues`` to round-off, about ``1e-14 lambda_max``.

    Raises
    ------
    ValueError
        If the dimension exceeds ``DENSE_LIMIT`` (the same limit as
        :func:`solve_gevp`) or a band holds an infinity or NaN.
    NumericalError
        If LAPACK reports a failure: ``M`` is not positive definite, or the
        tridiagonal solve did not converge.
    """
    _check_size(op.n_dofs)  # before the bands are read
    return _band_eigenvalues(op.K, op.M)


def _band_eigenvalues(K: SymmetricBandedMatrix, M: SymmetricBandedMatrix) -> np.ndarray:
    """:func:`solve_eigenvalues` of the banded pencil ``(K, M)``."""
    n = K.n
    _check_size(n)
    if not (np.isfinite(K.band).all() and np.isfinite(M.band).all()):
        raise ValueError("array must not contain infs or NaNs")
    ka, kb = K.bandwidth, M.bandwidth
    # dsbgvd overwrites both bands: hand it Fortran-ordered copies
    ab = np.array(K.band, order="F")
    bb = np.array(M.band, order="F")
    w = np.empty(n, order="F")
    z = np.empty(1, order="F")  # not referenced without eigenvectors
    work = np.empty(max(1, 2 * n), order="F")
    iwork = np.empty(1, dtype=np.intc)
    info = ctypes.c_int(0)

    def ref(value: int):
        return ctypes.byref(ctypes.c_int(value))

    _dsbgvd(b"N", b"U", ref(n), ref(ka), ref(kb), ab, ref(ka + 1), bb, ref(kb + 1),
            w, z, ref(1), work, ref(work.size), iwork, ref(iwork.size),
            ctypes.byref(info))
    if info.value != 0:
        cause = ("mass matrix not positive definite" if info.value > n
                 else "no convergence" if info.value > 0 else "bad argument")
        raise NumericalError(
            f"banded eigensolve failed: {cause} (LAPACK dsbgvd info {info.value})")
    return w


def polish_eigenvalue(op: DiscreteOperator, estimate: float) -> float:
    """The eigenvalue nearest ``estimate``, as the Rayleigh quotient of its mode.

    A few steps of inverse iteration at the shift
    ``sigma = estimate (1 - 1e-8)``, with one sparse LU factorization of
    ``K - sigma M``, give the eigenvector ``v``; the result is
    ``v^T K v / v^T M v`` from the stored bands.  The quotient's error is
    quadratic in the eigenvector's, so it is free of the absolute round-off
    ``n eps lambda_max`` that a full solve leaves on every eigenvalue.  The
    start is a fixed random vector, not the constant vector, which under
    Neumann conditions is the zero mode itself.

    Raises
    ------
    NumericalError
        If ``K - sigma M`` is singular or the iteration breaks down.
    """
    sigma = estimate * (1.0 - _POLISH_SHIFT)
    Ms = op.M.to_sparse()
    try:
        lu = scipy.sparse.linalg.splu((op.K.to_sparse() - sigma * Ms).tocsc(),
                                      permc_spec="NATURAL")
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise NumericalError(f"shifted factorization at {sigma:.17g} failed: {exc}") from exc
    x = np.random.default_rng(0).standard_normal(op.n_dofs)
    for _ in range(_POLISH_STEPS):
        y = lu.solve(Ms @ x)
        scale = np.abs(y).max()
        if not (np.isfinite(scale) and scale > 0.0):
            raise NumericalError(f"inverse iteration at {sigma:.17g} broke down")
        x = y / scale
    V = x[:, None]
    return float(op.K.quadratic_forms(V)[0] / op.M.quadratic_forms(V)[0])
