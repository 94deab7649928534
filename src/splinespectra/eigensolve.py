"""Full solution of the generalized eigenproblem ``K U = lambda M U``.

The pencil is symmetric with positive definite mass, so the solve reduces to
a standard symmetric eigendecomposition through a triangular factorization of
``M`` (handled by LAPACK inside :func:`scipy.linalg.eigh`).  All modes are
computed; eigenvectors are normalized against the assembled mass matrix and
signed so that the entry of largest magnitude in each column is positive.

A shifted inverse-iteration oracle provides an independent cross-check of
selected eigenpairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .assembly import DiscreteOperator, DiscreteOperator2D, NumericalError

__all__ = ["Spectrum", "OracleReport", "OracleDivergenceError", "solve_gevp", "oracle_check"]

DENSE_LIMIT = 6000
_ORACLE_TOL = 1e-9
_ORACLE_MAX_ITER = 200


class OracleDivergenceError(NumericalError):
    """Inverse iteration failed to settle on an eigenvalue."""


@dataclass
class Spectrum:
    """All eigenpairs, ascending; column ``j`` holds the coefficients of mode ``j + 1``."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size


def _dense(mat) -> np.ndarray:
    if scipy.sparse.issparse(mat):
        return mat.toarray()
    return mat.to_dense()


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    lead = np.abs(vectors).argmax(axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def solve_gevp(op: DiscreteOperator | DiscreteOperator2D) -> Spectrum:
    """Solve ``K U = lambda M U`` for the complete spectrum.

    Eigenvalues come back sorted ascending with matching eigenvector columns,
    mass-normalized (``v^T M v = 1``) against the assembled ``M``.
    """
    n = op.n_dofs
    if n > DENSE_LIMIT:
        raise ValueError(f"dense solve refused for dimension {n} > {DENSE_LIMIT}")
    K = _dense(op.K)
    M = _dense(op.M)
    try:
        w, v = scipy.linalg.eigh(K, M)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - guarded at assembly
        raise NumericalError(f"generalized eigensolve failed: {exc}") from exc
    return Spectrum(w, _fix_signs(v))


@dataclass
class OracleReport:
    mode_indices: list[int]
    deviations: np.ndarray
    max_deviation: float


def oracle_check(op, spectrum: Spectrum, mode_indices) -> OracleReport:
    """Re-derive selected eigenvalues by shifted inverse iteration.

    Each requested mode ``j`` (1-based) is recomputed from a random start at
    shift ``lambda_j (1 + 1e-6)``; the Rayleigh quotient must converge to the
    solver's eigenvalue within ``1e-9`` relative.  Degenerate clusters converge
    inside their invariant subspace, which still reproduces the eigenvalue.

    Raises
    ------
    OracleDivergenceError
        If the iteration does not settle for some mode.
    """
    K = _dense(op.K)
    M = _dense(op.M)
    rng = np.random.default_rng(0)
    deviations = []
    for j in mode_indices:
        lam = spectrum.eigenvalues[j - 1]
        shift = lam * (1.0 + 1e-6) if lam != 0.0 else 1e-6
        lu, piv = scipy.linalg.lu_factor(K - shift * M)
        x = rng.standard_normal(K.shape[0])
        rho_old = np.inf
        for _ in range(_ORACLE_MAX_ITER):
            y = scipy.linalg.lu_solve((lu, piv), M @ x)
            x = y / np.sqrt(y @ (M @ y))
            rho = (x @ (K @ x)) / (x @ (M @ x))
            if abs(rho - rho_old) <= 1e-13 * max(abs(rho), 1.0):
                break
            rho_old = rho
        else:
            raise OracleDivergenceError(f"inverse iteration stalled on mode {j}")
        deviations.append(abs(rho - lam) / max(abs(lam), 1e-300))
    deviations = np.array(deviations)
    report = OracleReport(list(mode_indices), deviations, float(deviations.max()))
    if report.max_deviation > _ORACLE_TOL:
        raise OracleDivergenceError(
            f"oracle deviation {report.max_deviation:.3e} exceeds {_ORACLE_TOL:.1e} "
            f"(suspect modes {report.mode_indices})"
        )
    return report
