"""Mass/stiffness assembly for the 1D Laplace eigenproblem and 2D tensor products.

Matrices are assembled element by element under a chosen quadrature and stored
in symmetric banded form (upper band, LAPACK layout).  Homogeneous Dirichlet
conditions are imposed strongly by eliminating the two boundary basis
functions.  Alongside the requested quadrature, reference operators are always
assembled with Gauss ``p + 1`` points, which integrates both the mass
(degree ``2p``) and stiffness (degree ``2p - 2``) integrands exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .quadrature import QuadratureSpec, Rule, gauss_rule, map_rule_to_element
from .splines import BlockLayout, KnotVector, make_block_knots, span_basis_rows

__all__ = [
    "NumericalError",
    "SingularMassError",
    "SymmetricBandedMatrix",
    "DiscreteOperator",
    "DiscreteOperator2D",
    "assemble_layout",
    "assemble_2d_tensor",
    "dump_matrix",
    "MAX_DOFS_2D",
]

MAX_DOFS_2D = 40_000


class NumericalError(RuntimeError):
    """A numerical failure that is reported rather than silently accepted."""


class SingularMassError(NumericalError):
    """Assembled mass matrix is not positive definite."""


@dataclass
class SymmetricBandedMatrix:
    """Symmetric matrix stored as its upper band.

    ``band[u + i - j, j]`` holds entry ``(i, j)`` for ``j - u <= i <= j``,
    the layout consumed by LAPACK banded routines.  Only the upper triangle
    is stored, so symmetry is structural.
    """

    band: np.ndarray  # shape (bandwidth + 1, n)

    @classmethod
    def zeros(cls, n: int, bandwidth: int) -> "SymmetricBandedMatrix":
        return cls(np.zeros((bandwidth + 1, n)))

    @property
    def n(self) -> int:
        return self.band.shape[1]

    @property
    def bandwidth(self) -> int:
        return self.band.shape[0] - 1

    def add_symmetric_block(self, first: int, block: np.ndarray) -> None:
        """Accumulate a dense symmetric block whose top-left corner is (first, first)."""
        u = self.bandwidth
        s = block.shape[0]
        for a in range(s):
            i = first + a
            for b in range(a, s):
                j = first + b
                self.band[u + i - j, j] += block[a, b]

    def entry(self, i: int, j: int) -> float:
        if i > j:
            i, j = j, i
        if j - i > self.bandwidth:
            return 0.0
        return float(self.band[self.bandwidth + i - j, j])

    def to_dense(self) -> np.ndarray:
        u, n = self.bandwidth, self.n
        out = np.zeros((n, n))
        for d in range(u + 1):
            diag = self.band[u - d, d:]
            idx = np.arange(n - d)
            out[idx, idx + d] = diag
            out[idx + d, idx] = diag
        return out

    def to_sparse(self) -> scipy.sparse.csr_matrix:
        u = self.bandwidth
        offsets = range(-u, u + 1)
        return scipy.sparse.diags([self.band[u - abs(k), abs(k):] for k in offsets],
                                  offsets, shape=(self.n, self.n), format="csr")

    def quadratic_forms(self, V: np.ndarray) -> np.ndarray:
        """``diag(V^T A V)``, one entry per column of ``V``, in O(n p) per column.

        ``A @ V`` is formed row by row from the band, then one dot product per
        column; summing diagonal by diagonal instead cancels badly on smooth
        columns.
        """
        return np.einsum("ij,ij->j", V, self.to_sparse() @ V)

    def restricted(self, keep: np.ndarray) -> "SymmetricBandedMatrix":
        """Submatrix on a contiguous index range (boundary elimination)."""
        keep = np.asarray(keep)
        if keep.size and not np.array_equal(keep, np.arange(keep[0], keep[-1] + 1)):
            raise ValueError("restriction must be a contiguous index range")
        u = self.bandwidth
        sub = self.band[:, keep].copy()
        for j in range(min(u, sub.shape[1])):
            sub[: u - j, j] = 0.0  # rows now above the matrix
        return SymmetricBandedMatrix(sub)

    def total_sum(self) -> float:
        u = self.band.shape[0] - 1
        total = float(self.band[u].sum())
        for d in range(1, u + 1):
            total += 2.0 * float(self.band[u - d, d:].sum())
        return total

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.to_sparse().sum(axis=1)).ravel()

    def is_positive_definite(self) -> bool:
        """Cholesky succeeds with every pivot above ``1e-12`` of the largest diagonal.

        A rank-deficient matrix (too few quadrature points) can factor with
        round-off pivots, so success of the factorization alone is not enough.
        """
        try:
            factor = scipy.linalg.cholesky_banded(self.band, lower=False)
        except scipy.linalg.LinAlgError:
            return False
        return bool((factor[-1] ** 2).min() >= 1e-12 * self.band[-1].max())


def dump_matrix(mat: SymmetricBandedMatrix) -> str:
    """Text dump of the stored band, one ``row col value`` line per entry (0-based)."""
    lines = []
    u = mat.bandwidth
    for j in range(mat.n):
        for i in range(max(0, j - u), j + 1):
            lines.append(f"{i} {j} {mat.band[u + i - j, j]:.17g}")
    return "\n".join(lines) + "\n"


def _assemble_pair(kv: KnotVector, rule: Rule) -> tuple[SymmetricBandedMatrix, SymmetricBandedMatrix]:
    p = kv.p
    M = SymmetricBandedMatrix.zeros(kv.n, p)
    K = SymmetricBandedMatrix.zeros(kv.n, p)
    for span, a, b in kv.spans():
        local = map_rule_to_element(rule, a, b)
        first, N, dN = span_basis_rows(kv, span, local.nodes, derivs=True)
        w = local.weights[:, None]
        M.add_symmetric_block(first, (N * w).T @ N)
        K.add_symmetric_block(first, (dN * w).T @ dN)
    return M, K


def _kept_indices(n: int, bc: str) -> np.ndarray:
    if bc == "dirichlet":
        if n < 3:
            raise ValueError("Dirichlet elimination leaves no degrees of freedom")
        return np.arange(1, n - 1)
    return np.arange(n)


@dataclass
class DiscreteOperator:
    """Assembled 1D operators with boundary conditions applied.

    ``M``/``K`` use the requested quadrature; ``M_exact``/``K_exact`` are the
    exact-order Gauss references used for error budgets.  ``dof_indices``
    maps reduced degrees of freedom back to basis indices of ``kv``.
    """

    kv: KnotVector
    layout: BlockLayout
    quadrature: QuadratureSpec
    M: SymmetricBandedMatrix
    K: SymmetricBandedMatrix
    M_exact: SymmetricBandedMatrix
    K_exact: SymmetricBandedMatrix
    dof_indices: np.ndarray

    @property
    def bc(self) -> str:
        return self.layout.bc

    @property
    def n_dofs(self) -> int:
        return self.M.n


def assemble_layout(layout: BlockLayout,
                    quadrature: QuadratureSpec | None = None) -> DiscreteOperator:
    """Assemble mass and stiffness operators on the layout's knot vector.

    Raises
    ------
    SingularMassError
        If the assembled mass matrix is not positive definite (possible for
        extreme non-convex blends or too few quadrature points).
    """
    kv = make_block_knots(layout)
    quadrature = quadrature or QuadratureSpec("gauss")
    p = kv.p

    rule = quadrature.reference_rule(p)
    M_full, K_full = _assemble_pair(kv, rule)
    exact_rule = gauss_rule(p + 1)
    if quadrature.kind == "gauss" and quadrature.n_points(p) == p + 1:
        Me_full, Ke_full = M_full, K_full
    else:
        Me_full, Ke_full = _assemble_pair(kv, exact_rule)

    keep = _kept_indices(kv.n, layout.bc)
    op = DiscreteOperator(
        kv=kv,
        layout=layout,
        quadrature=quadrature,
        M=M_full.restricted(keep),
        K=K_full.restricted(keep),
        M_exact=Me_full.restricted(keep),
        K_exact=Ke_full.restricted(keep),
        dof_indices=keep,
    )
    if not op.M.is_positive_definite():
        raise SingularMassError(
            f"mass matrix not positive definite under {quadrature.label()}"
        )
    return op


@dataclass
class DiscreteOperator2D:
    """Tensor-product operators on the unit square (same layout per direction)."""

    op1: DiscreteOperator
    M: scipy.sparse.csr_matrix
    K: scipy.sparse.csr_matrix

    @property
    def n_dofs(self) -> int:
        return self.M.shape[0]


def assemble_2d_tensor(op1: DiscreteOperator) -> DiscreteOperator2D:
    """Kronecker-product 2D operators: ``M2 = M (x) M``, ``K2 = K (x) M + M (x) K``."""
    n2 = op1.n_dofs ** 2
    if n2 > MAX_DOFS_2D:
        raise ValueError(
            f"2D problem has {n2} unknowns, above the cap {MAX_DOFS_2D}"
        )
    Ms = op1.M.to_sparse()
    Ks = op1.K.to_sparse()
    M2 = scipy.sparse.kron(Ms, Ms, format="csr")
    K2 = (scipy.sparse.kron(Ks, Ms) + scipy.sparse.kron(Ms, Ks)).tocsr()
    return DiscreteOperator2D(op1=op1, M=M2, K=K2)
