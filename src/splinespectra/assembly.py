"""Mass/stiffness assembly for the 1D Laplace eigenproblem.

Matrices are assembled from per-element blocks under a chosen quadrature and
stored in symmetric banded form (upper band, LAPACK layout).  Homogeneous
Dirichlet conditions are imposed strongly by eliminating the two boundary
basis functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import lapack
from .quadrature import QuadratureSpec, Rule, map_rule_to_element
from .splines import BlockLayout, KnotVector, make_block_knots, span_basis_rows

__all__ = [
    "NumericalError",
    "SingularMassError",
    "SymmetricBandedMatrix",
    "DiscreteOperator",
    "assemble_layout",
]


# basis values (point x function) per chunk of elements in assembly: a few MB
# of temporaries, whatever the mesh
_ASSEMBLY_ENTRIES = 1 << 16


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

    def add_symmetric_block(self, first: np.ndarray, blocks: np.ndarray) -> None:
        """Accumulate symmetric blocks, block ``e`` at ``(first[e], first[e])``,
        in the order given (each band entry sums in that order)."""
        u = self.bandwidth
        a, b = np.triu_indices(blocks.shape[1])
        cols = np.asarray(first)[:, None] + b
        np.add.at(self.band, (u + a - b, cols), blocks[:, a, b])

    def to_dense(self) -> np.ndarray:
        u, n = self.bandwidth, self.n
        out = np.zeros((n, n))
        for d in range(u + 1):
            diag = self.band[u - d, d:]
            idx = np.arange(n - d)
            out[idx, idx + d] = diag
            out[idx + d, idx] = diag
        return out

    def to_sparse(self):
        """CSR form (a ``scipy.sparse.csr_matrix``): each row's nonzero band
        entries, in column order.  No CLI path calls it, so scipy is imported
        here, not with the package; the benchmark's trace binds it by name."""
        import scipy.sparse

        u, n = self.bandwidth, self.n
        # a band wider than the matrix (one element of high degree) stores
        # diagonals that lie wholly outside it
        w = min(u, n - 1)
        i = np.repeat(np.arange(n), 2 * w + 1)
        j = i + np.tile(np.arange(-w, w + 1), n)
        i, j = i[(j >= 0) & (j < n)], j[(j >= 0) & (j < n)]
        values = self.band[u - np.abs(j - i), np.maximum(i, j)]
        nonzero = values != 0.0
        indptr = np.concatenate([[0], np.cumsum(np.bincount(i[nonzero], minlength=n))])
        return scipy.sparse.csr_matrix((values[nonzero], j[nonzero], indptr), (n, n))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """The product ``A x`` with a vector, one stored diagonal at a time:
        O(n u)."""
        u, n = self.bandwidth, self.n
        y = self.band[u] * x
        for d in range(1, min(u, n - 1) + 1):
            diag = self.band[u - d, d:]
            y[:-d] += diag * x[d:]
            y[d:] += diag * x[:-d]
        return y

    def restricted(self, keep: np.ndarray) -> "SymmetricBandedMatrix":
        """Submatrix on a contiguous index range: kept dofs, a bubble block or a patch window."""
        keep = np.asarray(keep)
        if np.any(np.diff(keep) != 1):
            raise ValueError("restriction must be a contiguous index range")
        u = self.bandwidth
        sub = self.band[:, keep].copy()
        for j in range(min(u, sub.shape[1])):
            sub[: u - j, j] = 0.0  # rows now above the matrix
        return SymmetricBandedMatrix(sub)

    def is_positive_definite(self) -> bool:
        """Cholesky succeeds with every pivot above ``1e-12`` of the largest diagonal.

        A rank-deficient matrix (too few quadrature points) can factor with
        round-off pivots, so success of the factorization alone is not enough.
        """
        factor, info = lapack.dpbtrf(self.band)
        if info:
            return False
        return bool((factor[-1] ** 2).min() >= 1e-12 * self.band[-1].max())


def _assemble_pair(kv: KnotVector, rule: Rule) -> tuple[SymmetricBandedMatrix, SymmetricBandedMatrix]:
    """Mass and stiffness from one basis evaluation and one batched product
    per matrix for each chunk of elements.

    A chunk holds at most about ``_ASSEMBLY_ENTRIES`` basis values, so memory
    does not grow with the mesh beyond the bands.  The chunks add their
    blocks in element order, so each band entry sums in that order whatever
    the chunk size."""
    p, spans = kv.p, kv.spans()
    M, K = SymmetricBandedMatrix.zeros(kv.n, p), SymmetricBandedMatrix.zeros(kv.n, p)
    chunk = max(1, _ASSEMBLY_ENTRIES // (rule.nodes.size * (p + 1)))
    for lo in range(0, spans.size, chunk):
        part = spans[lo:lo + chunk]
        nodes, weights = map_rule_to_element(rule, kv.knots[part], kv.knots[part + 1])
        _, N, dN = span_basis_rows(kv, np.repeat(part, rule.nodes.size), nodes.ravel(),
                                   derivs=True)
        w = weights[:, :, None]
        for mat, rows in ((M, N), (K, dN)):
            B = rows.reshape(*nodes.shape, p + 1)  # element, point, function
            mat.add_symmetric_block(part - p, (B * w).transpose(0, 2, 1) @ B)
    return M, K


def _reduced_indices(n: int, bc: str) -> np.ndarray:
    if bc == "dirichlet":
        if n < 3:
            raise ValueError("Dirichlet elimination leaves no degrees of freedom")
        return np.arange(1, n - 1)
    return np.arange(n)


@dataclass
class DiscreteOperator:
    """Assembled 1D operators with boundary conditions applied.

    ``M``/``K`` use the requested ``quadrature``.  ``dof_indices`` maps
    reduced degrees of freedom back to basis indices of ``kv``.
    """

    kv: KnotVector
    layout: BlockLayout
    quadrature: QuadratureSpec
    M: SymmetricBandedMatrix
    K: SymmetricBandedMatrix
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
    M_full, K_full = _assemble_pair(kv, quadrature.reference_rule(kv.p))
    keep = _reduced_indices(kv.n, layout.bc)
    op = DiscreteOperator(
        kv=kv,
        layout=layout,
        quadrature=quadrature,
        M=M_full.restricted(keep),
        K=K_full.restricted(keep),
        dof_indices=keep,
    )
    if not op.M.is_positive_definite():
        raise SingularMassError(
            f"mass matrix not positive definite under {quadrature.label()}"
        )
    return op
