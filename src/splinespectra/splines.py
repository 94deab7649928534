"""B-spline knot vectors and basis evaluation for variable-continuity meshes.

The three mesh families used throughout the package are built from a single
block layout abstraction:

* classical ``C^0`` finite elements -- every interior knot repeated ``p`` times
  (block size one),
* maximum-continuity isogeometric analysis -- all interior knots simple,
* refined isogeometric analysis (rIGA) -- ``C^{p-1}`` blocks of elements joined
  by lower-continuity separator knots of multiplicity ``p - c``.

All evaluation goes through :func:`span_basis_rows`, the Cox-de Boor
recursion for the ``p + 1`` functions active on a non-empty knot span.  It
takes one span index per point, so a whole grid (every quadrature point of a
mesh, every sample point) is evaluated in one call.  On a non-empty span the
value recursion never divides by zero; the derivative formula drops terms
over zero-length knot intervals (the ``0/0 := 0`` convention).  A field's
value (or slope) at each point, from its coefficients and such rows, is
one gather of the point's functions, :func:`_point_sums`.
The parametric domain is fixed to ``[0, 1]`` and doubles as the physical
domain (identity geometry map).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KnotVector",
    "BlockLayout",
    "make_block_knots",
]

_KNOT_TOL = 1e-12


@dataclass(frozen=True)
class KnotVector:
    """Non-decreasing knot sequence together with a polynomial degree.

    Parameters
    ----------
    p : int
        Polynomial degree, at least 1.
    knots : array_like
        Non-decreasing knot values.  Interior knots may be repeated up to
        multiplicity ``p``; an *open* knot vector repeats the first and last
        values ``p + 1`` times.

    Attributes
    ----------
    n : int
        Number of basis functions, ``len(knots) - p - 1``.
    """

    p: int
    knots: np.ndarray

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"degree must be >= 1, got {self.p}")
        knots = np.asarray(self.knots, dtype=float)
        object.__setattr__(self, "knots", knots)
        knots.flags.writeable = False
        if knots.ndim != 1 or knots.size < self.p + 2:
            raise ValueError("knot vector too short for the requested degree")
        if np.any(np.diff(knots) < 0):
            raise ValueError("knots must be non-decreasing")
        if self.n < 1:
            raise ValueError("knot vector defines an empty basis")
        values, mults = np.unique(knots, return_counts=True)
        bad = ((knots[0] + _KNOT_TOL < values) & (values < knots[-1] - _KNOT_TOL)
               & (mults > self.p))
        if bad.any():
            k = bad.argmax()  # the first one
            raise ValueError(
                f"interior knot {values[k]} has multiplicity {mults[k]} > degree {self.p}"
            )

    @property
    def n(self) -> int:
        """Dimension of the spanned spline space."""
        return len(self.knots) - self.p - 1

    def spans(self) -> np.ndarray:
        """Indices ``i`` of the non-empty knot spans ``[knots[i], knots[i + 1])``.

        Zero-width spans created by repeated knots carry no measure and are
        skipped.
        """
        k = self.knots
        idx = np.arange(self.p, len(k) - self.p - 1)
        return idx[k[idx + 1] > k[idx]]


@dataclass(frozen=True)
class BlockLayout:
    """Uniform mesh of ``n_elements`` split into blocks by separator knots.

    ``separator_continuity`` is the continuity ``c`` retained at each
    separator; separators then carry knot multiplicity ``p - c``.  Choosing
    ``c = p - 1`` (or a block covering the whole mesh) reproduces plain IGA,
    while ``block_size = 1`` with ``c = 0`` reproduces ``C^0`` finite
    elements.
    """

    n_elements: int
    p: int
    block_size: int
    separator_continuity: int = 0
    bc: str = "dirichlet"

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError("n_elements must be >= 1")
        if self.p < 1:
            raise ValueError("degree must be >= 1")
        if not 1 <= self.block_size <= self.n_elements:
            raise ValueError("block_size must lie in [1, n_elements]")
        c = self.separator_continuity
        if not 0 <= c <= self.p - 1:
            raise ValueError(
                f"separator continuity {c} outside [0, {self.p - 1}]"
            )
        if self.bc not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown boundary condition {self.bc!r}")

    @classmethod
    def iga(cls, n_elements: int, p: int, bc: str = "dirichlet") -> "BlockLayout":
        return cls(n_elements, p, block_size=n_elements,
                   separator_continuity=max(p - 1, 0) if p > 1 else 0, bc=bc)

    @classmethod
    def fea(cls, n_elements: int, p: int, bc: str = "dirichlet") -> "BlockLayout":
        return cls(n_elements, p, block_size=1, separator_continuity=0, bc=bc)

    @classmethod
    def riga(cls, n_elements: int, p: int, block_size: int,
             bc: str = "dirichlet") -> "BlockLayout":
        return cls(n_elements, p, block_size=block_size,
                   separator_continuity=0, bc=bc)

    @property
    def h(self) -> float:
        return 1.0 / self.n_elements

    @property
    def n_separators(self) -> int:
        return math.ceil(self.n_elements / self.block_size) - 1

    @property
    def bubble_counts(self) -> np.ndarray:
        """Bubble functions of each block, left to right, under ``C^0``
        separators and Dirichlet conditions: ``B + p - 2`` in a block of ``B``
        elements, the last block taking the remaining elements."""
        sizes = np.full(self.n_separators + 1, self.block_size)
        sizes[-1] = self.n_elements - self.block_size * self.n_separators
        return sizes + self.p - 2

    @property
    def dim_before_bc(self) -> int:
        c = self.separator_continuity
        return self.n_elements + self.p + (self.p - 1 - c) * self.n_separators

    @property
    def n_dofs(self) -> int:
        """Basis dimension after strong boundary-condition elimination."""
        if self.bc == "dirichlet":
            return self.dim_before_bc - 2
        return self.dim_before_bc


def make_block_knots(layout: BlockLayout) -> KnotVector:
    """Open uniform knot vector with separator knots of multiplicity ``p - c``.

    A separator follows every ``block_size``-th element; the last block
    absorbs the remainder when ``block_size`` does not divide ``n_elements``.
    """
    n, p, size = layout.n_elements, layout.p, layout.block_size
    mult = np.ones(n - 1, dtype=int)
    mult[size - 1::size] = p - layout.separator_continuity
    interior = np.repeat(np.arange(1, n) / n, mult)
    kv = KnotVector(p, np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)]))
    assert kv.n == layout.dim_before_bc
    return kv


def span_basis_rows(kv: KnotVector, span, xs: np.ndarray,
                    derivs: bool = False):
    """Values of the ``p + 1`` basis functions active on each point's span.

    ``span`` holds one non-empty span index per point of ``xs`` (a scalar
    applies to every point).  Each point is evaluated on the polynomial
    pieces attached to its span, which also yields correct one-sided values
    when a point sits exactly on the span boundary.  Returns ``(first, N)`` or
    ``(first, N, dN)`` where ``first = span - p`` is the index of the first
    active function and the arrays have shape ``(len(xs), p + 1)``.
    """
    t, p = kv.knots, kv.p
    span = np.asarray(span)
    xs = np.asarray(xs, dtype=float)
    m = xs.shape[0]
    N = np.zeros((m, p + 1))
    N[:, 0] = 1.0
    left = np.empty((m, p + 1))
    right = np.empty((m, p + 1))
    lower = None
    for j in range(1, p + 1):
        if derivs and j == p:
            lower = N[:, :p].copy()
        left[:, j] = xs - t[span + 1 - j]
        right[:, j] = t[span + j] - xs
        saved = np.zeros(m)
        for r in range(j):
            den = right[:, r + 1] + left[:, j - r]
            temp = N[:, r] / den
            N[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        N[:, j] = saved
    first = span - p
    if not derivs:
        return first, N
    # function first + r takes p / (t[i + p] - t[i]) times lower[:, r - 1]
    # and minus p / (t[i + p + 1] - t[i + 1]) times lower[:, r], i = first + r
    i = first[..., None] + np.arange(p + 1)
    dN = np.zeros((m, p + 1))
    dN[:, 1:] += _ratio(p, t[i + p] - t[i])[..., 1:] * lower
    dN[:, :p] -= _ratio(p, t[i + p + 1] - t[i + 1])[..., :p] * lower
    return first, N, dN


def _point_sums(C: np.ndarray, first: np.ndarray, B: np.ndarray, out: np.ndarray,
                term: np.ndarray) -> np.ndarray:
    """``out[x] = sum_a C[first[x] + a] B[x, a]`` for each point ``x``, a row
    of ``C`` per function and a column per field: the terms added in order,
    from ``a = 0``, with ``term`` (shaped as ``out``) holding each gather.
    Returns ``out``."""
    np.take(C, first, axis=0, out=out)
    out *= B[:, :1]
    for a in range(1, B.shape[1]):
        np.take(C, first + a, axis=0, out=term)
        term *= B[:, a:a + 1]
        out += term
    return out


def _ratio(p: int, den: np.ndarray) -> np.ndarray:
    """``p / den``, and 0 where the knot interval ``den`` is empty."""
    return np.divide(p, den, out=np.zeros(den.shape), where=den > 0.0)
