"""Gauss-Legendre, Gauss-Lobatto, and blended quadrature rules.

Rules live on the reference interval ``[-1, 1]`` and are mapped affinely onto
mesh elements.  A blended rule combines Gauss and Lobatto with a parameter
``tau`` (the Lobatto fraction): ``tau = 0`` is plain Gauss, ``tau = 1`` plain
Lobatto, and values outside ``[0, 1]`` give non-convex blends.

Gauss and Lobatto rules are computed once per point count and cached: a
:class:`Rule` is frozen and its arrays are read-only, so every caller can
share one.  Both are computed here with numpy alone, the Gauss rule bit for
bit as ``numpy.polynomial.legendre.leggauss`` computes it, so the package
does not import ``numpy.polynomial``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Rule",
    "QuadratureSpec",
    "gauss_rule",
    "lobatto_rule",
    "blended_rule",
    "map_rule_to_element",
]

MAX_POINTS = 32
# Newton steps after the eigenvalues, which are right to a few units in the
# last place: each step squares the error
_NEWTON_STEPS = 2


@dataclass(frozen=True)
class Rule:
    """Nodes and weights on the reference interval ``[-1, 1]``."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        nodes.flags.writeable = False
        weights.flags.writeable = False
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1d arrays of equal length")


def _symmetrized(nodes: np.ndarray, weights: np.ndarray) -> Rule:
    # enforce exact symmetry about 0 (kills last-bit asymmetry of the solvers)
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    return Rule(nodes, weights)


@functools.cache
def gauss_rule(n_points: int) -> Rule:
    """Gauss-Legendre rule, exact for polynomials of degree ``2 n - 1``.

    The nodes and weights are those of numpy's ``leggauss``, bit for bit,
    from the same steps (:func:`_leggauss`), so the package needs no
    ``numpy.polynomial``."""
    if not 1 <= n_points <= MAX_POINTS:
        raise ValueError(f"unsupported Gauss order {n_points}")
    return _symmetrized(*_leggauss(n_points))


def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ``leggauss(n)``, step for step: the eigenvalues of the scaled
    companion matrix of ``P_n``, one Newton step, and weights ``1 / (P_{n-1}
    P_n')`` from the slopes before that step, scaled, symmetrized and
    normalized to a sum of 2.  Any other route to the same rule differs in
    the last bits, and moves every output by rounding."""
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:n - 1] * scl[1:n]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    c = np.zeros(n + 1)  # P_n as a Legendre series
    c[n] = 1.0
    # the series of P_n', as legder gives it: 2 k + 1 at k = n - 1, n - 3, ..
    k = np.arange(n)
    slope = np.where((n - 1 - k) % 2 == 0, 2.0 * k + 1.0, 0.0)
    dy = _clenshaw(x, c)
    df = _clenshaw(x, slope)
    x = x - dy / df
    fm = _clenshaw(x, c[1:])  # P_{n-1}
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


def _clenshaw(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The Legendre series ``sum_k c_k P_k(x)`` by numpy's ``legval``
    recurrence, term for term."""
    if len(c) == 1:
        return c[0] + 0 * x
    c0, c1 = c[-2], c[-1]
    nd = len(c)
    for i in range(3, len(c) + 1):
        nd -= 1
        c0, c1 = c[-i] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@functools.cache
def lobatto_rule(n_points: int) -> Rule:
    """Gauss-Lobatto rule with endpoint nodes, exact to degree ``2 n - 3``.

    Interior nodes are the roots of ``P'_{n-1}``, a Jacobi(1, 1) polynomial:
    the eigenvalues of its Jacobi matrix (Golub-Welsch), polished by Newton
    steps on ``P'_{n-1}``.  Weights follow the classical formula ``2 / (n (n
    - 1) P_{n-1}(x)^2)``, with ``P_{n-1}`` from the three-term recurrence,
    which is exact at the nodes ``0`` and ``+-1``.
    """
    if not 2 <= n_points <= MAX_POINTS:
        raise ValueError(f"unsupported Lobatto order {n_points}")
    n = n_points
    nodes = np.concatenate([[-1.0], _jacobi_roots(n - 2), [1.0]])
    nodes = 0.5 * (nodes - nodes[::-1])  # exactly symmetric about 0
    weights = 2.0 / (n * (n - 1) * _legendre(n - 1, nodes)[0] ** 2)
    return _symmetrized(nodes, weights)


def _jacobi_roots(degree: int) -> np.ndarray:
    """The roots of the Jacobi(1, 1) polynomial of ``degree``, which are those
    of ``P'_{degree + 1}``, ascending: the eigenvalues of the symmetric
    tridiagonal matrix of its monic recurrence (zero diagonal), then Newton
    steps on ``P'_{degree + 1}``, whose derivative follows from the Legendre
    equation."""
    k = np.arange(1, degree)
    off = np.sqrt(k * (k + 2) / ((2 * k + 1) * (2 * k + 3)))
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1)) if degree else np.empty(0)
    n = degree + 1
    for _ in range(_NEWTON_STEPS):
        P, lower = _legendre(n, x)
        slope = n * (lower - x * P) / (1.0 - x ** 2)
        curve = (2.0 * x * slope - n * (n + 1) * P) / (1.0 - x ** 2)
        x = x - slope / curve
    return x


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(P_n(x), P_{n-1}(x))`` by the three-term recurrence ``(j + 1)
    P_{j+1} = (2 j + 1) x P_j - j P_{j-1}``, for ``n >= 1``."""
    lower, P = np.ones_like(x), np.array(x, dtype=float)
    for j in range(1, n):
        lower, P = P, ((2 * j + 1) * x * P - j * lower) / (j + 1)
    return P, lower


def blended_rule(n_points: int, tau: float) -> Rule:
    """Affine Gauss/Lobatto combination with Lobatto fraction ``tau``.

    The node set is the union of both constituent rules with weights scaled
    by ``1 - tau`` (Gauss part) and ``tau`` (Lobatto part); shared nodes are
    kept as separate entries.  ``tau = 0`` and ``tau = 1`` return the plain
    constituent rules.  Any polynomial integral of the blend equals the same
    affine combination of the constituent integrals.
    """
    if tau == 0.0:
        return gauss_rule(n_points)
    if tau == 1.0:
        return lobatto_rule(n_points)
    g = gauss_rule(n_points)
    lo = lobatto_rule(n_points)
    nodes = np.concatenate([g.nodes, lo.nodes])
    weights = np.concatenate([(1.0 - tau) * g.weights, tau * lo.weights])
    order = np.argsort(nodes, kind="stable")
    return Rule(nodes[order], weights[order])


def map_rule_to_element(rule: Rule, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Affine images of a reference rule on the elements ``[a, b]``.

    ``a`` and ``b`` are element ends, scalars or arrays of one shape; the
    nodes and weights come back with one more axis, of length
    ``rule.nodes.size``, and each element's weights sum to ``b - a``.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if np.any(a >= b):
        k = np.argmax(a >= b)
        raise ValueError(f"degenerate element [{a.flat[k]}, {b.flat[k]}]")
    half = 0.5 * (b - a)[..., None]
    return a[..., None] + half * (rule.nodes + 1.0), half * rule.weights


@dataclass(frozen=True)
class QuadratureSpec:
    """Choice of per-element rule: ``gauss``, ``lobatto`` or ``blended``."""

    kind: str = "gauss"
    points_per_element: int | None = None
    tau: float | None = None

    def __post_init__(self):
        if self.kind not in ("gauss", "lobatto", "blended"):
            raise ValueError(f"unknown quadrature kind {self.kind!r}")
        if self.kind == "blended" and (self.tau is None or not math.isfinite(self.tau)):
            raise ValueError(f"blended quadrature requires a finite tau, got {self.tau}")
        if self.kind != "blended" and self.tau is not None:
            raise ValueError(f"tau applies to blended quadrature only, got tau={self.tau} "
                             f"with {self.kind}")
        if self.points_per_element is not None and self.points_per_element < 1:
            raise ValueError(f"points per element must be >= 1, got {self.points_per_element}")

    def n_points(self, p: int) -> int:
        # default p + 1 points integrates both mass and stiffness exactly
        # with Gauss and keeps Gauss/Lobatto node counts matched in blends
        return p + 1 if self.points_per_element is None else self.points_per_element

    def resolved(self, p: int) -> "QuadratureSpec":
        """The same rule with its point count for degree ``p`` spelled out:
        two specs give the same points exactly when their resolutions are
        equal."""
        return replace(self, points_per_element=self.n_points(p))

    def reference_rule(self, p: int) -> Rule:
        n = self.n_points(p)
        if self.kind == "gauss":
            return gauss_rule(n)
        if self.kind == "lobatto":
            return lobatto_rule(n)
        return blended_rule(n, float(self.tau))

    def label(self) -> str:
        if self.kind == "blended":
            return f"blended(tau={self.tau})"
        return self.kind
