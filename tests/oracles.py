"""Independent verification routes used by the tests.

These deliberately avoid the library's own fast paths: basis values come from
scipy's de Boor evaluator and a scalar Cox-de Boor recursion, quadrature weights from moment conditions, and the
2D operators from a direct tensor-product element loop with nested quadrature.
"""

import numpy as np
import scipy.interpolate
import scipy.linalg

from splinespectra.quadrature import gauss_rule, map_rule_to_element
from splinespectra.splines import KnotVector, span_basis_rows


def scipy_basis_value(kv: KnotVector, i: int, x: float) -> float:
    c = np.zeros(kv.n)
    c[i] = 1.0
    return float(scipy.interpolate.BSpline(kv.knots, c, kv.p)(x))


def scipy_basis_deriv(kv: KnotVector, i: int, x: float) -> float:
    c = np.zeros(kv.n)
    c[i] = 1.0
    return float(scipy.interpolate.BSpline(kv.knots, c, kv.p).derivative()(x))


def cox_de_boor_value(kv: KnotVector, i: int, x: float, degree=None) -> float:
    """Scalar ``N_{i,degree}(x)`` by the textbook Cox-de Boor recursion.

    Uses half-open indicator intervals ``[t_j, t_{j+1})``, so it is meant for
    points strictly inside the domain.
    """
    t = kv.knots
    degree = kv.p if degree is None else degree
    vals = [1.0 if t[j] <= x < t[j + 1] else 0.0
            for j in range(i, i + degree + 1)]
    for d in range(1, degree + 1):
        for r in range(degree - d + 1):
            j = i + r
            acc = 0.0
            den = t[j + d] - t[j]
            if den > 0.0:
                acc += (x - t[j]) / den * vals[r]
            den = t[j + d + 1] - t[j + 1]
            if den > 0.0:
                acc += (t[j + d + 1] - x) / den * vals[r + 1]
            vals[r] = acc
    return vals[0]


def cox_de_boor_deriv(kv: KnotVector, i: int, x: float) -> float:
    """Scalar ``dN_{i,p}/dx`` from the degree-reduction formula."""
    t, p = kv.knots, kv.p
    out = 0.0
    den = t[i + p] - t[i]
    if den > 0.0:
        out += p / den * cox_de_boor_value(kv, i, x, p - 1)
    den = t[i + p + 1] - t[i + 1]
    if den > 0.0:
        out -= p / den * cox_de_boor_value(kv, i + 1, x, p - 1)
    return out


def weights_from_moments(nodes: np.ndarray) -> np.ndarray:
    """Solve the Vandermonde moment system for interpolatory weights on [-1, 1]."""
    n = nodes.size
    V = np.vander(nodes, n, increasing=True).T
    moments = np.array([(1.0 - (-1.0) ** (k + 1)) / (k + 1) for k in range(n)])
    return np.linalg.solve(V, moments)


def direct_2d_operators(kv: KnotVector, n_points: int):
    """Tensor-product mass/stiffness by looping 2D elements with nested Gauss.

    Returns the full (pre-elimination) matrices ordered with the x index
    slowest, matching a Kronecker product of 1D operators.
    """
    n1 = kv.n
    p = kv.p
    rule = gauss_rule(n_points)
    M = np.zeros((n1 * n1, n1 * n1))
    K = np.zeros_like(M)
    for sx, ax, bx in kv.spans():
        rx = map_rule_to_element(rule, ax, bx)
        fx, Nx, dNx = span_basis_rows(kv, sx, rx.nodes, derivs=True)
        for sy, ay, by in kv.spans():
            ry = map_rule_to_element(rule, ay, by)
            fy, Ny, dNy = span_basis_rows(kv, sy, ry.nodes, derivs=True)
            idx = np.array([(fx + a) * n1 + (fy + b)
                            for a in range(p + 1) for b in range(p + 1)])
            sub = np.ix_(idx, idx)
            for qx in range(rx.nodes.size):
                for qy in range(ry.nodes.size):
                    w = rx.weights[qx] * ry.weights[qy]
                    vals = np.outer(Nx[qx], Ny[qy]).ravel()
                    gx = np.outer(dNx[qx], Ny[qy]).ravel()
                    gy = np.outer(Nx[qx], dNy[qy]).ravel()
                    M[sub] += w * np.outer(vals, vals)
                    K[sub] += w * (np.outer(gx, gx) + np.outer(gy, gy))
    return M, K


def eliminate_2d_dirichlet(A: np.ndarray, n1: int) -> np.ndarray:
    keep1 = np.arange(1, n1 - 1)
    keep = np.array([i * n1 + j for i in keep1 for j in keep1])
    return A[np.ix_(keep, keep)]
