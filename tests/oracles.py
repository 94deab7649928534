"""Independent verification routes used by the tests.

These deliberately avoid the library's own fast paths: basis values come from
scipy's de Boor evaluator and a scalar Cox-de Boor recursion, quadrature weights from moment conditions,
linear-element eigenvalues from their closed form, the 2D operators from a direct tensor-product element loop with nested quadrature,
and error budgets from dense operator products and scipy's design matrix.
"""

import math

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


def linear_fem_eigenvalue(j: int, h: float) -> float:
    """Discrete Dirichlet eigenvalue ``j`` of linear elements with consistent mass.

    The mode is ``sin(j pi x)`` at the nodes, so the three-point stencils give
    ``lambda_h = (6 / h^2) s / (3 - s)`` with ``s = 2 sin^2(j pi h / 2)``
    (that is, ``1 - cos(j pi h)``, formed without cancellation).
    """
    s = 2.0 * math.sin(0.5 * j * math.pi * h) ** 2
    return 6.0 / h ** 2 * s / (3.0 - s)


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


def design_rows(op, xs: np.ndarray) -> np.ndarray:
    """Dense sampling matrix from scipy's B-spline design matrix, reduced dofs only."""
    B = scipy.interpolate.BSpline.design_matrix(xs, op.kv.knots, op.kv.p)
    return B.toarray()[:, op.dof_indices]


def dense_error_budget(spectrum, op) -> dict[str, np.ndarray]:
    """Error-budget terms of every mode from dense operator products.

    The quadratic forms are ``diag(V^T A V)`` from ``to_dense`` products; the
    pair inner products sample with :func:`design_rows` on one unblocked grid
    per subdivision count (Gauss ``p + 2`` points on ``max(1, ceil(j h) + 1)``
    equal pieces of every element).  Keys are ``ModeErrorBudget`` field
    names; Neumann budgets start at mode 2, past the constant mode.
    """
    p, h, bc = op.kv.p, op.layout.h, op.bc
    modes = np.arange(1 if bc == "dirichlet" else 2, spectrum.n_modes + 1)
    js = modes if bc == "dirichlet" else modes - 1
    V = spectrum.eigenvectors[:, modes - 1]
    vMv = np.diag(V.T @ op.M_exact.to_dense() @ V)
    vKv = np.diag(V.T @ op.K_exact.to_dense() @ V)
    vKq = np.diag(V.T @ op.K.to_dense() @ V)

    subdivisions = np.array([max(1, math.ceil(j * h) + 1) for j in js])
    rule = gauss_rule(p + 2)
    uv = np.empty(js.size)
    for s in np.unique(subdivisions):
        xs, ws = [], []
        for _, a, b in op.kv.spans():
            edges = np.linspace(a, b, s + 1)
            for lo, hi in zip(edges[:-1], edges[1:]):
                local = map_rule_to_element(rule, lo, hi)
                xs.append(local.nodes)
                ws.append(local.weights)
        xs, ws = np.concatenate(xs), np.concatenate(ws)
        sel = subdivisions == s
        trig = np.sin if bc == "dirichlet" else np.cos
        U = math.sqrt(2.0) * trig(math.pi * np.outer(xs, js[sel]))
        uv[sel] = ws @ (U * (design_rows(op, xs) @ V[:, sel]))
    uv = np.abs(uv)

    lam = (js * math.pi) ** 2
    lam_h = spectrum.eigenvalues[modes - 1]
    terms = {
        "lambda_h": lam_h,
        "ev_rel": (lam_h - lam) / lam,
        "ef_l2_sq": 1.0 - 2.0 * uv + vMv,
        "ef_energy_rel_sq": (lam - 2.0 * lam * uv + vKv) / lam,
        "energy_gap": (vKv - vKq) / lam,
        "l2_deficit": 1.0 - vMv,
    }
    terms["pythagoras_residual"] = terms["ef_energy_rel_sq"] - (
        terms["ev_rel"] + terms["ef_l2_sq"] + terms["energy_gap"]
        + terms["l2_deficit"])
    return terms
