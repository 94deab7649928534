"""Independent verification routes used by the tests.

These deliberately avoid the library's own fast paths: basis values come from
scipy's de Boor evaluator and a scalar Cox-de Boor recursion, quadrature weights from moment conditions,
linear-element eigenvalues from their closed form, the 2D operators from a direct tensor-product element loop with nested quadrature,
and error budgets from dense operator products and scipy's design matrix.
The 1D bands come from :func:`reference_assembly`, one element at a time,
and sampling rows from :func:`reference_sampling`, one point at a time; the
library evaluates each whole grid in one call and must agree with both bit
for bit.

Reference routes for claims the CLI computes another way:

- :func:`kron_2d_operators` forms the 2D pencil as Kronecker products of the
  1D operators, whose spectrum the ``spectrum2d`` subcommand reads as sums of
  pairs of 1D eigenvalues;
- :func:`grid_pair_inner` takes the pair inner products of the error budget
  from field values on the whole quadrature grid, one sampling matrix
  applied to every eigenvector and the exact modes by angle addition, where
  ``_pair_products`` sums one block's element load moments with exact
  element phases against the block phases, the whole mesh on the dense route;
- :func:`whole_mesh_quotient` sums ``w_q v'^2`` and ``w_q v^2`` of built
  eigenvector columns over the quadrature points of every element, with
  scipy's B-spline evaluator, where ``Spectrum.forms`` sums each mode over
  one block from its Bloch factors, or over the whole mesh with the
  library's own evaluator on the dense route;
- :func:`extended_block_quotients` forms one block's quotients of given
  coefficients in extended precision, with the scalar Cox-de Boor basis,
  where ``solve_gevp`` sums them in float64 from one basis call;
- :func:`dense_eigenpairs` solves the assembled pencil with one dense
  ``scipy.linalg.eigh``, where ``solve_gevp`` solves a layout of repeated
  blocks by its per-wavenumber pencils;
- :func:`oracle_check` re-derives eigenvalues by dense shifted inverse
  iteration;
- :func:`knot_partition` finds each block's bubble functions by searching the
  knot vector, where ``partition_dofs`` counts them from the layout;
- :func:`per_block_bands` takes the stopping-band census one block at a
  time: every consulted block's bubble pencil solved densely
  (:func:`per_block_bubble_spectra`) and the pooled values clustered one at
  a time, where ``detect_stopping_bands`` solves one banded pencil per block
  size;
- :func:`per_mode_two_wave_fit` fits one outlier mode at a time, where
  ``outlier_report`` fits every mode's row in one pass;
- :func:`reconstruct_stopping_mode` rebuilds a global stopping mode from the
  bubble eigenvectors of the blocks;
- :func:`branch_count` counts spectrum branches from the band positions;
- :func:`reference_cells` formats one CSV column cell by cell, testing the
  type of every value, where ``cli._cells`` picks the rule once from the
  column's dtype;
- :func:`reference_viridis` colors one heatmap cell at a time with Python
  scalars, where ``svgplot.heatmap`` colors the whole grid in one array
  expression;
- :func:`reference_sparse` converts a band to CSR with scipy's diagonal
  constructor, where ``SymmetricBandedMatrix.to_sparse`` indexes the band;
- :func:`reference_quadrature_forms` takes the point values of the
  quadrature forms from products with CSR matrices, the slopes from a
  first-difference matrix and then the sums of the basis slopes, where
  ``_quadrature_forms`` gathers each element's coefficients;
- :func:`reference_localized_runs` localizes each tight run from its built
  columns, by a pivoted QR over every row and a Loewdin step on the sparse
  mass matrix, where ``_localized_runs`` factors the rows of large norm from
  the Bloch factors and takes the Gram of the picked rows;
- :func:`reference_polish_vector` factors the shifted pencil formed as a
  sparse difference and converted to CSC (SuperLU), where
  ``polish_eigenvalue`` factors its general band with LAPACK ``dgbtrf``,
  and :func:`reference_polish_eigenvalue` takes that vector's quotient on
  the stored bands, where ``polish_eigenvalue`` takes it at the quadrature
  points;
- :func:`reference_leading_mode_error` locates the leading mode by a
  dense solve for that one eigenvalue and polishes it by sparse LU, where
  ``leading_mode_error`` iterates at the mode's exact eigenvalue on the
  bands.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.interpolate
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from splinespectra import analysis, cli
from splinespectra.analysis import detect_stopping_bands, partition_dofs, sample_matrix
from splinespectra.assembly import NumericalError, assemble_layout
from splinespectra.eigensolve import _BLOCK_ENTRIES, _POLISH_SHIFT, Spectrum, _sum_rows
from splinespectra.quadrature import gauss_rule, map_rule_to_element
from splinespectra.splines import KnotVector, make_block_knots, span_basis_rows

# a block owns a band when one of its bubble eigenvalues is this close (relative)
_BUBBLE_MATCH_TOL = 1e-8
# bubble eigenvalues this close (relative) to the first value of their cluster are one band
_BAND_CLUSTER_TOL = 1e-9
_ORACLE_TOL = 1e-9
# grid values (points x modes) per column block of grid_pair_inner
_GRID_BLOCK_ENTRIES = 1 << 20
_ORACLE_MAX_ITER = 200
# steps of the sparse-LU inverse iteration, at a shift within 1e-8 of its
# eigenvalue: each shrinks the other modes' share by about 1e-8 / 3
_REFERENCE_POLISH_STEPS = 3


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
    t = kv.knots
    for sx in kv.spans():
        xx, wx = map_rule_to_element(rule, t[sx], t[sx + 1])
        fx, Nx, dNx = span_basis_rows(kv, sx, xx, derivs=True)
        for sy in kv.spans():
            xy, wy = map_rule_to_element(rule, t[sy], t[sy + 1])
            fy, Ny, dNy = span_basis_rows(kv, sy, xy, derivs=True)
            idx = np.array([(fx + a) * n1 + (fy + b)
                            for a in range(p + 1) for b in range(p + 1)])
            sub = np.ix_(idx, idx)
            for qx in range(xx.size):
                for qy in range(xy.size):
                    w = wx[qx] * wy[qy]
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


def reference_assembly(kv: KnotVector, rule) -> tuple[np.ndarray, np.ndarray]:
    """Upper bands (LAPACK layout) of the full mass and stiffness matrices,
    assembled element by element: one basis evaluation and one scalar
    scatter per element, in element order."""
    p, t = kv.p, kv.knots
    M = np.zeros((p + 1, kv.n))
    K = np.zeros((p + 1, kv.n))
    for span in kv.spans():
        nodes, weights = map_rule_to_element(rule, t[span], t[span + 1])
        first, N, dN = span_basis_rows(kv, span, nodes, derivs=True)
        w = weights[:, None]
        for band, block in ((M, (N * w).T @ N), (K, (dN * w).T @ dN)):
            for a in range(p + 1):
                for b in range(a, p + 1):
                    band[p + a - b, first + b] += block[a, b]
    return M, K


def reference_sampling(op, xs) -> np.ndarray:
    """Dense sampling matrix on the reduced dofs, one point at a time.

    A point belongs to the span ``[t_i, t_{i+1})`` holding it, the right end
    of the domain to the last span; points outside the domain give zero rows.
    """
    kv = op.kv
    t, spans = kv.knots, list(kv.spans())
    out = np.zeros((len(xs), kv.n))
    for k, x in enumerate(xs):
        owner = [s for s in spans if t[s] <= x < t[s + 1]]
        if x == t[-1]:
            owner = spans[-1:]
        if owner:
            first, N = span_basis_rows(kv, owner[0], np.array([x]))
            out[k, first:first + kv.p + 1] = N[0]
    return out[:, op.dof_indices]


def design_rows(op, xs: np.ndarray) -> np.ndarray:
    """Dense sampling matrix from scipy's B-spline design matrix, reduced dofs only."""
    B = scipy.interpolate.BSpline.design_matrix(xs, op.kv.knots, op.kv.p)
    return B.toarray()[:, op.dof_indices]


def dense_error_budget(spectrum, op) -> dict[str, np.ndarray]:
    """Error-budget terms of every mode from dense operator products.

    The quadratic forms are ``diag(V^T A V)`` from ``to_dense`` products, the
    exact ones on the layout re-assembled under Gauss ``p + 1`` points; the
    pair inner products sample with :func:`design_rows` on one unblocked grid
    per subdivision count (Gauss ``p + 2`` points on ``max(1, ceil(j h) + 1)``
    equal pieces of every element).  Keys are ``ErrorBudget`` field
    names; Neumann budgets start at mode 2, past the constant mode.
    """
    p, h, bc = op.kv.p, op.layout.h, op.bc
    modes = np.arange(1 if bc == "dirichlet" else 2, spectrum.n_modes + 1)
    js = modes if bc == "dirichlet" else modes - 1
    V = spectrum.eigenvectors[:, modes - 1]
    exact = assemble_layout(op.layout)
    vMv = np.diag(V.T @ exact.M.to_dense() @ V)
    vKv = np.diag(V.T @ exact.K.to_dense() @ V)
    vKq = np.diag(V.T @ op.K.to_dense() @ V)

    subdivisions = np.array([max(1, math.ceil(j * h) + 1) for j in js])
    rule = gauss_rule(p + 2)
    uv = np.empty(js.size)
    t = op.kv.knots
    for s in np.unique(subdivisions):
        xs, ws = [], []
        for span in op.kv.spans():
            edges = np.linspace(t[span], t[span + 1], s + 1)
            for lo, hi in zip(edges[:-1], edges[1:]):
                nodes, weights = map_rule_to_element(rule, lo, hi)
                xs.append(nodes)
                ws.append(weights)
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


def grid_pair_inner(op, V: np.ndarray, js: np.ndarray, subdivisions: int) -> np.ndarray:
    """L2 inner products of exact modes ``js`` (consecutive wavenumbers) with
    the columns of ``V``, on the grid of Gauss ``p + 2`` points on
    ``subdivisions`` equal pieces of every element.

    One sampling matrix maps every column block of ``V`` to field values on
    the whole grid.  The exact modes come from one table of ``sin`` and
    ``cos`` of the offsets ``d = 0 .. width - 1`` within a column block,
    shifted by the block's first wavenumber ``j0`` through the angle
    addition formula.
    """
    kv = op.kv
    spans = kv.spans()
    edges = np.linspace(kv.knots[spans], kv.knots[spans + 1], subdivisions + 1, axis=1)
    xs, ws = map_rule_to_element(gauss_rule(kv.p + 2), edges[:, :-1], edges[:, 1:])
    xs, ws = xs.ravel(), ws.ravel()
    S = sample_matrix(op, xs)
    width = max(1, min(math.isqrt(max(js.size, 1) - 1) + 1,  # ceil(sqrt(len(js)))
                       _GRID_BLOCK_ENTRIES // xs.size))
    offsets = np.outer(xs, np.arange(width) * math.pi)
    sin_d, cos_d = np.sin(offsets), np.cos(offsets)
    out = np.empty(js.size)
    for lo in range(0, js.size, width):
        cols = slice(lo, lo + width)
        P = S @ V[:, cols]
        d = slice(0, P.shape[1])
        first = (js[lo] * math.pi) * xs
        w_sin, w_cos = ws * np.sin(first), ws * np.cos(first)
        if op.bc == "dirichlet":  # sin(a + b) = sin a cos b + cos a sin b
            out[cols] = w_sin @ (cos_d[:, d] * P) + w_cos @ (sin_d[:, d] * P)
        else:  # cos(a + b) = cos a cos b - sin a sin b
            out[cols] = w_cos @ (cos_d[:, d] * P) - w_sin @ (sin_d[:, d] * P)
    # the Neumann constant mode is 1, not sqrt(2) cos(0)
    return out * np.where(js == 0, 1.0, math.sqrt(2.0))


def dense_eigenpairs(op) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of the pencil of ``op`` from its dense matrices, ascending,
    eigenvectors ``M``-orthonormal, in whatever basis and sign LAPACK returns."""
    return scipy.linalg.eigh(op.K.to_dense(), op.M.to_dense())


def whole_mesh_quotient(op, V: np.ndarray, rule=None) -> tuple[np.ndarray, np.ndarray]:
    """``(v^T K v, v^T M v)`` of every column ``v`` of ``V`` (on the reduced
    dofs of ``op``): the sums of ``w_q v'(x_q)^2`` and of ``w_q v(x_q)^2``
    over the quadrature points of every element of the mesh, under the
    ``QuadratureSpec`` ``rule`` (by default the rule ``op`` was assembled
    with), a block of columns at a time.  Their ratio is the column's
    Rayleigh quotient.

    The fields come from scipy's B-spline evaluator on the whole knot
    vector, and the sums accumulate in extended precision.  scipy evaluates
    a point on a knot from the right, and the derivative jumps at a ``C^0``
    separator: a point at an element's right end takes its values from the
    mirror image of the spline, ``x -> 1 - x``, at the image's left end."""
    kv, p = op.kv, op.kv.p
    rule = (rule or op.quadrature).reference_rule(p)
    t, spans = kv.knots, kv.spans()
    a, b = t[spans][:, None], t[spans + 1][:, None]
    xs = (0.5 * (a * (1.0 - rule.nodes) + b * (1.0 + rule.nodes))).ravel()  # ends exact
    ws = (0.5 * (b - a) * rule.weights).ravel()
    right = np.tile(rule.nodes == 1.0, spans.size)
    w = ws.astype(np.longdouble)[:, None]
    vKv, vMv = np.empty(V.shape[1]), np.empty(V.shape[1])
    width = max(1, _GRID_BLOCK_ENTRIES // (8 * xs.size))
    for lo in range(0, V.shape[1], width):
        coefficients = np.zeros((kv.n, V[:, lo:lo + width].shape[1]))
        coefficients[op.dof_indices] = V[:, lo:lo + width]
        spline = scipy.interpolate.BSpline(t, coefficients, p)
        mirror = scipy.interpolate.BSpline(1.0 - t[::-1], coefficients[::-1], p)
        values, slopes = spline(xs), spline.derivative()(xs)
        values[right] = mirror(1.0 - xs[right])
        slopes[right] = -mirror.derivative()(1.0 - xs[right])
        for out, f in ((vKv, slopes), (vMv, values)):
            out[lo:lo + width] = (w * np.square(f.astype(np.longdouble))).sum(axis=0)
    return vKv, vMv


def extended_block_quotients(op, C: np.ndarray) -> np.ndarray:
    """``sum_q w_q v'^2 / sum_q w_q v^2`` over the quadrature points of the
    first block of ``op.layout``, one per mode ``c``, whose fields ``v`` have
    the coefficients ``C[:, f, c]`` on the block's ``block_size + p`` basis
    functions and whose sums add over the fields ``f``.

    The points and weights are those of ``map_rule_to_element``; the basis
    values come from the scalar Cox-de Boor recursion on the knots, and every
    operation is in extended precision: the quotient of the same
    coefficients at the same points, well below one rounding of a float64.
    The points must lie inside their elements (a Gauss rule)."""
    kv, p, size = op.kv, op.kv.p, op.layout.block_size
    rule = op.quadrature.reference_rule(p)
    spans = kv.spans()[:size]
    nodes, weights = map_rule_to_element(rule, kv.knots[spans], kv.knots[spans + 1])
    extended = SimpleNamespace(knots=kv.knots.astype(np.longdouble), p=p)
    N = np.zeros((nodes.size, size + p), dtype=np.longdouble)
    dN = np.zeros_like(N)
    for row, (span, x) in enumerate(zip(np.repeat(spans, rule.nodes.size), nodes.ravel())):
        x = np.longdouble(x)
        for i in range(span - p, span + 1):
            N[row, i] = cox_de_boor_value(extended, i, x)
            dN[row, i] = cox_de_boor_deriv(extended, i, x)
    w = weights.astype(np.longdouble).ravel()[:, None]
    C = C.astype(np.longdouble)
    num = sum((w * np.square(dN @ C[:, f])).sum(axis=0) for f in range(C.shape[1]))
    den = sum((w * np.square(N @ C[:, f])).sum(axis=0) for f in range(C.shape[1]))
    return num / den


class QuadratureFormsSpectrum(Spectrum):
    """``spectrum`` held as one array, on the mesh of ``op``, whose forms
    under every rule are the :func:`whole_mesh_quotient` sums of its
    columns: a budget of it is the reference for a budget of ``spectrum``,
    whose forms the library sums over one block on the block-Fourier route
    and with its own basis evaluator on the dense route."""

    def __init__(self, spectrum, op):
        super().__init__(spectrum.eigenvalues, spectrum.eigenvectors, op.kv, op.dof_indices)
        self._op = op

    def forms(self, rule):
        return np.array(whole_mesh_quotient(self._op, self._vectors, rule))


def kron_2d_operators(op):
    """Tensor-product pencil on the unit square from the 1D operators of ``op``.

    Returns sparse ``(M2, K2)`` with ``M2 = M (x) M`` and
    ``K2 = K (x) M + M (x) K``, the x index slowest.
    """
    Ms = op.M.to_sparse()
    Ks = op.K.to_sparse()
    M2 = scipy.sparse.kron(Ms, Ms, format="csr")
    K2 = (scipy.sparse.kron(Ks, Ms) + scipy.sparse.kron(Ms, Ks)).tocsr()
    return M2, K2


class OracleDivergenceError(NumericalError):
    """Inverse iteration failed to settle on an eigenvalue."""


@dataclass
class OracleReport:
    mode_indices: list[int]
    deviations: np.ndarray
    max_deviation: float


def oracle_check(K: np.ndarray, M: np.ndarray, eigenvalues: np.ndarray,
                 mode_indices) -> OracleReport:
    """Re-derive selected eigenvalues of the dense pencil ``(K, M)``.

    Each requested mode ``j`` (1-based) is recomputed by shifted inverse
    iteration from a random start at shift ``lambda_j (1 + 1e-6)``; the
    Rayleigh quotient must converge to ``eigenvalues[j - 1]`` within ``1e-9``
    relative.  Degenerate clusters converge inside their invariant subspace,
    which still reproduces the eigenvalue.

    Raises
    ------
    OracleDivergenceError
        If the iteration does not settle for some mode, or settles away from
        the given eigenvalue.
    """
    rng = np.random.default_rng(0)
    deviations = []
    for j in mode_indices:
        lam = eigenvalues[j - 1]
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


def knot_partition(layout) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-block bubble indices and the interface indices, found on the knot
    vector of a ``C^0`` Dirichlet layout.

    The interface function of a separator at ``z`` is the one whose support
    ends at the last copy of ``z``; every other function must lie inside one
    block, located by the midpoint of its support.
    """
    kv = make_block_knots(layout)
    p = kv.p
    seps = np.arange(1, layout.n_separators + 1) * layout.block_size * layout.h
    interface_basis = []
    for z in seps:
        last = int(np.max(np.where(np.abs(kv.knots - z) <= 1e-12)))
        interface_basis.append(last - p)
    interface_set = set(interface_basis)

    keep = np.arange(1, kv.n - 1)
    reduced_of = {g: r for r, g in enumerate(keep)}
    interface = np.array([reduced_of[g] for g in interface_basis], dtype=int)

    edges = np.concatenate([[0.0], seps, [1.0]])
    blocks = [[] for _ in range(len(edges) - 1)]
    for r, g in enumerate(keep):
        if g in interface_set:
            continue
        lo, hi = kv.knots[g], kv.knots[g + p + 1]
        block = int(np.searchsorted(edges, 0.5 * (lo + hi)) - 1)
        if lo < edges[block] - 1e-12 or hi > edges[block + 1] + 1e-12:
            raise ValueError(f"dof {g} is neither interface nor single-block bubble")
        blocks[block].append(r)
    return [np.array(b, dtype=int) for b in blocks], interface


def interface_dofs(blocks, n_dofs: int) -> np.ndarray:
    """Reduced indices that lie in no block: the separators' interface functions."""
    return np.setdiff1d(np.arange(n_dofs), np.concatenate(blocks))


def per_block_bubble_spectra(op, blocks) -> list[np.ndarray]:
    """Eigenvalues of every block's bubble pencil, one ascending array per
    block, each solved by a dense ``scipy.linalg.eigh`` on its slice of the
    assembled matrices."""
    K, M = op.K.to_dense(), op.M.to_dense()
    return [scipy.linalg.eigh(K[np.ix_(idx, idx)], M[np.ix_(idx, idx)], eigvals_only=True)
            for idx in blocks]


def per_block_bands(op) -> tuple[np.ndarray, np.ndarray]:
    """Stopping-band values and block multiplicities of a ``C^0`` Dirichlet
    layout, by the census one block at a time.

    The blocks come from :func:`knot_partition`.  The interior blocks are
    consulted, or every block when there are at most two, and none without
    separators.  Every consulted block's pencil is solved on its own, and the
    pooled values, sorted, are clustered one value at a time: a value within
    ``1e-9`` (relative) of the first value of the current cluster joins it,
    and the cluster's first value is the band.  The multiplicity of a band
    is the size of its cluster.
    """
    blocks, _ = knot_partition(op.layout)
    local = per_block_bubble_spectra(op, blocks)
    pool = local[1:-1] if len(local) > 2 else local
    values = np.sort(np.concatenate(pool)) if op.layout.n_separators else np.empty(0)
    starts = []  # first value of each cluster
    for k, v in enumerate(values):
        if not (starts and abs(v - values[starts[-1]])
                <= _BAND_CLUSTER_TOL * abs(values[starts[-1]])):
            starts.append(k)
    return values[starts], np.diff([*starts, values.size])


def per_mode_two_wave_fit(f: np.ndarray, mags: np.ndarray, op) -> dict:
    """The two-wave fit of one sampled field ``f`` with spectrum ``mags``, by
    name: the two largest local maxima of ``mags`` (the lower bin on a tie),
    and the sine or cosine pair of the outlier census fitted to them."""
    interior = np.flatnonzero((mags[1:-1] > mags[:-2]) & (mags[1:-1] > mags[2:])) + 1
    peaks = interior[np.argsort(-mags[interior], kind="stable")][:2]
    a1, f1 = float(mags[peaks[0]]), 0.5 * float(peaks[0])
    if peaks.size < 2:
        a2, f2 = 0.0, None
    else:
        a2, f2 = float(mags[peaks[1]]), 0.5 * float(peaks[1])
    xs = np.arange(f.size) / f.size
    even_degree = op.kv.p % 2 == 0
    use_sine = even_degree if op.bc == "dirichlet" else not even_degree

    def wave(freq):
        arg = 2.0 * math.pi * freq * xs
        return np.sin(arg) if use_sine else np.cos(arg)

    model = a1 * wave(f1)
    if f2 is not None:
        model = model - a2 * wave(f2) if use_sine else model + a2 * wave(f2)
    misfit = min(np.linalg.norm(f - s * model) for s in (1.0, -1.0)) / np.linalg.norm(f)
    return {
        "a1": a1, "f1": f1, "a2": a2, "f2": f2,
        "defect_dofs": None if f2 is None else abs(f2 - (op.n_dofs - f1)),
        "defect_elements": None if f2 is None else abs(f2 - (op.layout.n_elements - f1)),
        "misfit": float(misfit),
    }


class SingularInterfaceError(NumericalError):
    """Interface block of the shifted pencil is numerically singular."""


def reconstruct_stopping_mode(op, blocks, band_value: float) -> np.ndarray:
    """Reassemble a global stopping mode from local bubble eigenfunctions.

    The candidate space is the span of the per-block bubble eigenvectors at
    the band eigenvalue, extended by zero; each block's pencil is solved here,
    densely, from its slice of the global matrices.  A Galerkin projection of the
    shifted pencil onto that space determines the combination weights; the
    interface values then follow by eliminating them through the interface
    block of the shifted system.  ``blocks`` is the bubble partition of
    ``partition_dofs``; the interfaces are the indices in no block.  The mode
    comes back normalized against the exact mass matrix.

    Raises
    ------
    SingularInterfaceError
        If the interface block of the shifted pencil is singular.
    ValueError
        If no block owns a bubble eigenvalue at ``band_value``.
    """
    n = op.n_dofs
    K, M = op.K.to_dense(), op.M.to_dense()
    columns = []
    for idx in blocks:
        sub = np.ix_(idx, idx)
        w, v = scipy.linalg.eigh(K[sub], M[sub])
        sel = np.where(np.abs(w - band_value) <= _BUBBLE_MATCH_TOL * abs(band_value))[0]
        for s in sel:
            col = np.zeros(n)
            col[idx] = v[:, s]
            columns.append(col)
    if not columns:
        raise ValueError(f"{band_value} is not a bubble eigenvalue of any block")
    Phi = np.array(columns).T

    A = K - band_value * M
    i_idx = interface_dofs(blocks, n)
    APhi = A @ Phi
    if i_idx.size:
        Aii = A[np.ix_(i_idx, i_idx)]
        C = APhi[i_idx, :]
        try:
            lu, piv = scipy.linalg.lu_factor(Aii)
        except scipy.linalg.LinAlgError as exc:
            raise SingularInterfaceError("interface block is singular") from exc
        if np.abs(np.diag(lu)).min() < 1e-12 * np.abs(np.diag(lu)).max():
            raise SingularInterfaceError("interface block is numerically singular")
        Y = scipy.linalg.lu_solve((lu, piv), C)
        S = Phi.T @ APhi - C.T @ Y
    else:
        Y = np.zeros((0, Phi.shape[1]))
        S = Phi.T @ APhi
    S = 0.5 * (S + S.T)
    w, q = scipy.linalg.eigh(S)
    alpha = q[:, np.argmin(np.abs(w))]

    U = Phi @ alpha
    if i_idx.size:
        U[i_idx] = -Y @ alpha
    Me = assemble_layout(op.layout).M.to_dense()
    U /= math.sqrt(U @ (Me @ U))
    lead = int(np.abs(U).argmax())
    if U[lead] < 0:
        U = -U
    return U


def branch_count(eigenvalues: np.ndarray, op, j_max: int | None = None) -> int:
    """Number of spectrum branches inside a mode window, from the band positions.

    ``eigenvalues`` is the ascending global spectrum of ``op``.

    Branch boundaries are the stopping bands; the count is one plus the
    number of distinct bubble-band eigenvalues whose matched global mode
    index lies strictly inside ``(1, j_max)``.  The default window is
    ``j_max = n_elements + p - 2``, the abscissa normalization of the error
    plots, so boundary bands sitting exactly at the window edge separate the
    window from the outlier region rather than splitting it.

    This is the robust automation of counting the branches of the error
    curves: the low-spectrum bands perturb the eigenvalues by less than
    floating-point noise (their modes are commensurate with the separator
    grid), so the band positions, not curve heuristics, carry the structure.
    """
    if op.layout.n_separators == 0:
        return 1
    report = detect_stopping_bands(eigenvalues, op, partition_dofs(op.layout))
    if j_max is None:
        j_max = op.layout.n_elements + op.kv.p - 2
    modes = report.global_index + 1
    return int(np.count_nonzero((1 < modes) & (modes < j_max))) + 1


def reference_cells(column) -> list[str]:
    """One CSV column's cells by the per-cell rule: ``str`` for an int (a
    bool included), empty for ``None``, ``.17g`` for everything else."""
    return ["" if v is None else str(v) if isinstance(v, int) else f"{v:.17g}"
            for v in np.asarray(column).tolist()]


def reference_viridis(t: float) -> str:
    """The ``fill`` of one heatmap cell at ``t`` in ``[0, 1]``: the four-stop
    viridis blend, each channel rounded by Python's ``round``."""
    stops = [(68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37)]
    t = min(max(t, 0.0), 1.0) * (len(stops) - 1)
    i = min(int(t), len(stops) - 2)
    f = t - i
    rgb = [round(a + f * (b - a)) for a, b in zip(stops[i], stops[i + 1])]
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def reference_sparse(A) -> scipy.sparse.csr_matrix:
    """The CSR form of the banded matrix ``A`` from scipy's diagonal
    constructor, one diagonal of the band at a time."""
    u = A.bandwidth
    w = min(u, A.n - 1)
    offsets = range(-w, w + 1)
    return scipy.sparse.diags([A.band[u - abs(k), abs(k):] for k in offsets], offsets,
                              shape=(A.n, A.n), format="csr")


def reference_polish_vector(op, estimate: float) -> np.ndarray:
    """The eigenvector ``polish_eigenvalue`` finds, from three steps of
    inverse iteration with one sparse LU factorization of ``K - sigma M``,
    formed as the difference of the two sparse matrices and converted to
    CSC."""
    sigma = estimate * (1.0 - _POLISH_SHIFT)
    Ms = op.M.to_sparse()
    lu = scipy.sparse.linalg.splu((op.K.to_sparse() - sigma * Ms).tocsc(),
                                  permc_spec="NATURAL")
    x = np.random.default_rng(0).standard_normal(op.n_dofs)
    for _ in range(_REFERENCE_POLISH_STEPS):
        y = lu.solve(Ms @ x)
        x = y / np.abs(y).max()
    return x


def reference_polish_eigenvalue(op, estimate: float) -> float:
    """The Rayleigh quotient of :func:`reference_polish_vector` on the stored
    bands, each form a product with a sparse matrix of its own."""
    x = reference_polish_vector(op, estimate)
    return float((x @ (op.K.to_sparse() @ x)) / (x @ (op.M.to_sparse() @ x)))


def reference_leading_mode_error(layout, quadrature=None) -> float:
    """``leading_mode_error`` by a located mode: the first non-constant
    eigenvalue from a dense ``scipy.linalg.eigh`` of that one mode, then
    :func:`reference_polish_vector` at that value, and the vector's quotient
    from :func:`whole_mesh_quotient`, where ``leading_mode_error`` iterates
    on the bands at the exact eigenvalue ``pi^2`` and sums its quotient in
    float64."""
    op = assemble_layout(layout, quadrature)
    first = 0 if layout.bc == "dirichlet" else 1
    located = scipy.linalg.eigh(op.K.to_dense(), op.M.to_dense(), eigvals_only=True,
                                subset_by_index=[first, first])[0]
    x = reference_polish_vector(op, located)
    vKv, vMv = whole_mesh_quotient(op, x[:, None])
    return float((vKv[0] / vMv[0] - math.pi ** 2) / math.pi ** 2)


def reference_localized_runs(w: np.ndarray, columns, M):
    """``(lo, hi, rows, W)`` for every run ``lo .. hi - 1`` of eigenvalues
    ``w`` (ascending) with gaps of at most ``n eps lambda_max``, from the
    run's built columns ``columns(lo, hi)``: the pivoted QR factorization of
    ``V_c^T`` over every row picks the rows, ``W = V_c V_c[rows]^T`` and a
    Loewdin step ``W (W^T M W)^(-1/2)``, with ``W^T M W`` formed on the sparse
    mass matrix, makes its columns ``M``-orthonormal.  Where
    ``eigensolve._localized_runs`` factors only the rows of large norm and
    takes the Gram of the picked rows, using ``V_c^T M V_c = I``."""
    n = w.size
    if n < 2:
        return
    tight = np.diff(w) <= n * np.finfo(float).eps * np.abs(w).max()
    edges = np.flatnonzero(np.diff(np.concatenate([[0], tight.view(np.int8), [0]])))
    for lo, hi in zip(edges[::2], edges[1::2] + 1):
        Vc = columns(lo, hi)
        rows = np.sort(scipy.linalg.qr(Vc.T, mode="r", pivoting=True)[1][:hi - lo])
        W = Vc @ Vc[rows].T
        g, U = np.linalg.eigh(W.T @ (reference_sparse(M) @ W))
        yield lo, hi, rows, W @ ((U / np.sqrt(g)) @ U.T)


def reference_quadrature_forms(kv, rule, n_el: int, coefficients, n: int,
                               fields: int = 1) -> np.ndarray:
    """``eigensolve._quadrature_forms`` with the point values of each chunk
    from products of CSR matrices with the coefficients: the values from the
    basis values, and the slopes from a first-difference matrix and then the
    sums ``G_a = sum_{r >= a} N'_r`` of the basis slopes, where the library
    gathers each element's coefficients and adds the terms of each point in
    the order of these CSR products.  Each element's points are added in
    order, one at a time."""
    p, reference = kv.p, rule.reference_rule(kv.p)
    spans = kv.spans()[:n_el]
    nodes, weights = map_rule_to_element(reference, kv.knots[spans], kv.knots[spans + 1])
    first, N, dN = span_basis_rows(kv, np.repeat(spans, reference.nodes.size), nodes.ravel(),
                                   derivs=True)
    points, width = first.size, first[-1] + p + 1
    G = np.empty((points, p))
    G[:, -1] = dN[:, p]
    for a in range(p - 1, 0, -1):
        G[:, a - 1] = G[:, a] + dN[:, a]

    def rows(X, functions):
        cols = (first[:, None] + np.arange(X.shape[1])).ravel()
        indptr = np.arange(0, cols.size + 1, X.shape[1])
        return scipy.sparse.csr_matrix((X.ravel(), cols, indptr), (points, functions))

    # row a - 1 of the first differences is c_a - c_{a-1}
    difference = scipy.sparse.diags([-1.0, 1.0], [0, 1], shape=(width - 1, width), format="csr")
    slopes, values = rows(G, width - 1), rows(N, width)
    forms = np.empty((2, n))
    chunk = max(1, _BLOCK_ENTRIES // (fields * points))
    for lo in range(0, n, chunk):
        modes = np.arange(lo, min(lo + chunk, n))
        C = coefficients(modes).reshape(width, -1)
        # each element's points added in order
        squares = [np.square(X).reshape(weights.shape + (-1,))
                   for X in (slopes @ (difference @ C), values @ C)]
        terms = np.hstack([sum(weights[:, q, None] * X[:, q] for q in range(weights.shape[1]))
                           .reshape(fields * n_el, -1) for X in squares])
        forms[:, modes] = _sum_rows(terms).reshape(2, -1)
    return forms


def three_part_factors(spectrum, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The Bloch factors ``(local, pattern)`` of columns ``lo .. hi - 1`` of
    a block-Fourier spectrum in three parts, where ``Spectrum.factors`` gives
    two fields on one closed block: the even bubbles ``Qe y_e`` under
    ``sin(phi_b)``, the odd bubbles ``Qo y_o`` under ``cos(phi_b)`` and the
    interface amplitude under ``sin(theta b)``, each local vector over one
    block's ``m`` bubbles and right interface (``3 x (m + 1) x columns``).
    A band mode's bubble vector is the first part; a tight run's localized
    column takes the parts of its modes' class that meets its exact mode."""
    m, n_b = spectrum._m, spectrum._n_blocks
    me, mo = (m + 1) // 2, m // 2
    n_wave = spectrum._Y.shape[1]
    theta = np.arange(1, n_b) * math.pi / n_b
    b = np.arange(n_b)[:, None] + 0.5
    scale = math.sqrt(2.0 / n_b)
    tables = [scale * np.sin(b * theta), scale * np.cos(b * theta),
              scale * np.sin((b[:-1] + 0.5) * theta)]

    def local_of(modes):
        band = modes >= n_wave
        Y = spectrum._Y[:, np.where(band, 0, modes)]
        local = np.zeros((3, m + 1, modes.size))
        even, odd = math.sqrt(0.5) * Y[:mo], math.sqrt(0.5) * Y[me:m]
        local[0, :mo], local[0, m - mo:m] = even, even[::-1]
        local[1, :mo], local[1, m - mo:m] = odd, -odd[::-1]
        if m % 2:
            local[0, mo] = Y[mo]
        local[2, m] = Y[m]
        local[:, :, band] = 0.0
        local[0, :m, band] = spectrum._bands[:, modes[band] - n_wave].T
        return local

    modes = spectrum._modes[lo:hi].copy()
    combined = []
    for a, e_run, G in spectrum._runs:
        s, e = max(a, lo), min(e_run, hi)
        if s >= e:
            continue
        run = spectrum._modes[a:e_run]
        q = (np.arange(s, e) + 1) % (2 * n_b)
        match = spectrum._classes(run)[:, None] == np.minimum(q, 2 * n_b - q)
        modes[s - lo:e - lo] = np.where(match.any(axis=0), run[match.argmax(axis=0)],
                                        modes[s - lo:e - lo])
        combined.append((slice(s - lo, e - lo), run, np.where(match, G[:, s - a:e - a], 0.0)))
    local = local_of(modes)
    for cols, run, weights in combined:
        local[:, :, cols] = local_of(run) @ weights
    band = modes >= n_wave
    k = np.where(band, 0, modes) // (m + 1)
    pattern = np.zeros((3, n_b, modes.size))
    pattern[0], pattern[1] = tables[0][:, k], tables[1][:, k]
    pattern[2, :-1] = tables[2][:, k]
    alternating = (-1.0) ** np.arange(n_b)[:, None]
    pattern[0][:, band] = np.where(modes[band] - n_wave < (m + 1) // 2, alternating, 1.0)
    return local, pattern


def _reduced_load_moments(op, subdivisions: int, n_el: int, parts: int, height: int):
    """Load moments over the first ``n_el`` elements of ``parts`` local
    vectors on the reduced dofs ``0 .. height - 1``, the functions removed
    by boundary conditions and those past ``height`` counting as zero: the
    element moments of ``analysis._load_moments``, in its order and pieces,
    through a map to reduced dofs."""
    kv = op.kv
    p, n_e = kv.p, op.layout.n_elements
    spans = kv.spans()[:n_el]
    edges = np.linspace(0.0, op.layout.h, subdivisions + 1)
    t, w = (a.ravel() for a in map_rule_to_element(gauss_rule(p + 2), edges[:-1], edges[1:]))
    _, N = span_basis_rows(kv, np.repeat(spans, t.size), (kv.knots[spans][:, None] + t).ravel())
    reduced = np.full(kv.n, -1, dtype=int)
    reduced[op.dof_indices] = np.arange(op.n_dofs)
    rows = reduced[(spans - p)[:, None] + np.arange(p + 1)].T
    kept = (rows >= 0) & (rows < height)
    wN = (N.reshape(n_el, t.size, p + 1) * w[:, None]).transpose(2, 0, 1)
    wN = (wN * kept[..., None]).reshape((p + 1) * n_el, t.size)
    rows = np.where(kept, rows, 0).ravel()
    e, n_rows = np.arange(n_el), wN.shape[0]
    width = max(1, min(op.n_dofs, analysis._PAIR_BLOCK_ENTRIES // (parts * n_rows)))
    step = np.multiply.outer(e, np.arange(width)) % (2 * n_e)
    angle = np.tile(np.arange(2 * n_e) * (math.pi / n_e), 2)
    cos_e, sin_e = np.cos(angle), np.sin(angle)

    def moments(local, js, imag):
        out = np.empty((parts, js.size))
        pieces = -(-js.size // width)
        cuts = [js.size * i // pieces for i in range(pieces + 1)]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            cols, size = slice(lo, hi), hi - lo
            jt = np.outer(t, js[cols] * math.pi)
            C, S = wN @ np.cos(jt), wN @ np.sin(jt)
            Vg = np.take(local[:, :, cols], rows, axis=1, mode="clip")
            Vg, C, S = (a.reshape(-1, p + 1, n_el, size) for a in (Vg, C, S))
            VC = np.einsum("iaej,aej->iej", Vg, C[0])
            VS = np.einsum("iaej,aej->iej", Vg, S[0])
            k = ((js[lo] * e) % (2 * n_e))[:, None] + step[:, :size]
            cos_k, sin_k = cos_e[k], sin_e[k]
            for i in range(parts):
                on_c, on_s, sign = (sin_k, cos_k, 1.0) if imag[i] else (cos_k, sin_k, -1.0)
                out[i, cols] = (np.einsum("ej,ej->j", on_c, VC[i])
                                + sign * np.einsum("ej,ej->j", on_s, VS[i]))
        return out

    return moments


def reference_three_part_pair_products(spectrum, op, js: np.ndarray,
                                       counts: np.ndarray) -> np.ndarray:
    """``analysis._pair_products`` of a block-Fourier spectrum from its
    :func:`three_part_factors`, where the library reads two fields on one
    closed block: the load moments of the three local vectors over the
    first block and the next block's first element, where the block's right
    interface function ends, against the block phases of each part."""
    n_e = op.layout.n_elements
    first = spectrum.n_modes - js.size
    n_b, m = spectrum._n_blocks, spectrum._m
    window, height = min(n_e // n_b + 1, n_e), m + 1
    angle = np.arange(2 * n_b) * (math.pi / n_b)
    cos_b, sin_b = np.cos(angle), np.sin(angle)
    evaluators, out = {}, np.empty(js.size)
    for lo, hi in spectrum.blocks(first, 3 * max(height, n_b)):
        local, pattern = three_part_factors(spectrum, lo, hi)
        rows = slice(lo - first, hi - first)
        jc, cc, uv = js[rows], counts[rows], out[rows]
        k = np.multiply.outer(np.arange(n_b), jc) % (2 * n_b)
        S = np.stack([np.einsum("ibc,bc->ic", pattern, c[k]) for c in (cos_b, sin_b)])
        local = (S.transpose(2, 0, 1) @ local.transpose(2, 0, 1)).transpose(1, 2, 0)
        values, starts = np.unique(cc, return_index=True)
        for s, a, z in zip(values, starts, [*starts[1:], jc.size]):
            key = int(s)
            if key not in evaluators:
                evaluators[key] = _reduced_load_moments(op, key, window, 2, height)
            F = evaluators[key](local[:, :, a:z], jc[a:z], (True, False))
            uv[a:z] = F[0] + F[1]
        uv *= math.sqrt(2.0)
    return out


def reference_csv_text(columns: dict, config, comments=None) -> str:
    """The CSV text of equally long ``columns`` as one string: every line
    joined and ended by ``\\n``, each column formatted by ``cli._cells``,
    where ``cli.cmd_outliers`` writes its ``.freq.csv`` one mode at a time."""
    lines = [f"# config: {config.echo()}", *(comments or []), ",".join(columns)]
    lines += map(",".join, zip(*map(cli._cells, columns.values()), strict=True))
    return "\n".join(lines) + "\n"
