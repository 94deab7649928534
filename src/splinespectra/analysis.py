"""Spectrum diagnostics: error budgets, stopping bands, outliers, frequency content.

Per-mode error budgets implement the Pythagorean eigenvalue error identity and
its generalization to modified (under-integrated) inner products.  With exact
quadrature, the relative eigenvalue error and the scaled L2 eigenfunction
error sum to the relative energy-norm eigenfunction error; with a modified
inner product two extra terms appear (the discrete energy-norm gap, which
vanishes in 1D, and the L2 normalization deficit).

Stopping bands are diagnosed by partitioning the degrees of freedom into
per-block bubbles and separator interfaces: the eigenvalues of the local
bubble pencils reappear in the global spectrum and pin the error spikes that
separate the spectrum branches.  Outliers are counted from the degree/
separator census and checked empirically against the spectrum tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse

from .assembly import (
    DiscreteOperator,
    NumericalError,
    assemble_layout,
)
from .eigensolve import Spectrum, solve_gevp
from .quadrature import QuadratureSpec, gauss_rule, map_rule_to_element
from .splines import BlockLayout, make_block_knots, span_basis_rows

__all__ = [
    "ExactMode",
    "ModeErrorBudget",
    "DofPartition",
    "BlockBubbleModes",
    "BandMatch",
    "StoppingBandReport",
    "OutlierReport",
    "FrequencyContent",
    "AmFit",
    "SingularInterfaceError",
    "exact_spectrum_1d",
    "exact_eigenvalues_2d",
    "l2_pair_inner",
    "eigenvalue_errors",
    "error_budget",
    "partition_dofs",
    "local_bubble_spectra",
    "detect_stopping_bands",
    "reconstruct_stopping_mode",
    "count_outliers",
    "outlier_report",
    "frequency_content",
    "coefficient_flatness",
    "am_fit",
    "convergence_study",
    "find_optimal_tau",
]


# two bubble eigenvalues this close (relative) are one band
_BAND_CLUSTER_TOL = 1e-9
# a block owns a band when one of its bubble eigenvalues is this close (relative)
_BUBBLE_MATCH_TOL = 1e-8
# outliers: relative eigenvalue error this many times the top-decile median
_OUTLIER_EV_RATIO = 10.0
# round-off level of the leading-mode eigenvalue error
_NOISE_FLOOR = 1e-13
# grid values (points x modes) per column block of the pair inner products:
# 8 MB per temporary, whatever the mesh
_PAIR_BLOCK_ENTRIES = 1 << 20


class SingularInterfaceError(NumericalError):
    """Interface block of the shifted pencil is numerically singular."""


# ---------------------------------------------------------------------------
# exact modes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactMode:
    """Closed-form eigenpair of the continuous problem on the unit interval."""

    index: int
    eigenvalue: float
    bc: str = "dirichlet"

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        j = self.index
        if self.bc == "dirichlet":
            return math.sqrt(2.0) * np.sin(j * math.pi * x)
        if j == 0:
            return np.ones_like(x)
        return math.sqrt(2.0) * np.cos(j * math.pi * x)


def exact_spectrum_1d(j: int, bc: str = "dirichlet") -> ExactMode:
    """Exact mode ``j``: eigenvalue ``(j pi)^2`` with unit-norm eigenfunction.

    Dirichlet modes are ``sqrt(2) sin(j pi x)`` for ``j >= 1``; Neumann modes
    are ``sqrt(2) cos(j pi x)`` with the constant mode at ``j = 0``.
    """
    if bc == "dirichlet" and j < 1:
        raise ValueError("Dirichlet mode index must be >= 1")
    if bc == "neumann" and j < 0:
        raise ValueError("Neumann mode index must be >= 0")
    if bc not in ("dirichlet", "neumann"):
        raise ValueError(f"unknown boundary condition {bc!r}")
    return ExactMode(j, (j * math.pi) ** 2, bc)


def exact_eigenvalues_2d(count_per_dir: int, bc: str = "dirichlet"):
    """All 2D eigenvalues ``(j^2 + k^2) pi^2`` sorted ascending.

    Returns ``(values, j_idx, k_idx)`` with a stable sort so that degenerate
    pairs keep lexicographic ``(j, k)`` order.
    """
    start = 1 if bc == "dirichlet" else 0
    js = np.arange(start, start + count_per_dir)
    J, K = np.meshgrid(js, js, indexing="ij")
    lam = (J.ravel() ** 2 + K.ravel() ** 2) * math.pi ** 2
    order = np.argsort(lam, kind="stable")
    return lam[order], J.ravel()[order], K.ravel()[order]


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------

def sample_matrix(op: DiscreteOperator, xs: np.ndarray) -> scipy.sparse.csr_matrix:
    """Sparse matrix mapping reduced coefficients to field values at ``xs``.

    A non-empty span ``[a, b)`` owns the points in it, and the last span also
    owns the right end of the domain; points outside the domain get zero rows.
    """
    kv = op.kv
    p = kv.p
    xs = np.asarray(xs, dtype=float)
    # seeded with empty arrays: a grid wholly outside the domain is all zeros
    rows, cols, vals = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)], [np.empty(0)]
    reduced = np.full(kv.n, -1, dtype=int)
    reduced[op.dof_indices] = np.arange(op.n_dofs)
    spans = kv.spans()
    lefts = np.array([a for _, a, _ in spans])
    rights = np.array([b for _, _, b in spans])
    owner = np.searchsorted(lefts, xs, side="right") - 1
    inside = (owner >= 0) & ((xs < rights[owner]) | (xs == rights[-1]))
    owner[~inside] = len(spans)
    # stable, so each span's points keep their input order
    order = np.argsort(owner, kind="stable")
    bounds = np.searchsorted(owner[order], np.arange(len(spans) + 1))
    for k, (span, _, _) in enumerate(spans):
        sel = order[bounds[k]:bounds[k + 1]]
        if sel.size == 0:
            continue
        first, N = span_basis_rows(kv, span, xs[sel])
        for r in range(p + 1):
            g = reduced[first + r]
            if g < 0:
                continue
            rows.append(sel)
            cols.append(np.full(sel.size, g))
            vals.append(N[:, r])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(xs.size, op.n_dofs))


def _pair_inner(op: DiscreteOperator, V: np.ndarray, js: np.ndarray, bc: str,
                subdivisions: int) -> np.ndarray:
    """L2 inner products of exact modes ``js`` with the columns of ``V``.

    Grid as in :func:`l2_pair_inner`; one sampling matrix for all columns,
    applied to blocks of columns so that the grid-sized temporaries hold at
    most ``_PAIR_BLOCK_ENTRIES`` values each."""
    rule = gauss_rule(op.kv.p + 2)
    xs, ws = [], []
    for _, a, b in op.kv.spans():
        edges = np.linspace(a, b, subdivisions + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            local = map_rule_to_element(rule, lo, hi)
            xs.append(local.nodes)
            ws.append(local.weights)
    xs, ws = np.concatenate(xs), np.concatenate(ws)
    S = sample_matrix(op, xs)
    width = max(1, _PAIR_BLOCK_ENTRIES // xs.size)
    out = np.empty(js.size)
    for lo in range(0, js.size, width):
        cols = slice(lo, lo + width)
        jb = js[cols]
        P = S @ V[:, cols]
        if bc == "dirichlet":
            U = math.sqrt(2.0) * np.sin(np.outer(xs, jb) * math.pi)
        else:  # the constant mode is 1, not sqrt(2) cos(0)
            U = np.where(jb == 0, 1.0, math.sqrt(2.0) * np.cos(np.outer(xs, jb) * math.pi))
        out[cols] = ws @ (U * P)
    return out


def _required_subdivisions(j: int, h: float) -> int:
    return max(1, math.ceil(j * h) + 1)


def l2_pair_inner(mode: ExactMode, v: np.ndarray, op: DiscreteOperator,
                  subdivisions: int | None = None) -> float:
    """L2 inner product of an exact mode with a discrete field.

    Integrates element by element with Gauss ``p + 2`` points on
    ``max(1, ceil(j h) + 1)`` equal subintervals per element, enough to
    resolve the oscillation of the exact mode; pass ``subdivisions``
    explicitly to check quadrature convergence.
    """
    if subdivisions is None:
        subdivisions = _required_subdivisions(mode.index, op.layout.h)
    V = np.asarray(v, dtype=float)[:, None]
    return float(_pair_inner(op, V, np.array([mode.index]), mode.bc, subdivisions)[0])


# ---------------------------------------------------------------------------
# error budgets
# ---------------------------------------------------------------------------

@dataclass
class ModeErrorBudget:
    """Terms of the (modified) Pythagorean eigenvalue error identity for one mode.

    ``ev_rel + ef_l2_sq + energy_gap + l2_deficit`` equals ``ef_energy_rel_sq``
    up to ``pythagoras_residual``; with exact quadrature the two gap terms
    vanish and the identity reduces to its classical three-term form.
    """

    j: int
    j_over_n0: float
    lambda_exact: float
    lambda_h: float
    ev_rel: float
    ef_l2_sq: float
    ef_energy_rel_sq: float
    energy_gap: float
    l2_deficit: float
    pythagoras_residual: float


def _exact_index(mode_number: int, bc: str) -> int:
    # discrete modes are numbered from 1; Neumann pairs mode 1 with j = 0
    return mode_number if bc == "dirichlet" else mode_number - 1


def eigenvalue_errors(spectrum: Spectrum, op: DiscreteOperator) -> np.ndarray:
    """Relative eigenvalue errors for all modes, paired in ascending order.

    The Neumann constant mode (exact eigenvalue zero) is reported as an
    absolute error.
    """
    js = np.array([_exact_index(m, op.bc) for m in range(1, spectrum.n_modes + 1)])
    lam = (js * math.pi) ** 2
    err = spectrum.eigenvalues - lam
    return np.divide(err, lam, out=err.copy(), where=lam != 0)


def error_budget(spectrum: Spectrum, op: DiscreteOperator,
                 modes=None) -> list[ModeErrorBudget]:
    """Per-mode error budgets, pairing discrete and exact modes by ascending order.

    Signs are aligned so that the pair inner product ``(u_j, v_j)`` is
    non-negative before eigenfunction errors are formed.  Energy inner
    products against exact modes use ``a(u_j, w) = lambda_j (u_j, w)``, exact
    for boundary-respecting fields, so no derivative quadrature is needed.

    For Neumann operators the constant mode (zero exact eigenvalue) is
    excluded from the budget.

    Cost for ``n`` dofs and ``m`` modes: the three quadratic forms
    ``v^T A v`` take O(n m p) from the stored bands, and the pair inner
    products O(Q m) on a grid of ``Q`` points.  Memory is O(n m) for the
    selected eigenvectors plus a few grid temporaries of at most
    ``_PAIR_BLOCK_ENTRIES`` doubles each; no dense operator is formed.
    """
    n = spectrum.n_modes
    if modes is None:
        modes = range(1, n + 1)
    modes = [int(m) for m in modes]
    if any(m < 1 or m > n for m in modes):
        raise ValueError(f"mode numbers must lie in [1, {n}]")
    if op.bc == "neumann":
        modes = [m for m in modes if _exact_index(m, op.bc) >= 1]
    n0 = op.layout.n_elements + op.kv.p - 2
    if n0 < 1:
        raise ValueError("error budget needs N0 = n_elements + p - 2 >= 1")

    V = spectrum.eigenvectors[:, [m - 1 for m in modes]]
    quad_me = op.M_exact.quadratic_forms(V)
    quad_ke = op.K_exact.quadratic_forms(V)
    quad_kq = op.K.quadratic_forms(V)

    # group modes by required subdivision count so the sampling matrix and
    # quadrature grid are built once per group
    h = op.layout.h
    groups: dict[int, list[int]] = {}
    for pos, m in enumerate(modes):
        s = _required_subdivisions(_exact_index(m, op.bc), h)
        groups.setdefault(s, []).append(pos)

    inner = np.empty(len(modes))
    for s, positions in groups.items():
        js = np.array([_exact_index(modes[pos], op.bc) for pos in positions])
        inner[positions] = _pair_inner(op, V[:, positions], js, op.bc, s)

    budgets = []
    for pos, m in enumerate(modes):
        j = _exact_index(m, op.bc)
        lam = (j * math.pi) ** 2
        lam_h = float(spectrum.eigenvalues[m - 1])
        uv = float(inner[pos])
        sign = 1.0 if uv >= 0.0 else -1.0
        uv *= sign
        vMv = float(quad_me[pos])
        vKv = float(quad_ke[pos])
        ev_rel = (lam_h - lam) / lam
        ef_l2 = 1.0 - 2.0 * uv + vMv
        ef_energy = (lam - 2.0 * lam * uv + vKv) / lam
        energy_gap = (vKv - float(quad_kq[pos])) / lam
        l2_deficit = 1.0 - vMv
        residual = ef_energy - (ev_rel + ef_l2 + energy_gap + l2_deficit)
        budgets.append(ModeErrorBudget(
            j=m, j_over_n0=m / n0, lambda_exact=lam, lambda_h=lam_h,
            ev_rel=ev_rel, ef_l2_sq=ef_l2, ef_energy_rel_sq=ef_energy,
            energy_gap=energy_gap, l2_deficit=l2_deficit,
            pythagoras_residual=residual,
        ))
    return budgets


# ---------------------------------------------------------------------------
# bubble / interface partition and stopping bands
# ---------------------------------------------------------------------------

@dataclass
class DofPartition:
    """Reduced degrees of freedom split into per-block bubbles and interfaces."""

    interface: np.ndarray          # reduced indices of separator functions
    bubbles: np.ndarray            # reduced indices of all bubble functions
    block_of_bubble: np.ndarray    # block index per entry of ``bubbles``
    n_blocks: int

    def block_bubbles(self, block: int) -> np.ndarray:
        return self.bubbles[self.block_of_bubble == block]


def partition_dofs(layout: BlockLayout) -> DofPartition:
    """Split degrees of freedom into separator interfaces and per-block bubbles.

    Only defined for ``C^0`` separators under Dirichlet conditions: each
    separator contributes exactly one basis function that is nonzero there
    (the interface), and every other function is supported inside a single
    block (a bubble).
    """
    if layout.separator_continuity != 0 and layout.n_separators > 0:
        raise ValueError("bubble/interface partition requires C^0 separators")
    if layout.bc != "dirichlet":
        raise ValueError("bubble/interface partition requires Dirichlet conditions")
    kv = make_block_knots(layout)
    p = kv.p
    seps = layout.separator_values()
    interface_basis = []
    for z in seps:
        last = int(np.max(np.where(np.abs(kv.knots - z) <= 1e-12)))
        interface_basis.append(last - p)
    interface_set = set(interface_basis)

    keep = np.arange(1, kv.n - 1)
    reduced_of = {g: r for r, g in enumerate(keep)}
    interface = np.array([reduced_of[g] for g in interface_basis], dtype=int)

    edges = np.concatenate([[0.0], seps, [1.0]])
    bubbles, block_of = [], []
    for r, g in enumerate(keep):
        if g in interface_set:
            continue
        lo, hi = kv.knots[g], kv.knots[g + p + 1]
        block = int(np.searchsorted(edges, 0.5 * (lo + hi)) - 1)
        if lo < edges[block] - 1e-12 or hi > edges[block + 1] + 1e-12:
            raise ValueError(f"dof {g} is neither interface nor single-block bubble")
        bubbles.append(r)
        block_of.append(block)
    return DofPartition(
        interface=interface,
        bubbles=np.array(bubbles, dtype=int),
        block_of_bubble=np.array(block_of, dtype=int),
        n_blocks=len(edges) - 1,
    )


@dataclass
class BlockBubbleModes:
    block: int
    dof_indices: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def local_bubble_spectra(op: DiscreteOperator, part: DofPartition) -> list[BlockBubbleModes]:
    """Solve the dense bubble pencil of every block."""
    Kd = op.K.to_dense()
    Md = op.M.to_dense()
    out = []
    for block in range(part.n_blocks):
        idx = part.block_bubbles(block)
        w, v = scipy.linalg.eigh(Kd[np.ix_(idx, idx)], Md[np.ix_(idx, idx)])
        out.append(BlockBubbleModes(block, idx, w, v))
    return out


@dataclass
class BandMatch:
    value: float
    nearest_global: float
    rel_gap: float
    global_index: int
    block_multiplicity: int


@dataclass
class StoppingBandReport:
    local_eigenvalues: list[np.ndarray]
    matches: list[BandMatch]
    band_count: int
    expected_count: int

    def matched_count(self, tol: float = 1e-6) -> int:
        return sum(1 for m in self.matches if m.rel_gap < tol)


def detect_stopping_bands(spectrum: Spectrum, local: list[BlockBubbleModes],
                          layout: BlockLayout) -> StoppingBandReport:
    """Match distinct interior-block bubble eigenvalues against the global spectrum.

    A stopping band is confirmed when a bubble eigenvalue coincides with a
    global eigenvalue (relative gap below the caller's tolerance, see
    :meth:`StoppingBandReport.matched_count`).  Blocks touching the domain
    boundary are only consulted when no interior block exists.  Without
    separators the Schur construction is vacuous and no bands are reported.
    """
    if layout.n_separators == 0:
        return StoppingBandReport(
            local_eigenvalues=[b.eigenvalues for b in local],
            matches=[], band_count=0, expected_count=0)
    n_blocks = len(local)
    pool = local[1:-1] if n_blocks > 2 else local
    values = np.sort(np.concatenate([b.eigenvalues for b in pool]))
    distinct, counts = [], []
    for v in values:
        if distinct and abs(v - distinct[-1]) <= _BAND_CLUSTER_TOL * abs(distinct[-1]):
            counts[-1] += 1
        else:
            distinct.append(float(v))
            counts.append(1)

    glob = spectrum.eigenvalues
    matches = []
    for v, c in zip(distinct, counts):
        i = int(np.searchsorted(glob, v))
        best, best_gap = None, np.inf
        for cand in (i - 1, i):
            if 0 <= cand < glob.size:
                gap = abs(glob[cand] - v) / abs(v)
                if gap < best_gap:
                    best, best_gap = cand, gap
        matches.append(BandMatch(v, float(glob[best]), float(best_gap), best, c))

    expected = layout.block_size + layout.p - 2
    return StoppingBandReport(
        local_eigenvalues=[b.eigenvalues for b in local],
        matches=matches,
        band_count=len(distinct),
        expected_count=expected,
    )


def reconstruct_stopping_mode(op: DiscreteOperator, part: DofPartition,
                              band_value: float,
                              local: list[BlockBubbleModes] | None = None) -> np.ndarray:
    """Reassemble a global stopping mode from local bubble eigenfunctions.

    The candidate space is the span of the per-block bubble eigenvectors at
    the band eigenvalue, extended by zero.  A Galerkin projection of the
    shifted pencil onto that space determines the combination weights; the
    interface values then follow by eliminating them through the interface
    block of the shifted system.  The mode comes back normalized against the
    exact mass matrix.

    Raises
    ------
    SingularInterfaceError
        If the interface block of the shifted pencil is singular.
    ValueError
        If no block owns a bubble eigenvalue at ``band_value``.
    """
    if local is None:
        local = local_bubble_spectra(op, part)
    n = op.n_dofs
    columns = []
    for modes in local:
        sel = np.where(np.abs(modes.eigenvalues - band_value)
                       <= _BUBBLE_MATCH_TOL * abs(band_value))[0]
        for s in sel:
            col = np.zeros(n)
            col[modes.dof_indices] = modes.eigenvectors[:, s]
            columns.append(col)
    if not columns:
        raise ValueError(f"{band_value} is not a bubble eigenvalue of any block")
    Phi = np.array(columns).T

    A = op.K.to_dense() - band_value * op.M.to_dense()
    i_idx = part.interface
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
    Me = op.M_exact.to_dense()
    U /= math.sqrt(U @ (Me @ U))
    lead = int(np.abs(U).argmax())
    if U[lead] < 0:
        U = -U
    return U


# ---------------------------------------------------------------------------
# outliers
# ---------------------------------------------------------------------------

def count_outliers(p: int, n_separators: int, bc: str = "dirichlet") -> int:
    """Predicted number of outlier modes for degree ``p`` and a separator count.

    The uniform-continuity contribution is two modes per odd degree starting
    from cubics under Dirichlet conditions, two per even degree under Neumann;
    each ``C^0`` separator adds ``p - 1`` more.
    """
    if p < 2:
        raise ValueError("outlier census requires degree >= 2")
    if n_separators < 0:
        raise ValueError("separator count must be >= 0")
    if bc == "dirichlet":
        base = 2 * ((p - 1) // 2)
    elif bc == "neumann":
        base = 2 * (p // 2)
    else:
        raise ValueError(f"unknown boundary condition {bc!r}")
    return base + (p - 1) * n_separators


def coefficient_flatness(v: np.ndarray) -> float:
    """Peak-to-median magnitude ratio of the coefficient-sequence spectrum.

    The coefficient sequence is extended to an odd function (its boundary
    values vanish under Dirichlet conditions) before the transform, matching
    the sine-series structure of the modes.  Outlier modes are localized at
    knot clusters, so their control-point sequence has a broadband spectrum
    and a ratio close to one; resolved modes are near-pure waves with a
    ratio many orders larger.
    """
    v = np.asarray(v, dtype=float)
    g = np.concatenate([v, [0.0], -v[::-1], [0.0]])
    mags = np.abs(np.fft.rfft(g))[1:v.size // 2 + 1]
    return float(mags.max() / np.median(mags))


@dataclass
class OutlierModeInfo:
    mode: int
    ev_rel: float
    ev_ratio: float          # vs. median of the top decile
    flatness: float          # coefficient-spectrum peak/median
    dominant_frequencies: tuple
    am: "AmFit"
    content: "FrequencyContent"


@dataclass
class OutlierReport:
    predicted: int
    observed_indices: list[int]
    empirical_count: int
    decile_median: float
    outliers: list[OutlierModeInfo]


def outlier_report(spectrum: Spectrum, op: DiscreteOperator) -> OutlierReport:
    """Census of the spectrum tail: predicted vs. empirically flagged outliers.

    A top mode counts as empirically flagged while its relative eigenvalue
    error is at least ten times the median error of the top
    decile (a reporting convention; the census formula is authoritative).
    """
    n = spectrum.n_modes
    ev = eigenvalue_errors(spectrum, op)
    decile = ev[-max(n // 10, 1):]
    med = float(np.median(np.abs(decile)))
    predicted = count_outliers(op.kv.p, op.layout.n_separators, op.bc)

    empirical = 0
    for m in range(n, 0, -1):
        if med > 0 and abs(ev[m - 1]) >= _OUTLIER_EV_RATIO * med:
            empirical += 1
        else:
            break

    observed = list(range(n - predicted + 1, n + 1))
    # one sampling for all outlier modes; contiguous rows keep results bitwise
    V = spectrum.eigenvectors[:, n - predicted:]
    fields = np.ascontiguousarray((sample_matrix(op, _sample_grid(op)) @ V).T)
    infos = []
    for m, f in zip(observed, fields):
        fc = _frequency_content(f, op.bc)
        infos.append(OutlierModeInfo(
            mode=m,
            ev_rel=float(ev[m - 1]),
            ev_ratio=float(abs(ev[m - 1]) / med) if med > 0 else math.inf,
            flatness=coefficient_flatness(spectrum.eigenvectors[:, m - 1]),
            dominant_frequencies=tuple(fr for fr, _ in fc.dominant_peaks(2)),
            am=_two_wave_fit(f, fc, op),
            content=fc,
        ))
    return OutlierReport(predicted, observed, empirical, med, infos)


# ---------------------------------------------------------------------------
# frequency content and AM fits
# ---------------------------------------------------------------------------

@dataclass
class FrequencyContent:
    """Magnitude spectrum of a discrete eigenfunction on half-cycle bins.

    ``frequencies[k] = k / 2`` cycles per unit length, i.e. bin ``k`` carries
    the content of the exact mode ``k``.
    """

    frequencies: np.ndarray
    magnitudes: np.ndarray

    def dominant_peaks(self, count: int = 2) -> list[tuple[float, float]]:
        """Largest local maxima as ``(frequency, magnitude)`` pairs."""
        m = self.magnitudes
        interior = np.where((m[1:-1] > m[:-2]) & (m[1:-1] > m[2:]))[0] + 1
        order = interior[np.argsort(-m[interior], kind="stable")]
        return [(float(self.frequencies[k]), float(m[k])) for k in order[:count]]


def _sample_grid(op: DiscreteOperator, samples: int | None = None) -> np.ndarray:
    """Uniform grid ``k / samples`` of the frequency analysis, validated."""
    n = op.n_dofs
    if samples is None:
        samples = 1 << max(int(math.ceil(math.log2(4 * n))), 3)
    if samples & (samples - 1) or samples < 2 * n:
        raise ValueError(
            f"samples must be a power of two >= {2 * n}, got {samples}"
        )
    return np.arange(samples) / samples


def _frequency_content(f: np.ndarray, bc: str) -> FrequencyContent:
    """Half-cycle magnitude spectrum of a field sampled on :func:`_sample_grid`."""
    if bc == "dirichlet":
        g = np.concatenate([f, [0.0], -f[1:][::-1]])
    else:
        g = np.concatenate([f, f[::-1]])
    mags = np.abs(np.fft.rfft(g)) / f.size
    freqs = 0.5 * np.arange(mags.size)
    return FrequencyContent(freqs, mags)


def frequency_content(v: np.ndarray, op: DiscreteOperator,
                      samples: int | None = None) -> FrequencyContent:
    """Sample the eigenfunction uniformly and transform to half-cycle bins.

    The field is extended to an odd (Dirichlet) or even (Neumann) function
    over a doubled period before the transform, so bin ``k`` corresponds to
    ``sin(k pi x)`` respectively ``cos(k pi x)``; a pure exact mode ``j``
    yields a single peak at frequency ``j / 2`` cycles per unit length.

    ``samples`` must be a power of two of at least twice the number of
    degrees of freedom (default: the smallest power of two at or above four
    times).
    """
    f = sample_matrix(op, _sample_grid(op, samples)) @ np.asarray(v, dtype=float)
    return _frequency_content(f, op.bc)


@dataclass
class AmFit:
    """Two-wave amplitude-modulation fit of a near-top eigenfunction.

    ``f2`` is undefined (``None``) for single-peak modes.  The frequency-link
    defect is reported against both plausible mode-count conventions, the
    number of degrees of freedom and the number of elements.
    """

    a1: float
    f1: float
    a2: float
    f2: float | None
    defect_dofs: float | None
    defect_elements: float | None
    misfit: float


def _two_wave_fit(f: np.ndarray, fc: FrequencyContent,
                  op: DiscreteOperator) -> AmFit:
    """AM fit of a field sampled on :func:`_sample_grid` with its spectrum ``fc``."""
    n = op.n_dofs
    n_el = op.layout.n_elements
    peaks = fc.dominant_peaks(2)
    if not peaks:
        raise ValueError("eigenfunction has no spectral peak")
    a1, f1 = peaks[0][1], peaks[0][0]
    if len(peaks) < 2:
        a2, f2 = 0.0, None
    else:
        a2, f2 = peaks[1][1], peaks[1][0]

    xs = np.arange(f.size) / f.size
    even_degree = op.kv.p % 2 == 0
    use_sine = even_degree if op.bc == "dirichlet" else not even_degree
    two_pi = 2.0 * math.pi

    def wave(freq):
        arg = two_pi * freq * xs
        return np.sin(arg) if use_sine else np.cos(arg)

    model = a1 * wave(f1)
    if f2 is not None:
        model = model - a2 * wave(f2) if use_sine else model + a2 * wave(f2)
    norm = np.linalg.norm(f)
    misfit = min(np.linalg.norm(f - s * model) for s in (1.0, -1.0)) / norm

    defect_dofs = abs(f2 - (n - f1)) if f2 is not None else None
    defect_elems = abs(f2 - (n_el - f1)) if f2 is not None else None
    return AmFit(a1, f1, a2, f2, defect_dofs, defect_elems, float(misfit))


def am_fit(v: np.ndarray, op: DiscreteOperator) -> AmFit:
    """Fit the two dominant spectral peaks with a sine or cosine pair.

    Even degrees use the sine pair ``A1 sin(2 pi f1 x) - A2 sin(2 pi f2 x)``,
    odd degrees the cosine pair with a plus sign; Neumann conditions swap the
    trigonometric families.  The relative L2 misfit between the sampled field
    and the model (over the best global sign) is reported as a diagnostic.
    """
    f = sample_matrix(op, _sample_grid(op)) @ np.asarray(v, dtype=float)
    return _two_wave_fit(f, _frequency_content(f, op.bc), op)


# ---------------------------------------------------------------------------
# branch structure
# ---------------------------------------------------------------------------

def branch_count(spectrum: Spectrum, op: DiscreteOperator,
                 j_max: int | None = None) -> int:
    """Number of spectrum branches inside a mode window, from the band positions.

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
    local = local_bubble_spectra(op, partition_dofs(op.layout))
    report = detect_stopping_bands(spectrum, local, op.layout)
    if j_max is None:
        j_max = op.layout.n_elements + op.kv.p - 2
    interior = sum(1 for m in report.matches if 1 < m.global_index + 1 < j_max)
    return interior + 1


# ---------------------------------------------------------------------------
# convergence studies and optimal blending
# ---------------------------------------------------------------------------

def leading_mode_error(layout: BlockLayout,
                       quadrature: QuadratureSpec | None = None) -> float:
    """Relative eigenvalue error of the first non-constant mode (exact ``pi^2``).

    Under Neumann conditions the constant mode comes first, so the measured
    mode is the second one of the spectrum.
    """
    op = assemble_layout(layout, quadrature)
    spec = solve_gevp(op)
    first = 0 if layout.bc == "dirichlet" else 1
    lam = math.pi ** 2
    return float((spec.eigenvalues[first] - lam) / lam)


def convergence_study(layouts, quadrature: QuadratureSpec | None = None):
    """Mesh sizes, leading-mode errors, and the fitted convergence slope.

    ``layouts`` is one mesh per size, at least three distinct sizes.  The
    slope is the least-squares fit of ``log |error|`` against ``log h``.
    Errors within a decade of the noise floor ``1e-13`` are dominated by
    eigensolver round-off (absolute eigenvalue noise scales with the largest
    eigenvalue) and are excluded from the fit; all measured values are still
    returned.
    """
    layouts = list(layouts)
    hs = np.array([layout.h for layout in layouts])
    if np.unique(hs).size < 3:
        raise ValueError("need at least three distinct mesh sizes for a slope fit")
    errs = np.array([leading_mode_error(layout, quadrature) for layout in layouts])
    keep = np.abs(errs) >= 10.0 * _NOISE_FLOOR
    if np.unique(hs[keep]).size < 2:
        raise NumericalError("errors below the round-off floor on nearly all meshes")
    slope = float(np.polyfit(np.log(hs[keep]), np.log(np.abs(errs[keep])), 1)[0])
    return hs, errs, slope


def find_optimal_tau(p: int, n_elements: int = 32) -> float:
    """Blending parameter that cancels the leading eigenvalue error term.

    Solves for the root of the leading-mode error as a function of ``tau`` at
    a fixed mesh; the root converges to the optimal blend as the mesh is
    refined.  The error is close to affine in ``tau`` (the matrices are), so
    two samples give a bracket that is then polished by Brent's method.  The
    root is not confined to ``[0, 1]``: higher degrees need non-convex
    blends.  No tabulated constants are assumed.
    """
    def f(tau: float) -> float:
        return leading_mode_error(BlockLayout.iga(n_elements, p),
                                  QuadratureSpec("blended", tau=tau))

    f0, f1 = f(0.0), f(1.0)
    if f0 == f1:
        raise NumericalError("blending has no effect on the leading error")
    guess = f0 / (f0 - f1)
    lo, hi = guess - 0.5, guess + 0.5
    flo, fhi = f(lo), f(hi)
    for _ in range(60):
        if flo * fhi <= 0.0:
            break
        lo, hi = lo - 0.5, hi + 0.5
        flo, fhi = f(lo), f(hi)
    else:
        raise NumericalError(f"no blending root near tau = {guess:.3f}")
    return float(scipy.optimize.brentq(f, lo, hi, xtol=1e-10))
