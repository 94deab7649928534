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
import scipy.optimize
import scipy.sparse

from .assembly import (
    DiscreteOperator,
    NumericalError,
    assemble_layout,
)
from .eigensolve import (Spectrum, _band_eigenvalues, polish_eigenvalue,
                         solve_eigenvalues)
from .quadrature import QuadratureSpec, gauss_rule, map_rule_to_element
from .splines import BlockLayout, span_basis_rows

__all__ = [
    "ErrorBudget",
    "BandMatch",
    "StoppingBandReport",
    "OutlierReport",
    "FrequencyContent",
    "AmFit",
    "exact_spectrum",
    "eigenvalue_errors",
    "eigenvalue_errors_2d",
    "error_budget",
    "partition_dofs",
    "local_bubble_spectra",
    "detect_stopping_bands",
    "count_outliers",
    "outlier_report",
    "coefficient_flatness",
    "convergence_study",
    "find_optimal_tau",
]


# two bubble eigenvalues this close (relative) are one band
_BAND_CLUSTER_TOL = 1e-9
# a band is matched when a global eigenvalue lies this close (relative)
_BAND_MATCH_TOL = 1e-6
# outliers: relative eigenvalue error this many times the top-decile median
_OUTLIER_EV_RATIO = 10.0
# round-off level of the leading-mode eigenvalue error
_NOISE_FLOOR = 1e-13
# grid values (points x modes) per column block of the pair inner products:
# 8 MB per temporary, whatever the mesh
_PAIR_BLOCK_ENTRIES = 1 << 20


# ---------------------------------------------------------------------------
# exact spectrum
# ---------------------------------------------------------------------------

def exact_spectrum(n_modes: int, bc: str = "dirichlet") -> tuple[np.ndarray, np.ndarray]:
    """Exact wavenumbers ``j`` and eigenvalues ``(j pi)^2`` of discrete modes
    ``1 .. n_modes``, the one pairing of discrete and exact modes: in ascending
    order, mode ``m`` meets ``sin(m pi x)`` under Dirichlet conditions and
    ``cos((m - 1) pi x)`` under Neumann conditions (the constant mode first).
    """
    js = np.arange(n_modes) + (1 if bc == "dirichlet" else 0)
    return js, (js * math.pi) ** 2


def _relative_errors(discrete, exact) -> np.ndarray:
    """``(discrete - exact) / exact``, absolute where the exact eigenvalue is
    zero (the Neumann constant mode)."""
    err = np.subtract(discrete, exact)
    return np.divide(err, exact, out=np.array(err), where=exact != 0)


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
    reduced = np.full(kv.n, -1, dtype=int)
    reduced[op.dof_indices] = np.arange(op.n_dofs)
    spans = kv.spans()
    lefts, rights = kv.knots[spans], kv.knots[spans + 1]
    owner = np.searchsorted(lefts, xs, side="right") - 1
    inside = (owner >= 0) & ((xs < rights[owner]) | (xs == rights[-1]))
    points = np.flatnonzero(inside)
    first, N = span_basis_rows(kv, spans[owner[points]], xs[points])
    cols = reduced[first[:, None] + np.arange(p + 1)]
    rows = np.broadcast_to(points[:, None], cols.shape)
    kept = cols >= 0
    return scipy.sparse.csr_matrix((N[kept], (rows[kept], cols[kept])),
                                   shape=(xs.size, op.n_dofs))


def _pair_inner(op: DiscreteOperator, V: np.ndarray, js: np.ndarray,
                subdivisions: int) -> np.ndarray:
    """L2 inner products of exact modes ``js`` with the columns of ``V``.

    Integrates element by element with Gauss ``p + 2`` points on
    ``subdivisions`` equal subintervals per element; ``ceil(j h) + 1`` of
    them resolve the oscillation of exact mode ``j >= 1``.  One sampling matrix
    serves all columns, applied to blocks of columns so that the grid-sized
    temporaries hold at most ``_PAIR_BLOCK_ENTRIES`` values each.

    ``js`` are consecutive wavenumbers.  The exact modes come from the angle
    addition formula: one table of ``sin`` and ``cos`` of the offsets
    ``d = 0 .. width - 1`` within a column block serves every block, shifted
    by the block's first wavenumber ``j0``.  With ``width`` near
    ``sqrt(len(js))`` that takes about ``4 sqrt(len(js))`` transcendental
    calls per grid point, against ``len(js)`` for each mode on its own."""
    if np.any(np.diff(js) != 1):
        raise ValueError("pair inner products need consecutive wavenumbers")
    kv = op.kv
    spans = kv.spans()
    edges = np.linspace(kv.knots[spans], kv.knots[spans + 1], subdivisions + 1, axis=1)
    xs, ws = map_rule_to_element(gauss_rule(kv.p + 2), edges[:, :-1], edges[:, 1:])
    xs, ws = xs.ravel(), ws.ravel()
    S = sample_matrix(op, xs)
    width = max(1, min(math.isqrt(max(js.size, 1) - 1) + 1,  # ceil(sqrt(len(js)))
                       _PAIR_BLOCK_ENTRIES // xs.size))
    offsets = np.outer(xs, np.arange(width) * math.pi)
    sin_d, cos_d = np.sin(offsets), np.cos(offsets)
    del offsets
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


def _required_subdivisions(js: np.ndarray, h: float) -> np.ndarray:
    return np.ceil(js * h).astype(int) + 1


# ---------------------------------------------------------------------------
# error budgets
# ---------------------------------------------------------------------------

@dataclass
class ErrorBudget:
    """Terms of the (modified) Pythagorean eigenvalue error identity, one entry
    per budgeted mode ``j`` (the discrete mode's number, from 1).

    ``ev_rel + ef_l2_sq + energy_gap + l2_deficit`` equals ``ef_energy_rel_sq``
    up to ``pythagoras_residual``; with exact quadrature the two gap terms
    vanish and the identity reduces to its classical three-term form.
    """

    j: np.ndarray
    j_over_n0: np.ndarray
    lambda_exact: np.ndarray
    lambda_h: np.ndarray
    ev_rel: np.ndarray
    ef_l2_sq: np.ndarray
    ef_energy_rel_sq: np.ndarray
    energy_gap: np.ndarray
    l2_deficit: np.ndarray
    pythagoras_residual: np.ndarray


def eigenvalue_errors(spectrum: Spectrum, op: DiscreteOperator) -> np.ndarray:
    """Relative eigenvalue errors for all modes, paired with exact modes by
    :func:`exact_spectrum`.

    The Neumann constant mode (exact eigenvalue zero) is reported as an
    absolute error.
    """
    _, lam = exact_spectrum(spectrum.n_modes, op.bc)
    return _relative_errors(spectrum.eigenvalues, lam)


def eigenvalue_errors_2d(lam1: np.ndarray, bc: str = "dirichlet"):
    """``(j, k, lambda_exact, lambda_h, ev_rel)`` of every mode on the unit square.

    The discrete eigenvalues are the pairwise sums of the 1D ones ``lam1``,
    the exact ones ``(j^2 + k^2) pi^2`` over the wavenumbers of
    :func:`exact_spectrum`.  Both are sorted ascending (stably, so degenerate
    exact pairs keep lexicographic order) and paired in that order.
    """
    js, _ = exact_spectrum(lam1.size, bc)
    J, K = (a.ravel() for a in np.meshgrid(js, js, indexing="ij"))
    exact = (J ** 2 + K ** 2) * math.pi ** 2
    order = np.argsort(exact, kind="stable")
    exact = exact[order]
    discrete = np.sort(np.add.outer(lam1, lam1).ravel(), kind="stable")
    return J[order], K[order], exact, discrete, _relative_errors(discrete, exact)


def error_budget(spectrum: Spectrum, op: DiscreteOperator) -> ErrorBudget:
    """Error budgets of every mode, paired with exact modes by
    :func:`exact_spectrum`.

    Signs are aligned so that the pair inner product ``(u_j, v_j)`` is
    non-negative before eigenfunction errors are formed.  Energy inner
    products against exact modes use ``a(u_j, w) = lambda_j (u_j, w)``, exact
    for boundary-respecting fields, so no derivative quadrature is needed.

    For Neumann operators the constant mode (zero exact eigenvalue) is
    excluded from the budget.

    The exact terms ``v^T M v`` and ``v^T K v`` come from the reference
    pencil under Gauss ``p + 1`` points, which integrates both the mass
    (degree ``2p``) and stiffness (degree ``2p - 2``) integrands exactly.
    Under that rule ``op`` is its own reference; any other rule re-assembles
    the layout once.

    Cost for ``n`` dofs and ``m`` modes: the three quadratic forms
    ``v^T A v`` take O(n m p) from the stored bands, and the pair inner
    products O(Q m) on a grid of ``Q`` points.  Memory is O(n m) for the
    selected eigenvectors plus a few grid temporaries of at most
    ``_PAIR_BLOCK_ENTRIES`` doubles each; no dense operator is formed.
    """
    p = op.kv.p
    n0 = op.layout.n_elements + p - 2
    if n0 < 1:
        raise ValueError("error budget needs N0 = n_elements + p - 2 >= 1")
    q = op.quadrature
    is_reference = q.kind == "gauss" and q.n_points(p) == p + 1
    exact = op if is_reference else assemble_layout(op.layout)

    js, lam = exact_spectrum(spectrum.n_modes, op.bc)
    cols = np.flatnonzero(js)  # every mode but the Neumann constant one
    js, lam = js[cols], lam[cols]
    lam_h = spectrum.eigenvalues[cols]
    V = spectrum.eigenvectors[:, cols]
    vMv = exact.M.quadratic_forms(V)
    vKv = exact.K.quadratic_forms(V)
    vKq = op.K.quadratic_forms(V)

    # one sampling matrix and quadrature grid per required subdivision count
    subdivisions = _required_subdivisions(js, op.layout.h)
    uv = np.empty(js.size)
    for s in np.unique(subdivisions):
        group = np.flatnonzero(subdivisions == s)
        uv[group] = _pair_inner(op, V[:, group], js[group], s)
    uv = np.abs(uv)

    ev_rel = _relative_errors(lam_h, lam)
    ef_l2 = 1.0 - 2.0 * uv + vMv
    ef_energy = (lam - 2.0 * lam * uv + vKv) / lam
    energy_gap = (vKv - vKq) / lam
    l2_deficit = 1.0 - vMv
    return ErrorBudget(
        j=cols + 1, j_over_n0=(cols + 1) / n0, lambda_exact=lam, lambda_h=lam_h,
        ev_rel=ev_rel, ef_l2_sq=ef_l2, ef_energy_rel_sq=ef_energy,
        energy_gap=energy_gap, l2_deficit=l2_deficit,
        pythagoras_residual=ef_energy - (ev_rel + ef_l2 + energy_gap + l2_deficit),
    )


# ---------------------------------------------------------------------------
# bubble / interface partition and stopping bands
# ---------------------------------------------------------------------------

def partition_dofs(layout: BlockLayout) -> list[np.ndarray]:
    """Reduced indices of every block's bubble functions, one contiguous range
    per block.

    Only defined for ``C^0`` separators under Dirichlet conditions.  A block of
    ``B`` elements then holds ``B + p - 2`` bubbles, supported inside it, and
    each separator adds one interface function, the index right after the
    bubbles of the block to its left.
    """
    if layout.separator_continuity != 0 and layout.n_separators > 0:
        raise ValueError("bubble/interface partition requires C^0 separators")
    if layout.bc != "dirichlet":
        raise ValueError("bubble/interface partition requires Dirichlet conditions")
    sizes = [layout.block_size] * layout.n_separators
    sizes.append(layout.n_elements - layout.block_size * layout.n_separators)
    blocks, start = [], 0
    for size in sizes:
        count = size + layout.p - 2
        blocks.append(np.arange(start, start + count))
        start += count + 1
    return blocks


def local_bubble_spectra(op: DiscreteOperator,
                         blocks: list[np.ndarray]) -> list[np.ndarray]:
    """Eigenvalues of the bubble pencil of every block of
    :func:`partition_dofs`, one ascending array per block.

    A block's bubbles are contiguous, so each pencil is its slice of the
    stored bands, solved on those bands like
    :func:`~splinespectra.eigensolve.solve_eigenvalues`; no dense matrix is
    formed.
    """
    return [_band_eigenvalues(op.K.restricted(idx), op.M.restricted(idx))
            for idx in blocks]


@dataclass
class BandMatch:
    value: float
    nearest_global: float
    rel_gap: float
    global_index: int
    block_multiplicity: int


@dataclass
class StoppingBandReport:
    matches: list[BandMatch]
    expected_count: int

    @property
    def band_count(self) -> int:
        return len(self.matches)

    def matched_count(self) -> int:
        """Bands with a global eigenvalue within ``1e-6`` (relative)."""
        return sum(1 for m in self.matches if m.rel_gap < _BAND_MATCH_TOL)


def detect_stopping_bands(eigenvalues: np.ndarray, local: list[np.ndarray],
                          layout: BlockLayout) -> StoppingBandReport:
    """Match distinct interior-block bubble eigenvalues against the global spectrum.

    ``eigenvalues`` is the ascending global spectrum and ``local`` the bubble
    eigenvalues of each block, from :func:`local_bubble_spectra`.

    A stopping band is confirmed when a bubble eigenvalue coincides with a
    global eigenvalue (see :meth:`StoppingBandReport.matched_count`).  Blocks
    touching the domain boundary are only consulted when no interior block
    exists.  Without separators the Schur construction is vacuous and no
    bands are reported.
    """
    if layout.n_separators == 0:
        return StoppingBandReport(matches=[], expected_count=0)
    n_blocks = len(local)
    pool = local[1:-1] if n_blocks > 2 else local
    values = np.sort(np.concatenate(pool))
    distinct, counts = [], []
    for v in values:
        if distinct and abs(v - distinct[-1]) <= _BAND_CLUSTER_TOL * abs(distinct[-1]):
            counts[-1] += 1
        else:
            distinct.append(float(v))
            counts.append(1)

    matches = []
    for v, c in zip(distinct, counts):
        i = int(np.searchsorted(eigenvalues, v))
        best, best_gap = None, np.inf
        for cand in (i - 1, i):
            if 0 <= cand < eigenvalues.size:
                gap = abs(eigenvalues[cand] - v) / abs(v)
                if gap < best_gap:
                    best, best_gap = cand, gap
        matches.append(BandMatch(v, float(eigenvalues[best]), float(best_gap), best, c))

    # one band per bubble of a full block; the first block is always full
    return StoppingBandReport(matches=matches, expected_count=local[0].size)


# ---------------------------------------------------------------------------
# outliers
# ---------------------------------------------------------------------------

def count_outliers(p: int, n_separators: int, bc: str = "dirichlet",
                   continuity: int = 0) -> int:
    """Predicted number of outlier modes for degree ``p`` and a separator count.

    The uniform-continuity contribution is two modes per odd degree starting
    from cubics under Dirichlet conditions, two per even degree under Neumann;
    each ``C^0`` separator adds ``p - 1`` more.  A separator of continuity
    ``p - 1`` is a simple knot and adds none; the census covers no continuity
    in between.
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
    if continuity not in (0, p - 1) and n_separators > 0:
        raise ValueError("outlier census requires C^0 or C^(p-1) separators")
    per_separator = p - 1 if continuity == 0 else 0
    return base + per_separator * n_separators


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
    am: "AmFit"
    content: "FrequencyContent"


@dataclass
class OutlierReport:
    predicted: int
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
    layout = op.layout
    predicted = count_outliers(layout.p, layout.n_separators, layout.bc,
                               layout.separator_continuity)

    empirical = 0
    for m in range(n, 0, -1):
        if med > 0 and abs(ev[m - 1]) >= _OUTLIER_EV_RATIO * med:
            empirical += 1
        else:
            break

    # one sampling for all outlier modes; contiguous rows keep results bitwise
    V = spectrum.eigenvectors[:, n - predicted:]
    fields = np.ascontiguousarray((sample_matrix(op, _sample_grid(op)) @ V).T)
    infos = []
    for m, f in zip(range(n - predicted + 1, n + 1), fields):
        fc = _frequency_content(f, op.bc)
        infos.append(OutlierModeInfo(
            mode=m,
            ev_rel=float(ev[m - 1]),
            ev_ratio=float(abs(ev[m - 1]) / med) if med > 0 else math.inf,
            flatness=coefficient_flatness(spectrum.eigenvectors[:, m - 1]),
            am=_two_wave_fit(f, fc, op),
            content=fc,
        ))
    return OutlierReport(predicted, empirical, med, infos)


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


def _sample_grid(op: DiscreteOperator) -> np.ndarray:
    """Uniform grid ``k / samples`` of the frequency analysis: ``samples`` is
    the smallest power of two at or above four times the number of degrees of
    freedom (at least 8)."""
    samples = 1 << max(int(math.ceil(math.log2(4 * op.n_dofs))), 3)
    return np.arange(samples) / samples


def _frequency_content(f: np.ndarray, bc: str) -> FrequencyContent:
    """Half-cycle magnitude spectrum of a field sampled on :func:`_sample_grid`.

    The field is extended to an odd (Dirichlet) or even (Neumann) function
    over a doubled period before the transform, so bin ``k`` corresponds to
    ``sin(k pi x)`` respectively ``cos(k pi x)``; a pure exact mode ``j``
    yields a single peak at frequency ``j / 2`` cycles per unit length.
    """
    if bc == "dirichlet":
        g = np.concatenate([f, [0.0], -f[1:][::-1]])
    else:
        g = np.concatenate([f, f[::-1]])
    mags = np.abs(np.fft.rfft(g)) / f.size
    freqs = 0.5 * np.arange(mags.size)
    return FrequencyContent(freqs, mags)


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
    """AM fit of a field sampled on :func:`_sample_grid` with its spectrum ``fc``.

    The two dominant spectral peaks are fitted with a sine or cosine pair:
    even degrees use ``A1 sin(2 pi f1 x) - A2 sin(2 pi f2 x)``, odd degrees
    the cosine pair with a plus sign; Neumann conditions swap the families.
    The relative L2 misfit between the field and the model (over the best
    global sign) is reported as a diagnostic.
    """
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


# ---------------------------------------------------------------------------
# convergence studies and optimal blending
# ---------------------------------------------------------------------------

def leading_mode_error(layout: BlockLayout,
                       quadrature: QuadratureSpec | None = None) -> float:
    """Relative eigenvalue error of the first non-constant mode (exact ``pi^2``).

    Under Neumann conditions the constant mode comes first, so the measured
    mode is the second one of the spectrum.  The values-only solve locates
    the mode, and :func:`~splinespectra.eigensolve.polish_eigenvalue` returns
    its Rayleigh quotient, free of the solve's absolute round-off.
    """
    op = assemble_layout(layout, quadrature)
    js, lam = exact_spectrum(op.n_dofs, layout.bc)
    first = int(np.searchsorted(js, 1))
    lam_h = polish_eigenvalue(op, solve_eigenvalues(op)[first])
    return float(_relative_errors(lam_h, lam[first]))


def convergence_study(layouts, quadrature: QuadratureSpec | None = None):
    """Mesh sizes, leading-mode errors, and the fitted convergence slope.

    ``layouts`` is one mesh per size, at least three distinct sizes.  The
    slope is the least-squares fit of ``log |error|`` against ``log h``.
    Each error comes from :func:`leading_mode_error`, whose Rayleigh
    quotient is free of the solve's absolute round-off (about
    ``n eps lambda_max``).  The quotient has round-off of its own: errors
    within a decade of the noise floor ``1e-13`` are at that level and are
    excluded from the fit, but all measured values are still returned.
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
