"""Spectrum diagnostics: error budgets, stopping bands, outliers, frequency content.

Per-mode error budgets implement the Pythagorean eigenvalue error identity and
its generalization to modified (under-integrated) inner products.  With exact
quadrature, the relative eigenvalue error and the scaled L2 eigenfunction
error sum to the relative energy-norm eigenfunction error; with a modified
inner product two extra terms appear (the discrete energy-norm gap, which
vanishes in 1D, and the L2 normalization deficit).

Stopping bands are diagnosed by partitioning the degrees of freedom into
per-block bubbles and separator interfaces: each eigenvalue of a block's
bubble pencil reappears in the global spectrum as a stopping band, pinning an
error spike between two spectrum branches.  Blocks of one size share their
pencil, which is solved once.  Outliers are counted from the degree/separator
census and checked empirically against the spectrum tail.

Every report is a table of columns: :class:`ErrorBudget` holds one array per
term, :class:`StoppingBandReport` one per band property and
:class:`OutlierReport` one per outlier property, plus each outlier's
magnitude spectrum as one row of a matrix.  Row ``k`` of every column
describes the same mode or band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .assembly import (
    DiscreteOperator,
    NumericalError,
    _quadratic_forms,
    assemble_layout,
)
from .eigensolve import (Spectrum, _band_eigenvalues, _BlochSpectrum, polish_eigenvalue,
                         solve_eigenvalues)
from .quadrature import QuadratureSpec, gauss_rule, map_rule_to_element
from .splines import BlockLayout, span_basis_rows

__all__ = [
    "ErrorBudget",
    "StoppingBandReport",
    "OutlierReport",
    "exact_spectrum",
    "eigenvalue_errors",
    "eigenvalue_errors_2d",
    "error_budget",
    "partition_dofs",
    "detect_stopping_bands",
    "count_outliers",
    "outlier_report",
    "coefficient_flatness",
    "convergence_study",
    "find_optimal_tau",
]


# sorted bubble eigenvalues this close (relative) to their lower neighbour are one band
_BAND_CLUSTER_TOL = 1e-9
# a band is matched when a global eigenvalue lies this close (relative)
_BAND_MATCH_TOL = 1e-6
# outliers: relative eigenvalue error this many times the top-decile median
_OUTLIER_EV_RATIO = 10.0
# round-off level of the leading-mode eigenvalue error
_NOISE_FLOOR = 1e-13
# (function, element) x modes entries per column block of the pair inner
# products, and per moment or pattern table of a chunk of factored columns:
# 1 MB per temporary, whatever the mesh
_PAIR_BLOCK_ENTRIES = 1 << 17


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


def _pair_inner(op: DiscreteOperator, subdivisions: int):
    """L2 inner products of exact modes with discrete fields, as a function
    ``inner(V, js)`` of the exact modes ``js`` and one column of ``V`` per mode.

    Integrates element by element with Gauss ``p + 2`` points on
    ``subdivisions`` equal subintervals per element; ``ceil(j h) + 1`` of
    them resolve the oscillation of exact mode ``j >= 1``.  The grid, the
    basis values and the phase tables are built once, for every block of
    columns the function is then given.

    The sum runs over element load moments, with no grid of field values.
    Every element of the uniform mesh carries the same local offsets ``t``
    and weights ``w``, so with ``a_e = e h`` the angle addition formula gives
    ``(u_j, v) = sqrt(2) sum_e sum_a V[r(e, a), j] (sin(j pi a_e) C[e, a, j]
    + cos(j pi a_e) S[e, a, j])`` (the ``cos(a + b)`` form under Neumann
    conditions).  ``r(e, a)`` is the reduced index of the element's ``a``-th
    function, and ``C = (w N) @ cos(j pi t)`` and ``S = (w N) @ sin(j pi t)``
    are one matrix product each.  The element phases come from one table of
    ``k pi / n_e``, ``k = 0 .. 2 n_e - 1``, at ``k = j e mod 2 n_e``: exact
    range reduction, and no transcendental per element and mode.  Columns
    of consecutive wavenumbers ``js`` go in blocks of sizes one apart, so
    that each temporary holds at most ``_PAIR_BLOCK_ENTRIES`` values and no
    block is one column wide unless the limit or ``js`` is.  The rows of
    ``w N`` and of the gathered ``V`` run function by function, each over
    every element, so the sum over an element's functions goes over whole
    rows.

    :func:`error_budget` takes this route on the dense route's spectra and
    on the tight runs of a factored one, whose localized columns have no
    Bloch factors; the other columns of a factored spectrum take
    :func:`_bloch_pair_inner`, which needs one block of elements, not all."""
    kv = op.kv
    p, n_e = kv.p, op.layout.n_elements
    spans = kv.spans()
    edges = np.linspace(0.0, op.layout.h, subdivisions + 1)
    t, w = (a.ravel() for a in map_rule_to_element(gauss_rule(p + 2), edges[:-1], edges[1:]))
    _, N = span_basis_rows(kv, np.repeat(spans, t.size),
                           (kv.knots[spans][:, None] + t).ravel())
    reduced = np.full(kv.n, -1, dtype=int)
    reduced[op.dof_indices] = np.arange(op.n_dofs)
    rows = reduced[(spans - p)[:, None] + np.arange(p + 1)]
    # weighted basis values, one row per (function, element): the sums over
    # the functions run element-wise over whole rows; the functions removed
    # by boundary conditions get zero rows, so any row of V serves them
    wN = (N.reshape(n_e, t.size, p + 1) * w[:, None]).transpose(2, 0, 1)
    wN = (wN * (rows.T >= 0)[..., None]).reshape((p + 1) * n_e, t.size)
    rows = np.maximum(rows.T, 0).ravel()

    e = np.arange(n_e)
    width = max(1, min(op.n_dofs, _PAIR_BLOCK_ENTRIES // wN.shape[0]))
    # j e mod 2 n_e for the block's wavenumbers j0 + d is (j0 e mod 2 n_e) +
    # (d e mod 2 n_e): below 4 n_e, so the table is laid out twice
    step = np.multiply.outer(e, np.arange(width)) % (2 * n_e)
    angle = np.tile(np.arange(2 * n_e) * (math.pi / n_e), 2)
    # sin(a + b) = sin a cos b + cos a sin b; cos(a + b) = cos a cos b - sin a sin b
    on_c, on_s = ((np.sin(angle), np.cos(angle)) if op.bc == "dirichlet"
                  else (np.cos(angle), -np.sin(angle)))

    # scratch for every block's temporaries: fresh arrays of this size would
    # be mapped anew from the system on each block, every page faulting
    n_rows = wN.shape[0]
    big = np.empty((3, n_rows * width))
    small = np.empty((4, n_e * width))
    k_buf = np.empty(n_e * width, dtype=np.intp)

    def inner(V: np.ndarray, js: np.ndarray) -> np.ndarray:
        if np.any(np.diff(js) != 1):
            raise ValueError("pair inner products need consecutive wavenumbers")
        out = np.empty(js.size)
        pieces = -(-js.size // width)  # of at most width columns, sizes one apart
        edges = [js.size * i // pieces for i in range(pieces + 1)]
        for lo, hi in zip(edges[:-1], edges[1:]):
            cols, size = slice(lo, hi), hi - lo
            C, S, Vg = (b[:n_rows * size].reshape(n_rows, size) for b in big)
            VC, VS, on_ck, on_sk = (b[:n_e * size].reshape(n_e, size) for b in small)
            k = k_buf[:n_e * size].reshape(n_e, size)
            jt = np.outer(t, js[cols] * math.pi)
            np.matmul(wN, np.cos(jt), out=C)
            np.matmul(wN, np.sin(jt), out=S)
            np.take(V[:, cols], rows, axis=0, out=Vg, mode="clip")
            Vg, C, S = (a.reshape(p + 1, n_e, size) for a in (Vg, C, S))
            np.einsum("aej,aej->ej", Vg, C, out=VC)
            np.einsum("aej,aej->ej", Vg, S, out=VS)
            np.add(((js[lo] * e) % (2 * n_e))[:, None], step[:, :size], out=k)
            np.take(on_c, k, out=on_ck, mode="clip")
            np.take(on_s, k, out=on_sk, mode="clip")
            out[cols] = np.einsum("ej,ej->j", on_ck, VC) + np.einsum("ej,ej->j", on_sk, VS)
        # the Neumann constant mode is 1, not sqrt(2) cos(0)
        return out * np.where(js == 0, 1.0, math.sqrt(2.0))

    return inner


def _required_subdivisions(js: np.ndarray, h: float) -> np.ndarray:
    return np.ceil(js * h).astype(int) + 1


def _pair_inner_by_count(op: DiscreteOperator, pairs: dict, V: np.ndarray,
                         js: np.ndarray) -> np.ndarray:
    """:func:`_pair_inner` of the columns ``V`` against the consecutive exact
    modes ``js``, one call per run of equal subdivision counts; ``pairs``
    caches the inner products by count."""
    out = np.empty(js.size)
    # the counts never decrease with j, so each group is a run of columns
    counts, starts = np.unique(_required_subdivisions(js, op.layout.h), return_index=True)
    for s, a, b in zip(counts, starts, [*starts[1:], js.size]):
        if s not in pairs:
            pairs[s] = _pair_inner(op, s)
        out[a:b] = pairs[s](V[:, a:b], js[a:b])
    return out


def _block_moments(op: DiscreteOperator, subdivisions: int):
    """The moments ``G_f(j) = int exp(i j pi x) N_f(x) dx`` of the first
    block's ``m`` bubbles and of its right interface function ``f = m``, as a
    function ``moments(js)`` of consecutive exact modes that returns the real
    and imaginary parts, each ``(m + 1) x len(js)``.

    The rule is :func:`_pair_inner`'s, Gauss ``p + 2`` points on
    ``subdivisions`` equal pieces of each element, over a window of the
    block's ``B`` elements and the next block's first, where the interface
    function ends.  Each element's moments are one matrix product of the
    weighted basis values against ``exp(i j pi t)`` at the local offsets
    ``t``, times the element phase ``exp(i j pi e h)`` from a table of
    ``k pi / n_e`` at ``k = j e mod 2 n_e``; one sparse incidence product
    sums them into the functions."""
    kv, layout = op.kv, op.layout
    p, n_e, B = kv.p, layout.n_elements, layout.block_size
    m = int(layout.bubble_counts[0])
    spans = kv.spans()[:B + 1]
    edges = np.linspace(0.0, layout.h, subdivisions + 1)
    t, w = (a.ravel() for a in map_rule_to_element(gauss_rule(p + 2), edges[:-1], edges[1:]))
    _, N = span_basis_rows(kv, np.repeat(spans, t.size),
                           (kv.knots[spans][:, None] + t).ravel())
    # one row per (element, function), element-major
    wN = (N.reshape(B + 1, t.size, p + 1) * w[:, None]).transpose(0, 2, 1).reshape(-1, t.size)
    reduced = np.full(kv.n, -1, dtype=int)
    reduced[op.dof_indices] = np.arange(op.n_dofs)
    rows = reduced[(spans - p)[:, None] + np.arange(p + 1)].ravel()
    keep = np.flatnonzero((rows >= 0) & (rows <= m))
    incidence = scipy.sparse.csr_matrix((np.ones(keep.size), (rows[keep], keep)),
                                        shape=(m + 1, rows.size))
    e = np.arange(B + 1)
    angle = np.arange(2 * n_e) * (math.pi / n_e)
    cos_e, sin_e = np.cos(angle), np.sin(angle)

    def moments(js: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        jt = np.outer(t, js * math.pi)
        C = (wN @ np.cos(jt)).reshape(B + 1, p + 1, js.size)
        S = (wN @ np.sin(jt)).reshape(B + 1, p + 1, js.size)
        k = np.multiply.outer(e, js) % (2 * n_e)
        c, s = cos_e[k][:, None], sin_e[k][:, None]
        return (incidence @ (c * C - s * S).reshape(rows.size, js.size),
                incidence @ (s * C + c * S).reshape(rows.size, js.size))

    return moments


def _bloch_pair_inner(spectrum: _BlochSpectrum, op: DiscreteOperator, js: np.ndarray,
                      pairs: dict) -> np.ndarray:
    """The pair inner products ``(u_j, v_j)`` of the Dirichlet modes ``js``
    with the last ``len(js)`` columns of a factored spectrum, from its Bloch
    factors (:meth:`~splinespectra.eigensolve._BlochSpectrum.factors`).

    Block ``b`` is the first block shifted by ``(b - 1) / n_b``, so
    ``(u_j, v) = sqrt(2) Im sum_i S_i F_i`` over the three parts ``i`` of the
    column: ``F_i = sum_f local[i, f] G_f(j)`` contracts the part's local
    vector with the first block's moments (:func:`_block_moments`), and
    ``S_i = sum_b pattern[i, b] exp(i j pi (b - 1) / n_b)`` sums its block
    pattern against the block phases, from a table of ``k pi / n_b`` at
    ``k = j (b - 1) mod 2 n_b``.  O(B (p + 1) q + n_b) per column for
    ``q`` points per element, against O(n_e (p + 1) q) from a built column.
    The columns of tight runs have no such factors and take
    :func:`_pair_inner` on their built columns, through ``pairs``.  Columns
    go in chunks whose moment and pattern tables hold at most
    ``_PAIR_BLOCK_ENTRIES`` values each."""
    layout = op.layout
    n_blocks = layout.n_elements // layout.block_size
    n, first = spectrum.n_modes, spectrum.n_modes - js.size
    m = int(layout.bubble_counts[0])
    # the tallest table of a chunk: element moments, local vectors or patterns
    height = max((layout.p + 1) * (layout.block_size + 1), 3 * (m + 1), 3 * n_blocks)
    width = max(1, _PAIR_BLOCK_ENTRIES // height)
    b = np.arange(n_blocks)
    angle = np.arange(2 * n_blocks) * (math.pi / n_blocks)
    cos_b, sin_b = np.cos(angle), np.sin(angle)
    subdivisions = _required_subdivisions(js, layout.h)
    moments = {}
    out = np.empty(js.size)
    for lo in range(first, n, width):
        hi = min(lo + width, n)
        local, pattern, tight = spectrum.factors(lo, hi)
        rows = slice(lo - first, hi - first)
        jc = js[rows]
        k = np.multiply.outer(b, jc) % (2 * n_blocks)
        Sc = np.einsum("ibc,bc->ic", pattern, cos_b[k])
        Ss = np.einsum("ibc,bc->ic", pattern, sin_b[k])
        Gc, Gs = np.empty(local.shape[1:]), np.empty(local.shape[1:])
        counts, starts = np.unique(subdivisions[rows], return_index=True)
        for s, a, z in zip(counts, starts, [*starts[1:], jc.size]):
            if s not in moments:
                moments[s] = _block_moments(op, s)
            Gc[:, a:z], Gs[:, a:z] = moments[s](jc[a:z])
        Fc = np.einsum("ifc,fc->ic", local, Gc)
        Fs = np.einsum("ifc,fc->ic", local, Gs)
        out[rows] = math.sqrt(2.0) * (np.einsum("ic,ic->c", Sc, Fs)
                                      + np.einsum("ic,ic->c", Ss, Fc))
        # the tight runs within the chunk, each a range of columns
        bounds = np.flatnonzero(np.diff(np.concatenate([[0], tight.view(np.int8), [0]])))
        for a, z in zip(bounds[::2], bounds[1::2]):
            out[lo - first + a:lo - first + z] = _pair_inner_by_count(
                op, pairs, spectrum.columns(lo + a, lo + z), jc[a:z])
    return out


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

    Cost for ``n`` dofs, ``n_e`` elements and ``m`` modes: the three
    quadratic forms ``v^T A v`` take O(n m p) from the stored bands.  The
    pair inner products have two sources, with no grid-by-modes array:

    - a factored spectrum of repeated blocks (the block-Fourier route of
      :func:`~splinespectra.eigensolve.solve_gevp`) gives them from its
      Bloch factors, one block's load moments and a sum of each column's
      block pattern against the block phases (:func:`_bloch_pair_inner`):
      O(m (B (p + 1) q + n_b)) for ``B`` elements in each of ``n_b``
      blocks and ``q`` points per element, however many elements;
    - every other spectrum, and the columns of a factored spectrum's tight
      runs, give them from built columns (:func:`_pair_inner`):
      O(n_e (p + 1) m) elementwise work plus small matrix products of the
      element load moments.

    Both build their tables once per subdivision count.  The quadratic forms
    walk the eigenvectors a block of columns at a time, ``spectrum.columns``
    over ``spectrum.blocks``: a slice of the dense route's array, or a
    block built from the Bloch factors.  Memory is that block, the ``A V``
    product of one quadratic form at a time and a few temporaries of at most
    ``_PAIR_BLOCK_ENTRIES`` doubles each; no n x n array and no dense
    operator is formed.
    """
    p = op.kv.p
    n0 = op.layout.n_elements + p - 2
    if n0 < 1:
        raise ValueError("error budget needs N0 = n_elements + p - 2 >= 1")
    q = op.quadrature
    is_reference = q.kind == "gauss" and q.n_points(p) == p + 1
    exact = op if is_reference else assemble_layout(op.layout)

    js, lam = exact_spectrum(spectrum.n_modes, op.bc)
    first = int(js[0] == 0)  # the Neumann constant mode is not budgeted
    js, lam = js[first:], lam[first:]
    lam_h = spectrum.eigenvalues[first:]
    Ms, Ks = exact.M.to_sparse(), exact.K.to_sparse()
    Kq = None if exact is op else op.K.to_sparse()
    vKv, vMv, vKq = (np.empty(js.size) for _ in range(3))
    pairs = {}  # one quadrature grid per required subdivision count
    factored = isinstance(spectrum, _BlochSpectrum)
    uv = _bloch_pair_inner(spectrum, op, js, pairs) if factored else np.empty(js.size)
    for lo, hi in spectrum.blocks(first):
        V = spectrum.columns(lo, hi)
        rows = slice(lo - first, hi - first)
        vMv[rows] = _quadratic_forms(Ms, V)
        vKv[rows] = _quadratic_forms(Ks, V)
        if Kq is not None:
            vKq[rows] = _quadratic_forms(Kq, V)
        if not factored:
            uv[rows] = _pair_inner_by_count(op, pairs, V, js[rows])
    vKq = vKv if Kq is None else vKq
    uv = np.abs(uv)

    ev_rel = _relative_errors(lam_h, lam)
    ef_l2 = 1.0 - 2.0 * uv + vMv
    ef_energy = (lam - 2.0 * lam * uv + vKv) / lam
    energy_gap = (vKv - vKq) / lam
    l2_deficit = 1.0 - vMv
    modes = np.arange(first, spectrum.n_modes) + 1
    return ErrorBudget(
        j=modes, j_over_n0=modes / n0, lambda_exact=lam, lambda_h=lam_h,
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

    Only defined for ``C^0`` separators under Dirichlet conditions.  Each block
    then holds ``layout.bubble_counts`` bubbles, supported inside it, and
    each separator adds one interface function, the index right after the
    bubbles of the block to its left.
    """
    if layout.separator_continuity != 0 and layout.n_separators > 0:
        raise ValueError("bubble/interface partition requires C^0 separators")
    if layout.bc != "dirichlet":
        raise ValueError("bubble/interface partition requires Dirichlet conditions")
    counts = layout.bubble_counts
    starts = np.cumsum(counts + 1) - (counts + 1)
    return [np.arange(start, start + count) for start, count in zip(starts, counts)]


@dataclass
class StoppingBandReport:
    """Distinct bubble eigenvalues matched against the global spectrum, one
    entry per band, ascending by ``value``.

    ``nearest_global`` is the global eigenvalue closest to ``value``, at
    the 0-based ``global_index``, and ``rel_gap`` their distance relative to
    ``value``; ``block_multiplicity`` counts the consulted blocks sharing it.
    ``expected_count`` is the number of bands the layout predicts.
    """

    value: np.ndarray
    nearest_global: np.ndarray
    rel_gap: np.ndarray
    global_index: np.ndarray
    block_multiplicity: np.ndarray
    expected_count: int

    @property
    def band_count(self) -> int:
        return self.value.size

    def matched_count(self) -> int:
        """Bands with a global eigenvalue within ``1e-6`` (relative)."""
        return int(np.count_nonzero(self.rel_gap < _BAND_MATCH_TOL))


def detect_stopping_bands(eigenvalues: np.ndarray, op: DiscreteOperator,
                          blocks: list[np.ndarray]) -> StoppingBandReport:
    """Match the distinct bubble eigenvalues of the blocks against the global spectrum.

    ``eigenvalues`` is the ascending global spectrum of ``op`` and ``blocks``
    its bubble partition, from :func:`partition_dofs`.  A stopping band is
    confirmed when a bubble eigenvalue coincides with a global eigenvalue
    (see :meth:`StoppingBandReport.matched_count`).  Without separators the
    Schur construction is vacuous and no bands are reported.

    The interior blocks are consulted, or every block when there are at most
    two.  Blocks of one size share their bubble pencil, so each size is solved
    once, on the stored bands of its first consulted block: at most two
    pencils, the second for a ragged last block.  Sorted values within
    ``1e-9`` (relative) of their lower neighbour are one band, valued at its
    lowest.  The nearest global eigenvalue is the closer of the two
    neighbours of the band value in the spectrum, the lower one on a tie.
    """
    layout = op.layout
    consulted = (blocks[1:-1] if len(blocks) > 2 else blocks) if layout.n_separators else []
    _, first, copies = np.unique([idx.size for idx in consulted],
                                 return_index=True, return_counts=True)
    local = [_band_eigenvalues(op.K.restricted(consulted[k]), op.M.restricted(consulted[k]))
             for k in first]
    values = np.concatenate([np.empty(0), *local])
    order = np.argsort(values, kind="stable")
    values, copies = values[order], np.repeat(copies, [w.size for w in local])[order]
    starts = np.ones(values.size, dtype=bool)  # the first value of each band
    starts[1:] = np.diff(values) > _BAND_CLUSTER_TOL * np.abs(values[:-1])
    starts = np.flatnonzero(starts)
    value = values[starts]

    i = np.searchsorted(eigenvalues, value)
    below = np.maximum(i - 1, 0)
    above = np.minimum(i, eigenvalues.size - 1)
    gap_below = np.abs(eigenvalues[below] - value) / np.abs(value)
    gap_above = np.abs(eigenvalues[above] - value) / np.abs(value)
    closer_above = gap_above < gap_below
    nearest = np.where(closer_above, above, below)
    return StoppingBandReport(
        value=value, nearest_global=eigenvalues[nearest],
        rel_gap=np.where(closer_above, gap_above, gap_below), global_index=nearest,
        block_multiplicity=np.add.reduceat(copies, starts),
        expected_count=int(layout.bubble_counts[0]) if layout.n_separators else 0,
    )


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
    ratio many orders larger.  The median is floored at ``eps`` times the
    peak, so the ratio is finite and at most ``1 / eps``: a median at
    round-off level, or zero, carries no information beyond that.  The
    window is the lower half of the spectrum, sine bins ``1 .. n // 2``; a
    sequence with no content there reads ``1``, as no bin stands out.
    """
    v = np.asarray(v, dtype=float)
    g = np.concatenate([v, [0.0], -v[::-1], [0.0]])
    mags = np.abs(np.fft.rfft(g))[1:v.size // 2 + 1]
    peak = mags.max()
    if peak == 0.0:
        return 1.0
    return float(peak / max(np.median(mags), np.finfo(float).eps * peak))


@dataclass
class OutlierReport:
    """Census of the spectrum tail, and one entry per predicted outlier: the
    top ``predicted`` modes, ascending by ``mode`` (numbered from 1).

    ``ev_ratio`` is ``|ev_rel|`` over ``decile_median``, the median error of
    the top decile, and ``flatness`` is :func:`coefficient_flatness`.
    ``a1`` to ``misfit`` are the columns of :func:`_two_wave_fits`; ``f2``,
    ``defect_dofs`` and ``defect_elements`` are object arrays holding
    ``None`` for a mode with a single spectral peak.  Row ``k`` of
    ``magnitudes`` is the ``k``-th mode's spectrum from
    :func:`_frequency_content`.
    """

    predicted: int
    empirical_count: int
    decile_median: float
    mode: np.ndarray
    ev_rel: np.ndarray
    ev_ratio: np.ndarray
    flatness: np.ndarray
    a1: np.ndarray
    f1: np.ndarray
    a2: np.ndarray
    f2: np.ndarray
    defect_dofs: np.ndarray
    defect_elements: np.ndarray
    misfit: np.ndarray
    magnitudes: np.ndarray


def outlier_report(spectrum: Spectrum, op: DiscreteOperator) -> OutlierReport:
    """Census of the spectrum tail: predicted vs. empirically flagged outliers.

    A mode is flagged when its relative eigenvalue error is at least ten
    times the median error of the top decile (a reporting convention; the
    census formula is authoritative); the empirical count is the length of
    the run of flagged modes at the top of the spectrum.
    """
    n = spectrum.n_modes
    ev = eigenvalue_errors(spectrum, op)
    decile = ev[-max(n // 10, 1):]
    med = float(np.median(np.abs(decile)))
    layout = op.layout
    predicted = count_outliers(layout.p, layout.n_separators, layout.bc,
                               layout.separator_continuity)
    flagged = (med > 0) & (np.abs(ev) >= _OUTLIER_EV_RATIO * med)
    empirical = n - 1 - int(np.flatnonzero(~flagged).max(initial=-1))

    # one sampling for all outlier modes; contiguous rows keep results bitwise
    V = spectrum.columns(n - predicted, n)
    fields = np.ascontiguousarray((sample_matrix(op, _sample_grid(op)) @ V).T)
    magnitudes = _frequency_content(fields, op.bc)
    tail = ev[n - predicted:]
    return OutlierReport(
        predicted, empirical, med,
        mode=np.arange(n - predicted, n) + 1,
        ev_rel=tail,
        ev_ratio=np.abs(tail) / med if med > 0 else np.full(predicted, math.inf),
        flatness=np.array([coefficient_flatness(v) for v in V.T]),
        magnitudes=magnitudes, **_two_wave_fits(fields, magnitudes, op),
    )


# ---------------------------------------------------------------------------
# frequency content and AM fits
# ---------------------------------------------------------------------------

def _sample_grid(op: DiscreteOperator) -> np.ndarray:
    """Uniform grid ``k / samples`` of the frequency analysis: ``samples`` is
    the smallest power of two at or above four times the number of degrees of
    freedom (at least 8)."""
    samples = 1 << max(int(math.ceil(math.log2(4 * op.n_dofs))), 3)
    return np.arange(samples) / samples


def _frequency_content(fields: np.ndarray, bc: str) -> np.ndarray:
    """Half-cycle magnitude spectra of fields sampled on :func:`_sample_grid`,
    one row of ``samples + 1`` bins per row of ``fields``.

    Each field is extended to an odd (Dirichlet) or even (Neumann) function
    over a doubled period before the transform, so bin ``k`` corresponds to
    ``sin(k pi x)`` respectively ``cos(k pi x)``, at frequency ``k / 2``
    cycles per unit length; a pure exact mode ``j`` yields a single peak in
    bin ``j``.
    """
    if bc == "dirichlet":
        g = np.concatenate([fields, np.zeros((len(fields), 1)), -fields[:, :0:-1]], axis=1)
    else:
        g = np.concatenate([fields, fields[:, ::-1]], axis=1)
    return np.abs(np.fft.rfft(g, axis=1)) / fields.shape[1]


def _two_wave_fits(fields: np.ndarray, magnitudes: np.ndarray,
                   op: DiscreteOperator) -> dict[str, np.ndarray]:
    """Two-wave amplitude-modulation fits of near-top eigenfunctions: row
    ``k`` of ``fields`` is a field sampled on :func:`_sample_grid` and row
    ``k`` of ``magnitudes`` its spectrum.

    The two largest local maxima of each spectrum (the lower bin on a tie)
    are fitted with a sine or cosine pair: even degrees use
    ``A1 sin(2 pi f1 x) - A2 sin(2 pi f2 x)``, odd degrees the cosine pair
    with a plus sign; Neumann conditions swap the families.  The relative L2
    misfit between the field and the model (over the best global sign) is
    reported as a diagnostic.  The frequency-link defect is reported against
    both plausible mode-count conventions, the number of degrees of freedom
    and the number of elements.  Returns the columns ``a1`` to ``misfit`` by
    name; ``f2`` and both defects hold ``None`` for a single-peak mode.
    """
    inner = magnitudes[:, 1:-1]
    peak = (inner > magnitudes[:, :-2]) & (inner > magnitudes[:, 2:])
    peaks = peak.sum(axis=1)
    if np.any(peaks == 0):
        raise ValueError("eigenfunction has no spectral peak")
    # largest first, the lower bin first on a tie; bins that are no peak last
    bins = np.argsort(np.where(peak, -inner, np.inf), axis=1, kind="stable")[:, :2] + 1
    a = np.take_along_axis(magnitudes, bins, axis=1)
    two = peaks >= 2
    a1, a2 = a[:, 0], np.where(two, a[:, 1], 0.0)
    f1, f2 = 0.5 * bins[:, 0], 0.5 * bins[:, 1]

    xs = np.arange(fields.shape[1]) / fields.shape[1]
    even_degree = op.kv.p % 2 == 0
    use_sine = even_degree if op.bc == "dirichlet" else not even_degree
    wave = np.sin if use_sine else np.cos
    model = a1[:, None] * wave((2.0 * math.pi * f1)[:, None] * xs)
    second = a2[:, None] * wave((2.0 * math.pi * f2)[:, None] * xs)
    model = model - second if use_sine else model + second

    # one norm per row: a batched norm sums in another order than the BLAS dot
    misfit = np.array([min(np.linalg.norm(f - m), np.linalg.norm(f + m)) / np.linalg.norm(f)
                       for f, m in zip(fields, model)])
    return {
        "a1": a1, "f1": f1, "a2": a2, "f2": np.where(two, f2, None),
        "defect_dofs": np.where(two, np.abs(f2 - (op.n_dofs - f1)), None),
        "defect_elements": np.where(two, np.abs(f2 - (op.layout.n_elements - f1)), None),
        "misfit": misfit,
    }


# ---------------------------------------------------------------------------
# convergence studies and optimal blending
# ---------------------------------------------------------------------------

def leading_mode_error(layout: BlockLayout,
                       quadrature: QuadratureSpec | None = None) -> float:
    """Relative eigenvalue error of the first non-constant mode (exact ``pi^2``).

    Under Neumann conditions the constant mode comes first, so the measured
    mode is the second one of the spectrum.  A values-only solve for the
    lowest modes up to this one locates it (bisection on the bands, or the
    block-Fourier values of a layout of repeated blocks), and
    :func:`~splinespectra.eigensolve.polish_eigenvalue` returns its Rayleigh
    quotient, free of the solve's absolute round-off.
    """
    op = assemble_layout(layout, quadrature)
    js, lam = exact_spectrum(op.n_dofs, layout.bc)
    first = int(np.searchsorted(js, 1))
    lam_h = polish_eigenvalue(op, solve_eigenvalues(op, lowest=first + 1)[first])
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
    import scipy.optimize  # only here: it costs every CLI run about 0.1 s to import
    return float(scipy.optimize.brentq(f, lo, hi, xtol=1e-10))
