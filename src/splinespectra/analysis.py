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
import numpy.fft  # imported here, not inside a job

from .assembly import DiscreteOperator, NumericalError, assemble_layout
from .eigensolve import Spectrum, _band_eigenvalues, _certify_lowest, polish_eigenvalue
from .quadrature import QuadratureSpec, gauss_rule, map_rule_to_element
from .splines import BlockLayout, _point_sums, span_basis_rows

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
# (part, function, element) x modes entries per piece of the load moments:
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

def _sample_basis(op: DiscreteOperator, xs: np.ndarray):
    """``(points, first, N)``: the indices of the points ``xs`` inside the
    domain, the index in ``op.kv`` (before boundary conditions) of the first
    of each one's ``p + 1`` active functions, and their values.

    A non-empty span ``[a, b)`` owns the points in it, and the last span also
    owns the right end of the domain."""
    kv = op.kv
    spans = kv.spans()
    lefts, rights = kv.knots[spans], kv.knots[spans + 1]
    owner = np.searchsorted(lefts, xs, side="right") - 1
    inside = (owner >= 0) & ((xs < rights[owner]) | (xs == rights[-1]))
    points = np.flatnonzero(inside)
    first, N = span_basis_rows(kv, spans[owner[points]], xs[points])
    return points, first, N


def sample_fields(op: DiscreteOperator, xs: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The fields of the columns of ``V`` (coefficients of the reduced dofs)
    at the points ``xs``: one row per point, one column per field; points
    outside the domain read zero.

    Each point's value is the sum of its ``p + 1`` terms in order
    (:func:`~splinespectra.splines._point_sums`) over the coefficients of
    every basis function, zero on those removed by boundary conditions, and
    a zero sum reads ``+0``: the bits of the product ``sample_matrix(op, xs)
    @ V``, whose sums start from zero.  O(p) passes over the ``(points,
    columns)`` values, and no sparse matrix."""
    xs = np.asarray(xs, dtype=float)
    points, first, N = _sample_basis(op, xs)
    C = np.zeros((op.kv.n, V.shape[1]))
    C[op.dof_indices] = V
    values = _point_sums(C, first, N, *np.empty((2, points.size, V.shape[1])))
    values += 0.0  # -0 + 0 is +0
    out = np.zeros((xs.size, V.shape[1]))
    out[points] = values
    return out


def sample_matrix(op: DiscreteOperator, xs: np.ndarray):
    """The sparse matrix (a ``scipy.sparse.csr_matrix``) mapping reduced
    coefficients to field values at ``xs``, zero rows outside the domain.

    No CLI path calls it (:func:`sample_fields` gathers the same products),
    so scipy is imported here, not with the package.  The benchmark's trace
    keys its sampling spans to this name."""
    import scipy.sparse

    xs = np.asarray(xs, dtype=float)
    points, first, N = _sample_basis(op, xs)
    reduced = np.full(op.kv.n, -1)
    reduced[op.dof_indices] = np.arange(op.n_dofs)
    dofs = reduced[first[:, None] + np.arange(N.shape[1])]
    rows = np.broadcast_to(points[:, None], dofs.shape)
    kept = dofs >= 0
    return scipy.sparse.csr_matrix((N[kept], (rows[kept], dofs[kept])),
                                   shape=(xs.size, op.n_dofs))


def _load_moments(op: DiscreteOperator, subdivisions: int, n_el: int, parts: int):
    """The load moments ``F(j) = int exp(i j pi x) v(x) dx`` over the first
    ``n_el`` elements, as a function ``moments(local, js, imag)`` of
    ``parts`` fields per column: ``local`` is ``parts x functions x
    len(js)``, coefficients of the basis functions of ``op.kv`` from the
    first, at least those that meet the ``n_el`` elements, and column ``c``
    meets exact mode ``js[c]``, consecutive wavenumbers.  It returns one row
    per part, ``Im F`` where ``imag[i]`` holds and ``Re F`` elsewhere.

    Integrates element by element with Gauss ``p + 2`` points on
    ``subdivisions`` equal subintervals per element; ``ceil(j h) + 1`` of
    them resolve the oscillation of exact mode ``j >= 1``.  The grid, the
    basis values and the phase tables are built once, for every block of
    columns the function is then given.

    The sum runs over element load moments, with no grid of field values.
    Every element of the uniform mesh carries the same local offsets ``t``
    and weights ``w``, so with ``a_e = e h``, ``F = sum_e exp(i j pi a_e)
    sum_a v[r(e, a)] (C[e, a, j] + i S[e, a, j])``.  ``r(e, a)`` is the
    index of the element's ``a``-th basis function.  ``C = (w N) @ cos(j pi
    t)`` and ``S = (w N) @ sin(j pi t)`` are one matrix product each.  The
    element phases come from one table of ``k pi / n_e``, ``k = 0 .. 2 n_e
    - 1``, at ``k = j e mod 2 n_e``: exact range reduction, and no
    transcendental per element and mode.  Columns go in pieces of sizes one
    apart, so that each temporary holds at most ``_PAIR_BLOCK_ENTRIES``
    values and no piece is one column wide unless the limit or ``js`` is.
    The rows of ``w N`` and of the gathered coefficients run function by
    function, each over every element, so the sum over an element's
    functions goes over whole rows."""
    kv = op.kv
    p, n_e = kv.p, op.layout.n_elements
    spans = kv.spans()[:n_el]
    edges = np.linspace(0.0, op.layout.h, subdivisions + 1)
    t, w = (a.ravel() for a in map_rule_to_element(gauss_rule(p + 2), edges[:-1], edges[1:]))
    _, N = span_basis_rows(kv, np.repeat(spans, t.size),
                           (kv.knots[spans][:, None] + t).ravel())
    rows = ((spans - p)[:, None] + np.arange(p + 1)).T.ravel()
    # weighted basis values, one row per (function, element): the sums over
    # the functions run element-wise over whole rows
    wN = (N.reshape(n_el, t.size, p + 1) * w[:, None]).transpose(2, 0, 1)
    wN = wN.reshape((p + 1) * n_el, t.size)

    e, n_rows = np.arange(n_el), wN.shape[0]
    width = max(1, min(op.n_dofs, _PAIR_BLOCK_ENTRIES // (parts * n_rows)))
    # j e mod 2 n_e for the piece's wavenumbers j0 + d is (j0 e mod 2 n_e) +
    # (d e mod 2 n_e): below 4 n_e, so the table is laid out twice
    step = np.multiply.outer(e, np.arange(width)) % (2 * n_e)
    angle = np.tile(np.arange(2 * n_e) * (math.pi / n_e), 2)
    cos_e, sin_e = np.cos(angle), np.sin(angle)

    # scratch for every piece's temporaries: fresh arrays of this size would
    # be mapped anew from the system on each piece, every page faulting
    rule = np.empty((2, n_rows * width))
    gathered = np.empty(parts * n_rows * width)
    summed = np.empty((2, parts * n_el * width))
    phases = np.empty((2, n_el * width))
    k_buf = np.empty(n_el * width, dtype=np.intp)

    def moments(local: np.ndarray, js: np.ndarray, imag: tuple) -> np.ndarray:
        if np.any(np.diff(js) != 1):
            raise ValueError("load moments need consecutive wavenumbers")
        out = np.empty((parts, js.size))
        pieces = -(-js.size // width)  # of at most width columns, sizes one apart
        edges = [js.size * i // pieces for i in range(pieces + 1)]
        for lo, hi in zip(edges[:-1], edges[1:]):
            cols, size = slice(lo, hi), hi - lo
            C, S = (b[:n_rows * size].reshape(n_rows, size) for b in rule)
            VC, VS = (b[:parts * n_el * size].reshape(parts, n_el, size) for b in summed)
            cos_k, sin_k = (b[:n_el * size].reshape(n_el, size) for b in phases)
            Vg = gathered[:parts * n_rows * size].reshape(parts, n_rows, size)
            k = k_buf[:n_el * size].reshape(n_el, size)
            jt = np.outer(t, js[cols] * math.pi)
            np.matmul(wN, np.cos(jt), out=C)
            np.matmul(wN, np.sin(jt), out=S)
            np.take(local[:, :, cols], rows, axis=1, out=Vg, mode="clip")
            Vg, C, S = (a.reshape(-1, p + 1, n_el, size) for a in (Vg, C, S))
            np.einsum("iaej,aej->iej", Vg, C[0], out=VC)
            np.einsum("iaej,aej->iej", Vg, S[0], out=VS)
            np.add(((js[lo] * e) % (2 * n_e))[:, None], step[:, :size], out=k)
            np.take(cos_e, k, out=cos_k, mode="clip")
            np.take(sin_e, k, out=sin_k, mode="clip")
            # exp(i a) (C + i S) = (cos a C - sin a S) + i (sin a C + cos a S)
            for i in range(parts):
                on_c, on_s, sign = (sin_k, cos_k, 1.0) if imag[i] else (cos_k, sin_k, -1.0)
                out[i, cols] = (np.einsum("ej,ej->j", on_c, VC[i])
                                + sign * np.einsum("ej,ej->j", on_s, VS[i]))
        return out

    return moments


def _required_subdivisions(js: np.ndarray, h: float) -> np.ndarray:
    return np.ceil(js * h).astype(int) + 1


def _pair_products(spectrum: Spectrum, op: DiscreteOperator, js: np.ndarray,
                   counts: np.ndarray, evaluators: dict) -> np.ndarray:
    """The pair inner products ``(u_j, v_j)`` of the exact modes ``js``
    (consecutive wavenumbers) with the last ``len(js)`` columns of
    ``spectrum``, up to the columns' signs, from their factors
    ``(coefficients, pattern)``
    (:meth:`~splinespectra.eigensolve.Spectrum.factors`): on the basis
    functions of block ``b = 1 .. n_b``, column ``c`` is ``sum_i pattern[i,
    b - 1, c] coefficients[:, i, c]``.

    Block ``b`` is the first shifted by ``(b - 1) / n_b``, so ``(u_j, v) =
    sqrt(2) Im sum_i S_i F_i`` (``Re`` under Neumann conditions; ``1`` in
    place of ``sqrt(2)`` for the constant mode ``j = 0``).  ``F_i`` are the
    load moments of the fields (:func:`_load_moments`) over the first
    block's ``n_e // n_b`` elements, which every function of the closed
    block meets, and ``S_i = sum_b pattern[i, b] exp(i j pi (b - 1) /
    n_b)``, from a table of ``k pi / n_b`` at ``k = j (b - 1) mod 2 n_b``:
    the two patterns ``sin(phi_b)`` and ``cos(phi_b)`` of a wave mode, one
    of a band mode.  ``F`` is linear, so the sum is ``F(L)`` of the one
    complex field ``L = sum_i S_i coefficients[:, i]``, whose real and
    imaginary parts take one load moment each.  A dense spectrum is one
    block: the window is the whole mesh, ``S = 1`` and ``L`` the column
    itself.  O(n_el (p + 1) q + n_b) per column, for ``n_el`` elements in
    the window and ``q`` points per element.

    Mode ``js[c]`` takes ``counts[c]`` subdivisions per element, and the
    caller's dict ``evaluators`` caches :func:`_load_moments`.  The factors
    go in blocks whose tables hold about ``_BLOCK_ENTRIES`` entries each,
    the column blocks on one block.  A tight run's localized columns take
    the same route: their factors are those of their modes' class that meets
    their exact mode."""
    n_e, dirichlet = op.layout.n_elements, op.bc == "dirichlet"
    first = spectrum.n_modes - js.size
    C, pattern = spectrum.factors(first, first)  # no column: the shapes alone
    height, parts, n_b = *C.shape[:2], pattern.shape[1]
    window = n_e // n_b
    angle = np.arange(2 * n_b) * (math.pi / n_b)
    cos_b, sin_b = np.cos(angle), np.sin(angle)
    # Im F(L) = Im F(Re L) + Re F(Im L); Re F(L) = Re F(Re L) - Im F(Im L)
    imag, sign = (dirichlet, not dirichlet), 1.0 if dirichlet else -1.0
    out = np.empty(js.size)
    # a dense spectrum's factors are its columns: take the column blocks
    for lo, hi in spectrum.blocks(first, parts * max(height, n_b) if n_b > 1 else None):
        C, pattern = spectrum.factors(lo, hi)
        rows = slice(lo - first, hi - first)
        jc, cc, uv = js[rows], counts[rows], out[rows]
        if n_b > 1:  # Re L and Im L, from Re S and Im S
            k = np.multiply.outer(np.arange(n_b), jc) % (2 * n_b)
            S = np.stack([np.einsum("ibc,bc->ic", pattern, c[k]) for c in (cos_b, sin_b)])
            local = (S.transpose(2, 0, 1) @ C.transpose(2, 1, 0)).transpose(1, 2, 0)
        else:
            local = C.transpose(1, 0, 2)
        # the counts never decrease with j, so each group is a run of columns
        values, starts = np.unique(cc, return_index=True)
        for s, a, z in zip(values, starts, [*starts[1:], jc.size]):
            key = (int(s), window, len(local))
            if key not in evaluators:
                evaluators[key] = _load_moments(op, *key)
            F = evaluators[key](local[:, :, a:z], jc[a:z], imag)
            uv[a:z] = F[0] if n_b == 1 else F[0] + sign * F[1]
        # the Neumann constant mode is 1, not sqrt(2) cos(0)
        uv *= np.where(jc == 0, 1.0, math.sqrt(2.0))
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

    The exact terms ``v^T M v`` and ``v^T K v`` are the spectrum's forms
    (:meth:`~splinespectra.eigensolve.Spectrum.forms`) under Gauss ``p + 1``
    points, which integrate both the mass (degree ``2p``) and stiffness
    (degree ``2p - 2``) integrands exactly; ``op``'s own ``v^T K v`` is the
    form under ``op.quadrature``.  Neither reads the bands, so nothing is
    re-assembled and a band edited after the solve changes nothing.

    Cost for ``n`` dofs and ``m`` modes: the forms of the rule the spectrum
    was solved under were formed by the solve, and any other rule's take
    one sum over the quadrature points per column, over one block of
    ``B`` elements on the block-Fourier route
    (:func:`~splinespectra.eigensolve.solve_gevp`), and over the whole mesh
    for a dense spectrum; the localized columns of a tight run of ``r``
    take theirs from their modes' in O(r^2).  No column is built for them.
    The pair inner products take one route (:func:`_pair_products`), with
    no grid-by-modes array: each column's load moments over a window of
    ``n_el`` elements and a sum of its block pattern against ``n_b`` block
    phases, O(m (n_el (p + 1) q + n_b)) for ``q`` points per element.  A
    dense spectrum is one block, the whole mesh; a factored spectrum of
    ``n_b`` repeated blocks of ``B`` elements reads one block's ``B``
    elements however many there are, tight runs included, and builds no
    column.  The
    tables are built once per subdivision count and window.  Memory is a
    block of columns and a few temporaries of at most
    ``_PAIR_BLOCK_ENTRIES`` doubles each; no n x n array and no dense
    operator is formed.
    """
    p = op.kv.p
    n0 = op.layout.n_elements + p - 2
    if n0 < 1:
        raise ValueError("error budget needs N0 = n_elements + p - 2 >= 1")

    js, lam = exact_spectrum(spectrum.n_modes, op.bc)
    first = int(js[0] == 0)  # the Neumann constant mode is not budgeted
    js, lam = js[first:], lam[first:]
    lam_h = spectrum.eigenvalues[first:]
    vKv, vMv = spectrum.forms(QuadratureSpec("gauss"))[:, first:]
    vKq = spectrum.forms(op.quadrature)[0, first:]
    uv = np.abs(_pair_products(spectrum, op, js, _required_subdivisions(js, op.layout.h), {}))

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
    return float(peak / max(_median(mags), np.finfo(float).eps * peak))


def _median(x: np.ndarray) -> float:
    """``np.median`` of the finite values ``x``, bit for bit, without the
    ``numpy.ma`` import that ``np.median`` makes on its first call: the mean
    of the one or two middle values."""
    mid = np.partition(x, [(x.size - 1) // 2, x.size // 2])
    return (mid[(x.size - 1) // 2] + mid[x.size // 2]) / 2


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
    med = float(_median(np.abs(decile)))
    layout = op.layout
    predicted = count_outliers(layout.p, layout.n_separators, layout.bc,
                               layout.separator_continuity)
    flagged = (med > 0) & (np.abs(ev) >= _OUTLIER_EV_RATIO * med)
    empirical = n - 1 - int(np.flatnonzero(~flagged).max(initial=-1))

    # one sampling for all outlier modes; contiguous rows keep results bitwise
    V = spectrum.columns(n - predicted, n)
    fields = np.ascontiguousarray(sample_fields(op, _sample_grid(op), V).T)
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
    mode is the second one of the spectrum.  No eigensolve locates it:
    :func:`~splinespectra.eigensolve.polish_eigenvalue` runs inverse
    iteration at its exact eigenvalue, on the bands, and returns the
    Rayleigh quotient at the quadrature points, free of a solve's absolute
    round-off; one banded Cholesky factorization then certifies that the
    quotient is the lowest eigenvalue (above the constant mode), by
    Sylvester's law of inertia.  O(n p^2) per mesh, whatever its size or
    layout.

    Raises
    ------
    NumericalError
        If the factorization or the certificate fails.
    """
    op = assemble_layout(layout, quadrature)
    js, lam = exact_spectrum(op.n_dofs, layout.bc)
    first = int(np.searchsorted(js, 1))
    # the shift pi^2 (1 - 1e-8) lies |ev_rel| + 1e-8 of pi^2 from the mode and
    # about 3 pi^2 from the next one (the constant is projected out), so each
    # step of the iteration shrinks the other modes by about (|ev_rel| + 1e-8) / 3
    lam_h = polish_eigenvalue(op, lam[first])
    _certify_lowest(op, lam_h)
    return float(_relative_errors(lam_h, lam[first]))


def convergence_study(layouts, quadrature: QuadratureSpec | None = None):
    """Mesh sizes, leading-mode errors, and the fitted convergence slope.

    ``layouts`` is one mesh per size, at least three distinct sizes.  The
    slope is the least-squares fit of ``log |error|`` against ``log h``.
    Each error comes from :func:`leading_mode_error`, in O(n p^2) per mesh
    with no eigensolve and no dense limit, whose Rayleigh quotient is free
    of a solve's absolute round-off (about ``n eps lambda_max``).  The
    quotient has round-off of its own: errors within a decade of the noise
    floor ``1e-13`` are at that level and are excluded from the fit, but all
    measured values are still returned.
    """
    layouts = list(layouts)
    hs = np.array([layout.h for layout in layouts])
    if len(set(hs.tolist())) < 3:
        raise ValueError("need at least three distinct mesh sizes for a slope fit")
    errs = np.array([leading_mode_error(layout, quadrature) for layout in layouts])
    keep = np.abs(errs) >= 10.0 * _NOISE_FLOOR
    if len(set(hs[keep].tolist())) < 2:
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
