"""Identities that hold on every block layout, checked on random ones."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

from splinespectra import analysis, eigensolve
from splinespectra.analysis import (
    detect_stopping_bands,
    eigenvalue_errors,
    eigenvalue_errors_2d,
    error_budget,
    partition_dofs,
    sample_fields,
    sample_matrix,
)
from splinespectra.assembly import _assemble_pair, assemble_layout
from splinespectra.eigensolve import Spectrum, _BlochSpectrum, solve_eigenvalues, solve_gevp
from splinespectra.quadrature import QuadratureSpec
from splinespectra.splines import BlockLayout, make_block_knots

from oracles import (
    grid_pair_inner,
    knot_partition,
    kron_2d_operators,
    per_block_bands,
    reference_assembly,
    reference_sampling,
)

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=60)


@st.composite
def layouts(draw, max_p=4):
    p = draw(st.integers(1, max_p))
    n_elements = draw(st.integers(1, 24))
    block = draw(st.integers(1, n_elements))
    continuity = draw(st.integers(0, p - 1))
    bc = draw(st.sampled_from(["dirichlet", "neumann"]))
    return BlockLayout(n_elements, p, block, continuity, bc)


@st.composite
def c0_dirichlet_layouts(draw):
    """Layouts that have a bubble/interface partition: ``C^0`` separators, or
    a single block of any continuity, under Dirichlet conditions."""
    p = draw(st.integers(1, 5))
    n_elements = draw(st.integers(1, 40))
    block = draw(st.integers(1, n_elements))
    continuity = draw(st.integers(0, p - 1)) if block == n_elements else 0
    return BlockLayout(n_elements, p, block, continuity, "dirichlet")


@st.composite
def quadratures(draw, p):
    """Every rule kind, at the default point count or a drawn one.  A blend
    keeps a node its two rules share (0 for odd counts) as two entries."""
    kind = draw(st.sampled_from(["gauss", "lobatto", "blended"]))
    points = draw(st.none() | st.integers(1 if kind == "gauss" else 2, p + 3))
    tau = draw(st.sampled_from([0.5, 2 / 3, 1.8, -0.3])) if kind == "blended" else None
    return QuadratureSpec(kind, points, tau)


def dofs_from_multiplicities(layout: BlockLayout) -> int:
    """Basis size from the knot vector: ``p + 1`` knots at each end, interior
    knot ``i / n_elements`` of multiplicity ``p - c`` at a separator (every
    ``block_size`` elements) and 1 elsewhere; Dirichlet drops both end
    functions."""
    p, c = layout.p, layout.separator_continuity
    interior = sum(p - c if i % layout.block_size == 0 else 1
                   for i in range(1, layout.n_elements))
    n_knots = 2 * (p + 1) + interior
    n = n_knots - p - 1
    return n - 2 if layout.bc == "dirichlet" else n


@SETTINGS
@given(layout=layouts())
def test_dof_count_matches_knot_multiplicities(layout):
    want = dofs_from_multiplicities(layout)
    assume(want >= 1)
    assert layout.n_dofs == want
    assert solve_eigenvalues(assemble_layout(layout)).size == want


@SETTINGS
@given(layout=layouts(),
       xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=32))
def test_neumann_sampling_is_a_partition_of_unity(layout, xs):
    op = assemble_layout(replace(layout, bc="neumann"))
    rows = np.asarray(sample_matrix(op, np.array(xs)).sum(axis=1)).ravel()
    assert np.max(np.abs(rows - 1.0)) <= 1e-13


@SETTINGS
@given(layout=layouts())
def test_kronecker_pencil_spectrum_is_pairwise_sums(layout):
    assume(1 <= dofs_from_multiplicities(layout) <= 12)
    op = assemble_layout(layout)
    lam = solve_eigenvalues(op)
    M2, K2 = kron_2d_operators(op)
    lam2 = scipy.linalg.eigh(K2.toarray(), M2.toarray(), eigvals_only=True)
    sums = np.sort(np.add.outer(lam, lam).ravel())
    assert np.max(np.abs(lam2 - sums)) <= 1e-10 * lam2[-1]


@SETTINGS
@given(layout=c0_dirichlet_layouts())
def test_partition_matches_knot_search(layout):
    blocks = partition_dofs(layout)
    ref_blocks, ref_interface = knot_partition(layout)
    assert len(blocks) == len(ref_blocks) == layout.n_separators + 1
    for got, want in zip(blocks, ref_blocks):
        assert np.array_equal(got, want)
    # closed-form blocks and knot-searched interfaces tile the dofs exactly
    tiles = np.sort(np.concatenate(blocks + [ref_interface]))
    assert np.array_equal(tiles, np.arange(layout.n_dofs))


@SETTINGS
@given(layout=c0_dirichlet_layouts())
def test_band_census_matches_the_per_block_census(layout):
    """One banded pencil per block size gives the bands, counts and block
    multiplicities of solving every consulted block densely on its own."""
    assume(layout.n_dofs >= 1)
    op = assemble_layout(layout)
    report = detect_stopping_bands(solve_eigenvalues(op), op, partition_dofs(layout))
    values, multiplicity = per_block_bands(op)
    assert report.band_count == values.size
    assert np.array_equal(report.block_multiplicity, multiplicity)
    if values.size:
        assert np.abs(report.value - values).max() <= 1e-12 * np.abs(values).max()


@SETTINGS
@given(data=st.data())
def test_assembly_matches_element_loop_exactly(data):
    layout = data.draw(layouts(max_p=5))
    rule = data.draw(quadratures(layout.p)).reference_rule(layout.p)
    kv = make_block_knots(layout)
    M, K = _assemble_pair(kv, rule)
    M_ref, K_ref = reference_assembly(kv, rule)
    assert np.array_equal(M.band, M_ref)
    assert np.array_equal(K.band, K_ref)


@SETTINGS
@given(layout=layouts(max_p=5),
       xs=st.lists(st.floats(-0.25, 1.25), max_size=24))
def test_sampling_matches_pointwise_evaluation_exactly(layout, xs):
    assume(layout.n_dofs >= 1)
    op = assemble_layout(layout)
    xs = np.concatenate([xs, np.unique(op.kv.knots)])
    want = reference_sampling(op, xs)
    assert np.array_equal(sample_matrix(op, xs).toarray(), want)
    assert np.array_equal(sample_fields(op, xs, np.eye(op.n_dofs)), want)


@SETTINGS
@given(layout=layouts(), kind=st.sampled_from(["gauss", "lobatto"]))
def test_every_error_pairs_modes_alike(layout, kind):
    """Discrete mode ``m`` meets exact ``j = m`` (Dirichlet) or ``j = m - 1``
    (Neumann) with the same exact eigenvalue ``(j pi)^2`` and the same error,
    bit for bit, in the error budget, the 1D errors and the 2D table; a zero
    exact eigenvalue carries the absolute error."""
    assume(layout.n_elements + layout.p >= 3)  # the budget needs N0 >= 1
    op = assemble_layout(layout, QuadratureSpec(kind))
    spectrum = solve_gevp(op)
    budget = error_budget(spectrum, op)
    errs = eigenvalue_errors(spectrum, op)
    shift = 1 if layout.bc == "neumann" else 0
    assert np.array_equal(budget.j, np.arange(1 + shift, spectrum.n_modes + 1))
    lam = ((budget.j - shift) * math.pi) ** 2
    assert np.array_equal(budget.lambda_exact, lam)
    assert np.array_equal(budget.lambda_h, spectrum.eigenvalues[budget.j - 1])
    assert np.array_equal(budget.ev_rel, (budget.lambda_h - lam) / lam)
    assert np.array_equal(budget.ev_rel, errs[budget.j - 1])
    if shift:
        assert errs[0] == spectrum.eigenvalues[0]

    jj, kk, exact, discrete, ev = eigenvalue_errors_2d(spectrum.eigenvalues, layout.bc)
    assert (jj[0], kk[0]) == (1 - shift, 1 - shift)
    assert np.array_equal(exact, (jj ** 2 + kk ** 2) * math.pi ** 2)
    assert np.array_equal(discrete, np.sort(np.add.outer(spectrum.eigenvalues,
                                                         spectrum.eigenvalues).ravel()))
    assert np.array_equal(ev[shift:], (discrete - exact)[shift:] / exact[shift:])
    if shift:
        assert exact[0] == 0.0 and ev[0] == discrete[0]


@SETTINGS
@given(data=st.data())
def test_pair_inner_matches_the_grid_route(data):
    """The element-moment pair inner products equal the grid route on every
    layout: both boundary conditions (the Neumann constant mode included),
    ``C^0`` and ``C^k`` separators, a ragged last element block, any
    subdivision count and a ragged last column block."""
    layout = data.draw(layouts(max_p=5))
    assume(layout.n_dofs >= 1)
    op = assemble_layout(layout)
    spectrum = solve_gevp(op)
    js, _ = analysis.exact_spectrum(spectrum.n_modes, layout.bc)
    subdivisions = data.draw(st.integers(1, 3))
    width = data.draw(st.integers(1, js.size))
    V = spectrum.eigenvectors
    # one block, whichever route solved it
    dense = Spectrum(spectrum.eigenvalues, V, op.kv, op.dof_indices)
    with mock.patch.object(analysis, "_PAIR_BLOCK_ENTRIES",
                           width * layout.n_elements * (layout.p + 1)):
        got = analysis._pair_products(dense, op, js, np.full(js.size, subdivisions), {})
    expected = grid_pair_inner(op, V, js, subdivisions)
    assert np.abs(got - expected).max() <= 1e-13


@st.composite
def uniform_layouts(draw):
    """Layouts of repeated blocks, which take the block-Fourier route."""
    p, block = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    return BlockLayout.riga(block * draw(st.integers(2, 8)), p, block)


@SETTINGS
@given(layout=st.one_of(layouts(max_p=5), uniform_layouts()), data=st.data())
@example(layout=BlockLayout.riga(192, 2, 64), data=None)  # a tight run of two outliers
def test_factors_rebuild_the_columns(layout, data):
    """On both spectrum classes, each closed block's coefficients rebuild
    every column outside a tight run on the block's basis functions, from
    its left interface to its right one, up to the column's sign: the dense
    route's one block of the whole mesh (ragged, Neumann and ``C^k``
    layouts), and the two fields of a layout of repeated blocks.  There the
    two neighbouring blocks give each interface within ``4 n_b eps`` of the
    column's largest entry, and the eliminated boundary functions, block
    1's left one and the last interface, read no more than that: the
    pattern angle ``(b - 1/2) theta`` carries the rounding of ``theta``
    ``b`` times over, so block ``b``'s patterns err by about ``b eps``
    (measured: up to ``3.2 n_b eps``, at riga(1000, 2, 10); within 1e-15
    on layouts of up to four blocks)."""
    assume(layout.n_dofs >= 1)
    op = assemble_layout(layout)
    spectrum = solve_gevp(op)
    n = spectrum.n_modes
    lo, hi = sorted(data.draw(st.lists(st.integers(0, n), min_size=2, max_size=2))) \
        if data else (0, n)
    coefficients, pattern = spectrum.factors(lo, hi)
    # a Bloch spectrum's tight runs; the dense one's columns are its factors
    tight = np.zeros(n, dtype=bool)
    for a, b, _ in getattr(spectrum, "_runs", ()):
        tight[a:b] = True
    tight = tight[lo:hi]
    height, parts, n_b = *coefficients.shape[:2], pattern.shape[1]
    assert parts <= 2 and pattern.shape == (parts, n_b, hi - lo)
    assert n_b * (height - 1) + 1 == op.kv.n
    blocks = np.einsum("ibc,fic->bfc", pattern, coefficients)  # block, function, column
    full = np.zeros((op.kv.n, hi - lo))
    full[op.dof_indices] = spectrum.columns(lo, hi)
    scale = np.abs(full).max(axis=0, initial=0.0)
    starts = np.arange(n_b) * (height - 1)
    # block b is the columns' rows starts[b] .. starts[b] + height - 1
    rebuilt = blocks * np.where(np.einsum("bfc,bfc->c", blocks, np.stack(
        [full[s:s + height] for s in starts])) < 0.0, -1.0, 1.0)
    for b, s in enumerate(starts):
        assert np.abs(rebuilt[b] - full[s:s + height])[:, ~tight].max(initial=0.0) <= 1e-13
    tol = 4 * n_b * np.finfo(float).eps * scale[~tight]
    interfaces = np.abs(blocks[:-1, -1] - blocks[1:, 0]).max(axis=0, initial=0.0)
    assert np.all(interfaces[~tight] <= tol)
    eliminated = np.setdiff1d(np.arange(op.kv.n), op.dof_indices)
    values = np.vstack([blocks[0], *(b[1:] for b in blocks[1:])])[eliminated]
    assert np.all(np.abs(values).max(axis=0, initial=0.0)[~tight] <= tol)
    if data is None:
        assert tight.sum() == 2


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(p=st.integers(1, 5), block=st.integers(1, 12), n_blocks=st.integers(2, 8),
       start=st.integers(0, 10 ** 6), entries=st.sampled_from([1, 300, 3000, 1 << 17]))
# a tight run of two outliers, whole and split between one-column chunks
@example(p=2, block=64, n_blocks=3, start=0, entries=1 << 17)
@example(p=2, block=64, n_blocks=3, start=150, entries=300)
@example(p=2, block=100, n_blocks=20, start=0, entries=1 << 17)  # a run of 19
def test_factored_pair_products_match_the_grid_route(p, block, n_blocks, start, entries):
    """The pair inner products from the Bloch factors equal the grid route on
    the built columns, up to the columns' signs, from any first mode and in
    chunks and pieces of any width, with the columns of tight runs taken from
    the columns themselves."""
    op = assemble_layout(BlockLayout.riga(block * n_blocks, p, block))
    spectrum = solve_gevp(op)
    assert isinstance(spectrum, _BlochSpectrum)
    n = spectrum.n_modes
    first = start % n
    js = analysis.exact_spectrum(n)[0][first:]
    subdivisions = analysis._required_subdivisions(js, op.layout.h)
    with mock.patch.object(analysis, "_PAIR_BLOCK_ENTRIES", entries), \
            mock.patch.object(eigensolve, "_BLOCK_ENTRIES", entries):
        got = analysis._pair_products(spectrum, op, js, subdivisions, {})
    V = spectrum.columns(first, n)
    expected = np.empty(js.size)
    for s in np.unique(subdivisions):
        cols = subdivisions == s
        expected[cols] = grid_pair_inner(op, V[:, cols], js[cols], s)
    assert np.abs(np.abs(got) - np.abs(expected)).max() <= 1e-13
