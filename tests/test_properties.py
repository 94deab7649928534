"""Identities that hold on every block layout, checked on random ones."""

from dataclasses import replace

import numpy as np
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from splinespectra.analysis import sample_matrix
from splinespectra.assembly import assemble_layout
from splinespectra.eigensolve import solve_eigenvalues
from splinespectra.splines import BlockLayout

from oracles import kron_2d_operators

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=60)


@st.composite
def layouts(draw):
    p = draw(st.integers(1, 4))
    n_elements = draw(st.integers(1, 24))
    block = draw(st.integers(1, n_elements))
    continuity = draw(st.integers(0, p - 1))
    bc = draw(st.sampled_from(["dirichlet", "neumann"]))
    return BlockLayout(n_elements, p, block, continuity, bc)


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
