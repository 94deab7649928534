import math

import numpy as np
import pytest

from splinespectra.splines import (
    BlockLayout,
    KnotVector,
    make_block_knots,
    span_basis_rows,
)

from oracles import (
    cox_de_boor_deriv,
    cox_de_boor_value,
    scipy_basis_deriv,
    scipy_basis_value,
)


def knot_multiplicity(kv, value):
    return int(np.sum(np.abs(kv.knots - value) <= 1e-12))


def basis_table(kv, xs):
    """Values and derivatives of every basis function at ``xs`` (one row each).

    Each point is evaluated by ``span_basis_rows`` on the half-open span
    holding it; the domain's right end belongs to the last span, which gives
    left limits there.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    N = np.zeros((xs.size, kv.n))
    dN = np.zeros((xs.size, kv.n))
    t = kv.knots
    last = kv.spans()[-1]
    for span in kv.spans():
        a, b = t[span], t[span + 1]
        sel = np.flatnonzero((xs >= a) & ((xs < b) | ((span == last) & (xs <= b))))
        if sel.size:
            first, vals, ders = span_basis_rows(kv, span, xs[sel], derivs=True)
            cols = np.arange(first, first + kv.p + 1)
            N[np.ix_(sel, cols)] = vals
            dN[np.ix_(sel, cols)] = ders
    return N, dN


def test_open_uniform_examples():
    kv = make_block_knots(BlockLayout.iga(2, 1))
    assert np.allclose(kv.knots, [0, 0, 0.5, 1, 1])
    assert kv.n == 3

    kv = make_block_knots(BlockLayout.iga(3, 2))
    assert np.allclose(kv.knots, [0, 0, 0, 1 / 3, 2 / 3, 1, 1, 1])
    assert kv.n == 5

    kv = make_block_knots(BlockLayout.iga(1000, 2))
    assert kv.n == 1002
    assert kv.n - 2 == 1000  # Dirichlet strip leaves N_e + p - 2


def test_open_uniform_validation():
    with pytest.raises(ValueError):
        make_block_knots(BlockLayout.iga(0, 2))
    with pytest.raises(ValueError):
        make_block_knots(BlockLayout.iga(4, 0))


@pytest.mark.parametrize("knots, message", [
    ([0, 0, 0, 0.25, 0.25, 0.25, 0.5, 0.75, 0.75, 0.75, 0.75, 1, 1, 1],
     "interior knot 0.25 has multiplicity 3 > degree 2"),
    ([0, 0, 0, 0.25, 0.25, 0.5, 0.75, 0.75, 0.75, 0.75, 1, 1, 1],
     "interior knot 0.75 has multiplicity 4 > degree 2"),
    ([0, 0, 0, 0.1, 0.1, 0.1, 0.1, 0.1, 1, 1, 1], "interior knot 0.1 has multiplicity 5"),
])
def test_knot_vector_names_the_first_overfull_interior_knot(knots, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        KnotVector(2, np.array(knots))


def test_knot_vector_allows_full_multiplicity_at_the_ends():
    # end knots and knots within 1e-12 of them are not interior
    ends = [0, 0, 0, 0, 1e-13, 0.5, 0.5, 1 - 1e-13, 1 - 1e-13, 1 - 1e-13, 1, 1, 1]
    assert KnotVector(2, np.array(ends)).n == len(ends) - 3


def test_block_knots_cubic_separators():
    kv = make_block_knots(BlockLayout.riga(15, 3, 5))
    assert knot_multiplicity(kv, 1 / 3) == 3
    assert knot_multiplicity(kv, 2 / 3) == 3
    assert knot_multiplicity(kv, 1 / 15) == 1


def test_block_knots_no_separators_matches_uniform():
    lay = BlockLayout(10, 2, block_size=10, separator_continuity=1)
    uniform = np.concatenate([np.zeros(3), np.arange(1, 10) / 10, np.ones(3)])
    assert np.allclose(make_block_knots(lay).knots, uniform)


def test_block_knots_fea_dimension():
    kv = make_block_knots(BlockLayout.fea(4, 2))
    assert kv.n == 9  # 2 * 4 + 1, quadratic C^0 elements
    for z in (0.25, 0.5, 0.75):
        assert knot_multiplicity(kv, z) == 2


def test_block_layout_validation():
    with pytest.raises(ValueError):
        BlockLayout(10, 2, 3, separator_continuity=2)
    with pytest.raises(ValueError):
        BlockLayout(10, 2, 11)
    with pytest.raises(ValueError):
        BlockLayout(10, 2, 5, bc="robin")


def test_block_layout_remainder_block():
    lay = BlockLayout.riga(7, 2, 3)
    assert lay.n_separators == 2
    values, counts = np.unique(make_block_knots(lay).knots, return_counts=True)
    assert np.allclose(values[counts == lay.p], [3 / 7, 6 / 7])


def test_span_rows_hand_value():
    # quadratic bump on uniform (non-open) knots, hand Cox-de Boor value;
    # the bump is function 0, evaluated on its middle span [1, 2)
    kv = KnotVector(2, [0.0, 1.0, 2.0, 3.0])
    first, N = span_basis_rows(kv, 1, np.array([1.5]))
    assert N[0, 0 - first] == pytest.approx(0.75, abs=1e-15)


def test_span_rows_single_element_quadratic():
    kv = KnotVector(2, [0, 0, 0, 1, 1, 1])
    # middle function is 2 x (1 - x)
    first, N, dN = span_basis_rows(kv, 2, np.array([0.5, 0.25]), derivs=True)
    assert first == 0
    assert N[0, 1] == pytest.approx(0.5, abs=1e-15)
    assert dN[1, 1] == pytest.approx(1.0, abs=1e-13)


def test_partition_of_unity():
    rng = np.random.default_rng(7)
    for kv in (make_block_knots(BlockLayout.iga(6, 2)),
               make_block_knots(BlockLayout.riga(12, 3, 4)),
               make_block_knots(BlockLayout.fea(5, 2))):
        N, _ = basis_table(kv, rng.uniform(0.0, 1.0, size=1000))
        assert np.max(np.abs(N.sum(axis=1) - 1.0)) < 1e-12


def test_derivative_partition_of_unity():
    rng = np.random.default_rng(8)
    kv = make_block_knots(BlockLayout.riga(9, 2, 3))
    _, dN = basis_table(kv, rng.uniform(0.01, 0.99, size=200))
    assert np.max(np.abs(dN.sum(axis=1))) < 1e-10


def test_hat_derivative():
    kv = KnotVector(1, [0, 0, 0.5, 1, 1])
    first, _, dN = span_basis_rows(kv, 1, np.array([0.25]), derivs=True)
    assert dN[0, 1 - first] == pytest.approx(2.0, abs=1e-14)


def test_right_endpoint_left_limit():
    for kv in (make_block_knots(BlockLayout.iga(4, 2)),
               make_block_knots(BlockLayout.fea(3, 3))):
        N, _ = basis_table(kv, [1.0])
        assert N[0, -1] == pytest.approx(1.0, abs=1e-14)
        assert N[0].sum() == pytest.approx(1.0, abs=1e-14)


def test_non_negativity_and_local_support():
    rng = np.random.default_rng(11)
    kv = make_block_knots(BlockLayout.riga(10, 3, 5))
    N, _ = basis_table(kv, rng.uniform(0.0, 1.0, size=300))
    assert N.min() >= 0.0
    # the p + 1 functions a span evaluates are exactly those supported on it
    t, p = kv.knots, kv.p
    for span in kv.spans():
        a, b = t[span], t[span + 1]
        first, _ = span_basis_rows(kv, span, np.array([0.5 * (a + b)]))
        supported = [i for i in range(kv.n) if t[i] <= a and b <= t[i + p + 1]]
        assert supported == list(range(first, first + p + 1))


def test_against_scipy_de_boor():
    # every active function on every span, values and derivatives, including
    # the repeated separator knots of the rIGA vectors
    rng = np.random.default_rng(3)
    for kv in (make_block_knots(BlockLayout.iga(8, 2)),
               make_block_knots(BlockLayout.iga(5, 3)),
               make_block_knots(BlockLayout.riga(12, 3, 4)),
               make_block_knots(BlockLayout.riga(8, 2, 4))):
        for span in kv.spans():
            xs = rng.uniform(kv.knots[span], kv.knots[span + 1], size=4)
            first, N, dN = span_basis_rows(kv, span, xs, derivs=True)
            for q, x in enumerate(xs):
                for r in range(kv.p + 1):
                    assert N[q, r] == pytest.approx(
                        scipy_basis_value(kv, first + r, x), abs=1e-12)
                    assert dN[q, r] == pytest.approx(
                        scipy_basis_deriv(kv, first + r, x), abs=1e-9)



def test_span_rows_match_scalar_eval():
    kv = make_block_knots(BlockLayout.riga(8, 2, 4))
    rng = np.random.default_rng(5)
    for span in kv.spans():
        xs = rng.uniform(kv.knots[span], kv.knots[span + 1], size=4)
        first, N, dN = span_basis_rows(kv, span, xs, derivs=True)
        for q, x in enumerate(xs):
            for r in range(kv.p + 1):
                assert N[q, r] == pytest.approx(
                    cox_de_boor_value(kv, first + r, x), abs=1e-13)
                assert dN[q, r] == pytest.approx(
                    cox_de_boor_deriv(kv, first + r, x), abs=1e-11)


def test_continuity_jumps_by_finite_differences():
    # multiplicity m knot: derivatives up to order p - m agree from both
    # sides, the next one jumps
    def one_sided(kv, i, x, order, side, eps=1e-5):
        pts = x + side * eps * np.arange(order + 1)
        vals = basis_table(kv, pts)[0][:, i]
        return np.diff(vals, order)[0] / (side * eps) ** order if order else vals[0]

    cases = [
        (make_block_knots(BlockLayout.riga(4, 2, 2)), 0.5, 2),   # m = 2, C^0
        (make_block_knots(BlockLayout.iga(4, 2)), 0.5, 1),       # m = 1, C^1
        (make_block_knots(BlockLayout.riga(4, 3, 2)), 0.5, 3),   # m = 3, C^0
    ]
    for kv, z, m in cases:
        smooth = kv.p - m
        i = int(np.max(np.where(np.abs(kv.knots - z) <= 1e-12))) - kv.p
        for order in range(smooth + 1):
            left = one_sided(kv, i, z, order, -1)
            right = one_sided(kv, i, z, order, +1)
            assert abs(left - right) < 1e-9 * max(1.0, abs(left)) + 1e-4
        jump_order = smooth + 1
        left = one_sided(kv, i, z, jump_order, -1)
        right = one_sided(kv, i, z, jump_order, +1)
        assert abs(left - right) > 0.5  # O(1) jump on the unit mesh


@pytest.mark.parametrize("n_elements,p,block_size,c", [
    (10, 2, 5, 0), (10, 2, 5, 1), (12, 3, 4, 0), (12, 3, 4, 2),
    (7, 2, 3, 0), (30, 4, 6, 1), (9, 1, 1, 0),
])
def test_dimension_formula(n_elements, p, block_size, c):
    c = min(c, p - 1)
    lay = BlockLayout(n_elements, p, block_size, separator_continuity=c)
    kv = make_block_knots(lay)
    assert kv.n == n_elements + p + (p - 1 - c) * lay.n_separators


def test_spans_skip_zero_width():
    kv = make_block_knots(BlockLayout.fea(4, 2))
    spans = kv.spans()
    assert len(spans) == 4
    assert np.all(kv.knots[spans + 1] > kv.knots[spans])


def test_knot_vector_validation():
    with pytest.raises(ValueError):
        KnotVector(2, [0, 0, 0, 0.5, 0.5, 0.5, 1, 1, 1])  # interior mult > p
    with pytest.raises(ValueError):
        KnotVector(2, [0, 0, 1, 0.5, 1, 1])  # decreasing
    with pytest.raises(ValueError):
        KnotVector(0, [0, 1])
