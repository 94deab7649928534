import math

import numpy as np
import pytest

from splinespectra.quadrature import (
    QuadratureSpec,
    blended_rule,
    gauss_rule,
    lobatto_rule,
    map_rule_to_element,
)

from oracles import weights_from_moments


def monomial_integral(k: int) -> float:
    return 0.0 if k % 2 else 2.0 / (k + 1)


def test_gauss_examples():
    r = gauss_rule(1)
    assert np.allclose(r.nodes, [0.0]) and np.allclose(r.weights, [2.0])

    r = gauss_rule(2)
    assert np.allclose(r.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
    assert np.allclose(r.weights, [1.0, 1.0])

    r = gauss_rule(3)
    assert r.weights @ r.nodes ** 4 == pytest.approx(0.4, abs=1e-14)


@pytest.mark.parametrize("n", range(1, 33))
def test_gauss_rule_keeps_the_bits_of_leggauss(n):
    # the package repeats numpy's steps rather than importing
    # numpy.polynomial: a rule within one unit in the last place of these
    # moves every output by rounding
    nodes, weights = np.polynomial.legendre.leggauss(n)
    r = gauss_rule(n)
    assert np.array_equal(r.nodes.view(np.int64), (0.5 * (nodes - nodes[::-1])).view(np.int64))
    assert np.array_equal(r.weights.view(np.int64),
                          (0.5 * (weights + weights[::-1])).view(np.int64))


def test_lobatto_examples():
    r = lobatto_rule(2)
    assert np.allclose(r.nodes, [-1, 1]) and np.allclose(r.weights, [1, 1])

    r = lobatto_rule(3)
    assert np.allclose(r.nodes, [-1, 0, 1], atol=1e-15)
    assert np.allclose(r.weights, [1 / 3, 4 / 3, 1 / 3], atol=1e-15)

    r = lobatto_rule(4)
    assert r.weights @ r.nodes ** 4 == pytest.approx(0.4, abs=1e-14)
    # 3-point Lobatto misses degree 4: endpoint nodes give 1/3 + 1/3
    r = lobatto_rule(3)
    assert r.weights @ r.nodes ** 4 == pytest.approx(2 / 3, abs=1e-14)


@pytest.mark.parametrize("n", range(1, 13))
def test_gauss_exactness_degree(n):
    r = gauss_rule(n)
    for k in range(2 * n):
        exact = monomial_integral(k)
        got = r.weights @ r.nodes ** k
        assert abs(got - exact) <= 1e-13 * max(1.0, abs(exact))
    # first even degree beyond the exactness limit must fail
    k = 2 * n
    assert abs(r.weights @ r.nodes ** k - monomial_integral(k)) > 1e-10


@pytest.mark.parametrize("n", range(2, 13))
def test_lobatto_exactness_degree(n):
    r = lobatto_rule(n)
    for k in range(2 * n - 2):
        exact = monomial_integral(k)
        got = r.weights @ r.nodes ** k
        assert abs(got - exact) <= 1e-13 * max(1.0, abs(exact))
    k = 2 * n - 2
    assert abs(r.weights @ r.nodes ** k - monomial_integral(k)) > 1e-10


def test_lobatto_weights_of_few_points_sum_to_two_exactly():
    # the weights come from the Legendre recurrence, exact at 0 and +-1: the
    # centre weight of three points is the double nearest 4/3, which scipy's
    # eval_legendre(2, 0.0) = -0.5000000000000001 put 2 units low
    for n in (2, 3, 4):
        assert math.fsum(lobatto_rule(n).weights) == 2.0
    assert lobatto_rule(3).weights[1] == 4 / 3


@pytest.mark.parametrize("n", range(2, 33))
def test_lobatto_exactness_up_to_the_largest_rule(n):
    # every monomial up to degree 2 n - 3, summed exactly, within 8 eps of
    # its integral: at most 4 eps off, at n = 28
    r = lobatto_rule(n)
    for k in range(2 * n - 2):
        got = math.fsum(r.weights * r.nodes ** k)
        assert abs(got - monomial_integral(k)) <= 8 * np.finfo(float).eps


@pytest.mark.parametrize("n", range(2, 13))
def test_weights_match_moment_conditions(n):
    for rule in (gauss_rule(n), lobatto_rule(n)):
        assert np.allclose(rule.weights, weights_from_moments(rule.nodes),
                           atol=1e-11)


def test_rule_symmetry_and_weight_sum():
    for n in range(2, 13):
        for r in (gauss_rule(n), lobatto_rule(n)):
            assert np.allclose(r.nodes, -r.nodes[::-1])
            assert np.allclose(r.weights, r.weights[::-1])
            assert r.weights.sum() == pytest.approx(2.0, abs=1e-13)
        # blends may hold coincident nodes with distinct weights, so
        # symmetry is a statement about the (node, weight) multiset
        b = blended_rule(n, 0.4)
        pairs = sorted(zip(b.nodes, b.weights))
        mirrored = sorted(zip(-b.nodes, b.weights))
        assert np.allclose(pairs, mirrored)
        assert b.weights.sum() == pytest.approx(2.0, abs=1e-13)


def test_blended_tau_limits():
    g = gauss_rule(3)
    b0 = blended_rule(3, 0.0)
    assert np.array_equal(b0.nodes, g.nodes)
    assert np.array_equal(b0.weights, g.weights)
    b1 = blended_rule(3, 1.0)
    lo = lobatto_rule(3)
    assert np.array_equal(b1.nodes, lo.nodes)
    assert np.array_equal(b1.weights, lo.weights)


def test_blended_two_thirds_has_union_nodes():
    b = blended_rule(3, 2 / 3)
    assert b.nodes.size == 6
    assert np.all(np.diff(b.nodes) >= 0)


def test_blended_non_convex_weights():
    b = blended_rule(3, 1.8)
    g, lo = gauss_rule(3), lobatto_rule(3)
    expected = np.sort(np.concatenate([-0.8 * g.weights, 1.8 * lo.weights]))
    assert np.allclose(np.sort(b.weights), expected)
    assert b.weights.sum() == pytest.approx(2.0, abs=1e-13)


def test_blended_linearity_on_polynomials():
    rng = np.random.default_rng(2)
    for tau in (-0.8, 0.25, 2 / 3, 1.8):
        b, g, lo = blended_rule(4, tau), gauss_rule(4), lobatto_rule(4)
        for _ in range(10):
            coeffs = rng.standard_normal(9)
            f = np.polynomial.Polynomial(coeffs)
            blend = b.weights @ f(b.nodes)
            parts = (1 - tau) * (g.weights @ f(g.nodes)) + tau * (lo.weights @ f(lo.nodes))
            assert blend == pytest.approx(parts, rel=1e-13, abs=1e-13)


def test_map_rule_examples():
    nodes, weights = map_rule_to_element(gauss_rule(1), 0.0, 0.5)
    assert np.allclose(nodes, [0.25]) and np.allclose(weights, [0.5])

    nodes, _ = map_rule_to_element(gauss_rule(2), 0.0, 1.0)
    assert np.allclose(nodes, [0.21132486540518713, 0.7886751345948129])

    for a, b in ((0.2, 0.7), (0.0, 0.125)):
        _, weights = map_rule_to_element(lobatto_rule(4), a, b)
        assert weights.sum() == pytest.approx(b - a, abs=1e-14)

    with pytest.raises(ValueError):
        map_rule_to_element(gauss_rule(2), 0.5, 0.5)

    # arrays of element ends map every element at once, as one at a time
    a, b = np.array([0.0, 0.25, 0.5]), np.array([0.25, 0.5, 1.0])
    nodes, weights = map_rule_to_element(gauss_rule(3), a, b)
    assert nodes.shape == weights.shape == (3, 3)
    for k in range(3):
        one = map_rule_to_element(gauss_rule(3), a[k], b[k])
        assert np.array_equal(nodes[k], one[0]) and np.array_equal(weights[k], one[1])
    with pytest.raises(ValueError):
        map_rule_to_element(gauss_rule(2), a, np.array([0.25, 0.25, 1.0]))


def test_unsupported_orders():
    with pytest.raises(ValueError):
        gauss_rule(0)
    with pytest.raises(ValueError):
        gauss_rule(33)
    with pytest.raises(ValueError):
        lobatto_rule(1)
    with pytest.raises(ValueError):
        blended_rule(1, 0.5)  # needs a valid Lobatto constituent


def test_quadrature_spec():
    assert QuadratureSpec("gauss").n_points(2) == 3
    assert QuadratureSpec("lobatto", points_per_element=5).n_points(2) == 5
    spec = QuadratureSpec("blended", tau=2 / 3)
    assert spec.reference_rule(2).nodes.size == 6
    with pytest.raises(ValueError):
        QuadratureSpec("blended")
    with pytest.raises(ValueError):
        QuadratureSpec("simpson")
    for kind in ("gauss", "lobatto"):  # a tau no rule would use
        for tau in (0.5, 0.0, math.nan):
            with pytest.raises(ValueError, match="tau applies to blended quadrature only"):
                QuadratureSpec(kind, tau=tau)
