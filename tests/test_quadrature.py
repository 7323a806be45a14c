"""Gauss-Hermite rules computed without an eigensolver."""

import math
import re

import mpmath as mp
import numpy as np
import pytest

from cvsqueeze import basis, hermite
from cvsqueeze.quadrature import _half_gauss_hermite, gauss_hermite, open_gauss_hermite, scaled_gauss_hermite


def reference_node(order, guess, digits=50):
    """The zero of H_order next to ``guess`` and its weight 1 / (order p_{order-1}^2),
    with p_j the orthonormal Hermite polynomials, at ``digits`` digits."""
    with mp.workdps(digits):
        x = mp.mpf(guess)
        for newton in (True, True, False):
            prev, cur = mp.mpf(0), mp.pi ** mp.mpf(-0.25)
            for j in range(order):
                prev, cur = cur, mp.sqrt(mp.mpf(2) / (j + 1)) * x * cur - mp.sqrt(mp.mpf(j) / (j + 1)) * prev
            if newton:
                x -= cur / (mp.sqrt(2 * order) * prev)
        return x, 1 / (order * prev**2)


# largest relative weight error on the sampled nodes, about twice this rule's
# measured worst over all nodes; numpy's eigenvalue rule measured 8.2e-17,
# 2.3e-16, 4.8e-15, 4.3e-14 and 1.5e-13 there
WEIGHT_RTOL = {2: 2.2e-16, 3: 4.4e-16, 24: 3e-15, 97: 1e-14, 320: 5e-14}


@pytest.mark.parametrize("order", sorted(WEIGHT_RTOL))
def test_rule_matches_high_precision_reference(order):
    nodes, weights = gauss_hermite(order)
    # both extremes, the nodes next to them, and some in between
    for i in sorted({0, 1, order // 4, order // 2, order - 2, order - 1}):
        node, weight = reference_node(order, nodes[i])
        assert abs(nodes[i] - node) <= 2 * np.spacing(abs(float(node)))
        assert abs(weights[i] - weight) <= WEIGHT_RTOL[order] * weight


def test_every_order_is_settled():
    # one more Newton step on the orthonormal recurrence, in double precision,
    # moves no node of any rule by more than 3 ulps of max(|x|, 1) (1.21 measured)
    for order in range(2, 371):
        nodes, _ = gauss_hermite(order)
        prev, cur = np.zeros_like(nodes), np.full_like(nodes, math.pi**-0.25)
        for j in range(order):
            prev, cur = cur, math.sqrt(2 / (j + 1)) * nodes * cur - math.sqrt(j / (j + 1)) * prev
        step = cur / (math.sqrt(2 * order) * prev)
        assert np.all(np.abs(step) <= 3 * np.spacing(np.maximum(np.abs(nodes), 1.0))), order


@pytest.mark.parametrize("order", [2, 3, 5, 24, 97, 320, 370])
def test_even_moments(order):
    nodes, weights = gauss_hermite(order)
    assert np.all(np.diff(nodes) > 0)
    np.testing.assert_array_equal(nodes, -nodes[::-1])
    np.testing.assert_array_equal(weights, weights[::-1])
    for j in range(min(order, 10)):
        moment = np.sum(weights * nodes ** (2 * j))
        assert moment == pytest.approx(math.gamma(j + 0.5), rel=1e-14)


@pytest.mark.parametrize("order", [2, 3, 8, 9, 24, 25, 96, 97, 370])
def test_half_rule_folds_the_mirror_weights(order):
    # the nodes >= 0 of the scaled rule; a positive node's weight is its own
    # plus its mirror's, exactly twice its own because the rule is mirrored
    # exactly, and an odd order's zero node keeps its weight
    nodes, weights = scaled_gauss_hermite(order, 0.5)
    half, folded = _half_gauss_hermite(order, 0.5)
    np.testing.assert_array_equal(half, nodes[order // 2:])
    assert half[0] == 0.0 if order % 2 else half[0] > 0.0
    np.testing.assert_array_equal(folded[half > 0], 2.0 * weights[nodes > 0])
    np.testing.assert_array_equal(folded[half == 0], weights[nodes == 0])
    # so a sum of an even function over the half rule is its sum over the rule
    total = np.sum(weights * (np.cos(nodes) + nodes**2))
    assert np.sum(folded * (np.cos(half) + half**2)) == pytest.approx(total, rel=1e-14)


@pytest.mark.parametrize("order", [96, 320])
def test_open_rule_folds_without_rounding_the_square(order):
    # the folded weight against w exp(x^2) of the rule's own doubles at 50
    # digits: exp's ulp and three half-ulp roundings bound it by 3 eps
    # (1.9e-16 and 9.6e-17 measured); w exp(fl(x^2)) was 1.3e-14 and 5.5e-14
    # off on the six outermost nodes of orders 96 and 320
    nodes, weights = gauss_hermite(order)
    open_nodes, folded = open_gauss_hermite(order, 1.0)
    np.testing.assert_array_equal(open_nodes, nodes)
    with mp.workdps(50):
        for i in [0, 1, 2, order - 3, order - 2, order - 1]:
            exact = mp.mpf(float(weights[i])) * mp.exp(mp.mpf(float(nodes[i])) ** 2)
            assert abs(folded[i] - exact) <= 3 * np.finfo(float).eps * exact, i


def test_no_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    for name in ("eigvalsh", "eigh", "eig"):
        monkeypatch.setattr(np.linalg, name, refuse)
    gauss_hermite.cache_clear()
    nodes, weights = gauss_hermite(96)
    assert nodes.shape == weights.shape == (96,)
    assert weights.sum() == pytest.approx(math.sqrt(math.pi), rel=1e-15)


@pytest.mark.parametrize("order", [24.0, 24.5, "24"], ids=repr)
def test_order_must_be_an_integer(order):
    with pytest.raises(TypeError, match=f"must be an integer, got {order!r}"):
        gauss_hermite(order)


@pytest.mark.parametrize("order", [True, 1, 0, -3], ids=repr)
def test_order_below_two_raises(order):
    with pytest.raises(ValueError, match=f">= 2, got {order!r}"):
        gauss_hermite(order)


@pytest.mark.parametrize(
    "call, error, message",
    [
        # each compared the order with its exactness bound before anything
        # checked it, so a string failed with a TypeError naming no argument
        (lambda: basis.basis_gram(0.5, 4, "40"), TypeError, "must be an integer, got '40'"),
        (lambda: basis.basis_gram(0.5, 4, 40.0), TypeError, "must be an integer, got 40.0"),
        (lambda: basis.basis_gram(0.5, 4, True), ValueError, "must be >= 2, got True"),
    ],
)
def test_exactness_checks_take_the_rule_order_contract(call, error, message):
    with pytest.raises(error, match=f"^quadrature order {re.escape(message)}$"):
        call()


def test_numpy_integer_order_shares_the_rule():
    assert gauss_hermite(np.int64(24)) is gauss_hermite(24)
    # the numpy integer's cache entry must not let a float through
    with pytest.raises(TypeError, match="got 24.0"):
        gauss_hermite(24.0)


def test_rules_are_read_only():
    nodes, weights = gauss_hermite(8)
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    with pytest.raises(ValueError):
        weights[0] = 0.0
