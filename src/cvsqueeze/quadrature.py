"""Shared Gauss-Hermite quadrature helpers.

:func:`gauss_hermite` computes its rules in O(order^2) vectorized
arithmetic, with no eigensolver and so no LAPACK or BLAS call: first
guesses from the WKB phase condition with Airy-zero corrections, Halley
steps on the monic Hermite recurrence at the nonnegative nodes, and the
Christoffel weights with the last step's residual folded in (after
A. Glaser, X. Liu and V. Rokhlin, SIAM J. Sci. Comput. 29, 1420, 2007,
and A. Townsend, T. Trogdon and S. Olver, IMA J. Numer. Anal. 36, 337,
2016; the eigenvalue route they replace is G. H. Golub and J. H. Welsch,
Math. Comp. 23, 221, 1969).  Rules exist up to order 370: from 371 on
the outermost weights fall below the normal double range.
"""

from __future__ import annotations

import math
import operator
import sys
from functools import lru_cache

import numpy as np


class ConvergenceError(RuntimeError):
    """Doubling the quadrature order moved the result beyond tolerance."""


def _first_guesses(order: int) -> np.ndarray:
    """Approximate nonnegative zeros of H_order, largest first.

    The k-th largest zero x = sqrt(2 order + 1) cos(theta) solves the WKB
    condition (2 order + 1)(2 theta - sin 2 theta) / 4 = phase_k, with
    phase_k = (2/3)|a_k|^(3/2) for the k-th Airy zero a_k; its expansion
    in t = 3 pi (4k - 1) / 8 is t (2/3) + 5 / (48 t) - 1255 / (9216 t^3).
    """
    t = np.arange(3.0, 2.0 * order + 2.0, 4.0) * (3.0 * math.pi / 8.0)
    phase = (2.0 / 3.0) * t + 5.0 / 48.0 / t - (1255.0 / 9216.0) / t**3
    c = phase * (4.0 / (2.0 * order + 1.0))
    # 2 theta - sin 2 theta is increasing and convex on [0, pi / 2], and this
    # start lies above the root, so Newton's steps fall to it monotonically
    theta = np.cbrt(c * (math.pi**2 / 8.0))
    for _ in range(3):
        sin = np.sin(theta)
        theta -= (2.0 * theta - np.sin(2.0 * theta) - c) / (4.0 * sin * sin)
    x = math.sqrt(2.0 * order + 1.0) * np.cos(theta)
    if order % 2:
        x[-1] = 0.0
    return x


def _scaled_monic_hermite(x: np.ndarray, order: int, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """(v_{order-1}(x), v_order(x)) with v_j = 2^(-shift j) H_j(x) / 2^j.

    v_{j+1} = (x / 2^shift) v_j - (j / 2) 4^(-shift) v_{j-1}: every
    coefficient is exact in binary, and the power-of-two scaling keeps the
    values inside the double range.
    """
    xs = x * math.ldexp(1.0, -shift)
    step = math.ldexp(0.5, -2 * shift)
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    nxt = np.empty_like(x)
    term = np.empty_like(x)
    for j in range(order):
        np.multiply(xs, cur, out=nxt)
        np.multiply(prev, j * step, out=term)
        nxt -= term
        prev, cur, nxt = cur, nxt, prev
    return prev, cur


def _hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    # 2^(shift order) is about sqrt(order! / 2^order), the factor between the
    # monic and the orthonormal Hermite polynomials at j = order
    shift = max(0, round(0.5 * math.log2(order / (2.0 * math.e))))
    x = _first_guesses(order)
    # Two Halley steps.  The first guesses are within 4.7e-3 of the zeros
    # (2.5e-4 from order 24 on), the first step leaves Newton corrections r
    # below 6e-8 at orders 2-370, and the second lands within an ulp.
    for _ in range(2):
        below, top = _scaled_monic_hermite(x, order, shift)
        # Newton correction r = p/p' of the monic H_order, p' = order p_{order-1};
        # with p'' = 2 x p' - 2 order p the Halley step is r / (1 - r (x - order r))
        r = top / below * (math.ldexp(1.0, shift) / order)
        at, x = x, x - r / (1.0 - r * (x - order * r))
    # Christoffel weights are proportional to 1 / p_{order-1}^2 at the exact
    # zero x*; from the last evaluation point, p'(x*) / p'(at) = 1 - 2 at r +
    # (1 + order) r^2 to second order in r.  Scaled by the central value,
    # then normalized to the rule's exact zeroth moment sqrt(pi).
    ratio = below[-1] / below
    half = ratio * ratio / (1.0 - 2.0 * at * r + (1.0 + order) * r * r) ** 2
    odd = order % 2
    nodes = np.concatenate((-x, x[::-1][odd:]))
    weights = np.concatenate((half, half[::-1][odd:]))
    weights *= math.sqrt(math.pi) / weights.sum()
    return nodes, weights


def check_order(order: int) -> int:
    """``order`` as an int: a quadrature order of at least 2.

    ``operator.index`` decides what is an integer, so ``np.int64`` is
    accepted and ``24.0`` or ``"24"`` raise ``TypeError``; an order below 2
    raises ``ValueError``.  Callers that compare an order with an exactness
    bound validate it here first.
    """
    try:
        index = operator.index(order)
    except TypeError:
        raise TypeError(f"quadrature order must be an integer, got {order!r}") from None
    if index < 2:
        raise ValueError(f"quadrature order must be >= 2, got {order!r}")
    return index


@lru_cache(maxsize=64, typed=True)
def gauss_hermite(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights for integrals against exp(-t^2) dt.

    ``order`` is an integer of at least 2 (``operator.index`` decides, so
    ``np.int64`` is accepted and ``24.0`` or ``True`` are not).  The rule
    is computed without an eigensolver, as the module docstring says: its
    nodes are within about one ulp of the exact zeros and its weights
    within a few 1e-14 relative at the outermost nodes.  A rule any of
    whose weights is not a positive normal double raises ``ValueError``;
    that is every order from 371 on.  Arrays are read-only and shared
    between calls.
    """
    index = check_order(order)
    if type(order) is not int:
        # np.int64(24) gets a cache key of its own (typed, so that 24.0 can
        # never hit it), holding the very arrays cached for 24
        return gauss_hermite(index)
    with np.errstate(all="ignore"):
        nodes, weights = _hermite_rule(order)
    if not (np.isfinite(weights) & (weights >= sys.float_info.min)).all():
        raise ValueError(f"Gauss-Hermite weights are not all positive normal doubles at order {order}")
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def scaled_gauss_hermite(order: int, coeff: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integrals against exp(-coeff * t^2) dt.

    Substitutes t = s / sqrt(coeff) into the standard rule; ``coeff`` must be
    positive and finite.
    """
    if not 0.0 < coeff < np.inf:
        raise ValueError(f"Gaussian weight coefficient coeff must be positive and finite, got {coeff}")
    nodes, weights = gauss_hermite(order)
    scale = 1.0 / np.sqrt(coeff)
    return nodes * scale, weights * scale


def _half_gauss_hermite(order: int, coeff: float) -> tuple[np.ndarray, np.ndarray]:
    """The nodes >= 0 (ascending) of :func:`scaled_gauss_hermite` and their folded weights.

    The rule is symmetric about 0, so its sum of an even function is the
    sum over these nodes, each weight with its mirror's added in; the zero
    node of an odd order is its own mirror and counted once.
    """
    nodes, weights = scaled_gauss_hermite(order, coeff)
    half = order // 2
    folded = weights[half:].copy()
    folded[order % 2:] += weights[half - 1::-1]
    return nodes[half:], folded


def _plane_gauss_hermite(order: int, coeff_x: float, coeff_y: float) -> tuple[np.ndarray, np.ndarray]:
    """Flat nodes z = x + i y and weights of the tensor rule on the complex
    plane for integrals against exp(-coeff_x x^2 - coeff_y y^2) dx dy."""
    x, wx = scaled_gauss_hermite(order, coeff_x)
    y, wy = scaled_gauss_hermite(order, coeff_y)
    return (x[:, None] + 1j * y[None, :]).ravel(), np.outer(wx, wy).ravel()


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Veltkamp's split of a double into two 26-bit halves
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def open_gauss_hermite(order: int, coeff: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for plain integrals of functions decaying like exp(-coeff t^2).

    The Gaussian weight is folded back into the quadrature weights
    (w -> w exp(node^2)), the classic correction for integrands that carry
    their own decay.  node^2 is carried exactly as s + e (Dekker's product)
    and the fold is w exp(s) (1 + e), so the rounding of node^2, which
    exp would magnify to node^2 eps relative, never enters.
    """
    if not 0.0 < coeff < np.inf:
        raise ValueError(f"Gaussian decay coefficient coeff must be positive and finite, got {coeff}")
    nodes, weights = gauss_hermite(order)
    hi, lo = _split(nodes)
    square = nodes * nodes
    folded = weights * np.exp(square) * (1.0 + (((hi * hi - square) + 2.0 * hi * lo) + lo * lo))
    if not np.isfinite(folded).all():
        raise ValueError(f"folded Gauss-Hermite weights are not finite at order {order}")
    scale = 1.0 / np.sqrt(coeff)
    return nodes * scale, folded * scale


def _refine_by_doubling(evaluate, order: int, check: bool, rtol: float, what: str):
    """``evaluate(order)``, or with ``check`` the value at twice the order.

    The order-doubling policy of every quadrature routine: each entry of
    the doubled-order value must agree with the value at ``order`` within
    ``rtol`` relative to max(1, |refined|), else :class:`ConvergenceError`
    is raised.  A NaN in either level fails.
    """
    value = evaluate(order)
    if not check:
        return value
    refined = evaluate(2 * order)
    diff = np.abs(value - refined)
    scale = np.maximum(1.0, np.abs(refined))
    # written so that a NaN difference fails the test
    if not np.all(diff <= rtol * scale):
        raise ConvergenceError(
            f"{what}: order doubling changed the result by up to "
            f"{np.max(diff / scale):.3e} relative to max(1, |value|) (tolerance {rtol:.1e})"
        )
    return refined
