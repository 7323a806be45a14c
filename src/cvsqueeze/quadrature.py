"""Shared Gauss-Hermite quadrature helpers."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss


class ConvergenceError(RuntimeError):
    """Doubling the quadrature order moved the result beyond tolerance."""


@lru_cache(maxsize=64)
def gauss_hermite(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integrals against exp(-t^2) dt.

    numpy's rule fails from order 371 on: the sum it normalizes the weights
    by overflows, leaving all-zero weights at 371 and NaN ones from 372.
    Any weight that is not finite and positive is reported as a
    ``ValueError`` rather than returned.
    """
    if order < 2:
        raise ValueError(f"quadrature order must be >= 2, got {order}")
    with np.errstate(all="ignore"):
        nodes, weights = hermgauss(order)
    if not (np.isfinite(weights) & (weights > 0.0)).all():
        raise ValueError(f"Gauss-Hermite weights are not finite and positive at order {order}")
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


def _plane_gauss_hermite(order: int, coeff_x: float, coeff_y: float) -> tuple[np.ndarray, np.ndarray]:
    """Flat nodes z = x + i y and weights of the tensor rule on the complex
    plane for integrals against exp(-coeff_x x^2 - coeff_y y^2) dx dy."""
    x, wx = scaled_gauss_hermite(order, coeff_x)
    y, wy = scaled_gauss_hermite(order, coeff_y)
    return (x[:, None] + 1j * y[None, :]).ravel(), np.outer(wx, wy).ravel()


def open_gauss_hermite(order: int, coeff: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for plain integrals of functions decaying like exp(-coeff t^2).

    The Gaussian weight is folded back into the quadrature weights
    (w -> w exp(node^2)), the classic correction for integrands that carry
    their own decay.
    """
    if not 0.0 < coeff < np.inf:
        raise ValueError(f"Gaussian decay coefficient coeff must be positive and finite, got {coeff}")
    nodes, weights = gauss_hermite(order)
    folded = weights * np.exp(nodes**2)
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
