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

    numpy's rule overflows to NaN weights from order 372 on, which is
    reported as a ``ValueError`` rather than returned.
    """
    if order < 2:
        raise ValueError(f"quadrature order must be >= 2, got {order}")
    nodes, weights = hermgauss(order)
    if not np.isfinite(weights).all():
        raise ValueError(f"Gauss-Hermite weights are not finite at order {order}")
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def scaled_gauss_hermite(order: int, coeff: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integrals against exp(-coeff * t^2) dt.

    Substitutes t = s / sqrt(coeff) into the standard rule; ``coeff`` must be
    positive.
    """
    if coeff <= 0.0:
        raise ValueError(f"Gaussian weight coefficient must be positive, got {coeff}")
    nodes, weights = gauss_hermite(order)
    scale = 1.0 / np.sqrt(coeff)
    return nodes * scale, weights * scale


def open_gauss_hermite(order: int, coeff: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for plain integrals of functions decaying like exp(-coeff t^2).

    The Gaussian weight is folded back into the quadrature weights
    (w -> w exp(node^2)), the classic correction for integrands that carry
    their own decay.
    """
    if coeff <= 0.0:
        raise ValueError(f"Gaussian decay coefficient must be positive, got {coeff}")
    nodes, weights = gauss_hermite(order)
    folded = weights * np.exp(nodes**2)
    if not np.isfinite(folded).all():
        raise ValueError(f"folded Gauss-Hermite weights are not finite at order {order}")
    scale = 1.0 / np.sqrt(coeff)
    return nodes * scale, folded * scale


def require_convergence(coarse: complex, fine: complex, rtol: float, what: str) -> None:
    """Raise :class:`ConvergenceError` when two quadrature levels disagree."""
    scale = max(1.0, abs(fine))
    # written so that a NaN difference fails the test
    if not abs(coarse - fine) <= rtol * scale:
        raise ConvergenceError(
            f"{what}: order doubling changed the result by "
            f"{abs(coarse - fine):.3e} (tolerance {rtol:.1e} relative to {scale:.3e})"
        )
