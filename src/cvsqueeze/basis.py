"""Squeeze-parameterized holomorphic basis functions.

The real parameter ``alpha`` in (0, 1) controls the anisotropy of the
Gaussian weight in the space of holomorphic functions and maps to the
squeezing strength ``xi = -ln(alpha)/2``.  Two families of expansion
coefficients are built from it:

* mode tag ``k=1``: products of the one-variable functions,
  ``coefficient(1, m, n, ...) = basis_function(m, ...) * basis_function(n, ...)``,
* mode tag ``k=2``: the genuinely two-variable family ``basis_function_2v``.

Internally everything runs on scaled recurrences (the raw polynomial values
grow like sqrt(m! n!), the basis values stay O(1)), so tables up to a few
hundred indices are safe in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import gauss_hermite

__all__ = [
    "SqueezeParam",
    "squeeze_from_alpha",
    "alpha_from_squeeze",
    "basis_function",
    "basis_function_2v",
    "basis_function_sequence",
    "basis_function_2v_table",
    "coefficient",
    "coefficient_table",
    "coefficient_norm_partial",
    "gaussian_measure_density",
    "basis_gram",
]

MODE_TAGS = (1, 2)


def check_mode(k: int) -> int:
    if k not in MODE_TAGS:
        raise ValueError(f"mode tag k must be 1 or 2, got {k!r}")
    return int(k)


def check_alpha(alpha: float, *, closed: bool) -> float:
    """``alpha`` as a float, checked to lie in (0, 1), or in (0, 1] if ``closed``.

    Callers whose formulas stay regular without squeezing (alpha = 1) pass
    ``closed=True``.  NaN and inf are rejected either way.
    """
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0 or (closed and alpha == 1.0)):
        interval = "(0, 1]" if closed else "(0, 1)"
        raise ValueError(f"alpha must lie in {interval}, got {alpha}")
    return alpha


@dataclass(frozen=True)
class SqueezeParam:
    """Squeeze strength bookkeeping: alpha in (0, 1] and xi = -ln(alpha)/2."""

    alpha: float
    xi: float


def squeeze_from_alpha(alpha: float) -> SqueezeParam:
    """Map alpha in (0, 1] to the squeezing strength xi.

    ``xi = artanh((1-alpha)/(1+alpha)) = -ln(alpha)/2``; alpha = 1 means no
    squeezing.  Basis evaluators additionally exclude alpha = 1 because
    their argument scaling degenerates there; this map keeps the closed
    endpoint for limit bookkeeping.
    """
    alpha = check_alpha(alpha, closed=True)
    return SqueezeParam(alpha=alpha, xi=-0.5 * math.log(alpha))


def alpha_from_squeeze(xi: float) -> float:
    """Inverse of :func:`squeeze_from_alpha`: alpha = exp(-2 xi), xi >= 0."""
    xi = float(xi)
    if xi < 0.0:
        raise ValueError(f"xi must be nonnegative, got {xi}")
    return math.exp(-2.0 * xi)


def basis_function_sequence(n_max: int, alpha: float, z) -> np.ndarray:
    """Values of the one-variable basis functions for n = 0 .. n_max.

    Stable scaled recurrence: with gamma = sqrt((1-alpha)/(1+alpha)) and
    c = sqrt(2 alpha / (1 - alpha^2)) the quantity
    e_n = gamma^n H_n(c z) / sqrt(2^n n!) obeys

        e_{n+1} = (sqrt(2) gamma c z e_n - gamma^2 sqrt(n) e_{n-1}) / sqrt(n+1),

    and the basis value is the n-th entry times
    sqrt(2 sqrt(alpha)/(1+alpha)) * exp((1-alpha)/(1+alpha) z^2 / 2).

    ``z`` may be scalar or ndarray; output shape is ``(n_max+1, *shape(z))``.
    """
    alpha = check_alpha(alpha, closed=False)
    z = np.asarray(z, dtype=complex)
    beta = (1.0 - alpha) / (1.0 + alpha)
    gamma = math.sqrt(beta)
    cz = math.sqrt(2.0 * alpha / (1.0 - alpha * alpha)) * z
    e = np.empty((n_max + 1,) + z.shape, dtype=complex)
    e[0] = 1.0
    if n_max >= 1:
        e[1] = math.sqrt(2.0) * gamma * cz
    for n in range(1, n_max):
        e[n + 1] = (math.sqrt(2.0) * gamma * cz * e[n] - beta * math.sqrt(n) * e[n - 1]) / math.sqrt(n + 1)
    prefactor = math.sqrt(2.0 * math.sqrt(alpha) / (1.0 + alpha))
    return prefactor * np.exp(0.5 * beta * z * z) * e


def basis_function(n: int, alpha: float, z):
    """One-variable alpha-parameterized basis function of complex argument."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    value = basis_function_sequence(n, alpha, z)[n]
    return complex(value) if value.ndim == 0 else value


def basis_function_2v_table(m_max: int, n_max: int, alpha: float, z1, z2) -> np.ndarray:
    """Table of the two-variable basis functions for m <= m_max, n <= n_max.

    Same scaling strategy as :func:`basis_function_sequence`:
    g_{m,n} = gamma^(m+n) H_{m,n}(c z1, c z2) / sqrt(m! n!) with
    c = 2 sqrt(alpha)/sqrt(1-alpha^2), filled by the two-index recurrence.
    ``z1``/``z2`` may be scalars or broadcast-compatible ndarrays; output
    shape ``(m_max+1, n_max+1, *broadcast_shape)``.
    """
    alpha = check_alpha(alpha, closed=False)
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    z1, z2 = np.broadcast_arrays(z1, z2)
    beta = (1.0 - alpha) / (1.0 + alpha)
    gamma = math.sqrt(beta)
    scale = 2.0 * math.sqrt(alpha) / math.sqrt(1.0 - alpha * alpha)
    w1 = gamma * scale * z1
    w2 = gamma * scale * z2
    g = np.empty((m_max + 1, n_max + 1) + z1.shape, dtype=complex)
    g[0, 0] = 1.0
    for n in range(n_max):
        g[0, n + 1] = w2 * g[0, n] / math.sqrt(n + 1)
    for m in range(m_max):
        g[m + 1, 0] = w1 * g[m, 0] / math.sqrt(m + 1)
        for n in range(1, n_max + 1):
            g[m + 1, n] = (w1 * g[m, n] - beta * math.sqrt(n) * g[m, n - 1]) / math.sqrt(m + 1)
    prefactor = 2.0 * math.sqrt(alpha) / (1.0 + alpha)
    return prefactor * np.exp(beta * z1 * z2) * g


def basis_function_2v(m: int, n: int, alpha: float, z1, z2):
    """Two-variable alpha-parameterized basis function."""
    if m < 0 or n < 0:
        raise ValueError(f"indices must be nonnegative, got ({m}, {n})")
    value = basis_function_2v_table(m, n, alpha, z1, z2)[m, n]
    return complex(value) if value.ndim == 0 else value


def coefficient_table(k: int, alpha: float, z1: complex, z2: complex, n_max: int) -> np.ndarray:
    """Expansion coefficients phi_{k,(m,n)}(z1, z2) for m, n <= n_max."""
    check_mode(k)
    if k == 1:
        seq1 = basis_function_sequence(n_max, alpha, complex(z1))
        seq2 = basis_function_sequence(n_max, alpha, complex(z2))
        return np.outer(seq1, seq2)
    return basis_function_2v_table(n_max, n_max, alpha, complex(z1), complex(z2))


def coefficient(k: int, m: int, n: int, alpha: float, z1: complex, z2: complex) -> complex:
    """Single expansion coefficient phi_{k,(m,n)}(z1, z2)."""
    if m < 0 or n < 0:
        raise ValueError(f"indices must be nonnegative, got ({m}, {n})")
    return complex(coefficient_table(k, alpha, z1, z2, max(m, n))[m, n])


def coefficient_norm_partial(k: int, alpha: float, z1: complex, z2: complex, n_max: int) -> float:
    """Partial sum over m, n <= n_max of |phi_{k,(m,n)}(z1, z2)|^2.

    Nondecreasing in ``n_max`` (partial sums of nonnegative terms); the full
    series converges for every (z1, z2), which is what makes the expanded
    states normalizable.  The limit is exp(|z1|^2 + |z2|^2) for both modes.
    """
    table = coefficient_table(k, alpha, z1, z2, n_max)
    return float(np.sum(np.abs(table) ** 2))


def gaussian_measure_density(w1: complex, w2: complex) -> float:
    """Density pi^-2 exp(-|w1|^2 - |w2|^2) of the Gaussian reference measure."""
    return float(np.pi**-2 * np.exp(-abs(w1) ** 2 - abs(w2) ** 2))


def basis_gram(alpha: float, max_index: int = 4, order: int = 40) -> np.ndarray:
    """Gram matrix of the two-variable basis under the Gaussian measure.

    Integrates over C^2 with a tensor-product Gauss-Hermite rule on the four
    real axes (Re z1, Im z1, Re z2, Im z2), ``order`` nodes each.  Rows and
    columns run over pairs (m, n) with m, n <= max_index in row-major order;
    orthonormality means the result is close to the identity.  Evaluation is
    chunked along the first axis to bound memory.
    """
    alpha = check_alpha(alpha, closed=False)
    nodes, weights = gauss_hermite(order)
    dim = max_index + 1
    gram = np.zeros((dim * dim, dim * dim), dtype=complex)
    v1 = nodes[:, None, None]
    u2 = nodes[None, :, None]
    v2 = nodes[None, None, :]
    w_rest = (weights[:, None, None] * weights[None, :, None] * weights[None, None, :]).ravel()
    z2 = np.broadcast_to(u2 + 1j * v2, (order, order, order)).ravel()
    for i, u1 in enumerate(nodes):
        z1 = np.broadcast_to(u1 + 1j * v1, (order, order, order)).ravel()
        values = basis_function_2v_table(max_index, max_index, alpha, z1, z2)
        flat = values.reshape(dim * dim, -1)
        gram += (flat * (weights[i] * w_rest)) @ flat.conj().T
    return gram / np.pi**2
