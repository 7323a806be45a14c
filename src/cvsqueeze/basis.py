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

from .quadrature import scaled_gauss_hermite

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
    c = sqrt(2 alpha / ((1 - alpha)(1 + alpha))) the quantity
    e_n = gamma^n H_n(c z) / sqrt(2^n n!) obeys

        e_{n+1} = (sqrt(2) gamma c z e_n - gamma^2 sqrt(n) e_{n-1}) / sqrt(n+1),

    and the basis value is the n-th entry times
    sqrt(2 sqrt(alpha)/(1+alpha)) * exp((1-alpha)/(1+alpha) z^2 / 2).

    ``z`` may be scalar or ndarray; output shape is ``(n_max+1, *shape(z))``.
    """
    alpha = check_alpha(alpha, closed=False)
    z = np.asarray(z, dtype=complex)
    beta = (1.0 - alpha) / (1.0 + alpha)
    prefactor = math.sqrt(2.0 * math.sqrt(alpha) / (1.0 + alpha))
    return prefactor * np.exp(0.5 * beta * z * z) * _polynomial_sequence(n_max, alpha, z)


def _polynomial_sequence(n_max: int, alpha: float, z: np.ndarray) -> np.ndarray:
    # the polynomial part e_n of basis_function_sequence, for a checked
    # alpha and complex z
    beta = (1.0 - alpha) / (1.0 + alpha)
    gamma = math.sqrt(beta)
    cz = math.sqrt(2.0 * alpha / ((1.0 - alpha) * (1.0 + alpha))) * z
    e = np.empty((n_max + 1,) + z.shape, dtype=complex)
    e[0] = 1.0
    if n_max >= 1:
        e[1] = math.sqrt(2.0) * gamma * cz
    for n in range(1, n_max):
        e[n + 1] = (math.sqrt(2.0) * gamma * cz * e[n] - beta * math.sqrt(n) * e[n - 1]) / math.sqrt(n + 1)
    return e


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
    c = 2 sqrt(alpha)/sqrt((1-alpha)(1+alpha)), filled by the two-index
    recurrence, times 2 sqrt(alpha)/(1+alpha) * exp(beta z1 z2).
    ``z1``/``z2`` may be scalars or broadcast-compatible ndarrays; output
    shape ``(m_max+1, n_max+1, *broadcast_shape)``.
    """
    alpha = check_alpha(alpha, closed=False)
    z1, z2 = np.broadcast_arrays(np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex))
    beta = (1.0 - alpha) / (1.0 + alpha)
    prefactor = 2.0 * math.sqrt(alpha) / (1.0 + alpha)
    return prefactor * np.exp(beta * z1 * z2) * _polynomial_2v_table(m_max, n_max, alpha, z1, z2)


def _polynomial_2v_table(m_max: int, n_max: int, alpha: float, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    # the polynomial part g_{m,n} of basis_function_2v_table, for a checked
    # alpha and complex z1, z2 of one shape
    beta = (1.0 - alpha) / (1.0 + alpha)
    gamma = math.sqrt(beta)
    scale = 2.0 * math.sqrt(alpha) / math.sqrt((1.0 - alpha) * (1.0 + alpha))
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
    return g


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


# largest max_index at which basis_gram was measured within 3e-10 of I
_GRAM_MAX_INDEX = 10


def basis_gram(alpha: float, max_index: int = 4, order: int = 40) -> np.ndarray:
    """Gram matrix of the two-variable basis under the Gaussian measure.

    Rows and columns run over pairs (m, n) with m, n <= max_index in
    row-major order; orthonormality means the result is the identity.

    On the principal axes a = (z1 + z2)/sqrt(2) and b' = i (z1 - z2)/sqrt(2)
    the weight |exp(beta z1 z2)|^2 exp(-|z1|^2 - |z2|^2), with
    beta = (1-alpha)/(1+alpha), is exp(-(1-beta) s^2 - (1+beta) t^2) for
    a = s + i t times the same Gaussian in b'.  Integrated against it is
    g conj(g'), the product of two polynomial parts of
    :func:`basis_function_2v_table`, of degree <= 4 max_index along each
    real axis.  A Gauss-Hermite rule of ``order`` nodes on each of the four
    axes is therefore exact when order >= 2 max_index + 1; a smaller order
    raises ``ValueError``.

    The order^4-node sum is evaluated in factored form.  Each polynomial
    part is expanded as g(a, b') = sum D[p, q] e_p(a) e_q(b'), where e_p are
    the polynomial parts of :func:`basis_function_sequence`, orthogonal
    under the weight of one plane.  A discrete Fourier transform of g on the
    torus |a| = |b'| = r gives its coefficients in the monomials
    (a/r)^k (b'/r)^l, and the three-term recurrence of the e_p turns them
    into D.  The rule then reduces to the Gram matrix of the e_p on one
    plane, M[p, p'] = sum of w e_p(a) conj(e_p'(a)) over its order^2 nodes:
    G = D (M kron M) D^H * 4 alpha / ((1+alpha)^2 pi^2).

    Rounding grows with ``max_index``: on a logarithmic grid of alpha over
    [1e-8, 1 - 1e-9], max |G - I| stayed below 3e-14 at max_index 4, 1e-11
    at 8 and 3e-10 at 10, but reached about 1e-7 at 14 and 2e-4 at 18.
    The torus samples lose it; a max_index above 10 raises ``ValueError``.
    """
    alpha = check_alpha(alpha, closed=False)
    if not 0 <= max_index <= _GRAM_MAX_INDEX:
        raise ValueError(f"max_index must be in [0, {_GRAM_MAX_INDEX}], got {max_index}")
    degree = 2 * max_index
    if order < degree + 1:
        raise ValueError(
            f"order {order} is below 2 * max_index + 1 = {degree + 1}, where the rule is not exact"
        )
    beta = (1.0 - alpha) / (1.0 + alpha)
    wide = 2.0 * alpha / (1.0 + alpha)  # 1 - beta
    narrow = 2.0 / (1.0 + alpha)  # 1 + beta
    # the weighted mass of a degree-d polynomial reaches out to about
    # sqrt(d) standard deviations of the wide axis; the factor 1/3 gave the
    # least rounding over alpha in [1e-8, 1) for max_index 1 to 14
    radius = math.sqrt((degree + 1) / (3.0 * wide))
    points = degree + 1
    dim = max_index + 1

    circle = radius * np.exp(2j * np.pi / points * np.arange(points))
    a, b = circle[:, None], circle[None, :]  # a and b' on the torus
    z1, z2 = np.broadcast_arrays((a - 1j * b) / math.sqrt(2.0), (a + 1j * b) / math.sqrt(2.0))
    values = _polynomial_2v_table(max_index, max_index, alpha, z1, z2).reshape(dim * dim, points, points)
    monomial = np.fft.fft2(values) / points**2

    # with kappa = gamma c r (gamma c = sqrt(2 alpha)/(1+alpha), as in
    # _polynomial_sequence) the recurrence reads
    # (a/r) e_p = (sqrt(p+1) e_{p+1} + beta sqrt(p) e_{p-1}) / (sqrt(2) kappa),
    # so (a/r)^k = sum_p expand[k, p] e_p(a) with nonnegative entries
    kappa = math.sqrt(2.0 * alpha) / (1.0 + alpha) * radius
    up = np.sqrt(np.arange(1.0, points)) / (math.sqrt(2.0) * kappa)
    step = np.diag(up, 1) + np.diag(beta * up, -1)
    expand = np.zeros((points, points))
    expand[0, 0] = 1.0
    for k in range(1, points):
        expand[k] = expand[k - 1] @ step
    coeffs = (expand.T @ monomial @ expand).reshape(dim * dim, points * points)

    s, ws = scaled_gauss_hermite(order, wide)
    t, wt = scaled_gauss_hermite(order, narrow)
    e = _polynomial_sequence(degree, alpha, (s[:, None] + 1j * t[None, :]).ravel())
    plane = (e * np.outer(ws, wt).ravel()) @ e.conj().T
    gram = coeffs @ np.kron(plane, plane) @ coeffs.conj().T
    return gram * (4.0 * alpha / ((1.0 + alpha) ** 2 * np.pi**2))
