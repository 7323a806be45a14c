"""Squeeze-parameterized holomorphic basis functions.

The real parameter ``alpha`` in (0, 1) controls the anisotropy of the
Gaussian weight in the space of holomorphic functions and maps to the
squeezing strength ``xi = -ln(alpha)/2``.  Each family is one table, and
one value is one index into it: ``basis_function_sequence`` holds the
one-variable basis functions, ``basis_function_2v_table`` the two-variable
ones and ``coefficient_table`` the expansion coefficients phi_{k,(m,n)},
built from them for two mode tags:

* ``k=1``: products of the one-variable functions, the outer product of
  two ``basis_function_sequence`` tables,
* ``k=2``: the genuinely two-variable family, a ``basis_function_2v_table``.

Internally everything runs on scaled recurrences (the raw polynomial values
grow like sqrt(m! n!), the basis values stay O(1)), so tables up to a few
hundred indices are safe in float64.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ._checks import (
    _finite_result,
    check_alpha,
    check_complex,
    check_complex_array,
    check_index,
    check_order,
    check_real,
)
from .quadrature import _half_gauss_hermite

__all__ = [
    "squeeze_from_alpha",
    "alpha_from_squeeze",
    "basis_function_sequence",
    "basis_function_2v_table",
    "coefficient_table",
    "coefficient_norm_partial",
    "basis_gram",
]


def squeeze_from_alpha(alpha: float) -> float:
    """The squeezing strength xi of alpha in (0, 1], as a float.

    ``xi = artanh((1-alpha)/(1+alpha)) = -ln(alpha)/2``; alpha = 1 means no
    squeezing.  Basis evaluators additionally exclude alpha = 1 because
    their argument scaling degenerates there; this map keeps the closed
    endpoint for limit bookkeeping.
    """
    return -0.5 * math.log(check_alpha(alpha, closed=True))


def alpha_from_squeeze(xi: float) -> float:
    """Inverse of :func:`squeeze_from_alpha`: alpha = exp(-2 xi), finite xi >= 0.

    An alpha below the smallest normal float64 (xi above 354.198) raises ``ValueError``.
    """
    xi = check_real(xi, "xi")
    if xi < 0.0:
        raise ValueError(f"xi must be finite and nonnegative, got {xi}")
    alpha = math.exp(-2.0 * xi)
    if alpha < np.finfo(float).tiny:
        raise ValueError(f"xi = {xi!r} is too large: alpha = exp(-2 xi) = {alpha!r} is not a normal float64")
    return alpha


def basis_function_sequence(n_max: int, alpha: float, z) -> np.ndarray:
    """Values of the one-variable basis functions for n = 0 .. n_max.

    Stable scaled recurrence: with gamma = sqrt((1-alpha)/(1+alpha)) and
    c = sqrt(2 alpha / ((1 - alpha)(1 + alpha))) the quantity
    e_n = gamma^n H_n(c z) / sqrt(2^n n!) obeys

        e_{n+1} = (sqrt(2) gamma c z e_n - gamma^2 sqrt(n) e_{n-1}) / sqrt(n+1),

    and the basis value is the n-th entry times
    sqrt(2 sqrt(alpha)/(1+alpha)) * exp((1-alpha)/(1+alpha) z^2 / 2).

    ``z`` may be scalar or ndarray; output shape is ``(n_max+1, *shape(z))``.
    A value beyond the float64 range raises ``ValueError``.
    """
    alpha = check_alpha(alpha, closed=False)
    n_max = check_index(n_max, "n_max")
    z = check_complex_array(z, "z")
    beta = (1.0 - alpha) / (1.0 + alpha)
    prefactor = math.sqrt(2.0 * math.sqrt(alpha) / (1.0 + alpha))
    return _finite_result(
        lambda: prefactor * np.exp(0.5 * beta * z * z) * _polynomial_sequence(n_max, alpha, z),
        f"n_max {n_max}",
        z=z,
    )


def _polynomial_sequence(n_max: int, alpha: float, z: np.ndarray) -> np.ndarray:
    # the polynomial part e_n of basis_function_sequence, for a checked
    # alpha and complex z
    beta = (1.0 - alpha) / (1.0 + alpha)
    cz = math.sqrt(2.0 * alpha / ((1.0 - alpha) * (1.0 + alpha))) * z
    return _normalized_hermite(n_max, math.sqrt(2.0) * math.sqrt(beta) * cz, beta, 1.0)


def _normalized_hermite(n_max: int, s: np.ndarray, beta: float, first, scale_squared: float = 1.0) -> np.ndarray:
    # p_0 = first, p_1 = c s p_0 and p_{n+1} = (c s p_n - beta sqrt(n) p_{n-1}) / sqrt(n+1)
    # with c = sqrt(scale_squared), for n = 0 .. n_max on the shape of s: the
    # normalized Hermite recurrence, whose beta = 1, scale_squared = 2, s = a x
    # and Gaussian first give the oscillator eigenfunctions.  A c other than 1
    # is folded into each step's coefficient,
    # sqrt(scale_squared / (n+1)) s p_n - beta sqrt(n / (n+1)) p_{n-1},
    # so that c s is not rounded once and reused in every step
    p = np.empty((n_max + 1,) + s.shape, dtype=np.result_type(s, first))
    p[0] = first
    if n_max >= 1:
        p[1] = math.sqrt(scale_squared) * s * p[0]
    for n in range(1, n_max):
        if scale_squared == 1.0:
            p[n + 1] = (s * p[n] - beta * math.sqrt(n) * p[n - 1]) / math.sqrt(n + 1)
        else:
            p[n + 1] = math.sqrt(scale_squared / (n + 1)) * s * p[n] - beta * math.sqrt(n / (n + 1)) * p[n - 1]
    return p


def basis_function_2v_table(m_max: int, n_max: int, alpha: float, z1, z2) -> np.ndarray:
    """Table of the two-variable basis functions for m <= m_max, n <= n_max.

    Same scaling strategy as :func:`basis_function_sequence`:
    g_{m,n} = gamma^(m+n) H_{m,n}(c z1, c z2) / sqrt(m! n!) with
    c = 2 sqrt(alpha)/sqrt((1-alpha)(1+alpha)), filled by the two-index
    recurrence, times 2 sqrt(alpha)/(1+alpha) * exp(beta z1 z2).
    ``z1``/``z2`` may be scalars or broadcast-compatible ndarrays; output
    shape ``(m_max+1, n_max+1, *broadcast_shape)``.  A value beyond the
    float64 range raises ``ValueError``.
    """
    alpha = check_alpha(alpha, closed=False)
    m_max, n_max = check_index(m_max, "m_max"), check_index(n_max, "n_max")
    z1, z2 = np.broadcast_arrays(check_complex_array(z1, "z1"), check_complex_array(z2, "z2"))
    beta = (1.0 - alpha) / (1.0 + alpha)
    prefactor = 2.0 * math.sqrt(alpha) / (1.0 + alpha)
    return _finite_result(
        lambda: prefactor * np.exp(beta * z1 * z2) * _polynomial_2v_table(m_max, n_max, alpha, z1, z2),
        f"m_max {m_max}, n_max {n_max}",
        z1=z1,
        z2=z2,
    )


def _polynomial_2v_table(m_max: int, n_max: int, alpha: float, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    # the polynomial part g_{m,n} of basis_function_2v_table, for a checked
    # alpha and complex z1, z2 of one shape
    beta = (1.0 - alpha) / (1.0 + alpha)
    gamma = math.sqrt(beta)
    scale = 2.0 * math.sqrt(alpha) / math.sqrt((1.0 - alpha) * (1.0 + alpha))
    w1 = gamma * scale * z1
    w2 = gamma * scale * z2
    return _two_index_recurrence(m_max, n_max, beta, lambda g: w1 * g, lambda g: w2 * g, np.ones(z1.shape, complex))


def _two_index_recurrence(m_max: int, n_max: int, beta: float, times_w1, times_w2, start: np.ndarray) -> np.ndarray:
    # g_{0,0} = start, g_{0,n+1} = w2 g_{0,n} / sqrt(n+1) and
    # g_{m+1,n} = (w1 g_{m,n} - beta sqrt(n) g_{m,n-1}) / sqrt(m+1), where
    # times_w1 and times_w2 multiply a stack of values shaped like start
    g = np.empty((m_max + 1, n_max + 1) + start.shape, dtype=complex)
    g[0, 0] = start
    for n in range(n_max):
        g[0, n + 1] = times_w2(g[0, n]) / math.sqrt(n + 1)
    # row m + 1 needs only row m, so each row is one array expression over
    # n >= 1, with the loop's operation order: (beta sqrt(n)) g[m, n - 1]
    coupling = (beta * np.sqrt(np.arange(1.0, n_max + 1))).reshape((n_max,) + (1,) * start.ndim)
    for m in range(m_max):
        g[m + 1, 0] = times_w1(g[m, 0]) / math.sqrt(m + 1)
        g[m + 1, 1:] = (times_w1(g[m, 1:]) - coupling * g[m, :-1]) / math.sqrt(m + 1)
    return g


def coefficient_table(k: int, alpha: float, z1: complex, z2: complex, n_max: int) -> np.ndarray:
    """Expansion coefficients phi_{k,(m,n)}(z1, z2) for m, n <= n_max."""
    n_max = check_index(n_max, "n_max")
    z1, z2 = check_complex(z1, "z1"), check_complex(z2, "z2")
    if check_index(k, "k", minimum=1, maximum=2) == 1:
        seq1 = basis_function_sequence(n_max, alpha, z1)
        seq2 = basis_function_sequence(n_max, alpha, z2)
        return np.outer(seq1, seq2)
    return basis_function_2v_table(n_max, n_max, alpha, z1, z2)


def coefficient_norm_partial(k: int, alpha: float, z1: complex, z2: complex, n_max: int) -> float:
    """Partial sum over m, n <= n_max of |phi_{k,(m,n)}(z1, z2)|^2.

    Nondecreasing in ``n_max`` (partial sums of nonnegative terms); the full
    series converges for every (z1, z2), which is what makes the expanded
    states normalizable.  The limit is exp(|z1|^2 + |z2|^2) for both modes.
    A sum beyond the float64 range raises ``ValueError``, and so does a sum
    above the limit by more than ``NORM_RTOL`` of it.
    """
    table = coefficient_table(k, alpha, z1, z2, n_max)
    total = float(_finite_result(lambda: np.sum(np.abs(table) ** 2), f"n_max {n_max}", z1=z1, z2=z2))
    # exp(-s) underflows only where the limit exp(s) exceeds every finite sum
    _check_norm(total * math.exp(-(abs(z1) ** 2 + abs(z2) ** 2)), k, alpha, z1, z2, n_max)
    return total


# relative excess of a table's squared norm over its limit beyond which the
# table has lost digits: the excess measured at most 1.8e-14 over alpha
# 0.05-0.9, |z| <= 4, n_max <= 300 and both modes, and 6.7e-16 over the test
# suite's tables; the recurrence's loss reads 5.2e-9 at alpha 0.05,
# z1 = z2 = 4, n_max 300
NORM_RTOL = 1e-12


def _check_norm(norm_sq: float, k: int, alpha: float, z1: complex, z2: complex, n_max: int) -> None:
    # norm_sq, the table's squared norm over its limit exp(|z1|^2 + |z2|^2),
    # is a partial sum of a series that sums to 1
    if norm_sq > 1.0 + NORM_RTOL:
        raise ValueError(
            f"the mode-{k} coefficient table lost its digits at alpha {float(alpha)!r}, labels ({complex(z1)}, "
            f"{complex(z2)}), n_max {n_max}: its squared norm exceeds its limit by {norm_sq - 1.0:.3g} relative"
        )


# largest max_index at which basis_gram was measured within 3e-14 of I
_GRAM_MAX_INDEX = 20


def _coefficient_matrices(max_index: int, beta: float) -> np.ndarray:
    # C[m, n, p, q] for m, n <= max_index and p, q <= 2 max_index: the
    # polynomial part g_{m,n} of basis_function_2v_table as
    # sum C[m, n, p, q] e_p(a) e_q(b') in the polynomial parts e_p of
    # basis_function_sequence on the principal axes a = (z1 + z2)/sqrt(2),
    # b' = i (z1 - z2)/sqrt(2).  With J[p+1, p] = sqrt((p+1)/2) and
    # J[p-1, p] = beta sqrt(p/2), the three-term recurrence of the e_p,
    # multiplication by w1 = gamma c (a - i b') and w2 = gamma c (a + i b')
    # (gamma c = sqrt(2 alpha)/(1+alpha)) is C -> J C -+ i C J^T, so the
    # table's two-index recurrence runs on the matrices from a 1 at C[0, 0].
    # No g exceeds degree 2 max_index, so the matrices hold each one exactly
    degree = 2 * max_index
    up = np.sqrt(np.arange(1.0, degree + 1) / 2.0)
    jacobi = np.diag(up, -1) + np.diag(beta * up, 1)
    start = np.zeros((degree + 1, degree + 1), dtype=complex)
    start[0, 0] = 1.0
    right = 1j * jacobi.T
    return _two_index_recurrence(
        max_index, max_index, beta, lambda c: jacobi @ c - c @ right, lambda c: jacobi @ c + c @ right, start
    )


@lru_cache(maxsize=4)
def _gram_coefficients(max_index: int) -> np.ndarray:
    """The coefficient matrices of :func:`basis_gram`, read-only, one per (m, n).

    The matrices do not depend on alpha: on the principal axes the
    two-variable basis is a fixed 50:50 rotation of products of the
    one-variable one, and C[m, n, p, q] are the beam splitter's amplitudes
    (C. K. Campos, B. E. A. Saleh and M. C. Teich, PRA 40, 1371, 1989),
    supported on p + q = m + n.  So they are built once, at beta = 0, where
    the recurrence's coupling term vanishes and nothing cancels; over alpha
    in [1e-8, 1 - 1e-9] the route at beta(alpha) rounds up to 2.5e-15 away
    at max_index 4, 5.7e-13 at 10 and 1.4e-10 at 15.  The array has shape ((max_index + 1)^2, 2 max_index + 1,
    2 max_index + 1) and holds 16 (max_index + 1)^2 (2 max_index + 1)^2
    bytes: 32 kB at max_index 4, 12 MB at 20.
    """
    coeffs = _coefficient_matrices(max_index, 0.0).reshape((max_index + 1) ** 2, 2 * max_index + 1, -1)
    coeffs.flags.writeable = False
    return coeffs


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
    raises ``ValueError``.  ``order`` is checked first, as by
    ``gauss_hermite``: a non-integer order raises ``TypeError``.

    The order^4-node sum is evaluated in factored form.  Each polynomial
    part is expanded as g(a, b') = sum C[p, q] e_p(a) e_q(b'), where e_p are
    the polynomial parts of :func:`basis_function_sequence`, orthogonal
    under the weight of one plane.  The coefficient matrices C do not depend
    on alpha and are built once per max_index (the beam splitter's
    amplitudes, see ``_gram_coefficients``).  The rule then reduces to the
    Gram matrix of the e_p on one plane, M[p, p'] = sum of
    w e_p(a) conj(e_p'(a)) over its order^2 nodes, the only place alpha
    enters besides the constant:
    G[i, k] = sum (M^T C_i M)[p, q] conj(C_k[p, q]) * 4 alpha / ((1+alpha)^2 pi^2).
    The plane rule is symmetric in both axes and e_p has real coefficients
    and parity p, so M is real, zero where p + p' is odd, and a real sum of
    Re(e_p conj(e_p')) over the quadrant's nodes a = s + i t with s, t >= 0,
    with each node's mirror weights folded in: about order^2 / 4 nodes.

    Rounding grows with ``max_index``: on 33 logarithmically spaced alpha in
    [1e-8, 1 - 1e-9] at order max(40, 2 max_index + 1), max |G - I| stayed
    below 6e-15 at max_index 4, 1.2e-14 at 10, 2e-14 at 15 and 2.7e-14 at
    20, but reached 1.5e-13 at 25; a max_index above 20 raises
    ``ValueError``.  (Matrices built by the recurrence at beta(alpha) instead
    carry its cancellation: 1.1e-12 at 10 and 1.8e-10 at 15.)
    """
    alpha = check_alpha(alpha, closed=False)
    max_index = check_index(max_index, "max_index", maximum=_GRAM_MAX_INDEX)
    order = check_order(order)
    degree = 2 * max_index
    if order < degree + 1:
        raise ValueError(
            f"order {order} is below 2 * max_index + 1 = {degree + 1}, where the rule is not exact"
        )
    coeffs = _gram_coefficients(max_index)
    x, wx = _half_gauss_hermite(order, 2.0 * alpha / (1.0 + alpha))
    y, wy = _half_gauss_hermite(order, 2.0 / (1.0 + alpha))
    # e_p has real coefficients and parity p, so the images +-x +- i y of a
    # node add up to 4 Re(e_p conj(e_q)) for even p + q and to 0 for odd:
    # one real product over the quadrant's nodes, each holding [Re e_p, Im e_p]
    parts = _polynomial_sequence(degree, alpha, (x[:, None] + 1j * y[None, :]).ravel()).view(float)
    plane = (parts * np.repeat(np.outer(wx, wy).ravel(), 2)) @ parts.T
    plane[::2, 1::2] = plane[1::2, ::2] = 0.0
    rotated = (plane.T @ coeffs @ plane).reshape(len(coeffs), -1)
    gram = rotated @ coeffs.reshape(len(coeffs), -1).conj().T
    return gram * (4.0 * alpha / ((1.0 + alpha) ** 2 * np.pi**2))
