"""Hermite polynomial families and their generating-function identities.

Three families are implemented:

* ``hermite_real``: the classical polynomials H_n(x) with real argument,
* ``hermite_holo``: the same recurrence continued to complex argument,
* ``hermite_complex_2v``: the two-index family H_{m,n}(z1, z2), polynomial
  in two complex variables and symmetric under ``(m, n, z1, z2) ->
  (n, m, z2, z1)``.

Recurrences are the primary evaluation path throughout (the alternating
explicit sums cancel catastrophically for moderate degrees); the finite sums
are kept as independent oracles in the test suite.  The two exponential
generating-function identities (``mehler_product``, ``mehler_two_variable``)
return the truncated series next to the closed form so callers can measure
the truncation error themselves, and ``orthogonality_integral`` evaluates
the weighted complex-plane inner product of the one-variable family by
tensor-product Gauss-Hermite quadrature.
"""

from __future__ import annotations

import math

import numpy as np

from ._checks import _finite_result, check_alpha, check_complex, check_index, check_real, check_real_array
from .quadrature import _plane_gauss_hermite

__all__ = [
    "hermite_real",
    "hermite_holo",
    "hermite_holo_sequence",
    "hermite_complex_2v",
    "hermite_complex_2v_table",
    "mehler_product",
    "mehler_two_variable",
    "orthogonality_integral",
    "orthogonality_rhs",
]


def hermite_holo_sequence(n_max: int, z) -> np.ndarray:
    """Values H_0(z) .. H_{n_max}(z) by the three-term recurrence.

    ``z`` may be a scalar or an ndarray; the returned array has shape
    ``(n_max + 1, *shape(z))`` and complex dtype.  A value beyond the
    float64 range raises ``ValueError``.
    """
    n_max = check_index(n_max, "n_max")
    z = np.asarray(z, dtype=complex)
    return _finite_result(lambda: _holo_recurrence(n_max, z), f"n_max {n_max}", z=z)


def _holo_recurrence(n_max: int, z: np.ndarray) -> np.ndarray:
    out = np.empty((n_max + 1,) + z.shape, dtype=complex)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = 2.0 * z
    for n in range(1, n_max):
        out[n + 1] = 2.0 * z * out[n] - 2.0 * n * out[n - 1]
    return out


def hermite_real(n: int, x):
    """H_n(x) for real ``x`` via H_{n+1} = 2x H_n - 2n H_{n-1}.

    Any finite real argument (scalar or array) is accepted; a value beyond
    the float64 range raises ``ValueError``.
    """
    n = check_index(n)
    x = check_real_array(x, "x")
    value = hermite_holo_sequence(n, x)[n].real
    return float(value) if value.ndim == 0 else value


def hermite_holo(n: int, z):
    """H_n(z) with complex argument, evaluated by the same recurrence.

    A value beyond the float64 range raises ``ValueError``.
    """
    n = check_index(n)
    value = hermite_holo_sequence(n, z)[n]
    return complex(value) if value.ndim == 0 else value


def hermite_complex_2v_table(m_max: int, n_max: int, z1: complex, z2: complex) -> np.ndarray:
    """Table of H_{m,n}(z1, z2) for m <= m_max, n <= n_max.

    Built from H_{0,n} = z2^n and the recurrence
    H_{m+1,n} = z1 H_{m,n} - n H_{m,n-1} (the s-derivative of the
    generating function exp(s z1 + t z2 - s t)).  A value beyond the
    float64 range raises ``ValueError``.
    """
    m_max, n_max = check_index(m_max, "m_max"), check_index(n_max, "n_max")
    z1, z2 = check_complex(z1, "z1"), check_complex(z2, "z2")
    return _finite_result(
        lambda: _complex_2v_recurrence(m_max, n_max, z1, z2), f"m_max {m_max}, n_max {n_max}", z1=z1, z2=z2
    )


def _complex_2v_recurrence(m_max: int, n_max: int, z1: complex, z2: complex) -> np.ndarray:
    table = np.empty((m_max + 1, n_max + 1), dtype=complex)
    table[0, 0] = 1.0
    for n in range(n_max):
        table[0, n + 1] = z2 * table[0, n]
    # row m + 1 needs only row m: one array expression per row over n >= 1
    n_axis = np.arange(1.0, n_max + 1)
    for m in range(m_max):
        table[m + 1, 0] = z1 * table[m, 0]
        table[m + 1, 1:] = z1 * table[m, 1:] - n_axis * table[m, :-1]
    return table


def hermite_complex_2v(m: int, n: int, z1: complex, z2: complex) -> complex:
    """Two-variable complex Hermite polynomial H_{m,n}(z1, z2)."""
    m, n = check_index(m, "m"), check_index(n, "n")
    return complex(hermite_complex_2v_table(m, n, z1, z2)[m, n])


def mehler_product(t: float, z1: complex, z2: complex, n_terms: int = 60) -> tuple[complex, complex]:
    """Truncated product generating series next to its closed form.

    Returns ``(series, closed)`` where::

        series = sum_{l<=n_terms} t^l / (2^l l!) H_l(z1) H_l(z2)
        closed = (1 - t^2)^(-1/2) exp([2 t z1 z2 - t^2 (z1^2 + z2^2)] / (1 - t^2))

    The identity holds for |t| < 1; arguments outside that disc are rejected.
    The caller compares the two values (the truncation error is the caller's
    to judge: convergence degrades as |t| -> 1).
    """
    t = check_real(t, "t")
    if not abs(t) < 1.0:
        raise ValueError(f"|t| must be < 1, got {t}")
    n_terms = check_index(n_terms, "n_terms")
    z1, z2 = check_complex(z1, "z1"), check_complex(z2, "z2")
    h1 = hermite_holo_sequence(n_terms, z1)
    h2 = hermite_holo_sequence(n_terms, z2)
    series = 0.0 + 0.0j
    coeff = 1.0  # t^l / (2^l l!)
    for l in range(n_terms + 1):
        series += coeff * h1[l] * h2[l]
        coeff *= t / (2.0 * (l + 1))
    closed = (1.0 - t * t) ** -0.5 * np.exp(
        (2.0 * t * z1 * z2 - t * t * (z1 * z1 + z2 * z2)) / (1.0 - t * t)
    )
    return series, complex(closed)


def mehler_two_variable(
    s: float,
    t: float,
    z1: complex,
    z2: complex,
    u: float,
    v: float,
    n_terms: int = 60,
) -> tuple[complex, complex]:
    """Two-variable analogue of :func:`mehler_product`.

    Returns ``(series, closed)`` for the double generating series::

        sum_{m,n<=n_terms} s^m t^n / (sqrt(2^(m+n)) m! n!)
                           H_{m,n}(z1, z2) H_m(u) H_n(v)

    against the closed form valid for |s t| < 1.  Truncation applies to both
    summation indices.
    """
    s, t = check_real(s, "s"), check_real(t, "t")
    u, v = check_real(u, "u"), check_real(v, "v")
    if not abs(s * t) < 1.0:
        raise ValueError(f"|s*t| must be < 1, got {s * t}")
    n_terms = check_index(n_terms, "n_terms")
    z1, z2 = check_complex(z1, "z1"), check_complex(z2, "z2")
    table = hermite_complex_2v_table(n_terms, n_terms, z1, z2)
    hu = hermite_holo_sequence(n_terms, u).real
    hv = hermite_holo_sequence(n_terms, v).real
    # row/column coefficients s^m / (sqrt(2^m) m!), t^n / (sqrt(2^n) n!)
    am = np.empty(n_terms + 1)
    bn = np.empty(n_terms + 1)
    am[0] = bn[0] = 1.0
    for k in range(n_terms):
        am[k + 1] = am[k] * s / (math.sqrt(2.0) * (k + 1))
        bn[k + 1] = bn[k] * t / (math.sqrt(2.0) * (k + 1))
    series = complex(np.einsum("m,n,mn->", am * hu, bn * hv, table))

    st = s * t
    den = 2.0 * (1.0 - st * st)
    closed = (1.0 - st * st) ** -0.5 * np.exp(
        (
            2.0 * math.sqrt(2.0) * (s * u * z1 + t * v * z2 + st * (s * v * z1 + t * u * z2))
            - s * s * z1 * z1
            - t * t * z2 * z2
        )
        / den
        + (-4.0 * st * u * v - 2.0 * st * st * (z1 * z2 + u * u + v * v)) / den
    )
    return series, complex(closed)


def orthogonality_rhs(m: int, n: int, alpha: float) -> float:
    """Closed-form value of the weighted inner product of H_m and H_n.

    Diagonal value pi sqrt(alpha)/(1-alpha) * (2(1+alpha)/(1-alpha))^n n!;
    zero off the diagonal.
    """
    m, n = check_index(m, "m"), check_index(n, "n")
    alpha = check_alpha(alpha, closed=False)
    if m != n:
        return 0.0
    return (
        math.pi
        * math.sqrt(alpha)
        / (1.0 - alpha)
        * (2.0 * (1.0 + alpha) / (1.0 - alpha)) ** n
        * math.factorial(n)
    )


def _orthogonality_quad(n_max: int, alpha: float, order: int) -> np.ndarray:
    # Gram matrix [m, n] of int_C H_m conj(H_n) w_alpha for m, n <= n_max on
    # the plane rule for the weight exp(-(1-a)x^2 - (1/a-1)y^2).  H_m has real
    # coefficients and parity m, so one quadrant of the rule would do, as in
    # basis_gram; the full plane is kept on purpose.  At order 80 its
    # (11, 6400) complex arrays, 1.1 MB each, raise glibc's mmap and trim
    # thresholds for the rest of the process.  Folded, in a process that
    # runs the verify suites in turn, `verify states` took 55-81 ms with
    # about 10k minor page faults per run, against 35-44 ms and none (2-vCPU
    # Xeon guest, numpy 2.4).  The quadrant waits until the thresholds no
    # longer hang on this routine (ROADMAP items 8 and 21)
    z, w = _plane_gauss_hermite(order, 1.0 - alpha, (1.0 - alpha) / alpha)
    seq = hermite_holo_sequence(n_max, z)
    return (seq * w) @ seq.conj().T


def orthogonality_integral(m: int, n: int, alpha: float) -> complex:
    """Quadrature value of ``int_C H_m(z) conj(H_n(z)) w_alpha(z) dx dy``.

    The weight is exp(-(1-alpha) x^2 - (1/alpha - 1) y^2) over z = x + i y,
    for 0 < alpha < 1.  Tensor-product Gauss-Hermite nodes are rescaled
    per-axis to the two weights, at the smallest order that makes the rule
    exact for degree m + n along each axis, (m + n) // 2 + 1 (at least 2).
    For m, n <= 20 at alpha from 1e-8 to 1 - 1e-9 that value was within
    9.3e-15 of :func:`orthogonality_rhs`, relative to sqrt(R_mm R_nn).
    """
    m, n = check_index(m, "m"), check_index(n, "n")
    alpha = check_alpha(alpha, closed=False)
    return complex(_orthogonality_quad(max(m, n), alpha, max(2, (m + n) // 2 + 1))[m, n])
