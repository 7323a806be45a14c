"""Bipartite squeezed-coherent wave functions in position space.

Both squeezing routes are covered by a mode tag ``k``:

* ``k=1``: each mode squeezed separately; the wave function factorizes,
* ``k=2``: joint two-mode squeezing; a position cross term appears for
  every ``alpha < 1`` and the state is entangled.

Wave functions are represented as closed-form evaluators plus structured
parameter records (:class:`OscillatorGeometry`, :class:`DisplacementLabels`),
never as sampled grids.  The same states are reachable three independent
ways, which the test suite exploits: the closed forms, the truncated
Fock-basis series (:func:`series_expansion`), and the inverse
Segal-Bargmann transform of the coefficient series
(:func:`inverse_segal_bargmann`).

Conventions: positions carry the inverse oscillator lengths ``a``, ``b``;
the displacement labels are dimensionless and momentum-type shift
parameters pick up an explicit factor ``hbar`` so the translation phase
``(q x)/hbar`` stays dimensionless.  Default ``hbar = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import check_alpha, check_index, check_mode, coefficient_table
from .quadrature import _refine_by_doubling, scaled_gauss_hermite

__all__ = [
    "OscillatorGeometry",
    "DisplacementLabels",
    "ShiftParams",
    "QuadraticGaussian",
    "hermite_function_sequence",
    "fock_position_basis",
    "wave_function",
    "series_expansion",
    "shift_params",
    "heisenberg_weyl_shift",
    "unshifted_gaussian",
    "segal_bargmann_kernel",
    "bargmann_series",
    "inverse_segal_bargmann",
]


@dataclass(frozen=True)
class OscillatorGeometry:
    """Inverse oscillator lengths along the two axes, plus hbar."""

    a: float
    b: float
    hbar: float = 1.0

    def __post_init__(self) -> None:
        for name in ("a", "b", "hbar"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class DisplacementLabels:
    """Dimensionless complex phase-space labels of the two modes."""

    z1: complex = 0.0 + 0.0j
    z2: complex = 0.0 + 0.0j

    def __post_init__(self) -> None:
        if not (np.isfinite(self.z1) and np.isfinite(self.z2)):
            raise ValueError("displacement labels must be finite")


@dataclass(frozen=True)
class ShiftParams:
    """Position shifts (y1, y2) and momentum shifts (q1, q2) of a translation."""

    y1: float
    y2: float
    q1: float
    q2: float


@dataclass(frozen=True)
class QuadraticGaussian:
    """Centered normalized Gaussian defined by a 2x2 positive-definite matrix.

    The induced wave function is (det M / pi^2)^(1/4) exp(-r^T M r / 2),
    which has unit L2 norm for every admissible M.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (2, 2):
            raise ValueError(f"matrix must be 2x2, got shape {m.shape}")
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-13 * max(1.0, abs(m).max())):
            raise ValueError("matrix must be symmetric")
        if np.linalg.eigvalsh(m).min() <= 0.0:
            raise ValueError("matrix must be positive definite")
        object.__setattr__(self, "matrix", m)

    @property
    def norm_prefactor(self) -> float:
        return float((np.linalg.det(self.matrix) / np.pi**2) ** 0.25)

    def evaluate(self, x1, x2):
        m = self.matrix
        quad = m[0, 0] * np.square(x1) + 2.0 * m[0, 1] * np.multiply(x1, x2) + m[1, 1] * np.square(x2)
        return self.norm_prefactor * np.exp(-0.5 * quad)

    __call__ = evaluate


def hermite_function_sequence(n_max: int, x, inverse_length: float) -> np.ndarray:
    """Orthonormal oscillator eigenfunctions of index 0 .. n_max.

    Uses the normalized recurrence (stable for the index ranges handled
    here); ``inverse_length`` is the ``a`` in exp(-(a x)^2 / 2).
    """
    check_index(n_max, "n_max")
    x = np.asarray(x, dtype=float)
    ax = inverse_length * x
    out = np.empty((n_max + 1,) + x.shape, dtype=float)
    out[0] = math.sqrt(inverse_length) * np.pi**-0.25 * np.exp(-0.5 * ax * ax)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * ax * out[0]
    for n in range(1, n_max):
        out[n + 1] = math.sqrt(2.0 / (n + 1)) * ax * out[n] - math.sqrt(n / (n + 1)) * out[n - 1]
    return out


def fock_position_basis(m: int, n: int, x1, x2, geom: OscillatorGeometry):
    """Position representation of the product number state (m, n)."""
    check_index(m, "m")
    check_index(n, "n")
    f1 = hermite_function_sequence(m, x1, geom.a)[m]
    f2 = hermite_function_sequence(n, x2, geom.b)[n]
    value = f1 * f2
    return float(value) if np.ndim(value) == 0 else value


def wave_function(k: int, x1, x2, geom: OscillatorGeometry, labels: DisplacementLabels, alpha: float):
    """Closed-form normalized wave function of the mode-``k`` state.

    ``x1``/``x2`` may be scalars or broadcastable arrays of finite positions
    (``ValueError`` otherwise).  ``alpha = 1`` (no squeezing) is admitted:
    both closed forms are regular there.
    """
    check_mode(k)
    alpha = check_alpha(alpha, closed=True)
    x1, x2 = _check_positions(x1, x2)
    a, b = geom.a, geom.b
    z1r, z1i = labels.z1.real, labels.z1.imag
    z2r, z2i = labels.z2.real, labels.z2.imag
    if k == 1:
        modulus = math.sqrt(a * b / (math.pi * alpha)) * np.exp(
            -(a * a / (2.0 * alpha)) * np.square(x1 - math.sqrt(2.0 * alpha) * z1r / a)
            - (b * b / (2.0 * alpha)) * np.square(x2 - math.sqrt(2.0 * alpha) * z2r / b)
        )
        wave1 = math.sqrt(2.0 / alpha) * a * z1i
        wave2 = math.sqrt(2.0 / alpha) * b * z2i
    else:
        root = math.sqrt(2.0 * alpha)
        y1 = ((alpha + 1.0) * z1r + (alpha - 1.0) * z2r) / (a * root)
        y2 = ((alpha - 1.0) * z1r + (alpha + 1.0) * z2r) / (b * root)
        modulus = math.sqrt(a * b / math.pi) * np.exp(
            -((1.0 + alpha * alpha) / (4.0 * alpha)) * a * a * np.square(x1 - y1)
            - ((1.0 + alpha * alpha) / (4.0 * alpha)) * b * b * np.square(x2 - y2)
            - ((1.0 - alpha * alpha) / (2.0 * alpha)) * a * b * (x1 - y1) * (x2 - y2)
        )
        wave1 = (a / root) * ((1.0 + alpha) * z1i + (1.0 - alpha) * z2i)
        wave2 = (b / root) * ((1.0 + alpha) * z2i + (1.0 - alpha) * z1i)
    # the phase is linear in each coordinate, so it factors into one complex
    # exponential on x1's shape and one on x2's, not one on the broadcast grid
    value = np.exp(1j * (wave1 * x1 - (z1r * z1i + z2r * z2i))) * np.exp(1j * wave2 * x2)
    value *= modulus
    return complex(value) if value.ndim == 0 else value


def _check_positions(x1, x2) -> tuple[np.ndarray, np.ndarray]:
    # positions as float arrays, each on its own shape; inf or NaN raises
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if not (np.isfinite(x1).all() and np.isfinite(x2).all()):
        raise ValueError("positions x1, x2 must be finite")
    return x1, x2


def _coherent_normalizer(labels: DisplacementLabels) -> float:
    # The raw coefficient families sum to exp(|z1|^2 + |z2|^2) in square
    # modulus (the reproducing-kernel diagonal), so the normalized state
    # carries this factor.
    return math.exp(-0.5 * (abs(labels.z1) ** 2 + abs(labels.z2) ** 2))


def series_expansion(
    k: int,
    n_max: int,
    x1,
    x2,
    geom: OscillatorGeometry,
    labels: DisplacementLabels,
    alpha: float,
):
    """Truncated Fock-basis expansion of the mode-``k`` wave function.

    Partial sum over m, n <= n_max of the expansion coefficients times the
    position-space number states, times the coherent normalizer; converges
    pointwise to :func:`wave_function` as ``n_max`` grows.
    """
    check_mode(k)
    alpha = check_alpha(alpha, closed=False)
    phi = coefficient_table(k, alpha, labels.z1, labels.z2, n_max) * _coherent_normalizer(labels)
    x1, x2 = _check_positions(x1, x2)
    f1 = hermite_function_sequence(n_max, x1, geom.a)
    f2 = hermite_function_sequence(n_max, x2, geom.b)
    value = np.einsum("mn,m...,n...->...", phi, f1, f2, optimize=True)
    return complex(value) if value.ndim == 0 else value


def shift_params(k: int, alpha: float, geom: OscillatorGeometry, labels: DisplacementLabels) -> ShiftParams:
    """Translation parameters that carry the centered Gaussian onto the state.

    Momentum entries include the factor ``geom.hbar`` so that the
    translation phase is dimensionless for any unit system.
    """
    check_mode(k)
    alpha = check_alpha(alpha, closed=True)
    a, b, hbar = geom.a, geom.b, geom.hbar
    z1r, z1i = labels.z1.real, labels.z1.imag
    z2r, z2i = labels.z2.real, labels.z2.imag
    if k == 1:
        return ShiftParams(
            y1=math.sqrt(2.0 * alpha) * z1r / a,
            y2=math.sqrt(2.0 * alpha) * z2r / b,
            q1=math.sqrt(2.0 / alpha) * a * hbar * z1i,
            q2=math.sqrt(2.0 / alpha) * b * hbar * z2i,
        )
    root = math.sqrt(2.0 * alpha)
    return ShiftParams(
        y1=((alpha + 1.0) * z1r + (alpha - 1.0) * z2r) / (a * root),
        y2=((alpha - 1.0) * z1r + (alpha + 1.0) * z2r) / (b * root),
        q1=(a * hbar / root) * ((1.0 + alpha) * z1i + (1.0 - alpha) * z2i),
        q2=(b * hbar / root) * ((1.0 + alpha) * z2i + (1.0 - alpha) * z1i),
    )


def heisenberg_weyl_shift(params: ShiftParams, f, x1, x2, hbar: float = 1.0):
    """Apply the phase-space translation operator to a wave function.

    Returns exp[(i/hbar)(q1 x1 + q2 x2 - (q1 y1 + q2 y2)/2)] times
    ``f(x1 - y1, x2 - y2)``.  The half-shift phase makes the operator
    unitary and composition obey the Weyl relation (two translations
    compose into their sum times a pure phase).
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    phase = np.exp(
        (1j / hbar)
        * (params.q1 * x1 + params.q2 * x2 - 0.5 * (params.q1 * params.y1 + params.q2 * params.y2))
    )
    value = phase * f(x1 - params.y1, x2 - params.y2)
    return complex(value) if np.ndim(value) == 0 else value


def unshifted_gaussian(k: int, alpha: float, geom: OscillatorGeometry) -> QuadraticGaussian:
    """Quadratic-form matrix of the centered (labels = 0) wave function.

    k=1 gives diag(a^2, b^2)/alpha; k=2 couples the axes with determinant
    a^2 b^2 independent of alpha.
    """
    check_mode(k)
    alpha = check_alpha(alpha, closed=True)
    a, b = geom.a, geom.b
    if k == 1:
        m = np.diag([a * a / alpha, b * b / alpha])
    else:
        m = (
            np.array(
                [
                    [(1.0 + alpha * alpha) * a * a, (1.0 - alpha * alpha) * a * b],
                    [(1.0 - alpha * alpha) * a * b, (1.0 + alpha * alpha) * b * b],
                ]
            )
            / (2.0 * alpha)
        )
    return QuadraticGaussian(matrix=m)


def _sb_mode_exponent(s, w):
    # one mode's term of the kernel exponent at s = a x and w = u + i v:
    # -w^2/2 - |w|^2 = -3u^2/2 - v^2/2 - i u v, less the Gaussian in (u, v),
    # which the inverse transform's quadrature weights carry
    return -0.5 * s * s + math.sqrt(2.0) * s * w - 1j * w.real * w.imag


def segal_bargmann_kernel(x1, x2, w1, w2, geom: OscillatorGeometry):
    """Integral kernel mapping coefficient-space functions to position space.

    Holomorphic in (w1, w2) apart from the explicit exp(-|w1|^2 - |w2|^2)
    weight folded into it; Gaussian in (x1, x2) for fixed arguments.
    """
    a, b = geom.a, geom.b
    w1 = np.asarray(w1, dtype=complex)
    w2 = np.asarray(w2, dtype=complex)
    exponent = (
        _sb_mode_exponent(a * np.asarray(x1, dtype=float), w1)
        + _sb_mode_exponent(b * np.asarray(x2, dtype=float), w2)
        - 1.5 * (w1.real**2 + w2.real**2)
        - 0.5 * (w1.imag**2 + w2.imag**2)
    )
    value = math.sqrt(a * b / math.pi) * np.exp(exponent)
    return complex(value) if value.ndim == 0 else value


def bargmann_series(k: int, alpha: float, labels: DisplacementLabels, n_max: int):
    """Coefficient-space representative of the mode-``k`` state, truncated.

    Returns a vectorized callable ``psi_B(w1, w2)`` evaluating
    sum_{m,n<=n_max} phi_{k,(m,n)} conj(w1)^m conj(w2)^n / sqrt(m! n!)
    (coherent normalizer included).  Feeding it through
    :func:`inverse_segal_bargmann` reproduces :func:`wave_function` up to
    truncation and quadrature error.
    """
    check_mode(k)
    alpha = check_alpha(alpha, closed=False)
    phi = coefficient_table(k, alpha, labels.z1, labels.z2, n_max) * _coherent_normalizer(labels)
    root_fact = np.array([math.sqrt(math.factorial(j)) for j in range(n_max + 1)])
    coeffs = phi / np.outer(root_fact, root_fact)

    def powers(w):
        # conj(w)^j for j = 0 .. n_max, on w's own shape
        w = np.conj(np.asarray(w, dtype=complex))
        out = np.empty((n_max + 1,) + w.shape, dtype=complex)
        out[0] = 1.0
        for j in range(n_max):
            out[j + 1] = out[j] * w
        return out

    def psi_b(w1, w2):
        # optimize=True orders the two contractions and hands them to BLAS
        return np.einsum("m...,mn,n...->...", powers(w1), coeffs, powers(w2), optimize=True)

    return psi_b


def _inverse_sb_quad(psi_b, x1: np.ndarray, x2: np.ndarray, geom: OscillatorGeometry, order: int) -> np.ndarray:
    # The kernel's Gaussian in w = u + i v, exp(-3u^2/2 - v^2/2) per mode, is
    # the weight of a Gauss-Hermite rule on each axis.  Each mode's plane is
    # flattened to order^2 nodes, psi_b is sampled once on the outer grid of
    # the two planes, and the flat points x1, x2 are contracted through it
    # together.
    a, b = geom.a, geom.b
    u, wu = scaled_gauss_hermite(order, 1.5)
    v, wv = scaled_gauss_hermite(order, 0.5)
    w = (u[:, None] + 1j * v[None, :]).ravel()
    weight = np.outer(wu, wv).ravel()
    grid = np.asarray(psi_b(w[:, None], w[None, :]), dtype=complex)
    r1 = weight * np.exp(_sb_mode_exponent(a * x1[:, None], w))
    r2 = weight * np.exp(_sb_mode_exponent(b * x2[:, None], w))
    total = ((r1 @ grid) * r2).sum(-1)
    return math.sqrt(a * b / math.pi) * total / np.pi**2


def inverse_segal_bargmann(
    psi_b,
    x1,
    x2,
    geom: OscillatorGeometry,
    order: int = 24,
    check: bool = False,
    rtol: float = 1e-7,
):
    """Position-space wave function from a coefficient-space representative.

    4-real-dimensional tensor Gauss-Hermite quadrature of the kernel
    against ``psi_b`` (a callable of two complex array arguments that must
    broadcast), evaluated on ``order^2 x order^2`` nodes once for all points.
    Linear in ``psi_b``.  With ``check=True`` the quadrature order is
    doubled and disagreement beyond ``rtol`` at any point raises
    :class:`~cvsqueeze.quadrature.ConvergenceError`.
    """
    x1b, x2b = np.broadcast_arrays(*_check_positions(x1, x2))
    flat = _refine_by_doubling(
        lambda quad_order: _inverse_sb_quad(psi_b, x1b.ravel(), x2b.ravel(), geom, quad_order),
        order, check, rtol, "inverse_segal_bargmann",
    )
    out = flat.reshape(x1b.shape)
    return complex(out) if out.ndim == 0 else out
