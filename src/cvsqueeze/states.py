"""Bipartite squeezed-coherent wave functions in position space.

Both squeezing routes are covered by a mode tag ``k``:

* ``k=1``: each mode squeezed separately; the wave function factorizes,
* ``k=2``: joint two-mode squeezing; a position cross term appears for
  every ``alpha < 1`` and the state is entangled.

Each state is one record (:func:`gaussian_state`), a Gaussian on its principal
axes times a plane wave, that every other state formula reads.  The same
states are reachable three independent ways, which the test suite exploits:
the closed forms, the truncated Fock-basis series (:func:`series_expansion`),
and the inverse Segal-Bargmann transform of the coefficient series
(:func:`inverse_segal_bargmann` of a :class:`BargmannSeries`).  The series and
the transform share one amplitude table A[m, n] (:func:`bargmann_series`) and
one contraction sum A[m, n] r1[m] r2[n]; what each supplies is its per-mode
row map, the Hermite functions phi_j(x) or the kernel's plane moments
M_j(x) against the orthonormal Bargmann monomials.  That row map is the
independent part of the transform as an oracle, and its whole quadrature
error is the row error sqrt(a / sqrt(pi)) M_j(a x) / pi - phi_j(x).

Conventions: positions carry the inverse oscillator lengths ``a``, ``b``;
the displacement labels are dimensionless and momentum-type shift
parameters pick up an explicit factor ``hbar`` so the translation phase
``(q x)/hbar`` stays dimensionless.  Default ``hbar = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._checks import (
    _check_finite,
    _check_positions,
    check_alpha,
    check_complex,
    check_complex_array,
    check_index,
    check_real,
    check_real_array,
)
from .basis import _check_norm, _normalized_hermite, coefficient_table
from .quadrature import _half_gauss_hermite, _refine_by_doubling, scaled_gauss_hermite

__all__ = [
    "OscillatorGeometry",
    "DisplacementLabels",
    "ShiftParams",
    "QuadraticGaussian",
    "GaussianState",
    "gaussian_state",
    "hermite_function_sequence",
    "wave_function",
    "series_expansion",
    "shift_params",
    "heisenberg_weyl_shift",
    "unshifted_gaussian",
    "segal_bargmann_kernel",
    "BargmannSeries",
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
            object.__setattr__(self, name, check_real(getattr(self, name), name, positive=True))


@dataclass(frozen=True)
class DisplacementLabels:
    """Dimensionless complex phase-space labels of the two modes."""

    z1: complex = 0.0 + 0.0j
    z2: complex = 0.0 + 0.0j

    def __post_init__(self) -> None:
        for name in ("z1", "z2"):
            object.__setattr__(self, name, check_complex(getattr(self, name), name))


@dataclass(frozen=True)
class ShiftParams:
    """Position shifts (y1, y2) and momentum shifts (q1, q2) of a translation."""

    y1: float
    y2: float
    q1: float
    q2: float

    def __post_init__(self) -> None:
        for name in ("y1", "y2", "q1", "q2"):
            object.__setattr__(self, name, check_real(getattr(self, name), name))


@dataclass(frozen=True)
class QuadraticGaussian:
    """Centered normalized Gaussian on the principal axes of its form.

    With u = frame^-1 r it is (kappa_1 kappa_2)^(1/4) (pi |det frame|)^(-1/2)
    exp(-(kappa_1 u_1^2 + kappa_2 u_2^2) / 2), and M = frame^-T diag(kappa)
    frame^-1 is positive definite for any finite positive curvatures.
    """

    frame: np.ndarray
    curvatures: tuple[float, float]
    inverse: np.ndarray = field(init=False, repr=False, compare=False)
    norm_prefactor: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        frame = np.array(check_real_array(self.frame, "frame"))
        kappa = tuple(check_real(c, "curvatures", positive=True) for c in self.curvatures)
        # a frame of the wrong shape counts as singular; an inf or NaN entry
        # makes the determinant inf or NaN
        (f00, f01), (f10, f11) = frame.tolist() if frame.shape == (2, 2) else 2 * [(0.0, 0.0)]
        det = f00 * f11 - f01 * f10
        if not (len(kappa) == 2 and 0.0 < abs(det) < math.inf):
            raise ValueError(f"need two curvatures and a finite nonsingular 2x2 frame, not {kappa}")
        frame.flags.writeable = False
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "curvatures", kappa)
        object.__setattr__(self, "inverse", np.array([[f11, -f01], [-f10, f00]]) / det)
        prefactor = math.sqrt(math.sqrt(kappa[0]) * math.sqrt(kappa[1]) / (math.pi * abs(det)))
        object.__setattr__(self, "norm_prefactor", prefactor)

    @property
    def matrix(self) -> np.ndarray:
        """M = frame^-T diag(kappa) frame^-1."""
        return self.inverse.T @ np.diag(self.curvatures) @ self.inverse

    def exponent(self, x1, x2) -> np.ndarray:
        """r^T M r / 2 at r = (x1, x2): two squares on the principal axes, summed in place.

        A square beyond the float64 range gives +inf, the exact limit of the
        exponent, without an overflow warning; so does a row sum of two
        overflowed products of opposite sign (inf - inf), since M is
        positive definite.  A NaN coordinate gives NaN.
        """
        rows = np.sqrt(np.multiply(0.5, self.curvatures))[:, None] * self.inverse
        shape = np.broadcast_shapes(np.shape(x1), np.shape(x2))

        def squares():
            total, term = (np.add(r1 * x1, r2 * x2, out=np.empty(shape)) for r1, r2 in rows.tolist())
            np.square(total, out=total)
            total += np.square(term, out=term)
            return total

        try:
            # only inf - inf or 0 * inf raises; a NaN coordinate propagates quietly
            with np.errstate(over="ignore", invalid="raise"):
                return squares()
        except FloatingPointError:
            with np.errstate(over="ignore", invalid="ignore"):
                total = squares()
            total[np.isnan(total) & ~(np.isnan(x1) | np.isnan(x2))] = np.inf
            return total

    def evaluate(self, x1, x2) -> np.ndarray:
        value = self.exponent(x1, x2)
        np.subtract(math.log(self.norm_prefactor), value, out=value)
        return np.exp(value, out=value)


@dataclass(frozen=True)
class GaussianState:
    """A state at x = frame (center + u): gaussian(frame u) exp(i (wavenumbers . (center + u) + phase))."""

    gaussian: QuadraticGaussian
    center: tuple[float, float]
    wavenumbers: tuple[float, float]
    phase: float

    @property
    def position_center(self) -> np.ndarray:
        return self.gaussian.frame @ self.center

    @property
    def position_wavenumbers(self) -> np.ndarray:
        return self.gaussian.inverse.T @ self.wavenumbers


def gaussian_state(
    k: int, alpha: float, geom: OscillatorGeometry, labels: DisplacementLabels
) -> GaussianState:
    """The record of the mode-``k`` state, the one place its formulas live.

    ``k=1``: frame diag(1/a, 1/b), curvatures 1/alpha.  ``k=2``: axes
    (a x1 +- b x2)/sqrt(2), curvatures (1/alpha, alpha), and each center and
    wavenumber one product, free of cancellation at any alpha in (0, 1].
    """
    k = check_index(k, "k", minimum=1, maximum=2)
    alpha = check_alpha(alpha, closed=True)
    a, b = geom.a, geom.b
    (z1r, z1i), (z2r, z2i) = (labels.z1.real, labels.z1.imag), (labels.z2.real, labels.z2.imag)
    if k == 1:
        frame, curvatures = np.diag([1.0 / a, 1.0 / b]), (1.0 / alpha, 1.0 / alpha)
        center = (math.sqrt(2.0 * alpha) * z1r, math.sqrt(2.0 * alpha) * z2r)
        wavenumbers = (math.sqrt(2.0 / alpha) * z1i, math.sqrt(2.0 / alpha) * z2i)
    else:
        frame = np.array([[1.0 / a, 1.0 / a], [1.0 / b, -1.0 / b]]) / math.sqrt(2.0)
        curvatures = (1.0 / alpha, alpha)
        root = math.sqrt(alpha)
        center = (root * (z1r + z2r), (z1r - z2r) / root)
        wavenumbers = ((z1i + z2i) / root, root * (z1i - z2i))
    return GaussianState(QuadraticGaussian(frame, curvatures), center, wavenumbers, -(z1r * z1i + z2r * z2i))


# |s| beyond which exp(-s^2/2 + sqrt(2) s u) underflows at every node u of
# every rule (|u| < 22 up to order 370), as exp(-s^2/2) does from |s| = 38.6
_MOMENT_CLIP = 2.0**511


def _scaled_position(inverse_length: float, x: np.ndarray) -> np.ndarray:
    # s = inverse_length x, with x clipped so that |s| <= 2^511 up to rounding.
    # Every Gaussian factor in s has underflowed to 0 long before the clip, as
    # at any larger |s|, so no value changes; but neither the product nor s^2
    # nor s times a recurrence coefficient overflows, so 0 s is 0, not NaN
    bound = _MOMENT_CLIP / inverse_length
    return inverse_length * np.minimum(np.maximum(x, -bound), bound)


def hermite_function_sequence(n_max: int, x, inverse_length: float) -> np.ndarray:
    """Orthonormal oscillator eigenfunctions of index 0 .. n_max.

    Uses the normalized recurrence of :mod:`cvsqueeze.basis` (stable for the
    index ranges handled here); ``inverse_length`` is the ``a`` in
    exp(-(a x)^2 / 2), positive and finite.
    """
    n_max = check_index(n_max, "n_max")
    inverse_length = check_real(inverse_length, "inverse_length", positive=True)
    (x,) = _check_positions(x=x)
    ax = _scaled_position(inverse_length, x)
    gaussian = math.sqrt(inverse_length) * np.pi**-0.25 * np.exp(-0.5 * ax * ax)
    return _normalized_hermite(n_max, ax, 1.0, gaussian, 2.0)


def wave_function(k: int, x1, x2, geom: OscillatorGeometry, labels: DisplacementLabels, alpha: float):
    """Closed-form normalized wave function of the mode-``k`` state.

    ``x1``/``x2`` may be scalars or broadcastable arrays of finite positions
    (``ValueError``).  The modulus is the record's Gaussian at x - y; the
    phase, linear in x, is one complex exponential on each of x1, x2.
    """
    return _state_wave(gaussian_state(k, alpha, geom, labels), x1, x2)


def _state_wave(state: GaussianState, x1, x2):
    # wave_function of an already-built record
    x1, x2 = _check_positions(x1=x1, x2=x2)
    y1, y2 = state.position_center
    w1, w2 = state.position_wavenumbers
    value = np.exp(1j * (w1 * x1 + state.phase)) * state.gaussian.evaluate(x1 - y1, x2 - y2)
    value *= np.exp(1j * w2 * x2)
    return complex(value) if value.ndim == 0 else value


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

    The amplitude table A of :func:`bargmann_series` contracted with the
    position-space number states, sum_{m,n<=n_max} A[m, n] phi_m(x1) phi_n(x2);
    converges pointwise to :func:`wave_function` as ``n_max`` grows.
    ``x1``/``x2`` are finite positions that broadcast (``ValueError``).
    """
    x1, x2 = _check_positions(x1=x1, x2=x2)
    psi_b = bargmann_series(k, alpha, labels, n_max)
    f1, f2 = hermite_function_sequence(n_max, x1, geom.a), hermite_function_sequence(n_max, x2, geom.b)
    value = psi_b._contract(f1, f2)
    return complex(value) if np.ndim(value) == 0 else value


def shift_params(k: int, alpha: float, geom: OscillatorGeometry, labels: DisplacementLabels) -> ShiftParams:
    """Translation parameters that carry the centered Gaussian onto the state.

    y = frame center and q = hbar frame^-T wavenumbers of :func:`gaussian_state`,
    so the translation phase is dimensionless for any unit system.
    """
    state = gaussian_state(k, alpha, geom, labels)
    y1, y2 = state.position_center.tolist()
    q1, q2 = (geom.hbar * state.position_wavenumbers).tolist()
    return ShiftParams(y1=y1, y2=y2, q1=q1, q2=q2)


def heisenberg_weyl_shift(params: ShiftParams, f, x1, x2, hbar: float = 1.0):
    """Apply the phase-space translation operator to a wave function.

    Returns exp[(i/hbar)(q1 x1 + q2 x2 - (q1 y1 + q2 y2)/2)] times
    ``f(x1 - y1, x2 - y2)``.  The half-shift phase makes the operator
    unitary and composition obey the Weyl relation (two translations
    compose into their sum times a pure phase).
    """
    hbar = check_real(hbar, "hbar", positive=True)
    x1, x2 = _check_positions(x1=x1, x2=x2)
    phase = np.exp(
        (1j / hbar)
        * (params.q1 * x1 + params.q2 * x2 - 0.5 * (params.q1 * params.y1 + params.q2 * params.y2))
    )
    value = phase * f(x1 - params.y1, x2 - params.y2)
    return complex(value) if np.ndim(value) == 0 else value


def unshifted_gaussian(k: int, alpha: float, geom: OscillatorGeometry) -> QuadraticGaussian:
    """Centered (labels = 0) Gaussian of the mode-``k`` state, from :func:`gaussian_state`."""
    return gaussian_state(k, alpha, geom, DisplacementLabels()).gaussian


def _sb_mode_exponent(s, w):
    # one mode's term of the kernel exponent at s = a x (from _scaled_position)
    # and w = u + i v: -w^2/2 - |w|^2 = -3u^2/2 - v^2/2 - i u v, less the
    # Gaussian in (u, v), which the inverse transform's quadrature weights carry
    return -0.5 * s * s + math.sqrt(2.0) * s * w - 1j * w.real * w.imag


# |u|, |v| of a kernel argument w = u + i v beyond which the kernel is 0:
# its modulus exp(-(s - sqrt(2) u)^2 / 2 - u^2 / 2 - v^2 / 2) underflows
# from |u| or |v| = 39, and with |s| <= 2^511 every term of the exponent,
# and their sum, stays below 2^1023 in magnitude
_ARGUMENT_CLIP = 2.0**509


def _clipped_argument(w: np.ndarray) -> np.ndarray:
    # w with its real and imaginary parts clipped at +-_ARGUMENT_CLIP
    w = w.copy()
    for part in (w.real, w.imag):
        np.clip(part, -_ARGUMENT_CLIP, _ARGUMENT_CLIP, out=part)
    return w


def segal_bargmann_kernel(x1, x2, w1, w2, geom: OscillatorGeometry):
    """Integral kernel mapping coefficient-space functions to position space.

    Holomorphic in (w1, w2) apart from the explicit exp(-|w1|^2 - |w2|^2)
    weight folded into it; Gaussian in (x1, x2) for fixed arguments.  It is
    exactly 0 where its modulus underflows, at finite arguments of any size.
    """
    a, b = geom.a, geom.b
    x1, x2 = _check_positions(x1=x1, x2=x2)
    w1, w2 = check_complex_array(w1, "w1"), check_complex_array(w2, "w2")
    _check_finite(w1=w1, w2=w2)
    w1, w2 = _clipped_argument(w1), _clipped_argument(w2)
    exponent = (
        _sb_mode_exponent(_scaled_position(a, x1), w1)
        + _sb_mode_exponent(_scaled_position(b, x2), w2)
        - 1.5 * (w1.real**2 + w2.real**2)
        - 0.5 * (w1.imag**2 + w2.imag**2)
    )
    value = math.sqrt(a * b / math.pi) * np.exp(exponent)
    return complex(value) if value.ndim == 0 else value


def _bargmann_monomials(w, n_max: int) -> np.ndarray:
    # e_j(w) = conj(w)^j / sqrt(j!) for j = 0 .. n_max, on the shape of the
    # complex array w, by e_{j+1} = e_j conj(w) / sqrt(j + 1): no factorial
    # is formed, whose float range would end n_max at 170
    w = np.conj(w)
    out = np.empty((n_max + 1,) + w.shape, dtype=complex)
    out[0] = 1.0
    for j in range(n_max):
        # written in place; out[j + 1, ...] is a view even for a scalar w
        np.multiply(out[j], w * (1.0 / math.sqrt(j + 1)), out=out[j + 1, ...])
    return out


@dataclass(frozen=True)
class BargmannSeries:
    """Coefficient-space representative psi_B of a state, truncated.

    ``amplitudes`` is the normalized Fock amplitude table A[m, n], a
    non-empty finite 2-D table (``ValueError`` otherwise).  Called on two
    finite complex arrays that broadcast (other arguments raise
    ``ValueError`` naming them), the record evaluates
    psi_B(w1, w2) = sum_{m,n} A[m, n] e_m(w1) e_n(w2), where
    e_j(w) = conj(w)^j / sqrt(j!) are the orthonormal monomials of
    Bargmann space.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        table = np.array(self.amplitudes, dtype=complex)
        if table.ndim != 2 or table.size == 0 or not np.isfinite(table).all():
            raise ValueError(f"amplitudes must be a non-empty finite 2-D table, got shape {table.shape}")
        table.flags.writeable = False
        object.__setattr__(self, "amplitudes", table)

    def __call__(self, w1, w2):
        w1, w2 = check_complex_array(w1, "w1"), check_complex_array(w2, "w2")
        _check_finite(w1=w1, w2=w2)
        rows, cols = self.amplitudes.shape
        return self._contract(_bargmann_monomials(w1, rows - 1), _bargmann_monomials(w2, cols - 1))

    def _contract(self, rows1: np.ndarray, rows2: np.ndarray):
        # sum_{m,n} A[m, n] rows1[m] rows2[n], each mode's rows on its own shape:
        # one matrix product over n, then a sum over m that broadcasts the shapes
        inner = self.amplitudes @ rows2.reshape(len(rows2), -1)
        return np.einsum("m...,m...->...", rows1, inner.reshape((len(inner),) + rows2.shape[1:]))


def bargmann_series(k: int, alpha: float, labels: DisplacementLabels, n_max: int) -> BargmannSeries:
    """Coefficient-space representative of the mode-``k`` state, truncated.

    The record's amplitudes are phi_{k,(m,n)} for m, n <= n_max times the
    coherent normalizer, so it evaluates
    sum_{m,n<=n_max} phi_{k,(m,n)} conj(w1)^m conj(w2)^n / sqrt(m! n!),
    normalizer included, at any n_max the coefficient table reaches (no
    factorial is formed).  Where ||A||^2 exceeds 1 by more than
    ``basis.NORM_RTOL``, as at large labels, it raises ``ValueError``.
    :func:`series_expansion` contracts the same table, and
    :func:`inverse_segal_bargmann` of the record reproduces
    :func:`wave_function` up to truncation and quadrature error.
    """
    # the raw coefficients sum to exp(|z1|^2 + |z2|^2) in square modulus (the
    # reproducing-kernel diagonal), which the normalized state divides out
    normalizer = math.exp(-0.5 * (abs(labels.z1) ** 2 + abs(labels.z2) ** 2))
    amplitudes = coefficient_table(k, alpha, labels.z1, labels.z2, n_max) * normalizer
    _check_norm(np.vdot(amplitudes, amplitudes).real, k, alpha, labels.z1, labels.z2, n_max)
    return BargmannSeries(amplitudes)


@lru_cache(maxsize=4)
def _moment_table(order: int, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The position-free part of the kernel moments at ``count`` rows.

    On the tensor rule w = u + i v, whose weight is the kernel's Gaussian
    exp(-3u^2/2 - v^2/2): the u axis, the nodes v >= 0 of the v axis, the u
    weights, and T[(j, u), v] = w_v exp(-i u v) e_j(u + i v) for j < count,
    row-major in (j, u), its v weights folded over +-v.  T at -v is the
    conjugate of T at v, so only v >= 0 is kept: the table is conj(T),
    built in place as a complex array and returned as its real view, whose
    columns are the pairs (Re T, -Im T) of each v.  All read-only.  An
    entry holds 8 count order^2 bytes for the table (8 count order
    (order + 1) at an odd order): 0.097 MB at (order, n_max) = (24, 20)
    and 31 MB at (96, 422).  A transform reads one table per order, its
    larger mode's, so maxsize 4 holds the tables at order and 2 order
    (``check=True``) of two table sizes and keeps at most four alive.
    """
    u, wu = scaled_gauss_hermite(order, 1.5)
    v, wv = _half_gauss_hermite(order, 0.5)
    # conj(T) = w_v exp(i u v) conj(e_j(u + i v)), and conj(e_j(w)) = e_j(conj(w))
    table = _bargmann_monomials((u[:, None] - 1j * v[None, :]).ravel(), count - 1)
    table *= (wv * np.exp(1j * u[:, None] * v[None, :])).ravel()
    tables = u, v, wu, table.reshape(count * order, len(v)).view(float)
    for array in tables:
        array.flags.writeable = False
    return tables


def _kernel_moments(s: np.ndarray, order: int, count: int) -> np.ndarray:
    # M_j(s) = sum_w weight kernel(s, w) e_j(w) for j < count on the shape of
    # s = a x, on the plane rule w = u + i v of _moment_table.  Per node the
    # kernel factors as exp(-s^2/2 + sqrt(2) s u) exp(i sqrt(2) s v) exp(-i u v),
    # and only the first two factors depend on s.  For real s the nodes +-v
    # give conjugate terms, so M_j is real, the sum over v >= 0 of the folded
    # Re(T exp(i sqrt(2) s v)): per point order real and order / 2 complex
    # exp calls, one real product of the table with the pairs
    # (cos(sqrt(2) v s), sin(sqrt(2) v s)), one u-weighted sum.  s comes
    # clipped from _scaled_position, so s^2 stays finite
    u, v, wu, table = _moment_table(order, count)
    flat = s.reshape(1, -1)
    # exp(i sqrt(2) v s) on (point, v), viewed as the [cos, sin] pairs of the table's columns
    along_v = table @ np.exp(1j * math.sqrt(2.0) * v * flat.T).view(float).T
    along_u = wu[:, None] * np.exp(-0.5 * flat * flat + math.sqrt(2.0) * u[:, None] * flat)
    moments = np.einsum("jup,up->jp", along_v.reshape(count, order, -1), along_u)
    return moments.reshape((count,) + s.shape)


def inverse_segal_bargmann(
    psi_b,
    x1,
    x2,
    geom: OscillatorGeometry,
    order: int = 24,
    check: bool = False,
):
    """Position-space wave function from a coefficient-space representative.

    The 4-real-dimensional tensor Gauss-Hermite quadrature of the kernel
    against ``psi_b``, a :class:`BargmannSeries` (``TypeError`` for anything
    else), at ``order`` nodes per real axis; ``x1``/``x2`` are finite
    positions that broadcast (``ValueError``).  Kernel and series factor by
    mode, so the sum is the amplitude table contracted, as
    :func:`series_expansion` contracts it with phi_j, with each mode's kernel
    moments M_j against the monomials e_j on that mode's own positions: an
    n1 x n2 mesh costs n1 + n2 moment rows, and no array of order^2 x order^2
    node pairs is built.  For real positions the moments are real, a sum
    over the v >= 0 half of each mode's plane rule.  The kernel's
    position-free factors, weights and monomials form one real table per
    (order, n_max), 8 (n_max + 1) order^2 bytes, built on first use and
    cached; both modes' positions go through the larger mode's table in one
    pass, and each position costs order real and order / 2 complex
    ``exp`` calls and (n_max + 1) order^2 real products.  A position whose
    Gaussian factor underflows, such as 1e160, gives 0 without a warning.
    Linear in the amplitudes.  With ``check=True`` the quadrature order is
    doubled and a disagreement beyond 1e-7 relative to max(1, |value|) at
    any point raises :class:`~cvsqueeze.quadrature.ConvergenceError`.
    """
    if not isinstance(psi_b, BargmannSeries):
        raise TypeError(f"psi_b must be a BargmannSeries, got {type(psi_b).__name__}")
    x1, x2 = _check_positions(x1=x1, x2=x2)
    a, b = geom.a, geom.b
    s1, s2 = _scaled_position(a, x1).ravel(), _scaled_position(b, x2).ravel()
    rows, cols = psi_b.amplitudes.shape

    def quadrature(quad_order):
        # both modes' positions in one pass over the larger mode's table, whose
        # first rows are the smaller mode's
        moments = _kernel_moments(np.concatenate((s1, s2)), quad_order, max(rows, cols))
        m1 = moments[:rows, :s1.size].reshape((rows,) + x1.shape)
        m2 = moments[:cols, s1.size:].reshape((cols,) + x2.shape)
        return math.sqrt(a * b / math.pi) * psi_b._contract(m1, m2) / np.pi**2

    value = _refine_by_doubling(quadrature, order, check, 1e-7, "inverse_segal_bargmann")
    return complex(value) if np.ndim(value) == 0 else value
