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
(:func:`inverse_segal_bargmann`).

Conventions: positions carry the inverse oscillator lengths ``a``, ``b``;
the displacement labels are dimensionless and momentum-type shift
parameters pick up an explicit factor ``hbar`` so the translation phase
``(q x)/hbar`` stays dimensionless.  Default ``hbar = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import check_alpha, check_index, check_mode, coefficient_table
from .quadrature import _refine_by_doubling, scaled_gauss_hermite

__all__ = [
    "OscillatorGeometry",
    "DisplacementLabels",
    "ShiftParams",
    "QuadraticGaussian",
    "GaussianState",
    "gaussian_state",
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
        frame = np.array(self.frame, dtype=float)
        kappa = tuple(float(c) for c in self.curvatures)
        # a frame of the wrong shape counts as singular; an inf or NaN entry
        # makes the determinant inf or NaN
        (f00, f01), (f10, f11) = frame.tolist() if frame.shape == (2, 2) else 2 * [(0.0, 0.0)]
        det = f00 * f11 - f01 * f10
        if not (len(kappa) == 2 and all(0.0 < c < math.inf for c in kappa) and 0.0 < abs(det) < math.inf):
            raise ValueError(f"need positive finite curvatures and a finite nonsingular 2x2 frame, not {kappa}")
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
        """r^T M r / 2 at r = (x1, x2): two squares on the principal axes, summed in place."""
        rows = np.sqrt(np.multiply(0.5, self.curvatures))[:, None] * self.inverse
        shape = np.broadcast_shapes(np.shape(x1), np.shape(x2))
        total, term = (np.add(r1 * x1, r2 * x2, out=np.empty(shape)) for r1, r2 in rows.tolist())
        np.square(total, out=total)
        total += np.square(term, out=term)
        return total

    def evaluate(self, x1, x2) -> np.ndarray:
        value = self.exponent(x1, x2)
        np.subtract(math.log(self.norm_prefactor), value, out=value)
        return np.exp(value, out=value)

    __call__ = evaluate


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
    check_mode(k)
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


def _check_positions(*positions) -> tuple[np.ndarray, ...]:
    # positions as float arrays, each on its own shape; inf or NaN raises
    arrays = tuple(np.asarray(x, dtype=float) for x in positions)
    if not all(np.isfinite(x).all() for x in arrays):
        raise ValueError("positions must be finite")
    return arrays


def hermite_function_sequence(n_max: int, x, inverse_length: float) -> np.ndarray:
    """Orthonormal oscillator eigenfunctions of index 0 .. n_max.

    Uses the normalized recurrence (stable for the index ranges handled
    here); ``inverse_length`` is the ``a`` in exp(-(a x)^2 / 2).
    """
    check_index(n_max, "n_max")
    (x,) = _check_positions(x)
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
    (``ValueError``).  The modulus is the record's Gaussian at x - y; the
    phase, linear in x, is one complex exponential on each of x1, x2.
    """
    state = gaussian_state(k, alpha, geom, labels)
    x1, x2 = _check_positions(x1, x2)
    y1, y2 = state.position_center
    w1, w2 = state.position_wavenumbers
    value = np.exp(1j * (w1 * x1 + state.phase)) * state.gaussian.evaluate(x1 - y1, x2 - y2)
    value *= np.exp(1j * w2 * x2)
    return complex(value) if value.ndim == 0 else value


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
    phi = coefficient_table(k, alpha, labels.z1, labels.z2, n_max) * _coherent_normalizer(labels)
    f1 = hermite_function_sequence(n_max, x1, geom.a)
    f2 = hermite_function_sequence(n_max, x2, geom.b)
    value = np.einsum("mn,m...,n...->...", phi, f1, f2, optimize=True)
    return complex(value) if value.ndim == 0 else value


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
    x1, x2 = _check_positions(x1, x2)
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
    x1, x2 = _check_positions(x1, x2)
    w1 = np.asarray(w1, dtype=complex)
    w2 = np.asarray(w2, dtype=complex)
    exponent = (
        _sb_mode_exponent(a * x1, w1)
        + _sb_mode_exponent(b * x2, w2)
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
