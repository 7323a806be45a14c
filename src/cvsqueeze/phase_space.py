"""Gaussian Wigner transforms, covariance matrices, and separability tests.

Phase-space ordering is (x1, x2, p1, p2), for which :func:`symplectic_form`
is built.  The Wigner transform reads the principal frame and curvatures of
a state's record, so M^-1 needs no inverse of M.  The central objects are the
symplectic eigenvalues of a covariance matrix (positive lambda with +-i lambda
the eigenvalues of J Sigma), from which the partial-transpose verdict and the
logarithmic negativity follow.  Logarithms are natural, consistent with the
squeeze-strength convention xi = -ln(alpha)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import _check_positive, _symmetrized, check_alpha, check_index
from .quadrature import _refine_by_doubling, open_gauss_hermite
from .states import OscillatorGeometry, QuadraticGaussian

__all__ = [
    "CovarianceMatrix",
    "PhaseSpacePoint",
    "SymplecticSpectrum",
    "SpectrumPairingError",
    "RSCheck",
    "PPTVerdict",
    "symplectic_form",
    "wigner_gaussian",
    "wigner_numeric",
    "covariance",
    "robertson_schrodinger_check",
    "partial_transpose",
    "symplectic_spectrum",
    "ppt_separable",
    "log_negativity",
]

# relative band around hbar/2 inside which the PPT verdict is flagged as
# boundary-indeterminate
SEPARABILITY_RTOL = 1e-10

# robertson_schrodinger_check's rounding band, relative to the largest
# |eigenvalue| of Sigma + (i hbar / 2) J: eigvalsh places a zero eigenvalue
# within about eps times that scale, so a smaller |margin| has no sign
UNCERTAINTY_RTOL = 4.0 * float(np.finfo(float).eps)

# symplectic_spectrum's pairing band, relative to the largest |eigenvalue| of
# J Sigma: every |Re| must lie within it and exactly two imaginary parts above
PAIRING_RTOL = 1e-10


class SpectrumPairingError(ValueError):
    """Eigenvalues of J Sigma failed to form conjugate-imaginary pairs.

    Signals non-symmetric or non-positive-definite input.
    """


@dataclass(frozen=True)
class CovarianceMatrix:
    """4x4 real symmetric covariance matrix over (x1, x2, p1, p2), with hbar."""

    sigma: np.ndarray
    hbar: float = 1.0

    def __post_init__(self) -> None:
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.shape != (4, 4):
            raise ValueError(f"covariance matrix must be 4x4, got shape {sigma.shape}")
        if not np.isfinite(sigma).all():
            raise ValueError(f"covariance matrix entries must be finite, got {sigma.tolist()}")
        _check_positive(self.hbar, "hbar")
        object.__setattr__(self, "sigma", _symmetrized(sigma, "covariance matrix"))


@dataclass(frozen=True)
class PhaseSpacePoint:
    x1: float = 0.0
    x2: float = 0.0
    p1: float = 0.0
    p2: float = 0.0


@dataclass(frozen=True)
class SymplecticSpectrum:
    """Positive symplectic eigenvalues, sorted ascending."""

    values: tuple[float, ...]

    @property
    def minimum(self) -> float:
        return self.values[0]


def symplectic_form() -> np.ndarray:
    """The standard symplectic matrix J for ordering (x1, x2, p1, p2)."""
    j = np.zeros((4, 4))
    j[:2, 2:] = np.eye(2)
    j[2:, :2] = -np.eye(2)
    return j


def wigner_gaussian(gaussian: QuadraticGaussian, hbar: float = 1.0):
    """Covariance matrix and closed-form Wigner evaluator of a centered Gaussian.

    For the normalized state with quadratic-form matrix M the Wigner
    function is the phase-space Gaussian (pi hbar)^-2
    exp(-gamma^T Sigma^-1 gamma / 2) with Sigma = blockdiag(M^-1/2,
    hbar^2 M/2); the evaluator integrates to one over phase space.  M^-1 is
    read off the Fourier-dual Gaussian (frame^-T, curvatures 1/kappa), so both
    exponents are sums of squares on principal axes.
    Returns ``(CovarianceMatrix, evaluator)``.
    """
    _check_positive(hbar, "hbar")
    dual = QuadraticGaussian(gaussian.inverse.T, [1.0 / c for c in gaussian.curvatures])
    sigma = np.zeros((4, 4))
    sigma[:2, :2] = 0.5 * dual.matrix
    sigma[2:, 2:] = 0.5 * hbar * hbar * gaussian.matrix
    cov = CovarianceMatrix(sigma=sigma, hbar=hbar)
    try:
        peak = float(np.pi * hbar) ** -2
    except OverflowError:
        raise ValueError(f"hbar = {hbar!r} is too small: the Wigner peak (pi hbar)^-2 overflows") from None

    def evaluator(x1, x2, p1, p2):
        # the momentum exponent is divided by hbar twice: near the smallest
        # hbar, hbar**2 is subnormal, and p / hbar could meet +inf with -inf
        # inside the exponent's sums; an exponent beyond float64 is +inf, the
        # exact limit, for a value of 0
        with np.errstate(over="ignore"):
            momentum = dual.exponent(p1, p2) / hbar / hbar
        return peak * np.exp(-2.0 * (gaussian.exponent(x1, x2) + momentum))

    return cov, evaluator


def _principal_axes(m_matrix) -> tuple[np.ndarray, np.ndarray]:
    # eigh of a finite, symmetric, positive definite 2x2 m_matrix; eigh reads
    # one triangle only, so finiteness and symmetry are checked first
    m = np.asarray(m_matrix, dtype=float)
    if m.shape == (2, 2) and np.isfinite(m).all() and abs(m[0, 1] - m[1, 0]) <= 1e-12 * np.abs(m).max():
        curvatures, axes = np.linalg.eigh(m)
        if curvatures[0] > 0.0:
            return curvatures, axes
    raise ValueError(f"m_matrix must be finite, symmetric and positive definite, got {m.tolist()}")


def _wigner_quad(f, point: PhaseSpacePoint, hbar: float, order: int, curvatures, axes: np.ndarray) -> complex:
    # chord Gaussian of f f* is exp(-X^T M X / 4): one rule along each
    # principal axis of M, X = axes @ (u1, u2); the axes are orthonormal, so
    # the Jacobian is one
    u1, w1 = open_gauss_hermite(order, curvatures[0] / 4.0)
    u2, w2 = open_gauss_hermite(order, curvatures[1] / 4.0)
    chord1 = axes[0, 0] * u1[:, None] + axes[0, 1] * u2[None, :]
    chord2 = axes[1, 0] * u1[:, None] + axes[1, 1] * u2[None, :]
    f_plus = np.asarray(f(point.x1 + chord1 / 2.0, point.x2 + chord2 / 2.0), dtype=complex)
    f_minus = np.asarray(f(point.x1 - chord1 / 2.0, point.x2 - chord2 / 2.0), dtype=complex)
    phase = np.exp(-1j * (point.p1 * chord1 + point.p2 * chord2) / hbar)
    total = np.einsum("i,j,ij->", w1, w2, f_plus * np.conj(f_minus) * phase)
    return complex(total) / (2.0 * math.pi * hbar) ** 2


def wigner_numeric(f, point: PhaseSpacePoint, hbar: float = 1.0, order: int = 48, *, m_matrix, check: bool = False):
    """Wigner value of an arbitrary wave function by chord quadrature.

    ``f(x1, x2)`` must be vectorized over arrays.  ``m_matrix`` is the 2x2
    quadratic form M of |f|^2 ~ exp(-x^T M x): the rule runs along its
    principal axes, each scaled to its curvature, and M must be finite,
    symmetric and positive definite.  The Wigner function of any state is
    real, so the real part of the quadrature is returned.  ``check=True``
    re-evaluates at doubled order and raises
    :class:`~cvsqueeze.quadrature.ConvergenceError` on a disagreement beyond
    1e-8 relative to max(1, |value|).
    """
    _check_positive(hbar, "hbar")
    curvatures, axes = _principal_axes(m_matrix)
    value = _refine_by_doubling(
        lambda quad_order: _wigner_quad(f, point, hbar, quad_order, curvatures, axes),
        order, check, 1e-8, "wigner_numeric",
    )
    return value.real


def covariance(k: int, alpha: float, geom: OscillatorGeometry) -> CovarianceMatrix:
    """Exact covariance matrix of the mode-``k`` centered state.

    Transcribed directly (not routed through :func:`wigner_gaussian`) so the
    two construction paths can be compared entrywise.
    """
    k = check_index(k, "k", minimum=1, maximum=2)
    alpha = check_alpha(alpha, closed=True)
    a, b, hbar = geom.a, geom.b, geom.hbar
    if k == 1:
        sigma = 0.5 * np.diag(
            [alpha / a**2, alpha / b**2, a**2 * hbar**2 / alpha, b**2 * hbar**2 / alpha]
        )
    else:
        plus = 1.0 + alpha * alpha
        minus = (1.0 - alpha) * (1.0 + alpha)
        sigma = np.zeros((4, 4))
        sigma[:2, :2] = [[plus / a**2, -minus / (a * b)], [-minus / (a * b), plus / b**2]]
        sigma[2:, 2:] = [
            [plus * a**2 * hbar**2, minus * a * b * hbar**2],
            [minus * a * b * hbar**2, plus * b**2 * hbar**2],
        ]
        sigma /= 4.0 * alpha
    return CovarianceMatrix(sigma=sigma, hbar=hbar)


@dataclass(frozen=True)
class RSCheck:
    """Outcome of the uncertainty-relation positivity test.

    ``indeterminate`` flags a margin inside the rounding band
    ``UNCERTAINTY_RTOL``, whose sign the eigensolver cannot resolve.
    """

    passed: bool
    margin: float
    indeterminate: bool


def robertson_schrodinger_check(cov: CovarianceMatrix) -> RSCheck:
    """Test Sigma + (i hbar / 2) J >= 0 via the Hermitian eigenproblem.

    The margin is the minimum eigenvalue; physical covariance matrices pass
    with margin >= -1e-12 or a margin inside the rounding band, which at
    strong squeezing (large max |eigenvalue|) exceeds 1e-12.
    """
    h = cov.sigma + 0.5j * cov.hbar * symplectic_form()
    eigenvalues = np.linalg.eigvalsh(h)
    margin = float(eigenvalues.min())
    indeterminate = abs(margin) <= UNCERTAINTY_RTOL * float(np.abs(eigenvalues).max())
    return RSCheck(passed=margin >= -1e-12 or indeterminate, margin=margin, indeterminate=indeterminate)


def partial_transpose(cov: CovarianceMatrix) -> CovarianceMatrix:
    """Momentum-reversal of the second mode: Sigma -> Lambda Sigma Lambda^T.

    Lambda = diag(1, 1, 1, -1); applying twice returns the input.
    """
    lam = np.diag([1.0, 1.0, 1.0, -1.0])
    return CovarianceMatrix(sigma=lam @ cov.sigma @ lam.T, hbar=cov.hbar)


def symplectic_spectrum(cov: CovarianceMatrix) -> SymplecticSpectrum:
    """Positive symplectic eigenvalues of a covariance matrix.

    Primary route: eigenvalues of J Sigma, which come in conjugate pairs
    +-i lambda for symmetric positive-definite input; the real parts must
    vanish within ``PAIRING_RTOL`` (relative) or :class:`SpectrumPairingError`
    is raised.  A square-root-free cross-check through the eigenvalues of
    -(J Sigma)^2 must agree to 1e-12 relative.
    """
    product = symplectic_form() @ cov.sigma
    eigenvalues = np.linalg.eigvals(product)
    scale = float(np.abs(eigenvalues).max())
    if scale <= 0.0:
        raise SpectrumPairingError("J Sigma has all-zero spectrum")
    if float(np.abs(eigenvalues.real).max()) > PAIRING_RTOL * scale:
        raise SpectrumPairingError(
            f"eigenvalues of J Sigma are not purely imaginary within tolerance "
            f"(max |Re| = {np.abs(eigenvalues.real).max():.3e}, scale {scale:.3e})"
        )
    positive = np.sort(eigenvalues.imag[eigenvalues.imag > PAIRING_RTOL * scale])
    if positive.size != 2:
        raise SpectrumPairingError(
            f"expected 2 positive-imaginary eigenvalues, found {positive.size}"
        )
    # cross-check against -(J Sigma)^2, whose spectrum is {lambda^2}, doubled
    # (allclose's own test, written out: a NaN still fails it)
    squares = np.sort(np.linalg.eigvals(-product @ product).real)
    expected = np.repeat(positive**2, 2)
    if not (np.abs(squares - expected) <= 1e-12 * scale**2 + 1e-12 * np.abs(expected)).all():
        raise SpectrumPairingError("square-root-free route disagrees with the paired spectrum")
    return SymplecticSpectrum(values=(float(positive[0]), float(positive[1])))


@dataclass(frozen=True)
class PPTVerdict:
    """Separability verdict and log-negativity of one partial-transpose spectrum.

    ``spectrum`` is ``symplectic_spectrum(partial_transpose(cov))``;
    ``margin`` is lambda_min / (hbar/2) - 1; ``indeterminate`` flags values
    inside the boundary tolerance band where the verdict is a coin toss
    numerically; ``log_negativity`` is max(ln(hbar / (2 lambda_min)), 0).
    """

    separable: bool
    spectrum: SymplecticSpectrum
    margin: float
    indeterminate: bool
    log_negativity: float

    @property
    def lambda_min(self) -> float:
        return self.spectrum.minimum

    @property
    def verdict(self) -> str:
        return "SEPARABLE" if self.separable else "ENTANGLED"


def ppt_separable(cov: CovarianceMatrix) -> PPTVerdict:
    """Partial-transpose separability test for the bipartite Gaussian state.

    Separable iff the minimal symplectic eigenvalue of the partially
    transposed covariance matrix stays >= hbar/2 (up to the relative
    boundary tolerance ``SEPARABILITY_RTOL``); the logarithmic negativity
    is read off the same eigenvalue, with the natural logarithm.
    """
    spectrum = symplectic_spectrum(partial_transpose(cov))
    margin = spectrum.minimum / (0.5 * cov.hbar) - 1.0
    return PPTVerdict(
        separable=margin >= -SEPARABILITY_RTOL,
        spectrum=spectrum,
        margin=margin,
        indeterminate=abs(margin) <= SEPARABILITY_RTOL,
        log_negativity=max(math.log(cov.hbar / (2.0 * spectrum.minimum)), 0.0),
    )


def log_negativity(cov: CovarianceMatrix) -> float:
    """Logarithmic negativity max(ln(hbar / (2 lambda_min)), 0) of :func:`ppt_separable`."""
    return ppt_separable(cov).log_negativity
