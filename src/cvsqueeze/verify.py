"""Executable invariant suites, one per library layer.

Each suite returns a list of :class:`CheckResult` with the measured residual
next to the tolerance it was judged against; the CLI prints one line per
check and fails the process if any check fails.  A check reports the
largest of its residuals, and a NaN residual fails it.  The checks deliberately
re-derive expected values through independent routes (explicit sums,
generating functions, quadrature, refinement) rather than calling the code
under test twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import basis, hermite, model, phase_space, states

__all__ = ["CheckResult", "SUITES", "run_suite", "suite_names"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: residual {self.residual:.3e} (tolerance {self.tolerance:.1e})"


def _check(name: str, residuals, tol: float) -> CheckResult:
    # np.max, unlike the builtin max(), returns NaN when any residual is NaN,
    # and NaN <= tol is False
    residual = float(np.max(residuals))
    return CheckResult(name=name, passed=residual <= tol, residual=residual, tolerance=tol)


def _explicit_hermite_sum(n: int, z: complex) -> complex:
    # terminating series: the inverse factorial vanishes past floor(n/2)
    total = 0.0 + 0.0j
    for m in range(n // 2 + 1):
        total += (-1) ** m * (2 * z) ** (n - 2 * m) / (
            math.factorial(m) * math.factorial(n - 2 * m)
        )
    return math.factorial(n) * total


# the trapezoid rule on the circle |s| = r of N nodes reads the Taylor
# coefficients of an entire function with no cancellation and geometric
# convergence (Lyness & Moler 1967; Trefethen & Weideman 2014).  At r = 1.5,
# N = 32 the table for m, n <= 6 is within 1.9e-14 of a 50-digit reference
# (relative, floored at 1) at the suite's point and 1.5e-14 at two points with
# |z| <= 1.8, but 1.4e-13 at (0, 0) and 1.0e-12 at (1.8, 0), where exact zeros
# see the samples' rounding times m! n! / r^(m+n); N = 24 or r >= 2.5 alias
_CONTOUR_RADIUS = 1.5
_CONTOUR_NODES = 32


def _contour_table(m_max: int, n_max: int, z1: complex, z2: complex) -> np.ndarray:
    # [m, n]: H_{m,n} = m! n! [s^m t^n] exp(s z1 + t z2 - s t) = E_m F E_n^T,
    # F the function on the torus s, t = r w^k with w = e^(2 pi i / N) and
    # E[m, k] = m! w^(-m k) / (N r^m), m k reduced mod N; a matrix product,
    # so that the first verify job pays no numpy.fft import
    nodes = np.arange(_CONTOUR_NODES)
    roots = np.exp(2j * math.pi / _CONTOUR_NODES * nodes)
    degree = np.arange(max(m_max, n_max) + 1)
    scale = np.array([math.factorial(m) for m in degree]) / (_CONTOUR_NODES * _CONTOUR_RADIUS**degree)
    weights = roots.conj()[np.outer(degree, nodes) % _CONTOUR_NODES] * scale[:, None]
    s = _CONTOUR_RADIUS * roots
    samples = np.exp(np.add.outer(s * z1, s * z2) - np.multiply.outer(s, s))
    return weights[: m_max + 1] @ samples @ weights[: n_max + 1].T


def hermite_suite() -> list[CheckResult]:
    def relative(value, reference):
        # the scale is floored at 1 near a zero of the reference
        return np.abs(np.subtract(value, reference)) / np.maximum(1.0, np.abs(reference))

    checks: list[CheckResult] = []
    grid = [0.7 + 0.0j, -1.3 + 0.0j, 0.4 + 0.9j, -0.8 + 0.3j, 1.1 - 1.2j]
    residuals = [
        relative(hermite.hermite_holo_sequence(25, z), [_explicit_hermite_sum(n, z) for n in range(26)])
        for z in grid
    ]
    checks.append(_check("recurrence vs explicit sum, n <= 25", residuals, 1e-11))

    za, zb = 0.5 - 0.2j, 1.1 + 0.3j
    pairs = [(0, 3), (2, 5), (4, 4), (6, 1), (8, 7)]
    lhs = [hermite.hermite_complex_2v_table(m, n, za, zb)[m, n] for m, n in pairs]
    rhs = [hermite.hermite_complex_2v_table(n, m, zb, za)[n, m] for m, n in pairs]
    checks.append(_check("two-index symmetry under (m,n,z1,z2)->(n,m,z2,z1)", relative(rhs, lhs), 1e-14))

    za, zb = 0.6 + 0.4j, -0.3 + 0.8j
    residuals = relative(_contour_table(6, 6, za, zb), hermite.hermite_complex_2v_table(6, 6, za, zb))
    checks.append(_check("generating-function coefficients, m,n <= 6", residuals, 1e-12))

    points = [(1.0 + 0.0j, 1.0 + 0.0j), (0.4 + 0.7j, -0.9 + 0.2j)]
    pairs = [hermite.mehler_product(t, za, zb, 60) for t in (-0.6, -0.3, 0.3, 0.6) for za, zb in points]
    residuals = [abs(series - closed) for series, closed in pairs]
    checks.append(_check("product generating identity, |t| <= 0.6, 60 terms", residuals, 1e-9))

    pairs = [
        hermite.mehler_two_variable(s, t, 0.3 + 0.1j, -0.2 + 0.5j, 0.7, -1.1, 60)
        for (s, t) in [(0.4, 0.4), (0.6, 0.6), (-0.5, 0.7)]
    ]
    residuals = [abs(series - closed) for series, closed in pairs]
    checks.append(_check("two-variable generating identity, |s t| <= 0.36, 60 terms", residuals, 1e-9))

    # an off-diagonal entry (m, n) is scaled by the norm of the larger index
    index = np.arange(11)
    off = index[:, None] != index[None, :]
    diagonal, off_diagonal = [], []
    for alpha in (0.3, 0.5, 0.7):
        gram = hermite._orthogonality_quad(10, alpha, order=80)
        rhs = np.array([hermite.orthogonality_rhs(n, n, alpha) for n in index])
        diagonal.append(np.abs(np.diagonal(gram) - rhs) / rhs)
        off_diagonal.append((np.abs(gram) / rhs[np.maximum.outer(index, index)])[off])
    checks.append(_check("weighted orthogonality, diagonal, m,n <= 10", diagonal, 1e-8))
    checks.append(_check("weighted orthogonality, off-diagonal (scaled)", off_diagonal, 1e-8))
    return checks


def basis_suite() -> list[CheckResult]:
    checks: list[CheckResult] = []
    # strong (1e-4, 0.05) to weak (0.999) squeezing; the worst, 4.2e-15, is at 1e-4
    grams = [basis.basis_gram(alpha, max_index=4, order=40) for alpha in (1e-4, 0.05, 0.3, 0.6, 0.999)]
    residuals = [np.abs(gram - np.eye(gram.shape[0])) for gram in grams]
    checks.append(_check("Gaussian-measure orthonormality, indices <= 4", residuals, 1e-13))

    # the k=2 basis at (z1, z2) is sum C[m, n, p, q] f_p(a) f_q(b') over the
    # k=1 functions f at the principal axes a = (z1 + z2)/sqrt(2),
    # b' = i (z1 - z2)/sqrt(2), with basis_gram's alpha-free matrices C; each
    # error is scaled by the sum of the terms' moduli (worst 1.2e-15, at 0.5)
    z1 = np.array([0.3 + 0.2j, -0.7 + 0.1j, 1.1 - 0.4j, -0.2 - 0.9j, 0.5 + 0.6j])
    z2 = np.array([-0.4 + 0.8j, 0.6 - 0.3j, 0.2 + 0.1j, -1.0 + 0.5j, 0.9 - 0.7j])
    rotation = basis._gram_coefficients(4).reshape(25, 81)
    residuals = []
    for alpha in (0.5, 0.05, 1e-4):
        axes = basis.basis_function_sequence(8, alpha, np.concatenate([z1 + z2, 1j * (z1 - z2)]) / math.sqrt(2.0))
        products = (axes[:, None, :5] * axes[None, :, 5:]).reshape(81, 5)
        error = np.abs(basis.basis_function_2v_table(4, 4, alpha, z1, z2).reshape(25, 5) - rotation @ products)
        residuals.append(error / (np.abs(rotation) @ np.abs(products)))
    checks.append(_check("k=2 basis is the 50:50 rotation of k=1 products, indices <= 4", residuals, 1e-14))

    residuals = []
    for alpha in np.logspace(-3, 0, 25):
        param = basis.squeeze_from_alpha(float(alpha))
        round_trip = basis.alpha_from_squeeze(param.xi)
        arctanh_form = math.atanh((1.0 - alpha) / (1.0 + alpha))
        residuals += [abs(round_trip - alpha) / alpha, abs(param.xi - arctanh_form)]
    checks.append(_check("squeeze parameter round trip and dual expression", residuals, 1e-13))

    sums = np.array([
        [basis.coefficient_norm_partial(k, 0.4, 0.8 - 0.3j, -0.5 + 0.2j, n) for n in (5, 10, 20, 40, 60)]
        for k in (1, 2)
    ])
    drops = np.maximum(sums[:, :-1] - sums[:, 1:], 0.0)
    checks.append(_check("coefficient norm partial sums nondecreasing", drops, 1e-12))
    return checks


# trapezoid weights in units of the step on 201 points: the full rule, and
# the rule of step 2 on the every-other-point subgrid
_TRAPEZOID_WEIGHTS = np.zeros((2, 201))
_TRAPEZOID_WEIGHTS[0] = 1.0
_TRAPEZOID_WEIGHTS[1, ::2] = 2.0
_TRAPEZOID_WEIGHTS[:, [0, -1]] *= 0.5


def _norm_integral(k: int, alpha: float, geom: states.OscillatorGeometry, labels) -> tuple[float, float]:
    # trapezoid-rule L2 norm over 10 spreads on a 201^2 grid, spectrally
    # accurate for the decaying Gaussians, and the same rule on its
    # every-other-point 101^2 subgrid: the two agree only when the coarser
    # grid has converged too.  Returns (norm, half-grid norm); the tests
    # share this oracle.  The steps come from the centred offsets, since
    # x[1] - x[0] would round at the magnitude of the center.
    shifts = states.shift_params(k, alpha, geom, labels)
    spread = math.sqrt(max(alpha, (1.0 + alpha**2) / (4.0 * alpha)))
    spread1, spread2 = spread / geom.a, spread / geom.b
    offsets, step = np.linspace(-10.0, 10.0, 201, retstep=True)
    values = states.wave_function(
        k, shifts.y1 + spread1 * offsets[:, None], shifts.y2 + spread2 * offsets[None, :],
        geom, labels, alpha,
    )
    density = values.real**2 + values.imag**2
    norm, half = np.diagonal(_TRAPEZOID_WEIGHTS @ density @ _TRAPEZOID_WEIGHTS.T) * (spread1 * step * spread2 * step)
    return float(norm), float(half)


# 2 pi to 60 digits, for _mp_wave_function's phase reduction
_TWO_PI = "6.28318530717958647692528676655900576839433879875021164194989"


def _mp_wave_function(x1: float, x2: float, geom, labels, alpha: float) -> complex:
    # the raw mode-2 closed form at one point of float inputs, in 50-digit
    # decimal arithmetic, where its 1/alpha terms cancel without loss; the
    # phase is reduced mod 2 pi before a float cos and sin
    # imported here, by the one check that uses it, so that importing the
    # CLI does not load it
    from decimal import Context, Decimal, localcontext

    with localcontext(Context(prec=50)):
        a, b, al, x1, x2, z1r, z1i, z2r, z2i = (
            Decimal(float(v))
            for v in (geom.a, geom.b, alpha, x1, x2, labels.z1.real, labels.z1.imag, labels.z2.real, labels.z2.imag)
        )
        two_pi = Decimal(_TWO_PI)
        root = (2 * al).sqrt()
        xi1 = x1 - ((al + 1) * z1r + (al - 1) * z2r) / (a * root)
        xi2 = x2 - ((al - 1) * z1r + (al + 1) * z2r) / (b * root)
        modulus = (2 * a * b / two_pi).sqrt() * (
            -(1 + al * al) / (4 * al) * (a * a * xi1**2 + b * b * xi2**2)
            - (1 - al * al) / (2 * al) * a * b * xi1 * xi2
        ).exp()
        phase = (
            a * x1 * ((1 + al) * z1i + (1 - al) * z2i) / root
            + b * x2 * ((1 + al) * z2i + (1 - al) * z1i) / root
            - (z1r * z1i + z2r * z2i)
        ).remainder_near(two_pi)
    return float(modulus) * complex(math.cos(float(phase)), math.sin(float(phase)))


def states_suite() -> list[CheckResult]:
    checks: list[CheckResult] = []
    label_grid = [
        states.DisplacementLabels(),
        states.DisplacementLabels(0.4 + 0.3j, -0.2 + 0.5j),
        states.DisplacementLabels(-0.6 + 0.1j, 0.3 - 0.4j),
    ]
    norms = np.array([
        _norm_integral(k, alpha, states.OscillatorGeometry(a=a, b=b), labels)
        for k in (1, 2)
        for alpha in (0.2, 0.5, 0.8)
        for (a, b) in [(1.0, 1.0), (1.0, 2.0)]
        for labels in label_grid
    ])
    checks.append(_check("wave-function normalization", np.abs(norms[:, 0] - 1.0), 1e-9))
    delta = np.abs(norms[:, 0] - norms[:, 1])
    checks.append(_check("wave-function normalization, grid-halving delta", delta, 1e-12))

    geom = states.OscillatorGeometry(a=1.0, b=1.4)
    labels = states.DisplacementLabels(0.5 - 0.3j, -0.4 + 0.6j)
    xs = np.linspace(-2.5, 2.5, 9)
    mesh = (xs[:, None], xs[None, :])
    residuals = []
    for k in (1, 2):
        for alpha in (0.3, 0.7):
            params = states.shift_params(k, alpha, geom, labels)
            centered = states.unshifted_gaussian(k, alpha, geom)
            rebuilt = states.heisenberg_weyl_shift(params, centered.evaluate, *mesh, geom.hbar)
            direct = states.wave_function(k, *mesh, geom, labels, alpha)
            residuals.append(np.abs(rebuilt - direct))
    checks.append(_check("translation-operator reconstruction", residuals, 1e-12))

    grid = np.linspace(-3.0, 3.0, 21)
    mesh = (grid[:, None], grid[None, :])
    labels = states.DisplacementLabels(0.2 + 0.1j, -0.1 + 0.15j)
    gaps = []  # [k, order]: sup-norm gap of the series at orders 20, 30, 40, 50
    for k in (1, 2):
        exact = states.wave_function(k, *mesh, geom, labels, 0.5)
        series = [states.series_expansion(k, n, *mesh, geom, labels, 0.5) for n in (20, 30, 40, 50)]
        gaps.append([np.abs(approx - exact).max() for approx in series])
    checks.append(_check("series expansion sup-norm at order 50", np.array(gaps)[:, -1], 1e-7))
    growth = np.maximum(np.diff(gaps, axis=1), 0.0)
    checks.append(_check("series expansion sup-norm monotone decrease", growth, 0.0))

    # strong squeezing at alpha 1e-8, against 50 digits: 9 points within one
    # spread of the center along each principal axis, where the slope of the
    # state, which carries the rounding of x, is largest
    geom = states.OscillatorGeometry(0.8, 1.3)
    labels = states.DisplacementLabels(0.3 + 0.2j, -0.1 + 0.4j)
    state = states.gaussian_state(2, 1e-8, geom, labels)
    spreads = 1.0 / np.sqrt(2.0 * np.array(state.gaussian.curvatures))
    u = spreads[:, None] * np.stack(np.meshgrid(*2 * [np.linspace(-1.0, 1.0, 3)])).reshape(2, -1)
    x1, x2 = state.position_center[:, None] + state.gaussian.frame @ u
    reference = np.array([_mp_wave_function(p, q, geom, labels, 1e-8) for p, q in zip(x1, x2)])
    error = np.abs(states.wave_function(2, x1, x2, geom, labels, 1e-8) - reference).max()
    error /= np.abs(reference).max()
    checks.append(_check("wave function at alpha 1e-8 vs 50 digits, over peak", error, 1e-8))

    # factorizability: mixed second difference of log |psi|; exact for the
    # quadratic log-modulus, so the step can stay large
    step = 0.1
    alpha = 0.45
    labels = states.DisplacementLabels(0.3 + 0.2j, 0.1 - 0.4j)

    def cross_curvature(k: int) -> float:
        point = (0.4, -0.3)
        values = {}
        for s1 in (-1, 1):
            for s2 in (-1, 1):
                psi = states.wave_function(
                    k, point[0] + s1 * step, point[1] + s2 * step, geom, labels, alpha
                )
                values[(s1, s2)] = math.log(abs(psi))
        return (values[(1, 1)] - values[(1, -1)] - values[(-1, 1)] + values[(-1, -1)]) / (
            4.0 * step * step
        )

    checks.append(_check("separately squeezed state factorizes", abs(cross_curvature(1)), 1e-10))
    expected = -(1.0 - alpha**2) * geom.a * geom.b / (2.0 * alpha)
    residual = abs(cross_curvature(2) - expected)
    checks.append(_check("jointly squeezed state carries the predicted cross curvature", residual, 1e-9))
    return checks


def phase_space_suite() -> list[CheckResult]:
    checks: list[CheckResult] = []
    geoms = [
        states.OscillatorGeometry(1.0, 1.0),
        states.OscillatorGeometry(1.0, 2.0),
        states.OscillatorGeometry(0.8, 1.7, hbar=0.5),
    ]
    alphas = np.arange(0.05, 1.0, 0.05)

    # [geometry][alpha][k - 1]: the direct covariances, which every check
    # below reads
    covs = [[[phase_space.covariance(k, float(alpha), g) for k in (1, 2)] for alpha in alphas] for g in geoms]
    # [geometry, alpha, k - 1]: relative gap of the direct and the Wigner-built Sigma
    gaps = np.empty((len(geoms), len(alphas), 2))
    for g, geometry in enumerate(geoms):
        for a, alpha in enumerate(alphas):
            for k in (1, 2):
                direct = covs[g][a][k - 1]
                built, _ = phase_space.wigner_gaussian(
                    states.unshifted_gaussian(k, float(alpha), geometry), geometry.hbar
                )
                gaps[g, a, k - 1] = np.abs(direct.sigma - built.sigma).max() / abs(direct.sigma).max()
    # the two hbar = 1 geometries away from strong squeezing
    checks.append(_check("covariance matrix dual-path agreement", gaps[:2, alphas >= 0.2], 1e-14))
    checks.append(_check("covariance dual-path agreement, strong squeezing", gaps, 1e-13))

    geom, unit = geoms[0], covs[0]
    # the k = 2 partial-transpose verdicts serve the spectrum and the separability checks
    entangled = [phase_space.ppt_separable(cov2) for _, cov2 in unit]
    residuals = []
    for alpha, verdict in zip(alphas, entangled):
        expected = sorted((0.5 * geom.hbar * alpha, 0.5 * geom.hbar / alpha))
        residuals += [abs(v - e) / e for v, e in zip(verdict.spectrum.values, expected)]
    checks.append(_check("partial-transpose symplectic spectrum closed form", residuals, 1e-12))

    half = 0.5 * geom.hbar
    residuals = [
        abs(v - half) / half for pair in unit for cov in pair for v in phase_space.symplectic_spectrum(cov).values
    ]
    checks.append(_check("pure-state symplectic spectrum is hbar/2 twice", residuals, 1e-12))

    # mode 1 is a product state, mode 2 entangled below alpha 1 and within
    # the boundary band at 1 - 1e-12; (mode, alpha, separable) near alpha 1
    cases = [(k, 1.0 - 1e-6, k == 1) for k in (1, 2)] + [(2, 1.0 - 1e-12, True)]
    wrong = [
        phase_space.ppt_separable(phase_space.covariance(k, alpha, geom)).separable != separable
        for k, alpha, separable in cases
    ]
    wrong += [not phase_space.ppt_separable(cov1).separable for cov1, _ in unit]
    wrong += [verdict.separable for verdict in entangled]
    checks.append(_check("separability verdicts across the parameter range", wrong, 0.0))

    # both Sigma routes; at strong squeezing eigvalsh's rounding band is wider
    # than the tolerance, and a margin inside it is no violation
    violations = []
    for geometry in (geom, states.OscillatorGeometry(0.8, 1.3, hbar=0.7)):
        for alpha in (1e-8, 1e-5, 1e-4, 0.1, 0.5, 0.9):
            for k in (1, 2):
                built, _ = phase_space.wigner_gaussian(states.unshifted_gaussian(k, alpha, geometry), geometry.hbar)
                for cov in (phase_space.covariance(k, alpha, geometry), built):
                    result = phase_space.robertson_schrodinger_check(cov)
                    violations.append(0.0 if result.indeterminate else max(-result.margin, 0.0))
    checks.append(_check("uncertainty-relation positivity of physical states, alpha 1e-8 to 0.9", violations, 1e-12))

    gaussian = states.unshifted_gaussian(2, 0.5, geom)
    _, closed = phase_space.wigner_gaussian(gaussian, geom.hbar)
    stencil = [0.0, 0.35, -0.35]
    points = [(x, 0.1, p, -0.2) for x in stencil for p in stencil]
    residuals = []
    for (x1, x2, p1, p2) in points:
        point = phase_space.PhaseSpacePoint(x1, x2, p1, p2)
        numeric = phase_space.wigner_numeric(gaussian.evaluate, point, geom.hbar, m_matrix=gaussian.matrix)
        residuals.append(abs(numeric - float(closed(x1, x2, p1, p2))))
    checks.append(_check("chord-quadrature Wigner vs closed form", residuals, 1e-6))

    labels = states.DisplacementLabels(0.4 + 0.2j, -0.3 + 0.5j)
    shift = states.shift_params(2, 0.5, geom, labels)

    def shifted(x1, x2):
        return states.wave_function(2, x1, x2, geom, labels, 0.5)

    residuals = []
    for (x1, x2, p1, p2) in [(0, 0, 0, 0), (0.5, 0.1, -0.3, 0.2), (1.0, -0.4, 0.2, 0.3),
                             (-0.6, 0.8, 0.1, -0.5), (0.2, 0.2, 0.6, 0.6)]:
        numeric = phase_space.wigner_numeric(
            shifted, phase_space.PhaseSpacePoint(x1, x2, p1, p2), geom.hbar, m_matrix=gaussian.matrix
        )
        reference = float(closed(x1 - shift.y1, x2 - shift.y2, p1 - shift.q1, p2 - shift.q2))
        residuals.append(abs(numeric - reference))
    checks.append(_check("Wigner translation covariance at sampled points", residuals, 1e-6))
    return checks


def model_suite() -> list[CheckResult]:
    checks: list[CheckResult] = []
    residuals = [
        abs(((1.0 + alpha) ** 2 - (1.0 - alpha) ** 2) / (4.0 * alpha) - 1.0)
        for alpha in np.linspace(0.01, 1.0, 34)
    ]
    checks.append(_check("Bogoliubov normalization identity", residuals, 1e-15))

    spec = model.OscillatorSpec(omega1=1.0, omega2=1.8)
    residuals = []
    for alpha in (0.25, 0.5, 0.75):
        for z in (0.0 + 0.0j, 0.3 + 0.1j):
            ladder = model.hamiltonian_fock(alpha, spec, z, -z / 2, 14, method="ladder")
            expanded = model.hamiltonian_fock(alpha, spec, z, -z / 2, 14, method="expanded")
            residuals.append(ladder.interior_gap(expanded))
    checks.append(_check("ladder-product vs expanded Hamiltonian paths", residuals, 1e-10))

    limit = model.hamiltonian_quadratic(1.0, spec, 0.2 + 0.1j, -0.3 + 0.4j)
    deviations = []
    for alpha in (1.0 - 1e-3, 1.0 - 1e-5, 1.0 - 1e-7):
        ham = model.hamiltonian_quadratic(alpha, spec, 0.2 + 0.1j, -0.3 + 0.4j)
        deviations.append(np.abs(ham.q - limit.q).max() + np.abs(ham.linear - limit.linear).max())
    checks.append(_check("no-squeezing limit continuity (residual at 1e-7)", deviations[-1], 1e-5))
    # any step toward alpha 1 that moves away from the limit
    growth = np.maximum(np.diff(deviations), 0.0)
    checks.append(_check("no-squeezing limit monotone approach", growth, 0.0))

    # [X (x) 1 + 1 (x) Y, X' (x) 1 + 1 (x) Y'] = [X, X'] (x) 1 + 1 (x) [Y, Y'],
    # the commutators of coefficient rows, in band form
    one = model._ONE
    identity, zero = model._operator(model._kron_terms([(one, one)]), 14), model.TruncatedOperator({}, 14)
    residuals = []
    for alpha in (0.25, 0.6):
        c1, c1_dag, c2, c2_dag = model._ladder_rows(alpha, 0.3 + 0.1j, -0.2j)
        for (x, y), (x_other, y_other), expected in [
            (c1, c1_dag, identity), (c2, c2_dag, identity), (c1, c2, zero), (c1, c2_dag, zero)
        ]:
            terms = [
                (model._times(x, x_other) - model._times(x_other, x), one),
                (one, model._times(y, y_other) - model._times(y_other, y)),
            ]
            residuals.append(model._operator(model._kron_terms(terms), 14).interior_gap(expected))
    checks.append(_check("canonical commutators on the interior block", residuals, 1e-12))

    spec_g = model.OscillatorSpec.from_geometry(states.OscillatorGeometry(1.0, 1.2))
    energy_errs, refinements, defects = [], [], []
    for alpha in (0.05, 0.5):
        coarse, fine = (
            model.ground_state_energy_check(alpha, spec_g, 0.3 + 0.1j, -0.2 + 0.4j, grid_points=n)
            for n in (81, 161)
        )
        energy_errs.append(abs(fine.energy - fine.expected))
        refinements.append(fine.residual / coarse.residual)
        defects += [coarse.factorization_defect, fine.factorization_defect]
    checks.append(_check("ground-state energy expectation", energy_errs, 1e-6))
    checks.append(_check("eigen-residual shrinks under grid refinement", refinements, 0.1))
    checks.append(_check("ground state factorizes on the principal axes", defects, 1e-12))

    # a coupling is missing below alpha 1, or present (nonzero) at alpha 1
    missing = [
        ham.q[0, 1] == 0.0 or ham.q[2, 3] == 0.0
        for ham in (model.hamiltonian_quadratic(alpha, spec, 0, 0) for alpha in (0.25, 0.5))
    ]
    ham_one = model.hamiltonian_quadratic(1.0, spec, 0, 0)
    checks.append(_check(
        "couplings present iff squeezing is present",
        [*missing, abs(ham_one.q[0, 1]), abs(ham_one.q[2, 3])],
        0.0,
    ))
    return checks


SUITES = {
    "hermite": hermite_suite,
    "basis": basis_suite,
    "states": states_suite,
    "phase_space": phase_space_suite,
    "model": model_suite,
}


def suite_names() -> list[str]:
    return [*SUITES, "all"]


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite, or every suite for ``name='all'``."""
    if name == "all":
        results: list[CheckResult] = []
        for suite in SUITES.values():
            results.extend(suite())
        return results
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {suite_names()}")
    return SUITES[name]()
