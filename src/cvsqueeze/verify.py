"""Executable invariant suites, one per library layer.

Each suite returns a list of :class:`CheckResult` with the measured residual
next to the tolerance it was judged against; the CLI prints one line per
check and fails the process if any check fails.  The checks deliberately
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


def _check(name: str, residual: float, tol: float) -> CheckResult:
    residual = float(residual)
    return CheckResult(name=name, passed=residual <= tol, residual=residual, tolerance=tol)


def _explicit_hermite_sum(n: int, z: complex) -> complex:
    # terminating series: the inverse factorial vanishes past floor(n/2)
    total = 0.0 + 0.0j
    for m in range(n // 2 + 1):
        total += (-1) ** m * (2 * z) ** (n - 2 * m) / (
            math.factorial(m) * math.factorial(n - 2 * m)
        )
    return math.factorial(n) * total


def _finite_difference_table(m_max: int, n_max: int, z1: complex, z2: complex) -> np.ndarray:
    # [m, n]: the m-th and n-th central differences of exp(s z1 + t z2 - s t)
    # at the origin; the difference quotient loses ~(m+n) digits to
    # cancellation, so it is evaluated in 60-digit arithmetic with a small
    # step.  Every stencil node is a half-integer multiple of the step, so
    # the function is sampled once on that lattice and shared by all (m, n).
    import mpmath as mp

    with mp.workdps(60):
        step = mp.mpf("1e-4")
        w1 = mp.mpc(z1.real, z1.imag)
        w2 = mp.mpc(z2.real, z2.imag)
        samples = {}
        for i in range(-m_max, m_max + 1):
            s = mp.mpf(i) / 2 * step
            for j in range(-n_max, n_max + 1):
                t = mp.mpf(j) / 2 * step
                samples[i, j] = mp.exp(s * w1 + t * w2 - s * t)
        table = np.empty((m_max + 1, n_max + 1), dtype=complex)
        for m in range(m_max + 1):
            for n in range(n_max + 1):
                total = mp.mpc(0)
                for k in range(m + 1):
                    for l in range(n + 1):
                        weight = (-1) ** (k + l) * math.comb(m, k) * math.comb(n, l)
                        total += weight * samples[m - 2 * k, n - 2 * l]
                table[m, n] = complex(total / step ** (m + n))
        return table


def hermite_suite() -> list[CheckResult]:
    checks: list[CheckResult] = []
    grid = [0.7 + 0.0j, -1.3 + 0.0j, 0.4 + 0.9j, -0.8 + 0.3j, 1.1 - 1.2j]
    worst = 0.0
    for z in grid:
        seq = hermite.hermite_holo_sequence(25, z)
        for n in range(26):
            reference = _explicit_hermite_sum(n, z)
            worst = max(worst, abs(seq[n] - reference) / max(1.0, abs(reference)))
    checks.append(_check("recurrence vs explicit sum, n <= 25", worst, 1e-11))

    worst = 0.0
    for (m, n) in [(0, 3), (2, 5), (4, 4), (6, 1), (8, 7)]:
        za, zb = 0.5 - 0.2j, 1.1 + 0.3j
        lhs = hermite.hermite_complex_2v(m, n, za, zb)
        rhs = hermite.hermite_complex_2v(n, m, zb, za)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    checks.append(_check("two-index symmetry under (m,n,z1,z2)->(n,m,z2,z1)", worst, 1e-14))

    worst = 0.0
    za, zb = 0.6 + 0.4j, -0.3 + 0.8j
    approx = _finite_difference_table(6, 6, za, zb)
    for m in range(7):
        for n in range(7):
            exact = hermite.hermite_complex_2v(m, n, za, zb)
            worst = max(worst, abs(approx[m, n] - exact) / max(1.0, abs(exact)))
    checks.append(_check("generating-function coefficients, m,n <= 6", worst, 1e-7))

    worst = 0.0
    for t in (-0.6, -0.3, 0.3, 0.6):
        for (za, zb) in [(1.0 + 0.0j, 1.0 + 0.0j), (0.4 + 0.7j, -0.9 + 0.2j)]:
            series, closed = hermite.mehler_product(t, za, zb, 60)
            worst = max(worst, abs(series - closed))
    checks.append(_check("product generating identity, |t| <= 0.6, 60 terms", worst, 1e-9))

    worst = 0.0
    for (s, t) in [(0.4, 0.4), (0.6, 0.6), (-0.5, 0.7)]:
        series, closed = hermite.mehler_two_variable(s, t, 0.3 + 0.1j, -0.2 + 0.5j, 0.7, -1.1, 60)
        worst = max(worst, abs(series - closed))
    checks.append(_check("two-variable generating identity, |s t| <= 0.36, 60 terms", worst, 1e-9))

    worst_diag = 0.0
    worst_off = 0.0
    for alpha in (0.3, 0.5, 0.7):
        gram = hermite._orthogonality_quad(10, alpha, order=80)
        for m in range(11):
            for n in range(11):
                if m == n:
                    expected = hermite.orthogonality_rhs(n, n, alpha)
                    worst_diag = max(worst_diag, abs(gram[n, n] - expected) / expected)
                else:
                    scale = hermite.orthogonality_rhs(max(m, n), max(m, n), alpha)
                    worst_off = max(worst_off, abs(gram[m, n]) / scale)
    checks.append(_check("weighted orthogonality, diagonal, m,n <= 10", worst_diag, 1e-8))
    checks.append(_check("weighted orthogonality, off-diagonal (scaled)", worst_off, 1e-8))
    return checks


def basis_suite() -> list[CheckResult]:
    checks: list[CheckResult] = []
    worst = 0.0
    # strong (1e-4, 0.05) to weak (0.999) squeezing; the worst, 1.2e-14, is at 1e-4
    for alpha in (1e-4, 0.05, 0.3, 0.6, 0.999):
        gram = basis.basis_gram(alpha, max_index=4, order=40)
        worst = max(worst, float(np.abs(gram - np.eye(gram.shape[0])).max()))
    checks.append(_check("Gaussian-measure orthonormality, indices <= 4", worst, 1e-13))

    worst = 0.0
    for alpha in np.logspace(-3, 0, 25):
        param = basis.squeeze_from_alpha(float(alpha))
        round_trip = basis.alpha_from_squeeze(param.xi)
        worst = max(worst, abs(round_trip - alpha) / alpha)
        arctanh_form = math.atanh((1.0 - alpha) / (1.0 + alpha))
        worst = max(worst, abs(param.xi - arctanh_form))
    checks.append(_check("squeeze parameter round trip and dual expression", worst, 1e-13))

    worst = 0.0
    for k in (1, 2):
        previous = -1.0
        for n_max in (5, 10, 20, 40, 60):
            value = basis.coefficient_norm_partial(k, 0.4, 0.8 - 0.3j, -0.5 + 0.2j, n_max)
            worst = max(worst, max(0.0, previous - value))
            previous = value
    checks.append(_check("coefficient norm partial sums nondecreasing", worst, 1e-12))
    return checks


def _norm_integral(k: int, alpha: float, geom: states.OscillatorGeometry, labels) -> float:
    # trapezoid-rule L2 norm over 10 spreads on a 401^2 grid, spectrally
    # accurate for the decaying Gaussians; the tests share this oracle
    shifts = states.shift_params(k, alpha, geom, labels)
    spread1 = math.sqrt(max(alpha, (1.0 + alpha**2) / (4.0 * alpha))) / geom.a
    spread2 = math.sqrt(max(alpha, (1.0 + alpha**2) / (4.0 * alpha))) / geom.b
    x1 = shifts.y1 + np.linspace(-10.0 * spread1, 10.0 * spread1, 401)
    x2 = shifts.y2 + np.linspace(-10.0 * spread2, 10.0 * spread2, 401)
    values = states.wave_function(k, x1[:, None], x2[None, :], geom, labels, alpha)
    density = np.abs(values) ** 2
    return float(np.trapezoid(np.trapezoid(density, x2, axis=1), x1))


def _mp_wave_function(x1: float, x2: float, geom, labels, alpha: float) -> complex:
    # the raw mode-2 closed form at one point of float inputs, in 50 digits,
    # where its 1/alpha terms cancel without loss
    import mpmath as mp

    with mp.workdps(50):
        a, b, al, x1, x2 = (mp.mpf(float(v)) for v in (geom.a, geom.b, alpha, x1, x2))
        (z1r, z1i), (z2r, z2i) = ((mp.mpf(z.real), mp.mpf(z.imag)) for z in (labels.z1, labels.z2))
        root = mp.sqrt(2 * al)
        xi1 = x1 - ((al + 1) * z1r + (al - 1) * z2r) / (a * root)
        xi2 = x2 - ((al - 1) * z1r + (al + 1) * z2r) / (b * root)
        exponent = (
            -(1 + al * al) / (4 * al) * (a * a * xi1**2 + b * b * xi2**2)
            - (1 - al * al) / (2 * al) * a * b * xi1 * xi2
            + 1j * a * x1 * ((1 + al) * z1i + (1 - al) * z2i) / root
            + 1j * b * x2 * ((1 + al) * z2i + (1 - al) * z1i) / root
            - 1j * (z1r * z1i + z2r * z2i)
        )
        return complex(mp.sqrt(a * b / mp.pi) * mp.exp(exponent))


def states_suite() -> list[CheckResult]:
    checks: list[CheckResult] = []
    label_grid = [
        states.DisplacementLabels(),
        states.DisplacementLabels(0.4 + 0.3j, -0.2 + 0.5j),
        states.DisplacementLabels(-0.6 + 0.1j, 0.3 - 0.4j),
    ]
    worst = 0.0
    for k in (1, 2):
        for alpha in (0.2, 0.5, 0.8):
            for (a, b) in [(1.0, 1.0), (1.0, 2.0)]:
                geom = states.OscillatorGeometry(a=a, b=b)
                for labels in label_grid:
                    worst = max(worst, abs(_norm_integral(k, alpha, geom, labels) - 1.0))
    checks.append(_check("wave-function normalization", worst, 1e-9))

    geom = states.OscillatorGeometry(a=1.0, b=1.4)
    labels = states.DisplacementLabels(0.5 - 0.3j, -0.4 + 0.6j)
    xs = np.linspace(-2.5, 2.5, 9)
    worst = 0.0
    for k in (1, 2):
        for alpha in (0.3, 0.7):
            params = states.shift_params(k, alpha, geom, labels)
            centered = states.unshifted_gaussian(k, alpha, geom)
            rebuilt = states.heisenberg_weyl_shift(
                params, centered.evaluate, xs[:, None], xs[None, :], geom.hbar
            )
            direct = states.wave_function(k, xs[:, None], xs[None, :], geom, labels, alpha)
            worst = max(worst, float(np.abs(rebuilt - direct).max()))
    checks.append(_check("translation-operator reconstruction", worst, 1e-12))

    worst_final = 0.0
    monotone_violation = 0.0
    grid = np.linspace(-3.0, 3.0, 21)
    labels = states.DisplacementLabels(0.2 + 0.1j, -0.1 + 0.15j)
    for k in (1, 2):
        gaps = []
        for n_max in (20, 30, 40, 50):
            approx = states.series_expansion(k, n_max, grid[:, None], grid[None, :], geom, labels, 0.5)
            exact = states.wave_function(k, grid[:, None], grid[None, :], geom, labels, 0.5)
            gaps.append(float(np.abs(approx - exact).max()))
        worst_final = max(worst_final, gaps[-1])
        monotone_violation = max(
            monotone_violation, max(after - before for before, after in zip(gaps, gaps[1:]))
        )
    checks.append(_check("series expansion sup-norm at order 50", worst_final, 1e-7))
    checks.append(_check("series expansion sup-norm monotone decrease", monotone_violation, 0.0))

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
    checks.append(
        _check(
            "jointly squeezed state carries the predicted cross curvature",
            abs(cross_curvature(2) - expected),
            1e-9,
        )
    )
    return checks


def phase_space_suite() -> list[CheckResult]:
    checks: list[CheckResult] = []
    geoms = [states.OscillatorGeometry(1.0, 1.0), states.OscillatorGeometry(1.0, 2.0)]
    alphas = np.arange(0.05, 1.0, 0.05)

    def dual_path_gap(geometries, alpha_values) -> float:
        gap = 0.0
        for geometry in geometries:
            for alpha in alpha_values:
                for k in (1, 2):
                    direct = phase_space.covariance(k, float(alpha), geometry)
                    built, _ = phase_space.wigner_gaussian(
                        states.unshifted_gaussian(k, float(alpha), geometry), geometry.hbar
                    )
                    scale = abs(direct.sigma).max()
                    gap = max(gap, float(np.abs(direct.sigma - built.sigma).max()) / scale)
        return gap

    checks.append(
        _check(
            "covariance matrix dual-path agreement",
            dual_path_gap(geoms, [a for a in alphas if a >= 0.2]),
            1e-14,
        )
    )
    checks.append(
        _check(
            "covariance dual-path agreement, strong squeezing",
            dual_path_gap(geoms + [states.OscillatorGeometry(0.8, 1.7, hbar=0.5)], alphas),
            1e-13,
        )
    )

    worst = 0.0
    geom = geoms[0]
    for alpha in alphas:
        cov = phase_space.covariance(2, float(alpha), geom)
        spectrum = phase_space.symplectic_spectrum(phase_space.partial_transpose(cov))
        expected = sorted((0.5 * geom.hbar * alpha, 0.5 * geom.hbar / alpha))
        worst = max(
            worst,
            max(abs(v - e) / e for v, e in zip(spectrum.values, expected)),
        )
    checks.append(_check("partial-transpose symplectic spectrum closed form", worst, 1e-12))

    worst = 0.0
    for alpha in alphas:
        for k in (1, 2):
            spectrum = phase_space.symplectic_spectrum(phase_space.covariance(k, float(alpha), geom))
            worst = max(
                worst, max(abs(v - 0.5 * geom.hbar) / (0.5 * geom.hbar) for v in spectrum.values)
            )
    checks.append(_check("pure-state symplectic spectrum is hbar/2 twice", worst, 1e-12))

    verdict_bad = 0.0
    for alpha in list(alphas) + [1.0 - 1e-6]:
        sep = phase_space.ppt_separable(phase_space.covariance(1, float(alpha), geom))
        ent = phase_space.ppt_separable(phase_space.covariance(2, float(alpha), geom))
        if not sep.separable or ent.separable:
            verdict_bad = 1.0
    near_one = phase_space.ppt_separable(phase_space.covariance(2, 1.0 - 1e-12, geom))
    if not near_one.separable:
        verdict_bad = 1.0
    checks.append(_check("separability verdicts across the parameter range", verdict_bad, 0.0))

    worst = 0.0
    for alpha in (0.1, 0.5, 0.9):
        for k in (1, 2):
            margin = phase_space.robertson_schrodinger_check(
                phase_space.covariance(k, alpha, geom)
            ).margin
            worst = max(worst, max(0.0, -margin))
    checks.append(_check("uncertainty-relation positivity of physical states", worst, 1e-12))

    gaussian = states.unshifted_gaussian(2, 0.5, geom)
    _, closed = phase_space.wigner_gaussian(gaussian, geom.hbar)
    worst = 0.0
    stencil = [0.0, 0.35, -0.35]
    points = [(x, 0.1, p, -0.2) for x in stencil for p in stencil]
    for (x1, x2, p1, p2) in points[:9]:
        numeric = phase_space.wigner_numeric(
            gaussian.evaluate,
            phase_space.PhaseSpacePoint(x1, x2, p1, p2),
            geom.hbar,
            m_matrix=gaussian.matrix,
        )
        worst = max(worst, abs(numeric - float(closed(x1, x2, p1, p2))))
    checks.append(_check("chord-quadrature Wigner vs closed form", worst, 1e-6))

    labels = states.DisplacementLabels(0.4 + 0.2j, -0.3 + 0.5j)
    shift = states.shift_params(2, 0.5, geom, labels)

    def shifted(x1, x2):
        return states.wave_function(2, x1, x2, geom, labels, 0.5)

    worst = 0.0
    for (x1, x2, p1, p2) in [(0, 0, 0, 0), (0.5, 0.1, -0.3, 0.2), (1.0, -0.4, 0.2, 0.3),
                             (-0.6, 0.8, 0.1, -0.5), (0.2, 0.2, 0.6, 0.6)]:
        numeric = phase_space.wigner_numeric(
            shifted, phase_space.PhaseSpacePoint(x1, x2, p1, p2), geom.hbar, m_matrix=gaussian.matrix
        )
        reference = float(closed(x1 - shift.y1, x2 - shift.y2, p1 - shift.q1, p2 - shift.q2))
        worst = max(worst, abs(numeric - reference))
    checks.append(_check("Wigner translation covariance at sampled points", worst, 1e-6))
    return checks


def model_suite() -> list[CheckResult]:
    checks: list[CheckResult] = []
    worst = 0.0
    for alpha in np.linspace(0.01, 1.0, 34):
        identity = ((1.0 + alpha) ** 2 - (1.0 - alpha) ** 2) / (4.0 * alpha)
        worst = max(worst, abs(identity - 1.0))
    checks.append(_check("Bogoliubov normalization identity", worst, 1e-15))

    spec = model.OscillatorSpec(omega1=1.0, omega2=1.8)
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75):
        for z in (0.0 + 0.0j, 0.3 + 0.1j):
            ladder = model.hamiltonian_fock(alpha, spec, z, -z / 2, 14, method="ladder")
            expanded = model.hamiltonian_fock(alpha, spec, z, -z / 2, 14, method="expanded")
            worst = max(worst, ladder.interior_gap(expanded))
    checks.append(_check("ladder-product vs expanded Hamiltonian paths", worst, 1e-10))

    limit = model.hamiltonian_quadratic(1.0, spec, 0.2 + 0.1j, -0.3 + 0.4j)
    deviations = []
    for alpha in (1.0 - 1e-3, 1.0 - 1e-5, 1.0 - 1e-7):
        ham = model.hamiltonian_quadratic(alpha, spec, 0.2 + 0.1j, -0.3 + 0.4j)
        deviations.append(
            float(np.abs(ham.q - limit.q).max() + np.abs(ham.linear - limit.linear).max())
        )
    monotone = max(after - before for before, after in zip(deviations[1:], deviations[:-1]))
    checks.append(_check("no-squeezing limit continuity (residual at 1e-7)", deviations[-1], 1e-5))
    checks.append(_check("no-squeezing limit monotone approach", max(0.0, -monotone), 0.0))

    worst = 0.0
    # [X (x) 1 + 1 (x) Y, X' (x) 1 + 1 (x) Y'] = [X, X'] (x) 1 + 1 (x) [Y, Y'] in band form
    identity, zero = model._kron_operator([(np.eye(14), np.eye(14))]), model.TruncatedOperator({}, 14)
    for alpha in (0.25, 0.6):
        c1, c1_dag, c2, c2_dag = model._ladder_terms(alpha, 0.3 + 0.1j, -0.2j, 14)
        for ((x, eye), (_, y)), ((x_other, _), (_, y_other)), expected in [
            (c1, c1_dag, identity), (c2, c2_dag, identity), (c1, c2, zero), (c1, c2_dag, zero)
        ]:
            terms = [(x @ x_other - x_other @ x, eye), (eye, y @ y_other - y_other @ y)]
            worst = max(worst, model._kron_operator(terms).interior_gap(expected))
    checks.append(_check("canonical commutators on the interior block", worst, 1e-12))

    geom = states.OscillatorGeometry(1.0, 1.2)
    spec_g = model.OscillatorSpec.from_geometry(geom)
    energy_errs, refinements, defects = [], [], []
    for alpha in (0.05, 0.5):
        coarse, fine = (
            model.ground_state_energy_check(alpha, spec_g, geom, 0.3 + 0.1j, -0.2 + 0.4j, grid_points=n)
            for n in (81, 161)
        )
        energy_errs.append(abs(fine.energy - fine.expected))
        refinements.append(fine.residual / coarse.residual)
        defects += [coarse.factorization_defect, fine.factorization_defect]
    # np.max rather than max(): a NaN must reach the check
    checks.append(_check("ground-state energy expectation", float(np.max(energy_errs)), 1e-6))
    checks.append(
        _check("eigen-residual shrinks under grid refinement", float(np.max(refinements)), 0.1)
    )
    checks.append(_check("ground state factorizes on the principal axes", float(np.max(defects)), 1e-12))

    coupling_missing = 0.0
    for alpha in (0.25, 0.5):
        ham = model.hamiltonian_quadratic(alpha, spec, 0, 0)
        if ham.q[0, 1] == 0.0 or ham.q[2, 3] == 0.0:
            coupling_missing = 1.0
    ham_one = model.hamiltonian_quadratic(1.0, spec, 0, 0)
    coupling_missing = max(
        coupling_missing, abs(ham_one.q[0, 1]), abs(ham_one.q[2, 3])
    )
    checks.append(_check("couplings present iff squeezing is present", coupling_missing, 0.0))
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
