"""Acceptance criteria for the whole artifact.

Each test exercises one criterion at its stated tolerance, prints a
PASS/FAIL line with the measured residual and runtime, and fails hard if
either the tolerance or the runtime budget is exceeded.  Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import math
import time

import numpy as np
from fock_dense import dense, interior

from cvsqueeze import hermite, model, phase_space, states, verify

ALPHA_GRID = [round(0.05 * i, 2) for i in range(1, 20)]
GEOM = states.OscillatorGeometry(a=1.0, b=1.0, hbar=1.0)


class Criterion:
    """Collects a residual, prints one line, enforces tolerance and budget."""

    def __init__(self, number: int, label: str, budget_seconds: float):
        self.number = number
        self.label = label
        self.budget = budget_seconds
        self.started = time.perf_counter()
        self.worst = 0.0

    def update(self, residual: float) -> None:
        self.worst = max(self.worst, float(residual))

    def conclude(self, tolerance: float) -> None:
        elapsed = time.perf_counter() - self.started
        ok = self.worst <= tolerance and elapsed < self.budget
        status = "PASS" if ok else "FAIL"
        print(
            f"[{status}] criterion {self.number}: {self.label} — "
            f"residual {self.worst:.3e} (tolerance {tolerance:.1e}), "
            f"{elapsed:.2f}s (budget {self.budget:.0f}s)"
        )
        assert self.worst <= tolerance, f"criterion {self.number} residual {self.worst}"
        assert elapsed < self.budget, f"criterion {self.number} runtime {elapsed:.1f}s"


def test_criterion_1_symplectic_spectra():
    crit = Criterion(1, "symplectic spectra of both transposed covariance families", 1.0)
    for alpha in ALPHA_GRID:
        transposed_1 = phase_space.partial_transpose(phase_space.covariance(1, alpha, GEOM))
        spectrum_1 = phase_space.symplectic_spectrum(transposed_1)
        for value in spectrum_1.values:
            crit.update(abs(value - 0.5) / 0.5)
        transposed_2 = phase_space.partial_transpose(phase_space.covariance(2, alpha, GEOM))
        spectrum_2 = phase_space.symplectic_spectrum(transposed_2)
        crit.update(abs(spectrum_2.values[0] - 0.5 * alpha) / (0.5 * alpha))
        crit.update(abs(spectrum_2.values[1] - 0.5 / alpha) / (0.5 / alpha))
    crit.conclude(1e-12)


def test_criterion_2_ppt_verdicts():
    crit = Criterion(2, "separability verdicts and boundary behaviour", 1.0)
    for alpha in ALPHA_GRID + [0.999]:
        separable = phase_space.ppt_separable(phase_space.covariance(1, alpha, GEOM))
        entangled = phase_space.ppt_separable(phase_space.covariance(2, alpha, GEOM))
        crit.update(0.0 if separable.separable else 1.0)
        crit.update(0.0 if not entangled.separable else 1.0)
    # the minimal eigenvalue closes on hbar/2 as the squeezing vanishes
    gaps = [
        0.5 - phase_space.ppt_separable(phase_space.covariance(2, a, GEOM)).lambda_min
        for a in (0.99, 0.999, 0.9999)
    ]
    crit.update(0.0 if gaps[0] > gaps[1] > gaps[2] > 0 else 1.0)
    crit.update(gaps[-1] / 0.5 > 1e-3)
    crit.conclude(0.0)


def test_criterion_3_log_negativity():
    crit = Criterion(3, "log-negativity closed form and monotonicity", 1.0)
    values = []
    for alpha in ALPHA_GRID:
        numeric = phase_space.log_negativity(phase_space.covariance(2, alpha, GEOM))
        closed = max(-math.log(alpha), 0.0)
        crit.update(abs(numeric - closed) / closed)
        values.append(numeric)
    crit.update(0.0 if all(b < a for a, b in zip(values, values[1:])) else 1.0)
    crit.conclude(1e-12)


def test_criterion_4_orthogonality_constant():
    crit = Criterion(4, "weighted orthogonality of the holomorphic family", 30.0)
    for alpha in (0.3, 0.5, 0.7):
        for m in range(11):
            for n in range(m, 11):
                value = hermite.orthogonality_integral(m, n, alpha, order=80)
                if m == n:
                    expected = hermite.orthogonality_rhs(n, n, alpha)
                    crit.update(abs(value - expected) / expected)
                else:
                    scale = hermite.orthogonality_rhs(max(m, n), max(m, n), alpha)
                    crit.update(abs(value) / scale)
    crit.conclude(1e-8)


def test_criterion_5_mehler_identities():
    crit = Criterion(5, "generating-function identities against closed forms", 5.0)
    series, closed = hermite.mehler_product(0.5, 1.0, 1.0, 60)
    crit.update(abs(series - closed))
    for t in (-0.6, 0.3, 0.6):
        series, closed = hermite.mehler_product(t, 0.4 + 0.7j, -0.9 + 0.2j, 60)
        crit.update(abs(series - closed))
    series, closed = hermite.mehler_two_variable(0.4, 0.4, 0.3 + 0.1j, -0.2 + 0.5j, 0.7, -1.1, 50)
    crit.update(abs(series - closed))
    series, closed = hermite.mehler_two_variable(-0.5, 0.7, 0.2 - 0.3j, 0.1 + 0.2j, -0.4, 0.8, 60)
    crit.update(abs(series - closed))
    crit.conclude(1e-9)


def test_criterion_6_wave_function_consistency():
    crit = Criterion(6, "series, normalization, and shift consistency of the states", 60.0)
    geom = states.OscillatorGeometry(a=1.0, b=1.3)
    labels = states.DisplacementLabels(0.2 + 0.1j, -0.1 + 0.15j)
    grid = np.linspace(-3.0, 3.0, 21)
    tolerances = []
    for k in (1, 2):
        series = states.series_expansion(k, 50, grid[:, None], grid[None, :], geom, labels, 0.5)
        closed = states.wave_function(k, grid[:, None], grid[None, :], geom, labels, 0.5)
        tolerances.append(("series sup-norm", float(np.abs(series - closed).max()), 1e-7))

    norms = np.array([
        verify._norm_integral(k, alpha, states.OscillatorGeometry(a=a, b=b), labels)
        for k in (1, 2)
        for alpha in (0.2, 0.5, 0.8)
        for (a, b) in [(1.0, 1.0), (1.0, 2.0)]
    ])
    tolerances.append(("normalization", float(np.max(np.abs(norms[:, 0] - 1.0))), 1e-9))
    tolerances.append(
        ("normalization grid-halving delta", float(np.max(np.abs(norms[:, 0] - norms[:, 1]))), 1e-12)
    )

    xs = np.linspace(-2.5, 2.5, 9)
    worst_shift = 0.0
    big_labels = states.DisplacementLabels(0.5 - 0.3j, -0.4 + 0.6j)
    for k in (1, 2):
        for alpha in (0.3, 0.7):
            params = states.shift_params(k, alpha, geom, big_labels)
            centered = states.unshifted_gaussian(k, alpha, geom)
            rebuilt = states.heisenberg_weyl_shift(
                params, centered.evaluate, xs[:, None], xs[None, :], geom.hbar
            )
            direct = states.wave_function(k, xs[:, None], xs[None, :], geom, big_labels, alpha)
            worst_shift = max(worst_shift, float(np.abs(rebuilt - direct).max()))
    tolerances.append(("shift reconstruction", worst_shift, 1e-12))

    for label, residual, tol in tolerances:
        crit.update(residual / tol)
    crit.conclude(1.0)


def test_criterion_7_wigner_cross_validation():
    crit = Criterion(7, "numeric Wigner vs closed form, with translation covariance", 60.0)
    gaussian = states.unshifted_gaussian(2, 0.5, GEOM)
    _, closed = phase_space.wigner_gaussian(gaussian, 1.0)
    offsets = (0.0, 0.4, -0.4)
    for dx in offsets:
        for dp in offsets:
            point = phase_space.PhaseSpacePoint(dx, -dx, dp, dp)
            numeric = phase_space.wigner_numeric(
                gaussian.evaluate, point, 1.0, order=48, m_matrix=gaussian.matrix
            )
            crit.update(abs(numeric - float(closed(point.x1, point.x2, point.p1, point.p2))))

    labels = states.DisplacementLabels(0.4 + 0.2j, -0.3 + 0.5j)
    shift = states.shift_params(2, 0.5, GEOM, labels)

    def shifted(x1, x2):
        return states.wave_function(2, x1, x2, GEOM, labels, 0.5)

    for (x1, x2, p1, p2) in [
        (0.0, 0.0, 0.0, 0.0),
        (0.5, 0.1, -0.3, 0.2),
        (1.0, -0.4, 0.2, 0.3),
        (-0.6, 0.8, 0.1, -0.5),
        (0.2, 0.2, 0.6, 0.6),
    ]:
        numeric = phase_space.wigner_numeric(
            shifted, phase_space.PhaseSpacePoint(x1, x2, p1, p2), 1.0, m_matrix=gaussian.matrix
        )
        reference = float(closed(x1 - shift.y1, x2 - shift.y2, p1 - shift.q1, p2 - shift.q2))
        crit.update(abs(numeric - reference))
    crit.conclude(1e-6)


def test_criterion_8_hamiltonian_reconstruction():
    crit = Criterion(8, "Hamiltonian paths, ground state, and commutators", 120.0)
    geom = states.OscillatorGeometry(a=1.0, b=1.2)
    spec = model.OscillatorSpec.from_geometry(geom)
    ratios = []
    for alpha in (0.25, 0.5, 0.75):
        for z in (0.0 + 0.0j, 0.3 + 0.1j):
            ladder = model.hamiltonian_fock(alpha, spec, z, -0.5 * z, 14, method="ladder")
            expanded = model.hamiltonian_fock(alpha, spec, z, -0.5 * z, 14, method="expanded")
            path_gap = float(np.abs(interior(dense(ladder) - dense(expanded))).max())
            ratios.append(path_gap / 1e-10)

    coarse = model.ground_state_energy_check(0.5, spec, 0.3 + 0.1j, -0.2 + 0.4j, grid_points=81)
    fine = model.ground_state_energy_check(0.5, spec, 0.3 + 0.1j, -0.2 + 0.4j, grid_points=161)
    ratios.append(abs(fine.energy - fine.expected) / 1e-6)
    ratios.append(0.0 if fine.residual < coarse.residual else 1.0)

    c1, c1_dag, c2, c2_dag = map(dense, model.transformed_ladder_matrices(0.5, 0.3 + 0.1j, -0.2j, 16))
    eye = np.eye(14**2)
    commutators = [
        (c1 @ c1_dag - c1_dag @ c1, eye),
        (c2 @ c2_dag - c2_dag @ c2, eye),
        (c1 @ c2 - c2 @ c1, 0.0 * eye),
        (c1 @ c2_dag - c2_dag @ c1, 0.0 * eye),
        (c1_dag @ c2_dag - c2_dag @ c1_dag, 0.0 * eye),
    ]
    for commutator, expected in commutators:
        ratios.append(float(np.abs(interior(commutator) - expected).max()) / 1e-12)

    for ratio in ratios:
        crit.update(ratio)
    crit.conclude(1.0)


def test_criterion_9_no_dataset_reproduction():
    # the source material reports no experimental tables; acceptance is
    # entirely invariant- and oracle-based, which criteria 1-8 cover
    print(
        "[PASS] criterion 9: no dataset reproduction claimed; "
        "acceptance is invariant/oracle-based (criteria 1-8)"
    )
