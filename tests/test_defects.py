"""Defect register: every measured wrong answer, as a strict expected failure.

Each case states the right-or-raise contract: the result is within the
stated bound of an independent reference, or the call raises ``ValueError``
or ``ConvergenceError``.  Any other exception is an error, not an expected
failure.  A case that starts to pass fails the run (strict xfail), so the
change that mends a defect removes its marker.  The reasons name the
ROADMAP items that mend them; the comments give today's readings.
"""

import math

import numpy as np
import pytest

from cvsqueeze import phase_space, states
from cvsqueeze.cli import main
from cvsqueeze.quadrature import ConvergenceError

GEOM = states.OscillatorGeometry(1.0, 1.3)
LABELS = states.DisplacementLabels(0.4 + 0.3j, -0.2 + 0.5j)


def _defect(reason: str):
    # an assertion is the only expected failure: a crash fails the run
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


def _right_or_raise(compute, reference, peak: float, bound: float) -> None:
    try:
        value = compute()
    except (ValueError, ConvergenceError):
        return
    error = float(np.max(np.abs(value - reference))) / peak
    assert error <= bound, f"off by {error:.3g} of peak"


@_defect("item 1")
@pytest.mark.parametrize("alpha", ["1e-5", "1e-6", "1e-8"])
def test_sweep_at_tiny_alpha(alpha, capsys):
    # exit 2: "expected 2 positive-imaginary eigenvalues, found 1"
    assert main(["sweep", f"--alphas={alpha}"]) == 0


@_defect("item 2")
@pytest.mark.parametrize("alpha", ["1e-6", "1e-8"])
def test_hamiltonian_ground_state_at_tiny_alpha(alpha, capsys):
    # exit 1: energy 1.3000635 at 1e-6 and 1.8832 at 1e-8, against 1.3
    argv = ["hamiltonian", f"--alpha={alpha}", "--z1=0.4+0.3j", "--z2=-0.2+0.5j", "--omega1=0.7", "--omega2=1.9"]
    assert main(argv) == 0


@_defect("item 3")
def test_series_expansion_truncated_silently():
    # off by 0.18 of peak on 81^2 points over [-4, 4]^2 (tail 0.114)
    x = np.linspace(-4.0, 4.0, 81)
    reference = states.wave_function(2, x[:, None], x[None, :], GEOM, LABELS, 0.05)
    _right_or_raise(
        lambda: states.series_expansion(2, 20, x[:, None], x[None, :], GEOM, LABELS, 0.05),
        reference, float(np.max(np.abs(reference))), 1e-8,
    )


@_defect("item 12")
def test_inverse_transform_at_the_default_order():
    # the N 422 table at order 24: off by 1.8e-3 of peak on 13^2 points over [-3, 3]^2
    labels = states.DisplacementLabels(3 + 1j, -2j)
    x = np.linspace(-3.0, 3.0, 13)
    psi_b = states.bargmann_series(2, 0.05, labels, 422)
    reference = states.wave_function(2, x[:, None], x[None, :], GEOM, labels, 0.05)
    _right_or_raise(
        lambda: states.inverse_segal_bargmann(psi_b, x[:, None], x[None, :], GEOM),
        reference, float(np.max(np.abs(reference))), 1e-8,
    )


@_defect("items 6 and 20")
@pytest.mark.parametrize("alpha, p1", [(1e-3, 0.5), (1e-3, 15.8), (1e-4, 50.0)])
def test_wigner_numeric_at_strong_squeezing(alpha, p1):
    # at the default order: -0.17, 0.51 and -0.47 of peak, where the
    # closed form reads 5.2e-56, 0 and 0
    gaussian = states.unshifted_gaussian(2, alpha, states.OscillatorGeometry(1.0, 1.0))
    _, closed = phase_space.wigner_gaussian(gaussian)
    point = phase_space.PhaseSpacePoint(p1=p1)
    _right_or_raise(
        lambda: phase_space.wigner_numeric(gaussian.evaluate, point, m_matrix=gaussian.matrix),
        float(closed(point.x1, point.x2, point.p1, point.p2)), math.pi**-2, 1e-8,
    )


@_defect("item 27")
def test_amplitude_table_norm_at_large_labels():
    # the two-index recurrence loses every digit: ||A||^2 reads 1.8e6
    try:
        amplitudes = states.bargmann_series(2, 0.05, states.DisplacementLabels(5, 5), 570).amplitudes
    except (ValueError, ConvergenceError):
        return
    norm_sq = float(np.sum(np.abs(amplitudes) ** 2))
    assert norm_sq <= 1.0 + 1e-12, f"||A||^2 = {norm_sq:.3g}"
