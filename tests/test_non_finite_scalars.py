"""Non-finite scalar inputs raise a ValueError that names the input.

Each guard is written so that NaN fails it, rather than flowing on into a
silently wrong number (0.0, all-zero quadrature rules, NaN, or alpha outside
(0, 1]).
"""

import math

import pytest

from cvsqueeze import basis, hermite, phase_space, states

NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NON_FINITE, ids=str)
def test_wigner_numeric_hbar(value):
    # a non-finite m_matrix and Gauss-Hermite coefficient are
    # tested next to the other quadrature guards, in test_phase_space.py
    gaussian = states.unshifted_gaussian(2, 0.5, states.OscillatorGeometry(1.0, 1.0))
    with pytest.raises(ValueError, match="hbar must be positive and finite"):
        phase_space.wigner_numeric(
            gaussian.evaluate, phase_space.PhaseSpacePoint(), hbar=value, m_matrix=gaussian.matrix
        )


@pytest.mark.parametrize("value", NON_FINITE, ids=str)
def test_mehler_product(value):
    with pytest.raises(ValueError, match=r"\|t\| must be < 1"):
        hermite.mehler_product(value, 1.0, 1.0)


@pytest.mark.parametrize("value", NON_FINITE, ids=str)
def test_mehler_two_variable(value):
    with pytest.raises(ValueError, match=r"\|s\*t\| must be < 1"):
        hermite.mehler_two_variable(value, 0.5, 0.1, 0.1, 0.0, 0.0)


@pytest.mark.parametrize("value", NON_FINITE, ids=str)
def test_alpha_from_squeeze(value):
    with pytest.raises(ValueError, match="xi must be finite and nonnegative"):
        basis.alpha_from_squeeze(value)


@pytest.mark.parametrize("value", [*NON_FINITE, -1.0, 0.0], ids=str)
def test_heisenberg_weyl_shift_hbar(value):
    # unchecked, a NaN hbar gives nan+nanj
    params = states.shift_params(2, 0.5, states.OscillatorGeometry(1.0, 1.0), states.DisplacementLabels(0.3j))
    with pytest.raises(ValueError, match="hbar must be positive and finite"):
        states.heisenberg_weyl_shift(params, lambda x1, x2: x1 + x2, 0.1, 0.2, hbar=value)


@pytest.mark.parametrize("value", [*NON_FINITE, -1.0, 0.0], ids=str)
def test_hermite_function_sequence(value):
    with pytest.raises(ValueError, match="inverse_length must be positive and finite"):
        states.hermite_function_sequence(2, 0.5, value)


@pytest.mark.parametrize("value", NON_FINITE, ids=str)
@pytest.mark.parametrize("name", ["w1", "w2"])
def test_gaussian_measure_density(name, value):
    # unchecked, a NaN argument gives a NaN density
    arguments = {"w1": 0.0, "w2": 0.0, name: complex(value, 0.0)}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        basis.gaussian_measure_density(**arguments)


@pytest.mark.parametrize("value", NON_FINITE, ids=str)
@pytest.mark.parametrize("name", ["w1", "w2"])
def test_segal_bargmann_kernel_argument(name, value):
    # the positions were checked, the arguments not: a NaN gave nan+nanj
    arguments = {"w1": 0.0, "w2": 0.0, name: [0.1, complex(0.0, value)]}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        states.segal_bargmann_kernel(0.0, 0.0, geom=states.OscillatorGeometry(1.0, 1.0), **arguments)
