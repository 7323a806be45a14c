"""One scalar contract for every public function that takes a real or complex scalar.

The parameters named in ``SCALAR_PARAMETERS`` take a Python or NumPy number
of their kind and nothing else: ``bool``, ``np.bool_``, strings, ``None``,
``Decimal``, arrays, NaN and +-inf raise a ``ValueError`` that names the
parameter, and so do complex values where a real is expected and, where it
must be positive, -1 and 0.  An ``int``, ``np.float32``, ``np.float64`` or
``Fraction`` gives exactly the result of the equal ``float``.  ``alpha``
has a domain of its own, tested in test_alpha_domain.py; arguments that
may be arrays are exempted by name in ``ARRAYS``.
"""

import inspect
import math
from decimal import Decimal
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
import pytest
from test_index_domain import _same

import cvsqueeze
from cvsqueeze import basis, hermite, model, phase_space, states

GEOM = states.OscillatorGeometry(a=1.0, b=1.3)
LABELS = states.DisplacementLabels(0.1 + 0.2j, -0.3j)
SPEC = model.OscillatorSpec.from_geometry(GEOM)
GAUSSIAN = states.unshifted_gaussian(2, 0.5, GEOM)
SHIFT = states.shift_params(2, 0.5, GEOM, LABELS)

SCALAR_PARAMETERS = {
    "xi", "s", "t", "u", "v", "z", "z1", "z2", "w1", "w2", "x", "x1", "x2", "p1", "p2",
    "a", "b", "hbar", "inverse_length", "omega1", "omega2", "mass", "constant", "curvatures",
    "y1", "y2", "q1", "q2",
}
# positions and evaluator arguments, which broadcast as arrays
ARRAYS = {
    "basis_function_sequence": {"z"},
    "basis_function_2v_table": {"z1", "z2"},
    "hermite_holo_sequence": {"z"},
    "hermite_function_sequence": {"x"},
    "wave_function": {"x1", "x2"},
    "series_expansion": {"x1", "x2"},
    "heisenberg_weyl_shift": {"x1", "x2"},
    "segal_bargmann_kernel": {"x1", "x2", "w1", "w2"},
    "inverse_segal_bargmann": {"x1", "x2"},
}
# records whose fields the library fills from checked arguments
RECORDS = {"SqueezeParam"}


class Scalar(NamedTuple):
    call: Callable
    valid: float = 1.0
    kind: str = "real"


def real(call, valid=1.0):
    return Scalar(call, valid, "real")


def positive(call):
    return Scalar(call, 2.0, "positive")


def complex_(call):
    return Scalar(call, 1.0, "complex")


def _wigner_gaussian(hbar):
    # the covariance and one value of the evaluator, which _same can compare
    cov, evaluator = phase_space.wigner_gaussian(GAUSSIAN, hbar)
    return cov, evaluator(0.1, 0.2, 0.3, 0.4)


def _labels(call):
    # z1 and z2 entries of a call taking the two labels
    return {
        "z1": complex_(lambda z: call(z, -0.3j)),
        "z2": complex_(lambda z: call(0.1 + 0.2j, z)),
    }


ENTRIES = {
    "alpha_from_squeeze": {"xi": real(basis.alpha_from_squeeze)},
    "coefficient_table": _labels(lambda z1, z2: basis.coefficient_table(1, 0.5, z1, z2, 2)),
    "coefficient_norm_partial": _labels(lambda z1, z2: basis.coefficient_norm_partial(2, 0.5, z1, z2, 2)),
    "hermite_complex_2v_table": _labels(lambda z1, z2: hermite.hermite_complex_2v_table(2, 1, z1, z2)),
    "mehler_product": {
        "t": real(lambda t: hermite.mehler_product(t, 0.2, 0.1j, 8), 0.5),
        **_labels(lambda z1, z2: hermite.mehler_product(0.3, z1, z2, 8)),
    },
    "mehler_two_variable": {
        "s": real(lambda s: hermite.mehler_two_variable(s, 0.25, 0.1j, 0.2, 0.4, -0.1, 8), 0.5),
        "t": real(lambda t: hermite.mehler_two_variable(0.5, t, 0.1j, 0.2, 0.4, -0.1, 8), 0.25),
        "u": real(lambda u: hermite.mehler_two_variable(0.5, 0.25, 0.1j, 0.2, u, -0.1, 8)),
        "v": real(lambda v: hermite.mehler_two_variable(0.5, 0.25, 0.1j, 0.2, 0.4, v, 8), -1.0),
        **_labels(lambda z1, z2: hermite.mehler_two_variable(0.5, 0.25, z1, z2, 0.4, -0.1, 8)),
    },
    "OscillatorSpec": {
        "omega1": positive(lambda w: model.OscillatorSpec(w, 1.5)),
        "omega2": positive(lambda w: model.OscillatorSpec(1.5, w)),
        "mass": positive(lambda m: model.OscillatorSpec(1.5, 0.5, mass=m)),
        "hbar": positive(lambda h: model.OscillatorSpec(1.5, 0.5, hbar=h)),
    },
    "QuadraticHamiltonian": {"constant": real(lambda c: model.QuadraticHamiltonian(np.eye(4), np.ones(4), c))},
    "transformed_ladder_matrices": _labels(lambda z1, z2: model.transformed_ladder_matrices(0.5, z1, z2, 4)),
    "hamiltonian_fock": _labels(lambda z1, z2: model.hamiltonian_fock(0.5, SPEC, z1, z2, 8)),
    "hamiltonian_quadratic": _labels(lambda z1, z2: model.hamiltonian_quadratic(0.5, SPEC, z1, z2)),
    "ground_state_energy_check": _labels(
        lambda z1, z2: model.ground_state_energy_check(0.5, SPEC, z1, z2, grid_points=32)
    ),
    "CovarianceMatrix": {"hbar": positive(lambda h: phase_space.CovarianceMatrix(np.eye(4), h))},
    "PhaseSpacePoint": {
        name: real(lambda x, name=name: phase_space.PhaseSpacePoint(**{name: x})) for name in ("x1", "x2", "p1", "p2")
    },
    "wigner_gaussian": {"hbar": positive(_wigner_gaussian)},
    "wigner_numeric": {
        "hbar": positive(
            lambda h: phase_space.wigner_numeric(
                GAUSSIAN.evaluate, phase_space.PhaseSpacePoint(0.1, 0.2, 0.3, 0.4), h, m_matrix=GAUSSIAN.matrix
            )
        ),
    },
    "OscillatorGeometry": {
        "a": positive(lambda a: states.OscillatorGeometry(a, 1.5)),
        "b": positive(lambda b: states.OscillatorGeometry(1.5, b)),
        "hbar": positive(lambda h: states.OscillatorGeometry(1.5, 0.5, h)),
    },
    "DisplacementLabels": _labels(states.DisplacementLabels),
    "ShiftParams": {
        name: real(lambda x, name=name: states.ShiftParams(**{"y1": 0.1, "y2": 0.2, "q1": 0.3, "q2": 0.4, name: x}))
        for name in ("y1", "y2", "q1", "q2")
    },
    "QuadraticGaussian": {"curvatures": positive(lambda c: states.QuadraticGaussian(GAUSSIAN.frame, (c, 1.5)))},
    "hermite_function_sequence": {"inverse_length": positive(lambda a: states.hermite_function_sequence(3, 0.4, a))},
    "heisenberg_weyl_shift": {
        "hbar": positive(lambda h: states.heisenberg_weyl_shift(SHIFT, GAUSSIAN.evaluate, 0.1, 0.2, h)),
    },
}

CASES = [(name, parameter) for name, parameters in ENTRIES.items() for parameter in parameters]

REJECTED = [True, np.True_, "0.5", None, Decimal("0.5"), np.array([0.5, 0.5]), math.nan, math.inf, -math.inf]
REJECTED_BY_KIND = {
    "real": [1j],
    "positive": [1j, -1.0, 0.0],
    "complex": [complex(0.5, math.nan), complex(0.0, -math.inf)],
}
REJECTIONS = [
    pytest.param(name, parameter, value, id=f"{name}-{parameter}-{value!r}")
    for name, parameter in CASES
    for value in REJECTED + REJECTED_BY_KIND[ENTRIES[name][parameter].kind]
]


def test_every_scalar_parameter_has_an_entry():
    for name in cvsqueeze.__all__:
        export = getattr(cvsqueeze, name)
        if isinstance(export, type) and issubclass(export, Exception):
            continue
        parameters = SCALAR_PARAMETERS.intersection(inspect.signature(export).parameters) - ARRAYS.get(name, set())
        if parameters and name not in RECORDS:
            assert set(ENTRIES.get(name, {})) == parameters, name
    assert set(ENTRIES) | set(ARRAYS) | RECORDS <= set(cvsqueeze.__all__)


@pytest.mark.parametrize("name, parameter, value", REJECTIONS)
def test_non_number_raises_naming_the_parameter(name, parameter, value):
    with pytest.raises(ValueError, match=rf"^{parameter} must be "):
        ENTRIES[name][parameter].call(value)


@pytest.mark.parametrize("name, parameter", CASES)
def test_numbers_give_the_float_result(name, parameter):
    entry = ENTRIES[name][parameter]
    expected = entry.call(entry.valid)
    kinds = [np.float64, np.float32, Fraction] + ([int] if entry.valid.is_integer() else [])
    if entry.kind == "complex":
        kinds += [complex, np.complex128, np.complex64]
    for kind in kinds:
        assert _same(entry.call(kind(entry.valid)), expected), kind


@pytest.mark.parametrize(
    "call, message",
    [
        # each returned a number or stored the argument unchecked before the
        # scalar contract
        (lambda: basis.squeeze_from_alpha(True), "alpha must lie in"),
        (lambda: states.OscillatorGeometry(True, 1.0), "a must be"),
        (lambda: model.OscillatorSpec(True, 1.0), "omega1 must be"),
        (lambda: phase_space.CovarianceMatrix(np.eye(4), True), "hbar must be"),
        (lambda: basis.alpha_from_squeeze("1"), "xi must be"),
        (lambda: hermite.mehler_product("0.5", 1, 1), "t must be"),
        (
            lambda: phase_space.wigner_numeric(
                GAUSSIAN.evaluate, phase_space.PhaseSpacePoint(math.nan, 0, 0, 0), m_matrix=GAUSSIAN.matrix
            ),
            "x1 must be",
        ),
        (lambda: states.heisenberg_weyl_shift(states.ShiftParams(math.nan, 0, 0, 0), GAUSSIAN, 0.1, 0), "y1 must be"),
        (lambda: states.ShiftParams(0.0, "x", None, 0.0), "y2 must be"),
        # and these failed without naming the argument
        (lambda: states.OscillatorGeometry("1", 1.0), "a must be"),
        (lambda: states.OscillatorGeometry(np.array([1.0, 2.0]), 1.0), "a must be"),
        (lambda: states.OscillatorGeometry(Decimal(1), 1.0), "a must be"),
    ],
)
def test_formerly_accepted_values_raise(call, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


# each takes a cast of a real array argument: the identity, or one of NOT_REAL
REAL_ARRAYS = {
    "CovarianceMatrix": ("sigma", lambda cast: phase_space.CovarianceMatrix(cast(np.eye(4)))),
    "QuadraticHamiltonian-q": ("q", lambda cast: model.QuadraticHamiltonian(cast(np.eye(4)), np.ones(4), 0.0)),
    "QuadraticHamiltonian-linear": (
        "linear", lambda cast: model.QuadraticHamiltonian(np.eye(4), cast(np.ones(4)), 0.0)
    ),
    "QuadraticHamiltonian.value": (
        "p1", lambda cast: model.QuadraticHamiltonian(np.eye(4), np.ones(4), 0.0).value(0.1, 0.2, cast(0.3), 0.4)
    ),
    "QuadraticGaussian": ("frame", lambda cast: states.QuadraticGaussian(cast(GAUSSIAN.frame), (1.0, 1.5))),
    "hermite_function_sequence": ("x", lambda cast: states.hermite_function_sequence(3, cast([0.1, 0.2]), 1.0)),
    "wave_function": ("x1", lambda cast: states.wave_function(2, cast([0.1, 0.2]), 0.1, GEOM, LABELS, 0.5)),
    "wigner_numeric": (
        "m_matrix",
        lambda cast: phase_space.wigner_numeric(
            GAUSSIAN.evaluate, phase_space.PhaseSpacePoint(0.1, 0.2, 0.3, 0.4), m_matrix=cast(GAUSSIAN.matrix)
        ),
    ),
}
NOT_REAL = {
    "complex": lambda x: np.asarray(x) + 3j,
    "complex-zero-imaginary": lambda x: np.asarray(x, dtype=complex),
    "bool": lambda x: np.asarray(x) != 0,
    "str": lambda x: np.asarray(x).astype(str),
    "None": lambda x: np.full(np.shape(x), None),
}


@pytest.mark.parametrize("name", REAL_ARRAYS)
@pytest.mark.parametrize("cast", NOT_REAL)
def test_real_array_rejects_complex_bool_and_text(name, cast):
    # each conversion to float dropped an imaginary part, even a zero one,
    # read True as 1.0 and parsed a string
    parameter, call = REAL_ARRAYS[name]
    call(lambda x: x)
    with pytest.raises(ValueError, match=f"^{parameter} must be real"):
        call(NOT_REAL[cast])


@pytest.mark.parametrize("name", REAL_ARRAYS)
def test_real_array_rejects_ragged_sequence(name):
    # numpy's error for an inhomogeneous shape named no argument
    parameter, call = REAL_ARRAYS[name]
    with pytest.raises(ValueError, match=f"^{parameter} must convert to an array: "):
        call(lambda x: [[0.1], [0.2, 0.3]])


# each takes a cast of a complex array argument: the identity, or one of NOT_COMPLEX
SERIES = states.bargmann_series(2, 0.5, LABELS, 3)
COMPLEX_ARRAYS = {
    "hermite_holo_sequence": ("z", lambda cast: hermite.hermite_holo_sequence(3, cast([1 + 2j, 0.5]))),
    "basis_function_sequence": ("z", lambda cast: basis.basis_function_sequence(3, 0.5, cast([0.5, 0.1j]))),
    "basis_function_2v_table-z1": ("z1", lambda cast: basis.basis_function_2v_table(2, 2, 0.5, cast(1.0), 0)),
    "basis_function_2v_table-z2": ("z2", lambda cast: basis.basis_function_2v_table(2, 2, 0.5, 0.3j, cast([1, 2j]))),
    "segal_bargmann_kernel-w1": ("w1", lambda cast: states.segal_bargmann_kernel(0, 0, cast(1.0), 0.2, GEOM)),
    "segal_bargmann_kernel-w2": ("w2", lambda cast: states.segal_bargmann_kernel(0, 0, 0.1, cast([0.2, 1j]), GEOM)),
    "BargmannSeries-w1": ("w1", lambda cast: SERIES(cast(1.0), 0.2)),
    "BargmannSeries-w2": ("w2", lambda cast: SERIES(0.1, cast([0.2, 1j]))),
}
NOT_COMPLEX = {
    "bool": lambda z: np.asarray(z) != 0,
    "str": lambda z: np.asarray(z).astype(str),
    "None": lambda z: np.full(np.shape(z), None),
}


@pytest.mark.parametrize("name", COMPLEX_ARRAYS)
@pytest.mark.parametrize("cast", NOT_COMPLEX)
def test_complex_array_rejects_bool_text_and_none(name, cast):
    # the conversion to complex read True as 1 and parsed "1+2j"; None gave
    # NaN, which failed later as "max |z| nan"
    parameter, call = COMPLEX_ARRAYS[name]
    call(lambda z: z)
    with pytest.raises(ValueError, match=f"^{parameter} must be complex, got "):
        call(NOT_COMPLEX[cast])


@pytest.mark.parametrize("name", COMPLEX_ARRAYS)
def test_complex_array_rejects_ragged_sequence(name):
    parameter, call = COMPLEX_ARRAYS[name]
    with pytest.raises(ValueError, match=f"^{parameter} must convert to an array: "):
        call(lambda z: [[0.1], [0.2, 0.3j]])


@pytest.mark.parametrize("name", COMPLEX_ARRAYS)
def test_complex_array_of_python_numbers_gives_the_complex_result(name):
    # an object array of ints, floats and complex values is converted, not rejected
    _, call = COMPLEX_ARRAYS[name]
    assert _same(call(lambda z: np.asarray(z, dtype=object)), call(lambda z: z))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("name", ["w1", "w2"])
@pytest.mark.parametrize(
    "evaluate",
    [
        lambda w1, w2: states.segal_bargmann_kernel(0.0, 0.0, w1, w2, states.OscillatorGeometry(1.0, 1.0)),
        SERIES,
    ],
    ids=["segal_bargmann_kernel", "BargmannSeries"],
)
def test_segal_bargmann_kernel_argument(evaluate, name, value):
    # the positions were checked, the arguments not: a NaN gave nan+nanj, in
    # the kernel and in the series record alike
    arguments = {"w1": 0.0, "w2": 0.0, name: [0.1, complex(0.0, value)]}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        evaluate(**arguments)
    arguments[name] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        evaluate(**arguments)
