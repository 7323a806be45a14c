"""One integer contract for every public function that takes an index.

Indices, truncations, mode tags and grid sizes (the parameters named in
``INTEGER_PARAMETERS``) accept Python and NumPy integers inside their
documented range and nothing else: ``bool``, ``np.bool_``, floats and values
outside the range raise a ``ValueError`` that names the parameter, and an
``np.int64`` gives exactly the result of the equal ``int``.
"""

import dataclasses
import inspect
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

import cvsqueeze
from cvsqueeze import basis, hermite, model, phase_space, states

GEOM = states.OscillatorGeometry(a=1.0, b=1.3)
LABELS = states.DisplacementLabels(0.1 + 0.2j, -0.3j)
SPEC = model.OscillatorSpec.from_geometry(GEOM)

INTEGER_PARAMETERS = {"n", "m", "k", "n_max", "m_max", "n_terms", "max_index", "n_trunc", "grid_points"}


class Index(NamedTuple):
    call: Callable
    valid: int
    minimum: int = 0
    maximum: int | None = None


MODE = {"minimum": 1, "maximum": 2}

ENTRIES = {
    "basis_function": {"n": Index(lambda n: basis.basis_function(n, 0.5, 0.3), 2)},
    "basis_function_sequence": {"n_max": Index(lambda n: basis.basis_function_sequence(n, 0.5, 0.3j), 2)},
    "basis_function_2v": {
        "m": Index(lambda m: basis.basis_function_2v(m, 1, 0.5, 0.3j, 0.1), 2),
        "n": Index(lambda n: basis.basis_function_2v(1, n, 0.5, 0.3j, 0.1), 2),
    },
    "basis_function_2v_table": {
        "m_max": Index(lambda m: basis.basis_function_2v_table(m, 2, 0.5, 0.3j, 0.1), 1),
        "n_max": Index(lambda n: basis.basis_function_2v_table(1, n, 0.5, 0.3j, 0.1), 2),
    },
    "coefficient": {
        "k": Index(lambda k: basis.coefficient(k, 1, 0, 0.5, 0.3j, 0.1), 2, **MODE),
        "m": Index(lambda m: basis.coefficient(1, m, 0, 0.5, 0.3j, 0.1), 2),
        "n": Index(lambda n: basis.coefficient(2, 0, n, 0.5, 0.3j, 0.1), 2),
    },
    "coefficient_table": {
        "k": Index(lambda k: basis.coefficient_table(k, 0.5, 0.3j, 0.1, 2), 2, **MODE),
        "n_max": Index(lambda n: basis.coefficient_table(2, 0.5, 0.3j, 0.1, n), 2),
    },
    "coefficient_norm_partial": {
        "k": Index(lambda k: basis.coefficient_norm_partial(k, 0.5, 0.3j, 0.1, 2), 2, **MODE),
        "n_max": Index(lambda n: basis.coefficient_norm_partial(2, 0.5, 0.3j, 0.1, n), 2),
    },
    "basis_gram": {
        "max_index": Index(lambda i: basis.basis_gram(0.5, i, 41), 2, maximum=basis._GRAM_MAX_INDEX),
    },
    "hermite_real": {"n": Index(lambda n: hermite.hermite_real(n, 0.5), 3)},
    "hermite_holo": {"n": Index(lambda n: hermite.hermite_holo(n, 0.5j), 3)},
    "hermite_holo_sequence": {"n_max": Index(lambda n: hermite.hermite_holo_sequence(n, 0.5j), 3)},
    "hermite_complex_2v": {
        "m": Index(lambda m: hermite.hermite_complex_2v(m, 0, 0.3j, 0.1), 2),
        "n": Index(lambda n: hermite.hermite_complex_2v(1, n, 0.3j, 0.1), 2),
    },
    "hermite_complex_2v_table": {
        "m_max": Index(lambda m: hermite.hermite_complex_2v_table(m, 2, 0.3j, 0.1), 1),
        "n_max": Index(lambda n: hermite.hermite_complex_2v_table(1, n, 0.3j, 0.1), 2),
    },
    "mehler_product": {"n_terms": Index(lambda n: hermite.mehler_product(0.3, 0.2, 0.1j, n), 5)},
    "mehler_two_variable": {
        "n_terms": Index(lambda n: hermite.mehler_two_variable(0.3, 0.2, 0.1j, 0.2, 0.4, -0.1, n), 5),
    },
    "orthogonality_integral": {
        "m": Index(lambda m: hermite.orthogonality_integral(m, 1, 0.5), 2),
        "n": Index(lambda n: hermite.orthogonality_integral(1, n, 0.5), 2),
    },
    "orthogonality_rhs": {
        "m": Index(lambda m: hermite.orthogonality_rhs(m, 2, 0.5), 2),
        "n": Index(lambda n: hermite.orthogonality_rhs(2, n, 0.5), 2),
    },
    "transformed_ladder_matrices": {
        "n_trunc": Index(lambda n: model.transformed_ladder_matrices(0.5, 0.1, 0.2j, n), 5, minimum=4),
    },
    "hamiltonian_fock": {
        "n_trunc": Index(lambda n: model.hamiltonian_fock(0.5, SPEC, 0.1, 0.2j, n), 9, minimum=8),
    },
    "TruncatedOperator": {"n_trunc": Index(lambda n: model.TruncatedOperator({}, n), 3, minimum=1)},
    "ground_state_energy_check": {
        "grid_points": Index(lambda n: model.ground_state_energy_check(0.5, SPEC, grid_points=n), 33, minimum=32),
    },
    "covariance": {"k": Index(lambda k: phase_space.covariance(k, 0.5, GEOM), 2, **MODE)},
    "gaussian_state": {"k": Index(lambda k: states.gaussian_state(k, 0.5, GEOM, LABELS), 2, **MODE)},
    "wave_function": {"k": Index(lambda k: states.wave_function(k, 0.1, 0.2, GEOM, LABELS, 0.5), 2, **MODE)},
    "shift_params": {"k": Index(lambda k: states.shift_params(k, 0.5, GEOM, LABELS), 2, **MODE)},
    "unshifted_gaussian": {"k": Index(lambda k: states.unshifted_gaussian(k, 0.5, GEOM), 2, **MODE)},
    "series_expansion": {
        "k": Index(lambda k: states.series_expansion(k, 4, 0.1, 0.2, GEOM, LABELS, 0.5), 2, **MODE),
        "n_max": Index(lambda n: states.series_expansion(2, n, 0.1, 0.2, GEOM, LABELS, 0.5), 4),
    },
    "bargmann_series": {
        "k": Index(lambda k: states.bargmann_series(k, 0.5, LABELS, 4), 2, **MODE),
        "n_max": Index(lambda n: states.bargmann_series(2, 0.5, LABELS, n), 4),
    },
    "hermite_function_sequence": {"n_max": Index(lambda n: states.hermite_function_sequence(n, 0.3, 1.3), 3)},
    "fock_position_basis": {
        "m": Index(lambda m: states.fock_position_basis(m, 0, 0.1, 0.2, GEOM), 2),
        "n": Index(lambda n: states.fock_position_basis(1, n, 0.1, 0.2, GEOM), 2),
    },
}
# records whose integer field the library fills from a checked argument
RECORDS = {"GroundStateCheck"}

CASES = [(name, parameter) for name, parameters in ENTRIES.items() for parameter in parameters]


def _same(a, b) -> bool:
    # equal values of the same types all the way down: an np.int64 that
    # leaks into a result, or a result that moves by one ulp, fails
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def test_every_integer_parameter_has_an_entry():
    for name in cvsqueeze.__all__:
        export = getattr(cvsqueeze, name)
        if isinstance(export, type) and issubclass(export, Exception):
            continue
        parameters = INTEGER_PARAMETERS.intersection(inspect.signature(export).parameters)
        if parameters and name not in RECORDS:
            assert set(ENTRIES.get(name, {})) == parameters, name
    assert set(ENTRIES) | RECORDS <= set(cvsqueeze.__all__)


@pytest.mark.parametrize("value", [True, False, np.True_, 2.5, 2.0, "2", None, -1])
@pytest.mark.parametrize("name, parameter", CASES)
def test_non_index_raises_naming_the_parameter(name, parameter, value):
    entry = ENTRIES[name][parameter]
    with pytest.raises(ValueError, match=rf"^{parameter} must be .*, got {re.escape(repr(value))}$"):
        entry.call(value)


@pytest.mark.parametrize("name, parameter", CASES)
def test_range_ends(name, parameter):
    entry = ENTRIES[name][parameter]
    entry.call(entry.minimum)
    with pytest.raises(ValueError, match=rf"^{parameter} must be "):
        entry.call(entry.minimum - 1)
    if entry.maximum is not None:
        entry.call(entry.maximum)
        bounds = rf"\[{entry.minimum}, {entry.maximum}\]"
        with pytest.raises(ValueError, match=rf"^{parameter} must be an integer in {bounds}"):
            entry.call(entry.maximum + 1)


@pytest.mark.parametrize("name, parameter", CASES)
def test_numpy_integer_gives_the_int_result(name, parameter):
    entry = ENTRIES[name][parameter]
    expected = entry.call(entry.valid)
    for kind in (np.int64, np.int32, np.uint8):
        assert _same(entry.call(kind(entry.valid)), expected)


@pytest.mark.parametrize(
    "call, parameter",
    [
        # each returned a number or an array, or failed without naming the
        # argument, before the integer contract
        (lambda: hermite.hermite_real(True, 0.5), "n"),
        (lambda: basis.basis_function(False, 0.5, 0.3), "n"),
        (lambda: hermite.hermite_holo(True, 0.5j), "n"),
        (lambda: basis.basis_function_2v(True, 1, 0.5, 0.3j, 0.1), "m"),
        (lambda: states.fock_position_basis(True, 0, 0.1, 0.2, GEOM), "m"),
        (lambda: hermite.hermite_complex_2v(True, 0, 0.3j, 0.1), "m"),
        (lambda: basis.coefficient(1, True, 0, 0.5, 0.3j, 0.1), "m"),
        (lambda: basis.coefficient(1.0, 1, 0, 0.5, 0.3j, 0.1), "k"),
        (lambda: basis.basis_gram(0.5, 4.0), "max_index"),
        (lambda: model.hamiltonian_fock(0.5, SPEC, 0.1, 0.2j, n_trunc=8.5), "n_trunc"),
        (lambda: model.ground_state_energy_check(0.5, SPEC, grid_points=40.5), "grid_points"),
    ],
)
def test_formerly_accepted_values_raise(call, parameter):
    with pytest.raises(ValueError, match=rf"^{parameter} must be "):
        call()

