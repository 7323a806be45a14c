"""One alpha domain for every public entry point that takes alpha.

Each accepts (0, 1) or, where its formulas stay regular at no squeezing,
(0, 1]; NaN, inf and what is not a real number are rejected everywhere.  The CLI's ``--alpha`` and
``--alphas`` take the open interval and report anything else as a usage
error.
"""

import math
from decimal import Decimal

import numpy as np
import pytest

from cvsqueeze import basis, hermite, model, phase_space, states
from cvsqueeze.cli import main

GEOM = states.OscillatorGeometry(a=1.0, b=1.0)
LABELS = states.DisplacementLabels(0.1 + 0.2j, -0.3j)
SPEC = model.OscillatorSpec.from_geometry(GEOM)

OPEN = {
    "basis_function_sequence": lambda a: basis.basis_function_sequence(2, a, 0.3j),
    "basis_function_2v_table": lambda a: basis.basis_function_2v_table(1, 2, a, 0.3j, 0.1),
    "coefficient_table": lambda a: basis.coefficient_table(1, a, 0.3j, 0.1, 2),
    "coefficient_norm_partial": lambda a: basis.coefficient_norm_partial(2, a, 0.3j, 0.1, 2),
    "basis_gram": lambda a: basis.basis_gram(a, max_index=1, order=4),
    "orthogonality_integral": lambda a: hermite.orthogonality_integral(1, 2, a),
    "orthogonality_rhs": lambda a: hermite.orthogonality_rhs(2, 2, a),
    "series_expansion": lambda a: states.series_expansion(2, 4, 0.1, 0.2, GEOM, LABELS, a),
    "bargmann_series": lambda a: states.bargmann_series(2, a, LABELS, 4),
}
CLOSED = {
    "squeeze_from_alpha": basis.squeeze_from_alpha,
    "wave_function": lambda a: states.wave_function(2, 0.1, 0.2, GEOM, LABELS, a),
    "shift_params": lambda a: states.shift_params(2, a, GEOM, LABELS),
    "unshifted_gaussian": lambda a: states.unshifted_gaussian(2, a, GEOM),
    "covariance": lambda a: phase_space.covariance(2, a, GEOM),
    "transformed_ladder_matrices": lambda a: model.transformed_ladder_matrices(a, 0.1, 0.2j, 4),
    "hamiltonian_fock": lambda a: model.hamiltonian_fock(a, SPEC, 0.1, 0.2j, 8),
    "hamiltonian_quadratic": lambda a: model.hamiltonian_quadratic(a, SPEC, 0.1, 0.2j),
    "ground_state_energy_check": lambda a: model.ground_state_energy_check(a, SPEC, grid_points=32),
}
CLI = {
    "wigner --alpha": lambda a: main(["wigner", f"--alpha={a}"]),
    "hamiltonian --alpha": lambda a: main(["hamiltonian", f"--alpha={a}"]),
    "sweep --alphas": lambda a: main(["sweep", f"--alphas=0.5,{a}"]),
}
ENTRY_POINTS = {**OPEN, **CLOSED, **CLI}


@pytest.mark.parametrize("value", [0.0, 1.0, -0.1, 1.5, math.nan, math.inf])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_alpha_domain(name, value, capsys):
    call = ENTRY_POINTS[name]
    if name in CLOSED and value == 1.0:
        call(value)
    elif name in CLI:
        with pytest.raises(SystemExit) as excinfo:
            call(value)
        assert excinfo.value.code == 2
    else:
        with pytest.raises(ValueError, match="alpha must lie"):
            call(value)


@pytest.mark.parametrize("value", [True, np.True_, "0.5", None, Decimal("0.5"), 0.5j, np.array([0.5, 0.5])], ids=repr)
@pytest.mark.parametrize("name", {**OPEN, **CLOSED})
def test_alpha_must_be_a_real_number(name, value):
    # True once passed as 1.0 where alpha = 1 is allowed, "0.5" as 0.5 everywhere
    with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1[)\]], got "):
        ENTRY_POINTS[name](value)
