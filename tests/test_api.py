"""The package's exported names and the inputs its functions take."""

import inspect

import cvsqueeze
from cvsqueeze import basis, hermite, model, phase_space, quadrature, states

LAYERS = (basis, hermite, model, phase_space, states)


def test_package_exports_every_layer_name():
    expected = {"ConvergenceError"}.union(*(layer.__all__ for layer in LAYERS))
    assert sorted(cvsqueeze.__all__) == sorted(expected)
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(cvsqueeze, name) is getattr(layer, name)


def test_star_import_exports_only_the_listed_names():
    namespace: dict = {}
    exec("from cvsqueeze import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(cvsqueeze.__all__)


def _parameters(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


def test_no_derivable_inputs():
    # the geometry follows from the spec, the spectrum and the negativity
    # from the covariance, the orthogonality rule's exactness from its order
    assert "geom" not in _parameters(model.ground_state_energy_check)
    assert _parameters(phase_space.ppt_separable) == ["cov"]
    assert _parameters(phase_space.log_negativity) == ["cov"]
    assert _parameters(hermite.orthogonality_integral) == ["m", "n", "alpha", "order"]
    # settings that no caller sets are constants: tolerances, the interior's
    # padding and the ground-state box; the chord rule's quadratic form has
    # no default, since the identity is the wrong scale for a squeezed state
    assert _parameters(phase_space.robertson_schrodinger_check) == ["cov"]
    assert _parameters(model.TruncatedOperator.interior_gap) == ["self", "other"]
    assert "box_sigmas" not in _parameters(model.ground_state_energy_check)
    wigner = inspect.signature(phase_space.wigner_numeric).parameters
    assert wigner["m_matrix"].kind is inspect.Parameter.KEYWORD_ONLY
    assert wigner["m_matrix"].default is inspect.Parameter.empty
    assert not {"rtol", "return_complex"} & set(wigner)
    # perfbench binds order and check by name
    assert _parameters(states.inverse_segal_bargmann) == ["psi_b", "x1", "x2", "geom", "order", "check"]
    # perfbench passes basis_gram its order by position
    assert _parameters(basis.basis_gram) == ["alpha", "max_index", "order"]
    assert not hasattr(quadrature, "require_convergence")
