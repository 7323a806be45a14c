"""The package's exported names and the inputs its functions take."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cvsqueeze
from cvsqueeze import basis, hermite, model, phase_space, quadrature, states

LAYERS = (basis, hermite, model, phase_space, states)


def test_package_exports_every_layer_name():
    expected = {"ConvergenceError"}.union(*(layer.__all__ for layer in LAYERS))
    assert sorted(cvsqueeze.__all__) == sorted(expected)
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(cvsqueeze, name) is getattr(layer, name)


EXPORTS = {
    "BargmannSeries", "ConvergenceError", "CovarianceMatrix", "DisplacementLabels", "GaussianState",
    "GroundStateCheck", "OscillatorGeometry", "OscillatorSpec", "PPTVerdict", "PhaseSpacePoint",
    "QuadraticGaussian", "QuadraticHamiltonian", "RSCheck", "ShiftParams", "SpectrumPairingError",
    "SqueezeParam", "SymplecticSpectrum", "TruncatedOperator", "alpha_from_squeeze", "bargmann_series",
    "basis_function_2v_table", "basis_function_sequence", "basis_gram", "coefficient_norm_partial",
    "coefficient_table", "covariance", "gaussian_state", "ground_state_energy_check", "hamiltonian_fock",
    "hamiltonian_quadratic", "heisenberg_weyl_shift", "hermite_complex_2v_table", "hermite_function_sequence",
    "hermite_holo_sequence", "inverse_segal_bargmann", "log_negativity", "mehler_product", "mehler_two_variable",
    "orthogonality_integral", "orthogonality_rhs", "partial_transpose", "ppt_separable",
    "robertson_schrodinger_check", "segal_bargmann_kernel", "series_expansion", "shift_params",
    "squeeze_from_alpha", "symplectic_form", "symplectic_spectrum", "transformed_ladder_matrices",
    "unshifted_gaussian", "wave_function", "wigner_gaussian", "wigner_numeric",
}
# one-entry views of a family's table, and a density nothing called: each
# value is one index into the table routine of its layer
DELETED = {
    hermite: ["hermite_real", "hermite_holo", "hermite_complex_2v"],
    basis: ["basis_function", "basis_function_2v", "coefficient", "gaussian_measure_density"],
    states: ["fock_position_basis"],
}


def test_the_exported_names():
    assert len(EXPORTS) == 54
    assert set(cvsqueeze.__all__) == EXPORTS
    assert len(cvsqueeze.__all__) == len(EXPORTS)


@pytest.mark.parametrize("layer, name", [(layer, name) for layer, names in DELETED.items() for name in names])
def test_scalar_views_of_a_table_are_gone(layer, name):
    assert not hasattr(cvsqueeze, name)
    assert not hasattr(layer, name)


def test_star_import_exports_only_the_listed_names():
    namespace: dict = {}
    exec("from cvsqueeze import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(cvsqueeze.__all__)


def _parameters(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


def test_no_derivable_inputs():
    # the geometry follows from the spec, the spectrum and the negativity
    # from the covariance, the orthogonality rule's order from m and n
    assert "geom" not in _parameters(model.ground_state_energy_check)
    assert _parameters(phase_space.ppt_separable) == ["cov"]
    assert _parameters(phase_space.log_negativity) == ["cov"]
    assert _parameters(hermite.orthogonality_integral) == ["m", "n", "alpha"]
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


def _imported_top_level_modules(package: Path) -> set[str]:
    # every absolute import in the package, function-level ones included
    names = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_runtime_dependencies_are_the_third_party_imports():
    tomllib = pytest.importorskip("tomllib")
    package = Path(cvsqueeze.__file__).parent
    project = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())["project"]
    names = (re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in project["dependencies"])
    declared = {name.lower().replace("-", "_") for name in names}
    third_party = _imported_top_level_modules(package) - set(sys.stdlib_module_names) - {"__future__", "cvsqueeze"}
    assert third_party == declared == {"numpy"}


def test_verify_all_never_loads_mpmath():
    src = str(Path(cvsqueeze.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = (
        "import sys\n"
        "from cvsqueeze import cli\n"
        "code = cli.main(['verify', 'all'])\n"
        "print('mpmath loaded:', 'mpmath' in sys.modules, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines()[-1] == "mpmath loaded: False"


def test_nothing_loads_numpy_polynomial():
    # Gauss-Hermite rules are computed in quadrature.py itself
    package = Path(cvsqueeze.__file__).parent
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                assert not any(alias.name.startswith("numpy.polynomial") for alias in node.names), path
            elif isinstance(node, ast.ImportFrom):
                assert not (node.module or "").startswith("numpy.polynomial"), path
    src = str(package.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted(name for name in sys.modules if name.startswith('numpy.polynomial'))\n"
        "from cvsqueeze import cli\n"
        "print('after import:', loaded(), file=sys.stderr)\n"
        "code = cli.main(['verify', 'all'])\n"
        "print('after verify:', loaded(), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines()[-2:] == ["after import: []", "after verify: []"]
