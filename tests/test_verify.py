"""What each verify suite checks, and that its oracles can fail."""

import math

import numpy as np
import pytest

from cvsqueeze import basis, hermite, model, phase_space, states, verify

# (check name, tolerance) of every suite, in report order.  A change that
# drops, renames or loosens a check must edit this table to pass.
PINNED_CHECKS = {
    "hermite": [
        ("recurrence vs explicit sum, n <= 25", 1e-11),
        ("two-index symmetry under (m,n,z1,z2)->(n,m,z2,z1)", 1e-14),
        ("generating-function coefficients, m,n <= 6", 1e-12),
        ("product generating identity, |t| <= 0.6, 60 terms", 1e-09),
        ("two-variable generating identity, |s t| <= 0.36, 60 terms", 1e-09),
        ("weighted orthogonality, diagonal, m,n <= 10", 1e-08),
        ("weighted orthogonality, off-diagonal (scaled)", 1e-08),
    ],
    "basis": [
        ("Gaussian-measure orthonormality, indices <= 4", 1e-13),
        ("k=2 basis is the 50:50 rotation of k=1 products, indices <= 4", 1e-14),
        ("squeeze parameter round trip and dual expression", 1e-13),
        ("coefficient norm partial sums nondecreasing", 1e-12),
    ],
    "states": [
        ("wave-function normalization", 1e-09),
        ("wave-function normalization, grid-halving delta", 1e-12),
        ("translation-operator reconstruction", 1e-12),
        ("series expansion sup-norm at order 50", 1e-07),
        ("series expansion sup-norm monotone decrease", 0.0),
        ("wave function at alpha 1e-8 vs 50 digits, over peak", 1e-08),
        ("separately squeezed state factorizes", 1e-10),
        ("jointly squeezed state carries the predicted cross curvature", 1e-09),
    ],
    "phase_space": [
        ("covariance matrix dual-path agreement", 1e-14),
        ("covariance dual-path agreement, strong squeezing", 1e-13),
        ("partial-transpose symplectic spectrum closed form", 1e-12),
        ("pure-state symplectic spectrum is hbar/2 twice", 1e-12),
        ("separability verdicts across the parameter range", 0.0),
        ("uncertainty-relation positivity of physical states, alpha 1e-8 to 0.9", 1e-12),
        ("chord-quadrature Wigner vs closed form", 1e-06),
        ("Wigner translation covariance at sampled points", 1e-06),
    ],
    "model": [
        ("Bogoliubov normalization identity", 1e-15),
        ("ladder-product vs expanded Hamiltonian paths", 1e-10),
        ("no-squeezing limit continuity (residual at 1e-7)", 1e-05),
        ("no-squeezing limit monotone approach", 0.0),
        ("canonical commutators on the interior block", 1e-12),
        ("ground-state energy expectation", 1e-06),
        ("eigen-residual shrinks under grid refinement", 0.1),
        ("ground state factorizes on the principal axes", 1e-12),
        ("couplings present iff squeezing is present", 0.0),
    ],
}


def test_every_suite_is_pinned():
    assert list(PINNED_CHECKS) == list(verify.SUITES)


@pytest.mark.parametrize("suite", list(PINNED_CHECKS))
def test_suite_checks_and_tolerances(suite):
    results = verify.run_suite(suite)
    assert [(r.name, r.tolerance) for r in results] == PINNED_CHECKS[suite]
    assert all(r.passed for r in results)


def test_normalization_check_sees_a_scaled_wave_function(monkeypatch):
    # a wave function off by a factor 1 + 1e-8 integrates to 1 + 2e-8, which
    # the 201^2 trapezoid must resolve against the 1e-9 bound
    exact = states.wave_function

    def scaled(*args, **kwargs):
        return exact(*args, **kwargs) * (1.0 + 1e-8)

    monkeypatch.setattr(states, "wave_function", scaled)
    results = {r.name: r for r in verify.run_suite("states")}
    normalization = results["wave-function normalization"]
    assert normalization.tolerance == 1e-9
    assert not normalization.passed
    assert normalization.residual == pytest.approx(2e-8, rel=1e-6)


def test_grid_halving_delta_sees_an_aliased_density(monkeypatch):
    # a ripple cos(25 x1) on the density integrates to zero against the
    # Gaussian: the 201^2 grid resolves it, so the norm stays 1, while the
    # 101^2 subgrid aliases it into the delta
    exact = states.wave_function

    def rippled(k, x1, x2, *args, **kwargs):
        return exact(k, x1, x2, *args, **kwargs) * np.sqrt(1.0 + 1e-6 * np.cos(25.0 * np.asarray(x1)))

    monkeypatch.setattr(states, "wave_function", rippled)
    results = {r.name: r for r in verify.run_suite("states")}
    assert results["wave-function normalization"].passed
    delta = results["wave-function normalization, grid-halving delta"]
    assert not delta.passed
    assert delta.residual > 1e-7


def test_normalization_checks_fail_on_nan(monkeypatch):
    # a NaN density must fail both checks rather than drop out of a max()
    exact = states.wave_function
    monkeypatch.setattr(states, "wave_function", lambda *args, **kwargs: exact(*args, **kwargs) * np.nan)
    results = {r.name: r for r in verify.run_suite("states")}
    assert not results["wave-function normalization"].passed
    assert not results["wave-function normalization, grid-halving delta"].passed


def test_check_fails_on_a_nan_residual():
    assert verify._check("x", [0.0, np.nan], 1.0).passed is False


def _times_nan(result):
    return result * np.nan


def _nan_spectrum(spectrum):
    return tuple(v * np.nan for v in spectrum)


# (suite, owner, routine, how its result is poisoned, checks that must fail)
NAN_POISONINGS = [
    ("hermite", hermite, "hermite_holo_sequence", _times_nan, [
        "recurrence vs explicit sum, n <= 25",
        "product generating identity, |t| <= 0.6, 60 terms",
        "two-variable generating identity, |s t| <= 0.36, 60 terms",
        "weighted orthogonality, diagonal, m,n <= 10",
        "weighted orthogonality, off-diagonal (scaled)",
    ]),
    ("hermite", hermite, "hermite_complex_2v_table", _times_nan, [
        "two-index symmetry under (m,n,z1,z2)->(n,m,z2,z1)",
        "generating-function coefficients, m,n <= 6",
        "two-variable generating identity, |s t| <= 0.36, 60 terms",
    ]),
    ("basis", basis, "basis_gram", _times_nan, ["Gaussian-measure orthonormality, indices <= 4"]),
    ("basis", basis, "coefficient_norm_partial", _times_nan, ["coefficient norm partial sums nondecreasing"]),
    ("states", states, "heisenberg_weyl_shift", _times_nan, ["translation-operator reconstruction"]),
    ("states", states, "series_expansion", _times_nan, [
        "series expansion sup-norm at order 50",
        "series expansion sup-norm monotone decrease",
    ]),
    ("phase_space", phase_space, "wigner_numeric", _times_nan, [
        "chord-quadrature Wigner vs closed form",
        "Wigner translation covariance at sampled points",
    ]),
    ("phase_space", phase_space, "symplectic_spectrum", _nan_spectrum, [
        "partial-transpose symplectic spectrum closed form",
        "pure-state symplectic spectrum is hbar/2 twice",
    ]),
    ("model", model.TruncatedOperator, "interior_gap", _times_nan, [
        "ladder-product vs expanded Hamiltonian paths",
        "canonical commutators on the interior block",
    ]),
]


@pytest.mark.parametrize(
    "suite, owner, routine, poison, names",
    NAN_POISONINGS,
    ids=[f"{suite}-{routine}" for suite, _, routine, _, _ in NAN_POISONINGS],
)
def test_nan_from_a_layer_fails_its_checks(suite, owner, routine, poison, names, monkeypatch):
    # a NaN residual must fail its check rather than drop out of the reduction
    exact = getattr(owner, routine)

    def poisoned(*args, **kwargs):
        return poison(exact(*args, **kwargs))

    monkeypatch.setattr(owner, routine, poisoned)
    results = {r.name: r for r in verify.run_suite(suite)}
    for name in names:
        assert not results[name].passed, name
        assert math.isnan(results[name].residual), name


def test_generating_function_check_sees_one_entry_off_by_1e_10(monkeypatch):
    # H_{6,6}, about 5.2e3 at the suite's point, scaled by 1 + 1e-10: the
    # oracle must be good to well below 1e-10 relative to see it
    exact = hermite.hermite_complex_2v_table

    def scaled(*args, **kwargs):
        table = exact(*args, **kwargs)
        if table.shape == (7, 7):
            table[6, 6] *= 1.0 + 1e-10
        return table

    monkeypatch.setattr(hermite, "hermite_complex_2v_table", scaled)
    results = {r.name: r for r in verify.run_suite("hermite")}
    check = results["generating-function coefficients, m,n <= 6"]
    assert not check.passed
    assert check.residual == pytest.approx(1e-10, rel=1e-2)


@pytest.mark.parametrize("mutation", ["conjugated", "axes swapped"])
def test_rotation_check_sees_matrices_the_gram_accepts(mutation, monkeypatch):
    # conjugating the coefficient matrices, or swapping the two principal
    # axes, keeps C C^H = I, so basis_gram stays the identity; the pointwise
    # rotation identity is off by O(1)
    exact = basis._gram_coefficients(4)
    wrong = exact.conj() if mutation == "conjugated" else exact.transpose(0, 2, 1)
    monkeypatch.setattr(basis, "_gram_coefficients", lambda max_index: wrong)
    results = {r.name: r for r in verify.run_suite("basis")}
    assert results["Gaussian-measure orthonormality, indices <= 4"].passed
    rotation = results["k=2 basis is the 50:50 rotation of k=1 products, indices <= 4"]
    assert not rotation.passed
    assert rotation.residual > 1.0


def test_uncertainty_check_sees_a_shrunk_covariance(monkeypatch):
    # Sigma scaled by 1 - 1e-6 violates the relation by far more than the
    # rounding band, at every alpha of the check
    exact = phase_space.covariance

    def shrunk(*args, **kwargs):
        cov = exact(*args, **kwargs)
        return phase_space.CovarianceMatrix(sigma=cov.sigma * (1.0 - 1e-6), hbar=cov.hbar)

    monkeypatch.setattr(phase_space, "covariance", shrunk)
    results = {r.name: r for r in verify.run_suite("phase_space")}
    check = results["uncertainty-relation positivity of physical states, alpha 1e-8 to 0.9"]
    assert not check.passed
    assert check.residual > 1e-7


@pytest.mark.parametrize("alpha, failing", [
    (0.1, {"covariance dual-path agreement, strong squeezing"}),
    (0.5, {"covariance matrix dual-path agreement", "covariance dual-path agreement, strong squeezing"}),
])
def test_dual_path_checks_read_their_alpha_ranges(alpha, failing, monkeypatch):
    # Sigma from the Wigner route, scaled by 1 + 1e-12 at one alpha: below
    # 0.2 only the strong-squeezing check covers it; every unshifted state
    # has largest curvature 1/alpha
    exact = phase_space.wigner_gaussian

    def scaled(gaussian, hbar):
        cov, evaluator = exact(gaussian, hbar)
        if math.isclose(max(gaussian.curvatures), 1.0 / alpha, rel_tol=1e-9):
            cov = phase_space.CovarianceMatrix(sigma=cov.sigma * (1.0 + 1e-12), hbar=cov.hbar)
        return cov, evaluator

    monkeypatch.setattr(phase_space, "wigner_gaussian", scaled)
    results = verify.run_suite("phase_space")
    assert {r.name for r in results if not r.passed} == failing


def test_monotone_approach_sees_one_step_away_from_the_limit(monkeypatch):
    # evaluating alpha = 1 - 1e-5 at 1 - 1.26e-3 makes the deviations from
    # the alpha = 1 form read 2.39e-3, 3.01e-3, 2.39e-7: the second step
    # still shrinks, but the first one grows by 6.2e-4
    exact = model.hamiltonian_quadratic

    def detuned(alpha, *args, **kwargs):
        return exact(1.0 - 1.26e-3 if alpha == 1.0 - 1e-5 else alpha, *args, **kwargs)

    monkeypatch.setattr(model, "hamiltonian_quadratic", detuned)
    results = {r.name: r for r in verify.run_suite("model")}
    assert results["no-squeezing limit continuity (residual at 1e-7)"].passed
    monotone = results["no-squeezing limit monotone approach"]
    assert not monotone.passed
    assert monotone.residual == pytest.approx(6.21e-4, rel=1e-2)
