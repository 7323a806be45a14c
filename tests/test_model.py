"""Transformed ladder operators and the reconstructed Hamiltonian."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import traced_peak
from fock_dense import dense, interior, ladder_operators, lowering_pair
from fock_dense import hamiltonian as dense_hamiltonian
from scipy.ndimage import correlate1d

import cvsqueeze
from cvsqueeze import model, phase_space, states
from cvsqueeze.cli import main
from cvsqueeze.model import _D1_STENCIL, _D2_STENCIL, _derivatives, _factored_action

GEOM = states.OscillatorGeometry(a=1.0, b=1.2)
SPEC = model.OscillatorSpec.from_geometry(GEOM)


def _exits_zero(argv):
    assert main(argv) == 0


class TestOscillatorSpec:
    def test_geometry_round_trip(self):
        a, b = SPEC.inverse_lengths()
        assert a == pytest.approx(GEOM.a, rel=1e-15)
        assert b == pytest.approx(GEOM.b, rel=1e-15)

    def test_frequency_binding(self):
        # omega_i = hbar a_i^2 / M so that the mode vacuum matches the
        # position-basis Gaussian (momentum variance a^2 hbar^2 / 2)
        assert SPEC.omega1 == pytest.approx(GEOM.hbar * GEOM.a**2, rel=1e-15)
        assert SPEC.omega2 == pytest.approx(GEOM.hbar * GEOM.b**2, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            model.OscillatorSpec(omega1=0.0, omega2=1.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["omega1", "omega2", "mass", "hbar"])
    def test_rejects_non_finite(self, field, value):
        # an infinite frequency once gave a Fock operator with a NaN diagonal
        fields = {"omega1": 1.0, "omega2": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            model.OscillatorSpec(**fields)

    @pytest.mark.parametrize("field", ["omega1", "omega2", "mass", "hbar"])
    def test_rejects_string(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite, got '2'$"):
            model.OscillatorSpec(**{"omega1": 1.0, "omega2": 1.0, field: "2"})


NON_FINITE_LABELS = [complex("nan"), complex("inf"), complex(0.3, -math.inf), complex(math.nan, 0.2)]

LABEL_ENTRY_POINTS = {
    "transformed_ladder_matrices": lambda z1, z2: model.transformed_ladder_matrices(0.5, z1, z2, 8),
    "hamiltonian_fock_ladder": lambda z1, z2: model.hamiltonian_fock(0.5, SPEC, z1, z2, 8, "ladder"),
    "hamiltonian_fock_expanded": lambda z1, z2: model.hamiltonian_fock(0.5, SPEC, z1, z2, 8, "expanded"),
    "hamiltonian_quadratic": lambda z1, z2: model.hamiltonian_quadratic(0.5, SPEC, z1, z2),
    "ground_state_energy_check": lambda z1, z2: model.ground_state_energy_check(0.5, SPEC, z1, z2),
}


@pytest.mark.parametrize("entry", sorted(LABEL_ENTRY_POINTS))
@pytest.mark.parametrize("label", NON_FINITE_LABELS, ids=str)
@pytest.mark.parametrize("which", ["z1", "z2"])
def test_non_finite_label_raises(entry, label, which):
    labels = {"z1": 0.3 + 0.1j, "z2": -0.2j, which: label}
    with pytest.raises(ValueError, match="finite"):
        LABEL_ENTRY_POINTS[entry](labels["z1"], labels["z2"])


class TestTransformedLadders:
    def test_bare_matrix_elements(self):
        low1, low2 = lowering_pair(4)
        # <m-1, n| c1 |m, n> = sqrt(m), <m, n-1| c2 |m, n> = sqrt(n)
        for m in range(1, 4):
            for n in range(4):
                assert low1[(m - 1) * 4 + n, m * 4 + n] == pytest.approx(math.sqrt(m))
                assert low2[n * 4 + m - 1, n * 4 + m] == pytest.approx(math.sqrt(m))
        assert np.count_nonzero(low1) == 12

    def test_no_squeezing_no_shift_reduces_to_bare(self):
        c1, c1_dag, c2, c2_dag = map(dense, model.transformed_ladder_matrices(1.0, 0, 0, 8))
        low1, low2 = lowering_pair(8)
        np.testing.assert_array_equal(c1, low1)
        np.testing.assert_array_equal(c2, low2)
        np.testing.assert_array_equal(c1_dag, low1.conj().T)

    def test_no_squeezing_is_the_displaced_pair(self):
        # at alpha = 1, C_i = c_i - z_i 1 and C_i+ = c_i+ - conj(z_i) 1 exactly
        z1, z2 = 0.4 + 0.2j, -0.3 + 0.7j
        c1, c1_dag, c2, c2_dag = map(dense, model.transformed_ladder_matrices(1.0, z1, z2, 8))
        low1, low2 = lowering_pair(8)
        eye = np.eye(64)
        np.testing.assert_array_equal(c1, low1 - z1 * eye)
        np.testing.assert_array_equal(c1_dag, low1.T - np.conj(z1) * eye)
        np.testing.assert_array_equal(c2, low2 - z2 * eye)
        np.testing.assert_array_equal(c2_dag, low2.T - np.conj(z2) * eye)

    def test_quarter_bands(self):
        # at alpha = 1/4, sigma = 5/4 on the operator's own mode and tau = 3/4
        # on the other; band entries run sqrt(r + 1) along the lowered mode
        c1, c1_dag, c2, c2_dag = model.transformed_ladder_matrices(0.25, 0, 0, 6)
        root = np.sqrt(np.arange(1.0, 6))[:, None] * np.ones(6)
        assert set(c1.bands) == {(1, 0), (0, -1)} and set(c2.bands) == {(0, 1), (-1, 0)}
        np.testing.assert_allclose(c1.bands[1, 0], 1.25 * root, rtol=1e-15)
        np.testing.assert_allclose(c1.bands[0, -1], 0.75 * root.T, rtol=1e-15)
        np.testing.assert_allclose(c2.bands[0, 1], 1.25 * root.T, rtol=1e-15)
        np.testing.assert_allclose(c2.bands[-1, 0], 0.75 * root, rtol=1e-15)
        for op, adjoint in ((c1, c1_dag), (c2, c2_dag)):
            np.testing.assert_array_equal(dense(adjoint), dense(op).conj().T)

    @pytest.mark.parametrize("alpha", [0.02, 0.25, 0.5, 1.0])
    def test_canonical_commutators_on_interior(self, alpha):
        # sigma^2 - tau^2 = 1 keeps [Ci, Ci+] = 1 at every alpha
        c1, c1_dag, c2, c2_dag = map(dense, model.transformed_ladder_matrices(alpha, 0.3 + 0.1j, -0.2j, 16))
        eye = np.eye(14**2)
        assert np.abs(interior(c1 @ c1_dag - c1_dag @ c1) - eye).max() < 1e-12
        assert np.abs(interior(c2 @ c2_dag - c2_dag @ c2) - eye).max() < 1e-12
        assert np.abs(interior(c1 @ c2 - c2 @ c1)).max() < 1e-12
        assert np.abs(interior(c1 @ c2_dag - c2_dag @ c1)).max() < 1e-12

    def test_rejects_tiny_truncation(self):
        with pytest.raises(ValueError):
            model.transformed_ladder_matrices(0.5, 0, 0, 3)


class TestHamiltonianFock:
    def test_no_squeezing_diagonal(self):
        spec = model.OscillatorSpec(omega1=1.0, omega2=1.44)
        ham = dense(model.hamiltonian_fock(1.0, spec, 0, 0, 8))
        levels = np.arange(8.0)
        expected = spec.omega1 * levels[:, None] + spec.omega2 * levels + 0.5 * (spec.omega1 + spec.omega2)
        np.testing.assert_allclose(np.diag(ham).real, expected.ravel(), rtol=1e-14)
        assert np.count_nonzero(ham - np.diag(np.diag(ham))) == 0

    def test_no_squeezing_displaced_oscillator(self):
        # at alpha = 1 the Hamiltonian must be the pair of displaced
        # oscillators built directly from the bare ladder matrices
        spec = model.OscillatorSpec(omega1=1.0, omega2=1.44)
        z1, z2 = 0.3 + 0.2j, -0.4 + 0.1j
        ham = model.hamiltonian_fock(1.0, spec, z1, z2, 10)
        low1, low2 = lowering_pair(10)
        eye = np.eye(100)
        direct = (
            spec.omega1 * (low1.conj().T - np.conj(z1) * eye) @ (low1 - z1 * eye)
            + spec.omega2 * (low2.conj().T - np.conj(z2) * eye) @ (low2 - z2 * eye)
            + 0.5 * (spec.omega1 + spec.omega2) * eye
        )
        np.testing.assert_allclose(dense(ham), direct, atol=1e-13)

    def test_hermitian(self):
        ham = dense(model.hamiltonian_fock(0.4, SPEC, 0.3 + 0.1j, -0.2 + 0.4j, 12))
        np.testing.assert_array_equal(ham, ham.conj().T)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("z", [0.0 + 0.0j, 0.3 + 0.1j])
    def test_paths_agree(self, alpha, z):
        ladder = model.hamiltonian_fock(alpha, SPEC, z, -0.5 * z, 14, method="ladder")
        expanded = model.hamiltonian_fock(alpha, SPEC, z, -0.5 * z, 14, method="expanded")
        assert np.abs(interior(dense(ladder) - dense(expanded))).max() < 1e-10

    def test_constant_regroupings_agree(self):
        # the zero-point bookkeeping of the two term lists is the identity
        # tau^2 + 1/2 = (1 + alpha^2) / (4 alpha)
        for alpha in (0.1, 0.37, 0.92):
            tau = (1 - alpha) / (2 * math.sqrt(alpha))
            assert tau**2 + 0.5 == pytest.approx((1 + alpha**2) / (4 * alpha), rel=1e-14)

    def test_ground_eigenpair(self):
        alpha, z1, z2 = 0.5, 0.3 + 0.1j, -0.2 + 0.4j
        ham = model.hamiltonian_fock(alpha, SPEC, z1, z2, 18)
        eigenvalues, eigenvectors = np.linalg.eigh(dense(ham))
        expected = 0.5 * (SPEC.omega1 + SPEC.omega2)
        assert eigenvalues[0] == pytest.approx(expected, rel=1e-8)
        from cvsqueeze.basis import coefficient_table

        phi = coefficient_table(2, alpha, z1, z2, 17).ravel()
        phi = phi / np.linalg.norm(phi)
        assert abs(np.vdot(eigenvectors[:, 0], phi)) == pytest.approx(1.0, abs=1e-9)

    def test_invalid_method(self):
        with pytest.raises(ValueError):
            model.hamiltonian_fock(0.5, SPEC, 0, 0, 10, method="guess")


class TestKroneckerAssembly:
    """The factored Fock assembly against dense products of the product-basis ladders."""

    @pytest.mark.parametrize("method", ["ladder", "expanded"])
    @pytest.mark.parametrize("alpha", [0.05, 0.4, 1.0])
    @pytest.mark.parametrize("n_trunc", [8, 12, 20])
    def test_matches_dense_reference(self, n_trunc, alpha, method):
        spec = model.OscillatorSpec(omega1=0.7, omega2=1.6, hbar=1.3)
        z1, z2 = 0.6 - 0.35j, -0.25 + 0.8j
        ham = dense(model.hamiltonian_fock(alpha, spec, z1, z2, n_trunc, method))
        reference = dense_hamiltonian(alpha, spec, z1, z2, n_trunc, method)
        assert np.abs(ham - reference).max() <= 1e-14 * np.abs(reference).max()

    @pytest.mark.parametrize("method", ["ladder", "expanded"])
    def test_peak_memory(self, method):
        # the dense (n^2, n^2) matrix is 41 MB at n_trunc 40; dense
        # (n^2, n^2) @ (n^2, n^2) products peak above 220 MB; the bands of
        # the coefficient product peak near 0.28 MB
        peak = traced_peak(model.hamiltonian_fock, 0.4, SPEC, 0.3 + 0.1j, -0.2 + 0.4j, 40, method)
        assert peak < 1e6

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        alpha=st.floats(1e-3, 1.0),
        radius1=st.floats(0.0, 1.0),
        phase1=st.floats(-math.pi, math.pi),
        radius2=st.floats(0.0, 1.0),
        phase2=st.floats(-math.pi, math.pi),
        omega1=st.floats(0.5, 2.0),
        omega2=st.floats(0.5, 2.0),
        hbar=st.floats(0.5, 2.0),
        n_trunc=st.integers(8, 14),
    )
    def test_paths_agree_and_hermitian(
        self, alpha, radius1, phase1, radius2, phase2, omega1, omega2, hbar, n_trunc
    ):
        spec = model.OscillatorSpec(omega1=omega1, omega2=omega2, hbar=hbar)
        z1 = radius1 * complex(math.cos(phase1), math.sin(phase1))
        z2 = radius2 * complex(math.cos(phase2), math.sin(phase2))
        ladder = dense(model.hamiltonian_fock(alpha, spec, z1, z2, n_trunc, "ladder"))
        expanded = dense(model.hamiltonian_fock(alpha, spec, z1, z2, n_trunc, "expanded"))
        scale = max(1.0, float(np.abs(ladder).max()))
        assert np.abs(interior(ladder - expanded)).max() <= 1e-10 * scale
        for ham in (ladder, expanded):
            np.testing.assert_array_equal(ham, ham.conj().T)


class TestSlabChecks:
    """The slab-wise Fock checks against the same formulas on whole matrices."""

    @pytest.mark.parametrize("n_trunc", [5, 8, 11])
    def test_match_whole_matrix_formulas(self, n_trunc):
        # every band of the product basis filled, i.e. a dense random operator
        rng = np.random.default_rng(n_trunc)
        offsets = range(1 - n_trunc, n_trunc)

        def random_operator():
            bands = {}
            for d1 in offsets:
                for d2 in offsets:
                    shape = (n_trunc - abs(d1), n_trunc - abs(d2))
                    bands[d1, d2] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            return model.TruncatedOperator(bands, n_trunc)

        first, second = random_operator(), random_operator()
        hermiticity, gap, _ = _whole_matrix_checks(first, second)
        assert first.interior_gap(second) == gap
        assert first.hermiticity_defect() == hermiticity

    @pytest.mark.parametrize("n_trunc", [1, 2])
    def test_interior_gap_rejects_empty_interior(self, n_trunc):
        # both mode indices below n_trunc - 2 leave no entry to compare
        empty = model.TruncatedOperator({}, n_trunc)
        with pytest.raises(ValueError, match=f"interior is empty at n_trunc {n_trunc}"):
            empty.interior_gap(empty)

    def test_interior_gap_smallest_interior(self):
        # at n_trunc 3 the interior is the single entry <0, 0| H |0, 0>
        op = model.TruncatedOperator({(0, 0): np.arange(9.0).reshape(3, 3), (1, 0): np.ones((2, 3))}, 3)
        assert op.interior_gap(model.TruncatedOperator({}, 3)) == 0.0
        assert op.interior_gap(model.TruncatedOperator({(0, 0): np.full((3, 3), 2.0)}, 3)) == 2.0

    def test_hermiticity_defect_of_zero_operator(self):
        # an operator with no bands once raised numpy's zero-size reduction error
        assert model.TruncatedOperator({}, 14).hermiticity_defect() == 0.0

    def test_interior_gap_rejects_other_truncation(self):
        ham = model.hamiltonian_fock(0.4, SPEC, 0, 0, 8)
        with pytest.raises(ValueError, match="n_trunc 9 does not match 8"):
            ham.interior_gap(model.hamiltonian_fock(0.4, SPEC, 0, 0, 9))

    def test_nan_reaches_result(self):
        ham = model.hamiltonian_fock(0.4, SPEC, 0.3 + 0.1j, -0.2 + 0.4j, 8)
        bands = {offsets: band.copy() for offsets, band in ham.bands.items()}
        corrupt = model.TruncatedOperator(bands, 8)
        bands[0, -1][7, 4] = np.nan  # <7, 5| H |7, 4>, outside the interior
        assert math.isnan(corrupt.hermiticity_defect())
        assert not math.isnan(corrupt.interior_gap(ham))
        bands[1, 1][2, 2] = np.nan  # <2, 2| H |3, 3>, inside the interior
        assert math.isnan(corrupt.interior_gap(ham))

    def test_cli_peak_memory(self, tmp_path):
        # the two (n^2, n^2) Fock matrices would be 82 MB at trunc 40; in
        # band form from coefficient products the job peaks near 0.8 MB in
        # a fresh process
        out = tmp_path / "ham.json"
        assert traced_peak(_exits_zero, ["hamiltonian", "--alpha=0.5", "--trunc=40", f"--out={out}"]) < 2e6


def _random_bands(rng, count, n_trunc, offsets):
    """Random complex bands on the offset pairs of ``count`` products of random subsets of ``offsets``."""
    bands = {}
    for _ in range(count):
        left, right = (rng.choice(offsets, size=rng.integers(1, len(offsets) + 1), replace=False) for _ in range(2))
        for d1 in left.tolist():
            for d2 in right.tolist():
                shape = (n_trunc - abs(d1), n_trunc - abs(d2))
                bands[d1, d2] = bands.get((d1, d2), 0.0) + rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return bands


def _whole_matrix_checks(first, second):
    # the check formulas on whole dense matrices
    whole = dense(first)
    return (
        np.abs(whole - whole.conj().T).max(),
        np.abs(interior(whole - dense(second))).max(),
        np.diag(whole),
    )


# rounding units (eps times the largest entry) allowed between a band-form
# Fock operator and its np.kron reference; the largest gap measured over the
# sizes, alphas and paths of test_matrix_matches_dense_assembly is 2.7 units
DENSE_ROUNDING = 8


class TestBandForm:
    """Fock operators kept as the bands of one coefficient product, checked without the dense matrix."""

    SPEC = model.OscillatorSpec(omega1=0.7, omega2=1.6, hbar=1.3)
    LABELS = (0.6 - 0.35j, -0.25 + 0.8j)

    @pytest.mark.parametrize("n_trunc", [8, 9, 20, 27, 40])
    @pytest.mark.parametrize("alpha", [0.05, 1.0])
    def test_matrix_matches_dense_assembly(self, n_trunc, alpha):
        # against the np.kron ladder products of fock_dense: the Hamiltonians
        # within DENSE_ROUNDING rounding units of their largest entry, the
        # ladder operators, one product per entry on either side, exactly
        z1, z2 = self.LABELS
        for method in ("ladder", "expanded"):
            ham = dense(model.hamiltonian_fock(alpha, self.SPEC, z1, z2, n_trunc, method))
            reference = dense_hamiltonian(alpha, self.SPEC, z1, z2, n_trunc, method)
            scale = np.finfo(float).eps * np.abs(reference).max()
            assert np.abs(ham - reference).max() <= DENSE_ROUNDING * scale
        ladders = model.transformed_ladder_matrices(alpha, z1, z2, n_trunc)
        for op, reference in zip(ladders, ladder_operators(alpha, z1, z2, n_trunc)):
            np.testing.assert_array_equal(dense(op), reference.toarray())

    def test_seven_bands(self):
        # of the nine bands of tridiagonal factors, the beam-splitter pair
        # s (x) s+ and s+ (x) s has no term, so neither band is kept
        for method in ("ladder", "expanded"):
            ham = model.hamiltonian_fock(0.4, SPEC, 0.3 + 0.1j, -0.2 + 0.4j, 12, method)
            expected = [(d1, d2) for d1 in (-1, 0, 1) for d2 in (-1, 0, 1) if d1 * d2 != -1]
            assert sorted(ham.bands) == expected

    @pytest.mark.parametrize("count", [1, 3, 9])
    @pytest.mark.parametrize("n_trunc", [6, 9])
    def test_checks_match_whole_matrix_formulas(self, count, n_trunc):
        rng = np.random.default_rng(100 * count + n_trunc)
        first = model.TruncatedOperator(_random_bands(rng, count, n_trunc, np.arange(-2, 3)), n_trunc)
        second = model.TruncatedOperator(_random_bands(rng, count, n_trunc, np.arange(-3, 2)), n_trunc)
        hermiticity, gap, diagonal = _whole_matrix_checks(first, second)
        assert first.hermiticity_defect() == hermiticity
        assert first.interior_gap(second) == gap
        assert second.interior_gap(first) == gap
        np.testing.assert_array_equal(first.diagonal(), diagonal)

    @pytest.mark.parametrize("n_trunc", [9, 12])
    def test_hamiltonian_checks_match_whole_matrix_formulas(self, n_trunc):
        z1, z2 = self.LABELS
        ladder = model.hamiltonian_fock(0.3, self.SPEC, z1, z2, n_trunc, "ladder")
        expanded = model.hamiltonian_fock(0.3, self.SPEC, z1, z2, n_trunc, "expanded")
        hermiticity, gap, diagonal = _whole_matrix_checks(ladder, expanded)
        assert ladder.hermiticity_defect() == hermiticity
        assert ladder.interior_gap(expanded) == gap
        np.testing.assert_array_equal(ladder.diagonal(), diagonal)

    @pytest.mark.parametrize("entry", [(1, 0), (5, 0)], ids=["on-band", "off-band"])
    def test_nan_in_a_factor_reaches_both_checks(self, entry):
        # a NaN coefficient opens its band even where every other coefficient
        # of that band is zero: s (x) 1 lies in the band (1, 0), s^2 (x) 1 in
        # the band (2, 0), which the Hamiltonian does not have
        z1, z2 = self.LABELS
        coeffs = model._kron_terms(model._hamiltonian_terms(0.4, self.SPEC, z1, z2, "expanded"))
        coeffs[entry] = np.nan
        corrupt = model._operator(coeffs, 10)
        clean = model.hamiltonian_fock(0.4, self.SPEC, z1, z2, 10, "expanded")
        assert (model._OFFSETS[entry[0]], 0) in corrupt.bands
        assert math.isnan(corrupt.hermiticity_defect())
        assert math.isnan(corrupt.interior_gap(clean))
        assert math.isnan(clean.interior_gap(corrupt))

    def test_cli_large_truncation_without_dense_matrix(self, tmp_path):
        # the dense matrix at trunc 200 would take 25.6 GB; the job peaks near
        # 13.2 MB in a fresh process, two (3 n, 3 n) band products of 5.8 MB
        out = tmp_path / "ham.json"
        assert traced_peak(_exits_zero, ["hamiltonian", "--alpha=0.5", "--trunc=200", f"--out={out}"]) < 20e6
        fock = json.loads(out.read_text())["fock"]
        assert fock["n_trunc"] == 200
        assert fock["hermiticity_defect"] == 0.0


class TestHamiltonianQuadratic:
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=str)
    @pytest.mark.parametrize("field", ["q", "linear", "constant"])
    def test_rejects_non_finite_field(self, field, value):
        # a NaN in q once failed as an asymmetric Q, and a NaN in linear or an
        # infinite constant was accepted and reached value()
        q, linear, constant = np.eye(4), np.zeros(4), 0.0
        if field == "q":
            q[1, 1] = value
        elif field == "linear":
            linear[1] = value
        else:
            constant = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            model.QuadraticHamiltonian(q=q, linear=linear, constant=constant)

    @pytest.mark.parametrize("field, q, linear", [
        ("q", np.eye(3), np.zeros(4)),
        ("linear", np.eye(4), np.zeros(3)),
        ("linear", np.eye(4), np.zeros((4, 1))),
    ], ids=["q-3x3", "linear-3", "linear-4x1"])
    def test_rejects_a_wrong_shape_naming_the_field(self, field, q, linear):
        # a wrong-shaped linear once raised "L must be a 4-vector", naming
        # neither the field nor its shape
        shape = re.escape(str((q if field == "q" else linear).shape))
        with pytest.raises(ValueError, match=rf"^{field} must be a 4.*, got shape {shape}$"):
            model.QuadraticHamiltonian(q=q, linear=linear, constant=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize("name", ["x1", "x2", "p1", "p2"])
    def test_value_rejects_non_finite_coordinates(self, name, value):
        # the coordinates were checked for type only, so an inf gave nan
        coords = {"x1": 0.1, "x2": 0.2, "p1": [0.3, 0.4], "p2": 0.5, name: [0.0, value]}
        ham = model.QuadraticHamiltonian(np.eye(4), np.ones(4), 0.0)
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            ham.value(**coords)

    def test_symmetry_tolerance_scales_with_q(self):
        # np.allclose's absolute atol 1e-8 once accepted this asymmetric Q and
        # averaged both entries to 2.5e-9
        q = 1e-3 * np.eye(4)
        q[0, 1] = 5e-9
        with pytest.raises(ValueError, match="q must be symmetric"):
            model.QuadraticHamiltonian(q=q, linear=np.zeros(4), constant=0.0)
        q[1, 0] = 5e-9
        ham = model.QuadraticHamiltonian(q=q, linear=np.zeros(4), constant=0.0)
        np.testing.assert_array_equal(ham.q, q)

    def test_no_squeezing_block_diagonal(self):
        spec = model.OscillatorSpec(omega1=1.3, omega2=0.7, mass=2.0)
        ham = model.hamiltonian_quadratic(1.0, spec, 0, 0)
        expected = np.diag(
            [
                spec.mass * spec.omega1**2,
                spec.mass * spec.omega2**2,
                1.0 / spec.mass,
                1.0 / spec.mass,
            ]
        )
        np.testing.assert_allclose(ham.q, expected, atol=1e-15)
        np.testing.assert_array_equal(ham.linear, np.zeros(4))
        assert ham.constant == 0.0

    def test_symmetric_case_coupling(self):
        omega = 0.8
        spec = model.OscillatorSpec(omega1=omega, omega2=omega, mass=1.5)
        alpha = 0.5
        ham = model.hamiltonian_quadratic(alpha, spec, 0, 0)
        strength = (1 - alpha**2) / alpha
        assert abs(ham.q[0, 1]) == pytest.approx(strength * spec.mass * omega**2 / 2, rel=1e-14)
        assert abs(ham.q[2, 3]) == pytest.approx(strength / (2 * spec.mass), rel=1e-14)
        # position coupling positive, momentum coupling negative for the
        # states this Hamiltonian annihilates
        assert ham.q[0, 1] > 0 > ham.q[2, 3]
        assert ham.q[0, 0] == pytest.approx(
            (1 + alpha**2) / (2 * alpha) * spec.mass * omega**2, rel=1e-14
        )

    @pytest.mark.parametrize("alpha", [1 - 1e-9, 1 - 1e-7, 1 - 1e-5, 0.05])
    def test_coupling_to_rounding(self, alpha):
        # Q_01 = (1 - alpha^2)(omega_1 + omega_2) M sqrt(omega_1 omega_2) / (4 alpha)
        # against 40 digits; 1 - alpha alpha cancels as alpha nears 1 (5.0e-10
        # relative off at 1 - 1e-9), the product (1 - alpha)(1 + alpha) does not
        import mpmath as mp

        omega1, omega2, mass = 0.75, 1.25, 1.5
        spec = model.OscillatorSpec(omega1=omega1, omega2=omega2, mass=mass)
        got = model.hamiltonian_quadratic(alpha, spec, 0, 0).q[0, 1]
        with mp.workdps(40):
            al, w1, w2 = mp.mpf(alpha), mp.mpf(omega1), mp.mpf(omega2)
            expected = (1 - al * al) * (w1 + w2) * mass * mp.sqrt(w1 * w2) / (4 * al)
            assert abs(mp.mpf(got) - expected) <= 1e-15 * abs(expected)

    def test_couplings_present_iff_squeezed(self):
        for alpha in (0.25, 0.5, 0.99):
            ham = model.hamiltonian_quadratic(alpha, SPEC, 0, 0)
            assert ham.q[0, 1] != 0.0
            assert ham.q[2, 3] != 0.0
        ham1 = model.hamiltonian_quadratic(1.0, SPEC, 0, 0)
        assert ham1.q[0, 1] == 0.0
        assert ham1.q[2, 3] == 0.0

    def test_limit_continuity(self):
        z1, z2 = 0.2 + 0.1j, -0.3 + 0.4j
        limit = model.hamiltonian_quadratic(1.0, SPEC, z1, z2)
        gaps = []
        for alpha in (1 - 1e-3, 1 - 1e-5, 1 - 1e-7):
            ham = model.hamiltonian_quadratic(alpha, SPEC, z1, z2)
            gaps.append(
                np.abs(ham.q - limit.q).max()
                + np.abs(ham.linear - limit.linear).max()
                + abs(ham.constant - limit.constant)
            )
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-5

    def test_fock_diagonal_matches_quadrature(self):
        # the number state (m, n) is the product f_m(x1) g_n(x2), so the
        # factored action applies on the raw axes with frame = identity
        alpha, z1, z2 = 0.5, 0.2 + 0.1j, -0.1 + 0.3j
        ham = model.hamiltonian_quadratic(alpha, SPEC, z1, z2)
        fock = model.hamiltonian_fock(alpha, SPEC, z1, z2, 12)
        x1 = np.linspace(-9 / GEOM.a, 9 / GEOM.a, 481)
        x2 = np.linspace(-9 / GEOM.b, 9 / GEOM.b, 481)
        cell = (x1[1] - x1[0]) * (x2[1] - x2[0])
        unit_frame = states.QuadraticGaussian(np.eye(2), (1.0, 1.0))
        for (m, n) in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 3), (3, 3)]:
            f = states.hermite_function_sequence(m, x1, GEOM.a)[m]
            g = states.hermite_function_sequence(n, x2, GEOM.b)[n]
            u, v = _factored_action(ham, f, g, x1, x2, unit_frame, np.zeros(2), SPEC.hbar)
            expectation = float(np.sum((f @ u) * (g @ v)).real) * cell
            assert expectation == pytest.approx(fock.diagonal()[m * 12 + n].real, abs=1e-8)

    def test_classical_value(self):
        ham = model.hamiltonian_quadratic(0.5, SPEC, 0, 0)
        gamma = (0.3, -0.2, 0.5, 0.1)
        direct = (
            0.5 * np.array(gamma) @ ham.q @ np.array(gamma)
            + ham.linear @ np.array(gamma)
            + ham.constant
        )
        assert ham.value(*gamma) == pytest.approx(direct, rel=1e-14)


GROUND_ALPHAS = [0.05, 0.1, 0.5]


class TestGroundStateCheck:
    @pytest.mark.parametrize("alpha", GROUND_ALPHAS)
    def test_energy_and_residual(self, alpha):
        result = model.ground_state_energy_check(alpha, SPEC, grid_points=161)
        assert result.energy == pytest.approx(result.expected, abs=1e-6)
        assert result.expected == pytest.approx(0.5 * (SPEC.omega1 + SPEC.omega2), rel=1e-15)
        assert result.residual < 1e-6
        assert result.grid_points == 161
        assert result.factorization_defect < 1e-12

    @pytest.mark.parametrize("alpha", GROUND_ALPHAS)
    def test_displaced(self, alpha):
        result = model.ground_state_energy_check(
            alpha, SPEC, 0.3 + 0.1j, -0.2 + 0.4j, grid_points=161
        )
        assert result.energy == pytest.approx(result.expected, abs=1e-6)

    def test_no_squeezing_with_displacement(self):
        result = model.ground_state_energy_check(
            1.0, SPEC, 0.1 + 0.05j, -0.02 + 0.1j, grid_points=161
        )
        assert result.energy == pytest.approx(result.expected, abs=1e-6)

    @pytest.mark.parametrize("alpha", GROUND_ALPHAS)
    def test_residual_shrinks_under_refinement(self, alpha):
        coarse = model.ground_state_energy_check(alpha, SPEC, 0.2j, 0.1, grid_points=81)
        fine = model.ground_state_energy_check(alpha, SPEC, 0.2j, 0.1, grid_points=161)
        assert fine.residual < 0.1 * coarse.residual

    def test_strong_squeezing_on_equal_geometry(self):
        # alpha 0.05 on the raw x1/x2 grid gave E = 3.66 against 1
        geom = states.OscillatorGeometry(1.0, 1.0)
        spec = model.OscillatorSpec.from_geometry(geom)
        result = model.ground_state_energy_check(0.05, spec, 0.4 + 0.3j, -0.2 + 0.5j)
        assert result.expected == 1.0
        assert abs(result.energy - 1.0) <= 1e-6

    def test_imaginary_label_refines_the_step(self):
        # the plane wave of Im(z1 - z2) = 3 shifts the t spectrum by three
        # Gaussian widths, so the step shrinks by four
        geom = states.OscillatorGeometry(1.0, 1.0)
        spec = model.OscillatorSpec.from_geometry(geom)
        result = model.ground_state_energy_check(0.5, spec, 4.0, -3j, grid_points=161)
        assert result.grid_points == 641
        assert abs(result.energy - 1.0) <= 1e-9
        real = model.ground_state_energy_check(0.5, spec, 4.0, -3.0, grid_points=161)
        assert real.grid_points == 161

    def test_rejects_labels_beyond_the_point_limit(self):
        with pytest.raises(ValueError, match="limit"):
            model.ground_state_energy_check(0.5, SPEC, 1e4j, 0.0)

    def test_frame_diagonalizes_the_state_matrix(self):
        # the record's frame against M read off the raw covariance transcription
        alpha = 0.3
        frame = states.gaussian_state(2, alpha, GEOM, states.DisplacementLabels()).gaussian.frame
        m = 2.0 * phase_space.covariance(2, alpha, GEOM).sigma[2:, 2:] / GEOM.hbar**2
        np.testing.assert_allclose(frame.T @ m @ frame, np.diag([1 / alpha, alpha]), atol=1e-14)

    def test_defect_small_at_strong_squeezing(self):
        # at alpha 1e-8 the raw-coordinate closed form lost its digits (a
        # defect of 0.33); read off the principal frame it keeps them
        result = model.ground_state_energy_check(1e-8, SPEC, 0.3 + 0.1j, -0.2 + 0.4j)
        assert result.factorization_defect <= 1e-7

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["anti-diagonal", "diagonal"])
    def test_defect_reads_both_diagonals(self, sign, monkeypatch):
        # a deviation from the product form that vanishes on both axis lines
        # and on one of the two diagonals still shows in the defect
        alpha = 0.3
        inverse = states.gaussian_state(2, alpha, GEOM, states.DisplacementLabels()).gaussian.inverse
        spreads = (math.sqrt(alpha / 2), 1 / math.sqrt(2 * alpha))
        exact = states._state_wave

        def perturbed(state, x1, x2):
            # axis coordinates in spreads: u = w on the grid's diagonal, u = -w
            # on its anti-diagonal; the labels are zero, so the center is too
            xi = (np.asarray(x1), np.asarray(x2))
            u = (inverse[0, 0] * xi[0] + inverse[0, 1] * xi[1]) / spreads[0]
            w = (inverse[1, 0] * xi[0] + inverse[1, 1] * xi[1]) / spreads[1]
            return exact(state, x1, x2) * (1 + 1e-6 * u * w * (u - sign * w))

        monkeypatch.setattr(model, "_state_wave", perturbed)
        result = model.ground_state_energy_check(alpha, SPEC, grid_points=81)
        assert result.factorization_defect > 1e-9

    def test_peak_memory_is_linear(self):
        # one (641, 641) complex grid alone would take 6.6 MB
        model.ground_state_energy_check(0.3, SPEC, 0.2 + 0.3j, 0.1, grid_points=641)
        peak = traced_peak(model.ground_state_energy_check, 0.3, SPEC, 0.2 + 0.3j, 0.1, 641)
        assert peak < 2e6


def _correlate(values, weights, axis, spacing, order):
    # the stencil as scipy computes it, with zeros outside the grid
    w = weights / spacing**order
    real = correlate1d(values.real, w, axis=axis, mode="constant", cval=0.0)
    imag = correlate1d(values.imag, w, axis=axis, mode="constant", cval=0.0)
    return real + 1j * imag


def _dense_ground_check(alpha, spec, geom, z1, z2, grid_points):
    # the state materialized on the principal-axis grid from its record, in
    # one complex exponential per node, and (Q, L, c) applied node by node,
    # the derivatives in (s, t) taken by scipy
    state = states.gaussian_state(2, alpha, geom, states.DisplacementLabels(z1, z2))
    frame, y = state.gaussian.frame, state.position_center
    s_axis, t_axis = model._principal_axis_grid(state, grid_points)
    (kappa_s, kappa_t), (k_s, k_t), (c_s, c_t) = state.gaussian.curvatures, state.wavenumbers, state.center
    s, t = s_axis[:, None], t_axis[None, :]
    psi = state.gaussian.norm_prefactor * np.exp(
        -0.5 * (kappa_s * s**2 + kappa_t * t**2) + 1j * (k_s * (c_s + s) + k_t * (c_t + t) + state.phase)
    )
    h = (s_axis[1] - s_axis[0], t_axis[1] - t_axis[0])
    grad = [_correlate(psi, _D1_STENCIL, axis, h[axis], 1) for axis in (0, 1)]
    mixed = _correlate(grad[0], _D1_STENCIL, 1, h[1], 1)
    hess = [[_correlate(psi, _D2_STENCIL, 0, h[0], 2), mixed], [mixed, _correlate(psi, _D2_STENCIL, 1, h[1], 2)]]
    ham = model.hamiltonian_quadratic(alpha, spec, z1, z2)
    q, lin, hbar = ham.q, ham.linear, spec.hbar
    # the s-s kinetic and t-t potential coefficients and V at the center
    # are differences of 1/alpha terms that (Q, L, c) fixes to about 1e-10
    # absolute at alpha 1e-4, so they are formed by the same products as in
    # the model: the comparison is of the factored action, not of the
    # rounding of (Q, L, c)
    inv = state.gaussian.inverse
    kinetic = inv @ q[2:, 2:] @ inv.T
    frame_q = frame.T @ q[:2, :2] @ frame
    slope = frame.T @ (q[:2, :2] @ y + lin[:2])
    potential = (
        0.5 * y @ q[:2, :2] @ y + lin[:2] @ y + ham.constant
        + slope[0] * s + slope[1] * t
        + 0.5 * (frame_q[0, 0] * s**2 + 2 * frame_q[0, 1] * s * t + frame_q[1, 1] * t**2)
    )
    out = potential * psi
    for j in (0, 1):
        # p_x = -i hbar inv^T grad_u
        out = out - 1j * hbar * (inv[j] @ lin[2:]) * grad[j]
        for m in (0, 1):
            out = out - 0.5 * hbar**2 * kinetic[j, m] * hess[j][m]
    core = (slice(4, -4), slice(4, -4))
    psi, out = psi[core], out[core]
    norm_sq = np.sum(np.abs(psi) ** 2)
    energy = float(np.sum(psi.conj() * out).real / norm_sq)
    expected = 0.5 * hbar * (spec.omega1 + spec.omega2)
    residual = math.sqrt(np.sum(np.abs(out - expected * psi) ** 2) / norm_sq)
    return energy, residual


class TestFactoredMatchesDense:
    @pytest.mark.parametrize("alpha", [1e-4, 0.05, 0.5, 1.0])
    @pytest.mark.parametrize("grid_points", [41, 81])
    def test_energy_and_residual(self, alpha, grid_points):
        geom = states.OscillatorGeometry(a=0.8, b=1.3, hbar=0.7)
        spec = model.OscillatorSpec.from_geometry(geom, mass=1.4)
        z1, z2 = 0.3 + 0.2j, -0.1 + 0.4j
        result = model.ground_state_energy_check(alpha, spec, z1, z2, grid_points=grid_points)
        energy, residual = _dense_ground_check(alpha, spec, geom, z1, z2, grid_points)
        assert abs(result.energy - energy) <= 1e-12 * abs(energy)
        # the reference sums terms of size about E0 node by node, so its
        # residual (1e-7 to 1e-9 of E0 here) rounds at 1e-16 of E0: agreement
        # is measured on that scale, which still separates the QR form from
        # a Gram-sum form (floor near 1e-8 of E0)
        assert abs(result.residual - residual) <= 1e-12 * result.expected


class TestStencil:
    @pytest.mark.parametrize("weights, order", [(_D1_STENCIL, 1), (_D2_STENCIL, 2)], ids=["D1", "D2"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_matches_correlate1d(self, weights, order, axis):
        # the 1D stencils along every line of a 2D array; the whole grid is
        # compared, so the four samples at each end, whose taps reach past
        # it, check the zero padding
        rng = np.random.default_rng(11)
        values = rng.standard_normal((23, 12)) + 1j * rng.standard_normal((23, 12))
        out = np.apply_along_axis(lambda line: _derivatives(line, 0.07)[order - 1], axis, values)
        expected = _correlate(values, weights, axis, 0.07, order)
        assert out.shape == values.shape
        assert np.abs(out - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_cli_import_loads_no_scipy(self):
        src = str(Path(cvsqueeze.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, cvsqueeze.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert result.stdout.strip() == "[]"
