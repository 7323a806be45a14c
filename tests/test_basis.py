"""Squeeze map, basis functions, coefficient families, Gaussian measure."""

import math

import numpy as np
import pytest

from cvsqueeze import basis, hermite
from cvsqueeze.quadrature import gauss_hermite, scaled_gauss_hermite


class TestSqueezeParam:
    def test_no_squeezing(self):
        assert basis.squeeze_from_alpha(1.0).xi == 0.0

    def test_half(self):
        assert basis.squeeze_from_alpha(0.5).xi == pytest.approx(math.log(2) / 2, rel=1e-15)

    def test_round_trip(self):
        alpha = math.exp(-2 * 0.8)
        assert basis.squeeze_from_alpha(alpha).xi == pytest.approx(0.8, rel=1e-14)
        for alpha in np.logspace(-3, 0, 17):
            param = basis.squeeze_from_alpha(float(alpha))
            assert basis.alpha_from_squeeze(param.xi) == pytest.approx(float(alpha), rel=1e-14)

    def test_dual_expression(self):
        for alpha in (0.1, 0.37, 0.9):
            param = basis.squeeze_from_alpha(alpha)
            assert param.xi == pytest.approx(math.atanh((1 - alpha) / (1 + alpha)), abs=1e-14)

    def test_rejects_out_of_range(self):
        for bad in (0.0, -0.1, 1.0001):
            with pytest.raises(ValueError):
                basis.squeeze_from_alpha(bad)
        with pytest.raises(ValueError):
            basis.alpha_from_squeeze(-0.5)


class TestBasisFunction:
    def test_vacuum_at_origin(self):
        for alpha in (0.2, 0.5, 0.8):
            expected = math.sqrt(2 * math.sqrt(alpha) / (1 + alpha))
            assert basis.basis_function(0, alpha, 0.0) == pytest.approx(expected, rel=1e-15)

    def test_dual_transcription(self):
        # independent direct formula: prefactor, ratio power, Gaussian factor,
        # explicit polynomial evaluation
        alpha, n, z = 0.4, 3, 1.2 - 0.7j
        ratio = (1 - alpha) / (1 + alpha)
        scaled = math.sqrt(2 * alpha / (1 - alpha**2)) * z
        direct = (
            math.sqrt(2 * math.sqrt(alpha) / (1 + alpha))
            * ratio ** (n / 2)
            * np.exp(ratio * z * z / 2)
            / math.sqrt(2**n * math.factorial(n))
            * hermite.hermite_holo(n, scaled)
        )
        assert basis.basis_function(n, alpha, z) == pytest.approx(direct, rel=1e-12)

    def test_product_is_first_mode_coefficient(self):
        alpha, z1, z2 = 0.6, 0.3 + 0.2j, -0.5 + 0.1j
        product = basis.basis_function(1, alpha, z1) * basis.basis_function(1, alpha, z2)
        assert basis.coefficient(1, 1, 1, alpha, z1, z2) == pytest.approx(product, rel=1e-14)

    def test_rejects_alpha_bounds(self):
        for bad in (0.0, 1.0, 1.3):
            with pytest.raises(ValueError):
                basis.basis_function(2, bad, 0.5)


class TestBasisFunction2v:
    def test_vacuum_at_origin(self):
        for alpha in (0.2, 0.7):
            expected = 2 * math.sqrt(alpha) / (1 + alpha)
            assert basis.basis_function_2v(0, 0, alpha, 0.0, 0.0) == pytest.approx(expected, rel=1e-15)

    def test_index_swap_symmetry(self):
        alpha, z1, z2 = 0.45, 0.3 + 0.2j, -0.1 + 0.4j
        for (m, n) in [(0, 2), (2, 1), (3, 3), (5, 2)]:
            assert basis.basis_function_2v(m, n, alpha, z1, z2) == pytest.approx(
                basis.basis_function_2v(n, m, alpha, z2, z1), rel=1e-14
            )

    def test_dual_transcription(self):
        alpha, m, n = 0.5, 2, 1
        z1, z2 = 0.3 + 0.2j, -0.1 + 0.4j
        ratio = (1 - alpha) / (1 + alpha)
        scale = 2 * math.sqrt(alpha) / math.sqrt(1 - alpha**2)
        direct = (
            2 * math.sqrt(alpha) / (1 + alpha)
            * ratio ** ((m + n) / 2)
            * np.exp(ratio * z1 * z2)
            / math.sqrt(math.factorial(m) * math.factorial(n))
            * hermite.hermite_complex_2v(m, n, scale * z1, scale * z2)
        )
        assert basis.basis_function_2v(m, n, alpha, z1, z2) == pytest.approx(direct, rel=1e-12)


class TestCoefficientNorm:
    def test_monotone_in_truncation(self):
        for k in (1, 2):
            values = [
                basis.coefficient_norm_partial(k, 0.35, 0.8 - 0.3j, -0.5 + 0.2j, n)
                for n in (2, 5, 10, 20, 40)
            ]
            assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_centered_tail_vanishes(self):
        full = basis.coefficient_norm_partial(1, 0.5, 0.0, 0.0, 60)
        shorter = basis.coefficient_norm_partial(1, 0.5, 0.0, 0.0, 30)
        assert abs(full - shorter) < 1e-10
        # the series is anchored by the vacuum coefficient...
        anchor = abs(basis.basis_function(0, 0.5, 0.0)) ** 4
        assert full >= anchor
        # ... and sums to the reproducing-kernel diagonal, here exp(0) = 1
        assert full == pytest.approx(1.0, rel=1e-12)

    def test_displaced_tail(self):
        total_80 = basis.coefficient_norm_partial(2, 0.2, 1.0, 1.0, 80)
        total_70 = basis.coefficient_norm_partial(2, 0.2, 1.0, 1.0, 70)
        assert abs(total_80 - total_70) < 1e-8
        assert total_80 == pytest.approx(math.exp(2.0), rel=1e-10)

    def test_mode2_degenerates_at_weak_squeezing(self):
        # all excited coefficients scale with ((1-alpha)/(1+alpha))^(m+n)
        alpha = 1 - 1e-6
        table = basis.coefficient_table(2, alpha, 0.0, 0.0, 2)
        ratios = np.abs(table / table[0, 0])
        assert ratios[1, 1] < 1e-6
        assert ratios[2, 2] < 1e-11


class TestGaussianMeasure:
    def test_origin_value(self):
        assert basis.gaussian_measure_density(0, 0) == pytest.approx(math.pi**-2, rel=1e-15)

    def test_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            w1 = complex(*rng.normal(size=2))
            w2 = complex(*rng.normal(size=2))
            assert basis.gaussian_measure_density(w1, w2) > 0.0

    def test_total_mass(self):
        nodes, weights = gauss_hermite(24)
        # the density against the 4D Lebesgue measure integrates to one
        one_axis = weights.sum()
        total = one_axis**4 / math.pi**2
        assert total == pytest.approx(1.0, abs=1e-10)


# the 40-node rule on the raw axes met 1e-7 only at moderate squeezing
# (alpha 0.3, 0.6); the principal-axis rule is exact from alpha 1e-4 to 1 - 1e-9
@pytest.mark.parametrize("alpha", [1e-4, 0.05, 0.1, 0.3, 0.6, 0.999, 1 - 1e-9])
def test_gram_orthonormality(alpha):
    gram = basis.basis_gram(alpha, max_index=4, order=40)
    assert np.abs(gram - np.eye(25)).max() < 1e-13


@pytest.mark.parametrize("alpha", [1e-8, 1e-4, 0.3, 0.999])
def test_gram_orthonormality_higher_index(alpha):
    # rounding grows with the degree; measured at most 8.4e-12 at max_index 8
    gram = basis.basis_gram(alpha, max_index=8, order=40)
    assert np.abs(gram - np.eye(81)).max() < 1e-10


def _direct_principal_axis_gram(alpha, max_index, order):
    # reference: the unfactored order^4-node Gauss-Hermite sum over the
    # principal axes a = (z1 + z2)/sqrt(2) = s1 + i t1, b = (z1 - z2)/sqrt(2) = s2 + i t2
    beta = (1 - alpha) / (1 + alpha)
    s1, ws1 = scaled_gauss_hermite(order, 1 - beta)
    t1, wt1 = scaled_gauss_hermite(order, 1 + beta)
    s2, ws2 = scaled_gauss_hermite(order, 1 + beta)
    t2, wt2 = scaled_gauss_hermite(order, 1 - beta)
    a = s1[:, None, None, None] + 1j * t1[None, :, None, None]
    b = s2[None, None, :, None] + 1j * t2[None, None, None, :]
    a, b = np.broadcast_arrays(a, b)
    weights = np.einsum("i,j,k,l->ijkl", ws1, wt1, ws2, wt2).ravel()
    z1 = ((a + b) / math.sqrt(2)).ravel()
    z2 = ((a - b) / math.sqrt(2)).ravel()
    # exp(beta z1 z2) is folded into the weight, so only the polynomial parts
    # remain; dividing it out of the table overflows at order 11 below alpha ~ 5e-3
    table = basis.basis_function_2v_table(max_index, max_index, alpha, z1, z2)
    poly = (table / table[0, 0]).reshape((max_index + 1) ** 2, -1)
    return (poly * weights) @ poly.conj().T / math.pi**2 * (2 * math.sqrt(alpha) / (1 + alpha)) ** 2


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.999])
def test_gram_matches_direct_principal_axis_sum(alpha):
    for max_index in (2, 3, 4):
        for order in (9, 11):
            direct = _direct_principal_axis_gram(alpha, max_index, order)
            factored = basis.basis_gram(alpha, max_index, order)
            assert np.abs(factored - direct).max() < 1000 * np.finfo(float).eps


@pytest.mark.parametrize("alpha", [1e-4, 0.05, 0.3, 0.6, 0.999, 1 - 1e-9])
def test_gram_exact_at_minimal_order(alpha):
    # 9 = 2 * max_index + 1 nodes per axis already integrate exactly
    minimal = basis.basis_gram(alpha, max_index=4, order=9)
    doubled = basis.basis_gram(alpha, max_index=4, order=18)
    assert np.abs(minimal - doubled).max() < 1e-13


def test_gram_rejects_inexact_order():
    with pytest.raises(ValueError, match="not exact"):
        basis.basis_gram(0.5, max_index=4, order=8)
    with pytest.raises(ValueError, match="max_index"):
        basis.basis_gram(0.5, max_index=-1, order=8)
    basis.basis_gram(0.5, max_index=4, order=9)


def test_gram_rejects_index_beyond_measured_accuracy():
    # rounding reaches about 1e-7 at max_index 14; 10 is the largest
    # index measured within 3e-10 of the identity
    basis.basis_gram(0.5, max_index=10, order=21)
    with pytest.raises(ValueError, match="max_index"):
        basis.basis_gram(0.5, max_index=11, order=40)


def test_mode_tag_validation():
    with pytest.raises(ValueError):
        basis.coefficient_table(3, 0.5, 0.0, 0.0, 4)
