"""Squeeze map, basis functions, coefficient families, Gaussian measure."""

import math
import re

import numpy as np
import pytest

from cvsqueeze import basis, hermite
from cvsqueeze.quadrature import _plane_gauss_hermite, gauss_hermite, scaled_gauss_hermite


class TestSqueezeParam:
    def test_no_squeezing(self):
        xi = basis.squeeze_from_alpha(1.0)
        assert type(xi) is float and xi == 0.0

    def test_half(self):
        assert basis.squeeze_from_alpha(0.5) == pytest.approx(math.log(2) / 2, rel=1e-15)

    def test_round_trip(self):
        alpha = math.exp(-2 * 0.8)
        assert basis.squeeze_from_alpha(alpha) == pytest.approx(0.8, rel=1e-14)
        for alpha in np.logspace(-3, 0, 17):
            xi = basis.squeeze_from_alpha(float(alpha))
            assert basis.alpha_from_squeeze(xi) == pytest.approx(float(alpha), rel=1e-14)

    def test_dual_expression(self):
        for alpha in (0.1, 0.37, 0.9):
            xi = basis.squeeze_from_alpha(alpha)
            assert xi == pytest.approx(math.atanh((1 - alpha) / (1 + alpha)), abs=1e-14)

    def test_rejects_out_of_range(self):
        for bad in (0.0, -0.1, 1.0001):
            with pytest.raises(ValueError):
                basis.squeeze_from_alpha(bad)
        with pytest.raises(ValueError, match="^xi must be finite and nonnegative, got -0.5$"):
            basis.alpha_from_squeeze(-0.5)

    @pytest.mark.parametrize("xi", [360.0, 400.0, 1e300])
    def test_rejects_an_alpha_below_the_normal_range(self, xi):
        # exp(-2 xi) was returned as the subnormal 2.03e-313 at 360 and as 0.0 at 400
        with pytest.raises(ValueError, match=rf"^xi = {re.escape(repr(xi))} is too large"):
            basis.alpha_from_squeeze(xi)

    def test_smallest_normal_alpha_round_trips(self):
        xi = basis.squeeze_from_alpha(float(np.finfo(float).tiny))
        assert basis.alpha_from_squeeze(xi) == pytest.approx(float(np.finfo(float).tiny), rel=1e-13)


class TestBasisFunction:
    def test_vacuum_at_origin(self):
        for alpha in (0.2, 0.5, 0.8):
            expected = math.sqrt(2 * math.sqrt(alpha) / (1 + alpha))
            assert basis.basis_function_sequence(0, alpha, 0.0)[0] == pytest.approx(expected, rel=1e-15)

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
            * hermite.hermite_holo_sequence(n, scaled)[n]
        )
        assert basis.basis_function_sequence(n, alpha, z)[n] == pytest.approx(direct, rel=1e-12)

    def test_product_is_first_mode_coefficient(self):
        alpha, z1, z2 = 0.6, 0.3 + 0.2j, -0.5 + 0.1j
        product = basis.basis_function_sequence(1, alpha, z1)[1] * basis.basis_function_sequence(1, alpha, z2)[1]
        assert basis.coefficient_table(1, alpha, z1, z2, 1)[1, 1] == pytest.approx(product, rel=1e-14)

    def test_rejects_alpha_bounds(self):
        for bad in (0.0, 1.0, 1.3):
            with pytest.raises(ValueError):
                basis.basis_function_sequence(2, bad, 0.5)

    def test_overflow_raises(self):
        # exp(beta z^2 / 2) at z = 1e3 is beyond float64, also inside a coefficient
        with pytest.raises(ValueError, match=r"n_max 50, max \|z\| 1000"):
            basis.basis_function_sequence(50, 1e-8, 1e3)
        with pytest.raises(ValueError, match=r"n_max 2, max \|z\| 1000"):
            basis.coefficient_table(1, 1e-8, 1e3, 0, 2)


class TestBasisFunction2v:
    def test_vacuum_at_origin(self):
        for alpha in (0.2, 0.7):
            expected = 2 * math.sqrt(alpha) / (1 + alpha)
            assert basis.basis_function_2v_table(0, 0, alpha, 0.0, 0.0)[0, 0] == pytest.approx(expected, rel=1e-15)

    def test_index_swap_symmetry(self):
        alpha, z1, z2 = 0.45, 0.3 + 0.2j, -0.1 + 0.4j
        for (m, n) in [(0, 2), (2, 1), (3, 3), (5, 2)]:
            assert basis.basis_function_2v_table(m, n, alpha, z1, z2)[m, n] == pytest.approx(
                basis.basis_function_2v_table(n, m, alpha, z2, z1)[n, m], rel=1e-14
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
            * hermite.hermite_complex_2v_table(m, n, scale * z1, scale * z2)[m, n]
        )
        assert basis.basis_function_2v_table(m, n, alpha, z1, z2)[m, n] == pytest.approx(direct, rel=1e-12)

    def test_overflow_raises(self):
        # exp(beta z1 z2) at z1 = z2 = 1e3 is beyond float64
        with pytest.raises(ValueError, match=r"m_max 3, n_max 3, max \|z1\| 1000, max \|z2\| 1000"):
            basis.basis_function_2v_table(3, 3, 1e-8, 1e3, 1e3)
        # the table is finite (largest entry 1.5e198) but its squares are not
        with pytest.raises(ValueError, match=r"n_max 40, max \|z1\| 30, max \|z2\| 30"):
            basis.coefficient_norm_partial(2, 0.5, 30, 30, 40)


def _loop_polynomial_2v_table(m_max, n_max, alpha, z1, z2):
    # reference: the per-entry loop the row-vectorized recurrence replaced
    beta = (1.0 - alpha) / (1.0 + alpha)
    gamma = math.sqrt(beta)
    scale = 2.0 * math.sqrt(alpha) / math.sqrt((1.0 - alpha) * (1.0 + alpha))
    w1 = gamma * scale * z1
    w2 = gamma * scale * z2
    g = np.empty((m_max + 1, n_max + 1) + z1.shape, dtype=complex)
    g[0, 0] = 1.0
    for n in range(n_max):
        g[0, n + 1] = w2 * g[0, n] / math.sqrt(n + 1)
    for m in range(m_max):
        g[m + 1, 0] = w1 * g[m, 0] / math.sqrt(m + 1)
        for n in range(1, n_max + 1):
            g[m + 1, n] = (w1 * g[m, n] - beta * math.sqrt(n) * g[m, n - 1]) / math.sqrt(m + 1)
    return g


def _magnitude_table(m_max, n_max, alpha, z1, z2):
    # the same recurrence on |w1|, |w2| with both terms added: it bounds
    # each entry and the rounding carried into it, also where the entry
    # itself cancels to near zero
    beta = (1.0 - alpha) / (1.0 + alpha)
    c = math.sqrt(beta) * 2.0 * math.sqrt(alpha) / math.sqrt((1.0 - alpha) * (1.0 + alpha))
    t = np.empty((m_max + 1, n_max + 1))
    t[0, 0] = 1.0
    for n in range(n_max):
        t[0, n + 1] = c * abs(z2) * t[0, n] / math.sqrt(n + 1)
    for m in range(m_max):
        t[m + 1, 0] = c * abs(z1) * t[m, 0] / math.sqrt(m + 1)
        for n in range(1, n_max + 1):
            t[m + 1, n] = (c * abs(z1) * t[m, n] + beta * math.sqrt(n) * t[m, n - 1]) / math.sqrt(m + 1)
    return t


TABLE_SHAPES = [(0, 0), (0, 7), (7, 0), (6, 11), (11, 6), (50, 50)]
TABLE_LABELS = [(0.3 + 0.2j, -0.5 + 0.1j), (1.5 - 0.7j, 0.2 + 2.0j), (3.0 + 1.0j, -2.0j)]


class TestPolynomialTableAgainstLoop:
    @pytest.mark.parametrize("m_max, n_max", TABLE_SHAPES)
    @pytest.mark.parametrize("alpha", [0.05, 0.4, 0.999])
    def test_array_arguments_bit_identical(self, m_max, n_max, alpha):
        rng = np.random.default_rng(m_max + 100 * n_max)
        z1 = 1.5 * (rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)))
        z2 = 1.5 * (rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4)))
        z1, z2 = np.broadcast_arrays(z1, z2)
        table = basis._polynomial_2v_table(m_max, n_max, alpha, z1, z2)
        np.testing.assert_array_equal(table, _loop_polynomial_2v_table(m_max, n_max, alpha, z1, z2))

    @pytest.mark.parametrize("m_max, n_max", TABLE_SHAPES)
    @pytest.mark.parametrize("alpha", [0.05, 0.4, 0.999])
    @pytest.mark.parametrize("labels", TABLE_LABELS)
    def test_scalar_arguments_within_rounding(self, m_max, n_max, alpha, labels):
        # scalar z runs the loop through numpy's scalar complex multiply and
        # the rows through the array one, which may round differently
        z1, z2 = np.broadcast_arrays(*(np.asarray(z, dtype=complex) for z in labels))
        table = basis._polynomial_2v_table(m_max, n_max, alpha, z1, z2)
        reference = _loop_polynomial_2v_table(m_max, n_max, alpha, z1, z2)
        degree = np.arange(m_max + 1)[:, None] + np.arange(n_max + 1)[None, :]
        bound = 4 * (degree + 1) * np.finfo(float).eps * _magnitude_table(m_max, n_max, alpha, *labels)
        assert (np.abs(table - reference) <= bound).all()


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
        anchor = abs(basis.basis_function_sequence(0, 0.5, 0.0)[0]) ** 4
        assert full >= anchor
        # ... and sums to the reproducing-kernel diagonal, here exp(0) = 1
        assert full == pytest.approx(1.0, rel=1e-12)

    def test_displaced_tail(self):
        total_80 = basis.coefficient_norm_partial(2, 0.2, 1.0, 1.0, 80)
        total_70 = basis.coefficient_norm_partial(2, 0.2, 1.0, 1.0, 70)
        assert abs(total_80 - total_70) < 1e-8
        assert total_80 == pytest.approx(math.exp(2.0), rel=1e-10)

    def test_sum_above_its_limit_raises(self):
        # the two-index recurrence loses its digits at z1 = z2 = 4: the sum
        # read 5.2e-9 above exp(32) at alpha 0.05, n_max 300, and was returned
        message = "mode-2 .* " + re.escape("alpha 0.05, labels ((4+0j), (4+0j)), n_max 300") + r": .* by 5.\d+e-09"
        with pytest.raises(ValueError, match=message):
            basis.coefficient_norm_partial(2, 0.05, 4, 4, 300)
        # within the bound at n_max 150, where the excess is rounding
        assert basis.coefficient_norm_partial(2, 0.05, 4, 4, 150) <= math.exp(32.0) * (1.0 + basis.NORM_RTOL)

    def test_mode2_degenerates_at_weak_squeezing(self):
        # all excited coefficients scale with ((1-alpha)/(1+alpha))^(m+n)
        alpha = 1 - 1e-6
        table = basis.coefficient_table(2, alpha, 0.0, 0.0, 2)
        ratios = np.abs(table / table[0, 0])
        assert ratios[1, 1] < 1e-6
        assert ratios[2, 2] < 1e-11


class TestGaussianMeasure:
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
    # rounding grows with the degree; measured at most 1.7e-13 at max_index 8
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


def _full_plane_gram(alpha, max_index, order):
    # basis_gram's factored form with the one-plane Gram M summed over every
    # node of the tensor rule, in complex arithmetic
    coeffs = basis._gram_coefficients(max_index)
    nodes, weights = _plane_gauss_hermite(order, 2 * alpha / (1 + alpha), 2 / (1 + alpha))
    e = basis._polynomial_sequence(2 * max_index, alpha, nodes)
    plane = (e * weights) @ e.conj().T
    rotated = (plane.T @ coeffs @ plane).reshape(len(coeffs), -1)
    gram = rotated @ coeffs.reshape(len(coeffs), -1).conj().T
    return gram * (4 * alpha / ((1 + alpha) ** 2 * math.pi**2))


@pytest.mark.parametrize(
    "max_index, order",
    [(m, o) for m in (0, 1, 4, 10, 20) for o in sorted({2 * m + 1, 2 * m + 2, 40, 41}) if o >= max(2, 2 * m + 1)],
)
@pytest.mark.parametrize("alpha", [1e-8, 0.05, 0.5, 1 - 1e-9])
def test_gram_folded_rule_matches_full_plane_rule(alpha, max_index, order):
    # basis_gram sums one quadrant of the plane rule in real arithmetic, odd
    # p + q set to 0; measured within 2.5e-15 of the full rule on these cases
    folded = basis.basis_gram(alpha, max_index, order)
    assert np.abs(folded - _full_plane_gram(alpha, max_index, order)).max() <= 4e-15


@pytest.mark.parametrize("max_index", [4, basis._GRAM_MAX_INDEX])
@pytest.mark.parametrize("alpha", [1e-4, 0.05, 0.3, 0.6, 0.999, 1 - 1e-9])
def test_gram_exact_at_minimal_order(alpha, max_index):
    # 2 * max_index + 1 nodes per axis already integrate exactly
    minimal = basis.basis_gram(alpha, max_index=max_index, order=2 * max_index + 1)
    doubled = basis.basis_gram(alpha, max_index=max_index, order=4 * max_index + 2)
    assert np.abs(minimal - doubled).max() < 1e-13


def test_gram_orthonormality_at_cap():
    # with the alpha-free coefficient matrices, max |G - I| over 33 log-spaced
    # alpha in [1e-8, 1 - 1e-9] was measured at 2.6e-14 at the cap, 20
    cap = basis._GRAM_MAX_INDEX
    for alpha in np.logspace(-8, math.log10(1 - 1e-9), 9):
        gram = basis.basis_gram(alpha, max_index=cap, order=max(40, 2 * cap + 1))
        assert np.abs(gram - np.eye((cap + 1) ** 2)).max() <= 1e-13


def test_gram_rejects_inexact_order():
    with pytest.raises(ValueError, match="not exact"):
        basis.basis_gram(0.5, max_index=4, order=8)
    with pytest.raises(ValueError, match="max_index"):
        basis.basis_gram(0.5, max_index=-1, order=8)
    basis.basis_gram(0.5, max_index=4, order=9)


def test_gram_rejects_index_beyond_measured_accuracy():
    # rounding reaches about 1.5e-13 at max_index 25; 20 is the largest
    # index measured within 3e-14 of the identity
    basis.basis_gram(0.5, max_index=20, order=41)
    with pytest.raises(ValueError, match="max_index"):
        basis.basis_gram(0.5, max_index=21, order=43)


class TestGramCoefficients:
    def test_cache_is_bounded_and_read_only(self):
        assert basis._gram_coefficients.cache_info().maxsize is not None
        coeffs = basis._gram_coefficients(3)
        assert coeffs.shape == (16, 7, 7)
        assert not coeffs.flags.writeable
        with pytest.raises(ValueError):
            coeffs[0, 0, 0] = 2.0

    def test_cold_and_warm_cache_agree_bitwise(self):
        basis._gram_coefficients.cache_clear()
        cold = basis.basis_gram(0.3, 6, 40)
        warm = basis.basis_gram(0.3, 6, 40)
        assert basis._gram_coefficients.cache_info().hits >= 1
        np.testing.assert_array_equal(cold, warm)

    # the beta route's own rounding, measured at 2.5e-15, 5.7e-13 and 1.4e-10
    @pytest.mark.parametrize("max_index, bound", [(4, 5e-15), (10, 1e-12), (15, 3e-10)])
    def test_alpha_free(self, max_index, bound):
        # the two-index recurrence at beta(alpha) gives the matrices cached at
        # beta = 0, over 33 log-spaced alpha in [1e-8, 1 - 1e-9]
        cached = basis._gram_coefficients(max_index)
        for alpha in np.logspace(-8, math.log10(1 - 1e-9), 33):
            beta = (1.0 - alpha) / (1.0 + alpha)
            coeffs = basis._coefficient_matrices(max_index, beta).reshape(cached.shape)
            assert np.abs(coeffs - cached).max() <= bound, alpha

    @pytest.mark.parametrize("max_index, bound", [(4, 1e-14), (10, 1e-13)])
    @pytest.mark.parametrize("alpha", [0.5, 0.05, 1e-4])
    def test_rotation_identity(self, alpha, max_index, bound):
        # basis_function_2v_table(m, n, alpha; z1, z2) is
        # sum C[m, n, p, q] basis_function(p, alpha, a) basis_function(q, alpha, b')
        # at a = (z1 + z2)/sqrt(2), b' = i (z1 - z2)/sqrt(2): the two-variable
        # recurrence at beta(alpha) against the cached beta = 0 matrices, the
        # error scaled by the sum of the terms' moduli
        rng = np.random.default_rng(max_index)
        z1, z2 = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
        size = 2 * max_index + 1
        coeffs = basis._gram_coefficients(max_index).reshape(-1, size * size)
        first = basis.basis_function_sequence(size - 1, alpha, (z1 + z2) / math.sqrt(2.0))
        second = basis.basis_function_sequence(size - 1, alpha, 1j * (z1 - z2) / math.sqrt(2.0))
        products = (first[:, None] * second[None, :]).reshape(size * size, -1)
        table = basis.basis_function_2v_table(max_index, max_index, alpha, z1, z2).reshape(len(coeffs), -1)
        error = np.abs(table - coeffs @ products) / (np.abs(coeffs) @ np.abs(products))
        assert error.max() <= bound

    def test_beam_splitter_statistics(self):
        # |C[m, n, p, q]|^2 is the 50:50 beam splitter's output distribution of
        # (m, n) photons, on p + q = m + n: row (2, 1) is 3/8, 1/8, 1/8, 3/8
        coeffs = basis._gram_coefficients(2).reshape(3, 3, 5, 5)
        row = np.abs(coeffs[2, 1]) ** 2
        np.testing.assert_allclose([row[3 - q, q] for q in range(4)], [3 / 8, 1 / 8, 1 / 8, 3 / 8], atol=1e-15)
        assert row.sum() == pytest.approx(1.0, abs=1e-15)


def test_mode_tag_validation():
    with pytest.raises(ValueError):
        basis.coefficient_table(3, 0.5, 0.0, 0.0, 4)
