"""Polynomial families against explicit-sum and generating-function oracles."""

import math

import numpy as np
import pytest

from cvsqueeze import hermite, verify


def explicit_sum(n, z):
    """Terminating series oracle, written out independently of the recurrence."""
    total = 0.0 + 0.0j
    for m in range(n // 2 + 1):
        total += (-1) ** m * (2 * z) ** (n - 2 * m) / (
            math.factorial(m) * math.factorial(n - 2 * m)
        )
    return math.factorial(n) * total


def two_index_sum(m, n, z1, z2):
    """Binomial-sum oracle for the two-index family."""
    return sum(
        math.comb(m, k) * math.comb(n, k) * (-1) ** k * math.factorial(k)
        * z1 ** (m - k) * z2 ** (n - k)
        for k in range(min(m, n) + 1)
    )


class TestRealAndHolo:
    def test_low_orders(self):
        assert hermite.hermite_real(0, 0.37) == 1.0
        assert hermite.hermite_real(1, 2.0) == 4.0
        assert hermite.hermite_holo(0, 5.0 - 2.0j) == 1.0 + 0.0j
        z = 0.3 + 0.8j
        assert hermite.hermite_holo(2, z) == pytest.approx(4 * z * z - 2)

    def test_real_against_explicit_sum(self):
        # frozen from the sum oracle; the comparison grid keeps |x| moderate
        # because the alternating sum itself loses digits for large argument
        assert hermite.hermite_real(10, 1.3) == pytest.approx(-66123.41303306246, rel=1e-12)
        for n in range(26):
            for x in (-2.1, -0.4, 0.9, 1.8):
                assert hermite.hermite_real(n, x) == pytest.approx(
                    explicit_sum(n, x).real, rel=1e-11, abs=1e-11
                )

    def test_holo_against_truncated_sum(self):
        value = hermite.hermite_holo(7, 0.4 + 0.9j)
        assert value == pytest.approx(-4827.9468544 - 1778.2943616j, rel=1e-12)
        for n in range(26):
            for z in (0.4 + 0.9j, -1.2 + 0.5j, 2.0 - 1.0j):
                assert hermite.hermite_holo(n, z) == pytest.approx(explicit_sum(n, z), rel=1e-11)

    def test_vectorized(self):
        xs = np.linspace(-2, 2, 7)
        values = hermite.hermite_real(4, xs)
        assert values.shape == xs.shape
        assert values[3] == pytest.approx(explicit_sum(4, 0.0).real)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            hermite.hermite_real(-1, 0.0)

    def test_overflow_raises(self):
        # H_200(50) is about 1e418, beyond float64
        with pytest.raises(ValueError, match=r"n_max 200, max \|z\| 50"):
            hermite.hermite_holo_sequence(200, 50.0)
        with pytest.raises(ValueError, match=r"m_max 200, n_max 200, max \|z1\| 50, max \|z2\| 50"):
            hermite.hermite_complex_2v_table(200, 200, 50, 50)


class TestTwoIndexFamily:
    def test_trivial(self):
        z1, z2 = 0.7 - 0.1j, -0.2 + 0.9j
        assert hermite.hermite_complex_2v(0, 0, z1, z2) == 1.0
        assert hermite.hermite_complex_2v(1, 1, z1, z2) == pytest.approx(z1 * z2 - 1)

    def test_against_binomial_sum(self):
        value = hermite.hermite_complex_2v(3, 2, 0.5 - 0.2j, 1.1 + 0.3j)
        assert value == pytest.approx(1.42052 - 0.37414j, rel=1e-12)
        for (m, n) in [(2, 5), (4, 4), (6, 3), (7, 7)]:
            z1, z2 = 0.8 + 0.2j, -0.4 + 0.6j
            assert hermite.hermite_complex_2v(m, n, z1, z2) == pytest.approx(
                two_index_sum(m, n, z1, z2), rel=1e-12
            )

    def test_index_swap_symmetry(self):
        z1, z2 = 1.3 - 0.4j, 0.2 + 0.7j
        for (m, n) in [(0, 4), (2, 3), (5, 1), (6, 6)]:
            assert hermite.hermite_complex_2v(m, n, z1, z2) == pytest.approx(
                hermite.hermite_complex_2v(n, m, z2, z1), rel=1e-14
            )

    def test_generating_function_coefficients(self):
        # extract H_{m,n} from exp(s z1 + t z2 - s t) by central differencing;
        # float64 difference quotients balance truncation against roundoff
        # near 1e-4 relative, so this is a 3-digit confirmation (verify reads
        # the coefficients off a float64 contour rule instead, at 1e-12)
        z1, z2 = 0.5 - 0.2j, 1.1 + 0.3j
        step = 0.02
        for (m, n) in [(1, 1), (2, 1), (3, 2), (2, 3)]:
            total = 0.0 + 0.0j
            for k in range(m + 1):
                for l in range(n + 1):
                    weight = (-1) ** (k + l) * math.comb(m, k) * math.comb(n, l)
                    s = (m / 2 - k) * step
                    t = (n / 2 - l) * step
                    total += weight * np.exp(s * z1 + t * z2 - s * t)
            approx = total / step ** (m + n)
            assert approx == pytest.approx(hermite.hermite_complex_2v(m, n, z1, z2), rel=1e-3)


    def test_contour_table_is_the_explicit_sum(self):
        # the suite reads H_{m,n} off the trapezoid rule on a torus in
        # float64; every entry must match the binomial sum, taken in 50
        # digits, to 1e-13 relative to max(1, |H|) (worst measured 1.9e-14)
        import mpmath as mp

        z1, z2 = 0.6 + 0.4j, -0.3 + 0.8j
        table = verify._contour_table(6, 6, z1, z2)
        with mp.workdps(50):
            w1, w2 = mp.mpc(z1.real, z1.imag), mp.mpc(z2.real, z2.imag)
            reference = np.array([[complex(two_index_sum(m, n, w1, w2)) for n in range(7)] for m in range(7)])
        assert table.shape == (7, 7)
        assert np.all(np.abs(table - reference) <= 1e-13 * np.maximum(1.0, np.abs(reference)))


def loop_two_index_table(m_max, n_max, z1, z2):
    """Reference: the per-entry loop the row-vectorized recurrence replaced."""
    table = np.empty((m_max + 1, n_max + 1), dtype=complex)
    table[0, 0] = 1.0
    for n in range(n_max):
        table[0, n + 1] = z2 * table[0, n]
    for m in range(m_max):
        table[m + 1, 0] = z1 * table[m, 0]
        for n in range(1, n_max + 1):
            table[m + 1, n] = z1 * table[m, n] - n * table[m, n - 1]
    return table


def magnitude_table(m_max, n_max, z1, z2):
    """The recurrence on |z1|, |z2| with both terms added: it bounds each
    entry and the rounding carried into it, also where an entry cancels."""
    table = np.empty((m_max + 1, n_max + 1))
    table[0, 0] = 1.0
    for n in range(n_max):
        table[0, n + 1] = abs(z2) * table[0, n]
    for m in range(m_max):
        table[m + 1, 0] = abs(z1) * table[m, 0]
        for n in range(1, n_max + 1):
            table[m + 1, n] = abs(z1) * table[m, n] + n * table[m, n - 1]
    return table


class TestTwoIndexTableAgainstLoop:
    @pytest.mark.parametrize("m_max, n_max", [(0, 0), (0, 7), (7, 0), (6, 11), (11, 6), (50, 50)])
    @pytest.mark.parametrize(
        "z1, z2", [(0.3 + 0.2j, -0.5 + 0.1j), (1.5 - 0.7j, 0.2 + 2.0j), (3.0 + 1.0j, -2.0j), (0.0, 0.0)]
    )
    def test_within_rounding_of_loop(self, m_max, n_max, z1, z2):
        # the loop multiplies numpy complex scalars, the rows whole arrays,
        # which may round differently in the last place
        table = hermite.hermite_complex_2v_table(m_max, n_max, z1, z2)
        reference = loop_two_index_table(m_max, n_max, complex(z1), complex(z2))
        degree = np.arange(m_max + 1)[:, None] + np.arange(n_max + 1)[None, :]
        bound = 4 * (degree + 1) * np.finfo(float).eps * magnitude_table(m_max, n_max, z1, z2)
        assert (np.abs(table - reference) <= bound).all()


class TestMehlerProduct:
    def test_zero_coupling(self):
        series, closed = hermite.mehler_product(0.0, 1.7 + 0.3j, -0.4j, 25)
        assert series == 1.0
        assert closed == 1.0

    def test_series_converges_inside_disc(self):
        series, closed = hermite.mehler_product(0.5, 1.0, 1.0, 60)
        assert abs(series - closed) < 1e-10

    def test_slow_convergence_near_boundary(self):
        # documents the breakdown of the truncation as |t| -> 1
        series, closed = hermite.mehler_product(0.99, 1.0, 1.0, 60)
        assert abs(series - closed) > 1.0

    def test_rejects_outside_disc(self):
        with pytest.raises(ValueError):
            hermite.mehler_product(1.0, 0.3, 0.3)
        with pytest.raises(ValueError):
            hermite.mehler_product(-1.2, 0.3, 0.3)


class TestMehlerTwoVariable:
    def test_zero_couplings(self):
        series, closed = hermite.mehler_two_variable(0.0, 0.0, 1.0j, 2.0, 0.4, -0.7, 10)
        assert series == 1.0
        assert closed == 1.0

    def test_series_converges(self):
        series, closed = hermite.mehler_two_variable(
            0.4, 0.4, 0.3 + 0.1j, -0.2 + 0.5j, 0.7, -1.1, 50
        )
        assert abs(series - closed) < 1e-9

    def test_single_sum_reduction(self):
        # t = 0 keeps only the n = 0 column, where the two-index polynomial
        # degenerates to a plain power
        s, z1, z2, u = 0.45, 0.6 + 0.2j, -1.0 + 0.4j, 0.9
        series, closed = hermite.mehler_two_variable(s, 0.0, z1, z2, u, 0.3, 40)
        reduction = sum(
            s**m / (math.sqrt(2.0**m) * math.factorial(m))
            * z1**m
            * hermite.hermite_real(m, u)
            for m in range(41)
        )
        assert series == pytest.approx(reduction, rel=1e-12)
        assert closed == pytest.approx(reduction, rel=1e-10)

    def test_rejects_outside_domain(self):
        with pytest.raises(ValueError):
            hermite.mehler_two_variable(2.0, 0.5, 0.1, 0.1, 0.0, 0.0)


class TestOrthogonality:
    def test_vacuum_normalization(self):
        value = hermite.orthogonality_integral(0, 0, 0.5)
        assert value.real == pytest.approx(math.pi * math.sqrt(0.5) / 0.5, rel=1e-12)
        assert abs(value.imag) < 1e-12

    def test_diagonal_closed_form(self):
        value = hermite.orthogonality_integral(4, 4, 0.7)
        assert value.real == pytest.approx(hermite.orthogonality_rhs(4, 4, 0.7), rel=1e-10)

    def test_diagonal_near_no_squeezing(self):
        # the y-axis weight (1 - alpha) / alpha; written 1 / alpha - 1 it
        # cancelled to 3.3e-7 relative error at alpha 1 - 1e-9
        alpha = 1.0 - 1e-9
        value = hermite.orthogonality_integral(5, 5, alpha)
        assert value.real == pytest.approx(hermite.orthogonality_rhs(5, 5, alpha), rel=1e-14)

    def test_off_diagonal_vanishes(self):
        value = hermite.orthogonality_integral(2, 3, 0.3)
        scale = hermite.orthogonality_rhs(3, 3, 0.3)
        assert abs(value) / scale < 1e-8

    def test_full_grid(self):
        for alpha in (0.3, 0.5, 0.7):
            for m in range(11):
                for n in range(m, 11):
                    value = hermite.orthogonality_integral(m, n, alpha)
                    if m == n:
                        assert value.real == pytest.approx(
                            hermite.orthogonality_rhs(n, n, alpha), rel=1e-8
                        )
                    else:
                        scale = hermite.orthogonality_rhs(max(m, n), max(m, n), alpha)
                        assert abs(value) / scale < 1e-8

    @pytest.mark.parametrize("alpha", [1e-3, 0.3, 0.7, 1.0 - 1e-9])
    def test_minimal_exact_order_matches_order_80(self, alpha):
        # the rule at order (m + n) // 2 + 1 against the order-80 one of verify
        reference = hermite._orthogonality_quad(10, alpha, 80)
        for m in range(11):
            for n in range(11):
                scale = hermite.orthogonality_rhs(max(m, n), max(m, n), alpha)
                assert abs(hermite.orthogonality_integral(m, n, alpha) - reference[m, n]) <= 1e-14 * scale

    @pytest.mark.parametrize("alpha", [1e-8, 1e-4, 0.05, 0.5, 0.9, 1.0 - 1e-9])
    def test_closed_form_up_to_index_20(self, alpha):
        # 9.3e-15 at worst over these alphas, relative to sqrt(R_mm R_nn)
        norms = [hermite.orthogonality_rhs(n, n, alpha) for n in range(21)]
        for m in range(21):
            for n in range(21):
                expected = norms[m] if m == n else 0.0
                scale = math.sqrt(norms[m]) * math.sqrt(norms[n])
                assert abs(hermite.orthogonality_integral(m, n, alpha) - expected) <= 2e-14 * scale

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            hermite.orthogonality_integral(1, 1, 1.0)
        with pytest.raises(ValueError):
            hermite.orthogonality_integral(1, 1, 0.0)
