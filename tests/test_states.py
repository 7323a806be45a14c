"""Closed-form wave functions, series representations, shifts, Bargmann maps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvsqueeze import basis, states, verify
from cvsqueeze.quadrature import ConvergenceError, gauss_hermite

GEOM = states.OscillatorGeometry(a=1.0, b=1.3)
LABELS = states.DisplacementLabels(z1=0.4 + 0.3j, z2=-0.2 + 0.5j)


def direct_wave_function(k, x1, x2, geom, labels, alpha):
    """The closed forms as one complex exponential on the broadcast grid."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    a, b = geom.a, geom.b
    z1r, z1i = labels.z1.real, labels.z1.imag
    z2r, z2i = labels.z2.real, labels.z2.imag
    if k == 1:
        exponent = (
            -(a * a / (2.0 * alpha)) * np.square(x1 - math.sqrt(2.0 * alpha) * z1r / a)
            - (b * b / (2.0 * alpha)) * np.square(x2 - math.sqrt(2.0 * alpha) * z2r / b)
            + 1j * math.sqrt(2.0 / alpha) * (a * x1 * z1i + b * x2 * z2i)
            - 1j * (z1r * z1i + z2r * z2i)
        )
        return math.sqrt(a * b / (math.pi * alpha)) * np.exp(exponent)
    root = math.sqrt(2.0 * alpha)
    y1 = ((alpha + 1.0) * z1r + (alpha - 1.0) * z2r) / (a * root)
    y2 = ((alpha - 1.0) * z1r + (alpha + 1.0) * z2r) / (b * root)
    exponent = (
        -((1.0 + alpha * alpha) / (4.0 * alpha)) * a * a * np.square(x1 - y1)
        - ((1.0 + alpha * alpha) / (4.0 * alpha)) * b * b * np.square(x2 - y2)
        - ((1.0 - alpha * alpha) / (2.0 * alpha)) * a * b * (x1 - y1) * (x2 - y2)
        - 1j * (z1r * z1i + z2r * z2i)
        + 1j * (a * x1 / root) * ((1.0 + alpha) * z1i + (1.0 - alpha) * z2i)
        + 1j * (b * x2 / root) * ((1.0 + alpha) * z2i + (1.0 - alpha) * z1i)
    )
    return math.sqrt(a * b / math.pi) * np.exp(exponent)


def mp_wave_function(k, x1, x2, geom, labels, alpha):
    """The closed forms in 50-digit arithmetic at one point of float inputs."""
    import mpmath as mp

    with mp.workdps(50):
        a, b, al = mp.mpf(geom.a), mp.mpf(geom.b), mp.mpf(alpha)
        z1r, z1i = mp.mpf(labels.z1.real), mp.mpf(labels.z1.imag)
        z2r, z2i = mp.mpf(labels.z2.real), mp.mpf(labels.z2.imag)
        x1, x2 = mp.mpf(float(x1)), mp.mpf(float(x2))
        if k == 1:
            y1, y2 = mp.sqrt(2 * al) * z1r / a, mp.sqrt(2 * al) * z2r / b
            exponent = (
                -(a * a * (x1 - y1) ** 2 + b * b * (x2 - y2) ** 2) / (2 * al)
                + 1j * mp.sqrt(2 / al) * (a * x1 * z1i + b * x2 * z2i)
                - 1j * (z1r * z1i + z2r * z2i)
            )
            return complex(mp.sqrt(a * b / (mp.pi * al)) * mp.exp(exponent))
        root = mp.sqrt(2 * al)
        y1 = ((al + 1) * z1r + (al - 1) * z2r) / (a * root)
        y2 = ((al - 1) * z1r + (al + 1) * z2r) / (b * root)
        exponent = (
            -(1 + al * al) / (4 * al) * (a * a * (x1 - y1) ** 2 + b * b * (x2 - y2) ** 2)
            - (1 - al * al) / (2 * al) * a * b * (x1 - y1) * (x2 - y2)
            - 1j * (z1r * z1i + z2r * z2i)
            + 1j * (a * x1 / root) * ((1 + al) * z1i + (1 - al) * z2i)
            + 1j * (b * x2 / root) * ((1 + al) * z2i + (1 - al) * z1i)
        )
        return complex(mp.sqrt(a * b / mp.pi) * mp.exp(exponent))


def principal_bulk(k, alpha, geom, labels, steps):
    """Positions y + frame (s, t) on a grid of ``steps`` spreads along each principal axis."""
    state = states.gaussian_state(k, alpha, geom, labels)
    spreads = 1.0 / np.sqrt(2.0 * np.array(state.gaussian.curvatures))
    s, t = spreads[0] * steps[:, None], spreads[1] * steps[None, :]
    (f00, f01), (f10, f11) = state.gaussian.frame
    y1, y2 = state.position_center
    return y1 + f00 * s + f01 * t, y2 + f10 * s + f11 * t


class TestClosedForms:
    def test_mode1_centered_is_plain_gaussian(self):
        alpha = 0.5
        a, b = GEOM.a, GEOM.b
        xs = np.linspace(-2, 2, 7)
        values = states.wave_function(
            1, xs[:, None], xs[None, :], GEOM, states.DisplacementLabels(), alpha
        )
        expected = np.sqrt(a * b / (np.pi * alpha)) * np.exp(
            -(a**2 * xs[:, None] ** 2 + b**2 * xs[None, :] ** 2) / (2 * alpha)
        )
        np.testing.assert_allclose(values, expected, rtol=1e-14)

    def test_mode2_centered_carries_cross_term(self):
        alpha = 0.3
        a, b = GEOM.a, GEOM.b
        x1, x2 = 0.7, -0.4
        value = states.wave_function(2, x1, x2, GEOM, states.DisplacementLabels(), alpha)
        exponent = (
            -(1 + alpha**2) / (4 * alpha) * (a**2 * x1**2 + b**2 * x2**2)
            - (1 - alpha**2) / (2 * alpha) * a * b * x1 * x2
        )
        assert value == pytest.approx(math.sqrt(a * b / math.pi) * math.exp(exponent), rel=1e-14)

    def test_mode1_normalization(self):
        assert verify._norm_integral(1, 0.5, states.OscillatorGeometry(1.0, 1.0), states.DisplacementLabels()) == pytest.approx(1.0, abs=1e-12)

    def test_mode2_normalization(self):
        geom = states.OscillatorGeometry(a=1.0, b=1.5)
        assert verify._norm_integral(2, 0.3, geom, states.DisplacementLabels()) == pytest.approx(1.0, abs=1e-10)

    def test_normalization_grid(self):
        for k in (1, 2):
            for alpha in (0.2, 0.5, 0.8):
                for (a, b) in [(1.0, 1.0), (1.0, 2.0)]:
                    geom = states.OscillatorGeometry(a=a, b=b)
                    assert verify._norm_integral(k, alpha, geom, LABELS) == pytest.approx(1.0, abs=1e-9)

    def test_mode2_transposition_symmetry(self):
        geom = states.OscillatorGeometry(a=1.2, b=1.2)
        swapped = states.DisplacementLabels(z1=LABELS.z2, z2=LABELS.z1)
        xs = np.linspace(-1.5, 1.5, 5)
        for alpha in (0.4, 0.9):
            direct = states.wave_function(2, xs[:, None], xs[None, :], geom, LABELS, alpha)
            transposed = states.wave_function(2, xs[None, :], xs[:, None], geom, swapped, alpha)
            np.testing.assert_allclose(direct, transposed, rtol=1e-13)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            states.wave_function(1, 0.0, 0.0, GEOM, LABELS, 0.0)
        with pytest.raises(ValueError):
            states.wave_function(2, 0.0, 0.0, GEOM, LABELS, 1.2)


class TestFactoredWaveFunction:
    """The per-axis phase form against the single complex exponential."""

    GRIDS = {
        "outer": (np.linspace(-2.0, 2.5, 7)[:, None], np.linspace(-1.5, 2.0, 5)[None, :]),
        "full": tuple(np.meshgrid(np.linspace(-2.0, 2.5, 7), np.linspace(-1.5, 2.0, 5), indexing="ij")),
        "full-by-row": (np.full((7, 5), 0.3), np.linspace(-1.5, 2.0, 5)),
        "scalar": (0.4, -0.7),
    }

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.8, 1.0])
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_direct_transcription(self, k, alpha, grid):
        x1, x2 = self.GRIDS[grid]
        labels = states.DisplacementLabels(0.7 - 0.4j, -0.3 + 0.9j)
        got = states.wave_function(k, x1, x2, GEOM, labels, alpha)
        expected = direct_wave_function(k, x1, x2, GEOM, labels, alpha)
        assert np.shape(got) == np.shape(expected)
        if grid == "scalar":
            assert isinstance(got, complex)
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("alpha", [1e-4, 1e-6])
    @pytest.mark.parametrize("k", [1, 2])
    def test_strong_squeezing_no_less_accurate(self, k, alpha):
        # points within two position spreads of the center along the narrow
        # and the wide axis
        geom = states.OscillatorGeometry(0.8, 1.3)
        labels = states.DisplacementLabels(0.3 + 0.2j, -0.1 + 0.4j)
        x1, x2 = principal_bulk(k, alpha, geom, labels, np.linspace(-2.0, 2.0, 5))
        reference = np.vectorize(lambda p, q: mp_wave_function(k, p, q, geom, labels, alpha))(x1, x2)
        scale = np.abs(reference).max()
        factored = np.abs(states.wave_function(k, x1, x2, geom, labels, alpha) - reference).max()
        direct = np.abs(direct_wave_function(k, x1, x2, geom, labels, alpha) - reference).max()
        assert factored / scale <= direct / scale + 4 * np.finfo(float).eps

    @pytest.mark.parametrize("alpha, bound", [(1e-4, 1e-12), (1e-8, 1e-8)])
    @pytest.mark.parametrize("k", [1, 2])
    def test_strong_squeezing_against_50_digits(self, k, alpha, bound):
        # the raw transcription loses 0.2 of the peak at 1e-8; on the
        # principal axes the rounding of the inputs' magnitude, about
        # eps / alpha, is what remains
        geom = states.OscillatorGeometry(0.8, 1.3)
        labels = states.DisplacementLabels(0.3 + 0.2j, -0.1 + 0.4j)
        x1, x2 = principal_bulk(k, alpha, geom, labels, np.linspace(-2.0, 2.0, 5))
        reference = np.vectorize(lambda p, q: mp_wave_function(k, p, q, geom, labels, alpha))(x1, x2)
        error = np.abs(states.wave_function(k, x1, x2, geom, labels, alpha) - reference).max()
        assert error <= bound * np.abs(reference).max()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        k=st.sampled_from([1, 2]),
        log_alpha=st.floats(-8.0, 0.0),
        sides=st.sampled_from([(1.0, 1.0), (0.8, 1.3), (1.7, 0.6)]),
        hbar=st.sampled_from([0.5, 1.0, 2.0]),
        parts=st.tuples(*[st.floats(-1.0, 1.0)] * 4),
    )
    def test_matches_translation_route(self, k, log_alpha, sides, hbar, parts):
        # the closed form against heisenberg_weyl_shift of the centered
        # Gaussian: the moduli are the same Gaussian at x - y, so the two
        # differ by the rounding of their phases, a few eps times the
        # largest phase term |q . x| / hbar, which grows like 1 / alpha
        alpha = 10.0**log_alpha
        geom = states.OscillatorGeometry(*sides, hbar=hbar)
        labels = states.DisplacementLabels(complex(parts[0], parts[1]), complex(parts[2], parts[3]))
        x1, x2 = principal_bulk(k, alpha, geom, labels, np.linspace(-2.0, 2.0, 5))
        shift = states.shift_params(k, alpha, geom, labels)
        rebuilt = states.heisenberg_weyl_shift(shift, states.unshifted_gaussian(k, alpha, geom), x1, x2, hbar)
        direct = states.wave_function(k, x1, x2, geom, labels, alpha)
        phase_size = (
            np.abs(shift.q1 * x1) + np.abs(shift.q2 * x2) + abs(shift.q1 * shift.y1) + abs(shift.q2 * shift.y2)
        ) / hbar
        peak = states.unshifted_gaussian(k, alpha, geom).norm_prefactor
        bound = 8 * np.finfo(float).eps * (1.0 + phase_size.max()) * peak
        assert np.abs(direct - rebuilt).max() <= bound


class TestInputDomain:
    @pytest.mark.parametrize("field", ["a", "b", "hbar"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    def test_geometry_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            states.OscillatorGeometry(**{"a": 1.0, "b": 1.0, field: value})

    @pytest.mark.parametrize(
        "call",
        [
            lambda x1, x2: states.wave_function(2, x1, x2, GEOM, LABELS, 0.5),
            lambda x1, x2: states.series_expansion(2, 4, x1, x2, GEOM, LABELS, 0.5),
            lambda x1, x2: states.inverse_segal_bargmann(
                states.bargmann_series(2, 0.5, LABELS, 4), x1, x2, GEOM, order=4
            ),
        ],
        ids=["wave_function", "series_expansion", "inverse_segal_bargmann"],
    )
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_positions_raise(self, call, bad):
        with pytest.raises(ValueError, match="finite"):
            call(bad, 0.2)
        with pytest.raises(ValueError, match="finite"):
            call(np.array([0.1, 0.3]), np.array([[0.2], [bad]]))

    @pytest.mark.parametrize(
        "call",
        [
            lambda x: states.heisenberg_weyl_shift(
                states.ShiftParams(0.1, 0.2, 0.3, 0.4), states.unshifted_gaussian(2, 0.5, GEOM), x, 0.2
            ),
            lambda x: states.segal_bargmann_kernel(x, 0.2, 0.3 + 0.1j, -0.2j, GEOM),
            lambda x: states.fock_position_basis(2, 1, x, 0.2, GEOM),
            lambda x: states.hermite_function_sequence(3, x, 1.0),
        ],
        ids=["heisenberg_weyl_shift", "segal_bargmann_kernel", "fock_position_basis", "hermite_function_sequence"],
    )
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_position_raises(self, call, bad):
        # each used to return NaN: nan+nanj, nan+nanj, nan and [0, nan, nan, nan]
        with pytest.raises(ValueError, match="finite"):
            call(bad)
        with pytest.raises(ValueError, match="finite"):
            call(np.array([0.1, bad]))

    @pytest.mark.parametrize(
        "call",
        [
            lambda n: basis.coefficient_table(2, 0.5, 0.1, 0.2j, n),
            lambda n: basis.coefficient_table(1, 0.5, 0.1, 0.2j, n),
            lambda n: basis.basis_function_sequence(n, 0.5, 0.1),
            lambda n: basis.basis_function_2v_table(n, 2, 0.5, 0.1, 0.2j),
            lambda n: basis.basis_function_2v_table(2, n, 0.5, 0.1, 0.2j),
            lambda n: states.hermite_function_sequence(n, 0.3, 1.0),
            lambda n: states.series_expansion(2, n, 0.1, 0.2, GEOM, LABELS, 0.5),
            lambda n: states.bargmann_series(2, 0.5, LABELS, n),
            lambda n: states.fock_position_basis(n, 1, 0.1, 0.2, GEOM),
        ],
        ids=[
            "coefficient_table-k2", "coefficient_table-k1", "basis_function_sequence",
            "basis_function_2v_table-m", "basis_function_2v_table-n", "hermite_function_sequence",
            "series_expansion", "bargmann_series", "fock_position_basis",
        ],
    )
    @pytest.mark.parametrize("n", [-1, -3, 2.0])
    def test_bad_truncation_raises(self, call, n):
        with pytest.raises(ValueError, match="nonnegative integer"):
            call(n)


class TestFockPositionBasis:
    def test_ground_value(self):
        expected = math.sqrt(GEOM.a * GEOM.b / math.pi)
        assert states.fock_position_basis(0, 0, 0.0, 0.0, GEOM) == pytest.approx(expected, rel=1e-15)

    def test_first_excited_is_odd(self):
        assert states.fock_position_basis(1, 0, 0.0, 0.4, GEOM) == 0.0
        left = states.fock_position_basis(1, 0, -0.3, 0.4, GEOM)
        right = states.fock_position_basis(1, 0, 0.3, 0.4, GEOM)
        assert left == pytest.approx(-right, rel=1e-14)

    def test_orthonormality_by_quadrature(self):
        # Gauss-Hermite in the scaled coordinates is exact for these products
        nodes, weights = gauss_hermite(24)
        x1 = nodes / GEOM.a
        x2 = nodes / GEOM.b
        f1 = states.hermite_function_sequence(5, x1, GEOM.a)
        f2 = states.hermite_function_sequence(5, x2, GEOM.b)
        corr = np.exp(nodes**2) * weights
        gram1 = np.einsum("mi,ni,i->mn", f1, f1, corr) / GEOM.a
        gram2 = np.einsum("mi,ni,i->mn", f2, f2, corr) / GEOM.b
        np.testing.assert_allclose(gram1, np.eye(6), atol=1e-9)
        np.testing.assert_allclose(gram2, np.eye(6), atol=1e-9)


class TestSeriesExpansion:
    def test_lowest_term(self):
        alpha = 0.5
        from cvsqueeze.basis import coefficient

        normalizer = math.exp(-(abs(LABELS.z1) ** 2 + abs(LABELS.z2) ** 2) / 2)
        x1, x2 = 0.3, -0.2
        expected = (
            normalizer
            * coefficient(2, 0, 0, alpha, LABELS.z1, LABELS.z2)
            * states.fock_position_basis(0, 0, x1, x2, GEOM)
        )
        assert states.series_expansion(2, 0, x1, x2, GEOM, LABELS, alpha) == pytest.approx(
            expected, rel=1e-14
        )

    @pytest.mark.parametrize("k", [1, 2])
    def test_converges_to_closed_form(self, k):
        grid = np.linspace(-3, 3, 21)
        labels = states.DisplacementLabels(0.2 + 0.1j, -0.1 + 0.15j)
        approx = states.series_expansion(k, 50, grid[:, None], grid[None, :], GEOM, labels, 0.5)
        exact = states.wave_function(k, grid[:, None], grid[None, :], GEOM, labels, 0.5)
        assert np.abs(approx - exact).max() < 1e-7

    @pytest.mark.parametrize("k", [1, 2])
    def test_pointwise_cross_check(self, k):
        value = states.series_expansion(k, 50, 0.4, -0.7, GEOM, LABELS, 0.5)
        exact = states.wave_function(k, 0.4, -0.7, GEOM, LABELS, 0.5)
        assert value == pytest.approx(exact, abs=1e-8)

    def test_monotone_sup_norm(self):
        grid = np.linspace(-2.5, 2.5, 15)
        exact = states.wave_function(2, grid[:, None], grid[None, :], GEOM, LABELS, 0.45)
        gaps = []
        for n_max in (15, 25, 35, 45):
            approx = states.series_expansion(2, n_max, grid[:, None], grid[None, :], GEOM, LABELS, 0.45)
            gaps.append(np.abs(approx - exact).max())
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))


class TestShifts:
    def test_zero_labels_zero_shifts(self):
        for k in (1, 2):
            params = states.shift_params(k, 0.7, GEOM, states.DisplacementLabels())
            assert params == states.ShiftParams(0.0, 0.0, 0.0, 0.0)

    def test_mode2_weak_squeezing_limit(self):
        labels = states.DisplacementLabels(z1=0.5 + 0.2j, z2=0.3 - 0.4j)
        params = states.shift_params(2, 1.0, GEOM, labels)
        assert params.y1 == pytest.approx(math.sqrt(2) * labels.z1.real / GEOM.a, rel=1e-12)
        assert params.q2 == pytest.approx(
            math.sqrt(2) * GEOM.b * GEOM.hbar * labels.z2.imag, rel=1e-12
        )

    @pytest.mark.parametrize("k", [1, 2])
    def test_reconstruction(self, k):
        xs = np.linspace(-2.5, 2.5, 9)
        for alpha in (0.3, 0.8):
            params = states.shift_params(k, alpha, GEOM, LABELS)
            centered = states.unshifted_gaussian(k, alpha, GEOM)
            rebuilt = states.heisenberg_weyl_shift(
                params, centered.evaluate, xs[:, None], xs[None, :], GEOM.hbar
            )
            direct = states.wave_function(k, xs[:, None], xs[None, :], GEOM, LABELS, alpha)
            assert np.abs(rebuilt - direct).max() < 1e-12

    def test_identity_shift(self):
        f = states.unshifted_gaussian(2, 0.5, GEOM).evaluate
        value = states.heisenberg_weyl_shift(states.ShiftParams(0, 0, 0, 0), f, 0.3, 0.8, 1.0)
        assert value == pytest.approx(f(0.3, 0.8), rel=1e-15)

    def test_weyl_composition_phase(self):
        # two translations compose into the summed translation times a
        # phase, so the moduli agree pointwise
        f = states.unshifted_gaussian(1, 0.6, GEOM).evaluate
        first = states.ShiftParams(0.4, -0.2, 0.3, 0.1)
        second = states.ShiftParams(-0.1, 0.5, -0.6, 0.2)
        combined = states.ShiftParams(0.3, 0.3, -0.3, 0.3)
        for (x1, x2) in [(0.0, 0.0), (0.7, -0.4), (-1.1, 0.6)]:
            twice = states.heisenberg_weyl_shift(
                second,
                lambda u1, u2: states.heisenberg_weyl_shift(first, f, u1, u2, GEOM.hbar),
                x1,
                x2,
                GEOM.hbar,
            )
            once = states.heisenberg_weyl_shift(combined, f, x1, x2, GEOM.hbar)
            assert abs(twice) == pytest.approx(abs(once), rel=1e-12)


class TestUnshiftedGaussian:
    def test_mode1_matrix(self):
        g = states.unshifted_gaussian(1, 0.5, states.OscillatorGeometry(1.0, 1.0))
        np.testing.assert_allclose(g.matrix, np.diag([2.0, 2.0]), rtol=1e-15)

    def test_mode2_determinant_invariant(self):
        for alpha in (0.1, 0.5, 0.9):
            g = states.unshifted_gaussian(2, alpha, GEOM)
            assert np.linalg.det(g.matrix) == pytest.approx((GEOM.a * GEOM.b) ** 2, rel=1e-12)

    def test_mode2_weak_squeezing_diagonal(self):
        g = states.unshifted_gaussian(2, 1.0, GEOM)
        np.testing.assert_allclose(g.matrix, np.diag([GEOM.a**2, GEOM.b**2]), atol=1e-15)

    def test_normalized(self):
        g = states.unshifted_gaussian(2, 0.4, GEOM)
        xs = np.linspace(-8, 8, 801)
        density = np.abs(g.evaluate(xs[:, None], xs[None, :])) ** 2
        total = np.trapezoid(np.trapezoid(density, xs, axis=1), xs)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_positive_definite(self):
        # positive definiteness follows from finite positive curvatures and
        # a finite nonsingular frame, and nothing else is admitted
        frame = np.array([[1.0, 1.0], [1.0, -1.0]])
        for curvatures in [(1.0, 0.0), (-1.0, 2.0), (math.inf, 1.0), (1.0, math.nan)]:
            with pytest.raises(ValueError, match="curvatures"):
                states.QuadraticGaussian(frame, curvatures)
        for bad in [np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([[math.inf, 0.0], [0.0, 1.0]]), np.eye(3)]:
            with pytest.raises(ValueError, match="frame"):
                states.QuadraticGaussian(bad, (1.0, 1.0))

    def test_matrix_is_derived(self):
        g = states.unshifted_gaussian(2, 0.3, GEOM)
        frame, kappa = g.frame, np.array(g.curvatures)
        np.testing.assert_allclose(frame.T @ g.matrix @ frame, np.diag(kappa), rtol=1e-14, atol=1e-14)
        with pytest.raises(AttributeError):
            g.matrix = np.eye(2)

    def test_strong_squeezing_constructs(self):
        # the raw matrix failed its eigenvalue check here
        g = states.unshifted_gaussian(2, 1e-8, states.OscillatorGeometry(0.8, 1.3))
        assert g.curvatures == (1e8, 1e-8)
        assert np.isfinite(g.evaluate(0.0, 0.0))

    @pytest.mark.parametrize("sides", [(1.0, 1.0), (0.8, 1.3)])
    def test_mode2_norm_prefactor_exact(self, sides):
        # det M = a^2 b^2 at every alpha; np.linalg.det of the raw matrix
        # gave 0.56370 against 0.56419 at alpha 1e-7 on (1, 1)
        a, b = sides
        g = states.unshifted_gaussian(2, 1e-7, states.OscillatorGeometry(a, b))
        assert g.norm_prefactor == pytest.approx(math.sqrt(a * b / math.pi), rel=1e-15, abs=0.0)


class TestSegalBargmannKernel:
    def test_zero_coefficient_argument(self):
        x1, x2 = 0.6, -0.9
        expected = math.sqrt(GEOM.a * GEOM.b / math.pi) * math.exp(
            -((GEOM.a * x1) ** 2 + (GEOM.b * x2) ** 2) / 2
        )
        assert states.segal_bargmann_kernel(x1, x2, 0.0, 0.0, GEOM) == pytest.approx(
            expected, rel=1e-15
        )

    def test_holomorphic_after_weight_strip(self):
        # Cauchy-Riemann residual of K exp(+|w1|^2 + |w2|^2) in w1
        x1, x2 = 0.4, 0.2
        w2 = 0.3 - 0.1j
        step = 1e-5

        def stripped(w1):
            return states.segal_bargmann_kernel(x1, x2, w1, w2, GEOM) * np.exp(
                abs(w1) ** 2 + abs(w2) ** 2
            )

        w1 = 0.5 + 0.7j
        du = (stripped(w1 + step) - stripped(w1 - step)) / (2 * step)
        dv = (stripped(w1 + 1j * step) - stripped(w1 - 1j * step)) / (2 * step)
        assert abs(du + 1j * dv) < 1e-8

    def test_gaussian_decay_in_position(self):
        w1, w2 = 0.4 + 0.1j, -0.2 + 0.3j
        small = abs(states.segal_bargmann_kernel(6.0, -6.0, w1, w2, GEOM))
        large = abs(states.segal_bargmann_kernel(1.0, -1.0, w1, w2, GEOM))
        assert small < 1e-8 * large


class TestInverseSegalBargmann:
    def test_vacuum_reproduces_ground_state(self):
        def vacuum(w1, w2):
            return np.ones(np.broadcast(w1, w2).shape, dtype=complex)

        points = np.array([-1.0, 0.0, 0.7])
        values = states.inverse_segal_bargmann(vacuum, points, points, GEOM, order=24)
        expected = math.sqrt(GEOM.a * GEOM.b / math.pi) * np.exp(
            -((GEOM.a * points) ** 2 + (GEOM.b * points) ** 2) / 2
        )
        np.testing.assert_allclose(values, expected, atol=1e-10)

    def test_linearity(self):
        psi_b = states.bargmann_series(2, 0.5, states.DisplacementLabels(), 6)

        def doubled(w1, w2):
            return 2.0 * psi_b(w1, w2)

        single = states.inverse_segal_bargmann(psi_b, 0.4, -0.3, GEOM, order=16)
        double = states.inverse_segal_bargmann(doubled, 0.4, -0.3, GEOM, order=16)
        assert double == pytest.approx(2.0 * single, rel=1e-13)

    def test_mode2_series_matches_closed_form(self):
        labels = states.DisplacementLabels()
        psi_b = states.bargmann_series(2, 0.5, labels, 12)
        x1 = np.array([-1.0, -0.4, 0.0, 0.6, 1.2])
        x2 = x1[::-1].copy()
        approx = states.inverse_segal_bargmann(psi_b, x1, x2, GEOM, order=24)
        exact = states.wave_function(2, x1, x2, GEOM, labels, 0.5)
        assert np.abs(approx - exact).max() < 1e-5

    def test_small_labels(self):
        labels = states.DisplacementLabels(0.1 + 0.05j, -0.1j)
        psi_b = states.bargmann_series(1, 0.5, labels, 24)
        approx = states.inverse_segal_bargmann(psi_b, 0.5, -0.2, GEOM, order=24)
        exact = states.wave_function(1, 0.5, -0.2, GEOM, labels, 0.5)
        assert approx == pytest.approx(exact, abs=1e-5)

    def test_bargmann_series_is_the_double_sum(self):
        from cvsqueeze.basis import coefficient_table

        n_max = 9
        psi_b = states.bargmann_series(2, 0.4, LABELS, n_max)
        phi = coefficient_table(2, 0.4, LABELS.z1, LABELS.z2, n_max)
        phi = phi * math.exp(-0.5 * (abs(LABELS.z1) ** 2 + abs(LABELS.z2) ** 2))
        w1 = np.array([0.3 - 0.2j, -0.5j, 1.1 + 0.4j])[:, None]
        w2 = np.array([0.0, 0.7 + 0.1j, -0.4 + 0.9j, 0.2])
        expected = sum(
            phi[m, n] * np.conj(w1) ** m * np.conj(w2) ** n / math.sqrt(math.factorial(m) * math.factorial(n))
            for m in range(n_max + 1)
            for n in range(n_max + 1)
        )
        got = psi_b(w1, w2)
        assert got.shape == (3, 4)
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-15)
        full1, full2 = np.broadcast_arrays(w1, w2)
        np.testing.assert_allclose(psi_b(full1, full2), expected, rtol=1e-13, atol=1e-15)
        assert psi_b(w1[1, 0], w2[2]) == pytest.approx(expected[1, 2], rel=1e-13)

    @pytest.mark.parametrize("source", ["bargmann_series", "vacuum"])
    def test_points_at_once_match_point_by_point(self, source):
        if source == "vacuum":
            def psi_b(w1, w2):
                return np.ones(np.broadcast(w1, w2).shape, dtype=complex)
        else:
            psi_b = states.bargmann_series(2, 0.5, LABELS, 12)
        x1 = np.array([-1.0, -0.3, 0.0, 0.8])[:, None]
        x2 = np.array([-0.6, 0.2, 1.1])[None, :]
        batched = states.inverse_segal_bargmann(psi_b, x1, x2, GEOM, order=16)
        assert batched.shape == (4, 3)
        for i, p in enumerate(x1[:, 0]):
            for j, q in enumerate(x2[0]):
                single = states.inverse_segal_bargmann(psi_b, p, q, GEOM, order=16)
                assert isinstance(single, complex)
                assert abs(batched[i, j] - single) <= 1e-15

    def test_peak_memory(self):
        # the order^2 x order^2 node grid (5.3 MB at order 24) is the largest
        # array; the (n_max + 1) order^4 power tensor is never built
        import tracemalloc

        psi_b = states.bargmann_series(2, 0.5, LABELS, 20)
        points = np.array([-1.0, 0.0, 1.0])
        tracemalloc.start()
        try:
            states.inverse_segal_bargmann(psi_b, points[:, None], points[None, :], GEOM, order=24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_convergence_report(self):
        psi_b = states.bargmann_series(2, 0.5, states.DisplacementLabels(), 12)
        with pytest.raises(ConvergenceError):
            states.inverse_segal_bargmann(psi_b, 1.0, 1.0, GEOM, order=4, check=True, rtol=1e-12)


class TestFactorization:
    def test_mode1_factorizes_mode2_does_not(self):
        alpha = 0.45
        step = 0.1
        point = (0.4, -0.3)

        def cross_curvature(k):
            values = {}
            for s1 in (-1, 1):
                for s2 in (-1, 1):
                    psi = states.wave_function(
                        k, point[0] + s1 * step, point[1] + s2 * step, GEOM, LABELS, alpha
                    )
                    values[(s1, s2)] = math.log(abs(psi))
            return (
                values[(1, 1)] - values[(1, -1)] - values[(-1, 1)] + values[(-1, -1)]
            ) / (4 * step**2)

        assert abs(cross_curvature(1)) < 1e-10
        expected = -(1 - alpha**2) * GEOM.a * GEOM.b / (2 * alpha)
        assert cross_curvature(2) == pytest.approx(expected, rel=1e-9)
