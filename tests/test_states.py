"""Closed-form wave functions, series representations, shifts, Bargmann maps."""

import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from cvsqueeze import basis, phase_space, states, verify
from cvsqueeze.quadrature import ConvergenceError, gauss_hermite
from isb_grid import grid_transform

GEOM = states.OscillatorGeometry(a=1.0, b=1.3)
SKEW_GEOM = states.OscillatorGeometry(a=0.8, b=1.3, hbar=0.7)
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
        norm, _ = verify._norm_integral(1, 0.5, states.OscillatorGeometry(1.0, 1.0), states.DisplacementLabels())
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_mode2_normalization(self):
        geom = states.OscillatorGeometry(a=1.0, b=1.5)
        norm, _ = verify._norm_integral(2, 0.3, geom, states.DisplacementLabels())
        assert norm == pytest.approx(1.0, abs=1e-10)

    def test_normalization_grid(self):
        for k in (1, 2):
            for alpha in (0.2, 0.5, 0.8):
                for (a, b) in [(1.0, 1.0), (1.0, 2.0)]:
                    geom = states.OscillatorGeometry(a=a, b=b)
                    norm, half = verify._norm_integral(k, alpha, geom, LABELS)
                    assert norm == pytest.approx(1.0, abs=1e-9)
                    assert half == pytest.approx(norm, abs=1e-12)

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

    @pytest.mark.parametrize("alpha", [1e-8, 1e-4, 0.3])
    def test_verify_decimal_reference_is_the_50_digit_closed_form(self, alpha):
        # verify's reference runs in 50-digit decimals with a float cos and
        # sin of the phase reduced mod 2 pi: within rounding of the peak of
        # the mpmath transcription, on the points of its check
        geom = states.OscillatorGeometry(0.8, 1.3)
        labels = states.DisplacementLabels(0.3 + 0.2j, -0.1 + 0.4j)
        x1, x2 = principal_bulk(2, alpha, geom, labels, np.linspace(-1.0, 1.0, 3))
        reference = np.vectorize(lambda p, q: mp_wave_function(2, p, q, geom, labels, alpha))(x1, x2)
        decimal = np.vectorize(lambda p, q: verify._mp_wave_function(p, q, geom, labels, alpha))(x1, x2)
        assert np.abs(decimal - reference).max() <= 1e-15 * np.abs(reference).max()

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


# the functions of two positions
BROADCAST_CALLS = [
    lambda x1, x2: states.wave_function(2, x1, x2, GEOM, LABELS, 0.5),
    lambda x1, x2: states.series_expansion(2, 4, x1, x2, GEOM, LABELS, 0.5),
    lambda x1, x2: states.inverse_segal_bargmann(states.bargmann_series(2, 0.5, LABELS, 4), x1, x2, GEOM, order=4),
    lambda x1, x2: states.heisenberg_weyl_shift(
        states.ShiftParams(0.1, 0.2, 0.3, 0.4), states.unshifted_gaussian(2, 0.5, GEOM), x1, x2
    ),
    lambda x1, x2: states.segal_bargmann_kernel(x1, x2, 0.3 + 0.1j, -0.2j, GEOM),
]
BROADCAST_IDS = ["wave_function", "series_expansion", "inverse_segal_bargmann", "heisenberg_weyl_shift",
                 "segal_bargmann_kernel"]


class TestInputDomain:
    @pytest.mark.parametrize("field", ["a", "b", "hbar"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    def test_geometry_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            states.OscillatorGeometry(**{"a": 1.0, "b": 1.0, field: value})

    @pytest.mark.parametrize("field", ["a", "b", "hbar"])
    def test_geometry_rejects_string(self, field):
        # a string field must not be stored: later arithmetic such as a * 2
        # would repeat it instead of doubling it
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite, got '2'$"):
            states.OscillatorGeometry(**{"a": 1.0, "b": 1.0, field: "2"})

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

    @pytest.mark.parametrize("call", BROADCAST_CALLS, ids=BROADCAST_IDS)
    def test_positions_that_do_not_broadcast_raise(self, call):
        # each used to raise numpy's own message, the transform only after
        # its kernel moments
        with pytest.raises(ValueError, match=r"x1 and x2 must broadcast, got shapes \(3,\) and \(4,\)"):
            call(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("call", BROADCAST_CALLS, ids=BROADCAST_IDS)
    @pytest.mark.parametrize("bad", [0.1 + 5j, np.array([0.1 + 5j]), True, np.array([True]), "0.3", ["0.3"]],
                             ids=repr)
    @pytest.mark.parametrize("name", ["x1", "x2"])
    def test_positions_that_are_not_real_raise(self, call, bad, name):
        # a complex position used to be read at its real part, True as 1.0
        # and "0.3" as 0.3
        positions = {"x1": 0.1, "x2": 0.2, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be real"):
            call(positions["x1"], positions["x2"])

    @pytest.mark.parametrize("call", BROADCAST_CALLS, ids=BROADCAST_IDS)
    def test_real_positions_of_any_number_type(self, call):
        # NumPy integers and floats, and object arrays of Python reals, give
        # the float positions' result
        expected = call(np.array([0.25, 2.0]), 0.5)
        for x1 in ([Fraction(1, 4), 2], np.array([0.25, 2], dtype=object), np.array([0.25, 2.0], np.float32)):
            np.testing.assert_array_equal(call(x1, Fraction(1, 2)), expected)
        np.testing.assert_array_equal(call(np.array([0, 2]), np.int64(1)), call(np.array([0.0, 2.0]), 1.0))

    @pytest.mark.parametrize(
        "call",
        [
            lambda x: states.heisenberg_weyl_shift(
                states.ShiftParams(0.1, 0.2, 0.3, 0.4), states.unshifted_gaussian(2, 0.5, GEOM), x, 0.2
            ),
            lambda x: states.segal_bargmann_kernel(x, 0.2, 0.3 + 0.1j, -0.2j, GEOM),
            lambda x: states.hermite_function_sequence(3, x, 1.0),
        ],
        ids=["heisenberg_weyl_shift", "segal_bargmann_kernel", "hermite_function_sequence"],
    )
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_position_raises(self, call, bad):
        # each used to return NaN: nan+nanj, nan+nanj and [0, nan, nan, nan]
        with pytest.raises(ValueError, match="finite"):
            call(bad)
        with pytest.raises(ValueError, match="finite"):
            call(np.array([0.1, bad]))

    @pytest.mark.parametrize(
        "call",
        [
            lambda x: states.inverse_segal_bargmann(states.bargmann_series(2, 0.5, LABELS, 6), x, 0.2, GEOM),
            lambda x: states.inverse_segal_bargmann(
                states.bargmann_series(1, 0.3, LABELS, 6), 0.2, x, SKEW_GEOM, order=25, check=True
            ),
            lambda x: states.segal_bargmann_kernel(x, 0.0, 0.1, 0.1, GEOM),
            lambda x: states.hermite_function_sequence(3, x, 1.0),
            lambda x: states.series_expansion(2, 10, 0.3, x, GEOM, LABELS, 0.5),
            # the kernel's arguments: w1 real, w2 with both parts huge
            lambda w: states.segal_bargmann_kernel(0.1, 0.2, w, 0.1, GEOM),
            lambda w: states.segal_bargmann_kernel(0.1, 0.2, 0.1, w + 1j * w, GEOM),
        ],
        ids=["inverse_segal_bargmann", "inverse_segal_bargmann-odd-checked", "segal_bargmann_kernel",
             "hermite_function_sequence", "series_expansion",
             "segal_bargmann_kernel-w1", "segal_bargmann_kernel-w2-complex"],
    )
    @pytest.mark.parametrize("huge", [1e160, -1e160, 1e300, -1e300, 1.5e308, -1.5e308, 1.7e308, -1.7e308])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_position_is_an_exact_zero(self, call, huge):
        # the Gaussian in the position underflows to 0, the exact limit; its
        # square used to overflow with a RuntimeWarning, an error here.  Near
        # the float64 maximum, b x or sqrt(2) a x overflowed to inf, and inf
        # times that 0 gave NaN.  The kernel's arguments overflowed the same
        # way, in their squares and in s w
        assert np.all(call(huge) == 0.0)
        mixed = call(np.array([0.3, huge]))
        np.testing.assert_allclose(mixed[..., 0], call(0.3), rtol=1e-15)
        assert np.all(mixed[..., 1] == 0.0)
        assert np.any(mixed[..., 0] != 0.0)

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
        ],
        ids=[
            "coefficient_table-k2", "coefficient_table-k1", "basis_function_sequence",
            "basis_function_2v_table-m", "basis_function_2v_table-n", "hermite_function_sequence",
            "series_expansion", "bargmann_series",
        ],
    )
    @pytest.mark.parametrize("n", [-1, -3, 2.0])
    def test_bad_truncation_raises(self, call, n):
        with pytest.raises(ValueError, match="nonnegative integer"):
            call(n)


def fock_product(m, n, x1, x2):
    # the product number state (m, n) in position space: one entry of each
    # mode's Hermite function table
    return states.hermite_function_sequence(m, x1, GEOM.a)[m] * states.hermite_function_sequence(n, x2, GEOM.b)[n]


class TestFockPositionBasis:
    def test_ground_value(self):
        expected = math.sqrt(GEOM.a * GEOM.b / math.pi)
        assert fock_product(0, 0, 0.0, 0.0) == pytest.approx(expected, rel=1e-15)

    def test_first_excited_is_odd(self):
        assert fock_product(1, 0, 0.0, 0.4) == 0.0
        left = fock_product(1, 0, -0.3, 0.4)
        right = fock_product(1, 0, 0.3, 0.4)
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

    @pytest.mark.parametrize("a, half_width, bound", [(1.3, 3.0, 1e-15), (2.0, 4.0, 3e-15)])
    def test_hermite_functions_against_40_digits(self, a, half_width, bound):
        # sqrt(2) is folded into each step's coefficient instead of rounding
        # s = sqrt(2) a x once for every step: measured 8.7e-16 and 2.6e-15
        # (1.9e-15 and 8.3e-15 with s rounded once)
        import mpmath as mp

        x = np.linspace(-half_width, half_width, 61)
        expected = np.empty((61, 61))
        with mp.workdps(40):
            for i, xi in enumerate(x.tolist()):
                ax = mp.mpf(a) * mp.mpf(xi)
                gaussian = mp.sqrt(mp.mpf(a)) * mp.pi ** mp.mpf(-0.25) * mp.exp(-ax * ax / 2)
                previous, hermite = mp.mpf(0), mp.mpf(1)
                for n in range(61):
                    expected[n, i] = float(gaussian * hermite / mp.sqrt(2**n * mp.factorial(n)))
                    previous, hermite = hermite, 2 * ax * hermite - 2 * n * previous
        assert np.abs(states.hermite_function_sequence(60, x, a) - expected).max() <= bound


class TestSeriesExpansion:
    def test_lowest_term(self):
        alpha = 0.5
        normalizer = math.exp(-(abs(LABELS.z1) ** 2 + abs(LABELS.z2) ** 2) / 2)
        x1, x2 = 0.3, -0.2
        expected = (
            normalizer
            * basis.coefficient_table(2, alpha, LABELS.z1, LABELS.z2, 0)[0, 0]
            * fock_product(0, 0, x1, x2)
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exponent_opposite_overflows_and_nan_coordinates(self):
        # at (1e305, -1e305) both row products overflow, with opposite signs
        # in one row: inf - inf once gave NaN, but the exponent of a positive
        # definite form is +inf; a NaN coordinate stays NaN on either route
        g = states.unshifted_gaussian(2, 1e-8, states.OscillatorGeometry(1.0, 1.0))
        x1 = np.array([1e305, -1e305, math.nan, -1e305, 0.5])
        x2 = np.array([-1e305, 1e305, 0.0, math.nan, 0.2])
        exponent = g.exponent(x1, x2)
        assert exponent[:2].tolist() == [math.inf, math.inf]
        assert np.isnan(exponent[2:4]).all()
        assert exponent[4] == g.exponent(0.5, 0.2)
        assert g.evaluate(x1[:2], x2[:2]).tolist() == [0.0, 0.0]
        # without an overflow the NaN passes through the common route
        assert math.isnan(g.exponent(math.nan, 0.2)) and math.isnan(g.exponent(0.5, math.nan))

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
        vacuum = states.BargmannSeries(np.ones((1, 1)))
        points = np.array([-1.0, 0.0, 0.7])
        values = states.inverse_segal_bargmann(vacuum, points, points, GEOM, order=24)
        expected = math.sqrt(GEOM.a * GEOM.b / math.pi) * np.exp(
            -((GEOM.a * points) ** 2 + (GEOM.b * points) ** 2) / 2
        )
        np.testing.assert_allclose(values, expected, atol=1e-10)

    def test_linearity(self):
        psi_b = states.bargmann_series(2, 0.5, states.DisplacementLabels(), 6)
        doubled = states.BargmannSeries(2.0 * psi_b.amplitudes)
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
            psi_b = states.BargmannSeries(np.ones((1, 1)))
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
        # the largest arrays are one mode's kernel on the plane, order^2 by
        # that mode's own positions, and the order^2 (n_max + 1) monomial
        # table; no order^2 x order^2 node-pair grid (5.3 MB at order 24,
        # 85 MB at order 48) and no kernel on the broadcast n1 x n2 mesh is built
        for order, n_max, side, bound_mib in [(24, 20, 3, 1), (48, 40, 3, 4), (24, 20, 41, 2)]:
            points = np.linspace(-1.0, 1.0, side)
            psi_b = states.bargmann_series(2, 0.5, LABELS, n_max)
            peak = traced_peak(states.inverse_segal_bargmann, psi_b, points[:, None], points[None, :], GEOM, order)
            assert peak < bound_mib * 2**20, (order, n_max, side)

    def test_peak_memory_cold_cache(self):
        # test_peak_memory's sizes and bounds with the moment table built
        # inside the traced call: 8 (n_max + 1) order^2 bytes, 0.097 MB at
        # (24, 20), 0.74 MB at (48, 40) and 31 MB at (96, 422), where the
        # complex full-plane table held 62 MB at a traced peak of 61.4 MiB
        # (31.6 MiB measured)
        for order, n_max, side, bound_mib in [(24, 20, 3, 1), (48, 40, 3, 4), (24, 20, 41, 2), (96, 422, 3, 33)]:
            points = np.linspace(-1.0, 1.0, side)
            psi_b = states.bargmann_series(2, 0.5, LABELS, n_max)
            states._moment_table.cache_clear()
            peak = traced_peak(states.inverse_segal_bargmann, psi_b, points[:, None], points[None, :], GEOM, order)
            assert peak < bound_mib * 2**20, (order, n_max, side)

    def test_moment_table_cache_is_bounded_and_read_only(self):
        assert states._moment_table.cache_info().maxsize is not None
        # u, the v >= 0 half of the v axis, the u weights, and one real table
        # [Re T | -Im T] of 8 count order^2 bytes (order + 1 columns at an odd order)
        tables = states._moment_table(8, 5)
        assert [t.shape for t in tables] == [(8,), (4,), (8,), (40, 8)]
        assert [t.dtype for t in tables] == [np.float64] * 4
        assert tables[3].nbytes == 8 * 5 * 8**2
        assert states._moment_table(9, 5)[3].shape == (45, 10)
        assert not any(t.flags.writeable for t in tables)
        with pytest.raises(ValueError):
            tables[3][0, 0] = 0.0

    @pytest.mark.parametrize("check", [False, True])
    def test_cold_and_warm_cache_agree_bitwise(self, check):
        # the two modes of a non-square table share the larger mode's entry,
        # one per order: the cold call misses each, the warm call hits each
        psi_b = states.BargmannSeries(states.bargmann_series(2, 0.5, LABELS, 9).amplitudes[:4])
        x1, x2 = np.array([-0.8, 0.3, 1.0]), np.array([0.5, -0.1, 0.0])
        states._moment_table.cache_clear()
        cold = states.inverse_segal_bargmann(psi_b, x1, x2, SKEW_GEOM, order=16, check=check)
        warm = states.inverse_segal_bargmann(psi_b, x1, x2, SKEW_GEOM, order=16, check=check)
        info = states._moment_table.cache_info()
        assert info.hits == info.misses == (2 if check else 1)
        np.testing.assert_array_equal(cold, warm)

    @pytest.mark.parametrize("order, j_max, bound", [(96, 60, 1e-13), (48, 40, 1e-9)])
    @pytest.mark.parametrize("a", [1.0, 1.3])
    def test_kernel_moments_are_hermite_functions(self, a, order, j_max, bound):
        # the transform sends the Bargmann monomial e_j to the Hermite function
        # phi_j, so each mode's row map sqrt(a / sqrt(pi)) / pi M_j(a x) is
        # phi_j(x) up to the plane rule's error, the transform's whole
        # quadrature error: measured at a = 1.3 up to 1.7e-15 at order 96,
        # 1.9e-10 at order 48 (3.7e-9 at j = 60) and 1.4e-5 at j = 20 on the
        # default order 24
        x = np.linspace(-3.0, 3.0, 61)
        rows = states._kernel_moments(a * x, order, j_max + 1) * (math.sqrt(a / math.sqrt(math.pi)) / math.pi)
        expected = states.hermite_function_sequence(j_max, x, a)
        assert np.abs(rows.real - expected).max() <= bound
        assert np.abs(rows.imag).max() <= 1e-15

    def test_convergence_report(self):
        psi_b = states.bargmann_series(2, 0.5, states.DisplacementLabels(), 12)
        with pytest.raises(ConvergenceError):
            states.inverse_segal_bargmann(psi_b, 1.0, 1.0, GEOM, order=4, check=True)

    @pytest.mark.parametrize("order", [4, 16, 24])
    @pytest.mark.parametrize("n_max", [0, 6, 20])
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_node_pair_grid(self, k, alpha, n_max, order):
        # the per-mode moments reorder the grid's tensor sum; n_max 0 is a
        # 1 x 1 table
        psi_b = states.bargmann_series(k, alpha, LABELS, n_max)
        x1, x2 = np.meshgrid([-1.1, 0.0, 0.7], [-0.4, 0.9, 1.6], indexing="ij")
        got = states.inverse_segal_bargmann(psi_b, x1, x2, SKEW_GEOM, order=order)
        expected = grid_transform(psi_b, x1.ravel(), x2.ravel(), SKEW_GEOM, order).reshape(x1.shape)
        assert np.all(np.abs(got - expected) <= 1e-14 * np.maximum(1.0, np.abs(expected)))

    @pytest.mark.parametrize("k, alpha, n_max", [(1, 0.5, 6), (2, 0.5, 6), (2, 0.95, 20)])
    def test_checked_matches_node_pair_grid(self, k, alpha, n_max):
        # check=True returns the value at twice the order
        psi_b = states.bargmann_series(k, alpha, LABELS, n_max)
        x1, x2 = np.array([-0.8, 0.3]), np.array([0.5, -0.1])
        got = states.inverse_segal_bargmann(psi_b, x1, x2, SKEW_GEOM, order=16, check=True)
        expected = grid_transform(psi_b, x1, x2, SKEW_GEOM, 32)
        assert np.all(np.abs(got - expected) <= 1e-14 * np.maximum(1.0, np.abs(expected)))

    @pytest.mark.parametrize("check", [False, True])
    @pytest.mark.parametrize("order", [9, 16, 25])
    def test_folded_rule_matches_node_pair_grid(self, order, check):
        # each mode's moments sum the v >= 0 half of its plane rule in real
        # arithmetic, with folded weights (an odd order's v = 0 node counted
        # once); the grid sums every node pair in complex arithmetic.  With
        # check=True the value is the grid's at twice the order; at order 9
        # the doubling moves it by about 4e-6, and the gap the check reports
        # is the grid's own
        psi_b = states.BargmannSeries(states.bargmann_series(2, 0.5, LABELS, 4).amplitudes[:, :3])
        x1, x2 = np.array([-0.7, 0.0, 0.45]), np.array([0.6, -0.3, 0.0])
        expected = grid_transform(psi_b, x1, x2, SKEW_GEOM, 2 * order if check else order)
        if check and order == 9:
            base = grid_transform(psi_b, x1, x2, SKEW_GEOM, order)
            gap = np.max(np.abs(base - expected) / np.maximum(1.0, np.abs(expected)))
            with pytest.raises(ConvergenceError, match=f"by up to {gap:.3e} relative"):
                states.inverse_segal_bargmann(psi_b, x1, x2, SKEW_GEOM, order=order, check=check)
            return
        got = states.inverse_segal_bargmann(psi_b, x1, x2, SKEW_GEOM, order=order, check=check)
        assert np.all(np.abs(got - expected) <= 1e-14 * np.maximum(1.0, np.abs(expected)))

    def test_non_square_table_matches_node_pair_grid(self):
        psi_b = states.BargmannSeries(states.bargmann_series(2, 0.5, LABELS, 9).amplitudes[:4])
        x1, x2 = np.array([-0.8, 0.3, 1.0]), np.array([0.5, -0.1, 0.0])
        got = states.inverse_segal_bargmann(psi_b, x1, x2, SKEW_GEOM, order=16)
        expected = grid_transform(psi_b, x1, x2, SKEW_GEOM, 16)
        assert np.all(np.abs(got - expected) <= 1e-14 * np.maximum(1.0, np.abs(expected)))

    @pytest.mark.parametrize("n_max", [200, 422])
    def test_truncation_past_factorial_range(self, n_max):
        # 171! overflows a float, so a series built on sqrt(m!) stops at
        # n_max 170; the recurrence for the monomials has no such end
        # at alpha 0.05 the table's norm is within 1e-13 of 1 only from about
        # n_max 200 on
        x1, x2 = np.array([-0.5, 0.0, 0.4]), np.array([0.3, 0.0, -0.6])
        psi_b = states.bargmann_series(2, 0.05, LABELS, n_max)
        assert abs(np.sum(np.abs(psi_b.amplitudes) ** 2) - 1.0) <= 1e-13
        wide = states.inverse_segal_bargmann(psi_b, x1, x2, GEOM)
        narrow = states.inverse_segal_bargmann(states.bargmann_series(2, 0.05, LABELS, 170), x1, x2, GEOM)
        assert np.all(np.isfinite(wide))
        assert np.abs(wide - narrow).max() <= 1e-14

    def test_reconstructs_strong_squeezing_at_high_order(self):
        # at alpha 0.05 the table needs n_max ~ 422 and the plane rule order
        # 96 (measured 1.8e-14 of peak; 6.7e-4 at order 24); the node-pair
        # grid would take 1.4 GB here
        x1, x2 = np.array([-0.5, 0.0, 0.4]), np.array([0.3, 0.0, -0.6])
        psi_b = states.bargmann_series(2, 0.05, LABELS, 422)
        got = states.inverse_segal_bargmann(psi_b, x1, x2, GEOM, order=96)
        exact = states.wave_function(2, x1, x2, GEOM, LABELS, 0.05)
        assert np.abs(got - exact).max() <= 1e-13 * np.abs(exact).max()

    @pytest.mark.parametrize("bad", [lambda w1, w2: np.ones(np.broadcast(w1, w2).shape), np.ones((1, 1)), None])
    def test_rejects_other_representatives(self, bad):
        with pytest.raises(TypeError, match="psi_b"):
            states.inverse_segal_bargmann(bad, 0.0, 0.0, GEOM)

    @pytest.mark.parametrize(
        "table",
        [np.ones(3), np.ones((2, 2, 2)), np.ones((0, 3)), [[1.0, math.nan]], [[math.inf]]],
        ids=["1-D", "3-D", "empty", "nan", "inf"],
    )
    def test_series_rejects_bad_amplitudes(self, table):
        with pytest.raises(ValueError, match="amplitudes"):
            states.BargmannSeries(table)

    def test_series_amplitudes_read_only(self):
        psi_b = states.bargmann_series(2, 0.5, LABELS, 3)
        with pytest.raises(ValueError):
            psi_b.amplitudes[0, 0] = 0.0


class TestSchmidtSpectrum:
    # For a pure state the singular values of the normalized Fock amplitude
    # table are its Schmidt coefficients, and 2 ln of their sum is the
    # logarithmic negativity (Vidal and Werner 2002): the Bargmann-space
    # table against the covariance's symplectic spectrum.
    @staticmethod
    def schmidt_log_negativity(k, alpha, n_max):
        amplitudes = states.bargmann_series(k, alpha, LABELS, n_max).amplitudes
        return 2.0 * math.log(np.linalg.svd(amplitudes, compute_uv=False).sum())

    # n_max leaves a tail mass below 1e-15 of the table's norm
    CASES = [(0.5, 59), (0.3, 80), (0.9, 59)]

    @pytest.mark.parametrize("alpha, n_max", CASES)
    def test_mode2_matches_phase_space(self, alpha, n_max):
        expected = phase_space.log_negativity(phase_space.covariance(2, alpha, GEOM))
        assert self.schmidt_log_negativity(2, alpha, n_max) == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("alpha, n_max", CASES)
    def test_mode1_is_a_product(self, alpha, n_max):
        assert abs(self.schmidt_log_negativity(1, alpha, n_max)) <= 1e-14


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
