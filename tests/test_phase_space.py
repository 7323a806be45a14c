"""Covariance matrices, symplectic spectra, separability, log-negativity."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from cvsqueeze import phase_space, states

GEOM = states.OscillatorGeometry(a=1.0, b=1.0)
ALPHA_GRID = np.arange(0.05, 1.0, 0.05)


def test_symplectic_form_properties():
    j = phase_space.symplectic_form()
    np.testing.assert_array_equal(j.T, -j)
    np.testing.assert_array_equal(j @ j, -np.eye(4))


class TestWignerGaussian:
    def test_mode1_covariance_closed_form(self):
        alpha, a, b, hbar = 0.4, 1.0, 1.5, 1.0
        geom = states.OscillatorGeometry(a=a, b=b, hbar=hbar)
        cov, _ = phase_space.wigner_gaussian(states.unshifted_gaussian(1, alpha, geom), hbar)
        expected = 0.5 * np.diag(
            [alpha / a**2, alpha / b**2, a**2 * hbar**2 / alpha, b**2 * hbar**2 / alpha]
        )
        np.testing.assert_allclose(cov.sigma, expected, rtol=1e-14)

    def test_mode2_covariance_closed_form(self):
        alpha = 0.5
        cov = phase_space.covariance(2, alpha, GEOM)
        # spelled-out transcription of the expected matrix
        factor = 1.0 / (4 * alpha)
        expected = factor * np.array(
            [
                [1 + alpha**2, alpha**2 - 1, 0, 0],
                [alpha**2 - 1, 1 + alpha**2, 0, 0],
                [0, 0, 1 + alpha**2, 1 - alpha**2],
                [0, 0, 1 - alpha**2, 1 + alpha**2],
            ]
        )
        np.testing.assert_allclose(cov.sigma, expected, rtol=1e-14)
        assert cov.sigma[0, 0] == pytest.approx(0.5 * 1.25)
        assert cov.sigma[0, 1] == pytest.approx(-0.5 * 0.75)

    @pytest.mark.parametrize("hbar", [1e-155, 1e-200, 5e-324])
    def test_peak_overflow_raises(self, hbar):
        # (pi hbar)^-2 overflows below hbar ~ 7.5e-155; the error names hbar
        # instead of an OverflowError escaping from the evaluator
        gaussian = states.unshifted_gaussian(2, 0.5, GEOM)
        with pytest.raises(ValueError, match="hbar"):
            phase_space.wigner_gaussian(gaussian, hbar)

    @pytest.mark.parametrize("alpha", [1 - 1e-9, 1 - 1e-7, 1 - 1e-5, 0.05])
    def test_mode2_covariance_off_diagonal_to_rounding(self, alpha):
        # sigma_01 = -(1 - alpha^2) / (4 alpha a b) against 40 digits; 1 - alpha alpha
        # cancels as alpha nears 1 (5.0e-10 relative off at 1 - 1e-9), the
        # product (1 - alpha)(1 + alpha) does not
        import mpmath as mp

        a, b = 0.8, 1.3
        got = phase_space.covariance(2, alpha, states.OscillatorGeometry(a=a, b=b)).sigma[0, 1]
        with mp.workdps(40):
            al = mp.mpf(alpha)
            expected = -(1 - al * al) / (4 * al * mp.mpf(a) * mp.mpf(b))
            assert abs(mp.mpf(got) - expected) <= 1e-15 * abs(expected)

    def test_dual_path(self):
        for k in (1, 2):
            for alpha in ALPHA_GRID:
                direct = phase_space.covariance(k, float(alpha), GEOM)
                built, _ = phase_space.wigner_gaussian(
                    states.unshifted_gaussian(k, float(alpha), GEOM), GEOM.hbar
                )
                scale = np.abs(direct.sigma).max()
                assert np.abs(direct.sigma - built.sigma).max() <= 1e-13 * scale

    @pytest.mark.parametrize("sides", [(1.0, 1.0), (0.8, 1.3)])
    def test_evaluator_strong_squeezing(self, sides):
        # alpha 1e-8 on bulk points of both principal axes in position and
        # in momentum, against the principal form in 50 digits: u = F^-1 x,
        # v = F^T p, W = (pi hbar)^-2 exp(-sum kappa u^2 - sum v^2 / (kappa hbar^2))
        import mpmath as mp

        alpha, hbar = 1e-8, 0.7
        a, b = sides
        gaussian = states.unshifted_gaussian(2, alpha, states.OscillatorGeometry(a, b, hbar))
        _, evaluator = phase_space.wigner_gaussian(gaussian, hbar)
        frame = np.array([[1 / a, 1 / a], [1 / b, -1 / b]]) / math.sqrt(2.0)
        steps = np.linspace(-1.5, 1.5, 4)
        # position spreads 1/sqrt(2 kappa), momentum spreads hbar sqrt(kappa / 2)
        u = np.stack(np.meshgrid(math.sqrt(alpha / 2) * steps, steps / math.sqrt(2 * alpha)), -1).reshape(-1, 2)
        v = np.stack(np.meshgrid(hbar * steps / math.sqrt(2 * alpha), hbar * math.sqrt(alpha / 2) * steps), -1)
        x = u @ frame.T
        p = v.reshape(-1, 2) @ np.linalg.inv(frame)
        got = evaluator(x[:, 0, None], x[:, 1, None], p[None, :, 0], p[None, :, 1])
        with mp.workdps(50):
            al, ma, mb, mh = mp.mpf(alpha), mp.mpf(a), mp.mpf(b), mp.mpf(hbar)
            root = mp.sqrt(2)

            def reference(x1, x2, p1, p2):
                x1, x2, p1, p2 = (mp.mpf(float(c)) for c in (x1, x2, p1, p2))
                s, t = (ma * x1 + mb * x2) / root, (ma * x1 - mb * x2) / root
                ps, pt = (p1 / ma + p2 / mb) / root, (p1 / ma - p2 / mb) / root
                exponent = s * s / al + al * t * t + (al * ps * ps + pt * pt / al) / mh**2
                return float(mp.exp(-exponent) / (mp.pi * mh) ** 2)

            expected = np.array([[reference(*xi, *pj) for pj in p] for xi in x])
        peak = (math.pi * hbar) ** -2
        assert np.abs(got - expected).max() <= 1e-8 * peak

    def test_pure_state_spectrum(self):
        for k in (1, 2):
            spectrum = phase_space.symplectic_spectrum(phase_space.covariance(k, 0.35, GEOM))
            assert spectrum == pytest.approx((0.5, 0.5), rel=1e-12)

    def test_evaluator_normalization(self):
        gaussian = states.unshifted_gaussian(2, 0.5, GEOM)
        _, evaluator = phase_space.wigner_gaussian(gaussian, 1.0)
        xs = np.linspace(-7, 7, 301)
        x_marginal = np.trapezoid(
            np.trapezoid(evaluator(xs[:, None], xs[None, :], 0.0, 0.0), xs, axis=1), xs
        )
        p_marginal = np.trapezoid(
            np.trapezoid(evaluator(0.0, 0.0, xs[:, None], xs[None, :]), xs, axis=1), xs
        )
        m = gaussian.matrix
        m_inv = np.linalg.inv(m)
        # the 4D integral factorizes into the two 2D Gaussian integrals
        x_exact = (np.pi) ** -2 * np.pi / math.sqrt(np.linalg.det(m))
        p_exact = (np.pi) ** -2 * np.pi / math.sqrt(np.linalg.det(m_inv))
        assert x_marginal == pytest.approx(x_exact, rel=1e-10)
        assert p_marginal == pytest.approx(p_exact, rel=1e-10)
        assert x_marginal * p_marginal / ((np.pi) ** -2) == pytest.approx(1.0, rel=1e-10)

    def test_origin_value(self):
        for hbar in (1.0, 0.5):
            gaussian = states.unshifted_gaussian(2, 0.7, states.OscillatorGeometry(1, 1, hbar))
            _, evaluator = phase_space.wigner_gaussian(gaussian, hbar)
            assert float(evaluator(0, 0, 0, 0)) == pytest.approx(
                (math.pi * hbar) ** -2, rel=1e-14
            )


class TestWignerNumeric:
    def test_matches_closed_form_on_stencil(self):
        gaussian = states.unshifted_gaussian(2, 0.5, GEOM)
        _, closed = phase_space.wigner_gaussian(gaussian, 1.0)
        offsets = (0.0, 0.4, -0.4)
        points = [phase_space.PhaseSpacePoint(dx, -dx, dp, dp) for dx in offsets for dp in offsets]
        for point in points:
            numeric = phase_space.wigner_numeric(
                gaussian.evaluate, point, 1.0, order=48, m_matrix=gaussian.matrix
            )
            reference = float(closed(point.x1, point.x2, point.p1, point.p2))
            assert numeric == pytest.approx(reference, abs=1e-6)

    def test_imaginary_part_negligible(self):
        # wigner_numeric returns the real part; the raw quadrature's
        # imaginary part is noise
        gaussian = states.unshifted_gaussian(2, 0.5, GEOM)
        curvatures, axes = phase_space._principal_axes(gaussian.matrix)
        value = phase_space._wigner_quad(
            gaussian.evaluate, phase_space.PhaseSpacePoint(0.3, 0.1, -0.2, 0.4), 1.0, 48, curvatures, axes
        )
        assert abs(value.imag) < 1e-10

    def test_shift_covariance(self):
        alpha = 0.5
        labels = states.DisplacementLabels(0.4 + 0.2j, -0.3 + 0.5j)
        shift = states.shift_params(2, alpha, GEOM, labels)
        gaussian = states.unshifted_gaussian(2, alpha, GEOM)
        _, closed = phase_space.wigner_gaussian(gaussian, GEOM.hbar)

        def shifted(x1, x2):
            return states.wave_function(2, x1, x2, GEOM, labels, alpha)

        samples = [
            (0.0, 0.0, 0.0, 0.0),
            (0.5, 0.1, -0.3, 0.2),
            (1.0, -0.4, 0.2, 0.3),
            (-0.6, 0.8, 0.1, -0.5),
            (0.2, 0.2, 0.6, 0.6),
        ]
        for (x1, x2, p1, p2) in samples:
            numeric = phase_space.wigner_numeric(
                shifted, phase_space.PhaseSpacePoint(x1, x2, p1, p2), GEOM.hbar,
                m_matrix=gaussian.matrix,
            )
            reference = float(
                closed(x1 - shift.y1, x2 - shift.y2, p1 - shift.q1, p2 - shift.q2)
            )
            assert numeric == pytest.approx(reference, abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.5, 0.05, 0.01])
    @pytest.mark.parametrize(
        "geom", [states.OscillatorGeometry(1.0, 1.3), states.OscillatorGeometry(0.8, 1.3, hbar=0.7)], ids=str
    )
    def test_squeezed_state_on_principal_axes(self, alpha, geom):
        # a rule on the raw axes, scaled by the diagonal of M, was off by up
        # to 1.7e-1 of the peak here at alpha 0.01
        labels = states.DisplacementLabels(0.4 + 0.2j, -0.3 + 0.5j)
        gaussian = states.unshifted_gaussian(2, alpha, geom)
        _, closed = phase_space.wigner_gaussian(gaussian, geom.hbar)
        shift = states.shift_params(2, alpha, geom, labels)
        spread = gaussian.frame @ (1.0 / np.sqrt(gaussian.curvatures))

        def shifted(x1, x2):
            return states.wave_function(2, x1, x2, geom, labels, alpha)

        p1, p2 = shift.q1 + 0.1, shift.q2 - 0.1
        for t in (0.0, 0.5, 1.0):
            x1, x2 = shift.y1 + t * spread[0], shift.y2 + t * spread[1]
            numeric = phase_space.wigner_numeric(
                shifted, phase_space.PhaseSpacePoint(x1, x2, p1, p2), geom.hbar, m_matrix=gaussian.matrix
            )
            reference = float(closed(x1 - shift.y1, x2 - shift.y2, p1 - shift.q1, p2 - shift.q2))
            assert abs(numeric - reference) <= 1e-13 / (math.pi * geom.hbar) ** 2

    @pytest.mark.parametrize(
        "m_matrix", [[[1.0, 0.5], [0.4, 1.0]], [[1.0, 2.0], [2.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0]], ids=str
    )
    def test_m_matrix_not_symmetric_positive_definite_raises(self, m_matrix):
        gaussian = states.unshifted_gaussian(2, 0.5, GEOM)
        with pytest.raises(ValueError, match="m_matrix must be finite, symmetric and positive definite"):
            phase_space.wigner_numeric(gaussian.evaluate, phase_space.PhaseSpacePoint(), 1.0, m_matrix=m_matrix)

    def test_convergence_check(self):
        gaussian = states.unshifted_gaussian(2, 0.5, GEOM)
        value = phase_space.wigner_numeric(
            gaussian.evaluate, phase_space.PhaseSpacePoint(), 1.0,
            m_matrix=gaussian.matrix, check=True,
        )
        assert value == pytest.approx((math.pi) ** -2, rel=1e-8)

    def test_non_convergence_reported(self):
        from cvsqueeze.quadrature import ConvergenceError

        gaussian = states.unshifted_gaussian(2, 0.5, GEOM)
        with pytest.raises(ConvergenceError):
            phase_space.wigner_numeric(
                gaussian.evaluate, phase_space.PhaseSpacePoint(0.3, -0.7, 0.9, 0.4), 1.0,
                m_matrix=gaussian.matrix, order=2, check=True,
            )

    def test_order_with_non_finite_rule_raises(self):
        # past order 370 the outermost Gauss-Hermite weights underflow
        gaussian = states.unshifted_gaussian(2, 0.5, GEOM)
        with pytest.raises(ValueError, match="not all positive normal doubles at order 400"):
            phase_space.wigner_numeric(
                gaussian.evaluate, phase_space.PhaseSpacePoint(), 1.0,
                m_matrix=gaussian.matrix, order=400,
            )

    @pytest.mark.parametrize("helper", ["scaled_gauss_hermite", "open_gauss_hermite"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
    def test_non_finite_coefficient_raises(self, helper, value):
        from cvsqueeze import quadrature

        with pytest.raises(ValueError, match="coeff must be positive and finite"):
            getattr(quadrature, helper)(4, value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
    def test_non_finite_m_matrix_raises(self, value):
        gaussian = states.unshifted_gaussian(2, 0.5, GEOM)
        with pytest.raises(ValueError, match="m_matrix must be finite"):
            phase_space.wigner_numeric(
                gaussian.evaluate, phase_space.PhaseSpacePoint(), 1.0, m_matrix=[[value, 0.0], [0.0, 1.0]],
            )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_folded_weights_raise(self, monkeypatch):
        from cvsqueeze import quadrature

        # nodes whose exp(t^2) overflows while the weights stay finite
        rule = (np.array([-30.0, 30.0]), np.array([1e-300, 1e-300]))
        monkeypatch.setattr(quadrature, "gauss_hermite", lambda order: rule)
        with pytest.raises(ValueError, match="not finite"):
            quadrature.open_gauss_hermite(2, 1.0)


class TestGaussHermiteLimit:
    """Rules stop at order 370: from 371 on the outermost weights fall below
    the normal double range (order 371's two smallest are 3.3e-309)."""

    def test_last_good_order(self):
        from cvsqueeze.quadrature import gauss_hermite

        _, weights = gauss_hermite(370)
        assert (weights > 0.0).all()
        assert weights.sum() == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_all_zero_rule_raises(self):
        # no RuntimeWarning either: tier-1 turns those into errors
        from cvsqueeze.quadrature import gauss_hermite

        with pytest.raises(ValueError, match="not all positive normal doubles at order 371"):
            gauss_hermite(371)

    @pytest.mark.parametrize("routine", ["basis_gram", "inverse_segal_bargmann", "wigner_numeric"])
    def test_routines_raise_at_order_371(self, routine):
        from cvsqueeze import basis

        gaussian = states.unshifted_gaussian(2, 0.5, GEOM)
        calls = {
            "basis_gram": lambda: basis.basis_gram(0.5, 2, 371),
            "inverse_segal_bargmann": lambda: states.inverse_segal_bargmann(
                states.bargmann_series(2, 0.5, states.DisplacementLabels(0.4 + 0.3j, -0.2 + 0.5j), 20),
                0.1, 0.2, GEOM, order=371,
            ),
            "wigner_numeric": lambda: phase_space.wigner_numeric(
                gaussian.evaluate, phase_space.PhaseSpacePoint(), 1.0, m_matrix=gaussian.matrix, order=371,
            ),
        }
        with pytest.raises(ValueError, match="not all positive normal doubles at order 371"):
            calls[routine]()


class TestOrderDoubling:
    """The one order-doubling rule every quadrature routine goes through."""

    @staticmethod
    def levels(coarse_entry):
        # four entries, the third of which moves to ``coarse_entry`` at the
        # coarse order 4; the refined order 8 gives all ones
        def evaluate(order):
            calls.append(order)
            values = np.ones(4, dtype=complex)
            if order == 4:
                values[2] = coarse_entry
            return values

        calls = []
        return evaluate, calls

    def test_returns_refined_value(self):
        from cvsqueeze.quadrature import _refine_by_doubling

        evaluate, calls = self.levels(1.0 + 1e-10)
        value = _refine_by_doubling(evaluate, 4, True, 1e-8, "levels")
        assert calls == [4, 8]
        np.testing.assert_array_equal(value, np.ones(4))

    def test_without_check_evaluates_once(self):
        from cvsqueeze.quadrature import _refine_by_doubling

        evaluate, calls = self.levels(2.0)
        value = _refine_by_doubling(evaluate, 4, False, 1e-8, "levels")
        assert calls == [4]
        assert value[2] == 2.0

    @pytest.mark.parametrize("coarse_entry", [1.0 + 1e-6, math.nan], ids=["disagrees", "nan"])
    def test_one_bad_entry_fails(self, coarse_entry):
        from cvsqueeze.quadrature import ConvergenceError, _refine_by_doubling

        evaluate, _ = self.levels(coarse_entry)
        with pytest.raises(ConvergenceError, match="levels"):
            _refine_by_doubling(evaluate, 4, True, 1e-8, "levels")


class TestRobertsonSchrodinger:
    def test_physical_states_pass(self):
        for k in (1, 2):
            for alpha in ALPHA_GRID:
                result = phase_space.robertson_schrodinger_check(
                    phase_space.covariance(k, float(alpha), GEOM)
                )
                assert result.passed
                assert result.margin >= -1e-12

    def test_sub_heisenberg_fails(self):
        cov = phase_space.CovarianceMatrix(sigma=0.25 * np.eye(4), hbar=1.0)
        result = phase_space.robertson_schrodinger_check(cov)
        assert not result.passed
        assert result.margin < -0.1

    @pytest.mark.parametrize(
        "alpha, route", [(1e-5, "covariance"), (1e-8, "covariance"), (1e-4, "wigner_gaussian")]
    )
    def test_rounding_band_is_indeterminate_not_failed(self, alpha, route):
        # eigvalsh's floor, about eps times the largest eigenvalue, gave these
        # physical states margins of -3.6e-12, -3.7e-9 and -1.1e-12
        geom = states.OscillatorGeometry(0.8, 1.3, hbar=0.7)
        if route == "covariance":
            cov = phase_space.covariance(2, alpha, geom)
        else:
            cov, _ = phase_space.wigner_gaussian(states.unshifted_gaussian(2, alpha, geom), geom.hbar)
        result = phase_space.robertson_schrodinger_check(cov)
        assert result.passed and result.indeterminate
        scale = np.abs(np.linalg.eigvalsh(cov.sigma + 0.5j * cov.hbar * phase_space.symplectic_form())).max()
        assert abs(result.margin) <= phase_space.UNCERTAINTY_RTOL * scale

    @pytest.mark.parametrize("alpha", [0.5, 1e-4])
    @pytest.mark.parametrize("k", [1, 2])
    def test_shrunk_covariance_fails_outside_the_band(self, alpha, k):
        geom = states.OscillatorGeometry(0.8, 1.3, hbar=0.7)
        cov = phase_space.covariance(k, alpha, geom)
        shrunk = phase_space.CovarianceMatrix(sigma=cov.sigma * (1.0 - 1e-6), hbar=cov.hbar)
        result = phase_space.robertson_schrodinger_check(shrunk)
        assert not result.passed
        assert not result.indeterminate
        assert result.margin < -1e-11

    def test_verdict_invariant_under_symplectic_congruence(self):
        rng = np.random.default_rng(42)
        j = phase_space.symplectic_form()
        for trial in range(5):
            seed = rng.normal(size=(4, 4))
            symmetric = 0.25 * (seed + seed.T)
            s = expm(j @ symmetric)
            for cov0 in (
                phase_space.covariance(2, 0.5, GEOM),
                phase_space.CovarianceMatrix(sigma=0.25 * np.eye(4), hbar=1.0),
            ):
                base = phase_space.robertson_schrodinger_check(cov0).passed
                transformed = phase_space.CovarianceMatrix(
                    sigma=s @ cov0.sigma @ s.T, hbar=cov0.hbar
                )
                assert phase_space.robertson_schrodinger_check(transformed).passed == base


class TestCovarianceMatrixInput:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("entry", [(0, 0), (3, 3), (0, 1), (2, 3)])
    def test_non_finite_entry_raises(self, value, entry):
        # set symmetrically, so only finiteness can reject it
        sigma = 0.5 * np.eye(4)
        sigma[entry] = sigma[entry[::-1]] = value
        with pytest.raises(ValueError, match="entries must be finite"):
            phase_space.CovarianceMatrix(sigma=sigma, hbar=1.0)

    @pytest.mark.parametrize("hbar", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_non_positive_or_non_finite_hbar_raises(self, hbar):
        with pytest.raises(ValueError, match="hbar must be positive and finite"):
            phase_space.CovarianceMatrix(sigma=0.5 * np.eye(4), hbar=hbar)

    def test_symmetry_tolerance_scales_with_largest_entry(self):
        # atol 1e-12 max(1, max |Sigma|): inside it the matrix is symmetrized,
        # beyond it rejected
        for scale in (1.0, 1e6):
            sigma = scale * np.diag([1.0, 2.0, 3.0, 4.0])
            sigma[0, 1] = 2e-12 * scale
            cov = phase_space.CovarianceMatrix(sigma=sigma, hbar=1.0)
            assert cov.sigma[0, 1] == cov.sigma[1, 0] == pytest.approx(1e-12 * scale, rel=1e-15)
            sigma[0, 1] = 5e-12 * scale
            with pytest.raises(ValueError, match="symmetric"):
                phase_space.CovarianceMatrix(sigma=sigma, hbar=1.0)


class TestPartialTranspose:
    def test_diagonal_unchanged(self):
        cov = phase_space.covariance(1, 0.3, GEOM)
        np.testing.assert_array_equal(phase_space.partial_transpose(cov).sigma, cov.sigma)

    def test_momentum_block_sign_flip(self):
        alpha = 0.4
        cov = phase_space.covariance(2, alpha, GEOM)
        flipped = phase_space.partial_transpose(cov)
        # only entries coupling the reversed momentum change sign
        assert flipped.sigma[2, 3] == pytest.approx(-cov.sigma[2, 3], rel=1e-15)
        assert flipped.sigma[0, 1] == pytest.approx(cov.sigma[0, 1], rel=1e-15)
        assert flipped.sigma[2, 2] == cov.sigma[2, 2]

    def test_involution(self):
        cov = phase_space.covariance(2, 0.7, GEOM)
        twice = phase_space.partial_transpose(phase_space.partial_transpose(cov))
        np.testing.assert_array_equal(twice.sigma, cov.sigma)


class TestSymplecticSpectrum:
    def test_mode1_transposed(self):
        for alpha in (0.1, 0.5, 0.9):
            cov = phase_space.partial_transpose(phase_space.covariance(1, alpha, GEOM))
            spectrum = phase_space.symplectic_spectrum(cov)
            assert spectrum == pytest.approx((0.5, 0.5), rel=1e-12)

    def test_mode2_transposed_closed_form(self):
        for alpha in ALPHA_GRID:
            cov = phase_space.partial_transpose(phase_space.covariance(2, float(alpha), GEOM))
            spectrum = phase_space.symplectic_spectrum(cov)
            assert spectrum[0] == pytest.approx(0.5 * alpha, rel=1e-12)
            assert spectrum[1] == pytest.approx(0.5 / alpha, rel=1e-12)

    def test_hbar_scaling(self):
        geom = states.OscillatorGeometry(a=1.0, b=1.0, hbar=2.0)
        cov = phase_space.partial_transpose(phase_space.covariance(2, 0.25, geom))
        spectrum = phase_space.symplectic_spectrum(cov)
        assert spectrum == pytest.approx((2.0 * 0.25 / 2, 2.0 / (2 * 0.25)), rel=1e-12)

    def test_cross_check_refuses_lost_digits(self):
        # at alpha 1e-4 eig(J Sigma) puts the pure k = 2 state's spectrum
        # 1e-9 from hbar/2; the square-root-free route disagrees by more
        # than 1e-12 relative, so the spectrum raises instead of returning it
        with pytest.raises(phase_space.SpectrumPairingError, match="square-root-free"):
            phase_space.symplectic_spectrum(phase_space.covariance(2, 1e-4, GEOM))

    def test_pairing_failure_signals_bad_input(self):
        bad = phase_space.CovarianceMatrix(sigma=np.diag([1.0, 1.0, -1.0, -1.0]), hbar=1.0)
        with pytest.raises(phase_space.SpectrumPairingError):
            phase_space.symplectic_spectrum(bad)


class TestSeparability:
    def test_mode1_always_separable(self):
        for alpha in ALPHA_GRID:
            verdict = phase_space.ppt_separable(phase_space.covariance(1, float(alpha), GEOM))
            assert verdict.separable
            assert verdict.spectrum[0] == pytest.approx(0.5, rel=1e-12)

    def test_mode2_entangled(self):
        verdict = phase_space.ppt_separable(phase_space.covariance(2, 0.5, GEOM))
        assert not verdict.separable
        assert verdict.spectrum[0] == pytest.approx(0.25, rel=1e-12)

    def test_mode2_boundary(self):
        strong = phase_space.ppt_separable(phase_space.covariance(2, 1.0 - 1e-6, GEOM))
        assert not strong.separable
        boundary = phase_space.ppt_separable(phase_space.covariance(2, 1.0 - 1e-12, GEOM))
        assert boundary.separable
        assert boundary.indeterminate

    def test_lambda_min_approaches_boundary(self):
        values = [
            phase_space.ppt_separable(phase_space.covariance(2, alpha, GEOM)).spectrum[0]
            for alpha in (0.9, 0.99, 0.999)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(0.5, abs=1e-3)


class TestLogNegativity:
    def test_half(self):
        cov = phase_space.covariance(2, 0.5, GEOM)
        assert phase_space.ppt_separable(cov).log_negativity == pytest.approx(math.log(2), rel=1e-12)

    def test_closed_form_on_grid(self):
        for alpha in ALPHA_GRID:
            cov = phase_space.covariance(2, float(alpha), GEOM)
            assert phase_space.ppt_separable(cov).log_negativity == pytest.approx(
                -math.log(alpha), rel=1e-12
            )

    def test_vanishes_without_squeezing(self):
        cov = phase_space.covariance(2, 1.0 - 1e-13, GEOM)
        assert phase_space.ppt_separable(cov).log_negativity == pytest.approx(0.0, abs=1e-10)

    def test_strictly_decreasing(self):
        values = [
            phase_space.ppt_separable(phase_space.covariance(2, float(alpha), GEOM)).log_negativity
            for alpha in ALPHA_GRID
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_mode1_zero(self):
        for alpha in (0.2, 0.6):
            assert phase_space.ppt_separable(phase_space.covariance(1, alpha, GEOM)).log_negativity == 0.0

    @pytest.mark.parametrize("k", [1, 2])
    def test_verdict_carries_spectrum_and_negativity(self, k):
        # the verdict's fields are the partial-transpose spectrum and the
        # negativity formula applied to its minimum, bit for bit
        geom = states.OscillatorGeometry(a=0.8, b=1.3, hbar=0.7)
        for alpha in ALPHA_GRID:
            cov = phase_space.covariance(k, float(alpha), geom)
            verdict = phase_space.ppt_separable(cov)
            spectrum = phase_space.symplectic_spectrum(phase_space.partial_transpose(cov))
            negativity = max(math.log(geom.hbar / (2.0 * spectrum[0])), 0.0)
            assert verdict.spectrum == spectrum
            assert verdict.log_negativity == negativity
