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
            assert spectrum.values == pytest.approx((0.5, 0.5), rel=1e-12)

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
        gaussian = states.unshifted_gaussian(2, 0.5, GEOM)
        value = phase_space.wigner_numeric(
            gaussian.evaluate,
            phase_space.PhaseSpacePoint(0.3, 0.1, -0.2, 0.4),
            1.0,
            m_matrix=gaussian.matrix,
            return_complex=True,
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
                m_matrix=gaussian.matrix, order=2, check=True, rtol=1e-12,
            )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_order_with_non_finite_rule_raises(self):
        # numpy's Gauss-Hermite weights turn NaN from order 372 on
        gaussian = states.unshifted_gaussian(2, 0.5, GEOM)
        with pytest.raises(ValueError, match="not finite"):
            phase_space.wigner_numeric(
                gaussian.evaluate, phase_space.PhaseSpacePoint(), 1.0,
                m_matrix=gaussian.matrix, order=400,
            )

    def test_nan_difference_fails_convergence(self):
        from cvsqueeze.quadrature import ConvergenceError, require_convergence

        with pytest.raises(ConvergenceError):
            require_convergence(math.nan, 1.0, 1e-8, "nan level")

    @pytest.mark.parametrize("helper", ["scaled_gauss_hermite", "open_gauss_hermite"])
    def test_nan_coefficient_raises(self, helper):
        from cvsqueeze import quadrature

        with pytest.raises(ValueError, match="must be positive"):
            getattr(quadrature, helper)(4, math.nan)

    def test_nan_m_matrix_raises(self):
        gaussian = states.unshifted_gaussian(2, 0.5, GEOM)
        with pytest.raises(ValueError, match="must be positive"):
            phase_space.wigner_numeric(
                gaussian.evaluate, phase_space.PhaseSpacePoint(), 1.0, m_matrix=[[math.nan, 0.0], [0.0, 1.0]],
            )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_folded_weights_raise(self, monkeypatch):
        from cvsqueeze import quadrature

        # nodes whose exp(t^2) overflows while the weights stay finite
        rule = (np.array([-30.0, 30.0]), np.array([1e-300, 1e-300]))
        monkeypatch.setattr(quadrature, "gauss_hermite", lambda order: rule)
        with pytest.raises(ValueError, match="not finite"):
            quadrature.open_gauss_hermite(2, 1.0)


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
                assert phase_space.robertson_schrodinger_check(transformed, tol=1e-9).passed == base


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
            assert spectrum.values == pytest.approx((0.5, 0.5), rel=1e-12)

    def test_mode2_transposed_closed_form(self):
        for alpha in ALPHA_GRID:
            cov = phase_space.partial_transpose(phase_space.covariance(2, float(alpha), GEOM))
            spectrum = phase_space.symplectic_spectrum(cov)
            assert spectrum.values[0] == pytest.approx(0.5 * alpha, rel=1e-12)
            assert spectrum.values[1] == pytest.approx(0.5 / alpha, rel=1e-12)

    def test_hbar_scaling(self):
        geom = states.OscillatorGeometry(a=1.0, b=1.0, hbar=2.0)
        cov = phase_space.partial_transpose(phase_space.covariance(2, 0.25, geom))
        spectrum = phase_space.symplectic_spectrum(cov)
        assert spectrum.values == pytest.approx((2.0 * 0.25 / 2, 2.0 / (2 * 0.25)), rel=1e-12)

    def test_pairing_failure_signals_bad_input(self):
        bad = phase_space.CovarianceMatrix(sigma=np.diag([1.0, 1.0, -1.0, -1.0]), hbar=1.0)
        with pytest.raises(phase_space.SpectrumPairingError):
            phase_space.symplectic_spectrum(bad)


class TestSeparability:
    def test_mode1_always_separable(self):
        for alpha in ALPHA_GRID:
            verdict = phase_space.ppt_separable(phase_space.covariance(1, float(alpha), GEOM))
            assert verdict.separable
            assert verdict.lambda_min == pytest.approx(0.5, rel=1e-12)

    def test_mode2_entangled(self):
        verdict = phase_space.ppt_separable(phase_space.covariance(2, 0.5, GEOM))
        assert not verdict.separable
        assert verdict.verdict == "ENTANGLED"
        assert verdict.lambda_min == pytest.approx(0.25, rel=1e-12)

    def test_mode2_boundary(self):
        strong = phase_space.ppt_separable(phase_space.covariance(2, 1.0 - 1e-6, GEOM))
        assert not strong.separable
        boundary = phase_space.ppt_separable(phase_space.covariance(2, 1.0 - 1e-12, GEOM))
        assert boundary.separable
        assert boundary.indeterminate

    def test_lambda_min_approaches_boundary(self):
        values = [
            phase_space.ppt_separable(phase_space.covariance(2, alpha, GEOM)).lambda_min
            for alpha in (0.9, 0.99, 0.999)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(0.5, abs=1e-3)


class TestLogNegativity:
    def test_half(self):
        cov = phase_space.covariance(2, 0.5, GEOM)
        assert phase_space.log_negativity(cov) == pytest.approx(math.log(2), rel=1e-12)

    def test_closed_form_on_grid(self):
        for alpha in ALPHA_GRID:
            cov = phase_space.covariance(2, float(alpha), GEOM)
            assert phase_space.log_negativity(cov) == pytest.approx(
                -math.log(alpha), rel=1e-12
            )

    def test_vanishes_without_squeezing(self):
        cov = phase_space.covariance(2, 1.0 - 1e-13, GEOM)
        assert phase_space.log_negativity(cov) == pytest.approx(0.0, abs=1e-10)

    def test_strictly_decreasing(self):
        values = [
            phase_space.log_negativity(phase_space.covariance(2, float(alpha), GEOM))
            for alpha in ALPHA_GRID
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_mode1_zero(self):
        for alpha in (0.2, 0.6):
            assert phase_space.log_negativity(phase_space.covariance(1, alpha, GEOM)) == 0.0
