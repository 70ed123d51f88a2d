from unittest import mock

import numpy as np
import pytest

from zenosim import fitting, model
from zenosim.ensemble import DecayCurve
from zenosim.fitting import FitError, fit_decay, fit_scaling, least_squares
from zenosim.model import decay_curve, sqrt_e_time


def curve_from(tau, y, stderr=None, n=0):
    tau = np.asarray(tau, dtype=float)
    y = np.asarray(y, dtype=float)
    se = np.zeros_like(y) if stderr is None else np.asarray(stderr, dtype=float)
    return DecayCurve(tau, y, se, n, "X")


class TestFitGaussian:
    """fit_decay at N = 0, where the model is offset + A*exp(-(tau/T)^2)."""

    def test_noiseless_recovery(self):
        tau = np.linspace(0, 20, 25)
        y = 0.05 + 0.9 * np.exp(-((tau / 6.5) ** 2))
        res = fit_decay(curve_from(tau, y), 0)
        assert res.converged
        assert res.amplitude == pytest.approx(0.9, abs=1e-6)
        assert res.t2eff == pytest.approx(6.5, abs=1e-6)
        assert res.offset == pytest.approx(0.05, abs=1e-6)

    def test_noisy_recovery_within_errors(self):
        rng = np.random.default_rng(2)
        tau = np.linspace(0, 30, 20)
        se = np.full_like(tau, 0.01)
        y = np.exp(-((tau / 12.4) ** 2)) + rng.normal(scale=0.01, size=tau.size)
        res = fit_decay(curve_from(tau, y, se), 0)
        assert abs(res.t2eff - 12.4) < 4 * res.std_errors["T2eff_ms"]

    def test_constant_data_rejected(self):
        with pytest.raises(FitError):
            fit_decay(curve_from(np.linspace(0, 10, 8), np.full(8, 0.3)), 0)

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_decay(curve_from([0, 1, 2], [1.0, 0.5, 0.1]), 0)


class TestFitDecay:
    def test_noiseless_recovery(self):
        tau = np.linspace(0, 40, 30)
        y = 0.1 + 0.85 * decay_curve(4, tau, 6.5)
        res = fit_decay(curve_from(tau, y, n=4), 4, t2_guess=6.0)
        assert res.converged
        assert res.amplitude == pytest.approx(0.85, abs=1e-6)
        assert res.t2eff == pytest.approx(6.5, abs=1e-6)
        assert res.offset == pytest.approx(0.1, abs=1e-6)

    @pytest.mark.parametrize("guess", [None, 6.0])
    def test_projection_limit_fails_up_front(self, guess):
        tau = np.linspace(0, 40, 30)
        curve = curve_from(tau, decay_curve(4, tau, 6.5), n=4)
        with mock.patch.object(model, "_binomial_terms") as terms:
            with pytest.raises(FitError, match="projection count"):
                fit_decay(curve, model.MAX_PROJECTIONS + 2, t2_guess=guess)
        terms.assert_not_called()

    def test_reference_guesses(self):
        tau = np.linspace(0, 30, 25)
        y = 0.02 + 0.9 * decay_curve(2, tau, 6.8)
        res = fit_decay(curve_from(tau, y, n=2), 2, t2_guess=6.8)
        assert res.t2eff == pytest.approx(6.8, abs=1e-6)

    def test_no_reference_default_guesses(self):
        tau = np.linspace(0, 60, 30)
        y = decay_curve(6, tau, 6.5)
        res = fit_decay(curve_from(tau, y, n=6), 6)
        assert res.t2eff == pytest.approx(6.5, abs=1e-5)

    def test_odd_n_plateau_captured(self):
        tau = np.linspace(0, 120, 40)
        y = 0.03 + 0.9 * decay_curve(1, tau, 12.4)
        res = fit_decay(curve_from(tau, y, n=1), 1, t2_guess=12.0)
        plateau = res.offset + res.amplitude / 2
        assert plateau == pytest.approx(0.03 + 0.45, abs=1e-5)

    def test_negative_n_rejected(self):
        tau = np.linspace(0, 10, 10)
        with pytest.raises(FitError):
            fit_decay(curve_from(tau, np.exp(-((tau / 5.0) ** 2))), -1)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_four_points_suffice(self, n):
        tau = np.linspace(0, 30, 4)
        y = 0.05 + 0.9 * decay_curve(n, tau, 6.5)
        res = fit_decay(curve_from(tau, y, n=n), n, t2_guess=6.0)
        assert res.t2eff == pytest.approx(6.5, abs=1e-6)
        with pytest.raises(FitError):
            fit_decay(curve_from(tau[:3], y[:3], n=n), n, t2_guess=6.0)

    def test_nan_guess_fails_as_fit_error(self):
        tau = np.linspace(0, 40, 30)
        with pytest.raises(FitError):
            fit_decay(curve_from(tau, decay_curve(4, tau, 6.5), n=4), 4,
                      t2_guess=float("nan"))

    def test_calibration_of_std_errors(self):
        # parameters recovered within 3 reported std errors in >= 95% of
        # independently seeded noisy trials
        tau = np.linspace(0, 40, 25)
        truth = dict(a=0.9, t=6.84, off=0.05)
        model = truth["off"] + truth["a"] * decay_curve(2, tau, truth["t"])
        se = np.full_like(tau, 0.008)
        ok = 0
        trials = 200
        for i in range(trials):
            rng = np.random.default_rng(1000 + i)
            y = model + rng.normal(scale=0.008, size=tau.size)
            try:
                res = fit_decay(curve_from(tau, y, se, n=2), 2, t2_guess=6.84)
            except FitError:
                continue
            good = (abs(res.amplitude - truth["a"]) < 3 * res.std_errors["A"]
                    and abs(res.t2eff - truth["t"]) < 3 * res.std_errors["T2eff_ms"]
                    and abs(res.offset - truth["off"]) < 3 * res.std_errors["offset"])
            ok += good
        assert ok / trials >= 0.95

    def test_zero_gradient_at_optimum(self):
        tau = np.linspace(0, 40, 25)
        rng = np.random.default_rng(6)
        y = 0.05 + 0.9 * decay_curve(2, tau, 6.84) + rng.normal(scale=0.01, size=tau.size)
        curve = curve_from(tau, y, np.full_like(tau, 0.01), n=2)
        res = fit_decay(curve, 2, t2_guess=6.84)
        p = np.array([res.amplitude, res.t2eff, res.offset])

        def cost(q):
            model = q[2] + q[0] * decay_curve(2, tau, abs(q[1]))
            r = (model - y) / 0.01
            return float(r @ r)

        c0 = cost(p)
        for j in range(3):
            h = 1e-6 * max(abs(p[j]), 1e-3)
            pp, pm = p.copy(), p.copy()
            pp[j] += h
            pm[j] -= h
            grad = (cost(pp) - cost(pm)) / (2 * h)
            scale = max(abs(cost(pp) - c0), abs(cost(pm) - c0), 1e-12) / h
            assert abs(grad) < 1e-6 * max(scale, c0 / max(abs(p[j]), 1e-3))


class TestVariableProjection:
    def _noisy(self, seed, n=2, noise=0.01):
        tau = np.linspace(0, 40, 25)
        rng = np.random.default_rng(seed)
        y = 0.05 + 0.9 * decay_curve(n, tau, 6.84) + rng.normal(scale=noise, size=tau.size)
        return curve_from(tau, y, np.full_like(tau, noise), n=n)

    @pytest.mark.parametrize("seed", [None, 3, 4])
    def test_one_model_evaluation_per_trial_step(self, seed):
        # Each trial T2eff costs exactly one evaluation of the model and its
        # slope, and decay_curve itself is never called: no finite differences.
        if seed is None:
            tau = np.linspace(0, 40, 25)
            curve = curve_from(tau, 0.05 + 0.9 * decay_curve(4, tau, 6.84), n=4)
        else:
            curve = self._noisy(seed, n=4)
        trials = []

        def spy(n, taus, t2eff):
            trials.append(t2eff)
            return model._decay_and_slope(n, taus, t2eff)

        with mock.patch.object(fitting, "_decay_and_slope", side_effect=spy), \
                mock.patch.object(model, "decay_curve", side_effect=AssertionError):
            res = fit_decay(curve, 4, t2_guess=6.0)
        assert res.converged
        assert len(trials) == res.iterations + 1
        assert len(set(trials)) == len(trials)

    def test_chi2_dof_noiseless(self):
        tau = np.linspace(0, 40, 25)
        res = fit_decay(curve_from(tau, 0.05 + 0.9 * decay_curve(2, tau, 6.84),
                                   np.full_like(tau, 0.01), n=2), 2, t2_guess=6.0)
        assert res.as_dict()["chi2_dof"] == pytest.approx(0.0, abs=1e-20)

    def test_chi2_dof_matches_noise(self):
        # noise equal to the stated stderr gives chi2/dof near 1 on average
        values = [fit_decay(self._noisy(500 + i), 2, t2_guess=6.84).as_dict()["chi2_dof"]
                  for i in range(200)]
        assert np.mean(values) == pytest.approx(1.0, abs=0.06)

    def test_undefined_std_errors_are_a_fit_error(self):
        curve = self._noisy(1)
        nan_errors = (np.array([0.9, 0.05, 6.84]), np.array([0.01, np.nan, 0.1]),
                      20.0, True, 5)
        with mock.patch.object(fitting, "least_squares", return_value=nan_errors):
            with pytest.raises(FitError):
                fit_decay(curve, 2, t2_guess=6.84)
        with mock.patch.object(fitting, "least_squares",
                               return_value=(np.array([0.7, 0.6]), np.array([np.nan, 0.1]),
                                             0.1, True, 5)):
            with pytest.raises(FitError):
                fit_scaling({0: 1.0, 2: 2.0, 4: 2.7})

    @pytest.mark.parametrize("guess", [1e-300, 1e12])
    def test_flat_model_is_a_fit_error(self, guess):
        # T2eff far off the data leaves the model flat over the tau grid
        with pytest.raises(FitError):
            fit_decay(self._noisy(2), 2, t2_guess=guess)

    def test_scale_invariance_at_the_precision_floor(self):
        # test_scale_invariance with its four times perturbed by 1e-10
        # relative noise, so that the two fits do not see bit-identical data
        base = {n: sqrt_e_time(n, 1.0) for n in (0, 2, 4, 8)}
        misses = 0
        for i in range(200):
            rng = np.random.default_rng(i)
            times = {n: t * (1 + rng.uniform(-1e-10, 1e-10)) for n, t in base.items()}
            a = fit_scaling(times)
            b = fit_scaling({n: 7.7 * t for n, t in times.items()})
            misses += not (abs(a.mu - b.mu) <= 1e-10 and abs(a.nu - b.nu) <= 1e-10)
        assert misses == 0

    def test_flat_times_are_a_fit_error(self):
        with pytest.raises(FitError):
            fit_scaling({0: 1.0, 2: 1.0, 4: 1.0})


class TestFitScaling:
    def test_exact_power_law(self):
        times = {n: 1.0 + 0.5 * n**1.0 for n in (0, 2, 4, 8, 16)}
        fit = fit_scaling(times)
        assert fit.mu == pytest.approx(0.5, abs=1e-9)
        assert fit.nu == pytest.approx(1.0, abs=1e-9)

    def test_analytic_times_give_paper_exponents(self):
        times = {n: sqrt_e_time(n, 1.0) for n in range(0, 17, 2)}
        fit = fit_scaling(times)
        assert fit.mu == pytest.approx(0.77, abs=0.02)
        assert fit.nu == pytest.approx(0.63, abs=0.02)

    def test_scale_invariance(self):
        times = {n: sqrt_e_time(n, 1.0) for n in (0, 2, 4, 8)}
        scaled = {n: 7.7 * t for n, t in times.items()}
        a, b = fit_scaling(times), fit_scaling(scaled)
        assert a.mu == pytest.approx(b.mu, abs=1e-10)
        assert a.nu == pytest.approx(b.nu, abs=1e-10)
        assert b.normalized_times[0] == 1.0

    def test_missing_n0(self):
        with pytest.raises(FitError):
            fit_scaling({2: 2.1, 4: 2.8, 8: 3.9})

    def test_too_few(self):
        with pytest.raises(FitError):
            fit_scaling({0: 1.0, 2: 2.1})

    def test_n_past_float_precision_stays_an_int_key(self):
        big = 10**23 - 1  # float(big) is 99999999999999991611392
        fit = fit_scaling({0: 1.0, 2: 2.0, big: 3.0})
        assert list(fit.normalized_times) == [0, 2, big]
        assert np.isfinite([fit.mu, fit.nu, fit.mu_err, fit.nu_err]).all()

    def test_non_finite_normalized_time(self):
        with pytest.raises(FitError, match="not finite"):
            fit_scaling({0: 1e-320, 2: 2.0, 4: 3.0})


def test_least_squares_linear_problem():
    # exactly solvable and separable: y = 1 + 2 x^3 on x = 1..4, with the
    # intercept and slope linear and the exponent 3 the nonlinear parameter
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = 1.0 + 2.0 * x**3

    def columns(theta):
        power = x**theta
        return (np.column_stack([np.ones_like(x), power]),
                np.column_stack([np.zeros_like(x), power * np.log(x)]))

    p, errs, rss, converged, _ = least_squares(columns, y, np.ones_like(x), 2.5)
    assert converged
    assert np.allclose(p, [1.0, 2.0, 3.0], atol=1e-8)
    assert rss < 1e-15
