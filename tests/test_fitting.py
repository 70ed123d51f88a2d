import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("n", [False, True, 2.0])
    def test_bool_or_float_n_rejected(self, n):
        tau = np.linspace(0, 10, 10)
        with pytest.raises(FitError, match="projection count"):
            fit_decay(curve_from(tau, np.exp(-((tau / 5.0) ** 2))), n)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_four_points_suffice(self, n):
        tau = np.linspace(0, 30, 4)
        y = 0.05 + 0.9 * decay_curve(n, tau, 6.5)
        res = fit_decay(curve_from(tau, y, n=n), n, t2_guess=6.0)
        assert res.t2eff == pytest.approx(6.5, abs=1e-6)
        with pytest.raises(FitError):
            fit_decay(curve_from(tau[:3], y[:3], n=n), n, t2_guess=6.0)

    @pytest.mark.parametrize("scale,stderr", [(1e200, 0.01), (1.0, 1e-310),
                                              (1.0, 5e-324), (1e160, 1.0)])
    def test_data_at_the_float_limits_is_a_fit_error(self, scale, stderr):
        # weights 1/stderr or weighted means past the float range raise a
        # FitError, not a numpy warning
        tau = np.linspace(0, 30, 16)
        y = scale * (0.05 + 0.9 * decay_curve(2, tau, 6.5))
        with pytest.raises(FitError, match="overflow"):
            fit_decay(curve_from(tau, y, np.full(tau.size, stderr), n=2), 2)

    def test_nan_guess_fails_as_fit_error(self):
        tau = np.linspace(0, 40, 30)
        with pytest.raises(FitError):
            fit_decay(curve_from(tau, decay_curve(4, tau, 6.5), n=4), 4,
                      t2_guess=float("nan"))

    @pytest.mark.parametrize("guess", ["12", True, -5.0, 0.0, float("nan"), float("inf")])
    def test_bad_guess_names_the_effective_time(self, guess):
        tau = np.linspace(0, 40, 30)
        with pytest.raises(FitError, match="effective dephasing time"):
            fit_decay(curve_from(tau, decay_curve(2, tau, 6.5), n=2), 2, t2_guess=guess)

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


@st.composite
def _gram_systems(draw):
    """(g, rhs) = (A^T A, A^T y) of random (points x q) columns A, q = 1 or 2.

    Each column of A, and y, has its own scale between 1e-100 and 1e100.
    """
    q = draw(st.integers(1, 2))
    points = draw(st.integers(q, 8))
    scales = [10.0 ** draw(st.integers(-100, 100)) for _ in range(q + 1)]
    unit = st.integers(-2**20, 2**20).map(lambda k: k / 2**20)
    a = np.array([[draw(unit) * s for s in scales[:q]] for _ in range(points)])
    y = np.array([draw(unit) * scales[q] for _ in range(points)])
    return a.T @ a, a.T @ y


class TestGramSolve:
    """fitting._gram_solve, the fits' 1x1 and 2x2 normal equations in floats."""

    def test_residual_within_rounding(self):
        # |g x - rhs| <= 16 eps (|g| |x| + |rhs|) in the max norm; entry by
        # entry it does not hold for partial pivoting, LAPACK's included.
        # Only columns parallel to within rounding may raise.
        eps = np.finfo(float).eps
        orders = set()

        @settings(derandomize=True, max_examples=400, deadline=None)
        @given(_gram_systems())
        def check(system):
            g, rhs = system
            q = rhs.size
            g00, g01, g11 = float(g[0, 0]), float(g[0, -1]), float(g[-1, -1])
            parallel = g00 == 0 or g11 == 0 or (
                q == 2 and (g01 / g00) * (g01 / g11) >= 1 - 64 * eps)
            try:
                x = fitting._gram_solve(g, rhs)
            except np.linalg.LinAlgError:
                assert parallel
                return
            if parallel:
                return
            if q == 2:
                orders.add(abs(g01) > g00)
            residual = np.max(np.abs(g @ x - rhs))
            assert residual <= 16 * eps * np.max(np.abs(g) @ np.abs(x) + np.abs(rhs))

        check()
        assert orders == {False, True}

    @pytest.mark.parametrize("q", [1, 2])
    def test_parallel_columns_raise(self, q):
        # every tau equal to 0 makes the Gaussian's column m equal the
        # constant one; at q = 1 the one column is 0
        m, _ = model._decay_and_slope(0, np.zeros(6), 6.0)
        a = np.column_stack([m, np.ones(6)]) if q == 2 else np.zeros((6, 1))
        with pytest.raises(np.linalg.LinAlgError):
            fitting._gram_solve(a.T @ a, a.T @ np.linspace(0.2, 0.9, 6))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("q,part,index", [
        (2, 0, (0, 0)), (2, 0, (0, 1)), (2, 0, (1, 0)), (2, 0, (1, 1)),
        (2, 1, 0), (2, 1, 1), (1, 0, (0, 0)), (1, 1, 0)])
    def test_non_finite_entries_raise(self, q, part, index, value):
        # one entry of g (part 0) or of rhs (part 1) is not finite
        system = ([np.array([[4.0, 1.0], [1.0, 3.0]]), np.array([1.0, 2.0])] if q == 2
                  else [np.array([[2.0]]), np.array([1.0])])
        system[part][index] = value
        with pytest.raises(np.linalg.LinAlgError):
            fitting._gram_solve(*system)

    @pytest.mark.parametrize("guess", [None, 6.0])
    @pytest.mark.parametrize("tau,y", [
        (np.zeros(8), np.linspace(0.2, 0.9, 8)),
        (np.full(8, 5.0), np.linspace(0.2, 0.9, 8)),
        (np.linspace(0, 20, 8), [1, 0.8, math.nan, 0.5, 0.3, 0.2, 0.1, 0.05]),
        (np.linspace(0, 20, 8), [1, 0.8, math.inf, 0.5, 0.3, 0.2, 0.1, 0.05]),
    ], ids=["every tau 0", "every tau 5", "nan mean", "inf mean"])
    def test_degenerate_curve_is_a_fit_error(self, tau, y, guess):
        # a numpy warning on the way fails the test (filterwarnings = error);
        # a constant tau grid is named before the first trial
        match = "every tau is equal" if np.ptp(tau) == 0 else None
        with pytest.raises(FitError, match=match):
            fit_decay(curve_from(tau, y, np.full(8, 0.01), n=2), 2, t2_guess=guess)


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

        # and the normal equations never go through LAPACK's solve
        with mock.patch.object(fitting, "_decay_and_slope", side_effect=spy), \
                mock.patch.object(model, "decay_curve", side_effect=AssertionError), \
                mock.patch.object(np.linalg, "solve", side_effect=AssertionError):
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

    def test_gives_up_after_max_halvings(self):
        # every trial theta but theta0 is refused: one step, halved
        # MAX_HALVINGS times, then no further iteration
        x = np.linspace(0.0, 2.0, 6)
        trials = []

        def columns(theta):
            trials.append(theta)
            if theta != 0.5:
                raise ValueError("refused")
            return np.exp(-theta * x)[:, None], (-x * np.exp(-theta * x))[:, None]

        p, _, _, converged, it = least_squares(columns, 2.0 * np.exp(-x), np.ones(x.size),
                                               0.5)
        assert not converged and it == 1 and p[-1] == 0.5
        assert len(trials) == 1 + fitting.MAX_HALVINGS

    def test_refused_steps_are_a_fit_error(self):
        # least_squares giving up is what fit_decay and fit_scaling report as
        # a fit that did not converge
        real = fitting.least_squares

        def only_start(columns, y, weights, theta0):
            def refuse(theta):
                if theta != theta0:
                    raise ValueError("refused")
                return columns(theta)
            return real(refuse, y, weights, theta0)

        with mock.patch.object(fitting, "least_squares", only_start):
            with pytest.raises(FitError, match=r"decay fit \(N=2\) did not converge"):
                fit_decay(self._noisy(1), 2, t2_guess=6.0)
            with pytest.raises(FitError, match="scaling fit did not converge"):
                fit_scaling({0: 1.0, 2: 2.0, 4: 2.7})

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
        with mock.patch.object(np.linalg, "solve", side_effect=AssertionError):
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

    @pytest.mark.parametrize("times", [
        # a fractional N, which int() would fit as N = 2
        {0: 1.0, 2.5: 1.5, 4: 2.0},
        # a negative time, and a negative N
        {0: -1.0, 2: 1.0, 4: 2.0},
        {0: 1.0, -2: 1.5, 2: 2.0, 4: 2.5},
        # a bool N, a string time
        {0: 1.0, True: 1.5, 2: 2.0, 4: 2.5},
        {0: 1.0, 2: "1.5", 4: 2.0},
        # normalized times the normal equations could not square
        {0: 1e-300, 2: 2.0, 4: 3.0},
        {0: 1.0, 2: 1e-300, 4: 3.0},
    ])
    def test_table_checked(self, times):
        with pytest.raises(FitError):
            fit_scaling(times)

    def test_trial_nu_stays_in_range(self):
        # a trial nu past the range is a rejected step, not an overflow
        seen = []
        real = fitting.least_squares

        def spy(columns, *args):
            seen.append(columns)
            return real(columns, *args)

        with mock.patch.object(fitting, "least_squares", spy):
            fit_scaling({0: 1.0, 2: 2.0, 16: 5.0})
        nu_max = math.log(fitting.MAX_SCALE) / math.log(16)
        seen[0](nu_max)
        for nu in (1.01 * nu_max, -1.01 * nu_max, math.nan):
            with pytest.raises(ValueError, match="out of range"):
                seen[0](nu)


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


def test_least_squares_takes_at_most_two_linear_parameters():
    x = np.array([1.0, 2.0, 3.0, 4.0])

    def columns(theta):
        power = x**theta
        return (np.column_stack([np.ones_like(x), x, power]),
                np.column_stack([np.zeros_like(x), np.zeros_like(x), power * np.log(x)]))

    with pytest.raises(ValueError, match="at most 2 linear parameters"):
        least_squares(columns, 1.0 + x**3, np.ones_like(x), 2.5)
