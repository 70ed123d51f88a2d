import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenosim import model
from zenosim.model import (SQRT_E_LEVEL, decay_curve, effective_t2,
                           odd_n_asymptote, single_shot_expectation,
                           sqrt_e_time)


def exact_decay(n, tau, t2eff):
    """Binomial sum with integer binomials, each weight C(N+1, l)/2^(N+1)
    divided exactly, summed term by term in Python."""
    n1, c, total = n + 1, 1, 0.0
    for l in range(n1 + 1):
        total += c / 2**n1 * math.exp(-((tau * (1 - 2 * l / n1) / t2eff) ** 2))
        c = c * (n1 - l) // (l + 1)
    return total


class TestEffectiveT2:
    def test_two_spin_value(self):
        assert effective_t2([12.4, 8.2]) == pytest.approx(6.84, abs=0.005)

    def test_three_spin_value(self):
        assert effective_t2([12.4, 8.2, 21]) == pytest.approx(6.50, abs=0.005)

    def test_single_spin_passthrough(self):
        assert effective_t2([9.3]) == pytest.approx(9.3, abs=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            effective_t2([12.4, -1.0])


class TestDecayValue:
    def test_n0_is_gaussian(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            tau = rng.uniform(0, 30)
            t2 = rng.uniform(1, 25)
            a = rng.uniform(0, 1)
            off = rng.uniform(-0.2, 0.2)
            got = decay_curve(0, [tau], t2, a, off)[0]
            assert got == pytest.approx(off + a * math.exp(-((tau / t2) ** 2)),
                                        abs=1e-12)

    def test_n1_long_time_plateau(self):
        val = decay_curve(1, [1e4], 5.0, 0.8, 0.1)[0]
        assert val == pytest.approx(0.1 + 0.8 / 2, abs=1e-12)

    def test_n2_at_t2eff(self):
        # independent closed-form evaluation of the four binomial terms
        expected = (2 * math.exp(-1) + 6 * math.exp(-1 / 9)) / 8
        assert decay_curve(2, [6.5], 6.5)[0] == pytest.approx(expected, abs=1e-12)

    def test_n2_against_gaussian_ensemble_oracle(self):
        # brute-force average of the fixed-detuning expression over 10^6
        # Gaussian detuning draws, single spin
        t2, tau, n = 6.5, 6.5, 2
        rng = np.random.default_rng(123)
        deltas = rng.normal(scale=math.sqrt(2) / t2, size=1_000_000)
        mc = np.mean(np.cos(deltas * tau / (n + 1)) ** (n + 1))
        assert decay_curve(n, [tau], t2)[0] == pytest.approx(
            mc, abs=4 * np.std(np.cos(deltas * tau / 3) ** 3) / 1000)

    def test_symmetry_and_origin(self):
        p, m, zero = decay_curve(3, [4.2, -4.2, 0.0], 6.5, 0.9, 0.05)
        assert p == pytest.approx(m, abs=1e-14)
        assert zero == pytest.approx(0.95, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_even_n_vanishes(self, n):
        assert decay_curve(n, [1e4], 5.0)[0] < 1e-12

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_odd_n_plateau(self, n):
        assert decay_curve(n, [1e4], 5.0)[0] == pytest.approx(
            odd_n_asymptote(n), abs=1e-12)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            decay_curve(-1, [1.0], 5.0)
        with pytest.raises(ValueError):
            decay_curve(0, [1.0], -5.0)
        with pytest.raises(ValueError):
            decay_curve(0, [1.0], 5.0, amplitude=1.5)


class TestDecayCurve:
    @settings(deadline=None, max_examples=80)
    @given(st.integers(0, 5000), st.lists(st.floats(0.0, 1e6), min_size=1, max_size=8),
           st.floats(1e-6, 1e6))
    def test_finite_and_bounded(self, n, taus, t2eff):
        got = decay_curve(n, taus, t2eff)
        assert got.shape == (len(taus),)
        assert np.all(np.isfinite(got))
        assert np.all(got >= 0) and np.all(got <= 1 + 1e-15)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 5000), st.floats(1e-6, 1e6))
    def test_unity_at_origin(self, n, t2eff):
        assert abs(decay_curve(n, [0.0], t2eff)[0] - 1.0) <= 1e-14

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 63), st.floats(0.0, 200.0), st.floats(0.1, 50.0))
    def test_matches_exact_sum(self, n, tau, t2eff):
        assert abs(decay_curve(n, [tau], t2eff)[0] - exact_decay(n, tau, t2eff)) <= 1e-12

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 5000), st.lists(st.floats(0.0, 1e4), min_size=1, max_size=6),
           st.floats(0.1, 100.0), st.floats(0.0, 1.0), st.floats(-1.0, 1.0))
    def test_each_element_equals_single_point(self, n, taus, t2eff, a, off):
        # a grid evaluates each tau exactly as a one-point call does
        curve = decay_curve(n, taus, t2eff, a, off)
        for tau, want in zip(taus, curve):
            assert decay_curve(n, [tau], t2eff, a, off)[0] == want

    @pytest.mark.parametrize("n", [1023, 2047, 4095])
    def test_large_n_matches_exact_sum(self, n):
        taus = [0.0, 25.0, 50.0, 100.0, 200.0, 400.0]
        got = decay_curve(n, taus, 10.0)
        want = [exact_decay(n, t, 10.0) for t in taus]
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_window_beyond_full_range(self):
        # N+1 = 1600 keeps only the l whose weight does not underflow
        frac, _ = model._binomial_terms(1599)
        assert frac.size < 1601
        got = decay_curve(1599, [0.0, 30.0, 1e4], 1.0)
        want = [exact_decay(1599, t, 1.0) for t in (0.0, 30.0, 1e4)]
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_huge_n_needs_sqrt_n_terms(self):
        t0 = time.perf_counter()
        got = decay_curve(10**8, [0.0, 1e3], 1.0)
        assert time.perf_counter() - t0 < 2.0
        assert np.all(np.isfinite(got))
        assert got[0] == pytest.approx(1.0, abs=1e-12)
        assert 0 < got[1] < 1
        assert model._binomial_terms(10**8)[0].size < 2 * math.sqrt(373 * 10**8) + 4

    def test_chunking_does_not_change_values(self, monkeypatch):
        taus = np.linspace(0.0, 40.0, 37)
        whole = decay_curve(300, taus, 2.0)
        monkeypatch.setattr(model, "_CURVE_ENTRIES", 5 * 302)
        assert np.array_equal(decay_curve(300, taus, 2.0), whole)

    def test_invalid_inputs(self):
        for args in [(-1, [1.0], 5.0), (0, [1.0], 0.0), (0, [1.0], math.nan),
                     (0, [math.nan], 5.0), (0, [math.inf], 5.0)]:
            with pytest.raises(ValueError):
                decay_curve(*args)
        with pytest.raises(ValueError):
            decay_curve(0, [1.0], 5.0, amplitude=1.5)
        with pytest.raises(ValueError):
            decay_curve(0, [1.0], 5.0, offset=math.nan)
        with pytest.raises(TypeError):
            decay_curve(2.5, [1.0], 5.0)


class TestSingleShotExpectation:
    def test_zero_detuning(self):
        assert single_shot_expectation([0.0], 3.0, 5) == pytest.approx(1.0)

    def test_quarter_turn_killed_by_projection(self):
        assert single_shot_expectation([np.pi / 2], 1.0, 1) == pytest.approx(
            0.0, abs=1e-12)

    def test_two_spin_sign_sum(self):
        got = single_shot_expectation([np.pi / 3, np.pi / 6], 1.0, 1)
        assert got == pytest.approx(0.375, abs=1e-12)
        # independent evaluation of the two sign branches
        manual = (math.cos(np.pi / 2) ** 2 + math.cos(np.pi / 6) ** 2) / 2
        assert got == pytest.approx(manual, abs=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            single_shot_expectation([0.1], -1.0, 0)


class TestOddNAsymptote:
    def test_values(self):
        assert odd_n_asymptote(1) == pytest.approx(0.5)
        assert odd_n_asymptote(3) == pytest.approx(0.375)

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            odd_n_asymptote(2)

    @pytest.mark.parametrize("n", [1023, 4095])
    def test_large_n_finite(self, n):
        got = odd_n_asymptote(n)
        assert math.isfinite(got)
        assert got == pytest.approx(math.comb(n + 1, (n + 1) // 2) / 2 ** (n + 1),
                                    rel=1e-12)
        assert got == pytest.approx(decay_curve(n, [1e7], 1.0)[0], rel=1e-12)


class TestSqrtETime:
    def test_n0_exact(self):
        assert sqrt_e_time(0, 6.5) == pytest.approx(6.5 / math.sqrt(2), rel=1e-8)

    def test_three_spin_paper_value(self):
        assert sqrt_e_time(0, effective_t2([12.4, 8.2, 21])) == pytest.approx(
            4.60, abs=0.15)

    def test_n2_ratio_near_power_law(self):
        ratio = sqrt_e_time(2, 1.0) / sqrt_e_time(0, 1.0)
        # power-law prediction 1 + 0.77*2^0.63 ~ 2.19; the exact root lies
        # within the fit residuals of the scaling law
        assert ratio == pytest.approx(1 + 0.77 * 2**0.63, abs=0.08)

    def test_crossing_level(self):
        for n in (0, 2, 4, 8, 16):
            tau = sqrt_e_time(n, 7.7)
            assert decay_curve(n, [tau], 7.7)[0] == pytest.approx(
                math.exp(-0.5), rel=1e-7)

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            sqrt_e_time(1, 5.0)

    @pytest.mark.parametrize("t2eff", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_t2eff_rejected(self, t2eff):
        with pytest.raises(ValueError):
            sqrt_e_time(2, t2eff)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 40), st.floats(1e-3, 1e3))
    def test_proportional_to_t2eff(self, half_n, t2eff):
        n = 2 * half_n
        assert sqrt_e_time(n, t2eff) == t2eff * sqrt_e_time(n, 1.0)

    def test_matches_point_by_point_scan(self):
        # reference: walk the grid one point at a time, then bisect
        for n in range(0, 81, 2):
            grid = np.linspace(0.0, 20.0 * (n + 1), 400)
            i = 0
            while not (decay_curve(n, [grid[i]], 1.0)[0] > SQRT_E_LEVEL
                       >= decay_curve(n, [grid[i + 1]], 1.0)[0]):
                i += 1
            lo, hi = grid[i], grid[i + 1]
            while hi - lo > 1e-9 * hi:
                mid = 0.5 * (lo + hi)
                if decay_curve(n, [mid], 1.0)[0] > SQRT_E_LEVEL:
                    lo = mid
                else:
                    hi = mid
            assert sqrt_e_time(n, 1.0) == 0.5 * (lo + hi)
