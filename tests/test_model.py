import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenosim import model
from zenosim.model import (MAX_PROJECTIONS, MAX_SPINS, SQRT_E_LEVEL, decay_curve,
                           effective_t2, free_evolution, key_word, odd_n_asymptote,
                           projection_count, shot_count, single_shot_expectation,
                           sqrt_e_time)


def exact_decay(n, tau, t2eff):
    """Binomial sum with integer binomials, each weight C(N+1, l)/2^(N+1)
    divided exactly, summed term by term in Python."""
    n1, c, total = n + 1, 1, 0.0
    for l in range(n1 + 1):
        total += c / 2**n1 * math.exp(-((tau * (1 - 2 * l / n1) / t2eff) ** 2))
        c = c * (n1 - l) // (l + 1)
    return total


class TestGates:
    """projection_count, key_word, shot_count and free_evolution: one rule per input."""

    def test_phase_scale(self):
        t, deltas = free_evolution(1e150, [1e149], 1, "x")
        assert t == 1e150 and deltas.tolist() == [1e149]
        for t, deltas in ((1e300, [1.0]), (1e300, [1e300]), (1e200, [0.0, -1e100])):
            with pytest.raises(ValueError, match="the width"):
                free_evolution(t, deltas, len(deltas), "the width")

    def test_projection_count(self):
        for n in (0, 7, np.int64(4), MAX_PROJECTIONS):
            got = projection_count(n)
            assert got == n and type(got) is int
        for n in (2.5, True, False, "3", None):
            with pytest.raises(TypeError, match="projection count"):
                projection_count(n)
        for n in (-1, -2, MAX_PROJECTIONS + 1, 10**400):
            with pytest.raises(ValueError, match="projection count.*limit"):
                projection_count(n)

    def test_projection_count_names_what(self):
        with pytest.raises(TypeError, match="^N must be int"):
            projection_count(2.5, "N")
        with pytest.raises(ValueError, match="^N -1 is past the limits"):
            projection_count(-1, "N")

    def test_key_word(self):
        for value in (0, 7, np.uint64(2**64 - 1), 2**64 - 1):
            got = key_word(value, "word")
            assert got == value and type(got) is int
        for value in (1.5, True, "3", None):
            with pytest.raises(TypeError, match="^word must be int"):
                key_word(value, "word")
        for value in (-1, 2**64, 10**400):
            with pytest.raises(ValueError, match=r"^word must lie in \[0, 2\*\*64\), got "):
                key_word(value, "word")

    def test_shot_count(self):
        for shots in (1, np.int64(40), 10**30):
            got = shot_count(shots, "n")
            assert got == shots and type(got) is int
        for shots in (2.0, True, "3", None):
            with pytest.raises(TypeError, match="^n must be int"):
                shot_count(shots, "n")
        for shots in (0, -1):
            with pytest.raises(ValueError, match=f"^n must be >= 1, got {shots}$"):
                shot_count(shots, "n")

    def test_evolution_time(self):
        for t in (0.0, -0.0, 3, np.float64(2.5), 1e300):
            got, _ = free_evolution(t, [0.0], 1, "x")
            assert got == t and type(got) is float
        for t in (True, "1", None, 1j):
            with pytest.raises(TypeError, match="evolution time"):
                free_evolution(t, [0.1], 1, "x")
        # a negative or non-finite time is refused before the phase bound
        for t in (math.nan, math.inf, -math.inf, -1e-300, -1, -2.0, -1e200, 10**400):
            for deltas in ([0.1], [0.0]):
                with pytest.raises(ValueError, match="evolution time"):
                    free_evolution(t, deltas, 1, "x")

    def test_detunings(self):
        _, got = free_evolution(1.0, [1, 2.5], 2, "x")
        assert got.dtype == float and got.tolist() == [1.0, 2.5]
        for k in range(1, MAX_SPINS + 1):
            assert free_evolution(1.0, np.zeros(k), k, "x")[1].shape == (k,)
        for deltas, k in (([], 0), ([0.1] * 5, 5), ([0.1], 2), ([[0.1, 0.2]], 2),
                          (0.1, 1), ([math.nan], 1), ([0.1, math.inf], 2),
                          (["x"], 1)):
            with pytest.raises(ValueError):
                free_evolution(1.0, deltas, k, "x")


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

    @pytest.mark.parametrize("bad", [[math.nan], ["5"], [True], [math.inf], [1e-320],
                                     [12.4, math.nan]])
    def test_dephasing_time_rule(self, bad):
        # the rule of NoiseModel, with no numpy warning on the way
        with pytest.raises((TypeError, ValueError)):
            effective_t2(bad)

    def test_tiny_times_do_not_overflow(self):
        # 1e-200**-2 overflows; the combination itself is finite
        assert effective_t2([1e-200, 1e-200]) == pytest.approx(1e-200 / math.sqrt(2),
                                                               rel=1e-15)


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

    def test_projection_limit(self):
        # past MAX_PROJECTIONS the per-N table is refused before it is built
        t0 = time.perf_counter()
        for n in (model.MAX_PROJECTIONS + 1, model.MAX_PROJECTIONS + 2):
            with pytest.raises(ValueError, match="limit"):
                decay_curve(n, [0.0, 1.0], 1.0)
            with pytest.raises(ValueError, match="limit"):
                sqrt_e_time(n + n % 2, 1.0)
        assert time.perf_counter() - t0 < 1.0

    def test_chunking_does_not_change_values(self, monkeypatch):
        taus = np.linspace(0.0, 40.0, 37)
        whole = decay_curve(300, taus, 2.0)
        monkeypatch.setattr(model, "_CURVE_ENTRIES", 5 * 302)
        assert np.array_equal(decay_curve(300, taus, 2.0), whole)

    def test_invalid_inputs(self):
        for args in [(-1, [1.0], 5.0), (0, [1.0], 0.0), (0, [1.0], math.nan),
                     (0, [math.nan], 5.0), (0, [math.inf], 5.0), (0, [1.0], math.inf),
                     # tau/T2eff is not finite, or its square is not
                     (4, [0.0, 1.0], 1e-320), (4, [1e200], 5.0), (0, [-1e200], 5.0)]:
            with pytest.raises(ValueError):
                decay_curve(*args)
        with pytest.raises(ValueError):
            decay_curve(0, [1.0], 5.0, amplitude=1.5)
        with pytest.raises(ValueError):
            decay_curve(0, [1.0], 5.0, offset=math.nan)
        for n in (2.5, True, False):
            with pytest.raises(TypeError, match="projection count"):
                decay_curve(n, [1.0], 5.0)
        with pytest.raises(TypeError):
            decay_curve(2, [1.0], True)

    @pytest.mark.parametrize("name,value", [
        # True would read as A = 1 and "1" as offset 1
        ("amplitude", True), ("amplitude", "0.5"), ("offset", False), ("offset", "1"),
    ])
    def test_amplitude_and_offset_are_numbers(self, name, value):
        with pytest.raises(TypeError, match=f"^{name} must be float, got {value!r}$"):
            decay_curve(2, [1.0], 5.0, **{name: value})

    def test_amplitude_and_offset_accept_numpy_numbers(self):
        assert np.array_equal(decay_curve(2, [1.0, 4.0], 5.0, np.float64(0.5), np.int64(1)),
                              decay_curve(2, [1.0, 4.0], 5.0, 0.5, 1.0))

    def test_time_ratio_limit(self):
        ratio = model.MAX_TIME_RATIO
        assert decay_curve(0, [0.0, 0.5 * ratio], 1.0).tolist() == [1.0, 0.0]
        with pytest.raises(ValueError, match="T2eff"):
            decay_curve(0, [0.0, ratio], 1.0)


class TestDecaySlope:
    """model._decay_and_slope: the fits' value and d/dT columns."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 5000), st.lists(st.floats(0.0, 4.0), min_size=1, max_size=8),
           st.floats(0.1, 100.0))
    def test_matches_decay_curve_and_central_difference(self, n, scaled, t2eff):
        # taus span the decay, which stretches as sqrt(N + 1)
        taus = np.asarray(scaled) * t2eff * math.sqrt(n + 1)
        value, slope = model._decay_and_slope(model._decay_table(n, taus), t2eff)
        assert np.array_equal(value, decay_curve(n, taus, t2eff))
        h = 1e-5 * t2eff
        central = (decay_curve(n, taus, t2eff + h) - decay_curve(n, taus, t2eff - h)) / (2 * h)
        assert np.max(np.abs(slope - central)) * t2eff <= 1e-8

    def test_chunking_does_not_change_values(self, monkeypatch):
        # one table serves every T2eff, whether it holds tau f (one block) or
        # leaves it to each call (8 blocks of 5 rows)
        taus = np.linspace(0.0, 40.0, 37)
        whole = model._decay_table(300, taus)
        monkeypatch.setattr(model, "_CURVE_ENTRIES", 5 * 302)
        blocks = model._decay_table(300, taus)
        assert whole[0].shape == (37, 302) and blocks[0] is None
        for t2eff in (2.0, 0.5, 7.0):
            want = model._decay_and_slope(whole, t2eff)
            for got in (model._decay_and_slope(blocks, t2eff),
                        model._decay_and_slope(model._decay_table(300, taus), t2eff)):
                assert all(np.array_equal(g, w) for g, w in zip(got, want))
            assert np.array_equal(want[0], decay_curve(300, taus, t2eff))


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

    def test_phase_overflow_rejected(self):
        # each input is finite, but t x detuning is not
        for deltas, t in (([1e300], 1e300), ([0.1, -1e200], 1e100)):
            with pytest.raises(ValueError, match="t x largest"):
                single_shot_expectation(deltas, t, 2)

    @pytest.mark.parametrize("n", [2.5, True])
    def test_bool_or_float_n_rejected(self, n):
        with pytest.raises(TypeError, match="projection count"):
            single_shot_expectation([0.1], 1.0, n)

    @pytest.mark.parametrize("deltas,t", [
        ([0.1], math.nan), ([math.nan], 1.0), ([], 1.0), ([0.1] * 5, 1.0),
        ([0.1] * 16, 1.0)])
    def test_bad_time_or_detunings_rejected_before_any_work(self, deltas, t):
        # a 16-spin sign sum would take 2**15 terms; the gates refuse it first
        with mock.patch.object(model, "product") as signs:
            with pytest.raises(ValueError):
                single_shot_expectation(deltas, t, 2)
        signs.assert_not_called()


class TestOddNAsymptote:
    def test_values(self):
        assert odd_n_asymptote(1) == pytest.approx(0.5)
        assert odd_n_asymptote(3) == pytest.approx(0.375)

    def test_even_rejected(self):
        for n in (0, 2):
            with pytest.raises(ValueError):
                odd_n_asymptote(n)

    @pytest.mark.parametrize("n", [3.0, True])
    def test_bool_or_float_n_rejected(self, n):
        with pytest.raises(TypeError, match="projection count"):
            odd_n_asymptote(n)

    def test_projection_limit(self):
        with pytest.raises(ValueError, match="limit"):
            odd_n_asymptote(MAX_PROJECTIONS + 1)

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

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="projection count"):
            sqrt_e_time(-2, 1.0)

    @pytest.mark.parametrize("n", [False, True, 2.0])
    def test_bool_or_float_n_rejected(self, n):
        with pytest.raises(TypeError, match="projection count"):
            sqrt_e_time(n, 2.0)

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
