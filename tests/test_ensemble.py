import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenosim import ensemble, logical
from zenosim.channel import project
from zenosim.ensemble import (MAX_ROWS, DecayCurve, ExperimentPlan, NoiseModel,
                              readout_operator, run_ensemble, run_shot,
                              sample_detunings)
from zenosim.logical import logical_pauli_fidelity, resolve_state
from zenosim.model import decay_curve, single_shot_expectation
from zenosim.spins import basis_signs, evolve_dephasing, expectation, state_fidelity


def make_plan(**kw):
    base = dict(noise=NoiseModel((12.4,)), initial_state="X", observable="X",
                readout=("X",), n_projections=0, tau_grid=(1.0, 2.0, 3.0),
                shots=10, seed=99)
    base.update(kw)
    return ExperimentPlan(**base)


def dense_reference(plan, deltas, tau):
    """Readouts from step-by-step dense evolve_dephasing and project calls."""
    psi = resolve_state(plan.initial_state)
    rho = np.outer(psi, psi.conj())
    seg = tau / (plan.n_projections + 1)
    for _ in range(plan.n_projections):
        rho = project(plan.observable, evolve_dephasing(rho, deltas, seg))
    rho = evolve_dephasing(rho, deltas, seg)
    return np.array([
        state_fidelity(rho, resolve_state(r[2:])) if r.startswith("F:")
        else logical_pauli_fidelity(rho, r[2:]) if r.startswith("L:")
        else expectation(rho, r)
        for r in plan.readout
    ])


def loop_kernel(plan, deltas, seg):
    """Readouts of rows (deltas[i], seg[i]), one projection pass at a time.

    The kernel's former projection loop, kept as its reference: each
    density matrix flattened to dim**2 entries, evolution an in-place
    product with the phase outer product, and each of the N projections a
    gather by the observable's index permutation times its signs.
    """
    k = plan.k
    dim = 2**k
    psi = resolve_state(plan.initial_state)
    rho0 = np.outer(psi, psi.conj()).ravel()
    weights = np.stack([readout_operator(r).T.ravel() for r in plan.readout], axis=1)
    perm, sign = ensemble._word_action(plan.observable)
    flat_perm = (perm[:, None] * dim + perm[None, :]).ravel()
    flat_sign = np.outer(sign, sign).ravel()
    z = basis_signs(k).T
    u = np.exp(-0.5j * seg[:, None] * (deltas @ z))
    step = (u[:, :, None] * u.conj()[:, None, :]).reshape(len(seg), dim * dim)
    rho = step * rho0
    step *= 0.5  # the projection's 1/2, folded into the next segment
    for _ in range(plan.n_projections):
        rho += rho[:, flat_perm] * flat_sign
        rho *= step
    return (rho @ weights).real


class TestSampleDetunings:
    def test_deterministic(self):
        noise = NoiseModel((12.4, 8.2))
        a = sample_detunings(42, 5, 3, 7, noise)
        b = sample_detunings(42, 5, 3, 7, noise)
        assert a.shape == (7, 2)
        assert np.array_equal(a, b)
        # a longer block extends the same stream
        assert np.array_equal(sample_detunings(42, 5, 3, 20, noise)[:7], a)

    def test_distinct_across_shots(self):
        noise = NoiseModel((12.4,))
        draws = {tuple(row) for row in sample_detunings(1, 5, 0, 50, noise)}
        assert len(draws) == 50

    def test_distinct_across_points(self):
        noise = NoiseModel((12.4, 8.2))
        blocks = [sample_detunings(1, 5, p, 50, noise) for p in range(3)]
        draws = {tuple(row) for b in blocks for row in b}
        assert len(draws) == 150

    def test_sample_width(self):
        noise = NoiseModel((12.4,))
        x = sample_detunings(5, 5, 0, 100_000, noise)[:, 0]
        sigma = math.sqrt(2) / 12.4
        assert abs(x.std() - sigma) / sigma < 0.01
        assert abs(x.mean()) < 4 * sigma / math.sqrt(100_000)


class TestPlanStream:
    def block(self, plan):
        return sample_detunings(plan.seed, plan.stream, 0, plan.shots, plan.noise)

    @pytest.mark.parametrize("change", [
        {"initial_state": "-X"}, {"n_projections": 2}, {"observable": "Y"},
        {"noise": NoiseModel((8.2,))}, {"noise": NoiseModel((12.4 * (1 + 2**-52),))},
    ])
    def test_physics_changes_the_block(self, change):
        base, other = make_plan(), make_plan(**change)
        assert other.stream != base.stream
        assert not np.array_equal(self.block(other) / other.noise.sigma,
                                  self.block(base) / base.noise.sigma)

    def test_readout_grid_and_shots_keep_the_stream(self):
        base = make_plan()
        for other in (make_plan(readout=("X", "F:X")), make_plan(tau_grid=(5.0,)),
                      make_plan(shots=30), make_plan(n_projections=np.int64(0))):
            assert other.stream == base.stream
        assert make_plan(noise=NoiseModel((12,))).stream == \
            make_plan(noise=NoiseModel((12.0,))).stream

    def test_stream_is_stable_across_processes(self):
        code = ("from zenosim.ensemble import ExperimentPlan, NoiseModel; "
                "print(ExperimentPlan(NoiseModel((12.4, 8.2)), '+L', 'XX', ('XX',), "
                "4, (1.0,), 1, 0).stream)")
        src = str(Path(ensemble.__file__).parents[1])
        streams = {subprocess.run([sys.executable, "-c", code], check=True, text=True,
                                  capture_output=True,
                                  env=dict(os.environ, PYTHONPATH=src,
                                           PYTHONHASHSEED=hs)).stdout.strip()
                   for hs in ("1", "2")}
        here = make_plan(noise=NoiseModel((12.4, 8.2)), initial_state="+L",
                         observable="XX", readout=("XX",), n_projections=4)
        assert streams == {str(here.stream)}

    @pytest.mark.parametrize("n", [0, 5])
    @pytest.mark.parametrize("k,state,word,readout", [
        (2, "+L", "XX", ("XX", "L:+L")),
        (3, "X0L", "XXX", ("F:X0L", "XYZ")),
        (4, "X,X,X,X", "XXXX", ("XXXX", "F:X,X,X,X")),
    ])
    def test_readouts_run_alone_or_together(self, k, state, word, readout, n):
        # the pairs a readout reads differ with the readouts beside it, which
        # must not change a bit of its values
        def plan(ro):
            return make_plan(noise=NoiseModel((12.4, 8.2, 21.0, 9.0)[:k]),
                             initial_state=state, observable=word, readout=ro,
                             n_projections=n, tau_grid=(0.0, 2.0, 6.0, 15.0),
                             shots=700)
        both = run_ensemble(plan(readout))
        for r, curve in zip(readout, both):
            (alone,) = run_ensemble(plan((r,)))
            assert plan((r,)).stream == plan(readout).stream
            assert np.array_equal(alone.mean, curve.mean), r
            assert np.array_equal(alone.stderr, curve.stderr), r


class TestRunShot:
    def test_no_projection_no_detuning(self):
        vals = run_shot(make_plan(), [0.0], 5.0)
        assert vals[0] == pytest.approx(1.0, abs=1e-12)

    def test_single_projection_quarter_turn(self):
        plan = make_plan(n_projections=1)
        tau = 2.0
        vals = run_shot(plan, [np.pi / 2 / (tau / 2)], tau)
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[0] == pytest.approx(
            single_shot_expectation([np.pi / 2 / (tau / 2)], tau / 2, 1), abs=1e-12)

    def test_matches_closed_form_three_spins(self):
        rng = np.random.default_rng(8)
        plan = make_plan(noise=NoiseModel((12.4, 8.2, 21.0)),
                         initial_state="X,X,X", observable="XXX",
                         readout=("XXX",), n_projections=2)
        for _ in range(25):
            deltas = rng.normal(scale=0.2, size=3)
            tau = rng.uniform(0.5, 20)
            got = run_shot(plan, deltas, tau)[0]
            want = single_shot_expectation(deltas, tau / 3, 2)
            assert got == pytest.approx(want, abs=1e-10)

    def test_fidelity_readout(self):
        plan = make_plan(readout=("F:X",))
        assert run_shot(plan, [0.0], 1.0)[0] == pytest.approx(1.0, abs=1e-12)


class TestRunEnsemble:
    def test_n0_mean_matches_gaussian(self):
        plan = make_plan(tau_grid=(12.4,), shots=20_000)
        curve = run_ensemble(plan)[0]
        assert abs(curve.mean[0] - math.exp(-1)) < 4 * curve.stderr[0]

    def test_two_spin_effective_decay(self):
        plan = make_plan(noise=NoiseModel((12.4, 8.2)), initial_state="X,X",
                         observable="XX", readout=("XX",),
                         tau_grid=(3.0, 6.84, 12.0), shots=20_000)
        curve = run_ensemble(plan)[0]
        want = decay_curve(0, curve.tau, 6.8397)
        assert np.all(np.abs(curve.mean - want) < 4 * curve.stderr)

    def test_more_projections_protect(self):
        common = dict(tau_grid=(40.0,), shots=10_000)
        slow = run_ensemble(make_plan(n_projections=16, **common))[0]
        fast = run_ensemble(make_plan(n_projections=0, **common))[0]
        assert slow.mean[0] > fast.mean[0] + 5 * (slow.stderr[0] + fast.stderr[0])

    def test_z_correlator_flat(self):
        plan = make_plan(noise=NoiseModel((12.4, 8.2)), initial_state="0,0",
                         observable="XX", readout=("ZZ",),
                         tau_grid=(1.0, 10.0, 30.0), shots=200, n_projections=0)
        curve = run_ensemble(plan)[0]
        assert np.allclose(curve.mean, 1.0, atol=1e-10)
        # with projections the channel still commutes with ZZ
        plan2 = make_plan(noise=NoiseModel((12.4, 8.2)), initial_state="0,0",
                          observable="XX", readout=("ZZ",),
                          tau_grid=(1.0, 10.0, 30.0), shots=200, n_projections=4)
        assert np.allclose(run_ensemble(plan2)[0].mean, 1.0, atol=1e-10)

    def test_quasi_static_within_shot(self):
        # a detuning with delta*seg = pi rephases after two segments; a
        # fresh draw per segment would not return to +1 deterministically
        plan = make_plan(n_projections=1, readout=("X",))
        tau = 4.0
        vals = run_shot(plan, [np.pi / (tau / 2)], tau)
        assert vals[0] == pytest.approx(1.0, abs=1e-12)

    def test_bit_identical_reruns(self):
        plan = make_plan(shots=500, n_projections=2)
        a = run_ensemble(plan)[0]
        b = run_ensemble(plan)[0]
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.stderr, b.stderr)

    def test_batched_matches_scalar_path(self):
        plan = make_plan(noise=NoiseModel((12.4, 8.2)), initial_state="X,X",
                         observable="XX",
                         readout=("XX", "ZZ", "F:X,X", "L:0L", "L:+iL"),
                         n_projections=3, tau_grid=(2.5, 6.0), shots=40)
        curves = run_ensemble(plan)
        for p, tau in enumerate(plan.tau_grid):
            block = sample_detunings(plan.seed, plan.stream, p, plan.shots, plan.noise)
            vals = np.stack([dense_reference(plan, d, tau) for d in block])
            curve_means = np.array([c.mean[p] for c in curves])
            assert np.allclose(curve_means, vals.mean(axis=0), atol=1e-12)
            # per-shot values, so an L: readout's error bar holds the
            # covariance of its correlators
            curve_errs = np.array([c.stderr[p] for c in curves])
            want_errs = vals.std(axis=0, ddof=1) / np.sqrt(plan.shots)
            assert np.allclose(curve_errs, want_errs, atol=1e-12)


PAULI_WORDS = st.integers(1, 4).flatmap(
    lambda k: st.text("IXYZ", min_size=k, max_size=k)).filter(lambda w: set(w) != {"I"})


class TestKernelProperties:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 4).flatmap(lambda k: st.lists(
               st.floats(-0.5, 0.5), min_size=k, max_size=k)),
           st.integers(0, 32), st.floats(0.0, 40.0))
    def test_x_words_match_closed_form(self, deltas, n, tau):
        k = len(deltas)
        plan = make_plan(noise=NoiseModel((10.0,) * k),
                         initial_state=",".join(["X"] * k), observable="X" * k,
                         readout=("X" * k,), n_projections=n)
        got = run_shot(plan, deltas, tau)[0]
        want = single_shot_expectation(deltas, tau / (n + 1), n)
        assert abs(got - want) < 1e-10

    @settings(deadline=None, max_examples=60)
    @given(PAULI_WORDS, st.data(), st.integers(0, 8), st.floats(0.0, 40.0))
    def test_any_word_matches_dense_reference(self, word, data, n, tau):
        k = len(word)
        labels = data.draw(st.lists(st.sampled_from(["0", "1", "X", "-X", "Y", "-Y"]),
                                    min_size=k, max_size=k))
        readout = tuple(data.draw(st.lists(st.text("IXYZ", min_size=k, max_size=k),
                                           min_size=1, max_size=3)))
        deltas = data.draw(st.lists(st.floats(-0.5, 0.5), min_size=k, max_size=k))
        plan = make_plan(noise=NoiseModel((10.0,) * k), initial_state=",".join(labels),
                         observable=word, readout=readout + ("F:" + ",".join(labels),),
                         n_projections=n)
        got = run_shot(plan, deltas, tau)
        assert np.max(np.abs(got - dense_reference(plan, deltas, tau))) < 1e-12

    @settings(deadline=None, max_examples=60)
    @given(PAULI_WORDS, st.data(), st.integers(0, 4096), st.floats(0.0, 40.0))
    def test_closed_form_matches_loop_at_large_n(self, word, data, n, tau):
        k = len(word)
        labels = st.lists(st.sampled_from(["0", "1", "X", "-X", "Y", "-Y"]),
                          min_size=k, max_size=k).map(",".join)
        state = data.draw(labels)
        # an F: target off the initial state can weight entries whose
        # mirror carries no weight
        readout = tuple(data.draw(st.lists(
            st.text("IXYZ", min_size=k, max_size=k) | labels.map("F:".__add__),
            min_size=1, max_size=3)))
        deltas = np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=k,
                                             max_size=k)))
        plan = make_plan(noise=NoiseModel((10.0,) * k), initial_state=state,
                         observable=word, readout=readout, n_projections=n)
        got = run_shot(plan, deltas, tau)
        want = loop_kernel(plan, deltas[None, :], np.array([tau / (n + 1)]))[0]
        assert np.max(np.abs(got - want)) < 1e-12

    @settings(deadline=None, max_examples=40)
    @given(PAULI_WORDS.filter(lambda w: len(w) <= 3), st.integers(0, 6),
           st.integers(1, 30), st.integers(1, 4), st.integers(1, 7))
    def test_chunking_does_not_change_means(self, word, n, shots, points, rows):
        k = len(word)
        plan = make_plan(noise=NoiseModel((12.4, 8.2, 21.0)[:k]),
                         initial_state=",".join(["X"] * k), observable=word,
                         readout=(word, "Z" * k), n_projections=n,
                         tau_grid=tuple(3.0 * (p + 1) for p in range(points)),
                         shots=shots)
        whole = run_ensemble(plan)
        with mock.patch.object(ensemble, "_CHUNK_ENTRIES", rows * 4**k):
            chunked = run_ensemble(plan)
        for a, b in zip(whole, chunked):
            assert np.max(np.abs(a.mean - b.mean)) < 1e-14
            assert np.max(np.abs(a.stderr - b.stderr)) < 1e-14


    @settings(deadline=None, max_examples=40)
    @given(PAULI_WORDS.filter(lambda w: len(w) <= 3), st.integers(0, 6),
           st.integers(1, 30), st.integers(1, 4), st.integers(1, 7))
    def test_chunks_of_exact_row_counts(self, word, n, shots, points, rows):
        k = len(word)
        plan = make_plan(noise=NoiseModel((12.4, 8.2, 21.0)[:k]),
                         initial_state=",".join(["X"] * k), observable=word,
                         readout=(word, "Z" * k), n_projections=n,
                         tau_grid=tuple(3.0 * (p + 1) for p in range(points)),
                         shots=shots)
        pairs = len(ensemble._plan_tables(plan.initial_state, plan.observable,
                                          plan.readout[0]).a)
        whole = run_ensemble(plan)
        # each chunk of the first readout holds exactly `rows` rows
        with mock.patch.object(ensemble, "_CHUNK_ENTRIES", rows * pairs):
            chunked = run_ensemble(plan)
        for a, b in zip(whole, chunked):
            assert np.max(np.abs(a.mean - b.mean)) < 1e-14
            assert np.max(np.abs(a.stderr - b.stderr)) < 1e-14


class TestPlanTables:
    def test_second_run_shot_reuses_tables(self):
        plan = make_plan(noise=NoiseModel((12.4, 8.2)), initial_state="+iL",
                         observable="XX", readout=("XX", "F:+iL", "L:+iL"),
                         n_projections=3)
        first = run_shot(plan, [0.1, -0.2], 4.0)
        with mock.patch.object(ensemble, "readout_operator",
                               wraps=ensemble.readout_operator) as ops, \
                mock.patch.object(ensemble, "resolve_state",
                                  wraps=ensemble.resolve_state) as states, \
                mock.patch.object(logical, "resolve_state",
                                  wraps=logical.resolve_state) as logical_states:
            second = run_shot(plan, [0.1, -0.2], 4.0)
        assert ops.call_count == states.call_count == logical_states.call_count == 0
        assert np.array_equal(first, second)

    def test_tables_are_read_only(self):
        plan = make_plan(n_projections=2)
        tables = ensemble._plan_tables(plan.initial_state, plan.observable,
                                       plan.readout[0])
        with pytest.raises(ValueError):
            tables.rho0[0] = 0.0


class TestValidation:
    def test_monte_carlo_size_limit(self):
        three_points = (1.0, 2.0, 3.0)
        make_plan(tau_grid=three_points, shots=MAX_ROWS // 3)
        for shots in (MAX_ROWS // 3 + 1, 111111111111111111111111111111):
            with pytest.raises(ValueError, match="Monte-Carlo rows"):
                make_plan(tau_grid=three_points, shots=shots)

    def test_list_readout_runs_as_tuple(self):
        plan = make_plan(readout=["X", "F:X"], n_projections=2)
        assert plan.readout == ("X", "F:X")
        want = run_shot(make_plan(readout=("X", "F:X"), n_projections=2), [0.1], 4.0)
        assert np.array_equal(run_shot(plan, [0.1], 4.0), want)

    def test_bad_tau_grid(self):
        with pytest.raises(ValueError):
            make_plan(tau_grid=(2.0, 1.0))
        with pytest.raises(ValueError):
            make_plan(tau_grid=())
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                make_plan(tau_grid=(1.0, bad))

    def test_non_finite_dephasing_time(self):
        # 1e-320 is finite, but its width sqrt(2)/1e-320 is not
        for bad in (math.nan, math.inf, 1e-320):
            with pytest.raises(ValueError):
                NoiseModel((12.4, bad))

    def test_phase_scale_limit(self):
        # 1e10 ms x sqrt(2)/1e-300 overflows the phase of every drawn detuning
        tiny = NoiseModel((1e-300,))
        with pytest.raises(ValueError, match="largest tau"):
            make_plan(noise=tiny, tau_grid=(0.0, 1e10))
        make_plan(noise=tiny, tau_grid=(0.0, 1e-3))

    def test_seed_range(self):
        for bad in (-3, 2**64):
            with pytest.raises(ValueError):
                make_plan(seed=bad)
        make_plan(seed=2**64 - 1)

    def test_observable_length(self):
        with pytest.raises(ValueError):
            make_plan(observable="XX")

    def test_register_size(self):
        for kw in ({"initial_state": "X,X"}, {"readout": ("XX",)},
                   {"readout": ("X", "F:X,X")}, {"readout": ("F:+L",)}):
            with pytest.raises(ValueError, match="register"):
                make_plan(**kw)
        two_spins = dict(noise=NoiseModel((12.4, 8.2)), initial_state="+L",
                         observable="XX")
        with pytest.raises(ValueError, match="register"):
            make_plan(readout=("L:00L",), **two_spins)
        with pytest.raises(ValueError, match="unknown logical label"):
            make_plan(readout=("L:2L",), **two_spins)
        make_plan(readout=("XX", "F:+L", "F:X,X", "L:+L"), **two_spins)

    def test_curve_invariants(self):
        with pytest.raises(ValueError):
            DecayCurve(np.array([1.0]), np.array([0.5]), np.array([-0.1]), 0, "X")
