import math
import os
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zenosim import cli, ensemble, logical
from zenosim.channel import project
from zenosim.cli import curve_to_csv
from zenosim.ensemble import (MAX_ROWS, DecayCurve, ExperimentPlan, NoiseModel,
                              readout_operator, run_ensemble, run_shot,
                              sample_detunings)
from zenosim.logical import logical_pauli_fidelity, resolve_state
from zenosim.model import MAX_PROJECTIONS, decay_curve, single_shot_expectation
from zenosim.spins import (basis_signs, evolve_dephasing, expectation, pauli_matrix,
                           state_fidelity)

from pinned_outputs import SIMULATE


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
    # (O rho O)[a, b] = O[a, perm a] rho[perm a, perm b] conj(O[b, perm b])
    o = pauli_matrix(plan.observable)
    perm = np.nonzero(o)[1]
    coeff = o[np.arange(dim), perm]
    flat_perm = (perm[:, None] * dim + perm[None, :]).ravel()
    flat_sign = np.outer(coeff, coeff.conj()).ravel()
    z = basis_signs(k).T
    u = np.exp(-0.5j * seg[:, None] * (deltas @ z))
    step = (u[:, :, None] * u.conj()[:, None, :]).reshape(len(seg), dim * dim)
    rho = step * rho0
    step *= 0.5  # the projection's 1/2, folded into the next segment
    for _ in range(plan.n_projections):
        rho += rho[:, flat_perm] * flat_sign
        rho *= step
    return (rho @ weights).real


def fresh_blocks(seed, stream, points, shots, noise):
    """Detunings drawn by a new Philox per point: the oracle of sample_detunings."""
    key, k = np.array([seed, stream], dtype=np.uint64), len(noise.t2_star)
    blocks = [np.random.Generator(np.random.Philox(
        key=key, counter=np.array([0, 0, 0, p], dtype=np.uint64))).standard_normal((shots, k))
        for p in points]
    return np.concatenate([np.empty((0, k)), *blocks]) * noise.sigma


# Calls that differ in every argument: seed, stream, points, shots and spins
_CALLS = [(seed, stream, points, shots, NoiseModel((12.4, 8.2, 21.0)[:k]))
          for seed, stream, points, shots, k in (
              (0, 0, [0], 1, 1), (2**64 - 1, 5, [3, 1, 4], 7, 2),
              (7, 2**64 - 1, range(5), 2, 3), (7, 6, [2**40, 0], 33, 1),
              (99, 6, [1], 2000, 2), (0, 1, [], 4, 3), (1, 0, [9, 9], 3, 2))]


def _draw_calls(order):
    """(i, sample_detunings of _CALLS[i]) for each i in order."""
    return [(i, sample_detunings(*_CALLS[i])) for i in order]


class TestSampleDetunings:
    def test_deterministic(self):
        noise = NoiseModel((12.4, 8.2))
        a = sample_detunings(42, 5, [3], 7, noise)
        b = sample_detunings(42, 5, [3], 7, noise)
        assert a.shape == (7, 2)
        assert np.array_equal(a, b)
        # a longer block extends the same stream
        assert np.array_equal(sample_detunings(42, 5, [3], 20, noise)[:7], a)
        # one index, as an int, a numpy scalar or a 0-d array, is one point
        for point in (3, np.uint64(3), np.array(3)):
            assert np.array_equal(sample_detunings(42, 5, point, 7, noise), a)

    def test_distinct_across_shots(self):
        noise = NoiseModel((12.4,))
        draws = {tuple(row) for row in sample_detunings(1, 5, [0], 50, noise)}
        assert len(draws) == 50

    def test_distinct_across_points(self):
        noise = NoiseModel((12.4, 8.2))
        blocks = [sample_detunings(1, 5, [p], 50, noise) for p in range(3)]
        draws = {tuple(row) for b in blocks for row in b}
        assert len(draws) == 150

    def test_sample_width(self):
        noise = NoiseModel((12.4,))
        x = sample_detunings(5, 5, [0], 100_000, noise)[:, 0]
        sigma = math.sqrt(2) / 12.4
        assert abs(x.std() - sigma) / sigma < 0.01
        assert abs(x.mean()) < 4 * sigma / math.sqrt(100_000)

    @pytest.mark.parametrize("points,error", [
        # 0.5 would draw point 0's block, a stream collision
        (0.5, TypeError), ([0, 0.5], TypeError), (True, TypeError),
        (-1, ValueError), ([2**64], ValueError),
    ])
    def test_points_are_nonnegative_ints(self, points, error):
        with pytest.raises(error, match="points"):
            sample_detunings(1, 5, points, 3, NoiseModel((12.4,)))

    @pytest.mark.parametrize("seed,stream,error,name", [
        # 1.5 and True would draw seed 1's stream, and "3" seed 3's
        (1.5, 5, TypeError, "seed"), (True, 5, TypeError, "seed"), ("3", 5, TypeError, "seed"),
        (-1, 5, ValueError, "seed"), (2**64, 5, ValueError, "seed"),
        (1, 0.5, TypeError, "stream"), (1, False, TypeError, "stream"),
        (1, "5", TypeError, "stream"), (1, -1, ValueError, "stream"),
        (1, 2**64, ValueError, "stream"),
    ])
    def test_seed_and_stream_are_64_bit_ints(self, seed, stream, error, name):
        with pytest.raises(error, match=name):
            sample_detunings(seed, stream, [0], 3, NoiseModel((12.4,)))

    @pytest.mark.parametrize("shots,error", [
        # True would draw one shot, 2.0 two, "3" three; -1 and 0 no block at all
        (True, TypeError), (2.0, TypeError), ("3", TypeError), (-1, ValueError), (0, ValueError),
    ])
    def test_shots_is_a_positive_int(self, shots, error):
        with pytest.raises(error, match="shots"):
            sample_detunings(1, 5, [0], shots, NoiseModel((12.4,)))

    def test_seed_and_stream_accept_numpy_ints(self):
        noise = NoiseModel((12.4,))
        assert np.array_equal(sample_detunings(np.uint64(2**64 - 1), np.int64(5), [2], 3, noise),
                              sample_detunings(2**64 - 1, 5, [2], 3, noise))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.integers(1, 4),
           st.just(1) | st.integers(1, 50).map(lambda s: 2 * s + 1) | st.integers(2000, 2100),
           st.integers(1, 40).map(range) | st.just((2**40,)),
           st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
    def test_blocks_match_a_fresh_generator_per_point(self, k, shots, points, seed, stream):
        # oracle: a new Philox at each point's counter, the construction the
        # shared generator replaces
        noise = NoiseModel((12.4, 8.2, 21.0, 5.5)[:k])
        key = np.array([seed, stream], dtype=np.uint64)
        stacked = sample_detunings(seed, stream, points, shots, noise)
        assert stacked.shape == (len(points) * shots, k)
        for i, p in enumerate(points):
            bg = np.random.Philox(key=key, counter=np.array([0, 0, 0, p], dtype=np.uint64))
            want = np.random.Generator(bg).standard_normal((shots, k)) * noise.sigma
            assert np.array_equal(stacked[i * shots:(i + 1) * shots], want)
            assert np.array_equal(sample_detunings(seed, stream, [p], shots, noise), want)


class TestReusedGenerator:
    """Each thread reuses one generator; every call still draws the fresh-Philox blocks."""

    def test_interleaved_calls_match_fresh_generators(self):
        order = [0, 1, 2, 3, 4, 5, 6, 1, 0, 4, 2, 6, 3, 3, 1]
        for i, got in _draw_calls(order):
            assert np.array_equal(got, fresh_blocks(*_CALLS[i])), _CALLS[i]

    def test_a_second_thread_matches_fresh_generators(self):
        results = []
        worker = threading.Thread(target=lambda: results.extend(
            _draw_calls(range(len(_CALLS)))))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert [i for i, _ in results] == list(range(len(_CALLS)))
        for i, got in results:
            assert np.array_equal(got, fresh_blocks(*_CALLS[i])), _CALLS[i]

    def test_concurrent_threads_match_fresh_generators(self):
        # the main thread and three workers draw at once in different
        # orders, switching often; a generator shared between them would
        # mix their streams
        orders = [list(range(len(_CALLS))) * 10]
        orders += [orders[0][::-1], orders[0][::2] + orders[0][1::2], orders[0][3:] + orders[0][:3]]
        start = threading.Barrier(len(orders))
        results = [[] for _ in orders]

        def work(j):
            start.wait(timeout=60)
            results[j].extend(_draw_calls(orders[j]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(j,)) for j in range(1, len(orders))]
            for worker in workers:
                worker.start()
            work(0)
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        want = [fresh_blocks(*call) for call in _CALLS]
        for order, result in zip(orders, results):
            assert [i for i, _ in result] == order
            for i, got in result:
                assert np.array_equal(got, want[i]), _CALLS[i]

    def test_a_warm_call_builds_no_philox(self):
        # on a new thread: a rejected call builds nothing, the first draw
        # builds the thread's one generator, later draws reuse it
        built, counts, results = [], [], []
        real = np.random.Philox

        def spy(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        def work():
            try:
                sample_detunings(-1, 5, [0], 3, _CALLS[0][4])
            except ValueError:
                counts.append(len(built))
            for i in (1, 2, 1):
                results.append((i, sample_detunings(*_CALLS[i])))
                counts.append(len(built))

        with mock.patch.object(np.random, "Philox", spy):
            worker = threading.Thread(target=work)
            worker.start()
            worker.join(timeout=60)
        assert not worker.is_alive() and counts == [0, 1, 1, 1]
        for i, got in results:
            assert np.array_equal(got, fresh_blocks(*_CALLS[i]))


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
        # kernel_deep's plan: the diagonal readout shares the phase block
        (4, "X,Y,0,X", "XYZX", ("XYZX", "ZIZZ")),
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

    def test_bad_time_or_detunings_rejected(self):
        plan = make_plan()
        for tau in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="evolution time"):
                run_shot(plan, [0.1], tau)
        with pytest.raises(TypeError, match="evolution time"):
            run_shot(plan, [0.1], True)
        for deltas in ([], [0.1, 0.2], [math.nan], [[0.1]]):
            with pytest.raises(ValueError, match="detunings"):
                run_shot(plan, deltas, 1.0)

    def test_phase_overflow_rejected(self):
        # each input is finite, but tau x detuning is not
        plan = make_plan(n_projections=2)
        for deltas, tau in (([1e300], 1e300), ([-1e200], 1e100)):
            with pytest.raises(ValueError, match="tau x largest"):
                run_shot(plan, deltas, tau)
        assert np.isfinite(run_shot(plan, [1e150], 1e149)).all()


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

    def test_equal_shots_have_zero_stderr(self):
        # at tau = 0 every shot reads the same value; the spread is taken
        # about each point's first shot, so it is exactly 0, not a residue
        plan = make_plan(noise=NoiseModel((12.4, 8.2)), initial_state="+iL",
                         observable="XX", readout=("XX", "F:+iL", "L:+iL"),
                         n_projections=2, tau_grid=(0.0, 5.0), shots=333)
        for curve in run_ensemble(plan):
            assert curve.stderr[0] == 0.0 and curve.stderr[1] > 0, curve.readout

    def test_bit_identical_reruns(self):
        plan = make_plan(shots=500, n_projections=2)
        a = run_ensemble(plan)[0]
        b = run_ensemble(plan)[0]
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.stderr, b.stderr)

    def test_batched_matches_scalar_path(self):
        plans = [make_plan(noise=NoiseModel((12.4, 8.2)), initial_state="X,X",
                           observable="XX",
                           readout=("XX", "ZZ", "F:X,X", "L:0L", "L:+iL"),
                           n_projections=3, tau_grid=(2.5, 6.0), shots=40)]
        # readouts that flip a spin the observable does not, so that the
        # kernel's terms carry the phase exp(i(N+1) alpha_u)
        for state, word, readout in (("X,X", "XZ", "XX"), ("X,Y,X", "XIZ", "F:X,Y,X"),
                                     ("X,Y,X", "YIZ", "XYX")):
            assert np.iscomplexobj(ensemble._plan_table(state, word, readout).p)
            plans += [make_plan(noise=NoiseModel((12.4, 8.2, 21.0)[:len(word)]),
                                initial_state=state, observable=word, readout=(readout,),
                                n_projections=n, tau_grid=(2.5, 6.0), shots=40)
                      for n in (0, 1, 2, 5)]
        for plan in plans:
            curves = run_ensemble(plan)
            for p, tau in enumerate(plan.tau_grid):
                block = sample_detunings(plan.seed, plan.stream, [p], plan.shots,
                                         plan.noise)
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

    @settings(deadline=None, max_examples=60)
    @given(PAULI_WORDS, st.data(), st.integers(50, 300), st.integers(0, 2**32 - 1))
    def test_many_rows_match_loop(self, word, data, rows, seed):
        # every row of a many-row batch, split over several chunks, against
        # the projection loop; states on and off the observable's eigenstates
        # and readouts that do or do not commute with it give tables real or
        # complex, with or without Q and D terms, and taus up to 40 make many
        # cosines negative. The loop takes N passes, so N = 4095 stays at k <= 3
        k = len(word)
        state = data.draw(states_for(word))
        readout = tuple(data.draw(st.just([word]) | readouts_for(k)))
        n = data.draw(st.sampled_from([*range(9), 31, 63] + [4095] * (k <= 3)))
        plan = make_plan(noise=NoiseModel((10.0,) * k), initial_state=state,
                         observable=word, readout=readout, n_projections=n)
        rng = np.random.default_rng(seed)
        deltas = rng.uniform(-0.5, 0.5, (rows, k))
        seg = rng.uniform(0.0, 40.0, rows) / (n + 1)
        # every readout's chunks hold at least the drawn number of rows
        columns = max(len(ensemble._plan_table(state, word, r).p) for r in readout)
        with mock.patch.object(ensemble, "_CHUNK_ENTRIES",
                               columns * data.draw(st.integers(1, 40))):
            got = ensemble._kernel(plan, deltas, seg)
        assert np.max(np.abs(got - loop_kernel(plan, deltas, seg).T)) < 1e-12

    @settings(deadline=None, max_examples=60)
    @given(PAULI_WORDS, st.data(), st.integers(1, 60), st.integers(0, 2**32 - 1))
    def test_one_power_matches_product_form(self, word, data, rows, seed):
        # a readout whose table has neither Q nor D takes P c**(N+1) as one
        # power from N = 4 on: within 8 eps sum|P| of the product
        # P c c sign|c|**(N-1), summed one column after another, and that
        # product itself, to the bit, below N = 4
        k = len(word)
        state = data.draw(states_for(word))
        readout = tuple(data.draw(st.just([word]) | readouts_for(k)))
        tables = [ensemble._plan_table(state, word, r) for r in readout]
        assume(any(t.q is None and t.d is None for t in tables))
        n = data.draw(st.integers(0, 300) | st.sampled_from([1023, 10**6]))
        plan = make_plan(noise=NoiseModel((10.0,) * k), initial_state=state,
                         observable=word, readout=readout, n_projections=n)
        rng = np.random.default_rng(seed)
        deltas = rng.uniform(-0.5, 0.5, (rows, k))
        # taus up to 40, and segments up to 40, whose cosines near -1 keep
        # odd and even powers apart at any N
        seg = rng.uniform(0.0, 40.0, rows) / rng.choice([1, n + 1], rows)
        got = ensemble._kernel(plan, deltas, seg)
        # the kernel's phase sum, so that both sides raise the same cosines
        step = np.multiply(deltas.T, seg, order="C")
        for table, values in zip(tables, got):
            if table.q is not None or table.d is not None:
                continue
            c = np.cos((table.flipped * step).sum(axis=1))
            v = table.p * c
            if n:
                v *= c
                power = np.abs(c) ** (n - 1)
                v *= np.copysign(power, c) if n % 2 == 0 else power
            if table.unflipped is not None:
                v *= np.exp((n + 1) * 1j * (table.unflipped * step).sum(axis=1))
            want = v.real[0].copy()
            for column in v.real[1:]:
                want += column
            if n < 4:
                assert np.array_equal(values, want)
            else:
                bound = 8 * np.finfo(float).eps * np.abs(table.p).sum()
                assert (np.abs(values - want) <= bound).all()

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
        whole = run_ensemble(plan)
        for r, readout in enumerate(plan.readout):
            columns = len(ensemble._plan_table(plan.initial_state, plan.observable, readout).p)
            # each of the readout's chunks holds exactly `rows` rows
            with mock.patch.object(ensemble, "_CHUNK_ENTRIES", rows * columns):
                a, b = whole[r], run_ensemble(plan)[r]
            assert np.max(np.abs(a.mean - b.mean)) < 1e-14
            assert np.max(np.abs(a.stderr - b.stderr)) < 1e-14


LABELS = ["0", "1", "X", "-X", "Y", "-Y"]


def states_for(word):
    """Product states of len(word) spins: the word's +1 eigenstate, or any."""
    k = len(word)
    eigenstate = ",".join({"X": "X", "Y": "Y"}.get(letter, "0") for letter in word)
    return st.just(eigenstate) | st.lists(st.sampled_from(LABELS), min_size=k,
                                          max_size=k).map(",".join)


def readouts_for(k):
    """Readouts of a k-spin register: Pauli words, F: product states, L: labels."""
    words = st.text("IXYZ", min_size=k, max_size=k)
    products = st.lists(st.sampled_from(LABELS), min_size=k, max_size=k).map(
        lambda labels: "F:" + ",".join(labels))
    labels = {2: logical.CARDINAL_2SPIN, 3: logical.LOGICAL_3SPIN}.get(k, ())
    options = words | products
    if labels:
        options |= st.sampled_from(labels).map(lambda label: "L:" + label)
    return st.lists(options, min_size=1, max_size=3, unique=True)


def coefficients(stored, shape):
    """A table's Q or D coefficients, with None read as zeros of P's shape."""
    return np.zeros(shape) if stored is None else stored


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

    @pytest.mark.parametrize("readout,fresh,floor", [
        ("X", lambda: pauli_matrix("X"), 0.0),
        ("XZ", lambda: pauli_matrix("XZ"), 0.0),
        ("F:+L", lambda: np.outer(resolve_state("+L"), resolve_state("+L").conj()), 0.25),
        ("L:+iL", lambda: logical.logical_operator("+iL"), 0.5),
        ("L:X0L", lambda: logical.logical_operator("X0L"), 0.25),
    ])
    def test_readout_operator_is_built_once_and_read_only(self, readout, fresh, floor):
        op = readout_operator(readout)
        assert readout_operator(readout) is op
        with pytest.raises(ValueError):
            op[0, 0] = 0.0
        assert np.array_equal(op, fresh())
        # the trace floor that the figure pipelines map readout values onto
        assert np.trace(op).real / len(op) == pytest.approx(floor, abs=1e-15)
        # a one-letter word's operator is a copy, not the spins module's matrix
        assert pauli_matrix("X").flags.writeable

    def test_tables_are_read_only(self):
        # the second plan's readouts read a spin the observable does not
        # flip, so their tables are complex
        plan = make_plan(n_projections=2)
        for state, word, readouts in ((plan.initial_state, plan.observable, plan.readout),
                                      ("X,X", "XZ", ("XX", "F:X,X"))):
            for readout in readouts:
                table = ensemble._plan_table(state, word, readout)
                assert ensemble._plan_table(state, word, readout) is table
                assert np.iscomplexobj(table.p) == (word == "XZ")
                assert (table.unflipped is not None) == (word == "XZ")
                for arr in table:
                    if arr is not None:
                        with pytest.raises(ValueError):
                            arr[0] = 0

    @settings(deadline=None, max_examples=80)
    @given(PAULI_WORDS, st.data())
    def test_readout_terms_alone_or_together(self, word, data):
        # each readout runs on its own table, so its kernel values are the
        # same bits alone or beside other readouts
        k = len(word)
        state = ",".join(data.draw(st.lists(st.sampled_from(LABELS), min_size=k,
                                            max_size=k)))
        readouts = tuple(data.draw(readouts_for(k)))
        n = data.draw(st.integers(0, 6))
        deltas = np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=3 * k,
                                             max_size=3 * k))).reshape(3, k)
        seg = np.array([0.5, 2.0, 7.0])

        def plan(ro):
            return make_plan(noise=NoiseModel((10.0,) * k), initial_state=state,
                             observable=word, readout=ro, n_projections=n)

        values = ensemble._kernel(plan(readouts), deltas, seg)
        for r, readout in enumerate(readouts):
            assert np.array_equal(ensemble._kernel(plan((readout,)), deltas, seg)[0],
                                  values[r])

    @pytest.mark.parametrize("n", [4, 5, 6, 64])
    def test_readouts_with_and_without_d_terms_together(self, n):
        # IIX commutes with the start and IYX, so it has no Q or D terms and
        # takes the one power from N = 4 on; IXI has D terms and keeps the
        # product form; beside each other, each keeps its own form's bits
        state, word, readouts = "0,X,X", "IYX", ("IIX", "IXI")
        free, with_d = (ensemble._plan_table(state, word, r) for r in readouts)
        assert free.q is free.d is with_d.q is None and with_d.d is not None

        def plan(ro):
            return make_plan(noise=NoiseModel((10.0,) * 3), initial_state=state,
                             observable=word, readout=ro, n_projections=n)

        deltas = np.zeros((3, 3))
        deltas[2, 2] = 0.3125
        seg = np.array([0.5, 2.0, 7.0])
        values = ensemble._kernel(plan(readouts), deltas, seg)
        for r, readout in enumerate(readouts):
            assert np.array_equal(ensemble._kernel(plan((readout,)), deltas, seg)[0],
                                  values[r])


def entry_coefficients(state, word, readouts):
    """{sigma theta: (readouts, 3) P, Q, D} summed entry by entry, as _kernel defines them.

    Entry e = (a, b) has angle theta = (z_b - z_a)/2 and sigma, the sign of
    the first nonzero component of theta on the spins the word flips (0 if
    there is none). It joins the column of theta with that part times sigma,
    adding P = w_e rho0[e], Q = i sigma P and D = w_e ((O rho0 O)[e] - rho0[e])/2.
    """
    k = len(word)
    dim = 2**k
    psi = resolve_state(state)
    rho = np.outer(psi, psi.conj())
    o = pauli_matrix(word)
    mirrored = o @ rho @ o
    weights = [readout_operator(r).T for r in readouts]
    flips = [letter in "XY" for letter in word]
    z = basis_signs(k)
    terms = {}
    for a in range(dim):
        for b in range(dim):
            theta = 0.5 * (z[b] - z[a])
            flipped = [t for t, f in zip(theta, flips) if f and t != 0]
            sigma = np.sign(flipped[0]) if flipped else 0.0
            key = tuple(sigma * t if f else t for t, f in zip(theta, flips))
            for r, w in enumerate(weights):
                big_p = w[a, b] * rho[a, b]
                terms.setdefault(key, np.zeros((len(readouts), 3), complex))[r] += (
                    big_p, 1j * sigma * big_p, 0.5 * w[a, b] * (mirrored[a, b] - rho[a, b]))
    return terms


def check_table(state, word, readout):
    """Assert that a readout's table holds the entry sums, with None for an all-zero Q or D.

    Also its shapes: theta_f and theta_u as (columns, k, 1), theta_u None for
    a real table, and P, Q and D as (columns, 1), with at least one column.
    """
    table = ensemble._plan_table(state, word, readout)
    columns = len(table.p)
    assert columns >= 1 and table.flipped.shape == (columns, len(word), 1)
    assert table.unflipped is None or table.unflipped.shape == table.flipped.shape
    for arr in (table.p, table.q, table.d):
        assert arr is None or arr.shape == (columns, 1)
    # a real table holds the real parts, all that a theta_u = 0 term reads
    real = table.unflipped is None
    assert real == (not np.iscomplexobj(table.p))
    want = {theta: coef[0].real if real else coef[0]
            for theta, coef in entry_coefficients(state, word, (readout,)).items()}
    unflipped = np.zeros_like(table.flipped) if real else table.unflipped
    angles = [tuple(f + u) for f, u in zip(table.flipped[..., 0], unflipped[..., 0])]
    assert set(angles) <= set(want)
    for theta, coef in want.items():
        if theta not in angles:
            assert np.max(np.abs(coef)) < 1e-12
            continue
        for i, name in enumerate("pqd"):
            got = coefficients(getattr(table, name), table.p.shape)
            assert abs(got[angles.index(theta), 0] - coef[i]) < 1e-12
    for name, i in (("q", 1), ("d", 2)):
        stored = getattr(table, name)
        assert (stored is None) == all(abs(coef[i]) < 1e-12 for coef in want.values())
        assert stored is None or stored.any()
    # a complex table keeps some nonzero theta_u
    assert real or unflipped.any()
    # each stored theta_f is 0 or has a positive first nonzero component
    for flipped in table.flipped[..., 0]:
        assert not flipped.any() or flipped[flipped != 0][0] > 0
    return table


# the kernel_deep benchmark's tables: its two ensemble plans, and the
# scalar run_shot words, each read on itself from its +1 eigenstate
KERNEL_DEEP_TABLES = (("X,Y,0,X", "XYZX", ("XYZX", "ZIZZ")), ("X,0,Y", "XIY", ("XIY", "IZI")),
                      ("X,Y,0", "XYZ", ("XYZ",)), ("Y,0,X", "YIX", ("YIX",)),
                      ("X,X,Y", "XXY", ("XXY",)))


class TestQDElision:
    @settings(deadline=None, max_examples=80)
    @given(PAULI_WORDS, st.data())
    def test_q_and_d_are_none_exactly_when_zero(self, word, data):
        state = data.draw(states_for(word))
        readouts = tuple(data.draw(st.just([word]) | readouts_for(len(word))))
        for readout in readouts:
            check_table(state, word, readout)

    @pytest.mark.parametrize("state,word,readouts,zero", [
        # each sum cancels to a rounding residue of at most 3e-17 in some
        # summation order; the table stores it as exactly 0
        ("X,-Y,-Y,X", "YXXI", ("F:X,1,Y,Y",), "q"),
        ("-X,0,-X,-Y", "XXXZ", ("F:-X,Y,-X,-X", "XYXX"), "q"),
        ("Y,-X,Y,Y", "XXIY", ("XZII", "F:0,Y,-Y,-X"), "d"),
        # the observable flips no spin: theta_f = 0 on every entry, where
        # sin alpha_f is 0
        ("X,Y,0", "ZZI", ("XYZ", "F:X,Y,0"), "q"),
    ])
    def test_zero_terms_are_none(self, state, word, readouts, zero):
        for readout in readouts:
            assert getattr(check_table(state, word, readout), zero) is None

    def test_figure_and_benchmark_plans_have_neither(self):
        # each starts in a +1 eigenstate of its observable and reads an
        # operator that commutes with it
        tables = list(KERNEL_DEEP_TABLES)
        for t2_star, groups, prefix, *_ in cli._CURVE_FIGURES.values():
            tables += [(state, "X" * len(t2_star), (prefix + state,))
                       for group in groups for state in group]
        assert len(tables) == 5 + 1 + 6 + 4 + 3
        for state, word, readouts in tables:
            for readout in readouts:
                table = ensemble._plan_table(state, word, readout)
                assert table.q is None and table.d is None, (state, word, readout)

    def test_pinned_simulate_plan_has_both(self):
        # XYX has Q terms and F:Y,X,X has D terms, each in a complex table
        xyx, fidelity = (ensemble._plan_table(SIMULATE["initial_state"],
                                              SIMULATE["observable"], readout)
                         for readout in SIMULATE["readout"])
        assert np.iscomplexobj(xyx.p) and np.iscomplexobj(fidelity.p)
        assert xyx.q is not None and xyx.d is None
        assert fidelity.q is None and fidelity.d is not None


class TestPhaseTable:
    def test_table_is_cached_and_read_only(self):
        # kernel_deep's plan: its pair angles and their coefficients are one
        # cached table, shared by every shot of the plan
        for readout in ("XYZX", "ZIZZ"):
            table = ensemble._plan_table("X,Y,0,X", "XYZX", readout)
            assert ensemble._plan_table("X,Y,0,X", "XYZX", readout) is table
            assert not np.iscomplexobj(table.p) and table.unflipped is None
            for arr in table:
                if arr is not None:
                    with pytest.raises(ValueError):
                        arr[0] = 0


# (plan arguments, N): kernel_deep's real plan, the complex YIZ plan with Q
# terms in one readout and D terms in the other, and a real plan with a
# readout that takes the one power beside one that has D terms
KERNEL_PLANS = [
    (("X,Y,0,X", "XYZX", ("XYZX", "ZIZZ")), 6),
    ((SIMULATE["initial_state"], SIMULATE["observable"], tuple(SIMULATE["readout"])), 3),
    (("0,X,X", "IYX", ("IIX", "IXI")), 6),
]


def kernel_plan(args, n):
    state, word, readout = args
    return make_plan(noise=NoiseModel((10.0,) * len(word)), initial_state=state,
                     observable=word, readout=readout, n_projections=n)


class TestKernelSpec:
    """What _kernel reads of a plan: one cached, read-only table per readout."""

    def test_warm_run_shot_reads_no_table(self):
        # no table is read anew: each readout's is found in the cache
        plan = kernel_plan(*KERNEL_PLANS[1])
        first = run_shot(plan, [0.1, -0.2, 0.3], 4.0)
        before = ensemble._plan_table.cache_info()
        second = run_shot(plan, [0.1, -0.2, 0.3], 4.0)
        after = ensemble._plan_table.cache_info()
        # one cached lookup per readout, and no table built
        assert after.hits - before.hits == len(plan.readout)
        assert after.misses == before.misses
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("args,n", KERNEL_PLANS)
    def test_tables_have_the_kernel_shapes_and_are_read_only(self, args, n):
        state, word, readouts = args
        for readout in readouts:
            for arr in check_table(state, word, readout):
                if arr is not None:
                    with pytest.raises(ValueError):
                        arr[0] = 0

    @pytest.mark.parametrize("args,n", KERNEL_PLANS)
    def test_chunk_boundaries_match_rows_one_at_a_time(self, args, n):
        # for each readout's chunk: one row, exactly one chunk, and one and
        # two chunks plus a row, under a small _CHUNK_ENTRIES. Among them are
        # lone rows and chunks of 18 columns, which numpy would sum in
        # another order were a lone row not summed beside a copy of itself
        plan = kernel_plan(args, n)
        state, word, readouts = args
        with mock.patch.object(ensemble, "_CHUNK_ENTRIES", 2**9):
            chunks = [ensemble._CHUNK_ENTRIES // len(ensemble._plan_table(state, word, r).p)
                      for r in readouts]
            counts = sorted({1, *(c + extra for c in chunks for extra in (0, 1, c + 1))})
            rng = np.random.default_rng(n)
            deltas = rng.uniform(-0.5, 0.5, (counts[-1], plan.k))
            seg = rng.uniform(0.0, 40.0, counts[-1]) / (n + 1)
            one_at_a_time = np.stack([ensemble._kernel(plan, deltas[i:i + 1], seg[i:i + 1])[:, 0]
                                      for i in range(counts[-1])], axis=1)
            for rows in counts:
                assert np.array_equal(ensemble._kernel(plan, deltas[:rows], seg[:rows]),
                                      one_at_a_time[:, :rows]), rows

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_readout_without_coefficients_reads_zero(self, n):
        # ZI on X,X under XX: every coefficient vanishes, so the table keeps
        # one zero column, that of theta = 0, and the readout reads exactly
        # +0 alone and beside XX, in one chunk or in many
        table = check_table("X,X", "XX", "ZI")
        assert table.p.shape == (1, 1) and not table.p.any() and not table.flipped.any()
        assert table.unflipped is None and table.q is None and table.d is None
        for readouts in (("ZI",), ("ZI", "XX"), ("XX", "ZI")):
            r = readouts.index("ZI")
            plan = make_plan(noise=NoiseModel((12.4, 8.2)), initial_state="X,X",
                             observable="XX", readout=readouts, n_projections=n,
                             tau_grid=(0.0, 2.0, 5.0, 9.0), shots=50)
            value = run_shot(plan, [0.3, -0.2], 7.0)[r]
            assert value == 0 and not np.signbit(value)
            for entries in (ensemble._CHUNK_ENTRIES, 3):
                with mock.patch.object(ensemble, "_CHUNK_ENTRIES", entries):
                    curves = run_ensemble(plan)
                for values in (curves[r].mean, curves[r].stderr):
                    assert not values.any() and not np.signbit(values).any()


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
        # a NaN inside the grid, a NaN alone and a negative start
        for grid in ((1.0, math.nan, 3.0), (math.nan,), (-1.0, 2.0), (-math.inf, 0.0)):
            with pytest.raises(ValueError):
                make_plan(tau_grid=grid)

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

    def test_projection_limit(self):
        # the plan reads N through model.projection_count, the one rule for N
        make_plan(n_projections=MAX_PROJECTIONS)
        with pytest.raises(ValueError, match="n_projections"):
            make_plan(n_projections=MAX_PROJECTIONS + 1)

    def test_seed_range(self):
        for bad in (-3, 2**64):
            with pytest.raises(ValueError):
                make_plan(seed=bad)
        make_plan(seed=2**64 - 1)

    @pytest.mark.parametrize("field,bad", [
        ("seed", 3.7), ("n_projections", 2.5), ("n_projections", True), ("shots", 2.0),
        ("tau_grid", ("1", "5")), ("readout", "X"), ("readout", ()), ("initial_state", 5),
        ("noise", (12.4,)), ("noise", None),
        # N + 1 must convert to a float in the kernel
        ("n_projections", 2**64),
        pytest.param("n_projections", 10**400, id="n_projections-10**400"),
    ])
    def test_field_types_and_ranges(self, field, bad):
        # each field is checked where the plan is built, naming the field
        with pytest.raises((TypeError, ValueError), match=field):
            make_plan(**{field: bad})

    def test_numpy_scalars_keep_the_stream(self):
        plan = make_plan(n_projections=np.int64(2), seed=np.uint64(3),
                         tau_grid=np.array([1.0, 2.0]), noise=NoiseModel(np.array([12.4])))
        plain = make_plan(n_projections=2, seed=3, tau_grid=(1.0, 2.0))
        assert plan == plain and plan.stream == plain.stream
        (curve,) = run_ensemble(plan)
        assert curve_to_csv(curve) == curve_to_csv(run_ensemble(plain)[0])

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
        with pytest.raises(ValueError, match="length mismatch"):
            DecayCurve(np.array([1.0, 2.0]), np.array([0.5]), np.array([0.1]), 0, "X")
