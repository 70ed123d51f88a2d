"""End-to-end acceptance criteria, one test per criterion.

The heavyweight Monte-Carlo dataset (three register sizes, six projection
counts, 20k shots per point) is generated once per session and shared by
criteria 3-5. Each test prints a single pass line; a failed assertion is
the fail line.
"""

import itertools
import json
import math

import numpy as np
import pytest

from zenosim.channel import ancilla_project, project
from zenosim.cli import _avg_curve, main
from zenosim.ensemble import (ExperimentPlan, NoiseModel, run_ensemble,
                              run_shot, sample_detunings)
from zenosim.fitting import fit_decay, fit_scaling
from zenosim.logical import CARDINAL_2SPIN, ENTANGLED_2SPIN
from zenosim.model import (decay_curve, effective_t2, odd_n_asymptote,
                           single_shot_expectation, sqrt_e_time)
from zenosim.spins import expectation, pauli_matrix

from test_spins import random_density

T2_STAR = (12.4, 8.2, 21.0)
N_SET = (0, 1, 2, 4, 6, 16)
SHOTS = 20_000
SEED = 271828


def _report(num, msg):
    print(f"\n[criterion {num}] PASS: {msg}")


def _tau_grid(k, n):
    t2eff = effective_t2(T2_STAR[:k])
    n_even = n if n % 2 == 0 else n + 1
    span = 2.5 * sqrt_e_time(n_even, t2eff)
    return tuple(np.round(np.linspace(0.0, span, 20), 9))


@pytest.fixture(scope="session")
def mc_dataset():
    """DecayCurve per (k, N) for the paper's T2* values, 20k shots."""
    data = {}
    for k in (1, 2, 3):
        for n in N_SET:
            plan = ExperimentPlan(
                noise=NoiseModel(T2_STAR[:k]),
                initial_state=",".join(["X"] * k),
                observable="X" * k,
                readout=("X" * k,),
                n_projections=n,
                tau_grid=_tau_grid(k, n),
                shots=SHOTS,
                seed=SEED + 97 * k + n,
            )
            data[(k, n)] = run_ensemble(plan)[0]
    return data


def test_criterion_1_n0_reduces_to_gaussian():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        tau = rng.uniform(-30, 30)
        t2 = rng.uniform(0.5, 25)
        a = rng.uniform(0, 1)
        off = rng.uniform(-0.3, 0.3)
        got = decay_curve(0, [tau], t2, a, off)[0]
        want = off + a * math.exp(-((tau / t2) ** 2))
        assert abs(got - want) < 1e-12
    _report(1, "decay_curve(N=0) equals offset + A*exp(-(tau/T)^2) to 1e-12 "
               "on 1000 random draws")


def test_criterion_2_oracle_chain():
    grid = np.linspace(-0.3, 0.3, 10)
    worst = 0.0
    for k in (1, 2, 3):
        if k == 1:
            combos = [(g,) for g in grid]
        elif k == 2:
            combos = list(itertools.product(grid, grid))
        else:
            combos = [(grid[i], grid[j], grid[(i + j) % 10])
                      for i in range(10) for j in range(10)]
        plan_kw = dict(noise=NoiseModel((10.0,) * k),
                       initial_state=",".join(["X"] * k), observable="X" * k,
                       readout=("X" * k,), tau_grid=(1.0,), shots=1, seed=0)
        for n in range(7):
            plan = ExperimentPlan(n_projections=n, **plan_kw)
            tau = 7.3
            for deltas in combos:
                a = run_shot(plan, np.array(deltas), tau)[0]
                b = single_shot_expectation(deltas, tau / (n + 1), n)
                worst = max(worst, abs(a - b))
    assert worst < 1e-10
    _report(2, f"matrix pipeline vs closed form, k<=3, N<=6: max diff {worst:.2e}")


def test_criterion_3_monte_carlo_vs_analytic(mc_dataset):
    total = 0
    bad = 0
    for (k, n), curve in mc_dataset.items():
        wants = decay_curve(n, curve.tau, effective_t2(T2_STAR[:k]))
        for want, m, se in zip(wants, curve.mean, curve.stderr):
            total += 1
            if abs(m - want) > 4 * se + 1e-12:
                bad += 1
    assert bad / total <= 0.05
    _report(3, f"ensemble means within 4 stderr of decay_curve on "
               f"{total - bad}/{total} grid points")


def test_criterion_4_effective_t2_rule(mc_dataset):
    fit2 = fit_decay(mc_dataset[(2, 0)], 0)
    fit3 = fit_decay(mc_dataset[(3, 0)], 0)
    want2, want3 = 6.84, 6.50
    assert abs(fit2.t2eff - want2) < 4 * fit2.std_errors["T2eff_ms"]
    assert abs(fit3.t2eff - want3) < 4 * fit3.std_errors["T2eff_ms"]
    t_e3 = sqrt_e_time(0, fit3.t2eff)
    assert abs(t_e3 - 4.60) < 0.15
    _report(4, f"fitted widths {fit2.t2eff:.3f}/{fit3.t2eff:.3f} ms vs "
               f"6.84/6.50; 3-spin 1/sqrt(e)-time {t_e3:.3f} ms")


def test_criterion_5_scaling_law(mc_dataset):
    analytic = {n: sqrt_e_time(n, 1.0) for n in range(0, 17, 2)}
    fit = fit_scaling(analytic)
    assert 0.75 <= fit.mu <= 0.79
    assert 0.61 <= fit.nu <= 0.65

    even_n = [n for n in N_SET if n % 2 == 0 and n > 0]
    base_ratio = sqrt_e_time(0, 1.0)
    for k in (1, 2, 3):
        ref = fit_decay(mc_dataset[(k, 0)], 0)
        for n in even_n:
            res = fit_decay(mc_dataset[(k, n)], n,
                            t2_guess=effective_t2(T2_STAR[:k]))
            ratio = sqrt_e_time(n, res.t2eff) / sqrt_e_time(0, ref.t2eff)
            want = sqrt_e_time(n, 1.0) / base_ratio
            sigma = ratio * math.sqrt(
                (res.std_errors["T2eff_ms"] / res.t2eff) ** 2
                + (ref.std_errors["T2eff_ms"] / ref.t2eff) ** 2)
            assert abs(ratio - want) <= 2 * sigma, (k, n, ratio, want, sigma)
    _report(5, f"mu={fit.mu:.3f}, nu={fit.nu:.3f}; simulated 1/2/3-spin "
               "normalized times on the analytic curve within 2 sigma")


def test_criterion_6_odd_n_plateau():
    t2 = T2_STAR[0]
    for n in (1, 3):
        plan = ExperimentPlan(
            noise=NoiseModel((t2,)), initial_state="X", observable="X",
            readout=("X",), n_projections=n, tau_grid=(10 * t2,),
            shots=SHOTS, seed=SEED + n)
        curve = run_ensemble(plan)[0]
        want = odd_n_asymptote(n)
        assert abs(curve.mean[0] - want) < 4 * curve.stderr[0]
    _report(6, "N=1 and N=3 plateaus at 0.5 and 0.375 within 4 stderr")


def test_criterion_7_channel_properties():
    rng = np.random.default_rng(7)
    for word in ("X", "XX", "XXX"):
        k = len(word)
        o = pauli_matrix(word)
        worst = 0.0
        for _ in range(100):
            rho = random_density(k, rng)
            once = project(word, rho)
            assert np.max(np.abs(project(word, once) - once)) < 1e-12
            worst = max(worst, np.max(np.abs(ancilla_project(rho, word) - once)))
        assert worst < 1e-10
        # commutant preserved / anticommutant destroyed
        rho = random_density(k, rng)
        out = project(word, rho)
        for w in ("".join(p) for p in itertools.product("IXYZ", repeat=k)):
            m = pauli_matrix(w)
            if np.max(np.abs(o @ m - m @ o)) < 1e-12:
                assert abs(expectation(out, w) - expectation(rho, w)) < 1e-12
            else:
                assert abs(expectation(out, w)) < 1e-12
    _report(7, "idempotence, commutant/anticommutant behaviour, and "
               "ancilla equivalence < 1e-10 on 100 random states per word")


def test_criterion_8_logical_protection():
    shots = 2000
    amp = 0.89

    def crossing(taus, fid, level):
        for i in range(1, len(taus)):
            if fid[i - 1] >= level > fid[i]:
                f = (fid[i - 1] - level) / (fid[i - 1] - fid[i])
                return taus[i - 1] + f * (taus[i] - taus[i - 1])
        return None

    # grids long enough that even the N=16 curve crosses the threshold
    taus_mem = tuple(np.round(np.linspace(0.0, 320.0, 32), 9))
    mem = {}
    for n in (0, 2, 4, 6, 16):
        fid = _avg_curve(T2_STAR[:2], CARDINAL_2SPIN, "L:", n, taus_mem, shots,
                         SEED + 11 * n, amp).mean
        mem[n] = crossing(taus_mem, fid, 2.0 / 3.0)
    assert mem[0] is not None
    for n in (2, 4, 6, 16):
        assert mem[n] is not None and mem[n] > mem[0], (n, mem)

    taus_ent = tuple(np.round(np.linspace(0.0, 100.0, 25), 9))
    ent = {}
    for n in (0, 2, 4, 6):
        fid = _avg_curve(T2_STAR[:2], ENTANGLED_2SPIN, "F:", n, taus_ent, shots,
                         SEED + 13 * n, amp).mean
        ent[n] = crossing(taus_ent, fid, 0.5)
    assert ent[0] is not None
    for n in (2, 4, 6):
        assert ent[n] is not None and ent[n] > ent[0], (n, ent)
    _report(8, f"2/3-crossings {mem} and 0.5-crossings {ent} all later "
               "with projections than without")


def test_criterion_9_cli_determinism(tmp_path):
    cfg = {
        "t2_star": [12.4, 8.2], "initial_state": "X,X", "observable": "XX",
        "readout": ["XX", "F:+L"], "n_projections": 2,
        "tau_grid": [0.0, 4.0, 8.0, 12.0], "shots": 300, "seed": 5,
    }
    cfg_path = tmp_path / "plan.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(b"".join(f.read_bytes() for f in sorted(out.glob("*.csv"))))
    assert outs[0] == outs[1]

    for name in ("ra", "rb"):
        out = tmp_path / name
        assert main(["reproduce", "fig5", "--out", str(out)]) == 0
    assert (tmp_path / "ra" / "fig5_summary.json").read_bytes() == \
        (tmp_path / "rb" / "fig5_summary.json").read_bytes()
    _report(9, "repeated simulate and reproduce runs are byte-identical")
