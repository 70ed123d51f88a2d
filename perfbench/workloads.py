"""The benchmark's three workloads.

Each workload builds its inputs from the seed in `setup`, runs one round
of identical operations in `run_round` and checks that round's outputs in
`check`. The program is only ever called through module attributes
(`cli.main`, `ensemble.run_ensemble`, `ensemble.run_shot`), so the
tracer's replacements take effect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import shutil
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import reference as ref

# Figure pipelines of the paper; the amplitudes are the pipelines' read-out
# amplitudes (single spin and logical qubit) that scale every curve.
FIGURES = ("fig2c", "fig3b", "fig3c", "fig4b", "fig5")
AMPLITUDE_SINGLE = 0.95
AMPLITUDE_LOGICAL = 0.89

MC_Z = 4.0           # Monte-Carlo mean vs closed form, in standard errors
MC_PASS_SHARE = 0.95  # share of points that must lie within MC_Z


def _call_main(cli, argv: List[str]) -> int:
    """cli.main with its stdout swallowed, so the result line stays last."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _read_curve(path: Path):
    """(config dict, tau, mean, stderr) of a zenosim curve CSV."""
    config, rows, seen_header = {}, [], False
    for line in path.read_text().splitlines():
        if line.startswith("# config:"):
            config = json.loads(line[len("# config:"):])
        elif line.startswith("#") or not line.strip():
            continue
        elif line.strip() == "tau_ms,mean,stderr":
            seen_header = True
        else:
            rows.append([float(x) for x in line.split(",")])
    if not seen_header or not rows:
        raise ValueError(f"{path.name}: no curve rows")
    arr = np.asarray(rows)
    return config, arr[:, 0], arr[:, 1], arr[:, 2]


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _within(mean, want, stderr) -> np.ndarray:
    """Points whose mean lies within MC_Z standard errors of the closed form."""
    return np.abs(mean - want) <= MC_Z * stderr + 1e-12


class Round:
    """What one round did: operation counts, timings and outputs to check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.timings: Dict[str, float] = {}
        self.items: Dict[str, int] = {}
        self.outputs: Dict[str, object] = {}

    def add_time(self, key: str, seconds: float, items: int = 0) -> None:
        """Time spent on a slice, and the work items done in it."""
        self.timings[key] = self.timings.get(key, 0.0) + seconds
        self.items[key] = self.items.get(key, 0) + items

    def fail(self, what: str, count: int = 1) -> None:
        """Count `count` failed operations, described by `what`."""
        self.failed += count
        self.failures.append(what)


class Workload:
    name = ""

    def __init__(self, workdir: Path, seed: int, index: int) -> None:
        self.workdir = workdir
        self.rng_seed = [seed, index]
        self.first_digest: Optional[str] = None

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.rng_seed)

    def fresh_dir(self, sub: str) -> Path:
        d = self.workdir / sub
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        return d

    def same_as_first(self, digest: str, errors: List[str]) -> None:
        """Identical inputs must give byte-identical outputs in every round."""
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            errors.append(f"{self.name}: outputs differ between rounds")


class ReproduceFigures(Workload):
    """`zeno reproduce` for every figure, in-process through cli.main."""

    name = "reproduce_figures"
    SHOTS = 40

    def setup(self, zeno) -> None:
        self.cli = zeno.cli
        self.out = self.fresh_dir("reproduce")
        seed = int(self.rng().integers(0, 2**31))
        self.argv = {fig: ["reproduce", fig, "--out", str(self.out),
                           "--shots", str(self.SHOTS), "--seed", str(seed)]
                     for fig in FIGURES}

    def run_round(self, tracer, clock) -> Round:
        r = Round()
        for fig in FIGURES:
            if tracer:
                tracer.begin(f"cli.reproduce.{fig}")
            t0 = clock()
            try:
                status = _call_main(self.cli, self.argv[fig])
            except Exception as e:  # counted, reported, and the round goes on
                status = f"{type(e).__name__}: {e}"
            r.add_time(fig, clock() - t0)
            if tracer:
                tracer.end()
            r.attempted += 1
            if status != 0:
                r.fail(f"{fig}: {status}")
        return r

    def check(self, r: Round) -> List[str]:
        errors: List[str] = []
        files = list(self.out.iterdir())
        self.same_as_first(_digest(files), errors)
        errors += self._check_fig2c()
        errors += self._check_fidelities("fig3b", (1 + AMPLITUDE_LOGICAL) / 2,
                                         2.0 / 3.0, "classical_memory_crossings_ms")
        errors += self._check_fidelities("fig3c", (1 + 3 * AMPLITUDE_LOGICAL) / 4,
                                         0.5, "entanglement_persistence_ms")
        errors += self._check_fidelities("fig4b", (1 + 3 * AMPLITUDE_LOGICAL) / 4,
                                         None, None)
        errors += self._check_fig5()
        return errors

    def _check_fig2c(self) -> List[str]:
        """Single-spin curves against the closed form, point by point."""
        hits, total = 0, 0
        errors = []
        for path in sorted(self.out.glob("fig2c_N*.csv")):
            cfg, tau, mean, se = _read_curve(path)
            want = AMPLITUDE_SINGLE * ref.decay(int(cfg["n_projections"]), tau,
                                                float(cfg["t2_star"][0]))
            ok = _within(mean, want, se)
            hits += int(ok.sum())
            total += ok.size
        if total != 5 * 24:
            errors.append(f"fig2c: expected 120 curve points, found {total}")
        elif hits < MC_PASS_SHARE * total:
            errors.append(f"fig2c: only {hits}/{total} points within {MC_Z} stderr "
                          "of the closed form")
        return errors

    def _check_fidelities(self, fig: str, at_zero: float, level, key) -> List[str]:
        """Fidelities in [0, 1], ideal value at tau=0, later crossings with N>0."""
        errors = []
        crossings = {}
        paths = sorted(self.out.glob(f"{fig}_*N*.csv"))
        if not paths:
            return [f"{fig}: no curve files"]
        for path in paths:
            cfg, tau, mean, _ = _read_curve(path)
            if np.any(mean < -1e-12) or np.any(mean > 1 + 1e-12):
                errors.append(f"{path.name}: fidelity outside [0, 1]")
            if tau[0] != 0 or abs(mean[0] - at_zero) > 1e-9:
                errors.append(f"{path.name}: F(0)={mean[0]!r}, expected {at_zero!r}")
            if level is not None:
                crossings[int(cfg["n_projections"])] = ref.crossing(tau, mean, level)
        if level is None:
            return errors
        if crossings.get(0) is None:
            errors.append(f"{fig}: the N=0 curve never crosses {level:.3f}")
            return errors
        for n, t in crossings.items():
            # No crossing inside the tau window counts as later than N=0.
            if n > 0 and t is not None and t <= crossings[0]:
                errors.append(f"{fig}: crossing for N={n} ({t:.3f} ms) is not later "
                              f"than for N=0 ({crossings[0]:.3f} ms)")
        summary = json.loads((self.out / f"{fig}_summary.json").read_text())[key]
        for n, t in crossings.items():
            got = summary.get(str(n))
            if (got is None) != (t is None) or (t is not None and
                                                not math.isclose(got, t, rel_tol=1e-6)):
                errors.append(f"{fig}: summary crossing for N={n} is {got}, "
                              f"the curve gives {t}")
        return errors

    def _check_fig5(self) -> List[str]:
        s = json.loads((self.out / "fig5_summary.json").read_text())
        errors = []
        if not 0.75 <= s["mu"] <= 0.79:
            errors.append(f"fig5: mu={s['mu']} outside [0.75, 0.79]")
        if not 0.61 <= s["nu"] <= 0.65:
            errors.append(f"fig5: nu={s['nu']} outside [0.61, 0.65]")
        times = {int(n): v for n, v in s["normalized_times"].items()}
        want = ref.normalized_times({n: 1.0 for n in times})
        for n, v in times.items():
            if not math.isclose(v, want[n], rel_tol=1e-6):
                errors.append(f"fig5: normalized time N={n} is {v}, expected {want[n]}")
        return errors


class KernelDeep(Workload):
    """run_ensemble on large 3-/4-spin stacks, plus a sweep of scalar run_shot."""

    name = "kernel_deep"
    # (word, N, shots): the stacks are shots * 4**k * 16 bytes = 16 MiB and
    # 8 MiB, well above a 4 MiB per-core L2. Words mix X, Y and Z/I letters.
    ENSEMBLE = (("XYZX", 32, 4096), ("XIY", 64, 8192))
    SCALAR_WORDS = ("XYZ", "YIX", "XXY")
    SCALAR_N = 6
    SCALAR_CALLS = 400  # per word

    def setup(self, zeno) -> None:
        E = zeno.ensemble
        self.ensemble = E
        rng = self.rng()
        t2 = tuple(float(x) for x in rng.uniform(8.0, 20.0, 4))
        self.plans, self.expect = [], []
        for word, n, shots in self.ENSEMBLE:
            k = len(word)
            te = ref.sqrt_e_time(n, ref.effective_t2(t2[:k], word))
            readout = (word,)
            if set(word) & set("ZI"):
                # Spins under Z/I stay in |0>: their Z read-out is exactly 1.
                readout += ("".join("Z" if c in "ZI" else "I" for c in word),)
            self.expect.append((word, n, t2[:k]))
            self.plans.append(E.ExperimentPlan(
                noise=E.NoiseModel(t2[:k]), initial_state=ref.eigenstate_spec(word),
                observable=word, readout=readout, n_projections=n,
                tau_grid=(round(float(te * rng.uniform(0.7, 1.3)), 6),),
                shots=shots, seed=int(rng.integers(0, 2**31))))
        self.shot_points = sum(p.shots * len(p.tau_grid) for p in self.plans)

        sigma = math.sqrt(2.0) / np.asarray(t2[:3])
        self.scalar, want = [], []
        for word in self.SCALAR_WORDS:
            plan = E.ExperimentPlan(
                noise=E.NoiseModel(t2[:3]), initial_state=ref.eigenstate_spec(word),
                observable=word, readout=(word,), n_projections=self.SCALAR_N,
                tau_grid=(1.0,), shots=1, seed=0)
            span = 3.0 * ref.sqrt_e_time(self.SCALAR_N, ref.effective_t2(t2[:3], word))
            for _ in range(self.SCALAR_CALLS):
                deltas = rng.normal(0.0, sigma)
                tau = float(rng.uniform(0.0, span))
                self.scalar.append((plan, deltas, tau))
                want.append(ref.single_shot(deltas, word, tau, self.SCALAR_N))
        self.scalar_want = np.array(want)

    def run_round(self, tracer, clock) -> Round:
        r = Round()
        curves = []
        t0 = clock()
        for plan in self.plans:
            curves.append(self.ensemble.run_ensemble(plan))
            r.attempted += 1
        r.add_time("ensemble", clock() - t0, self.shot_points)
        vals = np.empty(len(self.scalar))
        t0 = clock()
        for i, (plan, deltas, tau) in enumerate(self.scalar):
            vals[i] = self.ensemble.run_shot(plan, deltas, tau)[0]
        r.add_time("scalar", clock() - t0, len(self.scalar))
        r.attempted += len(self.scalar)
        r.outputs = {"curves": curves, "scalar": vals}
        return r

    def check(self, r: Round) -> List[str]:
        errors: List[str] = []
        hits, total = 0, 0
        h = hashlib.sha256()
        for (word, n, t2), curves in zip(self.expect, r.outputs["curves"]):
            main = curves[0]
            want = ref.word_decay(t2, word, n, main.tau)
            ok = _within(main.mean, want, main.stderr)
            hits += int(ok.sum())
            total += ok.size
            for c in curves[1:]:
                if np.max(np.abs(c.mean - 1.0)) > 1e-12:
                    errors.append(f"{word}: <{c.readout}> is {c.mean}, expected 1")
            for c in curves:
                h.update(c.mean.tobytes())
                h.update(c.stderr.tobytes())
        if hits < MC_PASS_SHARE * total:
            errors.append(f"kernel_deep: only {hits}/{total} ensemble points within "
                          f"{MC_Z} stderr of the closed form")
        dev = np.max(np.abs(r.outputs["scalar"] - self.scalar_want))
        if not dev <= 1e-10:
            errors.append(f"kernel_deep: run_shot differs from the single-shot "
                          f"formula by {dev:.3g}")
        h.update(r.outputs["scalar"].tobytes())
        self.same_as_first(h.hexdigest(), errors)
        return errors


class FitAnalysis(Workload):
    """`zeno fit`, `zeno scaling` and `zeno analytic` on generated curves; no Monte Carlo."""

    name = "fit_analysis"
    K_SET = (1, 2, 3)
    N_SET = tuple(range(0, 17, 2))
    # Curve sets per register size, each with its own T2*, amplitude and
    # noise; more sets make the seed-dependent fit iteration count average out.
    REPLICAS = 3
    POINTS = 32
    NOISE = 0.01
    # Fixed, seed-independent closed-form evaluations. N >= 1023 fails at
    # this commit: decay_value overflows in 2.0**(N+1).
    ANALYTIC_N = (64, 1022, 1023, 2047, 4095)
    ANALYTIC_T2EFF = 10.0
    ANALYTIC_TAU = "0,25,50,100,200,400"

    def setup(self, zeno) -> None:
        self.cli = zeno.cli
        rng = self.rng()
        self.data = self.fresh_dir("fit")
        self.truth = {}
        te = {n: ref.sqrt_e_time(n) for n in self.N_SET}
        for k, rep in itertools.product(self.K_SET, range(self.REPLICAS)):
            t2 = rng.uniform(8.0, 20.0, k)
            t2eff = ref.effective_t2(t2)
            amplitude = float(rng.uniform(0.85, 0.95))
            offset = float(rng.uniform(-0.02, 0.02))
            name = f"k{k}r{rep}"
            self.truth[name] = t2eff
            d = self.data / name
            d.mkdir()
            for n in self.N_SET:
                tau = np.linspace(0.0, 3.0 * te[n] * t2eff, self.POINTS)
                y = ref.decay(n, tau, t2eff, amplitude, offset)
                y = y + rng.normal(0.0, self.NOISE, tau.size)
                cfg = {"t2_star": [float(x) for x in t2], "amplitude": amplitude,
                       "offset": offset, "n_projections": n, "noise": self.NOISE}
                lines = ["# zenosim curve v1", "# config: " + json.dumps(cfg, sort_keys=True),
                         f"# n_projections: {n}", "# readout: " + "X" * k,
                         "tau_ms,mean,stderr"]
                lines += [f"{t:.12g},{v:.12g},{self.NOISE:.12g}" for t, v in zip(tau, y)]
                (d / f"N{n:02d}.csv").write_text("\n".join(lines) + "\n")
        self.results = self.fresh_dir("fit-results")

    def run_round(self, tracer, clock) -> Round:
        r = Round()
        for name in self.truth:
            fits = self.results / f"fits_{name}.json"
            t0 = clock()
            status = _call_main(self.cli, ["fit", "--in", str(self.data / name / "*.csv"),
                                           "--out", str(fits)])
            r.add_time("fit", clock() - t0, len(self.N_SET))
            r.attempted += len(self.N_SET)
            if status != 0:
                r.fail(f"zeno fit {name}: exit {status}", len(self.N_SET))
            else:
                for row in json.loads(fits.read_text())["fits"]:
                    if not row.get("converged"):
                        r.fail(f"zeno fit {name}/{row['file']}: {row.get('error')}")
            r.attempted += 1
            status = _call_main(self.cli, ["scaling", "--in", str(fits), "--out",
                                           str(self.results / f"scaling_{name}.json")])
            if status != 0:
                r.fail(f"zeno scaling {name}: exit {status}")
        for n in self.ANALYTIC_N:
            out = self.results / f"analytic_N{n}.csv"
            out.unlink(missing_ok=True)
            r.attempted += 1
            try:
                status = _call_main(self.cli, ["analytic", "--n", str(n), "--t2eff",
                                               str(self.ANALYTIC_T2EFF), "--tau",
                                               self.ANALYTIC_TAU, "--out", str(out)])
            except Exception as e:  # the fault under measurement raises here
                status = f"{type(e).__name__}: {e}"
            if status != 0:
                r.fail(f"zeno analytic N={n}: {status}")
        return r

    def check(self, r: Round) -> List[str]:
        errors: List[str] = []
        outside, total = 0, 0
        for name, truth in self.truth.items():
            rows = json.loads((self.results / f"fits_{name}.json").read_text())["fits"]
            t2eff_by_n = {}
            for row in rows:
                if not row.get("converged"):
                    continue  # counted as a failed operation
                total += 1
                t, err = row["T2eff_ms"], row["std_errors"]["T2eff_ms"]
                if not abs(t - truth) <= 4.0 * err:
                    outside += 1
                t2eff_by_n[int(row["n_projections"])] = t
            if 0 not in t2eff_by_n:
                continue
            s = json.loads((self.results / f"scaling_{name}.json").read_text())
            want = ref.normalized_times(t2eff_by_n)
            if sorted(int(n) for n in s["normalized_times"]) != sorted(t2eff_by_n):
                errors.append(f"{name}: scaling used N={sorted(s['normalized_times'])}")
            for n, v in s["normalized_times"].items():
                if not math.isclose(v, want[int(n)], rel_tol=1e-6):
                    errors.append(f"{name}: normalized time N={n} is {v}, "
                                  f"expected {want[int(n)]}")
            if not all(math.isfinite(s[x]) for x in ("mu", "nu", "mu_err", "nu_err")):
                errors.append(f"{name}: scaling fit is not finite: {s}")
        if outside > (1 - MC_PASS_SHARE) * total:
            errors.append(f"fit_analysis: {outside}/{total} fitted T2eff farther than "
                          "4 sigma from the generating value")
        taus = [float(t) for t in self.ANALYTIC_TAU.split(",")]
        for n in self.ANALYTIC_N:
            out = self.results / f"analytic_N{n}.csv"
            if not out.exists():
                continue
            rows = [line.split(",") for line in out.read_text().splitlines()
                    if line and not line.startswith("#") and line != "tau_ms,value"]
            got = np.array([[float(a), float(b)] for a, b in rows])
            want = ref.decay(n, taus, self.ANALYTIC_T2EFF)
            if got.shape != (len(taus), 2) or not np.allclose(got[:, 1], want,
                                                              rtol=1e-8, atol=1e-10):
                errors.append(f"analytic N={n}: values differ from the log-space closed form")
        self.same_as_first(_digest(list(self.results.iterdir())), errors)
        return errors


WORKLOADS = {w.name: w for w in (ReproduceFigures, KernelDeep, FitAnalysis)}
