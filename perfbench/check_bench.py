"""Self-checks of the benchmark itself: python3 perfbench/check_bench.py

Checks the reference closed forms against brute-force density matrices
and quadrature (no zenosim involved), the tracer's span arithmetic and
rebinding, the host-speed calibration, BENCHMARK.json against the metrics run.py prints, and finally
runs every workload briefly, traced and untraced, plus once in a copy
that holds only BENCHMARK.json and perfbench/, where it must refuse.
Exits 0 when every check passes.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import types
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np

import reference as ref
from calibration import Calibration, reference_loop
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PAULI = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
         "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1.0, -1.0])}
KET = {"X": np.array([1, 1]) / math.sqrt(2), "Y": np.array([1, 1j]) / math.sqrt(2),
       "0": np.array([1.0, 0.0])}


def brute_force(word, deltas, tau, n):
    """<word> after N projections of the word, by explicit density matrices."""
    psi = reduce(np.kron, [KET[ref.EIGENSTATE[c]] for c in word])
    rho = np.outer(psi, psi.conj())
    op = reduce(np.kron, [PAULI[c] for c in word])
    k = len(word)
    bits = (np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    u = np.exp(-0.5j * (tau / (n + 1)) * ((1 - 2 * bits) @ np.asarray(deltas)))
    for step in range(n + 1):
        rho = u[:, None] * rho * u.conj()[None, :]
        if step < n:
            rho = (rho + op @ rho @ op) / 2
    return float(np.trace(rho @ op).real)


def check_single_shot():
    rng = np.random.default_rng(7)
    for word in ("X", "XY", "YIX", "XYZX", "ZZI", "XIY", "YYYY"):
        for _ in range(20):
            d = rng.normal(0, 0.3, len(word))
            tau, n = rng.uniform(0, 20), int(rng.integers(0, 12))
            got, want = ref.single_shot(d, word, tau, n), brute_force(word, d, tau, n)
            assert abs(got - want) < 1e-12, (word, got, want)


def check_ensemble_decay():
    """Closed form = Gauss-Hermite average of the single-shot value over detunings."""
    x, w = np.polynomial.hermite_e.hermegauss(80)
    w = w / w.sum()
    for t2, word, n, tau in (((9.0,), "X", 4, 7.0), ((9.0, 14.0), "XY", 3, 9.0),
                             ((9.0, 14.0), "YX", 8, 15.0), ((11.0, 6.0), "ZX", 2, 4.0)):
        sigma = math.sqrt(2) / np.asarray(t2)
        avg = sum(np.prod([wi for _, wi in nodes])
                  * ref.single_shot(sigma * [xi for xi, _ in nodes], word, tau, n)
                  for nodes in itertools.product(zip(x, w), repeat=len(t2)))
        want = ref.word_decay(t2, word, n, [tau])[0]
        assert abs(avg - want) < 1e-10, (word, avg, want)


def check_log_space():
    for n1 in (1, 5, 21, 1024, 4096):
        n, tau, t2 = n1 - 1, 0.37 * n1, 3.0
        exact = sum(float(Fraction(math.comb(n1, l), 2**n1))
                    * math.exp(-((tau * (1 - 2 * l / n1)) / t2) ** 2) for l in range(n1 + 1))
        got = ref.decay(n, [tau], t2)[0]
        assert math.isclose(got, exact, rel_tol=1e-11), (n, got, exact)
    vals = ref.decay(8191, np.linspace(0, 5000, 11), 7.0)
    assert np.all(np.isfinite(vals)) and np.all((vals >= 0) & (vals <= 1 + 1e-12))
    assert math.isclose(ref.sqrt_e_time(0), math.sqrt(0.5), rel_tol=1e-12)
    for n in (2, 8, 16):
        te = ref.sqrt_e_time(n, 3.0)
        assert abs(ref.decay(n, [te], 3.0)[0] - ref.SQRT_E_LEVEL) < 1e-12


def check_tracer():
    pkg, a, b = (types.ModuleType(n) for n in ("fakepkg", "fakepkg.a", "fakepkg.b"))

    def inner():
        return 1

    def outer():
        return a.inner() + 1

    a.inner, a.outer, b.inner = inner, outer, inner
    sys.modules.update({"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b})
    try:
        t = Tracer()
        seen = []
        t.install("fakepkg", [("a", "inner", None, lambda tr, res: seen.append(res)),
                              ("a", "outer", None, None), ("a", "gone", None, None)])
        assert a.inner is not inner and b.inner is a.inner, "every binding is replaced"
        assert a.outer() == 2 and b.inner() == 1 and seen == [1, 1]
        t.uninstall()
        assert a.inner is inner and b.inner is inner and a.outer is outer
        assert t.absent == ["a.gone"]
        calls, _, self_s = t.totals["a.outer"]
        assert calls == 1 and t.totals["a.inner"][0] == 2
        (child,) = [s for s in t.spans if s[1] == "a.inner" and s[4] != -1]
        parent = [s for s in t.spans if s[1] == "a.outer"][0]
        assert child[4] == parent[0] and parent[2] <= child[2] <= child[3] <= parent[3]
        assert math.isclose(parent[3] - parent[2] - (child[3] - child[2]), self_s,
                            rel_tol=1e-9, abs_tol=1e-12)
    finally:
        for n in ("fakepkg", "fakepkg.a", "fakepkg.b"):
            sys.modules.pop(n)


def check_calibration():
    """Work made of reference loops is worth about that many cal units."""
    cal = Calibration()
    cal.start()
    t0, loops = cal.clock(), 0
    while cal.clock() - t0 < 0.5:
        reference_loop()
        loops += 1
    units = cal.stop()
    assert cal.cal_s > 0, "the timer never calibrated"
    assert 0.5 * loops <= units <= 2.0 * loops, (units, loops)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_benchmark_json():
    import run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")

    r = types.SimpleNamespace(timings={}, items={})
    e2e = run.end_to_end(1.0, [(False, 1.0, 1.0, r)])
    t = Tracer()
    layer = run.per_layer(t, [(True, 1.0, 0.0, r)], [(False, 1.0, 1.0, r)])
    for printed, listed in ((e2e, spec["end_to_end"]), (layer, spec["per_layer"])):
        assert list(printed) == [m["name"] for m in listed], "metric names drift"
        assert [u for _, u in printed.values()] == [m["unit"] for m in listed]


def run_bench(cwd, workload, trace):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, w["name"], trace)
            assert proc.returncode == 0, proc.stderr
            res = json.loads(proc.stdout.splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] is True and res["attempted"] >= 1
            assert list(res["metrics"]) == [m["name"] for m in spec[key]]
            if trace == 0:
                assert all(v["value"] > 0 for v in res["metrics"].values())

    bare = HERE / "out" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(
            "out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    checks = (check_single_shot, check_ensemble_decay, check_log_space, check_tracer,
              check_calibration, check_benchmark_json, check_runs)
    for check in checks:
        check()
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
