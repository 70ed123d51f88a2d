"""zenosim benchmark: one workload, one process, BLAS/OpenMP pinned to one thread.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a zenosim checkout; the program is imported from
./src. The run repeats whole rounds of the workload's operations until S
seconds have passed, checks every round's outputs, and prints as its last
line one JSON object: correct, attempted, failed and metrics.

--trace 0 prints the end-to-end metrics of untraced rounds. --trace 1
alternates untraced and traced rounds and prints the per-layer metrics of
the traced ones (per round), the wall time and slice rates of the
untraced ones and the tracing overhead; it also writes every span to
perfbench/out/. Untraced rounds run beside a host-speed calibration
(calibration.py) and are timed in its units as well as in seconds.
"""

import os

# Pinned before numpy is first imported, here and in every child process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from calibration import Calibration
from tracer import Tracer
from workloads import FIGURES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

IMPORT_PROBE = ("import time; t = time.perf_counter(); import zenosim; "
                "print(time.perf_counter() - t)")


def _kernel_bytes(tracer, args, kwargs):
    """Computed bytes: (2N+1) passes over shots x dim^2 complex128 per tau point."""
    plan = args[0] if args else kwargs.get("plan")
    try:
        dim = 2 ** len(plan.observable)
        passes = 2 * plan.n_projections + 1
        tracer.count("ensemble.kernel.computed_bytes",
                     len(plan.tau_grid) * passes * plan.shots * dim * dim * 16)
    except (AttributeError, TypeError):
        pass


def _iterations(tracer, result):
    """least_squares returns (p, std_errors, rss, converged, iterations)."""
    if isinstance(result, tuple) and len(result) == 5 and isinstance(result[4], int):
        tracer.count("fitting.least_squares.iterations", result[4])


# Layer boundaries: (module, public function, before-hook, after-hook).
TARGETS = (
    ("ensemble", "sample_detunings", None, None),
    ("ensemble", "run_ensemble", _kernel_bytes, None),
    ("ensemble", "run_shot", None, None),
    ("channel", "project", None, None),
    ("spins", "pauli_matrix", None, None),
    ("spins", "evolve_dephasing", None, None),
    ("logical", "resolve_state", None, None),
    ("logical", "components_to_fidelity", None, None),
    ("model", "decay_value", None, None),
    ("model", "sqrt_e_time", None, None),
    ("fitting", "fit_decay", None, None),
    ("fitting", "fit_gaussian", None, None),
    ("fitting", "least_squares", None, _iterations),
    ("fitting", "fit_scaling", None, None),
    ("cli", "curve_to_csv", None, None),
    ("cli", "parse_curve_csv", None, None),
    ("cli", "main", None, None),
)

# Work items per slice; the rate of each is reported from untraced rounds.
SLICE_RATES = (("shot_points_per_s", "ensemble"), ("scalar_shots_per_s", "scalar"),
               ("fits_per_s", "fit"))


def machine_record() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    threads = ",".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"nproc={os.cpu_count()} python={sys.version.split()[0]} "
            f"numpy={np.__version__} blas={blas} {threads}")


def time_import() -> float:
    """Seconds to import zenosim in a fresh interpreter."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                          env=dict(os.environ, PYTHONPATH=path), cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.split()[-1])


def median_rate(rounds, key):
    rates = [r.items[key] / r.timings[key] for _, _, _, r in rounds if key in r.timings]
    return statistics.median(rates) if rates else 0.0


def end_to_end(setup_s, untraced):
    return {
        "setup_s": (setup_s, "s"),
        "run_norm": (statistics.median(u for _, _, u, _ in untraced), "cal"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, traced, untraced):
    n = len(traced)
    m = {}
    for module, fn, _, _ in TARGETS:
        calls, _, self_s = tracer.totals.get(f"{module}.{fn}", (0, 0.0, 0.0))
        m[f"{module}.{fn}.calls"] = (calls / n, "count")
        m[f"{module}.{fn}.self_s"] = (self_s / n, "s")
    computed = tracer.counters.get("ensemble.kernel.computed_bytes", 0.0)
    kernel_s = tracer.totals.get("ensemble.run_ensemble", (0, 0.0, 0.0))[2]
    m["ensemble.kernel.computed_bytes"] = (computed / n, "B")
    m["ensemble.kernel.computed_gb_per_s"] = (computed / kernel_s / 1e9 if kernel_s else 0.0,
                                              "GB/s")
    m["fitting.least_squares.iterations"] = (
        tracer.counters.get("fitting.least_squares.iterations", 0.0) / n, "count")
    for fig in FIGURES:
        m[f"cli.reproduce.{fig}.s"] = (
            tracer.totals.get(f"cli.reproduce.{fig}", (0, 0.0, 0.0))[1] / n, "s")
    for name, key in SLICE_RATES:
        m[name] = (median_rate(untraced, key), "1/s")
    run_s = statistics.median(w for _, w, _, _ in untraced)
    m["run_s"] = (run_s, "s")
    m["trace.overhead_s"] = (statistics.median(w for _, w, _, _ in traced) - run_s, "s")
    return m


def run(args, zeno, workdir: Path) -> int:
    names = list(WORKLOADS)
    workload = WORKLOADS[args.workload](workdir, args.seed, names.index(args.workload))

    # Set-up is timed once before the first round and again after every
    # round, so its median spans the whole run rather than one moment of
    # the host's speed. Rebuilding from the same seed gives the same inputs.
    imports, builds = [], []

    def time_setup():
        imports.append(time_import())
        t0 = time.perf_counter()
        workload.setup(zeno)
        builds.append(time.perf_counter() - t0)

    time_setup()

    tracer = Tracer() if args.trace else None
    calibration = Calibration()
    rounds, wrong, failures = [], {}, {}
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install("zenosim", TARGETS)
            tracer.begin("bench.round")
            t0 = time.perf_counter()
            r = workload.run_round(tracer, time.perf_counter)
            wall, units = time.perf_counter() - t0, 0.0
            tracer.end()
            tracer.uninstall()
        else:
            calibration.start()
            t0 = calibration.clock()
            r = workload.run_round(None, calibration.clock)
            wall = calibration.clock() - t0
            units = calibration.stop()
        wrong.update(dict.fromkeys(workload.check(r)))
        failures.update(dict.fromkeys(r.failures))
        rounds.append((traced, wall, units, r))
        time_setup()
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and (tracer is None or len(rounds) % 2 == 0):
            break

    for e in failures:
        print("FAILED " + e, file=sys.stderr)
    for e in wrong:
        print("WRONG " + e, file=sys.stderr)

    untraced = [x for x in rounds if not x[0]]
    traced = [x for x in rounds if x[0]]
    if tracer is None:
        setup_s = statistics.median(imports) + statistics.median(builds)
        metrics = end_to_end(setup_s, untraced)
    else:
        metrics = per_layer(tracer, traced, untraced)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        if tracer.absent:
            print("absent: " + ", ".join(tracer.absent), file=sys.stderr)

    print(f"# machine: {machine_record()}")
    print(f"# workload {args.workload} seed {args.seed}: {len(untraced)} untraced, "
          f"{len(traced)} traced rounds")
    print("# untraced round_s " + " ".join(f"{w:.4g}" for _, w, _, _ in untraced))
    print("# untraced round_cal " + " ".join(f"{u:.4g}" for _, _, u, _ in untraced))
    if tracer is None:
        print(f"# run_s {statistics.median(w for _, w, _, _ in untraced):.6g} s")
        for name, key in SLICE_RATES:
            rate = median_rate(untraced, key)
            if rate:
                print(f"# {name} {rate:.6g} 1/s")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(r.attempted for _, _, _, r in rounds),
        "failed": sum(r.failed for _, _, _, r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not wrong else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "zenosim" / "__init__.py").is_file():
        print(f"error: no zenosim sources at {SRC}; run from a zenosim checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("ZENO_SEED", None)  # the program gets only the generated seeds
    import zenosim
    from zenosim import cli, ensemble
    if SRC not in Path(zenosim.__file__).resolve().parents:
        print(f"error: imported zenosim from {zenosim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        return run(args, SimpleNamespace(cli=cli, ensemble=ensemble), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
