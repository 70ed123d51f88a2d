"""Config-driven command-line runner for simulation, fitting and reproduction.

Commands:
  zeno simulate  --config plan.json --out dir     run one Monte-Carlo plan
  zeno analytic  --n N --t2eff T --tau a,b,c      evaluate the closed-form decay
  zeno fit       --in 'dir/*.csv' --n N           fit curves, emit a JSON table
  zeno scaling   --in fits.json                   fit the 1+mu*N^nu law
  zeno reproduce fig2c|fig3b|fig3c|fig4b|fig5     rerun a published-figure pipeline

Curves are CSV with '#'-prefixed provenance headers then tau_ms,mean,stderr
rows; fit and scaling summaries are JSON. The environment variable
ZENO_SEED overrides any configured seed (for reproduce, the base seed that
each curve's seed is derived from). Exit codes: 0 success, 2 config or
parse error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import logical, model
from .ensemble import DecayCurve, ExperimentPlan, NoiseModel, run_ensemble
from .fitting import FitError, FitResult, fit_decay, fit_gaussian, fit_scaling

EXIT_CONFIG = 2
EXIT_IO = 3

# Nominal per-spin dephasing times (ms) used by the reproduction pipelines.
T2_STAR = (12.4, 8.2, 21.0)
AMPLITUDE_SINGLE = 0.95
AMPLITUDE_LOGICAL = 0.89

_PLAN_KEYS = {
    "t2_star": list, "initial_state": str, "observable": str,
    "readout": list, "n_projections": int, "tau_grid": list,
    "shots": int, "seed": int, "amplitude": (int, float), "offset": (int, float),
}
_PLAN_REQUIRED = ("t2_star", "initial_state", "observable", "readout",
                  "n_projections", "tau_grid", "shots", "seed")


class ConfigError(ValueError):
    pass


def _effective_seed(seed: int) -> int:
    """ZENO_SEED if set, else the given seed; either must lie in [0, 2**64)."""
    env = os.environ.get("ZENO_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError as e:
            raise ConfigError(f"ZENO_SEED is not an integer: {env!r}") from e
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def _reject_constant(name: str):
    """json parse_constant hook: NaN and Infinity are not valid config values."""
    raise ConfigError(f"non-finite number {name} in config")


def plan_from_config(cfg: Dict) -> ExperimentPlan:
    """Validate a config mapping and build an ExperimentPlan; rejects unknown keys."""
    unknown = set(cfg) - set(_PLAN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = [k for k in _PLAN_REQUIRED if k not in cfg]
    if missing:
        raise ConfigError(f"missing config keys: {missing}")
    for key, typ in _PLAN_KEYS.items():
        if key in cfg and not isinstance(cfg[key], typ):
            raise ConfigError(f"config key {key!r} has wrong type")
    try:
        return ExperimentPlan(
            noise=NoiseModel(tuple(float(t) for t in cfg["t2_star"])),
            initial_state=cfg["initial_state"],
            observable=cfg["observable"],
            readout=tuple(cfg["readout"]),
            n_projections=cfg["n_projections"],
            tau_grid=tuple(float(t) for t in cfg["tau_grid"]),
            shots=cfg["shots"],
            seed=_effective_seed(cfg["seed"]),
            amplitude=float(cfg.get("amplitude", 1.0)),
            offset=float(cfg.get("offset", 0.0)),
        )
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from e


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def curve_to_csv(curve: DecayCurve) -> str:
    """Render a curve with provenance headers; stable byte-for-byte."""
    lines = ["# zenosim curve v1"]
    lines.append("# config: " + json.dumps(curve.metadata, sort_keys=True))
    lines.append(f"# seed: {curve.metadata.get('seed')}")
    lines.append(f"# n_projections: {curve.n_projections}")
    lines.append(f"# readout: {curve.readout}")
    lines.append("tau_ms,mean,stderr")
    for t, m, s in zip(curve.tau, curve.mean, curve.stderr):
        lines.append(f"{_fmt(t)},{_fmt(m)},{_fmt(s)}")
    return "\n".join(lines) + "\n"


def parse_curve_csv(text: str) -> DecayCurve:
    """Parse a curve CSV produced by curve_to_csv."""
    meta: Dict[str, object] = {}
    n_projections = 0
    readout = ""
    rows: List[List[float]] = []
    saw_header = False
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("config:"):
                meta = json.loads(body[len("config:"):].strip())
            elif body.startswith("n_projections:"):
                n_projections = int(body.split(":", 1)[1])
            elif body.startswith("readout:"):
                readout = body.split(":", 1)[1].strip()
            continue
        if line == "tau_ms,mean,stderr":
            saw_header = True
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"malformed curve row: {line!r}")
        rows.append([float(p) for p in parts])
    if not saw_header or not rows:
        raise ValueError("not a curve CSV: missing header or data rows")
    arr = np.asarray(rows)
    return DecayCurve(arr[:, 0], arr[:, 1], arr[:, 2], n_projections, readout, meta)


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


def _write(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as e:
        raise IOError(f"cannot write {path}: {e}") from e


def _json_dumps(obj) -> str:
    def default(o):
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        if isinstance(o, np.ndarray):
            return o.tolist()
        raise TypeError(f"not serializable: {type(o)}")
    return json.dumps(obj, sort_keys=True, indent=2, default=default) + "\n"


def cmd_simulate(args) -> int:
    try:
        cfg = json.loads(Path(args.config).read_text(),
                         parse_constant=_reject_constant)
    except OSError as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as e:
        print(f"error: invalid config JSON: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        plan = plan_from_config(cfg)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    curves = run_ensemble(plan)
    out = Path(args.out)
    for i, curve in enumerate(curves):
        path = out / f"curve_{i}_{_sanitize(curve.readout)}.csv"
        _write(path, curve_to_csv(curve))
        print(path)
    return 0


def cmd_analytic(args) -> int:
    try:
        taus = [float(t) for t in args.tau.split(",")]
        values = model.decay_curve(args.n, taus, args.t2eff, args.amplitude,
                                   args.offset)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    lines = ["# zenosim analytic v1",
             f"# n_projections: {args.n}",
             f"# t2eff_ms: {_fmt(args.t2eff)}",
             "tau_ms,value"]
    lines += [f"{_fmt(t)},{_fmt(v)}" for t, v in zip(taus, values)]
    text = "\n".join(lines) + "\n"
    if args.out:
        _write(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return 0


def _fit_curve(curve: DecayCurve, n: int,
               reference: Optional[FitResult] = None,
               t2_guess: Optional[float] = None) -> FitResult:
    if n == 0:
        return fit_gaussian(curve)
    return fit_decay(curve, n, reference=reference, t2_guess=t2_guess)


def cmd_fit(args) -> int:
    paths = sorted(glob.glob(args.input))
    if not paths:
        print(f"error: no files match {args.input!r}", file=sys.stderr)
        return EXIT_CONFIG
    rows = []
    n_failed = 0
    for path in paths:
        try:
            curve = parse_curve_csv(Path(path).read_text())
        except OSError as e:
            print(f"error: cannot read {path}: {e}", file=sys.stderr)
            return EXIT_IO
        except (ValueError, json.JSONDecodeError) as e:
            print(f"error: cannot parse {path}: {e}", file=sys.stderr)
            return EXIT_CONFIG
        n = args.n if args.n is not None else curve.n_projections
        row = {"file": os.path.basename(path), "n_projections": n}
        try:
            res = _fit_curve(curve, n, t2_guess=args.t2_guess)
            row.update(res.as_dict())
        except FitError as e:
            row.update({"converged": False, "error": str(e)})
            n_failed += 1
        rows.append(row)
    text = _json_dumps({"fits": rows})
    if args.out:
        _write(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return 0 if n_failed < len(rows) else EXIT_CONFIG


def cmd_scaling(args) -> int:
    try:
        data = json.loads(Path(args.input).read_text())
    except OSError as e:
        print(f"error: cannot read {args.input}: {e}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as e:
        print(f"error: invalid JSON: {e}", file=sys.stderr)
        return EXIT_CONFIG
    times: Dict[int, float] = {}
    if "times" in data:
        times = {int(k): float(v) for k, v in data["times"].items()}
    elif "fits" in data:
        for row in data["fits"]:
            if not row.get("converged"):
                continue
            n = int(row["n_projections"])
            if n % 2 != 0:
                continue
            times[n] = model.sqrt_e_time(n, float(row["T2eff_ms"]))
    try:
        fit = fit_scaling(times)
    except FitError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    text = _json_dumps({
        "mu": fit.mu, "nu": fit.nu,
        "mu_err": fit.mu_err, "nu_err": fit.nu_err,
        "normalized_times": {str(k): v for k, v in fit.normalized_times.items()},
    })
    if args.out:
        _write(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return 0


# --- figure-reproduction pipelines -----------------------------------------

def _tau_grid(stop: float, points: int = 24) -> tuple:
    return tuple(np.round(np.linspace(0.0, stop, points), 6))


def _scale_corr(mean: np.ndarray, amplitude: float) -> np.ndarray:
    """Analysis-time global amplitude on a correlator mean."""
    return amplitude * mean


def _scale_fid(mean: np.ndarray, amplitude: float, dim: int) -> np.ndarray:
    """Analysis-time global amplitude on a state-fidelity mean."""
    return amplitude * mean + (1.0 - amplitude) / dim


def _crossing_time(tau: np.ndarray, y: np.ndarray, level: float) -> Optional[float]:
    """First linear-interpolated crossing below `level`, or None."""
    for i in range(1, len(tau)):
        if y[i - 1] >= level > y[i]:
            f = (y[i - 1] - level) / (y[i - 1] - y[i])
            return float(tau[i - 1] + f * (tau[i] - tau[i - 1]))
    return None


def _simulate(t2_star, state, observable, readout, n, taus, shots, seed,
              amplitude=1.0):
    plan = ExperimentPlan(
        noise=NoiseModel(t2_star), initial_state=state, observable=observable,
        readout=readout, n_projections=n, tau_grid=taus, shots=shots,
        seed=seed, amplitude=amplitude)
    return run_ensemble(plan)


def _reproduce_fig2c(out: Path, shots: int, seed: int) -> Dict:
    taus = _tau_grid(60.0)
    n_set = (0, 2, 4, 8, 16)
    fits = {}
    ref = None
    for n in n_set:
        (curve,) = _simulate((T2_STAR[0],), "X", "X", ("X",), n, taus, shots,
                             seed + n, AMPLITUDE_SINGLE)
        scaled = DecayCurve(curve.tau, _scale_corr(curve.mean, AMPLITUDE_SINGLE),
                            AMPLITUDE_SINGLE * curve.stderr, n, curve.readout,
                            curve.metadata)
        _write(out / f"fig2c_N{n}.csv", curve_to_csv(scaled))
        res = _fit_curve(scaled, n, reference=ref, t2_guess=T2_STAR[0])
        if n == 0:
            ref = res
        fits[n] = res
    sqrt_e = {n: (model.sqrt_e_time(n, fits[n].t2eff) if n % 2 == 0 else None)
              for n in n_set}
    return {
        "figure": "fig2c",
        "n_set": list(n_set),
        "fits": {str(n): fits[n].as_dict() for n in n_set},
        "sqrt_e_times_ms": {str(n): sqrt_e[n] for n in n_set},
    }


def _avg_logical_curves(t2_star, states, observable, n, taus, shots, seed,
                        amplitude):
    """Average restricted logical fidelity over a set of logical states."""
    acc = None
    for j, label in enumerate(states):
        words = [w for w, _ in logical.logical_components(label)]
        curves = run_ensemble(ExperimentPlan(
            noise=NoiseModel(t2_star), initial_state=label,
            observable=observable, readout=tuple(words), n_projections=n,
            tau_grid=taus, shots=shots, seed=seed + 1000 * j,
            amplitude=amplitude))
        values = {c.readout: _scale_corr(c.mean, amplitude) for c in curves}
        fid = np.array([
            logical.components_to_fidelity(label, {w: values[w][i] for w in values})
            for i in range(len(taus))
        ])
        acc = fid if acc is None else acc + fid
    return acc / len(states)


def _avg_state_fidelity_curves(t2_star, states, observable, n, taus, shots,
                               seed, amplitude):
    """Average full-state fidelity with the ideal targets, amplitude applied."""
    dim = 2 ** len(t2_star)
    acc = None
    for j, label in enumerate(states):
        (curve,) = run_ensemble(ExperimentPlan(
            noise=NoiseModel(t2_star), initial_state=label,
            observable=observable, readout=(f"F:{label}",), n_projections=n,
            tau_grid=taus, shots=shots, seed=seed + 1000 * j,
            amplitude=amplitude))
        fid = _scale_fid(curve.mean, amplitude, dim)
        acc = fid if acc is None else acc + fid
    return acc / len(states)


def _curve_csv_simple(tau, y, header: Dict) -> str:
    lines = ["# zenosim curve v1", "# config: " + json.dumps(header, sort_keys=True),
             f"# seed: {header.get('seed')}",
             f"# n_projections: {header.get('n_projections')}",
             f"# readout: {header.get('readout')}",
             "tau_ms,mean,stderr"]
    for t, m in zip(tau, y):
        lines.append(f"{_fmt(t)},{_fmt(m)},0")
    return "\n".join(lines) + "\n"


def _reproduce_fig3b(out: Path, shots: int, seed: int) -> Dict:
    taus = np.array(_tau_grid(320.0, 32))
    n_set = (0, 2, 4, 6, 16)
    crossings = {}
    for n in n_set:
        fid = _avg_logical_curves(T2_STAR[:2], logical.CARDINAL_2SPIN, "XX", n,
                                  tuple(taus), shots, seed + n, AMPLITUDE_LOGICAL)
        hdr = {"figure": "fig3b", "n_projections": n, "seed": seed + n,
               "readout": "avg_logical_fidelity", "shots": shots}
        _write(out / f"fig3b_N{n}.csv", _curve_csv_simple(taus, fid, hdr))
        crossings[n] = _crossing_time(taus, fid, 2.0 / 3.0)
    return {"figure": "fig3b", "n_set": list(n_set),
            "classical_memory_crossings_ms": {str(n): crossings[n] for n in n_set}}


def _reproduce_fig3c(out: Path, shots: int, seed: int) -> Dict:
    taus = np.array(_tau_grid(100.0, 25))
    n_set = (0, 2, 4, 6)
    crossings = {}
    for n in n_set:
        fid = _avg_state_fidelity_curves(T2_STAR[:2], logical.ENTANGLED_2SPIN,
                                         "XX", n, tuple(taus), shots, seed + n,
                                         AMPLITUDE_LOGICAL)
        hdr = {"figure": "fig3c", "n_projections": n, "seed": seed + n,
               "readout": "avg_entangled_fidelity", "shots": shots}
        _write(out / f"fig3c_N{n}.csv", _curve_csv_simple(taus, fid, hdr))
        crossings[n] = _crossing_time(taus, fid, 0.5)
    return {"figure": "fig3c", "n_set": list(n_set),
            "entanglement_persistence_ms": {str(n): crossings[n] for n in n_set}}


def _reproduce_fig4b(out: Path, shots: int, seed: int) -> Dict:
    taus = np.array(_tau_grid(40.0, 20))
    n_set = (0, 2, 4)
    summary = {}
    for j, label in enumerate(logical.LOGICAL_3SPIN):
        for n in n_set:
            state_seed = seed + n + 1000 * j
            fid = _avg_logical_curves(T2_STAR, (label,), "XXX", n, tuple(taus),
                                      shots, state_seed, AMPLITUDE_LOGICAL)
            hdr = {"figure": "fig4b", "state": label, "n_projections": n,
                   "seed": state_seed, "readout": "logical_fidelity", "shots": shots}
            _write(out / f"fig4b_{label}_N{n}.csv",
                   _curve_csv_simple(taus, fid, hdr))
            summary[f"{label}_N{n}_final"] = float(fid[-1])
    return {"figure": "fig4b", "n_set": list(n_set),
            "states": list(logical.LOGICAL_3SPIN), "final_fidelities": summary}


def _reproduce_fig5(out: Path, shots: int, seed: int) -> Dict:
    n_set = tuple(range(0, 17, 2))
    times = {n: model.sqrt_e_time(n, 1.0) for n in n_set}
    fit = fit_scaling(times)
    table = "\n".join(["n_projections,normalized_sqrt_e_time"] + [
        f"{n},{_fmt(fit.normalized_times[n])}" for n in n_set]) + "\n"
    _write(out / "fig5_normalized_times.csv", table)
    return {"figure": "fig5", "mu": fit.mu, "nu": fit.nu,
            "mu_err": fit.mu_err, "nu_err": fit.nu_err,
            "normalized_times": {str(n): fit.normalized_times[n] for n in n_set}}


_FIGURES = {
    "fig2c": _reproduce_fig2c,
    "fig3b": _reproduce_fig3b,
    "fig3c": _reproduce_fig3c,
    "fig4b": _reproduce_fig4b,
    "fig5": _reproduce_fig5,
}


def cmd_reproduce(args) -> int:
    if args.figure not in _FIGURES:
        print(f"error: unknown figure id {args.figure!r}", file=sys.stderr)
        return EXIT_CONFIG
    if args.shots < 1:
        print(f"error: --shots must be >= 1, got {args.shots}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out)
    seed = _effective_seed(args.seed)
    summary = _FIGURES[args.figure](out, args.shots, seed)
    summary["seed"] = seed
    summary["shots"] = args.shots
    _write(out / f"{args.figure}_summary.json", _json_dumps(summary))
    print(out / f"{args.figure}_summary.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="zeno", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="run a Monte-Carlo plan from a JSON config")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_simulate)

    s = sub.add_parser("analytic", help="evaluate the closed-form decay curve")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--t2eff", type=float, required=True)
    s.add_argument("--tau", required=True, help="comma-separated times in ms")
    s.add_argument("--amplitude", type=float, default=1.0)
    s.add_argument("--offset", type=float, default=0.0)
    s.add_argument("--out")
    s.set_defaults(func=cmd_analytic)

    s = sub.add_parser("fit", help="fit curve CSVs, emit a JSON fit table")
    s.add_argument("--in", dest="input", required=True, help="glob of curve CSVs")
    s.add_argument("--n", type=int, default=None,
                   help="override the projection count from the file headers")
    s.add_argument("--t2-guess", dest="t2_guess", type=float, default=None)
    s.add_argument("--out")
    s.set_defaults(func=cmd_fit)

    s = sub.add_parser("scaling", help="fit 1+mu*N^nu to normalized decay times")
    s.add_argument("--in", dest="input", required=True)
    s.add_argument("--out")
    s.set_defaults(func=cmd_scaling)

    s = sub.add_parser("reproduce", help="rerun a published-figure pipeline")
    s.add_argument("figure", choices=sorted(_FIGURES))
    s.add_argument("--out", required=True)
    s.add_argument("--shots", type=int, default=2000)
    s.add_argument("--seed", type=int, default=20160901)
    s.set_defaults(func=cmd_reproduce)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except IOError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
