"""Config-driven command-line runner for simulation, fitting and reproduction.

Commands:
  zeno simulate  --config plan.json --out dir     run one Monte-Carlo plan
  zeno analytic  --n N --t2eff T --tau a,b,c      evaluate the closed-form decay
  zeno fit       --in 'dir/*.csv' --n N           fit curves, emit a JSON table
  zeno scaling   --in fits.json                   fit the 1+mu*N^nu law
  zeno reproduce fig2c|fig3b|fig3c|fig4b|fig5     rerun a published-figure pipeline

Curves are CSV with '#'-prefixed provenance headers then tau_ms,mean,stderr
rows; fit and scaling summaries are JSON. The environment variable
ZENO_SEED overrides any configured seed (for reproduce, the seed of every
plan of every curve). Exit codes: 0 success, 2 config or parse error, 3 I/O
error.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import sys
from functools import cache, partial
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import logical, model
from .ensemble import (FIDELITY_PREFIX, LOGICAL_PREFIX, DecayCurve, ExperimentPlan,
                       NoiseModel, readout_operator, run_ensemble)
from .fitting import FitError, fit_decay, fit_scaling

EXIT_CONFIG = 2
EXIT_IO = 3

# Nominal per-spin dephasing times (ms) used by the reproduction pipelines.
T2_STAR = (12.4, 8.2, 21.0)
AMPLITUDE_SINGLE = 0.95
AMPLITUDE_LOGICAL = 0.89

# Config key -> its JSON type, and for a list the type of every element.
_PLAN_KEYS = {
    "t2_star": (list, (int, float)), "initial_state": (str, None),
    "observable": (str, None), "readout": (list, str), "n_projections": (int, None),
    "tau_grid": (list, (int, float)), "shots": (int, None), "seed": (int, None),
}


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


def _json_is(value, kind) -> bool:
    """isinstance for parsed JSON: true and false are not numbers."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _reject_constant(name: str):
    """json parse_constant hook: NaN and Infinity are not valid config values."""
    raise ConfigError(f"non-finite number {name} in config")


def plan_from_config(cfg: Dict) -> ExperimentPlan:
    """Validate a config mapping and build an ExperimentPlan; rejects unknown keys."""
    unknown = set(cfg) - set(_PLAN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = [k for k in _PLAN_KEYS if k not in cfg]
    if missing:
        raise ConfigError(f"missing config keys: {missing}")
    for key, (typ, element) in _PLAN_KEYS.items():
        if not _json_is(cfg[key], typ):
            raise ConfigError(f"config key {key!r} has wrong type")
        if element and not all(_json_is(x, element) for x in cfg[key]):
            raise ConfigError(f"config key {key!r} has an element of wrong type")
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
        )
    except (ValueError, TypeError, OverflowError) as e:
        raise ConfigError(str(e)) from e


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _csv(header: Sequence[str], columns: str, rows) -> str:
    """Every CSV text zeno writes: '# ' header lines, column names, rows of numbers."""
    lines = [f"# {h}" for h in header] + [columns]
    lines += [",".join(map(_fmt, row)) for row in rows]
    return "\n".join(lines) + "\n"


def curve_to_csv(curve: DecayCurve) -> str:
    """Render a curve with provenance headers; stable byte-for-byte."""
    return _csv(["zenosim curve v1",
                 "config: " + json.dumps(curve.metadata, sort_keys=True),
                 f"seed: {curve.metadata.get('seed')}",
                 f"n_projections: {curve.n_projections}",
                 f"readout: {curve.readout}"],
                "tau_ms,mean,stderr", zip(curve.tau, curve.mean, curve.stderr))


def parse_curve_csv(text: str) -> DecayCurve:
    """Parse a curve CSV produced by curve_to_csv; N is None without its header line."""
    meta: Dict[str, object] = {}
    n_projections = None
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
    if not np.isfinite(arr).all():
        raise ValueError("non-finite tau, mean or stderr in curve rows")
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
    return json.dumps(obj, sort_keys=True, indent=2, default=default,
                      allow_nan=False) + "\n"


def _read_json(path: str, **kw):
    """json.loads(text, **kw) of a file; IOError if unreadable, ConfigError if not JSON."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise IOError(f"cannot read {path}: {e}") from e
    try:
        return json.loads(text, **kw)
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON in {path}: {e}") from e


def _emit(out: Optional[str], text: str) -> None:
    """Write text to the file out, or to stdout when out is not given."""
    if out:
        _write(Path(out), text)
    else:
        sys.stdout.write(text)


def cmd_simulate(args) -> int:
    plan = plan_from_config(_read_json(args.config, parse_constant=_reject_constant))
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
        raise ConfigError(str(e)) from e
    _emit(args.out, _csv(["zenosim analytic v1", f"n_projections: {args.n}",
                          f"t2eff_ms: {_fmt(args.t2eff)}"],
                         "tau_ms,value", zip(taus, values)))
    return 0


def _fit_row(curve: DecayCurve, n: int, t2_guess: Optional[float]) -> Dict:
    """fit_decay's result as a JSON row, or {"converged": False, "error": ...}."""
    try:
        return fit_decay(curve, n, t2_guess=t2_guess).as_dict()
    except FitError as e:
        return {"converged": False, "error": str(e)}


def cmd_fit(args) -> int:
    if args.t2_guess is not None and not (math.isfinite(args.t2_guess)
                                          and args.t2_guess > 0):
        raise ConfigError(f"--t2-guess {args.t2_guess!r} is not finite and positive")
    paths = sorted(glob.glob(args.input))
    if not paths:
        raise ConfigError(f"no files match {args.input!r}")
    rows = []
    for path in paths:
        try:
            curve = parse_curve_csv(Path(path).read_text())
        except OSError as e:
            raise IOError(f"cannot read {path}: {e}") from e
        except ValueError as e:
            raise ConfigError(f"cannot parse {path}: {e}") from e
        n = args.n if args.n is not None else curve.n_projections
        if n is None:
            raise ConfigError(f"{path} has no '# n_projections:' header; give --n")
        rows.append({"file": os.path.basename(path), "n_projections": n,
                     **_fit_row(curve, n, args.t2_guess)})
    _emit(args.out, _json_dumps({"fits": rows}))
    return 0 if any(row["converged"] for row in rows) else EXIT_CONFIG


def _scaling_times(data) -> Dict[int, float]:
    """N -> decay time: {"times": {N: t}}, or sqrt_e_time of converged even-N fit rows."""
    if not isinstance(data, dict):
        raise ConfigError("scaling input must be a JSON object")
    try:
        pairs = (list(data["times"].items()) if "times" in data else
                 [(r.get("n_projections"), r.get("T2eff_ms"))
                  for r in data.get("fits", []) if r.get("converged")])
    except (AttributeError, TypeError) as e:
        raise ConfigError(f"malformed scaling input: {e}") from e
    times = {}
    for n, t in pairs:
        # ASCII only: str.isdigit also accepts digits such as "²" and "١"
        if isinstance(n, bool) or not (str(n).isascii() and str(n).isdigit()):
            raise ConfigError(f"projection count {n!r} is not a nonnegative integer")
        if not (_json_is(t, (int, float)) and math.isfinite(t) and t > 0):
            raise ConfigError(f"time {t!r} for N={n} is not finite and positive")
        if int(n) in times:
            raise ConfigError(f"projection count {n!r} repeats N={int(n)}")
        times[int(n)] = float(t)
    if "times" in data:
        return times
    try:
        return {n: model.sqrt_e_time(n, t) for n, t in times.items() if n % 2 == 0}
    except ValueError as e:
        raise ConfigError(str(e)) from e


def cmd_scaling(args) -> int:
    try:
        fit = fit_scaling(_scaling_times(_read_json(args.input)))
    except FitError as e:
        raise ConfigError(str(e)) from e
    _emit(args.out, _json_dumps(fit.as_dict()))
    return 0


# --- figure-reproduction pipelines -----------------------------------------

def _tau_grid(stop: float, points: int = 24) -> tuple:
    return tuple(np.round(np.linspace(0.0, stop, points), 6))


def _crossing_time(tau: np.ndarray, y: np.ndarray, level: float) -> Optional[float]:
    """First linear-interpolated crossing below `level`, or None."""
    for i in range(1, len(tau)):
        if y[i - 1] >= level > y[i]:
            f = (y[i - 1] - level) / (y[i - 1] - y[i])
            return float(tau[i - 1] + f * (tau[i] - tau[i - 1]))
    return None


def _avg_curve(t2_star, states, prefix, n, taus, shots, seed, amplitude,
               **header) -> DecayCurve:
    """Mean over states of each state's readout prefix + state, amplitude applied.

    Every state runs with the same seed under projections of X...X; its
    plan's stream keeps its draws apart from the other states'. Each mean
    maps to A*v + (1-A)*floor, floor being the readout's value on the
    maximally mixed state; the independent states' standard errors, times
    A, add in quadrature. The curve's readout is prefix + "<state>" and
    header entries extend its metadata. A plan the ensemble rejects, such
    as one past its Monte-Carlo size limit, is a ConfigError.
    """
    dim = 2 ** len(t2_star)
    means, errs = [], []
    for state in states:
        readout = prefix + state
        try:
            plan = ExperimentPlan(
                noise=NoiseModel(t2_star), initial_state=state,
                observable="X" * len(t2_star), readout=(readout,), n_projections=n,
                tau_grid=taus, shots=shots, seed=seed)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        (curve,) = run_ensemble(plan)
        floor = np.trace(readout_operator(readout)).real / dim
        means.append(amplitude * curve.mean + (1.0 - amplitude) * floor)
        errs.append(amplitude * curve.stderr)
    meta = {"t2_star": list(t2_star), "observable": "X" * len(t2_star),
            "states": list(states), "n_projections": n, "shots": shots,
            "seed": seed, "amplitude": amplitude, "readout": prefix + "<state>",
            **header}
    return DecayCurve(np.asarray(taus, dtype=float), np.mean(means, axis=0),
                      np.sqrt(np.sum(np.square(errs), axis=0)) / len(states),
                      n, meta["readout"], meta)


def _fits(curves) -> Dict:
    """Each N's decay fit from the nominal T2*, and its 1/sqrt(e) time (None if failed)."""
    rows = {str(n): _fit_row(curve, n, T2_STAR[0]) for _, n, curve in curves}
    return {"fits": rows, "sqrt_e_times_ms": {
        n: model.sqrt_e_time(int(n), row["T2eff_ms"]) if row["converged"] else None
        for n, row in rows.items()}}


def _crossings(key: str, level: float, curves) -> Dict:
    """Under key, each N's first crossing below level in ms (None: no crossing)."""
    return {key: {str(n): _crossing_time(c.tau, c.mean, level) for _, n, c in curves}}


def _final_values(curves) -> Dict:
    """Each state's curve value at the last tau, per N."""
    return {"final_fidelities": {f"{group[0]}_N{n}_final": float(c.mean[-1])
                                 for group, n, c in curves}}


# The curve figures. Per figure: T2*, state groups (one curve per group and
# N, the mean over its states), readout prefix ("" reads each state's own
# correlator word, L: its restricted logical fidelity, F: its full-state
# fidelity), amplitude, N set, tau grid, and the function that turns the
# figure's curves, a list of (group, N, curve), into its summary entries.
_CURVE_FIGURES = {
    # single-spin protection, fitted for 1/sqrt(e) times
    "fig2c": ((T2_STAR[0],), (("X",),), "", AMPLITUDE_SINGLE, (0, 2, 4, 8, 16),
              _tau_grid(60.0), _fits),
    # one logical qubit in <XX> = +1, against the 2/3 classical-memory line
    "fig3b": (T2_STAR[:2], (logical.CARDINAL_2SPIN,), LOGICAL_PREFIX, AMPLITUDE_LOGICAL,
              (0, 2, 4, 6, 16), _tau_grid(320.0, 32),
              partial(_crossings, "classical_memory_crossings_ms",
                      logical.CLASSICAL_MEMORY)),
    # logical entangled states, against the 1/2 entanglement witness
    "fig3c": (T2_STAR[:2], (logical.ENTANGLED_2SPIN,), FIDELITY_PREFIX, AMPLITUDE_LOGICAL,
              (0, 2, 4, 6), _tau_grid(100.0, 25),
              partial(_crossings, "entanglement_persistence_ms",
                      logical.ENTANGLEMENT_WITNESS)),
    # two logical qubits in <XXX> = +1, one curve per state
    "fig4b": (T2_STAR, tuple((s,) for s in logical.LOGICAL_3SPIN), LOGICAL_PREFIX,
              AMPLITUDE_LOGICAL, (0, 2, 4), _tau_grid(40.0, 20), _final_values),
}


def _reproduce_curves(fig: str, out: Path, shots: int, seed: int) -> Dict:
    """One figure of _CURVE_FIGURES, every plan with the given seed; its summary.

    Writes a curve CSV per group and N, named <fig>_N<n>, or <fig>_<state>_N<n>
    when each group is one state; such a figure's summary lists its states.
    """
    t2_star, groups, prefix, amplitude, n_set, taus, summarize = _CURVE_FIGURES[fig]
    per_state = len(groups) > 1
    curves = []
    for group in groups:
        for n in n_set:
            curve = _avg_curve(t2_star, group, prefix, n, taus, shots, seed, amplitude,
                               figure=fig)
            name = f"{fig}_{group[0]}_N{n}" if per_state else f"{fig}_N{n}"
            _write(out / f"{name}.csv", curve_to_csv(curve))
            curves.append((group, n, curve))
    states = {"states": [group[0] for group in groups]} if per_state else {}
    return {"figure": fig, "n_set": list(n_set), **states, **summarize(curves)}


def _reproduce_fig5(out: Path, shots: int, seed: int) -> Dict:
    fit = fit_scaling({n: model.sqrt_e_time(n, 1.0) for n in range(0, 17, 2)})
    _write(out / "fig5_normalized_times.csv",
           _csv([], "n_projections,normalized_sqrt_e_time",
                fit.normalized_times.items()))
    return {"figure": "fig5", **fit.as_dict()}


_FIGURES = {"fig5": _reproduce_fig5,
            **{f: partial(_reproduce_curves, f) for f in _CURVE_FIGURES}}


def cmd_reproduce(args) -> int:
    if args.shots < 1:
        raise ConfigError(f"--shots must be >= 1, got {args.shots}")
    out = Path(args.out)
    seed = _effective_seed(args.seed)
    summary = _FIGURES[args.figure](out, args.shots, seed)
    summary["seed"] = seed
    summary["shots"] = args.shots
    _write(out / f"{args.figure}_summary.json", _json_dumps(summary))
    print(out / f"{args.figure}_summary.json")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The zeno argument parser, built once per process and shared by main."""
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
