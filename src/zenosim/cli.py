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
plan of every curve). A number in argv, in ZENO_SEED or in a curve CSV
must be plain ASCII with no '_', both of which int() and float() would
accept. Exit codes: 0 success, 2 config or parse error (an argument
argparse rejects included, and a zeno fit in which no curve fits), 3 I/O
error. Every failure prints one 'error:' line on stderr.
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
from .fitting import REL_TOL, FitError, fit_decay, fit_scaling

EXIT_CONFIG = 2
EXIT_IO = 3

# Nominal per-spin dephasing times (ms) used by the reproduction pipelines.
T2_STAR = (12.4, 8.2, 21.0)
AMPLITUDE_SINGLE = 0.95
AMPLITUDE_LOGICAL = 0.89

# The keys of a simulate config; ExperimentPlan checks their values.
_PLAN_KEYS = ("t2_star", "initial_state", "observable", "readout", "n_projections",
              "tau_grid", "shots", "seed")


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections are ConfigErrors, not SystemExit(2)."""

    def error(self, message):
        raise ConfigError(message)


def _plain(text: str) -> bool:
    """True unless text holds a non-ASCII character or '_', which float() and int() accept."""
    return text.isascii() and "_" not in text


def _plain_number(kind):
    """kind (int or float) read from _plain text only: the one reader of argv and env numbers.

    Any other text, and text kind cannot read, is a ValueError "invalid int
    value: '...'" (or float). The reader is named after kind, so argparse
    reports a rejected option in the same words: "argument --n: invalid int
    value: '...'".
    """
    def read(text: str):
        try:
            if _plain(text):
                return kind(text)
        except ValueError:
            pass
        raise ValueError(f"invalid {kind.__name__} value: {text!r}")

    read.__name__ = kind.__name__
    return read


_int, _float = _plain_number(int), _plain_number(float)


def _effective_seed(seed):
    """ZENO_SEED as an int if set, else the given seed; neither is range-checked."""
    env = os.environ.get("ZENO_SEED")
    if env is not None:
        try:
            seed = _int(env)
        except ValueError as e:
            raise ConfigError(f"ZENO_SEED: {e}") from e
    return seed


def plan_from_config(cfg) -> ExperimentPlan:
    """The ExperimentPlan of a parsed JSON config; ZENO_SEED replaces its seed if set.

    The one place cli builds a plan, for zeno simulate and for every plan
    of zeno reproduce. It checks only the config's shape, a JSON object
    with exactly the keys of _PLAN_KEYS; ExperimentPlan checks each value.
    Every rejection is a ConfigError.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {type(cfg).__name__}")
    unknown = set(cfg) - set(_PLAN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = [k for k in _PLAN_KEYS if k not in cfg]
    if missing:
        raise ConfigError(f"missing config keys: {missing}")
    fields = dict(cfg, seed=_effective_seed(cfg["seed"]))
    try:
        return ExperimentPlan(noise=NoiseModel(fields.pop("t2_star")), **fields)
    except (ValueError, TypeError) as e:
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
    """Parse a curve CSV produced by curve_to_csv; N is None without its header line.

    One pass reads the '# ' header lines (the last of each key counts) and
    collects the data rows, which may stand anywhere beside the column line;
    a row needs three cells, and a row or an N holding a non-ASCII character
    or '_' is malformed. Then every cell is converted at once. Each fault is
    a ValueError.
    """
    meta: Dict[str, object] = {}
    n_projections = None
    readout = ""
    data: List[str] = []
    saw_header = False
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition(":")
            if not sep:
                continue
            if key == "config":
                meta = json.loads(value.strip())
            elif key == "n_projections":
                if not _plain(value):
                    raise ValueError(f"malformed n_projections: {value.strip()!r}")
                n_projections = int(value)
            elif key == "readout":
                readout = value.strip()
        elif line == "tau_ms,mean,stderr":
            saw_header = True
        elif line:
            if line.count(",") != 2 or not _plain(line):
                raise ValueError(f"malformed curve row: {line!r}")
            data.append(line)
    arr = np.array([float(cell) for row in data for cell in row.split(",")]).reshape(-1, 3)
    if not saw_header or not data:
        raise ValueError("not a curve CSV: missing header or data rows")
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
    """Strict, sorted, indented JSON; a NaN or infinity is a ValueError."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


# Format of a fit row's floats, decay or scaling: a fit stops once its step is
# below REL_TOL of T2eff or nu, so digits past -log10(REL_TOL) significant ones
# are noise that a 1e-16 change in the data moves.
_RESOLVED = f".{round(-math.log10(REL_TOL))}g"


def _resolved(row):
    """A fit row with every float rounded to the digits the fit resolves."""
    if isinstance(row, dict):
        return {k: _resolved(v) for k, v in row.items()}
    return float(format(float(row), _RESOLVED)) if isinstance(row, float) else row


def _read_json(path: str):
    """The parsed JSON of a file; IOError if unreadable, ConfigError if not JSON."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise IOError(f"cannot read {path}: {e}") from e
    try:
        return json.loads(text)
    except ValueError as e:
        # a JSONDecodeError, or an integer past Python's limit on int digits
        raise ConfigError(f"invalid JSON in {path}: {e}") from e


def _emit(out: Optional[str], text: str) -> None:
    """Write text to the file out, or to stdout when out is not given."""
    if out:
        _write(Path(out), text)
    else:
        sys.stdout.write(text)


def cmd_simulate(args) -> int:
    plan = plan_from_config(_read_json(args.config))
    curves = run_ensemble(plan)
    out = Path(args.out)
    for i, curve in enumerate(curves):
        path = out / f"curve_{i}_{_sanitize(curve.readout)}.csv"
        _write(path, curve_to_csv(curve))
        print(path)
    return 0


def cmd_analytic(args) -> int:
    try:
        taus = [_float(t) for t in args.tau.split(",")]
    except ValueError as e:
        raise ConfigError(f"--tau: {e}") from e
    try:
        values = model.decay_curve(args.n, taus, args.t2eff, args.amplitude,
                                   args.offset)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    _emit(args.out, _csv(["zenosim analytic v1", f"n_projections: {args.n}",
                          f"t2eff_ms: {_fmt(args.t2eff)}"],
                         "tau_ms,value", zip(taus, values)))
    return 0


def _fit_row(curve: DecayCurve, n: int, t2_guess: Optional[float]) -> Dict:
    """fit_decay's result as a JSON row at resolved precision, or {"converged": False, ...}."""
    try:
        return _resolved(fit_decay(curve, n, t2_guess=t2_guess).as_dict())
    except FitError as e:
        return {"converged": False, "error": str(e)}


def cmd_fit(args) -> int:
    if args.t2_guess is not None:
        try:
            model._t2eff(args.t2_guess)
        except ValueError as e:
            raise ConfigError(f"--t2-guess {args.t2_guess!r} is not finite and positive") from e
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
    if not any(row["converged"] for row in rows):
        raise ConfigError(f"no curve could be fitted; {rows[0]['file']}: {rows[0]['error']}")
    return 0


def _converged(row) -> bool:
    """A fit row's "converged", which must be JSON true or false; ConfigError naming N.

    A row without the key reads as null.
    """
    if type(row.get("converged")) is not bool:
        raise ConfigError(f"fit row of N={row.get('n_projections')!r}: converged must be "
                          f"true or false, got {json.dumps(row.get('converged'))}")
    return row["converged"]


def _scaling_times(data) -> Dict[int, float]:
    """N -> decay time: {"times": {N: t}}, or sqrt_e_time of converged even-N fit rows.

    Parses the JSON only: each N must be plain ASCII digits and given once,
    and a fit row is taken when its "converged" is true and skipped when it
    is false (_converged). fit_scaling checks the times, and sqrt_e_time a
    fit row's T2eff.
    """
    if not isinstance(data, dict):
        raise ConfigError("scaling input must be a JSON object")
    try:
        pairs = (list(data["times"].items()) if "times" in data else
                 [(r.get("n_projections"), r.get("T2eff_ms"))
                  for r in data.get("fits", []) if _converged(r)])
    except (AttributeError, TypeError) as e:
        raise ConfigError(f"malformed scaling input: {e}") from e
    times = {}
    for n, t in pairs:
        # ASCII only: str.isdigit also accepts digits such as "²" and "١"
        if isinstance(n, bool) or not (str(n).isascii() and str(n).isdigit()):
            raise ConfigError(f"projection count {n!r} is not a nonnegative integer")
        try:
            key = int(n)
        except ValueError as e:
            # past Python's limit on the digits of an int read from text
            raise ConfigError(f"projection count of {len(n)} digits is too long") from e
        if key in times:
            raise ConfigError(f"projection count {n!r} repeats N={key}")
        times[key] = t
    if "times" in data:
        return times
    try:
        return {n: model.sqrt_e_time(n, t) for n, t in times.items() if n % 2 == 0}
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e


def cmd_scaling(args) -> int:
    try:
        fit = fit_scaling(_scaling_times(_read_json(args.input)))
    except FitError as e:
        raise ConfigError(str(e)) from e
    _emit(args.out, _json_dumps(_resolved(fit.as_dict())))
    return 0


# --- figure-reproduction pipelines -----------------------------------------

def _tau_grid(stop: float, points: int = 24) -> tuple:
    return tuple(np.round(np.linspace(0.0, stop, points), 6).tolist())


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

    Each state runs the zeno simulate config of that state, with projections
    of X...X, through plan_from_config; its plan's stream keeps its draws
    apart from the other states'. Each mean maps to A*v + (1-A)*floor, floor
    being the readout's value on the maximally mixed state; the independent
    states' standard errors, times A, add in quadrature. The metadata is the
    plans' header without the state, plus the states, A, the readout
    prefix + "<state>" and the header entries.
    """
    cfg = {"t2_star": t2_star, "observable": "X" * len(t2_star), "n_projections": n,
           "tau_grid": taus, "shots": shots, "seed": seed}
    means, errs = [], []
    for state in states:
        cfg.update(initial_state=state, readout=[prefix + state])
        (curve,) = run_ensemble(plan_from_config(cfg))
        floor = np.trace(readout_operator(prefix + state)).real / 2 ** len(t2_star)
        means.append(amplitude * curve.mean + (1.0 - amplitude) * floor)
        errs.append(amplitude * curve.stderr)
    meta = dict(curve.metadata, states=list(states), amplitude=amplitude,
                readout=prefix + "<state>", **header)
    del meta["initial_state"]
    return DecayCurve(curve.tau, np.mean(means, axis=0),
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
    return {"figure": "fig5", **_resolved(fit.as_dict())}


_FIGURES = {"fig5": _reproduce_fig5,
            **{f: partial(_reproduce_curves, f) for f in _CURVE_FIGURES}}


def cmd_reproduce(args) -> int:
    seed = _effective_seed(args.seed)
    try:
        shots, seed = model.shot_count(args.shots, "--shots"), model.key_word(seed, "seed")
    except ValueError as e:
        raise ConfigError(str(e)) from e
    summary = _FIGURES[args.figure](Path(args.out), shots, seed)
    path = Path(args.out) / f"{args.figure}_summary.json"
    _write(path, _json_dumps(dict(summary, seed=seed, shots=shots)))
    print(path)
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The zeno argument parser, built once per process and shared by main."""
    p = _Parser(prog="zeno", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="run a Monte-Carlo plan from a JSON config")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_simulate)

    s = sub.add_parser("analytic", help="evaluate the closed-form decay curve")
    s.add_argument("--n", type=_int, required=True)
    s.add_argument("--t2eff", type=_float, required=True)
    s.add_argument("--tau", required=True, help="comma-separated times in ms")
    s.add_argument("--amplitude", type=_float, default=1.0)
    s.add_argument("--offset", type=_float, default=0.0)
    s.add_argument("--out")
    s.set_defaults(func=cmd_analytic)

    s = sub.add_parser("fit", help="fit curve CSVs, emit a JSON fit table")
    s.add_argument("--in", dest="input", required=True, help="glob of curve CSVs")
    s.add_argument("--n", type=_int, default=None,
                   help="override the projection count from the file headers")
    s.add_argument("--t2-guess", dest="t2_guess", type=_float, default=None)
    s.add_argument("--out")
    s.set_defaults(func=cmd_fit)

    s = sub.add_parser("scaling", help="fit 1+mu*N^nu to normalized decay times")
    s.add_argument("--in", dest="input", required=True)
    s.add_argument("--out")
    s.set_defaults(func=cmd_scaling)

    s = sub.add_parser("reproduce", help="rerun a published-figure pipeline")
    s.add_argument("figure", choices=sorted(_FIGURES))
    s.add_argument("--out", required=True)
    s.add_argument("--shots", type=_int, default=2000)
    s.add_argument("--seed", type=_int, default=20160901)
    s.set_defaults(func=cmd_reproduce)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except IOError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
