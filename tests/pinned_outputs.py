"""Every curve and summary number of the five figures, and the file that pins them.

collect() runs `zeno reproduce <fig> --shots 40 --seed 7` for each figure
through cli.main and returns, per figure, every curve the run writes (in
the order written, at full precision rather than the CSV's 12 digits) and
its summary with the fit iteration counts left out. It also returns
collect_simulated(): the curves `zeno simulate` writes for SIMULATE at
each N of SIMULATE_N. That plan starts off every eigenstate of its
observable, which leaves two spins unflipped, so its kernel table is
complex with nonzero Q and D terms, which no figure plan has.
test_pinned_outputs compares both with pinned_outputs.json.

A change that alters a random stream or the physics on purpose regenerates
the file, and says so:

    PYTHONPATH=src python tests/pinned_outputs.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

from zenosim import cli

FIGURES = ("fig2c", "fig3b", "fig3c", "fig4b", "fig5")
SHOTS = 40
SEED = 7
PINNED = Path(__file__).with_name("pinned_outputs.json")
SIMULATE = {"t2_star": [12.4, 8.2, 21.0], "initial_state": "Y,X,X", "observable": "YIZ",
            "readout": ["XYX", "F:Y,X,X"], "tau_grid": [0.0, 2.0, 5.0, 10.0, 20.0],
            "shots": SHOTS, "seed": SEED}
SIMULATE_N = (0, 3)


def _unpinned(summary):
    """The summary without its fit iteration counts, which the fits do not resolve."""
    if isinstance(summary, dict):
        return {k: _unpinned(v) for k, v in summary.items() if k != "iterations"}
    return summary


def _curves(argv, name):
    """Every curve cli.main(argv) writes, in order, with the keys name(curve) gives."""
    curves = []
    to_csv = cli.curve_to_csv

    def record(curve):
        curves.append({**name(curve), "tau": curve.tau.tolist(),
                       "mean": curve.mean.tolist(), "stderr": curve.stderr.tolist()})
        return to_csv(curve)

    with mock.patch.object(cli, "curve_to_csv", record), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"zeno {argv[0]} exited {code}")
    return curves


def collect_simulated():
    """{"config": SIMULATE, "curves": [...]}, the curves of every N of SIMULATE_N."""
    curves = []
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("ZENO_SEED", None)
        for n in SIMULATE_N:
            config = Path(tmp, f"simulate_{n}.json")
            config.write_text(json.dumps(dict(SIMULATE, n_projections=n)))
            curves += _curves(["simulate", "--config", str(config), "--out", tmp],
                              lambda c: {"n_projections": c.n_projections,
                                         "readout": c.readout})
    return {"config": SIMULATE, "curves": curves}


def collect():
    """{"shots", "seed", "figures": {fig: {"curves": [...], "summary": {...}}},
    "simulate": collect_simulated()}."""
    figures = {}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("ZENO_SEED", None)
        for fig in FIGURES:
            out = Path(tmp, fig)
            curves = _curves(["reproduce", fig, "--shots", str(SHOTS), "--seed",
                              str(SEED), "--out", str(out)],
                             lambda c: {"n_projections": c.n_projections,
                                        "states": c.metadata["states"]})
            summary = json.loads((out / f"{fig}_summary.json").read_text())
            figures[fig] = {"curves": curves, "summary": _unpinned(summary)}
    return {"shots": SHOTS, "seed": SEED, "figures": figures,
            "simulate": collect_simulated()}


if __name__ == "__main__":
    PINNED.write_text(json.dumps(collect(), sort_keys=True, indent=1) + "\n")
    print(PINNED, file=sys.stderr)
