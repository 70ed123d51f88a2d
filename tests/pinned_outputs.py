"""Every curve and summary number of the five figures, and the file that pins them.

collect() runs `zeno reproduce <fig> --shots 40 --seed 7` for each figure
through cli.main and returns, per figure, every curve the run writes (in
the order written, at full precision rather than the CSV's 12 digits) and
its summary with the fit iteration counts left out. test_pinned_outputs
compares that with pinned_outputs.json.

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


def _unpinned(summary):
    """The summary without its fit iteration counts, which the fits do not resolve."""
    if isinstance(summary, dict):
        return {k: _unpinned(v) for k, v in summary.items() if k != "iterations"}
    return summary


def collect():
    """{"shots", "seed", "figures": {fig: {"curves": [...], "summary": {...}}}}."""
    figures = {}
    to_csv = cli.curve_to_csv
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("ZENO_SEED", None)
        for fig in FIGURES:
            curves = []

            def record(curve):
                curves.append({"n_projections": curve.n_projections,
                               "states": curve.metadata["states"],
                               "tau": curve.tau.tolist(), "mean": curve.mean.tolist(),
                               "stderr": curve.stderr.tolist()})
                return to_csv(curve)

            out = Path(tmp, fig)
            with mock.patch.object(cli, "curve_to_csv", record), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["reproduce", fig, "--shots", str(SHOTS), "--seed",
                                 str(SEED), "--out", str(out)])
            if code != 0:
                raise RuntimeError(f"zeno reproduce {fig} exited {code}")
            summary = json.loads((out / f"{fig}_summary.json").read_text())
            figures[fig] = {"curves": curves, "summary": _unpinned(summary)}
    return {"shots": SHOTS, "seed": SEED, "figures": figures}


if __name__ == "__main__":
    PINNED.write_text(json.dumps(collect(), sort_keys=True, indent=1) + "\n")
    print(PINNED, file=sys.stderr)
