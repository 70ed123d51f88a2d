"""Every zeno output is the same bytes whatever BLAS runs beneath it.

One table, RUNS, names each subprocess: the environment variables it sets
for the child only, and the zeno commands it runs through cli.main, with
numpy RuntimeWarnings as errors. The default run serves as the reference
of every comparison:
- on one BLAS thread (OPENBLAS_NUM_THREADS=1), every file of THREAD_RUN:
  reproduce of every figure at --shots 40 --seed 7, where every figure
  plan fits in one kernel chunk, and of every curve figure at the default
  shots, where their plans span several chunks; fit and scaling on the
  default-shot fig2c curves, whose normal equations are summed by a BLAS
  matrix product; and simulate of the pinned plan (pinned_outputs.SIMULATE)
  at N = 0 and 3, the one plan here whose kernel table is complex with Q
  and D terms, whose D terms read O rho0 O, a dense matrix product;
- under OpenBLAS's Prescott and Haswell kernels (OPENBLAS_CORETYPE), the
  files of CORE_RUN: fig5 at --shots 40 --seed 7 and `zeno scaling` on a
  pinned times table. A DYNAMIC_ARCH OpenBLAS (numpy's wheels ship one)
  picks its kernels per CPU, and the variable overrides the pick. Scaling
  fits solve their normal equations and standard errors in Python floats
  and print at the precision the fit resolves, so they must not move.
  Without OpenBLAS the variable does nothing, and this comparison is
  skipped rather than passed.
Another command to compare across core types is one more row of CORE_RUN.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from pinned_outputs import SIMULATE

SRC = Path(__file__).resolve().parent.parent / "src"

FIGURES = ("fig2c", "fig3b", "fig3c", "fig4b", "fig5")
CURVE_FIGURES = FIGURES[:-1]

# a pinned table of decay times in ms at N = 0, 2, ..., 16
TIMES = {"0": 12.4, "2": 19.83, "4": 24.91, "6": 28.52, "8": 32.07, "10": 34.66, "12": 37.4,
         "14": 39.95, "16": 42.13}

# zeno argv lists; {out} is the run's directory and {tmp} the one all runs share
CORE_RUN = [
    ["reproduce", "fig5", "--shots", 40, "--seed", 7, "--out", "{out}/shots40"],
    ["scaling", "--in", "{tmp}/times.json", "--out", "{out}/scaling_times.json"],
]
THREAD_RUN = [
    *(["reproduce", fig, "--shots", 40, "--seed", 7, "--out", "{out}/shots40"]
      for fig in FIGURES),
    *(["reproduce", fig, "--out", "{out}/default"] for fig in CURVE_FIGURES),
    ["fit", "--in", "{out}/default/fig2c_N*.csv", "--out", "{out}/fits.json"],
    ["scaling", "--in", "{out}/fits.json", "--out", "{out}/scaling.json"],
    *(["simulate", "--config", f"{{tmp}}/simulate_{n}.json", "--out", f"{{out}}/simulate_N{n}"]
      for n in (0, 3)),
]
# run name -> (environment variables set for the child only, commands);
# the default run's commands cover those of every other run
RUNS = {
    "default": ({}, THREAD_RUN + CORE_RUN[1:]),
    "threads1": ({"OPENBLAS_NUM_THREADS": "1"}, THREAD_RUN),
    "Prescott": ({"OPENBLAS_CORETYPE": "Prescott"}, CORE_RUN),
    "Haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, CORE_RUN),
}
CORETYPES = ("Prescott", "Haswell")

_RUN = """
import json, sys
from zenosim import cli

for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    if code:
        sys.exit(f"zeno {argv} exited {code}")
"""


def _has_openblas() -> bool:
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        np.show_config()
    return "openblas" in text.getvalue().lower()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """{run name: {path relative to its directory: bytes}}; no core-type runs without OpenBLAS."""
    tmp = tmp_path_factory.mktemp("invariance")
    (tmp / "times.json").write_text(json.dumps({"times": TIMES}))
    for n in (0, 3):
        (tmp / f"simulate_{n}.json").write_text(json.dumps(dict(SIMULATE, n_projections=n)))
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning", PYTHONPATH=str(SRC))
    for var in ("ZENO_SEED", "OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE"):
        env.pop(var, None)
    names = [name for name in RUNS if name not in CORETYPES or _has_openblas()]
    # every run at once, one process each
    procs = {}
    for name in names:
        settings, commands = RUNS[name]
        argvs = [[str(a).format(out=tmp / name, tmp=tmp) for a in argv] for argv in commands]
        procs[name] = subprocess.Popen([sys.executable, "-c", _RUN, json.dumps(argvs)],
                                       env=dict(env, **settings), stdout=subprocess.DEVNULL,
                                       stderr=subprocess.PIPE, text=True)
    errors = {name: proc.communicate(timeout=120)[1] for name, proc in procs.items()}
    files = {}
    for name, proc in procs.items():
        assert proc.returncode == 0, errors[name]
        root = tmp / name
        files[name] = {str(p.relative_to(root)): p.read_bytes()
                       for p in sorted(root.rglob("*")) if p.is_file()}
    return files


def test_outputs_are_byte_identical_across_blas_thread_counts(runs):
    one, default = runs["threads1"], runs["default"]
    # 23 curve CSVs and 4 summaries at 40 shots, plus fig5's table and
    # summary, the same 27 at the default shots, the fit and scaling tables,
    # and each simulate config's two curves; the default run adds its
    # scaling of the pinned times
    assert len(one) == 29 + 27 + 2 + 2 * 2
    assert sorted(default) == sorted([*one, "scaling_times.json"])
    for name in one:
        assert one[name] == default[name], name


def test_fig5_and_scaling_are_byte_identical_across_openblas_kernels(runs):
    if not _has_openblas():
        pytest.skip("numpy.show_config() shows no OpenBLAS, so OPENBLAS_CORETYPE "
                    "cannot vary the BLAS kernel")
    default = runs["default"]
    for core in CORETYPES:
        assert sorted(runs[core]) == ["scaling_times.json", "shots40/fig5_normalized_times.csv",
                                      "shots40/fig5_summary.json"]
        for name, data in runs[core].items():
            assert data == default[name], (core, name)
