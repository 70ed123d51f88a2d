"""Every zeno output is the same bytes on one BLAS thread and on the default count.

The fixture runs one set of zeno commands through cli.main in two
subprocesses, one with OPENBLAS_NUM_THREADS=1 and one without it, each
with numpy RuntimeWarnings as errors:
- reproduce of every figure at --shots 40 --seed 7, where every figure plan
  fits in one kernel chunk, and of every curve figure at the default
  shots, where their plans span several chunks;
- fit and scaling on the default-shot fig2c curves, whose normal
  equations are summed by a BLAS matrix product;
- simulate of the pinned plan (pinned_outputs.SIMULATE) at N = 0 and 3,
  the one plan here whose kernel table is complex with Q and D terms; its
  D terms read O rho0 O, a dense matrix product.
The test compares every file the two runs write.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

_RUN = """
import json, sys
from pathlib import Path
from pinned_outputs import SIMULATE
from zenosim import cli

out = Path(sys.argv[1])

def zeno(*argv):
    code = cli.main([str(a) for a in argv])
    if code:
        sys.exit(f"zeno {argv} exited {code}")

for fig in ("fig2c", "fig3b", "fig3c", "fig4b", "fig5"):
    zeno("reproduce", fig, "--shots", 40, "--seed", 7, "--out", out / "shots40")
for fig in cli._CURVE_FIGURES:
    zeno("reproduce", fig, "--out", out / "default")
zeno("fit", "--in", out / "default" / "fig2c_N*.csv", "--out", out / "fits.json")
zeno("scaling", "--in", out / "fits.json", "--out", out / "scaling.json")
for n in (0, 3):
    config = out / f"simulate_{n}.json"
    config.write_text(json.dumps(dict(SIMULATE, n_projections=n)))
    zeno("simulate", "--config", config, "--out", out / f"simulate_N{n}")
"""


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """{threads: {relative path: bytes}} of both runs, "1" and "default"."""
    tmp = tmp_path_factory.mktemp("blas")
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning",
               PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    for var in ("ZENO_SEED", "OPENBLAS_NUM_THREADS"):
        env.pop(var, None)
    # the two runs at once, one process each
    procs = {threads: subprocess.Popen([sys.executable, "-c", _RUN, str(tmp / threads)],
                                       env=child, stdout=subprocess.DEVNULL,
                                       stderr=subprocess.PIPE, text=True)
             for threads, child in (("1", dict(env, OPENBLAS_NUM_THREADS="1")),
                                    ("default", env))}
    errors = {threads: proc.communicate(timeout=120)[1] for threads, proc in procs.items()}
    files = {}
    for threads, proc in procs.items():
        assert proc.returncode == 0, errors[threads]
        root = tmp / threads
        files[threads] = {str(p.relative_to(root)): p.read_bytes()
                          for p in sorted(root.rglob("*")) if p.is_file()}
    return files


def test_outputs_are_byte_identical_across_blas_thread_counts(runs):
    one, default = runs["1"], runs["default"]
    assert sorted(one) == sorted(default)
    # 23 curve CSVs and 4 summaries at 40 shots, plus fig5's table and
    # summary, the same 27 at the default shots, the fit and scaling tables,
    # and each simulate config with its two curves
    assert len(one) == 29 + 27 + 2 + 2 * 3
    for name in one:
        assert one[name] == default[name], name
