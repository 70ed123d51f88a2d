"""fig5 and scaling output is the same bytes under every OpenBLAS kernel.

A DYNAMIC_ARCH OpenBLAS (numpy's wheels ship one) picks its kernels per
CPU, and OPENBLAS_CORETYPE overrides the pick. The fixture runs `zeno
reproduce fig5` and `zeno scaling` on a pinned times table through cli.main
in three subprocesses: one with the kernel OpenBLAS picks, one with
Prescott's and one with Haswell's, the variable set for the child only.
Scaling fits solve their normal equations and standard errors in Python
floats and print at the precision the fit resolves, so the three runs must
write the same bytes. Without OpenBLAS the variable does nothing, and the
test is skipped rather than passed.
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

SRC = Path(__file__).resolve().parent.parent / "src"

# a pinned table of decay times in ms at N = 0, 2, ..., 16
TIMES = {"0": 12.4, "2": 19.83, "4": 24.91, "6": 28.52, "8": 32.07, "10": 34.66, "12": 37.4,
         "14": 39.95, "16": 42.13}

_RUN = """
import sys
from pathlib import Path
from zenosim import cli

out = Path(sys.argv[1])
for argv in (["reproduce", "fig5", "--out", out],
             ["scaling", "--in", out.parent / "times.json", "--out", out / "scaling.json"]):
    code = cli.main([str(a) for a in argv])
    if code:
        sys.exit(f"zeno {argv} exited {code}")
"""

CORETYPES = ("default", "Prescott", "Haswell")


def _has_openblas() -> bool:
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        np.show_config()
    return "openblas" in text.getvalue().lower()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """{core type: {file name: bytes}} of the three runs."""
    if not _has_openblas():
        pytest.skip("numpy.show_config() shows no OpenBLAS, so OPENBLAS_CORETYPE "
                    "cannot vary the BLAS kernel")
    tmp = tmp_path_factory.mktemp("coretype")
    (tmp / "times.json").write_text(json.dumps({"times": TIMES}))
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning", PYTHONPATH=str(SRC))
    for var in ("ZENO_SEED", "OPENBLAS_CORETYPE"):
        env.pop(var, None)
    procs = {core: subprocess.Popen(
        [sys.executable, "-c", _RUN, str(tmp / core)],
        env=env if core == "default" else dict(env, OPENBLAS_CORETYPE=core),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True) for core in CORETYPES}
    errors = {core: proc.communicate(timeout=120)[1] for core, proc in procs.items()}
    files = {}
    for core, proc in procs.items():
        assert proc.returncode == 0, errors[core]
        files[core] = {p.name: p.read_bytes() for p in sorted((tmp / core).iterdir())}
    return files


def test_fig5_and_scaling_are_byte_identical_across_openblas_kernels(runs):
    default = runs["default"]
    assert sorted(default) == ["fig5_normalized_times.csv", "fig5_summary.json",
                               "scaling.json"]
    for core in CORETYPES[1:]:
        assert runs[core] == default, core
