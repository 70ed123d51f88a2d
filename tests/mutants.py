"""Wrong programs that the tests must reject: a list of mutants, and its runner.

    python tests/mutants.py

Run from the root of a zenosim checkout. Each row of MUTANTS is (file,
old text, new text, reason); the old text must occur exactly once in its
file. The script copies src/, tests/, pyproject.toml and README.md (whose
pipeline a test runs) to a temporary directory and runs `pytest -x -q` on
TESTS there, once on the unchanged copy, which must pass, and once per
mutant, with that row's old text replaced. A mutant is killed when pytest
fails. Hypothesis runs with a fixed seed, so every run draws the same
examples. Prints one line per mutant and exits 1 if any mutant survives
(2 if the unchanged copy fails).

A new mutant that survives needs a new test; a row is removed only with
its reason in CHANGES.md.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENSEMBLE = "src/zenosim/ensemble.py"
CLI = "src/zenosim/cli.py"
MODEL = "src/zenosim/model.py"
FITTING = "src/zenosim/fitting.py"

# the fastest killers first: pytest stops at the first failure
TESTS = ("tests/test_pinned_outputs.py", "tests/test_work_counts.py", "tests/test_ensemble.py",
         "tests/test_cli.py", "tests/test_model.py", "tests/test_fitting.py")

MUTANTS = (
    (ENSEMBLE, "v += q * np.sin(alpha)", "v -= q * np.sin(alpha)", "the Q term negated"),
    (ENSEMBLE, "                        v += d\n", "                        v -= d\n",
     "the D term negated"),
    (ENSEMBLE, "np.exp((n + 1) * 1j *", "np.exp(n * 1j *",
     "exp(i N alpha_u) in place of exp(i (N+1) alpha_u)"),
    (ENSEMBLE, "v = p * (np.copysign(power, c, out=power) if n % 2 == 0 else power)",
     "v = p * (np.copysign(power, c, out=power) if n % 2 == 1 else power)",
     "the copysign parity of the one power P c**(N+1) flipped"),
    (ENSEMBLE, "v *= np.copysign(power, c, out=power) if n % 2 == 0 else power",
     "v *= np.copysign(power, c, out=power) if n % 2 == 1 else power",
     "the copysign parity of the product form's |c|**(N-1) flipped"),
    (ENSEMBLE, "v *= np.copysign(power, c, out=power) if n % 2 == 0 else power",
     "v *= power", "the sign of c dropped from the product form's power"),
    (ENSEMBLE, "v = p * (np.copysign(power, c, out=power) if n % 2 == 0 else power)",
     "v = p * power", "the sign of c dropped from the one power"),
    (ENSEMBLE, "one_power = n >= 4 and", "one_power = n >= 2 and",
     "the one-power form from N = 2, where the product form's exponents are numpy's fast ones"),
    (ENSEMBLE, "                    if n > 1:\n", "                    if n > 2:\n",
     "the power skipped at N = 2 as well as at N = 1"),
    (ENSEMBLE, "    coef[abs(coef) <= dim * dim * np.finfo(float).eps * scale.real] = 0\n", "",
     "the residue rule dropped: column sums that are rounding residues are kept"),
    (ENSEMBLE, "1j * sigma * p", "1j * p", "Q without the column's sign sigma"),
    (ENSEMBLE, "                v = v.real\n", "",
     "a complex table's values reduced without taking their real part, in one chunk "
     "or many"),
    (ENSEMBLE, "        chunk = _CHUNK_ENTRIES // len(p) or 1\n",
     "        chunk = _kernel.__dict__.setdefault(id(p), _CHUNK_ENTRIES // len(p) or 1)\n",
     "the rows per chunk cached per table, so a changed _CHUNK_ENTRIES does not reach a warm plan"),
    (ENSEMBLE, "vals.std(axis=2, ddof=1)", "vals.std(axis=2, ddof=0)",
     "standard errors from the biased variance"),
    (ENSEMBLE, "                        self.n_projections)).encode()",
     "                        )).encode()", "a plan stream that does not depend on N"),
    (ENSEMBLE, "not all(b > a for a, b in zip(taus, taus[1:]))",
     "any(b <= a for a, b in zip(taus, taus[1:]))",
     "a tau grid check that lets a NaN through"),
    (CLI, "round(-math.log10(REL_TOL))}g", "round(-math.log10(REL_TOL)) + 3}g",
     "fit rows printed to more digits than the fit resolves"),
    (ENSEMBLE, "if len(chunk_out) == 1 and len(v) >= 8:", "if len(chunk_out) == 0:",
     "a lone row's columns summed in numpy's pairwise order, so its bits depend on its chunk"),
    (ENSEMBLE, "keep = coef.any(axis=0) if coef.any() else ~angles.any(axis=1)",
     "keep = coef.any(axis=0)", "a readout whose coefficients all vanish keeps no column"),
    (MODEL, "    logw -= math.log(np.exp(logw).sum())\n", "",
     "binomial log weights not normalized to sum to 1"),
    (MODEL, "return value, second * (2.0 / t2eff)", "return value, second",
     "the factor 2/T dropped from dm/dT"),
    (FITTING, "if abs(g10) > abs(g00):", "if abs(g10) < abs(g00):",
     "the rows of a 2x2 Gram matrix swapped when |g10| is the smaller pivot"),
    (MODEL, "return _t2eff(t2eff) * _unit_sqrt_e_time(n)",
     "return _t2eff(t2eff) ** 0 * _unit_sqrt_e_time(n)",
     "sqrt_e_time without its T2eff factor"),
    (FITTING, "        else:\n            break\n",
     "        else:\n            state = trial or state\n            break\n",
     "a fit that gives up takes its last refused trial as the accepted state"),
    (FITTING, "s2 * (gi + xi * xi / s)", "s2 * gi",
     "x_i^2/s dropped from var c_i: the errors of c ignore their correlation with theta"),
    (CLI, 'if line.count(",") != 2 or', 'if line.count(",") < 2 or',
     "a curve row of 4 or more fields accepted"),
    (CLI, 'return text.isascii() and "_" not in text', "return text.isascii()",
     "'_' accepted in a curve number, which float() and int() read as a digit separator"),
    (ENSEMBLE,
     "    for block, p in zip(out, points):\n        counter[3] = p\n        bg.state = state\n",
     "    counter[3] = points[0] if points else 0\n    bg.state = state\n"
     "    for block, p in zip(out, points):\n",
     "the generator reset once per call, not before each point"),
    (ENSEMBLE, '"key": key}', '"key": bg.state["state"]["key"]}',
     "the key left out of the reset: a warm generator keeps the key it last drew with"),
    (ENSEMBLE, '"buffer_pos": 4,', '"buffer_pos": 0,',
     "the reset leaves a full buffer of zeros, not an empty one"),
    (ENSEMBLE, 'key = [key_word(seed, "seed"), key_word(stream, "stream")]',
     "key = [seed, stream]", "a fractional, bool or string seed or stream let through"),
    (ENSEMBLE, '    shots = shot_count(shots, "shots")\n', "",
     "sample_detunings' shots gate dropped: a bool, float, string or count below 1 let through"),
    (MODEL, "if not 0 <= n < 2**64:", "if not 0 <= n <= 2**64:",
     "key_word's bound widened to 2**64, one past the largest 64-bit word"),
    (MODEL, "    if n < 1:\n", "    if n < 0:\n", "shot_count loosened: zero shots let through"),
    (CLI, "            if _plain(text):\n", "            if True:\n",
     "'_' and non-ASCII digits accepted in argv numbers and ZENO_SEED"),
    (CLI, '"--seed", type=_int,', '"--seed", type=int,',
     "zeno reproduce --seed read by int(), which accepts '_' and non-ASCII digits"),
    (CLI, "_json_dumps(_resolved(fit.as_dict()))", "_json_dumps(fit.as_dict())",
     "zeno scaling printed to more digits than the fit resolves"),
    (CLI, 'if _converged(r)])', 'if r.get("converged")])',
     "zeno scaling takes a fit row whose converged is truthy but not true"),
)


def _pytest(tree: Path) -> bool:
    """True if pytest passes on TESTS in the tree."""
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                          "--hypothesis-seed=0", *TESTS],
                         cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return run.returncode == 0


def main() -> int:
    for file, old, _, reason in MUTANTS:
        count = (ROOT / file).read_text().count(old)
        assert count == 1, f"{file}: old text of {reason!r} occurs {count} times"
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        for part in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / part, tree)
        if not _pytest(tree):
            print("the unchanged tree fails its tests; no mutant was run")
            return 2
        survivors = 0
        for file, old, new, reason in MUTANTS:
            path = tree / file
            text = path.read_text()
            path.write_text(text.replace(old, new))
            start = time.perf_counter()
            killed = not _pytest(tree)
            path.write_text(text)
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED':8} {time.perf_counter() - start:5.1f} s"
                  f"  {file}: {reason}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
