import json
import math

from pinned_outputs import PINNED, collect, collect_simulated


def mismatches(got, want, close, path=""):
    """Paths where got differs from want: floats by close, everything else exactly."""
    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        return [m for k in want for m in mismatches(got[k], want[k], close, f"{path}/{k}")]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, close, f"{path}/{i}")]
    if type(want) is float and type(got) is float:
        return [] if close(got, want) else [f"{path}: {got!r}, pinned {want!r}"]
    return [] if type(got) is type(want) and got == want else [
        f"{path}: {got!r}, pinned {want!r}"]


def test_figures_match_pinned_outputs():
    # curves within 1e-12 absolute; summary numbers within 1e-8 relative, or
    # 1e-8 absolute for a fitted offset near 0, which a fit stopping at
    # REL_TOL = 1e-9 on T2eff resolves only to about that
    got, want = collect(), json.loads(PINNED.read_text())
    assert got.keys() == want.keys() and got["figures"].keys() == want["figures"].keys()
    for fig, pinned in want["figures"].items():
        curves, summary = got["figures"][fig]["curves"], got["figures"][fig]["summary"]
        bad = (mismatches(curves, pinned["curves"], lambda a, b: abs(a - b) <= 1e-12,
                          f"{fig} curves")
               + mismatches(summary, pinned["summary"],
                            lambda a, b: math.isclose(a, b, rel_tol=1e-8, abs_tol=1e-8),
                            f"{fig} summary"))
        assert not bad, "\n".join(bad[:20])


def test_simulate_matches_pinned_outputs():
    # a complex table with Q, D and theta_u nonzero: a sign or power slip in
    # any kernel term moves these means by far more than 1e-12
    got, want = collect_simulated(), json.loads(PINNED.read_text())["simulate"]
    bad = mismatches(got, want, lambda a, b: abs(a - b) <= 1e-12, "simulate")
    assert not bad, "\n".join(bad[:20])
