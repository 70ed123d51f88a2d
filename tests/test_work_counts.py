"""Exact work counts of the kernel, pinned as values.

Timings need many paired runs to resolve a few percent; counts need none.
A change that moves a value here states the new value in CHANGES.md, the
way pinned_outputs.json works.

- numpy ufunc calls of a one-row _kernel call, the call run_shot makes,
  by N, for a Q/D-free plan and for the pinned simulate plan (complex,
  with Q and D terms). They are tallied by an ndarray subclass passed as
  the row's detunings and segment; every array computed from them is one
  too, so every ufunc call on the row's values is counted.
- columns, dtype and Q/D presence of the kernel table of every figure plan,
  every plan shape of the benchmark's kernel_deep workload and the pinned
  simulate plan, so that a table cannot grow unseen.
"""

import numpy as np
import pytest

from pinned_outputs import SIMULATE
from zenosim import cli
from zenosim.ensemble import ExperimentPlan, NoiseModel, _kernel, _plan_table


class _Tally(np.ndarray):
    """An ndarray that counts every ufunc call one of its operands takes part in."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        _Tally.calls += 1
        args = [x.view(np.ndarray) if isinstance(x, _Tally) else x for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(x.view(np.ndarray) if isinstance(x, _Tally) else x
                                  for x in out)
        result = getattr(ufunc, method)(*args, **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return result.view(_Tally) if isinstance(result, np.ndarray) else result


def _row_calls(plan):
    """ufunc calls of one _kernel row of the plan."""
    deltas = np.array([[0.31, -0.22, 0.17]]).view(_Tally)
    seg = np.array([0.9]).view(_Tally)
    _Tally.calls = 0
    values = _kernel(plan, deltas, seg)
    calls = _Tally.calls
    assert values.shape == (len(plan.readout), 1) and np.isfinite(values).all()
    return calls


def _plan(initial_state, observable, readout, n, t2_star=(12.4, 8.2, 21.0)):
    return ExperimentPlan(noise=NoiseModel(t2_star), initial_state=initial_state,
                          observable=observable, readout=readout, n_projections=n,
                          tau_grid=(1.0,), shots=1, seed=0)


N_SET = (0, 1, 2, 3, 4, 5, 6, 64)


@pytest.mark.parametrize("n,calls", zip(N_SET, (6, 7, 11, 10, 9, 8, 9, 9)))
def test_row_calls_of_a_qd_free_plan(n, calls):
    # from N = 4 one power P c**(N+1), with copysign at even N; below, the
    # product form P c c |c|**(N-1)
    assert _row_calls(_plan("X,Y,0", "XYZ", ("XYZ",), n)) == calls


@pytest.mark.parametrize("n,calls", zip(N_SET, (14, 16, 20, 19, 20, 19, 20, 20)))
def test_row_calls_of_the_pinned_simulate_plan(n, calls):
    plan = _plan(SIMULATE["initial_state"], SIMULATE["observable"],
                 tuple(SIMULATE["readout"]), n, tuple(SIMULATE["t2_star"]))
    assert _row_calls(plan) == calls


# (initial state, observable, readouts): columns, complex, has Q, has D
FIGURE_TABLES = {
    "fig2c": {"X": 1},
    "fig3b": {"0L": 2, "1L": 2, "+L": 1, "-L": 1, "+iL": 2, "-iL": 2},
    "fig3c": {"+L": 2, "-L": 2, "+iL": 5, "-iL": 5},
    "fig4b": {"00L": 7, "X0L": 2, "PhiPlusL": 2},
}
OTHER_TABLES = [
    # kernel_deep: each word's +1 eigenstate, read on the word and, where
    # the word has Z or I letters, on Z over those spins
    (("X,Y,0,X", "XYZX", ("XYZX", "IIZI")), (5, False, False, False)),
    (("X,0,Y", "XIY", ("XIY", "IZI")), (3, False, False, False)),
    (("X,Y,0", "XYZ", ("XYZ",)), (2, False, False, False)),
    (("Y,0,X", "YIX", ("YIX",)), (2, False, False, False)),
    (("X,X,Y", "XXY", ("XXY",)), (4, False, False, False)),
    ((SIMULATE["initial_state"], SIMULATE["observable"], tuple(SIMULATE["readout"])),
     (18, True, True, True)),
]


def _shape(table):
    return (table.p.shape[1], table.p.dtype.kind == "c", table.q is not None,
            table.d is not None)


def test_figure_tables():
    assert FIGURE_TABLES.keys() == cli._CURVE_FIGURES.keys()
    for fig, (t2_star, groups, prefix, *_) in cli._CURVE_FIGURES.items():
        states = [state for group in groups for state in group]
        assert sorted(states) == sorted(FIGURE_TABLES[fig]), fig
        for state in states:
            table = _plan_table(state, "X" * len(t2_star), (prefix + state,))
            assert _shape(table) == (FIGURE_TABLES[fig][state], False, False, False), \
                (fig, state)


@pytest.mark.parametrize("plan,shape", OTHER_TABLES, ids=[p[1] for p, _ in OTHER_TABLES])
def test_other_tables(plan, shape):
    assert _shape(_plan_table(*plan)) == shape
