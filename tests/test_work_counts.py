"""Exact work counts of the kernel, pinned as values.

Timings need many paired runs to resolve a few percent; counts need none.
A change that moves a value here states the new value in CHANGES.md, the
way pinned_outputs.json works.

- numpy ufunc calls of a one-row _kernel call, the call run_shot makes,
  by N, for a Q/D-free plan and for the pinned simulate plan (complex,
  with Q and D terms). They are tallied by an ndarray subclass passed as
  the row's detunings and segment; every array computed from them is one
  too, so every ufunc call on the row's values is counted.
- columns, dtype and Q/D presence of the kernel table of each readout of
  every figure plan, every plan shape of the benchmark's kernel_deep
  workload and the pinned simulate plan, so that a table cannot grow
  unseen.
- _kernel calls, entries (rows x the sum of the readouts' columns) and
  chunks per curve figure at 40 shots, counted by wrapping _kernel around
  a zeno reproduce run, and their totals at the default shots, computed
  from the figure table and the kernel tables without the Monte Carlo.
  The chunks of a readout follow from _CHUNK_ENTRIES and its columns,
  which the ufunc count of a chunked call checks, also after the plan has
  run once.
"""

from unittest import mock

import numpy as np
import pytest

from pinned_outputs import SIMULATE
from zenosim import cli, ensemble
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


def _row_calls(plan, rows=1):
    """ufunc calls of one _kernel call on `rows` rows of the plan."""
    deltas = np.tile([0.31, -0.22, 0.17], (rows, 1)).view(_Tally)
    seg = np.full(rows, 0.9).view(_Tally)
    _Tally.calls = 0
    values = _kernel(plan, deltas, seg)
    calls = _Tally.calls
    assert values.shape == (len(plan.readout), rows) and np.isfinite(values).all()
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


@pytest.mark.parametrize("n,calls", zip(N_SET, (25, 28, 36, 34, 36, 34, 36, 36)))
def test_row_calls_of_the_pinned_simulate_plan(n, calls):
    # each readout sums its own phases: XYX with Q terms, F:Y,X,X with D
    plan = _plan(SIMULATE["initial_state"], SIMULATE["observable"],
                 tuple(SIMULATE["readout"]), n, tuple(SIMULATE["t2_star"]))
    assert _row_calls(plan) == calls


# columns of each figure state's table, read on its F: or L: readout; no
# figure table is complex or has Q or D terms
FIGURE_TABLES = {
    "fig2c": {"X": 1},
    "fig3b": {"0L": 2, "1L": 2, "+L": 1, "-L": 1, "+iL": 2, "-iL": 2},
    "fig3c": {"+L": 2, "-L": 2, "+iL": 5, "-iL": 5},
    "fig4b": {"00L": 7, "X0L": 2, "PhiPlusL": 2},
}
# (initial state, observable, readouts): per readout, its table's columns,
# whether it is complex, has Q and has D
OTHER_TABLES = [
    # kernel_deep: each word's +1 eigenstate, read on the word and, where
    # the word has Z or I letters, on Z over those spins
    (("X,Y,0,X", "XYZX", ("XYZX", "IIZI")), [(4, False, False, False), (1, False, False, False)]),
    (("X,0,Y", "XIY", ("XIY", "IZI")), [(2, False, False, False), (1, False, False, False)]),
    (("X,Y,0", "XYZ", ("XYZ",)), [(2, False, False, False)]),
    (("Y,0,X", "YIX", ("YIX",)), [(2, False, False, False)]),
    (("X,X,Y", "XXY", ("XXY",)), [(4, False, False, False)]),
    ((SIMULATE["initial_state"], SIMULATE["observable"], tuple(SIMULATE["readout"])),
     [(4, True, True, False), (18, True, False, True)]),
]


def _shape(table):
    return (len(table.p), table.p.dtype.kind == "c", table.q is not None,
            table.d is not None)


def test_figure_tables():
    assert FIGURE_TABLES.keys() == cli._CURVE_FIGURES.keys()
    for fig, (t2_star, groups, prefix, *_) in cli._CURVE_FIGURES.items():
        states = [state for group in groups for state in group]
        assert sorted(states) == sorted(FIGURE_TABLES[fig]), fig
        for state in states:
            table = _plan_table(state, "X" * len(t2_star), prefix + state)
            assert _shape(table) == (FIGURE_TABLES[fig][state], False, False, False), \
                (fig, state)


@pytest.mark.parametrize("plan,shapes", OTHER_TABLES, ids=[p[1] for p, _ in OTHER_TABLES])
def test_other_tables(plan, shapes):
    state, word, readouts = plan
    assert [_shape(_plan_table(state, word, r)) for r in readouts] == shapes


@pytest.mark.parametrize("rows_per_chunk", [5, 3, 2, 1])
def test_patched_chunk_size_takes_effect_on_a_warm_plan(rows_per_chunk):
    # the plan has run, so its table is cached; the rows per chunk still
    # follow _CHUNK_ENTRIES, and each chunk makes the one-row calls
    plan = _plan("X,Y,0", "XYZ", ("XYZ",), 6)
    per_chunk = _row_calls(plan)
    columns = len(_plan_table(plan.initial_state, plan.observable, "XYZ").p)
    with mock.patch.object(ensemble, "_CHUNK_ENTRIES", rows_per_chunk * columns):
        assert _row_calls(plan, rows=5) == -(-5 // rows_per_chunk) * per_chunk


def _work(state, observable, readouts, rows):
    """(calls, entries, chunks) of one _kernel call on `rows` rows of a plan."""
    work = np.array([1, 0, 0])
    for readout in readouts:
        columns = len(_plan_table(state, observable, readout).p)
        work += [0, rows * columns, -(-rows // (ensemble._CHUNK_ENTRIES // columns or 1))]
    return work


def _figure_work(fig, shots):
    """(calls, entries, chunks) of a curve figure, from its tables alone."""
    t2_star, groups, prefix, _, n_set, taus, _ = cli._CURVE_FIGURES[fig]
    return sum(_work(state, "X" * len(t2_star), (prefix + state,), len(taus) * shots)
               for group in groups for _ in n_set for state in group)


# (calls, entries, chunks) per curve figure; at 40 shots every call is one chunk
FIGURE_WORK_40 = {
    "fig2c": (5, 4800, 5),
    "fig3b": (30, 64000, 30),
    "fig3c": (16, 56000, 16),
    "fig4b": (9, 26400, 9),
}


@pytest.mark.parametrize("fig", FIGURE_WORK_40)
def test_kernel_work_per_figure_at_40_shots(fig, tmp_path):
    work = []

    def counted(plan, deltas, seg):
        work.append(_work(plan.initial_state, plan.observable, plan.readout, len(seg)))
        return _kernel(plan, deltas, seg)

    with mock.patch.object(ensemble, "_kernel", counted):
        cli._reproduce_curves(fig, tmp_path, 40, 7)
    assert tuple(sum(work)) == FIGURE_WORK_40[fig]
    assert tuple(_figure_work(fig, 40)) == FIGURE_WORK_40[fig]


def test_kernel_work_at_the_default_shots():
    shots = cli.build_parser().parse_args(["reproduce", "fig2c", "--out", "."]).shots
    assert shots == 2000
    work = {fig: tuple(_figure_work(fig, shots)) for fig in cli._CURVE_FIGURES}
    assert work == {
        "fig2c": (5, 240000, 30),
        "fig3b": (30, 3200000, 400),
        "fig3c": (16, 2800000, 352),
        "fig4b": (9, 1320000, 165),
    }
    assert tuple(map(sum, zip(*work.values()))) == (60, 7560000, 947)
