"""`run` on an objective's live twin, the objective over the parameters some
row can move: the twin against the full-width run, bitwise, and when `run`
takes the twin."""

from pathlib import Path

import numpy as np
import pytest

from shuffleopt.data import load_libsvm
from shuffleopt.objectives import LogisticObjective, SoftmaxObjective, make_quadratic
from shuffleopt.optimizers import DivergenceError, TraceOptions, run
from shuffleopt.schedules import ScheduleSpec
from wide_sets import WIDE_SETS, wide_dataset, wide_multiclass

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TWIN_SETS = ("wide_sparse", *WIDE_SETS)
# (optimizer, with_replacement)
METHODS = (("nasg", False), ("nasg-pi", False), ("nag", False), ("sgd", False),
           ("sgd", True), ("sgdm", False), ("adam", False))


def twin_objective(name):
    """The gate's data: every one leaves columns unstored."""
    if name == "wide_sparse":
        return LogisticObjective(load_libsvm(FIXTURES / "wide_sparse.libsvm", dim=5000))
    return LogisticObjective(wide_dataset(name, n=60))


def full_width(objective):
    """The same objective with its twin turned off."""
    full = type(objective)(objective.data)
    full.live_twin = None  # shadows the cached property
    return full


def starts(objective):
    """Zeros, a random point, and the random point with -0.0 on every dead
    parameter."""
    rng = np.random.default_rng(objective.dim)
    x = rng.standard_normal(objective.dim)
    signed = x.copy()
    dead = np.ones(objective.dim, dtype=bool)
    dead[objective.live_twin[1]] = False
    signed[dead] = -0.0
    return {"zeros": None, "random": x, "random-0": signed}


def outcome(objective, method, with_replacement, scheme, batch, lr, record_iterates, x0):
    """Every RunResult field as bytes, from the result or the divergence's
    partial, and the epoch of divergence."""
    options = TraceOptions(record_iterates=record_iterates, record_accuracy=True)
    try:
        result = run(method, objective, scheme, ScheduleSpec("constant", 2, lr=lr), seed=3,
                     batch_size=batch, x0=x0, options=options,
                     with_replacement=with_replacement)
        epoch = None
    except DivergenceError as err:
        result, epoch = err.partial, err.epoch
    rows = [(row.epoch, np.array([row.value, row.grad_sq_norm, row.step_size]).tobytes(),
             repr(row.accuracy), row.disp_start, row.disp_end) for row in result.trace]
    arrays = [None if field is None else [a.tobytes() for a in field]
              for field in (result.x_snapshots, result.y_snapshots, result.inner_iterates,
                            result.permutations)]
    return rows, result.final_x.tobytes(), arrays, epoch


@pytest.mark.parametrize("name", TWIN_SETS)
def test_twin_equals_full_width_bitwise(name):
    objective = twin_objective(name)
    full = full_width(objective)
    assert objective.live_twin is not None
    diverged = []
    for start, x0 in starts(objective).items():
        for method, with_replacement in METHODS:
            for scheme in ("rr", "ss", "ig"):
                # the two-row fixture has no batch of 3
                for batch in (1, min(3, objective.n)):
                    for lr in (0.5, 1e308):
                        for record_iterates in (False, True):
                            args = (method, with_replacement, scheme, batch, lr,
                                    record_iterates, x0)
                            got = outcome(objective, *args)
                            assert got == outcome(full, *args), (start, *args[:-1])
                            diverged.append(got[3])
    assert any(diverged)  # lr 1e308 overflows


def spied(objective, calls):
    """Records every call of the objective's own step and trace methods."""
    for attr in ("sweep", "row_step", "batch_mean_gradient", "full_gradient", "full_value"):
        method = getattr(objective, attr)

        def spy(*args, _attr=attr, _method=method):
            calls.append(_attr)
            return _method(*args)
        setattr(objective, attr, spy)
    return objective


def full_width_calls(objective, method, batch=1, x0=None, **options):
    calls = []
    run(method, spied(objective, calls), "rr", ScheduleSpec("constant", 2, lr=0.5), seed=1,
        batch_size=min(batch, objective.n), x0=x0, options=TraceOptions(**options))
    return calls


@pytest.mark.parametrize("name", TWIN_SETS)
def test_twin_is_taken_on_wide_sets(name):
    objective = twin_objective(name)
    compact, keep = objective.live_twin
    assert compact.dim == keep.size < objective.dim
    assert objective.live_twin[0] is compact  # built once
    for method, batch in (("nasg", 1), ("nasg-pi", 1), ("nag", 1), ("sgd", 3), ("sgdm", 3),
                          ("adam", 1)):
        assert full_width_calls(objective, method, batch, record_iterates=True) == []
    # a -0.0 on a live parameter does not matter
    x0 = np.zeros(objective.dim)
    x0[keep[0]] = -0.0
    assert full_width_calls(objective, "nasg", x0=x0) == []


@pytest.mark.parametrize("name", TWIN_SETS)
def test_full_width_where_the_twin_would_differ(name):
    objective = twin_objective(name)
    for options in ({"record_inner": True}, {"record_dispersion": True}):
        assert "sweep" not in full_width_calls(objective, "nasg", **options)
        assert "row_step" in full_width_calls(objective, "nasg", **options)
    x0 = np.zeros(objective.dim)
    dead = np.setdiff1d(np.arange(objective.dim), objective.live_twin[1])
    x0[dead[-1]] = -0.0
    assert "full_gradient" in full_width_calls(objective, "sgd", x0=x0)


def test_no_twin_without_dead_columns():
    objectives = [LogisticObjective(load_libsvm(FIXTURES / "blobs600.libsvm")),
                  SoftmaxObjective(load_libsvm(FIXTURES / "multiclass_3.libsvm")),
                  SoftmaxObjective(wide_multiclass()),
                  make_quadratic(6, 3, seed=1)[0]]
    for objective in objectives:
        assert objective.live_twin is None
        calls = full_width_calls(objective, "nasg", batch=2)
        assert "batch_mean_gradient" in calls and "full_gradient" in calls


@pytest.mark.parametrize("name", WIDE_SETS)
def test_wide_runs_build_no_row_views(name):
    # where runs form, the sweep and the batch gradient gather and the trace
    # takes products, so no row's views are built
    objective = twin_objective(name)
    assert objective.data.runs_form
    for method, batch in (("nasg", 1), ("adam", 16)):
        run(method, objective, "rr", ScheduleSpec("constant", 2, lr=0.5), seed=1,
            batch_size=batch, options=TraceOptions(record_accuracy=True))
    for data in (objective.data, objective.live_twin[0].data):
        assert "_row_views" not in data.__dict__
        for i in (0, data.n - 1):
            cols, vals = data.row(i)
            lo, hi = data.indptr[i], data.indptr[i + 1]
            assert np.array_equal(cols, data.indices[lo:hi])
            assert np.array_equal(vals, data.values[lo:hi])
            assert not cols.flags.writeable and not vals.flags.writeable
