"""The six methods of README's table, transcribed literally, against `run`.

Each method is written out in plain loops that allocate freely: a batch
gradient is the mean of the batch's component gradients, and every update is
the formula in the table.  `run` must agree with it at 1e-12 on every epoch's
convergence iterate and value.  This checks what the methods compute; the
golden digests in `test_optimizers` check the bits.
"""

import numpy as np
import pytest

from shuffleopt.data import Dataset
from shuffleopt.objectives import LogisticObjective, SoftmaxObjective, make_quadratic
from shuffleopt.optimizers import OPTIMIZERS, TraceOptions, run
from shuffleopt.schedules import ScheduleKind, ScheduleSpec, epoch_step_size
from shuffleopt.shuffling import ShufflingScheme, generate_permutation, uniform_indices

T = 4
RTOL = 1e-12
BETA, BETA1, BETA2, EPS = 0.9, 0.9, 0.999, 1e-8

_X = np.array([[1.0, 0.0, -0.5], [0.3, 2.0, 0.0], [0.0, -1.0, 1.5], [-0.7, 0.4, 0.2],
               [1.2, 0.0, 0.0], [0.0, 0.6, -1.1], [0.5, -0.3, 0.9]])


def _objectives():
    return {
        "quadratic": make_quadratic(7, 3, 5)[0],
        "logistic": LogisticObjective(Dataset.from_dense(_X, [1, -1, 1, 1, -1, -1, 1])),
        "softmax": SoftmaxObjective(Dataset.from_dense(_X, [0, 2, 1, 0, 1, 2, 2], c=3)),
    }


OBJECTIVES = _objectives()


def _schedules(objective):
    return [ScheduleSpec(ScheduleKind.CONSTANT, T, lr=0.3),
            ScheduleSpec(ScheduleKind.UNIFIED, T, L=objective.smoothness_bound())]


def batch_gradient(objective, w, batch):
    return np.mean([objective.component_gradient(w, i) for i in batch], axis=0)


def literal(optimizer, objective, scheme, schedule, seed, batch_size, with_replacement):
    """Each epoch's convergence iterate x_1 .. x_T and its value."""
    n = objective.n
    x = np.zeros(objective.dim)
    y = x.copy()
    m = np.zeros(objective.dim)
    v = np.zeros(objective.dim)
    count = 0
    xs, values = [], []
    for t in range(1, T + 1):
        eta = epoch_step_size(schedule, t)
        gamma = (t - 1) / (t + 2)
        if with_replacement:
            order = uniform_indices(seed, t, n, n).tolist()
        else:
            order = generate_permutation(ShufflingScheme(scheme, seed), n, t).tolist()
        batches = [order[k:k + batch_size] for k in range(0, n, batch_size)]
        if optimizer == "nasg":
            w = y
            for batch in batches:
                w = w - eta / n * len(batch) * batch_gradient(objective, w, batch)
            x, y = w, w + gamma * (w - x)
        elif optimizer == "nasg-pi":
            x_inner, w = x, y
            for batch in batches:
                u = w - eta / n * len(batch) * batch_gradient(objective, w, batch)
                w = u + gamma * (u - x_inner)
                x_inner = u
            x, y = x_inner, w
        elif optimizer == "nag":
            w = y - eta * objective.full_gradient(y)
            x, y = w, w + gamma * (w - x)
        else:
            for batch in batches:
                g = batch_gradient(objective, x, batch)
                if optimizer == "sgd":
                    x = x - eta * g
                elif optimizer == "sgdm":
                    m = BETA * m + g
                    x = x - eta * m
                else:
                    count += 1
                    m = BETA1 * m + (1 - BETA1) * g
                    v = BETA2 * v + (1 - BETA2) * g * g
                    m_hat = m / (1 - BETA1 ** count)
                    v_hat = v / (1 - BETA2 ** count)
                    x = x - eta * m_hat / (np.sqrt(v_hat) + EPS)
            y = x
        xs.append(x)
        values.append(np.mean([objective.component_value(x, i) for i in range(n)]))
    return xs, values


def _compare(optimizer, objective, scheme, schedule, seed, batch_size, with_replacement=False):
    result = run(optimizer, objective, scheme, schedule, seed=seed, batch_size=batch_size,
                 options=TraceOptions(record_iterates=True), with_replacement=with_replacement)
    xs, values = literal(optimizer, objective, scheme, schedule, seed, batch_size,
                         with_replacement)
    worst = 0.0
    for got, want in zip(result.x_snapshots[1:], xs):
        worst = max(worst, np.linalg.norm(got - want) / max(np.linalg.norm(want), 1.0))
    for row, want in zip(result.trace, values):
        worst = max(worst, abs(row.value - want) / max(abs(want), 1.0))
    assert len(result.trace) == T
    return worst


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_run_matches_literal_methods(name, optimizer):
    objective = OBJECTIVES[name]
    worst = max(_compare(optimizer, objective, scheme, schedule, seed, batch_size)
                for scheme in ("rr", "ss", "ig") for schedule in _schedules(objective)
                for seed in (1, 2) for batch_size in (1, 2, 3))
    assert worst <= RTOL


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_sgd_with_replacement_matches_literal(name):
    objective = OBJECTIVES[name]
    worst = max(_compare("sgd", objective, "rr", schedule, seed, batch_size,
                         with_replacement=True)
                for schedule in _schedules(objective) for seed in (1, 2)
                for batch_size in (1, 2, 3))
    assert worst <= RTOL
