"""Isolated per-layer microbenchmarks on generated inputs.

Every timing warms its code once, then reports the median of a few repeats.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from shuffleopt import data, objectives, optimizers, schedules, shuffling

from workloads import sparse_logistic_libsvm

METHODS = ("nasg", "nasg-pi", "sgd", "sgdm", "adam")
BATCHES = (1, 32)
DIMS = (10, 1000, 50000)
PERMUTATION_SIZES = (600, 10000, 100000)
# constant rates small enough that no method diverges in the timed epochs;
# the nasg family applies eta/n per component
RATES = {"nasg": 1.0, "nasg-pi": 1.0, "nag": 0.1, "sgd": 0.01, "sgdm": 0.01, "adam": 0.001}
_REPEATS = 3


def _median_seconds(fn, repeats: int = _REPEATS) -> float:
    fn()
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _logistic(n: int, d: int, seed: int) -> objectives.LogisticObjective:
    return objectives.LogisticObjective(
        data.parse_libsvm(sparse_logistic_libsvm(seed, n, d, 8), dim=d))


def _run_seconds(method, objective, epochs, batch):
    spec = schedules.ScheduleSpec("constant", epochs, lr=RATES[method])
    return _median_seconds(lambda: optimizers.run(
        method, objective, "rr", spec, seed=1, batch_size=batch))


def optimizer_costs(smoke: bool) -> dict[str, float]:
    """Microseconds per component step of optimizers.run (wall time / T*n),
    and per epoch for the full-gradient nag."""
    n, epochs, nag_epochs = (64, 1, 5) if smoke else (1000, 2, 50)
    out = {}
    for d in DIMS:
        objective = _logistic(n, d, seed=d)
        for method in METHODS:
            for batch in BATCHES:
                seconds = _run_seconds(method, objective, epochs, batch)
                out[f"optimizers.us_per_sample.{method}.b{batch}.d{d}"] = \
                    1e6 * seconds / (epochs * n)
        out[f"optimizers.us_per_epoch.nag.d{d}"] = \
            1e6 * _run_seconds("nag", objective, nag_epochs, 1) / nag_epochs
    return out


def permutation_costs(smoke: bool) -> dict[str, float]:
    scheme = shuffling.ShufflingScheme("rr", 1)
    out = {}
    for n in PERMUTATION_SIZES:
        size = n // 100 if smoke else n
        out[f"shuffling.permutation_ms.n{n}"] = 1e3 * _median_seconds(
            lambda: shuffling.generate_permutation(scheme, size, 3))
    return out


def trace_eval_costs(smoke: bool) -> dict[str, float]:
    """Microseconds per full_value + full_gradient pair, the per-epoch trace
    evaluation of optimizers.run."""
    n, calls = (64, 5) if smoke else (2000, 50)
    cases = {f"logistic.d{d}": _logistic(n, d, seed=d) for d in DIMS}
    cases["quadratic"] = objectives.make_quadratic(500, 50, 1)[0]
    out = {}
    for name, objective in cases.items():
        w = 0.01 * np.ones(objective.dim)

        def evaluate():
            for _ in range(calls):
                objective.full_value(w)
                objective.full_gradient(w)

        out[f"objectives.trace_eval_us.{name}"] = 1e6 * _median_seconds(evaluate) / calls
    return out


def reference_solve_seconds(root: Path) -> dict[str, float]:
    objective = objectives.LogisticObjective(
        data.load_libsvm(root / "fixtures" / "blobs600.libsvm"))
    return {"objectives.reference_solve_s.blobs600":
            _median_seconds(lambda: objectives.solve_reference(objective))}


def parse_rate(work: Path, smoke: bool) -> dict[str, float]:
    """MB/s of data.load_libsvm on a generated sparse-wide file."""
    n, d = (200, 5000) if smoke else (2000, 50000)
    path = work / "parse.libsvm"
    path.write_text(sparse_logistic_libsvm(0, n, d, 8), encoding="utf-8")
    seconds = _median_seconds(lambda: data.load_libsvm(path, dim=d), repeats=5)
    return {"data.parse_mb_per_s": path.stat().st_size / 1e6 / seconds}


def all_costs(root: Path, work: Path, smoke: bool) -> dict[str, float]:
    return {**optimizer_costs(smoke), **permutation_costs(smoke),
            **trace_eval_costs(smoke), **reference_solve_seconds(root),
            **parse_rate(work, smoke)}
