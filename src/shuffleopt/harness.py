"""Experiment runner: declarative configs, learning-rate grid search,
multi-seed aggregation with confidence intervals, and deterministic artifacts.
An experiment is built (`build_objective`: every config check, then the
reference solve), its run table filled one phase at a time, then reported.

Artifacts (fixed schemas, see README):

* one CSV per run at ``runs/seed<seed>.csv`` (grid-search runs additionally
  under ``runs/lr<lr>/seed<seed>.csv``) with header
  ``epoch,value,grad_sq_norm,step_size,gap,accuracy,disp_start,disp_end``;
* one ``summary.json`` per experiment.

Every artifact is rendered in memory and written only after the summary is
built, into a dot-named sibling of the output directory that is then renamed
into place, so an experiment that fails leaves the output directory as it was.
An existing output directory is replaced only when it holds nothing but
``summary.json`` and ``runs/``.  Floats are written with shortest round-trip
repr and files end with a single newline, so re-running the same config
reproduces every artifact byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import os
import shutil
import sys
import tempfile
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data import load_libsvm
from .diagnostics import convergence_bound, fit_rate
from .objectives import (OBJECTIVES, LogisticObjective, ReferenceSolveError, make_quadratic,
                         ordered_sum, solve_reference, squared_norm, variance_at_point)
from .optimizers import OPTIMIZERS, DivergenceError, TraceOptions, run, start_point
from .schedules import ScheduleKind, ScheduleSpec
from .shuffling import SchemeKind

_CSV_HEADER = "epoch,value,grad_sq_norm,step_size,gap,accuracy,disp_start,disp_end"


class ConfigError(ValueError):
    pass


class HarnessError(RuntimeError):
    pass


_DEFAULT_DATASET = {"kind": "quadratic", "n": 50, "d": 10, "seed": 7, "spread": 1.0}

_INT, _REAL, _NULL = numbers.Integral, numbers.Real, type(None)
_TYPE_NAMES = {_INT: "an integer", _REAL: "a number", bool: "true or false",
               str: "a string", dict: "an object", _NULL: "null"}


@dataclass(frozen=True)
class _List:
    """A list whose entries follow `entry`; null too where `null` is set.
    `distinct` rejects a repeated entry: a repeated seed, grid rate, regime or
    horizon would copy a run, a grid row, a report or a fit point."""
    entry: object
    null: bool = True
    distinct: bool = False


# the keys each dataset and schedule kind takes beside "kind", and their rules
_DATASET_KEYS = {"quadratic": {"n": _REAL, "d": _REAL, "seed": _REAL, "spread": _REAL},
                 "libsvm": {"path": str, "objective": frozenset(OBJECTIVES), "mode": str,
                            "dim": (_INT, _NULL), "add_bias": bool, "scale": bool}}
_SCHEDULE_KEYS = {**{kind.value: {} for kind in ScheduleKind},
                  "constant": {"lr": _REAL}, "thm2": {"theta": _REAL, "sigma_sq": _REAL}}


def _check_keys(raw: dict, known, what: str):
    unknown = set(raw) - set(known)
    if unknown:
        raise ConfigError(f"unknown {what}: {sorted(unknown)}")


def _check(name: str, value, rule):
    """The value, checked against its rule: a type (or a tuple of types), a frozenset
    of accepted strings, a _List, or the keys each kind takes; a list becomes a tuple."""
    if isinstance(rule, frozenset):
        if not isinstance(value, str) or value not in rule:
            raise ConfigError(f"unknown {name} {value!r}")
    elif isinstance(rule, _List):
        if value is None and rule.null:
            return value
        if isinstance(value, (str, dict)) or not isinstance(value, Iterable):
            raise ConfigError(f"{name} must be a list, not {value!r}")
        value = tuple(_check(f"{name} entry", entry, rule.entry) for entry in value)
        if rule.distinct and len(set(value)) != len(value):
            raise ConfigError(f"{name} entries must be distinct, not {list(value)!r}")
    elif isinstance(rule, dict):
        kind = _check(f"{name} kind", _check(name, value, dict).get("kind"), frozenset(rule))
        _check_keys(value, {"kind", *rule[kind]}, f"keys for a {kind} {name}")
        for key, entry in value.items():
            if key != "kind":
                _check(f"{name}.{key}", entry, rule[kind][key])
    else:
        types = rule if isinstance(rule, tuple) else (rule,)
        # bool is an int subtype, so true/false only pass where booleans belong
        if isinstance(value, bool) != (bool in types) or not isinstance(value, types):
            names = " or ".join(_TYPE_NAMES[t] for t in types)
            raise ConfigError(f"{name} must be {names}, not {value!r}")
        # a real is finite: an exact comparison that NaN, the infinities and an
        # integer beyond the float range fail; integer-typed values stay exact
        if _REAL in types and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{name} must be finite")
    return value


@dataclass
class ExperimentConfig:
    dataset: dict = field(default_factory=lambda: dict(_DEFAULT_DATASET),
                          metadata={"rule": _DATASET_KEYS})
    optimizer: str = field(default="nasg", metadata={"rule": frozenset(OPTIMIZERS)})
    scheme: str = field(default="rr",
                        metadata={"rule": frozenset(kind.value for kind in SchemeKind)})
    schedule: dict = field(default_factory=lambda: {"kind": "thm1"},
                           metadata={"rule": _SCHEDULE_KEYS})
    epochs: int = field(default=16, metadata={"rule": _INT})
    batch_size: int = field(default=1, metadata={"rule": _INT})
    seeds: tuple = field(default=(1, 2, 3),
                         metadata={"rule": _List(_INT, null=False, distinct=True)})
    grid: tuple | None = field(default=None, metadata={"rule": _List(_REAL, distinct=True)})
    label: str | None = field(default=None, metadata={"rule": (str, _NULL)})
    x0: tuple | None = field(default=None, metadata={"rule": _List(_REAL)})
    record_accuracy: bool = field(default=False, metadata={"rule": bool})
    record_dispersion: bool = field(default=False, metadata={"rule": bool})
    reference: str = field(default="auto", metadata={
        "rule": frozenset({"auto", "closed-form", "solve", "none"})})
    bounds: tuple = field(default=(), metadata={"rule": _List(str, distinct=True)})
    rate_epochs: tuple | None = field(default=None, metadata={"rule": _List(_INT, distinct=True)})
    sgdm_beta: float = field(default=0.9, metadata={"rule": _REAL})
    adam_beta1: float = field(default=0.9, metadata={"rule": _REAL})
    adam_beta2: float = field(default=0.999, metadata={"rule": _REAL})
    adam_eps: float = field(default=1e-8, metadata={"rule": _REAL})
    with_replacement: bool = field(default=False, metadata={"rule": bool})
    out: str | None = field(default=None, metadata={"rule": (str, _NULL)})

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, _check(f.name, getattr(self, f.name), f.metadata["rule"]))
        # what the table cannot state: ranges, and rules that relate two values
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if self.schedule.get("sigma_sq", 0) < 0:
            raise ConfigError("schedule.sigma_sq must be >= 0")
        constant = self.schedule["kind"] == "constant"
        if self.grid is not None:
            self.grid = tuple(float(v) for v in self.grid)
            if not self.grid or any(v <= 0 for v in self.grid):
                raise ConfigError("grid must be nonempty with positive entries")
            if not constant:
                raise ConfigError("a grid implies a constant schedule")
        elif constant and "lr" not in self.schedule:
            raise ConfigError("constant schedule needs lr (or a grid)")
        if self.rate_epochs and len(self.rate_epochs) < 3:
            raise ConfigError("rate_epochs needs at least 3 distinct horizons")
        if self.dataset["kind"] == "quadratic":
            for key in ("n", "d", "seed"):
                value = self.dataset.get(key, 0)
                if not float(value).is_integer():  # 20.0 stays accepted
                    raise ConfigError(f"dataset.{key} must be an integer, not {value!r}")
        elif "path" not in self.dataset:
            raise ConfigError("libsvm dataset needs a path")
        elif self.reference == "closed-form":
            raise ConfigError("closed-form reference only exists for quadratic datasets")
        if self.label is None:
            self.label = f"{self.optimizer}-{self.scheme}-{self.schedule['kind']}"

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("a config must be a JSON object")
        _check_keys(raw, [f.name for f in fields(cls)], "config keys")
        implied = {"schedule": {"kind": "constant"}} if raw.get("grid") is not None else {}
        return cls(**{**implied, **raw})

    def to_dict(self) -> dict:
        # the echo stored in artifacts; the output path is not part of it so
        # identical experiments produce identical bytes wherever they land
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in asdict(self).items() if key != "out"}


@dataclass
class RunSummary:
    label: str
    config: dict
    per_seed: list
    value_mean: list
    value_ci_low: list
    value_ci_high: list
    gap_mean: list | None = None
    gap_ci_low: list | None = None
    gap_ci_high: list | None = None
    accuracy_mean: list | None = None
    accuracy_ci_low: list | None = None
    accuracy_ci_high: list | None = None
    grid: list | None = None
    selected_lr: float | None = None
    bounds: list = field(default_factory=list)
    rate: dict | None = None
    reference: dict | None = None
    degraded: bool = False

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunSummary":
        return cls(**raw)


class Build(NamedTuple):
    """What every run of an experiment shares, from `build_objective`."""
    objective: object
    reference: tuple | None          # (x_star, f_star) when a reference is available
    schedules: dict                  # (lr, T) -> ScheduleSpec, for every rate and horizon
    run_args: dict                   # the keyword arguments of every run at T = epochs
    x0: np.ndarray                   # the start point


def build_objective(config: ExperimentConfig) -> Build:
    """Load the objective, build every (lr, T) schedule and the shared run
    arguments, check the start point and the reference rules, then solve.
    Every lower layer checks the config against its own rules here, and a
    rejection (or a dataset that cannot be read) becomes a ConfigError; the
    reference solve, the one costly step, comes after every check."""
    ds = config.dataset
    try:
        if ds["kind"] == "quadratic":
            ds = {**_DEFAULT_DATASET, **ds}
            objective = make_quadratic(int(ds["n"]), int(ds["d"]), int(ds["seed"]),
                                       float(ds["spread"]))[0]
        else:
            # the loader's own signature states the defaults
            options = {key: ds[key] for key in ("mode", "dim", "add_bias", "scale") if key in ds}
            dataset = load_libsvm(ds["path"], **options)
            # a libsvm dataset without an objective is logistic
            objective = OBJECTIVES.get(ds.get("objective"), LogisticObjective)(dataset)
        rates = config.grid if config.grid is not None else (config.schedule.get("lr"),)
        schedules = {(lr, T): _make_schedule(config, objective, lr, T) for lr in rates
                     for T in (config.epochs, *(config.rate_epochs or ()))}
        run_args = dict(batch_size=config.batch_size, x0=config.x0,
                        options=TraceOptions(record_accuracy=config.record_accuracy,
                                             record_dispersion=config.record_dispersion),
                        with_replacement=config.with_replacement, sgdm_beta=config.sgdm_beta,
                        adam_beta1=config.adam_beta1, adam_beta2=config.adam_beta2,
                        adam_eps=config.adam_eps)
        x0 = start_point(config.optimizer, objective, **run_args)
        # "auto" means the closed form, which only quadratics have
        has_reference = config.reference != "none" and (config.reference != "auto"
                                                        or ds["kind"] == "quadratic")
        if not has_reference and config.bounds:
            raise ConfigError("bound reports need a reference (minimizer oracle)")
        if not has_reference and config.rate_epochs:
            raise ConfigError("rate fitting needs a reference (minimizer oracle)")
        for regime in config.bounds:  # the regime's own rules, with the reference's terms at 0
            _bound(config, objective, regime, 0.0, 0.0)
        reference = solve_reference(objective) if has_reference else None
    except (OSError, ValueError) as err:
        raise ConfigError(str(err)) from err
    except ReferenceSolveError as err:
        raise HarnessError(f"{err}: gradient norm {err.grad_norm!r} after "
                           f"{err.iterations} iterations") from err
    return Build(objective, reference, schedules, run_args, x0)


def _make_schedule(config: ExperimentConfig, objective, lr, T) -> ScheduleSpec:
    kind = ScheduleKind(config.schedule["kind"])
    if kind is ScheduleKind.CONSTANT:
        return ScheduleSpec(kind, T, lr=float(lr))
    # every guarantee-backed kind gets the same constants and reads what it needs
    return ScheduleSpec(kind, T, L=objective.smoothness_bound(),
                        theta=float(config.schedule.get("theta", 0.0)), n=objective.n)


def _finite(row) -> bool:
    return all(x is None or math.isfinite(x)
               for x in (row.value, row.grad_sq_norm, row.disp_start, row.disp_end))


def _fill(table: dict, keys, config: ExperimentConfig, build: Build):
    """Run one phase: each key = (lr, T) of `keys` that the table lacks gets, per
    seed, the result and the epoch of divergence (None if the run completed).

    A run records only what an artifact reads: at T = epochs (the grid and
    the primary runs, whose traces are written) it takes the config's trace
    options; a rate horizon T != epochs, of which the rate fit reads only the
    final value, takes bare ones, so it records neither accuracy nor the
    dispersion (and so may take `objective.sweep` and the live twin).

    A seed diverges at its first non-finite iterate or at its first trace row
    holding a non-finite number (values can overflow while the iterate stays
    finite), whichever epoch comes first; its trace keeps the rows before it.
    So a horizon run's verdict rests on its iterate, value and squared
    gradient norm alone, the numbers the rate fit is built from; a grid or
    primary run's also on its dispersion when recorded.
    """
    bare = {**build.run_args, "options": TraceOptions()}
    for key in keys:
        if key in table:
            continue
        table[key] = []
        args = build.run_args if key[1] == config.epochs else bare
        for seed in config.seeds:
            try:
                result, bad = run(config.optimizer, build.objective, config.scheme,
                                  build.schedules[key], seed=seed, **args), None
            except DivergenceError as err:
                result, bad = err.partial, err.epoch
            k = next((k for k, row in enumerate(result.trace) if not _finite(row)), None)
            if k is not None:
                result, bad = replace(result, trace=result.trace[:k]), result.trace[k].epoch
            table[key].append((result, bad))


def _bound(config: ExperimentConfig, objective, regime: str, sigma_star_sq, delta) -> float:
    """The regime's guarantee at T = epochs."""
    return convergence_bound(regime, config.epochs, L=objective.smoothness_bound(),
                             sigma_star_sq=sigma_star_sq, delta=delta, n=objective.n,
                             theta=float(config.schedule.get("theta", 0.0)),
                             sigma_sq=float(config.schedule.get("sigma_sq", sigma_star_sq)))


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


def _csv(header: str, rows) -> str:
    """CSV text, one line per row; a field holding a comma, quote or line
    break is quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header.split(","))
    writer.writerows(rows)
    return buf.getvalue()


def _trace_csv(trace, f_star) -> str:
    return _csv(_CSV_HEADER, ([
        str(row.epoch), _fmt(row.value), _fmt(row.grad_sq_norm), _fmt(row.step_size),
        _fmt(None if f_star is None else row.value - f_star), _fmt(row.accuracy),
        _fmt(row.disp_start), _fmt(row.disp_end)] for row in trace))


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _check_out(out: Path):
    """Reject an output path that the experiment could not replace whole: the
    working directory or one that holds it, a path that is not a directory,
    and a directory holding anything but an experiment's outputs."""
    if Path.cwd().resolve().is_relative_to(out.resolve()):
        raise ConfigError(f"output directory {str(out)!r} holds the working directory")
    if out.exists():
        if not out.is_dir():
            raise ConfigError(f"output path {str(out)!r} is not a directory")
        foreign = sorted(set(os.listdir(out)) - {"summary.json", "runs"})
        if foreign:
            raise ConfigError(f"output directory {str(out)!r} holds more than summary.json "
                              f"and runs/: {foreign}")


def _write_tree(out: Path, artifacts: dict):
    """Write the artifacts into a dot-named sibling of `out`, then rename the
    new tree into place.  An existing `out` is first moved into the sibling,
    which is deleted last, so `out` holds either its old output or the new."""
    out.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
    new, old = staging / "new", staging / "old"
    try:
        for path, text in artifacts.items():
            _write_text(new / path, text)
        if out.exists():
            os.replace(out, old)
        try:
            os.replace(new, out)
        except OSError:
            if old.exists():
                os.replace(old, out)
            raise
    finally:
        shutil.rmtree(staging)


def _mean_ci(series: list[list[float]]):
    """Mean and 95% band per epoch, in one pass.  Each column is divided by
    2**(e-1), where e is the frexp exponent of its largest magnitude, so its
    sum and squares stay in range; scaling by a power of two is exact, and the
    mean and half-width are scaled back.  A band whose bounds leave the float
    range stays infinite and fails the summary."""
    arr = np.array(series, dtype=np.float64)
    e = np.frexp(np.abs(arr).max(axis=0))[1] - 1
    scaled = np.ldexp(arr, -e)
    mean = scaled.mean(axis=0)
    half = np.zeros(arr.shape[1]) if arr.shape[0] < 2 else \
        1.96 * scaled.std(axis=0, ddof=1) / math.sqrt(arr.shape[0])
    with np.errstate(over="ignore"):
        mean, half = np.ldexp(mean, e), np.ldexp(half, e)
        return mean.tolist(), (mean - half).tolist(), (mean + half).tolist()


def run_experiment(config: ExperimentConfig, out_dir=None) -> RunSummary:
    """Build, fill the run table one phase at a time, then report from the
    table and write the experiment's artifacts.

    The table is keyed by (lr, T); the phases are the grid at T = epochs, then
    the selected or configured rate at epochs and at every rate horizon.  The
    runs at T = epochs record what the config asks for; the other horizons
    record no dispersion or accuracy, which no artifact holds for them, so
    their divergence verdict leaves the dispersion out (`_fill`).  Grid
    search (constant schedule only) selects the lowest seed-mean final
    training loss among entries where no seed diverged, ties toward the
    smaller rate.  A diverged primary seed marks the summary degraded instead
    of aborting; a diverged rate-sweep run fails the experiment; an
    exception before the summary leaves nothing written.
    An output directory holding more than an experiment's outputs is
    rejected before the build.
    """
    out = Path(out_dir if out_dir is not None else (config.out or "results"))
    _check_out(out)
    build = build_objective(config)
    objective, epochs, seeds = build.objective, config.epochs, config.seeds
    f_star = reference_info = None
    if build.reference is not None:
        x_star, f_star = build.reference
        with np.errstate(over="ignore"):
            delta = squared_norm(build.x0 - x_star)
        if not math.isfinite(delta):
            raise ConfigError("||x0 - x_star||^2 overflows; choose a smaller x0")
        sigma_star_sq = variance_at_point(objective, x_star)
        reference_info = {"f_star": f_star, "sigma_star_sq": sigma_star_sq, "delta": delta}

    table = {}
    grid_rows = selected_lr = None
    lr = config.schedule.get("lr")  # the configured rate, unless a grid selects one
    if config.grid is not None:
        _fill(table, [(grid_lr, epochs) for grid_lr in config.grid], config, build)
        grid_rows = []
        for grid_lr in config.grid:
            runs = table[grid_lr, epochs]
            finals = [result.final_value for result, bad in runs if bad is None]
            mean = ordered_sum(finals) / len(finals) if finals else None
            grid_rows.append({"lr": grid_lr, "diverged": any(bad is not None for _, bad in runs),
                              "mean_final_value": mean})
        eligible = [g for g in grid_rows if not g["diverged"]]
        if not eligible:
            raise HarnessError("every grid entry diverged")
        lr = selected_lr = min(eligible, key=lambda g: (g["mean_final_value"], g["lr"]))["lr"]
    _fill(table, [(lr, T) for T in (epochs, *(config.rate_epochs or ()))], config, build)

    artifacts = {}  # relative path -> text
    for grid_lr in config.grid or ():
        for (result, _), seed in zip(table[grid_lr, epochs], seeds):
            if result.trace:
                artifacts[f"runs/lr{grid_lr!r}/seed{seed}.csv"] = _trace_csv(result.trace, f_star)
    per_seed = []
    completed = [result.trace for result, bad in table[lr, epochs] if bad is None]
    for (result, bad_epoch), seed in zip(table[lr, epochs], seeds):
        trace = result.trace
        entry = {
            "seed": seed,
            "diverged": bad_epoch is not None,
            "epochs_completed": len(trace),
            "final_value": trace[-1].value if trace else None,
            "final_gap": (trace[-1].value - f_star) if trace and f_star is not None else None,
            "csv": f"runs/seed{seed}.csv",
        }
        if bad_epoch is not None:
            entry["diverged_at_epoch"] = bad_epoch
        per_seed.append(entry)
        if trace:
            artifacts[f"runs/seed{seed}.csv"] = _trace_csv(trace, f_star)

    degraded = any(e["diverged"] for e in per_seed)
    if completed:
        value_mean, value_lo, value_hi = _mean_ci([[r.value for r in t] for t in completed])
    else:
        value_mean = value_lo = value_hi = []

    gap_mean = gap_lo = gap_hi = None
    if f_star is not None and completed:
        gap_mean = [v - f_star for v in value_mean]
        gap_lo = [v - f_star for v in value_lo]
        gap_hi = [v - f_star for v in value_hi]

    acc_mean = acc_lo = acc_hi = None
    if config.record_accuracy and completed and completed[0][0].accuracy is not None:
        acc_mean, acc_lo, acc_hi = _mean_ci([[r.accuracy for r in t] for t in completed])

    bound_reports = [_bound_report(
        regime, _bound(config, objective, regime, sigma_star_sq, delta), epochs,
        {"L": objective.smoothness_bound(), "n": objective.n, **reference_info}, per_seed)
        for regime in config.bounds]
    rate = None
    if config.rate_epochs:
        for T in config.rate_epochs:  # the first diverged (T, seed) in config order
            for (_, bad), seed in zip(table[lr, T], seeds):
                if bad is not None:
                    raise HarnessError(f"rate sweep diverged at T={T}, seed={seed}")
        gaps = [ordered_sum(result.final_value - f_star for result, _ in table[lr, T])
                / len(seeds) for T in config.rate_epochs]
        try:
            fit = fit_rate(zip(config.rate_epochs, gaps))
        except ValueError as err:
            raise HarnessError(f"rate fit failed: {err}") from err
        rate = {"epochs": list(config.rate_epochs), "mean_gaps": gaps,
                "slope": fit.slope, "intercept": fit.intercept}

    summary = RunSummary(label=config.label, config=config.to_dict(), per_seed=per_seed,
                         value_mean=value_mean, value_ci_low=value_lo, value_ci_high=value_hi,
                         gap_mean=gap_mean, gap_ci_low=gap_lo, gap_ci_high=gap_hi,
                         accuracy_mean=acc_mean, accuracy_ci_low=acc_lo, accuracy_ci_high=acc_hi,
                         grid=grid_rows, selected_lr=selected_lr, bounds=bound_reports, rate=rate,
                         reference=reference_info, degraded=degraded)
    try:
        artifacts["summary.json"] = json.dumps(summary.to_dict(), indent=2, sort_keys=True,
                                               allow_nan=False) + "\n"
    except ValueError as err:  # a non-finite number left in the summary
        raise HarnessError(f"summary is not valid JSON: {err}") from err
    _write_tree(out, artifacts)
    return summary


def _bound_report(regime: str, bound: float, T: int, constants: dict, per_seed) -> dict:
    """Each completed seed's final gap, then their mean, against the bound.

    A diverged seed has no row; its gap is unbounded, so it leaves the report
    unsatisfied.
    """
    gaps = [(e["seed"], e["final_gap"]) for e in per_seed if not e["diverged"]]
    if gaps:
        gaps.append((None, ordered_sum(gap for _, gap in gaps) / len(gaps)))
    rows = [{"T": T, "seed": seed, "gap": gap, "bound": bound, "satisfied": bool(gap <= bound)}
            for seed, gap in gaps]
    satisfied = all(row["satisfied"] for row in rows) and not any(e["diverged"] for e in per_seed)
    return {"regime": regime, "constants": dict(constants), "rows": rows, "satisfied": satisfied}


def emit_plot_data(summaries, path, metric: str = "value"):
    """Long-format CSV for external plotting.

    Columns: method,epoch,mean,ci_low,ci_high,metric -- one row per method and
    epoch for the requested metric (value, gap, or accuracy).
    """
    if metric not in ("value", "gap", "accuracy"):
        raise ValueError(f"unknown metric {metric!r}")
    rows = []
    for summary in summaries:
        series = {
            "value": (summary.value_mean, summary.value_ci_low, summary.value_ci_high),
            "gap": (summary.gap_mean, summary.gap_ci_low, summary.gap_ci_high),
            "accuracy": (summary.accuracy_mean, summary.accuracy_ci_low,
                         summary.accuracy_ci_high),
        }[metric]
        mean, lo, hi = series
        if mean is None:
            raise ValueError(f"summary {summary.label!r} has no {metric} series")
        for epoch, (m, l, h) in enumerate(zip(mean, lo, hi), start=1):
            rows.append([summary.label, epoch, _fmt(m), _fmt(l), _fmt(h), metric])
    _write_text(Path(path), _csv("method,epoch,mean,ci_low,ci_high,metric", rows))
