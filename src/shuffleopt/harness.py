"""Experiment runner: declarative configs, learning-rate grid search,
multi-seed aggregation with confidence intervals, and deterministic artifacts.

Artifacts (fixed schemas, see README):

* one CSV per run at ``runs/seed<seed>.csv`` (grid-search runs additionally
  under ``runs/lr<lr>/seed<seed>.csv``) with header
  ``epoch,value,grad_sq_norm,step_size,gap,accuracy,disp_start,disp_end``;
* one ``summary.json`` per experiment.

Every artifact is rendered in memory and written only after the summary is
built, so an experiment that fails leaves no output directory.  Floats are
written with shortest round-trip repr and files end with a single newline, so
re-running the same config reproduces every artifact byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import load_libsvm
from .diagnostics import convergence_bound, fit_rate
from .objectives import (LogisticObjective, ReferenceSolveError, SoftmaxObjective,
                         make_quadratic, solve_reference, variance_at_point)
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
_FIELD_TYPES = {"dataset": dict, "optimizer": str, "scheme": str, "schedule": dict,
                "epochs": _INT, "batch_size": _INT, "label": (str, _NULL),
                "record_accuracy": bool, "record_dispersion": bool, "reference": str,
                "sgdm_beta": _REAL, "adam_beta1": _REAL, "adam_beta2": _REAL,
                "adam_eps": _REAL, "with_replacement": bool, "out": (str, _NULL)}
# list fields and the type of their entries
_LIST_TYPES = {"seeds": _INT, "grid": _REAL, "x0": _REAL, "bounds": str, "rate_epochs": _INT}
# the keys each dataset and schedule kind takes beside "kind"
_DATASET_KEYS = {
    "quadratic": {"n": _REAL, "d": _REAL, "seed": _REAL, "spread": _REAL},
    "libsvm": {"path": str, "objective": str, "mode": str, "dim": (_INT, _NULL),
               "add_bias": bool, "scale": bool},
}
_SCHEDULE_KEYS = {"constant": {"lr": _REAL}, "thm2": {"theta": _REAL, "sigma_sq": _REAL}}


def _check_type(name: str, value, allowed):
    allowed = allowed if isinstance(allowed, tuple) else (allowed,)
    # bool is an int subtype, so true/false only pass where booleans belong
    if isinstance(value, bool) != (bool in allowed) or not isinstance(value, allowed):
        names = " or ".join(_TYPE_NAMES[t] for t in allowed)
        raise ConfigError(f"{name} must be {names}, not {value!r}")
    # JSON's NaN and Infinity; integers are exact, however large
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, not {value!r}")


def _check_entries(name: str, raw: dict, types: dict):
    unknown = set(raw) - {"kind"} - set(types)
    if unknown:
        raise ConfigError(f"unknown keys for a {raw['kind']} {name}: {sorted(unknown)}")
    for key, value in raw.items():
        if key != "kind":
            _check_type(f"{name}.{key}", value, types[key])


@dataclass
class ExperimentConfig:
    dataset: dict = field(default_factory=lambda: dict(_DEFAULT_DATASET))
    optimizer: str = "nasg"
    scheme: str = "rr"
    schedule: dict = field(default_factory=lambda: {"kind": "thm1"})
    epochs: int = 16
    batch_size: int = 1
    seeds: tuple = (1, 2, 3)
    grid: tuple | None = None
    label: str | None = None
    x0: tuple | None = None
    record_accuracy: bool = False
    record_dispersion: bool = False
    reference: str = "auto"          # auto | closed-form | solve | none
    bounds: tuple = ()               # guarantee regimes to report at T
    rate_epochs: tuple | None = None
    sgdm_beta: float = 0.9
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    with_replacement: bool = False
    out: str | None = None

    def __post_init__(self):
        for key, allowed in _FIELD_TYPES.items():
            _check_type(key, getattr(self, key), allowed)
        for key, allowed in _LIST_TYPES.items():
            value = getattr(self, key)
            if value is None and key != "seeds":
                continue
            if isinstance(value, (str, dict)) or not isinstance(value, Iterable):
                raise ConfigError(f"{key} must be a list, not {value!r}")
            entries = tuple(value)
            setattr(self, key, entries)
            for entry in entries:
                _check_type(f"{key} entry", entry, allowed)
            # a repeated seed, rate or regime would copy a run, a grid row or a report
            if key in ("seeds", "grid", "bounds") and len(set(entries)) != len(entries):
                raise ConfigError(f"{key} entries must be distinct, not {list(entries)!r}")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        try:
            SchemeKind(self.scheme)
        except ValueError:
            raise ConfigError(f"unknown scheme {self.scheme!r}") from None
        kind = self.schedule.get("kind")
        try:
            kind = ScheduleKind(kind)
        except ValueError:
            raise ConfigError(f"unknown schedule kind {kind!r}") from None
        _check_entries("schedule", self.schedule, _SCHEDULE_KEYS.get(kind.value, {}))
        if self.schedule.get("sigma_sq", 0) < 0:
            raise ConfigError("schedule.sigma_sq must be >= 0")
        if self.grid is not None:
            self.grid = tuple(float(v) for v in self.grid)
            if not self.grid or any(v <= 0 for v in self.grid):
                raise ConfigError("grid must be nonempty with positive entries")
            if kind is not ScheduleKind.CONSTANT:
                raise ConfigError("a grid implies a constant schedule")
        if kind is ScheduleKind.CONSTANT and self.grid is None \
                and self.schedule.get("lr") is None:
            raise ConfigError("constant schedule needs lr (or a grid)")
        if self.reference not in ("auto", "closed-form", "solve", "none"):
            raise ConfigError(f"unknown reference mode {self.reference!r}")
        if self.rate_epochs and (len(set(self.rate_epochs)) != len(self.rate_epochs)
                                 or len(self.rate_epochs) < 3):
            raise ConfigError("rate_epochs needs at least 3 distinct horizons")
        ds_kind = self.dataset.get("kind")
        if ds_kind not in ("quadratic", "libsvm"):
            raise ConfigError(f"unknown dataset kind {ds_kind!r}")
        _check_entries("dataset", self.dataset, _DATASET_KEYS[ds_kind])
        if ds_kind == "quadratic":
            for key in ("n", "d", "seed"):
                value = self.dataset.get(key, 0)
                # integral floats such as 20.0 stay accepted
                if not isinstance(value, _INT) and not float(value).is_integer():
                    raise ConfigError(f"dataset.{key} must be an integer, not {value!r}")
        if ds_kind == "libsvm":
            if "path" not in self.dataset:
                raise ConfigError("libsvm dataset needs a path")
            if self.dataset.get("objective", "logistic") not in ("logistic", "softmax"):
                raise ConfigError("libsvm objective must be logistic or softmax")
            if self.reference == "closed-form":
                raise ConfigError("closed-form reference only exists for quadratic datasets")
        if self.label is None:
            self.label = f"{self.optimizer}-{self.scheme}-{kind.value}"

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("a config must be a JSON object")
        raw = dict(raw)
        if raw.get("grid") is not None and "schedule" not in raw:
            raw["schedule"] = {"kind": "constant"}
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

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


def build_objective(config: ExperimentConfig):
    """Objective plus (x_star, f_star) when a reference is available."""
    ds = config.dataset
    if ds["kind"] == "quadratic":
        ds = {**_DEFAULT_DATASET, **ds}
        objective = make_quadratic(int(ds["n"]), int(ds["d"]), int(ds["seed"]),
                                   float(ds["spread"]))[0]
    else:
        dataset = load_libsvm(ds["path"], mode=ds.get("mode", "auto"),
                              dim=ds.get("dim"), add_bias=bool(ds.get("add_bias", False)),
                              scale=bool(ds.get("scale", False)))
        objective = LogisticObjective(dataset) if ds.get("objective", "logistic") == "logistic" \
            else SoftmaxObjective(dataset)
    # "auto" means the closed form, which only quadratics have
    if config.reference == "none" or (config.reference == "auto" and ds["kind"] != "quadratic"):
        return objective, None
    return objective, solve_reference(objective)


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


def _runs(table: dict, key, config: ExperimentConfig, objective, schedules, run_args) -> list:
    """The table entry for key = (lr, T): per seed, the result and the epoch of
    divergence (None if the run completed).  Each entry runs once.

    A seed diverges at its first non-finite iterate or at its first trace row
    holding a non-finite number (values can overflow while the iterate stays
    finite), whichever epoch comes first; its trace keeps the rows before it.
    """
    if key not in table:
        table[key] = []
        for seed in config.seeds:
            try:
                result, bad = run(config.optimizer, objective, config.scheme, schedules[key],
                                  seed=seed, **run_args), None
            except DivergenceError as err:
                result, bad = err.partial, err.epoch
            k = next((k for k, row in enumerate(result.trace) if not _finite(row)), None)
            if k is not None:
                result, bad = replace(result, trace=result.trace[:k]), result.trace[k].epoch
            table[key].append((result, bad))
    return table[key]


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


def _mean_half(arr: np.ndarray):
    """Per-column mean and 95% half-width over the rows of arr."""
    if arr.shape[0] < 2:
        return arr.mean(axis=0), np.zeros(arr.shape[1])
    return arr.mean(axis=0), 1.96 * arr.std(axis=0, ddof=1) / math.sqrt(arr.shape[0])


def _mean_ci(series: list[list[float]]):
    """Mean and 95% band per epoch.  A column whose sum or squares overflow
    is recomputed from its values scaled into [-1, 1]; a band whose bounds
    leave the float range stays infinite and fails the summary."""
    arr = np.array(series, dtype=np.float64)
    with np.errstate(over="ignore"):
        mean, half = _mean_half(arr)
        bad = ~(np.isfinite(mean) & np.isfinite(half))
        if bad.any():
            top = np.abs(arr[:, bad]).max(axis=0)
            scaled_mean, scaled_half = _mean_half(arr[:, bad] / top)
            mean[bad], half[bad] = scaled_mean * top, scaled_half * top
        return mean.tolist(), (mean - half).tolist(), (mean + half).tolist()


def run_experiment(config: ExperimentConfig, out_dir=None) -> RunSummary:
    """Build, run, then write the experiment's artifacts.

    Every run comes from one table keyed by (lr, T), so the rate sweep reuses
    the primary runs at T = epochs.  Grid search (constant schedule only)
    selects the lowest seed-mean final training loss among entries where no
    seed diverged, ties toward the smaller rate, and the rate sweep uses that
    rate.  A diverged primary seed marks the summary degraded instead of
    aborting; an exception before the summary is built leaves nothing written.
    """
    out = Path(out_dir if out_dir is not None else (config.out or "results"))
    # build: every lower layer checks the config against its own rules here,
    # before any run, and a rejection (or a dataset that cannot be read)
    # becomes a ConfigError
    try:
        objective, ref = build_objective(config)
        rates = config.grid if config.grid is not None else (config.schedule.get("lr"),)
        schedules = {(lr, T): _make_schedule(config, objective, lr, T) for lr in rates
                     for T in (config.epochs, *(config.rate_epochs or ()))}
        # the arguments every run shares, checked once here
        run_args = dict(batch_size=config.batch_size, x0=config.x0,
                        options=TraceOptions(record_accuracy=config.record_accuracy,
                                             record_dispersion=config.record_dispersion),
                        with_replacement=config.with_replacement, sgdm_beta=config.sgdm_beta,
                        adam_beta1=config.adam_beta1, adam_beta2=config.adam_beta2,
                        adam_eps=config.adam_eps)
        x0 = start_point(config.optimizer, objective, **run_args)
        if ref is None and config.bounds:
            raise ConfigError("bound reports need a reference (minimizer oracle)")
        if ref is None and config.rate_epochs:
            raise ConfigError("rate fitting needs a reference (minimizer oracle)")
        f_star = reference_info = constants = None
        bounds = []  # (regime, bound at T = epochs) per requested regime
        if ref is not None:
            x_star, f_star = ref
            with np.errstate(over="ignore"):
                delta = float(np.sum((x0 - x_star) ** 2))
            if not math.isfinite(delta):
                raise ConfigError("||x0 - x_star||^2 overflows; choose a smaller x0")
            reference_info = {
                "f_star": f_star,
                "sigma_star_sq": variance_at_point(objective, x_star),
                "delta": delta,
            }
        if config.bounds:
            L = objective.smoothness_bound()
            constants = {"L": L, "n": objective.n, **reference_info}
            sigma_sq = float(config.schedule.get("sigma_sq", reference_info["sigma_star_sq"]))
            bounds = [(regime, convergence_bound(
                regime, config.epochs, L=L, sigma_star_sq=reference_info["sigma_star_sq"],
                delta=reference_info["delta"], theta=float(config.schedule.get("theta", 0.0)),
                sigma_sq=sigma_sq, n=objective.n)) for regime in config.bounds]
    except (OSError, ValueError) as err:
        raise ConfigError(str(err)) from err
    except ReferenceSolveError as err:
        raise HarnessError(f"{err}: gradient norm {err.grad_norm!r} after "
                           f"{err.iterations} iterations") from err

    table = {}
    artifacts = {}  # relative path -> text
    grid_rows = selected_lr = None
    lr = config.schedule.get("lr")  # the configured rate, unless a grid selects one
    if config.grid is not None:
        grid_rows = []
        for grid_lr in config.grid:
            runs = _runs(table, (grid_lr, config.epochs), config, objective, schedules, run_args)
            finals = [result.final_value for result, bad in runs if bad is None]
            grid_rows.append({"lr": grid_lr, "diverged": any(bad is not None for _, bad in runs),
                              "mean_final_value": (sum(finals) / len(finals)) if finals else None})
            for (result, _), seed in zip(runs, config.seeds):
                if result.trace:
                    artifacts[f"runs/lr{grid_lr!r}/seed{seed}.csv"] = \
                        _trace_csv(result.trace, f_star)
        eligible = [g for g in grid_rows if not g["diverged"]]
        if not eligible:
            raise HarnessError("every grid entry diverged")
        lr = selected_lr = min(eligible, key=lambda g: (g["mean_final_value"], g["lr"]))["lr"]

    per_seed = []
    completed = []
    primary = _runs(table, (lr, config.epochs), config, objective, schedules, run_args)
    for (result, bad_epoch), seed in zip(primary, config.seeds):
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
        else:
            completed.append(trace)
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

    bound_reports = [_bound_report(regime, bound, config.epochs, constants, per_seed)
                     for regime, bound in bounds]
    rate = None
    if config.rate_epochs:
        gaps = []
        for T in config.rate_epochs:
            runs = _runs(table, (lr, T), config, objective, schedules, run_args)
            for (_, bad), seed in zip(runs, config.seeds):
                if bad is not None:
                    raise HarnessError(f"rate sweep diverged at T={T}, seed={seed}")
            gaps.append(sum(result.final_value - f_star for result, _ in runs) / len(runs))
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
    for path, text in artifacts.items():
        _write_text(out / path, text)
    return summary


def _bound_report(regime: str, bound: float, T: int, constants: dict, per_seed) -> dict:
    """Each completed seed's final gap, then their mean, against the bound.

    A diverged seed has no row; its gap is unbounded, so it leaves the report
    unsatisfied.
    """
    gaps = [(e["seed"], e["final_gap"]) for e in per_seed if not e["diverged"]]
    if gaps:
        gaps.append((None, sum(gap for _, gap in gaps) / len(gaps)))
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
