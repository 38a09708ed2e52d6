"""Experiment runner: declarative configs, learning-rate grid search,
multi-seed aggregation with confidence intervals, and deterministic artifacts.

Artifacts (fixed schemas, see README):

* one CSV per run at ``runs/seed<seed>.csv`` (grid-search runs additionally
  under ``runs/lr<lr>/seed<seed>.csv``) with header
  ``epoch,value,grad_sq_norm,step_size,gap,accuracy,disp_start,disp_end``;
* one ``summary.json`` per experiment.

Floats are written with shortest round-trip repr and files end with a single
newline, so re-running the same config reproduces every artifact byte for
byte.  Wall-clock timings stay in memory and are never serialized.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .data import load_libsvm
from .diagnostics import BoundReport, convergence_bound, fit_rate
from .objectives import (LogisticObjective, SoftmaxObjective, make_quadratic,
                         solve_reference, variance_at_point)
from .optimizers import OPTIMIZERS, DivergenceError, TraceOptions, run
from .schedules import ScheduleKind, ScheduleSpec
from .shuffling import SchemeKind

_CSV_HEADER = "epoch,value,grad_sq_norm,step_size,gap,accuracy,disp_start,disp_end"


class ConfigError(ValueError):
    pass


class HarnessError(RuntimeError):
    pass


_DEFAULT_DATASET = {"kind": "quadratic", "n": 50, "d": 10, "seed": 7, "spread": 1.0}


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
        for key in ("seeds", "grid", "x0", "bounds", "rate_epochs"):
            value = getattr(self, key)
            if isinstance(value, str):
                raise ConfigError(f"{key} must be a list, not a string")
            if value is not None:
                setattr(self, key, tuple(value))
        self.seeds = tuple(int(s) for s in self.seeds)
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
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.grid is not None:
            self.grid = tuple(float(v) for v in self.grid)
            if any(v <= 0 for v in self.grid):
                raise ConfigError("grid entries must be positive")
            if kind is not ScheduleKind.CONSTANT:
                raise ConfigError("a grid implies a constant schedule")
        if kind is ScheduleKind.CONSTANT and self.grid is None \
                and self.schedule.get("lr") is None:
            raise ConfigError("constant schedule needs lr (or a grid)")
        if self.reference not in ("auto", "closed-form", "solve", "none"):
            raise ConfigError(f"unknown reference mode {self.reference!r}")
        for regime in self.bounds:
            try:
                ScheduleKind(regime)
            except ValueError:
                raise ConfigError(f"unknown bound regime {regime!r}") from None
        if self.rate_epochs is not None:
            self.rate_epochs = tuple(int(T) for T in self.rate_epochs)
        ds_kind = self.dataset.get("kind")
        if ds_kind == "libsvm":
            if "path" not in self.dataset:
                raise ConfigError("libsvm dataset needs a path")
            if self.dataset.get("objective", "logistic") not in ("logistic", "softmax"):
                raise ConfigError("libsvm objective must be logistic or softmax")
        elif ds_kind != "quadratic":
            raise ConfigError(f"unknown dataset kind {ds_kind!r}")
        if self.label is None:
            self.label = f"{self.optimizer}-{self.scheme}-{kind.value}"

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
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
        objective, x_star, f_star = make_quadratic(
            int(ds.get("n", 50)), int(ds.get("d", 10)),
            int(ds.get("seed", 7)), float(ds.get("spread", 1.0)))
        if config.reference == "none":
            return objective, None
        return objective, (x_star, f_star)
    dataset = load_libsvm(ds["path"], mode=ds.get("mode", "auto"),
                          dim=ds.get("dim"), add_bias=bool(ds.get("add_bias", False)),
                          scale=bool(ds.get("scale", False)))
    objective_kind = ds.get("objective", "logistic")
    objective = LogisticObjective(dataset) if objective_kind == "logistic" \
        else SoftmaxObjective(dataset)
    if config.reference == "solve":
        return objective, solve_reference(objective)
    if config.reference == "closed-form":
        raise ConfigError("closed-form reference only exists for quadratic datasets")
    return objective, None


def _make_schedule(config: ExperimentConfig, objective, lr=None, T=None) -> ScheduleSpec:
    kind = ScheduleKind(config.schedule["kind"])
    T = config.epochs if T is None else T
    if kind is ScheduleKind.CONSTANT:
        return ScheduleSpec(kind, T, lr=float(lr if lr is not None else config.schedule["lr"]))
    L = objective.smoothness_bound()
    if kind is ScheduleKind.VARIANCE:
        return ScheduleSpec(kind, T, L=L, theta=float(config.schedule.get("theta", 0.0)))
    if kind is ScheduleKind.INITIAL:
        return ScheduleSpec(kind, T, L=L, n=objective.n)
    return ScheduleSpec(kind, T, L=L)


def _single_run(config, objective, schedule, seed, options):
    """Returns (result, diverged, epoch_of_divergence)."""
    try:
        result = run(config.optimizer, objective, config.scheme, schedule,
                     T=schedule.T, seed=seed, batch_size=config.batch_size,
                     x0=config.x0, options=options, sgdm_beta=config.sgdm_beta,
                     adam_beta1=config.adam_beta1, adam_beta2=config.adam_beta2,
                     adam_eps=config.adam_eps, with_replacement=config.with_replacement)
        return result, False, None
    except DivergenceError as err:
        return err.partial, True, err.epoch


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


def _trace_csv(trace, f_star) -> str:
    lines = [_CSV_HEADER]
    for row in trace:
        gap = None if f_star is None else row.value - f_star
        lines.append(",".join([
            str(row.epoch), _fmt(row.value), _fmt(row.grad_sq_norm), _fmt(row.step_size),
            _fmt(gap), _fmt(row.accuracy), _fmt(row.disp_start), _fmt(row.disp_end),
        ]))
    return "\n".join(lines) + "\n"


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _mean_ci(series: list[list[float]]):
    arr = np.array(series, dtype=np.float64)
    mean = arr.mean(axis=0)
    if arr.shape[0] >= 2:
        half = 1.96 * arr.std(axis=0, ddof=1) / math.sqrt(arr.shape[0])
    else:
        half = np.zeros(arr.shape[1])
    return mean.tolist(), (mean - half).tolist(), (mean + half).tolist()


def _check_against_objective(config: ExperimentConfig, objective, ref):
    """Rejects what only the built objective can show to be wrong, before
    any run writes an artifact."""
    if config.batch_size > objective.n:
        raise ConfigError(f"batch_size {config.batch_size} exceeds the objective's "
                          f"{objective.n} components")
    if config.x0 is not None and len(config.x0) != objective.dim:
        raise ConfigError(f"x0 has {len(config.x0)} entries but the objective has "
                          f"dimension {objective.dim}")
    if ref is None and config.bounds:
        raise ConfigError("bound reports need a reference (minimizer oracle)")
    if ref is None and config.rate_epochs:
        raise ConfigError("rate fitting needs a reference (minimizer oracle)")


def run_experiment(config: ExperimentConfig, out_dir=None) -> RunSummary:
    """Execute the configured runs, aggregate, and write artifacts.

    Grid search (constant schedule only) evaluates every learning rate over
    the configured seeds and selects the lowest seed-mean final training
    loss among entries where no seed diverged, ties toward the smaller rate.
    Divergence of a selected-configuration seed is recorded per seed and
    marks the summary degraded instead of aborting the experiment.
    """
    out = Path(out_dir if out_dir is not None else (config.out or "results"))
    objective, ref = build_objective(config)
    _check_against_objective(config, objective, ref)
    options = TraceOptions(record_accuracy=config.record_accuracy,
                           record_dispersion=config.record_dispersion)

    x0 = np.zeros(objective.dim) if config.x0 is None else np.array(config.x0, float)
    f_star = None
    reference_info = None
    if ref is not None:
        x_star, f_star = ref
        reference_info = {
            "f_star": f_star,
            "sigma_star_sq": variance_at_point(objective, x_star),
            "delta": float(np.sum((x0 - x_star) ** 2)),
        }

    grid_rows = None
    selected_lr = None
    if config.grid is not None:
        grid_rows = []
        runs_by_lr = {}
        for lr in config.grid:
            schedule = _make_schedule(config, objective, lr=lr)
            results = [_single_run(config, objective, schedule, s, options)
                       for s in config.seeds]
            runs_by_lr[lr] = results
            diverged = any(d for _, d, _ in results)
            finals = [r.final_value for r, d, _ in results if not d and r.trace]
            grid_rows.append({"lr": lr, "diverged": diverged,
                              "mean_final_value": (sum(finals) / len(finals)) if finals else None})
            for (result, d, _), seed in zip(results, config.seeds):
                if result is not None and result.trace:
                    _write_text(out / "runs" / f"lr{lr!r}" / f"seed{seed}.csv",
                                _trace_csv(result.trace, f_star))
        eligible = [g for g in grid_rows if not g["diverged"] and g["mean_final_value"] is not None]
        if not eligible:
            raise HarnessError("every grid entry diverged")
        selected_lr = min(eligible, key=lambda g: (g["mean_final_value"], g["lr"]))["lr"]
        primary = runs_by_lr[selected_lr]
    else:
        schedule = _make_schedule(config, objective,
                                  lr=config.schedule.get("lr")
                                  if config.schedule["kind"] == "constant" else None)
        primary = [_single_run(config, objective, schedule, s, options)
                   for s in config.seeds]

    per_seed = []
    completed = []
    for (result, diverged, bad_epoch), seed in zip(primary, config.seeds):
        trace = result.trace if result is not None else []
        entry = {
            "seed": seed,
            "diverged": diverged,
            "epochs_completed": len(trace),
            "final_value": trace[-1].value if trace else None,
            "final_gap": (trace[-1].value - f_star) if trace and f_star is not None else None,
            "csv": f"runs/seed{seed}.csv",
        }
        if diverged:
            entry["diverged_at_epoch"] = bad_epoch
        per_seed.append(entry)
        if trace:
            _write_text(out / "runs" / f"seed{seed}.csv", _trace_csv(trace, f_star))
        if not diverged and len(trace) == config.epochs:
            completed.append(trace)

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

    bounds = _bound_reports(config, objective, reference_info, per_seed)
    rate = _rate_sweep(config, objective, options, f_star) if config.rate_epochs else None

    summary = RunSummary(label=config.label, config=config.to_dict(), per_seed=per_seed,
                         value_mean=value_mean, value_ci_low=value_lo, value_ci_high=value_hi,
                         gap_mean=gap_mean, gap_ci_low=gap_lo, gap_ci_high=gap_hi,
                         accuracy_mean=acc_mean, accuracy_ci_low=acc_lo, accuracy_ci_high=acc_hi,
                         grid=grid_rows, selected_lr=selected_lr, bounds=bounds, rate=rate,
                         reference=reference_info, degraded=degraded)
    _write_text(out / "summary.json",
                json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n")
    return summary


def _bound_reports(config, objective, reference_info, per_seed) -> list:
    if not config.bounds:
        return []
    L = objective.smoothness_bound()
    constants = {"L": L, "n": objective.n, **reference_info}
    theta = float(config.schedule.get("theta", 0.0))
    sigma_sq = config.schedule.get("sigma_sq")
    reports = []
    for regime in config.bounds:
        bound = convergence_bound(
            regime, config.epochs, L=L,
            sigma_star_sq=reference_info["sigma_star_sq"],
            delta=reference_info["delta"], theta=theta,
            sigma_sq=float(sigma_sq) if sigma_sq is not None
            else reference_info["sigma_star_sq"],
            n=objective.n)
        report = BoundReport(regime=str(regime), constants=constants)
        complete = [e for e in per_seed if e["final_gap"] is not None
                    and e["epochs_completed"] == config.epochs]
        for entry in complete:
            report.add(config.epochs, entry["final_gap"], bound, seed=entry["seed"])
        if complete:
            mean_gap = sum(e["final_gap"] for e in complete) / len(complete)
            report.add(config.epochs, mean_gap, bound, seed=None)
        reports.append(report.to_dict())
    return reports


def _rate_sweep(config, objective, options, f_star) -> dict:
    points = []
    for T in config.rate_epochs:
        schedule = _make_schedule(config, objective,
                                  lr=config.schedule.get("lr")
                                  if config.schedule["kind"] == "constant" else None, T=T)
        finals = []
        for seed in config.seeds:
            result, diverged, _ = _single_run(config, objective, schedule, seed, options)
            if diverged:
                raise HarnessError(f"rate sweep diverged at T={T}, seed={seed}")
            finals.append(result.final_value - f_star)
        points.append((T, sum(finals) / len(finals)))
    fit = fit_rate(points)
    return {"epochs": [p[0] for p in points], "mean_gaps": [p[1] for p in points],
            "slope": fit.slope, "intercept": fit.intercept}


def emit_plot_data(summaries, path, metric: str = "value"):
    """Long-format CSV for external plotting.

    Columns: method,epoch,mean,ci_low,ci_high,metric -- one row per method and
    epoch for the requested metric (value, gap, or accuracy).
    """
    if metric not in ("value", "gap", "accuracy"):
        raise ValueError(f"unknown metric {metric!r}")
    lines = ["method,epoch,mean,ci_low,ci_high,metric"]
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
            lines.append(f"{summary.label},{epoch},{_fmt(m)},{_fmt(l)},{_fmt(h)},{metric}")
    _write_text(Path(path), "\n".join(lines) + "\n")
