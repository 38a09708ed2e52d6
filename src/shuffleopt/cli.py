"""Command-line experiment runner.

    shuffleopt run --config experiment.json [overrides...]

Flag overrides win over the config file; with no config file the documented
defaults apply (synthetic quadratic, nasg, reshuffling, thm1 schedule).
Exit codes: 0 success, 1 hard runtime error, 2 bad usage or config.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import ConfigError, ExperimentConfig, HarnessError, run_experiment
from .objectives import OBJECTIVES
from .optimizers import OPTIMIZERS
from .schedules import ScheduleKind
from .shuffling import SchemeKind


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shuffleopt")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run one experiment and write its artifacts")
    p.add_argument("--config", type=Path, help="JSON experiment config")
    p.add_argument("--dataset", help="LIBSVM file path (switches dataset kind to libsvm)")
    p.add_argument("--objective", choices=OBJECTIVES,
                   help="objective for a libsvm dataset")
    p.add_argument("--optimizer", choices=OPTIMIZERS)
    p.add_argument("--scheme", choices=[kind.value for kind in SchemeKind])
    p.add_argument("--schedule", choices=[kind.value for kind in ScheduleKind])
    p.add_argument("--lr", type=float, help="constant step size")
    p.add_argument("--theta", type=float, help="variance-bound constant for thm2")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--seeds", help="comma-separated seed list, e.g. 1,2,3")
    p.add_argument("--grid", help="comma-separated learning-rate grid")
    p.add_argument("--label", help="method label used in artifacts")
    p.add_argument("--out", help="output directory (default: results)")
    return parser


def _section(raw: dict, key: str, default: dict) -> dict:
    """raw[key], set to `default` when absent, for a flag to write into."""
    value = raw.setdefault(key, default)
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object, not {value!r}")
    return value


def _load_config(args) -> ExperimentConfig:
    raw = {}
    if args.config is not None:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ConfigError("a config must be a JSON object")
    if args.dataset is not None:
        ds = _section(raw, "dataset", {})
        ds = dict(ds) if ds.get("kind") == "libsvm" else {"kind": "libsvm"}
        ds["path"] = args.dataset
        raw["dataset"] = ds
    if args.objective is not None:
        ds = _section(raw, "dataset", {})
        if ds.get("kind") != "libsvm":
            raise ConfigError("--objective only applies to libsvm datasets")
        ds["objective"] = args.objective
    for key in ("optimizer", "scheme", "epochs", "batch_size", "label", "out"):
        value = getattr(args, key)
        if value is not None:
            raw[key] = value
    if args.schedule is not None:
        raw["schedule"] = {"kind": args.schedule}
    if args.lr is not None:
        _section(raw, "schedule", {"kind": "constant"})["lr"] = args.lr
    if args.theta is not None:
        _section(raw, "schedule", {"kind": "thm2"})["theta"] = args.theta
    if args.seeds is not None:
        raw["seeds"] = [int(s) for s in args.seeds.split(",") if s]
    if args.grid is not None:
        raw["grid"] = [float(v) for v in args.grid.split(",") if v]
    return ExperimentConfig.from_dict(raw)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
    except (OSError, ValueError) as err:  # ConfigError and JSONDecodeError included
        print(f"error: {err}", file=sys.stderr)
        return 2
    out = config.out or "results"
    try:
        summary = run_experiment(config, out)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (HarnessError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(f"{summary.label}: {len(summary.per_seed)} run(s), artifacts in {out}")
    if summary.selected_lr is not None:
        print(f"selected lr: {summary.selected_lr!r}")
    if summary.value_mean:
        print(f"mean final value: {summary.value_mean[-1]!r}")
    if summary.degraded:
        print("warning: at least one seed diverged; summary marked degraded",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
