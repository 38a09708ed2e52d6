import csv
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from shuffleopt import harness, optimizers
from shuffleopt.cli import main
from shuffleopt.diagnostics import DispersionRecord
from shuffleopt.harness import (ConfigError, ExperimentConfig, HarnessError,
                                RunSummary, emit_plot_data, run_experiment)
from shuffleopt.objectives import make_quadratic
from shuffleopt.optimizers import TraceOptions

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def quad_config(**overrides):
    raw = {
        "dataset": {"kind": "quadratic", "n": 20, "d": 4, "seed": 3, "spread": 1.0},
        "optimizer": "nasg",
        "scheme": "ig",
        "schedule": {"kind": "thm1"},
        "epochs": 6,
        "seeds": [1],
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


# ------------------------------------------------------------------ config

def test_config_validation():
    with pytest.raises(ConfigError, match="seeds"):
        quad_config(seeds=[])
    with pytest.raises(ConfigError, match="positive"):
        quad_config(grid=[0.1, -1.0], schedule={"kind": "constant"})
    with pytest.raises(ConfigError, match="constant schedule"):
        quad_config(grid=[0.1], schedule={"kind": "thm1"})
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict({"optimiser": "nasg"})
    with pytest.raises(ConfigError, match="needs lr"):
        quad_config(schedule={"kind": "constant"})
    with pytest.raises(ConfigError, match="unknown optimizer"):
        quad_config(optimizer="bfgs")
    with pytest.raises(ConfigError, match="path"):
        quad_config(dataset={"kind": "libsvm"})
    with pytest.raises(ConfigError, match="JSON object"):
        ExperimentConfig.from_dict([("optimizer", "nasg")])


def test_config_accepts_integral_float_sizes():
    config = quad_config(dataset={"kind": "quadratic", "n": 20.0, "d": 4.0, "seed": 3.0})
    assert config.dataset["n"] == 20.0  # echoed as given
    objective = harness.build_objective(config)[0]
    assert objective.centers.tobytes() == make_quadratic(20, 4, 3)[0].centers.tobytes()


def test_config_grid_implies_constant_schedule():
    config = ExperimentConfig.from_dict({"grid": [0.1, 0.01], "seeds": [1]})
    assert config.schedule["kind"] == "constant"


def test_config_label_default():
    assert quad_config().label == "nasg-ig-thm1"


# ------------------------------------------------------------- experiments

def test_single_seed_bookkeeping(tmp_path):
    config = quad_config()
    summary = run_experiment(config, tmp_path)
    csv_path = tmp_path / "runs" / "seed1.csv"
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == 1 + config.epochs  # header + one row per epoch
    last_gap = float(lines[-1].split(",")[4])
    assert summary.per_seed[0]["final_gap"] == pytest.approx(last_gap, rel=0, abs=0)
    parsed = json.loads((tmp_path / "summary.json").read_text())
    assert parsed["per_seed"][0]["final_gap"] == last_gap


def test_multi_seed_ci(tmp_path):
    config = quad_config(scheme="rr", seeds=list(range(1, 11)), epochs=8)
    summary = run_experiment(config, tmp_path)
    finals = [e["final_value"] for e in summary.per_seed]
    assert len(set(finals)) > 1
    for lo, mean, hi in zip(summary.value_ci_low, summary.value_mean, summary.value_ci_high):
        assert hi > mean > lo  # strictly positive half-width with 10 seeds
    # mean curve lies inside the per-seed envelope
    values = []
    for seed in config.seeds:
        lines = (tmp_path / "runs" / f"seed{seed}.csv").read_text().strip().split("\n")[1:]
        values.append([float(line.split(",")[1]) for line in lines])
    values = np.array(values)
    assert np.all(summary.value_mean <= values.max(axis=0) + 1e-15)
    assert np.all(summary.value_mean >= values.min(axis=0) - 1e-15)


def test_grid_selection_and_divergence(tmp_path):
    grid = [25.0, 0.2, 0.05]  # 25.0 amplifies 24x per step on the L=1 quadratic
    config = quad_config(optimizer="sgd", scheme="rr", grid=grid,
                        schedule={"kind": "constant"}, epochs=15, seeds=[1, 2])
    summary = run_experiment(config, tmp_path)
    by_lr = {g["lr"]: g for g in summary.grid}
    assert by_lr[25.0]["diverged"] is True
    eligible = [g for g in summary.grid if not g["diverged"]]
    best = min(eligible, key=lambda g: (g["mean_final_value"], g["lr"]))
    assert summary.selected_lr == best["lr"]
    assert (tmp_path / "runs" / "lr0.05" / "seed1.csv").exists()
    assert not summary.degraded  # selected entry completed all seeds


def test_grid_tie_breaks_toward_smaller_lr(tmp_path):
    # single center at the start point: every lr yields final value 0.0 exactly
    config = ExperimentConfig.from_dict({
        "dataset": {"kind": "quadratic", "n": 1, "d": 2, "seed": 0, "spread": 0.0},
        "optimizer": "sgd", "scheme": "ig", "grid": [0.1, 0.05], "epochs": 3,
        "seeds": [1], "x0": [0.0, 0.0], "reference": "none",
    })
    summary = run_experiment(config, tmp_path)
    assert summary.selected_lr == 0.05


def test_all_grid_entries_diverged(tmp_path):
    config = quad_config(optimizer="sgd", grid=[40.0, 30.0],
                        schedule={"kind": "constant"}, epochs=15, seeds=[1])
    with pytest.raises(HarnessError, match="diverged"):
        run_experiment(config, tmp_path)


def test_degraded_run_keeps_partial_artifacts(tmp_path):
    config = quad_config(optimizer="sgd", schedule={"kind": "constant", "lr": 25.0},
                        epochs=60, seeds=[1])
    summary = run_experiment(config, tmp_path)
    assert summary.degraded
    entry = summary.per_seed[0]
    assert entry["diverged"] and 0 < entry["epochs_completed"] < 60
    assert (tmp_path / "runs" / "seed1.csv").exists()
    assert summary.value_mean == []  # no completed seed to aggregate


def test_artifacts_byte_identical(tmp_path):
    config_dict = {
        "dataset": {"kind": "quadratic", "n": 15, "d": 3, "seed": 5, "spread": 1.0},
        "optimizer": "nasg", "scheme": "rr", "schedule": {"kind": "thm1"},
        "epochs": 5, "seeds": [1, 2, 3], "bounds": ["thm1"], "record_accuracy": False,
    }
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(ExperimentConfig.from_dict(config_dict), a)
    run_experiment(ExperimentConfig.from_dict(config_dict), b)
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_summary_round_trips_exactly(tmp_path):
    config = quad_config(scheme="rr", seeds=[4, 5], bounds=["thm1", "thm3"])
    summary = run_experiment(config, tmp_path)
    parsed = json.loads((tmp_path / "summary.json").read_text())
    assert parsed == summary.to_dict()
    assert RunSummary.from_dict(parsed).to_dict() == summary.to_dict()


def test_bound_reports_via_harness(tmp_path):
    config = quad_config(scheme="ig", epochs=8, bounds=["thm1"])
    summary = run_experiment(config, tmp_path)
    report = summary.bounds[0]
    assert report["regime"] == "thm1"
    assert report["satisfied"] is True
    assert all(row["gap"] <= row["bound"] for row in report["rows"])


def test_bound_report_fails_when_every_seed_diverged(tmp_path, capsys):
    # both seeds diverge in epoch 5: no gap is left to check, an unbounded gap
    # does not satisfy the bound, and no final value is printed
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "dataset": {"kind": "quadratic", "n": 20, "d": 4, "seed": 3}, "optimizer": "sgd",
        "schedule": {"kind": "constant", "lr": 40}, "epochs": 12, "seeds": [1, 2],
        "bounds": ["thm1"]}))
    out = tmp_path / "results"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"sgd-rr-constant: 2 run(s), artifacts in {out}\n"
    assert "degraded" in captured.err
    summary = json.loads((out / "summary.json").read_text())
    assert [e["diverged_at_epoch"] for e in summary["per_seed"]] == [5, 5]
    assert summary["bounds"][0]["rows"] == [] and summary["bounds"][0]["satisfied"] is False


def test_bound_report_keeps_completed_rows_when_a_seed_diverged():
    per_seed = [{"seed": 1, "diverged": False, "final_gap": 0.5},
                {"seed": 2, "diverged": True, "final_gap": 1e300}]
    report = harness._bound_report("thm1", 1.0, 8, {"L": 1.0}, per_seed)
    assert [(row["seed"], row["gap"], row["satisfied"]) for row in report["rows"]] \
        == [(1, 0.5, True), (None, 0.5, True)]
    assert report["satisfied"] is False


def test_initial_condition_schedule_via_harness(tmp_path):
    config = quad_config(schedule={"kind": "init-cond"}, epochs=4)
    summary = run_experiment(config, tmp_path)
    assert len(summary.value_mean) == 4
    assert summary.per_seed[0]["final_gap"] > 0


def test_rate_sweep_via_harness(tmp_path):
    config = quad_config(scheme="ig", rate_epochs=[4, 8, 16, 32])
    summary = run_experiment(config, tmp_path)
    assert summary.rate["epochs"] == [4, 8, 16, 32]
    assert len(summary.rate["mean_gaps"]) == 4
    assert summary.rate["slope"] < 0


def test_grid_rate_sweep_runs_at_selected_lr(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append((args[3].T, kwargs["options"]))
        return run(*args, **kwargs)

    run = harness.run
    monkeypatch.setattr(harness, "run", counted)
    sweep = {"optimizer": "sgd", "scheme": "rr", "epochs": 8, "seeds": [1, 2],
             "rate_epochs": [4, 8, 16], "record_dispersion": True, "record_accuracy": True}
    summary = run_experiment(quad_config(grid=[25.0, 0.2, 0.05], schedule={"kind": "constant"},
                                         **sweep), tmp_path / "grid")
    # 3 grid rates at T = 8 with the config's trace options, then the horizons
    # 4 and 16 with bare ones; T = 8 reuses the primary runs
    recorded, bare = TraceOptions(record_dispersion=True, record_accuracy=True), TraceOptions()
    assert sorted(calls, key=lambda call: call[0]) \
        == [(4, bare)] * 2 + [(8, recorded)] * 6 + [(16, bare)] * 2
    fixed = run_experiment(
        quad_config(schedule={"kind": "constant", "lr": summary.selected_lr}, **sweep),
        tmp_path / "fixed")
    assert summary.rate == fixed.rate


def test_rate_block_ignores_trace_options(tmp_path):
    # batch-1 nasg on logistic data: without the dispersion the primary runs
    # take the one-call sweep, which the horizons take either way
    raw = {"dataset": {"kind": "libsvm", "path": str(FIXTURES / "blobs600.libsvm")},
           "optimizer": "nasg", "scheme": "rr", "schedule": {"kind": "thm1"}, "epochs": 8,
           "seeds": [1, 2], "reference": "solve", "rate_epochs": [4, 8, 16]}
    plain = run_experiment(ExperimentConfig.from_dict(raw), tmp_path / "plain")
    recorded = run_experiment(ExperimentConfig.from_dict(
        {**raw, "record_dispersion": True, "record_accuracy": True}), tmp_path / "recorded")
    assert recorded.accuracy_mean is not None
    assert json.dumps(recorded.rate) == json.dumps(plain.rate)  # repr round-trips, so bitwise


def test_rate_horizon_verdict_leaves_the_dispersion_out(tmp_path, capsys, monkeypatch):
    # a dispersion that overflows while the values stay finite fails only the
    # runs that record it: the primary runs at T = epochs, not the horizons
    monkeypatch.setattr(optimizers, "epoch_dispersion",
                        lambda inner: DispersionRecord(math.inf, math.inf))
    config = {"dataset": {"kind": "quadratic", "n": 20, "d": 4, "seed": 3}, "optimizer": "nasg",
              "scheme": "rr", "schedule": {"kind": "thm1"}, "epochs": 4, "seeds": [1, 2],
              "rate_epochs": [8, 16, 32], "record_dispersion": True}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "results"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    assert "degraded" in capsys.readouterr().err
    summary = _strict_json((out / "summary.json").read_text())
    assert summary["degraded"] is True
    assert [e["diverged_at_epoch"] for e in summary["per_seed"]] == [1, 1]
    assert summary["rate"]["epochs"] == [8, 16, 32] and summary["rate"]["slope"] < 0


def test_accuracy_series(tmp_path):
    fixture = Path(__file__).parent.parent / "fixtures" / "binary_pm1.libsvm"
    config = ExperimentConfig.from_dict({
        "dataset": {"kind": "libsvm", "path": str(fixture), "objective": "logistic"},
        "optimizer": "sgd", "scheme": "rr", "schedule": {"kind": "constant", "lr": 0.1},
        "epochs": 4, "seeds": [1, 2],
        "record_accuracy": True,
    })
    summary = run_experiment(config, tmp_path)
    assert summary.accuracy_mean is not None
    assert all(0.0 <= a <= 1.0 for a in summary.accuracy_mean)


# --------------------------------------------------------------- plot data

def test_emit_plot_data_empty(tmp_path):
    path = tmp_path / "plot.csv"
    emit_plot_data([], path)
    assert path.read_text() == "method,epoch,mean,ci_low,ci_high,metric\n"


def test_emit_plot_data_rows_and_gap_check(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    config_a = quad_config(label="first", epochs=5)
    config_b = quad_config(label="second", optimizer="sgd",
                           schedule={"kind": "constant", "lr": 0.1}, epochs=5)
    sa = run_experiment(config_a, out_a)
    sb = run_experiment(config_b, out_b)
    path = tmp_path / "plot.csv"
    emit_plot_data([sa, sb], path, metric="gap")
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 5  # header + 2 methods x T epochs

    # cross-check one row against a direct objective evaluation
    obj, x_star, f_star = make_quadratic(20, 4, seed=3, spread=1.0)
    from shuffleopt.optimizers import run as opt_run
    from shuffleopt.schedules import ScheduleKind, ScheduleSpec
    res = opt_run("nasg", obj, "ig", ScheduleSpec(ScheduleKind.UNIFIED, T=5, L=1.0), seed=1)
    row = lines[1].split(",")
    assert row[0] == "first" and row[1] == "1"
    assert float(row[2]) == pytest.approx(res.trace[0].value - f_star, rel=1e-15)


def test_emit_plot_data_quotes_a_label_with_a_comma(tmp_path):
    summary = run_experiment(quad_config(label='nasg, "rr"', epochs=3), tmp_path / "runs")
    path = tmp_path / "plot.csv"
    emit_plot_data([summary], path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "epoch", "mean", "ci_low", "ci_high", "metric"]
    assert [row[:2] for row in rows[1:]] == [['nasg, "rr"', str(t)] for t in (1, 2, 3)]
    assert all(len(row) == 6 for row in rows)


def test_emit_plot_data_missing_metric(tmp_path):
    config = quad_config(reference="none")
    summary = run_experiment(config, tmp_path / "runs")
    with pytest.raises(ValueError, match="no gap series"):
        emit_plot_data([summary], tmp_path / "plot.csv", metric="gap")
    with pytest.raises(ValueError, match="unknown metric 'loss'"):
        emit_plot_data([summary], tmp_path / "plot.csv", metric="loss")
    assert not (tmp_path / "plot.csv").exists()


# --------------------------------------------------------------------- cli

def test_cli_run_roundtrip(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "dataset": {"kind": "quadratic", "n": 10, "d": 3, "seed": 2, "spread": 1.0},
        "optimizer": "nasg", "scheme": "rr", "schedule": {"kind": "thm1"},
        "epochs": 4, "seeds": [1, 2],
    }))
    out = tmp_path / "results"
    code = main(["run", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    assert (out / "summary.json").exists()


def test_cli_overrides_and_grid(tmp_path):
    out = tmp_path / "results"
    code = main(["run", "--optimizer", "sgd", "--scheme", "rr", "--epochs", "3",
                 "--seeds", "1", "--grid", "0.1,0.05", "--out", str(out)])
    assert code == 0
    parsed = json.loads((out / "summary.json").read_text())
    assert parsed["selected_lr"] in (0.1, 0.05)


def test_cli_bad_config_exit_code(tmp_path):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"optimizer": "bfgs"}))
    assert main(["run", "--config", str(config_path)]) == 2


def test_cli_schedule_flag(tmp_path):
    out = tmp_path / "results"
    assert main(["run", "--schedule", "thm3", "--epochs", "3", "--seeds", "1",
                 "--out", str(out)]) == 0
    parsed = json.loads((out / "summary.json").read_text())
    assert parsed["config"]["schedule"] == {"kind": "thm3"}
    assert parsed["label"] == "nasg-rr-thm3"


def test_cli_libsvm_dataset(tmp_path):
    fixture = Path(__file__).parent.parent / "fixtures" / "binary_pm1.libsvm"
    out = tmp_path / "results"
    code = main(["run", "--dataset", str(fixture), "--optimizer", "sgd",
                 "--lr", "0.1", "--epochs", "2", "--seeds", "1", "--out", str(out)])
    assert code == 0
    # --objective writes into the dataset that --dataset sets
    out = tmp_path / "softmax"
    assert main(["run", "--dataset", str(FIXTURES / "multiclass_3.libsvm"), "--objective",
                 "softmax", "--lr", "0.1", "--epochs", "2", "--seeds", "1", "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["config"]["dataset"] == {
        "kind": "libsvm", "path": str(FIXTURES / "multiclass_3.libsvm"), "objective": "softmax"}


BAD_CONFIGS = {
    "batch-exceeds-n": {"dataset": {"kind": "quadratic", "n": 5, "d": 2}, "batch_size": 9},
    "x0-wrong-length": {"dataset": {"kind": "quadratic", "n": 5, "d": 2}, "x0": [0.0, 0.0, 0.0]},
    "bounds-without-reference": {"reference": "none", "bounds": ["thm1"]},
    "rate-without-reference": {"reference": "none", "rate_epochs": [4, 8, 16]},
    "string-seeds": {"seeds": "123"},
    "scalar-seeds": {"seeds": 3},
    "string-epochs": {"epochs": "5"},
    "string-batch-size": {"batch_size": "2"},
    "string-record-accuracy": {"record_accuracy": "no"},
    "unknown-dataset-key": {"dataset": {"kind": "quadratic", "N": 5}},
    "unknown-schedule-key": {"schedule": {"kind": "thm1", "lr": 0.1}},
    "theta-without-thm2": {"schedule": {"kind": "thm1"}},
    "thm1-one-epoch": {"epochs": 1},
    "thm2-negative-theta": {"schedule": {"kind": "thm2", "theta": -1}},
    "constant-negative-lr": {"schedule": {"kind": "constant", "lr": -1}},
    "quadratic-no-components": {"dataset": {"kind": "quadratic", "n": 0}},
    "softmax-on-binary-data": {"dataset": {"kind": "libsvm", "objective": "softmax",
                                           "path": str(FIXTURES / "blobs600.libsvm")}},
    "malformed-libsvm": {"dataset": {"kind": "libsvm",
                                     "path": str(FIXTURES / "malformed" / "bad_label.libsvm")}},
    "non-finite-libsvm-value": {"dataset": {"kind": "libsvm", "path": str(
        FIXTURES / "malformed" / "non_finite_value.libsvm")}},
    "x0-nan": {"dataset": {"kind": "quadratic", "n": 5, "d": 2}, "x0": [float("nan"), 0.0]},
    "x0-overflow": {"dataset": {"kind": "quadratic", "n": 5, "d": 2}, "x0": [10**400, 0]},
    "replacement-with-nasg": {"with_replacement": True},
    "dispersion-with-nag": {"optimizer": "nag", "record_dispersion": True},
    "constant-bound": {"bounds": ["constant"]},
    "two-rate-horizons": {"rate_epochs": [4, 8]},
    "empty-grid": {"grid": []},
    "missing-libsvm-file": {"dataset": {"kind": "libsvm",
                                        "path": str(FIXTURES / "no_such_file.libsvm")}},
    "fractional-seeds": {"seeds": [1.5, 2.9]},
    "fractional-rate-epochs": {"rate_epochs": [4.7, 8, 16]},
    "zero-epochs": {"epochs": 0},
    "zero-batch-size": {"batch_size": 0},
    "unknown-bound-regime": {"bounds": ["thm9"]},
    "constant-one-epoch-bound": {"schedule": {"kind": "constant", "lr": 0.1}, "epochs": 1,
                                 "bounds": ["thm1"]},
    "delta-overflow": {"x0": [1e200] + [0.0] * 9},
    "fractional-quadratic-sizes": {"dataset": {"kind": "quadratic", "n": 2.7, "d": 2.2,
                                               "seed": 1.5}},
    "fractional-quadratic-seed": {"dataset": {"kind": "quadratic", "seed": 7.5}},
    # a flag override writes into the config before it is validated
    "list-config-with-flag": [1, 2],
    "string-config-with-flag": "x",
    "list-dataset-with-flag": {"dataset": [1]},
    "string-dataset-with-objective-flag": {"dataset": "x"},
    "string-schedule-with-flag": {"schedule": "x"},
    "null-schedule-with-flag": {"schedule": None},
    # JSON's NaN and Infinity
    "nan-lr": {"schedule": {"kind": "constant", "lr": float("nan")}},
    "infinite-lr": {"schedule": {"kind": "constant", "lr": float("inf")}},
    "nan-grid-rate": {"grid": [float("nan"), 0.1]},
    "nan-theta": {"schedule": {"kind": "thm2", "theta": float("nan")}},
    "nan-sigma-sq-with-bound": {"schedule": {"kind": "thm2", "sigma_sq": float("nan")},
                                "bounds": ["thm2"]},
    "nan-quadratic-spread": {"dataset": {"kind": "quadratic", "spread": float("nan")}},
    # integers beyond the float range where a real belongs
    "huge-lr": {"schedule": {"kind": "constant", "lr": 10**400}},
    "huge-theta": {"schedule": {"kind": "thm2", "theta": 10**400}},
    "huge-grid-rate": {"grid": [10**400, 0.1]},
    "huge-quadratic-spread": {"dataset": {"kind": "quadratic", "spread": 10**400}},
    "huge-sigma-sq-with-bound": {"schedule": {"kind": "thm2", "sigma_sq": 10**400},
                                 "bounds": ["thm2"]},
    # moment constants, checked whatever the optimizer
    "adam-beta2-above-one": {"optimizer": "adam", "adam_beta2": 1.5},
    "adam-beta1-one": {"optimizer": "adam", "adam_beta1": 1.0},
    "negative-adam-eps": {"optimizer": "adam", "adam_eps": -1.0},
    "overflowing-adam-eps": {"optimizer": "adam", "adam_eps": 10**400},
    "negative-sgdm-beta": {"optimizer": "sgdm", "sgdm_beta": -3},
    "sgdm-beta-one-with-nasg": {"sgdm_beta": 1.0},
    # a repeated entry would copy a run, a grid row or a bound report
    "duplicate-seeds": {"seeds": [1, 1]},
    "duplicate-grid-rate": {"grid": [0.1, 0.1]},
    "duplicate-bound-regime": {"bounds": ["thm1", "thm1"]},
    # a choice outside its set
    "unknown-scheme": {"scheme": "shuffle"},
    "unknown-schedule-kind": {"schedule": {"kind": "thm9"}},
    "unknown-reference": {"reference": "exact"},
    "unknown-dataset-kind": {"dataset": {"kind": "csv"}},
    "unknown-libsvm-objective": {"dataset": {"kind": "libsvm", "objective": "hinge",
                                             "path": str(FIXTURES / "blobs600.libsvm")}},
    "multiclass-libsvm-with-default-objective": {
        "dataset": {"kind": "libsvm", "path": str(FIXTURES / "multiclass_3.libsvm")}},
    # rules that relate two values
    "negative-sigma-sq": {"schedule": {"kind": "thm2", "sigma_sq": -1}},
    "closed-form-on-libsvm": {"dataset": {"kind": "libsvm",
                                          "path": str(FIXTURES / "blobs600.libsvm")},
                              "reference": "closed-form"},
    "objective-flag-on-quadratic": {},
    "unknown-libsvm-mode": {"dataset": {"kind": "libsvm", "mode": "x",
                                        "path": str(FIXTURES / "blobs600.libsvm")}},
    # checked before the reference solve, which finds no minimum on these two rows
    "batch-exceeds-n-before-solve": {
        "dataset": {"kind": "libsvm", "path": str(FIXTURES / "scientific_values.libsvm")},
        "reference": "solve", "batch_size": 99, "seeds": [1]},
    "unknown-bound-regime-before-solve": {
        "dataset": {"kind": "libsvm", "path": str(FIXTURES / "scientific_values.libsvm")},
        "reference": "solve", "seeds": [1], "bounds": ["thm9"]},
    "constant-bound-before-solve": {
        "dataset": {"kind": "libsvm", "path": str(FIXTURES / "scientific_values.libsvm")},
        "reference": "solve", "seeds": [1], "bounds": ["constant"]},
}
BAD_FLAGS = {"theta-without-thm2": ["--theta", "0.5"],
             "list-config-with-flag": ["--epochs", "3"],
             "string-config-with-flag": ["--dataset", "f.libsvm"],
             "list-dataset-with-flag": ["--dataset", "f.libsvm"],
             "string-dataset-with-objective-flag": ["--objective", "softmax"],
             "string-schedule-with-flag": ["--lr", "0.1"],
             "null-schedule-with-flag": ["--theta", "0.5"],
             "objective-flag-on-quadratic": ["--objective", "softmax"]}
# the key that the error line names; a rejected value beyond the float range
# is not echoed
BAD_KEYS = {"nan-lr": "schedule.lr", "infinite-lr": "schedule.lr", "nan-grid-rate": "grid",
            "nan-theta": "schedule.theta", "nan-sigma-sq-with-bound": "schedule.sigma_sq",
            "nan-quadratic-spread": "dataset.spread",
            "non-finite-libsvm-value": "non-finite feature value nan at line 2",
            "huge-lr": "error: schedule.lr must be finite\n",
            "huge-theta": "error: schedule.theta must be finite\n",
            "huge-grid-rate": "error: grid entry must be finite\n",
            "huge-quadratic-spread": "error: dataset.spread must be finite\n",
            "huge-sigma-sq-with-bound": "error: schedule.sigma_sq must be finite\n",
            "unknown-scheme": "error: unknown scheme 'shuffle'",
            "unknown-schedule-kind": "error: unknown schedule kind 'thm9'",
            "unknown-reference": "reference",
            "unknown-dataset-kind": "error: unknown dataset kind 'csv'",
            "unknown-libsvm-objective": "objective",
            "multiclass-libsvm-with-default-objective":
                "error: logistic objective needs a binary dataset\n",
            "negative-sigma-sq": "error: schedule.sigma_sq must be >= 0",
            "closed-form-on-libsvm": "error: closed-form reference only exists",
            "objective-flag-on-quadratic": "error: --objective only applies to libsvm",
            "unknown-libsvm-mode": "error: unknown mode 'x'\n",
            "batch-exceeds-n-before-solve": "error: batch_size must be in [1, 2]\n",
            "unknown-bound-regime-before-solve": "error: 'thm9' is not a valid ScheduleKind\n",
            "constant-bound-before-solve":
                "error: no closed-form guarantee for constant steps\n"}


@pytest.mark.parametrize("probe", sorted(BAD_CONFIGS))
def test_cli_rejects_config_before_any_artifact(tmp_path, capsys, probe):
    config_path = tmp_path / "config.json"
    raw = BAD_CONFIGS[probe]
    config_path.write_text(json.dumps({"epochs": 2, **raw} if isinstance(raw, dict) else raw))
    out = tmp_path / "results"
    argv = ["run", "--config", str(config_path), "--out", str(out), *BAD_FLAGS.get(probe, [])]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert BAD_KEYS.get(probe, "") in err
    assert not out.exists()


def test_config_error_comes_before_the_reference_solve(tmp_path, capsys, monkeypatch):
    solves = []
    monkeypatch.setattr(harness, "solve_reference", solves.append)
    config_path = tmp_path / "config.json"
    for probe in ("batch-exceeds-n-before-solve", "unknown-bound-regime-before-solve",
                  "constant-bound-before-solve"):
        config_path.write_text(json.dumps({"epochs": 2, **BAD_CONFIGS[probe]}))
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == BAD_KEYS[probe]
    assert solves == []


RUNTIME_FAILURES = {
    "rate-sweep-diverges": {"optimizer": "sgd", "schedule": {"kind": "constant", "lr": 3.0},
                            "epochs": 4, "seeds": [1], "rate_epochs": [4, 64, 128]},
    "every-grid-rate-diverges": {"dataset": {"kind": "quadratic", "n": 20, "d": 4, "seed": 3},
                                 "optimizer": "sgd", "grid": [40.0, 30.0], "epochs": 15,
                                 "seeds": [1]},
    "rate-fit-on-zero-gap": {"dataset": {"kind": "quadratic", "n": 1, "d": 2, "seed": 0,
                                         "spread": 0.0},
                             "optimizer": "sgd", "scheme": "ig",
                             "schedule": {"kind": "constant", "lr": 0.1}, "epochs": 2,
                             "seeds": [1], "rate_epochs": [2, 4, 8]},
}


@pytest.mark.parametrize("probe", sorted(RUNTIME_FAILURES))
def test_cli_runtime_failure_writes_nothing(tmp_path, capsys, probe):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(RUNTIME_FAILURES[probe]))
    out = tmp_path / "results"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def _strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.filterwarnings("error")
def test_overflowing_values_count_as_divergence(tmp_path, capsys):
    # the iterate stays finite while the trace values overflow to inf
    config = {"dataset": {"kind": "quadratic", "n": 20, "d": 4, "seed": 3}, "optimizer": "sgd",
              "scheme": "rr", "schedule": {"kind": "constant", "lr": 3.0}, "epochs": 40,
              "seeds": [1, 2, 3]}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "results"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    assert "degraded" in capsys.readouterr().err
    summary = _strict_json((out / "summary.json").read_text())
    assert [(e["diverged_at_epoch"], e["epochs_completed"]) for e in summary["per_seed"]] \
        == [(26, 25)] * 3
    for seed in config["seeds"]:
        assert "inf" not in (out / "runs" / f"seed{seed}.csv").read_text()


@pytest.mark.filterwarnings("error")
def test_band_over_huge_finite_values(tmp_path, capsys):
    # every seed completes with final values near 5e254, whose squares overflow
    config = {"dataset": {"kind": "quadratic", "n": 20, "d": 4, "seed": 3}, "optimizer": "sgd",
              "schedule": {"kind": "constant", "lr": 40}, "epochs": 4, "seeds": [1, 2, 3],
              "bounds": ["thm1"]}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "results"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    summary = _strict_json((out / "summary.json").read_text())
    assert summary["degraded"] is False
    for key in ("value", "gap"):
        low, mean, high = (summary[f"{key}_{part}"] for part in ("ci_low", "mean", "ci_high"))
        assert all(math.isfinite(x) for x in low + mean + high)
        assert all(lo <= m <= hi for lo, m, hi in zip(low, mean, high))
    assert 1e254 < summary["value_mean"][-1] < 1e255


@pytest.mark.filterwarnings("error")
def test_band_beyond_the_float_range_stays_infinite():
    mean, low, high = harness._mean_ci([[1.7e308, 1.0], [-1.7e308, 3.0]])
    assert mean == [0.0, 2.0]
    assert low[0] == -math.inf and high[0] == math.inf
    assert (low[1], high[1]) == pytest.approx((2.0 - 1.96, 2.0 + 1.96), rel=1e-15)


def test_band_over_tiny_values_keeps_its_width():
    # the squared deviations, near 1e-340, would underflow unscaled
    mean, low, high = harness._mean_ci([[1e-170], [2e-170], [3e-170]])
    assert mean == [2e-170]
    assert (high[0] - low[0]) / 2 == pytest.approx(1.1316065276116666e-170, rel=1e-13, abs=0)


@pytest.mark.parametrize("rows", [1, 2, 3, 10])
def test_band_equals_direct_formula_bitwise(rows):
    # inside [1e-140, 1e140] the unscaled sums and squares stay in range, so
    # the scaled band must keep every bit of the direct formula
    rng = np.random.default_rng(rows)
    centers = rng.uniform(-139.0, 139.0, size=2000)
    spreads = rng.uniform(0.0, 1.0, size=2000)
    arr = 10.0 ** (centers + spreads * rng.uniform(-1.0, 1.0, size=(rows, 2000)))
    mean = arr.mean(axis=0)
    half = 1.96 * arr.std(axis=0, ddof=1) / math.sqrt(rows) if rows > 1 else np.zeros(2000)
    assert harness._mean_ci(arr.tolist()) == (mean.tolist(), (mean - half).tolist(),
                                              (mean + half).tolist())


def test_failed_reference_solve_is_a_runtime_failure(tmp_path, capsys):
    # two separable rows: the infimum 0 is not attained, so the solve stops early
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "dataset": {"kind": "libsvm", "path": str(FIXTURES / "scientific_values.libsvm")},
        "reference": "solve", "epochs": 2, "seeds": [1]}))
    out = tmp_path / "results"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 1
    assert re.fullmatch(r"error: reference solve found no minimum \(the value halves as "
                        r"\|\|x\|\| grows\): gradient norm \S+ after 8192 iterations\n",
                        capsys.readouterr().err)
    assert not out.exists()


def test_non_finite_summary_is_a_runtime_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "variance_at_point", lambda objective, w: float("inf"))
    out = tmp_path / "results"
    assert main(["run", "--epochs", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def _tree(path: Path) -> dict:
    return {p.relative_to(path).as_posix(): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


def test_rerun_with_fewer_seeds_leaves_no_stale_csv(tmp_path):
    out = tmp_path / "out"
    run_experiment(quad_config(seeds=[1, 2, 3]), out)
    summary = run_experiment(quad_config(seeds=[1, 2]), out)
    assert sorted(_tree(out)) == ["runs/seed1.csv", "runs/seed2.csv", "summary.json"]
    assert [entry["csv"] for entry in summary.per_seed] == ["runs/seed1.csv", "runs/seed2.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


@pytest.mark.parametrize("failing_write", [1, 2, 3, "rename"])
def test_failed_write_keeps_the_old_output(tmp_path, monkeypatch, capsys, failing_write):
    work = tmp_path / "work"
    out = work / "out"
    run_experiment(quad_config(seeds=[1, 2, 3]), out)
    before = _tree(out)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(quad_config(seeds=[4, 5], epochs=3).to_dict()))
    writes, write_text, replace = [], harness._write_text, os.replace

    def flaky_write(path, text):
        writes.append(path)
        if len(writes) == failing_write:
            raise OSError("disk full")
        write_text(path, text)

    def flaky_replace(src, dst):
        # moving the new tree onto out fails, and moving the old one back does not
        if failing_write == "rename" and Path(src).name == "new":
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr(harness, "_write_text", flaky_write)
    monkeypatch.setattr(os, "replace", flaky_replace)
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: disk full\n"
    assert _tree(out) == before
    assert sorted(p.name for p in work.iterdir()) == ["out"]  # no staging sibling left


@pytest.mark.parametrize("case", ["file", "foreign-file", "working-directory",
                                  "parent-of-working-directory"])
def test_foreign_out_exits_2_before_the_build(tmp_path, monkeypatch, capsys, case):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    out = {"file": work / "out", "foreign-file": work / "out", "working-directory": Path("."),
           "parent-of-working-directory": tmp_path}[case]
    if case == "file":
        out.write_text("not a directory\n")
    elif case == "foreign-file":
        (out / "runs").mkdir(parents=True)
        (out / "notes.txt").write_text("kept\n")
    before = _tree(tmp_path)
    monkeypatch.setattr(harness, "build_objective", lambda config: pytest.fail("built"))
    assert main(["run", "--epochs", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: output ")
    assert _tree(tmp_path) == before
    assert not list(tmp_path.rglob(".*"))  # no staging sibling
