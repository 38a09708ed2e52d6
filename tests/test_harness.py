import json
from pathlib import Path

import numpy as np
import pytest

from shuffleopt import harness
from shuffleopt.cli import main
from shuffleopt.harness import (ConfigError, ExperimentConfig, HarnessError,
                                RunSummary, emit_plot_data, run_experiment)
from shuffleopt.objectives import make_quadratic

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
        calls.append(args[3].T)
        return run(*args, **kwargs)

    run = harness.run
    monkeypatch.setattr(harness, "run", counted)
    sweep = {"optimizer": "sgd", "scheme": "rr", "epochs": 8, "seeds": [1, 2],
             "rate_epochs": [4, 8, 16]}
    summary = run_experiment(quad_config(grid=[25.0, 0.2, 0.05], schedule={"kind": "constant"},
                                         **sweep), tmp_path / "grid")
    # 3 grid rates at T = 8, then the horizons 4 and 16; T = 8 reuses the primary runs
    assert sorted(calls) == [4, 4] + [8] * 6 + [16, 16]
    fixed = run_experiment(
        quad_config(schedule={"kind": "constant", "lr": summary.selected_lr}, **sweep),
        tmp_path / "fixed")
    assert summary.rate == fixed.rate


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


def test_emit_plot_data_missing_metric(tmp_path):
    config = quad_config(reference="none")
    summary = run_experiment(config, tmp_path / "runs")
    with pytest.raises(ValueError, match="no gap series"):
        emit_plot_data([summary], tmp_path / "plot.csv", metric="gap")


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


def test_cli_libsvm_dataset(tmp_path):
    fixture = Path(__file__).parent.parent / "fixtures" / "binary_pm1.libsvm"
    out = tmp_path / "results"
    code = main(["run", "--dataset", str(fixture), "--optimizer", "sgd",
                 "--lr", "0.1", "--epochs", "2", "--seeds", "1", "--out", str(out)])
    assert code == 0


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
}
BAD_FLAGS = {"theta-without-thm2": ["--theta", "0.5"]}


@pytest.mark.parametrize("probe", sorted(BAD_CONFIGS))
def test_cli_rejects_config_before_any_artifact(tmp_path, capsys, probe):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"epochs": 2, **BAD_CONFIGS[probe]}))
    out = tmp_path / "results"
    argv = ["run", "--config", str(config_path), "--out", str(out), *BAD_FLAGS.get(probe, [])]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


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
