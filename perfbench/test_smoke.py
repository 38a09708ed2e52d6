"""Smoke test of the benchmark itself: every workload at tiny sizes, untraced
and traced, through every output check; each check catching a wrong output;
and a clean failure where the program is missing.

    python3 -m pytest perfbench/test_smoke.py
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *BENCHMARK["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_passes_every_check(workload, trace):
    done = _bench(ROOT, "--workload", workload, "--seed", "11", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns(".work"))
    done = _bench(tmp_path, "--workload", BENCHMARK["workloads"][0]["name"], "--seed", "1",
                  "--seconds", "1", "--trace", "0", "--smoke")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_pin_check_tolerance():
    pinned = {"seed1.final_value": 0.5, "selected_lr": None, "seed1.epochs_completed": 50}
    assert workloads.compare_pins(dict(pinned, **{"seed1.final_value": 0.5 * (1 + 1e-12)}),
                                  pinned) == []
    assert workloads.compare_pins(dict(pinned, **{"seed1.final_value": 0.5 * (1 + 1e-8)}),
                                  pinned)
    assert workloads.compare_pins(dict(pinned, **{"seed1.epochs_completed": 49}), pinned)
    assert workloads.compare_pins(dict(pinned, extra=1.0), pinned)
    assert workloads.compare_pins(pinned, None)


def test_report_check(tmp_path):
    blobs = workloads.BlobsTuned(ROOT, 0, False, tmp_path)
    report = blobs.expected_report()["nasg"]
    summary = {"config": {"schedule": {"lr": report["lr"]}},
               "value_mean": [report["mean_final_loss"]],
               "accuracy_mean": [report["mean_final_accuracy"]]}
    assert blobs.check("final-nasg", summary) == []
    for wrong in ({"config": {"schedule": {"lr": report["lr"] / 2}}},
                  {"value_mean": [report["mean_final_loss"] * (1 + 1e-8)]},
                  {"accuracy_mean": [report["mean_final_accuracy"] - 1e-3]}):
        assert blobs.check("final-nasg", dict(summary, **wrong))


def test_bound_check(tmp_path):
    quad = workloads.QuadRate(ROOT, 0, True, tmp_path)
    summary = {"bounds": [{"regime": r, "satisfied": True} for r in ("thm1", "thm3")],
               "rate": {"slope": -1.0}}
    assert quad.check("rate", summary) == []
    broken = copy.deepcopy(summary)
    broken["bounds"][1]["satisfied"] = False
    assert quad.check("rate", broken)
    assert quad.check("rate", dict(summary, bounds=summary["bounds"][:1]))
    assert quad.check("rate", dict(summary, rate=None))


def test_artifacts_must_repeat(tmp_path):
    class Fixed(workloads.Workload):
        name = "fixed"

    summary = {"per_seed": [], "grid": None, "selected_lr": None, "value_mean": [],
               "accuracy_mean": None, "bounds": [], "rate": None}
    ledger = workloads.Ledger(Fixed(ROOT, 0, True, tmp_path),
                              {"exp": workloads.finals(summary)})
    for repeat, text in enumerate(("1,2\n", "1,2\n", "1,3\n")):
        out = tmp_path / f"pass{repeat}"
        (out / "exp" / "runs").mkdir(parents=True)
        (out / "exp" / "summary.json").write_text(json.dumps(summary))
        (out / "exp" / "runs" / "seed1.csv").write_text(text)
        ledger.check(workloads.Pass(1.0, 1.0, 1, ["exp"], {}), out)
    assert (ledger.attempted, ledger.failed) == (3, 1)
