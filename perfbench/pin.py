"""Regenerates pins.json: the final values of every experiment of every
workload instance, at full and smoke sizes, as the current program computes
them.

    python3 perfbench/pin.py

Run it only when the program's results are meant to change.
"""

import json
import shutil
import tempfile
from pathlib import Path

import run
import workloads


def pin_instance(cls, instance: int, smoke: bool) -> dict:
    work = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        workload = cls(run.ROOT, instance, smoke, work)
        result = run.run_pass(workload, work / "out")
        if result.errors:
            raise RuntimeError(f"{cls.name} instance {instance}: {result.errors}")
        summaries = {name: json.loads((work / "out" / name / "summary.json").read_text())
                     for name in result.names}
    finally:
        shutil.rmtree(work)
    pinned = {name: workloads.finals(summary) for name, summary in summaries.items()}
    if smoke and cls is workloads.BlobsTuned:
        pinned["report"] = {
            optimizer: {"lr": summaries[f"final-{optimizer}"]["config"]["schedule"]["lr"],
                        "mean_final_loss": summaries[f"final-{optimizer}"]["value_mean"][-1],
                        "mean_final_accuracy":
                            summaries[f"final-{optimizer}"]["accuracy_mean"][-1]}
            for optimizer in ("nasg", "sgd")}
    return pinned


def main():
    run.WORK.mkdir(parents=True, exist_ok=True)
    pins = {}
    for scale in ("full", "smoke"):
        pins[scale] = {}
        for name, cls in workloads.WORKLOADS.items():
            count = workloads.N_INSTANCES if cls.seed_dependent else 1
            pins[scale][name] = {str(i): pin_instance(cls, i, scale == "smoke")
                                 for i in range(count)}
            print(scale, name, "pinned", flush=True)
    (run.HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
