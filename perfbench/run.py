"""shuffleopt benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see workloads.py): blobs-tuned, sparse-wide, quad-rate; ``all``
runs each of them, untraced and traced, in its own fresh process and prints
every metric.  The program comes from ``src/`` of the same checkout; nothing
is built or installed.

``--trace 0`` runs whole passes over the workload's experiments until the
next pass would overrun ``--seconds`` (at least one pass), and prints the
end-to-end metrics: medians over passes, plus the median set-up time of
fresh processes.  ``--trace 1`` runs one untraced and one traced pass and the
isolated microbenchmarks, and prints the per-layer metrics.  Every pass's
outputs are checked: pinned final values, the workload's own checks and
byte-identical artifacts across passes.  The last line of stdout is one JSON
object; the exit code is nonzero when any check failed.

``--smoke`` shrinks every size for the benchmark's own tests.  Scratch files
go under ``perfbench/.work``, which the run cleans up except for the span
dump of traced runs and the bytecode cache.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
# set-up probes import from a warm bytecode cache, kept out of src/
os.environ["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
sys.pycache_prefix = os.environ["PYTHONPYCACHEPREFIX"]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import micro  # noqa: E402
import workloads  # noqa: E402
from tracer import StepCounter, Tracer  # noqa: E402

SETUP_PROBES = 7
COVERAGE_TOLERANCE = 0.05
END_TO_END_UNITS = {"experiment_s": "s", "experiment_cpu_s": "s",
                    "sample_steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = done.stdout.strip() or None
    return {"git_sha": sha, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "loadavg": list(os.getloadavg())}


def run_pass(workload: workloads.Workload, out: Path) -> workloads.Pass:
    """Runs every experiment of one pass back to back; the timed span is the
    pass alone, checks come after it."""
    counter = StepCounter()
    errors = {}
    names = []
    with counter.installed():
        started, cpu_started = time.perf_counter(), time.process_time()
        for name, experiment in workload.plan(out):
            names.append(name)
            try:
                experiment()
            except Exception:  # a failed experiment is counted, the pass goes on
                errors[name] = traceback.format_exc()
        wall, cpu = time.perf_counter() - started, time.process_time() - cpu_started
    return workloads.Pass(wall, cpu, counter.steps, names, errors)


def setup_seconds(workload: workloads.Workload, work: Path) -> list[float]:
    """Set-up time of fresh processes; the first, which may fill the bytecode
    cache, is not counted."""
    config = work / "setup-config.json"
    config.write_text(json.dumps(workload.setup_config()), encoding="utf-8")
    times = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(config)],
                              cwd=work, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times[1:]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(workload, ledger, seconds: float, work: Path) -> dict:
    setups = setup_seconds(workload, work)
    passes = []
    started = time.perf_counter()
    while True:
        out = work / f"pass{len(passes)}"
        passes.append(run_pass(workload, out))
        ledger.check(passes[-1], out)
        shutil.rmtree(out)
        if time.perf_counter() - started + passes[-1].wall > seconds:
            break
    if len({p.steps for p in passes}) != 1 or passes[0].steps == 0:
        print(f"FAIL component steps per pass: {[p.steps for p in passes]}", file=sys.stderr)
        ledger.failed += 1
    values = {
        "experiment_s": statistics.median(p.wall for p in passes),
        "experiment_cpu_s": statistics.median(p.cpu for p in passes),
        "sample_steps_per_s": statistics.median(p.steps / p.wall for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    counts = {"setup_s": f"median of {len(setups)} processes",
              "peak_rss_mb": "peak of the process"}
    for name, value in values.items():
        print(f"{name:<20} {value:<10.6g} {END_TO_END_UNITS[name]:<4} "
              f"{counts.get(name, f'median of {len(passes)} passes')}")
    print(f"{'error_rate':<20} {ledger.failed / ledger.attempted:.6g}      "
          f"{ledger.failed} of {ledger.attempted} experiments failed")
    return {name: metric(value, END_TO_END_UNITS[name]) for name, value in values.items()}


def traced_run(workload, ledger, seed: int, smoke: bool, work: Path) -> dict:
    plain = run_pass(workload, work / "plain")
    ledger.check(plain, work / "plain")
    tracer = Tracer()
    with tracer.installed():
        traced = run_pass(workload, work / "traced")
    ledger.check(traced, work / "traced")
    tracer.write(WORK / "traces" / f"{workload.name}-seed{seed}")

    totals = tracer.layer_totals()
    coverage = sum(self_s for self_s, _ in totals.values()) / traced.wall
    if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
        print(f"FAIL layer self times cover {coverage:.3f} of the traced pass",
              file=sys.stderr)
        ledger.failed += 1
    out = {}
    for layer, (self_s, calls) in totals.items():
        note = "  (absent)" if layer in tracer.absent else ""
        print(f"{layer:<34} self {self_s:10.4f} s  calls {calls:>9}{note}")
        out[f"{layer}.self_s"] = metric(self_s, "s")
        out[f"{layer}.calls"] = metric(calls, "count")
    out["objectives.component_grads"] = metric(tracer.component_grads, "count")
    out["tracing.overhead_s"] = metric(traced.wall - plain.wall, "s")
    out["tracing.coverage"] = metric(coverage, "ratio")
    print(f"traced pass {traced.wall:.4f} s, untraced {plain.wall:.4f} s, "
          f"self times cover {coverage:.4f}")
    units = {"us_per_sample": "us", "us_per_epoch": "us", "permutation_ms": "ms",
             "trace_eval_us": "us", "reference_solve_s": "s", "parse_mb_per_s": "MB/s"}
    for name, value in micro.all_costs(ROOT, work, smoke).items():
        unit = units[name.split(".")[1]]
        print(f"{name:<42} {value:.6g} {unit}")
        out[name] = metric(value, unit)
    return out


def run_workload(args, work: Path) -> int:
    print("# env " + json.dumps(environment()))
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.smoke, work)
    print(f"# workload {workload.name} seed {args.seed} instance {workload.instance} "
          f"trace {args.trace}")
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    scale = "smoke" if args.smoke else "full"
    ledger = workloads.Ledger(workload,
                              pins[scale][workload.name].get(str(workload.instance), {}))
    if args.trace:
        metrics = traced_run(workload, ledger, args.seed, args.smoke, work)
    else:
        metrics = timed_run(workload, ledger, args.seconds, work)
    correct = ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    attempted = failed = 0
    codes = []
    metrics = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, capture_output=True, text=True, timeout=900)
            sys.stderr.write(done.stderr)
            lines = done.stdout.splitlines()
            result = {"attempted": 0, "failed": 0, "metrics": {}}
            if lines and lines[-1].startswith("{"):
                result = json.loads(lines.pop())
            for line in lines:
                print(f"[{name} trace {trace}] {line}")
            codes.append(done.returncode)
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}/{key}": value for key, value in result["metrics"].items()})
    correct = failed == 0 and not any(codes)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
