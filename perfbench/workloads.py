"""The benchmark's workloads: inputs generated from the benchmark seed, the
experiments of one pass, and each workload's own output checks.

Each workload turns ``--seed`` into one of ``N_INSTANCES`` input instances
(``seed % N_INSTANCES``).  Final values of every instance are pinned in
``pins.json``, so every run can check its outputs against the values the
pinned commit produced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from shuffleopt import cli, harness, prng

N_INSTANCES = 8
APPENDIX_GRID = (1.0, 0.5, 0.1, 0.05, 0.01, 0.005, 0.001)

# stream tags of the generated sparse logistic instances
_COLUMNS_TAG = 0x636F6C73
_VALUES_TAG = 0x76616C73
_PLANT_TAG = 0x706C616E
_FLIP_TAG = 0x666C6970
_FLIP_PERCENT = 5


def sparse_logistic_libsvm(seed: int, n: int, d: int, nnz: int) -> str:
    """LIBSVM text of a planted binary logistic problem.

    Every row has min(nnz, d) distinct columns with standard normal values;
    the label is the sign of the row's score under a standard normal planted
    weight vector, flipped for about 5% of the rows.
    """
    k = min(nnz, d)
    values = prng.standard_normals(prng.derive_key(seed, _VALUES_TAG), n * k).tolist()
    planted = prng.standard_normals(prng.derive_key(seed, _PLANT_TAG), d)
    flips = (prng.words(prng.derive_key(seed, _FLIP_TAG), n) % 100).tolist()
    columns_key = prng.derive_key(seed, _COLUMNS_TAG)
    lines = []
    for i in range(n):
        distinct: dict[int, None] = {}
        block = 0
        while len(distinct) < k:
            draws = prng.words(prng.derive_key(columns_key, i * 64 + block), 4 * k) % d
            distinct.update(dict.fromkeys(draws.tolist()))
            block += 1
        cols = sorted(list(distinct)[:k])
        vals = values[i * k:(i + 1) * k]
        score = sum(v * planted[c] for c, v in zip(cols, vals))
        positive = (score >= 0.0) != (flips[i] < _FLIP_PERCENT)
        features = " ".join(f"{c + 1}:{v!r}" for c, v in zip(cols, vals))
        lines.append(("+1 " if positive else "-1 ") + features)
    return "\n".join(lines) + "\n"


class Workload:
    """One pass is ``plan(out)``: named experiments, run in order, each
    writing its artifacts into ``out / name``."""

    name = ""
    seed_dependent = True

    def __init__(self, root: Path, seed: int, smoke: bool, work: Path):
        self.instance = seed % N_INSTANCES if self.seed_dependent else 0
        self.smoke = smoke
        self.root = root

    def setup_config(self) -> dict:
        """The config whose build_objective the set-up probe times."""
        raise NotImplementedError

    def plan(self, out: Path) -> list:
        raise NotImplementedError

    def check(self, name: str, summary: dict) -> list[str]:
        """Workload-specific output checks; returns failure messages."""
        return []


class BlobsTuned(Workload):
    """The tuned nasg-vs-sgd comparison on the bundled blobs600 set: grid
    search on seed 1, then the selected rate over 10 seeds."""

    name = "blobs-tuned"
    seed_dependent = False

    def __init__(self, root, seed, smoke, work):
        super().__init__(root, seed, smoke, work)
        self.dataset = {"kind": "libsvm", "objective": "logistic",
                        "path": str(root / "fixtures" / "blobs600.libsvm")}
        if smoke:
            self.epochs, self.grid, self.seeds = 3, (0.5, 0.005), [1, 2]
        else:
            self.epochs, self.grid, self.seeds = 50, APPENDIX_GRID, list(range(1, 11))
        self.selected: dict[str, float] = {}

    def expected_report(self) -> dict:
        """The reported comparison: the committed report at full size; at
        smoke size, the pinned one, which has the same layout."""
        if self.smoke:
            pins = json.loads((Path(__file__).parent / "pins.json").read_text())
            return pins["smoke"][self.name]["0"]["report"]
        report = self.root / "reports" / "qualitative_comparison.json"
        return json.loads(report.read_text(encoding="utf-8"))

    def _final(self, optimizer: str, lr: float) -> dict:
        return {"dataset": self.dataset, "optimizer": optimizer, "scheme": "rr",
                "schedule": {"kind": "constant", "lr": lr}, "epochs": self.epochs,
                "seeds": self.seeds, "label": optimizer, "record_accuracy": True,
                "reference": "solve"}

    def setup_config(self):
        return self._final("nasg", self.grid[0])

    def plan(self, out):
        steps = []
        for optimizer in ("nasg", "sgd"):
            steps.append((f"tune-{optimizer}", lambda o=optimizer: self._tune(o, out)))
            steps.append((f"final-{optimizer}", lambda o=optimizer: harness.run_experiment(
                harness.ExperimentConfig.from_dict(self._final(o, self.selected[o])),
                out / f"final-{o}")))
        return steps

    def _tune(self, optimizer, out):
        config = harness.ExperimentConfig.from_dict({
            "dataset": self.dataset, "optimizer": optimizer, "scheme": "rr",
            "grid": list(self.grid), "epochs": self.epochs, "seeds": [1],
            "label": f"{optimizer}-tune"})
        self.selected[optimizer] = harness.run_experiment(
            config, out / f"tune-{optimizer}").selected_lr

    def check(self, name, summary):
        if not name.startswith("final-"):
            return []
        expected = self.expected_report()[name.removeprefix("final-")]
        failures = []
        lr = summary["config"]["schedule"]["lr"]
        if lr != expected["lr"]:
            failures.append(f"selected lr {lr!r} != reported {expected['lr']!r}")
        for key, series in (("mean_final_loss", "value_mean"),
                            ("mean_final_accuracy", "accuracy_mean")):
            got = summary[series][-1] if summary[series] else None
            if not close(got, expected[key]):
                failures.append(f"{key} {got!r} != reported {expected[key]!r}")
        return failures


class SparseWide(Workload):
    """Generated wide sparse logistic data: nasg and with-replacement sgd at
    batch 1, sgdm and adam at batch 16."""

    name = "sparse-wide"
    RUNS = (("nasg", 1, 100.0, False), ("sgd", 1, 0.05, True),
            ("sgdm", 16, 0.05, False), ("adam", 16, 0.01, False))

    def __init__(self, root, seed, smoke, work):
        super().__init__(root, seed, smoke, work)
        n, self.dim, self.epochs = (200, 5000, 2) if smoke else (2000, 50000, 5)
        self.path = work / f"sparse-wide-{self.instance}.libsvm"
        self.path.write_text(sparse_logistic_libsvm(self.instance, n, self.dim, 8),
                             encoding="utf-8")

    def _config(self, optimizer, batch, lr, with_replacement):
        return {"dataset": {"kind": "libsvm", "objective": "logistic",
                            "path": str(self.path), "dim": self.dim},
                "optimizer": optimizer, "scheme": "rr", "batch_size": batch,
                "schedule": {"kind": "constant", "lr": lr}, "epochs": self.epochs,
                "seeds": [1, 2], "with_replacement": with_replacement}

    def setup_config(self):
        return self._config(*self.RUNS[0])

    def plan(self, out):
        return [(run[0], lambda r=run: harness.run_experiment(
                    harness.ExperimentConfig.from_dict(self._config(*r)), out / r[0]))
                for run in self.RUNS]

    def check(self, name, summary):
        if summary["degraded"]:
            return ["a seed diverged"]
        return []


class QuadRate(Workload):
    """Rate sweep of nasg on a synthetic quadratic through the CLI, with bound
    reports and inner-iterate dispersion."""

    name = "quad-rate"

    def __init__(self, root, seed, smoke, work):
        super().__init__(root, seed, smoke, work)
        n, d, epochs, horizons = (50, 5, 8, [4, 8, 16]) if smoke \
            else (500, 50, 32, [8, 16, 32, 64, 128])
        self.config = {"dataset": {"kind": "quadratic", "n": n, "d": d,
                                   "seed": self.instance, "spread": 1.0},
                       "optimizer": "nasg", "scheme": "rr", "schedule": {"kind": "thm3"},
                       "epochs": epochs, "seeds": [1, 2, 3], "rate_epochs": horizons,
                       "bounds": ["thm1", "thm3"], "record_dispersion": True,
                       "reference": "closed-form"}
        self.path = work / "quad-rate.json"
        self.path.write_text(json.dumps(self.config), encoding="utf-8")

    def setup_config(self):
        return self.config

    def plan(self, out):
        def rate():
            # the CLI's report would break the benchmark's parseable stdout
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", "--config", str(self.path), "--out", str(out / "rate")])
            if code != 0:
                raise RuntimeError(f"shuffleopt run exited with {code}")
        return [("rate", rate)]

    def check(self, name, summary):
        failures = [f"bound {b['regime']} not satisfied" for b in summary["bounds"]
                    if not b["satisfied"]]
        if len(summary["bounds"]) != len(self.config["bounds"]):
            failures.append("missing bound reports")
        if summary["rate"] is None:
            failures.append("missing rate fit")
        return failures


WORKLOADS = {w.name: w for w in (BlobsTuned, SparseWide, QuadRate)}


def close(got, expected, rel: float = 1e-9) -> bool:
    """Equal, or both numbers within `rel` relative of each other."""
    if isinstance(got, (int, float)) and isinstance(expected, (int, float)) \
            and not isinstance(got, bool) and not isinstance(expected, bool):
        return abs(got - expected) <= rel * max(abs(got), abs(expected))
    return got == expected


def finals(summary: dict) -> dict:
    """The final values of one experiment that the pins hold."""
    out = {}
    for entry in summary["per_seed"]:
        out[f"seed{entry['seed']}.final_value"] = entry["final_value"]
        out[f"seed{entry['seed']}.epochs_completed"] = entry["epochs_completed"]
    for row in summary["grid"] or []:
        out[f"grid{row['lr']!r}.mean_final_value"] = row["mean_final_value"]
    out["selected_lr"] = summary["selected_lr"]
    for key in ("value_mean", "accuracy_mean"):
        out[key] = summary[key][-1] if summary[key] else None
    for report in summary["bounds"]:
        for row in report["rows"]:
            out[f"bound.{report['regime']}.seed{row['seed']}.gap"] = row["gap"]
    if summary["rate"] is not None:
        for T, gap in zip(summary["rate"]["epochs"], summary["rate"]["mean_gaps"]):
            out[f"rate.T{T}.mean_gap"] = gap
        out["rate.slope"] = summary["rate"]["slope"]
    return out


def compare_pins(got: dict, pinned: dict | None) -> list[str]:
    if pinned is None:
        return ["no pinned values for this experiment"]
    failures = [f"{key}: {got.get(key)!r} != pinned {value!r}"
                for key, value in pinned.items() if not close(got.get(key), value)]
    failures += [f"{key}: not pinned" for key in got.keys() - pinned.keys()]
    return failures


@dataclass
class Pass:
    """One pass: wall and CPU seconds, component steps completed, experiment
    names in run order, and the traceback of each experiment that raised."""

    wall: float
    cpu: float
    steps: int
    names: list
    errors: dict


@dataclass
class Ledger:
    """Checks every pass's outputs; counts experiments attempted and failed."""

    workload: Workload
    pins: dict
    attempted: int = 0
    failed: int = 0
    digests: dict = field(default_factory=dict)

    def check(self, result: Pass, out: Path):
        for name in result.names:
            failures = [result.errors[name]] if name in result.errors else self._outputs(name, out)
            self.attempted += 1
            if failures:
                self.failed += 1
                for failure in failures:
                    print(f"FAIL {self.workload.name}/{name}: {failure}", file=sys.stderr)

    def _outputs(self, name: str, out: Path) -> list[str]:
        summary_path = out / name / "summary.json"
        if not summary_path.exists():
            return ["no summary.json"]
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        failures = compare_pins(finals(summary), self.pins.get(name))
        failures += self.workload.check(name, summary)
        digest = {str(p.relative_to(out / name)): hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted((out / name).rglob("*")) if p.is_file()}
        if self.digests.setdefault(name, digest) != digest:
            failures.append("artifacts differ from the first pass")
        return failures
