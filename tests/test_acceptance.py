"""Acceptance suite: one test per criterion, with pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one line per
criterion.  The canonical bound-check instance is the 50-component,
10-dimensional synthetic quadratic (seed 7, unit dispersion) started from the
origin; the rate study starts from the oracle minimizer so the measured gap
is exactly the sampling-noise suboptimality whose decay rate is asserted.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from fixture_manifest import MALFORMED, WELL_FORMED
from shuffleopt.data import Dataset, ParseError, load_libsvm
from shuffleopt.diagnostics import (center_update_errors, check_drift_bound,
                                    convergence_bound, fit_rate,
                                    momentum_reconstruction_errors)
from shuffleopt.harness import ExperimentConfig, run_experiment
from shuffleopt.objectives import (LogisticObjective, SoftmaxObjective,
                                   make_quadratic, variance_at_point)
from shuffleopt.optimizers import DivergenceError, TraceOptions, run
from shuffleopt.schedules import ScheduleKind, ScheduleSpec
from shuffleopt.shuffling import ShufflingScheme, generate_permutation

APPENDIX_GRID = (1.0, 0.5, 0.1, 0.05, 0.01, 0.005, 0.001)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def report(name: str, detail: str):
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def quad():
    objective, x_star, f_star = make_quadratic(50, 10, seed=7, spread=1.0)
    x0 = np.zeros(10)
    return {
        "objective": objective,
        "x_star": x_star,
        "f_star": f_star,
        "sigma_star_sq": variance_at_point(objective, x_star),
        "x0": x0,
        "delta": float(np.sum((x0 - x_star) ** 2)),
        "L": objective.smoothness_bound(),
    }


@pytest.fixture(scope="module")
def deterministic_runs(quad):
    """The criterion-2 runs (IG scheme, thm1 schedule) with diagnostics on;
    shared by the drift and identity criteria."""
    opts = TraceOptions(record_iterates=True, record_inner=True, record_dispersion=True)
    runs = {}
    for T in (4, 8, 16, 32, 64):
        schedule = ScheduleSpec(ScheduleKind.UNIFIED, T=T, L=quad["L"])
        runs[T] = run("nasg", quad["objective"], "ig", schedule, x0=quad["x0"],
                      options=opts)
    return runs


def test_a01_gradient_correctness():
    """Analytic gradients match central finite differences at 1e-6 relative."""
    started = time.perf_counter()
    rng = np.random.default_rng(424242)

    def central_diff(f, w, h=1e-6):
        g = np.zeros_like(w)
        for j in range(w.size):
            hj = h * max(1.0, abs(w[j]))
            e = np.zeros_like(w)
            e[j] = hj
            g[j] = (f(w + e) - f(w - e)) / (2 * hj)
        return g

    def rel(a, b):
        return np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b))

    X = rng.normal(size=(12, 6))
    X[rng.random(size=X.shape) < 0.25] = 0.0
    logistic = LogisticObjective(Dataset.from_dense(
        X, np.where(rng.random(12) < 0.5, -1.0, 1.0)))
    softmax = SoftmaxObjective(Dataset.from_dense(
        rng.normal(size=(10, 4)), rng.integers(0, 3, size=10), c=3))
    quadratic = make_quadratic(8, 5, seed=77)[0]

    checked = 0
    for objective in (logistic, softmax, quadratic):
        for _ in range(20):
            w = rng.normal(size=objective.dim)
            i = int(rng.integers(objective.n))
            fd_comp = central_diff(lambda v, i=i: objective.component_value(v, i), w)
            assert rel(objective.component_gradient(w, i), fd_comp) <= 1e-6
            fd_full = central_diff(objective.full_value, w)
            assert rel(objective.full_gradient(w), fd_full) <= 1e-6
            checked += 2
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report("a01 gradient correctness",
           f"{checked} gradient checks across 3 objectives in {elapsed:.2f}s")


def test_a02_deterministic_schedule_bound(quad, deterministic_runs):
    """Zero-slack final-gap bound for the any-order schedule, T in 4..64."""
    started = time.perf_counter()
    rows = []
    for T, result in deterministic_runs.items():
        gap = result.final_value - quad["f_star"]
        bound = convergence_bound("thm1", T, L=quad["L"],
                                  sigma_star_sq=quad["sigma_star_sq"],
                                  delta=quad["delta"])
        assert gap <= bound, f"T={T}: gap {gap} exceeds bound {bound}"
        rows.append(f"T={T}: {gap:.3g} <= {bound:.3g}")
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report("a02 deterministic bound", "; ".join(rows))


def test_a03_randomized_mean_bound(quad):
    """Seed-mean final gap under reshuffling obeys the in-expectation bound."""
    started = time.perf_counter()
    rows = []
    for T in (8, 32):
        schedule = ScheduleSpec(ScheduleKind.RANDOMIZED, T=T, L=quad["L"])
        finals = [run("nasg", quad["objective"], "rr", schedule, seed=s,
                      x0=quad["x0"]).final_value for s in range(1, 21)]
        mean_gap = float(np.mean(finals)) - quad["f_star"]
        bound = convergence_bound("thm3", T, L=quad["L"],
                                  sigma_star_sq=quad["sigma_star_sq"],
                                  delta=quad["delta"], n=quad["objective"].n)
        assert mean_gap <= bound, f"T={T}: mean gap {mean_gap} exceeds {bound}"
        rows.append(f"T={T}: {mean_gap:.3g} <= {bound:.3g}")
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report("a03 randomized mean bound", "; ".join(rows) + f" over 20 seeds, {elapsed:.2f}s")


def test_a04_variance_regime_bound(quad):
    """Variance-regime schedule with certified theta=0, sigma^2 = sigma*^2."""
    rows = []
    for T in (8, 32):
        schedule = ScheduleSpec(ScheduleKind.VARIANCE, T=T, L=quad["L"], theta=0.0)
        result = run("nasg", quad["objective"], "ig", schedule, x0=quad["x0"])
        gap = result.final_value - quad["f_star"]
        bound = convergence_bound("thm2", T, L=quad["L"], theta=0.0,
                                  sigma_sq=quad["sigma_star_sq"], delta=quad["delta"])
        # theta=0 instantiation: 8 sigma^2/(21 L T) + 2 e 14^(1/3) L delta / T
        explicit = (8.0 * quad["sigma_star_sq"] / (21.0 * quad["L"] * T)
                    + 2.0 * np.e * 14.0 ** (1 / 3) * quad["L"] * quad["delta"] / T)
        assert bound == pytest.approx(explicit, rel=1e-12)
        assert gap <= bound, f"T={T}: gap {gap} exceeds bound {bound}"
        rows.append(f"T={T}: {gap:.3g} <= {bound:.3g}")
    report("a04 variance-regime bound", "; ".join(rows))


def test_a05_rate_slopes(quad):
    """Accelerated sweep decays ~1/T; tuned constant-rate sgd is flatter.

    Both start at the oracle minimizer so the fitted gap is the pure
    sampling-noise suboptimality, the quantity whose O(1/T) decay is claimed;
    any start offset only adds a transient that decays faster than 1/T on
    this instance family and would steepen the fit.
    """
    started = time.perf_counter()
    horizons = (8, 16, 32, 64, 128, 256)
    objective, f_star = quad["objective"], quad["f_star"]
    x_star = quad["x_star"]

    gaps = []
    for T in horizons:
        schedule = ScheduleSpec(ScheduleKind.UNIFIED, T=T, L=quad["L"])
        gaps.append(run("nasg", objective, "ig", schedule, x0=x_star).final_value - f_star)
    nasg_fit = fit_rate(list(zip(horizons, gaps)))
    assert -1.3 <= nasg_fit.slope <= -0.85, f"nasg slope {nasg_fit.slope}"

    seeds = (1, 2, 3)

    def sgd_mean_gap(lr, T):
        schedule = ScheduleSpec(ScheduleKind.CONSTANT, T=T, lr=lr)
        finals = []
        for s in seeds:
            try:
                finals.append(run("sgd", objective, "rr", schedule, seed=s,
                                  x0=x_star).final_value)
            except DivergenceError:
                return None
        return float(np.mean(finals)) - f_star

    tuned = [(lr, sgd_mean_gap(lr, max(horizons))) for lr in APPENDIX_GRID]
    eligible = [(lr, gap) for lr, gap in tuned if gap is not None]
    best_lr = min(eligible, key=lambda p: (p[1], p[0]))[0]
    sgd_fit = fit_rate([(T, sgd_mean_gap(best_lr, T)) for T in horizons])
    assert sgd_fit.slope > nasg_fit.slope, \
        f"sgd slope {sgd_fit.slope} not above nasg slope {nasg_fit.slope}"

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report("a05 rate slopes",
           f"nasg {nasg_fit.slope:.3f} in [-1.3, -0.85]; "
           f"sgd(lr={best_lr}) {sgd_fit.slope:.3f} strictly larger; {elapsed:.1f}s")


def test_a06_inner_drift_bound(quad, deterministic_runs):
    """Within-epoch drift obeys 8 eta^2 (3 L gap + sigma*^2) at every epoch."""
    epochs_checked = 0
    for T, result in deterministic_runs.items():
        for row in result.trace:
            check = check_drift_bound(row.disp_start, row.step_size, quad["L"],
                                      row.value - quad["f_star"],
                                      quad["sigma_star_sq"])
            assert check.satisfied, f"T={T} epoch {row.epoch}: {check.lhs} > {check.rhs}"
            epochs_checked += 1
    report("a06 inner drift bound", f"held at all {epochs_checked} epochs")


def test_a07_momentum_identities(quad, deterministic_runs):
    """Convex-combination reconstructions at 1e-10, center recursion at 1e-9."""
    worst_x = worst_y = worst_v = 0.0
    for result in deterministic_runs.values():
        err_x, err_y = momentum_reconstruction_errors(result.x_snapshots,
                                                      result.y_snapshots)
        err_v = center_update_errors(result, quad["objective"])
        worst_x, worst_y = max(worst_x, err_x), max(worst_y, err_y)
        worst_v = max(worst_v, err_v)
    assert worst_x <= 1e-10 and worst_y <= 1e-10
    assert worst_v <= 1e-9
    report("a07 momentum identities",
           f"reconstruction <= {max(worst_x, worst_y):.2e}, center update <= {worst_v:.2e}")


def test_a08_degeneracy_equivalences(quad):
    """Parameter degenerations reduce each method to its simpler twin."""
    # sgdm with beta=0 is sgd, bitwise
    objective = quad["objective"]
    schedule = ScheduleSpec(ScheduleKind.CONSTANT, T=6, lr=0.05)
    a = run("sgd", objective, "rr", schedule, seed=9, x0=quad["x0"])
    b = run("sgdm", objective, "rr", schedule, seed=9, x0=quad["x0"], sgdm_beta=0.0)
    assert a.final_x.tobytes() == b.final_x.tobytes()
    assert [r.value for r in a.trace] == [r.value for r in b.trace]

    # full-batch incremental nasg is the classical full-gradient method
    schedule = ScheduleSpec(ScheduleKind.UNIFIED, T=16, L=quad["L"])
    opts = TraceOptions(record_iterates=True)
    nasg_full = run("nasg", objective, "ig", schedule, batch_size=objective.n,
                    x0=quad["x0"], options=opts)
    nag = run("nag", objective, "ig", schedule, x0=quad["x0"], options=opts)
    worst = 0.0
    for xa, xb in zip(nasg_full.x_snapshots, nag.x_snapshots):
        worst = max(worst, np.linalg.norm(xa - xb) / max(1.0, np.linalg.norm(xb)))
    assert worst <= 1e-12

    # single-shuffle orders are epoch-independent; incremental is the identity
    ss = ShufflingScheme("ss", base_seed=3)
    first = generate_permutation(ss, 50, 1)
    assert all(np.array_equal(first, generate_permutation(ss, 50, t))
               for t in range(2, 8))
    ig = ShufflingScheme("ig", base_seed=3)
    assert generate_permutation(ig, 50, 5).tolist() == list(range(50))

    report("a08 degeneracy equivalences",
           f"sgdm(0)=sgd bitwise; nasg(full batch)=nag to {worst:.2e}; ss epoch-fixed; ig identity")


def test_a09_artifact_determinism(tmp_path):
    """Identical configs produce byte-identical CSV/JSON artifacts."""
    config_dict = {
        "dataset": {"kind": "quadratic", "n": 50, "d": 10, "seed": 7, "spread": 1.0},
        "optimizer": "nasg", "scheme": "rr", "schedule": {"kind": "thm1"},
        "epochs": 10, "seeds": [1, 2, 3], "bounds": ["thm1", "thm3"],
        "record_dispersion": True,
    }
    a, b = tmp_path / "first", tmp_path / "second"
    run_experiment(ExperimentConfig.from_dict(config_dict), a)
    run_experiment(ExperimentConfig.from_dict(config_dict), b)
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files  # summary + per-seed CSVs
    for rel in files:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    report("a09 artifact determinism", f"{len(files)} files byte-identical on re-run")


def test_a10_parser_corpus():
    """The documented fixture corpus parses as expected; malformed inputs
    fail with located errors."""
    assert len(WELL_FORMED) >= 10
    for name, expected in WELL_FORMED.items():
        ds = load_libsvm(FIXTURES / name)
        assert (ds.n, ds.d, ds.c) == (expected["n"], expected["d"], expected["c"]), name
        if "labels" in expected:
            assert ds.labels.tolist() == expected["labels"], name
    for name, (fragment, line) in MALFORMED.items():
        with pytest.raises(ParseError) as err:
            load_libsvm(FIXTURES / "malformed" / name)
        assert fragment in str(err.value), name
        assert err.value.line == line, name
    report("a10 parser corpus",
           f"{len(WELL_FORMED)} well-formed and {len(MALFORMED)} malformed fixtures")


def test_a11_tuned_comparison_report(tmp_path):
    """Tuned nasg vs tuned shuffled sgd on the bundled 600-sample
    classification set, 50 epochs, 10 seeds.  The outcome must reproduce the
    committed report, `reports/qualitative_comparison.json`: the selected
    rates and the nasg <= sgd flag exactly, the mean final losses and
    accuracies at 1e-9 relative, as perfbench's `blobs-tuned` checks them."""
    dataset_path = FIXTURES / "blobs600.libsvm"
    if not dataset_path.exists():
        pytest.skip("no local dataset file")
    started = time.perf_counter()
    seeds = list(range(1, 11))

    def tuned_summary(optimizer, out):
        tune = ExperimentConfig.from_dict({
            "dataset": {"kind": "libsvm", "path": str(dataset_path),
                        "objective": "logistic"},
            "optimizer": optimizer, "scheme": "rr", "grid": list(APPENDIX_GRID),
            "epochs": 50, "seeds": [1], "label": f"{optimizer}-tune",
        })
        tuned = run_experiment(tune, out / "tune")
        final = ExperimentConfig.from_dict({
            "dataset": {"kind": "libsvm", "path": str(dataset_path),
                        "objective": "logistic"},
            "optimizer": optimizer, "scheme": "rr",
            "schedule": {"kind": "constant", "lr": tuned.selected_lr},
            "epochs": 50, "seeds": seeds, "label": optimizer,
            "record_accuracy": True,
        })
        return tuned.selected_lr, run_experiment(final, out / "final")

    nasg_lr, nasg = tuned_summary("nasg", tmp_path / "nasg")
    sgd_lr, sgd = tuned_summary("sgd", tmp_path / "sgd")
    nasg_final = nasg.value_mean[-1]
    sgd_final = sgd.value_mean[-1]
    outcome = {
        "dataset": dataset_path.name,
        "epochs": 50,
        "seeds": seeds,
        "nasg": {"lr": nasg_lr, "mean_final_loss": nasg_final,
                 "mean_final_accuracy": nasg.accuracy_mean[-1]},
        "sgd": {"lr": sgd_lr, "mean_final_loss": sgd_final,
                "mean_final_accuracy": sgd.accuracy_mean[-1]},
        "nasg_at_most_sgd": bool(nasg_final <= sgd_final),
    }
    # reports/qualitative_comparison.json is the committed reference copy;
    # the test writes its own next to its other artifacts
    report_path = tmp_path / "qualitative_comparison.json"
    report_path.write_text(json.dumps(outcome, indent=2, sort_keys=True) + "\n")
    committed = json.loads((FIXTURES.parent / "reports" / "qualitative_comparison.json")
                           .read_text(encoding="utf-8"))
    for method in ("nasg", "sgd"):
        got, expected = outcome.pop(method), committed.pop(method)
        assert got["lr"] == expected["lr"], method
        for key in ("mean_final_loss", "mean_final_accuracy"):
            assert got[key] == pytest.approx(expected[key], rel=1e-9, abs=0.0), (method, key)
    assert outcome == committed
    elapsed = time.perf_counter() - started
    verdict = "attained" if outcome["nasg_at_most_sgd"] else "did NOT attain"
    report("a11 tuned comparison",
           f"nasg(lr={nasg_lr}) final {nasg_final:.6f} {verdict} <= "
           f"sgd(lr={sgd_lr}) final {sgd_final:.6f}; report at {report_path}; {elapsed:.1f}s")
