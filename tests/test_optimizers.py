import hashlib
import warnings
from pathlib import Path

import numpy as np
import pytest

from shuffleopt.data import Dataset, load_libsvm
from shuffleopt.objectives import (LogisticObjective, QuadraticObjective, SoftmaxObjective,
                                   make_quadratic)
from shuffleopt.optimizers import DivergenceError, TraceOptions, run
from shuffleopt.diagnostics import (center_update_errors, convergence_bound,
                                    epoch_dispersion, momentum_reconstruction_errors)
from shuffleopt.schedules import ScheduleKind, ScheduleSpec, epoch_step_size

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
RECORD_ALL = TraceOptions(record_iterates=True, record_inner=True)


def single_quadratic():
    return QuadraticObjective(np.array([[0.0]]))  # f(w) = w^2 / 2


def two_component_quadratic():
    return QuadraticObjective(np.array([[1.0], [-1.0]]))


def constant(lr, T=1):
    return ScheduleSpec(ScheduleKind.CONSTANT, T=T, lr=lr)


def hand_run(optimizer, objective, lr, x0, T=1, options=RECORD_ALL):
    """Deterministic hand-traceable run: the ig order visits components in
    storage order every epoch."""
    return run(optimizer, objective, "ig", constant(lr, T), x0=np.array(x0, dtype=np.float64),
               options=options)


# ------------------------------------------------------------------- nasg

def test_nasg_single_component_hand_trace():
    res = hand_run("nasg", single_quadratic(), 0.5, [1.0])
    assert res.x_snapshots[1].tolist() == [0.5]
    assert res.y_snapshots[1].tolist() == [0.5]  # gamma_1 = 0


def test_nasg_two_component_hand_trace():
    res = hand_run("nasg", two_component_quadratic(), 1.0, [0.0])
    assert res.inner_iterates[0].ravel().tolist() == [0.0, 0.5, -0.25]
    assert res.x_snapshots[1].tolist() == [-0.25]
    assert res.y_snapshots[1].tolist() == [-0.25]


def test_nasg_second_epoch_momentum():
    # epoch 2 sweeps from y_1 = -0.25: 0.375, then -0.3125 = x_2
    res = hand_run("nasg", two_component_quadratic(), 1.0, [0.0], T=2)
    a, c = res.x_snapshots[1], res.x_snapshots[2]
    assert res.inner_iterates[1].ravel().tolist() == [-0.25, 0.375, -0.3125]
    assert c.tolist() == [-0.3125]
    assert np.allclose(res.y_snapshots[2], c + 0.25 * (c - a), rtol=0, atol=1e-16)
    assert res.y_snapshots[2].tolist() == [-0.328125]


def test_nasg_gamma_invariant_along_run():
    obj, _, _ = make_quadratic(12, 3, seed=4)
    sched = ScheduleSpec(ScheduleKind.UNIFIED, T=10, L=1.0)
    res = run("nasg", obj, "rr", sched, seed=5, options=TraceOptions(record_iterates=True))
    for t in range(1, 11):
        gamma = (t - 1) / (t + 2)
        expected = res.x_snapshots[t] + gamma * (res.x_snapshots[t] - res.x_snapshots[t - 1])
        assert np.allclose(res.y_snapshots[t], expected, rtol=0, atol=1e-15)


# ---------------------------------------------------------------- nasg-pi

def reference_pi_sweep(centers, x0, y0, eta_t, t):
    """Straight-line re-implementation of the per-iteration variant."""
    n = len(centers)
    gamma = (t - 1) / (t + 2)
    x, y = float(x0), float(y0)
    for i in range(n):
        g = y - centers[i]
        x_new = y - (eta_t / n) * g
        y = x_new + gamma * (x_new - x)
        x = x_new
    return x, y


def test_nasg_pi_single_component_matches_nasg():
    a = hand_run("nasg", single_quadratic(), 0.5, [1.0], T=2)
    b = hand_run("nasg-pi", single_quadratic(), 0.5, [1.0], T=2)
    for xa, xb in zip(a.x_snapshots, b.x_snapshots):
        assert np.array_equal(xa, xb)
    for ya, yb in zip(a.y_snapshots, b.y_snapshots):
        assert np.array_equal(ya, yb)


def test_nasg_pi_first_epoch_equals_nasg_sweep():
    # ig over the reordered centers replays the order [1, 0] of [[1], [-1]]
    obj = QuadraticObjective(np.array([[-1.0], [1.0]]))
    a = hand_run("nasg", obj, 0.8, [0.3])
    b = hand_run("nasg-pi", obj, 0.8, [0.3])
    assert np.array_equal(a.inner_iterates[0], b.inner_iterates[0])  # gamma_1 = 0
    assert np.array_equal(a.final_x, b.final_x)


def test_nasg_pi_second_epoch_against_reference():
    res = hand_run("nasg-pi", two_component_quadratic(), 0.9, [0.0], T=2)
    ref_x1, ref_y1 = reference_pi_sweep([1.0, -1.0], 0.0, 0.0, 0.9, t=1)
    x1, y1 = float(res.x_snapshots[1][0]), float(res.y_snapshots[1][0])
    assert x1 == pytest.approx(ref_x1, rel=1e-12)
    assert y1 == pytest.approx(ref_y1, rel=1e-12)
    ref_x, ref_y = reference_pi_sweep([1.0, -1.0], x1, y1, 0.9, t=2)
    assert res.x_snapshots[2][0] == pytest.approx(ref_x, rel=1e-12)
    assert res.y_snapshots[2][0] == pytest.approx(ref_y, rel=1e-12)


# -------------------------------------------------------------------- nag

NAG_OPTIONS = TraceOptions(record_iterates=True)


def test_nag_hand_trace():
    res = hand_run("nag", single_quadratic(), 1.0, [1.0], options=NAG_OPTIONS)
    assert res.x_snapshots[1].tolist() == [0.0]
    assert res.y_snapshots[1].tolist() == [0.0]


def test_nag_stationary_start():
    obj = QuadraticObjective(np.array([[2.0, -1.0]]))
    res = hand_run("nag", obj, 0.7, [2.0, -1.0], options=NAG_OPTIONS)
    assert res.x_snapshots[1].tolist() == [2.0, -1.0]
    assert [row.epoch for row in res.trace] == [1]


def test_nag_beats_plain_gd():
    obj, _, f_star = make_quadratic(50, 10, seed=7)
    alpha = 1.0 / obj.smoothness_bound()
    sched = ScheduleSpec(ScheduleKind.CONSTANT, T=64, lr=alpha)
    x0 = np.ones(10)
    nag = run("nag", obj, "ig", sched, x0=x0)
    gd = run("sgd", obj, "ig", sched, batch_size=50, x0=x0)  # full batch = plain GD
    assert nag.final_value - f_star <= gd.final_value - f_star


# -------------------------------------------------------------- baselines

def test_sgd_single_component():
    res = hand_run("sgd", single_quadratic(), 0.5, [1.0])
    assert res.final_x.tolist() == [0.5]


def test_sgdm_beta_zero_is_sgd_bitwise():
    obj = LogisticObjective(Dataset.from_dense(
        np.array([[1.0, -2.0], [0.5, 1.5], [-1.0, 0.0]]), np.array([1.0, -1.0, 1.0])))
    sched = ScheduleSpec(ScheduleKind.CONSTANT, T=6, lr=0.3)
    a = run("sgd", obj, "rr", sched, seed=11)
    b = run("sgdm", obj, "rr", sched, seed=11, sgdm_beta=0.0)
    assert a.final_x.tobytes() == b.final_x.tobytes()
    assert [r.value for r in a.trace] == [r.value for r in b.trace]


def test_adam_first_step_closed_form():
    # one bias-corrected step reduces to -lr * g / (|g| + eps) ~= -lr * sign(g)
    obj = QuadraticObjective(np.array([[5.0]]))
    lr, eps, b1, b2 = 0.01, 1e-8, 0.9, 0.999
    res = hand_run("adam", obj, lr, [1.0], T=2)
    g = 1.0 - 5.0
    w1 = 1.0 - lr * g / (abs(g) + eps)
    assert res.x_snapshots[1][0] == pytest.approx(w1, rel=1e-15)
    assert res.x_snapshots[1][0] == pytest.approx(1.0 + lr, rel=1e-6)  # -lr*sign(g) direction
    # the moments and the bias-correction counter carry into epoch 2
    g2 = w1 - 5.0
    m = b1 * (1 - b1) * g + (1 - b1) * g2
    v = b2 * (1 - b2) * g * g + (1 - b2) * g2 * g2
    w2 = w1 - lr * (m / (1 - b1 ** 2)) / (np.sqrt(v / (1 - b2 ** 2)) + eps)
    assert res.final_x[0] == pytest.approx(w2, rel=1e-15)


def test_adam_defaults_and_counter():
    obj = single_quadratic()
    sched = ScheduleSpec(ScheduleKind.CONSTANT, T=3, lr=0.1)
    res = run("adam", obj, "ig", sched)
    assert len(res.trace) == 3


def test_sgdm_velocity_rule():
    # m_{i+1} = beta*m_i + g_i ; w_{i+1} = w_i - lr*m_{i+1}
    res = hand_run("sgdm", two_component_quadratic(), 0.1, [0.0], T=2)
    g1 = 0.0 - 1.0
    m1 = g1
    w1 = 0.0 - 0.1 * m1
    g2 = w1 + 1.0
    m2 = 0.9 * m1 + g2
    w2 = w1 - 0.1 * m2
    assert res.x_snapshots[1][0] == pytest.approx(w2, rel=1e-15)
    inner = res.inner_iterates[0].ravel()
    assert (inner[1] - inner[2]) / 0.1 == pytest.approx(m2, rel=1e-12)
    # the velocity carries into epoch 2
    g3 = w2 - 1.0
    m3 = 0.9 * m2 + g3
    w3 = w2 - 0.1 * m3
    g4 = w3 + 1.0
    m4 = 0.9 * m3 + g4
    w4 = w3 - 0.1 * m4
    assert res.final_x[0] == pytest.approx(w4, rel=1e-15)


# ------------------------------------------------------------------ run()

def test_run_bit_identical():
    obj, _, _ = make_quadratic(20, 4, seed=2)
    sched = ScheduleSpec(ScheduleKind.UNIFIED, T=12, L=1.0)
    a = run("nasg", obj, "rr", sched, seed=3)
    b = run("nasg", obj, "rr", sched, seed=3)
    assert a.final_x.tobytes() == b.final_x.tobytes()
    assert [r.value for r in a.trace] == [r.value for r in b.trace]
    assert [r.grad_sq_norm for r in a.trace] == [r.grad_sq_norm for r in b.trace]


def test_run_trace_length_and_fields():
    obj, _, _ = make_quadratic(10, 3, seed=1)
    sched = ScheduleSpec(ScheduleKind.UNIFIED, T=9, L=1.0)
    res = run("nasg", obj, "rr", sched, seed=1,
              options=TraceOptions(record_dispersion=True))
    assert len(res.trace) == 9
    for t, row in enumerate(res.trace, start=1):
        assert row.epoch == t
        assert row.step_size == epoch_step_size(sched, t)
        assert row.disp_start >= 0 and row.disp_end >= 0


def test_run_seed_mean_within_randomized_bound():
    obj, x_star, f_star = make_quadratic(50, 10, seed=7)
    from shuffleopt.objectives import variance_at_point
    s2 = variance_at_point(obj, x_star)
    delta = float(x_star @ x_star)
    T = 32
    sched = ScheduleSpec(ScheduleKind.RANDOMIZED, T=T, L=1.0)
    finals = [run("nasg", obj, "rr", sched, seed=s).final_value for s in range(1, 11)]
    bound = convergence_bound("thm3", T, L=1.0, sigma_star_sq=s2, delta=delta, n=50)
    assert float(np.mean(finals)) - f_star <= bound
    assert len(set(finals)) > 1  # per-seed traces differ


def test_initial_condition_schedule_bound():
    # the small-start schedule: k shrinks by n^(1/4); its guarantee uses
    # E^2 = delta * n when the start satisfies ||x0 - x*||^2 <= E^2 / n
    obj, x_star, f_star = make_quadratic(50, 10, seed=7)
    from shuffleopt.objectives import variance_at_point
    s2 = variance_at_point(obj, x_star)
    x0 = np.zeros(10)
    delta = float(np.sum((x0 - x_star) ** 2))
    for T in (8, 32):
        sched = ScheduleSpec(ScheduleKind.INITIAL, T=T, L=1.0, n=50)
        res = run("nasg", obj, "ig", sched, x0=x0)
        bound = convergence_bound("init-cond", T, L=1.0, sigma_star_sq=s2,
                                  n=50, e_sq=delta * 50)
        assert res.final_value - f_star <= bound


def test_divergence_carries_partial_trace():
    obj, _, _ = make_quadratic(50, 10, seed=7)
    sched = ScheduleSpec(ScheduleKind.CONSTANT, T=50, lr=2.5)  # amplifies, L = 1
    with pytest.raises(DivergenceError) as err:
        run("sgd", obj, "rr", sched, seed=1)
    assert err.value.partial is not None
    assert 0 < len(err.value.partial.trace) < 50
    assert err.value.epoch == len(err.value.partial.trace) + 1
    assert f"epoch {err.value.epoch}" in str(err.value)


@pytest.mark.parametrize("optimizer", ["nasg", "nasg-pi", "sgd", "adam"])
@pytest.mark.parametrize("batch_size", [1, 3])
def test_recorded_inner_iterates_are_not_aliased(optimizer, batch_size):
    obj, _, _ = make_quadratic(10, 3, seed=2)
    sched = constant(0.2, T=3)
    both = run(optimizer, obj, "rr", sched, seed=4, batch_size=batch_size,
               options=TraceOptions(record_inner=True, record_dispersion=True))
    inner = both.inner_iterates
    assert len(inner) == 3 and len({id(arr) for arr in inner}) == 3
    assert not any(np.shares_memory(a, b) for a, b in [(inner[0], inner[1]),
                                                         (inner[1], inner[2])])
    for arr, row in zip(inner, both.trace):
        dispersion = epoch_dispersion(arr)
        assert (row.disp_start, row.disp_end) == (dispersion.start_msd, dispersion.end_msd)
    # recording the inner iterates does not change the dispersion
    alone = run(optimizer, obj, "rr", sched, seed=4, batch_size=batch_size,
                options=TraceOptions(record_dispersion=True))
    assert [(r.disp_start, r.disp_end) for r in alone.trace] == \
        [(r.disp_start, r.disp_end) for r in both.trace]


@pytest.mark.parametrize("batch_size", [1, 3])
def test_nasg_pi_buffers_never_alias(batch_size):
    # lr 40 diverges mid-epoch; the partial result holds x from before that
    # epoch, which the rotating sweep buffers must not have written
    obj, _, _ = make_quadratic(10, 3, seed=3)
    with pytest.raises(DivergenceError) as err:
        run("nasg-pi", obj, "rr", constant(40.0, 80), seed=1, batch_size=batch_size,
            options=TraceOptions(record_iterates=True, record_inner=True))
    partial = err.value.partial
    assert partial.final_x.tobytes() == partial.x_snapshots[-1].tobytes()
    arrays = [partial.final_x, *partial.x_snapshots, *partial.y_snapshots,
              *partial.inner_iterates]
    assert len(arrays) > 100
    assert not any(np.shares_memory(a, b) for k, a in enumerate(arrays) for b in arrays[k + 1:])


def test_dispersion_of_a_huge_epoch_is_silent():
    # lr 40 amplifies 39x per step: the iterates stay finite for 40 epochs,
    # but their squared distances overflow
    obj, _, _ = make_quadratic(4, 3, seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run("sgd", obj, "ig", constant(40.0, 40),
                  options=TraceOptions(record_dispersion=True))
    assert np.isfinite(res.final_x).all()
    assert res.trace[-1].disp_start == np.inf


def test_huge_finite_iterate_is_not_divergent():
    # every entry is finite, but their sum overflows
    obj, _, _ = make_quadratic(2, 2, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run("sgd", obj, "ig", constant(1e-12), x0=np.array([1e308, 1e308]))
    assert len(res.trace) == 1
    assert np.isfinite(res.final_x).all()


def test_nasg_full_batch_ig_equals_nag():
    obj, _, _ = make_quadratic(50, 10, seed=7)
    sched = ScheduleSpec(ScheduleKind.UNIFIED, T=16, L=1.0)
    opts = TraceOptions(record_iterates=True)
    a = run("nasg", obj, "ig", sched, batch_size=50, x0=np.ones(10), options=opts)
    b = run("nag", obj, "ig", sched, x0=np.ones(10), options=opts)
    for xa, xb in zip(a.x_snapshots, b.x_snapshots):
        assert np.linalg.norm(xa - xb) <= 1e-12 * max(1.0, np.linalg.norm(xb))


@pytest.mark.parametrize("optimizer", ["nasg", "sgd"])
def test_batch_rule_is_dense_update_bitwise(optimizer):
    # 7 components in batches of 3: the short last batch checks the nasg
    # family's len(ids) scaling
    rng = np.random.default_rng(21)
    X = rng.normal(size=(7, 4))
    X[rng.random(size=X.shape) < 0.3] = 0.0
    objectives = [
        LogisticObjective(Dataset.from_dense(X, np.where(rng.random(7) < 0.5, -1.0, 1.0))),
        SoftmaxObjective(Dataset.from_dense(X, rng.integers(0, 3, size=7), c=3)),
        make_quadratic(7, 4, seed=2)[0],
    ]
    for obj in objectives:
        x0 = rng.normal(size=obj.dim)
        res = run(optimizer, obj, "ig", constant(0.7), batch_size=3, x0=x0)
        eta, n = res.trace[0].step_size, obj.n
        z = x0.copy()
        for ids in ([0, 1, 2], [3, 4, 5], [6]):
            s = eta / n * len(ids) if optimizer == "nasg" else eta
            z -= s * obj.batch_mean_gradient(z, ids)
        assert res.final_x.tobytes() == z.tobytes(), type(obj).__name__


def test_momentum_identities_on_run():
    obj, _, _ = make_quadratic(30, 6, seed=9)
    sched = ScheduleSpec(ScheduleKind.UNIFIED, T=20, L=1.0)
    res = run("nasg", obj, "rr", sched, seed=4,
              options=TraceOptions(record_iterates=True, record_inner=True))
    err_x, err_y = momentum_reconstruction_errors(res.x_snapshots, res.y_snapshots)
    assert err_x <= 1e-10 and err_y <= 1e-10
    assert center_update_errors(res, obj) <= 1e-9


def test_with_replacement_flag():
    obj, _, _ = make_quadratic(12, 3, seed=5)
    sched = ScheduleSpec(ScheduleKind.CONSTANT, T=4, lr=0.05)
    a = run("sgd", obj, "rr", sched, seed=6, with_replacement=True)
    b = run("sgd", obj, "rr", sched, seed=6, with_replacement=True)
    c = run("sgd", obj, "rr", sched, seed=6)
    assert a.final_x.tobytes() == b.final_x.tobytes()
    assert a.final_x.tobytes() != c.final_x.tobytes()
    with pytest.raises(ValueError):
        run("nasg", obj, "rr", sched, seed=6, with_replacement=True)


def test_run_validation():
    obj, _, _ = make_quadratic(8, 2, seed=0)
    sched = ScheduleSpec(ScheduleKind.CONSTANT, T=2, lr=0.1)
    with pytest.raises(ValueError, match="unknown optimizer"):
        run("newton", obj, "rr", sched)
    with pytest.raises(ValueError, match="batch_size"):
        run("sgd", obj, "rr", sched, batch_size=9)
    with pytest.raises(ValueError, match="finite"):
        run("sgd", obj, "rr", sched, x0=np.array([np.nan, 0.0]))
    # the moment constants are checked whatever the optimizer
    for key, value in [("sgdm_beta", -3), ("sgdm_beta", 1.0), ("adam_beta1", 1.0),
                       ("adam_beta1", -0.1), ("adam_beta2", 1.5), ("adam_beta2", np.nan),
                       ("adam_eps", -1.0), ("adam_eps", 0.0), ("adam_eps", np.inf),
                       ("adam_eps", np.nan), ("adam_eps", 10**400)]:
        for optimizer in ("sgd", "adam"):
            with pytest.raises(ValueError, match=key):
                run(optimizer, obj, "rr", sched, **{key: value})


# ------------------------------------------------------------ golden runs
#
# sha256 of every RunResult field (trace rows, final x, snapshots, inner
# iterates, permutations) and every divergence epoch, over each method on
# three objectives x batch {1, 3} x scheme {rr, ss, ig} x {lr 0.3, lr 40,
# thm1}.  The digests were recorded with the per-method epoch functions that
# preceded run's single sweep loop, so they pin the floating-point order of
# every update rule.  Each entry is (digest, divergence epochs in case order).

GOLDEN = {
    "quadratic/nasg": (
        "807fcc8ec4f4064c0a6508541f9524c81839b05afca3f911b2f2682741223e94",
        (76, 76, 76)),
    "quadratic/nasg-pi": (
        "4a4f61c6ccf5346e1560c2adabde26a68d8ae285db0326d9a0d1beb3106234c2",
        (63, 63, 63)),
    "quadratic/nag": (
        "e1020533e77d10ad70a2b5ab26a63fd0f9f6f6a15265185d2ea721dae4afe164",
        ()),
    "quadratic/sgd": (
        "ca3abbc641f880cf78a4d9f5bb90d2889e04cbfcc74e461dc0bdf94f92f9cef9",
        (49, 49, 49)),
    "quadratic/sgdm": (
        "7abde6b23a801c0c0ddbd1198d3ae3c80f7cc839ed81295b7b47b0b681d1365d",
        (49, 49, 49)),
    "quadratic/adam": (
        "51e33c40f19e84a9ef8cbb1d9c6fabb22802788c36a37a793194fdc54a31fbff",
        ()),
    "quadratic/sgd-with-replacement": (
        "485c2437547291b8f9ad296fb564e8172831df08df61b243fc615a023487be6f",
        (49, 49, 49)),
    "blobs600/nasg": (
        "de082ac869dc560f15db4857186092f8526d3e52a2b95dfa0afb33824a8cd07f",
        ()),
    "blobs600/nasg-pi": (
        "c0f972a0ad741398f82d7b7c385d1d495f3192d40c630d64ac65bf927e022279",
        ()),
    "blobs600/nag": (
        "996b1b5583c8c7e3933d9882c06d93e6c9bac0c9c3ebf4297e4682e8b51e2349",
        ()),
    "blobs600/sgd": (
        "8bd292e0a89f6f0da9d797aeaadd57c208faa77cf307c468acbb9d217180f503",
        ()),
    "blobs600/sgdm": (
        "d421a59539fd94679401d61df9fa2071aa578255c673cb6f0b851842646f4cd6",
        ()),
    "blobs600/adam": (
        "f8be4452de262671a1ae58fef647e9c1b735ad0a9d4e20f57b2bf1a3175cbbe5",
        ()),
    "blobs600/sgd-with-replacement": (
        "5eecfe7a1a2c4370cfb04ab8342afb6f1900a6c2cb1c8edd89fbbcd8240a727f",
        ()),
    "multiclass_3/nasg": (
        "c7b039eee41f8f46c8d0fa4c4ca226f5d67c014b4f33e251140ad67b4e4ce6a1",
        ()),
    "multiclass_3/nasg-pi": (
        "e57e63b7037025a34a646e8b888b4f1d1090b96cde64ecb7de6b2e9fd4f6a91a",
        ()),
    "multiclass_3/nag": (
        "fd1a3dd3d50ab3f27bd5f80218825862f232cf6f0228b351a8bf25fd89ba1ac5",
        ()),
    "multiclass_3/sgd": (
        "d9b1ac5048ce456df2b01fd80f144f10b742b86c90320ef919bf4ba42aa3302b",
        ()),
    "multiclass_3/sgdm": (
        "2600f30e471eb4718f1f4278f5039a3ec9dc24b9085aec7996245d25467d6e87",
        ()),
    "multiclass_3/adam": (
        "9c421a2689e13ba8a8ec12490fb7745152846d641582fd5afd9e67b626e80738",
        ()),
    "multiclass_3/sgd-with-replacement": (
        "27f25dd42dc20431b87843c0d2b10747dfa7f5ea34c6f3b06d084234af936f65",
        ()),
    "quadratic/adam-lr1e307": (
        "50e4342048dcdd42aa74ca59dbd36699be97e1e1fdf31d9d9da2dc7f7bd67201",
        (2,)),
}


def golden_objectives():
    """name -> (objective, horizon); the quadratic runs long enough for the
    lr 40 runs to overflow."""
    return {
        "quadratic": (make_quadratic(4, 3, seed=2)[0], 96),
        "blobs600": (LogisticObjective(load_libsvm(FIXTURES / "blobs600.libsvm")), 2),
        "multiclass_3": (SoftmaxObjective(load_libsvm(FIXTURES / "multiclass_3.libsvm")), 8),
    }


def _digest_result(h, result):
    for row in result.trace:
        h.update(repr((row.epoch, row.value, row.grad_sq_norm, row.step_size, row.accuracy,
                       row.disp_start, row.disp_end)).encode())
    h.update(result.final_x.tobytes())
    for arrays in (result.x_snapshots, result.y_snapshots, result.inner_iterates,
                   result.permutations):
        h.update(b"none" if arrays is None else b"%d" % len(arrays))
        for arr in arrays or ():
            h.update(arr.tobytes())


def golden_group(objective, T, method, with_replacement=False):
    h = hashlib.sha256()
    diverged = []
    options = TraceOptions(record_iterates=True, record_accuracy=True,
                           record_inner=method != "nag", record_dispersion=method != "nag")
    schedules = {"lr0.3": constant(0.3, T), "lr40": constant(40.0, T),
                 "thm1": ScheduleSpec(ScheduleKind.UNIFIED, T=T, L=objective.smoothness_bound())}
    for name, schedule in schedules.items():
        for batch in (1, 3):
            for scheme in ("rr", "ss", "ig"):
                h.update(f"{name}/b{batch}/{scheme}".encode())
                try:
                    result = run(method, objective, scheme, schedule, seed=5, batch_size=batch,
                                 options=options, with_replacement=with_replacement)
                except DivergenceError as err:
                    h.update(b"diverged at %d" % err.epoch)
                    diverged.append(err.epoch)
                    result = err.partial
                _digest_result(h, result)
    return h.hexdigest(), tuple(diverged)


def adam_overflow_case():
    """Adam's normalised step stays bounded, so overflowing it takes a step
    size near the float64 range: epoch 1 lands at about +-1e307, and in
    epoch 2 the update becomes inf/inf."""
    obj = QuadraticObjective(np.array([[0.5, -1.0, 2.0]]))
    h = hashlib.sha256()
    with pytest.raises(DivergenceError) as err:
        run("adam", obj, "ig", constant(1e307, 4), options=TraceOptions(record_iterates=True,
                                                                        record_inner=True))
    _digest_result(h, err.value.partial)
    return h.hexdigest(), (err.value.epoch,)


def golden_digests():
    out = {}
    for name, (objective, T) in golden_objectives().items():
        for method in ("nasg", "nasg-pi", "nag", "sgd", "sgdm", "adam"):
            out[f"{name}/{method}"] = golden_group(objective, T, method)
        out[f"{name}/sgd-with-replacement"] = golden_group(objective, T, "sgd", True)
    out["quadratic/adam-lr1e307"] = adam_overflow_case()
    return out


def test_golden_trajectories_bitwise():
    assert golden_digests() == GOLDEN
    diverging = {key for key, (_, epochs) in GOLDEN.items() if epochs}
    assert {"quadratic/nasg", "quadratic/nasg-pi", "quadratic/sgdm",
            "quadratic/adam-lr1e307"} <= diverging
