import hashlib
import math

import numpy as np
import pytest

from shuffleopt.diagnostics import (center_update_errors, check_drift_bound,
                                    convergence_bound, epoch_dispersion, fit_rate,
                                    momentum_reconstruction_errors)
from shuffleopt.objectives import make_quadratic, variance_at_point
from shuffleopt.optimizers import TraceOptions, run
from shuffleopt.schedules import ScheduleKind, ScheduleSpec

# 60-digit oracle values for the closed-form guarantees (L=1, T=10, delta=1):
#   thm1 with sigma*^2=1:            4/90 + 2*e*12^(1/3)/10
#   thm2 with theta=0, sigma^2=1:    8/210 + 2*e*14^(1/3)/10
#   thm3 with sigma*^2=1, n=50:      8/13500 + 2*e*12^(1/3)/10
BOUND_THM1 = 1.28910681416883722684807115009820389359192110394903625603484
BOUND_THM2 = 1.34838442223697157562280202506195719971389905737969776030282
BOUND_THM3 = 1.24525496231698537499621929824635204174006925209718440418299
# init-cond with sigma*^2=1, n=16, e_sq=2, T=10: (4/9 + 4*e*12^(1/3)) / (16^(3/4)*10)
BOUND_INIT = 0.316721147986653751156462231968995417842424720431703508453156


def test_dispersion_all_equal():
    rec = epoch_dispersion(np.zeros((5, 3)))
    assert rec.start_msd == 0.0 and rec.end_msd == 0.0


def test_dispersion_hand_value():
    rec = epoch_dispersion(np.array([[0.0], [0.5], [-0.25]]))
    assert rec.start_msd == 0.15625
    assert rec.end_msd == 0.28125


def test_dispersion_quadratic_homogeneity():
    iterates = np.array([[0.0, 1.0], [0.5, -1.0], [-0.25, 2.0]])
    base = epoch_dispersion(iterates)
    doubled = epoch_dispersion(2.0 * iterates)
    assert doubled.start_msd == pytest.approx(4.0 * base.start_msd, rel=1e-15)
    assert doubled.end_msd == pytest.approx(4.0 * base.end_msd, rel=1e-15)


def reference_dispersion(arr):
    """The dispersion as one expression, with fresh temporaries."""
    steps = arr[1:]
    return (float(((steps - arr[0]) ** 2).sum(axis=1).mean()),
            float(((steps - arr[-1]) ** 2).sum(axis=1).mean()))


@np.errstate(over="ignore", invalid="ignore")
def test_dispersion_matches_reference_bitwise():
    rng = np.random.default_rng(12)
    wild = rng.normal(size=(9, 7))
    wild[1::3, ::2] = -0.0
    wild[4, 3], wild[6, 1] = np.inf, np.nan
    cases = [rng.normal(size=(501, 50)), 1e200 * rng.normal(size=(4, 3)), wild,
             np.full((3, 2), -0.0)]
    for arr in cases:
        rec = epoch_dispersion(arr)
        got = (rec.start_msd, rec.end_msd)
        assert np.array(got).tobytes() == np.array(reference_dispersion(arr)).tobytes(), arr.shape


def test_dispersion_needs_steps():
    with pytest.raises(ValueError):
        epoch_dispersion(np.zeros((1, 2)))


def test_drift_bound_zero_always_holds():
    check = check_drift_bound(0.0, eta_t=0.1, L=1.0, gap=0.5, sigma_star_sq=2.0)
    assert check.satisfied and check.margin == check.rhs


def test_drift_bound_hypothesis_gate():
    with pytest.raises(ValueError, match="eta <= 1/\\(2L\\)"):
        check_drift_bound(0.1, eta_t=1.0, L=1.0, gap=0.5, sigma_star_sq=1.0)


def test_drift_bound_on_real_run():
    obj, x_star, f_star = make_quadratic(50, 10, seed=7)
    s2 = variance_at_point(obj, x_star)
    sched = ScheduleSpec(ScheduleKind.UNIFIED, T=16, L=1.0)
    res = run("nasg", obj, "ig", sched, options=TraceOptions(record_dispersion=True))
    for row in res.trace:
        check = check_drift_bound(row.disp_start, row.step_size, 1.0,
                                  row.value - f_star, s2)
        assert check.satisfied


def test_momentum_checks_need_their_recordings():
    xs = [np.zeros(2), np.ones(2), np.ones(2)]
    with pytest.raises(ValueError, match="y_0 .. y_T"):
        momentum_reconstruction_errors(xs, xs[:2])
    obj = make_quadratic(5, 2, seed=1)[0]
    res = run("nasg", obj, "ig", ScheduleSpec(ScheduleKind.UNIFIED, T=2, L=1.0))
    with pytest.raises(ValueError, match="must record iterates"):
        center_update_errors(res, obj)


def test_drift_vs_end_dispersion_triangle():
    # K <= 2I + 2||y_last - y_0||^2, exactly, for recorded iterate stacks
    obj, _, _ = make_quadratic(20, 5, seed=3)
    sched = ScheduleSpec(ScheduleKind.UNIFIED, T=8, L=1.0)
    res = run("nasg", obj, "rr", sched, seed=2,
              options=TraceOptions(record_inner=True, record_dispersion=True))
    for row, inner in zip(res.trace, res.inner_iterates):
        hop = float(((inner[-1] - inner[0]) ** 2).sum())
        assert row.disp_start <= 2.0 * row.disp_end + 2.0 * hop + 1e-15


def test_bound_frozen_values():
    assert convergence_bound("thm1", 10, L=1.0, sigma_star_sq=1.0, delta=1.0) \
        == pytest.approx(BOUND_THM1, rel=1e-12)
    assert convergence_bound("thm2", 10, L=1.0, sigma_sq=1.0, theta=0.0, delta=1.0) \
        == pytest.approx(BOUND_THM2, rel=1e-12)
    assert convergence_bound("thm3", 10, L=1.0, sigma_star_sq=1.0, delta=1.0, n=50) \
        == pytest.approx(BOUND_THM3, rel=1e-12)
    assert convergence_bound("init-cond", 10, L=1.0, sigma_star_sq=1.0, n=16, e_sq=2.0) \
        == pytest.approx(BOUND_INIT, rel=1e-12)


def test_bound_degenerate_problem():
    for regime in ("thm1", "thm2", "thm3", "init-cond"):
        assert convergence_bound(regime, 8, L=1.0, sigma_star_sq=0.0, delta=0.0,
                                 theta=0.0, sigma_sq=0.0, n=50, e_sq=0.0) == 0.0


def test_bound_first_term_ordering():
    # the randomized regime's noise term is n-fold smaller: 8/(27n) <= 4/9 always
    for n in (1, 2, 10, 1000):
        t1 = convergence_bound("thm1", 10, L=1.0, sigma_star_sq=1.0, delta=0.0)
        t3 = convergence_bound("thm3", 10, L=1.0, sigma_star_sq=1.0, delta=0.0, n=n)
        assert t3 <= t1


def test_bound_monotonicity():
    base = dict(L=1.0, sigma_star_sq=2.0, delta=3.0)
    b16 = convergence_bound("thm1", 16, **base)
    b32 = convergence_bound("thm1", 32, **base)
    assert b32 < b16
    assert convergence_bound("thm1", 16, L=1.0, sigma_star_sq=3.0, delta=3.0) > b16
    assert convergence_bound("thm1", 16, L=1.0, sigma_star_sq=2.0, delta=4.0) > b16
    assert convergence_bound("thm2", 16, L=1.0, sigma_sq=2.0, theta=0.0, delta=1.0) \
        < convergence_bound("thm2", 16, L=1.0, sigma_sq=3.0, theta=0.0, delta=1.0)


def test_bound_missing_constants():
    with pytest.raises(ValueError, match="sigma_star_sq"):
        convergence_bound("thm1", 10, L=1.0, delta=1.0)
    with pytest.raises(ValueError, match="theta"):
        convergence_bound("thm2", 10, L=1.0, sigma_sq=1.0, delta=1.0)
    with pytest.raises(ValueError, match="component count"):
        convergence_bound("thm3", 10, L=1.0, sigma_star_sq=1.0, delta=1.0)
    with pytest.raises(ValueError, match="T >= 2"):
        convergence_bound("thm1", 1, L=1.0, sigma_star_sq=1.0, delta=1.0)
    with pytest.raises(ValueError, match="constant"):
        convergence_bound("constant", 10, L=1.0)
    with pytest.raises(ValueError, match="sigma_star_sq must be >= 0"):
        convergence_bound("thm1", 10, L=1.0, sigma_star_sq=-1.0, delta=1.0)
    with pytest.raises(ValueError, match="delta must be >= 0"):
        convergence_bound("thm3", 10, L=1.0, sigma_star_sq=1.0, delta=-1.0, n=5)


def test_fit_rate_exact_powers():
    Ts = [4, 8, 16, 32, 64]
    one_over_t = fit_rate([(T, 3.0 / T) for T in Ts])
    assert one_over_t.slope == pytest.approx(-1.0, abs=1e-10)
    two_thirds = fit_rate([(T, 5.0 * T ** (-2.0 / 3.0)) for T in Ts])
    assert two_thirds.slope == pytest.approx(-2.0 / 3.0, abs=1e-10)
    assert math.exp(one_over_t.intercept) == pytest.approx(3.0, rel=1e-10)


def test_fit_rate_matches_polyfit():
    # np.polyfit's least squares, outside the library, as the reference; the
    # slopes and intercepts drawn keep both away from 0
    rng = np.random.default_rng(29)
    for k in range(3, 9):
        for _ in range(20):
            Ts = np.sort(rng.choice(np.arange(2, 513), size=k, replace=False))
            log_gaps = rng.uniform(-8.0, -3.0) - rng.uniform(0.5, 2.0) * np.log(Ts)
            gaps = np.exp(log_gaps + rng.normal(scale=0.3, size=k))
            fit = fit_rate(zip(Ts.tolist(), gaps.tolist()))
            slope, intercept = np.polyfit(np.log(Ts), np.log(gaps), 1)
            assert fit.slope == pytest.approx(slope, rel=1e-12, abs=0)
            assert fit.intercept == pytest.approx(intercept, rel=1e-12, abs=0)


def test_fit_rate_errors():
    with pytest.raises(ValueError, match="at least 3"):
        fit_rate([(2, 1.0), (4, 0.5)])
    with pytest.raises(ValueError, match="non-positive gap"):
        fit_rate([(2, 1.0), (4, 0.5), (8, 0.0)])
    with pytest.raises(ValueError, match="distinct"):
        fit_rate([(2, 1.0), (2, 0.5), (8, 0.1)])


def bound_digest() -> str:
    """sha256 of the repr of every regime's bound over a grid of T, L, the
    variances, delta, theta, n and e_sq."""
    lines = []
    for regime in ("thm1", "thm2", "thm3", "init-cond"):
        for T in (2, 5, 64):
            for L in (0.25, 1.0, 9.5):
                for s in (0.0, 1.3):
                    for delta in (0.0, 2.7):
                        for theta in (0.0, 0.5, 4.0):
                            for n in (1, 16, 50):
                                for e_sq in (None, 3.1):
                                    lines.append(repr(convergence_bound(
                                        regime, T, L=L, sigma_star_sq=s, delta=delta,
                                        theta=theta, sigma_sq=s + 0.5, n=n, e_sq=e_sq)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# a bound that moves by one bit changes the digest; a change that keeps every
# operand and its order keeps it
BOUND_DIGEST = "f98a6fe9dc282eacaad9ef0cfd12459bd6b7f0b10336608fa010a76e5e0b37b2"


def test_bounds_bitwise():
    assert bound_digest() == BOUND_DIGEST


@pytest.mark.parametrize("regime", ["thm1", "thm2", "thm3", "init-cond"])
def test_bound_rejects_what_the_schedule_rejects(regime):
    # every (T, L, theta, n) the regime's step-size schedule refuses has no bound
    rejected = 0
    for T in (1, 2, 8):
        for L in (None, -1.0, 0.0, 1.0):
            for theta in (None, -0.5, 0.0):
                for n in (None, 0, 5):
                    try:
                        ScheduleSpec(regime, T, L=L, theta=theta, n=n)
                    except ValueError:
                        rejected += 1
                        with pytest.raises(ValueError):
                            convergence_bound(regime, T, L=L, sigma_star_sq=1.0, delta=1.0,
                                              theta=theta, sigma_sq=1.0, n=n)
    assert rejected > 0
