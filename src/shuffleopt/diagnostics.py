"""Executable convergence checks over recorded runs.

Covers within-epoch dispersion of the inner iterates, the closed-form
suboptimality bounds backing the exponential schedules, the momentum
identities of the accelerated sweep, and log-log rate fitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .schedules import ScheduleKind, ScheduleSpec

if TYPE_CHECKING:
    from .optimizers import RunResult

_E = math.e


def _rel_err(lhs: np.ndarray, rhs: np.ndarray) -> float:
    scale = max(1.0, float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs)))
    return float(np.linalg.norm(lhs - rhs)) / scale


@dataclass
class DispersionRecord:
    """Mean squared distances of an epoch's inner iterates.

    start_msd averages ||y_i - y_0||^2 and end_msd averages ||y_last - y_i||^2
    over i = 1 .. last.  Both vanish iff the epoch never moved.
    """

    start_msd: float
    end_msd: float


def epoch_dispersion(inner_iterates) -> DispersionRecord:
    """Dispersion of an epoch's (steps + 1, dim) inner iterates."""
    arr = np.asarray(inner_iterates, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise ValueError("need the start iterate plus at least one step")
    steps = arr[1:]
    sq = np.empty_like(steps)  # one temporary for both distances, squared in place
    msd = []
    for point in (arr[0], arr[-1]):
        np.subtract(steps, point, out=sq)
        sq *= sq
        msd.append(float(sq.sum(axis=1).mean()))
    return DispersionRecord(*msd)


@dataclass
class DriftCheck:
    satisfied: bool
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def check_drift_bound(start_msd: float, eta_t: float, L: float, gap: float,
                      sigma_star_sq: float) -> DriftCheck:
    """Check start_msd <= 8 eta_t^2 (3 L gap + sigma_star_sq).

    The inequality is only claimed under eta_t <= 1/(2L); larger steps are
    rejected rather than silently evaluated.
    """
    if eta_t > 0.5 / L:
        raise ValueError("drift bound hypothesis eta <= 1/(2L) violated")
    rhs = 8.0 * eta_t ** 2 * (3.0 * L * gap + sigma_star_sq)
    return DriftCheck(start_msd <= rhs, start_msd, rhs)


def convergence_bound(regime, T: int, *, L: float, sigma_star_sq: float | None = None,
                      delta: float | None = None, theta: float | None = None,
                      sigma_sq: float | None = None, n: int | None = None,
                      e_sq: float | None = None) -> float:
    """Closed-form suboptimality guarantee after T epochs of the matching
    exponential schedule.

    regime "thm1": 4 s*/(9LT) + 2 L e 12^(1/3) delta / T           (any order)
    regime "thm2": 8 s /(3(6theta+7)LT) + 2 L e (2(6theta+7))^(1/3) delta / T
    regime "thm3": 8 s*/(27 n L T) + 2 L e 12^(1/3) delta / T      (in expectation)
    regime "init-cond": (4 s*/(9L) + 2 L E^2 e 12^(1/3)) / (n^(3/4) T)

    with s* = sigma_star_sq, s = sigma_sq, delta the squared distance of the
    start from the minimizer, and E^2 >= delta * n (defaulted to equality).
    The regime's `ScheduleSpec` checks T, L, theta and init-cond's n and
    supplies the cube root, so a bound is refused wherever its schedule is;
    thm3's bound also needs n.
    """
    regime = ScheduleKind(regime)
    if regime is ScheduleKind.CONSTANT:
        raise ValueError("no closed-form guarantee for constant steps")
    spec = ScheduleSpec(regime, T, L=L, theta=theta, n=n)

    def need(value, name):
        if value is None:
            raise ValueError(f"{regime.value} bound requires {name}")
        if value < 0:
            raise ValueError(f"{name} must be >= 0")
        return value

    if regime is ScheduleKind.INITIAL:
        s = need(sigma_star_sq, "sigma_star_sq")
        if e_sq is None:
            e_sq = need(delta, "delta (or e_sq)") * n
        scale = n ** 0.75 * T
        return 4.0 * s / (9.0 * L * scale) + 2.0 * L * e_sq * _E * spec.root / scale
    s = need(sigma_sq, "sigma_sq") if regime is ScheduleKind.VARIANCE \
        else need(sigma_star_sq, "sigma_star_sq")
    bias = 2.0 * L * _E * spec.root * need(delta, "delta") / T
    if regime is ScheduleKind.UNIFIED:
        return 4.0 * s / (9.0 * L * T) + bias
    if regime is ScheduleKind.VARIANCE:
        return 8.0 * s / (3.0 * (6.0 * theta + 7.0) * L * T) + bias
    if n is None or n < 1:
        raise ValueError("thm3 bound requires the component count n")
    return 8.0 * s / (27.0 * n * L * T) + bias


@dataclass
class RateFit:
    slope: float
    intercept: float


def fit_rate(points) -> RateFit:
    """Least-squares slope of log(gap) against log(T).

    Needs at least three points with distinct horizons; non-positive gaps are
    rejected (the caller's grid reached the floating-point floor).
    """
    pts = [(float(T), float(gap)) for T, gap in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit a rate")
    horizons = [p[0] for p in pts]
    if len(set(horizons)) != len(horizons):
        raise ValueError("horizons must be distinct")
    for _, gap in pts:
        if gap <= 0:
            raise ValueError("non-positive gap; shrink the horizon grid")
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    return RateFit(float(slope), float(intercept))


def _center(x_curr: np.ndarray, x_prev: np.ndarray, t: int) -> np.ndarray:
    # the accelerated sweep's affine center: ((t+1)/2) x_t - ((t-1)/2) x_{t-1}
    return ((t + 1) / 2.0) * x_curr - ((t - 1) / 2.0) * x_prev


def momentum_reconstruction_errors(x_snapshots, y_snapshots) -> tuple[float, float]:
    """Max relative errors of the two convex-combination identities.

    With weight theta_t = 2/(t+2) and center v_t built from consecutive x's:
        x_t = theta_{t-1} v_t + (1 - theta_{t-1}) x_{t-1}
        y_t = theta_t     v_t + (1 - theta_t)     x_t
    The first validates the center arithmetic, the second validates the
    recorded extrapolation step.
    """
    T = len(x_snapshots) - 1
    if len(y_snapshots) != T + 1:
        raise ValueError("need y_0 .. y_T alongside x_0 .. x_T")
    err_x = 0.0
    err_y = 0.0
    for t in range(1, T + 1):
        v = _center(x_snapshots[t], x_snapshots[t - 1], t)
        theta_prev = 2.0 / (t + 1)
        theta = 2.0 / (t + 2)
        recon_x = theta_prev * v + (1.0 - theta_prev) * x_snapshots[t - 1]
        recon_y = theta * v + (1.0 - theta) * x_snapshots[t]
        err_x = max(err_x, _rel_err(x_snapshots[t], recon_x))
        err_y = max(err_y, _rel_err(y_snapshots[t], recon_y))
    return err_x, err_y


def center_update_errors(result: RunResult, objective, batch_size: int = 1) -> float:
    """Max relative error of the center recursion across the run.

    Recomputes each epoch's mean applied gradient from the recorded inner
    iterates and permutation, then checks
        v_{t+1} = v_t - (eta_{t+1} / theta_t) * mean-gradient,
    theta_t = 2/(t+2), against centers rebuilt from the x snapshots.
    """
    if result.inner_iterates is None or result.x_snapshots is None:
        raise ValueError("run must record iterates and inner iterates")
    xs = result.x_snapshots
    n = objective.n
    worst = 0.0
    for t in range(len(result.trace)):  # epoch t+1 updates v_t -> v_{t+1}
        eta = result.trace[t].step_size
        theta_t = 2.0 / (t + 2)
        inner = result.inner_iterates[t]
        order = result.permutations[t]
        total = np.zeros(objective.dim)
        for b, start in enumerate(range(0, n, batch_size)):
            ids = order[start:start + batch_size]
            total += len(ids) * objective.batch_mean_gradient(inner[b], ids)
        mean_grad = total / n
        v_old = xs[t] if t == 0 else _center(xs[t], xs[t - 1], t)
        v_new = _center(xs[t + 1], xs[t], t + 1)
        worst = max(worst, _rel_err(v_new, v_old - (eta / theta_t) * mean_grad))
    return worst
