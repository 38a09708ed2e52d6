"""Epoch-structured first-order methods: one sweep loop, one update rule
per method.

`run` executes every method.  Every epoch it draws the index order, sweeps the
order's batches from the sweep point y (applying the method's update rule
after each batch gradient), records the inner iterates, checks the sweep's
end point for divergence and evaluates the trace row.  The methods differ
only in that rule and in what becomes of the end point:

* ``nasg``     y -= (eta_t/n) * |batch| * g; the end point is x_t, followed
               by one extrapolation y = x_t + (t-1)/(t+2) * (x_t - x_{t-1});
* ``nasg-pi``  same step, but the extrapolation follows every inner step
               (the per-iteration variant);
* ``nag``      a single full-gradient step x_t = y - eta_t * grad F(y) in
               place of the sweep, then the nasg extrapolation;
* ``sgd``      w -= lr * g;
* ``sgdm``     heavy-ball velocity m = beta*m + g, then w -= lr * m;
* ``adam``     bias-corrected adaptive moments, beta1=0.9, beta2=0.999.

Here g is the mean gradient of the batch.  A batch is a contiguous block of
the epoch's permutation, handed to the objective as a list of Python ints,
and all of its gradients are evaluated at the same inner iterate.  The updates
of the form "point minus scale times g" (nasg, nasg-pi, sgd) go through
`objective.step`, which applies them in place; at batch size 1 a row-data step
touches only the row's columns and a quadratic step skips the batch gather
and mean.  sgdm and adam take g from `batch_mean_gradient` and update their
moments in place.  Inner iterates are written into one (blocks + 1, dim)
array per epoch.  The nasg family applies batches with per-component step
eta_t/n, so batch size 1 recovers the per-sample sweep exactly and batch size
n recovers one full-gradient step of size eta_t.

Divergence (a non-finite iterate) is a first-class outcome: `run`
raises DivergenceError carrying the partial trace instead of crashing.  A
non-finite value never turns finite again, so checking once per epoch
reports the epoch in which it first appeared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import epoch_dispersion
from .schedules import ScheduleSpec, epoch_step_size
from .shuffling import ShufflingScheme, generate_permutation, uniform_indices

OPTIMIZERS = ("nasg", "nasg-pi", "nag", "sgd", "sgdm", "adam")


class DivergenceError(RuntimeError):
    def __init__(self, message, epoch: int, partial=None):
        super().__init__(message)
        self.epoch = epoch
        self.partial = partial


@dataclass
class EpochTrace:
    """Per-epoch record of the run loop.

    `value` and `grad_sq_norm` are evaluated at the epoch's convergence
    iterate (x-tilde for the Nesterov family, w for the baselines).
    """

    epoch: int
    value: float
    grad_sq_norm: float
    step_size: float
    accuracy: float | None = None
    disp_start: float | None = None
    disp_end: float | None = None


@dataclass
class TraceOptions:
    record_iterates: bool = False    # keep per-epoch x/y snapshots
    record_inner: bool = False       # keep inner iterates and permutations
    record_dispersion: bool = False  # fill disp_start / disp_end
    record_accuracy: bool = False


@dataclass
class RunResult:
    trace: list[EpochTrace]
    final_x: np.ndarray
    x_snapshots: list[np.ndarray] | None = None    # x_0 .. x_T
    y_snapshots: list[np.ndarray] | None = None    # y_0 .. y_T
    inner_iterates: list[np.ndarray] | None = None  # per epoch, (blocks+1, dim)
    permutations: list[np.ndarray] | None = None

    @property
    def final_value(self) -> float:
        return self.trace[-1].value


def start_point(optimizer: str, objective, batch_size: int, x0, options: TraceOptions,
                with_replacement: bool) -> np.ndarray:
    """Check `run`'s arguments against the objective and return the float64
    start point (zeros unless `x0` is given)."""
    if optimizer not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {optimizer!r}")
    if not 1 <= batch_size <= objective.n:
        raise ValueError(f"batch_size must be in [1, {objective.n}]")
    if with_replacement and optimizer != "sgd":
        raise ValueError("with_replacement only applies to sgd")
    if (options.record_inner or options.record_dispersion) and optimizer == "nag":
        raise ValueError("inner-iterate recording is not defined for nag")
    dim = objective.dim
    try:
        x = np.zeros(dim) if x0 is None else np.array(x0, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        raise ValueError("x0 must be finite") from None
    if x.shape != (dim,):
        raise ValueError(f"x0 must have shape ({dim},)")
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    return x


def run(optimizer: str, objective, scheme, schedule: ScheduleSpec, seed: int = 0,
        batch_size: int = 1, x0=None, options: TraceOptions | None = None, *,
        sgdm_beta: float = 0.9, adam_beta1: float = 0.9, adam_beta2: float = 0.999,
        adam_eps: float = 1e-8, with_replacement: bool = False) -> RunResult:
    """Run `optimizer` for the schedule's T epochs; deterministic given all
    arguments.

    `scheme` is a SchemeKind (or its string value); together with `seed` it
    fixes every epoch's permutation.  The convergence iterate is the last
    x-tilde (Nesterov family) or w (baselines); each epoch's value and
    squared gradient norm are recorded at it.

    `with_replacement` swaps the shuffled pass of plain sgd for n i.i.d.
    index draws per epoch.
    """
    options = options or TraceOptions()
    x = start_point(optimizer, objective, batch_size, x0, options, with_replacement)
    scheme = ShufflingScheme(scheme, seed)
    n, dim, T = objective.n, objective.dim, schedule.T
    need_inner = options.record_inner or options.record_dispersion

    # x is the convergence iterate and y the point each sweep starts from;
    # the baselines keep them equal
    nesterov = optimizer in ("nasg", "nasg-pi", "nag")
    y = x.copy()
    m = np.zeros(dim)  # sgdm velocity, adam first moment
    v = np.zeros(dim)  # adam second moment
    buf = np.empty(dim)  # adam's scratch
    step = 0           # adam bias-correction counter, runs across epochs

    trace: list[EpochTrace] = []
    x_snaps = [x.copy()] if options.record_iterates else None
    y_snaps = [y.copy()] if options.record_iterates and nesterov else None
    inner_all: list[np.ndarray] | None = [] if options.record_inner else None
    perms: list[np.ndarray] | None = [] if options.record_inner else None

    for t in range(1, T + 1):
        eta = epoch_step_size(schedule, t)
        gamma = (t - 1) / (t + 2)
        if optimizer == "nag":
            order = None
        elif with_replacement:
            order = uniform_indices(scheme.base_seed, t, n, n)
        else:
            order = generate_permutation(scheme, n, t)
        # let overflow produce inf/nan silently; the end-of-sweep check below
        # catches it
        with np.errstate(over="ignore", invalid="ignore"):
            inner = None
            if optimizer == "nag":
                z = y - eta * objective.full_gradient(y)
            else:
                z = y.copy()
                x_step = x  # nasg-pi's inner x iterate
                starts = range(0, n, batch_size)
                if need_inner:
                    inner = np.empty((len(starts) + 1, dim))
                    inner[0] = z
                # the batches as lists of Python ints, cheaper to index with
                # than numpy integers
                perm = order.tolist()
                for block, start in enumerate(starts, 1):
                    ids = perm[start:start + batch_size]
                    if optimizer == "nasg":
                        objective.step(z, ids, eta / n * len(ids))
                    elif optimizer == "nasg-pi":
                        x_new = z.copy()
                        objective.step(x_new, ids, eta / n * len(ids))
                        z = x_new + gamma * (x_new - x_step)
                        x_step = x_new
                    elif optimizer == "sgd":
                        objective.step(z, ids, eta)
                    else:
                        # in place, with no dim-sized temporaries; g, no
                        # longer needed, ends up holding the step
                        g = objective.batch_mean_gradient(z, ids)
                        if optimizer == "sgdm":
                            # m = beta * m + g;  step eta * m
                            m *= sgdm_beta
                            m += g
                            np.multiply(m, eta, out=g)
                        else:
                            step += 1
                            # m = beta1 * m + (1 - beta1) * g
                            m *= adam_beta1
                            m += np.multiply(g, 1.0 - adam_beta1, out=buf)
                            # v = beta2 * v + ((1 - beta2) * g) * g
                            v *= adam_beta2
                            np.multiply(g, 1.0 - adam_beta2, out=buf)
                            buf *= g
                            v += buf
                            # step (eta * m_hat) / (sqrt(v_hat) + eps)
                            np.divide(v, 1.0 - adam_beta2 ** step, out=buf)
                            np.sqrt(buf, out=buf)
                            buf += adam_eps
                            np.divide(m, 1.0 - adam_beta1 ** step, out=g)
                            g *= eta
                            g /= buf
                        z -= g
                    if need_inner:
                        inner[block] = z
            if not np.isfinite(z).all():
                raise DivergenceError(f"non-finite iterate in epoch {t}", t,
                                      RunResult(trace, x.copy(), x_snaps, y_snaps,
                                                inner_all, perms))
            if optimizer == "nasg-pi":
                x, y = x_step, z
            elif nesterov:
                x, y = z, z + gamma * (z - x)
            else:
                x = y = z

            g = objective.full_gradient(x)
            row = EpochTrace(epoch=t, value=objective.full_value(x),
                             grad_sq_norm=float(g @ g), step_size=eta)
            if options.record_accuracy:
                row.accuracy = objective.accuracy(x)
            if options.record_dispersion:
                dispersion = epoch_dispersion(inner)
                row.disp_start, row.disp_end = dispersion.start_msd, dispersion.end_msd
        trace.append(row)
        if options.record_iterates:
            x_snaps.append(x.copy())
            if y_snaps is not None:
                y_snaps.append(y.copy())
        if options.record_inner:
            inner_all.append(inner)
            perms.append(order.copy())

    return RunResult(trace, x.copy(), x_snaps, y_snaps, inner_all, perms)
