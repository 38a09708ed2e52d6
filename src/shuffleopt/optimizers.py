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
* ``nag``      one batch standing for all n components, z -= eta_t * grad F(z)
               from z = y, then the nasg extrapolation;
* ``sgd``      w -= lr * g;
* ``sgdm``     heavy-ball velocity m = beta*m + g, then w -= lr * m;
* ``adam``     bias-corrected adaptive moments, beta1=0.9, beta2=0.999.

Here g is the mean gradient of the batch.  A batch is a contiguous block of
the epoch's permutation, handed to the objective as a list of Python ints,
and all of its gradients are evaluated at the same inner iterate.  `run`
picks one of four update rules once per run, and each updates the sweep point
z in place: sgdm and adam take g from `batch_mean_gradient` and update their
moments in place; nag applies its full gradient to one batch standing for all
n components; at batch size 1, nasg, nasg-pi and sgd hand each index of the
order, a Python int, to `objective.row_step` (the step contract in
`objectives`); larger batches apply z -= scale * g, with nasg's scale eta_t/n
times the batch's length.  nasg-pi extrapolates into a spare buffer held for
the run and rotates the names, so its extrapolation allocates nothing.
Inner iterates are written into one (blocks + 1, dim) array per epoch.  The
nasg family applies batches with per-component step eta_t/n, so batch size 1
recovers the per-sample sweep exactly and batch size n recovers one
full-gradient step of size eta_t.

Divergence (a non-finite iterate) is a first-class outcome: `run`
raises DivergenceError carrying the partial trace instead of crashing.  A
non-finite value never turns finite again, so checking once per epoch
reports the epoch in which it first appeared.
"""

from __future__ import annotations

import sys
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


def start_point(optimizer: str, objective, *, batch_size: int, x0, options: TraceOptions,
                with_replacement: bool, sgdm_beta: float, adam_beta1: float,
                adam_beta2: float, adam_eps: float) -> np.ndarray:
    """Check `run`'s arguments against the objective and return the float64
    start point (zeros unless `x0` is given)."""
    if optimizer not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {optimizer!r}")
    # the moment constants are checked whatever the optimizer
    for name, beta in (("sgdm_beta", sgdm_beta), ("adam_beta1", adam_beta1),
                       ("adam_beta2", adam_beta2)):
        if not 0.0 <= beta < 1.0:
            raise ValueError(f"{name} must be in [0, 1), not {beta!r}")
    # an exact comparison, so an integer beyond the float range is rejected too
    if not 0.0 < adam_eps <= sys.float_info.max:
        raise ValueError(f"adam_eps must be finite and > 0, not {adam_eps!r}")
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


def _moment_step(optimizer: str, objective, sgdm_beta: float, adam_beta1: float,
                 adam_beta2: float, adam_eps: float):
    """sgdm's or adam's step(z, ids, eta), holding the moments of one run.

    The moments are updated in place, with no dim-sized temporaries; the
    batch gradient g, no longer needed, ends up holding the step.
    """
    dim = objective.dim
    m = np.zeros(dim)  # sgdm velocity, adam first moment
    if optimizer == "sgdm":
        def sgdm_step(z, ids, eta):
            nonlocal m  # the in-place operators rebind the names
            g = objective.batch_mean_gradient(z, ids)
            # m = beta * m + g;  step eta * m
            m *= sgdm_beta
            m += g
            np.multiply(m, eta, out=g)
            z -= g
        return sgdm_step

    v = np.zeros(dim)    # second moment
    buf = np.empty(dim)
    count = 0            # bias-correction counter, runs across epochs

    def adam_step(z, ids, eta):
        nonlocal m, v, buf, count
        g = objective.batch_mean_gradient(z, ids)
        count += 1
        # m = beta1 * m + (1 - beta1) * g
        m *= adam_beta1
        m += np.multiply(g, 1.0 - adam_beta1, out=buf)
        # v = beta2 * v + ((1 - beta2) * g) * g
        v *= adam_beta2
        np.multiply(g, 1.0 - adam_beta2, out=buf)
        buf *= g
        v += buf
        # step (eta * m_hat) / (sqrt(v_hat) + eps)
        np.divide(v, 1.0 - adam_beta2 ** count, out=buf)
        np.sqrt(buf, out=buf)
        buf += adam_eps
        np.divide(m, 1.0 - adam_beta1 ** count, out=g)
        g *= eta
        g /= buf
        z -= g
    return adam_step


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
    x = start_point(optimizer, objective, batch_size=batch_size, x0=x0, options=options,
                    with_replacement=with_replacement, sgdm_beta=sgdm_beta,
                    adam_beta1=adam_beta1, adam_beta2=adam_beta2, adam_eps=adam_eps)
    scheme = ShufflingScheme(scheme, seed)
    n, dim, T = objective.n, objective.dim, schedule.T
    need_inner = options.record_inner or options.record_dispersion
    # the update rule, picked once per run: step(z, ids, scale) applies one
    # batch to z in place
    moments = optimizer in ("sgdm", "adam")
    per_component = optimizer in ("nasg", "nasg-pi")  # the nasg family's step
    if moments:
        step = _moment_step(optimizer, objective, sgdm_beta, adam_beta1, adam_beta2, adam_eps)
    elif optimizer == "nag":
        def step(z, ids, scale):
            # the epoch's one batch stands for all n components
            z -= scale * objective.full_gradient(z)
    elif batch_size == 1:
        step = objective.row_step
    else:
        def step(z, ids, scale):
            # in the nasg family a batch of k components takes eta / n * k
            z -= (scale * len(ids) if per_component else scale) \
                * objective.batch_mean_gradient(z, ids)
    row_steps = batch_size == 1 and not moments  # the order's ints are the batches
    pi = optimizer == "nasg-pi"
    spare = np.empty(dim) if pi else None  # nasg-pi's extrapolation buffer

    # x is the convergence iterate and y the point each sweep starts from;
    # the baselines keep them equal
    nesterov = optimizer in ("nasg", "nasg-pi", "nag")
    y = x.copy()

    trace: list[EpochTrace] = []
    x_snaps = [x.copy()] if options.record_iterates else None
    y_snaps = [y.copy()] if options.record_iterates and nesterov else None
    inner_all: list[np.ndarray] | None = [] if options.record_inner else None
    perms: list[np.ndarray] | None = [] if options.record_inner else None

    for t in range(1, T + 1):
        eta = epoch_step_size(schedule, t)
        gamma = (t - 1) / (t + 2)
        if optimizer == "nag":
            order, batches = None, [None]
        else:
            order = (uniform_indices(scheme.base_seed, t, n, n) if with_replacement
                     else generate_permutation(scheme, n, t))
            # the order as Python ints, cheaper to index with than numpy
            # integers
            perm = order.tolist()
            batches = perm if row_steps else [perm[start:start + batch_size]
                                              for start in range(0, n, batch_size)]
        scale = eta / n if per_component else eta
        z = y.copy()
        x_step = x.copy() if pi else None  # nasg-pi's inner x; the sweep never writes x
        # let overflow produce inf/nan silently; the end-of-sweep check below
        # catches it
        with np.errstate(over="ignore", invalid="ignore"):
            inner = None
            if need_inner:
                inner = np.empty((len(batches) + 1, dim))
                inner[0] = z
            for block, ids in enumerate(batches, 1):
                step(z, ids, scale)
                if pi:
                    # z + gamma * (z - x_step), into the spare buffer
                    np.subtract(z, x_step, out=spare)
                    spare *= gamma
                    spare += z
                    x_step, z, spare = z, spare, x_step
                if need_inner:
                    inner[block] = z
            if not np.isfinite(z).all():
                raise DivergenceError(f"non-finite iterate in epoch {t}", t,
                                      RunResult(trace, x.copy(), x_snaps, y_snaps,
                                                inner_all, perms))
            if pi:
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
