"""Per-epoch step sizes.

The guarantee-backed kinds share one exponential form,

    eta_t = k * alpha**t / (L * T),    alpha = 1 + 1/T,

and differ only in the constant k:

    thm1, thm3   k = 1 / (e * alpha * 12**(1/3))
    thm2         k = 1 / (e * alpha * (2*(6*theta + 7))**(1/3))
    init-cond    k = 1 / (e * alpha * n**(1/4) * 12**(1/3))

Optimizers apply eta_t / n per component inside an epoch.  These constants
keep eta_t <= 1/(2L) for every t <= T (the peak eta_T is at most
1/(alpha * 12**(1/3) * L * T)); the accessor asserts that cap instead of
clamping, since a violation can only mean a bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

CBRT12 = 12.0 ** (1.0 / 3.0)


class ScheduleError(ValueError):
    pass


class ScheduleKind(str, Enum):
    CONSTANT = "constant"
    UNIFIED = "thm1"        # any permutation order, convex components
    VARIANCE = "thm2"       # convex sum with a (theta, sigma^2) variance bound
    RANDOMIZED = "thm3"     # random permutations; guarantee in expectation
    INITIAL = "init-cond"   # small-start regime; k shrinks with n**(1/4)


@dataclass(frozen=True)
class ScheduleSpec:
    kind: ScheduleKind
    T: int
    L: float | None = None        # smoothness bound, required unless constant
    lr: float | None = None       # constant step, required for kind = constant
    theta: float | None = None    # variance-bound constant, read by thm2 only
    n: int | None = None          # component count, read by init-cond only

    def __post_init__(self):
        object.__setattr__(self, "kind", ScheduleKind(self.kind))
        if self.kind is ScheduleKind.CONSTANT:
            if self.T < 1:
                raise ScheduleError("T must be >= 1")
            if self.lr is None or self.lr <= 0:
                raise ScheduleError("constant schedule needs lr > 0")
            return
        if self.T < 2:
            raise ScheduleError("theory requires T >= 2")
        if self.L is None or self.L <= 0:
            raise ScheduleError("guarantee-backed schedules need the smoothness bound L > 0")
        if self.kind is ScheduleKind.VARIANCE and (self.theta is None or self.theta < 0):
            raise ScheduleError("thm2 schedule needs theta >= 0")
        if self.kind is ScheduleKind.INITIAL and (self.n is None or self.n < 1):
            raise ScheduleError("init-cond schedule needs the component count n")

    @property
    def alpha(self) -> float:
        return 1.0 + 1.0 / self.T

    @property
    def root(self) -> float:
        """The cube root in k, shared with the regime's bound in
        `diagnostics.convergence_bound`."""
        if self.kind is ScheduleKind.VARIANCE:
            return (2.0 * (6.0 * self.theta + 7.0)) ** (1.0 / 3.0)
        return CBRT12

    @property
    def k(self) -> float:
        if self.kind is ScheduleKind.CONSTANT:
            raise ScheduleError("constant schedule has no k")
        if self.kind is ScheduleKind.INITIAL:
            return 1.0 / (math.e * self.alpha * self.n ** 0.25 * self.root)
        return 1.0 / (math.e * self.alpha * self.root)


def epoch_step_size(spec: ScheduleSpec, t: int) -> float:
    """eta_t for epoch t in [1, T]; optimizers use eta_t / n per component."""
    if not 1 <= t <= spec.T:
        raise ScheduleError(f"epoch {t} outside [1, {spec.T}]")
    if spec.kind is ScheduleKind.CONSTANT:
        return spec.lr
    eta = spec.k * spec.alpha ** t / (spec.L * spec.T)
    if eta > 0.5 / spec.L:
        raise ScheduleError("step size exceeded 1/(2L); schedule constants are inconsistent")
    return eta
