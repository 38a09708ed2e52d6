import hashlib
import math
from decimal import Decimal, getcontext

import pytest

from shuffleopt.schedules import (CBRT12, ScheduleError, ScheduleKind, ScheduleSpec,
                                  epoch_step_size)

# 60-digit oracle value for eta_1 with kind=thm1, T=2, L=1:
#   alpha = 3/2, k = 1/(e*alpha*12^(1/3)), eta_1 = k*alpha/(L*T)
ETA1_T2_L1 = 0.080343073296369625832227829044601905034991440425023551145456


def _decimal_eta(kind_root: Decimal, T: int, L: int, t: int) -> Decimal:
    getcontext().prec = 60
    one = Decimal(1)
    alpha = one + one / T
    k = one / (one.exp() * alpha * kind_root)
    return k * alpha ** t / (L * T)


def test_frozen_oracle_value():
    getcontext().prec = 60
    oracle = _decimal_eta(Decimal(12) ** (Decimal(1) / 3), T=2, L=1, t=1)
    assert abs(float(oracle) - ETA1_T2_L1) <= 1e-15
    spec = ScheduleSpec(ScheduleKind.UNIFIED, T=2, L=1.0)
    eta = epoch_step_size(spec, 1)
    assert abs(eta - ETA1_T2_L1) <= 1e-12 * ETA1_T2_L1


def test_constant_schedule():
    spec = ScheduleSpec(ScheduleKind.CONSTANT, T=7, lr=0.05)
    assert all(epoch_step_size(spec, t) == 0.05 for t in range(1, 8))


@pytest.mark.parametrize("kind", [ScheduleKind.UNIFIED, ScheduleKind.VARIANCE,
                                  ScheduleKind.RANDOMIZED, ScheduleKind.INITIAL])
@pytest.mark.parametrize("T", [2, 4, 16, 64, 256])
def test_monotone_and_capped(kind, T):
    spec = ScheduleSpec(kind, T=T, L=2.0, theta=0.5, n=50)
    etas = [epoch_step_size(spec, t) for t in range(1, T + 1)]
    assert all(a < b for a, b in zip(etas, etas[1:]))
    assert all(eta <= 0.5 / 2.0 for eta in etas)
    assert spec.alpha ** T <= math.e


def test_power_two_ways_agree():
    spec = ScheduleSpec(ScheduleKind.UNIFIED, T=64, L=1.0)
    alpha = spec.alpha
    product = 1.0
    for t in range(1, 65):
        product *= alpha
        via_exp = math.exp(t * math.log(alpha))
        assert abs(product - via_exp) <= 1e-12 * via_exp
        assert abs(spec.alpha ** t - via_exp) <= 1e-12 * via_exp


def test_guarantee_kinds_need_T_at_least_2():
    with pytest.raises(ScheduleError, match="theory requires T >= 2"):
        ScheduleSpec(ScheduleKind.UNIFIED, T=1, L=1.0)


def test_missing_constants():
    with pytest.raises(ScheduleError, match="theta"):
        ScheduleSpec(ScheduleKind.VARIANCE, T=4, L=1.0)
    with pytest.raises(ScheduleError, match="component count"):
        ScheduleSpec(ScheduleKind.INITIAL, T=4, L=1.0)
    with pytest.raises(ScheduleError, match="lr"):
        ScheduleSpec(ScheduleKind.CONSTANT, T=4)
    with pytest.raises(ScheduleError, match="L > 0"):
        ScheduleSpec(ScheduleKind.UNIFIED, T=4)


def test_epoch_out_of_range():
    spec = ScheduleSpec(ScheduleKind.UNIFIED, T=4, L=1.0)
    with pytest.raises(ScheduleError):
        epoch_step_size(spec, 0)
    with pytest.raises(ScheduleError):
        epoch_step_size(spec, 5)


def test_k_relationships():
    T, L, n = 16, 1.0, 81
    unified = ScheduleSpec(ScheduleKind.UNIFIED, T=T, L=L)
    randomized = ScheduleSpec(ScheduleKind.RANDOMIZED, T=T, L=L)
    initial = ScheduleSpec(ScheduleKind.INITIAL, T=T, L=L, n=n)
    variance0 = ScheduleSpec(ScheduleKind.VARIANCE, T=T, L=L, theta=0.0)
    assert randomized.k == unified.k
    assert initial.k == pytest.approx(unified.k / n ** 0.25, rel=1e-15)
    assert variance0.k == pytest.approx(1.0 / (math.e * unified.alpha * 14.0 ** (1 / 3)),
                                        rel=1e-15)
    assert unified.k == pytest.approx(1.0 / (math.e * unified.alpha * CBRT12), rel=1e-15)


def step_size_digest() -> str:
    """sha256 of the repr of every eta_t of every guarantee kind over a grid
    of T, L, theta and n."""
    lines = []
    for kind in ("thm1", "thm2", "thm3", "init-cond"):
        for T in (2, 3, 7, 16, 100):
            for L in (0.5, 1.0, 7.3):
                for theta in (0.0, 0.5, 3.0):
                    for n in (1, 50, 81):
                        spec = ScheduleSpec(kind, T=T, L=L, theta=theta, n=n)
                        lines += [repr(epoch_step_size(spec, t)) for t in range(1, T + 1)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# a step size that moves by one bit changes the digest; a change that keeps
# every operand and its order keeps it
STEP_SIZE_DIGEST = "ebeaf7da41c3829542d06f704ec9a30668a5f273efa58edebe04765db50139ed"


def test_step_sizes_bitwise():
    assert step_size_digest() == STEP_SIZE_DIGEST
