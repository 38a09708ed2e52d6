"""The numpy behaviour that the bitwise gates rest on.

The golden digests, the CLI corpus and the block-sweep tests compare bytes.
The fast paths keep those bytes only where numpy behaves as witnessed here,
one small test per assumption, so that on a host where one fails the failure
names the assumption and the host instead of a digest (``host.py``)."""

import math

import numpy as np

from floats import same_floats
from host import host


def logaddexp_cases():
    tiny = float(np.finfo(np.float64).smallest_subnormal)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, tiny, -tiny, 1e3 * tiny,
               -1e3 * tiny, 709.0, -709.0, 745.0, -745.0, 709.8, -709.8, 745.2, -745.2]
    rng = np.random.default_rng(2718)
    draws = [scale * rng.standard_normal(20_000) for scale in (0.1, 1.0, 10.0, 100.0, 300.0)]
    return special + np.concatenate(draws).tolist()


def float_cases():
    """Random draws over a wide range of magnitudes, then +-0, subnormals,
    +-inf, nan and values near +-1e308."""
    tiny = float(np.finfo(np.float64).smallest_subnormal)
    big = float(np.finfo(np.float64).max)
    special = [0.0, -0.0, tiny, -tiny, 3 * tiny, 1e-310, -1e-310, 2.2e-308, -2.2e-308,
               math.inf, -math.inf, math.nan, 1e308, -1e308, big, -big, 1.0, -1.0]
    rng = np.random.default_rng(314)
    draws = rng.standard_normal(4000) * 10.0 ** rng.integers(-300, 301, size=4000)
    return special + draws.tolist()


@np.errstate(all="ignore")
def test_python_float_arithmetic_equals_numpy_ufuncs():
    # the logistic sweep where runs do not form takes each row step in Python
    # floats; the row step, block sweep and batch gradient take numpy's array
    # loops over the same operations: *, + 0.0 and -
    cases = float_cases()
    a = np.array(cases)
    pairs = [(x, y) for x in cases[:18] for y in cases] + list(zip(cases, cases[::-1]))
    x, y = (np.array(column) for column in zip(*pairs))
    assert same_floats(x * y, [p * q for p, q in pairs]), host()
    assert same_floats(x - y, [p - q for p, q in pairs]), host()
    assert same_floats(a + 0.0, [p + 0.0 for p in cases]), host()
    for p in cases[:18]:  # a Python float times an array, as coef * vals
        assert same_floats(p * a, [p * q for q in cases]), (p, host())


def test_bincount_sums_each_bin_in_entry_order():
    # Dataset.tdot sums each column's entries with a weighted np.bincount; the
    # live twin renames the columns, so every per-column sum must keep its
    # bits (tests/test_data.py checks the twin's renumbering itself).  Every
    # logistic margin is the sum of a row's products from +0.0 in stored
    # order, which Dataset.dot and the gathered rows take as one bincount,
    # and the batch gradient adds its rows per column with one, in batch order.
    rng = np.random.default_rng(11)
    d = 40
    cols = 2 * rng.integers(0, d // 2, size=600)  # the odd columns are dead
    vals = rng.standard_normal(600) * 10.0 ** rng.integers(-12, 13, size=600)
    in_order, reversed_order = np.zeros(d), np.zeros(d)
    for c, v in zip(cols.tolist(), vals.tolist()):
        in_order[c] += v
    for c, v in zip(cols.tolist()[::-1], vals.tolist()[::-1]):
        reversed_order[c] += v
    assert in_order.tobytes() != reversed_order.tobytes()  # the sums depend on the order
    full = np.bincount(cols, weights=vals, minlength=d)
    assert full.tobytes() == in_order.tobytes(), host()
    # any renaming of the bins, the twin's order-keeping one among them
    perm = rng.permutation(d)
    renamed = np.bincount(perm[cols], weights=vals, minlength=d)
    assert renamed[perm].tobytes() == full.tobytes(), host()
    # a bin of -0.0 entries sums to +0.0, as a sum from +0.0 does
    assert np.bincount([0, 0], weights=[-0.0, -0.0]).tobytes() == np.array(0.0).tobytes()


@np.errstate(invalid="ignore")  # numpy flags its comparisons on nan
def test_array_exp_and_logaddexp_equal_their_scalar_forms():
    # the block sweep's coefficients come from numpy's array loops and the row
    # step's from the scalar forms
    margins = np.array(logaddexp_cases())
    for y in (-1.0, 1.0):
        scalar = [-y * float(np.exp(-float(np.logaddexp(0.0, y * m)))) for m in margins.tolist()]
        assert (-y * np.exp(-np.logaddexp(0, y * margins))).tobytes() == \
            np.array(scalar).tobytes(), host()

