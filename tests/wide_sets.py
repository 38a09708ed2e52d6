"""Generated wide sparse logistic data, on which conflict-free runs of rows
form (`Dataset.runs_form`), so sweeps take the logistic block path, and a
wide sparse multiclass set.  Each leaves most columns unstored (dead)."""

import numpy as np

from shuffleopt.data import Dataset

# "wide-uniform" has sparse-wide's 8 entries per row and "wide-long" 24, one
# length for every row; "wide-mixed" has rows of several lengths
WIDE_SETS = ("wide-uniform", "wide-long", "wide-mixed")


def wide_dataset(name: str, n: int = 300, d: int = 6000, seed: int = 0) -> Dataset:
    """Binary rows of distinct columns with standard normal values.

    The mixed set's rows have 8 entries, except for rows of 20 and 40
    entries, a row with no entries and one row stored twice in succession;
    it also holds a stored 0.0.
    """
    rng = np.random.default_rng(seed)
    lengths = np.full(n, 24 if name == "wide-long" else 8)
    mixed = name == "wide-mixed"
    if mixed:
        lengths[5::37] = 20
        lengths[11::53] = 40
        lengths[17] = 0
    cols = [np.sort(rng.choice(d, size=k, replace=False)) for k in lengths.tolist()]
    vals = [rng.standard_normal(k) for k in lengths.tolist()]
    if mixed:
        vals[3][2] = 0.0
        cols[9], vals[9] = cols[8], vals[8]
    indptr = np.concatenate(([0], np.cumsum([c.size for c in cols])))
    labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return Dataset(n=n, d=d, c=1, indptr=indptr, indices=np.concatenate(cols),
                   values=np.concatenate(vals), labels=labels)


def wide_multiclass(n: int = 40, d: int = 300, c: int = 3, seed: int = 0) -> Dataset:
    """Multiclass rows of 5 distinct columns with standard normal values;
    about half the columns are stored by no row."""
    rng = np.random.default_rng(seed)
    cols = [np.sort(rng.choice(d, size=5, replace=False)) for _ in range(n)]
    indptr = np.arange(0, 5 * n + 1, 5)
    return Dataset(n=n, d=d, c=c, indptr=indptr, indices=np.concatenate(cols),
                   values=rng.standard_normal(5 * n), labels=rng.integers(0, c, size=n))
