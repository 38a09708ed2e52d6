"""Sample container and the LIBSVM text format.

One record per non-empty line::

    <label> <index>:<value> <index>:<value> ...

Feature indices are 1-based in files, strictly increasing within a line, and
stored 0-based.  Binary labels may be written as 0/1 or -1/+1 and are mapped
to -1/+1; multiclass labels must be integers and are re-indexed densely from
0.  Explicit zero values are kept as written.  A label or value that is not
finite (inf, nan, or beyond the float range) is rejected with its line.
Every number is checked as it is read, so the error names the first fault in
file order.

`Dataset` owns the row layout: it builds each entry's row id once, serves
each row's (columns, values) views, and computes X @ w, X^T @ c and the
squared row norms, so no other module reads the layout.  For the logistic
block sweep it also gathers a batch of rows into flat (columns, values,
lengths) arrays, splits an order into greedy runs of rows whose columns are
pairwise disjoint, and decides from the rows alone whether such runs form on
this data (`runs_form`); for the logistic sweep where they do not, it serves
each row's (column, value) pairs as Python numbers (`row_entries`).  The row
views, the row entries, the row lengths and that decision are built at first
use, not when the data is parsed: where runs form, the sweep and the batch
gradient gather and the trace takes products, so no view is ever built.

A column that no row stores is dead: every product leaves it out, so every
gradient is +0.0 there.  `Dataset` also owns the renumbering that drops the
dead columns: `live_columns` lists the stored ones, and `renumbered()` is a
copy over those alone, which shares `indptr`, `values` and `labels`.  A
renumbering keeps the columns' order, so every per-column sum adds the same
entries in the same order, and the renumbered rows form the same runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

_BINARY_LABEL_SETS = ({-1.0, 1.0}, {0.0, 1.0})
# the mean greedy run, in rows, from which `runs_form` holds
_RUN_FLOOR = 3


class ParseError(ValueError):
    """Malformed input, located by 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"{message} at line {line}"
        super().__init__(message)


@dataclass
class Dataset:
    """Immutable sparse sample matrix in compressed row layout.

    `c` is the class count: 1 for binary (labels are -1/+1 floats), >= 2 for
    multiclass (labels are 0-based class ids).
    """

    n: int
    d: int
    c: int
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.c == 1:
            self.labels = np.asarray(self.labels, dtype=np.float64)
        else:
            self.labels = np.asarray(self.labels, dtype=np.int64)
        self._check()
        for arr in (self.indptr, self.indices, self.values, self.labels, self._rows):
            arr.setflags(write=False)

    def _check(self):
        if self.n < 1:
            raise ValueError("dataset needs at least one sample")
        if self.indptr.shape != (self.n + 1,) or self.indptr[0] != 0:
            raise ValueError("bad row layout")
        if self.indptr[-1] != self.indices.size or self.values.size != self.indices.size:
            raise ValueError("bad row layout")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("bad row layout")
        # the row id of every stored entry, built once for every product
        self._rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        if self.labels.shape != (self.n,):
            raise ValueError("labels length must equal n")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.d:
                raise ValueError("feature index out of range")
            # strictly increasing inside each row; jumps across row
            # boundaries are exempt
            same_row = self._rows[1:] == self._rows[:-1]
            if np.any((np.diff(self.indices) <= 0) & same_row):
                raise ValueError("feature indices must be strictly increasing per row")
        if self.c == 1:
            if not np.all(np.isin(self.labels, (-1.0, 1.0))):
                raise ValueError("binary labels must be -1 or +1")
        else:
            if self.labels.min() < 0 or self.labels.max() >= self.c:
                raise ValueError("class ids must lie in [0, c)")

    @cached_property
    def _row_views(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each row's (columns, values) views, built at the first `row` call,
        so `row` does no numpy indexing."""
        bounds = self.indptr.tolist()
        return [(self.indices[lo:hi], self.values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Row i's column ids and values, as read-only views."""
        return self._row_views[i]

    @cached_property
    def row_entries(self) -> list[list[tuple[int, float]]]:
        """Each row's (column id, value) pairs in stored order, as Python
        numbers; built at first use."""
        bounds = self.indptr.tolist()
        entries = list(zip(self.indices.tolist(), self.values.tolist()))
        return [entries[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    # np.bincount returns int64 when no entry is stored, even with weights, so
    # the products are cast to float64 (no copy when they already are)
    def dot(self, w: np.ndarray) -> np.ndarray:
        """X @ w: each row's inner product with w."""
        return np.bincount(self._rows, weights=self.values * w[self.indices],
                           minlength=self.n).astype(np.float64, copy=False)

    def tdot(self, coef: np.ndarray) -> np.ndarray:
        """X^T @ coef: the rows summed with weights coef."""
        return np.bincount(self.indices, weights=self.values * coef[self._rows],
                           minlength=self.d).astype(np.float64, copy=False)

    def row_sq_norms(self) -> np.ndarray:
        return np.bincount(self._rows, weights=self.values ** 2,
                           minlength=self.n).astype(np.float64, copy=False)

    @cached_property
    def _lengths(self) -> np.ndarray:
        """Each row's stored entry count, built at first use."""
        return np.diff(self.indptr)

    def gather(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows `ids` (a 1-D int array) in turn, flattened: their columns,
        their values and each row's length."""
        lengths = self._lengths[ids]
        ends = np.cumsum(lengths)
        # entry k of the j-th row sits at indptr[ids[j]] + k
        pos = np.repeat(self.indptr[ids] - (ends - lengths), lengths)
        pos += np.arange(pos.size)
        return self.indices[pos], self.values[pos], lengths

    @staticmethod
    def disjoint_runs(cols: np.ndarray, lengths: np.ndarray) -> list[int]:
        """Split gathered rows greedily into runs of consecutive rows whose
        columns are pairwise disjoint: the row positions where the runs start,
        then the row count.  A run ends before the first row that shares a
        column with an earlier row of the run, so a repeated row always ends
        one; a row with no entries never does."""
        m = lengths.size
        # one key per entry, sorted by column and then by row
        keys = cols * m
        keys += np.repeat(np.arange(m), lengths)
        keys.sort()
        col = keys // m
        repeat = col[1:] == col[:-1]
        del col
        # each row's latest earlier row that shares one of its columns, or -1
        latest = np.full(m, -1)
        np.maximum.at(latest, keys[1:][repeat] % m, keys[:-1][repeat] % m)
        starts, start = [0], 0
        for pos, earlier in enumerate(latest.tolist()):
            if earlier >= start:
                starts.append(pos)
                start = pos
        starts.append(m)
        return starts

    @cached_property
    def runs_form(self) -> bool:
        """Whether conflict-free runs form on these rows: their greedy runs in
        stored order average at least `_RUN_FLOOR` rows.  Decided once, at
        first use; rows that all share a column give runs of one row.  When
        `_RUN_FLOOR` rows of mean length hold more entries than there are
        columns, runs that long cannot be common, and they are not sought."""
        if _RUN_FLOOR * self.indices.size > self.d * self.n:
            return False
        return self.n >= _RUN_FLOOR * (len(self.disjoint_runs(self.indices, self._lengths)) - 1)

    @cached_property
    def live_columns(self) -> np.ndarray:
        """The columns some row stores, ascending; built at first use."""
        # a mask, not np.unique: numpy 2.4's np.unique imports numpy.ma at its
        # first call, which raised sparse-wide's peak RSS by about 11%
        mask = np.zeros(self.d, dtype=bool)
        mask[self.indices] = True
        return np.flatnonzero(mask)

    def renumbered(self) -> "Dataset":
        """This data over its live columns alone, column `live_columns[j]`
        renamed j."""
        live = self.live_columns
        new_id = np.empty(self.d, dtype=np.int64)
        new_id[live] = np.arange(live.size)
        return Dataset(n=self.n, d=live.size, c=self.c, indptr=self.indptr,
                       indices=new_id[self.indices], values=self.values, labels=self.labels)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.d))
        out[self._rows, self.indices] = self.values
        return out

    @classmethod
    def from_dense(cls, X, labels, c: int | None = None) -> "Dataset":
        """Build from a dense matrix, dropping exact zeros.

        Binary when `c` is omitted and labels are all -1/+1, else multiclass.
        """
        X = np.asarray(X, dtype=np.float64)
        labels = np.asarray(labels)
        n, d = X.shape
        mask = X != 0.0
        indptr = np.concatenate(([0], np.cumsum(mask.sum(axis=1))))
        cols = np.nonzero(mask)[1]
        vals = X[mask]
        if c is None:
            c = 1 if set(np.unique(labels).tolist()) <= {-1.0, 1.0} else int(labels.max()) + 1
        return cls(n=n, d=d, c=c, indptr=indptr, indices=cols, values=vals, labels=labels)


def parse_libsvm(text, mode: str = "auto", dim: int | None = None,
                 add_bias: bool = False, scale: bool = False) -> Dataset:
    """Parse LIBSVM text into a Dataset.

    mode: "auto" detects binary label sets {0,1} / {-1,+1} and treats anything
    else as multiclass; "binary" and "multiclass" force the interpretation.
    dim: optional dimension override (files omit trailing zero features).
    add_bias: append a constant feature 1.0 to every row.
    scale: per-feature max-abs scaling.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if mode not in ("auto", "binary", "multiclass"):
        raise ValueError(f"unknown mode {mode!r}")

    raw_labels: list[float] = []
    label_lines: list[int] = []
    indptr = [0]
    indices: list[int] = []
    values: list[float] = []
    max_index = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(f"malformed label {tokens[0]!r}", lineno) from None
        if not math.isfinite(label):
            raise ParseError(f"non-finite label {label!r}", lineno)
        previous = 0
        for token in tokens[1:]:
            head, sep, tail = token.partition(":")
            if not sep:
                raise ParseError(f"malformed feature entry {token!r}", lineno)
            try:
                index = int(head)
            except ValueError:
                raise ParseError(f"malformed feature index {head!r}", lineno) from None
            try:
                value = float(tail)
            except ValueError:
                raise ParseError(f"malformed feature value {tail!r}", lineno) from None
            if index < 1:
                raise ParseError(f"feature index must be >= 1, got {index}", lineno)
            if index <= previous:
                raise ParseError("non-increasing feature index", lineno)
            if not math.isfinite(value):
                raise ParseError(f"non-finite feature value {value!r}", lineno)
            previous = index
            if index > max_index:
                max_index = index
            indices.append(index - 1)
            values.append(value)
        raw_labels.append(label)
        label_lines.append(lineno)
        indptr.append(len(indices))

    if not raw_labels:
        raise ParseError("empty input")

    index_arr = np.array(indices, dtype=np.int64)
    value_arr = np.array(values, dtype=np.float64)
    indptr_arr = np.array(indptr, dtype=np.int64)

    d = max_index
    if dim is not None:
        if dim < max_index:
            raise ParseError(f"dimension override {dim} is below max feature index {max_index}")
        d = dim

    labels, c = _resolve_labels(raw_labels, label_lines, mode)

    if scale and index_arr.size:
        peak = np.zeros(d)
        np.maximum.at(peak, index_arr, np.abs(value_arr))
        peak[peak == 0.0] = 1.0
        value_arr = value_arr / peak[index_arr]

    if add_bias:
        counts = np.diff(indptr_arr)
        index_arr = np.insert(index_arr, indptr_arr[1:], d)
        value_arr = np.insert(value_arr, indptr_arr[1:], 1.0)
        indptr_arr = np.concatenate(([0], np.cumsum(counts + 1)))
        d += 1

    return Dataset(n=len(raw_labels), d=d, c=c, indptr=indptr_arr,
                   indices=index_arr, values=value_arr, labels=labels)


def _resolve_labels(raw: list[float], lines: list[int], mode: str):
    distinct = set(raw)
    binary_like = any(distinct <= s for s in _BINARY_LABEL_SETS)
    if mode == "binary" and not binary_like:
        bad = next(i for i, v in enumerate(raw) if not any(v in s for s in _BINARY_LABEL_SETS))
        raise ParseError(f"binary mode requires labels in {{0,1}} or {{-1,+1}}, got {raw[bad]!r}",
                         lines[bad])
    if mode == "binary" or (mode == "auto" and binary_like):
        mapped = np.array([1.0 if v == 1.0 else -1.0 for v in raw])
        return mapped, 1
    for i, v in enumerate(raw):
        if v != int(v):
            raise ParseError(f"multiclass label must be an integer, got {v!r}", lines[i])
    classes = sorted({int(v) for v in raw})
    lookup = {cls: k for k, cls in enumerate(classes)}
    mapped = np.array([lookup[int(v)] for v in raw], dtype=np.int64)
    return mapped, len(classes)


def serialize_libsvm(dataset: Dataset) -> str:
    """Inverse of parse_libsvm for the same mode; values use shortest repr."""
    out = []
    for i in range(dataset.n):
        if dataset.c == 1:
            label = "+1" if dataset.labels[i] > 0 else "-1"
        else:
            label = str(int(dataset.labels[i]))
        idx, val = dataset.row(i)
        parts = [label] + [f"{int(j) + 1}:{repr(float(v))}" for j, v in zip(idx, val)]
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def load_libsvm(path, **kwargs) -> Dataset:
    return parse_libsvm(Path(path).read_bytes(), **kwargs)
