"""Sample container and the LIBSVM text format.

One record per non-empty line::

    <label> <index>:<value> <index>:<value> ...

Feature indices are 1-based in files, strictly increasing within a line, and
stored 0-based.  Binary labels may be written as 0/1 or -1/+1 and are mapped
to -1/+1; multiclass labels must be integers and are re-indexed densely from
0.  Explicit zero values are kept as written.  A label or value that is not
finite (inf, nan, or beyond the float range) is rejected with its line.

`Dataset` owns the row layout: it builds each entry's row id and each row's
(columns, values) views once, and computes X @ w, X^T @ c and the squared row
norms, so no other module reads the layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_BINARY_LABEL_SETS = ({-1.0, 1.0}, {0.0, 1.0})


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
        # built once, so `row` does no numpy indexing
        bounds = self.indptr.tolist()
        self._row_views = [(self.indices[lo:hi], self.values[lo:hi])
                           for lo, hi in zip(bounds, bounds[1:])]

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

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Row i's column ids and values, as read-only views."""
        return self._row_views[i]

    def dot(self, w: np.ndarray) -> np.ndarray:
        """X @ w: each row's inner product with w."""
        return np.bincount(self._rows, weights=self.values * w[self.indices], minlength=self.n)

    def tdot(self, coef: np.ndarray) -> np.ndarray:
        """X^T @ coef: the rows summed with weights coef."""
        return np.bincount(self.indices, weights=self.values * coef[self._rows], minlength=self.d)

    def row_sq_norms(self) -> np.ndarray:
        return np.bincount(self._rows, weights=self.values ** 2, minlength=self.n)

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
    # checked on whole arrays after the token loop, so no token pays for it
    if not (np.isfinite(raw_labels).all() and np.isfinite(value_arr).all()):
        raise _non_finite(raw_labels, values, indptr, label_lines)

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


def _non_finite(labels: list[float], values: list[float], indptr: list[int],
                lines: list[int]) -> ParseError:
    """The error for the first line holding a non-finite label or value."""
    for row, label in enumerate(labels):
        if not math.isfinite(label):
            return ParseError(f"non-finite label {label!r}", lines[row])
        bad = [v for v in values[indptr[row]:indptr[row + 1]] if not math.isfinite(v)]
        if bad:
            return ParseError(f"non-finite feature value {bad[0]!r}", lines[row])


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
