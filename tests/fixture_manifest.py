"""Expected structure of the committed fixture corpus, keyed by filename.

WELL_FORMED entries: n, d, c, labels, and optional spot checks
(`row<k>` -> list of (0-based index, value) pairs).  MALFORMED entries:
(expected message fragment, expected 1-based line or None).
"""

WELL_FORMED = {
    "binary_pm1.libsvm": {
        "n": 3, "d": 3, "c": 1, "labels": [1.0, -1.0, 1.0],
        "row0": [(0, 0.5), (2, -2.0)],
        "row1": [(1, 1.0)],
    },
    "binary_01.libsvm": {
        "n": 3, "d": 2, "c": 1, "labels": [1.0, -1.0, 1.0],
        "row0": [(0, 2.5)],
    },
    "explicit_zero.libsvm": {
        "n": 1, "d": 2, "c": 1, "labels": [1.0],
        "row0": [(1, 0.0)],
    },
    "blank_lines.libsvm": {
        "n": 2, "d": 2, "c": 1, "labels": [1.0, -1.0],
        "row1": [(1, -1.0)],
    },
    "single_sample.libsvm": {
        "n": 1, "d": 1, "c": 1, "labels": [-1.0],
        "row0": [(0, 42.0)],
    },
    "multiclass_3.libsvm": {
        "n": 4, "d": 3, "c": 3, "labels": [0, 1, 2, 1],
        "row3": [(0, 0.5), (2, 0.5)],
    },
    "scientific_values.libsvm": {
        "n": 2, "d": 3, "c": 1, "labels": [1.0, -1.0],
        "row0": [(0, 1e-3), (1, -250.0)],
        "row1": [(2, 40.0)],
    },
    "wide_sparse.libsvm": {
        "n": 2, "d": 4096, "c": 1, "labels": [1.0, -1.0],
        "row0": [(6, 1.0), (4095, 0.125)],
    },
    "no_features_row.libsvm": {
        "n": 2, "d": 2, "c": 1, "labels": [1.0, -1.0],
        "row0": [],
        "row1": [(1, 3.0)],
    },
    "crlf_endings.libsvm": {
        "n": 2, "d": 2, "c": 1, "labels": [1.0, -1.0],
        "row0": [(0, 1.0)],
    },
    "blobs600.libsvm": {
        "n": 600, "d": 10, "c": 1,
    },
}

MALFORMED = {
    "non_increasing.libsvm": ("non-increasing feature index", 1),
    "zero_index.libsvm": ("feature index must be >= 1", 2),
    "bad_label.libsvm": ("malformed label", 1),
    "bad_value.libsvm": ("malformed feature value", 1),
    "missing_colon.libsvm": ("malformed feature entry", 1),
    "empty.libsvm": ("empty input", None),
    "duplicate_index.libsvm": ("non-increasing feature index", 1),
    "non_finite_label.libsvm": ("non-finite label inf", 2),
    "non_finite_value.libsvm": ("non-finite feature value nan", 2),
    "bad_index.libsvm": ("malformed feature index", 1),
}
