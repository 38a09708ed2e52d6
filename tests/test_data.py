import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixture_manifest import MALFORMED, WELL_FORMED
from shuffleopt.data import Dataset, ParseError, load_libsvm, parse_libsvm, serialize_libsvm


def _check_expected(ds, expected):
    assert ds.n == expected["n"]
    assert ds.d == expected["d"]
    assert ds.c == expected["c"]
    if "labels" in expected:
        assert ds.labels.tolist() == expected["labels"]
    for key, pairs in expected.items():
        if key.startswith("row"):
            idx, val = ds.row(int(key[3:]))
            assert list(zip(idx.tolist(), val.tolist())) == pairs


@pytest.mark.parametrize("name", sorted(WELL_FORMED))
def test_fixture_corpus(fixtures_dir, name):
    ds = load_libsvm(fixtures_dir / name)
    _check_expected(ds, WELL_FORMED[name])


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_fixtures(fixtures_dir, name):
    fragment, line = MALFORMED[name]
    with pytest.raises(ParseError) as err:
        load_libsvm(fixtures_dir / "malformed" / name)
    assert fragment in str(err.value)
    assert err.value.line == line


def test_basic_example():
    ds = parse_libsvm("+1 1:0.5 3:-2\n-1 2:1\n")
    assert (ds.n, ds.d) == (2, 3)
    assert ds.labels.tolist() == [1.0, -1.0]
    idx, val = ds.row(0)
    assert list(zip(idx.tolist(), val.tolist())) == [(0, 0.5), (2, -2.0)]


def test_explicit_zero_kept():
    ds = parse_libsvm("1 2:0\n")
    assert (ds.n, ds.d) == (1, 2)
    idx, val = ds.row(0)
    assert idx.tolist() == [1] and val.tolist() == [0.0]


def test_non_increasing_error_message():
    with pytest.raises(ParseError) as err:
        parse_libsvm("+1 3:1 2:1\n")
    assert str(err.value) == "non-increasing feature index at line 1"


def test_blank_only_input_is_empty():
    with pytest.raises(ParseError, match="empty input"):
        parse_libsvm("\n\n  \n")


def test_dim_override():
    ds = parse_libsvm("+1 1:1\n", dim=5)
    assert ds.d == 5
    with pytest.raises(ParseError, match="dimension override"):
        parse_libsvm("+1 4:1\n", dim=2)


def test_add_bias():
    ds = parse_libsvm("+1 1:2\n-1\n", add_bias=True)
    assert ds.d == 2
    assert ds.row(0)[1].tolist() == [2.0, 1.0]
    assert ds.row(1)[0].tolist() == [1] and ds.row(1)[1].tolist() == [1.0]


def test_max_abs_scaling():
    ds = parse_libsvm("+1 1:2 2:-8\n-1 1:-4\n", scale=True)
    assert ds.row(0)[1].tolist() == [0.5, -1.0]
    assert ds.row(1)[1].tolist() == [-1.0]


def test_binary_mode_rejects_multiclass():
    with pytest.raises(ParseError) as err:
        parse_libsvm("1 1:1\n2 1:1\n3 1:1\n", mode="binary")
    assert err.value.line == 2  # "1" alone is a valid binary label


def test_multiclass_reindexing():
    ds = parse_libsvm("7 1:1\n3 1:1\n7 2:1\n", mode="multiclass")
    assert ds.c == 2
    assert ds.labels.tolist() == [1, 0, 1]


def test_multiclass_rejects_fractional_labels():
    with pytest.raises(ParseError) as err:
        parse_libsvm("1.5 1:1\n2 1:1\n")
    assert err.value.line == 1


@pytest.mark.parametrize("token", ["inf", "-inf", "NaN", "Infinity", "1e400"])
def test_non_finite_label_rejected(token):
    with pytest.raises(ParseError, match="non-finite label") as err:
        parse_libsvm(f"+1 1:1\n\n{token} 1:2\n")
    assert err.value.line == 3


@pytest.mark.parametrize("token", ["inf", "-inf", "NaN", "nan", "-1e400"])
def test_non_finite_value_rejected(token):
    with pytest.raises(ParseError, match="non-finite feature value") as err:
        parse_libsvm(f"+1 1:1\n-1 1:2 3:{token}\n+1 2:nan\n")
    assert err.value.line == 2


def test_round_trip_fixture_corpus(fixtures_dir):
    for name in WELL_FORMED:
        ds = load_libsvm(fixtures_dir / name)
        mode = "binary" if ds.c == 1 else "multiclass"
        again = parse_libsvm(serialize_libsvm(ds), mode=mode)
        assert again.n == ds.n and again.d == ds.d and again.c == ds.c
        assert np.array_equal(again.labels, ds.labels)
        assert np.array_equal(again.indptr, ds.indptr)
        assert np.array_equal(again.indices, ds.indices)
        assert np.array_equal(again.values, ds.values)


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 8))
    indptr = [0]
    indices, values = [], []
    for _ in range(n):
        cols = draw(st.sets(st.integers(0, d - 1), max_size=d))
        for col in sorted(cols):
            indices.append(col)
            values.append(draw(st.floats(-1e6, 1e6, allow_nan=False, width=64)))
        indptr.append(len(indices))
    labels = [draw(st.sampled_from([-1.0, 1.0])) for _ in range(n)]
    return Dataset(n=n, d=d, c=1, indptr=np.array(indptr), indices=np.array(indices, dtype=np.int64),
                   values=np.array(values), labels=np.array(labels))


@given(datasets())
@settings(max_examples=80, deadline=None)
def test_round_trip_generated(ds):
    again = parse_libsvm(serialize_libsvm(ds), mode="binary")
    assert again.n == ds.n
    assert np.array_equal(again.labels, ds.labels)
    assert np.array_equal(again.indices, ds.indices)
    assert np.array_equal(again.values, ds.values)
    # d may legitimately shrink when trailing features are all absent
    assert again.d <= ds.d


def test_dataset_invariant_violations():
    with pytest.raises(ValueError, match="strictly increasing"):
        Dataset(n=1, d=3, c=1, indptr=[0, 2], indices=[2, 1], values=[1.0, 1.0], labels=[1.0])
    with pytest.raises(ValueError, match="out of range"):
        Dataset(n=1, d=2, c=1, indptr=[0, 1], indices=[2], values=[1.0], labels=[1.0])
    with pytest.raises(ValueError, match="-1 or \\+1"):
        Dataset(n=1, d=1, c=1, indptr=[0, 1], indices=[0], values=[1.0], labels=[2.0])
    with pytest.raises(ValueError, match="labels length"):
        Dataset(n=2, d=1, c=1, indptr=[0, 1, 1], indices=[0], values=[1.0], labels=[1.0])
    # a repeated index inside a row that follows an empty row
    with pytest.raises(ValueError, match="strictly increasing"):
        Dataset(n=2, d=3, c=1, indptr=[0, 0, 2], indices=[1, 1], values=[1.0, 1.0],
                labels=[1.0, 1.0])
    # a drop in index across an empty row is a row boundary, not a violation
    ds = Dataset(n=3, d=3, c=1, indptr=[0, 1, 1, 2], indices=[2, 0], values=[1.0, 1.0],
                 labels=[1.0, 1.0, 1.0])
    assert ds.row(2)[0].tolist() == [0]


@pytest.mark.parametrize("name", ["no_features_row.libsvm", "explicit_zero.libsvm",
                                  "wide_sparse.libsvm", "multiclass_3.libsvm"])
def test_dataset_products_match_dense(fixtures_dir, name):
    ds = load_libsvm(fixtures_dir / name)
    X = ds.to_dense()
    rng = np.random.default_rng(11)
    w, coef = rng.normal(size=ds.d), rng.normal(size=ds.n)
    for got, expected in ((ds.dot(w), X @ w), (ds.tdot(coef), X.T @ coef),
                          (ds.row_sq_norms(), (X * X).sum(axis=1))):
        assert got.shape == expected.shape
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_dataset_immutable():
    ds = parse_libsvm("+1 1:1\n")
    with pytest.raises(ValueError):
        ds.values[0] = 2.0


def test_from_dense_round_trip():
    X = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [3.0, -1.0, 0.0]])
    labels = np.array([1.0, -1.0, 1.0])
    ds = Dataset.from_dense(X, labels)
    assert ds.c == 1
    assert np.array_equal(ds.to_dense(), X)
