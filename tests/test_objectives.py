import math
import struct

import numpy as np
import pytest

from shuffleopt.data import Dataset, load_libsvm
from shuffleopt.objectives import (LogisticObjective, QuadraticObjective,
                                   ReferenceSolveError, SoftmaxObjective, _logaddexp0,
                                   make_quadratic, solve_reference, variance_at_point)

RNG = np.random.default_rng(61803)


def central_diff(f, w, h=1e-6):
    """Independent gradient oracle: central differences with relative step."""
    g = np.zeros_like(w)
    for j in range(w.size):
        hj = h * max(1.0, abs(w[j]))
        e = np.zeros_like(w)
        e[j] = hj
        g[j] = (f(w + e) - f(w - e)) / (2 * hj)
    return g


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b))


def binary_dataset(n=12, d=6, seed=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X[rng.random(size=X.shape) < 0.3] = 0.0
    labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return Dataset.from_dense(X, labels)


def multiclass_dataset(n=10, d=4, c=3, seed=9):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    labels = rng.integers(0, c, size=n)
    return Dataset.from_dense(X, labels, c=c)


# ---------------------------------------------------------------- logistic

def test_logistic_gradient_at_zero():
    ds = binary_dataset()
    obj = LogisticObjective(ds)
    w = np.zeros(obj.dim)
    for i in range(obj.n):
        expected = np.zeros(obj.dim)
        idx, val = ds.row(i)
        expected[idx] = -ds.labels[i] * val / 2.0  # sigmoid(0) = 1/2
        assert np.allclose(obj.component_gradient(w, i), expected, rtol=0, atol=1e-15)


def test_logistic_gradient_tail():
    ds = Dataset.from_dense(np.array([[2.0, 0.0]]), np.array([1.0]))
    obj = LogisticObjective(ds)
    g = obj.component_gradient(np.array([10.0, 0.0]), 0)
    assert np.linalg.norm(g) <= 2.0 * math.exp(-20.0) * (1.0 + 1e-12)


def test_logistic_component_fd():
    ds = binary_dataset(n=8, d=5, seed=3)
    obj = LogisticObjective(ds)
    w = RNG.normal(size=obj.dim)
    for i in range(obj.n):
        fd = central_diff(lambda v, i=i: obj.component_value(v, i), w)
        assert rel_err(obj.component_gradient(w, i), fd) <= 1e-6


def test_logistic_smoothness():
    single = LogisticObjective(Dataset.from_dense(np.array([[2.0, 0.0]]), np.array([1.0])))
    assert single.smoothness_bound() == 1.0
    two = LogisticObjective(Dataset.from_dense(
        np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([1.0, -1.0])))
    assert two.smoothness_bound() == 4.0
    degenerate = LogisticObjective(Dataset(
        n=1, d=2, c=1, indptr=[0, 1], indices=[0], values=[0.0], labels=[1.0]))
    with pytest.raises(ValueError, match="degenerate objective, L=0"):
        degenerate.smoothness_bound()


def test_logistic_accuracy():
    ds = Dataset.from_dense(np.array([[1.0], [-2.0]]), np.array([1.0, -1.0]))
    obj = LogisticObjective(ds)
    assert obj.accuracy(np.array([1.0])) == 1.0
    assert obj.accuracy(np.array([-1.0])) == 0.0


def logaddexp_cases():
    tiny = float(np.finfo(np.float64).smallest_subnormal)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, tiny, -tiny, 1e3 * tiny,
               -1e3 * tiny, 709.0, -709.0, 745.0, -745.0, 709.8, -709.8, 745.2, -745.2]
    rng = np.random.default_rng(2718)
    draws = [scale * rng.standard_normal(20_000) for scale in (0.1, 1.0, 10.0, 100.0, 300.0)]
    return special + np.concatenate(draws).tolist()


@np.errstate(invalid="ignore")  # numpy flags its comparisons on nan
def test_logaddexp0_is_numpy_logaddexp_bitwise():
    for z in logaddexp_cases():
        expected = float(np.logaddexp(0.0, z))
        got = _logaddexp0(z)
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", expected), z


# ----------------------------------------------------------------- softmax

def test_softmax_uniform_value():
    ds = multiclass_dataset(c=4)
    obj = SoftmaxObjective(ds)
    w = np.zeros(obj.dim)
    for i in range(obj.n):
        assert obj.component_value(w, i) == pytest.approx(math.log(4.0), rel=1e-12)
    assert obj.full_value(w) == pytest.approx(math.log(4.0), rel=1e-12)


def test_softmax_saturation_monotone():
    ds = Dataset.from_dense(np.array([[1.0]]), np.array([0]), c=3)
    obj = SoftmaxObjective(ds)
    values = []
    for M in (0.0, 2.0, 5.0, 20.0, 100.0):
        w = np.zeros(obj.dim)
        w[0] = M  # weight of class 0 on the single unit feature
        values.append(obj.component_value(w, 0))
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-8


def test_softmax_fd():
    obj = SoftmaxObjective(multiclass_dataset(n=6, d=4, c=3, seed=13))
    w = 0.5 * RNG.normal(size=obj.dim)
    for i in range(obj.n):
        fd = central_diff(lambda v, i=i: obj.component_value(v, i), w)
        assert rel_err(obj.component_gradient(w, i), fd) <= 1e-6
    fd_full = central_diff(obj.full_value, w)
    assert rel_err(obj.full_gradient(w), fd_full) <= 1e-6


def test_softmax_requires_multiclass():
    with pytest.raises(ValueError):
        SoftmaxObjective(binary_dataset())


# --------------------------------------------------------------- quadratic

def test_quadratic_two_centers():
    obj = QuadraticObjective(np.array([[1.0], [-1.0]]))
    x_star, f_star = obj.reference()
    assert x_star.tolist() == [0.0]
    assert f_star == 0.5
    assert variance_at_point(obj, x_star) == 1.0
    assert obj.component_gradient(np.zeros(1), 0).tolist() == [-1.0]
    assert obj.component_gradient(np.zeros(1), 1).tolist() == [1.0]


def test_quadratic_single_center():
    obj = QuadraticObjective(np.array([[3.0]]))
    x_star, f_star = obj.reference()
    assert x_star.tolist() == [3.0] and f_star == 0.0
    assert variance_at_point(obj, x_star) == 0.0


def test_make_quadratic_oracle():
    obj, x_star, f_star = make_quadratic(4, 3, seed=7)
    for j in range(3):
        bump = np.zeros(3)
        bump[j] = 1e-3
        assert f_star <= obj.full_value(x_star + bump)
    for seed in (0, 1, 2, 99):
        obj, x_star, _ = make_quadratic(6, 4, seed=seed)
        assert np.linalg.norm(obj.full_gradient(x_star)) <= 1e-12


def test_make_quadratic_errors():
    with pytest.raises(ValueError, match="spread"):
        make_quadratic(2, 2, seed=0, spread=-1.0)
    with pytest.raises(ValueError):
        make_quadratic(0, 2, seed=0)


def test_quadratic_fd():
    obj, _, _ = make_quadratic(8, 5, seed=21)
    w = RNG.normal(size=5)
    fd = central_diff(obj.full_value, w)
    assert rel_err(obj.full_gradient(w), fd) <= 1e-6


def test_variance_identical_components():
    obj = QuadraticObjective(np.array([[2.0, 1.0], [2.0, 1.0], [2.0, 1.0]]))
    w = np.array([5.0, -3.0])
    g = obj.component_gradient(w, 0)
    assert variance_at_point(obj, w) == pytest.approx(float(g @ g), rel=1e-15)


# --------------------------------------------------- shared contract checks

def all_objectives():
    return [
        LogisticObjective(binary_dataset()),
        SoftmaxObjective(multiclass_dataset()),
        make_quadratic(10, 4, seed=3)[0],
    ]


@pytest.mark.parametrize("obj", all_objectives(), ids=["logistic", "softmax", "quadratic"])
def test_full_equals_mean_of_components(obj):
    tol = obj.n * 1e-14
    for _ in range(5):
        w = RNG.normal(size=obj.dim)
        mean_value = sum(obj.component_value(w, i) for i in range(obj.n)) / obj.n
        assert abs(obj.full_value(w) - mean_value) <= tol * max(1.0, abs(mean_value))
        mean_grad = sum(obj.component_gradient(w, i) for i in range(obj.n)) / obj.n
        assert rel_err(obj.full_gradient(w), mean_grad) <= tol


@pytest.mark.parametrize("obj", all_objectives(), ids=["logistic", "softmax", "quadratic"])
def test_convexity_witness(obj):
    for _ in range(100):
        x = RNG.normal(size=obj.dim)
        y = RNG.normal(size=obj.dim)
        for lam in (0.25, 0.5, 0.75):
            mix = obj.full_value(lam * x + (1 - lam) * y)
            assert mix <= lam * obj.full_value(x) + (1 - lam) * obj.full_value(y) + 1e-12


@pytest.mark.parametrize("obj", all_objectives(), ids=["logistic", "softmax", "quadratic"])
def test_smoothness_witness(obj):
    L = obj.smoothness_bound()
    for _ in range(100):
        x = RNG.normal(size=obj.dim)
        y = RNG.normal(size=obj.dim)
        i = int(RNG.integers(obj.n))
        lhs = np.linalg.norm(obj.component_gradient(x, i) - obj.component_gradient(y, i))
        assert lhs <= L * np.linalg.norm(x - y) + 1e-10


# ---------------------------------------------------------- in-place step

def step_points(dim, seed=7):
    """A finite point holding -0.0 entries, the same point with inf and nan
    entries as well, and the all -0.0 point."""
    z = np.random.default_rng(seed).normal(size=dim)
    z[1::2] = -0.0
    wild = z.copy()
    wild[0::6] = np.nan
    wild[2::6] = np.inf
    wild[4::6] = -np.inf
    return [z, wild, np.full(dim, -0.0)]


def step_batches(n):
    """One row, three rows, a batch that repeats an id, and all n rows."""
    order = np.random.default_rng(n).permutation(n)
    return [order[:1], order[:3], np.array([order[0], order[-1], order[0]]), order]


@np.errstate(invalid="ignore", over="ignore")
def assert_step_is_dense_update(obj):
    """Every batch gives the same mean gradient as a numpy array and as the
    list of Python ints that `run` passes, and `row_step` takes each row of
    the three-row batch to its one-row dense update."""
    for z in step_points(obj.dim):
        for batch in step_batches(obj.n):
            dense = obj.batch_mean_gradient(z, batch)
            assert obj.batch_mean_gradient(z, batch.tolist()).tobytes() == dense.tobytes()
        for i in step_batches(obj.n)[1].tolist():
            for scale in (0.5, 3.0):
                expected = z - scale * obj.batch_mean_gradient(z, [i])
                got = z.copy()
                assert obj.row_step(got, i, scale) is None
                assert got.tobytes() == expected.tobytes(), (i, scale)


@pytest.mark.parametrize("name", ["blobs600.libsvm", "wide_sparse.libsvm",
                                  "explicit_zero.libsvm"])
def test_logistic_step_equals_dense_update_bitwise(fixtures_dir, name):
    # blobs600 rows share every column; explicit_zero's stored 0.0 makes a
    # -0.0 gradient entry on a column where z holds -0.0
    assert_step_is_dense_update(LogisticObjective(load_libsvm(fixtures_dir / name)))


def signed_zero_quadratic():
    """Centers holding -0.0 entries: the one-row mean turns them into +0.0."""
    centers = np.random.default_rng(4).normal(size=(10, 4))
    centers[::2, 1::2] = -0.0
    centers[1::2, ::2] = -0.0
    return QuadraticObjective(centers)


@pytest.mark.parametrize("obj", [SoftmaxObjective(multiclass_dataset()),
                                 make_quadratic(10, 4, seed=3)[0],
                                 signed_zero_quadratic()],
                         ids=["softmax", "quadratic", "quadratic-signed-zero"])
def test_fallback_step_equals_dense_update_bitwise(obj):
    assert_step_is_dense_update(obj)


def test_quadratic_row_step_signed_zero():
    obj = QuadraticObjective(np.array([[-0.0, 1.0], [2.0, -0.0]]))
    for _ in range(2):  # the second step reuses the preallocated difference
        z = np.array([-0.0, -0.0])
        obj.row_step(z, 0, 0.5)
        assert z.tobytes() == np.array([0.0, 0.5]).tobytes()
    z = np.array([-0.0, -0.0])
    assert (z - 0.5 * obj.batch_mean_gradient(z, [0])).tobytes() == \
        np.array([0.0, 0.5]).tobytes()


@np.errstate(invalid="ignore", over="ignore")
def test_quadratic_full_value_matches_reference_bitwise():
    def reference_full_value(obj, w):
        diffs = w[None, :] - obj.centers
        return 0.5 * float((diffs * diffs).sum(axis=1).mean())

    for obj in (make_quadratic(500, 50, seed=5)[0], signed_zero_quadratic(),
                QuadraticObjective(np.array([[1e200, -3.0]]))):
        for w in step_points(obj.dim) + [np.full(obj.dim, 1e160)]:
            for _ in range(2):  # the second call reuses the scratch
                assert struct.pack("<d", obj.full_value(w)) == \
                    struct.pack("<d", reference_full_value(obj, w))


# ---------------------------------------------------------- reference solve

def test_solve_reference_quadratic_closed_form():
    obj = QuadraticObjective(np.array([[1.0], [-1.0]]))
    x_star, f_star = solve_reference(obj)
    assert x_star.tolist() == [0.0] and f_star == 0.5


def test_solve_reference_fixpoint():
    obj = LogisticObjective(binary_dataset(n=10, d=3, seed=11))
    x_star, _ = solve_reference(obj, tol=1e-8)
    again, value = solve_reference(obj, tol=1e-8, x0=x_star)
    assert np.array_equal(again, x_star)
    assert value == obj.full_value(x_star)


def test_solve_reference_separable_never_converges():
    # two perfectly separated points: the infimum 0 is not attained
    ds = Dataset.from_dense(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]))
    obj = LogisticObjective(ds)
    with pytest.raises(ReferenceSolveError, match="did not converge") as early:
        solve_reference(obj, tol=1e-14, max_iter=2_000)
    with pytest.raises(ReferenceSolveError, match="did not converge") as late:
        solve_reference(obj, tol=1e-14, max_iter=4_000)
    assert late.value.value < early.value.value  # still decreasing at the cap


def test_solve_reference_tol_validation():
    with pytest.raises(ValueError):
        solve_reference(QuadraticObjective(np.array([[1.0]])), tol=0.0)
