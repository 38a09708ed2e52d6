import math
import struct

import numpy as np
import pytest

from shuffleopt.data import Dataset, load_libsvm
from shuffleopt.objectives import (LogisticObjective, QuadraticObjective,
                                   ReferenceSolveError, SoftmaxObjective, _logaddexp0,
                                   make_quadratic, ordered_sum, solve_reference,
                                   variance_at_point)
from shuffleopt.prng import derive_key, standard_normals
from floats import same_floats
from test_platform import logaddexp_cases
from wide_sets import WIDE_SETS, wide_dataset, wide_multiclass

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


@np.errstate(invalid="ignore")  # numpy flags its comparisons on nan
def test_logaddexp0_is_numpy_logaddexp_bitwise():
    for z in logaddexp_cases():
        expected = float(np.logaddexp(0.0, z))
        got = _logaddexp0(z)
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", expected), z
    # the block sweep's coefficients equal the row step's; numpy's array loops
    # giving the scalar forms' bits is witnessed in test_platform.py
    obj = LogisticObjective(Dataset.from_dense(np.ones((2, 1)), np.array([-1.0, 1.0])))
    margins = np.array(logaddexp_cases())
    for i, y in enumerate((-1.0, 1.0)):
        scalar = np.array([obj._row_coef(i, m) for m in margins.tolist()]).tobytes()
        assert obj._coefs(np.full(margins.size, y), margins).tobytes() == scalar


def test_ordered_sum_adds_one_by_one_from_positive_zero():
    xs = [math.log(4), math.log(8), math.log(16)]
    # the sequential sum, one ulp below the exact sum that a compensated
    # builtin `sum` (Python 3.12 on) gives
    assert ordered_sum(xs).hex() == ((0.0 + xs[0]) + xs[1] + xs[2]).hex() == "0x1.8f40b5ed9812cp+2"
    assert math.fsum(xs).hex() == "0x1.8f40b5ed9812dp+2"
    assert ordered_sum(iter(xs)) == ordered_sum(xs)
    assert math.copysign(1.0, ordered_sum([-0.0])) == 1.0
    assert ordered_sum([]) == 0.0
    # np.bincount takes the same sum in each bin
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(200) * 10.0 ** rng.integers(-12, 13, size=200)
    assert struct.pack("<d", ordered_sum(vals.tolist())) == \
        np.bincount(np.zeros(200, dtype=np.int64), vals).tobytes()


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


def empty_row_multiclass():
    """Three-class rows, one of which stores no entry."""
    X = np.random.default_rng(12).normal(size=(6, 4))
    X[2] = 0.0
    return Dataset.from_dense(X, np.array([0, 1, 2, 1, 0, 2]), c=3)


@pytest.mark.parametrize("name", ["multiclass_3.libsvm", "wide-multiclass", "empty-row"])
def test_softmax_row_logits_are_full_logits_bitwise(fixtures_dir, name):
    # one definition of a logit: the component value and gradient take a
    # row's logits as the same sums the full objective takes, at every scale
    data = {"wide-multiclass": wide_multiclass, "empty-row": empty_row_multiclass}.get(
        name, lambda: load_libsvm(fixtures_dir / name))()
    obj = SoftmaxObjective(data)
    rng = np.random.default_rng(17)
    for scale in (1e-3, 1.0, 1e3):
        for _ in range(5):
            w = scale * rng.normal(size=obj.dim)
            full = obj._logits(w)
            for i in range(obj.n):
                assert obj._row_logits(w, *data.row(i)).tobytes() == full[i].tobytes(), (scale, i)


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
    list of Python ints that `run` passes, `row_step` takes each row of the
    three-row batch to its one-row dense update, and `sweep` over each batch
    equals `row_step` for each of its rows in turn: bitwise, but a nan matches
    any nan."""
    for z in step_points(obj.dim):
        for batch in step_batches(obj.n):
            dense = obj.batch_mean_gradient(z, batch)
            assert obj.batch_mean_gradient(z, batch.tolist()).tobytes() == dense.tobytes()
        for i in step_batches(obj.n)[1].tolist():
            for scale in (0.5, 3.0):
                expected = z - scale * obj.batch_mean_gradient(z, [i])
                got = z.copy()
                assert obj.row_step(got, i, scale) is None
                assert same_floats(got, expected), (i, scale)
        for order in step_batches(obj.n):
            expected = z.copy()
            for i in order.tolist():
                obj.row_step(expected, i, 0.5)
            got = z.copy()
            assert obj.sweep(got, order, 0.5) is None
            assert same_floats(got, expected), order


def reference_batch_mean_gradient(obj, w, ids):
    """The per-row loop that `LogisticObjective.batch_mean_gradient` ran
    before its block gather, in Python floats: each row's margin is the sum
    of its products from +0.0 in stored order, and its gradient entries are
    added into zeros one by one, in batch order."""
    g = [0.0] * obj.dim
    for i in ids:
        cols, vals = obj.data.row(i)
        margin = 0.0
        for v, wc in zip(vals.tolist(), w[cols].tolist()):
            margin += v * wc
        coef = obj._row_coef(i, margin)
        for c, v in zip(cols.tolist(), vals.tolist()):
            g[c] += coef * v
    g = np.array(g)
    g /= len(ids)
    return g


@pytest.mark.parametrize("name", ["blobs600.libsvm", "wide_sparse.libsvm",
                                  "explicit_zero.libsvm", *WIDE_SETS])
@np.errstate(invalid="ignore", over="ignore")
def test_logistic_step_equals_dense_update_bitwise(fixtures_dir, name):
    # blobs600 rows share every column; explicit_zero's stored 0.0 makes a
    # -0.0 gradient entry on a column where z holds -0.0; on the generated
    # wide sets runs form, so their sweeps take the block path
    data = wide_dataset(name) if name in WIDE_SETS else load_libsvm(fixtures_dir / name)
    obj = LogisticObjective(data)
    assert_step_is_dense_update(obj)
    for z in step_points(obj.dim):
        for batch in step_batches(obj.n):
            expected = reference_batch_mean_gradient(obj, z, batch.tolist())
            for ids in (batch.tolist(), batch.astype(np.int64)):
                assert same_floats(obj.batch_mean_gradient(z, ids), expected), batch


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
    for _ in range(2):  # the step keeps nothing between calls
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


def test_quadratic_component_value_is_full_value_term_bitwise():
    # one definition of a component's value: half the row term full_value sums
    for obj in (make_quadratic(500, 50, seed=5)[0], signed_zero_quadratic()):
        rng = np.random.default_rng(obj.n)
        for w in step_points(obj.dim)[::2] + [10.0 * rng.normal(size=obj.dim)]:
            diffs = w - obj.centers
            diffs *= diffs
            terms = diffs.sum(axis=1)
            for i in range(obj.n):
                assert struct.pack("<d", obj.component_value(w, i)) == \
                    struct.pack("<d", 0.5 * float(terms[i])), i


# ---------------------------------------------------------- reference solve

def test_solve_reference_quadratic_closed_form():
    obj = QuadraticObjective(np.array([[1.0], [-1.0]]))
    x_star, f_star = solve_reference(obj)
    assert x_star.tolist() == [0.0] and f_star == 0.5


def counted_gradients(obj):
    """Records the point of every full gradient the objective takes."""
    calls = []
    gradient = obj.full_gradient
    obj.full_gradient = lambda w: calls.append(w) or gradient(w)
    return calls


def test_solve_reference_fixpoint():
    # the second set's rows are all empty: its gradient is 0 everywhere and its
    # L = 0 raises, so a solve that reads L before its first test fails there
    for dataset in (binary_dataset(n=10, d=3, seed=11),
                    Dataset.from_dense(np.zeros((2, 1)), np.array([1.0, -1.0]))):
        obj = LogisticObjective(dataset)
        x_star, _ = solve_reference(obj, tol=1e-8)
        calls = counted_gradients(obj)
        again, value = solve_reference(obj, tol=1e-8, x0=x_star)
        assert np.array_equal(again, x_star)
        assert value == obj.full_value(x_star)
        # the first iteration tests its start, y = x0, and steps no further
        assert len(calls) == 1


def test_solve_reference_separable_never_converges():
    # two perfectly separated points: the infimum 0 is not attained
    ds = Dataset.from_dense(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]))
    obj = LogisticObjective(ds)
    with pytest.raises(ReferenceSolveError, match="did not converge") as early:
        solve_reference(obj, tol=1e-14, max_iter=2_000)
    with pytest.raises(ReferenceSolveError, match="did not converge") as late:
        solve_reference(obj, tol=1e-14, max_iter=4_000)
    assert late.value.value < early.value.value  # still decreasing at the cap


@pytest.mark.parametrize("name, cls", [("scientific_values", LogisticObjective),
                                       ("binary_pm1", LogisticObjective),
                                       ("multiclass_3", SoftmaxObjective)])
def test_solve_reference_stops_early_without_a_minimum(fixtures_dir, name, cls):
    # separable fixtures: the value falls toward 0 as ||x|| keeps growing
    obj = cls(load_libsvm(fixtures_dir / f"{name}.libsvm"))
    with pytest.raises(ReferenceSolveError, match="no minimum") as err:
        solve_reference(obj)
    assert err.value.iterations <= 20_000


def _normals(seed, stream, *shape):
    return standard_normals(derive_key(seed, stream), math.prod(shape)).reshape(shape)


def test_solve_reference_blobs600_keeps_its_minimum(fixtures_dir):
    obj = LogisticObjective(load_libsvm(fixtures_dir / "blobs600.libsvm"))
    x_star, f_star = solve_reference(obj)
    # bitwise the value that the solve without momentum restart found
    assert f_star.hex() == "0x1.252e0eed0129dp-1"
    assert np.linalg.norm(obj.full_gradient(x_star)) <= 1e-10


def test_solve_reference_gradient_budget(fixtures_dir):
    obj = LogisticObjective(load_libsvm(fixtures_dir / "blobs600.libsvm"))
    calls = counted_gradients(obj)
    solve_reference(obj)
    # one per iteration for 229 iterations: the gradient at y both tests y and
    # steps from it; the solve without momentum restart took 1,487 iterations
    assert len(calls) == 229


def test_solve_reference_overlapping_softmax():
    X = _normals(1, 1, 300, 5)
    labels = np.argmax(X @ _normals(1, 2, 5, 3) + 1.5 * _normals(1, 3, 300, 3), axis=1)
    _, f_star = solve_reference(SoftmaxObjective(Dataset.from_dense(X, labels, c=3)))
    # the value the solve without momentum restart found
    assert f_star == pytest.approx(0.8081460865907275, rel=1e-12, abs=0)


def test_solve_reference_ill_conditioned_with_a_minimum():
    # one column scaled by 30; the first 20 rows repeat with flipped labels, so
    # the data are not separable and the minimum is attained.  Without
    # momentum restart the solve hits this cap with ||grad F|| near 1e-5.
    X = _normals(2, 1, 200, 20)
    X[:, 0] *= 30
    y = np.where(X @ _normals(2, 2, 20) + _normals(2, 3, 200) > 0, 1.0, -1.0)
    obj = LogisticObjective(Dataset.from_dense(np.vstack([X, X[:20]]),
                                               np.concatenate([y, -y[:20]])))
    x_star, _ = solve_reference(obj, max_iter=20_000)
    assert np.linalg.norm(obj.full_gradient(x_star)) <= 1e-10


def test_solve_reference_tol_validation():
    with pytest.raises(ValueError):
        solve_reference(QuadraticObjective(np.array([[1.0]])), tol=0.0)
