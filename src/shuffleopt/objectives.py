"""Finite-sum objectives F(w) = (1/n) sum_i f(w; i).

Each objective exposes per-component and full values/gradients plus an
analytic per-component smoothness constant L (a certified upper bound, not a
spectral estimate).  Parameter vectors are plain float64 arrays.  The row-data
objectives hold only their losses; rows and products come from their Dataset.

The step contract: a sweep needs `batch_mean_gradient(w, ids)`, the mean
gradient of a batch (a list of ints or a 1-D int array) at one point,
`row_step(z, i, scale)`, the in-place update z -= scale * g of one row, bitwise
equal to z -= scale * batch_mean_gradient(z, [i]), and `sweep(z, order,
scale)`, bitwise equal to `row_step` for each index of `order` in turn.  The
base class computes exactly those, and its per-row loop is the quadratic and
softmax sweep; the logistic row step costs O(nnz) of the row and the
quadratic one skips the batch gather and mean.  nag's step, z -= scale *
full_gradient(z), and nasg-pi's in-place extrapolation need nothing more.
These contracts hold bitwise on finite values; a nan's sign follows the
interpreter (CPython's `nan + -nan` returns either nan, by whether the add is
specialized), and no artifact holds a nan.  Objectives keep no scratch arrays.

Every recorded total has one definition, outside BLAS: a squared norm is
`squared_norm`, any other sum `ordered_sum`.  A row's margin <x_i, w> is the
products vals * w[cols] summed in stored order; a softmax logit is a class's
margin plus its offset.  The logistic row step and component value and
gradient take it with `ordered_sum`; `Dataset.dot`, softmax's row logits, the
block sweep and the batch gradient as one `np.bincount`, which sums each bin
in that order.  The logistic sweep applies each greedy run of rows with
pairwise disjoint columns as one block where runs form (`Dataset.runs_form`),
since such rows commute exactly; elsewhere it takes each row step in Python
floats over z as a list, operation for operation as the numpy row step.

`live_twin` is an objective over the live parameters alone, those whose
gradient some row can make nonzero, with their indices into the parameter
vector; None when every parameter is live.  Only the logistic objective has
one, which runs over `Dataset.renumbered()`; the softmax and quadratic
objectives always run at full width.  A twin's values, and its gradients on
the parameters it keeps, equal the full objective's bitwise; every other
gradient entry is +0.0.  It is built at first use and kept.
"""

from __future__ import annotations

import abc
import math
from functools import cached_property

import numpy as np

from .data import Dataset
from .prng import derive_key, standard_normals

_CENTERS_TAG = 0x63656E7465727301
_LOG2 = math.log(2.0)


class ReferenceSolveError(RuntimeError):
    """High-accuracy solve stopped before the gradient tolerance: at its cap, or
    early on an infimum that is not attained."""

    def __init__(self, message, value, grad_norm, iterations):
        super().__init__(message)
        self.value = value
        self.grad_norm = grad_norm
        self.iterations = iterations


def squared_norm(v: np.ndarray) -> float:
    """||v||^2 as numpy's pairwise sum of the squares of v's nonzero entries,
    for every recorded norm: outside BLAS, and blind to where the zeros sit
    (a live twin's gradient gives the full-width one's bits)."""
    v = v[v != 0.0]
    return float(np.add.reduce(v * v))


def ordered_sum(xs) -> float:
    """The floats of `xs` added one by one from +0.0, for every recorded total
    that is not a norm: the sum `np.bincount` takes per bin, and Python 3.11's
    builtin `sum`, which compensates from 3.12 on."""
    total = 0.0
    for x in xs:
        total += x
    return total


def _logaddexp0(z: float) -> float:
    """log(1 + exp(z)) of a float z, branch for branch as numpy's scalar
    np.logaddexp(0.0, z); both call libm's exp and log1p, so they agree
    bitwise."""
    if z == 0.0:
        return _LOG2
    if z < 0.0:
        return 0.0 + math.log1p(math.exp(z))
    if z > 0.0:
        return z + math.log1p(math.exp(-z))
    return 0.0 - z  # nan


class Objective(abc.ABC):
    """Contract shared by all finite sums: n components over R^dim."""

    n: int
    dim: int

    @abc.abstractmethod
    def component_value(self, w: np.ndarray, i: int) -> float: ...

    @abc.abstractmethod
    def component_gradient(self, w: np.ndarray, i: int) -> np.ndarray: ...

    @abc.abstractmethod
    def full_value(self, w: np.ndarray) -> float: ...

    @abc.abstractmethod
    def full_gradient(self, w: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def smoothness_bound(self) -> float: ...

    def batch_mean_gradient(self, w: np.ndarray, ids) -> np.ndarray:
        """Mean component gradient over `ids` (a list of ints or a 1-D int
        array), all evaluated at the same w."""
        g = self.component_gradient(w, int(ids[0]))
        for i in ids[1:]:
            g += self.component_gradient(w, int(i))
        g /= len(ids)
        return g

    def row_step(self, z: np.ndarray, i: int, scale: float) -> None:
        """In place: z -= scale * batch_mean_gradient(z, [i])."""
        z -= scale * self.batch_mean_gradient(z, [i])

    def sweep(self, z: np.ndarray, order: np.ndarray, scale: float) -> None:
        """In place: row_step(z, i, scale) for each index i of `order` (a 1-D
        int array) in turn."""
        row_step = self.row_step
        for i in order.tolist():
            row_step(z, i, scale)

    def accuracy(self, w: np.ndarray) -> float | None:
        """Training accuracy where defined; None for regression-style sums."""
        return None

    # (objective over the live parameters, their indices), or None
    live_twin: tuple[Objective, np.ndarray] | None = None


class LogisticObjective(Objective):
    """Binary logistic loss: f(w; i) = log(1 + exp(-y_i <x_i, w>)).

    Per-component smoothness is ||x_i||^2 / 4 (the sigmoid slope never exceeds
    1/4), so L = max_i ||x_i||^2 / 4.
    """

    def __init__(self, dataset: Dataset):
        if dataset.c != 1:
            raise ValueError("logistic objective needs a binary dataset")
        self.data = dataset
        self.n = dataset.n
        self.dim = dataset.d
        self._L = float(dataset.row_sq_norms().max()) / 4.0
        self._labels = dataset.labels.tolist()

    def smoothness_bound(self) -> float:
        if self._L == 0.0:
            raise ValueError("degenerate objective, L=0")
        return self._L

    @cached_property
    def live_twin(self):
        live = self.data.live_columns
        if live.size == self.dim:
            return None
        return LogisticObjective(self.data.renumbered()), live

    def component_value(self, w, i):
        cols, vals = self.data.row(i)
        return _logaddexp0(-(self._labels[i] * ordered_sum((vals * w[cols]).tolist())))

    def component_gradient(self, w, i):
        cols, vals = self.data.row(i)
        g = np.zeros(self.dim)
        # the one-row batch: +0.0 plus the row's gradient, divided by 1
        g[cols] += self._row_coef(i, ordered_sum((vals * w[cols]).tolist())) * vals
        return g

    def _row_coef(self, i, margin):
        """Row i's gradient is this coefficient times x_i, where margin is
        <x_i, w>: -y_i * sigmoid(-y_i * margin), overflow-safe."""
        y = self._labels[i]
        # numpy's exp, not math.exp: numpy's SIMD exp can differ in the last bit
        return -y * float(np.exp(-_logaddexp0(y * margin)))

    @staticmethod
    def _coefs(y, margins):
        """`_row_coef` over arrays of labels and margins, in the same
        operations and operand order."""
        coef = np.logaddexp(0.0, y * margins)
        np.negative(coef, out=coef)
        np.exp(coef, out=coef)
        return np.multiply(-y, coef, out=coef)

    def _row_grads(self, labels, vals, w_cols, lengths):
        """The gathered rows' gradients, flat: each row's coefficient times
        its values, where w_cols holds w at the rows' columns.  The margins
        are one weighted `np.bincount` over the entries' row positions, which
        sums each row from +0.0 in entry order, as `ordered_sum` does."""
        m = lengths.size
        margins = np.bincount(np.repeat(np.arange(m), lengths), weights=vals * w_cols, minlength=m)
        grads = np.repeat(self._coefs(labels, margins), lengths)
        grads *= vals
        return grads

    def batch_mean_gradient(self, w, ids):
        """One gather of the batch's rows, summed per column in batch order by
        one `np.bincount` (cast: it counts an empty batch in integers); only
        the touched columns are divided, since +0.0 / k is +0.0."""
        ids = np.asarray(ids)
        cols, vals, lengths = self.data.gather(ids)
        grads = self._row_grads(self.data.labels[ids], vals, w[cols], lengths)
        g = np.bincount(cols, grads, self.dim).astype(np.float64, copy=False)
        g[cols] /= len(ids)
        return g

    def row_step(self, z, i, scale):
        """Touches only the row's columns, so it costs O(nnz) instead of
        O(dim).

        The row's gradient is taken at the un-updated z and added to +0.0, as
        in `batch_mean_gradient`; every other column would get
        z - scale * 0.0, which is z for a finite scale >= 0.
        """
        cols, vals = self.data.row(i)
        zc = z[cols]
        grad = self._row_coef(i, ordered_sum((vals * zc).tolist())) * vals
        # 0.0 + (-0.0) is +0.0, as in the zeroed dense buffer; the dense
        # division by 1 is exact
        grad += 0.0
        grad *= scale
        zc -= grad
        z[cols] = zc

    def sweep(self, z, order, scale):
        """Where runs form, `_block_sweep`.  Elsewhere each row step in Python
        floats, over the row's entries and z as a list: the margin is
        m += v * w[c] from m = 0.0, then w[c] -= (coef * v + 0.0) * scale,
        the row step's IEEE operations in its order, so the two equal
        bitwise.  A non-finite entry never turns finite again, so writing z
        back once, at the end, leaves `run`'s divergence check as it was."""
        data = self.data
        if data.runs_form:
            self._block_sweep(z, order, scale)
            return
        rows, row_coef, scale = data.row_entries, self._row_coef, float(scale)
        w = z.tolist()
        for i in order.tolist():
            row = rows[i]
            m = 0.0
            for c, v in row:
                m += v * w[c]
            coef = row_coef(i, m)
            for c, v in row:
                w[c] -= (coef * v + 0.0) * scale
        z[:] = w

    def _block_sweep(self, z, order, scale):
        """Each greedy run of rows with pairwise disjoint columns is one
        block: one gather of z at the run's columns, the rows' margins from
        one `np.bincount`, the coefficients as arrays, the row step's
        `+= 0.0`, `*= scale` and subtraction in the same order, one scatter.
        No row of a run reads a column another row of the run writes, so the
        block equals the row steps bitwise.
        """
        data = self.data
        cols, vals, lengths = data.gather(order)
        starts = data.disjoint_runs(cols, lengths)
        bounds = np.concatenate(([0], np.cumsum(lengths)))[starts].tolist()
        labels = data.labels[order]
        for k in range(len(starts) - 1):
            a, b = starts[k], starts[k + 1]
            lo, hi = bounds[k], bounds[k + 1]
            run_cols = cols[lo:hi]
            zc = z[run_cols]
            grad = self._row_grads(labels[a:b], vals[lo:hi], zc, lengths[a:b])
            grad += 0.0
            grad *= scale
            zc -= grad
            z[run_cols] = zc

    def full_value(self, w):
        margins = self.data.labels * self.data.dot(w)
        return float(np.logaddexp(0.0, -margins).mean())

    def full_gradient(self, w):
        coef = self._coefs(self.data.labels, self.data.dot(w))
        return self.data.tdot(coef / self.n)

    def accuracy(self, w):
        predicted = np.where(self.data.dot(w) >= 0.0, 1.0, -1.0)
        return float(np.mean(predicted == self.data.labels))


class SoftmaxObjective(Objective):
    """Linear multiclass cross-entropy with per-class offsets.

    Parameters are flattened row-major: the c-by-d class-weight matrix first,
    then the c offsets.  L = max_i (||x_i||^2 + 1) / 2, the 1 accounting for
    the implicit constant input that feeds the offsets.
    """

    def __init__(self, dataset: Dataset):
        if dataset.c < 2:
            raise ValueError("softmax objective needs a multiclass dataset (c >= 2)")
        self.data = dataset
        self.n = dataset.n
        self.c = dataset.c
        self.d = dataset.d
        self.dim = self.c * self.d + self.c
        self._L = (float(dataset.row_sq_norms().max()) + 1.0) / 2.0
        self._classes = np.tile(np.arange(self.c), int(np.diff(dataset.indptr).max()))

    def smoothness_bound(self) -> float:
        return self._L

    def unpack(self, w):
        return w[: self.c * self.d].reshape(self.c, self.d), w[self.c * self.d:]

    def _logits(self, w):
        W, b = self.unpack(w)
        Z = np.empty((self.n, self.c))
        for k in range(self.c):
            Z[:, k] = self.data.dot(W[k])
        return Z + b

    def _row_logits(self, w, idx, val):
        """Logits of the row (idx, val), bitwise as `_logits` takes them: one
        `np.bincount` adds each class's products in stored order from +0.0."""
        W, b = self.unpack(w)
        products = (W.T[idx] * val[:, None]).ravel()  # entry by entry, class by class
        z = np.bincount(self._classes[: products.size], products, self.c)
        return z.astype(np.float64, copy=False) + b

    def component_value(self, w, i):
        z = self._row_logits(w, *self.data.row(i))
        m = z.max()
        return float(m + np.log(np.exp(z - m).sum()) - z[self.data.labels[i]])

    def component_gradient(self, w, i):
        idx, val = self.data.row(i)
        z = self._row_logits(w, idx, val)
        z -= z.max()
        p = np.exp(z)
        p /= p.sum()
        p[self.data.labels[i]] -= 1.0
        g = np.zeros(self.dim)
        g[: self.c * self.d].reshape(self.c, self.d)[:, idx] = p[:, None] * val
        g[self.c * self.d:] = p
        return g

    def full_value(self, w):
        Z = self._logits(w)
        m = Z.max(axis=1)
        lse = m + np.log(np.exp(Z - m[:, None]).sum(axis=1))
        return float((lse - Z[np.arange(self.n), self.data.labels]).mean())

    def full_gradient(self, w):
        Z = self._logits(w)
        Z -= Z.max(axis=1, keepdims=True)
        P = np.exp(Z)
        P /= P.sum(axis=1, keepdims=True)
        P[np.arange(self.n), self.data.labels] -= 1.0
        P /= self.n
        g = np.zeros(self.dim)
        G = g[: self.c * self.d].reshape(self.c, self.d)
        for k in range(self.c):
            G[k] = self.data.tdot(P[:, k])
        g[self.c * self.d:] = P.sum(axis=0)
        return g

    def accuracy(self, w):
        return float(np.mean(self._logits(w).argmax(axis=1) == self.data.labels))


OBJECTIVES = {"logistic": LogisticObjective, "softmax": SoftmaxObjective}


class QuadraticObjective(Objective):
    """Mean of half squared distances to fixed centers; the synthetic oracle.

    f(w; i) = 0.5 ||w - c_i||^2, so every component has identity Hessian
    (L = 1), the minimizer is the center mean, and the component-gradient
    variance is the same at every point: (1/n) sum_i ||c_mean - c_i||^2.
    """

    def __init__(self, centers):
        centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
        self.centers = centers
        self.n, self.dim = centers.shape
        self._mean = centers.mean(axis=0)
        # row_step's centers: the one-row mean turns a -0.0 entry into +0.0
        # and divides by 1 exactly; + 0.0 does the same
        self._rows = list(centers + 0.0)

    def component_value(self, w, i):
        diff = w - self.centers[i]
        return 0.5 * float(np.add.reduce(diff * diff))

    def component_gradient(self, w, i):
        return w - self.centers[i]

    def batch_mean_gradient(self, w, ids):
        return w - self.centers[ids].mean(axis=0)

    def row_step(self, z, i, scale):
        """z -= scale * (z - c_i) without the batch gather and mean."""
        z -= scale * (z - self._rows[i])

    def full_value(self, w):
        diffs = w - self.centers
        diffs *= diffs  # squared in place: one fresh temporary, not two
        return 0.5 * float(diffs.sum(axis=1).mean())

    def full_gradient(self, w):
        return w - self._mean

    def smoothness_bound(self) -> float:
        return 1.0

    def reference(self) -> tuple[np.ndarray, float]:
        """Exact minimizer (the center mean) and its value."""
        x_star = self._mean.copy()
        return x_star, self.full_value(x_star)


def make_quadratic(n: int, d: int, seed: int, spread: float = 1.0):
    """Synthetic quadratic with a closed-form solution.

    Centers are Gaussian with per-coordinate dispersion `spread`.  Returns
    (objective, x_star, f_star) where x_star is computed by averaging the
    centers.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    if spread < 0:
        raise ValueError("spread must be >= 0")
    centers = spread * standard_normals(derive_key(seed, _CENTERS_TAG), n * d).reshape(n, d)
    objective = QuadraticObjective(centers)
    x_star, f_star = objective.reference()
    return objective, x_star, f_star


def variance_at_point(objective: Objective, w: np.ndarray) -> float:
    """(1/n) sum_i ||grad f(w; i)||^2; at a minimizer this is the residual
    component-gradient variance that drives the convergence bounds."""
    return ordered_sum(squared_norm(objective.component_gradient(w, i))
                       for i in range(objective.n)) / objective.n


def solve_reference(objective: Objective, tol: float = 1e-10,
                    max_iter: int = 1_000_000, x0=None):
    """High-accuracy minimizer oracle: (x_star, f_star).

    Quadratics use their closed form.  Everything else runs the deterministic
    accelerated full-gradient method with step 1/L until ||grad F(y)|| <= tol
    at its extrapolated point y, and returns y: one full gradient per
    iteration both tests y and steps from it, and the first y is x0.  Its
    momentum (k-1)/(k+2) restarts at k = 1 whenever a step climbs, i.e. the
    pairwise sum of grad F(y) * (x_new - x) is > 0 (gradient-scheme adaptive
    restart, O'Donoghue and Candes); until the first restart k equals t.
    An infimum of 0 that is not attained (separable logistic or softmax data)
    raises ReferenceSolveError once F(x) has halved and ||x|| grown between
    two of the checks at t = 4096, 8192, ...; otherwise the cap on t raises it.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if isinstance(objective, QuadraticObjective):
        return objective.reference()
    # nothing updates x or y in place, so they may share one array
    x = y = np.zeros(objective.dim) if x0 is None else np.array(x0, dtype=np.float64)
    t, k, check, f_last, x_last, g_norm = 0, 0, 4096, math.inf, math.inf, math.inf
    for t in range(1, max_iter + 1):
        g = objective.full_gradient(y)
        g_norm = math.sqrt(squared_norm(g))
        if g_norm <= tol:
            return y, objective.full_value(y)
        if t == 1:  # read at the first step: a start that meets tol never needs L, which may be 0
            alpha = 1.0 / objective.smoothness_bound()
        x_new = y - alpha * g
        step = x_new - x
        with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf or nan, silently
            k = 1 if np.add.reduce(g * step) > 0 else k + 1
        y = x_new + ((k - 1) / (k + 2)) * step
        x = x_new
        if t == check:
            f, x_norm = objective.full_value(x), math.sqrt(squared_norm(x))
            if 0 <= f <= f_last / 2 and x_norm > x_last:
                break
            check, f_last, x_last = 2 * check, f, x_norm
    raise ReferenceSolveError("reference solve did not converge" if t == max_iter else
                              "reference solve found no minimum (the value halves as ||x|| grows)",
                              value=objective.full_value(x), grad_norm=g_norm, iterations=t)
