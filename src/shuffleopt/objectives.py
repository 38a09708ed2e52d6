"""Finite-sum objectives F(w) = (1/n) sum_i f(w; i).

Each objective exposes per-component and full values/gradients plus an
analytic per-component smoothness constant L (a certified upper bound, not a
spectral estimate).  Parameter vectors are plain float64 arrays.  The row-data
objectives hold only their losses; rows and products come from their Dataset.

The step contract: a sweep needs `batch_mean_gradient(w, ids)`, the mean
gradient of a batch (a list of ints or a 1-D int array) at one point, and
`row_step(z, i, scale)`, the in-place update z -= scale * g of one row, bitwise
equal to z -= scale * batch_mean_gradient(z, [i]).  The base class computes
exactly that; the logistic row step costs O(nnz) of the row and the quadratic
one skips the batch gather and mean.  nag's step, z -= scale *
full_gradient(z), and nasg-pi's in-place extrapolation need nothing more.
Objectives keep no scratch arrays between calls.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from .data import Dataset
from .prng import derive_key, standard_normals

_CENTERS_TAG = 0x63656E7465727301
_LOG2 = math.log(2.0)


class ReferenceSolveError(RuntimeError):
    """High-accuracy solve hit its iteration cap before the gradient tolerance."""

    def __init__(self, message, value, grad_norm, iterations):
        super().__init__(message)
        self.value = value
        self.grad_norm = grad_norm
        self.iterations = iterations


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

    def accuracy(self, w: np.ndarray) -> float | None:
        """Training accuracy where defined; None for regression-style sums."""
        return None


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

    def component_value(self, w, i):
        cols, vals = self.data.row(i)
        return _logaddexp0(-(self._labels[i] * float(vals.dot(w[cols]))))

    def component_gradient(self, w, i):
        return self.batch_mean_gradient(w, (i,))

    def _row_coef(self, i, margin):
        """Row i's gradient is this coefficient times x_i, where margin is
        <x_i, w>: -y_i * sigmoid(-y_i * margin), overflow-safe."""
        y = self._labels[i]
        # numpy's exp, not math.exp: numpy's SIMD exp can differ in the last bit
        return -y * float(np.exp(-_logaddexp0(y * float(margin))))

    def batch_mean_gradient(self, w, ids):
        g = np.zeros(self.dim)
        for i in ids:
            cols, vals = self.data.row(i)
            g[cols] += self._row_coef(i, vals.dot(w[cols])) * vals
        g /= len(ids)
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
        grad = self._row_coef(i, vals.dot(zc)) * vals
        # 0.0 + (-0.0) is +0.0, as in the zeroed dense buffer; the dense
        # division by 1 is exact
        grad += 0.0
        grad *= scale
        zc -= grad
        z[cols] = zc

    def full_value(self, w):
        margins = self.data.labels * self.data.dot(w)
        return float(np.logaddexp(0.0, -margins).mean())

    def full_gradient(self, w):
        margins = self.data.labels * self.data.dot(w)
        coef = -self.data.labels * np.exp(-np.logaddexp(0.0, margins)) / self.n
        return self.data.tdot(coef)

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

    def component_value(self, w, i):
        idx, val = self.data.row(i)
        W, b = self.unpack(w)
        z = W[:, idx] @ val + b
        m = z.max()
        return float(m + np.log(np.exp(z - m).sum()) - z[self.data.labels[i]])

    def component_gradient(self, w, i):
        idx, val = self.data.row(i)
        W, b = self.unpack(w)
        z = W[:, idx] @ val + b
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
        return 0.5 * float(diff @ diff)

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
    total = 0.0
    for i in range(objective.n):
        g = objective.component_gradient(w, i)
        total += float(g @ g)
    return total / objective.n


def solve_reference(objective: Objective, tol: float = 1e-10,
                    max_iter: int = 1_000_000, x0=None):
    """High-accuracy minimizer oracle: (x_star, f_star).

    Quadratics use their closed form.  Everything else runs the deterministic
    accelerated full-gradient method with step 1/L until ||grad F|| <= tol.
    Hitting the cap raises ReferenceSolveError (e.g. separable logistic data,
    whose infimum is not attained).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if isinstance(objective, QuadraticObjective):
        return objective.reference()
    x = np.zeros(objective.dim) if x0 is None else np.array(x0, dtype=np.float64)
    g = objective.full_gradient(x)
    if float(np.linalg.norm(g)) <= tol:
        return x, objective.full_value(x)
    alpha = 1.0 / objective.smoothness_bound()
    y = x.copy()
    for t in range(1, max_iter + 1):
        x_new = y - alpha * objective.full_gradient(y)
        g = objective.full_gradient(x_new)
        if float(np.linalg.norm(g)) <= tol:
            return x_new, objective.full_value(x_new)
        y = x_new + ((t - 1) / (t + 2)) * (x_new - x)
        x = x_new
    raise ReferenceSolveError("reference solve did not converge",
                              value=objective.full_value(x),
                              grad_norm=float(np.linalg.norm(g)),
                              iterations=max_iter)
