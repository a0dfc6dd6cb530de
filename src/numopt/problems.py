"""Ready-made objectives and data helpers.

Conventions: predictors X are d x n (one sample per column), responses y are
length n, parameters phi are a length-d vector or d x 1 column.  Gradients
come back in phi's shape.  Data arrays keep float32 or float64 as given, so
single-precision problems stay single precision end to end.
"""

from __future__ import annotations

import csv

import numpy as np

from .core import Diagnostic

# Products with X stay `@`: perfbench counts them as np.matmul calls, which ndarray.dot bypasses.

__all__ = [
    "LinearRegression",
    "SeparableLinearRegression",
    "LogisticRegression",
    "Rosenbrock",
    "generate_noisy_linear",
    "load_csv",
]


def _as_float_array(values, name):
    a = np.asarray(values)
    if a.dtype not in (np.float32, np.float64):
        a = a.astype(np.float64)
    if a.size == 0:
        raise Diagnostic(f"{name} must be non-empty")
    return a


def _check_xy(predictors, responses, owner):
    X = _as_float_array(predictors, f"{owner} predictors")
    y = _as_float_array(responses, f"{owner} responses").ravel()
    if X.ndim != 2:
        raise Diagnostic(f"{owner} predictors must be a d x n matrix, got shape {X.shape}")
    if y.shape[0] != X.shape[1]:
        raise Diagnostic(
            f"{owner}: {X.shape[1]} predictor columns but {y.shape[0]} responses"
        )
    return X, y


def _flat_parameters(objective, phi):
    phi = np.asarray(phi)
    d = objective.X.shape[0]
    if phi.size != d:
        raise Diagnostic(
            f"{type(objective).__name__} expects {d} parameters, got shape {phi.shape}"
        )
    return phi.ravel()


def _columns(objective, first, count):
    """(X, y) cut to the checked column window [first, first+count)."""
    n = objective.X.shape[1]
    if not (0 <= first and count >= 1 and first + count <= n):
        raise Diagnostic(
            f"{type(objective).__name__}: window [{first}, {first + count}) outside [0, {n})"
        )
    window = slice(first, first + count)
    return objective.X[:, window], objective.y[window]


def _window(objective, phi, first, count):
    """(flat phi, X, y) cut to the checked column window [first, first+count)."""
    X, y = _columns(objective, first, count)
    return _flat_parameters(objective, phi), X, y


def _residual(objective, phi, first, count):
    """(X window, residual X_w.T phi - y_w, phi's shape) for the window [first, first+count).

    A call at the point, window and data of the call before it takes that
    call's X window and residual and drops them, so a value and a gradient
    at one point cost two products with X, not three.  Any other call checks
    and cuts its window, computes its own residual and keeps both for the
    next.  The key is by value: the window, phi's dtype and bytes, and X and
    y by identity; a hit is therefore a window that was checked before.
    """
    phi = np.asarray(phi)
    flat = _flat_parameters(objective, phi)
    key = (first, count, flat.dtype.str, flat.tobytes())
    kept = objective._kept
    if kept is not None and kept[0] is objective.X and kept[1] is objective.y and kept[2] == key:
        objective._kept = None
        return kept[3], kept[4], phi.shape
    X, y = _columns(objective, first, count)
    residual = X.T @ flat - y
    objective._kept = (objective.X, objective.y, key, X, residual)
    return X, residual, phi.shape


def _least_squares_value(objective, phi, first, count):
    _, residual, _ = _residual(objective, phi, first, count)
    # A 1-D product, not one with X: ndarray.dot skips matmul's ufunc dispatch.
    return float(residual.dot(residual))


def _least_squares_gradient(objective, phi, first, count):
    X, residual, shape = _residual(objective, phi, first, count)
    return (2.0 * (X @ residual)).reshape(shape)


class LinearRegression:
    """Least squares f(phi) = ||X.T phi - y||^2 with gradient 2 X (X.T phi - y).

    Deliberately provides only ``evaluate`` and ``gradient``; that pair is
    enough for every gradient-based optimizer here, and the annealer needs
    just the first.  The two still share work: a call at the same point as
    the call before it reuses that call's residual X.T phi - y, keyed on
    phi's dtype and bytes and on X and y by identity.  X and y are read as
    constants: replace them, do not write into them.
    """

    def __init__(self, predictors, responses):
        self.X, self.y = _check_xy(predictors, responses, type(self).__name__)
        self._kept = None

    def evaluate(self, phi):
        return _least_squares_value(self, phi, 0, self.X.shape[1])

    def gradient(self, phi):
        return _least_squares_gradient(self, phi, 0, self.X.shape[1])


class SeparableLinearRegression:
    """The same least-squares objective exposed only part-wise.

    Part i is (x_i.T phi - y_i)^2 for column i.  Window calls slice columns
    [first, first+count); the full window [0, n) reproduces
    ``LinearRegression.evaluate`` exactly, so the inferred full objective is
    bit-identical to the direct one.  As there, a call at the same point and
    window as the call before it reuses that call's residual, keyed on the
    window, phi's dtype and bytes, and X and y by identity.  X and y are read
    as constants: replace them, do not write into them.
    """

    def __init__(self, predictors, responses):
        self.X, self.y = _check_xy(predictors, responses, type(self).__name__)
        self._kept = None

    @property
    def num_parts(self):
        return self.X.shape[1]

    def evaluate_parts(self, phi, first, count):
        return _least_squares_value(self, phi, first, count)

    def gradient_parts(self, phi, first, count):
        return _least_squares_gradient(self, phi, first, count)


class LogisticRegression:
    """Negative log-likelihood for {0,1} labels, no intercept.

    f(phi) = sum_i [softplus(x_i.T phi) - y_i * x_i.T phi], gradient
    X (sigmoid(X.T phi) - y), softplus being ``np.logaddexp(0, z)``.  Also
    separable per column.  ``ridge`` adds an optional penalty
    ridge * ||phi||^2 (part windows carry a count/n share of it); off by default.
    """

    def __init__(self, predictors, responses, ridge=0.0):
        self.X, self.y = _check_xy(predictors, responses, type(self).__name__)
        if not ((self.y == 0) | (self.y == 1)).all():
            raise Diagnostic(
                f"{type(self).__name__} labels must all be 0 or 1, "
                f"got values {np.unique(self.y)[:5]}"
            )
        if ridge < 0:
            raise Diagnostic(f"ridge must be >= 0, got {ridge}")
        self.ridge = float(ridge)

    @property
    def num_parts(self):
        return self.X.shape[1]

    def _value(self, flat, X, y, share):
        """Value over the columns X, y; share is their count/n of the ridge penalty."""
        z = X.T @ flat
        # ndarray.sum is np.sum's add.reduce without its ~1.5 us dispatch wrapper.
        value = float((np.logaddexp(0.0, z) - y * z).sum())
        if self.ridge:
            value += self.ridge * float(flat @ flat) * share
        return value

    def _gradient(self, flat, X, y, share):
        z = X.T @ flat
        g = X @ (np.exp(z - np.logaddexp(0.0, z)) - y)
        if self.ridge:
            g = g + 2.0 * self.ridge * flat * share
        return g

    def evaluate(self, phi):
        return self._value(_flat_parameters(self, phi), self.X, self.y, 1.0)

    def gradient(self, phi):
        g = self._gradient(_flat_parameters(self, phi), self.X, self.y, 1.0)
        return g.reshape(np.shape(phi))

    def evaluate_parts(self, phi, first, count):
        return self._value(*_window(self, phi, first, count), float(count) / self.X.shape[1])

    def gradient_parts(self, phi, first, count):
        g = self._gradient(*_window(self, phi, first, count), float(count) / self.X.shape[1])
        return g.reshape(np.shape(phi))


class Rosenbrock:
    """The banana-valley test function (1-a)^2 + 100(b-a^2)^2 on 2-D points.

    Global minimum 0 at (1, 1); the curved narrow valley makes it a standard
    stress test for line searches and curvature models.
    """

    def _point(self, x):
        x = np.asarray(x)
        if x.size != 2:
            raise Diagnostic(f"Rosenbrock is 2-D, got shape {x.shape}")
        return float(x.flat[0]), float(x.flat[1])

    def evaluate(self, x):
        a, b = self._point(x)
        try:
            return (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
        except OverflowError:
            # Python's float ** raises where IEEE arithmetic gives inf.
            return np.inf

    def gradient(self, x):
        a, b = self._point(x)
        x = np.asarray(x)
        ga = -2.0 * (1.0 - a) - 400.0 * a * (b - a * a)
        gb = 200.0 * (b - a * a)
        return np.array([ga, gb], dtype=x.dtype).reshape(x.shape)


def generate_noisy_linear(d, n, noise_scale=10.0, seed=0):
    """Random linear data with Gaussian noise: (X, y, phi_true).

    X and phi_true have entries uniform on (-1, 1) and
    y = X.T phi_true + noise_scale * standard normal draws, so the linear
    signal is O(1) per sample and noise_scale sets how badly it is buried.
    phi_true comes back as a d x 1 column.  Same seed, same data.
    """
    if d < 1 or n < 1:
        raise Diagnostic(f"d and n must be >= 1, got d={d}, n={n}")
    if noise_scale < 0:
        raise Diagnostic(f"noise_scale must be >= 0, got {noise_scale}")
    rng = np.random.default_rng(seed)
    # rng.uniform(-1, 1) returns -1 + 2u for the draws u that rng.random
    # returns; mapping them in place gives the same bits, and rng.random's
    # fill loop is faster than uniform's per-draw call.
    X = rng.random((d, n))
    X *= 2.0
    X -= 1.0
    phi_true = rng.uniform(-1.0, 1.0, size=(d, 1))
    y = X.T @ phi_true.ravel() + noise_scale * rng.standard_normal(n)
    return X, y, phi_true


def load_csv(path):
    """Read a numeric CSV into (X, y): one sample per row, last column is y.

    A single leading non-numeric row is skipped as a header; any other
    non-numeric cell is a Diagnostic.  Returns X as d x n (samples become
    columns) and y as an n-vector, both float64.
    """
    rows = []
    with open(path, newline="") as handle:
        for line_number, row in enumerate(csv.reader(handle), start=1):
            if not row:
                continue
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                if line_number == 1:
                    continue
                raise Diagnostic(
                    f"{path}: line {line_number} is not numeric: {','.join(row)!r}"
                ) from None
    if not rows:
        raise Diagnostic(f"{path}: no data rows")
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise Diagnostic(f"{path}: rows have inconsistent column counts {sorted(widths)}")
    if widths.pop() < 2:
        raise Diagnostic(f"{path}: need at least one predictor column plus the response")
    data = np.array(rows, dtype=np.float64)
    return data[:, :-1].T.copy(), data[:, -1].copy()
