"""Ready-made objectives and data helpers.

Conventions: predictors X are d x n (one sample per column), responses y are
length n, parameters phi are a length-d vector or d x 1 column.  Gradients
come back in phi's shape.  Data arrays keep float32 or float64 as given, so
single-precision problems stay single precision end to end.
"""

from __future__ import annotations

import csv

import numpy as np

from .core import Diagnostic, _as_float_array, check_options

# Products with X stay `@`: perfbench counts them as np.matmul calls, which ndarray.dot bypasses.

__all__ = [
    "LinearRegression",
    "SeparableLinearRegression",
    "LogisticRegression",
    "Rosenbrock",
    "generate_noisy_linear",
    "load_csv",
]


def _data_array(values, name):
    a = _as_float_array(values, name)
    if a.size == 0:
        raise Diagnostic(f"{name} must be non-empty")
    return a


class _ColumnData:
    """Predictors X (d x n) and responses y (length n), checked once, and the
    parameter and column-window checks of the bundled data objectives.

    X stays an instance attribute, so it can be swapped per object.
    """

    def __init__(self, predictors, responses):
        owner = type(self).__name__
        X = _data_array(predictors, f"{owner} predictors")
        y = _data_array(responses, f"{owner} responses").ravel()
        if X.ndim != 2:
            raise Diagnostic(f"{owner} predictors must be a d x n matrix, got shape {X.shape}")
        if y.shape[0] != X.shape[1]:
            raise Diagnostic(f"{owner}: {X.shape[1]} predictor columns but {y.shape[0]} responses")
        self.X, self.y = X, y

    def _parameters(self, phi):
        """phi as an array with one entry per row of X; kernels take its
        ``ravel()`` and gradients its ``shape``."""
        phi = np.asarray(phi)
        d = self.X.shape[0]
        if phi.size != d:
            raise Diagnostic(
                f"{type(self).__name__} expects {d} parameters, got shape {phi.shape}"
            )
        return phi

    def _columns(self, first, count):
        """(X, y) cut to the checked column window [first, first+count).

        A bound that is not an integer fails the range test or the slice with
        a TypeError, reported as a Diagnostic at no cost to an integer window.
        """
        n = self.X.shape[1]
        try:
            if not (0 <= first and count >= 1 and first + count <= n):
                raise Diagnostic(
                    f"{type(self).__name__}: window [{first}, {first + count}) outside [0, {n})"
                )
            window = slice(first, first + count)
            return self.X[:, window], self.y[window]
        except TypeError:
            raise Diagnostic(
                f"{type(self).__name__}: window first={first!r}, count={count!r} must be integers"
            ) from None


# Column blocks of about this many bytes of X: a block's residual and gradient
# products then read it from cache, where each product over a window that does
# not fit streams all of it from memory.
_BLOCK_BYTES = 1 << 20


def _blocked(X, residual, y=None, flat=None):
    """(residual, gradient 2 X residual) of the window X, y in column blocks
    of about _BLOCK_BYTES, the gradient summed block by block.

    Given no residual, each block makes its share X_b.T flat - y_b in the pass
    that makes its gradient product, so X is read once.  Blocks are whole
    16-column groups and none is one column wide, so that, with BLAS on one
    thread, the residual has the bits of the window's one product:
    OpenBLAS's dgemv rounds a product's last m % 4 outputs apart from the
    rest, and NumPy sends a one-column product to a dot.  On more threads
    a few entries can differ from it in the last bit.
    """
    n = X.shape[1]
    width = max(1, _BLOCK_BYTES // (16 * X.shape[0] * X.itemsize)) * 16
    edges = [0, *range(width, n - 1, width), n]
    pieces, g = [], None
    for start, stop in zip(edges, edges[1:]):
        block = X[:, start:stop]
        if residual is None:
            r = block.T @ flat - y[start:stop]
            pieces.append(r)
        else:
            r = residual[start:stop]
        part = block @ r
        if g is None:
            g = part
        else:
            g += part
    return (np.concatenate(pieces) if residual is None else residual), 2.0 * g


class _LeastSquares(_ColumnData):
    """||X_w.T phi - y_w||^2 over the column window w = [first, first+count),
    and its gradient; full calls are the window [0, n)."""

    _kept = None
    _after_gradient = False

    def _residual(self, phi, first, count, gradient):
        """(X window, residual X_w.T phi - y_w, gradient or None, phi's shape)
        for the window [first, first+count); ``gradient`` says which call asks.

        A call at the point, window and data of the call before it takes what
        that call kept and drops it: a value the residual, a gradient the
        gradient if one was made, else the residual.  Any other call checks and
        cuts its window and keeps its residual for the next.  The key is the
        window and its bounds' types, phi's dtype and bytes, and X and y by
        identity; a hit is therefore a window that was checked before, and a
        float window never hits an equal integer one.

        A window wider than one block makes the residual in the gradient's
        pass (``_blocked``) when a gradient is asked for or the call before
        this one was a gradient call, so a value then keeps its gradient too;
        else it makes the residual in one product, as a one-block window
        always does.  A float32 product, of float32 X and phi, is never made
        in blocks: OpenBLAS's sgemv rounds an output by the product's length.
        """
        phi = self._parameters(phi)
        flat = phi.ravel()
        key = (first, count, type(first), type(count), flat.dtype, flat.tobytes())
        kept = self._kept
        after_gradient, self._after_gradient = self._after_gradient, gradient
        if kept is not None and kept[0] is self.X and kept[1] is self.y and kept[2] == key:
            self._kept = None
            return kept[3], kept[4], kept[5], phi.shape
        X, y = self._columns(first, count)
        if (
            X.nbytes > _BLOCK_BYTES
            and (gradient or after_gradient)
            and np.result_type(X, flat) == np.float64
        ):
            residual, g = _blocked(X, None, y, flat)
        else:
            residual, g = X.T @ flat - y, None
        self._kept = (self.X, self.y, key, X, residual, None if gradient else g)
        return X, residual, g, phi.shape

    def _value(self, phi, first, count):
        residual = self._residual(phi, first, count, False)[1]
        # A 1-D product, not one with X: ndarray.dot skips matmul's ufunc dispatch.
        return float(residual.dot(residual))

    def _gradient(self, phi, first, count):
        X, residual, g, shape = self._residual(phi, first, count, True)
        if g is None:
            g = 2.0 * (X @ residual) if X.nbytes <= _BLOCK_BYTES else _blocked(X, residual)[1]
        return g.reshape(shape)


class LinearRegression(_LeastSquares):
    """Least squares f(phi) = ||X.T phi - y||^2 with gradient 2 X (X.T phi - y).

    Deliberately provides only ``evaluate`` and ``gradient``; that pair is
    enough for every gradient-based optimizer here, and the annealer needs
    just the first.  The two still share work: a call at the same point as
    the call before it reuses that call's residual X.T phi - y, keyed on
    phi's dtype and bytes and on X and y by identity.  An X wider than
    1 MiB is read in column blocks, and a gradient is made in the residual's
    pass, when a gradient is asked for or, for a value, when the call
    before it was a gradient call; the value keeps that gradient for the
    next call.  With BLAS on one thread, values keep the one product's bits;
    such a gradient is summed block by block.  X and y are read as
    constants: replace them, do not write into them.
    """

    def evaluate(self, phi):
        return self._value(phi, 0, self.X.shape[1])

    def gradient(self, phi):
        return self._gradient(phi, 0, self.X.shape[1])


class SeparableLinearRegression(_LeastSquares):
    """The same least-squares objective exposed only part-wise.

    Part i is (x_i.T phi - y_i)^2 for column i.  Window calls slice columns
    [first, first+count); the full window [0, n) reproduces
    ``LinearRegression.evaluate`` exactly, so the inferred full objective is
    bit-identical to the direct one.  As there, a call at the same point and
    window as the call before it reuses that call's residual, keyed on the
    window, phi's dtype and bytes, and X and y by identity, and a window
    wider than 1 MiB of X is read in column blocks; a window of at most
    1 MiB, such as an SGD batch, makes one product for its residual and one
    for its gradient.  X and y are read as constants: replace them, do not
    write into them.
    """

    @property
    def num_parts(self):
        return self.X.shape[1]

    evaluate_parts = _LeastSquares._value
    gradient_parts = _LeastSquares._gradient


# A 0-d zero of z's own dtype for softplus: np.logaddexp promotes a Python
# 0.0 to z's dtype on every call, and this zero selects the same ufunc loop
# without that step, so the bits are the same.  An evaluate at d=5 n=200 went
# 7.6 -> 7.3 us on a 2-CPU Xeon, faster in 27 of 30 interleaved rounds.
_ZEROS = {char: np.zeros((), char) for char in "fd"}


class LogisticRegression(_ColumnData):
    """Negative log-likelihood for {0,1} labels, no intercept.

    f(phi) = sum_i [softplus(x_i.T phi) - y_i * x_i.T phi], gradient
    X (sigmoid(X.T phi) - y), softplus being ``np.logaddexp(0, z)``.  Also
    separable per column.  ``ridge`` adds an optional penalty
    ridge * ||phi||^2 (part windows carry a count/n share of it); off by default.
    With BLAS on one thread, a gradient keeps its bits.  On more threads its
    product X (sigmoid(X.T phi) - y), one BLAS call, can change in its last
    bits with the thread count: at d=100, n=10000, one and two OpenBLAS
    threads give different gradients and the same value.
    """

    def __init__(self, predictors, responses, ridge=0.0):
        super().__init__(predictors, responses)
        if not ((self.y == 0) | (self.y == 1)).all():
            raise Diagnostic(
                f"{type(self).__name__} labels must all be 0 or 1, "
                f"got values {np.unique(self.y)[:5]}"
            )
        check_options(("ridge", ridge, ">= 0"))
        self.ridge = float(ridge)

    @property
    def num_parts(self):
        return self.X.shape[1]

    def _value(self, flat, X, y, share):
        """Value over the columns X, y; share is their count/n of the ridge penalty."""
        z = X.T @ flat
        # add.reduce is what ndarray.sum and np.sum run, without NumPy's Python
        # wrapper (_methods._sum) around it: the same pairwise sum, ~0.15 us less.
        zero = _ZEROS.get(z.dtype.char, 0.0)
        value = float(np.add.reduce(np.logaddexp(zero, z) - y * z))
        if self.ridge:
            value += self.ridge * float(flat @ flat) * share
        return value

    def _gradient(self, flat, X, y, share):
        z = X.T @ flat
        zero = _ZEROS.get(z.dtype.char, 0.0)
        g = X @ (np.exp(z - np.logaddexp(zero, z)) - y)
        if self.ridge:
            g = g + 2.0 * self.ridge * flat * share
        return g

    # Full calls pass X and y whole: cutting them as the window [0, n) made an
    # evaluate at d=5 n=200 about 10% slower (15.5 -> 17.1 us on a 2-CPU Xeon,
    # slower in 15 of 15 interleaved rounds), about 6% of an annealing move.
    def evaluate(self, phi):
        return self._value(self._parameters(phi).ravel(), self.X, self.y, 1.0)

    def gradient(self, phi):
        phi = self._parameters(phi)
        return self._gradient(phi.ravel(), self.X, self.y, 1.0).reshape(phi.shape)

    # float(count): a NumPy-integer count would make the share, and with it
    # a float32 ridge gradient, float64.
    def evaluate_parts(self, phi, first, count):
        X, y = self._columns(first, count)
        return self._value(self._parameters(phi).ravel(), X, y, float(count) / self.X.shape[1])

    def gradient_parts(self, phi, first, count):
        X, y = self._columns(first, count)
        phi = self._parameters(phi)
        g = self._gradient(phi.ravel(), X, y, float(count) / self.X.shape[1])
        return g.reshape(phi.shape)


class Rosenbrock:
    """The banana-valley test function (1-a)^2 + 100(b-a^2)^2 on 2-D points.

    Global minimum 0 at (1, 1); the curved narrow valley makes it a standard
    stress test for line searches and curvature models.
    """

    def _point(self, x):
        """[a, b] of the array ``x`` as Python floats, in one call."""
        if x.size != 2:
            raise Diagnostic(f"Rosenbrock is 2-D, got shape {x.shape}")
        return x.ravel().tolist()

    def evaluate(self, x):
        a, b = self._point(np.asarray(x))
        try:
            return (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
        except OverflowError:
            # Python's float ** raises where IEEE arithmetic gives inf.
            return np.inf

    def gradient(self, x):
        x = np.asarray(x)
        a, b = self._point(x)
        ga = -2.0 * (1.0 - a) - 400.0 * a * (b - a * a)
        gb = 200.0 * (b - a * a)
        g = np.array([ga, gb], dtype=x.dtype)
        # A 1-D x already has g's shape, and a reshape costs ~0.2 us of ~1 us.
        return g if x.ndim == 1 else g.reshape(x.shape)


def generate_noisy_linear(d, n, noise_scale=10.0, seed=0):
    """Random linear data with Gaussian noise: (X, y, phi_true).

    X and phi_true have entries uniform on (-1, 1) and
    y = X.T phi_true + noise_scale * standard normal draws, so the linear
    signal is O(1) per sample and noise_scale sets how badly it is buried.
    phi_true comes back as a d x 1 column.  Same seed, same data: the seed
    is a count, so None, which would draw from the OS, is refused.
    """
    check_options(
        ("d", d, ">= 1", int),
        ("n", n, ">= 1", int),
        ("noise_scale", noise_scale, ">= 0"),
        ("seed", seed, ">= 0", int),
    )
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
