"""Limited-memory quasi-Newton minimizer with Armijo backtracking.

The inverse-Hessian model is never formed.  It lives in the newest
(step, gradient-change) pairs, kept as the rows of S and Y beside three
small matrices, and is applied in the compact form of Byrd, Nocedal &
Schnabel ("Representations of quasi-Newton matrices and their use in
limited memory methods", Math. Prog. 63, 1994), the representation behind
L-BFGS-B.  A direction and a memory update each cost O(memory * dim)
arithmetic in a fixed number of NumPy calls, whatever the memory length;
the line search comes on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..callbacks import StepTaken
from ..core import Diagnostic, ObjectiveCapabilities, TerminationReason
from ._common import finish_run, prepare_run, progress_stop

__all__ = ["LbfgsMemory", "two_loop_direction", "backtracking_line_search", "LBFGS"]

# Pairs with y.s at or below this relative threshold carry no usable
# curvature and would poison the inverse-Hessian model.  A memory of a
# less precise dtype uses that dtype's eps where it is larger.
CURVATURE_FLOOR = 1e-14
MIN_STEP = 1e-20  # the line search tries no smaller step


class LbfgsMemory:
    """Bounded history of (s, y) curvature pairs, oldest dropped first.

    ``push`` copies ``s`` and ``y`` into the memory, so later writes to the
    caller's arrays change nothing here, and ``direction`` is the pairs'
    only reader.  The first ``push`` after construction or ``clear`` fixes
    the pairs' size and dtype; a pair of another size raises ``Diagnostic``,
    and one of another dtype is cast.

    Storage is the compact form's.  With m = ``memory_size`` and k pairs
    stored, the pairs are the last k rows of S and of Y, oldest first, and
    the rows before them are zero.  Beside them, in the pairs' dtype, sit
    R^-1, where R is the upper triangle of S Y^T (R_ij = s_i.y_j for
    i <= j), then Y Y^T and D = diag(s_i.y_i), zero outside their trailing
    k x k blocks.  An accepted ``push`` shifts every row and column by one,
    which drops the oldest pair, and fills in the newest from one product of
    [S; Y] with the new y.  The shift needs no refactorisation, because the
    trailing block of an upper-triangular inverse is the inverse of the
    trailing block.

    Every product here is ``ndarray.dot``, not ``@`` or ``np.dot``.  They
    run the same BLAS routine, so the bits agree, but at these sizes the
    call is the cost: with 10 pairs in 2 dimensions, ``@`` takes about
    1.7 us and ``.dot`` 0.95 us (one BLAS thread, shared 2-CPU x86_64 VM),
    and a push and a direction make ten such calls between them.
    """

    def __init__(self, memory_size=10):
        if memory_size < 1:
            raise Diagnostic(f"memory_size must be >= 1, got {memory_size}")
        self.memory_size = memory_size
        self._count = 0
        self._pairs = None  # allocated by the first push

    def push(self, s, y):
        """Store the pair unless its curvature is too weak to trust.

        Returns True when stored.  Rejection keeps the model positive
        definite; the rest of the history is untouched.
        """
        s_flat, y_flat = s.reshape(-1), y.reshape(-1)
        # The width is the first pair's size, then the memory's.
        width = s_flat.size if self._pairs is None else self._pairs.shape[2]
        if s_flat.size != width or y_flat.size != width:
            raise Diagnostic(
                f"this L-BFGS memory takes pairs of shape ({width},); "
                f"got s of shape {s.shape} and y of shape {y.shape}"
            )
        if self._pairs is None:
            self._allocate(width, np.result_type(s_flat, y_flat, 1.0))
        curvature = float(s_flat.dot(y_flat))
        y_norm2 = float(y_flat.dot(y_flat))
        # Written so that a NaN curvature is refused too.
        if not curvature > self._floor * math.sqrt(float(s_flat.dot(s_flat)) * y_norm2):
            return False
        m, pairs, inverse_r = self.memory_size, self._pairs, self._inverse_r
        for destination, source in self._shifts:
            destination[...] = source
        pairs[0, -1] = s_flat
        pairs[1, -1] = y_flat
        column = self._rows.dot(pairs[1, -1])  # [S y; Y y], the new pair included
        # R gains the column [b; c], b = S_old y and c = s.y, so R^-1 gains
        # [-R^-1 b / c; 1/c]; its last row stays (0, ..., 0, 1/c).
        r_block, r_column = self._r_extension
        r_column[...] = r_block.dot(column[: m - 1]) * (-1.0 / curvature)
        inverse_r[-1, -1] = 1.0 / curvature
        self._yty[-1] = self._yty[:, -1] = column[m:]
        self._d[-1, -1] = curvature
        self._count = min(self._count + 1, m)
        self._gamma = curvature / y_norm2
        return True

    def _allocate(self, dim, dtype):
        m = self.memory_size
        pairs = np.zeros((2, m, dim), dtype)  # S then Y
        # D is the diagonal of a third layer, so one shift moves all three.
        small = np.zeros((3, m, m), dtype)
        self._pairs, self._rows = pairs, pairs.reshape(2 * m, dim)  # [S; Y]
        self._floor = max(CURVATURE_FLOOR, float(np.finfo(dtype).eps))
        self._inverse_r, self._yty, self._d = small
        self._curvatures = self._d.diagonal()  # read-only view of D's diagonal
        # Made once, because slicing them per call costs 0.4-0.7 us of a
        # push or a direction (~8 us each): the shifts' destinations and
        # sources, the block of R^-1 its new column comes from and that
        # column, and the direction's weights on the rows of S and of Y.
        self._shifts = (pairs[:, :-1], pairs[:, 1:]), (small[:, :-1, :-1], small[:, 1:, 1:])
        self._r_extension = self._inverse_r[:-1, :-1], self._inverse_r[:-1, -1]
        self._weights = np.zeros(2 * m, dtype)
        self._weights_s, self._weights_y = self._weights[:m], self._weights[m:]

    def clear(self):
        self._count = 0
        self._pairs = None

    def __len__(self):
        return self._count

    def direction(self, gradient):
        """Search direction -H.g, in compact form.

        With no pairs stored H is the identity and the direction is exactly
        -g.  Otherwise H is the L-BFGS inverse Hessian in the compact form of
        Byrd, Nocedal & Schnabel (1994), written for S and Y holding the
        pairs as rows: with a = S g, b = Y g and p2 = -R^-1 a,

            H.g = gamma g + S^T p1 + gamma Y^T p2,
            p1  = R^-T ((D + gamma Y Y^T) R^-1 a - gamma b).

        gamma = s.y / y.y from the newest pair is the standard initial
        scaling that sizes the first trial step to the local curvature.  The
        result has the gradient's dtype and shape, flat or column.  With pairs
        near the curvature floor and R badly conditioned, this form can lose
        more digits than the two-loop recursion, which keeps its running
        vector explicit; on typical pairs the two agree to rounding.
        """
        if not self._count:
            return -gradient
        m, gamma, inverse_r = self.memory_size, self._gamma, self._inverse_r
        flat = gradient.reshape(-1)
        products = self._rows.dot(flat)  # [a; b]
        r_a = inverse_r.dot(products[:m])  # -p2
        inner = self._curvatures * r_a + gamma * (self._yty.dot(r_a) - products[m:])
        # Assigned, not written with out=: a product's out must have its exact
        # dtype, and a float64 gradient makes a float32 memory's product float64.
        self._weights_s[...] = inner.dot(inverse_r)  # p1
        np.multiply(r_a, -gamma, out=self._weights_y)  # gamma p2
        direction = -gamma * flat
        direction -= self._weights.dot(self._rows)
        return direction.reshape(gradient.shape)


# The name perfbench's tracer patches to time the direction.
two_loop_direction = LbfgsMemory.direction


class LineSearchResult(NamedTuple):
    """A line search's outcome.

    On success ``failure`` is None, ``value`` is f at the accepted trial and
    ``point`` is the array that trial was evaluated at, x + step * d.  On
    failure ``value`` is the starting value and ``point`` is None.
    """

    step: float
    value: float
    failure: TerminationReason | None
    point: np.ndarray | None = None


def backtracking_line_search(
    adapter,
    x,
    value,
    gradient,
    direction,
    *,
    armijo_constant=1e-4,
    backtrack_factor=0.5,
    max_trials=50,
):
    """Find a step along ``direction`` passing the sufficient-decrease test.

    Tries steps 1, b, b^2, ... and accepts the first with
    f(x + a d) <= f(x) + c1 a g.d.  A NaN trial value is rejected like any
    insufficient decrease.  Failures are reported in the result, not raised:
    LINE_SEARCH_FAILURE after ``max_trials`` rejections, and
    STEP_SIZE_UNDERFLOW when the next trial step would fall below
    ``MIN_STEP``.  Each trial costs one objective evaluation through
    ``adapter``; once a callback has returned TERMINATE, the adapter refuses
    the next trial, and its stop signal propagates to the caller.

    The accepted trial's point comes back as ``point``, so the caller can
    take its gradient without forming x + step * d again.  The unit step
    tries x + d, which is bitwise x + 1.0 * d without the multiplication.
    """
    slope = float(np.vdot(gradient, direction))
    if not slope < 0:
        # Not a descent direction (or NaN); nothing downhill to find.
        return LineSearchResult(0.0, value, TerminationReason.LINE_SEARCH_FAILURE)
    step = 1.0
    for _ in range(max_trials):
        if step < MIN_STEP:
            return LineSearchResult(step, value, TerminationReason.STEP_SIZE_UNDERFLOW)
        point = x + direction if step == 1.0 else x + step * direction
        trial_value = adapter.evaluate(point)
        if trial_value <= value + armijo_constant * step * slope:
            return LineSearchResult(step, trial_value, None, point)
        step *= backtrack_factor
    return LineSearchResult(step, value, TerminationReason.LINE_SEARCH_FAILURE)


@dataclass
class LBFGS:
    """L-BFGS minimizer.

    ``max_iterations`` of 0 means no cap.  ``min_gradient_norm`` is tested
    with the max-abs norm; ``min_objective_improvement`` is relative to
    max(1, |f|).  Needs evaluate and gradient (a fused
    evaluate_with_gradient is used when present).

    Whenever the curvature memory is empty (the first iteration and after a
    restart), the steepest-descent direction is scaled to at most unit
    2-norm, as in ensmallen; the line search still starts at step 1.
    """

    memory_size: int = 10
    max_iterations: int = 10000
    min_gradient_norm: float = 1e-6
    min_objective_improvement: float = 1e-10
    armijo_constant: float = 1e-4
    backtrack_factor: float = 0.5
    max_line_search_trials: int = 50

    requires = ObjectiveCapabilities(evaluate=True, gradient=True)

    def __post_init__(self):
        if self.memory_size < 1:
            raise Diagnostic(f"memory_size must be >= 1, got {self.memory_size}")
        if self.max_iterations < 0:
            raise Diagnostic(f"max_iterations must be >= 0, got {self.max_iterations}")
        if not 0.0 < self.armijo_constant < 1.0:
            raise Diagnostic(f"armijo_constant must be in (0, 1), got {self.armijo_constant}")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise Diagnostic(
                f"backtrack_factor must be in (0, 1), got {self.backtrack_factor}"
            )
        if self.max_line_search_trials < 1:
            raise Diagnostic(
                f"max_line_search_trials must be >= 1, got {self.max_line_search_trials}"
            )
        if self.min_gradient_norm < 0 or self.min_objective_improvement < 0:
            raise Diagnostic("tolerances must be >= 0")

    def optimize(self, objective, x0, callbacks=()):
        """Minimize ``objective`` from ``x0``; returns (parameters, result).

        ``x0`` is not modified; the run works on a copy and its dtype
        (float32 or float64) sets the precision of the whole run.
        """
        x, adapter, events, started = prepare_run(
            objective, x0, callbacks, self.requires, "L-BFGS"
        )
        value, iteration, reason = np.nan, 0, None
        with adapter:
            value, gradient = adapter.evaluate_with_gradient(x)
            memory = LbfgsMemory(self.memory_size)
            if float(np.abs(gradient).max()) <= self.min_gradient_norm:
                reason = TerminationReason.GRADIENT_NORM_TOLERANCE
            while reason is None:
                direction = two_loop_direction(memory, gradient)
                if len(memory) == 0:
                    # Steepest descent carries no curvature scale; cap the first
                    # trial step at unit length (Nocedal & Wright, 2nd ed., 3.5).
                    direction = direction / max(1.0, float(np.linalg.norm(direction.ravel())))
                found = backtracking_line_search(
                    adapter,
                    x,
                    value,
                    gradient,
                    direction,
                    armijo_constant=self.armijo_constant,
                    backtrack_factor=self.backtrack_factor,
                    max_trials=self.max_line_search_trials,
                )
                if found.failure is not None:
                    reason = found.failure
                    break
                s = direction if found.step == 1.0 else found.step * direction
                new_gradient = adapter.gradient(found.point)
                x, iteration = found.point, iteration + 1
                if not memory.push(s, new_gradient - gradient):
                    # A rejected pair means the local quadratic model broke down
                    # (negative curvature along the step).  Steering by the old
                    # history stalls in that situation, so restart it.
                    memory.clear()
                gradient_norm = float(np.abs(new_gradient).max())
                if events:
                    events.dispatch(
                        StepTaken(
                            iteration=iteration, objective=found.value, gradient_norm=gradient_norm
                        )
                    )
                if gradient_norm <= self.min_gradient_norm:
                    reason = TerminationReason.GRADIENT_NORM_TOLERANCE
                else:
                    reason = progress_stop(self, value, found.value, iteration)
                value, gradient = found.value, new_gradient
        return x, finish_run(adapter, started, value, iteration, reason)
