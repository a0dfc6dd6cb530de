"""Limited-memory quasi-Newton minimizer with Armijo backtracking.

The inverse-Hessian model is never formed.  It lives in the newest
(step, gradient-change) pairs, kept as the rows of S and Y beside three
small matrices, and is applied in the compact form of Byrd, Nocedal &
Schnabel ("Representations of quasi-Newton matrices and their use in
limited memory methods", Math. Prog. 63, 1994), the representation behind
L-BFGS-B.  A direction makes two passes over the stored pairs and an
accepted pair one, each in a fixed number of NumPy calls, whatever the
memory length; the line search comes on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..core import Diagnostic, ObjectiveCapabilities, TerminationReason, check_options
from ._common import finish_run, gradient_stop, prepare_run, progress_stop

__all__ = ["LbfgsMemory", "backtracking_line_search", "LBFGS"]

# Pairs with y.s at or below this relative threshold carry no usable
# curvature and would poison the inverse-Hessian model.  A memory of a
# less precise dtype uses that dtype's eps where it is larger.
CURVATURE_FLOOR = 1e-14
MIN_STEP = 1e-20  # the line search tries no smaller step


class LbfgsMemory:
    """Bounded history of (s, y) curvature pairs, oldest dropped first.

    ``push`` copies ``s`` and ``y`` into the memory, so later writes to the
    caller's arrays change nothing here, and ``direction`` is the pairs'
    only reader.  The first ``push`` fixes the pairs' size and dtype for the
    memory's life, ``clear`` included: a later pair of another size raises
    ``Diagnostic``, and one of another dtype is cast.  ``LBFGS`` builds one
    memory per run, whose parameters keep one shape and dtype.

    The initial inverse Hessian H0 is chosen here, as ensmallen's
    ``ChooseScalingFactor`` chooses it.  A memory that has never accepted a
    pair gives -g / max(1, |g|_2): steepest descent carries no curvature
    scale, so the first trial step is capped at unit length (Nocedal &
    Wright, 2nd ed., 3.5).  From the first accepted pair on, H0 = gamma I,
    gamma being the newest accepted pair's s.y / y.y (Liu & Nocedal, Math.
    Prog. 45, 1989; Nocedal & Wright, eq. 7.20), and ``clear`` keeps gamma,
    so a cleared memory gives -gamma g.

    Storage is the compact form's, kept as a ring of m = ``memory_size``
    slots.  Slot i holds one pair as row i of S and of Y, and R^-1, Y Y^T
    and D = diag(s_i.y_i) are kept in the same slot order, R being the upper
    triangle of S Y^T in time order (R_ij = s_i.y_j when pair i came no
    later than pair j).  Slots not yet written are zero throughout.  An
    accepted ``push`` writes one slot, the one after the newest pair's,
    which is the oldest pair's once the memory is full, and nothing else:
    its rows of S and Y; R^-1's row, zeroed, which drops the oldest pair,
    because the trailing block of an upper-triangular inverse is the
    inverse of the trailing block and the oldest pair's column of R^-1
    holds only its diagonal entry; R^-1's column, and Y Y^T's row and
    column and D's entry, from one product of [S; Y] with the new y.  A
    refused pair writes nothing.  Nothing shifts, so a push costs one pass
    over [S; Y].  The direction's sums run over the slots in slot order,
    which past a wrap is not time order, so their last bits depend on where
    the ring stands.  ``clear`` zeroes the arrays in place and allocates
    nothing, so a cleared memory equals a new one given the same pairs,
    bit for bit.

    Every product here is ``ndarray.dot``, not ``@`` or ``np.dot``.  They
    run the same BLAS routine, so the bits agree, but at these sizes the
    call is the cost, and a push and a direction make ten such calls
    between them.  The views that ``direction`` reads are made once, the
    push's product is written into a buffer of its own, and the direction's
    inner vector is built in place.
    """

    def __init__(self, memory_size=10):
        check_options(("memory_size", memory_size, ">= 1", int))
        self.memory_size = memory_size
        self._count = 0
        self._gamma = None  # set by the first accepted pair, kept by clear
        self._slot = 0  # the next slot to write
        self._width = None  # fixed by the first push, with the arrays

    def push(self, s, y):
        """Store the pair unless its curvature is too weak to trust.

        Returns True when stored.  Rejection keeps the model positive
        definite; the rest of the history is untouched.
        """
        s_flat, y_flat = s.reshape(-1), y.reshape(-1)
        # The width is the first pair's size, then the memory's.
        fixed = self._width
        width = s_flat.size if fixed is None else fixed
        if s_flat.size != width or y_flat.size != width:
            raise Diagnostic(
                f"this L-BFGS memory takes pairs of shape ({width},); "
                f"got s of shape {s.shape} and y of shape {y.shape}"
            )
        if fixed is None:
            self._fix(width, np.result_type(s_flat, y_flat, 1.0))
        curvature = float(s_flat.dot(y_flat))
        y_norm2 = float(y_flat.dot(y_flat))
        # Written so that a NaN curvature is refused too.
        if not curvature > self._floor * math.sqrt(float(s_flat.dot(s_flat)) * y_norm2):
            return False
        m, slot, rows, inverse_r = self.memory_size, self._slot, self._rows, self._inverse_r
        rows[slot] = s_flat
        rows[m + slot] = y_flat
        # [S y; Y y], the new pair included, in the memory's dtype like its operands.
        rows.dot(rows[m + slot], out=self._column)
        # R gains the column [b; c], b = S_old y and c = s.y, so R^-1 gains
        # [-R^-1 b / c; 1/c].  With the slot's row zeroed, the oldest pair is
        # gone and R^-1 reads no entry of the product in this slot.
        inverse_r[slot] = 0
        np.multiply(inverse_r.dot(self._column_s), -1.0 / curvature, out=inverse_r[:, slot])
        inverse_r[slot, slot] = 1.0 / curvature
        self._yty[slot] = self._yty[:, slot] = self._column_y
        self._curvatures[slot] = curvature
        self._slot = (slot + 1) % m
        self._count = min(self._count + 1, m)
        self._gamma = curvature / y_norm2
        return True

    def _fix(self, dim, dtype):
        """Fix the pairs' size and dtype, and build the memory in them."""
        self._width = dim
        m = self.memory_size
        self._floor = max(CURVATURE_FLOOR, float(np.finfo(dtype).eps))
        self._rows = np.zeros((2 * m, dim), dtype)  # [S; Y]
        # R^-1, Y Y^T and D's diagonal in one array, so that clear is one fill.
        self._small = np.zeros((2 * m + 1, m), dtype)
        self._inverse_r, self._yty = self._small[:m], self._small[m:-1]
        self._curvatures = self._small[-1]
        self._column = np.zeros(2 * m, dtype)
        self._column_s, self._column_y = self._column[:m], self._column[m:]
        # The direction's weights on the rows of S and of Y.
        self._weights = np.zeros(2 * m, dtype)
        self._weights_s, self._weights_y = self._weights[:m], self._weights[m:]

    def clear(self):
        """Drop every pair, and keep gamma and the pairs' size and dtype."""
        self._count = self._slot = 0
        if self._width is not None:
            self._rows.fill(0)
            self._small.fill(0)

    def __len__(self):
        return self._count

    def direction(self, gradient):
        """Search direction -H.g, in compact form.

        With no pairs stored the direction is H0's, by the class's rule.
        Otherwise H is the L-BFGS inverse Hessian in the compact form of
        Byrd, Nocedal & Schnabel (1994), written for S and Y holding the
        pairs as rows: with a = S g, b = Y g and p2 = -R^-1 a,

            H.g = gamma g + S^T p1 + gamma Y^T p2,
            p1  = R^-T ((D + gamma Y Y^T) R^-1 a - gamma b).

        The result has the gradient's dtype and shape, flat or column.  With
        pairs near the curvature floor and R badly conditioned, this form can
        lose more digits than the two-loop recursion, which keeps its running
        vector explicit; on typical pairs the two agree to rounding.  Drawn
        near-floor memories, float64 pairs with s.y / (|s| |y|) down to
        1e-12 and float32 ones down to 1e-4, still gave finite downhill
        directions.
        """
        if not self._count:
            if self._gamma is None:
                return -gradient / max(1.0, float(np.linalg.norm(gradient.ravel())))
            return -self._gamma * gradient
        m, gamma, rows, inverse_r = self.memory_size, self._gamma, self._rows, self._inverse_r
        flat = gradient if gradient.ndim == 1 else gradient.reshape(-1)
        products = rows.dot(flat)  # [a; b]
        r_a = inverse_r.dot(products[:m])  # -p2
        # D R^-1 a + gamma (Y Y^T R^-1 a - b), built in place: IEEE addition
        # and multiplication commute, so the bits are those of that sum.
        inner = self._yty.dot(r_a)
        inner -= products[m:]
        inner *= gamma
        inner += self._curvatures * r_a
        # Assigned, not written with out=: a product's out must have its exact
        # dtype, and a float64 gradient makes a float32 memory's product float64.
        self._weights_s[...] = inner.dot(inverse_r)  # p1
        np.multiply(r_a, -gamma, out=self._weights_y)  # gamma p2
        direction = -gamma * flat
        direction -= self._weights.dot(rows)
        return direction if gradient.ndim == 1 else direction.reshape(gradient.shape)


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


def backtracking_line_search(adapter, x, value, gradient, direction, options):
    """Find a step along ``direction`` passing the sufficient-decrease test.

    ``options`` is the ``LBFGS`` whose ``armijo_constant`` c1,
    ``backtrack_factor`` b and ``max_line_search_trials`` the search reads.
    Tries steps 1, b, b^2, ... and accepts the first with
    f(x + a d) <= f(x) + c1 a g.d and f(x + a d) < inf.  A NaN or +inf trial
    value is rejected like any insufficient decrease, so a run whose values
    are +inf everywhere, where inf <= inf + c1 a g.d holds, ends where it
    started.  Failures are reported in the result, not raised:
    LINE_SEARCH_FAILURE after ``max_line_search_trials`` rejections, and
    STEP_SIZE_UNDERFLOW when the next trial step would fall below
    ``MIN_STEP``.  Each trial costs one objective evaluation through
    ``adapter``; once a callback has returned TERMINATE, the adapter refuses
    the next trial, and its stop signal propagates to the caller.

    The accepted trial's point comes back as ``point``, so the caller can
    take its gradient without forming x + step * d again.  The unit step
    tries x + d, which is bitwise x + 1.0 * d without the multiplication.
    The slope g.d is ``ndarray.dot`` of the two arrays flattened, which
    calls the dtype's dot routine that ``np.vdot`` calls, so the bits agree,
    without ``np.vdot``'s dispatch (0.57 against 0.61 us in 2 dimensions).
    """
    slope = float(gradient.ravel().dot(direction.ravel()))
    if not slope < 0:
        # Not a descent direction (or NaN); nothing downhill to find.
        return LineSearchResult(0.0, value, TerminationReason.LINE_SEARCH_FAILURE)
    step = 1.0
    for _ in range(options.max_line_search_trials):
        if step < MIN_STEP:
            return LineSearchResult(step, value, TerminationReason.STEP_SIZE_UNDERFLOW)
        point = x + direction if step == 1.0 else x + step * direction
        trial_value = adapter.evaluate(point)
        if trial_value <= value + options.armijo_constant * step * slope and trial_value < math.inf:
            return LineSearchResult(step, trial_value, None, point)
        step *= options.backtrack_factor
    return LineSearchResult(step, value, TerminationReason.LINE_SEARCH_FAILURE)


@dataclass
class LBFGS:
    """L-BFGS minimizer.

    ``max_iterations`` of 0 means no cap.  ``min_gradient_norm`` is tested
    with the max-abs norm; ``min_objective_improvement`` is relative to
    max(1, |f|).  Needs evaluate and gradient.  A fused
    evaluate_with_gradient, when present, is called once, at the starting
    point: each line-search trial then calls evaluate, and each accepted
    point gradient, so no rejected trial costs a gradient.

    The initial inverse Hessian, before the run's first pair and after a
    restart, is ``LbfgsMemory``'s to choose (see its H0 rule).  A rejected
    pair restarts the memory with ``clear``, which allocates nothing.  The
    line search always starts at step 1.
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
        check_options(
            ("memory_size", self.memory_size, ">= 1", int),
            ("max_iterations", self.max_iterations, ">= 0", int),
            ("min_gradient_norm", self.min_gradient_norm, ">= 0"),
            ("min_objective_improvement", self.min_objective_improvement, ">= 0"),
            ("armijo_constant", self.armijo_constant, "in (0, 1)"),
            ("backtrack_factor", self.backtrack_factor, "in (0, 1)"),
            ("max_line_search_trials", self.max_line_search_trials, ">= 1", int),
        )

    def optimize(self, objective, x0, callbacks=()):
        """Minimize ``objective`` from ``x0``; returns (parameters, result).

        ``x0`` is not modified; the run works on a copy and its dtype
        (float32 or float64) sets the precision of the whole run.
        """
        x, adapter = prepare_run(objective, x0, callbacks, self.requires, "L-BFGS")
        value, reason = np.nan, None
        with adapter:
            # Each gradient held across a gradient call is a copy: an objective
            # may return one buffer that it overwrites on every call.
            value, gradient = adapter.evaluate_with_gradient(x)
            gradient = gradient.copy()
            memory = LbfgsMemory(self.memory_size)
            reason, _ = gradient_stop(self, gradient)
            while reason is None:
                direction = two_loop_direction(memory, gradient)
                found = backtracking_line_search(adapter, x, value, gradient, direction, self)
                if found.failure is not None:
                    reason = found.failure
                    break
                s = direction if found.step == 1.0 else found.step * direction
                new_gradient = adapter.gradient(found.point).copy()
                x = found.point
                if not memory.push(s, new_gradient - gradient):
                    # A rejected pair means the local quadratic model broke down
                    # (negative curvature along the step).  Steering by the old
                    # history stalls in that situation, so restart it; its
                    # newest curvature scale gamma stays.
                    memory.clear()
                reason, norm = gradient_stop(self, new_gradient)
                adapter.step_taken(found.value, norm=norm)
                reason = reason or progress_stop(self, value, found.value, adapter.iterations)
                value, gradient = found.value, new_gradient
        return x, finish_run(adapter, value, reason)
