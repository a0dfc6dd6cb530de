"""Limited-memory quasi-Newton minimizer with Armijo backtracking.

The inverse-Hessian model is never formed; it lives implicitly in a bounded
ring of (step, gradient-change) pairs and is applied by the classic two-loop
recursion.  Cost per iteration is O(memory * dim) plus the line search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..callbacks import StepTaken
from ..core import Diagnostic, ObjectiveCapabilities, TerminationReason
from ._common import finish_run, prepare_run, progress_stop

__all__ = ["LbfgsMemory", "two_loop_direction", "backtracking_line_search", "LBFGS"]

# Pairs with y.s at or below this relative threshold carry no usable
# curvature and would poison the inverse-Hessian model.
CURVATURE_FLOOR = 1e-14
MIN_STEP = 1e-20  # the line search tries no smaller step


class LbfgsMemory:
    """Bounded history of (s, y, 1/(y.s)) curvature triples, oldest dropped first."""

    def __init__(self, memory_size=10):
        if memory_size < 1:
            raise Diagnostic(f"memory_size must be >= 1, got {memory_size}")
        self._pairs = deque(maxlen=memory_size)

    def push(self, s, y):
        """Store the pair unless its curvature is too weak to trust.

        Returns True when stored.  Rejection keeps the model positive
        definite; the rest of the history is untouched.
        """
        curvature = float(np.vdot(y, s))
        floor = CURVATURE_FLOOR * float(np.linalg.norm(s.ravel())) * float(
            np.linalg.norm(y.ravel())
        )
        if curvature <= floor:
            return False
        self._pairs.append((s, y, 1.0 / curvature))
        return True

    def clear(self):
        self._pairs.clear()

    def __len__(self):
        return len(self._pairs)

    def __iter__(self):
        return iter(self._pairs)

    @property
    def newest(self):
        return self._pairs[-1]


def two_loop_direction(memory, gradient):
    """Search direction -H.g from the stored pairs.

    With empty memory H is the identity and the direction is exactly -g.
    Otherwise the initial scaling is gamma = s.y / y.y from the newest pair,
    the standard choice that sizes the first trial step to the local
    curvature.
    """
    if len(memory) == 0:
        return -gradient
    q = gradient.copy()
    corrections = []
    for s, y, rho in reversed(list(memory)):
        alpha = rho * float(np.vdot(s, q))
        q -= alpha * y
        corrections.append(alpha)
    s_new, y_new, _ = memory.newest
    gamma = float(np.vdot(s_new, y_new)) / float(np.vdot(y_new, y_new))
    r = gamma * q
    for (s, y, rho), alpha in zip(memory, reversed(corrections)):
        beta = rho * float(np.vdot(y, r))
        r += (alpha - beta) * s
    return -r


class LineSearchResult(NamedTuple):
    step: float
    value: float
    failure: TerminationReason | None


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
    """
    slope = float(np.vdot(gradient, direction))
    if slope >= 0:
        # Not a descent direction; nothing downhill to find.
        return LineSearchResult(0.0, value, TerminationReason.LINE_SEARCH_FAILURE)
    step = 1.0
    for _ in range(max_trials):
        if step < MIN_STEP:
            return LineSearchResult(step, value, TerminationReason.STEP_SIZE_UNDERFLOW)
        trial_value = adapter.evaluate(x + step * direction)
        if trial_value <= value + armijo_constant * step * slope:
            return LineSearchResult(step, trial_value, None)
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
            if float(np.max(np.abs(gradient))) <= self.min_gradient_norm:
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
                s = found.step * direction
                new_x = x + s
                new_gradient = adapter.gradient(new_x)
                x, iteration = new_x, iteration + 1
                if not memory.push(s, new_gradient - gradient):
                    # A rejected pair means the local quadratic model broke down
                    # (negative curvature along the step).  Steering by the old
                    # history stalls in that situation, so restart it.
                    memory.clear()
                gradient_norm = float(np.max(np.abs(new_gradient)))
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
