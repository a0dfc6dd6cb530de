"""Fixed-step steepest descent.

Deliberately minimal: one gradient and one objective evaluation per
iteration, no line search, no memory.  Useful as a baseline and as the
reference the batch methods are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..callbacks import StepTaken
from ..core import Diagnostic, ObjectiveCapabilities, TerminationReason
from ._common import finish_run, prepare_run, progress_stop

__all__ = ["GradientDescent"]


@dataclass
class GradientDescent:
    """Steepest descent with a constant step size.

    Stops on the max-abs gradient norm, on a small non-negative relative
    improvement, on the iteration cap (0 means none), or on callback
    request.  A step that makes the objective worse never triggers the
    improvement stop; a diverging run ends with MAX_ITERATIONS so the
    failure is not disguised as convergence.
    """

    step_size: float = 0.01
    max_iterations: int = 10000
    min_gradient_norm: float = 1e-6
    min_objective_improvement: float = 1e-10

    requires = ObjectiveCapabilities(evaluate=True, gradient=True)

    def __post_init__(self):
        if self.step_size <= 0:
            raise Diagnostic(f"step_size must be > 0, got {self.step_size}")
        if self.max_iterations < 0:
            raise Diagnostic(f"max_iterations must be >= 0, got {self.max_iterations}")
        if self.min_gradient_norm < 0 or self.min_objective_improvement < 0:
            raise Diagnostic("tolerances must be >= 0")

    def optimize(self, objective, x0, callbacks=()):
        """Minimize ``objective`` from ``x0``; returns (parameters, result)."""
        x, adapter, events, started = prepare_run(
            objective, x0, callbacks, self.requires, "gradient descent"
        )
        value, iteration, reason = np.nan, 0, None
        with adapter:
            value = adapter.evaluate(x)
            while reason is None:
                gradient = adapter.gradient(x)
                gradient_norm = float(np.abs(gradient).max())
                if gradient_norm <= self.min_gradient_norm:
                    reason = TerminationReason.GRADIENT_NORM_TOLERANCE
                    break
                new_x = x - self.step_size * gradient
                new_value = adapter.evaluate(new_x)
                x, iteration = new_x, iteration + 1
                if events:
                    events.dispatch(
                        StepTaken(
                            iteration=iteration, objective=new_value, gradient_norm=gradient_norm
                        )
                    )
                reason = progress_stop(self, value, new_value, iteration)
                value = new_value
        return x, finish_run(adapter, started, value, iteration, reason)
