"""Fixed-step steepest descent.

Deliberately minimal: one gradient and one objective evaluation per
iteration, no line search, no memory.  Useful as a baseline and as the
reference the batch methods are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import ObjectiveCapabilities, check_options
from ._common import finish_run, gradient_stop, prepare_run, progress_stop

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
        check_options(
            ("step_size", self.step_size, "> 0"),
            ("max_iterations", self.max_iterations, ">= 0", int),
            ("min_gradient_norm", self.min_gradient_norm, ">= 0"),
            ("min_objective_improvement", self.min_objective_improvement, ">= 0"),
        )

    def optimize(self, objective, x0, callbacks=()):
        """Minimize ``objective`` from ``x0``; returns (parameters, result)."""
        x, adapter = prepare_run(objective, x0, callbacks, self.requires, "gradient descent")
        value, reason = np.nan, None
        with adapter:
            value = adapter.evaluate(x)
            while reason is None:
                gradient = adapter.gradient(x)
                reason, norm = gradient_stop(self, gradient)
                if reason is not None:
                    break
                new_x = x - self.step_size * gradient
                new_value = adapter.evaluate(new_x)
                x = new_x
                adapter.step_taken(new_value, norm=norm)
                reason = progress_stop(self, value, new_value, adapter.iterations)
                value = new_value
        return x, finish_run(adapter, value, reason)
