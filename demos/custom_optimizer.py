"""
Writing your own optimizer
==========================

The bundled optimizers are built from a small public kit, and a new one
needs nothing else to keep the same promises: the capability check before
the first call, exact call counts, an untouched ``x0`` whose dtype sets the
run, no objective call after a callback's TERMINATE, and every bad option
refused with a ``Diagnostic`` when the optimizer is built.

``check_options`` is the option rule: each row names an option, its value
and its admitted range, with ``int`` for a count.  ``prepare_run`` checks
the objective and opens the run; it returns the parameters and the
adapter, the run's one handle.  The loop runs inside ``with adapter:``,
calls the objective through the adapter and reports each completed step
with ``adapter.step_taken``, which counts it in ``adapter.iterations`` and
builds no event when no callback listens, so the loop keeps no step
counter of its own.  The stop rules read that count: ``cap_stop`` is the
iteration cap (0 means none), ``steps_within_cap`` the steps left under
it, ``gradient_stop`` the gradient-norm test and ``progress_stop`` the
improvement test.  Once a callback has asked to stop, the adapter refuses
the next objective call and the block ends there.
``finish_run(adapter, final_objective, termination)`` builds the result,
its ``iterations`` read from the adapter; after a stop request it says
CALLBACK_REQUESTED, whatever reason the loop had reached.

The example is compass search (Kolda, Lewis & Torczon, SIAM Review 2003):
try x +- step along each axis, move to the first point that improves, and
halve the step when none does.  Like simulated annealing it needs only
``evaluate``.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from numopt import EarlyStopping, ObjectiveCapabilities, TerminationReason, cap_stop
from numopt import check_options, finish_run, prepare_run
from numopt.problems import generate_noisy_linear


@dataclass
class CompassSearch:
    """Pattern search along the coordinate axes.  Each iteration is one
    poll; the run stops once the step falls below ``min_step``, or after
    ``max_iterations`` polls (0 means no cap)."""

    step: float = 0.5
    min_step: float = 1e-8
    max_iterations: int = 10000

    requires = ObjectiveCapabilities(evaluate=True)

    def __post_init__(self):
        check_options(
            ("step", self.step, "> 0"),
            ("min_step", self.min_step, "> 0"),
            ("max_iterations", self.max_iterations, ">= 0", int),
        )

    def optimize(self, objective, x0, callbacks=()):
        x, adapter = prepare_run(objective, x0, callbacks, self.requires, "compass search")
        value, step, reason = np.nan, self.step, None
        with adapter:
            value = adapter.evaluate(x)
            while reason is None:
                for j, sign in product(range(x.size), (1.0, -1.0)):
                    trial = x.copy()
                    trial.flat[j] += sign * step
                    trial_value = adapter.evaluate(trial)
                    if trial_value < value:  # a NaN trial never improves
                        x, value = trial, trial_value
                        break
                else:
                    step /= 2.0
                adapter.step_taken(value)
                if step < self.min_step:
                    reason = TerminationReason.STEP_SIZE_UNDERFLOW
                else:
                    reason = cap_stop(self, adapter.iterations)
        return x, finish_run(adapter, value, reason)


if __name__ == "__main__":
    # Least absolute deviations: robust regression with no gradient at
    # any of its kinks, so the bundled gradient methods cannot take it.
    X, y, truth = generate_noisy_linear(d=3, n=200, noise_scale=1.0, seed=0)

    class AbsoluteDeviations:
        def evaluate(self, phi):
            return float(np.sum(np.abs(X.T @ phi - y)))

    x, result = CompassSearch().optimize(AbsoluteDeviations(), np.zeros(3))
    print("coefficients found:", x.round(3))
    print("data generated by: ", truth.ravel().round(3))
    print("objective:         ", result.final_objective)
    print("polls:             ", result.iterations)
    print("evaluations:       ", result.evaluate_calls)
    print("stopped by:        ", result.termination.value)

    # A stock callback stops it like any bundled optimizer: EarlyStopping
    # returns TERMINATE, the adapter refuses the next call, and the result
    # reports the last completed poll.
    stopper = EarlyStopping(patience=3, min_delta=1e-2)
    x, result = CompassSearch().optimize(AbsoluteDeviations(), np.zeros(3), [stopper])
    print()
    print("with EarlyStopping(patience=3, min_delta=1e-2):")
    print("objective:         ", result.final_objective)
    print("polls:             ", result.iterations)
    print("evaluations:       ", result.evaluate_calls)
    print("stopped by:        ", result.termination.value)
