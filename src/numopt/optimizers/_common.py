"""Run setup, teardown and the stopping rule: the public parts every optimizer is built from."""

from __future__ import annotations

import time

from ..callbacks import BeginOptimization, CallbackList, EndOptimization
from ..core import (
    ObjectiveAdapter,
    OptimizationResult,
    TerminationReason,
    as_parameters,
    check_requirements,
)

__all__ = ["prepare_run", "finish_run", "progress_stop"]


def prepare_run(objective, x0, callbacks, requires, consumer):
    """Validate parameters and capabilities, then open the run.

    The capability check happens before any objective call, so an unusable
    pairing fails fast with a Diagnostic instead of mid-run.  Returns the
    working parameter array, the adapter, the callback list (already sent
    BeginOptimization), and the start time.
    """
    x = as_parameters(x0)
    events = CallbackList(callbacks)
    adapter = ObjectiveAdapter(objective, events=events)
    diagnostic = check_requirements(adapter.capabilities, requires, consumer)
    if diagnostic is not None:
        raise diagnostic
    started = time.perf_counter()
    events.dispatch(BeginOptimization())
    return x, adapter, events, started


def progress_stop(options, value, new_value, iteration):
    """The improvement and iteration-cap stop after a step from ``value`` to
    ``new_value``, or None.  ``options`` is the optimizer; a step that makes
    the objective worse never counts as converged."""
    improvement = value - new_value
    if 0 <= improvement <= options.min_objective_improvement * max(1.0, abs(value)):
        return TerminationReason.OBJECTIVE_IMPROVEMENT_TOLERANCE
    if options.max_iterations and iteration >= options.max_iterations:
        return TerminationReason.MAX_ITERATIONS
    return None


def finish_run(adapter, started, final_objective, iterations, termination):
    """Close the run: EndOptimization, then the assembled result.  A None
    ``termination`` means ``with adapter:`` ended the loop: CALLBACK_REQUESTED."""
    adapter.events.dispatch(EndOptimization())
    return OptimizationResult(
        final_objective=float(final_objective),
        iterations=iterations,
        termination=termination or TerminationReason.CALLBACK_REQUESTED,
        elapsed_seconds=time.perf_counter() - started,
        evaluate_calls=adapter.evaluate_calls,
        gradient_calls=adapter.gradient_calls,
    )
