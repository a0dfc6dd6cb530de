"""Run setup, teardown and the stop rules: the parts every optimizer is built from.

``prepare_run``, ``finish_run`` and ``progress_stop`` are public.  The
iteration cap (``_cap_stop``) and the gradient-norm stop
(``_gradient_stop``) are stated here once and read by every bundled
optimizer; the norm itself is ``core._max_abs_norm``.
"""

from __future__ import annotations

import time

from ..callbacks import BeginOptimization, CallbackList, EndOptimization
from ..core import (
    ObjectiveAdapter,
    OptimizationResult,
    TerminationReason,
    _max_abs_norm,
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
    return _cap_stop(options, iteration)


def _cap_stop(options, iteration):
    """MAX_ITERATIONS once ``iteration`` reaches ``options.max_iterations``
    (0 means no cap), else None."""
    capped = options.max_iterations and iteration >= options.max_iterations
    return TerminationReason.MAX_ITERATIONS if capped else None


def _gradient_stop(options, gradient):
    """``gradient``'s max-abs norm, and GRADIENT_NORM_TOLERANCE when that is
    at most ``options.min_gradient_norm`` (None otherwise)."""
    norm = _max_abs_norm(gradient)
    converged = norm <= options.min_gradient_norm
    return norm, TerminationReason.GRADIENT_NORM_TOLERANCE if converged else None


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
