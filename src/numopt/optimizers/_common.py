"""Run setup, teardown and the stop rules: the public kit every optimizer is built from.

Every function here is public, and with ``core.check_options``, the option
rule, it is the whole kit: a new optimizer needs no other name to keep the
bundled optimizers' promises.  A run's one object is the
``ObjectiveAdapter`` that ``prepare_run`` returns beside the parameters: it
holds the run's callbacks and its stop request itself, the loop calls the
objective and reports each step (``step_taken``, which counts it in
``adapter.iterations``) through it, and ``finish_run`` reads the stop
request, the start time, the step count and the call counts from it; no
optimizer keeps a step counter of its own, and no module but ``core``
builds a ``CallbackList``.  The run's BeginOptimization and
EndOptimization go out through ``adapter.announce``, so an unobserved run
builds neither.  The stop rules are stated here once and read by every
optimizer: the improvement stop (``progress_stop``), the iteration cap
(``cap_stop``, tested on ``adapter.iterations``, and ``steps_within_cap``,
the steps left under it) and the gradient-norm stop (``gradient_stop``),
whose norm is ``core._max_abs_norm``.  Every optimizer reads the cap once
per block of steps: SGD (a block is an epoch) and annealing (a
temperature) run the block's ``steps_within_cap`` steps and test
``cap_stop`` after it, and gradient descent and L-BFGS test it through
``progress_stop``, after each step, a block of one.  ``gradient_stop``
returns the norm it tested beside its reason, and the loop hands it to
``step_taken``, so an observed step computes it once.
"""

from __future__ import annotations

import time

from ..core import (
    BeginOptimization,
    EndOptimization,
    ObjectiveAdapter,
    OptimizationResult,
    TerminationReason,
    _max_abs_norm,
    _shortfall,
    as_parameters,
)

__all__ = [
    "prepare_run", "finish_run", "progress_stop", "cap_stop", "steps_within_cap", "gradient_stop"
]


def prepare_run(objective, x0, callbacks, requires, consumer):
    """Validate parameters and capabilities, then open the run.

    The capability check happens before any objective call, so an unusable
    pairing fails fast with a Diagnostic instead of mid-run, and so does a
    malformed ``callbacks`` argument, which the adapter checks first.  The
    check reads the record the adapter inferred when it was built
    (``adapter.available``) by the one missing-method rule, so a run infers
    once.  Returns the working parameter array and the run's adapter, which holds
    the callbacks and has already announced BeginOptimization.
    """
    x = as_parameters(x0)
    adapter = ObjectiveAdapter(objective, callbacks)
    diagnostic = _shortfall(adapter.available, requires, consumer)
    if diagnostic is not None:
        raise diagnostic
    adapter.announce(BeginOptimization)
    return x, adapter


def progress_stop(options, value, new_value, iteration):
    """The improvement and iteration-cap stop after a step from ``value`` to
    ``new_value``, or None.  ``options`` is the optimizer; a step that makes
    the objective worse never counts as converged."""
    improvement = value - new_value
    if 0 <= improvement <= options.min_objective_improvement * max(1.0, abs(value)):
        return TerminationReason.OBJECTIVE_IMPROVEMENT_TOLERANCE
    return cap_stop(options, iteration)


def cap_stop(options, iteration):
    """MAX_ITERATIONS once ``iteration`` reaches ``options.max_iterations``
    (0 means no cap), else None."""
    capped = options.max_iterations and iteration >= options.max_iterations
    return TerminationReason.MAX_ITERATIONS if capped else None


def steps_within_cap(options, iteration, steps):
    """How many of ``steps`` further steps from ``iteration`` stay within
    ``options.max_iterations`` (0 means no cap): ``steps``, or fewer near it."""
    cap = options.max_iterations
    return min(steps, cap - iteration) if cap else steps


def gradient_stop(options, gradient):
    """(reason, norm): GRADIENT_NORM_TOLERANCE when ``gradient``'s max-abs
    norm is at most ``options.min_gradient_norm``, else None, and that norm,
    which the loop hands to ``step_taken`` so that an observed step does not
    compute it again."""
    norm = _max_abs_norm(gradient)
    converged = norm <= options.min_gradient_norm
    return (TerminationReason.GRADIENT_NORM_TOLERANCE if converged else None), norm


def finish_run(adapter, final_objective, termination):
    """Close the run: EndOptimization, then the assembled result.

    Once a callback has asked to stop, the run ends with CALLBACK_REQUESTED,
    whatever ``termination`` the loop reached: None when ``with adapter:``
    ended it, or a reason decided on the very step the callback stopped.
    The request is read before EndOptimization is announced, so a TERMINATE
    answered to that event changes no result.
    """
    if adapter.terminate_requested:
        termination = TerminationReason.CALLBACK_REQUESTED
    adapter.announce(EndOptimization)
    return OptimizationResult(
        final_objective=float(final_objective),
        iterations=adapter.iterations,
        termination=termination,
        elapsed_seconds=time.perf_counter() - adapter.started,
        evaluate_calls=adapter.evaluate_calls,
        gradient_calls=adapter.gradient_calls,
    )
