"""Observation and control hooks for optimizer runs.

A callback is any callable taking one event object and returning a
``CallbackDecision`` (or None, which means continue).  Optimizers fire events
at fixed points; returning ``TERMINATE`` from any callback stops the run
before the next objective call and the result reports
``CALLBACK_REQUESTED``, also when the step it stopped on had reached
another stop, such as the iteration cap.

Events are small frozen dataclasses so callbacks can match on type:

    BeginOptimization / EndOptimization   once per run
    EvaluateCalled(value)                 every objective evaluation
    GradientCalled(norm)                  every gradient evaluation (max-abs norm)
    StepTaken(iteration, objective, gradient_norm)   after each accepted step
    BeginEpoch(epoch) / EndEpoch(epoch, mean_objective)   batch methods only

``Diagnostic`` and the one option rule, ``_check_options``, live here too,
below ``core``, which imports this module, so that every module checks its
options with one function; ``numopt.core.Diagnostic`` is the public name.
"""

from __future__ import annotations

import operator
import sys
import time
import warnings
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "CallbackDecision",
    "BeginOptimization",
    "EndOptimization",
    "EvaluateCalled",
    "GradientCalled",
    "StepTaken",
    "BeginEpoch",
    "EndEpoch",
    "CallbackList",
    "EarlyStopping",
    "ProgressPrinter",
    "parse_progress_line",
    "TraceRecorder",
    "TimeLimit",
]


class Diagnostic(ValueError):
    """Contract violation or refused option, with enough context to fix it.

    Raised instead of letting an AttributeError or a shape error surface from
    deep inside an optimizer loop.  The message names the offending method,
    argument, option or requirement.  Every option follows one rule
    (``_check_options``): its admitted range is tested first, so NaN gets
    the range's message; a value the range cannot compare, such as a string,
    is refused, never parsed; and a count must then be an integer.  It is a
    ``ValueError``, so a refused option is one exception wherever it was
    given: to an optimizer, an update policy, a callback or a data helper.
    """

    # The public name: numopt.core re-exports it, and tracebacks show it so.
    __module__ = "numopt.core"


# Each admitted range, written as its refusal shows it.
_ADMITTED = {
    "> 0": lambda value: value > 0,
    ">= 0": lambda value: value >= 0,
    ">= 1": lambda value: value >= 1,
    "in (0, 1)": lambda value: 0 < value < 1,
    "in [0, 1)": lambda value: 0 <= value < 1,
}


def _check_options(*options, unset=()):
    """Refuse the first of ``options`` outside its admitted range with a Diagnostic.

    Each option is a row (name, value, admitted) for a real and (name, value,
    admitted, int) for a count: the name its message shows, the value given,
    and its range as a key of ``_ADMITTED``.  The range test runs first,
    written so that NaN, which compares false with everything, gets the
    range's message.  A value the range cannot compare, a string or None, is
    refused with a message naming its type, never parsed.  A count must then
    be an integer by ``operator.index``: NumPy integers pass, and a float is
    refused, not truncated.  A name in ``unset`` may be None, which means
    chosen at run time.
    """
    for name, value, admitted, *counts in options:
        if value is None and name in unset:
            continue
        try:
            if not _ADMITTED[admitted](value):
                raise Diagnostic(f"{name} must be {admitted}, got {value}")
            if counts:
                operator.index(value)
        except TypeError:
            kind = "an integer" if counts else "a number"
            got = f"{value!r} of type {type(value).__name__}"
            raise Diagnostic(f"{name} must be {kind}, got {got}") from None


class CallbackDecision(Enum):
    CONTINUE = "continue"
    TERMINATE = "terminate"


@dataclass(frozen=True)
class BeginOptimization:
    pass


@dataclass(frozen=True)
class EndOptimization:
    pass


@dataclass(frozen=True)
class EvaluateCalled:
    value: float


@dataclass(frozen=True)
class GradientCalled:
    norm: float


@dataclass(frozen=True)
class StepTaken:
    """One completed step; ``iteration`` counts steps from 1.

    Which point each field describes depends on the optimizer:

    - GradientDescent: ``objective`` after the step, ``gradient_norm`` at
      the point the step left (the gradient the step was taken along);
    - LBFGS: both at the accepted point;
    - SGD: both at the window's pre-step iterate, ``objective`` per part
      and ``gradient_norm`` of the window-averaged gradient;
    - SimulatedAnnealing: ``objective`` is the current value after the
      move, accepted or not, and ``gradient_norm`` is None.

    Norms are max-abs norms.
    """

    iteration: int
    objective: float
    gradient_norm: float | None = None


@dataclass(frozen=True)
class BeginEpoch:
    epoch: int


@dataclass(frozen=True)
class EndEpoch:
    epoch: int
    mean_objective: float


class CallbackList:
    """The callbacks of one run plus a sticky termination flag.

    Once any dispatch sees TERMINATE, ``terminate_requested`` stays True
    and the run's ``ObjectiveAdapter`` refuses every further objective call.
    Empty lists are free: the adapter builds an event only when
    ``callbacks`` is non-empty, and ``bool(cbs)`` is False for an empty list.
    """

    def __init__(self, callbacks=()):
        self.callbacks = list(callbacks)
        self.terminate_requested = False

    def __bool__(self):
        return bool(self.callbacks)

    def dispatch(self, event):
        """Send ``event`` to every callback; returns ``terminate_requested``.

        All callbacks see the event even after one requests termination, so
        loggers do not go blind when a stopper fires.  A callback that raises
        is reported as a warning and treated as CONTINUE; observation must
        not kill the run.
        """
        for callback in self.callbacks:
            try:
                answer = callback(event)
            except Exception as error:  # noqa: BLE001 - isolate misbehaving observers
                warnings.warn(
                    f"callback {callback!r} raised {type(error).__name__}: {error}; continuing",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            if answer == CallbackDecision.TERMINATE:
                self.terminate_requested = True
        return self.terminate_requested


class EarlyStopping:
    """Terminate after ``patience`` steps without sufficient improvement.

    Watches StepTaken (and EndEpoch, using the epoch mean) and keeps the best
    objective seen; a step improving by less than ``min_delta`` counts
    against the patience budget.  BeginOptimization starts both afresh, so
    one stopper can serve several runs.
    """

    def __init__(self, patience=10, min_delta=0.0):
        _check_options(("patience", patience, ">= 1", int), ("min_delta", min_delta, ">= 0"))
        self.patience = patience
        self.min_delta = min_delta
        self.best = None
        self.stale_steps = 0

    def __call__(self, event):
        if isinstance(event, BeginOptimization):
            self.best, self.stale_steps = None, 0
            return CallbackDecision.CONTINUE
        if isinstance(event, StepTaken):
            value = event.objective
        elif isinstance(event, EndEpoch):
            value = event.mean_objective
        else:
            return CallbackDecision.CONTINUE
        if self.best is None or value < self.best - self.min_delta:
            self.best = value
            self.stale_steps = 0
        else:
            self.stale_steps += 1
            if self.stale_steps >= self.patience:
                return CallbackDecision.TERMINATE
        return CallbackDecision.CONTINUE


class ProgressPrinter:
    """Write one machine-readable line per accepted step.

    Format: ``iter=<k> f=<objective>`` with `` g=<gradient_norm>`` appended
    when the optimizer supplied one.  Values use repr precision so runs can
    be compared exactly.  ``period`` thins the output to every n-th step;
    write failures are warnings, never run failures.
    """

    def __init__(self, stream=None, period=1):
        _check_options(("period", period, ">= 1", int))
        self.stream = stream
        self.period = period

    def __call__(self, event):
        if isinstance(event, StepTaken) and event.iteration % self.period == 0:
            line = f"iter={event.iteration} f={event.objective!r}"
            if event.gradient_norm is not None:
                line += f" g={event.gradient_norm!r}"
            try:
                stream = self.stream if self.stream is not None else sys.stdout
                stream.write(line + "\n")
            except Exception as error:  # noqa: BLE001 - printing must not stop a run
                warnings.warn(
                    f"progress line not written: {error}", RuntimeWarning, stacklevel=2
                )
        return CallbackDecision.CONTINUE


def parse_progress_line(line):
    """Inverse of ProgressPrinter's format; returns (iteration, objective, gradient_norm).

    ``gradient_norm`` is None when the line has no ``g=`` field.  Raises
    ValueError on anything that is not a progress line.
    """
    try:
        fields = dict(part.split("=", 1) for part in line.split())
        norm = float(fields["g"]) if "g" in fields else None
        return int(fields["iter"]), float(fields["f"]), norm
    except (KeyError, ValueError) as error:
        raise ValueError(f"not a progress line: {line!r}") from error


class TraceRecorder:
    """Collect (iteration, objective) pairs from StepTaken events.

    Each run starts a new ``trace`` list at BeginOptimization, so a reused
    recorder holds the latest run's pairs and a list read after a run keeps
    that run's pairs.
    """

    def __init__(self):
        self.trace = []

    def __call__(self, event):
        if isinstance(event, StepTaken):
            self.trace.append((event.iteration, event.objective))
        elif isinstance(event, BeginOptimization):
            self.trace = []
        return CallbackDecision.CONTINUE


class TimeLimit:
    """Terminate once wall-clock time since BeginOptimization exceeds the limit.

    Uses a monotonic clock; checked at every event, so the overshoot is at
    most one objective call plus one step.
    """

    def __init__(self, limit_seconds):
        _check_options(("limit_seconds", limit_seconds, "> 0"))
        self.limit_seconds = limit_seconds
        self.started = None

    def __call__(self, event):
        if isinstance(event, BeginOptimization) or self.started is None:
            self.started = time.monotonic()
            return CallbackDecision.CONTINUE
        if time.monotonic() - self.started > self.limit_seconds:
            return CallbackDecision.TERMINATE
        return CallbackDecision.CONTINUE
