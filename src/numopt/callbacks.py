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

The events, ``CallbackDecision`` and ``CallbackList`` are defined in
``numopt.core``, beside the adapter that sends them, and exported here.
This module adds the stock callbacks.
"""

from __future__ import annotations

import sys
import time
import warnings

from .core import BeginEpoch, BeginOptimization, CallbackDecision, CallbackList, EndEpoch
from .core import EndOptimization, EvaluateCalled, GradientCalled, StepTaken, check_options
from .core import _CONTINUE, _TERMINATE

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


class EarlyStopping:
    """Terminate after ``patience`` steps without sufficient improvement.

    Watches StepTaken (and EndEpoch, using the epoch mean) and keeps the best
    objective seen; a step improving by less than ``min_delta`` counts
    against the patience budget.  BeginOptimization starts both afresh, so
    one stopper can serve several runs.
    """

    def __init__(self, patience=10, min_delta=0.0):
        check_options(("patience", patience, ">= 1", int), ("min_delta", min_delta, ">= 0"))
        self.patience = patience
        self.min_delta = min_delta
        self.best = None
        self.stale_steps = 0

    def __call__(self, event):
        if isinstance(event, BeginOptimization):
            self.best, self.stale_steps = None, 0
            return _CONTINUE
        if isinstance(event, StepTaken):
            value = event.objective
        elif isinstance(event, EndEpoch):
            value = event.mean_objective
        else:
            return _CONTINUE
        if self.best is None or value < self.best - self.min_delta:
            self.best = value
            self.stale_steps = 0
        else:
            self.stale_steps += 1
            if self.stale_steps >= self.patience:
                return _TERMINATE
        return _CONTINUE


class ProgressPrinter:
    """Write one machine-readable line per accepted step.

    Format: ``iter=<k> f=<objective>`` with `` g=<gradient_norm>`` appended
    when the optimizer supplied one.  Values use repr precision so runs can
    be compared exactly.  ``period`` thins the output to every n-th step;
    write failures are warnings, never run failures.
    """

    def __init__(self, stream=None, period=1):
        check_options(("period", period, ">= 1", int))
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
        return _CONTINUE


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
        return _CONTINUE


class TimeLimit:
    """Terminate once wall-clock time since BeginOptimization exceeds the limit.

    Uses a monotonic clock; checked at every event, so the overshoot is at
    most one objective call plus one step.
    """

    def __init__(self, limit_seconds):
        check_options(("limit_seconds", limit_seconds, "> 0"))
        self.limit_seconds = limit_seconds
        self.started = None

    def __call__(self, event):
        if isinstance(event, BeginOptimization) or self.started is None:
            self.started = time.monotonic()
            return _CONTINUE
        if time.monotonic() - self.started > self.limit_seconds:
            return _TERMINATE
        return _CONTINUE
