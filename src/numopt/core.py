"""Objective contracts, capability inference, and shared optimizer plumbing.

An objective is any object exposing some subset of:

    evaluate(x) -> float
    gradient(x) -> ndarray              # same shape as x
    evaluate_with_gradient(x) -> (float, ndarray)
    num_parts -> int                    # separable objectives only
    evaluate_parts(x, first, count) -> float
    gradient_parts(x, first, count) -> ndarray

Nothing is registered or subclassed; presence of the methods is the contract.
``ObjectiveCapabilities.of`` reports what an object provides.  Two inference
rules, stated once in ``_with_inference``, say what can be built from that:
the full value from the parts, and the fused call from evaluate and
gradient.  ``check_requirements`` turns a shortfall into a ``Diagnostic``
that names the missing methods, and ``ObjectiveAdapter`` binds each call to
the objective's own method or its inferred form.

The adapter is also the stop gate: once a callback has returned TERMINATE,
it refuses every further objective call, and ``with adapter:`` ends the
optimizer's loop at its last completed step with ``CALLBACK_REQUESTED``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial

import numpy as np

from .callbacks import CallbackList, EvaluateCalled, GradientCalled

__all__ = [
    "Diagnostic",
    "ObjectiveCapabilities",
    "ObjectiveAdapter",
    "OptimizationResult",
    "TerminationReason",
    "check_requirements",
    "finite_difference_gradient",
    "as_parameters",
]


class Diagnostic(Exception):
    """Contract violation with enough context to fix it.

    Raised instead of letting an AttributeError or a shape error surface from
    deep inside an optimizer loop.  The message names the offending method,
    argument, or requirement.
    """


def as_parameters(x0):
    """Copy ``x0`` into a fresh parameter array an optimizer may mutate.

    Accepts 1-D vectors or 2-D (column or general) matrices.  float32 and
    float64 inputs keep their precision and the whole run is carried out in
    that precision; anything else is converted to float64.  Non-finite
    entries are rejected up front because every descent rule would silently
    propagate them.
    """
    x = np.array(x0, copy=True)
    if x.ndim not in (1, 2) or x.size == 0:
        raise Diagnostic(
            f"initial parameters must be a non-empty 1-D or 2-D array, got shape {x.shape}"
        )
    if x.dtype not in (np.float32, np.float64):
        x = x.astype(np.float64)
    if not np.all(np.isfinite(x)):
        raise Diagnostic("initial parameters contain NaN or infinity")
    return x


@dataclass(frozen=True)
class ObjectiveCapabilities:
    """What an objective object provides directly.

    ``num_parts`` is only meaningful when one of the part-wise flags is set.
    """

    evaluate: bool = False
    gradient: bool = False
    evaluate_with_gradient: bool = False
    part_evaluate: bool = False
    part_gradient: bool = False
    num_parts: int | None = None

    @classmethod
    def of(cls, objective):
        """Inspect ``objective`` and report its capabilities.

        A part-wise method without a positive integer ``num_parts`` is a
        contract violation: the part count is what makes windows meaningful.
        Any integer type is accepted; a float or a string is not truncated
        or parsed but refused.
        """
        name = type(objective).__name__
        part_evaluate = callable(getattr(objective, "evaluate_parts", None))
        part_gradient = callable(getattr(objective, "gradient_parts", None))
        num_parts = None
        if part_evaluate or part_gradient:
            raw = getattr(objective, "num_parts", None)
            if raw is None:
                raise Diagnostic(f"{name} provides part-wise methods but no num_parts")
            try:
                num_parts = operator.index(raw)
            except TypeError:
                raise Diagnostic(
                    f"{name}.num_parts must be an integer, got {raw!r} "
                    f"of type {type(raw).__name__}"
                ) from None
            if num_parts < 1:
                raise Diagnostic(f"{name}.num_parts must be >= 1, got {num_parts}")
        return cls(
            evaluate=callable(getattr(objective, "evaluate", None)),
            gradient=callable(getattr(objective, "gradient", None)),
            evaluate_with_gradient=callable(
                getattr(objective, "evaluate_with_gradient", None)
            ),
            part_evaluate=part_evaluate,
            part_gradient=part_gradient,
            num_parts=num_parts,
        )


def _with_inference(caps):
    """``caps`` plus what the two inference rules build: the full value from
    the parts, and the fused call from evaluate and gradient.  Both
    ``check_requirements`` and ``ObjectiveAdapter`` read the rules here."""
    evaluate = caps.evaluate or caps.part_evaluate
    return replace(
        caps,
        evaluate=evaluate,
        evaluate_with_gradient=caps.evaluate_with_gradient or (evaluate and caps.gradient),
    )


# Requirement flags, in diagnostic order, and the method each names.
_METHOD_NAMES = {
    "evaluate": "evaluate",
    "gradient": "gradient",
    "evaluate_with_gradient": "evaluate_with_gradient",
    "part_evaluate": "evaluate_parts (with num_parts)",
    "part_gradient": "gradient_parts (with num_parts)",
}


def check_requirements(provided, required, consumer="optimizer"):
    """Return None when every required capability is available, else a Diagnostic.

    ``provided`` and ``required`` are ``ObjectiveCapabilities``; a True flag in
    ``required`` means ``consumer`` will call that method.  Requirements are
    satisfiable either directly or through the two inference rules (full value
    from parts, fused call from separate evaluate and gradient).  The returned
    Diagnostic names each missing method and the consumer that wants it; it is
    returned, not raised, so callers can probe without try/except.
    """
    available = _with_inference(provided)
    missing = [
        method_name
        for flag, method_name in _METHOD_NAMES.items()
        if getattr(required, flag) and not getattr(available, flag)
    ]
    if not missing:
        return None
    return Diagnostic(
        f"{consumer} requires {', '.join(missing)}, which the objective neither "
        f"provides nor allows to be inferred"
    )


class _StopRequested(Exception):
    """The adapter's refusal of an objective call after a TERMINATE."""


class ObjectiveAdapter:
    """Uniform front for an objective: inference, call counting, event reporting.

    Optimizers only ever talk to the adapter.  ``__init__`` binds each call
    once: to the objective's own method, to its inferred form, or to a
    ``Diagnostic`` naming what is missing.  Each objective call is counted
    and reported to ``events``, the run's ``CallbackList`` (an empty one when
    None is given); after a termination request it is refused with
    ``_StopRequested``, the only error that ``with adapter:`` swallows.
    Values become floats and gradients take the dtype of ``x``.

    Counting rules: a part-window call of ``count`` parts costs ``count``
    evaluations (or gradients); a fused call costs one of each.
    """

    def __init__(self, objective, events=None):
        self.objective = objective
        self.capabilities = caps = ObjectiveCapabilities.of(objective)
        self.events = CallbackList() if events is None else events
        self.evaluate_calls = 0
        self.gradient_calls = 0
        available = _with_inference(caps)
        # Plain functions, called with the adapter: bound methods stored on
        # it would make each adapter a reference cycle that outlives its run.
        cls = type(self)

        def bind(flag, own, inferred=None):
            if getattr(caps, flag):
                return own
            return inferred if getattr(available, flag) else partial(cls._refuse, flag=flag)

        # The inferred full value is one window spanning all parts.
        summed = partial(cls._own_evaluate_parts, first=0, count=caps.num_parts)
        self._evaluate = bind("evaluate", cls._own_evaluate, summed)
        self._gradient = bind("gradient", cls._own_gradient)
        self._evaluate_with_gradient = bind("evaluate_with_gradient", cls._own_fused, cls._paired)
        self._evaluate_parts = bind("part_evaluate", cls._own_evaluate_parts)
        self._gradient_parts = bind("part_gradient", cls._own_gradient_parts)

    def __enter__(self):
        return self

    def __exit__(self, kind, error, traceback):
        return kind is _StopRequested

    def evaluate(self, x):
        return self._evaluate(self, x)

    def gradient(self, x):
        return self._gradient(self, x)

    def evaluate_with_gradient(self, x):
        return self._evaluate_with_gradient(self, x)

    def evaluate_parts(self, x, first, count):
        return self._evaluate_parts(self, x, first, count)

    def gradient_parts(self, x, first, count):
        return self._gradient_parts(self, x, first, count)

    @property
    def num_parts(self):
        n = self.capabilities.num_parts
        if n is None:
            raise Diagnostic(f"{type(self.objective).__name__} is not separable")
        return n

    def _own_evaluate(self, x):
        self._admit(1, 0)
        return self._reported_value(self.objective.evaluate(x), "evaluate")

    def _own_gradient(self, x):
        self._admit(0, 1)
        return self._reported_gradient(self.objective.gradient(x), x, "gradient")

    def _own_fused(self, x):
        self._admit(1, 1)
        value, g = self.objective.evaluate_with_gradient(x)
        value = self._reported_value(value, "evaluate_with_gradient")
        return value, self._reported_gradient(g, x, "evaluate_with_gradient")

    def _paired(self, x):
        return self._evaluate(self, x), self._gradient(self, x)

    def _own_evaluate_parts(self, x, first, count):
        self._admit(count, 0)
        return self._reported_value(
            self.objective.evaluate_parts(x, first, count), "evaluate_parts"
        )

    def _own_gradient_parts(self, x, first, count):
        self._admit(0, count)
        return self._reported_gradient(
            self.objective.gradient_parts(x, first, count), x, "gradient_parts"
        )

    def _refuse(self, *args, flag):
        required = ObjectiveCapabilities(**{flag: True})
        consumer = f"the adapter of {type(self.objective).__name__}"
        raise check_requirements(self.capabilities, required, consumer)

    def _admit(self, evaluations, gradients):
        """Refuse the call after a termination request, else count it."""
        if self.events.terminate_requested:
            raise _StopRequested
        self.evaluate_calls += evaluations
        self.gradient_calls += gradients

    def _reported_value(self, value, method):
        try:
            value = float(value)
        except (TypeError, ValueError):
            got = f"shape {value.shape}" if hasattr(value, "shape") else type(value).__name__
            name = f"{type(self.objective).__name__}.{method}"
            raise Diagnostic(f"{name} returned a value of {got}, not a scalar") from None
        if self.events:
            self.events.dispatch(EvaluateCalled(value=value))
        return value

    def _reported_gradient(self, g, x, method):
        g = np.asarray(g, dtype=x.dtype)
        if g.shape != x.shape:
            raise Diagnostic(
                f"{type(self.objective).__name__}.{method} returned gradient of shape "
                f"{g.shape} for parameters of shape {x.shape}"
            )
        if self.events:
            self.events.dispatch(GradientCalled(norm=float(np.abs(g).max())))
        return g


def finite_difference_gradient(objective, x, step=None):
    """Central-difference gradient, one coordinate at a time.

    ``step`` defaults to 1e-6 * (1 + max|x|) so the stencil scales with the
    iterate.  Only objective evaluations are used, so this serves as an
    independent check of any analytic gradient.  Cost is 2 * x.size
    evaluations.
    """
    adapter = (
        objective if isinstance(objective, ObjectiveAdapter) else ObjectiveAdapter(objective)
    )
    x = np.asarray(x)
    if step is None:
        step = 1e-6 * (1.0 + float(np.abs(x).max()))
    if step <= 0:
        raise Diagnostic(f"finite difference step must be > 0, got {step}")
    g = np.empty_like(x, dtype=np.float64)
    for index in np.ndindex(x.shape):
        forward = x.astype(np.float64, copy=True)
        backward = x.astype(np.float64, copy=True)
        forward[index] += step
        backward[index] -= step
        g[index] = (adapter.evaluate(forward) - adapter.evaluate(backward)) / (2.0 * step)
    return g


class TerminationReason(Enum):
    """Why an optimizer stopped.  Exactly one per result."""

    GRADIENT_NORM_TOLERANCE = "gradient_norm_tolerance"
    OBJECTIVE_IMPROVEMENT_TOLERANCE = "objective_improvement_tolerance"
    MAX_ITERATIONS = "max_iterations"
    CALLBACK_REQUESTED = "callback_requested"
    LINE_SEARCH_FAILURE = "line_search_failure"
    STEP_SIZE_UNDERFLOW = "step_size_underflow"


@dataclass
class OptimizationResult:
    """Outcome of one optimize() run.

    ``final_objective`` depends on the optimizer.  For L-BFGS and gradient
    descent it is f at the returned parameters, the last accepted iterate;
    for simulated annealing, f at the returned best-ever iterate.  SGD
    reports a mean per part instead: the last completed epoch's mean, or the
    last window's value per part when the run stopped mid-epoch, each window
    valued at the iterate before its step.  For an objective that sums its
    parts that is on the scale of f / num_parts and lags the returned
    parameters; evaluate them for f itself.  ``iterations`` counts completed steps: accepted line-search steps for
    L-BFGS, parameter updates for the descent methods, proposed moves for
    annealing.  Call counters come from the adapter, so window calls count
    once per part and fused calls count one evaluation plus one gradient.
    """

    final_objective: float
    iterations: int
    termination: TerminationReason
    elapsed_seconds: float
    evaluate_calls: int
    gradient_calls: int
