"""Objective contracts, capability inference, and shared optimizer plumbing:
the bottom layer of numopt, which imports no other numopt module.

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

The adapter is the contract's one gate: a value or gradient the objective
returns is admitted by the rule that admits x0 and data
(``_as_float_array``), so it is never parsed or truncated, and anything
else is refused with a ``Diagnostic`` naming ``Type.method``.  It is also
the one object of one run: a ``CallbackList`` itself, it holds the run's
callbacks and stop request, its start time and call counts, and counts and
reports each step (``step_taken``), so no optimizer keeps a step counter.
It is the one sender of the run's events: each is built and dispatched
only when a callback listens, the run's own and SGD's epoch events through
``announce``, the three whose fields may cost something behind the same
test inline.  It is the stop gate too: once a callback has returned
TERMINATE, it refuses every further objective call, and ``with adapter:``
ends the optimizer's loop at its last completed step with
``CALLBACK_REQUESTED``.

The run's events, ``CallbackDecision`` and ``CallbackList``, whose
``dispatch`` is the one dispatcher, are defined here, beside the adapter
that sends them; ``numopt.callbacks`` exports them with the stock
callbacks.  So are ``Diagnostic``, the one exception for a broken contract
or a refused option, and the one option rule, ``_check_options``, which
every module reads from here.
"""

from __future__ import annotations

import operator
import time
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

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
    It is defined here, in the bottom layer, so every numopt module raises
    this one class.
    """


def _flag(value):
    """The range of a flag: a bool, NumPy's included.  Anything else is
    refused by its type, as a range refuses a string, so 1 or "no" is never
    read as a truth value."""
    if type(value) not in (bool, np.bool_):
        raise TypeError
    return True


# Each admitted range, written as its refusal shows it; a flag's is _FLAG.
_FLAG = "True or False"
_ADMITTED = {
    "> 0": lambda value: value > 0,
    ">= 0": lambda value: value >= 0,
    ">= 1": lambda value: value >= 1,
    "in (0, 1)": lambda value: 0 < value < 1,
    "in [0, 1)": lambda value: 0 <= value < 1,
    _FLAG: _flag,
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
    refused, not truncated.  A flag's range is ``"True or False"``, which
    refuses anything but a bool by its type.  A name in ``unset`` may be
    None, which means chosen at run time.
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
            kind = _FLAG if admitted == _FLAG else "an integer" if counts else "a number"
            got = f"{value!r} of type {type(value).__name__}"
            raise Diagnostic(f"{name} must be {kind}, got {got}") from None


class CallbackDecision(Enum):
    CONTINUE = "continue"
    TERMINATE = "terminate"


# The members bound once, for the hot paths (see CallbackList.dispatch).
_CONTINUE, _TERMINATE = CallbackDecision.CONTINUE, CallbackDecision.TERMINATE


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

    ``ObjectiveAdapter`` is a ``CallbackList``: the run's one object holds
    its callbacks itself, and no other numopt module builds one.
    ``callbacks`` is any iterable of callables, a generator included; one
    callback not in a list, None, or an item that is not callable is
    refused with a Diagnostic naming the offending type, so a run with a
    malformed argument stops before its first event.  Once any dispatch
    sees TERMINATE, ``terminate_requested`` stays True and the adapter
    refuses every further objective call.  Empty lists are free: the
    adapter builds and sends an event only when ``callbacks`` is non-empty.
    """

    def __init__(self, callbacks=()):
        try:
            self.callbacks = list(callbacks)
        except TypeError:
            kind = type(callbacks).__name__
            raise Diagnostic(f"callbacks must be an iterable of callables, got {kind}") from None
        for callback in self.callbacks:
            if not callable(callback):
                kind = type(callback).__name__
                raise Diagnostic(f"callbacks must hold callables, got an item of type {kind}")
        self.terminate_requested = False

    def dispatch(self, event):
        """Send ``event`` to every callback; returns ``terminate_requested``.

        All callbacks see the event even after one requests termination, so
        loggers do not go blind when a stopper fires.  A callback that raises
        is reported as a warning and treated as CONTINUE; observation must
        not kill the run.  Only the member ``TERMINATE`` itself stops a
        run (an ``is`` test), so a callback that returns the string
        ``"terminate"`` or 1 continues it.  The member is read from the
        module-level name ``_TERMINATE``, bound once: an observed run
        dispatches once per objective call and per step, and reading
        ``CallbackDecision.TERMINATE`` goes through the enum class's
        attribute lookup, about 0.1 us against 0.01 us for a global on
        CPython 3.11.
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
            if answer is _TERMINATE:
                self.terminate_requested = True
        return self.terminate_requested


def _as_float_array(values, name):
    """``values`` as a float32 or float64 array: the one admission rule for
    parameters, data, and the values and gradients an objective returns.

    Booleans, integers and real floats are admitted: float32 and float64
    keep their dtype and are not copied, the others become float64.
    Anything else, such as complex numbers, strings or None, is refused with
    a Diagnostic naming ``name`` and the dtype; it is never truncated or
    parsed.  A ragged nested sequence is refused with a Diagnostic too.
    """
    try:
        a = np.asarray(values)
    except ValueError:  # NumPy's refusal of nested sequences of unequal lengths
        raise Diagnostic(f"{name} must be real numbers, got a ragged sequence") from None
    if a.dtype.kind not in "biuf":
        raise Diagnostic(f"{name} must be real numbers, got dtype {a.dtype}")
    if a.dtype not in (np.float32, np.float64):
        return a.astype(np.float64)
    return a


# The types whose value float() converts exactly as the rule would.
_FLOATS = (float, np.float64, np.float32)


def as_parameters(x0):
    """Copy ``x0`` into a fresh parameter array an optimizer may mutate.

    Accepts 1-D vectors or 2-D (column or general) matrices of booleans,
    integers or real floats (``_as_float_array``).  float32 and float64
    inputs keep their precision and the whole run is carried out in that
    precision; the others are converted to float64.  Non-finite entries are
    rejected up front because every descent rule would silently propagate
    them.
    """
    x = np.array(_as_float_array(x0, "initial parameters"))
    if x.ndim not in (1, 2) or x.size == 0:
        raise Diagnostic(
            f"initial parameters must be a non-empty 1-D or 2-D array, got shape {x.shape}"
        )
    if not np.isfinite(x).all():
        raise Diagnostic("initial parameters contain NaN or infinity")
    return x


# Each capability flag and the contract method that provides it, in
# diagnostic order.
_METHODS = {
    "evaluate": "evaluate",
    "gradient": "gradient",
    "evaluate_with_gradient": "evaluate_with_gradient",
    "part_evaluate": "evaluate_parts",
    "part_gradient": "gradient_parts",
}


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
        provided = {
            flag: callable(getattr(objective, method, None)) for flag, method in _METHODS.items()
        }
        num_parts = None
        if provided["part_evaluate"] or provided["part_gradient"]:
            raw = getattr(objective, "num_parts", None)
            if raw is None:
                raise Diagnostic(f"{name} provides part-wise methods but no num_parts")
            _check_options((f"{name}.num_parts", raw, ">= 1", int))
            num_parts = operator.index(raw)
        return cls(num_parts=num_parts, **provided)


def _with_inference(caps):
    """``caps`` plus what the two inference rules build: the full value from
    the parts, and the fused call from evaluate and gradient.  Both
    ``check_requirements`` and ``ObjectiveAdapter`` read the rules here."""
    evaluate = caps.evaluate or caps.part_evaluate
    # Built field by field: dataclasses.replace costs twice as much, and a run
    # infers twice, in check_requirements and in the adapter.
    return ObjectiveCapabilities(
        evaluate=evaluate,
        gradient=caps.gradient,
        evaluate_with_gradient=caps.evaluate_with_gradient or (evaluate and caps.gradient),
        part_evaluate=caps.part_evaluate,
        part_gradient=caps.part_gradient,
        num_parts=caps.num_parts,
    )


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
        method + (" (with num_parts)" if flag.startswith("part_") else "")
        for flag, method in _METHODS.items()
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


class ObjectiveAdapter(CallbackList):
    """Uniform front for an objective, and the one object of one run:
    inference, call and step counting, admission of what the objective
    returns, and the run's callbacks.

    Optimizers only ever talk to the adapter.  ``__init__`` first checks
    ``callbacks`` as ``CallbackList`` does, whose ``callbacks``,
    ``terminate_requested`` and ``dispatch`` the adapter holds itself; then
    it binds each call once: to the objective's own method, to its inferred
    form, or to a ``Diagnostic`` naming what is missing, and takes the run's
    start time, ``started``.  ``iterations`` starts at 0 and counts the
    completed steps that the loop reports with ``step_taken``, whether or
    not a callback listens.  Each objective call is counted and reported;
    after a termination request it is refused with ``_StopRequested``, the
    only error that ``with adapter:`` swallows.

    What the objective returns passes the rule that admits x0 and data,
    ``_as_float_array``: a value must be one real number and becomes a
    float, a gradient must be real numbers of x's shape and takes x's dtype.
    Anything else, a complex number, a string, None, a ragged sequence or an
    integer beyond 64 bits, is refused with a ``Diagnostic`` naming
    ``Type.method``; it is never parsed or truncated.  Events are built only
    when a callback listens, so an unobserved run pays nothing for them: the
    optimizers send theirs through ``announce``, which makes that test.

    Counting rules: a part-window call of ``count`` parts costs ``count``
    evaluations (or gradients); a fused call costs one of each.
    """

    def __init__(self, objective, callbacks=()):
        super().__init__(callbacks)
        self.objective = objective
        self.capabilities = caps = ObjectiveCapabilities.of(objective)
        self.evaluate_calls = 0
        self.gradient_calls = 0
        self.iterations = 0
        self.started = time.perf_counter()
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

    def announce(self, kind, *fields):
        """Send the event ``kind(*fields)``, built only when a callback listens;
        returns ``terminate_requested``.  Fields are computed before the
        test, so only cheap ones are passed: an event with a costly field
        keeps its own guard, as ``step_taken`` does."""
        if self.callbacks:
            self.dispatch(kind(*fields))
        return self.terminate_requested

    def step_taken(self, objective, gradient=None, norm=None):
        """Count a completed step in ``iterations``, then send its ``StepTaken``,
        built only when a callback listens.  Its ``gradient_norm`` is ``norm``
        when given, which a loop that has tested the norm passes so that it is
        not computed twice; else ``gradient``'s max-abs norm, computed only
        for the event; else None."""
        self.iterations += 1
        if self.callbacks:
            if norm is None and gradient is not None:
                norm = _max_abs_norm(gradient)
            self.dispatch(StepTaken(self.iterations, objective, norm))

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
        returned = self.objective.evaluate_with_gradient(x)
        try:
            value, g = returned
        except (TypeError, ValueError):  # not iterable, or not of length 2
            name = f"{type(self.objective).__name__}.evaluate_with_gradient"
            kind = type(returned).__name__
            raise Diagnostic(f"{name} returned a {kind}, not a (value, gradient) pair") from None
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
        if self.terminate_requested:
            raise _StopRequested
        self.evaluate_calls += evaluations
        self.gradient_calls += gradients

    def _reported_value(self, value, method):
        # A float pays one type test; anything else passes the one rule.
        if type(value) not in _FLOATS:
            value = self._returned(value, method, "value", ())
        value = float(value)
        if self.callbacks:
            self.dispatch(EvaluateCalled(value))
        return value

    def _reported_gradient(self, g, x, method):
        # An array of x's dtype and shape pays a type, a dtype and a shape
        # test; anything else passes the one rule, then takes x's dtype.
        if type(g) is not np.ndarray or g.dtype is not x.dtype or g.shape != x.shape:
            g = self._returned(g, method, "gradient", x.shape).astype(x.dtype, copy=False)
        if self.callbacks:
            self.dispatch(GradientCalled(_max_abs_norm(g)))
        return g

    def _returned(self, returned, method, kind, shape):
        """What ``method`` returned, admitted by the rule for x0 and data
        (``_as_float_array``), so that it is never parsed or truncated, and
        refused unless it has ``shape``: () for a value, x's for a gradient."""
        name = f"{type(self.objective).__name__}.{method}"
        a = _as_float_array(returned, f"the {kind} {name} returned")
        if a.shape != shape:
            got = f"a {kind} of type {type(returned).__name__} and shape {a.shape}"
            raise Diagnostic(f"{name} returned {got}, not of shape {shape}")
        return a


def _max_abs_norm(g):
    """max |g_i|: the gradient norm every optimizer reports and stops on."""
    return float(np.abs(g).max())


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
    _check_options(("finite difference step", step, "> 0"))
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
    parameters; evaluate them for f itself.  ``iterations`` counts completed
    steps, counted by the adapter's ``step_taken``: accepted line-search
    steps for L-BFGS, parameter updates for the descent methods, proposed
    moves for annealing.  Call counters come from the adapter too, so window
    calls count once per part and fused calls count one evaluation plus one
    gradient.
    """

    final_objective: float
    iterations: int
    termination: TerminationReason
    elapsed_seconds: float
    evaluate_calls: int
    gradient_calls: int
