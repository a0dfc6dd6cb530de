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
``ObjectiveCapabilities.of`` reports what an object provides, one flag per
method, each flag named as its method is, so a requirement such as
``SGD.requires`` names the methods an optimizer calls.  Two inference
rules, stated once in ``_with_inference``, say what can be built from that:
the full value from the parts, and the fused call from evaluate and
gradient.  A run infers once: ``ObjectiveAdapter`` keeps the result as its
``available`` record and binds each call from it, to the objective's own
method or its inferred form.  One missing-method rule, ``_shortfall``,
turns a shortfall against such a record into a ``Diagnostic`` that names
the missing methods; it reads the adapter's record when a run checks an
optimizer's ``requires`` and when a call is refused, and
``check_requirements``, the public probe, infers and then applies it.

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
or a refused option, and the one option rule, ``check_options``, which
every module reads from here.  That rule is public: with ``prepare_run``,
``finish_run`` and the stop rules ``progress_stop``, ``cap_stop``,
``steps_within_cap`` and ``gradient_stop`` of ``numopt.optimizers``, it is
the kit a new optimizer is built from, as every bundled one is.
"""

from __future__ import annotations

import operator
import time
import warnings
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import partial

import numpy as np

__all__ = [
    "Diagnostic",
    "ObjectiveCapabilities",
    "ObjectiveAdapter",
    "OptimizationResult",
    "TerminationReason",
    "check_options",
    "check_requirements",
    "finite_difference_gradient",
    "as_parameters",
]


class Diagnostic(ValueError):
    """Contract violation or refused option, with enough context to fix it.

    Raised instead of letting an AttributeError or a shape error surface from
    deep inside an optimizer loop.  The message names the offending method,
    argument, option or requirement.  Every option follows one rule
    (``check_options``, which a new optimizer calls too, beside the rest of
    the public kit: ``prepare_run``, ``finish_run``, ``progress_stop``,
    ``cap_stop``, ``steps_within_cap`` and ``gradient_stop``): a bool is a
    flag and nothing else; the admitted range is tested next, so NaN gets
    the range's message; a value the range cannot compare, such as a
    string, is refused, never parsed; and a count must then be an integer.
    It is a ``ValueError``, so a refused option is one exception wherever
    it was given: to an optimizer, an update policy, a callback or a data
    helper.  It is defined here, in the bottom layer, so every numopt
    module raises this one class.
    """


# Each admitted range, written as its refusal shows it; a flag's is _FLAG,
# which its type test decides alone.
_FLAG = "True or False"
_ADMITTED = {
    "> 0": lambda value: value > 0,
    ">= 0": lambda value: value >= 0,
    ">= 1": lambda value: value >= 1,
    "in (0, 1)": lambda value: 0 < value < 1,
    "in [0, 1)": lambda value: 0 <= value < 1,
    _FLAG: lambda value: True,
}
_BOOLS = (bool, np.bool_)


def check_options(*options, unset=()):
    """Refuse the first of ``options`` outside its admitted range with a Diagnostic.

    Each option is a row (name, value, admitted) for a real and (name, value,
    admitted, int) for a count: the name its message shows, the value given,
    and its range as a key of ``_ADMITTED``.  Each row's type is tested
    once, first: a flag, whose range is ``"True or False"``, takes a bool,
    NumPy's included, and nothing else, and every other row refuses a bool,
    so 1 is never read as a truth value nor True as a number.  The range
    test comes next, written so that NaN, which compares false with
    everything, gets the range's message.  A value the range cannot
    compare, a string or None, is refused with a message naming its type,
    never parsed.  A count must then be an integer by ``operator.index``:
    NumPy integers pass, and a float is refused, not truncated.  A name in
    ``unset`` may be None, which means chosen at run time.
    """
    for name, value, admitted, *counts in options:
        if value is None and name in unset:
            continue
        try:
            if (type(value) in _BOOLS) != (admitted == _FLAG):
                raise TypeError
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


# The three events an observed run builds per objective call or step write
# their fields into __dict__ themselves: the generated frozen __init__ pays one
# object.__setattr__ per field, on every objective call of an observed run.
# A callback reads fields a little slower from a written __dict__, but a
# StepTaken built, read as TraceRecorder reads it and freed took 0.58 us,
# against 0.88 us generated (2-CPU Xeon, lower in 25 of 25 rounds).  Field
# order, defaults, eq, hash, repr, replace and the refusal to assign are kept.
@dataclass(frozen=True, init=False)
class EvaluateCalled:
    value: float

    def __init__(self, value):
        self.__dict__["value"] = value


@dataclass(frozen=True, init=False)
class GradientCalled:
    norm: float

    def __init__(self, norm):
        self.__dict__["norm"] = norm


@dataclass(frozen=True, init=False)
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

    def __init__(self, iteration, objective, gradient_norm=None):
        fields = self.__dict__
        fields["iteration"] = iteration
        fields["objective"] = objective
        fields["gradient_norm"] = gradient_norm


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


@dataclass(frozen=True)
class ObjectiveCapabilities:
    """What an objective object provides directly: each flag is the name of
    the contract method it stands for, True when the object has it callable.

    ``num_parts`` is only meaningful when one of the part-wise flags is set.
    """

    evaluate: bool = False
    gradient: bool = False
    evaluate_with_gradient: bool = False
    evaluate_parts: bool = False
    gradient_parts: bool = False
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
        provided = {method: callable(getattr(objective, method, None)) for method in _CONTRACT}
        num_parts = None
        if provided["evaluate_parts"] or provided["gradient_parts"]:
            raw = getattr(objective, "num_parts", None)
            if raw is None:
                raise Diagnostic(f"{name} provides part-wise methods but no num_parts")
            check_options((f"{name}.num_parts", raw, ">= 1", int))
            num_parts = operator.index(raw)
        return cls(num_parts=num_parts, **provided)


# The contract's methods, in diagnostic order: every flag but ``num_parts``.
_CONTRACT = tuple(f.name for f in fields(ObjectiveCapabilities) if f.name != "num_parts")


def _capabilities(name, caps):
    """``caps``, the argument ``name`` of a requirement check, when it is an
    ``ObjectiveCapabilities``; else a Diagnostic is raised naming the argument
    and its type, so that an objective, an optimizer or a dict passed in its
    place is refused before any of its attributes is read."""
    if isinstance(caps, ObjectiveCapabilities):
        return caps
    raise Diagnostic(f"{name} is a {type(caps).__name__}, not ObjectiveCapabilities.of(objective)")


def _with_inference(caps):
    """``caps`` plus what the two inference rules build: the full value from
    the parts, and the fused call from evaluate and gradient.  A run reads
    the rules here once, when its ``ObjectiveAdapter`` is built, and
    ``check_requirements`` once per probe."""
    evaluate = caps.evaluate or caps.evaluate_parts
    fused = caps.evaluate_with_gradient or (evaluate and caps.gradient)
    return replace(caps, evaluate=evaluate, evaluate_with_gradient=fused)


def _shortfall(available, required, consumer):
    """The one missing-method rule: None when ``available`` has every flag set
    in ``required``, else a Diagnostic naming each missing method and
    ``consumer``.  ``available`` already holds what inference builds, and
    ``required`` must be an ``ObjectiveCapabilities`` (``_capabilities``)."""
    _capabilities("required", required)
    missing = [
        method + (" (with num_parts)" if method.endswith("_parts") else "")
        for method in _CONTRACT
        if getattr(required, method) and not getattr(available, method)
    ]
    if not missing:
        return None
    return Diagnostic(
        f"{consumer} requires {', '.join(missing)}, which the objective neither "
        f"provides nor allows to be inferred"
    )


def check_requirements(provided, required, consumer="optimizer"):
    """Return None when every required capability is available, else a Diagnostic.

    ``provided`` and ``required`` are ``ObjectiveCapabilities``, and anything
    else raises a Diagnostic; a True flag in ``required`` means
    ``consumer`` will call the method of that name.  Requirements are
    satisfiable either directly or through the two inference rules (full value
    from parts, fused call from separate evaluate and gradient).  The returned
    Diagnostic names each missing method and the consumer that wants it; it is
    returned, not raised, so callers can probe without try/except.  This is
    the public probe: it infers from ``provided``, then applies the rule that
    a run applies to its adapter's ``available`` record (``_shortfall``).
    """
    return _shortfall(_with_inference(_capabilities("provided", provided)), required, consumer)


class _StopRequested(Exception):
    """The adapter's refusal of an objective call after a TERMINATE."""


class ObjectiveAdapter(CallbackList):
    """Uniform front for an objective, and the one object of one run:
    inference, call and step counting, admission of what the objective
    returns, and the run's callbacks.

    Optimizers only ever talk to the adapter.  ``__init__`` first checks
    ``callbacks`` as ``CallbackList`` does, whose ``callbacks``,
    ``terminate_requested`` and ``dispatch`` the adapter holds itself; then
    it infers once, keeping ``available``: what the objective provides plus
    what the two inference rules build, ``num_parts`` included.  It binds
    each call once from that record: to the objective's own method, to its
    inferred form, or to a refusal that names what is missing by the rule
    ``prepare_run`` applies to the same record (``_shortfall``), and takes
    the run's start time, ``started``.  ``iterations`` starts at 0 and
    counts the completed steps that the loop reports with ``step_taken``,
    whether or not a callback listens.  Each objective call is counted and reported;
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
        caps = ObjectiveCapabilities.of(objective)
        self.available = available = _with_inference(caps)
        self.evaluate_calls = 0
        self.gradient_calls = 0
        self.iterations = 0
        self.started = time.perf_counter()
        # Plain functions, called with the adapter: bound methods stored on
        # it would make each adapter a reference cycle that outlives its run.
        cls = type(self)

        def bind(method, own, inferred=None):
            if getattr(caps, method):
                return own
            return inferred if getattr(available, method) else partial(cls._refuse, method=method)

        # The inferred full value is one window spanning all parts.
        summed = partial(cls._own_evaluate_parts, first=0, count=caps.num_parts)
        self._evaluate = bind("evaluate", cls._own_evaluate, summed)
        self._gradient = bind("gradient", cls._own_gradient)
        self._evaluate_with_gradient = bind("evaluate_with_gradient", cls._own_fused, cls._paired)
        self._evaluate_parts = bind("evaluate_parts", cls._own_evaluate_parts)
        self._gradient_parts = bind("gradient_parts", cls._own_gradient_parts)

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
        n = self.available.num_parts
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

    def _refuse(self, *args, method):
        consumer = f"the adapter of {type(self.objective).__name__}"
        raise _shortfall(self.available, ObjectiveCapabilities(**{method: True}), consumer)

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
    evaluations.  ``x`` is admitted by the rule for parameters and data
    (``_as_float_array``), and an empty or non-finite one is refused with a
    Diagnostic before any step is chosen or any call is made.
    """
    adapter = (
        objective if isinstance(objective, ObjectiveAdapter) else ObjectiveAdapter(objective)
    )
    x = _as_float_array(x, "x")
    if x.size == 0 or not np.isfinite(x).all():
        got = f"shape {x.shape}, NaN or infinite at {np.count_nonzero(~np.isfinite(x))} of {x.size}"
        raise Diagnostic(f"x must be non-empty and finite, got {got} entries")
    if step is None:
        step = 1e-6 * (1.0 + float(np.abs(x).max()))
    check_options(("finite difference step", step, "> 0"))
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
