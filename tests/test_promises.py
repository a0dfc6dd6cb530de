"""README promises checked across every optimizer.

A callback's TERMINATE means no further objective calls, the reported call
counts are exact, ``x0`` is never mutated, and a float32 start gives a
float32 result, also when the objective computes in float64, and an
objective may return a gradient array that it reuses.  A start that
is not real numbers, or a ``callbacks`` argument that is not an iterable
of callables, is refused before any call; a value or gradient that is not
real numbers of the right shape is refused at the call that returned it,
and any other kind gives the run of the floats it holds; and every
termination reason and ``final_objective`` is true of the run it ends.
The compass search from ``demos/custom_optimizer.py``, built from public
names only, runs in every grid beside the bundled optimizers.
"""

import re
import runpy
import warnings
from dataclasses import astuple, replace
from pathlib import Path
from types import SimpleNamespace
from typing import get_args, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from numopt import (
    LBFGS,
    SGD,
    AdamUpdate,
    BeginOptimization,
    CallbackDecision,
    Diagnostic,
    EarlyStopping,
    EndEpoch,
    EvaluateCalled,
    GradientCalled,
    GradientDescent,
    MomentumUpdate,
    ObjectiveAdapter,
    ProgressPrinter,
    SimulatedAnnealing,
    StepTaken,
    TerminationReason,
    TimeLimit,
    TraceRecorder,
    VanillaUpdate,
)
from numopt.bench import BenchSpec
from numopt.core import _CONTRACT
from numopt.optimizers.lbfgs import LbfgsMemory
from numopt.problems import (
    LinearRegression,
    LogisticRegression,
    Rosenbrock,
    SeparableLinearRegression,
    generate_noisy_linear,
)

X, Y, _ = generate_noisy_linear(3, 40, 1.0, seed=0)
DEMO = Path(__file__).resolve().parent.parent / "demos" / "custom_optimizer.py"
CompassSearch = runpy.run_path(str(DEMO))["CompassSearch"]


class Counting:
    """Counts calls to ``inner`` and tallies them as the adapter does."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.evaluations = 0
        self.gradients = 0

    def _tally(self, evaluations, gradients):
        self.calls += 1
        self.evaluations += evaluations
        self.gradients += gradients


class CountingFull(Counting):
    def evaluate(self, x):
        self._tally(1, 0)
        return self.inner.evaluate(x)

    def gradient(self, x):
        self._tally(0, 1)
        return self.inner.gradient(x)


class CountingFused(CountingFull):
    def evaluate_with_gradient(self, x):
        self._tally(1, 1)
        return self.inner.evaluate(x), self.inner.gradient(x)


class CountingParts(Counting):
    @property
    def num_parts(self):
        return self.inner.num_parts

    def evaluate_parts(self, x, first, count):
        self._tally(count, 0)
        return self.inner.evaluate_parts(x, first, count)

    def gradient_parts(self, x, first, count):
        self._tally(0, count)
        return self.inner.gradient_parts(x, first, count)


def make_run(name, fused, offset, seed):
    """(counting objective, optimizer, x0) for one probe; no run converges
    within seven steps, and none lasts beyond 30."""
    rosenbrock_start = np.array([-1.2, 1.0]) + offset
    if name == "lbfgs":
        counting = CountingFused if fused else CountingFull
        return counting(Rosenbrock()), LBFGS(max_iterations=30), rosenbrock_start
    if name == "gd":
        optimizer = GradientDescent(step_size=1e-4, max_iterations=30)
        return CountingFull(Rosenbrock()), optimizer, rosenbrock_start
    if name == "sgd":
        # Windows of 16, 16 and 8 parts: the third step ends an epoch.
        optimizer = SGD(batch_size=16, max_iterations=30, tolerance=0.0, seed=seed)
        x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, 3)
        return CountingParts(SeparableLinearRegression(X, Y)), optimizer, x0
    if name == "compass":
        return CountingFull(Rosenbrock()), CompassSearch(max_iterations=30), rosenbrock_start
    optimizer = SimulatedAnnealing(max_iterations=30, seed=seed)
    return CountingFull(Rosenbrock()), optimizer, rosenbrock_start


class StopAt:
    """Returns TERMINATE on the k-th event of one type and notes the call count."""

    def __init__(self, kind, k, objective):
        self.kind, self.k, self.objective = kind, k, objective
        self.seen = 0
        self.calls_at_stop = None

    def __call__(self, event):
        if isinstance(event, self.kind):
            self.seen += 1
            if self.seen == self.k:
                self.calls_at_stop = self.objective.calls
                return CallbackDecision.TERMINATE
        return None


@pytest.mark.parametrize("name", ["lbfgs", "gd", "sgd", "annealing", "compass"])
@pytest.mark.parametrize("kind", [BeginOptimization, EvaluateCalled, GradientCalled, StepTaken])
@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    k=st.sampled_from([1, 2, 3, 7]),
    offset=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)).map(np.array),
    seed=st.integers(0, 2**16),
    fused=st.booleans(),
)
def test_terminate_means_no_further_objective_calls(name, kind, k, offset, seed, fused):
    objective, optimizer, x0 = make_run(name, fused, offset, seed)
    stopper = StopAt(kind, k, objective)
    x, result = optimizer.optimize(objective, x0, callbacks=[stopper])
    assert result.evaluate_calls == objective.evaluations
    assert result.gradient_calls == objective.gradients
    if stopper.calls_at_stop is None:
        return  # the k-th event of this type never happened
    assert objective.calls == stopper.calls_at_stop
    assert result.termination == TerminationReason.CALLBACK_REQUESTED
    if name in ("lbfgs", "gd", "compass") and not np.isnan(result.final_objective):
        # The run ends at its last completed step, never half-way into one.
        assert_allclose(result.final_objective, objective.inner.evaluate(x), rtol=1e-12)


# A TERMINATE on the step that reaches the cap: the request is the reason,
# for SGD whether the cap falls inside an epoch (2) or at its end (3).
@pytest.mark.parametrize("name", ["lbfgs", "gd", "sgd", "annealing", "compass"])
@pytest.mark.parametrize("cap", [2, 3])
def test_a_stop_request_on_the_capped_step_is_the_reason(name, cap):
    objective, optimizer, x0 = make_run(name, False, np.zeros(2), 0)
    stopper = StopAt(StepTaken, cap, objective)
    _, result = replace(optimizer, max_iterations=cap).optimize(objective, x0, [stopper])
    assert result.iterations == cap
    assert result.termination == TerminationReason.CALLBACK_REQUESTED


class Float64Quadratic:
    """x @ A @ x with a float64 A, so a float32 x gets float64 gradients."""

    A = np.array([[3.0, 1.0], [1.0, 2.0]])

    def evaluate(self, x):
        return float(x @ self.A @ x)

    def gradient(self, x):
        return 2.0 * (self.A @ x)


@pytest.mark.parametrize(
    "optimizer, objective, x0",
    [
        (LBFGS(), Float64Quadratic(), [1.0, -2.0]),
        (GradientDescent(step_size=0.1), Float64Quadratic(), [1.0, -2.0]),
        (SGD(batch_size=8, max_iterations=50), SeparableLinearRegression(X, Y), [0.0] * 3),
        (SimulatedAnnealing(max_iterations=200), Float64Quadratic(), [1.0, -2.0]),
        (CompassSearch(), Float64Quadratic(), [1.0, -2.0]),
    ],
    ids=["lbfgs", "gd", "sgd", "annealing", "compass"],
)
def test_float32_start_stays_float32_with_float64_objective(optimizer, objective, x0):
    x, result = optimizer.optimize(objective, np.array(x0, dtype=np.float32))
    assert x.dtype == np.float32
    assert np.isfinite(result.final_objective)


# Optimizer factories, called with a seed; each run is capped at a few steps.
OPTIMIZERS = {
    "lbfgs": lambda seed: LBFGS(max_iterations=20),
    "gd": lambda seed: GradientDescent(max_iterations=20),
    "sgd": lambda seed: SGD(batch_size=8, max_iterations=20, seed=seed, update=VanillaUpdate()),
    "momentum": lambda seed: SGD(
        batch_size=8, max_iterations=20, seed=seed, update=MomentumUpdate()
    ),
    "adam": lambda seed: SGD(batch_size=8, max_iterations=20, seed=seed, update=AdamUpdate()),
    "annealing": lambda seed: SimulatedAnnealing(max_iterations=50, seed=seed),
    "compass": lambda seed: CompassSearch(max_iterations=20),
}


def make_problem(problem, dtype, seed, part_wise):
    """(objective, dimension); data in ``dtype`` except for logistic-float64."""
    if problem == "rosenbrock":
        return Rosenbrock(), 2
    X, y, _ = generate_noisy_linear(3, 40, 1.0, seed=seed)
    if problem == "least-squares":
        least_squares = SeparableLinearRegression if part_wise else LinearRegression
        return least_squares(X.astype(dtype), y.astype(dtype)), 3
    labels = (y > 0).astype(np.float64)
    if problem == "logistic":
        return LogisticRegression(X.astype(dtype), labels.astype(dtype)), 3
    return LogisticRegression(X, labels), 3


def grid():
    for name, factory in OPTIMIZERS.items():
        problems = ["least-squares", "logistic", "logistic-float64"]
        if not factory(0).requires.gradient_parts:
            problems.append("rosenbrock")
        for problem in problems:
            for dtype in (np.float32, np.float64):
                yield name, problem, dtype


@pytest.mark.parametrize("name, problem, dtype", list(grid()))
@settings(max_examples=10, derandomize=True, deadline=None)
@given(
    start=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    column=st.booleans(),
    data_seed=st.integers(0, 2**16),
    seed=st.integers(0, 2**16),
)
def test_x0_is_kept_and_its_dtype_sets_the_run(name, problem, dtype, start, column, data_seed, seed):
    optimizer = OPTIMIZERS[name](seed)
    objective, dim = make_problem(problem, dtype, data_seed, optimizer.requires.gradient_parts)
    x0 = np.array(start[:dim], dtype=dtype).reshape((dim, 1) if column else (dim,))
    before = x0.copy()
    # Finiteness is not asserted: gradient descent at its default step diverges.
    with np.errstate(over="ignore", invalid="ignore"):
        x, _ = optimizer.optimize(objective, x0)
    assert np.array_equal(x0, before)
    assert x.dtype == dtype
    assert x.shape == x0.shape


def reused_buffer(gradient):
    """``gradient`` writing each result into one array and returning that array."""
    buffer = None

    def call(*args):
        nonlocal buffer
        g = gradient(*args)
        if buffer is None:
            buffer = np.empty_like(g)
        buffer[...] = g
        return buffer

    return call


def reusing_buffers(objective):
    """``objective`` with exactly its methods, each gradient method returning
    one array of its own that every call overwrites, as an objective with
    preallocated storage does."""
    methods = {}
    for name in ("evaluate", "gradient", "num_parts", "evaluate_parts", "gradient_parts"):
        if hasattr(objective, name):
            method = getattr(objective, name)
            methods[name] = reused_buffer(method) if name.startswith("gradient") else method
    return SimpleNamespace(**methods)


@pytest.mark.parametrize("name, problem, dtype", list(grid()))
@settings(max_examples=10, derandomize=True, deadline=None)
@given(
    start=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    column=st.booleans(),
    data_seed=st.integers(0, 2**16),
    seed=st.integers(0, 2**16),
)
def test_a_reused_gradient_buffer_changes_no_result(
    name, problem, dtype, start, column, data_seed, seed
):
    """An objective may return a gradient array that it reuses: every optimizer
    of the promise grid, on each problem and on a wrapper with exactly its
    methods whose gradient methods each return one array they overwrite, gives
    the same x bytes, result fields and call counts."""
    runs = []
    for wrap in (lambda objective: objective, reusing_buffers):
        optimizer = OPTIMIZERS[name](seed)
        objective, dim = make_problem(problem, dtype, data_seed, optimizer.requires.gradient_parts)
        x0 = np.array(start[:dim], dtype=dtype).reshape((dim, 1) if column else (dim,))
        with np.errstate(over="ignore", invalid="ignore"):
            x, result = optimizer.optimize(wrap(objective), x0)
        # Every result field but the elapsed time.
        runs.append((x.tobytes(), x.dtype, x.shape, *astuple(replace(result, elapsed_seconds=0))))
    np.testing.assert_equal(runs[1], runs[0])  # NaN equals NaN


@pytest.mark.parametrize("name", ["lbfgs", "gd", "sgd", "annealing", "compass"])
def test_complex_start_is_refused_before_any_call(name):
    objective, optimizer, x0 = make_run(name, False, np.zeros(2), 0)
    message = "initial parameters must be real numbers, got dtype complex128"
    with pytest.raises(Diagnostic, match=message):
        optimizer.optimize(objective, x0 + 5j)
    assert objective.calls == 0


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
@pytest.mark.parametrize(
    "callbacks, kind",
    [(TraceRecorder(), "TraceRecorder"), (None, "NoneType"), ([None], "NoneType")],
    ids=["one-callback", "none", "none-item"],
)
def test_malformed_callbacks_are_refused_before_any_event_or_call(name, callbacks, kind):
    optimizer = OPTIMIZERS[name](0)
    if optimizer.requires.gradient_parts:
        objective, x0 = CountingParts(SeparableLinearRegression(X, Y)), np.zeros(3)
    else:
        objective, x0 = CountingFull(Rosenbrock()), np.array([-1.2, 1.0])
    seen = []
    if isinstance(callbacks, list):
        callbacks = [seen.append, *callbacks]  # a listener before the bad item
    with pytest.raises(Diagnostic, match=f"callbacks must .* {kind}$"):
        optimizer.optimize(objective, x0, callbacks=callbacks)
    assert objective.calls == 0
    assert seen == []


def truncated(v):
    """``v`` with its fraction dropped; NaN and infinities stay as they are."""
    return float(np.trunc(v))


def whole(make):
    """``make`` for an integral float that a 64-bit integer holds exactly;
    a NaN, an infinity or a larger float is returned as it is."""
    return lambda f: make(f) if abs(f) < 2**62 else f


def whole_array(make):
    """``make`` for an integral float array that 64-bit integers hold exactly."""
    return lambda f: make(f) if np.all(np.abs(f) < 2**62) else f


# What an objective may return in place of a float value or a float array
# gradient.  An admitted kind is a pair (float form, kind): the float form
# is the number or array the kind stands for, and the kind holds it exactly,
# so a run given the kind must give the float form's run bit for bit.  A
# refused kind is one function: the first call that returns it must end the
# run with a Diagnostic naming Type.method, without a warning.
VALUE_KINDS = {
    "float": (float, float),
    "numpy float64": (float, np.float64),
    "numpy float32": (lambda v: float(np.float32(v)), np.float32),
    "int": (truncated, whole(int)),
    "numpy int64": (truncated, whole(np.int64)),
    "bool": (lambda v: float(v > 1.0), bool),
    "numpy bool": (lambda v: float(v > 1.0), np.bool_),
    "0-d array": (float, np.array),
    "0-d float32 array": (
        lambda v: float(np.float32(v)), lambda f: np.array(f, dtype=np.float32)
    ),
}
REFUSED_VALUES = {
    "complex": complex,
    "numpy complex128": np.complex128,
    "str": str,
    "bytes": lambda v: str(v).encode(),
    "None": lambda v: None,
    "list": lambda v: [v],
    "1-d array": lambda v: np.array([v, v]),
    "ragged": lambda v: [[v], [v, v]],
    "huge int": lambda v: 10**400,
}
GRADIENT_KINDS = {
    "array": (lambda g: g, lambda f: f),
    "float32 array": (
        lambda g: g.astype(np.float32).astype(g.dtype), lambda f: f.astype(np.float32)
    ),
    "list of floats": (lambda g: g, lambda f: f.tolist()),
    "list of numpy floats": (lambda g: g, list),
    "list of 0-d arrays": (lambda g: g, lambda f: [np.array(v) for v in f]),
    "int array": (np.trunc, whole_array(lambda f: f.astype(np.int64))),
    "list of ints": (np.trunc, whole_array(lambda f: [int(v) for v in f])),
    "bool array": (lambda g: (g > 0).astype(g.dtype), lambda f: f > 0.5),
    "list of bools": (lambda g: (g > 0).astype(g.dtype), lambda f: (f > 0.5).tolist()),
}
REFUSED_GRADIENTS = {
    "complex": lambda g: g + 1j,
    "complex with no imaginary part": lambda g: g.astype(np.complex128),
    "number strings": lambda g: [str(v) for v in g],
    "letters": lambda g: ["a"] * len(g),
    "bytes": lambda g: [str(v).encode() for v in g],
    "None": lambda g: None,
    "object array": lambda g: g.astype(object),
    "ragged": lambda g: [[v] for v in g[:-1]] + [[g[-1], g[-1]]],
    "huge ints": lambda g: [10**400] * len(g),
    "0-d array": lambda g: np.array(g[0]),
}


class Returning:
    """``inner`` with every value it returns passed through ``value`` and
    every gradient through ``gradient``.  ``first`` holds, per side, the
    outer objective's call count when that side first returned."""

    def __init__(self, inner, value, gradient):
        self.inner, self.value, self.gradient_of = inner, value, gradient
        self.outer = None
        self.first = {"value": None, "gradient": None}

    def _returned(self, side, convert, result):
        if self.first[side] is None:
            self.first[side] = self.outer.calls
        return convert(result)

    @property
    def num_parts(self):
        return self.inner.num_parts

    def evaluate(self, x):
        return self._returned("value", self.value, self.inner.evaluate(x))

    def gradient(self, x):
        return self._returned("gradient", self.gradient_of, self.inner.gradient(x))

    def evaluate_parts(self, x, first, count):
        return self._returned("value", self.value, self.inner.evaluate_parts(x, first, count))

    def gradient_parts(self, x, first, count):
        gradient = self.inner.gradient_parts(x, first, count)
        return self._returned("gradient", self.gradient_of, gradient)


def returning_run(name, value, gradient, fused, offset, dtype, seed):
    """(objective, optimizer, x0): ``name``'s optimizer of the promise grid
    on Rosenbrock, or on least squares by parts, with every value passed
    through ``value`` and every gradient through ``gradient``."""
    optimizer = OPTIMIZERS[name](seed)
    if optimizer.requires.gradient_parts:
        counting, inner, x0 = CountingParts, SeparableLinearRegression(X, Y), offset[[0, 1, 0]]
    else:
        counting, inner = CountingFused if fused else CountingFull, Rosenbrock()
        x0 = np.array([-1.2, 1.0]) + offset
    objective = counting(Returning(inner, value, gradient))
    objective.inner.outer = objective
    return objective, optimizer, x0.astype(dtype)


def every_field(x, result):
    """Every field of a run but the elapsed time."""
    return x.tobytes(), x.dtype, x.shape, *astuple(replace(result, elapsed_seconds=0))


def returned_as(kind):
    """The function that returns an admitted kind: its float form, held by
    the kind."""
    form, held = kind
    return lambda result: held(form(result))


# The optimizers of the promise grid that ask for gradients.
GRADIENT_USERS = [
    name
    for name, factory in OPTIMIZERS.items()
    if factory(0).requires.gradient or factory(0).requires.gradient_parts
]
SIDES = {
    "value": (VALUE_KINDS, REFUSED_VALUES),
    "gradient": (GRADIENT_KINDS, REFUSED_GRADIENTS),
}


@pytest.mark.parametrize(
    "side, kind",
    [(side, kind) for side, tables in SIDES.items() for table in tables for kind in table],
)
@settings(max_examples=8, derandomize=True, deadline=None)
@given(
    data=st.data(),
    fused=st.booleans(),
    offset=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)).map(np.array),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**16),
)
def test_what_an_objective_returns_is_admitted_by_one_rule(
    side, kind, data, fused, offset, dtype, seed
):
    """What an objective returns is admitted by one rule.  Over the promise
    grid's optimizers, from flat starts in float32 and float64, the objective
    returns each kind of value and gradient: Python and NumPy floats, ints and
    bools, 0-d arrays, lists and arrays of each.  Each admitted kind gives the
    run of the float numbers it holds, bit for bit; each refused kind (complex,
    strings, bytes, None, object arrays, ragged sequences, huge ints, another
    shape) ends the run at the call that returned it with a Diagnostic naming
    Type.method and no warning."""
    admitted, refused = SIDES[side]
    name = data.draw(st.sampled_from(sorted(OPTIMIZERS) if side == "value" else GRADIENT_USERS))
    # The other side returns one of its admitted kinds.
    other_kinds = SIDES["gradient" if side == "value" else "value"][0]
    other = other_kinds[data.draw(st.sampled_from(sorted(other_kinds)))]

    def returning(this, that):
        value, gradient = (this, that) if side == "value" else (that, this)
        return returning_run(name, value, gradient, fused, offset, dtype, seed)

    if kind in admitted:
        floats = returning(admitted[kind][0], other[0])
        kinds = returning(returned_as(admitted[kind]), returned_as(other))
        runs = []
        for objective, optimizer, x0 in (floats, kinds):
            with np.errstate(all="ignore"):
                runs.append(every_field(*optimizer.optimize(objective, x0)))
        np.testing.assert_equal(runs[1], runs[0])  # NaN equals NaN
        return
    objective, optimizer, x0 = returning(refused[kind], returned_as(other))
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("error")
        with pytest.raises(Diagnostic) as raised:
            optimizer.optimize(objective, x0)
    # Refused at the first call that returned the kind, by a message that
    # names the objective's type and method.
    assert objective.calls == objective.inner.first[side] is not None
    methods = "|".join(_CONTRACT)
    assert re.search(rf"\b{type(objective).__name__}\.({methods})\b", str(raised.value))


# Six returns reproduced with L-BFGS on Rosenbrock from (-1.2, 1): the two
# strings were parsed and the run converged, the two complex kinds were
# truncated with a ComplexWarning per call and the run converged, and the
# letters and the huge int escaped as NumPy's ValueError and Python's
# OverflowError.
@pytest.mark.parametrize(
    "side, kind, got",
    [
        ("value", "str", "dtype <U18"),
        ("gradient", "number strings", "dtype <U18"),
        ("gradient", "complex", "dtype complex128"),
        ("value", "numpy complex128", "dtype complex128"),
        ("gradient", "letters", "dtype <U1"),
        ("value", "huge int", "dtype object"),
    ],
)
def test_the_reproduced_returns_are_refused_by_name(side, kind, got):
    """Six returns that L-BFGS once parsed, truncated or let escape as a raw
    error are each refused, with no warning, at the call that returned one,
    by a Diagnostic whose exact message names Type.method and the dtype."""
    value, gradient = float, lambda g: g
    if side == "value":
        value = REFUSED_VALUES[kind]
    else:
        gradient = REFUSED_GRADIENTS[kind]
    objective = CountingFull(Returning(Rosenbrock(), value, gradient))
    objective.inner.outer = objective
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Diagnostic) as raised:
            LBFGS().optimize(objective, [-1.2, 1.0])
    method = "evaluate" if side == "value" else "gradient"
    message = f"the {side} CountingFull.{method} returned must be real numbers, got {got}"
    assert str(raised.value) == message
    assert objective.calls == objective.inner.first[side] == 1 + (side == "gradient")


SGD_POLICIES = {"sgd": VanillaUpdate, "momentum": MomentumUpdate, "adam": AdamUpdate}
STOPPING = ["gd", "lbfgs", *SGD_POLICIES, "annealing", "compass"]


def stopping_optimizer(name, cap, step, gtol, ftol, size, shuffle, seed):
    """``name``'s optimizer with the drawn cap and whichever of the drawn
    step, tolerances, window or block size, shuffle flag and seed it takes."""
    if name == "gd":
        return GradientDescent(
            step_size=step, max_iterations=cap, min_gradient_norm=gtol, min_objective_improvement=ftol
        )
    if name == "lbfgs":
        return LBFGS(max_iterations=cap, min_gradient_norm=gtol, min_objective_improvement=ftol)
    if name == "annealing":
        return SimulatedAnnealing(moves_per_temperature=size, max_iterations=cap, seed=seed)
    if name == "compass":
        return CompassSearch(step=step, max_iterations=cap)
    return SGD(
        step_size=step, batch_size=size, max_iterations=cap, tolerance=ftol, shuffle=shuffle,
        seed=seed, update=SGD_POLICIES[name](),
    )


def stop_grid():
    for name in STOPPING:
        problems = ["linear", "logistic"]
        if name not in SGD_POLICIES:
            problems.append("rosenbrock")
        for problem in problems:
            for dtype in (np.float32, np.float64):
                yield name, problem, dtype


class LastObserved:
    """The value of the latest StepTaken or EndEpoch."""

    value = np.nan

    def __call__(self, event):
        if isinstance(event, StepTaken):
            self.value = event.objective
        elif isinstance(event, EndEpoch):
            self.value = event.mean_objective


@pytest.mark.parametrize("name, problem, dtype", list(stop_grid()))
@settings(max_examples=15, derandomize=True, deadline=None)
@given(
    cap=st.integers(1, 40),
    step=st.sampled_from([1e-4, 1e-2, 0.1, 1.0]),
    gtol=st.sampled_from([0.0, 1e-6, 1e-2, 1.0, 10.0]),
    ftol=st.sampled_from([0.0, 1e-10, 1e-4, 1e-2, 1.0]),
    size=st.integers(1, 45),
    shuffle=st.booleans(),
    start=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_every_stop_reason_is_true_of_its_run(
    name, problem, dtype, cap, step, gtol, ftol, size, shuffle, start, seed
):
    """Every termination reason and final_objective is true of its run.
    Gradient descent, L-BFGS, SGD with each policy, annealing and the compass
    search run on least squares, logistic regression with ridge 0.3 and, where
    the contract allows, Rosenbrock, in float32 and float64, with drawn caps,
    steps, tolerances and starts, diverging runs included.  No run exceeds its
    cap, and a MAX_ITERATIONS run reaches it exactly.  A
    GRADIENT_NORM_TOLERANCE run's max-abs gradient at the returned point, from
    a fresh adapter, is within min_gradient_norm.  A gradient-descent or L-BFGS
    OBJECTIVE_IMPROVEMENT_TOLERANCE run's last step, read from a TraceRecorder
    and f(x0), decreased f by a relative amount in [0, tolerance].
    final_objective is as documented, NaN equal to NaN: f at the returned
    parameters (for annealing, the best ones), and for SGD the latest EndEpoch
    mean or StepTaken value."""
    optimizer = stopping_optimizer(name, cap, step, gtol, ftol, size, shuffle, seed)
    x0 = np.array(start, dtype=dtype)
    if problem == "rosenbrock":
        objective, x0 = Rosenbrock(), x0[:2]
    elif problem == "logistic":
        objective = LogisticRegression(X.astype(dtype), (Y > 0).astype(dtype), ridge=0.3)
    else:
        least_squares = SeparableLinearRegression if name in SGD_POLICIES else LinearRegression
        objective = least_squares(X.astype(dtype), Y.astype(dtype))
    recorder, last = TraceRecorder(), LastObserved()
    # Diverging draws are kept: the predicates hold for them too.
    with np.errstate(over="ignore", invalid="ignore"):
        x, result = optimizer.optimize(objective, x0, callbacks=[recorder, last])
        # final_objective as documented: SGD's latest mean per part, the
        # others' f at the returned (for annealing, best) parameters.
        expected = last.value if name in SGD_POLICIES else ObjectiveAdapter(objective).evaluate(x)
        np.testing.assert_equal(result.final_objective, expected)  # NaN equals NaN
        reason = result.termination
        # The adapter counts the steps: one StepTaken per step, numbered 1..k.
        assert result.iterations == len(recorder.trace)
        assert [k for k, _ in recorder.trace] == list(range(1, result.iterations + 1))
        assert result.iterations <= cap
        if reason is TerminationReason.MAX_ITERATIONS:
            assert result.iterations == cap
        if reason is TerminationReason.GRADIENT_NORM_TOLERANCE:
            assert np.abs(ObjectiveAdapter(objective).gradient(x)).max() <= gtol
        if reason is TerminationReason.OBJECTIVE_IMPROVEMENT_TOLERANCE and name in ("gd", "lbfgs"):
            values = [ObjectiveAdapter(objective).evaluate(x0)]
            values += [value for _, value in recorder.trace]
            previous, last = values[-2:]
            assert 0 <= previous - last <= ftol * max(1.0, abs(previous))


# Every option with an admitted range: (owner, option, its NaN message, the
# kind its type refusal names).  The range test runs first, so NaN, which
# compares false with everything, gets the range's message; a string is
# refused with a message naming its type, never parsed; and a count must then
# be an integer, so a float is refused at construction, not truncated partway
# through a run.  A flag admits a bool alone, NumPy's included, and refuses
# anything else, NaN and 1 included, by its type.
NUMBER, COUNT, FLAG = "a number", "an integer", "True or False"
OPTIONS = [
    (GradientDescent, "step_size", "step_size must be > 0, got nan", NUMBER),
    (GradientDescent, "max_iterations", "max_iterations must be >= 0, got nan", COUNT),
    (GradientDescent, "min_gradient_norm", "min_gradient_norm must be >= 0, got nan", NUMBER),
    (GradientDescent, "min_objective_improvement",
     "min_objective_improvement must be >= 0, got nan", NUMBER),
    (LBFGS, "memory_size", "memory_size must be >= 1, got nan", COUNT),
    (LBFGS, "max_iterations", "max_iterations must be >= 0, got nan", COUNT),
    (LBFGS, "min_gradient_norm", "min_gradient_norm must be >= 0, got nan", NUMBER),
    (LBFGS, "min_objective_improvement", "min_objective_improvement must be >= 0, got nan", NUMBER),
    (LBFGS, "armijo_constant", "armijo_constant must be in (0, 1), got nan", NUMBER),
    (LBFGS, "backtrack_factor", "backtrack_factor must be in (0, 1), got nan", NUMBER),
    (LBFGS, "max_line_search_trials", "max_line_search_trials must be >= 1, got nan", COUNT),
    (LbfgsMemory, "memory_size", "memory_size must be >= 1, got nan", COUNT),
    (SGD, "step_size", "step_size must be > 0, got nan", NUMBER),
    (SGD, "batch_size", "batch_size must be >= 1, got nan", COUNT),
    (SGD, "max_iterations", "max_iterations must be >= 0, got nan", COUNT),
    (SGD, "tolerance", "tolerance must be >= 0, got nan", NUMBER),
    (SGD, "shuffle", "shuffle must be True or False, got nan of type float", FLAG),
    (SGD, "seed", "seed must be >= 0, got nan", COUNT),
    (MomentumUpdate, "momentum", "momentum must be in [0, 1), got nan", NUMBER),
    (AdamUpdate, "beta1", "beta1 must be in [0, 1), got nan", NUMBER),
    (AdamUpdate, "beta2", "beta2 must be in [0, 1), got nan", NUMBER),
    (AdamUpdate, "epsilon", "epsilon must be > 0, got nan", NUMBER),
    (SimulatedAnnealing, "initial_temperature", "initial_temperature must be > 0, got nan", NUMBER),
    (SimulatedAnnealing, "cooling_factor", "cooling_factor must be in (0, 1), got nan", NUMBER),
    (SimulatedAnnealing, "moves_per_temperature",
     "moves_per_temperature must be >= 1, got nan", COUNT),
    (SimulatedAnnealing, "move_scale", "move_scale must be > 0, got nan", NUMBER),
    (SimulatedAnnealing, "min_temperature", "min_temperature must be > 0, got nan", NUMBER),
    (SimulatedAnnealing, "max_iterations", "max_iterations must be >= 0, got nan", COUNT),
    (SimulatedAnnealing, "seed", "seed must be >= 0, got nan", COUNT),
    (EarlyStopping, "patience", "patience must be >= 1, got nan", COUNT),
    (EarlyStopping, "min_delta", "min_delta must be >= 0, got nan", NUMBER),
    (ProgressPrinter, "period", "period must be >= 1, got nan", COUNT),
    (TimeLimit, "limit_seconds", "limit_seconds must be > 0, got nan", NUMBER),
    (BenchSpec, "runs", "--runs must be >= 1, got nan", COUNT),
    (BenchSpec, "d", "--d must be >= 1, got nan", COUNT),
    (BenchSpec, "n", "--n must be >= 1, got nan", COUNT),
    (BenchSpec, "max_iterations", "--max-iterations must be >= 1, got nan", COUNT),
    (BenchSpec, "seed", "--seed must be >= 0, got nan", COUNT),
    (BenchSpec, "noise_scale", "--noise must be >= 0, got nan", NUMBER),
    (CompassSearch, "step", "step must be > 0, got nan", NUMBER),
    (CompassSearch, "min_step", "min_step must be > 0, got nan", NUMBER),
    (CompassSearch, "max_iterations", "max_iterations must be >= 0, got nan", COUNT),
]


@pytest.mark.parametrize("owner, option, message, kind", OPTIONS)
def test_every_option_refuses_nan_strings_and_non_integer_counts(owner, option, message, kind):
    """Every option is checked by one rule, from one table of (owner, option,
    NaN message, kind) covering every optimizer, update-policy, callback and
    BenchSpec option, and the compass demo's, which a user's optimizer
    refuses by the same public rule: each refuses NaN with its exact message and "3" with a
    message naming its type; each count refuses 2.0 and 2.5 and takes
    np.int64(3); each flag refuses 1, 0, None and "no" and takes Python's and
    NumPy's bools, which every other option refuses by their type."""
    name = message.split(" must be ")[0]
    with pytest.raises(Diagnostic) as raised:
        owner(**{option: float("nan")})
    assert str(raised.value) == message
    refused = ["3"] if kind == FLAG else ["3", True, False, np.True_]
    for value in refused:
        with pytest.raises(Diagnostic) as raised:
            owner(**{option: value})
        got = f"{value!r} of type {type(value).__name__}"
        assert str(raised.value) == f"{name} must be {kind}, got {got}"
    if kind == COUNT:
        for value in (2.5, 2.0):
            with pytest.raises(Diagnostic) as raised:
                owner(**{option: value})
            assert str(raised.value) == f"{name} must be an integer, got {value!r} of type float"
        assert getattr(owner(**{option: np.int64(3)}), option) == 3
    if kind == FLAG:
        for value in (1, 0, None, "no"):
            with pytest.raises(Diagnostic) as raised:
                owner(**{option: value})
            got = f"{value!r} of type {type(value).__name__}"
            assert str(raised.value) == f"{name} must be True or False, got {got}"
        for value in (True, False, np.True_, np.False_):
            assert getattr(owner(**{option: value}), option) is value


# A new numeric or flag field cannot land without a row above, and a row's
# kind is its field's: a flag for a bool, a count for an integer.
@pytest.mark.parametrize(
    "owner",
    [
        GradientDescent, LBFGS, SGD, MomentumUpdate, AdamUpdate, SimulatedAnnealing, BenchSpec,
        CompassSearch,
    ],
)
def test_the_option_table_lists_every_numeric_field(owner):
    """Every numeric or bool dataclass field of each option owner has a row in
    OPTIONS, and each row's kind matches its field's type."""
    kinds = {bool: FLAG, int: COUNT, float: NUMBER}
    numeric = {}
    for name, hint in get_type_hints(owner).items():
        types = {hint, *get_args(hint)}
        for field_type, kind in kinds.items():
            if field_type in types:
                numeric[name] = kind
                break
    listed = {option: kind for cls, option, _, kind in OPTIONS if cls is owner}
    assert listed == numeric
