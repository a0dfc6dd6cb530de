"""README promises checked across every optimizer.

A callback's TERMINATE means no further objective calls, the reported call
counts are exact, ``x0`` is never mutated, and a float32 start gives a
float32 result, also when the objective computes in float64, and an
objective may return a gradient array that it reuses.  A start that
is not real numbers, or a ``callbacks`` argument that is not an iterable
of callables, is refused before any call, and every termination
reason and ``final_objective`` is true of the run it ends.  The compass
search from ``demos/custom_optimizer.py``, built from public names only,
runs in every grid beside the bundled optimizers.
"""

import runpy
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
        if not factory(0).requires.part_gradient:
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
    objective, dim = make_problem(problem, dtype, data_seed, optimizer.requires.part_gradient)
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
    runs = []
    for wrap in (lambda objective: objective, reusing_buffers):
        optimizer = OPTIMIZERS[name](seed)
        objective, dim = make_problem(problem, dtype, data_seed, optimizer.requires.part_gradient)
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
    if optimizer.requires.part_gradient:
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


# Every option with an admitted range: (owner, option, its NaN message, whether
# it counts).  The range test runs first, so NaN, which compares false with
# everything, gets the range's message; a string is refused with a message
# naming its type, never parsed; and a count must then be an integer, so a
# float is refused at construction, not truncated partway through a run.
OPTIONS = [
    (GradientDescent, "step_size", "step_size must be > 0, got nan", False),
    (GradientDescent, "max_iterations", "max_iterations must be >= 0, got nan", True),
    (GradientDescent, "min_gradient_norm", "min_gradient_norm must be >= 0, got nan", False),
    (GradientDescent, "min_objective_improvement",
     "min_objective_improvement must be >= 0, got nan", False),
    (LBFGS, "memory_size", "memory_size must be >= 1, got nan", True),
    (LBFGS, "max_iterations", "max_iterations must be >= 0, got nan", True),
    (LBFGS, "min_gradient_norm", "min_gradient_norm must be >= 0, got nan", False),
    (LBFGS, "min_objective_improvement", "min_objective_improvement must be >= 0, got nan", False),
    (LBFGS, "armijo_constant", "armijo_constant must be in (0, 1), got nan", False),
    (LBFGS, "backtrack_factor", "backtrack_factor must be in (0, 1), got nan", False),
    (LBFGS, "max_line_search_trials", "max_line_search_trials must be >= 1, got nan", True),
    (LbfgsMemory, "memory_size", "memory_size must be >= 1, got nan", True),
    (SGD, "step_size", "step_size must be > 0, got nan", False),
    (SGD, "batch_size", "batch_size must be >= 1, got nan", True),
    (SGD, "max_iterations", "max_iterations must be >= 0, got nan", True),
    (SGD, "tolerance", "tolerance must be >= 0, got nan", False),
    (SGD, "seed", "seed must be >= 0, got nan", True),
    (MomentumUpdate, "momentum", "momentum must be in [0, 1), got nan", False),
    (AdamUpdate, "beta1", "beta1 must be in [0, 1), got nan", False),
    (AdamUpdate, "beta2", "beta2 must be in [0, 1), got nan", False),
    (AdamUpdate, "epsilon", "epsilon must be > 0, got nan", False),
    (SimulatedAnnealing, "initial_temperature", "initial_temperature must be > 0, got nan", False),
    (SimulatedAnnealing, "cooling_factor", "cooling_factor must be in (0, 1), got nan", False),
    (SimulatedAnnealing, "moves_per_temperature",
     "moves_per_temperature must be >= 1, got nan", True),
    (SimulatedAnnealing, "move_scale", "move_scale must be > 0, got nan", False),
    (SimulatedAnnealing, "min_temperature", "min_temperature must be > 0, got nan", False),
    (SimulatedAnnealing, "max_iterations", "max_iterations must be >= 0, got nan", True),
    (SimulatedAnnealing, "seed", "seed must be >= 0, got nan", True),
    (EarlyStopping, "patience", "patience must be >= 1, got nan", True),
    (EarlyStopping, "min_delta", "min_delta must be >= 0, got nan", False),
    (ProgressPrinter, "period", "period must be >= 1, got nan", True),
    (TimeLimit, "limit_seconds", "limit_seconds must be > 0, got nan", False),
    (BenchSpec, "runs", "--runs must be >= 1, got nan", True),
    (BenchSpec, "d", "--d must be >= 1, got nan", True),
    (BenchSpec, "n", "--n must be >= 1, got nan", True),
    (BenchSpec, "max_iterations", "--max-iterations must be >= 0, got nan", True),
    (BenchSpec, "seed", "--seed must be >= 0, got nan", True),
    (BenchSpec, "noise_scale", "--noise must be >= 0, got nan", False),
]


@pytest.mark.parametrize("owner, option, message, counts", OPTIONS)
def test_every_option_refuses_nan_strings_and_non_integer_counts(owner, option, message, counts):
    name = message.split(" must be ")[0]
    with pytest.raises(Diagnostic) as raised:
        owner(**{option: float("nan")})
    assert str(raised.value) == message
    kind = "an integer" if counts else "a number"
    with pytest.raises(Diagnostic) as raised:
        owner(**{option: "3"})
    assert str(raised.value) == f"{name} must be {kind}, got '3' of type str"
    if counts:
        for value in (2.5, 2.0):
            with pytest.raises(Diagnostic) as raised:
                owner(**{option: value})
            assert str(raised.value) == f"{name} must be an integer, got {value!r} of type float"
        assert getattr(owner(**{option: np.int64(3)}), option) == 3


# A new numeric field cannot land without a row above, and a row counts
# exactly when its field is an integer.
@pytest.mark.parametrize(
    "owner",
    [GradientDescent, LBFGS, SGD, MomentumUpdate, AdamUpdate, SimulatedAnnealing, BenchSpec],
)
def test_the_option_table_lists_every_numeric_field(owner):
    numeric = {}
    for name, hint in get_type_hints(owner).items():
        types = {hint, *get_args(hint)}
        if types & {int, float}:
            numeric[name] = int in types
    listed = {option: counts for cls, option, _, counts in OPTIONS if cls is owner}
    assert listed == numeric
