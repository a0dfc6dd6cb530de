"""README promises checked across every optimizer.

A callback's TERMINATE means no further objective calls, the reported call
counts are exact, ``x0`` is never mutated, and a float32 start gives a
float32 result, also when the objective computes in float64.  The compass
search from ``demos/custom_optimizer.py``, built from public names only,
runs in every grid beside the bundled optimizers.
"""

import runpy
from pathlib import Path

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
    EvaluateCalled,
    GradientCalled,
    GradientDescent,
    MomentumUpdate,
    ProgressPrinter,
    SimulatedAnnealing,
    StepTaken,
    TerminationReason,
    TimeLimit,
    VanillaUpdate,
)
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


# Each option check is written as a negated admitted range, so NaN, which
# compares false with everything, is refused with the check's own message.
@pytest.mark.parametrize(
    "cls, option, error, message",
    [
        (GradientDescent, "step_size", Diagnostic, "step_size must be > 0, got nan"),
        (GradientDescent, "max_iterations", Diagnostic, "max_iterations must be >= 0, got nan"),
        (GradientDescent, "min_gradient_norm", Diagnostic, "tolerances must be >= 0"),
        (GradientDescent, "min_objective_improvement", Diagnostic, "tolerances must be >= 0"),
        (LBFGS, "memory_size", Diagnostic, "memory_size must be >= 1, got nan"),
        (LBFGS, "max_iterations", Diagnostic, "max_iterations must be >= 0, got nan"),
        (LBFGS, "max_line_search_trials", Diagnostic,
         "max_line_search_trials must be >= 1, got nan"),
        (LBFGS, "min_gradient_norm", Diagnostic, "tolerances must be >= 0"),
        (LBFGS, "min_objective_improvement", Diagnostic, "tolerances must be >= 0"),
        (LBFGS, "armijo_constant", Diagnostic, "armijo_constant must be in (0, 1), got nan"),
        (LBFGS, "backtrack_factor", Diagnostic, "backtrack_factor must be in (0, 1), got nan"),
        (LbfgsMemory, "memory_size", Diagnostic, "memory_size must be >= 1, got nan"),
        (SGD, "step_size", Diagnostic, "step_size must be > 0, got nan"),
        (SGD, "batch_size", Diagnostic, "batch_size must be >= 1, got nan"),
        (SGD, "max_iterations", Diagnostic, "max_iterations must be >= 0, got nan"),
        (SGD, "tolerance", Diagnostic, "tolerance must be >= 0, got nan"),
        (MomentumUpdate, "momentum", Diagnostic, "momentum must be in [0, 1), got nan"),
        (AdamUpdate, "beta1", Diagnostic, "beta1 must be in [0, 1), got nan"),
        (AdamUpdate, "beta2", Diagnostic, "beta2 must be in [0, 1), got nan"),
        (AdamUpdate, "epsilon", Diagnostic, "epsilon must be > 0, got nan"),
        (SimulatedAnnealing, "initial_temperature", Diagnostic,
         "initial_temperature must be > 0, got nan"),
        (SimulatedAnnealing, "cooling_factor", Diagnostic,
         "cooling_factor must be in (0, 1), got nan"),
        (SimulatedAnnealing, "moves_per_temperature", Diagnostic,
         "moves_per_temperature must be >= 1, got nan"),
        (SimulatedAnnealing, "move_scale", Diagnostic, "move_scale must be > 0, got nan"),
        (SimulatedAnnealing, "min_temperature", Diagnostic,
         "min_temperature must be > 0, got nan"),
        (SimulatedAnnealing, "max_iterations", Diagnostic, "max_iterations must be >= 0, got nan"),
        (EarlyStopping, "patience", ValueError, "patience must be >= 1, got nan"),
        (EarlyStopping, "min_delta", ValueError, "min_delta must be >= 0, got nan"),
        (ProgressPrinter, "period", ValueError, "period must be >= 1, got nan"),
        (TimeLimit, "limit_seconds", ValueError, "limit_seconds must be > 0, got nan"),
    ],
)
def test_every_option_refuses_nan_with_its_message(cls, option, error, message):
    with pytest.raises(error) as raised:
        cls(**{option: float("nan")})
    assert str(raised.value) == message


# Count options are read by operator.index after their range check, as
# num_parts is: NumPy integers pass, a float is refused at construction
# (before any objective call), and NaN keeps its range message above.
@pytest.mark.parametrize(
    "cls, option",
    [
        (SGD, "batch_size"),
        (LBFGS, "memory_size"),
        (LbfgsMemory, "memory_size"),
        (LBFGS, "max_line_search_trials"),
        (SimulatedAnnealing, "moves_per_temperature"),
    ],
)
@pytest.mark.parametrize("value", [2.5, 2.0])
def test_count_options_refuse_non_integers(cls, option, value):
    with pytest.raises(Diagnostic) as raised:
        cls(**{option: value})
    assert str(raised.value) == f"{option} must be an integer, got {value!r} of type float"
    assert getattr(cls(**{option: np.int64(3)}), option) == 3
