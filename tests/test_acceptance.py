"""End-to-end checks of the package's headline guarantees.

Each test pins the tolerance it promises; the conftest hook prints a
per-check verdict line after the run.
"""

import shutil
import subprocess
import sys
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from numopt import (
    AdamUpdate,
    CallbackDecision,
    Diagnostic,
    EarlyStopping,
    EvaluateCalled,
    GradientCalled,
    GradientDescent,
    LBFGS,
    MomentumUpdate,
    ObjectiveAdapter,
    ObjectiveCapabilities,
    SGD,
    SimulatedAnnealing,
    StepTaken,
    TerminationReason,
    VanillaUpdate,
    finite_difference_gradient,
)
from numopt.bench import CSV_HEADER, BenchSpec, run_bench
from numopt.problems import (
    LinearRegression,
    LogisticRegression,
    Rosenbrock,
    SeparableLinearRegression,
    generate_noisy_linear,
)


def relative_gradient_gap(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    return float(np.max(np.abs(analytic - numeric) / (1.0 + np.abs(analytic))))


def test_01_gradients_match_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    X, y, _ = generate_noisy_linear(4, 30, 1.0, seed=1)
    labels = (y > 0).astype(np.float64)
    cases = [
        (LinearRegression(X, y), lambda: rng.uniform(-1, 1, (4, 1))),
        (LogisticRegression(X, labels), lambda: rng.uniform(-1, 1, (4, 1))),
        (Rosenbrock(), lambda: rng.uniform(-2, 2, 2)),
    ]
    for objective, draw in cases:
        for _ in range(20):
            point = draw()
            gap = relative_gradient_gap(
                objective.gradient(point), finite_difference_gradient(objective, point)
            )
            assert gap < 1e-5
    assert time.perf_counter() - started < 5.0


def test_02_lbfgs_recovers_least_squares_solution():
    started = time.perf_counter()
    X, y, _ = generate_noisy_linear(10, 500, 1.0, seed=0)
    x, result = LBFGS(max_iterations=1000).optimize(
        LinearRegression(X, y), np.zeros((10, 1))
    )
    oracle = np.linalg.solve(X @ X.T, X @ y)
    assert np.max(np.abs(x.ravel() - oracle)) < 1e-4
    assert time.perf_counter() - started < 5.0


def test_03_two_method_objects_run_and_gaps_are_named():
    X, y, _ = generate_noisy_linear(3, 60, 1.0, seed=2)
    objective = LinearRegression(X, y)
    capabilities = ObjectiveCapabilities.of(objective)
    assert capabilities.evaluate and capabilities.gradient
    assert not capabilities.evaluate_with_gradient
    assert not capabilities.evaluate_parts and not capabilities.gradient_parts

    x0 = np.zeros((3, 1))
    for optimizer in (
        LBFGS(max_iterations=5),
        GradientDescent(step_size=1e-4, max_iterations=5),
        SimulatedAnnealing(max_iterations=50),
    ):
        x, result = optimizer.optimize(objective, x0)
        assert x.shape == (3, 1)
        assert np.isfinite(result.final_objective)

    class EvaluateOnly:
        def evaluate(self, x):
            return float(np.vdot(x, x))

    with pytest.raises(Diagnostic) as caught:
        LBFGS().optimize(EvaluateOnly(), x0)
    assert "gradient" in str(caught.value)


def test_04_bench_command_emits_protocol_csv():
    started = time.perf_counter()
    executable = shutil.which("bench")
    if executable is not None:
        command = [executable]
    else:
        command = [sys.executable, "-m", "numopt.bench"]
    command += ["--d", "10", "--n", "1000", "--runs", "5", "--max-iterations", "10"]
    finished = subprocess.run(command, capture_output=True, text=True, timeout=30)
    assert finished.returncode == 0, finished.stderr
    lines = finished.stdout.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[:5] == ["linear", "lbfgs", "10", "1000", "5"]
    assert float(fields[5]) >= 0.0
    assert np.isfinite(float(fields[6]))

    record = run_bench(
        BenchSpec(problem="linear", d=10, n=1000, optimizer="lbfgs", runs=5,
                  max_iterations=10, seed=0, noise_scale=10.0)
    )
    allowed = {
        TerminationReason.MAX_ITERATIONS,
        TerminationReason.GRADIENT_NORM_TOLERANCE,
        TerminationReason.OBJECTIVE_IMPROVEMENT_TOLERANCE,
    }
    assert set(record.terminations) <= allowed
    assert time.perf_counter() - started < 30.0


def test_05_inferred_evaluation_is_bitwise_exact():
    for seed in range(10):
        X, y, _ = generate_noisy_linear(3, 40, 1.0, seed=seed)
        parts_only = SeparableLinearRegression(X, y)
        direct = LinearRegression(X, y)
        point = np.random.default_rng(seed).uniform(-1, 1, (3, 1))
        adapter = ObjectiveAdapter(parts_only)
        assert not hasattr(parts_only, "evaluate")
        assert adapter.evaluate(point) == direct.evaluate(point)


def test_06_full_batch_sgd_retraces_gradient_descent():
    X, y, _ = generate_noisy_linear(3, 100, 0.5, seed=1)
    separable = SeparableLinearRegression(X, y)
    n = separable.num_parts

    class MeanForm:
        def evaluate(self, x):
            return separable.evaluate_parts(x, 0, n) / n

        def gradient(self, x):
            return separable.gradient_parts(x, 0, n) / n

    x_sgd, r_sgd = SGD(
        step_size=0.05, batch_size=n, max_iterations=100, tolerance=0.0
    ).optimize(separable, np.zeros((3, 1)))
    x_gd, r_gd = GradientDescent(
        step_size=0.05, max_iterations=100,
        min_gradient_norm=0.0, min_objective_improvement=0.0,
    ).optimize(MeanForm(), np.zeros((3, 1)))
    assert r_sgd.iterations == r_gd.iterations == 100
    assert np.array_equal(x_sgd, x_gd)


def test_07_seeded_runs_repeat_and_seeds_matter():
    X, y, _ = generate_noisy_linear(3, 100, 0.5, seed=1)
    separable = SeparableLinearRegression(X, y)

    def run_sgd(seed, update):
        x, _ = SGD(
            batch_size=16, max_iterations=50, seed=seed, update=update
        ).optimize(separable, np.zeros((3, 1)))
        return x

    for make_update in (VanillaUpdate, MomentumUpdate, AdamUpdate):
        assert np.array_equal(run_sgd(4, make_update()), run_sgd(4, make_update()))
        assert not np.array_equal(run_sgd(4, make_update()), run_sgd(5, make_update()))

    def run_sa(seed):
        x, _ = SimulatedAnnealing(seed=seed, max_iterations=2000).optimize(
            LinearRegression(X, y), np.zeros((3, 1))
        )
        return x

    assert np.array_equal(run_sa(4), run_sa(4))
    assert not np.array_equal(run_sa(4), run_sa(5))


def test_08_rosenbrock_valley_solved_within_budget():
    _, result = LBFGS(max_iterations=200).optimize(Rosenbrock(), np.array([-1.2, 1.0]))
    assert result.final_objective < 1e-8
    assert result.iterations <= 200


def test_09_callback_termination_is_immediate():
    X, y, _ = generate_noisy_linear(3, 60, 1.0, seed=2)
    events = []

    def stop_at_three(event):
        events.append(event)
        if isinstance(event, StepTaken) and event.iteration == 3:
            return CallbackDecision.TERMINATE

    _, result = GradientDescent(step_size=1e-4).optimize(
        LinearRegression(X, y), np.zeros((3, 1)), callbacks=[stop_at_three]
    )
    assert result.iterations == 3
    assert result.termination == TerminationReason.CALLBACK_REQUESTED
    flagged = next(
        i for i, e in enumerate(events)
        if isinstance(e, StepTaken) and e.iteration == 3
    )
    after = events[flagged + 1:]
    assert not [e for e in after if isinstance(e, (EvaluateCalled, GradientCalled))]

    stopper = EarlyStopping(patience=3)
    decisions = [
        stopper(StepTaken(iteration=i + 1, objective=value))
        for i, value in enumerate([5.0, 4.0, 3.0, 3.0, 3.0, 3.0])
    ]
    assert decisions[:5] == [CallbackDecision.CONTINUE] * 5
    assert decisions[5] == CallbackDecision.TERMINATE


def test_10_first_adam_step_is_sign_scaled():
    policy = AdamUpdate()
    state = policy.initialize(np.zeros(4))
    gradient = np.array([3.0, -0.5, 1e-4, -2e6])
    increment = policy.step(state, gradient, 0.1)
    expected = -0.1 * gradient / (np.abs(gradient) + 1e-8)
    assert_allclose(increment, expected, atol=1e-6)


def test_11_float32_runs_stay_float32_and_converge():
    X, y, _ = generate_noisy_linear(10, 500, 1.0, seed=0)
    X32, y32 = X.astype(np.float32), y.astype(np.float32)
    x32, _ = LBFGS(max_iterations=1000).optimize(
        LinearRegression(X32, y32), np.zeros((10, 1), dtype=np.float32)
    )
    oracle = np.linalg.solve(
        X32.astype(np.float64) @ X32.T.astype(np.float64),
        X32.astype(np.float64) @ y32.astype(np.float64),
    )
    assert x32.dtype == np.float32
    assert np.max(np.abs(x32.ravel() - oracle)) < 1e-3

    x_rosen, result = LBFGS(max_iterations=200).optimize(
        Rosenbrock(), np.array([-1.2, 1.0], dtype=np.float32)
    )
    assert x_rosen.dtype == np.float32
    assert result.final_objective < 1e-4
