"""Memory safeguard, two-loop direction, line search, and the full optimizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from numopt import (
    LBFGS,
    CallbackDecision,
    CallbackList,
    Diagnostic,
    EvaluateCalled,
    LbfgsMemory,
    ObjectiveAdapter,
    TerminationReason,
    TraceRecorder,
    backtracking_line_search,
    two_loop_direction,
)
from numopt.problems import LinearRegression, Rosenbrock, generate_noisy_linear


class Quadratic:
    def evaluate(self, x):
        return float(np.vdot(x, x))

    def gradient(self, x):
        return 2.0 * x


def dense_bfgs_direction(pairs, gradient):
    """Independent oracle: explicit inverse-Hessian recursion.

    H starts as gamma*I with gamma from the newest pair, then applies
    H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T
    oldest to newest.  The two-loop recursion must produce -H g.
    """
    dim = gradient.size
    s_new, y_new = pairs[-1]
    gamma = float(s_new @ y_new) / float(y_new @ y_new)
    H = gamma * np.eye(dim)
    identity = np.eye(dim)
    for s, y in pairs:
        rho = 1.0 / float(y @ s)
        left = identity - rho * np.outer(s, y)
        H = left @ H @ left.T + rho * np.outer(s, s)
    return -(H @ gradient)


class TestLbfgsMemory:
    def test_capacity_evicts_oldest(self):
        memory = LbfgsMemory(3)
        for k in range(1, 6):
            kept = memory.push(np.array([float(k), 0.0]), np.array([float(k), 0.0]))
            assert kept
        assert len(memory) == 3
        stored = [s[0] for s, _, _ in memory]
        assert stored == [3.0, 4.0, 5.0]
        assert memory.newest[0][0] == 5.0

    def test_zero_curvature_pair_rejected(self):
        memory = LbfgsMemory(3)
        assert not memory.push(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert len(memory) == 0

    def test_negative_curvature_pair_rejected(self):
        memory = LbfgsMemory(3)
        assert not memory.push(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        assert len(memory) == 0

    def test_small_relative_curvature_rejected(self):
        memory = LbfgsMemory(3)
        s = np.array([1.0, 0.0])
        y = np.array([0.5e-14, 1.0])  # y.s = 0.5e-14 <= 1e-14 * |s||y|
        assert not memory.push(s, y)

    def test_rho_is_reciprocal_curvature(self):
        memory = LbfgsMemory(2)
        memory.push(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        _, _, rho = memory.newest
        assert rho == 0.5

    def test_capacity_validated(self):
        with pytest.raises(Diagnostic, match="memory_size"):
            LbfgsMemory(0)


class TestTwoLoopDirection:
    def test_empty_memory_is_negated_gradient_bitwise(self):
        g = np.array([3.0, -1.0])
        d = two_loop_direction(LbfgsMemory(5), g)
        assert np.array_equal(d, [-3.0, 1.0])
        assert d is not g

    def test_empty_memory_preserves_dtype(self):
        g = np.array([3.0, -1.0], dtype=np.float32)
        assert two_loop_direction(LbfgsMemory(5), g).dtype == np.float32

    def test_one_pair_hand_example(self):
        # s=(1,0), y=(2,0), g=(2,0): gamma=1/2, the correction restores the
        # s direction, giving exactly (-1, 0).
        memory = LbfgsMemory(5)
        memory.push(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        d = two_loop_direction(memory, np.array([2.0, 0.0]))
        assert_allclose(d, [-1.0, 0.0], atol=1e-15)

    def test_matches_dense_bfgs_oracle(self):
        rng = np.random.default_rng(31)
        for dim in (2, 5, 9):
            root = rng.uniform(-1, 1, (dim, dim))
            hessian = root @ root.T + dim * np.eye(dim)
            memory = LbfgsMemory(10)
            pairs = []
            for _ in range(6):
                s = rng.uniform(-1, 1, dim)
                y = hessian @ s
                if memory.push(s, y):
                    pairs.append((s, y))
            g = rng.uniform(-1, 1, dim)
            expected = dense_bfgs_direction(pairs, g)
            assert_allclose(two_loop_direction(memory, g), expected, rtol=1e-11, atol=1e-13)

    def test_direction_is_descent(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            dim = int(rng.integers(2, 8))
            memory = LbfgsMemory(10)
            for _ in range(int(rng.integers(1, 6))):
                s = rng.uniform(-1, 1, dim)
                y = s * rng.uniform(0.5, 3.0) + 0.1 * rng.uniform(-1, 1, dim)
                memory.push(s, y)
            g = rng.uniform(-1, 1, dim)
            if len(memory) and np.max(np.abs(g)) > 0:
                assert float(two_loop_direction(memory, g) @ g) < 0.0


class NanRegion:
    """Quadratic with a NaN half-plane, for exercising trial rejection."""

    def evaluate(self, x):
        if x[0] < 0:
            return float("nan")
        return float(np.vdot(x, x))

    def gradient(self, x):
        return 2.0 * x


class AlwaysNan:
    def evaluate(self, x):
        return float("nan")

    def gradient(self, x):
        return np.ones_like(x)


class TestBacktrackingLineSearch:
    def test_unit_step_accepted_when_it_satisfies_armijo(self):
        adapter = ObjectiveAdapter(Quadratic())
        x = np.array([1.0, 0.0])
        found = backtracking_line_search(adapter, x, 1.0, 2.0 * x, np.array([-1.0, 0.0]))
        assert found.failure is None
        assert found.step == 1.0
        assert found.value == 0.0
        assert adapter.evaluate_calls == 1

    def test_overshoot_backtracks_to_the_first_sufficient_step(self):
        # Trials along d=(-4,0) from x=(1,0): alpha=1 lands at f=9 (reject),
        # alpha=0.5 lands at f=1 which misses the Armijo bound
        # 1 - 4e-4 (reject), alpha=0.25 lands at f=0 (accept).
        adapter = ObjectiveAdapter(Quadratic())
        x = np.array([1.0, 0.0])
        found = backtracking_line_search(adapter, x, 1.0, 2.0 * x, np.array([-4.0, 0.0]))
        assert found.failure is None
        assert found.step == 0.25
        assert found.value == 0.0
        assert adapter.evaluate_calls == 3

    def test_nan_trials_rejected_and_search_continues(self):
        adapter = ObjectiveAdapter(NanRegion())
        x = np.array([1.0, 0.0])
        found = backtracking_line_search(adapter, x, 1.0, 2.0 * x, np.array([-4.0, 0.0]))
        assert found.failure is None
        assert found.step == 0.25
        assert adapter.evaluate_calls == 3

    def test_failure_after_max_trials(self):
        adapter = ObjectiveAdapter(AlwaysNan())
        x = np.array([1.0])
        found = backtracking_line_search(
            adapter, x, 1.0, np.array([2.0]), np.array([-1.0]), max_trials=50
        )
        assert found.failure == TerminationReason.LINE_SEARCH_FAILURE
        assert found.value == 1.0
        assert adapter.evaluate_calls == 50

    def test_underflow_before_exhausting_generous_trial_budget(self):
        # 0.5^67 < 1e-20, so trial 68 underflows after 67 evaluations.
        adapter = ObjectiveAdapter(AlwaysNan())
        x = np.array([1.0])
        found = backtracking_line_search(
            adapter, x, 1.0, np.array([2.0]), np.array([-1.0]), max_trials=200
        )
        assert found.failure == TerminationReason.STEP_SIZE_UNDERFLOW
        assert adapter.evaluate_calls == 67

    def test_non_descent_direction_fails_without_evaluating(self):
        adapter = ObjectiveAdapter(Quadratic())
        x = np.array([1.0, 0.0])
        found = backtracking_line_search(adapter, x, 1.0, 2.0 * x, np.array([1.0, 0.0]))
        assert found.failure == TerminationReason.LINE_SEARCH_FAILURE
        assert adapter.evaluate_calls == 0

    def test_stop_hook_aborts_between_trials(self):
        # A TERMINATE on the first trial's EvaluateCalled makes the adapter
        # refuse the second trial, although the first one was rejected.
        trials = []

        class Counting(AlwaysNan):
            def evaluate(self, x):
                trials.append(1)
                return float("nan")

        def stop_on_evaluate(event):
            if isinstance(event, EvaluateCalled):
                return CallbackDecision.TERMINATE

        adapter = ObjectiveAdapter(Counting(), events=CallbackList([stop_on_evaluate]))
        with adapter:
            backtracking_line_search(
                adapter, np.array([1.0]), 1.0, np.array([2.0]), np.array([-1.0])
            )
            pytest.fail("the line search returned after its second trial was refused")
        assert len(trials) == 1
        assert adapter.evaluate_calls == 1


class TestLbfgsOptimize:
    def test_quadratic_converges_in_few_iterations(self):
        x, result = LBFGS().optimize(Quadratic(), np.array([10.0, -7.0]))
        assert np.max(np.abs(x)) < 1e-8
        assert result.final_objective <= 1e-12
        assert result.iterations <= 5
        assert result.termination == TerminationReason.GRADIENT_NORM_TOLERANCE

    def test_matches_normal_equations(self):
        X, y, _ = generate_noisy_linear(3, 200, 1.0, seed=0)
        x, result = LBFGS().optimize(LinearRegression(X, y), np.zeros((3, 1)))
        oracle = np.linalg.solve(X @ X.T, X @ y)
        assert np.max(np.abs(x.ravel() - oracle)) < 1e-4

    def test_iteration_cap_reported_honestly(self):
        _, result = LBFGS(max_iterations=10).optimize(Rosenbrock(), np.array([-1.2, 1.0]))
        assert result.iterations == 10
        assert result.termination == TerminationReason.MAX_ITERATIONS

    def test_accepted_objectives_non_increasing(self):
        recorder = TraceRecorder()
        LBFGS().optimize(Rosenbrock(), np.array([-1.2, 1.0]), callbacks=[recorder])
        values = [f for _, f in recorder.trace]
        assert all(later <= earlier for earlier, later in zip(values, values[1:]))

    def test_stationary_start_terminates_immediately(self):
        _, result = LBFGS().optimize(Quadratic(), np.zeros(3))
        assert result.iterations == 0
        assert result.termination == TerminationReason.GRADIENT_NORM_TOLERANCE
        assert result.evaluate_calls == 1
        assert result.gradient_calls == 1

    def test_gradient_norm_reason_is_consistent(self):
        objective = Quadratic()
        x, result = LBFGS().optimize(objective, np.array([2.0, 3.0]))
        if result.termination == TerminationReason.GRADIENT_NORM_TOLERANCE:
            assert np.max(np.abs(objective.gradient(x))) <= 1e-6

    def test_call_counters_match_loop_structure(self):
        x, result = LBFGS().optimize(Quadratic(), np.array([10.0, -7.0]))
        # One gradient at x0 plus one per accepted step.
        assert result.gradient_calls == 1 + result.iterations
        # One evaluation at x0 plus at least one line-search trial per step.
        assert result.evaluate_calls >= 1 + result.iterations

    def test_fused_objective_used_for_initial_point(self):
        calls = {"fused": 0}

        class Fused(Quadratic):
            def evaluate_with_gradient(self, x):
                calls["fused"] += 1
                return self.evaluate(x), self.gradient(x)

        LBFGS().optimize(Fused(), np.array([10.0, -7.0]))
        assert calls["fused"] == 1

    def test_line_search_failure_returns_last_accepted_state(self):
        class Cliff:
            """Finite at the start, NaN everywhere the search can reach."""

            def evaluate(self, x):
                if np.array_equal(x, np.array([1.0])):
                    return 1.0
                return float("nan")

            def gradient(self, x):
                return np.array([2.0])

        x, result = LBFGS().optimize(Cliff(), np.array([1.0]))
        assert result.termination == TerminationReason.LINE_SEARCH_FAILURE
        assert result.iterations == 0
        assert x[0] == 1.0
        assert result.final_objective == 1.0

    def test_float32_run_stays_float32_and_converges(self):
        x, result = LBFGS().optimize(
            Quadratic(), np.array([10.0, -7.0], dtype=np.float32)
        )
        assert x.dtype == np.float32
        assert np.max(np.abs(x)) < 1e-3
        assert result.final_objective < 1e-3

    def test_missing_gradient_is_diagnostic_before_any_call(self):
        calls = {"evaluate": 0}

        class EvaluateOnly:
            def evaluate(self, x):
                calls["evaluate"] += 1
                return 0.0

        with pytest.raises(Diagnostic, match="gradient"):
            LBFGS().optimize(EvaluateOnly(), np.ones(2))
        assert calls["evaluate"] == 0

    def test_config_validation(self):
        with pytest.raises(Diagnostic, match="memory_size"):
            LBFGS(memory_size=0)
        with pytest.raises(Diagnostic, match="armijo"):
            LBFGS(armijo_constant=1.5)
        with pytest.raises(Diagnostic, match="backtrack"):
            LBFGS(backtrack_factor=1.0)
        with pytest.raises(Diagnostic, match="tolerances"):
            LBFGS(min_gradient_norm=-1.0)
        with pytest.raises(Diagnostic, match="max_iterations"):
            LBFGS(max_iterations=-1)
        with pytest.raises(Diagnostic, match="max_line_search_trials"):
            LBFGS(max_line_search_trials=0)

    def test_unlimited_iterations_allowed(self):
        _, result = LBFGS(max_iterations=0).optimize(Quadratic(), np.array([4.0]))
        assert result.termination == TerminationReason.GRADIENT_NORM_TOLERANCE


class WeightedQuadratic:
    """f(x) = sum(w * x^2): uneven curvature, so -g is not the Newton step."""

    weights = np.array([0.3, 1.7, 0.05])

    def evaluate(self, x):
        return float(np.sum(self.weights * x * x))

    def gradient(self, x):
        return 2.0 * self.weights * x


class TestUnitSteepestDescent:
    """With empty memory the direction -g is scaled to at most unit 2-norm."""

    @pytest.mark.parametrize("seed", range(20))
    def test_regression_takes_one_trial_per_line_search(self, seed):
        X, y, _ = generate_noisy_linear(20, 2000, 10.0, seed=seed)
        x0 = np.random.default_rng([seed, 1]).uniform(-1.0, 1.0, size=(20, 1))
        _, result = LBFGS().optimize(LinearRegression(X, y), x0)
        assert result.termination in (
            TerminationReason.GRADIENT_NORM_TOLERANCE,
            TerminationReason.OBJECTIVE_IMPROVEMENT_TOLERANCE,
        )
        assert result.evaluate_calls == 1 + result.iterations

    def test_small_gradient_step_is_plain_negated_gradient_bitwise(self):
        objective = WeightedQuadratic()
        x0 = np.array([0.9, -0.2, 1.5])
        g0 = objective.gradient(x0)
        assert np.linalg.norm(g0) <= 1.0
        reference = backtracking_line_search(
            ObjectiveAdapter(objective), x0, objective.evaluate(x0), g0, -g0
        )
        x, result = LBFGS(max_iterations=1).optimize(objective, x0)
        assert result.iterations == 1
        assert np.array_equal(x, x0 + reference.step * -g0)
        assert result.final_objective == reference.value

    def test_large_gradient_first_step_has_at_most_unit_length(self):
        objective = WeightedQuadratic()
        x0 = np.array([10.0, -7.0, 30.0])
        g0 = objective.gradient(x0)
        assert np.linalg.norm(g0) > 1.0
        x, result = LBFGS(max_iterations=1).optimize(objective, x0)
        assert result.iterations == 1
        assert result.evaluate_calls == 2  # x0 plus one accepted trial
        assert np.linalg.norm(x - x0) <= 1.0 + 4 * np.finfo(np.float64).eps
        assert_allclose(x - x0, -g0 / np.linalg.norm(g0), rtol=1e-12)


class ScaledQuadratic:
    """Random SPD quadratic whose gradient at its start has a chosen 2-norm.

    Arithmetic stays in the start's dtype, and every call is counted.
    """

    def __init__(self, dim, seed, gradient_norm, dtype):
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        hessian = basis @ np.diag(rng.uniform(0.5, 20.0, dim)) @ basis.T
        self.center = rng.uniform(-1.0, 1.0, dim).astype(dtype)
        self.start = rng.uniform(-1.0, 1.0, dim).astype(dtype)
        g0 = hessian @ (self.start - self.center)
        self.hessian = (hessian * (gradient_norm / np.linalg.norm(g0))).astype(dtype)
        self.evaluate_calls = 0
        self.gradient_calls = 0

    def evaluate(self, x):
        self.evaluate_calls += 1
        offset = x - self.center
        return 0.5 * float(offset @ (self.hessian @ offset))

    def gradient(self, x):
        self.gradient_calls += 1
        return self.hessian @ (x - self.center)


class TestGradientScaleProperties:
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(
        dim=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        log_gradient_norm=st.floats(-3.0, 6.0),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    def test_run_invariants_hold_across_gradient_scales(
        self, dim, seed, log_gradient_norm, dtype
    ):
        objective = ScaledQuadratic(dim, seed, 10.0**log_gradient_norm, dtype)
        x0 = objective.start.copy()
        x, result = LBFGS().optimize(objective, objective.start)
        assert np.array_equal(objective.start, x0)
        assert x.dtype == dtype
        assert np.all(np.isfinite(x))
        assert result.evaluate_calls == objective.evaluate_calls
        assert result.gradient_calls == objective.gradient_calls
        if dtype is np.float64:
            assert result.termination not in (
                TerminationReason.LINE_SEARCH_FAILURE,
                TerminationReason.STEP_SIZE_UNDERFLOW,
            )
