"""Fixed-step descent checked against the hand recurrence x <- x - a*g."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from numopt import (
    CallbackDecision,
    Diagnostic,
    GradientDescent,
    StepTaken,
    TerminationReason,
    TraceRecorder,
)


class Quadratic:
    def evaluate(self, x):
        return float(np.vdot(x, x))

    def gradient(self, x):
        return 2.0 * x


class TestGradientDescent:
    def test_iterates_match_manual_recurrence_bitwise(self):
        objective = Quadratic()
        step = 0.07
        x0 = np.array([3.0, -2.0, 0.5])
        x, result = GradientDescent(step_size=step, max_iterations=25).optimize(objective, x0)
        expected = x0.copy()
        for _ in range(25):
            expected = expected - step * objective.gradient(expected)
        assert np.array_equal(x, expected)
        assert result.iterations == 25

    def test_contraction_closed_form(self):
        # With f = |x|^2 and step 0.1 each iteration multiplies x by 0.8.
        x, result = GradientDescent(step_size=0.1, max_iterations=20).optimize(
            Quadratic(), np.array([1.0])
        )
        assert_allclose(x, [0.8**20], rtol=1e-12)

    def test_divergence_reports_iteration_cap_not_convergence(self):
        x, result = GradientDescent(step_size=1.1, max_iterations=50).optimize(
            Quadratic(), np.array([1.0])
        )
        assert result.termination == TerminationReason.MAX_ITERATIONS
        assert result.final_objective > 1.0

    def test_stationary_start(self):
        _, result = GradientDescent().optimize(Quadratic(), np.zeros(4))
        assert result.iterations == 0
        assert result.termination == TerminationReason.GRADIENT_NORM_TOLERANCE
        assert result.evaluate_calls == 1
        assert result.gradient_calls == 1

    def test_improvement_stop_when_progress_shrinks(self):
        # Improvements shrink geometrically (0.36 * 0.64^(k-1)); the first
        # one at or below 1e-10 arrives at iteration 51, well before the
        # gradient norm reaches 1e-6.
        _, result = GradientDescent(step_size=0.1).optimize(Quadratic(), np.array([1.0]))
        assert result.termination == TerminationReason.OBJECTIVE_IMPROVEMENT_TOLERANCE
        assert result.iterations == 51

    def test_counts_on_gradient_norm_stop(self):
        _, result = GradientDescent(step_size=0.1, min_gradient_norm=1e-3).optimize(
            Quadratic(), np.array([1.0])
        )
        assert result.termination == TerminationReason.GRADIENT_NORM_TOLERANCE
        assert result.evaluate_calls == 1 + result.iterations
        assert result.gradient_calls == result.iterations + 1

    def test_counts_on_improvement_stop(self):
        _, result = GradientDescent(step_size=0.1).optimize(Quadratic(), np.array([1.0]))
        assert result.termination == TerminationReason.OBJECTIVE_IMPROVEMENT_TOLERANCE
        assert result.evaluate_calls == 1 + result.iterations
        assert result.gradient_calls == result.iterations

    def test_step_events_carry_pre_step_gradient_norm(self):
        seen = []

        def watch(event):
            if isinstance(event, StepTaken):
                seen.append(event)

        GradientDescent(step_size=0.1, max_iterations=2).optimize(
            Quadratic(), np.array([1.0]), callbacks=[watch]
        )
        assert seen[0].iteration == 1
        assert seen[0].gradient_norm == 2.0
        assert_allclose(seen[0].objective, 0.64, rtol=1e-15)
        assert_allclose(seen[1].gradient_norm, 2.0 * 0.8, rtol=1e-15)

    def test_callback_terminate_keeps_iteration_count(self):
        def stop_at_three(event):
            if isinstance(event, StepTaken) and event.iteration == 3:
                return CallbackDecision.TERMINATE

        _, result = GradientDescent(step_size=0.1).optimize(
            Quadratic(), np.array([1.0]), callbacks=[stop_at_three]
        )
        assert result.iterations == 3
        assert result.termination == TerminationReason.CALLBACK_REQUESTED

    def test_trace_length_equals_iterations(self):
        recorder = TraceRecorder()
        _, result = GradientDescent(step_size=0.1, max_iterations=7).optimize(
            Quadratic(), np.array([2.0]), callbacks=[recorder]
        )
        assert len(recorder.trace) == result.iterations == 7

    def test_start_point_not_mutated(self):
        x0 = np.array([1.0, 2.0])
        GradientDescent(max_iterations=3).optimize(Quadratic(), x0)
        assert np.array_equal(x0, [1.0, 2.0])

    def test_config_validation(self):
        with pytest.raises(Diagnostic, match="step_size"):
            GradientDescent(step_size=0.0)
        with pytest.raises(Diagnostic, match="max_iterations"):
            GradientDescent(max_iterations=-1)
        with pytest.raises(Diagnostic, match="min_gradient_norm must be >= 0, got -1.0"):
            GradientDescent(min_gradient_norm=-1.0)
        with pytest.raises(Diagnostic, match="min_objective_improvement must be >= 0, got -1.0"):
            GradientDescent(min_objective_improvement=-1.0)

    def test_requires_gradient(self):
        class EvaluateOnly:
            def evaluate(self, x):
                return 0.0

        with pytest.raises(Diagnostic, match="gradient"):
            GradientDescent().optimize(EvaluateOnly(), np.ones(2))
