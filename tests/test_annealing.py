"""Acceptance rule, best-ever tracking, and budget accounting for annealing."""

import numpy as np
import pytest

from numopt import Diagnostic, SimulatedAnnealing, StepTaken, TerminationReason


class Recording:
    """Wraps a plain function and records every point it is asked about."""

    def __init__(self, func):
        self.func = func
        self.points = []

    def evaluate(self, x):
        self.points.append(np.array(x, copy=True))
        return self.func(x)


class TestAcceptanceRule:
    def test_equal_value_moves_are_accepted(self):
        # A tie never updates the best, so watch the proposals instead: with
        # ties accepted the current point random-walks, carrying proposals
        # far beyond the half-width 0.02*(1+|x|) reachable from the origin.
        recording = Recording(lambda x: 5.0)
        best, result = SimulatedAnnealing(seed=1, max_iterations=500).optimize(
            recording, np.zeros(1)
        )
        drift = max(abs(float(p[0])) for p in recording.points)
        assert drift > 0.05
        assert np.array_equal(best, np.zeros(1))
        assert result.final_objective == 5.0

    def test_worse_moves_accepted_while_hot(self):
        # Starting at the minimum with temperature 1, every proposal is
        # worse yet exp(-delta/T) is near 1, so the walk still wanders.
        recording = Recording(lambda x: float(x[0] ** 2))
        SimulatedAnnealing(
            initial_temperature=1.0, seed=3, max_iterations=500
        ).optimize(recording, np.zeros(1))
        drift = max(abs(float(p[0])) for p in recording.points)
        assert drift > 0.05

    def test_worse_moves_rejected_when_cold(self):
        # Temperature below min_temperature disables worsening acceptance,
        # so from the exact minimum nothing is ever accepted and every
        # proposal stays within one move of the origin.
        recording = Recording(lambda x: float(x[0] ** 2))
        best, result = SimulatedAnnealing(
            initial_temperature=1e-12, seed=3, max_iterations=500
        ).optimize(recording, np.zeros(1))
        drift = max(abs(float(p[0])) for p in recording.points)
        assert drift <= 0.02
        assert np.array_equal(best, np.zeros(1))
        assert result.final_objective == 0.0

    def test_nan_proposals_are_never_accepted(self):
        def fenced(x):
            if x[0] > 1.0:
                return float("nan")
            return float(x[0] ** 2)

        best, result = SimulatedAnnealing(seed=2, max_iterations=3000).optimize(
            Recording(fenced), np.array([0.9])
        )
        assert np.isfinite(result.final_objective)
        assert best[0] <= 1.0
        assert result.final_objective < 0.81


class TestBestTracking:
    def test_result_is_running_minimum_of_observed_values(self):
        values = []

        def watch(event):
            if isinstance(event, StepTaken):
                values.append(event.objective)

        def wobbly(x):
            return float(np.cos(3.0 * x[0]) + 0.1 * x[0] ** 2)

        objective = Recording(wobbly)
        best, result = SimulatedAnnealing(seed=5, max_iterations=2000).optimize(
            objective, np.array([0.5]), callbacks=[watch]
        )
        f0 = wobbly(np.array([0.5]))
        assert result.final_objective == min([f0] + values)
        assert wobbly(best) == result.final_objective

    def test_returned_point_is_not_the_final_iterate_in_general(self):
        # With one hot temperature stage the walk keeps moving after its
        # best visit; the best value must still be what the result reports.
        def bowl(x):
            return float(x[0] ** 2)

        best, result = SimulatedAnnealing(
            initial_temperature=50.0, cooling_factor=0.99, seed=8, max_iterations=300
        ).optimize(Recording(bowl), np.array([2.0]))
        assert bowl(best) == result.final_objective
        assert result.final_objective <= 4.0


class TestBudgetsAndDeterminism:
    def test_iteration_and_call_accounting(self):
        _, result = SimulatedAnnealing(seed=0, max_iterations=1234).optimize(
            Recording(lambda x: float(x[0] ** 2)), np.array([1.0])
        )
        assert result.iterations == 1234
        assert result.termination == TerminationReason.MAX_ITERATIONS
        assert result.evaluate_calls == 1234 + 1  # starting point plus one per move
        assert result.gradient_calls == 0

    def test_same_seed_reproduces_bitwise(self):
        def bowl(x):
            return float((x[0] - 1.0) ** 2 + (x[1] + 2.0) ** 2)

        runs = [
            SimulatedAnnealing(seed=6, max_iterations=5000).optimize(
                Recording(bowl), np.zeros(2)
            )
            for _ in range(2)
        ]
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1].final_objective == runs[1][1].final_objective

    def test_different_seeds_explore_differently(self):
        def bowl(x):
            return float((x[0] - 1.0) ** 2 + (x[1] + 2.0) ** 2)

        x1, _ = SimulatedAnnealing(seed=6, max_iterations=5000).optimize(
            Recording(bowl), np.zeros(2)
        )
        x2, _ = SimulatedAnnealing(seed=7, max_iterations=5000).optimize(
            Recording(bowl), np.zeros(2)
        )
        assert not np.array_equal(x1, x2)


class TestQuality:
    def test_shifted_quadratic_within_budget(self):
        def shifted(x):
            return float((x[0] - 3.0) ** 2)

        best, result = SimulatedAnnealing(seed=7, max_iterations=60000).optimize(
            Recording(shifted), np.array([0.0])
        )
        assert result.evaluate_calls <= 100000
        assert abs(best[0] - 3.0) < 0.01

    def test_two_dimensional_bowl(self):
        def bowl(x):
            return float((x[0] - 1.0) ** 2 + (x[1] + 2.0) ** 2)

        best, _ = SimulatedAnnealing(seed=0, max_iterations=40000).optimize(
            Recording(bowl), np.zeros(2)
        )
        assert abs(best[0] - 1.0) < 1e-3
        assert abs(best[1] + 2.0) < 1e-3


class TestContract:
    def test_gradient_free_objective_is_enough(self):
        best, result = SimulatedAnnealing(seed=0, max_iterations=100).optimize(
            Recording(lambda x: float(x[0] ** 2)), np.array([0.3])
        )
        assert result.gradient_calls == 0

    def test_missing_evaluate_is_diagnosed(self):
        class GradientOnly:
            def gradient(self, x):
                return np.zeros_like(x)

        with pytest.raises(Diagnostic, match="evaluate"):
            SimulatedAnnealing().optimize(GradientOnly(), np.zeros(1))

    def test_config_validation(self):
        with pytest.raises(Diagnostic, match="cooling_factor"):
            SimulatedAnnealing(cooling_factor=1.0)
        with pytest.raises(Diagnostic, match="initial_temperature"):
            SimulatedAnnealing(initial_temperature=0.0)
        with pytest.raises(Diagnostic, match="move_scale"):
            SimulatedAnnealing(move_scale=0.0)
        with pytest.raises(Diagnostic, match="moves_per_temperature"):
            SimulatedAnnealing(moves_per_temperature=0)
        with pytest.raises(Diagnostic, match="min_temperature"):
            SimulatedAnnealing(min_temperature=0.0)
        with pytest.raises(Diagnostic, match="max_iterations"):
            SimulatedAnnealing(max_iterations=-1)

    def test_start_point_not_mutated(self):
        x0 = np.array([0.25, -0.5])
        SimulatedAnnealing(seed=0, max_iterations=50).optimize(
            Recording(lambda x: float(np.vdot(x, x))), x0
        )
        assert np.array_equal(x0, [0.25, -0.5])
