"""Acceptance rule, best-ever tracking, and budget accounting for annealing."""

import numpy as np
import pytest

import numopt.optimizers.annealing
from numopt import Diagnostic, SimulatedAnnealing, StepTaken, TerminationReason, TraceRecorder


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


def nowhere_but_start(x0):
    """Objective that is 0 at ``x0`` and NaN elsewhere, so no move is accepted."""
    start = np.array(x0, copy=True)
    return Recording(lambda x: 0.0 if np.array_equal(x, start) else float("nan"))


def bumpy(x):
    return float(np.sum(np.cos(3.0 * x) + 0.1 * x * x))


class TestMoveStream:
    def run(self, max_iterations, moves_per_temperature=None, seed=4):
        recording, recorder = Recording(bumpy), TraceRecorder()
        best, result = SimulatedAnnealing(
            initial_temperature=2.0,
            moves_per_temperature=moves_per_temperature,
            max_iterations=max_iterations,
            seed=seed,
        ).optimize(recording, np.array([0.5, -1.0, 2.0]), callbacks=[recorder])
        return recording.points, recorder.trace, result

    @pytest.mark.parametrize("moves_per_temperature", [None, 7])
    def test_capped_run_is_the_prefix_of_a_longer_run(self, moves_per_temperature):
        # 300 moves end past the first block of drawn uniforms, 1000 far past it.
        short_points, short_trace, short = self.run(300, moves_per_temperature)
        long_points, long_trace, _ = self.run(1000, moves_per_temperature)
        assert short.iterations == len(short_trace) == 300
        assert short_trace == long_trace[:300]
        assert len(short_points) == 301
        for mine, theirs in zip(short_points, long_points):
            assert np.array_equal(mine, theirs)
        start_value = bumpy(short_points[0])
        assert short.final_objective == min([start_value] + [f for _, f in long_trace[:300]])

    @pytest.mark.parametrize("chunk", [1, 5])
    def test_moves_do_not_depend_on_how_many_are_drawn_at_once(self, monkeypatch, chunk):
        points, trace, _ = self.run(600)
        monkeypatch.setattr(numopt.optimizers.annealing, "_CHUNK", chunk)
        other_points, other_trace, _ = self.run(600)
        assert trace == other_trace
        assert all(map(np.array_equal, points, other_points))

    def test_move_reads_three_uniforms_of_the_seeded_stream(self):
        # Every move is rejected, so each proposal perturbs x0 itself.
        x0 = np.array([0.5, -1.0, 2.0, 0.0])
        recording = nowhere_but_start(x0)
        SimulatedAnnealing(move_scale=0.1, max_iterations=40, seed=11).optimize(recording, x0)
        uniforms = np.random.default_rng(11).random((40, 3)).tolist()
        for proposal, (u_coordinate, u_offset, _) in zip(recording.points[1:], uniforms):
            j = int(u_coordinate * x0.size)
            expected = x0.copy()
            expected[j] += 0.1 * (1.0 + abs(float(x0[j]))) * (2.0 * u_offset - 1.0)
            assert np.array_equal(proposal, expected)

    def test_offsets_lie_in_the_half_open_window_and_reach_every_coordinate(self):
        # From the origin each offset is the proposal itself, with no rounding.
        size, scale = 7, 0.3
        x0 = np.zeros(size)
        recording = nowhere_but_start(x0)
        SimulatedAnnealing(move_scale=scale, max_iterations=2000, seed=2).optimize(
            recording, x0
        )
        proposals = np.array(recording.points[1:])
        moved = proposals != 0.0
        assert np.all(moved.sum(axis=1) == 1)
        offsets = proposals[moved]
        assert np.all((-scale <= offsets) & (offsets < scale))
        # Both ends of the window are reached, so the offsets span all of it.
        assert offsets.min() < -0.99 * scale and offsets.max() > 0.99 * scale
        coordinates = np.argmax(moved, axis=1)
        assert set(coordinates.tolist()) == set(range(size))


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
