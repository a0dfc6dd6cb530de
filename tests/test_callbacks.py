"""Dispatch combination rules and the built-in callbacks."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import numopt.optimizers.annealing
import numopt.optimizers.gradient_descent
import numopt.optimizers.lbfgs
import numopt.optimizers.sgd
from numopt import (
    LBFGS,
    SGD,
    BeginOptimization,
    CallbackDecision,
    CallbackList,
    EarlyStopping,
    EndEpoch,
    EndOptimization,
    EvaluateCalled,
    GradientCalled,
    GradientDescent,
    ProgressPrinter,
    SimulatedAnnealing,
    StepTaken,
    TerminationReason,
    TimeLimit,
    TraceRecorder,
    parse_progress_line,
)
from numopt.problems import Rosenbrock, SeparableLinearRegression, generate_noisy_linear


class Quadratic:
    def evaluate(self, x):
        return float(np.vdot(x, x))

    def gradient(self, x):
        return 2.0 * x


def step(k, f=1.0, g=None):
    return StepTaken(iteration=k, objective=f, gradient_norm=g)


class TestDispatch:
    def test_empty_list_continues(self):
        assert CallbackList([]).dispatch(step(1)) is False

    def test_any_terminate_wins_and_all_are_invoked(self):
        calls = []

        def make(name, decision):
            def callback(event):
                calls.append(name)
                return decision

            return callback

        terminate = CallbackList(
            [
                make("a", CallbackDecision.CONTINUE),
                make("b", CallbackDecision.TERMINATE),
                make("c", CallbackDecision.CONTINUE),
            ]
        ).dispatch(step(1))
        assert terminate is True
        assert calls == ["a", "b", "c"]

    def test_none_means_continue(self):
        assert CallbackList([lambda event: None]).dispatch(step(1)) is False

    def test_failing_callback_is_warned_and_ignored(self):
        def broken(event):
            raise RuntimeError("boom")

        with pytest.warns(RuntimeWarning, match="boom"):
            assert CallbackList([broken]).dispatch(step(1)) is False

    @pytest.mark.parametrize(
        "decisions",
        [
            [],
            [None],
            [CallbackDecision.CONTINUE, None],
            [CallbackDecision.TERMINATE, None],
            [RuntimeError, None],
            [None, CallbackDecision.TERMINATE, RuntimeError, CallbackDecision.CONTINUE],
            [RuntimeError, CallbackDecision.TERMINATE, RuntimeError],
        ],
    )
    def test_list_dispatch_decides_delivers_and_warns(self, decisions):
        delivered = []

        def make(position, decision):
            def callback(event):
                delivered.append((position, event))
                if decision is RuntimeError:
                    raise RuntimeError(f"boom {position}")
                return decision

            return callback

        callbacks = CallbackList(make(k, decision) for k, decision in enumerate(decisions))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            terminate = callbacks.dispatch(step(1))
        # Every callback sees the event, including those after one that
        # asked to terminate, and each one that raised is one warning.
        assert terminate == (CallbackDecision.TERMINATE in decisions)
        assert [position for position, _ in delivered] == list(range(len(decisions)))
        assert len(caught) == decisions.count(RuntimeError)
        assert all(warning.category is RuntimeWarning for warning in caught)

    def test_callback_list_flag_is_sticky(self):
        events = CallbackList([lambda event: CallbackDecision.TERMINATE])
        assert events.dispatch(step(1))
        assert events.terminate_requested
        events.callbacks = [lambda event: CallbackDecision.CONTINUE]
        events.dispatch(step(2))
        assert events.terminate_requested

    def test_empty_list_is_falsy(self):
        assert not CallbackList([])
        assert CallbackList([lambda event: None])


class TestEarlyStopping:
    def run_stream(self, values, **kwargs):
        stopper = EarlyStopping(**kwargs)
        for k, value in enumerate(values, start=1):
            if stopper(step(k, value)) == CallbackDecision.TERMINATE:
                return k
        return None

    def test_three_flat_values_fire_patience_three(self):
        # 5,4,3 improve; the next three 3s exhaust patience on the last one.
        assert self.run_stream([5, 4, 3, 3, 3, 3], patience=3) == 6

    def test_strictly_decreasing_never_fires(self):
        assert self.run_stream([10.0 - k for k in range(50)], patience=3) is None

    def test_min_delta_counts_small_improvements_as_stale(self):
        # Improvements of 0.2 are below min_delta, so with patience 2 the
        # third observation terminates.
        assert self.run_stream([5.0, 4.8, 4.6], patience=2, min_delta=0.5) == 3

    def test_watches_epoch_means_too(self):
        stopper = EarlyStopping(patience=1)
        assert stopper(EndEpoch(epoch=1, mean_objective=2.0)) == CallbackDecision.CONTINUE
        assert stopper(EndEpoch(epoch=2, mean_objective=2.0)) == CallbackDecision.TERMINATE

    def test_other_events_ignored(self):
        stopper = EarlyStopping(patience=1)
        assert stopper(BeginOptimization()) == CallbackDecision.CONTINUE
        assert stopper(EvaluateCalled(value=1.0)) == CallbackDecision.CONTINUE

    def test_patience_validated(self):
        with pytest.raises(ValueError, match="patience"):
            EarlyStopping(patience=0)

    def test_reused_stopper_starts_each_run_afresh(self):
        # Without the reset on BeginOptimization, the second run inherits
        # the first run's best value and stops after a few steps.
        x0 = [-1.2, 1.0]
        stopper = EarlyStopping(patience=3)
        LBFGS().optimize(Rosenbrock(), x0, callbacks=[stopper])
        x_reused, reused = LBFGS().optimize(Rosenbrock(), x0, callbacks=[stopper])
        x_fresh, fresh = LBFGS().optimize(Rosenbrock(), x0, callbacks=[EarlyStopping(patience=3)])
        assert reused.termination == fresh.termination
        assert reused.iterations == fresh.iterations
        assert x_reused.tobytes() == x_fresh.tobytes()


class LineSink:
    def __init__(self):
        self.lines = []

    def write(self, text):
        self.lines.extend(text.splitlines())


class TestProgressPrinter:
    def test_one_line_per_step(self):
        sink = LineSink()
        printer = ProgressPrinter(stream=sink)
        for k in range(1, 4):
            printer(step(k, f=0.5 * k))
        assert len(sink.lines) == 3

    def test_period_thins_output(self):
        sink = LineSink()
        printer = ProgressPrinter(stream=sink, period=10)
        for k in range(1, 26):
            printer(step(k))
        assert len(sink.lines) == 2  # steps 10 and 20

    def test_period_validated(self):
        with pytest.raises(ValueError, match="period"):
            ProgressPrinter(period=0)

    def test_line_format_round_trips(self):
        sink = LineSink()
        ProgressPrinter(stream=sink)(step(7, f=0.125, g=2.5))
        assert sink.lines == ["iter=7 f=0.125 g=2.5"]
        assert parse_progress_line(sink.lines[0]) == (7, 0.125, 2.5)

    def test_gradient_norm_omitted_when_absent(self):
        sink = LineSink()
        ProgressPrinter(stream=sink)(step(2, f=3.0))
        assert sink.lines == ["iter=2 f=3.0"]
        assert parse_progress_line(sink.lines[0]) == (2, 3.0, None)

    def test_full_precision_round_trip(self):
        sink = LineSink()
        value = 1.0 / 3.0
        ProgressPrinter(stream=sink)(step(1, f=value, g=value * 2))
        k, f, g = parse_progress_line(sink.lines[0])
        assert f == value and g == value * 2

    def test_write_failure_is_warned_not_raised(self):
        class Broken:
            def write(self, text):
                raise OSError("pipe closed")

        printer = ProgressPrinter(stream=Broken())
        with pytest.warns(RuntimeWarning, match="progress line"):
            assert printer(step(1)) == CallbackDecision.CONTINUE

    def test_rejects_non_progress_line(self):
        for line in ("hello world", "g=1.0", "iter=x f=1", "iter=1 f=abc", "iter=1 f=2 g=zz"):
            with pytest.raises(ValueError, match="not a progress line"):
                parse_progress_line(line)


class TestTraceRecorder:
    def test_trace_length_equals_iterations(self):
        recorder = TraceRecorder()
        _, result = GradientDescent(step_size=0.1, max_iterations=5).optimize(
            Quadratic(), np.array([1.0]), callbacks=[recorder]
        )
        assert len(recorder.trace) == result.iterations
        iterations = [k for k, _ in recorder.trace]
        assert iterations == list(range(1, result.iterations + 1))

    def test_first_entry_matches_closed_form(self):
        # One GD step on f(x)=x^2 with step a scales x by (1-2a), so the
        # objective scales by (1-2a)^2.
        recorder = TraceRecorder()
        GradientDescent(step_size=0.1, max_iterations=3).optimize(
            Quadratic(), np.array([1.0]), callbacks=[recorder]
        )
        assert_allclose(recorder.trace[0][1], (1.0 - 2 * 0.1) ** 2, rtol=1e-12)

    def test_reused_recorder_starts_each_run_afresh(self):
        # Without the new list on BeginOptimization, the second run's pairs
        # are appended to the first run's and its iterations restart at 1.
        shared = TraceRecorder()
        LBFGS().optimize(Rosenbrock(), [-1.2, 1.0], callbacks=[shared])
        first = shared.trace
        first_entries = list(first)
        LBFGS().optimize(Rosenbrock(), [0.5, -0.5], callbacks=[shared])
        fresh = TraceRecorder()
        LBFGS().optimize(Rosenbrock(), [0.5, -0.5], callbacks=[fresh])
        assert shared.trace == fresh.trace
        assert first == first_entries
        assert first[0][0] == shared.trace[0][0] == 1


class TestTimeLimit:
    def test_tiny_limit_terminates_run(self):
        limiter = TimeLimit(1e-7)
        _, result = GradientDescent(step_size=1e-6, max_iterations=100000).optimize(
            Quadratic(), np.array([1.0]), callbacks=[limiter]
        )
        assert result.termination == TerminationReason.CALLBACK_REQUESTED
        assert result.iterations < 100000

    def test_generous_limit_never_fires(self):
        limiter = TimeLimit(3600.0)
        _, result = GradientDescent(step_size=0.1, max_iterations=5).optimize(
            Quadratic(), np.array([1.0]), callbacks=[limiter]
        )
        assert result.termination == TerminationReason.MAX_ITERATIONS

    def test_limit_validated(self):
        with pytest.raises(ValueError, match="limit"):
            TimeLimit(0.0)


class TestTerminationHygiene:
    def test_no_objective_events_after_terminate(self):
        # Terminate at StepTaken(2); afterwards only EndOptimization may appear.
        seen = []

        def observer(event):
            seen.append(type(event).__name__)
            if isinstance(event, StepTaken) and event.iteration == 2:
                return CallbackDecision.TERMINATE

        _, result = GradientDescent(step_size=0.01, max_iterations=100).optimize(
            Quadratic(), np.array([5.0]), callbacks=[observer]
        )
        assert result.termination == TerminationReason.CALLBACK_REQUESTED
        assert result.iterations == 2
        cut = seen.index("StepTaken", seen.index("StepTaken") + 1)
        assert seen[cut + 1 :] == ["EndOptimization"]
        assert seen.count("EvaluateCalled") == result.evaluate_calls
        assert seen.count("GradientCalled") == result.gradient_calls

    def test_step_iterations_strictly_increase(self):
        iterations = []

        def observer(event):
            if isinstance(event, StepTaken):
                iterations.append(event.iteration)

        GradientDescent(step_size=0.1, max_iterations=30).optimize(
            Quadratic(), np.array([3.0]), callbacks=[observer]
        )
        assert iterations == sorted(set(iterations))

    def test_terminate_at_begin_means_no_objective_calls(self):
        def refuse(event):
            if isinstance(event, BeginOptimization):
                return CallbackDecision.TERMINATE

        _, result = GradientDescent().optimize(Quadratic(), np.ones(2), callbacks=[refuse])
        assert result.termination == TerminationReason.CALLBACK_REQUESTED
        assert result.iterations == 0
        assert result.evaluate_calls == 0
        assert result.gradient_calls == 0
        assert np.isnan(result.final_objective)

    def test_evaluate_and_gradient_events_carry_values(self):
        values = []
        norms = []

        def observer(event):
            if isinstance(event, EvaluateCalled):
                values.append(event.value)
            elif isinstance(event, GradientCalled):
                norms.append(event.norm)

        GradientDescent(step_size=0.1, max_iterations=2).optimize(
            Quadratic(), np.array([1.0]), callbacks=[observer]
        )
        assert values[0] == 1.0  # f at x0
        assert norms[0] == 2.0  # max-abs gradient at x0


# Each optimizer module with a run of several steps: (module, optimizer, objective, x0).
STEPPING_RUNS = {
    "gd": lambda: (
        numopt.optimizers.gradient_descent,
        GradientDescent(step_size=0.1, max_iterations=20),
        Quadratic(),
        np.array([3.0, -1.0]),
    ),
    "lbfgs": lambda: (
        numopt.optimizers.lbfgs,
        LBFGS(max_iterations=20),
        Rosenbrock(),
        np.array([-1.2, 1.0]),
    ),
    "sgd": lambda: (
        numopt.optimizers.sgd,
        SGD(batch_size=4, max_iterations=20),
        SeparableLinearRegression(*generate_noisy_linear(3, 40, 1.0, seed=0)[:2]),
        np.zeros(3),
    ),
    "annealing": lambda: (
        numopt.optimizers.annealing,
        SimulatedAnnealing(max_iterations=20),
        Quadratic(),
        np.array([3.0, -1.0]),
    ),
}


class TestIdleObservation:
    @pytest.mark.parametrize("name", sorted(STEPPING_RUNS))
    @pytest.mark.parametrize("observed", [False, True], ids=["idle", "observed"])
    def test_step_events_are_built_only_when_observed(self, monkeypatch, name, observed):
        module, optimizer, objective, x0 = STEPPING_RUNS[name]()
        built = []

        class CountedStep(StepTaken):
            def __init__(self, **fields):
                built.append(fields["iteration"])
                super().__init__(**fields)

        monkeypatch.setattr(module, "StepTaken", CountedStep)
        callbacks = [lambda event: None] if observed else []
        _, result = optimizer.optimize(objective, x0, callbacks=callbacks)
        assert result.iterations == 20
        assert built == (list(range(1, 21)) if observed else [])
