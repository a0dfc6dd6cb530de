"""Update policies, batch scheduling, and the SGD loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from numopt import (
    AdamUpdate,
    BeginEpoch,
    BeginOptimization,
    CallbackDecision,
    Diagnostic,
    EndEpoch,
    EndOptimization,
    GradientDescent,
    MomentumUpdate,
    SGD,
    StepTaken,
    TerminationReason,
    VanillaUpdate,
)
from numopt.problems import (
    LinearRegression,
    SeparableLinearRegression,
    generate_noisy_linear,
)

# Epoch-mean objective of the frozen Adam run below, recorded once and
# pinned so behavioural drift shows up as a test failure.
ADAM_REFERENCE_OBSERVED = 0.009125663599890673


class TestVanillaUpdate:
    def test_increment_is_negated_scaled_gradient(self):
        policy = VanillaUpdate()
        state = policy.initialize(np.zeros(2))
        increment = policy.step(state, np.array([2.0, -4.0]), 0.1)
        assert np.array_equal(increment, [-0.2, 0.4])
        assert state is None


class TestMomentumUpdate:
    def test_first_step_matches_vanilla(self):
        policy = MomentumUpdate(momentum=0.9)
        velocity = policy.initialize(np.zeros(2))
        increment = policy.step(velocity, np.array([1.0, 0.0]), 0.1)
        assert_allclose(increment, [-0.1, 0.0], rtol=1e-15)

    def test_constant_gradient_velocity_approaches_geometric_limit(self):
        # v_k = (1 - mu^k)/(1 - mu) * g, so the increment tends to
        # -step * g / (1 - mu).
        policy = MomentumUpdate(momentum=0.9)
        g = np.array([1.0, -2.0])
        velocity = policy.initialize(g)
        for _ in range(200):
            increment = policy.step(velocity, g, 0.1)
        assert_allclose(increment, -0.1 * g / 0.1, rtol=1e-8)

    def test_zero_gradient_decays_velocity(self):
        policy = MomentumUpdate(momentum=0.9)
        velocity = policy.initialize(np.zeros(1))
        policy.step(velocity, np.array([1.0]), 0.1)
        increment = policy.step(velocity, np.array([0.0]), 0.1)
        assert_allclose(increment, [-0.1 * 0.9], rtol=1e-15)

    def test_momentum_validated(self):
        with pytest.raises(Diagnostic, match="momentum"):
            MomentumUpdate(momentum=1.0)


class TestAdamUpdate:
    def test_first_step_direction_and_magnitude(self):
        # Bias correction makes m_hat = g and v_hat = g*g on step one, so
        # each coordinate moves -step * g / (|g| + eps).
        policy = AdamUpdate()
        state = policy.initialize(np.zeros(3))
        g = np.array([0.5, -2.0, 1e-3])
        increment = policy.step(state, g, 0.1)
        expected = -0.1 * g / (np.abs(g) + 1e-8)
        assert_allclose(increment, expected, rtol=1e-12)

    def test_zero_gradient_coordinate_does_not_move(self):
        policy = AdamUpdate()
        state = policy.initialize(np.zeros(2))
        increment = policy.step(state, np.array([1.0, 0.0]), 0.1)
        assert increment[1] == 0.0

    def test_constant_gradient_keeps_the_first_step_size(self):
        # With a constant gradient the bias corrections cancel exactly at
        # every step, so the increment never changes.
        policy = AdamUpdate()
        g = np.array([3.0, -0.25])
        state = policy.initialize(g)
        first = policy.step(state, g, 0.1)
        for _ in range(5):
            later = policy.step(state, g, 0.1)
        assert_allclose(later, first, rtol=1e-12)

    def test_coordinate_steps_bounded_by_step_size(self):
        rng = np.random.default_rng(11)
        policy = AdamUpdate()
        state = policy.initialize(np.zeros(4))
        for _ in range(50):
            increment = policy.step(state, rng.normal(size=4), 0.05)
            assert np.max(np.abs(increment)) <= 0.05 * (1 + 1e-12)

    @pytest.mark.parametrize("beta1, beta2", [(0.9, 0.999), (0.5, 0.9), (0.0, 0.0)])
    def test_matches_the_textbook_formula(self, beta1, beta2):
        # Kingma & Ba, Algorithm 1, with both bias corrections on the moments.
        rng = np.random.default_rng(12)
        policy = AdamUpdate(beta1=beta1, beta2=beta2)
        state = policy.initialize(np.zeros(5))
        m = np.zeros(5)
        v = np.zeros(5)
        for t in range(1, 201):
            g = rng.normal(size=5) * 10.0 ** rng.integers(-4, 3, size=5)
            step_size = rng.uniform(1e-3, 1.0)
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g**2
            m_hat = m / (1 - beta1**t)
            v_hat = v / (1 - beta2**t)
            expected = -step_size * m_hat / (np.sqrt(v_hat) + policy.epsilon)
            assert_allclose(policy.step(state, g, step_size), expected, rtol=1e-12)
        assert state.t == 200

    def test_float32_run_stays_float32(self):
        rng = np.random.default_rng(13)
        policy = AdamUpdate()
        state = policy.initialize(np.zeros(5, dtype=np.float32))
        reference = policy.initialize(np.zeros(5))
        for _ in range(200):
            g = rng.normal(size=5)
            increment = policy.step(state, g.astype(np.float32), 0.01)
            expected = policy.step(reference, g, 0.01)
            assert increment.dtype == state.m.dtype == state.v.dtype == np.float32
            assert_allclose(increment, expected, rtol=1e-4, atol=1e-7)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from([np.float32, np.float64]),
        shape=st.sampled_from([(5,), (5, 1)]),
        betas=st.sampled_from([(0.9, 0.999), (0.5, 0.9), (0.0, 0.0), (0.1, 0.3)]),
        epsilon=st.sampled_from([1e-8, 1e-3, 0.7]),
    )
    def test_step_is_the_python_scalar_formula_bitwise(self, seed, dtype, shape, betas, epsilon):
        # The formula with beta1, beta2 and epsilon as Python floats, which
        # NumPy converts to the arrays' dtype on every call.
        beta1, beta2 = betas
        rng = np.random.default_rng(seed)
        policy = AdamUpdate(beta1=beta1, beta2=beta2, epsilon=epsilon)
        state = policy.initialize(np.zeros(shape, dtype=dtype))
        m = np.zeros(shape, dtype=dtype)
        v = np.zeros(shape, dtype=dtype)
        for t in range(1, 51):
            g = (rng.normal(size=shape) * 10.0 ** rng.integers(-4, 3, size=shape)).astype(dtype)
            step_size = rng.uniform(1e-3, 1.0)
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * g * g
            denominator = np.sqrt(v / (1.0 - beta2**t)) + epsilon
            expected = m * (-step_size / (1.0 - beta1**t)) / denominator
            increment = policy.step(state, g, step_size)
            assert increment.dtype == state.m.dtype == state.v.dtype == dtype
            assert increment.shape == shape
            assert increment.tobytes() == expected.tobytes()
            assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()

    def test_config_validated(self):
        with pytest.raises(Diagnostic, match="beta1"):
            AdamUpdate(beta1=1.0)
        with pytest.raises(Diagnostic, match="beta2"):
            AdamUpdate(beta2=-0.1)
        with pytest.raises(Diagnostic, match="epsilon"):
            AdamUpdate(epsilon=0.0)


class RecordingParts:
    """Separable objective that logs every window it is asked about."""

    def __init__(self, inner):
        self.inner = inner
        self.windows = []

    @property
    def num_parts(self):
        return self.inner.num_parts

    def evaluate_parts(self, x, first, count):
        self.windows.append((first, count))
        return self.inner.evaluate_parts(x, first, count)

    def gradient_parts(self, x, first, count):
        return self.inner.gradient_parts(x, first, count)


class TwoLinearParts:
    """Two parts with gradients 1 and 3 on a single coordinate."""

    slopes = (1.0, 3.0)

    @property
    def num_parts(self):
        return 2

    def evaluate_parts(self, x, first, count):
        return float(sum(self.slopes[j] * x[0] for j in range(first, first + count)))

    def gradient_parts(self, x, first, count):
        return np.array([sum(self.slopes[first:first + count])])


def mean_form(separable):
    n = separable.num_parts

    class MeanForm:
        def evaluate(self, x):
            return separable.evaluate_parts(x, 0, n) / n

        def gradient(self, x):
            return separable.gradient_parts(x, 0, n) / n

    return MeanForm()


STRUCTURAL = (BeginOptimization, BeginEpoch, StepTaken, EndEpoch, EndOptimization)


class TestSgdLoop:
    def setup_method(self):
        self.X, self.y, _ = generate_noisy_linear(3, 100, noise_scale=0.5, seed=1)
        self.objective = SeparableLinearRegression(self.X, self.y)

    def test_single_step_averages_the_window_gradient(self):
        x, result = SGD(
            step_size=0.1, batch_size=2, max_iterations=1, shuffle=False
        ).optimize(TwoLinearParts(), np.array([1.0]))
        # averaged gradient (1+3)/2 = 2, so one step moves by -0.2
        assert x[0] == 1.0 - 0.2
        assert result.iterations == 1
        assert result.termination == TerminationReason.MAX_ITERATIONS
        assert result.final_objective == 2.0  # batch value 4 over 2 parts

    def test_windows_are_contiguous_and_keep_the_short_tail(self):
        recorder = RecordingParts(self.objective)
        SGD(batch_size=32, max_iterations=4, shuffle=False).optimize(
            recorder, np.zeros((3, 1))
        )
        assert recorder.windows == [(0, 32), (32, 32), (64, 32), (96, 4)]

    def test_float32_run_divides_each_window_by_its_size_in_float32(self):
        # n=100 in windows of 32 leaves a short window of 4; two epochs
        # visit it twice.  The reference divides by the Python int.
        objective = SeparableLinearRegression(self.X.astype(np.float32), self.y.astype(np.float32))
        x0 = np.zeros((3, 1), dtype=np.float32)
        x, result = SGD(
            step_size=0.01, batch_size=32, max_iterations=8, shuffle=False
        ).optimize(objective, x0)
        expected = x0
        for first, count in [(0, 32), (32, 32), (64, 32), (96, 4)] * 2:
            expected = expected + -(0.01 * (objective.gradient_parts(expected, first, count) / count))
        assert result.iterations == 8
        assert x.dtype == expected.dtype == np.float32
        assert x.tobytes() == expected.tobytes()

    def test_shuffled_visit_order_is_seeded_permutation(self):
        recorder = RecordingParts(self.objective)
        SGD(batch_size=32, max_iterations=4, shuffle=True, seed=9).optimize(
            recorder, np.zeros((3, 1))
        )
        starts = [0, 32, 64, 96]
        expected = [starts[i] for i in np.random.default_rng(9).permutation(4)]
        assert [first for first, _ in recorder.windows] == expected

    def test_same_seed_is_bitwise_reproducible(self):
        config = dict(step_size=0.01, batch_size=16, max_iterations=50, seed=4)
        x1, r1 = SGD(**config).optimize(self.objective, np.zeros((3, 1)))
        x2, r2 = SGD(**config).optimize(self.objective, np.zeros((3, 1)))
        assert np.array_equal(x1, x2)
        assert r1.final_objective == r2.final_objective

    def test_different_seeds_visit_batches_differently(self):
        x1, _ = SGD(batch_size=16, max_iterations=50, seed=4).optimize(
            self.objective, np.zeros((3, 1))
        )
        x2, _ = SGD(batch_size=16, max_iterations=50, seed=5).optimize(
            self.objective, np.zeros((3, 1))
        )
        assert not np.array_equal(x1, x2)

    def test_full_batch_vanilla_equals_gradient_descent_bitwise(self):
        # One window covering every part plus the vanilla policy performs
        # the exact float operations of fixed-step descent on the mean
        # objective, so 100 steps agree to the last bit.
        x_sgd, r_sgd = SGD(
            step_size=0.05,
            batch_size=self.objective.num_parts,
            max_iterations=100,
            tolerance=0.0,
        ).optimize(self.objective, np.zeros((3, 1)))
        x_gd, r_gd = GradientDescent(
            step_size=0.05,
            max_iterations=100,
            min_gradient_norm=0.0,
            min_objective_improvement=0.0,
        ).optimize(mean_form(self.objective), np.zeros((3, 1)))
        assert r_sgd.iterations == r_gd.iterations == 100
        assert np.array_equal(x_sgd, x_gd)

    def test_constant_objective_stops_on_epoch_tolerance(self):
        class Flat:
            num_parts = 6

            def evaluate_parts(self, x, first, count):
                return float(count)

            def gradient_parts(self, x, first, count):
                return np.zeros_like(x)

        _, result = SGD(batch_size=2, tolerance=1e-5).optimize(Flat(), np.zeros(2))
        assert result.termination == TerminationReason.OBJECTIVE_IMPROVEMENT_TOLERANCE
        assert result.iterations == 6  # two complete epochs of three windows
        assert result.final_objective == 1.0

    def test_epoch_events_bracket_step_events(self):
        events = []

        def capture(event):
            if isinstance(event, STRUCTURAL):
                events.append(event)

        SGD(batch_size=3, max_iterations=4, shuffle=False).optimize(
            TwoParts6(), np.zeros(1), callbacks=[capture]
        )
        kinds = [type(e).__name__ for e in events]
        assert kinds == [
            "BeginOptimization",
            "BeginEpoch",
            "StepTaken",
            "StepTaken",
            "EndEpoch",
            "BeginEpoch",
            "StepTaken",
            "StepTaken",
            "EndEpoch",
            "EndOptimization",
        ]
        assert events[1].epoch == 1
        assert events[5].epoch == 2

    @pytest.mark.parametrize("epochs", [1, 2, 3])
    @pytest.mark.parametrize("shuffle", [True, False])
    def test_a_cap_on_an_epoch_boundary_ends_at_that_epochs_end(self, epochs, shuffle):
        # A tolerance of 0 is never met: the cap alone ends the run, after
        # EndEpoch and before any further BeginEpoch.
        kinds = []
        _, result = SGD(
            batch_size=3, max_iterations=2 * epochs, tolerance=0.0, shuffle=shuffle
        ).optimize(TwoParts6(), np.zeros(1), callbacks=[lambda e: kinds.append(type(e))])
        structural = [kind for kind in kinds if kind in STRUCTURAL]
        epoch = [BeginEpoch, StepTaken, StepTaken, EndEpoch]
        assert structural == [BeginOptimization, *epoch * epochs, EndOptimization]
        assert result.iterations == 2 * epochs
        assert result.termination == TerminationReason.MAX_ITERATIONS

    def test_the_tolerance_wins_a_tie_with_a_cap_on_the_same_epoch(self):
        # TwoParts6's epoch means are equal, so the tolerance is met at the
        # end of epoch 2, the step on which the cap of 4 is reached too.
        kinds = []
        _, result = SGD(batch_size=3, max_iterations=4, tolerance=1e-5).optimize(
            TwoParts6(), np.zeros(1), callbacks=[lambda e: kinds.append(type(e))]
        )
        structural = [kind for kind in kinds if kind in STRUCTURAL]
        assert structural[-2:] == [EndEpoch, EndOptimization]
        assert structural.count(BeginEpoch) == 2
        assert result.iterations == 4
        assert result.termination == TerminationReason.OBJECTIVE_IMPROVEMENT_TOLERANCE

    def test_final_objective_is_epoch_mean_after_complete_epoch(self):
        seen = []

        def watch(event):
            if isinstance(event, EndEpoch):
                seen.append(event.mean_objective)

        _, result = SGD(batch_size=16, max_iterations=70, seed=2).optimize(
            self.objective, np.zeros((3, 1)), callbacks=[watch]
        )
        # 70 steps = 10 complete epochs of 7 windows
        assert result.final_objective == seen[-1]

    def test_final_objective_is_last_batch_mean_mid_epoch(self):
        seen = []

        def watch(event):
            if isinstance(event, StepTaken):
                seen.append(event.objective)

        _, result = SGD(batch_size=16, max_iterations=10, seed=2).optimize(
            self.objective, np.zeros((3, 1)), callbacks=[watch]
        )
        assert result.iterations == 10
        assert result.final_objective == seen[-1]

    def test_adam_halves_a_noisy_regression(self):
        X, y, _ = generate_noisy_linear(2, 100, noise_scale=0.1, seed=3)
        objective = SeparableLinearRegression(X, y)
        full = LinearRegression(X, y)
        initial = full.evaluate(np.zeros((2, 1)))
        x, result = SGD(
            step_size=0.05,
            batch_size=25,
            max_iterations=200,
            tolerance=0.0,
            seed=3,
            update=AdamUpdate(),
        ).optimize(objective, np.zeros((2, 1)))
        assert result.iterations == 200
        assert full.evaluate(x) < 0.5 * initial
        assert_allclose(result.final_objective, ADAM_REFERENCE_OBSERVED, rtol=1e-12)

    def test_momentum_policy_runs_and_improves(self):
        full = LinearRegression(self.X, self.y)
        initial = full.evaluate(np.zeros((3, 1)))
        x, _ = SGD(
            step_size=0.01,
            batch_size=16,
            max_iterations=300,
            tolerance=0.0,
            update=MomentumUpdate(),
        ).optimize(self.objective, np.zeros((3, 1)))
        assert full.evaluate(x) < initial

    def test_callback_terminate_mid_epoch(self):
        def stop(event):
            if isinstance(event, StepTaken) and event.iteration == 5:
                return CallbackDecision.TERMINATE

        _, result = SGD(batch_size=16).optimize(
            self.objective, np.zeros((3, 1)), callbacks=[stop]
        )
        assert result.iterations == 5
        assert result.termination == TerminationReason.CALLBACK_REQUESTED

    @pytest.mark.parametrize("max_iterations", [0, 2], ids=["uncapped", "cap-at-epoch-end"])
    def test_callback_terminate_at_epoch_end(self, max_iterations):
        # The run ends at that EndEpoch: no BeginEpoch follows, and a cap
        # reached by the same epoch does not take over the reason.
        kinds = []

        def stop(event):
            kinds.append(type(event).__name__)
            if isinstance(event, EndEpoch):
                return CallbackDecision.TERMINATE

        _, result = SGD(batch_size=3, max_iterations=max_iterations, shuffle=False).optimize(
            TwoParts6(), np.zeros(1), callbacks=[stop]
        )
        assert kinds[-2:] == ["EndEpoch", "EndOptimization"]
        assert result.iterations == 2
        assert result.termination == TerminationReason.CALLBACK_REQUESTED

    def test_requires_part_methods(self):
        class FullOnly:
            def evaluate(self, x):
                return 0.0

            def gradient(self, x):
                return np.zeros_like(x)

        with pytest.raises(Diagnostic, match="evaluate_parts"):
            SGD().optimize(FullOnly(), np.zeros(2))

    def test_config_validation(self):
        with pytest.raises(Diagnostic, match="batch_size"):
            SGD(batch_size=0)
        with pytest.raises(Diagnostic, match="step_size"):
            SGD(step_size=-1.0)
        with pytest.raises(Diagnostic, match="max_iterations"):
            SGD(max_iterations=-1)
        with pytest.raises(Diagnostic, match="tolerance"):
            SGD(tolerance=-1.0)

    class StepOnly:
        def step(self, state, gradient, step_size):
            return -gradient

    # Refused when SGD is built: a policy without these methods used to end
    # its first run in an AttributeError after BeginOptimization.
    @pytest.mark.parametrize("update", ["adam", None, StepOnly(), AdamUpdate, StepOnly])
    def test_an_update_without_initialize_and_step_is_refused(self, update):
        kind = type(update).__name__
        if isinstance(update, type):
            # A policy class has both methods, unbound: its run used to end
            # in a TypeError after BeginOptimization.
            kind = f"the class {update.__name__} (pass an instance, {update.__name__}())"
        with pytest.raises(Diagnostic) as raised:
            SGD(update=update)
        assert str(raised.value) == f"update must have callable initialize and step, got {kind}"


class TwoParts6:
    """Six parts in two windows of three; values depend only on the window."""

    num_parts = 6

    def evaluate_parts(self, x, first, count):
        return float(first + count)

    def gradient_parts(self, x, first, count):
        return np.zeros_like(x)
