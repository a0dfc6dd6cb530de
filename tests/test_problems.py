"""Objective formulas against hand values, finite differences, and shape rules."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from numopt import (
    Diagnostic,
    GradientDescent,
    ObjectiveAdapter,
    TerminationReason,
    finite_difference_gradient,
)
from numopt.problems import (
    LinearRegression,
    LogisticRegression,
    Rosenbrock,
    SeparableLinearRegression,
    generate_noisy_linear,
    load_csv,
)

# Scalar logistic instance x=2, y=1, phi=1: value log(1+e^2) - 2 and gradient
# 2*(sigma(2)-1).  Constants computed with a 40-digit evaluation and rounded
# to double precision.
LOGREG_SCALAR_VALUE = 0.1269280110429725
LOGREG_SCALAR_GRADIENT = -0.23840584404423511


def relative_gradient_gap(objective, phi):
    analytic = np.asarray(objective.gradient(phi), dtype=np.float64)
    numeric = finite_difference_gradient(objective, phi)
    return float(np.max(np.abs(numeric - analytic) / (1.0 + np.abs(analytic))))


class TestLinearRegression:
    def test_hand_value(self):
        objective = LinearRegression([[1.0, 2.0]], [1.0, 2.0])
        assert objective.evaluate(np.zeros(1)) == 5.0

    def test_hand_gradient(self):
        objective = LinearRegression([[1.0, 2.0]], [1.0, 2.0])
        assert_allclose(objective.gradient(np.zeros(1)), [-10.0])

    def test_exact_solution_gives_zero(self):
        # X = I, y = phi, so X.T phi = y exactly.
        objective = LinearRegression(np.eye(3), [1.0, 2.0, 3.0])
        assert objective.evaluate(np.array([1.0, 2.0, 3.0])) == 0.0

    def test_zero_data_zero_value(self):
        objective = LinearRegression([[1.0, 2.0]], [0.0, 0.0])
        assert objective.evaluate(np.zeros(1)) == 0.0

    def test_value_nonnegative_and_zero_iff_zero_residual(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(-1, 1, (4, 30))
        y = rng.uniform(-1, 1, 30)
        objective = LinearRegression(X, y)
        for _ in range(10):
            phi = rng.uniform(-2, 2, 4)
            value = objective.evaluate(phi)
            assert value >= 0.0
            assert (value == 0.0) == bool(np.all(X.T @ phi == y))

    def test_gradient_zero_at_least_squares_solution(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, (5, 80))
        y = rng.uniform(-1, 1, 80)
        solution = np.linalg.solve(X @ X.T, X @ y)
        g = LinearRegression(X, y).gradient(solution)
        assert np.max(np.abs(g)) < 1e-10 * max(1.0, np.max(np.abs(y)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-1, 1, (4, 25))
        y = rng.uniform(-1, 1, 25)
        objective = LinearRegression(X, y)
        for _ in range(20):
            assert relative_gradient_gap(objective, rng.uniform(-2, 2, 4)) < 1e-6

    def test_gradient_shape_follows_parameters(self):
        objective = LinearRegression([[1.0, 2.0]], [1.0, 2.0])
        assert objective.gradient(np.zeros((1, 1))).shape == (1, 1)
        assert objective.gradient(np.zeros(1)).shape == (1,)

    def test_shape_mismatch_is_diagnostic(self):
        objective = LinearRegression([[1.0, 2.0]], [1.0, 2.0])
        with pytest.raises(Diagnostic, match="parameters"):
            objective.evaluate(np.zeros(3))

    def test_inconsistent_data_is_diagnostic(self):
        with pytest.raises(Diagnostic, match="columns"):
            LinearRegression(np.ones((2, 5)), np.ones(4))
        with pytest.raises(Diagnostic, match="non-empty"):
            LinearRegression(np.ones((2, 0)), [])
        with pytest.raises(Diagnostic, match="d x n"):
            LinearRegression(np.ones(5), np.ones(5))

    def test_integer_data_becomes_float64(self):
        objective = LinearRegression([[1, 2]], [1, 2])
        assert objective.X.dtype == objective.y.dtype == np.float64
        assert objective.evaluate(np.zeros(1)) == 5.0

    def test_provides_exactly_evaluate_and_gradient(self):
        objective = LinearRegression([[1.0]], [1.0])
        assert callable(objective.evaluate) and callable(objective.gradient)
        for absent in ("evaluate_with_gradient", "evaluate_parts", "gradient_parts", "num_parts"):
            assert not hasattr(objective, absent)


class TestSeparableLinearRegression:
    def test_hand_part_values(self):
        objective = SeparableLinearRegression([[1.0, 2.0]], [1.0, 2.0])
        assert objective.evaluate_parts(np.zeros(1), 0, 1) == 1.0
        assert objective.evaluate_parts(np.zeros(1), 1, 1) == 4.0

    def test_full_window_equals_direct_evaluate_bitwise(self):
        for dtype in (np.float32, np.float64):
            rng = np.random.default_rng(9)
            for _ in range(10):
                X = rng.uniform(-1, 1, (6, 40)).astype(dtype)
                y = rng.uniform(-1, 1, 40).astype(dtype)
                phi = rng.uniform(-1, 1, 6).astype(dtype)
                direct = LinearRegression(X, y)
                separable = SeparableLinearRegression(X, y)
                assert separable.evaluate_parts(phi, 0, 40) == direct.evaluate(phi)
                assert np.array_equal(separable.gradient_parts(phi, 0, 40), direct.gradient(phi))

    def test_single_part_with_exact_fit_is_zero(self):
        objective = SeparableLinearRegression([[1.0, 2.0]], [0.0, 2.0])
        # part 1: x_1 = 2, y_1 = 2, phi = 1 fits exactly.
        assert objective.evaluate_parts(np.array([1.0]), 1, 1) == 0.0

    def test_window_gradient_matches_sum_of_parts(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, (3, 12))
        y = rng.uniform(-1, 1, 12)
        objective = SeparableLinearRegression(X, y)
        phi = rng.uniform(-1, 1, 3)
        window = objective.gradient_parts(phi, 2, 5)
        total = np.zeros(3)
        for i in range(2, 7):
            total += objective.gradient_parts(phi, i, 1)
        assert_allclose(window, total, rtol=1e-12)

    @pytest.mark.parametrize("first,count", [(-1, 2), (0, 0), (39, 2), (0, 41)])
    def test_bad_window_is_diagnostic(self, first, count):
        objective = SeparableLinearRegression(np.ones((2, 40)), np.ones(40))
        with pytest.raises(Diagnostic, match="window"):
            objective.evaluate_parts(np.zeros(2), first, count)

    def test_num_parts_is_sample_count(self):
        assert SeparableLinearRegression(np.ones((2, 7)), np.ones(7)).num_parts == 7


class TestLogisticRegression:
    def test_zero_parameters_value(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, (3, 20))
        y = (rng.uniform(size=20) > 0.5).astype(float)
        value = LogisticRegression(X, y).evaluate(np.zeros(3))
        assert_allclose(value, 20 * np.log(2.0), rtol=1e-12)

    def test_zero_parameters_gradient(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, (3, 20))
        y = (rng.uniform(size=20) > 0.5).astype(float)
        g = LogisticRegression(X, y).gradient(np.zeros(3))
        assert_allclose(g, X @ (0.5 - y), rtol=1e-12)

    def test_scalar_frozen_values(self):
        objective = LogisticRegression([[2.0]], [1.0])
        assert_allclose(objective.evaluate(np.ones(1)), LOGREG_SCALAR_VALUE, rtol=1e-14)
        assert_allclose(objective.gradient(np.ones(1)), [LOGREG_SCALAR_GRADIENT], rtol=1e-14)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        X = rng.uniform(-1, 1, (4, 30))
        y = (rng.uniform(size=30) > 0.5).astype(float)
        objective = LogisticRegression(X, y)
        for _ in range(20):
            assert relative_gradient_gap(objective, rng.uniform(-2, 2, 4)) < 1e-6

    def test_stable_at_extreme_margins(self):
        objective = LogisticRegression([[1.0]], [1.0])
        for phi in (700.0, -700.0):
            value = objective.evaluate(np.array([phi]))
            assert np.isfinite(value)
            assert value >= 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_scipy_reference_from_mild_to_extreme_margins(self, dtype):
        special = pytest.importorskip("scipy.special")
        # 1e-14 in float64, scaled to the dtype's epsilon.
        tolerance = 1e-14 * np.finfo(dtype).eps / np.finfo(np.float64).eps
        rng = np.random.default_rng(31)
        for scale in (0.1, 1.0, 10.0, 300.0):
            X = (scale * rng.uniform(-1, 1, (8, 50))).astype(dtype)
            y = (rng.uniform(size=50) > 0.5).astype(dtype)
            phi = rng.uniform(-3, 3, 8).astype(dtype)
            objective = LogisticRegression(X, y)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value, gradient = objective.evaluate(phi), objective.gradient(phi)
            # The reference takes the objective's own margins, so only the
            # softplus and sigmoid are compared; each term is -log_expit of
            # the signed margin, free of cancellation.
            z = (X.T @ phi).astype(np.float64)
            reference_value = -math.fsum(special.log_expit(np.where(y == 1, z, -z)))
            reference_gradient = X.astype(np.float64) @ (special.expit(z) - y)
            assert_allclose(value, reference_value, rtol=tolerance)
            error = np.abs(gradient.astype(np.float64) - reference_gradient)
            assert np.all(error <= tolerance * np.sum(np.abs(X), axis=1, dtype=np.float64))
        # At scale 300 a fair share of the margins lie beyond 800.
        assert np.sum(np.abs(z) >= 800) >= 10

    def test_value_never_negative(self):
        rng = np.random.default_rng(21)
        X = rng.uniform(-5, 5, (3, 15))
        y = (rng.uniform(size=15) > 0.5).astype(float)
        objective = LogisticRegression(X, y)
        for _ in range(50):
            assert objective.evaluate(rng.uniform(-50, 50, 3)) >= 0.0

    def test_labels_validated_at_construction(self):
        with pytest.raises(Diagnostic, match="0 or 1"):
            LogisticRegression([[1.0, 2.0]], [0.0, 2.0])
        with pytest.raises(Diagnostic, match="0 or 1"):
            LogisticRegression([[1.0, 2.0]], [0.5, 1.0])

    def test_full_window_equals_direct_evaluate_bitwise(self):
        for dtype in (np.float32, np.float64):
            for ridge in (0.0, 0.3):
                rng = np.random.default_rng(17)
                X = rng.uniform(-1, 1, (3, 25)).astype(dtype)
                y = (rng.uniform(size=25) > 0.5).astype(dtype)
                objective = LogisticRegression(X, y, ridge=ridge)
                phi = rng.uniform(-1, 1, 3).astype(dtype)
                assert objective.evaluate_parts(phi, 0, 25) == objective.evaluate(phi)
                assert np.array_equal(objective.gradient_parts(phi, 0, 25), objective.gradient(phi))

    def test_inference_serves_full_interface(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, (2, 10))
        y = (rng.uniform(size=10) > 0.5).astype(float)
        adapter = ObjectiveAdapter(LogisticRegression(X, y))
        value, gradient = adapter.evaluate_with_gradient(np.zeros(2))
        assert value == adapter.objective.evaluate(np.zeros(2))
        assert gradient.shape == (2,)

    def test_ridge_penalty(self):
        objective = LogisticRegression([[2.0]], [1.0], ridge=0.5)
        base = LogisticRegression([[2.0]], [1.0])
        phi = np.array([3.0])
        assert_allclose(objective.evaluate(phi), base.evaluate(phi) + 0.5 * 9.0, rtol=1e-12)
        assert relative_gradient_gap(objective, phi) < 1e-6
        # Part windows carry their share, and the full window still matches.
        assert objective.evaluate_parts(phi, 0, 1) == objective.evaluate(phi)

    def test_ridge_windows_sum_to_full_gradient(self):
        rng = np.random.default_rng(23)
        X = rng.uniform(-1, 1, (3, 10))
        y = (rng.uniform(size=10) > 0.5).astype(float)
        objective = LogisticRegression(X, y, ridge=0.7)
        phi = rng.uniform(-1, 1, 3)
        windows = objective.gradient_parts(phi, 0, 4) + objective.gradient_parts(phi, 4, 6)
        assert_allclose(windows, objective.gradient(phi), rtol=1e-12)
        # A window of 4 of the 10 parts carries 4/10 of the ridge gradient.
        plain = LogisticRegression(X, y)
        share = objective.gradient_parts(phi, 0, 4) - plain.gradient_parts(phi, 0, 4)
        assert_allclose(share, 2.0 * 0.7 * phi * (4 / 10), rtol=1e-12)

    @pytest.mark.parametrize("ridge", [0.7, np.float64(0.7)], ids=["float", "numpy-float64"])
    def test_ridge_keeps_float32_with_numpy_integer_windows(self, ridge):
        rng = np.random.default_rng(29)
        X = rng.uniform(-1, 1, (3, 40)).astype(np.float32)
        y = (rng.uniform(size=40) > 0.5).astype(np.float32)
        objective = LogisticRegression(X, y, ridge=ridge)
        phi = rng.uniform(-1, 1, 3).astype(np.float32)
        for first, count in ((np.int64(0), np.int64(40)), (0, np.int64(8))):
            g = objective.gradient_parts(phi, first, count)
            assert g.dtype == np.float32
            assert np.array_equal(g, objective.gradient_parts(phi, int(first), int(count)))

    def test_ridge_validated(self):
        with pytest.raises(Diagnostic, match="ridge"):
            LogisticRegression([[1.0]], [1.0], ridge=-0.1)


class TestRosenbrock:
    def test_minimum(self):
        objective = Rosenbrock()
        assert objective.evaluate(np.array([1.0, 1.0])) == 0.0
        assert_allclose(objective.gradient(np.array([1.0, 1.0])), [0.0, 0.0])

    def test_origin_values(self):
        objective = Rosenbrock()
        assert objective.evaluate(np.zeros(2)) == 1.0
        assert_allclose(objective.gradient(np.zeros(2)), [-2.0, 0.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(29)
        objective = Rosenbrock()
        for _ in range(20):
            assert relative_gradient_gap(objective, rng.uniform(-2, 2, 2)) < 1e-5

    def test_column_shape_supported(self):
        objective = Rosenbrock()
        g = objective.gradient(np.zeros((2, 1)))
        assert g.shape == (2, 1)

    def test_wrong_size_is_diagnostic(self):
        with pytest.raises(Diagnostic, match="2-D"):
            Rosenbrock().evaluate(np.zeros(3))

    def test_overflowing_value_is_inf(self):
        # Python's float ** raises OverflowError here; IEEE arithmetic gives inf.
        assert Rosenbrock().evaluate(np.array([1e80, 0.0])) == np.inf
        assert Rosenbrock().evaluate(np.array([0.0, 1e200])) == np.inf

    def test_diverging_descent_returns_a_result(self):
        # Gradient descent at its default step overflows from this start
        # within eight steps; the run must still end with a result.
        x0 = np.random.default_rng(1).uniform(-1, 1, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            _, result = GradientDescent(max_iterations=20).optimize(Rosenbrock(), x0)
        assert result.termination == TerminationReason.MAX_ITERATIONS
        assert result.iterations == 20


class TestGenerateNoisyLinear:
    def test_shapes(self):
        X, y, phi_true = generate_noisy_linear(100, 1000, 10.0, seed=0)
        assert X.shape == (100, 1000)
        assert y.shape == (1000,)
        assert phi_true.shape == (100, 1)

    def test_same_seed_identical(self):
        a = generate_noisy_linear(5, 50, 2.0, seed=42)
        b = generate_noisy_linear(5, 50, 2.0, seed=42)
        for left, right in zip(a, b):
            assert np.array_equal(left, right)

    def test_different_seeds_differ(self):
        X1, _, _ = generate_noisy_linear(5, 50, 2.0, seed=1)
        X2, _, _ = generate_noisy_linear(5, 50, 2.0, seed=2)
        assert not np.array_equal(X1, X2)

    def test_noiseless_data_recovers_truth(self):
        X, y, phi_true = generate_noisy_linear(4, 60, 0.0, seed=5)
        solution = np.linalg.solve(X @ X.T, X @ y)
        assert_allclose(solution, phi_true.ravel(), atol=1e-6)

    def test_entry_ranges(self):
        X, _, phi_true = generate_noisy_linear(6, 200, 1.0, seed=3)
        assert np.all(np.abs(X) < 1.0)
        assert np.all(np.abs(phi_true) < 1.0)

    def test_bad_sizes_are_diagnostic(self):
        with pytest.raises(Diagnostic, match="d and n"):
            generate_noisy_linear(0, 10, 1.0, 0)
        with pytest.raises(Diagnostic, match="noise_scale"):
            generate_noisy_linear(2, 10, -1.0, 0)


class TestLoadCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_reads_rows_as_columns(self, tmp_path):
        path = self.write(tmp_path, "1.0,2.0,3.0\n4.0,5.0,6.0\n")
        X, y = load_csv(path)
        assert X.shape == (2, 2)
        assert np.array_equal(X, [[1.0, 4.0], [2.0, 5.0]])
        assert np.array_equal(y, [3.0, 6.0])

    def test_blank_rows_skipped(self, tmp_path):
        path = self.write(tmp_path, "1.0,2.0\n\n3.0,4.0\n")
        X, y = load_csv(path)
        assert np.array_equal(X, [[1.0, 3.0]])
        assert np.array_equal(y, [2.0, 4.0])

    def test_single_header_line_skipped(self, tmp_path):
        path = self.write(tmp_path, "a,b,label\n1.0,2.0,0.0\n")
        X, y = load_csv(path)
        assert X.shape == (2, 1)
        assert y.tolist() == [0.0]

    def test_non_numeric_data_line_is_diagnostic(self, tmp_path):
        path = self.write(tmp_path, "1,2,3\nx,5,6\n")
        with pytest.raises(Diagnostic, match="line 2"):
            load_csv(path)

    def test_ragged_rows_are_diagnostic(self, tmp_path):
        path = self.write(tmp_path, "1,2,3\n4,5\n")
        with pytest.raises(Diagnostic, match="column counts"):
            load_csv(path)

    def test_empty_file_is_diagnostic(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(Diagnostic, match="no data"):
            load_csv(path)

    def test_single_column_is_diagnostic(self, tmp_path):
        path = self.write(tmp_path, "1.0\n2.0\n")
        with pytest.raises(Diagnostic, match="predictor"):
            load_csv(path)

    def test_round_trips_with_regression_objective(self, tmp_path):
        path = self.write(tmp_path, "0.5,1.5\n-0.5,0.5\n1.0,2.0\n")
        X, y = load_csv(path)
        objective = LinearRegression(X, y)
        assert np.isfinite(objective.evaluate(np.zeros(1)))
