"""Objective formulas against hand values, finite differences, and shape rules."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from numopt import (
    LBFGS,
    SGD,
    AdamUpdate,
    Diagnostic,
    GradientDescent,
    ObjectiveAdapter,
    TerminationReason,
    finite_difference_gradient,
)
from numopt.core import _CONTRACT
from numopt.problems import (
    LinearRegression,
    LogisticRegression,
    Rosenbrock,
    SeparableLinearRegression,
    _blocked,
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


CONTRACT_NAMES = (*_CONTRACT, "num_parts")


# Capability is by presence, so a data objective has exactly the contract
# methods it lists, none leaked from the base the three share.
@pytest.mark.parametrize(
    "cls, provided",
    [
        (LinearRegression, {"evaluate", "gradient"}),
        (SeparableLinearRegression, {"evaluate_parts", "gradient_parts", "num_parts"}),
        (LogisticRegression,
         {"evaluate", "gradient", "evaluate_parts", "gradient_parts", "num_parts"}),
    ],
)
def test_provides_exactly_its_contract_methods(cls, provided):
    objective = cls([[1.0]], [1.0])
    assert {name for name in CONTRACT_NAMES if hasattr(objective, name)} == provided
    assert all(callable(getattr(objective, name)) for name in provided - {"num_parts"})


@pytest.mark.parametrize("cls", [LinearRegression, SeparableLinearRegression, LogisticRegression])
def test_inconsistent_data_is_diagnostic(cls):
    with pytest.raises(Diagnostic, match=f"{cls.__name__}: 5 predictor columns but 4"):
        cls(np.ones((2, 5)), np.ones(4))
    with pytest.raises(Diagnostic, match=f"{cls.__name__} predictors must be non-empty"):
        cls(np.ones((2, 0)), [])
    with pytest.raises(Diagnostic, match=f"{cls.__name__} predictors must be a d x n"):
        cls(np.ones(5), np.ones(5))


# Data follows the parameters' admission rule: complex numbers, strings and
# None are refused by their dtype, never truncated or parsed, and a ragged
# sequence is refused too.
@pytest.mark.parametrize("cls", [LinearRegression, SeparableLinearRegression, LogisticRegression])
@pytest.mark.parametrize(
    "which, predictors, responses, got",
    [
        ("predictors", np.array([[1 + 1j, 2.0]]), [1.0, 0.0], "dtype complex128"),
        ("predictors", [[None, 2.0]], [1.0, 0.0], "dtype object"),
        ("responses", [[1.0, 2.0]], ["1", "0"], "dtype <U1"),
        ("responses", [[1.0, 2.0]], np.array([1 + 0j, 0]), "dtype complex128"),
        ("predictors", [[1.0, 2.0], [3.0]], [1.0, 2.0], "a ragged sequence"),
    ],
)
def test_data_that_is_not_real_numbers_is_diagnostic(cls, which, predictors, responses, got):
    with pytest.raises(Diagnostic) as raised:
        cls(predictors, responses)
    assert str(raised.value) == f"{cls.__name__} {which} must be real numbers, got {got}"


@pytest.mark.parametrize("cls", [LinearRegression, SeparableLinearRegression, LogisticRegression])
def test_boolean_and_integer_data_become_float64(cls):
    objective = cls(np.array([[1, 2]], dtype=np.int32), np.array([True, False]))
    assert objective.X.dtype == objective.y.dtype == np.float64
    assert objective.y.tolist() == [1.0, 0.0]


# A window bound that is not an integer fails the range test or the slice;
# either way the objective reports a Diagnostic that names it.  A cold case
# builds a fresh objective, so no residual memo holds a window to hit.  A
# warm one first evaluates the integer window equal to it (1 for 0.5) at the
# same point, so the least-squares memo holds a window that 2.0 == 2 would hit.
@pytest.mark.parametrize("cls", [SeparableLinearRegression, LogisticRegression])
@pytest.mark.parametrize("method", ["evaluate_parts", "gradient_parts"])
@pytest.mark.parametrize("bound", ["first", "count"])
@pytest.mark.parametrize("value", [0.5, 2.0, np.float64(1.0), "1"],
                         ids=["half", "float", "float64", "str"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_non_integer_window_is_diagnostic(cls, method, bound, value, warm):
    objective = cls(np.ones((2, 5)), np.ones(5))
    window = {"first": 0, "count": 2, bound: value}
    if warm:
        integer = {"first": 0, "count": 2, bound: int(float(value)) or 1}
        objective.evaluate_parts(np.zeros(2), integer["first"], integer["count"])
    with pytest.raises(Diagnostic, match=f"{cls.__name__}: window"):
        getattr(objective, method)(np.zeros(2), window["first"], window["count"])


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

    def test_integer_data_becomes_float64(self):
        objective = LinearRegression([[1, 2]], [1, 2])
        assert objective.X.dtype == objective.y.dtype == np.float64
        assert objective.evaluate(np.zeros(1)) == 5.0


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


def counting_view(X):
    """``X`` as a view whose class counts the matrix products it and its views enter.

    Products return plain arrays from the same ``np.matmul`` on the same
    memory, so results are bit-identical to the uncounted matrix.  Read the
    count as ``type(view).products``.
    """

    class Counting(np.ndarray):
        products = 0

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                Counting.products += 1
            plain = [a.view(np.ndarray) if isinstance(a, Counting) else a for a in inputs]
            return getattr(ufunc, method)(*plain, **kwargs)

    return X.view(Counting)


class ResidualCase:
    """One least-squares problem called through one window, with fresh twins to compare."""

    def __init__(self, separable, dtype, column, window=(3, 17)):
        rng = np.random.default_rng(21)
        self.cls = SeparableLinearRegression if separable else LinearRegression
        self.window = window if separable else ()
        self.X = rng.uniform(-1, 1, (6, 40)).astype(dtype)
        self.y = rng.uniform(-1, 1, 40).astype(dtype)
        self.phi = rng.uniform(-1, 1, (6, 1) if column else 6).astype(dtype)
        self.objective = self.cls(self.X, self.y)
        self.objective.X = counting_view(self.objective.X)

    @property
    def products(self):
        return type(self.objective.X).products

    def value(self, phi, objective=None, window=None):
        objective = self.objective if objective is None else objective
        window = self.window if window is None else window
        if window:
            return objective.evaluate_parts(phi, *window)
        return objective.evaluate(phi)

    def gradient(self, phi, objective=None, window=None):
        objective = self.objective if objective is None else objective
        window = self.window if window is None else window
        if window:
            return objective.gradient_parts(phi, *window)
        return objective.gradient(phi)

    def fresh(self, X=None, y=None):
        return self.cls(self.X if X is None else X, self.y if y is None else y)

    def assert_fresh_gradient(self, g, phi, window=None, **data):
        expected = self.gradient(phi, self.fresh(**data), window)
        assert g.dtype == expected.dtype and g.shape == expected.shape
        assert np.array_equal(g, expected)


@pytest.fixture(
    params=[
        (separable, dtype, column)
        for separable in (False, True)
        for dtype in (np.float32, np.float64)
        for column in (False, True)
    ],
    ids=lambda p: f"{'window' if p[0] else 'full'}-{p[1].__name__}-{'column' if p[2] else 'flat'}",
)
def case(request):
    return ResidualCase(*request.param)


class TestResidualReuse:
    """A call at the last call's point and window reuses its residual, once."""

    def test_gradient_after_value_takes_its_residual(self, case):
        value = case.value(case.phi)
        g = case.gradient(case.phi)
        assert case.products == 2
        assert value == case.value(case.phi, case.fresh())
        case.assert_fresh_gradient(g, case.phi)

    def test_value_after_gradient_takes_its_residual(self, case):
        g = case.gradient(case.phi)
        value = case.value(case.phi)
        assert case.products == 2
        assert value == case.value(case.phi, case.fresh())
        case.assert_fresh_gradient(g, case.phi)

    def test_second_gradient_at_the_same_point_recomputes(self, case):
        case.value(case.phi)
        first = case.gradient(case.phi)
        second = case.gradient(case.phi)
        assert case.products == 4
        case.assert_fresh_gradient(first, case.phi)
        case.assert_fresh_gradient(second, case.phi)

    def test_parameters_written_in_place_are_seen(self, case):
        case.value(case.phi)
        case.phi[0] += 0.5
        g = case.gradient(case.phi)
        assert case.products == 3
        case.assert_fresh_gradient(g, case.phi)

    def test_another_point_is_recomputed(self, case):
        case.value(case.phi)
        other = case.phi * 2
        g = case.gradient(other)
        assert case.products == 3
        case.assert_fresh_gradient(g, other)

    def test_the_same_bytes_in_the_other_byte_order_are_recomputed(self, case):
        case.value(case.phi)
        swapped = case.phi.view(case.phi.dtype.newbyteorder())
        g = case.gradient(swapped)
        assert case.products == 3
        case.assert_fresh_gradient(g, swapped)

    def test_equal_values_hit_in_native_order_and_miss_byte_swapped(self, case):
        case.value(case.phi)
        g = case.gradient(case.phi.copy())
        assert case.products == 2
        case.assert_fresh_gradient(g, case.phi)
        case.value(case.phi)
        swapped = case.phi.astype(case.phi.dtype.newbyteorder())
        assert np.array_equal(swapped, case.phi)
        g = case.gradient(swapped)
        assert case.products == 5
        case.assert_fresh_gradient(g, swapped)

    @pytest.mark.parametrize("replaced", ["X", "y"])
    def test_replaced_data_is_seen(self, case, replaced):
        case.value(case.phi)
        data = {replaced: getattr(case, replaced) * 2}
        setattr(case.objective, replaced, data[replaced])
        g = case.gradient(case.phi)
        case.assert_fresh_gradient(g, case.phi, **data)

    @pytest.mark.parametrize("other", [(4, 17), (3, 16)], ids=["first", "count"])
    def test_another_window_is_recomputed(self, other):
        separable = ResidualCase(True, np.float64, False)
        separable.value(separable.phi)
        g = separable.gradient(separable.phi, window=other)
        assert separable.products == 3
        separable.assert_fresh_gradient(g, separable.phi, window=other)


    @pytest.mark.parametrize("window", [(3, 38), (-1, 17), (3, 0), (40, 1)])
    def test_a_window_outside_the_data_raises_after_a_value_at_the_point(self, window):
        separable = ResidualCase(True, np.float64, False)
        separable.value(separable.phi)
        with pytest.raises(Diagnostic, match="outside"):
            separable.gradient(separable.phi, window=window)

    def test_the_kept_window_is_checked_again_on_narrower_data(self):
        separable = ResidualCase(True, np.float64, False)
        separable.value(separable.phi)
        separable.objective.X = separable.X[:, :10]
        separable.objective.y = separable.y[:10]
        with pytest.raises(Diagnostic, match="outside"):
            separable.gradient(separable.phi)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(
        separable=st.booleans(),
        dtype=st.sampled_from([np.float32, np.float64]),
        column=st.booleans(),
        as_list=st.booleans(),
        value_first=st.booleans(),
        data=st.data(),
    )
    def test_a_hit_returns_a_fresh_objectives_bytes(
        self, separable, dtype, column, as_list, value_first, data
    ):
        first = data.draw(st.integers(0, 39), label="first")
        count = data.draw(st.integers(1, 40 - first), label="count")
        case = ResidualCase(separable, dtype, column, window=(first, count))
        phi = case.phi.tolist() if as_list else case.phi
        if value_first:
            value, g = case.value(phi), case.gradient(phi)
        else:
            g, value = case.gradient(phi), case.value(phi)
        assert case.products == 2
        assert value == case.value(phi, case.fresh())
        expected = case.gradient(phi, case.fresh())
        assert g.dtype == expected.dtype and g.shape == expected.shape == np.shape(phi)
        assert g.tobytes() == expected.tobytes()


class TestOneProductPerCall:
    """Each optimizer's value and gradient at one point share one residual."""

    def counted(self, cls):
        objective = cls(*generate_noisy_linear(20, 2000, 1.0, seed=3)[:2])
        objective.X = counting_view(objective.X)
        return objective, type(objective.X)

    @pytest.mark.parametrize(
        "optimizer",
        [LBFGS(), GradientDescent(step_size=1e-4, max_iterations=50)],
        ids=["lbfgs", "gd"],
    )
    def test_full_runs_make_one_product_per_call(self, optimizer):
        objective, counting = self.counted(LinearRegression)
        _, result = optimizer.optimize(objective, np.zeros(20))
        assert result.iterations > 1
        assert counting.products == result.evaluate_calls + result.gradient_calls

    def test_sgd_makes_two_products_per_step(self):
        objective, counting = self.counted(SeparableLinearRegression)
        optimizer = SGD(batch_size=32, max_iterations=100, update=AdamUpdate(), seed=1)
        _, result = optimizer.optimize(objective, np.zeros(20))
        assert result.iterations == 100
        assert counting.products == 2 * result.iterations


@functools.cache
def blocked_data(x_dtype, y_dtype):
    """Read-only X (20 x n, 3.2 MB) and y: four column blocks, each 1 MiB
    rounded down to whole 16-column groups, and a shorter last one.  n is
    20000 for float64 X (blocks of 6544 columns) and 40000 for float32 X
    (13104)."""
    rng = np.random.default_rng(27)
    n = 20000 * 8 // np.dtype(x_dtype).itemsize
    X = rng.uniform(-1, 1, (20, n)).astype(x_dtype)
    y = rng.uniform(-1, 1, n).astype(y_dtype)
    X.flags.writeable = y.flags.writeable = False
    return X, y


BLOCK = 6544  # columns of float64 X


class BlockCase(ResidualCase):
    """A least-squares problem over four column blocks, called through one window."""

    def __init__(self, separable, x_dtype, y_dtype, phi_dtype, column, window=None):
        self.X, self.y = blocked_data(x_dtype, y_dtype)
        window = window or (0, self.X.shape[1])
        self.cls = SeparableLinearRegression if separable else LinearRegression
        self.window = window if separable else ()
        rng = np.random.default_rng(5)
        shape = (self.X.shape[0], 1) if column else self.X.shape[0]
        self.points = [rng.uniform(-1, 1, shape).astype(phi_dtype) for _ in range(4)]
        self.objective = self.cls(self.X, self.y)
        self.objective.X = counting_view(self.objective.X)

    def columns(self):
        first, count = self.window or (0, self.X.shape[1])
        return self.X[:, first : first + count], self.y[first : first + count]

    def one_product_value(self, phi):
        """The value from the window's one product, as a call with no gradient makes it."""
        X, y = self.columns()
        residual = X.T @ np.ravel(phi) - y
        return float(residual.dot(residual))


DTYPES = st.sampled_from([np.float32, np.float64])


class TestBlockPass:
    """Windows wider than one block read X in column blocks: the gradient in
    the residual's pass, the values with the one product's bits."""

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        # Pairs with a float64 product: a float32 one is never made in blocks.
        dtypes=st.sampled_from(
            [(np.float64, np.float64), (np.float64, np.float32), (np.float32, np.float64)]
        ),
        y_dtype=DTYPES,
        data=st.data(),
    )
    def test_a_residual_made_in_blocks_is_the_one_products(self, dtypes, y_dtype, data):
        # A value hides an ulp of one residual entry; the residual does not.
        x_dtype, phi_dtype = dtypes
        X, y = blocked_data(x_dtype, y_dtype)
        first = data.draw(st.integers(0, 2000), label="first")
        count = data.draw(st.integers(2 * 16, X.shape[1] - first), label="count")
        X, y = X[:, first : first + count], y[first : first + count]
        phi = np.random.default_rng(count).uniform(-1, 1, 20).astype(phi_dtype)
        residual = X.T @ phi - y
        assert _blocked(X, None, y, phi)[0].tobytes() == residual.tobytes()

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        separable=st.booleans(),
        x_dtype=DTYPES,
        y_dtype=DTYPES,
        phi_dtype=DTYPES,
        column=st.booleans(),
        data=st.data(),
    )
    def test_values_keep_the_one_products_bits_on_every_path(
        self, separable, x_dtype, y_dtype, phi_dtype, column, data
    ):
        n = blocked_data(x_dtype, y_dtype)[0].shape[1]
        first = data.draw(st.integers(0, 2000), label="first")
        count = data.draw(st.integers(1, n - first), label="count")
        case = BlockCase(separable, x_dtype, y_dtype, phi_dtype, column, (first, count))
        p, q, r, s = case.points
        values = {
            "first call": (p, case.value(p)),
            "after a gradient": (p, (case.gradient(p), case.value(p))[1]),
            "kept by a gradient's pass": (q, (case.gradient(q), case.value(q))[1]),
            "after a gradient elsewhere": (s, (case.gradient(r), case.value(s))[1]),
            "after a value": (q, case.value(q)),
        }
        for path, (point, value) in values.items():
            assert value == case.one_product_value(point), path

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        separable=st.booleans(),
        x_dtype=DTYPES,
        y_dtype=DTYPES,
        phi_dtype=DTYPES,
        column=st.booleans(),
        data=st.data(),
    )
    def test_a_gradient_has_the_same_bytes_whichever_way_it_was_reached(
        self, separable, x_dtype, y_dtype, phi_dtype, column, data
    ):
        n = blocked_data(x_dtype, y_dtype)[0].shape[1]
        first = data.draw(st.integers(0, 2000), label="first")
        count = data.draw(st.integers(1, n - first), label="count")
        case = BlockCase(separable, x_dtype, y_dtype, phi_dtype, column, (first, count))
        p, q, _, _ = case.points
        fresh = case.gradient(p, case.fresh())
        after_value = case.fresh()
        case.value(p, after_value)
        from_residual = case.gradient(p, after_value)
        after_gradient = case.fresh()
        case.gradient(q, after_gradient)
        case.value(p, after_gradient)
        kept = case.gradient(p, after_gradient)
        for g in (from_residual, kept):
            assert g.dtype == fresh.dtype and g.shape == fresh.shape == np.shape(p)
            assert g.tobytes() == fresh.tobytes()
        X, y = case.columns()
        if X.nbytes <= 1 << 20:  # one block: the single product's gradient
            assert fresh.tobytes() == (2.0 * (X @ (X.T @ p.ravel() - y))).reshape(p.shape).tobytes()

    @pytest.mark.parametrize("x_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("phi_dtype", [np.float32, np.float64])
    def test_gradients_match_the_formula_to_a_few_ulps(self, x_dtype, phi_dtype):
        case = BlockCase(False, x_dtype, x_dtype, phi_dtype, False)
        for phi in case.points:
            g = case.gradient(phi)
            residual = case.X.T @ phi - case.y
            exact = 2 * (case.X.astype(np.longdouble) @ residual.astype(np.longdouble))
            scale = 2 * (np.abs(case.X).astype(np.longdouble) @ np.abs(residual))
            assert np.all(np.abs(g - exact) <= 4 * np.finfo(g.dtype).eps * scale)

    def test_a_value_after_a_value_makes_one_product(self):
        case = BlockCase(False, np.float64, np.float64, np.float64, False)
        for phi in case.points:
            case.value(phi)
        assert case.products == 4

    def test_the_fused_pass_makes_two_products_per_block(self):
        case = BlockCase(False, np.float64, np.float64, np.float64, False)
        p, q, r, s = case.points
        case.gradient(p)  # a miss: residual and gradient in each of four blocks
        assert case.products == 8
        case.value(q)  # after a gradient: the same pass, its gradient kept
        assert case.products == 16
        g = case.gradient(q)  # the kept gradient
        assert case.products == 16
        case.value(r)  # after a gradient again
        case.value(s)  # after a value: one product
        assert case.products == 25
        case.assert_fresh_gradient(g, q)

    def test_a_float32_product_is_never_fused(self):
        # OpenBLAS's sgemv rounds a product's outputs by the product's length,
        # so blocks would not give the one product's residual.
        case = BlockCase(False, np.float32, np.float32, np.float32, False)
        p, q, _, _ = case.points
        case.gradient(p)  # one product for the residual, four for the gradient
        assert case.products == 5
        value = case.value(q)  # after a gradient, still one product
        assert case.products == 6
        assert value == case.one_product_value(q)

    def test_a_last_block_of_one_column_joins_the_block_before(self):
        case = BlockCase(True, np.float64, np.float64, np.float64, False, (3, 2 * BLOCK + 1))
        p, q, _, _ = case.points
        case.gradient(p)
        assert case.products == 4  # two blocks, not three
        assert case.value(q) == case.one_product_value(q)
        case.assert_fresh_gradient(case.gradient(q), q)

    def test_a_kept_gradient_is_handed_over_once(self):
        case = BlockCase(False, np.float64, np.float64, np.float64, False)
        p, q, _, _ = case.points
        case.gradient(p)
        case.value(q)
        first = case.gradient(q)
        first[:] = 0.0
        second = case.gradient(q)
        assert case.products == 24
        case.assert_fresh_gradient(second, q)


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
                for shape in ((3,), (3, 1)):
                    phi = rng.uniform(-1, 1, shape).astype(dtype)
                    assert objective.evaluate_parts(phi, 0, 25) == objective.evaluate(phi)
                    full = objective.gradient(phi)
                    assert full.shape == shape
                    assert np.array_equal(objective.gradient_parts(phi, 0, 25), full)

    @pytest.mark.parametrize(
        "bad, values", [(0.5, "[0.  0.5 1. ]"), (2.0, "[0. 1. 2.]"), (np.nan, "[ 0.  1. nan]")]
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_labels_outside_zero_and_one_raise_with_their_distinct_values(self, bad, values, dtype):
        """Labels of 0.5, 2.0 or NaN are refused with a Diagnostic listing the
        distinct label values, in float32 and float64."""
        y = np.array([1.0, bad, 0.0, 1.0, bad], dtype=dtype)
        with pytest.raises(Diagnostic) as raised:
            LogisticRegression(np.ones((2, 5)), y)
        assert str(raised.value) == f"LogisticRegression labels must all be 0 or 1, got values {values}"

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from([np.float32, np.float64]),
        phi_dtype=st.sampled_from([np.float32, np.float64]),
        d=st.integers(1, 6),
        n=st.integers(1, 60),
        ridge=st.sampled_from([0.0, 0.3, 1e-3]),
        scale=st.sampled_from([1e-3, 1.0, 30.0]),
        data=st.data(),
    )
    def test_value_is_the_np_sum_formula_bitwise(
        self, seed, dtype, phi_dtype, d, n, ridge, scale, data
    ):
        """The value and the gradient are the np.logaddexp(0.0, z) formulas bit
        for bit, full and part-wise, with phi's dtype drawn apart from X's:
        z = X.T phi takes the promoted dtype, and so does the softplus zero."""
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, (d, n)).astype(dtype)
        y = (rng.uniform(size=n) > 0.5).astype(dtype)
        phi = (scale * rng.standard_normal(d)).astype(phi_dtype)
        objective = LogisticRegression(X, y, ridge=ridge)
        first = data.draw(st.integers(0, n - 1), label="first")
        count = data.draw(st.integers(1, n - first), label="count")

        def formula(X, y, share):
            z = X.T @ phi
            value = float(np.sum(np.logaddexp(0.0, z) - y * z))
            if ridge:
                value += ridge * float(phi @ phi) * share
            return value

        def gradient_formula(X, y, share):
            z = X.T @ phi
            g = X @ (np.exp(z - np.logaddexp(0.0, z)) - y)
            return g + 2.0 * ridge * phi * share if ridge else g

        window = slice(first, first + count)
        assert objective.evaluate(phi) == formula(X, y, 1.0)
        assert objective.evaluate_parts(phi, first, count) == formula(
            X[:, window], y[window], count / n
        )
        for gradient, expected in (
            (objective.gradient(phi), gradient_formula(X, y, 1.0)),
            (
                objective.gradient_parts(phi, first, count),
                gradient_formula(X[:, window], y[window], count / n),
            ),
        ):
            assert gradient.dtype == expected.dtype
            assert gradient.tobytes() == expected.tobytes()

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

    @pytest.mark.parametrize("ridge", [-0.1, math.nan])
    def test_ridge_validated(self, ridge):
        with pytest.raises(Diagnostic, match="ridge must be >= 0"):
            LogisticRegression([[1.0]], [1.0], ridge=ridge)

    def test_string_ridge_is_refused_not_parsed(self):
        with pytest.raises(Diagnostic) as raised:
            LogisticRegression([[1.0]], [1.0], ridge="0.5")
        assert str(raised.value) == "ridge must be a number, got '0.5' of type str"


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

    @pytest.mark.parametrize("shape", [(2, 1), (1, 2), (2,)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_keeps_the_shape_and_dtype_of_x(self, shape, dtype):
        g = Rosenbrock().gradient(np.zeros(shape, dtype=dtype))
        assert g.shape == shape
        assert g.dtype == dtype
        assert g.ravel().tolist() == [-2.0, 0.0]

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

    @pytest.mark.parametrize("d, n", [(1, 1), (1, 40), (6, 1), (5, 200), (30, 17)])
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_draws_are_the_uniform_reference_bitwise(self, d, n, seed):
        """generate_noisy_linear's (X, y, phi_true) are, bit for bit, a
        reference drawn with rng.uniform and rng.standard_normal from the same
        seed."""
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, size=(d, n))
        phi_true = rng.uniform(-1.0, 1.0, size=(d, 1))
        y = X.T @ phi_true.ravel() + 2.5 * rng.standard_normal(n)
        for got, expected in zip(generate_noisy_linear(d, n, 2.5, seed), (X, y, phi_true)):
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_bad_sizes_are_diagnostic(self):
        for d, n, message in (
            (0, 10, "d must be >= 1, got 0"),
            (math.nan, 10, "d must be >= 1, got nan"),
            (2, math.nan, "n must be >= 1, got nan"),
        ):
            with pytest.raises(Diagnostic) as raised:
                generate_noisy_linear(d, n, 1.0, 0)
            assert str(raised.value) == message

    # Each of these used to leak Python's raw TypeError, or, for 2.5, NumPy's.
    @pytest.mark.parametrize(
        "args, message",
        [
            (("3", 10, 1.0), "d must be an integer, got '3' of type str"),
            ((2.5, 10, 1.0), "d must be an integer, got 2.5 of type float"),
            ((2, "10", 1.0), "n must be an integer, got '10' of type str"),
            ((2, 10.0, 1.0), "n must be an integer, got 10.0 of type float"),
            ((2, 10, "1"), "noise_scale must be a number, got '1' of type str"),
            ((2, 3, 1.0, -1), "seed must be >= 0, got -1"),
            ((2, 3, 1.0, 1.5), "seed must be an integer, got 1.5 of type float"),
            ((2, 3, 1.0, "3"), "seed must be an integer, got '3' of type str"),
            ((2, 3, 1.0, None), "seed must be an integer, got None of type NoneType"),
        ],
    )
    def test_non_numbers_and_non_integer_sizes_are_diagnostic(self, args, message):
        # A bad seed used to raise NumPy's error or a TypeError, or, for None,
        # to draw from the OS.
        with pytest.raises(Diagnostic) as raised:
            generate_noisy_linear(*args)
        assert str(raised.value) == message
        for noise_scale in (-1.0, math.nan):
            with pytest.raises(Diagnostic, match="noise_scale"):
                generate_noisy_linear(2, 10, noise_scale, 0)


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
