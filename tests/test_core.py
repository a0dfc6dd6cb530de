"""Capability detection, requirement checking, inference, and counting."""

import ast
import inspect
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import numopt
import numopt.callbacks
import numopt.optimizers
from numopt import (
    CallbackDecision,
    Diagnostic,
    EvaluateCalled,
    ObjectiveAdapter,
    ObjectiveCapabilities,
    SGD,
    as_parameters,
    check_requirements,
    finite_difference_gradient,
)
from numopt.core import _METHODS
from numopt.problems import LinearRegression

# Hand-checkable instance: X = [1 2] (d=1, n=2), y = (1, 2).  At phi = 0 the
# residual is (-1, -2), so f = 5 and the gradient is 2*(1*-1 + 2*-2) = -10.
X_TINY = np.array([[1.0, 2.0]])
Y_TINY = np.array([1.0, 2.0])


class FullObjective:
    """evaluate + gradient only."""

    def evaluate(self, phi):
        r = X_TINY.T @ phi.ravel() - Y_TINY
        return float(r @ r)

    def gradient(self, phi):
        r = X_TINY.T @ phi.ravel() - Y_TINY
        return (2.0 * (X_TINY @ r)).reshape(phi.shape)


class PartsOnlyObjective:
    """Separable pieces only; full evaluation must be inferred.

    The window sum is an explicit sequential loop so the summation order is
    the index order, which the inference contract relies on.
    """

    num_parts = 2

    def evaluate_parts(self, phi, first, count):
        total = 0.0
        for i in range(first, first + count):
            r = float(X_TINY[:, i] @ phi.ravel()) - Y_TINY[i]
            total += r * r
        return total

    def gradient_parts(self, phi, first, count):
        g = np.zeros_like(phi)
        for i in range(first, first + count):
            r = float(X_TINY[:, i] @ phi.ravel()) - Y_TINY[i]
            g += (2.0 * r * X_TINY[:, i]).reshape(phi.shape)
        return g


class FusedObjective:
    def evaluate_with_gradient(self, phi):
        r = X_TINY.T @ phi.ravel() - Y_TINY
        return float(r @ r), (2.0 * (X_TINY @ r)).reshape(phi.shape)


def with_num_parts(value):
    class Parts:
        num_parts = value

        def evaluate_parts(self, phi, first, count):
            return 0.0

    return Parts()


class TestCapabilities:
    def test_detects_what_exists(self):
        caps = ObjectiveCapabilities.of(FullObjective())
        assert caps.evaluate and caps.gradient
        assert not caps.evaluate_with_gradient
        assert not caps.part_evaluate and not caps.part_gradient
        assert caps.num_parts is None

    def test_detects_parts(self):
        caps = ObjectiveCapabilities.of(PartsOnlyObjective())
        assert caps.part_evaluate and caps.part_gradient
        assert caps.num_parts == 2
        assert not caps.evaluate

    def test_parts_without_num_parts_is_diagnostic(self):
        class Broken:
            def evaluate_parts(self, phi, first, count):
                return 0.0

        with pytest.raises(Diagnostic, match="num_parts"):
            ObjectiveCapabilities.of(Broken())

    def test_nonpositive_num_parts_is_diagnostic(self):
        with pytest.raises(Diagnostic, match="num_parts"):
            ObjectiveCapabilities.of(with_num_parts(0))

    @pytest.mark.parametrize("value", [2.9, "3", 3.0], ids=repr)
    def test_non_integer_num_parts_is_diagnostic(self, value):
        # 2.9 used to become 2, so SGD never visited part 2.
        with pytest.raises(Diagnostic, match="num_parts must be an integer"):
            ObjectiveCapabilities.of(with_num_parts(value))

    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)], ids=repr)
    def test_integer_num_parts_of_any_type_is_read(self, value):
        num_parts = ObjectiveCapabilities.of(with_num_parts(value)).num_parts
        assert num_parts == 3 and type(num_parts) is int

    def test_sgd_refuses_a_float_num_parts(self):
        objective = with_num_parts(2.9)
        objective.gradient_parts = lambda phi, first, count: np.zeros_like(phi)
        with pytest.raises(Diagnostic, match="num_parts"):
            SGD(batch_size=1, max_iterations=3).optimize(objective, np.zeros(1))

    def test_non_callable_attributes_do_not_count(self):
        class Impostor:
            evaluate = 3.0

        assert not ObjectiveCapabilities.of(Impostor()).evaluate


class TestCheckRequirements:
    def test_satisfied_returns_none(self):
        caps = ObjectiveCapabilities.of(FullObjective())
        need = ObjectiveCapabilities(evaluate=True, gradient=True)
        assert check_requirements(caps, need) is None

    def test_missing_gradient_named(self):
        caps = ObjectiveCapabilities.of(PartsOnlyObjective())
        need = ObjectiveCapabilities(evaluate=True, gradient=True)
        diagnostic = check_requirements(caps, need, consumer="L-BFGS")
        assert diagnostic is not None
        assert "gradient" in str(diagnostic)
        assert "L-BFGS" in str(diagnostic)

    def test_full_evaluate_satisfied_by_parts(self):
        caps = ObjectiveCapabilities.of(PartsOnlyObjective())
        assert check_requirements(caps, ObjectiveCapabilities(evaluate=True)) is None

    def test_fused_satisfied_by_pair(self):
        caps = ObjectiveCapabilities.of(FullObjective())
        need = ObjectiveCapabilities(evaluate_with_gradient=True)
        assert check_requirements(caps, need) is None

    def test_fused_not_satisfied_by_evaluate_alone(self):
        class EvaluateOnly:
            def evaluate(self, phi):
                return 0.0

        caps = ObjectiveCapabilities.of(EvaluateOnly())
        need = ObjectiveCapabilities(evaluate_with_gradient=True)
        assert check_requirements(caps, need) is not None

    def test_gradient_never_inferred_from_fused(self):
        # A fused method implies a full evaluate+gradient *call*, but the
        # standalone gradient requirement is about the standalone method.
        caps = ObjectiveCapabilities.of(FusedObjective())
        assert check_requirements(caps, ObjectiveCapabilities(gradient=True)) is not None
        assert (
            check_requirements(caps, ObjectiveCapabilities(evaluate_with_gradient=True)) is None
        )

    def test_part_requirements_need_real_parts(self):
        caps = ObjectiveCapabilities.of(FullObjective())
        need = ObjectiveCapabilities(part_evaluate=True, part_gradient=True)
        diagnostic = check_requirements(caps, need, consumer="SGD")
        assert "evaluate_parts" in str(diagnostic)
        assert "gradient_parts" in str(diagnostic)

    def test_sgd_on_linear_regression_reads_in_full(self):
        caps = ObjectiveCapabilities.of(LinearRegression(X_TINY, Y_TINY))
        diagnostic = check_requirements(caps, SGD.requires, consumer="SGD")
        assert str(diagnostic) == (
            "SGD requires evaluate_parts (with num_parts), gradient_parts (with num_parts), "
            "which the objective neither provides nor allows to be inferred"
        )
        with pytest.raises(Diagnostic) as raised:
            SGD().optimize(LinearRegression(X_TINY, Y_TINY), np.zeros(1))
        assert str(raised.value) == str(diagnostic)

    def test_method_table_covers_exactly_the_capability_flags_in_order(self):
        flags = [field.name for field in fields(ObjectiveCapabilities) if field.type == "bool"]
        assert list(_METHODS) == flags

    def test_monotone_in_requirements(self):
        # If a requirement set passes, every subset passes.
        rng = np.random.default_rng(0)
        flags = ("evaluate", "gradient", "evaluate_with_gradient", "part_evaluate", "part_gradient")
        providers = [FullObjective(), PartsOnlyObjective(), FusedObjective()]
        for provider in providers:
            caps = ObjectiveCapabilities.of(provider)
            for _ in range(40):
                required = {flag: bool(rng.integers(2)) for flag in flags}
                if check_requirements(caps, ObjectiveCapabilities(**required)) is None:
                    for dropped in flags:
                        subset = dict(required)
                        subset[dropped] = False
                        assert check_requirements(caps, ObjectiveCapabilities(**subset)) is None


class TestAdapterInference:
    def test_full_value_inferred_from_parts(self):
        adapter = ObjectiveAdapter(PartsOnlyObjective())
        assert adapter.evaluate(np.zeros(1)) == 5.0
        # The inferred call spans all parts, so it costs num_parts evaluations.
        assert adapter.evaluate_calls == 2

    def test_inferred_sum_matches_sequential_order_bitwise(self):
        rng = np.random.default_rng(3)
        objective = PartsOnlyObjective()
        adapter = ObjectiveAdapter(objective)
        for _ in range(20):
            phi = rng.uniform(-2.0, 2.0, size=1)
            expected = 0.0
            for i in range(2):
                expected += objective.evaluate_parts(phi, i, 1)
            # Same index order, same additions: identical bits.
            assert adapter.evaluate(phi) == expected

    def test_fused_inferred_from_pair(self):
        adapter = ObjectiveAdapter(FullObjective())
        value, gradient = adapter.evaluate_with_gradient(np.zeros(1))
        assert value == 5.0
        assert_allclose(gradient, [-10.0])
        assert adapter.evaluate_calls == 1
        assert adapter.gradient_calls == 1

    def test_direct_fused_counts_one_each(self):
        adapter = ObjectiveAdapter(FusedObjective())
        value, gradient = adapter.evaluate_with_gradient(np.zeros(1))
        assert value == 5.0
        assert_allclose(gradient, [-10.0])
        assert adapter.evaluate_calls == 1
        assert adapter.gradient_calls == 1

    def test_num_parts_of_non_separable_is_diagnostic(self):
        with pytest.raises(Diagnostic, match="FullObjective is not separable"):
            ObjectiveAdapter(FullObjective()).num_parts

    def test_gradient_not_inferred(self):
        adapter = ObjectiveAdapter(PartsOnlyObjective())
        with pytest.raises(Diagnostic, match="gradient"):
            adapter.gradient(np.zeros(1))

    def test_window_calls_count_window_size(self):
        adapter = ObjectiveAdapter(PartsOnlyObjective())
        adapter.evaluate_parts(np.zeros(1), 0, 2)
        adapter.gradient_parts(np.zeros(1), 1, 1)
        assert adapter.evaluate_calls == 2
        assert adapter.gradient_calls == 1

    def test_gradient_shape_mismatch_is_diagnostic(self):
        class WrongShape:
            def evaluate(self, x):
                return 0.0

            def gradient(self, x):
                return np.zeros(3)

        adapter = ObjectiveAdapter(WrongShape())
        with pytest.raises(Diagnostic, match="shape"):
            adapter.gradient(np.zeros((2, 1)))

    def test_adapter_is_freed_without_the_cycle_collector(self):
        # The bindings must not make the adapter reference itself, or every
        # run's callbacks would live on until the next garbage collection.
        for objective in (FullObjective(), PartsOnlyObjective(), FusedObjective()):
            adapter = ObjectiveAdapter(objective)
            freed = weakref.ref(adapter)
            del adapter
            assert freed() is None

    def test_gradient_takes_the_parameter_dtype(self):
        adapter = ObjectiveAdapter(FullObjective())
        g = adapter.gradient(np.zeros(1, dtype=np.float32))
        assert g.dtype == np.float32
        assert_allclose(g, [-10.0])


def stop_after_first_evaluate(event):
    if isinstance(event, EvaluateCalled):
        return CallbackDecision.TERMINATE
    return None


class TestStopGate:
    def test_with_block_ends_at_the_refused_call(self):
        adapter = ObjectiveAdapter(FullObjective(), callbacks=[stop_after_first_evaluate])
        reached = []
        with adapter as entered:
            assert entered is adapter
            assert adapter.evaluate(np.zeros(1)) == 5.0
            reached.append("evaluate")
            adapter.gradient(np.zeros(1))
            reached.append("gradient")
        assert reached == ["evaluate"]
        assert (adapter.evaluate_calls, adapter.gradient_calls) == (1, 0)

    def test_other_errors_leave_the_with_block(self):
        adapter = ObjectiveAdapter(PartsOnlyObjective())
        with pytest.raises(Diagnostic, match="gradient"):
            with adapter:
                adapter.gradient(np.zeros(1))

        class Failing:
            def evaluate(self, x):
                raise ValueError("objective failed")

        with pytest.raises(ValueError, match="objective failed"):
            with ObjectiveAdapter(Failing()) as adapter:
                adapter.evaluate(np.zeros(1))


class TestStepCount:
    def test_a_bare_adapter_counts_steps_with_no_callback(self):
        adapter = ObjectiveAdapter(FullObjective())
        assert adapter.iterations == 0
        adapter.step_taken(5.0)
        adapter.step_taken(4.0, np.array([-10.0]))
        assert adapter.iterations == 2
        assert (adapter.evaluate_calls, adapter.gradient_calls) == (0, 0)

    def test_a_given_norm_is_reported_as_it_is(self):
        # A norm the loop passes is reported without reading any gradient;
        # without one, the gradient's max-abs norm; without either, None.
        events = []
        adapter = ObjectiveAdapter(FullObjective(), callbacks=[events.append])
        adapter.step_taken(5.0, norm=0.25)
        adapter.step_taken(4.0, np.array([-10.0, 2.0]))
        adapter.step_taken(3.0, np.array([-10.0, 2.0]), norm=0.5)
        adapter.step_taken(2.0)
        assert [(event.iteration, event.gradient_norm) for event in events] == [
            (1, 0.25),
            (2, 10.0),
            (3, 0.5),
            (4, None),
        ]


class VectorValued:
    """Every value path returns a length-2 array instead of a scalar."""

    num_parts = 2

    def evaluate(self, x):
        return np.array([1.0, 2.0])

    def evaluate_with_gradient(self, x):
        return np.array([1.0, 2.0]), np.zeros_like(x)

    def evaluate_parts(self, x, first, count):
        return np.array([1.0, 2.0])


class TestNonScalarValues:
    @pytest.mark.parametrize(
        "call, method",
        [
            (lambda adapter, x: adapter.evaluate(x), "evaluate"),
            (lambda adapter, x: adapter.evaluate_with_gradient(x), "evaluate_with_gradient"),
            (lambda adapter, x: adapter.evaluate_parts(x, 0, 1), "evaluate_parts"),
        ],
    )
    def test_each_value_path_is_diagnosed(self, call, method):
        with pytest.raises(Diagnostic, match=rf"VectorValued\.{method} .*shape \(2,\)"):
            call(ObjectiveAdapter(VectorValued()), np.zeros(1))

    @pytest.mark.parametrize(
        "returned, kind",
        [(5.0, "float"), (None, "NoneType"), ((5.0, np.zeros(1), 1.0), "tuple")],
        ids=["float", "none", "triple"],
    )
    def test_a_fused_call_that_returns_no_pair_is_diagnosed(self, returned, kind):
        # Unpacked unchecked, these escaped as a raw TypeError or ValueError.
        class NoPair:
            def evaluate_with_gradient(self, x):
                return returned

        with pytest.raises(Diagnostic) as raised:
            ObjectiveAdapter(NoPair()).evaluate_with_gradient(np.zeros(1))
        assert str(raised.value) == (
            f"NoPair.evaluate_with_gradient returned a {kind}, not a (value, gradient) pair"
        )

    def test_inferred_parts_sum_is_diagnosed(self):
        class PartsOnly:
            num_parts = 2

            def evaluate_parts(self, x, first, count):
                return [1.0, 2.0]

        with pytest.raises(Diagnostic, match=r"PartsOnly\.evaluate_parts .*list"):
            ObjectiveAdapter(PartsOnly()).evaluate(np.zeros(1))

    def test_zero_dimensional_values_are_scalars(self):
        class ZeroDim:
            def evaluate(self, x):
                return np.array(3.5)

        assert ObjectiveAdapter(ZeroDim()).evaluate(np.zeros(1)) == 3.5


class TestAsParameters:
    def test_copies_input(self):
        x0 = np.ones(3)
        x = as_parameters(x0)
        x[0] = 99.0
        assert x0[0] == 1.0

    def test_preserves_float32(self):
        assert as_parameters(np.ones(2, dtype=np.float32)).dtype == np.float32

    def test_promotes_integers_to_float64(self):
        assert as_parameters(np.array([1, 2])).dtype == np.float64

    def test_accepts_column_matrix(self):
        assert as_parameters(np.ones((4, 1))).shape == (4, 1)

    @pytest.mark.parametrize("bad", [np.array([1.0, np.nan]), np.array([np.inf, 0.0])])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(Diagnostic, match="NaN|infinity"):
            as_parameters(bad)

    def test_rejects_wrong_rank(self):
        with pytest.raises(Diagnostic, match="shape"):
            as_parameters(np.ones((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(Diagnostic, match="non-empty"):
            as_parameters(np.array([]))

    # Complex numbers were truncated to their real parts, strings parsed, and
    # None reported as NaN; each is refused by its dtype instead.  A ragged
    # sequence raised NumPy's own ValueError.
    @pytest.mark.parametrize(
        "bad, got",
        [
            (np.array([1 + 2j, 3]), "dtype complex128"),
            (["1", "2"], "dtype <U1"),
            (["a"], "dtype <U1"),
            ([None, 1.0], "dtype object"),
            (np.array([1.0, 2.0], dtype=object), "dtype object"),
            ([[1.0, 2.0], [3.0]], "a ragged sequence"),
        ],
    )
    def test_refuses_what_is_not_real_numbers(self, bad, got):
        with pytest.raises(Diagnostic) as raised:
            as_parameters(bad)
        assert str(raised.value) == f"initial parameters must be real numbers, got {got}"

    @pytest.mark.parametrize(
        "dtype", [np.bool_, np.int8, np.int64, np.uint16, np.float16, np.longdouble]
    )
    def test_admits_booleans_integers_and_other_floats_as_float64(self, dtype):
        x = as_parameters(np.array([1, 0, 1], dtype=dtype))
        assert x.dtype == np.float64
        assert x.tolist() == [1.0, 0.0, 1.0]


class TestFiniteDifferences:
    def test_quadratic_gradient(self):
        class Quadratic:
            def evaluate(self, x):
                return float(np.vdot(x, x))

        g = finite_difference_gradient(Quadratic(), np.array([1.0, 2.0]))
        assert_allclose(g, [2.0, 4.0], rtol=1e-7)

    def test_matches_hand_linreg_gradient(self):
        g = finite_difference_gradient(FullObjective(), np.zeros(1))
        assert_allclose(g, [-10.0], rtol=1e-8)

    def test_works_through_part_inference(self):
        g = finite_difference_gradient(PartsOnlyObjective(), np.zeros(1))
        assert_allclose(g, [-10.0], rtol=1e-8)

    def test_costs_two_evaluations_per_coordinate(self):
        class Quadratic:
            def evaluate(self, x):
                return float(np.vdot(x, x))

        adapter = ObjectiveAdapter(Quadratic())
        finite_difference_gradient(adapter, np.ones((3, 1)))
        assert adapter.evaluate_calls == 6

    @pytest.mark.parametrize("step", [0.0, float("nan")])
    def test_rejects_bad_step(self, step):
        with pytest.raises(Diagnostic, match="step must be > 0"):
            finite_difference_gradient(FullObjective(), np.zeros(1), step=step)

    def test_string_step_is_refused_not_parsed(self):
        with pytest.raises(Diagnostic) as raised:
            finite_difference_gradient(FullObjective(), np.zeros(1), step="1e-6")
        message = "finite difference step must be a number, got '1e-6' of type str"
        assert str(raised.value) == message


class TestPublicSurface:
    """The exported names, spelled out, so that any addition or removal shows in a diff."""

    def test_package_names(self):
        assert sorted(numopt.__all__) == [
            "AdamUpdate",
            "BeginEpoch",
            "BeginOptimization",
            "CallbackDecision",
            "CallbackList",
            "Diagnostic",
            "EarlyStopping",
            "EndEpoch",
            "EndOptimization",
            "EvaluateCalled",
            "GradientCalled",
            "GradientDescent",
            "LBFGS",
            "LbfgsMemory",
            "MomentumUpdate",
            "ObjectiveAdapter",
            "ObjectiveCapabilities",
            "OptimizationResult",
            "ProgressPrinter",
            "SGD",
            "SimulatedAnnealing",
            "StepTaken",
            "TerminationReason",
            "TimeLimit",
            "TraceRecorder",
            "UpdatePolicy",
            "VanillaUpdate",
            "__version__",
            "as_parameters",
            "backtracking_line_search",
            "check_requirements",
            "finish_run",
            "finite_difference_gradient",
            "parse_progress_line",
            "prepare_run",
            "progress_stop",
            "two_loop_direction",
        ]

    def test_optimizer_names(self):
        assert sorted(numopt.optimizers.__all__) == [
            "AdamUpdate",
            "GradientDescent",
            "LBFGS",
            "LbfgsMemory",
            "MomentumUpdate",
            "SGD",
            "SimulatedAnnealing",
            "UpdatePolicy",
            "VanillaUpdate",
            "backtracking_line_search",
            "finish_run",
            "prepare_run",
            "progress_stop",
            "two_loop_direction",
        ]

    def test_diagnostic_is_one_value_error_under_its_public_name(self):
        # Callbacks and data helpers raise it as the optimizers do, so one
        # ``except ValueError`` catches every refused option.
        assert issubclass(Diagnostic, ValueError)
        assert numopt.core.Diagnostic is numopt.Diagnostic is Diagnostic
        assert f"{Diagnostic.__module__}.{Diagnostic.__qualname__}" == "numopt.core.Diagnostic"

    def test_core_imports_no_numopt_module(self):
        # core is the bottom layer: every other module may import it, and it
        # imports none of them.
        imported = []
        for node in ast.walk(ast.parse(inspect.getsource(numopt.core))):
            if isinstance(node, ast.ImportFrom):
                imported.append("." * node.level + (node.module or ""))
            elif isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
        assert imported
        assert [name for name in imported if name.startswith((".", "numopt"))] == []

    def test_only_core_sends_events(self):
        # The adapter is the one sender: every other module announces an event
        # through it, so none may dispatch or build one itself.
        events = {
            "BeginOptimization",
            "EndOptimization",
            "EvaluateCalled",
            "GradientCalled",
            "StepTaken",
            "BeginEpoch",
            "EndEpoch",
        }
        package = Path(numopt.__file__).parent
        sends = []
        for path in sorted(package.rglob("*.py")):
            if path.name == "core.py" and path.parent == package:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    # The called name, of owner.name(...) or of name(...).
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    if name == "dispatch" or name in events:
                        sends.append(f"{path.relative_to(package)}:{node.lineno} {name}")
        assert sends == []

    def test_callbacks_exports_the_run_events_of_core_and_defines_the_stock_callbacks(self):
        stock = {
            "EarlyStopping",
            "ProgressPrinter",
            "parse_progress_line",
            "TraceRecorder",
            "TimeLimit",
        }
        for name in set(numopt.callbacks.__all__) - stock:
            assert getattr(numopt.callbacks, name) is getattr(numopt.core, name), name
        assert numopt.callbacks._check_options is numopt.core._check_options
        defined = {
            name
            for name, member in vars(numopt.callbacks).items()
            if getattr(member, "__module__", None) == "numopt.callbacks"
        }
        assert defined == stock

    def test_two_loop_direction_is_the_memory_direction(self):
        assert numopt.two_loop_direction is numopt.LbfgsMemory.direction
