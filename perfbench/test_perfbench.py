"""Self-tests of the benchmark: run with ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import dataclasses
import inspect
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import harness
import numopt.callbacks
import numopt.core
import numopt.optimizers._common
import numopt.optimizers.annealing
import numopt.optimizers.gradient_descent
import numopt.optimizers.lbfgs
import numopt.optimizers.sgd
import run as run_script
from numopt import LBFGS, ObjectiveCapabilities, OptimizationResult, TerminationReason
from numopt.problems import LinearRegression, generate_noisy_linear
from tracing import PER_LAYER, Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


class FusedOnly:
    """A user objective offering nothing but the fused call."""

    def evaluate_with_gradient(self, x):
        return float(np.sum(x * x)), 2.0 * x


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_proxy_has_the_capabilities_of_the_real_objective(name):
    objective = WORKLOADS[name].setup(seed=0)
    with Tracer().install(objective) as proxy:
        assert ObjectiveCapabilities.of(proxy) == ObjectiveCapabilities.of(objective)


def test_proxy_passes_through_only_existing_methods():
    objective = FusedOnly()
    with Tracer().install(objective) as proxy:
        assert ObjectiveCapabilities.of(proxy) == ObjectiveCapabilities.of(objective)
        assert not hasattr(proxy, "evaluate")
        assert not hasattr(proxy, "num_parts")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_solve_is_bitwise_the_untraced_solve(name):
    workload = WORKLOADS[name]
    objective = workload.setup(seed=2)
    optimizer, x0, callbacks = workload.solve(objective, 5)
    x_plain, plain = optimizer.optimize(objective, x0, callbacks)
    optimizer, x0, callbacks = workload.solve(objective, 5)
    with Tracer().install(objective) as proxy:
        x_traced, traced = optimizer.optimize(proxy, x0, callbacks)
    assert np.array_equal(x_plain, x_traced)
    assert (plain.evaluate_calls, plain.gradient_calls) == (
        traced.evaluate_calls,
        traced.gradient_calls,
    )


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class ClockedWorkload:
    """Set-up costs 1000 fake seconds, each optimize call exactly 1."""

    name = "clocked"
    layer = "lbfgs"
    nominal_solve_s = 5e4
    setup_batch = 1

    def __init__(self, clock):
        self.clock = clock

    def setup(self, seed):
        self.clock.now += 1000.0
        return object()

    def reference(self, objective):
        self.clock.now += 1e5  # the answer key is never timed either
        return None

    def solve(self, objective, solve_seed):
        clock = self.clock

        class Optimizer:
            def optimize(self, objective, x0, callbacks=()):
                clock.now += 1.0
                result = OptimizationResult(0.0, 1, TerminationReason.MAX_ITERATIONS, 0.0, 3, 2)
                return x0.copy(), result

        clock.now += 10.0  # drawing inputs is outside the timed window
        return Optimizer(), np.zeros(2), ()

    def check(self, reference, x, result):
        self.clock.now += 100.0  # so is checking the answer
        return None


def test_setup_and_checks_stay_outside_the_timed_window():
    clock = FakeClock()

    def pace():
        clock.now += 0.5

    workload = ClockedWorkload(clock)
    report = harness.run(workload, seed=0, seconds=1e6, trace=False, clock=clock, pace=pace)
    metrics = {name: value for name, (value, unit) in report.metrics.items()}
    assert report.attempted == harness.MIN_SOLVES and not report.failures
    # Each solve takes 1 fake second against a 0.5 s pace loop.
    assert metrics["solve_rel.p50"] == metrics["solve_rel.p90"] == 2.0
    assert metrics["setup_s"] == 1000.0
    assert metrics["evals_per_solve"] == 3.0 and metrics["calls_per_solve"] == 5.0


@pytest.mark.parametrize(
    "name, perturbation",
    [
        ("lbfgs-linear", 1e-2),
        ("lbfgs-rosenbrock", 1e-2),
        ("adam-linear-parts", 0.5),
        ("anneal-logistic-observed", 0.5),
    ],
)
def test_a_perturbed_answer_fails_its_check(name, perturbation):
    workload = WORKLOADS[name]
    objective = workload.setup(seed=3)
    reference = workload.reference(objective)
    optimizer, x0, callbacks = workload.solve(objective, 3)
    x0_before = x0.copy()
    x, result = optimizer.optimize(objective, x0, callbacks)
    assert harness.check_solve(workload, reference, x0, x0_before, x, result) is None
    assert harness.check_solve(workload, reference, x0, x0_before, x + perturbation, result)


def test_generic_checks_reject_bad_solves():
    workload = WORKLOADS["lbfgs-rosenbrock"]
    reference = workload.reference(workload.setup(seed=0))
    x0 = np.zeros(2)
    good = np.ones(2)
    result = OptimizationResult(0.0, 1, TerminationReason.GRADIENT_NORM_TOLERANCE, 0.0, 1, 1)
    assert harness.check_solve(workload, reference, x0, x0, good, result) is None
    assert "non-finite" in harness.check_solve(
        workload, reference, x0, x0, np.array([1.0, np.nan]), result
    )
    assert "mutated" in harness.check_solve(workload, reference, x0, x0 + 1, good, result)
    assert "dtype" in harness.check_solve(
        workload, reference, x0, x0, good.astype(np.float32), result
    )
    failed = dataclasses.replace(result, termination=TerminationReason.LINE_SEARCH_FAILURE)
    assert "LINE_SEARCH_FAILURE" in harness.check_solve(
        workload, reference, x0, x0, good, failed
    )


def _numopt_namespaces():
    modules = [
        numopt.core,
        numopt.callbacks,
        numopt.optimizers._common,
        numopt.optimizers.lbfgs,
        numopt.optimizers.sgd,
        numopt.optimizers.annealing,
        numopt.optimizers.gradient_descent,
    ]
    classes = [
        member
        for module in modules
        for _, member in inspect.getmembers(module, inspect.isclass)
        if member.__module__ == module.__name__
    ]
    return modules + classes


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_accounts_exactly_and_leaves_no_wrapper_behind(name):
    namespaces = _numopt_namespaces()
    before = [dict(vars(namespace)) for namespace in namespaces]
    report = harness.run(WORKLOADS[name], seed=4, seconds=0.0, trace=True)
    assert report.failures == []
    assert set(report.metrics) == set(PER_LAYER)
    events = report.metrics["callbacks.events"][0]
    if name == "anneal-logistic-observed":
        # EvaluateCalled and StepTaken per move, plus the run's own three events.
        assert events == 2 * 1500 + 3
    else:
        assert events == 0
    for namespace, attributes in zip(namespaces, before):
        now = dict(vars(namespace))
        assert now.keys() == attributes.keys(), namespace
        for key, value in attributes.items():
            assert now[key] is value, (namespace, key)


def test_install_restores_the_predictor_matrix():
    X, y, _ = generate_noisy_linear(4, 30, 1.0, seed=0)
    objective = LinearRegression(X, y)
    original = objective.X
    tracer = Tracer()
    with tracer.install(objective) as proxy:
        LBFGS().optimize(proxy, np.zeros(4))
        assert tracer.counts["problems.matvecs"] > 0
    assert objective.X is original and type(objective.X) is np.ndarray


def test_accounting_check_catches_a_miscount():
    tracer = Tracer()
    objective = WORKLOADS["lbfgs-rosenbrock"].setup(seed=0)
    with tracer.install(objective) as proxy:
        _, result = tracer.wrap("lbfgs.self_s", LBFGS().optimize)(proxy, np.zeros(2))
    assert harness._account(tracer, result, Counter()) is None
    tracer.counts["evaluations"] += 1
    assert "accounting" in harness._account(tracer, result, Counter())
    tracer.counts["evaluations"] -= 1
    tracer.spans[-1][2] += 10**9  # a span that outlives its parent
    assert "accounting" in harness._account(tracer, result, Counter())


def test_benchmark_json_names_exactly_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_report_ends_with_the_result_line(capsys):
    run_script.main(["--workload", "lbfgs-rosenbrock", "--seed", "1", "--seconds", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(harness.END_TO_END)
    env = json.loads(lines[-2].removeprefix("env "))
    for key in ("numpy", "blas", "blas_version", "blas_threads", "nproc", "python", "git_sha"):
        assert key in env
    assert env["seed"] == 1 and env["blas_threads"] in (1, None)


def test_exits_nonzero_without_the_program_sources(tmp_path):
    ignore = shutil.ignore_patterns("out", "__pycache__", ".pytest_cache")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = [sys.executable, "perfbench/run.py", "--workload", "lbfgs-linear"]
    completed = subprocess.run(
        command + ["--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
