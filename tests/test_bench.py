"""Benchmark harness: timing brackets, reports, and CLI exit codes."""

import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from numopt import SGD, TerminationReason
from numopt.bench import (
    BenchRecord,
    BenchSpec,
    CSV_HEADER,
    OPTIMIZERS,
    _build_parser,
    emit_report,
    main,
    run_bench,
)
from numopt.core import Diagnostic
from numopt.problems import LinearRegression, SeparableLinearRegression, generate_noisy_linear


def small_spec(**overrides):
    config = dict(problem="linear", d=3, n=50, optimizer="lbfgs", runs=2,
                  max_iterations=3, seed=0, noise_scale=1.0)
    config.update(overrides)
    return BenchSpec(**config)


class TestRecord:
    def test_single_run_mean_is_the_run(self):
        record = BenchRecord(small_spec(), [0.5], [2.0], [TerminationReason.MAX_ITERATIONS])
        assert record.mean_seconds == 0.5
        assert record.final_objective_mean == 2.0

    def test_means_are_arithmetic(self):
        record = BenchRecord(small_spec(), [1.0, 3.0], [2.0, 6.0], [None, None])
        assert record.mean_seconds == 2.0
        assert record.final_objective_mean == 4.0


class TestRunBench:
    def test_only_the_optimize_call_is_timed(self):
        # A fake clock ticking one second per reading makes every timed
        # window exactly 1.0; data generation, objective construction, and
        # the reporting evaluation never advance it.
        ticks = []

        def clock():
            ticks.append(len(ticks))
            return float(len(ticks) - 1)

        record = run_bench(small_spec(runs=3), clock=clock)
        assert record.run_seconds == [1.0, 1.0, 1.0]
        assert len(ticks) == 6  # two readings per run, nothing else

    def test_repeat_is_bitwise_deterministic(self):
        first = run_bench(small_spec(optimizer="sgd", runs=2))
        second = run_bench(small_spec(optimizer="sgd", runs=2))
        assert first.final_objectives == second.final_objectives

    def test_runs_use_distinct_data_seeds(self):
        record = run_bench(small_spec(runs=3))
        assert len(set(record.final_objectives)) == 3

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_every_optimizer_runs_linear(self, optimizer):
        record = run_bench(small_spec(optimizer=optimizer, runs=1))
        assert len(record.final_objectives) == 1
        assert np.isfinite(record.final_objectives[0])
        assert all(isinstance(t, TerminationReason) for t in record.terminations)

    @pytest.mark.parametrize("optimizer", ("lbfgs", "adam", "sa"))
    def test_logistic_problem_runs(self, optimizer):
        record = run_bench(small_spec(problem="logistic", optimizer=optimizer, runs=1))
        assert np.isfinite(record.final_objectives[0])

    def test_dataset_shape_overrides_spec(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,y\n0.5,1.0,2.0\n-0.3,0.2,0.5\n1.2,-0.7,1.5\n0.8,0.1,-0.2\n")
        spec = small_spec(d=99, n=99, runs=2, dataset=str(path))
        record = run_bench(spec)
        assert (record.spec.d, record.spec.n) == (2, 4)
        assert (spec.d, spec.n) == (99, 99)
        assert len(record.final_objectives) == 2

    def test_bad_logistic_labels_are_refused_by_the_objective_before_any_timed_run(
        self, tmp_path
    ):
        path = tmp_path / "data.csv"
        path.write_text("a,y\n0.5,1.0\n-0.3,2.0\n")

        def clock():
            raise AssertionError("a run was timed")

        spec = small_spec(problem="logistic", dataset=str(path))
        with pytest.raises(Diagnostic, match=r"^LogisticRegression labels must all be 0 or 1"):
            run_bench(spec, clock=clock)

    def test_validation_rejects_bad_spec(self):
        with pytest.raises(Diagnostic, match="--runs"):
            run_bench(small_spec(runs=0))
        with pytest.raises(Diagnostic, match="--problem"):
            run_bench(small_spec(problem="quadratic"))
        with pytest.raises(Diagnostic, match="--optimizer"):
            run_bench(small_spec(optimizer="newton"))
        with pytest.raises(Diagnostic, match="--n must be >= 1, got 0"):
            run_bench(small_spec(n=0))
        with pytest.raises(Diagnostic, match="--max-iterations"):
            run_bench(small_spec(max_iterations=-1))
        # 0 is no cap: a timed run of annealing, or of diverging GD, never ends.
        with pytest.raises(Diagnostic, match="--max-iterations must be >= 1, got 0"):
            run_bench(small_spec(max_iterations=0))
        with pytest.raises(Diagnostic, match="--noise"):
            run_bench(small_spec(noise_scale=-1.0))
        for option, flag in (("runs", "--runs"), ("d", "--d"), ("n", "--n"),
                             ("max_iterations", "--max-iterations"), ("noise_scale", "--noise")):
            with pytest.raises(Diagnostic, match=flag):
                run_bench(small_spec(**{option: math.nan}))

    def test_a_spec_is_checked_when_built_and_frozen(self):
        spec = small_spec()
        with pytest.raises(FrozenInstanceError):
            spec.runs = 0
        with pytest.raises(Diagnostic, match="--runs must be >= 1, got 0"):
            replace(spec, runs=0)

    def test_sgd_row_reports_the_full_least_squares_value_bitwise(self):
        spec = small_spec(optimizer="sgd", runs=1, max_iterations=20, seed=5)
        record = run_bench(spec)
        X, y, _ = generate_noisy_linear(spec.d, spec.n, spec.noise_scale, spec.seed)
        x0 = np.random.default_rng([spec.seed, 1]).uniform(-1.0, 1.0, size=(spec.d, 1))
        x, _ = SGD(max_iterations=spec.max_iterations, seed=spec.seed).optimize(
            SeparableLinearRegression(X, y), x0
        )
        assert record.final_objective_mean == LinearRegression(X, y).evaluate(x)


class TestEmitReport:
    def make_records(self):
        records = []
        for (d, n) in ((2, 20), (3, 30)):
            spec = small_spec(d=d, n=n, runs=1)
            records.append(BenchRecord(spec, [0.25], [1.5], [TerminationReason.MAX_ITERATIONS]))
        return records

    def test_csv_rows_round_trip(self):
        records = self.make_records()
        text = emit_report(records, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert fields[:5] == ["linear", "lbfgs", "2", "20", "1"]
        assert float(fields[5]) == 0.25
        assert float(fields[6]) == 1.5
        assert fields[7:] == ["max_iterations=1"]

    def test_csv_termination_counts_follow_the_enum_order_and_skip_zeros(self):
        reasons = [
            TerminationReason.OBJECTIVE_IMPROVEMENT_TOLERANCE,
            TerminationReason.STEP_SIZE_UNDERFLOW,
            TerminationReason.GRADIENT_NORM_TOLERANCE,
            TerminationReason.OBJECTIVE_IMPROVEMENT_TOLERANCE,
        ]
        record = BenchRecord(small_spec(runs=4), [0.25] * 4, [1.5] * 4, reasons)
        field = emit_report([record], "csv").strip().split("\n")[1].split(",")[7]
        assert field == (
            "gradient_norm_tolerance=1;objective_improvement_tolerance=2;step_size_underflow=1"
        )
        counts = {
            TerminationReason(name): int(count)
            for name, count in (pair.split("=") for pair in field.split(";"))
        }
        assert counts == {reason: reasons.count(reason) for reason in set(reasons)}

    def test_markdown_grid_layout(self):
        records = self.make_records()
        text = emit_report(records, "markdown")
        lines = text.strip().split("\n")
        assert lines[0] == "| problem | optimizer | d=2 n=20 | d=3 n=30 |"
        assert set(lines[1].replace("|", "").split()) == {"---"}
        assert lines[2] == "| linear | lbfgs | 0.2500s | 0.2500s |"

    def test_markdown_missing_cell_is_dash(self):
        records = self.make_records()
        other = BenchRecord(
            small_spec(d=2, n=20, optimizer="gd", runs=1),
            [0.5], [9.0], [TerminationReason.MAX_ITERATIONS],
        )
        text = emit_report(records + [other], "markdown")
        assert "| linear | gd | 0.5000s | - |" in text

    def test_empty_and_unknown_format_are_diagnosed(self):
        with pytest.raises(Diagnostic):
            emit_report([], "csv")
        with pytest.raises(Diagnostic, match="--format"):
            emit_report(self.make_records(), "json")


class TestMain:
    def test_successful_run_prints_csv(self, capsys):
        code = main(["--d", "2", "--n", "20", "--runs", "1", "--max-iterations", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith(CSV_HEADER)
        assert len(out.strip().split("\n")) == 2

    def test_default_grid_produces_four_rows(self, capsys):
        code = main(["--runs", "1", "--max-iterations", "1", "--optimizer", "gd"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.strip().split("\n")) == 5

    def test_out_writes_the_report_file(self, tmp_path, capsys):
        target = tmp_path / "report.csv"
        code = main([
            "--d", "2", "--n", "20", "--runs", "1", "--max-iterations", "2",
            "--out", str(target),
        ])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith(CSV_HEADER)

    def test_parser_defaults_are_the_specs(self):
        args, spec = _build_parser().parse_args([]), BenchSpec()
        assert (args.problem, args.optimizer, args.runs, args.max_iterations, args.seed,
                args.noise) == (spec.problem, spec.optimizer, spec.runs, spec.max_iterations,
                                spec.seed, spec.noise_scale)

    def test_d_without_n_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--d", "5"])
        assert stop.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_dataset_conflicts_with_sizes(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--dataset", "x.csv", "--d", "2", "--n", "3"])
        assert stop.value.code == 1

    def test_bad_choice_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--optimizer", "newton"])
        assert stop.value.code == 1

    @pytest.mark.parametrize(
        "option",
        [["--runs", "0"], ["--noise", "nan"], ["--seed", "-1"], ["--max-iterations", "0"]],
        ids=["runs", "noise", "seed", "max-iterations"],
    )
    def test_invalid_value_is_a_usage_error(self, option, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--d", "2", "--n", "20", *option])
        assert stop.value.code == 1

    def test_missing_dataset_is_a_runtime_error(self, capsys):
        code = main(["--dataset", "/no/such/file.csv", "--runs", "1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_logistic_labels_are_a_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("a,y\n0.5,2.0\n-0.3,0.7\n")
        code = main(["--dataset", str(path), "--problem", "logistic", "--runs", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "LogisticRegression labels must all be 0 or 1, got values [0.7 2. ]" in err

    @pytest.mark.parametrize("response", ["nan", "inf"])
    def test_a_non_finite_cell_is_a_runtime_error(self, tmp_path, capsys, response):
        path = tmp_path / "data.csv"
        path.write_text(f"a,y\n0.5,1.0\n-0.3,{response}\n1.2,0.4\n")
        code = main(["--dataset", str(path), "--runs", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {path}: line 3 contains NaN or infinity" in captured.err

    def test_dataset_run_succeeds(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("a,b,y\n0.5,1.0,1\n-0.3,0.2,0\n1.2,-0.7,1\n0.8,0.1,0\n")
        code = main([
            "--dataset", str(path), "--problem", "logistic",
            "--runs", "1", "--max-iterations", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert ",2,4,1," in out.strip().split("\n")[1]
