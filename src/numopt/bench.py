"""Timed optimizer comparison runs with CSV or markdown reports.

Installed as the ``bench`` console command.  Each spec names a problem
family, a size, and an optimizer; the harness generates fresh data per run
(or loads one CSV), times only the optimize call, and averages over runs.
Final objectives are always the full objective value at the returned
parameters, evaluated outside the timed region, so rows are comparable
across optimizers that track different running quantities.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .core import Diagnostic, ObjectiveAdapter, TerminationReason, check_options
from .optimizers import (
    LBFGS,
    SGD,
    AdamUpdate,
    GradientDescent,
    MomentumUpdate,
    SimulatedAnnealing,
)
from .problems import (
    LinearRegression,
    LogisticRegression,
    SeparableLinearRegression,
    generate_noisy_linear,
    load_csv,
)

__all__ = ["BenchSpec", "BenchRecord", "run_bench", "emit_report", "main"]

PROBLEMS = ("linear", "logistic")
# Each optimizer's factory, called with (max_iterations, run seed).
_FACTORIES = {
    "lbfgs": lambda iterations, seed: LBFGS(max_iterations=iterations),
    "gd": lambda iterations, seed: GradientDescent(max_iterations=iterations),
    "sgd": lambda iterations, seed: SGD(max_iterations=iterations, seed=seed),
    "sgd-momentum": lambda iterations, seed: SGD(
        max_iterations=iterations, seed=seed, update=MomentumUpdate()
    ),
    "adam": lambda iterations, seed: SGD(
        max_iterations=iterations, seed=seed, update=AdamUpdate()
    ),
    "sa": lambda iterations, seed: SimulatedAnnealing(max_iterations=iterations, seed=seed),
}
OPTIMIZERS = tuple(_FACTORIES)
# Default size sweep: small enough to finish in seconds, large enough that
# the d and n axes both move.
DEFAULT_GRID = ((10, 100), (10, 1000), (10, 10000), (100, 10000))
CSV_HEADER = "problem,optimizer,d,n,runs,mean_seconds,final_objective_mean,terminations"


@dataclass(frozen=True)
class BenchSpec:
    """One benchmark configuration: problem family, size, optimizer, protocol.

    Checked when it is built, and frozen: a spec that exists is a valid one.
    """

    problem: str = "linear"
    d: int = 100
    n: int = 1000
    optimizer: str = "lbfgs"
    runs: int = 5
    max_iterations: int = 10
    seed: int = 0
    noise_scale: float = 10.0
    dataset: str | None = None

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise Diagnostic(f"--problem must be one of {PROBLEMS}, got {self.problem!r}")
        if self.optimizer not in OPTIMIZERS:
            raise Diagnostic(f"--optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        check_options(
            ("--runs", self.runs, ">= 1", int),
            ("--d", self.d, ">= 1", int),
            ("--n", self.n, ">= 1", int),
            ("--max-iterations", self.max_iterations, ">= 1", int),
            ("--seed", self.seed, ">= 0", int),
            ("--noise", self.noise_scale, ">= 0"),
        )


@dataclass
class BenchRecord:
    """Per-run timings, final objectives, and termination reasons for one spec."""

    spec: BenchSpec
    run_seconds: list
    final_objectives: list
    terminations: list

    @property
    def mean_seconds(self):
        return sum(self.run_seconds) / len(self.run_seconds)

    @property
    def final_objective_mean(self):
        return sum(self.final_objectives) / len(self.final_objectives)

    @property
    def termination_counts(self):
        """The runs' ``reason=count`` pairs, in ``TerminationReason`` order,
        reasons no run ended on left out, joined by ``;``."""
        return ";".join(
            f"{reason.value}={self.terminations.count(reason)}"
            for reason in TerminationReason
            if reason in self.terminations
        )


def _build_objective(spec, optimizer, X, y):
    """The objective for one run: logistic, or least squares part-wise when
    the optimizer needs parts."""
    if spec.problem == "logistic":
        return LogisticRegression(X, y)
    if optimizer.requires.gradient_parts:
        return SeparableLinearRegression(X, y)
    return LinearRegression(X, y)


def _run_data(spec, run_index, loaded):
    if loaded is not None:
        return loaded
    X, y, _ = generate_noisy_linear(spec.d, spec.n, spec.noise_scale, spec.seed + run_index)
    if spec.problem == "logistic":
        # Labels from the sign of the continuous response, roughly balanced.
        y = (y > 0).astype(np.float64)
    return X, y


def run_bench(spec, clock=time.perf_counter):
    """Execute one spec and return its record.

    ``clock`` is injectable so tests can prove that data generation and
    objective construction stay outside the timed window.  Runs are
    sequential; run r uses seed + r for its data and for any stochastic
    optimizer, so the record is reproducible spec-for-spec.
    """
    loaded = None
    if spec.dataset is not None:
        loaded = load_csv(spec.dataset)
        d, n = loaded[0].shape
        spec = replace(spec, d=d, n=n)
    run_seconds = []
    final_objectives = []
    terminations = []
    for run_index in range(spec.runs):
        X, y = _run_data(spec, run_index, loaded)
        optimizer = _FACTORIES[spec.optimizer](spec.max_iterations, spec.seed + run_index)
        objective = _build_objective(spec, optimizer, X, y)
        x0 = np.random.default_rng([spec.seed + run_index, 1]).uniform(
            -1.0, 1.0, size=(spec.d, 1)
        )
        started = clock()
        x, result = optimizer.optimize(objective, x0)
        run_seconds.append(clock() - started)
        # The full value: the objective's own evaluate, or the window [0, n),
        # which is bit for bit LinearRegression.evaluate.
        final_objectives.append(ObjectiveAdapter(objective).evaluate(x))
        terminations.append(result.termination)
    return BenchRecord(
        spec=spec,
        run_seconds=run_seconds,
        final_objectives=final_objectives,
        terminations=terminations,
    )


def emit_report(records, format="csv"):
    """Render records as text: flat CSV or a markdown grid.

    CSV: one row per record under a fixed header, numbers at full
    round-trip precision, and last the runs' termination counts
    (``BenchRecord.termination_counts``).  Markdown: one row per (problem,
    optimizer), one column per (d, n) size, cells showing mean seconds.
    """
    if not records:
        raise Diagnostic("emit_report needs at least one record")
    if format == "csv":
        lines = [CSV_HEADER]
        for record in records:
            spec = record.spec
            lines.append(
                f"{spec.problem},{spec.optimizer},{spec.d},{spec.n},{spec.runs},"
                f"{record.mean_seconds!r},{record.final_objective_mean!r},"
                f"{record.termination_counts}"
            )
        return "\n".join(lines) + "\n"
    if format == "markdown":
        sizes = []
        rows = {}
        for record in records:
            spec = record.spec
            size = (spec.d, spec.n)
            if size not in sizes:
                sizes.append(size)
            rows.setdefault((spec.problem, spec.optimizer), {})[size] = record
        header = ["problem", "optimizer"] + [f"d={d} n={n}" for d, n in sizes]
        lines = [
            "| " + " | ".join(header) + " |",
            "|" + "|".join(" --- " for _ in header) + "|",
        ]
        for (problem, optimizer), cells in rows.items():
            row = [problem, optimizer]
            for size in sizes:
                record = cells.get(size)
                row.append(f"{record.mean_seconds:.4f}s" if record else "-")
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"
    raise Diagnostic(f"--format must be csv or markdown, got {format!r}")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; this tool reserves 2 for runtime
    # failures, so downgrade usage errors to exit 1.
    def error(self, message):
        print(f"usage error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def _build_parser():
    parser = _Parser(
        prog="bench",
        description="Time the bundled optimizers on generated or loaded regression data.",
    )
    parser.add_argument("--problem", choices=PROBLEMS, default=BenchSpec.problem)
    parser.add_argument("--d", type=int, default=None, help="predictor dimension")
    parser.add_argument("--n", type=int, default=None, help="sample count")
    parser.add_argument(
        "--dataset", default=None, help="CSV path (last column is the response); replaces --d/--n"
    )
    parser.add_argument("--optimizer", choices=OPTIMIZERS, default=BenchSpec.optimizer)
    parser.add_argument("--max-iterations", type=int, default=BenchSpec.max_iterations)
    parser.add_argument("--runs", type=int, default=BenchSpec.runs)
    parser.add_argument("--seed", type=int, default=BenchSpec.seed)
    parser.add_argument(
        "--noise", type=float, default=BenchSpec.noise_scale, help="noise scale for generated data"
    )
    parser.add_argument("--format", choices=("csv", "markdown"), default="csv")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.dataset is not None and (args.d is not None or args.n is not None):
        parser.error("--dataset replaces --d/--n; give one or the other")
    if (args.d is None) != (args.n is None):
        parser.error("--d and --n must be given together")
    try:
        base = BenchSpec(
            problem=args.problem,
            optimizer=args.optimizer,
            runs=args.runs,
            max_iterations=args.max_iterations,
            seed=args.seed,
            noise_scale=args.noise,
            dataset=args.dataset,
        )
        if args.dataset is not None:
            specs = [base]  # run_bench takes d and n from the file
        else:
            sizes = [(args.d, args.n)] if args.d is not None else DEFAULT_GRID
            specs = [replace(base, d=d, n=n) for d, n in sizes]
    except Diagnostic as problem:
        parser.error(str(problem))
    try:
        records = [run_bench(spec) for spec in specs]
        text = emit_report(records, args.format)
        if args.out is not None:
            with open(args.out, "w") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except (Diagnostic, OSError) as problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
