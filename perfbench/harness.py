"""Closed-loop measurement of one workload.

One client runs ``optimize`` solves back to back in this process.  The
program's set-up is timed first, the benchmark's reference answer is
computed after it untimed, one warm-up solve follows, and then solve *i*
runs on inputs drawn from ``seed + i``.  Only the ``optimize`` call sits in
the timed window; drawing inputs and checking the answer happen outside it.

On a shared host, code runs slower in some phases than in others, and the
phases last seconds, so a run's median solve time depends on which phases
it caught.  Each solve is therefore bracketed by two runs of the
workload's pace loop (``pace.py``), fixed work of the same kind on the
same CPU: ``solve_rel.*`` are solve times in multiples of that loop's
mean time, which cancels most of the drift.

The number of solves is fixed by ``--seconds`` and the workload's nominal
solve time, not by the clock, so two runs with one seed do identical work
and their call counts repeat exactly.  The machine's speed drifts over
seconds, so set-up is re-timed at points spread over the whole run rather
than only at its start.
"""

from __future__ import annotations

import resource
import statistics
import time
from collections import Counter
from typing import NamedTuple

import numpy as np

from tracing import ADAPTER, PER_LAYER, Tracer

END_TO_END = {
    "setup_s": "s",
    "solve_rel.p50": "ratio",
    "solve_rel.p90": "ratio",
    "evals_per_solve": "count",
    "calls_per_solve": "count",
    "peak_rss_mb": "MB",
}
SETUP_SAMPLES = 21
MIN_SOLVES = 20
# The solve loops stop early once they have run this many times --seconds,
# so a much slower program still ends within the run limit; its counts then
# cover fewer solves.
DEADLINE_FACTOR = 3.0
# Spans of this many traced solves are kept for the span file.
KEPT_SOLVES = 3
# Where each optimizer's OptimizationResult.iterations is reported.
ITERATION_METRIC = {"lbfgs": "lbfgs.iterations", "sgd": "sgd.steps", "annealing": "annealing.moves"}


class Solved(NamedTuple):
    seconds: float
    pace_s: float  # mean time of the pace loops run just before and after the solve
    result: object  # OptimizationResult, or None when optimize raised
    failure: str | None


class Report(NamedTuple):
    attempted: int
    failures: list
    metrics: dict  # name -> (value, unit)
    spans: list


def time_setup(workload, seed, clock):
    """Seconds per program set-up over one batch, and the objective built."""
    start = clock()
    for _ in range(workload.setup_batch):
        objective = workload.setup(seed)
    return (clock() - start) / workload.setup_batch, objective


def check_solve(workload, reference, x0, x0_before, x, result):
    """None when the solve's answer is acceptable, else why not."""
    if not np.all(np.isfinite(x)):
        return "non-finite parameters"
    if not np.array_equal(x0, x0_before):
        return "x0 was mutated"
    if x.dtype != x0.dtype:
        return f"dtype {x.dtype} returned for a {x0.dtype} start"
    return workload.check(reference, x, result)


def solve_once(workload, objective, reference, solve_seed, clock, pace, wrap_optimize=None):
    """Run and check one solve; only ``optimize`` is timed, between two ``pace`` runs."""
    optimizer, x0, callbacks = workload.solve(objective, solve_seed)
    x0_before = x0.copy()
    optimize = optimizer.optimize if wrap_optimize is None else wrap_optimize(optimizer.optimize)
    paced = clock()
    pace()
    start = clock()
    try:
        x, result = optimize(objective, x0, callbacks)
        failure = None
    except Exception as error:  # noqa: BLE001 - a raising solve is a counted failure
        result, failure = None, f"raised {type(error).__name__}: {error}"
    end = clock()
    pace()
    pace_s = (start - paced + clock() - end) / 2
    if failure is None:
        failure = check_solve(workload, reference, x0, x0_before, x, result)
    return Solved(end - start, pace_s, result, failure)


def run(workload, seed, seconds, trace, clock=time.perf_counter, pace=None):
    """Measure ``workload``; ``trace`` selects the per-layer report.

    ``pace`` replaces the workload's own pace loop, for tests.
    """
    pace = pace or workload.pace
    seconds_per_setup, objective = time_setup(workload, seed, clock)
    setup_times = [seconds_per_setup]
    reference = workload.reference(objective)
    solve_once(workload, objective, reference, seed - 1, clock, pace)  # warm-up

    planned = max(MIN_SOLVES, round(seconds / workload.nominal_solve_s))
    deadline = clock() + DEADLINE_FACTOR * seconds
    if trace:
        return _traced_run(
            workload, objective, reference, seed, planned // 2, clock, pace, deadline
        )
    resample_at = {planned * k // SETUP_SAMPLES for k in range(1, SETUP_SAMPLES)}
    solved = []
    for index in range(planned):
        if index in resample_at:
            setup_times.append(time_setup(workload, seed, clock)[0])
        solved.append(solve_once(workload, objective, reference, seed + index, clock, pace))
        if clock() > deadline:
            break
    relative = [s.seconds / s.pace_s for s in solved]
    done = [s.result for s in solved if s.result is not None]
    evaluations = statistics.fmean(r.evaluate_calls for r in done) if done else 0.0
    gradients = statistics.fmean(r.gradient_calls for r in done) if done else 0.0
    metrics = {
        "setup_s": statistics.median(setup_times),
        "solve_rel.p50": statistics.median(relative),
        "solve_rel.p90": float(np.percentile(relative, 90)),
        "evals_per_solve": evaluations,
        "calls_per_solve": evaluations + gradients,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    failures = [s.failure for s in solved if s.failure]
    return Report(len(solved), failures, _with_units(metrics, END_TO_END), [])


def _traced_run(workload, objective, reference, seed, count, clock, pace, deadline):
    """``count`` untraced solves, then the same solves traced; per-layer report."""
    plain = []
    for index in range(count):
        plain.append(solve_once(workload, objective, reference, seed + index, clock, pace))
        if clock() > deadline:
            break
    tracer = Tracer()
    totals = Counter()
    solved, kept = [], []
    root = f"{workload.layer}.self_s"
    with tracer.install(objective) as proxy:
        for index in range(len(plain)):
            tracer.reset()
            outcome = solve_once(
                workload, proxy, reference, seed + index, clock, pace,
                lambda f: tracer.wrap(root, f),
            )
            if outcome.result is not None:
                problem = _account(tracer, outcome.result, totals)
                if problem and not outcome.failure:
                    outcome = outcome._replace(failure=problem)
            if len(kept) < KEPT_SOLVES:
                kept.append([list(span) for span in tracer.spans])
            solved.append(outcome)
            if clock() > deadline:
                break

    n = max(1, sum(s.result is not None for s in solved))
    metrics = {name: totals[name] / n for name in PER_LAYER}
    for name, unit in PER_LAYER.items():
        if unit == "s":
            metrics[name] /= 1e9  # self times were summed in nanoseconds
    if totals["line_searches"]:
        ratio = totals["first_trial_accepts"] / totals["line_searches"]
        metrics["lbfgs.first_trial_accept_ratio"] = ratio
    metrics[ITERATION_METRIC[workload.layer]] = totals["iterations"] / n
    if workload.layer == "annealing" and totals["iterations"]:
        metrics["annealing.accept_ratio"] = totals["accepted_steps"] / totals["iterations"]
    metrics["grads_per_solve"] = totals["gradient_calls"] / n
    plain_times = [s.seconds for s in plain]
    metrics["solve_s.p50"] = statistics.median(plain_times)
    metrics["solve_s.p90"] = float(np.percentile(plain_times, 90))
    traced_p50 = statistics.median(s.seconds for s in solved)
    metrics["trace.overhead_s"] = traced_p50 - metrics["solve_s.p50"]
    failures = [s.failure for s in plain + solved if s.failure]
    return Report(len(plain) + len(solved), failures, _with_units(metrics, PER_LAYER), kept)


def _account(tracer, result, totals):
    """Fold one traced solve into ``totals``; None when its accounting holds."""
    self_ns, trials, root_ns = tracer.solve_profile()
    totals.update(self_ns)
    totals.update(tracer.counts)
    totals["core.adapter_calls"] += sum(span[0] == ADAPTER for span in tracer.spans)
    totals["lbfgs.line_search_trials"] += trials
    totals["iterations"] += result.iterations
    totals["gradient_calls"] += result.gradient_calls
    counted = (tracer.counts["evaluations"], tracer.counts["gradients"])
    reported = (result.evaluate_calls, result.gradient_calls)
    if counted != reported:
        return f"accounting: proxy counted {counted} calls, result reports {reported}"
    spans = tracer.spans
    for name, start, end, parent in spans[1:]:
        if parent < 0 or not spans[parent][1] <= start <= end <= spans[parent][2]:
            return f"accounting: a {name} span lies outside its parent"
    if sum(self_ns.values()) != root_ns:
        return f"accounting: self times sum to {sum(self_ns.values())} ns of {root_ns} ns"
    return None


def _with_units(metrics, units):
    return {name: (float(metrics[name]), unit) for name, unit in units.items()}
