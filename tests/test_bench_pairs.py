"""Summary of paired benchmark runs (tools/bench_pairs.py), on canned records."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture
def bench_pairs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the summary started a subprocess")

    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(workload, seed, side, metrics, trace=0, attempted=10, failed=0):
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "side": side,
        "ran": "first",
        "env": {},
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()},
        },
    }


BETTER = {"solve_rel.p50": "lower", "accept_ratio": "higher", "calls": "lower"}


def canned_runs():
    parent = {1: (4.0, 0.5, 7.0), 2: (5.0, 0.6, 7.0), 3: (6.0, 0.7, 7.0), 4: (8.0, 0.8, 7.0)}
    change = {1: (3.0, 0.6, 7.0), 2: (5.5, 0.6, 7.0), 3: (2.0, 0.5, 7.0), 4: (4.0, 0.9, 7.0)}
    runs = []
    for seed in parent:
        for side, values in (("parent", parent[seed]), ("change", change[seed])):
            metrics = dict(zip(("solve_rel.p50", "accept_ratio", "calls"), values))
            runs.append(run("w", seed, side, metrics, failed=int(side == "change" and seed == 2)))
    # A run without its partner is not a pair.
    runs.append(run("w", 5, "parent", {"solve_rel.p50": 100.0, "accept_ratio": 0.0, "calls": 1.0}))
    runs.append(run("w", 9, "parent", {"solve_rel.p50": 0.0}, trace=1, attempted=3))
    runs.append(run("w", 9, "change", {"solve_rel.p50": 1.0}, trace=1, attempted=3))
    return runs


def test_medians_and_quartiles_interpolate_linearly(bench_pairs):
    metrics = bench_pairs.summarize(canned_runs(), BETTER)["trace0"]["w"]["metrics"]
    metric = metrics["solve_rel.p50"]
    assert metric["parent"] == {"median": 5.5, "q1": 4.75, "q3": 6.5, "n": 4}
    assert metric["change"] == {"median": 3.5, "q1": 2.75, "q3": 4.375, "n": 4}
    assert metric["pairs"] == 4
    assert metric["median_change_rel"] == pytest.approx((3.5 - 5.5) / 5.5)


def test_better_pairs_follow_each_metrics_direction_and_ties_count_for_neither(bench_pairs):
    metrics = bench_pairs.summarize(canned_runs(), BETTER)["trace0"]["w"]["metrics"]
    assert metrics["solve_rel.p50"]["change_better_pairs"] == 3  # lower is better
    assert metrics["accept_ratio"]["change_better_pairs"] == 2  # higher; one tie
    assert metrics["calls"]["change_better_pairs"] == 0
    assert metrics["calls"]["median_change_rel"] == 0.0


def test_counts_are_summed_over_pairs_and_traces_kept_apart(bench_pairs):
    summary = bench_pairs.summarize(canned_runs(), BETTER)
    assert summary["trace0"]["w"]["attempted"] == {"parent": 40, "change": 40}
    assert summary["trace0"]["w"]["failed"] == {"parent": 0, "change": 1}
    traced = summary["trace1"]["w"]
    assert traced["attempted"] == {"parent": 3, "change": 3}
    assert traced["metrics"]["solve_rel.p50"]["median_change_rel"] is None  # parent median 0


def test_directions_and_seeds_are_read_as_written(bench_pairs):
    benchmark = {
        "end_to_end": [{"name": "solve_rel.p50", "better": "lower"}],
        "per_layer": [{"name": "lbfgs.first_trial_accept_ratio", "better": "higher"}],
    }
    assert bench_pairs.metric_directions(benchmark) == {
        "solve_rel.p50": "lower",
        "lbfgs.first_trial_accept_ratio": "higher",
    }
    assert bench_pairs.parse_seeds("8201-8203,8210") == [8201, 8202, 8203, 8210]


def ten_pairs(parent, change, metric="solve_rel.p50", workload="w"):
    runs = []
    for seed, values in enumerate(zip(parent, change)):
        for side, value in zip(("parent", "change"), values):
            runs.append(run(workload, seed, side, {metric: value}))
    return runs


# Ten parent runs with median 14.5 and quartiles 12.25 and 16.75 (spread 4.5).
PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]


@pytest.mark.parametrize(
    "change, claimable",
    [
        ([p - 5.0 for p in PARENT[:9]] + [PARENT[9] + 1.0], True),  # 9/10, medians 5 apart
        ([p - 4.0 for p in PARENT], False),  # 10/10, medians 4 apart: inside the spread
        ([p - 6.0 for p in PARENT[:8]] + [p + 1.0 for p in PARENT[8:]], False),  # 8/10
        ([p + 5.0 for p in PARENT], False),  # worse
        ([PARENT[0] - 100.0], False),  # one pair, better by far
        ([p - 100.0 for p in PARENT[:9]], False),  # nine pairs, all better by far
    ],
    ids=["nine-of-ten", "within-spread", "eight-of-ten", "worse", "one-pair", "nine-pairs"],
)
def test_claimable_needs_nine_tenths_of_pairs_and_medians_beyond_the_parents_spread(
    bench_pairs, change, claimable
):
    metric = bench_pairs.summarize(ten_pairs(PARENT, change), BETTER)["trace0"]["w"]["metrics"]
    assert metric["solve_rel.p50"]["claimable"] is claimable


# lbfgs-rosenbrock solve_rel.p90 in BENCH_37.json, where only one isinstance
# per solve changed: better in 10 of 10 pairs and the median 1.2% lower,
# beyond the parent's spread, yet the change's q3 (3.7745) is above the
# parent's q1 (3.7716).
BENCH_37_PARENT = [3.7708, 3.8003, 3.7974, 3.7694, 3.793, 3.8133, 3.7687, 3.784, 3.8001, 3.7742]
BENCH_37_CHANGE = [3.6848, 3.7269, 3.7859, 3.7693, 3.7762, 3.6786, 3.6848, 3.756, 3.788, 3.6833]


@pytest.mark.parametrize("metric, sign", [("solve_rel.p50", 1.0), ("accept_ratio", -1.0)])
@pytest.mark.parametrize("shift, claimable", [(0.0, False), (0.01, True)],
                         ids=["overlapping", "apart"])
def test_claimable_needs_the_quartile_ranges_apart(bench_pairs, metric, sign, shift, claimable):
    parent = [sign * p for p in BENCH_37_PARENT]
    change = [sign * (c - shift) for c in BENCH_37_CHANGE]
    summary = bench_pairs.summarize(ten_pairs(parent, change, metric), BETTER)
    result = summary["trace0"]["w"]["metrics"][metric]
    assert result["change_better_pairs"] == 10
    assert abs(result["parent"]["median"] - result["change"]["median"]) > (
        result["parent"]["q3"] - result["parent"]["q1"]
    )
    assert result["claimable"] is claimable


def test_claimable_follows_a_higher_is_better_metric(bench_pairs):
    summary = bench_pairs.summarize(
        ten_pairs(PARENT, [p + 5.0 for p in PARENT], "accept_ratio"), BETTER
    )
    assert summary["trace0"]["w"]["metrics"]["accept_ratio"]["claimable"] is True


@pytest.mark.parametrize(
    "metric, factor, beyond",
    [
        ("solve_rel.p50", 1.2, False),
        ("solve_rel.p50", 1.3, True),
        ("solve_rel.p50", 0.5, False),  # better by any amount is never beyond
        ("accept_ratio", 0.8, False),
        ("accept_ratio", 0.7, True),  # higher is better: lower reads worse
    ],
)
def test_beyond_bound_compares_medians_with_the_relative_bound(bench_pairs, metric, factor, beyond):
    runs = ten_pairs(PARENT, [p * factor for p in PARENT], metric)
    summary = bench_pairs.summarize(runs, BETTER, {metric: 0.25})
    assert summary["trace0"]["w"]["metrics"][metric]["beyond_bound"] is beyond


def test_beyond_bound_only_for_bounded_metrics_and_any_worsening_of_a_zero_median(bench_pairs):
    runs = ten_pairs([0.0] * 10, [1.0] * 10, "calls", workload="v")
    runs += ten_pairs([0.0] * 10, [0.0] * 9 + [1.0], "solve_rel.p50")
    summary = bench_pairs.summarize(runs, BETTER, {"solve_rel.p50": 0.25})["trace0"]
    assert "beyond_bound" not in summary["v"]["metrics"]["calls"]
    assert summary["w"]["metrics"]["solve_rel.p50"]["beyond_bound"] is False  # median still 0
    runs = ten_pairs([0.0] * 10, [1.0] * 10, "solve_rel.p50")
    summary = bench_pairs.summarize(runs, BETTER, {"solve_rel.p50": 0.25})["trace0"]
    assert summary["w"]["metrics"]["solve_rel.p50"]["beyond_bound"] is True
    assert bench_pairs.metric_bounds(
        {"end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.25}],
         "per_layer": [{"name": "problems.calls", "better": "lower"}]}
    ) == {"setup_s": 0.25}


def traced_pair(scale):
    layers = {"problems.self_s": 0.2, "core.adapter_self_s": 0.3, "lbfgs.self_s": 0.5}
    others = {"solve_s.p50": 2.0, "solve_s.p90": 3.0, "trace.overhead_s": 0.4}
    runs = []
    for side, factor in (("parent", 1.0), ("change", scale)):
        entry = run("w", 1, side, {}, trace=1)
        entry["result"]["metrics"] = {
            name: {"value": value * factor, "unit": "s"}
            for name, value in {**layers, **others}.items()
        }
        entry["result"]["metrics"]["problems.calls"] = {"value": 7.0, "unit": "count"}
        runs.append(entry)
    return runs


def test_traced_shares_are_self_times_over_their_sum_and_ignore_a_uniform_scale(bench_pairs):
    runs = traced_pair(0.85)
    shares = bench_pairs.self_time_shares(runs[0]["result"]["metrics"])
    assert {name: share["value"] for name, share in shares.items()} == pytest.approx(
        {"problems.self_s.share": 0.2, "core.adapter_self_s.share": 0.3, "lbfgs.self_s.share": 0.5}
    )
    metrics = bench_pairs.summarize(runs, BETTER)["trace1"]["w"]["metrics"]
    assert metrics["problems.self_s"]["median_change_rel"] == pytest.approx(-0.15)
    for name in shares:
        assert metrics[name]["change"]["median"] == pytest.approx(metrics[name]["parent"]["median"])
        assert metrics[name]["median_change_rel"] == pytest.approx(0.0, abs=1e-12)
    untraced = bench_pairs.summarize(ten_pairs(PARENT, PARENT), BETTER)["trace0"]["w"]["metrics"]
    assert not any(name.endswith(".share") for name in untraced)


def test_verdict_names_each_workloads_end_to_end_metrics_beyond_bound_and_claimable(bench_pairs):
    # On workload a, setup_s worsens by 27% against a 0.25 bound while
    # solve_rel.p50 gains; calls has no bound, so it is never named.
    runs = []
    for seed, p in enumerate(PARENT):
        runs.append(run("a", seed, "parent", {"setup_s": p, "solve_rel.p50": p, "calls": p}))
        runs.append(
            run("a", seed, "change", {"setup_s": 1.27 * p, "solve_rel.p50": p - 5.0, "calls": 1.0})
        )
    runs += ten_pairs(PARENT, PARENT, workload="b")
    bounds = {"setup_s": 0.25, "solve_rel.p50": 0.25}
    summary = bench_pairs.summarize(runs, BETTER, bounds)
    assert summary["trace0"]["a"]["metrics"]["calls"]["claimable"] is True
    assert bench_pairs.verdict(summary) == [
        "trace0 a: beyond_bound setup_s; claimable solve_rel.p50",
        "trace0 b: beyond_bound none; claimable none",
    ]


def test_per_solve_counts_say_whether_every_pair_read_identical_values(bench_pairs):
    # evals_per_solve differs on seeds 3 and 7 only; calls_per_solve never.
    runs = []
    for seed in range(10):
        evals = 7.0 + (seed in (3, 7))
        runs.append(run("w", seed, "parent", {"evals_per_solve": 7.0, "calls_per_solve": 14.0}))
        runs.append(run("w", seed, "change", {"evals_per_solve": evals, "calls_per_solve": 14.0}))
    runs.append(run("w", 11, "change", {"evals_per_solve": 9.0, "calls_per_solve": 1.0}))  # unpaired
    runs += ten_pairs(PARENT, PARENT, metric="calls", workload="v")
    summary = bench_pairs.summarize(runs, BETTER)
    metrics = summary["trace0"]["w"]["metrics"]
    assert metrics["evals_per_solve"]["identical"] is False
    assert metrics["evals_per_solve"]["differing_seeds"] == [3, 7]
    assert metrics["calls_per_solve"]["identical"] is True
    assert metrics["calls_per_solve"]["differing_seeds"] == []
    assert "identical" not in summary["trace0"]["v"]["metrics"]["calls"]
    assert bench_pairs.verdict(summary) == [
        "trace0 w: beyond_bound none; claimable none; identical calls_per_solve; "
        "evals_per_solve differs on seeds 3, 7",
        "trace0 v: beyond_bound none; claimable none",
    ]


@pytest.mark.parametrize("seeds", ["", "5-3", ","])
def test_a_schedule_with_no_run_is_refused_before_any_copy(
    bench_pairs, monkeypatch, tmp_path, capsys, seeds
):
    def copy(*args):
        raise AssertionError("a tree was copied")

    monkeypatch.setattr(bench_pairs, "copy_parent", copy)
    monkeypatch.setattr(bench_pairs, "copy_working_tree", copy)
    output = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exited:
        bench_pairs.main(["--seeds", seeds, "--output", str(output)])
    assert exited.value.code == 2
    assert "name no run" in capsys.readouterr().err
    assert not output.exists()


def test_a_workload_benchmark_json_does_not_define_is_refused_before_any_copy(
    bench_pairs, monkeypatch, tmp_path, capsys
):
    def copy(*args):
        raise AssertionError("a tree was copied")

    monkeypatch.setattr(bench_pairs, "copy_parent", copy)
    monkeypatch.setattr(bench_pairs, "copy_working_tree", copy)
    output = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exited:
        bench_pairs.main([
            "--seeds", "1", "--trace-seeds", "2",
            "--workloads", "lbfgs-linear,lbfgs-rosenbrok", "--output", str(output),
        ])
    assert exited.value.code == 2
    assert "BENCHMARK.json defines no lbfgs-rosenbrok" in capsys.readouterr().err
    assert not output.exists()


def test_workloads_keeps_only_the_named_workloads_untraced_and_traced(
    bench_pairs, monkeypatch, tmp_path, capsys
):
    """With the copies, git and the benchmark runs stubbed, ``--workloads``
    schedules the named workload's untraced and traced pairs and no other
    workload's, each pair once per side."""
    ran = []

    def run_once(root, benchmark, workload, seed, trace):
        ran.append((root.name, workload, seed, trace))
        metrics = {"solve_rel.p50": {"value": 1.0, "unit": "ratio"}}
        env = {"nproc": 2, "machine": "x86_64", "blas": "openblas", "blas_threads": 1}
        return {"attempted": 1, "failed": 0, "metrics": metrics}, env

    monkeypatch.setattr(bench_pairs, "copy_parent", lambda *args: None)
    monkeypatch.setattr(bench_pairs, "copy_working_tree", lambda *args: None)
    monkeypatch.setattr(bench_pairs, "run", lambda command, cwd=None: b"0123abcd\n")
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    output = tmp_path / "BENCH.json"
    bench_pairs.main([
        "--workloads", "lbfgs-rosenbrock", "--seeds", "1-2", "--trace-seeds", "3",
        "--output", str(output),
    ])
    assert ran == [
        ("parent", "lbfgs-rosenbrock", 1, 0),
        ("change", "lbfgs-rosenbrock", 1, 0),
        ("change", "lbfgs-rosenbrock", 2, 0),
        ("parent", "lbfgs-rosenbrock", 2, 0),
        ("parent", "lbfgs-rosenbrock", 3, 1),
        ("change", "lbfgs-rosenbrock", 3, 1),
    ]
    summary = json.loads(output.read_text())["summary"]
    assert {trace: list(workloads) for trace, workloads in summary.items()} == {
        "trace0": ["lbfgs-rosenbrock"],
        "trace1": ["lbfgs-rosenbrock"],
    }
    assert summary["trace0"]["lbfgs-rosenbrock"]["metrics"]["solve_rel.p50"]["pairs"] == 2
    assert summary["trace1"]["lbfgs-rosenbrock"]["metrics"]["solve_rel.p50"]["pairs"] == 1
