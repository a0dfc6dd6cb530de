"""Paired benchmark runs of a parent commit and the working tree.

    python3 tools/bench_pairs.py --parent HEAD --seeds 8201-8210 --trace-seeds 8221 \
        --trace-workloads lbfgs-linear,lbfgs-rosenbrock --output BENCH_8.json

Run from the root of the repository.  Both sides run from fresh copies in a
temporary directory: the parent is ``git archive <ref>`` and the change is
every file of the working tree that git tracks or would track, uncommitted
edits included.  The command, the workloads and the run length are
``BENCHMARK.json``'s.  The command runs on each workload and seed, one
process at a time, once per side, alternating which side runs first from
seed to seed so that a drift of the host's speed falls on both sides alike.
The output file holds every run (the JSON line the command prints last and
its ``env`` record) and a summary: per metric, each side's median and
quartiles over the seeds and how many pairs the change read better, in the
direction ``BENCHMARK.json`` declares.  A metric is ``claimable`` when the
change read better in at least nine tenths of the pairs and its median is
better than the parent's by more than the parent's quartile spread; an
end-to-end metric is ``beyond_bound`` when the change's median is worse than
the parent's by more than the metric's relative ``bound``.  The per-solve
counts ``evals_per_solve`` and ``calls_per_solve`` also say whether every
pair read identical values (``identical``) and list the seeds whose pair did
not (``differing_seeds``): a change that moves no decision of any optimizer
leaves them equal seed by seed, whatever its effect on the last bits.
``--trace-seeds`` adds traced pairs, summarised apart under ``trace1``.  A traced run also
reports each self-time metric's share of its solve (``<metric>.share``):
seconds from one traced pair move with the host's speed, while a share moves
only when that layer's part of the solve does.  The run ends by printing a
verdict: one line per trace mode and workload naming its end-to-end metrics
that are beyond their bound, those that are claimable, and whether its
per-solve counts were identical in every pair.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DESCRIPTION = (
    "Paired perfbench runs of the parent commit and of the working tree, one process at a "
    "time, alternating which side runs first from pair to pair. Each side ran from a fresh "
    "copy (git archive of the parent; the working tree's tracked and untracked, not ignored, "
    "files for the change), so every env.git_sha is null. Each run entry holds the JSON line "
    "the benchmark's command prints last and its env record. Summary: per metric the median and "
    "quartiles over pairs of each side, and how many pairs the change read better. Traced runs "
    "also give each self-time metric's share of the solve (shares, and <metric>.share in trace1)."
)


# Per-solve counts compared pair by pair for identity, not only in the median.
IDENTICAL_COUNTS = ("evals_per_solve", "calls_per_solve")


def quantile(values, fraction):
    """Linearly interpolated quantile of ``values`` (NumPy's default method)."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def spread(values):
    return {
        "median": quantile(values, 0.5),
        "q1": quantile(values, 0.25),
        "q3": quantile(values, 0.75),
        "n": len(values),
    }


def self_time_shares(metrics):
    """Each self-time metric's share of the solve, from a run's ``metrics``, as
    metrics named ``<metric>.share``; none when the self times sum to 0.

    A self-time metric is a unit-``s`` metric other than ``solve_s.*`` and
    ``trace.overhead_s``; the harness's accounting pins these to sum to the
    traced solve.
    """
    seconds = {
        name: metric["value"]
        for name, metric in metrics.items()
        if metric["unit"] == "s"
        and not name.startswith("solve_s.")
        and name != "trace.overhead_s"
    }
    total = sum(seconds.values())
    if not total:
        return {}
    return {
        f"{name}.share": {"value": value / total, "unit": "ratio"}
        for name, value in seconds.items()
    }


def summarize(runs, better, bounds=None):
    """Summary of ``runs`` per trace mode and workload.

    ``runs`` are run records with ``workload``, ``seed``, ``trace``, ``side``
    (``"parent"`` or ``"change"``) and ``result``; ``better`` maps a metric
    name to ``"lower"`` or ``"higher"``, and ``bounds`` an end-to-end metric
    name to its relative bound.  A pair is the two sides' runs of one
    workload, trace mode and seed; a metric missing from ``better`` counts
    lower as better.  Ties count for neither side.  Only metrics in
    ``bounds`` get ``beyond_bound``, and only ``IDENTICAL_COUNTS`` get
    ``identical`` and ``differing_seeds``.  Traced runs add their self-time
    shares (``self_time_shares``) to their metrics.
    """
    bounds = bounds or {}
    paired = {}
    for run in runs:
        key = (f"trace{run['trace']}", run["workload"])
        result = run["result"]
        if run["trace"]:
            metrics = {**result["metrics"], **self_time_shares(result["metrics"])}
            result = {**result, "metrics": metrics}
        paired.setdefault(key, {}).setdefault(run["seed"], {})[run["side"]] = result
    summary = {}
    for (trace, workload), seeds in paired.items():
        paired_seeds = [seed for seed, sides in sorted(seeds.items()) if len(sides) == 2]
        pairs = [seeds[seed] for seed in paired_seeds]
        entry = {
            count: {side: sum(p[side][count] for p in pairs) for side in ("parent", "change")}
            for count in ("failed", "attempted")
        }
        entry["metrics"] = {}
        for metric in pairs[0]["parent"]["metrics"] if pairs else ():
            parent = [p["parent"]["metrics"][metric]["value"] for p in pairs]
            change = [p["change"]["metrics"][metric]["value"] for p in pairs]
            sign = -1.0 if better.get(metric, "lower") == "higher" else 1.0
            parent_spread, change_spread = spread(parent), spread(change)
            parent_median, change_median = parent_spread["median"], change_spread["median"]
            better_pairs = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
            # Signed so that a positive number means the change reads worse.
            worsening = sign * (change_median - parent_median)
            summary_of_metric = {
                "parent": parent_spread,
                "change": change_spread,
                "change_better_pairs": better_pairs,
                "pairs": len(pairs),
                "median_change_rel": (
                    (change_median - parent_median) / parent_median if parent_median else None
                ),
                "claimable": 10 * better_pairs >= 9 * len(pairs)
                and -worsening > parent_spread["q3"] - parent_spread["q1"],
            }
            if metric in bounds:
                summary_of_metric["beyond_bound"] = worsening > bounds[metric] * abs(parent_median)
            if metric in IDENTICAL_COUNTS:
                differing = [s for s, p, c in zip(paired_seeds, parent, change) if p != c]
                summary_of_metric["identical"] = not differing
                summary_of_metric["differing_seeds"] = differing
            entry["metrics"][metric] = summary_of_metric
        summary.setdefault(trace, {})[workload] = entry
    return summary


def verdict(summary):
    """One line per trace mode and workload of ``summary``: its end-to-end
    metrics (those with ``beyond_bound``) that are beyond their bound, those
    that are claimable, and, when it has them, which per-solve counts read
    identical in every pair and on which seeds each other one differed."""
    lines = []
    for trace, workloads in summary.items():
        for workload, entry in workloads.items():
            bounded = {n: m for n, m in entry["metrics"].items() if "beyond_bound" in m}
            beyond = [name for name, metric in bounded.items() if metric["beyond_bound"]]
            claimable = [name for name, metric in bounded.items() if metric["claimable"]]
            line = (
                f"{trace} {workload}: beyond_bound {', '.join(beyond) or 'none'}; "
                f"claimable {', '.join(claimable) or 'none'}"
            )
            counts = {n: m for n, m in entry["metrics"].items() if "identical" in m}
            identical = [name for name, metric in counts.items() if metric["identical"]]
            if identical:
                line += f"; identical {', '.join(identical)}"
            for name, metric in counts.items():
                if not metric["identical"]:
                    seeds = ", ".join(map(str, metric["differing_seeds"]))
                    line += f"; {name} differs on seeds {seeds}"
            lines.append(line)
    return lines


def metric_directions(benchmark):
    """Metric name -> ``"lower"`` or ``"higher"`` from a BENCHMARK.json object."""
    return {
        metric["name"]: metric["better"]
        for group in ("end_to_end", "per_layer")
        for metric in benchmark.get(group, ())
    }


def metric_bounds(benchmark):
    """End-to-end metric name -> its relative ``bound`` from a BENCHMARK.json object."""
    return {metric["name"]: metric["bound"] for metric in benchmark.get("end_to_end", ())}


def parse_seeds(text):
    """``"8201-8205,8210"`` -> [8201, 8202, 8203, 8204, 8205, 8210]."""
    seeds = []
    for part in filter(None, text.split(",")):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def copy_parent(ref, destination):
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref], cwd=ROOT, check=True, capture_output=True
    )
    destination.mkdir()
    subprocess.run(["tar", "-x", "-C", str(destination)], input=archive.stdout, check=True)


def copy_working_tree(destination):
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT,
        check=True,
        capture_output=True,
    )
    for name in filter(None, listed.stdout.decode().split("\0")):
        source = ROOT / name
        if source.is_file():
            target = destination / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run_once(root, benchmark, workload, seed, trace):
    """One run of the benchmark's command in ``root``: (result, env)."""
    completed = subprocess.run(
        [*benchmark["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(benchmark["run_seconds"]), "--trace", str(trace)],
        cwd=root,
        check=True,
        capture_output=True,
        text=True,
    )
    lines = completed.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="git ref of the parent side")
    parser.add_argument("--seeds", required=True, help="untraced seeds, e.g. 8201-8210")
    parser.add_argument("--trace-seeds", default="", help="traced seeds, e.g. 8221")
    parser.add_argument("--trace-workloads", default="", help="comma-separated; default: all")
    parser.add_argument("--output", required=True, type=Path)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    trace_workloads = args.trace_workloads.split(",") if args.trace_workloads else workloads
    schedule = [(w, s, 0) for w in workloads for s in parse_seeds(args.seeds)]
    schedule += [(w, s, 1) for w in trace_workloads for s in parse_seeds(args.trace_seeds)]
    parent_sha = subprocess.run(
        ["git", "rev-parse", args.parent], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        roots = {"parent": Path(scratch) / "parent", "change": Path(scratch) / "change"}
        copy_parent(parent_sha, roots["parent"])
        copy_working_tree(roots["change"])
        for index, (workload, seed, trace) in enumerate(schedule):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            for ran, side in zip(("first", "second"), order):
                result, env = run_once(roots[side], benchmark, workload, seed, trace)
                runs.append({"workload": workload, "seed": seed, "trace": trace, "side": side,
                             "ran": ran, "env": env, "result": result})
                if trace:
                    runs[-1]["shares"] = self_time_shares(result["metrics"])
                print(f"{workload} seed={seed} trace={trace} {side}: "
                      f"solve_rel.p50={result['metrics'].get('solve_rel.p50', {}).get('value')}",
                      flush=True)

    host = "{nproc} {machine} CPUs, BLAS {blas} on {blas_threads} thread(s)"
    record = {
        "description": DESCRIPTION,
        "parent_sha": parent_sha,
        "host": host.format(**runs[0]["env"]),
        "seeds": {"trace0": args.seeds, "trace1": args.trace_seeds},
        "command": " ".join(benchmark["command"])
        + f" --workload W --seed S --seconds {benchmark['run_seconds']} --trace T",
        "summary": summarize(runs, metric_directions(benchmark), metric_bounds(benchmark)),
        "runs": runs,
    }
    args.output.write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(verdict(record["summary"])))


if __name__ == "__main__":
    main()
