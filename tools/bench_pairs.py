"""Paired benchmark runs of a parent commit and the working tree.

    python3 tools/bench_pairs.py --parent HEAD --seeds 8201-8210 --trace-seeds 8221 \
        --workloads lbfgs-linear,lbfgs-rosenbrock --output BENCH_8.json

Run from the root of the repository.  Both sides run from fresh copies in a
temporary directory: the parent is ``git archive <ref>`` and the change is
every file of the working tree that git tracks or would track, uncommitted
edits included.  Neither copy is a git checkout, so every ``env.git_sha`` is
null.  The command, the workloads and the run length are
``BENCHMARK.json``'s; ``--workloads`` keeps only the workloads it names,
for untraced and traced pairs alike.  The command runs on each workload
and seed, one process at a time, once per side, alternating which side
runs first from seed to seed so that a drift of the host's speed falls on
both sides alike.
The output file holds this text as its ``description``, every run (the JSON
line the command prints last and its ``env`` record) and a summary: per
metric, each side's median and quartiles over the seeds and how many pairs
the change read better, in the direction ``BENCHMARK.json`` declares.  A
metric is ``claimable`` when, of at least ten pairs, the change read better
in at least nine tenths and its median is better than the parent's by more
than the parent's quartile spread; an end-to-end metric is ``beyond_bound``
when the change's median is worse than the parent's by more than the
metric's relative ``bound``.  The per-solve counts ``evals_per_solve`` and
``calls_per_solve`` also say whether every pair read identical values
(``identical``) and list the seeds whose pair did not (``differing_seeds``):
a change that moves no decision of any optimizer leaves them equal seed by
seed, whatever its effect on the last bits.  ``--trace-seeds`` adds traced
pairs, summarised apart under ``trace1``.  A traced run also reports each
self-time metric's share of its solve (``shares`` in its run entry,
``<metric>.share`` in the summary): seconds from one traced pair move with
the host's speed, while a share moves only when that layer's part of the
solve does.  The run ends by printing a verdict: one line per trace mode and
workload naming its end-to-end metrics that are beyond their bound, those
that are claimable, and whether its per-solve counts were identical in every
pair.  The standard error of git and of each run is the tool's, and a
failed one ends the tool.  A run stopped by SIGTERM exits with status 143,
its benchmark process killed and its copies removed; seeds that name no run,
and a ``--workloads`` name that ``BENCHMARK.json`` does not define, are
refused with status 2 before anything is copied.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# Per-solve counts compared pair by pair for identity, not only in the median.
IDENTICAL_COUNTS = ("evals_per_solve", "calls_per_solve")

# The fewest pairs a claim rests on: one pair is always all of its pairs and
# has no quartile spread, so it would be claimable whenever it read better.
CLAIM_PAIRS = 10


def spread(values):
    """Median and quartiles of ``values``, linearly interpolated (NumPy's
    default method); a single value is its own median and quartiles."""
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


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
                "claimable": len(pairs) >= CLAIM_PAIRS
                and 10 * better_pairs >= 9 * len(pairs)
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


def stop(signum, frame):
    """The SIGTERM handler: exit with status 128 + ``signum`` (143), so that
    the running child is killed and the temporary tree removed on the way out."""
    sys.exit(128 + signum)


def run(command, cwd=ROOT):
    """``command``'s standard output, as bytes, run in ``cwd`` with its
    standard error the tool's; a failed command raises ``CalledProcessError``.

    A SIGTERM that ended the tool inside ``Popen``, after its fork, would
    leave the child running with no one to kill it: it is held until the
    child is started and owned here, then acted on through ``stop``.
    """
    held = []
    signal.signal(signal.SIGTERM, lambda signum, frame: held.append(signum))
    with subprocess.Popen(command, cwd=cwd, stdout=subprocess.PIPE) as child:
        try:
            signal.signal(signal.SIGTERM, stop)
            if held:
                stop(held[0], None)
            output = child.communicate()[0]
        except BaseException:
            child.kill()
            raise
    if child.returncode:
        raise subprocess.CalledProcessError(child.returncode, command, output)
    return output


def copy_parent(ref, destination, *paths):
    """Extract ``git archive ref`` into ``destination``: only ``paths``
    when any are given."""
    archive = run(["git", "archive", "--format=tar", ref, *paths])
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(destination, filter="data")


def copy_working_tree(destination):
    listed = run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"])
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():
            target = destination / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run_once(root, benchmark, workload, seed, trace):
    """One run of the benchmark's command in ``root``: (result, env)."""
    output = run(
        [*benchmark["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(benchmark["run_seconds"]), "--trace", str(trace)],
        root,
    )
    lines = output.decode().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="git ref of the parent side")
    parser.add_argument("--seeds", required=True, help="untraced seeds, e.g. 8201-8210")
    parser.add_argument("--trace-seeds", default="", help="traced seeds, e.g. 8221")
    parser.add_argument("--workloads", default="", help="comma-separated; default: all")
    parser.add_argument("--output", required=True, type=Path)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    defined = [workload["name"] for workload in benchmark["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else defined
    unknown = [name for name in workloads if name not in defined]
    if unknown:
        parser.error(f"--workloads: BENCHMARK.json defines no {', '.join(unknown)}")
    schedule = [(w, s, 0) for w in workloads for s in parse_seeds(args.seeds)]
    schedule += [(w, s, 1) for w in workloads for s in parse_seeds(args.trace_seeds)]
    if not schedule:
        parser.error(f"--seeds {args.seeds!r} and --trace-seeds {args.trace_seeds!r} name no run")
    signal.signal(signal.SIGTERM, stop)
    parent_sha = run(["git", "rev-parse", args.parent]).decode().strip()

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
        "description": __doc__,
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
