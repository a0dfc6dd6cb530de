"""SHA-256 identity grid: every optimizer's results on the bundled objectives.

    python3 tools/identity_grid.py
    python3 tools/identity_grid.py --against REF

Runs each optimizer (gradient descent, L-BFGS, SGD with each update policy,
simulated annealing and the compass search of ``demos/custom_optimizer.py``)
on least squares, logistic regression with ridge 0.3 and, where the
optimizer admits it, Rosenbrock, in float32 and float64, from a flat start
and from the same start as a (d, 1) column, the shape that reaches each
optimizer's and objective's reshape paths.  Each of those runs once
unobserved, once observed, and once with a callback that returns TERMINATE
on the 1st, 3rd and 8th ``StepTaken``, ``EvaluateCalled``,
``GradientCalled`` and ``EndEpoch``; SGD does all of that at three iteration
caps, inside an epoch, on its boundary and one step after it.  A run's
record is x's bytes, dtype and shape, ``final_objective``, ``iterations``,
``termination``, the call counts and the repr of every event its callback
saw.  Prints one SHA-256 of the records per optimizer, then one of them all
(``total``).

The grid imports ``numopt`` from the ``src`` beside this script's directory
and the compass search from the ``demos`` there.  With ``--against``, run
from inside a git repository, the same grid also runs in a subprocess on the
``src`` and ``demos`` of ``git archive REF``; each optimizer whose hash
differs is named, and the exit status is then 1.  A run stopped by SIGTERM
exits with status 143, its subprocess killed and its copy removed.
"""

from __future__ import annotations

import argparse
import hashlib
import runpy
import shutil
import signal
import sys
import tempfile
from dataclasses import replace
from itertools import product
from pathlib import Path
from typing import NamedTuple

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
sys.path[:0] = [str(ROOT / "src"), str(TOOLS)]

import numpy as np  # noqa: E402
from bench_pairs import copy_parent, run, stop  # noqa: E402

from numopt import (  # noqa: E402
    LBFGS,
    SGD,
    AdamUpdate,
    CallbackDecision,
    EndEpoch,
    EvaluateCalled,
    GradientCalled,
    GradientDescent,
    MomentumUpdate,
    ObjectiveCapabilities,
    SimulatedAnnealing,
    StepTaken,
    VanillaUpdate,
    check_requirements,
)
from numopt.problems import (  # noqa: E402
    LinearRegression,
    LogisticRegression,
    Rosenbrock,
    SeparableLinearRegression,
    generate_noisy_linear,
)

CompassSearch = runpy.run_path(str(ROOT / "demos" / "custom_optimizer.py"))["CompassSearch"]

# SGD windows of 16, 16 and 8 of the 40 parts: three steps per epoch.
OPTIMIZERS = {
    "gd": GradientDescent(step_size=1e-3, max_iterations=30),
    "lbfgs": LBFGS(max_iterations=30),
    "sgd-vanilla": SGD(batch_size=16, tolerance=0.0, seed=1, update=VanillaUpdate()),
    "sgd-momentum": SGD(batch_size=16, tolerance=0.0, seed=1, update=MomentumUpdate()),
    "sgd-adam": SGD(batch_size=16, tolerance=0.0, seed=1, update=AdamUpdate()),
    "annealing": SimulatedAnnealing(max_iterations=60, seed=1),
    "compass": CompassSearch(max_iterations=30),
}
SGD_CAPS = (26, 27, 28)  # inside the 9th epoch, on its end, one step after it
DTYPES = (np.float32, np.float64)
SHAPES = ("flat", "column")
# None runs unobserved; (kind, k) stops on the k-th event of type kind, and
# (None, 0) only observes.
WATCHES = [None, (None, 0)] + list(
    product((StepTaken, EvaluateCalled, GradientCalled, EndEpoch), (1, 3, 8))
)
X, Y, _ = generate_noisy_linear(3, 40, 1.0, seed=0)
START = np.random.default_rng(0).uniform(-1.0, 1.0, 3)


class Row(NamedTuple):
    name: str
    optimizer: object
    problem: str
    dtype: type
    shape: str
    watch: tuple | None


def needs_parts(optimizer):
    """Whether ``optimizer`` runs on the part-wise least squares, because it
    refuses the full one.  Asked through the public probe, so the answer does
    not depend on what the capability fields are called, and both revisions
    that ``--against`` compares read it the same way."""
    caps = ObjectiveCapabilities.of(LinearRegression(X, Y))
    return check_requirements(caps, optimizer.requires) is not None


def rows():
    """The grid, in the order it is hashed."""
    grid = []
    for name, optimizer in OPTIMIZERS.items():
        stochastic = needs_parts(optimizer)
        problems = ["least-squares", "logistic"] + ([] if stochastic else ["rosenbrock"])
        caps = SGD_CAPS if stochastic else (optimizer.max_iterations,)
        for problem, dtype, shape, cap, watch in product(problems, DTYPES, SHAPES, caps, WATCHES):
            capped = replace(optimizer, max_iterations=cap)
            grid.append(Row(name, capped, problem, dtype, shape, watch))
    return grid


class Watcher:
    """Notes every event's repr, and returns TERMINATE on the ``k``-th event
    of type ``kind`` (never when ``kind`` is None)."""

    def __init__(self, kind, k):
        self.kind, self.k = kind, k
        self.seen = 0
        self.events = []

    def __call__(self, event):
        self.events.append(repr(event))
        if self.kind is not None and isinstance(event, self.kind):
            self.seen += 1
            if self.seen == self.k:
                return CallbackDecision.TERMINATE
        return None


def problem_and_start(problem, dtype, part_wise):
    """A fresh objective, so no memo carries over from another run, and a flat x0."""
    if problem == "rosenbrock":
        return Rosenbrock(), np.array([-1.2, 1.0], dtype)
    predictors, responses = X.astype(dtype), Y.astype(dtype)
    if problem == "least-squares":
        least_squares = SeparableLinearRegression if part_wise else LinearRegression
        return least_squares(predictors, responses), START.astype(dtype)
    labels = (responses > 0).astype(dtype)
    return LogisticRegression(predictors, labels, ridge=0.3), START.astype(dtype)


def record(row):
    """The bytes that stand for one run of ``row``."""
    objective, x0 = problem_and_start(row.problem, row.dtype, needs_parts(row.optimizer))
    if row.shape == "column":
        x0 = x0.reshape(-1, 1)
    watcher = Watcher(*row.watch) if row.watch else None
    with np.errstate(all="ignore"):
        x, result = row.optimizer.optimize(objective, x0, [watcher] if watcher else [])
    fields = (
        x.dtype.str,
        x.shape,
        result.final_objective,
        result.iterations,
        result.termination,
        result.evaluate_calls,
        result.gradient_calls,
        watcher.events if watcher else None,
    )
    return x.tobytes() + repr(fields).encode()


def grid_hashes(grid):
    """Optimizer name -> SHA-256 hex digest of its records in ``grid``, then
    ``"total"`` -> the digest of every record."""
    digests, total = {}, hashlib.sha256()
    for row in grid:
        data = record(row)
        digests.setdefault(row.name, hashlib.sha256()).update(data)
        total.update(data)
    return {**{name: d.hexdigest() for name, d in digests.items()}, "total": total.hexdigest()}


def hashes_at(ref):
    """``grid_hashes`` on the ``src`` and ``demos`` of ``git archive ref``,
    from a copy of this script and of ``bench_pairs.py`` run beside them in
    a subprocess, whose standard error is the tool's."""
    with tempfile.TemporaryDirectory(prefix="identity-grid-") as scratch:
        copy_parent(ref, scratch, "src", "demos")
        script = Path(scratch) / "tools" / Path(__file__).name
        script.parent.mkdir()
        shutil.copy(TOOLS / "bench_pairs.py", script.parent)
        shutil.copy(__file__, script)
        listed = run([sys.executable, str(script)], scratch).decode()
    return {name: digest for digest, name in (line.split() for line in listed.splitlines())}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REF", help="git ref to compare with")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, stop)
    here = grid_hashes(rows())
    for name, digest in here.items():
        print(f"{digest}  {name}")
    if args.against is None:
        return 0
    there = hashes_at(args.against)
    differing = [name for name in here if name != "total" and here[name] != there.get(name)]
    for name in differing:
        print(f"differs at {args.against}: {name}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
