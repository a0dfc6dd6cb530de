"""The four solve workloads of the numopt benchmark.

Each workload has three parts kept apart on purpose:

* ``setup(seed)`` is the program's own set-up (data generation and the
  problem constructor).  The harness times it as ``setup_s``.
* ``reference(objective)`` is the benchmark's own answer key, computed once
  after set-up and never timed: an exact optimum from plain NumPy.
* ``solve(objective, solve_seed)`` draws the inputs of one ``optimize`` call
  (optimizer, ``x0``, callbacks) from ``solve_seed``; ``check`` then judges
  the returned parameters against the reference.

``pace`` is the loop that solve times are measured against: matrix
products where the objective's products dominate, interpreter work elsewhere.

Why each workload exists is in ``README.md`` next to this file.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from numopt import LBFGS, SGD, AdamUpdate, SimulatedAnnealing, TerminationReason, TraceRecorder
from numopt.problems import (
    LinearRegression,
    LogisticRegression,
    Rosenbrock,
    SeparableLinearRegression,
    generate_noisy_linear,
)
from pace import interpreter_pace, matvec_pace

# Shapes fixed by the benchmark definition.
LINEAR_D, LINEAR_N, NOISE = 100, 10000, 10.0
LOGISTIC_D, LOGISTIC_N = 5, 200
ADAM_STEPS = 626  # two epochs of 313 windows, so the epoch-mean stop test runs

LBFGS_FAILURES = (TerminationReason.LINE_SEARCH_FAILURE, TerminationReason.STEP_SIZE_UNDERFLOW)


class Solve(NamedTuple):
    optimizer: object
    x0: np.ndarray
    callbacks: tuple


def _uniform_start(solve_seed, low, high, shape):
    return np.random.default_rng(solve_seed).uniform(low, high, size=shape)


def _lbfgs_failure(result):
    if result.termination in LBFGS_FAILURES:
        return f"L-BFGS ended on {result.termination.name}"
    return None


class _LeastSquaresReference(NamedTuple):
    X: np.ndarray
    y: np.ndarray
    optimum: float

    @classmethod
    def of(cls, objective):
        X, y = np.array(objective.X), np.array(objective.y)
        phi = np.linalg.lstsq(X.T, y, rcond=None)[0]
        residual = X.T @ phi - y
        return cls(X, y, float(residual @ residual))

    def relative_gap(self, x):
        residual = self.X.T @ np.asarray(x, dtype=np.float64).ravel() - self.y
        return (float(residual @ residual) - self.optimum) / self.optimum


class LbfgsLinear:
    name = "lbfgs-linear"
    layer = "lbfgs"
    nominal_solve_s = 0.018
    setup_batch = 1
    pace = staticmethod(matvec_pace)
    tolerance = 1e-8  # relative objective gap; worst seen over 750 solves: 2.1e-12

    def setup(self, seed):
        X, y, _ = generate_noisy_linear(LINEAR_D, LINEAR_N, NOISE, seed=seed)
        return LinearRegression(X, y)

    def reference(self, objective):
        return _LeastSquaresReference.of(objective)

    def solve(self, objective, solve_seed):
        return Solve(LBFGS(), _uniform_start(solve_seed, -1.0, 1.0, (LINEAR_D, 1)), ())

    def check(self, reference, x, result):
        gap = reference.relative_gap(x)
        if not gap <= self.tolerance:
            return f"relative gap {gap:.3g} to the lstsq optimum exceeds {self.tolerance:g}"
        return _lbfgs_failure(result)


class LbfgsRosenbrock:
    name = "lbfgs-rosenbrock"
    layer = "lbfgs"
    nominal_solve_s = 0.004
    pace = staticmethod(interpreter_pace)
    setup_batch = 20000  # one Rosenbrock() takes ~0.2 us, too short to time alone
    # max |x - 1|.  LBFGS()'s improvement tolerance is absolute (1e-10) while
    # |f| < 1, so it may stop once one step gains less than that, with f
    # still of order 1e-8.  Over 480000 starts, 1.6 in 10^4 stopped with
    # max |x - 1| above 1e-4; the worst was 6.7e-4, at f = 1.1e-7.
    tolerance = 2e-3

    def setup(self, seed):
        return Rosenbrock()

    def reference(self, objective):
        return np.ones(2)

    def solve(self, objective, solve_seed):
        return Solve(LBFGS(), _uniform_start(solve_seed, -2.0, 2.0, 2), ())

    def check(self, reference, x, result):
        error = float(np.max(np.abs(np.ravel(x) - reference)))
        if not error <= self.tolerance:
            return f"max |x - 1| = {error:.3g} exceeds {self.tolerance:g}"
        return _lbfgs_failure(result)


class AdamLinearParts:
    name = "adam-linear-parts"
    layer = "sgd"
    nominal_solve_s = 0.033
    setup_batch = 1
    pace = staticmethod(interpreter_pace)
    tolerance = 2e-2  # relative objective gap; worst seen over 300 solves: 8.4e-3

    def setup(self, seed):
        X, y, _ = generate_noisy_linear(LINEAR_D, LINEAR_N, NOISE, seed=seed)
        return SeparableLinearRegression(X, y)

    def reference(self, objective):
        return _LeastSquaresReference.of(objective)

    def solve(self, objective, solve_seed):
        optimizer = SGD(
            max_iterations=ADAM_STEPS, batch_size=32, update=AdamUpdate(), seed=solve_seed
        )
        return Solve(optimizer, _uniform_start(solve_seed, -1.0, 1.0, (LINEAR_D, 1)), ())

    def check(self, reference, x, result):
        gap = reference.relative_gap(x)
        if not gap <= self.tolerance:
            return f"relative gap {gap:.3g} to the lstsq optimum exceeds {self.tolerance:g}"
        return None


class _LogisticReference(NamedTuple):
    X: np.ndarray
    y: np.ndarray
    optimum: float

    @classmethod
    def of(cls, objective, newton_steps=50):
        """Exact optimum by Newton's method on the (strictly convex) likelihood."""
        X, y = np.array(objective.X), np.array(objective.y)
        phi = np.zeros(X.shape[0])
        for _ in range(newton_steps):
            p = 1.0 / (1.0 + np.exp(-(X.T @ phi)))
            hessian = (X * (p * (1.0 - p))) @ X.T
            phi = phi - np.linalg.solve(hessian, X @ (p - y))
        return cls(X, y, cls.value(X, y, phi))

    @staticmethod
    def value(X, y, phi):
        z = X.T @ phi
        return float(np.sum(np.logaddexp(0.0, z) - y * z))

    def relative_gap(self, x):
        phi = np.asarray(x, dtype=np.float64).ravel()
        return (self.value(self.X, self.y, phi) - self.optimum) / abs(self.optimum)


class AnnealLogisticObserved:
    name = "anneal-logistic-observed"
    layer = "annealing"
    nominal_solve_s = 0.08
    setup_batch = 200
    pace = staticmethod(interpreter_pace)
    # Relative objective gap, loose on purpose: annealing is stochastic and
    # gradient-free.  Over about 3000 solves on 32 data sets the median gap
    # was 3e-7 and the worst 3.4e-3; a typical start is 0.14 away.
    tolerance = 2e-2

    def setup(self, seed):
        X, y, _ = generate_noisy_linear(LOGISTIC_D, LOGISTIC_N, NOISE, seed=seed)
        return LogisticRegression(X, (y > 0).astype(np.float64))

    def reference(self, objective):
        return _LogisticReference.of(objective)

    def solve(self, objective, solve_seed):
        optimizer = SimulatedAnnealing(
            initial_temperature=1.0,
            moves_per_temperature=10,
            max_iterations=1500,
            seed=solve_seed,
        )
        x0 = _uniform_start(solve_seed, -1.0, 1.0, (LOGISTIC_D, 1))
        return Solve(optimizer, x0, (TraceRecorder(),))

    def check(self, reference, x, result):
        gap = reference.relative_gap(x)
        if not gap <= self.tolerance:
            return f"relative gap {gap:.3g} to the Newton optimum exceeds {self.tolerance:g}"
        return None


WORKLOADS = {
    workload.name: workload
    for workload in (LbfgsLinear(), LbfgsRosenbrock(), AdamLinearParts(), AnnealLogisticObserved())
}
