"""Mini-batch stochastic gradient descent with pluggable update policies.

Works on separable objectives: the n parts are split into fixed contiguous
windows of ``batch_size`` (the last window may be short) and each epoch
visits the windows in a freshly shuffled order.  The policy object turns the
averaged window gradient into a parameter step, so vanilla SGD, momentum,
and Adam share one loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from ..callbacks import BeginEpoch, EndEpoch, StepTaken
from ..core import Diagnostic, ObjectiveCapabilities, TerminationReason
from ._common import finish_run, prepare_run

__all__ = ["UpdatePolicy", "VanillaUpdate", "MomentumUpdate", "AdamUpdate", "SGD"]


class UpdatePolicy(Protocol):
    """Rule mapping an averaged batch gradient to a parameter increment."""

    def initialize(self, x):
        """Return the mutable state for a run starting at ``x`` (None if stateless)."""

    def step(self, state, gradient, step_size):
        """Return the parameter increment; may mutate ``state`` in place."""


class VanillaUpdate:
    """Plain descent: increment = -step_size * gradient."""

    def initialize(self, x):
        return None

    def step(self, state, gradient, step_size):
        return -(step_size * gradient)


@dataclass
class MomentumUpdate:
    """Heavy-ball smoothing: v <- momentum*v + g, increment = -step_size*v.

    Under a constant gradient the velocity approaches g/(1-momentum)
    geometrically, which is what makes the effective step larger on
    persistent directions.
    """

    momentum: float = 0.9

    def __post_init__(self):
        if not 0.0 <= self.momentum < 1.0:
            raise Diagnostic(f"momentum must be in [0, 1), got {self.momentum}")

    def initialize(self, x):
        return np.zeros_like(x)

    def step(self, velocity, gradient, step_size):
        velocity *= self.momentum
        velocity += gradient
        return -(step_size * velocity)


@dataclass
class _AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int


@dataclass
class AdamUpdate:
    """Adam: bias-corrected first/second moments, per-coordinate scaling.

    increment = -step_size * m_hat / (sqrt(v_hat) + epsilon), which bounds
    every coordinate's step magnitude by about step_size.
    """

    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if not 0.0 <= self.beta1 < 1.0:
            raise Diagnostic(f"beta1 must be in [0, 1), got {self.beta1}")
        if not 0.0 <= self.beta2 < 1.0:
            raise Diagnostic(f"beta2 must be in [0, 1), got {self.beta2}")
        if self.epsilon <= 0:
            raise Diagnostic(f"epsilon must be > 0, got {self.epsilon}")

    def initialize(self, x):
        return _AdamState(m=np.zeros_like(x), v=np.zeros_like(x), t=0)

    def step(self, state, gradient, step_size):
        state.t += 1
        state.m *= self.beta1
        state.m += (1.0 - self.beta1) * gradient
        state.v *= self.beta2
        state.v += (1.0 - self.beta2) * (gradient * gradient)
        m_hat = state.m / (1.0 - self.beta1**state.t)
        v_hat = state.v / (1.0 - self.beta2**state.t)
        return -(step_size * m_hat / (np.sqrt(v_hat) + self.epsilon))


@dataclass
class SGD:
    """Stochastic gradient descent over a separable objective.

    ``iterations`` counts single-batch steps.  The window gradient is
    averaged over its members before the policy sees it, so ``step_size``
    means the same thing at every batch size; with ``batch_size >= n`` and
    the vanilla policy each step is exactly a gradient-descent step on the
    mean objective.  Stops when the epoch-mean objective changes by less
    than ``tolerance`` between consecutive complete epochs, at
    ``max_iterations`` steps (0 means no cap), or on callback request.
    Runs are deterministic given ``seed``.
    """

    step_size: float = 0.01
    batch_size: int = 32
    max_iterations: int = 100000
    tolerance: float = 1e-5
    shuffle: bool = True
    seed: int = 0
    update: UpdatePolicy = field(default_factory=VanillaUpdate)

    requires = ObjectiveCapabilities(part_evaluate=True, part_gradient=True)

    def __post_init__(self):
        if self.step_size <= 0:
            raise Diagnostic(f"step_size must be > 0, got {self.step_size}")
        if self.batch_size < 1:
            raise Diagnostic(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_iterations < 0:
            raise Diagnostic(f"max_iterations must be >= 0, got {self.max_iterations}")
        if self.tolerance < 0:
            raise Diagnostic(f"tolerance must be >= 0, got {self.tolerance}")

    def optimize(self, objective, x0, callbacks=()):
        """Minimize ``objective`` from ``x0``; returns (parameters, result).

        ``final_objective`` is the most recent observed mean: the epoch mean
        after a completed epoch, otherwise the last batch mean.
        """
        x, adapter, events, started = prepare_run(objective, x0, callbacks, self.requires, "SGD")
        n = adapter.num_parts
        starts = list(range(0, n, self.batch_size))
        rng = np.random.default_rng(self.seed)
        state = self.update.initialize(x)
        steps = epoch = 0
        previous_mean = reason = None
        observed = np.nan
        with adapter:
            while reason is None:
                if self.max_iterations and steps >= self.max_iterations:
                    reason = TerminationReason.MAX_ITERATIONS
                    break
                epoch += 1
                events.dispatch(BeginEpoch(epoch=epoch))
                order = rng.permutation(len(starts)) if self.shuffle else range(len(starts))
                epoch_total = 0.0
                for window in order:
                    # Checked before the step so that a cap landing exactly on
                    # an epoch boundary still lets the epoch finish below.
                    if self.max_iterations and steps >= self.max_iterations:
                        reason = TerminationReason.MAX_ITERATIONS
                        break
                    first = starts[window]
                    count = min(self.batch_size, n - first)
                    batch_value = adapter.evaluate_parts(x, first, count)
                    gradient = adapter.gradient_parts(x, first, count) / count
                    x = x + self.update.step(state, gradient, self.step_size)
                    steps += 1
                    epoch_total += batch_value
                    observed = batch_value / count
                    events.dispatch(
                        StepTaken(
                            iteration=steps,
                            objective=observed,
                            gradient_norm=float(np.max(np.abs(gradient))),
                        )
                    )
                else:
                    # Epoch completed; the mean is over values observed at the
                    # iterates current when each window was visited.
                    mean = epoch_total / n
                    observed = mean
                    if events.dispatch(EndEpoch(epoch=epoch, mean_objective=mean)):
                        break
                    if previous_mean is not None and abs(previous_mean - mean) < self.tolerance:
                        reason = TerminationReason.OBJECTIVE_IMPROVEMENT_TOLERANCE
                    previous_mean = mean
        return x, finish_run(adapter, started, observed, steps, reason)
