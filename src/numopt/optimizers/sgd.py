"""Mini-batch stochastic gradient descent with pluggable update policies.

Works on separable objectives: the n parts are split into fixed contiguous
windows of ``batch_size`` (the last window may be short) and each epoch
visits the windows in a freshly shuffled order.  The policy object turns the
averaged window gradient into a parameter step, so vanilla SGD, momentum,
and Adam share one loop.  Each epoch's BeginEpoch and EndEpoch go out
through ``adapter.announce``, built only when a callback listens, and
EndEpoch's answer is the stop test that keeps a new epoch from starting
after a stop request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from ..core import (
    BeginEpoch,
    Diagnostic,
    EndEpoch,
    ObjectiveCapabilities,
    TerminationReason,
    _check_options,
)
from ._common import _cap_stop, finish_run, prepare_run

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
        _check_options(("momentum", self.momentum, "in [0, 1)"))

    def initialize(self, x):
        return np.zeros_like(x)

    def step(self, velocity, gradient, step_size):
        velocity *= self.momentum
        velocity += gradient
        return -(step_size * velocity)


@dataclass
class _AdamState:
    """Moments, step count and the run's constants as 0-d arrays of x's dtype."""

    m: np.ndarray
    v: np.ndarray
    t: int
    beta1: np.ndarray
    one_minus_beta1: np.ndarray
    beta2: np.ndarray
    one_minus_beta2: np.ndarray
    epsilon: np.ndarray


@dataclass
class AdamUpdate:
    """Adam: bias-corrected first/second moments, per-coordinate scaling.

    Kingma & Ba (ICLR 2015), Algorithm 1, with the first-moment bias
    correction folded into the step size.  At step t, in place on m and v:

        m <- beta1 * m + (1 - beta1) * g
        v <- beta2 * v + (1 - beta2) * g * g
        increment = (-step_size / (1 - beta1**t)) * m
                    / (sqrt(v / (1 - beta2**t)) + epsilon)

    This is -step_size * m_hat / (sqrt(v_hat) + epsilon), epsilon still
    added to sqrt(v_hat), which bounds every coordinate's step magnitude by
    about step_size.

    ``initialize`` binds beta1, 1 - beta1, beta2, 1 - beta2 and epsilon once
    per run as 0-d arrays of x's dtype.  NumPy converts such an array exactly
    as it converts a Python float operand, so the bits are the same, but it
    skips the weak-scalar promotion that a float pays on every call.  The
    two bias corrections change every step and stay Python floats.
    """

    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        _check_options(
            ("beta1", self.beta1, "in [0, 1)"),
            ("beta2", self.beta2, "in [0, 1)"),
            ("epsilon", self.epsilon, "> 0"),
        )

    def initialize(self, x):
        def constant(value):
            return np.array(value, dtype=x.dtype)

        return _AdamState(
            m=np.zeros_like(x),
            v=np.zeros_like(x),
            t=0,
            beta1=constant(self.beta1),
            one_minus_beta1=constant(1.0 - self.beta1),
            beta2=constant(self.beta2),
            one_minus_beta2=constant(1.0 - self.beta2),
            epsilon=constant(self.epsilon),
        )

    def step(self, state, gradient, step_size):
        state.t += 1
        m, v = state.m, state.v
        m *= state.beta1
        m += state.one_minus_beta1 * gradient
        v *= state.beta2
        v += state.one_minus_beta2 * gradient * gradient
        denominator = np.sqrt(v / (1.0 - self.beta2**state.t))
        denominator += state.epsilon
        return m * (-step_size / (1.0 - self.beta1**state.t)) / denominator


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
    Runs are deterministic given ``seed``.  ``shuffle`` is True or False,
    NumPy's bools included, and ``update`` is any object with callable
    ``initialize`` and ``step`` (``UpdatePolicy``); both are checked when
    the optimizer is built.
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
        _check_options(
            ("step_size", self.step_size, "> 0"),
            ("batch_size", self.batch_size, ">= 1", int),
            ("max_iterations", self.max_iterations, ">= 0", int),
            ("tolerance", self.tolerance, ">= 0"),
            ("shuffle", self.shuffle, "True or False"),
            ("seed", self.seed, ">= 0", int),
        )
        # Checked here, not by the first run, which would end in an
        # AttributeError after BeginOptimization, or, for a policy class,
        # whose methods are unbound, in a TypeError.
        update = self.update
        if isinstance(update, type):
            kind = f"the class {update.__name__} (pass an instance, {update.__name__}())"
        elif all(callable(getattr(update, method, None)) for method in ("initialize", "step")):
            return
        else:
            kind = type(update).__name__
        raise Diagnostic(f"update must have callable initialize and step, got {kind}")

    def optimize(self, objective, x0, callbacks=()):
        """Minimize ``objective`` from ``x0``; returns (parameters, result).

        ``final_objective`` is the most recent observed mean: the epoch mean
        after a completed epoch, otherwise the last batch mean.
        """
        x, adapter = prepare_run(objective, x0, callbacks, self.requires, "SGD")
        n, batch = adapter.num_parts, self.batch_size
        # (first, count, count as a 0-d array of x's dtype) per window: dividing
        # by the array gives the bits that dividing by the int gives, without
        # NumPy's per-call promotion of a Python scalar.
        counts = [(first, min(batch, n - first)) for first in range(0, n, batch)]
        windows = [(first, count, np.array(count, dtype=x.dtype)) for first, count in counts]
        rng = np.random.default_rng(self.seed)
        state = self.update.initialize(x)
        epoch = 0
        previous_mean = reason = None
        observed = np.nan
        with adapter:
            while reason is None:
                epoch += 1
                adapter.announce(BeginEpoch, epoch)
                order = rng.permutation(len(windows)) if self.shuffle else range(len(windows))
                epoch_total = 0.0
                for window in order:
                    # Tested before the step: a cap reached by an epoch's last
                    # step is decided at the epoch's end, below.
                    if (reason := _cap_stop(self, adapter.iterations)) is not None:
                        break
                    first, count, size = windows[window]
                    batch_value = adapter.evaluate_parts(x, first, count)
                    gradient = adapter.gradient_parts(x, first, count) / size
                    x = x + self.update.step(state, gradient, self.step_size)
                    epoch_total += batch_value
                    observed = batch_value / count
                    adapter.step_taken(observed, gradient)
                else:
                    # Epoch completed; the mean is over values observed at the
                    # iterates current when each window was visited.
                    mean = epoch_total / n
                    observed = mean
                    # A stop request ends the run here, so that no epoch starts after it.
                    if adapter.announce(EndEpoch, epoch, mean):
                        break
                    if previous_mean is not None and abs(previous_mean - mean) < self.tolerance:
                        reason = TerminationReason.OBJECTIVE_IMPROVEMENT_TOLERANCE
                    else:
                        reason = _cap_stop(self, adapter.iterations)
                    previous_mean = mean
        return x, finish_run(adapter, observed, reason)
