"""Simulated annealing: gradient-free minimization by Metropolis sampling.

Only objective evaluations are needed.  Proposals perturb one coordinate at
a time; worsening moves are accepted with probability exp(-delta/T) under a
geometric cooling schedule, which lets the search climb out of local minima
early and settle into greedy descent as T shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import ObjectiveCapabilities, check_options
from ._common import cap_stop, finish_run, prepare_run, steps_within_cap

__all__ = ["SimulatedAnnealing"]

# Moves whose uniforms one generator call draws.  One call per move for each
# of three draws cost ~7 us of a ~27 us move on a 5-dimensional objective.
_CHUNK = 256


def _move_uniforms(rng):
    """Endless stream of U[0, 1) triples, one per move, drawn ``_CHUNK`` at a time.

    ``Generator.random`` fills its output from the bit stream in order, so
    the triples are the same whatever the chunk size.
    """
    while True:
        yield from rng.random((_CHUNK, 3)).tolist()


@dataclass
class SimulatedAnnealing:
    """Single-coordinate-move annealer.

    Each move picks one uniformly random coordinate j and perturbs it by
    U[-w, w) with w = move_scale * (1 + |x_j|), so moves scale with the
    coordinate's magnitude.  Move i reads doubles 3i, 3i+1 and 3i+2 of one
    U[0, 1) stream from ``numpy.random.default_rng(seed)``: j = floor(u0 *
    size), the offset w * (2 u1 - 1), and u2 as the Metropolis gate, read
    only when the move worsens the value.  So a run capped at N moves makes
    the first N moves of any longer run with the same seed and settings.
    The cap is tested once per temperature block: a block runs only the
    moves left under ``max_iterations``, and the run ends MAX_ITERATIONS
    after the block that reaches it.
    Moves with delta <= 0 are always accepted (ties included); NaN trial
    values are always rejected.  After ``moves_per_temperature`` moves the
    temperature is multiplied by ``cooling_factor``; once it falls below
    ``min_temperature`` only improving moves are accepted.  ``iterations``
    counts proposed moves, and the best-ever iterate is returned, not the
    final one.

    Defaults chosen at run time: ``initial_temperature`` None means
    100*|f(x0)| + 1, ``moves_per_temperature`` None means 20 per dimension.
    Runs are deterministic given ``seed``.
    """

    initial_temperature: float | None = None
    cooling_factor: float = 0.93
    moves_per_temperature: int | None = None
    move_scale: float = 0.02
    min_temperature: float = 1e-10
    max_iterations: int = 100000
    seed: int = 0

    requires = ObjectiveCapabilities(evaluate=True)

    def __post_init__(self):
        check_options(
            ("initial_temperature", self.initial_temperature, "> 0"),
            ("cooling_factor", self.cooling_factor, "in (0, 1)"),
            ("moves_per_temperature", self.moves_per_temperature, ">= 1", int),
            ("move_scale", self.move_scale, "> 0"),
            ("min_temperature", self.min_temperature, "> 0"),
            ("max_iterations", self.max_iterations, ">= 0", int),
            ("seed", self.seed, ">= 0", int),
            unset=("initial_temperature", "moves_per_temperature"),
        )

    def optimize(self, objective, x0, callbacks=()):
        """Minimize ``objective`` from ``x0``; returns (best parameters, result)."""
        x, adapter = prepare_run(objective, x0, callbacks, self.requires, "simulated annealing")
        uniforms = _move_uniforms(np.random.default_rng(self.seed))
        # Both options are validated positive when set, so ``or`` picks the default.
        moves_per_temperature = self.moves_per_temperature or 20 * x.size
        best_x, best_value, reason = x, np.nan, None
        with adapter:
            value = best_value = adapter.evaluate(x)
            temperature = self.initial_temperature or 100.0 * abs(value) + 1.0
            while reason is None:
                for _ in range(steps_within_cap(self, adapter.iterations, moves_per_temperature)):
                    u_coordinate, u_offset, u_gate = next(uniforms)
                    # u < 1 and x.size < 2**53, so the product rounds below x.size.
                    j = int(u_coordinate * x.size)
                    half_width = self.move_scale * (1.0 + abs(x.item(j)))
                    proposal = x.copy()
                    proposal.flat[j] += half_width * (2.0 * u_offset - 1.0)
                    trial = adapter.evaluate(proposal)
                    delta = trial - value
                    # A NaN trial fails both tests, so it is never accepted.
                    accept = delta <= 0 or (
                        temperature >= self.min_temperature
                        and u_gate < math.exp(-delta / temperature)
                    )
                    if accept:
                        # Proposals are fresh and never modified; best_x may share them.
                        x, value = proposal, trial
                        if value < best_value:
                            best_x, best_value = x, value
                    adapter.step_taken(value)
                temperature *= self.cooling_factor
                reason = cap_stop(self, adapter.iterations)
        return best_x, finish_run(adapter, best_value, reason)
