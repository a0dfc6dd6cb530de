"""Pace loops: fixed work, free of numopt, that gauges the CPU's current speed.

On a shared host, code runs slower in some phases than in others, and not
every kind of code by the same factor.  On the 2-CPU x86_64 virtual machine
this benchmark was written on, interpreter-bound code ran up to ~1.75x
slower in some phases, while solves made mostly of large matrix products
slowed far less.  The harness times a workload's pace loop just before and
just after each solve and reports the solve's time in multiples of it, so
each workload's loop does the kind of work its solves are made of.
"""

import functools

import numpy as np

VECTOR = np.linspace(0.0, 1.0, 100)


def interpreter_pace(rounds=100):
    """About 0.5 ms of Python loop and small-NumPy work, like an optimizer's loop body."""
    a, total = VECTOR, 0.0
    for _ in range(rounds):
        a = a * 0.5 + VECTOR
        total += float(a @ VECTOR)
        a = np.maximum(a, 1.0)
    return total


@functools.cache
def _matrix():
    return np.random.default_rng(0).standard_normal((VECTOR.size, 10000))


def matvec_pace():
    """One product each way with a 100 x 10000 matrix, the shape of lbfgs-linear's X."""
    matrix = _matrix()
    return float(VECTOR @ (matrix @ (matrix.T @ VECTOR)))
