"""The SHA-256 identity grid of tools/identity_grid.py, on a few of its rows, in process."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

from numopt import StepTaken

TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity_grid.py"
spec = importlib.util.spec_from_file_location("identity_grid", TOOL)
identity_grid = importlib.util.module_from_spec(spec)
spec.loader.exec_module(identity_grid)


def some_rows():
    """L-BFGS on Rosenbrock in float64 unobserved and observed from a flat
    start and stopped at the 3rd step from a column, and SGD with Adam on
    float32 least squares from a column stopped at the 8th."""
    wanted = {
        ("lbfgs", "rosenbrock", np.float64, "flat", 30, None),
        ("lbfgs", "rosenbrock", np.float64, "flat", 30, (None, 0)),
        ("lbfgs", "rosenbrock", np.float64, "column", 30, (StepTaken, 3)),
        ("sgd-adam", "least-squares", np.float32, "column", 26, (StepTaken, 8)),
    }
    rows = [
        row
        for row in identity_grid.rows()
        if (row.name, row.problem, row.dtype, row.shape, row.optimizer.max_iterations, row.watch)
        in wanted
    ]
    assert len(rows) == len(wanted)
    return rows


def test_the_same_rows_give_the_same_hashes_twice():
    rows = some_rows()
    hashes = identity_grid.grid_hashes(rows)
    assert list(hashes) == ["lbfgs", "sgd-adam", "total"]
    assert identity_grid.grid_hashes(rows) == hashes


def test_a_changed_optimizer_option_changes_the_hash():
    rows = some_rows()
    changed = [
        row._replace(optimizer=replace(row.optimizer, memory_size=2))
        if row.name == "lbfgs"
        else row
        for row in rows
    ]
    before, after = identity_grid.grid_hashes(rows), identity_grid.grid_hashes(changed)
    assert after["lbfgs"] != before["lbfgs"]
    assert after["sgd-adam"] == before["sgd-adam"]
    assert after["total"] != before["total"]
