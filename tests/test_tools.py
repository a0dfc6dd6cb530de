"""The comparison tools as a whole: bench_pairs' quartiles, how the child
processes of tools/bench_pairs.py and tools/identity_grid.py end when the tool
is stopped by SIGTERM, and the standard error of the processes they start.

The tools read git, so the tests that call git run them from a throwaway
one-commit repository, and the suite passes outside a checkout too."""

import importlib.util
import os
import shutil
import signal
import subprocess
import sys
import time
from contextlib import suppress
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_a_single_value_is_its_own_median_and_quartiles():
    assert bench_pairs.spread([3.5]) == {"median": 3.5, "q1": 3.5, "q3": 3.5, "n": 1}


def test_quartiles_interpolate_linearly_between_ordered_values():
    values = [15.0, 10.0, 19.0, 11.0, 12.0, 17.0, 13.0, 14.0, 16.0, 18.0]
    assert bench_pairs.spread(values) == {"median": 14.5, "q1": 12.25, "q3": 16.75, "n": 10}


def test_quartiles_are_numpys_default_percentiles():
    values = list(np.random.default_rng(28).lognormal(size=7))
    spread = bench_pairs.spread(values)
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    assert [spread["q1"], spread["median"], spread["q3"]] == pytest.approx(
        [q1, median, q3], rel=1e-15
    )


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """A one-commit git repository holding copies of tools/, src/, demos/,
    perfbench/ and BENCHMARK.json: what the tools copy, run and compare."""
    root = tmp_path_factory.mktemp("checkout")
    for name in ("tools", "src", "demos", "perfbench"):
        ignore = shutil.ignore_patterns("__pycache__", "out")
        shutil.copytree(ROOT / name, root / name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    git = ["git", "-c", "user.name=numopt", "-c", "user.email=numopt@example.invalid"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "tools under test"]):
        subprocess.run([*git, *args], cwd=root, check=True, stdout=subprocess.DEVNULL)
    return root


def any_left_running(session):
    """Whether any process of the session (and process group) ``session`` is there."""
    try:
        os.killpg(session, 0)
    except ProcessLookupError:
        return False
    return True


def stop_once_made(checkout, tool, args, made, tmp_path):
    """Run ``tool`` from ``checkout`` in a session of its own with its
    temporary directory under ``tmp_path``, send it SIGTERM once the path
    ``made`` (a glob in that directory) exists, and return its exit status,
    what is left in the directory and whether any process of its group is
    still there."""
    temporary = tmp_path / "tmp"
    temporary.mkdir()
    process = subprocess.Popen(
        [sys.executable, str(checkout / "tools" / tool), *args],
        cwd=checkout,
        env={**os.environ, "TMPDIR": str(temporary)},
        stdout=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 120
        while not any(temporary.glob(made)):
            assert process.poll() is None, f"{tool} ended before making {made}"
            assert time.monotonic() < deadline, f"{tool} made no {made}"
            time.sleep(0.002)
        process.send_signal(signal.SIGTERM)
        status = process.wait(timeout=120)
        left = sorted(path.name for path in temporary.iterdir())
        return status, left, any_left_running(process.pid)
    finally:
        with suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)
        process.wait(timeout=60)


def test_a_stopped_identity_grid_kills_its_grid_subprocess_and_removes_its_copy(
    checkout, tmp_path
):
    # The copied script exists just before the grid subprocess starts on it.
    made = "identity-grid-*/tools/identity_grid.py"
    status, left, left_running = stop_once_made(
        checkout, "identity_grid.py", ["--against", "HEAD"], made, tmp_path
    )
    assert status == 128 + signal.SIGTERM
    assert left == []
    assert not left_running


def test_a_bench_pairs_run_stopped_while_copying_removes_its_trees(checkout, tmp_path):
    # The change's tree is made after the parent's, and copied file by file.
    args = ["--parent", "HEAD", "--seeds", "1", "--output", str(tmp_path / "BENCH.json")]
    status, left, left_running = stop_once_made(
        checkout, "bench_pairs.py", args, "bench-pairs-*/change", tmp_path
    )
    assert status == 128 + signal.SIGTERM
    assert left == []
    assert not left_running
    assert not (tmp_path / "BENCH.json").exists()


def run_once_apart(command, tmp_path, prelude=""):
    """Run ``bench_pairs.run_once`` with ``command`` as the benchmark's
    command, after the Python statements ``prelude``, in a process and
    session of its own; return its exit status, its standard error and
    whether any process of its session is left."""
    script = f"""
import importlib.util, os, signal, subprocess, sys
spec = importlib.util.spec_from_file_location("bench_pairs", {str(TOOLS / "bench_pairs.py")!r})
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
{prelude}
bench_pairs.run_once(".", {{"command": {command!r}, "run_seconds": 1}}, "w", 1, 0)
"""
    # A file, not a pipe: a child left running would hold a pipe open.
    errors = tmp_path / "stderr"
    with errors.open("w") as stderr:
        process = subprocess.Popen(
            [sys.executable, "-c", script],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            start_new_session=True,
        )
    try:
        status = process.wait(timeout=60)
        return status, errors.read_text(), any_left_running(process.pid)
    finally:
        with suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)
        process.wait(timeout=60)


# SIGTERM is sent right after Popen's fork and exec, before Popen returns
# the child to anyone who could kill it.  The script installs no handler:
# run must hold the signal itself.
SIGTERM_AFTER_FORK = """
execute_child = subprocess.Popen._execute_child
def signalled(self, *args):
    execute_child(self, *args)
    os.kill(os.getpid(), signal.SIGTERM)
subprocess.Popen._execute_child = signalled
"""


def test_a_sigterm_right_after_the_fork_exits_143_and_kills_the_run(tmp_path):
    sleeper = [sys.executable, "-c", "import time; time.sleep(60)"]
    status, _, left_running = run_once_apart(sleeper, tmp_path, SIGTERM_AFTER_FORK)
    assert status == 128 + signal.SIGTERM
    assert not left_running


def test_a_failed_run_shows_its_standard_error_and_raises(tmp_path):
    # The message names the workload from the arguments, so it is not in the
    # command that CalledProcessError's own message repeats.
    failing = [sys.executable, "-c", "import sys; sys.exit(f'perfbench: no {sys.argv[1:3]}')"]
    status, errors, left_running = run_once_apart(failing, tmp_path)
    assert status == 1
    assert "perfbench: no ['--workload', 'w']" in errors
    assert "subprocess.CalledProcessError" in errors
    assert not left_running


@pytest.mark.parametrize(
    "tool, args",
    [
        ("sloc.py", ["--against", "NOSUCHREF"]),
        ("identity_grid.py", ["--against", "NOSUCHREF"]),
        ("bench_pairs.py", ["--parent", "NOSUCHREF", "--seeds", "1", "--output", os.devnull]),
    ],
)
def test_a_failed_git_call_shows_gits_message(checkout, tool, args):
    failed = subprocess.run(
        [sys.executable, str(checkout / "tools" / tool), *args],
        cwd=checkout,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert failed.returncode == 1
    shown = failed.stderr.split("Traceback")[0]
    assert "fatal: " in shown and "NOSUCHREF" in shown
