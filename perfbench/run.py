"""Run one workload of the numopt benchmark and report its metrics.

    python3 perfbench/run.py --workload lbfgs-linear --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; numopt is imported from ``src/``.
``--trace 0`` reports the end-to-end metrics of an untraced run, ``--trace 1``
the per-layer metrics of a traced run.  Standard output holds a table of
every metric with its unit, the environment record as one ``env`` JSON line,
and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits non-zero, printing no
result, when the numopt sources are missing.
"""

import os

# BLAS is pinned to one thread before NumPy loads it.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"
OUTPUT = Path(__file__).resolve().parent / "out"


def import_numopt():
    """Import numopt from this checkout's ``src/`` and nowhere else."""
    if not (SOURCES / "numopt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no numopt sources under {SOURCES}; run from a source checkout")
    sys.path.insert(0, str(SOURCES))
    import numopt

    if Path(numopt.__file__).resolve().parent != SOURCES / "numopt":
        sys.exit(f"perfbench: imported numopt from {numopt.__file__}, not from {SOURCES}")
    return numopt


def git_sha(root):
    """Commit of ``root`` read from ``.git`` directly; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads():
    """Thread count OpenBLAS reports, from the library this process loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libraries = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for library in sorted(libraries):
        handle = ctypes.CDLL(library)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return function()
    return None


def environment(numpy, workload, seed):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": git_sha(ROOT),
    }


def write_spans(path, env, solves):
    """One JSON line per span, after a header line holding ``env``."""
    path.parent.mkdir(exist_ok=True)
    with path.open("w") as handle:
        handle.write(json.dumps({"env": env}) + "\n")
        for solve, spans in enumerate(solves):
            for name, start_ns, end_ns, parent in spans:
                record = {"solve": solve, "name": name, "start_ns": start_ns,
                          "end_ns": end_ns, "parent": parent}
                handle.write(json.dumps(record) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_numopt()
    import numpy

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    report = harness.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    env = environment(numpy, args.workload, args.seed)

    failed = len(report.failures)
    print(f"{args.workload}  seed={args.seed}  trace={args.trace}  solves={report.attempted}")
    for name, (value, unit) in report.metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(f"  {'failed_frac':32s} {failed / report.attempted:.6g} ({failed}/{report.attempted})")
    for failure in report.failures[:5]:
        print(f"  failure: {failure}")
    print("env " + json.dumps(env))
    if report.spans:
        write_spans(OUTPUT / f"spans-{args.workload}-seed{args.seed}.jsonl", env, report.spans)
    result = {
        "correct": failed == 0,
        "attempted": report.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
