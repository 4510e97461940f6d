"""Benchmark for csgnn: end-to-end and per-layer timings of three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; csgnn is imported from ./src. With --trace 0
the run sets up its workload several times, repeats whole rounds of the
workload's CLI commands for about S seconds, checks every output and prints
setup_s, work_s and peak_mb. With --trace 1 it alternates untraced and traced
rounds of the workload, runs one traced round of every other workload, and
prints the per-layer metrics and the tracing overhead. The last line of
standard output is the JSON result; the line before it is the run record.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
NAMES = ("train-n1000", "sweep-n100", "certify-verify")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_blas_threads():
    """One BLAS thread, set before numpy loads: the workload runs in one
    process on one core, so a busy sibling core on a shared host does not
    stall BLAS calls."""
    for var in BLAS_ENV:
        os.environ[var] = "1"


def blas_runtime():
    """(BLAS library, its thread count as the loaded library reports it)."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        name = "unknown"
    threads = None
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return name, threads


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(round_fn, seconds):
    """Whole rounds until the next one would end past `seconds`; at least one."""
    rounds = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        rounds.append(round_fn(len(rounds)))
        last = time.perf_counter() - t
        if time.perf_counter() - start + last > seconds:
            return rounds


def run_untraced(args, work, import_s):
    import numpy as np
    import workloads

    wl = workloads.WORKLOADS[args.workload](work, args.seed)
    setup = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        wl.setup()
        setup.append(time.perf_counter() - t)
    setup_peak = peak_mb()
    rounds = measure(wl.round, args.seconds)
    peak = peak_mb()
    rng = np.random.default_rng(args.seed)
    outcome = wl.check(rounds, rng)
    outcome.problems += workloads.self_check(rng)
    metrics = {
        "setup_s": {"value": import_s + statistics.median(setup), "unit": "s"},
        "work_s": {"value": wl.work_s(rounds), "unit": "s"},
        "peak_mb": {"value": peak, "unit": "MB"},
    }
    record = {"rounds": len(rounds), "round_walls_s": [r["wall"] for r in rounds],
              "import_s": import_s, "setup_reps_s": setup,
              "setup_peak_mb": setup_peak, **wl.detail(rounds), **outcome.detail}
    return outcome, metrics, record


def run_traced(args, work, import_s):
    import numpy as np
    import tracing
    import workloads

    tracer = tracing.Tracer()
    wls = {name: workloads.WORKLOADS[name](work / name, args.seed) for name in NAMES}

    def traced(fn, name=None):
        tracer.install()
        try:
            if name is None:
                return fn()
            with tracer.scope(name):
                return fn()
        finally:
            tracer.uninstall()

    for name, wl in wls.items():
        traced(wl.setup, f"setup-{name}")
    main = wls[args.workload]
    plain, with_trace = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        plain.append(main.round(len(plain) + len(with_trace)))
        with_trace.append(traced(lambda: main.round(len(plain) + len(with_trace), tracer)))
        pair = time.perf_counter() - t
        if time.perf_counter() - start + pair > args.seconds:
            break
    for name, wl in wls.items():
        if name != args.workload:
            traced(lambda: wl.round(0, tracer))

    rng = np.random.default_rng(args.seed)
    outcome = main.check(plain + with_trace, rng)
    outcome.problems += workloads.self_check(rng)
    metrics = tracing.layer_metrics(tracer.spans)
    base = statistics.median(r["wall"] for r in plain)
    overhead = statistics.median(r["wall"] for r in with_trace) - base
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * overhead / base, "unit": "%"}
    trace_file = work.parent / f"trace-{args.workload}-s{args.seed}.jsonl"
    tracer.write(trace_file)
    record = {"rounds_untraced": len(plain), "rounds_traced": len(with_trace),
              "spans": len(tracer.spans), "trace_file": str(trace_file.relative_to(ROOT)),
              **outcome.detail}
    return outcome, metrics, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "csgnn" / "__init__.py").is_file():
        print(f"csgnn sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    nproc = len(os.sched_getaffinity(0))
    pin_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    t = time.perf_counter()
    import numpy
    import csgnn.cli  # noqa: F401  (imports every csgnn module the CLI uses)
    import csgnn.gradcheck  # noqa: F401
    import_s = time.perf_counter() - t

    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = run_traced if args.trace else run_untraced
        outcome, metrics, record = runner(args, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    blas, blas_threads = blas_runtime()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": nproc, "python": platform.python_version(),
              "numpy": numpy.__version__, "blas": blas, "blas_threads": blas_threads,
              "problems": outcome.problems, **record}
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("run-record " + json.dumps(record, default=str))
    print(json.dumps({"correct": not outcome.problems, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
