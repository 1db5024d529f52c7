"""Benchmark of tsfactor: one workload per process, timed in-process.

Usage (from the repository root):

    python3 perfbench/run.py --workload highdim --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from ``--seed`` and warms up (three times;
the median counts), runs whole rounds of ops for ``--seconds``, checks
the outputs against plain-NumPy computations, and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` every public
tsfactor function is wrapped and the per-layer ones are reported
instead.  A copy of the result, with the machine facts, is written to
``perfbench/results/``.  No BLAS or OpenMP thread variable is set.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import tracer as tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for span in tracing.SPAN_NAMES:
        units[f"{span}.self_ms"] = "ms"
        units[f"{span}.calls"] = "count"
    units.update({
        "tsstats.sym_eigen.max_order": "count",
        "tsstats.sample_autocov.mb_out": "MB",
        "io.mb_read": "MB",
        "io.mb_written": "MB",
        "simulate.concurrency": "ratio",
        "simulate.parallel_speedup": "ratio",
        "process.cpu_ms_per_op": "ms",
        "trace.overhead_ms_per_op": "ms",
        "trace.op_p50_ms": "ms",
    })
    return units


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(ctypes.CDLL(lib), symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                threads = func()
                break
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ[k] for k in sorted(os.environ) if k.endswith("_NUM_THREADS")},
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload end to end and return the result record."""
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        return _measure(name, seed, seconds, tracer, tiny)
    finally:
        if tracer:
            tracer.uninstall()


def _attempt(wl, i: int) -> bool:
    """Run one op and file its outputs; False if it failed."""
    try:
        return wl.keep(wl.op(i))
    except Exception:  # an op's failure is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return False


def _measure(name, seed, seconds, tracer, tiny) -> dict:
    import workloads  # imports tsfactor, which is importable once main() put src/ on the path

    import_s = time.perf_counter() - _T0
    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(HERE, "work"))
    try:
        setups, warm_failures = [], 0
        for _ in range(1 if tracer else SETUP_REPEATS):
            start = time.perf_counter()
            wl = workloads.WORKLOADS[name](seed, workdir, tiny=tiny)
            warm_failures += not _attempt(wl, 0)
            setups.append(time.perf_counter() - start)
        if tracer:
            tracer.reset()

        latencies, failed = [], 0
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        while True:
            for i in range(wl.round_size):
                t0 = time.perf_counter()
                ok = _attempt(wl, i)
                latencies.append(time.perf_counter() - t0)
                failed += not ok
            if time.perf_counter() - start >= seconds:
                break
        cpu_s = cpu_seconds() - cpu0
        attempted = len(latencies)
        if tracer:  # before the checks, whose own calls into tsfactor are not ops
            metrics = per_layer_metrics(tracer, attempted, latencies, cpu_s)
        check_start = time.perf_counter()
        fails = wl.check() + ["a warm-up op failed"] * bool(warm_failures)
        check_s = time.perf_counter() - check_start
        if tracer:
            metrics.update(wl.layer_metrics())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in fails:
        print(f"check failed: {line}", file=sys.stderr)

    if tracer:
        units = per_layer_units()
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "ops_per_s": (attempted - failed) / sum(latencies),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END_UNITS
    return {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
        "checks_failed": fails,
        "absent": tracer.absent if tracer else [],
        "min_self_ms": 1e3 * tracer.min_self_s if tracer else None,
        "setup_runs_s": [import_s] + setups,
        "check_s": check_s,
        "op_ms": [1e3 * t for t in latencies],
    }


def per_layer_metrics(tracer, ops: int, latencies, cpu_s: float) -> dict:
    out = {}
    for span in tracing.SPAN_NAMES:
        out[f"{span}.self_ms"] = 1e3 * tracer.self_s.get(span, 0.0) / ops
        out[f"{span}.calls"] = tracer.calls.get(span, 0) / ops
    out["tsstats.sym_eigen.max_order"] = tracer.maxima.get("tsstats.sym_eigen.max_order", 0)
    out["tsstats.sample_autocov.mb_out"] = tracer.sums.get("tsstats.sample_autocov.mb_out", 0.0) / ops
    out["io.mb_read"] = tracer.sums.get("io.mb_read", 0.0) / ops
    out["io.mb_written"] = 0.0  # reported by the workloads that write files
    out["simulate.concurrency"] = tracer.concurrency()
    out["simulate.parallel_speedup"] = 0.0  # reported by the workloads that run studies
    out["process.cpu_ms_per_op"] = 1e3 * cpu_s / ops
    out["trace.overhead_ms_per_op"] = 1e3 * tracing.per_call_overhead_s() * tracer.total_calls() / ops
    out["trace.op_p50_ms"] = 1e3 * statistics.median(latencies)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["highdim", "forecast", "montecarlo", "cli_files"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tsfactor", "__init__.py")):
        print(f"error: tsfactor sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result["machine"] = machine_facts()
    result["workload"], result["seed"], result["seconds"] = args.workload, args.seed, args.seconds
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(
        HERE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
