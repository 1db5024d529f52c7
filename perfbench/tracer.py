"""Per-layer spans for the traced benchmark run.

The tracer wraps tsfactor's public functions in place.  tsfactor modules
import these names directly (``from .tsstats import sym_eigen``), so the
wrapper replaces the function object under every name that any loaded
``tsfactor`` module binds to it; ``tsfactor.factor.sym_eigen`` and
``tsfactor.tsstats.sym_eigen`` then both record.  Each thread keeps its
own span stack, so spans opened on the Monte Carlo worker threads never
nest under the main thread's ``run_monte_carlo`` span, and a span's self
time is its duration minus the durations of its direct children on the
same thread.  A name that no longer exists is listed in ``absent`` and
reports zero, so removing a function needs no benchmark edit.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time

# (metric prefix, module whose namespace holds the name, names).  scipy's
# least_squares is traced as tsfactor.forecast calls it.
TARGETS = (
    ("tsstats", "tsfactor.tsstats", ("demean", "sample_autocov", "sym_eigen", "subspace_distance")),
    ("factor", "tsfactor.factor", ("estimate", "weight_matrix", "per_lag_spectra", "m_hat", "select_r")),
    ("modelselect", "tsfactor.modelselect", ("select_q",)),
    (
        "forecast",
        "tsfactor.forecast",
        ("expanding_window_eval", "pipeline_forecast", "fit_arma", "forecast_arma", "least_squares"),
    ),
    ("simulate", "tsfactor.simulate", ("run_monte_carlo", "generate_uniform")),
    ("matrixfactor", "tsfactor.matrixfactor", ("estimate_matrix", "m_hat_rows")),
    (
        "io",
        "tsfactor.io",
        ("ingest_csv", "ingest_matrix_csv", "write_loadings_csv", "write_trace_kv", "write_text"),
    ),
    ("cli", "tsfactor.cli", ("run",)),
)

SPAN_NAMES = tuple(f"{prefix}.{name}" for prefix, _, names in TARGETS for name in names)

WORKER_ROOT = "<worker>"  # parent of an outermost span on a thread other than the main one


def _sym_eigen_order(args, kwargs):
    mat = args[0] if args else kwargs["mat"]
    return {"tsstats.sym_eigen.max_order": len(mat)}, {}


def _autocov_bytes(args, kwargs):
    panel = args[0] if args else kwargs["panel"]
    m = args[1] if len(args) > 1 else kwargs["m"]
    return {}, {"tsstats.sample_autocov.mb_out": 8 * panel.p**2 * (m + 1) / 1e6}


def _file_read(args, kwargs):
    return {}, {"io.mb_read": os.path.getsize(args[0] if args else kwargs["path"]) / 1e6}


# Computed counts taken from a call's arguments: (maxima, sums).
_COUNTERS = {
    "tsstats.sym_eigen": _sym_eigen_order,
    "tsstats.sample_autocov": _autocov_bytes,
    "io.ingest_csv": _file_read,
    "io.ingest_matrix_csv": _file_read,
}


class Tracer:
    """Aggregated span statistics over the wrapped tsfactor functions."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.calls = {name: 0 for name in SPAN_NAMES}
            self.incl_s = {name: 0.0 for name in SPAN_NAMES}
            self.self_s = {name: 0.0 for name in SPAN_NAMES}
            self.edge_s: dict[tuple[str | None, str], float] = {}
            self.maxima: dict[str, float] = {}
            self.sums: dict[str, float] = {}
            self.min_self_s = 0.0  # most negative self time seen; stays 0 when spans nest

    def install(self) -> None:
        """Wrap every target under every tsfactor name bound to it."""
        homes = {}
        for prefix, modname, names in self.targets:
            try:
                homes[modname] = importlib.import_module(modname)
            except ImportError:
                self.absent += [f"{prefix}.{name}" for name in names]
        modules = [m for m in list(sys.modules.values())
                   if getattr(m, "__name__", "").startswith("tsfactor")]
        for prefix, modname, names in self.targets:
            for name in names if modname in homes else ():
                original = getattr(homes[modname], name, None)
                if not callable(original):
                    self.absent.append(f"{prefix}.{name}")
                    continue
                wrapper = self.wrap(f"{prefix}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def wrap(self, span: str, func):
        counter = _COUNTERS.get(span)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            if stack:
                parent = stack[-1][0]
            elif threading.current_thread() is threading.main_thread():
                parent = None
            else:
                parent = WORKER_ROOT
            frame = [span, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self._record(span, parent, elapsed, elapsed - frame[1], counter, args, kwargs)

        return traced

    def _record(self, span, parent, incl, self_time, counter, args, kwargs):
        maxima, sums = counter(args, kwargs) if counter else ({}, {})
        with self._lock:
            self.calls[span] = self.calls.get(span, 0) + 1
            self.incl_s[span] = self.incl_s.get(span, 0.0) + incl
            self.self_s[span] = self.self_s.get(span, 0.0) + self_time
            self.min_self_s = min(self.min_self_s, self_time)
            self.edge_s[(parent, span)] = self.edge_s.get((parent, span), 0.0) + incl
            for key, value in maxima.items():
                self.maxima[key] = max(self.maxima.get(key, 0.0), value)
            for key, value in sums.items():
                self.sums[key] = self.sums.get(key, 0.0) + value

    def total_calls(self) -> int:
        return sum(self.calls.values())

    def concurrency(self) -> float:
        """Summed replication time over the study's wall time.

        A replication's public calls are the spans opened directly under
        ``run_monte_carlo`` (threads=1) or outermost on a worker thread,
        so this is how many replications ran at once on average.
        """
        study = self.incl_s.get("simulate.run_monte_carlo", 0.0)
        if study == 0.0:
            return 0.0
        work = sum(
            t for (parent, _), t in self.edge_s.items()
            if parent in ("simulate.run_monte_carlo", WORKER_ROOT)
        )
        return work / study


def per_call_overhead_s(repeats: int = 20000) -> float:
    """Cost one wrapper adds to a call, measured on a no-op function."""

    def noop():
        return None

    probe = Tracer(targets=())
    traced = probe.wrap("cli.run", noop)
    best = []
    for func in (noop, traced):
        start = time.perf_counter()
        for _ in range(repeats):
            func()
        best.append(time.perf_counter() - start)
    return max(best[1] - best[0], 0.0) / repeats
