"""The four benchmark workloads and the checks on their outputs.

Each workload class builds its inputs from the seed in ``__init__`` (the
set-up), runs one timed operation in ``op``, files the operation's
outputs in ``keep`` (untimed; returns False when the operation reported
failed work), and compares everything it kept against computations made
with plain NumPy in ``check``, which returns the failed checks; the
traced run adds ``layer_metrics``.  Ops are run in whole rounds of
``round_size``, one op per distinct input.

``tiny=True`` selects small sizes for the self-test.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import math
import os

import numpy as np

import tsfactor
import tsfactor.cli

SPAN_TOL = 1e-6  # subspace distance between a loading and its NumPy oracle
RATIO_TOL = 1e-6  # relative gap between ratio sequences
VALUE_TOL = 1e-9  # relative gap for factors = Y_c A and baseline means
PREDICTION_TOL = 1e-6  # absolute gap for a standardized-scale forecast


def _digest(arrays) -> str:
    """Fingerprint of a sequence of arrays, to compare repeated ops bit for bit."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, *stream)))


def _ar1(rng: np.random.Generator, total: int, phi: np.ndarray, var: np.ndarray) -> np.ndarray:
    """AR(1) columns with coefficients ``phi`` started at their stationary law."""
    phi = np.atleast_1d(phi)
    var = np.broadcast_to(var, phi.shape)
    shocks = rng.standard_normal((total, phi.size)) * np.sqrt(var * (1.0 - phi**2))
    x = np.empty((total, phi.size))
    x[0] = rng.standard_normal(phi.size) * np.sqrt(var)
    for t in range(1, total):
        x[t] = phi * x[t - 1] + shocks[t]
    return x


# ------------------------------------------------------------ NumPy oracles


def span_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Projection distance of two orthonormal bases, 0 for equal spans."""
    small, big = (a, b) if a.shape[1] <= b.shape[1] else (b, a)
    resid = small - big @ (big.T @ small)
    radicand = (big.shape[1] - small.shape[1] + float(np.sum(resid**2))) / big.shape[1]
    return math.sqrt(min(max(radicand, 0.0), 1.0))


def _top_eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    return vals[::-1], vecs[:, ::-1]


def oracle_fit(y: np.ndarray, method: str, m: int, q: int | None = None):
    """Dense evaluation of one estimator's aggregate and ratio sequence.

    Returns ``(eigenvectors of the aggregate, ratio sequence)``, with the
    documented conventions: ``Y'Y/n`` for cov with plain adjacent ratios
    up to 15; ``sum_k O(k)O(k)'`` for auto and ``sum_k O(k) W O(k)'`` for
    wauto, ``O(k) = Y_c[k:]'Y_c[:-k]/(n-k)`` and ``W`` the rank-q inverse
    of ``Y'Y/n`` from ``np.linalg.eigh``; ratios of ``(1-k/n)``-weighted
    per-lag spectra with offsets ``0.1*(p/n)**2`` (auto), ``0.1*p/n``
    (wauto), up to 15 (auto) or q-1 (wauto).
    """
    n, p = y.shape
    yc = y - y.mean(axis=0)
    s0 = yc.T @ yc / n
    if method == "cov":
        vals, vecs = _top_eigh(s0)
        vals = np.maximum(vals, 0.0)
        bound = min(15, p - 1)
        return vecs, vals[:bound] / vals[1 : bound + 1]
    weight = np.eye(p)
    bound, offset = min(15, p - 1), 0.1 * (p / n) ** 2
    if method == "wauto":
        theta, basis = _top_eigh(s0)
        weight = (basis[:, :q] / theta[:q]) @ basis[:, :q].T
        bound, offset = q - 1, 0.1 * p / n
    aggregate = np.zeros((p, p))
    weighted = np.zeros(bound + 1)
    for k in range(1, m + 1):
        omega = yc[k:].T @ yc[:-k] / (n - k)
        term = omega @ weight @ omega.T
        aggregate += term
        spectrum = np.linalg.eigvalsh(0.5 * (term + term.T))[::-1]
        weighted += (1.0 - k / n) * np.maximum(spectrum[: bound + 1], 0.0)
    vecs = _top_eigh(aggregate)[1]
    return vecs, (weighted[:-1] + offset) / (weighted[1:] + offset)


def check_fit(label: str, y: np.ndarray, method: str, m: int, r_hat: int, loading, factors,
              ratios, q_used=None) -> list[str]:
    """Compare one fitted loading/factor/ratio triple with :func:`oracle_fit`."""
    fails = []
    vecs, want = oracle_fit(y, method, m, q_used)
    if np.abs(loading.T @ loading - np.eye(r_hat)).max() > 1e-10:
        fails.append(f"{label}: loadings are not orthonormal")
    gap = span_distance(loading, vecs[:, :r_hat])
    if gap > SPAN_TOL:
        fails.append(f"{label}: loading span is {gap:.2e} from the NumPy aggregate (tol {SPAN_TOL})")
    if r_hat != int(np.argmax(want)) + 1:
        fails.append(f"{label}: r_hat={r_hat} but the recomputed ratios peak at {np.argmax(want) + 1}")
    if len(ratios) != len(want) or np.abs(np.asarray(ratios) / want - 1.0).max() > RATIO_TOL:
        fails.append(f"{label}: ratio sequence differs from the recomputed one")
    yc = y - y.mean(axis=0)
    expect = yc @ loading
    if np.abs(factors - expect).max() > VALUE_TOL * (1.0 + np.abs(expect).max()):
        fails.append(f"{label}: factors differ from Y_c A")
    return fails


class Workload:
    """Defaults for the interface in the module docstring."""

    round_size = 1

    def layer_metrics(self) -> dict:
        """Per-layer figures only the workload can take; read after ``check``."""
        return {}


# ------------------------------------------------------------------ highdim


def strong_weak_panel(rng: np.random.Generator, p: int, n: int, burn: int = 100) -> np.ndarray:
    """Two pervasive AR(1) factors plus two weak ones (loadings of order p**-1/4)."""
    total = n + burn
    strong = rng.uniform(-1.0, 1.0, (p, 2))
    weak = rng.uniform(-1.0, 1.0, (p, 2)) * p**-0.25
    x = _ar1(rng, total, rng.uniform(0.7, 0.9, 2), 1.0)
    z = _ar1(rng, total, rng.uniform(0.5, 0.7, 2), 1.0)
    y = x @ strong.T + z @ weak.T + rng.standard_normal((total, p))
    return y[burn:]


class HighDim(Workload):
    """cov, auto and wauto (q="auto") on strong-plus-weak panels with p >> n."""

    M = 2

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        p, n, count = (120, 40, 2) if tiny else (800, 200, 3)
        self.panels = [strong_weak_panel(_rng(seed, 1, i), p, n) for i in range(count)]
        self.round_size = count
        self.first: dict[int, list] = {}  # fits of each panel's first op, for the oracles
        self.digests: list[set] = [set() for _ in range(count)]

    def op(self, i: int):
        panel = tsfactor.TimePanel(self.panels[i % self.round_size])
        return i % self.round_size, [
            tsfactor.estimate(panel, tsfactor.EstimatorConfig(method=method, m=self.M, q="auto"))
            for method in ("cov", "auto", "wauto")
        ]

    def keep(self, result) -> bool:
        index, fits = result
        self.first.setdefault(index, fits)
        self.digests[index].add(_digest(a for f in fits for a in (f.A_hat, f.factors, f.ratios)))
        return True

    def check(self) -> list[str]:
        fails = []
        for index, fits in self.first.items():
            if len(self.digests[index]) != 1:
                fails.append(f"panel {index}: repeated fits differ")
            for fit in fits:
                fails += check_fit(
                    f"panel {index} {fit.method}", self.panels[index], fit.method, self.M,
                    fit.r_hat, fit.A_hat, fit.factors, fit.ratios, fit.q_used,
                )
        return fails


# ----------------------------------------------------------------- forecast


def macro_like_panel(rng: np.random.Generator, p: int, n: int, burn: int = 150) -> np.ndarray:
    """One persistent and one transient factor over smoothed MA(1) noise.

    The persistent factor is AR(1) at 0.88-0.94 with unit variance, the
    transient one AR(1) at 0.26-0.34 with variance 2; the noise is MA(1)
    with heteroskedastic scale, smoothed across series by 0.5**|i-j|.
    """
    total = n + burn
    x = _ar1(rng, total, np.array([rng.uniform(0.88, 0.94), rng.uniform(0.26, 0.34)]),
             np.array([1.0, 2.0]))
    load = rng.uniform(-1.2, 1.2, (p, 2))
    scale = np.sqrt(rng.uniform(0.5, 1.2, p))
    psi = rng.uniform(0.1, 0.3, p) * rng.choice([-1.0, 1.0], p)
    u = rng.standard_normal((total + 1, p))
    idx = np.arange(p)
    noise = ((u[1:] + psi * u[:-1]) @ (0.5 ** np.abs(idx[:, None] - idx[None, :]))) * scale
    return (x @ load.T + noise)[burn:]


def oracle_cov_prediction(train: np.ndarray) -> np.ndarray:
    """One-step cov/AR forecast of a training window, in its own units.

    Standardize the window, take the top eigenvector of its covariance,
    fit AR(1) to the factor by least squares (zero presample), and keep
    it over AR(0) when ``|phi| >= 3/sqrt(n)``, ``|phi| < 1`` and its AIC
    ``n log sigma2 + 2(p+1)`` is lower.
    """
    mu, sd = train.mean(axis=0), train.std(axis=0)
    z = (train - mu) / sd
    zc = z - z.mean(axis=0)
    a = _top_eigh(zc.T @ zc / len(z))[1][:, 0]
    f = z @ a
    n = f.size
    d = f - f.mean()
    phi = float(d[1:] @ d[:-1] / (d[:-1] @ d[:-1]))
    eps = d.copy()
    eps[1:] -= phi * d[:-1]
    aic0 = n * math.log(np.mean(d**2)) + 2.0
    aic1 = n * math.log(np.mean(eps**2)) + 4.0
    use_ar = abs(phi) >= 3.0 / math.sqrt(n) and abs(phi) < 1.0 and aic1 < aic0
    ahead = f.mean() + (phi * d[-1] if use_ar else 0.0)
    return mu + sd * (a * ahead)


class Forecast(Workload):
    """Last-50-window expanding evaluation of cov/auto/wauto on macro-like panels."""

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        p, n, self.windows, q = (30, 150, 5, 8) if tiny else (119, 777, 50, 15)
        self.round_size = 2
        self.panels = [macro_like_panel(_rng(seed, 2, i), p, n) for i in range(self.round_size)]
        self.methods = tuple(
            tsfactor.EstimatorConfig(method=m, m=1, q=q) for m in ("cov", "auto", "wauto")
        )
        self.first: dict[int, object] = {}
        self.digests: list[set] = [set() for _ in range(self.round_size)]

    def op(self, i: int):
        y = self.panels[i % self.round_size]
        return i % self.round_size, tsfactor.expanding_window_eval(
            tsfactor.TimePanel(y), self.methods, r_hat=1, h=1, n1=len(y) - self.windows,
            standardize="global", max_ar=1, max_ma=0,
        )

    def keep(self, result) -> bool:
        index, report = result
        self.first.setdefault(index, report)
        self.digests[index].add(_digest(res.predictions for res in report.results))
        return all(res.n_failed == 0 for res in report.results)

    def check(self) -> list[str]:
        fails = []
        for index, report in self.first.items():
            if len(self.digests[index]) != 1:
                fails.append(f"panel {index}: repeated evaluations differ")
            y = self.panels[index]
            y_eval = (y - y.mean(axis=0)) / y.std(axis=0)
            by_label = {res.label: res.predictions for res in report.results}
            means = np.stack([y_eval[:origin].mean(axis=0) for origin in report.origins])
            if np.abs(by_label["zero"] - means).max() > VALUE_TOL:
                fails.append(f"panel {index}: zero baseline is not the training mean")
            for w in sorted({0, len(report.origins) // 2, len(report.origins) - 1}):
                want = oracle_cov_prediction(y_eval[: report.origins[w]])
                gap = np.abs(by_label["cov"][w] - want).max()
                if not gap <= PREDICTION_TOL:
                    fails.append(
                        f"panel {index} window {w}: cov prediction is {gap:.2e} from the "
                        f"NumPy path (tol {PREDICTION_TOL})"
                    )
        return fails


# --------------------------------------------------------------- montecarlo

# Paper bands for the uniform design (p=100, n=300, r0=3, delta0=1), as in
# tests/test_acceptance.py; their sampling error is set for >= 200 replications.
FREQUENCY_BANDS = {"cov": 0.948, "auto": 0.991, "wauto": 1.000}
DISTANCE_BANDS = {"cov": 0.137, "auto": 0.117, "wauto": 0.109}
FREQUENCY_TOL, DISTANCE_TOL, BAND_REPLICATIONS = 0.04, 0.03, 200
THREAD_SAMPLE = 2  # last studies re-run with threads=1


class MonteCarlo(Workload):
    """One seeded uniform-design study per op at the CLI's default thread count."""

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.runs = 4 if tiny else 24
        self.threads = os.cpu_count() or 1
        self.started = 0
        self.reports: list = []
        self.walls = [0.0, 0.0]  # sampled studies at threads=1 and at the default count

    def spec(self, index: int, runs: int) -> tsfactor.SimulationSpec:
        return tsfactor.SimulationSpec(
            model="uniform", p=100, n=300, r0=3, delta0=1.0, n_runs=runs,
            base_seed=(self.seed << 20) + index,
        )

    def op(self, i: int):
        self.started += 1
        return tsfactor.run_monte_carlo(self.spec(self.started, self.runs), threads=self.threads)

    def keep(self, report) -> bool:
        self.reports.append(report)
        return all(s.n_failed == 0 for s in report.summaries)

    def layer_metrics(self) -> dict:
        """Wall time of the sampled studies at threads=1 over that at the default count."""
        return {"simulate.parallel_speedup": self.walls[0] / self.walls[1]}

    def check(self) -> list[str]:
        fails = []
        for report in self.reports[-THREAD_SAMPLE:]:
            serial = tsfactor.run_monte_carlo(report.spec, threads=1)
            self.walls[0] += serial.wall_clock_seconds
            self.walls[1] += report.wall_clock_seconds
            if serial != report:
                fails.append(f"study {report.spec.base_seed}: threads=1 report differs")
        pooled = [rec for report in self.reports for rec in report.records]
        reps = len(pooled) // len(FREQUENCY_BANDS)
        if reps < BAND_REPLICATIONS:  # short runs: top up, untimed, to the bands' sample size
            self.started += 1
            extra = self.spec(self.started, BAND_REPLICATIONS - reps)
            pooled += tsfactor.run_monte_carlo(extra, threads=self.threads).records
        for method, target in FREQUENCY_BANDS.items():
            good = [rec for rec in pooled if rec.method == method and rec.error is None]
            freq = float(np.mean([rec.r_hat == 3 for rec in good]))
            dist = float(np.mean([rec.distance for rec in good]))
            if abs(freq - target) > FREQUENCY_TOL:
                fails.append(f"{method}: correct-rank frequency {freq:.3f} outside {target}+-{FREQUENCY_TOL}")
            if abs(dist - DISTANCE_BANDS[method]) > DISTANCE_TOL:
                fails.append(
                    f"{method}: mean distance {dist:.4f} outside {DISTANCE_BANDS[method]}+-{DISTANCE_TOL}"
                )
        return fails


# ---------------------------------------------------------------- cli_files


def planted_matrix_panel(rng: np.random.Generator, n: int, p1: int, p2: int, burn: int = 200):
    """2x2 AR(1) matrix factors under uniform row/column loadings, plus noise."""
    load_r = rng.uniform(-1.0, 1.0, (p1, 2))
    load_c = rng.uniform(-1.0, 1.0, (p2, 2))
    phi = rng.uniform(0.7, 0.95, 4) * rng.choice([-1.0, 1.0], 4)
    x = _ar1(rng, n + burn, phi, 1.0).reshape(n + burn, 2, 2)
    y = np.einsum("au,tuv,bv->tab", load_r, x, load_c) + rng.standard_normal((n + burn, p1, p2))
    basis = [np.linalg.svd(load, full_matrices=False)[0] for load in (load_r, load_c)]
    return y[burn:], basis[0], basis[1]


def _write_rows(path: str, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        for row in rows:
            fh.write(",".join(row) + "\n")


def _cells(values) -> list[str]:
    return [format(float(v), ".17g") for v in values]


def _read_csv(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


MATRIX_TOL = 0.15  # distance of R_hat, C_hat to the planted spaces
ARTIFACTS = {
    "estimate": ("report.txt", "result.csv", "trace.kv", "factors.csv"),
    "matrix": ("report.txt", "result.csv", "trace.kv"),
}


class CliFiles(Workload):
    """``tsfactor estimate`` on a CSV panel and ``matrix-estimate`` on a stacked CSV."""

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        p, n, blocks, side = (20, 200, 300, 10) if tiny else (200, 2000, 400, 20)
        rng = _rng(seed, 4)
        load = rng.uniform(-1.0, 1.0, (p, 3))
        x = _ar1(rng, n + 100, rng.uniform(0.6, 0.9, 3), 1.0)
        self.panel = (x @ load.T + rng.standard_normal((n + 100, p)))[100:]
        self.matrix, self.row_basis, self.col_basis = planted_matrix_panel(rng, blocks, side, side)
        self.panel_csv = os.path.join(workdir, "panel.csv")
        self.matrix_csv = os.path.join(workdir, "matrix.csv")
        self.out = {kind: os.path.join(workdir, "out", kind) for kind in ARTIFACTS}
        _write_rows(self.panel_csv, [[f"s{j + 1}" for j in range(p)]] + [_cells(r) for r in self.panel])
        _write_rows(
            self.matrix_csv,
            ([str(t)] + _cells(row) for t, block in enumerate(self.matrix) for row in block),
        )
        self.codes: list[tuple[int, int]] = []
        self.digests: set[str] = set()
        self.written = 0

    def op(self, i: int):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return (
                tsfactor.cli.run(["estimate", self.panel_csv, "--out", self.out["estimate"]]),
                tsfactor.cli.run(
                    ["matrix-estimate", self.matrix_csv, "--d1", "2", "--d2", "2", "--out", self.out["matrix"]]
                ),
            )

    def keep(self, codes) -> bool:
        self.codes.append(codes)
        if codes != (0, 0):
            return False
        digest = hashlib.sha256()
        for kind, names in ARTIFACTS.items():
            for name in names:
                with open(os.path.join(self.out[kind], name), "rb") as fh:
                    data = fh.read()
                digest.update(data)
                self.written += len(data)
        self.digests.add(digest.hexdigest())
        return True

    def layer_metrics(self) -> dict:
        """Artifact bytes each op leaves, taken from the files themselves."""
        return {"io.mb_written": self.written / 1e6 / len(self.codes)}

    def check(self) -> list[str]:
        fails = []
        if any(codes != (0, 0) for codes in self.codes):
            fails.append(f"exit codes {sorted(set(self.codes))}, want (0, 0)")
            return fails
        if len(self.digests) != 1:
            fails.append(f"artifacts differ across ops ({len(self.digests)} distinct sets)")
        parsed = tsfactor.ingest_csv(self.panel_csv, demean_panel=False).data
        if parsed.shape != self.panel.shape or not np.array_equal(parsed, self.panel):
            fails.append("parsed panel differs from the generated array")
        out = self.out["estimate"]
        with open(os.path.join(out, "trace.kv")) as fh:
            trace = dict(line.rstrip("\n").split("=", 1) for line in fh)
        loading = np.array([[float(c) for c in row[1:]] for row in _read_csv(os.path.join(out, "result.csv"))[1:]])
        factors = np.array([[float(c) for c in row] for row in _read_csv(os.path.join(out, "factors.csv"))[1:]])
        ratios = np.array([float(v) for k, v in trace.items() if k.startswith("ratio_")])
        fails += check_fit(
            "estimate", self.panel, "wauto", 2, int(trace["r_hat"]), loading, factors, ratios,
            int(trace["q_used"]),
        )
        bases = {"R": [], "C": []}
        for side, row, col, value in _read_csv(os.path.join(self.out["matrix"], "result.csv"))[1:]:
            bases[side].append((int(row), int(col), float(value)))
        for side, planted in (("R", self.row_basis), ("C", self.col_basis)):
            cells = bases[side]
            basis = np.zeros((max(c[0] for c in cells), max(c[1] for c in cells)))
            for row, col, value in cells:
                basis[row - 1, col - 1] = value
            gap = span_distance(basis, planted)
            if gap > MATRIX_TOL:
                fails.append(f"matrix {side}_hat is {gap:.3f} from the planted space (tol {MATRIX_TOL})")
        return fails


WORKLOADS = {
    "highdim": HighDim,
    "forecast": Forecast,
    "montecarlo": MonteCarlo,
    "cli_files": CliFiles,
}
