"""Seeded Monte Carlo harness for the factor estimators.

Two synthetic designs are provided:

``uniform``
    One block of factors with loadings drawn uniformly at strength
    exponent ``delta0``; AR(1) factors, and an idiosyncratic term that
    is a cross-sectionally smoothed MA process.
``twostrength``
    A strong AR(1) block at ``delta0`` plus a weak MA(1) block at
    ``delta1`` over i.i.d. Gaussian noise, so estimators can be
    compared when factor strengths differ.

Replications are seeded as ``SeedSequence((base_seed, run_index))`` on
the PCG64 generator, so any run can be regenerated in isolation.  They
run one after another in index order on the calling thread.

The designs need numpy alone: the AR(1) factor paths run their
recursion over Python floats in :func:`_ar1`, so a study never loads
scipy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidConfig, TsfactorError
from .factor import EstimatorConfig, _method_labels, estimate
from .tsstats import TimePanel, subspace_distance

__all__ = [
    "RNG_NAME",
    "SimulationSpec",
    "RunRecord",
    "MethodSummary",
    "SimulationReport",
    "generate_uniform",
    "generate_two_strength",
    "run_monte_carlo",
]

RNG_NAME = "pcg64"

_DEFAULT_METHODS = (
    EstimatorConfig(method="cov"),
    EstimatorConfig(method="auto"),
    EstimatorConfig(method="wauto"),
)


@dataclass(frozen=True)
class SimulationSpec:
    """Design of one Monte Carlo experiment.

    ``delta0``/``delta1`` are the strong/weak factor strength exponents
    in (0, 1]; loadings are uniform on ``±p**(-(1-delta)/2)``, so 1
    means fully pervasive factors.  ``noise_scale`` multiplies the
    idiosyncratic term and exists so tests can switch noise off.
    """

    model: str = "uniform"
    n: int = 300
    p: int = 100
    r0: int = 3
    r1: int = 0
    delta0: float = 1.0
    delta1: Optional[float] = None
    n_runs: int = 100
    base_seed: int = 0
    burn_in: int = 200
    methods: tuple[EstimatorConfig, ...] = _DEFAULT_METHODS
    noise_scale: float = 1.0

    def __post_init__(self):
        if self.model not in ("uniform", "twostrength"):
            raise InvalidConfig(f"model must be 'uniform' or 'twostrength', got {self.model!r}")
        if self.delta1 is None:
            object.__setattr__(self, "delta1", self.delta0)
        if not 0 < self.delta1 <= self.delta0 <= 1:
            raise InvalidConfig(
                f"need 0 < delta1 <= delta0 <= 1, got delta0={self.delta0}, delta1={self.delta1}"
            )
        if self.r0 < 1:
            raise InvalidConfig("r0 must be >= 1")
        if self.r1 < 0:
            raise InvalidConfig("r1 must be >= 0")
        if (self.model == "uniform") != (self.r1 == 0):
            raise InvalidConfig("r1 = 0 if and only if the model is 'uniform'")
        if self.r0 + self.r1 > self.p:
            raise InvalidConfig("factor counts exceed the panel dimension")
        if self.n < 2 or self.p < 1:
            raise InvalidConfig("need n >= 2 and p >= 1")
        if self.n_runs < 1:
            raise InvalidConfig("n_runs must be >= 1")
        if self.burn_in < 0:
            raise InvalidConfig("burn_in must be >= 0")
        if self.noise_scale < 0:
            raise InvalidConfig("noise_scale must be >= 0")
        if not self.methods:
            raise InvalidConfig("methods must not be empty")
        object.__setattr__(self, "methods", tuple(self.methods))


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one (run, method) cell; ``error`` set means excluded."""

    run_index: int
    method: str
    r_hat: Optional[int]
    distance: Optional[float]
    error: Optional[str] = None


@dataclass(frozen=True)
class MethodSummary:
    """Aggregates over the successful runs of one method."""

    method: str
    frequency_correct: float
    mean_r_hat: float
    mean_distance: float
    sd_distance: float
    n_success: int
    n_failed: int


@dataclass(frozen=True)
class SimulationReport:
    """Reproducible summary of a Monte Carlo experiment.

    Equality ignores ``wall_clock_seconds``: two reports from the same
    spec compare equal no matter how long they ran.
    """

    spec: SimulationSpec
    rng_name: str
    summaries: tuple[MethodSummary, ...]
    records: tuple[RunRecord, ...]
    wall_clock_seconds: float = field(compare=False)

    def __post_init__(self):
        for s in self.summaries:
            if s.n_success > 0 and not 0.0 <= s.frequency_correct <= 1.0:
                raise InvalidConfig("frequency must lie in [0, 1]")
            if s.n_success + s.n_failed != self.spec.n_runs:
                raise InvalidConfig("success and failure counts must sum to n_runs")
        for r in self.records:
            if r.error is None and not 0.0 <= r.distance <= 1.0 + 1e-12:
                raise InvalidConfig("subspace distances must lie in [0, 1]")


def _run_rng(base_seed: int, run_index: int) -> np.random.Generator:
    """Independent stream for one replication (stable hash mixing)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((base_seed, run_index))))


def _signed_uniform(rng: np.random.Generator, lo: float, hi: float, size: int) -> np.ndarray:
    """Coefficients uniform on (-hi,-lo) U (lo,hi): magnitude, then sign."""
    mags = rng.uniform(lo, hi, size=size)
    signs = np.where(rng.random(size) < 0.5, -1.0, 1.0)
    return mags * signs


def _uniform_loading(rng: np.random.Generator, p: int, r: int, delta: float) -> np.ndarray:
    """Loading matrix with i.i.d. uniform(-p**(-(1-delta)/2), ...) entries."""
    bound = p ** (-(1.0 - delta) / 2.0)
    return rng.uniform(-bound, bound, size=(p, r))


def _ar1(rng: np.random.Generator, total: int, coeffs: np.ndarray, scale: float) -> np.ndarray:
    """AR(1) components ``x_t = shock_t + phi * x_{t-1}`` from their
    stationary marginal; all shocks are drawn before the initial state.
    The recursion runs over Python floats, which round the product and
    the sum separately, so each path is the exact recursion and matches
    a first-order linear filter bit for bit."""
    r = coeffs.shape[0]
    innov = scale * rng.standard_normal((total, r))
    out = np.empty((total, r))
    out[0] = scale * rng.standard_normal(r) / np.sqrt(1.0 - coeffs**2)
    for j, (phi, prev) in enumerate(zip(coeffs.tolist(), out[0].tolist())):
        path = []
        for shock in innov[1:, j].tolist():
            prev = shock + phi * prev
            path.append(prev)
        out[1:, j] = path
    return out


def _ma1(rng: np.random.Generator, total: int, coeffs: np.ndarray, scale: float) -> np.ndarray:
    """MA(1) components ``eta_t + coeff * eta_{t-1}`` (one presample row)."""
    r = coeffs.shape[0]
    eta = scale * rng.standard_normal((total + 1, r))
    return eta[1:] + coeffs * eta[:-1]


def _smoothing_kernel(p: int) -> np.ndarray:
    idx = np.arange(p)
    return 0.6 ** np.abs(idx[:, None] - idx[None, :])


def _orthonormal_basis(loading: np.ndarray) -> np.ndarray:
    u, _, _ = np.linalg.svd(loading, full_matrices=False)
    return u


def generate_uniform(spec: SimulationSpec, seed) -> tuple[TimePanel, np.ndarray]:
    """One panel from the single-strength design.

    Draw order (fixed for reproducibility): loading entries; AR
    coefficient magnitudes then signs; factor innovations (shocks,
    then initial state); MA coefficient magnitudes then signs; noise
    shocks.  The idiosyncratic term is ``e_t = Pi eps_t`` with the
    cross-sectional smoothing kernel ``Pi = (0.6**|i-j|)`` applied to
    per-component MA(1) series ``eps``: components of ``e`` carry both
    strong contemporaneous correlation across series and weak serial
    correlation over time.

    Returns the panel (burn-in discarded) and the orthonormal basis of
    the loading column space.
    """
    if spec.model != "uniform":
        raise InvalidConfig("generate_uniform needs a spec with model='uniform'")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.Generator(np.random.PCG64(seed))
    total = spec.burn_in + spec.n
    a_tilde = _uniform_loading(rng, spec.p, spec.r0, spec.delta0)
    phi = _signed_uniform(rng, 0.7, 0.95, spec.r0)
    x = _ar1(rng, total, phi, scale=1.0)
    psi = _signed_uniform(rng, 0.05, 0.15, spec.p)
    eps = _ma1(rng, total, psi, scale=1.0)
    e = eps @ _smoothing_kernel(spec.p)
    y = x @ a_tilde.T + spec.noise_scale * e
    panel = TimePanel(y[spec.burn_in :])
    return panel, _orthonormal_basis(a_tilde)


def generate_two_strength(
    spec: SimulationSpec, seed
) -> tuple[TimePanel, np.ndarray, np.ndarray]:
    """One panel from the strong-plus-weak design.

    Draw order: strong loading; weak loading; AR coefficients
    (magnitudes, signs); MA coefficients (magnitudes, signs); strong
    factor innovations; weak factor innovations; noise.  Factor
    innovations are N(0, 0.2**2); the idiosyncratic term is i.i.d.
    standard normal.

    Returns the panel plus orthonormal bases of the strong and weak
    loading spaces.
    """
    if spec.model != "twostrength":
        raise InvalidConfig("generate_two_strength needs a spec with model='twostrength'")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.Generator(np.random.PCG64(seed))
    total = spec.burn_in + spec.n
    a_tilde = _uniform_loading(rng, spec.p, spec.r0, spec.delta0)
    b_tilde = _uniform_loading(rng, spec.p, spec.r1, spec.delta1)
    phi = _signed_uniform(rng, 0.85, 0.95, spec.r0)
    theta = _signed_uniform(rng, 0.85, 0.95, spec.r1)
    x = _ar1(rng, total, phi, scale=0.2)
    z = _ma1(rng, total, theta, scale=0.2)
    e = rng.standard_normal((total, spec.p))
    y = x @ a_tilde.T + z @ b_tilde.T + spec.noise_scale * e
    panel = TimePanel(y[spec.burn_in :])
    return panel, _orthonormal_basis(a_tilde), _orthonormal_basis(b_tilde)


def _one_run(spec: SimulationSpec, labels: list[str], run_index: int) -> list[RunRecord]:
    rng = _run_rng(spec.base_seed, run_index)
    if spec.model == "uniform":
        panel, a_true = generate_uniform(spec, rng)
    else:
        panel, a_true, _ = generate_two_strength(spec, rng)
    out = []
    for cfg, label in zip(spec.methods, labels):
        try:
            fit = estimate(panel, cfg)
            dist = subspace_distance(fit.A_hat, a_true)
            out.append(RunRecord(run_index, label, fit.r_hat, dist))
        except TsfactorError as exc:
            out.append(RunRecord(run_index, label, None, None, error=f"{type(exc).__name__}: {exc}"))
    return out


def run_monte_carlo(spec: SimulationSpec, threads: int = 1) -> SimulationReport:
    """Run ``spec.n_runs`` seeded replications and aggregate per method.

    Each run draws a fresh panel, fits every configured method, and
    records the estimated factor count and the subspace distance to the
    strong loading space.  Failing (run, method) cells keep their error
    message and are excluded from the aggregates.

    Runs go one after another in index order on the calling thread.
    ``threads`` must be at least 1 and does not change how a study runs:
    a thread pool was slower than this loop, since numpy's BLAS already
    uses the cores.
    """
    if threads < 1:
        raise InvalidConfig("threads must be >= 1")
    labels = _method_labels(spec.methods)
    start = time.perf_counter()
    records = tuple(rec for i in range(spec.n_runs) for rec in _one_run(spec, labels, i))
    summaries = []
    for label in labels:
        mine = [r for r in records if r.method == label]
        good = [r for r in mine if r.error is None]
        n_failed = len(mine) - len(good)
        if good:
            r_hats = np.array([r.r_hat for r in good], dtype=float)
            dists = np.array([r.distance for r in good], dtype=float)
            freq = float(np.mean(r_hats == spec.r0))
            mean_r = float(np.mean(r_hats))
            mean_d = float(np.mean(dists))
            sd_d = float(np.std(dists, ddof=1)) if len(good) > 1 else 0.0
        else:
            freq = mean_r = mean_d = sd_d = float("nan")
        summaries.append(
            MethodSummary(
                method=label,
                frequency_correct=freq,
                mean_r_hat=mean_r,
                mean_distance=mean_d,
                sd_distance=sd_d,
                n_success=len(good),
                n_failed=n_failed,
            )
        )
    elapsed = time.perf_counter() - start
    return SimulationReport(
        spec=spec,
        rng_name=RNG_NAME,
        summaries=tuple(summaries),
        records=records,
        wall_clock_seconds=elapsed,
    )
