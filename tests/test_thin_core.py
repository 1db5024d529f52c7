"""The p > n fit in the panel's row space against the p-by-p route.

When p > n, ``estimate`` fits the n-by-n scores ``Z`` of a thin QR
``y' = V Z'`` and lifts the basis back with ``V``.  ``dense_fit`` below
is the p-by-p route: it forms every p-by-p autocovariance, weight and
aggregate, and solves ``H_hat`` by ``lstsq``.  The two must agree to
round-off, with identical ranks, q and shapes.
"""

import gc
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import tsfactor.tsstats
from tsfactor.cli import run
from tsfactor.factor import (
    EstimatorConfig,
    _lag_weighted,
    _ratio_argmax,
    _resolve_bounds,
    estimate,
    m_hat,
    per_lag_spectra,
    weight_matrix,
)
from tsfactor.matrixfactor import MatrixPanel, estimate_matrix
from tsfactor.modelselect import _scan, select_q
from tsfactor.simulate import SimulationSpec, generate_two_strength
from tsfactor.tsstats import TimePanel, demean, sample_autocov, subspace_distance, sym_eigen


def dense_fit(y: np.ndarray, cfg: EstimatorConfig) -> dict:
    """One estimator run on p-by-p matrices."""
    panel = demean(TimePanel(y))
    n, p = panel.n, panel.p
    yc = panel.data
    covs = sample_autocov(panel, 0 if cfg.method == "cov" else cfg.m)
    w, q = None, None
    if cfg.method == "wauto":
        q = cfg.q
        if not isinstance(q, int):
            q = _scan(yc, p, covs, sym_eigen(covs.lag0, p), cfg).q_hat
        w = weight_matrix(covs, q)
    if cfg.method == "cov":
        pairs = sym_eigen(covs.lag0, p)
        spectra, ranked, vartheta = (pairs.values,), pairs.values, 0.0
    else:
        spectra = tuple(per_lag_spectra(covs, w))
        ranked = _lag_weighted(spectra, n)
        vartheta = cfg.vartheta_scale * (p / n) ** (2 if w is None else 1)
    bound, r_fixed = _resolve_bounds(cfg, p - 1 if w is None else q - 1, n)
    r_sel, ratios = _ratio_argmax(ranked, vartheta, bound)
    r = r_fixed if r_fixed is not None else r_sel
    if cfg.method == "cov":
        a = pairs.vectors[:, :r]
    else:
        a = sym_eigen(m_hat(covs, w), r).vectors
    h_hat = None if w is None else tuple(
        np.linalg.lstsq(yc[: n - k] @ w.Q, yc[k:] @ a, rcond=None)[0]
        for k in range(1, cfg.m + 1)
    )
    return dict(r_hat=r, q_used=q, A_hat=a, factors=yc @ a, spectra=spectra,
                ratios=ratios, H_hat=h_hat)


def ar_panel(seed: int, n: int, p: int) -> np.ndarray:
    """Two AR(1) factors of unequal strength plus white noise."""
    rng = np.random.default_rng(seed)
    x = np.zeros((n, 2))
    for t in range(1, n):
        x[t] = np.array([0.8, 0.6]) * x[t - 1] + rng.standard_normal(2)
    load = rng.uniform(-1.0, 1.0, size=(p, 2)) * np.array([1.0, 0.6])
    return x @ load.T + rng.standard_normal((n, p))


def duplicated_panel() -> np.ndarray:
    """150 series at n=60 made of 40 distinct ones, repeated and rescaled,
    plus 1e-8 noise: the panel is within round-off of rank 40 < n."""
    rng = np.random.default_rng(11)
    base = rng.standard_normal((60, 40))
    base[1:] += 0.7 * base[:-1]
    y = np.hstack([base, base, 2.0 * base[:, :30], -base])
    return y + 1e-8 * rng.standard_normal(y.shape)


def two_strength_panel() -> np.ndarray:
    spec = SimulationSpec(model="twostrength", n=100, p=300, r0=2, r1=2, delta0=1.0, delta1=0.5)
    return np.asarray(generate_two_strength(spec, 3)[0].data)


PANELS = {
    "300x60": lambda: ar_panel(1, 60, 300),
    "40x12": lambda: ar_panel(2, 12, 40),
    "two_strength": two_strength_panel,
    "duplicated": duplicated_panel,
}

CONFIGS = {
    "cov": EstimatorConfig(method="cov"),
    "auto": EstimatorConfig(method="auto"),
    "wauto_q_auto": EstimatorConfig(method="wauto", q="auto"),
    "wauto_q6": EstimatorConfig(method="wauto", q=6),
    "cov_r3": EstimatorConfig(method="cov", r_fixed=3),
    "auto_r2": EstimatorConfig(method="auto", r_fixed=2),
    "wauto_q6_r2": EstimatorConfig(method="wauto", q=6, r_fixed=2),
}


def relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("name", sorted(PANELS))
def test_thin_fit_matches_the_dense_route(name, config):
    y = PANELS[name]()
    assert y.shape[1] > y.shape[0]
    cfg = CONFIGS[config]
    fit = estimate(TimePanel(y), cfg)
    want = dense_fit(y, cfg)
    assert (fit.r_hat, fit.q_used) == (want["r_hat"], want["q_used"])
    assert fit.A_hat.shape == want["A_hat"].shape
    assert fit.A_hat.base is None
    assert subspace_distance(fit.A_hat, want["A_hat"]) <= 1e-10
    assert fit.ratios.shape == want["ratios"].shape
    assert relative_gap(fit.ratios, want["ratios"]) <= 1e-10
    assert len(fit.eigenvalues_per_lag) == len(want["spectra"])
    for got, dense in zip(fit.eigenvalues_per_lag, want["spectra"]):
        assert got.shape == dense.shape
        assert np.abs(got - dense).max() <= 1e-10 * dense[0]
        if fit.q_used is None:  # cov and auto: exact zeros outside the row space
            assert np.all(got[y.shape[0]:] == 0.0)
    # the factors carry the loadings' column signs, so this also checks them
    assert relative_gap(fit.factors, want["factors"]) <= 1e-9
    if want["H_hat"] is None:
        assert fit.H_hat is None
    else:
        assert [h.shape for h in fit.H_hat] == [h.shape for h in want["H_hat"]]
        for got, dense in zip(fit.H_hat, want["H_hat"]):
            assert relative_gap(got, dense) <= 1e-9


class CoreCalls(list):
    """``(name, argument shape)`` of each ``sample_autocov`` and ``sym_eigen``
    call, with counts of thin QRs and of ``sym_eigen`` calls on a lag-0
    covariance that ``sample_autocov`` returned, or on its copy scaled by
    ``2**-e``, e the binary exponent of its largest entry."""

    qr = 0
    lag0_eigen = 0


def record_core_calls(monkeypatch) -> CoreCalls:
    """Record the core calls, through each ``tsfactor`` module's binding of
    ``sample_autocov`` and ``sym_eigen`` and through ``np.linalg.qr``."""
    seen = CoreCalls()
    lag0s = []

    def is_lag0(mat, lag0):
        e = int(np.frexp(np.abs(lag0).max())[1])
        return mat is lag0 or np.array_equal(mat, np.ldexp(lag0, -e))

    def recording(name, func):
        def wrapped(first, *args, **kwargs):
            seen.append((name, np.shape(getattr(first, "data", first))))
            if name == "sym_eigen" and any(is_lag0(first, lag0) for lag0 in lag0s):
                seen.lag0_eigen += 1
            out = func(first, *args, **kwargs)
            if name == "sample_autocov":
                lag0s.append(out.lag0)
            return out
        return wrapped

    for name in ("sample_autocov", "sym_eigen"):
        original = getattr(tsfactor.tsstats, name)
        wrapped = recording(name, original)
        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "tsfactor"]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapped)
    qr = np.linalg.qr

    def counted_qr(*args, **kwargs):
        seen.qr += 1
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    return seen


def test_thin_fit_forms_no_p_by_p_matrix(monkeypatch):
    seen = record_core_calls(monkeypatch)
    panel = TimePanel(ar_panel(4, 50, 200))
    for method in ("cov", "auto", "wauto"):
        estimate(panel, EstimatorConfig(method=method))
    assert {name for name, _ in seen} == {"sample_autocov", "sym_eigen"}
    assert max(max(shape) for _, shape in seen) == 50


def test_select_q_forms_no_p_by_p_matrix(monkeypatch, tmp_path):
    y = ar_panel(4, 50, 200)
    src = tmp_path / "panel.csv"
    np.savetxt(src, y, delimiter=",", fmt="%.17g")
    seen = record_core_calls(monkeypatch)
    trace = select_q(TimePanel(y), EstimatorConfig(method="wauto", q0=10))
    assert trace.q_hat in trace.candidates
    assert {name for name, _ in seen} == {"sample_autocov", "sym_eigen"}
    assert max(max(shape) for _, shape in seen) == 50
    seen.clear()
    assert run(["select-q", str(src), "--q0", "10", "--out", str(tmp_path / "out")]) == 0
    assert {name for name, _ in seen} == {"sample_autocov", "sym_eigen"}
    assert max(max(shape) for _, shape in seen) == 50


@pytest.mark.parametrize("n, p", [(50, 200), (80, 20)])
def test_three_methods_on_one_panel_share_one_qr_and_one_lag0_eigen(monkeypatch, n, p):
    seen = record_core_calls(monkeypatch)
    panel = TimePanel(ar_panel(4, n, p))
    for method in ("cov", "auto", "wauto"):
        estimate(panel, EstimatorConfig(method=method))
    assert seen.qr == (1 if p > n else 0)
    assert seen.lag0_eigen == 1


def test_a_fitted_panel_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        refs = []
        for n, p in ((50, 200), (80, 20)):
            panel = TimePanel(ar_panel(4, n, p))
            for method in ("cov", "auto", "wauto"):
                estimate(panel, EstimatorConfig(method=method))
            refs += [weakref.ref(panel), weakref.ref(demean(panel))]
            del panel
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_matrix_fit_forms_no_flat_lag_product(monkeypatch):
    # each side projects the slices first, so no (p1*p2)^2 lag product exists
    n, p1, p2 = 60, 5, 4
    rng = np.random.default_rng(8)
    seen = record_core_calls(monkeypatch)
    estimate_matrix(MatrixPanel(rng.standard_normal((n, p1, p2))), m=2)
    assert [name for name, _ in seen if name == "sample_autocov"] == []
    eigens = sorted(shape for name, shape in seen if name == "sym_eigen")
    assert eigens == sorted([(p1, p1)] * (p2 + 1) + [(p2, p2)] * (p1 + 1))
    n, p1, p2 = 60, 30, 30
    panel = MatrixPanel(rng.standard_normal((n, p1, p2)))
    tracemalloc.start()
    try:
        estimate_matrix(panel, m=2, q1=3, q2=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < np.dtype(float).itemsize * (p1 * p2) ** 2
