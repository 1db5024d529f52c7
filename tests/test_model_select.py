"""Tests for the generalized-BIC choice of the projection dimension q."""

import dataclasses
import math

import numpy as np
import pytest

from tsfactor.errors import InvalidConfig
from tsfactor.factor import EstimatorConfig, estimate, rrr_solution, weight_matrix
from tsfactor.modelselect import BicConfig, _bic_value, _param_count, select_q
from tsfactor.tsstats import TimePanel, demean, sample_autocov


def planted_panel(rng, n, p, r, phi=0.85, noise=0.5):
    load = rng.uniform(-1.0, 1.0, size=(p, r))
    x = np.zeros((n, r))
    x[0] = rng.normal(size=r) / np.sqrt(1 - phi**2)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + rng.normal(size=r)
    return TimePanel(x @ load.T + noise * rng.normal(size=(n, p)))


def bic_k(panel, k, q, r_hat, C):
    """BIC of the rank-``r_hat`` lag-k regression at projection size q, from
    the public ``rrr_solution``: the oracle the q scan is checked against.
    An exact fit gives ``-inf``."""
    if r_hat >= q:
        raise InvalidConfig(f"r_hat={r_hat} must be smaller than q={q}")
    if C <= 0:
        raise InvalidConfig("penalty constant C must be positive")
    _, _, objective = rrr_solution(panel, k, q, r_hat)
    n, p = panel.n, panel.p
    return _bic_value(p, n, objective / (p * n), _param_count(p, q, r_hat), C)


# ----------------------------------------------------------------- bic_k


def test_parameter_count_through_penalty_difference():
    # Raising C by dC raises BIC by dC * d * log(pn); at p=10, q=5, r=2
    # the free-parameter count d is (10+5)*2 - 3 = 27.
    rng = np.random.default_rng(211)
    panel = planted_panel(rng, n=80, p=10, r=2)
    lo = bic_k(panel, k=1, q=5, r_hat=2, C=0.2)
    hi = bic_k(panel, k=1, q=5, r_hat=2, C=0.4)
    d = (hi - lo) / (0.2 * math.log(10 * 80))
    assert d == pytest.approx(27.0, abs=1e-8)
    assert hi > lo


def test_bic_matches_looped_residual_oracle():
    rng = np.random.default_rng(223)
    panel = demean(planted_panel(rng, n=120, p=8, r=1))
    k, q, r, c = 1, 4, 1, 0.2
    got = bic_k(panel, k=k, q=q, r_hat=r, C=c)
    # independent recomputation: same fit, residual summed time point by
    # time point
    a, h, _ = rrr_solution(panel, k=k, q=q, r=r)
    q_cols = weight_matrix(sample_autocov(panel, k), q).Q
    y = panel.data
    rss = 0.0
    for t in range(k, panel.n):
        pred = a @ (h.T @ (q_cols.T @ y[t - k]))
        rss += float(np.sum((y[t] - pred) ** 2))
    n, p = panel.n, panel.p
    L = rss / (p * n)
    d = (p + q) * r - r * (r + 1) // 2
    oracle = p * n * math.log(L) + c * d * math.log(p * n)
    assert got == pytest.approx(oracle, rel=1e-8)


def test_bic_exact_fit_is_unbeatable():
    # Panel whose lag-4 targets are exactly zero: the fit has zero
    # residual, hence L = 0 and a BIC of -inf.
    rng = np.random.default_rng(227)
    v1, v2 = rng.normal(size=5), rng.normal(size=5)
    rows = np.zeros((12, 5))
    rows[0], rows[1], rows[2], rows[3] = v1, -v1, v2, -v2
    panel = TimePanel(rows, demeaned=True)
    assert bic_k(panel, k=4, q=2, r_hat=1, C=0.2) == -math.inf


def test_bic_validates_arguments():
    rng = np.random.default_rng(229)
    panel = planted_panel(rng, n=60, p=6, r=1)
    with pytest.raises(InvalidConfig):
        bic_k(panel, k=1, q=3, r_hat=3, C=0.2)
    with pytest.raises(InvalidConfig):
        bic_k(panel, k=1, q=3, r_hat=1, C=0.0)


# --------------------------------------------------------------- select_q


def test_select_q_trace_is_internally_consistent():
    rng = np.random.default_rng(233)
    panel = planted_panel(rng, n=150, p=12, r=2)
    cfg = BicConfig(C=0.2, q0=8, m=2)
    trace = select_q(panel, cfg, EstimatorConfig(method="wauto"))

    assert trace.candidates == tuple(range(trace.r_bar + 1, 9))
    assert trace.q_hat in trace.candidates
    i = trace.candidates.index(trace.q_hat)
    assert np.all(trace.totals[i] <= trace.totals)
    assert np.allclose(trace.totals, trace.per_lag_bic.sum(axis=0), rtol=1e-12)
    # stored pieces reassemble into the stored BIC values
    n, p = panel.n, panel.p
    for k in range(cfg.m):
        for j in range(len(trace.candidates)):
            L, d = trace.per_lag_L[k, j], trace.per_lag_d[k, j]
            expect = p * n * math.log(L) + cfg.C * d * math.log(p * n)
            assert trace.per_lag_bic[k, j] == pytest.approx(expect, rel=1e-10)


def test_select_q_agrees_with_direct_bic_calls():
    rng = np.random.default_rng(239)
    panel = planted_panel(rng, n=150, p=12, r=2)
    cfg = BicConfig(C=0.2, q0=8, m=2)
    trace = select_q(panel, cfg, EstimatorConfig(method="wauto"))
    for j, q in enumerate(trace.candidates):
        r_q = trace.r_hat_per_candidate[j]
        for k in range(1, cfg.m + 1):
            direct = bic_k(panel, k=k, q=q, r_hat=r_q, C=cfg.C)
            assert trace.per_lag_bic[k - 1, j] == pytest.approx(direct, rel=1e-8)


def test_select_q_singleton_candidate_set():
    # With two strong factors and q0 = 3 the preliminary rank is 2, so a
    # single candidate q = 3 remains and must be selected.
    rng = np.random.default_rng(241)
    panel = planted_panel(rng, n=200, p=20, r=2, noise=0.2)
    trace = select_q(panel, BicConfig(q0=3), EstimatorConfig(method="wauto"))
    assert trace.r_bar == 2
    assert trace.candidates == (3,)
    assert trace.q_hat == 3


def test_select_q_deterministic_rerun():
    rng = np.random.default_rng(251)
    panel = planted_panel(rng, n=120, p=10, r=1)
    cfg = BicConfig(q0=6)
    est = EstimatorConfig(method="wauto")
    t1 = select_q(panel, cfg, est)
    t2 = select_q(panel, cfg, est)
    assert t1.candidates == t2.candidates
    assert t1.q_hat == t2.q_hat and t1.r_bar == t2.r_bar
    assert np.array_equal(t1.per_lag_bic, t2.per_lag_bic)
    assert np.array_equal(t1.totals, t2.totals)
    assert np.array_equal(t1.per_lag_L, t2.per_lag_L)


def test_select_q_rejects_oversized_ceiling():
    rng = np.random.default_rng(257)
    panel = planted_panel(rng, n=60, p=6, r=1)
    with pytest.raises(InvalidConfig):
        select_q(panel, BicConfig(q0=6), EstimatorConfig(method="wauto"))


def test_bicconfig_validation():
    with pytest.raises(InvalidConfig):
        BicConfig(C=0.0)
    with pytest.raises(InvalidConfig):
        BicConfig(q0=2)
    with pytest.raises(InvalidConfig):
        BicConfig(m=0)


def test_estimate_auto_q_uses_bic_choice():
    rng = np.random.default_rng(263)
    panel = planted_panel(rng, n=150, p=12, r=2)
    est_cfg = EstimatorConfig(method="wauto", m=2)
    trace = select_q(panel, BicConfig(q0=min(15, 12 - 1), m=2), est_cfg)
    fit = estimate(panel, est_cfg)
    assert fit.q_used == trace.q_hat
    # and an explicit BicConfig is honored
    fit2 = estimate(panel, est_cfg, bic=BicConfig(q0=5, m=2))
    trace2 = select_q(panel, BicConfig(q0=5, m=2), est_cfg)
    assert fit2.q_used == trace2.q_hat
    # the fit carries the scan it ran, field for field
    for scanned, want in ((fit, trace), (fit2, trace2)):
        got = scanned.bic_trace
        for field in dataclasses.fields(want):
            assert np.array_equal(getattr(got, field.name), getattr(want, field.name))
    # and no other fit scans
    for cfg in (
        EstimatorConfig(method="cov"),
        EstimatorConfig(method="auto"),
        EstimatorConfig(method="wauto", q=5),
    ):
        assert estimate(panel, cfg).bic_trace is None
