"""Tests for the generalized-BIC choice of the projection dimension q."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from tsfactor.errors import InvalidConfig, InvalidData
from tsfactor.factor import (
    EstimatorConfig,
    _row_space,
    estimate,
    rrr_solution,
    select_r,
    weight_matrix,
)
from tsfactor.modelselect import _bic_value, _param_count, select_q
from tsfactor.simulate import SimulationSpec, generate_two_strength, generate_uniform
from tsfactor.tsstats import TimePanel, _fix_signs, demean, sample_autocov, subspace_distance


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


def explicit_scan(panel, m, q0, C=0.2, vartheta_scale=0.1):
    """The q scan with every residual ``y[k:] - D H A'`` formed explicitly,
    in the coordinates the scan runs in (the row space when p > n): the
    oracle for the Gram-form kernel.  Returns the candidates, r_bar, the
    rank per candidate, ``per_lag_L`` and q_hat."""
    panel = demean(panel)
    n, p = panel.n, panel.p
    _, rows, e = _row_space(panel)
    rows = TimePanel(np.ldexp(rows.data, e), demeaned=True)  # back in the data's units
    y = rows.data
    covs = sample_autocov(rows, m)
    w0 = weight_matrix(covs, q0)
    vartheta = vartheta_scale * p / n
    halves = [lag @ (w0.Q / np.sqrt(w0.theta)) for lag in covs.lags]

    def svds(q):
        return [np.linalg.svd(b[:, :q], full_matrices=False)[:2] for b in halves]

    r_bar, _ = select_r([s**2 for _, s in svds(q0)], n, vartheta, q0 - 1)
    candidates = tuple(range(r_bar + 1, q0 + 1))
    per_lag_L = np.zeros((m, len(candidates)))
    totals = np.zeros(len(candidates))
    r_hats = []
    for i, q in enumerate(candidates):
        per_lag = svds(q)
        r_q, _ = select_r([s**2 for _, s in per_lag], n, vartheta, q - 1)
        r_hats.append(r_q)
        for k, (u, _) in enumerate(per_lag, start=1):
            a = _fix_signs(u[:, :r_q])
            design, head = y[: n - k] @ w0.Q[:, :q], y[k:]
            h = np.linalg.solve(design.T @ design, design.T @ (head @ a))
            resid = head - (design @ h) @ a.T
            per_lag_L[k - 1, i] = float(np.sum(resid**2)) / (p * n)
            totals[i] += _bic_value(p, n, per_lag_L[k - 1, i], _param_count(p, q, r_q), C)
    return candidates, r_bar, tuple(r_hats), per_lag_L, candidates[int(np.argmin(totals))]


def _oracle_panels():
    for seed in (233, 239, 263):  # the select_q tests' panels
        yield f"planted-{seed}", planted_panel(np.random.default_rng(seed), n=150, p=12, r=2)
    yield "planted-251", planted_panel(np.random.default_rng(251), n=120, p=10, r=1)
    for seed in range(4):
        spec = SimulationSpec(model="uniform", p=100, n=300, r0=3)
        yield f"uniform-{seed}", generate_uniform(spec, seed)[0]
        spec = SimulationSpec(model="twostrength", p=100, n=200, r0=2, r1=2, delta1=0.5)
        yield f"twostrength-{seed}", generate_two_strength(spec, seed)[0]
        spec = SimulationSpec(model="uniform", p=240, n=80, r0=3)
        yield f"p>n-{seed}", generate_uniform(spec, seed)[0]


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("panel", [pytest.param(panel, id=name) for name, panel in _oracle_panels()])
def test_gram_form_scan_matches_explicit_residuals(panel, m):
    trace = estimate(panel, EstimatorConfig(method="wauto", m=m)).bic_trace
    # the default ceiling: below min(p, n) and within the n - m rows of the lag-m regression
    q0 = min(15, panel.p - 1, panel.n - m)
    candidates, r_bar, r_hats, per_lag_L, q_hat = explicit_scan(panel, m, q0)
    assert trace.candidates == candidates and trace.r_bar == r_bar
    assert trace.r_hat_per_candidate == r_hats
    assert np.abs(trace.per_lag_L - per_lag_L).max() <= 1e-12 * per_lag_L.min()
    assert trace.q_hat == q_hat


def test_rrr_objective_matches_explicit_residual():
    panel = demean(planted_panel(np.random.default_rng(269), n=150, p=12, r=2))
    for k, q, r in ((1, 4, 2), (2, 6, 1), (3, 11, 5)):
        a, h, objective = rrr_solution(panel, k, q, r)
        y, n = panel.data, panel.n
        design = y[: n - k] @ weight_matrix(sample_autocov(panel, k), q).Q
        resid = y[k:] - (design @ h) @ a.T
        assert objective == pytest.approx(float(np.sum(resid**2)), rel=1e-12)


# --------------------------------------------------------------- select_q


def test_select_q_trace_is_internally_consistent():
    rng = np.random.default_rng(233)
    panel = planted_panel(rng, n=150, p=12, r=2)
    cfg = EstimatorConfig(method="wauto", m=2, q0=8, bic_c=0.2)
    trace = select_q(panel, cfg)

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
            expect = p * n * math.log(L) + cfg.bic_c * d * math.log(p * n)
            assert trace.per_lag_bic[k, j] == pytest.approx(expect, rel=1e-10)


def test_select_q_agrees_with_direct_bic_calls():
    rng = np.random.default_rng(239)
    panel = planted_panel(rng, n=150, p=12, r=2)
    cfg = EstimatorConfig(method="wauto", m=2, q0=8, bic_c=0.2)
    trace = select_q(panel, cfg)
    for j, q in enumerate(trace.candidates):
        r_q = trace.r_hat_per_candidate[j]
        for k in range(1, cfg.m + 1):
            direct = bic_k(panel, k=k, q=q, r_hat=r_q, C=cfg.bic_c)
            assert trace.per_lag_bic[k - 1, j] == pytest.approx(direct, rel=1e-8)


def test_select_q_singleton_candidate_set():
    # With two strong factors and q0 = 3 the preliminary rank is 2, so a
    # single candidate q = 3 remains and must be selected.
    rng = np.random.default_rng(241)
    panel = planted_panel(rng, n=200, p=20, r=2, noise=0.2)
    trace = select_q(panel, EstimatorConfig(method="wauto", q0=3))
    assert trace.r_bar == 2
    assert trace.candidates == (3,)
    assert trace.q_hat == 3


def test_select_q_deterministic_rerun():
    rng = np.random.default_rng(251)
    panel = planted_panel(rng, n=120, p=10, r=1)
    cfg = EstimatorConfig(method="wauto", q0=6)
    t1 = select_q(panel, cfg)
    t2 = select_q(panel, cfg)
    assert t1.candidates == t2.candidates
    assert t1.q_hat == t2.q_hat and t1.r_bar == t2.r_bar
    assert np.array_equal(t1.per_lag_bic, t2.per_lag_bic)
    assert np.array_equal(t1.totals, t2.totals)
    assert np.array_equal(t1.per_lag_L, t2.per_lag_L)


def test_select_q_rejects_oversized_ceiling():
    rng = np.random.default_rng(257)
    panel = planted_panel(rng, n=60, p=6, r=1)
    with pytest.raises(InvalidConfig):
        select_q(panel, EstimatorConfig(method="wauto", q0=6))


def test_select_q_scans_the_fits_lags_up_to_the_fits_ceiling():
    # one config: the scan sums BIC over the lags the fit aggregates, and
    # its default ceiling min(15, p - 1, n - m) is the one estimate uses
    panel = planted_panel(np.random.default_rng(271), n=200, p=10, r=2)
    trace = select_q(panel, EstimatorConfig(method="wauto", m=3, q0=8))
    assert trace.per_lag_bic.shape == (3, len(trace.candidates))
    trace = select_q(panel, EstimatorConfig(method="wauto"))
    assert trace.candidates[-1] == 9
    assert trace.q_hat == estimate(panel, EstimatorConfig(method="wauto")).q_used


def test_scan_settings_validation():
    with pytest.raises(InvalidConfig):
        EstimatorConfig(bic_c=0.0)
    with pytest.raises(InvalidConfig):
        EstimatorConfig(q0=2)
    with pytest.raises(InvalidConfig):
        EstimatorConfig(m=0)


def test_estimate_auto_q_uses_bic_choice():
    rng = np.random.default_rng(263)
    panel = planted_panel(rng, n=150, p=12, r=2)
    est_cfg = EstimatorConfig(method="wauto", m=2)
    trace = select_q(panel, dataclasses.replace(est_cfg, q0=min(15, 12 - 1)))
    fit = estimate(panel, est_cfg)
    assert fit.q_used == trace.q_hat
    # and an explicit ceiling is honored
    fit2 = estimate(panel, dataclasses.replace(est_cfg, q0=5))
    trace2 = select_q(panel, dataclasses.replace(est_cfg, q0=5))
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


def test_rrr_solution_is_scale_free_and_names_an_objective_that_overflows():
    y = generate_uniform(SimulationSpec(model="uniform", p=100, n=300, r0=3), 0)[0].data
    a, h, objective = rrr_solution(TimePanel(y), 1, 5, 2)
    for power in (40, -40):
        a_moved, h_moved, moved = rrr_solution(TimePanel(np.ldexp(y, power)), 1, 5, 2)
        assert np.array_equal(a_moved, a) and np.array_equal(h_moved, h)
        assert moved == np.ldexp(objective, 2 * power)
    # the lag products still fit at 1e152, but ||y[1:] - ...||^2 does not
    with pytest.raises(InvalidData, match="objective overflows: the data are too large$"):
        rrr_solution(TimePanel(1e152 * y), 1, 5, 2)


def test_rrr_solution_names_a_lag0_spectrum_that_overflows():
    # with p > n the p-by-p lag-0 covariance fits while its leading
    # eigenvalue, near the trace, does not; numpy used to warn on the inf.
    # The fit runs on the n-by-n row-space scores, whose lag-0 covariance
    # carries that trace on its diagonal and overflows first.
    y = np.random.default_rng(0).standard_normal((10, 400))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidData, match="lag-0 autocovariance overflows: the data are too large$"):
            rrr_solution(TimePanel(2e153 * y), 1, 3, 1)


@pytest.mark.parametrize("q", ["auto", 5])
def test_wauto_fits_a_uniform_panel_times_1e152(q):
    # D'D used to overflow and numpy's eigvalsh raised an untyped
    # LinAlgError, although the lag products fit
    panel = generate_uniform(SimulationSpec(model="uniform", p=100, n=300, r0=3), 0)[0]
    cfg = EstimatorConfig(method="wauto", q=q)
    base = estimate(panel, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = estimate(TimePanel(1e152 * panel.data), cfg)
    assert (fit.r_hat, fit.q_used) == (base.r_hat, base.q_used)
    assert subspace_distance(fit.A_hat, base.A_hat) <= 1e-10
    for got, want in zip(fit.H_hat, base.H_hat, strict=True):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_scan_of_a_two_strength_panel_times_1e152_matches_the_unscaled_scan():
    # ||y[k:]||^2 used to overflow: every BIC total was inf and q_hat was 3
    panel = generate_two_strength(
        SimulationSpec(model="twostrength", p=100, n=200, r0=2, r1=2, delta1=0.5), 0
    )[0]
    base = estimate(panel, EstimatorConfig(method="wauto")).bic_trace
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = estimate(TimePanel(1e152 * panel.data), EstimatorConfig(method="wauto")).bic_trace
    assert (got.q_hat, got.r_bar) == (base.q_hat, base.r_bar) == (7, 2)
    assert got.candidates == base.candidates
    assert got.r_hat_per_candidate == base.r_hat_per_candidate
    assert np.isfinite(got.totals).all()
    # at a power of two every residual mean scales exactly
    moved = estimate(TimePanel(np.ldexp(panel.data, 40)), EstimatorConfig(method="wauto")).bic_trace
    assert moved.candidates == base.candidates
    assert np.array_equal(moved.per_lag_L, np.ldexp(base.per_lag_L, 80))


SCALED_OUTCOMES = {  # (auto r_hat, wauto r_hat, wauto q_hat) on the panel below
    1e-150: (1, 1, 10),
    1e-100: (1, 1, 10),
    1e60: (2, 2, 7),
    1e76: (2, 2, 7),
    1e77: ("InvalidData", 2, 7),
    1e140: ("InvalidData", 2, 7),
    1e150: ("InvalidData", 2, 7),
}


@pytest.mark.parametrize("scale", list(SCALED_OUTCOMES))
def test_auto_and_wauto_outcomes_across_scales(scale):
    # auto's spectra carry the scale to the fourth power and overflow from
    # about 1e77; wauto fits up to the lag-product overflow
    panel = generate_two_strength(
        SimulationSpec(model="twostrength", p=100, n=200, r0=2, r1=2, delta1=0.5), 0
    )[0]
    moved = TimePanel(scale * panel.data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            auto = estimate(moved, EstimatorConfig(method="auto")).r_hat
        except InvalidData as err:
            assert str(err) == "per-lag spectrum overflows: the data are too large"
            auto = "InvalidData"
        wauto = estimate(moved, EstimatorConfig(method="wauto"))
    assert (auto, wauto.r_hat, wauto.q_used) == SCALED_OUTCOMES[scale]
