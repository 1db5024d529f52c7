"""Tests for ARMA fitting, recursive prediction, and expanding-window evaluation."""

import numpy as np
import pytest

import tsfactor.forecast
from tsfactor.errors import InvalidConfig, InvalidData, PreconditionViolated, TsfactorError
from tsfactor.factor import EstimatorConfig, estimate
from tsfactor.forecast import (
    ZERO_BASELINE,
    ArmaFit,
    ForecastReport,
    MethodForecast,
    expanding_window_eval,
    fit_arma,
    forecast_arma,
    forecast_metrics,
    pipeline_forecast,
)
from tsfactor.tsstats import TimePanel


def ar1_series(rng, n, phi=0.8, scale=1.0):
    x = np.zeros(n)
    x[0] = scale * rng.standard_normal() / np.sqrt(1 - phi**2)
    innov = scale * rng.standard_normal(n)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + innov[t]
    return x


# ----------------------------------------------------------------- fit_arma


def test_fit_arma_validates_inputs():
    with pytest.raises(InvalidData):
        fit_arma(np.zeros(10))
    bad = np.ones(50)
    bad[3] = np.nan
    with pytest.raises(InvalidData):
        fit_arma(bad)
    with pytest.raises(InvalidConfig):
        fit_arma(np.random.default_rng(0).standard_normal(100), max_ar=-1)


def test_white_noise_mostly_selects_empty_order():
    hits = 0
    for s in range(100):
        rng = np.random.default_rng(s)
        if fit_arma(rng.standard_normal(2000)).order == (0, 0):
            hits += 1
    assert hits >= 80


def test_ar1_coefficient_matches_yule_walker_oracle():
    for s in range(5):
        rng = np.random.default_rng(100 + s)
        x = ar1_series(rng, 2000, phi=0.8)
        fit = fit_arma(x, max_ar=1, max_ma=0)
        assert fit.order == (1, 0)
        # independent moment estimate of the same coefficient
        xc = x - x.mean()
        yule_walker = float(xc[:-1] @ xc[1:] / (xc @ xc))
        assert fit.ar_coeffs[0] == pytest.approx(yule_walker, abs=0.02)
        assert fit.ar_coeffs[0] == pytest.approx(0.8, abs=0.05)


def test_pure_ar_orders_are_fitted_in_closed_form(monkeypatch):
    def no_iterations(*args, **kwargs):
        raise AssertionError("an AR-only grid must not call least_squares")

    monkeypatch.setattr(tsfactor.forecast, "least_squares", no_iterations)
    for s, phi in enumerate(([0.5, 0.3], [0.8], [1.2, -0.5, 0.2])):
        rng = np.random.default_rng(70 + s)
        x = np.zeros(600)
        e = rng.standard_normal(600)
        for t in range(600):
            x[t] = e[t] + sum(c * x[t - i] for i, c in enumerate(phi, start=1) if t >= i)
        fit = fit_arma(x + 3.0, max_ar=3, max_ma=0)
        order = fit.order[0]
        assert order == len(phi)
        # zero-presample conditional least squares: regress z_t on z_{t-1..t-order}, z_{<0} = 0
        z = x + 3.0 - np.mean(x + 3.0)
        design = np.zeros((z.size, order))
        for k in range(1, order + 1):
            design[k:, k - 1] = z[:-k]
        oracle = np.linalg.lstsq(design, z, rcond=None)[0]
        assert np.abs(np.array(fit.ar_coeffs) - oracle).max() <= 1e-12
        assert fit.innovation_variance == pytest.approx(np.mean((z - design @ oracle) ** 2), rel=1e-10)


def stationary_series(seed, p, q=0):
    """Seeded ARMA(p, q) series of 30 to 799 points with mean 2; ``sum |ar|
    < 0.95`` keeps every AR root outside the unit circle."""
    from scipy.signal import lfilter

    rng = np.random.default_rng(seed)
    ar = rng.uniform(-1.0, 1.0, p)
    ar *= rng.uniform(0.0, 0.95) / max(np.abs(ar).sum(), 1e-9)
    ma = rng.uniform(-0.8, 0.8, q)
    n = int(rng.integers(30, 800))
    return lfilter(np.r_[1.0, ma], np.r_[1.0, -ar], rng.standard_normal(n)) + 2.0


def test_ar_residuals_are_the_lag_designs_and_match_the_filter():
    # scipy's filter is the oracle: it ran the AR residuals before the
    # lag design took over, bit for bit at order 1, to round-off above
    from scipy.signal import lfilter

    for s in range(300):
        y = stationary_series(900 + s, 3)
        z = y - np.mean(y)
        for p in (1, 2, 3):
            coeffs, eps = tsfactor.forecast._ar_css(z, p)
            want = lfilter(np.r_[1.0, -coeffs], [1.0], z)
            if p == 1:
                assert np.array_equal(eps, want)
            sigma2, want_sigma2 = np.mean(eps**2), np.mean(want**2)
            assert abs(sigma2 - want_sigma2) <= 1e-15 * want_sigma2


def test_default_grid_orders_are_unchanged():
    # the orders fit_arma chose on these series when every candidate's
    # residuals came from the filter; series 14 picks (0, 2) at AIC -27.862
    # since its MA roots, of modulus 1.805, are read from 1 + ma1 z + ma2 z^2
    chosen = [fit_arma(stationary_series(s, s % 3, (s // 3) % 3)).order for s in range(16)]
    assert chosen == [
        (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (1, 2), (0, 2), (1, 2),
        (3, 0), (0, 0), (1, 0), (0, 3), (0, 1), (1, 1), (0, 2), (1, 1),
    ]


def test_an_invertible_ma2_is_fitted_on_its_own_polynomial():
    # 1 + 1.2 z + 0.5 z^2 has roots of modulus 1.41; 1 - 1.2 z - 0.5 z^2, the
    # AR polynomial's convention, has one of modulus 0.65
    for s in range(700, 705):
        rng = np.random.default_rng(s)
        eta = rng.standard_normal(2002)
        fit = fit_arma(eta[2:] + 1.2 * eta[1:-1] + 0.5 * eta[:-2], max_ar=0, max_ma=2)
        assert fit.order == (0, 2)
        assert np.allclose(fit.ma_coeffs, (1.2, 0.5), rtol=0.0, atol=0.1)


def test_ar1_full_grid_usually_recovers_the_coefficient():
    # AIC keeps a small overfitting probability by design, so ask for a
    # clear majority rather than unanimity.
    good_order = 0
    good_coef = 0
    for s in range(10):
        rng = np.random.default_rng(1000 + s)
        fit = fit_arma(ar1_series(rng, 2000, phi=0.8))
        good_order += fit.order == (1, 0)
        good_coef += fit.order[0] >= 1 and abs(fit.ar_coeffs[0] - 0.8) <= 0.05
    assert good_order >= 7
    assert good_coef >= 7


def test_ma1_selected_with_accurate_coefficient():
    for s in range(4):
        rng = np.random.default_rng(500 + s)
        eta = rng.standard_normal(2001)
        z = eta[1:] + 0.6 * eta[:-1]
        fit = fit_arma(z)
        assert fit.order == (0, 1)
        assert fit.ma_coeffs[0] == pytest.approx(0.6, abs=0.06)


def test_constant_like_series_recover_the_mean():
    rng = np.random.default_rng(3)
    near = 5.0 + 1e-6 * rng.standard_normal(200)
    fit = fit_arma(near)
    assert fit.intercept == pytest.approx(near.mean(), abs=1e-3)
    assert not fit.fallback_ar0
    flat = fit_arma(np.full(100, 2.5))
    assert flat.fallback_ar0
    assert flat.order == (0, 0)
    assert flat.innovation_variance > 0
    assert forecast_arma(flat, np.full(100, 2.5), 3) == pytest.approx(2.5)


def test_selected_aic_never_worse_than_constant_model():
    for s in range(3):
        rng = np.random.default_rng(50 + s)
        x = ar1_series(rng, 400, phi=0.7)
        assert fit_arma(x).aic <= fit_arma(x, max_ar=0, max_ma=0).aic


def test_arma_fit_rejects_inconsistent_fields():
    with pytest.raises(InvalidConfig):
        ArmaFit((1, 0), (), (), 0.0, 1.0, 0.0, np.zeros(1))
    with pytest.raises(InvalidConfig):
        ArmaFit((1, 0), (1.2,), (), 0.0, 1.0, 0.0, np.zeros(1))
    with pytest.raises(InvalidConfig):
        ArmaFit((0, 0), (), (), 0.0, 0.0, 0.0, np.zeros(1))


def test_a_degree_one_polynomial_is_decided_from_its_root_as_np_roots_decides():
    edge = 1.0 / (1.0 - 1e-6)  # |1/c| = _ROOT_MIN
    coeffs = [0.0, 0.3, 1.0, 1.2, 1e300, edge, *np.nextafter(edge, [0.0, 2.0])]
    coeffs += list(np.random.default_rng(4).uniform(0.99, 1.01, 200))
    for c in coeffs + [-c for c in coeffs]:
        roots = np.roots([-c, 1.0])  # empty at c = 0, so every root is outside
        want = bool(np.all(np.abs(roots) > 1.0 - 1e-6))
        assert tsfactor.forecast._roots_outside_unit_circle([c]) is want, c


# ------------------------------------------------------------ forecast_arma


def make_fit(ar=(), ma=(), intercept=0.0):
    return ArmaFit(
        order=(len(ar), len(ma)),
        ar_coeffs=tuple(ar),
        ma_coeffs=tuple(ma),
        intercept=intercept,
        innovation_variance=1.0,
        aic=0.0,
        residuals=np.zeros(1),
    )


def test_pure_ar1_forecast_is_exact_power_recursion():
    fit = make_fit(ar=(0.7,))
    hist = np.array([1.0, -2.0, 3.0])
    for h in (1, 2, 5):
        assert forecast_arma(fit, hist, h) == pytest.approx(0.7**h * 3.0, abs=1e-14)


def test_ar1_forecast_contracts_toward_the_mean():
    fit = make_fit(ar=(-0.85,), intercept=1.5)
    hist = np.array([0.3, 2.0, 4.0])
    for h in (1, 2, 3, 7):
        got = forecast_arma(fit, hist, h)
        assert abs(got - 1.5) <= 0.85**h * abs(4.0 - 1.5) + 1e-12


def test_constant_model_forecasts_the_intercept_at_all_horizons():
    fit = make_fit(intercept=-2.25)
    hist = np.array([5.0, 1.0, 0.0])
    for h in (1, 4, 10):
        assert forecast_arma(fit, hist, h) == -2.25


def oracle_forecast(ar, ma, intercept, hist, h):
    """Brute-force state recursion with zero presample values."""
    z = [float(v) - intercept for v in hist]
    n = len(z)
    eps = []
    for t in range(n):
        val = z[t]
        for i, c in enumerate(ar, start=1):
            if t - i >= 0:
                val -= c * z[t - i]
        for j, c in enumerate(ma, start=1):
            if t - j >= 0:
                val -= c * eps[t - j]
        eps.append(val)
    for s in range(h):
        t = n + s
        val = 0.0
        for i, c in enumerate(ar, start=1):
            if t - i >= 0:
                val += c * z[t - i]
        for j, c in enumerate(ma, start=1):
            if 0 <= t - j < n:
                val += c * eps[t - j]
        z.append(val)
    return intercept + z[-1]


def test_mixed_model_forecast_matches_state_recursion_oracle():
    rng = np.random.default_rng(8)
    hist = rng.standard_normal(60)
    cases = [
        ((0.6,), (0.4,), 0.7),
        ((0.5, -0.2), (0.3, 0.1), -1.2),
        ((), (0.9, -0.3), 0.0),
    ]
    for ar, ma, mu in cases:
        fit = make_fit(ar=ar, ma=ma, intercept=mu)
        for h in (1, 2, 6):
            got = forecast_arma(fit, hist, h)
            want = oracle_forecast(ar, ma, mu, hist, h)
            assert got == pytest.approx(want, abs=1e-10)


def test_only_ma_terms_rebuild_the_residuals(monkeypatch):
    calls = []
    residuals = tsfactor.forecast._css_residuals

    def counted(z, ar, ma):
        calls.append((ar.size, ma.size))
        return residuals(z, ar, ma)

    monkeypatch.setattr(tsfactor.forecast, "_css_residuals", counted)
    hist = np.random.default_rng(9).standard_normal(40)
    for ar, ma in (((0.5, -0.2), ()), ((), ()), ((0.6,), (0.4,))):
        for h in (1, 3):
            want = oracle_forecast(ar, ma, 0.3, hist, h)
            got = forecast_arma(make_fit(ar=ar, ma=ma, intercept=0.3), hist, h)
            assert got == pytest.approx(want, abs=1e-10)
    assert calls == [(1, 1)] * 2


def test_forecast_validates_inputs():
    fit = make_fit(ar=(0.5,))
    with pytest.raises(InvalidConfig):
        forecast_arma(fit, np.ones(5), 0)
    with pytest.raises(InvalidData):
        forecast_arma(fit, np.array([]), 1)
    with pytest.raises(InvalidData):
        forecast_arma(fit, np.array([1.0, np.inf]), 1)


# ---------------------------------------------------------------- metrics


def test_metrics_on_perfect_and_constant_error_hooks():
    truth = np.arange(12.0).reshape(3, 4)
    assert forecast_metrics(truth, truth) == (0.0, 0.0)
    mafe, msfe = forecast_metrics(truth + 0.5, truth)
    assert mafe == pytest.approx(0.5)
    assert msfe == pytest.approx(0.25)
    assert msfe == pytest.approx(mafe**2)  # equal errors only
    with pytest.raises(InvalidData):
        forecast_metrics(np.zeros(3), np.zeros(4))


def test_an_msfe_past_the_double_range_is_invalid_data():
    # each squared error would overflow, and so does their mean
    with pytest.raises(InvalidData, match="MSFE overflows"):
        forecast_metrics(np.full((2, 3), 1e160), np.zeros((2, 3)))
    # squares that would overflow while their mean does not
    big = np.zeros((8, 4))
    big[0, 0] = 2.0**513
    assert forecast_metrics(big, np.zeros((8, 4)))[1] == 2.0**1021


# ---------------------------------------------------------------- pipeline


def standardized(data):
    return TimePanel((data - data.mean(axis=0)) / data.std(axis=0))


def test_identity_loading_reduces_to_componentwise_arma():
    rng = np.random.default_rng(17)
    raw = np.column_stack([ar1_series(rng, 120, phi=0.6) for _ in range(4)])
    panel = standardized(raw)
    got = pipeline_forecast(
        panel, EstimatorConfig(method="cov"), r_hat=4, h=2, loading_override=np.eye(4)
    )
    want = np.array(
        [forecast_arma(fit_arma(panel.data[:, j]), panel.data[:, j], 2) for j in range(4)]
    )
    assert np.allclose(got, want, atol=1e-12)


def test_pipeline_prediction_lies_in_the_loading_space():
    rng = np.random.default_rng(29)
    x = ar1_series(rng, 150, phi=0.9)
    load = rng.uniform(-1, 1, size=8)
    panel = standardized(np.outer(x, load) + 0.2 * rng.standard_normal((150, 8)))
    cfg = EstimatorConfig(method="cov", r_fixed=1)
    yhat = pipeline_forecast(panel, cfg, r_hat=1, h=1)
    a_hat = estimate(panel, cfg).A_hat
    assert np.linalg.norm(yhat - a_hat @ (a_hat.T @ yhat)) <= 1e-10


def test_pipeline_validates_inputs():
    rng = np.random.default_rng(4)
    raw = TimePanel(5.0 + rng.standard_normal((60, 3)))
    cfg = EstimatorConfig(method="cov")
    with pytest.raises(PreconditionViolated):
        pipeline_forecast(raw, cfg, r_hat=1, h=1)
    panel = standardized(raw.data)
    with pytest.raises(InvalidConfig):
        pipeline_forecast(panel, cfg, r_hat=0, h=1)
    with pytest.raises(InvalidConfig):
        pipeline_forecast(panel, cfg, r_hat=1, h=0)
    with pytest.raises(InvalidConfig):
        pipeline_forecast(panel, cfg, r_hat=2, h=1, loading_override=np.eye(3))
    skewed = np.eye(3)[:, :2] + 0.1
    with pytest.raises(InvalidConfig):
        pipeline_forecast(panel, cfg, r_hat=2, h=1, loading_override=skewed)


def test_each_window_is_checked_standardized_once(monkeypatch):
    seen = []
    kernel = tsfactor.forecast._factor_forecast

    def recorded(panel, *args, **kwargs):
        seen.append(panel)  # keeps each window alive
        return kernel(panel, *args, **kwargs)

    def rechecked(*args, **kwargs):
        raise AssertionError("a window must not be checked again by pipeline_forecast")

    monkeypatch.setattr(tsfactor.forecast, "_factor_forecast", recorded)
    monkeypatch.setattr(tsfactor.forecast, "pipeline_forecast", rechecked)
    rng = np.random.default_rng(31)
    x = ar1_series(rng, 140, phi=0.8)
    y = np.outer(x, rng.uniform(-1, 1, size=6)) + rng.standard_normal((140, 6))
    methods = tuple(EstimatorConfig(method=m) for m in ("cov", "auto", "wauto"))
    rep = expanding_window_eval(TimePanel(y), methods, r_hat=1, h=1, n1=130)
    # the loop checks each window once, from its column means, and hands that
    # one panel to the forecast kernel in every method
    assert [panel.n for panel in seen] == [o for o in rep.origins for _ in methods]
    assert len({id(panel) for panel in seen}) == len(rep.origins)
    assert [res.n_failed for res in rep.results] == [0] * 4
    # a window whose means fail counts as failed in every method, unforecast
    seen.clear()
    y[:, 2] += 1e11  # centering leaves round-off above the 1e-6 mean threshold
    rep = expanding_window_eval(TimePanel(y), methods, r_hat=1, h=1, n1=130)
    assert [res.n_failed for res in rep.results] == [len(rep.origins)] * 3 + [0]
    assert seen == []
    # pipeline_forecast checks its panel on every call; no memo entry settles it
    monkeypatch.undo()
    raw = TimePanel(y)
    raw._memo["standardized"] = True
    for _ in range(2):
        with pytest.raises(PreconditionViolated):
            pipeline_forecast(raw, methods[0], r_hat=1, h=1)


# ------------------------------------------------------- expanding window


def test_strong_factor_panel_beats_zero_forecast():
    rng = np.random.default_rng(42)
    n, p = 240, 20
    x = ar1_series(rng, n, phi=0.9)
    load = rng.uniform(-1, 1, size=p)
    y = np.outer(x, load) + 0.3 * rng.standard_normal((n, p))
    rep = expanding_window_eval(
        TimePanel(y), (EstimatorConfig(method="cov"),), r_hat=1, h=1, n1=200
    )
    by = {r.label: r for r in rep.results}
    assert by["cov"].msfe < by[ZERO_BASELINE].msfe
    assert by["cov"].mafe < by[ZERO_BASELINE].mafe


def test_zero_baseline_mafe_matches_gaussian_moment():
    # |N(0,1)| has mean sqrt(2/pi) = 0.7979; the zero forecast on a
    # standardized white-noise panel must land on it.
    rng = np.random.default_rng(0)
    panel = TimePanel(rng.standard_normal((250, 50)))
    rep = expanding_window_eval(panel, (), r_hat=1, h=1, n1=200, standardize="global")
    zero = rep.results[-1]
    assert zero.label == ZERO_BASELINE
    assert zero.mafe == pytest.approx(np.sqrt(2 / np.pi), abs=0.02)


def test_report_shapes_and_determinism():
    rng = np.random.default_rng(11)
    x = ar1_series(rng, 160, phi=0.8)
    y = np.outer(x, rng.uniform(-1, 1, size=6)) + rng.standard_normal((160, 6))
    methods = (EstimatorConfig(method="cov"), EstimatorConfig(method="auto"))
    rep1 = expanding_window_eval(TimePanel(y), methods, r_hat=1, h=2, n1=120)
    rep2 = expanding_window_eval(TimePanel(y), methods, r_hat=1, h=2, n1=120)
    assert rep1.n2 == 40
    assert len(rep1.origins) == rep1.n2 - rep1.h + 1
    assert [r.label for r in rep1.results] == ["cov", "auto", ZERO_BASELINE]
    for a, b in zip(rep1.results, rep2.results):
        assert a.mafe == b.mafe and a.msfe == b.msfe
        assert np.array_equal(a.predictions, b.predictions)
        assert a.predictions.shape == (len(rep1.origins), 6)


def test_failing_method_counts_windows_and_keeps_others():
    rng = np.random.default_rng(23)
    x = ar1_series(rng, 150, phi=0.8)
    y = np.outer(x, rng.uniform(-1, 1, size=5)) + rng.standard_normal((150, 5))
    methods = (
        EstimatorConfig(method="cov"),
        EstimatorConfig(method="wauto", q=50),  # q exceeds p = 5 in every window
    )
    rep = expanding_window_eval(TimePanel(y), methods, r_hat=1, h=1, n1=130)
    by = {r.label: r for r in rep.results}
    n_windows = len(rep.origins)
    assert by["wauto"].n_failed == n_windows
    assert np.isnan(by["wauto"].mafe)
    assert np.isnan(by["wauto"].predictions).all()
    assert by["cov"].n_failed == 0
    assert np.isfinite(by["cov"].mafe)


def test_expanding_window_validates_arguments():
    rng = np.random.default_rng(2)
    panel = TimePanel(rng.standard_normal((100, 4)))
    cfgs = (EstimatorConfig(method="cov"),)
    with pytest.raises(InvalidConfig):
        expanding_window_eval(panel, cfgs, r_hat=1, h=1, n1=10)
    with pytest.raises(InvalidConfig):
        expanding_window_eval(panel, cfgs, r_hat=1, h=40, n1=80)
    with pytest.raises(InvalidConfig):
        expanding_window_eval(panel, cfgs, r_hat=1, h=1, n1=80, standardize="window")
    flat = np.ones((100, 2))
    flat[:, 1] = rng.standard_normal(100)
    with pytest.raises(InvalidData):
        expanding_window_eval(TimePanel(flat), cfgs, r_hat=1, h=1, n1=80)


def reference_report(y, methods, r_hat, h, n1, standardize, max_ar, max_ma):
    """Each origin through the public route: the training window standardized
    by numpy and handed to ``pipeline_forecast`` as a new panel."""
    y_eval = (y - y.mean(axis=0)) / y.std(axis=0) if standardize == "global" else y
    origins = range(n1, len(y) - h + 1)
    rows = {lab: [] for lab in [m.method for m in methods] + [ZERO_BASELINE]}
    for origin in origins:
        train = y_eval[:origin]
        mu, sd = train.mean(axis=0), train.std(axis=0)
        panel = TimePanel((train - mu) / sd)
        for cfg in methods:
            try:
                raw = pipeline_forecast(panel, cfg, r_hat, h, max_ar=max_ar, max_ma=max_ma)
                rows[cfg.method].append(mu + sd * raw)
            except TsfactorError:
                rows[cfg.method].append(np.full(y.shape[1], np.nan))
        rows[ZERO_BASELINE].append(mu)
    truth = np.stack([y_eval[origin + h - 1] for origin in origins])
    out = {}
    for lab, pred in rows.items():
        pred = np.stack(pred)
        good = ~np.isnan(pred).any(axis=1)
        err = pred[good] - truth[good]
        out[lab] = (pred, np.mean(np.abs(err)), np.mean(err**2), int((~good).sum()))
    return out


@pytest.mark.parametrize("standardize", ["train", "global"])
@pytest.mark.parametrize("max_ma", [0, 1], ids=["ar-grid", "ma-grid"])
@pytest.mark.parametrize("h, r_hat", [(1, 1), (2, 2)])
def test_windows_match_the_public_route_bit_for_bit(standardize, max_ma, h, r_hat):
    rng = np.random.default_rng(57)
    x = np.column_stack([ar1_series(rng, 110, phi=0.85), ar1_series(rng, 110, phi=-0.4)])
    y = x @ rng.uniform(-1, 1, (2, 7)) + rng.standard_normal((110, 7)) + 5.0
    y[:, 3] *= 40.0
    methods = tuple(EstimatorConfig(method=m, q=4) for m in ("cov", "auto", "wauto"))
    rep = expanding_window_eval(
        TimePanel(y), methods, r_hat=r_hat, h=h, n1=100,
        standardize=standardize, max_ar=2, max_ma=max_ma,
    )
    want = reference_report(y, methods, r_hat, h, 100, standardize, 2, max_ma)
    assert [res.label for res in rep.results] == list(want)
    for res in rep.results:
        pred, mafe, msfe, n_failed = want[res.label]
        assert np.array_equal(res.predictions, pred, equal_nan=True)
        assert (res.mafe, res.msfe, res.n_failed) == (mafe, msfe, n_failed)


def forecast_scale_panel():
    rng = np.random.default_rng(19)
    x = ar1_series(rng, 120, phi=0.8)
    return np.outer(x, rng.uniform(-1, 1, size=5)) + rng.standard_normal((120, 5))


def test_global_mode_reports_are_free_of_a_power_of_two_scale():
    # numpy's std overflows squaring data near 3e156, and the sds of data x 2^-44
    # fall below 1e-12; the statistics of the panel scaled by a power of two
    # are those of the panel at x 1
    y = forecast_scale_panel()
    methods = (EstimatorConfig(method="cov"), EstimatorConfig(method="wauto", q=3))
    one, *scaled = [
        expanding_window_eval(TimePanel(y * 2.0**j), methods, r_hat=1, h=1, n1=110,
                              standardize="global", max_ar=1, max_ma=0)
        for j in (0, 520, -44)
    ]
    for rep in scaled:
        for a, b in zip(one.results, rep.results):
            assert (a.label, a.mafe, a.msfe, a.n_failed) == (b.label, b.mafe, b.msfe, b.n_failed)
            assert np.array_equal(a.predictions, b.predictions)


@pytest.mark.parametrize("standardize", ["train", "global"])
def test_small_data_are_not_constant(standardize):
    # a column is constant when its sd is at most 1e-12 of its mean, so data
    # x 1e-13, whose sds are near 1e-13, forecast as the data at x 1 do
    y = forecast_scale_panel()
    methods = (EstimatorConfig(method="cov"), EstimatorConfig(method="wauto", q=3))
    one, small = (
        expanding_window_eval(TimePanel(y * s), methods, r_hat=1, h=1, n1=110,
                              standardize=standardize, max_ar=1, max_ma=0)
        for s in (1.0, 1e-13)
    )
    unit = 1e-13 if standardize == "train" else 1.0
    for a, b in zip(one.results, small.results):
        assert b.n_failed == a.n_failed == 0
        assert np.allclose(b.predictions, unit * a.predictions, rtol=1e-9, atol=0.0)
        assert b.msfe == pytest.approx(unit**2 * a.msfe, rel=1e-9)


@pytest.mark.parametrize("standardize", ["train", "global"])
@pytest.mark.parametrize("level", [0.0, 3e-200, 12345.678, 7e150])
def test_a_constant_column_is_constant_at_any_scale(standardize, level):
    # the round-off of its mean leaves a constant column an sd below 1e-15 of
    # its mean: up to 5e-12 at 12345.678 and 3e135 at 7e150
    y = forecast_scale_panel()
    y[:, 1] = level
    with pytest.raises(InvalidData, match="constant"):
        expanding_window_eval(TimePanel(y), (EstimatorConfig(method="cov"),), r_hat=1,
                              h=1, n1=110, standardize=standardize, max_ar=1, max_ma=0)


def test_train_mode_msfe_past_the_double_range_is_invalid_data():
    # the windows standardize without overflow; the errors in the data's
    # units near 1e160 have a mean square past the double range
    y = forecast_scale_panel() * 1e160
    with pytest.raises(InvalidData, match="MSFE overflows"):
        expanding_window_eval(TimePanel(y), (EstimatorConfig(method="cov"),), r_hat=1,
                              h=1, n1=110, standardize="train", max_ar=1, max_ma=0)


def test_report_invariants_are_enforced():
    ok = MethodForecast("cov", 0.1, 0.2, 0, np.zeros((3, 2)))
    with pytest.raises(InvalidConfig):
        ForecastReport(h=1, n1=5, n2=4, origins=(5, 6), results=(ok,))
    with pytest.raises(InvalidConfig):
        ForecastReport(
            h=1, n1=5, n2=4, origins=(5, 6, 7, 8),
            results=(MethodForecast("cov", 0.1, 0.2, 0, np.zeros((2, 2))),),
        )
    with pytest.raises(InvalidConfig):
        MethodForecast("cov", -0.1, 0.2, 0, np.zeros((3, 2)))
