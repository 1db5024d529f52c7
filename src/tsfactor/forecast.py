"""Factor-based forecasting for high-dimensional panels.

The pipeline has four steps: estimate a loading matrix on the training
window, project the panel onto the estimated factor space, forecast each
factor series with an ARMA model selected by AIC over a bounded order
grid, and map the factor forecasts back to the panel.  An expanding
window driver evaluates competing estimators by mean absolute and mean
squared forecast error against a zero-forecast baseline.

ARMA fitting minimizes the conditional sum of squares with zero
presample values.  A pure AR order makes it linear, solved in closed
form on the zero-padded lag design; an order with an MA part starts from
the Hannan-Rissanen two-stage regression and is refined by
Levenberg-Marquardt.  Everything here is deterministic; no random
numbers are drawn.

The driver prepares each window once.  Every mean and sd is taken on the
panel scaled once by a power of two, which is exact: no square
overflows, and a column whose sd is at most 1e-12 of its mean is
constant at any scale.  Each window is standardized in one new buffer,
so its sds are 1 and its column means settle :func:`pipeline_forecast`'s
check: a window that passes goes uncopied to the forecast kernel they
share; a failing one fails in every method.  An MSFE past the double
range (errors near 1e154 and up) raises ``InvalidData``.

scipy is imported only where an order with an MA part is fitted or
filtered: :func:`least_squares` and :func:`_css_residuals` import it on
their first call.  A pure AR order takes its residuals from its own lag
design, so AR-only fits and forecasts, and ``import tsfactor``, never
load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import InvalidConfig, InvalidData, PreconditionViolated, TsfactorError
from .factor import EstimatorConfig, _method_labels, estimate
from .tsstats import TimePanel, _built_panel, _in_units, _scaled

__all__ = [
    "ArmaFit",
    "MethodForecast",
    "ForecastReport",
    "fit_arma",
    "forecast_arma",
    "forecast_metrics",
    "pipeline_forecast",
    "expanding_window_eval",
    "ZERO_BASELINE",
]

ZERO_BASELINE = "zero"

_ROOT_MIN = 1.0 - 1e-6  # a stationary or invertible polynomial's roots are farther out
_COMMON_TOL = 0.12  # the inverse-root distance below which an AR and an MA factor cancel
_MIN_SERIES = 30
_MEAN_TOL = 1e-6  # the largest column mean a standardized panel may have


@dataclass(frozen=True)
class ArmaFit:
    """A fitted ARMA(p, q) model in mean form.

    The model is ``y_t - c = sum(ar * (y_lags - c)) + sum(ma * eps_lags)
    + eps_t`` with intercept ``c``.  ``fallback_ar0`` marks the rescue
    path taken when every candidate on the order grid was degenerate:
    the returned model is then mean-only with a floored innovation
    variance.
    """

    order: tuple[int, int]
    ar_coeffs: tuple[float, ...]
    ma_coeffs: tuple[float, ...]
    intercept: float
    innovation_variance: float
    aic: float
    residuals: np.ndarray = field(repr=False, compare=False)
    fallback_ar0: bool = False

    def __post_init__(self):
        if self.order != (len(self.ar_coeffs), len(self.ma_coeffs)):
            raise InvalidConfig("order must match the coefficient counts")
        if not self.innovation_variance > 0:
            raise InvalidConfig("innovation variance must be positive")
        if not _roots_outside_unit_circle(self.ar_coeffs):
            raise InvalidConfig("AR polynomial must be stationary")


def _roots(c: np.ndarray) -> np.ndarray:
    """Roots of ``1 - c1 z - ... - ck z^k``; at degree 1 ``1/c`` (none at c = 0, as
    ``np.roots`` gives), in Python floats, where a subnormal c gives inf unwarned."""
    if c.size > 1:
        return np.roots(np.r_[-c[::-1], 1.0])
    return np.array([1.0 / float(c[0])] if c.size and c[0] else [])


def _roots_outside_unit_circle(coeffs) -> bool:
    """True when 1 - c1 z - ... - ck z^k has all roots outside |z|=1."""
    c = np.asarray(coeffs, dtype=float)
    return bool(np.isfinite(c).all()) and all(abs(r) > _ROOT_MIN for r in _roots(c))


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``, imported on the first call."""
    from scipy.optimize import least_squares

    return least_squares(*args, **kwargs)


def _css_residuals(z: np.ndarray, ar: np.ndarray, ma: np.ndarray) -> np.ndarray:
    """Conditional residuals of an order with an MA part, with zero
    presample observations and shocks."""
    from scipy.signal import lfilter

    eps = lfilter(np.r_[1.0, -ar], np.r_[1.0, ma], z)
    return np.nan_to_num(eps, nan=1e6, posinf=1e6, neginf=-1e6)


def _hannan_rissanen_start(z: np.ndarray, p: int, q: int) -> np.ndarray:
    """Two-stage least-squares initial values for (ar, ma)."""
    n = z.shape[0]
    long_order = min(max(8, p + q, int(round(10 * math.log10(n)))), n // 4)
    lag_cols = [z[long_order - k : n - k] for k in range(1, long_order + 1)]
    design = np.column_stack(lag_cols)
    coef, *_ = np.linalg.lstsq(design, z[long_order:], rcond=None)
    ehat = np.zeros(n)
    ehat[long_order:] = z[long_order:] - design @ coef
    start = max(p, long_order + q)
    cols = [z[start - k : n - k] for k in range(1, p + 1)]
    cols += [ehat[start - k : n - k] for k in range(1, q + 1)]
    x0, *_ = np.linalg.lstsq(np.column_stack(cols), z[start:], rcond=None)
    return np.clip(x0, -0.99, 0.99)


def _ar_css(z: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """AR(p) coefficients minimizing the zero-presample conditional sum of
    squares, and their residuals: the least-squares fit of z on its lags,
    zero-padded at the start."""
    design = np.zeros((z.size, p))
    for k in range(1, p + 1):
        design[k:, k - 1] = z[:-k]
    coeffs = np.linalg.lstsq(design, z, rcond=None)[0]
    return coeffs, z - design @ coeffs


def fit_arma(series, max_ar: int = 3, max_ma: int = 3) -> ArmaFit:
    """Select and fit an ARMA model by AIC over a bounded order grid.

    Every order pair up to ``(max_ar, max_ma)`` is fitted by conditional
    least squares: a pure AR order in closed form, an order with an MA
    part from the Hannan-Rissanen regressions refined by
    Levenberg-Marquardt.  A candidate is discarded when its roots are
    unstable, an AR root nearly cancels an MA root, its highest-lag
    coefficient is within three standard errors (``3/sqrt(n)``) of zero —
    the nested model is always on the grid — or its residual variance is
    degenerate.  The winner minimizes ``n*log(sigma2) + 2*(p + q + 1)``;
    ties keep the earlier (smaller) order.  If no candidate survives (a
    constant series, for example), the mean-only model is returned with
    ``fallback_ar0``.
    """
    y = np.asarray(series, dtype=float).ravel()
    if y.shape[0] < _MIN_SERIES:
        raise InvalidData(f"series must have at least {_MIN_SERIES} points, got {y.shape[0]}")
    if not np.all(np.isfinite(y)):
        raise InvalidData("series contains non-finite values")
    if max_ar < 0 or max_ma < 0:
        raise InvalidConfig("order caps must be >= 0")
    n = y.shape[0]
    mu = float(np.mean(y))
    z = y - mu
    lead_tol = 3.0 / math.sqrt(n)
    best: Optional[tuple] = None  # (aic, order, ar, ma, sigma2, residuals) of the winner
    for p in range(max_ar + 1):
        for q in range(max_ma + 1):
            if p == 0 and q == 0:
                eps, ar, ma = z.copy(), np.empty(0), np.empty(0)
            else:
                if q == 0:
                    x, eps = _ar_css(z, p)
                else:
                    x = least_squares(
                        lambda v: _css_residuals(z, v[:p], v[p:]),
                        _hannan_rissanen_start(z, p, q),
                        method="lm",
                        max_nfev=300,
                    ).x
                ar, ma = x[:p], x[p:]
                if not np.isfinite(x).all() or (
                    (ar.size and abs(ar[-1]) < lead_tol) or (ma.size and abs(ma[-1]) < lead_tol)
                ):
                    continue
                # 1 - ar1 z - ... and 1 + ma1 z + ... (Box et al. 2015, ch. 3); near-cancelling
                # factors have close inverse roots however far outside the circle they sit
                roots_ar, roots_ma = _roots(ar), _roots(-ma)
                if not all(abs(r) > _ROOT_MIN for r in (*roots_ar, *roots_ma)) or (
                    roots_ar.size and roots_ma.size
                    and np.min(np.abs(1.0 / roots_ar[:, None] - 1.0 / roots_ma)) < _COMMON_TOL
                ):
                    continue
                if q:
                    eps = _css_residuals(z, ar, ma)
            sigma2 = float(np.mean(eps**2))
            if not np.isfinite(sigma2) or sigma2 < 1e-300:
                continue
            aic = n * math.log(sigma2) + 2.0 * (p + q + 1)
            if best is None or aic < best[0]:
                best = (aic, (p, q), ar, ma, sigma2, eps)
    if best is None:
        return ArmaFit(
            order=(0, 0),
            ar_coeffs=(),
            ma_coeffs=(),
            intercept=mu,
            innovation_variance=1e-12,
            aic=float("inf"),
            residuals=z,
            fallback_ar0=True,
        )
    aic, order, ar, ma, sigma2, eps = best
    return ArmaFit(order, tuple(map(float, ar)), tuple(map(float, ma)), mu, sigma2, aic, eps)


def forecast_arma(fit: ArmaFit, history, h: int) -> float:
    """Recursive h-step prediction with future shocks set to zero.

    When the fit has MA terms, residuals over the history are rebuilt
    with the same conditional recursion used in fitting.  The ARMA
    difference equation is then iterated forward, substituting
    predictions for unobserved values and zero for unobserved shocks.
    """
    if h < 1:
        raise InvalidConfig(f"horizon must be >= 1, got {h}")
    y = np.asarray(history, dtype=float).ravel()
    if y.shape[0] < 1:
        raise InvalidData("history must not be empty")
    if not np.all(np.isfinite(y)):
        raise InvalidData("history contains non-finite values")
    ar = np.asarray(fit.ar_coeffs, dtype=float)
    ma = np.asarray(fit.ma_coeffs, dtype=float)
    z = y - fit.intercept
    eps = _css_residuals(z, ar, ma) if ma.size else None  # only MA terms read it
    n = z.shape[0]
    zext = np.concatenate([z, np.zeros(h)])
    for s in range(h):
        t = n + s
        val = 0.0
        for i, c in enumerate(ar, start=1):
            if t - i >= 0:
                val += c * zext[t - i]
        for j, c in enumerate(ma, start=1):
            if 0 <= t - j < n:
                val += c * eps[t - j]
        zext[t] = val
    return float(fit.intercept + zext[n + h - 1])


def forecast_metrics(predictions, truths) -> tuple[float, float]:
    """Mean absolute and mean squared error over all entries."""
    pred = np.asarray(predictions, dtype=float)
    true = np.asarray(truths, dtype=float)
    if pred.shape != true.shape or pred.size == 0:
        raise InvalidData("predictions and truths must share a nonempty shape")
    if not (np.all(np.isfinite(pred)) and np.all(np.isfinite(true))):
        raise InvalidData("metrics need finite inputs")
    err = pred - true
    scaled, e = _scaled(err)  # the squares of err * 2**-e cannot overflow
    msfe = _in_units(np.mean(scaled * scaled), 2 * e, "MSFE")
    return float(np.mean(np.abs(err))), float(msfe)


def _standardized(y: np.ndarray, e: int, what: str):
    """``(c, mu, sd)`` for data ``y * 2**e``: one new buffer c holding the columns
    standardized, and their means and sds (``np.std``'s own arithmetic) in the
    data's units.  An sd of at most 1e-12 |mean|, or 0, raises ``InvalidData``
    naming ``what``: a constant column's round-off stays below 1e-15 |mean|."""
    mu = y.mean(axis=0)
    c = y - mu
    sd = np.sqrt(np.sum(c * c, axis=0) / len(c))
    if np.any(sd <= 1e-12 * np.abs(mu)):  # holds at sd = 0 whatever the mean
        raise InvalidData(f"{what} is constant; cannot standardize")
    c /= sd
    return c, np.ldexp(mu, e), np.ldexp(sd, e)


def pipeline_forecast(
    panel: TimePanel,
    cfg: EstimatorConfig,
    r_hat: int,
    h: int,
    loading_override: Optional[np.ndarray] = None,
    max_ar: int = 3,
    max_ma: int = 3,
) -> np.ndarray:
    """Forecast all panel series h steps ahead through the factor space.

    The panel must already be standardized (zero mean, unit variance per
    column); every call checks it.  The loading matrix is estimated with
    the factor count pinned at ``r_hat``; ``loading_override`` substitutes
    a known orthonormal loading and skips estimation (used to reduce the
    pipeline to componentwise ARMA forecasting when the override is the
    identity).  ``max_ar``/``max_ma`` bound the per-factor order search.
    The returned vector lies in the column space of the loading used.
    """
    if h < 1:
        raise InvalidConfig(f"horizon must be >= 1, got {h}")
    if not 1 <= r_hat <= panel.p:
        raise InvalidConfig(f"r_hat must be in [1, p] = [1, {panel.p}], got {r_hat}")
    scaled, e = _scaled(panel.data)  # the moments of data * 2**-e cannot overflow
    if np.max(np.abs(np.ldexp(scaled.mean(axis=0), e))) > _MEAN_TOL:
        raise PreconditionViolated("panel must be standardized: column means are not 0")
    if np.max(np.abs(np.ldexp(scaled.std(axis=0), e) - 1.0)) > 1e-3:
        raise PreconditionViolated("panel must be standardized: column sds are not 1")
    a_hat = loading_override
    if a_hat is not None:
        a_hat = np.asarray(a_hat, dtype=float)
        if a_hat.shape != (panel.p, r_hat):
            raise InvalidConfig(
                f"loading override must be {panel.p}x{r_hat}, got {a_hat.shape}"
            )
        if not np.allclose(a_hat.T @ a_hat, np.eye(r_hat), atol=1e-6):
            raise InvalidConfig("loading override must have orthonormal columns")
    return _factor_forecast(panel, cfg, r_hat, h, max_ar, max_ma, a_hat)


def _factor_forecast(
    panel: TimePanel, cfg: EstimatorConfig, r_hat: int, h: int, max_ar: int, max_ma: int,
    a_hat: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The forecast of a standardized panel: estimate with r fixed at ``r_hat``
    unless a loading ``a_hat`` is given, project, and fit and forecast each factor."""
    if a_hat is None:
        a_hat = estimate(panel, replace(cfg, r_fixed=r_hat)).A_hat
    factors = panel.data @ a_hat
    ahead = np.empty(r_hat)
    for j in range(r_hat):
        fit = fit_arma(factors[:, j], max_ar=max_ar, max_ma=max_ma)
        ahead[j] = forecast_arma(fit, factors[:, j], h)
    return a_hat @ ahead


@dataclass(frozen=True)
class MethodForecast:
    """Expanding-window forecasts and error metrics for one method.

    ``predictions`` has one row per window; rows for failed windows are
    NaN and excluded from the metrics.
    """

    label: str
    mafe: float
    msfe: float
    n_failed: int
    predictions: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        ok = self.n_failed < self.predictions.shape[0]
        if ok and not (self.mafe >= 0 and self.msfe >= 0):
            raise InvalidConfig("error metrics must be nonnegative")


@dataclass(frozen=True)
class ForecastReport:
    """Out-of-sample comparison of estimators on one panel.

    Forecast origins run from ``n1`` to ``n - h``; there are
    ``n2 - h + 1`` windows with ``n2 = n - n1``.  ``results`` always
    ends with the zero-forecast baseline.
    """

    h: int
    n1: int
    n2: int
    origins: tuple[int, ...]
    results: tuple[MethodForecast, ...]

    def __post_init__(self):
        expect = self.n2 - self.h + 1
        if len(self.origins) != expect:
            raise InvalidConfig("window count must equal n2 - h + 1")
        for res in self.results:
            if res.predictions.shape[0] != expect:
                raise InvalidConfig("every method needs one prediction row per window")


def expanding_window_eval(
    panel: TimePanel,
    methods: tuple[EstimatorConfig, ...],
    r_hat: int,
    h: int,
    n1: int,
    standardize: str = "train",
    max_ar: int = 3,
    max_ma: int = 3,
) -> ForecastReport:
    """Compare estimators by expanding-window forecast errors.

    For each origin T from ``n1`` to ``n - h`` the panel rows before T
    are the training window; every method forecasts row ``T + h - 1``
    (0-based) and errors accumulate into MAFE and MSFE.

    ``standardize`` controls the error scale.  With ``"train"`` errors
    are in original units; with ``"global"`` the whole panel is
    standardized once first, so all series share one scale — the
    convention used in published comparison tables (the look-ahead
    affects only the units).  In both modes each training window is
    additionally standardized by its own statistics before estimation
    and the prediction is mapped back, so the forecasts themselves never
    peek past the origin.  The zero-forecast baseline predicts the
    training mean, i.e. zero on the window-standardized scale.
    ``methods`` may be empty to evaluate the baseline alone;
    ``max_ar``/``max_ma`` bound the per-factor order search.
    """
    if standardize not in ("train", "global"):
        raise InvalidConfig("standardize must be 'train' or 'global'")
    if h < 1:
        raise InvalidConfig(f"horizon must be >= 1, got {h}")
    if n1 < _MIN_SERIES:
        raise InvalidConfig(f"n1 must be >= {_MIN_SERIES} so factor models can be fit")
    if n1 + h > panel.n:
        raise InvalidConfig(f"need n1 + h <= n, got n1={n1}, h={h}, n={panel.n}")
    n, p = panel.n, panel.p
    y, e = _scaled(panel.data)  # every mean and sd is taken on data * 2**-e
    y_eval = panel.data
    if standardize == "global":
        y = y_eval = _standardized(y, e, "a panel column")[0]
        e = 0
    labels = _method_labels(tuple(methods)) + [ZERO_BASELINE]
    origins = tuple(range(n1, n - h + 1))
    n_windows = len(origins)
    preds = {lab: np.full((n_windows, p), np.nan) for lab in labels}
    fails = {lab: 0 for lab in labels}
    for w, origin in enumerate(origins):
        strain, mu_t, sd_t = _standardized(y[:origin], e, "a training column")
        preds[ZERO_BASELINE][w] = mu_t
        # its sds are 1 by construction, so its column means settle pipeline_forecast's
        # check; a window that fails them fails in every method
        if np.max(np.abs(strain.mean(axis=0))) > _MEAN_TOL:
            for lab in labels[:-1]:
                fails[lab] += 1
            continue
        train_panel = _built_panel(strain, demeaned=False)
        for cfg, lab in zip(methods, labels):
            try:
                raw = _factor_forecast(train_panel, cfg, r_hat, h, max_ar, max_ma)
                preds[lab][w] = mu_t + sd_t * raw
            except TsfactorError:
                fails[lab] += 1
    truth = np.stack([y_eval[origin + h - 1] for origin in origins])
    results = []
    for lab in labels:
        good = ~np.isnan(preds[lab]).any(axis=1)
        if good.any():
            mafe, msfe = forecast_metrics(preds[lab][good], truth[good])
        else:
            mafe = msfe = float("nan")
        results.append(
            MethodForecast(
                label=lab,
                mafe=mafe,
                msfe=msfe,
                n_failed=fails[lab],
                predictions=preds[lab],
            )
        )
    return ForecastReport(
        h=h, n1=n1, n2=n - n1, origins=origins, results=tuple(results)
    )
