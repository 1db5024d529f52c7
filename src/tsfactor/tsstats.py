"""Shared time-series statistics: panels, autocovariances, eigen tools.

This module owns the deterministic numeric conventions that everything
else builds on:

* sample autocovariance at lag ``k`` divides by ``n - k`` (by ``n`` for
  the lag-0 covariance), using the full-sample column means;
* symmetric eigendecompositions sort eigenvalues in descending order
  and fix each eigenvector's sign so that its entry of largest absolute
  value is non-negative (ties broken by the lowest row index);
* the distance between column spaces is the normalized projection
  metric, which is 0 for equal spans and 1 for orthogonal ones.

Keeping these choices in one place makes every downstream estimator
reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidData, InvalidLag, PreconditionViolated

__all__ = [
    "TimePanel",
    "LagCovSet",
    "EigenPairs",
    "demean",
    "sample_autocov",
    "sym_eigen",
    "subspace_distance",
]


def _scaled(x: np.ndarray) -> tuple[np.ndarray, int]:
    """``(x * 2**-e, e)``, e the binary exponent of ``max|x|``: exact, and the
    copy's products cannot overflow or underflow first (Higham 2002, ch. 2)."""
    e = int(np.frexp(np.abs(x).max(initial=0.0))[1])
    return np.ldexp(x, -e), e


def _as_float_matrix(data, what: str) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2:
        raise InvalidData(f"{what} must be a 2-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidData(f"{what} contains non-finite values")
    return arr


@dataclass(frozen=True)
class TimePanel:
    """An observed multivariate series: ``n`` time rows by ``p`` columns.

    Parameters
    ----------
    data : ndarray, shape (n, p)
        One row per time point, one column per component series.
    names : tuple of str, optional
        Column labels; defaults to ``v1 .. vp``.
    demeaned : bool
        True once column means have been removed (see :func:`demean`).

    A panel memoizes the moments its fits share: its demeaned copy, lag
    products, lag-0 eigendecomposition and ``estimate``'s row-space QR,
    and whether ``pipeline_forecast`` found it standardized.  Memo arrays
    are read-only; the memo never refers back to its panel.
    """

    data: np.ndarray
    names: tuple[str, ...] | None = None
    demeaned: bool = False
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = _as_float_matrix(self.data, "panel data")
        n, p = arr.shape
        if n < 2:
            raise InvalidData(f"panel needs at least 2 rows, got {n}")
        if p < 1:
            raise InvalidData("panel needs at least 1 column")
        if self.names is not None and len(self.names) != p:
            raise InvalidData(
                f"got {len(self.names)} column names for {p} columns"
            )
        if self.demeaned:
            mu = arr.mean(axis=0)
            with np.errstate(over="ignore", under="ignore"):
                std = float(arr.std(axis=0).max())
            if not 1e-150 < std < np.inf:
                # The squares inside std() left the normal range (data near
                # 1e-200 give 0): take it on data scaled by a power of two.
                scaled, e = _scaled(arr)
                std = float(np.ldexp(scaled.std(axis=0).max(), e))
            if np.abs(mu).max() > 1e-10 * std:
                raise InvalidData("panel flagged demeaned but column means are not 0")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class LagCovSet:
    """Sample lag-0 covariance plus autocovariances for lags 1..m."""

    lag0: np.ndarray
    lags: tuple[np.ndarray, ...]
    n: int

    def __post_init__(self):
        p = self.lag0.shape[0]
        if self.lag0.shape != (p, p):
            raise InvalidData("lag-0 covariance must be square")
        if np.abs(self.lag0 - self.lag0.T).max() > 1e-10 * max(1.0, np.abs(self.lag0).max()):
            raise InvalidData("lag-0 covariance must be symmetric")
        for k, mat in enumerate(self.lags, start=1):
            if mat.shape != (p, p):
                raise InvalidData(f"lag-{k} autocovariance has shape {mat.shape}, want {(p, p)}")

    @property
    def m(self) -> int:
        return len(self.lags)

    @property
    def p(self) -> int:
        return self.lag0.shape[0]


@dataclass(frozen=True)
class EigenPairs:
    """Top ``d`` eigenvalues (descending) and matching unit eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 1 or self.vectors.ndim != 2:
            raise InvalidData("eigenpairs need a 1-d value array and 2-d vector array")
        if self.vectors.shape[1] != self.values.shape[0]:
            raise InvalidData("eigenvalue/eigenvector count mismatch")
        if np.any(np.diff(self.values) > 1e-12 * max(1.0, abs(float(self.values[0])))):
            raise InvalidData("eigenvalues must be sorted in descending order")

    @property
    def d(self) -> int:
        return self.values.shape[0]


def demean(panel: TimePanel) -> TimePanel:
    """Remove the full-sample mean from every column.

    Idempotent: demeaning an already demeaned panel returns that panel.
    Uses each column's mean over all ``n`` rows; the demeaned panel is
    built once per source panel.
    """
    if panel.demeaned:
        return panel
    if "demeaned" not in panel._memo:
        centered = panel.data - panel.data.mean(axis=0)
        panel._memo["demeaned"] = TimePanel(centered, names=panel.names, demeaned=True)
    return panel._memo["demeaned"]


def _mean_product(a: np.ndarray, b: np.ndarray, count: int, what: str) -> np.ndarray:
    """``a' b / count``; an overflow raises ``InvalidData`` naming ``what``, not numpy's warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = a.T @ b / count
    if not np.isfinite(out).all():
        raise InvalidData(f"{what} overflows: the data are too large")
    return out


def sample_autocov(panel: TimePanel, m: int) -> LagCovSet:
    """Sample autocovariance matrices of a demeaned panel for lags 0..m.

    The lag-0 matrix is ``Y'Y / n`` (symmetrized); for ``k >= 1`` the
    lag-``k`` matrix averages ``y_t y_{t-k}'`` over the ``n - k``
    available pairs, i.e. divides by ``n - k``.  Each lag product and each
    returned set is made once per panel and kept read-only; a product that
    overflows raises ``InvalidData``.

    Parameters
    ----------
    panel : TimePanel
        Must already be demeaned (see :func:`demean`).
    m : int
        Largest lag, ``0 <= m < n``.

    Returns
    -------
    LagCovSet
    """
    if not panel.demeaned:
        raise PreconditionViolated("sample_autocov requires a demeaned panel")
    if m < 0:
        raise InvalidLag(f"lag count must be non-negative, got {m}")
    n = panel.n
    if m >= n:
        raise InvalidLag(f"lag count {m} must be smaller than the sample size {n}")
    y = panel.data
    sets = panel._memo.setdefault("lagcovs", {})  # m -> its LagCovSet, checked once
    if m not in sets:
        products = [sets[max(sets)].lag0, *sets[max(sets)].lags] if sets else []
        for k in range(len(products), m + 1):
            lag = _mean_product(y[k:], y[: n - k], n - k, f"lag-{k} autocovariance")
            lag = 0.5 * (lag + lag.T) if k == 0 else lag
            lag.setflags(write=False)
            products.append(lag)
        sets[m] = LagCovSet(lag0=products[0], lags=tuple(products[1 : m + 1]), n=n)
    return sets[m]


def _lag0_eigen(panel: TimePanel) -> EigenPairs:
    """Full ``sym_eigen`` of a demeaned panel's lag-0 covariance, computed
    once per panel and kept read-only.  It runs on the covariance scaled by
    a power of two (:func:`_scaled`), which LAPACK leaves unscaled, so the
    vectors do not depend on the data's scale and the values scale exactly."""
    if "lag0_eigen" not in panel._memo:
        scaled, e = _scaled(sample_autocov(panel, 0).lag0)
        pairs = sym_eigen(scaled, panel.p)
        with np.errstate(over="ignore"):
            values = np.ldexp(pairs.values, e)
        if not np.isfinite(values).all():
            raise InvalidData("lag-0 spectrum overflows: the data are too large")
        pairs = EigenPairs(values=values, vectors=pairs.vectors)
        pairs.values.setflags(write=False)
        pairs.vectors.setflags(write=False)
        panel._memo["lag0_eigen"] = pairs
    return panel._memo["lag0_eigen"]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector signs so the largest-magnitude entry is >= 0."""
    out = vectors.copy()
    lead = np.argmax(np.abs(out), axis=0)  # argmax takes the lowest index on ties
    out[:, out[lead, np.arange(out.shape[1])] < 0] *= -1.0
    return out


def sym_eigen(mat: np.ndarray, d: int) -> EigenPairs:
    """Top-``d`` eigenpairs of a symmetric matrix, deterministically signed.

    The input must be symmetric up to a 1e-10 relative tolerance; it is
    symmetrized exactly before decomposition so that round-off in the
    caller cannot leak into the result.
    """
    mat = _as_float_matrix(mat, "matrix")
    p = mat.shape[0]
    if mat.shape != (p, p):
        raise InvalidData(f"matrix must be square, got shape {mat.shape}")
    if not 1 <= d <= p:
        raise InvalidData(f"d must be in [1, {p}], got {d}")
    scale = max(1.0, float(np.abs(mat).max()))
    if np.abs(mat - mat.T).max() > 1e-10 * scale:
        raise PreconditionViolated("matrix is not symmetric within tolerance")
    sym = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(sym)
    order = np.argsort(vals)[::-1][:d]
    return EigenPairs(values=vals[order], vectors=_fix_signs(vecs[:, order]))


def subspace_distance(k1: np.ndarray, k2: np.ndarray) -> float:
    """Distance between the column spaces of two orthonormal matrices.

    Computes ``sqrt(1 - tr(K1 K1' K2 K2') / max(q1, q2))``, clipped at 0
    before the square root so round-off cannot produce NaN.  Equal spans
    give 0; orthogonal spans give 1.  Both inputs must have orthonormal
    columns (checked to 1e-8).
    """
    k1 = _as_float_matrix(k1, "subspace basis")
    k2 = _as_float_matrix(k2, "subspace basis")
    if k1.shape[0] != k2.shape[0]:
        raise InvalidData("subspace bases must share their ambient dimension")
    for mat in (k1, k2):
        gram = mat.T @ mat
        if np.abs(gram - np.eye(mat.shape[1])).max() > 1e-8:
            raise PreconditionViolated("subspace basis columns are not orthonormal")
    # With orthonormal columns, tr(K1 K1' K2 K2') = q_small - ||(I - P_big) K_small||_F^2,
    # so the radicand equals (q_max - q_small + ||resid||^2) / q_max.  Evaluating the
    # residual directly avoids the catastrophic cancellation of 1 - overlap/q_max
    # when the spans (nearly) coincide.
    small, big = (k1, k2) if k1.shape[1] <= k2.shape[1] else (k2, k1)
    qmin, qmax = small.shape[1], big.shape[1]
    resid = small - big @ (big.T @ small)
    radicand = (qmax - qmin + float(np.sum(resid**2))) / qmax
    return float(np.sqrt(max(0.0, min(1.0, radicand))))
