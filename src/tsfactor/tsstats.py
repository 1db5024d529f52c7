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


def _in_units(values, e2: int, what: str):
    """``values * 2**e2``; an overflow raises ``InvalidData`` naming ``what``."""
    with np.errstate(over="ignore"):
        out = np.ldexp(values, e2)
    if not np.isfinite(out).all():
        raise InvalidData(f"{what} overflows: the data are too large")
    return out


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

    A panel memoizes what its fits share: demeaned and normalized copies,
    lag products and the lag-0 eigendecomposition.  Memo arrays are
    read-only; none refers to the panel.
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
            scaled = _scaled(arr)[0]  # std's squares of data * 2**-e stay in range
            if np.abs(scaled.mean(axis=0)).max() > 1e-10 * scaled.std(axis=0).max():
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
        panel._memo["demeaned"] = _built_panel(centered, panel.names)
    return panel._memo["demeaned"]


def _built_panel(data: np.ndarray, names: tuple[str, ...] | None = None) -> TimePanel:
    """A read-only demeaned panel of data the package centered itself, checked finite
    but not copied, nor held to a flagged panel's zero-mean check, which the mean's
    round-off can fail far from 0."""
    data = _as_float_matrix(data, "panel data")
    data.setflags(write=False)
    panel = object.__new__(TimePanel)
    vars(panel).update(data=data, names=names, demeaned=True, _memo={})
    return panel


class _Window(TimePanel):
    """The demeaned window ``c = (y * 2**-e - mu) / sd`` of a panel's leading rows y, held as
    the view y, uncopied, and mu and sd, given in units of ``2**e``.  ``lags``, its standardized
    lag products, or None, go to its memo, and it is then its own normalized rows, at exponent
    0.  Its products go through :func:`_row_products`, which forms them from y; ``data`` forms
    c in one new buffer, once, for any other reader."""

    def __init__(self, y: np.ndarray, e: int, mu: np.ndarray, sd: np.ndarray, lags):
        mu, sd = np.ldexp(mu, e), np.ldexp(sd, e)  # y is a view of checked, read-only data
        vars(self).update(rows=y, mu=mu, sd=sd, names=None, demeaned=True, _memo={})
        for arr in (mu, sd, *(lags or ())):
            arr.setflags(write=False)
        if lags is not None:
            covs = LagCovSet(lag0=lags[0], lags=tuple(lags[1:]), n=y.shape[0])
            self._memo.update(exponent=np.int64(0), lagcovs={covs.m: covs})

    @property
    def data(self) -> np.ndarray:
        if "data" not in self._memo:
            c = self.rows / self.sd
            c -= self.mu / self.sd
            c.setflags(write=False)
            self._memo["data"] = c
        return self._memo["data"]

    n = property(lambda self: self.rows.shape[0])
    p = property(lambda self: self.rows.shape[1])


def _row_products(panel: TimePanel, lo: int, hi: int, right=None, left=None):
    """``c @ right``, ``left' c`` or else ``||c||^2`` for the rows ``c = y[lo:hi]`` of a
    demeaned panel y.  A window, whose y stands for ``(v - mu) / sd`` on its view v of the
    panel's rows, forms ``v @ (right / sd) - (mu / sd) @ right``, ``(left' v - left' 1 mu') / sd``
    and ``n p`` less the squares of its rows outside lo..hi, as its sds make ``||y||^2 = n p``."""
    if not isinstance(panel, _Window):
        y = panel.data[lo:hi]
        return y @ right if right is not None else left.T @ y if left is not None else np.vdot(y, y)
    v, mu, sd = panel.rows[lo:hi], panel.mu, panel.sd
    if right is not None:
        return v @ (right / sd[:, None]) - (mu / sd) @ right
    if left is not None:
        return (left.T @ v - np.outer(left.sum(axis=0), mu)) / sd
    head, tail = (rows / sd - mu / sd for rows in (panel.rows[:lo], panel.rows[hi:]))
    return panel.n * panel.p - np.vdot(head, head) - np.vdot(tail, tail)


def _mean_product(a: np.ndarray, b: np.ndarray, count: int, what: str, e: int = 0) -> np.ndarray:
    """``a' b / count`` of data scaled by ``2**-e``; ``a' b`` overflowing in the
    data's units raises ``InvalidData`` naming ``what``, not numpy's warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = a.T @ b
        _in_units(np.abs(out).max(initial=0.0), 2 * e, what)
    return out / count


def sample_autocov(panel: TimePanel, m: int) -> LagCovSet:
    """Sample autocovariance matrices of a demeaned panel for lags 0..m.

    The lag-0 matrix is ``Y'Y / n`` (symmetrized); for ``k >= 1`` the
    lag-``k`` matrix averages ``y_t y_{t-k}'`` over the ``n - k``
    available pairs, i.e. divides by ``n - k``.  Each lag product and each
    returned set is made once per panel and kept read-only; a product that
    overflows in the data's units raises ``InvalidData``.

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
    sets = panel._memo.setdefault("lagcovs", {})  # m -> its LagCovSet, checked once
    if m not in sets:
        products = [sets[max(sets)].lag0, *sets[max(sets)].lags] if sets else []
        for k in range(len(products), m + 1):
            y, e = panel.data, panel._memo.get("exponent", 0)  # a normalized panel's 2**-e
            lag = _mean_product(y[k:], y[: n - k], n - k, f"lag-{k} autocovariance", e)
            lag = 0.5 * (lag + lag.T) if k == 0 else lag
            lag.setflags(write=False)
            products.append(lag)
        sets[m] = LagCovSet(lag0=products[0], lags=tuple(products[1 : m + 1]), n=n)
    return sets[m]


def _lag0_eigen(panel: TimePanel) -> EigenPairs:
    """Full ``sym_eigen`` of a demeaned panel's lag-0 covariance, computed
    once per panel and kept read-only."""
    if "lag0_eigen" not in panel._memo:
        pairs = sym_eigen(sample_autocov(panel, 0).lag0, panel.p)
        pairs.values.setflags(write=False)
        pairs.vectors.setflags(write=False)
        panel._memo["lag0_eigen"] = pairs
    return panel._memo["lag0_eigen"]


def _flips(vectors: np.ndarray) -> np.ndarray:
    """Whether each column's largest-magnitude entry is negative."""
    lead = np.argmax(np.abs(vectors), axis=0)  # argmax takes the lowest index on ties
    return vectors[lead, np.arange(vectors.shape[1])] < 0


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector signs so the largest-magnitude entry is >= 0."""
    signs = np.where(_flips(vectors), -1.0, 1.0)
    out = vectors.copy()
    out *= signs
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
    sym = np.subtract(mat, mat.T)  # the one p-by-p temporary besides eigh's output
    if np.abs(sym, out=sym).max() > 1e-10 * max(1.0, float(mat.max()), -float(mat.min())):
        raise PreconditionViolated("matrix is not symmetric within tolerance")
    np.add(mat, mat.T, out=sym)
    vals, vecs = np.linalg.eigh(np.multiply(sym, 0.5, out=sym))
    del sym
    order = np.argsort(vals)[::-1][:d]
    vecs = vecs[:, order]  # frees eigh's own before the signed copy
    return EigenPairs(values=vals[order], vectors=_fix_signs(vecs))


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
