"""Generalized BIC selection of the projection dimension q.

For each candidate q the panel is regressed, one lag at a time, on its
own q-dimensional covariance projection under a rank constraint; the
residual mass trades off against a parameter-count penalty

    BIC_k(q) = p*n*log L_k(q) + C * d_k(q) * log(p*n),

where ``L_k(q)`` is the average squared residual of the rank-``r_hat``
fit at lag k and ``d_k(q) = (p+q)*r_hat - r_hat*(r_hat+1)/2`` counts the
free parameters of that fit.  The factor count ``r_hat`` is re-selected
at every candidate q by the eigenvalue-ratio rule, and the winning q
minimizes the total over lags k = 1..m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, InvalidConfig
from .factor import (
    EstimatorConfig,
    _Q_CAP,
    _gram_cross,
    _half_weighted,
    _lag_fit,
    _rank_q_weight,
    _scaled,
    _unscale,
    estimate,
    select_r,
)
from .tsstats import EigenPairs, LagCovSet, TimePanel

__all__ = ["BicConfig", "BicTrace", "select_q"]


@dataclass(frozen=True)
class BicConfig:
    """Penalty constant C, candidate ceiling q0, and lag count m."""

    C: float = 0.2
    q0: int = 15
    m: int = 2

    def __post_init__(self):
        if self.C <= 0:
            raise InvalidConfig(f"penalty constant C must be positive, got {self.C}")
        if self.q0 < 3:
            raise InvalidConfig(f"q0 must be at least 3, got {self.q0}")
        if self.m < 1:
            raise InvalidConfig(f"m must be >= 1, got {self.m}")


@dataclass(frozen=True)
class BicTrace:
    """Everything the q scan computed, for reporting and auditing.

    ``per_lag_bic[k-1][i]`` is BIC_k at ``candidates[i]``; ``per_lag_L``
    and ``per_lag_d`` store the residual means and parameter counts the
    BIC values were assembled from; ``r_hat_per_candidate`` records the
    rank the ratio rule picked at each q.
    """

    candidates: tuple[int, ...]
    per_lag_bic: np.ndarray
    totals: np.ndarray
    q_hat: int
    r_bar: int
    per_lag_L: np.ndarray
    per_lag_d: np.ndarray
    r_hat_per_candidate: tuple[int, ...]

    def __post_init__(self):
        if self.q_hat not in self.candidates:
            raise InvalidConfig("selected q is not among the candidates")
        i = self.candidates.index(self.q_hat)
        if not np.all(self.totals[i] <= self.totals):
            raise InvalidConfig("selected q does not minimize the BIC totals")


def _bic_value(p: int, n: int, L: float, d: int, C: float) -> float:
    """Assemble one BIC value; an exact fit (L = 0) maps to -inf."""
    if L <= 0.0:
        return -math.inf
    return p * n * math.log(L) + C * d * math.log(p * n)


def _param_count(p: int, q: int, r: int) -> int:
    return (p + q) * r - r * (r + 1) // 2


def _default_q0(n: int, p: int, m: int) -> int:
    """Default scan ceiling: 15, below min(p, n), and no more than the
    n - m rows of the lag-m regression, so every candidate q is solvable."""
    return min(_Q_CAP, p - 1, n - m)


def select_q(panel: TimePanel, cfg: BicConfig, est_cfg: EstimatorConfig) -> BicTrace:
    """Scan q over ``(r_bar, q0]`` and pick the BIC minimizer.

    ``r_bar`` is the ratio-rule factor count at the ceiling ``q0``; only
    q values that leave room for at least that many factors compete.
    Ties go to the smallest q.  The returned trace carries the full BIC
    surface; determinism is bit-for-bit for identical inputs.

    This is the ``bic_trace`` of a ``wauto`` :func:`~tsfactor.factor.estimate`
    with ``q="auto"``, ``m = cfg.m`` and ``est_cfg``'s offset scale, so
    the scan runs in the panel's row space when p > n.
    """
    est = EstimatorConfig(method="wauto", m=cfg.m, vartheta_scale=est_cfg.vartheta_scale)
    return estimate(panel, est, cfg).bic_trace


def _scan(
    y: np.ndarray, p: int, covs: LagCovSet, lag0: EigenPairs, cfg: BicConfig, vartheta: float
) -> BicTrace:
    """The q scan behind :func:`select_q`, run by :func:`~tsfactor.factor.estimate`
    on a demeaned panel ``y`` with at least ``cfg.m`` lags in ``covs`` and
    the full eigendecomposition ``lag0`` of ``covs.lag0``.  ``p`` counts
    the series, which ``y`` holds in row-space coordinates when p > n."""
    n = y.shape[0]
    if cfg.q0 > min(p, n) - 1:
        raise InvalidConfig(
            f"q0={cfg.q0} must be at most min(p, n) - 1 = {min(p, n) - 1}"
        )
    w0 = _rank_q_weight(lag0, cfg.q0, n)
    ys, f = _scaled(y)
    lags = range(1, cfg.m + 1)
    # Stacked over lags, on B_k = Omega(k) Q theta^{-1/2} scaled by 2^-e_k and the
    # design D_k = y[:n-k] Q on y scaled by 2^-f: G_k = B_k'B_k, D_k'D_k,
    # X_k = D_k'y[k:] B_k and ||y[k:]||^2.  Each candidate's objects are leading
    # blocks of these, because the covariance eigenvectors are nested.
    halves = [_scaled(_half_weighted(covs.lags[k - 1], w0)) for k in lags]
    regs = [_gram_cross(ys[: n - k] @ w0.Q, ys[k:]) for k in lags]
    grams = np.stack([b.T @ b for b, _ in halves])
    exps = np.array([[e] for _, e in halves])
    designs = np.stack([dd for dd, _ in regs])
    xs = np.stack([c @ b for (_, c), (b, _) in zip(regs, halves)])
    head_sqs = np.array([float(np.sum(ys[k:] ** 2)) for k in lags])

    def rank(q: int):
        """The ratio-rule rank at q and the ascending eigenpairs of each
        G_k[:q, :q]: B_k[:, :q]'s squared singular values over 4^e_k, right vectors."""
        vals, vecs = np.linalg.eigh(grams[:, :q, :q])
        return select_r(_unscale(vals[:, ::-1], exps), n, vartheta, q - 1)[0], vals, vecs

    r_bar, *at_ceiling = rank(cfg.q0)
    candidates = tuple(range(r_bar + 1, cfg.q0 + 1))

    n_cand = len(candidates)
    per_lag_bic = np.zeros((cfg.m, n_cand))
    per_lag_L = np.zeros((cfg.m, n_cand))
    per_lag_d = np.zeros((cfg.m, n_cand), dtype=int)
    r_hats = []
    for i, q in enumerate(candidates):
        r_q, vals, vecs = (r_bar, *at_ceiling) if q == cfg.q0 else rank(q)
        r_hats.append(r_q)
        d = _param_count(p, q, r_q)
        if np.any(vals[:, -r_q] <= 0.0):
            raise DegenerateSpectrum(f"a lag's B_k has rank below r={r_q} at q={q}")
        # D_k'y[k:] u = X_k V / s for the top left singular vectors u = B_k V / s
        cross = xs[:, :q, :q] @ vecs[:, :, -r_q:] / np.sqrt(vals[:, None, -r_q:])
        resid = _lag_fit(designs[:, :q, :q], cross, head_sqs)[1]
        per_lag_L[:, i] = _unscale(resid / (p * n), f, "BIC residual mean")
        per_lag_d[:, i] = d
        per_lag_bic[:, i] = [_bic_value(p, n, L, d, cfg.C) for L in per_lag_L[:, i]]
    totals = per_lag_bic.sum(axis=0)
    q_hat = candidates[int(np.argmin(totals))]
    return BicTrace(
        candidates=candidates,
        per_lag_bic=per_lag_bic,
        totals=totals,
        q_hat=q_hat,
        r_bar=r_bar,
        per_lag_L=per_lag_L,
        per_lag_d=per_lag_d,
        r_hat_per_candidate=tuple(r_hats),
    )
