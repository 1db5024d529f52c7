"""Generalized BIC selection of the projection dimension q.

For each candidate q the panel is regressed, one lag at a time, on its
own q-dimensional covariance projection under a rank constraint; the
residual mass trades off against a parameter-count penalty

    BIC_k(q) = p*n*log L_k(q) + C * d_k(q) * log(p*n),

where ``L_k(q)`` is the average squared residual of the rank-``r_hat``
fit at lag k and ``d_k(q) = (p+q)*r_hat - r_hat*(r_hat+1)/2`` counts the
free parameters of that fit.  The factor count ``r_hat`` is re-selected
at every candidate q by the eigenvalue-ratio rule, and the winning q
minimizes the total over the fit's lags k = 1..m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateSpectrum, InvalidConfig
from .factor import (
    EstimatorConfig,
    _Q_CAP,
    _gram_cross,
    _half_weighted,
    _lag_fit,
    _rank_q_weight,
    estimate,
    select_r,
)
from .tsstats import TimePanel, _in_units, _lag0_eigen, sample_autocov

__all__ = ["BicTrace", "select_q"]


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


def _bic_value(p: int, n: int, L: float, d: int, C: float, e: int = 0) -> float:
    """One BIC value from the residual mean L of data scaled by ``2**-e``; -inf for an
    exact fit.  Past the normal range of ``L * 4**e``, log L is ``log L + 2e log 2``."""
    if L <= 0.0:
        return -math.inf
    normal = -1021 <= math.frexp(L)[1] + 2 * e <= 1024  # L * 4**e is a normal double
    log_l = math.log(math.ldexp(L, 2 * e)) if normal else math.log(L) + 2 * e * math.log(2.0)
    return p * n * log_l + C * d * math.log(p * n)


def _param_count(p: int, q: int, r: int) -> int:
    return (p + q) * r - r * (r + 1) // 2


def select_q(panel: TimePanel, cfg: EstimatorConfig) -> BicTrace:
    """Scan q over ``(r_bar, q0]`` and pick the BIC minimizer.

    ``r_bar`` is the ratio-rule factor count at the ceiling ``q0``; only
    q values that leave room for at least that many factors compete.
    Ties go to the smallest q.  The returned trace carries the full BIC
    surface; determinism is bit-for-bit for identical inputs.

    This is the ``bic_trace`` of a ``wauto`` :func:`~tsfactor.factor.estimate`
    with ``q="auto"`` on ``cfg`` less its rank settings, which the scan does
    not read, so the scan runs in the panel's row space when p > n.
    """
    scan = replace(cfg, method="wauto", q="auto", r_search_max=None, r_fixed=None)
    return estimate(panel, scan).bic_trace


def _scan(rows: TimePanel, p: int, e: int, cfg: EstimatorConfig) -> BicTrace:
    """The q scan behind :func:`select_q`, run by :func:`~tsfactor.factor.estimate`
    over lags 1..``cfg.m`` of a demeaned panel ``rows`` scaled by ``2**-e``.
    ``p`` counts the series, which ``rows`` holds in row-space coordinates
    when p > n; spectra and residual means go back to the data's units."""
    y, n, m = rows.data, rows.n, cfg.m
    covs = sample_autocov(rows, m)
    q0 = min(_Q_CAP, p - 1, n - m) if cfg.q0 is None else cfg.q0  # n - m: every q is solvable
    if q0 > min(p, n) - 1:
        raise InvalidConfig(f"q0={q0} must be at most min(p, n) - 1 = {min(p, n) - 1}")
    vartheta = cfg.vartheta_scale * p / n
    w0 = _rank_q_weight(_lag0_eigen(rows), q0, n)
    lags = range(1, m + 1)
    # Stacked over lags, on B_k = Omega(k) Q theta^{-1/2} and the design
    # D_k = y[:n-k] Q: G_k = B_k'B_k, D_k'D_k, X_k = D_k'y[k:] B_k and
    # ||y[k:]||^2.  Each candidate's objects are leading blocks of these,
    # because the covariance eigenvectors are nested.
    halves = [_half_weighted(lag, w0) for lag in covs.lags]
    regs = [_gram_cross(y[: n - k] @ w0.Q, y[k:]) for k in lags]
    grams = np.stack([b.T @ b for b in halves])
    designs = np.stack([dd for dd, _ in regs])
    xs = np.stack([c @ b for (_, c), b in zip(regs, halves)])
    head_sqs = np.array([np.vdot(y[k:], y[k:]) for k in lags])  # no (n-k)-row temporary

    def rank(q: int):
        """The ratio-rule rank at q and the ascending eigenpairs of each
        G_k[:q, :q]: B_k[:, :q]'s squared singular values, right vectors."""
        vals, vecs = np.linalg.eigh(grams[:, :q, :q])
        spectra = _in_units(vals[:, ::-1], 2 * e, "per-lag spectrum")  # select_r clamps at 0
        return select_r(spectra, n, vartheta, q - 1)[0], vals, vecs

    r_bar, *at_ceiling = rank(q0)
    candidates = tuple(range(r_bar + 1, q0 + 1))

    n_cand = len(candidates)
    per_lag_bic = np.zeros((m, n_cand))
    per_lag_L = np.zeros((m, n_cand))
    per_lag_d = np.zeros((m, n_cand), dtype=int)
    r_hats = []
    for i, q in enumerate(candidates):
        r_q, vals, vecs = (r_bar, *at_ceiling) if q == q0 else rank(q)
        r_hats.append(r_q)
        d = _param_count(p, q, r_q)
        if np.any(vals[:, -r_q] <= 0.0):
            raise DegenerateSpectrum(f"a lag's B_k has rank below r={r_q} at q={q}")
        # D_k'y[k:] u = X_k V / s for the top left singular vectors u = B_k V / s
        cross = xs[:, :q, :q] @ vecs[:, :, -r_q:] / np.sqrt(vals[:, None, -r_q:])
        means = _lag_fit(designs[:, :q, :q], cross, head_sqs)[1] / (p * n)  # of the scaled y
        per_lag_L[:, i] = _in_units(means, 2 * e, "BIC residual mean")
        per_lag_d[:, i] = d
        per_lag_bic[:, i] = [_bic_value(p, n, L, d, cfg.bic_c, e) for L in means]
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
