"""Row and column factor estimation for matrix-valued time series.

An observation here is a p1-by-p2 matrix Y_t following
``Y_t = R X_t C' + E_t`` with a row loading R and a column loading C.
The row loading space is recovered from the aggregate

    M1 = sum_k sum_i sum_j  Omega_ij(k) W_j Omega_ij(k)'

where ``Omega_ij(k)`` is the lag-k cross-autocovariance between the
i-th and j-th column slices of the panel and ``W_j`` is the rank-q1
calibration weight built from the j-th slice's lag-0 covariance, exactly
as in the vector estimator.  The column side is the same computation
with the roles of rows and columns swapped.  With p2 = 1 everything
reduces to the vector pipeline.

A panel validates, demeans and memoizes as the TimePanel of its
n-by-(p1*p2) flattening.  A side uses each lag only through
``Omega_ij(k) Q_j theta_j^(-1/2)``: from the slice scores
``Z_j = y_j Q_j theta_j^(-1/2)``, one product ``y[k:]' Z[:n-k] / (n - k)``
gives it for every slice pair, so no (p1*p2)^2 array is formed.  A
default q_j is ``min(15, p_j, n - 1)``; the lag-count rule, the rank step
and the fit checks are the vector estimator's own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidConfig, InvalidData
from .factor import _Q_CAP, _check_fit, _check_lag_count, _choose_rank, _rank_q_weight
from .tsstats import TimePanel, _in_units, _mean_product, _scaled, demean, sym_eigen

__all__ = [
    "MatrixPanel",
    "MatrixFactorFit",
    "m_hat_rows",
    "estimate_matrix",
]


@dataclass(frozen=True)
class MatrixPanel:
    """n observations of a p1-by-p2 matrix series, time along axis 0; kept
    as the TimePanel of its flattening, of which ``data`` is a read-only
    (n, p1, p2) view."""

    data: np.ndarray
    _flat: TimePanel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 3:
            raise InvalidData(f"matrix panel must be 3-d (n, p1, p2), got shape {data.shape}")
        n, p1, p2 = data.shape
        flat = TimePanel(data.reshape(n, p1 * p2))
        object.__setattr__(self, "_flat", flat)
        object.__setattr__(self, "data", flat.data.reshape(data.shape))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p1(self) -> int:
        return self.data.shape[1]

    @property
    def p2(self) -> int:
        return self.data.shape[2]


def _slice_q(q: Optional[int], p: int, n: int) -> int:
    """A given q, else the default ``min(15, p, n - 1)``."""
    return min(_Q_CAP, p, n - 1) if q is None else q


def _side_aggregate(panel: MatrixPanel, m: int, q: int, slices: str) -> tuple[np.ndarray, int]:
    """``(M, e)``, M the ``sum_k sum_ij Omega_ij(k) W_j Omega_ij(k)'`` over the
    column or row ``slices`` of the demeaned panel scaled by ``2**-e``, as a
    vector fit's; each ``W_j`` is the rank-q weight of ``y_j' y_j / n``."""
    y, e = _scaled(demean(panel._flat).data)
    y = y.reshape(panel.data.shape).transpose((0, 1, 2) if slices == "column" else (0, 2, 1))
    n, p, s = y.shape  # slice j is y[:, :, j]
    _check_lag_count(m, n)
    scores = []
    for j in range(s):
        yj = y[:, :, j]
        cov = _mean_product(yj, yj, n, f"lag-0 covariance of {slices} slice {j}", e)
        w = _rank_q_weight(sym_eigen(cov, p), q, n, f" of {slices} slice {j}")
        scores.append(yj @ (w.Q / np.sqrt(w.theta)))
    flat, z = y.reshape(n, p * s), np.hstack(scores)  # z is n by (s*q), slice-major
    out = np.zeros((p, p))
    for k in range(1, m + 1):
        # row (a, i), column (j, c): entry (a, c) of Omega_ij(k) Q_j theta_j^(-1/2)
        prod = (flat[k:].T @ z[: n - k]).reshape(p, s * s * q)
        prod /= n - k
        out += prod @ prod.T
    return 0.5 * (out + out.T), e


def m_hat_rows(panel: MatrixPanel, m: int = 2, q1: Optional[int] = None) -> np.ndarray:
    """Weight-calibrated aggregate whose top eigenvectors span the row space.

    Accumulates ``Omega_ij(k) W_j Omega_ij(k)'`` over lags k = 1..m and
    all column-slice pairs (i, j), with each ``W_j`` the rank-q1 weight
    of slice j.  The panel is demeaned internally; the result is
    symmetrized, so its eigenvalues are real and nonnegative up to
    round-off.  The column aggregate is the row aggregate of the
    transposed panel, ``m_hat_rows(MatrixPanel(data.transpose(0, 2, 1)))``.
    """
    out, e = _side_aggregate(panel, m, _slice_q(q1, panel.p1, panel.n), "column")
    return _in_units(out, 2 * e, "row aggregate")


@dataclass(frozen=True)
class MatrixFactorFit:
    """Estimated row/column loading bases with the spectra behind them."""

    R_hat: np.ndarray
    C_hat: np.ndarray
    d1: int
    d2: int
    row_spectrum: np.ndarray
    col_spectrum: np.ndarray
    row_ratios: np.ndarray
    col_ratios: np.ndarray
    q1_used: int
    q2_used: int

    def __post_init__(self):
        bases = (("R_hat", self.R_hat, self.d1), ("C_hat", self.C_hat, self.d2))
        _check_fit(bases, (self.row_spectrum, self.col_spectrum))


def estimate_matrix(
    panel: MatrixPanel,
    m: int = 2,
    q1: Optional[int] = None,
    q2: Optional[int] = None,
    d1: Optional[int] = None,
    d2: Optional[int] = None,
    vartheta_scale: float = 0.1,
) -> MatrixFactorFit:
    """Estimate row and column loading spaces of a matrix factor model.

    ``R_hat`` holds the top-d1 eigenvectors of :func:`m_hat_rows` and
    ``C_hat`` the top-d2 of the transposed panel's.  Unspecified ranks are
    chosen by the offset eigenvalue-ratio rule with offsets
    ``vartheta_scale * p1 / n`` and ``vartheta_scale * p2 / n``; the
    search runs below the weight rank (d < q), and ties keep the
    smallest rank.
    """
    if not 0 <= vartheta_scale < np.inf:
        raise InvalidConfig(f"vartheta_scale must be finite and >= 0, got {vartheta_scale}")
    n, p1, p2 = panel.n, panel.p1, panel.p2
    q1, q2 = _slice_q(q1, p1, n), _slice_q(q2, p2, n)
    for d, q, p, side in ((d1, q1, p1, "d1"), (d2, q2, p2, "d2")):
        if d is not None and not 1 <= d <= min(q, p):
            raise InvalidConfig(f"{side} must be in [1, min(q, p)] = [1, {min(q, p)}], got {d}")
    fitted = []
    for d, q, p, side, slices in ((d1, q1, p1, "row", "column"), (d2, q2, p2, "column", "row")):
        aggregate, e = _side_aggregate(panel, m, q, slices)
        pairs = sym_eigen(aggregate, p)
        spectrum = _in_units(pairs.values, 2 * e, f"{side} spectrum")
        d_hat, ratios = _choose_rank(spectrum, vartheta_scale * p / n, min(q, p) - 1, d)
        # copy the leading columns so the basis does not pin all p eigenvectors
        fitted.append((pairs.vectors[:, :d_hat].copy(), d_hat, spectrum, ratios))
    (R_hat, d1_hat, row_spectrum, row_ratios), (C_hat, d2_hat, col_spectrum, col_ratios) = fitted
    return MatrixFactorFit(
        R_hat=R_hat,
        C_hat=C_hat,
        d1=d1_hat,
        d2=d2_hat,
        row_spectrum=row_spectrum,
        col_spectrum=col_spectrum,
        row_ratios=row_ratios,
        col_ratios=col_ratios,
        q1_used=q1,
        q2_used=q2,
    )
