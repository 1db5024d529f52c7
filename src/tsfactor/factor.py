"""Latent factor estimators for high-dimensional stationary series.

Three estimators of the loading space of ``y_t = A x_t + e_t`` run one
pipeline, aggregate -> spectrum -> rank -> basis, and differ only in the
aggregate:

``cov``
    The sample covariance; the classical PCA route.
``auto``
    The summed products ``sum_k Omega(k) Omega(k)'`` of lagged
    autocovariances, which white-noise idiosyncratics do not
    contaminate.
``wauto``
    Same aggregation, but each lag matrix is sandwiched with a rank-q
    pseudo-inverse of the sample covariance (:func:`weight_matrix`).
    This weighting rescales the factor eigenvalues so that factors of
    unequal strength remain separated from the noise; q can be fixed or
    selected by the generalized BIC in :mod:`tsfactor.modelselect`.

One ratio rule picks every factor count, here and in
:mod:`tsfactor.matrixfactor` (see :func:`select_r`); one rank-r
lag-regression kernel, in Gram form, serves :func:`rrr_solution`, the
BIC scan and the ``wauto`` coefficients ``H_hat``.  Each spectrum is one
symmetric eigensolve of the smaller Gram of a half-product B_k with
``B_k B_k' = Omega(k) W Omega(k)'``; the ``wauto`` basis is the top of
one thin SVD of the stacked ``[B_1 ... B_m]``.  Every moment and every lag
regression is formed on the memo's panel scaled by a power of two, which is
exact (Higham 2002, ch. 2).

When p > n, :func:`estimate` and :func:`rrr_solution` run in the panel's
n-dimensional row space: they fit the n-by-n scores Z of a thin QR
``y' = V Z'``, since ``Omega(k) = V Omega_Z(k) V'``, and lift the basis
back as ``V a`` through the QR's Householder reflectors, never forming V
(see :func:`_row_space`).  The lag regressions stay on Z, as
``y[:n-k] V Q = Z[:n-k] Q``, with Q and a signed as their lifts are.  The
numbers agree with the p-by-p route to round-off.
:func:`estimate` is the one entry to the q scan: a ``wauto`` fit with
``q="auto"`` scans on its config's ``m``, ``q0`` and ``bic_c`` and
records the scan's :class:`~tsfactor.modelselect.BicTrace` as
``FactorFit.bic_trace``, and :func:`~tsfactor.modelselect.select_q` and
``tsfactor select-q`` read it from there, so they run in the row space too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover
    from .modelselect import BicTrace

import numpy as np

from .errors import (
    DegenerateSpectrum,
    IllConditioned,
    InvalidConfig,
    InvalidData,
)
from .tsstats import (
    EigenPairs,
    LagCovSet,
    TimePanel,
    _built_panel,
    _fix_signs,
    _flips,
    _in_units,
    _lag0_eigen,
    _scaled,
    demean,
    sample_autocov,
    sym_eigen,
)

__all__ = [
    "EstimatorConfig",
    "WeightMatrix",
    "FactorFit",
    "weight_matrix",
    "m_hat",
    "per_lag_spectra",
    "select_r",
    "estimate",
    "rrr_solution",
    "two_step",
]

_METHODS = ("cov", "auto", "wauto")
_COND_FLOOR = 1e-12
_Q_CAP = 15  # ceiling of every default q and factor-count search


@dataclass(frozen=True)
class EstimatorConfig:
    """Settings of one fit, the ``wauto`` q scan's included.

    Parameters
    ----------
    method : {"cov", "auto", "wauto"}
    m : int
        Number of lags aggregated and scanned (default 2); ignored by ``cov``.
    q : int, "auto", or None
        Projection dimension for ``wauto``.  ``"auto"`` (the default)
        delegates to the generalized BIC; an int pins it.
    q0 : int, optional
        Ceiling of the q scan, in ``[3, min(p, n) - 1]``; defaults to
        ``min(15, p - 1, n - m)``.
    bic_c : float
        Penalty constant C of the generalized BIC (default 0.2).
    vartheta_scale : float
        Scale of the ratio-offset: the offset is ``scale * p/n`` for
        ``wauto`` and ``scale * (p/n)**2`` for ``auto``; ``cov`` uses
        plain adjacent ratios with no offset.
    r_search_max : int, optional
        Upper end of the factor-count search; defaults to 15 for
        ``auto``, ``min(15, n - 2)`` for ``cov`` and ``q - 1`` for ``wauto``.
    r_fixed : int, optional
        Skip factor-count selection and use this rank.
    """

    method: str = "wauto"
    m: int = 2
    q: Union[int, str, None] = "auto"
    vartheta_scale: float = 0.1
    r_search_max: Optional[int] = None
    r_fixed: Optional[int] = None
    q0: Optional[int] = None
    bic_c: float = 0.2

    def __post_init__(self):
        if self.method not in _METHODS:
            raise InvalidConfig(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.m < 1:
            raise InvalidConfig(f"m must be >= 1, got {self.m}")
        if self.vartheta_scale < 0:
            raise InvalidConfig("vartheta_scale must be >= 0")
        if isinstance(self.q, str) and self.q != "auto":
            raise InvalidConfig(f"q must be an int, 'auto', or None, got {self.q!r}")
        if isinstance(self.q, int) and self.q < 1:
            raise InvalidConfig(f"q must be positive, got {self.q}")
        if self.r_search_max is not None and self.r_search_max < 1:
            raise InvalidConfig("r_search_max must be >= 1")
        if self.r_fixed is not None and self.r_fixed < 1:
            raise InvalidConfig("r_fixed must be >= 1")
        if self.q0 is not None and self.q0 < 3:
            raise InvalidConfig(f"q0 must be at least 3, got {self.q0}")
        if self.bic_c <= 0:
            raise InvalidConfig(f"penalty constant bic_c must be positive, got {self.bic_c}")
        if (
            isinstance(self.q, int)
            and self.r_search_max is not None
            and self.r_search_max >= self.q
        ):
            raise InvalidConfig("r_search_max must be smaller than q")


def _method_labels(methods: Sequence[EstimatorConfig]) -> list[str]:
    """Report labels: each method's name, suffixed ``#2``, ``#3`` on repeats."""
    counts: dict[str, int] = {}
    labels = []
    for cfg in methods:
        k = counts.get(cfg.method, 0)
        counts[cfg.method] = k + 1
        labels.append(cfg.method if k == 0 else f"{cfg.method}#{k + 1}")
    return labels


@dataclass(frozen=True)
class WeightMatrix:
    """Leading covariance eigenpairs packaging W = Q diag(1/theta) Q'."""

    Q: np.ndarray
    theta: np.ndarray
    q: int

    def __post_init__(self):
        if self.Q.shape[1] != self.q or self.theta.shape != (self.q,):
            raise InvalidData("weight matrix fields have inconsistent shapes")
        if self.theta.min() <= 0:
            raise InvalidData("weight matrix eigenvalues must be positive")


@dataclass(frozen=True)
class FactorFit:
    """Result of one estimator run; ``bic_trace`` holds the q scan of a
    ``wauto`` fit with ``q="auto"`` and is None for every other fit."""

    method: str
    r_hat: int
    A_hat: np.ndarray
    factors: np.ndarray
    eigenvalues_per_lag: tuple[np.ndarray, ...]
    ratios: np.ndarray
    q_used: Optional[int] = None
    H_hat: Optional[tuple[np.ndarray, ...]] = None
    bic_trace: "Optional[BicTrace]" = None

    def __post_init__(self):
        _check_fit((("A_hat", self.A_hat, self.r_hat),), self.eigenvalues_per_lag)


def _check_fit(bases: Sequence[tuple], spectra: Sequence[np.ndarray]) -> None:
    """Each ``(name, basis, r)`` has r orthonormal columns, and each spectrum
    descends and is nonnegative up to round-off; every fit checks both."""
    for name, basis, r in bases:
        if basis.shape[1] != r:
            raise InvalidData(f"{name} must have {r} columns, got {basis.shape[1]}")
        if np.abs(basis.T @ basis - np.eye(r)).max() > 1e-8:
            raise InvalidData(f"{name} is not orthonormal")
    for spectrum in spectra:
        lead = max(float(spectrum[0]), 0.0)
        if spectrum.min() < -1e-10 * lead:
            raise InvalidData("spectrum has a negative eigenvalue beyond round-off")
        if np.any(np.diff(spectrum) > 1e-12 * max(lead, 1.0)):
            raise InvalidData("spectrum is not sorted descending")


def _check_lag_count(m: int, n: int) -> None:
    if not 1 <= m < n:  # lags 1..m of n observations
        raise InvalidConfig(f"m={m} must be in [1, n - 1] for the sample size n={n}")


def weight_matrix(covs: LagCovSet, q: int) -> WeightMatrix:
    """Rank-q covariance pseudo-inverse ``W = Q (Q' lag0 Q)^{-1} Q'``.

    Q holds the leading q eigenvectors of the lag-0 covariance, so
    ``Q' lag0 Q`` is exactly ``diag(theta_1..theta_q)`` and the two
    textbook forms of W (projected inverse and eigen-sum) coincide.

    Raises
    ------
    IllConditioned
        If ``theta_q <= 1e-12 * theta_1``; ``q_effective`` on the error
        reports the largest q that would still be admissible.
    """
    return _rank_q_weight(sym_eigen(covs.lag0, covs.p), q, covs.n)


def _rank_q_weight(pairs: EigenPairs, q: int, n: int, where: str = "") -> WeightMatrix:
    """Rank-q weight from the full eigendecomposition of a lag-0 covariance
    of n observations; ``where`` names the covariance in errors."""
    if not 1 <= q <= min(pairs.d, n):
        raise InvalidConfig(f"q must be in [1, min(p, n)] = [1, {min(pairs.d, n)}], got {q}")
    theta = pairs.values[:q]
    floor = _COND_FLOOR * max(theta[0], 0.0)
    if theta[-1] <= floor:
        q_eff = int(np.sum(theta > floor))
        raise IllConditioned(
            f"lag-0 covariance{where} is rank deficient at q={q} "
            f"(theta_q={theta[-1]:.3e} vs floor {floor:.3e}); largest admissible q is {q_eff}",
            q_effective=q_eff,
        )
    return WeightMatrix(Q=np.ascontiguousarray(pairs.vectors[:, :q]), theta=theta, q=q)


def m_hat(covs: LagCovSet, W: Optional[WeightMatrix] = None) -> np.ndarray:
    """Aggregate ``sum_k Omega(k) W Omega(k)' = sum_k B_k B_k'`` (W = identity if None)."""
    if covs.m < 1:
        raise InvalidData("m_hat needs at least one lagged autocovariance")
    if W is not None and W.Q.shape[0] != covs.p:
        raise InvalidData("weight matrix dimension does not match covariances")
    out = sum(b @ b.T for b in (_half_weighted(lag, W) for lag in covs.lags))
    return 0.5 * (out + out.T)


def _half_weighted(lag: np.ndarray, W: Optional[WeightMatrix]) -> np.ndarray:
    """B with B B' = Omega(k) W Omega(k)'; B = Omega(k) Q theta^{-1/2}."""
    if W is None:
        return lag
    return lag @ (W.Q / np.sqrt(W.theta))


def per_lag_spectra(covs: LagCovSet, W: Optional[WeightMatrix] = None) -> list[np.ndarray]:
    """Descending eigenvalues of ``Omega(k) W Omega(k)'`` for each lag k = 1..m.

    With a weight matrix the spectrum is truncated to its q possibly
    nonzero values; without one it has all p values.  They are the
    eigenvalues, clamped at 0, of the smaller Gram of the half-product
    ``B = Omega(k) Q theta^{-1/2}`` (``Omega(k) Omega(k)'`` with no weight).
    """
    halves = [_half_weighted(lag, W) for lag in covs.lags]
    grams = [b.T @ b if b.shape[1] < b.shape[0] else b @ b.T for b in halves]
    return [np.maximum(np.linalg.eigvalsh(gram)[::-1], 0.0) for gram in grams]


def select_r(
    spectra: Sequence[np.ndarray],
    n: int,
    vartheta: float,
    r_max: int,
) -> tuple[int, np.ndarray]:
    """Factor count from lag-weighted cumulative eigenvalue ratios.

    Computes ``R_j = (sum_k (1 - k/n) lam_kj + vartheta) /
    (sum_k (1 - k/n) lam_k,j+1 + vartheta)`` for j = 1..r_max and
    returns the smallest j attaining the maximum, together with the full
    ratio sequence.

    Parameters
    ----------
    spectra : sequence of 1-d arrays
        One descending spectrum per lag k = 1..m, each of length at
        least ``r_max + 1``.  Negative round-off is clamped to 0.
    n : int
        Sample size behind the ``1 - k/n`` lag weights.
    vartheta : float
        Additive offset shielding the ratio from noise-level
        denominators; 0 disables the correction.
    r_max : int
        Largest candidate factor count.
    """
    if vartheta < 0:
        raise InvalidConfig("vartheta must be >= 0")
    heads = [np.asarray(spectrum, dtype=float)[: r_max + 1] for spectrum in spectra]
    for k, head in enumerate(heads, start=1):
        if head.shape[0] < r_max + 1:
            raise InvalidConfig(
                f"spectrum for lag {k} has {head.shape[0]} values; need {r_max + 1}"
            )
    return _ratio_argmax(_lag_weighted(heads, n), vartheta, r_max)


def _lag_weighted(spectra: Sequence[np.ndarray], n: int) -> np.ndarray:
    """``sum_k (1 - k/n) lam_k`` over per-lag spectra k = 1..m, negatives clamped."""
    weighted = [(1.0 - k / n) * np.maximum(s, 0.0) for k, s in enumerate(spectra, start=1)]
    return np.sum(weighted, axis=0)


def _ratio_argmax(values: np.ndarray, vartheta: float, r_max: int) -> tuple[int, np.ndarray]:
    """Smallest maximizer of ``(lam_j + vartheta) / (lam_{j+1} + vartheta)``,
    j = 1..r_max, over one descending spectrum; every rank choice uses it."""
    if r_max < 1:
        raise InvalidConfig(f"r_max must be >= 1, got {r_max}")
    vals = np.maximum(values[: r_max + 1], 0.0)
    num = vals[:-1] + vartheta
    den = vals[1:] + vartheta
    if np.any(den == 0.0):
        raise DegenerateSpectrum(
            "zero eigenvalue denominator with no offset; pass vartheta > 0 or fix the rank"
        )
    ratios = num / den
    return int(np.argmax(ratios)) + 1, ratios


def _resolve_bounds(cfg: EstimatorConfig, available: int, n: int) -> tuple[int, Optional[int]]:
    """Effective search bound and validated fixed rank.

    ``available`` is the last index for which a ratio exists (p - 1 or
    q - 1).  A defaulted search bound stretches to accommodate
    ``r_fixed``; an explicit one that excludes it is an error.
    """
    default = cfg.r_search_max is None
    # A demeaned covariance has rank at most n - 1, so cov's default window
    # stops at n - 2 to keep zero eigenvalues out of its unoffset ratios.
    ceiling = {"cov": min(_Q_CAP, n - 2), "auto": _Q_CAP}.get(cfg.method, available)
    bound = min(ceiling if default else cfg.r_search_max, available)
    r_fixed = cfg.r_fixed
    if r_fixed is not None:
        if r_fixed > available + 1:
            raise InvalidConfig(
                f"r_fixed={r_fixed} exceeds the available spectrum ({available + 1} values)"
            )
        if not default and r_fixed > bound:
            raise InvalidConfig(f"r_fixed={r_fixed} exceeds r_search_max={bound}")
    return bound, r_fixed


def _choose_rank(ranked: np.ndarray, vartheta: float, bound: int, r_fixed: Optional[int]):
    """The fixed rank if given, else the ratio rule's rank in 1..bound, and
    the rule's ratios; with no admissible bound a fixed rank is required."""
    if bound < 1:
        if r_fixed is None:
            raise InvalidConfig("no admissible factor count to search; fix the rank explicitly")
        return r_fixed, np.empty(0)
    r_sel, ratios = _ratio_argmax(ranked, vartheta, bound)
    return (r_sel if r_fixed is None else r_fixed), ratios


def _row_space(panel: TimePanel) -> tuple[Optional[tuple], TimePanel, int]:
    """``(wy, rows, e)``, kept on a demeaned panel y: rows holds ``y * 2**-e``,
    e the binary exponent of ``max|y|``, or when p > n the scores Z of one thin QR
    ``y' 2**-e = V Z'``, and wy is ``(Y', T)`` with ``V = (I - Y T Y')[:, :n]``."""
    if "normalized" not in panel._memo:
        ys, e = _scaled(panel.data)
        memo = {"exponent": np.int64(e)}  # a numpy scalar: read-only, as memo entries are
        if panel.p > panel.n:
            h, tau = np.linalg.qr(ys.T, mode="raw")  # geqrf alone: V is never formed
            ys = np.ascontiguousarray(np.tril(h[:, : panel.n]))
            keep = tau != 0  # a reflector with tau 0 is the identity, as for constant series
            yt = (np.triu(h, 1) + np.eye(*h.shape))[keep]
            # the compact WY form (Schreiber & Van Loan 1989) with T^-1 = striu(Y'Y) + diag(1/tau)
            # (Joffrain, Low, Quintana-Orti, van de Geijn & Van Zee 2006)
            memo["wy"] = (yt, np.linalg.inv(np.triu(yt @ yt.T, 1) + np.diag(1.0 / tau[keep])))
            for arr in memo["wy"]:
                arr.setflags(write=False)
        rows = panel._memo["normalized"] = _built_panel(ys)
        rows._memo.update(memo)
    rows = panel._memo["normalized"]
    return rows._memo.get("wy"), rows, int(rows._memo["exponent"])


def _lifted(wy: Optional[tuple], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(V x s, x s)`` for a basis x fitted on row-space scores: its lift ``V x = [x; 0] -
    Y T Y'[x; 0]`` and x, with the column signs s that sign the lift as a p-by-p fit signs
    it; ``(x, x)`` when ``wy`` is None."""
    if wy is None:
        return x, x
    yt, t = wy
    vx = np.pad(x, ((0, yt.shape[1] - len(x)), (0, 0))) - yt.T @ (t @ (yt[:, : len(x)] @ x))
    signs = np.where(_flips(vx), -1.0, 1.0)
    return vx * signs, x * signs


def estimate(panel: TimePanel, cfg: EstimatorConfig) -> FactorFit:
    """Estimate the loading space and factor count of a panel.

    The panel is demeaned if it is not already.  ``cfg.method`` picks
    the aggregate, its spectra and ratio offset; rank and basis follow
    one path.  For ``wauto`` with ``q="auto"`` the projection dimension
    comes from the generalized BIC scan of :mod:`tsfactor.modelselect`
    over lags 1..``cfg.m``, with ``cfg.bic_c`` and ``cfg.q0``.  Fits on
    one panel share its memoized moments (see :class:`TimePanel`).

    Returns
    -------
    FactorFit
        Loadings, factors ``panel @ A_hat``, the spectra and ratio
        sequence behind the factor-count choice, (``wauto`` only) the
        per-lag regression coefficients ``H_hat`` and (scanned q only)
        the scan's ``bic_trace``.
    """
    panel = demean(panel)
    n, p = panel.n, panel.p
    _check_lag_count(cfg.m, n)
    if isinstance(cfg.q, int) and cfg.q > min(p, n):
        raise InvalidConfig(f"q={cfg.q} exceeds min(p, n) = {min(p, n)}")
    if cfg.method == "wauto" and isinstance(cfg.q, int) and cfg.q > n - cfg.m:
        raise InvalidConfig(
            f"q={cfg.q} exceeds n - m = {n - cfg.m}, the rows of the lag-{cfg.m} regression"
        )
    wy, rows, e = _row_space(panel)
    lag0 = None if cfg.method == "auto" else _lag0_eigen(rows)

    w, trace = None, None
    if cfg.method == "wauto":
        q = cfg.q
        if not isinstance(q, int):
            from .modelselect import _scan

            trace = _scan(rows, p, e, cfg)
            q = trace.q_hat
        w = _rank_q_weight(lag0, q, n)

    if cfg.method == "cov":
        spectra, vartheta = (lag0.values,), 0.0
    else:
        covs = sample_autocov(rows, cfg.m)
        if w is None and cfg.m == 1:  # the one lag's Gram is m_hat: one eigensolve for both
            pairs = sym_eigen(covs.lags[0] @ covs.lags[0].T, rows.p)
            spectra = (np.maximum(pairs.values, 0.0),)
        else:
            spectra = tuple(per_lag_spectra(covs, w))
        vartheta = cfg.vartheta_scale * (p / n) ** 2 if w is None else cfg.vartheta_scale * p / n
    if w is None:  # exact zeros for the p - n directions outside the row space; np.pad copies
        spectra = tuple(np.pad(s, (0, p - s.size)) for s in spectra)
    # auto's spectra carry the scale to the fourth power; cov's unoffset ratios read any scale
    what = "lag-0 spectrum" if cfg.method == "cov" else "per-lag spectrum"
    reported = tuple(_in_units(s, (4 if cfg.method == "auto" else 2) * e, what) for s in spectra)
    ranked = spectra[0] if cfg.method == "cov" else _lag_weighted(reported, n)

    bound, r_fixed = _resolve_bounds(cfg, p - 1 if w is None else w.q - 1, n)
    r, ratios = _choose_rank(ranked, vartheta, bound, r_fixed)
    if cfg.method == "cov":
        a = lag0.vectors[:, :r].copy()  # a view would pin the p-by-p eigenvectors
    elif w is None:
        a = pairs.vectors[:, :r].copy() if cfg.m == 1 else sym_eigen(m_hat(covs), r).vectors
    else:  # [B_1 ... B_m] [B_1 ... B_m]' is the weighted m_hat
        stacked = np.hstack([_half_weighted(lag, w) for lag in covs.lags])
        a = _fix_signs(np.linalg.svd(stacked, full_matrices=False)[0][:, :r])
    a, a_rows = _lifted(wy, a)
    h_hat = None
    if w is not None:  # H depends neither on y's scale nor on its row-space coordinates
        y, q_rows = rows.data, _lifted(wy, w.Q)[1]
        h_hat = tuple(
            _lag_fit(*_gram_cross(y[: n - k] @ q_rows, y[k:] @ a_rows), 0.0)[0]
            for k in range(1, cfg.m + 1)
        )
    return FactorFit(
        method=cfg.method,
        r_hat=r,
        A_hat=a,
        factors=panel.data @ a,
        eigenvalues_per_lag=reported,
        ratios=ratios,
        q_used=None if w is None else w.q,
        H_hat=h_hat,
        bic_trace=trace,
    )


def _gram_cross(design: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(design' design, design' target)``, the Gram products of a regression."""
    return design.T @ design, design.T @ target


def _lag_fit(gram: np.ndarray, cross: np.ndarray, head_sq) -> tuple[np.ndarray, np.ndarray]:
    """Rank-r lag-k regression in Gram form: ``(H, ||head - design H A'||^2)``.

    ``design`` is ``y[:n-k] Q`` on q covariance eigenvectors, ``head`` is
    ``y[k:]`` and A holds r orthonormal columns; the kernel sees only
    ``gram = design' design``, ``cross = design' head A`` and ``head_sq =
    ||head||^2``.  With ``H = gram^{-1} cross`` the residual mass is
    ``head_sq - <cross, H>``, clamped at 0 (Reinsel & Velu 1998, ch. 2).
    The arguments may carry a leading stack axis, one regression per lag.
    A numerically singular ``gram`` raises ``IllConditioned``.
    """
    vals = np.linalg.eigvalsh(gram)
    floor = _COND_FLOOR * np.maximum(vals[..., -1:], 0.0)
    if np.any(vals[..., :1] <= floor):
        raise IllConditioned(
            "projected regressor matrix is numerically singular",
            q_effective=int(np.sum(vals > floor, axis=-1).min()),
        )
    h = np.linalg.solve(gram, cross)
    return h, np.maximum(head_sq - np.sum(cross * h, axis=(-2, -1)), 0.0)


def rrr_solution(
    panel: TimePanel, k: int, q: int, r: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Closed-form rank-r regression of ``y_t`` on the projected lag ``Q'y_{t-k}``.

    Minimizes ``sum_t || y_t - A H' Q'y_{t-k} ||^2`` over p-by-r
    column-orthonormal ``A`` and q-by-r ``H``.  The minimizing ``A``
    consists of the top-r eigenvectors of
    ``Omega(k) Q (Q' Omega Q)^{-1} Q' Omega(k)'``; ``H`` is then the
    ordinary least-squares coefficient for that ``A``.

    Returns ``(A_hat, H_hat, objective)`` with the objective evaluated
    exactly on the ``n - k`` usable time points.
    """
    panel = demean(panel)
    n, p = panel.n, panel.p
    if k < 1:
        raise InvalidConfig(f"lag k must be >= 1, got {k}")
    if n - k < 2:
        raise InvalidConfig(f"lag k={k} leaves fewer than 2 usable observations")
    if not 1 <= r <= q <= min(p, n - k):
        raise InvalidConfig(
            f"need 1 <= r <= q <= min(p, n-k) = {min(p, n - k)}, got r={r}, q={q}"
        )
    wy, rows, e = _row_space(panel)
    w = _rank_q_weight(_lag0_eigen(rows), q, n)
    lag = sample_autocov(rows, k).lags[k - 1]
    u, _, _ = np.linalg.svd(_half_weighted(lag, w), full_matrices=False)
    a, a_rows = _lifted(wy, _fix_signs(u[:, :r]))
    y = rows.data  # H is invariant to the scale; the objective scales by 4**e
    design = y[: n - k] @ _lifted(wy, w.Q)[1]
    h, objective = _lag_fit(*_gram_cross(design, y[k:] @ a_rows), float(np.vdot(y[k:], y[k:])))
    return a, h, float(_in_units(objective, 2 * e, "rank-r regression objective"))


def two_step(
    panel: TimePanel, cfg: EstimatorConfig
) -> tuple[FactorFit, FactorFit, TimePanel]:
    """Fit strong factors, project them out, refit on the residuals.

    The residual rows are ``y_t - A_hat A_hat' y_t``, so factors missed
    by the first pass — typically weaker ones — dominate the second.
    Returns ``(strong, weak, residual_panel)``.
    """
    panel = demean(panel)
    strong = estimate(panel, cfg)
    resid = panel.data - strong.factors @ strong.A_hat.T
    residual_panel = _built_panel(resid, panel.names)
    weak = estimate(residual_panel, cfg)
    return strong, weak, residual_panel
