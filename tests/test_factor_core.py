"""Tests for the weight matrix, estimators, ratio rule, and rank regression."""

import dataclasses
import warnings

import numpy as np
import pytest

from tsfactor.errors import (
    DegenerateSpectrum,
    IllConditioned,
    InvalidConfig,
    InvalidData,
)
from tsfactor.factor import (
    _Q_CAP,
    EstimatorConfig,
    FactorFit,
    estimate,
    m_hat,
    per_lag_spectra,
    rrr_solution,
    select_r,
    two_step,
    weight_matrix,
)
from tsfactor.simulate import SimulationSpec, generate_two_strength, generate_uniform
from tsfactor.tsstats import (
    LagCovSet,
    TimePanel,
    demean,
    sample_autocov,
    subspace_distance,
    sym_eigen,
)


def ar_factor_panel(rng, n, p, r, phi=0.8, noise=1.0, loading_scale=1.0):
    """Panel with r autocorrelated factors plus white idiosyncratic noise."""
    load = rng.uniform(-1.0, 1.0, size=(p, r)) * loading_scale
    x = np.zeros((n, r))
    x[0] = rng.normal(size=r) / np.sqrt(1 - phi**2)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + rng.normal(size=r)
    y = x @ load.T + noise * rng.normal(size=(n, p))
    a_true = np.linalg.svd(load, full_matrices=False)[0]
    return TimePanel(y), a_true


def covset(lag0, lags, n=100):
    return LagCovSet(lag0=np.asarray(lag0, float), lags=tuple(np.asarray(L, float) for L in lags), n=n)


def dense_weight(w):
    """W = Q diag(1/theta) Q' as a p-by-p matrix."""
    return (w.Q / w.theta) @ w.Q.T


# ---------------------------------------------------------------- weights


def test_weight_identity_covariance():
    covs = covset(np.eye(4), [np.zeros((4, 4))])
    w = weight_matrix(covs, 4)
    assert np.abs(dense_weight(w) - np.eye(4)).max() <= 1e-12


def test_weight_diagonal_rank_one():
    covs = covset(np.diag([4.0, 1.0]), [np.zeros((2, 2))])
    w = weight_matrix(covs, 1)
    assert np.abs(dense_weight(w) - np.diag([0.25, 0.0])).max() <= 1e-12


def test_weight_dual_formulas_and_geninverse():
    rng = np.random.default_rng(101)
    for _ in range(10):
        root = rng.normal(size=(3, 3))
        omega = root @ root.T + 0.1 * np.eye(3)
        covs = covset(omega, [np.zeros((3, 3))])
        w = weight_matrix(covs, 2)
        dense = dense_weight(w)
        # oracle 1: generic projected-inverse formula with an independent eigh
        vals, vecs = np.linalg.eigh(omega)
        q_cols = vecs[:, np.argsort(vals)[::-1][:2]]
        w_proj = q_cols @ np.linalg.inv(q_cols.T @ omega @ q_cols) @ q_cols.T
        assert np.abs(dense - w_proj).max() <= 1e-9
        # oracle 2: eigen-sum formula
        w_sum = sum(w.theta[i] ** -1 * np.outer(w.Q[:, i], w.Q[:, i]) for i in range(2))
        assert np.abs(dense - w_sum).max() <= 1e-9
        # generalized-inverse identity on the sample covariance
        assert np.abs(dense @ omega @ dense - dense).max() <= 1e-8 * np.abs(dense).max()


def test_weight_rank_deficient_reports_admissible_q():
    covs = covset(np.diag([1.0, 1e-20, 0.0]), [np.zeros((3, 3))])
    with pytest.raises(IllConditioned) as err:
        weight_matrix(covs, 3)
    assert err.value.q_effective == 1


def test_weight_rejects_bad_q():
    covs = covset(np.eye(3), [np.zeros((3, 3))])
    with pytest.raises(InvalidConfig):
        weight_matrix(covs, 0)
    with pytest.raises(InvalidConfig):
        weight_matrix(covs, 4)


# ------------------------------------------------------------ aggregation


def test_m_hat_zero_lags():
    covs = covset(np.eye(3), [np.zeros((3, 3)), np.zeros((3, 3))])
    assert np.abs(m_hat(covs, None)).max() == 0.0


def test_m_hat_unweighted_single_lag():
    rng = np.random.default_rng(7)
    lag1 = rng.normal(size=(4, 4))
    covs = covset(np.eye(4), [lag1])
    assert np.abs(m_hat(covs, None) - lag1 @ lag1.T).max() <= 1e-12


def test_m_hat_matches_per_lag_sum():
    rng = np.random.default_rng(13)
    root = rng.normal(size=(5, 5))
    covs = covset(root @ root.T + np.eye(5), [rng.normal(size=(5, 5)) for _ in range(2)])
    w = weight_matrix(covs, 3)
    dense = dense_weight(w)
    oracle = sum(L @ dense @ L.T for L in covs.lags)
    assert np.abs(m_hat(covs, w) - oracle).max() <= 1e-10
    vals = np.linalg.eigvalsh(m_hat(covs, w))
    assert vals.min() >= -1e-10 * max(vals.max(), 0.0)


def test_per_lag_spectra_zero_lag():
    covs = covset(np.eye(3), [np.zeros((3, 3))])
    spectra = per_lag_spectra(covs, None)
    assert np.abs(spectra[0]).max() == 0.0


def test_per_lag_spectra_rank_one():
    u = np.array([1.0, 2.0, 0.0])
    v = np.array([0.0, 3.0, 4.0])
    covs = covset(np.eye(3), [np.outer(u, v)])
    vals = per_lag_spectra(covs, None)[0]
    assert vals[0] == pytest.approx((u @ u) * (v @ v), rel=1e-12)
    assert np.abs(vals[1:]).max() <= 1e-12 * vals[0]


def test_per_lag_spectra_similarity_oracle():
    rng = np.random.default_rng(17)
    root = rng.normal(size=(4, 4))
    covs = covset(root @ root.T + np.eye(4), [rng.normal(size=(4, 4))])
    w = weight_matrix(covs, 4)
    got = per_lag_spectra(covs, w)[0]
    # nonzero eigenvalues agree with those of W^(1/2) Omega' Omega W^(1/2)
    half = (w.Q / np.sqrt(w.theta)) @ w.Q.T
    sym = half @ covs.lags[0].T @ covs.lags[0] @ half
    oracle = np.sort(np.linalg.eigvalsh(sym))[::-1]
    assert np.abs(got - oracle[: len(got)]).max() <= 1e-9 * max(1.0, oracle[0])


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n, p", [(120, 30), (40, 90)])
@pytest.mark.parametrize("q", [None, 10])
def test_per_lag_spectra_match_squared_singular_values(n, p, m, q):
    # the Gram eigenvalues against the squared singular values of each
    # half-product, with and without a weight, for p < n and p > n
    panel, _ = ar_factor_panel(np.random.default_rng(n + p + m), n=n, p=p, r=2)
    covs = sample_autocov(demean(panel), m)
    w = None if q is None else weight_matrix(covs, q)
    got = per_lag_spectra(covs, w)
    assert len(got) == m
    for spectrum, lag in zip(got, covs.lags):
        half = lag if w is None else lag @ (w.Q / np.sqrt(w.theta))
        oracle = np.linalg.svd(half, compute_uv=False) ** 2
        assert spectrum.shape == oracle.shape == (p if q is None else q,)
        assert spectrum.min() >= 0.0
        assert np.abs(spectrum - oracle).max() <= 1e-13 * oracle[0]


@pytest.mark.parametrize("power", [40, -40])
@pytest.mark.parametrize("n, p", [(150, 20), (40, 70)])
def test_spectra_scale_exactly_with_a_power_of_two(n, p, power):
    # each half-product is scaled by a power of two before its Gram is
    # formed, so the spectra carry the data's scale without rounding:
    # 2**(4 * power) for auto, 2**(2 * power) for wauto (the rank rule's
    # offsets are absolute, so r_hat and a scanned q may move; q is fixed)
    y = ar_factor_panel(np.random.default_rng(n * p), n=n, p=p, r=2)[0].data
    configs = (
        (EstimatorConfig(method="auto", m=1), 4),
        (EstimatorConfig(method="auto", m=2), 4),
        (EstimatorConfig(method="wauto", m=1, q=6), 2),
        (EstimatorConfig(method="wauto", m=2, q=6), 2),
    )
    for cfg, degree in configs:
        base = estimate(TimePanel(y), cfg)
        moved = estimate(TimePanel(np.ldexp(y, power)), cfg)
        for got, want in zip(moved.eigenvalues_per_lag, base.eigenvalues_per_lag, strict=True):
            assert np.array_equal(got, np.ldexp(want, degree * power))


@pytest.mark.parametrize("power", [250, 300, -300, -400])
def test_loadings_are_bit_identical_at_extreme_powers_of_two(power):
    # every moment is formed on the data scaled by 2**-e, e the binary
    # exponent of max|y|, so a fit at any power of two runs on the same
    # numbers.  LAPACK rescales a matrix past about 1e145 by a factor that
    # is not a power of two, so cov and wauto used to round differently at
    # 2**250; auto took its m = 2 basis from lag products that underflow at
    # 2**-300.  auto's spectra overflow from about 1e77: negative powers only.
    y = generate_uniform(SimulationSpec(model="uniform", p=100, n=300, r0=3), 0)[0].data
    configs = [
        EstimatorConfig(method="cov", r_fixed=2),
        EstimatorConfig(method="wauto", q=5, r_fixed=2),
        EstimatorConfig(method="wauto", r_fixed=2),
    ]
    if power < 0:
        configs += [EstimatorConfig(method="auto", m=m, r_fixed=2) for m in (1, 2)]
    for cfg in configs:
        base = estimate(TimePanel(y), cfg)
        moved = estimate(TimePanel(np.ldexp(y, power)), cfg)
        assert moved.q_used == base.q_used
        assert np.array_equal(moved.A_hat, base.A_hat)
        for got, want in zip(moved.H_hat or (), base.H_hat or (), strict=True):
            assert np.array_equal(got, want)


def test_every_method_fits_data_times_1e_minus_200():
    # 1e-200 is not a power of two, and the lag products, near 1e-400, used
    # to underflow: cov raised DegenerateSpectrum, wauto IllConditioned, and
    # auto returned loadings at distance 0.98 with no error
    y = generate_two_strength(
        SimulationSpec(model="twostrength", p=100, n=200, r0=2, r1=2, delta1=0.5), 0
    )[0].data
    configs = [
        EstimatorConfig(method="cov"),
        EstimatorConfig(method="cov", r_fixed=2),
        EstimatorConfig(method="wauto", q=5, r_fixed=2),
        EstimatorConfig(method="wauto", r_fixed=2),
    ]
    configs += [EstimatorConfig(method="auto", m=m, r_fixed=2) for m in (1, 2)]
    for cfg in configs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = estimate(TimePanel(1e-200 * y), cfg)
        if fit.bic_trace is not None:
            # the residual means, near 1e-400, underflow in the data's units;
            # the ratio offsets are absolute, so q_hat is the one at 2**-300
            assert np.isfinite(fit.bic_trace.totals).all()
            assert fit.q_used == estimate(TimePanel(np.ldexp(y, -300)), cfg).q_used == 10
            cfg = dataclasses.replace(cfg, q=fit.q_used)
        base = estimate(TimePanel(y), cfg)
        assert (fit.r_hat, fit.q_used) == (base.r_hat, base.q_used)
        assert subspace_distance(fit.A_hat, base.A_hat) <= 1e-12


def record_decompositions(monkeypatch):
    """Orders of every ``svd``, ``eigh`` and ``eigvalsh`` call, by routine."""
    calls = {"svd": [], "eigh": [], "eigvalsh": []}
    for name in calls:
        routine = getattr(np.linalg, name)

        def recorded(mat, *args, _routine=routine, _name=name, **kwargs):
            calls[_name].append(np.shape(mat))
            return _routine(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return calls


def test_a_scanned_wauto_fit_makes_one_svd_and_auto_at_one_lag_one_eigensolve(monkeypatch):
    n, p = 200, 40
    panel = generate_two_strength(
        SimulationSpec(model="twostrength", p=p, n=n, r0=2, r1=2, delta1=0.5), 3
    )[0]
    calls = record_decompositions(monkeypatch)
    fit = estimate(panel, EstimatorConfig(method="wauto", q="auto"))
    # the stacked half-products for the basis; one p-by-p eigensolve, of lag 0
    assert calls["svd"] == [(p, 2 * fit.q_used)]
    assert [s for s in calls["eigh"] + calls["eigvalsh"] if s[0] > _Q_CAP] == [(p, p)]
    monkeypatch.undo()
    calls = record_decompositions(monkeypatch)
    estimate(panel, EstimatorConfig(method="auto", m=1))
    assert calls == {"svd": [], "eigh": [(p, p)], "eigvalsh": []}


def test_auto_at_one_lag_matches_the_m_hat_route():
    # the one lag's Gram is m_hat: the spectrum and the basis from one eigensolve
    for p, n in ((30, 150), (90, 40)):
        panel, _ = ar_factor_panel(np.random.default_rng(p), n=n, p=p, r=2)
        fit = estimate(panel, EstimatorConfig(method="auto", m=1))
        covs = sample_autocov(demean(panel), 1)
        want = sym_eigen(m_hat(covs), fit.r_hat).vectors
        assert subspace_distance(fit.A_hat, want) <= 1e-10
        spectrum = np.linalg.svd(covs.lags[0], compute_uv=False) ** 2
        assert np.abs(fit.eigenvalues_per_lag[0] - spectrum).max() <= 1e-13 * spectrum[0]


# ------------------------------------------------------------- ratio rule


def test_select_r_direct_example():
    r_hat, ratios = select_r([np.array([10.0, 0.1, 0.1, 0.1])], n=100, vartheta=0.1, r_max=3)
    assert r_hat == 1
    # weighted lead spectrum: 0.99*10 + 0.1 over 0.99*0.1 + 0.1
    assert ratios[0] == pytest.approx(10.0 / 0.199, rel=1e-12)
    assert ratios[0] == pytest.approx(50.25, abs=5e-3)
    assert np.allclose(ratios[1:], [1.0, 1.0], atol=1e-12)


def test_select_r_flat_spectrum_tie_breaks_low():
    r_hat, ratios = select_r([np.ones(5)], n=50, vartheta=0.5, r_max=4)
    assert r_hat == 1
    assert np.allclose(ratios, 1.0)


def test_select_r_zero_denominator_without_offset():
    with pytest.raises(DegenerateSpectrum):
        select_r([np.array([1.0, 0.0, 0.0])], n=50, vartheta=0.0, r_max=2)


def test_select_r_lag_weights():
    # two lags with different spectra: weights (1-1/n) and (1-2/n)
    s1 = np.array([4.0, 2.0, 1.0])
    s2 = np.array([9.0, 3.0, 1.0])
    n, vt = 10, 0.25
    _, ratios = select_r([s1, s2], n=n, vartheta=vt, r_max=2)
    cum = (1 - 1 / n) * s1 + (1 - 2 / n) * s2
    assert np.allclose(ratios, (cum[:2] + vt) / (cum[1:] + vt), atol=1e-14)


def test_select_r_rejects_short_spectrum():
    with pytest.raises(InvalidConfig):
        select_r([np.array([1.0, 0.5])], n=20, vartheta=0.1, r_max=2)


# -------------------------------------------------------------- estimate


def test_estimate_noiseless_recovers_span_exactly():
    rng = np.random.default_rng(23)
    a_true, _ = np.linalg.qr(rng.normal(size=(12, 2)))
    x = np.zeros((200, 2))
    for t in range(1, 200):
        x[t] = np.array([0.9, -0.8]) * x[t - 1] + rng.normal(size=2)
    panel = TimePanel(x @ a_true.T)
    fit = estimate(panel, EstimatorConfig(method="wauto", q=2, r_fixed=2))
    assert fit.r_hat == 2
    assert subspace_distance(fit.A_hat, a_true) <= 1e-6


def test_estimate_selects_rank_on_planted_panel():
    rng = np.random.default_rng(29)
    panel, a_true = ar_factor_panel(rng, n=400, p=30, r=2, noise=0.3)
    for method in ("cov", "auto", "wauto"):
        fit = estimate(panel, EstimatorConfig(method=method))
        assert fit.r_hat == 2
        assert subspace_distance(fit.A_hat, a_true) <= 0.2


def test_estimate_white_noise_panel_keeps_contract():
    rng = np.random.default_rng(31)
    panel = TimePanel(rng.normal(size=(150, 10)))
    fit = estimate(panel, EstimatorConfig(method="auto"))
    assert np.abs(fit.A_hat.T @ fit.A_hat - np.eye(fit.r_hat)).max() <= 1e-8
    assert fit.ratios.shape == (9,)  # search runs over the full spectrum
    assert np.all(fit.ratios >= 1.0 - 1e-12)  # descending spectra


def test_estimate_factors_are_projections():
    rng = np.random.default_rng(37)
    panel, _ = ar_factor_panel(rng, n=150, p=8, r=1)
    fit = estimate(panel, EstimatorConfig(method="cov", r_fixed=1))
    centered = panel.data - panel.data.mean(axis=0)
    assert np.abs(fit.factors - centered @ fit.A_hat).max() <= 1e-12


def test_estimate_rotation_equivariance_all_methods():
    rng = np.random.default_rng(41)
    panel, _ = ar_factor_panel(rng, n=120, p=12, r=2, noise=0.5)
    orth, _ = np.linalg.qr(rng.normal(size=(12, 12)))
    rotated = TimePanel(panel.data @ orth.T)
    for method in ("cov", "auto", "wauto"):
        base = estimate(panel, EstimatorConfig(method=method))
        rot = estimate(rotated, EstimatorConfig(method=method))
        assert rot.r_hat == base.r_hat
        for s_base, s_rot in zip(base.eigenvalues_per_lag, rot.eigenvalues_per_lag):
            scale = max(s_base.max(), 1e-30)
            assert np.abs(s_base - s_rot).max() <= 1e-8 * scale
        assert subspace_distance(rot.A_hat, orth @ base.A_hat) <= 1e-7


def test_estimate_wauto_rrr_equivalence():
    rng = np.random.default_rng(43)
    panel, _ = ar_factor_panel(rng, n=200, p=10, r=2, noise=0.5)
    fit = estimate(panel, EstimatorConfig(method="wauto", m=1, q=4, r_fixed=2))
    a_rrr, _, _ = rrr_solution(panel, k=1, q=4, r=2)
    assert subspace_distance(fit.A_hat, a_rrr) <= 1e-8


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("seed", range(3))
def test_wauto_basis_matches_the_dense_weighted_m_hat(seed, m):
    # the stacked-SVD basis against the signed top-r eigenvectors of the
    # p-by-p aggregate sum_k Omega(k) W Omega(k)'
    panels = (
        generate_uniform(SimulationSpec(model="uniform", p=100, n=300, r0=3), seed)[0],
        generate_two_strength(
            SimulationSpec(model="twostrength", p=60, n=200, r0=2, r1=2, delta1=0.5), seed
        )[0],
        ar_factor_panel(np.random.default_rng(seed), n=150, p=10, r=2)[0],
    )
    for panel in panels:
        for q in ("auto", 6):
            fit = estimate(panel, EstimatorConfig(method="wauto", m=m, q=q))
            covs = sample_autocov(demean(panel), m)
            dense = m_hat(covs, weight_matrix(covs, fit.q_used))
            want = sym_eigen(dense, fit.r_hat).vectors
            assert np.abs(fit.A_hat - want).max() <= 1e-12


def test_auto_at_data_times_1e140_says_the_data_are_too_large():
    # the lag products fit, but auto's squared singular values overflow: the
    # typed error must come before any numpy warning, and wauto still fits
    panel = TimePanel(1e140 * np.random.default_rng(0).standard_normal((200, 100)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidData, match="^per-lag spectrum overflows: the data are too large$"):
            estimate(panel, EstimatorConfig(method="auto"))
        assert estimate(panel, EstimatorConfig(method="wauto")).r_hat >= 1


def test_estimate_wauto_records_q_and_h():
    rng = np.random.default_rng(47)
    panel, _ = ar_factor_panel(rng, n=150, p=10, r=1)
    fit = estimate(panel, EstimatorConfig(method="wauto", q=5))
    assert fit.q_used == 5
    assert len(fit.H_hat) == 2
    assert fit.H_hat[0].shape == (5, fit.r_hat)


def test_estimate_config_validation():
    with pytest.raises(InvalidConfig):
        EstimatorConfig(method="pca")
    with pytest.raises(InvalidConfig):
        EstimatorConfig(m=0)
    with pytest.raises(InvalidConfig):
        EstimatorConfig(vartheta_scale=-0.1)
    with pytest.raises(InvalidConfig):
        EstimatorConfig(q=5, r_search_max=5)
    rng = np.random.default_rng(53)
    panel = TimePanel(rng.normal(size=(40, 6)))
    with pytest.raises(InvalidConfig):
        estimate(panel, EstimatorConfig(method="wauto", q=41))
    with pytest.raises(InvalidConfig):
        estimate(panel, EstimatorConfig(method="cov", r_search_max=3, r_fixed=4))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_offsets_and_penalties_are_named(value):
    # a nan offset used to pick r = 1, and an infinite one to warn in the ratio rule
    with pytest.raises(InvalidConfig, match="vartheta_scale must be finite"):
        EstimatorConfig(vartheta_scale=value)
    with pytest.raises(InvalidConfig, match="bic_c must be finite"):
        EstimatorConfig(bic_c=value)
    with pytest.raises(InvalidConfig, match="vartheta must be finite"):
        select_r([np.array([4.0, 2.0, 1.0])], 50, value, 2)


def test_factor_fit_rejects_nonorthonormal_loadings():
    with pytest.raises(InvalidData):
        FactorFit(
            method="cov",
            r_hat=1,
            A_hat=np.array([[1.0], [1.0]]),
            factors=np.zeros((5, 1)),
            eigenvalues_per_lag=(np.array([1.0]),),
            ratios=np.array([1.0]),
        )


# ------------------------------------------------------ rank regression


def test_rrr_planted_exact_fit():
    # Rows live in span(plane + s); the lag-2 map sends everything to the
    # plane through a 120-degree rotation, so a rank-2 fit is exact while
    # the covariances still have rank 3 (needed for q = 3 > r).
    rng = np.random.default_rng(59)
    basis, _ = np.linalg.qr(rng.normal(size=(6, 3)))
    plane, s = basis[:, :2], basis[:, 2]
    ang = 2 * np.pi / 3
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    n = 12  # each lag-2 chain holds 6 rows, a multiple of the rotation period
    rows = np.zeros((n, 6))
    a1, a2 = rng.normal(size=2), rng.normal(size=2)
    rows[0] = plane @ a1 + 2.0 * s
    rows[1] = plane @ a2 - 2.0 * s
    for t in range(2, n):
        rows[t] = plane @ (rot @ (plane.T @ rows[t - 2]))
    assert np.abs(rows.mean(axis=0)).max() <= 1e-13  # zero by rotation periodicity
    panel = TimePanel(rows, demeaned=True)
    a_hat, h_hat, objective = rrr_solution(panel, k=2, q=3, r=2)
    assert objective <= 1e-8 * np.sum(rows**2)
    assert subspace_distance(a_hat, plane) <= 1e-6


def test_rrr_beats_random_restarts():
    rng = np.random.default_rng(61)
    for _ in range(20):
        panel, _ = ar_factor_panel(rng, n=50, p=6, r=2, noise=0.7)
        panel = demean(panel)
        a_hat, h_hat, objective = rrr_solution(panel, k=1, q=4, r=2)
        y = panel.data
        covs = sample_autocov(panel, 1)
        q_cols = weight_matrix(covs, 4).Q
        ytil = y[:-1] @ q_cols
        gram_inv = np.linalg.inv(ytil.T @ ytil)
        for _ in range(100):
            cand, _ = np.linalg.qr(rng.normal(size=(6, 2)))
            h = gram_inv @ ytil.T @ (y[1:] @ cand)
            resid = y[1:] - ytil @ h @ cand.T
            assert objective <= np.sum(resid**2) + 1e-9
        # the returned pair itself reproduces the reported objective
        resid = y[1:] - (ytil @ h_hat) @ a_hat.T
        assert objective == pytest.approx(float(np.sum(resid**2)), rel=1e-12)


def test_rrr_scalar_panel():
    rng = np.random.default_rng(67)
    series = np.zeros(60)
    for t in range(1, 60):
        series[t] = 0.7 * series[t - 1] + rng.normal()
    panel = demean(TimePanel(series.reshape(-1, 1)))
    a_hat, h_hat, objective = rrr_solution(panel, k=1, q=1, r=1)
    assert a_hat.shape == (1, 1) and abs(abs(a_hat[0, 0]) - 1.0) <= 1e-12
    y = panel.data[:, 0]
    slope = np.sum(y[1:] * y[:-1]) / np.sum(y[:-1] ** 2)
    assert float(h_hat[0, 0] * a_hat[0, 0]) == pytest.approx(slope, rel=1e-10)
    assert objective == pytest.approx(float(np.sum((y[1:] - slope * y[:-1]) ** 2)), rel=1e-10)


def test_rrr_rejects_bad_ranks():
    rng = np.random.default_rng(71)
    panel = TimePanel(rng.normal(size=(30, 5)))
    with pytest.raises(InvalidConfig):
        rrr_solution(panel, k=0, q=3, r=1)
    with pytest.raises(InvalidConfig):
        rrr_solution(panel, k=1, q=6, r=1)
    with pytest.raises(InvalidConfig):
        rrr_solution(panel, k=1, q=3, r=4)


# --------------------------------------------------------------- two-step


def test_two_step_residuals_orthogonal_to_strong_loadings():
    rng = np.random.default_rng(73)
    panel, _ = ar_factor_panel(rng, n=200, p=15, r=2, noise=0.5)
    strong, weak, resid = two_step(panel, EstimatorConfig(method="wauto", q=6))
    assert np.abs(resid.data @ strong.A_hat).max() <= 1e-10
    assert np.abs(weak.A_hat.T @ weak.A_hat - np.eye(weak.r_hat)).max() <= 1e-8
    # distance between the two loading spaces is well-defined
    d = subspace_distance(strong.A_hat, weak.A_hat)
    assert 0.0 <= d <= 1.0


def test_two_step_fits_the_residuals_of_an_exact_low_rank_panel():
    # The residuals of an exact rank-2 panel are 1e-12 noise whose column
    # means carry round-off of the data's size; they must not be held to the
    # zero-mean check of a panel a caller flags as demeaned.
    rng = np.random.default_rng(1)
    y = rng.standard_normal((100, 2)) @ rng.standard_normal((30, 2)).T
    panel = TimePanel(y + 1e-12 * rng.standard_normal((100, 30)))
    for method in ("cov", "auto"):
        strong, weak, resid = two_step(panel, EstimatorConfig(method=method, r_fixed=2))
        assert (strong.r_hat, weak.r_hat) == (2, 2)
        assert resid.demeaned and not resid.data.flags.writeable
    with pytest.raises(IllConditioned):  # rank 2 admits no q = 15 weight
        two_step(panel, EstimatorConfig(method="wauto", r_fixed=2))


def test_two_step_recovers_both_ranks_in_majority():
    """Strong and weak ranks are both found in most replications.

    On strong-plus-weak panels large enough that the first-pass loading
    error stays small (p=100, n=800), the two-pass estimate reports
    r_hat = 3 for the strong fit and r_hat = 3 for the weak fit in a
    majority of 200 seeded replications.
    """
    from tsfactor.simulate import SimulationSpec, generate_two_strength

    spec = SimulationSpec(
        model="twostrength", p=100, n=800, r0=3, r1=3, delta0=1.0, delta1=1.0
    )
    cfg = EstimatorConfig(method="wauto", m=2, q=15)
    hits = 0
    for rep in range(200):
        panel, _, _ = generate_two_strength(
            spec, np.random.default_rng(np.random.SeedSequence((59, rep)))
        )
        strong, weak, _ = two_step(panel, cfg)
        hits += (strong.r_hat == 3) and (weak.r_hat == 3)
    assert hits > 100, f"both ranks correct in only {hits}/200 replications"


# ------------------------------------------------------- short series


@pytest.mark.parametrize("n, p, m", [(12, 40, 2), (20, 60, 3), (9, 30, 2)])
def test_wauto_default_ceiling_fits_short_series(n, p, m):
    # The lag-m regression has only n - m rows, so the default q ceiling
    # must stay within them for p > n panels.
    rng = np.random.default_rng(79)
    fit = estimate(TimePanel(rng.standard_normal((n, p))), EstimatorConfig(method="wauto", m=m))
    assert 1 <= fit.q_used <= n - m
    assert len(fit.H_hat) == m


def test_cov_default_window_stops_below_the_covariance_rank():
    # A demeaned 10-row panel has covariance rank 9: the default window
    # ends at n - 2 = 8 ratios, so no zero eigenvalue sits under a ratio.
    rng = np.random.default_rng(83)
    fit = estimate(TimePanel(rng.standard_normal((10, 30))), EstimatorConfig(method="cov"))
    assert fit.ratios.shape == (8,)
    assert np.all(np.isfinite(fit.ratios))


@pytest.mark.parametrize("method", ["cov", "auto", "wauto"])
def test_loadings_own_their_memory(method):
    # A view into the full eigenvector matrix would keep p*p floats alive
    # for as long as the caller keeps the fit.
    rng = np.random.default_rng(89)
    panel, _ = ar_factor_panel(rng, n=120, p=20, r=2)
    fit = estimate(panel, EstimatorConfig(method=method))
    assert fit.A_hat.base is None


def test_wauto_rejects_q_beyond_the_lag_regression_rows():
    # n=12, m=2: the lag-2 regression has n - m = 10 rows, so q=11 leaves
    # its projected design singular; say so up front instead.
    panel = TimePanel(np.random.default_rng(0).standard_normal((12, 40)))
    assert estimate(panel, EstimatorConfig(method="wauto", m=2, q=10)).q_used == 10
    with pytest.raises(InvalidConfig, match="n - m = 10"):
        estimate(panel, EstimatorConfig(method="wauto", m=2, q=11))
