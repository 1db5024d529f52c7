"""Tests for row/column factor estimation on matrix-valued series."""

import warnings

import numpy as np
import pytest

from tsfactor.errors import (
    DegenerateSpectrum,
    IllConditioned,
    InvalidConfig,
    InvalidData,
)
from tsfactor.factor import m_hat, weight_matrix
from tsfactor.matrixfactor import (
    MatrixFactorFit,
    MatrixPanel,
    estimate_matrix,
    m_hat_rows,
)
from tsfactor.tsstats import TimePanel, demean, sample_autocov, subspace_distance


def planted_panel(seed, n=400, p1=20, p2=20, d1=2, d2=2, noise=1.0, burn=200):
    """Y_t = R X_t C' + E_t with AR(1) factor entries and uniform loadings."""
    rng = np.random.default_rng(seed)
    load_r = rng.uniform(-1, 1, size=(p1, d1))
    load_c = rng.uniform(-1, 1, size=(p2, d2))
    signs = np.where(rng.random((d1, d2)) < 0.5, -1.0, 1.0)
    phi = signs * rng.uniform(0.7, 0.95, size=(d1, d2))
    total = burn + n
    x = np.zeros((total, d1, d2))
    x[0] = rng.standard_normal((d1, d2)) / np.sqrt(1 - phi**2)
    shocks = rng.standard_normal((total, d1, d2))
    for t in range(1, total):
        x[t] = phi * x[t - 1] + shocks[t]
    e = noise * rng.standard_normal((total, p1, p2))
    y = np.einsum("au,tuv,bv->tab", load_r, x, load_c) + e
    u_r = np.linalg.svd(load_r, full_matrices=False)[0]
    u_c = np.linalg.svd(load_c, full_matrices=False)[0]
    return MatrixPanel(y[burn:]), u_r, u_c


def slice_cross_cov(data, k, i, j):
    """Lag-k cross-covariance of column slices i and j of demeaned (n, p1, p2) data."""
    n = data.shape[0]
    return data[k:, :, i].T @ data[: n - k, :, j] / (n - k)


def double_loop_cross_cov(data, k, i, j):
    """:func:`slice_cross_cov` as a sum of outer products over time."""
    n, p = data.shape[:2]
    out = np.zeros((p, p))
    for t in range(k, n):
        out += np.outer(data[t, :, i], data[t - k, :, j])
    return out / (n - k)


def dense_weight_row_aggregate(data, m, q, cross_cov):
    """sum_k sum_ij Omega_ij(k) W_j Omega_ij(k)' with each W_j = Q (Q' S_j Q)^-1 Q'
    formed densely from slice j's lag-0 covariance S_j."""
    centered = data - data.mean(axis=0)
    p1, p2 = centered.shape[1:]
    out = np.zeros((p1, p1))
    for j in range(p2):
        s0 = cross_cov(centered, 0, j, j)
        vals, vecs = np.linalg.eigh(s0)
        q_cols = vecs[:, np.argsort(vals)[::-1][:q]]
        w = q_cols @ np.linalg.inv(q_cols.T @ s0 @ q_cols) @ q_cols.T
        for k in range(1, m + 1):
            for i in range(p2):
                om = cross_cov(centered, k, i, j)
                out += om @ w @ om.T
    return out


def unweighted_row_aggregate(data, m):
    """Plain sum_k sum_ij Omega_ij(k) Omega_ij(k)' built slice pair by slice pair."""
    centered = data - data.mean(axis=0)
    p1, p2 = centered.shape[1:]
    out = np.zeros((p1, p1))
    for k in range(1, m + 1):
        for i in range(p2):
            for j in range(p2):
                om = slice_cross_cov(centered, k, i, j)
                out += om @ om.T
    return out


# --------------------------------------------------------------- panel type


def test_panel_validation():
    with pytest.raises(InvalidData):
        MatrixPanel(np.zeros((5, 4)))
    with pytest.raises(InvalidData):
        MatrixPanel(np.zeros((1, 2, 2)))
    bad = np.zeros((4, 2, 2))
    bad[1, 0, 1] = np.inf
    with pytest.raises(InvalidData):
        MatrixPanel(bad)


def test_panel_keeps_a_read_only_copy():
    raw = np.random.default_rng(4).standard_normal((6, 3, 2))
    panel = MatrixPanel(raw)
    assert not panel.data.flags.writeable
    raw[0, 0, 0] = 99.0
    assert panel.data[0, 0, 0] != 99.0


# --------------------------------------------------------- cross-covariances


def test_cross_autocov_matches_double_loop_oracle():
    # the lag blocks both sides read, each summed over time step by time step
    data = np.random.default_rng(7).standard_normal((25, 4, 3))
    panel = MatrixPanel(data)
    want = dense_weight_row_aggregate(data, 2, 3, double_loop_cross_cov)
    assert np.abs(m_hat_rows(panel, m=2, q1=3) - want).max() <= 1e-10
    flipped = data.transpose(0, 2, 1)
    want = dense_weight_row_aggregate(flipped, 2, 2, double_loop_cross_cov)
    assert np.abs(m_hat_rows(MatrixPanel(flipped), m=2, q1=2) - want).max() <= 1e-10


def test_row_slice_covariance_is_transposed_column_slice():
    # the column side reads the panel's row slices as the transposed panel's
    # column slices, so its fit is the transposed panel's row fit
    data = np.random.default_rng(3).standard_normal((20, 4, 3)) + 5.0
    fit = estimate_matrix(MatrixPanel(data), m=2)
    flipped = estimate_matrix(MatrixPanel(data.transpose(0, 2, 1)), m=2)
    assert fit.d2 == flipped.d1
    assert np.abs(fit.C_hat - flipped.R_hat).max() <= 1e-12
    np.testing.assert_allclose(fit.col_spectrum, flipped.row_spectrum, rtol=1e-12)


# ------------------------------------------------------------- aggregates


def test_single_column_panel_reduces_to_vector_pipeline():
    rng = np.random.default_rng(11)
    y = rng.standard_normal((80, 7))
    covs = sample_autocov(demean(TimePanel(y)), 2)
    want = m_hat(covs, weight_matrix(covs, 4))
    got = m_hat_rows(MatrixPanel(y[:, :, None]), m=2, q1=4)
    assert np.abs(want - got).max() <= 1e-10
    # the lag blocks agree as well
    centered = (y - y.mean(axis=0))[:, :, None]
    assert np.abs(slice_cross_cov(centered, 2, 0, 0) - covs.lags[1]).max() <= 1e-12


def test_m_hat_rows_matches_dense_weight_oracle():
    # both sides; the column side is the row side of the transposed panel
    data = np.random.default_rng(13).standard_normal((25, 4, 3))
    panel = MatrixPanel(data)
    want = dense_weight_row_aggregate(data, 2, 3, slice_cross_cov)
    assert np.abs(m_hat_rows(panel, m=2, q1=3) - want).max() <= 1e-10
    flipped = data.transpose(0, 2, 1)
    want = dense_weight_row_aggregate(flipped, 2, 2, slice_cross_cov)
    assert np.abs(m_hat_rows(MatrixPanel(flipped), m=2, q1=2) - want).max() <= 1e-10


def test_m_hat_rows_symmetric_psd_and_validated():
    rng = np.random.default_rng(17)
    panel = MatrixPanel(rng.standard_normal((40, 5, 4)))
    m1 = m_hat_rows(panel, m=2)
    assert np.array_equal(m1, m1.T)
    vals = np.linalg.eigvalsh(m1)
    assert vals.min() >= -1e-10 * vals.max()
    with pytest.raises(InvalidConfig):
        m_hat_rows(panel, m=0)
    with pytest.raises(InvalidConfig):
        m_hat_rows(panel, m=2, q1=6)
    with pytest.raises(InvalidConfig):
        m_hat_rows(MatrixPanel(rng.standard_normal((4, 3, 2))), m=4)


def test_rank_deficient_slice_is_named():
    rng = np.random.default_rng(19)
    data = rng.standard_normal((30, 4, 3))
    data[:, :, 1] = 0.0
    with pytest.raises(IllConditioned) as err:
        m_hat_rows(MatrixPanel(data), m=1, q1=2)
    assert "column slice 1" in str(err.value)
    assert err.value.q_effective == 0


def test_rank_deficient_row_slice_is_named_on_the_column_side():
    rng = np.random.default_rng(19)
    data = rng.standard_normal((30, 4, 3))
    data[:, 1, :] = 0.0
    with pytest.raises(IllConditioned) as err:
        estimate_matrix(MatrixPanel(data), m=1, q1=2, q2=2)
    assert "row slice 1" in str(err.value)
    assert err.value.q_effective == 0


# ---------------------------------------------------------------- estimate


def test_a_fit_builds_two_time_panels_and_checks_demeaning_once(monkeypatch):
    # the flat panel and its memoized demeaned copy, which demean builds
    # unchecked; both sides share them
    data = np.random.default_rng(37).standard_normal((60, 5, 4))
    built = []
    post_init = TimePanel.__post_init__

    def counted(self):
        built.append(self.demeaned)
        post_init(self)

    monkeypatch.setattr(TimePanel, "__post_init__", counted)
    estimate_matrix(MatrixPanel(data), m=2)
    assert built == [False]


def test_planted_model_recovers_both_loading_spaces():
    for seed in (0, 1, 2):
        panel, u_r, u_c = planted_panel(seed)
        fit = estimate_matrix(panel, m=2, d1=2, d2=2)
        assert subspace_distance(fit.R_hat, u_r) <= 0.15
        assert subspace_distance(fit.C_hat, u_c) <= 0.15
        auto = estimate_matrix(panel, m=2)
        assert (auto.d1, auto.d2) == (2, 2)


def test_transpose_duality_swaps_row_and_column_estimates():
    panel, _, _ = planted_panel(99)
    fit = estimate_matrix(panel, m=2, d1=2, d2=2)
    flipped = estimate_matrix(
        MatrixPanel(panel.data.transpose(0, 2, 1)), m=2, d1=2, d2=2
    )
    assert subspace_distance(fit.R_hat, flipped.C_hat) <= 1e-8
    assert subspace_distance(fit.C_hat, flipped.R_hat) <= 1e-8
    assert np.abs(fit.row_spectrum - flipped.col_spectrum).max() <= 1e-8 * fit.row_spectrum[0]


def test_full_rank_fit_returns_orthonormal_bases():
    rng = np.random.default_rng(23)
    panel = MatrixPanel(rng.standard_normal((30, 4, 3)))
    fit = estimate_matrix(panel, m=1, q1=4, q2=3, d1=4, d2=3)
    assert np.allclose(fit.R_hat.T @ fit.R_hat, np.eye(4), atol=1e-10)
    assert np.allclose(fit.C_hat.T @ fit.C_hat, np.eye(3), atol=1e-10)
    assert fit.row_spectrum.shape == (4,)
    assert np.all(np.diff(fit.row_spectrum) <= 1e-12 * max(fit.row_spectrum[0], 1.0))


def test_estimate_matrix_validates_arguments():
    rng = np.random.default_rng(29)
    panel = MatrixPanel(rng.standard_normal((30, 4, 3)))
    with pytest.raises(InvalidConfig):
        estimate_matrix(panel, d1=5)
    with pytest.raises(InvalidConfig):
        estimate_matrix(panel, q1=2, d1=3)
    for bad in (-0.1, float("nan"), float("inf")):  # nan used to give d1 = 1
        with pytest.raises(InvalidConfig, match="vartheta_scale"):
            estimate_matrix(panel, vartheta_scale=bad)
    with pytest.raises(InvalidConfig):
        estimate_matrix(panel, q2=1)  # rank search needs q >= 2


def test_fit_invariants_are_enforced():
    good = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 2)))[0]
    with pytest.raises(InvalidData):
        MatrixFactorFit(
            R_hat=good * 1.1,
            C_hat=good,
            d1=2,
            d2=2,
            row_spectrum=np.array([2.0, 1.0, 0.5, 0.1]),
            col_spectrum=np.array([2.0, 1.0, 0.5, 0.1]),
            row_ratios=np.empty(0),
            col_ratios=np.empty(0),
            q1_used=4,
            q2_used=4,
        )
    with pytest.raises(InvalidData):
        MatrixFactorFit(
            R_hat=good,
            C_hat=good,
            d1=2,
            d2=2,
            row_spectrum=np.array([1.0, 2.0, 0.5, 0.1]),
            col_spectrum=np.array([2.0, 1.0, 0.5, 0.1]),
            row_ratios=np.empty(0),
            col_ratios=np.empty(0),
            q1_used=4,
            q2_used=4,
        )


# ----------------------------------------------------- mixing invariance


def test_unweighted_aggregate_spectrum_invariant_under_column_mixing():
    rng = np.random.default_rng(31)
    panel, _, _ = planted_panel(5, n=120, p1=8, p2=6, noise=1.0)
    mix = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    before = np.sort(np.linalg.eigvalsh(unweighted_row_aggregate(panel.data, 2)))
    after = np.sort(np.linalg.eigvalsh(unweighted_row_aggregate(panel.data @ mix, 2)))
    assert np.abs(before - after).max() <= 1e-8 * max(before.max(), 1.0)


def test_estimated_row_space_stable_under_column_mixing():
    # The calibration weights are built per column slice, so the weighted
    # aggregate's spectrum shifts by a few percent under column mixing;
    # the estimated subspace and rank stay put.
    panel, _, _ = planted_panel(0)
    rng = np.random.default_rng(41)
    mix = np.linalg.qr(rng.standard_normal((panel.p2, panel.p2)))[0]
    fit = estimate_matrix(panel, m=2, d1=2, d2=2)
    mixed = estimate_matrix(MatrixPanel(panel.data @ mix), m=2, d1=2, d2=2)
    assert subspace_distance(fit.R_hat, mixed.R_hat) <= 0.05
    assert estimate_matrix(MatrixPanel(panel.data @ mix), m=2).d1 == 2


def degenerate_row_panel():
    """Rows (u_t, v_t) whose v-row of every lag-1 autocovariance is exactly 0.

    v is nonzero only at t = 0 and t = 2, and the row before t = 2 is 0, so
    each product v_t y_{t-1} vanishes; both rows have mean exactly 0 and a
    full-rank lag-0 covariance.  The row aggregate is diag(x, 0).
    """
    u = [1.0, 0.0, -2.0, 0.5, 0.5]
    v = [1.0, 0.0, -1.0, 0.0, 0.0]
    return np.array([u, v]).T[:, :, None]


def test_degenerate_spectrum_without_offset_raises_degenerate_spectrum():
    panel = MatrixPanel(degenerate_row_panel())
    with pytest.raises(DegenerateSpectrum):
        estimate_matrix(panel, m=1, d2=1, vartheta_scale=0.0)
    with pytest.raises(DegenerateSpectrum):  # also when the rank is fixed
        estimate_matrix(panel, m=1, d1=1, d2=1, vartheta_scale=0.0)
    fit = estimate_matrix(panel, m=1, d2=1)  # an offset keeps the ratio defined
    assert fit.d1 == 1 and fit.row_spectrum[1] == 0.0


@pytest.mark.parametrize("scale", [1e9, 1e12, 1e-200])
def test_large_scale_data_fit_like_the_unscaled_data(scale):
    # at 1e-200 the slice covariances, near 1e-400, used to underflow and
    # the fit raised IllConditioned
    panel, _, _ = planted_panel(4, n=150, p1=8, p2=6)
    base = estimate_matrix(panel, m=2, d1=2, d2=2)
    fit = estimate_matrix(MatrixPanel(scale * panel.data), m=2, d1=2, d2=2)
    assert subspace_distance(fit.R_hat, base.R_hat) <= 1e-12
    assert subspace_distance(fit.C_hat, base.C_hat) <= 1e-12


def test_default_q_stays_below_the_slice_covariance_rank():
    # n = 12 leaves a demeaned 20x20 slice covariance of rank 11, so the
    # default q1 is min(15, p1, n - 1) = 11; q2 is capped by p2 = 4.
    panel = MatrixPanel(np.random.default_rng(12).standard_normal((12, 20, 4)))
    fit = estimate_matrix(panel)
    assert (fit.q1_used, fit.q2_used) == (11, 4)
    assert np.array_equal(m_hat_rows(panel), m_hat_rows(panel, q1=11))


def test_lag_count_must_stay_below_the_sample_size():
    panel = MatrixPanel(np.random.default_rng(6).standard_normal((10, 3, 2)))
    for call in (
        lambda m: estimate_matrix(panel, m=m, d1=1, d2=1),
        lambda m: m_hat_rows(panel, m=m),
    ):
        with pytest.raises(InvalidConfig):
            call(10)
        call(9)  # the last lag has one usable pair


def test_bases_own_their_memory():
    panel, _, _ = planted_panel(3, n=120, p1=8, p2=6)
    fit = estimate_matrix(panel, m=2)
    assert fit.R_hat.base is None and fit.C_hat.base is None


@pytest.mark.parametrize("shape", [(60, 5, 4), (10, 8, 6)])
def test_overflowing_slice_covariance_is_named_without_a_numpy_warning(shape):
    # each slice's y_j'y_j/n overflows at data x 1e200; numpy used to warn
    # and sym_eigen then failed on "matrix contains non-finite values"
    panel = MatrixPanel(1e200 * np.random.default_rng(0).standard_normal(shape))
    message = "^lag-0 covariance of column slice 0 overflows: the data are too large$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidData, match=message):
            estimate_matrix(panel)
