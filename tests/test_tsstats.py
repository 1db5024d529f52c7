"""Tests for panels, autocovariances and eigen tools."""

import warnings

import numpy as np
import pytest

from tsfactor.errors import InvalidData, InvalidLag, PreconditionViolated
from tsfactor.factor import EstimatorConfig, estimate
from tsfactor.tsstats import (
    EigenPairs,
    LagCovSet,
    TimePanel,
    _fix_signs,
    demean,
    sample_autocov,
    subspace_distance,
    sym_eigen,
)


def autocov_by_double_loop(y, k):
    """Independent oracle: explicit summation over time and both indices."""
    n, p = y.shape
    out = np.zeros((p, p))
    div = n if k == 0 else n - k
    for t in range(k, n):
        for a in range(p):
            for b in range(p):
                out[a, b] += y[t, a] * y[t - k, b]
    return out / div


# ---------------------------------------------------------------- panels


def test_panel_rejects_nan():
    with pytest.raises(InvalidData):
        TimePanel(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_panel_rejects_single_row():
    with pytest.raises(InvalidData):
        TimePanel(np.array([[1.0, 2.0]]))

def test_panel_rejects_wrong_name_count():
    with pytest.raises(InvalidData):
        TimePanel(np.zeros((3, 2)), names=("a",))


def test_panel_rejects_false_demeaned_flag():
    with pytest.raises(InvalidData):
        TimePanel(np.array([[1.0], [2.0]]), demeaned=True)


def test_panel_data_is_immutable():
    panel = TimePanel(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        panel.data[0, 0] = 1.0


def test_demean_two_rows():
    out = demean(TimePanel(np.array([[1.0], [3.0]])))
    assert np.allclose(out.data, [[-1.0], [1.0]])
    assert out.demeaned


def test_demean_idempotent():
    rng = np.random.default_rng(3)
    once = demean(TimePanel(rng.normal(size=(20, 4))))
    twice = demean(once)
    assert np.abs(once.data - twice.data).max() <= 1e-12


def test_demean_constant_columns():
    out = demean(TimePanel(np.tile([1.0, 2.0], (4, 1))))
    assert np.abs(out.data).max() == 0.0


# ---------------------------------------------------------- autocovariance


def test_autocov_zero_panel():
    covs = sample_autocov(TimePanel(np.zeros((4, 2)), demeaned=True), 1)
    assert np.abs(covs.lag0).max() == 0.0
    assert np.abs(covs.lags[0]).max() == 0.0


def test_autocov_spec_example():
    y = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    covs = sample_autocov(TimePanel(y, demeaned=True), 1)
    assert np.allclose(covs.lag0, [[0.5, 0.0], [0.0, 0.5]], atol=1e-15)
    assert np.allclose(covs.lags[0], [[0.0, -1 / 3], [2 / 3, 0.0]], atol=1e-15)


def test_autocov_matches_double_loop_oracle():
    rng = np.random.default_rng(11)
    for trial in range(10):
        n = int(rng.integers(4, 11))
        p = int(rng.integers(1, 5))
        y = rng.normal(size=(n, p))
        y -= y.mean(axis=0)
        covs = sample_autocov(TimePanel(y, demeaned=True), 3 if n > 3 else n - 1)
        assert np.abs(covs.lag0 - autocov_by_double_loop(y, 0)).max() <= 1e-12
        for k, mat in enumerate(covs.lags, start=1):
            assert np.abs(mat - autocov_by_double_loop(y, k)).max() <= 1e-12


def test_autocov_lag0_is_psd():
    rng = np.random.default_rng(5)
    for _ in range(20):
        y = rng.normal(size=(rng.integers(5, 30), rng.integers(2, 8)))
        y -= y.mean(axis=0)
        covs = sample_autocov(TimePanel(y, demeaned=True), 2)
        vals = np.linalg.eigvalsh(covs.lag0)
        assert vals.min() >= -1e-10 * max(vals.max(), 0.0)


def test_autocov_time_reversal_transposes():
    rng = np.random.default_rng(7)
    y = rng.normal(size=(40, 5))
    y -= y.mean(axis=0)
    fwd = sample_autocov(TimePanel(y, demeaned=True), 3)
    rev = sample_autocov(TimePanel(y[::-1], demeaned=True), 3)
    for k in range(3):
        assert np.abs(rev.lags[k] - fwd.lags[k].T).max() <= 1e-10


def test_autocov_requires_demeaned_panel():
    with pytest.raises(PreconditionViolated):
        sample_autocov(TimePanel(np.arange(8.0).reshape(4, 2)), 1)


def test_autocov_lag_bounds():
    panel = TimePanel(np.zeros((4, 2)), demeaned=True)
    with pytest.raises(InvalidLag):
        sample_autocov(panel, 4)
    with pytest.raises(InvalidLag):
        sample_autocov(panel, -1)


def test_autocov_checks_each_stored_set_once(monkeypatch):
    checked = []
    post_init = LagCovSet.__post_init__

    def counted(self):
        checked.append(self.m)
        post_init(self)

    monkeypatch.setattr(LagCovSet, "__post_init__", counted)
    panel = demean(TimePanel(np.random.default_rng(2).standard_normal((30, 6))))
    first = sample_autocov(panel, 2)
    assert sample_autocov(panel, 2) is first
    assert checked == [2]
    assert sample_autocov(panel, 1).lags[0] is first.lags[0]  # products are shared
    assert checked == [2, 1]
    with pytest.raises(InvalidData):  # a set built directly is still checked
        LagCovSet(lag0=np.array([[1.0, 2.0], [0.0, 1.0]]), lags=(), n=5)


def test_autocov_rejects_an_overflowing_product():
    y = 1e200 * np.random.default_rng(6).standard_normal((20, 3))
    panel = demean(TimePanel(y))
    with pytest.raises(InvalidData, match="lag-0"):
        sample_autocov(panel, 1)
    with pytest.raises(InvalidData):  # nothing was stored
        sample_autocov(panel, 0)


@pytest.mark.parametrize("method", ["cov", "auto", "wauto"])
@pytest.mark.parametrize("shape", [(200, 100), (30, 100)])
def test_overflowing_data_fail_typed_without_a_numpy_warning(method, shape):
    # p < n and p > n (the row-space route); numpy's matmul used to warn
    # "overflow encountered" before the typed error
    y = 1e200 * np.random.default_rng(7).standard_normal(shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidData, match="^lag-0 autocovariance overflows: the data are too large$"):
            estimate(TimePanel(y), EstimatorConfig(method=method))


# ----------------------------------------------------------------- eigen


def test_sym_eigen_identity():
    pairs = sym_eigen(np.eye(3), 3)
    assert np.allclose(pairs.values, 1.0)


def test_sym_eigen_diagonal():
    pairs = sym_eigen(np.diag([4.0, 1.0]), 1)
    assert pairs.values[0] == pytest.approx(4.0)
    assert np.allclose(pairs.vectors[:, 0], [1.0, 0.0])


def test_sym_eigen_trace_identity():
    rng = np.random.default_rng(19)
    for _ in range(10):
        raw = rng.normal(size=(5, 5))
        mat = 0.5 * (raw + raw.T)
        pairs = sym_eigen(mat, 5)
        assert pairs.values.sum() == pytest.approx(np.trace(mat), abs=1e-9)


def test_sym_eigen_reconstruction_residual():
    rng = np.random.default_rng(23)
    raw = rng.normal(size=(6, 6))
    mat = 0.5 * (raw + raw.T)
    pairs = sym_eigen(mat, 4)
    for j in range(4):
        resid = mat @ pairs.vectors[:, j] - pairs.values[j] * pairs.vectors[:, j]
        assert np.linalg.norm(resid) <= 1e-8 * (1 + abs(pairs.values[0]))


def test_sym_eigen_sign_convention():
    rng = np.random.default_rng(29)
    for _ in range(10):
        raw = rng.normal(size=(5, 5))
        pairs = sym_eigen(0.5 * (raw + raw.T), 5)
        for j in range(5):
            col = pairs.vectors[:, j]
            assert col[int(np.argmax(np.abs(col)))] >= 0


def test_sym_eigen_rotation_equivariance():
    rng = np.random.default_rng(31)
    raw = rng.normal(size=(6, 6))
    mat = 0.5 * (raw + raw.T)
    orth, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    direct = sym_eigen(mat, 6).values
    rotated = sym_eigen(orth @ mat @ orth.T, 6).values
    assert np.abs(direct - rotated).max() <= 1e-9


def test_sym_eigen_rejects_asymmetric():
    with pytest.raises(PreconditionViolated):
        sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]), 1)


def test_eigenpairs_rejects_increasing_values():
    with pytest.raises(InvalidData):
        EigenPairs(values=np.array([1.0, 2.0]), vectors=np.eye(2))


# -------------------------------------------------------------- distance


def test_distance_identical_spaces():
    e1 = np.array([[1.0], [0.0]])
    assert subspace_distance(e1, e1) == 0.0


def test_distance_orthogonal_spaces():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert subspace_distance(e1, e2) == pytest.approx(1.0)


def test_distance_oblique_pair():
    e1 = np.array([[1.0], [0.0]])
    mid = np.array([[1.0], [1.0]]) / np.sqrt(2)
    assert subspace_distance(e1, mid) == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_distance_rotation_invariance():
    rng = np.random.default_rng(37)
    for _ in range(10):
        k1, _ = np.linalg.qr(rng.normal(size=(8, 3)))
        k2, _ = np.linalg.qr(rng.normal(size=(8, 2)))
        u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        assert subspace_distance(k1 @ u, k2) == pytest.approx(
            subspace_distance(k1, k2), abs=1e-10
        )


def test_distance_symmetry_and_range():
    rng = np.random.default_rng(41)
    for _ in range(10):
        k1, _ = np.linalg.qr(rng.normal(size=(7, 3)))
        k2, _ = np.linalg.qr(rng.normal(size=(7, 3)))
        d12 = subspace_distance(k1, k2)
        d21 = subspace_distance(k2, k1)
        assert d12 == pytest.approx(d21, abs=1e-12)
        assert 0.0 <= d12 <= 1.0


def test_distance_rejects_nonorthonormal():
    with pytest.raises(PreconditionViolated):
        subspace_distance(np.array([[1.0], [1.0]]), np.array([[1.0], [0.0]]))


# ------------------------------------------------------- tiny scales, signs


@pytest.mark.parametrize("scale", [1e-200, 2.0**-300, 2.0**-600])
def test_demean_accepts_tiny_scales(scale):
    # The demeaned check compares the column means with 1e-10 times the
    # largest column std; squaring 1e-200 underflows to 0 in a plain std.
    y = np.random.default_rng(3).standard_normal((50, 8)) * scale
    out = demean(TimePanel(y))
    assert out.demeaned
    assert np.abs(out.data.mean(axis=0)).max() <= 1e-12 * scale


@pytest.mark.parametrize("method", ["cov", "auto", "wauto"])
def test_a_series_far_from_zero_fits_after_demeaning(method):
    # Centering 1e8 + 1e-4 noise leaves a mean of round-off near 1e-9, far
    # above 1e-10 times the series' spread, yet the centering is exact work.
    rng = np.random.default_rng(0)
    y = rng.standard_normal((100, 5))
    y[:, 0] = 1e8 + 1e-4 * rng.standard_normal(100)
    panel = TimePanel(y)
    centered = demean(panel)
    assert centered.demeaned and not centered.data.flags.writeable
    assert estimate(panel, EstimatorConfig(method=method)).A_hat.shape[0] == 5
    with pytest.raises(InvalidData):  # a caller's flag is still checked
        TimePanel(centered.data, demeaned=True)


def test_demeaned_flag_still_rejected_at_tiny_scales():
    for scale in (1.0, 1e-200, 2.0**-600):
        with pytest.raises(InvalidData):
            TimePanel(np.array([[1.0], [2.0]]) * scale, demeaned=True)


def fix_signs_by_loop(vectors):
    """Column-by-column reference for the sign rule."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0:
            out[:, j] = -col
    return out


def test_fix_signs_matches_the_column_loop_bit_for_bit():
    rng = np.random.default_rng(37)
    for _ in range(20):
        vectors = rng.standard_normal((7, 6))
        vectors[:, 0] = 0.0  # a zero column keeps its signs
        vectors[2, 1], vectors[5, 1] = -9.0, 9.0  # tie: the lower row (negative) leads
        vectors[2, 2], vectors[5, 2] = 9.0, -9.0
        vectors[:, 3] = -0.0
        want = fix_signs_by_loop(vectors)
        got = _fix_signs(vectors)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(want))
    assert _fix_signs(vectors)[2, 1] == 9.0 and _fix_signs(vectors)[2, 2] == 9.0
    assert _fix_signs(np.zeros((3, 0))).shape == (3, 0)
