"""Property tests that guard the shared estimator pipeline.

Permuting the series or flipping their signs only relabels the model, so
every estimator must permute or flip the rows of its loadings and leave
the factor count, the chosen q and the spectra unchanged.  Any rotation
of the series rotates the loading space with it, to round-off.  A ``wauto``
fit that selects q must equal the fit that fixes q at the selected value,
bit for bit, because both run the same weight, spectra, rank and basis.
Fits that share one panel's memoized moments equal fits on fresh
panels bit for bit, whatever the order, and the memo stays read-only.
The matrix estimator keeps the same contracts for permuted rows, and
scaling its data by a power of two leaves fixed-rank bases bit-identical.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsfactor.errors import TsfactorError
from tsfactor.factor import EstimatorConfig, estimate
from tsfactor.matrixfactor import MatrixPanel, estimate_matrix
from tsfactor.tsstats import (
    EigenPairs,
    LagCovSet,
    TimePanel,
    demean,
    sample_autocov,
    subspace_distance,
)

CONFIGS = (
    EstimatorConfig(method="cov"),
    EstimatorConfig(method="auto"),
    EstimatorConfig(method="wauto", q="auto"),
    EstimatorConfig(method="wauto", q=6),
)


def factor_panel(seed: int, n: int, p: int) -> np.ndarray:
    """Two AR(1) factors of unequal strength plus white noise."""
    rng = np.random.default_rng(seed)
    x = np.zeros((n, 2))
    for t in range(1, n):
        x[t] = np.array([0.8, 0.6]) * x[t - 1] + rng.standard_normal(2)
    load = rng.uniform(-1.0, 1.0, size=(p, 2)) * np.array([1.0, 0.6])
    return x @ load.T + rng.standard_normal((n, p))


panels = st.one_of(
    st.tuples(st.integers(0, 2**32 - 1), st.integers(60, 160), st.integers(10, 40)),
    # p > n: the fit runs in the n-dimensional row space of the panel
    st.tuples(st.integers(0, 2**32 - 1), st.integers(30, 50), st.integers(51, 120)),
)


@settings(max_examples=20)
@given(panels, st.data())
def test_relabelling_series_relabels_loading_rows(shape, data):
    seed, n, p = shape
    y = factor_panel(seed, n, p)
    perm = np.array(data.draw(st.permutations(range(p))))
    signs = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=p, max_size=p)))
    moved = TimePanel(y[:, perm] * signs)
    for cfg in CONFIGS:
        base = estimate(TimePanel(y), cfg)
        fit = estimate(moved, cfg)
        assert (fit.r_hat, fit.q_used) == (base.r_hat, base.q_used)
        for s_base, s_fit in zip(base.eigenvalues_per_lag, fit.eigenvalues_per_lag):
            assert np.abs(s_fit - s_base).max() <= 1e-9 * s_base[0]
        assert np.abs(fit.ratios - base.ratios).max() <= 1e-9 * np.abs(base.ratios).max()
        want = base.A_hat[perm] * signs[:, None]
        # the sign rule may flip a whole column when a row sign flips
        col_signs = np.sign(np.sum(want * fit.A_hat, axis=0))
        assert np.abs(fit.A_hat * col_signs - want).max() <= 1e-8


@settings(max_examples=20)
@given(panels, st.data())
def test_rotating_the_series_rotates_the_loading_space(shape, data):
    seed, n, p = shape
    y = factor_panel(seed, n, p)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rot, _ = np.linalg.qr(rng.standard_normal((p, p)))
    for cfg in CONFIGS:
        base = estimate(TimePanel(y), cfg)
        fit = estimate(TimePanel(y @ rot), cfg)
        assert (fit.r_hat, fit.q_used) == (base.r_hat, base.q_used)
        for s_base, s_fit in zip(base.eigenvalues_per_lag, fit.eigenvalues_per_lag, strict=True):
            assert np.abs(s_fit - s_base).max() <= 1e-9 * s_base[0]
        assert subspace_distance(fit.A_hat, rot.T @ base.A_hat) <= 1e-8


@settings(max_examples=20)
@given(panels, st.integers(1, 3))
def test_selected_q_fit_equals_fixed_q_fit_bit_for_bit(shape, m):
    seed, n, p = shape
    panel = TimePanel(factor_panel(seed, n, p))
    chosen = estimate(panel, EstimatorConfig(method="wauto", m=m, q0=min(15, p - 1)))
    fixed = estimate(panel, EstimatorConfig(method="wauto", m=m, q=chosen.q_used))
    assert chosen.r_hat == fixed.r_hat
    assert np.array_equal(chosen.A_hat, fixed.A_hat)
    assert np.array_equal(chosen.ratios, fixed.ratios)
    for got, want in zip(chosen.eigenvalues_per_lag, fixed.eigenvalues_per_lag, strict=True):
        assert np.array_equal(got, want)
    for got, want in zip(chosen.H_hat, fixed.H_hat, strict=True):
        assert np.array_equal(got, want)


def fit_record(panel: TimePanel, cfg: EstimatorConfig) -> list:
    """Every array a fit returns, or the class of the error it raised."""
    try:
        fit = estimate(panel, cfg)
    except TsfactorError as err:
        return [type(err).__name__]
    arrays = [fit.A_hat, fit.factors, fit.ratios, *fit.eigenvalues_per_lag, *(fit.H_hat or ())]
    trace = fit.bic_trace
    if trace is not None:
        arrays += [np.array(trace.candidates), trace.per_lag_bic, trace.totals, trace.per_lag_L,
                   trace.per_lag_d, np.array(trace.r_hat_per_candidate)]
    return [fit.r_hat, fit.q_used, *arrays]


def memo_arrays(memo: dict) -> list:
    """The arrays a panel's memo holds, through nested panels, eigenpairs and
    lag-covariance sets."""
    out = []
    for value in memo.values():
        items = value.values() if isinstance(value, dict) else (
            value if isinstance(value, tuple) else (value,))
        for item in items:
            if isinstance(item, TimePanel):
                out += [item.data] + memo_arrays(item._memo)
            elif isinstance(item, EigenPairs):
                out += [item.values, item.vectors]
            elif isinstance(item, LagCovSet):
                out += [item.lag0, *item.lags]
            else:
                out.append(item)
    return out


@settings(max_examples=10)
@given(panels, st.integers(1, 3))
def test_fits_sharing_one_panel_equal_fits_on_fresh_panels(shape, m):
    seed, n, p = shape
    y = factor_panel(seed, n, p)
    configs = (
        EstimatorConfig(method="cov"),
        EstimatorConfig(method="auto", m=m),
        EstimatorConfig(method="wauto", m=m, q="auto"),
        EstimatorConfig(method="wauto", m=2, q=6),
    )
    fresh = [fit_record(TimePanel(y), cfg) for cfg in configs]
    for order in itertools.permutations(range(len(configs))):
        shared = TimePanel(y)
        for i in order:
            got = fit_record(shared, configs[i])
            assert len(got) == len(fresh[i])
            for a, b in zip(got, fresh[i]):
                assert np.array_equal(a, b)
        held = memo_arrays(shared._memo)
        assert held and not any(arr.flags.writeable for arr in held)
    with pytest.raises(ValueError):  # an edit cannot reach a later fit
        sample_autocov(demean(shared), 1).lags[0][0, 0] = 1.0


def matrix_factor_panel(seed: int, n: int, p1: int, p2: int) -> np.ndarray:
    """2x2 AR(1) matrix factors under uniform loadings plus white noise."""
    rng = np.random.default_rng(seed)
    x = np.zeros((n, 2, 2))
    for t in range(1, n):
        x[t] = np.array([[0.8, 0.5], [0.6, 0.7]]) * x[t - 1] + rng.standard_normal((2, 2))
    load_r = rng.uniform(-1.0, 1.0, size=(p1, 2))
    load_c = rng.uniform(-1.0, 1.0, size=(p2, 2))
    return np.einsum("au,tuv,bv->tab", load_r, x, load_c) + rng.standard_normal((n, p1, p2))


matrix_shapes = st.one_of(
    # short series: the default q_j = min(15, p_j, n - 1) is capped by n - 1
    st.tuples(st.integers(0, 2**32 - 1), st.integers(8, 15), st.integers(2, 20), st.integers(2, 20)),
    st.tuples(st.integers(0, 2**32 - 1), st.integers(40, 200), st.integers(2, 20), st.integers(2, 20)),
)


@settings(max_examples=20)
@given(matrix_shapes, st.sampled_from([2.0**40, 2.0**-40, 2.0**-300]))
def test_matrix_bases_are_bit_identical_under_power_of_two_scaling(shape, scale):
    # The ranks are fixed: the ratio offsets are absolute, so a free rank
    # may move with the scale.
    y = matrix_factor_panel(*shape)
    base = estimate_matrix(MatrixPanel(y), d1=2, d2=2)
    fit = estimate_matrix(MatrixPanel(y * scale), d1=2, d2=2)
    assert np.array_equal(fit.R_hat, base.R_hat)
    assert np.array_equal(fit.C_hat, base.C_hat)


@settings(max_examples=20)
@given(matrix_shapes, st.data())
def test_permuting_matrix_rows_permutes_row_loadings(shape, data):
    y = matrix_factor_panel(*shape)
    perm = np.array(data.draw(st.permutations(range(y.shape[1]))))
    base = estimate_matrix(MatrixPanel(y))
    fit = estimate_matrix(MatrixPanel(y[:, perm, :]))
    assert (fit.d1, fit.d2, fit.q1_used, fit.q2_used) == (base.d1, base.d2, base.q1_used, base.q2_used)
    for got, want in ((fit.row_spectrum, base.row_spectrum), (fit.col_spectrum, base.col_spectrum)):
        assert np.abs(got - want).max() <= 1e-9 * want[0]
    for got, want in ((fit.row_ratios, base.row_ratios), (fit.col_ratios, base.col_ratios)):
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
    for got, want in ((fit.R_hat, base.R_hat[perm]), (fit.C_hat, base.C_hat)):
        col_signs = np.sign(np.sum(want * got, axis=0))
        assert np.abs(got * col_signs - want).max() <= 1e-8
