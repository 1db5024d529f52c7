"""Tests for the synthetic designs and the seeded Monte Carlo harness."""

import math
import threading

import numpy as np
import pytest

from tsfactor import simulate
from tsfactor.errors import InvalidConfig
from tsfactor.factor import EstimatorConfig, estimate
from tsfactor.simulate import (
    RNG_NAME,
    SimulationReport,
    SimulationSpec,
    RunRecord,
    MethodSummary,
    generate_two_strength,
    generate_uniform,
    run_monte_carlo,
    _ar1,
    _ma1,
    _signed_uniform,
    _smoothing_kernel,
    _uniform_loading,
)
from tsfactor.tsstats import subspace_distance

# ------------------------------------------------------------- validation


def test_spec_rejects_unknown_model():
    with pytest.raises(InvalidConfig):
        SimulationSpec(model="arma")


def test_spec_rejects_bad_strength_exponents():
    with pytest.raises(InvalidConfig):
        SimulationSpec(model="uniform", delta0=1.2)
    with pytest.raises(InvalidConfig):
        SimulationSpec(model="uniform", delta0=0.0)
    with pytest.raises(InvalidConfig):
        SimulationSpec(model="twostrength", r1=2, delta0=0.6, delta1=0.8)


def test_spec_rejects_inconsistent_factor_counts():
    with pytest.raises(InvalidConfig):
        SimulationSpec(model="uniform", r1=2)
    with pytest.raises(InvalidConfig):
        SimulationSpec(model="twostrength", r1=0)
    with pytest.raises(InvalidConfig):
        SimulationSpec(model="uniform", r0=0)
    with pytest.raises(InvalidConfig):
        SimulationSpec(model="uniform", n_runs=0)
    with pytest.raises(InvalidConfig):
        SimulationSpec(model="uniform", noise_scale=-0.5)
    with pytest.raises(InvalidConfig):
        SimulationSpec(model="uniform", p=4, r0=5)


def test_generator_checks_model_tag():
    uni = SimulationSpec(model="uniform", p=10, n=50, r0=1, n_runs=1)
    two = SimulationSpec(model="twostrength", p=10, n=50, r0=1, r1=1, n_runs=1)
    with pytest.raises(InvalidConfig):
        generate_uniform(two, 0)
    with pytest.raises(InvalidConfig):
        generate_two_strength(uni, 0)


# ------------------------------------------------------------- generators


def test_uniform_shapes_and_orthonormal_basis():
    spec = SimulationSpec(model="uniform", p=23, n=64, r0=3, n_runs=1)
    panel, a_true = generate_uniform(spec, 42)
    assert panel.data.shape == (64, 23)
    assert panel.demeaned is False
    assert np.all(np.isfinite(panel.data))
    assert a_true.shape == (23, 3)
    assert np.allclose(a_true.T @ a_true, np.eye(3), atol=1e-10)


def test_two_strength_shapes_and_orthonormal_bases():
    spec = SimulationSpec(model="twostrength", p=19, n=48, r0=2, r1=2, n_runs=1)
    panel, a_true, b_true = generate_two_strength(spec, 7)
    assert panel.data.shape == (48, 19)
    assert a_true.shape == (19, 2)
    assert b_true.shape == (19, 2)
    assert np.allclose(a_true.T @ a_true, np.eye(2), atol=1e-10)
    assert np.allclose(b_true.T @ b_true, np.eye(2), atol=1e-10)


def test_same_seed_gives_bit_identical_panels():
    spec = SimulationSpec(model="uniform", p=15, n=40, r0=2, n_runs=1)
    p1, a1 = generate_uniform(spec, 99)
    p2, a2 = generate_uniform(spec, 99)
    assert np.array_equal(p1.data, p2.data)
    assert np.array_equal(a1, a2)
    p3, _ = generate_uniform(spec, 100)
    assert not np.array_equal(p1.data, p3.data)


def test_factor_lag1_autocorrelation_in_band():
    # AR(1) components with |coefficient| in (0.7, 0.95) keep the sample
    # lag-1 autocorrelation away from 0 and 1 at n=5000.
    rng = np.random.default_rng(314)
    coeffs = _signed_uniform(rng, 0.7, 0.95, 6)
    x = _ar1(rng, 5000, coeffs, scale=1.0)
    for j in range(6):
        rho = np.corrcoef(x[:-1, j], x[1:, j])[0, 1]
        assert 0.5 < abs(rho) < 1.0
        assert rho == pytest.approx(coeffs[j], abs=0.05)


def test_noiseless_panel_columns_share_factor_autocorrelation():
    spec = SimulationSpec(
        model="uniform", p=5, n=5000, r0=1, n_runs=1, noise_scale=0.0
    )
    panel, _ = generate_uniform(spec, 21)
    y = panel.data
    for j in range(5):
        rho = np.corrcoef(y[:-1, j], y[1:, j])[0, 1]
        assert 0.5 < abs(rho) < 1.0


def test_ma_lag2_autocovariance_cuts_off():
    # An MA(1) has exactly one nonzero autocovariance lag; at n=20000 the
    # lag-2 sample value is noise of size ~1/sqrt(n).
    rng = np.random.default_rng(6021)
    coeffs = _signed_uniform(rng, 0.85, 0.95, 5)
    z = _ma1(rng, 20000, coeffs, scale=0.2)
    for j in range(5):
        rho1 = np.corrcoef(z[:-1, j], z[1:, j])[0, 1]
        rho2 = np.corrcoef(z[:-2, j], z[2:, j])[0, 1]
        assert abs(rho2) <= 0.05
        assert rho1 == pytest.approx(coeffs[j] / (1 + coeffs[j] ** 2), abs=0.03)


def test_loading_column_norms_match_uniform_moment():
    # Entries are uniform(-b, b) with b = p**(-(1-delta)/2), so a column's
    # expected squared norm is p * b**2 / 3 = p**delta / 3.
    rng = np.random.default_rng(777)
    for delta in (1.0, 0.5):
        load = _uniform_loading(rng, 100, 60, delta)
        sq = np.sum(load**2, axis=0)
        assert np.mean(sq) == pytest.approx(100.0**delta / 3.0, rel=0.07)


def test_noise_covariance_matches_smoothing_kernel_moment():
    # With the noise switched on and off at the same seed, the panel
    # difference isolates the idiosyncratic term.  Its covariance should
    # match K @ diag(1 + psi**2) @ K averaged over the coefficient law:
    # E[1 + psi**2] = 1 + (0.05**2 + 0.05*0.15 + 0.15**2)/3.
    p, n = 60, 20000
    on = SimulationSpec(model="uniform", p=p, n=n, r0=2, n_runs=1, noise_scale=1.0)
    off = SimulationSpec(model="uniform", p=p, n=n, r0=2, n_runs=1, noise_scale=0.0)
    e = generate_uniform(on, 77)[0].data - generate_uniform(off, 77)[0].data
    kern = _smoothing_kernel(p)
    scale = 1.0 + (0.05**2 + 0.05 * 0.15 + 0.15**2) / 3.0
    theory = scale * kern @ kern
    centered = e - e.mean(axis=0)
    emp = centered.T @ centered / (n - 1)
    rel = np.linalg.norm(emp - theory) / np.linalg.norm(theory)
    assert rel <= 0.08


def test_noise_serial_correlation_is_weak():
    p, n = 40, 20000
    on = SimulationSpec(model="uniform", p=p, n=n, r0=2, n_runs=1, noise_scale=1.0)
    off = SimulationSpec(model="uniform", p=p, n=n, r0=2, n_runs=1, noise_scale=0.0)
    e = generate_uniform(on, 5)[0].data - generate_uniform(off, 5)[0].data
    for j in range(p):
        rho1 = np.corrcoef(e[:-1, j], e[1:, j])[0, 1]
        rho2 = np.corrcoef(e[:-2, j], e[2:, j])[0, 1]
        assert abs(rho1) <= 0.2
        assert abs(rho2) <= 0.05


def test_noiseless_panel_has_exact_factor_rank():
    spec = SimulationSpec(model="uniform", p=25, n=120, r0=3, n_runs=1, noise_scale=0.0)
    panel, _ = generate_uniform(spec, 13)
    sv = np.linalg.svd(panel.data - panel.data.mean(axis=0), compute_uv=False)
    assert sv[2] > 1e-6
    assert sv[3] <= sv[0] * 1e-12


def test_every_method_recovers_noiseless_loading_space():
    spec = SimulationSpec(model="uniform", p=30, n=200, r0=2, n_runs=1, noise_scale=0.0)
    panel, a_true = generate_uniform(spec, 123)
    for cfg in (
        EstimatorConfig(method="cov", r_fixed=2),
        EstimatorConfig(method="auto", r_fixed=2),
        EstimatorConfig(method="wauto", r_fixed=2, q=2),
    ):
        fit = estimate(panel, cfg)
        assert subspace_distance(fit.A_hat, a_true) <= 1e-6


# ------------------------------------------------------------- harness


def small_spec(**kw):
    base = dict(model="uniform", p=20, n=80, r0=2, n_runs=6, base_seed=11)
    base.update(kw)
    return SimulationSpec(**base)


def test_singleton_report_mirrors_its_record():
    rep = run_monte_carlo(small_spec(n_runs=1))
    assert rep.rng_name == RNG_NAME
    assert len(rep.records) == len(rep.spec.methods)
    for s, rec in zip(rep.summaries, rep.records):
        assert s.method == rec.method
        assert s.n_success == 1 and s.n_failed == 0
        assert s.mean_r_hat == float(rec.r_hat)
        assert s.mean_distance == rec.distance
        assert s.sd_distance == 0.0
        assert s.frequency_correct == float(rec.r_hat == rep.spec.r0)


def test_report_is_identical_for_any_thread_count():
    spec = small_spec()
    rep1 = run_monte_carlo(spec, threads=1)
    rep2 = run_monte_carlo(spec, threads=3)
    rep3 = run_monte_carlo(spec, threads=1)
    assert rep1 == rep2
    assert rep1 == rep3


def test_replications_run_serially_in_index_order(monkeypatch):
    calls = []
    run_one = simulate._one_run

    def recorder(spec, labels, run_index):
        calls.append((run_index, threading.get_ident()))
        return run_one(spec, labels, run_index)

    monkeypatch.setattr(simulate, "_one_run", recorder)
    spec = small_spec()
    run_monte_carlo(spec, threads=3)
    assert [i for i, _ in calls] == list(range(spec.n_runs))
    assert {ident for _, ident in calls} == {threading.get_ident()}


def test_thread_count_must_be_positive():
    with pytest.raises(InvalidConfig):
        run_monte_carlo(small_spec(), threads=0)


def test_records_are_run_major_and_duplicate_methods_get_labels():
    methods = (
        EstimatorConfig(method="cov"),
        EstimatorConfig(method="cov", m=3),
        EstimatorConfig(method="auto"),
    )
    rep = run_monte_carlo(small_spec(methods=methods, n_runs=3))
    labels = [s.method for s in rep.summaries]
    assert labels == ["cov", "cov#2", "auto"]
    expect = [(i, lab) for i in range(3) for lab in labels]
    assert [(r.run_index, r.method) for r in rep.records] == expect


def test_failing_method_is_recorded_and_excluded():
    methods = (
        EstimatorConfig(method="cov"),
        EstimatorConfig(method="wauto", q=50),  # q exceeds min(p, n) = 20
    )
    rep = run_monte_carlo(small_spec(methods=methods))
    ok, bad = rep.summaries
    assert ok.n_failed == 0 and ok.n_success == rep.spec.n_runs
    assert bad.n_failed == rep.spec.n_runs and bad.n_success == 0
    assert math.isnan(bad.mean_distance) and math.isnan(bad.frequency_correct)
    for rec in rep.records:
        if rec.method == "wauto":
            assert rec.error is not None and "InvalidConfig" in rec.error
            assert rec.r_hat is None and rec.distance is None
        else:
            assert rec.error is None


def test_small_cell_frequencies_and_distance_ranges():
    spec = SimulationSpec(model="uniform", p=40, n=200, r0=3, n_runs=15, base_seed=11)
    rep = run_monte_carlo(spec)
    by = {s.method: s for s in rep.summaries}
    assert by["wauto"].frequency_correct >= 0.8
    assert by["wauto"].frequency_correct >= by["cov"].frequency_correct
    for rec in rep.records:
        assert 0.0 <= rec.distance <= 1.0 + 1e-12


def test_disjoint_seed_frequencies_agree_within_binomial_bound():
    bound = 4.0 * math.sqrt(0.25 / 20)
    for seed_a, seed_b in ((1, 2), (3, 4), (5, 6)):
        fa = run_monte_carlo(small_spec(base_seed=seed_a, n_runs=20)).summaries
        fb = run_monte_carlo(small_spec(base_seed=seed_b, n_runs=20)).summaries
        for sa, sb in zip(fa, fb):
            assert abs(sa.frequency_correct - sb.frequency_correct) < bound


def test_report_invariants_are_enforced():
    spec = small_spec(n_runs=2)
    good = MethodSummary("cov", 1.0, 2.0, 0.1, 0.0, 2, 0)
    rec = RunRecord(0, "cov", 2, 0.1)
    with pytest.raises(InvalidConfig):
        SimulationReport(
            spec=spec,
            rng_name=RNG_NAME,
            summaries=(MethodSummary("cov", 1.0, 2.0, 0.1, 0.0, 1, 0),),
            records=(rec,),
            wall_clock_seconds=0.0,
        )
    with pytest.raises(InvalidConfig):
        SimulationReport(
            spec=spec,
            rng_name=RNG_NAME,
            summaries=(good,),
            records=(RunRecord(0, "cov", 2, 1.5),),
            wall_clock_seconds=0.0,
        )
