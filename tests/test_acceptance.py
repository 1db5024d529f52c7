"""End-to-end acceptance checks for estimation, selection, and forecasting.

Each test measures one headline guarantee of the package on a fixed
seeded design and asserts it against an explicit numeric band, so a
regression anywhere in the pipeline (generation, autocovariance,
weighting, eigenanalysis, ratio selection, forecasting) shows up as a
single failed line in the verbose run.  The two 200-replication Monte
Carlo studies are module-scoped fixtures shared by two tests each.
"""

import numpy as np
import pytest

import test_factor_core as _core
import test_tsstats as _ts
from tsfactor.cli import run as cli_run
from tsfactor.factor import (
    EstimatorConfig,
    estimate,
    per_lag_spectra,
    two_step,
    weight_matrix,
)
from tsfactor.forecast import expanding_window_eval
from tsfactor.matrixfactor import MatrixPanel, estimate_matrix
from tsfactor.simulate import (
    SimulationSpec,
    generate_two_strength,
    run_monte_carlo,
)
from tsfactor.tsstats import TimePanel, demean, sample_autocov, subspace_distance

# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def uniform_report():
    """200 replications of the uniform-strength design at p=100, n=300."""
    spec = SimulationSpec(
        model="uniform", p=100, n=300, r0=3, delta0=1.0, n_runs=200, base_seed=7
    )
    return run_monte_carlo(spec)


@pytest.fixture(scope="module")
def strong_weak_report():
    """200 replications of the strong-plus-weak design at p=100, n=400."""
    spec = SimulationSpec(
        model="twostrength",
        p=100,
        n=400,
        r0=3,
        r1=3,
        delta0=1.0,
        delta1=1.0,
        n_runs=200,
        base_seed=7,
    )
    return run_monte_carlo(spec)


def by_method(report):
    return {s.method: s for s in report.summaries}


# ------------------------------------------- uniform-strength benchmarks


def test_accept_uniform_rank_selection_frequencies(uniform_report):
    """All three methods pick the planted rank at their reference rates.

    Reference correct-selection frequencies for this design are 0.948
    (covariance), 0.991 (autocovariance), and 1.000 (weight-calibrated
    autocovariance); each measured frequency must land within +-0.04,
    the methods must be ordered wauto >= auto >= cov, and the whole
    200-replication study must finish inside five minutes.
    """
    s = by_method(uniform_report)
    expected = {"cov": 0.948, "auto": 0.991, "wauto": 1.000}
    for method, target in expected.items():
        got = s[method].frequency_correct
        assert got == pytest.approx(target, abs=0.04), (
            f"{method} frequency {got:.3f} outside {target}+-0.04"
        )
    assert (
        s["wauto"].frequency_correct
        >= s["auto"].frequency_correct
        >= s["cov"].frequency_correct
    )
    assert uniform_report.wall_clock_seconds <= 300.0
    print(
        "PASS: uniform design frequencies "
        f"cov={s['cov'].frequency_correct:.3f} auto={s['auto'].frequency_correct:.3f} "
        f"wauto={s['wauto'].frequency_correct:.3f} "
        f"(targets 0.948/0.991/1.000 +-0.04) in {uniform_report.wall_clock_seconds:.0f}s"
    )


def test_accept_uniform_loading_space_error(uniform_report):
    """Mean subspace distances match their reference values within +-0.03.

    References for this design: 0.137 (covariance), 0.117
    (autocovariance), 0.109 (weight-calibrated autocovariance), with the
    calibrated method no worse than the plain one.
    """
    s = by_method(uniform_report)
    expected = {"cov": 0.137, "auto": 0.117, "wauto": 0.109}
    for method, target in expected.items():
        got = s[method].mean_distance
        assert got == pytest.approx(target, abs=0.03), (
            f"{method} mean distance {got:.4f} outside {target}+-0.03"
        )
    assert s["wauto"].mean_distance <= s["auto"].mean_distance
    print(
        "PASS: uniform design mean distances "
        f"cov={s['cov'].mean_distance:.4f} auto={s['auto'].mean_distance:.4f} "
        f"wauto={s['wauto'].mean_distance:.4f} (targets 0.137/0.117/0.109 +-0.03)"
    )


# ------------------------------------------ strong-plus-weak benchmarks


def test_accept_strong_weak_rank_selection_frequencies(strong_weak_report):
    """With three strong and three weak factors the ordering is strict.

    The covariance method struggles on this design (frequency <= 0.45)
    while the weight-calibrated method stays reliable (>= 0.85), and
    the three frequencies are strictly increasing cov < auto < wauto.
    """
    s = by_method(strong_weak_report)
    f_cov = s["cov"].frequency_correct
    f_auto = s["auto"].frequency_correct
    f_wauto = s["wauto"].frequency_correct
    assert f_cov <= 0.45, f"cov frequency {f_cov:.3f} > 0.45"
    assert f_wauto >= 0.85, f"wauto frequency {f_wauto:.3f} < 0.85"
    assert f_cov < f_auto < f_wauto
    print(
        "PASS: strong-plus-weak frequencies "
        f"cov={f_cov:.3f} auto={f_auto:.3f} wauto={f_wauto:.3f} "
        "(need cov<=0.45, wauto>=0.85, strictly increasing)"
    )


def test_accept_strong_weak_loading_space_error(strong_weak_report):
    """Weight-calibrated mean distance to the strong space is 0.275+-0.05."""
    got = by_method(strong_weak_report)["wauto"].mean_distance
    assert got == pytest.approx(0.275, abs=0.05), (
        f"wauto mean distance {got:.4f} outside 0.275+-0.05"
    )
    print(f"PASS: strong-plus-weak wauto mean distance {got:.4f} (target 0.275+-0.05)")


# ------------------------------------------------- forecasting benchmark

_MACRO_P, _MACRO_N, _MACRO_N2 = 119, 777, 50


def _macro_like_panel(seed):
    """Macro-style panel: one persistent and one transient planted factor.

    The persistent factor is AR(1) with coefficient in (0.88, 0.94) and
    unit variance; the transient factor is AR(1) with coefficient in
    (0.26, 0.34) and variance 2, so a covariance eigenanalysis locks
    onto the transient (high-variance) factor while an autocovariance
    one prefers the persistent (forecastable) factor.  Idiosyncratic
    noise is MA(1) with heteroskedastic scale, smoothed across series by
    a 0.5**|i-j| kernel.
    """
    rng = np.random.default_rng(np.random.SeedSequence((1205, seed)))
    phi1 = rng.uniform(0.88, 0.94)
    phi2 = rng.uniform(0.26, 0.34)
    a1 = rng.uniform(-1.0, 1.0, _MACRO_P) * 1.2
    a2 = rng.uniform(-1.0, 1.0, _MACRO_P) * 1.2
    sig = np.sqrt(rng.uniform(0.5, 1.2, _MACRO_P))
    psi = rng.uniform(0.1, 0.3, _MACRO_P) * rng.choice([-1.0, 1.0], _MACRO_P)
    total = _MACRO_N + 150

    def ar1(phi, var):
        x = np.empty(total)
        x[0] = rng.standard_normal() * np.sqrt(var)
        innov = rng.standard_normal(total) * np.sqrt(var * (1.0 - phi**2))
        for t in range(1, total):
            x[t] = phi * x[t - 1] + innov[t]
        return x

    x1 = ar1(phi1, 1.0)
    x2 = ar1(phi2, 2.0)
    u = rng.standard_normal((total + 1, _MACRO_P))
    eps = u[1:] + psi * u[:-1]
    idx = np.arange(_MACRO_P)
    kern = 0.5 ** np.abs(idx[:, None] - idx[None, :])
    e = (eps @ kern) * sig
    y = x1[:, None] * a1[None, :] + x2[:, None] * a2[None, :] + e
    return TimePanel(y[150:])


def test_accept_forecast_method_ordering_on_macro_like_panels():
    """Better factor directions forecast better, and everyone beats zero.

    Over 50 seeded panels (p=119, n=777) evaluated on the last 50
    one-step expanding windows with a single extracted factor, the MSFE
    ordering wauto <= auto <= cov must hold in at least 60% of seeds and
    every method must beat the zero forecast in at least 90%.
    """
    methods = tuple(
        EstimatorConfig(method=m, m=1, q=15) for m in ("cov", "auto", "wauto")
    )
    chain = beats = 0
    for seed in range(50):
        report = expanding_window_eval(
            _macro_like_panel(seed),
            methods,
            r_hat=1,
            h=1,
            n1=_MACRO_N - _MACRO_N2,
            standardize="global",
            max_ar=1,
            max_ma=0,
        )
        msfe = {r.label: r.msfe for r in report.results}
        chain += msfe["wauto"] <= msfe["auto"] <= msfe["cov"]
        beats += all(msfe[m] < msfe["zero"] for m in ("cov", "auto", "wauto"))
    assert chain >= 30, f"MSFE ordering held in only {chain}/50 seeds (need >= 30)"
    assert beats >= 45, f"all methods beat zero in only {beats}/50 seeds (need >= 45)"
    print(
        f"PASS: forecast ordering wauto<=auto<=cov in {chain}/50 seeds (need 30), "
        f"all methods beat zero in {beats}/50 (need 45)"
    )


# ------------------------------------- property suite and thread identity


def test_accept_property_invariants_and_thread_determinism(tmp_path):
    """Core algebraic invariants hold and results ignore the thread count.

    Re-runs the decisive property checks (weight identity and dual
    formula, reduced-rank optimality against random restarts, rotation
    equivariance, subspace-distance metric behaviour, autocovariance
    double-loop oracle),
    then demonstrates that Monte Carlo reports are equal across thread
    counts and CLI artifacts are byte-identical.
    """
    _core.test_weight_identity_covariance()
    _core.test_weight_dual_formulas_and_geninverse()
    _core.test_rrr_beats_random_restarts()
    _core.test_estimate_rotation_equivariance_all_methods()
    _ts.test_distance_identical_spaces()
    _ts.test_distance_orthogonal_spaces()
    _ts.test_distance_oblique_pair()
    _ts.test_distance_rotation_invariance()
    _ts.test_distance_symmetry_and_range()
    _ts.test_autocov_matches_double_loop_oracle()

    spec = SimulationSpec(
        model="uniform", p=20, n=80, r0=2, delta0=1.0, n_runs=12, base_seed=3
    )
    assert run_monte_carlo(spec, threads=1) == run_monte_carlo(spec, threads=4)

    args = [
        "simulate", "--model", "uniform", "--p", "20", "--n", "80", "--r0", "2",
        "--runs", "6", "--seed", "3",
    ]
    outs = []
    for name, threads in (("t1", "1"), ("t3", "3")):
        out = tmp_path / name
        assert cli_run(args + ["--threads", threads, "--out", str(out)]) == 0
        outs.append(out)
    for artifact in ("report.txt", "result.csv", "trace.kv"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()
    print(
        "PASS: property invariants hold; reports equal across threads and "
        "CLI artifacts byte-identical"
    )


# -------------------------------------------- ratio-contrast benchmark


def test_accept_offset_ratio_sharpens_strong_weak_contrast():
    """The offset-corrected ratio separates strong from weak factors better.

    On the strong-plus-weak design at p=300, n=400 the lag-1
    weight-calibrated contrast ((lam_r0 + t)/(lam_r0+1 + t)) divided by
    ((lam_r + t)/(lam_r+1 + t)) with t = 0.1*p/n must exceed the plain
    autocovariance counterpart mu_r0*mu_r+1/(mu_r0+1*mu_r) in at least
    70% of 200 seeded replications.
    """
    spec = SimulationSpec(
        model="twostrength", p=300, n=400, r0=3, r1=3, delta0=1.0, delta1=1.0
    )
    offset = 0.1 * spec.p / spec.n
    wins = 0
    for rep in range(200):
        panel, _, _ = generate_two_strength(
            spec, np.random.default_rng(np.random.SeedSequence((41, rep)))
        )
        covs = sample_autocov(demean(panel), 1)
        lam = per_lag_spectra(covs, weight_matrix(covs, 15))[0]
        mu = per_lag_spectra(covs, None)[0]
        calibrated = ((lam[2] + offset) / (lam[3] + offset)) / (
            (lam[5] + offset) / (lam[6] + offset)
        )
        plain = (mu[2] * mu[6]) / (mu[3] * mu[5])
        wins += calibrated > plain
    assert wins >= 140, f"calibrated contrast won only {wins}/200 (need >= 140)"
    print(f"PASS: calibrated ratio contrast larger in {wins}/200 replications (need 140)")


# ------------------------------------------------- matrix-series benchmark


def _planted_matrix_panel(seed, n=400, p1=20, p2=20, d1=2, d2=2, burn=200):
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
    e = rng.standard_normal((total, p1, p2))
    y = np.einsum("au,tuv,bv->tab", load_r, x, load_c) + e
    u_r = np.linalg.svd(load_r, full_matrices=False)[0]
    u_c = np.linalg.svd(load_c, full_matrices=False)[0]
    return MatrixPanel(y[burn:]), u_r, u_c


def test_accept_matrix_recovery_and_vector_reduction():
    """Matrix loadings are recovered, and width-1 panels match the vector path.

    Both row and column subspace distances stay <= 0.15 in at least 80
    of 100 seeded panels (2x2 factors, 20x20 series, n=400), and a
    p2=1 matrix panel reproduces the vector weight-calibrated estimate
    up to 1e-10 in subspace distance.
    """
    good = 0
    for seed in range(100):
        panel, u_r, u_c = _planted_matrix_panel(np.random.SeedSequence((83, seed)))
        fit = estimate_matrix(panel, d1=2, d2=2, m=2)
        d_row = subspace_distance(fit.R_hat, u_r)
        d_col = subspace_distance(fit.C_hat, u_c)
        good += (d_row <= 0.15) and (d_col <= 0.15)
    assert good >= 80, f"both distances <= 0.15 in only {good}/100 seeds (need >= 80)"

    rng = np.random.default_rng(np.random.SeedSequence((84, 0)))
    a = rng.uniform(-1, 1, size=(30, 2))
    total = 600
    x = np.zeros((total, 2))
    for t in range(1, total):
        x[t] = 0.85 * x[t - 1] + rng.standard_normal(2)
    y = x @ a.T + rng.standard_normal((total, 30))
    mat_fit = estimate_matrix(MatrixPanel(y[200:][:, :, None]), d1=2, d2=1, m=2)
    vec_fit = estimate(
        TimePanel(y[200:]), EstimatorConfig(method="wauto", m=2, q=15, r_fixed=2)
    )
    gap = subspace_distance(mat_fit.R_hat, vec_fit.A_hat)
    assert gap <= 1e-10, f"width-1 reduction gap {gap:.2e} > 1e-10"
    print(
        f"PASS: matrix recovery in {good}/100 seeds (need 80); "
        f"width-1 reduction gap {gap:.2e} (need <= 1e-10)"
    )
