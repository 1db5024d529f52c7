"""Self-test of the benchmark: every workload and check at tiny sizes.

Run from the repository root:

    python3 -m pytest perfbench -q

Besides running each workload end to end, untraced and traced, it shows
that every oracle check rejects a wrong answer, that the tracer keeps
thread-correct self times under Monte Carlo worker threads, and that a
traced name which no longer exists is reported as absent.
"""

import dataclasses
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

import tsfactor  # noqa: E402
import tsfactor.cli  # noqa: E402
from tsfactor.simulate import RunRecord  # noqa: E402


EXERCISED = {
    "highdim": "factor.m_hat.calls",
    "forecast": "forecast.fit_arma.calls",
    "montecarlo": "simulate.parallel_speedup",
    "cli_files": "io.mb_written",
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_passes_its_checks(name, trace):
    result = run.measure(name, seed=5, seconds=0.2, trace=trace, tiny=True)
    assert result["checks_failed"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.per_layer_units() if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if trace:
        assert result["absent"] == [] and result["min_self_ms"] >= 0.0
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values[EXERCISED[name]] > 0
        # calls the checks make after the timed loop are not counted as ops
        assert values["simulate.run_monte_carlo.calls"] == (name == "montecarlo")
        assert values["io.ingest_csv.calls"] == (name == "cli_files")
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _workload(name, tmp_path):
    wl = workloads.WORKLOADS[name](7, str(tmp_path), tiny=True)
    assert wl.keep(wl.op(0))
    return wl


def _rotated_out_of_span(y, loading):
    """Turn the first column a quarter of the way towards the orthogonal complement."""
    other = np.random.default_rng(0).standard_normal(loading.shape[0])
    other -= loading @ (loading.T @ other)
    bad = loading.copy()
    bad[:, 0] = np.cos(0.4) * loading[:, 0] + np.sin(0.4) * other / np.linalg.norm(other)
    return bad, (y - y.mean(axis=0)) @ bad


def test_highdim_rejects_a_loading_rotated_out_of_span(tmp_path):
    wl = _workload("highdim", tmp_path)
    assert wl.check() == []
    fits = wl.first[0]
    bad, factors = _rotated_out_of_span(wl.panels[0], fits[2].A_hat)
    fits[2] = dataclasses.replace(fits[2], A_hat=bad, factors=factors)
    assert any("wauto: loading span" in msg for msg in wl.check())


def test_highdim_rejects_a_wrong_rank_and_wrong_factors(tmp_path):
    wl = _workload("highdim", tmp_path)
    cov = wl.first[0][0]
    wl.first[0][0] = dataclasses.replace(
        cov, r_hat=cov.r_hat + 1, A_hat=np.linalg.qr(
            np.column_stack([cov.A_hat, np.eye(cov.A_hat.shape[0])[:, 0]]))[0],
        factors=np.zeros((cov.factors.shape[0], cov.r_hat + 1)),
    )
    fails = wl.check()
    assert any("cov: r_hat" in msg for msg in fails)
    assert any("cov: factors differ" in msg for msg in fails)


def test_forecast_rejects_perturbed_predictions(tmp_path):
    wl = _workload("forecast", tmp_path)
    assert wl.check() == []
    by_label = {res.label: res.predictions for res in wl.first[0].results}
    by_label["cov"][-1, 3] += 1e-4
    by_label["zero"][0, 0] += 1e-6
    fails = wl.check()
    assert any("cov prediction" in msg for msg in fails)
    assert any("zero baseline" in msg for msg in fails)


def test_forecast_counts_failed_windows_as_failed_work(tmp_path):
    wl = _workload("forecast", tmp_path)
    index, report = wl.op(0)
    cov = dataclasses.replace(report.results[0], n_failed=1)
    report = dataclasses.replace(report, results=(cov,) + report.results[1:])
    assert not wl.keep((index, report))


def test_montecarlo_rejects_a_thread_mismatch_and_off_band_pools(tmp_path):
    wl = _workload("montecarlo", tmp_path)
    report = wl.reports[0]
    records = list(report.records)
    records[0] = dataclasses.replace(records[0], distance=records[0].distance + 1e-9)
    wl.reports[0] = dataclasses.replace(report, records=tuple(records))
    pooled = []
    for run_index in range(workloads.BAND_REPLICATIONS):
        pooled += [
            RunRecord(run_index, "cov", 2, 0.137),  # wrong rank every time
            RunRecord(run_index, "auto", 3, 0.117),
            RunRecord(run_index, "wauto", 3, 0.2),  # distance off band
        ]
    wl.reports.append(dataclasses.replace(report, records=tuple(pooled)))
    fails = wl.check()
    assert any("threads=1 report differs" in msg for msg in fails)
    assert any(msg.startswith("cov: correct-rank frequency") for msg in fails)
    assert any(msg.startswith("wauto: mean distance") for msg in fails)
    assert not any(msg.startswith("auto:") for msg in fails)


def _rewrite_cell(path, row, col, value):
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_cli_files_rejects_tampered_artifacts(tmp_path):
    wl = _workload("cli_files", tmp_path)
    assert wl.check() == []
    out = wl.out["estimate"]
    _rewrite_cell(os.path.join(out, "factors.csv"), 5, 0, "1e3")
    path = os.path.join(out, "result.csv")
    rows = workloads._read_csv(path)
    loading = np.array([[float(c) for c in row[1:]] for row in rows[1:]])
    bad, _ = _rotated_out_of_span(wl.panel, loading)
    with open(path, "w") as fh:
        fh.write(",".join(rows[0]) + "\n")
        for row, values in zip(rows[1:], bad):
            fh.write(",".join([row[0]] + [repr(float(v)) for v in values]) + "\n")
    matrix = os.path.join(wl.out["matrix"], "result.csv")
    with open(matrix) as fh:
        rows = fh.read().splitlines()
    with open(matrix, "w") as fh:  # swap the R and C blocks' roles: C_hat becomes R_hat's transpose
        fh.write("\n".join(rows[:1] + [r.replace("R,", "X,").replace("C,", "R,").replace("X,", "C,")
                                       for r in rows[1:]]) + "\n")
    assert wl.keep((0, 0))
    fails = wl.check()
    assert any("artifacts differ across ops" in msg for msg in fails)
    assert any("estimate: loading span" in msg for msg in fails)
    assert any("estimate: factors differ" in msg for msg in fails)
    assert any("matrix R_hat" in msg for msg in fails)


def test_cli_files_counts_nonzero_exit_as_failed(tmp_path):
    wl = _workload("cli_files", tmp_path)
    assert not wl.keep((0, 3))
    assert any("exit codes" in msg for msg in wl.check())


def test_tracer_wraps_every_namespace_and_restores_it():
    originals = {
        "factor": tsfactor.factor.sym_eigen,
        "simulate": tsfactor.simulate.estimate,
        "cli": tsfactor.cli.ingest_csv,
        "forecast": tsfactor.forecast.least_squares,
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        assert tsfactor.factor.sym_eigen is tsfactor.tsstats.sym_eigen
        assert tsfactor.factor.sym_eigen is not originals["factor"]
        assert tsfactor.simulate.estimate is tsfactor.factor.estimate is tsfactor.estimate
        assert tsfactor.cli.ingest_csv is tsfactor.io.ingest_csv
        assert tsfactor.forecast.least_squares is not originals["forecast"]
    finally:
        tracer.uninstall()
    assert tsfactor.factor.sym_eigen is originals["factor"]
    assert tsfactor.simulate.estimate is originals["simulate"]
    assert tsfactor.cli.ingest_csv is originals["cli"]
    assert tsfactor.forecast.least_squares is originals["forecast"]


def test_tracer_reports_a_removed_name_as_absent():
    targets = tracing.TARGETS + (
        ("factor", "tsfactor.factor", ("no_such_function",)),
        ("gone", "tsfactor.no_such_module", ("anything",)),
    )
    tracer = tracing.Tracer(targets)
    tracer.install()
    try:
        assert tracer.absent == ["gone.anything", "factor.no_such_function"]
    finally:
        tracer.uninstall()


def test_traced_threads_keep_their_own_span_stacks():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        spec = tsfactor.SimulationSpec(model="uniform", p=30, n=80, r0=2, n_runs=6, base_seed=1)
        tsfactor.run_monte_carlo(spec, threads=2)
    finally:
        tracer.uninstall()
    assert tracer.min_self_s >= 0.0
    assert tracer.edge_s.get((tracing.WORKER_ROOT, "factor.estimate"), 0.0) > 0.0
    assert tracer.edge_s.get(("simulate.run_monte_carlo", "factor.estimate"), 0.0) == 0.0
    assert tracer.calls["simulate.generate_uniform"] == 6
    assert tracer.calls["factor.estimate"] == 18
    assert tracer.concurrency() > 0.0


def test_command_fails_without_the_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "tracer.py", "workloads.py"):
        shutil.copy(os.path.join(HERE, name), bench / name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "highdim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
