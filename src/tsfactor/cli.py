"""Command-line front end: estimate, select-q, simulate, forecast, matrix.

Every subcommand reads its options from flags, optionally seeded by a
JSON ``--config`` file (flags win).  It returns its report lines, trace
items and CSV tables, and one writer puts them into the ``--out``
directory: ``report.txt`` (also printed to stdout), ``result.csv``,
``trace.kv`` with one ``key=value`` per line, and ``factors.csv`` from
``estimate`` and ``select-q``.  The artifacts contain no timestamps or
durations, so identical inputs and options produce byte-identical files.

Exit codes: 0 success, 2 usage (argparse), then one code per error
category, each error class's ``exit_code``: 3 ingest, 4 invalid data,
5 invalid configuration, 6 invalid lag, 7 precondition violated,
8 ill-conditioned weight, 9 degenerate spectrum, 10 any other library
error or an unwritable ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from typing import Iterable

import numpy as np

from .errors import InvalidConfig, TsfactorError
from .factor import EstimatorConfig, FactorFit, estimate
from .forecast import expanding_window_eval
from .io import (
    fmt_float,
    ingest_csv,
    ingest_matrix_csv,
    loadings_table,
    write_table,
    write_text,
    write_trace_kv,
)
from .matrixfactor import estimate_matrix
from .modelselect import BicTrace
from .simulate import SimulationSpec, run_monte_carlo
from .tsstats import TimePanel

__all__ = ["build_parser", "main", "run"]

_FIT = EstimatorConfig()  # each option that fills an EstimatorConfig defaults to its field
_FIT_FIELDS = frozenset(field.name for field in dataclasses.fields(EstimatorConfig))


def _q_flag(text: str):
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsfactor",
        description="Latent factor analysis for high-dimensional time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, func, with_input: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        if with_input:
            p.add_argument("input", help="CSV file, one row per time point")
        p.add_argument("--out", default=".", help="directory for the artifacts")
        p.add_argument("--config", default=None, help="JSON file with option defaults")
        p.set_defaults(subparser=p, func=func)
        return p

    p = add("estimate", "estimate loadings and the factor count", _cmd_estimate)
    p.add_argument("--method", default=_FIT.method, choices=["cov", "auto", "wauto"])
    p.add_argument("--m", type=int, default=_FIT.m, help="number of lags aggregated")
    p.add_argument("--q", type=_q_flag, default=_FIT.q, help="projection dimension or 'auto'")
    p.add_argument("--q0", type=int, default=_FIT.q0, help="ceiling of the q scan")
    p.add_argument("--bic-c", type=float, default=_FIT.bic_c, help="BIC penalty constant")
    p.add_argument("--vartheta-scale", type=float, default=_FIT.vartheta_scale,
                   help="ratio offset scale")
    p.add_argument("--r", type=int, default=None, help="fix the factor count")
    p.add_argument("--r-max", type=int, default=None, help="cap the factor-count search")
    p.add_argument("--no-demean", action="store_true", default=False,
                   help="input is already centered; verify instead of demeaning")

    p = add("select-q", "scan the projection dimension by generalized BIC", _cmd_select_q)
    p.add_argument("--m", type=int, default=_FIT.m)
    p.add_argument("--q0", type=int, default=_FIT.q0)
    p.add_argument("--bic-c", type=float, default=_FIT.bic_c)
    p.add_argument("--vartheta-scale", type=float, default=_FIT.vartheta_scale)
    p.add_argument("--no-demean", action="store_true", default=False)

    p = add("simulate", "Monte Carlo study of the three estimators", _cmd_simulate, False)
    p.add_argument("--model", default="uniform", choices=["uniform", "twostrength"])
    p.add_argument("--p", type=int, default=100)
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--r0", type=int, default=3)
    p.add_argument("--r1", type=int, default=None)
    p.add_argument("--delta0", type=float, default=1.0)
    p.add_argument("--delta1", type=float, default=None)
    p.add_argument("--noise-scale", type=float, default=1.0)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None,
                   help="must be >= 1; replications always run serially, in index order")
    p.add_argument("--method", default="all", choices=["cov", "auto", "wauto", "all"])
    p.add_argument("--m", type=int, default=_FIT.m)
    p.add_argument("--q", type=_q_flag, default=_FIT.q)
    p.add_argument("--vartheta-scale", type=float, default=_FIT.vartheta_scale)

    p = add("forecast", "expanding-window forecast comparison", _cmd_forecast)
    p.add_argument("--method", default="all", choices=["cov", "auto", "wauto", "all"])
    p.add_argument("--h", type=int, default=1, help="forecast horizon")
    p.add_argument("--r", type=int, default=1, help="factor count used in every window")
    p.add_argument("--n1", type=int, default=None, help="first training window length")
    p.add_argument("--m", type=int, default=_FIT.m)
    p.add_argument("--q", type=_q_flag, default=_FIT.q)
    p.add_argument("--vartheta-scale", type=float, default=_FIT.vartheta_scale)
    p.add_argument("--standardize-per-window", action="store_true", default=False,
                   help="score in original units with per-window scaling")

    p = add("matrix-estimate", "row/column loading spaces of a matrix series", _cmd_matrix)
    p.add_argument("--m", type=int, default=_FIT.m)
    p.add_argument("--q1", type=int, default=None)
    p.add_argument("--q2", type=int, default=None)
    p.add_argument("--d1", type=int, default=None)
    p.add_argument("--d2", type=int, default=None)
    p.add_argument("--vartheta-scale", type=float, default=_FIT.vartheta_scale)

    return parser


# Namespace entries that are not options a config file may set.
_NOT_CONFIG = frozenset({"command", "func", "subparser", "input", "out", "config"})


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace, argv):
    """Re-parse ``argv`` with the ``--config`` file's entries as the
    subcommand's defaults: a flag beats the file, the file beats a default."""
    try:
        with open(args.config) as fh:
            from_file = json.load(fh)
    except OSError as exc:
        raise InvalidConfig(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"config file is not valid JSON: {exc}") from None
    if not isinstance(from_file, dict):
        raise InvalidConfig("config file must hold a JSON object")
    from_file = {key.replace("-", "_"): value for key, value in from_file.items()}
    unknown = sorted(set(from_file) - (set(vars(args)) - _NOT_CONFIG))
    if unknown:
        raise InvalidConfig(f"unknown config keys for {args.command}: {', '.join(unknown)}")
    actions = {action.dest: action for action in args.subparser._actions}
    args.subparser.set_defaults(**{k: _config_value(actions[k], v) for k, v in from_file.items()})
    return parser.parse_args(argv)


def _config_value(action: argparse.Action, value):
    """``value`` as its flag would set it: a string goes through the option's
    type and choices, a store-true option takes a bool, a number must suit the
    type (a bool is no number), and null keeps a None default."""
    if isinstance(value, str) and not isinstance(action.default, bool):
        with contextlib.suppress(ValueError, argparse.ArgumentTypeError):
            got = action.type(value) if action.type else value
            if action.choices is None or got in action.choices:
                return got
    elif value is None or isinstance(value, bool):
        if value is action.default or isinstance(value, bool) and isinstance(action.default, bool):
            return value
    elif isinstance(value, {int: int, _q_flag: int, float: (int, float)}.get(action.type, ())):
        return float(value) if action.type is float else value
    raise InvalidConfig(f"config key {action.dest!r} has an invalid value {value!r}")


def _load_panel(args: argparse.Namespace) -> TimePanel:
    panel = ingest_csv(args.input, demean_panel=not args.no_demean)
    if args.no_demean:
        panel = TimePanel(panel.data, names=panel.names, demeaned=True)
    return panel


def _fit_config(args: argparse.Namespace, **fields) -> EstimatorConfig:
    """The options named after EstimatorConfig's fields, with ``fields`` on top."""
    options = {key: value for key, value in vars(args).items() if key in _FIT_FIELDS}
    return EstimatorConfig(**{**options, **fields})


def _method_configs(args: argparse.Namespace) -> tuple[EstimatorConfig, ...]:
    names = ["cov", "auto", "wauto"] if args.method == "all" else [args.method]
    return tuple(_fit_config(args, method=name) for name in names)


# A command returns its report lines, its trace items and its CSV tables.
Trace = list[tuple[str, object]]
Tables = dict[str, tuple[list[str], Iterable]]  # file name: (header, rows)


def _write(out_dir: str, report: list[str], trace: Trace, tables: Tables) -> None:
    """Write every table, ``report.txt`` and ``trace.kv`` into ``out_dir``,
    then print the report."""
    text = "\n".join(report) + "\n"
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, (header, rows) in tables.items():
            write_table(os.path.join(out_dir, name), header, rows)
        write_text(os.path.join(out_dir, "report.txt"), text)
        write_trace_kv(os.path.join(out_dir, "trace.kv"), trace)
    except OSError as exc:
        raise TsfactorError(f"cannot write artifacts to {out_dir}: {exc}") from None
    print(text, end="")


def _fit_tables(fit: FactorFit, names: tuple[str, ...]) -> Tables:
    """The loadings as ``result.csv`` and the factors as ``factors.csv``."""
    return {
        "result.csv": loadings_table(fit.A_hat, names),
        "factors.csv": ([f"f{j + 1}" for j in range(fit.r_hat)], fit.factors),
    }


def _fit_trace(fit: FactorFit, n: int, p: int) -> Trace:
    items: Trace = [("method", fit.method), ("n", n), ("p", p), ("r_hat", fit.r_hat)]
    if fit.q_used is not None:
        items.append(("q_used", fit.q_used))
    items.append(("ratio", np.asarray(fit.ratios)))
    start = 0 if fit.method == "cov" else 1
    for k, spectrum in enumerate(fit.eigenvalues_per_lag, start=start):
        items.append((f"spectrum_lag{k}", np.asarray(spectrum)))
    return items if fit.bic_trace is None else items + _scan_trace(fit.bic_trace)


def _scan_trace(trace: BicTrace) -> Trace:
    """The q scan's keys, written by ``select-q`` and by a ``wauto`` fit that scans q."""
    items: Trace = [
        ("q_hat", trace.q_hat),
        ("r_bar", trace.r_bar),
        ("candidate", np.asarray(trace.candidates)),
        ("r_hat_candidate", np.asarray(trace.r_hat_per_candidate)),
        ("bic_total", np.asarray(trace.totals)),
    ]
    return items + [(f"bic_lag{k}", row) for k, row in enumerate(trace.per_lag_bic, start=1)]


def _per_method(keys: list[str], rows: list[tuple]) -> Trace:
    """One ``<key>_<method>`` item per value of each ``(method, *values)`` row."""
    return [(f"{key}_{method}", v) for method, *values in rows for key, v in zip(keys, values)]


def _cmd_estimate(args: argparse.Namespace):
    panel = _load_panel(args)
    fit = estimate(panel, _fit_config(args, r_search_max=args.r_max, r_fixed=args.r))
    report = [
        "factor estimate",
        f"method={fit.method}  m={args.m}  q={'-' if fit.q_used is None else fit.q_used}",
        f"n={panel.n}  p={panel.p}",
        f"r_hat={fit.r_hat}",
        "rank  ratio",
    ]
    report += [f"{j:>4d}  {value:.6g}" for j, value in enumerate(np.asarray(fit.ratios), start=1)]
    return report, _fit_trace(fit, panel.n, panel.p), _fit_tables(fit, panel.names)


def _cmd_select_q(args: argparse.Namespace):
    panel = _load_panel(args)
    fit = estimate(panel, _fit_config(args))
    scan = fit.bic_trace
    report = [
        "projection dimension scan",
        f"n={panel.n}  p={panel.p}  q0={scan.candidates[-1]}  C={args.bic_c:.6g}",
        f"q_hat={scan.q_hat}  r_bar={scan.r_bar}  r_hat={fit.r_hat}",
        "q  r_hat  bic_total",
    ]
    for q, r_q, total in zip(scan.candidates, scan.r_hat_per_candidate, scan.totals):
        report.append(f"{q:>2d}  {r_q:>5d}  {total:.10g}")
    trace = [("n", panel.n), ("p", panel.p), ("r_hat", fit.r_hat)] + _scan_trace(scan)
    return report, trace, _fit_tables(fit, panel.names)


def _cmd_simulate(args: argparse.Namespace):
    r1 = args.r1
    if r1 is None:
        r1 = 0 if args.model == "uniform" else 3
    spec = SimulationSpec(
        model=args.model,
        n=args.n,
        p=args.p,
        r0=args.r0,
        r1=r1,
        delta0=args.delta0,
        delta1=args.delta1,
        n_runs=args.runs,
        base_seed=args.seed,
        methods=_method_configs(args),
        noise_scale=args.noise_scale,
    )
    study = run_monte_carlo(spec, threads=1 if args.threads is None else args.threads)
    columns = ["freq_correct", "mean_r_hat", "mean_distance", "sd_distance", "failed"]
    summaries = [
        (s.method, s.frequency_correct, s.mean_r_hat, s.mean_distance, s.sd_distance, s.n_failed)
        for s in study.summaries
    ]
    report = [
        "monte carlo study",
        f"model={spec.model}  p={spec.p}  n={spec.n}  r0={spec.r0}  r1={spec.r1}",
        f"delta0={fmt_float(spec.delta0)}  delta1={fmt_float(spec.delta1)}  "
        f"runs={spec.n_runs}  seed={spec.base_seed}",
        "  ".join(["method", *columns]),
    ]
    for method, freq, mean_r, mean_d, sd_d, failed in summaries:
        report.append(
            f"{method:<7s} {freq:>12.4f}  {mean_r:>10.4f}  "
            f"{mean_d:>13.6f}  {sd_d:>11.6f}  {failed:>6d}"
        )
    keys = ("model", "p", "n", "r0", "r1", "delta0", "delta1", "noise_scale")
    trace: Trace = [("rng", "pcg64")] + [(key, getattr(spec, key)) for key in keys]
    trace += [("runs", spec.n_runs), ("seed", spec.base_seed)] + _per_method(columns, summaries)
    rows = ((r.run_index, r.method, r.r_hat, r.distance, r.error) for r in study.records)
    return report, trace, {"result.csv": (["run", "method", "r_hat", "distance", "error"], rows)}


def _cmd_forecast(args: argparse.Namespace):
    panel = ingest_csv(args.input, demean_panel=False)
    n1 = args.n1 if args.n1 is not None else panel.n - 50
    standardize = "train" if args.standardize_per_window else "global"
    evaluation = expanding_window_eval(
        panel,
        _method_configs(args),
        r_hat=args.r,
        h=args.h,
        n1=n1,
        standardize=standardize,
    )
    header = ["method", "mafe", "msfe", "failed"]
    rows = [(res.label, res.mafe, res.msfe, res.n_failed) for res in evaluation.results]
    report = [
        "expanding-window forecast comparison",
        f"n={panel.n}  p={panel.p}  h={evaluation.h}  n1={evaluation.n1}  "
        f"n2={evaluation.n2}  windows={len(evaluation.origins)}  "
        f"standardize={standardize}",
        "method  mafe        msfe        failed",
    ]
    for label, mafe, msfe, failed in rows:
        report.append(f"{label:<7s} {mafe:>10.6f}  {msfe:>10.6f}  {failed:>6d}")
    trace: Trace = [("n", panel.n), ("p", panel.p), ("h", evaluation.h), ("r", args.r)]
    trace += [("n1", evaluation.n1), ("n2", evaluation.n2), ("standardize", standardize)]
    return report, trace + _per_method(header[1:], rows), {"result.csv": (header, rows)}


def _cmd_matrix(args: argparse.Namespace):
    mp = ingest_matrix_csv(args.input)
    fit = estimate_matrix(
        mp,
        m=args.m,
        q1=args.q1,
        q2=args.q2,
        d1=args.d1,
        d2=args.d2,
        vartheta_scale=args.vartheta_scale,
    )
    report = [
        "matrix factor estimate",
        f"n={mp.n}  p1={mp.p1}  p2={mp.p2}  q1={fit.q1_used}  q2={fit.q2_used}",
        f"d1={fit.d1}  d2={fit.d2}",
        "side  rank  eigenvalue",
    ]
    for side, spectrum in (("row", fit.row_spectrum), ("col", fit.col_spectrum)):
        for j, value in enumerate(spectrum[: max(fit.d1, fit.d2) + 2], start=1):
            report.append(f"{side:<4s}  {j:>4d}  {value:.6g}")
    trace: Trace = [("n", mp.n), ("p1", mp.p1), ("p2", mp.p2)]
    trace += [("q1", fit.q1_used), ("q2", fit.q2_used), ("d1", fit.d1), ("d2", fit.d2)]
    trace += [("row_spectrum", fit.row_spectrum), ("col_spectrum", fit.col_spectrum)]
    trace += [("row_ratio", fit.row_ratios), ("col_ratio", fit.col_ratios)]
    rows = (
        [side, i, j, value]
        for side, basis in (("R", fit.R_hat), ("C", fit.C_hat))
        for i, row in enumerate(basis, start=1)
        for j, value in enumerate(row, start=1)
    )
    return report, trace, {"result.csv": (["side", "row", "col", "value"], rows)}


def run(argv=None) -> int:
    """Parse arguments, run the subcommand, write its artifacts, map errors to codes."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            args = _apply_config(parser, args, argv)
        report, trace, tables = args.func(args)
        _write(args.out, report, [("command", args.command), *trace], tables)
        return 0
    except TsfactorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def main(argv=None) -> None:
    sys.exit(run(argv))
