"""Command-line front end: estimate, select-q, simulate, forecast, matrix.

Every subcommand reads its options from flags, optionally seeded by a
JSON ``--config`` file (flags win), and writes three artifacts into the
``--out`` directory: ``report.txt`` (also printed to stdout),
``result.csv``, and ``trace.kv`` with one ``key=value`` per line.  The
artifacts contain no timestamps or durations, so identical inputs and
options produce byte-identical files.

Exit codes: 0 success, 2 usage (argparse), then one code per error
category: 3 ingest, 4 invalid data, 5 invalid configuration, 6 invalid
lag, 7 precondition violated, 8 ill-conditioned weight, 9 degenerate
spectrum, 10 any other library error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys

import numpy as np

from .errors import (
    DegenerateSpectrum,
    IllConditioned,
    IngestError,
    InvalidConfig,
    InvalidData,
    InvalidLag,
    PreconditionViolated,
    TsfactorError,
)
from .factor import EstimatorConfig, FactorFit, estimate
from .forecast import expanding_window_eval
from .io import (
    fmt_float,
    ingest_csv,
    ingest_matrix_csv,
    write_loadings_csv,
    write_text,
    write_trace_kv,
)
from .matrixfactor import estimate_matrix
from .modelselect import BicTrace
from .simulate import SimulationSpec, run_monte_carlo
from .tsstats import TimePanel

__all__ = ["build_parser", "main", "run"]

_EXIT_BY_ERROR: tuple[tuple[type, int], ...] = (
    (IngestError, 3),
    (InvalidData, 4),
    (InvalidConfig, 5),
    (InvalidLag, 6),
    (PreconditionViolated, 7),
    (IllConditioned, 8),
    (DegenerateSpectrum, 9),
    (TsfactorError, 10),
)

_FIT = EstimatorConfig()  # each option that fills an EstimatorConfig defaults to its field


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

    def add(name: str, help_text: str, with_input: bool) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        if with_input:
            p.add_argument("input", help="CSV file, one row per time point")
        p.add_argument("--out", default=".", help="directory for the artifacts")
        p.add_argument("--config", default=None, help="JSON file with option defaults")
        p.set_defaults(subparser=p)
        return p

    p = add("estimate", "estimate loadings and the factor count", True)
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
    p.set_defaults(func=_cmd_estimate)

    p = add("select-q", "scan the projection dimension by generalized BIC", True)
    p.add_argument("--m", type=int, default=_FIT.m)
    p.add_argument("--q0", type=int, default=_FIT.q0)
    p.add_argument("--bic-c", type=float, default=_FIT.bic_c)
    p.add_argument("--vartheta-scale", type=float, default=_FIT.vartheta_scale)
    p.add_argument("--no-demean", action="store_true", default=False)
    p.set_defaults(func=_cmd_select_q)

    p = add("simulate", "Monte Carlo study of the three estimators", False)
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
    p.set_defaults(func=_cmd_simulate)

    p = add("forecast", "expanding-window forecast comparison", True)
    p.add_argument("--method", default="all", choices=["cov", "auto", "wauto", "all"])
    p.add_argument("--h", type=int, default=1, help="forecast horizon")
    p.add_argument("--r", type=int, default=1, help="factor count used in every window")
    p.add_argument("--n1", type=int, default=None, help="first training window length")
    p.add_argument("--m", type=int, default=_FIT.m)
    p.add_argument("--q", type=_q_flag, default=_FIT.q)
    p.add_argument("--vartheta-scale", type=float, default=_FIT.vartheta_scale)
    p.add_argument("--standardize-per-window", action="store_true", default=False,
                   help="score in original units with per-window scaling")
    p.set_defaults(func=_cmd_forecast)

    p = add("matrix-estimate", "row/column loading spaces of a matrix series", True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--q1", type=int, default=None)
    p.add_argument("--q2", type=int, default=None)
    p.add_argument("--d1", type=int, default=None)
    p.add_argument("--d2", type=int, default=None)
    p.add_argument("--vartheta-scale", type=float, default=0.1)
    p.set_defaults(func=_cmd_matrix)

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


def _finish(out_dir: str, report: str, trace_items: list[tuple[str, object]]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_text(os.path.join(out_dir, "report.txt"), report)
    write_trace_kv(os.path.join(out_dir, "trace.kv"), trace_items)
    print(report, end="")


def _result_writer(out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    return open(os.path.join(out_dir, "result.csv"), "w", newline="")


def _fit_trace(fit: FactorFit, n: int, p: int) -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = [
        ("method", fit.method),
        ("n", n),
        ("p", p),
        ("r_hat", fit.r_hat),
    ]
    if fit.q_used is not None:
        items.append(("q_used", fit.q_used))
    items.append(("ratio", np.asarray(fit.ratios)))
    start = 0 if fit.method == "cov" else 1
    for k, spectrum in enumerate(fit.eigenvalues_per_lag, start=start):
        items.append((f"spectrum_lag{k}", np.asarray(spectrum)))
    return items if fit.bic_trace is None else items + _scan_trace(fit.bic_trace)


def _scan_trace(trace: BicTrace) -> list[tuple[str, object]]:
    """The q scan's keys, written by ``select-q`` and by a ``wauto`` fit that scans q."""
    items: list[tuple[str, object]] = [
        ("q_hat", trace.q_hat),
        ("r_bar", trace.r_bar),
        ("candidate", np.asarray(trace.candidates)),
        ("r_hat_candidate", np.asarray(trace.r_hat_per_candidate)),
        ("bic_total", np.asarray(trace.totals)),
    ]
    return items + [(f"bic_lag{k}", row) for k, row in enumerate(trace.per_lag_bic, start=1)]


def _ratio_table(ratios: np.ndarray) -> str:
    lines = ["rank  ratio"]
    for j, value in enumerate(np.asarray(ratios), start=1):
        lines.append(f"{j:>4d}  {value:.6g}")
    return "\n".join(lines)


def _cmd_estimate(args: argparse.Namespace) -> int:
    panel = _load_panel(args)
    cfg = EstimatorConfig(
        method=args.method,
        m=args.m,
        q=args.q,
        vartheta_scale=args.vartheta_scale,
        r_search_max=args.r_max,
        r_fixed=args.r,
        q0=args.q0,
        bic_c=args.bic_c,
    )
    fit = estimate(panel, cfg)
    q_text = "-" if fit.q_used is None else str(fit.q_used)
    report = (
        "factor estimate\n"
        f"method={fit.method}  m={args.m}  q={q_text}\n"
        f"n={panel.n}  p={panel.p}\n"
        f"r_hat={fit.r_hat}\n"
        + _ratio_table(fit.ratios)
        + "\n"
    )
    _write_fit(args.out, fit, panel.names)
    _finish(args.out, report, [("command", "estimate")] + _fit_trace(fit, panel.n, panel.p))
    return 0


def _write_fit(out_dir: str, fit: FactorFit, names: tuple[str, ...]) -> None:
    """The loadings as ``result.csv`` and the factors as ``factors.csv``."""
    os.makedirs(out_dir, exist_ok=True)
    write_loadings_csv(os.path.join(out_dir, "result.csv"), fit.A_hat, names)
    with open(os.path.join(out_dir, "factors.csv"), "w", newline="\n") as fh:
        fh.write(",".join(f"f{j + 1}" for j in range(fit.r_hat)) + "\n")
        for row in fit.factors:
            fh.write(",".join(fmt_float(v) for v in row) + "\n")


def _cmd_select_q(args: argparse.Namespace) -> int:
    panel = _load_panel(args)
    cfg = EstimatorConfig(m=args.m, vartheta_scale=args.vartheta_scale, q0=args.q0, bic_c=args.bic_c)
    fit = estimate(panel, cfg)
    trace = fit.bic_trace
    lines = [
        "projection dimension scan",
        f"n={panel.n}  p={panel.p}  q0={trace.candidates[-1]}  C={cfg.bic_c:.6g}",
        f"q_hat={trace.q_hat}  r_bar={trace.r_bar}  r_hat={fit.r_hat}",
        "q  r_hat  bic_total",
    ]
    for q, r_q, total in zip(trace.candidates, trace.r_hat_per_candidate, trace.totals):
        lines.append(f"{q:>2d}  {r_q:>5d}  {total:.10g}")
    report = "\n".join(lines) + "\n"
    items = [("command", "select-q"), ("n", panel.n), ("p", panel.p), ("r_hat", fit.r_hat)]
    _write_fit(args.out, fit, panel.names)
    _finish(args.out, report, items + _scan_trace(trace))
    return 0


def _method_configs(args: argparse.Namespace) -> tuple[EstimatorConfig, ...]:
    names = ["cov", "auto", "wauto"] if args.method == "all" else [args.method]
    return tuple(
        EstimatorConfig(method=name, m=args.m, q=args.q, vartheta_scale=args.vartheta_scale)
        for name in names
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
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
    report_obj = run_monte_carlo(spec, threads=1 if args.threads is None else args.threads)
    delta1_text = fmt_float(spec.delta0 if spec.delta1 is None else spec.delta1)
    lines = [
        "monte carlo study",
        f"model={spec.model}  p={spec.p}  n={spec.n}  r0={spec.r0}  r1={spec.r1}",
        f"delta0={fmt_float(spec.delta0)}  delta1={delta1_text}  "
        f"runs={spec.n_runs}  seed={spec.base_seed}",
        "method  freq_correct  mean_r_hat  mean_distance  sd_distance  failed",
    ]
    for s in report_obj.summaries:
        lines.append(
            f"{s.method:<7s} {s.frequency_correct:>12.4f}  {s.mean_r_hat:>10.4f}  "
            f"{s.mean_distance:>13.6f}  {s.sd_distance:>11.6f}  {s.n_failed:>6d}"
        )
    report = "\n".join(lines) + "\n"
    with _result_writer(args.out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["run", "method", "r_hat", "distance", "error"])
        for rec in report_obj.records:
            writer.writerow([
                rec.run_index,
                rec.method,
                "" if rec.r_hat is None else rec.r_hat,
                "" if rec.distance is None else fmt_float(rec.distance),
                rec.error or "",
            ])
    items: list[tuple[str, object]] = [
        ("command", "simulate"),
        ("rng", "pcg64"),
        ("model", spec.model),
        ("p", spec.p),
        ("n", spec.n),
        ("r0", spec.r0),
        ("r1", spec.r1),
        ("delta0", spec.delta0),
        ("delta1", spec.delta0 if spec.delta1 is None else spec.delta1),
        ("noise_scale", spec.noise_scale),
        ("runs", spec.n_runs),
        ("seed", spec.base_seed),
    ]
    for s in report_obj.summaries:
        items += [
            (f"freq_correct_{s.method}", s.frequency_correct),
            (f"mean_r_hat_{s.method}", s.mean_r_hat),
            (f"mean_distance_{s.method}", s.mean_distance),
            (f"sd_distance_{s.method}", s.sd_distance),
            (f"failed_{s.method}", s.n_failed),
        ]
    _finish(args.out, report, items)
    return 0


def _cmd_forecast(args: argparse.Namespace) -> int:
    panel = ingest_csv(args.input, demean_panel=False)
    n1 = args.n1 if args.n1 is not None else panel.n - 50
    standardize = "train" if args.standardize_per_window else "global"
    report_obj = expanding_window_eval(
        panel,
        _method_configs(args),
        r_hat=args.r,
        h=args.h,
        n1=n1,
        standardize=standardize,
    )
    lines = [
        "expanding-window forecast comparison",
        f"n={panel.n}  p={panel.p}  h={report_obj.h}  n1={report_obj.n1}  "
        f"n2={report_obj.n2}  windows={len(report_obj.origins)}  "
        f"standardize={standardize}",
        "method  mafe        msfe        failed",
    ]
    for res in report_obj.results:
        lines.append(
            f"{res.label:<7s} {res.mafe:>10.6f}  {res.msfe:>10.6f}  {res.n_failed:>6d}"
        )
    report = "\n".join(lines) + "\n"
    with _result_writer(args.out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", "mafe", "msfe", "failed"])
        for res in report_obj.results:
            writer.writerow(
                [res.label, fmt_float(res.mafe), fmt_float(res.msfe), res.n_failed]
            )
    items: list[tuple[str, object]] = [
        ("command", "forecast"),
        ("n", panel.n),
        ("p", panel.p),
        ("h", report_obj.h),
        ("r", args.r),
        ("n1", report_obj.n1),
        ("n2", report_obj.n2),
        ("standardize", standardize),
    ]
    for res in report_obj.results:
        items += [
            (f"mafe_{res.label}", res.mafe),
            (f"msfe_{res.label}", res.msfe),
            (f"failed_{res.label}", res.n_failed),
        ]
    _finish(args.out, report, items)
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
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
    lines = [
        "matrix factor estimate",
        f"n={mp.n}  p1={mp.p1}  p2={mp.p2}  q1={fit.q1_used}  q2={fit.q2_used}",
        f"d1={fit.d1}  d2={fit.d2}",
        "side  rank  eigenvalue",
    ]
    for side, spectrum in (("row", fit.row_spectrum), ("col", fit.col_spectrum)):
        for j, value in enumerate(spectrum[: max(fit.d1, fit.d2) + 2], start=1):
            lines.append(f"{side:<4s}  {j:>4d}  {value:.6g}")
    report = "\n".join(lines) + "\n"
    with _result_writer(args.out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["side", "row", "col", "value"])
        for side, basis in (("R", fit.R_hat), ("C", fit.C_hat)):
            for i, row in enumerate(basis, start=1):
                for j, value in enumerate(row, start=1):
                    writer.writerow([side, i, j, fmt_float(value)])
    items: list[tuple[str, object]] = [
        ("command", "matrix-estimate"),
        ("n", mp.n),
        ("p1", mp.p1),
        ("p2", mp.p2),
        ("q1", fit.q1_used),
        ("q2", fit.q2_used),
        ("d1", fit.d1),
        ("d2", fit.d2),
        ("row_spectrum", fit.row_spectrum),
        ("col_spectrum", fit.col_spectrum),
        ("row_ratio", fit.row_ratios),
        ("col_ratio", fit.col_ratios),
    ]
    _finish(args.out, report, items)
    return 0


def run(argv=None) -> int:
    """Parse arguments, execute the subcommand, and map errors to codes."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            args = _apply_config(parser, args, argv)
        return args.func(args)
    except TsfactorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for category, code in _EXIT_BY_ERROR:
            if isinstance(exc, category):
                return code
        return 10


def main(argv=None) -> None:
    sys.exit(run(argv))
