"""Command line entry point.

Subcommands: simulate (run a scenario, emit trace.csv + SVG plots),
verify (the seven-check identity suite), region (Md positive
definiteness interval), counterexample (prior-work ODE residual).
Exit codes: 0 success, 1 model/verification failure or a stdout pipe the
reader closed, 2 config or output directory error. A warning prints on stderr as
one line, `warning: <message>`.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

from . import verify as verify_mod
from .config import Config, ConfigError, load_config
from .controller import EmptyRegion
from .simulate import NonFiniteState, Trace, run


CSV_CHUNK_ROWS = 256  # rows per write: keeps the temporary floats and strings well under 1 MB


def write_trace_csv(trace: Trace, path: str):
    """Fixed-schema CSV, 9 significant digits, byte-stable across runs.

    Each block of CSV_CHUNK_ROWS rows is formatted by one % of the repeated line format
    over the block's values in row-major order.
    """
    ell = trace.theta_hat.shape[1]
    header = "t,q1,q2,p1,p2,u,d,d_hat,H,Hd,V_lyap,ptilde1"
    header += "".join(f",theta_hat_{i + 1}" for i in range(ell))
    columns = (trace.t, trace.q, trace.p, trace.u, trace.d, trace.d_hat, trace.H,
               trace.Hd, trace.V_lyap, trace.ptilde1, trace.theta_hat)
    line = ",".join(["%.9g"] * len(header.split(","))) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for start in range(0, trace.t.shape[0], CSV_CHUNK_ROWS):
            block = np.column_stack([col[start:start + CSV_CHUNK_ROWS] for col in columns])
            fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))


def _print_json(obj):
    """Print obj as strict JSON (RFC 8259): nan and +-inf are written as null."""
    strict = json.loads(json.dumps(obj), parse_constant=lambda name: None)
    print(json.dumps(strict, indent=2, allow_nan=False))


def trace_summary(trace: Trace) -> dict:
    out = {"status": trace.status, "steps": max(int(trace.t.shape[0]) - 1, 0)}
    if trace.t.shape[0] > 0:
        out["t_final"] = float(trace.t[-1])
        out["final_q_inf"] = float(np.max(np.abs(trace.q[-1])))
        out["final_dhat_minus_d"] = float(abs(trace.d_hat[-1] - trace.d[-1]))
    if trace.t.shape[0] > 1:
        dt = float(trace.t[1] - trace.t[0])
        slopes = np.diff(trace.Hd) / dt
        out["hd_slope_min"] = float(slopes.min())
        out["hd_slope_max"] = float(slopes.max())
        vslopes = np.diff(trace.V_lyap) / dt
        out["v_slope_max"] = float(vslopes.max())
    if trace.status != "ok":
        out["exit_reason"] = trace.exit_reason
    return out


def _emit_plots(trace: Trace, cfg: Config, out_dir: str):
    from .svgplot import line_plot

    line_plot(os.path.join(out_dir, "q.svg"), trace.t,
              [("q1", trace.q[:, 0]), ("q2", trace.q[:, 1])],
              title="configuration variables", xlabel="t [s]", ylabel="q [rad]")
    line_plot(os.path.join(out_dir, "u.svg"), trace.t, [("u", trace.u)],
              title="control torque", xlabel="t [s]", ylabel="u")
    if cfg.mode != "nominal":
        line_plot(os.path.join(out_dir, "d_est.svg"), trace.t,
                  [("d", trace.d), ("d_hat", trace.d_hat)],
                  title="disturbance and estimate", xlabel="t [s]", ylabel="d")


def cmd_simulate(cfg: Config, out_dir: str, as_json: bool) -> int:
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        print(f"output error: {out_dir}: {e.strerror or e}", file=sys.stderr)
        return 2
    try:
        trace = run(cfg.scenario())
    except NonFiniteState as e:
        print(f"simulation failed: {e}", file=sys.stderr)
        return 1
    try:
        write_trace_csv(trace, os.path.join(out_dir, "trace.csv"))
        if cfg.plots and trace.t.shape[0] > 0:
            _emit_plots(trace, cfg, out_dir)
    except OSError as e:
        print(f"output error: {e.filename}: {e.strerror or e}", file=sys.stderr)
        return 2
    summary = trace_summary(trace)
    if as_json:
        _print_json(summary)
    else:
        for key, value in summary.items():
            print(f"{key}: {value}")
    return 0 if trace.status == "ok" else 1


def _report_lines(reports) -> list[str]:
    lines = [f"{'check':<26} {'value':>13} {'tol':>10} {'kind':<10} result"]
    for r in reports:
        line = (f"{r.name:<26} {r.max_abs_residual:>13.4e} {r.tol:>10.1e} "
                f"{r.kind:<10} {'pass' if r.passed else 'FAIL'}")
        if not r.sound:
            label, value, tol = r.control
            line += f" ({label} {value:.3e}, must be <= {tol:.1e})"
        lines.append(line)
    return lines


def cmd_verify(cfg: Config, as_json: bool) -> int:
    reports = verify_mod.verify_all(cfg.params, cfg.gains, cfg.verify)
    if as_json:
        _print_json([r.to_record() for r in reports])
    else:
        print("\n".join(_report_lines(reports)))
    return 0 if all(r.passed for r in reports) else 1


def cmd_region(cfg: Config, as_json: bool) -> int:
    try:
        region = verify_mod.region_report(cfg.params, cfg.gains)
    except EmptyRegion as e:
        print(f"empty region: {e}", file=sys.stderr)
        return 1
    md = verify_mod.md_definiteness_scan(cfg.params, cfg.gains)
    record = {
        "rho_formula": region.details["rho_formula"],
        "rho_scan": region.details["rho_scan"],
        "md_pd_interval_endpoint": md.details["pd_endpoint"],
    }
    if as_json:
        _print_json(record)
    else:
        print(f"rho (formula): {record['rho_formula']:.9g}")
        print(f"rho (d4 sign scan): {record['rho_scan']:.9g}")
        print(f"det Md > 0 interval endpoint: {record['md_pd_interval_endpoint']:.9g}")
    return 0


def cmd_counterexample(cfg: Config, as_json: bool) -> int:
    report = verify_mod.remark2_residual(cfg.verify.counterexample)
    if as_json:
        record = report.to_record()
        record["checker_sound"] = report.sound
        _print_json(record)
    else:
        print("\n".join(_report_lines([report])))
        print(f"checker soundness on integrated solution: "
              f"{report.details['integrated_solution_max_residual']:.3e} "
              f"({'pass' if report.sound else 'FAIL'})")
    return 0 if report.passed else 1


def _add_common(parser, suppress: bool):
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", default=default, metavar="PATH",
                        help="YAML configuration file")
    parser.add_argument("--out", default=default, metavar="DIR",
                        help="output directory (overrides output.dir)")
    parser.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS if suppress else False,
                        help="machine-readable output")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ripsim",
        description="Rotary inverted pendulum: energy-shaping control, "
                    "simulation, verification")
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "verify", "region", "counterexample"):
        p = sub.add_parser(name)
        _add_common(p, suppress=True)
    args = parser.parse_args(argv)

    if args.config is None:
        print("error: --config PATH is required", file=sys.stderr)
        return 2
    with warnings.catch_warnings():
        # one plain line per warning, without the library's file, line and source text
        warnings.showwarning = lambda message, *_: print(f"warning: {message}",
                                                         file=sys.stderr)
        try:
            cfg = load_config(args.config)
        except ConfigError as e:
            print(f"config error: {e}", file=sys.stderr)
            return 2
        out_dir = args.out if args.out is not None else cfg.out_dir

        try:
            if args.command == "simulate":
                code = cmd_simulate(cfg, out_dir, args.json)
            elif args.command == "verify":
                code = cmd_verify(cfg, args.json)
            elif args.command == "region":
                code = cmd_region(cfg, args.json)
            else:
                code = cmd_counterexample(cfg, args.json)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader closed stdout. Point it at devnull so that the flush at
            # exit cannot raise again, and fail quietly, as a SIGPIPE would.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
