"""Command line interface, exercised in-process through main(argv).

Covers:
  - simulate: exit codes, trace.csv schema and byte-stability, SVG plots,
    --out override, --json summary, region-exit and blow-up reporting (a
    warning is one `warning: <message>` line on stderr, and library callers
    still see warnings as Python raises them); a
    run that leaves the band in its first step writes one row and its plots,
    each series one marker; an output directory that cannot be made (under
    --out or output.dir) exits 2 before the run, and a trace.csv or q.svg
    that cannot be written (a directory in its place) exits 2 with its path
  - verify: seven-row report, --json records, failure exit on a broken check
    (a psi3 shift planted in controller.shaping); a coarse FD step fails
    check 1 through its fd route alone, and the row names the fd control;
    --json on default names the seven fixed grids
  - region: formula/scan/interval printout and EmptyRegion handling
  - counterexample: residual report plus checker soundness line; a soundness
    control that blows up to nan fails counterexample and verify alike (exit 1,
    run as `python -m ripsim`, no numpy warning on stderr), the verify row names
    the control's value, and --json writes it as null (strict JSON, no NaN)
  - config errors exit 2, non-finite list entries and an over-long t_end included;
    so does a --config that is a directory or is not UTF-8 text;
    an overflowing robot constant (lumped or physical) and gains with det Md(0) <= 0
    or an underflowing z offset exit 2 from simulate, verify and region; a gamma
    whose symmetry test overflows exits 2 from `python -m ripsim` with only the
    config-error line on stderr
  - a stdout pipe whose reader has gone (`verify`, `verify --json`,
    `region --json` under `python -m ripsim`) exits 1 with nothing on stderr
  - trace.csv bytes of every preset at a 1 s horizon, and fig4's three SVG
    plots at 5 s, pinned by SHA-256
  - write_trace_csv equals one "%.9g" per value on traces of 0, 1, CSV_CHUNK_ROWS
    and CSV_CHUNK_ROWS + 1 rows holding -0.0, nan, +-inf and 1e-300, for ell = 0
    and 3; line_plot's polylines equal one f"{x:.1f},{y:.1f}" per point of the
    direct pixel formula on random series, and _points equals that join where a
    coordinate rounds to "-0.0"
  - line_plot writes a complete SVG, with finite coordinates, for a series that
    alternates between 1e12 and the next double (its tick step is below half an
    ulp), one spanning +-1e308 (its range overflows) and a constant past 2**53
    (where +-1 does not widen it); each hung or raised before; a nan or +-inf in
    x or a series raises ValueError naming it, and writes no file
  - a disturbance.f term nested 700 calls deep exits 2 from verify with the
    disturbance.f: config error and no traceback; so does a term holding the
    literal 1e999, or literals whose product overflows (1e308*1e308, also
    inside sin), from verify and simulate (which ran them to a non-finite stage)
  - the package holds only runtime code: simulate (plots on) and verify on
    synthetic.yaml, run in a fresh interpreter, load every module file of it
    but __main__.py
"""
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from ripsim import cli, svgplot, verify
from ripsim.cli import CSV_CHUNK_ROWS, _emit_plots, main, write_trace_csv
from ripsim.config import load_config
from ripsim.simulate import Trace, run

from oracles import inject_shaping_fault, shift_psi3

PRESETS = Path(__file__).resolve().parent.parent / "presets"
# SHA-256 of trace.csv for each preset cut to t_end = 1 s. trace.csv comes from
# Python float arithmetic and math.sin/cos only, so a refactor of the control
# law, the integrator or the writer must leave these bytes as they are.
TRACE_SHA256_1S = {
    "default": "46aa6f49fa879c854a7d47f92f21043bc81d1c9aa8a44c338bdc1015e73bf4da",
    "fig2": "e6dc5af007290881d0c7565146e23f12ba3c8ae72940c39079a1eebbfbf319c7",
    "fig3": "e2d8185764a55ea2063cd452811098cdca385a35fc8b0ae973b419522389bb28",
    "fig4": "704caea65387e00c11130ba3bb65f75a78d4a75bf7076d4335b103732609b3bb",
    "synthetic": "d2e0f81a7f8632fb9209805a5c0852ffe17137421f152e078996be26bbbeeda8",
}
# SHA-256 of the three SVG plots of fig4 cut to t_end = 5 s: 5001 points, so the
# polylines take every 2nd one; the plot writer must leave these bytes as they are.
SVG_SHA256_FIG4_5S = {
    "q.svg": "b3b70438a82bf3bf5e6b5dba542e309a03bb14c0a880f24c8ca8a02b410e60e2",
    "u.svg": "2ab0c415492878fa9286585fb5d157b27b87b136f71d9eeaaa2caf156c9173d0",
    "d_est.svg": "6999b6aaae0dd3b196052df34f356f623b742b6eb985704aee455efe8afe53e3",
}

ROBOT = "robot: {p: [2.0, 1.0, 1.0, 2.0, 1.0]}\n"
SHORT_SIM = ("controller: {kappa: 0.5, kv: 2.0}\n"
             "simulation: {q0: [0.1, 0.2], dt: 0.001, t_end: 0.05}\n")
ROBUST = (ROBOT +
          "controller: {kappa: 0.5, kv: 2.0}\n"
          "simulation: {mode: disturbed_robust, q0: [0.1, 0.2], dt: 0.001, t_end: 0.05}\n"
          "disturbance: {f: ['1', 'q1', 'sin(q2)*cos(p1)'], theta: [0.1, 0.1, -0.3]}\n"
          "adaptive: {gamma: 1.0}\n")

BASE_COLUMNS = "t,q1,q2,p1,p2,u,d,d_hat,H,Hd,V_lyap,ptilde1"


def cfg_file(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_simulate_writes_trace(tmp_path, capsys):
    cfg = cfg_file(tmp_path, ROBOT + SHORT_SIM + f"output: {{dir: '{tmp_path}/out'}}\n")
    assert main(["simulate", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "out" / "trace.csv")
    assert header == BASE_COLUMNS
    assert len(rows) == 51
    widths = {len(r) for r in rows}
    assert widths == {len(BASE_COLUMNS.split(","))}
    ts = [float(r[0]) for r in rows]
    assert ts[0] == 0.0 and ts[-1] == pytest.approx(0.05)
    out = capsys.readouterr().out
    assert "status: ok" in out


def test_simulate_csv_byte_identical(tmp_path):
    cfg = cfg_file(tmp_path, ROBOT + SHORT_SIM)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "trace.csv").read_bytes()
    b = (tmp_path / "b" / "trace.csv").read_bytes()
    assert a == b
    assert a.endswith(b"\n")


def test_simulate_robust_theta_columns(tmp_path):
    cfg = cfg_file(tmp_path, ROBUST)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    header, rows = read_csv(tmp_path / "out" / "trace.csv")
    assert header == BASE_COLUMNS + ",theta_hat_1,theta_hat_2,theta_hat_3"
    assert all(len(r) == 15 for r in rows)
    d_col = np.array([float(r[6]) for r in rows])
    assert d_col[0] == pytest.approx(0.1 + 0.1 * 0.1 - 0.3 * np.sin(0.2), abs=1e-9)


def test_simulate_json_summary(tmp_path, capsys):
    cfg = cfg_file(tmp_path, ROBOT + SHORT_SIM)
    assert main(["simulate", "--config", cfg, "--json",
                 "--out", str(tmp_path / "out")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["status"] == "ok"
    assert summary["steps"] == 50
    assert summary["t_final"] == pytest.approx(0.05)
    assert "hd_slope_max" in summary and "final_q_inf" in summary


def test_simulate_region_exit_is_failure(tmp_path, capsys):
    text = ROBOT + "simulation: {q0: [0.0, 0.6], dt: 0.001, t_end: 0.01}\n"
    cfg = cfg_file(tmp_path, text)
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 1
    out, err = capsys.readouterr()
    assert "region_exit" in out
    assert err == ("warning: |q2(0)| = 0.6 is outside the Md>0 region rho = 0.5426; "
                   "expect an immediate region exit\n")
    header, rows = read_csv(tmp_path / "out" / "trace.csv")
    assert header == BASE_COLUMNS and rows == []


def test_cli_warnings_print_one_plain_line(tmp_path, capsys):
    # each warning is one `warning: <message>` line on stderr, with no source path or
    # line; the warning machinery is as it was once main returns
    shown = warnings.showwarning
    cfg = cfg_file(tmp_path, "robot: {p: [2.0, 1.0, 1.0, 2.0, 1.0], m1: 1.0}\n")
    assert main(["region", "--config", cfg]) == 0
    out, err = capsys.readouterr()
    assert err == "warning: robot: both p and physical constants given; p wins\n"
    assert out.startswith("rho (formula): ")
    assert warnings.showwarning is shown
    with pytest.warns(UserWarning, match="p wins"):
        load_config(cfg)


def test_simulate_blowup_is_reported(tmp_path, capsys):
    text = ("robot: {p: [1.5, 0.1, 0.25, 0.13333333333333333, 3.924]}\n"
            "controller: {psi40: 1.0, k1: 0.1, k2: 100.0, kappa: 0.006, kv: 400.0}\n"
            "simulation: {mode: disturbed_nominal, q0: [-0.8, 0.8], dt: 0.001, t_end: 2.0}\n"
            "disturbance: {f: ['sin(p1*p1*p1*p1*p1*p1*p1)*p1*p1*p1'], theta: [1.0e+12]}\n")
    cfg = cfg_file(tmp_path, text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "simulation failed" in err and "Traceback" not in err


def test_simulate_one_row_trace_is_plotted(tmp_path, capsys):
    # the run leaves the band inside its first RK4 step: trace.csv has one row,
    # and the plots over a zero-width time range are still written
    text = ROBOT + "simulation: {q0: [0.0, 0.5], qdot0: [0.0, 1000.0], t_end: 0.01}\n"
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_file(tmp_path, text), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "status: region_exit" in captured.out and "Traceback" not in captured.err
    _, rows = read_csv(out / "trace.csv")
    assert len(rows) == 1
    for name, n_series in (("q.svg", 2), ("u.svg", 1)):
        svg = (out / name).read_text()
        assert svg.startswith("<svg") and svg.endswith("</svg>\n")
        # a one-point polyline draws nothing: each series is one marker instead
        assert svg.count("<circle ") == n_series and "<polyline" not in svg


@pytest.mark.parametrize("spelling", ["--out", "output.dir"])
def test_unusable_output_dir_exits_2_before_the_run(tmp_path, capsys, monkeypatch, spelling):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(cli, "run", lambda scenario: pytest.fail("ran before the output check"))
    for out in (blocker, blocker / "sub"):   # an existing file; a directory under a file
        if spelling == "--out":
            argv = ["--config", cfg_file(tmp_path, ROBOT + SHORT_SIM), "--out", str(out)]
        else:
            argv = ["--config", cfg_file(tmp_path, ROBOT + SHORT_SIM
                                         + f"output: {{dir: '{out}'}}\n")]
        assert main(["simulate", *argv]) == 2
        assert capsys.readouterr().err.startswith(f"output error: {out}: ")


@pytest.mark.parametrize("name", ["trace.csv", "q.svg"])
def test_unwritable_output_file_exits_2(tmp_path, capsys, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)   # a directory where simulate writes a file
    argv = ["simulate", "--config", cfg_file(tmp_path, ROBOT + SHORT_SIM), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"output error: {out / name}: ") and "Traceback" not in err


@pytest.mark.parametrize("name", sorted(TRACE_SHA256_1S))
def test_preset_trace_bytes_pinned(tmp_path, name):
    cfg = load_config(str(PRESETS / f"{name}.yaml"))
    write_trace_csv(run(dataclasses.replace(cfg, t_end=1.0).scenario()), tmp_path / "trace.csv")
    digest = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
    assert digest == TRACE_SHA256_1S[name]


def test_fig4_svg_bytes_pinned(tmp_path):
    cfg = dataclasses.replace(load_config(str(PRESETS / "fig4.yaml")), t_end=5.0)
    _emit_plots(run(cfg.scenario()), cfg, str(tmp_path))
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in SVG_SHA256_FIG4_5S} == SVG_SHA256_FIG4_5S


def special_trace(rows, ell, seed):
    """A Trace of random values over 24 decades with -0.0, nan, +-inf and 1e-300 among them."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, 12 + ell)) * 10.0 ** rng.integers(-12, 12, size=(rows, 12 + ell))
    specials = [-0.0, math.nan, math.inf, -math.inf, 1e-300]
    at = rng.permutation(a.size)[:len(specials)]
    a.reshape(-1)[at] = specials[:len(at)]
    return Trace(t=a[:, 0], q=a[:, 1:3], p=a[:, 3:5], u=a[:, 5], d=a[:, 6], d_hat=a[:, 7],
                 H=a[:, 8], Hd=a[:, 9], V_lyap=a[:, 10], ptilde1=a[:, 11], theta_hat=a[:, 12:])


@pytest.mark.parametrize("ell", [0, 3])
@pytest.mark.parametrize("rows", [0, 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1])
def test_trace_csv_equals_per_value_format(tmp_path, rows, ell):
    trace = special_trace(rows, ell, seed=rows + ell)
    write_trace_csv(trace, tmp_path / "trace.csv")
    header = BASE_COLUMNS + "".join(f",theta_hat_{i + 1}" for i in range(ell))
    values = np.column_stack([trace.t, trace.q, trace.p, trace.u, trace.d, trace.d_hat,
                              trace.H, trace.Hd, trace.V_lyap, trace.ptilde1,
                              trace.theta_hat])
    want = header + "\n" + "".join(",".join("%.9g" % v for v in row) + "\n"
                                    for row in values.tolist())
    assert (tmp_path / "trace.csv").read_bytes() == want.encode()
    if rows:
        assert {"-0", "nan", "inf", "-inf", "1e-300"} <= set(re.split("[,\n]", want))


def polyline_points(path):
    return re.findall(r'<polyline points="([^"]*)"', Path(path).read_text())


def direct_points(x, series):
    """Each polyline's points from the direct pixel formula, one f-string per point."""
    x_lo, x_hi = x.min(), x.max()
    y_lo, y_hi = min(y.min() for y in series), max(y.max() for y in series)
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    px_w = svgplot.WIDTH - svgplot.MARGIN_L - svgplot.MARGIN_R
    px_h = svgplot.HEIGHT - svgplot.MARGIN_T - svgplot.MARGIN_B
    stride = max(len(x) // 2000, 1)
    px = (svgplot.MARGIN_L + (x[::stride] - x_lo) / (x_hi - x_lo) * px_w).tolist()
    return [" ".join(f"{a:.1f},{b:.1f}" for a, b in zip(
        px, (svgplot.MARGIN_T + (y_hi - y[::stride]) / (y_hi - y_lo) * px_h).tolist()))
        for y in series]


@pytest.mark.parametrize("n", [2, 3, 1999, 2501, 5001])
def test_polyline_points_equal_per_point_format(tmp_path, n):
    rng = np.random.default_rng(n)
    x = np.sort(rng.uniform(-3.0, 7.0, n)) * 10.0 ** rng.integers(-3, 4)
    series = [rng.normal(size=n) * 10.0 ** rng.integers(-6, 7) + rng.normal() for _ in range(3)]
    series[1][: n // 2] = series[1][0]   # a flat stretch
    svgplot.line_plot(tmp_path / "p.svg", x, [(f"s{i}", y) for i, y in enumerate(series)])
    assert polyline_points(tmp_path / "p.svg") == direct_points(x, series)


def test_points_format_equals_per_point_join():
    rng = np.random.default_rng(5)
    xy = [-0.04, 0.05, -0.0, 0.25, 0.35, -0.05, 1e300, math.nan, math.inf, -math.inf,
          *(rng.normal(size=200) * 10.0 ** rng.integers(-3, 4, size=200)).tolist()]
    want = " ".join(f"{a:.1f},{b:.1f}" for a, b in zip(xy[::2], xy[1::2]))
    assert svgplot._points(xy) == want and want.startswith("-0.0,0.1 -0.0,0.2")


def assert_complete_svg(path):
    text = Path(path).read_text()
    assert text.startswith("<svg") and text.endswith("</svg>\n")
    numbers = re.findall(r'\s(?:x|y|x1|y1|x2|y2|cx|cy)="([^"]*)"', text)
    numbers += [v for pts in polyline_points(path) for p in pts.split() for v in p.split(",")]
    assert numbers and all(math.isfinite(float(v)) for v in numbers)
    return text


def run_python(code):
    """`python -c CODE` on this checkout's sources, with a timeout: a hang fails the test."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)


def test_ticks_below_half_an_ulp_return(tmp_path):
    # the step (5e-5) is below half an ulp of 1e12, so t += step never moved t
    path = tmp_path / "ulp.svg"
    proc = run_python(
        "import math, sys\n"
        "from ripsim.svgplot import _nice_ticks, line_plot\n"
        "print(_nice_ticks(1e12, math.nextafter(1e12, math.inf)))\n"
        "y = [1e12, math.nextafter(1e12, math.inf)] * 50\n"
        f"line_plot({str(path)!r}, range(100), [('y', y)])\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[1000000000000.0]\n"
    assert '>1e+12</text>' in assert_complete_svg(path)


def test_range_past_the_largest_double_is_plotted(tmp_path):
    # (hi - lo) overflowed to inf: the tick magnitude was inf and the pixels nan
    y = np.array([-1.7e308, 1e308, 0.0, 1.7e308])
    svgplot.line_plot(tmp_path / "huge.svg", np.arange(4.0), [("y", y)])
    text = assert_complete_svg(tmp_path / "huge.svg")
    assert all(f">{t}</text>" in text for t in ("-1e+308", "0", "1e+308"))
    assert svgplot._nice_ticks(-1.7e308, 1.7e308) == [-1e308, 0.0, 1e308]


@pytest.mark.parametrize("value", [1e16, -1e300, 1.7976931348623157e308])
def test_constant_past_2_53_is_plotted(tmp_path, value):
    # value +- 1 is value itself here: the range is widened in proportion instead
    svgplot.line_plot(tmp_path / "flat.svg", np.arange(5.0), [("y", np.full(5, value))])
    assert_complete_svg(tmp_path / "flat.svg")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_are_rejected(tmp_path, bad):
    x, y = np.arange(4.0), np.array([0.0, 1.0, 2.0, 3.0])
    for xs, series, name in ((x, [("q1", y), ("q2", np.where(x == 2.0, bad, y))], "series 'q2'"),
                             (np.where(x == 1.0, bad, x), [("q1", y)], "x")):
        with pytest.raises(ValueError, match=f"line_plot: {re.escape(name)} holds a non-finite"):
            svgplot.line_plot(tmp_path / "bad.svg", xs, series)
        assert not (tmp_path / "bad.svg").exists()


def test_plots_emitted(tmp_path):
    cfg = cfg_file(tmp_path, ROBUST)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    for name in ("q.svg", "u.svg", "d_est.svg"):
        body = (tmp_path / "out" / name).read_text()
        assert "<svg" in body and "</svg>" in body


def test_plots_suppressed(tmp_path):
    cfg = cfg_file(tmp_path, ROBOT + SHORT_SIM + "output: {plots: false}\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert not (tmp_path / "out" / "q.svg").exists()
    assert (tmp_path / "out" / "trace.csv").exists()


def test_nominal_has_no_d_est_plot(tmp_path):
    cfg = cfg_file(tmp_path, ROBOT + SHORT_SIM)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "q.svg").exists()
    assert not (tmp_path / "out" / "d_est.svg").exists()


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.yaml")]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["simulate"]) == 2


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_unreadable_config_exits_2(tmp_path, capsys, kind):
    if kind == "directory":
        path, why = tmp_path, "cannot read"
    else:
        path, why = tmp_path / "latin1.yaml", "not UTF-8 text"
        path.write_bytes(ROBOT.encode() + b"# caf\xe9\n")
    assert main(["verify", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: {why}")


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = cfg_file(tmp_path, ROBOT + "controller: {k1: 0.6}\n")
    assert main(["simulate", "--config", cfg]) == 2
    assert "d4(0)" in capsys.readouterr().err


def test_section_not_a_mapping_exits_2(tmp_path, capsys):
    cfg = cfg_file(tmp_path, ROBOT + "simulation: []\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: simulation: not a mapping") and "Traceback" not in err


@pytest.mark.parametrize("robot", [
    "robot: {p: [1.0, 1.0, 1.0e+200, 1.0, 1.0]}\n",
    "robot: {m1: 1.0e+200, m2: 1.0e+200, l1: 1.0e+200, l2: 1.0, I1: 1.0, I2: 1.0}\n",
])
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_overflowing_robot_exits_2(tmp_path, capsys, robot, command):
    # p3^2 (lumped) and l1^2 (physical) overflow
    cfg = cfg_file(tmp_path, robot)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: robot") and "Traceback" not in err


def run_module(*args, stdout=subprocess.PIPE):
    """`python -m ripsim ARGS` on this checkout's sources, stderr (and by default
    stdout) captured."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-m", "ripsim", *args], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=120)


@pytest.mark.parametrize("command", [["verify", "--json"], ["verify"], ["region", "--json"]])
def test_closed_stdout_pipe_exits_1_quietly(command):
    # the reader is gone before the child writes: exit 1, no BrokenPipeError traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_module("--config", str(PRESETS / "default.yaml"), *command,
                          stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_overflowing_gamma_asymmetry_exits_2(tmp_path):
    # gamma - gamma.T overflows to inf in the symmetry test: rejected, with no
    # numpy RuntimeWarning printed ahead of the config error
    doc = yaml.safe_load((PRESETS / "fig4.yaml").read_text())
    doc["adaptive"]["gamma"] = [[1.0, 1.7e308, 0.0], [-1.7e308, 1.0, 0.0], [0.0, 0.0, 1.0]]
    cfg = cfg_file(tmp_path, yaml.safe_dump(doc))
    proc = run_module("--config", cfg, "simulate", "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr == "config error: adaptive: gamma must be symmetric\n"


@pytest.mark.parametrize("controller, message", [
    ("{k2: 1.0}", "det Md(0)"),                              # 1*8 - 19^2 = -353
    ("{psi40: 1.0e-300, k1: 1.0e-300}", "out of scale"),     # k1*p2*psi40 underflows to 0
])
@pytest.mark.parametrize("command", ["simulate", "verify", "region"])
def test_gains_without_pd_md0_exit_2(tmp_path, capsys, controller, message, command):
    cfg = cfg_file(tmp_path, ROBOT + f"controller: {controller}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: controller") and message in err
    assert "Traceback" not in err


def test_nonfinite_theta_exits_2(tmp_path, capsys):
    text = (PRESETS / "fig4.yaml").read_text().replace(
        "theta: [0.1, 0.1, -0.3]", "theta: [.inf, .inf, .inf]")
    cfg = cfg_file(tmp_path, text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "disturbance.theta[0]: must be finite" in err and "Traceback" not in err


def test_deeply_nested_term_exits_2(tmp_path, capsys):
    term = "sin(" * 700 + "q1" + ")" * 700
    cfg = cfg_file(tmp_path, ROBUST.replace("'sin(q2)*cos(p1)'", f"'{term}'"))
    assert main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: disturbance.f: calls nested deeper than")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_overflowing_literal_term_exits_2(tmp_path, capsys, command):
    cfg = cfg_file(tmp_path, ROBUST.replace("'sin(q2)*cos(p1)'", "'1e999'"))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: disturbance.f: number 1e999 overflows a double")
    assert "Traceback" not in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("term, pos", [("1e308*1e308", 0), ("q1*sin(1e308*1e308)", 7),
                                       ("q1*1e308*1e308", 3)])
@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_overflowing_constant_factors_exit_2(tmp_path, capsys, command, term, pos):
    # each literal is finite, their product is not: simulate once ran it to a
    # non-finite RK4 stage (exit 1) and verify passed it (exit 0)
    cfg = cfg_file(tmp_path, ROBOT + "simulation: {mode: disturbed_nominal}\n"
                   f"disturbance: {{f: ['{term}'], theta: [0.1]}}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: disturbance.f: constant factors multiply to inf, "
                          f"not a finite double at position {pos}")
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_t_end_over_step_limit_exits_2(tmp_path, capsys):
    cfg = cfg_file(tmp_path, ROBOT + "simulation: {t_end: 1.0e+12}\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "simulation.t_end" in err and "Traceback" not in err


@pytest.mark.parametrize("option", ["samples: 0", "grid_points: -5", "scan_cells: 0",
                                    "grid_points: 2.7", "span: 0"])
def test_invalid_verify_option_exits_2(tmp_path, capsys, option):
    # the grid sizes are fixed: each of their keys is unknown
    cfg = cfg_file(tmp_path, ROBOT + f"verify: {{{option}}}\n")
    assert main(["verify", "--config", cfg]) == 2
    assert f"verify.{option.split(':')[0]}: unknown key" in capsys.readouterr().err


def test_verify_grids_are_fixed(capsys):
    assert main(["verify", "--config", str(PRESETS / "default.yaml"), "--json"]) == 0
    grids = [rec["grid"] for rec in json.loads(capsys.readouterr().out)]
    assert grids == ["1000 points on [-1.5, 1.5]", "100x100 on [-3.0,3.0]x[-1.5,1.5]",
                     "1000000 cells on [0, pi/2]", "100000 cells on [0, pi/2]",
                     "point check at q*=[0,0]",
                     "1000 random states, |q2| < 1.068, seed 0",
                     "1000 points on [-1.0, 1.0]"]


def test_config_flag_position_flexible(tmp_path):
    cfg = cfg_file(tmp_path, ROBOT + SHORT_SIM)
    assert main(["--config", cfg, "simulate", "--out", str(tmp_path / "o1")]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o2")]) == 0


def test_verify_text_report(tmp_path, capsys):
    cfg = cfg_file(tmp_path, ROBOT)
    assert main(["verify", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 8
    names = [line.split()[0] for line in lines[1:]]
    assert names == ["kinetic_matching", "potential_matching", "region_rho",
                     "md_definiteness", "hessian_vd", "closed_loop_equivalence",
                     "remark2_counterexample"]
    assert all(line.endswith("pass") for line in lines[1:])


def test_verify_json_records(tmp_path, capsys):
    cfg = cfg_file(tmp_path, ROBOT)
    assert main(["verify", "--config", cfg, "--json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 7
    for rec in records:
        assert {"name", "max_abs_residual", "tol", "kind", "pass"} <= set(rec)
        assert rec["pass"] is True


def test_verify_detects_broken_identity(tmp_path, capsys, monkeypatch):
    inject_shaping_fault(monkeypatch, shift_psi3)
    cfg = cfg_file(tmp_path, ROBOT)
    assert main(["verify", "--config", cfg]) == 1
    out = capsys.readouterr().out
    line = next(s for s in out.splitlines() if s.startswith("kinetic_matching"))
    # both routes see the shift, so the row also names the fd control
    assert line.split()[4] == "FAIL" and "(fd control " in line


def test_verify_fails_on_fd_route_alone(tmp_path, capsys, monkeypatch):
    # a coarse central-difference step breaks only check 1's fd route: its
    # analytic value is unchanged, yet the row fails and names the fd control
    cfg = cfg_file(tmp_path, ROBOT)
    assert main(["verify", "--config", cfg]) == 0
    want = capsys.readouterr().out.splitlines()
    monkeypatch.setattr(verify, "FD_H", 0.05)
    assert main(["verify", "--config", cfg]) == 1
    got = capsys.readouterr().out.splitlines()
    assert got[2:] == want[2:]
    assert got[1].startswith(want[1].removesuffix("pass") + "FAIL (fd control ")
    assert got[1].endswith(", must be <= 1.0e-05)")


def test_region_text(tmp_path, capsys):
    cfg = cfg_file(tmp_path, ROBOT)
    assert main(["region", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "rho (formula): 0.542639102" in out
    assert "rho (d4 sign scan):" in out
    assert "det Md > 0 interval endpoint:" in out


def test_region_json(tmp_path, capsys):
    cfg = cfg_file(tmp_path, ROBOT)
    assert main(["region", "--config", cfg, "--json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["rho_formula"] == pytest.approx(0.5426391022496526, abs=1e-12)
    assert abs(rec["rho_scan"] - rec["rho_formula"]) < 1e-4
    assert rec["md_pd_interval_endpoint"] <= rec["rho_formula"] + 1e-4


def test_region_empty_exits_1(tmp_path, capsys, monkeypatch):
    # load_config already rejects d4(0) <= 0, so force the defensive branch
    from ripsim import controller
    from ripsim.controller import EmptyRegion

    def boom(params, gains):
        raise EmptyRegion("d4(0) = -0.1 <= 0")

    monkeypatch.setattr(controller, "region_rho", boom)
    cfg = cfg_file(tmp_path, ROBOT)
    assert main(["region", "--config", cfg]) == 1
    assert "empty region" in capsys.readouterr().err


def test_counterexample_report(tmp_path, capsys):
    cfg = cfg_file(tmp_path, ROBOT)
    assert main(["counterexample", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "remark2_counterexample" in out
    assert "checker soundness" in out and "pass" in out


def test_counterexample_blowup_fails_in_both_commands(tmp_path):
    # the soundness control's integration blows up to nan: check 7 fails, in
    # counterexample and in verify alike, with no numpy RuntimeWarning printed
    doc = yaml.safe_load((PRESETS / "default.yaml").read_text())
    doc["verify"] = {"counterexample": {"frak_k1": 1.0e-5, "frak_k2": 1.0, "b": 1.0e-4}}
    cfg = cfg_file(tmp_path, yaml.safe_dump(doc))
    proc = run_module("--config", cfg, "counterexample")
    assert proc.returncode == 1 and proc.stderr == ""
    assert "checker soundness on integrated solution: nan (FAIL)" in proc.stdout
    assert "remark2_counterexample" in proc.stdout and "FAIL" in proc.stdout.splitlines()[1]
    proc = run_module("--config", cfg, "verify")
    assert proc.returncode == 1 and proc.stderr == ""
    assert proc.stdout.splitlines()[-1].startswith("remark2_counterexample")
    assert proc.stdout.splitlines()[-1].endswith("FAIL (soundness control nan, must be <= 1.0e-06)")


NAN_CONTROL = "verify: {counterexample: {frak_k1: 1.0e-5, frak_k2: 1.0, b: 1.0e-4}}\n"


def reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_json_output_is_strict(tmp_path, capsys):
    # a nan soundness control is written as null, never as a bare NaN
    cfg = cfg_file(tmp_path, ROBOT + NAN_CONTROL)
    assert main(["counterexample", "--config", cfg, "--json"]) == 1
    rec = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    assert rec["details"]["integrated_solution_max_residual"] is None
    assert rec["pass"] is False and rec["checker_sound"] is False
    assert main(["verify", "--config", cfg, "--json"]) == 1
    records = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    assert records[-1]["details"]["integrated_solution_max_residual"] is None
    cli._print_json({"a": [math.inf, (-math.inf, np.float64("nan"))], "b": 1.5})
    assert json.loads(capsys.readouterr().out) == {"a": [None, [None, None]], "b": 1.5}


def test_verify_row_says_why_check_7_failed(tmp_path, capsys):
    # the row of a check failed by its soundness control names the control's value;
    # the rows of the passing checks are those of a passing run
    passing = cfg_file(tmp_path, ROBOT, "pass.yaml")
    assert main(["verify", "--config", passing]) == 0
    want = capsys.readouterr().out.splitlines()
    assert main(["verify", "--config", cfg_file(tmp_path, ROBOT + NAN_CONTROL)]) == 1
    got = capsys.readouterr().out.splitlines()
    assert got[:-1] == want[:-1]
    assert got[-1].startswith("remark2_counterexample")
    assert got[-1].endswith("min_above  FAIL (soundness control nan, must be <= 1.0e-06)")


def test_counterexample_json(tmp_path, capsys):
    cfg = cfg_file(tmp_path, ROBOT +
                   "verify: {counterexample: {frak_k1: 2.0, frak_k2: 0.7, b: 1.3}}\n")
    assert main(["counterexample", "--config", cfg, "--json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["pass"] is True and rec["checker_sound"] is True
    assert rec["max_abs_residual"] > 1e-2


def test_cli_paths_load_every_module_of_the_package(tmp_path):
    # a module file that simulate and verify never load is no runtime code (the build
    # tool that prints _fused.py lives in tools/, outside the package)
    pkg = Path(cli.__file__).parent
    out = run_python(
        "import sys\n"
        "from ripsim import cli\n"
        f"assert cli.main(['--config', {str(PRESETS / 'synthetic.yaml')!r}, 'simulate',"
        f" '--out', {str(tmp_path)!r}]) == 0\n"
        f"assert cli.main(['--config', {str(PRESETS / 'synthetic.yaml')!r}, 'verify']) == 0\n"
        "print(*sorted(name for name in sys.modules if name.split('.')[0] == 'ripsim'))\n")
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "q.svg").is_file()
    files = {"ripsim" if p.stem == "__init__" else "ripsim." + p.stem
             for p in pkg.glob("*.py") if p.stem != "__main__"}
    assert files - set(out.stdout.splitlines()[-1].split()) == set()
