"""Inputs, operations and output checks of the benchmark's three workloads.

Each workload is one operation that a ripsim user runs, repeated in a
closed loop by a single caller:

  swing_nominal    fig2 swing-up, nominal mode: simulate -> trace.csv ->
                   q/u SVG -> summary (the paper's headline figure)
  adaptive_robust  fig4 adaptive rejection in disturbed_robust mode on a
                   fixed slice of its horizon; same path plus d_est.svg
  verify_default   verify_all on the default preset (seven checks)

The seed picks the inputs: for the simulate workloads the start state
q0 is drawn from a box around the preset's q0 inside |q2| < rho, and
seed 0 is the preset's own q0; for verify_default it is
VerifyOptions.seed. Every operation of a run gets the same inputs, so
their outputs must be byte-identical.
"""
from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import reference

MODULES = ("config", "simulate", "cli", "svgplot", "verify", "controller",
           "model", "adaptive", "regressor")

# Certificate and residual tolerances checked on every simulate operation.
SPOT_RESIDUAL_TOL = 1e-8   # kinetic/potential matching spot checks along the run
SLOPE_TOL = 1e-12          # max discrete dHd/dt (nominal) or dV/dt (robust); >0 is round-off only
GOLDEN_TOL = 1e-6          # |summary - golden| at the preset's own start state (seed 0)

# RK4 steps taken by verify_all: check 7's soundness integrator runs
# span/h = 1.0/1e-4 steps in each direction (verify._integrated_solution_residual).
VERIFY_RK4_STEPS = 20000


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str                 # file under presets/
    kind: str                   # "simulate" | "verify"
    t_end: float = 0.0          # simulated horizon [s]
    box: tuple = ()             # ((q1_lo, q1_hi), (q2_lo, q2_hi)) for seeds != 0
    slope_key: str = ""         # summary key of the dissipation certificate
    golden: tuple = ()          # (final_q_inf, final_dhat_minus_d) at seed 0


WORKLOADS = {w.name: w for w in (
    Workload(
        name="swing_nominal",
        preset="fig2.yaml", kind="simulate", t_end=10.0,
        box=((-0.5, 0.5), (0.8, 1.0)), slope_key="hd_slope_max",
        golden=(0.16777178250328187, 0.0)),
    Workload(
        name="adaptive_robust",
        preset="fig4.yaml", kind="simulate", t_end=5.0,
        box=((-1.1, -0.5), (0.7, 0.9)), slope_key="v_slope_max",
        golden=(2.3197809602971766, 0.028500227788358784)),
    Workload(
        name="verify_default",
        preset="default.yaml", kind="verify"),
)}


def import_ripsim() -> SimpleNamespace:
    """Import the ripsim modules afresh (numpy and PyYAML stay loaded)."""
    for name in [m for m in sys.modules if m == "ripsim" or m.startswith("ripsim.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"ripsim.{m}") for m in MODULES})


def start_state(w: Workload, seed: int, preset_q0: tuple) -> tuple[float, float]:
    """q0 for a seed: the preset's own for seed 0, else uniform in the box."""
    if seed == 0:
        return tuple(preset_q0)
    rng = np.random.default_rng(seed)
    (q1_lo, q1_hi), (q2_lo, q2_hi) = w.box
    return float(rng.uniform(q1_lo, q1_hi)), float(rng.uniform(q2_lo, q2_hi))


def build_input(w: Workload, cfg, seed: int):
    """The operation's input: a Scenario, or (params, gains, VerifyOptions).

    verify_default keeps the preset's VerifyOptions: see bench/README.md.
    """
    if w.kind == "verify":
        return cfg.params, cfg.gains, cfg.verify
    q0 = start_state(w, seed, cfg.q0)
    return dataclasses.replace(cfg, q0=q0, t_end=w.t_end).scenario()


def set_up(preset_path: str, w: Workload, seed: int):
    """Import, load_config and input build; returns (seconds, load seconds, mods, input)."""
    t0 = time.perf_counter()
    mods = import_ripsim()
    t1 = time.perf_counter()
    cfg = mods.config.load_config(preset_path)
    t2 = time.perf_counter()
    inp = build_input(w, cfg, seed)
    return time.perf_counter() - t0, t2 - t1, mods, inp


@dataclass
class OpResult:
    """What one operation produced, reduced to what the checks need."""

    wall_s: float = 0.0         # the whole operation, as a user waits for it
    cpu_s: float = 0.0          # process CPU time of the same span
    steps: int = 0              # RK4 steps taken by the integrating call
    run_s: float = 0.0          # wall time of that call
    summary: dict = dataclasses.field(default_factory=dict)
    spot_max: float = 0.0       # largest spot-check residual of the run
    digest: str = ""            # SHA-256 of trace.csv, or of the verify records
    csv_bytes: int = 0
    svg_bytes: list = dataclasses.field(default_factory=list)
    checks: list = dataclasses.field(default_factory=list)  # (name, passed) per verify check
    ref_wall: float = 0.0       # reference computation timed right before, wall and CPU
    ref_cpu: float = 0.0

    @property
    def scale(self) -> float:
        """Reference seconds per measured second for this operation."""
        return reference.REF_S / self.ref_wall


def _plots(trace, mode: str) -> list:
    """The SVGs the CLI's simulate command writes for this trace."""
    plots = [("q.svg", [("q1", trace.q[:, 0]), ("q2", trace.q[:, 1])],
              "configuration variables", "q [rad]"),
             ("u.svg", [("u", trace.u)], "control torque", "u")]
    if mode != "nominal":
        plots.append(("d_est.svg", [("d", trace.d), ("d_hat", trace.d_hat)],
                      "disturbance and estimate", "d"))
    return plots


def operate(mods: SimpleNamespace, w: Workload, inp, out_dir: str) -> OpResult:
    """One user-visible operation, timed; then its outputs are digested.

    Module functions are looked up at call time so a tracer can wrap them.
    """
    c0, t0 = time.process_time(), time.perf_counter()
    if w.kind == "verify":
        params, gains, opts = inp
        reports = mods.verify.verify_all(params, gains, opts)
        wall_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
        records = json.dumps([r.to_record() for r in reports], sort_keys=True, default=str)
        return OpResult(wall_s=wall_s, cpu_s=cpu_s, steps=VERIFY_RK4_STEPS, run_s=wall_s,
                        digest=hashlib.sha256(records.encode()).hexdigest(),
                        checks=[(r.name, r.passed) for r in reports])
    trace = mods.simulate.run(inp)
    run_s = time.perf_counter() - t0
    csv_path = os.path.join(out_dir, "trace.csv")
    mods.cli.write_trace_csv(trace, csv_path)
    svg_paths = []
    if trace.t.shape[0] > 0:
        for name, series, title, ylabel in _plots(trace, inp.mode):
            path = os.path.join(out_dir, name)
            mods.svgplot.line_plot(path, trace.t, series, title=title,
                                   xlabel="t [s]", ylabel=ylabel)
            svg_paths.append(path)
    summary = mods.cli.trace_summary(trace)
    wall_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    spot_max = max((max(k, p) for _, k, p in trace.spot_checks), default=math.inf)
    with open(csv_path, "rb") as fh:
        data = fh.read()
    return OpResult(wall_s=wall_s, cpu_s=cpu_s, steps=summary["steps"], run_s=run_s,
                    summary=summary,
                    spot_max=spot_max, digest=hashlib.sha256(data).hexdigest(),
                    csv_bytes=len(data),
                    svg_bytes=[_svg_size(p) for p in svg_paths])


def _svg_size(path: str) -> int:
    """File size, or -1 when the file is not a complete SVG document."""
    with open(path, "rb") as fh:
        data = fh.read()
    return len(data) if data.startswith(b"<svg") and data.endswith(b"</svg>\n") else -1


def check(w: Workload, seed: int, r: OpResult, first_digest: str | None) -> list[str]:
    """Everything wrong with one operation's outputs; empty when correct.

    first_digest is the digest of the run's first operation: every
    operation of a run has the same inputs, so its bytes must not differ.
    """
    problems = []
    if first_digest is not None and r.digest != first_digest:
        problems.append("output differs from the first operation with the same seed")
    if w.kind == "verify":
        if len(r.checks) != 7:
            problems.append(f"expected 7 verify checks, got {len(r.checks)}")
        problems += [f"verify check {name} failed" for name, ok in r.checks if not ok]
        return problems
    s = r.summary
    if s.get("status") != "ok":
        problems.append(f"status {s.get('status')!r}: {s.get('exit_reason', '')}")
    if not abs(s.get("t_final", -math.inf) - w.t_end) <= 1e-9:
        problems.append(f"run ended at t = {s.get('t_final')} instead of {w.t_end}")
    if not r.spot_max <= SPOT_RESIDUAL_TOL:
        problems.append(f"spot-check residual {r.spot_max:.3g} > {SPOT_RESIDUAL_TOL}")
    slope = s.get(w.slope_key, math.inf)
    if not slope <= SLOPE_TOL:
        problems.append(f"{w.slope_key} = {slope:.3g} > {SLOPE_TOL}")
    if seed == 0:
        for key, gold in zip(("final_q_inf", "final_dhat_minus_d"), w.golden):
            value = s.get(key, math.inf)
            if not abs(value - gold) <= GOLDEN_TOL:
                problems.append(f"{key} = {value!r}, golden {gold!r}")
    if not r.svg_bytes or min(r.svg_bytes) <= 0:
        problems.append("missing or truncated SVG plot")
    return problems
