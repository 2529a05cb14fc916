"""End-to-end acceptance: one test per shipped guarantee.

Each test states a guarantee in its name and asserts it at the stated
tolerance; scenarios come from the shipped preset files, not from
constants duplicated here. The eleven checks:

   1 kinetic matching residual (analytic < 1e-8 and FD < 1e-5 in one check, < 1 s)
   2 Riccati residual for psi3 < 1e-8
   3 potential matching residual < 1e-10 (exact identity)
   4 closed-loop equivalence of the two RHS forms < 1e-9
   5 rho formula vs million-cell d4 sign scan, 100 draws, monotonicity
   6 shaped potential: critical point + PD Hessian, 100 draws, FD match
   7 nominal stabilization run converges (fig2 preset)
   8 disturbed run keeps a steady-state error (fig3 preset)
   9 adaptive run rejects the disturbance (fig4 preset)
  10 prior-work counterexample residual large, checker sound
  11 byte-identical CSV reruns; CLI exit codes 0/1/2 (1: a psi3 shift planted
     in controller.shaping)
"""
import math
import time
from pathlib import Path

import numpy as np
import pytest

from ripsim.cli import main
from ripsim.config import load_config
from ripsim.controller import ControllerGains, EmptyRegion, region_rho
from ripsim.model import RobotParams
from ripsim.simulate import run
from ripsim.verify import (
    CounterexampleSpec, closed_loop_equivalence, hessian_vd_check,
    kinetic_matching, potential_matching, region_report, remark2_residual,
    riccati_residual,
)

from oracles import inject_shaping_fault, shift_psi3

PRESETS = Path(__file__).resolve().parent.parent / "presets"


def preset(name):
    return load_config(str(PRESETS / f"{name}.yaml"))


def rand_draw(rng):
    """Random plant and gains with d4(0) > 0 (valid region)."""
    while True:
        p = np.exp(rng.uniform(-1.0, 1.0, 5))
        if p[0] * p[3] - p[2] ** 2 <= 1e-3:
            continue
        params = RobotParams(*p)
        gains = ControllerGains(psi40=math.exp(rng.uniform(-0.7, 0.7)),
                                k1=math.exp(rng.uniform(-3.0, -0.5)),
                                k2=math.exp(rng.uniform(2.0, 6.0)),
                                kappa=math.exp(rng.uniform(-2.0, 1.0)))
        try:
            region_rho(params, gains)
        except EmptyRegion:
            continue
        return params, gains


def test_criterion_01_kinetic_matching_residual():
    cfg = preset("fig2")
    t0 = time.perf_counter()
    report = kinetic_matching(cfg.params, cfg.gains, n=1000, span=1.5)
    elapsed = time.perf_counter() - t0
    fd = report.details["fd_max_abs_residual"]
    print(f"kinetic matching: analytic {report.max_abs_residual:.3e} "
          f"(tol 1e-8), fd {fd:.3e} (tol 1e-5), {elapsed:.3f} s")
    assert report.passed and report.max_abs_residual < 1e-8
    assert fd < 1e-5
    assert elapsed < 1.0


def test_criterion_02_riccati_residual():
    cfg = preset("fig2")
    report = riccati_residual(cfg.params, cfg.gains, n=1000, span=1.5)
    print(f"riccati residual: {report.max_abs_residual:.3e} (tol 1e-8)")
    assert report.passed and report.max_abs_residual < 1e-8


def test_criterion_03_potential_matching_exact():
    cfg = preset("fig2")
    report = potential_matching(cfg.params, cfg.gains, n=100)
    print(f"potential matching: {report.max_abs_residual:.3e} (tol 1e-10)")
    assert report.passed and report.max_abs_residual < 1e-10


def test_criterion_04_closed_loop_equivalence():
    cfg = preset("fig2")
    report = closed_loop_equivalence(cfg.params, cfg.gains, n_samples=1000)
    print(f"closed-loop equivalence: {report.max_abs_residual:.3e} (tol 1e-9)")
    assert report.passed and report.max_abs_residual < 1e-9


def test_criterion_05_region_formula_vs_scan():
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(100):
        params, gains = rand_draw(rng)
        report = region_report(params, gains, cells=10 ** 6)
        assert report.passed, (params, gains)
        worst = max(worst, report.max_abs_residual)
    # rho grows as the product psi40*k1 shrinks
    params = preset("fig2").params
    products = [0.2, 0.1, 0.05, 0.02, 0.01]
    rhos = [region_rho(params, ControllerGains(1.0, k1, 100.0))
            for k1 in products]
    print(f"rho formula vs scan: worst gap {worst:.3e}; "
          f"rho({products}) = {[f'{r:.4f}' for r in rhos]}")
    assert all(b >= a for a, b in zip(rhos, rhos[1:]))


def test_criterion_06_shaped_potential_minimum():
    rng = np.random.default_rng(101)
    for _ in range(100):
        params, gains = rand_draw(rng)
        report = hessian_vd_check(params, gains)
        assert report.details["grad_norm_at_qstar"] == 0.0
        assert report.passed and report.max_abs_residual > 0.0
        scale = max(1.0, np.abs(report.details["hessian"]).max())
        assert report.details["fd_max_diff"] < 1e-5 * scale
    print("shaped potential: gradient 0, Hessian PD, FD match on 100 draws")


def test_criterion_07_nominal_stabilization():
    cfg = preset("fig2")
    assert cfg.mode == "nominal" and cfg.dt == 1e-3 and cfg.t_end == 30.0
    t0 = time.perf_counter()
    trace = run(cfg.scenario())
    elapsed = time.perf_counter() - t0
    q_final = np.abs(trace.q[-1]).max()
    slope = np.diff(trace.Hd).max() / cfg.dt
    print(f"nominal run: status {trace.status}, |q(30)|_inf {q_final:.3e} "
          f"(tol 1e-2), max Hd slope {slope:.3e} (tol 1e-7), {elapsed:.2f} s")
    assert trace.status == "ok"
    assert q_final < 1e-2
    assert slope < 1e-7
    assert elapsed < 5.0


def test_criterion_08_disturbed_steady_state_error():
    cfg = preset("fig3")
    assert cfg.mode == "disturbed_nominal"
    assert cfg.q0 == (-0.8, 0.8)
    trace = run(cfg.scenario())
    q_final = np.abs(trace.q[-1]).max()
    print(f"disturbed run: status {trace.status}, sup|q| "
          f"{np.abs(trace.q).max():.3f}, |q(end)|_inf {q_final:.3e} (> 1e-3)")
    assert trace.status == "ok"
    assert np.all(np.isfinite(trace.q)) and np.abs(trace.q).max() < 10.0
    assert q_final > 1e-3


def test_criterion_09_adaptive_disturbance_rejection():
    cfg = preset("fig4")
    assert cfg.mode == "disturbed_robust"
    assert cfg.q0 == (-0.8, 0.8)
    gamma = cfg.adaptive.gamma
    assert np.allclose(gamma, gamma[0, 0] * np.eye(gamma.shape[0]))
    # same disturbance as the non-adaptive run: compare d(q, p) pointwise
    cfg3 = preset("fig3")
    rng = np.random.default_rng(9)
    for _ in range(50):
        x = [*rng.uniform(-2.0, 2.0, size=2).tolist(), *rng.uniform(-3.0, 3.0, size=2).tolist()]
        assert abs(cfg.disturbance.value(*x) - cfg3.disturbance.value(*x)) < 1e-12
    trace = run(cfg.scenario())
    q_final = np.abs(trace.q[-1]).max()
    d_gap = abs(trace.d_hat[-1] - trace.d[-1])
    v_slope = np.diff(trace.V_lyap).max() / cfg.dt
    print(f"adaptive run: status {trace.status}, |q(end)|_inf {q_final:.3e} "
          f"(tol 1e-2), |d_hat-d|(end) {d_gap:.3e} (tol 1e-2), "
          f"max V slope {v_slope:.3e} (tol 1e-7)")
    assert trace.status == "ok"
    assert q_final < 1e-2
    assert d_gap < 1e-2
    assert v_slope < 1e-7


def test_criterion_10_counterexample_residual():
    rng = np.random.default_rng(102)
    for _ in range(10):
        spec = CounterexampleSpec(*np.exp(rng.uniform(-1.0, 1.0, 3)))
        report = remark2_residual(spec, n=1000, span=1.0)
        assert report.max_abs_residual > 1e-2, spec
        assert report.details["integrated_solution_max_residual"] < 1e-6
    print("counterexample: |R| > 1e-2 on 10 draws, checker < 1e-6 on true solutions")


def test_criterion_11_determinism_and_exit_codes(tmp_path, capsys, monkeypatch):
    fig2 = str(PRESETS / "fig2.yaml")
    assert main(["simulate", "--config", fig2, "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", fig2, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "trace.csv").read_bytes()
    b = (tmp_path / "b" / "trace.csv").read_bytes()
    assert a == b and len(a) > 0

    ok_cfg = PRESETS / "synthetic.yaml"
    invalid_cfg = tmp_path / "invalid.yaml"
    invalid_cfg.write_text("robot: {p: [2.0, 1.0, 1.0, 2.0, 1.0]}\n"
                           "controller: {k1: 0.6}\n")
    assert main(["verify", "--config", str(ok_cfg)]) == 0
    with monkeypatch.context() as m:
        inject_shaping_fault(m, shift_psi3)
        assert main(["verify", "--config", str(ok_cfg)]) == 1
    assert main(["verify", "--config", str(invalid_cfg)]) == 2
    assert main(["verify", "--config", str(tmp_path / "missing.yaml")]) == 2
    capsys.readouterr()
    print("determinism: byte-identical trace.csv; exit codes 0/1/2 honored")
