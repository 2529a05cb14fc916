"""The fused shaping kernel and the simulator's float path, against the public API.

Covers:
  - control_terms equals the per-quantity composition it replaced, bit for
    bit, at 10^4 random states (inside and outside the admissible band,
    Python floats and numpy scalars), raising DefinitenessLost at the same
    states with the same message
  - a disturbed_robust run with the fig4 plant and gains: every recorded
    row equals the State-based public functions at the recorded state,
    and every step equals step_rk4 over open_loop_rhs + robust_control +
    adaptation_rhs, so the adaptive tests cover the simulator's own law
"""
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from ripsim.adaptive import adaptation_rhs, lyapunov_value, robust_control
from ripsim.config import load_config
from ripsim.controller import (
    ControllerGains, DefinitenessLost, EmptyRegion, alpha_entries, control_terms,
    desired_hamiltonian, desired_inertia_entries_derivative, md_inverse_entries,
    potential_offset, psi3, psi_row1, region_rho,
)
from ripsim.model import RobotParams, State, hamiltonian, open_loop_rhs
from ripsim.regressor import eval_regressor
from ripsim.simulate import run, step_rk4

PRESETS = Path(__file__).resolve().parent.parent / "presets"
P_SYN = RobotParams(2.0, 1.0, 1.0, 2.0, 1.0)


def composed_control_terms(params, gains, q1, q2, p1c, p2c):
    """control_terms as one call per closed form, each evaluating its own sin/cos."""
    i11, i12, i22, _ = md_inverse_entries(params, gains, q2)
    pt1 = i11 * p1c + i12 * p2c
    pt2 = i12 * p1c + i22 * p2c
    z = q1 + potential_offset(params, gains, q2)
    ps3 = psi3(params, gains, q2)
    gq1 = gains.kappa * z
    _, dd2, dd4 = desired_inertia_entries_derivative(params, gains, q2)
    gq2 = (gains.kappa * z * ps3 / gains.psi40
           + params.p5 / gains.psi40 * math.sin(q2)
           - 0.5 * (2.0 * pt1 * pt2 * dd2 + pt2 * pt2 * dd4))
    ps1, ps2 = psi_row1(params, gains, q2)
    a1, a2 = alpha_entries(params, gains, q2)
    j2s = a1 * pt1 + a2 * pt2
    u = -(ps1 * gq1 + ps2 * gq2) + j2s * pt2 - gains.kv * pt1
    return u, pt1


def outcome(fn, *args):
    try:
        return fn(*args)
    except DefinitenessLost as e:
        return ("DefinitenessLost", str(e), e.det_md)


def kernel_cases(rng):
    """(params, gains) pairs: the fig benches plus random gains on the synthetic set."""
    cases = [(cfg.params, cfg.gains) for cfg in
             (load_config(str(PRESETS / f"{name}.yaml")) for name in ("fig2", "fig4", "default"))]
    while len(cases) < 10:
        g = ControllerGains(psi40=math.exp(rng.uniform(-1, 1)), k1=math.exp(rng.uniform(-3, 0)),
                            k2=math.exp(rng.uniform(0, 5)), kappa=math.exp(rng.uniform(-2, 2)),
                            kv=math.exp(rng.uniform(-2, 2)))
        try:
            region_rho(P_SYN, g)
        except EmptyRegion:
            continue
        cases.append((P_SYN, g))
    return cases


def test_control_terms_equals_composition():
    rng = np.random.default_rng(20)
    lost = 0
    for params, gains in kernel_cases(rng):
        rho = region_rho(params, gains)
        for k in range(1000):
            q1 = rng.uniform(-3.0, 3.0)
            q2 = rng.uniform(-1.5, 1.5) * rho   # Md is not PD beyond rho, often before
            p1c, p2c = rng.uniform(-5.0, 5.0, size=2)
            args = (q1, q2, p1c, p2c)
            if k % 2:
                args = tuple(float(v) for v in args)   # the simulator passes floats
            got = outcome(control_terms, params, gains, *args)
            assert got == outcome(composed_control_terms, params, gains, *args)
            lost += got[0] == "DefinitenessLost"
    assert min(lost, 10_000 - lost) > 1000   # both outcomes are exercised


@pytest.fixture(scope="module")
def fig4_short():
    cfg = load_config(str(PRESETS / "fig4.yaml"))
    return cfg, run(dataclasses.replace(cfg, t_end=0.2).scenario())


def recorded(trace, k):
    return State(q=trace.q[k], p=trace.p[k]), trace.theta_hat[k]


# The simulator sums f^T theta_hat term by term; the public functions use
# numpy's dot product, which may add in another order or fuse a
# multiply-add. Any such order is within 3 eps * sum |f_i theta_hat_i| of
# the exact value (measured: 1.2 eps over a 5 s run), so d_hat, u and the
# next state may differ in the last bits; everything else must be equal.
ULPS = 4 * np.finfo(float).eps


def test_robust_rows_equal_public_functions(fig4_short):
    cfg, trace = fig4_short
    params, gains, dist, adaptive = cfg.params, cfg.gains, cfg.disturbance, cfg.adaptive
    assert trace.status == "ok" and trace.t.shape[0] == 201
    for k in range(trace.t.shape[0]):
        s, theta_hat = recorded(trace, k)
        u_shaping, pt1 = control_terms(params, gains, s.q[0], s.q[1], s.p[0], s.p[1])
        f = eval_regressor(dist.regressor, s)
        dot_scale = float(np.abs(f) @ np.abs(theta_hat))
        assert trace.ptilde1[k] == pt1
        assert trace.d[k] == dist.value(s)
        assert abs(trace.d_hat[k] - float(f @ theta_hat)) <= ULPS * dot_scale
        assert abs(trace.u[k] - robust_control(params, gains, dist.regressor, theta_hat, s)) \
            <= ULPS * (abs(u_shaping) + dot_scale)
        assert trace.H[k] == hamiltonian(params, s)
        assert trace.Hd[k] == desired_hamiltonian(params, gains, s)
        assert trace.V_lyap[k] == lyapunov_value(adaptive.gamma_inv, theta_hat, dist.theta,
                                                 trace.Hd[k])


def test_robust_steps_equal_public_rk4(fig4_short):
    cfg, trace = fig4_short
    params, gains, dist, adaptive = cfg.params, cfg.gains, cfg.disturbance, cfg.adaptive

    def rhs(x):
        s = State(q=x[:2], p=x[2:4])
        u = robust_control(params, gains, dist.regressor, x[4:], s)
        qdot, pdot = open_loop_rhs(params, s, u, dist.value(s))
        return np.concatenate([qdot, pdot, adaptation_rhs(params, gains, dist.regressor,
                                                          adaptive, s)])

    for k in range(trace.t.shape[0] - 1):
        s, theta_hat = recorded(trace, k)
        x = np.concatenate([s.q, s.p, theta_hat])
        row = np.concatenate([trace.q[k + 1], trace.p[k + 1], trace.theta_hat[k + 1]])
        np.testing.assert_allclose(row, step_rk4(rhs, x, cfg.dt), rtol=ULPS, atol=0.0)
