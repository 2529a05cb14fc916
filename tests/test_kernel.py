"""The fused shaping kernel and the simulator's float path, against the public API.

Covers:
  - control_terms and desired_hamiltonian_flat equal the per-quantity
    compositions they replaced, bit for bit, at 10^4 random states (inside
    and outside the admissible band, Python floats and numpy scalars),
    raising DefinitenessLost at the same states with the same message
  - shaping, the kinetic- and potential-matching rows and grad Vd give the
    same doubles on ndarrays (the verify grids) as on floats (the simulator)
  - a disturbed_robust run with the fig4 plant and gains: every recorded
    row equals the State-based public functions at the recorded state,
    and every step equals step_rk4 over open_loop_rhs + robust_control +
    adaptation_rhs, so the adaptive tests cover the simulator's own law;
    the recorded d_hat is f^T theta_hat summed term by term, bit for bit
"""
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from ripsim.adaptive import adaptation_rhs, lyapunov_value, robust_control
from ripsim.config import load_config
from ripsim.controller import (
    ControllerGains, DefinitenessLost, EmptyRegion, _vd_gradient, _z_offset, control_terms,
    desired_hamiltonian, desired_hamiltonian_flat, kinetic_matching_rows, md_inverse_entries,
    momentum_tilde, potential_matching_row, region_rho, shaped_potential, shaped_potential_gradient,
    shaping, shaping_at,
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
    gq1, gv2 = shaped_potential_gradient(params, gains, (q1, q2))
    sh = shaping_at(params, gains, q2)
    gq2 = gv2 - 0.5 * (2.0 * pt1 * pt2 * sh.dd2 + pt2 * pt2 * sh.dd4)
    j2s = sh.a1 * pt1 + sh.a2 * pt2
    u = -(sh.ps1 * gq1 + sh.ps2 * gq2) + j2s * pt2 - gains.kv * pt1
    return u, pt1


def composed_desired_hamiltonian(params, gains, q1, q2, p1c, p2c):
    """desired_hamiltonian_flat as Md^{-1} p and Vd, each evaluating its own sin/cos."""
    pt1, pt2 = momentum_tilde(params, gains, q2, p1c, p2c)
    return 0.5 * (p1c * pt1 + p2c * pt2) + shaped_potential(params, gains, (q1, q2))


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
            assert outcome(desired_hamiltonian_flat, params, gains, *args) == \
                outcome(composed_desired_hamiltonian, params, gains, *args)
            lost += got[0] == "DefinitenessLost"
    assert min(lost, 10_000 - lost) > 1000   # both outcomes are exercised


def bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


def rows_at(params, gains, s, c, sh):
    return kinetic_matching_rows(params, gains, s, c, sh.ps1, sh.ps2, sh.ps3, sh.dd2, sh.dd4,
                                 sh.a1, sh.a2)


def test_array_route_equals_float_route():
    # verify evaluates the closed forms on grids, the simulator on floats:
    # at the same (s, c, z) both must give the same doubles
    rng = np.random.default_rng(21)
    presets = [load_config(str(PRESETS / f"{name}.yaml")) for name in ("fig2", "default",
                                                                        "synthetic")]
    cases = [(cfg.params, cfg.gains) for cfg in presets] + kernel_cases(rng)[3:]
    for params, gains in cases:
        q2 = rng.uniform(-1.5, 1.5, 200)
        s, c = np.sin(q2), np.cos(q2)
        z = rng.uniform(-3.0, 3.0, 200) + _z_offset(params, gains, s, np.arctan)
        grid = shaping(params, gains, s, c)
        kin = rows_at(params, gains, s, c, grid)
        g1, g2 = _vd_gradient(params, gains, z, s, grid.ps3)
        row = potential_matching_row(params, gains, s, grid.ps3, g1, g2)
        for i in range(q2.size):
            si, ci, zi = float(s[i]), float(c[i]), float(z[i])
            one = shaping(params, gains, si, ci)
            assert all(type(v) is float for v in one)
            g = _vd_gradient(params, gains, zi, si, one.ps3)
            want = [*one, *rows_at(params, gains, si, ci, one), *g,
                    potential_matching_row(params, gains, si, one.ps3, *g)]
            assert bits([v[i] for v in (*grid, *kin, g1, g2, row)]) == bits(want)


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
        assert trace.d[k] == dist.value(*s.q.tolist(), *s.p.tolist())
        assert abs(trace.d_hat[k] - float(f @ theta_hat)) <= ULPS * dot_scale
        dhat = 0.0  # as the stages add f^T theta_hat into u; not sum(), compensated on 3.12
        for fv, th in zip(f.tolist(), theta_hat.tolist()):
            dhat += fv * th
        assert bits([trace.d_hat[k]]) == bits([dhat])
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
        qdot, pdot = open_loop_rhs(params, s, u, dist.value(*s.q.tolist(), *s.p.tolist()))
        return np.concatenate([qdot, pdot, adaptation_rhs(params, gains, dist.regressor,
                                                          adaptive, s)])

    for k in range(trace.t.shape[0] - 1):
        s, theta_hat = recorded(trace, k)
        x = np.concatenate([s.q, s.p, theta_hat])
        row = np.concatenate([trace.q[k + 1], trace.p[k + 1], trace.theta_hat[k + 1]])
        np.testing.assert_allclose(row, step_rk4(rhs, x, cfg.dt), rtol=ULPS, atol=0.0)
