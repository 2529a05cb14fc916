"""The fused shaping kernel and the simulator's float path, against the public API.

Covers:
  - control_terms and desired_hamiltonian equal the per-quantity
    compositions they replaced, bit for bit, at 10^4 random states (inside
    and outside the admissible band, Python floats and numpy scalars),
    raising DefinitenessLost at the same states with the same message
  - the helpers reading a Coeffs record (the constants bound once) give the
    same doubles as the same helpers reading (params, gains), kept here as
    the reference, at 10^4 random states over random plants and gains
  - shaping, the kinetic- and potential-matching rows and grad Vd give the
    same doubles on ndarrays (the verify grids) as on floats (the simulator)
  - a disturbed_robust run with the fig4 plant and gains: every recorded
    row equals the array-form compositions at the recorded state, and
    every step equals step_rk4 over oracles.open_loop_rhs + robust_control
    + adaptation_rhs, so the adaptive tests cover the simulator's own law;
    the recorded d_hat is f^T theta_hat summed term by term, bit for bit
"""
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from ripsim.adaptive import lyapunov_value
from ripsim.config import load_config
from ripsim.controller import (
    ControllerGains, DefinitenessLost, EmptyRegion, _vd, _vd_gradient, _z_offset, coeffs,
    control_terms, desired_hamiltonian, kinetic_matching_rows,
    potential_matching_row, region_rho, shape_terms, shaping,
)
from ripsim.model import RobotParams, hamiltonian
from ripsim.simulate import run, step_rk4

from oracles import adaptation_rhs, eval_regressor, momentum_tilde, open_loop_rhs, robust_control

PRESETS = Path(__file__).resolve().parent.parent / "presets"
P_SYN = RobotParams(2.0, 1.0, 1.0, 2.0, 1.0)


def composed_control_terms(params, gains, q1, q2, p1c, p2c):
    """control_terms as one call per closed form, each evaluating its own sin/cos."""
    k, q1, q2 = coeffs(params, gains), float(q1), float(q2)
    pt1, pt2 = momentum_tilde(k, q2, p1c, p2c)
    s = math.sin(q2)
    gq1, gv2 = _vd_gradient(k, q1 + _z_offset(k, s), s, shape_terms(k, s, math.cos(q2))[2])
    sh = shaping(k, math.sin(q2), math.cos(q2))
    gq2 = gv2 - 0.5 * (2.0 * pt1 * pt2 * sh.dd2 + pt2 * pt2 * sh.dd4)
    j2s = sh.a1 * pt1 + sh.a2 * pt2
    u = -(sh.ps1 * gq1 + sh.ps2 * gq2) + j2s * pt2 - gains.kv * pt1
    return u, pt1


def composed_desired_hamiltonian(params, gains, q1, q2, p1c, p2c):
    """desired_hamiltonian as Md^{-1} p and Vd, each evaluating its own sin/cos."""
    k, q1, q2 = coeffs(params, gains), float(q1), float(q2)
    pt1, pt2 = momentum_tilde(k, q2, p1c, p2c)
    return 0.5 * (p1c * pt1 + p2c * pt2) + _vd(k, q1, math.sin(q2), math.cos(q2))


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
        rho, k_ = region_rho(params, gains), coeffs(params, gains)
        for k in range(1000):
            q1 = rng.uniform(-3.0, 3.0)
            q2 = rng.uniform(-1.5, 1.5) * rho   # Md is not PD beyond rho, often before
            p1c, p2c = rng.uniform(-5.0, 5.0, size=2)
            args = (q1, q2, p1c, p2c)
            if k % 2:
                args = tuple(float(v) for v in args)   # the simulator passes floats
            got = outcome(control_terms, k_, *args)
            assert got == outcome(composed_control_terms, params, gains, *args)
            assert outcome(desired_hamiltonian, k_, *args) == \
                outcome(composed_desired_hamiltonian, params, gains, *args)
            lost += got[0] == "DefinitenessLost"
    assert min(lost, 10_000 - lost) > 1000   # both outcomes are exercised


def bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


def rows_at(k, s, c, sh):
    return kinetic_matching_rows(k, s, c, sh.ps1, sh.ps2, sh.ps3, sh.dd2, sh.dd4, sh.a1, sh.a2)


def test_array_route_equals_float_route():
    # verify evaluates the closed forms on grids, the simulator on floats:
    # at the same (s, c, z) both must give the same doubles
    rng = np.random.default_rng(21)
    presets = [load_config(str(PRESETS / f"{name}.yaml")) for name in ("fig2", "default",
                                                                        "synthetic")]
    cases = [(cfg.params, cfg.gains) for cfg in presets] + kernel_cases(rng)[3:]
    for params, gains in cases:
        k = coeffs(params, gains)
        q2 = rng.uniform(-1.5, 1.5, 200)
        s, c = np.sin(q2), np.cos(q2)
        z = rng.uniform(-3.0, 3.0, 200) + _z_offset(k, s, np.arctan)
        grid = shaping(k, s, c)
        kin = rows_at(k, s, c, grid)
        g1, g2 = _vd_gradient(k, z, s, grid.ps3)
        row = potential_matching_row(k, s, grid.ps3, g1, g2)
        for i in range(q2.size):
            si, ci, zi = float(s[i]), float(c[i]), float(z[i])
            one = shaping(k, si, ci)
            assert all(type(v) is float for v in one)
            g = _vd_gradient(k, zi, si, one.ps3)
            want = [*one, *rows_at(k, si, ci, one), *g,
                    potential_matching_row(k, si, one.ps3, *g)]
            assert bits([v[i] for v in (*grid, *kin, g1, g2, row)]) == bits(want)


# The helpers as they read (params, gains) before the constants were bound once
# in a Coeffs record, every parameter-only term formed at each call: the
# reference for the folded ones.
def shape_terms_ref(params, gains, s, c):
    p2, p3, psi40 = params.p2, params.p3, gains.psi40
    w = p2 / (p3 * psi40)
    den = gains.k1 + w * s * s
    m11 = params.p1 + p2 * s * s
    d2 = c * (m11 / den - p3 * psi40)
    d4 = p3 * c * c / den - params.p4 * psi40
    return w, den, m11, c / den, d2, d4


def md_prime_ref(params, gains, s, c, w, den, m11):
    p3 = params.p3
    s2 = 2.0 * s * c
    dden = w * s2
    dm11 = params.p2 * s2
    den2 = den * den
    dd2 = -s * (m11 / den - p3 * gains.psi40) + c * (dm11 * den - m11 * dden) / den2
    dd4 = -p3 * s2 * (den + w * c * c) / den2
    return dd2, dd4


def md_inverse_ref(gains, q2, d2, d4):
    d1 = gains.k2
    det = d1 * d4 - d2 * d2
    if d1 <= 0.0 or det <= 0.0:
        raise DefinitenessLost(q2, det)
    return d4 / det, -d2 / det, d1 / det, det


def psi_row1_ref(params, gains, s, c, m11, d2, dd2):
    p2, p3, p4, k2 = params.p2, params.p3, params.p4, gains.k2
    m12 = p3 * c
    det = m11 * p4 - m12 * m12
    n1 = p4 * k2 - m12 * d2
    n2 = -m12 * k2 + m11 * d2
    det_ = m11 * p4 - p3 ** 2 * c * c
    s2 = 2.0 * s * c
    ddet = (p2 * p4 + p3 ** 2) * s2
    dn1 = p3 * s * d2 - m12 * dd2
    dn2 = p3 * s * k2 + p2 * s2 * d2 + m11 * dd2
    det2 = det_ * det_
    return n1 / det, n2 / det, (dn1 * det_ - n1 * ddet) / det2, (dn2 * det_ - n2 * ddet) / det2


def alpha_ref(params, gains, s, c, m11, ps1, ps2, ps3, dps1, dps2):
    p2_, p3_, p4_ = params.p2, params.p3, params.p4
    ps4 = -gains.psi40
    two_a1 = (-2.0 * p2_ * ps1 * ps1 * s * c
              + 2.0 * p3_ * ps1 * ps2 * s
              + ps4 * m11 * dps1
              - p3_ * ps4 * ps2 * s
              + 2.0 * p2_ * ps4 * ps1 * s * c
              + p3_ * ps4 * c * dps2)
    a2 = (p3_ * ps2 * ps3 * s
          - 2.0 * p2_ * ps1 * ps3 * s * c
          + p3_ * ps1 * ps4 * s
          + p3_ * ps4 * c * dps1
          + p4_ * ps4 * dps2
          - p3_ * ps4 * ps1 * s)
    return 0.5 * two_a1, a2


def kinetic_rows_ref(params, gains, s, c, ps1, ps2, ps3, dd2, dd4, a1, a2):
    ps4 = -gains.psi40
    dm11 = 2.0 * params.p2 * s * c
    dm12 = -params.p3 * s
    r11 = -(dm11 * ps1 * ps1 + 2.0 * dm12 * ps1 * ps2) - 2.0 * a1
    r12 = -(dm11 * ps1 * ps3 + dm12 * (ps1 * ps4 + ps2 * ps3)) + ps4 * dd2 - a2
    r22 = -(dm11 * ps3 * ps3 + 2.0 * dm12 * ps3 * ps4) + ps4 * dd4
    return r11, r12, r22


def z_offset_ref(params, gains, s):
    p2, p3, k1, psi40 = params.p2, params.p3, gains.k1, gains.psi40
    return math.sqrt(p3 / (k1 * p2 * psi40)) * math.atan(math.sqrt(p2 / (k1 * p3 * psi40)) * s)


def vd_gradient_ref(params, gains, z, s, ps3):
    kappa, psi40 = gains.kappa, gains.psi40
    return kappa * z, kappa * z * ps3 / psi40 + params.p5 / psi40 * s


def potential_row_ref(params, gains, s, ps3, g1, g2):
    return ps3 * g1 - gains.psi40 * g2 + params.p5 * s


def shaping_ref(params, gains, s, c):
    w, den, m11, ps3, d2, d4 = shape_terms_ref(params, gains, s, c)
    dd2, dd4 = md_prime_ref(params, gains, s, c, w, den, m11)
    ps1, ps2, dps1, dps2 = psi_row1_ref(params, gains, s, c, m11, d2, dd2)
    dps3 = (-s * den - c * (2.0 * w * s * c)) / (den * den)
    a1, a2 = alpha_ref(params, gains, s, c, m11, ps1, ps2, ps3, dps1, dps2)
    return m11, ps1, ps2, ps3, d2, d4, dd2, dd4, dps1, dps2, dps3, a1, a2


def desired_hamiltonian_ref(params, gains, q1, q2, p1c, p2c):
    s, c = math.sin(q2), math.cos(q2)
    _, _, _, _, d2, d4 = shape_terms_ref(params, gains, s, c)
    i11, i12, i22, _ = md_inverse_ref(gains, q2, d2, d4)
    pt1 = i11 * p1c + i12 * p2c
    pt2 = i12 * p1c + i22 * p2c
    z = q1 + z_offset_ref(params, gains, s)
    vd = 0.5 * gains.kappa * z * z - params.p5 / gains.psi40 * c
    return 0.5 * (p1c * pt1 + p2c * pt2) + vd


def control_terms_ref(params, gains, q1, q2, p1c, p2c):
    s, c = math.sin(q2), math.cos(q2)
    w, den, m11, ps3, d2, d4 = shape_terms_ref(params, gains, s, c)
    i11, i12, i22, _ = md_inverse_ref(gains, q2, d2, d4)
    pt1 = i11 * p1c + i12 * p2c
    pt2 = i12 * p1c + i22 * p2c
    dd2, dd4 = md_prime_ref(params, gains, s, c, w, den, m11)
    gq1, gv2 = vd_gradient_ref(params, gains, q1 + z_offset_ref(params, gains, s), s, ps3)
    gq2 = gv2 - 0.5 * (2.0 * pt1 * pt2 * dd2 + pt2 * pt2 * dd4)
    ps1, ps2, dps1, dps2 = psi_row1_ref(params, gains, s, c, m11, d2, dd2)
    a1, a2 = alpha_ref(params, gains, s, c, m11, ps1, ps2, ps3, dps1, dps2)
    j2s = a1 * pt1 + a2 * pt2
    u = -(ps1 * gq1 + ps2 * gq2) + j2s * pt2 - gains.kv * pt1
    return u, pt1


def rand_plant_and_gains(rng):
    """Random plant and gains with a nonempty band; p1..p5 are not powers of two."""
    while True:
        p = np.exp(rng.uniform(-1.0, 1.0, 5)).tolist()
        if p[0] * p[3] - p[2] ** 2 <= 1e-3:
            continue
        # psi40, k1, k2, kappa, kv
        gains = ControllerGains(*np.exp(rng.uniform([-1, -3, 0, -2, -2], [1, 0, 6, 2, 2])).tolist())
        try:
            region_rho(RobotParams(*p), gains)
        except EmptyRegion:
            continue
        return RobotParams(*p), gains


def bit_outcome(fn, *args):
    """outcome() with each double as its bit pattern (so -0.0 != 0.0 and nan == nan)."""
    got = outcome(fn, *args)
    if isinstance(got, tuple) and got[0] == "DefinitenessLost":
        return (*got[:2], *bits([got[2]]))
    return bits(got if isinstance(got, tuple) else [got])


def test_folded_helpers_equal_unfolded():
    rng = np.random.default_rng(23)
    lost = 0
    for _ in range(100):
        params, gains = rand_plant_and_gains(rng)
        assert math.frexp(params.p3)[0] != 0.5   # p3 ** 2 may round apart from p3 * p3
        k, rho = coeffs(params, gains), region_rho(params, gains)
        for q1, q2, p1c, p2c in rng.uniform(-1.0, 1.0, size=(100, 4)).tolist():
            q1, q2, p1c, p2c = 3.0 * q1, 1.5 * rho * q2, 5.0 * p1c, 5.0 * p2c
            args = (q1, q2, p1c, p2c)
            got = bit_outcome(control_terms, k, *args)
            assert got == bit_outcome(control_terms_ref, params, gains, *args)
            assert bit_outcome(desired_hamiltonian, k, *args) == \
                bit_outcome(desired_hamiltonian_ref, params, gains, *args)
            lost += got[0] == "DefinitenessLost"
            s, c = math.sin(q2), math.cos(q2)
            sh = shaping(k, s, c)
            assert bits(sh) == bits(shaping_ref(params, gains, s, c))
            assert bits(rows_at(k, s, c, sh)) == bits(kinetic_rows_ref(
                params, gains, s, c, sh.ps1, sh.ps2, sh.ps3, sh.dd2, sh.dd4, sh.a1, sh.a2))
            g = _vd_gradient(k, q1 + _z_offset(k, s), s, sh.ps3)
            assert bits(g) == bits(vd_gradient_ref(
                params, gains, q1 + z_offset_ref(params, gains, s), s, sh.ps3))
            assert bits([potential_matching_row(k, s, sh.ps3, *g)]) == \
                bits([potential_row_ref(params, gains, s, sh.ps3, *g)])
    assert min(lost, 10_000 - lost) > 1000   # both outcomes are exercised


@pytest.fixture(scope="module")
def fig4_short():
    cfg = load_config(str(PRESETS / "fig4.yaml"))
    return cfg, run(dataclasses.replace(cfg, t_end=0.2).scenario())


def recorded(trace, k):
    """(q, p, theta_hat) of the k-th recorded row."""
    return trace.q[k], trace.p[k], trace.theta_hat[k]


# The simulator sums f^T theta_hat term by term; the array-form compositions use
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
        q, p, theta_hat = recorded(trace, k)
        u_shaping, pt1 = control_terms(coeffs(params, gains), *q, *p)
        f = eval_regressor(dist.regressor, q, p)
        dot_scale = float(np.abs(f) @ np.abs(theta_hat))
        assert trace.ptilde1[k] == pt1
        assert trace.d[k] == dist.value(*q.tolist(), *p.tolist())
        assert abs(trace.d_hat[k] - float(f @ theta_hat)) <= ULPS * dot_scale
        dhat = 0.0  # as the stages add f^T theta_hat into u; not sum(), compensated on 3.12
        for fv, th in zip(f.tolist(), theta_hat.tolist()):
            dhat += fv * th
        assert bits([trace.d_hat[k]]) == bits([dhat])
        assert abs(trace.u[k] - robust_control(params, gains, dist.regressor, theta_hat, q, p)) \
            <= ULPS * (abs(u_shaping) + dot_scale)
        assert trace.H[k] == hamiltonian(params, q[1], *p)
        assert trace.Hd[k] == desired_hamiltonian(coeffs(params, gains), *q, *p)
        assert trace.V_lyap[k] == lyapunov_value(adaptive.gamma, theta_hat, dist.theta,
                                                 trace.Hd[k])


def test_robust_steps_equal_public_rk4(fig4_short):
    cfg, trace = fig4_short
    params, gains, dist, adaptive = cfg.params, cfg.gains, cfg.disturbance, cfg.adaptive

    def rhs(x):
        q, p = np.asarray(x[:2]), np.asarray(x[2:4])
        u = robust_control(params, gains, dist.regressor, x[4:], q, p)
        qdot, pdot = open_loop_rhs(params, q, p, u, dist.value(*q.tolist(), *p.tolist()))
        return np.concatenate([qdot, pdot, adaptation_rhs(params, gains, dist.regressor,
                                                          adaptive, q, p)])

    for k in range(trace.t.shape[0] - 1):
        q, p, theta_hat = recorded(trace, k)
        x = np.concatenate([q, p, theta_hat])
        row = np.concatenate([trace.q[k + 1], trace.p[k + 1], trace.theta_hat[k + 1]])
        np.testing.assert_allclose(row, step_rk4(rhs, x, cfg.dt), rtol=ULPS, atol=0.0)
