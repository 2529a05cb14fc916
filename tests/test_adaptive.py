"""Disturbance model, parameter adaptation, robust control augmentation.

Covers:
  - DisturbanceSpec/AdaptiveState validation (dimensions, PD gain matrix), and
    equality by value: two loads of fig4 (three terms) compare equal, as do
    their scenarios, and a changed theta, term, theta_hat or gamma unequal
  - DisturbanceSpec.value, generated per spec, equals dot(eval_flat(...), theta)
    (oracles.py) bit for bit on random specs of 1-5 terms, at states where
    terms read -0.0, nan and +-inf (a nan equal to any nan: CPython's float
    addition returns either operand's nan, by whether the add is specialised)
  - adaptation law -ptilde1 * Gamma^{-1} f (the array-form composition in
    oracles.py, which test_kernel ties to the simulator's steps): zero at
    rest, scalar case, general matrix Gamma
  - robust control with zero estimate reduces to the bare controller
  - matched cancellation: disturbed RHS minus nominal RHS = G f^T (theta-hat
    - theta) exactly; perfect estimate cancels the disturbance
  - constant regressor f=["1"] turns the augmentation into integral action
  - Lyapunov value Hd + 0.5 err' Gamma err and its monotone decrease
    along a simulated robust run; property (hypothesis): over random SPD
    Gamma, a 1 s fig4 run keeps v_slope_max <= 1e-12
"""
import dataclasses
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ripsim.adaptive import AdaptiveState, DisturbanceSpec
from ripsim.cli import trace_summary
from ripsim.config import load_config
from ripsim.controller import ControllerGains, coeffs, control_law
from ripsim.model import RobotParams
from ripsim.regressor import parse_regressor
from ripsim.simulate import run

from oracles import (
    adaptation_rhs, dot, eval_flat, eval_regressor, lyapunov_value, momentum_tilde,
    open_loop_rhs, robust_control,
)

P_SYN = RobotParams(2.0, 1.0, 1.0, 2.0, 1.0)
G_REF = ControllerGains(1.0, 0.1, 100.0)
F_REF = parse_regressor(["1", "q1", "sin(q2)*cos(p1)"])
TH_REF = np.array([0.1, 0.1, -0.3])


def test_disturbance_spec_validation():
    spec = DisturbanceSpec(F_REF, TH_REF)
    assert spec.value(0.0, 0.0, 0.0, 0.0) == pytest.approx(0.1, abs=1e-15)
    with pytest.raises(ValueError):
        DisturbanceSpec(F_REF, np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        DisturbanceSpec(F_REF, np.array([0.1, math.inf, 0.0]))


# -0.0 (0*q1 at q1 < 0), nan (sin of an overflowed p1^3), +-inf (1e308*q1*1e308 at
# |q1| >= 1) and subnormal values, next to ordinary terms
VALUE_TERMS = ("1", "q1", "0*q1", "sin(q2)*cos(p1)", "1e308*q1*1e308", "sin(p1*p1*p1)",
               "p2*p2*q2", "q1*q2*5e-324", "cos(p1*p1*p1)*q1")


def test_generated_value_equals_dot_of_terms():
    rng = np.random.default_rng(27)
    states = [(-1.0, 0.5, 1e103, -0.0), (1.0, -0.0, 0.3, 2.0), (-0.0, 0.0, -0.0, 0.0),
              (-2.0, 1e300, -1e103, 1e200), *rng.normal(size=(20, 4)).tolist()]
    seen = set()
    for _ in range(200):
        ell = int(rng.integers(1, 6))
        texts = [VALUE_TERMS[i] for i in rng.integers(0, len(VALUE_TERMS), ell)]
        theta = rng.normal(size=ell)
        theta[rng.random(ell) < 0.2] = rng.choice([0.0, -0.0])
        spec = DisturbanceSpec(parse_regressor(texts), theta)
        for x in states:
            f = eval_flat(spec.regressor, *x)
            want = dot(f, theta.tolist())
            got = spec.value(*x)
            assert (math.isnan(got) and math.isnan(want)
                    or struct.pack("d", got) == struct.pack("d", want)), (texts, x)
            seen.update(repr(v) for v in (*f, want) if v == 0.0 or not math.isfinite(v))
    assert {"-0.0", "nan", "inf", "-inf"} <= seen


def test_adaptive_state_scalar_gamma():
    a = AdaptiveState(np.zeros(3), 2.0)
    assert np.allclose(a.gamma, 2.0 * np.eye(3), atol=0)
    assert np.allclose(a.gamma_inv, 0.5 * np.eye(3), atol=1e-15)


def test_adaptive_state_matrix_gamma_validation():
    good = np.array([[2.0, 0.5], [0.5, 1.0]])
    a = AdaptiveState(np.zeros(2), good)
    assert np.allclose(a.gamma_inv @ good, np.eye(2), atol=1e-12)
    with pytest.raises(ValueError):
        AdaptiveState(np.zeros(2), np.array([[1.0, 0.3], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        AdaptiveState(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        AdaptiveState(np.zeros(3), good)  # dim mismatch with theta_hat


def test_specs_and_states_compare_by_value():
    # fig4 has three terms: the generated dataclass __eq__ raised on its theta arrays
    a, b = load_config(FIG4), load_config(FIG4)
    assert a == b and a.scenario() == b.scenario()
    spec, state = a.disturbance, a.adaptive
    theta = spec.theta.copy()
    theta[1] = np.nextafter(theta[1], 1.0)
    assert dataclasses.replace(spec, theta=theta) != spec
    assert dataclasses.replace(a, disturbance=dataclasses.replace(spec, theta=theta)) != a
    assert dataclasses.replace(spec, regressor=parse_regressor(["1", "q1", "q2"])) != spec
    assert dataclasses.replace(state, theta_hat=state.theta_hat + 1.0) != state
    assert dataclasses.replace(state, gamma=2.0 * state.gamma) != state
    assert spec != state and state != spec


def test_adaptation_rhs_zero_at_rest():
    a = AdaptiveState(np.zeros(3), 1.0)
    rng = np.random.default_rng(23)
    for _ in range(20):
        q, p = rng.uniform(-0.5, 0.5, 2), [0.0, 0.0]
        assert np.array_equal(adaptation_rhs(P_SYN, G_REF, F_REF, a, q, p),
                              np.zeros(3))


def test_adaptation_rhs_scalar_case():
    # f = ["1"], Gamma = I: theta_hat_dot = [-ptilde1]
    f1 = parse_regressor(["1"])
    a = AdaptiveState(np.zeros(1), 1.0)
    rng = np.random.default_rng(24)
    for _ in range(50):
        q, p = rng.uniform(-0.5, 0.5, 2), rng.uniform(-1, 1, 2)
        pt1, _ = momentum_tilde(coeffs(P_SYN, G_REF), q[1], p[0], p[1])
        got = adaptation_rhs(P_SYN, G_REF, f1, a, q, p)
        assert got == pytest.approx([-pt1], rel=1e-14, abs=1e-16)


def test_adaptation_rhs_matrix_gamma():
    gamma = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.1], [0.0, 0.1, 0.8]])
    a = AdaptiveState(np.zeros(3), gamma)
    rng = np.random.default_rng(25)
    for _ in range(50):
        q, p = rng.uniform(-0.5, 0.5, 2), rng.uniform(-1, 1, 2)
        pt1, _ = momentum_tilde(coeffs(P_SYN, G_REF), q[1], p[0], p[1])
        f = eval_regressor(F_REF, q, p)
        ref = -pt1 * np.linalg.solve(gamma, f)
        assert np.allclose(adaptation_rhs(P_SYN, G_REF, F_REF, a, q, p), ref,
                           atol=1e-13)


def test_robust_control_zero_estimate():
    rng = np.random.default_rng(26)
    for _ in range(50):
        q, p = rng.uniform(-0.4, 0.4, 2), rng.uniform(-1, 1, 2)
        assert robust_control(P_SYN, G_REF, F_REF, np.zeros(3), q, p) \
            == control_law(coeffs(P_SYN, G_REF), *q, *p)


def test_matched_cancellation_identity():
    # disturbed RHS with robust control minus nominal RHS = -G f^T (theta -
    # theta_hat) exactly, term by term, sharing one f evaluation.
    rng = np.random.default_rng(27)
    for _ in range(1000):
        q, p = rng.uniform(-1, 1, 2) * [2.0, 0.45], rng.uniform(-1.5, 1.5, 2)
        theta_hat = rng.uniform(-1, 1, 3)
        f = eval_regressor(F_REF, q, p)
        u_rob = robust_control(P_SYN, G_REF, F_REF, theta_hat, q, p)
        qd_d, pd_d = open_loop_rhs(P_SYN, q, p, u_rob, d=f @ TH_REF)
        u_nom = control_law(coeffs(P_SYN, G_REF), *q, *p)
        qd_n, pd_n = open_loop_rhs(P_SYN, q, p, u_nom, d=0.0)
        resid = f @ (TH_REF - theta_hat)
        assert np.array_equal(qd_d, qd_n)
        assert pd_d[1] == pd_n[1]
        assert abs((pd_d[0] - pd_n[0]) + resid) < 1e-12


def test_perfect_estimate_cancels_disturbance():
    rng = np.random.default_rng(28)
    for _ in range(200):
        q, p = rng.uniform(-1, 1, 2) * [2.0, 0.45], rng.uniform(-1.5, 1.5, 2)
        f = eval_regressor(F_REF, q, p)
        u_rob = robust_control(P_SYN, G_REF, F_REF, TH_REF, q, p)
        qd_d, pd_d = open_loop_rhs(P_SYN, q, p, u_rob, d=f @ TH_REF)
        u_nom = control_law(coeffs(P_SYN, G_REF), *q, *p)
        qd_n, pd_n = open_loop_rhs(P_SYN, q, p, u_nom, d=0.0)
        assert np.array_equal(qd_d, qd_n) and np.array_equal(pd_d, pd_n)


def test_lyapunov_value_formula():
    rng = np.random.default_rng(29)
    gamma = np.diag([2.0, 4.0, 0.5])
    for _ in range(50):
        th, th_hat = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        hd = rng.uniform(-2, 2)
        err = th - th_hat
        ref = hd + 0.5 * err @ gamma @ err
        assert lyapunov_value(gamma, th_hat, th, hd) == pytest.approx(ref, rel=1e-14)
    # identity Gamma: plain half squared norm
    err = np.array([0.3, -0.4, 0.0])
    assert lyapunov_value(np.eye(3), TH_REF - err, TH_REF, 1.0) \
        == pytest.approx(1.0 + 0.125, abs=1e-15)


def test_lyapunov_monotone_along_robust_run():
    from ripsim.adaptive import AdaptiveState
    from ripsim.simulate import Scenario, run
    sc = Scenario(params=P_SYN, gains=ControllerGains(1.0, 0.1, 100.0, kappa=1.0, kv=2.0),
                  mode="disturbed_robust", q0=np.array([0.1, 0.3]),
                  qdot0=np.zeros(2), t_end=5.0, dt=1e-3,
                  disturbance=DisturbanceSpec(F_REF, TH_REF),
                  adaptive=AdaptiveState(np.zeros(3), 1.0))
    tr = run(sc)
    assert tr.status == "ok"
    slopes = np.diff(tr.V_lyap) / sc.dt
    assert slopes.max() < 1e-7


FIG4 = Path(__file__).resolve().parent.parent / "presets" / "fig4.yaml"


@settings(max_examples=25, deadline=None)
@given(eigs=st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_certificate_holds_for_every_gamma(eigs, seed):
    # the Gamma-weighted V decreases for any SPD Gamma, not only at Gamma = I
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    gamma = (q * eigs) @ q.T
    cfg = load_config(str(FIG4))
    adaptive = AdaptiveState(cfg.adaptive.theta_hat, 0.5 * (gamma + gamma.T))
    trace = run(dataclasses.replace(cfg, t_end=1.0, adaptive=adaptive).scenario())
    summary = trace_summary(trace)
    assert summary["status"] == "ok"
    assert summary["v_slope_max"] <= 1e-12, (eigs, summary["v_slope_max"])
