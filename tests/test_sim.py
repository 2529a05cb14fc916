"""Closed-loop integrator: RK4 step, traces, conservation, early exit.

Covers:
  - one RK4 step of x' = -x equals 0.9048375 exactly (and e^{-0.1} to 1e-7)
  - harmonic-oscillator energy drift < 1e-8 over 10^4 steps
  - the list step_rk4 equals the ndarray RK4 expression bit for bit at state
    lengths 1-12 and 68 (4 + ell for ell = 64)
  - NonFiniteState on integrator blowup, also when rhs fails at a blown-up
    stage (a finite stage's error propagates); inf, -inf and nan at any one
    component of the update, at state lengths 4 and 7, raise it with the
    whole new state in the message
  - equilibrium start stays exactly at the target, u = 0
  - bitwise determinism of repeated runs
  - qdot0 -> p0 = M(q2) qdot0 initial-condition conversion
  - nominal mode: Hd nonincreasing (slope tolerance 1e-7) and the global
    energy balance Hd(T)-Hd(0) = -kv int ptilde1^2 holds to O(dt^4)
  - grid refinement: halving dt shrinks the endpoint error ~16x
  - spot checks: one every ceil(n/8) steps from t = 0, at most 9 per run, for
    n = 1..64 steps
  - region exit: flagged + truncated, never clamped;
    after an exit in a stage or on a recorded row every Trace array has
    the same, fully written rows
  - Scenario validation and out-of-region warning
  - a robust run with Gamma = I whose term overflows to inf at a finite stage
    state raises NonFiniteState, at the step where the unfolded Gamma^{-1} f
    sums raise it
  - a Trace compares by identity: two runs' traces are unequal without
    raising, and a trace equals itself
  - run() fills H, Hd and V_lyap after its loop with the doubles of the float
    calls at each kept row (V_lyap = oracles.lyapunov_value), after a region
    exit mid-run (blocks of 100 rows), an exit at row 0, one step, and rows that
    cross a block boundary, nominal and robust
  - the call path: run() records H and Hd through simulate.hamiltonian and
    controller.desired_hamiltonian (one call each per block of
    simulate.ENERGY_BLOCK recorded rows, on arrays), the module attributes the
    benchmark's tracer wraps, and check 6 takes its torque and plant through
    controller.control_terms_array and model.open_loop_rhs_array (one call
    each per block of samples, never control_law); a __call__ of the regressor
    node classes patched after import is the one run() evaluates: 18n + 6 calls
    over n steps of a 3-term robust run, and one that doubles a term gives the
    trace of that term written with a factor 2, also when it is patched after
    the disturbance spec and the Scenario are built (the recorded d comes from
    DisturbanceSpec.value, whose generated sum looks the __call__ up per call)
"""
import dataclasses
import math

import numpy as np
import pytest

import ripsim.simulate as sim
from ripsim import controller, model, verify
from ripsim.adaptive import AdaptiveState, DisturbanceSpec
from ripsim.controller import ControllerGains, DefinitenessLost, coeffs, control_terms
from ripsim.model import RobotParams, hamiltonian
from ripsim.regressor import Call, Number, Product, Variable, parse_regressor
from ripsim.simulate import (
    NonFiniteState, Scenario, Trace, run, step_rk4,
)
from ripsim.verify import closed_loop_equivalence

from oracles import inertia, lyapunov_value, trig

P_SYN = RobotParams(2.0, 1.0, 1.0, 2.0, 1.0)
G_CONV = ControllerGains(1.0, 0.1, 100.0, kappa=1.0, kv=2.0)


def nominal(q0, t_end=5.0, dt=1e-3, gains=G_CONV, qdot0=(0.0, 0.0)):
    return Scenario(params=P_SYN, gains=gains, mode="nominal", q0=q0,
                    qdot0=qdot0, t_end=t_end, dt=dt)


def test_rk4_linear_decay_step():
    out = step_rk4(lambda x: [-v for v in x], [1.0], 0.1)
    # one classical RK4 step of x' = -x from 1: 1 - 0.1 + 0.005 - ... exactly
    assert abs(out[0] - 0.9048375) < 1e-15
    assert abs(out[0] - math.exp(-0.1)) < 1e-7


def test_rk4_identity_rhs():
    x = np.array([0.3, -0.7])
    out = step_rk4(lambda _: np.zeros(2), x, 0.05)
    assert np.array_equal(out, x)


def test_rk4_harmonic_energy_drift():
    x = [1.0, 0.0]
    rhs = lambda v: [v[1], -v[0]]
    e0 = 0.5 * (x[0] * x[0] + x[1] * x[1])
    for _ in range(10_000):
        x = step_rk4(rhs, x, 1e-3)
    assert abs(0.5 * (x[0] * x[0] + x[1] * x[1]) - e0) < 1e-8


def test_rk4_nonfinite_raises():
    with pytest.raises(NonFiniteState):
        step_rk4(lambda x: [v * 1e308 for v in x], [1.0], 1.0)


@pytest.mark.parametrize("n", [4, 7])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_rk4_nonfinite_at_each_component_raises(n, bad):
    # a constant slope, finite but for one component: every stage evaluates, and the
    # update holds bad at that component only
    dt = 1e-3
    for i in range(n):
        slope = [0.5 * j - 1.0 for j in range(n)]
        slope[i] = bad
        x = [0.25 * j for j in range(n)]
        want = [a + dt / 6.0 * (k + 2.0 * k + 2.0 * k + k) for a, k in zip(x, slope)]
        assert [math.isfinite(v) for v in want].count(False) == 1
        with pytest.raises(NonFiniteState) as exc:
            step_rk4(lambda y: slope, x, dt)
        assert str(exc.value) == f"non-finite state after RK4 step: {want}"
    assert step_rk4(lambda y: [1.0] * n, [0.0] * n, dt) == [dt / 6.0 * 6.0] * n


def test_rk4_equals_vector_formula():
    # the list stages and update against the ndarray expression, bit for bit, at the
    # state lengths run() steps: 4 + ell, drawn from 1-12, and 68 (ell = 64)
    rng = np.random.default_rng(40)
    a = rng.normal(size=(68, 68))
    for size in [*rng.integers(1, 13, size=1000).tolist(), *[68] * 50]:
        x = rng.normal(size=size) * 10.0 ** rng.uniform(-3, 3)
        dt = 10.0 ** rng.uniform(-5, -1)
        m = a[:size, :size]
        rhs = lambda v: m @ np.asarray(v) + np.sin(v)
        k1 = rhs(x)
        k2 = rhs(x + (0.5 * dt) * k1)
        k3 = rhs(x + (0.5 * dt) * k2)
        k4 = rhs(x + dt * k3)
        want = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        got = step_rk4(lambda v: rhs(v).tolist(), x.tolist(), dt)
        assert type(got) is list and all(type(v) is float for v in got)
        assert np.array(got).view(np.int64).tolist() == want.view(np.int64).tolist()


def test_rk4_error_at_blown_up_stage_raises_nonfinite():
    # the k1 slope is inf, so the k2 stage holds q2 = inf and math.sin raises
    def rhs(y):
        control_terms(coeffs(P_SYN, G_CONV), y[0], y[1], *trig(y[1]), y[2], y[3])
        return [0.0, math.inf, 0.0, 0.0]

    with pytest.raises(NonFiniteState, match="stage"):
        step_rk4(rhs, [0.0, 0.1, 0.0, 0.0], 1e-3)


def test_rk4_error_at_finite_stage_propagates():
    def rhs(y):
        raise ValueError("not a blow-up")

    with pytest.raises(ValueError, match="not a blow-up"):
        step_rk4(rhs, [0.0, 0.1, 0.0, 0.0], 1e-3)


def test_equilibrium_stays_exact():
    tr = run(nominal((0.0, 0.0), t_end=0.5))
    assert tr.status == "ok"
    assert np.array_equal(tr.q, np.zeros_like(tr.q))
    assert np.array_equal(tr.p, np.zeros_like(tr.p))
    assert np.array_equal(tr.u, np.zeros_like(tr.u))
    assert np.array_equal(tr.Hd, np.full_like(tr.Hd, tr.Hd[0]))


def test_determinism_bitwise():
    a = run(nominal((0.1, 0.3), t_end=2.0))
    b = run(nominal((0.1, 0.3), t_end=2.0))
    for name in ("t", "q", "p", "u", "d", "H", "Hd", "V_lyap", "ptilde1"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_velocity_to_momentum_conversion():
    qdot0 = (0.2, -0.1)
    sc = nominal((0.0, 0.25), t_end=0.01, qdot0=qdot0)
    tr = run(sc)
    p0 = inertia(P_SYN, 0.25) @ qdot0
    assert np.allclose(tr.p[0], p0, atol=0)
    assert np.array_equal(tr.q[0], [0.0, 0.25])


def test_hd_nonincreasing_and_energy_balance():
    tr = run(nominal((0.1, 0.3), t_end=5.0))
    slopes = np.diff(tr.Hd) / 1e-3
    assert slopes.max() < 1e-7

    def balance_residual(dt):
        t = run(nominal((0.1, 0.3), t_end=2.0, dt=dt))
        g = G_CONV.kv * t.ptilde1 ** 2
        # composite Simpson over the uniform grid (even step count)
        w = np.ones(len(g))
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        integral = dt / 3.0 * (w @ g)
        return abs(t.Hd[-1] - t.Hd[0] + integral)

    r1, r2 = balance_residual(2.5e-4), balance_residual(1.25e-4)
    assert r1 / r2 > 8.0  # ~16 for a 4th-order scheme
    assert r2 < 1e-5


def test_grid_refinement_fourth_order():
    g = ControllerGains(1.0, 0.1, 60.0, kappa=1.0, kv=1.0)

    def endpoint(dt):
        tr = run(nominal((0.1, 0.2), t_end=1.0, dt=dt, gains=g))
        assert tr.status == "ok"
        return tr.q[-1]

    ref = endpoint(6.25e-5)
    e1 = np.abs(endpoint(2e-3) - ref).max()
    e2 = np.abs(endpoint(1e-3) - ref).max()
    assert 8.0 < e1 / e2 < 40.0


def test_spot_checks_recorded_and_small():
    tr = run(nominal((0.1, 0.3), t_end=2.0))
    assert 1 <= len(tr.spot_checks) <= 9
    for t_at, kin, pot in tr.spot_checks:
        assert kin < 1e-9 and pot < 1e-9


def test_spot_checks_at_most_n_spot_checks_plus_one():
    # one sample every ceil(n / N_SPOT_CHECKS) steps from t = 0; n // 8 steps
    # apart recorded n + 1 samples for 8 <= n < 16 (13 at n = 12)
    for n in range(1, 65):
        tr = run(nominal((0.1, 0.3), t_end=n * 1e-3))
        assert tr.status == "ok" and len(tr.t) == n + 1
        every = math.ceil(n / sim.N_SPOT_CHECKS)
        assert [t for t, _, _ in tr.spot_checks] == tr.t[::every].tolist()
        assert len(tr.spot_checks) <= sim.N_SPOT_CHECKS + 1
        if n % sim.N_SPOT_CHECKS == 0:   # the presets' n: 9 samples, as before
            assert len(tr.spot_checks) == sim.N_SPOT_CHECKS + 1


def test_start_outside_region_flagged():
    with pytest.warns(UserWarning, match="outside"):
        sc = nominal((0.0, 0.6), t_end=1.0)
    tr = run(sc)
    assert tr.status == "region_exit"
    assert len(tr.t) == 0
    assert "q2" in tr.exit_reason or "0.6" in tr.exit_reason


def test_midrun_region_exit_truncates():
    # a large constant matched disturbance knocks the pendulum out of the
    # Md > 0 region; the trace must stop there, not clamp
    spec = DisturbanceSpec(parse_regressor(["1"]), np.array([50.0]))
    sc = Scenario(params=P_SYN, gains=G_CONV, mode="disturbed_nominal",
                  q0=(0.0, 0.3), qdot0=(0.0, 0.0), t_end=10.0, dt=1e-3,
                  disturbance=spec)
    tr = run(sc)
    assert tr.status == "region_exit"
    assert 0 < len(tr.t) < 10_001
    assert len(tr.q) == len(tr.t) == len(tr.u)
    assert_rows_complete(tr)


TRACE_ARRAYS = ("t", "q", "p", "u", "d", "d_hat", "H", "Hd", "V_lyap", "ptilde1",
                "theta_hat")


def assert_rows_complete(tr):
    """Every Trace array has the same rows, all written: finite, and H is H(q, p)."""
    rows = tr.t.shape[0]
    for name in TRACE_ARRAYS:
        arr = getattr(tr, name)
        assert arr.shape[0] == rows, name
        assert np.all(np.isfinite(arr)), name
    for k in range(rows):
        assert tr.H[k] == hamiltonian(P_SYN, *trig(tr.q[k, 1]), tr.p[k, 0], tr.p[k, 1])


def robust_exit_scenario():
    # a large constant disturbance that the estimate cannot follow in time
    spec = DisturbanceSpec(parse_regressor(["1", "q1"]), np.array([50.0, 1.0]))
    return Scenario(params=P_SYN, gains=G_CONV, mode="disturbed_robust",
                    q0=(0.0, 0.3), qdot0=(0.0, 0.0), t_end=10.0, dt=1e-3,
                    disturbance=spec, adaptive=AdaptiveState(np.zeros(2), 1.0))


def test_region_exit_inside_stage_keeps_rows_complete(monkeypatch):
    raised = []

    def spy(rhs, x, dt):
        try:
            return step_rk4(rhs, x, dt)
        except DefinitenessLost:
            raised.append(1)
            raise

    monkeypatch.setattr(sim, "step_rk4", spy)
    tr = run(robust_exit_scenario())
    assert tr.status == "region_exit" and raised == [1]
    assert 0 < len(tr.t) < 10_001
    assert tr.theta_hat.shape == (len(tr.t), 2)
    assert_rows_complete(tr)


def test_region_exit_on_recorded_row_keeps_rows_complete(monkeypatch):
    # the run stops in the record block: control_terms raises at a recorded
    # row but never inside a stage
    calls = []

    def failing(k, q1, q2, s, c, p1c, p2c):
        calls.append(1)
        if len(calls) == 5 * 40 + 1:   # the 41st recorded row (4 stages + 1 row per step)
            raise DefinitenessLost(q2, -1.0)
        return control_terms(k, q1, q2, s, c, p1c, p2c)

    monkeypatch.setattr(sim, "control_terms", failing)
    tr = run(robust_exit_scenario())
    assert tr.status == "region_exit" and len(tr.t) == 40
    assert_rows_complete(tr)


def test_nominal_trace_has_empty_theta_columns():
    tr = run(nominal((0.1, 0.3), t_end=0.1))
    assert tr.theta_hat.shape == (101, 0)
    assert_rows_complete(tr)


def test_blowup_in_stage_raises_nonfinite():
    # p1^7 overflows to inf inside a stage; sin(inf) is nan, never a ValueError
    spec = DisturbanceSpec(parse_regressor(["sin(p1*p1*p1*p1*p1*p1*p1)*p1*p1*p1"]),
                           np.array([1.0e12]))
    fig3 = RobotParams(1.5, 0.1, 0.25, 0.13333333333333333, 3.924)
    sc = Scenario(params=fig3, gains=ControllerGains(1.0, 0.1, 100.0, kappa=0.006, kv=400.0),
                  mode="disturbed_nominal", q0=(-0.8, 0.8), t_end=2.0, dt=1e-3,
                  disturbance=spec)
    with pytest.raises(NonFiniteState):
        run(sc)


def test_blowup_with_unit_gamma_raises_nonfinite(monkeypatch):
    # Gamma = I: the stage's Gamma^{-1} f sums fold to r_i = 0.0 + f_i, and a term that
    # overflows (p1 != 0 after the first stage) is then inf where 0.0 * inf was nan
    spec = DisturbanceSpec(parse_regressor(["1", "1e300*p1*1e300"]), np.array([0.1, 0.1]))
    sc = Scenario(params=P_SYN, gains=G_CONV, mode="disturbed_robust", q0=(0.1, 0.2),
                  t_end=0.1, dt=1e-3, disturbance=spec,
                  adaptive=AdaptiveState(np.zeros(2), 1.0))
    steps = []

    def counting(rhs, x, dt):
        steps.append(x)
        return step_rk4(rhs, x, dt)

    def unfolded(out, rows, prefix, values):   # simulate._matvec with no weight folded
        lines, consts = [], {}
        for i, row in enumerate(rows):
            lines.append(f"{out}{i} = 0.0")
            for j, (w, v) in enumerate(zip(row, values)):
                consts[f"{prefix}{i}_{j}"] = w
                lines.append(f"{out}{i} = {out}{i} + {prefix}{i}_{j} * {v}")
        return lines, consts, False

    monkeypatch.setattr(sim, "step_rk4", counting)
    with pytest.raises(NonFiniteState):
        run(sc)
    folded = len(steps)
    monkeypatch.setattr(sim, "_matvec", unfolded)
    with pytest.raises(NonFiniteState):
        run(sc)
    assert folded == len(steps) - folded == 1


def test_trace_compares_by_identity():
    a, b = run(nominal((0.1, 0.3), t_end=0.01)), run(nominal((0.1, 0.3), t_end=0.01))
    assert a == a and a != b and not a == b


def test_scenario_validation():
    with pytest.raises(ValueError, match="mode"):
        Scenario(params=P_SYN, gains=G_CONV, mode="chaotic")
    with pytest.raises(ValueError, match="disturbance"):
        Scenario(params=P_SYN, gains=G_CONV, mode="disturbed_nominal")
    with pytest.raises(ValueError, match="adaptive"):
        Scenario(params=P_SYN, gains=G_CONV, mode="disturbed_robust",
                 disturbance=DisturbanceSpec(parse_regressor(["1"]),
                                             np.array([1.0])))
    with pytest.raises(ValueError, match="theta_hat"):
        Scenario(params=P_SYN, gains=G_CONV, mode="disturbed_robust",
                 disturbance=DisturbanceSpec(parse_regressor(["1"]),
                                             np.array([1.0])),
                 adaptive=AdaptiveState(np.zeros(3), 1.0))
    with pytest.raises(ValueError, match="dt"):
        Scenario(params=P_SYN, gains=G_CONV, dt=0.0)
    with pytest.raises(ValueError, match="t_end"):
        Scenario(params=P_SYN, gains=G_CONV, dt=0.1, t_end=0.01)


def test_energies_and_torque_called_through_module_names(monkeypatch):
    calls = {"H": 0, "Hd": 0, "u": 0, "u_array": 0, "plant_array": 0}

    def counting(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(sim, "hamiltonian", counting("H", sim.hamiltonian))
    monkeypatch.setattr(controller, "desired_hamiltonian",
                        counting("Hd", controller.desired_hamiltonian))
    monkeypatch.setattr(controller, "control_law", counting("u", controller.control_law))
    monkeypatch.setattr(controller, "control_terms_array",
                        counting("u_array", controller.control_terms_array))
    monkeypatch.setattr(model, "open_loop_rhs_array",
                        counting("plant_array", model.open_loop_rhs_array))
    n = 10
    tr = run(nominal((0.1, 0.2), t_end=n * 1e-3))
    assert tr.status == "ok" and tr.t.shape[0] == n + 1
    assert calls == {"H": 1, "Hd": 1, "u": 0, "u_array": 0, "plant_array": 0}   # one block
    monkeypatch.setattr(sim, "ENERGY_BLOCK", 4)
    tr = run(nominal((0.1, 0.2), t_end=n * 1e-3))
    assert calls["H"] == calls["Hd"] == 1 + 3   # blocks of 4, 4 and 3 rows
    assert closed_loop_equivalence(P_SYN, G_CONV, n_samples=50).passed
    assert calls == {"H": 4, "Hd": 4, "u": 0, "u_array": 1, "plant_array": 1}
    monkeypatch.setattr(verify, "SCAN_BLOCK", 16)
    assert closed_loop_equivalence(P_SYN, G_CONV, n_samples=50).passed
    assert calls == {"H": 4, "Hd": 4, "u": 0, "u_array": 1 + 4, "plant_array": 1 + 4}


def bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


def assert_energies_equal_float_calls(sc, tr):
    """Every kept row's H, Hd and V_lyap are the float calls at its state, bit for bit:
    hamiltonian, controller.desired_hamiltonian and, with estimates, lyapunov_value."""
    k = coeffs(sc.params, sc.gains)
    for i in range(tr.t.shape[0]):
        (q1, q2), (p1, p2) = tr.q[i].tolist(), tr.p[i].tolist()
        hd = controller.desired_hamiltonian(k, q1, q2, *trig(q2), p1, p2)
        v = hd
        if sc.mode == "disturbed_robust":
            v = lyapunov_value(sc.adaptive.gamma, tr.theta_hat[i].tolist(),
                               sc.disturbance.theta.tolist(), hd)
        assert bits([tr.H[i], tr.Hd[i], tr.V_lyap[i]]) == \
            bits([hamiltonian(sc.params, *trig(q2), p1, p2), hd, v]), i


@pytest.mark.parametrize("case", ["region_exit", "exit_at_row_0", "one_step", "block_boundary"])
def test_energies_of_kept_rows_equal_float_calls(case, monkeypatch):
    # run() fills H, Hd and V_lyap after its loop, ENERGY_BLOCK rows at a time, over
    # the rows it keeps
    block, f = sim.ENERGY_BLOCK, ["1", "q1", "sin(q2)*cos(p1)"]
    if case == "region_exit":   # blocks of 100 rows, the last one partial
        monkeypatch.setattr(sim, "ENERGY_BLOCK", 100)
        scenarios, rows = [robust_exit_scenario()], None
    elif case == "exit_at_row_0":
        with pytest.warns(UserWarning, match="outside"):
            scenarios = [nominal((0.0, 0.6), t_end=1.0),
                         dataclasses.replace(robust_3_term(f, 1000), q0=(0.0, 0.6))]
        rows = 0
    elif case == "one_step":
        scenarios, rows = [nominal((0.1, 0.2), t_end=1e-3), robust_3_term(f, 1)], 2
    else:   # one full block and one of a single row
        scenarios, rows = [nominal((0.1, 0.2), t_end=block * 1e-3), robust_3_term(f, block)], \
            block + 1
    for sc in scenarios:
        tr = run(sc)
        if rows is None:
            assert tr.status == "region_exit" and 100 < tr.t.shape[0] < 10_001
            assert tr.t.shape[0] % 100 != 0
        else:
            assert tr.t.shape[0] == rows and tr.status == ("ok" if rows else "region_exit")
        assert_rows_complete(tr)
        assert_energies_equal_float_calls(sc, tr)


def robust_3_term(f, n):
    spec = DisturbanceSpec(parse_regressor(f), np.array([0.1, 0.1, -0.3]))
    return Scenario(params=P_SYN, gains=G_CONV, mode="disturbed_robust", q0=(0.1, 0.2),
                    t_end=n * 1e-3, dt=1e-3, disturbance=spec,
                    adaptive=AdaptiveState(np.zeros(3), 1.0))


def test_patched_term_call_is_the_one_evaluated(monkeypatch):
    # the benchmark's tracer wraps the node classes' __call__ after import and before
    # run(): the stage and the row must call the wrapper, not a function bound earlier
    f = ["1", "q1", "sin(q2)*cos(p1)"]
    n, calls, scaled = 20, [0], [None]

    def wrapped(call):
        def __call__(self, *args):
            calls[0] += 1
            value = call(self, *args)
            return 2.0 * value if self is scaled[0] else value
        return __call__

    for cls in (Number, Variable, Call, Product):
        monkeypatch.setattr(cls, "__call__", wrapped(cls.__call__))
    sc = robust_3_term(f, n)
    plain = run(sc)
    # 4 stages x 3 terms per step, and per row 3 for d_hat and 3 for d
    assert plain.status == "ok" and calls[0] == 18 * n + 6
    scaled[0] = sc.disturbance.regressor.terms[2]
    doubled = run(sc)
    assert not np.array_equal(doubled.u, plain.u)
    # doubling is exact: the same bits as the term written with a factor 2
    want = run(robust_3_term(["1", "q1", "2*sin(q2)*cos(p1)"], n))
    for name in TRACE_ARRAYS:
        assert getattr(doubled, name).tobytes() == getattr(want, name).tobytes(), name


def test_term_call_patched_after_the_scenario_is_built(monkeypatch):
    # the benchmark's set-up builds the spec and the Scenario before its tracer patches
    # the node classes: DisturbanceSpec.value must not hold a __call__ read earlier
    n, calls, scaled = 20, [0], [None]
    sc = robust_3_term(["1", "q1", "sin(q2)*cos(p1)"], n)
    want = run(robust_3_term(["1", "q1", "2*sin(q2)*cos(p1)"], n))
    plain = run(sc)

    def wrapped(call):
        def __call__(self, *args):
            calls[0] += 1
            value = call(self, *args)
            return 2.0 * value if self is scaled[0] else value
        return __call__

    for cls in (Number, Variable, Call, Product):
        monkeypatch.setattr(cls, "__call__", wrapped(cls.__call__))
    assert sc.disturbance.value(0.1, 0.2, 0.3, 0.4) == \
        0.0 + 1.0 * 0.1 + 0.1 * 0.1 + math.sin(0.2) * math.cos(0.3) * -0.3
    assert calls[0] == 3
    scaled[0] = sc.disturbance.regressor.terms[2]
    doubled = run(sc)
    assert doubled.status == "ok" and calls[0] == 3 + 18 * n + 6
    assert not np.array_equal(doubled.d, plain.d)
    for name in TRACE_ARRAYS:
        assert getattr(doubled, name).tobytes() == getattr(want, name).tobytes(), name
