"""Open-loop pendulum model: inertia matrix, energies, gradients, RHS.

Covers:
  - inertia values at q2 = 0 and pi/2 for the synthetic parameter set
  - positive definiteness of M over a dense q2 grid
  - Hamiltonian values and the 0.5*qd^T M qd + V identity, with qd from
    open_loop_rhs_flat at u = d = 0 (the simulator's plant)
  - -pdot of open_loop_rhs_flat at u = d = 0 as grad_q H: dH/dq2 against
    finite differences, dH/dq1 identically zero; momentum/qdot round trip
  - open-loop RHS: equilibrium, u-d cancellation, underactuation,
    q1 translation invariance; open_loop_rhs_flat against the matrix form
    qdot = M^{-1} p (a 2x2 solve), pdot2 = p5 sin q2 + 1/2 qdot^T M' qdot
  - the one-trig open_loop_rhs_flat and hamiltonian equal, bit for bit,
    the composition of per-quantity calls that each evaluate sin/cos and M^{-1}
  - energy conservation of the free plant under RK4
  - parameter validation and the physical-constant constructor
"""
import math

import numpy as np
import pytest

from ripsim.model import G, RobotParams, hamiltonian, momentum, open_loop_rhs_flat
from ripsim.simulate import step_rk4

from oracles import inertia, open_loop_rhs

P_SYN = RobotParams(2.0, 1.0, 1.0, 2.0, 1.0)


def rand_params(rng):
    while True:
        p = np.exp(rng.uniform(-1.5, 1.5, 5))
        if p[0] * p[3] - p[2] ** 2 > 1e-3:
            return RobotParams(*p)


def rand_state(rng, scale=2.0):
    """(q, p): q drawn first, then p."""
    q = rng.uniform(-3, 3, 2)
    return q, rng.uniform(-scale, scale, 2)


def test_input_map_constants():
    assert G.shape == (2, 1)
    assert np.array_equal(G.ravel(), [1.0, 0.0])


def test_inertia_at_zero():
    assert np.allclose(inertia(P_SYN, 0.0), [[2.0, 1.0], [1.0, 2.0]], atol=1e-15)


def test_inertia_at_half_pi():
    assert np.allclose(inertia(P_SYN, math.pi / 2), [[3.0, 0.0], [0.0, 2.0]], atol=1e-12)


def test_inertia_positive_definite_on_grid():
    rng = np.random.default_rng(0)
    for _ in range(20):
        params = rand_params(rng)
        for q2 in np.linspace(-2 * math.pi, 2 * math.pi, 10_001):
            m = inertia(params, q2)
            assert m[0, 1] == m[1, 0]
            assert np.linalg.eigvalsh(m).min() > 0.0


def test_hamiltonian_values():
    assert hamiltonian(P_SYN, 0.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert hamiltonian(P_SYN, math.pi, 0.0, 0.0) == pytest.approx(-1.0, abs=1e-12)


def test_hamiltonian_velocity_identity():
    # H = 0.5 qd^T M qd + p5 cos(q2) with qd = M^{-1} p
    rng = np.random.default_rng(2)
    for _ in range(300):
        params = rand_params(rng)
        q, p = rand_state(rng)
        qd = np.array(open_loop_rhs_flat(params, q[1], p[0], p[1], 0.0, 0.0)[:2])
        m = inertia(params, q[1])
        ref = 0.5 * qd @ m @ qd + params.p5 * math.cos(q[1])
        assert hamiltonian(params, q[1], *p) == pytest.approx(ref, rel=1e-12, abs=1e-12)
        assert hamiltonian(params, q[1], *p) >= -params.p5 - 1e-12


def test_momentum_velocity_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(100):
        params = rand_params(rng)
        q2 = rng.uniform(-3, 3)
        qd = rng.uniform(-2, 2, 2)
        p = momentum(params, q2, *qd)
        back = open_loop_rhs_flat(params, q2, *p, 0.0, 0.0)[:2]
        assert np.allclose(back, qd, atol=1e-12)


def test_grad_q_h_first_component_zero():
    # pdot1 = -dH/dq1 + u - d
    rng = np.random.default_rng(4)
    for _ in range(100):
        params, (q, p) = rand_params(rng), rand_state(rng)
        assert open_loop_rhs_flat(params, q[1], p[0], p[1], 0.0, 0.0)[2] == 0.0


def test_grad_q_h_matches_fd():
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(1000):
        params = rand_params(rng)
        q, p = rand_state(rng)
        g2 = -open_loop_rhs_flat(params, q[1], p[0], p[1], 0.0, 0.0)[3]
        hp = hamiltonian(params, q[1] + h, *p)
        hm = hamiltonian(params, q[1] - h, *p)
        fd = (hp - hm) / (2 * h)
        assert g2 == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_open_loop_equilibrium():
    qd, pd = open_loop_rhs(P_SYN, [0.0, 0.0], [0.0, 0.0], u=0.0, d=0.0)
    assert np.array_equal(qd, [0.0, 0.0]) and np.array_equal(pd, [0.0, 0.0])


def test_open_loop_u_d_cancellation():
    rng = np.random.default_rng(6)
    for _ in range(50):
        params = rand_params(rng)
        q, p = rand_state(rng)
        c = rng.uniform(-5, 5)
        ref = open_loop_rhs(params, q, p, u=0.0, d=0.0)
        got = open_loop_rhs(params, q, p, u=c, d=c)
        assert np.allclose(got[0], ref[0], atol=0) and np.allclose(got[1], ref[1], atol=0)


def test_open_loop_pdot2_independent_of_u():
    rng = np.random.default_rng(7)
    for _ in range(50):
        params = rand_params(rng)
        q, p = rand_state(rng)
        _, pd_a = open_loop_rhs(params, q, p, u=rng.uniform(-9, 9))
        _, pd_b = open_loop_rhs(params, q, p, u=rng.uniform(-9, 9))
        assert pd_a[1] == pd_b[1]


def test_open_loop_q1_translation_invariance():
    rng = np.random.default_rng(8)
    for _ in range(50):
        params = rand_params(rng)
        q, p = rand_state(rng)
        shifted = q + [rng.uniform(-10, 10), 0.0]
        a = open_loop_rhs(params, q, p, u=0.3, d=0.1)
        b = open_loop_rhs(params, shifted, p, u=0.3, d=0.1)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_flat_rhs_matches_vector_rhs():
    rng = np.random.default_rng(9)
    for _ in range(100):
        params = rand_params(rng)
        q, p = rand_state(rng)
        u, d = rng.uniform(-2, 2, 2)
        sin, cos = math.sin(q[1]), math.cos(q[1])
        qd = np.linalg.solve(inertia(params, q[1]), p)
        dm = np.array([[2.0 * params.p2 * sin * cos, -params.p3 * sin],
                       [-params.p3 * sin, 0.0]])
        pd = [u - d, params.p5 * sin + 0.5 * qd @ dm @ qd]
        flat = open_loop_rhs_flat(params, q[1], p[0], p[1], u, d)
        assert np.allclose([qd[0], qd[1], pd[0], pd[1]], flat, atol=0)


# The plant as separate per-quantity calls, each with its own sin/cos, M entries
# and M^{-1}: the reference for the fused helper.
def inertia_ref(params, q2):
    s, c = math.sin(q2), math.cos(q2)
    return params.p1 + params.p2 * s * s, params.p3 * c, params.p4


def inv2_ref(m11, m12, m22):
    det = m11 * m22 - m12 * m12
    return m22 / det, -m12 / det, m11 / det, det


def qdot_ref(params, q2, p1c, p2c):
    i11, i12, i22, _ = inv2_ref(*inertia_ref(params, q2))
    return i11 * p1c + i12 * p2c, i12 * p1c + i22 * p2c


def dh_dq2_ref(params, q2, p1c, p2c):
    s, c = math.sin(q2), math.cos(q2)
    i11, i12, i22, _ = inv2_ref(*inertia_ref(params, q2))
    v1 = i11 * p1c + i12 * p2c
    v2 = i12 * p1c + i22 * p2c
    d11 = 2.0 * params.p2 * s * c
    d12 = -params.p3 * s
    quad = d11 * v1 * v1 + 2.0 * d12 * v1 * v2
    return -params.p5 * s - 0.5 * quad


def hamiltonian_ref(params, q2, p1c, p2c):
    i11, i12, i22, _ = inv2_ref(*inertia_ref(params, q2))
    kinetic = 0.5 * (i11 * p1c * p1c + 2.0 * i12 * p1c * p2c + i22 * p2c * p2c)
    return params.p5 * math.cos(q2) + kinetic


def bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


def test_fused_plant_equals_composition():
    rng = np.random.default_rng(31)
    param_sets = [P_SYN, RobotParams(1.5, 0.1, 0.25, 0.13333333333333333, 3.924)]
    param_sets += [rand_params(rng) for _ in range(98)]
    for params in param_sets:
        for q2, p1c, p2c, u, d in rng.uniform(-4.0, 4.0, size=(100, 5)).tolist():
            q2 *= 2.0
            want = (*qdot_ref(params, q2, p1c, p2c), u - d, -dh_dq2_ref(params, q2, p1c, p2c))
            assert bits(open_loop_rhs_flat(params, q2, p1c, p2c, u, d)) == bits(want)
            assert bits([hamiltonian(params, q2, p1c, p2c)]) == \
                bits([hamiltonian_ref(params, q2, p1c, p2c)])


def test_free_plant_conserves_energy():
    # u = d = 0: |H(t) - H(0)| stays within a C*dt^4*t envelope for RK4.
    params = P_SYN
    dt, n = 1e-3, 10_000
    x = np.array([0.0, 0.4, 0.3, -0.2])

    def rhs(y):
        return np.array(open_loop_rhs_flat(params, y[1], y[2], y[3], 0.0, 0.0))

    h0 = hamiltonian(params, *x[1:])
    worst = 0.0
    for k in range(n):
        x = step_rk4(rhs, x, dt)
        drift = abs(hamiltonian(params, *x[1:]) - h0)
        worst = max(worst, drift / (dt ** 4 * (k + 1) * dt))
    assert worst < 10.0  # C empirically O(1) for this trajectory


def test_params_validation():
    with pytest.raises(ValueError, match="p2"):
        RobotParams(1.0, -1.0, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError, match="definiteness"):
        RobotParams(1.0, 1.0, 1.5, 1.0, 1.0)  # p1 p4 - p3^2 < 0


def test_from_physical_mapping():
    params = RobotParams.from_physical(m1=0.5, m2=0.25, l1=0.4, l2=0.3,
                                       I1=0.01, I2=0.005, g=9.8)
    assert params.p1 == pytest.approx(0.01 + 0.5 * 0.16)
    assert params.p2 == pytest.approx(0.25 * 0.09)
    assert params.p3 == pytest.approx(0.25 * 0.4 * 0.3)
    assert params.p4 == pytest.approx(0.005 + 0.25 * 0.09)
    assert params.p5 == pytest.approx(0.25 * 0.3 * 9.8)
