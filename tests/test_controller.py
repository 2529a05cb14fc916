"""Energy-shaping controller: desired inertia, region, shaped potential, u.

Covers:
  - closed-form values at q2 = 0 for the synthetic parameter set
    (Md entries, psi row, psi3, rho) frozen from hand computation
  - structure of the full Psi = Md M^{-1}: bottom row is [psi3, -psi40],
    and Psi M = Md
  - evenness of psi1, psi2, psi3, d2, d4 in q2; oddness of u in the state
  - analytic derivatives vs central finite differences
  - the interconnection coefficients via two independent routes
  - shaped potential: critical point, frozen Hessian, kappa -> 0 boundary
  - region: frozen rho, monotone growth as psi40*k1 decreases, EmptyRegion
  - Md definiteness loss raised with context; Md^{-1} at 0 through
    shape_terms and momentum_tilde; a det Md of exactly 0.0 raises
    DefinitenessLost from control_terms, control_law and desired_hamiltonian
    and control_terms_array (floats and arrays), never ZeroDivisionError;
    desired_hamiltonian and control_terms_array on an array with states past
    the band name the first one's q2, and pass a nan det as the float calls do
  - controller vanishes at the target and Hd decreases along the true flow
"""
import dataclasses
import math

import numpy as np
import pytest

from ripsim.controller import (
    ControllerGains, DefinitenessLost, EmptyRegion, _md_det, _vd, _vd_gradient, _z_offset,
    coeffs, control_law, control_terms, control_terms_array, d4_at_origin,
    desired_hamiltonian, region_rho, shape_terms, shaped_potential_hessian, shaping,
)
from ripsim.model import RobotParams

from oracles import (
    alpha_from_matching, grad_q_Hd, inertia, momentum_tilde, psi_matrix, psi_row1_derivative_fd,
    trig,
)

P_SYN = RobotParams(2.0, 1.0, 1.0, 2.0, 1.0)
G_REF = ControllerGains(1.0, 0.1, 100.0)  # kappa = kv = 1
RHO_SYN = 0.5426391022496526  # arccos sqrt(2.2/3)


def rand_gains(rng):
    while True:
        g = ControllerGains(psi40=math.exp(rng.uniform(-1, 1)),
                            k1=math.exp(rng.uniform(-3, 0)),
                            k2=math.exp(rng.uniform(0, 5)),
                            kappa=math.exp(rng.uniform(-2, 2)),
                            kv=math.exp(rng.uniform(-2, 2)))
        try:
            region_rho(P_SYN, g)
            return g
        except EmptyRegion:
            continue


def test_gains_validation():
    for field in ("psi40", "k1", "k2", "kappa", "kv"):
        kw = dict(psi40=1.0, k1=0.1, k2=100.0, kappa=1.0, kv=1.0)
        kw[field] = 0.0
        with pytest.raises(ValueError, match=field):
            ControllerGains(**kw)


def test_desired_inertia_at_origin():
    k = coeffs(P_SYN, G_REF)
    sh = shaping(k, 0.0, 1.0)  # q2 = 0
    d1, d2, d4 = G_REF.k2, sh.d2, sh.d4
    assert (d1, d2, d4) == (100.0, 19.0, 8.0)
    assert d4_at_origin(P_SYN, G_REF) == pytest.approx(8.0, abs=1e-14)
    _, _, _, d2, d4, _ = shape_terms(k, 0.0, 1.0)
    md = np.array([[G_REF.k2, d2], [d2, d4]])
    assert np.allclose(md, [[100.0, 19.0], [19.0, 8.0]], atol=1e-12)
    assert np.linalg.eigvalsh(md).min() > 0


def test_psi_values_at_origin():
    sh = shaping(coeffs(P_SYN, G_REF), 0.0, 1.0)  # q2 = 0
    assert sh.ps3 == pytest.approx(10.0, abs=1e-13)
    ps1, ps2 = sh.ps1, sh.ps2
    assert ps1 == pytest.approx(181.0 / 3.0, abs=1e-10)
    assert ps2 == pytest.approx(-62.0 / 3.0, abs=1e-10)


def test_psi_matrix_bottom_row_structure():
    # Psi = Md M^{-1} must have second row [psi3(q2), -psi40] identically.
    rng = np.random.default_rng(10)
    for _ in range(200):
        g = rand_gains(rng)
        q2 = rng.uniform(-0.95, 0.95) * region_rho(P_SYN, g)
        psi = psi_matrix(P_SYN, g, q2)
        _, _, ps3, d2, d4, _ = shape_terms(coeffs(P_SYN, g), math.sin(q2), math.cos(q2))
        assert psi[1, 0] == pytest.approx(ps3, rel=1e-10, abs=1e-10)
        assert psi[1, 1] == pytest.approx(-g.psi40, rel=1e-10, abs=1e-12)
        md = np.array([[g.k2, d2], [d2, d4]])
        assert np.allclose(psi @ inertia(P_SYN, q2), md, rtol=1e-10, atol=1e-10 * abs(md).max())


def test_evenness_in_q2():
    rng = np.random.default_rng(11)
    k = coeffs(P_SYN, G_REF)
    for _ in range(100):
        q2 = rng.uniform(0.0, 0.5)
        sp = shaping(k, math.sin(q2), math.cos(q2))
        sm = shaping(k, math.sin(-q2), math.cos(-q2))
        assert sp.ps3 == pytest.approx(sm.ps3, rel=1e-12)
        a = (G_REF.k2, sp.d2, sp.d4)
        b = (G_REF.k2, sm.d2, sm.d4)
        assert a == pytest.approx(b, rel=1e-12)
        pa = (sp.ps1, sp.ps2)
        pb = (sm.ps1, sm.ps2)
        assert pa == pytest.approx(pb, rel=1e-12)
        assert _z_offset(k, math.sin(q2)) == pytest.approx(
            -_z_offset(k, math.sin(-q2)), rel=1e-12)


def test_psi3_derivative_matches_fd():
    rng = np.random.default_rng(12)
    h = 1e-6
    for _ in range(300):
        g = rand_gains(rng)
        q2, k = rng.uniform(-1.3, 1.3), coeffs(P_SYN, g)
        up = shaping(k, math.sin(q2 + h), math.cos(q2 + h))
        dn = shaping(k, math.sin(q2 - h), math.cos(q2 - h))
        fd = (up.ps3 - dn.ps3) / (2 * h)
        assert shaping(k, math.sin(q2), math.cos(q2)).dps3 == pytest.approx(fd, rel=2e-6, abs=2e-6)


def test_desired_inertia_derivative_matches_fd():
    rng = np.random.default_rng(13)
    h = 1e-6
    for _ in range(300):
        g = rand_gains(rng)
        q2, k = rng.uniform(-1.3, 1.3), coeffs(P_SYN, g)
        sh = shaping(k, math.sin(q2), math.cos(q2))
        dd2, dd4 = sh.dd2, sh.dd4
        _, _, _, d2p, d4p, _ = shape_terms(k, math.sin(q2 + h), math.cos(q2 + h))
        _, _, _, d2m, d4m, _ = shape_terms(k, math.sin(q2 - h), math.cos(q2 - h))
        assert dd2 == pytest.approx((d2p - d2m) / (2 * h), rel=2e-5, abs=2e-5)
        assert dd4 == pytest.approx((d4p - d4m) / (2 * h), rel=2e-5, abs=2e-5)


def test_psi_row1_derivative_matches_fd():
    rng = np.random.default_rng(14)
    for _ in range(200):
        g = rand_gains(rng)
        q2, k = rng.uniform(-1.2, 1.2), coeffs(P_SYN, g)
        sh = shaping(k, math.sin(q2), math.cos(q2))
        an = (sh.dps1, sh.dps2)
        fd = psi_row1_derivative_fd(k, q2)
        assert an == pytest.approx(fd, rel=5e-5, abs=5e-5)


def test_alpha_routes_agree():
    # paper-form alpha (uses psi1', psi2') vs direct matching-row solve
    rng = np.random.default_rng(15)
    for _ in range(300):
        g = rand_gains(rng)
        q2, k = rng.uniform(-1.3, 1.3), coeffs(P_SYN, g)
        sh = shaping(k, math.sin(q2), math.cos(q2))
        a = np.array([sh.a1, sh.a2])
        b = alpha_from_matching(k, q2)
        scale = max(1.0, np.abs(b).max())
        assert np.allclose(a, b, atol=1e-8 * scale)


def test_shaped_potential_critical_point():
    rng = np.random.default_rng(16)
    for _ in range(100):
        g = rand_gains(rng)
        k = coeffs(P_SYN, g)
        grad = _vd_gradient(k, _z_offset(k, 0.0), 0.0, shape_terms(k, 0.0, 1.0)[2])
        assert np.array_equal(grad, [0.0, 0.0])
        assert _vd(k, 0.0, 0.0, 1.0) == pytest.approx(
            -P_SYN.p5 / g.psi40, rel=1e-13)


def test_shaped_potential_hessian_frozen():
    hess = shaped_potential_hessian(coeffs(P_SYN, G_REF), 0.0, 0.0)
    assert np.allclose(hess, [[1.0, 10.0], [10.0, 101.0]], atol=1e-9)
    assert np.linalg.eigvalsh(hess).min() > 0


def test_hessian_kappa_to_zero_boundary():
    g = ControllerGains(1.0, 0.1, 100.0, kappa=1e-12, kv=1.0)
    hess = shaped_potential_hessian(coeffs(P_SYN, g), 0.0, 0.0)
    assert np.allclose(hess, [[0.0, 0.0], [0.0, P_SYN.p5]], atol=1e-9)


def test_shaped_potential_gradient_matches_fd():
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(200):
        g = rand_gains(rng)
        k = coeffs(P_SYN, g)
        q1, q2 = q = rng.uniform(-1.0, 1.0, 2) * [2.0, 0.9 * region_rho(P_SYN, g)]
        s = math.sin(q2)
        grad = _vd_gradient(k, q1 + _z_offset(k, s), s, shape_terms(k, s, math.cos(q2))[2])
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            up, dn = q + e, q - e
            fd = (_vd(k, up[0], math.sin(up[1]), math.cos(up[1]))
                  - _vd(k, dn[0], math.sin(dn[1]), math.cos(dn[1]))) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-5)


def test_region_rho_frozen_value():
    assert region_rho(P_SYN, G_REF) == pytest.approx(RHO_SYN, abs=1e-15)


def test_region_grows_as_psi40_k1_shrinks():
    rng = np.random.default_rng(18)
    for _ in range(100):
        g = rand_gains(rng)
        shrunk = ControllerGains(g.psi40, g.k1 * rng.uniform(0.1, 0.9), g.k2,
                                 kappa=g.kappa, kv=g.kv)
        assert region_rho(P_SYN, shrunk) >= region_rho(P_SYN, g)


def test_empty_region():
    # d4(0) <= 0 once k1 >= p3/(p4 psi40) = 0.5
    with pytest.raises(EmptyRegion):
        region_rho(P_SYN, ControllerGains(1.0, 0.6, 100.0))


def test_definiteness_lost_carries_context():
    with pytest.raises(DefinitenessLost) as exc:
        momentum_tilde(coeffs(P_SYN, G_REF), 0.54, 1.0, 0.0)
    assert exc.value.q2 == pytest.approx(0.54)
    assert exc.value.det_md <= 0.0


def test_md_inverse_at_origin():
    k = coeffs(P_SYN, G_REF)
    _, _, _, d2, d4, _ = shape_terms(k, 0.0, 1.0)  # q2 = 0
    det = G_REF.k2 * d4 - d2 * d2
    (i11, i12), (_, i22) = (momentum_tilde(k, 0.0, *e) for e in ((1, 0), (0, 1)))
    assert det == pytest.approx(439.0, rel=1e-13)
    assert (i11, i12, i22) == pytest.approx((8 / 439, -19 / 439, 100 / 439), rel=1e-12)
    pt = momentum_tilde(k, 0.0, 1.0, 0.0)
    assert pt == pytest.approx((8 / 439, -19 / 439), rel=1e-12)


def test_zero_det_raises_definiteness_lost():
    # constants with d2 = d4 = 1 at q2 = 0 and k2 = 1: det Md = 1 - 1 is exactly 0.0,
    # so the test comes before any division by it
    k = dataclasses.replace(coeffs(P_SYN, G_REF), k1=1.0, w=0.0, p3=1.0, p4psi40=0.0, p1=1.0,
                            p3psi40=0.0, k2=1.0)
    _, _, _, d2, d4, _ = shape_terms(k, 0.0, 1.0)
    assert (d2, d4, _md_det(k, d2, d4)) == (1.0, 1.0, 0.0)
    calls = [lambda: control_terms(k, 0.0, 0.0, 0.0, 1.0, 1.0, 0.5),
             lambda: control_law(k, 0.0, 0.0, 1.0, 0.5),
             lambda: desired_hamiltonian(k, 0.0, 0.0, 0.0, 1.0, 1.0, 0.5),
             lambda: desired_hamiltonian(k, *(np.array([0.0]),) * 3, np.array([1.0]),
                                         np.array([1.0]), np.array([0.5])),
             lambda: control_terms_array(k, *(np.array([0.0]),) * 3, np.array([1.0]),
                                         np.array([1.0]), np.array([0.5]))]
    for call in calls:
        with pytest.raises(DefinitenessLost, match=r"^Md not positive definite at q2=0 \(det=0\)$") \
                as info:
            call()
        assert info.value.q2 == 0.0 and info.value.det_md == 0.0


def test_array_desired_hamiltonian_names_the_first_state_past_the_band():
    # neither desired_hamiltonian nor control_terms_array returns a value where
    # det Md <= 0: the first such state is named; a nan det passes, as on floats
    k = coeffs(P_SYN, G_REF)
    q2 = np.array([0.1, -0.2, -0.55, 0.3, 0.6, -0.0, math.nan])   # |q2| = 0.55, 0.6: past rho
    s, c = (np.array([f(v) for v in q2.tolist()]) for f in (math.sin, math.cos))
    p = np.full(7, 0.25)
    on_floats = {
        desired_hamiltonian: lambda v: desired_hamiltonian(k, 0.25, v, *trig(v), 0.25, 0.25),
        control_terms_array: lambda v: control_terms(k, 0.25, v, *trig(v), 0.25, 0.25)}
    for fn, on_float in on_floats.items():
        with pytest.raises(DefinitenessLost) as info:
            fn(k, p, q2, s, c, p, p)
        assert info.value.q2 == -0.55 and info.value.det_md <= 0.0
        with pytest.raises(DefinitenessLost) as want:
            on_float(-0.55)
        assert str(info.value) == str(want.value) and info.value.det_md == want.value.det_md
        keep = [0, 1, 3, 5, 6]
        got = fn(k, p[keep], q2[keep], s[keep], c[keep], p[keep], p[keep])
        want = np.array([on_float(v) for v in q2[keep].tolist()]).T
        assert np.isnan(want[..., -1]).all()
        assert np.array(got).tobytes() == want.tobytes()


def test_desired_hamiltonian_at_target():
    k = coeffs(P_SYN, G_REF)
    assert desired_hamiltonian(k, 0.0, 0.0, *trig(0.0), 0.0, 0.0) == pytest.approx(-1.0, abs=1e-14)
    assert np.array_equal(grad_q_Hd(P_SYN, G_REF, [0.0, 0.0], [0.0, 0.0]), [0.0, 0.0])


def test_control_vanishes_at_target():
    assert control_law(coeffs(P_SYN, G_REF), 0.0, 0.0, 0.0, 0.0) == 0.0


def test_control_law_odd_symmetry():
    rng, k = np.random.default_rng(19), coeffs(P_SYN, G_REF)
    for _ in range(100):
        q = rng.uniform(-1, 1, 2) * [2.0, 0.5]
        p = rng.uniform(-1, 1, 2)
        u = control_law(k, *q, *p)
        v = control_law(k, *-q, *-p)
        assert v == pytest.approx(-u, rel=1e-10, abs=1e-10)


def test_hd_decreases_along_true_flow():
    # dHd/dt = -kv * ptilde1^2 along the exact closed loop: check with a
    # tiny-step RK4 probe at random in-region states.
    from ripsim.model import open_loop_rhs_flat
    from ripsim.simulate import step_rk4
    rng, k = np.random.default_rng(20), coeffs(P_SYN, G_REF)
    dt = 1e-6
    for _ in range(50):
        q = rng.uniform(-1, 1, 2) * [1.5, 0.5]
        p = rng.uniform(-1, 1, 2)

        def rhs(x):
            u = control_law(k, *x)
            return np.array(open_loop_rhs_flat(P_SYN, *trig(x[1]), x[2], x[3], u, 0.0))

        x0 = np.array([*q, *p])
        x1 = step_rk4(rhs, x0, dt)
        hd0 = desired_hamiltonian(k, *x0[:2], *trig(x0[1]), *x0[2:])
        hd1 = desired_hamiltonian(k, *x1[:2], *trig(x1[1]), *x1[2:])
        pt1, _ = momentum_tilde(k, q[1], p[0], p[1])
        assert (hd1 - hd0) / dt == pytest.approx(-G_REF.kv * pt1 * pt1,
                                                 rel=1e-4, abs=1e-6)
