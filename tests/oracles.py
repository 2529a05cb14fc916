"""Array-form compositions of ripsim's flat closed forms, shared by the tests.

Each helper takes a state as q = (q1, q2) and p = (p1, p2) and calls the
flat functions the simulator and verify use, in the order the per-state
public functions once did, so an identity stated on them holds for src's
one copy. The numpy products (Gamma^{-1} f and
f^T theta_hat by @) are a second summation route beside adaptive.dot, and
psi_row1_derivative_fd a central-difference route to (psi1', psi2');
lyapunov_value is V in adaptive.dot's order, the reference for the recorded row.
two_trig_sign_scan is verify's sign scan with np.sin and np.cos at every point.
inject_shaping_fault plants a fault in the closed forms, which verify must
detect.
"""
import math

import numpy as np

from ripsim import controller, verify
from ripsim.adaptive import dot
from ripsim.controller import (
    _hd_gradient, _md_inverse, _z_offset, coeffs, control_law, control_terms, shape_terms,
    shaping,
)
from ripsim.model import _inertia, open_loop_rhs_flat

FD_STEP = 1e-7  # central-difference step of psi_row1_derivative_fd


def inertia(params, q2):
    """M(q2) as a 2x2 array."""
    m11, m12, m22 = _inertia(params, math.sin(q2), math.cos(q2))
    return np.array([[m11, m12], [m12, m22]])


def open_loop_rhs(params, q, p, u, d=0.0):
    """(qdot, pdot) of the plant at (q, p), as two arrays."""
    qd1, qd2, pd1, pd2 = open_loop_rhs_flat(params, q[1], p[0], p[1], u, d)
    return np.array([qd1, qd2]), np.array([pd1, pd2])


def momentum_tilde(k, q2, p1c, p2c):
    """ptilde = Md^{-1} p from a Coeffs k; raises DefinitenessLost."""
    _, _, _, d2, d4 = shape_terms(k, math.sin(q2), math.cos(q2))
    i11, i12, i22 = _md_inverse(k, q2, d2, d4)
    return i11 * p1c + i12 * p2c, i12 * p1c + i22 * p2c


def psi_matrix(params, gains, q2):
    """Psi(q2) = [[psi1, psi2], [psi3, psi4]] from controller.shaping (a planted fault shows)."""
    sh = controller.shaping(coeffs(params, gains), math.sin(q2), math.cos(q2))
    return np.array([[sh.ps1, sh.ps2], [sh.ps3, -gains.psi40]])


def psi_row1_derivative_fd(k, q2, h=FD_STEP):
    """Central differences of (psi1, psi2) in q2, beside the analytic (psi1', psi2')."""
    up = shaping(k, math.sin(q2 + h), math.cos(q2 + h))
    dn = shaping(k, math.sin(q2 - h), math.cos(q2 - h))
    return (up.ps1 - dn.ps1) / (2.0 * h), (up.ps2 - dn.ps2) / (2.0 * h)


def grad_q_Hd(params, gains, q, p):
    """grad_q Hd at (q, p): grad Vd plus the shaped kinetic term in q2."""
    q2, k = float(q[1]), coeffs(params, gains)
    pt1, pt2 = momentum_tilde(k, q2, p[0], p[1])
    sin = math.sin(q2)
    sh = shaping(k, sin, math.cos(q2))
    z = float(q[0]) + _z_offset(k, sin)
    return np.array(_hd_gradient(k, z, sin, sh.ps3, sh.dd2, sh.dd4, pt1, pt2))


def eval_regressor(spec, q, p):
    """f(q, p), as an array."""
    return np.array(spec.eval_flat(q[0], q[1], p[0], p[1]))


def robust_control(params, gains, regressor, theta_hat, q, p):
    """u = energy-shaping torque + f^T theta_hat at (q, p)."""
    u = control_law(coeffs(params, gains), q[0], q[1], p[0], p[1])
    return u + float(eval_regressor(regressor, q, p) @ np.asarray(theta_hat))


def inject_shaping_fault(monkeypatch, edit):
    """Make controller.shaping return edit(sh) of its true record sh, for every caller
    that looks it up through the module (verify does; control_terms does not call it)."""
    true = controller.shaping
    monkeypatch.setattr(controller, "shaping", lambda k, s, c: edit(true(k, s, c)))


def shift_psi3(sh):
    """psi3 off by 0.01, its derivative left as is."""
    return sh._replace(ps3=sh.ps3 + 0.01)


def zero_alpha(sh):
    """alpha1 = alpha2 = 0: the J2 of the target form drops out."""
    return sh._replace(a1=0.0 * sh.a1, a2=0.0 * sh.a2)


def adaptation_rhs(params, gains, regressor, adaptive, q, p):
    """dtheta_hat/dt = -ptilde1 * Gamma^{-1} f(q, p)."""
    _, pt1 = control_terms(coeffs(params, gains), q[0], q[1], p[0], p[1])
    return -pt1 * (adaptive.gamma_inv @ eval_regressor(regressor, q, p))


def lyapunov_value(gamma, theta_hat, theta, hd: float) -> float:
    """V = Hd + 1/2 theta_err^T Gamma theta_err (adaptive's module docstring), summed
    by adaptive.dot; gamma (rows), theta_hat and theta are ndarrays or lists of floats.
    The reference for the V_lyap that simulate's generated row records."""
    err = [a - b for a, b in zip(theta_hat, theta)]
    return hd + 0.5 * dot(err, [dot(row, err) for row in gamma])


def two_trig_sign_scan(params, gains, n, value):
    """verify._sign_scan as it read with s = np.sin(q2) and c = np.cos(q2) at every
    point: the reference for the one-trig scan."""
    k, before = coeffs(params, gains), math.nan
    for start, b in verify._grid_blocks(n):
        bad = np.flatnonzero(~(value(k, np.sin(b), np.cos(b)) > 0.0))
        if bad.size:
            j = int(bad[0])
            return start + j, float(b[j - 1]) if j else before, float(b[j])
        before = float(b[-1])
    return n + 1, before, math.nan
