"""State-form compositions of ripsim's flat closed forms, shared by the tests.

Each helper calls the flat functions the simulator and verify use, in the
order the per-state public functions once did, so an identity stated on
them holds for src's one copy. The numpy products (Gamma^{-1} f and
f^T theta_hat by @) are a second summation route beside adaptive.dot.
"""
import math

import numpy as np

from ripsim.controller import (
    _hd_gradient, _md_inverse, _z_offset, coeffs, control_terms, shape_terms, shaping,
    shaping_at,
)
from ripsim.model import _inertia, open_loop_rhs_flat


def inertia(params, q2):
    """M(q2) as a 2x2 array."""
    m11, m12, m22 = _inertia(params, math.sin(q2), math.cos(q2))
    return np.array([[m11, m12], [m12, m22]])


def open_loop_rhs(params, s, u, d=0.0):
    """(qdot, pdot) of the plant at the State s, as two arrays."""
    qd1, qd2, pd1, pd2 = open_loop_rhs_flat(params, s.q[1], s.p[0], s.p[1], u, d)
    return np.array([qd1, qd2]), np.array([pd1, pd2])


def momentum_tilde(k, q2, p1c, p2c):
    """ptilde = Md^{-1} p from a Coeffs k; raises DefinitenessLost."""
    _, _, _, d2, d4 = shape_terms(k, math.sin(q2), math.cos(q2))
    i11, i12, i22, _ = _md_inverse(k, q2, d2, d4)
    return i11 * p1c + i12 * p2c, i12 * p1c + i22 * p2c


def psi_matrix(params, gains, q2):
    """Psi(q2) = [[psi1, psi2], [psi3, psi4]] from shaping_at."""
    sh = shaping_at(params, gains, q2)
    return np.array([[sh.ps1, sh.ps2], [sh.ps3, -gains.psi40]])


def grad_q_Hd(params, gains, s):
    """grad_q Hd at the State s: grad Vd plus the shaped kinetic term in q2."""
    q2, k = float(s.q[1]), coeffs(params, gains)
    pt1, pt2 = momentum_tilde(k, q2, s.p[0], s.p[1])
    sin = math.sin(q2)
    sh = shaping(k, sin, math.cos(q2))
    z = float(s.q[0]) + _z_offset(k, sin)
    return np.array(_hd_gradient(k, z, sin, sh.ps3, sh.dd2, sh.dd4, pt1, pt2))


def eval_regressor(spec, s):
    """f(q, p) at the State s, as an array."""
    return np.array(spec.eval_flat(s.q[0], s.q[1], s.p[0], s.p[1]))


def robust_control(params, gains, regressor, theta_hat, s):
    """u = energy-shaping torque + f^T theta_hat."""
    u, _ = control_terms(coeffs(params, gains), s.q[0], s.q[1], s.p[0], s.p[1])
    return u + float(eval_regressor(regressor, s) @ np.asarray(theta_hat))


def adaptation_rhs(params, gains, regressor, adaptive, s):
    """dtheta_hat/dt = -ptilde1 * Gamma^{-1} f(q, p)."""
    _, pt1 = control_terms(coeffs(params, gains), s.q[0], s.q[1], s.p[0], s.p[1])
    return -pt1 * (adaptive.gamma_inv @ eval_regressor(regressor, s))
