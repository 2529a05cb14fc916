"""Array-form compositions of ripsim's flat closed forms, shared by the tests.

Each helper takes a state as q = (q1, q2) and p = (p1, p2) and calls the
flat functions the simulator and verify use, in the order the per-state
public functions once did, so an identity stated on them holds for src's
one copy. The numpy products (Gamma^{-1} f and
f^T theta_hat by @) are a second summation route beside dot, and
psi_row1_derivative_fd a central-difference route to (psi1', psi2');
lyapunov_value is V in dot's order, the reference for the recorded row.
dot is the left-to-right sum that simulate's generated stage and row and
adaptive's generated disturbance sum unroll, and eval_flat evaluates a
regressor term by term as they call it: the references the tests pin those
generated functions to, bit for bit.
trig(q2) is the (sin q2, cos q2) pair the fused float entry points take.
two_trig_sign_scan is verify's sign scan with np.sin and np.cos at every point.
grid_in_loop_integrated_residual is check 7's soundness control as it read with
q appended to the grid inside the RK4 loop: the reference for the grid formed
after it.
inject_shaping_fault plants a fault in the closed forms, which verify must
detect.
"""
import math
from array import array

import numpy as np

from ripsim import controller, verify
from ripsim.controller import (
    DefinitenessLost, _hd_gradient, _md_det, _md_inverse, _z_offset, coeffs, control_law,
    control_terms, shape_terms, shaping,
)
from ripsim.model import _inertia, open_loop_rhs_flat

FD_STEP = 1e-7  # central-difference step of psi_row1_derivative_fd


def dot(a, b, acc: float = 0.0) -> float:
    """acc + sum of a_i * b_i added left to right: the order of every term-by-term sum
    of the closed loop (sum() and math.sumprod are compensated from Python 3.12 on).
    The stage (simulate._stage) and the recorded row (simulate._row) unroll their sums
    in this order, one statement per term; tests/test_kernel.py pins both to this
    function bit for bit."""
    for x, y in zip(a, b):
        acc += x * y
    return acc


def eval_flat(spec, q1: float, q2: float, p1: float, p2: float) -> list[float]:
    """f(q, p) of a RegressorSpec as a list, each term called through its class's
    __call__, which skips the instance-call slot (as simulate's stage and row call it)."""
    return [type(t).__call__(t, q1, q2, p1, p2) for t in spec.terms]


def trig(q2):
    """(sin q2, cos q2): the pair the fused float entry points take in place of q2."""
    return math.sin(q2), math.cos(q2)


def inertia(params, q2):
    """M(q2) as a 2x2 array."""
    m11, m12, m22 = _inertia(params, math.sin(q2), math.cos(q2))
    return np.array([[m11, m12], [m12, m22]])


def open_loop_rhs(params, q, p, u, d=0.0):
    """(qdot, pdot) of the plant at (q, p), as two arrays."""
    qd1, qd2, pd1, pd2 = open_loop_rhs_flat(params, *trig(q[1]), p[0], p[1], u, d)
    return np.array([qd1, qd2]), np.array([pd1, pd2])


def momentum_tilde(k, q2, p1c, p2c):
    """ptilde = Md^{-1} p from a Coeffs k; raises DefinitenessLost."""
    _, _, _, d2, d4, _ = shape_terms(k, math.sin(q2), math.cos(q2))
    det = _md_det(k, d2, d4)
    if det <= 0.0:
        raise DefinitenessLost(q2, det)
    i11, i12, i22 = _md_inverse(k, d2, d4, det)
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
    return np.array(eval_flat(spec, q[0], q[1], p[0], p[1]))


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
    _, pt1 = control_terms(coeffs(params, gains), q[0], q[1], *trig(q[1]), p[0], p[1])
    return -pt1 * (adaptive.gamma_inv @ eval_regressor(regressor, q, p))


def lyapunov_value(gamma, theta_hat, theta, hd: float) -> float:
    """V = Hd + 1/2 theta_err^T Gamma theta_err (adaptive's module docstring), summed
    by dot; gamma (rows), theta_hat and theta are ndarrays or lists of floats.
    The reference for the V_lyap that simulate's generated row records."""
    err = [a - b for a, b in zip(theta_hat, theta)]
    return hd + 0.5 * dot(err, [dot(row, err) for row in gamma])


def two_trig_sign_scan(params, gains, n, value):
    """verify._sign_scan as it read with s = np.sin(q2) and c = np.cos(q2) at every
    point: the reference for the one-trig scan."""
    k, before = coeffs(params, gains), math.nan
    for start in range(0, n + 1, verify.SCAN_BLOCK):
        b = verify._block_points(n, start)
        bad = np.flatnonzero(~(value(k, np.sin(b), np.cos(b)) > 0.0))
        if bad.size:
            j = int(bad[0])
            return start + j, float(b[j - 1]) if j else before, float(b[j])
        before = float(b[-1])
    return n + 1, before, math.nan


def grid_in_loop_integrated_residual(spec, span=1.0, h=verify.SOUNDNESS_H):
    """verify._integrated_solution_residual as it read with q appended to an array
    grid at every step: the reference for the grid that check 7 forms after its loop."""
    fk, sin, cos = float(spec.frak_k1), math.sin, math.cos
    two_fk = 2.0 * fk
    n = int(round(span / h))
    m0 = float(verify.claimed_m22(spec, 0.0))
    rs = []
    for hh in (h, -h):
        half, sixth = 0.5 * hh, hh / 6.0
        qs, ms = array("d", [0.0]), array("d", [m0])
        q, m = 0.0, m0
        a, b = -sin(2.0 * q), two_fk / cos(q) ** 2
        for _ in range(n):
            qm = q + half
            am, bm = -sin(2.0 * qm), two_fk / cos(qm) ** 2
            q += hh
            k1 = (a * m * m - 4.0 * m + b) / fk
            x = m + half * k1
            k2 = (am * x * x - 4.0 * x + bm) / fk
            x = m + half * k2
            k3 = (am * x * x - 4.0 * x + bm) / fk
            x = m + hh * k3
            a, b = -sin(2.0 * q), two_fk / cos(q) ** 2
            m += sixth * (k1 + 2.0 * k2 + 2.0 * k3 + (a * x * x - 4.0 * x + b) / fk)
            qs.append(q)
            ms.append(m)
        qs, ms = np.frombuffer(qs), np.frombuffer(ms)
        with np.errstate(invalid="ignore", over="ignore"):
            dm = (-ms[4:] + 8 * ms[3:-1] - 8 * ms[1:-3] + ms[:-4]) / (12.0 * (qs[1] - qs[0]))
            rs.append(np.abs(verify._ode_residual(spec, qs[2:-2], ms[2:-2], dm)))
    return float(np.max(np.concatenate(rs)))
