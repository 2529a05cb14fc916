"""Total energy shaping controller for the rotary inverted pendulum.

The closed loop is shaped into a port-Hamiltonian system with desired
inertia Md(q2), desired potential Vd(q) and a free skew interconnection
J2. All quantities are closed-form functions of q2 built from the row
matrix Psi = Md M^{-1} = [[psi1, psi2], [psi3, psi4]]:

  psi4 = -psi40 (constant),
  psi3 = cos(q2) / (k1 + (p2/(p3*psi40)) sin^2(q2)),

which solves the scalar Riccati equation left over from kinetic energy
matching; psi1, psi2 follow from fixing Md entries d1 = k2 and d2 = d3.
Md is positive definite only on a symmetric q2 interval around the
upright equilibrium; outside it the control law has no meaning and
evaluation raises DefinitenessLost.

control_terms (floats), control_terms_array (arrays) and
desired_hamiltonian (either) take s = sin q2 and c = cos q2 from the caller,
which forms the pair once per state; q2 itself only names the state in
DefinitenessLost, which each raises before dividing by det Md. control_law
takes q2 alone and forms the pair itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _fused
from .codegen import bind
from .model import RobotParams

class DefinitenessLost(Exception):
    """Desired inertia matrix not positive definite at the current q2."""

    def __init__(self, q2: float, det_md: float):
        self.q2 = q2
        self.det_md = det_md
        super().__init__(f"Md not positive definite at q2={q2:.6g} (det={det_md:.6g})")


class EmptyRegion(Exception):
    """d4 <= 0 even at the equilibrium: no q2 interval supports Md > 0."""


@dataclass(frozen=True)
class ControllerGains:
    """Free design constants: psi40, k1 (shape), k2 (scale), kappa, kv."""

    psi40: float
    k1: float
    k2: float
    kappa: float = 1.0
    kv: float = 1.0

    def __post_init__(self):
        for name in ("psi40", "k1", "k2", "kappa", "kv"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"controller gain {name} must be > 0")


@dataclass(frozen=True, slots=True, eq=False)
class Coeffs:
    """The constants of the closed forms for one (params, gains), bound once per run:
    p1..p5, the gains and each parameter-only sub-expression the helpers use, formed
    by the expression and IEEE association it replaces (so the doubles are the same).

    Fused control_terms and desired_hamiltonian, and shaping, form no binary
    operation of two parameter-only operands (fields, numbers, or names bound only
    from them) and negate none: each such value is a field here, which
    tests/test_kernel.py checks on their source. verify._kinetic_residuals forms its
    own products of p1..p5 on purpose: it is an oracle for these closed forms,
    independent of them by route, and reads no Coeffs."""

    p1: float
    p2: float
    p3: float
    p4: float
    p5: float
    k1: float
    k2: float
    kv: float
    kappa: float
    psi40: float
    w: float         # p2/(p3*psi40)
    p3psi40: float   # p3*psi40
    p4psi40: float   # p4*psi40
    za: float        # sqrt(p3/(k1*p2*psi40)), the a of z - q1 = a atan(b sin q2)
    zb: float        # sqrt(p2/(k1*p3*psi40)), its b
    p5_psi40: float  # p5/psi40
    p3sq: float      # p3**2
    ddet: float      # p2*p4 + p3**2, d(det M)/dq2 over 2 s c
    ps4: float       # psi4 = -psi40
    p4k2: float      # p4*k2
    p3ps4: float     # p3*psi4
    p4ps4: float     # p4*psi4
    neg2p2: float    # -2.0*p2
    two_p2: float    # 2.0*p2
    two_p3: float    # 2.0*p3
    two_p2ps4: float  # 2.0*p2*psi4
    neg_p3: float    # -p3
    half_kappa: float  # 0.5*kappa
    two_w: float     # 2.0*w


def coeffs(params: RobotParams, gains: ControllerGains) -> Coeffs:
    """The Coeffs of (params, gains); raises ZeroDivisionError when a product of the
    constants underflows to 0 (the z offset's k1*p2*psi40 first)."""
    p2, p3, p4, p5 = params.p2, params.p3, params.p4, params.p5
    k1, k2, psi40, kappa = gains.k1, gains.k2, gains.psi40, gains.kappa
    ps4, w = -psi40, p2 / (p3 * psi40)
    return Coeffs(params.p1, p2, p3, p4, p5, k1, k2, gains.kv, kappa, psi40,
                  w, p3 * psi40, p4 * psi40,
                  math.sqrt(p3 / (k1 * p2 * psi40)), math.sqrt(p2 / (k1 * p3 * psi40)),
                  p5 / psi40, p3 ** 2, p2 * p4 + p3 ** 2, ps4, p4 * k2,
                  p3 * ps4, p4 * ps4, -2.0 * p2, 2.0 * p2, 2.0 * p3, 2.0 * p2 * ps4, -p3,
                  0.5 * kappa, 2.0 * w)


def d4_at_origin(params: RobotParams, gains: ControllerGains) -> float:
    """d4(0) = p3/k1 - p4*psi40; must be positive for Md > 0 at the equilibrium."""
    return params.p3 / gains.k1 - params.p4 * gains.psi40


def region_rho(params: RobotParams, gains: ControllerGains) -> float:
    """Half-width of the symmetric q2 interval on which d4 > 0.

    rho = arccos sqrt( p4 (psi40 k1 + p2/p3) / (p3 + p2 p4/p3) ); the
    arccos argument reaches 1 exactly when d4(0) drops to 0, in which
    case no interval exists and EmptyRegion is raised. The interval
    grows as the product psi40*k1 shrinks.
    """
    arg = (params.p4 * (gains.psi40 * gains.k1 + params.p2 / params.p3)
           / (params.p3 + params.p2 * params.p4 / params.p3))
    if arg >= 1.0:
        raise EmptyRegion(
            f"d4(0) = {d4_at_origin(params, gains):.6g} <= 0: "
            "decrease psi40*k1 or the gains admit no positive definite Md")
    return math.acos(math.sqrt(arg))


# The closed forms, each written once in arithmetic only (floats or ndarrays) on
# s = sin q2, c = cos q2 and shared terms, with the constants read from a Coeffs
# k; shaping() evaluates them all at one (s, c), and the hot path control_terms
# threads one (s, c) through the helpers.
def md_d4(k: Coeffs, s: float, c: float) -> tuple[float, float]:
    """(den, d4): the Md entry d4 and its denominator den = k1 + w s^2 (region scan)."""
    den = k.k1 + k.w * s * s
    return den, k.p3 * c * c / den - k.p4psi40


def shape_terms(k: Coeffs, s: float, c: float):
    """(den, m11, psi3, d2, d4, d2b): psi3, the Md entries d2, d4 and shared terms,
    d2b = m11/den - p3 psi40 the bracket of d2 = c d2b, which _md_prime reads too."""
    den, d4 = md_d4(k, s, c)
    m11 = k.p1 + k.p2 * s * s
    d2b = m11 / den - k.p3psi40
    d2 = c * d2b
    return den, m11, c / den, d2, d4, d2b


def _md_prime(k: Coeffs, s: float, c: float, s2: float, den: float, m11: float,
              d2b: float) -> tuple[float, float]:
    """(d2', d4') by the quotient rule, s2 = 2 s c, d2b = m11/den - p3 psi40; d1' = 0
    since d1 = k2."""
    w = k.w
    dden = w * s2
    dm11 = k.p2 * s2
    den2 = den * den
    dd2 = -s * d2b + c * (dm11 * den - m11 * dden) / den2
    dd4 = k.neg_p3 * s2 * (den + w * c * c) / den2
    return dd2, dd4


def _md_det(k: Coeffs, d2: float, d4: float) -> float:
    """det Md = d1 d4 - d2^2, d1 = k2 > 0: Md is positive definite where det > 0."""
    return k.k2 * d4 - d2 * d2


def _md_inverse(k: Coeffs, d2: float, d4: float, det: float) -> tuple[float, float, float]:
    """(i11, i12, i22) of Md^{-1}; the caller has tested det = det Md > 0."""
    return d4 / det, -d2 / det, k.k2 / det


def _atan(x):
    """math.atan of a float or of each array element (np.arctan's kernels vary by CPU)."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(math.atan, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return math.atan(x)


def _psi_row1(k: Coeffs, s: float, c: float, s2: float, m11: float, d2: float,
              dd2: float) -> tuple[float, float, float, float]:
    """(psi1, psi2, psi1', psi2'): [psi1, psi2] = [d1, d2] M^{-1} = [n1, n2] / det M,
    and its q2-derivative by the quotient rule, s2 = 2 s c."""
    p3, k2 = k.p3, k.k2
    m12 = p3 * c
    m11p4 = m11 * k.p4
    det = m11p4 - m12 * m12
    n1 = k.p4k2 - m12 * d2
    n2 = -m12 * k2 + m11 * d2
    # det M once more, as p3**2 c c: it may round apart from m12 * m12. Kept on
    # purpose: det in its place leaves the fig presets' traces as they are, but
    # moves default's trace.csv from t = 0.633 s on (q1 0.22 rad apart by 30 s)
    det_ = m11p4 - k.p3sq * c * c
    ddet = k.ddet * s2
    p3s = p3 * s
    dn1 = p3s * d2 - m12 * dd2
    dn2 = p3s * k2 + k.p2 * s2 * d2 + m11 * dd2
    det2 = det_ * det_
    return n1 / det, n2 / det, (dn1 * det_ - n1 * ddet) / det2, (dn2 * det_ - n2 * ddet) / det2


def alpha_from_psi(k: Coeffs, s: float, c: float, m11: float, ps1: float, ps2: float,
                   ps3: float, dps1: float, dps2: float) -> tuple[float, float]:
    """Interconnection coefficients (alpha1, alpha2) at (s, c), m11 = p1 + p2 s^2."""
    p3_, ps4, p3ps4 = k.p3, k.ps4, k.p3ps4
    two_a1 = (k.neg2p2 * ps1 * ps1 * s * c
              + k.two_p3 * ps1 * ps2 * s
              + ps4 * m11 * dps1
              - p3ps4 * ps2 * s
              + k.two_p2ps4 * ps1 * s * c
              + p3ps4 * c * dps2)
    a2 = (p3_ * ps2 * ps3 * s
          - k.two_p2 * ps1 * ps3 * s * c
          + p3_ * ps1 * ps4 * s
          + p3ps4 * c * dps1
          + k.p4ps4 * dps2
          - p3ps4 * ps1 * s)
    return 0.5 * two_a1, a2  # the published expression gives 2*alpha1


def kinetic_matching_rows(k: Coeffs, s: float, c: float, ps1: float, ps2: float,
                          ps3: float, dd2: float, dd4: float,
                          a1: float, a2: float) -> tuple[float, float, float]:
    """Entries (r11, r12, r22) of -Psi M' Psi^T + psi4 Md' - [[2a1, a2], [a2, 0]].

    All three vanish where kinetic matching holds (Md' = [[0, dd2], [dd2, dd4]]).
    """
    ps4 = k.ps4
    dm11 = k.two_p2 * s * c
    dm12 = k.neg_p3 * s
    r11 = -(dm11 * ps1 * ps1 + 2.0 * dm12 * ps1 * ps2) - 2.0 * a1
    r12 = -(dm11 * ps1 * ps3 + dm12 * (ps1 * ps4 + ps2 * ps3)) + ps4 * dd2 - a2
    r22 = -(dm11 * ps3 * ps3 + 2.0 * dm12 * ps3 * ps4) + ps4 * dd4
    return r11, r12, r22


def _z_offset(k: Coeffs, s: float, atan=math.atan) -> float:
    """z(q) - q1 = a atan(b sin q2); the array routes that keep the float bits pass _atan
    (control_terms_array, desired_hamiltonian, closed_loop_rhs_direct), check 2 np.arctan."""
    return k.za * atan(k.zb * s)


def _vd_gradient(k: Coeffs, z: float, s: float, ps3: float) -> tuple[float, float]:
    """grad Vd = (kappa z, kappa z psi3/psi40 + (p5/psi40) sin q2), as dz/dq2 = psi3/psi40."""
    kz = k.kappa * z
    return kz, kz * ps3 / k.psi40 + k.p5_psi40 * s


def _hd_gradient(k: Coeffs, z: float, s: float, ps3: float, dd2: float, dd4: float,
                 pt1: float, pt2: float) -> tuple[float, float]:
    """grad_q Hd = grad Vd - (0, 1/2 ptilde^T Md' ptilde), Md' = [[0, dd2], [dd2, dd4]]."""
    g1, g2 = _vd_gradient(k, z, s, ps3)
    return g1, g2 - 0.5 * (2.0 * pt1 * pt2 * dd2 + pt2 * pt2 * dd4)


def potential_matching_row(k: Coeffs, s: float, ps3: float, g1: float, g2: float) -> float:
    """psi3 dVd/dq1 + psi4 dVd/dq2 + p5 sin q2 for grad Vd = (g1, g2); 0 where matching holds."""
    return ps3 * g1 - k.psi40 * g2 + k.p5 * s


class Shaping(NamedTuple):
    """Every per-q2 closed form: m11 = p1 + p2 s^2, the Psi entries, the Md
    entries d2, d4 (d1 = k2), the q2-derivatives (d-prefixed) and alpha."""

    m11: float
    ps1: float
    ps2: float
    ps3: float
    d2: float
    d4: float
    dd2: float
    dd4: float
    dps1: float
    dps2: float
    dps3: float
    a1: float
    a2: float


def shaping(k: Coeffs, s: float, c: float) -> Shaping:
    """All per-q2 closed forms at s = sin q2, c = cos q2, for floats or ndarrays."""
    den, m11, ps3, d2, d4, d2b = shape_terms(k, s, c)
    s2 = 2.0 * s * c
    dd2, dd4 = _md_prime(k, s, c, s2, den, m11, d2b)
    ps1, ps2, dps1, dps2 = _psi_row1(k, s, c, s2, m11, d2, dd2)
    dps3 = (-s * den - c * (k.two_w * s * c)) / (den * den)
    a1, a2 = alpha_from_psi(k, s, c, m11, ps1, ps2, ps3, dps1, dps2)
    return Shaping(m11, ps1, ps2, ps3, d2, d4, dd2, dd4, dps1, dps2, dps3, a1, a2)


def _vd(k: Coeffs, q1: float, s: float, c: float, atan=math.atan) -> float:
    """Vd = kappa/2 z^2 - (p5/psi40) cos q2 at (q1, s = sin q2, c = cos q2), minimized at
    the upright. desired_hamiltonian passes _atan, which keeps the float call's bits on
    arrays; only check 2's complex step passes np.arctan."""
    offset = _z_offset(k, s, atan)
    z = q1 + offset
    return k.half_kappa * z * z - k.p5_psi40 * c


def shaped_potential_hessian(k: Coeffs, q1: float, q2: float) -> np.ndarray:
    """Analytic Hessian of Vd at (q1, q2)."""
    s, c = math.sin(q2), math.cos(q2)
    sh = shaping(k, s, c)
    z = q1 + _z_offset(k, s)
    dz = sh.ps3 / k.psi40
    ddz = sh.dps3 / k.psi40
    kappa = k.kappa
    h12 = kappa * dz
    h22 = kappa * (dz * dz + z * ddz) + k.p5_psi40 * c
    return np.array([[kappa, h12], [h12, h22]])


def _require_definite(q2, det) -> None:
    """Raise DefinitenessLost at the first det = det Md <= 0, on a float or an array, naming
    its q2; a nan det passes, as the float test `det <= 0.0` lets it."""
    lost = np.flatnonzero(det <= 0.0)
    if lost.size:
        raise DefinitenessLost(float(np.ravel(q2)[lost[0]]), float(np.ravel(det)[lost[0]]))


def desired_hamiltonian(k: Coeffs, q1, q2, s, c, p1c, p2c):
    """Hd = 0.5 p^T Md^{-1} p + Vd(q) at s = sin q2, c = cos q2, on floats or arrays (the
    float call's doubles per element); DefinitenessLost names the first det Md <= 0."""
    _, _, _, d2, d4, _ = shape_terms(k, s, c)
    det = _md_det(k, d2, d4)
    _require_definite(q2, det)
    i11, i12, i22 = _md_inverse(k, d2, d4, det)
    pt1 = i11 * p1c + i12 * p2c
    pt2 = i12 * p1c + i22 * p2c
    return 0.5 * (p1c * pt1 + p2c * pt2) + _vd(k, q1, s, c, _atan)


def _control_body(k: Coeffs, q1, s, c, p1c, p2c, den, m11, ps3, d2, d4, d2b, det, atan):
    """(u, ptilde1) from shape_terms' values at (s, c) and det = det Md, which the caller
    has tested; floats or arrays, with atan of the same kind."""
    i11, i12, i22 = _md_inverse(k, d2, d4, det)
    pt1 = i11 * p1c + i12 * p2c
    pt2 = i12 * p1c + i22 * p2c
    s2 = 2.0 * s * c
    dd2, dd4 = _md_prime(k, s, c, s2, den, m11, d2b)
    offset = _z_offset(k, s, atan)
    gq1, gq2 = _hd_gradient(k, q1 + offset, s, ps3, dd2, dd4, pt1, pt2)
    ps1, ps2, dps1, dps2 = _psi_row1(k, s, c, s2, m11, d2, dd2)
    a1, a2 = alpha_from_psi(k, s, c, m11, ps1, ps2, ps3, dps1, dps2)
    j2s = a1 * pt1 + a2 * pt2  # the (1,2) entry of the skew J2
    u = -(ps1 * gq1 + ps2 * gq2) + j2s * pt2 - k.kv * pt1
    return u, pt1


_math_atan = math.atan   # a name, so that fused control_terms binds it once as a constant


def control_terms(k: Coeffs, q1: float, q2: float, s: float, c: float, p1c: float,
                  p2c: float) -> tuple[float, float]:
    """Scalar fast path at s = sin q2, c = cos q2: returns (u, ptilde1). q2 only names
    the state in DefinitenessLost, which it raises."""
    den, m11, ps3, d2, d4, d2b = shape_terms(k, s, c)
    det = _md_det(k, d2, d4)
    if det <= 0.0:
        raise DefinitenessLost(q2, det)
    u, pt1 = _control_body(k, q1, s, c, p1c, p2c, den, m11, ps3, d2, d4, d2b, det, _math_atan)
    return u, pt1


def control_terms_array(k: Coeffs, q1, q2, s, c, p1c, p2c):
    """control_terms on ndarrays, element by element the float call's doubles: (u, ptilde1)
    as arrays; DefinitenessLost names the first state with det Md <= 0. A helper patched
    after import reaches it."""
    den, m11, ps3, d2, d4, d2b = shape_terms(k, s, c)
    det = _md_det(k, d2, d4)
    _require_definite(q2, det)
    return _control_body(k, q1, s, c, p1c, p2c, den, m11, ps3, d2, d4, d2b, det, _atan)


def control_law(k: Coeffs, q1: float, q2: float, p1c: float, p2c: float) -> float:
    """Energy-shaping feedback torque on the arm joint, the u of control_terms.

    Raises DefinitenessLost outside the region where Md is positive
    definite; the simulation engine decides the policy there.
    """
    return control_terms(k, q1, q2, math.sin(q2), math.cos(q2), p1c, p2c)[0]


# The float entry point runs as fused code, every helper call inlined when the source
# changes (tools/fusion.py prints it into _fused.py); the definition above is its
# source and spec. A helper patched after import does not reach it, but reaches
# control_terms_array.
control_terms = bind(_fused.control_terms_factory, control_terms)
