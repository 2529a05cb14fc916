"""Numeric verification of the identities behind the controller design.

Every claim the closed-loop stability argument rests on is checked on
fixed grids or random samples: the kinetic matching equation and its three
scalar rows (the unactuated one is psi3's Riccati equation times
-p3 psi40 cos q2), the potential matching identity, the
positive-definiteness region of Md, the shaped-potential Hessian, the
equivalence of the assembled closed loop with its target form, and the
prior-work counterexample. The closed forms are the controller's own;
each identity is checked through a route independent of them (finite
differences, a complex step, a linear solve, sign scans; checks 3 and 4
share one blocked sign scan).

The sign scan first runs the scanned closed form, unchanged, once over all
its blocks after block 0 on _Range, a range type over numpy arrays, and passes
over each block whose lower bound is > 0 without forming its points. A block's
c = cos q2 lies in [np.cos(last) - COS_ERR, np.cos(first) + COS_ERR] (cos
falls on [0, pi/2]; COS_ERR is far above the ulp error of np.cos), and s is
formed from it as the scan forms it. Each + - * / of ranges takes the least
and greatest of its corner results, rounded to nearest as the scan rounds;
rounding is monotone, so every double the point-by-point scan computes in a
block lies in the block's range. Block 0, where c reaches 1 + COS_ERR and
the lower bound would be nan, takes no bounds (nor does a grid of one block);
it and every block not certified (the block at the crossing) are scanned
point by point, so the scan's results do not depend on the bounds.

The closed-loop check compares the route simulate.run takes (control_terms'
torque and open_loop_rhs_flat) with closed_loop_rhs_direct, which assembles
the target form on stacked (N, 2, 2) matrices and solves all samples in
one batched np.linalg.solve. It runs that route on the samples' arrays,
through the definitions of the two float entry points
(controller.control_terms_array, model.open_loop_rhs_array): element by
element the doubles of the float calls, with sin, cos and atan from math.
Both routes read one (sin, cos) pair per sample (_trig), and checks 1 and 6
each take their grid or samples in one array pass.
Those look their helpers up through the module, so a closed-form helper
patched after import reaches this check (it does not reach the fused float
entry points).
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from . import controller, model
from .controller import ControllerGains, EmptyRegion
from .model import G, RobotParams, _inertia, _inv2

TOL_ANALYTIC = 1e-8   # identities assembled from analytic derivatives
TOL_FD = 1e-5         # identities with finite-difference derivatives
TOL_EXACT = 1e-10     # exact algebraic identities
TOL_EQUIV = 1e-9      # dual-formulation closed-loop agreement
SOUNDNESS_TOL = 1e-6  # the residual checker on a truly integrated solution
SOUNDNESS_H = 5e-4    # check 7's RK4 step; the residual's error falls as h**4 (README)
FD_H = 1e-6
CS_H = 1e-30          # complex step of check 2's grad Vd
# Grid points per block of the sign scans. At 1 << 14 a block's float64 temporary is
# 128 KiB, glibc's default mmap threshold, so each one is a fresh mmap that faults its
# pages in.
SCAN_BLOCK = 1 << 12
COS_ERR = 1e-12       # margin on np.cos at a block's ends, far above its ulp error
# The suite's fixed sizes; no config sets them.
GRID_POINTS = 1000    # checks 1 and 7: points of the q2 grid
Q2_SPAN = 1.5         # checks 1 and 2: q2 in [-Q2_SPAN, Q2_SPAN]
Q1_SPAN = 3.0         # check 2: q1 in [-Q1_SPAN, Q1_SPAN]
PLANAR_POINTS = 100   # check 2: points per axis
REGION_CELLS = 10 ** 6  # check 3: cells on [0, pi/2]
MD_CELLS = 10 ** 5    # check 4: cells on [0, pi/2]
HESSIAN_FD_H = 1e-5   # check 5: central-difference step
PD_CELLS = 4000       # check 6: cells of the det Md scan that bounds its q2 draws
SAMPLES = 1000        # check 6: random states
COUNTEREXAMPLE_SPAN = 1.0  # check 7: q2 in [-COUNTEREXAMPLE_SPAN, COUNTEREXAMPLE_SPAN]


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one verification check.

    kind "max_below": passes when max_abs_residual <= tol (residuals of
    identities). kind "min_above": max_abs_residual holds a quantity
    that must exceed tol (smallest eigenvalue, counterexample
    magnitude) and passes when it is strictly greater. control is the
    (label, value, tol) of a second route or soundness control the check
    runs, if any; the report fails unless value <= tol (nan fails).
    """

    name: str
    grid: str
    max_abs_residual: float
    arg_at_max: tuple
    tol: float
    kind: str = "max_below"
    details: dict = field(default_factory=dict)
    control: tuple = ()

    @property
    def sound(self) -> bool:
        return not self.control or self.control[1] <= self.control[2]

    @property
    def passed(self) -> bool:
        if self.kind == "min_above":
            return self.sound and self.max_abs_residual > self.tol
        return self.sound and self.max_abs_residual <= self.tol

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "grid": self.grid,
            "max_abs_residual": self.max_abs_residual,
            "arg_at_max": list(self.arg_at_max),
            "tol": self.tol,
            "kind": self.kind,
            "pass": self.passed,
            "details": self.details,
        }


def _max_and_arg(res: np.ndarray, grid: np.ndarray) -> tuple[float, float]:
    """max(res) and the grid point of its first occurrence (0.0 when res is all 0)."""
    k = int(np.argmax(res))
    return float(res[k]), float(grid[k]) if res[k] > 0.0 else 0.0


def kinetic_matching(params: RobotParams, gains: ControllerGains) -> ResidualReport:
    """Entrywise residual of the matrix matching equation over a q2 grid.

    Also reports the three scalar rows (the two actuated ones defining
    alpha and the unactuated ODE) separately in details. A second route
    replaces every analytic q2-derivative with central differences (step
    FD_H); its matrix residual goes into details and must stay at or
    below TOL_FD, or the report fails.
    """
    q2 = grid = np.linspace(-Q2_SPAN, Q2_SPAN, GRID_POINTS)
    k = controller.coeffs(params, gains)
    p2_, p3_, p4_, ps4 = k.p2, k.p3, k.p4, k.ps4
    s, c = np.sin(q2), np.cos(q2)
    sh = controller.shaping(k, s, c)
    m11, ps1, ps2, ps3 = sh.m11, sh.ps1, sh.ps2, sh.ps3

    def matrix(a1, a2, dd2, dd4):
        rows = controller.kinetic_matching_rows(k, s, c, ps1, ps2, ps3, dd2, dd4, a1, a2)
        return np.max(np.abs(rows), axis=0)

    up = controller.shaping(k, np.sin(q2 + FD_H), np.cos(q2 + FD_H))
    dn = controller.shaping(k, np.sin(q2 - FD_H), np.cos(q2 - FD_H))
    fps1, fps2, fd2, fd4 = ((getattr(up, f) - getattr(dn, f)) / (2 * FD_H)
                            for f in ("ps1", "ps2", "d2", "d4"))
    fd = matrix(*controller.alpha_from_psi(k, s, c, m11, ps1, ps2, ps3, fps1, fps2), fd2, fd4)
    dps1, dps2, dps3, dd2, dd4 = sh.dps1, sh.dps2, sh.dps3, sh.dd2, sh.dd4
    # scalar rows with the derivative brackets expanded by product rule
    dm11 = 2.0 * p2_ * s * c
    db1 = dps1 * m11 + ps1 * dm11 + p3_ * (dps2 * c - ps2 * s)
    al1 = (2.0 * p3_ * ps1 * ps2 * s - 2.0 * p2_ * ps1 * ps1 * s * c
           + ps4 * db1 - 2.0 * sh.a1)
    db2 = p3_ * (dps1 * c - ps1 * s) + p4_ * dps2
    al2 = (p3_ * s * (ps2 * ps3 + ps1 * ps4) - 2.0 * p2_ * ps1 * ps3 * s * c
           + ps4 * db2 - sh.a2)
    db4 = p3_ * (dps3 * c - ps3 * s)
    ode = (-2.0 * p2_ * ps3 * ps3 * s * c + 2.0 * p3_ * ps3 * ps4 * s
           + ps4 * db4)
    worst, arg = _max_and_arg(matrix(sh.a1, sh.a2, dd2, dd4), grid)
    fd_worst = float(fd.max())
    return ResidualReport(
        name="kinetic_matching", grid=f"{GRID_POINTS} points on [-{Q2_SPAN}, {Q2_SPAN}]",
        max_abs_residual=worst, arg_at_max=(arg,), tol=TOL_ANALYTIC,
        control=("fd control", fd_worst, TOL_FD),
        details={"al1": float(np.abs(al1).max()), "al2": float(np.abs(al2).max()),
                 "ode": float(np.abs(ode).max()), "fd_max_abs_residual": fd_worst,
                 "fd_tol": TOL_FD})


def potential_matching(params: RobotParams, gains: ControllerGains) -> ResidualReport:
    """|psi3 dVd/dq1 + psi4 dVd/dq2 + p5 sin(q2)| over a (q1, q2) grid; the identity is exact.

    grad Vd is the complex step Im Vd(x + i CS_H) / CS_H, in q1 and in q2, of
    controller._vd (the Vd that simulate records, z offset included): exact to
    rounding, with no difference to cancel (Squire & Trapp, SIAM Review 40(1),
    1998). Unlike _vd_gradient it does not assume dz/dq2 = psi3/psi40, with which
    the row vanishes for any z offset. The control is the largest difference from
    _vd_gradient, which control_terms uses; it must stay at or below TOL_EXACT.
    """
    n = PLANAR_POINTS
    q1 = np.linspace(-Q1_SPAN, Q1_SPAN, n)[:, None]
    q2 = np.linspace(-Q2_SPAN, Q2_SPAN, n)[None, :]
    s, c, k = np.sin(q2), np.cos(q2), controller.coeffs(params, gains)
    ps3 = controller.shape_terms(k, s, c)[2]
    q2h = q2 + CS_H * 1j
    dv1 = controller._vd(k, q1 + CS_H * 1j, s, c, np.arctan).imag / CS_H
    dv2 = controller._vd(k, q1, np.sin(q2h), np.cos(q2h), np.arctan).imag / CS_H
    res = np.abs(controller.potential_matching_row(k, s, ps3, dv1, dv2))
    i, j = np.unravel_index(np.argmax(res), res.shape)
    q1_spread = float(np.max(res.max(axis=0) - res.min(axis=0)))
    g1, g2 = controller._vd_gradient(k, q1 + controller._z_offset(k, s, np.arctan), s, ps3)
    diff = float(max(np.max(np.abs(g1 - dv1)), np.max(np.abs(g2 - dv2))))
    return ResidualReport(
        name="potential_matching",
        grid=f"{n}x{n} on [-{Q1_SPAN},{Q1_SPAN}]x[-{Q2_SPAN},{Q2_SPAN}]",
        max_abs_residual=float(res[i, j]),
        arg_at_max=(float(q1[i, 0]), float(q2[0, j])), tol=TOL_EXACT,
        control=("closed-form gradient control", diff, TOL_EXACT),
        details={"q1_dependence_of_residual": q1_spread,
                 "closed_form_gradient_max_diff": diff, "closed_form_gradient_tol": TOL_EXACT})


def _block_points(n: int, start: int) -> np.ndarray:
    """Points start .. start + SCAN_BLOCK - 1 (at most n) of linspace(0, pi/2, n+1), n >= 1,
    bit-identical to linspace's: point i is i * ((pi/2)/n) and point n is pi/2."""
    b = np.arange(start, min(start + SCAN_BLOCK, n + 1), dtype=float) * (math.pi / 2 / n)
    if start + SCAN_BLOCK > n:
        b[-1] = math.pi / 2
    return b


class _Range:
    """[lo, hi] of a float expression over each of a set of blocks, lo and hi ndarrays.

    + - * / take the least and greatest of the four corner results, each rounded to
    nearest as the point-by-point scan rounds. The exact result of a point's operands
    lies between the exact corners, and rounding is monotone, so every double the scan
    computes in a block lies in its [lo, hi]. A divisor range holding 0 gives
    [-inf, inf]; a nan corner makes that bound nan (np.minimum and np.maximum pass nan
    on), and a nan lo is never > 0. A float operand is the range [x, x]. Any numpy
    function of a range raises TypeError (__array_ufunc__ = None): only the four
    operations are bounded.
    """

    __slots__ = ("lo", "hi")
    __array_ufunc__ = None

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def _corners(self, other, op, divide=False):
        if not isinstance(other, _Range):
            other = _Range(other, other)
        ends = [op(a, b) for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
        lo = np.minimum(np.minimum(ends[0], ends[1]), np.minimum(ends[2], ends[3]))
        hi = np.maximum(np.maximum(ends[0], ends[1]), np.maximum(ends[2], ends[3]))
        if divide:
            zero = (other.lo <= 0.0) & (other.hi >= 0.0)
            lo, hi = np.where(zero, -math.inf, lo), np.where(zero, math.inf, hi)
        return _Range(lo, hi)

    def __add__(self, other):
        return self._corners(other, np.add)

    def __sub__(self, other):
        return self._corners(other, np.subtract)

    def __mul__(self, other):
        return self._corners(other, np.multiply)

    def __truediv__(self, other):
        return self._corners(other, np.divide, divide=True)

    __radd__, __rmul__ = __add__, __mul__   # IEEE + and * commute

    def __rsub__(self, other):
        return _Range(other, other) - self

    def __rtruediv__(self, other):
        return _Range(other, other) / self


def _sin_of(c):
    """s = sqrt(1 - c c), sin q2 on [0, pi/2] from c = cos q2: per point on an ndarray,
    and on a _Range per bound (np.sqrt is monotone and correctly rounded)."""
    t = 1.0 - c * c
    if isinstance(t, _Range):
        return _Range(np.sqrt(t.lo), np.sqrt(t.hi))
    return np.sqrt(t)


def _block_bounds(k: controller.Coeffs, value, n: int) -> tuple[_Range, np.ndarray]:
    """value(k, s, c) bounded per SCAN_BLOCK block after block 0 (n >= SCAN_BLOCK) without
    forming its points, and those blocks' last points (bit-identical to _block_points').
    c = cos q2 falls on [0, pi/2], so a block's c lies in [np.cos(last) - COS_ERR,
    np.cos(first) + COS_ERR], and s is formed from it as the scan forms it (_sin_of).
    Block 0 has no bounds: its c reaches 1 + COS_ERR, where 1 - c c < 0 and lo is nan."""
    step, starts = math.pi / 2 / n, np.arange(SCAN_BLOCK, n + 1, SCAN_BLOCK)
    last = (np.minimum(starts + SCAN_BLOCK, n + 1) - 1) * step
    last[-1] = math.pi / 2
    with np.errstate(all="ignore"):
        c = _Range(np.cos(last) - COS_ERR, np.cos(starts * step) + COS_ERR)
        return value(k, _sin_of(c), c), last


def _sign_scan(params: RobotParams, gains: ControllerGains, n: int,
               value) -> tuple[int, float, float]:
    """(i, q2[i - 1], q2[i]) for the first point i of q2 = linspace(0, pi/2, n+1) where
    value(k, s, c) is not > 0 (i = n + 1 if none), found block by block of SCAN_BLOCK points;
    nan fails. A point outside the grid is nan.

    Block 0 is scanned point by point (_block_points). A later block whose lower bound
    (_block_bounds) is > 0 is passed over without forming its points; every other one
    is scanned point by point too, and a grid of one block takes no bounds. One trig per
    point: s = sqrt(1 - c c) (_sin_of), which is sin q2 on [0, pi/2], where sin q2 >= 0.
    The closed forms scanned (md_d4, shape_terms) read s only as s * s, so s differs
    from np.sin's by rounding alone."""
    k, before = controller.coeffs(params, gains), math.nan
    sure = last = ()
    if n >= SCAN_BLOCK:  # blocks after block 0
        bounds, last = _block_bounds(k, value, n)
        sure = bounds.lo > 0.0
    for j, start in enumerate(range(0, n + 1, SCAN_BLOCK)):
        if j and sure[j - 1]:
            before = float(last[j - 1])
            continue
        b = _block_points(n, start)
        c = np.cos(b)
        bad = np.flatnonzero(~(value(k, _sin_of(c), c) > 0.0))
        if bad.size:
            i = int(bad[0])
            return start + i, float(b[i - 1]) if i else before, float(b[i])
        before = float(b[-1])
    return n + 1, before, math.nan


def region_scan(params: RobotParams, gains: ControllerGains,
                cells: int = REGION_CELLS) -> float:
    """Brute-force estimate of the d4 > 0 half-width on [0, pi/2].

    Returns the midpoint between the last positive and first
    nonpositive grid cell; d4 is even and strictly decreasing in |q2|
    there, so the crossing is unique.
    """
    i, before, at = _sign_scan(params, gains, cells,
                               lambda k, s, c: controller.md_d4(k, s, c)[1])
    if i == 0:
        raise EmptyRegion(f"d4(0) = {controller.d4_at_origin(params, gains):.6g} <= 0")
    return before if i > cells else 0.5 * (before + at)


def region_report(params: RobotParams, gains: ControllerGains,
                  cells: int = REGION_CELLS) -> ResidualReport:
    """Closed-form rho against the sign-scan estimate, within one cell."""
    rho = controller.region_rho(params, gains)
    scan = region_scan(params, gains, cells)
    cell = math.pi / 2 / cells
    return ResidualReport(
        name="region_rho", grid=f"{cells} cells on [0, pi/2]",
        max_abs_residual=abs(rho - scan), arg_at_max=(rho,), tol=cell,
        details={"rho_formula": rho, "rho_scan": scan, "cell": cell})


def _pd_endpoint(params: RobotParams, gains: ControllerGains, n: int = PD_CELLS) -> float:
    """Last of n cells on [0, pi/2] before det Md > 0 first fails (d1 = k2 > 0 by
    ControllerGains); nan when Md(0) is not positive definite."""
    def det_md(k, s, c):
        _, _, _, d2, d4, _ = controller.shape_terms(k, s, c)
        return controller._md_det(k, d2, d4)

    return _sign_scan(params, gains, n, det_md)[1]


def md_definiteness_scan(params: RobotParams, gains: ControllerGains) -> ResidualReport:
    """Maximal symmetric interval around 0 with d1 > 0 and det Md > 0.

    Its endpoint can only fall short of rho (the det condition is
    stricter than d4 > 0); the report fails if it exceeds rho by more
    than a grid cell, or with a nan residual when Md(0) is not PD (no interval).
    """
    rho = controller.region_rho(params, gains)
    endpoint = _pd_endpoint(params, gains, MD_CELLS)
    cell = math.pi / 2 / MD_CELLS
    overshoot = math.nan if math.isnan(endpoint) else max(0.0, endpoint - rho)
    k = controller.coeffs(params, gains)
    _, _, _, d2, d4, _ = controller.shape_terms(k, 0.0, 1.0)  # q2 = 0
    eigs = np.linalg.eigvalsh(np.array([[gains.k2, d2], [d2, d4]]))
    return ResidualReport(
        name="md_definiteness", grid=f"{MD_CELLS} cells on [0, pi/2]",
        max_abs_residual=overshoot, arg_at_max=(endpoint,), tol=cell,
        details={"pd_endpoint": endpoint, "rho": rho,
                 "md_at_0_eigs": [float(e) for e in eigs],
                 "pd_at_0": bool(eigs.min() > 0.0)})


def hessian_fd(k: controller.Coeffs, q1: float, q2: float) -> np.ndarray:
    """Central-difference Hessian of Vd at step HESSIAN_FD_H, oracle for the analytic one."""
    h = HESSIAN_FD_H

    def v(q1, q2):
        return controller._vd(k, q1, math.sin(q2), math.cos(q2))

    h11 = (v(q1 + h, q2) - 2 * v(q1, q2) + v(q1 - h, q2)) / h ** 2
    h22 = (v(q1, q2 + h) - 2 * v(q1, q2) + v(q1, q2 - h)) / h ** 2
    h12 = (v(q1 + h, q2 + h) - v(q1 + h, q2 - h)
           - v(q1 - h, q2 + h) + v(q1 - h, q2 - h)) / (4 * h ** 2)
    return np.array([[h11, h12], [h12, h22]])


def hessian_vd_check(params: RobotParams, gains: ControllerGains) -> ResidualReport:
    """Min eigenvalue of the analytic Vd Hessian at the upright equilibrium.

    Passes when strictly positive and the finite-difference Hessian
    (hessian_fd) agrees: its largest entrywise difference, scaled by
    max(1, max |H|), must stay at or below TOL_FD. details carry that
    difference and the gradient norm at q* (must vanish).
    """
    q1, q2 = q_star = (0.0, 0.0)
    k, s = controller.coeffs(params, gains), math.sin(q2)
    hess = controller.shaped_potential_hessian(k, q1, q2)
    ps3 = controller.shape_terms(k, s, math.cos(q2))[2]
    grad = controller._vd_gradient(k, q1 + controller._z_offset(k, s), s, ps3)
    eigs = np.linalg.eigvalsh(hess)
    fd_diff = float(np.max(np.abs(hess - hessian_fd(k, q1, q2))))
    return ResidualReport(
        name="hessian_vd", grid="point check at q*=[0,0]",
        max_abs_residual=float(eigs.min()), arg_at_max=q_star, tol=0.0,
        kind="min_above",
        control=("fd control", fd_diff / max(1.0, float(np.max(np.abs(hess)))), TOL_FD),
        details={"hessian": [[float(x) for x in row] for row in hess],
                 "grad_norm_at_qstar": float(np.max(np.abs(grad))),
                 "fd_max_diff": fd_diff, "fd_tol": TOL_FD})


def _stack2x2(n: int, a11, a12, a21, a22) -> np.ndarray:
    """(n, 2, 2) stack of [[a11, a12], [a21, a22]]; each entry an (n,) array or a float."""
    out = np.empty((n, 2, 2))
    out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = a11, a12, a21, a22
    return out


def _trig(q2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sin q2, cos q2) per element with math, as the float route takes them (np.sin's
    and np.cos's kernels vary by CPU)."""
    values = q2.tolist()
    return (np.fromiter(map(math.sin, values), float, len(values)),
            np.fromiter(map(math.cos, values), float, len(values)))


def closed_loop_rhs_direct(params: RobotParams, gains: ControllerGains,
                           q1: np.ndarray, s: np.ndarray, c: np.ndarray, p1: np.ndarray,
                           p2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Target-form vector field at N states (q1, q2, p1, p2), as (N, 2) qdot and pdot,
    given s, c = sin q2, cos q2.

    Assembles [[0, M^{-1}Md], [-Md M^{-1}, J2 - G Kv G^T]] grad Hd
    literally, on stacked (N, 2, 2) M, Md and Psi with one batched
    np.linalg.solve for M^{-1}Md; an oracle independent by route of
    control_terms + open_loop_rhs_flat, which must agree with it
    identically. s and c are taken per state with math (_trig), and so is the
    z offset's atan, as on the float route.
    """
    n, k = s.shape[0], controller.coeffs(params, gains)
    z = q1 + controller._z_offset(k, s, controller._atan)
    sh = controller.shaping(k, s, c)
    m11, m12, m22 = _inertia(params, s, c)
    m = _stack2x2(n, m11, m12, m12, m22)
    md = _stack2x2(n, gains.k2, sh.d2, sh.d2, sh.d4)
    psi = _stack2x2(n, sh.ps1, sh.ps2, sh.ps3, -gains.psi40)
    i11, i12, i22 = _inv2(gains.k2, sh.d2, sh.d4)
    pt1, pt2 = i11 * p1 + i12 * p2, i12 * p1 + i22 * p2
    gq = np.stack(controller._hd_gradient(k, z, s, sh.ps3, sh.dd2, sh.dd4, pt1, pt2), axis=1)
    pt = np.stack([pt1, pt2], axis=1)[:, :, None]
    alpha = np.stack([sh.a1, sh.a2], axis=1)[:, :, None]
    j2s = (pt.transpose(0, 2, 1) @ alpha)[:, 0, 0]
    j2 = _stack2x2(n, 0.0, j2s, -j2s, 0.0)
    qdot = np.linalg.solve(m, md) @ pt
    pdot = -psi @ gq[:, :, None] + (j2 - gains.kv * (G @ G.T)) @ pt
    return qdot[:, :, 0], pdot[:, :, 0]


def closed_loop_equivalence(params: RobotParams, gains: ControllerGains,
                            n_samples: int = SAMPLES, seed: int = 0) -> ResidualReport:
    """Plant + feedback torque against the target-form vector field.

    Samples random in-region states and compares the open-loop RHS
    driven by the control law with the directly assembled shaped
    dynamics; the matching construction makes them identical. All samples
    are one array pass; each state's draws (q1, q2, p1, p2) are those of
    four successive rng.uniform calls. The residual is the largest component
    difference; a non-finite one is reported (and fails) at its first sample;
    all are nan when Md(0) is not PD.
    """
    rng, k = np.random.default_rng(seed), controller.coeffs(params, gains)
    q2_max = 0.99 * _pd_endpoint(params, gains)
    low = np.array([-3.0, -q2_max, -2.0, -2.0])
    x = low + (-low - low) * rng.random((n_samples, 4))
    # the plant under the feedback torque, on arrays through the defs of the float
    # route simulate.run takes: element by element its doubles
    q1, q2, p1, p2 = x.T
    s, c = _trig(q2)
    u, _ = controller.control_terms_array(k, q1, q2, s, c, p1, p2)
    ctrl = np.stack(model.open_loop_rhs_array(params, s, c, p1, p2, u, 0.0), axis=1)
    qd_d, pd_d = closed_loop_rhs_direct(params, gains, q1, s, c, p1, p2)
    res = np.abs(ctrl - np.concatenate([qd_d, pd_d], axis=1)).max(axis=1)
    i = int(np.argmax(res))  # the first nan, else the first maximum
    worst = float(res[i])   # no location when every residual is 0, as in _max_and_arg
    arg = (0.0, 0.0, 0.0, 0.0) if worst <= 0.0 else tuple(x[i].tolist())
    return ResidualReport(
        name="closed_loop_equivalence",
        grid=f"{n_samples} random states, |q2| < {q2_max:.4g}, seed {seed}",
        max_abs_residual=worst, arg_at_max=arg, tol=TOL_EQUIV)


@dataclass(frozen=True)
class CounterexampleSpec:
    """Constants of the prior-work ODE and its claimed solution."""

    frak_k1: float = 1.0
    frak_k2: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        for name in ("frak_k1", "frak_k2", "b"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"counterexample constant {name} must be > 0")


def claimed_m22(spec: CounterexampleSpec, q2):
    """The solution claimed in prior work (vectorized)."""
    q2 = np.asarray(q2, dtype=float)
    return (2.0 * spec.frak_k1 / (spec.b * spec.b * np.cos(q2) ** 2)
            + spec.frak_k1 / (spec.frak_k2 * spec.frak_k2 + np.sin(q2) ** 2))


def _claimed_m22_derivative(spec: CounterexampleSpec, q2):
    q2 = np.asarray(q2, dtype=float)
    s, c = np.sin(q2), np.cos(q2)
    return (4.0 * spec.frak_k1 * s / (spec.b * spec.b * c ** 3)
            - spec.frak_k1 * np.sin(2.0 * q2) / (spec.frak_k2 * spec.frak_k2 + s ** 2) ** 2)


def _ode_residual(spec: CounterexampleSpec, q2, m22, dm22):
    """R = k1 m22' + sin(2 q2) m22^2 + 4 m22 - 2 k1 / cos^2(q2)."""
    q2 = np.asarray(q2, dtype=float)
    return (spec.frak_k1 * dm22 + np.sin(2.0 * q2) * m22 ** 2
            + 4.0 * m22 - 2.0 * spec.frak_k1 / np.cos(q2) ** 2)


def _integrated_solution_residual(spec: CounterexampleSpec, span: float = COUNTEREXAMPLE_SPAN,
                                  h: float = SOUNDNESS_H) -> float:
    """Soundness control: run the checker on a true ODE solution.

    Integrates the ODE itself with RK4 at step h from the claimed
    solution's value at 0, forward and backward over span, and evaluates
    the residual with 5-point finite-difference derivatives on each stored
    grid, so the check does not reuse the ODE right-hand side as its own
    derivative. A solution that blows up gives a nan residual (which
    fails), without a warning.

    The right-hand side is (a m^2 - 4 m + b) / frak_k1 with a = -sin 2q and
    b = 2 frak_k1 / cos^2 q; an RK4 step takes (a, b) at its midpoint, which
    k2 and k3 share, and at its end, which is the next step's start. One
    loop steps both directions: the backward grid is exactly -q (sums
    round sign-symmetrically), and sin is odd and cos even bit for bit, so
    one sin 2q and one b per point serve both, the forward stages reading
    a = -sin 2q and the backward a = sin 2q. The backward update m - half*k
    gives the doubles of m + (-half)*k.
    """
    fk, sin, cos = float(spec.frak_k1), math.sin, math.cos
    two_fk = 2.0 * fk
    n = int(round(span / h))
    with np.errstate(divide="ignore", over="ignore"):
        m0 = float(claimed_m22(spec, 0.0))
    half, sixth = 0.5 * h, h / 6.0
    fwd, bwd = array("d", [m0]), array("d", [m0])
    append, append_b = fwd.append, bwd.append
    q, m, m_b = 0.0, m0, m0
    sn, b = sin(2.0 * q), two_fk / cos(q) ** 2
    for _ in range(n):
        qm = q + half
        snm, bm = sin(2.0 * qm), two_fk / cos(qm) ** 2
        q += h
        k1 = (-sn * m * m - 4.0 * m + b) / fk
        x = m + half * k1
        k2 = (-snm * x * x - 4.0 * x + bm) / fk
        x = m + half * k2
        k3 = (-snm * x * x - 4.0 * x + bm) / fk
        x = m + h * k3
        j1 = (sn * m_b * m_b - 4.0 * m_b + b) / fk
        y = m_b - half * j1
        j2 = (snm * y * y - 4.0 * y + bm) / fk
        y = m_b - half * j2
        j3 = (snm * y * y - 4.0 * y + bm) / fk
        y = m_b - h * j3
        sn, b = sin(2.0 * q), two_fk / cos(q) ** 2
        m += sixth * (k1 + 2.0 * k2 + 2.0 * k3 + (-sn * x * x - 4.0 * x + b) / fk)
        m_b -= sixth * (j1 + 2.0 * j2 + 2.0 * j3 + (sn * y * y - 4.0 * y + b) / fk)
        append(m)
        append_b(m_b)
    rs = []
    for hh, ms in ((h, fwd), (-h, bwd)):
        # the q the loop stepped through: add.accumulate sums left to right, as q += hh
        qs, ms = np.concatenate(([0.0], np.cumsum(np.full(n, hh)))), np.frombuffer(ms)
        with np.errstate(invalid="ignore", over="ignore"):
            dm = (-ms[4:] + 8 * ms[3:-1] - 8 * ms[1:-3] + ms[:-4]) / (12.0 * (qs[1] - qs[0]))
            rs.append(np.abs(_ode_residual(spec, qs[2:-2], ms[2:-2], dm)))
    return float(np.max(np.concatenate(rs)))


def remark2_residual(spec: CounterexampleSpec) -> ResidualReport:
    """Nonvanishing residual of the claimed prior-work solution.

    max |R| on GRID_POINTS points of [-COUNTEREXAMPLE_SPAN, COUNTEREXAMPLE_SPAN] must exceed
    1e-2 (the claimed m22 does not solve the ODE), and the soundness control in
    details must stay at or below 1e-6 on a genuinely integrated solution (nan
    fails). Extreme constants overflow the closed forms to inf and nan, which fail,
    without a warning.
    """
    span = COUNTEREXAMPLE_SPAN
    grid = np.linspace(-span, span, GRID_POINTS)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = _ode_residual(spec, grid, claimed_m22(spec, grid),
                          _claimed_m22_derivative(spec, grid))
        r_at_0 = float(_ode_residual(
            spec, 0.0, claimed_m22(spec, 0.0), _claimed_m22_derivative(spec, 0.0)))
    k = int(np.argmax(np.abs(r)))
    control = _integrated_solution_residual(spec)
    return ResidualReport(
        name="remark2_counterexample", grid=f"{GRID_POINTS} points on [-{span}, {span}]",
        max_abs_residual=float(np.max(np.abs(r))), arg_at_max=(float(grid[k]),),
        tol=1e-2, kind="min_above",
        control=("soundness control", control, SOUNDNESS_TOL),
        details={"R_at_0": r_at_0, "integrated_solution_max_residual": control,
                 "soundness_tol": SOUNDNESS_TOL,
                 "constants": {"frak_k1": spec.frak_k1, "frak_k2": spec.frak_k2,
                               "b": spec.b}})


@dataclass(frozen=True)
class VerifyOptions:
    """What a config sets for the verification suite: check 6's sampler seed and
    check 7's counterexample constants. The grid sizes are this module's constants."""

    seed: int = 0
    counterexample: CounterexampleSpec = CounterexampleSpec()

    @property
    def scan_cells(self) -> int:
        """REGION_CELLS, read-only: bench/run.py reads it to size its region_report
        scan. It goes with the benchmark re-pin (ROADMAP item 5)."""
        return REGION_CELLS


def verify_all(params: RobotParams, gains: ControllerGains,
               opts: VerifyOptions = VerifyOptions()) -> list[ResidualReport]:
    """All seven checks on their fixed grids, fixed order; the CLI renders one row each."""
    return [
        kinetic_matching(params, gains),
        potential_matching(params, gains),
        region_report(params, gains),
        md_definiteness_scan(params, gains),
        hessian_vd_check(params, gains),
        closed_loop_equivalence(params, gains, seed=opts.seed),
        remark2_residual(opts.counterexample),
    ]
