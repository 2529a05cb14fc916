"""Numeric verification of the identities behind the controller design.

Every claim the closed-loop stability argument rests on is checked on
grids or random samples: the kinetic matching equation and its three
scalar rows, the Riccati solution, the potential matching identity, the
positive-definiteness region of Md, the shaped-potential Hessian, the
equivalence of the assembled closed loop with its target form, and the
prior-work counterexample. The closed forms are the controller's own;
each identity is checked through a route independent of them (finite
differences, alpha_from_matching, a linear solve, sign scans).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import controller
from .controller import ControllerGains, EmptyRegion
from .model import RobotParams, State, inertia, open_loop_rhs
from .simulate import closed_loop_rhs_direct

TOL_ANALYTIC = 1e-8   # identities assembled from analytic derivatives
TOL_FD = 1e-5         # identities with finite-difference derivatives
TOL_EXACT = 1e-10     # exact algebraic identities
TOL_EQUIV = 1e-9      # dual-formulation closed-loop agreement
FD_H = 1e-6


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one verification check.

    kind "max_below": passes when max_abs_residual <= tol (residuals of
    identities). kind "min_above": max_abs_residual holds a quantity
    that must exceed tol (smallest eigenvalue, counterexample
    magnitude) and passes when it is strictly greater.
    """

    name: str
    grid: str
    max_abs_residual: float
    arg_at_max: tuple
    tol: float
    kind: str = "max_below"
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        if self.kind == "min_above":
            return self.max_abs_residual > self.tol
        return self.max_abs_residual <= self.tol

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


def kinetic_matching(params: RobotParams, gains: ControllerGains,
                     n: int = 1000, span: float = 1.5,
                     derivatives: str = "analytic",
                     psi3_offset: float = 0.0) -> ResidualReport:
    """Entrywise residual of the matrix matching equation over a q2 grid.

    Also reports the three scalar rows (the two actuated ones defining
    alpha and the unactuated ODE) separately in details. derivatives =
    "fd" replaces every analytic q2-derivative with central
    differences, giving an independent check at a coarser tolerance.
    psi3_offset shifts psi3 in the assembly only (detector test hook).
    """
    if derivatives not in ("analytic", "fd"):
        raise ValueError("derivatives must be 'analytic' or 'fd'")
    fd = derivatives == "fd"
    h = FD_H
    p2_, p3_, p4_ = params.p2, params.p3, params.p4
    ps4 = -gains.psi40
    grid = np.linspace(-span, span, n)
    worst = np.zeros(4)   # matrix, al1, al2, ode
    arg = np.zeros(4)
    for q2 in grid:
        s, c = math.sin(q2), math.cos(q2)
        m11 = params.p1 + p2_ * s * s
        dm11 = 2.0 * p2_ * s * c
        ps1, ps2 = controller.psi_row1(params, gains, q2)
        ps3 = controller.psi3(params, gains, q2) + psi3_offset
        if fd:
            dps1, dps2 = controller.psi_row1_derivative_fd(params, gains, q2, h)
            _, d2p, d4p = controller.desired_inertia_entries(params, gains, q2 + h)
            _, d2m, d4m = controller.desired_inertia_entries(params, gains, q2 - h)
            dd2, dd4 = (d2p - d2m) / (2 * h), (d4p - d4m) / (2 * h)
            dps3 = (controller.psi3(params, gains, q2 + h)
                    - controller.psi3(params, gains, q2 - h)) / (2 * h)
        else:
            dps1, dps2 = controller.psi_row1_derivative(params, gains, q2)
            _, dd2, dd4 = controller.desired_inertia_entries_derivative(params, gains, q2)
            dps3 = controller.psi3_derivative(params, gains, q2)
        a1, a2 = controller.alpha_from_psi(params, gains, s, c, m11,
                                           ps1, ps2, ps3, dps1, dps2)
        rows = controller.kinetic_matching_rows(params, gains, s, c, ps1, ps2, ps3,
                                                dd2, dd4, a1, a2)
        # scalar rows with the derivative brackets expanded by product rule
        db1 = dps1 * m11 + ps1 * dm11 + p3_ * (dps2 * c - ps2 * s)
        al1 = (2.0 * p3_ * ps1 * ps2 * s - 2.0 * p2_ * ps1 * ps1 * s * c
               + ps4 * db1 - 2.0 * a1)
        db2 = p3_ * (dps1 * c - ps1 * s) + p4_ * dps2
        al2 = (p3_ * s * (ps2 * ps3 + ps1 * ps4) - 2.0 * p2_ * ps1 * ps3 * s * c
               + ps4 * db2 - a2)
        db4 = p3_ * (dps3 * c - ps3 * s)
        ode = (-2.0 * p2_ * ps3 * ps3 * s * c + 2.0 * p3_ * ps3 * ps4 * s
               + ps4 * db4)
        vals = (max(map(abs, rows)), abs(al1), abs(al2), abs(ode))
        for k, v in enumerate(vals):
            if v > worst[k]:
                worst[k], arg[k] = v, q2
    tol = TOL_FD if fd else TOL_ANALYTIC
    return ResidualReport(
        name="kinetic_matching", grid=f"{n} points on [-{span}, {span}]",
        max_abs_residual=float(worst[0]), arg_at_max=(float(arg[0]),), tol=tol,
        details={"al1": float(worst[1]), "al2": float(worst[2]),
                 "ode": float(worst[3]), "derivatives": derivatives})


def riccati_residual(params: RobotParams, gains: ControllerGains,
                     n: int = 1000, span: float = 1.5) -> ResidualReport:
    """Residual of psi3' = -tan(q2) psi3 - (2 p2/(p3 psi40)) sin(q2) psi3^2."""
    grid = np.linspace(-span, span, n)
    coef = 2.0 * params.p2 / (params.p3 * gains.psi40)
    worst, arg = 0.0, 0.0
    for q2 in grid:
        ps3 = controller.psi3(params, gains, q2)
        r = (controller.psi3_derivative(params, gains, q2)
             + math.tan(q2) * ps3 + coef * math.sin(q2) * ps3 * ps3)
        if abs(r) > worst:
            worst, arg = abs(r), q2
    return ResidualReport(
        name="riccati_solution", grid=f"{n} points on [-{span}, {span}]",
        max_abs_residual=worst, arg_at_max=(arg,), tol=TOL_ANALYTIC)


def potential_matching(params: RobotParams, gains: ControllerGains,
                       n: int = 100, q1_span: float = 3.0, q2_span: float = 1.5,
                       kappa_skew: float = 0.0) -> ResidualReport:
    """|psi3 dVd/dq1 + psi4 dVd/dq2 + p5 sin(q2)| over a (q1, q2) grid.

    Assembles grad Vd in vectorized numpy from the controller's psi3 and
    z offset. kappa_skew perturbs kappa in the dVd/dq2 component only
    (sensitivity hook); the identity is exact at kappa_skew = 0.
    """
    q1 = np.linspace(-q1_span, q1_span, n)[:, None]
    q2 = np.linspace(-q2_span, q2_span, n)[None, :]
    s, c = np.sin(q2), np.cos(q2)
    ps3 = controller.shape_terms(params, gains, s, c)[3]
    z = q1 + np.array([[controller.potential_offset(params, gains, v) for v in q2[0]]])
    dv1 = gains.kappa * z
    dv2 = ((gains.kappa + kappa_skew) * z * ps3 / gains.psi40
           + params.p5 / gains.psi40 * s)
    res = np.abs(ps3 * dv1 - gains.psi40 * dv2 + params.p5 * s)
    i, j = np.unravel_index(np.argmax(res), res.shape)
    q1_spread = float(np.max(res.max(axis=0) - res.min(axis=0)))
    return ResidualReport(
        name="potential_matching",
        grid=f"{n}x{n} on [-{q1_span},{q1_span}]x[-{q2_span},{q2_span}]",
        max_abs_residual=float(res[i, j]),
        arg_at_max=(float(q1[i, 0]), float(q2[0, j])), tol=TOL_EXACT,
        details={"q1_dependence_of_residual": q1_spread})


SCAN_BLOCK = 1 << 14  # points per block: the scan's temporaries stay small and in cache


def _d4_array(params: RobotParams, gains: ControllerGains, q2: np.ndarray) -> np.ndarray:
    return np.concatenate([controller.shape_terms(params, gains, np.sin(b), np.cos(b))[5]
                           for b in np.split(q2, range(SCAN_BLOCK, q2.size, SCAN_BLOCK))])


def region_scan(params: RobotParams, gains: ControllerGains,
                cells: int = 10 ** 6) -> float:
    """Brute-force estimate of the d4 > 0 half-width on [0, pi/2].

    Returns the midpoint between the last positive and first
    nonpositive grid cell; d4 is even and strictly decreasing in |q2|
    there, so the crossing is unique.
    """
    q2 = np.linspace(0.0, math.pi / 2, cells + 1)
    d4 = _d4_array(params, gains, q2)
    if d4[0] <= 0.0:
        raise EmptyRegion(f"d4(0) = {d4[0]:.6g} <= 0")
    bad = np.nonzero(d4 <= 0.0)[0]
    if bad.size == 0:
        return math.pi / 2
    k = int(bad[0])
    return 0.5 * float(q2[k - 1] + q2[k])


def region_report(params: RobotParams, gains: ControllerGains,
                  cells: int = 10 ** 6) -> ResidualReport:
    """Closed-form rho against the sign-scan estimate, within one cell."""
    rho = controller.region_rho(params, gains)
    scan = region_scan(params, gains, cells)
    cell = math.pi / 2 / cells
    return ResidualReport(
        name="region_rho", grid=f"{cells} cells on [0, pi/2]",
        max_abs_residual=abs(rho - scan), arg_at_max=(rho,), tol=cell,
        details={"rho_formula": rho, "rho_scan": scan, "cell": cell})


def _pd_endpoint(params: RobotParams, gains: ControllerGains, n: int = 4000) -> float:
    """Last of n cells on [0, pi/2] before d1 > 0 and det Md > 0 first fail."""
    q2 = np.linspace(0.0, math.pi / 2, n + 1)
    _, _, _, _, d2, d4 = controller.shape_terms(params, gains, np.sin(q2), np.cos(q2))
    bad = np.nonzero(~(gains.k2 * d4 - d2 ** 2 > 0.0))[0]  # d1 = k2 > 0 by ControllerGains
    return math.pi / 2 if bad.size == 0 else float(q2[max(int(bad[0]) - 1, 0)])


def md_definiteness_scan(params: RobotParams, gains: ControllerGains,
                         n: int = 10 ** 5) -> ResidualReport:
    """Maximal symmetric interval around 0 with d1 > 0 and det Md > 0.

    Its endpoint can only fall short of rho (the det condition is
    stricter than d4 > 0); the report fails if it exceeds rho by more
    than a grid cell.
    """
    rho = controller.region_rho(params, gains)
    endpoint = _pd_endpoint(params, gains, n)
    cell = math.pi / 2 / n
    overshoot = max(0.0, endpoint - rho)
    md0 = controller.desired_inertia(params, gains, 0.0)
    eigs = np.linalg.eigvalsh(md0)
    return ResidualReport(
        name="md_definiteness", grid=f"{n} cells on [0, pi/2]",
        max_abs_residual=overshoot, arg_at_max=(endpoint,), tol=cell,
        details={"pd_endpoint": endpoint, "rho": rho,
                 "md_at_0_eigs": [float(e) for e in eigs],
                 "pd_at_0": bool(eigs.min() > 0.0)})


def hessian_fd(params: RobotParams, gains: ControllerGains, q,
               h: float = 1e-5) -> np.ndarray:
    """Central-difference Hessian of Vd, oracle for the analytic one."""
    def v(q1, q2):
        return controller.shaped_potential(params, gains, (q1, q2))

    q1, q2 = float(q[0]), float(q[1])
    h11 = (v(q1 + h, q2) - 2 * v(q1, q2) + v(q1 - h, q2)) / h ** 2
    h22 = (v(q1, q2 + h) - 2 * v(q1, q2) + v(q1, q2 - h)) / h ** 2
    h12 = (v(q1 + h, q2 + h) - v(q1 + h, q2 - h)
           - v(q1 - h, q2 + h) + v(q1 - h, q2 - h)) / (4 * h ** 2)
    return np.array([[h11, h12], [h12, h22]])


def hessian_vd_check(params: RobotParams, gains: ControllerGains) -> ResidualReport:
    """Min eigenvalue of the analytic Vd Hessian at the upright equilibrium.

    Passes when strictly positive; details carry the gradient norm at
    q* (must vanish) and the finite-difference cross-check.
    """
    q_star = (0.0, 0.0)
    hess = controller.shaped_potential_hessian(params, gains, q_star)
    grad = controller.shaped_potential_gradient(params, gains, q_star)
    eigs = np.linalg.eigvalsh(hess)
    fd_diff = float(np.max(np.abs(hess - hessian_fd(params, gains, q_star))))
    return ResidualReport(
        name="hessian_vd", grid="point check at q*=[0,0]",
        max_abs_residual=float(eigs.min()), arg_at_max=q_star, tol=0.0,
        kind="min_above",
        details={"hessian": [[float(x) for x in row] for row in hess],
                 "grad_norm_at_qstar": float(np.max(np.abs(grad))),
                 "fd_max_diff": fd_diff})


def closed_loop_equivalence(params: RobotParams, gains: ControllerGains,
                            n_samples: int = 1000, seed: int = 0,
                            alpha_zeroed: bool = False) -> ResidualReport:
    """Plant + feedback torque against the target-form vector field.

    Samples random in-region states and compares the open-loop RHS
    driven by the control law with the directly assembled shaped
    dynamics; the matching construction makes them identical.
    alpha_zeroed drops J2 from the direct form (sensitivity hook).
    """
    rng = np.random.default_rng(seed)
    q2_max = 0.99 * _pd_endpoint(params, gains)
    worst, arg = 0.0, (0.0, 0.0, 0.0, 0.0)
    for _ in range(n_samples):
        q1 = rng.uniform(-3.0, 3.0)
        q2 = rng.uniform(-q2_max, q2_max)
        p = rng.uniform(-2.0, 2.0, size=2)
        s = State(q=np.array([q1, q2]), p=p)
        u = controller.control_law(params, gains, s)
        qd_o, pd_o = open_loop_rhs(params, s, u, 0.0)
        if alpha_zeroed:
            md = controller.desired_inertia(params, gains, q2)
            psi = controller.psi_matrix(params, gains, q2)
            pt = np.linalg.solve(md, p)
            gq = controller.grad_q_Hd(params, gains, s)
            qd_d = np.linalg.solve(inertia(params, q2), md) @ pt
            pd_d = -psi @ gq - gains.kv * np.array([pt[0], 0.0])
        else:
            qd_d, pd_d = closed_loop_rhs_direct(params, gains, s)
        diff = max(float(np.max(np.abs(qd_o - qd_d))),
                   float(np.max(np.abs(pd_o - pd_d))))
        if diff > worst:
            worst, arg = diff, (q1, q2, float(p[0]), float(p[1]))
    return ResidualReport(
        name="closed_loop_equivalence",
        grid=f"{n_samples} random states, |q2| < {q2_max:.4g}, seed {seed}",
        max_abs_residual=worst, arg_at_max=arg, tol=TOL_EQUIV,
        details={"alpha_zeroed": alpha_zeroed})


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
    return (2.0 * spec.frak_k1 / (spec.b ** 2 * np.cos(q2) ** 2)
            + spec.frak_k1 / (spec.frak_k2 ** 2 + np.sin(q2) ** 2))


def _claimed_m22_derivative(spec: CounterexampleSpec, q2):
    q2 = np.asarray(q2, dtype=float)
    s, c = np.sin(q2), np.cos(q2)
    return (4.0 * spec.frak_k1 * s / (spec.b ** 2 * c ** 3)
            - spec.frak_k1 * np.sin(2.0 * q2) / (spec.frak_k2 ** 2 + s ** 2) ** 2)


def _ode_residual(spec: CounterexampleSpec, q2, m22, dm22):
    """R = k1 m22' + sin(2 q2) m22^2 + 4 m22 - 2 k1 / cos^2(q2)."""
    q2 = np.asarray(q2, dtype=float)
    return (spec.frak_k1 * dm22 + np.sin(2.0 * q2) * m22 ** 2
            + 4.0 * m22 - 2.0 * spec.frak_k1 / np.cos(q2) ** 2)


def _integrated_solution_residual(spec: CounterexampleSpec, span: float = 1.0,
                                  h: float = 1e-4) -> float:
    """Soundness control: run the checker on a true ODE solution.

    Integrates the ODE itself with fine-step RK4 from the claimed
    solution's value at 0 and evaluates the residual with 5-point
    finite-difference derivatives on the stored grid, so the check does
    not reuse the ODE right-hand side as its own derivative.
    """
    def rhs(q2, m):
        return (-math.sin(2.0 * q2) * m * m - 4.0 * m
                + 2.0 * spec.frak_k1 / math.cos(q2) ** 2) / spec.frak_k1

    n = int(round(span / h))
    m0 = float(claimed_m22(spec, 0.0))
    halves = []
    for sign in (1.0, -1.0):
        qs = np.empty(n + 1)
        ms = np.empty(n + 1)
        qs[0], ms[0] = 0.0, m0
        q, m, hh = 0.0, m0, sign * h
        for i in range(n):
            k1 = rhs(q, m)
            k2 = rhs(q + 0.5 * hh, m + 0.5 * hh * k1)
            k3 = rhs(q + 0.5 * hh, m + 0.5 * hh * k2)
            k4 = rhs(q + hh, m + hh * k3)
            m += hh / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            q += hh
            qs[i + 1], ms[i + 1] = q, m
        halves.append((qs, ms))
    worst = 0.0
    for qs, ms in halves:
        dm = (-ms[4:] + 8 * ms[3:-1] - 8 * ms[1:-3] + ms[:-4]) / (12.0 * (qs[1] - qs[0]))
        r = _ode_residual(spec, qs[2:-2], ms[2:-2], dm)
        worst = max(worst, float(np.max(np.abs(r))))
    return worst


def remark2_residual(spec: CounterexampleSpec, n: int = 1000,
                     span: float = 1.0) -> ResidualReport:
    """Nonvanishing residual of the claimed prior-work solution.

    max |R| over [-span, span] must exceed 1e-2 (the claimed m22 does
    not solve the ODE); the soundness control in details must stay
    below 1e-6 on a genuinely integrated solution.
    """
    grid = np.linspace(-span, span, n)
    r = _ode_residual(spec, grid, claimed_m22(spec, grid),
                      _claimed_m22_derivative(spec, grid))
    k = int(np.argmax(np.abs(r)))
    sound = _integrated_solution_residual(spec, span)
    return ResidualReport(
        name="remark2_counterexample", grid=f"{n} points on [-{span}, {span}]",
        max_abs_residual=float(np.max(np.abs(r))), arg_at_max=(float(grid[k]),),
        tol=1e-2, kind="min_above",
        details={"R_at_0": float(_ode_residual(
            spec, 0.0, claimed_m22(spec, 0.0), _claimed_m22_derivative(spec, 0.0))),
            "integrated_solution_max_residual": sound,
            "soundness_tol": 1e-6,
            "constants": {"frak_k1": spec.frak_k1, "frak_k2": spec.frak_k2,
                          "b": spec.b}})


@dataclass(frozen=True)
class VerifyOptions:
    """Grid sizes and hooks for the full verification suite."""

    grid_points: int = 1000
    span: float = 1.5
    planar_grid: int = 100
    samples: int = 1000
    seed: int = 0
    scan_cells: int = 10 ** 6
    md_scan_points: int = 10 ** 5
    psi3_offset: float = 0.0
    derivatives: str = "analytic"
    counterexample: CounterexampleSpec = CounterexampleSpec()


def verify_all(params: RobotParams, gains: ControllerGains,
               opts: VerifyOptions = VerifyOptions()) -> list[ResidualReport]:
    """All seven checks, fixed order; the CLI renders one row each."""
    return [
        kinetic_matching(params, gains, opts.grid_points, opts.span,
                         opts.derivatives, opts.psi3_offset),
        potential_matching(params, gains, opts.planar_grid),
        region_report(params, gains, opts.scan_cells),
        md_definiteness_scan(params, gains, opts.md_scan_points),
        hessian_vd_check(params, gains),
        closed_loop_equivalence(params, gains, opts.samples, opts.seed),
        remark2_residual(opts.counterexample, opts.grid_points),
    ]
