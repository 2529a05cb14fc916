"""Closed-loop simulation: plant + controller (+ adaptation) as one ODE.

The composite state is the flat vector [q1, q2, p1, p2] extended by
theta_hat in robust mode, integrated with fixed-step classical RK4 so
runs are deterministic and byte-reproducible. The feedback torque is
re-evaluated at every RK4 stage. If the trajectory leaves the region
where Md is positive definite the run stops at the last completed step
and the trace is flagged instead of clamping the control.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import controller
from .adaptive import AdaptiveState, DisturbanceSpec, dot, lyapunov_value
from .controller import ControllerGains, DefinitenessLost, EmptyRegion, control_terms
from .model import RobotParams, hamiltonian, momentum, open_loop_rhs_flat

MODES = ("nominal", "disturbed_nominal", "disturbed_robust")
N_SPOT_CHECKS = 8  # matching-residual samples recorded along a run
# Largest n = t_end/dt: run() allocates its (n+1) x (11+ell) trace buffer up
# front, 1.1 GB at this limit for ell = 3.
MAX_STEPS = 10 ** 7


class NonFiniteState(Exception):
    """Integrator produced NaN/Inf components."""


@dataclass(frozen=True)
class Scenario:
    """One simulation experiment: plant, controller, mode and grid."""

    params: RobotParams
    gains: ControllerGains
    mode: str = "nominal"
    q0: tuple[float, float] = (0.0, 0.0)
    qdot0: tuple[float, float] = (0.0, 0.0)
    t_end: float = 30.0
    dt: float = 1e-3
    disturbance: DisturbanceSpec | None = None
    adaptive: AdaptiveState | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.dt > 0.0:
            raise ValueError("dt must be > 0")
        if self.t_end < self.dt:
            raise ValueError("t_end must be at least one step dt")
        step_count(self.t_end, self.dt)
        if self.mode != "nominal" and self.disturbance is None:
            raise ValueError(f"mode {self.mode!r} requires a disturbance")
        if self.mode == "disturbed_robust":
            if self.adaptive is None:
                raise ValueError("disturbed_robust mode requires adaptive settings")
            if self.adaptive.theta_hat.shape[0] != self.disturbance.regressor.ell:
                raise ValueError("theta_hat length does not match the regressor")
        try:
            rho = controller.region_rho(self.params, self.gains)
            if abs(self.q0[1]) >= rho:
                warnings.warn(
                    f"|q2(0)| = {abs(self.q0[1]):.4g} is outside the Md>0 region "
                    f"rho = {rho:.4g}; expect an immediate region exit")
        except EmptyRegion as e:
            warnings.warn(f"Md is nowhere positive definite: {e}")


@dataclass
class Trace:
    """Uniform-grid diagnostic records of one run."""

    t: np.ndarray
    q: np.ndarray            # (n, 2)
    p: np.ndarray            # (n, 2)
    u: np.ndarray
    d: np.ndarray
    d_hat: np.ndarray
    H: np.ndarray
    Hd: np.ndarray
    V_lyap: np.ndarray
    ptilde1: np.ndarray
    theta_hat: np.ndarray    # (n, ell); ell = 0 outside robust mode
    status: str = "ok"       # "ok" | "region_exit"
    exit_reason: str = ""
    # (t, kinetic residual, potential residual) at a few visited states
    spot_checks: list[tuple[float, float, float]] = field(default_factory=list)


def step_count(t_end: float, dt: float) -> int:
    """Steps n = round(t_end/dt), at least 1; ValueError when n exceeds MAX_STEPS."""
    ratio = t_end / dt
    if not (math.isfinite(ratio) and round(ratio) <= MAX_STEPS):
        raise ValueError(f"t_end/dt = {ratio:.10g}, more than the limit of {MAX_STEPS} steps")
    return max(int(round(ratio)), 1)


def step_rk4(rhs, x: list[float], dt: float) -> list[float]:
    """One classical 4th-order Runge-Kutta step of the autonomous ODE x' = rhs(x).

    x is a sequence of floats and rhs returns one of the same length (a
    tuple or a list: it is only zipped); the stages and the update are formed
    element by element in the IEEE order of the vector expression
    x + (dt/6)(k1 + 2 k2 + 2 k3 + k4), and the new state is a list. Raises
    NonFiniteState when the new state is not finite, and in place of any
    error that rhs raises at a stage state holding inf or nan
    (math.sin(inf) raises ValueError; DefinitenessLost there is a blow-up,
    not a region exit).
    """
    h = 0.5 * dt
    y = x
    try:
        k1 = rhs(y)
        y = [a + h * b for a, b in zip(x, k1)]
        k2 = rhs(y)
        y = [a + h * b for a, b in zip(x, k2)]
        k3 = rhs(y)
        y = [a + dt * b for a, b in zip(x, k3)]
        k4 = rhs(y)
    except (ArithmeticError, ValueError, DefinitenessLost) as e:
        if all(map(math.isfinite, y)):
            raise
        raise NonFiniteState(f"non-finite RK4 stage state: {y}") from e
    d6 = dt / 6.0
    out = [a + d6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
           for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
    if not all(map(math.isfinite, out)):
        raise NonFiniteState(f"non-finite state after RK4 step: {out}")
    return out


def _spot_residuals(k: controller.Coeffs, q2: float) -> tuple[float, float]:
    """Pointwise kinetic/potential matching residuals for trace spot checks.

    Kinetic: the largest entry of controller.kinetic_matching_rows;
    potential: controller.potential_matching_row at q1 = 0 (the row is
    q1-independent: its z-part cancels).
    """
    s, c = math.sin(q2), math.cos(q2)
    sh = controller.shaping(k, s, c)
    kin = max(map(abs, controller.kinetic_matching_rows(
        k, s, c, sh.ps1, sh.ps2, sh.ps3, sh.dd2, sh.dd4, sh.a1, sh.a2)))
    g1, g2 = controller._vd_gradient(k, controller._z_offset(k, s), s, sh.ps3)
    return kin, abs(controller.potential_matching_row(k, s, sh.ps3, g1, g2))


def run(scenario: Scenario) -> Trace:
    """Integrate the scenario and record the full diagnostic trace.

    Stops early with status "region_exit" when the controller loses Md
    definiteness; raises NonFiniteState if integration blows up.
    """
    params, k = scenario.params, controller.coeffs(scenario.params, scenario.gains)
    dist = scenario.disturbance
    robust = scenario.mode == "disturbed_robust"
    ell = dist.regressor.ell if robust else 0

    n = step_count(scenario.t_end, scenario.dt)
    dt = scenario.dt

    if dist is not None:
        terms = dist.regressor.terms
        dtheta = dist.theta.tolist()
    if robust:
        ginv_rows = scenario.adaptive.gamma_inv.tolist()
        gamma_rows = scenario.adaptive.gamma.tolist()

    # The state, the stages and the recorded rows are lists of Python floats:
    # the same IEEE arithmetic as on numpy scalars, at a fraction of the cost.
    # One stage closure per mode: no stage tests the mode.
    if dist is None:
        def rhs(x: list[float]) -> tuple[float, ...]:
            q1, q2, p1c, p2c = x
            u, _ = control_terms(k, q1, q2, p1c, p2c)
            return open_loop_rhs_flat(params, q2, p1c, p2c, u, 0.0)
    elif not robust:
        def rhs(x: list[float]) -> tuple[float, ...]:
            q1, q2, p1c, p2c = x
            u, _ = control_terms(k, q1, q2, p1c, p2c)
            d = dot([tm(q1, q2, p1c, p2c) for tm in terms], dtheta)
            return open_loop_rhs_flat(params, q2, p1c, p2c, u, d)
    else:
        def rhs(x: list[float]) -> list[float]:
            q1, q2, p1c, p2c = x[:4]
            u, pt1 = control_terms(k, q1, q2, p1c, p2c)
            fvals = [tm(q1, q2, p1c, p2c) for tm in terms]
            # ((u + f0 th0) + f1 th1) + ...: u is dot's accumulator, not added after
            return [*open_loop_rhs_flat(params, q2, p1c, p2c, dot(fvals, x[4:], u),
                                        dot(fvals, dtheta)),
                    *[-pt1 * dot(row, fvals) for row in ginv_rows]]

    t_grid = np.arange(n + 1) * dt
    # one row per grid point: q1, q2, p1, p2, u, d, d_hat, H, Hd, V_lyap, ptilde1, theta_hat
    rec = np.empty((n + 1, 11 + ell))

    p0 = momentum(params, scenario.q0[1], *scenario.qdot0)  # p0 = M(q2(0)) qdot0
    x = [float(v) for v in (*scenario.q0, *p0)]
    if robust:
        x += scenario.adaptive.theta_hat.tolist()

    spot_every = max(n // N_SPOT_CHECKS, 1)
    spots: list[tuple[float, float, float]] = []
    status, reason = "ok", ""
    rows = n + 1

    for i in range(n + 1):
        q1, q2, p1c, p2c, *theta_hat = x
        try:
            u_now, pt1 = control_terms(k, q1, q2, p1c, p2c)
            hd = controller.desired_hamiltonian(k, q1, q2, p1c, p2c)
        except DefinitenessLost as e:
            status, reason, rows = "region_exit", str(e), i
            break
        d_now = dist.value(q1, q2, p1c, p2c) if dist is not None else 0.0
        if robust:
            dhat = dot([tm(q1, q2, p1c, p2c) for tm in terms], theta_hat)
            u_now += dhat
            v_now = lyapunov_value(gamma_rows, theta_hat, dtheta, hd)
        else:
            dhat, v_now = 0.0, hd
        rec[i] = (q1, q2, p1c, p2c, u_now, d_now, dhat,
                  hamiltonian(params, q2, p1c, p2c), hd, v_now, pt1, *theta_hat)
        if i % spot_every == 0:
            kin, pot = _spot_residuals(k, q2)
            spots.append((float(t_grid[i]), kin, pot))
        if i == n:
            break
        try:
            x = step_rk4(rhs, x, dt)
        except DefinitenessLost as e:
            status, reason, rows = "region_exit", str(e), i + 1
            break

    rec = rec[:rows]
    return Trace(
        t=t_grid[:rows], q=rec[:, 0:2], p=rec[:, 2:4], u=rec[:, 4], d=rec[:, 5],
        d_hat=rec[:, 6], H=rec[:, 7], Hd=rec[:, 8], V_lyap=rec[:, 9],
        ptilde1=rec[:, 10], theta_hat=rec[:, 11:], status=status,
        exit_reason=reason, spot_checks=spots)
