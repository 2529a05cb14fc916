"""Closed-loop simulation: plant + controller (+ adaptation) as one ODE.

The composite state is the flat vector [q1, q2, p1, p2] extended by
theta_hat in robust mode, integrated with fixed-step classical RK4 so
runs are deterministic and byte-reproducible. Three functions are generated
from source (codegen.generate) with every loop unrolled: the RK4 step for
the state length (_rk4_kernel, cached), and per run, for its mode and
regressor, the closed-loop stage that re-evaluates the feedback torque
(_stage) and the recorded row (_row), each taking one sin/cos pair of q2 for
the controller and the plant and adding each sum one statement per term, left
to right (tests/oracles.py's dot is the reference the tests pin them to).
If the trajectory leaves the region where Md is positive definite the run
stops at the last completed step and the trace is flagged instead of
clamping the control.
"""
from __future__ import annotations

import functools
import math
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import controller
from .adaptive import AdaptiveState, DisturbanceSpec
from .codegen import generate, numbered
from .controller import ControllerGains, DefinitenessLost, EmptyRegion, control_terms
from .model import RobotParams, hamiltonian, momentum, open_loop_rhs_flat

MODES = ("nominal", "disturbed_nominal", "disturbed_robust")
# Intervals between the matching-residual samples of a run: at most N_SPOT_CHECKS + 1
# samples, the first at t = 0.
N_SPOT_CHECKS = 8
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
    tuple or a list: it is only unpacked); the stages and the update are
    formed element by element in the IEEE order of the vector expression
    x + (dt/6)(k1 + 2 k2 + 2 k3 + k4), and the new state is a list. Raises
    NonFiniteState when the new state is not finite, and in place of any
    error that rhs raises at a stage state holding inf or nan
    (math.sin(inf) raises ValueError; DefinitenessLost there is a blow-up,
    not a region exit). The work is done by the kernel _rk4_kernel
    generates for len(x).
    """
    return _rk4_kernel(len(x))(rhs, x, dt)


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


def _term_calls(terms) -> dict:
    """{t0: terms[0], c0: type(terms[0]).__call__, ...}: each term node and its class's
    __call__, read now, so that c{j}(t{j}, q1, q2, p1, p2) evaluates term j."""
    return {**numbered("t", terms), **numbered("c", [type(t).__call__ for t in terms])}


@functools.cache
def _rk4_kernel(n: int):
    """step_rk4 for states of length n, generated from source: the state and each
    slope unpacked into names x_i, k1_i ... k4_i, each stage state one list display
    x_i + h * k_i, each updated component o_i = x_i + dt6 * (k1_i + 2.0 * k2_i +
    2.0 * k3_i + k4_i), tested by one chain isfinite(o_0) and ... and returned as a
    list. Every per-component name holds an underscore and no scalar (h, dt, dt6)
    does, so no two names can meet."""
    def unpack(names):
        return f"{', '.join(f'{names}_{i}' for i in range(n))},"

    def stage(slope, step):
        return f"    y = [{', '.join(f'x_{i} + {step} * {slope}_{i}' for i in range(n))}]"

    out = f"[{', '.join(f'o_{i}' for i in range(n))}]"

    lines = [f"{unpack('x')} = x",
             "h = 0.5 * dt",
             "y = x",
             "try:",
             f"    {unpack('k1')} = rhs(y)", stage("k1", "h"),
             f"    {unpack('k2')} = rhs(y)", stage("k2", "h"),
             f"    {unpack('k3')} = rhs(y)", stage("k3", "dt"),
             f"    {unpack('k4')} = rhs(y)",
             "except (ArithmeticError, ValueError, DefinitenessLost) as e:",
             "    if all(map(isfinite, y)):",
             "        raise",
             "    raise NonFiniteState(f'non-finite RK4 stage state: {y}') from e",
             "dt6 = dt / 6.0",
             *(f"o_{i} = x_{i} + dt6 * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})"
               for i in range(n)),
             f"if not ({' and '.join(f'isfinite(o_{i})' for i in range(n))}):",
             f"    raise NonFiniteState(f'non-finite state after RK4 step: {{{out}}}')",
             f"return {out}"]
    return generate(f"RK4 step, {n} components", "rk4_step", "rhs, x, dt", lines,
                    {"isfinite": math.isfinite, "DefinitenessLost": DefinitenessLost,
                     "NonFiniteState": NonFiniteState})


def _stage(k: controller.Coeffs, params: RobotParams, terms: tuple, dtheta: list[float],
           ginv_rows: list[list[float]]):
    """The run's closed-loop vector field x -> x', generated from source for its mode.

    nominal: no terms, d = 0; disturbed_nominal: terms, d = f^T theta; disturbed_robust:
    also the Gamma^{-1} rows, x ends in theta_hat, the torque is u + f^T theta_hat and
    -ptilde1 Gamma^{-1} f is appended. Each sum takes one statement per term, left to
    right from the torque or 0.0 (the order of tests/oracles.py's dot). The stage
    takes s = sin(q2), c = cos(q2) once and passes the pair to control_terms and
    open_loop_rhs_flat, which are read here, and so is each term's class __call__,
    which the stage calls as c{j}(t{j}, ...): a __call__ patched before run() builds
    the stage is the one called, and the call skips the instance-call slot. Every
    constant is a closure variable (codegen.generate).
    """
    ell, rows = len(terms), range(len(ginv_rows))
    theta_hat = [f"th{j}" for j in range(ell)] if ginv_rows else []
    lines = [f"{', '.join(['q1', 'q2', 'p1c', 'p2c', *theta_hat])}, = x",
             "s = sin(q2)",
             "c = cos(q2)",
             "u, pt1 = control_terms(k, q1, q2, s, c, p1c, p2c)",
             *(f"f{j} = c{j}(t{j}, q1, q2, p1c, p2c)" for j in range(ell)),
             *(f"u = u + f{j} * {th}" for j, th in enumerate(theta_hat)),
             "d = 0.0",
             *(f"d = d + f{j} * dth{j}" for j in range(ell))]
    for i in rows:
        lines += [f"r{i} = 0.0", *(f"r{i} = r{i} + g{i}_{j} * f{j}" for j in range(ell))]
    lines += ["qd1, qd2, pd1, pd2 = open_loop_rhs_flat(params, s, c, p1c, p2c, u, d)",
              f"return {', '.join(['qd1', 'qd2', 'pd1', 'pd2', *(f'-pt1 * r{i}' for i in rows)])}"]
    consts = {"k": k, "params": params, "sin": math.sin, "cos": math.cos,
              "control_terms": control_terms,
              "open_loop_rhs_flat": open_loop_rhs_flat, **_term_calls(terms),
              **numbered("dth", dtheta)}
    for i, row in enumerate(ginv_rows):
        consts.update(numbered(f"g{i}_", row))
    return generate(f"closed-loop stage, {ell} terms{', adaptive' if rows else ''}", "stage",
                    "x", lines, consts)


def _row(k: controller.Coeffs, params: RobotParams, dist: DisturbanceSpec | None,
         gamma_rows: list[list[float]]):
    """The run's recorded row x -> (q1, q2, p1, p2, u, d, d_hat, H, Hd, V_lyap, ptilde1,
    *theta_hat), generated from source for its mode.

    nominal: d = d_hat = 0 and V_lyap = Hd; disturbed_nominal: d = dist.value(...);
    disturbed_robust (gamma_rows given): also d_hat = f^T theta_hat, the torque
    u + d_hat and V_lyap = Hd + 1/2 e^T (Gamma e) with e = theta_hat - theta, each sum
    one statement per term, left to right from 0.0 (tests/oracles.py's dot). control_terms,
    controller.desired_hamiltonian, dist.value and hamiltonian are read here and
    called once each, in that order, with the term nodes between the last two; the
    three energy and torque calls share one s = sin(q2), c = cos(q2) pair. Each
    term's class __call__ is read here too and called as c{j}(t{j}, ...), as in _stage.
    """
    ell = len(gamma_rows)
    theta_hat = [f"th{j}" for j in range(ell)]
    lines = [f"{', '.join(['q1', 'q2', 'p1c', 'p2c', *theta_hat])}, = x",
             "s = sin(q2)",
             "c = cos(q2)",
             "u, pt1 = control_terms(k, q1, q2, s, c, p1c, p2c)",
             "hd = desired_hamiltonian(k, q1, q2, s, c, p1c, p2c)",
             "d = value(q1, q2, p1c, p2c)" if dist is not None else "d = 0.0"]
    consts = {"k": k, "params": params, "sin": math.sin, "cos": math.cos,
              "control_terms": control_terms,
              "desired_hamiltonian": controller.desired_hamiltonian,
              "hamiltonian": hamiltonian}
    if dist is not None:
        consts["value"] = dist.value
    if ell:
        lines += [*(f"f{j} = c{j}(t{j}, q1, q2, p1c, p2c)" for j in range(ell)),
                  "dhat = 0.0", *(f"dhat = dhat + f{j} * th{j}" for j in range(ell)),
                  *(f"e{j} = th{j} - dth{j}" for j in range(ell))]
        for i in range(ell):
            lines += [f"ge{i} = 0.0", *(f"ge{i} = ge{i} + G{i}_{j} * e{j}" for j in range(ell))]
        lines += ["v = 0.0", *(f"v = v + e{j} * ge{j}" for j in range(ell)),
                  "u = u + dhat", "v = hd + 0.5 * v"]
        consts.update(_term_calls(dist.regressor.terms))
        consts.update(numbered("dth", dist.theta.tolist()))
        for i, row in enumerate(gamma_rows):
            consts.update(numbered(f"G{i}_", row))
    else:
        lines += ["dhat = 0.0", "v = hd"]
    lines.append("return " + ", ".join(["q1", "q2", "p1c", "p2c", "u", "d", "dhat",
                                        "hamiltonian(params, s, c, p1c, p2c)", "hd", "v",
                                        "pt1", *theta_hat]))
    return generate(f"recorded row{'' if dist is None else ', disturbed'}"
                    f"{f', {ell} estimates' if ell else ''}", "row", "x", lines, consts)


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

    terms, dtheta, ginv_rows, gamma_rows = (), [], [], []
    if dist is not None:
        terms = dist.regressor.terms
        dtheta = dist.theta.tolist()
    if robust:
        ginv_rows = scenario.adaptive.gamma_inv.tolist()
        gamma_rows = scenario.adaptive.gamma.tolist()

    # The state, the stages and the recorded rows are lists of Python floats:
    # the same IEEE arithmetic as on numpy scalars, at a fraction of the cost.
    rhs = _stage(k, params, terms, dtheta, ginv_rows)
    row = _row(k, params, dist, gamma_rows)

    t_grid = np.arange(n + 1) * dt
    # one row per grid point: q1, q2, p1, p2, u, d, d_hat, H, Hd, V_lyap, ptilde1, theta_hat,
    # stored by pack_into at the row's byte offset: the doubles rec[i] = row(x) stores,
    # without numpy's conversion of the tuple, which costs about twice as much
    rec = np.empty((n + 1, 11 + ell))
    row_struct = struct.Struct(f"{11 + ell}d")
    pack, size = row_struct.pack_into, row_struct.size

    p0 = momentum(params, scenario.q0[1], *scenario.qdot0)  # p0 = M(q2(0)) qdot0
    x = [float(v) for v in (*scenario.q0, *p0)]
    if robust:
        x += scenario.adaptive.theta_hat.tolist()

    spot_every = -(-n // N_SPOT_CHECKS)   # ceil(n / N_SPOT_CHECKS) >= 1
    spots: list[tuple[float, float, float]] = []
    status, reason = "ok", ""
    rows = n + 1

    for i in range(n + 1):
        try:
            pack(rec, i * size, *row(x))
        except DefinitenessLost as e:
            status, reason, rows = "region_exit", str(e), i
            break
        if i % spot_every == 0:
            spots.append((float(t_grid[i]), *_spot_residuals(k, x[1])))
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
