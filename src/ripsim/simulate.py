"""Closed-loop simulation: plant + controller (+ adaptation) as one ODE.

The composite state is the flat vector [q1, q2, p1, p2] extended by
theta_hat in robust mode, integrated with fixed-step classical RK4 so
runs are deterministic and byte-reproducible. Three functions are generated
from source (codegen.generate) with every loop unrolled: the RK4 step for
the state length (_rk4_kernel, cached), and per run, for its mode,
regressor and Gamma, the closed-loop stage (_stage) and the recorded row
that packs itself into the trace buffer (_row). Both open with one head
(_head): one sin/cos pair of q2 for the controller and the plant, the term
calls and the torque. Every sum is printed by codegen.summed, the rows of
Gamma^{-1} f with their zero and unit entries folded out (_matvec). After
the loop, which only records and steps, _energies fills H, Hd and V_lyap in
blocks of rows, on arrays, and the spot checks are read from the rows.
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
from .codegen import generate, numbered, summed
from .controller import ControllerGains, DefinitenessLost, EmptyRegion, control_terms
from .model import RobotParams, hamiltonian, momentum, open_loop_rhs_flat

MODES = ("nominal", "disturbed_nominal", "disturbed_robust")
# Intervals between the matching-residual samples of a run: at most N_SPOT_CHECKS + 1
# samples, the first at t = 0.
N_SPOT_CHECKS = 8
# Largest n = t_end/dt: run() allocates its (n+1) x (11+ell) trace buffer up
# front, 1.1 GB at this limit for ell = 3.
MAX_STEPS = 10 ** 7
# Rows per array pass of _energies: bounds its temporaries for any run length.
ENERGY_BLOCK = 4096


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
        for name in ("q0", "qdot0"):
            if not all(map(math.isfinite, getattr(self, name))):
                raise ValueError(f"{name} must be finite")
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


@dataclass(eq=False)
class Trace:
    """Uniform-grid diagnostic records of one run, compared by identity (its fields are
    ndarrays, whose == gives an array, not a truth value)."""

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


def _matvec(out: str, rows: list[list[float]], prefix: str, values: list[str]):
    """The sums out{i} = 0.0 + w_i0 * v_0 + w_i1 * v_1 + ... for each row i of weights
    (codegen.summed), folded: a 0.0 or -0.0 weight adds no term and a 1.0 weight adds
    its value alone. Returns the statements, the constants {prefix}{i}_{j} of the
    weights left, and whether any weight was folded."""
    lines, consts = [], {}
    for i, row in enumerate(rows):
        kept = [(f"{prefix}{i}_{j}", w, v)
                for j, (w, v) in enumerate(zip(row, values)) if w != 0.0]
        consts.update((name, w) for name, w, _ in kept if w != 1.0)
        lines += summed(f"{out}{i}", [v if w == 1.0 else f"{name} * {v}" for name, w, v in kept])
    return lines, consts, len(consts) < len(rows) * len(values)


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


def _head(consts: dict, terms: tuple, robust: bool, *between: str):
    """The opening lines of the stage and the row, and the function's constants.

    x unpacked (theta_hat last, robust), s = sin(q2) and c = cos(q2) once, control_terms,
    the lines between, f{j} = c{j}(t{j}, q1, q2, p1c, p2c) per term and, robust, the
    torque u + f^T theta_hat from u. The constants, in the factory's order: sin, cos,
    control_terms, each term t{j} and its class's __call__ c{j}, read now (one patched
    before run() builds the function is the one called), then the caller's consts.
    """
    ell = len(terms)
    theta_hat = [f"th{j}" for j in range(ell)] if robust else []
    lines = [f"{', '.join(['q1', 'q2', 'p1c', 'p2c', *theta_hat])}, = x",
             "s = sin(q2)", "c = cos(q2)",
             "u, pt1 = control_terms(k, q1, q2, s, c, p1c, p2c)",
             *between,
             *(f"f{j} = c{j}(t{j}, q1, q2, p1c, p2c)" for j in range(ell)),
             *summed("u", [f"f{j} * {th}" for j, th in enumerate(theta_hat)], None)]
    return lines, {"sin": math.sin, "cos": math.cos, "control_terms": control_terms,
                   **numbered("t", terms), **numbered("c", [type(t).__call__ for t in terms]),
                   **consts}


def _stage(k: controller.Coeffs, params: RobotParams, terms: tuple, dtheta: list[float],
           ginv_rows: list[list[float]]):
    """The run's closed-loop vector field x -> x', generated from source for its mode.

    nominal: no terms, d = 0; disturbed_nominal: terms, d = f^T theta; disturbed_robust:
    also the Gamma^{-1} rows, x ends in theta_hat, the torque is u + f^T theta_hat and
    -ptilde1 Gamma^{-1} f is appended, each row folded (_matvec). A term that is +-inf
    or nan at a finite state makes u + f_j * theta_hat_j non-finite too, so the RK4 step
    raises NonFiniteState at the step the unfolded sums would. open_loop_rhs_flat,
    which takes the head's (s, c), is read here; every constant is a closure variable.
    """
    ell, rows = len(terms), range(len(ginv_rows))
    sums, weights, folded = _matvec("r", ginv_rows, "g", [f"f{j}" for j in range(ell)])
    lines, consts = _head({"k": k, "params": params, "open_loop_rhs_flat": open_loop_rhs_flat,
                           **numbered("dth", dtheta), **weights}, terms, bool(ginv_rows))
    lines += [*summed("d", [f"f{j} * dth{j}" for j in range(ell)]), *sums,
              "qd1, qd2, pd1, pd2 = open_loop_rhs_flat(params, s, c, p1c, p2c, u, d)",
              f"return {', '.join(['qd1', 'qd2', 'pd1', 'pd2', *(f'-pt1 * r{i}' for i in rows)])}"]
    return generate(f"closed-loop stage, {ell} terms{', adaptive' if rows else ''}"
                    f"{', Gamma^-1 folded' if folded else ''}", "stage", "x", lines, consts)


def _row(k: controller.Coeffs, dist: DisturbanceSpec | None, robust: bool, pack, rec):
    """The run's recorded row (x, off) -> None, generated from source for its mode: it
    ends in pack(rec, off, q1, q2, p1, p2, u, d, d_hat, ptilde1, *theta_hat, s, c), pack a
    struct's pack_into and rec the trace buffer, so a row that raises (DefinitenessLost)
    leaves rec unwritten; s = sin q2 and c = cos q2 fill the H and Hd slots for _energies.

    nominal: d = d_hat = 0; disturbed_nominal: d = dist.value(...); disturbed_robust:
    also the terms, d_hat = f^T theta_hat from 0.0, and the torque summed as _stage sums
    it (_head), so the recorded u is the applied torque bit for bit. control_terms,
    dist.value and each term's class __call__ are read here and called in that order.
    """
    terms = dist.regressor.terms if robust else ()
    own = {"k": k, "pack": pack, "rec": rec, **({} if dist is None else {"value": dist.value})}
    lines, consts = _head(own, terms, robust,
                          "d = 0.0" if dist is None else "d = value(q1, q2, p1c, p2c)")
    theta_hat = [f"th{j}" for j in range(len(terms))]
    lines += [*summed("dhat", [f"f{j} * {th}" for j, th in enumerate(theta_hat)]),
              "pack(" + ", ".join(["rec", "off", "q1", "q2", "p1c", "p2c", "u", "d", "dhat",
                                   "pt1", *theta_hat, "s", "c"]) + ")"]
    return generate(f"recorded row{'' if dist is None else ', disturbed'}"
                    f"{f', {len(terms)} estimates' if terms else ''}", "row", "x, off",
                    lines, consts)


def _energies(k: controller.Coeffs, params: RobotParams, rec: np.ndarray, theta: list[float],
              gamma_rows: list[list[float]]):
    """Fill H, Hd and V_lyap, the last three columns of the recorded rows rec, where
    _row left sin q2 and cos q2 in the first two, ENERGY_BLOCK rows at a time: one call
    each of hamiltonian and controller.desired_hamiltonian (looked up at call time) on
    arrays, and V_lyap = Hd + 1/2 e^T (Gamma e), e = theta_hat - theta, each sum left to
    right from 0.0 (tests/oracles.py's lyapunov_value). numpy's + - * / round as float
    operations do and atan is math.atan per element, so each value has the float calls'
    doubles; an overflow to inf stays silent, as on floats. Every row passed
    control_terms' test on the same det Md: DefinitenessLost is a guard here.
    """
    ell = len(gamma_rows)
    for start in range(0, rec.shape[0], ENERGY_BLOCK):
        b = rec[start:start + ENERGY_BLOCK]
        q1, q2, p1c, p2c, s, c = b[:, 0], b[:, 1], b[:, 2], b[:, 3], b[:, -3], b[:, -2]
        with np.errstate(over="ignore", invalid="ignore"):
            h = hamiltonian(params, s, c, p1c, p2c)
            hd = v = controller.desired_hamiltonian(k, q1, q2, s, c, p1c, p2c)
            if ell:
                e = [b[:, 8 + j] - theta[j] for j in range(ell)]
                v = 0.0
                for row, ei in zip(gamma_rows, e):
                    ge = 0.0
                    for w, ej in zip(row, e):
                        ge = ge + w * ej
                    v = v + ei * ge
                v = hd + 0.5 * v
        b[:, -3], b[:, -2], b[:, -1] = h, hd, v


def run(scenario: Scenario) -> Trace:
    """Integrate the scenario and record the full diagnostic trace.

    The loop records each row (_row), then steps; a DefinitenessLost in either stops the
    run with status "region_exit" and the rows recorded. _energies then fills their
    energies, and the spot checks read every ceil(n / N_SPOT_CHECKS)-th row. Raises
    NonFiniteState if integration blows up.
    """
    params, k = scenario.params, controller.coeffs(scenario.params, scenario.gains)
    mode = scenario.mode   # decides what is generated: nominal mode ignores a disturbance
    dist = None if mode == "nominal" else scenario.disturbance
    robust = mode == "disturbed_robust"
    terms, dtheta = (dist.regressor.terms, dist.theta.tolist()) if dist else ((), [])
    a = scenario.adaptive
    ginv_rows, gamma_rows = (a.gamma_inv.tolist(), a.gamma.tolist()) if robust else ([], [])
    ell, dt, n = len(ginv_rows), scenario.dt, step_count(scenario.t_end, scenario.dt)

    t_grid = np.arange(n + 1) * dt
    # one row per grid point: q1, q2, p1, p2, u, d, d_hat, ptilde1, theta_hat, H, Hd,
    # V_lyap, which row(x, off) stores by pack_into at the byte offset off (sin q2 and
    # cos q2 in place of H and Hd): the doubles that rec[i, :10 + ell] = (q1, ...)
    # stores, without building the tuple or numpy's conversion of it
    rec = np.empty((n + 1, 11 + ell))
    size = rec.strides[0]

    # The state, the stages and the recorded rows are lists of Python floats:
    # the same IEEE arithmetic as on numpy scalars, at a fraction of the cost.
    rhs = _stage(k, params, terms, dtheta, ginv_rows)
    row = _row(k, dist, robust, struct.Struct(f"{10 + ell}d").pack_into, rec)

    p0 = momentum(params, scenario.q0[1], *scenario.qdot0)  # p0 = M(q2(0)) qdot0
    x = [float(v) for v in (*scenario.q0, *p0)]
    if robust:
        x += scenario.adaptive.theta_hat.tolist()

    status, reason, rows = "ok", "", 0   # rows: the rows recorded
    try:
        while True:
            row(x, rows * size)
            rows += 1
            if rows > n:
                break
            x = step_rk4(rhs, x, dt)
    except DefinitenessLost as e:
        status, reason = "region_exit", str(e)

    rec = rec[:rows]
    _energies(k, params, rec, dtheta, gamma_rows)
    every = -(-n // N_SPOT_CHECKS)   # ceil(n / N_SPOT_CHECKS) >= 1
    spots = [(t, *_spot_residuals(k, q2))
             for t, q2 in zip(t_grid[:rows:every].tolist(), rec[::every, 1].tolist())]
    return Trace(
        t=t_grid[:rows], q=rec[:, 0:2], p=rec[:, 2:4], u=rec[:, 4], d=rec[:, 5],
        d_hat=rec[:, 6], H=rec[:, -3], Hd=rec[:, -2], V_lyap=rec[:, -1],
        ptilde1=rec[:, 7], theta_hat=rec[:, 8:8 + ell], status=status,
        exit_reason=reason, spot_checks=spots)
