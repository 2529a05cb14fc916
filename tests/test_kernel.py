"""The fused shaping kernel and the simulator's float path, against the public API.

Covers:
  - control_terms and desired_hamiltonian equal the per-quantity
    compositions they replaced, bit for bit, at 10^4 random states (inside
    and outside the admissible band, Python floats and numpy scalars),
    raising DefinitenessLost at the same states with the same message
  - the helpers reading a Coeffs record (the constants bound once) give the
    same doubles as the same helpers reading (params, gains), kept here as
    the reference, at 10^4 random states over random plants and gains
  - shaping, the kinetic- and potential-matching rows and grad Vd give the
    same doubles on ndarrays (the verify grids) as on floats (the simulator)
  - a disturbed_robust run with the fig4 plant and gains: every recorded
    row equals the array-form compositions at the recorded state, and
    every step equals step_rk4 over oracles.open_loop_rhs + robust_control
    + adaptation_rhs, so the adaptive tests cover the simulator's own law;
    the recorded d_hat is f^T theta_hat summed term by term from 0.0 and the
    recorded u the torque summed term by term from the shaping torque, bit
    for bit
  - the stage simulate.run generates per run equals the three per-mode
    closures it replaced (kept here as the reference) bit for bit: 10^4
    random in-band states per mode, ell in {1, 3, 8}, random theta_hat and
    SPD Gamma, theta and the regressor values holding signed zeros; out of
    band both raise the same DefinitenessLost; it builds and runs at ell = 64
  - the two fused entry points (control_terms, open_loop_rhs_flat) come from
    the generated _fused.py, name none of the helpers inlined into them and
    equal their helper-calling definitions bit for bit, at the (sin q2, cos q2)
    they take; each has the code and constants of the factory fusion prints
    for it from the source now, bound as its module binds it, and _fused.py
    parses to the syntax tree of what fusion prints, whose failure names the
    command that rewrites it; fusion is the build tool tools/fusion.py, outside
    the package: a fresh import calls neither ast.parse nor ast.unparse and
    finds no ripsim.fusion; with a global the fused code reads renamed in a
    copy of src, the stale _fused.py stops the import, tools/fusion.py pointed
    at the copy still rewrites it, and the copy then imports and gives the
    same bits; codegen.bind names a stale _fused.py and the
    rewrite command at a factory parameter that is no global of the module;
    they name no sin or cos, and each generated stage and row takes exactly
    one sin(q2) and one cos(q2); fusion (its factory for a def of this file,
    bound by codegen.bind) keeps values and exceptions through argument
    expressions, a return that reads an earlier target and one whose closing
    bracket stands on a line of its own, keeps keyword names
    (dict(x=y, y=x) with x and y renamed) and strings as they are, and refuses a
    loop, an early return, a nested helper call, an assignment to a parameter,
    a helper called with a keyword or unpacked argument or a call that omits
    a defaulted argument, naming the function; a _ is an ordinary name to it
  - desired_hamiltonian, hamiltonian, control_terms_array (u, ptilde1) and
    open_loop_rhs_array on arrays of 10^4 in-band states, signed zeros
    included, equal element by element their float calls and, for
    desired_hamiltonian, the float references (desired_hamiltonian_ref,
    composed_desired_hamiltonian) bit for bit
  - fused control_terms, desired_hamiltonian and shaping form no operation
    of run constants (read from their source with ast): no binary operation of
    two parameter-only operands and no negation of one, which are Coeffs fields;
    the same reading finds each such operation planted in a small source
  - the row simulate.run generates per run, read back from the one-row buffer
    it packs, equals the record block it replaced (kept here as the
    reference, without the energies) bit for bit, with sin q2 and cos q2 in
    the H and Hd slots and the V_lyap slot unwritten: 10^4 random in-band
    states per mode, ell in {1, 3, 8}, theta, theta_hat and the state holding
    signed zeros; out of band both raise the same DefinitenessLost and the
    buffer is not written; the pass after the loop (simulate._energies) gives
    every row's H, Hd and V_lyap the doubles of the float calls
  - with Gamma = I, 2.5 I or SPD 2 x 2 blocks (ell in {1, 3, 8}), the stage
    reads only the Gamma^{-1} entries that are neither 0.0 nor 1.0 and still
    equals its reference bit for bit at the signed-zero states, and the pass,
    over blocks of 300 rows, gives V_lyap = lyapunov_value bit for bit
  - the pass raises DefinitenessLost naming the first state of a block past
    the band, and writes nothing; its peak allocation is the same for 2 and 8
    blocks of rows (tracemalloc)
  - generated code shows its source in tracebacks: the raise line and the
    function's role name, for fused control_terms (in _fused.py) and for a
    generated stage out of band; two different generated sources never share
    a file name
  - the source text of each generated stage (nominal; disturbed with ell = 3;
    robust with Gamma = I, a dense Gamma and a Gamma^{-1} holding 0.0 and 1.0),
    row (each mode), disturbance sum (ell = 3) and RK4 kernel (n = 4 and 7) has
    a pinned SHA-256
"""
import ast
import dataclasses
import hashlib
import importlib.util
import inspect
import itertools
import linecache
import math
import os
import shutil
import struct
import subprocess
import sys
import traceback
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from ripsim import _fused
from ripsim.adaptive import DisturbanceSpec
from ripsim.codegen import bind
from ripsim.config import load_config
from ripsim.controller import (
    ControllerGains, DefinitenessLost, EmptyRegion, _vd, _vd_gradient, _z_offset, coeffs,
    control_terms, control_terms_array, desired_hamiltonian, kinetic_matching_rows,
    potential_matching_row, region_rho, shape_terms, shaping,
)
from ripsim.model import RobotParams, hamiltonian, open_loop_rhs_array, open_loop_rhs_flat
from ripsim.regressor import RegressorSpec, parse_term
import ripsim.simulate as sim
from ripsim.simulate import _energies, _row, _stage, run, step_rk4
from ripsim.verify import _pd_endpoint

from oracles import (
    adaptation_rhs, dot, eval_regressor, lyapunov_value, momentum_tilde, open_loop_rhs,
    robust_control, trig,
)

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ROOT / "presets"
# the build tool that prints _fused.py; it lives outside the package
FUSION_PY = ROOT / "tools" / "fusion.py"
_spec = importlib.util.spec_from_file_location("fusion", FUSION_PY)
fusion = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fusion)
P_SYN = RobotParams(2.0, 1.0, 1.0, 2.0, 1.0)


def composed_control_terms(params, gains, q1, q2, p1c, p2c):
    """control_terms as one call per closed form, each evaluating its own sin/cos."""
    k, q1, q2 = coeffs(params, gains), float(q1), float(q2)
    pt1, pt2 = momentum_tilde(k, q2, p1c, p2c)
    s = math.sin(q2)
    gq1, gv2 = _vd_gradient(k, q1 + _z_offset(k, s), s, shape_terms(k, s, math.cos(q2))[2])
    sh = shaping(k, math.sin(q2), math.cos(q2))
    gq2 = gv2 - 0.5 * (2.0 * pt1 * pt2 * sh.dd2 + pt2 * pt2 * sh.dd4)
    j2s = sh.a1 * pt1 + sh.a2 * pt2
    u = -(sh.ps1 * gq1 + sh.ps2 * gq2) + j2s * pt2 - gains.kv * pt1
    return u, pt1


def composed_desired_hamiltonian(params, gains, q1, q2, p1c, p2c):
    """desired_hamiltonian as Md^{-1} p and Vd, each evaluating its own sin/cos."""
    k, q1, q2 = coeffs(params, gains), float(q1), float(q2)
    pt1, pt2 = momentum_tilde(k, q2, p1c, p2c)
    return 0.5 * (p1c * pt1 + p2c * pt2) + _vd(k, q1, math.sin(q2), math.cos(q2))


def outcome(fn, *args):
    try:
        return fn(*args)
    except DefinitenessLost as e:
        return ("DefinitenessLost", str(e), e.det_md)


def kernel_cases(rng):
    """(params, gains) pairs: the fig benches plus random gains on the synthetic set."""
    cases = [(cfg.params, cfg.gains) for cfg in
             (load_config(str(PRESETS / f"{name}.yaml")) for name in ("fig2", "fig4", "default"))]
    while len(cases) < 10:
        g = ControllerGains(psi40=math.exp(rng.uniform(-1, 1)), k1=math.exp(rng.uniform(-3, 0)),
                            k2=math.exp(rng.uniform(0, 5)), kappa=math.exp(rng.uniform(-2, 2)),
                            kv=math.exp(rng.uniform(-2, 2)))
        try:
            region_rho(P_SYN, g)
        except EmptyRegion:
            continue
        cases.append((P_SYN, g))
    return cases


def test_control_terms_equals_composition():
    rng = np.random.default_rng(20)
    lost = 0
    for params, gains in kernel_cases(rng):
        rho, k_ = region_rho(params, gains), coeffs(params, gains)
        for k in range(1000):
            q1 = rng.uniform(-3.0, 3.0)
            q2 = rng.uniform(-1.5, 1.5) * rho   # Md is not PD beyond rho, often before
            p1c, p2c = rng.uniform(-5.0, 5.0, size=2)
            args = (q1, q2, p1c, p2c)
            if k % 2:
                args = tuple(float(v) for v in args)   # the simulator passes floats
            fused_args = (*args[:2], *trig(args[1]), *args[2:])
            got = outcome(control_terms, k_, *fused_args)
            assert got == outcome(composed_control_terms, params, gains, *args)
            assert outcome(desired_hamiltonian, k_, *fused_args) == \
                outcome(composed_desired_hamiltonian, params, gains, *args)
            lost += got[0] == "DefinitenessLost"
    assert min(lost, 10_000 - lost) > 1000   # both outcomes are exercised


def bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


def rows_at(k, s, c, sh):
    return kinetic_matching_rows(k, s, c, sh.ps1, sh.ps2, sh.ps3, sh.dd2, sh.dd4, sh.a1, sh.a2)


def test_array_route_equals_float_route():
    # verify evaluates the closed forms on grids, the simulator on floats:
    # at the same (s, c, z) both must give the same doubles
    rng = np.random.default_rng(21)
    presets = [load_config(str(PRESETS / f"{name}.yaml")) for name in ("fig2", "default",
                                                                        "synthetic")]
    cases = [(cfg.params, cfg.gains) for cfg in presets] + kernel_cases(rng)[3:]
    for params, gains in cases:
        k = coeffs(params, gains)
        q2 = rng.uniform(-1.5, 1.5, 200)
        s, c = np.sin(q2), np.cos(q2)
        z = rng.uniform(-3.0, 3.0, 200) + _z_offset(k, s, np.arctan)
        grid = shaping(k, s, c)
        kin = rows_at(k, s, c, grid)
        g1, g2 = _vd_gradient(k, z, s, grid.ps3)
        row = potential_matching_row(k, s, grid.ps3, g1, g2)
        for i in range(q2.size):
            si, ci, zi = float(s[i]), float(c[i]), float(z[i])
            one = shaping(k, si, ci)
            assert all(type(v) is float for v in one)
            g = _vd_gradient(k, zi, si, one.ps3)
            want = [*one, *rows_at(k, si, ci, one), *g,
                    potential_matching_row(k, si, one.ps3, *g)]
            assert bits([v[i] for v in (*grid, *kin, g1, g2, row)]) == bits(want)


# The helpers as they read (params, gains) before the constants were bound once
# in a Coeffs record, every parameter-only term formed at each call: the
# reference for the folded ones.
def shape_terms_ref(params, gains, s, c):
    p2, p3, psi40 = params.p2, params.p3, gains.psi40
    w = p2 / (p3 * psi40)
    den = gains.k1 + w * s * s
    m11 = params.p1 + p2 * s * s
    d2 = c * (m11 / den - p3 * psi40)
    d4 = p3 * c * c / den - params.p4 * psi40
    return w, den, m11, c / den, d2, d4


def md_prime_ref(params, gains, s, c, w, den, m11):
    p3 = params.p3
    s2 = 2.0 * s * c
    dden = w * s2
    dm11 = params.p2 * s2
    den2 = den * den
    dd2 = -s * (m11 / den - p3 * gains.psi40) + c * (dm11 * den - m11 * dden) / den2
    dd4 = -p3 * s2 * (den + w * c * c) / den2
    return dd2, dd4


def md_inverse_ref(gains, q2, d2, d4):
    d1 = gains.k2
    det = d1 * d4 - d2 * d2
    if d1 <= 0.0 or det <= 0.0:
        raise DefinitenessLost(q2, det)
    return d4 / det, -d2 / det, d1 / det, det


def psi_row1_ref(params, gains, s, c, m11, d2, dd2):
    p2, p3, p4, k2 = params.p2, params.p3, params.p4, gains.k2
    m12 = p3 * c
    det = m11 * p4 - m12 * m12
    n1 = p4 * k2 - m12 * d2
    n2 = -m12 * k2 + m11 * d2
    det_ = m11 * p4 - p3 ** 2 * c * c
    s2 = 2.0 * s * c
    ddet = (p2 * p4 + p3 ** 2) * s2
    dn1 = p3 * s * d2 - m12 * dd2
    dn2 = p3 * s * k2 + p2 * s2 * d2 + m11 * dd2
    det2 = det_ * det_
    return n1 / det, n2 / det, (dn1 * det_ - n1 * ddet) / det2, (dn2 * det_ - n2 * ddet) / det2


def alpha_ref(params, gains, s, c, m11, ps1, ps2, ps3, dps1, dps2):
    p2_, p3_, p4_ = params.p2, params.p3, params.p4
    ps4 = -gains.psi40
    two_a1 = (-2.0 * p2_ * ps1 * ps1 * s * c
              + 2.0 * p3_ * ps1 * ps2 * s
              + ps4 * m11 * dps1
              - p3_ * ps4 * ps2 * s
              + 2.0 * p2_ * ps4 * ps1 * s * c
              + p3_ * ps4 * c * dps2)
    a2 = (p3_ * ps2 * ps3 * s
          - 2.0 * p2_ * ps1 * ps3 * s * c
          + p3_ * ps1 * ps4 * s
          + p3_ * ps4 * c * dps1
          + p4_ * ps4 * dps2
          - p3_ * ps4 * ps1 * s)
    return 0.5 * two_a1, a2


def kinetic_rows_ref(params, gains, s, c, ps1, ps2, ps3, dd2, dd4, a1, a2):
    ps4 = -gains.psi40
    dm11 = 2.0 * params.p2 * s * c
    dm12 = -params.p3 * s
    r11 = -(dm11 * ps1 * ps1 + 2.0 * dm12 * ps1 * ps2) - 2.0 * a1
    r12 = -(dm11 * ps1 * ps3 + dm12 * (ps1 * ps4 + ps2 * ps3)) + ps4 * dd2 - a2
    r22 = -(dm11 * ps3 * ps3 + 2.0 * dm12 * ps3 * ps4) + ps4 * dd4
    return r11, r12, r22


def z_offset_ref(params, gains, s):
    p2, p3, k1, psi40 = params.p2, params.p3, gains.k1, gains.psi40
    return math.sqrt(p3 / (k1 * p2 * psi40)) * math.atan(math.sqrt(p2 / (k1 * p3 * psi40)) * s)


def vd_gradient_ref(params, gains, z, s, ps3):
    kappa, psi40 = gains.kappa, gains.psi40
    return kappa * z, kappa * z * ps3 / psi40 + params.p5 / psi40 * s


def potential_row_ref(params, gains, s, ps3, g1, g2):
    return ps3 * g1 - gains.psi40 * g2 + params.p5 * s


def shaping_ref(params, gains, s, c):
    w, den, m11, ps3, d2, d4 = shape_terms_ref(params, gains, s, c)
    dd2, dd4 = md_prime_ref(params, gains, s, c, w, den, m11)
    ps1, ps2, dps1, dps2 = psi_row1_ref(params, gains, s, c, m11, d2, dd2)
    dps3 = (-s * den - c * (2.0 * w * s * c)) / (den * den)
    a1, a2 = alpha_ref(params, gains, s, c, m11, ps1, ps2, ps3, dps1, dps2)
    return m11, ps1, ps2, ps3, d2, d4, dd2, dd4, dps1, dps2, dps3, a1, a2


def desired_hamiltonian_ref(params, gains, q1, q2, p1c, p2c):
    s, c = math.sin(q2), math.cos(q2)
    _, _, _, _, d2, d4 = shape_terms_ref(params, gains, s, c)
    i11, i12, i22, _ = md_inverse_ref(gains, q2, d2, d4)
    pt1 = i11 * p1c + i12 * p2c
    pt2 = i12 * p1c + i22 * p2c
    z = q1 + z_offset_ref(params, gains, s)
    vd = 0.5 * gains.kappa * z * z - params.p5 / gains.psi40 * c
    return 0.5 * (p1c * pt1 + p2c * pt2) + vd


def control_terms_ref(params, gains, q1, q2, p1c, p2c):
    s, c = math.sin(q2), math.cos(q2)
    w, den, m11, ps3, d2, d4 = shape_terms_ref(params, gains, s, c)
    i11, i12, i22, _ = md_inverse_ref(gains, q2, d2, d4)
    pt1 = i11 * p1c + i12 * p2c
    pt2 = i12 * p1c + i22 * p2c
    dd2, dd4 = md_prime_ref(params, gains, s, c, w, den, m11)
    gq1, gv2 = vd_gradient_ref(params, gains, q1 + z_offset_ref(params, gains, s), s, ps3)
    gq2 = gv2 - 0.5 * (2.0 * pt1 * pt2 * dd2 + pt2 * pt2 * dd4)
    ps1, ps2, dps1, dps2 = psi_row1_ref(params, gains, s, c, m11, d2, dd2)
    a1, a2 = alpha_ref(params, gains, s, c, m11, ps1, ps2, ps3, dps1, dps2)
    j2s = a1 * pt1 + a2 * pt2
    u = -(ps1 * gq1 + ps2 * gq2) + j2s * pt2 - gains.kv * pt1
    return u, pt1


def rand_plant_and_gains(rng):
    """Random plant and gains with a nonempty band; p1..p5 are not powers of two."""
    while True:
        p = np.exp(rng.uniform(-1.0, 1.0, 5)).tolist()
        if p[0] * p[3] - p[2] ** 2 <= 1e-3:
            continue
        # psi40, k1, k2, kappa, kv
        gains = ControllerGains(*np.exp(rng.uniform([-1, -3, 0, -2, -2], [1, 0, 6, 2, 2])).tolist())
        try:
            region_rho(RobotParams(*p), gains)
        except EmptyRegion:
            continue
        return RobotParams(*p), gains


def bit_outcome(fn, *args):
    """outcome() with each double as its bit pattern (so -0.0 != 0.0 and nan == nan)."""
    got = outcome(fn, *args)
    if isinstance(got, tuple) and got[0] == "DefinitenessLost":
        return (*got[:2], *bits([got[2]]))
    return bits(got if isinstance(got, tuple) else [got])


def test_folded_helpers_equal_unfolded():
    rng = np.random.default_rng(23)
    lost = 0
    for _ in range(100):
        params, gains = rand_plant_and_gains(rng)
        assert math.frexp(params.p3)[0] != 0.5   # p3 ** 2 may round apart from p3 * p3
        k, rho = coeffs(params, gains), region_rho(params, gains)
        for q1, q2, p1c, p2c in rng.uniform(-1.0, 1.0, size=(100, 4)).tolist():
            q1, q2, p1c, p2c = 3.0 * q1, 1.5 * rho * q2, 5.0 * p1c, 5.0 * p2c
            args = (q1, q2, p1c, p2c)
            fused_args = (q1, q2, *trig(q2), p1c, p2c)
            got = bit_outcome(control_terms, k, *fused_args)
            assert got == bit_outcome(control_terms_ref, params, gains, *args)
            assert bit_outcome(desired_hamiltonian, k, *fused_args) == \
                bit_outcome(desired_hamiltonian_ref, params, gains, *args)
            lost += got[0] == "DefinitenessLost"
            s, c = math.sin(q2), math.cos(q2)
            sh = shaping(k, s, c)
            assert bits(sh) == bits(shaping_ref(params, gains, s, c))
            assert bits(rows_at(k, s, c, sh)) == bits(kinetic_rows_ref(
                params, gains, s, c, sh.ps1, sh.ps2, sh.ps3, sh.dd2, sh.dd4, sh.a1, sh.a2))
            g = _vd_gradient(k, q1 + _z_offset(k, s), s, sh.ps3)
            assert bits(g) == bits(vd_gradient_ref(
                params, gains, q1 + z_offset_ref(params, gains, s), s, sh.ps3))
            assert bits([potential_matching_row(k, s, sh.ps3, *g)]) == \
                bits([potential_row_ref(params, gains, s, sh.ps3, *g)])
    assert min(lost, 10_000 - lost) > 1000   # both outcomes are exercised


FUSED = {   # each fused entry point and every helper inlined into it
    control_terms: ("shape_terms", "md_d4", "_md_det", "_control_body", "_md_inverse",
                    "_md_prime", "_hd_gradient", "_vd_gradient", "_z_offset", "_psi_row1",
                    "alpha_from_psi"),
    open_loop_rhs_flat: ("_inertia", "_inv2"),
}


@pytest.mark.parametrize("fn", FUSED, ids=lambda fn: fn.__name__)
def test_fused_entry_points_call_no_helper(fn):
    code = fn.__code__
    assert code.co_filename == _fused.__file__
    assert not set(FUSED[fn]) & set(code.co_names + code.co_freevars)
    spec, seen, todo = fn.__wrapped__, set(), [fn.__wrapped__]
    while todo:   # the helper-calling definition calls exactly these, directly or not
        f = todo.pop()
        for name in f.__code__.co_names:
            g = f.__globals__.get(name)
            if isinstance(g, types.FunctionType) and g.__module__ == f.__module__ \
                    and name not in seen:
                seen.add(name)
                todo.append(g)
    assert seen == set(FUSED[fn])
    rng = np.random.default_rng(24)
    cfg = load_config(str(PRESETS / "fig4.yaml"))
    k, params = coeffs(cfg.params, cfg.gains), cfg.params
    for q1, q2, p1c, p2c in (rng.uniform(-1.0, 1.0, size=(2000, 4)) * 2.0).tolist():
        s, c = trig(q2)
        args = {control_terms: (k, q1, q2, s, c, p1c, p2c),
                open_loop_rhs_flat: (params, s, c, p1c, p2c, q1, 0.5)}[fn]
        assert bit_outcome(fn, *args) == bit_outcome(spec, *args)


REWRITE = "python tools/fusion.py src/ripsim"


@pytest.mark.parametrize("fn", FUSED, ids=lambda fn: fn.__name__)
def test_fused_module_is_fresh(fn):
    # _fused.py holds what fusion prints from the source as it is now: a definition or
    # helper edited without rewriting the file fails here. The factory fusion prints for
    # fn, compiled and bound as its module binds it, has fn's code and constants; and the
    # syntax trees of the whole file are compared, as ast.unparse prints some nodes
    # differently across Python versions (3.10 brackets a tuple target)
    namespace: dict = {}
    exec(fusion.factory(inspect.getsourcefile(fn.__wrapped__), fn.__name__), namespace)
    ref = bind(namespace[fn.__name__ + "_factory"], fn.__wrapped__)
    stale = [field for field in ("co_code", "co_consts", "co_names", "co_varnames",
                                 "co_freevars", "co_flags")
             if getattr(fn.__code__, field) != getattr(ref.__code__, field)]
    assert not stale, (f"src/ripsim/_fused.py is stale ({fn.__name__}: {', '.join(stale)});"
                       f" rewrite it from the repository root with: {REWRITE}")
    assert [c.cell_contents for c in fn.__closure__ or ()] == \
        [c.cell_contents for c in ref.__closure__ or ()]
    fused_py = Path(_fused.__file__)
    want = fused_py.read_text(encoding="utf-8")
    assert ast.dump(ast.parse(fusion.fused_source(fused_py.parent))) == ast.dump(ast.parse(want)), \
        f"src/ripsim/_fused.py is stale; rewrite it from the repository root with: {REWRITE}"


def test_fusion_rewrites_a_fused_module_that_stops_the_import(tmp_path):
    # renaming a global the fused code reads leaves _fused.py naming the old one, so the
    # package no longer imports; tools/fusion.py reads the copy's source files, not the
    # package, and rewrites it, after which the copy imports and control_terms gives the
    # same bits
    shutil.copytree(Path(_fused.__file__).parent.parent, tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    pkg = tmp_path / "src" / "ripsim"
    text = (pkg / "controller.py").read_text(encoding="utf-8")
    assert text.count("_math_atan") == 2
    (pkg / "controller.py").write_text(text.replace("_math_atan", "_float_atan"),
                                       encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(tmp_path / "src")}
    stale = subprocess.run([sys.executable, "-c", "import ripsim"], env=env,
                           capture_output=True, text=True)
    assert stale.returncode != 0 and REWRITE in stale.stderr
    subprocess.run([sys.executable, str(FUSION_PY), str(pkg)], env=env, check=True)
    fused_text = (pkg / "_fused.py").read_text(encoding="utf-8")
    assert "_float_atan" in fused_text and "_math_atan" not in fused_text
    states = [(0.3, 0.2, 0.1, -0.2), (-1.0, -0.4, 0.5, 0.25), (-0.0, 1e-9, -0.3, 0.0),
              (2.5, -0.7, 3.0, -1e-3)]
    script = ("import math, sys\n"
              "import ripsim\n"
              "from ripsim.config import load_config\n"
              "from ripsim.controller import coeffs, control_terms\n"
              "cfg = load_config(sys.argv[1])\n"
              "k = coeffs(cfg.params, cfg.gains)\n"
              "print(ripsim.__file__)\n"
              f"for q1, q2, p1, p2 in {states!r}:\n"
              "    u, pt1 = control_terms(k, q1, q2, math.sin(q2), math.cos(q2), p1, p2)\n"
              "    print(u.hex(), pt1.hex())\n")
    out = subprocess.run([sys.executable, "-c", script, str(PRESETS / "fig4.yaml")], env=env,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert Path(out[0]) == pkg / "__init__.py"
    cfg = load_config(str(PRESETS / "fig4.yaml"))
    k = coeffs(cfg.params, cfg.gains)
    assert out[1:] == [" ".join(v.hex() for v in control_terms(k, q1, q2, *trig(q2), p1, p2))
                       for q1, q2, p1, p2 in states]


def test_bind_names_a_stale_fused_module():
    # a factory parameter that is no global of the entry's module: the factory was
    # written before a rename, and the error says how to rewrite _fused.py
    def stale_factory(_swap, _renamed_away):
        def entry(a, b):
            return _swap(a, b)
        return entry
    message = ("^src/ripsim/_fused\\.py is stale: stale_factory reads _renamed_away, which"
               " \\S+ does not define; rewrite it from the repository root with: "
               + REWRITE.replace(".", "\\.") + "$")
    with pytest.raises(ImportError, match=message):
        bind(stale_factory, _swap)


def test_import_fuses_nothing():
    # the fused entry points are bound from _fused.py: a fresh import of the modules the
    # benchmark imports parses and prints no source (fusion does both), and the build
    # tool is no module of the package
    script = ("import ast, importlib, importlib.util, sys\n"
              "calls = []\n"
              "def counted(f):\n"
              "    def call(*args, **kwargs):\n"
              "        calls.append(f.__name__)\n"
              "        return f(*args, **kwargs)\n"
              "    return call\n"
              "ast.parse, ast.unparse = counted(ast.parse), counted(ast.unparse)\n"
              "for name in sys.argv[1:]:\n"
              "    importlib.import_module('ripsim.' + name)\n"
              "print(calls, importlib.util.find_spec('ripsim.fusion') is None)\n")
    modules = ["config", "simulate", "cli", "svgplot", "verify", "controller", "model",
               "adaptive", "regressor"]
    src = str(Path(_fused.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script, *modules], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[] True\n"


def in_band_states(rng, edge, n, width=4):
    """n random states (q1, q2, p1, p2, then width - 4 estimates) with |q2| < 0.99 edge:
    q1 = +-0.0 in every fourth, the estimates +-0.0 in every fourth from the second, and
    every signed-zero (q1, q2, p1, p2) first."""
    xs = rng.uniform(-1.0, 1.0, size=(n, width)) * ([3.0, 0.99 * edge, 5.0, 5.0]
                                                   + [2.0] * (width - 4))
    xs[::4, 0] = np.copysign(0.0, xs[::4, 0])   # q1 = +-0.0: f is all signed zeros
    xs[1::4, 4:] = np.copysign(0.0, xs[1::4, 4:])   # theta_hat = +-0.0
    xs[:16, :4] = list(itertools.product([0.0, -0.0], repeat=4))
    return xs


def trig_arrays(q2):
    """math.sin and math.cos of each element, as run() records them."""
    return (np.array([math.sin(v) for v in q2.tolist()]),
            np.array([math.cos(v) for v in q2.tolist()]))


ARRAY_ENTRY_POINTS = [desired_hamiltonian, hamiltonian, control_terms_array, open_loop_rhs_array]


@pytest.mark.parametrize("fn", ARRAY_ENTRY_POINTS,
                         ids=["desired_hamiltonian", "hamiltonian", "control_terms_array",
                              "open_loop_rhs_array"])
def test_array_entry_points_equal_float_calls(fn):
    # run() calls the first two once per block of recorded rows on arrays, and check 6
    # the other two once per block of samples: element by element they give the doubles
    # of the float calls and of the float references
    rng = np.random.default_rng(26)
    cases = [(params, gains, edge) for params, gains in kernel_cases(rng)
             if math.isfinite(edge := _pd_endpoint(params, gains))]   # nan: Md(0) not PD
    assert len(cases) >= 5
    for params, gains, edge in cases[:5]:
        k = coeffs(params, gains)
        xs = in_band_states(rng, edge, 2000)
        q1, q2, p1c, p2c = xs.T
        s, c = trig_arrays(q2)
        states = xs.tolist()
        if fn is hamiltonian:
            got = hamiltonian(params, s, c, p1c, p2c)
            refs = [[hamiltonian(params, *trig(x[1]), x[2], x[3]) for x in states]]
        elif fn is control_terms_array:   # (u, ptilde1)
            got = np.stack(control_terms_array(k, q1, q2, s, c, p1c, p2c))
            refs = [np.transpose([control_terms(k, x[0], x[1], *trig(x[1]), x[2], x[3])
                                  for x in states])]
        elif fn is open_loop_rhs_array:   # (qdot1, qdot2, pdot1, pdot2) at u = q1, d = 0.5
            got = np.stack(open_loop_rhs_array(params, s, c, p1c, p2c, q1, 0.5))
            refs = [np.transpose([open_loop_rhs_flat(params, *trig(x[1]), x[2], x[3], x[0], 0.5)
                                  for x in states])]
        else:
            got = desired_hamiltonian(k, q1, q2, s, c, p1c, p2c)
            refs = [[desired_hamiltonian(k, x[0], x[1], *trig(x[1]), x[2], x[3]) for x in states],
                    [desired_hamiltonian_ref(params, gains, *x) for x in states],
                    [composed_desired_hamiltonian(params, gains, *x) for x in states]]
        assert type(got) is np.ndarray and got.shape[-1:] == q2.shape
        for ref in refs:
            assert bits(got) == bits(ref)


def source_of(fn):
    return "".join(linecache.getlines(fn.__code__.co_filename))


def test_one_trig_pair_per_stage_and_row():
    cfg = load_config(str(PRESETS / "fig4.yaml"))
    params, k = cfg.params, coeffs(cfg.params, cfg.gains)
    for fn in FUSED:   # each takes (s, c) from its caller
        code, source = fn.__code__, source_of(fn)
        assert "sin(" not in source and "cos(" not in source, fn.__name__
        assert not {"math", "sin", "cos"} & set(code.co_names + code.co_freevars), fn.__name__
    terms, dtheta, ginv_rows = stage_case(np.random.default_rng(8), 3)
    dist = DisturbanceSpec(RegressorSpec(terms), np.array(dtheta))
    for fn in (_stage(k, params, (), [], []), _stage(k, params, terms, dtheta, []),
               _stage(k, params, terms, dtheta, ginv_rows), packed_row(k, None, False)[0],
               packed_row(k, dist, False)[0], packed_row(k, dist, True)[0]):
        source = source_of(fn)
        assert source.count("sin(") == source.count("sin(q2)") == 1, source
        assert source.count("cos(") == source.count("cos(q2)") == 1, source


# The SHA-256 of each generated function's source, as linecache holds it, by shape. A
# change to the generated code changes these, and says so in CHANGES.md.
GENERATED_SHA256 = {
    "stage nominal":
        "f24829acaf781927471befee432b524c1d08ca14a465e7b03c2f624b663a7bbf",
    "stage disturbed 3":
        "31ea0147392904818b31c9b34c51629beb69f68391d9cbf27767eeeca9f42708",
    "stage robust 3, Gamma = I":
        "05875a7203000c56d242d08426aeceb6a6c89b8bc6ac135e097cf18f5e98bbc1",
    "stage robust 3, dense Gamma":
        "21aa00352f26a7674ad464dad8e9acac1bdd20bb626be36ee33637fcd7747f65",
    "stage robust 3, Gamma^-1 with 0.0 and 1.0":
        "5bf19e04db98231a1ab1d777a855ab7856d1d1606e4fd13a22c66efa817a8e7a",
    "row nominal":
        "bc31c9914934ba4ae5f3d46783b6133d8041e8284c3c94fb977455fc25c37bbb",
    "row disturbed":
        "692cbe91ae8f8dd57a0357f0fa1acdb9cde248c75c80f5b225e1c78682030792",
    "row robust 3":
        "8a769282fa41c386cd9dfabb98f6efae7e76af8ac8e5bd7d0dfd908854f852ae",
    "disturbance sum 3":
        "4012d167e3adf33cadddee5d74c72d62bac2479626403a1b01dd808b00a2de36",
    "rk4 4":
        "8b1a64471b6de63e977bcdf6aba86c9652ff3341ed15f780ed433099640bacf7",
    "rk4 7":
        "db62c363bf10077b8f685c8cedffffd5e33622cb2a5146c5e07b9b38f27437d1",
}


def generated_function(shape):
    """The generated function of one shape of GENERATED_SHA256, on fig4's plant and gains
    with three terms: the source depends on ell and on which Gamma^{-1} entries fold."""
    cfg = load_config(str(PRESETS / "fig4.yaml"))
    params, k = cfg.params, coeffs(cfg.params, cfg.gains)
    terms, dtheta, _ = stage_case(np.random.default_rng(9), 3)
    dist = DisturbanceSpec(RegressorSpec(terms), np.array(dtheta))
    ginv = {"Gamma = I": np.eye(3).tolist(),
            "dense Gamma": np.linalg.inv([[2.0, 0.5, 0.0], [0.5, 2.0, 0.5],
                                          [0.0, 0.5, 2.0]]).tolist(),
            "Gamma^-1 with 0.0 and 1.0": [[1.0, 0.0, 0.25], [-0.0, 2.0, 1.0],
                                          [0.25, 1.0, 0.5]]}
    if shape.startswith("stage robust 3, "):
        return _stage(k, params, terms, dtheta, ginv[shape.removeprefix("stage robust 3, ")])
    return {"stage nominal": lambda: _stage(k, params, (), [], []),
            "stage disturbed 3": lambda: _stage(k, params, terms, dtheta, []),
            "row nominal": lambda: packed_row(k, None, False)[0],
            "row disturbed": lambda: packed_row(k, dist, False)[0],
            "row robust 3": lambda: packed_row(k, dist, True)[0],
            "disturbance sum 3": lambda: dist._sum,
            "rk4 4": lambda: sim._rk4_kernel.__wrapped__(4),   # uncached: registered now
            "rk4 7": lambda: sim._rk4_kernel.__wrapped__(7)}[shape]()


@pytest.mark.parametrize("shape", GENERATED_SHA256)
def test_generated_source_text_is_pinned(shape):
    source = source_of(generated_function(shape))
    assert source.startswith("def factory(") and source.endswith("\n"), source
    assert hashlib.sha256(source.encode()).hexdigest() == GENERATED_SHA256[shape], source


def constant_operations(source, name):
    """The operations of function `name` in source whose value is fixed for one run, as
    text: each binary operation of two parameter-only operands and each negation of
    one. An operand is parameter-only when it is k.<field> (k the first parameter), a
    number or a negated number (a compile-time constant), a name bound only from
    parameter-only values, or such an operation."""
    func = next(n for n in ast.walk(ast.parse(source))
                if isinstance(n, ast.FunctionDef) and n.name == name)
    k = func.args.args[0].arg
    assigned: dict = {}   # name -> the values it is bound from (None: not a plain value)
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple):
                    pairs = (zip(target.elts, node.value.elts)
                             if isinstance(node.value, ast.Tuple)
                             and len(node.value.elts) == len(target.elts)
                             else [(t, None) for t in target.elts])
                for t, value in pairs:
                    assigned.setdefault(t.id, []).append(value)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.NamedExpr, ast.For)):
            raise AssertionError(f"unexpected binding in {name}: {ast.unparse(node)}")
    fixed: set = set()

    def constant(node):
        if isinstance(node, ast.Constant):
            return isinstance(node.value, (int, float))
        if isinstance(node, ast.Attribute):
            return isinstance(node.value, ast.Name) and node.value.id == k
        if isinstance(node, ast.Name):
            return node.id in fixed
        if isinstance(node, ast.BinOp):
            return constant(node.left) and constant(node.right)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return constant(node.operand)
        return False

    grown = True
    while grown:   # names bound from names bound from constants, and so on
        grown = False
        for n, values in assigned.items():
            if n not in fixed and all(v is not None and constant(v) for v in values):
                fixed.add(n)
                grown = True
    found = [node for node in ast.walk(func)
             if isinstance(node, ast.BinOp) and constant(node.left) and constant(node.right)
             or isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
             and not isinstance(node.operand, ast.Constant) and constant(node.operand)]
    return [ast.unparse(n) for n in sorted(found, key=lambda n: (n.lineno, n.col_offset))]


def test_constant_operation_guard_finds_planted_ones():
    source = ("def f(k, s, c):\n"
              "    a, b = k.p3, 2.0\n"
              "    e, g = s, c\n"
              "    h = -a\n"
              "    return -2.0 * s + b * k.p2 * e * c + h * -k.kv - c * -1.0 + k * 0.5\n")
    assert constant_operations(source, "f") == ["-a", "b * k.p2", "h * -k.kv", "-k.kv"]


@pytest.mark.parametrize("fn", [control_terms, desired_hamiltonian],
                         ids=lambda fn: fn.__name__)
def test_fused_kernel_forms_no_parameter_only_operation(fn):
    # each product or negation of run constants is a Coeffs field, formed once per run;
    # desired_hamiltonian is not fused, so its def is read, and _vd, the one helper it
    # calls that fused control_terms does not inline
    assert constant_operations(source_of(fn), fn.__name__) == []
    if fn is desired_hamiltonian:
        assert constant_operations(inspect.getsource(_vd), "_vd") == []


def test_shaping_forms_no_parameter_only_operation():
    # the array route's one entry point: its psi3' reads 2w from Coeffs as well
    assert constant_operations(inspect.getsource(shaping), "shaping") == []


# Helpers of the forms fusion accepts and refuses. They are top-level defs so that
# fusion reads them from this file, as it reads src's.
def fused(entry):
    """entry, a def of this file, with every helper call inlined: the factory that
    fusion.factory prints for it, compiled and bound to this module's globals
    (codegen.bind), as controller and model bind theirs from _fused.py."""
    namespace: dict = {}
    exec(fusion.factory(__file__, entry.__name__), namespace)
    return bind(namespace[entry.__name__ + "_factory"], entry)


def _pair(x, scale=2.0):
    y = x * scale
    if y > 1e300:
        raise OverflowError(y)
    return y + 1.0, y


def _swap(a, b):
    return b, a


def _bracketed(a, b):
    return (
        b - a,
        a
    )                       # the line of the closing bracket holds no code


def _accepted(x, y):
    a, b = _pair(x + y, 2.0)  # an argument that is not a name
    a, b = _swap(a, b)      # b reads the a assigned before it: one tuple assignment
    c, d = _swap(a, 3.0)    # a number argument
    e, f = _bracketed(c, d)
    return a, b, c, d, e, f


def _looping(x):
    y = x
    for _ in range(2):
        y = y * x
    return y


def _early(x):
    if x > 0.0:
        return x
    return -x


def _nested(x):
    y = _swap(_early(x), x)
    return y


def _sets_param(x):
    x = x + 1.0
    return x


def _calls_looping(x):
    y = _looping(x)
    return y


def _calls_early(x):
    y = _early(x)
    return y


def _calls_nested(x):
    y = _nested(x)
    return y


def _calls_sets_param(x):
    y = _sets_param(x)
    return y


def _binds_underscore(x):
    _, b = _pair(x, 2.0)    # _ is an ordinary name: y + 1.0 is bound to it
    return b


def _reads_underscore(x):
    _, b = _pair(x, 2.0)
    return _ + b


def _calls_reads_underscore(x):
    y = _reads_underscore(x)
    return y


def _keywords(x, y):
    r = dict(x=y, y=x)      # x and y are renamed, the keywords x= and y= are not
    return r


def _calls_keywords(x):
    y = _keywords(x + 1.0, x)
    return y


def _labelled(x):
    sign = "x > 0" if x > 0.0 else 'x <= 0'   # strings keep their text, x in them too
    return sign, x


def _calls_labelled(x):
    a, b = _labelled(x * 2.0)
    return a, b


def _calls_with_keyword(x):
    y = _pair(x, scale=3.0)
    return y


def _calls_with_unpacked(x):
    y = _pair(*x)
    return y


def _calls_without_scale(x):
    y = _pair(x)            # scale's default is not inlined
    return y


def test_fuse_keeps_values_and_order():
    fn = fused(_accepted)
    assert not {"_pair", "_swap", "_bracketed"} & set(fn.__code__.co_names
                                                      + fn.__code__.co_freevars)
    for x, y in [(0.25, -1.5), (-0.0, 0.0), (3.0, 1e-310), (-1e300, 1e299)]:
        assert bit_outcome(fn, x, y) == bit_outcome(_accepted, x, y)
    with pytest.raises(OverflowError):
        fn(1e300, 1e300)


def test_fuse_treats_underscore_as_a_name():
    # no fused entry point discards a helper's result, so _ has no rule of its own: a
    # target _ is bound and may be read, in the entry and (renamed) in a helper
    for entry in (_binds_underscore, _calls_reads_underscore):
        fn = fused(entry)
        for x in (0.25, -0.0, 1e-310, -1e301):
            assert bit_outcome(fn, x) == bit_outcome(entry, x)
        with pytest.raises(OverflowError):
            fn(1e301)
    assert "_" in fused(_binds_underscore).__code__.co_varnames
    assert "_" not in fused(_calls_reads_underscore).__code__.co_varnames


def test_fuse_keeps_keywords_and_strings():
    fn = fused(_calls_keywords)
    assert "_keywords" not in fn.__code__.co_names + fn.__code__.co_freevars
    for x in (1.0, -0.0, 1e-310, 1e308):
        got, want = fn(x), _calls_keywords(x)
        assert list(got) == list(want) == ["x", "y"]
        assert bits(list(got.values())) == bits(list(want.values()))
    assert fn(1.0) == {"x": 1.0, "y": 2.0}
    fn = fused(_calls_labelled)
    assert "_labelled" not in fn.__code__.co_names + fn.__code__.co_freevars
    for x in (0.25, -0.0, -3.0):
        got, want = fn(x), _calls_labelled(x)
        assert got[0] == want[0] and bits([got[1]]) == bits([want[1]])
    assert fn(1.0) == ("x > 0", 2.0) and fn(-1.0) == ("x <= 0", -2.0)


@pytest.mark.parametrize("entry, helper, why", [
    (_calls_looping, "_looping", "a loop"),
    (_calls_early, "_early", "an early return"),
    (_calls_nested, "_nested", "a helper call that is not a statement of its own"),
    (_calls_sets_param, "_sets_param", "an assignment to a parameter"),
    (_calls_with_keyword, "_calls_with_keyword",
     "a helper call with unpacked or keyword arguments"),
    (_calls_with_unpacked, "_calls_with_unpacked",
     "a helper call with unpacked or keyword arguments"),
    (_calls_without_scale, "_pair", "no argument scale"),
], ids=["loop", "early_return", "nested_call", "assigns_parameter", "keyword_call",
        "unpacked_call", "omitted_argument"])
def test_fuse_refuses_at_build_time(entry, helper, why):
    with pytest.raises(ValueError, match=f"^cannot inline {helper}: {why}"):
        fused(entry)


# The three stage closures simulate.run picked by mode before its stage was
# generated: the reference for simulate._stage. Each call takes its own sin/cos
# pair, as each entry point once took it from q2.
def stage_ref(k, params, terms, dtheta, ginv_rows):
    if not terms:
        def rhs(x):
            q1, q2, p1c, p2c = x
            u, _ = control_terms(k, q1, q2, *trig(q2), p1c, p2c)
            return open_loop_rhs_flat(params, *trig(q2), p1c, p2c, u, 0.0)
    elif not ginv_rows:
        def rhs(x):
            q1, q2, p1c, p2c = x
            u, _ = control_terms(k, q1, q2, *trig(q2), p1c, p2c)
            d = dot([tm(q1, q2, p1c, p2c) for tm in terms], dtheta)
            return open_loop_rhs_flat(params, *trig(q2), p1c, p2c, u, d)
    else:
        def rhs(x):
            q1, q2, p1c, p2c = x[:4]
            u, pt1 = control_terms(k, q1, q2, *trig(q2), p1c, p2c)
            fvals = [tm(q1, q2, p1c, p2c) for tm in terms]
            return [*open_loop_rhs_flat(params, *trig(q2), p1c, p2c, dot(fvals, x[4:], u),
                                        dot(fvals, dtheta)),
                    *[-pt1 * dot(row, fvals) for row in ginv_rows]]
    return rhs


# Each term has a q1 factor, so at q1 = +-0.0 every f_i is a signed zero and only
# the 0.0 that dot starts from fixes the sign of each Gamma^{-1} f row.
STAGE_TERMS = ("q1", "q1*cos(q2)", "sin(q1)*p2", "q1*q1*p1", "sin(q1)",
               "q1*sin(p2)*2.5", "cos(p1)*q1", "q1*q2*p1*p2")


def stage_case(rng, ell):
    """ell regressor terms, theta with +-0.0 entries, and a random SPD Gamma^{-1} (rows)."""
    terms = tuple(parse_term(f"{j // 8 + 1.5}*{STAGE_TERMS[j % 8]}") for j in range(ell))
    dtheta = rng.uniform(-1.0, 1.0, ell).tolist()
    dtheta[0] = -0.0
    if ell > 1:
        dtheta[1] = 0.0
    a = rng.normal(size=(ell, ell))
    gamma = a @ a.T + ell * np.eye(ell)
    return terms, dtheta, np.linalg.inv(gamma).tolist()


def stage_outcome(rhs, x):
    try:
        return bits(list(rhs(x)))
    except DefinitenessLost as e:
        return ("DefinitenessLost", str(e), *bits([e.det_md]))


@pytest.mark.parametrize("ell", [1, 3, 8])
def test_generated_stage_equals_mode_closures(ell):
    cfg = load_config(str(PRESETS / "fig4.yaml"))
    params, k = cfg.params, coeffs(cfg.params, cfg.gains)
    edge = _pd_endpoint(cfg.params, cfg.gains)
    rng = np.random.default_rng(40 + ell)
    terms, dtheta, ginv_rows = stage_case(rng, ell)
    modes = {"nominal": ((), [], []), "disturbed_nominal": (terms, dtheta, []),
             "disturbed_robust": (terms, dtheta, ginv_rows)}
    for mode, args in modes.items():
        stage, ref = _stage(k, params, *args), stage_ref(k, params, *args)
        width = 4 + (ell if args[2] else 0)
        xs = rng.uniform(-1.0, 1.0, size=(10 ** 4, width)) * ([3.0, 0.99 * edge, 5.0, 5.0]
                                                             + [2.0] * (width - 4))
        xs[::4, 0] = np.copysign(0.0, xs[::4, 0])   # q1 = +-0.0: f is all signed zeros
        # every signed-zero (q1, q2, p1, p2); u is -0.0 at some, so u - d shows the sign of d
        xs[:16, :4] = list(itertools.product([0.0, -0.0], repeat=4))
        for x in xs.tolist():
            out = stage(x)
            assert type(out) is tuple and len(out) == width
            assert bits(list(out)) == bits(list(ref(x))), (mode, x)
        for x in xs[16:216].tolist():   # past the band's edge: the same DefinitenessLost
            x[1] = math.copysign(edge + 0.01 + 0.4 * abs(x[1]), x[1])
            got = stage_outcome(stage, x)
            assert got[0] == "DefinitenessLost" and got == stage_outcome(ref, x), (mode, x)


def test_generated_stage_at_ell_64():
    cfg = load_config(str(PRESETS / "fig4.yaml"))
    params, k = cfg.params, coeffs(cfg.params, cfg.gains)
    rng = np.random.default_rng(64)
    args = stage_case(rng, 64)
    stage, ref = _stage(k, params, *args), stage_ref(k, params, *args)
    for x in rng.uniform(-0.5, 0.5, size=(20, 68)).tolist():
        assert bits(list(stage(x))) == bits(list(ref(x)))


# The record block of simulate.run before its row was generated, without the
# energies that _energies now fills after the loop: the reference for
# simulate._row, each call taking its own sin/cos pair. The row also stores
# (sin q2, cos q2) in the H and Hd slots, for _energies.
def row_ref(k, dist, robust):
    terms = dist.regressor.terms if robust else ()

    def row(x):
        q1, q2, p1c, p2c, *theta_hat = x
        u_now, pt1 = control_terms(k, q1, q2, *trig(q2), p1c, p2c)
        d_now = dist.value(q1, q2, p1c, p2c) if dist is not None else 0.0
        if robust:
            fvals = [tm(q1, q2, p1c, p2c) for tm in terms]
            dhat = dot(fvals, theta_hat)
            u_now = dot(fvals, theta_hat, u_now)
        else:
            dhat = 0.0
        return (q1, q2, p1c, p2c, u_now, d_now, dhat, pt1, *theta_hat, *trig(q2))
    return row


# The energies of the record block before they left the row: the float calls at
# each row's state, V by lyapunov_value. The reference for simulate._energies.
def energies_ref(k, params, dist, gamma_rows):
    dtheta = dist.theta.tolist() if gamma_rows else []

    def energies(x):
        q1, q2, p1c, p2c, *theta_hat = x
        hd = desired_hamiltonian(k, q1, q2, *trig(q2), p1c, p2c)
        v = lyapunov_value(gamma_rows, theta_hat, dtheta, hd) if gamma_rows else hd
        return hamiltonian(params, *trig(q2), p1c, p2c), hd, v
    return energies


def packed_row(k, dist, robust, n=1):
    """simulate._row packing into an n-row buffer, as run() builds it, and the buffer."""
    width = 11 + (dist.regressor.ell if robust else 0)
    rec = np.empty((n, width))
    return _row(k, dist, robust, struct.Struct(f"{width - 1}d").pack_into, rec), rec


UNWRITTEN = 0xA5   # every byte of the buffer before a row is packed into it


def row_outcome(row, rec, x):
    """The bits that row(x, 0) packs into rec, read back; or its DefinitenessLost, as
    stage_outcome gives it, with rec left unwritten. The V_lyap slot stays unwritten."""
    rec.view(np.uint8)[:] = UNWRITTEN
    try:
        assert row(x, 0) is None
    except DefinitenessLost as e:
        assert (rec.view(np.uint8) == UNWRITTEN).all(), x
        return ("DefinitenessLost", str(e), *bits([e.det_md]))
    assert (rec[:, -1:].view(np.uint8) == UNWRITTEN).all(), x
    return bits(rec[0, :-1].tolist())


def recorded_block(k, params, dist, gamma_rows, xs):
    """The states xs recorded as run() records them: each packed by the generated row
    at its offset in one buffer, then H, Hd and V_lyap filled by _energies."""
    (row, rec) = packed_row(k, dist, bool(gamma_rows), len(xs))
    for i, x in enumerate(xs):
        row(x, i * rec.strides[0])
    _energies(k, params, rec, dist.theta.tolist() if dist is not None else [], gamma_rows)
    return rec


@pytest.mark.parametrize("ell", [1, 3, 8])
def test_generated_row_equals_record_block(ell):
    cfg = load_config(str(PRESETS / "fig4.yaml"))
    params, k = cfg.params, coeffs(cfg.params, cfg.gains)
    edge = _pd_endpoint(cfg.params, cfg.gains)
    rng = np.random.default_rng(50 + ell)
    terms, dtheta, ginv_rows = stage_case(rng, ell)
    dist = DisturbanceSpec(RegressorSpec(terms), np.array(dtheta))
    gamma_rows = np.linalg.inv(ginv_rows).tolist()
    modes = {"nominal": (None, []), "disturbed_nominal": (dist, []),
             "disturbed_robust": (dist, gamma_rows)}
    for mode, (d, g) in modes.items():
        (row, rec), ref = packed_row(k, d, bool(g)), row_ref(k, d, bool(g))
        xs = in_band_states(rng, edge, 10 ** 4, 4 + len(g)).tolist()
        assert rec.shape == (1, 11 + len(g))
        for x in xs:
            assert row_outcome(row, rec, x) == bits(list(ref(x))), (mode, x)
        # the pass over the same rows: H, Hd and V_lyap of the float calls, bit for bit
        energies = energies_ref(k, params, d, g)
        block = recorded_block(k, params, d, g, xs)
        assert bits(block[:, -3:]) == bits([energies(x) for x in xs]), mode
        for x in xs[16:216]:   # past the band's edge: the same DefinitenessLost
            x[1] = math.copysign(edge + 0.01 + 0.4 * abs(x[1]), x[1])
            got = row_outcome(row, rec, x)
            assert got[0] == "DefinitenessLost" and got == stage_outcome(ref, x), (mode, x)


def gamma_case(kind, ell):
    """An SPD Gamma of ell x ell whose inverse has zero or unit entries: "identity";
    "scaled", 2.5 I; "blocks", SPD 2 x 2 blocks on the diagonal (and 2.5 last at odd
    ell), so every entry outside the blocks of Gamma and of its inverse is zero."""
    gamma = np.eye(ell) * (1.0 if kind == "identity" else 2.5)
    if kind == "blocks":
        rng = np.random.default_rng(70 + ell)
        for i in range(0, ell - 1, 2):
            a = rng.normal(size=(2, 2))
            gamma[i:i + 2, i:i + 2] = a @ a.T + np.eye(2)
    return gamma


def weights_read(fn, prefix):
    """The names prefix<i>_<j> of the weights a generated function reads: its closure
    variables (codegen.generate) of that prefix."""
    return {name for name in fn.__code__.co_freevars if name.startswith(prefix)}


@pytest.mark.parametrize("kind", ["identity", "scaled", "blocks"])
@pytest.mark.parametrize("ell", [1, 3, 8])
def test_folded_gamma_equals_references(kind, ell, monkeypatch):
    # stage_case draws a dense Gamma^{-1}; these have 0.0 and 1.0 entries, which the
    # stage's generated sums fold: no statement for a zero entry, no product for a unit
    # one. The pass after the loop sums 1/2 e^T (Gamma e) over every entry, as
    # lyapunov_value does; a block of 300 rows makes 2000 rows cross 6 block boundaries
    monkeypatch.setattr(sim, "ENERGY_BLOCK", 300)
    cfg = load_config(str(PRESETS / "fig4.yaml"))
    params, k = cfg.params, coeffs(cfg.params, cfg.gains)
    edge = _pd_endpoint(cfg.params, cfg.gains)
    rng = np.random.default_rng(60 + ell)
    terms, dtheta, _ = stage_case(rng, ell)
    gamma = gamma_case(kind, ell)
    ginv = np.linalg.inv(gamma)
    gamma_rows, ginv_rows = gamma.tolist(), ginv.tolist()
    dist = DisturbanceSpec(RegressorSpec(terms), np.array(dtheta))
    stage, ref = _stage(k, params, terms, dtheta, ginv_rows), \
        stage_ref(k, params, terms, dtheta, ginv_rows)
    multiplied = np.nonzero((ginv != 0.0) & (ginv != 1.0))
    assert weights_read(stage, "g") == {f"g{i}_{j}" for i, j in zip(*multiplied)}
    if kind == "blocks" and ell > 1:
        assert (ginv == 0.0).sum() > 0 and (gamma == 0.0).sum() > 0
    xs = in_band_states(rng, edge, 2000, 4 + ell).tolist()
    for x in xs:
        assert bits(list(stage(x))) == bits(list(ref(x))), (kind, x)
    block = recorded_block(k, params, dist, gamma_rows, xs)
    energies = energies_ref(k, params, dist, gamma_rows)
    assert bits(block[:, -3:]) == bits([energies(x) for x in xs]), kind
    assert bits(block[:, -1]) == bits([lyapunov_value(gamma, x[4:], dtheta, hd)
                                       for x, hd in zip(xs, block[:, -2].tolist())])


def test_energy_pass_names_the_first_state_past_the_band():
    # desired_hamiltonian never returns a value where det Md <= 0: a block holding such
    # a state raises DefinitenessLost naming the first one's q2, and writes nothing
    cfg = load_config(str(PRESETS / "fig2.yaml"))
    params, k = cfg.params, coeffs(cfg.params, cfg.gains)
    edge = _pd_endpoint(cfg.params, cfg.gains)
    xs = in_band_states(np.random.default_rng(27), edge, 500).tolist()
    (row, rec) = packed_row(k, None, False, len(xs))
    for i, x in enumerate(xs):
        row(x, i * rec.strides[0])
    for bad in ([321], [77, 400]):
        block = rec.copy()
        for i in bad:
            q2 = math.copysign(edge + 0.05, xs[i][1])
            block[i, 1], block[i, -3], block[i, -2] = q2, *trig(q2)
        before = block.tobytes()
        with pytest.raises(DefinitenessLost) as info:
            _energies(k, params, block, [], [])
        assert info.value.q2 == block[bad[0], 1] and info.value.det_md <= 0.0
        assert str(info.value).startswith(f"Md not positive definite at q2={block[bad[0], 1]:.6g}")
        assert block.tobytes() == before


def test_energy_pass_memory_is_bounded_by_its_block():
    # the pass's own peak allocation is the same for 2 and for 8 blocks of rows
    cfg = load_config(str(PRESETS / "fig4.yaml"))
    params, k = cfg.params, coeffs(cfg.params, cfg.gains)
    dist, gamma_rows = cfg.disturbance, cfg.adaptive.gamma.tolist()
    rng = np.random.default_rng(28)
    edge = _pd_endpoint(cfg.params, cfg.gains)
    xs = in_band_states(rng, edge, sim.ENERGY_BLOCK, 4 + dist.regressor.ell).tolist()
    one = recorded_block(k, params, dist, gamma_rows, xs)
    peaks = []
    for blocks in (2, 8, 2):
        rec = np.tile(one, (blocks, 1))   # back to the row's (sin q2, cos q2, unwritten)
        rec[:, -3], rec[:, -2], rec[:, -1] = *trig_arrays(rec[:, 1]), math.nan
        tracemalloc.start()
        _energies(k, params, rec, dist.theta.tolist(), gamma_rows)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert bits(rec[:, -3:]) == bits(np.tile(one[:, -3:], (blocks, 1)))
    # equal but for tracemalloc's own bookkeeping (measured: within 500 bytes), where
    # a pass over the whole run would grow by some 20 arrays of 6 blocks' doubles
    assert max(peaks) - min(peaks) < 4096, peaks
    assert max(peaks) < 64 * 8 * sim.ENERGY_BLOCK, peaks


@pytest.fixture(scope="module")
def fig4_short():
    cfg = load_config(str(PRESETS / "fig4.yaml"))
    return cfg, run(dataclasses.replace(cfg, t_end=0.2).scenario())


def recorded(trace, k):
    """(q, p, theta_hat) of the k-th recorded row."""
    return trace.q[k], trace.p[k], trace.theta_hat[k]


# The simulator sums f^T theta_hat term by term; the array-form compositions use
# numpy's dot product, which may add in another order or fuse a
# multiply-add. Any such order is within 3 eps * sum |f_i theta_hat_i| of
# the exact value (measured: 1.2 eps over a 5 s run), so d_hat, u and the
# next state may differ in the last bits; everything else must be equal.
ULPS = 4 * np.finfo(float).eps


def test_robust_rows_equal_public_functions(fig4_short):
    cfg, trace = fig4_short
    params, gains, dist, adaptive = cfg.params, cfg.gains, cfg.disturbance, cfg.adaptive
    assert trace.status == "ok" and trace.t.shape[0] == 201
    for k in range(trace.t.shape[0]):
        q, p, theta_hat = recorded(trace, k)
        u_shaping, pt1 = control_terms(coeffs(params, gains), *q, *trig(q[1]), *p)
        f = eval_regressor(dist.regressor, q, p)
        dot_scale = float(np.abs(f) @ np.abs(theta_hat))
        assert trace.ptilde1[k] == pt1
        assert trace.d[k] == dist.value(*q.tolist(), *p.tolist())
        assert abs(trace.d_hat[k] - float(f @ theta_hat)) <= ULPS * dot_scale
        dhat = 0.0  # as the stages add f^T theta_hat into u; not sum(), compensated on 3.12
        for fv, th in zip(f.tolist(), theta_hat.tolist()):
            dhat += fv * th
        assert bits([trace.d_hat[k]]) == bits([dhat])
        assert abs(trace.u[k] - robust_control(params, gains, dist.regressor, theta_hat, q, p)) \
            <= ULPS * (abs(u_shaping) + dot_scale)
        assert trace.H[k] == hamiltonian(params, *trig(q[1]), *p)
        assert trace.Hd[k] == desired_hamiltonian(coeffs(params, gains), *q, *trig(q[1]), *p)
        assert trace.V_lyap[k] == lyapunov_value(adaptive.gamma, theta_hat, dist.theta,
                                                 trace.Hd[k])


def test_robust_steps_equal_public_rk4(fig4_short):
    cfg, trace = fig4_short
    params, gains, dist, adaptive = cfg.params, cfg.gains, cfg.disturbance, cfg.adaptive

    def rhs(x):
        q, p = np.asarray(x[:2]), np.asarray(x[2:4])
        u = robust_control(params, gains, dist.regressor, x[4:], q, p)
        qdot, pdot = open_loop_rhs(params, q, p, u, dist.value(*q.tolist(), *p.tolist()))
        return np.concatenate([qdot, pdot, adaptation_rhs(params, gains, dist.regressor,
                                                          adaptive, q, p)])

    for k in range(trace.t.shape[0] - 1):
        q, p, theta_hat = recorded(trace, k)
        x = np.concatenate([q, p, theta_hat])
        row = np.concatenate([trace.q[k + 1], trace.p[k + 1], trace.theta_hat[k + 1]])
        np.testing.assert_allclose(row, step_rk4(rhs, x, cfg.dt), rtol=ULPS, atol=0.0)


def formatted_error(fn, *args):
    """The traceback fn(*args) prints, formatted after linecache.checkcache."""
    with pytest.raises(DefinitenessLost) as info:
        fn(*args)
    linecache.checkcache()   # keeps the generated sources: their entries have no mtime
    return "".join(traceback.format_exception(info.type, info.value, info.tb))


def test_generated_code_shows_its_source_in_tracebacks():
    cfg = load_config(str(PRESETS / "fig2.yaml"))
    k = coeffs(cfg.params, cfg.gains)
    text = formatted_error(control_terms, k, 0.0, 1.5, *trig(1.5), 0.0, 0.0)
    assert f'File "{_fused.__file__}", line ' in text and ", in control_terms\n" in text
    assert "    raise DefinitenessLost(q2, " in text
    cfg = load_config(str(PRESETS / "fig4.yaml"))
    k, rng = coeffs(cfg.params, cfg.gains), np.random.default_rng(3)
    stage = _stage(k, cfg.params, *stage_case(rng, 3))
    text = formatted_error(stage, [0.0, 1.5, 0.0, 0.0, 0.1, 0.2, 0.3])
    assert 'File "<closed-loop stage, 3 terms, adaptive>", line 6, in stage\n' \
           "    u, pt1 = control_terms(k, q1, q2, s, c, p1c, p2c)\n" in text
    assert ", in control_terms\n" in text and "    raise DefinitenessLost(q2, " in text


def test_generated_sources_never_share_a_file_name():
    cfg = load_config(str(PRESETS / "fig4.yaml"))
    params, k = cfg.params, coeffs(cfg.params, cfg.gains)
    rng = np.random.default_rng(7)
    fns = []
    for ell in (1, 3):
        terms, dtheta, ginv_rows = stage_case(rng, ell)
        dist = DisturbanceSpec(RegressorSpec(terms), np.array(dtheta))
        fns += [_stage(k, params, (), [], []), _stage(k, params, terms, dtheta, []),
                _stage(k, params, terms, dtheta, ginv_rows), packed_row(k, None, False)[0],
                packed_row(k, dist, False)[0], packed_row(k, dist, True)[0],
                *(t.compiled for t in terms)]
    sources: dict = {}
    for fn in fns:
        code = fn.__code__
        sources.setdefault(code.co_filename, set()).add(source_of(fn))
        assert code.co_name != "fn" and f"def {code.co_name}(" in \
            linecache.getline(code.co_filename, 2)
    assert all(len(s) == 1 and "" not in s for s in sources.values()), sources
    # 5 stages and 4 rows (ell changes neither the nominal stage nor the nominal and
    # disturbed rows), 3 terms
    assert len(sources) == 5 + 4 + 3
