"""Verification suite: matching residuals, region, Hessian, counterexample.

Covers:
  - the seven-report bundle: names, order, all passing on the synthetic set
  - kinetic matching: the analytic route (1e-8) and the finite-difference
    route in details (1e-5) must both hold; a coarse FD step fails the check
    through the fd route alone; a psi3 shift planted in controller.shaping
    is detected
  - Riccati residual for psi3; the grid maximum and its first location
  - potential matching on the complex-step gradient of controller._vd:
    exactness, q1-independence, agreement with _vd_gradient (its control); a
    kappa skew planted in controller._vd_gradient fails the control; a z offset
    cut to its first-order term, or scaled by 1 + 1e-3, fails on four presets
  - region: formula vs million-cell sign scan, EmptyRegion, 100 random draws
  - Md definiteness: endpoint <= rho, k2 growth widens the interval,
    frozen Md(0) eigenvalues; checks 4 and 6 fail when Md(0) is not PD
  - the shared d4 / det Md sign scan walked in blocks of 64 points equals
    the one-pass scans it replaced (presets, random draws, grid edges)
  - the scan's blocks, made as they are scanned, concatenate to linspace's
    grid byte for byte (n from 1 to 10^6, around SCAN_BLOCK); rho_scan and the
    Md interval endpoint at the fixed sizes equal their pinned values per
    preset; under tracemalloc, region_report at 10^6 cells and verify_all on
    default, with numpy.random imported first, peak below 2 MiB (the whole
    grid alone is 8 MB)
  - the one-trig scan (s = sqrt(1 - c c)) finds the same index and points as
    the two-trig scan it replaced, for d4 and det Md (100 random draws and the
    presets, 4000 and 10^5 cells)
  - the blocks certified by interval bounds: every value the point-by-point
    scan computes lies in its block's bounds (d4 and det Md, random draws and
    blocks; block 0 takes none); a planted narrow dip or nan before the
    crossing scans as one pass over the whole grid (200 random draws); on
    every preset checks 3 and 4 form the points of at most 2 blocks, and
    check 6's one-block endpoint scan takes no bounds; a numpy function of a
    range raises
  - Vd Hessian: positive min eigenvalue, FD agreement, 100 random draws; a
    Hessian scaled by 1 + 1e-3 fails check 5 through its fd control on
    every preset
  - closed-loop equivalence: 1e-9 agreement; alpha zeroed in
    controller.shaping (the direct form loses J2) is detected; a nan from
    the control route (control_terms_array) fails; an M_d^{-1} entry scaled
    by 1 + 1e-6 in controller._md_inverse, patched after import, reaches the
    control route and fails on default; the batched check equals the per-sample loop it
    replaced bit for bit (five presets and the synthetic set, seeds 0-3,
    alpha true and zeroed, across blocks); the block
    draws equal successive rng.uniform draws; closed_loop_rhs_direct
    equals plant + control_law composition; one _trig call per block; the
    records on five presets at three (samples, seed) sizes are pinned
  - verify_all passes on every preset
  - Remark-2 counterexample: frozen R(0)=10, threshold over random draws,
    integrated-solution soundness < 1e-6 at SOUNDNESS_H; the one-loop
    integrator equals the per-stage loop it replaced bit for bit (50 random
    specs on two spans, a blow-up spec nan for nan), and the grid formed after
    the loop equals the loop that appended q (200 random specs, two near
    blow-up, nan for nan), cumsum equal to q += hh for both signs of h; a
    checker fault (4 m scaled by 1 + 1e-6) fails the soundness control; a nan
    soundness control, and constants that overflow to inf and nan, fail check
    7 silently; under tracemalloc, check 7 on default peaks below 0.5 MiB
  - pointwise residuals and d4 even in q2
"""
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import ripsim.verify as verify
from ripsim import controller
from ripsim.config import load_config
from ripsim.controller import (
    ControllerGains, EmptyRegion, coeffs, control_law, md_d4, region_rho, shape_terms,
)
from ripsim.model import G, RobotParams
from ripsim.simulate import _spot_residuals
from ripsim.verify import (
    CounterexampleSpec, VerifyOptions, claimed_m22, closed_loop_equivalence,
    closed_loop_rhs_direct, hessian_fd, hessian_vd_check, kinetic_matching,
    md_definiteness_scan, potential_matching, region_report, region_scan,
    remark2_residual, riccati_residual, verify_all, _max_and_arg, _pd_endpoint,
)

from oracles import (
    grad_q_Hd, grid_in_loop_integrated_residual, inertia, inject_shaping_fault,
    momentum_tilde, open_loop_rhs, psi_matrix, shift_psi3, two_trig_sign_scan, zero_alpha,
)

P_SYN = RobotParams(2.0, 1.0, 1.0, 2.0, 1.0)
G_REF = ControllerGains(1.0, 0.1, 100.0)
G_CONV = ControllerGains(1.0, 0.1, 100.0, kappa=1.0, kv=2.0)
PRESETS = Path(__file__).resolve().parent.parent / "presets"
PRESET_NAMES = ("default", "fig2", "fig3", "fig4", "synthetic")

EXPECTED_ORDER = (
    "kinetic_matching", "potential_matching", "region_rho", "md_definiteness",
    "hessian_vd", "closed_loop_equivalence", "remark2_counterexample",
)


def rand_draw(rng):
    """Random plant + gains with a nonempty region and PD Md at 0."""
    while True:
        p = np.exp(rng.uniform(-1.0, 1.0, 5))
        if p[0] * p[3] - p[2] ** 2 <= 1e-3:
            continue
        params = RobotParams(*p)
        gains = ControllerGains(psi40=math.exp(rng.uniform(-0.7, 0.7)),
                                k1=math.exp(rng.uniform(-3.0, -0.5)),
                                k2=math.exp(rng.uniform(2.0, 6.0)),
                                kappa=math.exp(rng.uniform(-2.0, 1.0)))
        try:
            region_rho(params, gains)
        except EmptyRegion:
            continue
        _, _, _, d2, d4, _ = shape_terms(coeffs(params, gains), 0.0, 1.0)  # q2 = 0
        if np.linalg.eigvalsh([[gains.k2, d2], [d2, d4]]).min() > 0:
            return params, gains


def test_verify_all_names_order_and_pass():
    reports = verify_all(P_SYN, G_REF,
                         VerifyOptions(scan_cells=10 ** 5, md_scan_points=10 ** 4))
    assert tuple(r.name for r in reports) == EXPECTED_ORDER
    for r in reports:
        assert r.passed, (r.name, r.max_abs_residual, r.tol)


def test_kinetic_matching_analytic():
    r = kinetic_matching(P_SYN, G_REF)
    assert r.passed and r.max_abs_residual < 1e-8 and r.tol == 1e-8
    assert r.details["al1"] < 1e-8
    assert r.details["al2"] < 1e-8
    assert r.details["ode"] < 1e-8


def test_kinetic_matching_fd(monkeypatch):
    good = kinetic_matching(P_SYN, G_REF)
    assert good.sound and good.details["fd_tol"] == 1e-5
    assert 0.0 < good.details["fd_max_abs_residual"] < 1e-5
    assert good.control == ("fd control", good.details["fd_max_abs_residual"], 1e-5)
    # a coarse step breaks the fd route alone, and the check fails on it
    monkeypatch.setattr(verify, "FD_H", 0.05)
    r = kinetic_matching(P_SYN, G_REF)
    assert r.details["fd_max_abs_residual"] > 1e-5 and not r.sound and not r.passed
    assert (r.max_abs_residual, r.arg_at_max) == (good.max_abs_residual, good.arg_at_max)
    monkeypatch.setattr(verify, "FD_H", math.nan)   # a nan on the fd route fails too
    assert not kinetic_matching(P_SYN, G_REF).passed


def test_kinetic_matching_detects_psi3_shift(monkeypatch):
    inject_shaping_fault(monkeypatch, shift_psi3)
    r = kinetic_matching(P_SYN, G_REF)
    assert not r.passed
    assert r.max_abs_residual > 1e-4


def test_grid_max_takes_first_argmax():
    grid = np.array([-1.0, -0.5, 0.0, 0.5])
    assert _max_and_arg(np.array([0.0, 3.0, 1.0, 3.0]), grid) == (3.0, -0.5)
    assert _max_and_arg(np.zeros(4), grid) == (0.0, 0.0)   # no residual: no location


def test_riccati_residual():
    r = riccati_residual(P_SYN, G_REF)
    assert r.passed and r.max_abs_residual < 1e-8


def test_potential_matching_exact_and_q1_free():
    r = potential_matching(P_SYN, G_REF)
    assert r.passed and r.max_abs_residual < 1e-10
    assert r.details["q1_dependence_of_residual"] < 1e-10
    # the complex-step gradient of _vd agrees with _vd_gradient's closed form
    assert r.control == ("closed-form gradient control",
                         r.details["closed_form_gradient_max_diff"], 1e-10)
    assert r.sound and r.details["closed_form_gradient_tol"] == 1e-10


def test_potential_matching_detects_kappa_skew(monkeypatch):
    true = controller._vd_gradient

    def skewed(k, z, s, ps3):   # kappa off by 0.01 in dVd/dq2 only
        g1, g2 = true(k, z, s, ps3)
        return g1, g2 + 0.01 * z * ps3 / k.psi40

    monkeypatch.setattr(controller, "_vd_gradient", skewed)
    r = potential_matching(P_SYN, G_REF)
    assert not r.sound and not r.passed


@pytest.mark.parametrize("offset", ["first_order", "scaled"])
@pytest.mark.parametrize("name", ["default", "fig2", "fig4", "synthetic"])
def test_wrong_z_offset_fails_potential_matching(monkeypatch, name, offset):
    # a z offset that does not solve the potential PDE: its first-order term
    # a b sin q2, or a atan(b sin q2) scaled by 1 + 1e-3. _vd_gradient assumes
    # dz/dq2 = psi3/psi40 and so zeroes the row for any offset; the complex step
    # of _vd, which reaches the offset through the module, does not
    cfg = load_config(str(PRESETS / f"{name}.yaml"))
    true = controller._z_offset
    wrong = {"first_order": lambda k, s, atan=math.atan: k.za * (k.zb * s),
             "scaled": lambda k, s, atan=math.atan: (1 + 1e-3) * true(k, s, atan)}[offset]
    monkeypatch.setattr(controller, "_z_offset", wrong)
    r = potential_matching(cfg.params, cfg.gains)
    assert r.max_abs_residual > 1e-4 and not r.sound and not r.passed


def test_region_formula_vs_scan_synthetic():
    r = region_report(P_SYN, G_REF, cells=10 ** 6)
    assert r.passed
    assert r.details["rho_formula"] == pytest.approx(0.5426391022496526, abs=1e-15)
    assert abs(r.details["rho_formula"] - r.details["rho_scan"]) <= r.details["cell"]


def test_region_formula_vs_scan_random_draws():
    rng = np.random.default_rng(31)
    for _ in range(100):
        params, gains = rand_draw(rng)
        r = region_report(params, gains, cells=10 ** 5)
        assert r.passed, (params, gains, r.max_abs_residual, r.tol)


def test_region_scan_empty():
    with pytest.raises(EmptyRegion):
        region_scan(P_SYN, ControllerGains(1.0, 0.6, 100.0), cells=1000)


def test_md_definiteness_synthetic():
    r = md_definiteness_scan(P_SYN, G_REF, n=10 ** 4)
    assert r.passed
    assert r.details["pd_at_0"] is True
    assert r.details["pd_endpoint"] <= r.details["rho"] + math.pi / 2 / 10 ** 4
    ref = np.linalg.eigvalsh(np.array([[100.0, 19.0], [19.0, 8.0]]))
    assert r.details["md_at_0_eigs"] == pytest.approx(list(ref), rel=1e-12)
    assert min(r.details["md_at_0_eigs"]) > 0


def test_md_definiteness_fails_without_pd_origin():
    # det Md(0) = 1*8 - 19^2 < 0: there is no interval, and checks 4 and 6
    # fail (load_config rejects these gains; a library call does not)
    g = ControllerGains(1.0, 0.1, 1.0)
    r = md_definiteness_scan(P_SYN, g, n=10 ** 4)
    assert not r.passed and math.isnan(r.details["pd_endpoint"])
    assert r.details["pd_at_0"] is False
    assert not closed_loop_equivalence(P_SYN, g, n_samples=50).passed


def one_pass_scans(params, gains, cells, n):
    """region_scan's d4 scan and _pd_endpoint's det Md scan as they were
    before the shared blocked scan: whole-grid temporaries, one pass each."""
    q2 = np.linspace(0.0, math.pi / 2, cells + 1)
    d4 = controller.shape_terms(controller.coeffs(params, gains), np.sin(q2), np.cos(q2))[4]
    bad = np.nonzero(d4 <= 0.0)[0]
    rho = math.pi / 2 if bad.size == 0 else 0.5 * float(q2[bad[0] - 1] + q2[bad[0]])
    q2 = np.linspace(0.0, math.pi / 2, n + 1)
    _, _, _, d2, d4, _ = controller.shape_terms(controller.coeffs(params, gains), np.sin(q2),
                                             np.cos(q2))
    bad = np.nonzero(~(gains.k2 * d4 - d2 ** 2 > 0.0))[0]
    return rho, math.pi / 2 if bad.size == 0 else float(q2[bad[0] - 1])


def test_sign_scans_blocks_equal_one_pass(monkeypatch):
    rng = np.random.default_rng(35)
    cases = [plant_and_gains(name) for name in ("P_SYN",) + PRESET_NAMES]
    cases += [rand_draw(rng) for _ in range(10)]
    cases += [(P_SYN, ControllerGains(1.0, 0.1, 1000.0)), (P_SYN, ControllerGains(1.0, 1e-3, 1e6))]
    monkeypatch.setattr(verify, "SCAN_BLOCK", 64)
    for params, gains in cases:
        for cells, n in ((10 ** 4, 4000), (63, 64), (64, 63), (5000, 129)):
            scans = (region_scan(params, gains, cells), _pd_endpoint(params, gains, n))
            assert scans == one_pass_scans(params, gains, cells, n), (params, gains, cells, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4000, verify.SCAN_BLOCK - 1, verify.SCAN_BLOCK,
                               verify.SCAN_BLOCK + 1, 4 * verify.SCAN_BLOCK - 1,
                               4 * verify.SCAN_BLOCK, 4 * verify.SCAN_BLOCK + 1, 10 ** 5, 10 ** 6])
def test_grid_blocks_equal_linspace(n):
    blocks = [verify._block_points(n, start) for start in range(0, n + 1, verify.SCAN_BLOCK)]
    assert all(b.size == verify.SCAN_BLOCK for b in blocks[:-1])
    assert 1 <= blocks[-1].size <= verify.SCAN_BLOCK
    grid = np.concatenate(blocks)
    assert grid.tobytes() == np.linspace(0.0, math.pi / 2, n + 1).tobytes()


@pytest.mark.parametrize("name, rho_scan, pd_endpoint", [
    ("default", 1.082855936811781, 1.079451235773453),
    ("fig2", 1.082855936811781, 1.0255886297276557),
    ("fig3", 1.082855936811781, 1.0255886297276557),
    ("fig4", 1.082855936811781, 1.0255886297276557),
    ("synthetic", 0.5426386596747677, 0.5116554875269016),
])
def test_sign_scans_at_fixed_sizes(name, rho_scan, pd_endpoint):
    cfg = load_config(str(PRESETS / f"{name}.yaml"))
    opts = VerifyOptions()
    assert region_scan(cfg.params, cfg.gains, opts.scan_cells) == rho_scan
    assert _pd_endpoint(cfg.params, cfg.gains, opts.md_scan_points) == pd_endpoint


def det_md_of(gains):
    """Check 4's value function, det Md = k2 d4 - d2^2, as verify._pd_endpoint forms it."""
    def det_md(k, s, c):
        _, _, _, d2, d4, _ = shape_terms(k, s, c)
        return gains.k2 * d4 - d2 * d2
    return det_md


def test_one_trig_scan_equals_two_trig_scan(monkeypatch):
    # checks 3 and 4 as verify runs them (s = sqrt(1 - c c)) against the two-trig
    # scan of d4 and of det Md: the same (index, point before, point at) on 100
    # random admissible draws and the presets, at both of check 4's sizes
    real, seen = verify._sign_scan, []
    monkeypatch.setattr(verify, "_sign_scan", lambda *args: seen.append(real(*args)) or seen[-1])
    rng = np.random.default_rng(36)
    cases = [plant_and_gains(name) for name in ("P_SYN",) + PRESET_NAMES]
    cases += [rand_draw(rng) for _ in range(100)]
    for params, gains in cases:
        for n in (4000, 10 ** 5):
            seen.clear()
            region_scan(params, gains, n)
            _pd_endpoint(params, gains, n)
            want = [two_trig_sign_scan(params, gains, n, lambda k, s, c: md_d4(k, s, c)[1]),
                    two_trig_sign_scan(params, gains, n, det_md_of(gains))]
            assert repr(seen) == repr(want), (params, gains, n)


def one_pass_sign_scan(params, gains, n, value):
    """verify._sign_scan as one pass over the whole grid: no blocks, no bounds."""
    q2 = np.linspace(0.0, math.pi / 2, n + 1)
    c = np.cos(q2)
    bad = np.flatnonzero(~(value(coeffs(params, gains), np.sqrt(1.0 - c * c), c) > 0.0))
    i = int(bad[0]) if bad.size else n + 1
    return (i, float(q2[i - 1]) if i else math.nan,
            float(q2[i]) if i <= n else math.nan)


def test_block_bounds_hold_every_scanned_value():
    # each value the point-by-point scan computes lies in its block's [lo, hi]: d4
    # and det Md, 50 random admissible draws, 5 random blocks at each of 3 sizes
    # (check 6's 4000 cells are one block). The bounds start at block 1: block 0's
    # c reaches 1 + COS_ERR, where 1 - c c < 0 and its bounds would be nan; every
    # bound is a number
    rng = np.random.default_rng(37)
    for _ in range(50):
        params, gains = rand_draw(rng)
        k = coeffs(params, gains)
        for value in (lambda k, s, c: md_d4(k, s, c)[1], det_md_of(gains)):
            for n in (10 ** 4, 10 ** 5, 10 ** 6):
                bounds, last = verify._block_bounds(k, value, n)
                assert bounds.lo.size == last.size == n // verify.SCAN_BLOCK
                assert not np.isnan(bounds.lo).any() and not np.isnan(bounds.hi).any()
                for j in rng.integers(1, bounds.lo.size + 1, 5).tolist():
                    c = np.cos(verify._block_points(n, j * verify.SCAN_BLOCK))
                    got = value(k, verify._sin_of(c), c)
                    lo, hi = bounds.lo[j - 1], bounds.hi[j - 1]
                    assert np.all((lo <= got) & (got <= hi)), (params, gains, n, j)


def test_planted_dips_and_nans_scan_as_one_pass():
    # a narrow dip d4 - A w^2/(w^2 + (c - c0)^2), or a nan d4 + 0 (1/(c - c0)) at a
    # grid point, planted before the crossing: the certified scan finds what one pass
    # over the whole grid finds (200 random draws; the dip may sit between points)
    rng = np.random.default_rng(38)
    for _ in range(200):
        params, gains = rand_draw(rng)
        n = int(rng.choice([4000, 10 ** 5, 10 ** 6]))
        before_cross = int(0.99 * region_rho(params, gains) / (math.pi / 2) * n)
        q2 = (int(rng.integers(1, before_cross)) + float(rng.choice([0.0, rng.random()]))) * (math.pi / 2 / n)
        c0 = float(np.cos(q2))
        if rng.random() < 0.5:
            w = 10.0 ** rng.uniform(-12.0, -4.0)
            a = rng.uniform(0.5, 2.0) * float(md_d4(coeffs(params, gains), math.sin(q2), c0)[1])

            def value(k, s, c):
                return md_d4(k, s, c)[1] - a * w * w / (w * w + (c - c0) * (c - c0))
        else:
            def value(k, s, c):
                return md_d4(k, s, c)[1] + 0.0 * (1.0 / (c - c0))
        with np.errstate(all="ignore"):
            got = verify._sign_scan(params, gains, n, value)
            want = one_pass_sign_scan(params, gains, n, value)
        assert repr(got) == repr(want), (params, gains, n, q2)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_sign_scans_certify_all_but_two_blocks(name, monkeypatch):
    # checks 3 and 4 (and check 6's 4000-cell det Md scan) form the points of at
    # most 2 blocks: block 0, where c reaches 1 + COS_ERR, and the crossing's
    real, formed = verify._block_points, []
    monkeypatch.setattr(verify, "_block_points", lambda n, start: formed.append(start) or real(n, start))
    params, gains = plant_and_gains(name)
    opts = VerifyOptions()
    for scan in (lambda: region_report(params, gains, opts.scan_cells),
                 lambda: md_definiteness_scan(params, gains, opts.md_scan_points),
                 lambda: _pd_endpoint(params, gains)):
        formed.clear()
        scan()
        assert 1 <= len(formed) <= 2, formed


@pytest.mark.parametrize("name", ("P_SYN",) + PRESET_NAMES)
def test_one_block_scan_takes_no_bounds(name, monkeypatch):
    # block 0 is always scanned point by point, so a grid of one block (check 6's
    # 4000-cell det Md scan) takes no interval bounds; check 3's 10^6 cells take
    # them once, for blocks 1 on
    real, calls = verify._block_bounds, []
    monkeypatch.setattr(verify, "_block_bounds",
                        lambda k, value, n: calls.append(n) or real(k, value, n))
    params, gains = plant_and_gains(name)
    _pd_endpoint(params, gains)
    assert calls == []
    region_scan(params, gains, 10 ** 6)
    assert calls == [10 ** 6]


def test_numpy_functions_of_a_range_raise():
    r = verify._Range(np.zeros(2), np.ones(2))
    for fn in (np.cos, np.sqrt, np.negative):
        with pytest.raises(TypeError):
            fn(r)


def traced_peak(fn, *args):
    """The tracemalloc peak, in bytes, of fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sign_scans_hold_no_whole_grid():
    # numpy.random is imported on first use (check 6's default_rng): done here,
    # so that the peak is verify's own arrays whichever test ran before
    np.random.default_rng(0)
    cfg = load_config(str(PRESETS / "default.yaml"))
    assert traced_peak(region_report, cfg.params, cfg.gains, 10 ** 6) < 2 * 2 ** 20
    assert traced_peak(verify_all, cfg.params, cfg.gains, cfg.verify) < 2 * 2 ** 20


def test_check_7_holds_only_its_direction_arrays():
    # one direction's grid and m (2001 points each at SOUNDNESS_H) and the
    # residual's temporaries: 0.14 MiB on default
    opts = load_config(str(PRESETS / "default.yaml")).verify
    assert traced_peak(remark2_residual, opts.counterexample, opts.grid_points) < 0.5 * 2 ** 20


def test_md_interval_widens_with_k2():
    g10 = ControllerGains(1.0, 0.1, 1000.0)
    a = md_definiteness_scan(P_SYN, G_REF, n=10 ** 4)
    b = md_definiteness_scan(P_SYN, g10, n=10 ** 4)
    assert b.details["pd_endpoint"] >= a.details["pd_endpoint"]


def test_hessian_synthetic():
    r = hessian_vd_check(P_SYN, G_REF)
    assert r.kind == "min_above" and r.passed
    assert r.details["grad_norm_at_qstar"] == 0.0
    assert r.details["fd_max_diff"] < 1e-5
    assert np.allclose(r.details["hessian"], [[1.0, 10.0], [10.0, 101.0]], atol=1e-9)


def test_hessian_random_draws():
    rng = np.random.default_rng(32)
    for _ in range(100):
        params, gains = rand_draw(rng)
        r = hessian_vd_check(params, gains)
        assert r.passed and r.max_abs_residual > 0.0
        assert r.details["fd_max_diff"] < 1e-5 * max(
            1.0, np.abs(r.details["hessian"]).max())


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_hessian_scaled_fails_fd_control(monkeypatch, name):
    # a Hessian 0.1% off keeps its sign, so only the fd control can catch it
    cfg = load_config(str(PRESETS / f"{name}.yaml"))
    assert hessian_vd_check(cfg.params, cfg.gains).passed
    true = controller.shaped_potential_hessian
    monkeypatch.setattr(controller, "shaped_potential_hessian",
                        lambda k, q1, q2: (1 + 1e-3) * true(k, q1, q2))
    r = hessian_vd_check(cfg.params, cfg.gains)
    assert r.max_abs_residual > 0.0 and not r.sound and not r.passed
    assert r.control[0] == "fd control" and r.control[2] == r.details["fd_tol"] == 1e-5


def test_hessian_fd_oracle_close():
    hess = hessian_fd(coeffs(P_SYN, G_REF), 0.0, 0.0)
    assert np.allclose(hess, [[1.0, 10.0], [10.0, 101.0]], atol=1e-4)


def test_closed_loop_equivalence_passes():
    r = closed_loop_equivalence(P_SYN, G_REF)
    assert r.passed and r.max_abs_residual < 1e-9


def test_closed_loop_equivalence_alpha_sensitivity(monkeypatch):
    inject_shaping_fault(monkeypatch, zero_alpha)
    r = closed_loop_equivalence(P_SYN, G_REF, n_samples=200)
    assert not r.passed
    assert r.max_abs_residual > 1e-9


def test_closed_loop_equivalence_fails_on_nan(monkeypatch):
    # a nan torque must fail the check, not vanish in the running maximum; check 6
    # takes its torque from the array route, one call per block of samples
    monkeypatch.setattr(controller, "control_terms_array",
                        lambda k, q1, *args: (q1 * math.nan, q1 * math.nan))
    r = closed_loop_equivalence(P_SYN, G_REF)
    assert math.isnan(r.max_abs_residual) and not r.passed


def test_patched_helper_reaches_closed_loop_equivalence(monkeypatch):
    # check 6's control route calls the closed-form helpers through the module, so a
    # helper patched after import reaches it: M_d^{-1}'s i12 1e-6 off fails the check
    # (the direct route inverts M_d with model._inv2)
    cfg = load_config(str(PRESETS / "default.yaml"))
    assert closed_loop_equivalence(cfg.params, cfg.gains).passed
    true = controller._md_inverse

    def skewed(k, d2, d4, det):
        i11, i12, i22 = true(k, d2, d4, det)
        return i11, (1 + 1e-6) * i12, i22

    monkeypatch.setattr(controller, "_md_inverse", skewed)
    r = closed_loop_equivalence(cfg.params, cfg.gains)
    assert not r.passed and r.max_abs_residual > 1e-3


def loop_closed_loop_equivalence(params, gains, n_samples=1000, seed=0):
    """The per-sample check 6 that the batched one replaced: one control_law
    call and a 2x2 solve per state."""
    rng = np.random.default_rng(seed)
    q2_max = 0.99 * _pd_endpoint(params, gains)
    worst, arg = 0.0, (0.0, 0.0, 0.0, 0.0)
    for _ in range(n_samples):
        q1 = rng.uniform(-3.0, 3.0)
        q2 = rng.uniform(-q2_max, q2_max)
        p = rng.uniform(-2.0, 2.0, size=2)
        k, q = coeffs(params, gains), np.array([q1, q2])
        u = control_law(k, *q, *p)
        qd_o, pd_o = open_loop_rhs(params, q, p, u, 0.0)
        sin, cos = math.sin(q2), math.cos(q2)
        sh = controller.shaping(k, sin, cos)  # sees a planted fault
        _, _, _, d2, d4, _ = shape_terms(k, sin, cos)
        md = np.array([[gains.k2, d2], [d2, d4]])
        psi = psi_matrix(params, gains, q2)
        gq = grad_q_Hd(params, gains, q, p)
        pt = np.array(momentum_tilde(k, q2, p[0], p[1]))
        j2s = float(pt @ np.array([sh.a1, sh.a2]))
        j2 = np.array([[0.0, j2s], [-j2s, 0.0]])
        qd_d = np.linalg.solve(inertia(params, q2), md) @ pt
        pd_d = -psi @ gq + (j2 - gains.kv * (G @ G.T)) @ pt
        diff = max(float(np.max(np.abs(qd_o - qd_d))),
                   float(np.max(np.abs(pd_o - pd_d))))
        if diff > worst:
            worst, arg = diff, (q1, q2, float(p[0]), float(p[1]))
    return worst, arg


def plant_and_gains(name):
    if name == "P_SYN":
        return P_SYN, G_REF
    cfg = load_config(str(PRESETS / f"{name}.yaml"))
    return cfg.params, cfg.gains


@pytest.mark.parametrize("name", ("P_SYN",) + PRESET_NAMES)
def test_closed_loop_equivalence_equals_per_sample_loop(name, monkeypatch):
    params, gains = plant_and_gains(name)
    for zeroed, n in ((False, 1000), (True, 200)):
        if zeroed:
            inject_shaping_fault(monkeypatch, zero_alpha)
        for seed in range(4):
            r = closed_loop_equivalence(params, gains, n, seed)
            worst, arg = loop_closed_loop_equivalence(params, gains, n, seed)
            assert (r.max_abs_residual, r.arg_at_max) == (worst, arg), (seed, zeroed)
    monkeypatch.undo()
    if name == "default":   # seeds 1-3 exceed the absolute 1e-9 bound near |q2| = 1.06
        assert not any(closed_loop_equivalence(params, gains, 1000, seed).passed
                       for seed in range(1, 4))


def test_closed_loop_equivalence_blocks_equal_one_pass(monkeypatch):
    params, gains = plant_and_gains("default")
    monkeypatch.setattr(verify, "SCAN_BLOCK", 64)
    for seed in range(4):
        r = closed_loop_equivalence(params, gains, 300, seed)
        assert (r.max_abs_residual, r.arg_at_max) == loop_closed_loop_equivalence(
            params, gains, 300, seed)


def test_check_6_takes_trig_once_per_block(monkeypatch):
    # both routes of a block share one (sin, cos) pair: one _trig call per block
    real, calls = verify._trig, []
    monkeypatch.setattr(verify, "_trig", lambda q2: calls.append(q2.size) or real(q2))
    params, gains = plant_and_gains("default")
    assert closed_loop_equivalence(params, gains, 1000).passed
    assert calls == [1000]
    monkeypatch.setattr(verify, "SCAN_BLOCK", 16)
    for n in (50, 64, 1000):
        calls.clear()
        closed_loop_equivalence(params, gains, n, 1)
        assert len(calls) == -(-n // 16) and sum(calls) == n, (n, calls)


CHECK6_Q2 = {"default": "1.068", "fig2": "1.015", "fig3": "1.015", "fig4": "1.015",
             "synthetic": "0.5062"}
FIG_RECORDS = {
    (1000, 0): (1.4915713109076023e-10, [-0.5583131961641632, -1.0144734779017457,
                                         0.9775229053895962, 1.4075036489370278]),
    (1000, 3): (1.418811734765768e-10, [-0.7297792163210746, 1.011387751144512,
                                        0.7159517265430067, -1.4232545049758696]),
    (5000, 7): (2.0372681319713593e-10, [2.590209791985723, -1.014909172347796,
                                         0.5454461508757884, 1.7019247149175043]),
}
CHECK6_RECORDS = {
    "default": {
        (1000, 0): (8.149072527885437e-10, [-1.3816717577432818, 1.05825999577434,
                                            0.3138419339911058, 1.542716049060048]),
        (1000, 3): (1.1641532182693481e-09, [-1.2595812835962517, -1.0619814853691667,
                                             0.8214305440271499, -1.539695027263821]),
        (5000, 7): (4.6566128730773926e-09, [2.590209791985723, -1.068161779246168,
                                             0.5454461508757884, 1.7019247149175043]),
    },
    "fig2": FIG_RECORDS, "fig3": FIG_RECORDS, "fig4": FIG_RECORDS,
    "synthetic": {
        (1000, 0): (1.2960299500264227e-11, [1.6969197497110446, 0.505032154458251,
                                             -0.9303250149147813, -1.268428548402364]),
        (1000, 3): (1.0686562745831907e-11, [1.3598002381272956, -0.5018508230510953,
                                             0.4707664667863063, 1.7621385315271154]),
        (5000, 7): (2.0463630789890885e-11, [2.590209791985723, -0.5060941181144508,
                                             0.5454461508757884, 1.7019247149175043]),
    },
}


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("n, seed", [(1000, 0), (1000, 3), (5000, 7)])
def test_closed_loop_equivalence_records_pinned(name, n, seed):
    # check 6's record, residual and worst state, as the version that took the trig
    # of each block twice wrote it
    params, gains = plant_and_gains(name)
    worst, arg = CHECK6_RECORDS[name][n, seed]
    assert closed_loop_equivalence(params, gains, n, seed).to_record() == {
        "name": "closed_loop_equivalence",
        "grid": f"{n} random states, |q2| < {CHECK6_Q2[name]}, seed {seed}",
        "max_abs_residual": worst, "arg_at_max": arg, "tol": 1e-09, "kind": "max_below",
        "pass": worst <= 1e-09, "details": {}}


def test_block_draws_equal_uniform_draws():
    q2_max = 0.99 * _pd_endpoint(P_SYN, G_REF)
    low = np.array([-3.0, -q2_max, -2.0, -2.0])
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    x = np.concatenate([low + (-low - low) * a.random((k, 4)) for k in (7, 64, 29)])
    y = [(b.uniform(-3.0, 3.0), b.uniform(-q2_max, q2_max), *b.uniform(-2.0, 2.0, size=2))
         for _ in range(100)]
    assert x.tolist() == [list(map(float, row)) for row in y]


def test_closed_loop_equivalence_pointwise():
    rng = np.random.default_rng(30)
    for _ in range(200):
        q, p = rng.uniform(-1, 1, 2) * [2.0, 0.45], rng.uniform(-1, 1, 2)
        s, c = verify._trig(q[1:])
        qd_a, pd_a = (v[0] for v in closed_loop_rhs_direct(
            P_SYN, G_CONV, q[:1], s, c, p[:1], p[1:]))
        u = control_law(coeffs(P_SYN, G_CONV), *q, *p)
        qd_b, pd_b = open_loop_rhs(P_SYN, q, p, u, d=0.0)
        assert np.allclose(qd_a, qd_b, atol=1e-9)
        assert np.allclose(pd_a, pd_b, atol=1e-9)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_verify_all_passes_on_preset(name):
    cfg = load_config(str(PRESETS / f"{name}.yaml"))
    for r in verify_all(cfg.params, cfg.gains, cfg.verify):
        assert r.passed, (r.name, r.max_abs_residual, r.tol)


def test_remark2_frozen_point():
    spec = CounterexampleSpec(1.0, 1.0, 1.0)
    assert claimed_m22(spec, 0.0) == pytest.approx(3.0, abs=1e-15)
    r = remark2_residual(spec)
    assert r.details["R_at_0"] == pytest.approx(10.0, abs=1e-12)
    assert r.kind == "min_above" and r.passed
    assert r.max_abs_residual > 0.1
    assert r.details["integrated_solution_max_residual"] < 1e-6


def test_remark2_random_draws():
    rng = np.random.default_rng(33)
    for _ in range(10):
        spec = CounterexampleSpec(*np.exp(rng.uniform(-1, 1, 3)))
        r = remark2_residual(spec, n=400)
        assert r.max_abs_residual > 1e-2
        assert r.details["integrated_solution_max_residual"] < 1e-6


def integrated_solution_ref(spec, span, h):
    """The soundness control as it read with one rhs call per RK4 stage and
    numpy scalar stores, its maximum reduced so that a nan stays nan."""
    def rhs(q2, m):
        return (-math.sin(2.0 * q2) * m * m - 4.0 * m
                + 2.0 * spec.frak_k1 / math.cos(q2) ** 2) / spec.frak_k1

    n = int(round(span / h))
    m0 = float(claimed_m22(spec, 0.0))
    worst = []
    for sign in (1.0, -1.0):
        qs, ms = np.empty(n + 1), np.empty(n + 1)
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
        with np.errstate(invalid="ignore", over="ignore"):
            dm = (-ms[4:] + 8 * ms[3:-1] - 8 * ms[1:-3] + ms[:-4]) / (12.0 * (qs[1] - qs[0]))
            worst.append(np.max(np.abs(verify._ode_residual(spec, qs[2:-2], ms[2:-2], dm))))
    return float(np.max(worst))


BLOWUP_SPEC = CounterexampleSpec(frak_k1=1.0e-5, frak_k2=1.0, b=1.0e-4)


def test_integrated_solution_equals_per_stage_loop():
    # 50 random specs on two spans at h = 1e-3, then the default spec and one
    # whose integration blows up, at h = 1e-4: equal bit for bit, nan for nan
    rng = np.random.default_rng(35)
    cases = [(CounterexampleSpec(*np.exp(rng.uniform(-3, 2, 3)).tolist()), span, 1e-3)
             for _ in range(50) for span in (1.0, float(rng.uniform(0.05, 1.5)))]
    cases += [(CounterexampleSpec(), 1.0, 1e-4), (BLOWUP_SPEC, 1.0, 1e-4)]
    nans = 0
    for spec, span, h in cases:
        got = verify._integrated_solution_residual(spec, span, h)
        want = integrated_solution_ref(spec, span, h)
        assert got == want or math.isnan(got) and math.isnan(want), (spec, span, got, want)
        nans += math.isnan(got)
    assert math.isnan(got) and nans < len(cases) // 2


def test_integrated_solution_equals_grid_in_loop():
    # check 7's grid formed after its loop against the loop that appended q at every
    # step: 200 random specs at SOUNDNESS_H and 1e-3 on two spans, two draws near
    # blow-up and BLOWUP_SPEC, equal bit for bit, nan for nan
    rng = np.random.default_rng(39)
    cases = [(CounterexampleSpec(*np.exp(rng.uniform(-3, 2, 3)).tolist()), span, h)
             for _ in range(50) for span in (1.0, float(rng.uniform(0.05, 1.5)))
             for h in (verify.SOUNDNESS_H, 1e-3)]
    cases += [(CounterexampleSpec(*spec), 1.0, verify.SOUNDNESS_H)
              for spec in ((0.668, 2.544, 2.316), (0.649, 2.715, 2.280))]
    cases += [(BLOWUP_SPEC, 1.0, verify.SOUNDNESS_H)]
    nans = 0
    for spec, span, h in cases:
        got = verify._integrated_solution_residual(spec, span, h)
        want = grid_in_loop_integrated_residual(spec, span, h)
        assert got == want or math.isnan(got) and math.isnan(want), (spec, span, h, got, want)
        nans += math.isnan(got)
    assert len(cases) >= 200 and math.isnan(got) and nans < len(cases) // 2


@pytest.mark.parametrize("h", [verify.SOUNDNESS_H, 1e-3, 1e-4, 0.1, 0.0123456789])
def test_cumsum_grid_equals_stepped_q(h):
    # numpy's add.accumulate adds left to right, so the cumsum grid check 7 forms
    # after its loop holds the doubles q += hh gives, for both signs of h
    n = int(round(1.0 / h))
    for hh in (h, -h):
        q, stepped = 0.0, [0.0]
        for _ in range(n):
            q += hh
            stepped.append(q)
        grid = np.concatenate(([0.0], np.cumsum(np.full(n, hh))))
        assert grid.tobytes() == np.array(stepped).tobytes(), hh


@pytest.mark.parametrize("spec, worst", [
    (CounterexampleSpec(frak_k1=1.0e300, frak_k2=1.0, b=1.0), math.inf),
    (CounterexampleSpec(frak_k1=1.0, frak_k2=1.0e-300, b=1.0e-300), math.nan),
])
def test_extreme_constants_fail_check_7_silently(spec, worst):
    # the config accepts any finite constant > 0; these overflow the claimed solution,
    # its derivative and the residual to inf and nan: check 7 fails, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = remark2_residual(spec)
    assert repr(r.max_abs_residual) == repr(worst) and r.arg_at_max == (-1.0,)
    assert math.isnan(r.details["R_at_0"])
    assert math.isnan(r.details["integrated_solution_max_residual"])
    assert not r.sound and not r.passed


def test_soundness_control_sees_a_checker_fault(monkeypatch):
    # the checker's 4 m scaled by 1 + 1e-6 (4e-6 m added to R) reads 2.3e-5 on
    # the integrated solution at the default step: the control fails it
    true = verify._ode_residual

    def faulty(spec, q2, m22, dm22):
        return true(spec, q2, m22, dm22) + 4e-6 * m22

    good = remark2_residual(CounterexampleSpec())
    monkeypatch.setattr(verify, "_ode_residual", faulty)
    r = remark2_residual(CounterexampleSpec())
    assert good.sound and r.max_abs_residual > r.tol
    assert r.details["integrated_solution_max_residual"] > 1e-5
    assert not r.sound and not r.passed


def test_soundness_nan_fails_check_7():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = remark2_residual(BLOWUP_SPEC)
    assert math.isnan(r.details["integrated_solution_max_residual"])
    assert r.max_abs_residual > r.tol and not r.sound and not r.passed
    assert r.to_record()["pass"] is False


def test_counterexample_validation():
    with pytest.raises(ValueError):
        CounterexampleSpec(frak_k1=-1.0)


def test_pointwise_residuals_even_in_q2():
    rng = np.random.default_rng(34)
    for _ in range(50):
        q2 = rng.uniform(0.0, 0.5)
        kin_p, pot_p = _spot_residuals(controller.coeffs(P_SYN, G_REF), q2)
        kin_m, pot_m = _spot_residuals(controller.coeffs(P_SYN, G_REF), -q2)
        assert kin_p == kin_m and pot_p == pot_m
    q2 = np.array([0.3, 0.7, 1.2])
    d4p = controller.shape_terms(controller.coeffs(P_SYN, G_REF), np.sin(q2), np.cos(q2))[4]
    d4m = controller.shape_terms(controller.coeffs(P_SYN, G_REF), np.sin(-q2), np.cos(-q2))[4]
    assert np.array_equal(d4p, d4m)
