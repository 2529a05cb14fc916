"""Verification suite: matching residuals, region, Hessian, counterexample.

Covers:
  - the seven-report bundle: names, order, all passing on the synthetic set
  - kinetic matching: analytic/FD tolerances, psi3-perturbation detector
  - Riccati residual for psi3; the grid maximum and its first location
  - potential matching: exactness, q1-independence, kappa-skew detector
  - region: formula vs million-cell sign scan, EmptyRegion, 100 random draws
  - Md definiteness: endpoint <= rho, k2 growth widens the interval,
    frozen Md(0) eigenvalues
  - Vd Hessian: positive min eigenvalue, FD agreement, 100 random draws
  - closed-loop equivalence: 1e-9 agreement, alpha-zeroed sensitivity
  - Remark-2 counterexample: frozen R(0)=10, threshold over random draws,
    integrated-solution soundness < 1e-6
  - pointwise residuals even in q2
"""
import math

import numpy as np
import pytest

from ripsim.controller import (
    ControllerGains, EmptyRegion, desired_inertia, region_rho,
)
from ripsim.model import RobotParams
from ripsim.simulate import _spot_residuals
from ripsim.verify import (
    CounterexampleSpec, VerifyOptions, claimed_m22, closed_loop_equivalence,
    hessian_fd, hessian_vd_check, kinetic_matching, md_definiteness_scan,
    potential_matching, region_report, region_scan, remark2_residual,
    riccati_residual, verify_all, _d4_array, _max_and_arg,
)

P_SYN = RobotParams(2.0, 1.0, 1.0, 2.0, 1.0)
G_REF = ControllerGains(1.0, 0.1, 100.0)

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
        if np.linalg.eigvalsh(desired_inertia(params, gains, 0.0)).min() > 0:
            return params, gains


def test_verify_all_names_order_and_pass():
    reports = verify_all(P_SYN, G_REF,
                         VerifyOptions(scan_cells=10 ** 5, md_scan_points=10 ** 4))
    assert tuple(r.name for r in reports) == EXPECTED_ORDER
    for r in reports:
        assert r.passed, (r.name, r.max_abs_residual, r.tol)


def test_kinetic_matching_analytic():
    r = kinetic_matching(P_SYN, G_REF)
    assert r.passed and r.max_abs_residual < 1e-8
    assert r.details["al1"] < 1e-8
    assert r.details["al2"] < 1e-8
    assert r.details["ode"] < 1e-8


def test_kinetic_matching_fd():
    r = kinetic_matching(P_SYN, G_REF, derivatives="fd")
    assert r.passed and r.max_abs_residual < 1e-5
    assert r.tol == 1e-5


def test_kinetic_matching_detects_psi3_shift():
    r = kinetic_matching(P_SYN, G_REF, psi3_offset=0.01)
    assert not r.passed
    assert r.max_abs_residual > 1e-4


def test_kinetic_matching_rejects_bad_mode():
    with pytest.raises(ValueError):
        kinetic_matching(P_SYN, G_REF, derivatives="symbolic")


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


def test_potential_matching_detects_kappa_skew():
    r = potential_matching(P_SYN, G_REF, kappa_skew=0.01)
    assert not r.passed


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


def test_hessian_fd_oracle_close():
    hess = hessian_fd(P_SYN, G_REF, (0.0, 0.0))
    assert np.allclose(hess, [[1.0, 10.0], [10.0, 101.0]], atol=1e-4)


def test_closed_loop_equivalence_passes():
    r = closed_loop_equivalence(P_SYN, G_REF)
    assert r.passed and r.max_abs_residual < 1e-9


def test_closed_loop_equivalence_alpha_sensitivity():
    r = closed_loop_equivalence(P_SYN, G_REF, n_samples=200, alpha_zeroed=True)
    assert not r.passed
    assert r.max_abs_residual > 1e-9


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


def test_counterexample_validation():
    with pytest.raises(ValueError):
        CounterexampleSpec(frak_k1=-1.0)


def test_pointwise_residuals_even_in_q2():
    rng = np.random.default_rng(34)
    for _ in range(50):
        q2 = rng.uniform(0.0, 0.5)
        kin_p, pot_p = _spot_residuals(P_SYN, G_REF, q2)
        kin_m, pot_m = _spot_residuals(P_SYN, G_REF, -q2)
        assert kin_p == kin_m and pot_p == pot_m
    q2 = np.array([0.3, 0.7, 1.2])
    assert np.array_equal(_d4_array(P_SYN, G_REF, q2), _d4_array(P_SYN, G_REF, -q2))
