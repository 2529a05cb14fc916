"""Rotary inverted pendulum dynamics in port-Hamiltonian form.

A state is (q, p) with q = [arm angle, pendulum angle] in rad and momenta
p = M(q2) qdot, passed as the floats q1, q2, p1, p2. Only the arm joint is
actuated: G = [1, 0]^T. The total energy is
H = p5*cos(q2) + 0.5 * p^T M^{-1}(q2) p.

Everything here depends on q2 only through s = sin q2 and c = cos q2, so
open_loop_rhs_flat and hamiltonian (floats or arrays) take (s, c): the caller
forms the pair once per state and shares it with the controller.

Angles are NOT wrapped: the shaped potential used by the controller
contains an unwrapped q1 term, so configurations live on R^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _fused
from .codegen import bind

# Input map (constant for this system).
G = np.array([[1.0], [0.0]])


@dataclass(frozen=True)
class RobotParams:
    """Inertia/potential constants of the rotary inverted pendulum.

    p1, p2, p4 are inertia-like (kg m^2), p3 is the coupling inertia
    (kg m^2) and p5 the gravity torque scale (N m).
    """

    p1: float
    p2: float
    p3: float
    p4: float
    p5: float

    def __post_init__(self):
        for name in ("p1", "p2", "p3", "p4", "p5"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"robot parameter {name} must be finite and > 0")
        if not self.p1 * self.p4 - self.p3 * self.p3 > 0.0:  # nan when the products overflow
            raise ValueError("p1*p4 - p3^2 must be > 0 (inertia matrix definiteness)")

    @classmethod
    def from_physical(cls, m1, m2, l1, l2, I1, I2, g=9.81) -> "RobotParams":
        """Build the lumped constants from link masses, lengths and inertias."""
        return cls(
            p1=I1 + m1 * (l1 * l1),
            p2=m2 * (l2 * l2),
            p3=m2 * l1 * l2,
            p4=I2 + m2 * (l2 * l2),
            p5=m2 * l2 * g,
        )


def _inertia(params: RobotParams, s: float, c: float) -> tuple[float, float, float]:
    """Entries (m11, m12, m22) of M at s = sin q2, c = cos q2; arithmetic only."""
    return params.p1 + params.p2 * s * s, params.p3 * c, params.p4


def _inv2(m11: float, m12: float, m22: float) -> tuple[float, float, float]:
    """Inverse of a symmetric 2x2 given by entries; returns (i11, i12, i22)."""
    det = m11 * m22 - m12 * m12
    return m22 / det, -m12 / det, m11 / det


def hamiltonian(params: RobotParams, s, c, p1c, p2c):
    """Total energy H = p5*cos(q2) + 0.5 p^T M^{-1} p at s = sin q2, c = cos q2, on
    floats or arrays (the float call's doubles per element)."""
    m11, m12, m22 = _inertia(params, s, c)
    i11, i12, i22 = _inv2(m11, m12, m22)
    return params.p5 * c + 0.5 * (i11 * p1c * p1c + 2.0 * i12 * p1c * p2c + i22 * p2c * p2c)


def momentum(params: RobotParams, q2: float, qd1: float, qd2: float) -> tuple[float, float]:
    """p = M(q2) qdot as scalars."""
    m11, m12, m22 = _inertia(params, math.sin(q2), math.cos(q2))
    return m11 * qd1 + m12 * qd2, m12 * qd1 + m22 * qd2


def open_loop_rhs_flat(params: RobotParams, s: float, c: float, p1c: float, p2c: float,
                       u: float, d: float) -> tuple[float, float, float, float]:
    """Plant vector field (qdot1, qdot2, pdot1, pdot2): qdot = M^{-1} p and
    pdot = -grad_q H + G (u - d), from scalar components at s = sin q2, c = cos q2,
    forming M^{-1} once; dH/dq2 = -p5 s - 0.5 qdot^T (dM/dq2) qdot. Arithmetic only."""
    m11, m12, m22 = _inertia(params, s, c)
    i11, i12, i22 = _inv2(m11, m12, m22)
    qd1 = i11 * p1c + i12 * p2c
    qd2 = i12 * p1c + i22 * p2c
    d11 = 2.0 * params.p2 * s * c
    d12 = -params.p3 * s
    dh = -params.p5 * s - 0.5 * (d11 * qd1 * qd1 + 2.0 * d12 * qd1 * qd2)
    return qd1, qd2, u - d, -dh


# The float entry point runs as fused code, every helper call inlined when the source
# changes (tools/fusion.py prints it into _fused.py); the definition above is its
# source and spec, and runs on arrays as open_loop_rhs_array (element by element the
# float call's doubles).
open_loop_rhs_array = open_loop_rhs_flat
open_loop_rhs_flat = bind(_fused.open_loop_rhs_flat_factory, open_loop_rhs_flat)
