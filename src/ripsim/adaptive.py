"""Adaptive rejection of matched regressor-form disturbances.

The plant torque channel sees u - d with d = f(q,p)^T theta, theta an
unknown constant vector. Augmenting the energy-shaping torque with
f^T theta_hat and integrating

    dtheta_hat/dt = -ptilde1 * Gamma^{-1} f

turns the disturbed closed loop into the nominal one plus G f^T
(theta_hat - theta), and

    V = Hd + 1/2 (theta_hat - theta)^T Gamma (theta_hat - theta)

decreases at rate -kv*ptilde1^2 along trajectories for every symmetric
positive definite Gamma: the weight Gamma cancels the cross term
ptilde1 * f^T (theta_hat - theta) that the law's Gamma^{-1} leaves in dHd/dt.
No integrability of f is assumed.

DisturbanceSpec.value, the true d that each recorded row reads, runs one
function generated per spec (codegen.generate): the term calls and the sum
f^T theta unrolled, one statement per term, added left to right from 0.0
in the order of simulate's stage and row.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codegen import generate, numbered
from .regressor import RegressorSpec


@dataclass(frozen=True, eq=False)
class DisturbanceSpec:
    """Regressor basis plus the true parameters (plant side only).

    Compared by value (__eq__ below) and unhashable: theta is an ndarray.
    """

    regressor: RegressorSpec
    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float).reshape(-1)
        object.__setattr__(self, "theta", theta)
        if theta.shape[0] != self.regressor.ell:
            raise ValueError(
                f"theta has {theta.shape[0]} entries for {self.regressor.ell} regressor terms")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta must be finite")
        object.__setattr__(self, "_sum", _disturbance_sum(self.regressor.terms, theta.tolist()))

    def __eq__(self, other):
        """The same terms and the same theta (a generated __eq__ would take the truth
        value of theta == theta, which numpy refuses for two or more entries). A class
        that defines __eq__ alone gets __hash__ = None, which eq=False leaves in place,
        where a generated __hash__ would hash the ndarray and raise."""
        return type(other) is type(self) and self.regressor == other.regressor \
            and np.array_equal(self.theta, other.theta)

    def value(self, q1: float, q2: float, p1: float, p2: float) -> float:
        """True disturbance d = f(q,p)^T theta, by the function generated for this spec."""
        return self._sum(q1, q2, p1, p2)


def _disturbance_sum(terms: tuple, theta: list[float]):
    """(q1, q2, p1, p2) -> f^T theta, generated from source: term j called as
    type(t{j}).__call__(t{j}, ...), its class's __call__ looked up at each call (so a
    __call__ patched after the spec is built is the one called, and the call skips the
    instance-call slot), then the sum from 0.0, one statement per term, left to right:
    the order of simulate's stage and row (tests/oracles.py's dot is the reference)."""
    ell = len(terms)
    lines = [*(f"f{j} = type(t{j}).__call__(t{j}, q1, q2, p1, p2)" for j in range(ell)),
             "d = 0.0", *(f"d = d + f{j} * th{j}" for j in range(ell)),
             "return d"]
    return generate(f"disturbance sum, {ell} terms", "disturbance", "q1, q2, p1, p2", lines,
                    {**numbered("t", terms), **numbered("th", theta)})


@dataclass(frozen=True, eq=False)
class AdaptiveState:
    """Parameter estimate and (symmetric positive definite) adaptation gain.

    Compared by value, as DisturbanceSpec, and unhashable.
    """

    theta_hat: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        theta_hat = np.asarray(self.theta_hat, dtype=float).reshape(-1)
        gamma = np.asarray(self.gamma, dtype=float)
        ell = theta_hat.shape[0]
        if gamma.shape == ():
            gamma = float(gamma) * np.eye(ell)
        if gamma.shape != (ell, ell):
            raise ValueError(f"gamma must be {ell}x{ell}, got {gamma.shape}")
        with np.errstate(over="ignore"):  # gamma - gamma.T may overflow to inf
            if not np.allclose(gamma, gamma.T, rtol=0.0, atol=1e-12):
                raise ValueError("gamma must be symmetric")
        if np.linalg.eigvalsh(gamma).min() <= 0.0:
            raise ValueError("gamma must be positive definite")
        object.__setattr__(self, "theta_hat", theta_hat)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "gamma_inv", np.linalg.inv(gamma))

    def __eq__(self, other):
        """The same theta_hat and gamma, compared by value as in DisturbanceSpec."""
        return type(other) is type(self) and np.array_equal(self.theta_hat, other.theta_hat) \
            and np.array_equal(self.gamma, other.gamma)
