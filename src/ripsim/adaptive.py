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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .regressor import RegressorSpec


def dot(a, b, acc: float = 0.0) -> float:
    """acc + sum of a_i * b_i added left to right: the one term-by-term sum of the
    closed loop (sum() and math.sumprod are compensated from Python 3.12 on)."""
    for x, y in zip(a, b):
        acc += x * y
    return acc


@dataclass(frozen=True)
class DisturbanceSpec:
    """Regressor basis plus the true parameters (plant side only)."""

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
        object.__setattr__(self, "_theta", theta.tolist())

    def value(self, q1: float, q2: float, p1: float, p2: float) -> float:
        """True disturbance d = f(q,p)^T theta, summed by dot() as simulate.run does."""
        return dot(self.regressor.eval_flat(q1, q2, p1, p2), self._theta)


@dataclass(frozen=True)
class AdaptiveState:
    """Parameter estimate and (symmetric positive definite) adaptation gain."""

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


def lyapunov_value(gamma, theta_hat, theta, hd: float) -> float:
    """V = Hd + 1/2 theta_err^T Gamma theta_err (see module docstring), summed by
    dot(); gamma (rows), theta_hat and theta are ndarrays or lists of floats."""
    err = [a - b for a, b in zip(theta_hat, theta)]
    return hd + 0.5 * dot(err, [dot(row, err) for row in gamma])
