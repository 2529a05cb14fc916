"""A fixed reference computation that the benchmark times next to ripsim.

On a shared machine the speed of the CPU a run gets drifts by up to 2x
for minutes at a time, so raw times of two runs are not comparable. The
reference runs right before every operation and every set-up, and each
time is reported in reference seconds:

    t_ref_s = t_measured * REF_S / t_reference_measured

that is, seconds on a machine that runs the reference in REF_S. The
reference mixes the kinds of work ripsim does: scalar RK4 stages that
build 4-element numpy arrays, a vectorised sign scan and %g formatting.
It never calls ripsim, so no change to ripsim can move it.
"""
from __future__ import annotations

import math
import time

import numpy as np

REF_S = 0.010        # seconds the reference takes, by definition of a reference second
STEPS = 300          # RK4 steps of the scalar part
CELLS = 100_000      # grid cells of the vectorised part
ROWS = 200           # formatted rows of the formatting part


def _rhs(x: np.ndarray) -> np.ndarray:
    q1, q2, p1, p2 = x[0], x[1], x[2], x[3]
    s, c = math.sin(q2), math.cos(q2)
    u = -0.5 * q1 - 2.0 * p1 + 9.81 * s * c
    return np.array([p1, p2, u - 0.1 * p1, 9.81 * s - c * u - 0.1 * p2])


def work() -> float:
    """The reference computation; returns a value so that nothing is skipped."""
    x, h = np.array([0.1, 0.5, 0.0, 0.0]), 1e-3
    for _ in range(STEPS):
        k1 = _rhs(x)
        k2 = _rhs(x + (0.5 * h) * k1)
        k3 = _rhs(x + (0.5 * h) * k2)
        k4 = _rhs(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    q = np.linspace(0.0, 1.5, CELLS + 1)
    crossing = np.nonzero(np.cos(q) ** 2 / (0.1 + np.sin(q) ** 2) - 1.0 <= 0.0)[0]
    text = "\n".join(",".join(f"{v:.9g}" for v in (i * 1e-3, *x)) for i in range(ROWS))
    return float(x[0]) + int(crossing[0]) + len(text)


def measure() -> tuple[float, float]:
    """Wall and CPU seconds of one reference computation."""
    c0, t0 = time.process_time(), time.perf_counter()
    work()
    return time.perf_counter() - t0, time.process_time() - c0
