"""YAML run configuration: robot, controller, simulation, disturbance.

Only the `robot` section is mandatory; every other key has a
documented default (see DEFAULTS). Unknown keys are rejected with
their full path so typos cannot silently fall back to defaults.
Validation happens entirely at load time: a Config that loads is ready
to run.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import yaml

from .adaptive import AdaptiveState, DisturbanceSpec
from .controller import (
    ControllerGains, EmptyRegion, _md_det, _z_offset, coeffs, region_rho, shape_terms,
)
from .model import RobotParams
from .regressor import ParseError, parse_regressor
from .simulate import MODES, Scenario, step_count
from .verify import CounterexampleSpec, VerifyOptions

DEFAULTS = {
    "controller": {"psi40": 1.0, "k1": 0.1, "k2": 100.0, "kappa": 1.0, "kv": 1.0},
    "simulation": {"mode": "nominal", "q0": [0.0, 0.0], "qdot0": [0.0, 0.0],
                   "dt": 1e-3, "t_end": 30.0},
    "adaptive": {"gamma": 1.0, "theta_hat0": None},
    "output": {"dir": ".", "plots": True},
}


class ConfigError(Exception):
    """Invalid configuration; message carries the offending key path."""


def _require_keys(section: dict, path: str, allowed: set):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key "
                              f"(expected one of: {', '.join(sorted(allowed))})")


def _section(parent: dict, path: str, allowed: set) -> dict:
    """The section at the last key of path: {} when absent or null, else a mapping."""
    section = parent.get(path.rpartition(".")[2])
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: not a mapping")
    _require_keys(section, path, allowed)
    return section


def _real(value, where: str) -> float:
    """value as a finite float; YAML 1.1 reads "1e-3" (no dot) as a string, accepted anyway."""
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            pass
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{where}: must be finite")
    return float(value)


def _number(section: dict, path: str, key: str, default=None) -> float:
    value = section.get(key, default)
    if value is None:
        raise ConfigError(f"{path}.{key}: required key missing")
    return _real(value, f"{path}.{key}")


def _count(section: dict, path: str, key: str, lo: int, hi: int) -> int:
    """An integer in [lo, hi]; integral floats such as 1.0e+6 are accepted."""
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, int):
        value = _number(section, path, key)
        if not value.is_integer():
            raise ConfigError(f"{path}.{key}: expected an integer, got {section[key]!r}")
        value = int(value)
    if not lo <= value <= hi:
        raise ConfigError(f"{path}.{key}: must be in [{lo}, {hi}], got {value}")
    return value


def _vector(section: dict, path: str, key: str, length: int, default=None):
    value = section.get(key, default)
    if value is None:
        raise ConfigError(f"{path}.{key}: required key missing")
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise ConfigError(f"{path}.{key}: expected a list of {length} numbers")
    return [_real(v, f"{path}.{key}[{i}]") for i, v in enumerate(value)]


@dataclass(frozen=True)
class Config:
    """Fully validated run configuration."""

    params: RobotParams
    gains: ControllerGains
    mode: str
    q0: tuple[float, float]
    qdot0: tuple[float, float]
    dt: float
    t_end: float
    disturbance: DisturbanceSpec | None
    adaptive: AdaptiveState | None
    verify: VerifyOptions
    out_dir: str
    plots: bool

    def scenario(self) -> Scenario:
        return Scenario(params=self.params, gains=self.gains, mode=self.mode,
                        q0=self.q0, qdot0=self.qdot0, t_end=self.t_end,
                        dt=self.dt, disturbance=self.disturbance,
                        adaptive=self.adaptive)


def _load_robot(section) -> RobotParams:
    if not isinstance(section, dict):
        raise ConfigError("robot: section missing or not a mapping")
    _require_keys(section, "robot",
                  {"p", "m1", "m2", "l1", "l2", "I1", "I2", "g"})
    physical = {"m1", "m2", "l1", "l2", "I1", "I2", "g"} & set(section)
    if "p" in section:
        if physical:
            warnings.warn("robot: both p and physical constants given; p wins",
                          stacklevel=2)
        p = _vector(section, "robot", "p", 5)
        try:
            return RobotParams(*p)
        except ValueError as e:
            raise ConfigError(f"robot.p: {e}") from e
    kwargs = {k: _number(section, "robot", k) for k in ("m1", "m2", "l1", "l2", "I1", "I2")}
    kwargs["g"] = _number(section, "robot", "g", 9.81)
    try:
        return RobotParams.from_physical(**kwargs)
    except ValueError as e:
        raise ConfigError(f"robot: {e}") from e


def _load_gains(raw: dict, params: RobotParams) -> ControllerGains:
    defaults = DEFAULTS["controller"]
    section = _section(raw, "controller", set(defaults))
    values = {k: _number(section, "controller", k, defaults[k]) for k in defaults}
    try:
        gains = ControllerGains(**values)
    except ValueError as e:
        raise ConfigError(f"controller: {e}") from e
    # the region, Md(0) and z(q) - q1 = a atan(b sin q2) from the Coeffs that run() builds
    try:
        region_rho(params, gains)
        k = coeffs(params, gains)
        _, _, _, d2, d4, _ = shape_terms(k, 0.0, 1.0)
        det = _md_det(k, d2, d4)
        z0, z1 = _z_offset(k, 0.0), _z_offset(k, 1.0)
    except EmptyRegion as e:
        raise ConfigError(f"controller: {e}") from e
    except ArithmeticError as e:
        raise ConfigError(f"controller: gains out of scale for the robot ({e})") from e
    if not det > 0.0:
        raise ConfigError(f"controller: det Md(0) = k2*d4(0) - d2(0)^2 = {det:.6g} is not > 0 "
                          "— Md is not positive definite at the equilibrium; increase k2")
    if not (z0 == 0.0 and math.isfinite(z1)):  # nan or inf unless a and b are finite
        raise ConfigError("controller: z offset constants a = sqrt(p3/(k1*p2*psi40)) and "
                          "b = sqrt(p2/(k1*p3*psi40)) not finite; rescale k1*psi40")
    return gains


def _load_disturbance(raw: dict) -> DisturbanceSpec | None:
    if raw.get("disturbance") is None:
        return None
    section = _section(raw, "disturbance", {"f", "theta"})
    f = section.get("f")
    if not isinstance(f, list) or not f or not all(isinstance(t, str) for t in f):
        raise ConfigError("disturbance.f: expected a nonempty list of expressions")
    try:
        regressor = parse_regressor(f)
    except ParseError as e:
        raise ConfigError(f"disturbance.f: {e}") from e
    theta = _vector(section, "disturbance", "theta", len(f))
    return DisturbanceSpec(regressor=regressor, theta=np.array(theta))


def _load_adaptive(raw: dict, dist: DisturbanceSpec | None) -> AdaptiveState | None:
    defaults = DEFAULTS["adaptive"]
    section = _section(raw, "adaptive", set(defaults))
    if dist is None:
        if section:
            raise ConfigError("adaptive: requires a disturbance section (nothing to adapt)")
        return None
    ell = dist.regressor.ell
    theta_hat0 = (_vector(section, "adaptive", "theta_hat0", ell)
                  if section.get("theta_hat0") is not None else [0.0] * ell)
    gamma = section.get("gamma", defaults["gamma"])
    if isinstance(gamma, list):
        rows = [_vector({f"gamma[{j}]": r}, "adaptive", f"gamma[{j}]", ell)
                for j, r in enumerate(gamma)]
        if len(rows) != ell:
            raise ConfigError(f"adaptive.gamma: expected {ell}x{ell} matrix")
        gamma = rows
    else:   # a scalar, which AdaptiveState takes as gamma * I
        gamma = _number(section, "adaptive", "gamma", defaults["gamma"])
        if gamma <= 0:
            raise ConfigError("adaptive.gamma: must be > 0")
    try:
        return AdaptiveState(theta_hat=np.array(theta_hat0), gamma=gamma)
    except ValueError as e:
        raise ConfigError(f"adaptive: {e}") from e


def _load_verify(raw: dict) -> VerifyOptions:
    section = _section(raw, "verify", {"seed", "counterexample"})
    kwargs = {}
    if "seed" in section:
        kwargs["seed"] = _count(section, "verify", "seed", 0, 2 ** 63 - 1)
    ce = _section(section, "verify.counterexample", {"frak_k1", "frak_k2", "b"})
    try:
        kwargs["counterexample"] = CounterexampleSpec(
            frak_k1=_number(ce, "verify.counterexample", "frak_k1", 1.0),
            frak_k2=_number(ce, "verify.counterexample", "frak_k2", 1.0),
            b=_number(ce, "verify.counterexample", "b", 1.0))
    except ValueError as e:
        raise ConfigError(f"verify.counterexample: {e}") from e
    return VerifyOptions(**kwargs)


def load_config(path: str) -> Config:
    """Load and validate a YAML config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            # libyaml's parser when PyYAML was built with it: several times faster
            raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except FileNotFoundError as e:
        raise ConfigError(f"config file not found: {path}") from e
    except OSError as e:
        raise ConfigError(f"{path}: cannot read: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"{path}: not valid YAML: {e}") from e
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    _require_keys(raw, "config", {"robot", "controller", "simulation",
                                  "disturbance", "adaptive", "verify", "output"})

    params = _load_robot(raw.get("robot"))
    gains = _load_gains(raw, params)

    sim_defaults = DEFAULTS["simulation"]
    sim = _section(raw, "simulation", set(sim_defaults))
    mode = sim.get("mode", sim_defaults["mode"])
    q0 = tuple(_vector(sim, "simulation", "q0", 2, sim_defaults["q0"]))
    qdot0 = tuple(_vector(sim, "simulation", "qdot0", 2, sim_defaults["qdot0"]))
    dt = _number(sim, "simulation", "dt", sim_defaults["dt"])
    t_end = _number(sim, "simulation", "t_end", sim_defaults["t_end"])

    dist = _load_disturbance(raw)
    adaptive = _load_adaptive(raw, dist)

    if mode not in MODES:
        raise ConfigError(f"simulation.mode: unknown mode {mode!r}")
    if mode != "nominal" and dist is None:
        raise ConfigError(f"simulation.mode: {mode} requires a disturbance section")
    if dt <= 0 or t_end < dt:
        raise ConfigError("simulation: need dt > 0 and t_end >= dt")
    try:
        step_count(t_end, dt)
    except ValueError as e:
        raise ConfigError(f"simulation.t_end: {e}") from e

    out = _section(raw, "output", set(DEFAULTS["output"]))
    out_dir = out.get("dir", DEFAULTS["output"]["dir"])
    if not isinstance(out_dir, str):
        raise ConfigError("output.dir: expected a string")
    plots = out.get("plots", DEFAULTS["output"]["plots"])
    if not isinstance(plots, bool):
        raise ConfigError("output.plots: expected true/false")

    return Config(params=params, gains=gains, mode=mode, q0=q0, qdot0=qdot0,
                  dt=dt, t_end=t_end, disturbance=dist, adaptive=adaptive,
                  verify=_load_verify(raw), out_dir=out_dir, plots=plots)
