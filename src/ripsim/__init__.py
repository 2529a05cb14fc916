"""Rotary inverted pendulum: energy-shaping control, simulation, verification."""
from .adaptive import AdaptiveState, DisturbanceSpec
from .controller import ControllerGains, DefinitenessLost, EmptyRegion, region_rho
from .model import RobotParams
from .regressor import ParseError, RegressorSpec, UnknownVariable, parse_regressor
from .simulate import NonFiniteState, Scenario, Trace, run

__all__ = [
    "AdaptiveState", "ControllerGains", "DefinitenessLost", "DisturbanceSpec",
    "EmptyRegion", "NonFiniteState", "ParseError", "RegressorSpec",
    "RobotParams", "Scenario", "Trace", "UnknownVariable",
    "parse_regressor", "region_rho", "run",
]
