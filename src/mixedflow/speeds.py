"""Curvature speed functions and their normalization at the round sphere.

A speed is a symmetric function of the principal curvatures, evaluated here
through the elementary symmetric combinations that the geometry module
already provides.  Built-in kinds:

    mean                F = E_1, the sum of principal curvatures (elementary l=1)
    power_mean m beta   F = (E_m / C(n, m))^beta
    elementary l        F = E_l

Every speed must be strictly increasing in each curvature at the round
reference sphere; the derivative there (all curvatures equal to 1/R,
perturbed in one of them) normalizes the linear theory and is checked at
construction time, in closed form like the value of F there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpeedError

# Speed kind -> cast of each numeric parameter it takes; the others keep their defaults.
SPEED_PARAMS = {"mean": {}, "power_mean": {"m": int, "beta": float}, "elementary": {"l": int}}


def format_number(x: float) -> str:
    """Short `:g` text of x when it parses back to x exactly, else repr."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x))


def format_param(cast: type, x) -> str:
    """Text of a parameter that parses back through cast: str for ints."""
    return str(x) if cast is int else format_number(x)


@dataclass(frozen=True)
class SpeedSpec:
    """Speed function bound to a dimension n and reference radius R; built checked whole."""

    kind: str
    n: int
    R: float
    m: int = 1
    beta: float = 1.0
    l: int = 1

    def __post_init__(self):
        if self.kind not in SPEED_PARAMS:
            raise SpeedError(f"unknown speed kind {self.kind!r}")
        if self.n not in (1, 2):
            raise SpeedError(f"speeds are defined for n in {{1, 2}}, got {self.n}")
        if self.R <= 0:
            raise SpeedError(f"reference radius must be positive, got {self.R}")
        if not math.isfinite(self.R):
            raise SpeedError(f"reference radius must be finite, got {self.R}")
        for name in ("m", "beta", "l"):
            value = getattr(self, name)
            if name not in SPEED_PARAMS[self.kind] and value != getattr(SpeedSpec, name):
                raise SpeedError(f"speed kind {self.kind!r} takes no parameter {name}={value!r}")
        if self.kind == "power_mean" and not 1 <= self.m <= self.n:
            raise SpeedError(f"power_mean needs 1 <= m <= n, got m={self.m}")
        if self.kind == "elementary" and not 1 <= self.l <= self.n:
            raise SpeedError(f"elementary needs 1 <= l <= n, got l={self.l}")
        fp = _at_sphere(self, "F'", umbilic_derivative)
        if fp <= 0.0:
            raise SpeedError(
                f"speed {self.describe()} is not increasing at the reference sphere (F'={fp:.3e})")
        _at_sphere(self, "F", reference_speed)

    def describe(self) -> str:
        return " ".join([self.kind, *(f"{name}={format_param(cast, getattr(self, name))}"
                                      for name, cast in SPEED_PARAMS[self.kind].items())])


def _at_sphere(spec: SpeedSpec, name: str, closed_form) -> float:
    """closed_form(spec), named name, at the reference sphere; SpeedError unless finite."""
    try:
        value = closed_form(spec)
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value
    raise SpeedError(f"{name} of speed {spec.describe()} at the reference sphere is {value}")


def eval_speed(spec: SpeedSpec, E: tuple) -> np.ndarray:
    """Speed field from the elementary symmetric functions E = (E_0, ..., E_n)."""
    if spec.kind in ("mean", "elementary"):
        return np.asarray(E[spec.l], dtype=float)
    base = np.asarray(E[spec.m] / math.comb(spec.n, spec.m), dtype=float)
    if spec.beta != round(spec.beta) and np.any(base <= 0.0):
        raise SpeedError(
            f"power_mean base must stay positive for beta={spec.beta:g}")
    return base ** spec.beta


def reference_speed(spec: SpeedSpec) -> float:
    """F at the round reference sphere (all curvatures 1/R), in closed form."""
    n, R = spec.n, spec.R
    if spec.kind in ("mean", "elementary"):
        return math.comb(n, spec.l) * R ** -spec.l
    return R ** (-spec.m * spec.beta)


def umbilic_derivative(spec: SpeedSpec) -> float:
    """Derivative of F in one principal curvature at the round sphere, in closed form."""
    n, R = spec.n, spec.R
    if spec.kind in ("mean", "elementary"):
        return math.comb(n - 1, spec.l - 1) * R ** (1 - spec.l)
    return (spec.m * spec.beta / n) * R ** (1.0 - spec.m * spec.beta)
