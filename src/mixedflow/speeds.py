"""Curvature speed functions and their normalization at the round sphere.

A speed is a symmetric function of the principal curvatures, evaluated here
through the elementary symmetric combinations that the geometry module
already provides.  Built-in kinds:

    mean                F = E_1, the sum of principal curvatures
    power_mean m beta   F = (E_m / C(n, m))^beta
    elementary l        F = E_l
    custom              F = phi(H_1, ..., H_n) with H_m = E_m / C(n, m)

Every speed must be strictly increasing in each curvature at the round
reference sphere; the derivative there (all curvatures equal to 1/R,
perturbed in one of them) normalizes the linear theory and is checked at
construction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SpeedError
from .geometry import elementary_symmetric

# Speed kind -> cast of each numeric parameter it takes; the others keep their defaults.
SPEED_PARAMS = {"mean": {}, "power_mean": {"m": int, "beta": float},
                "elementary": {"l": int}, "custom": {}}


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
    phi: Callable[..., np.ndarray] | None = None

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
        if self.kind == "custom" and self.phi is None:
            raise SpeedError("custom speed needs a callable phi")
        fp = umbilic_derivative(self)
        if not np.isfinite(fp) or fp <= 0.0:
            raise SpeedError(
                f"speed {self.describe()} is not increasing at the reference sphere (F'={fp:.3e})")

    def describe(self) -> str:
        return " ".join([self.kind, *(f"{name}={format_param(cast, getattr(self, name))}"
                                      for name, cast in SPEED_PARAMS[self.kind].items())])


def eval_speed(spec: SpeedSpec, E: tuple) -> np.ndarray:
    """Speed field from the elementary symmetric functions E = (E_0, ..., E_n)."""
    if spec.kind == "mean":
        return np.asarray(E[1], dtype=float)
    if spec.kind == "elementary":
        return np.asarray(E[spec.l], dtype=float)
    if spec.kind == "power_mean":
        base = np.asarray(E[spec.m] / math.comb(spec.n, spec.m), dtype=float)
        if spec.beta != round(spec.beta) and np.any(base <= 0.0):
            raise SpeedError(
                f"power_mean base must stay positive for beta={spec.beta:g}")
        return base ** spec.beta
    means = [E[m] / math.comb(spec.n, m) for m in range(1, spec.n + 1)]
    return np.asarray(spec.phi(*means), dtype=float)


def eval_speed_kappa(spec: SpeedSpec, kappa) -> float:
    """Speed at one curvature tuple; used by difference checks and tests."""
    kappa = [float(k) for k in kappa]
    if len(kappa) != spec.n:
        raise SpeedError(f"expected {spec.n} curvatures, got {len(kappa)}")
    e = [1.0] + [elementary_symmetric(kappa, k) for k in range(1, spec.n + 1)]
    return float(eval_speed(spec, tuple(e)))


def reference_speed(spec: SpeedSpec) -> float:
    """F evaluated at the round reference sphere (all curvatures 1/R)."""
    return eval_speed_kappa(spec, [1.0 / spec.R] * spec.n)


def umbilic_derivative(spec: SpeedSpec, step: float | None = None) -> float:
    """Derivative of F in one principal curvature at the round sphere.

    Closed forms for the built-in kinds; a central difference with step
    1e-6/R for custom speeds (and available for cross-checks on any kind
    by passing an explicit step).
    """
    n, R = spec.n, spec.R
    if step is None and spec.kind != "custom":
        if spec.kind == "mean":
            return 1.0
        if spec.kind == "elementary":
            return math.comb(n - 1, spec.l - 1) * R ** (1 - spec.l)
        if spec.kind == "power_mean":
            return (spec.m * spec.beta / n) * R ** (1.0 - spec.m * spec.beta)
    h = step if step is not None else 1e-6 / R
    k0 = [1.0 / R] * n
    kp = [1.0 / R + h] + k0[1:]
    km = [1.0 / R - h] + k0[1:]
    return (eval_speed_kappa(spec, kp) - eval_speed_kappa(spec, km)) / (2.0 * h)
