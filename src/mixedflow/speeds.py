"""Curvature speed functions and their normalization at the round sphere.

A speed is a symmetric function of the principal curvatures, evaluated here
through the elementary symmetric combinations that the geometry module
already provides.  Each kind is one `SPEED_KINDS` entry: the parameters it
takes with their casts, its order j (the parameter naming the E_j it reads,
which must lie in [1, n]), F of the elementary symmetric functions with
its domain check, and F and F' at the round sphere in closed form.
Built-in kinds:

    mean                F = E_1, the elementary entry with l fixed at 1
    power_mean m beta   F = (E_m / C(n, m))^beta, order m
    elementary l        F = E_l, order l

`SpeedSpec` checks a speed against its entry at construction, `describe`
writes it in the config grammar and `SpeedSpec.parse` reads it back.  Every
speed must be strictly increasing in each curvature at the round reference
sphere; the derivative there (all curvatures equal to 1/R, perturbed in one
of them) normalizes the linear theory.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import SpeedError


# One speed kind.  params maps each numeric parameter it takes to its cast; the others
# keep their SpeedSpec defaults.  order names the parameter j of the E_j it reads, which
# must lie in [1, n].  F(spec, E) is the speed field from E = (E_0, ..., E_n),
# SpeedError outside its domain; F_sphere(spec) and dF_sphere(spec) are F and its
# derivative in one principal curvature at the round sphere, in closed form.
SpeedKind = namedtuple("SpeedKind", "params order F F_sphere dF_sphere")


def _power_mean(spec: SpeedSpec, E: tuple) -> np.ndarray:
    base = np.asarray(E[spec.m] / math.comb(spec.n, spec.m), dtype=float)
    if spec.beta != round(spec.beta) and np.any(base <= 0.0):
        raise SpeedError(f"power_mean base must stay positive for beta={spec.beta:g}")
    return base ** spec.beta


_ELEMENTARY = SpeedKind({"l": int}, "l", lambda s, E: np.asarray(E[s.l], dtype=float),
                        lambda s: math.comb(s.n, s.l) * s.R ** -s.l,
                        lambda s: math.comb(s.n - 1, s.l - 1) * s.R ** (1 - s.l))

# mean is E_1: the elementary entry, its l fixed at the default 1.
SPEED_KINDS = {"mean": _ELEMENTARY._replace(params={}), "elementary": _ELEMENTARY,
               "power_mean": SpeedKind(
                   {"m": int, "beta": float}, "m", _power_mean, lambda s: s.R ** (-s.m * s.beta),
                   lambda s: (s.m * s.beta / s.n) * s.R ** (1.0 - s.m * s.beta))}


def _kind(name: str) -> SpeedKind:
    if name not in SPEED_KINDS:
        raise SpeedError(f"unknown speed kind {name!r}")
    return SPEED_KINDS[name]


# What a number of each cast must be, for the refusal of a value that is not one.
NUMBER_KINDS = {int: "an integer", float: "a real number"}


def is_number(x, cast: type) -> bool:
    """True for an x of cast's kind, int or float, that is not a bool: numpy's numbers
    count, and an int counts as a float."""
    return (isinstance(x, numbers.Integral if cast is int else numbers.Real)
            and not isinstance(x, bool))


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
        kind = _kind(self.kind)
        for name, cast in (("m", int), ("beta", float), ("l", int)):
            if not is_number(value := getattr(self, name), cast):
                raise SpeedError(
                    f"speed parameter {name} must be {NUMBER_KINDS[cast]}, got {value!r}")
        if not is_number(self.n, int) or self.n not in (1, 2):
            raise SpeedError(f"speeds are defined for n in {{1, 2}}, got {self.n}")
        if not is_number(self.R, float):
            raise SpeedError(f"reference radius must be a real number, got {self.R!r}")
        if self.R <= 0:
            raise SpeedError(f"reference radius must be positive, got {self.R}")
        if not math.isfinite(self.R):
            raise SpeedError(f"reference radius must be finite, got {self.R}")
        for name in ("m", "beta", "l"):
            value = getattr(self, name)
            if name not in kind.params and value != getattr(SpeedSpec, name):
                raise SpeedError(f"speed kind {self.kind!r} takes no parameter {name}={value!r}")
        j = getattr(self, kind.order)
        if not 1 <= j <= self.n:
            raise SpeedError(f"{self.kind} needs 1 <= {kind.order} <= n, got {kind.order}={j}")
        if (fp := _at_sphere(self, "F'", umbilic_derivative)) <= 0.0:
            raise SpeedError(
                f"speed {self.describe()} is not increasing at the reference sphere (F'={fp:.3e})")
        _at_sphere(self, "F", reference_speed)

    def describe(self) -> str:
        return " ".join([self.kind, *(f"{name}={format_param(cast, getattr(self, name))}"
                                      for name, cast in SPEED_KINDS[self.kind].params.items())])

    @classmethod
    def parse(cls, text: str, n: int, R: float) -> SpeedSpec:
        """The speed that `describe` writes as text: its kind, then name=value per parameter."""
        words = text.split()
        if not words:
            raise SpeedError(f"speed text {text!r} names no kind")
        name, *items = words
        casts = _kind(name).params
        kwargs: dict = {}
        for item in items:
            key, sep, raw = item.partition("=")
            if not sep:
                raise SpeedError(f"bad speed parameter {item!r}")
            if key not in casts:
                raise SpeedError(f"unknown speed parameter {key!r} for {name}")
            if key in kwargs:
                raise SpeedError(f"speed parameter {key!r} given twice")
            try:
                kwargs[key] = casts[key](raw)
            except ValueError as exc:
                raise SpeedError(f"bad speed parameter value {raw!r}") from exc
        return cls(name, n=n, R=R, **kwargs)


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
    return SPEED_KINDS[spec.kind].F(spec, E)


def reference_speed(spec: SpeedSpec) -> float:
    """F at the round reference sphere (all curvatures 1/R), in closed form."""
    return SPEED_KINDS[spec.kind].F_sphere(spec)


def umbilic_derivative(spec: SpeedSpec) -> float:
    """Derivative of F in one principal curvature at the round sphere, in closed form."""
    return SPEED_KINDS[spec.kind].dF_sphere(spec)
