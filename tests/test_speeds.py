"""Speed-function tests: symmetry, umbilic derivatives, admissibility."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixedflow.errors import SpeedError
from mixedflow.geometry import bundle_from_coeffs
from mixedflow.speeds import (
    SpeedSpec,
    eval_speed,
    eval_speed_kappa,
    reference_speed,
    umbilic_derivative,
)


def all_speeds(n, R=1.0):
    speeds = [SpeedSpec("mean", n=n, R=R),
              SpeedSpec("power_mean", n=n, R=R, m=1, beta=2.0),
              SpeedSpec("power_mean", n=n, R=R, m=1, beta=0.5),
              SpeedSpec("elementary", n=n, R=R, l=1)]
    if n == 2:
        speeds.append(SpeedSpec("elementary", n=n, R=R, l=2))
        speeds.append(SpeedSpec("power_mean", n=n, R=R, m=2, beta=1.0))
    return speeds


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 3.0), st.floats(0.1, 3.0))
def test_permutation_symmetry(k1, k2):
    for spec in all_speeds(2):
        assert eval_speed_kappa(spec, (k1, k2)) == eval_speed_kappa(spec, (k2, k1))


def test_umbilic_derivative_closed_forms():
    # mean: 1; power_mean(m, beta): (m beta / n) R^(1 - m beta); elementary(l): C(n-1, l-1) R^(1-l)
    assert umbilic_derivative(SpeedSpec("mean", n=2, R=1.0)) == 1.0
    assert abs(umbilic_derivative(SpeedSpec("power_mean", n=2, R=1.0, m=1, beta=2.0)) - 1.0) < 1e-14
    assert abs(umbilic_derivative(SpeedSpec("power_mean", n=1, R=1.0, m=1, beta=2.0)) - 2.0) < 1e-14
    assert abs(umbilic_derivative(SpeedSpec("elementary", n=2, R=1.0, l=2)) - 1.0) < 1e-14
    assert abs(umbilic_derivative(SpeedSpec("elementary", n=2, R=2.0, l=2)) - 0.5) < 1e-14
    assert abs(umbilic_derivative(SpeedSpec("power_mean", n=2, R=2.0, m=2, beta=1.0)) - 0.5) < 1e-14


def test_umbilic_derivative_vs_finite_differences():
    for n in (1, 2):
        for spec in all_speeds(n, R=1.3):
            closed = umbilic_derivative(spec)
            fd = umbilic_derivative(spec, step=1e-6)
            assert abs(closed - fd) <= 1e-7 * abs(closed)


def test_reference_speed_frozen():
    assert reference_speed(SpeedSpec("mean", n=2, R=1.0)) == 2.0
    assert reference_speed(SpeedSpec("mean", n=1, R=2.0)) == 0.5
    assert abs(reference_speed(SpeedSpec("power_mean", n=2, R=2.0, m=1, beta=2.0)) - 0.25) < 1e-15
    assert abs(reference_speed(SpeedSpec("elementary", n=2, R=2.0, l=2)) - 0.25) < 1e-15


def test_constant_on_spheres(grid2):
    coeffs = np.zeros(grid2.size)
    coeffs[0] = 0.3 * math.sqrt(4.0 * math.pi)
    bundle = bundle_from_coeffs(grid2, 1.0, coeffs)
    for spec in all_speeds(2):
        F = eval_speed(spec, bundle.E)
        mean = float(np.mean(F))
        assert np.max(np.abs(F - mean)) <= 1e-12 * abs(mean)


def test_admissibility_rejected():
    with pytest.raises(SpeedError):
        SpeedSpec("power_mean", n=2, R=1.0, m=1, beta=-1.0)
    with pytest.raises(SpeedError):
        SpeedSpec("elementary", n=2, R=1.0, l=0)
    with pytest.raises(SpeedError):
        SpeedSpec("power_mean", n=2, R=1.0, m=3, beta=1.0)
    with pytest.raises(SpeedError):
        SpeedSpec("madeup", n=2, R=1.0)
    with pytest.raises(SpeedError):
        SpeedSpec("custom", n=2, R=1.0)  # no phi
    with pytest.raises(SpeedError):
        # decreasing speed: F' < 0 at the sphere
        SpeedSpec("custom", n=2, R=1.0, phi=lambda h1, h2: -h1)
    # a non-default value of a parameter the kind does not take
    with pytest.raises(SpeedError, match="takes no parameter beta=3.0"):
        SpeedSpec("mean", n=2, R=1.0, beta=3.0)
    with pytest.raises(SpeedError, match="takes no parameter l=2"):
        SpeedSpec("power_mean", n=2, R=1.0, m=1, beta=2.0, l=2)


def test_custom_speed():
    # F = H_1 H_2 has F'(kappa_0) = (1/n + 1) R^{-2} at the round sphere
    spec = SpeedSpec("custom", n=2, R=1.0, phi=lambda h1, h2: h1 * h2)
    assert abs(umbilic_derivative(spec) - 1.5) < 1e-9


def test_power_mean_negative_base():
    # non-integer powers need positive curvature means pointwise
    spec = SpeedSpec("power_mean", n=2, R=1.0, m=1, beta=0.5)
    with pytest.raises(SpeedError):
        eval_speed_kappa(spec, (-2.0, -2.0))


def test_describe_strings():
    assert SpeedSpec("mean", n=2, R=1.0).describe() == "mean"
    assert SpeedSpec("power_mean", n=2, R=1.0, m=1, beta=2.0).describe() == "power_mean m=1 beta=2"
    assert SpeedSpec("elementary", n=2, R=1.0, l=2).describe() == "elementary l=2"
