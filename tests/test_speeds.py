"""Speed-function tests: symmetry, umbilic derivatives, admissibility."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixedflow.errors import SpeedError
from mixedflow.flow import FlowConfig, numerical_jacobian
from mixedflow.geometry import bundle_from_coeffs
from mixedflow.harmonics import build_grid
from mixedflow.speeds import SPEED_KINDS, SpeedSpec, eval_speed, reference_speed, umbilic_derivative
from oracles import elementary_symmetric, speed_at, umbilic_difference


def all_speeds(n, R=1.0):
    """Every SPEED_KINDS entry, each int parameter (an order) at every value from 1
    to n, each float parameter at 0.5, 1 and 2."""
    return [SpeedSpec(kind, n=n, R=R, **dict(zip(entry.params, values)))
            for kind, entry in SPEED_KINDS.items()
            for values in itertools.product(*(
                range(1, n + 1) if cast is int else (0.5, 1.0, 2.0)
                for cast in entry.params.values()))]


def speed_kappa(spec, kappa):
    """The package's speed at one curvature tuple, fed the oracle's E_0, ..., E_n."""
    return float(eval_speed(spec, tuple(elementary_symmetric(kappa, l)
                                        for l in range(spec.n + 1))))


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 3.0), st.floats(0.1, 3.0))
def test_permutation_symmetry(k1, k2):
    for spec in all_speeds(2):
        assert speed_kappa(spec, (k1, k2)) == speed_kappa(spec, (k2, k1))


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
            fd = umbilic_difference(spec, h=1e-6)
            assert abs(closed - fd) <= 1e-7 * abs(closed)


def test_reference_speed_frozen():
    assert reference_speed(SpeedSpec("mean", n=2, R=1.0)) == 2.0
    assert reference_speed(SpeedSpec("mean", n=1, R=2.0)) == 0.5
    assert abs(reference_speed(SpeedSpec("power_mean", n=2, R=2.0, m=1, beta=2.0)) - 0.25) < 1e-15
    assert abs(reference_speed(SpeedSpec("elementary", n=2, R=2.0, l=2)) - 0.25) < 1e-15


def test_reference_speed_matches_the_definition():
    # the closed form of F(kappa0) against the speed's definition at (1/R, ..., 1/R)
    for n in (1, 2):
        for R in (0.7, 1.0, 1.3):
            for spec in all_speeds(n, R):
                want = speed_at(spec, [1.0 / R] * n)
                assert abs(reference_speed(spec) - want) <= 2.0 * math.ulp(want), spec


def test_mean_is_elementary_one():
    # mean is E_1: the same bits as elementary l=1 in every closed form, and n / R at the sphere
    rng = np.random.default_rng(3)
    for n in (1, 2):
        E = (np.ones(5), *rng.uniform(0.1, 3.0, (n, 5)))
        for R in (1.0, 0.7, 3.0):
            mean, e1 = SpeedSpec("mean", n=n, R=R), SpeedSpec("elementary", n=n, R=R, l=1)
            assert np.array_equal(eval_speed(mean, E), eval_speed(e1, E))
            assert reference_speed(mean) == reference_speed(e1) == n / R
            assert umbilic_derivative(mean) == umbilic_derivative(e1) == 1.0


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
    # F' or F at the reference sphere too large for a float
    with pytest.raises(SpeedError,
                       match="F' of speed power_mean m=1 beta=1000 at the reference sphere is inf"):
        SpeedSpec("power_mean", n=2, R=0.001, m=1, beta=1000.0)
    with pytest.raises(SpeedError,
                       match="F of speed elementary l=2 at the reference sphere is inf"):
        SpeedSpec("elementary", n=2, R=1e-160, l=2)
    # a non-default value of a parameter the kind does not take
    with pytest.raises(SpeedError, match="takes no parameter beta=3.0"):
        SpeedSpec("mean", n=2, R=1.0, beta=3.0)
    with pytest.raises(SpeedError, match="takes no parameter l=2"):
        SpeedSpec("power_mean", n=2, R=1.0, m=1, beta=2.0, l=2)



@pytest.mark.parametrize("n,R,message", [
    (3, 1.0, "speeds are defined for n in {1, 2}, got 3"),
    (2, 0.0, "reference radius must be positive, got 0.0"),
])
def test_speed_refuses_dimension_and_radius(n, R, message):
    with pytest.raises(SpeedError) as info:
        SpeedSpec("mean", n=n, R=R)
    assert str(info.value) == message

def test_power_mean_negative_base():
    # non-integer powers need positive curvature means pointwise
    spec = SpeedSpec("power_mean", n=2, R=1.0, m=1, beta=0.5)
    with pytest.raises(SpeedError):
        speed_kappa(spec, (-2.0, -2.0))


def test_describe_strings():
    assert SpeedSpec("mean", n=2, R=1.0).describe() == "mean"
    assert SpeedSpec("power_mean", n=2, R=1.0, m=1, beta=2.0).describe() == "power_mean m=1 beta=2"
    assert SpeedSpec("elementary", n=2, R=1.0, l=2).describe() == "elementary l=2"


@pytest.mark.parametrize("text,message", [
    ("power_mean m=2 m=1 beta=2", "speed parameter 'm' given twice"),
    ("power_mean m=1 beta=2 beta=2", "speed parameter 'beta' given twice"),
    ("", "speed text '' names no kind"),
    (" \t ", "speed text ' \\t ' names no kind"),
])
def test_speed_parse_refuses_a_repeated_parameter_and_blank_text(text, message):
    # refused as a repeated config key is; blank text is a SpeedError like any bad speed
    with pytest.raises(SpeedError) as info:
        SpeedSpec.parse(text, 2, 1.0)
    assert str(info.value) == message


@pytest.mark.parametrize("k", (-1, 0))
@pytest.mark.parametrize("spec", [spec for n in (1, 2) for spec in all_speeds(n, R=1.3)],
                         ids=lambda spec: f"n{spec.n}-{spec.describe().replace(' ', '-')}")
def test_jacobian_diagonal_is_the_closed_form_derivative(spec, k):
    # ACCEPTANCE 4 for every table entry: the velocity's Jacobian at the sphere
    # is -F'(l-1)(l+n)/R^2 on degree l, with F' the entry's closed form, and
    # vanishes on the n + 2 directions of constants and degree 1
    cfg = FlowConfig(n=spec.n, R=spec.R, k=k, speed=spec, L_max=8)
    J, rep = numerical_jacobian(cfg, l_max=4)
    degrees = build_grid(spec.n, 8).degrees[:J.shape[0]]
    l = degrees[degrees >= 2]
    target = -umbilic_derivative(spec) * (l - 1.0) * (l + spec.n) / spec.R ** 2
    assert np.max(np.abs(np.diag(J)[degrees >= 2] - target) / np.abs(target)) <= 1e-6
    assert rep.zero_multiplicity_numeric == spec.n + 2
