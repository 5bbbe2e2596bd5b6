"""Flow engine tests: stationarity, linearization, stepping, conservation."""

import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from mixedflow.analysis import sphere_from_coords
from mixedflow.errors import AdmissibilityError, ConfigError, SpeedError, StepRejectedError
from mixedflow.flow import (
    DiagnosticsRecord,
    FlowConfig,
    FlowProblem,
    cfl_timestep,
    default_timestep,
    numerical_jacobian,
    run,
)
from mixedflow.harmonics import RadialField, build_grid
from mixedflow.io import InitSpec, random_band_field
from mixedflow.speeds import SpeedSpec, reference_speed
from conftest import band_coeffs
from oracles import speed_at


def const_coeffs(grid, c):
    coeffs = np.zeros(grid.size)
    coeffs[0] = c * math.sqrt(4.0 * math.pi if grid.n == 2 else 2.0 * math.pi)
    return coeffs


def speed_matrix(n, R):
    return [SpeedSpec("mean", n=n, R=R),
            SpeedSpec("power_mean", n=n, R=R, m=1, beta=2.0),
            SpeedSpec("elementary", n=n, R=R, l=n)]


# -- stationarity ------------------------------------------------------------------


def test_spheres_stationary_all_speeds():
    # exact coefficient representation of the constant: the operator itself
    # leaves spheres fixed to near machine precision
    R = 1.0
    for n in (1, 2):
        for speed in speed_matrix(n, R):
            for k in range(-1, n):
                cfg = FlowConfig(n=n, R=R, k=k, speed=speed, L_max=16)
                prob = FlowProblem(cfg)
                for c in (-0.3 * R, 0.0, 0.5 * R):
                    G, h, _ = prob.velocity_values(const_coeffs(prob.grid, c))
                    assert np.max(np.abs(G)) <= 1e-11 * reference_speed(speed)
                    # the constraint value on a round sphere is F itself
                    kap = 1.0 / (R + c)
                    assert abs(h - speed_at(speed, [kap] * n)) \
                        <= 1e-11 * reference_speed(speed)


@pytest.mark.parametrize("L", (16, 32, 48, 64))
def test_spheres_stationary_at_every_band_limit(L):
    # centered spheres and one off center (|center| = 0.197) stay fixed up to
    # the largest band limit, where derivatives amplify quadrature error most
    for k in (-1, 0, 1):
        prob = FlowProblem(FlowConfig(n=2, R=1.0, k=k, L_max=L))
        tol = 1e-10 * reference_speed(prob.config.speed)
        spheres = {f"c={c}": RadialField(prob.grid, 1.0, values=np.full(prob.grid.shape, c))
                   for c in (-0.3, 0.2, 0.5)}
        spheres["off-center"] = sphere_from_coords((0.05, 0.15, -0.1, 0.08), prob.grid, 1.0)
        for name, rho in spheres.items():
            G, _, _ = prob.velocity_values(rho.coeffs)
            assert np.max(np.abs(G)) <= tol, (k, name)


def test_g_coeffs_vanish_on_sphere(grid2):
    prob = FlowProblem(FlowConfig(n=2, R=1.0, k=-1))
    G = grid2.synthesize(prob.g_coeffs(const_coeffs(grid2, 0.2)))
    assert np.max(np.abs(G)) <= 1e-11 * 2.0


def test_global_term_balances_constraint(grid2, rng):
    # h is defined so the E_{k+1}-weighted average of (h - F) vanishes
    from mixedflow.geometry import bundle_from_coeffs
    from mixedflow.speeds import eval_speed

    rho = RadialField(grid2, 1.0, coeffs=band_coeffs(grid2, rng, l_hi=6, scale=0.02))
    b = bundle_from_coeffs(grid2, 1.0, rho.coeffs)
    for k in (-1, 0, 1):
        cfg = FlowConfig(n=2, R=1.0, k=k)
        h = FlowProblem(cfg).velocity_values(rho.coeffs)[1]
        F = eval_speed(cfg.speed, b.E)
        weight = b.E[k + 1] * b.mu
        resid = grid2.integrate((h - F) * weight)
        assert abs(resid) <= 1e-12 * grid2.integrate(np.abs(F) * np.abs(weight))


# -- linearization ------------------------------------------------------------------


def test_linearization_consistency():
    # directional difference quotients approach the diagonal operator at O(eps)
    cfg = FlowConfig(n=2, R=1.0, k=-1, L_max=16)
    prob = FlowProblem(cfg)
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = band_coeffs(prob.grid, rng, l_lo=0, l_hi=8)
        u /= np.max(np.abs(prob.grid.synthesize(u)))
        lin = prob.linear_diag * u
        errs = []
        for eps in (1e-3, 5e-4, 2.5e-4):
            G_eps, _, _ = prob.velocity_values(eps * u)
            quot = prob.grid.analyze(G_eps) / eps
            errs.append(np.max(np.abs(quot - lin)))
        # one-sided quotients converge linearly: the ratio halves within 20%
        assert 2.0 * 0.8 <= errs[0] / errs[1] <= 2.0 * 1.2
        assert 2.0 * 0.8 <= errs[1] / errs[2] <= 2.0 * 1.2


def test_linear_diag_scales_harmonic(grid2):
    # applying the linearization to a single harmonic scales it by xi_l
    prob = FlowProblem(FlowConfig(n=2, R=1.0, k=-1, L_max=16))
    c = np.zeros(grid2.size)
    c[grid2.flat_index(3, 2)] = 1.0
    u = grid2.synthesize(c)
    got = grid2.synthesize(prob.linear_diag * grid2.analyze(u))
    assert np.max(np.abs(got + 10.0 * u)) <= 1e-9


def test_linearized_matches_jacobian_diagonal():
    cfg = FlowConfig(n=2, R=1.0, k=-1, L_max=6)
    J, report = numerical_jacobian(cfg, l_max=6)
    diag = FlowProblem(cfg).linear_diag[: J.shape[0]]
    lam_max = report.lambda_max_abs
    num = np.diag(J)
    mask = np.abs(diag) > 0
    assert np.max(np.abs(num[mask] - diag[mask]) / np.abs(diag[mask])) <= 1e-6
    assert np.max(np.abs(num[~mask])) <= 1e-6 * lam_max


def test_linearized_degrees(grid2):
    diag = FlowProblem(FlowConfig(n=2, R=1.0, k=-1, L_max=16)).linear_diag
    # neutral on constants and degree 1, then -(l-1)(l+2)
    assert np.all(diag[:4] == 0.0)
    assert diag[grid2.flat_index(2, 1)] == -4.0
    assert diag[grid2.flat_index(3, 1)] == -10.0
    assert diag[grid2.flat_index(4, 1)] == -18.0


# -- steppers ------------------------------------------------------------------------


def test_cfl_rejection():
    cfg = FlowConfig(n=2, R=1.0, k=-1, integrator="rk4", L_max=16)
    prob = FlowProblem(cfg)
    c0 = const_coeffs(prob.grid, 0.1)
    with pytest.raises(StepRejectedError) as info:
        prob.step(c0, 1e-2)
    assert info.value.suggested_dt is not None
    assert info.value.suggested_dt <= cfl_timestep(cfg)
    prob.step(c0, info.value.suggested_dt)


def test_rk4_bound_is_computed_once(monkeypatch):
    # the step bound is read from the problem, never recomputed per step
    from mixedflow import flow

    speed = SpeedSpec("power_mean", n=2, R=1.0, m=1, beta=2.0)
    cfg = FlowConfig(n=2, R=1.0, speed=speed, integrator="rk4", L_max=8)
    prob = FlowProblem(cfg)
    bound = cfl_timestep(cfg)
    calls = []
    monkeypatch.setattr(flow, "umbilic_derivative", lambda *a: calls.append(a) or 1.0)
    c0 = const_coeffs(prob.grid, 0.1)
    for _ in range(3):
        c0 = prob.step(c0, bound)
    with pytest.raises(StepRejectedError, match="exceeds the parabolic bound") as info:
        prob.step(c0, 2.0 * bound)
    assert info.value.suggested_dt == bound
    assert calls == []


def test_speed_failure_rejects_step():
    # beta = 0.5 needs a positive mean curvature; this admissible field's
    # turns negative, so the speed is undefined there and the step is rejected
    speed = SpeedSpec("power_mean", n=2, R=1.0, m=1, beta=0.5)
    cfg = FlowConfig(n=2, R=1.0, speed=speed, integrator="imex", L_max=16)
    prob = FlowProblem(cfg)
    c0 = random_band_field(prob.grid, 1.0, 0.6, 6, 10, 3).coeffs
    for step, dt in ((prob.step, default_timestep(cfg)),
                     (FlowProblem(replace(cfg, integrator="rk4")).step, cfl_timestep(cfg))):
        with pytest.raises(StepRejectedError) as info:
            step(c0, dt)
        assert info.value.suggested_dt == 0.5 * dt
        assert isinstance(info.value.__cause__, SpeedError)



@pytest.mark.parametrize("integrator", ("imex", "rk4"))
@pytest.mark.parametrize("dt", (-1e-3, 0.0, -0.0, math.nan, math.inf, -math.inf))
def test_step_refuses_a_dt_that_is_not_positive_and_finite(monkeypatch, integrator, dt):
    # no smaller dt cures such a dt, so it is refused as an input error, not
    # a rejected step, and before any velocity evaluation
    prob = FlowProblem(FlowConfig(n=2, R=1.0, integrator=integrator, L_max=8))
    c0 = random_band_field(prob.grid, 1.0, 0.05, 2, 6, 1).coeffs
    monkeypatch.setattr(prob, "velocity_values", lambda coeffs: pytest.fail("evaluated"))
    for g0 in (None, np.zeros(prob.grid.size)):
        with pytest.raises(ValueError) as info:
            prob.step(c0, dt, g0=g0)
        assert type(info.value) is ValueError
        assert str(info.value) == f"dt must be positive and finite, got {dt!r}"

def test_steppers_decay_degree_two():
    cfg = FlowConfig(n=2, R=1.0, k=-1, integrator="imex", L_max=8)
    prob = FlowProblem(cfg)
    c0 = np.zeros(prob.grid.size)
    c0[prob.grid.flat_index(2, 1)] = 1e-3
    c1 = FlowProblem(replace(cfg, integrator="rk4")).step(c0, 1e-4)
    c2 = prob.step(c0, 1e-4)
    # both shrink the degree-2 amplitude at rate 4 up to O(amp, dt) corrections
    idx = prob.grid.flat_index(2, 1)
    target = 1e-3 * math.exp(-4e-4)
    assert c1[idx] == pytest.approx(target, rel=1e-5)
    assert c2[idx] == pytest.approx(target, rel=1e-5)


def test_default_timesteps_frozen():
    cfg = FlowConfig(n=2, R=1.0, k=-1, integrator="imex", L_max=16)
    assert abs(default_timestep(cfg) - 0.5 / 272.0) < 1e-18
    cfg = FlowConfig(n=2, R=1.0, k=-1, integrator="rk4", L_max=16)
    assert abs(default_timestep(cfg) - 0.5 / 272.0) < 1e-18


def test_step_admissibility_guard(grid2):
    cfg = FlowConfig(n=2, R=1.0, k=-1, L_max=16)
    prob = FlowProblem(cfg)
    with pytest.raises(AdmissibilityError):
        prob.velocity_values(const_coeffs(grid2, -1.2))


def test_conservation_order_imex():
    drifts = []
    for dt in (2e-3, 1e-3, 5e-4):
        cfg = FlowConfig(n=2, R=1.0, k=0, integrator="imex", dt=dt, T=0.5,
                         L_max=16, cadence=10 ** 9)
        prob = FlowProblem(cfg)
        rho0 = random_band_field(prob.grid, 1.0, 0.05, 2, 6, 42)
        out = run(cfg, rho0, problem=prob)
        V0 = out.records[0].V
        drifts.append(max(abs(r.V - V0) for r in out.records) / abs(V0))
    slope = np.polyfit(np.log([2e-3, 1e-3, 5e-4]), np.log(drifts), 1)[0]
    assert 0.75 <= slope <= 1.25


def test_zero_mode_neutrality():
    # center-subspace data barely moves: displacement is O(eps^2) t
    disps = {}
    for eps in (1e-3, 1e-2):
        cfg = FlowConfig(n=2, R=1.0, k=-1, integrator="imex", dt=1e-3, T=0.5,
                         L_max=8, cadence=10 ** 9)
        prob = FlowProblem(cfg)
        omega = prob.grid.directions()
        vals = eps * (0.5 + 0.4 * omega[0] - 0.3 * omega[1] + 0.2 * omega[2])
        rho0 = RadialField(prob.grid, 1.0, values=vals)
        out = run(cfg, rho0, problem=prob)
        disps[eps] = float(np.max(np.abs(out.final.rho.values - rho0.values)))
    # quadratic in eps: the 10x amplitude moves ~100x further
    ratio = disps[1e-2] / disps[1e-3]
    assert 30.0 <= ratio <= 300.0
    assert disps[1e-3] <= 10.0 * (1e-3) ** 2 * 0.5


def test_run_records_and_status():
    cfg = FlowConfig(n=2, R=1.0, k=-1, integrator="imex", dt=1e-2, T=0.1,
                     L_max=8, cadence=3)
    prob = FlowProblem(cfg)
    coeffs = np.zeros(prob.grid.size)
    coeffs[prob.grid.flat_index(2, 1)] = 1e-3
    out = run(cfg, RadialField(prob.grid, 1.0, coeffs=coeffs), problem=prob)
    assert out.status == "reached_T"
    # records at t=0, steps 3, 6, 9, and the final step
    assert [round(r.t, 10) for r in out.records] == [0.0, 0.03, 0.06, 0.09, 0.1]
    assert out.records[-1].sup_G < out.records[0].sup_G


def test_run_converged_status():
    cfg = FlowConfig(n=2, R=1.0, k=-1, integrator="imex", dt=1e-2, T=50.0,
                     L_max=8, cadence=10)
    prob = FlowProblem(cfg)
    coeffs = np.zeros(prob.grid.size)
    coeffs[prob.grid.flat_index(2, 1)] = 1e-3
    out = run(cfg, RadialField(prob.grid, 1.0, coeffs=coeffs), problem=prob)
    assert out.status == "converged"
    assert out.final.t < 50.0
    assert out.records[-1].sup_G <= 1e-9


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(n=3)
    with pytest.raises(ValueError):
        FlowConfig(n=1, k=1)
    with pytest.raises(ValueError):
        FlowConfig(integrator="euler")
    with pytest.raises(ValueError):
        FlowConfig(dt=-1e-3)
    with pytest.raises(ValueError):
        FlowConfig(n=1, speed=SpeedSpec("mean", n=2, R=1.0))



@pytest.mark.parametrize("kwargs,message", [
    ({"T": 0.0}, "T must be positive"),
    ({"T": -1.0}, "T must be positive"),
    ({"cadence": 0}, "cadence must be a positive step count"),
    ({"cadence": -3}, "cadence must be a positive step count"),
])
def test_flow_config_refuses_end_time_and_cadence(kwargs, message):
    with pytest.raises(ValueError) as info:
        FlowConfig(**kwargs)
    assert type(info.value) is ValueError and str(info.value) == message

@pytest.mark.parametrize("field,value", [
    ("n", 2.0), ("n", True), ("k", -1.0), ("k", False), ("L_max", 16.0), ("cadence", 2.5),
    ("cadence", 10.0), ("L_max", "16")])
def test_flow_config_refuses_a_non_integer_count(field, value):
    # cadence=2.5 recorded every 5 steps, n=True built a circle grid, and
    # L_max=16.0 or n=2.0 failed later with a raw TypeError
    with pytest.raises(ValueError) as info:
        FlowConfig(**{field: value})
    assert type(info.value) is ValueError
    assert str(info.value) == f"{field} must be an integer, got {value!r}"
    FlowConfig(**{field: np.int64(getattr(FlowConfig, field))})  # numpy's ints are ints


@pytest.mark.parametrize("build,error,message", [
    (lambda: FlowConfig(R="1"), ValueError, "R must be a real number, got '1'"),
    (lambda: FlowConfig(dt="1e-3"), ValueError, "dt must be a real number, got '1e-3'"),
    (lambda: FlowConfig(T=True), ValueError, "T must be a real number, got True"),
    (lambda: FlowConfig(R=True), ValueError, "R must be a real number, got True"),
    (lambda: InitSpec("const", ("0.1",)), ConfigError,
     "init const parameter c must be a real number, got '0.1'"),
    (lambda: InitSpec("sphere", (0.1, 0.0, False, 0.0)), ConfigError,
     "init sphere parameter z2 must be a real number, got False"),
    (lambda: SpeedSpec("power_mean", n=2, R=1.0, m=1, beta="2"), SpeedError,
     "speed parameter beta must be a real number, got '2'"),
    (lambda: SpeedSpec("mean", n=2, R="1"), SpeedError,
     "reference radius must be a real number, got '1'"),
    (lambda: SpeedSpec("mean", n=2, R=True), SpeedError,
     "reference radius must be a real number, got True"),
], ids=["FlowConfig-R-str", "FlowConfig-dt-str", "FlowConfig-T-bool", "FlowConfig-R-bool",
        "InitSpec-str", "InitSpec-bool", "SpeedSpec-beta-str", "SpeedSpec-R-str",
        "SpeedSpec-R-bool"])
def test_a_non_number_in_a_float_field_is_refused(build, error, message):
    # a str raised a raw TypeError from the first arithmetic on it, and a
    # bool passed as 1.0 or 0.0; each is now its constructor's typed refusal
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message
    # ints and numpy's floats remain numbers
    FlowConfig(R=np.float64(1.0), T=1, dt=np.float32(1e-3))
    SpeedSpec("power_mean", n=2, R=1, m=1, beta=np.float64(2.0))


@pytest.mark.parametrize("field,value", [("T", math.nan), ("T", math.inf), ("dt", math.nan),
                                         ("dt", math.inf), ("R", math.nan), ("R", math.inf)])
def test_flow_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        FlowConfig(**{field: value})


def test_run_rejects_problem_of_another_config():
    # a k = -1 IMEX problem under a k = 0 rk4 config would keep the wrong
    # volume with the wrong stepper while the run reports the k = 0 config
    cfg = FlowConfig(n=2, R=1.0, k=0, integrator="rk4", T=0.01, L_max=8)
    prob = FlowProblem(replace(cfg, k=-1, integrator="imex"))
    rho0 = random_band_field(prob.grid, 1.0, 0.05, 2, 6, 42)
    with pytest.raises(ValueError, match="problem was built for a different configuration"):
        run(cfg, rho0, problem=prob)



def test_run_rejects_a_field_on_another_grid():
    # an equal grid built separately is still another grid: the run would
    # step coefficients whose tables it does not hold
    cfg = FlowConfig(n=2, R=1.0, T=0.01, L_max=8)
    prob = FlowProblem(cfg)
    rho0 = random_band_field(build_grid(2, 8), 1.0, 0.05, 2, 6, 42)
    with pytest.raises(ValueError) as info:
        run(cfg, rho0, problem=prob)
    assert str(info.value) == "initial field lives on a different grid"

def test_run_determinism():
    cfg = FlowConfig(n=2, R=1.0, k=0, integrator="rk4", dt=1e-3, T=0.05,
                     L_max=8, cadence=10)
    outs = []
    for _ in range(2):
        prob = FlowProblem(cfg)
        rho0 = random_band_field(prob.grid, 1.0, 0.05, 2, 6, 42)
        outs.append(run(cfg, rho0, problem=prob))
    a, b = outs
    assert np.array_equal(a.final.rho.coeffs, b.final.rho.coeffs)
    assert [r.t for r in a.records] == [r.t for r in b.records]


def test_run_ends_at_T():
    # 0.01 / 3e-4 is not a whole number of steps: the last step is shortened
    cfg = FlowConfig(n=2, R=1.0, k=-1, integrator="imex", dt=3e-4, T=0.01,
                     L_max=8, cadence=10)
    prob = FlowProblem(cfg)
    rho0 = random_band_field(prob.grid, 1.0, 0.02, 2, 4, 7)
    out = run(cfg, rho0, problem=prob)
    assert out.status == "reached_T"
    assert out.final.t == 0.01
    assert out.records[-1].t == 0.01


def test_run_ends_at_T_when_steps_are_whole_to_tolerance():
    # 0.3 / 0.1 is 3 only to within the 1e-9 tolerance, so three full steps
    # are taken; 3 * 0.1 is 0.30000000000000004, but the run ends at T
    cfg = FlowConfig(n=2, R=1.0, k=-1, integrator="imex", dt=0.1, T=0.3, L_max=8, cadence=1)
    prob = FlowProblem(cfg)
    out = run(cfg, random_band_field(prob.grid, 1.0, 0.02, 2, 4, 7), problem=prob)
    assert out.status == "reached_T"
    assert [r.t for r in out.records] == [0.0, 0.1, 0.2, 0.3]
    assert out.final.t == 0.3


def _replayed_states(cfg, prob, rho0, count):
    """The states of a run's first `count` records, replayed with `FlowProblem.step`.

    Only whole steps of the default dt: a run's first `count` records must
    come before its last, possibly shortened, step.  The replay is bit-equal
    to the run, whose steps take each record's velocity as their first stage.
    """
    dt = default_timestep(cfg)
    c = rho0.coeffs.copy()
    states, step_no = [c], 0
    while len(states) < count:
        step_no += 1
        c = prob.step(c, dt)
        if step_no % cfg.cadence == 0:
            states.append(c)
    return states


def _failing_run(integrator, cadence=1):
    # E_2 at amplitude 0.2 drives the graph out of the admissible cone
    speed = SpeedSpec("elementary", n=2, R=1.0, l=2)
    cfg = FlowConfig(n=2, R=1.0, speed=speed, integrator=integrator, T=0.2, L_max=12,
                     cadence=cadence)
    prob = FlowProblem(cfg)
    rho0 = random_band_field(prob.grid, 1.0, 0.2, 2, 8, 3)
    return cfg, prob, rho0, run(cfg, rho0, problem=prob)


@pytest.mark.parametrize("integrator,cadence,error", [
    pytest.param("rk4", 1, StepRejectedError, id="rk4-StepRejectedError"),
    pytest.param("imex", 1, AdmissibilityError, id="imex-AdmissibilityError"),
    pytest.param("rk4", 3, StepRejectedError, id="rk4-cadence3-StepRejectedError"),
    pytest.param("imex", 3, StepRejectedError, id="imex-cadence3-StepRejectedError")])
def test_failed_run_keeps_records(integrator, cadence, error):
    # rk4 rejects a step whose stage leaves the cone; imex takes the step
    # and the record of the state it reaches cannot be evaluated.  At
    # cadence 3 the run has stepped past its last record when it fails
    # (rk4 by one step, imex by two, whose next step is then rejected), so
    # only the recorded state is a correct final state.
    cfg, prob, rho0, out = _failing_run(integrator, cadence)
    assert out.status == "failed"
    assert isinstance(out.error, error)
    assert len(out.records) > 1 and out.records[-1].t < 0.2
    assert out.final.t == out.records[-1].t
    states = _replayed_states(cfg, prob, rho0, len(out.records))
    assert [prob.diagnostics(rec.t, c)[0].sup_G for rec, c in zip(out.records, states)] \
        == [rec.sup_G for rec in out.records]
    assert np.array_equal(out.final.rho.coeffs, states[-1])


# -- one evaluation per state ------------------------------------------------------


def _short_run_config(n, k, integrator, cadence=1):
    return FlowConfig(n=n, R=1.0, k=k, integrator=integrator, dt=1e-3, T=6e-3,
                      L_max=8, cadence=cadence)


def test_records_match_fresh_evaluation():
    # every recorded figure equals one computed from scratch at the same
    # state, with the record's field taken as the bundle's radius minus R
    from mixedflow.analysis import fit_sphere, mixed_volume
    from mixedflow.geometry import bundle_from_coeffs, principal_curvatures

    for n in (1, 2):
        for k in range(-1, n):
            for integrator in ("imex", "rk4"):
                cfg = _short_run_config(n, k, integrator)
                prob = FlowProblem(cfg)
                rho0 = random_band_field(prob.grid, 1.0, 0.05, 2, 5, 3)
                out = run(cfg, rho0, problem=prob)
                assert len(out.records) == 7
                states = _replayed_states(cfg, FlowProblem(cfg), rho0, 7)
                for rec, coeffs in zip(out.records, states):
                    fresh = FlowProblem(cfg)
                    G, h, _ = fresh.velocity_values(coeffs)
                    bundle = bundle_from_coeffs(prob.grid, 1.0, coeffs)
                    rho = RadialField(prob.grid, 1.0, values=bundle.radius - 1.0)
                    assert rec.h_k == h
                    assert rec.V == mixed_volume(rho, k, bundle=bundle)
                    assert rec.sup_G == float(np.max(np.abs(G)))
                    kappa = principal_curvatures(bundle)
                    assert rec.kappa_min == min(float(np.min(x)) for x in kappa)
                    assert rec.kappa_max == max(float(np.max(x)) for x in kappa)
                    # the fit and the curvature range borrow the problem's
                    # workspace and give the bits of fresh buffers
                    assert rec.sphere_residual_sup == float(np.max(np.abs(fit_sphere(rho)[1])))
                    assert rec.sup_rho == rho.sup_abs()
                    # the bundle's field is the synthesized one up to roundoff (R = 1)
                    synthesized = RadialField(prob.grid, 1.0, coeffs=coeffs)
                    assert np.max(np.abs(rho.values - synthesized.values)) <= 4e-16


def _count_bundles(monkeypatch):
    from mixedflow import flow, geometry

    calls = []
    original = geometry.bundle_from_coeffs

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(flow, "bundle_from_coeffs", counted)
    monkeypatch.setattr(geometry, "bundle_from_coeffs", counted)
    return calls


def test_one_bundle_per_state(monkeypatch):
    # a record's velocity is reused by the step that starts from it, so a run
    # of N steps builds one bundle per step evaluation plus the final record's
    calls = _count_bundles(monkeypatch)
    for integrator, evals_per_step in (("imex", 1), ("rk4", 4)):
        for cadence in (1, 4, 10 ** 9):
            cfg = _short_run_config(2, 0, integrator, cadence)
            prob = FlowProblem(cfg)
            rho0 = random_band_field(prob.grid, 1.0, 0.05, 2, 5, 3)
            calls.clear()
            run(cfg, rho0, problem=prob)
            assert len(calls) == evals_per_step * 6 + 1


@pytest.mark.parametrize("integrator", ("imex", "rk4"))
@pytest.mark.parametrize("n", (1, 2))
def test_step_takes_the_first_stage_velocity(monkeypatch, n, integrator):
    # a given g0 stands in for the first stage's evaluation, bit for bit
    cfg = _short_run_config(n, 0, integrator)
    prob = FlowProblem(cfg)
    c = random_band_field(prob.grid, 1.0, 0.05, 2, 5, 3).coeffs.copy()
    g0 = prob.g_coeffs(c)
    calls = _count_bundles(monkeypatch)
    evaluated = prob.step(c, 1e-3)
    evaluations = len(calls)
    calls.clear()
    given = prob.step(c, 1e-3, g0=g0)
    assert evaluated.tobytes() == given.tobytes()
    assert len(calls) == evaluations - 1


@pytest.mark.parametrize("integrator", ("imex", "rk4"))
def test_record_cadence_leaves_the_trajectory_unchanged(integrator):
    # a record's velocity enters the next step with the bits of a fresh stage
    ends = []
    for cadence in (1, 10 ** 9):
        cfg = _short_run_config(2, 0, integrator, cadence)
        prob = FlowProblem(cfg)
        out = run(cfg, random_band_field(prob.grid, 1.0, 0.05, 2, 5, 3), problem=prob)
        assert out.status == "reached_T"
        ends.append(out.final.rho.coeffs.tobytes())
    assert ends[0] == ends[1]


# -- workspace: allocations and lifetimes --------------------------------------------


@pytest.mark.parametrize("n,L", ((1, 64), (2, 8), (2, 24), (2, 64)))
def test_velocity_evaluation_allocation_budget(n, L):
    # once warm, an evaluation computes into the problem's workspace: its peak
    # allocation is the fresh G and the speed and constraint temporaries.
    # The circle is checked at L = 64 only: at L = 8 one of its grid arrays
    # is 256 bytes, less than the ~1.5 KB of array headers and reduction
    # scratch that any evaluation allocates.
    prob = FlowProblem(FlowConfig(n=n, L_max=L))
    c = random_band_field(prob.grid, 1.0, 0.05, 2, 6, 3).coeffs.copy()
    prob.g_coeffs(c)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        prob.g_coeffs(c)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 4 * np.empty(prob.grid.shape).nbytes


@pytest.mark.parametrize("L", (24, 64))
def test_velocity_evaluation_allocates_only_G_and_its_analysis(L):
    # the constraint weight and F * weight go into the workspace; G stays
    # fresh, so a warm mean-speed evaluation peaks at G plus the transient
    # arrays of its analysis
    prob = FlowProblem(FlowConfig(n=2, L_max=L))
    c = random_band_field(prob.grid, 1.0, 0.05, 2, 6, 3).coeffs.copy()
    prob.g_coeffs(c)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        prob.g_coeffs(c)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 2 * np.empty(prob.grid.shape).nbytes


@pytest.mark.parametrize("L", (16, 24, 64))
def test_diagnostics_allocation_budget(L):
    # once warm, a record computes its curvature range and its sphere fit in
    # the problem's workspace: its peak allocation is the record's field,
    # the fresh G and the speed and volume temporaries
    prob = FlowProblem(FlowConfig(n=2, L_max=L))
    c = random_band_field(prob.grid, 1.0, 0.05, 2, 6, 3).coeffs.copy()
    prob.diagnostics(0.0, c)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        prob.diagnostics(0.0, c)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 6 * np.empty(prob.grid.shape).nbytes


def _bytes_per_record(L):
    """Bytes a run's records retain per record: cadence 1 against records at t = 0 and T only."""
    held = {}
    for cadence in (1, 10 ** 9):
        cfg = FlowConfig(n=2, R=1.0, k=-1, dt=1e-4, T=4e-3, L_max=L, cadence=cadence)
        prob = FlowProblem(cfg)
        rho0 = random_band_field(prob.grid, 1.0, 0.05, 2, 6, 3)
        run(cfg, rho0, problem=prob)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = run(cfg, rho0, problem=prob)
            held[cadence] = (tracemalloc.get_traced_memory()[0] - base, len(out.records))
            del out
        finally:
            if not tracing:
                tracemalloc.stop()
    (dense, n_dense), (sparse, n_sparse) = held[1], held[10 ** 9]
    assert n_dense == 41 and n_sparse == 2
    return (dense - sparse) / (n_dense - n_sparse)


def test_records_hold_no_coefficient_state():
    # a record is its scalars and its L_max + 1 mode energies: from L = 8 to
    # 24 the (L + 1)^2 coefficients grow 7.7x and the mode energies 2.8x,
    # so the bytes a run keeps per record must stay under twice their L = 8 value
    small, large = _bytes_per_record(8), _bytes_per_record(24)
    assert 0 < small and large < 2 * small
    assert "coeffs" not in {field.name for field in fields(DiagnosticsRecord)}


@pytest.mark.parametrize("n", (1, 2))
def test_returned_velocity_survives_later_evaluations(n):
    cfg = FlowConfig(n=n, R=1.0, k=0, L_max=12)
    prob = FlowProblem(cfg)
    c1, c2, c3 = (random_band_field(prob.grid, 1.0, 0.05, 2, 6, seed).coeffs.copy()
                  for seed in (1, 2, 3))
    G, _, _ = prob.velocity_values(c1)
    kept = G.copy()
    prob.velocity_values(c2)
    prob.g_coeffs(c3)
    prob.diagnostics(0.0, c2)
    assert G.tobytes() == kept.tobytes()
    # a record's velocity, on the grid, too
    _, G = prob.diagnostics(0.0, c2)
    kept = G.copy()
    prob.velocity_values(c3)
    prob.step(c1, 1e-4)
    prob.diagnostics(0.0, c1)
    assert G.tobytes() == kept.tobytes() == prob.velocity_values(c2)[0].tobytes()


@pytest.mark.parametrize("n", (1, 2))
def test_record_volume_checks_its_radius_once(monkeypatch, n):
    # building the bundle checks the radius, so the k = -1 volume of a
    # record's field reads the bundle's radius without a second check
    from mixedflow import analysis
    from mixedflow.geometry import bundle_from_coeffs

    prob = FlowProblem(FlowConfig(n=n, R=1.0, k=-1, L_max=12))
    c = random_band_field(prob.grid, 1.0, 0.05, 2, 6, 3).coeffs.copy()
    bundle = bundle_from_coeffs(prob.grid, 1.0, c)
    rho = RadialField(prob.grid, 1.0, values=bundle.radius - 1.0)
    plain = analysis.mixed_volume(rho, -1)

    def refuse(r):
        raise AssertionError("radius checked again")

    monkeypatch.setattr(analysis, "check_radius", refuse)
    assert analysis.mixed_volume(rho, -1, bundle=bundle) == plain
