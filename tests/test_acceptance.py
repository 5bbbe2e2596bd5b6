"""End-to-end acceptance suite.

Each test covers one headline property of the solver and prints a single
ACCEPTANCE line (pass/fail plus the measured margin) so a full run reads
as a ten-line report.  Thresholds are pinned here on purpose; loosening
them is a behavior change, not a test fix.
"""

import numpy as np

from mixedflow.analysis import (
    fit_decay_rate,
    fit_sphere,
    mixed_volume,
    sphere_from_coords,
)
from mixedflow.flow import FlowConfig, FlowProblem, numerical_jacobian, run, stable_decay_rate
from mixedflow.geometry import bundle_from_coeffs, principal_curvatures
from mixedflow.harmonics import RadialField, build_grid
from mixedflow.io import random_band_field
from mixedflow.presets import run_experiment
from mixedflow.speeds import SpeedSpec
from oracles import graph_area, mesh_principal_curvatures, speed_at, y21, y21_grad


def _report(num: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}")


def test_01_spheres_are_stationary():
    # every admissible (n, speed, k) triple holds every centered sphere fixed
    R = 1.0
    worst, worst_case = 0.0, ""
    for n in (1, 2):
        speeds = [SpeedSpec("mean", n=n, R=R),
                  SpeedSpec("power_mean", n=n, R=R, m=1, beta=2.0),
                  SpeedSpec("elementary", n=n, R=R, l=n)]
        for speed in speeds:
            F0 = speed_at(speed, [1.0 / R] * n)
            for k in range(-1, n):
                cfg = FlowConfig(n=n, R=R, k=k, speed=speed, L_max=16)
                prob = FlowProblem(cfg)
                for c in (-0.3 * R, 0.0, 0.5 * R):
                    rho = RadialField(prob.grid, R,
                                      values=np.full(prob.grid.shape, c))
                    G, _, _ = prob.velocity_values(rho.coeffs)
                    ratio = float(np.max(np.abs(G))) / (1e-10 * F0)
                    if ratio > worst:
                        worst = ratio
                        worst_case = f"n={n} {speed.kind} k={k} c={c:g}"
    passed = worst <= 1.0
    _report(1, passed,
            f"sup|G| on spheres at most 1e-10*F(kappa0); "
            f"worst {worst:.2e} of threshold at {worst_case}")
    assert passed


def test_02_curvature_against_mesh_oracle():
    # spectral curvatures vs an independent finite-difference embedding oracle
    grid = build_grid(2, 16, oversample=4.0)
    n_nodes = grid.shape[0] * grid.shape[1]
    assert n_nodes >= 8000
    amp = 0.1
    r_fn = lambda t, p: 1.0 + amp * y21(t, p)
    TH = grid.theta[:, None] * np.ones((1, grid.shape[1]))
    PH = np.ones((grid.shape[0], 1)) * grid.phi[None, :]
    rho = RadialField(grid, 1.0, values=r_fn(TH, PH) - 1.0)
    b = bundle_from_coeffs(grid, 1.0, rho.coeffs)
    k_lo = np.minimum(*principal_curvatures(b))
    k_hi = np.maximum(*principal_curvatures(b))
    o_lo, o_hi = mesh_principal_curvatures(r_fn, TH, PH)
    kerr = max(float(np.max(np.abs(k_lo - o_lo))),
               float(np.max(np.abs(k_hi - o_hi))))
    grad_fn = lambda t, p: tuple(amp * g for g in y21_grad(t, p))
    area_oracle = graph_area(r_fn, grad_fn)
    aerr = abs(3 * mixed_volume(rho, 0) - area_oracle) / area_oracle
    passed = kerr <= 1e-6 and aerr <= 1e-8
    _report(2, passed,
            f"kappa sup-error {kerr:.2e} (tol 1e-6), area rel-error {aerr:.2e} "
            f"(tol 1e-8) on {n_nodes} nodes")
    assert passed


def test_03_linearization_by_central_differences():
    # directional derivatives of G at the round sphere, 20 random directions
    cfg = FlowConfig(n=2, R=1.0, k=-1, L_max=16)
    prob = FlowProblem(cfg)
    rng = np.random.default_rng(314)
    eps_list = np.array([1e-3, 5e-4, 2.5e-4])
    slopes = []
    for _ in range(20):
        u = rng.uniform(-1.0, 1.0, prob.grid.size)
        u[prob.grid.degrees > 8] = 0.0
        u /= np.max(np.abs(prob.grid.synthesize(u)))
        lin = prob.linear_diag * u
        errs = []
        for eps in eps_list:
            Gp, _, _ = prob.velocity_values(eps * u)
            Gm, _, _ = prob.velocity_values(-eps * u)
            quot = prob.grid.analyze(Gp - Gm) / (2.0 * eps)
            errs.append(float(np.max(np.abs(quot - lin))))
        slopes.append(float(np.polyfit(np.log(eps_list), np.log(errs), 1)[0]))
    lo, hi = min(slopes), max(slopes)
    passed = 1.8 <= lo and hi <= 2.2
    _report(3, passed,
            f"central-difference order over 20 directions in [{lo:.3f}, {hi:.3f}] "
            f"(required 2 +- 0.2)")
    assert passed


def test_04_jacobian_is_the_analytic_spectrum():
    cfg = FlowConfig(n=2, R=1.0, k=-1, L_max=8)
    J, rep = numerical_jacobian(cfg, l_max=8)
    D = J.shape[0]
    lam = rep.lambda_max_abs
    diag_rel = 0.0
    for row in rep.rows:
        if row.l >= 2:
            target = -(row.l - 1.0) * (row.l + 2.0)
            diag_rel = max(diag_rel, abs(row.lambda_numeric - target) / abs(target))
    passed = (D == 81
              and rep.max_offdiagonal <= 1e-6 * lam
              and rep.symmetry_defect <= 1e-7 * lam
              and diag_rel <= 1e-6
              and rep.zero_multiplicity_numeric == 4)
    _report(4, passed,
            f"D={D}, offdiag {rep.max_offdiagonal / lam:.2e} (tol 1e-6), "
            f"symmetry {rep.symmetry_defect / lam:.2e} (tol 1e-7), "
            f"diag rel {diag_rel:.2e} (tol 1e-6), "
            f"zero multiplicity {rep.zero_multiplicity_numeric} (need 4)")
    assert passed


def _single_mode_rate(n, speed, k, m, L):
    cfg = FlowConfig(n=n, R=1.0, k=k, speed=speed, T=1.0, L_max=L, cadence=2)
    prob = FlowProblem(cfg)
    c0 = np.zeros(prob.grid.size)
    c0[prob.grid.flat_index(m, 1)] = 1e-4
    out = run(cfg, RadialField(prob.grid, 1.0, coeffs=c0), problem=prob)
    t = [r.t for r in out.records]
    a = [float(np.sqrt(r.mode_energy[m])) for r in out.records]
    return -fit_decay_rate(t, a)


def test_05_linear_decay_rates():
    worst, worst_case = 0.0, ""
    cases = []
    for speed_kind, k in (("mean", -1), ("mean", 0), ("power_mean", -1)):
        if speed_kind == "mean":
            speed = SpeedSpec("mean", n=2, R=1.0)
        else:
            speed = SpeedSpec("power_mean", n=2, R=1.0, m=1, beta=2.0)
        for m in (2, 3, 4):
            cases.append((2, speed, k, m, 8))
    mean1 = SpeedSpec("mean", n=1, R=1.0)
    for m in (2, 3, 4):
        cases.append((1, mean1, -1, m, 16))
    for n, speed, k, m, L in cases:
        rate = _single_mode_rate(n, speed, k, m, L)
        target = stable_decay_rate(speed, m)
        rel = abs(rate - target) / target
        if rel > worst:
            worst = rel
            worst_case = f"n={n} {speed.kind} k={k} m={m}: {rate:.6g} vs {target:g}"
    passed = worst <= 1e-2
    _report(5, passed,
            f"12 single-mode decay rates within 1%; worst rel error {worst:.2e} "
            f"({worst_case})")
    assert passed


def test_06_zero_modes_stay_put(tmp_path, monkeypatch):
    monkeypatch.delenv("MIXEDFLOW_OUT", raising=False)
    res2 = run_experiment("zero-modes", {"out_dir": str(tmp_path / "n2")})
    res1 = run_experiment("zero-modes", {"n": "1", "L_max": "16",
                                         "out_dir": str(tmp_path / "n1")})
    passed = res2.passed and res1.passed
    rate2 = next(c.value for c in res2.checks if c.name == "zero_mode_rate")
    resid2 = next(c.value for c in res2.checks if c.name == "final_sphere_residual")
    rate1 = next(c.value for c in res1.checks if c.name == "zero_mode_rate")
    resid1 = next(c.value for c in res1.checks if c.name == "final_sphere_residual")
    _report(6, passed,
            f"center-mode drift rates {rate2:.2e} (n=2, tol 4e-3) / {rate1:.2e} "
            f"(n=1, tol 3e-3), sphere residuals {resid2:.2e} / {resid1:.2e} (tol 1e-8)")
    assert passed


def _drift(k, dt):
    cfg = FlowConfig(n=2, R=1.0, k=k, integrator="rk4", dt=dt, T=0.5,
                     L_max=24, cadence=50)
    prob = FlowProblem(cfg)
    rho0 = random_band_field(prob.grid, 1.0, 0.05, 2, 6, 42)
    out = run(cfg, rho0, problem=prob)
    V0 = out.records[0].V
    return max(abs(r.V - V0) for r in out.records) / abs(V0)


def test_07_conserved_quantities():
    details = []
    passed = True
    for k in (-1, 0, 1):
        d_fine = _drift(k, 1e-4)
        order = float(np.log2(_drift(k, 8e-4) / _drift(k, 4e-4)))
        ok = d_fine <= 1e-6 and order >= 3.5
        passed = passed and ok
        details.append(f"k={k}: drift {d_fine:.2e} (tol 1e-6), order {order:.2f}")
    _report(7, passed, "; ".join(details) + " (order >= 3.5)")
    assert passed


def test_08_nonlinear_convergence(tmp_path, monkeypatch):
    monkeypatch.delenv("MIXEDFLOW_OUT", raising=False)
    res = run_experiment("nonlinear-convergence", {"out_dir": str(tmp_path / "nl")})
    by_name = {c.name: c for c in res.checks}
    _report(8, res.passed,
            f"monotone defect {by_name['residual_monotone_defect'].value:.2e} (<= 0), "
            f"tail rate error {by_name['tail_rate_relative_error'].value:.2e} (tol 0.1), "
            f"V(fit) mismatch {by_name['fitted_sphere_V_relative_error'].value:.2e} (tol 1e-4)")
    assert res.passed


def test_09_sphere_chart_round_trip():
    grid = build_grid(2, 16, 2.0)
    R = 1.0
    omega = grid.directions()
    rng = np.random.default_rng(2718)
    worst_z = worst_d = 0.0
    for _ in range(100):
        z = rng.standard_normal(4)
        z *= 0.2 * R * rng.uniform() / np.linalg.norm(z)
        sph = sphere_from_coords(z, grid, R)
        coords, _ = fit_sphere(sph)
        worst_z = max(worst_z, float(np.max(np.abs(coords - z))))
        r = R + sph.values
        dist = np.sqrt(sum((r * omega[i] - z[1 + i]) ** 2 for i in range(3)))
        worst_d = max(worst_d, float(np.max(np.abs(dist - (R + z[0])))))
    passed = worst_z <= 1e-9 and worst_d <= 1e-12
    _report(9, passed,
            f"100 spheres: coordinate recovery {worst_z:.2e} (tol 1e-9), "
            f"center-distance identity {worst_d:.2e} (tol 1e-12)")
    assert passed


def test_10_reruns_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.delenv("MIXEDFLOW_OUT", raising=False)
    run_experiment("nonlinear-convergence", {"out_dir": str(tmp_path / "a")})
    run_experiment("nonlinear-convergence", {"out_dir": str(tmp_path / "b")})
    csv_a = (tmp_path / "a" / "run.csv").read_bytes()
    csv_b = (tmp_path / "b" / "run.csv").read_bytes()
    passed = csv_a == csv_b
    _report(10, passed,
            f"two runs of the same preset: run.csv identical = {csv_a == csv_b} "
            f"({len(csv_a)} bytes)")
    assert passed
