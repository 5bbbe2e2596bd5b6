"""Analysis layer: mixed volumes, spectrum structure, sphere fitting, rate fits."""

import numpy as np
import pytest

from mixedflow.analysis import (
    fit_decay_rate,
    fit_sphere,
    mixed_volume,
    project_center_coords,
    sphere_from_coords,
)
from mixedflow.errors import AdmissibilityError, DecayFitError, SpectrumRangeError
from mixedflow.flow import FlowConfig, numerical_jacobian, stable_decay_rate
from mixedflow.geometry import BundleWorkspace, bundle_from_coeffs
from mixedflow.harmonics import SPHERE_AREA, RadialField, build_grid
from mixedflow.io import csv_lines, random_band_field
from mixedflow.speeds import SpeedSpec
from oracles import fit_sphere_reference, sphere_height_reference, unit_directions


def test_mixed_volume_round_spheres(grid1, grid2):
    # |S^n| r^{n-k} / (n+1) for every admissible k, both dimensions
    for grid in (grid1, grid2):
        n = grid.n
        for R in (1.0, 2.0):
            for c in (-0.2 * R, 0.0, 0.3 * R):
                rho = RadialField(grid, R, values=np.full(grid.shape, c))
                r = R + c
                for k in range(-1, n):
                    expected = SPHERE_AREA[n] * r ** (n - k) / (n + 1)
                    got = mixed_volume(rho, k)
                    assert abs(got - expected) <= 1e-10 * expected


def test_mixed_volume_translation_invariant(grid2):
    # shifting the center changes the graph but not the geometric functionals
    z = np.array([0.1, 0.05, -0.03, 0.08])
    offset = sphere_from_coords(z, grid2, 1.0)
    r = 1.1
    for k in (-1, 0, 1):
        expected = SPHERE_AREA[2] * r ** (2 - k) / 3.0
        assert abs(mixed_volume(offset, k) - expected) <= 1e-10 * expected


def test_mixed_volume_k_range(grid2):
    rho = RadialField(grid2, 1.0, values=np.zeros(grid2.shape))
    with pytest.raises(ValueError):
        mixed_volume(rho, 2)
    with pytest.raises(ValueError):
        mixed_volume(rho, -2)


def test_stable_decay_rate_frozen():
    mean2 = SpeedSpec("mean", n=2, R=1.0)
    assert [stable_decay_rate(mean2, l) for l in (2, 3, 4)] == [4.0, 10.0, 18.0]
    mean1 = SpeedSpec("mean", n=1, R=1.0)
    assert [stable_decay_rate(mean1, l) for l in (2, 3, 4)] == [3.0, 8.0, 15.0]
    # power_mean(1, 2) has derivative 2/n at the unit sphere
    pm2 = SpeedSpec("power_mean", n=2, R=1.0, m=1, beta=2.0)
    assert stable_decay_rate(pm2, 2) == pytest.approx(4.0, rel=1e-15)
    pm1 = SpeedSpec("power_mean", n=1, R=1.0, m=1, beta=2.0)
    assert stable_decay_rate(pm1, 2) == pytest.approx(6.0, rel=1e-15)
    # radius scaling: rate ~ R^-2 for the 1-homogeneous mean speed
    mean2b = SpeedSpec("mean", n=2, R=2.0)
    assert stable_decay_rate(mean2b, 2) == pytest.approx(1.0, rel=1e-15)


def test_analytic_spectrum_structure():
    rep = numerical_jacobian(FlowConfig(n=2, R=1.0, k=-1), l_max=3)[1]
    assert [row.multiplicity for row in rep.rows] == [1, 3, 5, 7]
    assert [row.lambda_analytic for row in rep.rows] == [0.0, 0.0, -4.0, -10.0]
    assert rep.center_dimension == 4
    assert rep.lambda_max_abs == 10.0
    rep1 = numerical_jacobian(FlowConfig(n=1, R=1.0, k=-1), l_max=2)[1]
    assert [row.multiplicity for row in rep1.rows] == [1, 2, 2]
    assert rep1.center_dimension == 3


def test_spectrum_csv_header():
    rep = numerical_jacobian(FlowConfig(n=2, R=1.0, k=-1), l_max=2)[1]
    lines = csv_lines(rep.rows)
    assert lines[0] == "l,lambda_analytic,lambda_numeric,multiplicity,offdiag_max"
    assert len(lines) == 4


def test_numerical_jacobian_structure():
    cfg = FlowConfig(n=2, R=1.0, k=-1, L_max=6)
    J, rep = numerical_jacobian(cfg, l_max=6)
    D = J.shape[0]
    assert D == 49
    lam = rep.lambda_max_abs
    assert rep.zero_multiplicity_numeric == 4
    assert rep.symmetry_defect <= 1e-7 * lam
    assert rep.max_offdiagonal <= 1e-6 * lam
    # per-degree numeric eigenvalues track the analytic ones
    for row in rep.rows:
        if row.l >= 2:
            assert abs(row.lambda_numeric - row.lambda_analytic) \
                <= 1e-6 * abs(row.lambda_analytic)
        else:
            assert abs(row.lambda_numeric) <= 1e-6 * lam


def test_jacobian_spectrum_nonpositive_and_center():
    cfg = FlowConfig(n=2, R=1.0, k=-1, L_max=6)
    J, rep = numerical_jacobian(cfg, l_max=6)
    lam = rep.lambda_max_abs
    w, V = np.linalg.eigh(0.5 * (J + J.T))
    assert np.max(w) <= 1e-8 * lam
    # the null space is exactly the constant plus degree-1 block
    null = V[:, np.abs(w) <= 1e-6 * lam]
    assert null.shape[1] == 4
    assert np.linalg.norm(null[4:, :]) <= 1e-8


def test_numerical_jacobian_block_range():
    # l_max must lie in [1, L_max], and the block may hold at most 400 coefficients
    cfg = FlowConfig(n=2, R=1.0, k=-1, L_max=24)
    for l_max in (0, 25):
        with pytest.raises(SpectrumRangeError, match=f"l_max={l_max} is outside"):
            numerical_jacobian(cfg, l_max=l_max)
    with pytest.raises(SpectrumRangeError, match="Jacobian dimension 441"):
        numerical_jacobian(cfg, l_max=20)


def test_sphere_round_trip(grid1, grid2):
    rng = np.random.default_rng(7)
    for grid in (grid2, grid1):
        R = 1.0
        for _ in range(20 if grid.n == 2 else 6):
            z = rng.standard_normal(grid.n + 2)
            z *= 0.2 * R * rng.uniform() / np.linalg.norm(z)
            coords, resid = fit_sphere(sphere_from_coords(z, grid, R))
            assert np.max(np.abs(coords - z)) <= 1e-9
            assert np.max(np.abs(resid)) <= 1e-12


def test_sphere_from_coords_exact_distance(grid2):
    # |X - c| equals R + z0 pointwise, to rounding
    z = np.array([0.07, -0.05, 0.11, 0.02])
    rho = sphere_from_coords(z, grid2, 1.0)
    omega = grid2.directions()
    r = 1.0 + rho.values
    dist = np.sqrt(sum((r * omega[i] - z[1 + i]) ** 2 for i in range(3)))
    assert np.max(np.abs(dist - (1.0 + z[0]))) <= 1e-12



@pytest.mark.parametrize("n,count", [(2, 3), (2, 5), (1, 4)])
def test_sphere_from_coords_refuses_wrong_coordinate_count(n, count):
    grid = build_grid(n, 8)
    with pytest.raises(ValueError) as info:
        sphere_from_coords(np.zeros(count), grid, 1.0)
    assert str(info.value) == f"expected {n + 2} coordinates, got {count}"

def test_project_center_linear_chart(grid2):
    # exact on constants, quadratically accurate on true spheres
    const = RadialField(grid2, 1.0, values=np.full(grid2.shape, 0.05))
    z = project_center_coords(const)
    assert abs(z[0] - 0.05) <= 1e-15 and np.max(np.abs(z[1:])) <= 1e-15
    zs = 1e-3 * np.array([0.3, -0.7, 0.2, 0.5])
    got = project_center_coords(sphere_from_coords(zs, grid2, 1.0))
    assert np.max(np.abs(got - zs)) <= 10.0 * float(np.sum(zs ** 2))


def test_fit_sphere_guard(grid2):
    rho = RadialField(grid2, 1.0, values=np.full(grid2.shape, 0.4))
    with pytest.raises(AdmissibilityError):
        fit_sphere(rho)
    # origin outside the sphere (radius 0.5, center 0.6 away): not a graph
    with pytest.raises(AdmissibilityError, match="not a graph"):
        sphere_from_coords([-0.5, 0.6, 0.0, 0.0], grid2, 1.0)


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_fit_sphere_refuses_non_finite_field(grid1, grid2, bad):
    # one bad value is refused before the first Gauss-Newton step, not
    # reported as a fit that did not converge
    for grid in (grid1, grid2):
        values = np.full(grid.shape, 0.01)
        values.reshape(-1)[5] = bad
        with pytest.raises(AdmissibilityError, match="non-finite"):
            fit_sphere(RadialField(grid, 1.0, values=values))


def test_fit_into_dirtied_workspace_matches_fresh_fit(grid1, grid2):
    # a workspace that last held a bundle and a fit of other fields gives
    # the bits of a fit into fresh buffers
    for grid in (grid1, grid2):
        work = BundleWorkspace(grid)
        other = random_band_field(grid, 1.0, 0.1, 1, min(6, grid.L_max), 11)
        bundle_from_coeffs(grid, 1.0, other.coeffs, work)
        fit_sphere(other, work)
        for seed in (12, 13):
            rho = random_band_field(grid, 1.0, 0.05, 0, min(6, grid.L_max), seed)
            z, res = fit_sphere(rho)
            z_w, res_w = fit_sphere(rho, work)
            assert z_w.tobytes() == z.tobytes()
            assert res_w.shape == grid.shape and res_w.tobytes() == res.tobytes()
    with pytest.raises(ValueError, match="different grid"):
        fit_sphere(RadialField(grid2, 1.0, values=np.zeros(grid2.shape)), BundleWorkspace(grid1))


@pytest.mark.parametrize("case", ("sphere", "random-0.05", "random-0.2"))
def test_fit_sphere_matches_column_reference(grid_band, case):
    # the stacked-array fit against the column-by-column loop on tuple directions
    grid = grid_band
    omega = (unit_directions(grid.theta) if grid.n == 1
             else unit_directions(grid.x, grid.phi))
    for R, seed in ((1.0, 5), (2.5, 6)):
        if case == "sphere":
            z = np.array([0.1, -0.07, 0.12, 0.05][:grid.n + 2]) * R
            rho = RadialField(grid, R, values=sphere_height_reference(z, omega, R)[0])
        else:
            # degrees 2..6, or up to the band limit on the circle-4 grid
            rho = random_band_field(grid, R, float(case[7:]) * R, 2, min(6, grid.L_max), seed)
        z_ref, res_ref = fit_sphere_reference(rho.values, grid.quad_weights, omega, R,
                                              project_center_coords(rho))
        z, res = fit_sphere(rho)
        assert np.max(np.abs(z - z_ref)) <= 1e-13 * R
        assert np.max(np.abs(res - res_ref)) <= 1e-12 * R


def test_fit_decay_rate():
    t = np.linspace(0.0, 1.0, 101)
    v = 3e-4 * np.exp(-7.3 * t)
    assert fit_decay_rate(t, v) == pytest.approx(-7.3, abs=1e-10)
    with pytest.raises(DecayFitError, match="only 4 samples in the fit window"):
        fit_decay_rate(t[:8], v[:8])
    with pytest.raises(DecayFitError, match="values must be positive"):
        fit_decay_rate(t, v - 1.0)
    with pytest.raises(ValueError):
        fit_decay_rate(t, v[:-1])
