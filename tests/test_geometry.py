"""Curvature pipeline tests, cross-checked against finite-difference oracles."""

import math

import numpy as np
import pytest

from mixedflow.analysis import mixed_volume
from mixedflow.errors import AdmissibilityError
from mixedflow.geometry import BundleWorkspace, bundle_from_coeffs, principal_curvatures
from mixedflow.harmonics import RadialField, build_grid
from conftest import band_coeffs
from oracles import (
    bundle_reference,
    circle_curvature,
    graph_area,
    mesh_principal_curvatures,
    star_volume,
)


def const_field(grid, R, c):
    coeffs = np.zeros(grid.size)
    coeffs[0] = c * math.sqrt(4.0 * math.pi if grid.n == 2 else 2.0 * math.pi)
    return RadialField(grid, R, coeffs=coeffs)


# -- umbilic identity -------------------------------------------------------------


def test_umbilic_identity_spheres(grid1, grid2):
    for grid in (grid1, grid2):
        for R in (1.0, 2.0):
            for c in (-0.3 * R, 0.0, 0.5 * R):
                b = bundle_from_coeffs(grid, R, const_field(grid, R, c).coeffs)
                for kap in principal_curvatures(b):
                    assert np.max(np.abs(kap - 1.0 / (R + c))) <= 1e-11


def test_offset_sphere_umbilic(grid2):
    # exact spheres shifted off-center are still umbilic pointwise
    from mixedflow.analysis import sphere_from_coords

    z = np.array([0.1, 0.05, -0.03, 0.08])
    rho = sphere_from_coords(z, grid2, 1.0)
    b = bundle_from_coeffs(rho.grid, rho.R, rho.coeffs)
    for kap in principal_curvatures(b):
        assert np.max(np.abs(kap - 1.0 / 1.1)) <= 1e-11


def test_el_consistency(grid2, rng):
    rho = RadialField(grid2, 1.0, coeffs=band_coeffs(grid2, rng, l_lo=0, l_hi=8, scale=0.02))
    b = bundle_from_coeffs(rho.grid, rho.R, rho.coeffs)
    k1, k2 = principal_curvatures(b)
    assert np.max(np.abs(b.E[1] - (k1 + k2))) <= 1e-12 * np.max(np.abs(b.E[1]))
    e2 = ((k1 + k2) ** 2 - (k1 ** 2 + k2 ** 2)) / 2.0
    assert np.max(np.abs(b.E[2] - e2)) <= 1e-12 * max(1.0, np.max(np.abs(e2)))
    assert np.max(np.abs(b.E[0] - 1.0)) == 0.0


def test_curvature_functions_match_kappa_across_band_limits(grid2_band, rng):
    # E comes from closed forms, kappa from the shape operator by principal_curvatures
    for _ in range(3):
        c = band_coeffs(grid2_band, rng, l_lo=0, l_hi=12, scale=0.02)
        b = bundle_from_coeffs(grid2_band, 1.0, c)
        k1, k2 = principal_curvatures(b)
        assert np.max(np.abs(b.E[1] - (k1 + k2))) <= 1e-12 * np.max(np.abs(b.E[1]))
        assert np.max(np.abs(b.E[2] - k1 * k2)) <= 1e-12 * np.max(np.abs(b.E[2]))


def test_scaling_covariance(grid2, grid1, rng):
    for grid in (grid2, grid1):
        n = grid.n
        c = band_coeffs(grid, rng, l_hi=6, scale=0.02)
        base = bundle_from_coeffs(grid, 1.0, c)
        V_base = mixed_volume(RadialField(grid, 1.0, coeffs=c), -1)
        for s in (0.5, 2.0):
            scaled = bundle_from_coeffs(grid, s, s * c)
            for kap_s, kap in zip(principal_curvatures(scaled), principal_curvatures(base)):
                assert np.max(np.abs(kap_s * s - kap)) <= 1e-9 * np.max(np.abs(kap))
            for l in range(n + 1):
                assert np.max(np.abs(scaled.E[l] * s ** l - base.E[l])) \
                    <= 1e-9 * max(1.0, np.max(np.abs(base.E[l])))
            assert np.max(np.abs(scaled.mu - base.mu)) <= 1e-9 * np.max(np.abs(base.mu))
            V_s = mixed_volume(RadialField(grid, s, coeffs=s * c), -1)
            assert abs(V_s - s ** (n + 1) * V_base) <= 1e-9 * abs(V_base) * s ** (n + 1)


def test_rotation_equivariance(grid2, rng):
    # shifting the data by one longitude node is an exact symmetry of the grid
    c = band_coeffs(grid2, rng, l_hi=10, scale=0.02)
    vals = RadialField(grid2, 1.0, coeffs=c).values
    b = bundle_from_coeffs(grid2, 1.0, grid2.analyze(vals))
    b_shift = bundle_from_coeffs(grid2, 1.0, grid2.analyze(np.roll(vals, 1, axis=1)))
    for kap, kap_s in zip(principal_curvatures(b), principal_curvatures(b_shift)):
        assert np.max(np.abs(np.roll(kap, 1, axis=1) - kap_s)) <= 1e-10


# -- against the finite-difference oracles ----------------------------------------


def test_circle_curvature_oracle(grid1):
    r_fn = lambda t: 1.0 + 0.15 * np.cos(2.0 * t) + 0.05 * np.sin(3.0 * t)
    rho = RadialField(grid1, 1.0, values=r_fn(grid1.theta) - 1.0)
    b = bundle_from_coeffs(rho.grid, rho.R, rho.coeffs)
    oracle = circle_curvature(r_fn, grid1.theta)
    assert np.max(np.abs(principal_curvatures(b)[0] - oracle)) < 1e-7


def test_surface_curvature_oracle():
    grid = build_grid(2, 8, oversample=3.0)
    r_fn_np = lambda t, p: 1.0 + 0.05 * np.sin(t) ** 3 * np.cos(t) * np.cos(3.0 * p)
    TH = grid.theta[:, None] * np.ones((1, grid.shape[1]))
    PH = np.ones((grid.shape[0], 1)) * grid.phi[None, :]
    # sin^3 cos cos(3p) is a degree-4 harmonic combination, representable at L=8
    rho = RadialField(grid, 1.0, values=r_fn_np(TH, PH) - 1.0)
    b = bundle_from_coeffs(rho.grid, rho.R, rho.coeffs)
    k1, k2 = principal_curvatures(b)
    k_lo = np.minimum(k1, k2)
    k_hi = np.maximum(k1, k2)
    o_lo, o_hi = mesh_principal_curvatures(r_fn_np, TH, PH, h=1e-2)
    assert np.max(np.abs(k_lo - o_lo)) < 1e-6
    assert np.max(np.abs(k_hi - o_hi)) < 1e-6


def test_area_against_metric_oracle():
    # the test surface is exactly the (4, 3) harmonic, so a band limit of 8
    # represents it with no truncation and the comparison is oracle-exact
    grid = build_grid(2, 8, oversample=3.0)
    amp = 0.05
    r_fn = lambda t, p: 1.0 + amp * np.sin(t) ** 3 * np.cos(t) * np.cos(3.0 * p)

    def grad_fn(t, p):
        st, ct = np.sin(t), np.cos(t)
        rt = amp * (3.0 * st ** 2 * ct ** 2 - st ** 4) * np.cos(3.0 * p)
        rp = -3.0 * amp * st ** 3 * ct * np.sin(3.0 * p)
        return rt, rp

    TH = grid.theta[:, None] * np.ones((1, grid.shape[1]))
    PH = np.ones((grid.shape[0], 1)) * grid.phi[None, :]
    rho = RadialField(grid, 1.0, values=r_fn(TH, PH) - 1.0)
    area_spec = 3 * mixed_volume(rho, 0)
    area_oracle = graph_area(r_fn, grad_fn)
    assert abs(area_spec - area_oracle) <= 1e-10 * area_oracle


def test_volume_against_star_oracle():
    grid = build_grid(2, 8, oversample=3.0)
    amp = 0.05
    r_fn = lambda t, p: 1.0 + amp * np.sin(t) ** 3 * np.cos(t) * np.cos(3.0 * p)
    TH = grid.theta[:, None] * np.ones((1, grid.shape[1]))
    PH = np.ones((grid.shape[0], 1)) * grid.phi[None, :]
    rho = RadialField(grid, 1.0, values=r_fn(TH, PH) - 1.0)
    # oracle quadrature lives on its own, much finer node set
    assert abs(mixed_volume(rho, -1) - star_volume(r_fn)) <= 1e-12 * star_volume(r_fn)


def test_sphere_volumes_exact(grid1, grid2):
    for grid, n in ((grid1, 1), (grid2, 2)):
        for R in (1.0, 2.0):
            for c in (-0.2, 0.0, 0.4):
                V = mixed_volume(const_field(grid, R, c * R), -1)
                area = 2.0 * math.pi if n == 1 else 4.0 * math.pi
                expect = area * (R + c * R) ** (n + 1) / (n + 1)
                assert abs(V - expect) <= 1e-12 * expect


def test_mu_on_spheres(grid2, grid1):
    # mu = (r/R)^n for concentric spheres
    for grid in (grid2, grid1):
        b = bundle_from_coeffs(grid, 2.0, const_field(grid, 2.0, 0.5).coeffs)
        assert np.max(np.abs(b.mu - (2.5 / 2.0) ** grid.n)) < 1e-13


def test_graph_factor_on_spheres(grid2):
    b = bundle_from_coeffs(grid2, 1.0, const_field(grid2, 1.0, 0.25).coeffs)
    assert np.max(np.abs(b.graph_factor - 1.0)) < 1e-13


def test_inadmissible_radius(grid2):
    with pytest.raises(AdmissibilityError):
        bundle_from_coeffs(grid2, 1.0, const_field(grid2, 1.0, -1.5).coeffs)
    bad = np.full(grid2.shape, np.nan)
    with pytest.raises(AdmissibilityError):
        bundle_from_coeffs(grid2, 1.0, grid2.analyze(bad))


# -- workspace against the allocating reference -------------------------------------


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("L", (8, 24, 64))
def test_bundle_matches_allocating_reference(n, L):
    # a reused workspace gives the same bits as fresh arrays and as the reference
    grid = build_grid(n, L)
    rng = np.random.default_rng(10 * L + n)
    work = BundleWorkspace(grid)
    sin_theta, x = (grid.sin_theta, grid.x) if n == 2 else (None, None)
    for R, scale in ((1.0, 0.02), (1.7, 0.05), (0.6, 0.01)):
        c = band_coeffs(grid, rng, l_hi=12, scale=scale)
        ref = bundle_reference(grid.synthesize_derivs(c), R, sin_theta, x)
        for b in (bundle_from_coeffs(grid, R, c), bundle_from_coeffs(grid, R, c, work)):
            fields = {"E": b.E, "shape_operator": b.shape_operator,
                      "kappa": principal_curvatures(b)}
            for name, arrays in fields.items():
                assert len(arrays) == len(ref[name])
                for got, want in zip(arrays, ref[name]):
                    assert _same_bits(got, want), name
            for name in ("mu", "graph_factor", "radius"):
                assert _same_bits(getattr(b, name), ref[name]), name


def test_bundles_without_workspace_are_independent(grid2, rng):
    c1 = band_coeffs(grid2, rng, l_hi=8, scale=0.02)
    c2 = band_coeffs(grid2, rng, l_hi=8, scale=0.02)
    b1 = bundle_from_coeffs(grid2, 1.0, c1)
    kept = [a.copy() for a in (*b1.E, b1.mu, b1.graph_factor, b1.radius, *b1.shape_operator)]
    bundle_from_coeffs(grid2, 1.0, c2)
    now = (*b1.E, b1.mu, b1.graph_factor, b1.radius, *b1.shape_operator)
    assert all(_same_bits(a, b) for a, b in zip(now, kept))
    with pytest.raises(ValueError):
        bundle_from_coeffs(grid2, 1.0, c1, BundleWorkspace(build_grid(2, 16)))
