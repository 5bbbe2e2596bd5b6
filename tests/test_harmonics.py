"""Transform-layer tests: grids, layouts, round trips, calculus identities."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixedflow.errors import DegreeOverflowError, GridError
from mixedflow.harmonics import (
    SPHERE_AREA,
    RadialField,
    _gauss_legendre,
    build_grid,
    harmonic_multiplicity,
    total_coefficients,
)
from conftest import band_coeffs, fresh_python
from oracles import (
    coefficient_layout_loop,
    gauss_legendre_leggauss,
    legendre_tables_loop,
    sphere_transform_reference,
)


# -- sizing and layout ----------------------------------------------------------


def test_grid_sizes_frozen(grid1, grid2, grid2_small):
    # dealiasing rule at oversample 2: enough nodes for exact quadratic products
    assert grid1.shape == (64,)
    assert grid2.shape == (34, 66)
    assert grid2_small.shape == (18, 34)


def test_coefficient_counts():
    assert total_coefficients(16, 1) == 33
    assert total_coefficients(8, 2) == 81
    assert total_coefficients(16, 2) == 289


def test_multiplicities():
    assert [harmonic_multiplicity(l, 2) for l in range(5)] == [1, 3, 5, 7, 9]
    assert [harmonic_multiplicity(l, 1) for l in range(5)] == [1, 2, 2, 2, 2]


def test_flat_layout(grid1, grid2):
    assert grid2.flat_index(0, 1) == 0
    assert grid2.flat_index(1, 1) == 1
    assert grid2.flat_index(2, 1) == 4
    assert grid2.flat_index(2, 5) == 8
    assert grid1.flat_index(0, 1) == 0
    assert grid1.flat_index(1, 2) == 2
    assert grid1.flat_index(3, 1) == 5
    with pytest.raises(IndexError):
        grid2.flat_index(2, 6)
    with pytest.raises(IndexError):
        grid2.flat_index(17, 1)


def test_grid_validation():
    with pytest.raises(GridError):
        build_grid(3, 8)
    with pytest.raises(GridError):
        build_grid(2, 2)
    with pytest.raises(GridError):
        build_grid(2, 8, oversample=0.5)


def test_degree_overflow(grid2_small):
    too_long = np.zeros(total_coefficients(9, 2))
    with pytest.raises(DegreeOverflowError):
        grid2_small.synthesize(too_long)



@pytest.mark.parametrize("use", ["synthesize", "mode_energies", "field"])
def test_two_dimensional_coefficients_are_refused(grid2_small, use):
    coeffs = np.zeros((1, grid2_small.size))
    call = {"synthesize": grid2_small.synthesize,
            "mode_energies": grid2_small.mode_energies,
            "field": lambda c: RadialField(grid2_small, 1.0, coeffs=c)}[use]
    with pytest.raises(DegreeOverflowError) as info:
        call(coeffs)
    assert str(info.value) == "coefficient vector must be one-dimensional"

# -- transforms ------------------------------------------------------------------


def test_round_trip(grid1, grid2, rng):
    for grid in (grid1, grid2):
        c = band_coeffs(grid, rng)
        back = grid.analyze(grid.synthesize(c))
        assert np.max(np.abs(back - c)) < 1e-12 * max(1.0, np.max(np.abs(c)))


def test_constant_coefficient(grid1, grid2):
    # the constant basis member is |S^n|^{-1/2}
    c2 = grid2.analyze(np.ones(grid2.shape))
    assert abs(c2[0] - math.sqrt(4.0 * math.pi)) < 1e-13
    assert np.max(np.abs(c2[1:])) < 1e-13
    c1 = grid1.analyze(np.ones(grid1.shape))
    assert abs(c1[0] - math.sqrt(2.0 * math.pi)) < 1e-13


def test_fourier_convention(grid1):
    # n = 1 basis members are cos(l t)/sqrt(pi), sin(l t)/sqrt(pi)
    u = np.cos(3.0 * grid1.theta)
    c = grid1.analyze(u)
    assert abs(c[grid1.flat_index(3, 1)] - math.sqrt(math.pi)) < 1e-13
    c[grid1.flat_index(3, 1)] = 0.0
    assert np.max(np.abs(c)) < 1e-13


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_parseval(grid2_small, seed):
    rng = np.random.default_rng(seed)
    c = band_coeffs(grid2_small, rng)
    u = grid2_small.synthesize(c)
    lhs = grid2_small.integrate(u * u)
    rhs = float(np.sum(c * c))
    assert abs(lhs - rhs) <= 1e-10 * rhs


def test_quadrature_radius_scaling(grid2_small, rng):
    c = band_coeffs(grid2_small, rng)
    u = grid2_small.synthesize(c)
    assert abs(2.0 ** 2 * grid2_small.integrate(u * u) - 4.0 * np.sum(c * c)) < 1e-9


def test_mean_value(grid2_small):
    u = 3.0 + grid2_small.synthesize(band_coeffs(grid2_small, np.random.default_rng(7), l_lo=1))
    assert abs(grid2_small.integrate(u) / SPHERE_AREA[2] - 3.0) < 1e-12


def test_integrate_refuses_fields_not_grid_shaped(grid1, grid2_small):
    # a scalar, a longitude row and a latitude column would all broadcast
    # against the weights; the transposed field has the right size
    n_lat, n_lon = grid2_small.shape
    for bad in (1.0, np.ones(n_lon), np.ones((n_lat, 1)), np.ones((n_lon, n_lat))):
        shapes = f"field shape {np.shape(bad)} does not match grid shape {grid2_small.shape}"
        with pytest.raises(GridError, match=re.escape(shapes)):
            grid2_small.integrate(bad)
    with pytest.raises(GridError, match=re.escape(f"grid shape {grid1.shape}")):
        grid1.integrate(np.ones(grid1.n_theta + 2))


@pytest.mark.parametrize("L", (16, 32, 64))
def test_latitude_weights_are_orthogonal_to_legendre_polynomials(L):
    # sum_j w_j P_l(x_j) = 0 for 1 <= l <= 2 n_lat - 1; an error here grows
    # like l^2 in second derivatives and moves round spheres off stationarity
    grid = build_grid(2, L)
    w = grid.quad_weights[:, 0] * (grid.n_lon / (2.0 * math.pi))
    P = np.polynomial.legendre.legvander(grid.x, 2 * grid.n_lat - 1)
    assert np.max(np.abs(w @ P[:, 1:])) <= 2e-15


@pytest.mark.parametrize("L", range(4, 65))
def test_gauss_legendre_matches_leggauss_reference(L):
    # the latitude count of band limit L at oversample 2; the weights differ
    # most near the poles, through 1 - x^2
    n = 2 * (L + 1)
    x, w = _gauss_legendre(n)
    x_ref, w_ref = gauss_legendre_leggauss(n)
    assert np.max(np.abs(x - x_ref)) <= 2.3e-16
    assert np.max(np.abs(w / w_ref - 1.0)) <= 1e-12
    P = np.polynomial.legendre.legvander(x, 2 * n - 1)
    assert np.max(np.abs(w @ P[:, 1:])) <= 8.6e-16


def test_set_up_imports_no_numpy_polynomial_or_random():
    # the package finds its quadrature nodes without numpy.polynomial and
    # draws its seeded init without numpy.random, imports every cold start
    # would otherwise pay
    code = ("import sys\nfrom mixedflow.flow import FlowProblem\n"
            "from mixedflow.io import parse_config_text\n"
            "parsed = parse_config_text('L_max = 16\\ninit = random:0.05,6,42\\n')\n"
            "parsed.init.build(FlowProblem(parsed.config).grid, parsed.config.R)\n"
            "print(sorted({'numpy.polynomial', 'numpy.random'} & set(sys.modules)))\n")
    assert fresh_python(code).strip() == "[]"


@pytest.mark.parametrize("n,L", [(1, 4), (1, 17), (1, 64), (2, 4), (2, 5), (2, 16), (2, 64)])
def test_coefficient_layout_matches_loop_reference(n, L):
    grid = build_grid(n, L)
    degrees, slot, derivs_slot = coefficient_layout_loop(L, n)
    # the sphere keeps one container, the derivative container's [c, m, l'], l' <= L + 1
    for got, want in ((grid.degrees, degrees), (grid._slot, slot if n == 1 else derivs_slot)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


# -- calculus --------------------------------------------------------------------
# On the unit sphere the Laplace-Beltrami operator is synthesize_derivs' "lap"
# ("utt" on the circle) and the surface gradient is (ut, up / sin(theta)); on the
# radius-R sphere the Laplacian and the squared gradient scale by R^-2.


def grad_sq(grid, coeffs, R):
    d = grid.synthesize_derivs(coeffs)
    return (d["ut"] ** 2 + (d["up"] / grid.sin_theta[:, None]) ** 2) / R ** 2


def test_laplacian_eigenvalue(grid2, grid1):
    for grid, n in ((grid2, 2), (grid1, 1)):
        for l in (1, 3, 5):
            c = np.zeros(grid.size)
            c[grid.flat_index(l, 1)] = 1.0
            u = grid.synthesize(c)
            for R in (1.0, 2.0):
                lap = grid.synthesize_derivs(c)["lap" if n == 2 else "utt"] / R ** 2
                expect = -l * (l + n - 1) / R ** 2 * u
                assert np.max(np.abs(lap - expect)) < 1e-10 * l * (l + n - 1)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_laplacian_self_adjoint(grid2_small, seed):
    rng = np.random.default_rng(seed)
    cu, cv = band_coeffs(grid2_small, rng), band_coeffs(grid2_small, rng)
    u, v = grid2_small.synthesize(cu), grid2_small.synthesize(cv)
    a = grid2_small.integrate(grid2_small.synthesize_derivs(cu)["lap"] * v)
    b = grid2_small.integrate(u * grid2_small.synthesize_derivs(cv)["lap"])
    scale = max(1.0, abs(a))
    assert abs(a - b) <= 1e-10 * scale


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_integration_by_parts(grid2_small, seed):
    rng = np.random.default_rng(seed)
    c = band_coeffs(grid2_small, rng)
    u = grid2_small.synthesize(c)
    lap = grid2_small.synthesize_derivs(c)["lap"]
    for R in (1.0, 1.7):
        lhs = R ** 2 * grid2_small.integrate(grad_sq(grid2_small, c, R))
        rhs = -R ** 2 * grid2_small.integrate(u * lap / R ** 2)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_gradient_sq_linear_field(grid2):
    # u = z . omega has |grad u|^2 = (|z|^2 - u^2) / R^2 on the radius-R sphere
    z = np.array([0.3, -1.1, 0.7])
    omega = grid2.directions()
    u = sum(z[i] * omega[i] for i in range(3))
    for R in (1.0, 2.0):
        got = grad_sq(grid2, grid2.analyze(u), R)
        expect = (float(z @ z) - u * u) / R ** 2
        assert np.max(np.abs(got - expect)) < 1e-10


def test_gradient_sq_nonnegative(grid2_small, rng):
    assert np.min(grad_sq(grid2_small, band_coeffs(grid2_small, rng), 1.0)) > -1e-12


# -- center projection -----------------------------------------------------------


def test_project_center_constant(grid2):
    R = 2.0
    vals = np.full(grid2.shape, 0.25)
    low = np.zeros(grid2.size)
    low[:4] = grid2.analyze(vals)[:4]
    resid = vals - grid2.synthesize(low)
    # S_R-orthonormal constant member is 1/(R sqrt(4 pi)); coefficient R sqrt(4 pi) c
    c = R * low[:4]
    assert abs(c[0] - 0.25 * R * math.sqrt(4.0 * math.pi)) < 1e-12
    assert np.max(np.abs(c[1:])) < 1e-12
    assert np.max(np.abs(resid)) < 1e-12


def test_project_center_idempotent_orthogonal(grid2, rng):
    R = 1.3
    u = grid2.synthesize(band_coeffs(grid2, rng))
    v = grid2.synthesize(band_coeffs(grid2, rng))

    def P(vals):
        coeffs = np.zeros(grid2.size)
        coeffs[:4] = grid2.analyze(vals)[:4]
        return grid2.synthesize(coeffs)

    pu = P(u)
    assert np.max(np.abs(P(pu) - pu)) < 1e-10 * max(1.0, np.max(np.abs(pu)))
    inner = R ** 2 * grid2.integrate(pu * (v - P(v)))
    norm = math.sqrt(R ** 2 * grid2.integrate(pu * pu) * R ** 2 * grid2.integrate(v * v))
    assert abs(inner) <= 1e-10 * max(1.0, norm)


def test_mode_energies(grid2_small):
    c = np.zeros(grid2_small.size)
    c[grid2_small.flat_index(3, 2)] = 0.5
    c[grid2_small.flat_index(5, 1)] = -2.0
    e = grid2_small.mode_energies(c)
    assert e[3] == 0.25 and e[5] == 4.0
    assert abs(np.sum(e) - 4.25) < 1e-15



def test_pad_passes_full_vectors_through_and_pads_shorter_ones(grid2_small):
    full = np.arange(grid2_small.size, dtype=float)
    assert grid2_small._pad(full) is full
    short = grid2_small._pad(full[:9])
    assert short.shape == (grid2_small.size,) and short.flags.writeable
    assert np.array_equal(short[:9], full[:9]) and not np.any(short[9:])


@pytest.mark.parametrize("size", ("full", "short"))
def test_radial_field_keeps_its_own_coefficients(grid2_small, size):
    c = np.zeros(grid2_small.size if size == "full" else 9)
    c[4] = 0.1
    f = RadialField(grid2_small, 1.0, coeffs=c)
    assert c.flags.writeable and not f.coeffs.flags.writeable
    c[4] = 0.2
    assert f.coeffs[4] == 0.1

def test_radial_field_lazy_coeffs(grid2_small):
    c = np.zeros(grid2_small.size)
    c[4] = 0.1
    f = RadialField(grid2_small, 1.0, coeffs=c)
    g = RadialField(grid2_small, 1.0, values=f.values)
    assert np.max(np.abs(g.coeffs - c)) < 1e-13
    with pytest.raises(ValueError):
        RadialField(grid2_small, 1.0)


def test_synthesize_derivs_y22(grid2):
    # Y_{2,2}^cos = N s^2 cos(2p), N = sqrt(15/16pi): check all five derivatives
    N = math.sqrt(15.0 / (16.0 * math.pi))
    c = np.zeros(grid2.size)
    c[grid2.flat_index(2, 4)] = 1.0
    d = grid2.synthesize_derivs(c)
    t = grid2.theta[:, None]
    p = grid2.phi[None, :]
    s, ct = np.sin(t), np.cos(t)
    assert np.max(np.abs(d["u"] - N * s ** 2 * np.cos(2 * p))) < 1e-12
    assert np.max(np.abs(d["ut"] - 2 * N * s * ct * np.cos(2 * p))) < 1e-11
    assert np.max(np.abs(d["up"] + 2 * N * s ** 2 * np.sin(2 * p))) < 1e-11
    assert np.max(np.abs(d["utt"] - 2 * N * np.cos(2 * t) * np.cos(2 * p))) < 1e-10
    assert np.max(np.abs(d["utp"] + 4 * N * s * ct * np.sin(2 * p))) < 1e-10
    assert np.max(np.abs(d["upp"] + 4 * N * s ** 2 * np.cos(2 * p))) < 1e-10


def test_directions_built_once_read_only(grid1, grid2):
    for grid in (grid1, grid2):
        omega = grid.directions()
        assert grid.directions() is omega
        assert all(not w.flags.writeable for w in omega)
        r2 = sum(w * w for w in omega)
        assert np.max(np.abs(r2 - 1.0)) <= 1e-15
        # one stacked array, row i the i-th component
        assert omega.shape == (grid.n + 1, *grid.shape)
        assert omega.flags.c_contiguous and not omega.flags.writeable


# -- transforms across band limits ----------------------------------------------------


def phi_derivative(grid, c):
    """d/dphi (d/dtheta on the circle) in coefficient space: each order-m pair
    (c_cos, c_sin) -> m (c_sin, -c_cos)."""
    out = np.zeros_like(c)
    for l in range(1, grid.L_max + 1):
        pairs = [(l, 1)] if grid.n == 1 else [(m, 2 * m) for m in range(1, l + 1)]
        for m, p in pairs:
            i_cos, i_sin = grid.flat_index(l, p), grid.flat_index(l, p + 1)
            out[i_cos], out[i_sin] = m * c[i_sin], -m * c[i_cos]
    return out


def test_sphere_round_trip_across_band_limits(grid_band, rng):
    c = band_coeffs(grid_band, rng)
    back = grid_band.analyze(grid_band.synthesize(c))
    assert np.max(np.abs(back - c)) < 1e-12 * max(1.0, np.max(np.abs(c)))


def test_synthesize_derivs_across_band_limits(grid_band, rng):
    g = grid_band
    c = band_coeffs(g, rng)
    d = g.synthesize_derivs(c)
    dc = phi_derivative(g, c)
    if g.n == 1:
        expected = {"u": g.synthesize(c),
                    "ut": g.synthesize(dc),
                    "utt": g.synthesize(phi_derivative(g, dc))}
    else:
        expected = {"u": g.synthesize(c),
                    "lap": g.synthesize(-(g.degrees * (g.degrees + 1.0)) * c),
                    "up": g.synthesize(dc),
                    "upp": g.synthesize(phi_derivative(g, dc))}
    for key, want in expected.items():
        assert np.max(np.abs(d[key] - want)) <= 1e-12 * np.max(np.abs(want)), key


def circle_fft_reference(grid, c):
    """Reference circle transforms by real FFT: the field with its first and
    second theta-derivatives, and the analysis of the field."""
    L, N = grid.L_max, grid.n_theta
    norm = np.full(L + 1, 1.0 / math.sqrt(math.pi))
    norm[0] = 1.0 / math.sqrt(2.0 * math.pi)
    A = np.zeros(L + 1, dtype=complex)
    A[0] = c[0]
    A.real[1:] = c[1::2]
    A.imag[1:] = -c[2::2]
    A *= norm
    m = np.arange(L + 1)
    F = np.zeros((3, N // 2 + 1), dtype=complex)
    F[:, :L + 1] = np.stack([A, 1j * m * A, -(m * m) * A]) * (N / 2.0)
    F[:, 0] *= 2.0
    u, ut, utt = np.fft.irfft(F, n=N, axis=1)
    C = (2.0 * math.pi / N) * norm * np.fft.rfft(u)[:L + 1]
    back = np.empty(grid.size)
    back[0] = C.real[0]
    back[1::2] = C.real[1:]
    back[2::2] = -C.imag[1:]
    return {"u": u, "ut": ut, "utt": utt}, back


@pytest.mark.parametrize("L", (4, 16, 64))
def test_circle_transforms_match_fft_reference(L, rng):
    g = build_grid(1, L)
    c = band_coeffs(g, rng)
    want, want_back = circle_fft_reference(g, c)
    got = g.synthesize_derivs(c)
    for key in ("u", "ut", "utt"):
        assert np.max(np.abs(got[key] - want[key])) <= 1e-14 * np.max(np.abs(want[key])), key
    assert np.max(np.abs(g.synthesize(c) - want["u"])) <= 1e-14 * np.max(np.abs(want["u"]))
    back = g.analyze(want["u"])
    assert np.max(np.abs(back - want_back)) <= 1e-14 * np.max(np.abs(want_back))


def order_scale(L):
    """The real basis's factor per order: 1 for m = 0, sqrt(2) above, shaped [m, 1, 1]."""
    scale = np.full((L + 1, 1, 1), math.sqrt(2.0))
    scale[0] = 1.0
    return scale


def test_legendre_tables_match_loop_reference(grid2_band):
    # same arithmetic per entry, only the loop order differs: equal bit for
    # bit to the loop table extended by one degree, orders m <= L
    L = grid2_band.L_max
    P_ref = legendre_tables_loop(L + 1, grid2_band.x)[0][:L + 1]
    assert np.array_equal(grid2_band._tab_mlj, P_ref * order_scale(L))


def test_theta_derivative_recombination_matches_loop_table(grid2_band):
    # sin(theta) dP_l/dtheta = l a_{l+1} P_{l+1} - (l+1) a_l P_{l-1}, from the
    # grid's own table and factors, against the loop's derivative recurrence
    g = grid2_band
    L = g.L_max
    up, down = g._derivs_factor[1:].reshape(2, 2, L + 1, L + 2)[:, 0]
    tab = g._tab_mlj
    rec = up[:, :L + 1, None] * tab[:, 1:]
    rec[:, 1:] += down[:, 1:L + 1, None] * tab[:, :L]
    rec /= g.sin_theta
    want = legendre_tables_loop(L, g.x)[1] * order_scale(L)
    for m in range(L + 1):
        assert np.max(np.abs(rec[m] - want[m])) <= 1e-13 * np.max(np.abs(want[m])), m


def test_sphere_grid_builds_one_table_in_place():
    # the Legendre table is written in its final layout: building the grid
    # peaks not far above what it keeps
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        grid = build_grid(2, 64)
        retained, peak = (b - base for b in tracemalloc.get_traced_memory())
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 1.25 * retained
    L, n_lat = grid.L_max, grid.n_lat
    tables = [a for a in vars(grid).values()
              if isinstance(a, np.ndarray) and a.size >= (L + 1) ** 2 * n_lat]
    assert len(tables) == 1
    assert tables[0].shape == (L + 1, L + 2, n_lat) and tables[0].dtype == np.float64


def test_sphere_transforms_match_loop_reference(grid2_band, rng):
    g = grid2_band
    c = band_coeffs(g, rng)
    want, want_back = sphere_transform_reference(g, c)
    got = g.synthesize_derivs(c)
    for key, ref in want.items():
        assert np.max(np.abs(got[key] - ref)) <= 1e-12 * np.max(np.abs(ref)), key
    assert np.max(np.abs(g.synthesize(c) - want["u"])) <= 1e-12 * np.max(np.abs(want["u"]))
    back = g.analyze(want["u"])
    assert np.max(np.abs(back - want_back)) <= 1e-12 * np.max(np.abs(want_back))
