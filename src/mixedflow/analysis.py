"""Field instruments: conserved quantities, sphere fitting, decay-rate fits.

The sphere family is parametrized by n+2 numbers z = (z0, z1, ..., z_{n+1}):
center sum(z_p omega_p) and radius R + z0, written as a height function over
the reference sphere.  fit_sphere inverts that parametrization in the
weighted least-squares sense by Gauss-Newton, seeded from the linear chart
(the field's quadrature against 1 and the direction components), so
convergence statements about the flow can be made against the nearest true
sphere rather than against harmonics of the evolving surface.  The fit runs
on the grid flattened to one axis: the direction components are one stacked
(n + 1, N) array (Grid.directions), so the sphere's height is a matvec.  The
Jacobian of the height factors as J = A X, with A a small triangular matrix
in z and X the rows 1/q and omega_i (1 + s/q), so each Gauss-Newton step
forms X and the residual in a handful of whole-array passes, takes the
factored normal equations from one weighted matmul (Bjorck, Numerical
Methods for Least Squares Problems, SIAM 1996, section 9.2) and undoes A
in closed form.  With a BundleWorkspace the fit borrows its arrays and
allocates nothing grid-sized, cheap enough to fit every diagnostics record.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AdmissibilityError, DecayFitError, FitConvergenceError
from .geometry import BundleWorkspace, CurvatureBundle, bundle_from_coeffs, check_radius
from .harmonics import SPHERE_AREA, Grid, RadialField

_FIT_MAX_ITER = 50
_FIT_STEP_TOL = 1e-12  # relative to R
_DECAY_FIT_WINDOW = 0.5  # trailing fraction of the time interval fit_decay_rate uses

# -- conserved quantities -----------------------------------------------------


def mixed_volume(rho: RadialField, k: int, bundle: CurvatureBundle | None = None) -> float:
    """The quantity the k-constrained flow holds fixed.

    k = -1 is the enclosed volume; 0 <= k <= n-1 is the E_k-weighted surface
    integral with the conventional binomial normalization, so the surface
    measure is (n + 1) * mixed_volume(rho, 0).  On a sphere of radius r these
    reduce to |S^n| r^{n-k} / (n+1).  A caller holding the curvature bundle
    of rho passes it, in place of a new one; k = -1 reads only the radius:
    the bundle's, checked when it was built, or R + rho.values, checked here.
    """
    n = rho.grid.n
    if not -1 <= k <= n - 1:
        raise ValueError(f"k must lie in [-1, {n - 1}], got {k}")
    if k == -1:
        r = rho.R + rho.values if bundle is None else bundle.radius
        if bundle is None:
            check_radius(r)
        # Products, not a generic pow: each node within 1 ulp of r ** (n + 1), at
        # under half its cost.
        power = r * r
        if n == 2:
            power *= r
        return rho.grid.integrate(power) / (n + 1)
    if bundle is None:
        bundle = bundle_from_coeffs(rho.grid, rho.R, rho.coeffs)
    total = rho.R ** n * rho.grid.integrate(bundle.E[k] * bundle.mu)
    return total / ((n + 1) * math.comb(n, k))


# -- sphere fitting -----------------------------------------------------------


def _sphere_height(z: np.ndarray, grid: Grid, R: float, s: np.ndarray,
                   q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Write the terms (s, q) of the height s - R + q of the sphere z into s and q.

    s and q are flat arrays of the grid's node count.  s = z[1:] . omega is
    the center's component along each direction and
    q = sqrt(s^2 + (R + z0)^2 - |z[1:]|^2), so the ray along omega meets
    the sphere at distance s + q; the sphere is a graph while q^2 > 0.
    """
    if z.size != grid.n + 2:
        raise ValueError(f"expected {grid.n + 2} coordinates, got {z.size}")
    center = z[1:]
    np.matmul(center, grid.directions().reshape(grid.n + 1, -1), out=s)
    np.multiply(s, s, out=q)
    c = (R + z[0]) ** 2 - float(center @ center)
    q += c
    # With the origin inside the sphere (c > 0) every q^2 >= c > 0, so only
    # c <= 0 needs the scan.
    if c <= 0.0 and q.min() <= 0.0:
        raise AdmissibilityError("sphere is not a graph over the reference sphere")
    np.sqrt(q, out=q)
    return s, q


def sphere_from_coords(z, grid: Grid, R: float) -> RadialField:
    """Exact sphere of radius R + z0 centered at sum z_p omega_p, as a height field."""
    s, q = _sphere_height(np.asarray(z, dtype=float), grid, R,
                          np.empty(grid.quad_weights.size), np.empty(grid.quad_weights.size))
    return RadialField(grid, R, values=(s - R + q).reshape(grid.shape))


def project_center_coords(rho: RadialField) -> np.ndarray:
    """Sphere coordinates of the lowest-mode content of a field: the linear chart.

    z0 = int(rho) / |S^n| and z_i = (n + 1) / |S^n| * int(rho omega_i), by
    quadrature on the grid; exact when rho is itself an infinitesimal sphere.
    """
    grid = rho.grid
    n = grid.n
    w_rho = (grid.quad_weights * rho.values).reshape(-1)
    moments = grid.directions().reshape(n + 1, -1) @ w_rho
    return np.concatenate(([w_rho.sum()], (n + 1) * moments)) / SPHERE_AREA[n]


def fit_sphere(rho: RadialField, work: BundleWorkspace | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """Nearest sphere in the weighted least-squares sense: (z, residual field).

    z is the (n + 2)-vector of sphere coordinates (z0, z1, ..., z_{n+1}).
    Gauss-Newton on the n+2 sphere coordinates, seeded from the linear
    chart (project_center_coords); stops when the update norm drops below
    1e-12 R, and gives up after 50 iterations.  A field with a non-finite
    value, or one farther than 0.3 R from the reference sphere, is refused
    with AdmissibilityError before the first iteration.

    Each iteration solves the normal equations in factored form.  With
    a = R + z0, s and q the terms of the sphere's height (_sphere_height)
    and X the rows 1/q and omega_i (1 + s/q), the Jacobian of the height
    is J = A X with A = [[a, 0], [-z_{1:}, I]].  One weighted matmul of X
    against X and the residual R + rho - s - q gives M = X W X^T and
    m = X W res; then M y = m, and the update solves A^T delta = y in
    closed form: delta_i = y_i for i >= 1 and
    delta_0 = (y_0 + z_{1:} . y_{1:}) / a.  Each iteration is a matvec and
    a few whole-grid passes into 2n + 6 flat rows, allocating nothing
    grid-sized.

    Those rows are fresh without `work`.  With `work`, a BundleWorkspace
    on rho's grid, they are its fit_buffers, so the fit overwrites the
    workspace's last bundle, and the residual returned is a view into the
    workspace that holds until the next bundle or fit there.  Both give
    the same bits.
    """
    grid, R = rho.grid, rho.R
    sup = rho.sup_abs()
    if not sup <= 0.3 * R:
        if not math.isfinite(sup):
            raise AdmissibilityError("field has non-finite values; no sphere fits it")
        raise AdmissibilityError("field is too far from the reference sphere to fit")
    n = grid.n
    if work is None:
        size = grid.quad_weights.size
        rows, xw, vals_R = np.empty((n + 3, size)), np.empty((n + 2, size)), np.empty(size)
    elif work.grid is not grid:
        raise ValueError("workspace was built for a different grid")
    else:
        rows, xw, vals_R = work.fit_buffers
    omega = grid.directions().reshape(n + 1, -1)
    w = grid.quad_weights.reshape(-1)
    np.add(rho.values.reshape(-1), R, out=vals_R)
    # Rows 0..n+1 hold X, row n+2 the residual.  s is written over the
    # residual row and q over X[0], each before that row is formed; the
    # first weighted row holds 1 + s/q until X[1:] is formed from it.
    X, res = rows[:-1], rows[-1]
    s, q, t = res, X[0], xw[0]
    z = project_center_coords(rho)
    for _ in range(_FIT_MAX_ITER):
        _sphere_height(z, grid, R, s, q)
        np.divide(s, q, out=t)
        t += 1.0
        np.multiply(omega, t, out=X[1:])
        np.subtract(vals_R, s, out=res)
        res -= q
        np.divide(1.0, q, out=X[0])
        np.multiply(X, w, out=xw)
        normal = xw @ rows.T
        # The solution y of M y = m becomes delta in place: only delta_0 differs.
        delta = np.linalg.solve(normal[:, :-1], normal[:, -1])
        delta[0] = (delta[0] + z[1:] @ delta[1:]) / (R + z[0])
        z = z + delta
        if math.sqrt(delta @ delta) < _FIT_STEP_TOL * R:
            _sphere_height(z, grid, R, s, q)
            s -= R
            s += q
            residual = np.subtract(rho.values.reshape(-1), s, out=res)
            return z, residual.reshape(grid.shape)
    raise FitConvergenceError(f"sphere fit did not converge in {_FIT_MAX_ITER} iterations")


# -- decay rates ----------------------------------------------------------------


def fit_decay_rate(times, values) -> float:
    """Least-squares slope of log(values) over the trailing half of the time interval.

    At least 10 samples must fall inside that window and the values must be
    positive there, else DecayFitError.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError("times and values must be matching one-dimensional arrays")
    cut = t[-1] - _DECAY_FIT_WINDOW * (t[-1] - t[0])
    mask = t >= cut
    if int(np.sum(mask)) < 10:
        raise DecayFitError(f"only {int(np.sum(mask))} samples in the fit window; need at least 10")
    if np.any(v[mask] <= 0.0):
        raise DecayFitError("values must be positive inside the fit window")
    slope = np.polyfit(t[mask], np.log(v[mask]), 1)[0]
    return float(slope)
