"""Geometry of radial graphs: curvatures and the area element.

A surface is described by r = R + rho over the reference sphere.  All
derivatives of rho are taken spectrally, so the curvature fields inherit the
accuracy of the band-limited representation.  For n = 2 the elementary
symmetric curvature functions come in closed form from the first and second
fundamental forms g and h in (theta, phi) coordinates, without forming the
shape operator g^-1 h:

    det g = r^2 sin^2(theta) w2,    w2 = r^2 + |grad r|^2,  den = sqrt(w2),
    E_1 = tr(g^-1 h) = (g22 H11 - 2 g12 H12 + g11 H22) / (den det g),
    E_2 = det(g^-1 h) = (H11 H22 - H12^2) / (w2 det g),

with H = den * h, which is polynomial in r and its derivatives.  Speeds
read only E, so the principal curvatures are formed only when asked for,
by principal_curvatures, their one name, from the stored g, H and
den * det g without forming g^-1 h either:

    kappa_1,2 = (E_1 +- sqrt(Delta) / (den det g)) / 2,
    Delta = (g22 H11 - g11 H22)^2 + 4 (g22 H12 - g12 H22)(g11 H12 - g12 H11),

with Delta clamped at zero against roundoff at umbilic points.  It writes
into three given arrays, or fresh ones.

A bundle is computed with out= ufunc calls into a BundleWorkspace, in the
operation order of the formulas above, so that a caller evaluating many
bundles on one grid (a FlowProblem) allocates nothing grid-sized per
evaluation.  Lifetime rule: the arrays of a bundle computed into a
workspace hold until the next bundle is computed into the same workspace,
or until the caller reuses the workspace once it has consumed the bundle,
as a diagnostics record does for its curvature range and sphere fit (the
workspace's kappa_buffers and fit_buffers).  So copy what must outlive
that, or form the principal curvatures before it.  Without a workspace
each bundle gets a fresh one and owns its arrays.

A bundle is the one place the radius r = R + rho is checked: every node
finite and positive, else AdmissibilityError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError


@dataclass(frozen=True)
class CurvatureBundle:
    """Pointwise curvature data of a radial graph on its grid.

    E holds the elementary symmetric functions E_0 = 1 through E_n, mu the
    area element relative to the reference sphere measure, graph_factor
    the length distortion sqrt(1 + |grad rho|^2 / r^2) relating normal speed
    to radial speed, and radius the grid values of r = R + rho, found
    finite and positive when the bundle was built, the one radius the
    enclosed volume reads.  shape_operator
    holds what principal_curvatures forms the principal curvatures (n
    arrays, largest first) from: (kappa_1,) for
    n = 1; for n = 2 the fundamental forms and the common denominator of
    the shape operator, (g11, g12, g22, H11, H12, H22, den * det g) with
    H = den * h (see the module docstring).
    """

    E: tuple[np.ndarray, ...]
    mu: np.ndarray
    graph_factor: np.ndarray
    radius: np.ndarray
    shape_operator: tuple[np.ndarray, ...]


def principal_curvatures(bundle: CurvatureBundle,
                         out: tuple[np.ndarray, ...] | None = None) -> tuple[np.ndarray, ...]:
    """The principal curvatures of a bundle, largest first.

    For n = 1 this is the bundle's kappa_1 itself.  For n = 2 they are
    (E_1 +- sqrt(Delta) / (den det g)) / 2 from the bundle's shape_operator
    arrays, written into three grid-shaped arrays: out, which must not hold
    any of the arrays the formula reads, or fresh ones.  The two returned
    arrays are out[0] and out[2].
    """
    if len(bundle.shape_operator) == 1:
        return bundle.shape_operator
    g11, g12, g22, H11, H12, H22, den_detg = bundle.shape_operator
    if out is None:
        out = tuple(np.empty(g11.shape) for _ in range(3))
    a, b, s = out
    mul, sub = np.multiply, np.subtract
    # Delta is (w11 - w22)^2 + 4 w12 w21 of W = g^-1 h times (den det g)^2, with the
    # g12 H12 terms cancelled: free of the cancellation tr^2 - 4 det suffers at umbilics.
    mul(g22, H12, out=a)
    mul(g12, H22, out=s)
    sub(a, s, out=a)
    mul(g11, H12, out=b)
    mul(g12, H11, out=s)
    sub(b, s, out=b)
    mul(a, b, out=a)
    mul(4.0, a, out=a)
    mul(g22, H11, out=b)
    mul(g11, H22, out=s)
    sub(b, s, out=b)
    np.square(b, out=b)
    np.add(b, a, out=b)
    np.maximum(b, 0.0, out=b)
    np.sqrt(b, out=b)
    sq = np.divide(b, den_detg, out=b)
    trW = bundle.E[1]
    k1 = mul(0.5, np.add(trW, sq, out=a), out=a)
    k2 = mul(0.5, sub(trW, sq, out=s), out=s)
    return (k1, k2)


def _check_radius(r: np.ndarray) -> None:
    """Raise AdmissibilityError unless every radius is finite and positive."""
    if not np.all(np.isfinite(r)):
        raise AdmissibilityError("radius field contains non-finite values")
    if np.min(r) <= 0.0:
        raise AdmissibilityError(f"graph leaves the admissible cone: min radius {np.min(r):.3e}")


class BundleWorkspace:
    """Every grid-sized array one curvature bundle is computed into.

    Built once per grid by a caller that evaluates many bundles (one per
    FlowProblem): the derivative buffers of Grid.synthesize_derivs, own
    arrays for the bundle fields that do not fit in those (one block,
    (7, *shape) on the sphere and (4, *shape) on the circle, where the
    bundle uses three rows), a read-only ones array for E_0 and, for n = 2,
    the grid-constant columns sin(theta), cot(theta), sin(theta) cos(theta)
    and sin(theta)^2, shaped (n_lat, 1), which only the bundle reads.
    scratch is the derivative buffers' tmp array: a bundle uses it while it
    is computed and holds nothing in it, so a caller may use it until the
    next bundle.

    Two sets of views let a diagnostics record finish in the workspace.
    kappa_buffers (None on the circle) are the three arrays in which an
    n = 2 bundle holds its E_2 and graph_factor, and nothing, so
    principal_curvatures may write into them once those are read.
    fit_buffers are the flat views (rows (n + 3, N), weighted rows
    (n + 2, N), values (N,)) that analysis.fit_sphere borrows once the
    whole bundle is consumed.
    """

    def __init__(self, grid):
        self.grid = grid
        self.derivs = grid.derivs_buffers()
        self.scratch = self.derivs["tmp"]
        self.ones = np.ones(grid.shape)
        self.ones.flags.writeable = False
        self.own = np.empty((4 if grid.n == 1 else 7,) + grid.shape)
        d = self.derivs
        if grid.n == 1:
            self.kappa_buffers = None
            self.fit_buffers = (self.own.reshape(4, -1), d["u_ut_utt"].reshape(3, -1),
                                self.scratch.reshape(-1))
            return
        self.kappa_buffers = (self.own[5], self.own[6], d["ut"])
        self.fit_buffers = (d["u_up_upp_ut_utp"].reshape(5, -1), self.own[:4].reshape(4, -1),
                            self.own[4].reshape(-1))
        self.sin = grid.sin_theta[:, None]
        self.cot = grid.x[:, None] / self.sin
        self.sin_cos = self.sin * grid.x[:, None]
        self.sin2 = self.sin * self.sin


def bundle_from_coeffs(grid, R: float, coeffs: np.ndarray,
                       work: BundleWorkspace | None = None) -> CurvatureBundle:
    """Curvature and measure data of the graph r = R + rho, rho given by its coefficients.

    With `work` every field is written into that workspace and holds only
    until the next bundle computed into it; form its principal curvatures
    before then.  Without `work` a fresh workspace is built, and the arrays
    belong to this bundle alone.  Both give the same bits.
    """
    if work is None:
        work = BundleWorkspace(grid)
    elif work.grid is not grid:
        raise ValueError("workspace was built for a different grid")
    d = grid.synthesize_derivs(coeffs, out=work.derivs)
    s = work.derivs["tmp"]
    r = d["u"]
    np.add(R, r, out=r)
    _check_radius(r)
    mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
    if grid.n == 1:
        rt, rtt = d["ut"], d["utt"]
        w2, den, mu = work.own[:3]
        mul(r, r, out=w2)
        mul(rt, rt, out=s)
        add(w2, s, out=w2)
        np.sqrt(w2, out=den)
        # kappa1 = (r r + 2 rt rt - r rtt) / (w2 den), formed over rt after its last use
        mul(r, rtt, out=rtt)
        mul(2.0, rt, out=s)
        mul(s, rt, out=s)
        mul(r, r, out=rt)
        add(rt, s, out=rt)
        sub(rt, rtt, out=rt)
        mul(w2, den, out=w2)
        kappa1 = div(rt, w2, out=rt)
        div(den, R, out=mu)
        graph_factor = div(den, r, out=den)
        return CurvatureBundle(E=(work.ones, kappa1), mu=mu, graph_factor=graph_factor,
                               radius=r, shape_operator=(kappa1,))
    rt, rp = d["ut"], d["up"]
    rtt, rtp, rpp = d["utt"], d["utp"], d["upp"]
    # Seven own arrays; a name in brackets is what an array holds later.
    r2, rs2, g11, g12, g22, w2, den = work.own
    mul(r, r, out=r2)
    mul(r2, work.sin2, out=rs2)
    mul(rt, rt, out=s)
    add(r2, s, out=g11)
    mul(rt, rp, out=g12)
    mul(rp, rp, out=s)
    add(rs2, s, out=g22)
    div(rp, work.sin, out=s)
    np.square(s, out=s)
    add(g11, s, out=w2)
    np.sqrt(w2, out=den)
    # Covariant Hessian of r: hess12 over rtp, hess22 over rpp.
    mul(work.cot, rp, out=s)
    sub(rtp, s, out=rtp)
    mul(work.sin_cos, rt, out=s)
    add(rpp, s, out=rpp)
    # H = den * h, each entry over the second derivative it last reads.
    mul(r, rtt, out=rtt)
    mul(2.0, rt, out=s)
    mul(s, rt, out=s)
    add(s, r2, out=s)
    H11 = sub(s, rtt, out=rtt)
    mul(r, rtp, out=rtp)
    mul(2.0, rt, out=s)
    mul(s, rp, out=s)
    H12 = sub(s, rtp, out=rtp)
    mul(r, rpp, out=rpp)
    mul(2.0, rp, out=s)
    mul(s, rp, out=s)
    add(s, rs2, out=s)
    H22 = sub(s, rpp, out=rpp)
    # rs2 [detg, then den * detg]; w2 [w2 * detg, then E_2]
    detg = mul(rs2, w2, out=rs2)
    mul(w2, detg, out=w2)
    den_detg = mul(den, detg, out=detg)
    # r2 [E_1]
    mul(g22, H11, out=r2)
    mul(2.0, g12, out=s)
    mul(s, H12, out=s)
    sub(r2, s, out=r2)
    mul(g11, H22, out=s)
    add(r2, s, out=r2)
    trW = div(r2, den_detg, out=r2)
    # rt is free: it holds H12^2.
    mul(H11, H22, out=s)
    mul(H12, H12, out=rt)
    sub(s, rt, out=s)
    detW = div(s, w2, out=w2)
    # rp [mu]; den [graph_factor]
    mul(r, den, out=rp)
    mu = div(rp, R * R, out=rp)
    graph_factor = div(den, r, out=den)
    return CurvatureBundle(
        E=(work.ones, trW, detW),
        mu=mu,
        graph_factor=graph_factor,
        radius=r,
        shape_operator=(g11, g12, g22, H11, H12, H22, den_detg),
    )
