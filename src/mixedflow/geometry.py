"""Geometry of radial graphs: curvatures, area element, enclosed volume.

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
read only E, so the principal curvatures are formed on demand, on first
access to CurvatureBundle.kappa: the shape-operator entries from the stored
g, H and den * det g, then the quadratic formula, with the discriminant
clamped at zero against roundoff at umbilic points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AdmissibilityError
from .harmonics import RadialField


@dataclass(frozen=True)
class CurvatureBundle:
    """Pointwise curvature data of a radial graph on its grid.

    E holds the elementary symmetric functions E_0 = 1 through E_n, mu the
    area element relative to the reference sphere measure, and graph_factor
    the length distortion sqrt(1 + |grad rho|^2 / r^2) relating normal speed
    to radial speed.  shape_operator holds what the principal curvatures
    kappa (n arrays, largest first) are computed from on first access:
    (kappa_1,) for n = 1; for n = 2 the fundamental forms and the common
    denominator of the shape operator, (g11, g12, g22, H11, H12, H22,
    den * det g) with H = den * h (see the module docstring).
    """

    E: tuple[np.ndarray, ...]
    mu: np.ndarray
    graph_factor: np.ndarray
    radius: np.ndarray
    shape_operator: tuple[np.ndarray, ...]

    @cached_property
    def kappa(self) -> tuple[np.ndarray, ...]:
        if len(self.shape_operator) == 1:
            return self.shape_operator
        g11, g12, g22, H11, H12, H22, den_detg = self.shape_operator
        w11 = (g22 * H11 - g12 * H12) / den_detg
        w12 = (g22 * H12 - g12 * H22) / den_detg
        w21 = (g11 * H12 - g12 * H11) / den_detg
        w22 = (g11 * H22 - g12 * H12) / den_detg
        # Discriminant in a form free of the cancellation that tr^2 - 4 det
        # suffers at umbilics.
        disc = (w11 - w22) ** 2 + 4.0 * w12 * w21
        sq = np.sqrt(np.maximum(disc, 0.0))
        trW = self.E[1]
        return (0.5 * (trW + sq), 0.5 * (trW - sq))


def elementary_symmetric(kappa, l: int) -> float:
    """Elementary symmetric function E_l of a sequence of numbers.

    Expands prod(x + kappa_i) iteratively, which is stable and avoids
    enumerating subsets.
    """
    kappa = [float(k) for k in kappa]
    n = len(kappa)
    if not 0 <= l <= n:
        raise ValueError(f"E_{l} undefined for {n} arguments")
    e = np.zeros(n + 1)
    e[0] = 1.0
    for k in kappa:
        e[1:] += k * e[:-1].copy()
    return float(e[l])


def _check_radius(r: np.ndarray) -> None:
    if not np.all(np.isfinite(r)):
        raise AdmissibilityError("radius field contains non-finite values")
    if np.min(r) <= 0.0:
        raise AdmissibilityError(f"graph leaves the admissible cone: min radius {np.min(r):.3e}")


def bundle_from_coeffs(grid, R: float, coeffs: np.ndarray) -> CurvatureBundle:
    """Curvature and measure data of the graph r = R + rho, rho given by its coefficients."""
    d = grid.synthesize_derivs(coeffs)
    r = R + d["u"]
    _check_radius(r)
    if grid.n == 1:
        rt, rtt = d["ut"], d["utt"]
        w2 = r * r + rt * rt
        den = np.sqrt(w2)
        kappa1 = (r * r + 2.0 * rt * rt - r * rtt) / (w2 * den)
        ones = np.ones_like(r)
        return CurvatureBundle(
            E=(ones, kappa1),
            mu=den / R,
            graph_factor=den / r,
            radius=r,
            shape_operator=(kappa1,),
        )
    st = grid.sin_theta[:, None]
    ct = grid.x[:, None]
    rt, rp = d["ut"], d["up"]
    rtt, rtp, rpp = d["utt"], d["utp"], d["upp"]
    r2 = r * r
    rs2 = r2 * (st * st)
    g11 = r2 + rt * rt
    g12 = rt * rp
    g22 = rs2 + rp * rp
    w2 = g11 + (rp / st) ** 2
    den = np.sqrt(w2)
    # Covariant Hessian of r on the round sphere, (theta, phi) components.
    hess12 = rtp - (ct / st) * rp
    hess22 = rpp + st * ct * rt
    # H = den * h: the second fundamental form without its 1/den factor.
    H11 = 2.0 * rt * rt + r2 - r * rtt
    H12 = 2.0 * rt * rp - r * hess12
    H22 = 2.0 * rp * rp + rs2 - r * hess22
    detg = rs2 * w2
    den_detg = den * detg
    trW = (g22 * H11 - 2.0 * g12 * H12 + g11 * H22) / den_detg
    detW = (H11 * H22 - H12 * H12) / (w2 * detg)
    ones = np.ones_like(r)
    return CurvatureBundle(
        E=(ones, trW, detW),
        mu=r * den / (R * R),
        graph_factor=den / r,
        radius=r,
        shape_operator=(g11, g12, g22, H11, H12, H22, den_detg),
    )


def enclosed_volume(rho: RadialField) -> float:
    """Volume of the region the graph bounds around the origin."""
    grid = rho.grid
    r = rho.R + rho.values
    _check_radius(r)
    n = grid.n
    return grid.integrate(r ** (n + 1)) / (n + 1)


def surface_measure(rho: RadialField) -> float:
    """Total surface measure of the graph."""
    bundle = bundle_from_coeffs(rho.grid, rho.R, rho.coeffs)
    return rho.R ** rho.grid.n * rho.grid.integrate(bundle.mu)
