"""Independent geometry oracles used to validate the spectral pipeline.

Everything here works from closed-form radius functions and plain numpy:
fourth-order finite differences of the embedding for curvatures, hand-derived
first-fundamental-form quadrature for areas and volumes, speeds at one
curvature tuple from their definitions, the sphere fit as a loop over
Jacobian columns, the sphere transforms and the coefficient layout as loops
over degree and order, and Gauss-Legendre nodes and weights seeded by
numpy's leggauss.  No imports from the package under test.
"""

import itertools
import math

import numpy as np

# 4th-order central stencils on offsets -2h..2h
_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_OFFSETS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def y21(theta, phi):
    """Real orthonormal degree-2 order-1 cosine harmonic."""
    return math.sqrt(15.0 / (4.0 * math.pi)) * np.sin(theta) * np.cos(theta) * np.cos(phi)


def y21_grad(theta, phi):
    N = math.sqrt(15.0 / (4.0 * math.pi))
    return (N * np.cos(2.0 * theta) * np.cos(phi),
            -N * np.sin(theta) * np.cos(theta) * np.sin(phi))


def _embedding(radius_fn, theta, phi):
    r = radius_fn(theta, phi)
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    return np.stack([r * st * cp, r * st * sp, r * ct], axis=-1)


def mesh_principal_curvatures(radius_fn, theta, phi, h=1e-2):
    """Principal curvatures of X = r(theta, phi) omega by finite differences.

    Builds the 5x5 stencil of embedding points around each node, forms the
    two fundamental forms, and diagonalizes the shape operator.  Outward
    normal; returns (kappa_min, kappa_max) arrays over the nodes.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    X = np.empty((5, 5) + theta.shape + (3,))
    for i, oi in enumerate(_OFFSETS):
        for j, oj in enumerate(_OFFSETS):
            X[i, j] = _embedding(radius_fn, theta + oi * h, phi + oj * h)
    Xt = np.tensordot(_D1, X[:, 2], axes=(0, 0)) / h
    Xp = np.tensordot(_D1, X[2, :], axes=(0, 0)) / h
    Xtt = np.tensordot(_D2, X[:, 2], axes=(0, 0)) / h ** 2
    Xpp = np.tensordot(_D2, X[2, :], axes=(0, 0)) / h ** 2
    Xtp = np.einsum("i,j,ij...->...", _D1, _D1, X) / h ** 2

    E = np.sum(Xt * Xt, axis=-1)
    F = np.sum(Xt * Xp, axis=-1)
    G = np.sum(Xp * Xp, axis=-1)
    nrm = np.cross(Xt, Xp)
    nrm /= np.linalg.norm(nrm, axis=-1, keepdims=True)
    # X_theta x X_phi points outward for this parametrization; II = -<X_ij, n>
    # makes round spheres have kappa = +1/r.
    e = -np.sum(Xtt * nrm, axis=-1)
    f = -np.sum(Xtp * nrm, axis=-1)
    g = -np.sum(Xpp * nrm, axis=-1)

    det1 = E * G - F * F
    w11 = (e * G - f * F) / det1
    w12 = (f * G - g * F) / det1
    w21 = (f * E - e * F) / det1
    w22 = (g * E - f * F) / det1
    tr = w11 + w22
    disc = np.sqrt(np.maximum((w11 - w22) ** 2 + 4.0 * w12 * w21, 0.0))
    return 0.5 * (tr - disc), 0.5 * (tr + disc)


def circle_curvature(radius_fn, theta, h=1e-4):
    """Curvature of the planar curve r(theta) omega(theta) by finite differences."""
    theta = np.asarray(theta, dtype=float)
    stencil = np.stack([radius_fn(theta + o * h) for o in _OFFSETS])
    r = stencil[2]
    r1 = np.tensordot(_D1, stencil, axes=(0, 0)) / h
    r2 = np.tensordot(_D2, stencil, axes=(0, 0)) / h ** 2
    return (r * r + 2.0 * r1 * r1 - r * r2) / (r * r + r1 * r1) ** 1.5


def graph_area(radius_fn, grad_fn, n_gl=200, n_phi=400):
    """Total area of X = r omega from the hand-derived first fundamental form.

    sqrt(det I) = sqrt((r_t^2 + r^2)(r_p^2 + r^2 s^2) - (r_t r_p)^2), integrated
    with Gauss-Legendre nodes in cos(theta) and the uniform trapezoid rule in
    longitude (exact for periodic integrands).
    """
    x, w = np.polynomial.legendre.leggauss(n_gl)
    theta = np.arccos(x)[:, None]
    phi = (2.0 * math.pi / n_phi) * np.arange(n_phi)[None, :]
    r = radius_fn(theta, phi)
    rt, rp = grad_fn(theta, phi)
    st = np.sin(theta)
    det = (rt * rt + r * r) * (rp * rp + r * r * st * st) - (rt * rp) ** 2
    integrand = np.sqrt(det) / st  # measure d(cos t) dphi carries 1/sin t
    return float(np.sum(w[:, None] * integrand) * (2.0 * math.pi / n_phi))


def star_volume(radius_fn, n_gl=200, n_phi=400):
    """Enclosed volume of a star-shaped surface: integral of r^3/3 over angles."""
    x, w = np.polynomial.legendre.leggauss(n_gl)
    theta = np.arccos(x)[:, None]
    phi = (2.0 * math.pi / n_phi) * np.arange(n_phi)[None, :]
    r = radius_fn(theta, phi)
    return float(np.sum(w[:, None] * r ** 3 / 3.0) * (2.0 * math.pi / n_phi))


def bundle_reference(d, R, sin_theta=None, x=None):
    """Pointwise curvature fields of the graph r = R + u from its derivative dict.

    The allocating formula body of the package's curvature bundle, kept as a
    plain-numpy reference with every operation in the same order, so the
    package must match it bit for bit.  n = 1 when d has no "up" key; n = 2
    also needs sin(theta) and x = cos(theta) at the latitude nodes.
    Returns a dict with E, mu, graph_factor, radius, shape_operator, kappa.
    """
    r = R + d["u"]
    if "up" not in d:
        rt, rtt = d["ut"], d["utt"]
        w2 = r * r + rt * rt
        den = np.sqrt(w2)
        kappa1 = (r * r + 2.0 * rt * rt - r * rtt) / (w2 * den)
        return {"E": (np.ones_like(r), kappa1), "mu": den / R, "graph_factor": den / r,
                "radius": r, "shape_operator": (kappa1,), "kappa": (kappa1,)}
    st = sin_theta[:, None]
    ct = x[:, None]
    rt, rp = d["ut"], d["up"]
    rtt, rtp, rpp = d["utt"], d["utp"], d["upp"]
    r2 = r * r
    rs2 = r2 * (st * st)
    g11 = r2 + rt * rt
    g12 = rt * rp
    g22 = rs2 + rp * rp
    w2 = g11 + (rp / st) ** 2
    den = np.sqrt(w2)
    hess12 = rtp - (ct / st) * rp
    hess22 = rpp + st * ct * rt
    H11 = 2.0 * rt * rt + r2 - r * rtt
    H12 = 2.0 * rt * rp - r * hess12
    H22 = 2.0 * rp * rp + rs2 - r * hess22
    detg = rs2 * w2
    den_detg = den * detg
    trW = (g22 * H11 - 2.0 * g12 * H12 + g11 * H22) / den_detg
    detW = (H11 * H22 - H12 * H12) / (w2 * detg)
    cross = 4.0 * ((g22 * H12 - g12 * H22) * (g11 * H12 - g12 * H11))
    sq = np.sqrt(np.maximum((g22 * H11 - g11 * H22) ** 2 + cross, 0.0)) / den_detg
    return {"E": (np.ones_like(r), trW, detW), "mu": r * den / (R * R),
            "graph_factor": den / r, "radius": r,
            "shape_operator": (g11, g12, g22, H11, H12, H22, den_detg),
            "kappa": (0.5 * (trW + sq), 0.5 * (trW - sq))}


def elementary_symmetric(kappa, l):
    """E_l of a tuple of numbers: the sum of the products of its l-element subsets."""
    return float(sum(math.prod(combo) for combo in itertools.combinations(kappa, l)))


def speed_at(spec, kappa):
    """Speed F at one tuple of principal curvatures, from the definition of its kind.

    spec is any object with the fields kind, m, beta and l, such as a
    SpeedSpec; the dimension n is the length of kappa.
    """
    if spec.kind == "mean":
        return elementary_symmetric(kappa, 1)
    if spec.kind == "elementary":
        return elementary_symmetric(kappa, spec.l)
    if spec.kind == "power_mean":
        return (elementary_symmetric(kappa, spec.m) / math.comb(len(kappa), spec.m)) ** spec.beta
    raise ValueError(f"no definition for speed kind {spec.kind!r}")


def umbilic_difference(spec, h):
    """Central difference, step h, of F in one principal curvature at the round sphere.

    The sphere is the one of radius spec.R in dimension spec.n: every
    curvature equals 1/R.
    """
    k0 = 1.0 / spec.R
    rest = [k0] * (spec.n - 1)
    return (speed_at(spec, [k0 + h, *rest]) - speed_at(spec, [k0 - h, *rest])) / (2.0 * h)


def unit_directions(x, phi=None):
    """Components of the unit position vector at the nodes, as a tuple of arrays.

    Circle: x holds the angles theta and phi is None.  Sphere: x holds
    cos(theta) at the latitude nodes and phi the longitudes; the third
    component is a broadcast view of x over the longitudes.
    """
    if phi is None:
        return np.cos(x), np.sin(x)
    st = np.sqrt(1.0 - x * x)[:, None]
    shape = (x.size, phi.size)
    return (st * np.cos(phi)[None, :], st * np.sin(phi)[None, :],
            np.broadcast_to(x[:, None], shape))


def sphere_height_reference(z, omega, R):
    """(height, s, q) of the sphere z = (z0, center) over the radius-R sphere.

    omega is the tuple of direction components; the height is s - R + q
    with s = center . omega and q = sqrt(s^2 + (R + z0)^2 - |center|^2).
    ValueError when the sphere is not a graph (q^2 <= 0 at some node).
    """
    s = sum(z[1 + i] * omega[i] for i in range(len(omega)))
    q2 = s * s + (R + z[0]) ** 2 - float(np.sum(z[1:] ** 2))
    if np.min(q2) <= 0.0:
        raise ValueError("sphere is not a graph over the reference sphere")
    q = np.sqrt(q2)
    return s - R + q, s, q


def fit_sphere_reference(values, weights, omega, R, z, max_iter=50, step_tol=1e-12):
    """Weighted least-squares sphere fit by Gauss-Newton, one column at a time.

    Works on a tuple of direction arrays: from the seed z, each step stacks
    the Jacobian columns (R + z0)/q and omega_i + (s omega_i - z_i)/q,
    solves the weighted normal equations and stops once the update norm is
    below step_tol * R.  Returns (z, values - height of the fitted sphere).
    """
    w = weights.ravel()
    vals = values.ravel()
    z = np.array(z, dtype=float)
    for _ in range(max_iter):
        heights, s, q = sphere_height_reference(z, omega, R)
        res = vals - heights.ravel()
        cols = [((R + z[0]) / q).ravel()]
        for i in range(len(omega)):
            cols.append((omega[i] + (s * omega[i] - z[1 + i]) / q).ravel())
        J = np.stack(cols, axis=1)
        A = J.T @ (w[:, None] * J)
        b = J.T @ (w * res)
        delta = np.linalg.solve(A, b)
        z = z + delta
        if float(np.linalg.norm(delta)) < step_tol * R:
            heights, _, _ = sphere_height_reference(z, omega, R)
            return z, values - heights
    raise RuntimeError(f"sphere fit did not converge in {max_iter} iterations")


def legendre_tables_loop(L, x):
    """Normalized associated Legendre values and theta-derivatives at nodes x.

    The three-term recurrences one order and one degree at a time; indexed
    [m, l, node], zero for m > l, and the integral of P[m, l]^2 over x in
    [-1, 1] is 1/(2*pi).
    """
    s = np.sqrt(1.0 - x * x)
    P = np.zeros((L + 1, L + 1, x.size))
    P[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, L + 1):
        P[m, m] = math.sqrt((2 * m + 1) / (2.0 * m)) * s * P[m - 1, m - 1]
    for m in range(0, L):
        P[m + 1, m] = math.sqrt(2.0 * m + 3.0) * x * P[m, m]
    for m in range(0, L + 1):
        for l in range(m + 2, L + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            P[l, m] = a * (x * P[l - 1, m] - b * P[l - 2, m])
    dP = np.zeros_like(P)
    for m in range(0, L + 1):
        for l in range(max(m, 1), L + 1):
            c = math.sqrt((2.0 * l + 1.0) * (l - m) * (l + m) / (2.0 * l - 1.0))
            dP[l, m] = (l * x * P[l, m] - c * P[l - 1, m]) / s
    return P.transpose(1, 0, 2), dP.transpose(1, 0, 2)


def sphere_transform_reference(grid, coeffs):
    """Sphere transforms by loops over degree l and order m.

    Returns the field with every derivative synthesize_derivs gives (u, ut,
    up, utt, utp, upp, lap) and the analysis of the field.  The real
    harmonic of flat index l*l (m = 0) is P[0, l](cos theta); those of l*l +
    2m - 1 and l*l + 2m are sqrt(2) P[m, l](cos theta) times cos(m phi) and
    sin(m phi).  Each term's second theta-derivative comes from the
    associated Legendre equation, P_tt = -cot P_t - (l(l+1) - m^2/sin^2) P.
    Latitude profiles are summed per order and trigonometric factor, then
    spread over the longitudes by outer products.  The analysis is the
    explicit quadrature sum of weight times field times harmonic.
    """
    L, x, phi = grid.L_max, grid.x, grid.phi
    s = np.sqrt(1.0 - x * x)
    P, dP = legendre_tables_loop(L, x)
    prof = {key: np.zeros((L + 1, 2, x.size)) for key in ("u", "ut", "utt", "lap")}
    members = []
    for l in range(L + 1):
        for m in range(l + 1):
            pairs = [(0, l * l)] if m == 0 else [(0, l * l + 2 * m - 1), (1, l * l + 2 * m)]
            norm = 1.0 if m == 0 else math.sqrt(2.0)
            p, dp = norm * P[m, l], norm * dP[m, l]
            ddp = -(x / s) * dp - (l * (l + 1) - m * m / (s * s)) * p
            for c, k in pairs:
                prof["u"][m, c] += coeffs[k] * p
                prof["ut"][m, c] += coeffs[k] * dp
                prof["utt"][m, c] += coeffs[k] * ddp
                prof["lap"][m, c] -= l * (l + 1) * coeffs[k] * p
                members.append((k, m, c, p))
    fields = {key: np.zeros((x.size, phi.size)) for key in ("u", "ut", "up", "utt", "utp", "upp", "lap")}
    trig = []
    for m in range(L + 1):
        cs = (np.cos(m * phi), np.sin(m * phi))
        trig.append(cs)
        d_cs = (-m * cs[1], m * cs[0])
        for c in (0, 1):
            for key in ("u", "ut", "utt", "lap"):
                fields[key] += np.outer(prof[key][m, c], cs[c])
            fields["up"] += np.outer(prof["u"][m, c], d_cs[c])
            fields["utp"] += np.outer(prof["ut"][m, c], d_cs[c])
            fields["upp"] -= m * m * np.outer(prof["u"][m, c], cs[c])
    weighted = grid.quad_weights * fields["u"]
    back = np.zeros(len(coeffs))
    for k, m, c, p in members:
        back[k] = np.sum(weighted * np.outer(p, trig[m][c]))
    return fields, back


def gauss_legendre_leggauss(n):
    """Gauss-Legendre nodes and weights on [-1, 1], seeded by numpy's leggauss.

    Two Newton steps on P_n refine leggauss's nodes; the weights
    2 / ((1 - x^2) P_n'(x)^2) are taken at the refined nodes, symmetrized
    with them and scaled to sum 2.
    """
    x = np.polynomial.legendre.leggauss(n)[0]
    for newton_step in range(3):
        p_prev, p = np.ones_like(x), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        if newton_step < 2:
            x = x - p / dp
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    return x, w * (2.0 / w.sum())


def coefficient_layout_loop(L, n):
    """Degree of each flat coefficient and its positions in the real containers.

    Returns (degrees, slot, derivs_slot) by a loop over degree l and order m.
    slot indexes the flattened B[c, m] on the circle and B[c, m, l] on the
    sphere (c = 0 cosine, c = 1 sine), derivs_slot the flattened k = 0 rows
    [c, m, l'] of the sphere's derivative container, l' <= L + 1 (None on
    the circle).
    """
    degrees, slot, derivs_slot = [], [], []
    for l in range(L + 1):
        # the (c, m) of the degree-l members, in flat order
        if n == 1:
            members = [(0, 0)] if l == 0 else [(0, l), (1, l)]
        else:
            members = [(0, 0)] + [(c, m) for m in range(1, l + 1) for c in (0, 1)]
        for c, m in members:
            degrees.append(l)
            if n == 1:
                slot.append(c * (L + 1) + m)
            else:
                slot.append((c * (L + 1) + m) * (L + 1) + l)
                derivs_slot.append((c * (L + 1) + m) * (L + 2) + l)
    return (np.array(degrees, dtype=int), np.array(slot, dtype=int),
            np.array(derivs_slot, dtype=int) if n == 2 else None)


def zero_mode_values(omega, R, amp=1e-3):
    """Grid values amp R (0.4 + 0.5 w_1 - 0.3 w_2 [+ 0.2 w_3 on the sphere]) of the
    zero-modes preset's initial data, from the direction components omega.

    The builder the preset used before its data became the `zero_modes:amp`
    init kind, kept operation for operation as the bitwise reference.
    """
    combo = 0.4 * np.ones(omega[0].shape) + 0.5 * omega[0] - 0.3 * omega[1]
    if len(omega) == 3:
        combo = combo + 0.2 * omega[2]
    return amp * R * combo
