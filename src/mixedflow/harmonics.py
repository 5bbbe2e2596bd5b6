"""Real harmonic analysis on the unit circle and unit 2-sphere.

Basis convention, fixed once for the whole package: fully normalized real
harmonics, orthonormal in L^2 of the unit sphere, without the alternating
phase some references attach to the associated Legendre functions.  On the
circle the basis is 1/sqrt(2*pi), cos(m*theta)/sqrt(pi), sin(m*theta)/sqrt(pi).
Coefficients are stored flat, degree-major: degree l ascending, and inside a
degree the order p runs m = 0, (1, cos), (1, sin), (2, cos), ... for n = 2
and cos, sin for n = 1.  A coefficient vector holds every degree up to the
band limit, Grid.size entries: every method that takes one refuses another
length with DegreeOverflowError, so no vector is padded or cut.

Transforms are real matmuls only, with no FFT.  Both dimensions share one
longitude stage against matrices of cos(m phi), sin(m phi) and their
phi-derivatives; on the circle phi is the angle theta and that stage is the
whole transform.  n = 2 adds a Legendre stage over the degree l for all
orders m at once, against one table of associated Legendre values stored
in (m, l, node) order.  Table and spectral container both run one degree
past the band limit, so that the theta-derivative needs no table of its
own: the three-term recurrence gives

    sin(theta) dP_l^m/dtheta = l a_{l+1,m} P_{l+1}^m - (l+1) a_{l,m} P_{l-1}^m,
    a_{l,m} = sqrt((l^2 - m^2) / (4 l^2 - 1)),

so coefficients scaled and moved one degree up and down in the same
container contract against the same table.  Every transform uses that one
container layout.  The stage's outputs come out in (c, m, node) order, so a
plain reshape and transpose make them the latitude rows [node, (c, m)] that
the longitude stage multiplies: BLAS reads the transposed view in place and
nothing is copied between the stages (see Grid).

The reference radius R never enters the tables: derivatives are angular and
quadrature is against the unit-sphere measure.  On the radius-R sphere the
measure scales by R^n, the Laplacian and the squared gradient by R^-2.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegreeOverflowError, GridError

SPHERE_AREA = {1: 2.0 * math.pi, 2: 4.0 * math.pi}
# Band limits a Grid can be built for; FlowConfig rejects an L_max outside them.
L_MAX_MIN, L_MAX_MAX = 4, 64


def harmonic_multiplicity(l: int, n: int) -> int:
    """Dimension of the space of degree-l harmonics on the n-sphere."""
    if n < 1 or l < 0:
        raise ValueError(f"need n >= 1 and l >= 0, got n={n}, l={l}")

    def choose(a: int, b: int) -> int:
        return math.comb(a, b) if 0 <= b <= a else 0

    return choose(l + n, n) - choose(l + n - 2, n)


def total_coefficients(L_max: int, n: int) -> int:
    return sum(harmonic_multiplicity(l, n) for l in range(L_max + 1))


def _legendre_table(L: int, x: np.ndarray) -> np.ndarray:
    """Normalized associated Legendre values at nodes x, for orders m <= L
    and degrees l <= L + 1.

    Returns one array of shape (L+1, L+2, len(x)) indexed [m, l, node], zero
    for m > l, written in place in that layout; the zero triangle is never
    written, so its untouched pages need not be resident.  Normalization:
    the integral of P[0, l]^2 over x in [-1, 1] equals 1/(2*pi), and orders
    m >= 1 carry the real basis's extra sqrt(2), so that the assembled real
    harmonics are unit vectors on the sphere.  Stable three-term recurrences
    in l, run for all orders m at once.
    """
    x = np.asarray(x, dtype=float)
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    if np.any(s == 0.0):
        raise GridError("nodes must avoid the poles")
    P = np.zeros((L + 1, L + 2, x.size))
    P[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for l in range(1, L + 1):
        P[l, l] = math.sqrt((2 * l + 1) / (2.0 * l)) * s * P[l - 1, l - 1]
    i = np.arange(L + 1)
    m = i.astype(float)
    P[i, i + 1] = np.sqrt(2.0 * m + 3.0)[:, None] * x * P[i, i]
    for l in range(2, L + 2):
        mm = m[:l - 1]
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - mm * mm))[:, None]
        b = np.sqrt(((l - 1.0) ** 2 - mm * mm) / (4.0 * (l - 1.0) ** 2 - 1.0))[:, None]
        P[:l - 1, l] = a * (x * P[:l - 1, l - 1] - b * P[:l - 1, l - 2])
    for order in range(1, L + 1):  # the zero m > l triangle stays unwritten
        P[order, order:] *= math.sqrt(2.0)
    return P


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], nodes ascending.

    Tricomi's closed form x_k ~ (1 - (n-1)/(8 n^3)) cos(pi (4k-1)/(4n+2))
    seeds the nodes, and three Newton steps on P_n refine them to roundoff;
    two leave orthogonality sums near 1e-12.  Each pass evaluates P_n and
    P_{n-1} in place by the recurrence
    P_k = ((2k-1)/k) x P_{k-1} - ((k-1)/k) P_{k-2}, and a fourth pass at the
    final nodes gives P_n' for w = 2 / ((1 - x^2) P_n'(x)^2) (Hale and
    Townsend, SIAM J. Sci. Comput. 35, 2013).  Symmetrized with the nodes
    and scaled to sum 2, the weights keep sum_j w_j P_l(x_j),
    1 <= l <= 2n - 1, at or below 8.3e-16 for n = 2(L+1), L = 4..64;
    second derivatives turn an error there into one ~l^2 larger in the
    velocity of a round sphere.
    """
    x = -(1.0 - (n - 1.0) / (8.0 * n ** 3)) * np.cos(
        math.pi * (4.0 * np.arange(1, n + 1) - 1.0) / (4.0 * n + 2.0))
    k = np.arange(2.0, n + 1.0)
    a, b = ((2.0 * k - 1.0) / k)[:, None], ((k - 1.0) / k).tolist()
    p_prev, p, p_next = np.empty(n), np.empty(n), np.empty(n)
    for newton_step in range(4):
        p_prev.fill(1.0)
        p[:] = x
        for ax, b_k in zip(a * x, b):
            np.multiply(ax, p, out=p_next)
            p_prev *= b_k
            p_next -= p_prev
            p_prev, p, p_next = p, p_next, p_prev
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        if newton_step < 3:
            x = x - p / dp
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    return x, w * (2.0 / w.sum())


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


class Grid:
    """Collocation nodes, quadrature weights, and transform tables, unit radius.

    n = 1: uniform nodes on the circle, trapezoid weights (exact for the
    band limit).  n = 2: Gauss-Legendre nodes in cos(theta) crossed with a
    uniform longitude grid; the poles are never sampled.  Every transform is
    a real matmul against tables frozen at construction:

    - the real spectral container holds the cosine (c = 0) and sine (c = 1)
      coefficient of each order m, B[c, m] on the circle and B[c, m, l] of
      degrees l <= L_max + 1 on the sphere, where degree L_max + 1 holds
      no coefficient and gives the theta-derivative room to move one degree
      up (see derivs_buffers); a flat coefficient vector is scattered into
      it through one index array, and gathered back from analysis's
      output, laid out the same way;
    - n = 2 only: one Legendre table P[m, l, node] of the same degrees
      contracts B over l for all orders at once (a batched matmul over m)
      into outputs D[c, m, node].  D.reshape(2 * (L_max + 1), n_lat).T is
      the latitude-rows operand [node, (c, m)] of the longitude matmuls,
      read in place;
    - three longitude matrices, built the same way for both n from the
      uniform node count, map a row [D(c, m)] to grid values: rows indexed
      (c, m), columns by the uniform nodes, holding cos(m phi) and
      sin(m phi), then their first and their second phi-derivatives.  On the
      circle the rows also carry the basis normalization.  One batched
      matmul gives a field and its phi-derivatives.

    Analysis runs the same layout backwards: the first longitude matrix
    times the transposed field gives weighted sums [(c, m), node], and on
    the sphere these contract over the nodes against the transposed view of
    the table into [c, m, l].
    """

    def __init__(self, n: int, L_max: int, oversample: float):
        if n not in (1, 2):
            raise GridError(f"only circle (n=1) and sphere (n=2) grids are supported, got n={n}")
        if not L_MAX_MIN <= L_max <= L_MAX_MAX:
            raise GridError(f"band limit must lie in [{L_MAX_MIN}, {L_MAX_MAX}], got {L_max}")
        if oversample < 1.0:
            raise GridError(f"oversample must be >= 1, got {oversample}")
        self.n = n
        self.L_max = L_max
        L = L_max
        if n == 1:
            n_theta = max(math.ceil(2.0 * oversample * L), 2 * L + 2)
            n_theta += n_theta % 2
            self.n_theta = n_theta
            self.shape = (n_theta,)
            self.theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
            self.quad_weights = np.full(n_theta, 2.0 * math.pi / n_theta)
            # The circle's basis normalization, per order; the sphere's sits
            # in its Legendre table.
            lon_scale = np.full((L + 1, 1), 1.0 / math.sqrt(math.pi))
            lon_scale[0] = 1.0 / math.sqrt(2.0 * math.pi)
            self._directions = np.stack([np.cos(self.theta), np.sin(self.theta)])
            _freeze(self.theta, self.quad_weights, self._directions)
        else:
            n_lat = max(math.ceil(oversample * (L + 1)), L + 1)
            n_lon = max(math.ceil(oversample * (2 * L + 1)), 2 * L + 2)
            n_lon += n_lon % 2
            self.n_lat = n_lat
            self.n_lon = n_lon
            self.shape = (n_lat, n_lon)
            x, w = _gauss_legendre(n_lat)
            self.x = x
            self.theta = np.arccos(x)
            self.sin_theta = np.sqrt(1.0 - x * x)
            self.phi = 2.0 * math.pi * np.arange(n_lon) / n_lon
            self.quad_weights = np.outer(w, np.full(n_lon, 2.0 * math.pi / n_lon))
            self._tab_mlj = _legendre_table(L, x)
            # 1/sin(theta), cot(theta) and m^2/sin(theta)^2 per latitude row
            # [(c, m), node] of synthesize_derivs, repeated to that shape so
            # its multiplies by them are same-shape ones.
            inv_sin = 1.0 / self.sin_theta
            m2 = np.tile(np.arange(L + 1.0) ** 2, 2)[:, None]
            self._row_factors = np.stack(np.broadcast_arrays(inv_sin, x * inv_sin,
                                                             m2 * inv_sin * inv_sin))
            lon_scale = 1.0
            st = self.sin_theta[:, None]
            self._directions = np.stack([st * np.cos(self.phi)[None, :],
                                         st * np.sin(self.phi)[None, :],
                                         np.broadcast_to(self.x[:, None], self.shape)])
            _freeze(self.x, self.theta, self.sin_theta, self.phi,
                    self.quad_weights, self._tab_mlj, self._row_factors, self._directions)
        n_uni = self.shape[-1]
        m = np.arange(L + 1)
        # Reduce m*phi exactly before the trigonometric calls.
        angle = (2.0 * math.pi / n_uni) * (np.outer(m, np.arange(n_uni)) % n_uni)
        cs = lon_scale * np.stack([np.cos(angle), np.sin(angle)])
        d_cs = m[:, None] * np.stack([-cs[1], cs[0]])
        m2_cs = -(m * m)[:, None] * cs
        self._lon = np.stack([cs, d_cs, m2_cs]).reshape(3, 2 * (L + 1), n_uni)
        # analyze's latitude weights, repeated to the shape [(c, m), node] of
        # its longitude sums: numpy allocates an iteration buffer as large as
        # those sums for a broadcasting multiply, and nothing for a same-shape one.
        self._sum_weights = np.repeat(self.quad_weights[..., :1].T, 2 * (L + 1), axis=0)
        _freeze(self._lon, self._sum_weights)
        self.size = total_coefficients(L, n)
        self._build_layout()

    # -- coefficient layout -------------------------------------------------

    def _build_layout(self) -> None:
        L, n = self.L_max, self.n
        L1 = L + 1
        # Flat coefficient k sits at position j = k - l*l inside its degree
        # (j = k on the circle): the order-m cosine member at j = 2m - 1 (j = 0
        # for m = 0), its sine partner at j = 2m.  It goes to B[c, m] on the
        # circle and B[c, m, l] on the sphere, flattened.
        k = np.arange(self.size)
        if n == 1:
            degrees = (k + 1) // 2
            j = k
        else:
            degrees = np.repeat(np.arange(L1), 2 * np.arange(L1) + 1)
            j = k - degrees * degrees
        cm = L1 * ((j > 0) & (j % 2 == 0)) + (j + 1) // 2
        self._slot = cm if n == 1 else cm * (L1 + 1) + degrees
        self._container_shape = (2, L1) if n == 1 else (2, L1, L1 + 1)
        self.degrees = degrees
        _freeze(self._slot, self.degrees)
        if n == 2:
            # Factors of the coefficient at each position of the container
            # (the k = 0 rows of derivs_buffers): the Laplacian's eigenvalue,
            # then l a_{l+1,m} and -(l+1) a_{l,m} for its moves one degree up
            # and down.  Zero where m > l, where P vanishes.
            ell = np.arange(L1 + 1.0)
            m = np.arange(L1, dtype=float)[:, None]

            def a(l: np.ndarray) -> np.ndarray:
                return np.sqrt(np.maximum(l * l - m * m, 0.0) / (4.0 * l * l - 1.0))

            factors = np.stack(np.broadcast_arrays(-(ell * (ell + 1.0)), ell * a(ell + 1.0),
                                                   -(ell + 1.0) * a(ell)))
            # Repeated for c = cos, sin and flattened like the container.
            self._derivs_factor = np.repeat(factors[:, None], 2, axis=1).reshape(3, -1)
            _freeze(self._derivs_factor)

    def flat_index(self, l: int, p: int) -> int:
        """Flat position of the degree-l, order-p basis member (p is 1-based)."""
        mult = harmonic_multiplicity(l, self.n)
        if l < 0 or l > self.L_max or p < 1 or p > mult:
            raise IndexError(f"no basis member (l={l}, p={p}) at band limit {self.L_max}")
        if self.n == 1:
            return 0 if l == 0 else 2 * l - 2 + p
        return l * l + p - 1

    def _checked(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients as a float vector, refused with DegreeOverflowError unless
        one-dimensional of length size: no vector is padded or cut to fit.  A float
        vector comes back as it is (no copy)."""
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1:
            raise DegreeOverflowError("coefficient vector must be one-dimensional")
        if c.size != self.size:
            raise DegreeOverflowError(
                f"{c.size} coefficients given; L_max={self.L_max} takes exactly {self.size}")
        return c

    # -- spectral containers --------------------------------------------------

    def _container(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Flat real coefficients to the real container: B[c, m, l] for n = 2,
        B[c, m] for n = 1 (c = 0 cosine, c = 1 sine).  An `out` container is
        derivs_buffers' B, zero off the coefficient slots; on the sphere the
        coefficients go into its k = 0 rows and the other rows are left as
        they are."""
        if out is None:
            out = np.zeros(self._container_shape)
        out.reshape(-1)[self._slot] = self._checked(coeffs)
        return out

    def _field(self, values: np.ndarray) -> np.ndarray:
        """Grid samples as a float array, refused unless grid-shaped."""
        v = np.asarray(values, dtype=float)
        if v.shape != self.shape:
            raise GridError(f"field shape {v.shape} does not match grid shape {self.shape}")
        return v

    # -- transforms -----------------------------------------------------------

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Project grid samples onto the orthonormal basis (unit-sphere inner product)."""
        v = self._field(values)
        # Longitude sums [(c, m), node], each node column weighted by its
        # quadrature weight (Gauss weight times 2*pi/n_lon; 2*pi/n_theta on the circle).
        Y = self._lon[0] @ v.T
        Y *= self._sum_weights
        if self.n == 2:
            B = np.empty(self._container_shape)
            np.matmul(Y.reshape(2, self.L_max + 1, self.n_lat).transpose(1, 0, 2),
                      self._tab_mlj.transpose(0, 2, 1), out=B.transpose(1, 0, 2))
            Y = B
        return Y.reshape(-1)[self._slot]

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Evaluate a coefficient vector on the grid."""
        B = self._container(coeffs)
        if self.n == 1:
            return B.reshape(-1) @ self._lon[0]
        D = np.empty((2, self.L_max + 1, self.n_lat))
        np.matmul(B.transpose(1, 0, 2), self._tab_mlj, out=D.transpose(1, 0, 2))
        return D.reshape(-1, self.n_lat).T @ self._lon[0]

    def derivs_buffers(self) -> dict[str, np.ndarray]:
        """Arrays that synthesize_derivs(coeffs, out=...) writes into.

        B is the spectral container, zero off the coefficient slots.  The
        fields are views of the stacked outputs of the longitude matmuls:
        u_ut_utt on the circle; u_up_upp, ut_utp and utt on the sphere,
        where u_up_upp and ut_utp are the two halves of one contiguous
        (5, *shape) block, u_up_upp_ut_utp.  tmp is one grid-shaped scratch
        array.

        On the sphere B[k, c, m, l] stacks three row sets k, each one
        spectral container, and D[k, c, m, node] holds their Legendre
        outputs.  The row sets are the coefficients u (k = 0), the
        Laplacian's -l(l+1) u (1), and (2) the sum of u scaled by l a_{l+1,m}
        and moved to degree l + 1 and u scaled by -(l+1) a_{l,m} and moved
        to degree l - 1: by the recurrence in the module docstring its
        Legendre output is sin(theta) times the theta-derivative's.  moved
        holds those two scaled copies of the flattened k = 0 rows, each with
        one zero at the end it moves away from.
        """
        L1 = self.L_max + 1
        buf = {"B": np.zeros(self._container_shape if self.n == 1
                             else (3,) + self._container_shape),
               "tmp": np.empty(self.shape)}
        if self.n == 1:
            buf["u_ut_utt"] = np.empty((3,) + self.shape)
            buf.update(zip(("u", "ut", "utt"), buf["u_ut_utt"]))
            return buf
        block = np.empty((5,) + self.shape)
        buf.update(D=np.empty((3, 2, L1, self.n_lat)), moved=np.zeros((2, 2 * L1 * (L1 + 1) + 1)),
                   u_up_upp_ut_utp=block, u_up_upp=block[:3], ut_utp=block[3:],
                   utt=np.empty(self.shape))
        buf.update(zip(("u", "up", "upp"), buf["u_up_upp"]))
        buf.update(zip(("ut", "utp"), buf["ut_utp"]))
        return buf

    def synthesize_derivs(self, coeffs: np.ndarray,
                          out: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
        """Field together with the surface derivatives the geometry needs.

        Keys for n = 1: u, ut, utt, straight from the three longitude
        matrices.  Keys for n = 2: u, ut, up, utt, utp, upp, lap.  All
        derivatives are taken spectrally.  For n = 2 the row sets k = 1, 2
        of B (see derivs_buffers) are made from its coefficient rows by
        multiplies and one add, each over contiguous flat arrays: a move by
        one degree is a shift by one element, since every row ends on degree
        L_max + 1, which holds no coefficient.  One batched matmul over the
        orders m then contracts B with the Legendre table into D, and D[2]
        is divided by sin(theta).  Each row set of D, reshaped to latitude
        rows [(c, m), node] and transposed, is the operand of the longitude
        matmuls, without a copy.
        The phi-derivatives come from the longitude matrices, since
        differentiating in phi commutes with the sum over l.  The second
        theta-derivative comes from the Laplacian identity
        utt = lap - cot(theta) ut - upp / sin(theta)^2, applied to the
        latitude rows, so no second derivative table is required.

        Without `out` every array is fresh.  With `out`, buffers from
        derivs_buffers, every array is written into them and nothing
        grid-sized is allocated; the result then has no lap key, and its
        arrays hold until `out` is written again.
        """
        buf = self.derivs_buffers() if out is None else out
        B = self._container(coeffs, buf["B"])
        if self.n == 1:
            np.matmul(B.reshape(-1), self._lon, out=buf["u_ut_utt"])
            return {key: buf[key] for key in ("u", "ut", "utt")}
        L1, n_lat, D = self.L_max + 1, self.n_lat, buf["D"]
        rows, factor, moved = B.reshape(3, -1), self._derivs_factor, buf["moved"]
        np.multiply(factor[0], rows[0], out=rows[1])
        np.multiply(factor[1], rows[0], out=moved[0, 1:])
        np.multiply(factor[2], rows[0], out=moved[1, :-1])
        np.add(moved[0, :-1], moved[1, 1:], out=rows[2])
        np.matmul(B.reshape(6, L1, L1 + 1).transpose(1, 0, 2), self._tab_mlj,
                  out=D.reshape(6, L1, n_lat).transpose(1, 0, 2))
        D_u, D_lap, D_t = D.reshape(3, -1, n_lat)
        inv_sin, cot, m2_sin2 = self._row_factors
        np.multiply(inv_sin, D_t, out=D_t)
        np.matmul(D_u.T, self._lon, out=buf["u_up_upp"])
        np.matmul(D_t.T, self._lon[:2], out=buf["ut_utp"])
        fields = {key: buf[key] for key in ("u", "ut", "up", "utp", "upp", "utt")}
        if out is None:
            fields["lap"] = D_lap.T @ self._lon[0]
        # utt = lap - cot(theta) ut - upp / sin(theta)^2 with upp = -m^2 u,
        # taken on the latitude rows, whose D_u and D_t are no longer needed
        np.multiply(cot, D_t, out=D_t)
        np.subtract(D_lap, D_t, out=D_lap)
        np.multiply(m2_sin2, D_u, out=D_u)
        np.add(D_lap, D_u, out=D_lap)
        np.matmul(D_lap.T, self._lon[0], out=buf["utt"])
        return fields

    # -- quadrature and geometry helpers ---------------------------------------

    def integrate(self, values: np.ndarray) -> float:
        """Integral of a grid-shaped field against the unit-sphere measure."""
        return float(self.quad_weights.reshape(-1) @ self._field(values).reshape(-1))

    def directions(self) -> np.ndarray:
        """Components of the unit position vector at the nodes, stacked.

        One read-only, C-contiguous array of shape (n + 1, *shape), built at
        construction: row i is omega_{i+1}, so (cos theta, sin theta) on the
        circle and (sin theta cos phi, sin theta sin phi, cos theta) on the
        sphere.  Every call returns the same array.
        """
        return self._directions

    def mode_energies(self, coeffs: np.ndarray) -> np.ndarray:
        """Sum of squared coefficients per degree of a full-length vector, length L_max + 1."""
        c = self._checked(coeffs)
        return np.bincount(self.degrees, weights=c * c, minlength=self.L_max + 1)

    def __repr__(self) -> str:
        nodes = "x".join(str(s) for s in self.shape)
        return f"Grid(n={self.n}, L_max={self.L_max}, nodes={nodes})"


def build_grid(n: int, L_max: int, oversample: float = 2.0) -> Grid:
    return Grid(n, L_max, oversample)


class RadialField:
    """Height function over the radius-R reference sphere, on a fixed grid.

    Holds grid samples and, lazily, the coefficient vector.  The surface it
    describes is the radial graph r = R + values, admissible while r > 0.
    R must be positive and finite, and coeffs, when given, full length.
    """

    def __init__(self, grid: Grid, R: float, values: np.ndarray | None = None,
                 coeffs: np.ndarray | None = None):
        if R <= 0:
            raise ValueError(f"reference radius must be positive, got {R}")
        if not math.isfinite(R):
            raise ValueError(f"reference radius must be finite, got {R}")
        if (values is None) == (coeffs is None):
            raise ValueError("construct from exactly one of values or coeffs")
        self.grid = grid
        self.R = float(R)
        if coeffs is not None:
            self._coeffs = grid._checked(coeffs).copy()  # _checked may return the caller's array
            self._coeffs.flags.writeable = False
            self.values = grid.synthesize(self._coeffs)
        else:
            self.values = grid._field(values).copy()
            self._coeffs = None
        self.values.flags.writeable = False
        self._sup_abs = None

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            self._coeffs = self.grid.analyze(self.values)
            self._coeffs.flags.writeable = False
        return self._coeffs

    def sup_abs(self) -> float:
        if self._sup_abs is None:  # values are read-only, so it is taken once
            self._sup_abs = float(np.max(np.abs(self.values)))
        return self._sup_abs

    def __repr__(self) -> str:
        return f"RadialField(R={self.R}, sup|rho|={self.sup_abs():.3e}, {self.grid!r})"
