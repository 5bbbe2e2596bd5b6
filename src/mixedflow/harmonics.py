"""Real harmonic analysis on the unit circle and unit 2-sphere.

Basis convention, fixed once for the whole package: fully normalized real
harmonics, orthonormal in L^2 of the unit sphere, without the alternating
phase some references attach to the associated Legendre functions.  On the
circle the basis is 1/sqrt(2*pi), cos(m*theta)/sqrt(pi), sin(m*theta)/sqrt(pi).
Coefficients are stored flat, degree-major: degree l ascending, and inside a
degree the order p runs m = 0, (1, cos), (1, sin), (2, cos), ... for n = 2
and cos, sin for n = 1.

Transforms are real matmuls only, with no FFT.  Both dimensions share one
longitude stage against matrices of cos(m phi), sin(m phi) and their
phi-derivatives; on the circle phi is the angle theta and that stage is the
whole transform.  n = 2 adds a Legendre stage over the degree l for all
orders m at once, against a value table and a theta-derivative table stored
in (m, l, node) order.  Its outputs come out in (m, c, node) order, so a
plain reshape and transpose make them the latitude rows [node, (m, c)] that
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


def _legendre_tables(L: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized associated Legendre values and theta-derivatives at nodes x.

    Returns arrays of shape (L+1, L+1, len(x)) indexed [m, l, node], zero for
    m > l.  Normalization: the integral of P[m, l]^2 over x in [-1, 1] equals
    1/(2*pi) for every order, so that the assembled real harmonics are unit
    vectors on the sphere.  Stable three-term recurrences in l, run for all
    orders m at once.
    """
    x = np.asarray(x, dtype=float)
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    if np.any(s == 0.0):
        raise GridError("nodes must avoid the poles")
    P = np.zeros((L + 1, L + 1, x.size))
    P[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for l in range(1, L + 1):
        P[l, l] = math.sqrt((2 * l + 1) / (2.0 * l)) * s * P[l - 1, l - 1]
    i = np.arange(L)
    m = i.astype(float)
    P[i + 1, i] = np.sqrt(2.0 * m + 3.0)[:, None] * x * P[i, i]
    for l in range(2, L + 1):
        mm = m[:l - 1]
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - mm * mm))[:, None]
        b = np.sqrt(((l - 1.0) ** 2 - mm * mm) / (4.0 * (l - 1.0) ** 2 - 1.0))[:, None]
        P[l, :l - 1] = a * (x * P[l - 1, :l - 1] - b * P[l - 2, :l - 1])
    ell = np.arange(L + 1, dtype=float)[:, None]
    # c[l, m]; zero above the diagonal, where the radicand is negative and P vanishes.
    c = np.sqrt(np.maximum((2.0 * ell + 1.0) * (ell - ell.T) * (ell + ell.T) / (2.0 * ell - 1.0),
                           0.0))
    dP = np.zeros_like(P)
    dP[1:] = ((ell[1:, :, None] * x) * P[1:] - c[1:, :, None] * P[:-1]) / s
    return np.ascontiguousarray(P.transpose(1, 0, 2)), np.ascontiguousarray(dP.transpose(1, 0, 2))


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], refined past numpy's leggauss.

    Its weights are off by up to ~6e-12 relative near n = 100, which second
    derivatives turn into ~1e-10 in the velocity of a round sphere.  Two
    Newton steps on P_n refine its nodes; w = 2 / ((1 - x^2) P_n'(x)^2)
    (Hale and Townsend, SIAM J. Sci. Comput. 35, 2013), symmetrized with the
    nodes and scaled to sum 2, keeps sum_j w_j P_l(x_j), l >= 1, below 1e-15.
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
      coefficient of each order m, B[m, c] on the circle and B[m, c, l] of
      degree l on the sphere; a flat coefficient vector is scattered into it
      through one index array, and gathered back from analysis's output,
      laid out the same way;
    - n = 2 only: two Legendre tables, values and theta-derivatives, each
      indexed [m, l, node], contract B over l for all orders at once (a
      batched matmul over m) into outputs D[m, c, node].
      D.reshape(2 * (L_max + 1), n_lat).T is the latitude-rows operand
      [node, (m, c)] of the longitude matmuls, read in place;
    - three longitude matrices, built the same way for both n from the
      uniform node count, map a row [D(m, c)] to grid values: rows indexed
      (m, c), columns by the uniform nodes, holding cos(m phi) and
      sin(m phi), then their first and their second phi-derivatives.  On the
      circle the rows also carry the basis normalization.  One batched
      matmul gives a field and its phi-derivatives.

    Analysis runs the same layout backwards: the first longitude matrix
    times the transposed field gives weighted sums [(m, c), node], and on
    the sphere these contract over the nodes against the transposed view of
    the value table into [m, c, l].
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
            # in its Legendre tables.
            lon_scale = np.full((L + 1, 1, 1), 1.0 / math.sqrt(math.pi))
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
            P, dP = _legendre_tables(L, x)
            scale = np.full((L + 1, 1, 1), math.sqrt(2.0))
            scale[0] = 1.0
            self._tab_mlj = P * scale
            self._tab_dt_mlj = dP * scale
            lon_scale = 1.0
            st = self.sin_theta[:, None]
            self._directions = np.stack([st * np.cos(self.phi)[None, :],
                                         st * np.sin(self.phi)[None, :],
                                         np.broadcast_to(self.x[:, None], self.shape)])
            _freeze(self.x, self.theta, self.sin_theta, self.phi,
                    self.quad_weights, self._tab_mlj, self._tab_dt_mlj, self._directions)
        n_uni = self.shape[-1]
        m = np.arange(L + 1)
        # Reduce m*phi exactly before the trigonometric calls.
        angle = (2.0 * math.pi / n_uni) * (np.outer(m, np.arange(n_uni)) % n_uni)
        cs = lon_scale * np.stack([np.cos(angle), np.sin(angle)], axis=1)
        d_cs = m[:, None, None] * np.stack([-cs[:, 1], cs[:, 0]], axis=1)
        m2_cs = -(m * m)[:, None, None] * cs
        self._lon = np.stack([cs, d_cs, m2_cs]).reshape(3, 2 * (L + 1), n_uni)
        # analyze's latitude weights, repeated to the shape [(m, c), node] of
        # its longitude sums: numpy allocates an iteration buffer as large as
        # those sums for a broadcasting multiply, and nothing for a same-shape one.
        self._sum_weights = np.repeat(self.quad_weights[..., :1].T, 2 * (L + 1), axis=0)
        _freeze(self._lon, self._sum_weights)
        self.size = total_coefficients(L, n)
        self._build_layout()

    # -- coefficient layout -------------------------------------------------

    def _build_layout(self) -> None:
        L, n = self.L_max, self.n
        if n == 1:
            # Flat 2m - 1 (cos) and 2m (sin) sit at 2m and 2m + 1 of B[m, c].
            k = np.arange(self.size)
            degrees = (k + 1) // 2
            slot = k + (k > 0)
        else:
            # Position of each flat coefficient in the flattened container
            # B[m, c, l]: the order-m cosine member of degree l sits at flat
            # l*l + 2m - 1 (l*l for m = 0), its sine partner right after it.
            degrees = np.empty(self.size, dtype=int)
            slot = np.empty(self.size, dtype=int)
            for l in range(L + 1):
                base = l * l
                degrees[base:base + 2 * l + 1] = l
                slot[base] = l
                for m in range(1, l + 1):
                    slot[base + 2 * m - 1] = 2 * m * (L + 1) + l
                    slot[base + 2 * m] = (2 * m + 1) * (L + 1) + l
        self._slot = slot
        self.degrees = degrees
        ell = np.arange(L + 1, dtype=float)
        self.laplace_factor = -(ell * (ell + n - 1))
        _freeze(self._slot, self.degrees, self.laplace_factor)

    def flat_index(self, l: int, p: int) -> int:
        """Flat position of the degree-l, order-p basis member (p is 1-based)."""
        mult = harmonic_multiplicity(l, self.n)
        if l < 0 or l > self.L_max or p < 1 or p > mult:
            raise IndexError(f"no basis member (l={l}, p={p}) at band limit {self.L_max}")
        if self.n == 1:
            return 0 if l == 0 else 2 * l - 2 + p
        return l * l + p - 1

    def _pad(self, coeffs: np.ndarray) -> np.ndarray:
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1:
            raise DegreeOverflowError("coefficient vector must be one-dimensional")
        if c.size > self.size:
            raise DegreeOverflowError(
                f"{c.size} coefficients exceed the {self.size} representable at L_max={self.L_max}")
        out = np.zeros(self.size)
        out[:c.size] = c
        return out

    # -- spectral containers --------------------------------------------------

    def _container(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Flat real coefficients to the real container: B[m, c, l] for n = 2,
        B[m, c] for n = 1 (c = 0 cosine, c = 1 sine).  An `out` container
        must be zero off the coefficient slots, as derivs_buffers makes it;
        the coefficients go into its leading B, so on the sphere the
        Laplacian's container stacked after it is left as it is."""
        L1 = self.L_max + 1
        B = np.zeros((L1, 2) + (L1,) * (self.n - 1)) if out is None else out
        B.reshape(-1)[self._slot] = self._pad(coeffs)
        return B

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
        # Longitude sums [(m, c), node], each node column weighted by its
        # quadrature weight (Gauss weight times 2*pi/n_lon; 2*pi/n_theta on the circle).
        Y = self._lon[0] @ v.T
        Y *= self._sum_weights
        if self.n == 2:
            Y = np.matmul(Y.reshape(self.L_max + 1, 2, self.n_lat), self._tab_mlj.transpose(0, 2, 1))
        return Y.reshape(-1)[self._slot]

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Evaluate a coefficient vector on the grid."""
        B = self._container(coeffs)
        if self.n == 1:
            return B.reshape(-1) @ self._lon[0]
        return np.matmul(B, self._tab_mlj).reshape(-1, self.n_lat).T @ self._lon[0]

    def derivs_buffers(self) -> dict[str, np.ndarray]:
        """Arrays that synthesize_derivs(coeffs, out=...) writes into.

        B is the spectral container, zero off the coefficient slots; on the
        sphere it is stacked with the Laplacian's container, B[k, m, c, l].
        The fields are views of the stacked outputs of the longitude matmuls:
        u_ut_utt on the circle; u_up_upp, ut_utp and lap on the sphere.  tmp
        is one grid-shaped scratch array.  n = 2 adds D, the Legendre outputs
        D[k, m, c, node] of the field (k = 0), its Laplacian (1) and its
        theta-derivative (2), and the columns cot = cot(theta) and
        sin2 = sin(theta)^2, shaped (n_lat, 1).
        """
        L1 = self.L_max + 1
        buf = {"B": np.zeros((L1, 2) if self.n == 1 else (2, L1, 2, L1)),
               "tmp": np.empty(self.shape)}
        if self.n == 1:
            buf["u_ut_utt"] = np.empty((3,) + self.shape)
            buf.update(zip(("u", "ut", "utt"), buf["u_ut_utt"]))
            return buf
        st = self.sin_theta[:, None]
        buf.update(D=np.empty((3, L1, 2, self.n_lat)),
                   u_up_upp=np.empty((3,) + self.shape), ut_utp=np.empty((2,) + self.shape),
                   lap=np.empty(self.shape), cot=self.x[:, None] / st, sin2=st * st)
        buf.update(zip(("u", "up", "upp"), buf["u_up_upp"]))
        buf.update(zip(("ut", "utp"), buf["ut_utp"]))
        return buf

    def synthesize_derivs(self, coeffs: np.ndarray,
                          out: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
        """Field together with the surface derivatives the geometry needs.

        Keys for n = 1: u, ut, utt, straight from the three longitude
        matrices.  Keys for n = 2: u, ut, up, utt, utp, upp, lap.  All
        derivatives are taken spectrally; the second theta-derivative is
        recovered from the Laplacian identity so no second derivative table
        is required.  For n = 2 two batched matmuls over the orders m make
        the Legendre outputs D[m, c, node]: the field's and the Laplacian's
        containers against the value table, the field's against the
        derivative table.  Each D, reshaped to [(m, c), node] and
        transposed, is the latitude-rows operand of the longitude matmuls,
        without a copy.  The phi-derivatives come from the longitude
        matrices, since differentiating in phi commutes with the sum over l.

        Without `out` every array is fresh.  With `out`, buffers from
        derivs_buffers, every array is written into them and nothing
        grid-sized is allocated; utt then overwrites lap, so the result has
        no lap key, and its arrays hold until `out` is written again.
        """
        buf = self.derivs_buffers() if out is None else out
        B = self._container(coeffs, buf["B"])
        if self.n == 1:
            np.matmul(B.reshape(-1), self._lon, out=buf["u_ut_utt"])
            return {key: buf[key] for key in ("u", "ut", "utt")}
        D = buf["D"]
        np.multiply(self.laplace_factor, B[0], out=B[1])
        np.matmul(B, self._tab_mlj, out=D[:2])
        np.matmul(B[0], self._tab_dt_mlj, out=D[2])
        D_u, D_lap, D_t = D
        lap, n_lat = buf["lap"], self.n_lat
        np.matmul(D_u.reshape(-1, n_lat).T, self._lon, out=buf["u_up_upp"])
        np.matmul(D_lap.reshape(-1, n_lat).T, self._lon[0], out=lap)
        np.matmul(D_t.reshape(-1, n_lat).T, self._lon[:2], out=buf["ut_utp"])
        # utt = lap - cot(theta) ut - upp / sin(theta)^2
        utt = np.empty(self.shape) if out is None else lap
        tmp = buf["tmp"]
        np.multiply(buf["cot"], buf["ut"], out=tmp)
        np.subtract(lap, tmp, out=utt)
        np.divide(buf["upp"], buf["sin2"], out=tmp)
        np.subtract(utt, tmp, out=utt)
        fields = {key: buf[key] for key in ("u", "ut", "up", "utp", "upp")}
        fields["utt"] = utt
        if out is None:
            fields["lap"] = lap
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
        """Sum of squared coefficients per degree, length L_max + 1."""
        c = self._pad(coeffs)
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
    """

    def __init__(self, grid: Grid, R: float, values: np.ndarray | None = None,
                 coeffs: np.ndarray | None = None):
        if R <= 0:
            raise ValueError(f"reference radius must be positive, got {R}")
        if (values is None) == (coeffs is None):
            raise ValueError("construct from exactly one of values or coeffs")
        self.grid = grid
        self.R = float(R)
        if coeffs is not None:
            self._coeffs = grid._pad(coeffs)
            self._coeffs.flags.writeable = False
            self.values = grid.synthesize(self._coeffs)
        else:
            self.values = grid._field(values).copy()
            self._coeffs = None
        self.values.flags.writeable = False

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            self._coeffs = self.grid.analyze(self.values)
            self._coeffs.flags.writeable = False
        return self._coeffs

    def min_radius(self) -> float:
        return self.R + float(np.min(self.values))

    def sup_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __repr__(self) -> str:
        return f"RadialField(R={self.R}, sup|rho|={self.sup_abs():.3e}, {self.grid!r})"
