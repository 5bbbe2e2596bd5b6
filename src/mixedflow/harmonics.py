"""Real harmonic analysis on the unit circle and unit 2-sphere.

Basis convention, fixed once for the whole package: fully normalized real
harmonics, orthonormal in L^2 of the unit sphere, without the alternating
phase some references attach to the associated Legendre functions.  On the
circle the basis is 1/sqrt(2*pi), cos(m*theta)/sqrt(pi), sin(m*theta)/sqrt(pi).
Coefficients are stored flat, degree-major: degree l ascending, and inside a
degree the order p runs m = 0, (1, cos), (1, sin), (2, cos), ... for n = 2
and cos, sin for n = 1.

The reference radius R never enters the tables.  Downstream operators apply
it through explicit factors: Laplace-Beltrami scales by R^-2, the measure by
R^n, squared gradients by R^-2.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegreeOverflowError, GridError

SPHERE_AREA = {1: 2.0 * math.pi, 2: 4.0 * math.pi}


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

    Returns arrays of shape (len(x), L+1, L+1) indexed [node, l, m], zero for
    m > l.  Normalization: the integral of P[l,m]^2 over x in [-1, 1] equals
    1/(2*pi) for every order, so that the assembled real harmonics are unit
    vectors on the sphere.  Stable three-term recurrences in l at fixed m.
    """
    x = np.asarray(x, dtype=float)
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    if np.any(s == 0.0):
        raise GridError("nodes must avoid the poles")
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
    return np.ascontiguousarray(P.transpose(2, 0, 1)), np.ascontiguousarray(dP.transpose(2, 0, 1))


def _gauss_legendre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    return x, w


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


class Grid:
    """Collocation nodes, quadrature weights, and transform tables, unit radius.

    n = 1: uniform nodes on the circle, trapezoid weights (exact for the
    band limit).  n = 2: Gauss-Legendre nodes in cos(theta) crossed with a
    uniform longitude grid; the poles are never sampled.  All tables are
    immutable after construction and every transform is a dense contraction
    against them, so repeated calls allocate only the output arrays.
    """

    def __init__(self, n: int, L_max: int, oversample: float = 2.0):
        if n not in (1, 2):
            raise GridError(f"only circle (n=1) and sphere (n=2) grids are supported, got n={n}")
        if L_max < 4 or L_max > 64:
            raise GridError(f"band limit must lie in [4, 64], got {L_max}")
        if oversample < 1.0:
            raise GridError(f"oversample must be >= 1, got {oversample}")
        self.n = n
        self.L_max = L_max
        self.oversample = float(oversample)
        L = L_max
        if n == 1:
            n_theta = max(math.ceil(2.0 * oversample * L), 2 * L + 2)
            n_theta += n_theta % 2
            self.n_theta = n_theta
            self.shape = (n_theta,)
            self.theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
            self.quad_weights = np.full(n_theta, 2.0 * math.pi / n_theta)
            # Per-order normalization of the Fourier basis, constant apart.
            self._norm = np.full(L + 1, 1.0 / math.sqrt(math.pi))
            self._norm[0] = 1.0 / math.sqrt(2.0 * math.pi)
            self._directions = (np.cos(self.theta), np.sin(self.theta))
            _freeze(self.theta, self.quad_weights, self._norm, *self._directions)
        else:
            n_lat = max(math.ceil(oversample * (L + 1)), L + 1)
            n_lon = max(math.ceil(oversample * (2 * L + 1)), 2 * L + 2)
            n_lon += n_lon % 2
            self.n_lat = n_lat
            self.n_lon = n_lon
            self.shape = (n_lat, n_lon)
            x, w = _gauss_legendre(n_lat)
            self.x = x
            self.glw = w
            self.theta = np.arccos(x)
            self.sin_theta = np.sqrt(1.0 - x * x)
            self.phi = 2.0 * math.pi * np.arange(n_lon) / n_lon
            self.quad_weights = np.outer(w, np.full(n_lon, 2.0 * math.pi / n_lon))
            P, dP = _legendre_tables(L, x)
            scale = np.full(L + 1, math.sqrt(2.0))
            scale[0] = 1.0
            tab = P * scale[None, None, :]
            tab_dt = dP * scale[None, None, :]
            # Contractions run as batched real matmuls over the order index;
            # keep the tables contiguous in the layouts those need.
            self._tab_mjl = np.ascontiguousarray(tab.transpose(2, 0, 1))
            self._tab_dt_mjl = np.ascontiguousarray(tab_dt.transpose(2, 0, 1))
            self._tab_mlj = np.ascontiguousarray(tab.transpose(2, 1, 0))
            st = self.sin_theta[:, None]
            self._directions = (st * np.cos(self.phi)[None, :],
                                st * np.sin(self.phi)[None, :],
                                np.broadcast_to(self.x[:, None], self.shape))
            _freeze(self.x, self.glw, self.theta, self.sin_theta, self.phi,
                    self.quad_weights, self._tab_mjl, self._tab_dt_mjl, self._tab_mlj,
                    *self._directions)
        self.size = total_coefficients(L, n)
        self._build_layout()

    # -- coefficient layout -------------------------------------------------

    def _build_layout(self) -> None:
        L, n = self.L_max, self.n
        degrees = np.empty(self.size, dtype=int)
        if n == 1:
            degrees[0] = 0
            for m in range(1, L + 1):
                degrees[2 * m - 1] = m
                degrees[2 * m] = m
        else:
            cos_l, cos_m, cos_flat = [], [], []
            sin_l, sin_m, sin_flat = [], [], []
            for l in range(L + 1):
                base = l * l
                degrees[base:base + 2 * l + 1] = l
                cos_l.append(l)
                cos_m.append(0)
                cos_flat.append(base)
                for m in range(1, l + 1):
                    cos_l.append(l)
                    cos_m.append(m)
                    cos_flat.append(base + 2 * m - 1)
                    sin_l.append(l)
                    sin_m.append(m)
                    sin_flat.append(base + 2 * m)
            self._cos_l = np.array(cos_l)
            self._cos_m = np.array(cos_m)
            self._cos_flat = np.array(cos_flat)
            self._sin_l = np.array(sin_l)
            self._sin_m = np.array(sin_m)
            self._sin_flat = np.array(sin_flat)
            _freeze(self._cos_l, self._cos_m, self._cos_flat,
                    self._sin_l, self._sin_m, self._sin_flat)
        self.degrees = degrees
        ell = np.arange(L + 1, dtype=float)
        self.laplace_factor = -(ell * (ell + n - 1))
        _freeze(self.degrees, self.laplace_factor)

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

    def _to_matrix(self, coeffs: np.ndarray) -> np.ndarray:
        """Flat real coefficients to the complex per-order container A[l, m]."""
        c = self._pad(coeffs)
        L = self.L_max
        if self.n == 1:
            A = np.zeros(L + 1, dtype=complex)
            A[0] = c[0]
            A.real[1:] = c[1::2]
            A.imag[1:] = -c[2::2]
            return A * self._norm
        A = np.zeros((L + 1, L + 1), dtype=complex)
        A.real[self._cos_l, self._cos_m] = c[self._cos_flat]
        A.imag[self._sin_l, self._sin_m] = -c[self._sin_flat]
        return A

    def _from_matrix(self, A: np.ndarray) -> np.ndarray:
        c = np.empty(self.size)
        if self.n == 1:
            B = A / self._norm
            c[0] = B.real[0]
            c[1::2] = B.real[1:]
            c[2::2] = -B.imag[1:]
            return c
        c[self._cos_flat] = A.real[self._cos_l, self._cos_m]
        c[self._sin_flat] = -A.imag[self._sin_l, self._sin_m]
        return c

    # -- transforms -----------------------------------------------------------

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Project grid samples onto the orthonormal basis (unit-sphere inner product)."""
        v = np.asarray(values, dtype=float)
        if v.shape != self.shape:
            raise GridError(f"field shape {v.shape} does not match grid shape {self.shape}")
        L = self.L_max
        if self.n == 1:
            C = np.fft.rfft(v)[:L + 1]
            # One norm factor from the basis member, one from the projection.
            A = (2.0 * math.pi / self.n_theta) * self._norm ** 2 * C
            return self._from_matrix(A)
        C = np.fft.rfft(v, axis=1)[:, :L + 1]
        W = self.glw[:, None] * C
        Wm = np.empty((L + 1, self.n_lat, 2))
        Wm[:, :, 0] = W.real.T
        Wm[:, :, 1] = W.imag.T
        prod = np.matmul(self._tab_mlj, Wm)
        A = (2.0 * math.pi / self.n_lon) * (prod[:, :, 0] + 1j * prod[:, :, 1]).T
        return self._from_matrix(A)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Evaluate a coefficient vector on the grid."""
        return self._inverse(self._to_matrix(coeffs)[None, ...])[0]

    def _inverse(self, A_batch: np.ndarray) -> np.ndarray:
        """Batched inverse transform of complex containers, shape (k, L+1[, L+1])."""
        L = self.L_max
        if self.n == 1:
            k = A_batch.shape[0]
            F = np.zeros((k, self.n_theta // 2 + 1), dtype=complex)
            F[:, 1:L + 1] = A_batch[:, 1:] * (self.n_theta / 2.0)
            F[:, 0] = A_batch[:, 0] * self.n_theta
            return np.fft.irfft(F, n=self.n_theta, axis=1)
        D = self._contract(self._tab_mjl, A_batch)
        return self._assemble_longitude(D)

    def _contract(self, tab_mjl: np.ndarray, A_batch: np.ndarray) -> np.ndarray:
        """Real batched matmul of a (m, j, l) table with k complex coefficient sets."""
        k = A_batch.shape[0]
        L1 = self.L_max + 1
        B = np.empty((L1, L1, 2 * k))
        T = A_batch.transpose(2, 1, 0)
        B[:, :, :k] = T.real
        B[:, :, k:] = T.imag
        out = np.matmul(tab_mjl, B)
        D = out[:, :, :k] + 1j * out[:, :, k:]
        return D.transpose(2, 1, 0)

    def _assemble_longitude(self, D: np.ndarray) -> np.ndarray:
        L = self.L_max
        k = D.shape[0]
        F = np.zeros((k, self.n_lat, self.n_lon // 2 + 1), dtype=complex)
        F[:, :, 1:L + 1] = D[:, :, 1:] * (self.n_lon / 2.0)
        F[:, :, 0] = D[:, :, 0] * self.n_lon
        return np.fft.irfft(F, n=self.n_lon, axis=2)

    def synthesize_derivs(self, coeffs: np.ndarray) -> dict[str, np.ndarray]:
        """Field together with the surface derivatives the geometry needs.

        Keys for n = 1: u, ut, utt.  Keys for n = 2: u, ut, up, utt, utp,
        upp, lap.  All derivatives are taken spectrally; the second
        theta-derivative is recovered from the Laplacian identity so no
        second derivative table is required.
        """
        A = self._to_matrix(coeffs)
        L = self.L_max
        if self.n == 1:
            m = np.arange(L + 1, dtype=float)
            batch = np.stack([A, 1j * m * A, -(m * m) * A])
            u, ut, utt = self._inverse(batch)
            return {"u": u, "ut": ut, "utt": utt}
        m = np.arange(L + 1, dtype=float)[None, :]
        lap = self.laplace_factor[:, None]
        Am = (1j * m) * A
        batch_t = np.stack([A, Am, -(m * m) * A, lap * A])
        batch_dt = np.stack([A, Am])
        D = self._contract(self._tab_mjl, batch_t)
        Dd = self._contract(self._tab_dt_mjl, batch_dt)
        u, up, upp, lap_u, ut, utp = self._assemble_longitude(np.concatenate([D, Dd]))
        st = self.sin_theta[:, None]
        ct = self.x[:, None]
        utt = lap_u - (ct / st) * ut - upp / (st * st)
        return {"u": u, "ut": ut, "up": up, "utt": utt, "utp": utp,
                "upp": upp, "lap": lap_u}

    # -- quadrature and geometry helpers ---------------------------------------

    def integrate(self, values: np.ndarray) -> float:
        """Integral against the unit-sphere measure."""
        return float(np.sum(self.quad_weights * values))

    def mean(self, values: np.ndarray) -> float:
        return self.integrate(values) / SPHERE_AREA[self.n]

    def directions(self) -> tuple[np.ndarray, ...]:
        """Components of the unit position vector at the nodes (read-only)."""
        return self._directions

    def basis_function(self, l: int, p: int) -> np.ndarray:
        e = np.zeros(self.size)
        e[self.flat_index(l, p)] = 1.0
        return self.synthesize(e)

    def mode_energies(self, coeffs: np.ndarray) -> np.ndarray:
        """Sum of squared coefficients per degree, length L_max + 1."""
        c = self._pad(coeffs)
        return np.bincount(self.degrees, weights=c * c, minlength=self.L_max + 1)

    def __repr__(self) -> str:
        nodes = "x".join(str(s) for s in self.shape)
        return f"Grid(n={self.n}, L_max={self.L_max}, nodes={nodes})"


def build_grid(n: int, L_max: int, oversample: float = 2.0) -> Grid:
    return Grid(n, L_max, oversample)


def analyze(values: np.ndarray, grid: Grid) -> np.ndarray:
    return grid.analyze(values)


def synthesize(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    return grid.synthesize(coeffs)


def quadrature(values: np.ndarray, grid: Grid, R: float = 1.0) -> float:
    """Integral against the radius-R sphere measure."""
    return R ** grid.n * grid.integrate(values)


def mean_value(values: np.ndarray, grid: Grid) -> float:
    """Average over the sphere; independent of the radius."""
    return grid.mean(values)


def laplace_beltrami(values: np.ndarray, grid: Grid, R: float = 1.0) -> np.ndarray:
    c = grid.analyze(values)
    return grid.synthesize(c * grid.laplace_factor[grid.degrees] / (R * R))


def gradient_sq(values: np.ndarray, grid: Grid, R: float = 1.0) -> np.ndarray:
    """Squared norm of the surface gradient on the radius-R sphere."""
    d = grid.synthesize_derivs(grid.analyze(values))
    if grid.n == 1:
        return d["ut"] ** 2 / (R * R)
    st = grid.sin_theta[:, None]
    return (d["ut"] ** 2 + (d["up"] / st) ** 2) / (R * R)


def project_center(values: np.ndarray, grid: Grid, R: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Split a field into its lowest modes and the rest.

    Returns the n+2 coefficients of the constant and degree-1 part in the
    basis orthonormal on the radius-R sphere (so they scale like R^(n/2)
    relative to the unit-sphere coefficients), together with the remainder
    field.  The split is exact: synthesizing the low part and adding the
    remainder reproduces the input.
    """
    c = grid.analyze(values)
    nlow = grid.n + 2
    low = np.zeros(grid.size)
    low[:nlow] = c[:nlow]
    residual = values - grid.synthesize(low)
    return R ** (grid.n / 2.0) * c[:nlow], residual


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
            v = np.asarray(values, dtype=float)
            if v.shape != grid.shape:
                raise GridError(f"field shape {v.shape} does not match grid shape {grid.shape}")
            self.values = v.copy()
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

    def admissible(self) -> bool:
        return bool(np.all(np.isfinite(self.values))) and self.min_radius() > 0.0

    def sup_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __repr__(self) -> str:
        return f"RadialField(R={self.R}, sup|rho|={self.sup_abs():.3e}, {self.grid!r})"
