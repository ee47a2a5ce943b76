"""Cell-centered latitude grids on the sphere and their difference stencils.

Nodes sit at θ_i = (i + 1/2)Δθ with Δθ = π/m_theta, so neither pole carries a
node and the chart metric e = dθ² + sin²θ dφ² stays invertible on the grid.
Two layouts are supported:

- ``axisym``: profiles γ(θ) on S^n that are rotation-invariant about the polar
  axis; a single θ column represents the whole sphere.
- ``full_s2``: the full (θ, φ) chart of S², φ_j = jΔφ, Δφ = 2π/m_phi, with
  m_phi even.

Crossing a pole lands on the antipodal meridian, so θ-ghost rows are filled by
the mirrored row shifted half a period in φ (for axisym profiles the shift is
the identity); on full_s2 one φ-ghost column on each side wraps periodically.
Each grid keeps the flat gather index of that padding (Grid.pad_index), so a
field is padded by one fancy-indexing read, and every stencil is a slice of
the padded array: plain second-order central differencing, with no one-sided
formulas anywhere.

Covariant θφ-chart Hessians use the sphere Christoffels
Γ^θ_{φφ} = -sinθ cosθ and Γ^φ_{θφ} = cotθ.

The same ghosts define the discrete Laplace–Beltrami operator

    L f = δ_θθ f + (n-1) cotθ δ_θ f + δ_φφ f / sin²θ,

whose φ-Fourier modes are tridiagonal in θ; factor_shifted_laplacian inverts
I - a L - z with one coefficient pair per latitude row.

Per-node text tables live here too: write_node_table formats a table one
latitude row at a time (the field CSV and `starflow curvature`'s table use
it), and write_field_csv / read_field_csv round-trip a field exactly, read
on a grid the caller already has, whose version line the file must carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "axisym_grid",
    "full_s2_grid",
    "pad_theta",
    "derivatives",
    "grad_norm_sq",
    "factor_shifted_laplacian",
    "write_node_table",
    "write_field_csv",
    "read_field_csv",
]

FIELD_CSV_MAGIC = "starflow-field-v1"
# checked before any table is allocated; 512 times the 64x128 benchmark grid
MAX_NODES = 2**22


@dataclass
class Grid:
    """Nodes, spacings, trig tables, the Cartesian node directions ξ, the
    ghost padding's gather index, a read-only zero field and the φ-mode
    stencil of the Laplace–Beltrami operator; treat as immutable.  Two grids are equal when
    mode, n, m_theta and m_phi are; the rest derives from them."""

    mode: str
    n: int
    m_theta: int
    m_phi: int
    theta: np.ndarray = field(init=False, compare=False, repr=False)
    phi: np.ndarray = field(init=False, compare=False, repr=False)
    dtheta: float = field(init=False, compare=False)
    dphi: float = field(default=0.0, init=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("axisym", "full_s2"):
            raise ValueError(f"unknown grid mode {self.mode!r}")
        if self.m_theta < 8:
            raise ValueError("m_theta must be at least 8")
        if self.n < 2:
            raise ValueError("hypersurface dimension n must be at least 2")
        if self.node_count > MAX_NODES:
            raise ValueError(f"grid of {self.node_count} nodes exceeds MAX_NODES = {MAX_NODES}")
        self.dtheta = np.pi / self.m_theta
        self.theta = (np.arange(self.m_theta) + 0.5) * self.dtheta
        if self.mode == "full_s2":
            if self.n != 2:
                raise ValueError("full_s2 grids are two-dimensional: n must be 2")
            if self.m_phi < 8 or self.m_phi % 2:
                raise ValueError("m_phi must be even and at least 8")
            self.dphi = 2.0 * np.pi / self.m_phi
            self.phi = np.arange(self.m_phi) * self.dphi
        else:
            if self.m_phi:
                raise ValueError("axisym grids carry no phi direction")
            self.phi = None
        # trig tables, broadcast-ready against field arrays
        st, ct = np.sin(self.theta), np.cos(self.theta)
        if self.mode == "full_s2":
            st, ct = st[:, None], ct[:, None]
        self.sin_theta = st
        self.cos_theta = ct
        self.cot_theta = ct / st
        self.sin_cos = st * ct
        self.zeros = np.zeros(self.shape)
        self.zeros.flags.writeable = False
        # flat gather index of pad_theta's padding: the pole rows mirrored
        # half a period on in φ, and on full_s2 each row wrapped one column
        rows = np.r_[0, np.arange(self.m_theta), self.m_theta - 1]
        self.pad_index = rows
        if self.mode == "full_s2":
            mp = self.m_phi
            shift = np.r_[mp // 2, np.zeros(self.m_theta, dtype=int), mp // 2]
            cols = np.arange(-1, mp + 1) + shift[:, None]
            self.pad_index = rows[:, None] * mp + cols % mp
        # Cartesian node directions ξ (..., 3); axisym profiles lie in the
        # xz-plane (φ = 0)
        phi = self.phi if self.mode == "full_s2" else np.zeros(1)
        cols = st * np.cos(phi), st * np.sin(phi), ct
        self.xi = np.stack([np.broadcast_to(c, self.shape) for c in cols], axis=-1)
        self._laplacian_modes()

    def _laplacian_modes(self):
        """L on φ-Fourier mode k = 0..m_phi/2 (only k = 0 on axisym) as a
        tridiagonal matrix in θ: row i reads lap_lower_i f_{i-1} +
        lap_diag_{ik} f_i + lap_upper_i f_{i+1}.

        Mode k of a θ-ghost row is (-1)^k times its mirrored row, because the
        half-period roll multiplies mode k by e^{-iπk}; that ghost is folded
        into the diagonal of the two pole rows.
        """
        theta = self.theta
        inv2 = 1.0 / (self.dtheta * self.dtheta)
        drift = (self.n - 1) / np.tan(theta) / (2.0 * self.dtheta)
        lower, upper = inv2 - drift, inv2 + drift
        if self.mode == "full_s2":
            k = np.arange(self.m_phi // 2 + 1)
            # -δ_φφ / sin²θ on mode k: 4 sin²(πk/m_phi) / (Δφ sinθ)²
            symbol = 4.0 * np.sin(np.pi * k / self.m_phi) ** 2
            phi_term = symbol[None, :] / (self.dphi * np.sin(theta)[:, None]) ** 2
        else:
            k = np.zeros(1)
            phi_term = np.zeros((self.m_theta, 1))
        ghost = np.where(k % 2 == 1, -1.0, 1.0)
        diag = -2.0 * inv2 - phi_term
        diag[0] += ghost * lower[0]
        diag[-1] += ghost * upper[-1]
        lower[0] = upper[-1] = 0.0
        self.lap_lower, self.lap_diag, self.lap_upper = lower, diag, upper

    @property
    def shape(self) -> tuple:
        if self.mode == "full_s2":
            return (self.m_theta, self.m_phi)
        return (self.m_theta,)

    @property
    def node_count(self) -> int:
        return self.m_theta * (self.m_phi if self.mode == "full_s2" else 1)


def axisym_grid(n: int, m_theta: int) -> Grid:
    """Rotation-invariant profile grid on S^n."""
    return Grid(mode="axisym", n=n, m_theta=m_theta, m_phi=0)


def full_s2_grid(m_theta: int, m_phi: int) -> Grid:
    """Full (θ, φ) chart of S²."""
    return Grid(mode="full_s2", n=2, m_theta=m_theta, m_phi=m_phi)


def _check_shape(grid: Grid, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != grid.shape:
        raise ValueError(f"field shape {f.shape} does not match grid {grid.shape}")
    return f


def pad_theta(grid: Grid, f: np.ndarray) -> np.ndarray:
    """f, of the grid's shape, with one ghost row beyond each pole and, on
    full_s2, one ghost column on each side in φ; one gather by grid.pad_index.

    Row 0 mirrors f's first row across the north pole and row m_theta + 1 its
    last row across the south pole; on full_s2 the mirrored rows are shifted
    half a period in φ, which is what stepping over a pole does to the
    meridian.  Column 0 repeats f's last column and column m_phi + 1 its
    first, ghost rows included.
    """
    return f.ravel()[grid.pad_index]


def derivatives(grid: Grid, f: np.ndarray) -> tuple[np.ndarray, ...]:
    """Chart gradient and covariant Hessian of f from one ghost padding.

    Returns (∂_θ f, ∂_φ f, f_{;θθ}, f_{;θφ}, f_{;φφ}), central differences of

        f_{;θθ} = ∂²_θ f
        f_{;θφ} = ∂_θ∂_φ f - cotθ ∂_φ f
        f_{;φφ} = ∂²_φ f + sinθ cosθ ∂_θ f

    each read as slices of pad_theta(grid, f).  On axisym grids every ∂_φ
    term is zero: ∂_φ f and f_{;θφ} are the grid's shared read-only zeros,
    and the φφ slot is sinθ cosθ ∂_θ f, the S² chart value shared by every
    parallel direction.
    """
    f = _check_shape(grid, f)
    p = pad_theta(grid, f)
    dt = grid.dtheta
    if grid.mode == "axisym":
        f_tt = (p[2:] - 2.0 * f + p[:-2]) / (dt * dt)
        f_t = (p[2:] - p[:-2]) / (2.0 * dt)
        return f_t, grid.zeros, f_tt, grid.zeros, grid.sin_cos * f_t
    dp = grid.dphi
    north, south = p[:-2], p[2:]
    f_tt = (south[:, 1:-1] - 2.0 * f + north[:, 1:-1]) / (dt * dt)
    # ∂_θ f on the φ-padded columns, so ∂_θ∂_φ f is a slice of it too
    f_t_wide = (south - north) / (2.0 * dt)
    f_t = f_t_wide[:, 1:-1]
    f_e, f_w = p[1:-1, 2:], p[1:-1, :-2]
    f_p = (f_e - f_w) / (2.0 * dp)
    f_pp = (f_e - 2.0 * f + f_w) / (dp * dp)
    f_tp = (f_t_wide[:, 2:] - f_t_wide[:, :-2]) / (2.0 * dp)
    h_tp = f_tp - grid.cot_theta * f_p
    h_pp = f_pp + grid.sin_cos * f_t
    return f_t, f_p, f_tt, h_tp, h_pp


def grad_norm_sq(grid: Grid, f_t: np.ndarray, f_p: np.ndarray) -> np.ndarray:
    """|Df|² in the round chart metric: f_θ² + f_φ²/sin²θ."""
    if grid.mode == "axisym":
        return f_t * f_t
    return f_t * f_t + (f_p / grid.sin_theta) ** 2


def factor_shifted_laplacian(grid: Grid, a: np.ndarray, z: np.ndarray):
    """Factor M = I - a_i L - z_i once and return the solver rhs ↦ M⁻¹ rhs.

    a and z hold one value per latitude row i, a >= 0 and z <= 0, so M is
    strictly diagonally dominant for n <= 4.  An rfft in φ splits M into one
    tridiagonal system in θ per φ-mode (axisym grids have only mode 0).  Each
    is reduced by parallel cyclic reduction: log2(m_theta) levels, each
    vectorised over rows and modes, whose multipliers are kept so that every
    further right-hand side costs two shifted multiply-adds per level.
    """
    a = np.asarray(a, dtype=float)[:, None]
    diag = 1.0 - np.asarray(z, dtype=float)[:, None] - a * grid.lap_diag
    # minus the couplings of row i to rows i - s and i + s, kept only for the
    # rows that have such a neighbour: lo[k] is row s + k, up[k] is row k
    lo = (a * grid.lap_lower[:, None])[1:]
    up = (a * grid.lap_upper[:, None])[:-1]
    levels = []
    s = 1
    while True:  # m_theta >= 8, so there are at least three levels
        # add alpha times row i - s and beta times row i + s to row i
        alpha = lo / diag[:-s]
        beta = up / diag[s:]
        diag[s:] -= alpha * up
        diag[:-s] -= beta * lo
        levels.append((s, alpha, beta))
        if 2 * s >= grid.m_theta:
            break  # a further level's couplings would never be read
        lo, up = alpha[s:] * lo[:-s], beta[:-s] * up[s:]
        s *= 2

    def solve(rhs: np.ndarray) -> np.ndarray:
        if rhs.shape != grid.shape:
            raise ValueError(f"field shape {rhs.shape} does not match grid {grid.shape}")
        d = rhs[:, None] if grid.mode == "axisym" else np.fft.rfft(rhs, axis=1)
        for s, alpha, beta in levels:
            nxt = d.copy()
            nxt[s:] += alpha * d[:-s]
            nxt[:-s] += beta * d[s:]
            d = nxt
        d = d / diag
        if grid.mode == "axisym":
            return d[:, 0]
        return np.fft.irfft(d, n=grid.m_phi, axis=1)

    return solve


# ---------------------------------------------------------------------------
# per-node CSV tables and the field CSV round trip


def _version_line(grid: Grid, magic: str) -> str:
    """The first line of a node table on grid, without its LF."""
    return f"# {magic} mode={grid.mode} n={grid.n} m_theta={grid.m_theta} m_phi={grid.m_phi}"


def write_node_table(path, grid: Grid, magic: str, columns: dict) -> None:
    """Write one CSV row per node: θ (and φ on full_s2), then each column
    (name → array of the grid's shape) in order.

    A version line "# MAGIC mode=.. n=.. m_theta=.. m_phi=.." ends in LF; the
    column header and node rows end in CRLF, as csv.writer ends them.  Float
    columns are written with repr of the Python float, the shortest text that
    round-trips the value, and integer columns as integers.  The table is
    built and written one latitude row at a time (an axisym table, one node
    per latitude, in one piece).
    """
    theta = list(map(repr, grid.theta.tolist()))
    if grid.mode == "axisym":
        names, blocks = ["theta"], [[theta]]
        planes = [np.reshape(c, (1, -1)) for c in columns.values()]
    else:
        phi = list(map(repr, grid.phi.tolist()))
        names, blocks = ["theta", "phi"], ([[t] * grid.m_phi, phi] for t in theta)
        planes = [np.reshape(c, grid.shape) for c in columns.values()]
    with open(path, "w", newline="") as fh:
        fh.write(_version_line(grid, magic) + "\n")
        fh.write(",".join(names + list(columns)) + "\r\n")
        for i, angles in enumerate(blocks):
            cells = angles + [map(repr, c[i].tolist()) for c in planes]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def write_field_csv(path, grid: Grid, values: np.ndarray) -> None:
    """Dump a field as CSV with a metadata comment line for reconstruction."""
    write_node_table(path, grid, FIELD_CSV_MAGIC, {"value": _check_shape(grid, values)})


def read_field_csv(path, grid: Grid) -> np.ndarray:
    """The values of a field that write_field_csv wrote on grid.

    The file's first line must be exactly the version line write_field_csv
    writes for grid, and one row must follow the column header per node.
    """
    expected = _version_line(grid, FIELD_CSV_MAGIC)
    expect_cols = 2 if grid.mode == "axisym" else 3
    with open(path, "r") as fh:
        header = fh.readline().rstrip("\n")
        if header != expected:
            raise ValueError(f"{path} begins {header!r}; a field on this grid begins {expected!r}")
        next((row for row in fh if row != "\n"), None)  # column header
        values = []
        for row in fh:
            cells = row.split(",")
            if len(cells) != expect_cols:
                if row == "\n":
                    continue
                raise ValueError(f"malformed row {row.rstrip()!r}")
            values.append(float(cells[-1]))
    if len(values) != grid.node_count:
        raise ValueError(f"expected {grid.node_count} rows, found {len(values)} in {path}")
    return np.reshape(values, grid.shape)
