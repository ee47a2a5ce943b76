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
the identity).  With those ghosts every interior stencil is plain second-order
central differencing; there are no one-sided formulas anywhere.

Covariant θφ-chart Hessians use the sphere Christoffels
Γ^θ_{φφ} = -sinθ cosθ and Γ^φ_{θφ} = cotθ.

The same ghosts define the discrete Laplace–Beltrami operator

    L f = δ_θθ f + (n-1) cotθ δ_θ f + δ_φφ f / sin²θ,

whose φ-Fourier modes are tridiagonal in θ; factor_shifted_laplacian inverts
I - a L - z with one coefficient pair per latitude row.

Per-node text tables live here too: write_node_table formats a table one
latitude row at a time (the field CSV and `starflow curvature`'s table use
it), and write_field_csv / read_field_csv round-trip a field exactly.
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
    "grad",
    "grad_norm_sq",
    "covariant_hessian",
    "factor_shifted_laplacian",
    "write_node_table",
    "write_field_csv",
    "read_field_csv",
]

FIELD_CSV_MAGIC = "starflow-field-v1"


@dataclass
class Grid:
    """Nodes, spacings, trig tables, Cartesian frames and the φ-mode stencil
    of the Laplace–Beltrami operator; treat as immutable.  Two grids are
    equal when mode, n, m_theta and m_phi are; the rest derives from them."""

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
        # Cartesian frames (..., 3): radial direction ξ and unit chart
        # directions ê_θ, ê_φ; axisym profiles lie in the xz-plane (φ = 0)
        phi = self.phi if self.mode == "full_s2" else np.zeros(1)
        sp, cp = np.sin(phi), np.cos(phi)

        def frame(*cols):
            return np.stack([np.broadcast_to(c, self.shape) for c in cols], axis=-1)

        self.xi = frame(st * cp, st * sp, ct)
        self.e_theta = frame(ct * cp, ct * sp, -st)
        self.e_phi = frame(-sp, cp, 0.0)
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
        return int(np.prod(self.shape))


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
    """Append one ghost row beyond each pole.

    Row -1 mirrors row 0 across the north pole, row m_theta mirrors the last
    row across the south pole; on full_s2 the mirrored rows are rolled by half
    a period in φ, which is what stepping over a pole does to the meridian.
    """
    f = _check_shape(grid, f)
    if grid.mode == "axisym":
        return np.concatenate(([f[0]], f, [f[-1]]))
    half = grid.m_phi // 2
    north = np.roll(f[0], half)[None, :]
    south = np.roll(f[-1], half)[None, :]
    return np.concatenate((north, f, south), axis=0)


def derivatives(grid: Grid, f: np.ndarray) -> tuple[np.ndarray, ...]:
    """Chart gradient and covariant Hessian of f from one ghost padding.

    Returns (∂_θ f, ∂_φ f, f_{;θθ}, f_{;θφ}, f_{;φφ}); grad and
    covariant_hessian document the two halves.
    """
    f = _check_shape(grid, f)
    p = pad_theta(grid, f)
    dt = grid.dtheta
    f_tt = (p[2:] - 2.0 * f + p[:-2]) / (dt * dt)
    f_t = (p[2:] - p[:-2]) / (2.0 * dt)
    if grid.mode == "axisym":
        h_pp = grid.sin_theta * grid.cos_theta * f_t
        return f_t, np.zeros_like(f), f_tt, np.zeros_like(f), h_pp
    dp = grid.dphi
    f_e, f_w = np.roll(f, -1, axis=1), np.roll(f, 1, axis=1)
    f_p = (f_e - f_w) / (2.0 * dp)
    f_pp = (f_e - 2.0 * f + f_w) / (dp * dp)
    f_tp = (np.roll(f_t, -1, axis=1) - np.roll(f_t, 1, axis=1)) / (2.0 * dp)
    h_tp = f_tp - grid.cot_theta * f_p
    h_pp = f_pp + grid.sin_theta * grid.cos_theta * f_t
    return f_t, f_p, f_tt, h_tp, h_pp


def grad(grid: Grid, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chart partials (∂_θ f, ∂_φ f) by central differences.

    The φ component is identically zero on axisym grids.
    """
    return derivatives(grid, f)[:2]


def grad_norm_sq(grid: Grid, f_t: np.ndarray, f_p: np.ndarray) -> np.ndarray:
    """|Df|² in the round chart metric: f_θ² + f_φ²/sin²θ."""
    if grid.mode == "axisym":
        return f_t * f_t
    return f_t * f_t + (f_p / grid.sin_theta) ** 2


def covariant_hessian(
    grid: Grid, f: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Covariant chart Hessian (f_{;θθ}, f_{;θφ}, f_{;φφ}) on the round sphere.

        f_{;θθ} = ∂²_θ f
        f_{;θφ} = ∂_θ∂_φ f - cotθ ∂_φ f
        f_{;φφ} = ∂²_φ f + sinθ cosθ ∂_θ f

    Axisym grids return the same triple with ∂_φ terms dropped; the φφ slot is
    then sinθ cosθ ∂_θ f, the S² chart value shared by every parallel direction.
    """
    return derivatives(grid, f)[2:]


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
    while s < grid.m_theta:
        # add alpha times row i - s and beta times row i + s to row i
        alpha = lo / diag[:-s]
        beta = up / diag[s:]
        diag[s:] -= alpha * up
        diag[:-s] -= beta * lo
        levels.append((s, alpha, beta))
        lo, up = alpha[s:] * lo[:-s], beta[:-s] * up[s:]
        s *= 2

    def solve(rhs: np.ndarray) -> np.ndarray:
        rhs = _check_shape(grid, rhs)
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
        fh.write(
            f"# {magic} mode={grid.mode} n={grid.n}"
            f" m_theta={grid.m_theta} m_phi={grid.m_phi}\n"
        )
        fh.write(",".join(names + list(columns)) + "\r\n")
        for i, angles in enumerate(blocks):
            cells = angles + [map(repr, c[i].tolist()) for c in planes]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def write_field_csv(path, grid: Grid, values: np.ndarray) -> None:
    """Dump a field as CSV with a metadata comment line for reconstruction."""
    write_node_table(path, grid, FIELD_CSV_MAGIC, {"value": _check_shape(grid, values)})


def read_field_csv(path) -> tuple[Grid, np.ndarray]:
    """Rebuild (grid, values) from a file written by write_field_csv."""
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if not header.startswith(f"# {FIELD_CSV_MAGIC}"):
            raise ValueError(f"not a {FIELD_CSV_MAGIC} file: {path}")
        meta = dict(tok.split("=") for tok in header.split()[2:])
        missing = [k for k in ("mode", "n", "m_theta", "m_phi") if k not in meta]
        if missing:
            raise ValueError(f"header of {path} lacks {', '.join(missing)}")
        grid = Grid(
            mode=meta["mode"],
            n=int(meta["n"]),
            m_theta=int(meta["m_theta"]),
            m_phi=int(meta["m_phi"]),
        )
        expect_cols = 2 if grid.mode == "axisym" else 3
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
        raise ValueError(
            f"expected {grid.node_count} rows, found {len(values)} in {path}"
        )
    return grid, np.reshape(values, grid.shape)
