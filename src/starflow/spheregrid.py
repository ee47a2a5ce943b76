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

Gradients and Hessians are returned in the orthonormal frame (ê_θ, ê_φ/sinθ);
the Hessian is the covariant one of the θφ chart, whose sphere Christoffels
are Γ^θ_{φφ} = -sinθ cosθ and Γ^φ_{θφ} = cotθ.

The same ghosts define the discrete Laplace–Beltrami operator

    L f = δ_θθ f + (n-1) cotθ δ_θ f + δ_φφ f / sin²θ,

whose φ-Fourier modes are tridiagonal in θ; factor_shifted_laplacian inverts
I - a L - z with one coefficient pair per latitude row: by a Thomas sweep in
Python floats on axisym grids, whose one system is too small to repay numpy's
per-call overhead, and by parallel cyclic reduction over all φ-modes at once
on full_s2 grids.

Every starflow table, history.csv included, is written by write_table and
read by read_table: an LF-terminated version line, then a column header and
rows ended by CRLF, cells joined and split at commas by hand, floats as
repr(float(x)) and integers as integers.  The reader checks the version line,
the header and each row's width.  write_node_table writes one row per node
(the field CSV and `starflow curvature`'s table), and write_field_csv /
read_field_csv round-trip a field exactly on a grid the caller already has.
"""

import math

import numpy as np

FIELD_CSV_MAGIC = "starflow-field-v1"
# checked before any table is allocated, against the node count and, on
# axisym grids, the n curvatures per node; 512 times the 64x128 benchmark grid
MAX_NODES = 2**22


class Grid:
    """Field shape and node count, nodes, spacings, trig tables, the
    Cartesian node directions ξ, the ghost padding's gather index, a read-only
    zero field and the φ-mode stencil of the Laplace–Beltrami operator, all
    set once when built; treat as immutable.  Two grids are equal when mode,
    n, m_theta and m_phi are; the rest derives from them."""

    mode: str
    n: int
    m_theta: int
    m_phi: int
    theta: np.ndarray
    phi: np.ndarray
    dtheta: float
    dphi: float

    def __init__(self, mode: str, n: int, m_theta: int, m_phi: int):
        self.mode, self.n, self.m_theta, self.m_phi = mode, n, m_theta, m_phi
        if self.mode not in ("axisym", "full_s2"):
            raise ValueError(f"unknown grid mode {self.mode!r}")
        if self.m_theta < 8:
            raise ValueError("m_theta must be at least 8")
        if self.n < 2:
            raise ValueError("hypersurface dimension n must be at least 2")
        self.shape = (self.m_theta, self.m_phi) if self.mode == "full_s2" else (self.m_theta,)
        self.node_count = math.prod(self.shape)
        if self.node_count > MAX_NODES:
            raise ValueError(f"grid of {self.node_count} nodes exceeds MAX_NODES = {MAX_NODES}")
        if self.mode == "axisym" and self.n * self.node_count > MAX_NODES:
            raise ValueError(
                f"hypersurface dimension n = {self.n} on {self.node_count} nodes needs "
                f"{self.n * self.node_count} curvatures, more than MAX_NODES = {MAX_NODES}"
            )
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
            self.dphi = 0.0
            self.phi = None
        # trig tables, broadcast-ready against field arrays
        st, ct = np.sin(self.theta), np.cos(self.theta)
        if self.mode == "full_s2":
            st, ct = st[:, None], ct[:, None]
        self.sin_theta = st
        self.cos_theta = ct
        self.cot_theta = ct / st
        # the arc 2 sinθ Δφ across a central φ-difference and the square of
        # the arc sinθ Δφ between φ-neighbours (zero on axisym grids)
        self.arc_2dphi = 2.0 * self.dphi * st
        self.arc_dphi_sq = (self.dphi * st) ** 2
        self.zeros = np.zeros(self.shape)
        self.zeros.flags.writeable = False
        # flat gather index of the ghost padding f.ravel()[pad_index]: rows 0
        # and m_theta + 1 mirror f's first and last rows across the poles,
        # on full_s2 half a period on in φ as stepping over a pole does, and
        # there columns 0 and m_phi + 1 wrap f's last and first, ghost rows too
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

    def __eq__(self, other):
        if type(other) is not Grid:
            return NotImplemented
        return (self.mode, self.n, self.m_theta, self.m_phi) == (
            other.mode, other.n, other.m_theta, other.m_phi)

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
            phi_term = symbol[None, :] / self.arc_dphi_sq
        else:
            k = np.zeros(1)
            phi_term = np.zeros((self.m_theta, 1))
        ghost = np.where(k % 2 == 1, -1.0, 1.0)
        diag = -2.0 * inv2 - phi_term
        diag[0] += ghost * lower[0]
        diag[-1] += ghost * upper[-1]
        lower[0] = upper[-1] = 0.0
        self.lap_lower, self.lap_diag, self.lap_upper = lower, diag, upper


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


def derivatives(grid: Grid, f: np.ndarray) -> tuple[np.ndarray, ...]:
    """Gradient b and Hessian H of f in the frame (ê_θ, ê_φ/sinθ), from one
    ghost padding.

    Returns (b_θ, b_φ, H_θθ, H_θφ, H_φφ), central differences of

        b_θ = ∂_θ f                 H_θθ = ∂²_θ f
        b_φ = ∂_φ f / sinθ          H_θφ = (∂_θ∂_φ f - cotθ ∂_φ f) / sinθ
                                    H_φφ = ∂²_φ f / sin²θ + cotθ ∂_θ f

    each read as slices of the padding f.ravel()[grid.pad_index]: the
    covariant θφ-chart Hessian f_{;ij} with the frame's 1/sinθ per φ index,
    so no caller needs the chart.  On axisym grids every ∂_φ term is zero:
    b_φ and H_θφ are the grid's shared read-only zeros, and H_φφ = cotθ ∂_θ f
    is the value shared by every parallel direction.
    """
    f = _check_shape(grid, f)
    p = f.ravel()[grid.pad_index]
    dt = grid.dtheta
    if grid.mode == "axisym":
        f_tt = (p[2:] - 2.0 * f + p[:-2]) / (dt * dt)
        f_t = (p[2:] - p[:-2]) / (2.0 * dt)
        return f_t, grid.zeros, f_tt, grid.zeros, grid.cot_theta * f_t
    north, south = p[:-2], p[2:]
    two_f = 2.0 * f
    f_tt = (south[:, 1:-1] - two_f + north[:, 1:-1]) / (dt * dt)
    # ∂_θ f on the φ-padded columns, so ∂_θ∂_φ f is a slice of it too
    f_t_wide = (south - north) / (2.0 * dt)
    f_t = f_t_wide[:, 1:-1]
    f_e, f_w = p[1:-1, 2:], p[1:-1, :-2]
    b_p = (f_e - f_w) / grid.arc_2dphi
    h_tp = (f_t_wide[:, 2:] - f_t_wide[:, :-2]) / grid.arc_2dphi - grid.cot_theta * b_p
    h_pp = (f_e - two_f + f_w) / grid.arc_dphi_sq + grid.cot_theta * f_t
    return f_t, b_p, f_tt, h_tp, h_pp


def factor_shifted_laplacian(grid: Grid, a: np.ndarray, z: np.ndarray):
    """Factor M = I - a_i L - z_i once and return the solver rhs ↦ M⁻¹ rhs.

    a and z hold one value per latitude row i, a >= 0 and z <= 0, so M is
    strictly diagonally dominant for n <= 4.  An rfft in φ splits M into one
    tridiagonal system in θ per φ-mode.  An axisym grid has only mode 0, a
    single system of m_theta rows, which _factor_sweep eliminates in Python
    floats: at that size a numpy call costs more than the arithmetic it
    carries.  A full_s2 grid has m_phi/2 + 1 systems, too many rows for a
    scalar loop, reduced together by parallel cyclic reduction (Hockney,
    J. ACM 12, 1965): log2(m_theta) levels, each vectorised over rows and
    modes, whose multipliers are kept so that every further right-hand side
    costs two shifted multiply-adds per level.
    """
    if grid.mode == "axisym":
        return _factor_sweep(grid, a, z)
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
        rhs = _check_shape(grid, rhs)
        d = np.fft.rfft(rhs, axis=1)
        for s, alpha, beta in levels:
            # both terms read the old d before either is added to it
            lo_part, up_part = alpha * d[:-s], beta * d[s:]
            d[s:] += lo_part
            d[:-s] += up_part
        return np.fft.irfft(d / diag, n=grid.m_phi, axis=1)

    return solve


def _factor_sweep(grid: Grid, a: np.ndarray, z: np.ndarray):
    """factor_shifted_laplacian on an axisym grid: Thomas elimination of the
    one tridiagonal system, one pass over its rows in Python floats, and a
    solver that makes one forward and one backward pass over rhs.tolist().

    Python raises on x / 0.0 where numpy returns inf, so a zero pivot (M
    singular, possible only outside a >= 0, z <= 0, n <= 4) is given the
    inverse inf: the solution is then non-finite, as with a NaN a or z or an
    infinite a, and the step that asked for it is rejected rather than ending
    the run.
    """
    a = np.asarray(a, dtype=float)
    # minus the couplings of row i to rows i - 1 and i + 1
    lower = (a * grid.lap_lower).tolist()
    upper = (a * grid.lap_upper).tolist()
    diag = (1.0 - np.asarray(z, dtype=float) - a * grid.lap_diag[:, 0]).tolist()
    # adding m_i = lo_i / p_{i-1} times the reduced row i - 1 to row i leaves
    # the pivot p_i on its diagonal; inv holds 1 / p_i
    mult, inv = [0.0], []
    p = diag[0]
    for lo, up, d in zip(lower[1:], upper, diag[1:]):
        r = 1.0 / p if p else math.inf
        inv.append(r)
        m = lo * r
        mult.append(m)
        p = d - m * up
    inv.append(1.0 / p if p else math.inf)
    backward = list(zip(upper[::-1], inv[::-1]))

    def solve(rhs: np.ndarray) -> np.ndarray:
        rhs = _check_shape(grid, rhs)
        y, acc = [], 0.0
        for f, m in zip(rhs.tolist(), mult):
            acc = f + m * acc
            y.append(acc)
        x, out = 0.0, []
        for yi, (up, r) in zip(reversed(y), backward):
            x = (yi + up * x) * r
            out.append(x)
        out.reverse()
        return np.array(out)

    return solve


# ---------------------------------------------------------------------------
# text tables: the one writer and reader, the node tables and the field CSV


def write_table(path, first_line: str, names, blocks) -> None:
    """Write first_line and an LF, then the column names and each row of
    each block, a sequence of cell strings that the caller formats, joined by
    commas and ended by CRLF, as csv.writer ends them."""
    with open(path, "w", newline="") as fh:
        fh.write(first_line + "\n" + ",".join(names) + "\r\n")
        for block in blocks:
            fh.write("\r\n".join([*map(",".join, block), ""]))


def read_table(path, first_line: str, names, what: str):
    """Stream the cells of each row of a write_table file.  Its first line
    must be first_line and its first non-blank line after that the names;
    blank lines are skipped, and a row of other than len(names) cells is
    refused.  Each refusal is a ValueError quoting the file's line and what
    the table should be, as in "a field on this grid"."""
    header, width = ",".join(names), len(names)
    with open(path) as fh:
        found = fh.readline().rstrip("\n")
        if found != first_line:
            raise ValueError(f"{path} begins {found!r}; {what} begins {first_line!r}")
        found = next((row for row in fh if row != "\n"), "").rstrip("\n")
        if found != header:
            raise ValueError(f"{path} has columns {found!r}; {what} has {header!r}")
        for row in fh:
            cells = row.split(",")
            if len(cells) != width:
                if row == "\n":
                    continue
                raise ValueError(f"row {row.rstrip()!r} has {len(cells)} cells, not {width}")
            yield cells


def _version_line(grid: Grid, magic: str) -> str:
    """The first line of a node table on grid, without its LF."""
    return f"# {magic} mode={grid.mode} n={grid.n} m_theta={grid.m_theta} m_phi={grid.m_phi}"


def write_node_table(path, grid: Grid, magic: str, columns: dict) -> None:
    """Write one row per node: θ (and φ on full_s2), then each column
    (name → array of the grid's shape) in order, under the version line
    "# MAGIC mode=.. n=.. m_theta=.. m_phi=..".

    Float columns are written with repr of the Python float, the shortest
    text that round-trips the value, and integer columns as integers.  Each
    write_table block is one latitude row, whose θ is formatted once (an
    axisym table, one node per latitude, is one block).
    """
    theta = list(map(repr, grid.theta.tolist()))
    if grid.mode == "axisym":
        names, angles = ["theta"], [[theta]]
        planes = [np.reshape(c, (1, -1)) for c in columns.values()]
    else:
        phi = list(map(repr, grid.phi.tolist()))
        names, angles = ["theta", "phi"], ([[t] * grid.m_phi, phi] for t in theta)
        planes = [np.reshape(c, grid.shape) for c in columns.values()]
    blocks = (zip(*a, *[map(repr, c[i].tolist()) for c in planes]) for i, a in enumerate(angles))
    write_table(path, _version_line(grid, magic), names + list(columns), blocks)


def write_field_csv(path, grid: Grid, values: np.ndarray) -> None:
    """Dump a field as CSV with a metadata comment line for reconstruction."""
    write_node_table(path, grid, FIELD_CSV_MAGIC, {"value": _check_shape(grid, values)})


def read_field_csv(path, grid: Grid) -> np.ndarray:
    """The values of a field that write_field_csv wrote on grid: the file
    must carry grid's version line and its columns, and one row per node."""
    names = ["theta", "value"] if grid.mode == "axisym" else ["theta", "phi", "value"]
    rows = read_table(path, _version_line(grid, FIELD_CSV_MAGIC), names, "a field on this grid")
    values = [float(cells[-1]) for cells in rows]
    if len(values) != grid.node_count:
        raise ValueError(f"expected {grid.node_count} rows, found {len(values)} in {path}")
    return np.reshape(values, grid.shape)
