"""Geometry of star-shaped radial graphs over the sphere.

A positive radial profile ρ = e^γ over S^n describes the hypersurface
X(x) = ρ(x)·x.  Writing D for the round-chart derivative and

    ω² = 1 + |Dγ|²,        u = ρ/ω   (support function ⟨X, ν⟩),

the induced metric and second fundamental form in chart components are

    g_ij = ρ²(e_ij + γ_i γ_j),
    h_ij = (ρ/ω)(-γ_{;ij} + γ_i γ_j + e_ij),

with e the round metric and γ_{;ij} the covariant Hessian.  Principal
curvatures are the eigenvalues of the pencil (h, g).  assemble() turns a γ
field into all of these at once; on full_s2 grids the per-node 2×2
eigenproblems are solved in closed form, and axisym grids skip eigensolves
entirely because the meridian and parallel directions are already principal:

    κ_mer = (-γ'' + γ'² + 1) / (ρ ω³),
    κ_par = (1 - cotθ·γ') / (ρ ω),

the parallel value carrying multiplicity n-1.

Axisym states embed the meridian half-plane into the Cartesian xz-plane, so X
and ν are 3-vectors in both modes.  X, ν, g and h are computed on demand
(fundamental_forms() for g and h), since the flow itself never reads them.
All functions are pure; a GeometryState is a plain bundle of arrays that is
never mutated after construction.  assemble() builds a state without judging
it; star_shape_failure() alone decides whether it is a star-shaped graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spheregrid import Grid, derivatives, grad, grad_norm_sq

__all__ = [
    "GeometryState",
    "assemble",
    "star_shape_failure",
    "fundamental_forms",
    "support_identity_residual",
    "sphere_gap",
    "export_obj",
]


@dataclass
class GeometryState:
    """What the flow reads of one γ field.  Read-only by convention.

    g and h are not stored: fundamental_forms() rebuilds them on demand.
    """

    grid: Grid
    gamma: np.ndarray
    gamma_t: np.ndarray          # chart ∂_θ γ
    gamma_p: np.ndarray          # chart ∂_φ γ (zero on axisym)
    rho: np.ndarray
    omega: np.ndarray
    u: np.ndarray
    grad_sq: np.ndarray          # |Dγ|²
    kappa: np.ndarray            # (..., n), sorted descending per node

    @property
    def xi(self) -> np.ndarray:
        """Radial unit direction X/ρ, the grid's node direction."""
        return self.grid.xi

    @property
    def X(self) -> np.ndarray:
        """Cartesian position ρξ, shape (..., 3); computed on demand."""
        return self.rho[..., None] * self.grid.xi

    @property
    def nu(self) -> np.ndarray:
        """Outward unit normal (ξ - γ_θ ê_θ - (γ_φ/sinθ) ê_φ)/ω, on demand."""
        grid = self.grid
        b_t = self.gamma_t[..., None]
        b_p = (self.gamma_p / grid.sin_theta)[..., None]
        return (grid.xi - b_t * grid.e_theta - b_p * grid.e_phi) / self.omega[..., None]


def assemble(grid: Grid, gamma: np.ndarray) -> GeometryState:
    """Build the full geometric state of the graph ρ = e^γ.

    Raises ValueError on a field of the wrong shape only; whether the state
    is star-shaped is star_shape_failure's question.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != grid.shape:
        raise ValueError(f"gamma shape {gamma.shape} does not match grid {grid.shape}")

    g_t, g_p, h_cov_tt, h_cov_tp, h_cov_pp = derivatives(grid, gamma)
    gsq = grad_norm_sq(grid, g_t, g_p)
    omega = np.sqrt(1.0 + gsq)
    rho = np.exp(gamma)
    u = rho / omega

    if grid.mode == "axisym":
        # principal directions are the meridian and the parallels
        b_t = g_t
        kappa_mer = (-h_cov_tt + b_t * b_t + 1.0) / (rho * omega**3)
        kappa_par = (1.0 - grid.cot_theta * b_t) / (rho * omega)
        kappa = np.repeat(kappa_par[None], grid.n, axis=0)
        kappa[0] = np.maximum(kappa_mer, kappa_par)
        kappa[-1] = np.minimum(kappa_mer, kappa_par)
    else:
        rr = rho * rho
        g_tt, g_tp, g_pp, h_tt, h_tp, h_pp = _frame_forms(
            grid, rr, u, g_t, g_p, h_cov_tt, h_cov_tp, h_cov_pp
        )
        det_g = rr * rr * omega * omega
        trace = (g_pp * h_tt - 2.0 * g_tp * h_tp + g_tt * h_pp) / det_g
        # discriminant of A = g⁻¹h as (a_tt - a_pp)² + 4 a_tp a_pt: unlike
        # trace² - 4 det it does not cancel at umbilics, where it is zero
        a_diff = (g_pp * h_tt - g_tt * h_pp) / det_g
        a_tp = (g_pp * h_tp - g_tp * h_pp) / det_g
        a_pt = (g_tt * h_tp - g_tp * h_tt) / det_g
        disc = np.maximum(a_diff * a_diff + 4.0 * a_tp * a_pt, 0.0)
        root = np.sqrt(disc)
        kappa = np.stack([(trace + root) / 2.0, (trace - root) / 2.0])
    # κ_i is stored as one contiguous plane each, which the σ sweeps read
    kappa = np.moveaxis(kappa, 0, -1)

    return GeometryState(
        grid=grid,
        gamma=gamma,
        gamma_t=g_t,
        gamma_p=g_p,
        rho=rho,
        omega=omega,
        u=u,
        grad_sq=gsq,
        kappa=kappa,
    )


def star_shape_failure(state: GeometryState) -> str | None:
    """None when every κ and u of the state is finite and u > 0; otherwise
    the first node that fails, as an index over grid.shape, with its u and κ."""
    kappa, u = state.kappa, state.u
    if np.all(np.isfinite(kappa)) and np.min(u) > 0.0 and np.max(u) < np.inf:
        return None
    ok = np.all(np.isfinite(kappa), axis=-1) & (u > 0.0) & (u < np.inf)
    node = tuple(int(i) for i in np.unravel_index(int(np.argmin(ok)), u.shape))
    values = ", ".join(f"{x:.6g}" for x in kappa[node])
    return f"not a star-shaped graph at node {node}: u = {u[node]:.6g}, kappa = ({values})"


def _frame_forms(grid: Grid, rr, u, g_t, g_p, hess_tt, hess_tp, hess_pp):
    """(g_tt, g_tp, g_pp, h_tt, h_tp, h_pp) in the frame (ê_θ, ê_φ/sinθ).

    Components in that orthonormalized frame stay O(1) near the poles.  The
    inputs are ρ², u, and the chart gradient and covariant Hessian of γ.
    """
    st = grid.sin_theta
    b_t = g_t
    b_p = g_p / st
    return (
        rr * (1.0 + b_t * b_t),
        rr * (b_t * b_p),
        rr * (1.0 + b_p * b_p),
        u * (-hess_tt + b_t * b_t + 1.0),
        u * (-hess_tp / st + b_t * b_p),
        u * (-hess_pp / (st * st) + b_p * b_p + 1.0),
    )


def fundamental_forms(state: GeometryState) -> tuple[np.ndarray, np.ndarray]:
    """Metric g and second fundamental form h, each of shape (..., 2, 2).

    Both are written in the frame (ê_θ, ê_φ/sinθ).  On axisym grids the
    second direction is one of the n - 1 parallel ones and the cross terms
    vanish.  Rebuilt from γ on each call; the flow never reads them.
    """
    grid = state.grid
    g_t, g_p, *hess = derivatives(grid, state.gamma)
    tt, tp, pp, h_tt, h_tp, h_pp = _frame_forms(grid, state.rho**2, state.u, g_t, g_p, *hess)
    pair = grid.shape + (2, 2)
    g = np.stack([tt, tp, tp, pp], axis=-1).reshape(pair)
    h = np.stack([h_tt, h_tp, h_tp, h_pp], axis=-1).reshape(pair)
    return g, h


def support_identity_residual(state: GeometryState) -> float:
    """Max-norm residual of ∇u = h(·, ∇Φ) with Φ = ρ²/2.

    In chart components the identity reads ∂_i u = h_iᵏ ρ² γ_k; both sides
    are evaluated in the orthonormalized frame.  O(Δθ²) on smooth profiles.
    """
    grid = state.grid
    st = grid.sin_theta
    u_t, u_p = grad(grid, state.u)
    lhs = np.stack([u_t, u_p / st], axis=-1)
    phi = (state.rho**2)[..., None] * np.stack([state.gamma_t, state.gamma_p / st], axis=-1)
    g, h = fundamental_forms(state)
    rhs = h @ np.linalg.solve(g, phi[..., None])
    return float(np.max(np.abs(lhs - rhs[..., 0])))


def sphere_gap(state: GeometryState) -> float:
    """Relative radial spread (ρ_max - ρ_min)/ρ_mean; zero exactly on spheres."""
    r = state.rho
    return float((np.max(r) - np.min(r)) / np.mean(r))


def export_obj(path, state: GeometryState) -> None:
    """Write the surface as a Wavefront OBJ quad mesh (full_s2 grids only).

    Faces join adjacent latitude rows and wrap in φ; the two pole caps are
    left open since the grid carries no pole vertices.
    """
    grid = state.grid
    if grid.mode != "full_s2":
        raise ValueError("OBJ export needs a full_s2 state")
    m, mp = grid.m_theta, grid.m_phi
    j = np.arange(mp)
    # 1-based corners of the quads between latitude rows 0 and 1
    quad = np.stack([j, (j + 1) % mp, (j + 1) % mp + mp, j + mp], axis=1) + 1
    vertex_row, face_row = "v %.9g %.9g %.9g\n" * mp, "f %d %d %d %d\n" * mp
    with open(path, "w") as fh:
        fh.write("# starflow surface export\n")
        for row in state.X:
            fh.write(vertex_row % tuple(row.ravel().tolist()))
        for i in range(m - 1):
            fh.write(face_row % tuple((quad + i * mp).ravel().tolist()))
