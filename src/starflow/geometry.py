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
and ν are 3-vectors in both modes; both are computed on demand from the
grid's frames, since the flow itself never reads them.  All functions are
pure; a GeometryState is a plain bundle of arrays that is never mutated after
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spheregrid import Grid, derivatives, grad, grad_norm_sq

__all__ = [
    "DegenerateGeometry",
    "GeometryState",
    "assemble",
    "star_shape_check",
    "support_identity_residual",
    "sphere_gap",
    "export_obj",
]


class DegenerateGeometry(ValueError):
    """Raised when a profile produces a non-finite or non-star-shaped state."""


@dataclass
class GeometryState:
    """Everything assemble() derives from one γ field.  Read-only by convention.

    Chart 2×2 blocks (g, h, and the curvature work arrays) are stored in the
    orthonormalized frame (ê_θ, ê_φ/sinθ) so that components stay O(1) near
    the poles; axisym states put the meridian value in the *_tt slot and the
    parallel value in the *_pp slot with the cross term identically zero.
    """

    grid: Grid
    gamma: np.ndarray
    gamma_t: np.ndarray          # chart ∂_θ γ
    gamma_p: np.ndarray          # chart ∂_φ γ (zero on axisym)
    rho: np.ndarray
    omega: np.ndarray
    u: np.ndarray
    grad_sq: np.ndarray          # |Dγ|²
    g_tt: np.ndarray
    g_tp: np.ndarray
    g_pp: np.ndarray
    h_tt: np.ndarray
    h_tp: np.ndarray
    h_pp: np.ndarray
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


def assemble(grid: Grid, gamma: np.ndarray, *, check: bool = True) -> GeometryState:
    """Build the full geometric state of the graph ρ = e^γ.

    With check=True a non-finite field or a node with u <= 0 raises
    DegenerateGeometry; with check=False the state is returned as-is so the
    caller can classify the failure itself.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != grid.shape:
        raise ValueError(f"gamma shape {gamma.shape} does not match grid {grid.shape}")
    if check and not np.all(np.isfinite(gamma)):
        raise DegenerateGeometry("profile contains non-finite values")

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
        g_tt = rho * rho * omega * omega
        g_tp = np.zeros_like(rho)
        g_pp = rho * rho
        h_tt = u * (-h_cov_tt + b_t * b_t + 1.0)
        h_tp = np.zeros_like(rho)
        h_pp = u * (1.0 - grid.cot_theta * b_t)
        kappa = np.repeat(kappa_par[None], grid.n, axis=0)
        kappa[0] = np.maximum(kappa_mer, kappa_par)
        kappa[-1] = np.minimum(kappa_mer, kappa_par)
    else:
        # orthonormalized chart frame (ê_θ, ê_φ/sinθ)
        st = grid.sin_theta
        b_t = g_t
        b_p = g_p / st
        B_tt = h_cov_tt
        B_tp = h_cov_tp / st
        B_pp = h_cov_pp / (st * st)
        rr = rho * rho
        g_tt = rr * (1.0 + b_t * b_t)
        g_tp = rr * (b_t * b_p)
        g_pp = rr * (1.0 + b_p * b_p)
        h_tt = u * (-B_tt + b_t * b_t + 1.0)
        h_tp = u * (-B_tp + b_t * b_p)
        h_pp = u * (-B_pp + b_p * b_p + 1.0)
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

    state = GeometryState(
        grid=grid,
        gamma=gamma,
        gamma_t=g_t,
        gamma_p=g_p,
        rho=rho,
        omega=omega,
        u=u,
        grad_sq=gsq,
        g_tt=g_tt,
        g_tp=g_tp,
        g_pp=g_pp,
        h_tt=h_tt,
        h_tp=h_tp,
        h_pp=h_pp,
        kappa=kappa,
    )
    if check:
        if not np.all(np.isfinite(gamma)) or not np.all(np.isfinite(kappa)):
            raise DegenerateGeometry("non-finite values in assembled state")
        if np.any(u <= 0.0):
            raise DegenerateGeometry(
                f"graph is not star-shaped: min u = {float(np.min(u)):.6g}"
            )
    return state


def star_shape_check(grid: Grid, gamma: np.ndarray) -> tuple[bool, float]:
    """(all nodes star-shaped and finite, min u).  Never raises."""
    gamma = np.asarray(gamma, dtype=float)
    if not np.all(np.isfinite(gamma)):
        return False, float("nan")
    # a huge γ overflows e^γ or |Dγ|² to inf; the finite test below rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        g_t, g_p = grad(grid, gamma)
        omega = np.sqrt(1.0 + grad_norm_sq(grid, g_t, g_p))
        u = np.exp(gamma) / omega
        u_min = float(np.min(u))
    return bool(np.isfinite(u_min) and u_min > 0.0), u_min


def support_identity_residual(state: GeometryState) -> float:
    """Max-norm residual of ∇u = h(·, ∇Φ) with Φ = ρ²/2.

    In chart components the identity reads ∂_i u = h_iᵏ ρ² γ_k; both sides
    are evaluated in the orthonormalized frame.  O(Δθ²) on smooth profiles.
    """
    grid = state.grid
    u_t, u_p = grad(grid, state.u)
    phi_t = state.rho**2 * state.gamma_t
    if grid.mode == "axisym":
        inv_g_tt = 1.0 / state.g_tt
        rhs_t = state.h_tt * inv_g_tt * phi_t
        return float(np.max(np.abs(u_t - rhs_t)))
    st = grid.sin_theta
    lhs = np.stack([u_t, u_p / st], axis=-1)
    b_p = state.gamma_p / st
    phi = np.stack([phi_t, state.rho**2 * b_p], axis=-1)
    det_g = state.g_tt * state.g_pp - state.g_tp**2
    inv_tt = state.g_pp / det_g
    inv_tp = -state.g_tp / det_g
    inv_pp = state.g_tt / det_g
    w_t = inv_tt * phi[..., 0] + inv_tp * phi[..., 1]
    w_p = inv_tp * phi[..., 0] + inv_pp * phi[..., 1]
    rhs = np.stack(
        [state.h_tt * w_t + state.h_tp * w_p, state.h_tp * w_t + state.h_pp * w_p],
        axis=-1,
    )
    return float(np.max(np.abs(lhs - rhs)))


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
    verts = state.X.reshape(m * mp, 3)
    with open(path, "w") as fh:
        fh.write("# starflow surface export\n")
        for v in verts:
            fh.write(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        for i in range(m - 1):
            for j in range(mp):
                jn = (j + 1) % mp
                a = i * mp + j + 1
                b = i * mp + jn + 1
                c = (i + 1) * mp + jn + 1
                d = (i + 1) * mp + j + 1
                fh.write(f"f {a} {b} {c} {d}\n")
