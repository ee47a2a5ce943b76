"""Geometry of star-shaped radial graphs over the sphere.

A positive radial profile ρ = e^γ over S^n describes the hypersurface
X(x) = ρ(x)·x.  With b and H the gradient and covariant Hessian of γ in the
orthonormal frame (ê_θ, ê_φ/sinθ) (spheregrid.derivatives), and

    ω² = 1 + |b|²,        u = ρ/ω   (support function ⟨X, ν⟩),

the induced metric and second fundamental form in that frame are

    g = ρ²(I + bbᵀ),        h = u(I + bbᵀ - H),

as in Guan, Li & Li (Duke Math. J. 161, 2012).  The principal curvatures κ
are the eigenvalues of the Weingarten map g⁻¹h = (I - P)/(ρω), where
P = (I + bbᵀ)⁻¹H = H - b(Hb)ᵀ/ω².  assemble() turns a γ field into κ, u, ρ
and ω at once; on full_s2 grids the per-node 2×2 eigenproblem of P is solved
in closed form, and axisym grids skip it entirely because the meridian and
parallel directions are already principal:

    κ_mer = (1 + b_θ² - H_θθ) / (ρ ω³),
    κ_par = (1 - H_φφ) / (ρ ω),     H_φφ = cotθ·∂_θγ,

the parallel value carrying multiplicity n-1.

The same frame gives the support identity ∇u = h(·, ∇Φ), Φ = ρ²/2, in closed
form: h g⁻¹ ρ²b = u(I + bbᵀ - H)b/ω², so it reads Du = u(b - Hb/ω²), and
support_identity_residual() checks it with no g, h or per-node solve.

Axisym states embed the meridian half-plane into the Cartesian xz-plane, so X
is a 3-vector in both modes, computed on demand since the flow never reads it.
All functions are pure; a GeometryState is a plain bundle of arrays that is
never mutated after construction.  assemble() builds a state without judging
it; star_shape_failure() alone decides whether it is a star-shaped graph.
"""

from typing import NamedTuple

import numpy as np

from .spheregrid import Grid, derivatives


class GeometryState(NamedTuple):
    """What the flow reads of one γ field.  Read-only by convention."""

    grid: Grid
    gamma: np.ndarray
    b_t: np.ndarray              # frame gradient b_θ = ∂_θγ
    b_p: np.ndarray              # frame gradient b_φ = ∂_φγ / sinθ (zero on axisym)
    rho: np.ndarray
    omega: np.ndarray
    u: np.ndarray
    grad_sq: np.ndarray          # |Dγ|² = |b|²
    kappa: np.ndarray            # (..., n), sorted descending per node

    @property
    def X(self) -> np.ndarray:
        """Cartesian position ρξ, shape (..., 3); computed on demand."""
        return self.rho[..., None] * self.grid.xi


def assemble(grid: Grid, gamma: np.ndarray) -> GeometryState:
    """Build the full geometric state of the graph ρ = e^γ.

    Raises ValueError on a field of the wrong shape only; whether the state
    is star-shaped is star_shape_failure's question.
    """
    gamma = np.asarray(gamma, dtype=float)

    b_t, b_p, h_tt, h_tp, h_pp = derivatives(grid, gamma)
    bt2 = b_t * b_t
    gsq = bt2 if grid.mode == "axisym" else bt2 + b_p * b_p
    w2 = 1.0 + gsq
    omega = np.sqrt(w2)
    rho = np.exp(gamma)
    u = rho / omega

    # κ_i is filled as one contiguous plane each, which the σ sweeps read.
    # It is allocated after its inputs: allocated first, at 64×128 it left
    # the temporaries at the heap top, which each call paged in again.
    if grid.mode == "axisym":
        # principal directions are the meridian and the parallels
        kappa_mer = (bt2 - h_tt + 1.0) / (rho * omega**3)
        kappa_par = (1.0 - h_pp) / (rho * omega)
        kappa = np.empty((grid.n,) + grid.shape)
        kappa[1:-1] = kappa_par
        np.maximum(kappa_mer, kappa_par, out=kappa[0])
        np.minimum(kappa_mer, kappa_par, out=kappa[-1])
    else:
        # the Weingarten map is (I - P)/(ρω) with P = H - b cᵀ, c = Hb/ω²;
        # its discriminant (P_θθ - P_φφ)² + 4 P_θφ P_φθ, unlike
        # trace² - 4 det, does not cancel at umbilics, where it is zero
        c_t = (h_tt * b_t + h_tp * b_p) / w2
        c_p = (h_tp * b_t + h_pp * b_p) / w2
        del w2
        p_tt = h_tt - b_t * c_t
        p_pp = h_pp - b_p * c_p
        del h_tt, h_pp
        cross = (h_tp - b_t * c_p) * (h_tp - b_p * c_t)
        del h_tp, c_t, c_p
        trace = 2.0 - p_tt - p_pp  # tr(I - P)
        p_diff = p_tt - p_pp
        del p_tt, p_pp
        root = np.sqrt(np.maximum(p_diff * p_diff + 4.0 * cross, 0.0))
        del p_diff, cross
        scale = 2.0 * rho * omega
        kappa = np.empty((grid.n,) + grid.shape)
        np.divide(trace + root, scale, out=kappa[0])
        np.divide(trace - root, scale, out=kappa[1])
    # the caller sees the (..., n) view
    kappa = kappa.transpose((*range(1, kappa.ndim), 0))

    return GeometryState(
        grid=grid,
        gamma=gamma,
        b_t=b_t,
        b_p=b_p,
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
    if (
        np.logical_and.reduce(np.isfinite(kappa), axis=None)
        and np.minimum.reduce(u, axis=None) > 0.0
        and np.maximum.reduce(u, axis=None) < np.inf
    ):
        return None
    ok = np.all(np.isfinite(kappa), axis=-1) & (u > 0.0) & (u < np.inf)
    node = tuple(int(i) for i in np.unravel_index(int(np.argmin(ok)), u.shape))
    values = ", ".join(f"{x:.6g}" for x in kappa[node])
    return f"not a star-shaped graph at node {node}: u = {u[node]:.6g}, kappa = ({values})"


def support_identity_residual(state: GeometryState) -> float:
    """Max-norm residual of Du = u(b - Hb/ω²), the frame form of
    ∇u = h(·, ∇Φ) with Φ = ρ²/2, over both frame components, with Du the
    frame gradient of u.  O(Δθ²) on smooth profiles.
    """
    du_t, du_p = derivatives(state.grid, state.u)[:2]
    b_t, b_p, h_tt, h_tp, h_pp = derivatives(state.grid, state.gamma)
    w2 = 1.0 + state.grad_sq
    res_t = du_t - state.u * (b_t - (h_tt * b_t + h_tp * b_p) / w2)
    res_p = du_p - state.u * (b_p - (h_tp * b_t + h_pp * b_p) / w2)
    return float(max(np.max(np.abs(res_t)), np.max(np.abs(res_p))))


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
