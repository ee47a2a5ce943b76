"""Bitwise equality of the gathered stencils and κ assembly with the rolled ones.

The references below are the straightforward forms: θ-ghost rows built by
np.roll of the pole rows and a concatenate, φ neighbours and the mixed
derivative by np.roll along φ, the frame gradient b and Hessian H written
out term by term, and κ stacked or repeated per node and moved to the last
axis: on full_s2 the eigenvalues of the Weingarten map (I - P)/(ρω) with
P = H - b(Hb)ᵀ/ω², on axisym the meridian and parallel values.
spheregrid.derivatives reads every stencil as a slice of one gathered
padding, and geometry.assemble fills κ in place from products it forms
once; both round every operation as the references do, so every output must
be equal bit for bit.
"""

import numpy as np
import pytest

from starflow.geometry import assemble
from starflow.spheregrid import axisym_grid, derivatives, full_s2_grid

GRIDS = [axisym_grid(n=n, m_theta=m) for n, m in ((2, 16), (3, 24), (4, 32))] + [
    full_s2_grid(m_theta=m, m_phi=2 * m) for m in (8, 24, 64)
]


def reference_pad_theta(grid, f):
    """One ghost row beyond each pole; on full_s2 the mirrored rows rolled by
    half a period in φ."""
    if grid.mode == "axisym":
        return np.concatenate(([f[0]], f, [f[-1]]))
    half = grid.m_phi // 2
    north = np.roll(f[0], half)[None, :]
    south = np.roll(f[-1], half)[None, :]
    return np.concatenate((north, f, south), axis=0)


def reference_derivatives(grid, f):
    """(b_θ, b_φ, H_θθ, H_θφ, H_φφ) in the frame (ê_θ, ê_φ/sinθ), with φ
    neighbours by np.roll."""
    p = reference_pad_theta(grid, f)
    dt = grid.dtheta
    f_tt = (p[2:] - 2.0 * f + p[:-2]) / (dt * dt)
    f_t = (p[2:] - p[:-2]) / (2.0 * dt)
    cot = np.cos(grid.theta) / np.sin(grid.theta)
    if grid.mode == "axisym":
        return f_t, np.zeros_like(f), f_tt, np.zeros_like(f), cot * f_t
    dp, st, cot = grid.dphi, np.sin(grid.theta)[:, None], cot[:, None]
    f_e, f_w = np.roll(f, -1, axis=1), np.roll(f, 1, axis=1)
    b_p = (f_e - f_w) / (2.0 * dp * st)
    f_tp = (np.roll(f_t, -1, axis=1) - np.roll(f_t, 1, axis=1)) / (2.0 * dp * st)
    h_tp = f_tp - cot * b_p
    h_pp = (f_e - 2.0 * f + f_w) / (dp * st) ** 2 + cot * f_t
    return f_t, b_p, f_tt, h_tp, h_pp


def reference_assemble(grid, gamma):
    """(κ, u, ρ, ω) of the graph ρ = e^γ, κ built per direction by np.repeat
    or np.stack and moved to the last axis."""
    b_t, b_p, h_tt, h_tp, h_pp = reference_derivatives(grid, gamma)
    w2 = 1.0 + (b_t * b_t if grid.mode == "axisym" else b_t * b_t + b_p * b_p)
    omega = np.sqrt(w2)
    rho = np.exp(gamma)
    u = rho / omega
    if grid.mode == "axisym":
        kappa_mer = (-h_tt + b_t * b_t + 1.0) / (rho * omega**3)
        kappa_par = (1.0 - grid.cot_theta * b_t) / (rho * omega)
        kappa = np.repeat(kappa_par[None], grid.n, axis=0)
        kappa[0] = np.maximum(kappa_mer, kappa_par)
        kappa[-1] = np.minimum(kappa_mer, kappa_par)
    else:
        # P = H - b cᵀ with c = Hb/ω²
        c_t = (h_tt * b_t + h_tp * b_p) / w2
        c_p = (h_tp * b_t + h_pp * b_p) / w2
        p_tt, p_tp = h_tt - b_t * c_t, h_tp - b_t * c_p
        p_pt, p_pp = h_tp - b_p * c_t, h_pp - b_p * c_p
        root = np.sqrt(np.maximum((p_tt - p_pp) ** 2 + 4.0 * (p_tp * p_pt), 0.0))
        trace = 2.0 - p_tt - p_pp
        kappa = np.stack([(trace + root) / (2.0 * rho * omega), (trace - root) / (2.0 * rho * omega)])
    return np.moveaxis(kappa, 0, -1), u, rho, omega


def smooth_field(grid, seed):
    """A seeded random polynomial in ξ of degree 3: smooth across the poles."""
    rng = np.random.default_rng(seed)
    xi = grid.xi
    gamma = np.full(grid.shape, rng.uniform(-0.5, 0.5))
    for degree in (1, 2, 3):
        v = rng.normal(size=3) if grid.mode == "full_s2" else np.array([0.0, 0.0, 1.0])
        gamma = gamma + rng.uniform(-0.2, 0.2) * (xi @ v) ** degree
    return gamma


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.mode}-{g.n}-{g.m_theta}x{g.m_phi}")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stencils_and_kappa_equal_the_rolled_reference_bitwise(grid, seed):
    gamma = smooth_field(grid, seed)
    padded = gamma.ravel()[grid.pad_index]
    if grid.mode == "full_s2":
        padded = padded[:, 1:-1]
    assert np.array_equal(padded, reference_pad_theta(grid, gamma))
    for got, want in zip(derivatives(grid, gamma), reference_derivatives(grid, gamma), strict=True):
        assert np.array_equal(got, want)
    state = assemble(grid, gamma)
    kappa, u, rho, omega = reference_assemble(grid, gamma)
    assert np.all(np.isfinite(kappa))
    assert np.array_equal(state.kappa, kappa)
    assert np.array_equal(state.u, u)
    assert np.array_equal(state.rho, rho)
    assert np.array_equal(state.omega, omega)
