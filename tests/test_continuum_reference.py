"""Flow limits against continuum references, at second order in the grid.

Three references need no code under test beyond the flow itself:

- Every ψ = exp⟨ξ, w⟩ is symmetric about w, so where the limit is unique the
  full_s2 limit is the axisym n = 2 limit for |w| e_z rotated to w/|w|.  The
  axisym limit on a fine grid is evaluated at arccos⟨ξ, ŵ⟩ through the
  cosine series of its even extension in θ, which interpolates its nodes
  exactly and adds no error of its own.
- An origin-centred ellipsoid E with semi-axes a_i, A = diag(a_i), has Gauss
  curvature K = u^{n+2} / (Π a_i)² (Chou & Wang, Adv. Math. 205, 2006), and
  in the direction ξ its radius and support satisfy ρ^{-2} = ξᵀA⁻²ξ and
  uρ = (ξᵀA⁻⁴ξ)^{-1/2}.  So with F = σ_n^{1/n}, β = 1, a = 0,
  b = -(n+2)/n, c = (Π a_i)^{-2/n} and ψ = (ξᵀA⁻⁴ξ)^{-(n+2)/(2n)}, E solves
  F^β = G exactly.  a + b + β = -2/n < 0, so E is the unique stationary
  profile, γ_E = -½ log ξᵀA⁻²ξ.
- Any smooth axisym γ* is the limit of a forcing made for it (manufactured
  solutions, Roache 1998): its κ*, u* and ρ* follow in closed form from the
  formulas in the geometry docstring, and ψ = F(κ*)^β / (u*^a ρ*^b) makes
  F^β = G hold at γ*.  With a = (1 - p)/k and b = (q - k - 1)/k,
  a + b + β = (q - p)/k at β = 1, so for p > q γ* is the unique limit.
"""

from math import comb

import numpy as np
import pytest

from starflow.flow import (
    STATUS_CONVERGED,
    Constant,
    FlowConfig,
    Spheroid,
    initial_gamma,
    run,
    speed_field,
)
from starflow.speed import SpeedSpec
from starflow.spheregrid import axisym_grid, full_s2_grid
from starflow.symfunc import SigmaKRoot


def manufactured_axisym(grid, k):
    """γ* = 0.12 cosθ + 0.06 cos 2θ - 0.03 cos 3θ at the nodes, with σ_k^{1/k}
    of its κ* (κ_mer once, κ_par n - 1 times), u* and ρ* in closed form."""
    t, n = grid.theta, grid.n
    gamma = 0.12 * np.cos(t) + 0.06 * np.cos(2 * t) - 0.03 * np.cos(3 * t)
    d1 = -0.12 * np.sin(t) - 0.12 * np.sin(2 * t) + 0.09 * np.sin(3 * t)
    d2 = -0.12 * np.cos(t) - 0.24 * np.cos(2 * t) + 0.27 * np.cos(3 * t)
    rho, omega = np.exp(gamma), np.sqrt(1.0 + d1**2)
    mer = (1.0 + d1**2 - d2) / (rho * omega**3)
    par = (1.0 - d1 * np.cos(t) / np.sin(t)) / (rho * omega)
    sigma_k = comb(n - 1, k) * par**k + comb(n - 1, k - 1) * mer * par ** (k - 1)
    return gamma, sigma_k ** (1.0 / k), rho / omega, rho


def limit(config, start):
    res = run(config, initial_gamma(start, config.grid))
    assert res.status == STATUS_CONVERGED, (config.grid.shape, res.status, res.detail)
    return res.state.gamma


def cosine_series(grid, f, theta):
    """The axisym node values f at colatitudes theta, through the cosine
    series Σ_{k < m_theta} c_k cos kθ that matches f at every node."""
    k = np.arange(grid.m_theta)
    coef = (2.0 / grid.m_theta) * (np.cos(np.outer(k, grid.theta)) @ f)
    coef[0] /= 2.0
    return np.cos(theta[..., None] * k) @ coef


def aniso_config(grid, w, tol_residual=1e-6):
    # the configs/aniso_s2.cfg problem with forcing exp<xi, w>
    G = SpeedSpec(c=1.0, a=0.0, b=-2.0, w=tuple(w))
    return FlowConfig(grid, SigmaKRoot(k=2), G, 1.0, tol_residual=tol_residual)


def test_off_axis_full_s2_limit_is_the_rotated_axisym_limit():
    start = Spheroid(a=1.1, b=0.9)
    ref_config = aniso_config(axisym_grid(n=2, m_theta=512), (0.0, 0.0, 0.2), 1e-8)
    ref = limit(ref_config, start)
    assert np.max(np.abs(cosine_series(ref_config.grid, ref, ref_config.grid.theta) - ref)) <= 1e-12
    for w_hat in (np.array([1.0, 0.0, 0.0]), np.ones(3) / np.sqrt(3.0)):
        errors = []
        for m in (8, 16):
            config = aniso_config(full_s2_grid(m_theta=m, m_phi=2 * m), 0.2 * w_hat)
            want = cosine_series(
                ref_config.grid, ref, np.arccos(np.clip(config.grid.xi @ w_hat, -1.0, 1.0))
            )
            errors.append(float(np.max(np.abs(limit(config, start) - want))))
        ratio = errors[0] / errors[1]
        assert 3.5 <= ratio <= 4.5, (w_hat, errors)


@pytest.mark.parametrize(
    "grids, semi_axes",
    [
        # along x, y and z
        ([full_s2_grid(m_theta=m, m_phi=2 * m) for m in (8, 16, 32)], (1.3, 1.0, 0.8)),
        # S^3 in R^4: three equatorial semi-axes and the polar one
        ([axisym_grid(n=3, m_theta=m) for m in (8, 16, 32)], (1.2, 1.2, 1.2, 0.8)),
    ],
    ids=["full_s2", "axisym_n3"],
)
def test_ellipsoid_is_the_limit_at_second_order(grids, semi_axes):
    n = grids[0].n
    # the semi-axes along the x, y and z of grid.xi; axisym nodes lie in the
    # xz-plane, an equatorial direction and the pole
    axes = np.array(semi_axes[:2] + semi_axes[-1:])
    G = SpeedSpec(c=np.prod(semi_axes) ** (-2.0 / n), a=0.0, b=-(n + 2) / n, w=(0.0, 0.0, 0.0))
    residuals, errors = [], []
    for grid in grids:
        config = FlowConfig(grid, SigmaKRoot(k=n), G, 1.0)
        config.G_table = G.c * (grid.xi**2 @ axes**-4.0) ** (-(n + 2) / (2.0 * n))
        gamma_e = -0.5 * np.log(grid.xi**2 @ axes**-2.0)
        residuals.append(float(np.max(np.abs(speed_field(config, gamma_e)[0]))))
        errors.append(float(np.max(np.abs(limit(config, Constant(R=1.0)) - gamma_e))))
    for values in (residuals, errors):
        ratios = np.array(values[:-1]) / np.array(values[1:])
        assert np.all((3.5 <= ratios) & (ratios <= 4.5)), (residuals, errors)


@pytest.mark.parametrize(
    "n, k, p, q",
    [(3, 2, 2, 0), (3, 1, 0, -2), (3, 2, 0, -1), (4, 2, 0, -2), (4, 3, 0, -1), (5, 3, 0, -2)],
)
def test_manufactured_axisym_limit_at_second_order(n, k, p, q):
    # G = c ψ u^a ρ^b of the paper's p > q cells, GLL's k < n among them
    a, b = (1 - p) / k, (q - k - 1) / k
    G = SpeedSpec(c=1.0, a=a, b=b, w=(0.0, 0.0, 0.0))
    errors = []
    for m in (8, 16, 32):
        config = FlowConfig(axisym_grid(n=n, m_theta=m), SigmaKRoot(k=k), G, 1.0,
                            t_max=400.0, tol_residual=1e-9)
        gamma, f_val, u, rho = manufactured_axisym(config.grid, k)
        config.G_table = f_val / (u**a * rho**b)
        errors.append(float(np.max(np.abs(limit(config, Constant(R=1.0)) - gamma))))
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((3.5 <= ratios) & (ratios <= 4.5)), errors
