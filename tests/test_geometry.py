"""Geometry assembly against closed-form surfaces.

Spheres are exact for every operator here.  The spheroid oracle below is the
classical ellipse curvature formula, written out independently of geometry.py:
with equatorial radius a, polar radius b, and parametric angle s defined by
sin s = rho sin(theta)/a, cos s = rho cos(theta)/b,

    W = sqrt(a^2 cos^2 s + b^2 sin^2 s)
    kappa_meridian = a b / W^3
    kappa_parallel = b / (a W)
"""

import numpy as np
import pytest

from starflow import spheregrid
from starflow.geometry import (
    assemble,
    export_obj,
    star_shape_failure,
    support_identity_residual,
)
from starflow.spheregrid import axisym_grid, full_s2_grid


def spheroid_gamma(grid, a, b):
    rho = a * b / np.sqrt(b**2 * np.sin(grid.theta) ** 2 + a**2 * np.cos(grid.theta) ** 2)
    return np.log(rho)


def spheroid_kappa_oracle(grid, a, b):
    rho = np.exp(spheroid_gamma(grid, a, b))
    sv = rho * np.sin(grid.theta) / a
    cv = rho * np.cos(grid.theta) / b
    W = np.sqrt(a**2 * cv**2 + b**2 * sv**2)
    return a * b / W**3, b / (a * W)


def fundamental_forms(st):
    """Metric g = ρ²(I + bbᵀ) and second fundamental form h = u(I + bbᵀ - H),
    each of shape (..., 2, 2), built here from the frame gradient b and
    Hessian H of γ as a reference for assemble's closed forms.  On axisym
    grids the second direction is one of the n - 1 parallel ones."""
    b_t, b_p, h_tt, h_tp, h_pp = spheregrid.derivatives(st.grid, st.gamma)
    b = np.stack([b_t, b_p], axis=-1)
    eye_bb = np.eye(2) + b[..., :, None] * b[..., None, :]
    hess = np.stack([h_tt, h_tp, h_tp, h_pp], axis=-1).reshape(st.grid.shape + (2, 2))
    return st.rho[..., None, None] ** 2 * eye_bb, st.u[..., None, None] * (eye_bb - hess)


def outward_normal(st):
    """ν = (ξ - b_θ ê_θ - b_φ ê_φ)/ω for the frame gradient b = (γ_θ, γ_φ/sinθ),
    with the unit chart directions ê_θ, ê_φ built here; axisym profiles lie
    in the xz-plane (φ = 0)."""
    grid = st.grid
    theta = grid.theta[:, None] if grid.mode == "full_s2" else grid.theta
    phi = grid.phi if grid.mode == "full_s2" else 0.0
    sin_t, cos_t, sin_p, cos_p = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    zero = np.zeros(grid.shape)
    e_theta = np.stack([zero + cos_t * cos_p, zero + cos_t * sin_p, zero - sin_t], axis=-1)
    e_phi = np.stack([zero - sin_p, zero + cos_p, zero], axis=-1)
    b_t = st.b_t[..., None]
    b_p = st.b_p[..., None]
    return (grid.xi - b_t * e_theta - b_p * e_phi) / st.omega[..., None]


# the radii R ~ U(0.5, 2) that seeds 0-19 and 42 draw first and third; seeds
# 2, 7 and 42 drew the radii whose full_s2 curvatures were once off 1/R by
# sqrt(eps), before the umbilic discriminant stopped cancelling
SEEDED_RADII = [
    float(R)
    for seed in (*range(20), 42)
    for R in np.random.default_rng(seed).uniform(0.5, 2.0, 3)[::2]
]


def test_sphere_is_exact_axisym():
    for grid, R in [(axisym_grid(n=n, m_theta=16), 1.7) for n in (2, 3, 4)] + [
        (axisym_grid(n=3, m_theta=24), R) for R in SEEDED_RADII
    ]:
        st = assemble(grid, np.full(grid.shape, np.log(R)))
        assert np.max(np.abs(st.kappa - 1.0 / R)) <= 1e-12, R
        assert np.max(np.abs(st.u - R)) <= 1e-12
        assert np.max(np.abs(st.rho - R)) <= 1e-12
        assert np.max(np.abs(np.linalg.norm(st.X, axis=-1) - R)) <= 1e-12
        nu = outward_normal(st)
        assert np.max(np.abs(np.linalg.norm(nu, axis=-1) - 1.0)) <= 1e-12
        # outward normal of a sphere is the radial direction
        assert np.max(np.abs(nu - grid.xi)) <= 1e-12


def test_sphere_is_exact_full_s2():
    # every node of a sphere is umbilic: the curvature pair must not pick up
    # the sqrt(eps) error of a cancelling discriminant (R = 0.892 did, 1.5e-8)
    for grid, R in [(full_s2_grid(m_theta=12, m_phi=16), 0.45)] + [
        (full_s2_grid(m_theta=24, m_phi=48), R)
        for R in (0.892, 0.5, 1.2345, 1.9, *SEEDED_RADII)
    ]:
        st = assemble(grid, np.full(grid.shape, np.log(R)))
        assert np.max(np.abs(st.kappa - 1.0 / R)) <= 1e-12, R
        # every derivative is exactly zero, so κ = 2/(2ρ) rounds like 1/R
        assert np.max(np.abs(st.kappa * R - 1.0)) <= 4.0 * np.finfo(float).eps, R
        assert np.max(np.abs(st.u - R)) <= 1e-12
        dot = np.einsum("...i,...i->...", st.X, outward_normal(st))
        assert np.max(np.abs(dot - st.u)) <= 1e-12


def test_curvatures_are_the_eigenvalues_of_the_form_pencil():
    # assemble's curvatures against a dense eigensolve of the pencil (h, g)
    # that it built, on the bumped spheres gamma = amp <xi, v>; on axisym
    # grids the pencil holds the meridian and one parallel direction
    e_x, e_z = np.eye(3)[0], np.eye(3)[2]
    for grid, v in (
        (axisym_grid(n=3, m_theta=24), e_z),
        (full_s2_grid(m_theta=24, m_phi=48), e_x),
    ):
        for amp in (0.05, 0.1, 0.15):
            st = assemble(grid, amp * (grid.xi @ v))
            assert np.all(st.u <= st.rho + 1e-14)
            g, h = fundamental_forms(st)
            direct = np.sort(np.linalg.eigvals(np.linalg.solve(g, h)).real)[..., ::-1]
            assert np.max(np.abs(direct - st.kappa[..., [0, -1]])) <= 1e-12, (grid.mode, amp)


def test_grad_sq_definition():
    # |D gamma|^2 in the round chart metric: gamma_theta^2 + gamma_phi^2 / sin^2 theta,
    # which the frame gradient b = (gamma_theta, gamma_phi / sin theta) carries
    g = full_s2_grid(m_theta=16, m_phi=32)
    gamma = 0.1 * np.random.default_rng(5).normal(size=g.shape)
    st = assemble(g, gamma)
    gamma_p = (np.roll(gamma, -1, axis=1) - np.roll(gamma, 1, axis=1)) / (2.0 * g.dphi)
    assert np.allclose(st.b_p, gamma_p / np.sin(g.theta)[:, None], rtol=1e-14, atol=0)
    want = st.b_t**2 + st.b_p**2
    assert np.allclose(st.grad_sq, want, rtol=1e-14, atol=0)
    assert np.all(st.grad_sq >= 0.0)


def test_support_is_projection_of_position():
    # <X, nu> = u must hold for any assembled state, not only spheres
    grid = full_s2_grid(m_theta=16, m_phi=16)
    rng = np.random.default_rng(2)
    gamma = 0.1 * np.sin(grid.theta)[:, None] * np.cos(grid.phi)[None, :]
    gamma += 0.05 * rng.standard_normal() * np.cos(grid.theta)[:, None]
    st = assemble(grid, gamma)
    nu = outward_normal(st)
    dot = np.einsum("...i,...i->...", st.X, nu)
    assert np.max(np.abs(dot - st.u)) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(nu, axis=-1) - 1.0)) <= 1e-12


def test_spheroid_curvatures_converge():
    a, b = 1.5, 1.0
    errs = []
    for m in (32, 64):
        grid = axisym_grid(n=2, m_theta=m)
        st = assemble(grid, spheroid_gamma(grid, a, b))
        k_mer, k_par = spheroid_kappa_oracle(grid, a, b)
        want = np.sort(np.stack([k_mer, k_par], axis=-1), axis=-1)[..., ::-1]
        errs.append(float(np.max(np.abs(st.kappa - want))))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.9, f"observed order {order:.3f}, errors {errs}"


def test_full_s2_curvature_order_off_centre_sphere():
    # a unit sphere centred at 0.3 e_x: ρ = s + sqrt(s² + 1 - 0.09) with
    # s = ⟨ξ, 0.3 e_x⟩, and κ = 1 at every node.  Away from the poles κ is
    # second order; in the rows next to them the φ-differences' O(Δφ²) error
    # is divided by sinθ ≈ Δθ/2, so over the whole grid only first order holds
    band_errs = []
    for m in (16, 32, 64):
        grid = full_s2_grid(m_theta=m, m_phi=2 * m)
        s = grid.xi @ np.array([0.3, 0.0, 0.0])
        err = np.max(np.abs(assemble(grid, np.log(s + np.sqrt(s * s + 0.91))).kappa - 1.0), axis=-1)
        assert np.max(err) <= 0.15 * grid.dtheta
        band = (grid.theta > np.pi / 4) & (grid.theta < 3 * np.pi / 4)
        band_errs.append(float(np.max(err[band])))
    ratios = np.divide(band_errs[:-1], band_errs[1:])
    assert np.all((3.5 <= ratios) & (ratios <= 4.5)), f"errors {band_errs}, ratios {ratios}"


def test_spheroid_support_minimum():
    # support function of a spheroid attains min(a, b); the discrete minimum
    # sits O(dtheta^2) above it
    grid = axisym_grid(n=2, m_theta=48)
    st = assemble(grid, spheroid_gamma(grid, 1.5, 1.0))
    u_min = float(np.min(st.u))
    assert 1.0 - 1e-12 <= u_min <= 1.0 + 5e-3
    assert np.all(st.u <= st.rho + 1e-14)


def test_radial_gradient_identity_is_exact():
    """g^{ij} rho_i rho_j = 1 - 1/omega^2 holds exactly on stored fields."""
    for grid, gamma in (
        (axisym_grid(n=2, m_theta=24), None),
        (full_s2_grid(m_theta=16, m_phi=16), None),
    ):
        if grid.mode == "axisym":
            gamma = 0.2 * np.cos(grid.theta) + 0.1 * np.cos(2 * grid.theta)
        else:
            gamma = 0.15 * np.sin(grid.theta)[:, None] * np.cos(grid.phi)[None, :]
        st = assemble(grid, gamma)
        g, _ = fundamental_forms(st)
        g_tt, g_tp, g_pp = g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]
        # rho gradient in the same orthonormalized frame as the metric
        r1 = st.rho * st.b_t
        r2 = st.rho * st.b_p
        det = g_tt * g_pp - g_tp**2
        contracted = (g_pp * r1**2 - 2.0 * g_tp * r1 * r2 + g_tt * r2**2) / det
        want = 1.0 - 1.0 / st.omega**2
        assert np.max(np.abs(contracted - want)) <= 1e-13


def test_support_identity_residual_second_order():
    a, b = 1.3, 1.0
    res = []
    for m in (32, 64):
        grid = axisym_grid(n=2, m_theta=m)
        res.append(support_identity_residual(assemble(grid, spheroid_gamma(grid, a, b))))
    assert res[1] < res[0] / 3.0
    # and on a sphere the identity is 0 = 0
    grid = axisym_grid(n=2, m_theta=16)
    assert support_identity_residual(assemble(grid, np.zeros(16))) <= 1e-13


def test_star_shape_failure():
    grid = axisym_grid(n=2, m_theta=16)
    assert star_shape_failure(assemble(grid, np.zeros(16))) is None
    # violent profile: still star-shaped as a graph, u just gets small
    assert star_shape_failure(assemble(grid, 4.0 * np.cos(5.0 * grid.theta))) is None
    # e^gamma underflows to 0 at node 5: u = 0 there, and kappa divides by it
    flat = np.zeros(16)
    flat[5] = -800.0
    with np.errstate(divide="ignore", invalid="ignore"):
        state = assemble(grid, flat)
    failure = star_shape_failure(state)
    assert failure.startswith("not a star-shaped graph at node (5,): u = 0,")
    # on full_s2 the node is a (theta, phi) index
    grid = full_s2_grid(m_theta=8, m_phi=8)
    flat = np.zeros(grid.shape)
    flat[2, 6] = -800.0
    with np.errstate(divide="ignore", invalid="ignore"):
        failure = star_shape_failure(assemble(grid, flat))
    assert "at node (2, 6): u = 0," in failure


def test_star_shape_failure_names_nonfinite_nodes():
    # assemble never raises on a bad state; the verdict names the first node
    grid = axisym_grid(n=2, m_theta=16)
    bad = np.zeros(16)
    bad[3] = np.inf
    with np.errstate(invalid="ignore"):
        state = assemble(grid, bad)
    assert "at node (2,)" in star_shape_failure(state)  # node 3's neighbour
    bad[:] = 0.0
    bad[7] = np.nan
    failure = star_shape_failure(assemble(grid, bad))
    assert "at node (6,): u = nan, kappa = (nan, nan)" in failure  # 7's neighbour
    # e^gamma overflows at node 0: u = inf is not finite either
    with np.errstate(over="ignore"):
        state = assemble(grid, np.full(16, 800.0))
    assert "at node (0,): u = inf" in star_shape_failure(state)
    with pytest.raises(ValueError):
        assemble(grid, np.zeros(15))


def test_export_obj(tmp_path):
    grid = full_s2_grid(m_theta=8, m_phi=8)
    R = 2.0
    st = assemble(grid, np.full(grid.shape, np.log(R)))
    path = tmp_path / "sphere.obj"
    export_obj(path, st)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    verts = [l.split()[1:] for l in lines if l.startswith("v ")]
    faces = [l.split()[1:] for l in lines if l.startswith("f ")]
    assert len(verts) == grid.node_count
    assert len(faces) == (grid.m_theta - 1) * grid.m_phi
    radii = np.linalg.norm(np.array(verts, dtype=float), axis=1)
    assert np.allclose(radii, R, atol=1e-12)
    idx = np.array([[int(tok) for tok in f] for f in faces])
    assert idx.min() >= 1 and idx.max() <= grid.node_count


def pencil_kappa(grid, gamma):
    """κ of full_s2 nodes as the eigenvalues of A = g⁻¹h, from the
    discriminant (a_θθ - a_φφ)² + 4 a_θφ a_φθ, with g = ρ²(I + bbᵀ) and
    h = u(I + bbᵀ - H) written out component by component: the pencil (h, g)
    solved in closed form."""
    b_t, b_p, h_tt, h_tp, h_pp = spheregrid.derivatives(grid, gamma)
    rho = np.exp(gamma)
    u = rho / np.sqrt(1.0 + b_t**2 + b_p**2)
    g_tt, g_tp, g_pp = rho**2 * (1.0 + b_t**2), rho**2 * b_t * b_p, rho**2 * (1.0 + b_p**2)
    k_tt, k_tp, k_pp = u * (1.0 + b_t**2 - h_tt), u * (b_t * b_p - h_tp), u * (1.0 + b_p**2 - h_pp)
    det = g_tt * g_pp - g_tp**2
    a_tt, a_tp = (g_pp * k_tt - g_tp * k_tp) / det, (g_pp * k_tp - g_tp * k_pp) / det
    a_pt, a_pp = (g_tt * k_tp - g_tp * k_tt) / det, (g_tt * k_pp - g_tp * k_tp) / det
    root = np.sqrt(np.maximum((a_tt - a_pp) ** 2 + 4.0 * a_tp * a_pt, 0.0))
    return np.stack([(a_tt + a_pp + root) / 2.0, (a_tt + a_pp - root) / 2.0], axis=-1)


@pytest.mark.parametrize("m", [8, 24, 64])
def test_frame_kappa_matches_the_form_pencil(m):
    # smooth fields of low degree in xi, whose pole rows are the least
    # resolved: the Weingarten map (I - P)/(rho omega) gives the pencil's
    # eigenvalues to rounding at every node
    grid = full_s2_grid(m_theta=m, m_phi=2 * m)
    rng = np.random.default_rng(m)
    for _ in range(3):
        gamma = rng.uniform(-0.5, 0.5) + sum(
            rng.uniform(-0.2, 0.2) * (grid.xi @ rng.normal(size=3)) ** d for d in (1, 2, 3)
        )
        kappa = assemble(grid, gamma).kappa
        want = pencil_kappa(grid, gamma)
        assert np.max(np.abs(kappa - want) / np.max(np.abs(want), axis=-1, keepdims=True)) <= 1e-12


def test_frame_kappa_of_a_phi_constant_field_is_the_axisym_kappa():
    ax = axisym_grid(n=2, m_theta=32)
    s2 = full_s2_grid(m_theta=32, m_phi=16)
    for amp in (0.05, 0.15, 0.3):
        prof = amp * (np.cos(ax.theta) + 0.5 * np.cos(2.0 * ax.theta) ** 3)
        want = assemble(ax, prof).kappa
        got = assemble(s2, np.tile(prof[:, None], (1, s2.m_phi))).kappa
        assert np.max(np.abs(got - want[:, None]) / np.abs(want[:, None])) <= 1e-14, amp
