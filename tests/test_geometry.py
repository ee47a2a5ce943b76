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
    fundamental_forms,
    sphere_gap,
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


def test_sphere_is_exact_axisym():
    for n in (2, 3, 4):
        grid = axisym_grid(n=n, m_theta=16)
        R = 1.7
        st = assemble(grid, np.full(grid.shape, np.log(R)))
        assert np.max(np.abs(st.kappa - 1.0 / R)) <= 1e-12
        assert np.max(np.abs(st.u - R)) <= 1e-12
        assert np.max(np.abs(st.rho - R)) <= 1e-12
        assert np.max(np.abs(np.linalg.norm(st.X, axis=-1) - R)) <= 1e-12
        assert np.max(np.abs(np.linalg.norm(st.nu, axis=-1) - 1.0)) <= 1e-12
        # outward normal of a sphere is the radial direction
        assert np.max(np.abs(st.nu - st.xi)) <= 1e-12
        assert sphere_gap(st) <= 1e-15


def test_sphere_is_exact_full_s2():
    # every node of a sphere is umbilic: the curvature pair must not pick up
    # the sqrt(eps) error of a cancelling discriminant (R = 0.892 did, 1.5e-8)
    for grid, R in [(full_s2_grid(m_theta=12, m_phi=16), 0.45)] + [
        (full_s2_grid(m_theta=24, m_phi=48), R) for R in (0.892, 0.5, 1.2345, 1.9)
    ]:
        st = assemble(grid, np.full(grid.shape, np.log(R)))
        assert np.max(np.abs(st.kappa - 1.0 / R)) <= 1e-12, R
        assert np.max(np.abs(st.u - R)) <= 1e-12
        assert np.max(np.abs(np.einsum("...i,...i->...", st.X, st.nu) - st.u)) <= 1e-12


def test_support_is_projection_of_position():
    # <X, nu> = u must hold for any assembled state, not only spheres
    grid = full_s2_grid(m_theta=16, m_phi=16)
    rng = np.random.default_rng(2)
    gamma = 0.1 * np.sin(grid.theta)[:, None] * np.cos(grid.phi)[None, :]
    gamma += 0.05 * rng.standard_normal() * np.cos(grid.theta)[:, None]
    st = assemble(grid, gamma)
    dot = np.einsum("...i,...i->...", st.X, st.nu)
    assert np.max(np.abs(dot - st.u)) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(st.nu, axis=-1) - 1.0)) <= 1e-12


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
        r1 = st.rho * st.gamma_t
        r2 = st.rho * (st.gamma_p / grid.sin_theta if grid.mode == "full_s2" else 0.0)
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
