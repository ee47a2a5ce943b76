"""Grid construction, pole-aware stencils, and the field CSV round trip."""

import numpy as np
import pytest

from starflow.spheregrid import (
    Grid,
    axisym_grid,
    covariant_hessian,
    full_s2_grid,
    grad,
    grad_norm_sq,
    pad_theta,
    read_field_csv,
    write_field_csv,
)


def test_grid_node_layout():
    g = axisym_grid(n=2, m_theta=16)
    assert g.shape == (16,)
    assert g.node_count == 16
    assert g.dtheta == pytest.approx(np.pi / 16)
    # staggered nodes: first colatitude half a cell from the pole
    assert g.theta[0] == pytest.approx(0.5 * np.pi / 16)
    assert g.theta[-1] == pytest.approx(np.pi - 0.5 * np.pi / 16)

    s2 = full_s2_grid(m_theta=8, m_phi=16)
    assert s2.shape == (8, 16)
    assert s2.node_count == 128
    assert s2.phi[0] == 0.0
    assert s2.dphi == pytest.approx(2.0 * np.pi / 16)


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        axisym_grid(n=1, m_theta=16)
    with pytest.raises(ValueError):
        axisym_grid(n=2, m_theta=4)
    with pytest.raises(ValueError):
        full_s2_grid(m_theta=8, m_phi=15)  # odd phi count
    with pytest.raises(ValueError):
        full_s2_grid(m_theta=8, m_phi=4)
    with pytest.raises(ValueError):
        Grid(mode="full_s2", n=3, m_theta=8, m_phi=8)
    with pytest.raises(ValueError):
        Grid(mode="polar", n=2, m_theta=8, m_phi=0)


def test_grid_equality():
    assert axisym_grid(2, 16) == axisym_grid(2, 16)
    assert full_s2_grid(8, 16) == Grid(mode="full_s2", n=2, m_theta=8, m_phi=16)
    assert axisym_grid(2, 16) != axisym_grid(3, 16)
    assert axisym_grid(2, 16) != full_s2_grid(16, 16)
    assert full_s2_grid(8, 16) != full_s2_grid(8, 18)
    # the spacings and nodes derive from the counts; they are not arguments
    with pytest.raises(TypeError):
        Grid(mode="axisym", n=2, m_theta=16, m_phi=0, dtheta=5.0)


def test_pad_theta_axisym_mirror():
    g = axisym_grid(n=2, m_theta=16)
    f = np.cos(g.theta)
    p = pad_theta(g, f)
    assert p.shape == (18,)
    assert p[0] == f[0] and p[-1] == f[-1]


def test_pad_theta_full_s2_rolls_half_period():
    g = full_s2_grid(m_theta=8, m_phi=16)
    f = np.sin(g.theta)[:, None] * np.cos(g.phi)[None, :]
    p = pad_theta(g, f)
    # crossing the north pole lands on the opposite meridian, so the ghost
    # row of sin(theta) cos(phi) must be its own negative
    assert np.allclose(p[0], -f[0], atol=1e-15)
    assert np.allclose(p[-1], -f[-1], atol=1e-15)


def test_grad_converges_second_order():
    errs = []
    for m in (16, 32):
        g = axisym_grid(n=2, m_theta=m)
        f_t, f_p = grad(g, np.cos(g.theta))
        errs.append(float(np.max(np.abs(f_t + np.sin(g.theta)))))
        assert np.all(f_p == 0.0)
    assert errs[1] < errs[0] / 3.5

    errs = []
    for m in (16, 32):
        g = full_s2_grid(m_theta=m, m_phi=2 * m)
        f = np.sin(g.theta)[:, None] * np.cos(g.phi)[None, :]
        f_t, f_p = grad(g, f)
        want_t = np.cos(g.theta)[:, None] * np.cos(g.phi)[None, :]
        want_p = -np.sin(g.theta)[:, None] * np.sin(g.phi)[None, :]
        errs.append(
            max(
                float(np.max(np.abs(f_t - want_t))),
                float(np.max(np.abs(f_p - want_p))),
            )
        )
    assert errs[1] < errs[0] / 3.5


def test_grad_norm_sq_definition():
    g = full_s2_grid(m_theta=16, m_phi=32)
    rng = np.random.default_rng(5)
    f_t = rng.normal(size=g.shape)
    f_p = rng.normal(size=g.shape)
    want = f_t**2 + (f_p / np.sin(g.theta)[:, None]) ** 2
    assert np.allclose(grad_norm_sq(g, f_t, f_p), want, rtol=1e-14, atol=0)
    assert np.all(grad_norm_sq(g, f_t, f_p) >= 0.0)


def test_covariant_hessian_axisym():
    # f = cos(theta) solves Hess f = -f e on the round sphere
    errs = []
    for m in (16, 32):
        g = axisym_grid(n=2, m_theta=m)
        f = np.cos(g.theta)
        h_tt, h_tp, h_pp = covariant_hessian(g, f)
        assert np.all(h_tp == 0.0)
        errs.append(
            max(
                float(np.max(np.abs(h_tt + f))),
                float(np.max(np.abs(h_pp + f * np.sin(g.theta) ** 2))),
            )
        )
    assert errs[1] < errs[0] / 3.5


def test_covariant_hessian_full_s2():
    errs = []
    for m in (16, 32):
        g = full_s2_grid(m_theta=m, m_phi=2 * m)
        f = np.sin(g.theta)[:, None] * np.cos(g.phi)[None, :]
        h_tt, h_tp, h_pp = covariant_hessian(g, f)
        s2 = np.sin(g.theta)[:, None] ** 2
        errs.append(
            max(
                float(np.max(np.abs(h_tt + f))),
                float(np.max(np.abs(h_pp + f * s2))),
                float(np.max(np.abs(h_tp))),
            )
        )
    assert errs[1] < errs[0] / 3.5


def test_axisym_and_full_s2_agree_on_symmetric_fields():
    """A phi-independent field must see identical theta stencils in both modes."""
    ax = axisym_grid(n=2, m_theta=24)
    s2 = full_s2_grid(m_theta=24, m_phi=16)
    prof = np.cos(2.0 * ax.theta) + 0.3 * np.sin(ax.theta)
    f2 = np.tile(prof[:, None], (1, 16))

    t1, _ = grad(ax, prof)
    t2, p2 = grad(s2, f2)
    assert np.max(np.abs(t2 - t1[:, None])) < 1e-12
    assert np.max(np.abs(p2)) < 1e-12

    a_tt, _, a_pp = covariant_hessian(ax, prof)
    b_tt, b_tp, b_pp = covariant_hessian(s2, f2)
    assert np.max(np.abs(b_tt - a_tt[:, None])) < 1e-12
    assert np.max(np.abs(b_pp - a_pp[:, None])) < 1e-12
    assert np.max(np.abs(b_tp)) < 1e-12


def test_field_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(9)
    grids = (axisym_grid(n=3, m_theta=12), full_s2_grid(m_theta=8, m_phi=10))
    for g in grids:
        values = rng.normal(scale=1e3, size=g.shape) * 10.0 ** rng.integers(-12, 12, g.shape)
        path = tmp_path / f"field_{g.mode}.csv"
        write_field_csv(path, g, values)
        g2, v2 = read_field_csv(path)
        assert g == g2
        assert np.array_equal(values, v2)

    # the benchmark size, with signed zeros, a subnormal, the float extremes
    # and integers among the values
    g = full_s2_grid(m_theta=64, m_phi=128)
    values = rng.normal(size=g.shape) * 10.0 ** rng.integers(-300, 300, g.shape)
    special = [-0.0, 0.0, 5e-324, 1e308, -1e308, 3.0, -42.0, 2.0**53]
    values.flat[: len(special)] = special
    path = tmp_path / "field_fine.csv"
    write_field_csv(path, g, values)
    g2, v2 = read_field_csv(path)
    assert g == g2
    assert np.array_equal(values, v2)
    assert np.array_equal(np.signbit(values), np.signbit(v2))


def test_field_csv_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("theta,value\n0.1,0.2\n")
    with pytest.raises(ValueError):
        read_field_csv(path)


def test_field_csv_rejects_truncation(tmp_path):
    g = axisym_grid(n=2, m_theta=8)
    path = tmp_path / "field.csv"
    write_field_csv(path, g, np.zeros(8))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:5]) + "\n")
    with pytest.raises(ValueError):
        read_field_csv(path)

    # a row in the middle with a missing or an extra column, or a value that
    # is not a number
    for row in ("0.7", "0.7,0.0,0.0", "0.7,abc"):
        path.write_text("\n".join(lines[:5] + [row] + lines[6:]) + "\n")
        with pytest.raises(ValueError):
            read_field_csv(path)
