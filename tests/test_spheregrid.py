"""Grid construction, pole-aware stencils, and the field CSV round trip."""

import numpy as np
import pytest

from starflow import spheregrid
from starflow.spheregrid import (
    MAX_NODES,
    Grid,
    axisym_grid,
    derivatives,
    factor_shifted_laplacian,
    full_s2_grid,
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
    # refused before any table is allocated, so these cost nothing
    assert MAX_NODES == 2**22
    with pytest.raises(ValueError, match=r"^grid of 20000000000 nodes exceeds MAX_NODES = 4194304$"):
        full_s2_grid(m_theta=100000, m_phi=200000)
    with pytest.raises(ValueError, match=r"^grid of 4194305 nodes exceeds MAX_NODES = 4194304$"):
        axisym_grid(n=2, m_theta=MAX_NODES + 1)


def test_axisym_grid_bounds_its_curvature_count_by_max_nodes():
    # kappa holds n values per node; n * m_theta = MAX_NODES is the largest
    # table accepted, and the node-count message still comes first
    assert axisym_grid(n=MAX_NODES // 8, m_theta=8).n == MAX_NODES // 8
    with pytest.raises(ValueError, match=(
        r"^hypersurface dimension n = 524289 on 8 nodes needs 4194312 curvatures, "
        r"more than MAX_NODES = 4194304$"
    )):
        axisym_grid(n=MAX_NODES // 8 + 1, m_theta=8)
    with pytest.raises(ValueError, match=r"^grid of 4194305 nodes exceeds MAX_NODES = 4194304$"):
        axisym_grid(n=10**12, m_theta=MAX_NODES + 1)


def test_grid_equality():
    assert axisym_grid(2, 16) == axisym_grid(2, 16)
    assert full_s2_grid(8, 16) == Grid(mode="full_s2", n=2, m_theta=8, m_phi=16)
    assert axisym_grid(2, 16) != axisym_grid(3, 16)
    assert axisym_grid(2, 16) != full_s2_grid(16, 16)
    assert full_s2_grid(8, 16) != full_s2_grid(8, 18)
    # the spacings and nodes derive from the counts; they are not arguments
    with pytest.raises(TypeError):
        Grid(mode="axisym", n=2, m_theta=16, m_phi=0, dtheta=5.0)
    # nor compared: the tables built from them, the pad index among them,
    # take no part in equality, and each of the four counts does
    counts = ("mode", "n", "m_theta", "m_phi")
    tables = full_s2_grid(8, 16)
    derived = set(vars(tables)) - set(counts)
    assert {"theta", "dtheta", "dphi", "pad_index", "arc_2dphi", "zeros"} <= derived
    for name in derived:
        setattr(tables, name, None)
    assert tables == full_s2_grid(8, 16)
    for name in counts:
        changed = full_s2_grid(8, 16)
        setattr(changed, name, None)
        assert changed != full_s2_grid(8, 16), name
    assert full_s2_grid(8, 16) != ("full_s2", 2, 8, 16)


def test_grid_zeros_are_shared_and_read_only():
    for g in (axisym_grid(n=3, m_theta=16), full_s2_grid(m_theta=8, m_phi=16)):
        assert g.zeros.shape == g.shape and not g.zeros.any()
        with pytest.raises(ValueError):
            g.zeros[0] = 1.0
    # axisym stencils hand out the shared zeros for the phi slots
    g = axisym_grid(n=3, m_theta=16)
    _, f_p, _, h_tp, _ = derivatives(g, np.cos(g.theta))
    assert f_p is g.zeros and h_tp is g.zeros


def test_pad_theta_axisym_mirror():
    g = axisym_grid(n=2, m_theta=16)
    f = np.cos(g.theta)
    p = f.ravel()[g.pad_index]
    assert p.shape == (18,)
    assert p[0] == f[0] and p[-1] == f[-1]
    assert np.array_equal(p[1:-1], f)


def test_pad_theta_full_s2_rolls_half_period():
    g = full_s2_grid(m_theta=8, m_phi=16)
    rng = np.random.default_rng(3)
    f = rng.normal(size=g.shape)
    p = f.ravel()[g.pad_index]
    assert p.shape == (10, 18)
    assert np.array_equal(p[1:-1, 1:-1], f)
    # crossing a pole lands on the opposite meridian: the ghost rows are the
    # pole rows half a period on in phi
    assert np.array_equal(p[0, 1:-1], np.roll(f[0], 8))
    assert np.array_equal(p[-1, 1:-1], np.roll(f[-1], 8))
    # the phi ghost columns wrap, in the ghost rows too, so the corners are
    # the pole rows' nodes half a period on from the wrapped column
    assert np.array_equal(p[:, 0], p[:, -2])
    assert np.array_equal(p[:, -1], p[:, 1])
    assert p[0, 0] == f[0, 7] and p[0, -1] == f[0, 8]
    assert p[-1, 0] == f[-1, 7] and p[-1, -1] == f[-1, 8]
    # so the ghost row of sin(theta) cos(phi) is its own negative
    f = np.sin(g.theta)[:, None] * np.cos(g.phi)[None, :]
    p = f.ravel()[g.pad_index]
    assert np.allclose(p[0, 1:-1], -f[0], atol=1e-15)
    assert np.allclose(p[-1, 1:-1], -f[-1], atol=1e-15)


def test_grad_converges_second_order():
    errs = []
    for m in (16, 32):
        g = axisym_grid(n=2, m_theta=m)
        f_t, f_p = derivatives(g, np.cos(g.theta))[:2]
        errs.append(float(np.max(np.abs(f_t + np.sin(g.theta)))))
        assert np.all(f_p == 0.0)
    assert errs[1] < errs[0] / 3.5

    errs = []
    for m in (16, 32):
        g = full_s2_grid(m_theta=m, m_phi=2 * m)
        f = np.sin(g.theta)[:, None] * np.cos(g.phi)[None, :]
        f_t, f_p = derivatives(g, f)[:2]
        want_t = np.cos(g.theta)[:, None] * np.cos(g.phi)[None, :]
        # the frame component ∂_φ f / sinθ
        want_p = -np.sin(g.phi)[None, :]
        errs.append(
            max(
                float(np.max(np.abs(f_t - want_t))),
                float(np.max(np.abs(f_p - want_p))),
            )
        )
    assert errs[1] < errs[0] / 3.5


def test_covariant_hessian_axisym():
    # f = cos(theta) solves Hess f = -f e on the round sphere: H = -f I in the frame
    errs = []
    for m in (16, 32):
        g = axisym_grid(n=2, m_theta=m)
        f = np.cos(g.theta)
        h_tt, h_tp, h_pp = derivatives(g, f)[2:]
        assert np.all(h_tp == 0.0)
        errs.append(
            max(
                float(np.max(np.abs(h_tt + f))),
                float(np.max(np.abs(h_pp + f))),
            )
        )
    assert errs[1] < errs[0] / 3.5


def test_covariant_hessian_full_s2():
    errs = []
    for m in (16, 32):
        g = full_s2_grid(m_theta=m, m_phi=2 * m)
        f = np.sin(g.theta)[:, None] * np.cos(g.phi)[None, :]
        h_tt, h_tp, h_pp = derivatives(g, f)[2:]
        # the chart components f_{;θφ} = sinθ H_θφ and f_{;φφ} = sin²θ H_φφ
        # are second order; the frame ones, which divide them by sinθ, lose
        # an order in the pole rows
        st = np.sin(g.theta)[:, None]
        errs.append(
            max(
                float(np.max(np.abs(h_tt + f))),
                float(np.max(np.abs((h_pp + f) * st**2))),
                float(np.max(np.abs(h_tp * st))),
            )
        )
    assert errs[1] < errs[0] / 3.5


def test_axisym_and_full_s2_agree_on_symmetric_fields():
    """A phi-independent field must see identical theta stencils in both modes."""
    ax = axisym_grid(n=2, m_theta=24)
    s2 = full_s2_grid(m_theta=24, m_phi=16)
    prof = np.cos(2.0 * ax.theta) + 0.3 * np.sin(ax.theta)
    f2 = np.tile(prof[:, None], (1, 16))

    t1, _ = derivatives(ax, prof)[:2]
    t2, p2 = derivatives(s2, f2)[:2]
    assert np.max(np.abs(t2 - t1[:, None])) < 1e-12
    assert np.max(np.abs(p2)) < 1e-12

    a_tt, _, a_pp = derivatives(ax, prof)[2:]
    b_tt, b_tp, b_pp = derivatives(s2, f2)[2:]
    assert np.max(np.abs(b_tt - a_tt[:, None])) < 1e-12
    assert np.max(np.abs(b_pp - a_pp[:, None])) < 1e-12
    assert np.max(np.abs(b_tp)) < 1e-12


def copying_cyclic_reduction(grid, a, z):
    """factor_shifted_laplacian on a full_s2 grid with each level of the
    solve building its new right-hand side in a copy of the old one."""
    a = a[:, None]
    diag = 1.0 - z[:, None] - a * grid.lap_diag
    lo = (a * grid.lap_lower[:, None])[1:]
    up = (a * grid.lap_upper[:, None])[:-1]
    levels = []
    s = 1
    while True:
        alpha = lo / diag[:-s]
        beta = up / diag[s:]
        diag[s:] -= alpha * up
        diag[:-s] -= beta * lo
        levels.append((s, alpha, beta))
        if 2 * s >= grid.m_theta:
            break
        lo, up = alpha[s:] * lo[:-s], beta[:-s] * up[s:]
        s *= 2

    def solve(rhs):
        d = np.fft.rfft(rhs, axis=1)
        for s, alpha, beta in levels:
            nxt = d.copy()
            nxt[s:] += alpha * d[:-s]
            nxt[:-s] += beta * d[s:]
            d = nxt
        return np.fft.irfft(d / diag, n=grid.m_phi, axis=1)

    return solve


@pytest.mark.parametrize("m", [8, 24, 64])
def test_full_s2_solve_equals_the_copying_reduction_bitwise(m):
    grid = full_s2_grid(m_theta=m, m_phi=2 * m)
    rng = np.random.default_rng(m)
    for scale in (1e-3, 1.0, 1e3):
        a = scale * rng.uniform(0.0, 1.0, size=m)
        z = -scale * rng.uniform(0.0, 1.0, size=m)
        solve, want = factor_shifted_laplacian(grid, a, z), copying_cyclic_reduction(grid, a, z)
        for _ in range(2):  # a factor serves several right-hand sides
            rhs = rng.normal(size=grid.shape)
            assert solve(rhs).tobytes() == want(rhs).tobytes()


def test_field_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(9)
    grids = (axisym_grid(n=3, m_theta=12), full_s2_grid(m_theta=8, m_phi=10))
    for g in grids:
        values = rng.normal(scale=1e3, size=g.shape) * 10.0 ** rng.integers(-12, 12, g.shape)
        path = tmp_path / f"field_{g.mode}.csv"
        write_field_csv(path, g, values)
        v2 = read_field_csv(path, g)
        assert np.array_equal(values, v2)
        assert np.array_equal(np.signbit(values), np.signbit(v2))

    # the benchmark size, with signed zeros, a subnormal, the float extremes
    # and integers among the values
    g = full_s2_grid(m_theta=64, m_phi=128)
    values = rng.normal(size=g.shape) * 10.0 ** rng.integers(-300, 300, g.shape)
    special = [-0.0, 0.0, 5e-324, 1e308, -1e308, 3.0, -42.0, 2.0**53]
    values.flat[: len(special)] = special
    path = tmp_path / "field_fine.csv"
    write_field_csv(path, g, values)
    v2 = read_field_csv(path, g)
    assert np.array_equal(values, v2)
    assert np.array_equal(np.signbit(values), np.signbit(v2))


def version_line(g):
    return f"# starflow-field-v1 mode={g.mode} n={g.n} m_theta={g.m_theta} m_phi={g.m_phi}"


@pytest.mark.parametrize(
    "written, other",
    [
        (axisym_grid(n=2, m_theta=8), full_s2_grid(m_theta=8, m_phi=16)),
        (axisym_grid(n=2, m_theta=8), axisym_grid(n=3, m_theta=8)),
        (axisym_grid(n=2, m_theta=8), axisym_grid(n=2, m_theta=10)),
        (full_s2_grid(m_theta=8, m_phi=16), full_s2_grid(m_theta=8, m_phi=18)),
    ],
    ids=["mode", "n", "m_theta", "m_phi"],
)
def test_field_csv_read_on_another_grid_quotes_both_lines(tmp_path, written, other):
    path = tmp_path / "field.csv"
    write_field_csv(path, written, np.zeros(written.shape))
    found, want = version_line(written), version_line(other)
    assert found != want
    with pytest.raises(ValueError) as info:
        read_field_csv(path, other)
    assert str(info.value) == f"{path} begins {found!r}; a field on this grid begins {want!r}"


def test_field_csv_read_refuses_another_column_header(tmp_path):
    g = full_s2_grid(m_theta=8, m_phi=16)
    path = tmp_path / "field.csv"
    write_field_csv(path, g, np.zeros(g.shape))
    text = path.read_bytes()
    path.write_bytes(text.replace(b"\ntheta,phi,value\r\n", b"\nrho,u,kappa_1\r\n", 1))
    assert path.read_bytes() != text
    with pytest.raises(ValueError) as info:
        read_field_csv(path, g)
    assert str(info.value) == (
        f"{path} has columns 'rho,u,kappa_1'; a field on this grid has 'theta,phi,value'"
    )


def test_field_csv_read_builds_no_grid(tmp_path, monkeypatch):
    g = full_s2_grid(m_theta=8, m_phi=16)
    values = np.arange(g.node_count, dtype=float).reshape(g.shape)
    path = tmp_path / "field.csv"
    write_field_csv(path, g, values)

    def refuse(grid, *args, **kwargs):
        raise AssertionError("read_field_csv built a Grid")

    monkeypatch.setattr(spheregrid.Grid, "__init__", refuse)
    assert np.array_equal(read_field_csv(path, g), values)


def test_field_csv_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("theta,value\n0.1,0.2\n")
    with pytest.raises(ValueError):
        read_field_csv(path, axisym_grid(n=2, m_theta=8))


def test_field_csv_rejects_truncation(tmp_path):
    g = axisym_grid(n=2, m_theta=8)
    path = tmp_path / "field.csv"
    write_field_csv(path, g, np.zeros(8))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:5]) + "\n")
    with pytest.raises(ValueError):
        read_field_csv(path, g)

    # a row in the middle with a missing or an extra column, or a value that
    # is not a number
    for row in ("0.7", "0.7,0.0,0.0", "0.7,abc"):
        path.write_text("\n".join(lines[:5] + [row] + lines[6:]) + "\n")
        with pytest.raises(ValueError):
            read_field_csv(path, g)
