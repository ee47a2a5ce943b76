"""Byte format of the per-node text outputs, and their memory use.

The references below are the straightforward per-node writers: csv.writer
rows of repr(float(x)) for the field and curvature tables, and one formatted
line per OBJ vertex and face.  The production writers format whole latitude
rows at once and must produce the same bytes: an LF-terminated version line,
CRLF-terminated CSV rows, and OBJ vertices to 9 significant digits.
"""

import csv
import tracemalloc

import numpy as np
import pytest

from starflow import cli, geometry, speed, symfunc
from starflow.spheregrid import axisym_grid, full_s2_grid, write_field_csv

AXISYM_CFG = """\
[flow]
beta = 2.0
psi_mode = neg_reciprocal
t_max = 1.0
tol_residual = 1e-6
cadence = 50

[F]
variant = sigma_k_root
k = 2

[G]
c = 1.0
a = 0.0
b = -3.0

[grid]
mode = axisym
n = 3
m_theta = 24

[initial]
kind = constant
radius = 0.5
"""

FULL_S2_CFG = """\
[flow]
beta = 1.0
psi_mode = identity
t_max = 1.0
tol_residual = 1e-6
cadence = 4

[F]
variant = sigma_k_root
k = 2

[G]
c = 1.0
a = 0.0
b = -2.0
psi = 0.2 0 0 1

[grid]
mode = full_s2
m_theta = 8
m_phi = 16

[initial]
kind = spheroid
a_axis = 1.1
b_axis = 0.9
"""


def reference_field_csv(path, grid, values):
    with open(path, "w", newline="") as fh:
        fh.write(
            f"# starflow-field-v1 mode={grid.mode} n={grid.n}"
            f" m_theta={grid.m_theta} m_phi={grid.m_phi}\n"
        )
        writer = csv.writer(fh)
        if grid.mode == "axisym":
            writer.writerow(["theta", "value"])
            for i in range(grid.m_theta):
                writer.writerow([repr(float(grid.theta[i])), repr(float(values[i]))])
        else:
            writer.writerow(["theta", "phi", "value"])
            for i in range(grid.m_theta):
                for j in range(grid.m_phi):
                    writer.writerow(
                        [
                            repr(float(grid.theta[i])),
                            repr(float(grid.phi[j])),
                            repr(float(values[i, j])),
                        ]
                    )


def reference_obj(path, state):
    m, mp = state.grid.m_theta, state.grid.m_phi
    with open(path, "w") as fh:
        fh.write("# starflow surface export\n")
        for v in state.X.reshape(m * mp, 3):
            fh.write(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        for i in range(m - 1):
            for j in range(mp):
                jn = (j + 1) % mp
                a = i * mp + j + 1
                b = i * mp + jn + 1
                c = (i + 1) * mp + jn + 1
                d = (i + 1) * mp + j + 1
                fh.write(f"f {a} {b} {c} {d}\n")


def reference_curvature_table(path, cfg, grid, gamma):
    geom = geometry.assemble(grid, gamma)
    mask = symfunc.in_cone(geom.kappa, symfunc.natural_cone(cfg.F))
    G = cfg.G
    with np.errstate(invalid="ignore", divide="ignore"):
        f_all = symfunc.F_eval(cfg.F, geom.kappa)
        g_all = G.c * speed.psi_eval(G, grid.xi) * geom.u**G.a * geom.rho**G.b
        q_all = g_all * f_all ** (-cfg.beta)
    f_val = np.where(mask, f_all, np.nan).reshape(-1)
    q = np.where(mask, q_all, np.nan).reshape(-1)
    n = grid.n
    with open(path, "w", newline="") as fh:
        fh.write(
            f"# starflow-curvature-v1 mode={grid.mode} n={n} "
            f"m_theta={grid.m_theta} m_phi={grid.m_phi}\n"
        )
        writer = csv.writer(fh)
        angle_cols = ["theta"] if grid.mode == "axisym" else ["theta", "phi"]
        writer.writerow(
            angle_cols
            + ["rho", "u"]
            + [f"kappa_{i + 1}" for i in range(n)]
            + ["f", "q_minus_1", "cone_ok"]
        )
        kappa = geom.kappa.reshape(-1, n)
        rho, u, ok = geom.rho.reshape(-1), geom.u.reshape(-1), mask.reshape(-1)
        for idx in range(grid.node_count):
            if grid.mode == "axisym":
                angles = [repr(float(grid.theta[idx]))]
            else:
                i, j = divmod(idx, grid.m_phi)
                angles = [repr(float(grid.theta[i])), repr(float(grid.phi[j]))]
            writer.writerow(
                angles
                + [repr(float(rho[idx])), repr(float(u[idx]))]
                + [repr(float(x)) for x in kappa[idx]]
                + [repr(float(f_val[idx])), repr(float(q[idx] - 1.0)), int(ok[idx])]
            )


def wavy_gamma(grid):
    """A star-shaped profile whose curvatures leave the cone at some nodes."""
    if grid.mode == "axisym":
        return 0.6 * np.cos(5 * grid.theta)
    theta, phi = grid.theta[:, None], grid.phi[None, :]
    return 0.6 * np.cos(5 * theta) + 0.3 * np.sin(3 * phi) * np.sin(theta)


def test_field_csv_bytes_match_the_reference_writer(tmp_path):
    rng = np.random.default_rng(3)
    for grid in (axisym_grid(n=3, m_theta=24), full_s2_grid(m_theta=8, m_phi=16)):
        values = rng.normal(size=grid.shape) * 10.0 ** rng.integers(-20, 20, grid.shape)
        values.flat[:4] = [-0.0, np.nan, np.inf, 5e-324]
        write_field_csv(tmp_path / "new.csv", grid, values)
        reference_field_csv(tmp_path / "ref.csv", grid, values)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "ref.csv").read_bytes(), grid.mode
        assert new.count(b"\r\n") == grid.node_count + 1
        assert new.startswith(b"# starflow-field-v1 mode=%s " % grid.mode.encode())


def test_obj_bytes_match_the_reference_writer(tmp_path):
    grid = full_s2_grid(m_theta=8, m_phi=16)
    geom = geometry.assemble(grid, wavy_gamma(grid))
    geometry.export_obj(tmp_path / "new.obj", geom)
    reference_obj(tmp_path / "ref.obj", geom)
    new = (tmp_path / "new.obj").read_bytes()
    assert new == (tmp_path / "ref.obj").read_bytes()
    assert new.count(b"\nv ") == grid.node_count
    assert new.count(b"\nf ") == (grid.m_theta - 1) * grid.m_phi


SIGMA_2 = "variant = sigma_k_root\nk = 2"
CURVATURE_CFGS = {
    "axisym": AXISYM_CFG,
    "full_s2": FULL_S2_CFG,
    "quotient_root": AXISYM_CFG.replace(SIGMA_2, "variant = quotient_root\nk = 2\nl = 1"),
    "power_mean": FULL_S2_CFG.replace(SIGMA_2, "variant = power_mean\np = -1"),
    "product": AXISYM_CFG.replace(
        SIGMA_2, "variant = product\nterms = 0.7*sigma_k_root(3), 0.3*power_mean(-1)"
    ),
    "support_and_psi": FULL_S2_CFG.replace("a = 0.0", "a = -0.5").replace(
        "psi = 0.2 0 0 1", "psi = 0.2 0 0 1; 0.3 0.6 0 0.8"
    ),
}


@pytest.mark.parametrize("text", CURVATURE_CFGS.values(), ids=CURVATURE_CFGS.keys())
def test_curvature_table_bytes_match_the_reference_writer(tmp_path, capsys, text):
    config = tmp_path / "c.cfg"
    config.write_text(text)
    cfg = cli.parse_config(config).config
    gamma = wavy_gamma(cfg.grid)
    field = tmp_path / "field.csv"
    write_field_csv(field, cfg.grid, gamma)
    table = tmp_path / "new.csv"
    assert cli.main(["curvature", str(field), str(config), "--out", str(table)]) == 0
    capsys.readouterr()
    reference_curvature_table(tmp_path / "ref.csv", cfg, cfg.grid, gamma)
    new = table.read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    # both kinds of node are present: nan f and q - 1 with cone_ok 0 outside
    rows = new.split(b"\r\n")[1:-1]
    outside = [r for r in rows if r.endswith(b",0")]
    assert outside and len(outside) < len(rows)
    assert all(r.endswith(b",nan,nan,0") for r in outside)


def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writers_stream_at_the_benchmark_size(tmp_path):
    # 64x128: a writer that holds the whole table as one string needs several
    # MB; one latitude row at a time stays far below 1 MB
    grid = full_s2_grid(m_theta=64, m_phi=128)
    gamma = 0.05 * wavy_gamma(grid)
    geom = geometry.assemble(grid, gamma)
    assert peak_bytes(lambda: write_field_csv(tmp_path / "f.csv", grid, gamma)) <= 1e6
    assert peak_bytes(lambda: geometry.export_obj(tmp_path / "m.obj", geom)) <= 1e6
