"""Output checks of the benchmark's commands, against closed forms and
properties the method must have, never against stored copies of outputs.

The files are read with the benchmark's own parsers, not starflow's, so a
fault in a starflow reader cannot hide a fault in the matching writer.  Each
check returns None when it holds and a message when it fails; a command fails
when any of its checks does.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import FINE_WINDOW, Op, Plan, read_ini

STATIONARY_RADIUS_TOL = 1e-5   # |rho - R*| on the converged sphere runs
PHI_SPREAD_TOL = 1e-6          # spread of rho along a latitude at the limit
UNIQUE_LIMIT_TOL = 1e-5        # full-S^2 limit against the axisym limit, relative
# record-0 curvatures of the spheroid against the closed form, in units of
# dtheta^2; the discretization error measured at 64x128 is 0.26 dtheta^2
SPHEROID_KAPPA_TOL = 1.0
EXACT_TOL = 1e-12              # values that only see rounding


# ---------------------------------------------------------------------------
# readers


def read_summary(run_dir: Path) -> dict:
    with open(run_dir / "summary.json") as fh:
        return json.load(fh)


def read_history(run_dir: Path) -> list:
    with open(run_dir / "history.csv", newline="") as fh:
        if fh.readline().strip() != "starflow-history-v1":
            raise ValueError("history.csv lacks its version line")
        return [
            {k: float(v) for k, v in row.items()}
            for row in csv.DictReader(fh)
        ]


def _meta(header: str, magic: str) -> dict:
    tokens = header.split()
    if tokens[:2] != ["#", magic]:
        raise ValueError(f"not a {magic} file")
    return dict(tok.split("=", 1) for tok in tokens[2:])


def read_field(path: Path) -> tuple:
    """(metadata, rows of floats) of a starflow-field-v1 file."""
    with open(path, newline="") as fh:
        meta = _meta(fh.readline(), "starflow-field-v1")
        reader = csv.reader(fh)
        next(reader)
        rows = [[float(x) for x in row] for row in reader if row]
    return meta, rows


def read_table(path: Path) -> tuple:
    """(metadata, rows as dicts of floats) of a starflow-curvature-v1 file."""
    with open(path, newline="") as fh:
        meta = _meta(fh.readline(), "starflow-curvature-v1")
        rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    return meta, rows


def read_obj(path: Path) -> tuple:
    """(vertices, face count) of an OBJ mesh."""
    verts, faces = [], 0
    with open(path) as fh:
        for line in fh:
            if line.startswith("v "):
                verts.append(tuple(float(x) for x in line.split()[1:4]))
            elif line.startswith("f "):
                faces += 1
    return verts, faces


# ---------------------------------------------------------------------------
# closed forms


class Problem:
    """The constants of F^beta = G read from an INI file.

    Only F = sigma_k^{1/k} is supported: it is the speed of every bundled
    configuration, and F(1, ..., 1) = C(n, k)^{1/k} in closed form.
    """

    def __init__(self, config):
        cp = read_ini(config)
        if cp.get("F", "variant").strip().lower() != "sigma_k_root":
            raise ValueError("the checks support F = sigma_k_root only")
        self.k = cp.getint("F", "k")
        self.mode = cp.get("grid", "mode").strip()
        self.n = cp.getint("grid", "n", fallback=2) if self.mode == "axisym" else 2
        self.beta = cp.getfloat("flow", "beta")
        self.c = cp.getfloat("G", "c", fallback=1.0)
        self.a = cp.getfloat("G", "a")
        self.b = cp.getfloat("G", "b")
        self.psi = []
        for chunk in cp.get("G", "psi", fallback="").split(";"):
            if chunk.strip():
                s, *v = (float(x) for x in chunk.split())
                self.psi.append((s, v))
        self.eta = math.comb(self.n, self.k) ** (-self.beta / self.k)

    def sphere_radius(self, psi: float = 1.0) -> float:
        """R with eta c psi R^(a+b+beta) = 1: the sphere on which Q = 1."""
        return (self.eta * self.c * psi) ** (-1.0 / (self.a + self.b + self.beta))

    def barrier_radii(self) -> tuple:
        """Spheres at the extremes e^{-+sum|s|} of psi; exact for one factor."""
        s = sum(abs(t[0]) for t in self.psi)
        r = (self.sphere_radius(math.exp(-s)), self.sphere_radius(math.exp(s)))
        return min(r), max(r)

    def psi_at(self, theta: float, phi: float) -> float:
        xi = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
        return math.exp(sum(s * sum(x * y for x, y in zip(xi, v)) for s, v in self.psi))

    def F(self, kappa) -> float:
        e = [1.0] + [0.0] * self.k
        for x in kappa:
            for j in range(self.k, 0, -1):
                e[j] += x * e[j - 1]
        return e[self.k] ** (1.0 / self.k)

    def q(self, theta, phi, rho, u, kappa) -> float:
        g = self.c * self.psi_at(theta, phi) * u**self.a * rho**self.b
        return g * self.F(kappa) ** (-self.beta)


def spheroid_nodes(a: float, b: float, m_theta: int) -> list:
    """(rho, kappa_meridian, kappa_parallel) of the spheroid at each latitude node.

    Equatorial semi-axis a, polar semi-axis b; the meridian is the ellipse
    (a sin t, b cos t) with tan t = (b/a) tan theta.
    """
    out = []
    for i in range(m_theta):
        th = (i + 0.5) * math.pi / m_theta
        rho = a * b / math.sqrt(b * b * math.sin(th) ** 2 + a * a * math.cos(th) ** 2)
        t = math.atan2(b * math.sin(th), a * math.cos(th))
        k_mer = a * b / (a * a * math.cos(t) ** 2 + b * b * math.sin(t) ** 2) ** 1.5
        k_par = b / (a * math.sqrt(b * b * math.sin(t) ** 2 + a * a * math.cos(t) ** 2))
        out.append((rho, k_mer, k_par))
    return out


# ---------------------------------------------------------------------------
# checks; each takes a Context and returns None or a failure message


class Context:
    """One command of one round: its plan entry, exit code and output files."""

    def __init__(self, op: Op, out: Path, exit_code: int):
        self.op, self.out, self.exit_code = op, out, exit_code
        self.run_dir = op.run_path(out) if op.run_dir else None
        self.problem = Problem(op.config)


def check_exit_code(ctx):
    if ctx.exit_code != ctx.op.expect_exit:
        return f"exit code {ctx.exit_code}, expected {ctx.op.expect_exit}"


def check_summary(ctx):
    s = read_summary(ctx.run_dir)
    status = {0: "converged", 3: "time_cap"}[ctx.op.expect_exit]
    if s["status"] != status:
        return f"status {s['status']!r}, expected {status!r}"
    missing = [f for f in s["files"] if not (ctx.run_dir / f).is_file()]
    if missing:
        return f"files listed but not written: {missing}"
    if status == "converged" and not s["final_residual"] <= read_ini(ctx.op.config).getfloat(
        "flow", "tol_residual"
    ):
        return f"converged with residual {s['final_residual']}"


def check_stationary_radius(ctx):
    r_star = ctx.problem.sphere_radius()
    _, rows = read_field(ctx.run_dir / "final_field.csv")
    worst = max(abs(math.exp(row[-1]) - r_star) for row in rows)
    if not worst <= STATIONARY_RADIUS_TOL:
        return f"max |rho - {r_star:.12g}| = {worst:.3e} > {STATIONARY_RADIUS_TOL:g}"


def check_q_sign(ctx):
    history = read_history(ctx.run_dir)
    first = history[0]
    if first["q_max"] < 1.0:
        bad = [h["step"] for h in history if not h["q_max"] < 1.0]
    elif first["q_min"] > 1.0:
        bad = [h["step"] for h in history if not h["q_min"] > 1.0]
    else:
        return "Q - 1 has no single sign at record 0"
    if bad:
        return f"Q - 1 changed sign at steps {bad[:5]}"


def check_barriers(ctx):
    r1, r2 = ctx.problem.barrier_radii()
    for h in read_history(ctx.run_dir):
        if not (r1 <= h["rho_min"] and h["rho_max"] <= r2):
            return (
                f"rho range [{h['rho_min']!r}, {h['rho_max']!r}] left "
                f"[{r1!r}, {r2!r}] at step {int(h['step'])}"
            )
    _, rows = read_field(ctx.run_dir / "final_field.csv")
    rho = [math.exp(row[-1]) for row in rows]
    if not (r1 <= min(rho) and max(rho) <= r2):
        return f"final rho range [{min(rho)!r}, {max(rho)!r}] left [{r1!r}, {r2!r}]"


def check_phi_spread(ctx):
    meta, rows = read_field(ctx.run_dir / "final_field.csv")
    m_phi = int(meta["m_phi"])
    worst = 0.0
    for i in range(0, len(rows), m_phi):
        rho = [math.exp(row[-1]) for row in rows[i : i + m_phi]]
        worst = max(worst, max(rho) - min(rho))
    if not worst <= PHI_SPREAD_TOL:
        return f"rho varies by {worst:.3e} > {PHI_SPREAD_TOL:g} along a latitude"


def check_unique_limit(ctx):
    _, s2 = read_field(ctx.out / "aniso" / "final_field.csv")
    _, ax = read_field(ctx.run_dir / "final_field.csv")
    by_theta = {row[0]: math.exp(row[1]) for row in ax}
    worst = max(abs(math.exp(row[2]) / by_theta[row[0]] - 1.0) for row in s2)
    if not worst <= UNIQUE_LIMIT_TOL:
        return f"full-S2 and axisym limits differ by {worst:.3e} > {UNIQUE_LIMIT_TOL:g}"


def check_window(ctx):
    t = read_summary(ctx.run_dir)["t_final"]
    if t != FINE_WINDOW:
        return f"t_final = {t!r}, expected the window {FINE_WINDOW!r}"


def check_spheroid_record0(ctx):
    cp = read_ini(ctx.op.config)
    a, b = cp.getfloat("initial", "a_axis"), cp.getfloat("initial", "b_axis")
    m_theta = cp.getint("grid", "m_theta")
    nodes = spheroid_nodes(a, b, m_theta)
    first = read_history(ctx.run_dir)[0]
    if first["step"] != 0:
        return "history does not start at step 0"
    rho = [n[0] for n in nodes]
    for key, exact in (("rho_min", min(rho)), ("rho_max", max(rho))):
        if not abs(first[key] - exact) <= EXACT_TOL * exact:
            return f"record 0 {key} = {first[key]!r}, closed form {exact!r}"
    kappa = [k for n in nodes for k in n[1:]]
    tol = SPHEROID_KAPPA_TOL * (math.pi / m_theta) ** 2
    for key, exact in (("kappa_min", min(kappa)), ("kappa_max", max(kappa))):
        if not abs(first[key] - exact) <= tol:
            return f"record 0 {key} = {first[key]!r}, closed form {exact!r}, tol {tol:.3e}"


def check_meshes(ctx):
    s = read_summary(ctx.run_dir)
    cp = read_ini(ctx.op.config)
    m_theta, m_phi = cp.getint("grid", "m_theta"), cp.getint("grid", "m_phi")
    every = cp.getint("output", "obj_every")
    meshes = sorted(f for f in s["files"] if f.startswith("mesh_"))
    expected = (s["records"] + every - 1) // every
    if len(meshes) != expected:
        return f"{len(meshes)} meshes for {s['records']} records, expected {expected}"
    r1, r2 = ctx.problem.barrier_radii()
    for name in meshes:
        verts, faces = read_obj(ctx.run_dir / name)
        if len(verts) != m_theta * m_phi or faces != (m_theta - 1) * m_phi:
            return f"{name}: {len(verts)} vertices and {faces} faces"
        radii = [math.sqrt(x * x + y * y + z * z) for x, y, z in verts]
        if not (r1 <= min(radii) and max(radii) <= r2):
            return f"{name}: vertex radii [{min(radii)!r}, {max(radii)!r}] left [{r1!r}, {r2!r}]"


def check_curvature_table(ctx):
    _, field_path, _, _, table_path = ctx.op.render(ctx.out)
    fmeta, field = read_field(Path(field_path))
    meta, rows = read_table(Path(table_path))
    if meta != fmeta or len(rows) != len(field):
        return f"table grid {meta} with {len(rows)} rows, field grid {fmeta} with {len(field)}"
    p = ctx.problem
    for row, node in zip(rows, field):
        where = f"node theta={row['theta']!r} phi={row['phi']!r}"
        if (row["theta"], row["phi"]) != tuple(node[:2]) or row["cone_ok"] != 1.0:
            return f"{where}: wrong node or outside the cone"
        if not abs(row["rho"] - math.exp(node[2])) <= EXACT_TOL * row["rho"]:
            return f"{where}: rho {row['rho']!r} is not exp(gamma) of the field"
        kappa = (row["kappa_1"], row["kappa_2"])
        if not abs(row["f"] - p.F(kappa)) <= EXACT_TOL * row["f"]:
            return f"{where}: f {row['f']!r} is not F(kappa) = {p.F(kappa)!r}"
        q = p.q(row["theta"], row["phi"], row["rho"], row["u"], kappa)
        if not abs(row["q_minus_1"] - (q - 1.0)) <= EXACT_TOL:
            return f"{where}: q_minus_1 {row['q_minus_1']!r}, recomputed {q - 1.0!r}"


_SPHERE = [check_exit_code, check_summary, check_stationary_radius, check_q_sign]
CHECKS = {
    ("axisym_converge", "expand"): _SPHERE,
    ("axisym_converge", "contract"): _SPHERE,
    ("aniso_converge", "aniso"): [
        check_exit_code, check_summary, check_barriers, check_phi_spread, check_meshes,
    ],
    ("aniso_converge", "axisym"): [
        check_exit_code, check_summary, check_barriers, check_unique_limit,
    ],
    ("aniso_fine", "fine"): [
        check_exit_code, check_summary, check_window, check_barriers,
        check_spheroid_record0, check_meshes,
    ],
    ("aniso_fine", "curvature"): [check_exit_code, check_curvature_table],
}


def check_op(plan: Plan, op: Op, out: Path, exit_code: int) -> list:
    """Failure messages of one command, each prefixed by the check's name."""
    ctx = Context(op, out, exit_code)
    failures = []
    for check in CHECKS[(plan.workload, op.name)]:
        name = check.__name__[len("check_"):]
        try:
            message = check(ctx)
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            message = f"unreadable output: {type(exc).__name__}: {exc}"
        if message:
            failures.append(f"{plan.workload}/{op.name}: {name}: {message}")
    return failures
