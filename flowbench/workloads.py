"""The three benchmark workloads: seeded initial data, generated INI files and
the `starflow` command lines each round runs.

The seed chooses only initial-data parameters, inside the ranges in RANGES.
Seed 0 reproduces the bundled values exactly.  The ranges are narrow on
purpose: a wider one changes the step count, and with it the work a run
measures, more than the machine's own run-to-run noise.
"""

from __future__ import annotations

import configparser
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("axisym_converge", "aniso_converge", "aniso_fine")

# model-time window of aniso_fine: about 1,000 RK2 steps at dt = 1.2e-7
FINE_WINDOW = 1.2e-4
FINE_GRID = (64, 128)
# aniso_fine writes a mesh every second history record (cadence 100 steps)
FINE_OBJ_EVERY = 2

# (default, half width) of each seeded parameter
RANGES = {
    "axisym_converge": {"expand_radius": (1.3, 0.02), "contract_radius": (0.5, 0.01)},
    "aniso_converge": {"amplitude": (0.1, 0.005)},
    "aniso_fine": {"a_axis": (1.1, 0.001), "b_axis": (0.9, 0.001)},
}

# short windows for the untimed warm-up, a few dozen steps each
WARMUP_T_MAX = {"axisym_converge": 0.02, "aniso_converge": 0.02, "aniso_fine": 1e-6}


@dataclass
class Op:
    """One `starflow` command of a round, with what it must return."""

    name: str
    argv: list            # may hold "{out}", the round's output directory
    expect_exit: int
    config: str           # INI path the command reads
    run_dir: str = ""     # "{out}/<name>" for run commands

    def render(self, out: Path) -> list:
        return [a.replace("{out}", str(out)) for a in self.argv]

    def run_path(self, out: Path) -> Path:
        """The output directory of a run command in the round under out."""
        return Path(self.run_dir.replace("{out}", str(out)))


@dataclass
class Plan:
    workload: str
    seed: int
    params: dict
    ops: list = field(default_factory=list)


def params(workload: str, seed: int) -> dict:
    """Initial-data parameters for one seed; seed 0 gives the defaults."""
    ranges = RANGES[workload]
    if seed == 0:
        return {k: v for k, (v, _) in ranges.items()}
    rng = random.Random(f"{workload}:{seed}")
    return {k: v + w * (2.0 * rng.random() - 1.0) for k, (v, w) in sorted(ranges.items())}


def read_ini(path) -> configparser.ConfigParser:
    # the same comment handling as starflow's own parser
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path) as fh:
        cp.read_file(fh)
    return cp


def _write_ini(cp: configparser.ConfigParser, path: Path) -> str:
    with open(path, "w") as fh:
        cp.write(fh)
    return str(path)


def _set_initial(cp, **values) -> None:
    cp.remove_section("initial")
    cp.add_section("initial")
    for key, value in values.items():
        cp.set("initial", key, repr(value) if isinstance(value, float) else str(value))


def _run_op(name: str, config: str, expect_exit: int) -> Op:
    run_dir = "{out}/" + name
    return Op(name, ["run", config, "--out", run_dir], expect_exit, config, run_dir)


def prepare(root: Path, workload: str, seed: int, workdir: Path) -> Plan:
    """Write the workload's INI files into workdir and list its commands."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    configs = root / "configs"
    p = params(workload, seed)
    plan = Plan(workload, seed, p)
    workdir.mkdir(parents=True, exist_ok=True)

    if workload == "axisym_converge":
        for name, radius in (("expand", p["expand_radius"]), ("contract", p["contract_radius"])):
            cp = read_ini(configs / f"sphere_{name}.cfg")
            cp.set("flow", "tol_residual", "1e-6")
            _set_initial(cp, kind="constant", radius=radius)
            plan.ops.append(_run_op(name, _write_ini(cp, workdir / f"{name}.cfg"), 0))

    elif workload == "aniso_converge":
        cp = read_ini(configs / "aniso_s2.cfg")
        cp.set("flow", "tol_residual", "1e-6")
        _set_initial(cp, kind="perturbed", radius=1.0, amplitude=p["amplitude"])
        plan.ops.append(_run_op("aniso", _write_ini(cp, workdir / "aniso.cfg"), 0))
        # the same problem on the rotationally symmetric grid with the same
        # latitudes; the stationary profile is unique, so the limits agree
        m_theta = cp.get("grid", "m_theta")
        cp.remove_section("output")
        cp.remove_section("grid")
        cp.add_section("grid")
        for key, value in (("mode", "axisym"), ("n", "2"), ("m_theta", m_theta)):
            cp.set("grid", key, value)
        plan.ops.append(_run_op("axisym", _write_ini(cp, workdir / "axisym.cfg"), 0))

    else:
        cp = read_ini(configs / "aniso_s2.cfg")
        m_theta, m_phi = FINE_GRID
        cp.set("grid", "m_theta", str(m_theta))
        cp.set("grid", "m_phi", str(m_phi))
        # the window goes into the INI, not --t-max: cmd_run hashes the INI
        # text before applying command-line overrides
        cp.set("flow", "t_max", repr(FINE_WINDOW))
        cp.set("output", "obj_every", str(FINE_OBJ_EVERY))
        _set_initial(cp, kind="spheroid", a_axis=p["a_axis"], b_axis=p["b_axis"])
        config = _write_ini(cp, workdir / "fine.cfg")
        run = _run_op("fine", config, 3)
        plan.ops.append(run)
        plan.ops.append(
            Op(
                "curvature",
                ["curvature", run.run_dir + "/final_field.csv", config,
                 "--out", run.run_dir + "/curvature.csv"],
                0,
                config,
            )
        )
    return plan


def warmup_argv(plan: Plan, op: Op, out: Path) -> list:
    """The op's command over a few steps only, for the untimed warm-up."""
    argv = op.render(out)
    if argv[0] == "run":
        argv += ["--t-max", repr(WARMUP_T_MAX[plan.workload])]
    return argv
