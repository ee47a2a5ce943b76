"""Shows that every output check of the benchmark fails on a corrupted output.

    python3 flowbench/selftest.py

Runs one round of each workload at seed 0 (about 40 s in all), confirms that
its outputs pass every check, then for each check corrupts a copy of the
outputs in one place and confirms that this check reports it.  Exits 1 if a
good output fails or a corruption goes unnoticed.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys
from pathlib import Path

from checks import check_op
from run import HERE, ROOT, child_env, run_worker
from workloads import prepare


def edit_csv(path: Path, row: int, column: str, fn) -> None:
    """Replace one value of a starflow CSV (one metadata line, then a header)."""
    with open(path, newline="") as fh:
        first = fh.readline()
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    rows[row][column] = repr(fn(float(rows[row][column])))
    with open(path, "w", newline="") as fh:
        fh.write(first)
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def edit_summary(path: Path, **values) -> None:
    data = json.loads(path.read_text())
    data.update(values)
    path.write_text(json.dumps(data))


def drop_line(path: Path, prefix: str) -> None:
    lines = path.read_text().splitlines(keepends=True)
    i = max(i for i, line in enumerate(lines) if line.startswith(prefix))
    path.write_text("".join(lines[:i] + lines[i + 1:]))


def first_mesh(run_dir: Path) -> Path:
    return sorted(run_dir.glob("mesh_*.obj"))[0]


# (workload, command, check expected to fail, corruption of a round directory,
#  exit code to report); each corruption touches one value or one line
CASES = [
    ("axisym_converge", "expand", "exit_code", lambda d: None, 2),
    ("axisym_converge", "expand", "summary",
     lambda d: edit_summary(d / "expand/summary.json", status="time_cap"), 0),
    ("axisym_converge", "expand", "stationary_radius",
     lambda d: edit_csv(d / "expand/final_field.csv", -1, "value", lambda v: v + 1e-4), 0),
    ("axisym_converge", "contract", "q_sign",
     lambda d: edit_csv(d / "contract/history.csv", 3, "q_max", lambda v: 1.0 + 1e-9), 0),
    ("aniso_converge", "aniso", "barriers",
     lambda d: edit_csv(d / "aniso/history.csv", 2, "rho_max", lambda v: 1.25), 0),
    ("aniso_converge", "aniso", "phi_spread",
     lambda d: edit_csv(d / "aniso/final_field.csv", 21, "value", lambda v: v + 1e-5), 0),
    ("aniso_converge", "aniso", "meshes", lambda d: drop_line(first_mesh(d / "aniso"), "f "), 0),
    ("aniso_converge", "axisym", "unique_limit",
     lambda d: edit_csv(d / "axisym/final_field.csv", 4, "value", lambda v: v + 1e-4), 0),
    ("aniso_fine", "fine", "exit_code", lambda d: None, 0),
    ("aniso_fine", "fine", "window",
     lambda d: edit_summary(d / "fine/summary.json", t_final=1.19e-4), 3),
    ("aniso_fine", "fine", "barriers",
     lambda d: edit_csv(d / "fine/history.csv", 5, "rho_min", lambda v: 0.8), 3),
    ("aniso_fine", "fine", "spheroid_record0",
     lambda d: edit_csv(d / "fine/history.csv", 0, "kappa_max", lambda v: v + 0.01), 3),
    ("aniso_fine", "fine", "meshes", lambda d: drop_line(first_mesh(d / "fine"), "v "), 3),
    ("aniso_fine", "curvature", "curvature_table",
     lambda d: edit_csv(d / "fine/curvature.csv", 100, "q_minus_1", lambda v: v + 1e-9), 0),
]


def main() -> int:
    env = child_env()
    base = HERE / "work" / f"selftest-{os.getpid()}"
    bad = 0
    try:
        for workload in dict.fromkeys(case[0] for case in CASES):
            plan = prepare(ROOT, workload, 0, base / workload)
            good = run_worker(workload, 0, base / workload, 0, 0, env)["rounds"][0]
            ops = {op.name: op for op in plan.ops}
            exits = {rec["name"]: rec["exit"] for rec in good["ops"]}
            for op in plan.ops:
                problems = check_op(plan, op, Path(good["dir"]), exits[op.name])
                print(f"{'ok  ' if not problems else 'BAD '} {workload}/{op.name}: good output "
                      f"{'passes' if not problems else 'fails: ' + '; '.join(problems)}")
                bad += bool(problems)
            for i, (w, name, check, corrupt, code) in enumerate(CASES):
                if w != workload:
                    continue
                copy = base / f"case{i}"
                shutil.copytree(good["dir"], copy)
                corrupt(copy)
                problems = check_op(plan, ops[name], copy, code)
                caught = any(f": {check}: " in p for p in problems)
                print(f"{'ok  ' if caught else 'BAD '} {workload}/{name}: corrupted output "
                      f"{'fails ' + check if caught else 'passes ' + check}")
                bad += not caught
                shutil.rmtree(copy)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"{bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
