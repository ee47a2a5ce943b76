"""Time to solution of `starflow`, end to end and per module.

    python3 flowbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root or anywhere else; paths are resolved from this
file.  The workloads are axisym_converge, aniso_converge and aniso_fine (see
workloads.py and README.md).  The last line of standard output is one JSON
object: correct, attempted, failed and the metrics listed in BENCHMARK.json,
the end-to-end ones with --trace 0 and the per-layer ones with --trace 1.
Each run also appends a record to flowbench/results/<workload>.jsonl.

A run does, one process after another:
  1. one untimed and SETUP_SAMPLES / 2 timed fresh interpreters that import
     starflow.cli, parse the configurations and build the initial data;
  2. one worker process (worker.py) that runs whole rounds of the workload's
     commands for --seconds, and with --trace 1 one traced round after them;
  3. SETUP_SAMPLES / 2 more timed set-up interpreters, and with --trace 1 one
     untimed one under `python -X importtime`;
  4. the output checks of every command (checks.py), in this process.

Every timed command sits between two passes of a fixed reference kernel and
every timed set-up interpreter between two reference interpreters
(reference.py).  Each wall time is scaled to the machine speed at which its
reference takes its nominal time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_op
from reference import START_NOMINAL_S, reference_start, scale
from workloads import WORKLOADS, prepare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 6
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150
# numpy may link a threaded BLAS; one thread keeps runs comparable on a small machine
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _import_cumulative_s(importtime_log: str, module: str) -> float:
    """Cumulative import time of one module from `python -X importtime` output."""
    for line in importtime_log.splitlines():
        if line.startswith("import time:"):
            parts = line[len("import time:"):].split("|")
            if len(parts) == 3 and parts[2].strip() == module:
                return int(parts[1]) / 1e6
    return 0.0


def setup_samples(configs: list, env: dict, count: int, warm: bool) -> dict:
    """Timed set-up interpreters, each scaled by reference interpreters around it."""
    cmd = [sys.executable, str(HERE / "setup_probe.py")] + configs
    walls, scaled, imports = [], [], []
    ref_before = reference_start(env, PROBE_TIMEOUT_S)
    for i in range(count + warm):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"set-up probe exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        ref_after = reference_start(env, PROBE_TIMEOUT_S)
        if not (warm and i == 0):  # the untimed first one fills the bytecode and file caches
            walls.append(wall)
            scaled.append(scale(wall, [ref_before, ref_after], START_NOMINAL_S))
            imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
        ref_before = ref_after
    return {"walls": walls, "scaled": scaled, "imports": imports}


def import_scipy_s(configs: list, env: dict) -> float:
    """Import time of scipy.optimize in one untimed `python -X importtime` set-up."""
    cmd = [sys.executable, "-X", "importtime", str(HERE / "setup_probe.py")] + configs
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return _import_cumulative_s(proc.stderr, "scipy.optimize")


def run_worker(workload: str, seed: int, workdir: Path, seconds: int, trace: int,
               env: dict) -> dict:
    result_path = workdir / "worker_result.json"
    log_path = workdir / "worker.log"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(workdir),
           str(seconds), str(trace), str(result_path)]
    with open(log_path, "w") as log:
        proc = subprocess.run(cmd, env=env, stdout=log, stderr=subprocess.STDOUT,
                              timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{log_path.read_text()[-3000:]}")
    result = json.loads(result_path.read_text())
    if not Path(result["starflow"]).is_relative_to(ROOT / "src"):
        raise BenchError(f"worker imported starflow from {result['starflow']}, not {ROOT / 'src'}")
    return result


def layer_metric(name: str, traced: dict, solve_s: float, setup: dict) -> float:
    """A per-layer metric by name: '<module>.<function>.<stat>' or '<module>.self_s'.

    A function that the traced round never called reads 0: it spent no time
    and made no calls.
    """
    funcs = traced["functions"]
    steps = traced["steps"]
    assemble_s = funcs.get("geometry.assemble", {}).get("total_ns", 0) * 1e-9
    special = {
        "flow.steps": lambda: steps,
        "flow.dt_min": lambda: traced["dt_min"],
        "geometry.assemble.mnodes_per_s": lambda: traced["assemble_nodes"] / assemble_s / 1e6
        if assemble_s else 0.0,
        "setup.import_s": lambda: statistics.median(setup["imports"]),
        "setup.import_scipy_s": lambda: setup["scipy"],
        "trace.overhead_s": lambda: traced["scaled"] - solve_s,
        "src.lines": lambda: sum(
            len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")
        ),
    }
    if name in special:
        return special[name]()
    module, rest = name.split(".", 1)
    if rest == "self_s":
        return sum(f["self_ns"] for k, f in funcs.items() if k.startswith(module + ".")) * 1e-9
    function, stat = rest.rsplit(".", 1)
    f = funcs.get(f"{module}.{function}")
    if f is None:
        return 0.0
    return {
        "us": lambda: f["median_ns"] * 1e-3,
        "ms": lambda: f["median_ns"] * 1e-6,
        "us_p99": lambda: f["p99_ns"] * 1e-3,
        "calls_per_step": lambda: f["calls"] / steps,
    }[stat]()


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = child_env()
    workdir = HERE / "work" / f"{workload}-{os.getpid()}"
    try:
        plan = prepare(ROOT, workload, seed, workdir)
        # half the set-up samples before the worker and half after it, so
        # that they see the machine at two times, as the rounds do
        configs = [op.config for op in plan.ops if op.run_dir]
        before = setup_samples(configs, env, SETUP_SAMPLES // 2, warm=True)
        worker = run_worker(workload, seed, workdir, seconds, trace, env)
        after = setup_samples(configs, env, SETUP_SAMPLES // 2, warm=False)
        setup = {k: before[k] + after[k] for k in before}
        if trace:
            setup["scipy"] = import_scipy_s(configs, env)

        rounds = worker["rounds"] + ([worker["traced"]] if trace else [])
        attempted = failed = 0
        for rnd in rounds:
            for op, rec in zip(plan.ops, rnd["ops"], strict=True):
                problems = check_op(plan, op, Path(rnd["dir"]), rec["exit"])
                attempted += 1
                failed += bool(problems)
                for problem in problems:
                    print(f"check failed: {problem}", file=sys.stderr)
        solve_s = statistics.median(r["scaled"] for r in worker["rounds"])
        if trace:
            metrics = {
                m["name"]: {"value": layer_metric(m["name"], worker["traced"], solve_s, setup),
                            "unit": m["unit"]}
                for m in spec["per_layer"]
            }
        else:
            values = {
                "setup_s": statistics.median(setup["scaled"]),
                "solve_s": solve_s,
                "peak_rss_mb": worker["maxrss_kb"] / 1024.0,
            }
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        record = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "params": plan.params, "setup_walls_s": setup["walls"],
            "setup_scaled_s": setup["scaled"],
            "rounds_s": [r["seconds"] for r in worker["rounds"]],
            "rounds_scaled_s": [r["scaled"] for r in worker["rounds"]],
            "ops": [r["ops"] for r in worker["rounds"]],
            "result": result,
        }
        if trace:
            record["spans"] = worker["traced"]["functions"]
        return result, record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the
    # running child and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    missing = [p for p in ("src/starflow/cli.py", "configs", "BENCHMARK.json")
               if not (ROOT / p).exists()]
    if missing:
        print(f"flowbench: not a starflow checkout, missing {missing} under {ROOT}",
              file=sys.stderr)
        return 2
    try:
        result, record = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"flowbench: {exc}", file=sys.stderr)
        return 1
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    with open(results / f"{args.workload}.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
