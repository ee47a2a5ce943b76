"""The workload's own process: runs its `starflow` commands through
`starflow.cli.main` and writes their timings and exit codes as JSON.

    python3 worker.py WORKLOAD SEED WORKDIR SECONDS TRACE RESULT.json

The worker rebuilds the workload's plan with workloads.prepare, which is
deterministic in its arguments.  One untimed warm-up pass runs every command
over a few steps.  Then whole rounds of the commands repeat while the next one
is expected to end within SECONDS, with a garbage collection before each
timed command.  A pass of the reference kernel (reference.py) runs before
and after each timed command, and every reference.SAMPLE_EVERY_S seconds
during it from a SIGALRM handler.  The passes during a command are taken out
of its wall time, and all of its passes scale it.  With TRACE=1 one more
round runs with spans around every public starflow function (see tracer.py).
"""

from __future__ import annotations

import gc
import json
import math
import resource
import signal
import sys
import time
from pathlib import Path

from reference import SAMPLE_EVERY_S, reference, scale
from tracer import Tracer
from workloads import Plan, prepare, warmup_argv

from starflow import cli

ROOT = Path(__file__).resolve().parent.parent


def timed_command(argv: list) -> dict:
    """Run one command with reference passes around it and every SAMPLE_EVERY_S in it."""
    during = []

    def sample(signum, frame):
        during.append(reference())

    gc.collect()
    before = reference()
    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    after = reference()
    refs = [before, *during, after]
    seconds = wall - sum(during)
    return {"exit": code, "seconds": seconds,
            "scaled": scale(seconds, refs), "ref_s": refs}


def timed_round(plan: Plan, out: Path) -> dict:
    ops = [dict(name=op.name, **timed_command(op.render(out))) for op in plan.ops]
    return {"dir": str(out), "ops": ops,
            "seconds": sum(op["seconds"] for op in ops),
            "scaled": sum(op["scaled"] for op in ops)}


def traced_round(plan: Plan, out: Path) -> dict:
    acc = {"dt_min": math.inf, "assemble_nodes": 0}

    def on_cfl_dt(args, dt):
        acc["dt_min"] = min(acc["dt_min"], dt)

    def on_assemble(args, state):
        acc["assemble_nodes"] += state.gamma.size

    tracer = Tracer(hooks={"flow.cfl_dt": on_cfl_dt, "geometry.assemble": on_assemble})
    tracer.install()
    try:
        result = timed_round(plan, out)
    finally:
        tracer.uninstall()
    steps = sum(json.loads((op.run_path(out) / "summary.json").read_text())["steps"]
                for op in plan.ops if op.run_dir)
    result.update(functions=tracer.reduce(), steps=steps, **acc)
    return result


def main(argv) -> int:
    workload, seed, workdir, seconds, trace, result_path = argv
    workdir = Path(workdir)
    plan = prepare(ROOT, workload, int(seed), workdir)

    for op in plan.ops:
        cli.main(warmup_argv(plan, op, workdir / "warmup"))

    # whole rounds only, and none that would end after SECONDS (the first
    # always runs), so a run's length does not depend on the machine's speed
    rounds = []
    t_start = time.perf_counter()
    while True:
        rounds.append(timed_round(plan, workdir / f"round{len(rounds)}"))
        elapsed = time.perf_counter() - t_start
        if elapsed * (len(rounds) + 1) / len(rounds) > float(seconds):
            break
    result = {
        "rounds": rounds,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "starflow": str(Path(cli.__file__).resolve()),
    }
    if trace == "1":
        result["traced"] = traced_round(plan, workdir / "traced")
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
