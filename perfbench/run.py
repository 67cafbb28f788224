"""Benchmark entry point; run it from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``solve-33810``, ``batch-replicas``, ``serve-closed`` (see
README.md).  Each run starts the workload in fresh processes of its
own (``workload.py``): with ``--trace 0``, set-up alone twice more, so
that ``setup_s`` is the median of three set-ups.  A child that outlives
its time is killed with its whole process group.  When every child has
ended, no process the run started may remain; the run fails if one
does.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Span files
go to ``perfbench/out/``; nothing else in the checkout is written, not
even bytecode.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import procs  # noqa: E402

WORKLOADS = ("solve-33810", "batch-replicas", "serve-closed")
#: The whole run must end within this many seconds.
RUN_BUDGET = 170.0
SETUP_ONLY_RUNS = 2
SETUP_TIMEOUT = 30.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def run_workload(args, env, out_dir, deadline, setup_only, sessions) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if setup_only:
        timeout = min(timeout, SETUP_TIMEOUT)
    child = procs.run_child(cmd, env, max(timeout, 1.0), out_dir)
    sessions.add(child["session"])
    sys.stderr.write(child["stderr"])
    if child["code"] is None:
        raise RuntimeError(f"workload timed out after {timeout:.0f} s; "
                           "its process group was killed")
    lines = child["stdout"].strip().splitlines()
    if child["code"] != 0 or not lines:
        raise RuntimeError(f"workload exited with code {child['code']}")
    report = json.loads(lines[-1])
    if report.get("leaked"):
        raise RuntimeError(f"workload left processes running: {report['leaked']}")
    report["setup_s"] = report["ready"] - child["spawned_at"]
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return fail(f"no program source at {src}/repro; run from a checkout root")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    # No bytecode is written, so every set-up compiles the program's
    # modules the same way, whatever the environment.
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")

    procs.become_subreaper()
    sessions: set[int] = set()
    error = None
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_ONLY_RUNS):
                setups.append(run_workload(args, env, out_dir, deadline, True,
                                           sessions)["setup_s"])
        report = run_workload(args, env, out_dir, deadline, False, sessions)
        setups.append(report["setup_s"])
    except (RuntimeError, ValueError) as exc:
        error = str(exc)
    remaining = procs.kill_and_reap(os.getpid(), sessions)
    if remaining:
        error = ("processes still running after the workload ended: "
                 + ", ".join(str(entry["pid"]) for entry in remaining))
    if error is not None:
        return fail(error)

    metrics = report["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   **metrics}
    for error in report["errors"]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: "
          f"{report['attempted']} attempted, {report['failed']} failed, "
          f"{report['samples']} latency samples", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
