"""corp benchmark: one workload, end-to-end or traced, from a source checkout.

Usage, from the repository root::

    python3 corpbench/run.py --workload accept --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run. The last line of standard output is the
result, ``{"correct", "attempted", "failed", "metrics"}``. The full record,
with the machine environment, is written to ``corpbench/_results/``.

This script imports neither numpy nor corp. It caps BLAS threads at the
number of CPUs this process may use and starts ``worker.py`` processes with
that cap. Set-up time is the median, over ``SETUP_SAMPLES`` fresh processes,
of the time from starting a process to its ``READY`` line; the last of them
goes on to the timed loop.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("accept", "wide", "cli_run", "eval224")
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_env() -> dict:
    cap = str(len(os.sched_getaffinity(0)))
    return {**os.environ, "OPENBLAS_NUM_THREADS": cap, "OMP_NUM_THREADS": cap,
            "MKL_NUM_THREADS": cap}


def start_worker(args, setup_only: bool, deadline: float) -> tuple[float, str]:
    """Run one worker; return (seconds from start to READY, remaining stdout)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=blas_env(), cwd=ROOT)
    killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode} ({'after' if ready else 'before'} set-up)")
    return setup_s, rest


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "corp" / "__init__.py").is_file():
        print(f"error: no corp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setups = [start_worker(args, True, deadline)[0]
                  for _ in range(SETUP_SAMPLES - 1 if args.trace == 0 else 0)]
        setup_s, out = start_worker(args, False, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = json.loads(out.strip().splitlines()[-1])
    if args.trace == 0:
        setups.append(setup_s)
        record["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        record["detail"]["setup_s_samples"] = setups
    results = HERE / "_results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({"args": vars(args), **record}, indent=1) + "\n")
    print(json.dumps({"env": record["env"], "detail": record["detail"]}))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
