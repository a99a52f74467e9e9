"""One benchmark process: set up a workload, warm up, run the timed loop.

``run.py`` starts this with the BLAS thread cap already in the environment::

    python3 corpbench/worker.py --workload accept --seed 1 --seconds 10 --trace 0

It prints ``READY`` once set-up and warm-up are done (``run.py`` times the
process from its start to that line), then one JSON line with the result.
With ``--setup-only`` it exits after ``READY``.

The loop is closed with one client: each op starts when the previous op and
its untimed output checks are done. With ``--trace 1`` odd ops run with spans
installed and even ops without, so the tracing overhead is measured on
interleaved ops.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import spans
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WARMUP_OPS = 2

E2E_UNITS = {
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "images_per_s": "1/s",
    "peak_rss_mb": "MB",
    "purity_final": "ratio",
    "fmax_final": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def import_corp():
    sys.path.insert(0, str(SRC))
    import corp
    if Path(corp.__file__).resolve().parent != (SRC / "corp").resolve():
        raise ImportError(f"imported corp from {corp.__file__}, not from {SRC}")
    return corp


def environment(seed: int) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "corp").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": commit,
        "corp_source_sha256": src.hexdigest(),
        "seed": seed,
    }


class Runner:
    """Runs ops of one workload, checks each, keeps timings and spans."""

    def __init__(self, wl, pool, tracer):
        self.wl, self.pool, self.tracer = wl, pool, tracer
        self.attempted = self.failed = 0
        self.digests: dict[int, str] = {}
        self.quality: dict[int, tuple[float, float]] = {}
        self.untraced_ns: list[int] = []
        self.traced_ns: list[int] = []
        self.layer_rows: list[dict] = []
        self.unaccounted = 0

    def run(self, i: int, traced: bool, timed: bool) -> None:
        j = i % len(self.pool)
        item = self.pool[j]
        gc.collect()
        first = len(self.tracer.spans)
        self.attempted += 1
        try:
            if traced:
                self.tracer.op = i
                with self.tracer.installed():
                    root = self.tracer.open(spans.ROOT)
                    try:
                        out = self.wl.op(item)
                    finally:
                        self.tracer.close(root)
                elapsed = root[5] - root[4]
            else:
                t0 = time.perf_counter_ns()
                out = self.wl.op(item)
                elapsed = time.perf_counter_ns() - t0
            digest = self.wl.check(item, out)
            if self.digests.setdefault(j, digest) != digest:
                raise RuntimeError(f"output of group {j} changed between ops")
            if j not in self.quality:
                self.quality[j] = self.wl.quality(item, out)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            timed = False
        op_spans = self.tracer.spans[first:]
        if timed and traced:
            total, selfs = spans.account(op_spans)
            self.unaccounted += abs(total - selfs)
            self.layer_rows.append(spans.op_metrics(op_spans))
            self.traced_ns.append(elapsed)
        elif timed:
            self.untraced_ns.append(elapsed)
        else:
            del self.tracer.spans[first:]
        for s in op_spans:
            s[6] = ()


def main(argv=None) -> int:
    args = parse_args(argv)
    import_corp()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=HERE / "_work"))
    try:
        pool = wl.setup(np.random.default_rng(args.seed), workdir)
        runner = Runner(wl, pool, spans.Tracer())
        for i in range(WARMUP_OPS):
            runner.run(i, traced=bool(args.trace) and i % 2 == 1, timed=False)
        gc.collect()
        gc.freeze()
        print("READY", flush=True)
        if args.setup_only:
            return 0

        i = WARMUP_OPS
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            runner.run(i, traced=bool(args.trace) and i % 2 == 1, timed=True)
            i += 1
        disagreements = workloads.oracle_agreement(args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in disagreements:
        print(f"oracle check: {msg}", file=sys.stderr)
    correct = runner.failed == 0 and not disagreements and runner.unaccounted == 0
    ms = [t / 1e6 for t in runner.untraced_ns]
    detail = {"ops_timed": len(ms), "unaccounted_ns": runner.unaccounted}
    if args.trace:
        traced_ms = [t / 1e6 for t in runner.traced_ns]
        metrics = {name: statistics.median([row[name] for row in runner.layer_rows])
                   for name in spans.PER_LAYER}
        metrics["bench.trace_overhead_pct"] = 100.0 * (
            statistics.median(traced_ms) / statistics.median(ms) - 1.0)
        metrics["bench.failed_ratio"] = runner.failed / runner.attempted
        units = spans.PER_LAYER
        detail["ops_traced"] = len(traced_ms)
        results = HERE / "_results"
        results.mkdir(exist_ok=True)
        with open(results / f"spans-{wl.name}-seed{args.seed}.jsonl", "w") as fh:
            for s in runner.tracer.spans:
                fh.write(json.dumps(dict(zip(("op", "id", "parent", "name", "start_ns", "end_ns"),
                                             s[:6]))) + "\n")
    else:
        tail, rank, beyond = stats.tail(ms)
        purity, fmax = (float(np.mean(v)) for v in zip(*runner.quality.values()))
        metrics = {
            "op_ms_p50": statistics.median(ms),
            "op_ms_tail": tail,
            "images_per_s": wl.n * len(ms) / (sum(ms) / 1e3),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "purity_final": purity,
            "fmax_final": fmax,
        }
        units = E2E_UNITS
        detail.update(op_ms_tail_rank_pct=rank, op_ms_tail_beyond=beyond,
                      op_ms_tail_samples=len(ms))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "detail": detail,
        "env": environment(args.seed),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
