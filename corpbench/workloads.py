"""The four workloads: inputs, the op, its output checks and its quality.

An op is one group: build the group and run the pipeline (``accept``,
``wide``), one ``corp run`` (``cli_run``) or one ``corp eval`` (``eval224``).
Calls go through module attributes (``pipeline.run_pipeline``, ``cli.main``)
so that spans installed by ``spans.Tracer`` see them.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import corp.cli as cli
import corp.pipeline as pipeline
from corp import oracles
from corp.metrics import evaluate, f_measure_curve
from corp.search import correlation_transform, purity_proportion
from corp.storage import read_map_pgm, write_map_pgm, write_tensor
from corp.types import FeatureGroup, MapGroup, PipelineConfig

import inputs

# Oracle tolerances of the acceptance suite (criteria 1 and 6).
CORRELATION_TOL = 1e-5
METRIC_TOL = 1e-6


class CheckError(Exception):
    """An op's output failed a check."""


def _check_maps(maps: np.ndarray, shape: tuple) -> None:
    if maps.shape != shape:
        raise CheckError(f"final maps have shape {maps.shape}, expected {shape}")
    if not np.all(np.isfinite(maps)) or maps.min() < 0.0 or maps.max() > 1.0:
        raise CheckError("final maps leave [0, 1]")


def _fmax(maps: np.ndarray, gt: np.ndarray) -> float:
    return float(f_measure_curve(MapGroup(maps), MapGroup(gt)).max())


@dataclass
class InProcess:
    """Build FeatureGroup and MapGroup from raw arrays, then run_pipeline."""

    name: str
    n: int
    d: int
    k: int
    iters: int
    pool_size: int
    h: int = 28
    w: int = 28

    def setup(self, rng, workdir: Path) -> list:
        self.cfg = PipelineConfig(k=self.k, iters=self.iters)
        return inputs.pipeline_pool(rng, self.pool_size, self.n, self.d, self.h, self.w)

    def op(self, g):
        features = FeatureGroup(g.embeddings)
        init = MapGroup(g.init)
        return pipeline.run_pipeline(features, init, self.cfg)

    def check(self, g, trace) -> str:
        if len(trace) != self.iters:
            raise CheckError(f"trace has {len(trace)} iterations, expected {self.iters}")
        final = trace.records[-1]
        _check_maps(final.maps.maps, (self.n, self.h, self.w))
        return hashlib.sha256(final.maps.maps.tobytes() + final.corep.coords.tobytes()).hexdigest()

    def quality(self, g, trace) -> tuple[float, float]:
        final = trace.records[-1]
        purity = purity_proportion(final.corep, MapGroup(g.gt))
        return purity, _fmax(final.maps.maps, g.gt)


@dataclass
class CliRun:
    """``corp run --gt --trace --dump-scores`` on CRPT features and 224x224 PGM maps."""

    name: str = "cli_run"
    n: int = 10
    d: int = 256
    k: int = 32
    iters: int = 3
    pool_size: int = 4
    h: int = 28
    w: int = 28
    scale: int = 8

    def setup(self, rng, workdir: Path) -> list:
        self.sink = io.StringIO()
        groups = inputs.pipeline_pool(rng, self.pool_size, self.n, self.d, self.h, self.w)
        items = []
        for j, g in enumerate(groups):
            base = workdir / f"group{j}"
            dirs = {sub: base / sub for sub in ("features", "init", "gt", "out")}
            for path in dirs.values():
                path.mkdir(parents=True)
            init = inputs.upsample(g.init, self.scale)
            gt = inputs.upsample(g.gt, self.scale)
            for i in range(self.n):
                stem = f"img_{i:03d}"
                write_tensor(dirs["features"] / f"{stem}.crpt", g.embeddings[i])
                write_map_pgm(dirs["init"] / f"{stem}.pgm", init[i])
                write_map_pgm(dirs["gt"] / f"{stem}.pgm", gt[i])
            argv = [
                "run", "--features", str(dirs["features"]), "--init-maps", str(dirs["init"]),
                "--gt", str(dirs["gt"]), "--out", str(dirs["out"]), "--k", str(self.k),
                "--iters", str(self.iters), "--trace", "--dump-scores", str(base / "scores.csv"),
            ]
            items.append((argv, dirs["out"], base / "scores.csv", g.gt))
        return items

    def op(self, item) -> int:
        with contextlib.redirect_stdout(self.sink):
            return cli.main(item[0])

    def check(self, item, code) -> str:
        self.sink.seek(0)
        self.sink.truncate()
        _, out, scores, _ = item
        if code != 0:
            raise CheckError(f"corp run exited {code}")
        paths = sorted(out.glob("*.pgm")) + sorted((out / "trace").rglob("*.pgm"))
        if len(paths) != self.n * (1 + self.iters):
            raise CheckError(f"corp run wrote {len(paths)} maps")
        _check_maps(np.stack([read_map_pgm(p) for p in paths[:self.n]]), (self.n, self.h, self.w))
        lines = (out / "trace" / "trace.jsonl").read_bytes()
        if lines.count(b"\n") != self.iters:
            raise CheckError("trace.jsonl does not have one line per iteration")
        dump = scores.read_bytes()
        if dump.count(b"\n") != 1 + self.iters * self.n * self.h * self.w:
            raise CheckError("score dump has the wrong number of rows")
        digest = hashlib.sha256(lines + dump)
        for p in paths:
            digest.update(p.read_bytes())
        return digest.hexdigest()

    def quality(self, item, code) -> tuple[float, float]:
        _, out, _, gt = item
        last = (out / "trace" / "trace.jsonl").read_text().splitlines()[-1]
        final = np.stack([read_map_pgm(p) for p in sorted(out.glob("*.pgm"))])
        return float(json.loads(last)["purity"]), _fmax(final, gt)


@dataclass
class Eval224:
    """``corp eval`` on one group of 224x224 soft predictions against binary GT.

    There is no selection here, so ``purity_final`` is the purity of the
    predictions' own foreground (pred >= 0.5 on GT foreground): it depends on
    the inputs only. ``fmax_final`` is the group F-max that ``corp eval`` wrote.
    """

    name: str = "eval224"
    n: int = 10
    pool_size: int = 4
    h: int = 224
    w: int = 224

    def setup(self, rng, workdir: Path) -> list:
        self.sink = io.StringIO()
        items = []
        for j, g in enumerate(inputs.eval_pool(rng, self.pool_size, self.n, self.h, self.w)):
            base = workdir / f"group{j}"
            for sub, maps in (("pred", g.pred), ("gt", g.gt)):
                (base / sub).mkdir(parents=True)
                for i in range(self.n):
                    write_map_pgm(base / sub / f"img_{i:03d}.pgm", maps[i])
            argv = ["eval", "--pred", str(base / "pred"), "--gt", str(base / "gt"),
                    "--out", str(base / "metrics.csv")]
            fg = g.pred >= 0.5
            purity = float((fg & (g.gt >= 0.5)).sum() / fg.sum())
            items.append((argv, base / "metrics.csv", purity))
        return items

    def op(self, item) -> int:
        with contextlib.redirect_stdout(self.sink):
            return cli.main(item[0])

    def check(self, item, code) -> str:
        self.sink.seek(0)
        self.sink.truncate()
        if code != 0:
            raise CheckError(f"corp eval exited {code}")
        data = item[1].read_bytes()
        rows = list(csv.reader(io.StringIO(data.decode())))
        if len(rows) != self.n + 2 or rows[-1][1] != "__group__":
            raise CheckError(f"metrics CSV has {len(rows)} rows, expected {self.n + 2}")
        return hashlib.sha256(data).hexdigest()

    def quality(self, item, code) -> tuple[float, float]:
        group_row = list(csv.DictReader(io.StringIO(item[1].read_text())))[-1]
        return item[2], float(group_row["fmax"])


WORKLOADS = {
    "accept": InProcess("accept", n=10, d=64, k=32, iters=3, pool_size=8),
    "wide": InProcess("wide", n=20, d=512, k=45, iters=6, pool_size=3),
    "cli_run": CliRun(),
    "eval224": Eval224(),
}


def oracle_agreement(seed: int) -> list[str]:
    """Compare a reduced-size group with corp.oracles; return the disagreements."""
    rng = np.random.default_rng([seed, 1])
    bad = []
    g = inputs.pipeline_group(rng, n=2, d=8, h=6, w=6, region_frac=0.25, n_distractors=2)
    features = FeatureGroup(g.embeddings)
    k = 5
    trace = pipeline.run_pipeline(features, MapGroup(g.init), PipelineConfig(k=k, iters=2))
    for rec in trace.records:
        coords, _, _ = oracles.oracle_search(features, rec.proxy.vec.tolist(), k)
        if [tuple(c) for c in rec.corep.coords.tolist()] != coords:
            bad.append(f"search coordinates differ at iteration {rec.iteration}")
        stack = correlation_transform(features, rec.proxy, rec.corep)
        ref = np.asarray(oracles.oracle_correlation_transform(features, rec.proxy.vec, rec.corep.embeddings))
        if np.abs(stack.maps - ref).max() > CORRELATION_TOL:
            bad.append(f"correlation transform differs at iteration {rec.iteration}")
    ev = inputs.eval_group(rng, n=3, h=12, w=12, region_frac=0.3)
    pred, gt = MapGroup(ev.pred), MapGroup(ev.gt)
    report = evaluate(pred, gt)
    curve = np.asarray(oracles.oracle_f_curve(pred, gt))
    pairs = {
        "f_max": (report.f_max, curve.max()),
        "f_avg": (report.f_avg, curve.mean()),
        "s_measure": (report.s_measure, oracles.oracle_s_measure(pred, gt)),
        "e_mean": (report.e_mean, oracles.oracle_e_mean(pred, gt)),
    }
    bad += [f"{name} differs from the oracle" for name, (a, b) in pairs.items()
            if abs(a - b) > METRIC_TOL]
    return bad
