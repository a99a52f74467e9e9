"""Tests of the benchmark itself: python3 -m pytest corpbench/tests"""
from __future__ import annotations

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_are_valid_unique_and_match_what_runs_report():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME_RE.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert e2e == {**worker.E2E_UNITS, "setup_s": "s"}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.PER_LAYER
    wl_names = [w["name"] for w in SPEC["workloads"]]
    assert wl_names == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_bounds_follow_the_contract():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize(
    "n, value, rank, beyond",
    [
        (100, 90, 90.0, 10),   # p90 of 100 samples: 10 beyond it
        (1000, 990, 99.0, 10),
        (21, 11, 52.38095238095238, 10),
        (11, 6, 54.54545454545455, 5),  # too few samples: half of them beyond
        (1, 1, 100.0, 0),
    ],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, value, rank, beyond):
    samples = list(range(n, 0, -1))  # order must not matter
    assert stats.tail(samples) == (value, pytest.approx(rank), beyond)


def _span(sid, parent, name, start, end, args=()):
    return [0, sid, parent, name, start, end, args]


def test_self_time_arithmetic_on_a_synthetic_tree(tmp_path):
    # op 0..100 -> cli.main 5..95 -> storage.read 10..20, pipeline.run 30..80
    #   pipeline.run -> pipeline.proxy 35..45 -> tensor.masked_gap 36..40,
    #   and two overlapping children 50..60 and 55..70 (union 50..70)
    read = tmp_path / "x.pgm"
    read.write_bytes(b"1234567")
    tree = [
        _span(0, None, "bench.op", 0, 100),
        _span(1, 0, "cli.main", 5, 95),
        _span(2, 1, "storage.read", 10, 20, (read,)),
        _span(3, 1, "pipeline.run", 30, 80),
        _span(4, 3, "pipeline.proxy", 35, 45),
        _span(5, 4, "tensor.masked_gap", 36, 40),
        _span(6, 3, "search.select", 50, 60),
        _span(7, 3, "search.transform", 55, 70),
    ]
    selfs = spans.self_times(tree)
    assert selfs == {0: 10, 1: 30, 2: 10, 3: 20, 4: 6, 5: 4, 6: 10, 7: 15}
    assert spans.cli_split(tree) == (15, 15)  # cli self before 30 and after it
    total, covered = spans.account(tree[:6])  # nested spans only
    assert total == covered == 100
    m = spans.op_metrics(tree)
    ms = 1e-6
    assert m["bench.unattributed_ms"] == pytest.approx(10 * ms)
    assert m["cli.load_ms"] == pytest.approx(15 * ms)
    assert m["cli.self_ms"] == pytest.approx(15 * ms)
    assert m["pipeline.self_ms"] == pytest.approx(26 * ms)
    assert m["pipeline.proxy_ms"] == pytest.approx(10 * ms)
    assert m["tensor.masked_gap_ms"] == pytest.approx(4 * ms)
    assert m["pipeline.iterations"] == 1.0
    assert m["search.score_passes_per_iter"] == 1.0
    assert m["storage.bytes_read"] == 7


def test_traced_op_accounts_for_its_time_and_restores_corp():
    import corp.pipeline

    original = corp.pipeline.run_pipeline
    wl = workloads.InProcess("tiny", n=2, d=8, k=4, iters=2, pool_size=1, h=6, w=6)
    group = wl.setup(np.random.default_rng(0), None)[0]
    tracer = spans.Tracer()
    with tracer.installed():
        assert corp.pipeline.run_pipeline is not original
        root = tracer.open(spans.ROOT)
        wl.op(group)
        tracer.close(root)
    assert corp.pipeline.run_pipeline is original
    total, covered = spans.account(tracer.spans)
    assert total == covered
    m = spans.op_metrics(tracer.spans)
    layers = sum(m[f"{layer}.self_ms"] for layer in ("types", "tensor", "pipeline", "search", "decoder"))
    assert layers + m["bench.unattributed_ms"] == pytest.approx(total * 1e-6)
    assert m["pipeline.iterations"] == 2.0
    assert m["search.score_passes_per_iter"] == 2.0
    assert m["types.feature_bytes"] == group.embeddings.nbytes * 3  # float32 plus cached float64


def _digest(seed: int) -> str:
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for g in inputs.pipeline_pool(rng, 2, 3, 16, 12, 12):
        h.update(g.embeddings.tobytes() + g.init.tobytes() + g.gt.tobytes())
    for g in inputs.eval_pool(rng, 2, 3, 20, 20):
        h.update(g.pred.tobytes() + g.gt.tobytes())
    return h.hexdigest()


def test_generator_is_byte_identical_for_a_seed():
    assert _digest(5) == _digest(5)
    assert _digest(5) != _digest(6)
    code = f"import sys; sys.path[:0] = {[str(BENCH), str(Path(__file__).parent)]}; " \
           "import test_corpbench as t; print(t._digest(5))"
    other = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert other.stdout.strip() == _digest(5)


def test_generated_groups_are_valid_corp_inputs():
    from corp.types import FeatureGroup, MapGroup

    rng = np.random.default_rng(3)
    g = inputs.pipeline_group(rng, 3, 16, 12, 12, region_frac=0.2, n_distractors=2)
    FeatureGroup(g.embeddings)
    MapGroup(g.init)
    assert set(np.unique(g.gt)) == {0.0, 1.0}
    assert (g.init >= g.gt).all()
    ev = inputs.eval_group(rng, 3, 20, 20, region_frac=0.3)
    assert not ev.gt[0].any() and ev.gt[1:].any(axis=(1, 2)).all()
    assert ev.pred.min() >= 0.0 and ev.pred.max() <= 1.0


def test_oracles_agree_on_the_reduced_group():
    assert workloads.oracle_agreement(11) == []
