import dataclasses
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

import corp
from corp import (
    CorrelationMapStack,
    FeatureGroup,
    MapGroup,
    decode_reference,
    run_pipeline,
)
from corp.decoder import DECODERS, MAX_EPS
from corp.oracles import oracle_correlation_transform

# Same examples on every run, no example database, no deadline: hypothesis
# tests behave like the rest of the suite. A test's own settings override these.
settings.register_profile("corp", derandomize=True, database=None, deadline=None, max_examples=100)
settings.load_profile("corp")


def subprocess_env(**overrides) -> dict:
    """Environment for a child interpreter that imports this checkout's corp."""
    src = str(Path(corp.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else ""), **overrides}


def patch_worker_count(monkeypatch, count: int) -> None:
    """Split every per-image pass into ``count`` ranges, in each corp module holding the count."""
    from corp import tensor

    current = tensor._worker_count
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "corp" and vars(module).get("_worker_count") is current:
            monkeypatch.setattr(module, "_worker_count", lambda: count)


def _decode_stack(features, proxy, corep, scores) -> MapGroup:
    # Looked up on the package at call time, so tests that wrap corp's public
    # functions see this call too.
    stack = corp.correlation_transform(features, proxy, corep, scores=scores)
    return decode_reference(stack)


def stack_decoder() -> str:
    """Name of a ``DECODERS`` entry that runs ``decode_reference`` on the full stack.

    It builds the (N, K, H, W) ``correlation_transform`` stack that
    "reference" skips.
    """
    name = "reference-on-stack"
    DECODERS.setdefault(name, _decode_stack)
    return name


def assert_reference_decode_pinned(features, init, cfg, trace) -> None:
    """The default decode of ``trace`` equals the stack decode, bit for bit.

    Coordinates and maps must equal a run through ``stack_decoder``, and each
    iteration's maps must equal ``decode_reference`` of the oracle stack.
    """
    stacked = run_pipeline(features, init, dataclasses.replace(cfg, decoder=stack_decoder()))
    assert len(trace) == len(stacked) == cfg.iters
    for rec, other in zip(trace.records, stacked.records):
        assert np.array_equal(rec.corep.coords, other.corep.coords)
        assert rec.maps.maps.tobytes() == other.maps.maps.tobytes()
        ref = oracle_correlation_transform(features, rec.proxy.vec, rec.corep.embeddings)
        ref = CorrelationMapStack(np.asarray(ref))
        oracle_maps = decode_reference(ref)
        assert rec.maps.maps.tobytes() == oracle_maps.maps.tobytes()


def random_feature_group(rng, n=2, d=6, h=5, w=5, dtype=np.float32) -> FeatureGroup:
    """Random unit-norm feature group."""
    raw = rng.standard_normal((n, d, h, w)).astype(dtype)
    return FeatureGroup.from_tensors(list(raw), normalize=True)


def random_map_group(rng, n=2, h=5, w=5) -> MapGroup:
    return MapGroup(rng.random((n, h, w)).astype(np.float32))


def random_binary_group(rng, n=2, h=8, w=8, fg_prob=0.4) -> MapGroup:
    """Random binary maps, re-rolled until every image has both classes."""
    maps = np.empty((n, h, w), dtype=np.float32)
    for i in range(n):
        while True:
            m = (rng.random((h, w)) < fg_prob).astype(np.float32)
            if 0 < m.sum() < h * w:
                maps[i] = m
                break
    return MapGroup(maps)


@st.composite
def map_stacks(draw):
    """``(maps, out_h, out_w)``: an (N, H, W) float32 or float64 stack and a target grid.

    Sides run 1..39, and one draw in four keeps the grid. Each image is drawn
    on its own: uniform in [-1, 1], mostly +0.0 and -0.0, all negative, or
    with a peak near ``decoder.MAX_EPS`` (one pixel set to it exactly).
    """
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n, h, w = draw(st.integers(1, 4)), draw(st.integers(1, 39)), draw(st.integers(1, 39))
    same = draw(st.integers(0, 3)) == 0
    out_h, out_w = (h, w) if same else (draw(st.integers(1, 39)), draw(st.integers(1, 39)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    maps = np.empty((n, h, w), dtype=dtype)
    for i, kind in enumerate(draw(st.lists(st.sampled_from("uznt"), min_size=n, max_size=n))):
        m = rng.uniform(-1.0, 1.0, (h, w))
        if kind == "z":
            m = rng.choice([0.0, -0.0, 0.0, -0.0, 0.25], (h, w))
        elif kind == "n":
            m = -np.abs(m)
        elif kind == "t":
            m = m * MAX_EPS * rng.choice([0.5, 1.0, 2.0])
            m.flat[rng.integers(m.size)] = MAX_EPS
        maps[i] = m
    return maps, out_h, out_w


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
