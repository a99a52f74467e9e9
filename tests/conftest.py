import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import corp
from corp import FeatureGroup, MapGroup

# Same examples on every run, no example database, no deadline: hypothesis
# tests behave like the rest of the suite. A test's own settings override these.
settings.register_profile("corp", derandomize=True, database=None, deadline=None, max_examples=100)
settings.load_profile("corp")


def subprocess_env(**overrides) -> dict:
    """Environment for a child interpreter that imports this checkout's corp."""
    src = str(Path(corp.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else ""), **overrides}


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
