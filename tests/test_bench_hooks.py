"""The benchmark's span table must name corp functions and types that exist.

``corpbench/spans.py`` wraps corp's public functions by module and name, the
``__post_init__`` of some types, and every decoder ``get_decoder`` returns. A
rename in corp, or a decode that bypasses the registry, would break traced
benchmark runs without failing any other test; these fail instead.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from corp import PipelineConfig, run_pipeline
from conftest import random_feature_group, random_map_group

SPANS = Path(__file__).resolve().parents[1] / "corpbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    """corpbench/spans.py, loaded without writing bytecode or joining sys.modules."""
    spec = importlib.util.spec_from_file_location("corpbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_wrapped_function_resolves(spans):
    for module, attr, _ in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
    assert callable(importlib.import_module("corp.decoder").get_decoder)


def test_every_wrapped_type_resolves(spans):
    types = importlib.import_module("corp.types")
    for cls_name, _ in spans.TYPES:
        assert callable(getattr(getattr(types, cls_name, None), "__post_init__", None)), cls_name


def test_default_decode_goes_through_the_registry(spans, rng, monkeypatch):
    tracer = spans.Tracer()
    decode_mean = importlib.import_module("corp.decoder").decode_mean
    traced_mean = tracer.wrap(decode_mean, "decoder.mean")
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "corp" and vars(module).get("decode_mean") is decode_mean:
            monkeypatch.setattr(module, "decode_mean", traced_mean)
    fg = random_feature_group(rng, n=2, d=6, h=5, w=5)
    init = random_map_group(rng, n=2, h=5, w=5)
    with tracer.installed():
        assert len(run_pipeline(fg, init, PipelineConfig(k=4, iters=2))) == 2
    names = {s[1]: s[3] for s in tracer.spans}
    decodes = [s for s in tracer.spans if s[3] == "decoder.decode"]
    means = [s for s in tracer.spans if s[3] == "decoder.mean"]
    assert len(decodes) == 2 and len(means) == 2
    assert all(names[s[2]] == "decoder.decode" for s in means)


def test_proxy_goes_through_the_traced_kernel(spans, rng):
    tracer = spans.Tracer()
    fg = random_feature_group(rng, n=2, d=6, h=5, w=5)
    init = random_map_group(rng, n=2, h=5, w=5)
    with tracer.installed():
        assert len(run_pipeline(fg, init, PipelineConfig(k=4, iters=2))) == 2
    names = {s[1]: s[3] for s in tracer.spans}
    gaps = [s for s in tracer.spans if s[3] == "tensor.masked_gap"]
    assert len(gaps) == 2
    assert all(names[s[2]] == "pipeline.proxy" for s in gaps)
