"""The benchmark's span table must name corp functions and types that exist.

``corpbench/spans.py`` wraps corp's public functions by module and name, and
the ``__post_init__`` of some types. A rename in corp would break traced
benchmark runs without failing any other test; this one fails instead.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

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
