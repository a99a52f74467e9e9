import re
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from corp import (
    CorrelationMapStack,
    MapGroup,
    PipelineConfig,
    bilinear_resize,
    correlation_transform,
    decode_reference,
    generate_fixture,
    get_decoder,
    random_fixture_spec,
    run_pipeline,
)
from corp.decoder import DECODERS, MAX_EPS, decode_corep, decode_mean
from corp.errors import ArgumentError
from conftest import map_stacks, random_feature_group, random_map_group

README = Path(__file__).resolve().parents[1] / "README.md"


def stack_of(values):
    return CorrelationMapStack(np.asarray(values, dtype=np.float64))


class TestDecodeReference:
    def test_uniform_ones(self):
        stack = stack_of(np.ones((1, 1, 3, 3)))
        out = decode_reference(stack)
        assert np.array_equal(out.maps, np.ones((1, 3, 3), dtype=np.float32))

    def test_all_negative_decodes_to_zero(self):
        stack = stack_of(np.full((1, 2, 2, 2), -0.5))
        out = decode_reference(stack)
        assert np.array_equal(out.maps, np.zeros((1, 2, 2), dtype=np.float32))

    def test_mean_then_max_normalize(self):
        stack = stack_of(np.array([0.5, 1.0]).reshape(1, 2, 1, 1))
        out = decode_reference(stack)
        # mean 0.75, per-image max 0.75, normalized to 1
        assert out.maps.reshape(-1).tolist() == [1.0]

    def test_output_in_unit_interval(self, rng):
        stack = stack_of(rng.uniform(-1, 1, size=(3, 4, 5, 5)))
        out = decode_reference(stack)
        assert out.maps.min() >= 0.0 and out.maps.max() <= 1.0

    def test_scale_invariance_power_of_two(self, rng):
        arr = rng.uniform(-1, 1, size=(2, 3, 4, 4))
        base = decode_reference(stack_of(arr))
        half = decode_reference(stack_of(0.5 * arr))
        assert np.array_equal(base.maps, half.maps)

    def test_scale_invariance_general(self, rng):
        arr = rng.uniform(-1, 1, size=(2, 3, 4, 4))
        base = decode_reference(stack_of(arr))
        scaled = decode_reference(stack_of((1 / 3.7) * arr))
        assert np.allclose(base.maps, scaled.maps, atol=1e-6)

    def test_monotone_before_normalization(self, rng):
        # decode_mean clamps before it normalizes. With each image's peak held
        # fixed, raising one mean correlation lowers no output pixel.
        arr = rng.uniform(-1, 1, size=(3, 6, 6))
        arr[:, 0, 0] = 2.0
        bumped = arr.copy()
        bumped[1, 2, 3] += 0.2
        assert np.all(decode_mean(bumped).maps >= decode_mean(arr).maps)

    def test_argmax_location_stable_under_scaling(self, rng):
        arr = rng.uniform(-1, 1, size=(1, 3, 5, 5))
        a = decode_reference(stack_of(arr)).maps[0]
        b = decode_reference(stack_of(0.25 * arr)).maps[0]
        assert np.unravel_index(a.argmax(), a.shape) == np.unravel_index(b.argmax(), b.shape)

    @settings(max_examples=300)
    @given(map_stacks())
    def test_decode_mean_matches_image_by_image(self, case):
        # The maps keep their grid. A same-grid resize and a clip to [0, 1]
        # after the decode would change no bit, so decode_mean runs neither.
        mean_maps, _, _ = case
        _, h, w = mean_maps.shape
        expected = []
        for fused in mean_maps:
            fused = np.maximum(fused, 0.0)
            peak = float(fused.max())
            fused = fused / peak if peak > MAX_EPS else np.zeros_like(fused)
            expected.append(np.clip(bilinear_resize(fused, h, w), 0.0, 1.0))
        out = decode_mean(mean_maps).maps
        assert out.tobytes() == np.stack(expected).astype(np.float32).tobytes()


class TestRegistry:
    """``DECODERS`` is a fixed table; ``get_decoder`` looks names up in it."""

    def test_reference_registered(self):
        # Tests may add entries (conftest.stack_decoder), so only "reference" is checked.
        assert DECODERS["reference"] is get_decoder("reference") is decode_corep

    def test_unknown_name(self):
        with pytest.raises(ArgumentError, match="unknown decoder 'definitely-not-there'; known: "):
            get_decoder("definitely-not-there")

    def test_custom_decoder_selectable(self, rng, monkeypatch):
        def identity_mean(features, proxy, corep, scores):
            stack = correlation_transform(features, proxy, corep, scores=scores)
            fused = np.clip(stack.maps.mean(axis=1), 0.0, 1.0).astype(np.float32)
            return MapGroup(fused)
        monkeypatch.setitem(DECODERS, "identity-mean-test", identity_mean)
        fg = random_feature_group(rng, n=2, d=4, h=4, w=4)
        init = random_map_group(rng, n=2, h=4, w=4)
        trace = run_pipeline(fg, init, PipelineConfig(k=4, iters=1, decoder="identity-mean-test"))
        assert trace.records[0].maps.maps.shape == (2, 4, 4)


def test_readme_stack_decoder_returns_every_records_maps():
    """The README's stack decoder gives the reference decode's maps, bit for bit."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(textwrap.dedent(blocks[0]), namespace)
    decode_stack = namespace["decode_stack"]
    fg, _, init = generate_fixture(random_fixture_spec(5))
    trace = run_pipeline(fg, init, PipelineConfig(k=8, iters=3), keep_scores=True)
    assert len(trace) == 3
    for rec in trace.records:
        maps = decode_stack(fg, rec.proxy, rec.corep, rec.scores)
        assert maps.maps.tobytes() == rec.maps.maps.tobytes()
