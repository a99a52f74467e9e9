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
    get_decoder,
    list_decoders,
    register_decoder,
    run_pipeline,
)
from corp.decoder import MAX_EPS, decode_corep, decode_mean
from corp.errors import DecoderNotFoundError, RegistrationError
from conftest import map_stacks, random_feature_group, random_map_group


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
    def test_reference_registered(self):
        assert "reference" in list_decoders()
        assert get_decoder("reference") is decode_corep

    def test_duplicate_rejected(self):
        with pytest.raises(RegistrationError):
            register_decoder("reference", decode_reference)

    def test_unknown_name(self):
        with pytest.raises(DecoderNotFoundError):
            get_decoder("definitely-not-there")

    def test_custom_decoder_selectable(self, rng):
        name = "identity-mean-test"
        if name not in list_decoders():
            def identity_mean(features, proxy, corep, scores):
                stack = correlation_transform(features, proxy, corep, scores=scores)
                fused = np.clip(stack.maps.mean(axis=1), 0.0, 1.0).astype(np.float32)
                return MapGroup(fused)
            register_decoder(name, identity_mean)
        fg = random_feature_group(rng, n=2, d=4, h=4, w=4)
        init = random_map_group(rng, n=2, h=4, w=4)
        trace = run_pipeline(fg, init, PipelineConfig(k=4, iters=1, decoder=name))
        assert trace.records[0].maps.maps.shape == (2, 4, 4)
