import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corp import ArgumentError, ShapeError, bilinear_resize, masked_gap, topk_desc
from corp.oracles import oracle_topk
from corp.tensor import _channel_dots, l2_normalize_channels
from conftest import map_stacks, patch_worker_count


def reference_channel_dots(a, b):
    """The channel sum before einsum: float64 products into scratch, then one add.reduce.

    The scratch keeps at least two columns (numpy sums a lone column
    pairwise), and the D rows are added left to right onto +0.0.
    """
    n, d, hw = b.shape
    if a.ndim == 1:
        a = np.broadcast_to(a[:, None], (n, d, 1))
    scratch = np.zeros((d, max(hw, 2)), dtype=np.float64)
    out = np.empty((n, max(hw, 2)), dtype=np.float64)
    for i in range(n):
        np.multiply(a[i], b[i], out=scratch[:, :hw], dtype=np.float64)
        np.add.reduce(scratch, axis=0, out=out[i], initial=0.0)
    return out[:, :hw]


@st.composite
def channel_dot_cases(draw):
    """``(a, b, workers)`` for ``_channel_dots``: b is (N, D, H*W) float32 or float64.

    ``a`` is a float64 (D,) vector, ``b`` itself (the norm check) or another
    array of b's shape. Up to every entry of either operand is -0.0.
    """
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 600))
    hw = draw(st.one_of(st.sampled_from([1, 784]), st.integers(1, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    form = draw(st.sampled_from(["vector", "self", "other"]))
    b = rng.standard_normal((n, d, hw)).astype(dtype)
    a = rng.standard_normal(d) if form == "vector" else rng.standard_normal(b.shape).astype(dtype)
    for x in (a, b):
        x[rng.random(x.shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = -0.0
    return (b if form == "self" else a), b, draw(st.integers(1, 4))


@st.composite
def masked_gap_cases(draw):
    """``(feat, mask, workers)``: (N, D, H, W) float32 or float64 features, (N, H, W) masks."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 64))
    h, w = draw(st.sampled_from([(1, 1), (1, 2), (5, 8), (28, 28)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    feat = rng.standard_normal((n, d, h, w)).astype(draw(st.sampled_from([np.float32, np.float64])))
    mask = rng.random((n, h, w)).astype(draw(st.sampled_from([np.float32, np.float64])))
    mask[rng.random(mask.shape) < draw(st.sampled_from([0.0, 0.5]))] = 0.0
    return feat, mask, draw(st.integers(1, 4))


def fused_lane_sum(a, b, lanes: int) -> float:
    """sum(a * b) with one fused multiply-add per element into ``lanes`` accumulators."""
    acc = [0.0] * lanes
    for i, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
        acc[i % lanes] = float(Fraction(acc[i % lanes]) + Fraction(x) * Fraction(y))
    return math.fsum(acc)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestChannelDots:
    @settings(max_examples=300)
    @given(channel_dot_cases())
    def test_matches_reference_kernel_bitwise(self, case):
        a, b, workers = case
        with pytest.MonkeyPatch.context() as mp:
            patch_worker_count(mp, workers)
            got = _channel_dots(a, b)
        assert_same_bits(got, reference_channel_dots(a, b))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("hw", [1, 3, 40])
    @pytest.mark.parametrize("vector", [True, False])
    def test_more_channels_than_a_buffer(self, rng, dtype, hw, vector):
        # D > 8192, einsum's default buffer size: still one left-to-right sum.
        b = rng.standard_normal((3, 9000, hw)).astype(dtype)
        a = rng.standard_normal(9000) if vector else b
        with pytest.MonkeyPatch.context() as mp:
            patch_worker_count(mp, 2)
            got = _channel_dots(a, b)
        assert_same_bits(got, reference_channel_dots(a, b))

    @pytest.mark.parametrize(
        "spec, a",
        [("d,dp->p", [-1.0, 1 + 2**-30]), ("dp,dp->p", [[-1.0, -1.0], [1 + 2**-30, 1 + 2**-30]])],
    )
    def test_einsum_does_not_fuse_multiply_add(self, spec, a):
        # (1 + 2**-30) * (1 - 2**-30) rounds to 1.0, so -1 + it is exactly 0.0;
        # a fused multiply-add keeps the product exact and gives -2**-60.
        a, b = np.array(a), np.array([[1.0, 1.0], [1 - 2**-30, 1 - 2**-30]])
        got = np.einsum(spec, a, b, dtype=np.float64).tolist()
        kernel = _channel_dots(a if a.ndim == 1 else a[None], b[None])[0].tolist()
        assert got == kernel == [0.0, 0.0], (
            f"einsum gave {got}, _channel_dots {kernel}: this numpy build fuses multiply and "
            "add, which breaks the bit-identity contract (traces equal to the scalar loop "
            "acc += a[d] * b[d] across builds, runs and thread counts)"
        )


class TestL2NormalizeChannels:
    def test_scaling_identity(self):
        t = np.array([2.0, 0.0], dtype=np.float32).reshape(2, 1, 1)
        out = l2_normalize_channels(t)
        assert np.allclose(out[:, 0, 0], [1.0, 0.0])

    def test_zero_column_stays_zero(self):
        t = np.zeros((2, 1, 1), dtype=np.float32)
        out = l2_normalize_channels(t)
        assert np.array_equal(out, np.zeros((2, 1, 1), dtype=np.float32))

    def test_three_four_five(self):
        t = np.array([3.0, 4.0]).reshape(2, 1, 1)
        out = l2_normalize_channels(t)
        assert np.allclose(out[:, 0, 0], [0.6, 0.8])

    def test_norms_close_to_one(self, rng):
        t = rng.standard_normal((7, 6, 5)).astype(np.float32)
        out = l2_normalize_channels(t)
        norms = np.sqrt((out.astype(np.float64) ** 2).sum(axis=0))
        assert np.abs(norms - 1.0).max() <= 1e-6

    def test_sub_eps_column_zeroed(self):
        t = np.full((3, 1, 1), 1e-20, dtype=np.float64)
        out = l2_normalize_channels(t)
        assert np.array_equal(out, np.zeros_like(t))

    def test_bad_rank(self):
        with pytest.raises(ShapeError):
            l2_normalize_channels(np.ones((2, 2)))


class TestTopkDesc:
    def test_tie_broken_by_smaller_index(self):
        assert list(topk_desc(np.array([0.9, 0.2, 0.9, 0.5]), 2)) == [0, 2]

    def test_full_ordering(self):
        assert list(topk_desc(np.array([0.1, 0.3]), 2)) == [1, 0]

    def test_singleton(self):
        assert list(topk_desc(np.array([5.0]), 1)) == [0]

    @pytest.mark.parametrize("k", [0, 5])
    def test_k_out_of_range(self, k):
        with pytest.raises(ArgumentError):
            topk_desc(np.array([1.0, 2.0, 3.0, 4.0]), k)

    @pytest.mark.parametrize("k", [True, 2.0, 2.5, "2"])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(ArgumentError, match="integer"):
            topk_desc(np.array([1.0, 2.0, 3.0, 4.0]), k)
        assert topk_desc(np.array([1.0, 2.0, 3.0, 4.0]), np.int64(2)).tolist() == [3, 2]

    def test_oracle_agreement_random(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 65))
            k = int(rng.integers(1, n + 1))
            scores = np.round(rng.random(n), 2)  # coarse values force ties
            assert list(topk_desc(scores, k)) == oracle_topk(scores, k)

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=64),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_oracle_agreement_hypothesis(self, xs, data):
        scores = np.asarray(xs)
        k = data.draw(st.integers(1, len(xs)))
        assert list(topk_desc(scores, k)) == oracle_topk(scores, k)

    # Few distinct values force heavy ties; signed zeros, infinities and NaN
    # are the keys a partition may order differently from a stable sort.
    SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, np.nan])

    @given(st.lists(st.one_of(SPECIAL, st.floats(allow_nan=True)), min_size=1, max_size=48))
    @settings(max_examples=200, deadline=None)
    def test_equals_full_stable_argsort(self, xs):
        scores = np.asarray(xs, dtype=np.float64)
        full = np.argsort(-scores, kind="stable")
        finite = bool(np.isfinite(scores).all())
        for k in range(1, len(xs) + 1):
            got = topk_desc(scores, k)
            assert got.dtype == np.int64
            assert got.tolist() == full[:k].tolist()
            if finite:
                assert got.tolist() == oracle_topk(scores, k)

    def test_float32_scores_at_scale(self, rng):
        scores = np.round(rng.standard_normal(2000), 1).astype(np.float32)
        scores[::7] = -0.0
        full = np.argsort(-scores.astype(np.float64), kind="stable")
        for k in (1, 45, 999, 2000):
            assert topk_desc(scores, k).tolist() == full[:k].tolist()


class TestMaskedGap:
    def test_single_pixel_identity(self):
        e = np.array([0.3, -0.4, 0.5]).reshape(3, 1, 1)
        out = masked_gap(e, np.ones((1, 1)))
        assert np.allclose(out, [0.3, -0.4, 0.5])

    def test_zero_mask_annihilates(self, rng):
        feat = rng.standard_normal((4, 3, 3))
        assert np.array_equal(masked_gap(feat, np.zeros((3, 3))), np.zeros(4))

    def test_two_pixel_average(self):
        feat = np.zeros((2, 1, 2))
        feat[:, 0, 0] = [1.0, 0.0]
        feat[:, 0, 1] = [0.0, 1.0]
        assert np.allclose(masked_gap(feat, np.ones((1, 2))), [0.5, 0.5])

    def test_divisor_is_grid_size(self):
        # Mask covers one of four pixels: the masked embedding is averaged
        # over the whole grid, not over the mask support.
        feat = np.zeros((1, 2, 2))
        feat[0, 0, 0] = 1.0
        mask = np.zeros((2, 2))
        mask[0, 0] = 1.0
        assert masked_gap(feat, mask)[0] == pytest.approx(0.25)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            masked_gap(np.ones((2, 3, 3)), np.ones((4, 4)))
        with pytest.raises(ShapeError):
            masked_gap(np.ones((2, 4, 3, 3)), np.ones((3, 3)))

    @settings(max_examples=200, deadline=None)
    @given(masked_gap_cases())
    def test_batch_matches_image_by_image_bitwise(self, case):
        feat, mask, workers = case
        with pytest.MonkeyPatch.context() as mp:
            patch_worker_count(mp, workers)
            got = masked_gap(feat, mask)
            one_by_one = np.stack([masked_gap(f, m) for f, m in zip(feat, mask)])
            nested = masked_gap(feat[None], mask[None])[0]
        assert_same_bits(got, one_by_one)
        assert_same_bits(nested, got)

    def test_grid_larger_than_a_buffer(self, rng):
        # 224 x 224 pixels exceed einsum's 8192-element buffer.
        feat = rng.standard_normal((3, 8, 224, 224)).astype(np.float32)
        mask = rng.random((3, 224, 224))
        with pytest.MonkeyPatch.context() as mp:
            patch_worker_count(mp, 2)
            got = masked_gap(feat, mask)
        assert_same_bits(got, np.stack([masked_gap(f, m) for f, m in zip(feat, mask)]))
        want = (feat.astype(np.float64) * mask[:, None]).sum(axis=(2, 3)) / (224 * 224)
        assert np.abs(got - want).max() <= 1e-15

    def test_pixel_sum_does_not_fuse_multiply_add(self):
        # Each (1 + 2**-30) * (1 - 2**-30) rounds to 1.0 and cancels a -1.0
        # exactly, in any order, so the sum is 0.0. A multiply-add fused per
        # SIMD lane keeps the products exact and leaves -2**-60 in every lane.
        feat = np.array([-1.0] * 64 + [1 + 2**-30] * 64)
        mask = np.array([1.0] * 64 + [1 - 2**-30] * 64)
        assert all(fused_lane_sum(feat, mask, lanes) < 0.0 for lanes in (1, 2, 4, 8))
        got = np.einsum("ndp,np->nd", feat[None, None], mask[None], dtype=np.float64).tolist()
        kernel = masked_gap(feat.reshape(1, 1, 128), mask.reshape(1, 128)).tolist()
        assert got == [[0.0]] and kernel == [0.0], (
            f"einsum gave {got}, masked_gap {kernel}: this numpy build fuses multiply and add "
            "in the proxy's pixel sum, which breaks the bit-identity contract (the proxy's "
            "bits fixed for a numpy build, equal across runs and thread counts)"
        )


class TestBilinearResize:
    def test_constant_preserved_exactly(self):
        m = np.full((3, 5), 0.7, dtype=np.float32)
        out = bilinear_resize(m, 7, 2)
        assert np.array_equal(out, np.full((7, 2), np.float32(0.7)))

    def test_one_by_one_broadcast(self):
        out = bilinear_resize(np.array([[0.3]]), 4, 6)
        assert np.array_equal(out, np.full((4, 6), 0.3))

    def test_two_to_four_hand_values(self):
        out = bilinear_resize(np.array([[0.0], [1.0]]), 4, 1)
        assert np.allclose(out[:, 0], [0.0, 0.25, 0.75, 1.0])

    def test_same_size_is_identity_bitwise(self, rng):
        m = rng.random((6, 9)).astype(np.float32)
        assert np.array_equal(bilinear_resize(m, 6, 9), m)

    def test_range_preserved(self, rng):
        m = rng.random((5, 5)).astype(np.float32)
        out = bilinear_resize(m, 13, 3)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_bad_output_size(self):
        with pytest.raises(ArgumentError):
            bilinear_resize(np.ones((2, 2)), 0, 3)

    @pytest.mark.parametrize("size", [2.5, 2.0, True, "2", None])
    def test_sizes_must_be_integers(self, size):
        # 2.5 used to give 3 rows and True 1 row.
        m = np.ones((2, 2))
        with pytest.raises(ArgumentError, match="integers"):
            bilinear_resize(m, size, 2)
        with pytest.raises(ArgumentError, match="integers"):
            bilinear_resize(m, 2, size)
        assert bilinear_resize(m, np.int64(3), 2).shape == (3, 2)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ShapeError):
            bilinear_resize(np.ones(4), 2, 2)

    @settings(max_examples=300)
    @given(map_stacks())
    def test_stack_matches_map_by_map(self, case):
        maps, out_h, out_w = case
        out = bilinear_resize(maps, out_h, out_w)
        one_by_one = np.stack([bilinear_resize(m, out_h, out_w) for m in maps])
        assert out.dtype == maps.dtype
        assert out.tobytes() == one_by_one.tobytes()
        assert bilinear_resize(maps[None], out_h, out_w)[0].tobytes() == out.tobytes()
