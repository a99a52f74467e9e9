import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corp import ArgumentError, ShapeError, bilinear_resize, l2_normalize_channels, masked_gap, topk_desc
from corp.oracles import oracle_topk


class TestL2NormalizeChannels:
    def test_scaling_identity(self):
        t = np.array([2.0, 0.0], dtype=np.float32).reshape(2, 1, 1)
        out = l2_normalize_channels(t, eps=1e-12)
        assert np.allclose(out[:, 0, 0], [1.0, 0.0])

    def test_zero_column_stays_zero(self):
        t = np.zeros((2, 1, 1), dtype=np.float32)
        out = l2_normalize_channels(t, eps=1e-12)
        assert np.array_equal(out, np.zeros((2, 1, 1), dtype=np.float32))

    def test_three_four_five(self):
        t = np.array([3.0, 4.0]).reshape(2, 1, 1)
        out = l2_normalize_channels(t, eps=1e-12)
        assert np.allclose(out[:, 0, 0], [0.6, 0.8])

    def test_norms_close_to_one(self, rng):
        t = rng.standard_normal((7, 6, 5)).astype(np.float32)
        out = l2_normalize_channels(t)
        norms = np.sqrt((out.astype(np.float64) ** 2).sum(axis=0))
        assert np.abs(norms - 1.0).max() <= 1e-6

    def test_sub_eps_column_zeroed(self):
        t = np.full((3, 1, 1), 1e-20, dtype=np.float64)
        out = l2_normalize_channels(t, eps=1e-12)
        assert np.array_equal(out, np.zeros_like(t))

    def test_bad_eps(self):
        with pytest.raises(ArgumentError):
            l2_normalize_channels(np.ones((1, 1, 1)), eps=0.0)

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
