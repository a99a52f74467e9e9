import tracemalloc

import numpy as np
import pytest

from corp import (
    ArgumentError,
    CoRepresentation,
    CorrelationMapStack,
    FeatureGroup,
    MapGroup,
    PipelineConfig,
    Proxy,
    RangeViolationError,
    ShapeError,
    compute_proxy,
)
from conftest import random_feature_group


class TestFeatureGroup:
    def test_valid_construction(self, rng):
        fg = random_feature_group(rng, n=2, d=4, h=4, w=4)
        assert (fg.n_images, fg.channels, fg.height, fg.width) == (2, 4, 4, 4)

    def test_rejects_non_unit_embedding(self):
        arr = np.zeros((1, 2, 2, 2), dtype=np.float32)
        arr[0, 0] = 1.0
        arr[0, :, 1, 1] = [3.0, 4.0]
        with pytest.raises(RangeViolationError, match=r"row=1, col=1"):
            FeatureGroup(arr)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_embedding(self, bad):
        arr = np.zeros((2, 2, 2, 2), dtype=np.float32)
        arr[:, 0] = 1.0
        arr[1, 1, 0, 1] = bad
        with pytest.raises(RangeViolationError, match=r"image=1, row=0, col=1") as info:
            FeatureGroup(arr)
        assert info.value.image == 1

    def test_reports_the_first_offending_embedding_across_image_ranges(self):
        # Images are checked in ranges on several threads; the error still
        # names the first bad embedding in (image, row, col) order.
        arr = np.zeros((5, 3, 2, 2), dtype=np.float32)
        arr[:, 0] = 1.0
        arr[4, :, 0, 0] = [0.5, 0.0, 0.0]
        arr[1, :, 1, 0] = [1.0, 1.0, 0.0]
        with pytest.raises(RangeViolationError, match=r"image=1, row=1, col=0") as info:
            FeatureGroup(arr)
        assert info.value.image == 1

    def test_one_by_one_grid(self, rng):
        raw = rng.standard_normal((3, 40, 1, 1))
        unit = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        FeatureGroup(unit)
        unit[2] *= 1.01
        with pytest.raises(RangeViolationError, match=r"image=2, row=0, col=0"):
            FeatureGroup(unit)

    def test_allows_exact_zero_embedding(self):
        arr = np.zeros((1, 2, 1, 2), dtype=np.float32)
        arr[0, 0, 0, 0] = 1.0
        fg = FeatureGroup(arr)
        assert fg.channels == 2

    def test_from_tensors_normalizes(self, rng):
        raw = [rng.standard_normal((3, 2, 2)).astype(np.float32) for _ in range(2)]
        fg = FeatureGroup.from_tensors(raw, normalize=True)
        norms = np.sqrt((fg.embeddings.astype(np.float64) ** 2).sum(axis=1))
        assert np.abs(norms - 1.0).max() <= 1e-5

    def test_caller_array_copied_and_frozen(self, rng):
        arr = random_feature_group(rng, n=1, d=3, h=2, w=2).embeddings.copy()
        fg = FeatureGroup(arr)
        arr[0, :, 0, 0] = [1.0, 0.0, 0.0]
        assert not np.array_equal(fg.embeddings[0, :, 0, 0], arr[0, :, 0, 0])
        assert not fg.embeddings.flags.writeable and arr.flags.writeable

    def test_from_tensors_gives_a_read_only_array(self, rng):
        tensors = list(random_feature_group(rng, n=2, d=3, h=2, w=2).embeddings.copy())
        fg = FeatureGroup.from_tensors(tensors)
        before = fg.embeddings.copy()
        tensors[0][:, 0, 0] = [1.0, 0.0, 0.0]
        assert np.array_equal(fg.embeddings, before) and not fg.embeddings.flags.writeable

    def test_immutable(self, rng):
        fg = random_feature_group(rng)
        with pytest.raises(ValueError):
            fg.embeddings[0, 0, 0, 0] = 2.0

    def test_mismatched_per_image_shapes(self, rng):
        with pytest.raises(ShapeError):
            FeatureGroup.from_tensors([np.ones((2, 2, 2)), np.ones((2, 3, 3))])


class TestMapGroup:
    def test_out_of_range_names_coordinate(self):
        arr = np.zeros((2, 2, 2), dtype=np.float32)
        arr[1, 0, 1] = 1.5
        with pytest.raises(RangeViolationError, match=r"image=1, row=0, col=1"):
            MapGroup(arr)

    def test_all_ones(self):
        mg = MapGroup.all_ones(2, 3, 4)
        assert mg.maps.shape == (2, 3, 4) and mg.maps.min() == 1.0

    def test_binarized(self):
        mg = MapGroup(np.array([[[0.2, 0.5], [0.7, 0.49]]], dtype=np.float32))
        b = mg.binarized()
        assert b.maps.tolist() == [[[0.0, 1.0], [1.0, 0.0]]]

    def test_negative_rejected(self):
        with pytest.raises(RangeViolationError):
            MapGroup(np.full((1, 1, 1), -0.1, dtype=np.float32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        arr = np.zeros((2, 2, 2), dtype=np.float32)
        arr[0, 0, 1] = 1.5
        arr[1, 1, 0] = bad
        with pytest.raises(RangeViolationError, match="^maps contain non-finite values$"):
            MapGroup(arr)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_negative_zero_and_one_accepted(self, dtype):
        mg = MapGroup(np.array([[[-0.0, 1.0], [0.0, 0.5]]], dtype=dtype))
        assert np.signbit(mg.maps[0, 0, 0]) and mg.maps[0, 0, 1] == 1.0

    def test_caller_array_copied_and_frozen(self):
        arr = np.zeros((1, 2, 2), dtype=np.float32)
        mg = MapGroup(arr)
        arr[0, 0, 0] = 0.5
        assert mg.maps[0, 0, 0] == 0.0 and not mg.maps.flags.writeable
        assert arr.flags.writeable

    def test_list_input_gives_a_read_only_array(self):
        maps = [np.zeros((2, 3), dtype=np.float32), np.ones((2, 3), dtype=np.float32)]
        mg = MapGroup(maps)
        maps[0][0, 0] = 0.5
        assert mg.maps.shape == (2, 2, 3) and mg.maps.dtype == np.float32
        assert mg.maps[0, 0, 0] == 0.0 and not mg.maps.flags.writeable
        assert MapGroup(tuple(maps)).maps[0, 0, 0] == 0.5

    def test_integer_maps_become_float32(self):
        mg = MapGroup([[[0, 1]]])
        assert mg.maps.dtype == np.float32 and not mg.maps.flags.writeable


class TestProxy:
    def test_unit_ok(self):
        p = Proxy(np.array([0.6, 0.8]))
        assert p.dim == 2 and not p.degenerate

    def test_non_unit_rejected(self):
        with pytest.raises(ArgumentError):
            Proxy(np.array([1.0, 1.0]))

    def test_degenerate_skips_norm_check(self):
        p = Proxy(np.zeros(3), degenerate=True)
        assert p.degenerate


class TestCoRepresentation:
    def _coords(self, k):
        return np.array([(0, 0, i) for i in range(k)])

    def test_valid(self):
        c = CoRepresentation(np.eye(2), self._coords(2), np.array([0.9, 0.5]))
        assert c.k == 2 and c.dim == 2

    def test_unsorted_scores_rejected(self):
        with pytest.raises(ArgumentError):
            CoRepresentation(np.eye(2), self._coords(2), np.array([0.5, 0.9]))

    def test_duplicate_coords_rejected(self):
        coords = np.array([(0, 0, 0), (0, 0, 0)])
        with pytest.raises(ArgumentError):
            CoRepresentation(np.eye(2), coords, np.array([0.9, 0.5]))

    def test_negative_coords_rejected(self):
        # A negative image index would read the last image of a ground truth.
        with pytest.raises(ArgumentError, match="integers >= 0"):
            CoRepresentation(np.eye(1), np.array([[-1, 0, 0]]), np.array([0.9]))

    def test_fractional_coords_rejected(self):
        # (0.5, 0, 0) would truncate onto (0, 0, 0) and duplicate it.
        coords = np.array([(0.5, 0, 0), (0, 0, 0)])
        with pytest.raises(ArgumentError, match="integers >= 0"):
            CoRepresentation(np.eye(2), coords, np.array([0.9, 0.5]))


class TestCorrelationMapStack:
    def test_within_slack(self):
        CorrelationMapStack(np.full((1, 1, 2, 2), 1.0 + 0.5e-5))

    def test_beyond_slack_rejected(self):
        with pytest.raises(RangeViolationError):
            CorrelationMapStack(np.full((1, 1, 2, 2), 1.1))

    def test_largest_magnitude_is_located(self):
        arr = np.full((1, 2, 2, 2), 0.5)
        arr[0, 1, 1, 0] = -1.3
        arr[0, 0, 0, 1] = 1.2
        with pytest.raises(RangeViolationError, match=r"-1\.3 at \(image=0, channel=1, row=1, col=0\)"):
            CorrelationMapStack(arr)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        arr = np.zeros((2, 1, 2, 2))
        arr[1, 0, 1, 1] = bad
        with pytest.raises(RangeViolationError, match="non-finite"):
            CorrelationMapStack(arr)

    def test_caller_array_copied_and_frozen(self):
        arr = np.zeros((1, 1, 2, 2))
        stack = CorrelationMapStack(arr)
        arr[0, 0, 0, 0] = 0.5
        assert stack.maps[0, 0, 0, 0] == 0.0 and not stack.maps.flags.writeable

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_read_only_float64_copy(self, rng, dtype):
        arr = rng.uniform(-1, 1, (4, 8, 32, 32)).astype(dtype)
        tracemalloc.start()
        try:
            stack = CorrelationMapStack(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Converting and freezing take one float64 copy; a second one would double the peak.
        assert peak < 1.5 * arr.size * 8
        assert stack.maps.dtype == np.float64 and not stack.maps.flags.writeable
        assert not np.shares_memory(stack.maps, arr)
        assert stack.maps.tobytes() == arr.astype(np.float64).tobytes()


class TestPipelineConfig:
    def test_shipped_defaults(self):
        cfg = PipelineConfig()
        assert (cfg.k, cfg.iters, cfg.alpha, cfg.beta) == (32, 3, 0.8, 0.2)
        assert cfg.proxy_mode == "from_maps" and cfg.decoder == "reference"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"iters": -1},
            {"proxy_mode": "nope"},
            {"alpha": -0.1},
        ],
    )
    def test_invalid_values(self, kwargs):
        with pytest.raises(ArgumentError):
            PipelineConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": True},
            {"k": 2.5},
            {"k": "3"},
            {"iters": 2.5},
            {"iters": False},
        ],
    )
    def test_counts_must_be_integers(self, kwargs):
        # iters=2.5 used to end in a TypeError inside run_pipeline, and
        # k=True ran with k=1.
        with pytest.raises(ArgumentError, match="must be integers"):
            PipelineConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": float("nan")},
            {"alpha": float("inf")},
            {"beta": float("nan")},
            {"alpha": float("nan"), "beta": float("nan")},
        ],
    )
    def test_parameters_must_be_finite(self, kwargs):
        with pytest.raises(ArgumentError, match="finite"):
            PipelineConfig(**kwargs)

    def test_numpy_integer_counts(self):
        cfg = PipelineConfig(k=np.int64(4), iters=np.int32(2))
        assert (cfg.k, cfg.iters) == (4, 2)


class TestValidateGroup:
    """``compute_proxy`` takes maps only for the feature group's images and grid."""

    def test_matched_group_ok(self, rng):
        fg = random_feature_group(rng, n=2, d=3, h=4, w=4)
        compute_proxy(fg, MapGroup.all_ones(2, 4, 4))

    def test_image_count_mismatch(self, rng):
        fg = random_feature_group(rng, n=2, d=3, h=4, w=4)
        with pytest.raises(ShapeError, match="2 images"):
            compute_proxy(fg, MapGroup.all_ones(3, 4, 4))

    def test_resolution_mismatch(self, rng):
        fg = random_feature_group(rng, n=2, d=3, h=4, w=4)
        with pytest.raises(ShapeError, match="4x4 grid"):
            compute_proxy(fg, MapGroup.all_ones(2, 5, 5))
