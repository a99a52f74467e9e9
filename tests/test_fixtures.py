import hashlib

import numpy as np
import pytest

from corp import (
    ArgumentError,
    FixtureSpec,
    SplitMix64,
    generate_fixture,
    proxy_from_ground_truth,
    purity_proportion,
    random_fixture_spec,
    search_corepresentation,
)


class TestSplitMix64:
    def test_known_first_output_for_seed_zero(self):
        # First SplitMix64 output for seed 0 (published reference value).
        assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF

    def test_uniform_in_half_open_unit(self):
        rng = SplitMix64(42)
        vals = [rng.uniform() for _ in range(1000)]
        assert all(0.0 < v <= 1.0 for v in vals)

    def test_gaussian_stream_deterministic(self):
        a = SplitMix64(7)
        b = SplitMix64(7)
        assert a.gaussians(9) == b.gaussians(9)

    def test_gaussian_moments_plausible(self):
        rng = SplitMix64(123)
        xs = np.asarray(rng.gaussians(20000))
        assert abs(xs.mean()) < 0.05
        assert abs(xs.std() - 1.0) < 0.05


class TestFixtureSpecValidation:
    def test_region_count_must_match_images(self):
        with pytest.raises(ArgumentError):
            FixtureSpec(
                seed=1, n_images=2, channels=2, height=4, width=4,
                planted_regions=((0, 0, 2, 2),),
                co_direction=(1.0, 0.0),
                distractor_directions=((0.0, 1.0),),
                separation_margin=0.5, noise_sigma=0.0,
            )

    def test_region_must_fit_grid(self):
        with pytest.raises(ArgumentError):
            FixtureSpec(
                seed=1, n_images=1, channels=2, height=4, width=4,
                planted_regions=((3, 3, 3, 3),),
                co_direction=(1.0, 0.0),
                distractor_directions=((0.0, 1.0),),
                separation_margin=0.5, noise_sigma=0.0,
            )

    def test_distractor_overlap_rejected(self):
        with pytest.raises(ArgumentError, match="overlaps"):
            FixtureSpec(
                seed=1, n_images=1, channels=2, height=4, width=4,
                planted_regions=((0, 0, 2, 2),),
                co_direction=(1.0, 0.0),
                distractor_directions=((0.8, 0.6),),
                separation_margin=0.5, noise_sigma=0.0,
            )

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ArgumentError, match="unit"):
            FixtureSpec(
                seed=1, n_images=1, channels=2, height=4, width=4,
                planted_regions=((0, 0, 2, 2),),
                co_direction=(2.0, 0.0),
                distractor_directions=((0.0, 1.0),),
                separation_margin=0.5, noise_sigma=0.0,
            )

    @pytest.mark.parametrize("field, value", [
        ("planted_regions", ((0, 0),)),
        ("planted_regions", ((0, 0, 2, "2"),)),
        ("planted_regions", (5,)),
        ("co_direction", ("1", "0")),
        ("seed", 1.5),
        ("n_images", "1"),
        ("n_images", True),
        ("noise_sigma", None),
    ])
    def test_wrong_field_type_or_shape_rejected(self, field, value):
        fields = dict(
            seed=1, n_images=1, channels=2, height=4, width=4,
            planted_regions=((0, 0, 2, 2),),
            co_direction=(1.0, 0.0),
            distractor_directions=((0.0, 1.0),),
            separation_margin=0.5, noise_sigma=0.0,
        )
        fields[field] = value
        with pytest.raises(ArgumentError):
            FixtureSpec(**fields)


class TestRandomFixtureSpec:
    def test_shipped_specs_unchanged(self):
        # The README spec and one of the CLI tests; the draw bound must not move a byte.
        specs = [random_fixture_spec(7), random_fixture_spec(33, n_images=2, channels=4, height=6, width=6)]
        digest = hashlib.sha256(repr(specs).encode()).hexdigest()
        assert digest == "921314de74042772e87877239373f9ea1b4fbd21e25de6490cf53e19b8029595"

    @pytest.mark.parametrize("margin", [0.0, 1.0, -0.5, 1.5, float("nan"), "0.5"])
    def test_margin_outside_unit_interval(self, margin):
        with pytest.raises(ArgumentError, match="separation_margin"):
            random_fixture_spec(1, separation_margin=margin)

    @pytest.mark.parametrize("count", [2.5, True, "3"])
    def test_non_integer_distractor_count(self, count):
        with pytest.raises(ArgumentError, match="n_distractors"):
            random_fixture_spec(1, n_distractors=count)

    @pytest.mark.parametrize("kwargs", [{"separation_margin": 0.9999999}, {"channels": 1}])
    def test_unreachable_margin_gives_up(self, kwargs):
        # One channel makes every cosine +-1, so no draw can ever pass.
        with pytest.raises(ArgumentError, match="draws"):
            random_fixture_spec(1, **kwargs)


class TestGenerateFixture:
    def test_same_spec_same_bytes(self):
        spec = random_fixture_spec(31)
        f1, g1, i1 = generate_fixture(spec)
        f2, g2, i2 = generate_fixture(spec)
        assert np.array_equal(f1.embeddings, f2.embeddings)
        assert np.array_equal(g1.maps, g2.maps)
        assert np.array_equal(i1.maps, i2.maps)

    def test_different_seed_different_bytes(self):
        a, _, _ = generate_fixture(random_fixture_spec(1))
        b, _, _ = generate_fixture(random_fixture_spec(2))
        assert not np.array_equal(a.embeddings, b.embeddings)

    def test_zero_noise_in_region_embeddings_exact(self):
        spec = random_fixture_spec(3, noise_sigma=0.0)
        features, gt, _ = generate_fixture(spec)
        co = np.asarray(spec.co_direction)
        expected = (co / np.linalg.norm(co)).astype(np.float32)
        n, r0, c0 = 0, spec.planted_regions[0][0], spec.planted_regions[0][1]
        assert np.array_equal(features.embeddings[n, :, r0, c0], expected)

    def test_gt_matches_planted_rectangles(self):
        spec = random_fixture_spec(4)
        _, gt, _ = generate_fixture(spec)
        for n, (r0, c0, rh, rw) in enumerate(spec.planted_regions):
            assert gt.maps[n, r0:r0 + rh, c0:c0 + rw].min() == 1.0
            assert gt.maps[n].sum() == rh * rw

    def test_init_modes(self):
        for mode in ("gt", "dilated", "ones"):
            spec = random_fixture_spec(5, init_mode=mode)
            _, gt, init = generate_fixture(spec)
            if mode == "gt":
                assert np.array_equal(init.maps, gt.maps)
            elif mode == "ones":
                assert init.maps.min() == 1.0
            else:
                assert np.all(init.maps >= gt.maps)
                assert init.maps.sum() > gt.maps.sum()

    def test_inseparable_fixture_rejected(self):
        # Noise far above the documented sufficient condition drowns the
        # planted signal and must be caught at generation time.
        spec = random_fixture_spec(6, separation_margin=0.05, noise_sigma=2.5, channels=4)
        with pytest.raises(ArgumentError, match="not separable"):
            generate_fixture(spec)

    def test_gt_proxy_search_is_pure(self):
        # Documented sufficient condition: noise_sigma <= margin / 8.
        spec = random_fixture_spec(7, separation_margin=0.5, noise_sigma=0.05)
        features, gt, _ = generate_fixture(spec)
        proxy = proxy_from_ground_truth(features, gt)
        k = int(gt.maps.sum())
        corep = search_corepresentation(features, proxy, min(k, 32))
        assert purity_proportion(corep, gt) == 1.0

    def test_unit_norm_embeddings(self):
        features, _, _ = generate_fixture(random_fixture_spec(8))
        norms = np.sqrt((features.embeddings.astype(np.float64) ** 2).sum(axis=1))
        assert np.abs(norms - 1.0).max() <= 1e-5
