import time

import numpy as np
import pytest

from corp import (
    ArgumentError,
    CoRepresentation,
    FeatureGroup,
    MapGroup,
    PipelineConfig,
    Proxy,
    ShapeError,
    correlation_transform,
    purity_proportion,
    run_pipeline,
    score_all,
    search_corepresentation,
    topk_desc,
)
from corp.oracles import (
    oracle_correlation_transform,
    oracle_proxy,
    oracle_scores,
    oracle_search,
)
from conftest import assert_reference_decode_pinned, random_feature_group, random_map_group


def single_pixel_group(embedding):
    arr = np.asarray(embedding, dtype=np.float32).reshape(1, -1, 1, 1)
    return FeatureGroup(arr)


class TestScoreAll:
    def test_self_similarity(self):
        fg = single_pixel_group([1.0, 0.0])
        assert score_all(fg, Proxy(np.array([1.0, 0.0]))).tolist() == [1.0]

    def test_orthogonal_scores_zero(self):
        fg = single_pixel_group([0.0, 1.0])
        assert score_all(fg, Proxy(np.array([1.0, 0.0]))).tolist() == [0.0]

    def test_hand_values(self):
        arr = np.zeros((1, 2, 1, 3), dtype=np.float32)
        arr[0, :, 0, 0] = [0.6, 0.8]
        arr[0, :, 0, 1] = [1.0, 0.0]
        arr[0, :, 0, 2] = [0.0, 1.0]
        fg = FeatureGroup(arr)
        s = score_all(fg, Proxy(np.array([1.0, 0.0])))
        assert np.allclose(s, [0.6, 1.0, 0.0], atol=1e-7)

    def test_image_major_row_major_order(self, rng):
        fg = random_feature_group(rng, n=2, d=3, h=2, w=2)
        p = Proxy(np.array([1.0, 0.0, 0.0]))
        s = score_all(fg, p)
        expected = fg.embeddings.astype(np.float64)[:, 0, :, :].reshape(-1)
        assert np.array_equal(s, expected)

    def test_dimension_mismatch(self, rng):
        fg = random_feature_group(rng, d=4)
        with pytest.raises(ShapeError):
            score_all(fg, Proxy(np.array([1.0, 0.0])))

    def test_bounded_for_unit_inputs(self, rng):
        fg = random_feature_group(rng, n=3, d=8, h=6, w=6)
        p = Proxy(np.array([1.0] + [0.0] * 7))
        assert np.abs(score_all(fg, p)).max() <= 1.0 + 1e-6

    def test_bitwise_equal_to_naive_loop(self, rng):
        # The channel reduction is an exact left-to-right accumulation, so
        # the naive per-pixel loop reproduces production scores bit for bit;
        # top-k selection therefore cannot be perturbed by rounding ties.
        for _ in range(10):
            fg = random_feature_group(rng, n=2, d=7, h=5, w=5)
            vec = rng.standard_normal(7)
            p = Proxy(vec / np.linalg.norm(vec))
            assert np.array_equal(
                score_all(fg, p), np.asarray(oracle_scores(fg, p.vec))
            )


class TestSearchCorepresentation:
    def test_k_equals_all_locations(self, rng):
        fg = random_feature_group(rng, n=2, d=4, h=3, w=3)
        p = Proxy(np.array([1.0, 0.0, 0.0, 0.0]))
        corep = search_corepresentation(fg, p, 18)
        assert corep.k == 18
        assert np.all(np.diff(corep.scores) <= 0)

    def test_planted_pixel_wins(self):
        arr = np.zeros((1, 2, 2, 2), dtype=np.float32)
        arr[0, 1] = 1.0            # everything orthogonal to the proxy
        arr[0, :, 1, 0] = [1.0, 0.0]
        fg = FeatureGroup(arr)
        corep = search_corepresentation(fg, Proxy(np.array([1.0, 0.0])), 1)
        assert corep.coords.tolist() == [[0, 1, 0]]
        assert corep.scores[0] == 1.0

    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(50):
            fg = random_feature_group(rng, n=2, d=5, h=4, w=4)
            vec = rng.standard_normal(5)
            p = Proxy(vec / np.linalg.norm(vec))
            corep = search_corepresentation(fg, p, 4)
            coords, gathered, scores = oracle_search(fg, p.vec.tolist(), 4)
            assert [tuple(c) for c in corep.coords.tolist()] == coords
            assert np.array_equal(corep.scores, np.asarray(scores))
            assert np.allclose(corep.embeddings, np.asarray(gathered, dtype=np.float32))

    def test_gathered_rows_match_source(self, rng):
        fg = random_feature_group(rng, n=2, d=4, h=3, w=3)
        vec = rng.standard_normal(4)
        corep = search_corepresentation(fg, Proxy(vec / np.linalg.norm(vec)), 5)
        for row, (n, h, w) in zip(corep.embeddings, corep.coords.tolist()):
            assert np.array_equal(row, fg.embeddings[n, :, h, w])

    def test_k_out_of_range(self, rng):
        fg = random_feature_group(rng, n=1, d=3, h=2, w=2)
        p = Proxy(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ArgumentError):
            search_corepresentation(fg, p, 0)
        with pytest.raises(ArgumentError):
            search_corepresentation(fg, p, 5)

    @pytest.mark.parametrize("k", [True, 2.0])
    def test_counts_must_be_integers(self, rng, k):
        fg = random_feature_group(rng, n=2, d=4, h=3, w=3)
        p = Proxy(np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ArgumentError, match="integer"):
            search_corepresentation(fg, p, k)

    def test_image_permutation_equivariance(self, rng):
        fg = random_feature_group(rng, n=3, d=6, h=4, w=4)
        vec = rng.standard_normal(6)
        p = Proxy(vec / np.linalg.norm(vec))
        corep = search_corepresentation(fg, p, 5)
        perm = [2, 0, 1]
        fg_p = FeatureGroup(fg.embeddings[perm])
        corep_p = search_corepresentation(fg_p, p, 5)
        relabel = {old: new for new, old in enumerate(perm)}
        expected = {(relabel[n], h, w) for n, h, w in corep.coords.tolist()}
        assert {tuple(c) for c in corep_p.coords.tolist()} == expected

    def test_positive_scaling_keeps_selection(self, rng):
        # Selection depends on score order only, so any positive rescaling
        # of the score vector keeps the selected index set.
        scores = rng.standard_normal(40)
        for lam in (0.5, 2.0, 4.0):
            assert np.array_equal(topk_desc(scores, 7), topk_desc(lam * scores, 7))

    def test_positive_proxy_scaling_keeps_coords(self, rng):
        # Power-of-two scalings commute exactly with every float op, so the
        # scaled proxy selects bitwise-identical coordinates.
        fg = random_feature_group(rng, n=2, d=5, h=4, w=4)
        vec = rng.standard_normal(5)
        unit = vec / np.linalg.norm(vec)
        base = search_corepresentation(fg, Proxy(unit), 6)
        for lam in (0.25, 2.0, 8.0):
            scaled = Proxy(lam * unit, degenerate=True)
            got = search_corepresentation(fg, scaled, 6)
            assert np.array_equal(got.coords, base.coords)


class TestCorrelationTransform:
    def test_all_factors_one(self):
        fg = single_pixel_group([1.0, 0.0])
        p = Proxy(np.array([1.0, 0.0]))
        corep = search_corepresentation(fg, p, 1)
        stack = correlation_transform(fg, p, corep)
        assert stack.maps.reshape(-1).tolist() == [1.0]

    def test_orthogonal_proxy_zeroes_everything(self, rng):
        arr = np.zeros((1, 3, 2, 2), dtype=np.float32)
        arr[0, 0] = 1.0
        fg = FeatureGroup(arr)
        p = Proxy(np.array([0.0, 1.0, 0.0]))
        corep = CoRepresentation(
            np.array([[1.0, 0.0, 0.0]]), np.array([[0, 0, 0]]), np.array([0.0])
        )
        stack = correlation_transform(fg, p, corep)
        assert np.array_equal(stack.maps, np.zeros_like(stack.maps))

    def test_hand_case(self):
        arr = np.zeros((1, 2, 1, 2), dtype=np.float32)
        arr[0, :, 0, 0] = [1.0, 0.0]
        arr[0, :, 0, 1] = [0.6, 0.8]
        fg = FeatureGroup(arr)
        p = Proxy(np.array([1.0, 0.0]))
        corep = CoRepresentation(np.array([[0.0, 1.0]]), np.array([[0, 0, 1]]), np.array([0.8]))
        stack = correlation_transform(fg, p, corep)
        assert np.allclose(stack.maps[0, 0, 0], [0.0, 0.48], atol=1e-7)

    def test_matches_oracle(self, rng):
        for _ in range(20):
            fg = random_feature_group(rng, n=3, d=8, h=6, w=6)
            vec = rng.standard_normal(8)
            p = Proxy(vec / np.linalg.norm(vec))
            corep = search_corepresentation(fg, p, 5)
            stack = correlation_transform(fg, p, corep)
            oracle = np.asarray(oracle_correlation_transform(fg, p.vec, corep.embeddings))
            assert np.abs(stack.maps - oracle).max() <= 1e-5

    def test_bounded_for_unit_inputs(self, rng):
        fg = random_feature_group(rng, n=2, d=6, h=5, w=5)
        vec = rng.standard_normal(6)
        p = Proxy(vec / np.linalg.norm(vec))
        corep = search_corepresentation(fg, p, 8)
        stack = correlation_transform(fg, p, corep)
        assert np.abs(stack.maps).max() <= 1.0 + 1e-5

    def test_channel_mismatch(self, rng):
        fg = random_feature_group(rng, d=4)
        p = Proxy(np.array([1.0, 0.0, 0.0, 0.0]))
        corep = CoRepresentation(np.array([[1.0, 0.0]]), np.array([[0, 0, 0]]), np.array([1.0]))
        with pytest.raises(ShapeError):
            correlation_transform(fg, p, corep)


def tie_heavy_group(rng, n=3, d=16, h=4, w=5):
    """Every embedding is one of three unit vectors or zero, so scores tie often."""
    pool = rng.standard_normal((3, d))
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    pool = np.vstack([pool, np.zeros((1, d))]).astype(np.float32)
    pick = rng.integers(0, 4, size=(n, h, w))
    return FeatureGroup(pool[pick].transpose(0, 3, 1, 2))


def cancelling_group(rng, n=2, d=12, h=2, w=4):
    """Each image holds v and -v equally often: every masked average is exactly 0.

    v is positive in every channel, so against the zero proxy every product
    at -v is -0.0, and only a sum that starts from +0.0 scores it +0.0.
    """
    v = np.abs(rng.standard_normal(d))
    v = (v / np.linalg.norm(v)).astype(np.float32)
    signs = np.tile([1.0, -1.0], n * h * w // 2).astype(np.float32).reshape(n, h, w)
    return FeatureGroup(np.einsum("d,nhw->ndhw", v, signs))


class TestUnusualGroupsAgainstOracles:
    # Inputs the fixtures never generate. Every iteration's selection must
    # equal the brute-force oracle exactly, and the shared score vector must
    # be the oracle's left-to-right sums byte for byte.
    CASES = {
        "tie_heavy": lambda rng: (tie_heavy_group(rng), 9),
        "float64": lambda rng: (random_feature_group(rng, n=3, d=10, h=4, w=4, dtype=np.float64), 7),
        "one_image": lambda rng: (random_feature_group(rng, n=1, d=24, h=5, w=6), 6),
        # One pixel per image: each channel sum has a single column, which
        # numpy would add pairwise rather than left to right.
        "one_by_one": lambda rng: (random_feature_group(rng, n=6, d=64, h=1, w=1), 4),
    }

    @staticmethod
    def assert_trace_matches_oracles(fg, trace, k):
        assert len(trace) > 0
        for rec in trace.records:
            coords, _, picked = oracle_search(fg, rec.proxy.vec.tolist(), k)
            assert [tuple(c) for c in rec.corep.coords.tolist()] == coords
            assert rec.corep.scores.tolist() == picked
            expected = np.asarray(oracle_scores(fg, rec.proxy.vec), dtype=np.float64).tobytes()
            assert rec.scores.tobytes() == expected
            assert score_all(fg, rec.proxy).tobytes() == expected

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_iteration_matches_the_oracles(self, rng, case):
        fg, k = self.CASES[case](rng)
        init = random_map_group(rng, n=fg.n_images, h=fg.height, w=fg.width)
        cfg = PipelineConfig(k=k, iters=3)
        trace = run_pipeline(fg, init, cfg, keep_scores=True)
        self.assert_trace_matches_oracles(fg, trace, k)
        assert_reference_decode_pinned(fg, init, cfg, trace)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_binarized_run_matches_the_oracles(self, rng, case):
        fg, k = self.CASES[case](rng)
        init = random_map_group(rng, n=fg.n_images, h=fg.height, w=fg.width)
        cfg = PipelineConfig(k=k, iters=3, binarize_maps=True)
        trace = run_pipeline(fg, init, cfg, keep_scores=True)
        prev = init
        for rec in trace.records:
            vec, degenerate = oracle_proxy(fg, prev.binarized())
            assert rec.proxy.degenerate == degenerate
            assert np.abs(rec.proxy.vec - np.asarray(vec)).max() <= 1e-6
            scores = oracle_scores(fg, rec.proxy.vec)
            assert rec.scores.tobytes() == np.asarray(scores, dtype=np.float64).tobytes()
            coords, _, _ = oracle_search(fg, rec.proxy.vec.tolist(), k)
            assert [tuple(c) for c in rec.corep.coords.tolist()] == coords
            prev = rec.maps
        assert_reference_decode_pinned(fg, init, cfg, trace)

    def test_zero_mask_takes_the_degenerate_proxy(self, rng):
        fg = tie_heavy_group(rng)
        init = MapGroup(np.zeros((fg.n_images, fg.height, fg.width), dtype=np.float32))
        cfg = PipelineConfig(k=9, iters=1)
        trace = run_pipeline(fg, init, cfg, keep_scores=True)
        assert trace.records[0].proxy.degenerate
        self.assert_trace_matches_oracles(fg, trace, 9)
        assert_reference_decode_pinned(fg, init, cfg, trace)

    def test_zero_proxy_ties_every_score(self, rng):
        # The zero mask falls back to the unmasked average, which is zero too.
        fg = cancelling_group(rng)
        init = MapGroup(np.zeros((fg.n_images, fg.height, fg.width), dtype=np.float32))
        cfg = PipelineConfig(k=5, iters=1)
        trace = run_pipeline(fg, init, cfg, keep_scores=True)
        rec = trace.records[0]
        assert rec.proxy.degenerate and not rec.proxy.vec.any()
        assert rec.corep.coords.tolist() == [[0, 0, c] for c in range(4)] + [[0, 1, 0]]
        self.assert_trace_matches_oracles(fg, trace, 5)
        assert_reference_decode_pinned(fg, init, cfg, trace)


class TestByImage:
    def test_contiguous_ranges_cover_every_image_once(self):
        from corp import tensor

        for n, workers, expected in [
            (7, 3, [(0, 0, 2), (1, 2, 4), (2, 4, 7)]),
            (2, 8, [(0, 0, 1), (1, 1, 2)]),
            (5, 1, [(0, 0, 5)]),
        ]:
            seen = []
            tensor._by_image(n, workers, lambda w, lo, hi: seen.append((w, lo, hi)))
            assert sorted(seen) == expected

    def test_more_workers_than_cores_write_each_image_once(self):
        import sys

        from corp import tensor

        counts = np.zeros(97, dtype=np.int64)

        def part(w, lo, hi):
            for i in range(lo, hi):
                counts[i] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                tensor._by_image(97, 8, part)
        finally:
            sys.setswitchinterval(interval)
        assert (counts == 50).all()

    @pytest.mark.parametrize("failing", [0, 2])
    def test_exception_arrives_after_every_part(self, failing):
        from corp import tensor

        finished = []

        def part(w, lo, hi):
            if w == failing:
                raise RuntimeError(f"part {w}")
            time.sleep(0.2)
            finished.append(w)

        with pytest.raises(RuntimeError, match=f"part {failing}"):
            tensor._by_image(3, 3, part)
        assert sorted(finished) == [w for w in range(3) if w != failing]


class TestSharedScores:
    def test_given_scores_change_nothing(self, rng):
        for dtype in (np.float32, np.float64):
            fg = random_feature_group(rng, n=3, d=8, h=6, w=6, dtype=dtype)
            vec = rng.standard_normal(8)
            p = Proxy(vec / np.linalg.norm(vec))
            scores = score_all(fg, p)
            corep = search_corepresentation(fg, p, 5)
            shared = search_corepresentation(fg, p, 5, scores=scores)
            assert np.array_equal(shared.coords, corep.coords)
            assert np.array_equal(shared.scores, corep.scores)
            own = correlation_transform(fg, p, corep).maps
            given = correlation_transform(fg, p, corep, scores=scores).maps
            assert own.tobytes() == given.tobytes()


class TestPurityProportion:
    def _corep(self, coords):
        k = len(coords)
        return CoRepresentation(
            np.eye(max(k, 2))[:k], np.asarray(coords), np.linspace(1.0, 0.5, k)
        )

    def test_all_inside(self):
        gt = MapGroup(np.ones((1, 3, 3), dtype=np.float32))
        corep = self._corep([(0, 0, 0), (0, 1, 1)])
        assert purity_proportion(corep, gt) == 1.0

    def test_all_outside(self):
        gt = MapGroup(np.zeros((1, 3, 3), dtype=np.float32))
        corep = self._corep([(0, 0, 0), (0, 1, 1)])
        assert purity_proportion(corep, gt) == 0.0

    def test_three_of_four(self):
        gt_arr = np.ones((1, 3, 3), dtype=np.float32)
        gt_arr[0, 2, 2] = 0.0
        gt = MapGroup(gt_arr)
        corep = self._corep([(0, 0, 0), (0, 1, 1), (0, 0, 2), (0, 2, 2)])
        assert purity_proportion(corep, gt) == 0.75

    def test_resolution_mismatch(self):
        gt = MapGroup(np.ones((1, 2, 2), dtype=np.float32))
        corep = self._corep([(0, 2, 2)])
        with pytest.raises(ShapeError):
            purity_proportion(corep, gt)

    def test_bad_threshold(self):
        gt = MapGroup(np.ones((1, 3, 3), dtype=np.float32))
        corep = self._corep([(0, 0, 0)])
        with pytest.raises(ArgumentError):
            purity_proportion(corep, gt, threshold=1.5)
