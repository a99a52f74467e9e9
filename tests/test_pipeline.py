import numpy as np
import pytest

from corp import (
    ArgumentError,
    FeatureGroup,
    FixtureSpec,
    MapGroup,
    PipelineConfig,
    ShapeError,
    compute_proxy,
    correlation_transform,
    evaluate,
    generate_fixture,
    random_fixture_spec,
    resize_map_group,
    run_pipeline,
    score_all,
)
from corp.errors import DecoderNotFoundError
from corp.oracles import oracle_correlation_transform, oracle_proxy, oracle_search
from corp.pipeline import IterationRecord, IterationTrace
from conftest import (
    assert_reference_decode_pinned,
    patch_worker_count,
    random_feature_group,
    random_map_group,
    stack_decoder,
    subprocess_env,
)

# The shipped wide shape, plus one and three images so that the split by
# image gives one range and then ranges of unequal length, and a 1x1 grid,
# whose channel sums have a single column. Prints one digest per shape.
THREAD_COUNT_SNIPPET = (
    "import hashlib, numpy as np\n"
    "from corp import FeatureGroup, MapGroup, PipelineConfig, run_pipeline\n"
    "for n, d, hw, k, t in ((20, 512, 28, 45, 6), (1, 64, 12, 16, 3), (3, 64, 12, 16, 3),\n"
    "                      (4, 64, 1, 3, 3)):\n"
    "    rng = np.random.default_rng(4242)\n"
    "    raw = rng.standard_normal((n, d, hw, hw), dtype=np.float32)\n"
    "    fg = FeatureGroup.from_tensors(list(raw), normalize=True)\n"
    "    init = MapGroup(rng.random((n, hw, hw), dtype=np.float32))\n"
    "    tr = run_pipeline(fg, init, PipelineConfig(k=k, iters=t), keep_scores=True)\n"
    "    h = hashlib.sha256()\n"
    "    for r in tr.records:\n"
    "        for a in (r.maps.maps, r.proxy.vec, r.corep.coords, r.scores):\n"
    "            h.update(a.tobytes())\n"
    "    print(n, h.hexdigest())\n"
)

# THREAD_COUNT_SNIPPET's output on numpy 2.4.6, recorded from the channel sum
# that wrote every float64 product into scratch and added the rows with one
# add.reduce, and from the proxy's masked sums as one einsum "ndp,np->nd" per
# image range: any faster kernel must keep these bits.
THREAD_COUNT_DIGESTS = (
    "20 f9176bac396f51e2f348e489c761ce834ce697400d0c56de730b18d806c17e4b\n"
    "1 4dc4ba18af007a9007cbb114dea85b42383c99c5052f6490cd2f0ad9b2cdb074\n"
    "3 bbe53a4e4fda8a18244db7fad48456433cd12a40ee07b025e2221bca26e00e81\n"
    "4 563d88cec204e71d50bda6ed6839fcf96a0bfcad6f174f9e4b3dadd278febaf7\n"
)


def single_pixel_group(embedding):
    return FeatureGroup(np.asarray(embedding, dtype=np.float32).reshape(1, -1, 1, 1))


class TestComputeProxy:
    def test_single_pixel_identity(self):
        fg = single_pixel_group([0.6, 0.8])
        p = compute_proxy(fg, MapGroup.all_ones(1, 1, 1))
        assert np.allclose(p.vec, [0.6, 0.8], atol=1e-7)
        assert not p.degenerate

    def test_zero_masks_fall_back_to_unmasked(self, rng):
        fg = random_feature_group(rng, n=2, d=4, h=3, w=3)
        zeros = MapGroup(np.zeros((2, 3, 3), dtype=np.float32))
        p = compute_proxy(fg, zeros)
        unmasked = compute_proxy(fg, MapGroup.all_ones(2, 3, 3))
        assert p.degenerate and not unmasked.degenerate
        assert np.array_equal(p.vec, unmasked.vec)
        assert p.source_norm == 0.0

    def test_two_orthogonal_images(self):
        arr = np.zeros((2, 2, 1, 1), dtype=np.float32)
        arr[0, :, 0, 0] = [1.0, 0.0]
        arr[1, :, 0, 0] = [0.0, 1.0]
        fg = FeatureGroup(arr)
        p = compute_proxy(fg, MapGroup.all_ones(2, 1, 1))
        assert np.allclose(p.vec, [0.70710678, 0.70710678], atol=1e-7)

    def test_unit_norm_when_not_degenerate(self, rng):
        fg = random_feature_group(rng, n=3, d=6, h=4, w=4)
        p = compute_proxy(fg, random_map_group(rng, n=3, h=4, w=4))
        assert abs(np.linalg.norm(p.vec) - 1.0) <= 1e-6

    def test_all_zero_features_give_zero_degenerate_proxy(self):
        fg = FeatureGroup(np.zeros((2, 3, 2, 2), dtype=np.float32))
        p = compute_proxy(fg, MapGroup.all_ones(2, 2, 2))
        assert p.degenerate
        assert np.array_equal(p.vec, np.zeros(3))

    def test_image_order_invariant_bitwise(self, rng):
        # Exact summation over images makes the proxy independent of image order.
        fg = random_feature_group(rng, n=4, d=5, h=3, w=3)
        maps = random_map_group(rng, n=4, h=3, w=3)
        p = compute_proxy(fg, maps)
        perm = [3, 1, 0, 2]
        p2 = compute_proxy(FeatureGroup(fg.embeddings[perm]), MapGroup(maps.maps[perm]))
        assert np.array_equal(p.vec, p2.vec)

    def test_shape_mismatch(self, rng):
        fg = random_feature_group(rng, n=2, d=4, h=3, w=3)
        with pytest.raises(ShapeError):
            compute_proxy(fg, MapGroup.all_ones(2, 4, 4))


class TestProxyFromGroundTruth:
    def test_single_selected_pixel(self):
        arr = np.zeros((1, 2, 1, 2), dtype=np.float32)
        arr[0, :, 0, 0] = [0.0, 1.0]
        arr[0, :, 0, 1] = [1.0, 0.0]
        fg = FeatureGroup(arr)
        gt = MapGroup(np.array([[[1.0, 0.0]]], dtype=np.float32))
        p = compute_proxy(fg, gt)
        assert np.allclose(p.vec, [0.0, 1.0], atol=1e-7)

    def test_half_mask_normalized_mean(self):
        arr = np.zeros((1, 2, 1, 2), dtype=np.float32)
        arr[0, :, 0, 0] = [1.0, 0.0]
        arr[0, :, 0, 1] = [0.0, 1.0]
        fg = FeatureGroup(arr)
        gt = MapGroup(np.ones((1, 1, 2), dtype=np.float32))
        p = compute_proxy(fg, gt)
        assert np.allclose(p.vec, [0.70710678, 0.70710678], atol=1e-7)


class TestRunPipeline:
    def test_zero_iterations_empty_trace(self, rng):
        fg = random_feature_group(rng, n=2, d=4, h=4, w=4)
        init = random_map_group(rng, n=2, h=4, w=4)
        trace = run_pipeline(fg, init, PipelineConfig(iters=0))
        assert len(trace) == 0

    def test_trace_indices_run_from_one(self, rng):
        spec = random_fixture_spec(5)
        fg, gt, init = generate_fixture(spec)
        trace = run_pipeline(fg, init, PipelineConfig(k=8, iters=4), gt=gt)
        assert [r.iteration for r in trace.records] == [1, 2, 3, 4]
        assert all(r.purity is not None for r in trace.records)

    def test_bit_identical_across_runs(self, rng):
        spec = random_fixture_spec(6)
        fg, gt, init = generate_fixture(spec)
        cfg = PipelineConfig(k=8)
        t1 = run_pipeline(fg, init, cfg)
        t2 = run_pipeline(fg, init, cfg)
        for a, b in zip(t1.records, t2.records):
            assert np.array_equal(a.maps.maps, b.maps.maps)
            assert np.array_equal(a.proxy.vec, b.proxy.vec)
            assert np.array_equal(a.corep.coords, b.corep.coords)

    def test_bit_identical_across_thread_counts(self):
        import subprocess
        import sys

        # Images are split over the CPUs the process may use, whatever BLAS
        # is told; the pipeline's default path makes no BLAS call.
        digests = set()
        for threads in ("1", "2", "4"):
            env = subprocess_env(
                OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
            )
            out = subprocess.run(
                [sys.executable, "-c", THREAD_COUNT_SNIPPET], env=env, capture_output=True,
                text=True, timeout=300,
            )
            assert out.returncode == 0, out.stderr
            assert len(out.stdout.split()) == 8
            digests.add(out.stdout)
        assert len(digests) == 1
        assert digests == {THREAD_COUNT_DIGESTS}

    def test_bit_identical_across_worker_counts(self, monkeypatch):
        import contextlib
        import io

        outputs = set()
        for workers in (1, 2, 3, 4):
            patch_worker_count(monkeypatch, workers)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(THREAD_COUNT_SNIPPET, {})
            assert len(out.getvalue().split()) == 8
            outputs.add(out.getvalue())
        assert len(outputs) == 1
        assert outputs == {THREAD_COUNT_DIGESTS}

    def test_default_decode_calls_no_blas(self, rng, monkeypatch):
        import importlib

        def no_blas(name):
            def call(*args, **kwargs):
                raise AssertionError(f"np.{name} called")
            return call

        # einsum(optimize=True) reaches BLAS through names bound in its own module.
        einsumfunc = importlib.import_module("numpy._core.einsumfunc")
        for module in (np, einsumfunc):
            for name in ("matmul", "dot", "tensordot"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, no_blas(name))
        fg = random_feature_group(rng, n=3, d=16, h=6, w=6)
        init = random_map_group(rng, n=3, h=6, w=6)
        assert len(run_pipeline(fg, init, PipelineConfig(k=8, iters=2))) == 2
        with pytest.raises(AssertionError, match="np.matmul called"):
            run_pipeline(fg, init, PipelineConfig(k=8, iters=1, decoder=stack_decoder()))

    def test_fixed_point_propagates(self, rng):
        # Once two consecutive map groups agree exactly, every later
        # iteration must reproduce the same maps bit for bit. The step is a
        # pure function of (features, previous maps), so feeding any map
        # group twice must give identical outputs.
        spec = random_fixture_spec(7)
        fg, gt, init = generate_fixture(spec)
        cfg = PipelineConfig(k=8, iters=1)
        m1 = run_pipeline(fg, init, cfg).records[-1].maps
        a = run_pipeline(fg, m1, cfg).records[-1].maps
        b = run_pipeline(fg, m1, cfg).records[-1].maps
        assert np.array_equal(a.maps, b.maps)

    def test_converged_trace_stays_fixed(self, rng):
        spec = random_fixture_spec(8)
        fg, gt, init = generate_fixture(spec)
        trace = run_pipeline(fg, init, PipelineConfig(k=8, iters=8))
        maps = [r.maps.maps for r in trace.records]
        fixed_at = None
        for t in range(1, len(maps)):
            if np.array_equal(maps[t], maps[t - 1]):
                fixed_at = t
                break
        if fixed_at is not None:
            for t in range(fixed_at, len(maps)):
                assert np.array_equal(maps[t], maps[fixed_at - 1])

    def test_image_permutation_equivariance(self, rng):
        spec = random_fixture_spec(9)
        fg, gt, init = generate_fixture(spec)
        cfg = PipelineConfig(k=8, iters=2)
        trace = run_pipeline(fg, init, cfg)
        perm = [2, 0, 1]
        fg_p = FeatureGroup(fg.embeddings[perm])
        init_p = MapGroup(init.maps[perm])
        trace_p = run_pipeline(fg_p, init_p, cfg)
        for rec, rec_p in zip(trace.records, trace_p.records):
            assert np.array_equal(rec.maps.maps[perm], rec_p.maps.maps)

    def test_purity_non_decreasing_on_separable_fixture(self):
        for seed in (11, 12, 13):
            spec = random_fixture_spec(seed)
            fg, gt, init = generate_fixture(spec)
            trace = run_pipeline(fg, init, PipelineConfig(k=16), gt=gt)
            purities = [r.purity for r in trace.records]
            assert all(b >= a for a, b in zip(purities, purities[1:]))
            assert all(p == 1.0 for p in purities[1:])

    def test_gt_init_maps_give_pure_first_selection(self):
        spec = random_fixture_spec(10, init_mode="gt")
        fg, gt, init = generate_fixture(spec)
        trace = run_pipeline(fg, init, PipelineConfig(k=16, iters=1), gt=gt)
        assert trace.records[0].purity == 1.0

    def test_maps_resized_to_feature_grid(self, rng):
        fg = random_feature_group(rng, n=2, d=4, h=4, w=4)
        init = random_map_group(rng, n=2, h=16, w=16)
        trace = run_pipeline(fg, init, PipelineConfig(k=4, iters=1))
        assert trace.records[0].maps.maps.shape == (2, 4, 4)

    def test_ground_truth_proxy_mode(self, rng):
        spec = random_fixture_spec(14)
        fg, gt, init = generate_fixture(spec)
        cfg = PipelineConfig(k=8, iters=2, proxy_mode="from_ground_truth")
        trace = run_pipeline(fg, init, cfg, gt=gt)
        # Proxy comes from gt each iteration, so it never changes.
        assert np.array_equal(trace.records[0].proxy.vec, trace.records[1].proxy.vec)
        assert trace.records[0].purity == 1.0

    def test_ground_truth_mode_requires_gt(self, rng):
        fg = random_feature_group(rng, n=2, d=4, h=4, w=4)
        init = random_map_group(rng, n=2, h=4, w=4)
        with pytest.raises(ArgumentError):
            run_pipeline(fg, init, PipelineConfig(proxy_mode="from_ground_truth"))

    def test_unknown_decoder(self, rng):
        fg = random_feature_group(rng, n=2, d=4, h=4, w=4)
        init = random_map_group(rng, n=2, h=4, w=4)
        with pytest.raises(DecoderNotFoundError):
            run_pipeline(fg, init, PipelineConfig(decoder="missing"))

    def test_keep_scores(self, rng):
        fg = random_feature_group(rng, n=2, d=4, h=4, w=4)
        init = random_map_group(rng, n=2, h=4, w=4)
        trace = run_pipeline(fg, init, PipelineConfig(k=4, iters=1), keep_scores=True)
        assert trace.records[0].scores.shape == (2 * 4 * 4,)

    def test_binarize_maps_option(self):
        # Records the loop de-purifying on soft maps: one distractor lies at
        # cosine 0.5 to the co-direction. Fed back soft, its weak positive
        # correlation pulls the proxy away until no selected pixel is
        # foreground; binarized maps keep every selection pure. Purity is a
        # multiple of 1/K, so it compares exactly.
        e = np.eye(16)
        regions = ((0, 0, 4, 4), (8, 8, 4, 4), (2, 6, 4, 4), (6, 1, 4, 4), (4, 4, 4, 4), (1, 8, 4, 4))
        distractors = (tuple(0.5 * e[0] + np.sqrt(0.75) * e[1]), tuple(e[2]), tuple(e[3]))
        for seed, soft_purity, soft_fmax in ((0, [1.0, 0.25, 0.0, 0.0, 0.0, 0.0], 0.314253),
                                             (6, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 0.315684)):
            spec = FixtureSpec(seed=seed, n_images=6, channels=16, height=12, width=12,
                               planted_regions=regions, co_direction=tuple(e[0]),
                               distractor_directions=distractors, separation_margin=0.5,
                               noise_sigma=0.05, init_mode="dilated")
            fg, gt, init = generate_fixture(spec)
            soft = run_pipeline(fg, init, PipelineConfig(k=32, iters=6), gt=gt)
            hard = run_pipeline(fg, init, PipelineConfig(k=32, iters=6, binarize_maps=True), gt=gt)
            assert [r.purity for r in soft.records] == soft_purity
            assert [r.purity for r in hard.records] == [1.0] * 6
            assert evaluate(soft.records[-1].maps, gt).f_max == pytest.approx(soft_fmax, abs=1e-5)
            assert evaluate(hard.records[-1].maps, gt).f_max == 1.0

    @pytest.mark.parametrize("scale, resizes", [(1, 0), (2, 1)])
    def test_resizes_only_on_entry(self, rng, monkeypatch, scale, resizes):
        import sys

        from corp import tensor

        calls = []
        resize = tensor.bilinear_resize

        def counting(*args):
            calls.append(args[1:])
            return resize(*args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "corp" and vars(module).get("bilinear_resize") is resize:
                monkeypatch.setattr(module, "bilinear_resize", counting)
        fg = random_feature_group(rng, n=3, d=8, h=5, w=6)
        init = random_map_group(rng, n=3, h=5 * scale, w=6 * scale)
        trace = run_pipeline(fg, init, PipelineConfig(k=6, iters=3))
        assert len(trace) == 3 and calls == [(5, 6)] * resizes


class TestTracerContract:
    def test_public_calls_stay_on_the_calling_thread(self, rng, monkeypatch):
        # The benchmark's spans wrap public corp functions and type
        # constructors and assume one call stack, so image workers may call
        # numpy only. Wrap every public function (in each module that holds
        # it) and every type's validation, and record the calling thread.
        import dataclasses
        import functools
        import inspect
        import sys
        import threading

        from corp import pipeline, tensor

        calls, part_threads = [], []

        def recording(fn):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                calls.append((fn.__qualname__, threading.get_ident()))
                return fn(*args, **kwargs)
            return wrapped

        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "corp"]
        seen = set()
        for mod in modules:
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name)
                if id(obj) in seen:
                    continue
                seen.add(id(obj))
                if inspect.isfunction(obj):
                    wrapped = recording(obj)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is obj:
                                monkeypatch.setattr(m, attr, wrapped)
                elif dataclasses.is_dataclass(obj) and hasattr(obj, "__post_init__"):
                    monkeypatch.setattr(obj, "__post_init__", recording(obj.__post_init__))

        by_image = tensor._by_image

        def recording_by_image(n, workers, part):
            def recorded(*args):
                part_threads.append(threading.get_ident())
                return part(*args)
            return by_image(n, workers, recorded)

        for m in modules:
            if vars(m).get("_by_image") is by_image:
                monkeypatch.setattr(m, "_by_image", recording_by_image)
        patch_worker_count(monkeypatch, 2)
        fg = random_feature_group(rng, n=4, d=8, h=6, w=6)
        init = random_map_group(rng, n=4, h=12, w=12)
        gt = MapGroup((rng.random((4, 12, 12)) < 0.5).astype(np.float32))
        # The default decode, then a DECODERS entry that takes the stack.
        for decoder in ("reference", stack_decoder()):
            cfg = PipelineConfig(k=8, iters=2, decoder=decoder)
            pipeline.run_pipeline(fg, init, cfg, gt=gt, keep_scores=True)
        caller = threading.get_ident()
        names = {name for name, _ in calls}
        assert {"run_pipeline", "compute_proxy", "score_all", "decode_mean",
                "correlation_transform", "FeatureGroup.__post_init__",
                "CorrelationMapStack.__post_init__"} <= names
        assert [c for c in calls if c[1] != caller] == []
        assert caller in part_threads and len(set(part_threads)) > 1


class TestIterationTrace:
    def test_bad_indices_rejected(self, rng):
        spec = random_fixture_spec(16)
        fg, gt, init = generate_fixture(spec)
        rec = run_pipeline(fg, init, PipelineConfig(k=4, iters=1)).records[0]
        with pytest.raises(ArgumentError):
            IterationTrace((IterationRecord(2, rec.proxy, rec.corep, rec.maps),))


class TestResizeMapGroup:
    def test_same_size_passthrough(self, rng):
        mg = random_map_group(rng, n=2, h=4, w=4)
        assert resize_map_group(mg, 4, 4) is mg

    def test_downsample_range(self, rng):
        mg = random_map_group(rng, n=2, h=16, w=16)
        out = resize_map_group(mg, 4, 4)
        assert out.maps.shape == (2, 4, 4)
        assert out.maps.min() >= 0.0 and out.maps.max() <= 1.0


class TestShippedScale:
    @pytest.mark.parametrize("k, iters", [(32, 3), (45, 6)])
    def test_every_iteration_matches_the_oracles(self, k, iters):
        # Realistic depth with few pixels, so the pure-Python oracles stay fast.
        rng = np.random.default_rng(k)
        fg = random_feature_group(rng, n=3, d=256, h=5, w=5)
        init = random_map_group(rng, n=3, h=5, w=5)
        trace = run_pipeline(fg, init, PipelineConfig(k=k, iters=iters), keep_scores=True)
        assert len(trace) == iters
        for rec in trace.records:
            coords, _, picked = oracle_search(fg, rec.proxy.vec.tolist(), k)
            assert [tuple(c) for c in rec.corep.coords.tolist()] == coords
            assert rec.corep.scores.tolist() == picked
            assert rec.scores.tobytes() == score_all(fg, rec.proxy).tobytes()
            stack = correlation_transform(fg, rec.proxy, rec.corep, scores=rec.scores)
            ref = np.asarray(oracle_correlation_transform(fg, rec.proxy.vec, rec.corep.embeddings))
            assert np.abs(stack.maps - ref).max() <= 1e-5
        assert_reference_decode_pinned(fg, init, PipelineConfig(k=k, iters=iters), trace)

    def test_proxy_matches_the_oracle_at_wide_depth(self):
        # The wide shape's depth and grid on two images: every iteration's
        # proxy against the pure-Python masked mean of that iteration's source.
        rng = np.random.default_rng(7)
        fg = random_feature_group(rng, n=2, d=512, h=28, w=28)
        init = random_map_group(rng, n=2, h=28, w=28)
        trace = run_pipeline(fg, init, PipelineConfig(k=45, iters=6))
        sources = [init] + [rec.maps for rec in trace.records[:-1]]
        for rec, source in zip(trace.records, sources):
            vec, degenerate = oracle_proxy(fg.embeddings, source.maps)
            assert rec.proxy.degenerate == degenerate
            assert np.abs(rec.proxy.vec - np.asarray(vec)).max() <= 1e-12
