import csv
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corp import (
    MapGroup,
    ShapeError,
    e_measure_mean,
    evaluate,
    f_measure_curve,
    mae,
    read_map_pgm,
    s_measure,
    write_map_pgm,
    write_metrics_csv,
)
from corp.cli import main
from corp.metrics import THRESHOLDS, _threshold_counts
from corp.oracles import oracle_e_mean, oracle_f_curve, oracle_mae, oracle_s_measure
from conftest import random_binary_group, random_map_group


def group(*images):
    return MapGroup(np.asarray(images, dtype=np.float32))


class TestMae:
    def test_identical_maps(self, rng):
        g = random_binary_group(rng)
        assert mae(g, g) == 0.0

    def test_complement_of_binary(self, rng):
        g = random_binary_group(rng)
        inv = MapGroup(1.0 - g.maps)
        assert mae(inv, g) == pytest.approx(1.0)

    def test_hand_value(self):
        pred = group([[0.2, 0.8]])
        gt = group([[0.0, 1.0]])
        assert mae(pred, gt) == pytest.approx(0.2, abs=1e-7)

    def test_symmetric_for_binary_pairs(self, rng):
        a = random_binary_group(rng)
        b = random_binary_group(rng)
        assert mae(a, b) == pytest.approx(mae(b, a), abs=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_lipschitz_in_sup_norm(self, seed):
        r = np.random.default_rng(seed)
        gt = group((r.random((3, 3)) > 0.5).astype(np.float32))
        a = MapGroup(r.random((1, 3, 3)).astype(np.float32))
        b = MapGroup(r.random((1, 3, 3)).astype(np.float32))
        sup = float(np.abs(a.maps - b.maps).max())
        assert abs(mae(a, gt) - mae(b, gt)) <= sup + 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mae(group([[0.0]]), group([[0.0, 1.0]]))


class TestFMeasure:
    def test_threshold_grid_stays_below_one(self):
        assert THRESHOLDS.shape == (256,)
        assert THRESHOLDS[0] == 0.0 and THRESHOLDS[-1] < 1.0

    def test_perfect_prediction_curve_is_one(self, rng):
        g = random_binary_group(rng)
        curve = f_measure_curve(g, g)
        assert np.array_equal(curve, np.ones(256))

    def test_all_zero_prediction(self, rng):
        g = random_binary_group(rng)
        zeros = MapGroup(np.zeros_like(g.maps))
        assert f_measure_curve(zeros, g).max() == 0.0

    def test_hand_case_half_precision_full_recall(self):
        pred = group([[0.9, 0.9], [0.1, 0.1]])
        gt = group([[1.0, 0.0], [0.0, 0.0]])
        curve = f_measure_curve(pred, gt)
        assert THRESHOLDS[128] == 0.5
        assert curve[128] == pytest.approx(0.565, abs=1e-3)

    def test_fmax_dominates_favg(self, rng):
        pred = random_map_group(rng, n=2, h=8, w=8)
        gt = random_binary_group(rng, n=2)
        curve = f_measure_curve(pred, gt)
        assert curve.max() >= curve.mean()

    def test_matches_oracle(self, rng):
        pred = random_map_group(rng, n=2, h=8, w=8)
        gt = random_binary_group(rng, n=2)
        mine = f_measure_curve(pred, gt)
        ref = np.asarray(oracle_f_curve(pred, gt))
        assert np.abs(mine - ref).max() <= 1e-6

    def test_zero_foreground_flagged(self, rng):
        pred = random_map_group(rng, n=2, h=4, w=4)
        gt = MapGroup(np.stack([np.zeros((4, 4)), np.ones((4, 4))]).astype(np.float32))
        report = evaluate(pred, gt)
        assert report.zero_foreground == (0,)
        assert report.per_image[0].f_max == 0.0


class TestSMeasure:
    def test_perfect_prediction(self, rng):
        g = random_binary_group(rng)
        assert s_measure(g, g) == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_all_background(self):
        gt = group(np.zeros((4, 4)))
        pred = group(np.zeros((4, 4)))
        assert s_measure(pred, gt) == 1.0

    def test_degenerate_all_background_vs_mean(self):
        gt = group(np.zeros((4, 4)))
        pred = group(np.full((4, 4), 0.25))
        assert s_measure(pred, gt) == pytest.approx(0.75)

    def test_degenerate_all_foreground(self):
        gt = group(np.ones((4, 4)))
        pred = group(np.full((4, 4), 0.7))
        assert s_measure(pred, gt) == pytest.approx(0.7, abs=1e-6)

    def test_matches_oracle_on_seeded_pairs(self, rng):
        for _ in range(10):
            pred = random_map_group(rng, n=2, h=8, w=8)
            gt = random_binary_group(rng, n=2)
            assert s_measure(pred, gt) == pytest.approx(
                oracle_s_measure(pred, gt), abs=1e-6
            )

    def test_in_unit_interval(self, rng):
        for _ in range(10):
            pred = random_map_group(rng, n=2, h=6, w=6)
            gt = random_binary_group(rng, n=2, h=6, w=6)
            assert 0.0 <= s_measure(pred, gt) <= 1.0

    def test_tiny_foreground_still_ideal_on_self(self):
        g = np.zeros((1, 16, 16), dtype=np.float32)
        g[0, 3, 4] = 1.0
        gt = MapGroup(g)
        assert s_measure(gt, gt) == pytest.approx(1.0, abs=1e-6)


class TestEMeasure:
    def test_perfect_prediction(self, rng):
        g = random_binary_group(rng)
        assert e_measure_mean(g, g) == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_both_empty(self):
        z = group(np.zeros((4, 4)))
        assert e_measure_mean(z, z) == 1.0

    def test_degenerate_gt_empty_penalizes_foreground(self):
        gt = group(np.zeros((2, 2)))
        pred = group([[1.0, 1.0], [0.0, 0.0]])
        # Half the pixels binarize to foreground at every threshold.
        assert e_measure_mean(pred, gt) == pytest.approx(0.5)

    def test_tiny_foreground_still_ideal_on_self(self):
        g = np.zeros((1, 16, 16), dtype=np.float32)
        g[0, 5, 5] = 1.0
        gt = MapGroup(g)
        assert e_measure_mean(gt, gt) == pytest.approx(1.0, abs=1e-6)

    def test_matches_oracle_on_seeded_pairs(self, rng):
        for _ in range(5):
            pred = random_map_group(rng, n=2, h=8, w=8)
            gt = random_binary_group(rng, n=2)
            assert e_measure_mean(pred, gt) == pytest.approx(
                oracle_e_mean(pred, gt), abs=1e-6
            )


class TestGroupInvariance:
    def test_all_metrics_invariant_to_image_permutation(self, rng):
        pred = random_map_group(rng, n=4, h=6, w=6)
        gt = random_binary_group(rng, n=4, h=6, w=6)
        perm = [3, 0, 2, 1]
        pred_p = MapGroup(pred.maps[perm])
        gt_p = MapGroup(gt.maps[perm])
        assert mae(pred, gt) == pytest.approx(mae(pred_p, gt_p), abs=1e-12)
        assert np.allclose(f_measure_curve(pred, gt), f_measure_curve(pred_p, gt_p), atol=1e-12)
        assert s_measure(pred, gt) == pytest.approx(s_measure(pred_p, gt_p), abs=1e-12)
        assert e_measure_mean(pred, gt) == pytest.approx(e_measure_mean(pred_p, gt_p), abs=1e-12)

    def test_metrics_bit_stable_across_calls(self, rng):
        pred = random_map_group(rng, n=3, h=8, w=8)
        gt = random_binary_group(rng, n=3)
        assert s_measure(pred, gt) == s_measure(pred, gt)
        assert e_measure_mean(pred, gt) == e_measure_mean(pred, gt)


class TestEvaluateAndCsv:
    def test_report_fields_in_range(self, rng):
        pred = random_map_group(rng, n=3, h=8, w=8)
        gt = random_binary_group(rng, n=3)
        report = evaluate(pred, gt)
        for v in (report.mae, report.f_max, report.f_avg, report.s_measure, report.e_mean):
            assert 0.0 <= v <= 1.0
        assert len(report.per_image) == 3
        for row in report.per_image:
            assert row.f_max >= row.f_avg

    def test_oracle_backed_group_values(self, rng):
        pred = random_map_group(rng, n=2, h=8, w=8)
        gt = random_binary_group(rng, n=2)
        report = evaluate(pred, gt)
        assert report.mae == pytest.approx(oracle_mae(pred, gt), abs=1e-6)
        ref_curve = np.asarray(oracle_f_curve(pred, gt))
        assert report.f_max == pytest.approx(ref_curve.max(), abs=1e-6)
        assert report.f_avg == pytest.approx(ref_curve.mean(), abs=1e-6)

    def test_csv_layout(self, rng, tmp_path):
        pred = random_map_group(rng, n=3, h=6, w=6)
        gt = random_binary_group(rng, n=3, h=6, w=6)
        report = evaluate(pred, gt, image_ids=["b", "a", "c"])
        out = tmp_path / "metrics.csv"
        write_metrics_csv(out, group="demo", report=report)
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["group", "image", "mae", "fmax", "favg", "smeasure", "emean"]
        assert [r[1] for r in rows[1:]] == ["a", "b", "c", "__group__"]
        assert all(r[0] == "demo" for r in rows[1:])


@st.composite
def _edge_image(draw):
    """(pred, gt) of one image whose values sit on, or one ulp beside, the thresholds."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k = st.integers(0, 256)
    on_grid = k.map(lambda k: dtype(k / 256))
    below = k.map(lambda k: np.nextafter(dtype(k / 256), dtype(0)))
    above = k.map(lambda k: np.nextafter(dtype(k / 256), dtype(1)))
    value = st.one_of(on_grid, below, above, st.sampled_from([0.0, -0.0, 1.0]),
                      st.floats(0, 1, width=32 if dtype is np.float32 else 64))
    pred = np.array(draw(st.lists(value, min_size=h * w, max_size=h * w)), dtype=dtype)
    gt_kind = draw(st.sampled_from(["mixed", "all-fg", "all-bg"]))
    if gt_kind == "mixed":
        gt = np.array(draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w)))
    else:
        gt = np.full(h * w, gt_kind == "all-fg")
    return pred.reshape(h, w), gt.reshape(h, w)


class TestThresholdCounts:
    @given(_edge_image())
    @settings(max_examples=300)
    def test_equal_to_boolean_threshold_matrices(self, image):
        pred, gt = image
        binpred = pred.ravel()[None, :] > THRESHOLDS[:, None]
        fg = gt.ravel()[None, :]
        tp, fp, n_fg, hw = _threshold_counts(pred, gt)
        assert tp.dtype == fp.dtype == np.float64
        assert np.array_equal(tp, (binpred & fg).sum(axis=1))
        assert np.array_equal(fp, (binpred & ~fg).sum(axis=1))
        assert (n_fg, hw) == (int(gt.sum()), gt.size)


def _soft_group(seed: int, n: int = 10, h: int = 224, w: int = 224):
    """Noisy soft predictions around rectangle GT; image 0 has all-background GT."""
    r = np.random.default_rng(seed)
    gt = np.zeros((n, h, w), dtype=np.float32)
    pred = np.empty((n, h, w), dtype=np.float32)
    for i in range(n):
        if i > 0:
            rh, rw = (int(v) for v in r.integers(h // 8, h // 2, size=2))
            r0, c0 = int(r.integers(0, h - rh + 1)), int(r.integers(0, w - rw + 1))
            gt[i, r0:r0 + rh, c0:c0 + rw] = 1.0
        shifted = np.roll(gt[i], tuple(int(v) for v in r.integers(-6, 7, size=2)), axis=(0, 1))
        pred[i] = np.clip(0.15 + 0.7 * shifted + 0.15 * r.standard_normal((h, w)), 0.0, 1.0)
    return pred, gt


def _report_hex(report) -> tuple[list[str], str]:
    """float.hex of the group fields, and a sha256 over every per-image field's float.hex."""
    fields = ("mae", "f_max", "f_avg", "s_measure", "e_mean")
    group_hex = [float.hex(getattr(report, f)) for f in fields]
    rows = [row.image_id + ":" + ",".join(float.hex(getattr(row, f)) for f in fields)
            for row in report.per_image]
    return group_hex, hashlib.sha256("\n".join(rows).encode()).hexdigest()


# Recorded with the boolean-threshold-matrix metrics; the histogram counts
# must reproduce every bit.
PINNED_EVAL = {
    11: ("8e003eb3f43390bea3b9405f015213e3a1349e0ba5636338e0c5e40ed9d7aaf3",
         ["0x1.62f67660f23ebp-3", "0x1.95f9b70e26709p-1", "0x1.0935f9adaa1adp-1",
          "0x1.4f096b91cc296p-1", "0x1.66050556f623ep-1"],
         "a3503944909d938d2975f1bebdf5cf6ba42b874d6e288ef2a67d077b1c39a563"),
    12: ("e6f6b6ef7582f886d58e9ed0e5d91772cb6ece23e702d272494c759ad1567fd6",
         ["0x1.61441eee6dbf4p-3", "0x1.93f97c80e1705p-1", "0x1.09130c0907254p-1",
          "0x1.4ba5187202d3dp-1", "0x1.662ab4443b7cep-1"],
         "af5bc1834da007deb2d469d27aa50ac6b13740d1148813f6e475643eb7857982"),
}


class TestPinnedEval224:
    @pytest.mark.parametrize("seed", sorted(PINNED_EVAL))
    def test_csv_and_report_bits_pinned(self, tmp_path, seed):
        pred, gt = _soft_group(seed)
        for sub, maps in (("pred", pred), ("gt", gt)):
            (tmp_path / sub).mkdir()
            for i, m in enumerate(maps):
                write_map_pgm(tmp_path / sub / f"img_{i:03d}.pgm", m)
        out = tmp_path / "metrics.csv"
        assert main(["eval", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                     "--out", str(out)]) == 0
        csv_sha, group_hex, rows_sha = PINNED_EVAL[seed]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
        stems = [f"img_{i:03d}" for i in range(len(pred))]
        loaded = [MapGroup(np.stack([read_map_pgm(tmp_path / sub / f"{s}.pgm") for s in stems]))
                  for sub in ("pred", "gt")]
        report = evaluate(*loaded, image_ids=stems)
        assert _report_hex(report) == (group_hex, rows_sha)
        assert report.zero_foreground == (0,)


def _edge_group(dtype):
    """(pred, gt) of 6x7 images that reach the S-measure branches random groups miss.

    Images, by gt: foreground centroid on the last row, then on the last
    column (each empties two region blocks); one pixel in the bottom-right
    corner (only one block is non-empty); one pixel at the origin (a 1-pixel
    block); a centroid that leaves a 1-pixel block bottom-right; a centroid
    at x.5 (rounded half up); all foreground; all background; and random
    masks. Predictions hold exact 0.0, -0.0 and 1.0 next to random values,
    and one prediction equals its gt.
    """
    h, w = 6, 7
    r = np.random.default_rng(2303)
    gt = np.zeros((12, h, w), dtype=bool)
    gt[0, 5, 1:4] = True
    gt[1, 1:4, 6] = True
    gt[2, 5, 6] = True
    gt[3, 0, 0] = True
    gt[4, 3:6, 4:7] = True
    gt[5, 2:4, 1:3] = True
    gt[6] = True
    gt[8:] = r.random((4, h, w)) < 0.4
    pred = r.random((12, h, w))
    pred[:, 0] = 0.0
    pred[:, 1] = -0.0
    pred[:, 2, ::2] = 1.0
    pred[9] = gt[9]
    pred[10] = 0.0
    pred[11] = -0.0
    return MapGroup(pred.astype(dtype)), MapGroup(gt.astype(dtype))


# Recorded before the S-measure, histogram and MAE rewrites; they must
# reproduce every bit.
PINNED_EDGE = {
    "float32": (["0x1.876293e2fbefcp-2", "0x1.1600b20c12f40p-2", "0x1.ec60adad036abp-3",
                 "0x1.9d3ac9b7a540bp-2", "0x1.d582a2f4f996cp-2"],
                "fb98875ebfd2e9cd95ff734aefe4f33fbb04b073b5e6af4fd20b70eeebedc1e1"),
    "float64": (["0x1.876293dc1e485p-2", "0x1.1600b20c12f40p-2", "0x1.ec60adad036abp-3",
                 "0x1.9d3ac9c0d3bfdp-2", "0x1.d582a2f4f996cp-2"],
                "bae0ea6d628d9395519cf6a3258709a627f00c41ea9ed8268a0f5313c3e12777"),
}


class TestPinnedEdgeGroup:
    @pytest.mark.parametrize("dtype", sorted(PINNED_EDGE))
    def test_report_bits_pinned(self, dtype):
        report = evaluate(*_edge_group(np.dtype(dtype)))
        assert _report_hex(report) == PINNED_EDGE[dtype]
        assert report.zero_foreground == (7,)

    def test_every_field_is_a_python_float(self):
        report = evaluate(*_edge_group(np.float32))
        fields = ("mae", "f_max", "f_avg", "s_measure", "e_mean")
        for r in (report,) + report.per_image:
            assert [type(getattr(r, f)) for f in fields] == [float] * len(fields)


class TestOneFormulaPerMetric:
    @pytest.mark.parametrize("source", ["random", "edge"])
    def test_public_functions_equal_evaluate_bitwise(self, rng, source):
        if source == "random":
            pred, gt = random_map_group(rng, n=4, h=9, w=11), random_binary_group(rng, n=4, h=9, w=11)
        else:
            pred, gt = _edge_group(np.float32)
        report = evaluate(pred, gt)
        curve = f_measure_curve(pred, gt)
        assert float.hex(report.mae) == float.hex(mae(pred, gt))
        assert float.hex(report.s_measure) == float.hex(s_measure(pred, gt))
        assert float.hex(report.e_mean) == float.hex(e_measure_mean(pred, gt))
        assert float.hex(report.f_max) == float.hex(float(curve.max()))
        assert float.hex(report.f_avg) == float.hex(float(curve.mean()))
