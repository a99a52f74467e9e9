import numpy as np
import pytest

from corp import (
    ArgumentError,
    DegenerateInputError,
    MapGroup,
    ShapeError,
    grad_check,
    iou_grad_check,
    iou_loss,
)


def group(*images):
    return MapGroup(np.asarray(images, dtype=np.float32))


class TestIouLoss:
    def test_perfect_prediction(self):
        g = group([[1.0, 0.0], [0.0, 1.0]])
        assert iou_loss(g, g).value == 0.0

    def test_disjoint_supports(self):
        pred = group([[1.0, 0.0]])
        gt = group([[0.0, 1.0]])
        assert iou_loss(pred, gt).value == 1.0

    def test_hand_value(self):
        pred = group([[1.0, 0.5]])
        gt = group([[1.0, 1.0]])
        assert iou_loss(pred, gt).value == pytest.approx(0.25, abs=1e-12)

    def test_symmetric(self, rng):
        a = MapGroup(rng.random((2, 4, 4)).astype(np.float32))
        b = MapGroup(rng.random((2, 4, 4)).astype(np.float32))
        assert iou_loss(a, b).value == pytest.approx(iou_loss(b, a).value, abs=1e-12)

    def test_mean_reduction_in_unit_interval(self, rng):
        for _ in range(20):
            a = MapGroup(rng.random((3, 4, 4)).astype(np.float32))
            b = MapGroup(rng.random((3, 4, 4)).astype(np.float32))
            assert 0.0 <= iou_loss(a, b).value <= 1.0

    def test_literal_sum_goes_negative_for_good_groups(self):
        g = group([[1.0, 0.0]], [[0.0, 1.0]])
        assert iou_loss(g, g, reduction="sum").value == pytest.approx(-1.0)

    def test_zero_iff_equal(self, rng):
        a = MapGroup(rng.random((2, 3, 3)).astype(np.float32))
        b = MapGroup(np.clip(a.maps + 0.01, 0, 1))
        assert iou_loss(a, a).value == 0.0
        assert iou_loss(a, b).value > 0.0

    def test_degenerate_union_names_image(self):
        pred = group([[0.5, 0.5]], [[0.0, 0.0]])
        gt = group([[1.0, 0.0]], [[0.0, 0.0]])
        with pytest.raises(DegenerateInputError, match="image 1"):
            iou_loss(pred, gt)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            iou_loss(group([[1.0]]), group([[1.0, 0.0]]))

    def test_unknown_reduction(self):
        g = group([[1.0]])
        with pytest.raises(ArgumentError):
            iou_loss(g, g, reduction="median")

    def test_gradient_shape_and_sign(self, rng):
        pred = MapGroup(rng.uniform(0.2, 0.8, (2, 3, 3)).astype(np.float32))
        gt = MapGroup((rng.random((2, 3, 3)) > 0.5).astype(np.float32))
        loss = iou_loss(pred, gt, with_gradient=True)
        assert loss.gradient.shape == pred.maps.shape
        # Raising a strictly-below-gt pixel decreases the loss.
        below = (pred.maps < gt.maps)
        assert np.all(loss.gradient[below] < 0)


class TestGradCheck:
    def test_linear_functional_is_exact(self, rng):
        w = rng.standard_normal((2, 3, 3))

        def linear(x):
            return float((w * x).sum()), w.copy()

        report = grad_check(linear, rng.random((2, 3, 3)), step=1e-5, tol=1e-10)
        assert report.passed
        assert report.max_rel_error <= 1e-10

    def test_iou_gradient_random_points(self, rng):
        for _ in range(10):
            gt = rng.uniform(0.1, 0.9, (2, 4, 4))
            delta = rng.uniform(2e-3, 0.05, gt.shape) * rng.choice([-1.0, 1.0], gt.shape)
            pred = np.clip(gt + delta, 0.05, 0.95)
            pred[np.abs(pred - gt) < 1e-3] -= 2e-3
            report = iou_grad_check(pred, gt, step=1e-5, tol=1e-4)
            assert report.passed, report

    def test_iou_gradient_literal_reduction(self, rng):
        gt = rng.uniform(0.2, 0.8, (3, 3, 3))
        pred = np.clip(gt + 0.05, 0.0, 0.95)
        report = iou_grad_check(pred, gt, reduction="sum")
        assert report.passed

    def test_tie_point_precondition(self):
        gt = np.full((1, 2, 2), 0.5)
        pred = gt.copy()
        with pytest.raises(ArgumentError, match="tie"):
            iou_grad_check(pred, gt)

    def test_boundary_point_precondition(self):
        gt = np.full((1, 2, 2), 0.5)
        pred = np.array([[[0.0, 0.4], [0.4, 0.4]]])
        with pytest.raises(ArgumentError, match="interior"):
            iou_grad_check(pred, gt)

    def test_tie_subgradient_is_symmetric(self):
        # At a tie both min and max route half of the sensitivity through
        # the tied pixel; the analytic gradient must equal the average of
        # the two one-sided derivatives.
        gt = np.array([[[0.5, 0.8]]])
        pred = np.array([[[0.5, 0.6]]])
        from corp.losses import iou_functional

        fn = iou_functional(gt[0][None] if gt.ndim == 4 else gt)
        _, grad = fn(pred)
        h = 1e-6
        up = pred.copy(); up[0, 0, 0] += h
        dn = pred.copy(); dn[0, 0, 0] -= h
        right = (fn(up)[0] - fn(pred)[0]) / h
        left = (fn(pred)[0] - fn(dn)[0]) / h
        assert grad[0, 0, 0] == pytest.approx((left + right) / 2.0, abs=1e-6)

    def test_report_carries_worst_coordinate(self, rng):
        gt = rng.uniform(0.2, 0.8, (1, 3, 3))
        pred = np.clip(gt + 0.06, 0.0, 0.95)
        report = iou_grad_check(pred, gt)
        assert len(report.worst_index) == 3
        assert report.n_coordinates == 9
