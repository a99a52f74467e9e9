"""Soft IoU loss with analytic gradients, plus a finite-difference checker.

The loss compares prediction maps M against ground truth G through the ratio
of elementwise-min to elementwise-max sums, averaged over images:
1 - (1/N) * sum_n ratio_n, always in [0, 1].

Analytic subgradients use the symmetric convention at min/max ties: both
branches get weight 1/2. Finite-difference checks must therefore stay away
from tie points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ArgumentError, ShapeError
from .types import MapGroup

__all__ = [
    "LossValue",
    "GradCheckReport",
    "iou_loss",
    "iou_functional",
    "grad_check",
    "iou_grad_check",
]

# Central-difference step and pass tolerance of the IoU gradient check.
GRAD_STEP = 1e-5
GRAD_TOL = 1e-4


@dataclass(frozen=True)
class LossValue:
    """Scalar loss plus, when requested, its gradient w.r.t. the prediction."""

    value: float
    gradient: np.ndarray | None = None


def _iou_value_grad(pred: np.ndarray, gt: np.ndarray, with_gradient: bool) -> LossValue:
    n = pred.shape[0]
    scale = 1.0 / n
    total = 0.0
    grad = np.zeros_like(pred) if with_gradient else None
    for i in range(n):
        p, g = pred[i], gt[i]
        inter = float(np.minimum(p, g).sum())
        union = float(np.maximum(p, g).sum())
        if union == 0.0:
            raise ArgumentError(
                f"image {i}: prediction and ground truth are both all-zero "
                "(empty union)"
            )
        total += inter / union
        if with_gradient:
            dmin = np.where(p < g, 1.0, np.where(p > g, 0.0, 0.5))
            dmax = np.where(p > g, 1.0, np.where(p < g, 0.0, 0.5))
            grad[i] = -scale * (dmin * union - inter * dmax) / (union * union)
    return LossValue(value=1.0 - scale * total, gradient=grad)


def iou_loss(pred: MapGroup, gt: MapGroup, with_gradient: bool = False) -> LossValue:
    """Soft IoU loss between prediction and ground-truth map groups.

    Zero exactly when the maps agree elementwise; symmetric in its arguments.
    Raises for an image whose union sum is zero.
    """
    if pred.maps.shape != gt.maps.shape:
        raise ShapeError(
            f"prediction shape {pred.maps.shape} does not match ground truth {gt.maps.shape}"
        )
    p = pred.maps.astype(np.float64)
    g = gt.maps.astype(np.float64)
    return _iou_value_grad(p, g, with_gradient)


def iou_functional(gt: np.ndarray) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """Bind ground truth, yielding pred -> (value, gradient) on raw arrays.

    Used by the gradient checker, which needs to evaluate at perturbed
    points without re-validating map ranges.
    """
    g = np.asarray(gt, dtype=np.float64)

    def fn(pred: np.ndarray) -> tuple[float, np.ndarray]:
        loss = _iou_value_grad(np.asarray(pred, dtype=np.float64), g, True)
        return loss.value, loss.gradient

    return fn


@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of comparing an analytic gradient with central differences."""

    passed: bool
    max_rel_error: float
    worst_index: tuple[int, ...]
    analytic_at_worst: float
    numeric_at_worst: float
    n_coordinates: int


def grad_check(
    fn: Callable[[np.ndarray], tuple[float, np.ndarray]],
    point: np.ndarray,
    step: float = GRAD_STEP,
    tol: float = GRAD_TOL,
) -> GradCheckReport:
    """Central-difference check of an analytic gradient, coordinate by coordinate.

    ``fn`` maps a float64 array to (value, gradient). The relative error per
    coordinate is |numeric - analytic| / max(|numeric|, |analytic|, 1e-12);
    the report carries the worst coordinate. A NaN error counts as the worst
    and fails the check.
    """
    if not (step > 0 and tol > 0):  # NaN fails this too
        raise ArgumentError("step and tol must be positive")
    if math.isinf(step) or math.isinf(tol):
        raise ArgumentError("step and tol must be finite")
    x = np.asarray(point, dtype=np.float64)
    analytic = fn(x)[1]
    worst = (0.0, (0,) * x.ndim, 0.0, 0.0)
    for idx in np.ndindex(*x.shape):
        hi = x.copy()
        lo = x.copy()
        hi[idx] += step
        lo[idx] -= step
        numeric = (fn(hi)[0] - fn(lo)[0]) / (2.0 * step)
        ana = float(analytic[idx])
        rel = abs(numeric - ana) / max(abs(numeric), abs(ana), 1e-12)
        if math.isnan(rel) or rel >= worst[0]:
            worst = (rel, idx, ana, numeric)
    return GradCheckReport(
        passed=worst[0] <= tol,
        max_rel_error=worst[0],
        worst_index=worst[1],
        analytic_at_worst=worst[2],
        numeric_at_worst=worst[3],
        n_coordinates=int(x.size),
    )


def iou_grad_check(pred: np.ndarray, gt: np.ndarray) -> GradCheckReport:
    """Gradient check of the IoU loss at a tie-free interior point.

    Central differences of step ``GRAD_STEP`` must match within ``GRAD_TOL``.
    The point must sit strictly inside (0, 1) and at least 2 * GRAD_STEP away
    from every pred == gt tie, where the subgradient convention and finite
    differences disagree.
    """
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if p.shape != g.shape:
        raise ShapeError(f"shape mismatch: {p.shape} vs {g.shape}")
    margin = 2.0 * GRAD_STEP
    inside = (p > margin) & (p < 1.0 - margin)
    if not inside.all():
        idx = tuple(int(v) for v in np.argwhere(~inside)[0])
        raise ArgumentError(
            f"precondition violation: pred{list(idx)}={p[idx]:.6g} is not strictly "
            f"interior to (0, 1) by {margin:g}"
        )
    near_tie = np.abs(p - g) < margin
    if near_tie.any():
        idx = tuple(int(v) for v in np.argwhere(near_tie)[0])
        raise ArgumentError(
            f"precondition violation: |pred - gt| = {abs(p[idx] - g[idx]):.3g} at "
            f"{list(idx)} is within 2*step of a min/max tie"
        )
    return grad_check(iou_functional(g), p)
