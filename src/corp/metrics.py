"""Saliency evaluation metrics: MAE, F-measure curve, S-measure, mean E-measure.

Conventions, fixed here once and mirrored by the naive oracle implementations:

* Soft ground truth is binarized at 0.5 on entry.
* Threshold grid: tau_k = k / 256 for k = 0..255. All 256 thresholds lie
  strictly below 1, so a binary map binarizes back to itself at every
  threshold and identical (pred, gt) pairs score their ideal values.
* Binarization of predictions is strict, pred > tau, and is counted, not
  materialized: F and E need only the true- and false-positive counts per
  threshold. With b = ceil(256 * pred), an integer in 0..256, pred > k/256
  <=> b > k holds exactly (scaling by 256 is exact in binary floating
  point), so one histogram of b per gt class, summed from the top bin down,
  gives the counts that comparing each pixel with each threshold gives.
* eps = 1e-8 regularizes every ratio; it enters numerator and denominator
  symmetrically in the similarity ratios, so exact agreement scores
  exactly 1 regardless of foreground size.
* F uses beta^2 = ``DEFAULT_BETA_SQ`` = 0.3; S weighs its object term by
  alpha = ``DEFAULT_S_ALPHA`` = 0.5 and its region term by 1 - alpha.
* Group values average per-image values (for the F curve: per-threshold
  average of per-image curves).
* Degenerate ground truth: all-background gt scores S = 1 - mean(pred) and
  E_tau = 1 - mean(binarized pred); all-foreground gt scores mean(pred) and
  mean(binarized pred).
"""
from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ShapeError
from .storage import _atomic_write
from .types import MapGroup

__all__ = [
    "THRESHOLDS",
    "MetricReport",
    "ImageMetrics",
    "mae",
    "f_measure_curve",
    "s_measure",
    "e_measure_mean",
    "evaluate",
    "write_metrics_csv",
]

THRESHOLDS = np.arange(256, dtype=np.float64) / 256.0
EPS = 1e-8
DEFAULT_BETA_SQ = 0.3
DEFAULT_S_ALPHA = 0.5


def _pairs(pred: MapGroup, gt: MapGroup) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each image's (float64 prediction, boolean ground truth), one image at a time.

    No float64 copy of the whole group is made: only one image's is alive at once.
    """
    if pred.maps.shape != gt.maps.shape:
        raise ShapeError(
            f"prediction shape {pred.maps.shape} does not match ground truth {gt.maps.shape}"
        )
    return ((p.astype(np.float64), g >= 0.5) for p, g in zip(pred.maps, gt.maps))


def _image_mae(p: np.ndarray, g: np.ndarray) -> float:
    d = p - g  # the ufunc casts the boolean gt: no float64 copy of it
    return float(np.abs(d, out=d).mean())


def mae(pred: MapGroup, gt: MapGroup) -> float:
    """Mean absolute error over all pixels of all images."""
    return float(np.mean([_image_mae(p, g) for p, g in _pairs(pred, gt)]))


def _threshold_counts(p: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    """``(tp, fp, n_fg, hw)`` of one image; tp and fp are float64 over the 256 thresholds."""
    b = np.ceil(p.ravel() * 256.0).astype(np.intp)
    # Foreground bins go to 0..256, background bins to 257..513: one histogram.
    b += 257
    b -= g.ravel() * np.int16(257)  # an int16 temporary: a quarter of the bytes
    hist = np.bincount(b, minlength=514).reshape(2, 257)
    # Mass above bin k for k = 0..255: a cumsum from the top bin down, bin 0 dropped.
    tp, fp = hist[:, ::-1].cumsum(axis=1)[:, -2::-1].astype(np.float64)
    return tp, fp, int(hist[0].sum()), b.size


def _f_curve(counts) -> np.ndarray:
    """Per-threshold F scores of one image; zero-foreground gt scores 0 throughout."""
    tp, fp, n_fg, _ = counts
    if n_fg == 0:
        return np.zeros(256, dtype=np.float64)
    predicted = tp + fp
    precision = np.divide(tp, predicted, out=np.zeros(256), where=predicted > 0)
    recall = tp / n_fg
    denom = DEFAULT_BETA_SQ * precision + recall
    return np.divide(
        (1.0 + DEFAULT_BETA_SQ) * precision * recall, denom, out=np.zeros(256), where=denom > 0
    )


def f_measure_curve(pred: MapGroup, gt: MapGroup) -> np.ndarray:
    """Group F-measure curve: per-image F at each threshold, averaged.

    Images with zero-foreground ground truth contribute F = 0 at every
    threshold.
    """
    curves = [_f_curve(_threshold_counts(p, g)) for p, g in _pairs(pred, gt)]
    return np.stack(curves).mean(axis=0)


def _object_similarity(x: np.ndarray) -> float:
    mean = x.mean(keepdims=True)  # the shape std's ``mean=`` takes; same bits as x.mean()
    s = float(x.std(mean=mean))
    m = float(mean[0])
    return 2.0 * m / (m * m + 1.0 + 2.0 * s + EPS)


def _block_similarity(x: np.ndarray, gb: np.ndarray) -> float:
    """SSIM-like similarity of a prediction block and its boolean gt block.

    Each sum runs over a contiguous temporary, as ``((x - xm) ** 2).sum()``
    would: a sum over the strided block itself adds in another order.
    """
    n = x.size
    xm = float(x.mean())
    ym = int(np.count_nonzero(gb)) / n  # the mean of 0/1 values, exactly
    if n > 1:
        dx = x - xm
        dy = np.where(gb, 1.0 - ym, 0.0 - ym)
        prod = dx * dy
        sxy = float(prod.sum()) / (n - 1)
        sx = float(np.multiply(dx, dx, out=prod).sum()) / (n - 1)
        sy = float(np.multiply(dy, dy, out=prod).sum()) / (n - 1)
    else:
        sx = sy = sxy = 0.0
    return (4.0 * xm * ym * sxy + EPS) / ((xm * xm + ym * ym) * (sx + sy) + EPS)


def _image_s(p: np.ndarray, g: np.ndarray, n_fg: int) -> float:
    """S-measure of one image; ``n_fg`` is the number of foreground pixels of ``g``."""
    h, w = g.shape
    if n_fg == 0:
        return min(1.0, max(0.0, 1.0 - float(p.mean())))
    if n_fg == h * w:
        return min(1.0, max(0.0, float(p.mean())))
    mu = n_fg / (h * w)
    bg = p[~g]
    np.subtract(1.0, bg, out=bg)  # 1 - p on the background pixels only
    s_object = mu * _object_similarity(p[g]) + (1.0 - mu) * _object_similarity(bg)

    # Region term: split both maps at the foreground centroid (rounded
    # half-up); the first block includes the centroid row/column. The
    # coordinate sums are exact integers.
    cy = math.floor(int(np.dot(np.arange(h), np.count_nonzero(g, axis=1))) / n_fg + 0.5)
    cx = math.floor(int(np.dot(np.arange(w), np.count_nonzero(g, axis=0))) / n_fg + 0.5)
    s_region = 0.0
    for r0, r1 in ((0, cy + 1), (cy + 1, h)):
        for c0, c1 in ((0, cx + 1), (cx + 1, w)):
            n_block = (r1 - r0) * (c1 - c0)
            if n_block <= 0:
                continue
            weight = n_block / (h * w)
            s_region += weight * _block_similarity(p[r0:r1, c0:c1], g[r0:r1, c0:c1])
    s = DEFAULT_S_ALPHA * s_object + (1.0 - DEFAULT_S_ALPHA) * s_region
    return min(1.0, max(0.0, s))


def s_measure(pred: MapGroup, gt: MapGroup) -> float:
    """Structure similarity: object term + centroid-split region term."""
    per_image = [_image_s(p, g, int(np.count_nonzero(g))) for p, g in _pairs(pred, gt)]
    return float(np.mean(per_image))


def _alignment(phi_g: float, phi_p: np.ndarray) -> np.ndarray:
    xi = (2.0 * phi_g * phi_p + EPS) / (phi_g * phi_g + phi_p * phi_p + EPS)
    return (xi + 1.0) ** 2 / 4.0


def _e_mean(counts) -> float:
    tp, fp, n_fg, hw = counts
    predicted = tp + fp
    if n_fg == 0:
        return float((1.0 - predicted / hw).mean())
    if n_fg == hw:
        return float((predicted / hw).mean())
    # Mixed gt: per threshold the alignment map takes one of four values, one
    # per (gt, binarized pred) pixel class, so the class counts suffice.
    mu_g = float(n_fg) / hw
    fn = float(n_fg) - tp
    tn = hw - tp - fp - fn
    mu_p = predicted / hw
    phi_g_fg, phi_g_bg = 1.0 - mu_g, -mu_g
    phi_p_fg, phi_p_bg = 1.0 - mu_p, -mu_p
    e_tau = (
        tp * _alignment(phi_g_fg, phi_p_fg)
        + fn * _alignment(phi_g_fg, phi_p_bg)
        + fp * _alignment(phi_g_bg, phi_p_fg)
        + tn * _alignment(phi_g_bg, phi_p_bg)
    ) / hw
    return float(e_tau.mean())


def e_measure_mean(pred: MapGroup, gt: MapGroup) -> float:
    """Enhanced-alignment measure averaged over thresholds and images."""
    return float(np.mean([_e_mean(_threshold_counts(p, g)) for p, g in _pairs(pred, gt)]))


@dataclass(frozen=True)
class ImageMetrics:
    """Metrics of a single prediction/ground-truth pair."""

    image_id: str
    mae: float
    f_max: float
    f_avg: float
    s_measure: float
    e_mean: float


@dataclass(frozen=True)
class MetricReport:
    """Group-level metric values plus the per-image breakdown."""

    mae: float
    f_max: float
    f_avg: float
    s_measure: float
    e_mean: float
    per_image: tuple[ImageMetrics, ...]
    zero_foreground: tuple[int, ...]


def evaluate(pred: MapGroup, gt: MapGroup, image_ids: list[str] | None = None) -> MetricReport:
    """Compute the full metric suite for a group.

    Group F values come from the per-threshold average of per-image curves;
    per-image rows carry each image's own curve extrema.
    """
    pairs = _pairs(pred, gt)
    n = pred.n_images
    if image_ids is None:
        image_ids = [f"{i:03d}" for i in range(n)]
    if len(image_ids) != n:
        raise ShapeError(f"got {len(image_ids)} image ids for {n} images")

    counts, curves, rows = [], [], []
    for image_id, (p, g) in zip(image_ids, pairs):
        counts.append(_threshold_counts(p, g))
        curves.append(_f_curve(counts[-1]))
        rows.append(ImageMetrics(
            image_id=image_id,
            mae=_image_mae(p, g),
            f_max=float(curves[-1].max()),
            f_avg=float(curves[-1].mean()),
            s_measure=_image_s(p, g, counts[-1][2]),
            e_mean=_e_mean(counts[-1]),
        ))
    group_curve = np.stack(curves).mean(axis=0)
    return MetricReport(
        mae=float(np.mean([r.mae for r in rows])),
        f_max=float(group_curve.max()),
        f_avg=float(group_curve.mean()),
        s_measure=float(np.mean([r.s_measure for r in rows])),
        e_mean=float(np.mean([r.e_mean for r in rows])),
        per_image=tuple(rows),
        zero_foreground=tuple(i for i, (_, _, n_fg, _) in enumerate(counts) if n_fg == 0),
    )


def write_metrics_csv(path, group: str, report: MetricReport) -> None:
    """Write per-image rows (lexicographic by image id) plus the aggregate.

    Columns: group,image,mae,fmax,favg,smeasure,emean. The aggregate row
    uses the image id ``__group__`` and comes last. Rows end in CRLF, as the
    csv module writes them.
    """
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["group", "image", "mae", "fmax", "favg", "smeasure", "emean"])
    rows = [(r.image_id, r) for r in sorted(report.per_image, key=lambda r: r.image_id)]
    for image_id, r in rows + [("__group__", report)]:
        values = (r.mae, r.f_max, r.f_avg, r.s_measure, r.e_mean)
        writer.writerow([group, image_id] + [f"{v:.9f}" for v in values])
    _atomic_write(Path(path), text.getvalue())
