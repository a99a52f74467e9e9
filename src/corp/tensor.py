"""Dense-array kernels used by the co-saliency pipeline.

All kernels are pure functions over numpy arrays (row-major, float32 data by
default, float64 accumulation). Reductions follow a fixed, documented order,
so results are bit-reproducible across runs and thread counts.
"""
from __future__ import annotations

import numpy as np

from .errors import ArgumentError, ShapeError

__all__ = [
    "l2_normalize_channels",
    "dot",
    "topk_desc",
    "masked_gap",
    "bilinear_resize",
]

DEFAULT_EPS = 1e-12


def l2_normalize_channels(t: np.ndarray, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Normalize every spatial column of a D x H x W tensor to unit length.

    Columns whose Euclidean norm falls below ``eps`` come back as all zeros
    instead of being blown up by the division.
    """
    t = np.asarray(t)
    if t.ndim != 3:
        raise ShapeError(f"expected a D x H x W tensor, got shape {t.shape}")
    if eps <= 0:
        raise ArgumentError(f"eps must be positive, got {eps}")
    t64 = t.astype(np.float64, copy=False)
    norms = np.sqrt((t64 * t64).sum(axis=0))
    safe = np.where(norms >= eps, norms, 1.0)
    out = np.where(norms >= eps, t64 / safe, 0.0)
    return out.astype(t.dtype, copy=False)


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two equal-length vectors.

    Accumulates left to right in float64. This is the reference scalar
    kernel; vectorized call sites replicate exactly this operation order.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 1 or b.ndim != 1:
        raise ShapeError(f"dot expects vectors, got shapes {a.shape} and {b.shape}")
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    acc = 0.0
    for x, y in zip(a.tolist(), b.tolist()):
        acc += x * y
    return acc


def topk_desc(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest scores, ordered score-descending.

    Ties go to the smaller index, which makes the selection deterministic.
    """
    s = np.asarray(scores)
    if s.ndim != 1:
        raise ShapeError(f"expected a score vector, got shape {s.shape}")
    n = s.shape[0]
    if not isinstance(k, (int, np.integer)) or k < 1 or k > n:
        raise ArgumentError(f"k must be an integer in [1, {n}], got {k!r}")
    order = np.argsort(-s.astype(np.float64, copy=False), kind="stable")
    return order[:k].astype(np.int64)


def masked_gap(feat: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Mask-weighted average of a D x H x W feature map over its full grid.

    Returns (1 / (H*W)) * sum_{h,w} mask[h, w] * feat[:, h, w] as float64.
    The divisor is the grid size, not the mask mass, so an all-zero mask
    yields the zero vector.
    """
    feat = np.asarray(feat)
    mask = np.asarray(mask)
    if feat.ndim != 3 or mask.ndim != 2 or feat.shape[1:] != mask.shape:
        raise ShapeError(
            f"feature shape {feat.shape} incompatible with mask shape {mask.shape}"
        )
    d, hw = feat.shape[0], mask.size
    mask64 = mask.astype(np.float64, copy=False).reshape(hw)
    return _masked_gap(feat.reshape(d, hw), mask64, np.empty((d, hw), dtype=np.float64))


def _masked_gap(feat: np.ndarray, mask: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """masked_gap without checks: ``feat`` (D, H*W), ``mask`` (H*W,) float64.

    ``buf`` is (D, H*W) float64 scratch that the call overwrites. Calls numpy
    only, so it may run on a worker thread.
    """
    np.multiply(feat, mask, out=buf)
    return buf.sum(axis=1) / float(buf.shape[1])


def bilinear_resize(m: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize an H x W map with half-pixel-center bilinear interpolation.

    Source coordinates are src = (dst + 0.5) * in / out - 0.5, clamped to the
    valid range. Interpolation uses the lerp form a + f * (b - a), so constant
    maps come back bit-identical and same-size resizing is the identity.
    """
    m = np.asarray(m)
    if m.ndim != 2:
        raise ShapeError(f"expected an H x W map, got shape {m.shape}")
    if out_h < 1 or out_w < 1:
        raise ArgumentError(f"output sizes must be >= 1, got {out_h} x {out_w}")
    h, w = m.shape
    m64 = m.astype(np.float64, copy=False)
    ys = np.clip((np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = ys - y0
    fx = xs - x0
    v00 = m64[np.ix_(y0, x0)]
    v01 = m64[np.ix_(y0, x1)]
    v10 = m64[np.ix_(y1, x0)]
    v11 = m64[np.ix_(y1, x1)]
    top = v00 + fx[None, :] * (v01 - v00)
    bot = v10 + fx[None, :] * (v11 - v10)
    out = top + fy[:, None] * (bot - top)
    return out.astype(m.dtype, copy=False)
