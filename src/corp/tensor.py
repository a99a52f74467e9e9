"""Dense-array kernels used by the co-saliency pipeline, and how they use threads.

All kernels are pure functions over numpy arrays (row-major, float32 data by
default, float64 accumulation). Reductions follow a fixed, documented order,
so results are bit-reproducible across runs and thread counts.

Per-image passes (scoring, the feature norm check, the proxy's masked sums,
the reference decoder's mean-embedding map) split a group into contiguous
image ranges, one per CPU the process may use (``_worker_count``,
``_by_image``), one einsum per range, and no BLAS. Each image goes through
the same numpy calls whatever the split. ``_channel_dots`` sums channels left
to right, a 1-pixel grid padded to two columns; ``masked_gap`` sums pixels in
numpy's reduction order over the contiguous pixel axis.
"""
from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .errors import ArgumentError, ShapeError

__all__ = [
    "l2_normalize_channels",
    "topk_desc",
    "masked_gap",
    "bilinear_resize",
]

DEFAULT_EPS = 1e-12

# Threads start on first use, and only as many as parts are waiting.
_POOL = ThreadPoolExecutor(thread_name_prefix="corp-image")


def _is_int(v) -> bool:
    """An integer that is not a bool: JSON ``true`` is no count."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _worker_count() -> int:
    """Image ranges a per-image pass splits into: the CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _by_image(n: int, workers: int, part) -> None:
    """Call ``part(w, lo, hi)`` on contiguous image ranges [lo, hi) covering 0..n.

    There are ``min(workers, n)`` ranges, at least one image each; range w
    may use row w of a scratch array the caller allocated. The calling
    thread runs range 0 and the module pool the rest. Returns, or raises the
    first exception in range order, only once every range has finished, so
    no part still writes into the caller's arrays afterwards. Parts call
    numpy only: the benchmark's spans around corp functions assume one call
    stack.
    """
    workers = max(1, min(workers, n))
    bounds = [n * w // workers for w in range(workers + 1)]
    futures = []
    try:
        for w in range(1, workers):
            futures.append(_POOL.submit(part, w, bounds[w], bounds[w + 1]))
        part(0, bounds[0], bounds[1])
    finally:
        wait(futures)
    for f in futures:
        f.result()


def _channel_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over channels of a * b at every pixel: one einsum per ``_by_image`` range.

    ``b`` is (N, D, H*W) and ``a`` is either the same shape or one (D,)
    vector shared by every image. Returns (N, H*W) float64. einsum (default
    ``optimize=False``, so no BLAS) walks the pixel axis innermost: each value
    starts at +0.0 and adds the float64 products of channels 0..D-1 left to
    right, a separate multiply and add each, which is the scalar loop
    ``acc = 0.0; acc += a[d] * b[d]``, signed zeros included, whatever the
    split. On a lone pixel einsum would sum the channels as an unrolled dot
    instead (other bits from D = 9 on), so a 1-pixel grid is padded to two
    columns and the padding sliced off.
    """
    n, _, hw = b.shape
    if hw == 1:
        b = np.repeat(b, 2, axis=2)
        a = a if a.ndim == 1 else np.repeat(a, 2, axis=2)
    spec = "d,ndp->np" if a.ndim == 1 else "ndp,ndp->np"
    out = np.empty((n, b.shape[2]), dtype=np.float64)

    def part(_, lo, hi):
        np.einsum(spec, a if a.ndim == 1 else a[lo:hi], b[lo:hi], out=out[lo:hi], dtype=np.float64)

    _by_image(n, _worker_count(), part)
    return out[:, :hw]


def l2_normalize_channels(t: np.ndarray) -> np.ndarray:
    """Normalize every spatial column of a D x H x W tensor to unit length.

    Columns whose Euclidean norm falls below ``DEFAULT_EPS`` come back as all
    zeros instead of being blown up by the division.
    """
    t = np.asarray(t)
    if t.ndim != 3:
        raise ShapeError(f"expected a D x H x W tensor, got shape {t.shape}")
    t64 = t.astype(np.float64, copy=False)
    norms = np.sqrt((t64 * t64).sum(axis=0))
    safe = np.where(norms >= DEFAULT_EPS, norms, 1.0)
    out = np.where(norms >= DEFAULT_EPS, t64 / safe, 0.0)
    return out.astype(t.dtype, copy=False)


def topk_desc(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest scores, ordered score-descending.

    Ties go to the smaller index, which makes the selection deterministic.
    The result is ``np.argsort(-scores, kind="stable")[:k]`` (NaN last, -0.0
    tied with 0.0) without sorting all n scores: a partition finds the k-th
    key, and only the keys not above it, every tie included, are sorted.
    """
    s = np.asarray(scores)
    if s.ndim != 1:
        raise ShapeError(f"expected a score vector, got shape {s.shape}")
    n = s.shape[0]
    if not _is_int(k) or k < 1 or k > n:
        raise ArgumentError(f"k must be an integer in [1, {n}], got {k!r}")
    key = -s.astype(np.float64, copy=False)
    kth = np.partition(key, k - 1)[k - 1]
    cand = np.flatnonzero(~(key > kth))
    return cand[np.argsort(key[cand], kind="stable")[:k]].astype(np.int64)


def masked_gap(feat: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Mask-weighted average of (..., D, H, W) features over the full grid.

    ``mask`` is (..., H, W); each map's (D,) float64 result is
    (1 / (H*W)) * sum_{h,w} mask[h, w] * feat[:, h, w], so the divisor is the
    grid size and an all-zero mask yields the zero vector. One einsum per
    ``_by_image`` range sums the float64 products over the pixel axis in
    numpy's own order (SIMD partial sums, neither left to right nor pairwise;
    a separate multiply and add each), fixed for a numpy build. Each map gets
    the bits it would get on its own, whatever the split.
    """
    feat = np.asarray(feat)
    mask = np.asarray(mask)
    if feat.ndim < 3 or feat.shape[:-3] + feat.shape[-2:] != mask.shape:
        raise ShapeError(f"feature shape {feat.shape} incompatible with mask shape {mask.shape}")
    *lead, d, h, w = feat.shape
    n = math.prod(lead)
    flat = feat.reshape(n, d, h * w)
    mask64 = mask.astype(np.float64, copy=False).reshape(n, h * w)
    out = np.empty((n, d), dtype=np.float64)

    def part(_, lo, hi):
        np.einsum("ndp,np->nd", flat[lo:hi], mask64[lo:hi], out=out[lo:hi], dtype=np.float64)

    _by_image(n, _worker_count(), part)
    out /= float(h * w)
    return out.reshape(*lead, d)


def bilinear_resize(m: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-center bilinear resize of the last two axes of a (..., H, W) array.

    Source coordinates are src = (dst + 0.5) * in / out - 0.5, clamped to the
    valid range. Interpolation uses the lerp form a + f * (b - a), so constant
    maps come back bit-identical and same-size resizing is the identity. Each
    map gets the bits it would get on its own; indices and weights are shared.
    """
    m = np.asarray(m)
    if m.ndim < 2:
        raise ShapeError(f"expected a (..., H, W) array, got shape {m.shape}")
    if not (_is_int(out_h) and _is_int(out_w)) or out_h < 1 or out_w < 1:
        raise ArgumentError(f"output sizes must be integers >= 1, got {out_h!r} x {out_w!r}")
    h, w = m.shape[-2:]
    m64 = m.astype(np.float64, copy=False)
    ys = np.clip((np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = ys - y0
    fx = xs - x0
    v00 = m64[..., y0[:, None], x0]
    v01 = m64[..., y0[:, None], x1]
    v10 = m64[..., y1[:, None], x0]
    v11 = m64[..., y1[:, None], x1]
    top = v00 + fx * (v01 - v00)
    bot = v10 + fx * (v11 - v10)
    out = top + fy[:, None] * (bot - top)
    return out.astype(m.dtype, copy=False)
