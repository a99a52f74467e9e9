"""Dense-array kernels used by the co-saliency pipeline, and how they use threads.

All kernels are pure functions over numpy arrays (row-major, float32 data by
default, float64 accumulation). Reductions follow a fixed, documented order,
so results are bit-reproducible across runs and thread counts.

Per-image passes (scoring, the feature norm check, the proxy's masked sums,
the correlation maps) split a group into contiguous image ranges, one per
thread that numpy's OpenBLAS may use (``_blas_budget``, ``_by_image``). Each
image goes through the same numpy calls whatever the split; ``_channel_dots``
is the per-pixel channel sum that scoring and the norm check share.
"""
from __future__ import annotations

import ctypes
import importlib
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

import numpy as np

from .errors import ArgumentError, ShapeError

__all__ = [
    "l2_normalize_channels",
    "topk_desc",
    "masked_gap",
    "bilinear_resize",
]

DEFAULT_EPS = 1e-12


def _blas_thread_calls():
    """(get, set) thread-count calls of the OpenBLAS that numpy links, or None."""
    for module in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            break
        except (ImportError, OSError):
            continue
    else:
        return None
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads"):
        try:
            return getattr(lib, name.format("get")), getattr(lib, name.format("set"))
        except AttributeError:
            continue
    return None


_BLAS_THREADS = _blas_thread_calls()
_blas_lock = threading.Lock()
_blas_users = 0
_blas_saved = 1
# Threads start on first use, and only as many as parts are waiting.
_POOL = ThreadPoolExecutor(thread_name_prefix="corp-image")


@contextmanager
def _one_blas_thread():
    """Run the enclosed BLAS calls on one OpenBLAS thread, then restore the count.

    Each K x D by D x H*W product in correlation_transform reads a block the
    calling thread has just written. A second thread must fetch half of it
    from the caller's cache, and the caller must take it back before the
    next write. Where the two cores share no cache that costs more than the
    second thread saves, and op times moved by a third from run to run with
    where the host placed the threads. One thread gives the same bits. The
    count is process-wide, so BLAS calls from other threads meanwhile run on
    one thread too. Does nothing when numpy's BLAS is not a known OpenBLAS.
    """
    global _blas_users, _blas_saved
    if _BLAS_THREADS is None:
        yield
        return
    get, set_ = _BLAS_THREADS
    with _blas_lock:
        if _blas_users == 0:
            _blas_saved = get()
            set_(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                set_(_blas_saved)


def _blas_budget() -> int:
    """OpenBLAS thread count in force outside ``_one_blas_thread``; 1 without one."""
    if _BLAS_THREADS is None:
        return 1
    with _blas_lock:
        return _blas_saved if _blas_users else _BLAS_THREADS[0]()


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
    """Sum over channels of a[i] * b[i] at every pixel, image by image on the thread budget.

    ``b`` is (N, D, H*W) and ``a`` is the same or (N, D, 1). Returns (N, H*W)
    float64. Each range multiplies one image in float64 into its row of
    (workers, D, H*W) scratch, then adds the D rows left to right onto +0.0
    (given as ``initial``, not left to numpy). Every value thus has the bits
    of the scalar loop ``acc = 0.0; acc += a[d] * b[d]``, signed zeros
    included, whatever the split. numpy adds a lone column pairwise instead
    (other bits from D = 9 on), so the scratch keeps at least two columns;
    the padding column stays zero. Parts call numpy only.
    """
    n, d, hw = b.shape
    workers = _blas_budget()
    scratch = np.zeros((min(workers, n), d, max(hw, 2)), dtype=np.float64)
    out = np.empty((n, scratch.shape[2]), dtype=np.float64)

    def part(wk, lo, hi):
        buf = scratch[wk]
        for i in range(lo, hi):
            np.multiply(a[i], b[i], out=buf[:, :hw], dtype=np.float64)
            np.add.reduce(buf, axis=0, out=out[i], initial=0.0)

    _by_image(n, workers, part)
    return out[:, :hw]


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
    if not isinstance(k, (int, np.integer)) or k < 1 or k > n:
        raise ArgumentError(f"k must be an integer in [1, {n}], got {k!r}")
    key = -s.astype(np.float64, copy=False)
    kth = np.partition(key, k - 1)[k - 1]
    cand = np.flatnonzero(~(key > kth))
    return cand[np.argsort(key[cand], kind="stable")[:k]].astype(np.int64)


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
