"""Co-representation search: score all embeddings, select top-k, transform.

One round of searching scores every pixel embedding against the proxy once,
keeps the k best-correlated locations, gathers their embeddings, and turns
each image into k correlation maps; selection and transform share the scores.
"""
from __future__ import annotations

import ctypes
import importlib
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

import numpy as np

from .errors import ArgumentError, ShapeError
from .tensor import topk_desc
from .types import CoRepresentation, CorrelationMapStack, FeatureGroup, MapGroup, Proxy

__all__ = [
    "score_all",
    "search_corepresentation",
    "correlation_transform",
    "purity_proportion",
]


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


def score_all(features: FeatureGroup, proxy: Proxy) -> np.ndarray:
    """Correlation score of every pixel embedding against the proxy.

    Returns a flat float64 vector of length N*H*W in image-major, row-major
    order. For unit-norm inputs all values lie in [-1, 1] up to rounding.
    One pass over all images accumulates channels left to right, so each
    value is exactly the scalar sequence acc += p[d] * f[d] in float64.
    """
    if proxy.dim != features.channels:
        raise ShapeError(
            f"proxy dimension {proxy.dim} does not match feature channels {features.channels}"
        )
    n, d, h, w = features.embeddings.shape
    flat = features.embeddings.reshape(n, d, h * w)
    acc = np.zeros((n, h * w), dtype=np.float64)
    for c in range(d):
        # The float64 loop is explicit: scalar promotion rules differ across numpy versions.
        acc += np.multiply(proxy.vec[c], flat[:, c, :], dtype=np.float64)
    return acc.reshape(-1)


def search_corepresentation(
    features: FeatureGroup,
    proxy: Proxy,
    k: int,
    per_image_cap: int | None = None,
    scores: np.ndarray | None = None,
) -> CoRepresentation:
    """Select the k locations best correlated with the proxy and gather them.

    ``per_image_cap`` optionally limits how many locations one image may
    contribute; by default there is no quota and the selection is a global
    top-k over all N*H*W locations. ``scores`` is ``score_all(features,
    proxy)`` when the caller already has it.
    """
    if scores is None:
        scores = score_all(features, proxy)
    n, _, h, w = features.embeddings.shape
    if per_image_cap is None:
        idx = topk_desc(scores, k)
    else:
        if per_image_cap * n < k:
            raise ArgumentError(
                f"per_image_cap={per_image_cap} over {n} images cannot supply k={k}"
            )
        if not 1 <= k <= scores.shape[0]:
            raise ArgumentError(f"k must be in [1, {scores.shape[0]}], got {k}")
        order = np.argsort(-scores, kind="stable")
        taken = np.zeros(n, dtype=np.int64)
        picked = []
        for flat_i in order:
            img = int(flat_i) // (h * w)
            if taken[img] >= per_image_cap:
                continue
            taken[img] += 1
            picked.append(int(flat_i))
            if len(picked) == k:
                break
        idx = np.asarray(picked, dtype=np.int64)
    imgs = idx // (h * w)
    rows = (idx % (h * w)) // w
    cols = idx % w
    coords = np.stack([imgs, rows, cols], axis=1)
    emb = features.embeddings[imgs, :, rows, cols]
    return CoRepresentation(embeddings=emb, coords=coords, scores=scores[idx])


def correlation_transform(
    features: FeatureGroup,
    proxy: Proxy,
    corep: CoRepresentation,
    scores: np.ndarray | None = None,
) -> CorrelationMapStack:
    """Convert each image into K correlation maps.

    Per image: scale each pixel embedding by its proxy score, then take
    inner products with all K selected embeddings. Output shape is
    (N, K, H, W). ``scores`` is ``score_all(features, proxy)`` when the
    caller already has it. Images are split over as many threads as numpy's
    OpenBLAS may use (``_blas_budget``), each product on one BLAS thread.
    """
    if proxy.dim != features.channels or corep.dim != features.channels:
        raise ShapeError(
            f"channel mismatch: features D={features.channels}, proxy D={proxy.dim}, "
            f"co-representation D={corep.dim}"
        )
    n, d, h, w = features.embeddings.shape
    s = (score_all(features, proxy) if scores is None else scores).reshape(n, h * w)
    flat = features.embeddings.reshape(n, d, h * w)
    c64 = corep.embeddings.astype(np.float64)
    out = np.empty((n, corep.k, h * w), dtype=np.float64)
    workers = _blas_budget()
    scaled = np.empty((min(workers, n), d, h * w), dtype=np.float64)

    def part(wk, lo, hi):
        buf = scaled[wk]
        for i in range(lo, hi):
            np.copyto(buf, flat[i])
            buf *= s[i]
            np.matmul(c64, buf, out=out[i])

    with _one_blas_thread():
        _by_image(n, workers, part)
    return CorrelationMapStack(out.reshape(n, corep.k, h, w), _adopt=True)


def purity_proportion(corep: CoRepresentation, gt: MapGroup, threshold: float = 0.5) -> float:
    """Fraction of selected coordinates landing on ground-truth foreground.

    ``gt`` must be at the same grid resolution the coordinates were selected
    at; a coordinate counts as pure when its ground-truth value is >=
    ``threshold``.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ArgumentError(f"threshold must be in [0, 1], got {threshold}")
    coords = corep.coords
    if (
        coords[:, 0].max() >= gt.n_images
        or coords[:, 1].max() >= gt.height
        or coords[:, 2].max() >= gt.width
    ):
        raise ShapeError(
            f"coordinates exceed ground-truth resolution "
            f"{gt.n_images}x{gt.height}x{gt.width}"
        )
    vals = gt.maps[coords[:, 0], coords[:, 1], coords[:, 2]]
    return float((vals >= threshold).sum()) / corep.k
