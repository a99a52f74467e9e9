"""Co-representation search: score all embeddings, select top-k, transform.

One round of searching scores every pixel embedding against the proxy once,
keeps the k best-correlated locations, gathers their embeddings, and turns
each image into k correlation maps; selection and transform share the scores.
"""
from __future__ import annotations

import numpy as np

from .errors import ArgumentError, ShapeError
from .tensor import _blas_budget, _by_image, _channel_dots, _one_blas_thread, topk_desc
from .types import CoRepresentation, CorrelationMapStack, FeatureGroup, MapGroup, Proxy

__all__ = [
    "score_all",
    "search_corepresentation",
    "correlation_transform",
    "purity_proportion",
]


def score_all(features: FeatureGroup, proxy: Proxy) -> np.ndarray:
    """Correlation score of every pixel embedding against the proxy.

    Returns a flat float64 vector of length N*H*W in image-major, row-major
    order. For unit-norm inputs all values lie in [-1, 1] up to rounding.
    Images are split over the OpenBLAS thread budget; each takes one
    float64 product with the proxy and one channel sum (``_channel_dots``),
    so each value is exactly the scalar sequence acc += p[d] * f[d] in
    float64, whatever the split.
    """
    if proxy.dim != features.channels:
        raise ShapeError(
            f"proxy dimension {proxy.dim} does not match feature channels {features.channels}"
        )
    n, d, h, w = features.embeddings.shape
    flat = features.embeddings.reshape(n, d, h * w)
    p = np.broadcast_to(proxy.vec[:, None], (n, d, 1))
    return _channel_dots(p, flat).reshape(-1)


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
