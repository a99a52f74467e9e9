"""Co-representation search: score all embeddings, select top-k, transform.

One round of searching scores every pixel embedding against the proxy once,
keeps the k best-correlated locations of the whole group (no image has a
quota) and gathers their embeddings. The correlation transform turns each
image into k correlation maps for decoders that consume the stack;
selection and transform share the scores.
"""
from __future__ import annotations

import numpy as np

from .errors import ArgumentError, ShapeError
from .tensor import _channel_dots, topk_desc
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
    Images are split over the CPUs the process may use; each range takes one
    einsum with the proxy (``_channel_dots``), so each value is exactly the
    scalar sequence acc += p[d] * f[d] in float64, whatever the split.
    """
    if proxy.dim != features.channels:
        raise ShapeError(
            f"proxy dimension {proxy.dim} does not match feature channels {features.channels}"
        )
    n, d, h, w = features.embeddings.shape
    flat = features.embeddings.reshape(n, d, h * w)
    return _channel_dots(proxy.vec, flat).reshape(-1)


def search_corepresentation(
    features: FeatureGroup,
    proxy: Proxy,
    k: int,
    scores: np.ndarray | None = None,
) -> CoRepresentation:
    """Select the k locations best correlated with the proxy and gather them.

    The selection is a global top-k over all N*H*W locations, with no
    per-image quota; ties go to the smaller flat index. ``scores`` is
    ``score_all(features, proxy)`` when the caller already has it.
    """
    n, _, h, w = features.embeddings.shape
    if scores is None:
        scores = score_all(features, proxy)
    idx = topk_desc(scores, k)
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
    caller already has it. A registered decoder that needs the whole stack
    calls this; the "reference" decoder needs only the mean over K and skips it.
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
    for i in range(n):
        np.matmul(c64, flat[i] * s[i], out=out[i])
    return CorrelationMapStack(out.reshape(n, corep.k, h, w))


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
