"""Iterative refinement loop: proxy from maps, search, decode, repeat.

The encoder features stay fixed; only the maps feeding the proxy change from
iteration to iteration. Every iteration is recorded in a trace.

Per-image work (the proxy's masked sums, the scores, the correlation maps) is split by
image over the OpenBLAS thread budget (``corp.tensor._by_image``); sums over
images and the top-k stay on the calling thread, so the bits never depend on
the split.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decoder import DecoderFn, get_decoder
from .errors import ArgumentError, ShapeError
from .search import (
    correlation_transform,
    purity_proportion,
    score_all,
    search_corepresentation,
)
from .tensor import _blas_budget, _by_image, _masked_gap, bilinear_resize
from .types import (
    CoRepresentation,
    FeatureGroup,
    MapGroup,
    PipelineConfig,
    Proxy,
    validate_group,
)

__all__ = [
    "IterationRecord",
    "IterationTrace",
    "compute_proxy",
    "proxy_from_ground_truth",
    "resize_map_group",
    "run_pipeline",
]


@dataclass(frozen=True)
class IterationRecord:
    """Everything one iteration produced."""

    iteration: int
    proxy: Proxy
    corep: CoRepresentation
    maps: MapGroup
    purity: float | None = None
    scores: np.ndarray | None = None


@dataclass(frozen=True)
class IterationTrace:
    """Per-iteration records, indices strictly increasing from 1."""

    records: tuple[IterationRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        for i, rec in enumerate(self.records):
            if rec.iteration != i + 1:
                raise ArgumentError(
                    f"trace indices must run 1..T, found {rec.iteration} at position {i}"
                )

    def __len__(self) -> int:
        return len(self.records)

    def final_maps(self, default: MapGroup) -> MapGroup:
        """Maps of the last iteration, or ``default`` for an empty trace."""
        return self.records[-1].maps if self.records else default


def resize_map_group(maps: MapGroup, height: int, width: int) -> MapGroup:
    """Bilinear-resize every map in the group; same-size input passes through."""
    if (maps.height, maps.width) == (height, width):
        return maps
    out = np.empty((maps.n_images, height, width), dtype=maps.maps.dtype)
    for n in range(maps.n_images):
        out[n] = np.clip(bilinear_resize(maps.maps[n], height, width), 0.0, 1.0)
    return MapGroup(out)


def compute_proxy(
    features: FeatureGroup,
    maps: MapGroup,
    eps: float = 1e-12,
    iteration: int = 0,
) -> Proxy:
    """Masked average of the group features, Euclidean-normalized.

    Per image the mask-weighted average embedding is taken over the full
    grid, split by image across threads; per-channel sums over images use
    exact (correctly rounded) summation on the calling thread, so the result
    is independent of image order and of the split. If the masked
    average has norm below ``eps`` the proxy falls back to an unmasked (all
    ones) average and is flagged degenerate.
    """
    validate_group(features, maps)
    if eps <= 0:
        raise ArgumentError(f"eps must be positive, got {eps}")
    raw, nrm = _masked_average(features, maps.maps)
    if nrm >= eps:
        return Proxy(vec=raw / nrm, iteration=iteration, degenerate=False, source_norm=nrm)
    ones = np.ones((features.n_images, features.height, features.width), dtype=np.float64)
    raw2, nrm2 = _masked_average(features, ones)
    if nrm2 >= eps:
        vec = raw2 / nrm2
    else:
        vec = np.zeros(features.channels, dtype=np.float64)
    return Proxy(vec=vec, iteration=iteration, degenerate=True, source_norm=nrm)


def _masked_average(features: FeatureGroup, masks: np.ndarray) -> tuple[np.ndarray, float]:
    n, d, h, w = features.embeddings.shape
    flat = features.embeddings.reshape(n, d, h * w)
    masks64 = np.asarray(masks, dtype=np.float64).reshape(n, h * w)
    gaps = np.empty((n, d), dtype=np.float64)
    workers = _blas_budget()
    scratch = np.empty((min(workers, n), d, h * w), dtype=np.float64)

    def part(wk, lo, hi):
        for i in range(lo, hi):
            gaps[i] = _masked_gap(flat[i], masks64[i], scratch[wk])

    _by_image(n, workers, part)
    raw = np.array([math.fsum(row) / n for row in gaps.T.tolist()], dtype=np.float64)
    return raw, float(np.sqrt((raw * raw).sum()))


def proxy_from_ground_truth(features: FeatureGroup, gt: MapGroup, eps: float = 1e-12) -> Proxy:
    """Proxy computed with ground-truth maps as the mask."""
    return compute_proxy(features, gt, eps=eps)


def run_pipeline(
    features: FeatureGroup,
    init_maps: MapGroup,
    cfg: PipelineConfig,
    decoder: DecoderFn | None = None,
    gt: MapGroup | None = None,
    keep_scores: bool = False,
) -> IterationTrace:
    """Run the full refine loop for ``cfg.iters`` iterations.

    Maps are brought to the feature-grid resolution on entry and stay there.
    With ``cfg.proxy_mode == "from_ground_truth"`` the proxy is recomputed
    from ``gt`` every iteration instead of the previous prediction. When
    ``gt`` is supplied the per-iteration purity proportion is recorded.
    Each iteration scores once; ``keep_scores`` keeps that vector per record.
    ``cfg.iters == 0`` yields an empty trace and the caller keeps its input
    maps.
    """
    if decoder is None:
        decoder = get_decoder(cfg.decoder)
    h, w = features.height, features.width
    if init_maps.n_images != features.n_images:
        raise ShapeError(
            f"feature group has {features.n_images} images, initial maps have {init_maps.n_images}"
        )
    prev = resize_map_group(init_maps, h, w)
    gt_feat = None
    if gt is not None:
        if gt.n_images != features.n_images:
            raise ShapeError(
                f"feature group has {features.n_images} images, ground truth has {gt.n_images}"
            )
        gt_feat = resize_map_group(gt, h, w)
    if cfg.proxy_mode == "from_ground_truth" and gt_feat is None:
        raise ArgumentError('proxy_mode "from_ground_truth" requires ground-truth maps')

    records = []
    for t in range(1, cfg.iters + 1):
        source = gt_feat if cfg.proxy_mode == "from_ground_truth" else prev
        if cfg.binarize_maps:
            source = source.binarized()
        proxy = compute_proxy(features, source, eps=cfg.eps, iteration=t)
        scores = score_all(features, proxy)
        corep = search_corepresentation(features, proxy, cfg.k, cfg.per_image_cap, scores=scores)
        stack = correlation_transform(features, proxy, corep, scores=scores)
        maps_t = decoder(stack, h, w)
        purity = purity_proportion(corep, gt_feat) if gt_feat is not None else None
        records.append(
            IterationRecord(
                iteration=t, proxy=proxy, corep=corep, maps=maps_t, purity=purity,
                scores=scores if keep_scores else None,
            )
        )
        prev = maps_t
    return IterationTrace(tuple(records))
