"""Iterative refinement loop: proxy from maps, search, decode, repeat.

The encoder features stay fixed; only the maps feeding the proxy change from
iteration to iteration. Every iteration hands ``(features, proxy, corep,
scores)`` to the decoder ``PipelineConfig.decoder`` names (``corp.decoder``)
and is recorded in a trace.

Per-image work (the proxy's masked sums, the scores, the reference decoder's
mean-embedding map) is split by image over the CPUs the process may use,
inside ``corp.tensor``; sums over images and the top-k stay on the calling
thread, so the bits never depend on the split.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decoder import get_decoder
from .errors import ArgumentError, ShapeError
from .search import purity_proportion, score_all, search_corepresentation
from .tensor import bilinear_resize, masked_gap
from .types import CoRepresentation, FeatureGroup, MapGroup, PipelineConfig, Proxy

__all__ = [
    "IterationRecord",
    "IterationTrace",
    "compute_proxy",
    "resize_map_group",
    "run_pipeline",
]

# A masked average with a smaller norm is empty (no foreground, or features
# that cancel): normalized, its rounding noise would pose as a direction.
PROXY_EPS = 1e-12


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


def resize_map_group(maps: MapGroup, height: int, width: int) -> MapGroup:
    """Bilinear-resize every map in the group; same-size input passes through."""
    if (maps.height, maps.width) == (height, width):
        return maps
    return MapGroup(np.clip(bilinear_resize(maps.maps, height, width), 0.0, 1.0))


def compute_proxy(features: FeatureGroup, maps: MapGroup, iteration: int = 0) -> Proxy:
    """Masked average of the group features, Euclidean-normalized.

    Per image ``masked_gap`` takes the mask-weighted average embedding over
    the full grid (split by image across threads); per-channel sums over
    images use exact (correctly rounded) summation on the calling thread, so
    the result is independent of image order and of the split. If the masked
    average has norm below ``PROXY_EPS`` the proxy falls back to an unmasked
    (all ones) average and is flagged degenerate.
    """
    n, _, h, w = features.embeddings.shape
    if maps.maps.shape != (n, h, w):
        raise ShapeError(
            f"feature group has {n} images on a {h}x{w} grid, maps have shape {maps.maps.shape}"
        )
    raw, nrm = _masked_average(features, maps.maps)
    if nrm >= PROXY_EPS:
        return Proxy(vec=raw / nrm, iteration=iteration, degenerate=False, source_norm=nrm)
    ones = np.ones((features.n_images, features.height, features.width), dtype=np.float64)
    raw2, nrm2 = _masked_average(features, ones)
    if nrm2 >= PROXY_EPS:
        vec = raw2 / nrm2
    else:
        vec = np.zeros(features.channels, dtype=np.float64)
    return Proxy(vec=vec, iteration=iteration, degenerate=True, source_norm=nrm)


def _masked_average(features: FeatureGroup, masks: np.ndarray) -> tuple[np.ndarray, float]:
    per_channel = masked_gap(features.embeddings, masks).T.tolist()
    raw = np.array([math.fsum(row) / len(row) for row in per_channel], dtype=np.float64)
    return raw, float(np.sqrt((raw * raw).sum()))


def run_pipeline(
    features: FeatureGroup,
    init_maps: MapGroup,
    cfg: PipelineConfig,
    gt: MapGroup | None = None,
    keep_scores: bool = False,
) -> IterationTrace:
    """Run the full refine loop for ``cfg.iters`` iterations.

    Maps are brought to the feature-grid resolution on entry and stay there.
    With ``cfg.proxy_mode == "from_ground_truth"`` the proxy is recomputed
    from ``gt`` every iteration instead of the previous prediction. When
    ``gt`` is supplied the per-iteration purity proportion is recorded.
    Each iteration scores once; the decoder gets that vector, and
    ``keep_scores`` keeps it per record. ``cfg.iters == 0`` yields an empty
    trace and the caller keeps its input maps.
    """
    decoder = get_decoder(cfg.decoder)
    if init_maps.n_images != features.n_images:
        raise ShapeError(
            f"feature group has {features.n_images} images, initial maps have {init_maps.n_images}"
        )
    prev = resize_map_group(init_maps, features.height, features.width)
    gt_feat = None
    if gt is not None:
        if gt.n_images != features.n_images:
            raise ShapeError(
                f"feature group has {features.n_images} images, ground truth has {gt.n_images}"
            )
        gt_feat = resize_map_group(gt, features.height, features.width)
    if cfg.proxy_mode == "from_ground_truth" and gt_feat is None:
        raise ArgumentError('proxy_mode "from_ground_truth" requires ground-truth maps')

    records = []
    for t in range(1, cfg.iters + 1):
        source = gt_feat if cfg.proxy_mode == "from_ground_truth" else prev
        if cfg.binarize_maps:
            source = source.binarized()
        proxy = compute_proxy(features, source, iteration=t)
        scores = score_all(features, proxy)
        corep = search_corepresentation(features, proxy, cfg.k, scores=scores)
        prev = decoder(features, proxy, corep, scores)
        purity = purity_proportion(corep, gt_feat) if gt_feat is not None else None
        records.append(
            IterationRecord(
                iteration=t, proxy=proxy, corep=corep, maps=prev, purity=purity,
                scores=scores if keep_scores else None,
            )
        )
    return IterationTrace(tuple(records))
