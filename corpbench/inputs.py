"""Seeded benchmark inputs, drawn with ``np.random.default_rng``.

Pipeline groups plant one co-salient rectangle per image whose pixels share a
common direction; every other pixel takes one of a few distractor directions.
Gaussian noise is added and each pixel embedding is l2-normalized. Initial
maps are the ground truth dilated by one pixel. Evaluation groups are soft,
noisy predictions around binary ground truth, with one all-background image
per group so the degenerate metric path runs.

The same seed gives byte-identical arrays. ``corp.fixtures`` is not used: its
pure-Python SplitMix64 is far too slow at D=512.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NOISE = 0.35            # norm of the per-pixel noise before normalization
DISTRACTOR_COS = 0.2    # distractor cosines to the co-direction lie in [-0.2, 0.2]
DILATE = 1              # init maps: ground truth dilated by this many pixels

# Why these values: the reference decoder keeps every positive correlation, so
# a lone distractor with a clearly positive cosine that covers most of the
# image pulls the next proxy off the object. The selection then flips wholly
# to the background for that group, and the pool's mean purity would jump by
# whole groups from seed to seed. At least two distractors, small cosines and
# regions of at least 12% of the grid keep every group converging.


@dataclass(frozen=True)
class PipelineGroup:
    embeddings: np.ndarray  # (N, D, H, W) float32, unit-norm per pixel
    init: np.ndarray        # (N, H, W) float32, dilated ground truth
    gt: np.ndarray          # (N, H, W) float32, planted 0/1 mask


@dataclass(frozen=True)
class EvalGroup:
    pred: np.ndarray  # (N, H, W) float32 soft predictions in [0, 1]
    gt: np.ndarray    # (N, H, W) float32, 0/1


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _rectangle(rng, h: int, w: int, frac: float) -> tuple[int, int, int, int]:
    area = frac * h * w
    aspect = rng.uniform(0.6, 1.6)
    rh = int(np.clip(round(np.sqrt(area * aspect)), 2, h - 1))
    rw = int(np.clip(round(area / rh), 2, w - 1))
    r0 = int(rng.integers(0, h - rh + 1))
    c0 = int(rng.integers(0, w - rw + 1))
    return r0, c0, rh, rw


def _dilate(mask: np.ndarray, r: int) -> np.ndarray:
    out = mask.copy()
    h, w = mask.shape
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            src = mask[max(0, -dy):h - max(0, dy), max(0, -dx):w - max(0, dx)]
            dst = out[max(0, dy):h - max(0, -dy), max(0, dx):w - max(0, -dx)]
            np.maximum(dst, src, out=dst)
    return out


def pipeline_group(
    rng, n: int, d: int, h: int, w: int, region_frac: float, n_distractors: int
) -> PipelineGroup:
    """One group with a planted co-direction; built image by image to bound memory."""
    co = _unit(rng.standard_normal(d))
    raw = rng.standard_normal((n_distractors, d))
    raw -= (raw @ co)[:, None] * co
    cos = rng.uniform(-DISTRACTOR_COS, DISTRACTOR_COS, size=(n_distractors, 1))
    dirs = cos * co + np.sqrt(1.0 - cos ** 2) * _unit(raw)
    emb = np.empty((n, d, h, w), dtype=np.float32)
    gt = np.zeros((n, h, w), dtype=np.float32)
    for i in range(n):
        r0, c0, rh, rw = _rectangle(rng, h, w, region_frac)
        gt[i, r0:r0 + rh, c0:c0 + rw] = 1.0
        base = dirs[rng.integers(0, n_distractors, size=(h, w))]  # (H, W, D)
        base[gt[i] == 1.0] = co
        noisy = base + (NOISE / np.sqrt(d)) * rng.standard_normal((h, w, d))
        emb[i] = _unit(noisy).transpose(2, 0, 1)
    init = np.stack([_dilate(gt[i], DILATE) for i in range(n)])
    return PipelineGroup(emb, init, gt)


def pipeline_pool(rng, size: int, n: int, d: int, h: int, w: int) -> list[PipelineGroup]:
    """Distinct groups whose region fraction and distractor count vary."""
    fracs = np.linspace(0.12, 0.35, size)
    return [
        pipeline_group(rng, n, d, h, w, float(fracs[j]), 2 + j % 6) for j in range(size)
    ]


def eval_group(rng, n: int, h: int, w: int, region_frac: float) -> EvalGroup:
    """Soft, noisy predictions around GT; image 0 has all-background GT."""
    gt = np.zeros((n, h, w), dtype=np.float32)
    pred = np.empty((n, h, w), dtype=np.float32)
    for i in range(n):
        if i > 0:
            r0, c0, rh, rw = _rectangle(rng, h, w, region_frac)
            gt[i, r0:r0 + rh, c0:c0 + rw] = 1.0
        dy, dx = (int(v) for v in rng.integers(-6, 7, size=2))
        shifted = np.roll(gt[i], (dy, dx), axis=(0, 1))
        soft = 0.15 + 0.7 * shifted + 0.15 * rng.standard_normal((h, w))
        pred[i] = np.clip(soft, 0.0, 1.0)
    return EvalGroup(pred, gt)


def eval_pool(rng, size: int, n: int, h: int, w: int) -> list[EvalGroup]:
    fracs = np.linspace(0.1, 0.4, size)
    return [eval_group(rng, n, h, w, float(fracs[j])) for j in range(size)]


def upsample(maps: np.ndarray, factor: int) -> np.ndarray:
    """Nearest-neighbour upsampling of (N, H, W) maps by an integer factor."""
    return np.repeat(np.repeat(maps, factor, axis=1), factor, axis=2)
