"""Pipeline data types. Constructors validate, instances are frozen.

The arrays inside every type are marked read-only after construction, so
instances can be shared freely across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, RangeViolationError, ShapeError
from .tensor import _channel_dots, _is_int, l2_normalize_channels

UNIT_NORM_TOL = 1e-5
PROXY_NORM_TOL = 1e-6
CORRELATION_SLACK = 1e-5

PROXY_MODES = ("from_maps", "from_ground_truth")


def _frozen(x, dtype=None) -> np.ndarray:
    arr = np.array(x, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FeatureGroup:
    """A group of images as pixel embeddings, shape (N, D, H, W).

    Every spatial embedding (the length-D vector at one (n, h, w)) must be
    unit-norm within ``UNIT_NORM_TOL`` or exactly zero.
    """

    embeddings: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.embeddings)
        if arr.ndim != 4:
            raise ShapeError(f"expected (N, D, H, W) embeddings, got shape {arr.shape}")
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        if min(arr.shape) < 1:
            raise ShapeError(f"all extents must be positive, got {arr.shape}")
        arr = _frozen(arr)
        # Square and sum in float64 image by image: no float64 copy of the group.
        # Non-finite values give a non-finite norm and fail the check below.
        n, d, h, w = arr.shape
        flat = arr.reshape(n, d, h * w)
        norms = np.sqrt(_channel_dots(flat, flat)).reshape(n, h, w)
        ok = (np.abs(norms - 1.0) <= UNIT_NORM_TOL) | (norms == 0.0)
        if not ok.all():
            n, h, w = np.argwhere(~ok)[0]
            raise RangeViolationError(
                f"embedding at (image={n}, row={h}, col={w}) has norm "
                f"{norms[n, h, w]:.6g}, expected 1 or 0",
                image=int(n),
            )
        object.__setattr__(self, "embeddings", arr)

    @classmethod
    def from_tensors(cls, tensors, normalize: bool = False, eps: float = 1e-12) -> "FeatureGroup":
        """Stack per-image D x H x W tensors; optionally l2-normalize first."""
        stacked = [l2_normalize_channels(np.asarray(t), eps) if normalize else np.asarray(t) for t in tensors]
        if not stacked:
            raise ShapeError("a feature group needs at least one image")
        shapes = {t.shape for t in stacked}
        if len(shapes) != 1:
            raise ShapeError(f"per-image tensors disagree on shape: {sorted(shapes)}")
        return cls(np.stack(stacked))

    @property
    def n_images(self) -> int:
        return self.embeddings.shape[0]

    @property
    def channels(self) -> int:
        return self.embeddings.shape[1]

    @property
    def height(self) -> int:
        return self.embeddings.shape[2]

    @property
    def width(self) -> int:
        return self.embeddings.shape[3]


@dataclass(frozen=True)
class MapGroup:
    """N grayscale maps with values in [0, 1], shape (N, H, W)."""

    maps: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.maps)
        if arr.ndim != 3:
            raise ShapeError(f"expected (N, H, W) maps, got shape {arr.shape}")
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        if min(arr.shape) < 1:
            raise ShapeError(f"all extents must be positive, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise RangeViolationError("maps contain non-finite values")
        bad = (arr < 0.0) | (arr > 1.0)
        if bad.any():
            n, h, w = np.argwhere(bad)[0]
            raise RangeViolationError(
                f"map value {arr[n, h, w]!r} out of [0, 1] at (image={n}, row={h}, col={w})"
            )
        object.__setattr__(self, "maps", _frozen(arr))

    @classmethod
    def all_ones(cls, n_images: int, height: int, width: int) -> "MapGroup":
        return cls(np.ones((n_images, height, width), dtype=np.float32))

    @property
    def n_images(self) -> int:
        return self.maps.shape[0]

    @property
    def height(self) -> int:
        return self.maps.shape[1]

    @property
    def width(self) -> int:
        return self.maps.shape[2]

    def binarized(self, threshold: float = 0.5) -> "MapGroup":
        return MapGroup(np.where(self.maps >= threshold, 1.0, 0.0).astype(self.maps.dtype))


@dataclass(frozen=True)
class Proxy:
    """Unit direction summarizing the group's co-salient content.

    ``degenerate`` marks proxies whose source mask was (numerically) empty;
    only then may the vector be non-unit. ``source_norm`` records the
    Euclidean norm of the masked average before normalization.
    """

    vec: np.ndarray
    iteration: int = 0
    degenerate: bool = False
    source_norm: float = 0.0

    def __post_init__(self):
        v = _frozen(self.vec, dtype=np.float64)
        if v.ndim != 1 or v.shape[0] < 1:
            raise ShapeError(f"proxy must be a non-empty vector, got shape {v.shape}")
        if not _is_int(self.iteration) or self.iteration < 0:
            raise ArgumentError(f"iteration must be an integer >= 0, got {self.iteration!r}")
        if not self.degenerate:
            nrm = float(np.sqrt((v * v).sum()))
            if abs(nrm - 1.0) > PROXY_NORM_TOL:
                raise ArgumentError(f"proxy norm {nrm:.9g} deviates from 1 beyond {PROXY_NORM_TOL}")
        object.__setattr__(self, "vec", v)

    @property
    def dim(self) -> int:
        return self.vec.shape[0]


@dataclass(frozen=True)
class CoRepresentation:
    """K selected embeddings with source coordinates and selection scores.

    Rows are ordered by score descending (ties by smaller flat index at
    selection time), so ``embeddings[0]`` is the best-correlated one.
    """

    embeddings: np.ndarray  # (K, D)
    coords: np.ndarray      # (K, 3) int rows of (image, row, col)
    scores: np.ndarray      # (K,) float64, non-increasing

    def __post_init__(self):
        emb = np.asarray(self.embeddings)
        coords = np.asarray(self.coords)
        scores = np.asarray(self.scores, dtype=np.float64)
        if emb.ndim != 2 or emb.shape[0] < 1:
            raise ShapeError(f"embeddings must be (K, D) with K >= 1, got {emb.shape}")
        k = emb.shape[0]
        if coords.shape != (k, 3):
            raise ShapeError(f"coords must have shape ({k}, 3), got {coords.shape}")
        if scores.shape != (k,):
            raise ShapeError(f"scores must have shape ({k},), got {scores.shape}")
        if not np.all(np.isfinite(scores)) or not np.all(np.isfinite(emb)):
            raise RangeViolationError("co-representation contains non-finite values")
        # Checked after the cast: no two distinct inputs may become one coordinate.
        coords = _frozen(coords, dtype=np.int64) if coords.dtype.kind in "iu" else None
        if coords is None or coords.min() < 0:
            raise ArgumentError("coords must be integers >= 0")
        if len({tuple(c) for c in coords.tolist()}) != k:
            raise ArgumentError("coords must be distinct")
        if np.any(np.diff(scores) > 0):
            raise ArgumentError("scores must be sorted in non-increasing order")
        object.__setattr__(self, "embeddings", _frozen(emb))
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "scores", _frozen(scores))

    @property
    def k(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]


@dataclass(frozen=True)
class CorrelationMapStack:
    """Per-image correlation maps, shape (N, K, H, W).

    For unit-norm features and proxy every value is a product of three
    factors each bounded by 1, so magnitudes may not exceed 1 beyond a small
    rounding slack.
    """

    maps: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.maps, dtype=np.float64)
        if arr.ndim != 4:
            raise ShapeError(f"expected (N, K, H, W) stack, got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ShapeError(f"all extents must be positive, got {arr.shape}")
        # A NaN or an infinity reaches the max or the min.
        hi, lo = float(arr.max()), float(arr.min())
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise RangeViolationError("correlation stack contains non-finite values")
        peak = max(hi, -lo)
        if peak > 1.0 + CORRELATION_SLACK:
            n, k, h, w = np.argwhere(np.abs(arr) == peak)[0]
            raise RangeViolationError(
                f"correlation value {arr[n, k, h, w]:.6g} at (image={n}, channel={k}, "
                f"row={h}, col={w}) exceeds [-1, 1] + {CORRELATION_SLACK}"
            )
        object.__setattr__(self, "maps", _frozen(arr))

    @property
    def n_images(self) -> int:
        return self.maps.shape[0]

    @property
    def k(self) -> int:
        return self.maps.shape[1]

    @property
    def height(self) -> int:
        return self.maps.shape[2]

    @property
    def width(self) -> int:
        return self.maps.shape[3]


@dataclass(frozen=True)
class PipelineConfig:
    """Inference settings. The defaults are the shipped configuration."""

    k: int = 32
    iters: int = 3
    proxy_mode: str = "from_maps"
    decoder: str = "reference"
    alpha: float = 0.8
    beta: float = 0.2
    binarize_maps: bool = False

    def __post_init__(self):
        if not (_is_int(self.k) and _is_int(self.iters)):
            raise ArgumentError(f"k and iters must be integers, got k={self.k!r}, iters={self.iters!r}")
        if self.k < 1:
            raise ArgumentError(f"k must be >= 1, got {self.k}")
        if self.iters < 0:
            raise ArgumentError(f"iters must be >= 0, got {self.iters}")
        if self.proxy_mode not in PROXY_MODES:
            raise ArgumentError(f"proxy_mode must be one of {PROXY_MODES}, got {self.proxy_mode!r}")
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):
            raise ArgumentError(f"alpha and beta must be finite and >= 0, got {self.alpha}, {self.beta}")


def validate_group(features: FeatureGroup, maps) -> None:
    """Check that a feature group and a map group describe the same images.

    ``maps`` may be a MapGroup or a raw (N, H, W) array; raw arrays get the
    full content validation (range violations report the first offending
    coordinate).
    """
    if not isinstance(maps, MapGroup):
        maps = MapGroup(np.asarray(maps))
    if maps.n_images != features.n_images:
        raise ShapeError(
            f"feature group has {features.n_images} images, map group has {maps.n_images}"
        )
    if (maps.height, maps.width) != (features.height, features.width):
        raise ShapeError(
            f"map resolution {maps.height}x{maps.width} does not match feature grid "
            f"{features.height}x{features.width}"
        )
