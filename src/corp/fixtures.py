"""Seeded synthetic groups with planted co-salient rectangles.

Generation is a pure function of the spec. PRNG contract, version 1, chosen
so any implementation in any language can reproduce the bytes:

* SplitMix64 core: state advances by 0x9E3779B97F4A7C15; output mixes
  z ^= z >> 30 times 0xBF58476D1CE4E5B9, z ^= z >> 27 times
  0x94D049BB133111EB, z ^= z >> 31 (all modulo 2**64).
* uniform doubles: ((next_u64() >> 11) + 1) * 2**-53, range (0, 1].
* gaussians: Box-Muller pairs r*cos(2*pi*u2), r*sin(2*pi*u2) with
  r = sqrt(-2*ln(u1)); values are consumed in generation order with the
  second of each pair carried over.

Pixel order is image-major, row-major. Every pixel outside a planted
rectangle draws one u64 to pick its distractor direction, then (when
noise_sigma > 0) D gaussians; inside pixels skip the direction draw.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .pipeline import compute_proxy
from .search import score_all
from .tensor import _is_int
from .types import FeatureGroup, MapGroup

__all__ = ["SplitMix64", "FixtureSpec", "random_fixture_spec", "generate_fixture"]

_MASK64 = (1 << 64) - 1
INIT_MODES = ("gt", "dilated", "ones")
# Draws random_fixture_spec makes for one distractor before it gives up. The
# shipped specs need a few each; a margin near 1 or a single channel needs
# more than any bound.
MAX_DRAWS_PER_DISTRACTOR = 1000
# Elements (N*D*H*W) of a fixture group, and gaussians random_fixture_spec may
# draw at worst. About 2 us each in pure Python, so seconds at the bound; it
# holds 8x the acceptance shape N=10 D=64 28x28.
MAX_FIXTURE_ELEMENTS = 1 << 22


class SplitMix64:
    """SplitMix64 generator (public-domain constants), PRNG spec version 1."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64
        self._spare_gaussian = None

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def uniform(self) -> float:
        return ((self.next_u64() >> 11) + 1) * 2.0 ** -53

    def gaussian(self) -> float:
        if self._spare_gaussian is not None:
            g, self._spare_gaussian = self._spare_gaussian, None
            return g
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_gaussian = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def gaussians(self, n: int) -> list[float]:
        return [self.gaussian() for _ in range(n)]


@dataclass(frozen=True)
class FixtureSpec:
    """Recipe for one synthetic group.

    ``planted_regions`` holds one (row0, col0, height, width) rectangle per
    image. Direction vectors must be unit; every distractor must satisfy
    |co . d| <= 1 - separation_margin.
    """

    seed: int
    n_images: int
    channels: int
    height: int
    width: int
    planted_regions: tuple[tuple[int, int, int, int], ...]
    co_direction: tuple[float, ...]
    distractor_directions: tuple[tuple[float, ...], ...]
    separation_margin: float
    noise_sigma: float
    init_mode: str = "dilated"

    def __post_init__(self):
        if not _is_int(self.seed):
            raise ArgumentError(f"seed must be an integer, got {self.seed!r}")
        _check_group_size(self.n_images, self.channels, self.height, self.width)
        if not _rows_of(self.planted_regions, numbers.Integral, 4):
            raise ArgumentError("planted_regions must hold (row0, col0, height, width) integers")
        if not (_rows_of((self.co_direction,), numbers.Real)
                and _rows_of(self.distractor_directions, numbers.Real)):
            raise ArgumentError("co_direction and distractor_directions must be number vectors")
        if not all(isinstance(v, numbers.Real) for v in (self.separation_margin, self.noise_sigma)):
            raise ArgumentError("separation_margin and noise_sigma must be numbers")
        if len(self.planted_regions) != self.n_images:
            raise ArgumentError(
                f"need one planted rectangle per image, got {len(self.planted_regions)} "
                f"for {self.n_images} images"
            )
        for i, (r0, c0, rh, rw) in enumerate(self.planted_regions):
            if rh < 1 or rw < 1:
                raise ArgumentError(f"planted rectangle {i} is empty: {(r0, c0, rh, rw)}")
            if r0 < 0 or c0 < 0 or r0 + rh > self.height or c0 + rw > self.width:
                raise ArgumentError(
                    f"planted rectangle {i} {(r0, c0, rh, rw)} leaves the "
                    f"{self.height}x{self.width} grid"
                )
        if not 0.0 < self.separation_margin < 1.0:
            raise ArgumentError(
                f"separation_margin must be in (0, 1), got {self.separation_margin}"
            )
        if not 0 <= self.noise_sigma < math.inf:
            raise ArgumentError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.init_mode not in INIT_MODES:
            raise ArgumentError(f"init_mode must be one of {INIT_MODES}, got {self.init_mode!r}")
        co = np.asarray(self.co_direction, dtype=np.float64)
        if co.ndim != 1 or co.shape[0] != self.channels:
            raise ArgumentError("co_direction must be a length-D vector")
        if abs(float(np.linalg.norm(co)) - 1.0) > 1e-6:
            raise ArgumentError("co_direction must be unit-norm")
        if len(self.distractor_directions) < 1:
            raise ArgumentError("need at least one distractor direction")
        for j, d in enumerate(self.distractor_directions):
            dv = np.asarray(d, dtype=np.float64)
            if dv.shape != co.shape:
                raise ArgumentError(f"distractor {j} has wrong dimension")
            if abs(float(np.linalg.norm(dv)) - 1.0) > 1e-6:
                raise ArgumentError(f"distractor {j} must be unit-norm")
            overlap = abs(float(np.dot(co, dv)))
            if overlap > 1.0 - self.separation_margin + 1e-9:
                raise ArgumentError(
                    f"distractor {j} overlaps the co-direction by {overlap:.4f}, "
                    f"limit is {1.0 - self.separation_margin:.4f}"
                )


def _check_group_size(n_images, channels, height, width) -> None:
    """Counts must be integers >= 1 whose group fits MAX_FIXTURE_ELEMENTS."""
    counts = (n_images, channels, height, width)
    if not all(_is_int(v) for v in counts):
        raise ArgumentError("n_images, channels, height and width must be integers")
    if min(counts) < 1:
        raise ArgumentError("n_images, channels, height and width must all be >= 1")
    elements = n_images * channels * height * width
    if elements > MAX_FIXTURE_ELEMENTS:
        raise ArgumentError(f"a {n_images}x{channels}x{height}x{width} group holds "
                            f"{elements} elements, over the bound of {MAX_FIXTURE_ELEMENTS}")


def _rows_of(rows, kind, length: int | None = None) -> bool:
    """Whether ``rows`` is a sequence of sequences of ``kind`` values, each
    ``length`` long when given."""
    try:
        return all(
            (length is None or len(r) == length) and all(isinstance(v, kind) for v in r)
            for r in rows
        )
    except TypeError:
        return False


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def random_fixture_spec(
    seed: int,
    n_images: int = 3,
    channels: int = 16,
    height: int = 12,
    width: int = 12,
    region_size: int = 5,
    n_distractors: int = 6,
    separation_margin: float = 0.8,
    noise_sigma: float = 0.05,
    init_mode: str = "dilated",
) -> FixtureSpec:
    """Derive a complete spec from a seed.

    Directions come from the seeded generator; distractors are drawn by
    rejection until they respect the separation margin, at most
    ``MAX_DRAWS_PER_DISTRACTOR`` draws each. Rectangles land at seeded
    positions, one per image. Sizes are checked against
    ``MAX_FIXTURE_ELEMENTS`` before anything is drawn.
    """
    _check_group_size(n_images, channels, height, width)
    if not (_is_int(n_distractors) and _is_int(region_size)):
        raise ArgumentError("n_distractors and region_size must be integers, got "
                            f"{n_distractors!r} and {region_size!r}")
    if channels * (1 + n_distractors * MAX_DRAWS_PER_DISTRACTOR) > MAX_FIXTURE_ELEMENTS:
        raise ArgumentError(
            f"{n_distractors} distractors in {channels} channels may take more than "
            f"{MAX_FIXTURE_ELEMENTS} gaussian draws; lower n_distractors or channels"
        )
    if not isinstance(separation_margin, numbers.Real) or not 0.0 < separation_margin < 1.0:
        raise ArgumentError(f"separation_margin must be in (0, 1), got {separation_margin!r}")
    if region_size > height or region_size > width:
        raise ArgumentError(f"region_size {region_size} exceeds the {height}x{width} grid")
    rng = SplitMix64(seed)
    co = _unit(np.asarray(rng.gaussians(channels)))
    distractors = []
    for _ in range(n_distractors):
        for _ in range(MAX_DRAWS_PER_DISTRACTOR):
            d = _unit(np.asarray(rng.gaussians(channels)))
            if abs(float(np.dot(co, d))) <= 1.0 - separation_margin:
                distractors.append(tuple(d.tolist()))
                break
        else:
            raise ArgumentError(
                f"no distractor within separation_margin {separation_margin} after "
                f"{MAX_DRAWS_PER_DISTRACTOR} draws in {channels} channels; lower the margin"
            )
    regions = []
    for _ in range(n_images):
        r0 = rng.next_u64() % (height - region_size + 1)
        c0 = rng.next_u64() % (width - region_size + 1)
        regions.append((int(r0), int(c0), region_size, region_size))
    return FixtureSpec(
        seed=seed,
        n_images=n_images,
        channels=channels,
        height=height,
        width=width,
        planted_regions=tuple(regions),
        co_direction=tuple(co.tolist()),
        distractor_directions=tuple(distractors),
        separation_margin=separation_margin,
        noise_sigma=noise_sigma,
        init_mode=init_mode,
    )


def _dilate3x3(m: np.ndarray) -> np.ndarray:
    out = m.copy()
    h, w = m.shape
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            ys = slice(max(dy, 0), h + min(dy, 0))
            yd = slice(max(-dy, 0), h + min(-dy, 0))
            xs = slice(max(dx, 0), w + min(dx, 0))
            xd = slice(max(-dx, 0), w + min(-dx, 0))
            out[yd, xd] = np.maximum(out[yd, xd], m[ys, xs])
    return out


def generate_fixture(spec: FixtureSpec) -> tuple[FeatureGroup, MapGroup, MapGroup]:
    """Materialize (features, ground truth, initial maps) from a spec.

    Embeddings inside a planted rectangle point along the co-direction plus
    noise; outside pixels get a seeded distractor direction plus noise.
    After generation the separation guarantee is checked exhaustively: the
    lowest in-region score against the ground-truth-masked proxy (the one
    ``--proxy-mode gt`` computes) must beat the highest out-region score,
    otherwise the fixture is rejected.
    """
    rng = SplitMix64(spec.seed)
    d = spec.channels
    h, w = spec.height, spec.width
    co = _unit(np.asarray(spec.co_direction, dtype=np.float64))
    distractors = [
        _unit(np.asarray(v, dtype=np.float64)) for v in spec.distractor_directions
    ]
    feats = np.zeros((spec.n_images, d, h, w), dtype=np.float32)
    gt = np.zeros((spec.n_images, h, w), dtype=np.float32)
    for n in range(spec.n_images):
        r0, c0, rh, rw = spec.planted_regions[n]
        gt[n, r0:r0 + rh, c0:c0 + rw] = 1.0
        for y in range(h):
            for x in range(w):
                inside = r0 <= y < r0 + rh and c0 <= x < c0 + rw
                if inside:
                    base = co
                else:
                    base = distractors[rng.next_u64() % len(distractors)]
                if spec.noise_sigma > 0:
                    v = base + spec.noise_sigma * np.asarray(rng.gaussians(d))
                else:
                    v = base
                nrm = float(np.linalg.norm(v))
                feats[n, :, y, x] = (v / nrm if nrm >= 1e-12 else np.zeros(d)).astype(np.float32)

    if spec.init_mode == "gt":
        init = gt.copy()
    elif spec.init_mode == "dilated":
        init = np.stack([_dilate3x3(gt[n]) for n in range(spec.n_images)])
    else:
        init = np.ones_like(gt)

    features, gt_maps = FeatureGroup(feats), MapGroup(gt)
    _check_separation(features, gt_maps)
    return features, gt_maps, MapGroup(init)


def _check_separation(features: FeatureGroup, gt: MapGroup) -> None:
    proxy = compute_proxy(features, gt)
    if proxy.degenerate:
        raise ArgumentError("fixture rejected: ground-truth-masked proxy is zero")
    scores = score_all(features, proxy)
    inside = gt.maps.reshape(-1) >= 0.5
    min_in = float(scores[inside].min())
    max_out = float(scores[~inside].max()) if (~inside).any() else -np.inf
    if min_in <= max_out:
        raise ArgumentError(
            f"fixture rejected: not separable (min in-region score {min_in:.6f} "
            f"<= max out-region score {max_out:.6f}); lower noise_sigma or raise "
            "separation_margin"
        )
