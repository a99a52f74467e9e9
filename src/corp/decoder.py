"""Decoders turning a purified co-representation into co-saliency maps.

Every registered decoder takes ``(features, proxy, corep, scores)``, with
``scores`` the iteration's ``score_all`` vector, and returns a MapGroup at
the feature grid, never resized; the pipeline calls the one PipelineConfig
names, and resizes only its input maps, on entry. The built-in "reference"
decoder, ``decode_corep``, never builds the correlation stack. A decoder
that needs it calls ``correlation_transform(features, proxy, corep,
scores=scores)``, and can pass it to ``decode_reference``.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DecoderNotFoundError, RegistrationError
from .tensor import _channel_dots
from .types import CoRepresentation, CorrelationMapStack, FeatureGroup, MapGroup, Proxy

__all__ = ["decode_corep", "decode_mean", "decode_reference", "register_decoder", "get_decoder",
           "list_decoders", "DecoderFn"]

DecoderFn = Callable[[FeatureGroup, Proxy, CoRepresentation, np.ndarray], MapGroup]

_REGISTRY: dict[str, DecoderFn] = {}

MAX_EPS = 1e-12


def decode_mean(mean_maps: np.ndarray) -> MapGroup:
    """Decode (N, H, W) float64 mean correlation maps into [0, 1] maps.

    Per image: clamp negatives (and -0.0) to +0.0, then divide by the
    per-image maximum when it exceeds a tiny epsilon, else decode to zeros.
    Every x <= peak gives x / peak <= 1, so no clip; the grid is kept.
    """
    fused = np.maximum(mean_maps, 0.0)
    peak = fused.max(axis=(1, 2), keepdims=True)
    fused = np.divide(fused, peak, out=np.zeros_like(fused), where=peak > MAX_EPS)
    return MapGroup(fused.astype(np.float32))


def decode_reference(stack: CorrelationMapStack) -> MapGroup:
    """Parameter-free decode of a correlation stack into [0, 1] maps.

    The mean over the K channels of each image, decoded by ``decode_mean``,
    on the stack's grid.
    """
    return decode_mean(stack.maps.mean(axis=1))


def decode_corep(features: FeatureGroup, proxy: Proxy, corep: CoRepresentation,
                 scores: np.ndarray) -> MapGroup:
    """``decode_reference`` of the correlation stack, from one channel sum.

    The mean over K of map j = c_j . (s * f) is s * (c . f) with c the mean
    selected embedding; ``proxy`` enters only through the scores ``s``.
    """
    n, d, h, w = features.embeddings.shape
    c_mean = corep.embeddings.astype(np.float64).mean(axis=0)
    fused = _channel_dots(c_mean, features.embeddings.reshape(n, d, h * w))
    return decode_mean((fused * scores.reshape(n, h * w)).reshape(n, h, w))


def register_decoder(name: str, fn: DecoderFn) -> None:
    """Make a decoder selectable by name; duplicate names are rejected."""
    if name in _REGISTRY:
        raise RegistrationError(f"decoder {name!r} is already registered")
    _REGISTRY[name] = fn


def get_decoder(name: str) -> DecoderFn:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise DecoderNotFoundError(
            f"unknown decoder {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def list_decoders() -> list[str]:
    return sorted(_REGISTRY)


register_decoder("reference", decode_corep)
