"""Decoders turning correlation-map stacks into co-saliency maps.

The built-in "reference" decoder is parameter-free: average the K channels,
clamp negatives, normalize by the per-image maximum, resize. The pipeline
computes that average straight from the mean selected embedding and calls
``decode_mean`` on it. Alternative decoders can be registered by name and
selected through PipelineConfig; they receive the whole stack.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DecoderNotFoundError, RegistrationError
from .tensor import bilinear_resize
from .types import CorrelationMapStack, MapGroup

__all__ = ["decode_mean", "decode_reference", "register_decoder", "get_decoder", "list_decoders",
           "DecoderFn"]

DecoderFn = Callable[[CorrelationMapStack, int, int], MapGroup]

_REGISTRY: dict[str, DecoderFn] = {}

MAX_EPS = 1e-12


def decode_mean(mean_maps: np.ndarray, out_h: int, out_w: int) -> MapGroup:
    """Decode (N, H, W) float64 mean correlation maps into [0, 1] maps.

    Per image: clamp negatives to 0, divide by the per-image maximum when it
    exceeds a tiny epsilon (otherwise the image decodes to all zeros), then
    bilinear-resize to (out_h, out_w).
    """
    fused = np.maximum(mean_maps, 0.0)
    peak = fused.max(axis=(1, 2), keepdims=True)
    fused = np.divide(fused, peak, out=np.zeros_like(fused), where=peak > MAX_EPS)
    return MapGroup(np.clip(bilinear_resize(fused, out_h, out_w), 0.0, 1.0).astype(np.float32))


def decode_reference(stack: CorrelationMapStack, out_h: int, out_w: int) -> MapGroup:
    """Parameter-free decode of a correlation stack into [0, 1] maps.

    The mean over the K channels of each image, decoded by ``decode_mean``.
    """
    return decode_mean(stack.maps.mean(axis=1), out_h, out_w)


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


register_decoder("reference", decode_reference)
