"""File formats: CRPT binary tensors and binary (P5) PGM maps.

CRPT layout, all little endian: magic ``CRPT``, version u8 (= 1), dtype u8
(1 = float32, 2 = float64), ndim u8, then ndim u32 extents, then the
row-major scalar payload. Writes go through a temp file plus rename, so
readers never observe partial files.

PGM maps are 8-bit binary P5 with maxval 255. Reading divides by 255 into
[0, 1]; writing multiplies by 255 and rounds half up, so a map survives
write/read unchanged once it has been quantized.
"""
from __future__ import annotations

import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .errors import (
    ArgumentError,
    BadMagicError,
    FormatError,
    PgmFormatError,
    RangeViolationError,
    ShapeError,
    TruncatedPayloadError,
    UnsupportedDtypeError,
    UnsupportedVersionError,
)

__all__ = ["read_tensor", "write_tensor", "read_map_pgm", "write_map_pgm"]

MAGIC = b"CRPT"
VERSION = 1
_DTYPE_CODES = {np.dtype("<f4"): 1, np.dtype("<f8"): 2}
_CODE_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}


def _atomic_write(path: Path, data: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_tensor(path, t: np.ndarray) -> None:
    """Serialize a float32/float64 array; write-then-read is bit-identical."""
    path = Path(path)
    arr = np.ascontiguousarray(t)
    if arr.dtype == np.float32:
        arr = arr.astype("<f4", copy=False)
    elif arr.dtype == np.float64:
        arr = arr.astype("<f8", copy=False)
    else:
        raise ArgumentError(f"{path}: only float32/float64 tensors are supported, got {arr.dtype}")
    if arr.ndim < 1 or arr.ndim > 255:
        raise ShapeError(f"{path}: ndim must be in [1, 255], got {arr.ndim}")
    if min(arr.shape) < 1:
        raise ShapeError(f"{path}: all extents must be positive, got {arr.shape}")
    if max(arr.shape) >= 2 ** 32:
        raise ShapeError(f"{path}: extents must fit in u32, got {arr.shape}")
    header = struct.pack(
        f"<4sBBB{arr.ndim}I", MAGIC, VERSION, _DTYPE_CODES[arr.dtype], arr.ndim, *arr.shape
    )
    _atomic_write(path, header + arr.tobytes(order="C"))


def read_tensor(path) -> np.ndarray:
    """Deserialize a CRPT file back into a numpy array."""
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 7:
        raise TruncatedPayloadError(f"{path}: file too short for a CRPT header ({len(data)} bytes)")
    magic, version, dtype_code, ndim = struct.unpack_from("<4sBBB", data, 0)
    if magic != MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise UnsupportedVersionError(f"{path}: unsupported version {version}, expected {VERSION}")
    if dtype_code not in _CODE_DTYPES:
        raise UnsupportedDtypeError(f"{path}: unsupported dtype code {dtype_code}")
    if ndim == 0:
        raise FormatError(f"{path}: ndim must be in [1, 255], got 0")
    offset = 7
    if len(data) < offset + 4 * ndim:
        raise TruncatedPayloadError(f"{path}: header declares {ndim} dims but file ends early")
    dims = struct.unpack_from(f"<{ndim}I", data, offset)
    offset += 4 * ndim
    if any(d < 1 for d in dims):
        raise TruncatedPayloadError(f"{path}: non-positive extent in dims {dims}")
    dtype = _CODE_DTYPES[dtype_code]
    expected = math.prod(dims) * dtype.itemsize
    actual = len(data) - offset
    if actual != expected:
        raise TruncatedPayloadError(
            f"{path}: expected {expected} payload bytes for dims {dims}, got {actual}"
        )
    arr = np.frombuffer(data, dtype=dtype, offset=offset).reshape(dims)
    return arr.astype(arr.dtype.newbyteorder("="), copy=True)


def write_map_pgm(path, m: np.ndarray) -> None:
    """Write an H x W map in [0, 1] as binary PGM (values scaled, round half up)."""
    path = Path(path)
    arr = np.asarray(m)
    if arr.ndim != 2:
        raise ShapeError(f"{path}: expected an H x W map, got shape {arr.shape}")
    a64 = arr.astype(np.float64)
    if not np.all(np.isfinite(a64)) or a64.min() < 0.0 or a64.max() > 1.0:
        raise RangeViolationError(f"{path}: map values must lie in [0, 1]")
    quant = np.clip(np.floor(a64 * 255.0 + 0.5), 0, 255).astype(np.uint8)
    h, w = arr.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    _atomic_write(path, header + quant.tobytes(order="C"))


def read_map_pgm(path) -> np.ndarray:
    """Read a binary P5 PGM (maxval 255) into a float32 map in [0, 1]."""
    path = Path(path)
    data = path.read_bytes()
    tokens, offset = _pgm_header_tokens(path, data)
    magic, w_s, h_s, maxval_s = tokens
    if magic != b"P5":
        raise PgmFormatError(f"{path}: expected binary P5, got {magic.decode('ascii', 'replace')!r}")
    try:
        w, h, maxval = int(w_s), int(h_s), int(maxval_s)
    except ValueError:
        raise PgmFormatError(f"{path}: non-numeric PGM header fields") from None
    if maxval != 255:
        raise PgmFormatError(f"{path}: maxval must be 255, got {maxval}")
    if w < 1 or h < 1:
        raise PgmFormatError(f"{path}: non-positive dimensions {w}x{h}")
    payload = data[offset:]
    if len(payload) != w * h:
        raise PgmFormatError(f"{path}: expected {w * h} payload bytes, got {len(payload)}")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(h, w)
    return (arr.astype(np.float64) / 255.0).astype(np.float32)


def _pgm_header_tokens(path: Path, data: bytes) -> tuple[list[bytes], int]:
    # Magic plus three integers, separated by whitespace; '#' starts a
    # comment running to end of line. Exactly one whitespace byte separates
    # the maxval from the payload.
    tokens = []
    i = 0
    while len(tokens) < 4:
        while i < len(data) and data[i:i + 1].isspace():
            i += 1
        if i < len(data) and data[i:i + 1] == b"#":
            while i < len(data) and data[i] != 0x0A:
                i += 1
            continue
        start = i
        while i < len(data) and not data[i:i + 1].isspace() and data[i:i + 1] != b"#":
            i += 1
        if i == start:
            raise PgmFormatError(f"{path}: truncated PGM header")
        tokens.append(data[start:i])
    if i >= len(data) or not data[i:i + 1].isspace():
        raise PgmFormatError(f"{path}: missing whitespace after maxval")
    return tokens, i + 1
