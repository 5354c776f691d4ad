"""Bit-packing primitives.

Little-endian bit order throughout, matching the Arrow validity-bitmap
layout so packed validity round-trips through ``np.packbits(bitorder="little")``.

:func:`pack_uints` / :func:`unpack_uints` carry every FOR, delta and RLE
stream, the dict indices and the FSST lengths. They run in the native
word-at-a-time kernel (``fsst_native.native_bitpack``/``native_bitunpack``)
when it loads; the numpy code below is the bit-identical fallback. It
expands every value to 64 one-byte bits, so it is ~15x slower (150k
values at 20 bits on a 4-vCPU x86 host: ~4.5 ms against ~0.3 ms each way).
"""

from __future__ import annotations

import numpy as np

from . import fsst_native


def pack_uints(values: np.ndarray, width: int) -> bytes | memoryview:
    """Pack ``values`` (any unsigned int dtype) into ``width`` bits each;
    returns ceil(n*width/8) bytes.

    width == 0 encodes the all-zeros array as b"".
    """
    n = len(values)
    if n == 0 or width == 0:
        return b""
    if width > 64:
        raise ValueError(f"bit width {width} > 64")
    packed = fsst_native.native_bitpack(values, width)
    if packed is not None:
        return packed
    v = np.ascontiguousarray(values, dtype="<u8")
    as_bytes = v.view(np.uint8).reshape(n, 8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")[:, :width]
    return np.packbits(bits.ravel(), bitorder="little").tobytes()


def unpack_uints(data: bytes, n: int, width: int) -> np.ndarray:
    """Inverse of :func:`pack_uints`; returns a writable uint64 array of
    length n. Raises ValueError when ``data`` is too short."""
    if width > 64:
        raise ValueError(f"bit width {width} > 64")
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    if width == 0:
        return np.zeros(n, dtype=np.uint64)
    vals = fsst_native.native_bitunpack(data, n, width)
    if vals is not None:
        return vals
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    bits = bits[: n * width].reshape(n, width)
    full = np.zeros((n, 64), dtype=np.uint8)
    full[:, :width] = bits
    return np.packbits(full, axis=1, bitorder="little").view("<u8").ravel().astype(np.uint64)


def bit_width(max_value: int) -> int:
    """Bits needed to represent max_value (0 -> 0 bits)."""
    if max_value < 0:
        raise ValueError("bit_width expects a non-negative value")
    return int(max_value).bit_length()


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Signed int64 -> uint64 zigzag ((v << 1) ^ (v >> 63))."""
    v = values.astype(np.int64, copy=False)
    return ((v.astype(np.uint64) << np.uint64(1)) ^ (v >> np.int64(63)).astype(np.uint64))


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    """uint64 zigzag -> signed int64."""
    v = values.astype(np.uint64, copy=False)
    return ((v >> np.uint64(1)).astype(np.int64)) ^ -((v & np.uint64(1)).astype(np.int64))


def pack_bools(mask: np.ndarray) -> bytes:
    """Boolean array -> LSB-first packed bitmap (Arrow validity layout)."""
    return np.packbits(mask.astype(np.uint8), bitorder="little").tobytes()


def unpack_bools(data: bytes, n: int) -> np.ndarray:
    """Inverse of :func:`pack_bools`."""
    if n == 0:
        return np.empty(0, dtype=bool)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    return bits[:n].astype(bool)
