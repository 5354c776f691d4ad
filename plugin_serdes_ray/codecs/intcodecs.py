"""Integer-family codecs: constant, frame-of-reference, delta.

All operate on fixed-int-like Arrow types (ints, timestamps, dates, times,
durations; floats are bit-viewed and only chosen by the selector when it
makes sense). Mirrors the reference's normalization of temporals to epoch
longs (/root/reference avro/AvroConverter.java:378-441) — here the int64
view of timestamp[us] feeds frame-of-reference + bit-pack directly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .base import (
    Codec, EncodeContext, _compact, encode_array, decode_array,
    fixed_from_numpy, fixed_to_numpy, is_var_binary, pack_sections, register,
    unpack_sections, validity_from_bytes, validity_to_bytes,
)
from .bitpack import bit_width, pack_uints, unpack_uints, zigzag_decode, zigzag_encode


class ConstantCodec(Codec):
    """All-null or single-repeated-value chunks -> O(1) bytes."""

    name = "constant"

    def encode(self, arr: pa.Array, ctx: EncodeContext) -> tuple[bytes, dict]:
        arr = _compact(arr)
        n = len(arr)
        if arr.null_count == n:
            return b"", {"n": n, "null": True}
        if arr.null_count:
            raise ValueError("constant codec requires all-null or no-null input")
        # single distinct value (selector-verified): store a 1-row raw chunk
        one = arr.slice(0, 1)
        sub = encode_array(one, "raw_ipc", ctx)
        return sub, {"n": n, "null": False}

    def decode(self, payload: bytes, meta: dict, typ: pa.DataType) -> pa.Array:
        n = meta["n"]
        if meta["null"]:
            return pa.nulls(n, typ)
        one = decode_array(payload, typ)
        if n == 1:
            return one
        # one vectorized take, not an n-way concat of 1-row Array objects
        return one.take(pa.array(np.zeros(n, dtype=np.int64)))


class ForCodec(Codec):
    """Frame-of-reference: (v - min) bit-packed. Nulls carried separately."""

    name = "for"

    def encode(self, arr: pa.Array, ctx: EncodeContext) -> tuple[bytes, dict]:
        vals, validity = fixed_to_numpy(arr)
        n = len(vals)
        if n == 0:
            return pack_sections([b"", b""]), {"n": 0, "min": 0, "w": 0}
        live = vals if validity is None else vals[validity]
        if len(live) == 0:
            return pack_sections([validity_to_bytes(validity), b""]), {"n": n, "min": 0, "w": 0}
        lo = int(live.min())
        hi = int(live.max())
        span = hi - lo
        if span >= (1 << 63):
            raise OverflowError("FoR range needs >=64 bits; selector should have used plain")
        w = bit_width(span)
        # nulls were filled with 0 which may be < lo; re-fill with lo so the
        # shifted values stay in range
        shifted = (vals - lo).astype(np.uint64)
        if validity is not None:
            shifted = np.where(validity, shifted, np.uint64(0))
        packed = pack_uints(shifted, w)
        return pack_sections([validity_to_bytes(validity), packed]), {"n": n, "min": lo, "w": w}

    def decode(self, payload: bytes, meta: dict, typ: pa.DataType) -> pa.Array:
        n, lo, w = meta["n"], meta["min"], meta["w"]
        sections = unpack_sections(payload)
        validity = validity_from_bytes(sections[0], n)
        vals = unpack_uints(sections[1], n, w).view(np.int64)
        vals += np.int64(lo)
        if validity is not None:
            vals = np.where(validity, vals, np.int64(0))
        return fixed_from_numpy(vals, validity, typ)


class DeltaCodec(Codec):
    """Delta + zigzag + frame-of-reference bit-pack; for mostly-sorted ints
    (crawl timestamps: FIXTURES.md F1 `warc_ts`)."""

    name = "delta"

    def encode(self, arr: pa.Array, ctx: EncodeContext) -> tuple[bytes, dict]:
        vals, validity = fixed_to_numpy(arr)
        n = len(vals)
        if n == 0:
            return pack_sections([b"", b""]), {"n": 0, "first": 0, "zmin": 0, "w": 0}
        # delta over the stored sequence (nulls as 0 is fine: validity wins
        # on decode); wraparound-safe in uint64
        u = vals.astype(np.uint64)
        if validity is not None:
            u = np.where(validity, u, np.uint64(0))
        du = (u[1:] - u[:-1]).view(np.int64)  # wrapped signed delta
        zz = zigzag_encode(du)
        if n == 1:
            return (
                pack_sections([validity_to_bytes(validity), b""]),
                {"n": 1, "first": int(u[0]), "zmin": 0, "w": 0},
            )
        zmin = int(zz.min())
        span = int(zz.max()) - zmin
        w = bit_width(span)
        packed = pack_uints((zz - np.uint64(zmin)), w)
        return (
            pack_sections([validity_to_bytes(validity), packed]),
            {"n": n, "first": int(u[0]), "zmin": zmin, "w": w},
        )

    def decode(self, payload: bytes, meta: dict, typ: pa.DataType) -> pa.Array:
        n, first, zmin, w = meta["n"], meta["first"], meta["zmin"], meta["w"]
        if n == 0:
            return pa.array([], type=typ)
        sections = unpack_sections(payload)
        validity = validity_from_bytes(sections[0], n)
        out = np.empty(n, dtype=np.uint64)
        out[0] = np.uint64(first)
        if n > 1:
            zz = unpack_uints(sections[1], n - 1, w)
            zz += np.uint64(zmin)
            du = zigzag_decode(zz).view(np.uint64)
            np.cumsum(du, out=out[1:])
            out[1:] += np.uint64(first)
        vals = out.view(np.int64)
        if validity is not None:
            vals = np.where(validity, vals, np.int64(0))
        return fixed_from_numpy(vals, validity, typ)


class RleCodec(Codec):
    """Run-length encoding over fixed-int-like values (incl. dict indices).

    Runs break on value change OR validity change; run values are nested
    FoR chunks, run lengths are bit-packed.
    """

    name = "rle"

    def encode(self, arr: pa.Array, ctx: EncodeContext) -> tuple[bytes, dict]:
        vals, validity = fixed_to_numpy(arr)
        n = len(vals)
        if n == 0:
            return pack_sections([b"", b"", b""]), {"n": 0, "r": 0, "lw": 0}
        valid = validity if validity is not None else np.ones(n, dtype=bool)
        change = np.empty(n, dtype=bool)
        change[0] = True
        np.not_equal(vals[1:], vals[:-1], out=change[1:])
        change[1:] |= valid[1:] != valid[:-1]
        starts = np.flatnonzero(change)
        run_lengths = np.diff(np.append(starts, n)).astype(np.uint64)
        run_vals = vals[starts]
        run_valid = valid[starts]
        lw = bit_width(int(run_lengths.max()) - 1)
        lengths_packed = pack_uints(run_lengths - np.uint64(1), lw)
        # nested chunk for run values (typ-agnostic: int64 array, validity of runs)
        rv_arr = fixed_from_numpy(
            run_vals, None if validity is None else run_valid, pa.int64()
        )
        try:
            sub = encode_array(rv_arr, "for", ctx)
        except OverflowError:
            sub = encode_array(rv_arr, "plain", ctx)
        return (
            pack_sections([b"" if validity is None else b"1", lengths_packed, sub]),
            {"n": n, "r": len(starts), "lw": lw},
        )

    def decode(self, payload: bytes, meta: dict, typ: pa.DataType) -> pa.Array:
        n, r, lw = meta["n"], meta["r"], meta["lw"]
        if n == 0:
            return pa.array([], type=typ)
        has_validity, lengths_packed, sub = unpack_sections(payload)
        run_lengths = unpack_uints(lengths_packed, r, lw).view(np.int64)
        run_lengths += 1
        rv_arr = decode_array(sub, pa.int64())
        run_vals = rv_arr.fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64)
        vals = np.repeat(run_vals, run_lengths)
        validity = None
        if has_validity:
            run_valid = rv_arr.is_valid().to_numpy(zero_copy_only=False)
            validity = np.repeat(run_valid, run_lengths)
        return fixed_from_numpy(vals, validity, typ)


register(ConstantCodec())
register(ForCodec())
register(DeltaCodec())
register(RleCodec())
