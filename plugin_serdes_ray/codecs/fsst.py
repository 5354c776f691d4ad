"""FSST-style string compression (Boncz, Neumann, Muehleisen: "FSST: Fast
Random Access String Compression", VLDB 2020) — pure numpy/bytes, no C ext.

A symbol table of up to 253 byte-sequences (len 1..8) maps to 1-byte codes;
byte 0xFF is the escape prefix for literals and code 0xFE is reserved for a
literal 0xFF byte (which keeps every pattern match provably pair-aligned). Training is the paper's
bottom-up iterative scheme: encode a sample with the current table, count
adjacent token pairs, promote the highest-gain merges. Encoding is done with
C-speed ``bytes.replace`` passes over an escape-expanded buffer (symbols
containing 0xFF are excluded so pair alignment cannot be violated); decoding
is fully vectorized numpy scatter.

The whole column-chunk data buffer is compressed as one stream and the
original string offsets are stored bit-packed, so symbols may span string
boundaries (better ratio) while decode remains exact.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from .base import (
    Codec, EncodeContext, pack_sections, register, unpack_sections,
    validity_from_bytes, validity_to_bytes, varbin_build, varbin_parts,
)
from .bitpack import bit_width, pack_uints, unpack_uints
from . import fsst_native as _native

ESCAPE = 255
FF_CODE = 254          # reserved code: a literal 0xFF byte
MAX_SYMBOLS = 253      # codes 0..252; 254 reserved, 255 escape
MAX_SYMBOL_LEN = 8


# ---------------------------------------------------------------------------
# core stream transforms
# ---------------------------------------------------------------------------


def _escape_all(data: bytes) -> bytes:
    """Interleave every byte with the escape prefix: b -> (0xFF, b)."""
    a = np.frombuffer(data, dtype=np.uint8)
    out = np.empty(2 * len(a), dtype=np.uint8)
    out[0::2] = ESCAPE
    out[1::2] = a
    return out.tobytes()


def compress(data: bytes, symbols: list[bytes]) -> bytes:
    """Encode data into the FSST code/escape stream.

    Fast path: a single greedy longest-match pass in C (fsst_native,
    compiled once per machine — the paper's actual algorithm, ~100x the
    replace-chain throughput). Fallback: bytes.replace passes applied
    longest-first over an escape-expanded buffer. Both emit the same
    code/escape stream format; decode does not care which parse produced
    it."""
    out = _native.native_compress(data, symbols)
    if out is not None:
        return out
    return _compress_replace(data, symbols)


def _compress_replace(data: bytes, symbols: list[bytes]) -> bytes:
    s = _escape_all(data)
    # substitute literal-0xFF escape pairs with the reserved FF_CODE first:
    # with no 0xFF literals left, every 0xFF in the stream is an escape
    # prefix and every symbol pattern (0xFF, b1, 0xFF, b2, ...) can only
    # match pair-aligned — mid-pair false matches (a code byte following a
    # literal-FF pair) are impossible by construction
    s = s.replace(b"\xff\xff", bytes([FF_CODE]))
    # longest-first: long matches must not be shadowed by their own prefixes
    # (quality only — decode is correct under any order); measured on the
    # synthetic corpus, gain-first ordering loses ~12pp of compression win
    order = sorted(range(len(symbols)), key=lambda c: -len(symbols[c]))
    for code in order:
        s = s.replace(_escape_all(symbols[code]), bytes([code]))
    return s


def _classify(b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (escape, literal, code) boolean masks over the encoded stream.

    Literal 0xFF bytes never appear escaped (compress() folds them into the
    reserved FF_CODE), so every 0xFF byte IS an escape prefix and the byte
    after it is its literal."""
    n = len(b)
    if n == 0:
        e = np.empty(0, dtype=bool)
        return e, e.copy(), e.copy()
    esc = b == ESCAPE
    lit = np.zeros(n, dtype=bool)
    lit[1:] = esc[:-1]
    code = ~esc & ~lit
    return esc, lit, code


def decompress(enc: bytes, symbols: list[bytes]) -> bytes:
    if len(enc) == 0:
        return b""
    lib_out = _native.native_decompress(enc, symbols)
    if lib_out is not None:
        return lib_out
    b = np.frombuffer(enc, dtype=np.uint8)
    n = len(b)
    esc, lit, code = _classify(b)
    sym_len = np.zeros(256, dtype=np.int64)
    sym_mat = np.zeros((256, MAX_SYMBOL_LEN), dtype=np.uint8)
    for c, s in enumerate(symbols):
        sym_len[c] = len(s)
        sym_mat[c, : len(s)] = np.frombuffer(s, dtype=np.uint8)
    sym_len[FF_CODE] = 1
    sym_mat[FF_CODE, 0] = 0xFF
    tok_len = np.zeros(n, dtype=np.int64)
    tok_len[lit] = 1
    tok_len[code] = sym_len[b[code]]
    ends = np.cumsum(tok_len)
    starts = ends - tok_len
    out = np.empty(int(ends[-1]) if n else 0, dtype=np.uint8)
    out[starts[lit]] = b[lit]
    cpos = np.flatnonzero(code)
    cb = b[cpos]
    cs = starts[cpos]
    for k in range(MAX_SYMBOL_LEN):
        m = sym_len[cb] > k
        if not m.any():
            break
        out[cs[m] + k] = sym_mat[cb[m], k]
    return out.tobytes()


# ---------------------------------------------------------------------------
# training (sample-based, bottom-up pair merging)
# ---------------------------------------------------------------------------


def train_table(sample: bytes, max_symbols: int = MAX_SYMBOLS, rounds: int = 3) -> list[bytes]:
    if not sample:
        return []
    symbols: list[bytes] = []
    for _ in range(rounds):
        enc = np.frombuffer(compress(sample, symbols), dtype=np.uint8)
        esc, lit, code = _classify(enc)
        tok_start = esc | code
        pos = np.flatnonzero(tok_start)
        if len(pos) == 0:
            break
        nxt = np.minimum(pos + 1, len(enc) - 1)
        tok = np.where(esc[pos], 256 + enc[nxt].astype(np.int64), enc[pos].astype(np.int64))

        def underlying(t: int) -> bytes:
            if t == FF_CODE:
                return b"\xff"
            return symbols[t] if t < 256 else bytes([t - 256])

        def cost(t: int) -> int:
            return 1 if t < 256 else 2

        gains: dict[bytes, int] = {}
        # existing symbols, re-scored at current usage
        occ = np.bincount(tok[tok < 256], minlength=256) if (tok < 256).any() else np.zeros(256, dtype=np.int64)
        for c, s in enumerate(symbols):
            g = int(occ[c]) * (2 * len(s) - 1)
            if g > 0:
                gains[s] = max(gains.get(s, 0), g)
        # single escaped bytes -> 1-byte symbols (skip 0xFF)
        esc_tok = tok[tok >= 256] - 256
        if len(esc_tok):
            singles = np.bincount(esc_tok, minlength=256)
            for v in np.flatnonzero(singles):
                if v == ESCAPE:
                    continue
                s = bytes([int(v)])
                gains[s] = max(gains.get(s, 0), int(singles[v]))
        # adjacent token merges
        if len(tok) > 1:
            keys = tok[:-1] * 512 + tok[1:]
            uniq, counts = np.unique(keys, return_counts=True)
            top = np.argsort(counts)[::-1][:2048]
            for k, ccount in zip(uniq[top], counts[top]):
                a, bb = int(k) // 512, int(k) % 512
                merged = underlying(a) + underlying(bb)
                if len(merged) > MAX_SYMBOL_LEN or ESCAPE in merged:
                    continue
                g = int(ccount) * (cost(a) + cost(bb) - 1)
                if g > 0:
                    gains[merged] = max(gains.get(merged, 0), g)
        if not gains:
            break
        picked = sorted(gains.items(), key=lambda kv: -kv[1])[:max_symbols]
        # list order = replacement priority (gain-sorted; see compress())
        symbols = [s for s, _ in picked]
    # prune the low-gain tail: each kept symbol costs a full replace pass at
    # encode time, so drop symbols contributing <0.1% of total gain
    if symbols:
        picked = sorted(gains.items(), key=lambda kv: -kv[1])[:max_symbols]
        total = sum(g for _, g in picked) or 1
        threshold = total * 0.001
        symbols = [s for s, g in picked if g >= threshold]
    return symbols


def serialize_table(symbols: list[bytes]) -> bytes:
    out = [struct.pack("<H", len(symbols))]
    for s in symbols:
        out.append(struct.pack("<B", len(s)))
        out.append(s)
    return b"".join(out)


def deserialize_table(data: bytes) -> list[bytes]:
    (k,) = struct.unpack_from("<H", data, 0)
    pos = 2
    out = []
    for _ in range(k):
        ln = data[pos]
        pos += 1
        out.append(data[pos : pos + ln])
        pos += ln
    return out


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------


class FsstCodec(Codec):
    name = "fsst"

    def encode(self, arr: pa.Array, ctx: EncodeContext) -> tuple[bytes, dict]:
        offsets, data, validity = varbin_parts(arr)
        n = len(arr)
        lengths = np.diff(offsets).astype(np.uint64)
        lw = bit_width(int(lengths.max())) if n else 0
        lengths_packed = pack_uints(lengths, lw)

        table_bytes = ctx.fsst_tables.get(ctx.column, b"")
        if table_bytes:
            symbols = deserialize_table(table_bytes)
        else:
            sample = data[: ctx.fsst_sample_bytes]
            symbols = train_table(sample)
            table_bytes = serialize_table(symbols)
        enc = compress(data, symbols)
        # section LISTS (not pack_sections) so pack_chunk joins once —
        # the raw/encoded stream bytes are the bulk of the payload
        if len(enc) + len(table_bytes) >= len(data):
            payload = [validity_to_bytes(validity), lengths_packed, b"", data]
            return payload, {"n": n, "lw": lw, "raw": True}
        payload = [validity_to_bytes(validity), lengths_packed, table_bytes, enc]
        return payload, {"n": n, "lw": lw, "raw": False}

    def decode(self, payload: bytes, meta: dict, typ: pa.DataType) -> pa.Array:
        n, lw = meta["n"], meta["lw"]
        vsec, lengths_packed, table_bytes, enc = unpack_sections(payload)
        validity = validity_from_bytes(vsec, n)
        lengths = unpack_uints(lengths_packed, n, lw)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths.view(np.int64), out=offsets[1:])
        if meta.get("raw"):
            data = enc
        else:
            data = decompress(enc, deserialize_table(table_bytes))
        return varbin_build(offsets, data, validity, typ)


register(FsstCodec())
