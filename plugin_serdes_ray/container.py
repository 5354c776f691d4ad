"""Chunked columnar container format (the engine's output file).

Layout of a partition file (``part-NNNNN.grck``)::

    magic "GRCK1\\n"
    u32 header_len | header JSON | concatenated chunk payloads

Header: Arrow schema (IPC, base64), row count, and per-column chunk
descriptors ``{rows, off, len, crc, outer}``. Chunk payloads are the
self-describing codec blobs from :mod:`plugin_serdes_ray.codecs`
(codec name + codec meta travel inside the blob), optionally wrapped in a
general-purpose outer compressor (zstd via pyarrow) when that wins.

Replaces the reference's Parquet writer as the typed sink
(/root/reference parquet/IonToParquet.java:103-240) — GZIP'd Parquet at
those defaults is the size baseline this format must meet or beat.
"""

from __future__ import annotations

import base64
import json
import struct
import zlib
from typing import Optional

import numpy as np
import pyarrow as pa

from .codecs import EncodeContext, decode_array, encode_array
from .codecs.base import unpack_chunk

MAGIC = b"GRCK1\n"

# default chunking: bounded by raw bytes AND rows so one huge html cell
# cannot blow a worker's heap (SURVEY.md §7.3 "very wide cells")
TARGET_CHUNK_BYTES = 4 << 20
MAX_CHUNK_ROWS = 1 << 16


class ChunkCorruption(Exception):
    """CRC mismatch or malformed chunk payload."""


# Outer wrap is framed: blobs larger than OUTER_FRAME compress as
# independent zstd frames. Framing costs ratio vs whole-buffer (the match
# window resets per frame) but bounds the working set so per-core
# throughput stays flat under many concurrent workers, where whole-buffer
# zstd degrades ~1.5-4x under memory contention. Measured on the templated
# -html corpus at level 3: 1 MiB frames cost ~5.8% vs whole-buffer, 4 MiB
# frames only ~1%, at identical speed — so 4 MiB is the default. The frame
# size used at write time travels in the outer dict ("fs"); readers never
# assume the constant (old 1 MiB files keep decoding).
OUTER_FRAME = 4 << 20


def _outer_compress(blob: bytes, level: int) -> tuple[bytes, Optional[dict]]:
    if level <= 0 or len(blob) < 64:
        return blob, None
    codec = pa.Codec("zstd", compression_level=level)
    if len(blob) <= OUTER_FRAME:
        z = bytes(codec.compress(blob))
        if len(z) < len(blob):
            return z, {"a": "zstd", "raw": len(blob)}
        return blob, None
    mv = memoryview(blob)   # zero-copy frame slices (bytes slicing copies)
    frames = [bytes(codec.compress(mv[i:i + OUTER_FRAME]))
              for i in range(0, len(blob), OUTER_FRAME)]
    z = b"".join(frames)
    if len(z) < len(blob):
        return z, {"a": "zstd", "raw": len(blob),
                   "fl": [len(f) for f in frames], "fs": OUTER_FRAME}
    return blob, None


def _outer_decompress(blob: bytes, outer: Optional[dict]) -> bytes:
    if not outer:
        return blob
    codec = pa.Codec(outer["a"])
    raw = outer["raw"]
    if "fl" not in outer:
        return bytes(codec.decompress(blob, raw))
    frame_size = outer.get("fs", 1 << 20)   # legacy files framed at 1 MiB
    out = []
    pos = 0
    remaining = raw
    for fl in outer["fl"]:
        out.append(bytes(codec.decompress(blob[pos:pos + fl],
                                          min(frame_size, remaining))))
        pos += fl
        remaining -= frame_size
    return b"".join(out)


def chunk_boundaries(arr: pa.ChunkedArray | pa.Array,
                     target_bytes: int = TARGET_CHUNK_BYTES,
                     max_rows: int = MAX_CHUNK_ROWS) -> list[tuple[int, int]]:
    """Split a column into (offset, length) spans bounded by bytes and rows."""
    n = len(arr)
    if n == 0:
        return []
    total_bytes = arr.nbytes or 1
    bytes_per_row = max(total_bytes / n, 1e-9)
    rows_by_bytes = max(int(target_bytes / bytes_per_row), 1)
    step = max(min(rows_by_bytes, max_rows), 1)
    return [(off, min(step, n - off)) for off in range(0, n, step)]


def encode_column(arr: pa.ChunkedArray | pa.Array, codec: str,
                  ctx: EncodeContext, fallback: str = "plain") -> list[dict]:
    """Encode one column into a list of chunk dicts {rows, blob, outer, crc}.

    Per-chunk guard: if the planned codec's blob is larger than the plain
    encoding of the same chunk, fall back (SURVEY.md §7.3 "≤ baseline size
    guarantee"); constant chunks are detected opportunistically.
    """
    if isinstance(arr, pa.Array):
        arr = pa.chunked_array([arr])
    chunks = []
    for off, ln in chunk_boundaries(arr):
        piece = arr.slice(off, ln).combine_chunks()
        blob = _encode_one(piece, codec, ctx, fallback)
        payload, outer = _outer_compress(blob, ctx.outer_level)
        chunks.append({
            "rows": ln,
            "blob": payload,
            "outer": outer,
            "crc": zlib.crc32(payload) & 0xFFFFFFFF,
        })
    return chunks


def _encode_one(piece: pa.Array, codec: str, ctx: EncodeContext, fallback: str) -> bytes:
    n = len(piece)
    if n and piece.null_count == n:
        return encode_array(piece, "constant", ctx)
    if n and piece.null_count == 0:
        # opportunistic constant chunks (e.g. `lang` after groupby-lang):
        # cheap first==last pre-check gates the full distinct count
        try:
            if piece[0].equals(piece[n - 1]):
                import pyarrow.compute as pc
                if pc.count_distinct(piece).as_py() == 1:
                    return encode_array(piece, "constant", ctx)
        except (pa.ArrowNotImplementedError, pa.ArrowInvalid):
            pass
    try:
        blob = encode_array(piece, codec, ctx)
    except Exception:
        blob = None
    if fallback and fallback != codec:
        try:
            fb = encode_array(piece, fallback, ctx)
        except Exception:
            fb = encode_array(piece, "raw_ipc", ctx)
        if blob is None or len(fb) < len(blob):
            blob = fb
    if blob is None:
        blob = encode_array(piece, "raw_ipc", ctx)
    return blob


def _zone_stats(col: "pa.ChunkedArray | pa.Array"):
    """Partition-level [min, max] zone map for orderable scalar columns
    (ints, temporals, floats, short strings) -> JSON-safe pair or None."""
    import pyarrow.compute as pc

    typ = col.type
    ok = (pa.types.is_integer(typ) or pa.types.is_floating(typ)
          or pa.types.is_timestamp(typ) or pa.types.is_date(typ)
          or pa.types.is_time(typ) or pa.types.is_string(typ))
    if not ok or len(col) == 0 or col.null_count == len(col):
        return None
    if pa.types.is_timestamp(typ) or pa.types.is_date(typ) or pa.types.is_time(typ):
        # store temporals as int64 storage units (JSON-safe, order-preserving)
        # plus a tag that reconstructs the storage type, so predicate values
        # can be converted into the SAME unit/tz at prune time. This branch
        # must run BEFORE a generic as_py() — legal Arrow timestamps outside
        # Python datetime's year range raise OverflowError when boxed
        c = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        try:
            mmi = pc.min_max(c.cast(pa.int64()))
        except (pa.ArrowNotImplementedError, pa.ArrowInvalid):
            return None
        return [mmi["min"].as_py(), mmi["max"].as_py(), temporal_type_tag(typ)]
    try:
        mm = pc.min_max(col)
        lo, hi = mm["min"].as_py(), mm["max"].as_py()
    except (pa.ArrowNotImplementedError, pa.ArrowInvalid, OverflowError):
        return None
    if pa.types.is_string(typ):
        if not isinstance(lo, str) or len(lo) > 64 or len(hi) > 64:
            return None
        return [lo, hi]
    return [lo, hi]


#: bloom sizing: >= ~10 bits/distinct value keeps the false-positive rate
#: near 1% at k=4; partitions whose distinct count needs more than the cap
#: get NO bloom (never a saturated, useless one)
BLOOM_MAX_BITS = 1 << 17          # 16 KiB of bits -> ~22 KB base64
BLOOM_K = 4
#: index-family version stored as the Bloom dict's "h" field; a Bloom
#: without it (or with another) is not read and keeps the partition
BLOOM_VERSION = 1


def bloom_indices(h: np.ndarray, bits: int, k: int) -> np.ndarray:
    """The one Bloom index family: a (k, len(h)) array of bit positions
    per 64-bit content hash by double hashing, ``idx_i = (h + i*h2) &
    (bits-1)`` with ``h2`` the hash's high 32 bits forced odd —
    independent of the low bits the mask keeps, so keys that share low
    bits do not share positions."""
    h2 = (h >> np.uint64(32)) | np.uint64(1)
    with np.errstate(over="ignore"):
        return (h + np.arange(k, dtype=np.uint64)[:, None] * h2) \
            & np.uint64(bits - 1)


def bloom_set(words: np.ndarray, h: np.ndarray, k: int) -> None:
    """Set the bits of hashes ``h`` in a little-endian uint64 word array."""
    idx = bloom_indices(h, len(words) * 64, k).ravel()
    np.bitwise_or.at(words, idx >> np.uint64(6),
                     np.uint64(1) << (idx & np.uint64(63)))


def bloom_test(words: np.ndarray, h: np.ndarray, k: int) -> np.ndarray:
    """Bool per hash: True unless some bit of it is clear in ``words``."""
    idx = bloom_indices(h, len(words) * 64, k)
    return ((words[idx >> np.uint64(6)] >> (idx & np.uint64(63)))
            & np.uint64(1)).all(axis=0)


def _probe_key(value) -> Optional[bytes]:
    """The bytes a probe value hashes as — the same bytes
    ``_content_hash64`` hashes for an equal string, binary or (as decimal
    text) integer column value; None = type not bloom-eligible, so a float
    such as 5.0 is never pruned against an int column."""
    if isinstance(value, str):
        return value.encode()
    if isinstance(value, (bytes, bytearray)):
        return bytes(value)
    if isinstance(value, bool) or not isinstance(value, int):
        return None
    return str(value).encode()


def bloom_hashes(values) -> dict:
    """{probe key: 64-bit hash} for the eligible ``values``, all hashed in
    one call — a query hashes its probe values once, not once per part."""
    from .pipelines.dedup import _content_hash64

    keys = list(dict.fromkeys(
        k for k in map(_probe_key, values) if k is not None))
    return dict(zip(keys, _content_hash64(pa.array(keys, pa.binary()))))


def _bloom_stats(col: "pa.ChunkedArray | pa.Array") -> Optional[dict]:
    """Per-partition Bloom filter over the column's DISTINCT values for
    equality pruning (zone maps only help when the value range separates
    partitions; a bloom prunes point lookups on interleaved high-
    cardinality keys like urls). Strings/binaries/ints only; sized to the
    distinct count; skipped when the count would saturate the cap."""
    import pyarrow.compute as pc

    from .pipelines.dedup import _content_hash64

    typ = col.type
    ok = (pa.types.is_string(typ) or pa.types.is_large_string(typ)
          or pa.types.is_binary(typ) or pa.types.is_large_binary(typ)
          or (pa.types.is_integer(typ)))
    if not ok or len(col) == 0:
        return None
    # wide payload columns (page text/html, media bytes) are point-lookup
    # keys for nobody and their pc.unique pass is the expensive part of
    # this function — skip by mean value width before touching the data
    if col.nbytes > 256 * len(col):
        return None
    try:
        distinct = pc.unique(
            col.combine_chunks() if isinstance(col, pa.ChunkedArray)
            else col).drop_null()
    except (pa.ArrowNotImplementedError, pa.ArrowInvalid):
        return None
    n = len(distinct)
    if n == 0:
        return None
    bits = 1 << max(10, (10 * n - 1).bit_length())
    if bits > BLOOM_MAX_BITS:
        return None
    words = np.zeros(bits // 64, dtype="<u8")
    bloom_set(words, _content_hash64(distinct), BLOOM_K)
    return {"b": base64.b64encode(words.tobytes()).decode(),
            "bits": bits, "k": BLOOM_K, "h": BLOOM_VERSION}


def bloom_may_contain(bloom: Optional[dict], values: list,
                      hashed: dict) -> bool:
    """Conservative membership of ANY of ``values``: False ONLY when the
    filter proves every one absent from the partition. Unknown or
    untagged shapes and ineligible values keep the partition. ``hashed``
    is :func:`bloom_hashes` of (at least) ``values``, computed once per
    query."""
    keys = [_probe_key(v) for v in values]
    if None in keys or not bloom or bloom.get("h") != BLOOM_VERSION:
        return True
    try:
        words = np.frombuffer(base64.b64decode(bloom["b"]), dtype="<u8")
        k = int(bloom["k"])
        if len(words) * 64 != int(bloom["bits"]):
            return True
    except (KeyError, TypeError, ValueError):
        return True
    h = np.array([hashed[key] for key in keys], dtype=np.uint64)
    return bool(bloom_test(words, h, k).any())


def temporal_type_tag(typ: pa.DataType) -> str:
    """JSON-safe tag encoding a temporal storage type, e.g. ``ts:us:UTC``,
    ``ts:ms:`` (naive), ``date32``, ``time64:ns``."""
    if pa.types.is_timestamp(typ):
        return f"ts:{typ.unit}:{typ.tz or ''}"
    if pa.types.is_date32(typ):
        return "date32"
    if pa.types.is_date64(typ):
        return "date64"
    if pa.types.is_time(typ):
        return f"time{typ.bit_width}:{typ.unit}"
    raise ValueError(f"not a temporal type: {typ}")


def temporal_type_from_tag(tag: str) -> pa.DataType:
    if tag.startswith("ts:"):
        _, unit, tz = tag.split(":", 2)
        return pa.timestamp(unit, tz=tz or None)
    if tag == "date32":
        return pa.date32()
    if tag == "date64":
        return pa.date64()
    if tag.startswith("time32:"):
        return pa.time32(tag.split(":", 1)[1])
    if tag.startswith("time64:"):
        return pa.time64(tag.split(":", 1)[1])
    raise ValueError(f"unknown temporal tag: {tag}")


def write_partition(table: pa.Table, path: str, plan: dict[str, str],
                    ctx: Optional[EncodeContext] = None,
                    extra_meta: Optional[dict] = None) -> dict:
    """Encode a table with per-column planned codecs -> one container file.

    Returns metrics: raw/encoded bytes, per-column codec usage.
    """
    ctx = ctx or EncodeContext()
    table = table.combine_chunks()
    col_entries = []
    payloads: list[bytes] = []
    offset = 0
    raw_bytes = table.nbytes
    codec_used: dict[str, str] = {}
    col_bytes: dict[str, list[int]] = {}
    col_stats: dict[str, list] = {}
    col_blooms: dict[str, dict] = {}
    for name in table.column_names:
        col = table.column(name)
        ctx.column = name
        codec = plan.get(name, "plain")
        codec_used[name] = codec
        entries = []
        for ch in encode_column(col, codec, ctx):
            entries.append({
                "rows": ch["rows"], "off": offset, "len": len(ch["blob"]),
                "crc": ch["crc"], "outer": ch["outer"],
            })
            payloads.append(ch["blob"])
            offset += len(ch["blob"])
        col_entries.append({"name": name, "chunks": entries})
        col_bytes[name] = [col.nbytes, sum(e["len"] for e in entries)]
        stats = _zone_stats(col)
        if stats is not None:
            col_stats[name] = stats
        bloom = _bloom_stats(col)
        if bloom is not None:
            col_blooms[name] = bloom
    header = {
        "schema": base64.b64encode(table.schema.serialize().to_pybytes()).decode(),
        "rows": table.num_rows,
        "columns": col_entries,
        "stats": col_stats,
        "blooms": col_blooms,
        "meta": extra_meta or {},
    }
    hdr = json.dumps(header, separators=(",", ":")).encode()
    import os
    tmp = path + ".tmp"
    # single write() call: under sandboxed kernels syscalls serialize across
    # workers, so one large write beats hundreds of per-chunk writes
    blob = b"".join([MAGIC, struct.pack("<I", len(hdr)), hdr, *payloads])
    with open(tmp, "wb") as f:
        f.write(blob)
    os.replace(tmp, path)  # atomic publish for resumability
    enc_bytes = len(MAGIC) + 4 + len(hdr) + offset
    return {
        "rows": table.num_rows, "raw_bytes": raw_bytes,
        "enc_bytes": enc_bytes, "codecs": codec_used,
        # per-column [raw, encoded] bytes — the codec-choice metrics carried
        # into the partition lineage manifest (north-rule observability)
        "column_bytes": col_bytes,
        # partition zone maps (min/max) for predicate pruning on decode
        "stats": col_stats,
        # per-column distinct-value Bloom filters for equality pruning
        "blooms": col_blooms,
    }


def read_header(path: str) -> dict:
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise ChunkCorruption(f"{path}: bad magic {magic!r}")
        (hlen,) = struct.unpack("<I", f.read(4))
        header = json.loads(f.read(hlen))
        header["_data_start"] = len(MAGIC) + 4 + hlen
    return header


def header_schema(header: dict) -> pa.Schema:
    """The stored Arrow schema of a part, from its :func:`read_header`."""
    return pa.ipc.read_schema(pa.BufferReader(
        base64.b64decode(header["schema"])))


def output_schema(schema: pa.Schema, names: list,
                  dictionary_columns=()) -> pa.Schema:
    """Schema :func:`read_partition` gives for ``names`` of a part stored
    as ``schema``, dictionary-typed where asked."""
    return pa.schema([
        pa.field(n, pa.dictionary(pa.int32(), schema.field(n).type))
        if n in dictionary_columns else schema.field(n) for n in names])


def read_partition(path: str, columns: Optional[list[str]] = None,
                   dictionary_columns: Optional[list[str]] = None) -> pa.Table:
    """Decode a container file back to a Table (column-prunable).

    Columns named in ``dictionary_columns`` decode to
    ``dictionary<int32, value_type>`` WITHOUT materializing the flat
    column (late materialization): dict-family chunks hand their stored
    uniques + indices over as-is; other chunks decode flat and re-encode.
    Per-chunk dictionaries stay independent (Arrow ChunkedArray allows
    it) — no cross-chunk unification pass."""
    from .codecs import decode_array_dictionary

    header = read_header(path)
    schema = header_schema(header)
    start = header["_data_start"]
    wanted = columns if columns is not None else [c["name"] for c in header["columns"]]
    as_dict = set(dictionary_columns or ())
    out_cols: dict[str, pa.ChunkedArray] = {}
    with open(path, "rb") as f:
        for col in header["columns"]:
            if col["name"] not in wanted:
                continue
            typ = schema.field(col["name"]).type
            dict_out = col["name"] in as_dict
            out_typ = pa.dictionary(pa.int32(), typ) if dict_out else typ
            dec = decode_array_dictionary if dict_out else decode_array
            pieces = []
            for ch in col["chunks"]:
                f.seek(start + ch["off"])
                payload = f.read(ch["len"])
                if (zlib.crc32(payload) & 0xFFFFFFFF) != ch["crc"]:
                    raise ChunkCorruption(
                        f"{path}:{col['name']} chunk crc mismatch")
                blob = _outer_decompress(payload, ch["outer"])
                pieces.append(dec(blob, typ))
            if pieces:
                out_cols[col["name"]] = pa.chunked_array(pieces, type=out_typ)
            else:
                out_cols[col["name"]] = pa.chunked_array(
                    [pa.array([], type=out_typ)])
    out = pa.table({n: out_cols[n] for n in wanted},
                   schema=output_schema(schema, wanted, as_dict))
    if as_dict:
        # per-chunk dictionaries -> one dictionary per column: Arrow's
        # group_by/concat kernels refuse differing chunk dictionaries;
        # unification cost is O(part cardinality), not O(rows)
        out = out.unify_dictionaries()
    return out


def partition_codec_report(path: str) -> dict[str, list[str]]:
    """Which codec each chunk of each column actually used (post-guard)."""
    header = read_header(path)
    start = header["_data_start"]
    report: dict[str, list[str]] = {}
    with open(path, "rb") as f:
        for col in header["columns"]:
            names = []
            for ch in col["chunks"]:
                f.seek(start + ch["off"])
                payload = f.read(ch["len"])
                blob = _outer_decompress(payload, ch["outer"])
                names.append(unpack_chunk(blob)[0])
            report[col["name"]] = names
    return report
