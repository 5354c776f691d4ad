"""Reference checks on the program's outputs.

Only pyarrow, numpy and hashlib are used here, never the program, so a
fault in the program cannot hide itself by also breaking its own check.

A table's digest covers its row count, every column's type, validity
(null mask) and values. Values under a null slot are ignored, and every
NaN hashes alike, so two tables with the same logical contents have the
same digest however their buffers are laid out.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _column_bytes(arr: pa.Array) -> list:
    typ = arr.type
    valid = pc.is_valid(arr).to_numpy(zero_copy_only=False)
    out = [str(typ).encode(), np.packbits(valid).tobytes()]
    if (pa.types.is_string(typ) or pa.types.is_large_string(typ)
            or pa.types.is_binary(typ) or pa.types.is_large_binary(typ)):
        flat = pc.fill_null(arr.cast(pa.large_binary()), b"")
        offsets = np.frombuffer(flat.buffers()[1], dtype=np.int64,
                                count=len(flat) + 1, offset=flat.offset * 8)
        out.append(np.diff(offsets).tobytes())
        data = flat.buffers()[2]
        if data is not None and len(flat):
            out.append(data.slice(int(offsets[0]),
                                  int(offsets[-1] - offsets[0])))
    elif pa.types.is_floating(typ):
        vals = pc.fill_null(arr, 0.0).to_numpy(zero_copy_only=False)
        out.append(np.where(np.isnan(vals), np.nan, vals).tobytes())
    elif pa.types.is_temporal(typ):
        out.append(pc.fill_null(arr.cast(pa.int64()), 0).to_numpy().tobytes())
    elif pa.types.is_integer(typ) or pa.types.is_boolean(typ):
        out.append(pc.fill_null(arr, False if pa.types.is_boolean(typ) else 0)
                   .to_numpy(zero_copy_only=False).tobytes())
    else:
        out.append(repr(arr.to_pylist()).encode())
    return out


def table_digest(t: pa.Table, sort: bool = False) -> str:
    """Digest of a table's logical contents. ``sort=True`` makes it
    independent of row order, for results assembled from parts that
    arrive in any order."""
    if sort and t.num_rows > 1:
        t = t.sort_by([(name, "ascending") for name in t.column_names])
    h = hashlib.sha256(f"rows={t.num_rows};".encode())
    for name in t.column_names:
        h.update(name.encode() + b"\0")
        for piece in _column_bytes(t.column(name).combine_chunks()):
            h.update(piece)
    return h.hexdigest()[:32]


def same_schema(a: pa.Schema, b: pa.Schema) -> bool:
    return a.remove_metadata() == b.remove_metadata()


def check_rows(tables: list, expected: dict,
               schema: pa.Schema) -> Optional[str]:
    """Row count and schema of a probe's result: no copy of the rows, so
    it can run inside the measured rounds. Returns an error message, or
    None when they are right."""
    rows = sum(t.num_rows for t in tables)
    if rows != expected["rows"]:
        return f"returned {rows} rows, source holds {expected['rows']}"
    for t in tables:
        if t.num_rows and not same_schema(t.schema, schema):
            return f"schema {t.schema} differs from source {schema}"
    return None


def check_result(tables: list, expected: dict,
                 schema: pa.Schema) -> Optional[str]:
    """Compare a probe's result (the batches it returned, in any order)
    with the rows pyarrow found in the source: ``check_rows``, then an
    order-independent digest of the rows. Returns an error message, or
    None when the result is right."""
    err = check_rows(tables, expected, schema)
    tables = [t for t in tables if t.num_rows]
    if err or not tables:
        return err
    got = table_digest(pa.concat_tables(tables), sort=True)
    if got != expected["digest"]:
        return "rows differ from the source rows"
    return None


def check_parts(blocks: Iterable[pa.Table], part_digests: list[str],
                schema: pa.Schema) -> Optional[str]:
    """Round trip of a full scan: the decoded blocks, one per part, must
    be exactly the source shards (row order within each part kept).
    Blocks arrive in any order, so the digests compare as multisets."""
    got = []
    for t in blocks:
        if not same_schema(t.schema, schema):
            return f"schema {t.schema} differs from source {schema}"
        got.append(table_digest(t))
    if sorted(got) != sorted(part_digests):
        missing = len(set(part_digests) - set(got))
        return (f"{len(got)} decoded parts against {len(part_digests)} "
                f"source shards; {missing} shard(s) not reproduced exactly")
    return None


class OpLog:
    """Counts operations attempted and failed. An operation that raises
    is a failure; the run goes on with the next one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # any fault of the program is one failed op
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {e!r}"[:300])
            return None
