"""Dataset -> Parquet (IonToParquet analog,
/root/reference parquet/IonToParquet.java:103-240) with the reference's
defaults: GZIP compression (:115), format v2 (:122,184), 128 MiB row
groups (:129), 1 MiB pages (:136,143), dictionary encoding on (:187).

The engine's own container format (plugin_serdes_ray.container) supersedes
this sink for the re-encode pipeline; this wrapper exists for drop-in
parity with the reference task.
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa
import pyarrow.parquet as pq

from ..util import map_batches, map_groups

REFERENCE_DEFAULTS = dict(
    compression="gzip",
    use_dictionary=True,
    data_page_size=1 << 20,
    data_page_version="2.0",
)


def write_parquet(ds, path_or_dir: str, *, compression: str = "gzip",
                  row_group_size: int = 128 << 20,
                  single_file: bool = True) -> int:
    """compression: UNCOMPRESSED | SNAPPY | GZIP | ZSTD (IonToParquet enum,
    :225-234), default GZIP like the reference."""
    comp = compression.lower()
    if comp == "uncompressed":
        comp = "none"
    if single_file:
        tables = [pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) else b
                  for b in ds.iter_batches(batch_format="pyarrow")]
        table = pa.concat_tables(tables) if tables else pa.table({})
        avg_row = max(table.nbytes // max(table.num_rows, 1), 1)
        pq.write_table(table, path_or_dir, compression=comp,
                       use_dictionary=True, data_page_size=1 << 20,
                       data_page_version="2.0",
                       row_group_size=max(row_group_size // avg_row, 1))
        return table.num_rows
    ds.write_parquet(path_or_dir, compression=comp)
    return ds.count()


def table_to_parquet_bytes(table: pa.Table, compression: str = "gzip") -> bytes:
    sink = pa.BufferOutputStream()
    pq.write_table(table, sink, compression=compression.lower(),
                   use_dictionary=True, data_page_size=1 << 20,
                   data_page_version="2.0")
    return sink.getvalue().to_pybytes()


def write_partitioned(ds, out_dir: str, key: str, *, resume: bool = True,
                      compression: str = "zstd") -> dict:
    """Resumable KEY-PARTITIONED parquet output: one hive-style
    ``<out_dir>/<key>=<value>/part-0.parquet`` per distinct key value,
    published atomically (tmp + rename — a part file existing means its
    partition is COMPLETE). On rerun with ``resume=True`` the done-set is
    read from the directory BEFORE any data moves and broadcast into a
    map-only filter, so completed partitions are skipped without
    re-shuffling their rows — a failed run pays only the remainder.

    One keyed shuffle (groupby(key).map_groups) writes each partition from
    the worker that owns it; a hot key makes one large file (pre-split
    upstream with relational.salted_key if that matters). Key values are
    stringified then percent-encoded for the directory name; int/string
    keys round-trip exactly, NULL keys land in ``<key>=__NULL__`` (a
    LITERAL string key ``"__NULL__"`` is escaped to ``%5F_NULL__`` so the
    two never share a partition).
    Returns ``{"written": n, "skipped": n, "rows": n}``."""
    import os
    from urllib.parse import quote, unquote

    import numpy as np
    import pyarrow.compute as pc

    NULL_TOKEN = "__NULL__"
    os.makedirs(out_dir, exist_ok=True)

    def part_dir(vstr: str | None) -> str:
        if vstr is None:
            token = NULL_TOKEN
        else:
            token = quote(vstr, safe="")
            if token == NULL_TOKEN:   # literal "__NULL__" key value:
                token = "%5F" + token[1:]   # escape its first underscore
        return os.path.join(out_dir, f"{key}={token}")

    # done-set: real (decoded) key values + a separate null flag, so a
    # completed NULL partition never shadows a literal-"__NULL__" one
    done: set = set()
    done_null = False
    if resume:
        for d in os.listdir(out_dir):
            if d.startswith(f"{key}=") and os.path.exists(
                    os.path.join(out_dir, d, "part-0.parquet")):
                token = d.split("=", 1)[1]
                if token == NULL_TOKEN:
                    done_null = True
                else:
                    done.add(unquote(token))

    def drop_done(batch: pa.Table) -> pa.Table:
        if not done and not done_null:
            return batch
        ks = batch.column(key).combine_chunks().cast(pa.string())
        if done:
            hit = pc.is_in(ks, value_set=pa.array(sorted(done),
                                                  type=pa.string()))
        else:
            hit = pa.array(np.zeros(len(ks), dtype=bool))
        if done_null:      # is_in yields False (not null) for null input
            hit = pc.or_(hit, pc.is_null(ks))
        return batch.filter(pc.invert(pc.fill_null(hit, False)))

    def write_group(group: pa.Table) -> pa.Table:
        vstr = group.column(key).combine_chunks().cast(
            pa.string())[0].as_py()          # None when the key is NULL
        d = part_dir(vstr)
        os.makedirs(d, exist_ok=True)
        dst = os.path.join(d, "part-0.parquet")
        pq.write_table(group, dst + ".tmp", compression=compression)
        os.replace(dst + ".tmp", dst)
        return pa.table({"k": pa.array([NULL_TOKEN if vstr is None
                                        else vstr]),
                         "rows": pa.array([group.num_rows],
                                          type=pa.int64())})

    todo = map_batches(ds, drop_done)
    stats = map_groups(todo.groupby(key), write_group).take_all()
    return {"written": len(stats), "skipped": len(done) + int(done_null),
            "rows": sum(r["rows"] for r in stats)}
