"""Distributed format conversion — the reference's central use case
(X -> ION -> Y task chains, SURVEY.md §3.1) as ONE Ray pipeline with no
intermediate hub files: each input file converts in a single task
(parse bytes -> serialize bytes -> atomic write), files are the partition
and resume unit, outputs land as one file per input (resumable naming).
"""

from __future__ import annotations

import os
from typing import Optional

import pyarrow as pa

from ..util import map_batches


def _parse(fmt: str, data: bytes) -> pa.Table:
    if fmt == "csv":
        from ..sources.csv_ import parse_csv_bytes
        return parse_csv_bytes(data)
    if fmt in ("json", "jsonl"):
        from ..sources.json_ import JsonOptions, parse_json_bytes
        records = parse_json_bytes(
            data, JsonOptions(newline_delimited=fmt == "jsonl"))
        if records and not isinstance(records[0], dict):
            records = [{"value": r} for r in records]
        return pa.Table.from_pylist(records)
    if fmt in ("yaml", "yml"):
        from ..sources.yaml_ import parse_yaml_bytes
        docs = parse_yaml_bytes(data)
        if docs and not isinstance(docs[0], dict):
            docs = [{"value": d} for d in docs]
        return pa.Table.from_pylist(docs)
    if fmt == "xml":
        from ..sources.xml_ import parse_xml_bytes
        recs = parse_xml_bytes(data)
        if recs and not isinstance(recs[0], dict):
            recs = [{"value": r} for r in recs]
        return pa.Table.from_pylist(recs)
    if fmt == "avro":
        from ..sources.avro_ import read_avro_records
        _, records = read_avro_records(data)
        return pa.Table.from_pylist(records)
    if fmt == "parquet":
        import pyarrow.parquet as pq
        # single-cpu worker task: the threaded arrow read path is 30x slower
        # than single-threaded on this VM (measured r3)
        return pq.read_table(pa.BufferReader(data), use_threads=False)
    if fmt == "orc":
        from ..sources.orc_ import parse_orc_bytes
        return parse_orc_bytes(data)
    if fmt in ("feather", "arrow", "ipc"):
        from ..sources.feather_ import parse_feather_bytes
        return parse_feather_bytes(data)
    if fmt == "xlsx":
        from ..sources.excel_ import read_xlsx_bytes
        return next(iter(read_xlsx_bytes(data).values()))
    if fmt == "toon":
        from ..functions import toon
        value = toon.decode(data.decode())
        if isinstance(value, dict) and len(value) == 1 \
                and isinstance(next(iter(value.values())), list):
            value = next(iter(value.values()))
        rows = value if isinstance(value, list) else [value]
        return pa.Table.from_pylist(rows)
    raise ValueError(f"unsupported input format {fmt}")


def _serialize(fmt: str, table: pa.Table) -> bytes:
    if fmt == "csv":
        from ..sinks.csv_ import table_to_csv_bytes
        return table_to_csv_bytes(table)
    if fmt in ("json", "jsonl"):
        from ..sinks.json_ import JsonWriteOptions, table_to_json_bytes
        return table_to_json_bytes(
            table, JsonWriteOptions(newline_delimited=fmt == "jsonl"))
    if fmt in ("yaml", "yml"):
        from ..sinks.yaml_ import table_to_yaml_bytes
        return table_to_yaml_bytes(table)
    if fmt == "xml":
        from ..sinks.xml_ import table_to_xml_bytes
        return table_to_xml_bytes(table)
    if fmt == "avro":
        from ..sinks.avro_ import table_to_avro_bytes
        return table_to_avro_bytes(table)
    if fmt == "parquet":
        from ..sinks.parquet_ import table_to_parquet_bytes
        return table_to_parquet_bytes(table)
    if fmt == "orc":
        from ..sinks.orc_ import table_to_orc_bytes
        return table_to_orc_bytes(table)
    if fmt in ("feather", "arrow", "ipc"):
        from ..sinks.feather_ import table_to_feather_bytes
        return table_to_feather_bytes(table)
    if fmt == "xlsx":
        from ..sinks.excel_ import tables_to_xlsx_bytes
        return tables_to_xlsx_bytes({"Sheet1": table})
    if fmt == "toon":
        from ..functions import toon
        return toon.encode({"rows": table.to_pylist()}).encode()
    raise ValueError(f"unsupported output format {fmt}")


def convert_files(files: list[str], out_dir: str, in_fmt: str, out_fmt: str,
                  concurrency: Optional[int] = None,
                  resume: bool = True) -> dict:
    """Convert many files in parallel; one output file per input, atomic
    writes, rerun skips already-converted outputs (size-stamped)."""
    import ray
    import ray.data

    import hashlib

    from collections import Counter

    os.makedirs(out_dir, exist_ok=True)
    files = sorted(str(f) for f in files)
    stems = [os.path.splitext(os.path.basename(f))[0] for f in files]
    # Counter, not list.count per element: that is O(n^2) driver time on a
    # 100k-file list before any conversion task launches
    dup_stems = {s for s, c in Counter(stems).items() if c > 1}

    def out_path(src: str) -> str:
        stem = os.path.splitext(os.path.basename(src))[0]
        if stem in dup_stems:
            # same basename in different input dirs: a stem-only name would
            # make the conversions clobber each other's output (and resume
            # then skips the loser forever) — disambiguate with a stable
            # hash of the full source path
            tag = hashlib.sha1(src.encode()).hexdigest()[:8]
            stem = f"{stem}-{tag}"
        return os.path.join(out_dir, f"{stem}.{out_fmt}")

    def _stamp(src: str) -> str:
        st = os.stat(src)
        return f"{st.st_size}:{st.st_mtime_ns}"

    def _done(src: str) -> bool:
        # size+mtime-stamped skip: a bare exists() check would serve a
        # stale output forever after the input is modified or replaced
        dst = out_path(src)
        if not os.path.exists(dst):
            return False
        try:
            return open(dst + ".src").read() == _stamp(src)
        except OSError:
            return False

    todo = [f for f in files if not (resume and _done(f))]

    def task(batch: pa.Table) -> pa.Table:
        rows_out, paths = [], []
        for src in batch.column("path").to_pylist():
            stamp = _stamp(src)     # stat BEFORE reading: racing writers
            # re-convert on the next run rather than skip a torn read
            with open(src, "rb") as fh:
                table = _parse(in_fmt, fh.read())
            payload = _serialize(out_fmt, table)
            dst = out_path(src)
            with open(dst + ".tmp", "wb") as fh:
                fh.write(payload)
            os.replace(dst + ".tmp", dst)
            with open(dst + ".src.tmp", "w") as fh:
                fh.write(stamp)
            os.replace(dst + ".src.tmp", dst + ".src")
            rows_out.append(table.num_rows)
            paths.append(dst)
        return pa.table({"path": paths, "rows": rows_out})

    stats = []
    if todo:
        ds = ray.data.from_items([{"path": f} for f in todo])
        stats = map_batches(
            ds, task, batch_size=1,
            concurrency=min(concurrency or 8, len(todo)),
            num_cpus=1).take_all()
    return {"converted": len(stats), "skipped": len(files) - len(todo),
            "rows": sum(r["rows"] for r in stats),
            "outputs": sorted(out_path(f) for f in files)}
