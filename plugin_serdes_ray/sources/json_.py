"""JSON -> Dataset, reproducing JsonToIon
(/root/reference json/JsonToIon.java:91-190):

- newline_delimited=True (default): one record per line (:171-175) —
  maps to a per-file vectorized parse task;
- newline_delimited=False: whole-file JSON array / single object
  (:176-184; the reference documents the OOM hazard at :116-117 — here a
  whole file is one task's batch, bounded by input shard size);
- charset (:111).

Also JsonToJsonl (json/JsonToJsonl.java:104-191): array / object /
concatenated objects -> one object per line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

import pyarrow as pa


@dataclass
class JsonOptions:
    newline_delimited: bool = True
    charset: str = "utf-8"
    # inverse of the sink's annotation mode (IonToJson.java:306-434):
    # {"ion_annotations": [...], "value": ...} objects decode into
    # struct<ion_annotations: list<string>, value: ...> carriers; bare
    # values sharing a path with at least one wrapper normalize to a
    # carrier with empty annotations so the column stays one struct type
    keep_annotations: bool = False


def _wrapper_paths(o: Any, path: tuple, out: set) -> None:
    from ..sinks.json_ import is_annotation_wrapper

    if is_annotation_wrapper(o):
        out.add(path)
        return
    if isinstance(o, dict):
        for k, v in o.items():
            _wrapper_paths(v, path + (k,), out)
    elif isinstance(o, list):
        for v in o:
            _wrapper_paths(v, path + ("[]",), out)


def _wrap_at(o: Any, path: tuple, paths: set) -> Any:
    from ..sinks.json_ import is_annotation_wrapper

    if is_annotation_wrapper(o):
        return {"ion_annotations": list(o.get("ion_annotations") or []),
                "value": o["value"]}
    if isinstance(o, dict):
        return {k: _wrap_at(v, path + (k,), paths) for k, v in o.items()}
    if isinstance(o, list):
        return [_wrap_at(v, path + ("[]",), paths) for v in o]
    if path in paths:
        return {"ion_annotations": [], "value": o}
    return o


def normalize_annotations(records: list) -> list:
    """Uniform annotation carriers: every value at a path where ANY record
    holds an ``{ion_annotations, value}`` wrapper becomes a carrier (bare
    values get an empty annotation list)."""
    paths: set = set()
    for r in records:
        _wrapper_paths(r, (), paths)
    if not paths:
        return records
    return [_wrap_at(r, (), paths) for r in records]


def parse_json_bytes(data: bytes, opts: Optional[JsonOptions] = None) -> list[Any]:
    """One file's bytes -> list of records (dicts/values)."""
    opts = opts or JsonOptions()
    text = data.decode(opts.charset)
    if opts.newline_delimited:
        # split on '\n' ONLY (json.dumps escapes all C0 controls, so '\n'
        # can't occur inside a record) — str.splitlines() also splits on
        # U+2028/U+2029/U+0085, which are legal UNESCAPED inside JSON
        # strings and exactly what our own sink emits with ensure_ascii=False
        records = [json.loads(line) for line in text.split("\n")
                   if line.strip()]
    else:
        parsed = json.loads(text)
        records = parsed if isinstance(parsed, list) else [parsed]
    if opts.keep_annotations:
        records = normalize_annotations(records)
    return records


def parse_concatenated_json(text: str) -> list[Any]:
    """Concatenated top-level JSON objects (JsonToJsonl.java:128-162)."""
    dec = json.JSONDecoder()
    out = []
    i = 0
    n = len(text)
    while i < n:
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            break
        obj, end = dec.raw_decode(text, i)
        out.append(obj)
        i = end
    return out


from ..util import map_batches
from ._tabulate import records_to_table as _records_to_table  # shared


def read_json(paths: list[str] | str, opts: Optional[JsonOptions] = None,
              concurrency: Optional[int] = None):
    """Distributed JSON read: JSONL uses the native vectorized reader;
    array/object mode is one parse task per file."""
    import ray.data

    opts = opts or JsonOptions()
    if isinstance(paths, str):
        paths = [paths]
    if opts.newline_delimited and opts.charset.lower() in ("utf-8", "utf8", "ascii"):
        return ray.data.read_json(paths, file_extensions=None)

    def parse(batch: pa.Table):
        for item in batch.to_pylist():
            with open(item["path"], "rb") as f:
                data = f.read()
            records = parse_json_bytes(data, opts)
            if records:
                yield _records_to_table(records)

    ds = ray.data.from_items([{"path": str(p)} for p in paths])
    return map_batches(ds, parse, batch_size=1,
                       concurrency=min(concurrency or 8, len(paths)),
                       num_cpus=1)


def read_json_table(path: str, opts: Optional[JsonOptions] = None) -> pa.Table:
    with open(path, "rb") as f:
        return _records_to_table(parse_json_bytes(f.read(), opts))


def json_to_jsonl_bytes(data: bytes, charset: str = "utf-8") -> bytes:
    """JsonToJsonl: array / object / concatenated objects -> JSONL."""
    text = data.decode(charset).strip()
    try:
        parsed = json.loads(text)
        records = parsed if isinstance(parsed, list) else [parsed]
    except json.JSONDecodeError:
        records = parse_concatenated_json(text)
    return ("\n".join(json.dumps(r, separators=(",", ":"), ensure_ascii=False)
                      for r in records) + "\n").encode()
