"""Avro -> Dataset, reproducing AvroToIon
(/root/reference avro/AvroToIon.java:72-450): read the container file's
embedded schema (:101), run the per-record validation layer — non-nullable
null check (:160-169) and recursive type validation (:197-417) — gated by
on_bad_lines (:110-118), then deserialize to plain rows.
"""

from __future__ import annotations

import datetime
from decimal import Decimal
from typing import Any, Optional

import pyarrow as pa

from ..functions import avroio
from ..functions.errors import BadLineError, OnBadLines, handle_bad


def validate_datum(schema: Any, v: Any, path: str = "$",
                   named: Optional[dict] = None, ns: str = "") -> Optional[str]:
    """Recursive validation (AvroToIon.java:197-417). Returns an error
    message or None; references resolve as in ``avroio.named_types``."""
    named = avroio.named_types(schema) if named is None else named
    schema, ns = avroio._deref(schema, ns, named)
    t = avroio._type_of(schema)
    if isinstance(t, list):
        for branch in t:
            if validate_datum(branch, v, path, named, ns) is None:
                return None
        return f"{path}: {v!r} matches no branch of union {t}"
    if t == "null":
        return None if v is None else f"{path}: expected null, got {v!r}"
    if v is None:
        return f"{path}: null for non-nullable {t}"
    # shape checks BEFORE iteration: a structurally mismatched datum must
    # return a validation message (so a union's other branches get tried and
    # on_bad_lines can contain it), never raise AttributeError/TypeError
    if t == "record":
        if not isinstance(v, dict):
            return f"{path}: expected record, got {type(v).__name__}"
        for f in schema["fields"]:
            err = validate_datum(f["type"], v.get(f["name"]),
                                 f"{path}.{f['name']}", named, ns)
            if err:
                return err
        return None
    if t == "array":
        if not isinstance(v, (list, tuple)):
            return f"{path}: expected array, got {type(v).__name__}"
        for i, item in enumerate(v):
            err = validate_datum(schema["items"], item, f"{path}[{i}]",
                                 named, ns)
            if err:
                return err
        return None
    if t == "map":
        if not isinstance(v, dict):
            return f"{path}: expected map, got {type(v).__name__}"
        for k, x in v.items():
            err = validate_datum(schema["values"], x, f"{path}[{k!r}]",
                                 named, ns)
            if err:
                return err
        return None
    if not avroio._accepts(schema, v, named, ns):
        return f"{path}: {v!r} is not a valid {t}"
    return None


def read_avro_records(data: bytes, on_bad_lines: str = "ERROR",
                      validate: bool = True) -> tuple[dict, list[Any]]:
    schema, records = avroio.read_container(data)
    if validate:
        kept = []
        named = avroio.named_types(schema)
        for i, r in enumerate(records):
            err = validate_datum(schema, r, named=named)
            if err is None:
                kept.append(r)
            else:
                handle_bad(on_bad_lines, f"avro record {i}: {err}")
        records = kept
    return schema, records


from ..util import map_batches
from ._tabulate import records_to_table as _records_to_table  # shared


def read_avro(paths: list[str] | str, on_bad_lines: str = "ERROR",
              concurrency: Optional[int] = None):
    import ray.data

    if isinstance(paths, str):
        paths = [paths]

    def parse(batch: pa.Table):
        for item in batch.to_pylist():
            with open(item["path"], "rb") as f:
                _, records = read_avro_records(f.read(), on_bad_lines)
            if records:
                yield _records_to_table(records)

    ds = ray.data.from_items([{"path": str(p)} for p in paths])
    return map_batches(ds, parse, batch_size=1,
                       concurrency=min(concurrency or 8, len(paths)),
                       num_cpus=1)


def read_avro_table(path: str, on_bad_lines: str = "ERROR") -> pa.Table:
    with open(path, "rb") as f:
        _, records = read_avro_records(f.read(), on_bad_lines)
    return _records_to_table(records)
