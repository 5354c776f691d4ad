"""YAML -> Dataset, reproducing YamlToIon
(/root/reference yaml/YamlToIon.java:71-140): multi-document streams
(``---``-separated) -> one record per document (:99-118). Also the
YamlToJson document transform (yaml/YamlToJson.java:100-163).
"""

from __future__ import annotations

import json
from typing import Any, Optional

import pyarrow as pa
import yaml


def parse_yaml_bytes(data: bytes, charset: str = "utf-8") -> list[Any]:
    docs = [d for d in yaml.safe_load_all(data.decode(charset)) if d is not None]
    return docs


from ..util import map_batches
from ._tabulate import records_to_table as _records_to_table  # shared


def read_yaml(paths: list[str] | str, charset: str = "utf-8",
              concurrency: Optional[int] = None):
    import ray.data

    if isinstance(paths, str):
        paths = [paths]

    def parse(batch: pa.Table):
        for item in batch.to_pylist():
            with open(item["path"], "rb") as f:
                docs = parse_yaml_bytes(f.read(), charset)
            if docs:
                yield _records_to_table(docs)

    ds = ray.data.from_items([{"path": str(p)} for p in paths])
    return map_batches(ds, parse, batch_size=1,
                       concurrency=min(concurrency or 8, len(paths)),
                       num_cpus=1)


def read_yaml_table(path: str, charset: str = "utf-8") -> pa.Table:
    with open(path, "rb") as f:
        return _records_to_table(parse_yaml_bytes(f.read(), charset))


def yaml_to_json_bytes(data: bytes, newline_delimited: bool = True,
                       charset: str = "utf-8") -> bytes:
    """YamlToJson: multi-doc YAML -> JSONL or JSON array (:100-163)."""
    docs = parse_yaml_bytes(data, charset)
    if newline_delimited:
        return ("\n".join(json.dumps(d, separators=(",", ":"), ensure_ascii=False)
                          for d in docs) + ("\n" if docs else "")).encode(charset)
    return json.dumps(docs, separators=(",", ":"), ensure_ascii=False).encode(charset)
