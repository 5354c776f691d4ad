"""Feather / Arrow IPC file -> Table/Dataset (zero-parse columnar
interchange: the IPC file maps straight into Arrow buffers)."""

from __future__ import annotations

from typing import Optional

import pyarrow as pa
import pyarrow.feather as feather

from ..util import map_batches


def parse_feather_bytes(data: bytes) -> pa.Table:
    return feather.read_table(pa.BufferReader(data))


def read_feather_table(path: str,
                       columns: Optional[list[str]] = None) -> pa.Table:
    return feather.read_table(path, columns=columns)


def read_feather(paths, columns: Optional[list[str]] = None):
    """Feather/IPC files -> Ray Dataset (one read task per file)."""
    import ray.data

    if isinstance(paths, str):
        paths = [paths]

    def load(batch: pa.Table):
        for p in batch.column("path").to_pylist():
            yield read_feather_table(str(p), columns=columns)

    ds = ray.data.from_items([{"path": str(p)} for p in paths])
    return map_batches(ds, load, batch_size=1, num_cpus=1)
