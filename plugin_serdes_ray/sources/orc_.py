"""ORC -> Table/Dataset (engine-side columnar interchange; the reference
has no ORC task, but a columnar engine's users expect the Hive-ecosystem
landing format to read natively — same role as `ParquetToIon`,
/root/reference parquet/ParquetToIon.java)."""

from __future__ import annotations

from typing import Optional

import pyarrow as pa
import pyarrow.orc as orc

from ..util import map_batches


def parse_orc_bytes(data: bytes) -> pa.Table:
    return orc.ORCFile(pa.BufferReader(data)).read()


def read_orc_table(path: str, columns: Optional[list[str]] = None) -> pa.Table:
    f = orc.ORCFile(path)
    return f.read(columns=columns)


def read_orc(paths, columns: Optional[list[str]] = None):
    """ORC files -> Ray Dataset (one read task per file; column-pruned)."""
    import ray.data

    if isinstance(paths, str):
        paths = [paths]

    def load(batch: pa.Table):
        for p in batch.column("path").to_pylist():
            yield read_orc_table(str(p), columns=columns)

    ds = ray.data.from_items([{"path": str(p)} for p in paths])
    return map_batches(ds, load, batch_size=1, num_cpus=1)
