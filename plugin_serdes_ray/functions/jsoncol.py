"""JSON-string column -> typed columns (the engine's analog of the
reference's JsonToIon applied to a COLUMN instead of a file: semi-structured
payload fields promoted to typed Arrow columns inside a streaming
map_batches).

Parsing is per-row stdlib ``json`` (a faster parser is picked up by
try-import when present); the coercion to the requested Arrow types reuses
the serde scalar layer so bad values follow the same ERROR/WARN/SKIP
policy as every other text format.
"""

from __future__ import annotations

import json
from typing import Optional

import pyarrow as pa

from ..util import map_batches
from .coerce import CoerceOptions, coerce_column

try:                                    # optional faster parser
    import orjson as _fastjson          # pragma: no cover - not in container

    def _loads(s: str):
        return _fastjson.loads(s)
except ImportError:
    def _loads(s: str):
        return json.loads(s)


def extract_json_fields(batch: pa.Table, column: str,
                        fields: dict[str, pa.DataType],
                        opts: Optional[CoerceOptions] = None,
                        prefix: str = "") -> pa.Table:
    """One batch: parse the JSON column once, append a typed column per
    requested field (missing field / null / unparseable row -> null, then
    the bad-lines policy of the coercion layer applies to type failures).

    Unlike the text formats, JSON distinguishes null natively — so by
    default NO null sentinels apply and the definite strings "", "NA",
    "None", ... survive extraction (pass opts with null_values to opt
    back into sentinel mapping)."""
    opts = opts or CoerceOptions(null_values=[])
    vals: dict[str, list] = {f: [] for f in fields}
    for s in batch.column(column).to_pylist():
        obj = None
        if s is not None:
            try:
                obj = _loads(s)
            except (ValueError, TypeError):
                obj = None
        for f in fields:
            v = obj.get(f) if isinstance(obj, dict) else None
            vals[f].append(v)
    out = batch
    for f, typ in fields.items():
        raw = pa.array([None if v is None else
                        (v if isinstance(v, (str, bytes)) else json.dumps(v)
                         if isinstance(v, (dict, list)) else str(v))
                        for v in vals[f]], type=pa.string())
        out = out.append_column(prefix + f, coerce_column(raw, typ, opts))
    return out


def parse_json_column(ds, column: str, fields: dict[str, pa.DataType],
                      opts: Optional[CoerceOptions] = None, prefix: str = ""):
    """Dataset version: streaming map_batches, no shuffle."""
    return map_batches(
        ds, lambda b: extract_json_fields(b, column, fields, opts, prefix))
