"""Schema inference over dynamic rows — the Ray re-expression of
/root/reference avro/infer/InferAvroSchema.java:

- scan the first ``number_of_rows_to_scan`` rows (default 100,
  AbstractAvroConverter.java:50) or ALL rows (`infer_all_fields=True`,
  :159-165);
- map runtime values to nullable types, recurse into dicts/lists
  (InferAvroSchema.java:49-194);
- MERGE types across rows (union-merge, record-field-merge by name,
  array-element merge — InferAvroSchema.java:201-271) as an associative
  reduce, which distributes as map_batches(partial) + driver merge;
- root-level non-record values wrap as {"value": ...}
  (InferAvroSchema.java:121-129), unwrapped on read-back
  (AvroDeserializer.java:45-54).

Produces both a pyarrow.Schema and an Avro-compatible .avsc JSON string
(the InferAvroSchemaFromIon task analog, InferAvroSchemaFromIon.java:55-101).
"""

from __future__ import annotations

import datetime
import json
from decimal import Decimal
from typing import Any, Iterable, Optional

import pyarrow as pa

from ..util import map_batches

# internal type lattice: a "tnode" is one of
#   {"kind": "null"}
#   {"kind": "prim", "name": "int"|"long"|"double"|"boolean"|"string"|"bytes"
#            |"date"|"time"|"timestamp"|"decimal"}
#   {"kind": "record", "fields": {name: tnode}, "order": [names]}
#   {"kind": "array", "item": tnode}
#   {"kind": "union", "options": [tnode]}  (non-null options only; nullability tracked separately)
# plus a "nullable" flag carried on every node.


def _prim(name: str) -> dict:
    return {"kind": "prim", "name": name, "nullable": False}


def infer_value(v: Any) -> dict:
    if v is None:
        return {"kind": "null", "nullable": True}
    if isinstance(v, bool):
        return _prim("boolean")
    if isinstance(v, int):
        return _prim("int" if -(2**31) <= v < 2**31 else "long")
    if isinstance(v, float):
        return _prim("double")
    if isinstance(v, Decimal):
        return _prim("decimal")
    if isinstance(v, datetime.datetime):
        return _prim("timestamp")
    if isinstance(v, datetime.date):
        return _prim("date")
    if isinstance(v, datetime.time):
        return _prim("time")
    if isinstance(v, (bytes, bytearray)):
        return _prim("bytes")
    if isinstance(v, str):
        return _prim("string")
    if isinstance(v, dict):
        fields = {k: infer_value(x) for k, x in v.items()}
        return {"kind": "record", "fields": fields,
                "order": list(fields), "nullable": False}
    if isinstance(v, (list, tuple)):
        item: dict = {"kind": "null", "nullable": True}
        for x in v:
            item = merge_types(item, infer_value(x))
        return {"kind": "array", "item": item, "nullable": False}
    return _prim("string")


# numeric widening order (InferAvroSchema mergeTypes analog)
_NUM_ORDER = {"int": 0, "long": 1, "double": 2}


def _branch_class(t: dict):
    """Union-branch compatibility class: branches in the same class merge
    into one (numeric prims widen, records field-merge, arrays item-merge);
    different classes coexist as separate union branches."""
    if t["kind"] == "prim" and t["name"] in _NUM_ORDER:
        return ("num",)
    if t["kind"] == "prim":
        return ("prim", t["name"])
    return (t["kind"],)


def _union_fold(options: list[dict], t: dict) -> list[dict]:
    key = _branch_class(t)
    out, merged = [], False
    for o in options:
        if not merged and _branch_class(o) == key:
            o = merge_types(o, t)
            o = dict(o, nullable=False)   # nullability lives on the union
            merged = True
        out.append(o)
    if not merged:
        out.append(dict(t, nullable=False))
    return out


def merge_types(a: dict, b: dict) -> dict:
    """Associative, commutative merge of two inferred types. Irreconcilable
    kinds form a true multi-branch UNION (InferAvroSchema.java:201-271's
    union-merge), not a stringly fallback — the avro writer/reader resolve
    branches per value, so mixed-type fields round-trip exactly."""
    if a["kind"] == "null":
        out = dict(b)
        out["nullable"] = True
        return out
    if b["kind"] == "null":
        out = dict(a)
        out["nullable"] = True
        return out
    nullable = a.get("nullable", False) or b.get("nullable", False)
    if a["kind"] == "union" or b["kind"] == "union":
        opts = [dict(o, nullable=False) for o in a["options"]] \
            if a["kind"] == "union" else [dict(a, nullable=False)]
        more = list(b["options"]) if b["kind"] == "union" \
            else [dict(b, nullable=False)]
        for t in more:
            opts = _union_fold(opts, t)
        if len(opts) == 1:
            return dict(opts[0], nullable=nullable)
        return {"kind": "union", "options": opts, "nullable": nullable}
    if a["kind"] == "prim" and b["kind"] == "prim":
        if a["name"] == b["name"]:
            out = _prim(a["name"])
        elif a["name"] in _NUM_ORDER and b["name"] in _NUM_ORDER:
            out = _prim(max(a["name"], b["name"], key=_NUM_ORDER.get))
        else:
            return {"kind": "union",
                    "options": [dict(a, nullable=False),
                                dict(b, nullable=False)],
                    "nullable": nullable}
        out["nullable"] = nullable
        return out
    if a["kind"] == "record" and b["kind"] == "record":
        fields: dict[str, dict] = {}
        order: list[str] = []
        for name in list(a["order"]) + [n for n in b["order"] if n not in a["fields"]]:
            order.append(name)
            if name in a["fields"] and name in b["fields"]:
                fields[name] = merge_types(a["fields"][name], b["fields"][name])
            else:
                # field missing in one side -> nullable (missing-fields ->
                # explicit nulls, FullIonConversionAbstractTest.java:127-156)
                src = a["fields"].get(name) or b["fields"][name]
                out = dict(src)
                out["nullable"] = True
                fields[name] = out
        return {"kind": "record", "fields": fields, "order": order,
                "nullable": nullable}
    if a["kind"] == "array" and b["kind"] == "array":
        return {"kind": "array", "item": merge_types(a["item"], b["item"]),
                "nullable": nullable}
    # cross-kind (record vs prim, array vs record, ...) -> two-branch union
    return {"kind": "union",
            "options": [dict(a, nullable=False), dict(b, nullable=False)],
            "nullable": nullable}


def infer_rows(rows: Iterable[Any], number_of_rows_to_scan: int = 100,
               infer_all_fields: bool = False) -> dict:
    """Streaming reduce over rows -> merged root tnode (rows may be dicts,
    lists, or scalars; non-record roots wrap as {"value": ...})."""
    acc: Optional[dict] = None
    for i, row in enumerate(rows):
        if not infer_all_fields and i >= number_of_rows_to_scan:
            break
        t = infer_value(row)
        if t["kind"] != "record":
            t = {"kind": "record", "fields": {"value": t},
                 "order": ["value"], "nullable": False}
        acc = t if acc is None else merge_types(acc, t)
    return acc or {"kind": "record", "fields": {}, "order": [], "nullable": False}


# ---------------------------------------------------------------------------
# conversions out of the lattice
# ---------------------------------------------------------------------------

_PA_PRIM = {
    "boolean": pa.bool_(), "int": pa.int32(), "long": pa.int64(),
    "double": pa.float64(), "string": pa.string(), "bytes": pa.binary(),
    "date": pa.date32(), "time": pa.time64("us"),
    "timestamp": pa.timestamp("us"), "decimal": pa.decimal128(38, 18),
}


def to_arrow(t: dict) -> pa.DataType:
    if t["kind"] == "null":
        return pa.null()
    if t["kind"] == "prim":
        return _PA_PRIM[t["name"]]
    if t["kind"] == "record":
        return pa.struct([
            pa.field(n, to_arrow(ft), nullable=ft.get("nullable", False))
            for n, ft in ((n, t["fields"][n]) for n in t["order"])
        ])
    if t["kind"] == "array":
        return pa.list_(to_arrow(t["item"]))
    if t["kind"] == "union":
        # Arrow projection of a mixed-type field: string (Arrow unions are
        # not supported by the coercion layer; the AVRO path keeps branches)
        return pa.string()
    raise TypeError(t)


def to_arrow_schema(root: dict) -> pa.Schema:
    assert root["kind"] == "record"
    return pa.schema([
        pa.field(n, to_arrow(ft), nullable=ft.get("nullable", False))
        for n, ft in ((n, root["fields"][n]) for n in root["order"])
    ])


_AVRO_PRIM = {
    "boolean": "boolean", "int": "int", "long": "long", "double": "double",
    "string": "string", "bytes": "bytes",
    "date": {"type": "int", "logicalType": "date"},
    "time": {"type": "long", "logicalType": "time-micros"},
    "timestamp": {"type": "long", "logicalType": "timestamp-micros"},
    "decimal": {"type": "bytes", "logicalType": "decimal",
                "precision": 38, "scale": 18},
}


def to_avro(t: dict, name_hint: str = "root") -> Any:
    base: Any
    if t["kind"] == "null":
        return "null"
    if t["kind"] == "prim":
        base = _AVRO_PRIM[t["name"]]
    elif t["kind"] == "record":
        base = {
            "type": "record", "name": name_hint or "rec",
            "fields": [
                {"name": n, "type": to_avro(t["fields"][n], f"{name_hint}_{n}")}
                for n in t["order"]
            ],
        }
    elif t["kind"] == "array":
        base = {"type": "array", "items": to_avro(t["item"], f"{name_hint}_item")}
    elif t["kind"] == "union":
        # options are never unions themselves (merge invariant), and the
        # branch-class fold keeps them type-distinct — both Avro union rules
        base = [to_avro(o, f"{name_hint}_u{i}")
                for i, o in enumerate(t["options"])]
        if t.get("nullable"):
            return ["null", *base]
        return base
    else:
        raise TypeError(t)
    if t.get("nullable"):
        return ["null", base]
    return base


def to_avsc(root: dict, name: str = "root") -> str:
    """Root record -> .avsc JSON string (InferAvroSchemaFromIon output)."""
    return json.dumps(to_avro(root, name), indent=2)


def infer_schema(rows: Iterable[Any], number_of_rows_to_scan: int = 100,
                 infer_all_fields: bool = False) -> pa.Schema:
    return to_arrow_schema(infer_rows(rows, number_of_rows_to_scan, infer_all_fields))


def infer_schema_dataset(ds, number_of_rows_to_scan: int = 100,
                         infer_all_fields: bool = False) -> pa.Schema:
    """Dataset version: per-batch partial inference + driver-side merge —
    the distributed form of the reference's single-threaded reduce."""
    if infer_all_fields:
        def partial(batch) -> dict:
            rows = batch.to_pylist() if hasattr(batch, "to_pylist") else batch
            t = infer_rows(rows, infer_all_fields=True)
            return {"t": [json.dumps(t)]}

        parts = map_batches(ds, partial)
        merged = None
        for row in parts.take_all():  # one tiny row per input block
            t = json.loads(row["t"])
            merged = t if merged is None else merge_types(merged, t)
        return to_arrow_schema(merged or infer_rows([]))
    rows = ds.take(number_of_rows_to_scan)
    return infer_schema(rows, number_of_rows_to_scan)
