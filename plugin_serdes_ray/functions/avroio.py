"""Pure-Python Apache Avro object-container-file reader/writer (spec:
https://avro.apache.org/docs/current/specification/ — public format).

Covers the reference's type surface (/root/reference avro/AvroConverter.java
:219-284): null, boolean, int, long, float, double, string, bytes, record,
array, map, union, fixed, enum, and the logical types decimal, uuid, date,
time-millis/micros, timestamp-millis/micros (:294-441). Codecs: null,
deflate. No external deps (fastavro is not available in this environment).
"""

from __future__ import annotations

import datetime
import io
import json
import os
import struct
import uuid as uuid_mod
import zlib
from decimal import Decimal
from typing import Any, BinaryIO, Iterable, Optional

MAGIC = b"Obj\x01"


# ---------------------------------------------------------------------------
# primitive binary codec
# ---------------------------------------------------------------------------


def _write_long(out: io.BytesIO, v: int) -> None:
    v = (v << 1) ^ (v >> 63)  # zigzag
    while True:
        b = v & 0x7F
        v >>= 7
        if v:
            out.write(bytes([b | 0x80]))
        else:
            out.write(bytes([b]))
            break


def _read_long(inp: BinaryIO) -> int:
    shift = 0
    acc = 0
    while True:
        (b,) = inp.read(1)
        acc |= (b & 0x7F) << shift
        if not (b & 0x80):
            break
        shift += 7
    return (acc >> 1) ^ -(acc & 1)


def _write_bytes(out: io.BytesIO, b: bytes) -> None:
    _write_long(out, len(b))
    out.write(b)


def _read_bytes(inp: BinaryIO) -> bytes:
    return inp.read(_read_long(inp))


# ---------------------------------------------------------------------------
# schema-driven encode/decode
# ---------------------------------------------------------------------------


def _logical(schema: dict) -> Optional[str]:
    return schema.get("logicalType") if isinstance(schema, dict) else None


def _type_of(schema: Any) -> Any:
    if isinstance(schema, dict):
        return schema["type"]
    return schema


EPOCH_DATE = datetime.date(1970, 1, 1)


def named_types(schema: Any) -> dict:
    """fullname -> definition of every named type ``schema`` defines, as
    the validator registers them: the ``named`` that write_datum,
    read_datum and _accepts resolve references in (``ns`` is the
    enclosing namespace)."""
    named: dict = {}
    _walk_schema(schema, named, [])
    return named


def _deref(schema: Any, ns: str, named: dict) -> tuple[Any, str]:
    """``(definition, namespace inside it)``: a by-name reference resolves
    through ``named`` from the enclosing namespace ``ns``; a named
    definition opens its own namespace for the types nested in it."""
    t = _type_of(schema)
    if t in ("record", "enum", "fixed"):
        full = _fullname(schema, ns)
        return schema, full.rpartition(".")[0] if isinstance(full, str) else ns
    if isinstance(t, str) and t not in _PRIMITIVES and t not in ("array", "map"):
        full = _resolve(t, ns, named)
        if full is not None:
            return named[full], full.rpartition(".")[0]
    return schema, ns


def write_datum(out: io.BytesIO, schema: Any, v: Any, named: dict,
                ns: str = "") -> None:
    schema, ns = _deref(schema, ns, named)
    t = _type_of(schema)
    lt = _logical(schema)
    if isinstance(t, list):  # union: first branch that accepts the value
        for i, branch in enumerate(t):
            if _accepts(branch, v, named, ns):
                _write_long(out, i)
                write_datum(out, branch, v, named, ns)
                return
        raise ValueError(f"no union branch for {v!r} in {t}")
    if t == "null":
        return
    if t == "boolean":
        out.write(b"\x01" if v else b"\x00")
    elif t in ("int", "long"):
        if lt == "date" and isinstance(v, datetime.date) and not isinstance(v, datetime.datetime):
            v = (v - EPOCH_DATE).days
        elif lt in ("time-millis", "time-micros") and isinstance(v, datetime.time):
            scale = 1_000 if lt == "time-millis" else 1_000_000
            v = ((v.hour * 3600 + v.minute * 60 + v.second) * scale
                 + v.microsecond // (1000 if lt == "time-millis" else 1))
        elif lt in ("timestamp-millis", "timestamp-micros") and isinstance(v, datetime.datetime):
            if v.tzinfo is None:
                v = v.replace(tzinfo=datetime.timezone.utc)
            # integer arithmetic: float .timestamp() loses sub-ms precision
            delta = v - datetime.datetime(1970, 1, 1, tzinfo=datetime.timezone.utc)
            us = delta // datetime.timedelta(microseconds=1)
            v = us if lt == "timestamp-micros" else us // 1000
        _write_long(out, int(v))
    elif t == "float":
        out.write(struct.pack("<f", float(v)))
    elif t == "double":
        out.write(struct.pack("<d", float(v)))
    elif t == "string":
        if lt == "uuid" and isinstance(v, uuid_mod.UUID):
            v = str(v)
        _write_bytes(out, str(v).encode())
    elif t == "bytes":
        if lt == "decimal" and isinstance(v, Decimal):
            scale = schema.get("scale", 0)
            unscaled = int(v.scaleb(scale).to_integral_value())
            length = max((unscaled.bit_length() + 8) // 8, 1)
            v = unscaled.to_bytes(length, "big", signed=True)
        _write_bytes(out, bytes(v))
    elif t == "fixed":
        b = bytes(v)
        if len(b) != schema["size"]:
            raise ValueError(f"fixed size mismatch: {len(b)} != {schema['size']}")
        out.write(b)
    elif t == "enum":
        _write_long(out, schema["symbols"].index(v))
    elif t == "record":
        for f in schema["fields"]:
            write_datum(out, f["type"], None if v is None else v.get(f["name"]),
                        named, ns)
    elif t == "array":
        items = list(v or [])
        if items:
            _write_long(out, len(items))
            for item in items:
                write_datum(out, schema["items"], item, named, ns)
        _write_long(out, 0)
    elif t == "map":
        entries = dict(v or {})
        if entries:
            _write_long(out, len(entries))
            for k, x in entries.items():
                _write_bytes(out, str(k).encode())
                write_datum(out, schema["values"], x, named, ns)
        _write_long(out, 0)
    else:
        raise TypeError(f"unsupported avro type {t!r}")


def _accepts(branch: Any, v: Any, named: dict, ns: str = "") -> bool:
    branch, _ = _deref(branch, ns, named)
    t = _type_of(branch)
    if t == "null":
        return v is None
    if v is None:
        return False
    if t == "boolean":
        return isinstance(v, bool)
    if t in ("int", "long"):
        # temporal logical branches accept ONLY the matching python
        # temporal type: accepting plain ints routed an integer value
        # into a [time-micros, long] union's FIRST branch, silently
        # reading back as datetime.time. The date branch must also
        # exclude datetime (a date subclass) — write_datum's conversion
        # guard excludes it, so it fell through unconverted and crashed.
        lt = _logical(branch)
        if lt == "date":
            return isinstance(v, datetime.date) \
                and not isinstance(v, datetime.datetime)
        if lt in ("time-millis", "time-micros"):
            return isinstance(v, datetime.time)
        if lt in ("timestamp-millis", "timestamp-micros"):
            return isinstance(v, datetime.datetime)
        return isinstance(v, int) and not isinstance(v, bool)
    if t in ("float", "double"):
        return isinstance(v, (int, float)) and not isinstance(v, bool)
    if t == "string":
        return isinstance(v, (str, uuid_mod.UUID))
    if t == "bytes":
        # a decimal branch takes Decimals, a PLAIN bytes branch takes raw
        # bytes — cross-acceptance corrupted [bytes, decimal] unions in
        # both directions (TypeError one way, silent garbage the other)
        if _logical(branch) == "decimal":
            return isinstance(v, Decimal)
        return isinstance(v, (bytes, bytearray))
    if t == "fixed":
        return isinstance(v, (bytes, bytearray))
    if t == "enum":
        return isinstance(v, str) and v in branch.get("symbols", [])
    if t == "record":
        return isinstance(v, dict)
    if t == "array":
        return isinstance(v, (list, tuple))
    if t == "map":
        return isinstance(v, dict)
    return False


def read_datum(inp: BinaryIO, schema: Any, named: dict, ns: str = "") -> Any:
    schema, ns = _deref(schema, ns, named)
    t = _type_of(schema)
    lt = _logical(schema)
    if isinstance(t, list):
        idx = _read_long(inp)
        return read_datum(inp, t[idx], named, ns)
    if t == "null":
        return None
    if t == "boolean":
        return inp.read(1) == b"\x01"
    if t in ("int", "long"):
        v = _read_long(inp)
        if lt == "date":
            return EPOCH_DATE + datetime.timedelta(days=v)
        if lt in ("time-millis", "time-micros"):
            us = v * (1000 if lt == "time-millis" else 1)
            return (datetime.datetime.min + datetime.timedelta(microseconds=us)).time()
        if lt in ("timestamp-millis", "timestamp-micros"):
            us = v * 1000 if lt == "timestamp-millis" else v
            return (datetime.datetime(1970, 1, 1, tzinfo=datetime.timezone.utc)
                    + datetime.timedelta(microseconds=us))
        return v
    if t == "float":
        return struct.unpack("<f", inp.read(4))[0]
    if t == "double":
        return struct.unpack("<d", inp.read(8))[0]
    if t == "string":
        s = _read_bytes(inp).decode()
        if lt == "uuid":
            return uuid_mod.UUID(s)
        return s
    if t == "bytes":
        b = _read_bytes(inp)
        if lt == "decimal":
            scale = schema.get("scale", 0)
            return Decimal(int.from_bytes(b, "big", signed=True)).scaleb(-scale)
        return b
    if t == "fixed":
        return inp.read(schema["size"])
    if t == "enum":
        return schema["symbols"][_read_long(inp)]
    if t == "record":
        out = {}
        for f in schema["fields"]:
            out[f["name"]] = read_datum(inp, f["type"], named, ns)
        return out
    if t == "array":
        out = []
        while True:
            n = _read_long(inp)
            if n == 0:
                break
            if n < 0:
                _read_long(inp)  # block byte size, unused
                n = -n
            for _ in range(n):
                out.append(read_datum(inp, schema["items"], named, ns))
        return out
    if t == "map":
        out = {}
        while True:
            n = _read_long(inp)
            if n == 0:
                break
            if n < 0:
                _read_long(inp)
                n = -n
            for _ in range(n):
                k = _read_bytes(inp).decode()
                out[k] = read_datum(inp, schema["values"], named, ns)
        return out
    raise TypeError(f"unsupported avro type {t!r}")


# ---------------------------------------------------------------------------
# container files
# ---------------------------------------------------------------------------


def write_container(records: Iterable[Any], schema: Any,
                    codec: str = "deflate", sync: Optional[bytes] = None,
                    block_records: int = 4096) -> bytes:
    if codec not in ("null", "deflate"):
        # the writer would otherwise store UNCOMPRESSED data under
        # metadata claiming the codec — a file no reader can interpret
        raise ValueError(f"unsupported avro codec {codec!r} "
                         "(supported: null, deflate)")
    if isinstance(schema, str):
        schema = json.loads(schema)
    sync = sync or os.urandom(16)
    out = io.BytesIO()
    out.write(MAGIC)
    meta = {"avro.schema": json.dumps(schema).encode(),
            "avro.codec": codec.encode()}
    _write_long(out, len(meta))
    for k, v in meta.items():
        _write_bytes(out, k.encode())
        _write_bytes(out, v)
    _write_long(out, 0)
    out.write(sync)

    block: list[Any] = []
    named = named_types(schema)

    def flush() -> None:
        if not block:
            return
        buf = io.BytesIO()
        for r in block:
            write_datum(buf, schema, r, named)
        payload = buf.getvalue()
        if codec == "deflate":
            payload = zlib.compress(payload)[2:-4]  # raw deflate per spec
        _write_long(out, len(block))
        _write_long(out, len(payload))
        out.write(payload)
        out.write(sync)
        block.clear()

    for r in records:
        block.append(r)
        if len(block) >= block_records:
            flush()
    flush()
    return out.getvalue()


def read_container(data: bytes) -> tuple[dict, list[Any]]:
    """-> (schema, records)."""
    inp = io.BytesIO(data)
    if inp.read(4) != MAGIC:
        raise ValueError("not an avro container file")
    meta: dict[str, bytes] = {}
    while True:
        n = _read_long(inp)
        if n == 0:
            break
        if n < 0:
            _read_long(inp)
            n = -n
        for _ in range(n):
            k = _read_bytes(inp).decode()
            meta[k] = _read_bytes(inp)
    schema = json.loads(meta["avro.schema"])
    codec = meta.get("avro.codec", b"null").decode()
    sync = inp.read(16)
    named = named_types(schema)
    records: list[Any] = []
    while True:
        head = inp.read(1)
        if not head:
            break
        inp.seek(-1, 1)
        count = _read_long(inp)
        size = _read_long(inp)
        payload = inp.read(size)
        if codec == "deflate":
            payload = zlib.decompress(payload, -15)
        elif codec != "null":
            raise ValueError(f"unsupported avro codec {codec}")
        buf = io.BytesIO(payload)
        for _ in range(count):
            records.append(read_datum(buf, schema, named))
        if inp.read(16) != sync:
            raise ValueError("sync marker mismatch (corrupt avro block)")
    return schema, records


# ---------------------------------------------------------------------------
# standalone .avsc validation (avro/AvroSchemaValidator.java:12-33)
# ---------------------------------------------------------------------------

_PRIMITIVES = {"null", "boolean", "int", "long", "float", "double",
               "bytes", "string"}
_NAME_RE = __import__("re").compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _valid_name(name: Any) -> bool:
    return (isinstance(name, str) and name != ""
            and all(_NAME_RE.match(p) for p in name.split(".")))


def _fullname(schema: dict, ns: str) -> str:
    """A named type's fullname per the Avro spec: a dotted name is already
    full; otherwise its own ``namespace`` or the enclosing one qualifies it
    (an empty namespace is the null namespace)."""
    name = schema.get("name")
    if not isinstance(name, str) or "." in name:
        return name
    space = schema.get("namespace")
    space = space if isinstance(space, str) else ns
    return f"{space}.{name}" if space else name


def _resolve(ref: str, ns: str, named: dict) -> Optional[str]:
    """The defined fullname a type reference names, as Java's
    Schema.Parser resolves it: a short name in the enclosing namespace
    first, then in the null namespace."""
    if "." in ref:
        return ref if ref in named else None
    for full in (f"{ns}.{ref}" if ns else ref, ref):
        if full in named:
            return full
    return None


def _walk_schema(schema: Any, named: dict, errors: list,
                 in_union: bool = False, ns: str = "") -> None:
    """Recursive structural validation with org.apache.avro
    Schema.Parser's rejection rules: unknown type names, malformed
    records/enums/arrays/maps/fixed, duplicate definitions and field
    names, immediately nested unions, duplicate union branches. Named
    types register and resolve by fullname; ``ns`` is the enclosing
    namespace."""
    if isinstance(schema, str):
        if schema not in _PRIMITIVES and _resolve(schema, ns, named) is None:
            errors.append(f'"{schema}" is not a defined name')
        return
    if isinstance(schema, list):
        if in_union:
            errors.append("nested union: unions may not immediately "
                          "contain other unions")
            return
        seen: set = set()
        for branch in schema:
            if isinstance(branch, str):
                key = _resolve(branch, ns, named) or branch
            elif isinstance(branch, dict):
                key = (_fullname(branch, ns)
                       if branch.get("type") in ("record", "enum", "fixed")
                       else json.dumps(branch, sort_keys=True))
            else:
                key = repr(branch)
            if key in seen:
                errors.append(f"duplicate in union: {key}")
            seen.add(key)
            _walk_schema(branch, named, errors, in_union=True, ns=ns)
        return
    if not isinstance(schema, dict):
        errors.append(f"schema must be a string, list or object, "
                      f"got {type(schema).__name__}")
        return
    t = schema.get("type")
    if t is None:
        errors.append('missing "type"')
        return
    if isinstance(t, (list, dict)):
        _walk_schema(t, named, errors, in_union=in_union, ns=ns)
        return
    if t in _PRIMITIVES:
        return
    if t in ("record", "error", "enum", "fixed"):
        kind = "record" if t == "error" else t
        name = schema.get("name")
        full = _fullname(schema, ns)
        if not _valid_name(name) or not _valid_name(full):
            errors.append(f"invalid {kind} name: {name!r}")
        elif full in named:
            errors.append(f"redefinition of {full}")
        else:
            named[full] = schema
        if isinstance(full, str):
            # nested definitions inherit this type's namespace
            ns = full.rpartition(".")[0]
    if t == "record" or t == "error":
        fields = schema.get("fields")
        if not isinstance(fields, list):
            errors.append(f'record {name!r} has no "fields" array')
            return
        fnames: set = set()
        for fld in fields:
            if not isinstance(fld, dict) or "name" not in fld:
                errors.append(f"record {name!r}: field without a name")
                continue
            fn = fld["name"]
            if not _valid_name(fn):
                errors.append(f"invalid field name: {fn!r}")
            if fn in fnames:
                errors.append(f"duplicate field {fn} in record {name!r}")
            fnames.add(fn)
            if "type" not in fld:
                errors.append(f'field {fn!r} has no "type"')
            else:
                _walk_schema(fld["type"], named, errors, ns=ns)
        return
    if t == "enum":
        syms = schema.get("symbols")
        if not isinstance(syms, list) or not all(
                _valid_name(s) and "." not in str(s) for s in syms or []):
            errors.append(f"enum {name!r} needs a list of valid symbols")
        elif len(set(syms)) != len(syms):
            errors.append(f"duplicate symbol in enum {name!r}")
        return
    if t == "array":
        if "items" not in schema:
            errors.append('array has no "items"')
        else:
            _walk_schema(schema["items"], named, errors, ns=ns)
        return
    if t == "map":
        if "values" not in schema:
            errors.append('map has no "values"')
        else:
            _walk_schema(schema["values"], named, errors, ns=ns)
        return
    if t == "fixed":
        size = schema.get("size")
        if not isinstance(size, int) or isinstance(size, bool) or size < 0:
            errors.append(f"fixed {name!r} needs a non-negative int size")
        return
    # a type that is itself a reference to a named/primitive type
    _walk_schema(t, named, errors, in_union=in_union, ns=ns)


def validate_avsc(text: Optional[str]) -> list[str]:
    """Standalone Avro-schema validation
    (avro/AvroSchemaValidator.java:12-33): returns [] when valid, else the
    error list, each prefixed with the reference's wording
    ``invalid avro schema '(<schema>)': <reason>``. Reference semantics
    preserved: None passes (nulls allowed), and a text containing a
    templating expression (``{{ ... }}``) passes unvalidated."""
    if text is None:
        return []
    if "{{" in text and "}}" in text:
        return []   # templating variable: can't validate (reference :19-21)

    def wrap(msg: str) -> str:
        shown = text if len(text) <= 200 else text[:200] + "..."
        return f"invalid avro schema '({shown})': {msg}"

    try:
        schema = json.loads(text)
    except json.JSONDecodeError as e:
        return [wrap(f"not valid JSON: {e}")]
    errors: list[str] = []
    _walk_schema(schema, {}, errors)
    return [wrap(e) for e in errors]
