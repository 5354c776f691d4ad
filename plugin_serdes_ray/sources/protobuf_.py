"""Protobuf -> Dataset, reproducing ProtobufToIon
(/root/reference protobuf/ProtobufToIon.java:84-225): dynamic-message
decode from a compiled FileDescriptorSet + fully-qualified type name
(:136-146, lookup ProtobufTools.java:13-90), single-message or
length-delimited stream framing (:185-194), unknown-field policy
(:196-200), and ProtoJSON-style dict conversion (:208-209).
"""

from __future__ import annotations

import base64
from typing import Any, Optional

import pyarrow as pa

from ..functions.errors import handle_bad
from ..util import map_batches

try:
    from google.protobuf import descriptor_pb2, descriptor_pool, message_factory
    from google.protobuf.json_format import MessageToDict
    HAVE_PROTOBUF = True
except ImportError:  # pragma: no cover
    HAVE_PROTOBUF = False


def _message_class(descriptor_set_bytes: bytes, type_name: str):
    if not HAVE_PROTOBUF:
        raise ImportError("google.protobuf is required for protobuf sources")
    fds = descriptor_pb2.FileDescriptorSet.FromString(descriptor_set_bytes)
    pool = descriptor_pool.DescriptorPool()
    for f in fds.file:
        pool.Add(f)
    desc = pool.FindMessageTypeByName(type_name.lstrip("."))
    return message_factory.GetMessageClass(desc)


def descriptor_set_for_schema(schema: pa.Schema, package: str = "t",
                              message: str = "Row") -> bytes:
    """Arrow schema -> serialized FileDescriptorSet with one proto2 message
    (proto2: explicit field presence, so zero values round trip instead of
    being dropped by proto3's implicit-default elision)."""
    if not HAVE_PROTOBUF:
        raise ImportError("google.protobuf is required for protobuf sources")
    fmap = {
        "int64": descriptor_pb2.FieldDescriptorProto.TYPE_INT64,
        "int32": descriptor_pb2.FieldDescriptorProto.TYPE_INT32,
        "double": descriptor_pb2.FieldDescriptorProto.TYPE_DOUBLE,
        "float": descriptor_pb2.FieldDescriptorProto.TYPE_FLOAT,
        "bool": descriptor_pb2.FieldDescriptorProto.TYPE_BOOL,
        "string": descriptor_pb2.FieldDescriptorProto.TYPE_STRING,
        "large_string": descriptor_pb2.FieldDescriptorProto.TYPE_STRING,
        "binary": descriptor_pb2.FieldDescriptorProto.TYPE_BYTES,
        "large_binary": descriptor_pb2.FieldDescriptorProto.TYPE_BYTES,
    }
    fds = descriptor_pb2.FileDescriptorSet()
    f = fds.file.add()
    f.name = f"{package}.proto"
    f.package = package
    msg = f.message_type.add()
    msg.name = message
    for i, field in enumerate(schema):
        key = str(field.type)
        if key not in fmap:
            raise ValueError(f"no protobuf mapping for {field.type}")
        fld = msg.field.add()
        fld.name = field.name
        fld.number = i + 1
        fld.type = fmap[key]
        fld.label = descriptor_pb2.FieldDescriptorProto.LABEL_OPTIONAL
    return fds.SerializeToString()


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    acc = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise ValueError("truncated varint (stream ends mid-length)")
        b = data[pos]
        pos += 1
        acc |= (b & 0x7F) << shift
        if not (b & 0x80):
            return acc, pos
        shift += 7


def parse_protobuf_bytes(data: bytes, descriptor_set: bytes, type_name: str,
                         length_delimited: bool = True,
                         error_on_unknown_fields: bool = False,
                         on_bad_lines: str = "ERROR") -> list[dict]:
    """One file's bytes -> list of dict records."""
    cls = _message_class(descriptor_set, type_name)
    messages = []
    if length_delimited:
        pos = 0
        while pos < len(data):
            # framing errors honor the on_bad_lines containment policy like
            # message-level parse errors do; a mis-framed tail cannot be
            # re-synchronized, so the remainder of the file is dropped
            # (WARN/SKIP) or raises (ERROR)
            try:
                size, pos = _read_varint(data, pos)
                if size > len(data) - pos:
                    raise ValueError(
                        f"declared size {size} exceeds remaining "
                        f"{len(data) - pos} bytes (truncated message)")
            except ValueError as e:
                handle_bad(on_bad_lines, f"protobuf framing at byte {pos}: {e}")
                break
            chunk = data[pos:pos + size]
            pos += size
            messages.append(chunk)
    else:
        messages = [data]
    bytes_fields = [f.name for f in cls.DESCRIPTOR.fields
                    if f.type == f.TYPE_BYTES]
    out: list[dict] = []
    for i, chunk in enumerate(messages):
        try:
            msg = cls()
            msg.ParseFromString(chunk)
            if error_on_unknown_fields and msg.UnknownFields():
                raise ValueError(f"unknown fields in message {i}")
            rec = MessageToDict(msg, preserving_proto_field_name=True)
            # ProtoJSON renders bytes fields as base64 STRINGS — return the
            # actual bytes so records carry the original payload
            for name in bytes_fields:
                v = rec.get(name)
                if isinstance(v, str):
                    rec[name] = base64.b64decode(v)
            out.append(rec)
        except Exception as e:
            handle_bad(on_bad_lines, f"protobuf message {i}: {e}")
    return out


def serialize_protobuf(records: list[dict], descriptor_set: bytes,
                       type_name: str, length_delimited: bool = True) -> bytes:
    """Inverse path (for tests / round trips)."""
    from google.protobuf.json_format import ParseDict

    cls = _message_class(descriptor_set, type_name)
    bytes_fields = {f.name for f in cls.DESCRIPTOR.fields
                    if f.type == f.TYPE_BYTES}
    chunks = []
    for r in records:
        if bytes_fields:
            # ProtoJSON expects bytes fields as base64 strings; raw bytes
            # only parsed when they HAPPENED to be valid base64 (and were
            # then silently decoded into different bytes)
            r = {k: (base64.b64encode(bytes(v)).decode()
                     if k in bytes_fields and isinstance(v, (bytes, bytearray))
                     else v)
                 for k, v in r.items()}
        msg = ParseDict(r, cls())
        payload = msg.SerializeToString()
        if length_delimited:
            n = len(payload)
            var = b""
            while True:
                b7 = n & 0x7F
                n >>= 7
                var += bytes([b7 | 0x80] if n else [b7])
                if not n:
                    break
            chunks.append(var + payload)
        else:
            chunks.append(payload)
    return b"".join(chunks)


def read_protobuf(paths: list[str] | str, descriptor_set_path: str,
                  type_name: str, length_delimited: bool = True,
                  on_bad_lines: str = "ERROR",
                  concurrency: Optional[int] = None):
    import ray.data

    if isinstance(paths, str):
        paths = [paths]
    with open(descriptor_set_path, "rb") as f:
        descriptor_set = f.read()

    def parse(batch: pa.Table):
        for item in batch.to_pylist():
            with open(item["path"], "rb") as fh:
                records = parse_protobuf_bytes(
                    fh.read(), descriptor_set, type_name,
                    length_delimited, on_bad_lines=on_bad_lines)
            if records:
                yield pa.Table.from_pylist(records)

    ds = ray.data.from_items([{"path": str(p)} for p in paths])
    return map_batches(ds, parse, batch_size=1,
                       concurrency=min(concurrency or 8, len(paths)),
                       num_cpus=1)
