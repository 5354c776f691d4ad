"""XML -> Dataset, reproducing XmlToIon
(/root/reference xml/XmlToIon.java:75-422):

- whole-file mode: document -> nested dict with root-array unwrap
  (:135-198);
- query mode: a path like ``/catalog/book`` extracts each matching element
  as one record (the StAX streaming path, :200-289) — here via stdlib
  ElementTree iteration (external entities are never resolved by
  ElementTree, matching the reference's hardening at :209-210);
- force_list: element names that must always parse as lists (:416-421).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Any, Optional

import pyarrow as pa


@dataclass
class XmlOptions:
    query: Optional[str] = None          # e.g. "/catalog/book"
    force_list: list[str] = field(default_factory=list)
    charset: str = "utf-8"
    attr_prefix: str = ""                # attributes merge as plain keys


def _elem_to_value(el: ET.Element, opts: XmlOptions) -> Any:
    """Element -> dict/str following org.json XML.toJSONObject conventions:
    attributes as keys, repeated children as lists, text content as value."""
    children = list(el)
    attrs = {opts.attr_prefix + k: _typed(v) for k, v in el.attrib.items()}
    if not children:
        text = (el.text or "").strip()
        if attrs:
            if text:
                attrs["content"] = _typed(text)
            return attrs
        return _typed(text) if text else None
    out: dict[str, Any] = dict(attrs)
    for ch in children:
        v = _elem_to_value(ch, opts)
        tag = ch.tag
        if tag in out:
            if not isinstance(out[tag], list):
                out[tag] = [out[tag]]
            out[tag].append(v)
        elif tag in opts.force_list:
            out[tag] = [v]
        else:
            out[tag] = v
    return out


def _typed(s: str) -> Any:
    """org.json-style scalar typing: booleans and numbers parse."""
    low = s.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        if s.strip() and s.strip().lstrip("+-").isdigit():
            return int(s)
        return float(s) if any(c.isdigit() for c in s) and \
            s.strip().replace(".", "", 1).lstrip("+-").isdigit() else s
    except ValueError:
        return s


def parse_xml_bytes(data: bytes, opts: Optional[XmlOptions] = None) -> list[Any]:
    opts = opts or XmlOptions()
    root = ET.fromstring(data.decode(opts.charset))
    if opts.query:
        parts = [p for p in opts.query.split("/") if p]
        if not parts or parts[0] != root.tag:
            return []
        elems = [root]
        for p in parts[1:]:
            elems = [c for e in elems for c in e if c.tag == p]
        return [_elem_to_value(e, opts) for e in elems]
    value = {root.tag: _elem_to_value(root, opts)}
    # root-array unwrap (:135-198): a root whose single child list IS the data
    inner = value[root.tag]
    if isinstance(inner, dict) and len(inner) == 1:
        (only,) = inner.values()
        if isinstance(only, list):
            return only
    return [value]


def iter_xml_query(source, opts: XmlOptions, batch_records: int = 1024,
                   stats: Optional[dict] = None):
    """STREAMING query mode (the reference's StAX path, XmlToIon.java:
    200-289): yields lists of records matching ``/a/b`` without ever holding
    the document — each finished element (matching OR not) is converted if
    needed, detached from its parent and cleared, so memory is O(one record
    + current ancestry), not O(file). A 10 GB XML streams in bounded
    batches. ``stats`` (tests) records max_root_children, the high-water
    mark of elements attached under the root."""
    parts = [p for p in opts.query.split("/") if p]
    path: list[str] = []
    elem_stack: list[ET.Element] = []
    batch: list[Any] = []
    max_root_children = 0
    for event, el in ET.iterparse(source, events=("start", "end")):
        if event == "start":
            path.append(el.tag)
            elem_stack.append(el)
            continue
        if stats is not None and elem_stack:
            max_root_children = max(max_root_children, len(elem_stack[0]))
            stats["max_root_children"] = max_root_children
        if path == parts:
            batch.append(_elem_to_value(el, opts))
            if len(elem_stack) >= 2:        # free the finished subtree
                try:
                    elem_stack[-2].remove(el)
                except ValueError:
                    pass
            el.clear()
            if len(batch) >= batch_records:
                yield batch
                batch = []
        elif len(path) <= len(parts) and path != parts[:len(path)]:
            # off the match spine: this subtree can never contain a match,
            # so NON-matching siblings must not accumulate under the root
            # (a 10 GB file of mostly-unmatched elements would OOM)
            if len(elem_stack) >= 2:
                try:
                    elem_stack[-2].remove(el)
                except ValueError:
                    pass
            el.clear()
        path.pop()
        elem_stack.pop()
    if batch:
        yield batch


from ..util import map_batches
from ._tabulate import records_to_table as _records_to_table  # shared


def read_xml(paths: list[str] | str, opts: Optional[XmlOptions] = None,
             concurrency: Optional[int] = None, batch_records: int = 4096):
    import ray.data

    opts = opts or XmlOptions()
    if isinstance(paths, str):
        paths = [paths]

    def parse(batch: pa.Table):
        for item in batch.to_pylist():
            if opts.query:
                # streaming path: never loads the whole document
                if opts.charset.lower().replace("-", "") in ("utf8", "ascii"):
                    with open(item["path"], "rb") as f:
                        for recs in iter_xml_query(f, opts, batch_records):
                            yield _records_to_table(recs)
                else:   # exotic charset: transcode (rare; bounded by file)
                    import io
                    data = open(item["path"], "rb").read().decode(opts.charset)
                    for recs in iter_xml_query(io.BytesIO(data.encode()),
                                               opts, batch_records):
                        yield _records_to_table(recs)
                continue
            with open(item["path"], "rb") as f:
                records = parse_xml_bytes(f.read(), opts)
            if records:
                yield _records_to_table(records)

    ds = ray.data.from_items([{"path": str(p)} for p in paths])
    return map_batches(ds, parse, batch_size=1,
                       concurrency=min(concurrency or 8, len(paths)),
                       num_cpus=1)


def read_xml_table(path: str, opts: Optional[XmlOptions] = None) -> pa.Table:
    """Table-level XML read. Unlike the generic :func:`parse_xml_bytes`
    (reference-faithful: the root-array unwrap needs >= 2 rows, a single
    nested element is ambiguous — same as org.json's XML.toJSONObject),
    this reader KNOWS the document is a table, so the 1-row shape
    ``{root: {row: {...}}}`` unwraps to one record and an empty root to
    zero records."""
    with open(path, "rb") as f:
        recs = parse_xml_bytes(f.read(), opts)
    if len(recs) == 1 and isinstance(recs[0], dict) and len(recs[0]) == 1:
        (inner,) = recs[0].values()
        if inner is None:                      # <items/> — empty table
            return pa.table({})
        if isinstance(inner, dict) and len(inner) == 1:
            (row,) = inner.values()
            if isinstance(row, dict):          # single <item> — one row
                recs = [row]
    return _records_to_table(recs)
