"""CSV -> Dataset, reproducing CsvToIon's semantics
(/root/reference csv/CsvToIon.java:78-381) Ray-Data-first: one parse task
per file via pyarrow.csv (vectorized), not a per-row Java stream.

Options mirrored (file:line in CsvToIon.java):
  header (:94), field_separator (:101), text_delimiter (:108),
  skip_empty_rows (:115), on_bad_lines ERROR/WARN/SKIP (:129, applied
  :200-210, :228-237), on_empty_header DROP/RENAME (:139, :304-351),
  skip_rows (:146), charset (:153), "\\N" -> null (:240-252),
  UTF-8 BOM strip (:290-298), trailing-unnamed-column drop (:326-339),
  duplicate-header warning (:343-349), positional colN names when
  header=False (:224-257).
"""

from __future__ import annotations

import codecs
import io
from dataclasses import dataclass, field
from typing import Optional

import pyarrow as pa
import pyarrow.csv as pacsv

from ..functions.errors import BadLineError, OnBadLines, handle_bad, logger
from ..util import map_batches


@dataclass
class CsvOptions:
    header: bool = True
    field_separator: str = ","
    text_delimiter: str = '"'
    skip_empty_rows: bool = True
    on_bad_lines: str = "ERROR"          # ERROR | WARN | SKIP
    on_empty_header: str = "DROP"        # DROP | RENAME
    skip_rows: int = 0
    charset: str = "utf-8"
    null_values: list[str] = field(default_factory=lambda: ["\\N"])
    infer_types: bool = True             # False -> all columns stay strings
    # parser resource caps (CsvToIon.java:79-80,158-168 DEFAULT_MAX_*):
    # a malformed multi-GB field must fail the row policy, not the worker
    max_buffer_size: int = 16 << 20
    max_field_size: int = 16 << 20


def _resolve_header(names: list[str], opts: CsvOptions) -> tuple[list[str], list[str]]:
    """Empty-header + trailing-unnamed + duplicate policies
    (CsvToIon.java:304-351). Returns (kept_original_names, new_names)."""
    # drop trailing unnamed columns, but keep at least one column (:326-339)
    while len(names) > 1 and names[-1].strip() == "":
        names = names[:-1]
    kept, new = [], []
    empty_i = 0
    for name in names:
        if name.strip() == "":
            if opts.on_empty_header == "DROP":
                kept.append(name)
                new.append(None)  # mark for drop
                continue
            name = f"col{empty_i}"  # RENAME (:139)
            empty_i += 1
        kept.append(name)
        new.append(name)
    seen = set()
    for n in new:
        if n is not None and n in seen:
            logger.warning("duplicate CSV header %r: last occurrence wins", n)
        seen.add(n)
    return kept, new


def _peek_column_names(data: bytes, opts: CsvOptions) -> list[str]:
    """Column names as pa.csv will see them (header line after skip_rows,
    or autogenerated f0..fN-1), for forcing per-column types."""
    import csv as _csv

    text = data.decode("utf-8", "replace")
    lines = text.splitlines()[opts.skip_rows:]
    if not lines:
        return []
    reader = _csv.reader([lines[0]], delimiter=opts.field_separator,
                         quotechar=opts.text_delimiter or '"')
    first = next(reader, [])
    if opts.header:
        return first
    return [f"f{i}" for i in range(len(first))]


def parse_csv_bytes(data: bytes, opts: Optional[CsvOptions] = None) -> pa.Table:
    """Parse one CSV file's bytes -> Table (runs inside a Ray task)."""
    opts = opts or CsvOptions()
    if data.startswith(codecs.BOM_UTF8):
        data = data[len(codecs.BOM_UTF8):]  # BOM strip (:290-298)
    if opts.charset.lower().replace("_", "-") not in ("utf-8", "utf8", "ascii"):
        data = data.decode(opts.charset).encode("utf-8")

    read_opts = pacsv.ReadOptions(
        skip_rows=opts.skip_rows,
        autogenerate_column_names=not opts.header,
        # the parse buffer cap: a field longer than the block can't be
        # parsed, surfacing as ArrowInvalid -> the bad-lines policy below
        block_size=max(opts.max_buffer_size, 1 << 16),
    )
    parse_opts = pacsv.ParseOptions(
        delimiter=opts.field_separator,
        quote_char=opts.text_delimiter or False,
        ignore_empty_lines=opts.skip_empty_rows,
        invalid_row_handler=_invalid_row_handler(opts),
    )
    if opts.infer_types:
        convert_opts = pacsv.ConvertOptions(
            null_values=list(opts.null_values) + [""],
            strings_can_be_null=True,
            quoted_strings_can_be_null=False,
        )
    else:
        # raw-text mode (the reference's CSV path yields strings, typed
        # later by the Avro layer): force string column types at PARSE time
        # so "001" stays "001" rather than inferring int and re-casting
        convert_opts = pacsv.ConvertOptions(
            null_values=list(opts.null_values),
            strings_can_be_null=True,
            quoted_strings_can_be_null=False,
            column_types={n: pa.string()
                          for n in _peek_column_names(data, opts)},
        )
    try:
        table = pacsv.read_csv(io.BytesIO(data), read_options=read_opts,
                               parse_options=parse_opts,
                               convert_options=convert_opts)
    except pa.ArrowInvalid as e:
        if OnBadLines(opts.on_bad_lines) is OnBadLines.ERROR:
            raise BadLineError(str(e)[:250]) from e
        handle_bad(opts.on_bad_lines, f"csv parse: {e}")
        return pa.table({})
    if opts.max_field_size:
        import pyarrow.compute as pc

        for ci in range(table.num_columns):  # by index: names may repeat
            col = table.column(ci)
            if pa.types.is_string(col.type) or pa.types.is_large_string(col.type) \
                    or pa.types.is_binary(col.type):
                mx = pc.max(pc.binary_length(col)).as_py() or 0
                if mx > opts.max_field_size:
                    handle_bad(opts.on_bad_lines,
                               f"csv field in column {ci} exceeds "
                               f"max_field_size ({mx} > {opts.max_field_size})")
                    keep = pc.less_equal(pc.binary_length(
                        col.combine_chunks()), opts.max_field_size)
                    table = table.filter(pc.fill_null(keep, True))
    if opts.header:
        kept, new = _resolve_header(list(table.column_names), opts)
        table = table.select(list(range(len(kept))))
        keep_idx = [i for i, n in enumerate(new) if n is not None]
        table = table.select(keep_idx).rename_columns(
            [new[i] for i in keep_idx])
    else:
        # positional colN names (CsvToIon.java headerless rows -> list; our
        # columnar equivalent is col0..colN-1)
        table = table.rename_columns(
            [f"col{i}" for i in range(table.num_columns)])
    return table


def _invalid_row_handler(opts: CsvOptions):
    policy = OnBadLines(opts.on_bad_lines)

    def handler(row) -> str:
        # field-count mismatch policy (CsvToIon.java:228-237)
        if policy is OnBadLines.ERROR:
            return "error"
        if policy is OnBadLines.WARN:
            logger.warning("skipping bad csv row: %s", str(row)[:250])
        return "skip"

    return handler


def read_csv(paths: list[str] | str, opts: Optional[CsvOptions] = None,
             concurrency: Optional[int] = None):
    """Distributed CSV read: one parse task per file (files are the
    partition unit, matching the engine's resume granularity)."""
    import ray.data

    opts = opts or CsvOptions()
    if isinstance(paths, str):
        paths = [paths]

    def parse(batch: pa.Table):
        for item in batch.to_pylist():
            with open(item["path"], "rb") as f:
                data = f.read()
            t = parse_csv_bytes(data, opts)
            if t.num_rows or t.num_columns:
                yield t

    ds = ray.data.from_items([{"path": str(p)} for p in paths])
    return map_batches(ds, parse, batch_size=1,
                       concurrency=min(concurrency or 8, len(paths)),
                       num_cpus=1)


def read_csv_table(path: str, opts: Optional[CsvOptions] = None) -> pa.Table:
    """Driver-side single-file parse (tests / small files)."""
    with open(path, "rb") as f:
        return parse_csv_bytes(f.read(), opts)
