"""Excel (.xlsx) -> Dataset, reproducing ExcelToIon
(/root/reference excel/ExcelToIon.java:73-341) without openpyxl (absent in
this environment): xlsx is a ZIP of XML parts (ECMA-376, public spec), read
with stdlib zipfile + ElementTree.

Mirrored options: per-sheet output map (:153,219-222), header / skip_rows /
skip_empty_rows (:116-131), missing header cells -> ColumnN (:185),
value_render FORMATTED/UNFORMATTED (formula caching means we read cached
values; FORMULA mode returns the formula string, :254-262), date_time_render
UNFORMATTED -> ISO strings / SERIAL_NUMBER (:295-314).
"""

from __future__ import annotations

import datetime
import io
import re
import zipfile
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Any, Optional

import pyarrow as pa

from ..util import map_batches

NS = "{http://schemas.openxmlformats.org/spreadsheetml/2006/main}"
RNS = "{http://schemas.openxmlformats.org/officeDocument/2006/relationships}"
PKG_RNS = "{http://schemas.openxmlformats.org/package/2006/relationships}"

EXCEL_EPOCH = datetime.datetime(1899, 12, 30)


@dataclass
class ExcelOptions:
    sheets: Optional[list[str]] = None    # None = all sheets
    header: bool = True
    skip_rows: int = 0
    skip_empty_rows: bool = True
    # UNFORMATTED(_VALUE) | FORMATTED(_VALUE) | FORMULA (ValueRender.java:3-9)
    value_render: str = "UNFORMATTED"
    # UNFORMATTED(_VALUE) -> ISO date string | SERIAL_NUMBER | FORMATTED_STRING
    # (DateTimeRender.java:3-7)
    date_time_render: str = "UNFORMATTED"


_COL_RE = re.compile(r"([A-Z]+)(\d+)")

# ECMA-376 built-in number formats (the subset POI's DataFormatter covers
# for ids < 164; custom ids >= 164 come from styles.xml numFmts)
_BUILTIN_FMTS = {
    0: "General", 1: "0", 2: "0.00", 3: "#,##0", 4: "#,##0.00",
    9: "0%", 10: "0.00%", 11: "0.00E+00", 12: "# ?/?", 13: "# ??/??",
    14: "m/d/yy", 15: "d-mmm-yy", 16: "d-mmm", 17: "mmm-yy",
    18: "h:mm AM/PM", 19: "h:mm:ss AM/PM", 20: "h:mm", 21: "h:mm:ss",
    22: "m/d/yy h:mm", 37: "#,##0;(#,##0)", 38: "#,##0;[Red](#,##0)",
    39: "#,##0.00;(#,##0.00)", 40: "#,##0.00;[Red](#,##0.00)",
    45: "mm:ss", 46: "[h]:mm:ss", 47: "mm:ss.0", 48: "##0.0E+0", 49: "@",
}

_DATE_TOKEN_RE = re.compile(r"[ymdhs]", re.IGNORECASE)


def _is_date_fmt(code: str) -> bool:
    """POI DateUtil.isADateFormat analog: y/m/d/h/s tokens outside quoted
    literals, [brackets] and color/condition sections mean a date format."""
    if not code or code == "General":
        return False
    stripped = re.sub(r'"[^"]*"', "", code)
    stripped = re.sub(r"\[[^\]]*\]", "", stripped)
    stripped = stripped.split(";")[0]           # positive section governs
    stripped = stripped.replace("AM/PM", "")
    return bool(_DATE_TOKEN_RE.search(stripped)) and not re.search(
        r"[#0?]", stripped)


def _fmt_general(num: float) -> str:
    if num == int(num) and abs(num) < 1e15:
        return str(int(num))
    return f"{num:.11g}"


def _strftime_pattern(code: str, has_ampm: bool) -> str:
    """Excel date format code -> strftime pattern (common-token subset).
    'm' means minutes when adjacent to h/s, months otherwise (POI rule)."""
    code = code.split(";")[0]
    code = re.sub(r"\[[^\]]*\]", "", code)
    out = []
    i = 0
    n = len(code)
    last_field = ""     # last y/m/d/h/s field seen, separators skipped
    while i < n:
        ch = code[i]
        low = ch.lower()
        if code[i:i + 5].upper() == "AM/PM":
            out.append("%p")
            i += 5
            last_field = "h"    # m after AM/PM is still minutes territory
            continue
        if ch == '"':                           # quoted literal
            j = code.index('"', i + 1) if '"' in code[i + 1:] else n - 1
            out.append(code[i + 1:j].replace("%", "%%"))
            i = j + 1
            continue
        if low in "ymdhs":
            j = i
            while j < n and code[j].lower() == low:
                j += 1
            run = j - i
            if low == "y":
                out.append("%Y" if run >= 4 else "%y")
            elif low == "d":
                out.append("%d" if run >= 2 else "%-d")
            elif low == "h":
                out.append(("%I" if has_ampm else "%H") if run >= 2
                           else ("%-I" if has_ampm else "%-H"))
            elif low == "s":
                out.append("%S" if run >= 2 else "%-S")
            elif low == "m":
                # POI rule: m is minutes when the nearest h/s neighbour is
                # a time field (preceding h, or a following s)
                rest = code[j:].lower()
                next_field = next((c for c in rest if c in "ymdhs"), "")
                if last_field == "h" or next_field == "s":
                    out.append("%M" if run >= 2 else "%-M")
                elif run >= 4:
                    out.append("%B")
                elif run == 3:
                    out.append("%b")
                else:
                    out.append("%m" if run == 2 else "%-m")
            last_field = low
            i = j
            continue
        out.append("%%" if ch == "%" else ch)
        i += 1
    return "".join(out)


def _serial_to_datetime(num: float) -> datetime.datetime:
    return EXCEL_EPOCH + datetime.timedelta(days=num)


def format_cell_value(num: float, code: str) -> str:
    """Mini POI-DataFormatter: apply an Excel number-format code to a
    numeric cell value (General, fixed decimals, thousands separators,
    percents, scientific, text '@', and date/time codes)."""
    if _is_date_fmt(code):
        dt = _serial_to_datetime(num)
        pat = _strftime_pattern(code, has_ampm="AM/PM" in code.upper())
        s = dt.strftime(pat.replace("%-", "%#") if _WINDOWS else pat)
        return s
    if code in ("General", "@", ""):
        return _fmt_general(num)
    section = code.split(";")[0]
    section = re.sub(r"\[[^\]]*\]", "", section)
    pct = section.endswith("%")
    if pct:
        num = num * 100
        section = section[:-1]
    if re.search(r"[eE]\+?0", section):
        m = re.search(r"\.([0#]+)[eE]", section)
        dec = len(m.group(1)) if m else 2
        # Excel's E+00 pads the exponent to (at least) two digits; the old
        # replace chain re-padded 2-digit exponents into E+012
        s = f"{num:.{dec}E}"
        s = re.sub(r"[eE]([+-])(\d+)$",
                   lambda mm: "E" + mm.group(1) + mm.group(2).zfill(2)
                   .lstrip("0").rjust(2, "0"), s)
        return s + ("%" if pct else "")
    m = re.search(r"\.([0#]+)", section)
    dec = len(m.group(1)) if m else 0
    grouped = "," in section
    if grouped:
        s = f"{num:,.{dec}f}"
    else:
        s = f"{num:.{dec}f}"
    return s + ("%" if pct else "")


_WINDOWS = False  # strftime %-d is glibc; the sandbox and CI are linux


def _parse_styles(zf: "zipfile.ZipFile") -> list[str]:
    """styles.xml -> format code per cell-style index (cellXfs order)."""
    if "xl/styles.xml" not in zf.namelist():
        return []
    root = ET.fromstring(zf.read("xl/styles.xml"))
    custom = {}
    fmts = root.find(f"{NS}numFmts")
    if fmts is not None:
        for f in fmts.findall(f"{NS}numFmt"):
            custom[int(f.get("numFmtId"))] = f.get("formatCode") or "General"
    out = []
    xfs = root.find(f"{NS}cellXfs")
    if xfs is not None:
        for xf in xfs.findall(f"{NS}xf"):
            fid = int(xf.get("numFmtId") or 0)
            out.append(custom.get(fid) or _BUILTIN_FMTS.get(fid, "General"))
    return out


def _col_index(ref: str) -> int:
    m = _COL_RE.match(ref)
    acc = 0
    for ch in m.group(1):
        acc = acc * 26 + (ord(ch) - 64)
    return acc - 1


def read_xlsx_bytes(data: bytes, opts: Optional[ExcelOptions] = None
                    ) -> dict[str, pa.Table]:
    """xlsx bytes -> {sheet_name: Table} (the per-sheet output map)."""
    opts = opts or ExcelOptions()
    zf = zipfile.ZipFile(io.BytesIO(data))

    shared: list[str] = []
    if "xl/sharedStrings.xml" in zf.namelist():
        root = ET.fromstring(zf.read("xl/sharedStrings.xml"))
        for si in root.findall(f"{NS}si"):
            shared.append("".join(t.text or "" for t in si.iter(f"{NS}t")))
    styles = _parse_styles(zf)

    wb = ET.fromstring(zf.read("xl/workbook.xml"))
    rels = ET.fromstring(zf.read("xl/_rels/workbook.xml.rels"))
    rel_map = {r.get("Id"): r.get("Target") for r in rels.iter(f"{PKG_RNS}Relationship")}

    out: dict[str, pa.Table] = {}
    for sheet in wb.find(f"{NS}sheets").findall(f"{NS}sheet"):
        name = sheet.get("name")
        if opts.sheets and name not in opts.sheets:
            continue
        target = rel_map[sheet.get(f"{RNS}id")]
        if not target.startswith("/"):
            target = "xl/" + target
        else:
            target = target[1:]
        rows = _parse_sheet(zf.read(target), shared, styles, opts)
        out[name] = _rows_to_table(rows, opts)
    return out


def _parse_sheet(xml_bytes: bytes, shared: list[str], styles: list[str],
                 opts: ExcelOptions) -> list[list[Any]]:
    root = ET.fromstring(xml_bytes)
    vr = opts.value_render.upper()
    dr = opts.date_time_render.upper()
    formatted = vr in ("FORMATTED", "FORMATTED_VALUE")
    rows: list[list[Any]] = []
    for row in root.iter(f"{NS}row"):
        cells: dict[int, Any] = {}
        for c in row.findall(f"{NS}c"):
            ref = c.get("r") or ""
            idx = _col_index(ref) if ref else len(cells)
            t = c.get("t", "n")
            v_el = c.find(f"{NS}v")
            is_el = c.find(f"{NS}is")
            # NOTE the reference's FORMULA render returns the CACHED formula
            # result (ExcelToIon.java:263-271 getCachedFormulaResultType),
            # never the formula text — so formula cells always fall through
            # to their cached <v> here, whatever the render mode
            if t == "s" and v_el is not None:
                cells[idx] = shared[int(v_el.text)]
            elif t == "inlineStr" and is_el is not None:
                cells[idx] = "".join(x.text or "" for x in is_el.iter(f"{NS}t"))
            elif t == "b" and v_el is not None:
                b = v_el.text == "1"
                cells[idx] = ("TRUE" if b else "FALSE") if formatted else b
            elif t == "str" and v_el is not None:
                cells[idx] = v_el.text
            elif t == "e":
                # error cell (#DIV/0!, #N/A, #REF!, ...): POI surfaces the
                # error TEXT, never a crash — the numeric fallthrough would
                # die on float('#DIV/0!') and abort the whole sheet
                cells[idx] = (v_el.text if v_el is not None else None) \
                    if formatted else None
            elif v_el is not None and v_el.text is not None:
                num = float(v_el.text)
                s_idx = c.get("s")
                code = (styles[int(s_idx)]
                        if s_idx is not None and int(s_idx) < len(styles)
                        else "General")
                if _is_date_fmt(code):
                    # ExcelToIon.java:295-314 convertNumeric
                    if dr == "SERIAL_NUMBER":
                        cells[idx] = num
                    elif dr == "FORMATTED_STRING":
                        cells[idx] = format_cell_value(num, code)
                    else:   # UNFORMATTED_VALUE -> ISO local-date string
                        cells[idx] = _serial_to_datetime(num).date().isoformat()
                elif formatted:
                    cells[idx] = format_cell_value(num, code)
                else:
                    cells[idx] = int(num) if num == int(num) else num
            else:
                cells[idx] = None
        if not cells:
            rows.append([])
            continue
        width = max(cells) + 1
        rows.append([cells.get(i) for i in range(width)])
    return rows


def _rows_to_table(rows: list[list[Any]], opts: ExcelOptions) -> pa.Table:
    rows = rows[opts.skip_rows:]
    if opts.skip_empty_rows:
        rows = [r for r in rows if any(v is not None for v in r)]
    if not rows:
        return pa.table({})
    width = max(len(r) for r in rows)
    if opts.header:
        header = rows[0] + [None] * (width - len(rows[0]))
        names = [str(h) if h is not None else f"Column{i + 1}"  # :185
                 for i, h in enumerate(header)]
        body = rows[1:]
    else:
        names = [f"Column{i + 1}" for i in range(width)]
        body = rows
    if len(set(names)) != len(names):
        # duplicate header cells would collapse into ONE dict key while
        # still appending one value per positional column (length-mismatch
        # crash, or silently interleaved rows); suffix duplicates instead
        # (reference warns on header collisions, CsvToIon.java:343-349)
        import warnings

        seen: dict[str, int] = {}
        uniq = []
        for n in names:
            k = seen.get(n, 0)
            seen[n] = k + 1
            uniq.append(n if k == 0 else f"{n}_{k + 1}")
        dups = sorted(n for n, c in seen.items() if c > 1)
        warnings.warn(f"duplicate header names {dups!r} suffixed to stay "
                      "positional")
        names = uniq
    cols: dict[str, list[Any]] = {n: [] for n in names}
    for r in body:
        for i, n in enumerate(names):
            cols[n].append(r[i] if i < len(r) else None)
    arrays = {}
    for n, vals in cols.items():
        try:
            arrays[n] = pa.array(vals)
        except (pa.ArrowInvalid, pa.ArrowTypeError):
            arrays[n] = pa.array([None if v is None else str(v) for v in vals],
                                 type=pa.string())
    return pa.table(arrays)


def read_excel(paths: list[str] | str, opts: Optional[ExcelOptions] = None,
               sheet: Optional[str] = None, concurrency: Optional[int] = None):
    """Distributed read of ONE sheet across files -> Dataset."""
    import ray.data

    opts = opts or ExcelOptions()
    if isinstance(paths, str):
        paths = [paths]

    def parse(batch: pa.Table):
        for item in batch.to_pylist():
            with open(item["path"], "rb") as f:
                sheets = read_xlsx_bytes(f.read(), opts)
            if sheet is not None:
                yield sheets[sheet]
            else:
                yield next(iter(sheets.values()))

    ds = ray.data.from_items([{"path": str(p)} for p in paths])
    return map_batches(ds, parse, batch_size=1,
                       concurrency=min(concurrency or 8, len(paths)),
                       num_cpus=1)


def read_excel_tables(path: str, opts: Optional[ExcelOptions] = None
                      ) -> dict[str, pa.Table]:
    with open(path, "rb") as f:
        return read_xlsx_bytes(f.read(), opts)
