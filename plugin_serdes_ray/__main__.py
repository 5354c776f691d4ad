"""CLI: the task-level surface a kestra-io/plugin-serdes user would switch
to (each subcommand ≈ one reference task family).

    python -m plugin_serdes_ray encode  IN_DIR OUT_DIR   # parquet -> .grck
    python -m plugin_serdes_ray decode  IN_DIR OUT.parquet
    python -m plugin_serdes_ray verify  IN_DIR GRCK_DIR  # bit-identity check
    python -m plugin_serdes_ray convert IN OUT           # format by extension
    python -m plugin_serdes_ray infer   IN               # print .avsc

Starts a Ray session only when none is running, and shuts down only a
session it started — library code never calls ray.init.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

from .util import map_batches


def _ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")
    return ray


def _input_files(path: str) -> list[str]:
    if os.path.isdir(path):
        return sorted(glob.glob(os.path.join(path, "*.parquet")))
    return [path]


def last_json_line(text: str):
    """The CLI's machine-readable contract: each command prints its JSON
    result as the LAST line of stdout. Consumers (and the test suite)
    should parse the last line that parses as JSON — Ray and third-party
    libraries can emit stray warnings on stdout under contention."""
    for line in reversed([ln for ln in text.splitlines() if ln.strip()]):
        try:
            json.loads(line)
        except ValueError:
            continue
        return line
    # multi-line pretty-printed JSON (e.g. `infer`'s .avsc output): the
    # whole text, or its largest '{'-suffix, may be one document
    for start in [0] + [i for i, c in enumerate(text) if c == "{"][:1]:
        chunk = text[start:].strip()
        if chunk:
            try:
                json.loads(chunk)
                return json.dumps(json.loads(chunk))
            except ValueError:
                pass
    return None


def cmd_encode(args) -> int:
    _ray()
    from .encode import encode_files

    summary = encode_files(_input_files(args.input), args.output,
                           resume=not args.no_resume,
                           outer_level=args.outer_level)
    print(json.dumps(summary, default=str))
    return 0


def cmd_decode(args) -> int:
    import pyarrow.parquet as pq

    from .encode import decode_table

    table = decode_table(args.input)
    pq.write_table(table, args.output)
    print(json.dumps({"rows": table.num_rows, "out": args.output}))
    return 0


def cmd_compact(args) -> int:
    _ray()
    from .encode import compact_parts

    summary = compact_parts(args.input, args.output,
                            target_part_bytes=args.target_mb << 20,
                            resume=not args.no_resume)
    print(json.dumps(summary, default=str))
    return 0


def _typed_where_value(input_dir: str, col: str, value: str):
    """Cast a --where VALUE to the STORED column's type (ADVICE r4: the
    old blanket int/float auto-cast turned a numeric-looking string value
    for a string column into an int, crashing the comparison kernel).
    Peeks one part header's embedded Arrow schema; an unknown column
    (schema evolution) falls back to the permissive numeric guess."""
    import pyarrow as pa

    from .container import header_schema, read_header
    from .encode import _part_files

    for f in _part_files(input_dir)[:1]:
        schema = header_schema(read_header(f))
        if col not in schema.names:
            break
        t = schema.field(col).type
        if pa.types.is_dictionary(t):
            t = t.value_type
        if pa.types.is_integer(t):
            return int(value)
        if pa.types.is_floating(t) or pa.types.is_decimal(t):
            return float(value)
        if pa.types.is_boolean(t):
            return value.strip().lower() in ("1", "true", "t", "yes", "on")
        return value     # string/binary/temporal: compare as given
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def cmd_count(args) -> int:
    _ray()
    from .encode import count_rows

    def one_where(tokens):
        if len(tokens) == 2:
            col, op = tokens
            value = None
            if op not in ("is_null", "not_null"):
                raise SystemExit(f"--where: op {op!r} needs a VALUE")
        elif len(tokens) == 3:
            col, op, value = tokens
        else:
            raise SystemExit("--where takes COL OP [VALUE]")
        if value is not None and op not in ("is_null", "not_null"):
            value = _typed_where_value(args.input, col, value)
        return (col, op, value)

    pred = None
    if args.where:
        disjuncts = [one_where(w) for w in args.where]
        # one --where = plain conjunct; several = OR of them (DNF)
        pred = disjuncts[0] if len(disjuncts) == 1 else \
            [[d] for d in disjuncts]
    if args.explain:
        from .encode import explain_pruning

        rep = explain_pruning(args.input, pred)
        kept = sum(1 for k in rep.column("kept").to_pylist() if k)
        print(json.dumps({
            "parts": rep.num_rows, "kept": kept,
            "pruned": rep.num_rows - kept,
            "detail": rep.to_pylist()}, default=str))
        return 0
    n = count_rows(args.input, predicate=pred)
    print(json.dumps({"rows": n, "predicate": list(pred) if pred else None},
                     default=str))
    return 0


def cmd_scrub(args) -> int:
    _ray()
    from .encode import verify_container

    rep = verify_container(args.input, deep=args.deep)
    bad = [r for r in rep["parts"].to_pylist() if not r["ok"]]
    print(json.dumps({
        "ok": rep["ok"],
        "parts": rep["parts"].num_rows,
        "bad_parts": bad,
        "manifest_missing": rep["manifest_missing"],
        "orphans": rep["orphans"],
        "row_mismatches": rep["row_mismatches"],
    }, default=str))
    return 0 if rep["ok"] else 1


def cmd_verify(args) -> int:
    import pyarrow as pa
    import pyarrow.parquet as pq

    from .encode import decode_table
    from .testing import tables_equal

    orig = pa.concat_tables([pq.read_table(f) for f in _input_files(args.input)])
    dec = decode_table(args.grck_dir)
    ok = tables_equal(orig, dec)
    print(json.dumps({"rows": orig.num_rows, "bit_identical": ok}))
    return 0 if ok else 1


_READERS = {
    ".csv": ("plugin_serdes_ray.sources.csv_", "read_csv_table"),
    ".json": ("plugin_serdes_ray.sources.json_", "read_json_table"),
    ".jsonl": ("plugin_serdes_ray.sources.json_", "read_json_table"),
    ".yaml": ("plugin_serdes_ray.sources.yaml_", "read_yaml_table"),
    ".yml": ("plugin_serdes_ray.sources.yaml_", "read_yaml_table"),
    ".xml": ("plugin_serdes_ray.sources.xml_", "read_xml_table"),
    ".avro": ("plugin_serdes_ray.sources.avro_", "read_avro_table"),
    ".xlsx": ("plugin_serdes_ray.sources.excel_", "read_excel_tables"),
    ".parquet": ("plugin_serdes_ray.sources.parquet_", "read_parquet_table"),
}


def _read_any(path: str):
    import importlib

    ext = os.path.splitext(path)[1].lower()
    if ext == ".toon":
        from .functions import toon
        import pyarrow as pa
        value = toon.decode(open(path).read())
        if isinstance(value, dict) and len(value) == 1 \
                and isinstance(next(iter(value.values())), list):
            value = next(iter(value.values()))  # {"rows": [...]} wrapper
        rows = value if isinstance(value, list) else [value]
        return pa.Table.from_pylist(rows)
    if ext not in _READERS:
        raise SystemExit(f"unsupported input format: {ext or path!r} "
                         f"(supported: {', '.join(sorted(_READERS))}, .toon)")
    mod_name, fn_name = _READERS[ext]
    fn = getattr(importlib.import_module(mod_name), fn_name)
    if ext == ".json":
        # .json = whole-file array/object; only .jsonl gets NDJSON
        # semantics (the reader's default), which misparses or crashes
        # on standard JSON documents
        from .sources.json_ import JsonOptions

        out = fn(path, JsonOptions(newline_delimited=False))
    else:
        out = fn(path)
    if isinstance(out, dict):  # xlsx sheet map -> first sheet
        out = next(iter(out.values()))
    return out


def _write_any(table, path: str) -> None:
    ext = os.path.splitext(path)[1].lower()
    if ext == ".csv":
        from .sinks.csv_ import table_to_csv_bytes
        open(path, "wb").write(table_to_csv_bytes(table))
    elif ext in (".json", ".jsonl"):
        from .sinks.json_ import JsonWriteOptions, table_to_json_bytes
        open(path, "wb").write(table_to_json_bytes(
            table, JsonWriteOptions(newline_delimited=ext == ".jsonl")))
    elif ext in (".yaml", ".yml"):
        from .sinks.yaml_ import table_to_yaml_bytes
        open(path, "wb").write(table_to_yaml_bytes(table))
    elif ext == ".xml":
        from .sinks.xml_ import table_to_xml_bytes
        open(path, "wb").write(table_to_xml_bytes(table))
    elif ext == ".avro":
        from .sinks.avro_ import table_to_avro_bytes
        open(path, "wb").write(table_to_avro_bytes(table))
    elif ext == ".xlsx":
        from .sinks.excel_ import tables_to_xlsx_bytes
        open(path, "wb").write(tables_to_xlsx_bytes({"Sheet1": table}))
    elif ext == ".toon":
        from .functions import toon
        open(path, "w").write(toon.encode({"rows": table.to_pylist()}))
    elif ext == ".parquet":
        from .sinks.parquet_ import table_to_parquet_bytes
        open(path, "wb").write(table_to_parquet_bytes(table))
    else:
        raise SystemExit(f"unsupported output format: {ext}")


def cmd_convert(args) -> int:
    table = _read_any(args.input)
    _write_any(table, args.output)
    print(json.dumps({"rows": table.num_rows, "out": args.output}))
    return 0


def cmd_infer(args) -> int:
    from .functions.infer import infer_rows, to_avsc

    table = _read_any(args.input)
    root = infer_rows(table.to_pylist(),
                      number_of_rows_to_scan=args.rows,
                      infer_all_fields=args.all)
    print(to_avsc(root))
    return 0


def _stream_to_parquet(ds, path: str) -> int:
    """Stream a Dataset to ONE parquet file without materializing it on the
    driver: one batch in memory at a time through a ParquetWriter.  (Corpus-
    sized CLI outputs must not pass through ``take_all()``.)"""
    import pyarrow as pa
    import pyarrow.parquet as pq

    writer, n = None, 0
    try:
        for batch in ds.iter_batches(batch_format="pyarrow",
                                     batch_size=32768):
            t = pa.Table.from_batches([batch]) \
                if isinstance(batch, pa.RecordBatch) else batch
            if writer is None:
                writer = pq.ParquetWriter(path, t.schema)
            elif t.schema != writer.schema:
                t = t.select(writer.schema.names).cast(writer.schema)
            writer.write_table(t)
            n += t.num_rows
        if writer is None:  # empty result: still emit a valid file
            sch = ds.schema()   # None when Ray cannot determine one
            writer = pq.ParquetWriter(
                path, pa.schema(sch.base_schema) if sch is not None
                else pa.schema([]))
    finally:
        if writer is not None:
            writer.close()
    return n


def cmd_dedup(args) -> int:
    """Near-dup/exact dedup of a parquet table -> deduped parquet."""
    import ray.data

    _ray()
    ds = ray.data.read_parquet(_input_files(args.input))
    if args.method == "exact":
        from .pipelines.dedup import exact_dedup

        out = exact_dedup(ds, args.column, args.id_column)
    elif args.method == "semdedup":
        import pyarrow.compute as pc

        from .pipelines.dedup import semdedup
        from .pipelines.relational import semi_join

        # same contract as exact/minhash: OUTPUT IS THE DEDUPED CORPUS.
        # semdedup() itself returns a per-row keep/dup_of annotation, so
        # filter to kept ids and semi-join the original rows back (keys
        # only shuffle). Threshold default is the library's 0.95, NOT
        # minhash's looser 0.7.
        thr = 0.95 if args.threshold is None else args.threshold
        flags = semdedup(ds, threshold=thr, k=args.clusters,
                         iters=args.iters, vector_column=args.column,
                         id_column=args.id_column)
        kept = map_batches(flags, lambda t: t.filter(
            t.column("keep")).select([args.id_column]))
        out = semi_join(ds, kept, args.id_column)
    elif args.method == "spans":
        # exact-substring REMOVAL: every row survives with duplicated
        # spans excised from the text column (keep-globally-first);
        # sibling columns stay in place, per-row stats appended
        from .pipelines.dedup import remove_duplicate_spans

        out = remove_duplicate_spans(ds, args.column, args.id_column,
                                     replace=True)
    else:
        from .pipelines.dedup import minhash_lsh_dedup

        thr = 0.7 if args.threshold is None else args.threshold
        out = minhash_lsh_dedup(ds, args.column, args.id_column,
                                threshold=thr)
    n = _stream_to_parquet(out, args.output)
    print(json.dumps({"rows": n, "out": args.output}))
    return 0


def cmd_sample(args) -> int:
    """Deterministic sampling -> parquet: per-key rate mixing
    (stratified), exact-k uniform, or exact-k per group."""
    import pyarrow.parquet as pq

    import ray.data

    if args.method in ("stratified", "grouped_k") and not args.key:
        raise SystemExit(f"sample --method {args.method} requires --key "
                         "(the group column)")
    if args.method == "weighted_k" and not args.weight:
        raise SystemExit("sample --method weighted_k requires --weight "
                         "(the weight column)")
    _ray()
    ds = ray.data.read_parquet(_input_files(args.input))
    if args.method == "uniform_k":
        from .pipelines.relational import uniform_sample_k

        t = uniform_sample_k(ds, args.id_column, k=args.k, seed=args.seed)
        pq.write_table(t, args.output)
        n = t.num_rows
    elif args.method == "weighted_k":
        from .pipelines.relational import weighted_sample_k

        t = weighted_sample_k(ds, args.id_column, args.weight, k=args.k,
                              seed=args.seed)
        pq.write_table(t, args.output)
        n = t.num_rows
    elif args.method == "grouped_k":
        from .pipelines.relational import grouped_sample_k

        n = _stream_to_parquet(
            grouped_sample_k(ds, args.key, k=args.k,
                             id_column=args.id_column, seed=args.seed),
            args.output)
    else:
        from .pipelines.relational import stratified_sample

        fractions = {k: float(v) for k, v in
                     (pair.split("=") for pair in args.fraction)}
        n = _stream_to_parquet(
            stratified_sample(ds, args.key, fractions, args.id_column,
                              default=args.default), args.output)
    print(json.dumps({"rows": n, "out": args.output}))
    return 0


def cmd_textstats(args) -> int:
    """Tokens/quality/language/fingerprint columns appended -> parquet."""
    import ray.data

    _ray()
    from .pipelines.textstats import analyze

    ds = ray.data.read_parquet(_input_files(args.input))
    n = _stream_to_parquet(analyze(ds, args.column), args.output)
    print(json.dumps({"rows": n, "out": args.output}))
    return 0


def cmd_sketch(args) -> int:
    """Corpus profiling sketches: HLL distinct estimate / heavy hitters."""
    import pyarrow.parquet as pq

    import ray.data

    if args.method == "ghll" and not args.key:
        # fail BEFORE paying Ray startup + the parquet metadata read,
        # and with the syntax the parser actually accepts
        raise SystemExit("sketch ghll requires --key (the group column)")
    _ray()
    cols = [args.key, args.column] if args.method == "ghll" \
        else [args.column]
    ds = ray.data.read_parquet(_input_files(args.input), columns=cols)
    import pyarrow as pa

    if args.method == "ghll":
        from .pipelines.sketch import grouped_approx_distinct

        out = grouped_approx_distinct(ds, args.key, args.column,
                                      p=args.precision)
        rows = sorted(out.take_all(), key=lambda r: str(r[args.key]))
        t = pa.table({
            args.key: [r[args.key] for r in rows],
            "approx_distinct": [r["approx_distinct"] for r in rows]})
        if args.output:
            pq.write_table(t, args.output)
        print(json.dumps({"column": args.column, "keys": t.num_rows}))
        return 0
    if args.method == "hll":
        from .pipelines.sketch import approx_count_distinct

        est = approx_count_distinct(ds, args.column, p=args.precision)
        if args.output:   # --output must never be silently dropped
            pq.write_table(pa.table({"column": [args.column],
                                     "estimate": [est]}), args.output)
        print(json.dumps({"column": args.column, "estimate": est}))
        return 0
    if args.method == "quantiles":
        from .pipelines.sketch import approx_quantiles_sketch

        qs = [float(q) for q in (args.q or "0.25,0.5,0.9").split(",")]
        est = approx_quantiles_sketch(ds, args.column, qs)
        if args.output:
            pq.write_table(pa.table({"q": qs, "value": [est[q] for q in qs]}),
                           args.output)
        print(json.dumps({"column": args.column,
                          "quantiles": {str(q): est[q] for q in qs}}))
        return 0
    if args.method == "histogram":
        from .pipelines.relational import value_histogram

        out = value_histogram(ds, args.column, args.lo, args.hi, args.bins)
        if args.output:
            pq.write_table(out, args.output)
        print(json.dumps({"column": args.column,
                          "bins": out.column("n").to_pylist()}))
        return 0
    from .pipelines.sketch import heavy_hitters

    out = heavy_hitters(ds, args.column, args.fraction)
    if args.output:
        pq.write_table(out, args.output)
    print(json.dumps({"column": args.column, "hitters": out.num_rows,
                      "top": out.slice(0, 5).to_pylist()}))
    return 0


def cmd_retention(args) -> int:
    """Cohort retention matrix of an events table -> parquet."""
    import ray.data

    _ray()
    ds = ray.data.read_parquet(_input_files(args.input),
                               columns=[args.user_column, args.ts_column])
    from .pipelines.relational import retention_cohorts

    out = retention_cohorts(ds, args.user_column, args.ts_column,
                            period_s=args.period)
    n = _stream_to_parquet(out, args.output)
    print(json.dumps({"rows": n, "out": args.output}))
    return 0


def cmd_resample(args) -> int:
    """Gap-free per-key time grid (bucket aggregate + densify + fill)."""
    import ray.data

    _ray()
    sums = [c for c in (args.sum or "").split(",") if c]
    ds = ray.data.read_parquet(
        _input_files(args.input),
        columns=[args.key_column, args.ts_column, *sums])
    from .pipelines.relational import resample_timeseries

    out = resample_timeseries(ds, args.key_column, args.ts_column,
                              every=args.every, sum_cols=sums,
                              fill=args.fill)
    if args.rolling and sums:
        from .pipelines.relational import rolling_aggregate

        for c in sums:
            out = rolling_aggregate(out, args.key_column, "bucket_start",
                                    f"sum_{c}", window=args.rolling)
    n = _stream_to_parquet(out, args.output)
    print(json.dumps({"rows": n, "out": args.output}))
    return 0


def cmd_anomalies(args) -> int:
    """Resample to a gap-free grid, then median/MAD anomaly flags."""
    import ray.data

    _ray()
    ds = ray.data.read_parquet(
        _input_files(args.input),
        columns=[args.key_column, args.ts_column, args.value_column])
    from .pipelines.relational import resample_timeseries, robust_anomalies

    grid = resample_timeseries(ds, args.key_column, args.ts_column,
                               every=args.every,
                               sum_cols=[args.value_column], fill="zero")
    out = robust_anomalies(grid, args.key_column,
                           f"sum_{args.value_column}",
                           threshold=args.threshold)
    n = _stream_to_parquet(out, args.output)
    print(json.dumps({"rows": n, "out": args.output}))
    return 0


def cmd_describe(args) -> int:
    """One-pass per-column profile of a parquet table -> stdout/parquet."""
    import pyarrow.parquet as pq
    import ray.data

    _ray()
    cols = [c for c in (args.columns or "").split(",") if c] or None
    ds = ray.data.read_parquet(_input_files(args.input), columns=cols)
    from .pipelines.profile import profile

    out = profile(ds, columns=cols)
    if args.output:
        pq.write_table(out, args.output)
    print(json.dumps({"rows": out.num_rows,
                      "columns": sorted(set(out.column("column").to_pylist()))}))
    return 0


def cmd_validate(args) -> int:
    """Declarative data-quality validation (profile.validate) -> report.

    --rules is a JSON list of rule dicts; a 'ref' rule names a reference
    loaded via --ref name=path: {"rule": "ref", "column": "fk",
    "ref": "name", "ref_column": "k"}.
    """
    import pyarrow.parquet as pq
    import ray.data

    _ray()
    from .pipelines.profile import validate

    rules = json.loads(open(args.rules).read()
                       if os.path.exists(args.rules) else args.rules)
    refs = {}
    for spec in args.ref or []:
        name, path = spec.split("=", 1)
        refs[name] = ray.data.read_parquet(_input_files(path))
    for r in rules:
        if r.get("rule") == "ref":
            r["ref"] = (refs[r["ref"]], r.pop("ref_column"))
    ds = ray.data.read_parquet(_input_files(args.input))
    out = validate(ds, rules)
    if args.output:
        pq.write_table(out, args.output)
    print(json.dumps({"rules": out.num_rows,
                      "failing": [r["rule"] for r in out.to_pylist()
                                  if not r["ok"]]}))
    return 0 if all(out.column("ok").to_pylist()) else 1


def cmd_validate_avsc(args) -> int:
    """Standalone .avsc validation (avro/AvroSchemaValidator.java:12-33):
    exit 0 + {"valid": true} when the schema parses, else exit 1 with the
    reference-worded error list. No Ray session needed."""
    from .functions.avroio import validate_avsc

    text = args.schema
    if os.path.exists(text):
        text = open(text).read()
    errors = validate_avsc(text)
    print(json.dumps({"valid": not errors, "errors": errors}))
    return 0 if not errors else 1


def cmd_collocations(args) -> int:
    """Top word-bigram collocations by PMI -> stdout/parquet."""
    import pyarrow.parquet as pq
    import ray.data

    _ray()
    from .pipelines.textstats import pmi_collocations

    ds = ray.data.read_parquet(_input_files(args.input),
                               columns=[args.column])
    out = pmi_collocations(ds, column=args.column, k=args.k,
                           min_count=args.min_count)
    if args.output:
        pq.write_table(out, args.output)
    print(json.dumps({"rows": out.num_rows,
                      "top": out.column("gram").to_pylist()[:5]}))
    return 0


def cmd_divergence(args) -> int:
    """Per-group vocabulary KL divergence vs the corpus -> stdout/parquet."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    _ray()
    from .pipelines.textstats import vocab_kl_divergence

    ds = ray.data.read_parquet(_input_files(args.input),
                               columns=[args.key, args.column])
    rows = vocab_kl_divergence(ds, group_column=args.key,
                               column=args.column,
                               smooth=args.smooth).take_all()
    out = pa.Table.from_pylist(rows) if rows else None
    if args.output and out is not None:
        pq.write_table(out, args.output)
    print(json.dumps({"rows": len(rows),
                      "kl": {r[args.key]: r["kl"] for r in rows}}))
    return 0


def cmd_dsir(args) -> int:
    """DSIR-style importance weights of a source corpus vs a target."""
    import ray.data

    _ray()
    from .pipelines.textstats import importance_weights

    src = ray.data.read_parquet(
        _input_files(args.input),
        columns=[args.id_column, args.column])
    target = ray.data.read_parquet(_input_files(args.target),
                                   columns=[args.column])
    out = importance_weights(src, target, column=args.column,
                             id_column=args.id_column,
                             vocab_k=args.vocab_k, smooth=args.smooth)
    n = _stream_to_parquet(out, args.output)
    print(json.dumps({"rows": n, "out": args.output}))
    return 0


def cmd_clean(args) -> int:
    """Turnkey web-corpus cleaning (gopher filter -> canonical exact
    dedup -> split assignment) -> parquet."""
    import ray.data

    _ray()
    from .pipelines.presets import clean_web_corpus

    ds = ray.data.read_parquet(_input_files(args.input))
    out = clean_web_corpus(ds, text_col=args.column,
                           id_col=args.id_column,
                           min_words=args.min_words, seed=args.seed,
                           c4_lines=args.c4,
                           boilerplate_min_df=args.boilerplate_df)
    n = _stream_to_parquet(out, args.output)
    print(json.dumps({"rows": n, "out": args.output}))
    return 0


def cmd_shards(args) -> int:
    """Corpus -> resumable training shards (clean + shuffle + pack)."""
    import ray.data

    _ray()
    from .pipelines.presets import prepare_pretraining_shards

    ds = ray.data.read_parquet(_input_files(args.input))
    stats = prepare_pretraining_shards(
        ds, args.output, text_col=args.column, id_col=args.id_column,
        seq_len=args.seq_len, n_shards=args.shards, seed=args.seed,
        clean_kwargs={"min_words": args.min_words})
    print(json.dumps({**stats, "out": args.output}))
    return 0


def cmd_graph(args) -> int:
    """Graph analytics over an edge-list parquet -> parquet."""
    import ray.data

    _ray()
    ds = ray.data.read_parquet(_input_files(args.input),
                               columns=[args.src, args.dst])
    if args.algo == "components":
        from .pipelines.graph import connected_components

        out = connected_components(ds, args.src, args.dst)
    elif args.algo == "triangles":
        from .pipelines.graph import triangle_count

        out = triangle_count(ds, args.src, args.dst)
    else:
        from .pipelines.graph import pagerank

        out = pagerank(ds, args.src, args.dst, damping=args.damping,
                       iters=args.iters)
    n = _stream_to_parquet(out, args.output)
    print(json.dumps({"rows": n, "out": args.output}))
    return 0


def cmd_join(args) -> int:
    """Distributed join of two parquet tables -> parquet."""
    import ray.data

    _ray()
    left = ray.data.read_parquet(_input_files(args.left))
    right = ray.data.read_parquet(_input_files(args.right))
    if args.type in ("semi", "anti"):
        from .pipelines.relational import semi_join

        out_ds = semi_join(left, right, args.key,
                           right_key=args.right_key,
                           anti=args.type == "anti")
    else:
        from .pipelines.relational import hash_join

        out_ds = hash_join(left, right, args.key,
                           right_key=args.right_key, join_type=args.type)
    n = _stream_to_parquet(out_ds, args.output)
    print(json.dumps({"rows": n, "out": args.output}))
    return 0


def cmd_merge(args) -> int:
    """CDC merge: apply a changeset parquet to a snapshot parquet."""
    import ray.data

    _ray()
    from .pipelines.merge import broadcast_merge, merge_changes

    snap = ray.data.read_parquet(_input_files(args.snapshot))
    key = [k.strip() for k in args.key.split(",") if k.strip()]
    if args.broadcast:
        import pyarrow as pa
        import pyarrow.parquet as pq

        delta = pa.concat_tables(
            [pq.read_table(f) for f in _input_files(args.delta)])
        out_ds = broadcast_merge(snap, delta, key, op_column=args.op,
                                 version_column=args.version)
    else:
        delta = ray.data.read_parquet(_input_files(args.delta))
        out_ds = merge_changes(snap, delta, key, op_column=args.op,
                               version_column=args.version)
    n = _stream_to_parquet(out_ds, args.output)
    print(json.dumps({"rows": n, "out": args.output}))
    return 0


def cmd_funnel(args) -> int:
    """Ordered-funnel conversion counts over an event-log parquet."""
    import pyarrow.parquet as pq

    import ray.data

    _ray()
    from .pipelines.relational import funnel

    ds = ray.data.read_parquet(
        _input_files(args.input),
        columns=[args.user, args.ts, args.event])
    out = funnel(ds, args.user, args.ts, args.event,
                 args.steps.split(","), within=args.within)
    if args.output:
        pq.write_table(out, args.output)
    print(json.dumps({"steps": out.column("step").to_pylist(),
                      "n_users": out.column("n_users").to_pylist()}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="plugin_serdes_ray")
    ap.add_argument("--json-out", default=None,
                    help="also write the command's final JSON result line "
                         "to this file (immune to stdout noise)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("encode", help="parquet dir/file -> container dir")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--no-resume", action="store_true")
    p.add_argument("--outer-level", type=int, default=3)
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("decode", help="container dir -> parquet file")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("verify", help="bit-identity: parquet vs container")
    p.add_argument("input")
    p.add_argument("grck_dir")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("compact",
                       help="bin-pack small container parts -> fresh dir")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--target-mb", type=int, default=256)
    p.add_argument("--no-resume", action="store_true")
    p.set_defaults(fn=cmd_compact)

    p = sub.add_parser("count",
                       help="row count: manifest-only, or predicate-pruned")
    p.add_argument("input")
    p.add_argument("--where", nargs="+", action="append",
                   metavar="COL OP [VALUE]",
                   help="e.g. --where lang == en "
                        "(OP in ==,!=,>,>=,<,<=,is_null,not_null); "
                        "repeat the flag to OR several conditions")
    p.add_argument("--explain", action="store_true",
                   help="report which parts the predicate keeps/prunes "
                        "(zone vs bloom) instead of counting rows")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("scrub",
                       help="container fsck: chunk CRCs + manifest audit")
    p.add_argument("input")
    p.add_argument("--deep", action="store_true",
                   help="also decode every chunk and cross-check row counts")
    p.set_defaults(fn=cmd_scrub)

    p = sub.add_parser("convert", help="format conversion by extension")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("infer", help="print inferred .avsc for a file")
    p.add_argument("input")
    p.add_argument("--rows", type=int, default=100)
    p.add_argument("--all", action="store_true")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("dedup", help="exact/minhash dedup -> parquet")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--method",
                   choices=["exact", "minhash", "semdedup", "spans"],
                   default="exact")
    p.add_argument("--column", default="text",
                   help="text column (exact/minhash/spans) or embedding "
                        "column (semdedup)")
    p.add_argument("--id-column", default="doc_id")
    p.add_argument("--threshold", type=float, default=None,
                   help="similarity threshold (default: 0.7 minhash, "
                        "0.95 semdedup cosine)")
    p.add_argument("--clusters", type=int, default=64,
                   help="semdedup: k-means cluster count")
    p.add_argument("--iters", type=int, default=0,
                   help="semdedup: Lloyd iterations (0 = first-k seeds)")
    p.set_defaults(fn=cmd_dedup)

    p = sub.add_parser("sample", help="deterministic sampling -> parquet")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--method",
                   choices=["stratified", "uniform_k", "grouped_k",
                            "weighted_k"],
                   default="stratified")
    p.add_argument("--key", help="group key (stratified / grouped_k)")
    p.add_argument("--weight", help="weight column (weighted_k)")
    p.add_argument("--id-column", required=True)
    p.add_argument("--fraction", action="append", default=[],
                   metavar="KEY=FRAC", help="repeatable, e.g. --fraction en=0.1")
    p.add_argument("--default", type=float, default=1.0)
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("sketch",
                       help="HLL / grouped HLL / heavy hitters / quantiles"
                            " / histogram")
    p.add_argument("method",
                   choices=["hll", "ghll", "heavy", "quantiles",
                            "histogram"])
    p.add_argument("input")
    p.add_argument("--column", required=True)
    p.add_argument("--key", help="group column (ghll)")
    p.add_argument("--precision", type=int, default=14)
    p.add_argument("--fraction", type=float, default=0.01)
    p.add_argument("--q", help="comma-separated quantiles")
    p.add_argument("--lo", type=float, default=0.0)
    p.add_argument("--hi", type=float, default=1.0)
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_sketch)

    p = sub.add_parser("validate",
                       help="declarative data-quality rules -> report")
    p.add_argument("input")
    p.add_argument("--rules", required=True,
                   help="JSON rule list (inline or a file path)")
    p.add_argument("--ref", action="append",
                   help="name=path reference table for 'ref' rules")
    p.add_argument("--output", help="optional parquet destination")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("validate-avsc",
                       help="standalone Avro schema (.avsc) validation")
    p.add_argument("schema", help="inline .avsc JSON or a file path")
    p.set_defaults(fn=cmd_validate_avsc)

    p = sub.add_parser("collocations",
                       help="top word-bigram collocations by PMI")
    p.add_argument("input")
    p.add_argument("--column", default="text")
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--min-count", type=int, default=5)
    p.add_argument("--output", help="optional parquet destination")
    p.set_defaults(fn=cmd_collocations)

    p = sub.add_parser("divergence",
                       help="per-group vocabulary KL divergence vs corpus")
    p.add_argument("input")
    p.add_argument("--key", default="lang")
    p.add_argument("--column", default="text")
    p.add_argument("--smooth", type=float, default=1.0)
    p.add_argument("--output", help="optional parquet destination")
    p.set_defaults(fn=cmd_divergence)

    p = sub.add_parser("retention",
                       help="cohort retention matrix of an events table")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--user-column", default="user_id")
    p.add_argument("--ts-column", default="ts")
    p.add_argument("--period", type=int, default=86400,
                   help="cohort period in seconds (default 1 day)")
    p.set_defaults(fn=cmd_retention)

    p = sub.add_parser("describe",
                       help="one-pass per-column profile of a table")
    p.add_argument("input")
    p.add_argument("--columns", default="",
                   help="comma-separated subset (default: all)")
    p.add_argument("--output", help="optional parquet destination")
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("anomalies",
                       help="median/MAD anomaly flags on a resampled grid")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--key-column", default="event_type")
    p.add_argument("--ts-column", default="ts")
    p.add_argument("--value-column", default="value")
    p.add_argument("--every", default="1h")
    p.add_argument("--threshold", type=float, default=3.0)
    p.set_defaults(fn=cmd_anomalies)

    p = sub.add_parser("dsir",
                       help="importance weights vs a target corpus")
    p.add_argument("input")
    p.add_argument("target")
    p.add_argument("output")
    p.add_argument("--column", default="text")
    p.add_argument("--id-column", default="doc_id")
    p.add_argument("--vocab-k", type=int, default=1000)
    p.add_argument("--smooth", type=float, default=1.0)
    p.set_defaults(fn=cmd_dsir)

    p = sub.add_parser("resample",
                       help="gap-free time-bucket grid per key")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--key-column", default="event_type")
    p.add_argument("--ts-column", default="ts")
    p.add_argument("--every", default="1h",
                   help="bucket width, e.g. 15m / 1h / 1d")
    p.add_argument("--sum", default="",
                   help="comma-separated numeric columns to sum")
    p.add_argument("--fill", default="null",
                   choices=["null", "zero", "ffill"])
    p.add_argument("--rolling", type=int, default=0,
                   help="append a trailing N-bucket moving mean per --sum")
    p.set_defaults(fn=cmd_resample)

    p = sub.add_parser("clean",
                       help="gopher filter + canonical dedup + splits")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--column", default="text")
    p.add_argument("--id-column", default="doc_id")
    p.add_argument("--min-words", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--c4", action="store_true",
                   help="C4 line cleaning + page flags first")
    p.add_argument("--boilerplate-df", type=int, default=0,
                   help="drop lines present in >= N docs (0 = off)")
    p.set_defaults(fn=cmd_clean)

    p = sub.add_parser("shards",
                       help="corpus -> resumable packed training shards")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--column", default="text")
    p.add_argument("--id-column", default="doc_id")
    p.add_argument("--seq-len", type=int, default=2048)
    p.add_argument("--shards", type=int, default=64)
    p.add_argument("--min-words", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_shards)

    p = sub.add_parser("graph",
                       help="components / pagerank / triangles over edges")
    p.add_argument("algo", choices=["components", "pagerank", "triangles"])
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--src", default="src")
    p.add_argument("--dst", default="dst")
    p.add_argument("--damping", type=float, default=0.85)
    p.add_argument("--iters", type=int, default=10)
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("join", help="distributed join of two parquet tables")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--key", required=True)
    p.add_argument("--right-key", dest="right_key")
    p.add_argument("--type", default="inner",
                   choices=["inner", "left", "right", "full", "semi", "anti"])
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_join)

    p = sub.add_parser("textstats", help="append text-analysis columns -> parquet")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--column", default="text")
    p.set_defaults(fn=cmd_textstats)

    p = sub.add_parser("merge",
                       help="CDC merge: apply upsert/delete changeset to a "
                            "snapshot")
    p.add_argument("snapshot")
    p.add_argument("delta")
    p.add_argument("--key", required=True,
                   help="merge key column (comma-separate for composite)")
    p.add_argument("--op", default=None,
                   help="delta op column (upsert|delete); absent = upserts")
    p.add_argument("--version", default=None,
                   help="delta version column (last writer wins)")
    p.add_argument("--broadcast", action="store_true",
                   help="resolve the delta driver-side and skip the "
                        "shuffle (small deltas)")
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_merge)

    p = sub.add_parser("funnel",
                       help="ordered-funnel conversion counts over events")
    p.add_argument("input")
    p.add_argument("--steps", required=True,
                   help="comma-separated event values in funnel order")
    p.add_argument("--user", default="user_id")
    p.add_argument("--ts", default="ts")
    p.add_argument("--event", default="event_type")
    p.add_argument("--within", default=None,
                   help="conversion window anchored at step 1 (e.g. 1h)")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_funnel)

    args = ap.parse_args(argv)
    import ray

    ray_was_up = ray.is_initialized()
    if args.json_out:
        # machine-readable contract hardened against stdout pollution
        # (VERDICT r4 #6): capture the command's stdout, tee it through,
        # and write the LAST JSON-parseable line to the file — foreign
        # Ray/library warnings on stdout can no longer corrupt consumers
        import contextlib
        import io as _io

        buf = _io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = args.fn(args)
        finally:
            # re-emit captured stdout even when the command raises
            text = buf.getvalue()
            sys.stdout.write(text)
            payload = last_json_line(text)
            with open(args.json_out, "w") as f:
                if payload is not None:
                    f.write(payload + "\n")
    else:
        rc = args.fn(args)
    if not ray_was_up and ray.is_initialized():
        # only a session this command started: a caller's stays up
        ray.shutdown()
    return rc


if __name__ == "__main__":
    sys.exit(main())
