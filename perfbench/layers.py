"""Per-layer metrics of the traced run (``--trace 1``).

The calls below go into each module's public functions directly, in the
main process and outside Ray, on the same input shards, plan and
container parts as the run's measured rounds. Every call is a span; the
metrics are sums and medians of span durations, and the ``ray.*`` metrics
are what the measured Ray walls spend beyond the same work done in
process, spread over the tasks Ray may run at once (one per CPU). README.md
says which end-to-end metric each one should move.
"""

from __future__ import annotations

import glob
import os
import shutil
import statistics

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

#: codecs with per-codec metrics. Every traced run reports every metric,
#: so a codec the plan gives no column of a workload is measured on the
#: first column of a type it takes; the trace file lists these off-plan
#: codecs, and their figures predict nothing about that workload.
CODECS = ("fsst", "delta", "for", "dict", "dict_rle", "plain")
#: repeats of the cheap in-process calls whose median is reported
REPEATS = 3


def install_plan_span(bench) -> None:
    """Time ``build_plan`` inside ``encode.sample_plan_from_files`` (which
    runs in the main process), so the plan's sample read and its codec choice
    separate."""
    import plugin_serdes_ray.encode as encode_mod

    inner = encode_mod.build_plan

    def build_plan(*args, **kwargs):
        with bench.tr.span("plan.build_plan"):
            return inner(*args, **kwargs)

    encode_mod.build_plan = build_plan


def _width(bench, tasks: int) -> int:
    """Tasks of one Ray stage that can run at once."""
    return max(min(bench.ncpu, tasks), 1)


def _pieces(col: pa.ChunkedArray) -> list:
    from plugin_serdes_ray.container import chunk_boundaries

    return [col.slice(off, n).combine_chunks()
            for off, n in chunk_boundaries(col)]


def _takes(codec: str, typ: pa.DataType) -> bool:
    from plugin_serdes_ray.codecs.base import is_fixed_int_like, is_var_binary

    if codec == "fsst":
        return is_var_binary(typ)
    if codec in ("delta", "for"):
        return is_fixed_int_like(typ) and not pa.types.is_floating(typ)
    return True


def _codec_columns(plan, schema: pa.Schema) -> dict:
    """The columns each codec is measured on: those the plan gives it,
    else the first column of a type it takes."""
    out = {}
    for c in CODECS:
        cols = [n for n in schema.names if plan.codecs.get(n) == c]
        out[c] = cols or [next(f.name for f in schema
                               if _takes(c, f.type))]
    return out


def _container_and_codecs(bench, tables: list, scratch: str) -> dict:
    from plugin_serdes_ray.codecs import decode_array, encode_array
    from plugin_serdes_ray.container import (
        encode_column, read_header, read_partition, write_partition)

    tr, plan = bench.tr, bench.plan
    codec_cols = _codec_columns(plan, tables[0].schema)
    codec_in = dict.fromkeys(CODECS, 0)
    codec_out = dict.fromkeys(CODECS, 0)
    for i, table in enumerate(tables):
        path = os.path.join(scratch, f"part-{i:05d}.grck")
        with tr.span("container.write_partition"):
            write_partition(table, path, plan.codecs, plan.context())
        for name in table.column_names:
            col = table.column(name)
            codec = plan.codecs.get(name, "plain")
            pieces = _pieces(col)
            ctx = plan.context()
            ctx.column = name
            with tr.span("container.encode_column"):
                encode_column(col, codec, ctx)
            with tr.span("codecs.planned.encode_array"):
                for p in pieces:
                    encode_array(p, codec, ctx)
            for c, cols in codec_cols.items():
                if name not in cols:
                    continue
                with tr.span("codecs.encode_array", codec=c):
                    blobs = [encode_array(p, c, ctx) for p in pieces]
                with tr.span("codecs.decode_array", codec=c):
                    for b in blobs:
                        decode_array(b, col.type)
                codec_in[c] += sum(p.nbytes for p in pieces)
                codec_out[c] += sum(len(b) for b in blobs)
        with tr.span("container.read_partition"):
            read_partition(path)
        for _ in range(REPEATS):
            with tr.span("container.read_header"):
                read_header(path)
    raw_mb = sum(t.nbytes for t in tables) / 1e6
    m = {}
    for c in CODECS:
        mb = codec_in[c] / 1e6
        m[f"codecs.{c}.encode_mb_s"] = (
            mb / tr.total("codecs.encode_array", codec=c), "MB/s")
        m[f"codecs.{c}.decode_mb_s"] = (
            mb / tr.total("codecs.decode_array", codec=c), "MB/s")
        m[f"codecs.{c}.out_bytes"] = (codec_out[c], "bytes")
    m["container.frame_s"] = (tr.total("container.encode_column")
                              - tr.total("codecs.planned.encode_array"), "s")
    m["container.index_s"] = (tr.total("container.write_partition")
                              - tr.total("container.encode_column"), "s")
    m["container.write_mb_s"] = (
        raw_mb / tr.total("container.write_partition"), "MB/s")
    m["container.read_mb_s"] = (
        raw_mb / tr.total("container.read_partition"), "MB/s")
    m["container.header_read_ms"] = (
        1e3 * tr.median("container.read_header"), "ms")
    return m


def _shards(bench, scratch: str) -> float:
    """In-process ``encode_shard_batch``, one call per input part; the
    median over repeats of the summed time."""
    from plugin_serdes_ray.encode import encode_shard_batch, plan_partitions
    from plugin_serdes_ray.state.checkpoint import ensure_dirs

    sums = []
    for rep in range(REPEATS):
        out = os.path.join(scratch, f"shards-{rep}")
        ensure_dirs(out)
        for p in plan_partitions(sorted(bench.files)):
            batch = {k: np.array([v]) for k, v in p.items()}
            with bench.tr.span("encode.encode_shard_batch", rep=rep):
                encode_shard_batch(batch, plan=bench.plan, out_dir=out)
        sums.append(bench.tr.total("encode.encode_shard_batch", rep=rep))
        shutil.rmtree(out)
    return statistics.median(sums)


def _decode_parts(bench, paths: list, kind: str, **kw) -> list:
    """In-process ``decode_part_batch`` per part; returns the rows each
    part yields."""
    from plugin_serdes_ray.encode import decode_part_batch

    rows = []
    for path in paths:
        with bench.tr.span("encode.decode_part_batch", kind=kind):
            out = list(decode_part_batch(pa.table({"path": [path]}), **kw))
        rows.append(sum(t.num_rows for t in out))
    return rows


def _probes(bench) -> dict:
    from plugin_serdes_ray.encode import explain_pruning

    tr = bench.tr
    probes = bench.info["probes"]
    kept_n = {"hits": [], "filters": []}
    matched, decode_one, overhead = [], [], []
    total = None
    for kind in ("hits", "misses", "filters"):
        for i, exp in enumerate(probes[kind]):
            pred = (exp["column"], "==", exp["value"])
            with tr.span("encode.explain_pruning", kind=kind, i=i) as sp:
                t = explain_pruning(bench.enc_dir, pred)
            prune_s = sp["end"] - sp["start"]
            total = t.num_rows
            kept = [f for f, k in zip(t["file"].to_pylist(),
                                      t["kept"].to_pylist()) if k]
            if kind == "misses":
                continue
            kept_n[kind].append(len(kept))
            if kind == "filters":
                continue
            start = len(tr.durations("encode.decode_part_batch",
                                     kind="lookup"))
            rows = _decode_parts(bench, kept, "lookup",
                                 columns=exp["columns"], predicate=pred)
            secs = tr.durations("encode.decode_part_batch",
                                kind="lookup")[start:]
            matched.append(sum(1 for r in rows if r))
            decode_one += [d for d, r in zip(secs, rows) if r][:1]
            wall = statistics.median(bench.hit_walls[i])
            overhead.append(wall - prune_s
                            - sum(secs) / _width(bench, len(kept)))
    prune = (tr.durations("encode.explain_pruning", kind="hits")
             + tr.durations("encode.explain_pruning", kind="misses"))
    return {
        "encode.prune_ms": (1e3 * statistics.median(prune), "ms"),
        "encode.parts_total": (total, "count"),
        "encode.parts_kept_hit": (statistics.mean(kept_n["hits"]), "count"),
        "encode.parts_matched_hit": (statistics.mean(matched), "count"),
        "encode.parts_kept_filter": (
            statistics.mean(kept_n["filters"]), "count"),
        "encode.decode_part_ms": (1e3 * statistics.median(decode_one), "ms"),
        "ray.lookup_overhead_ms": (1e3 * statistics.median(overhead), "ms"),
    }


def _ray_floors(bench, n_parts: int) -> dict:
    """``count()`` over the container, and an identity ``map_batches``
    with one item per part: what the executor costs with no work."""
    import ray.data

    from plugin_serdes_ray.encode import decode_dataset
    from plugin_serdes_ray.util import package_runtime_env

    tr = bench.tr
    for _ in range(REPEATS):
        with tr.span("ray.count"):
            decode_dataset(bench.enc_dir, concurrency=bench.ncpu).count()
        with tr.span("ray.identity_map_batches"):
            # same runtime_env as the engine's stages, so the warm workers
            # are reused
            ray.data.from_items([{"i": i} for i in range(n_parts)]) \
                .map_batches(lambda b: b, batch_size=1,
                             concurrency=bench.ncpu, num_cpus=1,
                             batch_format="numpy",
                             runtime_env=package_runtime_env()).take_all()
    return {
        "ray.identity_floor_s": (tr.median("ray.identity_map_batches"), "s"),
        "ray.materialize_s": (statistics.median(bench.walls["scan"])
                              - tr.median("ray.count"), "s"),
    }


def measure_layers(bench) -> dict:
    from plugin_serdes_ray.state.checkpoint import read_manifest_entries

    tr = bench.tr
    scratch = os.path.join(bench.work, "layers")
    os.makedirs(scratch)
    m = {
        "setup.ray_init_s": (bench.ray_init_s, "s"),
        "setup.warm_s": (bench.warm_s, "s"),
        "plan.sample_read_s": (statistics.median(
            a - b for a, b in zip(tr.durations("plan.sample_plan_from_files"),
                                  tr.durations("plan.build_plan"))), "s"),
        "plan.build_s": (tr.median("plan.build_plan"), "s"),
    }
    shard_s = _shards(bench, scratch)
    n_parts = len(bench.files)
    m["encode.shard_s"] = (shard_s, "s")
    m["ray.encode_overhead_s"] = (statistics.median(bench.walls["encode"])
                                  - shard_s / _width(bench, n_parts), "s")
    # the tables encode_shard_batch would read, one per part
    tables = [pq.read_table(f, use_threads=False).combine_chunks()
              for f in sorted(bench.files)]
    m.update(_container_and_codecs(bench, tables, scratch))
    del tables
    for _ in range(REPEATS):
        with tr.span("state.read_manifest_entries"):
            entries = read_manifest_entries(bench.enc_dir)
    m["state.manifest_read_ms"] = (
        1e3 * tr.median("state.read_manifest_entries"), "ms")
    m["state.manifest_entries"] = (len(entries), "count")
    m.update(_probes(bench))
    parts = sorted(glob.glob(os.path.join(bench.enc_dir, "*.grck")))
    _decode_parts(bench, parts, "scan")
    m["ray.scan_overhead_s"] = (
        statistics.median(bench.walls["scan"])
        - tr.total("encode.decode_part_batch", kind="scan")
        / _width(bench, len(parts)), "s")
    m.update(_ray_floors(bench, len(parts)))
    shutil.rmtree(scratch, ignore_errors=True)
    return m
