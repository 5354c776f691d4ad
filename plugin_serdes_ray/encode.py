"""Ray Data encode/decode pipelines over the container format.

Two write paths (SURVEY.md §7.2):

- :func:`encode_files` — the resumable production path. Partitioning is a
  pure function of the input file list (one container partition per input
  parquet file), so a resumed run re-derives identical partitions and skips
  manifest-complete ones. Partitions are packed into at most four Ray
  tasks per CPU of one task-pool ``map_batches`` stage
  (:func:`_run_task_stage`); each task encodes its contiguous run of
  partitions one by one, each into its own part file and manifest entry.

- :func:`encode_dataset` — the fully streaming path for arbitrary Datasets
  (output of upstream transforms): ``util.map_batches(ds, EncodeBlock)``
  writes one container file per block with no driver materialization. Not
  resumable (block ids are not stable across runs) but pipelined end to end.

Decode is a Dataset again: one task and one block per kept partition file
(never packed — callers may rely on a block per part); a read whose every
part is pruned is a zero-row Dataset that still carries the output schema.
"""

from __future__ import annotations

import os
import shutil
import struct
import time
import zlib
from typing import Any, Iterable, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .codecs import decode_array
from .container import (
    ChunkCorruption, _outer_decompress, bloom_hashes, bloom_may_contain,
    header_schema, output_schema, partition_codec_report, read_header,
    read_partition, temporal_type_from_tag, write_partition)
from .util import file_stamp as _fingerprint, map_batches
from .plan import EncodePlan, build_plan
from .state import checkpoint


def sample_plan_from_files(files: list[str], sample_rows: int = 50_000,
                           outer_level: int = 3,
                           columns: Optional[list[str]] = None) -> EncodePlan:
    """Pass 1: read a bounded SCATTERED sample and build the frozen
    EncodePlan on the driver.

    Row groups are taken evenly spaced across ALL files (sorted, so the
    scatter is stable under input reordering), not head-first: on a
    heterogeneous 100 TB corpus the head of the data is not the data, and a
    plan built from it picks codecs the tail regrets (VERDICT r1). The
    per-chunk plain-fallback guard still caps damage; scattering fixes the
    missed wins too."""
    if not files:
        raise ValueError("sample_plan_from_files: empty input file list "
                         "(did a glob match nothing?)")
    rg_index: list[tuple[str, int, int]] = []   # (path, rg, rows)
    for path in sorted(files):
        meta = pq.read_metadata(path)
        for i in range(meta.num_row_groups):
            rg_index.append((path, i, meta.row_group(i).num_rows))
    batches = []
    if rg_index:
        total_rows = sum(r for _, _, r in rg_index)
        mean_rg = max(total_rows // len(rg_index), 1)
        need = max(sample_rows // mean_rg, 1)
        stride = max(len(rg_index) // need, 1)
        # keep EVERY strided pick (ADVICE r2: consuming a row budget in
        # path order starved the tail files whenever early groups ran
        # larger than the mean, partially reintroducing the head bias);
        # the row budget is enforced afterwards by an evenly-strided row
        # subsample over the concatenated picks, so each pick contributes
        picked = [(path, i) for path, i, _ in rg_index[::stride]]
        # parquet decode releases the GIL: read the scattered groups with a
        # thread pool (the sample read dominated plan wall when serial),
        # one file handle per path so a 100-group file parses its footer
        # once, not per group
        from concurrent.futures import ThreadPoolExecutor

        by_path: dict[str, list[int]] = {}
        for path, i in picked:
            by_path.setdefault(path, []).append(i)

        def _read(job):
            path, groups = job
            pf = pq.ParquetFile(path)
            try:
                # use_threads=False: the outer pool IS the parallelism; the
                # threaded arrow read path measures 30x SLOWER than the
                # single-threaded one on this VM (cross-thread handoffs under
                # a contended scheduler), so never let a read fan out
                return pf.read_row_groups(groups, columns=columns,
                                          use_threads=False)
            finally:
                pf.close()

        with ThreadPoolExecutor(max_workers=min(len(by_path), 8) or 1) as pool:
            batches = list(pool.map(_read, sorted(by_path.items())))
    if batches:
        # heterogeneous inputs: plan from the first schema; columns absent
        # from the plan fall back to measured plain/guard per partition
        batches = [t for t in batches if t.schema == batches[0].schema]
    sample = pa.concat_tables(batches) if batches else pq.read_table(
        files[0], columns=columns, use_threads=False)
    if sample.num_rows > sample_rows:
        # evenly-strided row subsample (NOT a head slice): every picked row
        # group keeps proportional representation in the plan sample
        idx = np.linspace(0, sample.num_rows - 1, sample_rows).astype(np.int64)
        sample = sample.take(np.unique(idx))
    return build_plan(sample.combine_chunks(), outer_level=outer_level)


def plan_partitions(files: list[str],
                    target_part_bytes: int = 256 << 20) -> list[dict]:
    """Deterministic partition list: a pure function of the input file list
    and parquet metadata, so a resumed run re-derives identical partitions
    (SURVEY.md §7.3 "determinism for resume").

    Small files stay one-partition-per-file; a file whose total uncompressed
    size exceeds ``target_part_bytes`` splits into consecutive ROW-GROUP
    ranges, so a 10 GB input never has to fit one worker's heap. Each
    partition: {part_id, path, rg_start, rg_end, fingerprint}."""
    parts: list[dict] = []
    for path in files:
        meta = pq.read_metadata(path)
        n_rg = meta.num_row_groups
        sizes = [meta.row_group(i).total_byte_size for i in range(n_rg)]
        fp = _fingerprint(path)
        start = 0
        acc = 0
        for i in range(n_rg):
            acc += sizes[i]
            last = i == n_rg - 1
            if acc >= target_part_bytes or last:
                parts.append({"path": path, "rg_start": start, "rg_end": i + 1,
                              "fingerprint": f"{fp}:rg{start}-{i + 1}"})
                start = i + 1
                acc = 0
        if n_rg == 0:
            parts.append({"path": path, "rg_start": 0, "rg_end": 0,
                          "fingerprint": f"{fp}:rg0-0"})
    for pid, p in enumerate(parts):
        p["part_id"] = pid
    return parts


#: manifest fields copied from a write_partition result
_METRIC_KEYS = ("rows", "raw_bytes", "enc_bytes", "codecs", "column_bytes",
                "stats", "blooms")


#: Ray tasks per CPU that one task stage launches: four waves keep a
#: straggler part from idling a CPU for long
_TASKS_PER_CPU = 4


def _run_task_stage(items: list[dict], fn, fn_kwargs: dict,
                    concurrency: Optional[int], batch_format: str) -> list:
    """The one task stage of encode, compaction and verify: the items are
    cut into at most four contiguous runs per CPU (``concurrency``, which
    defaults to the cluster's CPUs), as even as ``from_items`` splits
    blocks, so a run holds at most ``ceil(n / (4 × concurrency))`` items.
    Each run is one block, so ``fn`` sees it as one batch in one Ray task
    on one CPU. A Ray Data task costs ~16 ms of executor time, more than a
    small part's own work, so one task per item left small-file stages
    bound by the executor. Each item still writes its own file and
    manifest entry, so a retried task rewrites the same bytes. Returns
    ``fn``'s output rows."""
    import ray
    import ray.data

    if concurrency is None:
        concurrency = max(int(ray.cluster_resources().get("CPU", 8)), 1)
    runs = min(len(items), _TASKS_PER_CPU * concurrency)
    return map_batches(
        ray.data.from_items(items, override_num_blocks=runs), fn,
        fn_kwargs=fn_kwargs, batch_size=None, batch_format=batch_format,
        concurrency=min(concurrency, runs), num_cpus=1).take_all()


def _read_input(path: str, rg_start: int, rg_end: int,
                columns: Optional[list[str]]) -> pa.Table:
    """Row groups ``[rg_start, rg_end)`` of one input parquet file. The
    reader, and the whole-file buffer, are gone when this returns, so they
    are not live while the table is encoded."""
    pf = pq.ParquetFile(path)
    if rg_start == 0 and rg_end >= pf.num_row_groups:
        # whole file: one read call, parsed in memory with the footer
        # already read (read_table's dataset path took about twice as
        # long per small file)
        meta = pf.metadata
        pf.close()
        with open(path, "rb") as f:
            pf = pq.ParquetFile(pa.BufferReader(f.read()), metadata=meta)
    # use_threads=False: this task owns ONE cpu (num_cpus=1) and the
    # threaded arrow read path is 30x slower than single-threaded on
    # this VM even with a 1-thread pool (measured r3; parallelism
    # lives in the task fan-out, not inside the read)
    with pf:
        return pf.read_row_groups(list(range(rg_start, rg_end)),
                                  columns=columns, use_threads=False)


def encode_shard_batch(batch: dict, *, plan: EncodePlan, out_dir: str,
                       columns: Optional[list[str]] = None) -> dict:
    """Task stage: a run of input partitions (each a file or row-group
    range) -> one container partition each.

    Encode is stateless-given-plan (shared FSST tables / dictionaries travel
    inside the frozen plan), so this runs as plain Ray tasks that reuse
    pre-warmed workers instead of paying actor-pool startup; the stateful
    actor-pool pattern is reserved for stages with real online state
    (see EncodeBlock below and pipelines/)."""
    for part_id, path, rg_start, rg_end, fingerprint in zip(
            batch["part_id"], batch["path"], batch["rg_start"],
            batch["rg_end"], batch["fingerprint"]):
        part_id = int(part_id)
        rg_start, rg_end = int(rg_start), int(rg_end)
        t0 = time.perf_counter()
        table = _read_input(str(path), rg_start, rg_end, columns)
        out_name = f"part-{part_id:05d}.grck"
        # the header names its input by basename (the manifest keeps the
        # full path): the same shard writes the same bytes from any checkout
        metrics = write_partition(
            table, os.path.join(out_dir, out_name),
            plan.codecs, plan.context(),
            extra_meta={"part_id": part_id,
                        "input": os.path.basename(str(path)),
                        "rg_range": [rg_start, rg_end]},
        )
        secs = time.perf_counter() - t0
        checkpoint.write_manifest_entry(out_dir, part_id, {
            "part_id": part_id,
            "input": str(path),
            "rg_range": [rg_start, rg_end],
            "input_fingerprint": str(fingerprint),
            "file": out_name,
            **{k: metrics[k] for k in _METRIC_KEYS},
            "secs": secs,
        })
    return {"part_id": np.asarray(batch["part_id"])}


def encode_files(files: list[str], out_dir: str, *,
                 plan: Optional[EncodePlan] = None,
                 resume: bool = True,
                 outer_level: int = 3,
                 columns: Optional[list[str]] = None,
                 concurrency: Optional[int] = None,
                 target_part_bytes: int = 256 << 20) -> dict:
    """Resumable two-pass encode of a list of parquet files (large files
    split into row-group-range partitions bounded by target_part_bytes)."""
    files = sorted(str(f) for f in files)
    if not files:
        raise ValueError("encode_files: empty input file list "
                         "(did a glob match nothing?)")
    checkpoint.ensure_dirs(out_dir)
    if plan is None and resume:
        plan = checkpoint.read_plan(out_dir)
    if plan is None:
        plan = sample_plan_from_files(files, outer_level=outer_level, columns=columns)
    checkpoint.write_plan(out_dir, plan)

    partitions = plan_partitions(files, target_part_bytes)
    if columns:
        # the column selection is part of a partition's identity: without
        # this, a resume with different columns would skip parts encoded
        # with the OLD selection and produce mixed-schema partitions
        # (order matters — it is the output schema order)
        tag = ":cols=" + ",".join(columns)
        for p in partitions:
            p["fingerprint"] += tag
    # drop part files/entries left over from a previous run with a different
    # partition plan — decode reads every *.grck, so orphans are data bugs
    checkpoint.prune_stale_parts(out_dir, partitions)
    fingerprints = {p["part_id"]: p["fingerprint"] for p in partitions}
    done = checkpoint.completed_parts(out_dir, fingerprints) if resume else set()
    todo = [p for p in partitions if p["part_id"] not in done]
    skipped = len(partitions) - len(todo)
    if todo:
        _run_task_stage(todo, encode_shard_batch,
                        {"plan": plan, "out_dir": out_dir, "columns": columns},
                        concurrency, "numpy")
    summary = checkpoint.Manifest(out_dir).summary()
    summary["skipped_parts"] = skipped
    summary["plan"] = dict(plan.codecs)
    return summary


class EncodeBlock:
    """Streaming stage for arbitrary Datasets: each Arrow block -> one
    container file named by a content-derived id. Use via encode_dataset."""

    def __init__(self, plan_ref, out_dir: str):
        import ray

        import uuid

        self.plan: EncodePlan = ray.get(plan_ref) if not isinstance(plan_ref, EncodePlan) else plan_ref
        self.out_dir = out_dir
        self.counter = 0
        # a pid is only unique per node (and can be recycled across runs
        # writing into the same dir) — a random token makes block names
        # collision-proof on a multi-node cluster; this path is explicitly
        # non-resumable so the names need not be stable across runs
        self.actor_id = uuid.uuid4().hex[:12]

    def __call__(self, table: pa.Table) -> pa.Table:
        name = f"block-{self.actor_id}-{self.counter:05d}.grck"
        self.counter += 1
        t0 = time.perf_counter()
        metrics = write_partition(table, os.path.join(self.out_dir, name),
                                  self.plan.codecs, self.plan.context())
        return pa.table({
            "file": [name],
            "rows": [metrics["rows"]],
            "raw_bytes": [metrics["raw_bytes"]],
            "enc_bytes": [metrics["enc_bytes"]],
            "secs": [time.perf_counter() - t0],
        })


def sample_dataset(ds: "Any", sample_rows: int, seed: int) -> pa.Table:
    """Plan sample of a Dataset, drawn ACROSS the input and kept in Arrow.

    ``randomize_block_order`` is a metadata-only shuffle of block order, so
    the ``limit()`` draws from blocks spread over the whole input instead of
    its head (on a sorted/clustered corpus the head is not the data; same
    fix as ``sample_plan_from_files``, VERDICT r1/r2 #6). The blocks come
    back as Arrow tables, so the sample keeps the input's own column types:
    a round trip through Python rows would turn ``int8`` into ``int64``,
    ``timestamp[ns]`` into ``timestamp[us]`` and ``large_binary`` into
    ``binary``. An empty input gives a table without columns."""
    import ray

    refs = ds.randomize_block_order(seed=seed).limit(
        sample_rows).to_arrow_refs()
    tables = [t for t in ray.get(refs) if t.num_rows]
    return pa.concat_tables(tables).combine_chunks() if tables \
        else pa.table({})


def encode_dataset(ds: "Any", out_dir: str, *,
                   plan: Optional[EncodePlan] = None,
                   sample_rows: int = 50_000,
                   outer_level: int = 3,
                   concurrency: Optional[int] = None,
                   batch_rows: int = 65_536) -> dict:
    """Streaming encode of an arbitrary Ray Dataset (blockwise, lazy)."""
    import ray

    os.makedirs(out_dir, exist_ok=True)
    # this path is explicitly NON-resumable (block ids are fresh per run):
    # block files left by a previous run would silently double-count on
    # decode, since decode reads every *.grck in the directory
    for f in os.listdir(out_dir):
        if f.startswith("block-") and f.endswith(".grck"):
            os.remove(os.path.join(out_dir, f))
    if plan is None:
        sample = sample_dataset(ds, sample_rows, seed=17)
        if not sample.num_rows:
            raise ValueError(
                "encode_dataset: input dataset is empty — cannot sample an "
                "encode plan (pass plan= explicitly to encode empty inputs)")
        plan = build_plan(sample, outer_level=outer_level)
    plan_ref = ray.put(plan)
    stats = map_batches(
        ds, EncodeBlock,
        fn_constructor_args=(plan_ref, out_dir),
        batch_size=batch_rows,
        concurrency=concurrency or 8,
        num_cpus=1,
    ).take_all()
    raw = sum(r["raw_bytes"] for r in stats)
    enc = sum(r["enc_bytes"] for r in stats)
    return {"parts": len(stats), "rows": sum(r["rows"] for r in stats),
            "raw_bytes": raw, "enc_bytes": enc,
            "ratio": raw / enc if enc else 0.0, "plan": dict(plan.codecs)}


def evolve_table(t: pa.Table, target_schema: pa.Schema, *,
                 defaults: Optional[dict] = None,
                 renames: Optional[dict] = None,
                 safe_cast: bool = True) -> pa.Table:
    """Project a decoded table onto a TARGET schema (schema evolution).

    Lakehouse-style read-time evolution over immutable container parts —
    old parts never rewrite when the logical schema moves:

    - a target column missing from ``t`` is filled with ``defaults[name]``
      (vectorized ``fill_null`` over a typed null column) or nulls;
    - a source column absent from the target is dropped;
    - type changes cast via Arrow (``safe_cast=True`` raises on lossy
      casts, e.g. int64 -> int32 overflow, instead of corrupting);
    - ``renames`` maps ``{source_name: target_name}``.

    The reference's closest feature is the Avro writer's provided-schema
    projection (avro/IonToAvro.java's schema handling); this generalizes it
    to every decode path."""
    defaults = defaults or {}
    renames = renames or {}
    src_by_target: dict[str, str] = {}
    for name in t.column_names:
        tgt = renames.get(name, name)
        if tgt in src_by_target:
            raise ValueError(
                f"evolve_table: both {src_by_target[tgt]!r} and {name!r} "
                f"map to target column {tgt!r}")
        src_by_target[tgt] = name
    n = t.num_rows
    arrays = []
    for field in target_schema:
        src = src_by_target.get(field.name)
        if src is not None:
            col = t.column(src)
            if col.type != field.type:
                col = pc.cast(col, field.type, safe=safe_cast)
            arrays.append(col)
        elif field.name in defaults:
            arrays.append(pc.fill_null(
                pa.nulls(n, type=field.type),
                pa.scalar(defaults[field.name], type=field.type)))
        else:
            arrays.append(pa.nulls(n, type=field.type))
    return pa.table(arrays, schema=target_schema)


def plan_compaction_bins(src_dir: str,
                         target_part_bytes: int = 256 << 20) -> list[dict]:
    """Deterministic bin-packing of a container dir's part files into
    CONSECUTIVE groups of >= ``target_part_bytes`` encoded bytes each
    (pure function of the directory listing + file stamps, so a resumed
    compaction re-derives identical bins). Consecutive grouping preserves
    the original partition order — decode order and zone-map locality
    survive compaction."""
    files = _part_files(src_dir)
    if not files:
        raise ValueError(f"plan_compaction_bins: no .grck parts in {src_dir}")
    bins: list[list[str]] = []
    cur: list[str] = []
    acc = 0
    for f in files:
        cur.append(os.path.basename(f))
        acc += os.path.getsize(f)
        if acc >= target_part_bytes:
            bins.append(cur)
            cur, acc = [], 0
    if cur:
        bins.append(cur)
    out = []
    for i, names in enumerate(bins):
        fp = ";".join(_fingerprint(os.path.join(src_dir, n)) for n in names)
        out.append({"part_id": i, "files": "\n".join(names),
                    "fingerprint": fp})
    return out


def compact_bin_batch(batch: dict, *, plan: EncodePlan, src_dir: str,
                      dst_dir: str,
                      src_raw_bytes: Optional[dict] = None) -> dict:
    """Task stage: each compaction bin of the batch (N small source parts)
    -> one target-size container partition, one bin at a time. Decode is
    chunk-streamed per source part; one bin's DECODED bytes (~=
    target_part_bytes x compression ratio) bound this task's heap, the
    same bound encode_shard_batch has.

    A SINGLETON bin (one source part already at/over target) is
    byte-copied, never decoded or re-encoded — in a long-tail compaction
    of a 100 TB container most bytes live in already-full parts and must
    not be rewritten; only the small-part tail pays CPU. The copy keeps
    the source file's EMBEDDED header meta (part_id/inputs) verbatim —
    the destination filename and manifest entry carry the new bin id and
    are authoritative (readers derive nothing from embedded part ids);
    its raw_bytes comes from the source manifest, recorded as None
    (unknown) when the source dir has no manifest entry — summary()
    then reports raw_unknown_parts and computes the ratio over known
    parts only (ADVICE r4: the 0 default understated the ratio)."""
    for part_id, files_s, fingerprint in zip(
            batch["part_id"], batch["files"], batch["fingerprint"]):
        part_id = int(part_id)
        names = str(files_s).split("\n")
        t0 = time.perf_counter()
        out_name = f"part-{part_id:05d}.grck"
        dst_path = os.path.join(dst_dir, out_name)
        if len(names) == 1:
            tmp = dst_path + ".tmp"
            shutil.copyfile(os.path.join(src_dir, names[0]), tmp)
            os.replace(tmp, dst_path)  # atomic publish, like write_partition
            header = read_header(dst_path)
            metrics = {
                "rows": header["rows"],
                # None (not 0) when the source dir has no manifest entry:
                # the copy never decodes, so the raw size is genuinely
                # UNKNOWN — summary() reports it as such instead of
                # understating ratio
                "raw_bytes": (src_raw_bytes or {}).get(names[0]),
                "enc_bytes": os.path.getsize(dst_path),
                "codecs": {c: (u[0] if u else "plain") for c, u in
                           partition_codec_report(dst_path).items()},
                "stats": header.get("stats", {}),
                "blooms": header.get("blooms", {}),
                "copied": True,
            }
        else:
            tables = [read_partition(os.path.join(src_dir, n))
                      for n in names]
            for i, t in enumerate(tables[1:], 1):
                if not t.schema.equals(tables[0].schema):
                    raise ValueError(
                        f"compact_parts: mixed schemas inside {src_dir} "
                        f"({names[0]} vs {names[i]}); evolve the parts to "
                        "one schema before compacting")
            table = pa.concat_tables(tables).combine_chunks()
            del tables
            metrics = write_partition(
                table, dst_path, plan.codecs, plan.context(),
                extra_meta={"part_id": part_id, "inputs": names,
                            "compacted_from": os.path.basename(
                                os.path.normpath(src_dir))},
            )
            metrics = {k: metrics[k] for k in _METRIC_KEYS}
        checkpoint.write_manifest_entry(dst_dir, part_id, {
            "part_id": part_id,
            "input": src_dir,
            "inputs": names,
            "input_fingerprint": str(fingerprint),
            "file": out_name,
            **metrics,
            "secs": time.perf_counter() - t0,
        })
    return {"part_id": np.asarray(batch["part_id"])}


def compact_parts(src_dir: str, dst_dir: str, *,
                  target_part_bytes: int = 256 << 20,
                  resume: bool = True,
                  concurrency: Optional[int] = None,
                  outer_level: int = 3) -> dict:
    """Small-file compaction: bin-pack a container dir's parts into
    ~``target_part_bytes`` encoded parts in ``dst_dir`` (a fresh, fully
    valid container dir: plan + manifest + zone maps/Blooms recomputed
    over the merged row ranges, so pruning gets BETTER, not lost).

    Why it exists at 100 TB: a streaming ``encode_dataset`` run or an
    encode over millions of small inputs leaves a long tail of tiny parts;
    per-file open/seek overhead then dominates decode, and the manifest
    grows unbounded. Compaction is the standard lakehouse answer
    (Iceberg/Delta ``rewrite_data_files``); here the output bins are
    packed into at most four Ray tasks per CPU (:func:`_run_task_stage`),
    each writing its bins one at a time, so a task's heap is bounded by one
    bin's decoded size.

    Resumable: bins are a pure function of the source listing, each
    completed bin publishes an atomic manifest entry keyed by the source
    parts' fingerprints; a rerun skips finished bins. In-place compaction
    is refused — the source stays immutable until the caller swaps dirs.
    Singleton bins (a part already at/over target) are byte-copied, never
    re-encoded (manifest entry marked ``copied``) — compaction CPU scales
    with the small-part tail, not the container size."""
    if os.path.abspath(src_dir) == os.path.abspath(dst_dir):
        raise ValueError("compact_parts: in-place compaction is not "
                         "supported; write to a fresh dst_dir and swap")
    bins = plan_compaction_bins(src_dir, target_part_bytes)
    checkpoint.ensure_dirs(dst_dir)
    plan = checkpoint.read_plan(src_dir)
    if plan is None:
        # dir written by encode_dataset (stores no plan): rebuild from a
        # bounded sample of the first part — codecs may differ from the
        # original run but decode identity never depends on the plan
        sample = read_partition(os.path.join(src_dir, bins[0]["files"].split("\n")[0]))
        plan = build_plan(sample.slice(0, 50_000).combine_chunks(),
                          outer_level=outer_level)
    checkpoint.write_plan(dst_dir, plan)
    checkpoint.prune_stale_parts(dst_dir, bins)
    fingerprints = {b["part_id"]: b["fingerprint"] for b in bins}
    done = checkpoint.completed_parts(dst_dir, fingerprints) if resume else set()
    todo = [b for b in bins if b["part_id"] not in done]
    if todo:
        # raw_bytes for byte-copied singleton bins comes from the SOURCE
        # manifest (the copy never decodes, so it can't measure it)
        src_raw = {e["file"]: e.get("raw_bytes")
                   for e in checkpoint.read_manifest_entries(src_dir).values()}
        _run_task_stage(todo, compact_bin_batch,
                        {"plan": plan, "src_dir": src_dir, "dst_dir": dst_dir,
                         "src_raw_bytes": src_raw}, concurrency, "numpy")
    summary = checkpoint.Manifest(dst_dir).summary()
    summary["skipped_parts"] = len(bins) - len(todo)
    summary["source_parts"] = sum(
        len(b["files"].split("\n")) for b in bins)
    summary["plan"] = dict(plan.codecs)
    return summary


def scrub_part_batch(batch: pa.Table, *, deep: bool = False) -> pa.Table:
    """Task stage: integrity-scan each container part of the batch.

    Shallow mode reads every chunk payload and checks its CRC32 — pure
    sequential I/O, no decode cost. Deep mode also decodes every chunk and
    checks the decoded row count against the header (catches a corrupt
    symbol table / dictionary whose payload still CRCs clean)."""
    out = {"file": [], "ok": [], "rows": [], "chunks": [], "error": []}
    for path in batch["path"].to_pylist():
        path = str(path)
        name = os.path.basename(path)
        rows = chunks = 0
        err = None
        try:
            header = read_header(path)
            schema = header_schema(header)
            start = header["_data_start"]
            with open(path, "rb") as f:
                for col in header["columns"]:
                    typ = schema.field(col["name"]).type
                    decoded_rows = 0
                    for ch in col["chunks"]:
                        f.seek(start + ch["off"])
                        payload = f.read(ch["len"])
                        if len(payload) != ch["len"]:
                            raise ValueError(
                                f"{col['name']}: truncated chunk "
                                f"({len(payload)} < {ch['len']} bytes)")
                        if (zlib.crc32(payload) & 0xFFFFFFFF) != ch["crc"]:
                            raise ValueError(
                                f"{col['name']}: chunk CRC mismatch")
                        chunks += 1
                        if deep:
                            blob = _outer_decompress(payload, ch["outer"])
                            decoded_rows += len(decode_array(blob, typ))
                    if deep and decoded_rows != header["rows"]:
                        raise ValueError(
                            f"{col['name']}: decoded {decoded_rows} rows, "
                            f"header says {header['rows']}")
            rows = header["rows"]
        except Exception as e:  # report, never crash the scan
            err = f"{type(e).__name__}: {e}"
        out["file"].append(name)
        out["ok"].append(err is None)
        out["rows"].append(rows)
        out["chunks"].append(chunks)
        out["error"].append(err)
    return pa.table({
        "file": pa.array(out["file"], pa.string()),
        "ok": pa.array(out["ok"], pa.bool_()),
        "rows": pa.array(out["rows"], pa.int64()),
        "chunks": pa.array(out["chunks"], pa.int64()),
        "error": pa.array(out["error"], pa.string()),
    })


def verify_container(out_dir: str, *, deep: bool = False,
                     concurrency: Optional[int] = None) -> dict:
    """Distributed container fsck: the parts are packed into at most four
    Ray tasks per CPU (:func:`_run_task_stage`), which check every chunk CRC
    of each part (``deep=True`` additionally decodes every chunk and
    cross-checks row counts), then the manifest is reconciled driver-side — entries
    whose part file is missing, part files no manifest entry claims
    (orphans double-count on decode), and row counts that disagree.

    Returns ``{"ok": bool, "parts": report_table, "manifest_missing": [...],
    "orphans": [...], "row_mismatches": [...]}``. The report is
    O(parts) rows — safe to materialize. At 100 TB this is the
    post-ingest audit you run BEFORE deleting the source data."""
    files = _part_files(out_dir)
    if not files:
        raise ValueError(f"verify_container: no .grck parts in {out_dir}")
    report_rows = _run_task_stage([{"path": f} for f in files],
                                  scrub_part_batch, {"deep": deep},
                                  concurrency, "pyarrow")  # one row per part
    report = pa.Table.from_pylist(report_rows)
    by_file = {r["file"]: r for r in report_rows}
    entries = checkpoint.read_manifest_entries(out_dir)
    manifest_missing = [e["file"] for e in entries.values()
                        if e["file"] not in by_file]
    manifested = {e["file"] for e in entries.values()}
    orphans = [f for f in by_file if f not in manifested]
    row_mismatches = [
        e["file"] for e in entries.values()
        if e["file"] in by_file and by_file[e["file"]]["ok"]
        and by_file[e["file"]]["rows"] != e.get("rows")]
    # orphans fail the audit only when a manifest exists: in an encode_files
    # dir an unmanifested part double-counts on decode; a plan-less
    # encode_dataset dir has NO manifest, so every part is a benign "orphan"
    ok = (all(r["ok"] for r in report_rows)
          and not manifest_missing and not row_mismatches
          and not (orphans and entries))
    return {"ok": ok, "parts": report,
            "manifest_missing": manifest_missing,
            "orphans": orphans,
            "row_mismatches": row_mismatches}


def _part_files(out_dir: str) -> list[str]:
    return sorted(
        os.path.join(out_dir, f) for f in os.listdir(out_dir)
        if f.endswith(".grck")
    )


def _zone_may_match(stats: Optional[list], op: str, value) -> bool:
    """Conservative zone-map check: False only when the partition range
    provably excludes every matching row."""
    if not stats:
        return True
    lo, hi = stats[0], stats[1]
    if len(stats) == 3:
        # temporal column: lo/hi are int64 storage units; convert the
        # predicate value into the column's OWN unit/tz via pa.scalar.
        # Any conversion uncertainty keeps the partition (conservative).
        try:
            typ = temporal_type_from_tag(str(stats[2]))
            value = pa.scalar(value, type=typ).cast(pa.int64()).as_py()
        except Exception:
            return True
        if value is None:
            return True
    try:
        if op == "==":
            return lo <= value <= hi
        if op in (">", ">="):
            return hi > value if op == ">" else hi >= value
        if op in ("<", "<="):
            return lo < value if op == "<" else lo <= value
    except TypeError:
        return True
    return True


def _is_conjunct(p) -> bool:
    return (isinstance(p, tuple) and len(p) == 3
            and isinstance(p[0], str))


def _check_conjunct(p) -> tuple:
    if not (len(p) == 3 and isinstance(p[0], str)):
        raise ValueError(f"predicate {p!r}: want (column, op, value)")
    if p[1] not in ("==", "!=", ">", ">=", "<", "<=", "in",
                    "is_null", "not_null"):
        raise ValueError(f"predicate op {p[1]!r}: want == != > >= < <= "
                         "in is_null not_null")
    if p[1] == "in" and not isinstance(p[2], (list, tuple, set,
                                              frozenset)):
        raise ValueError("'in' predicate needs a list/tuple/set value")
    return tuple(p)


def _normalize_predicates(predicate) -> list:
    """Normalize to DNF: a list of DISJUNCTS, each a non-empty list of
    ``(col, op, value)`` conjuncts (OR of ANDs). Accepted shapes:

    - one tuple                                  -> ``[[p]]``
    - a list of tuples (AND, the classic form)   -> ``[[p1, p2, ...]]``
    - a list of LISTS of tuples (OR of ANDs)     -> as given
    """
    if predicate is None:
        return []
    if _is_conjunct(predicate):
        return [[_check_conjunct(predicate)]]
    items = list(predicate)
    if not items:
        return []
    if all(_is_conjunct(p) for p in items):
        return [[_check_conjunct(p) for p in items]]
    if all(isinstance(d, (list, tuple)) and not _is_conjunct(d)
           for d in items):
        out = []
        for d in items:
            dl = [_check_conjunct(p) for p in d]
            if not dl:
                raise ValueError("predicate: empty OR-disjunct")
            out.append(dl)
        return out
    # a malformed conjunct in the flat form falls through to here — give
    # the classic error for it rather than the mixed-shape message
    for p in items:
        if isinstance(p, tuple) and not _is_conjunct(p):
            _check_conjunct(p)
    raise ValueError("predicate: mix conjunct tuples with disjunct lists")


def _dnf_columns(dnf: list) -> list:
    """Distinct predicate column names across every disjunct, in first-
    appearance order."""
    return list(dict.fromkeys(p[0] for d in dnf for p in d))


def decode_part_batch(batch: pa.Table, *, columns: Optional[list[str]] = None,
                      predicate=None,
                      target_schema: Optional[pa.Schema] = None,
                      defaults: Optional[dict] = None,
                      renames: Optional[dict] = None,
                      safe_cast: bool = True,
                      dictionary_columns: Optional[list[str]] = None,
                      ) -> Iterable[pa.Table]:
    dnf = _normalize_predicates(predicate)
    pred_cols = _dnf_columns(dnf)
    # predicate columns must be decoded even when the caller's projection
    # excludes them; they are dropped again after filtering
    read_cols = columns
    drop_cols: list[str] = []
    if dnf and columns is not None:
        drop_cols = list(dict.fromkeys(
            c for c in pred_cols if c not in columns))
        if drop_cols:
            read_cols = list(columns) + drop_cols
    if target_schema is not None:
        if columns is not None:
            raise ValueError(
                "decode: pass either columns= (projection) or "
                "target_schema= (evolution defines its own projection), "
                "not both")
        # evolution projection: read only the SOURCE columns the target (via
        # inverse renames) and the predicates need — per part, intersected
        # with what that part actually stores (old parts may predate a column)
        inv = {v: k for k, v in (renames or {}).items()}
        tgt_sources = [inv.get(f.name, f.name) for f in target_schema]
        read_cols = list(dict.fromkeys(tgt_sources + pred_cols))
    for path in batch["path"].to_pylist():
        path = str(path)
        cols_here = read_cols
        part_dnf = dnf
        part_pred_cols = pred_cols
        if target_schema is not None:
            hdr = read_header(path)
            have = {c["name"] for c in hdr["columns"]}
            cols_here = [c for c in read_cols if c in have]
            if dnf and any(p[0] not in have for d in dnf for p in d):
                # resolve each DISJUNCT against the columns this part
                # stores: a comparison / not_null on an absent column
                # makes that disjunct all-false (NULL never compares
                # true); an is_null on an absent column is all-true and
                # drops out of the conjunction. An emptied (all-true)
                # disjunct makes the whole part match.
                live, whole_part = [], False
                for d in dnf:
                    missing = [p for p in d if p[0] not in have]
                    if any(p[1] != "is_null" for p in missing):
                        continue                     # disjunct dead here
                    kept = [p for p in d if p[0] in have]
                    if not kept:
                        whole_part = True            # disjunct all-true
                        break
                    live.append(kept)
                if whole_part:
                    part_dnf = []
                elif not live:                       # no disjunct can hold
                    yield target_schema.empty_table()
                    continue
                else:
                    part_dnf = live
                part_pred_cols = _dnf_columns(part_dnf)
            if not cols_here:
                # part stores none of the wanted sources: if no
                # present-column predicate remains its rows still exist
                # and surface as defaults/nulls under the target schema
                if not part_dnf:
                    t = pa.table({"__void__": pa.nulls(hdr["rows"])})
                    yield evolve_table(t, target_schema, defaults=defaults,
                                       renames=renames, safe_cast=safe_cast)
                continue
        if not part_dnf:
            t = read_partition(path, cols_here,
                               dictionary_columns=dictionary_columns)
            if target_schema is not None:
                t = evolve_table(t, target_schema, defaults=defaults,
                                 renames=renames, safe_cast=safe_cast)
            yield t
            continue
        # LATE MATERIALIZATION: decode ONLY the predicate columns first and
        # compute the combined mask — a part that survived zone/Bloom
        # pruning but matches nothing (range overlap, Bloom false positive)
        # never decodes its payload columns; on the webtext table a url==
        # probe pays the url column, not the 10x-larger text/html bytes
        pt = read_partition(path, part_pred_cols,
                            dictionary_columns=dictionary_columns)

        def conjunct_mask(col, op, value):
            c = pt.column(col).combine_chunks()
            if pa.types.is_dictionary(c.type):
                # comparison kernels want the flat domain; the filter mask
                # is computed on decoded values, the kept column stays dict
                c = c.cast(c.type.value_type)
            if op == "is_null":
                m = pc.is_null(c)
            elif op == "not_null":
                m = pc.is_valid(c)
            elif op == "in":
                try:
                    vs = pa.array(list(value), type=c.type)
                except (pa.ArrowInvalid, pa.ArrowTypeError,
                        pa.ArrowNotImplementedError):
                    vs = pa.array(list(value))
                m = pc.is_in(c, value_set=vs)
            else:
                try:
                    value = pa.scalar(value, type=c.type)
                except (pa.ArrowInvalid, pa.ArrowTypeError,
                        pa.ArrowNotImplementedError):
                    pass  # let Arrow's comparison kernel infer/cast
                # != keeps SQL semantics via the shared fill_null(False):
                # NULL != x is unknown, so the row drops
                m = {"==": pc.equal, "!=": pc.not_equal, ">": pc.greater,
                     ">=": pc.greater_equal, "<": pc.less,
                     "<=": pc.less_equal}[op](c, value)
            return pc.fill_null(m, False)

        # DNF mask: OR over disjuncts of AND over conjuncts (SQL
        # three-valued logic collapses safely because every conjunct
        # fill_null(False)s its own unknowns first)
        mask = None
        for d in part_dnf:
            dm = None
            for col, op, value in d:
                m = conjunct_mask(col, op, value)
                dm = m if dm is None else pc.and_(dm, m)
            mask = dm if mask is None else pc.or_(mask, dm)
        wanted = cols_here if cols_here is not None else \
            [c["name"] for c in read_header(path)["columns"]]
        out_names = [c for c in wanted if c not in drop_cols]
        if not pc.sum(mask).as_py():
            # no row matches: a zero-row block that still carries the
            # part's output schema, payload columns never decoded
            yield (target_schema.empty_table() if target_schema is not None
                   else output_schema(header_schema(read_header(path)),
                                      out_names, dictionary_columns or ())
                   .empty_table())
            continue
        rest = [c for c in out_names if c not in part_pred_cols]
        rt = read_partition(path, rest,
                            dictionary_columns=dictionary_columns) \
            if rest else None
        fields, arrays = [], []
        for name in out_names:
            src = pt if name in pt.schema.names else rt
            fields.append(src.schema.field(name))
            arrays.append(src.column(name))
        t = pa.table(arrays, schema=pa.schema(fields)).filter(mask)
        if target_schema is not None:
            t = evolve_table(t, target_schema, defaults=defaults,
                             renames=renames, safe_cast=safe_cast)
        yield t


def _manifest_parts(out_dir):
    """``(part path, manifest entry or None)`` for every part file of one
    dir or a LIST of dirs — multi-dir inputs make an accumulated corpus
    (several encode epochs, possibly with different schemas) readable as
    ONE dataset; pair with ``target_schema=`` to project the union onto a
    common schema."""
    dirs = [out_dir] if isinstance(out_dir, (str, os.PathLike)) else \
        list(out_dir)
    for d in dirs:
        entries = checkpoint.read_manifest_entries(str(d))
        by_file = {e["file"]: e for e in entries.values()}
        for f in _part_files(str(d)):
            yield f, by_file.get(os.path.basename(f))


def _ruled_out(entry: Optional[dict], col, op, value,
               hashed: dict) -> Optional[str]:
    """How the part's zone map (min/max) or distinct-value Bloom proves
    the conjunct false on every row, or None when it cannot."""
    if op in ("!=", "is_null", "not_null"):
        return None   # min/max and Blooms cannot exclude these
    stats = (entry or {}).get("stats", {}).get(col)
    bloom = (entry or {}).get("blooms", {}).get(col)
    if op == "in":
        live = [v for v in value if _zone_may_match(stats, "==", v)]
        if live and bloom_may_contain(bloom, live, hashed):
            return None
        return f"{col} in … (zone+bloom)"
    if not _zone_may_match(stats, op, value):
        return f"{col} {op} {value!r} (zone)"
    if op == "==" and not bloom_may_contain(bloom, [value], hashed):
        return f"{col} == {value!r} (bloom)"
    return None


def _part_verdict(entry: Optional[dict], dnf: list,
                  hashed: dict) -> tuple:
    """The one pruning evaluator: ``(kept, reason)`` for a part from its
    manifest entry. A part is dropped when EVERY disjunct has a conjunct
    its metadata rules out; the reason names, per disjunct, the first
    such conjunct and the mechanism (``zone`` vs ``bloom``)."""
    if not dnf:
        return True, "no predicate"
    reasons = []
    for di, disj in enumerate(dnf):
        why = next(filter(None, (_ruled_out(entry, *p, hashed)
                                 for p in disj)), None)
        if why is None:
            return True, f"d{di} may match"
        reasons.append(f"d{di}: {why}")
    return False, "; ".join(reasons)


def _verdicts(out_dir, dnf: list):
    """``(path, kept, reason)`` per part; every ``==``/``in`` probe value
    of the query is hashed once, in one call, before the walk."""
    hashed = bloom_hashes(v for d in dnf for _, op, val in d
                          for v in (val if op == "in" else
                                    [val] if op == "==" else []))
    for f, e in _manifest_parts(out_dir):
        yield (f, *_part_verdict(e, dnf, hashed))


def _pruned_files(out_dir, dnf: list) -> list[str]:
    """Part files whose manifest zone maps and Blooms cannot rule the
    predicate out — pruned before any file opens."""
    return [f for f, kept, _ in _verdicts(out_dir, dnf) if kept]


def explain_pruning(out_dir, predicate=None) -> pa.Table:
    """Metadata-only pruning report: one row per part file with whether
    the predicate keeps it and, for dropped parts, which conjunct of
    which disjunct excluded it and HOW (``zone`` min/max vs ``bloom``).
    The 100 TB observability question — why does this query open N
    parts — answered without opening any; pair with
    ``extras.point_query_secs`` when tuning predicates."""
    rows = list(_verdicts(out_dir, _normalize_predicates(predicate)))
    files_c, kept_c, reason_c = zip(*rows) if rows else ((), (), ())
    return pa.table({"file": pa.array(files_c, type=pa.string()),
                     "kept": pa.array(kept_c, type=pa.bool_()),
                     "reason": pa.array(reason_c, type=pa.string())})


def count_rows(out_dir, predicate=None) -> int:
    """Row count of a container dir (or list of dirs) as cheaply as the
    predicate allows.

    No predicate: the manifest answers without opening a single part file
    (unmanifested parts fall back to one header read each — a few hundred
    bytes). With predicates: zone/Bloom pruning drops provably-excluded
    parts, the survivors decode ONLY the predicate columns and count the
    mask — never the payload columns. The 100 TB 'how many rows match'
    question costs metadata + the predicate column bytes."""
    preds = _normalize_predicates(predicate)
    if not preds:
        return sum(e["rows"] if e is not None else read_header(f)["rows"]
                   for f, e in _manifest_parts(out_dir))
    ds = decode_dataset(out_dir, columns=_dnf_columns(preds),
                        predicate=predicate)
    return ds.count()


def decode_dataset(out_dir, columns: Optional[list[str]] = None,
                   concurrency: Optional[int] = None,
                   predicate: Optional[tuple] = None,
                   target_schema: Optional[pa.Schema] = None,
                   defaults: Optional[dict] = None,
                   renames: Optional[dict] = None,
                   safe_cast: bool = True,
                   dictionary_columns: Optional[list[str]] = None) -> "Any":
    """Container dir (or LIST of dirs — an accumulated multi-epoch corpus
    reads as one dataset; combine with ``target_schema=`` when epochs
    differ in schema) -> Ray Dataset (one decode task per partition file).

    ``dictionary_columns`` decode late-materialized as
    ``dictionary<int32, value_type>`` (stored uniques + indices pass
    through; no take() expansion) — the right read for low-cardinality
    columns feeding a downstream groupby/filter at 100 TB.

    ``target_schema`` (with ``defaults`` / ``renames`` / ``safe_cast``)
    applies read-time schema evolution per part — see :func:`evolve_table`.
    Predicates name SOURCE (pre-rename) columns; for a part that predates
    a predicate column, comparisons and ``not_null`` prune the part (NULL
    never compares true), while ``is_null`` matches EVERY row of it (the
    absent column reads as all-NULL).

    ``predicate`` is one ``(column, op, value)`` tuple, a LIST of them
    (AND-conjunction), or a list of LISTS of them (OR of ANDs — r5 DNF
    form, e.g. ``[[("lang","==","fr")], [("lang","==","de"),
    ("k","<",10)]]`` ≡ ``lang='fr' OR (lang='de' AND k<10)``); op in
    {==, !=, >, >=, <, <=, in, is_null, not_null}
    (null ops ignore the value; !=/null ops filter exactly but cannot
    prune partitions — min/max and Blooms can't exclude them) ('in' takes a value
    list). A partition is pruned when EVERY disjunct has a conjunct the
    manifest zone maps (min/max recorded at encode time) — or, for
    ``==`` / ``in`` on string/binary/int columns, the per-partition
    distinct-value Bloom filters, which prune point lookups even when
    value ranges interleave across partitions — provably excludes,
    before any file is opened; survivors exact-filter rows — the
    columnar-engine read path: prune at the read, filter the rest.
    """
    import ray.data

    if target_schema is not None and columns is not None:
        # fail at the call site, not inside a worker traceback
        raise ValueError("decode_dataset: pass either columns= or "
                         "target_schema=, not both")
    verdicts = list(_verdicts(out_dir, _normalize_predicates(predicate)))
    files = [f for f, kept, _ in verdicts if kept]
    if verdicts and not files:
        # every part pruned by its manifest entry: zero rows that still
        # carry the output schema, from the first part header that reads,
        # with no payload decoded and no task run (no readable header: no
        # schema, as for a directory without parts)
        schema, pruned = target_schema, [f for f, _, _ in verdicts]
        while schema is None and pruned:
            try:
                stored = header_schema(read_header(pruned.pop(0)))
            except (OSError, ValueError, ChunkCorruption, struct.error):
                continue
            schema = output_schema(
                stored, stored.names if columns is None else columns,
                dictionary_columns or ())
        if schema is not None:
            # from_blocks, unlike from_arrow, reads the block metadata
            # here instead of in a Ray task
            return ray.data.from_blocks([schema.empty_table()])
    ds = ray.data.from_items([{"path": f} for f in files])
    return map_batches(
        ds, decode_part_batch,
        fn_kwargs={"columns": columns, "predicate": predicate,
                   "target_schema": target_schema, "defaults": defaults,
                   "renames": renames, "safe_cast": safe_cast,
                   "dictionary_columns": dictionary_columns},
        batch_size=1,
        concurrency=min(concurrency or 8, max(len(files), 1)),
        num_cpus=1,
    )


def decode_table(out_dir: str, columns: Optional[list[str]] = None,
                 target_schema: Optional[pa.Schema] = None,
                 defaults: Optional[dict] = None,
                 renames: Optional[dict] = None,
                 safe_cast: bool = True,
                 dictionary_columns: Optional[list[str]] = None) -> pa.Table:
    """Driver-side decode (tests / small results only), partition order."""
    if target_schema is not None and columns is not None:
        raise ValueError("decode_table: pass either columns= or "
                         "target_schema=, not both")
    tables = [read_partition(f, columns,
                             dictionary_columns=dictionary_columns)
              for f in _part_files(out_dir)]
    if target_schema is not None:
        tables = [evolve_table(t, target_schema, defaults=defaults,
                               renames=renames, safe_cast=safe_cast)
                  for t in tables]
    out = pa.concat_tables(tables)
    if dictionary_columns:
        # each part unified internally; cross-part dictionaries still differ
        out = out.unify_dictionaries()
    return out
