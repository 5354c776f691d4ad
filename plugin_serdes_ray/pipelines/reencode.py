"""The north-rule wide-path re-encode: groupby(lang) skew-aware repartition
feeding dictionary+RLE (BASELINE.json north_star; SURVEY.md §7.2.4).

Stages:
1. sample pass: detect hot langs (Zipf head — `en` ~60%) via
   :func:`relational.detect_hot_keys`;
2. salt hot keys so no reducer drowns (`en#0..en#k`), cold langs keep one
   subkey — the ONLY shuffle in the pipeline;
3. per-group: sort by (lang, warc_ts) and stream-encode the group through
   the container engine — with rows grouped by lang, the `lang` column is
   constant/run-heavy per partition, so the measured selector picks
   constant/dict+RLE and the timestamp delta codec sees near-sorted input.

Compare with the embarrassingly-parallel path (encode.encode_files), which
preserves input order: this path trades one shuffle for strictly better
compression on the grouped columns.
"""

from __future__ import annotations

import os
from typing import Optional

import pyarrow as pa

from ..container import write_partition
from ..encode import sample_dataset
from ..plan import EncodePlan, build_plan
from ..state import checkpoint
from ..util import map_groups
from .relational import salt_counts_for_target, salted_key, sample_key_stats


def reencode_grouped(ds, out_dir: str, group_key: str = "lang", *,
                     sort_keys: Optional[list[str]] = None,
                     plan: Optional[EncodePlan] = None,
                     sample_rows: int = 8192,
                     salt_n: int = 8,
                     hot_frac: float = 0.10,
                     target_group_bytes: int = 256 << 20) -> dict:
    """Dataset -> grouped container partitions (one+ file per salted group).

    Group sizes are CAPPED two ways (SURVEY §7.2.4): the salt count per key
    scales with the key's estimated byte mass (a 60%-hot key gets enough
    subkeys that each salted group lands under ``target_group_bytes``, not a
    fixed divide-by-8), and any group that still overshoots the estimate is
    written as multiple capped container files."""
    import ray

    os.makedirs(out_dir, exist_ok=True)
    checkpoint.ensure_dirs(out_dir)
    if plan is None:
        plan = build_plan(sample_dataset(ds, sample_rows, seed=11))
    # per-group plans re-measure cheaply via the per-chunk guard; the shared
    # plan still carries FSST tables etc.
    plan_ref = ray.put(plan)
    key_stats = sample_key_stats(ds, group_key, sample_rows=sample_rows)
    hot = [k for k, f in key_stats["fractions"].items() if f >= hot_frac]
    counts = salt_counts_for_target(key_stats, target_group_bytes,
                                    hot_frac=hot_frac, min_hot_salt=salt_n)
    salted = salted_key(ds, group_key, hot, salt_n=salt_n,
                        salt_counts=counts or None)
    sort_cols = sort_keys or [group_key]
    mean_row_bytes = max(key_stats["mean_row_bytes"], 1.0)
    max_rows_per_file = max(int(2 * target_group_bytes / mean_row_bytes), 1)

    def encode_group(group: pa.Table) -> pa.Table:
        plan_local: EncodePlan = ray.get(plan_ref)
        key = group.column("__salted")[0].as_py()
        safe = "".join(c if c.isalnum() or c in "#_-" else "_" for c in str(key))
        if safe != str(key):
            # sanitization is lossy ('a.b' and 'a/b' both -> 'a_b'): append
            # a stable hash of the REAL key so distinct groups never share
            # an output file
            import hashlib

            safe += "-" + hashlib.sha1(str(key).encode()).hexdigest()[:8]
        table = group.drop_columns(["__salted"]).sort_by(
            [(c, "ascending") for c in sort_cols])
        out_rows = []
        n_files = (table.num_rows + max_rows_per_file - 1) // max_rows_per_file
        for i in range(max(n_files, 1)):
            piece = table.slice(i * max_rows_per_file, max_rows_per_file)
            name = f"group-{safe}.grck" if n_files <= 1 \
                else f"group-{safe}-p{i:03d}.grck"
            metrics = write_partition(
                piece, os.path.join(out_dir, name), plan_local.codecs,
                plan_local.context(), extra_meta={"group": str(key)})
            out_rows.append({
                "group": str(key), "file": name, "rows": metrics["rows"],
                "raw_bytes": metrics["raw_bytes"],
                "enc_bytes": metrics["enc_bytes"]})
        return pa.Table.from_pylist(out_rows)

    stats = map_groups(salted.groupby("__salted"), encode_group).take_all()
    raw = sum(r["raw_bytes"] for r in stats)
    enc = sum(r["enc_bytes"] for r in stats)
    return {"groups": len(stats), "rows": sum(r["rows"] for r in stats),
            "raw_bytes": raw, "enc_bytes": enc,
            "ratio": raw / enc if enc else 0.0,
            "hot_keys": hot}
