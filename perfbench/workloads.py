"""The benchmark's workloads: seeded inputs, probes and their expected answers.

Inputs are made here from ``--seed`` alone and handed to the program as
parquet files; the program never sees the seed. The webpages inputs come
from the engine's own corpus generator, ``fixtures.generate_webpages``
(the one the root ``bench.py`` uses), at fewer rows; lineitem is generated
here. They are cached under
``perfbench/.cache/inputs``, one directory per (workload, seed, size).
The expected answers are computed with pyarrow on the source files, in a
separate process, so that this work counts neither toward the main process's
peak memory nor toward any timing.

Why these three workloads (README.md has the per-layer predictions):

- ``webpages``: the fixture's wide html/text rows. Outer zstd frames, FSST on ``url``,
  CRC and the ``url`` Bloom build do most of the work; url probes prune to
  one part by Bloom.
- ``lineitem``: narrow TPC-H-like columns, unsorted key. The plan's trial
  encodes and the FOR/dict codecs do the work; ``l_orderkey`` probes
  cannot prune (no part is small enough for a Bloom, zone maps span the
  whole key range), so every probe decodes the key column of every part.
- ``small_parts``: fixture rows cut into 64 files of 32 rows, the
  shape an incremental crawl lands in before compaction. Per-part fixed
  costs (one task, one manifest entry, one header, zone and Bloom checks
  per part) dominate every phase.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from checks import table_digest

# Bump when the generators or the expected-answer format change, so stale
# cached inputs are never reused.
INPUT_VERSION = 4

#: probes per round: ``HITS`` lookups of keys that exist and ``MISSES``
#: lookups of keys that no part holds, plus one filter per value of the
#: workload's ``filters``. A round also makes one plan+encode and the
#: workload's ``scans`` full scans; every round repeats the same keys, so
#: every run attempts the same mix of operations.
HITS, MISSES = 34, 8
#: the webpages fixture's four ``lang`` codes whose Zipf share lies
#: nearest 1% of the rows (0.8-1.1%). They are the same for every seed;
#: values picked from each seed's own counts changed the parts a filter
#: keeps, and with it its latency, by a third from seed to seed.
RARE_LANGS = ["cs", "vi", "id", "sv"]

#: rows and files of each workload's input, the columns it probes, and
#: the full scans per round: a webpages or lineitem scan takes 0.15-0.3 s,
#: and the median of three (one per round) spread by a quarter between
#: runs on a shared host; a small_parts scan takes over a second
WORKLOADS = {
    "webpages": {"kind": "webpages", "rows": 4_000, "files": 4, "scans": 3,
                 "key": "url", "filter_col": "lang", "filters": RARE_LANGS,
                 "lookup_columns": None},
    "lineitem": {"kind": "lineitem", "rows": 300_000, "files": 2, "scans": 4,
                 "key": "l_orderkey", "filter_col": "l_returnflag",
                 "filters": ["A", "N", "R"],
                 # an order's lines with quantity and price; decoding every
                 # payload column of the parts an unsorted key touches
                 # would make a lookup a full scan
                 "lookup_columns": ["l_orderkey", "l_linenumber",
                                    "l_quantity", "l_extendedprice"]},
    "small_parts": {"kind": "webpages", "rows": 2_048, "files": 64,
                    "scans": 1, "key": "url", "filter_col": "lang",
                    "filters": RARE_LANGS,
                    "lookup_columns": None},
}

#: cached input sets kept per workload; older ones are removed
KEEP_INPUT_SETS = 6


def _lineitem(seed: int, rows: int) -> pa.Table:
    """TPC-H lineitem columns with the distributions of the sf0.1
    lineitem test table: uniform unsorted keys (rows/4 orders, 20k parts,
    1k suppliers), 1-7 line numbers, 1-50 quantities, 2-decimal prices,
    discounts and taxes, three return flags, two line statuses and ~2.5k
    ship dates."""
    rng = np.random.default_rng([seed, 2])
    orders = rows // 4
    qty = rng.integers(1, 51, rows).astype(np.float64)
    day0 = np.datetime64("1995-01-02", "D")
    return pa.table({
        "l_orderkey": rng.integers(0, orders, rows),
        "l_partkey": rng.integers(0, 20_000, rows),
        "l_suppkey": rng.integers(0, 1_000, rows),
        "l_linenumber": pa.array(rng.integers(1, 8, rows), type=pa.int32()),
        "l_quantity": qty,
        "l_extendedprice": np.round(qty * rng.uniform(900, 2100, rows), 2),
        "l_discount": np.round(rng.uniform(0, 0.1, rows), 2),
        "l_tax": np.round(rng.uniform(0, 0.08, rows), 2),
        "l_returnflag": pa.array(np.array(["A", "N", "R"])[
            rng.integers(0, 3, rows)]),
        "l_linestatus": pa.array(np.array(["F", "O"])[
            rng.integers(0, 2, rows)]),
        "l_shipdate": pa.array((day0 + rng.integers(0, 2499, rows))
                               .astype("datetime64[us]")),
    })


def _write_shards(table: pa.Table, n: int, out_dir: str) -> list[str]:
    """Cut ``table`` into ``n`` consecutive shards. Uncompressed parquet,
    as the webpages fixture writes: a landing-zone file, so the benchmark
    times this engine's encode, not a third-party decompressor."""
    step = -(-table.num_rows // n)
    files = []
    for i in range(n):
        path = os.path.join(out_dir, f"shard-{i:05d}.parquet")
        pq.write_table(table.slice(i * step, step), path, compression=None)
        files.append(path)
    return files


def _gzip_bytes(t: pa.Table) -> int:
    """Parquet at the reference's defaults (gzip, dictionary on, 1 MiB
    pages), the size the container must not exceed."""
    buf = io.BytesIO()
    pq.write_table(t, buf, compression="gzip", use_dictionary=True,
                   data_page_size=1 << 20)
    return buf.tell()


def _pick(rng, values, k: int) -> list:
    values = list(values)
    idx = rng.choice(len(values), size=min(k, len(values)), replace=False)
    return [values[int(i)] for i in sorted(idx)]


def _expected(tables: list[pa.Table], spec: dict, pred: tuple) -> dict:
    col, _, value = pred
    cols = spec["lookup_columns"] if pred[0] == spec["key"] else None
    hits, shards = [], []
    for i, t in enumerate(tables):
        m = t.filter(pc.equal(t[col], pa.scalar(value, type=t.schema.field(col).type)))
        if m.num_rows:
            hits.append(m if cols is None else m.select(cols))
            shards.append(i)
    rows = sum(m.num_rows for m in hits)
    digest = table_digest(pa.concat_tables(hits), sort=True) if hits else ""
    return {"column": col, "value": value, "columns": cols, "rows": rows,
            "digest": digest, "shards": shards}


def _probes(tables: list[pa.Table], spec: dict, seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    key, fcol = spec["key"], spec["filter_col"]
    whole = pa.concat_tables(tables)
    present = pc.unique(whole[key])
    hit_keys = _pick(rng, present.to_pylist(), HITS)
    have = set(present.to_pylist())
    misses = []
    if key == "url":
        # an existing host and path word with a fresh number: inside every
        # zone map's range, so only a Bloom filter can rule a part out
        for u in _pick(rng, present.to_pylist(), 4 * MISSES):
            cand = u.rsplit("/", 1)[0] + f"/{int(rng.integers(10**9)):09d}.html"
            if cand not in have and cand not in misses:
                misses.append(cand)
    else:
        # keys inside the key range that no row holds
        mm = pc.min_max(whole[key])
        absent = sorted(set(range(mm["min"].as_py(), mm["max"].as_py()))
                        - have)
        misses = _pick(rng, absent, MISSES)
    misses = misses[:MISSES]
    return {
        "hits": [_expected(tables, spec, (key, "==", v)) for v in hit_keys],
        "misses": [_expected(tables, spec, (key, "==", v)) for v in misses],
        "filters": [_expected(tables, spec, (fcol, "==", v))
                    for v in spec["filters"]],
    }


def _evict(root: str, workload: str, keep: str) -> None:
    sets = [os.path.join(root, d) for d in os.listdir(root)
            if d.startswith(workload + "-") and d != keep]
    sets.sort(key=os.path.getmtime)
    for d in sets[:max(len(sets) - KEEP_INPUT_SETS + 1, 0)]:
        shutil.rmtree(d, ignore_errors=True)


def prepare(workload: str, seed: int, cache_root: str) -> str:
    """Make (or reuse) the workload's input files and their expected
    answers. Returns the path of the JSON description the benchmark works
    from."""
    spec = WORKLOADS[workload]
    name = (f"{workload}-s{seed}-r{spec['rows']}-f{spec['files']}"
            f"-v{INPUT_VERSION}")
    os.makedirs(cache_root, exist_ok=True)
    out_dir = os.path.join(cache_root, name)
    marker = os.path.join(out_dir, "expected.json")
    if os.path.exists(marker):
        os.utime(out_dir)
        return marker
    _evict(cache_root, workload, name)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    t0 = time.perf_counter()
    if spec["kind"] == "webpages":
        from plugin_serdes_ray.fixtures import generate_webpages

        files = generate_webpages(out_dir, spec["rows"], spec["files"],
                                  seed=seed)
    else:
        files = _write_shards(_lineitem(seed, spec["rows"]), spec["files"],
                              out_dir)
    gen_s = time.perf_counter() - t0
    tables = [pq.read_table(f, use_threads=False) for f in files]
    info = {
        "workload": workload, "seed": seed,
        "files": [os.path.basename(f) for f in files],
        "rows": sum(t.num_rows for t in tables),
        "raw_bytes": sum(t.nbytes for t in tables),
        "parquet_bytes": sum(os.path.getsize(f) for f in files),
        "gzip_bytes": sum(_gzip_bytes(t) for t in tables),
        "schema": tables[0].schema.remove_metadata()
        .serialize().to_pybytes().hex(),
        "part_digests": [table_digest(t) for t in tables],
        "probes": _probes(tables, spec, seed),
        "generate_s": gen_s,
    }
    with open(marker + ".tmp", "w") as f:
        json.dump(info, f)
    os.replace(marker + ".tmp", marker)
    return marker


if __name__ == "__main__":
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    print(prepare(sys.argv[1], int(sys.argv[2]), sys.argv[3]))
