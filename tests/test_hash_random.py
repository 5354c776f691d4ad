"""Randomized properties for the r5 self-contained content hash and the
size-guarded exact_dedup routes."""

import random

import numpy as np
import pyarrow as pa

MASK = (1 << 64) - 1
P = 0x100000001B3
C = 0x9E3779B97F4A7C15


def _ref_hash(b: bytes) -> int:
    """Slow trusted reference: Horner polynomial + length mix +
    splitmix64, all in Python ints mod 2^64."""
    h = 0
    for byte in b:
        h = (h * P + byte) & MASK
    h ^= ((len(b) + 1) * C) & MASK
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & MASK
    return h ^ (h >> 31)


def test_content_hash_matches_python_reference(monkeypatch):
    """C kernel, numpy fallback, and the pure-Python reference must agree
    bit-for-bit on random binary values (lengths 0-5000, all byte
    values), incl. via a sliced (nonzero offset) array."""
    from plugin_serdes_ray.codecs import fsst_native
    from plugin_serdes_ray.pipelines import dedup

    rng = random.Random(31)
    vals = [bytes(rng.randrange(256) for _ in range(rng.choice(
        [0, 1, 2, 7, 8, 9, 15, 16, 17, rng.randrange(5000)])))
        for _ in range(300)]
    arr = pa.array(vals, type=pa.binary())
    want = np.array([_ref_hash(v) for v in vals], dtype=np.uint64)
    got_c = dedup._content_hash64(arr)
    assert (got_c == want).all()
    sl = arr.slice(37, 100)
    assert (dedup._content_hash64(sl) == want[37:137]).all()
    monkeypatch.setattr(fsst_native, "native_hash64", lambda *a: None)
    got_np = dedup._content_hash64(arr)
    assert (got_np == want).all()
    assert (dedup._content_hash64(sl) == want[37:137]).all()


def test_exact_dedup_random_vs_duckdb_both_routes(ray_session):
    """Random corpus with injected duplicates, checked against DuckDB's
    keep-first answer on BOTH routes (broadcast and distributed bloom)."""
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines import dedup

    rng = random.Random(43)
    rows = []
    next_id = 0
    for _ in range(1200):
        text = "tok " * rng.randint(1, 5) + str(rng.randrange(300))
        rows.append({"doc_id": next_id, "text": text})
        next_id += rng.randint(1, 3)   # non-contiguous ids
    rng.shuffle(rows)
    t = pa.table({"doc_id": pa.array([r["doc_id"] for r in rows],
                                     type=pa.int64()),
                  "text": pa.array([r["text"] for r in rows])})
    con = duckdb.connect()
    con.register("docs", t)
    want = sorted(r[0] for r in con.execute(
        "SELECT min(doc_id) FROM docs GROUP BY text").fetchall())
    ds = ray.data.from_arrow(t).repartition(7)
    for kw in ({}, {"bloom_bits": 1 << 12}):
        out = dedup.exact_dedup(ds, "text", "doc_id", **kw)
        got = sorted(r["doc_id"] for r in out.take_all())
        assert got == want, (kw, len(got), len(want))
