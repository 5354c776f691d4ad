"""Mergeable sketches for 100 TB-scale profiling: HyperLogLog distinct
counts and guaranteed-recall heavy hitters.

Design rules (same as the dedup family):

- the shuffle (or driver merge) moves FIXED-WIDTH sketch state, never rows:
  an HLL register bank is 2^p bytes per block regardless of block size;
- anything approximate that feeds a decision is verified exactly on the
  (small) candidate set — "detect with a sketch, decide with the data"
  (the moral of minhash_lsh_duplicates_exact, pipelines/dedup.py).

The reference has no sketches (it is a serde fleet); these are the
engine-side additions a training-data pipeline needs for corpus profiling
(SURVEY.md §2.5).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import map_batches, map_groups


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1 + 1.079 / m)


def hll_estimate(registers: np.ndarray) -> float:
    """Standard bias-corrected HLL estimate with the small-range
    (linear-counting) correction (Flajolet et al. 2007)."""
    m = len(registers)
    est = _alpha(m) * m * m / np.sum(np.exp2(-registers.astype(np.float64)))
    zeros = int(np.count_nonzero(registers == 0))
    if est <= 2.5 * m and zeros:
        return m * np.log(m / zeros)
    return float(est)


def _hll_ranks(h: np.ndarray, p: int):
    """(register index, rank) pairs for 64-bit hashes: top ``p`` bits
    index the register, rank = leading zeros of the rest + 1."""
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = h << np.uint64(p)      # top p bits consumed by the index
    lz = np.full(len(h), 64 - p, dtype=np.uint8)
    nz = rest != 0
    if nz.any():
        # bit_length via float64 log2 is unsafe near 2^53; use
        # successive halving on the uint64 view instead
        r = rest[nz]
        lead = np.zeros(len(r), dtype=np.uint8)
        width = np.uint64(32)
        while width:
            top = r >> np.uint64(64) - width
            zero_top = top == 0
            lead[zero_top] += np.uint8(width)
            r = np.where(zero_top, r << width, r)
            width >>= np.uint64(1)
        lz[nz] = lead
    rank = np.minimum(lz + 1, 64 - p + 1).astype(np.uint8)
    return idx, rank


def approx_count_distinct(ds, column: str, p: int = 14) -> float:
    """HyperLogLog distinct count of ``column`` (relative error ~1.04/sqrt(2^p),
    ~0.8% at the default p=14).

    Per-block: hash values (the same vectorized 64-bit content hash the
    exact-dedup path uses), scatter max leading-zero ranks into 2^p uint8
    registers. Driver merge: elementwise max over one 2^p-byte row per
    block — O(blocks x 16 KiB), never rows. The registers are mergeable, so
    on a multi-node cluster this IS the tree-reduce payload."""
    if not 4 <= p <= 18:
        raise ValueError("p must be in [4, 18]")
    m = 1 << p
    from .dedup import _content_hash64

    def block_registers(batch: pa.Table) -> pa.Table:
        col = batch.column(column).combine_chunks()
        regs = np.zeros(m, dtype=np.uint8)
        if batch.num_rows:
            valid = pc.is_valid(col)
            if not pc.all(valid).as_py():
                col = col.filter(valid)
            if len(col):
                h = _content_hash64(col)
                idx, rank = _hll_ranks(h, p)
                np.maximum.at(regs, idx, rank)
        return pa.table({"regs": pa.array([regs.tobytes()], type=pa.binary())})

    rows = map_batches(ds, block_registers).take_all()
    merged = np.zeros(m, dtype=np.uint8)
    for r in rows:
        merged = np.maximum(merged, np.frombuffer(r["regs"], dtype=np.uint8))
    return hll_estimate(merged)


def grouped_approx_distinct(ds, key: str, column: str, p: int = 12):
    """Per-key HyperLogLog distinct counts — ``approx_count_distinct``
    with a GROUP BY (relative error ~1.04/sqrt(2^p), ~1.6% at the default
    p=12).  Returns a Dataset ``(key, approx_distinct)`` (float64).

    Scale shape: each block groups its rows by key (one C
    ``dictionary_encode``) and scatter-maxes EVERY key's ranks into one
    flat ``keys_in_block × 2^p`` register bank — a single vectorized
    ``np.maximum.at`` — then emits one ``2^p``-byte register row per key
    per block.  The ONE ``groupby(key)`` shuffle moves those fixed-width
    sketch rows, never values; the per-key merge is an elementwise max.
    Null keys are dropped (documented; mirror in SQL with ``WHERE key IS
    NOT NULL``), null values don't count (SQL ``count(DISTINCT ...)``
    semantics).  Like :func:`~.relational.grouped_count_distinct`, a key
    whose values are ALL null produces NO output row (SQL would emit
    ``(key, 0)``) — mirror with ``AND column IS NOT NULL``."""
    if not 4 <= p <= 18:
        raise ValueError("p must be in [4, 18]")
    m = 1 << p
    from .dedup import _content_hash64

    def block_registers(batch: pa.Table) -> pa.Table:
        t = batch.select([key, column])
        t = t.filter(pc.and_(pc.is_valid(t.column(key)),
                             pc.is_valid(t.column(column))))
        empty = pa.table({
            key: batch.column(key).combine_chunks().slice(0, 0),
            "__regs": pa.array([], type=pa.binary())})
        if t.num_rows == 0:
            return empty
        dct = pc.dictionary_encode(t.column(key).combine_chunks())
        codes = pc.fill_null(dct.indices, 0).to_numpy(
            zero_copy_only=False).astype(np.int64)
        uniq = dct.dictionary
        h = _content_hash64(t.column(column).combine_chunks())
        idx, rank = _hll_ranks(h, p)
        regs = np.zeros(len(uniq) * m, dtype=np.uint8)
        np.maximum.at(regs, codes * m + idx, rank)
        return pa.table({
            key: uniq,
            "__regs": pa.array([regs[i * m:(i + 1) * m].tobytes()
                                for i in range(len(uniq))],
                               type=pa.binary())})

    def merge(group: pa.Table) -> pa.Table:
        merged = np.zeros(m, dtype=np.uint8)
        for b in group.column("__regs").to_pylist():
            merged = np.maximum(merged, np.frombuffer(b, dtype=np.uint8))
        return pa.table({
            key: group.column(key).slice(0, 1),
            "approx_distinct": pa.array([hll_estimate(merged)],
                                        type=pa.float64())})

    return map_groups(map_batches(ds, block_registers).groupby(key), merge)


class CountMinSketch:
    """Mergeable count-min frequency sketch (Cormode & Muthukrishnan 2005):
    ``depth`` hash rows of ``width`` counters. Point estimates are the min
    over rows — NEVER an underestimate (every row counts every occurrence),
    overestimate bounded by collision mass ~ e·n/width per row with
    probability 1 - e^-depth. Merging is elementwise addition, so the
    counters are a fixed depth·width·8-byte tree-reduce payload on a
    multi-node cluster, independent of row count."""

    def __init__(self, counts: np.ndarray, n: int, seed: int):
        self.counts = counts          # (depth, width) int64
        self.n = int(n)               # total non-null rows counted
        self.seed = seed

    @property
    def depth(self) -> int:
        return self.counts.shape[0]

    @property
    def width(self) -> int:
        return self.counts.shape[1]

    def _indices(self, values: pa.Array) -> np.ndarray:
        from .dedup import _content_hash64
        from .relational import splitmix64

        h = _content_hash64(values.combine_chunks()
                            if isinstance(values, pa.ChunkedArray)
                            else values)
        return np.stack([
            (splitmix64(h, self.seed + i) % np.uint64(self.width))
            .astype(np.int64)
            for i in range(self.depth)])

    def add(self, values: pa.Array) -> None:
        idx = self._indices(values)
        for i in range(self.depth):
            np.add.at(self.counts[i], idx[i], 1)
        self.n += idx.shape[1]

    def estimate(self, values: pa.Array) -> np.ndarray:
        """Estimated occurrence count per value (int64, >= truth)."""
        idx = self._indices(values)
        return np.min(
            np.stack([self.counts[i][idx[i]] for i in range(self.depth)]),
            axis=0)

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        if other.counts.shape != self.counts.shape or other.seed != self.seed:
            raise ValueError("incompatible sketches")
        return CountMinSketch(self.counts + other.counts,
                              self.n + other.n, self.seed)


def count_min_sketch(ds, column: str, *, width: int = 2048, depth: int = 4,
                     seed: int = 0) -> CountMinSketch:
    """Build a :class:`CountMinSketch` over ``column`` in ONE streaming
    pass: per block, scatter-add the block's hashed values into a local
    (depth, width) counter bank; the driver sums one fixed-size bank per
    block (depth·width·8 bytes — 64 KiB at the defaults — regardless of
    block size). Null values are not counted (SQL count(column)
    semantics)."""
    if width < 2 or depth < 1:
        raise ValueError("width must be >= 2 and depth >= 1")

    def block_counts(batch: pa.Table) -> pa.Table:
        col = batch.column(column).combine_chunks()
        valid = pc.is_valid(col)
        if not pc.all(valid).as_py():
            col = col.filter(valid)
        cms = CountMinSketch(np.zeros((depth, width), dtype=np.int64),
                             0, seed)
        if len(col):
            cms.add(col)
        return pa.table({
            "counts": pa.array([cms.counts.tobytes()], type=pa.binary()),
            "n": pa.array([cms.n], type=pa.int64())})

    rows = map_batches(ds, block_counts).take_all()
    out = CountMinSketch(np.zeros((depth, width), dtype=np.int64), 0, seed)
    for r in rows:
        out.counts += np.frombuffer(r["counts"], dtype=np.int64) \
            .reshape(depth, width)
        out.n += int(r["n"])
    return out


def approx_quantiles_sketch(ds, column: str, qs, k: int = 256) -> dict:
    """ONE-PASS mergeable approximate quantiles: each block reduces its
    sorted non-null values to <= ``k`` evenly-spaced order statistics
    weighted by their rank spacing (blocks smaller than k are kept exactly,
    weight 1), the driver merges the weighted points (O(blocks·k), a
    fixed-size payload per block) and reads the target cumulative weights.
    Deterministic rank error: each block contributes at most
    ``ceil(n_block/k)/2`` rank slack, and the tree-combine level below
    adds at most another ``W_bucket/k`` per bucket, so the merged
    estimate's rank is within ~``2N/k`` of the target — at k=256 that is
    <0.8% rank error, verified exactly by the ``approx_ok`` oracle arm
    via :func:`exact_ranks`. Before the driver merge, the per-block
    summaries are shuffled into ``fanin`` buckets and each bucket is
    RE-COMPRESSED to <= k weighted points (the tree-reduce fan-in a
    multi-node run needs), so the driver reads O(fanin·k) rows no matter
    how many blocks the corpus has — never blocks×k.

    Contrast with ``relational.exact_quantiles``: that is TWO streaming
    passes and exact; this is ONE pass and ~1/k rank error — the profiling
    / filter-threshold tool when a second pass over 100 TB is not worth
    it. Returns ``{q: value}`` where each value is a real data value."""
    qs = sorted(set(qs))
    if not all(0 <= q <= 1 for q in qs):
        raise ValueError("quantiles must be in [0, 1]")

    def block_summary(batch: pa.Table) -> pa.Table:
        col = batch.column(column).combine_chunks()
        v = col.drop_null().to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        n = len(v)
        if n == 0:
            return pa.table({"v": pa.array([], type=pa.float64()),
                             "w": pa.array([], type=pa.int64())})
        v.sort()
        if n <= k:
            return pa.table({"v": pa.array(v),
                             "w": pa.array(np.ones(n, dtype=np.int64))})
        step = -(-n // k)                     # ceil(n / k)
        # the last order statistic of each stride represents the stride
        pos = np.minimum(np.arange(1, k + 1) * step, n) - 1
        pos = np.unique(pos)
        w = np.diff(np.concatenate([[-1], pos])).astype(np.int64)
        return pa.table({"v": pa.array(v[pos]), "w": pa.array(w)})

    def recompress(t: pa.Table) -> pa.Table:
        v = t.column("v").combine_chunks().to_numpy(zero_copy_only=False)
        w = t.column("w").combine_chunks().to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        if len(v) <= k:
            return t
        order = np.argsort(v, kind="stable")
        v, w = v[order], w[order]
        cum = np.cumsum(w)
        total_w = int(cum[-1])
        targets = np.ceil(total_w * np.arange(1, k + 1) / k).astype(
            np.int64)
        pos = np.unique(np.searchsorted(cum, targets, side="left"))
        neww = np.diff(np.concatenate([[0], cum[pos]])).astype(np.int64)
        return pa.table({"v": pa.array(v[pos]), "w": pa.array(neww)})

    # the tree fan-in: tiny summary rows
    summaries = map_batches(ds, block_summary).repartition(64)
    rows = map_batches(summaries, recompress,
                       batch_size=None).take_all()  # O(64·k) rows
    vals = np.array([r["v"] for r in rows], dtype=np.float64)
    wts = np.array([r["w"] for r in rows], dtype=np.int64)
    if len(vals) == 0:
        return {q: None for q in qs}
    order = np.argsort(vals, kind="stable")
    vals, wts = vals[order], wts[order]
    cum = np.cumsum(wts)
    total = int(cum[-1])
    out = {}
    for q in qs:
        target = max(1, int(np.ceil(q * total)))
        out[q] = float(vals[np.searchsorted(cum, target)])
    return out


def exact_ranks(ds, column: str, values) -> list:
    """Exact global rank interval of each probe value in ONE map-only pass:
    returns ``[(below, at_or_below), ...]`` = counts of non-null rows
    strictly below / less-or-equal each value. Per-block partials are two
    searchsorted lookups on the sorted block (O(n log n) local, fixed
    2·len(values) ints shipped per block); the driver sums. Used to verify
    sketch rank-error contracts against the data itself."""
    probe = np.asarray(list(values), dtype=np.float64)

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column(column).combine_chunks()
        v = col.drop_null().to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        v.sort()
        lo = np.searchsorted(v, probe, side="left").astype(np.int64)
        hi = np.searchsorted(v, probe, side="right").astype(np.int64)
        return pa.table({"i": pa.array(np.arange(len(probe)),
                                       type=pa.int64()),
                         "lo": pa.array(lo), "hi": pa.array(hi)})

    rows = map_batches(ds, partial).take_all()
    lo = np.zeros(len(probe), dtype=np.int64)
    hi = np.zeros(len(probe), dtype=np.int64)
    for r in rows:
        lo[r["i"]] += r["lo"]
        hi[r["i"]] += r["hi"]
    return list(zip(lo.tolist(), hi.tolist()))


def heavy_hitters(ds, column: str, fraction: float,
                  count_name: str = "n") -> pa.Table:
    """All values of ``column`` occurring in at least ``fraction`` of rows,
    with their EXACT counts — sorted by count descending, then value.

    Two passes, neither shuffles raw rows:

    1. *Detect*: per block, keep values with local frequency >= fraction of
       the block (vectorized ``value_counts``). Pigeonhole guarantees zero
       false negatives: a value below the threshold in EVERY block is below
       it globally. Candidate volume is bounded by blocks/fraction.
    2. *Verify*: exact counts for the candidate set only (broadcast
       ``is_in`` filter -> per-block partial counts -> tiny driver merge),
       then apply the exact global threshold.

    The output is exact (sketch only prunes), so it is directly
    SQL-checkable against GROUP BY ... HAVING count >= ceil(fraction * N).
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    import ray

    def local_heavy(batch: pa.Table) -> pa.Table:
        vc = batch.column(column).combine_chunks().value_counts()
        thresh = max(int(np.ceil(fraction * batch.num_rows)), 1)
        keep = pc.greater_equal(vc.field(1), thresh)
        return pa.table({"v": vc.field(0).filter(keep)})

    cand_rows = map_batches(ds, local_heavy).take_all()
    # candidate set: O(blocks / fraction) values — small by construction.
    # NULL is a first-class candidate (SQL GROUP BY ... HAVING reports the
    # NULL group); it is carried out-of-band because is_in can't match it.
    null_cand = any(r["v"] is None for r in cand_rows)
    cand = sorted({r["v"] for r in cand_rows if r["v"] is not None})
    if not cand and not null_cand:
        # pin the value column's type: a null-typed empty column would
        # schema-mismatch against non-empty results on union/compare
        col_type = ds.schema().types[list(ds.schema().names).index(column)]
        return pa.table({column: pa.array([], type=col_type),
                         count_name: pa.array([], type=pa.int64())})
    cand_ref = ray.put(cand)

    def exact_counts(batch: pa.Table) -> pa.Table:
        col = batch.column(column).combine_chunks()
        cands = ray.get(cand_ref)
        if cands:
            mask = pc.is_in(col, value_set=pa.array(cands, type=col.type))
            sub = col.filter(pc.fill_null(mask, False))
            vc = sub.value_counts()
            vals, cnts = vc.field(0), vc.field(1).cast(pa.int64())
        else:
            vals = pa.array([], type=col.type)
            cnts = pa.array([], type=pa.int64())
        t = pa.table({"v": vals, "c": cnts})
        if null_cand and col.null_count:
            t = pa.concat_tables([t, pa.table({
                "v": pa.array([None], type=col.type),
                "c": pa.array([col.null_count], type=pa.int64())})])
        return t

    parts = map_batches(ds, exact_counts).take_all()
    totals: dict = {}
    for r in parts:
        totals[r["v"]] = totals.get(r["v"], 0) + int(r["c"])
    n_rows = ds.count()   # exact total rows (metadata pass, no data scan)
    thresh = max(int(np.ceil(fraction * n_rows)), 1)
    hits = [(v, c) for v, c in totals.items() if c >= thresh]
    # count desc, then value asc with NULL LAST (duckdb's default ordering)
    hits.sort(key=lambda vc: (-vc[1], vc[0] is None, vc[0]))
    col_type = ds.schema().types[list(ds.schema().names).index(column)]
    return pa.table({
        column: pa.array([v for v, _ in hits], type=col_type),
        count_name: pa.array([c for _, c in hits], type=pa.int64()),
    })


def _mg_compress(counts: dict, k: int) -> dict:
    """Misra-Gries compress to <= k counters: subtract the (k+1)-th
    largest count from every counter and drop the non-positive ones."""
    if len(counts) <= k:
        return dict(counts)
    d = sorted(counts.values(), reverse=True)[k]
    return {v: c - d for v, c in counts.items() if c - d > 0}


def misra_gries(ds, column: str, k: int = 64) -> dict:
    """Mergeable Misra-Gries frequent-items summary (Misra & Gries 1982;
    mergeability: Agarwal et al., PODS 2012) in ONE streaming pass: each
    block reduces to <= k ``(value, count)`` rows — exact block counts
    via ``value_counts`` followed by one MG compress — and the driver
    sum-merges the O(blocks·k) rows and compresses once more. Nulls are
    not counted.

    Deterministic guarantees regardless of partitioning (the theorem,
    not a probability): for every value ``0 <= true - est <= n/(k+1)``,
    and any value with ``true > n/(k+1)`` is RETAINED in the summary.

    Returns ``{"counters": {value: est}, "n": non-null rows, "k": k}``."""
    if k < 1:
        raise ValueError("misra_gries: k must be >= 1")

    def block_summary(batch: pa.Table) -> pa.Table:
        col = batch.column(column).combine_chunks()
        col = col.drop_null()
        if len(col) == 0:
            return pa.table({"v": pa.array([], type=col.type),
                             "c": pa.array([], type=pa.int64()),
                             "bn": pa.array([], type=pa.int64())})
        vc = col.value_counts()
        vals = vc.field("values")
        cnts = vc.field("counts").to_pylist()
        local = _mg_compress(dict(zip(vals.to_pylist(), cnts)), k)
        items = sorted(local.items(), key=lambda t: (-t[1], str(t[0])))
        bn = [len(col)] + [0] * (len(items) - 1) if items else []
        return pa.table({"v": pa.array([v for v, _ in items],
                                       type=col.type),
                         "c": pa.array([c for _, c in items],
                                       type=pa.int64()),
                         "bn": pa.array(bn, type=pa.int64())})

    rows = map_batches(ds.select_columns([column]), block_summary).take_all()
    merged: dict = {}
    n = 0
    for r in rows:
        merged[r["v"]] = merged.get(r["v"], 0) + r["c"]
        n += r["bn"]
    return {"counters": _mg_compress(merged, k), "n": n, "k": k}
