"""Dataset profiling: the one-pass `describe` every new table gets first.

:func:`profile` computes per-column summary statistics in a SINGLE
map-only pass — each block reduces to a fixed-width partial row per
column (count/nulls/sum/sumsq/min/max, string min/max + codepoint length
bounds), the driver merges the O(columns x blocks) partials with
associative min/max/sum folds, and the result is a small long-format
table ``(column, stat, value_num, value_str)``.  No shuffle at any
scale; the only thing that ever reaches the driver is one partial row
per column per block.

Exact-distinct counts are deliberately NOT here (they need a shuffle —
use :func:`~.relational.count_distinct` / the HLL sketches); the std is
the closed form ``sqrt((sumsq - sum^2/n) / (n-1))`` so a SQL twin can
reproduce it bit-for-near-bit from the same sums.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import map_batches


def _partial(batch: pa.Table, cols: Sequence[str]) -> pa.Table:
    names, stats, nums, strs = [], [], [], []

    def emit(col: str, stat: str, num=None, s=None):
        names.append(col)
        stats.append(stat)
        nums.append(None if num is None else float(num))
        strs.append(s)

    for c in cols:
        arr = batch.column(c)
        n_null = arr.null_count
        n = len(arr) - n_null
        emit(c, "n", n)
        emit(c, "nulls", n_null)
        if n == 0:
            continue
        t = arr.type
        if pa.types.is_floating(t) or pa.types.is_integer(t):
            v = pc.drop_null(arr).combine_chunks().to_numpy(
                zero_copy_only=False).astype(np.float64)
            emit(c, "sum", v.sum())
            emit(c, "sumsq", (v * v).sum())
            emit(c, "min", v.min())
            emit(c, "max", v.max())
        elif pa.types.is_string(t) or pa.types.is_large_string(t):
            mm = pc.min_max(arr)
            emit(c, "min", s=mm["min"].as_py())
            emit(c, "max", s=mm["max"].as_py())
            ln = pc.min_max(pc.utf8_length(arr))
            emit(c, "min_len", ln["min"].as_py())
            emit(c, "max_len", ln["max"].as_py())
        elif pa.types.is_timestamp(t) or pa.types.is_date(t):
            # temporal bounds as epoch microseconds in value_num
            us = arr.combine_chunks().cast(pa.timestamp("us"))
            mm = pc.min_max(us.cast(pa.int64()))
            emit(c, "min", mm["min"].as_py())
            emit(c, "max", mm["max"].as_py())
        # other types: n / nulls only
    return pa.table({
        "column": pa.array(names, type=pa.string()),
        "stat": pa.array(stats, type=pa.string()),
        "value_num": pa.array(nums, type=pa.float64()),
        "value_str": pa.array(strs, type=pa.string())})


def profile(ds, columns: Optional[Sequence[str]] = None,
            round_to: int = 9) -> pa.Table:
    """Per-column summary stats of a Dataset in one map-only pass.

    Returns a long-format ``pa.Table`` ``(column, stat, value_num,
    value_str)`` with, per column: ``n`` (non-null), ``nulls``; numerics
    add ``min/max/mean/std`` (std = sample closed form from the merged
    sum/sumsq, both rounded to ``round_to``); strings add lexicographic
    ``min/max`` (in ``value_str``) and codepoint ``min_len/max_len``;
    temporal columns add epoch-microsecond ``min/max``.  Columns of
    other types report n/nulls only.  ``std`` is NULL for n < 2."""
    sch = ds.schema()
    cols = list(columns) if columns is not None else list(sch.names)
    # O(columns x blocks) fixed-width rows
    parts = map_batches(ds.select_columns(cols),
                        lambda t: _partial(t, cols)).take_all()

    acc: dict = {}
    for r in parts:
        key = (r["column"], r["stat"])
        num, s = r["value_num"], r["value_str"]
        if key not in acc:
            acc[key] = [num, s]
            continue
        st = r["stat"]
        if st in ("n", "nulls", "sum", "sumsq"):
            acc[key][0] += num
        elif st in ("min", "min_len"):
            if num is not None and (acc[key][0] is None
                                    or num < acc[key][0]):
                acc[key][0] = num
            if s is not None and (acc[key][1] is None or s < acc[key][1]):
                acc[key][1] = s
        elif st in ("max", "max_len"):
            if num is not None and (acc[key][0] is None
                                    or num > acc[key][0]):
                acc[key][0] = num
            if s is not None and (acc[key][1] is None or s > acc[key][1]):
                acc[key][1] = s

    names, stats, nums, strs = [], [], [], []

    def emit(col, stat, num=None, s=None):
        names.append(col)
        stats.append(stat)
        nums.append(num)
        strs.append(s)

    for c in cols:
        n = acc.get((c, "n"), [0, None])[0] or 0
        emit(c, "n", float(n))
        emit(c, "nulls", acc.get((c, "nulls"), [0, None])[0] or 0.0)
        for st in ("min", "max", "min_len", "max_len"):
            if (c, st) in acc:
                emit(c, st, acc[(c, st)][0], acc[(c, st)][1])
        if (c, "sum") in acc:
            sm, sq = acc[(c, "sum")][0], acc[(c, "sumsq")][0]
            emit(c, "mean", round(sm / n, round_to))
            if n >= 2:
                var = (sq - sm * sm / n) / (n - 1)
                emit(c, "std", round(float(np.sqrt(max(var, 0.0))),
                                     round_to))
            else:
                emit(c, "std")
    return pa.table({
        "column": pa.array(names, type=pa.string()),
        "stat": pa.array(stats, type=pa.string()),
        "value_num": pa.array(nums, type=pa.float64()),
        "value_str": pa.array(strs, type=pa.string())})


# ---------------------------------------------------------------------------
# rule-based data validation (the dbt-test / expectations layer)
# ---------------------------------------------------------------------------

def validate(ds, rules: Sequence[dict], *,
             ref_broadcast_limit: int = 5_000_000):
    """Declarative data-quality validation — the dbt-test shape over a
    Dataset: each rule counts its violating rows exactly, and the result
    is one row per rule ``(rule, column, violations, n_rows, ok)``.

    Rules (dicts, ``rule`` + ``column`` plus per-rule params):

    - ``not_null`` — NULL values;
    - ``range`` (``min``/``max``, inclusive) — non-null values outside;
    - ``in_set`` (``values``) — non-null values not in the list;
    - ``regex`` (``pattern``, RE2) — non-null values not fully matching;
    - ``unique`` — rows beyond the first of each duplicated non-null
      value (``n_nonnull - n_distinct``);
    - ``ref`` (``ref`` = (Dataset, column)) — non-null values absent
      from the reference column (foreign-key containment).

    100 TB shape: every map-only rule (not_null/range/in_set/regex)
    folds into ONE shared scan emitting a fixed-width partial row per
    rule per block, Sum-merged driver-side — O(rules × blocks) driver
    rows, no shuffle. ``unique`` adds one combiner-shrunk
    ``groupby(column)`` shuffle per named column (vocabulary-sized).
    ``ref`` collects the reference side's DISTINCT keys driver-side
    (guarded by ``ref_broadcast_limit`` — dimension tables; a fact-fact
    containment check should use :func:`~.relational.anti_join`) and
    broadcasts them once via ``ray.put`` into the shared scan."""
    import ray
    from ray.data.aggregate import Sum

    map_rules = []          # (label, column, batch -> violation count)
    names_seen = set()

    def label(r: dict) -> str:
        base = f"{r['rule']}:{r['column']}"
        out, i = base, 2
        while out in names_seen:
            out, i = f"{base}#{i}", i + 1
        names_seen.add(out)
        return out

    unique_cols = []        # (label, column)
    for r in rules:
        kind, col = r["rule"], r["column"]
        lab = label(r)
        if kind == "not_null":
            map_rules.append((lab, col, lambda a, r=r: a.null_count))
        elif kind == "range":
            lo, hi = r.get("min"), r.get("max")

            def viol(a, lo=lo, hi=hi):
                v = a.drop_null()
                bad = pa.array(np.zeros(len(v), dtype=bool)) \
                    if len(v) else pa.array([], type=pa.bool_())
                if lo is not None:
                    bad = pc.or_(bad, pc.less(v, lo))
                if hi is not None:
                    bad = pc.or_(bad, pc.greater(v, hi))
                return pc.sum(pc.cast(bad, pa.int64())).as_py() or 0

            map_rules.append((lab, col, viol))
        elif kind == "in_set":
            vals = pa.array(r["values"])
            map_rules.append((
                lab, col,
                lambda a, vals=vals: len(a.drop_null()) - (pc.sum(pc.cast(
                    pc.is_in(a.drop_null(), value_set=vals),
                    pa.int64())).as_py() or 0)))
        elif kind == "regex":
            pat = r["pattern"]
            map_rules.append((
                lab, col,
                lambda a, pat=pat: len(a.drop_null()) - (pc.sum(pc.cast(
                    pc.match_substring_regex(
                        a.drop_null().cast(pa.string()),
                        f"^(?:{pat})$"),
                    pa.int64())).as_py() or 0)))
        elif kind == "unique":
            unique_cols.append((lab, col))
        elif kind == "ref":
            ref_ds, ref_col = r["ref"]
            keys = map_batches(
                ref_ds.select_columns([ref_col]),
                lambda t, c=ref_col: pa.table(
                    {"k": pc.unique(t.column(c).combine_chunks()
                                    .drop_null())})).take_all()
            if len(keys) > ref_broadcast_limit:
                raise ValueError(
                    f"validate ref:{col}: {len(keys)} reference keys "
                    f"exceed ref_broadcast_limit={ref_broadcast_limit}; "
                    "use relational.anti_join for fact-fact containment")
            vals = pa.array(sorted({row["k"] for row in keys}))
            ref_ref = ray.put(vals)
            map_rules.append((
                lab, col,
                lambda a, ref_ref=ref_ref: len(a.drop_null()) - (
                    pc.sum(pc.cast(
                        pc.is_in(a.drop_null(),
                                 value_set=ray.get(ref_ref)),
                        pa.int64())).as_py() or 0)))
        else:
            raise ValueError(f"validate: unknown rule {kind!r}")

    cols_needed = sorted({r["column"] for r in rules})

    def scan(t: pa.Table) -> pa.Table:
        labs = [lab for lab, _, _ in map_rules] + ["__rows"]
        viols = [int(fn(t.column(c).combine_chunks()))
                 for _, c, fn in map_rules] + [t.num_rows]
        return pa.table({"rule": pa.array(labs),
                         "v": pa.array(viols, type=pa.int64())})

    parts = (map_batches(ds.select_columns(cols_needed), scan)
               .groupby("rule").aggregate(Sum("v")).take_all())
    totals = {p["rule"]: p["sum(v)"] for p in parts}
    n_rows = totals.pop("__rows", 0)

    for lab, col in unique_cols:
        # per-block (value, count) partials -> ONE combiner-shrunk
        # shuffle; duplicates beyond the first = sum(cnt) - n_distinct
        def vc_partial(t: pa.Table, c=col) -> pa.Table:
            vc = t.column(c).combine_chunks().drop_null().value_counts()
            return pa.table({"val": vc.field(0),
                             "c": vc.field(1).cast(pa.int64())})

        sums = (map_batches(ds.select_columns([col]), vc_partial)
                .groupby("val").aggregate(Sum("c")))
        red = map_batches(sums, lambda t: pa.table({
            "extra": pa.array([
                (pc.sum(t.column("sum(c)")).as_py() or 0)
                - t.num_rows], type=pa.int64())})).take_all()
        totals[lab] = sum(p["extra"] for p in red)

    order = []
    for r in rules:
        base = f"{r['rule']}:{r['column']}"
        for lab in totals:
            if (lab == base or lab.startswith(base + "#")) \
                    and lab not in order:
                order.append(lab)
                break
    return pa.table({
        "rule": pa.array(order, type=pa.string()),
        "violations": pa.array([int(totals[k]) for k in order],
                               type=pa.int64()),
        "n_rows": pa.array([int(n_rows)] * len(order), type=pa.int64()),
        "ok": pa.array([totals[k] == 0 for k in order], type=pa.bool_()),
    })


def key_skew_report(ds, column: str, top: int = 10) -> pa.Table:
    """Shuffle-planning diagnostic: is ``column`` safe to group/join by,
    or does one hot key swamp a worker? EXACT per-key counts via the
    combiner-shrunk :func:`~.relational.grouped_aggregate` (one keyed
    shuffle of one row per key per block), then a DISTINCT-KEYS-sized
    sort for the top-``top`` keys — the raw table never sorts. Nulls are
    excluded (``count(column)`` semantics).

    Long-format result ``(stat, key, v)``:

    - ``('top', key, count)`` / ``('frac', key, round(count/total, 9))``
      for the top keys by ``(count DESC, key ASC)``;
    - ``('summary', 'n_rows'|'n_distinct'|'skew_ratio', v)`` where
      skew_ratio = max_count / mean_count (1.0 = perfectly even; feed
      :func:`~.relational.salted_key` when it is large)."""
    from .relational import grouped_aggregate

    def drop_null_key(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_valid(t.column(column)))

    # nulls drop BEFORE the groupby: Ray's sort-based key shuffle cannot
    # order None against strings, and count(column) excludes them anyway
    keyed = map_batches(ds.select_columns([column]), drop_null_key)
    counts = grouped_aggregate(keyed, [column], count_name="n") \
        .materialize()        # two consumers: the sort and the summary
    from ray.data.aggregate import Count, Max, Sum

    agg = counts.aggregate(Sum("n"), Count(), Max("n"))
    total = int(agg["sum(n)"] or 0)
    d = int(agg["count()"] or 0)
    mx = int(agg["max(n)"] or 0)
    head = counts.sort(["n", column], descending=[True, False]) \
        .limit(top).take_all()
    stats, keys, vs = [], [], []
    for r in head:
        stats.append("top")
        keys.append(str(r[column]))
        vs.append(float(r["n"]))
    for r in head:
        stats.append("frac")
        keys.append(str(r[column]))
        vs.append(round(r["n"] / total, 9) if total else 0.0)
    stats += ["summary"] * 3
    keys += ["n_rows", "n_distinct", "skew_ratio"]
    vs += [float(total), float(d),
           round(mx / (total / d), 9) if d and total else 0.0]
    return pa.table({"stat": pa.array(stats), "key": pa.array(keys),
                     "v": pa.array(vs, type=pa.float64())})
