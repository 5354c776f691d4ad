"""Wide-operation building blocks used by the engine's pipelines
(SURVEY.md §2.5 — the ops the reference lacks, expressed Ray-Data-first):

- :func:`grouped_aggregate` — partial aggregation INSIDE map_batches (one
  row per key per block) before the keyed shuffle, so the all-to-all moves
  combiner output, not raw rows.
- :func:`broadcast_join` — small side ``ray.put`` once, per-batch
  ``pa.Table.join`` in every task; no shuffle of the large side.
- :func:`top_k` — per-batch local top-k, driver merge (never a global sort).
- :func:`salted_key` — hot-key salting for skew-aware keyed operations
  (sample-detected hot keys spread over ``salt_n`` subkeys).
- :func:`sort_within_partitions` — per-block sort (e.g. by `lang` before
  dict+RLE encode) without a global shuffle.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import map_batches, map_groups


def grouped_aggregate(ds, keys: Sequence[str], sum_cols: Sequence[str] = (),
                      count_name: Optional[str] = "n",
                      mean_cols: Sequence[str] = ()):
    """SUM/COUNT/MEAN by key with per-block pre-aggregation.

    Returns a Dataset with columns: keys + ``sum_<c>`` + count + ``mean_<c>``.
    """
    keys = list(keys)
    if any(k.startswith("__") for k in keys):
        raise ValueError("grouped_aggregate: key names starting with '__' "
                         "collide with internal partial columns")
    sum_all = list(dict.fromkeys(list(sum_cols) + list(mean_cols)))

    def partial(batch: pa.Table) -> pa.Table:
        aggs = [(c, "sum") for c in sum_all]
        # per-column NON-NULL counts for means (SQL AVG semantics: a null
        # x contributes to neither sum nor denominator)
        aggs += [(c, "count") for c in mean_cols]
        if count_name:
            # count_all (not (keys[0], "count")): SQL count(*) must include
            # rows whose first key value is NULL
            aggs.append(([], "count_all"))
        g = batch.group_by(keys).aggregate(aggs)
        # POSITIONAL rename with layout detection (TableGroupBy column
        # order is version-dependent): a name-keyed rename would clobber a
        # group key literally named '<c>_sum' (same hazard pivot/
        # grouped_stats guard against)
        from ..util import grouped_rename_positional

        agg_names = [f"__s_{c}" for c in sum_all]
        agg_names += [f"__n_{c}" for c in mean_cols]
        if count_name:
            agg_names.append("__cnt")
        return grouped_rename_positional(g, keys, agg_names)

    from ray.data.aggregate import Sum

    def rename(batch: pa.Table) -> pa.Table:
        cols = {k: batch.column(k) for k in keys}
        for c in sum_all:
            s = batch.column(f"sum(__s_{c})")
            if c in sum_cols:
                cols[f"sum_{c}"] = s
            if c in mean_cols:
                n_c = batch.column(f"sum(__n_{c})").cast(pa.float64())
                mean = pc.divide(s.cast(pa.float64()), n_c)
                cols[f"mean_{c}"] = pc.if_else(
                    pc.equal(n_c, 0.0), pa.scalar(None, pa.float64()), mean)
        if count_name:
            cols[count_name] = batch.column("sum(__cnt)").cast(pa.int64())
        return pa.table(cols)

    aggs = [Sum(f"__s_{c}") for c in sum_all]
    aggs += [Sum(f"__n_{c}") for c in mean_cols]
    if count_name:
        aggs.append(Sum("__cnt"))
    # native reduce: no per-group python call, so a million-key aggregate
    # costs one shuffle + vectorized sums, not a million UDF invocations
    agg = (map_batches(ds, partial)
           .groupby(keys if len(keys) > 1 else keys[0])
           .aggregate(*aggs))
    return map_batches(agg, rename)


def broadcast_join(ds, small: pa.Table, key,
                   join_type: str = "inner"):
    """Join a Dataset against a small in-memory table without shuffling the
    large side: the table ships through the object store once. ``key`` may
    be a single column name or a list (composite keys); ``join_type``
    passes through to ``pa.Table.join`` (inner / left outer / ...)."""
    import ray

    ref = ray.put(small)
    keys = key if isinstance(key, str) else list(key)

    def join_batch(batch: pa.Table) -> pa.Table:
        right = ray.get(ref)
        return batch.join(right, keys=keys, join_type=join_type)

    return map_batches(ds, join_batch)


def cross_join(ds, small: pa.Table, max_small_rows: int = 100_000):
    """Cartesian product of a Dataset with a SMALL in-memory table (SQL
    CROSS JOIN): the small side ships through the object store once and
    each block expands map-only — output volume is ``len(small)`` × input,
    yielded one small-row slab at a time so no block materializes the
    whole product. Refuses a big small side loudly (a big×big cartesian
    is never the right plan at scale; bound it or rethink the query).

    Column collisions raise rather than silently suffixing."""
    import ray

    if small.num_rows > max_small_rows:
        raise ValueError(
            f"cross_join small side has {small.num_rows} rows > "
            f"max_small_rows={max_small_rows}; a cartesian against a big "
            "side explodes output volume — bound it explicitly if intended")
    # catch column collisions at the driver when the schema is already
    # known (no execution forced); the in-batch check below still guards
    # lazily-typed inputs
    known = ds.schema(fetch_if_missing=False)
    if known is not None:
        dup = set(known.names) & set(small.column_names)
        if dup:
            raise ValueError(f"cross_join column collision: {sorted(dup)}")
    ref = ray.put(small)

    def expand(batch: pa.Table):
        right = ray.get(ref)
        dup = set(batch.column_names) & set(right.column_names)
        if dup:
            raise ValueError(f"cross_join column collision: {sorted(dup)}")
        n = batch.num_rows
        if n == 0:
            return
        for j in range(right.num_rows):
            # replicate the right row via one vectorized take over all its
            # columns (zero boxing; a python-list build would churn n x
            # n_cols scalar objects per right row)
            rep = right.take(pa.array(np.full(n, j, dtype=np.int64)))
            t = batch
            for name, col in zip(rep.column_names, rep.columns):
                t = t.append_column(name, col)
            yield t

    return map_batches(ds, expand)


def _int_bounds(t: pa.DataType):
    if pa.types.is_signed_integer(t):
        return -(1 << (t.bit_width - 1)), (1 << (t.bit_width - 1)) - 1
    if pa.types.is_unsigned_integer(t):
        return 0, (1 << t.bit_width) - 1
    return None


def _int_range_keep(c, target: pa.DataType):
    """Mask keeping key values representable in BOTH integer types —
    compared in ``c``'s OWN type (a cast-roundtrip filter would pass
    same-width sign flips: uint64 2^64-1 <-> int64 -1 roundtrips
    "equal"). None when either type is non-integer (caller re-raises the
    original cast error). Shared by hash_join and _cast_key_table so the
    subtle bound arithmetic cannot drift between the join families."""
    rb, tb = _int_bounds(c.type), _int_bounds(target)
    if rb is None or tb is None:
        return None
    lo, hi = max(rb[0], tb[0]), min(rb[1], tb[1])
    return pc.fill_null(pc.and_(
        pc.greater_equal(c, pa.scalar(lo, c.type)),
        pc.less_equal(c, pa.scalar(hi, c.type))), False)


def hash_join(left, right, key, right_key=None,
              suffix: str = "_r", skew_salts: Optional[dict] = None,
              join_type: str = "inner"):
    """Big-big equi-join with ONE keyed shuffle and no broadcast: both sides
    are padded to the union schema, tagged, unioned, hash-partitioned by the
    join key, and joined inside each key group (cross product of the key's
    left x right rows). Use :func:`broadcast_join` when one side fits in the
    object store; use this when BOTH sides are large.

    ``key`` / ``right_key`` accept a single column name or a list of names
    (composite keys). ``join_type`` is one of ``inner | left | right |
    full`` with SQL semantics: null keys never match; unmatched rows pad the
    other side's columns with nulls. The output key columns carry
    ``COALESCE(l.key, r.key)`` (the ``JOIN USING`` convention), so unmatched
    RIGHT rows still show their key values in the left-named key columns.

    Skewed join keys (single-key inner/left joins only): pass ``skew_salts``
    ({hot_key: n}, e.g. from :func:`salt_counts_for_target` on the LEFT
    side). Left rows of a hot key spread over n subkeys; RIGHT rows of that
    key are REPLICATED into all n subkeys so every (l, r) pair still meets
    exactly once. (Salting both sides independently would silently drop
    pairs — left k#3 never meets right k#5.) Replication costs n x |R_k|
    rows for hot keys only; choose the smaller/dimension side as ``right``.
    Right/full joins refuse skew_salts: an unmatched replicated right row
    would be emitted once per subkey — swap the sides and use
    ``join_type="left"`` instead."""
    keys = [key] if isinstance(key, str) else list(key)
    right_keys = keys if right_key is None else (
        [right_key] if isinstance(right_key, str) else list(right_key))
    if not keys or len(right_keys) != len(keys):
        raise ValueError("key and right_key must name the same number of columns")
    if join_type not in ("inner", "left", "right", "full"):
        raise ValueError(f"join_type {join_type!r}: want inner|left|right|full")
    salts = dict(skew_salts or {})
    if salts and (len(keys) > 1 or join_type in ("right", "full")):
        raise ValueError(
            "skew_salts supports single-key inner/left joins only (a hot "
            "key's right rows replicate across the left salt subkeys, so an "
            "unmatched right row would be emitted once per subkey)")
    keep_null_left = join_type in ("left", "full")
    keep_null_right = join_type in ("right", "full")

    l_schema = left.schema()
    r_schema = right.schema()
    l_names = list(l_schema.names)
    r_out = {}      # right column -> output name
    for nm in r_schema.names:
        if nm in right_keys:
            continue
        out_nm = nm + suffix if nm in l_names else nm
        if out_nm in l_names or out_nm in r_out.values():
            # suffixed name collides with a left column OR with another
            # right column's output: fail loudly, never drop data silently
            raise ValueError(
                f"hash_join output column {out_nm!r} collides; "
                f"pass a different suffix")
        r_out[nm] = out_nm
    out_fields = []
    for nm, typ in zip(l_schema.names, l_schema.types):
        out_fields.append((nm, typ))
    for nm, typ in zip(r_schema.names, r_schema.types):
        if nm in r_out:
            out_fields.append((r_out[nm], typ))
    out_names = [nm for nm, _ in out_fields]
    out_types = {nm: t for nm, t in out_fields}

    hot_keys = list(salts.keys())
    hot_counts = np.asarray([int(salts[k]) for k in hot_keys], dtype=np.int64)

    def _jk(t: pa.Table, salt: np.ndarray) -> pa.Array:
        # shared stringify/validity/null-routing helpers live at module
        # level (_key_as_str/_keys_valid/_null_route_64) so null-semantics
        # or dtype fixes land once, not per join variant
        parts = [_key_as_str(t.column(k)) for k in keys]
        return pc.binary_join_element_wise(
            *parts, pa.array(salt.astype(str)), "#")

    def _salt_for(key_col: pa.Array) -> np.ndarray:
        per_row = np.ones(len(key_col), dtype=np.int64)
        if hot_keys:
            ords = pc.index_in(key_col, value_set=pa.array(hot_keys,
                                                           type=key_col.type))
            ov = ords.to_numpy(zero_copy_only=False)
            valid = ~np.isnan(ov) if ov.dtype.kind == "f" else ov != None  # noqa: E711
            per_row[valid] = hot_counts[ov[valid].astype(np.int64)]
        return np.arange(len(key_col), dtype=np.int64) % per_row

    def pad_left(batch: pa.Table) -> pa.Table:
        cols = {nm: (batch.column(nm) if nm in batch.column_names
                     else pa.nulls(batch.num_rows, out_types[nm]))
                for nm in out_names}
        cols["__side"] = pa.array(np.zeros(batch.num_rows, dtype=np.int8))
        t = pa.table(cols)
        valid = _keys_valid(batch, keys)
        if not keep_null_left:
            t = t.filter(valid)
            kc = t.column(keys[0]).combine_chunks()
            return t.append_column("__jk", _jk(t, _salt_for(kc)))
        kc = t.column(keys[0]).combine_chunks()
        jk = _jk(t, _salt_for(kc))
        return t.append_column(
            "__jk", pc.if_else(valid, jk, _null_route_64(t.num_rows, "L")))

    def pad_right(batch: pa.Table) -> pa.Table:
        valid = _keys_valid(batch, right_keys)
        if not keep_null_right:
            batch = batch.filter(valid)
            valid = None
        # cast each join key to the LEFT key's type: mixed-width keys (int32
        # vs int64) must not put two block schemas into one group. Keys the
        # left type cannot represent can never match a left row — filter
        # them instead of letting a safe-cast overflow kill the join (but a
        # right/full join must KEEP unmatched right rows, so there the
        # unrepresentable-key case fails loudly instead of dropping rows).
        for lk, rk_name in zip(keys, right_keys):
            rk = batch.column(rk_name).combine_chunks()
            if rk.type == out_types[lk]:
                continue
            try:
                rk.cast(out_types[lk])
            except pa.ArrowInvalid:
                if keep_null_right:
                    raise ValueError(
                        f"hash_join: right key {rk_name!r} has values the "
                        f"left key type {out_types[lk]} cannot represent and "
                        f"join_type={join_type!r} must keep unmatched right "
                        "rows — align the key types before joining")
                # keep only keys inside the INTERSECTION of both integer
                # types' ranges (shared helper — see _int_range_keep)
                keep = _int_range_keep(rk, out_types[lk])
                if keep is None:
                    raise
                batch = batch.filter(keep)
        cast_keys = {}
        for lk, rk_name in zip(keys, right_keys):
            c = batch.column(rk_name).combine_chunks()
            cast_keys[lk] = c if c.type == out_types[lk] \
                else c.cast(out_types[lk])
        cols = {}
        for nm in out_names:
            if nm in cast_keys:
                cols[nm] = cast_keys[nm]
            elif nm in r_out.values():
                src = next(s for s, d in r_out.items() if d == nm)
                cols[nm] = batch.column(src)
            else:
                cols[nm] = pa.nulls(batch.num_rows, out_types[nm])
        cols["__side"] = pa.array(np.ones(batch.num_rows, dtype=np.int8))
        t = pa.table(cols)
        jk = _jk(t, np.zeros(t.num_rows, np.int64))
        if keep_null_right:
            jk = pc.if_else(valid, jk, _null_route_64(t.num_rows, "R"))
        pieces = [t.append_column("__jk", jk)]
        # hot keys: replicate this side's rows into every left salt subkey
        kc = t.column(keys[0]).combine_chunks()
        for hk, n in salts.items():
            if n <= 1:
                continue
            sub = t.filter(pc.equal(kc, hk))
            if sub.num_rows == 0:
                continue
            for sval in range(1, int(n)):
                pieces.append(sub.append_column(
                    "__jk", _jk(sub, np.full(sub.num_rows, sval, np.int64))))
        return pa.concat_tables(pieces) if len(pieces) > 1 else pieces[0]

    tagged = map_batches(left, pad_left).union(
        map_batches(right, pad_right))

    empty = {nm: pa.array([], type=out_types[nm]) for nm in out_names}

    def join_group(group: pa.Table) -> pa.Table:
        side = group.column("__side").to_numpy(zero_copy_only=False)
        n = group.num_rows
        # validity + sub-group by the ACTUAL key tuple: a "#"-containing
        # string key (or a \x00 null route) could put several true keys into
        # one __jk group, so correctness never depends on the jk routing
        valid = np.ones(n, dtype=bool)
        code_cols = []
        for knm in keys:
            col = group.column(knm).combine_chunks()
            valid &= pc.is_valid(col).to_numpy(zero_copy_only=False)
            iv = pc.dictionary_encode(col).indices.to_numpy(
                zero_copy_only=False)
            if iv.dtype.kind == "f":
                iv = np.where(np.isnan(iv), -1, iv)
            code_cols.append(iv.astype(np.int64))
        codes = code_cols[0] if len(code_cols) == 1 else np.unique(
            np.stack(code_cols, axis=1), axis=0,
            return_inverse=True)[1].reshape(-1)
        l_matched = np.zeros(n, dtype=bool)
        r_matched = np.zeros(n, dtype=bool)
        lrep_parts, rrep_parts = [], []
        for c in np.unique(codes[valid]) if valid.any() else ():
            m = valid & (codes == c)
            li = np.flatnonzero(m & (side == 0))
            ri = np.flatnonzero(m & (side == 1))
            if len(li) and len(ri):
                l_matched[li] = True
                r_matched[ri] = True
                lrep_parts.append(np.repeat(li, len(ri)))
                rrep_parts.append(np.tile(ri, len(li)))
        parts = []
        if lrep_parts:
            lt = group.take(np.concatenate(lrep_parts))
            rt = group.take(np.concatenate(rrep_parts))
            # out_names = left names + right output names, disjoint by
            # construction (right collisions carry the suffix)
            cols = {nm: (lt if nm in l_names else rt).column(nm)
                    for nm in out_names}
            parts.append(pa.table(cols))
        # unmatched rows already carry the other side's columns as nulls
        # from padding (right rows additionally carry their key values in
        # the left-named key columns = the COALESCE convention)
        if keep_null_left:
            um = np.flatnonzero((side == 0) & ~l_matched)
            if len(um):
                parts.append(group.take(um).select(out_names))
        if keep_null_right:
            um = np.flatnonzero((side == 1) & ~r_matched)
            if len(um):
                parts.append(group.take(um).select(out_names))
        if not parts:
            return pa.table(empty)
        return pa.concat_tables(parts) if len(parts) > 1 else parts[0]

    return map_groups(tagged.groupby("__jk"), join_group)


def _key_as_str(col) -> pa.Array:
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    s = col.cast(pa.string()) if not pa.types.is_string(col.type) else col
    return pc.fill_null(s, "null")


def _key_join(t: pa.Table, names: list) -> pa.Array:
    """Composite key tuple -> one string per row (routing only — consumers
    re-check actual values inside the group, so '#' in a string key can at
    worst co-locate two distinct tuples, never merge them)."""
    parts = [_key_as_str(t.column(k)) for k in names]
    if len(parts) == 1:
        return parts[0]
    return pc.binary_join_element_wise(*parts, "#")


def _keys_valid(t: pa.Table, names: list) -> pa.Array:
    m = pc.is_valid(t.column(names[0]))
    for k in names[1:]:
        m = pc.and_(m, pc.is_valid(t.column(k)))
    return m.combine_chunks() if isinstance(m, pa.ChunkedArray) else m


def _cast_key_table(kt: pa.Table, keys: list, l_types: dict) -> pa.Table:
    """Cast right-side key columns to the left key types; values the left
    type cannot represent can never match and are dropped (integer-range
    filter, sign-flip safe via max/min of both bounds)."""
    for lk in keys:
        c = kt.column(lk).combine_chunks()
        if c.type != l_types[lk]:
            try:
                c = c.cast(l_types[lk])
            except pa.ArrowInvalid:
                keep = _int_range_keep(c, l_types[lk])
                if keep is None:
                    raise
                kt = kt.filter(keep)
                c = kt.column(lk).combine_chunks().cast(l_types[lk])
        kt = kt.set_column(kt.schema.get_field_index(lk), lk, c)
    return kt


def semi_join(left, right, key, right_key=None, anti: bool = False):
    """Distributed LEFT SEMI (``EXISTS``) / LEFT ANTI (``NOT EXISTS``) join
    with ONE keyed shuffle where the right side ships ONLY its distinct key
    tuples (per-block pre-deduped), never its payload columns — the cheapest
    possible existence check for two large sides. Output schema == left
    schema; left rows are emitted at most once regardless of how many right
    rows match.

    SQL null semantics: a null key never matches, so null-key left rows are
    dropped by semi and KEPT by anti (``NOT EXISTS`` over an always-false
    predicate is true). ``key``/``right_key`` accept a column name or a list
    (composite keys). Use :func:`broadcast_join`-style ``is_in`` filtering
    instead when the right side's distinct keys fit in the object store."""
    keys = [key] if isinstance(key, str) else list(key)
    right_keys = keys if right_key is None else (
        [right_key] if isinstance(right_key, str) else list(right_key))
    if not keys or len(right_keys) != len(keys):
        raise ValueError("key and right_key must name the same number of columns")

    l_schema = left.schema()
    l_names = list(l_schema.names)
    l_types = {nm: t for nm, t in zip(l_schema.names, l_schema.types)}
    _jk, _valid = _key_join, _keys_valid

    def pad_left(batch: pa.Table) -> pa.Table:
        valid = _valid(batch, keys)
        if anti:
            # null-key left rows pass NOT EXISTS unconditionally: route each
            # over 64 reducers so no single group drowns (they can't match,
            # so the group emits them as-is)
            jk = pc.if_else(valid, _jk(batch, keys),
                            _null_route_64(batch.num_rows))
        else:
            batch = batch.filter(valid)
            jk = _jk(batch, keys)
        t = batch.append_column("__side", pa.array(
            np.zeros(batch.num_rows, dtype=np.int8)))
        return t.append_column("__jk", jk)

    def pad_right(batch: pa.Table) -> pa.Table:
        # existence only: distinct key tuples, renamed to the LEFT key names
        # and cast to the left key types so both sides group identically
        batch = batch.filter(_valid(batch, right_keys))
        kt = batch.select(right_keys).rename_columns(keys)
        kt = _cast_key_table(kt, keys, l_types)
        kt = kt.group_by(keys).aggregate([])     # per-block distinct
        cols = {nm: (kt.column(nm) if nm in keys
                     else pa.nulls(kt.num_rows, l_types[nm]))
                for nm in l_names}
        t = pa.table(cols)
        t = t.append_column("__side", pa.array(
            np.ones(t.num_rows, dtype=np.int8)))
        return t.append_column("__jk", _jk(t, keys))

    empty = pa.table({nm: pa.array([], type=l_types[nm]) for nm in l_names})

    def emit_group(group: pa.Table) -> pa.Table:
        side = group.column("__side").to_numpy(zero_copy_only=False)
        n = group.num_rows
        valid = np.ones(n, dtype=bool)
        code_cols = []
        for knm in keys:
            col = group.column(knm).combine_chunks()
            valid &= pc.is_valid(col).to_numpy(zero_copy_only=False)
            iv = pc.dictionary_encode(col).indices.to_numpy(
                zero_copy_only=False)
            if iv.dtype.kind == "f":
                iv = np.where(np.isnan(iv), -1, iv)
            code_cols.append(iv.astype(np.int64))
        codes = code_cols[0] if len(code_cols) == 1 else np.unique(
            np.stack(code_cols, axis=1), axis=0,
            return_inverse=True)[1].reshape(-1)
        right_codes = np.unique(codes[valid & (side == 1)])
        has_match = valid & np.isin(codes, right_codes)
        if anti:
            keep = (side == 0) & (~has_match)   # incl. null-key left rows
        else:
            keep = (side == 0) & has_match
        idx = np.flatnonzero(keep)
        if not len(idx):
            return empty
        return group.take(idx).select(l_names)

    tagged = map_batches(left, pad_left).union(
        map_batches(right, pad_right))
    return map_groups(tagged.groupby("__jk"), emit_group)


def anti_join(left, right, key, right_key=None):
    """``NOT EXISTS`` counterpart of :func:`semi_join` (see null semantics
    there)."""
    return semi_join(left, right, key, right_key=right_key, anti=True)


def build_key_bloom(side, side_keys: list, *, out_keys: list,
                    out_types: dict, bits: int = 1 << 23,
                    num_hashes: int = 4):
    """Fold a dataset's key tuples into ONE Bloom bitmap, distributed:
    per-block ``bits/8``-byte partials (never the keys), OR-reduced in a
    64-ary map-only tree, final bitmap ``ray.put`` once. Returns the
    object ref of the uint64 word array. Shared by
    :func:`bloom_semi_join`, ``merge.merge_changes`` and dedup."""
    import ray

    from ..container import bloom_set

    if bits < 64 or bits & (bits - 1):
        # < 64 passes the power-of-two check but leaves no uint64 word
        raise ValueError("bits must be a power of two >= 64")
    from .dedup import _content_hash64

    nwords = bits >> 6

    def build_partial(batch: pa.Table) -> pa.Table:
        kt = batch.filter(_keys_valid(batch, side_keys))
        kt = kt.select(side_keys).rename_columns(out_keys)
        kt = _cast_key_table(kt, out_keys, out_types)
        words = np.zeros(nwords, dtype=np.uint64)
        bloom_set(words, _content_hash64(_key_join(kt, out_keys)), num_hashes)
        return pa.table({"bm": pa.array([words.tobytes()],
                                        type=pa.large_binary())})

    def or_batch(batch: pa.Table) -> pa.Table:
        acc = np.zeros(nwords, dtype=np.uint64)
        for v in batch.column("bm"):
            acc |= np.frombuffer(v.as_py(), dtype=np.uint64)
        return pa.table({"bm": pa.array([acc.tobytes()],
                                        type=pa.large_binary())})

    bm = map_batches(side, build_partial).materialize()
    while bm.count() > 1:
        bm = map_batches(bm, or_batch, batch_size=64).materialize()
    rows = bm.take_all()
    words = (np.frombuffer(rows[0]["bm"], dtype=np.uint64) if rows
             else np.zeros(nwords, dtype=np.uint64))
    return ray.put(words)


def bloom_probe_hits(batch: pa.Table, keys: list, words: np.ndarray,
                     num_hashes: int) -> np.ndarray:
    """Vectorized membership test of a batch's key tuples against a
    :func:`build_key_bloom` bitmap -> bool mask (null keys never hit)."""
    from ..container import bloom_test
    from .dedup import _content_hash64

    valid = _keys_valid(batch, keys).to_numpy(zero_copy_only=False)
    return valid & bloom_test(words, _content_hash64(_key_join(batch, keys)),
                              num_hashes)


def bloom_semi_join(left, right, key, right_key=None, *, anti: bool = False,
                    bits: int = 1 << 23, num_hashes: int = 4):
    """Bloom-prefiltered LEFT SEMI / LEFT ANTI join — exact results, but the
    keyed shuffle only ever sees left rows whose key HITS a Bloom filter of
    the right side's keys.

    Scale shape (the point of the operator): on a 100 TB left side where
    only a sliver matches, :func:`semi_join` still shuffles every left row
    once. Here the right side is folded map-side into per-block bitmap
    partials (``bits/8`` bytes each, fixed width — never the keys
    themselves), OR-reduced in a 64-ary distributed tree (log64(blocks)
    map-only levels, no node ever holds more than 64 partials), and the
    final bitmap is ``ray.put`` once. The left probe is then a map-only
    vectorized bit test:

    - SEMI: bloom misses are *definitely* non-matching -> dropped map-only;
      only the hits (matches + false positives) continue into the exact
      :func:`semi_join` shuffle.
    - ANTI: bloom misses (and null-key rows, which never match) are
      *definite keeps* emitted map-only; only the hits go through the exact
      :func:`anti_join`, and the two streams union.

    The false-positive rate (~(1-e^(-kn/m))^k) only affects how much work
    the exact stage sees, never the result. Default 2^23 bits = 1 MiB
    gives ~2% fp at 1M distinct right keys (k=4); size ``bits`` (a power of
    two) to the right side's distinct-key count. The right dataset's
    lineage executes twice (bitmap build + exact residual) — at 100 TB
    that trade beats shuffling the non-matching bulk of the left side.
    """
    import ray

    keys = [key] if isinstance(key, str) else list(key)
    right_keys = keys if right_key is None else (
        [right_key] if isinstance(right_key, str) else list(right_key))
    l_schema = left.schema()
    l_types = {nm: t for nm, t in zip(l_schema.names, l_schema.types)}

    ref = build_key_bloom(right, right_keys, out_keys=keys,
                          out_types=l_types, bits=bits,
                          num_hashes=num_hashes)

    def probe(batch: pa.Table, want_hits: bool) -> pa.Table:
        hits = bloom_probe_hits(batch, keys, ray.get(ref), num_hashes)
        return batch.filter(pa.array(hits if want_hits else ~hits))

    maybe = map_batches(left, lambda b: probe(b, True))
    if not anti:
        return semi_join(maybe, right, keys, right_key=right_keys)
    definite = map_batches(left, lambda b: probe(b, False))
    residual = semi_join(maybe, right, keys, right_key=right_keys, anti=True)
    return definite.union(residual)


def _null_route_64(n: int, prefix: str = "N") -> pa.Array:
    """Routing keys for rows that can never match: spread over 64 groups,
    \\x00-prefixed to stay out of the printable key space (correctness never
    depends on routing — groups re-check the actual key values)."""
    salt = (np.arange(n, dtype=np.int64) % 64).astype(str)
    return pc.binary_join_element_wise(
        pa.array(np.full(n, "\x00" + prefix)), pa.array(salt), "#")


def window_functions(ds, by, order_by: str, specs: dict):
    """SQL window functions partitioned by ``by``, ordered by ``order_by``:
    ONE ``groupby(by)`` shuffle, fully vectorized inside each partition
    (sort once, numpy kernels per spec — no per-row Python).

    ``specs`` maps output column name -> spec tuple:

    - ``("row_number",)``       — 1-based position in ``order_by`` order
      (deterministic when ``order_by`` is unique per key, as in SQL)
    - ``("rank", col)``         — competition rank of ``col`` (ties share,
      next rank skips), i.e. ``RANK() OVER (PARTITION BY by ORDER BY col)``
    - ``("dense_rank", col)``   — like rank but gapless
    - ``("lag", col, n)`` / ``("lead", col, n)`` — ``col`` shifted by ``n``
      rows in ``order_by`` order, null-padded at the partition edge
    - ``("cumsum", col)``       — running ``SUM(col)`` over
      ``ROWS UNBOUNDED PRECEDING`` (nulls skipped; null until the first
      non-null, like SQL)
    - ``("percent_rank", col)`` — ``PERCENT_RANK()`` of ``col``:
      ``(rank - 1) / (n - 1)`` as float64, ``0.0`` in a 1-row partition
    - ``("cume_dist", col)``    — ``CUME_DIST()`` of ``col``: rows ordered
      at-or-below the current row (ties included) divided by ``n``
    - ``("moving_sum", col, k)`` — ``SUM(col) OVER (... ROWS BETWEEN k-1
      PRECEDING AND CURRENT ROW)`` (nulls skipped; NULL when the frame
      holds no non-null value)
    - ``("ntile", n)``          — ``NTILE(n)`` buckets in ``order_by``
      order (larger buckets first, SQL semantics)
    - ``("first_value", col)`` / ``("last_value", col)`` — ``col`` at the
      partition's first/last row in ``order_by`` order (full-frame
      semantics, i.e. ``ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED
      FOLLOWING``)

    Output: the input columns plus the spec columns; row order within each
    partition is ``order_by`` ascending (the Dataset as a whole stays
    unordered, as after any shuffle). Skewed partition keys hurt here like
    in any keyed shuffle — a single giant key lands on one worker."""
    by_keys = [by] if isinstance(by, str) else list(by)

    def apply(group: pa.Table) -> pa.Table:
        order = pc.sort_indices(group, sort_keys=[(order_by, "ascending")])
        g = group.take(order)
        n = g.num_rows
        cols = {nm: g.column(nm) for nm in g.column_names}
        for out_name, spec in specs.items():
            if out_name in cols:
                raise ValueError(f"window output column {out_name!r} "
                                 "collides with an input column")
            op = spec[0]
            if op == "row_number":
                cols[out_name] = pa.array(np.arange(1, n + 1, dtype=np.int64))
            elif op in ("rank", "dense_rank", "percent_rank", "cume_dist"):
                col = g.column(spec[1]).combine_chunks()
                # rank in the column's OWN order (nulls last, like SQL
                # NULLS LAST): positions of sorted values, ties collapsed
                sidx = pc.sort_indices(col).to_numpy(zero_copy_only=False)
                sv = col.take(pa.array(sidx))
                # tie starts: first element, or value != previous value
                neq = np.ones(n, dtype=bool)
                if n > 1:
                    eq = pc.equal(sv.slice(1), sv.slice(0, n - 1))
                    prev_eq = pc.fill_null(eq, False).to_numpy(
                        zero_copy_only=False)
                    # two nulls tie with each other
                    both_null = (pc.is_null(sv.slice(1)).to_numpy(
                        zero_copy_only=False)
                        & pc.is_null(sv.slice(0, n - 1)).to_numpy(
                            zero_copy_only=False))
                    neq[1:] = ~(prev_eq | both_null)
                if op == "dense_rank":
                    r_sorted = np.cumsum(neq).astype(np.int64)
                elif op == "cume_dist":
                    # CUME_DIST = (# rows ordered <= current, peers
                    # included) / n: every member of a tie group shares
                    # the position AFTER the group's last row
                    gid = np.cumsum(neq) - 1
                    last = np.cumsum(np.bincount(gid))  # rows through gid
                    r_sorted = last[gid]
                else:  # rank / percent_rank share competition rank
                    r_sorted = np.maximum.accumulate(
                        np.where(neq, np.arange(1, n + 1, dtype=np.int64), 0))
                r = np.empty(n, dtype=np.int64)
                r[sidx] = r_sorted
                if op == "percent_rank":
                    # SQL: (rank - 1) / (n - 1), 0.0 for a 1-row partition
                    cols[out_name] = pa.array(
                        (r - 1) / (n - 1) if n > 1
                        else np.zeros(n, dtype=np.float64))
                elif op == "cume_dist":
                    cols[out_name] = pa.array(r / n)
                else:
                    cols[out_name] = pa.array(r)
            elif op in ("lag", "lead"):
                col = g.column(spec[1]).combine_chunks()
                k = int(spec[2]) if len(spec) > 2 else 1
                if op == "lead":
                    shifted = pa.concat_arrays(
                        [col.slice(min(k, n)), pa.nulls(min(k, n), col.type)])
                else:
                    shifted = pa.concat_arrays(
                        [pa.nulls(min(k, n), col.type),
                         col.slice(0, max(n - k, 0))])
                cols[out_name] = shifted
            elif op == "cumsum":
                col = g.column(spec[1]).combine_chunks()
                v = pc.fill_null(col, 0).to_numpy(zero_copy_only=False)
                cs = np.cumsum(v)
                seen = np.cumsum(pc.is_valid(col).to_numpy(
                    zero_copy_only=False).astype(np.int64))
                out = pa.array(cs)
                cols[out_name] = pc.if_else(
                    pa.array(seen > 0), out,
                    pa.scalar(None, out.type))
            elif op == "moving_sum":
                # SUM(col) OVER (... ROWS BETWEEN k-1 PRECEDING AND
                # CURRENT ROW): cumsum-difference over null-filled values;
                # NULL when the frame holds no non-null value (SQL SUM)
                col = g.column(spec[1]).combine_chunks()
                k = int(spec[2])
                if k < 1:
                    raise ValueError("moving_sum window must be >= 1 row")
                v = pc.fill_null(col, 0).to_numpy(zero_copy_only=False)
                valid = pc.is_valid(col).to_numpy(
                    zero_copy_only=False).astype(np.int64)
                cs = np.cumsum(v)
                cv = np.cumsum(valid)
                out = cs.copy()
                nv = cv.copy()
                if n > k:
                    out[k:] = cs[k:] - cs[:-k]
                    nv[k:] = cv[k:] - cv[:-k]
                arr = pa.array(out)
                cols[out_name] = pc.if_else(
                    pa.array(nv > 0), arr, pa.scalar(None, arr.type))
            elif op == "ntile":
                buckets = int(spec[1])
                # SQL NTILE: base size n//b, the first n%b buckets get one
                # extra row
                base, extra = divmod(n, buckets)
                sizes = np.full(buckets, base, dtype=np.int64)
                sizes[:extra] += 1
                cols[out_name] = pa.array(
                    np.repeat(np.arange(1, buckets + 1, dtype=np.int64),
                              sizes)[:n])
            elif op in ("first_value", "last_value"):
                col = g.column(spec[1]).combine_chunks()
                pick = col.slice(0, 1) if op == "first_value" \
                    else col.slice(n - 1, 1)
                idx = pa.array(np.zeros(n, dtype=np.int64))
                cols[out_name] = pick.take(idx)
            else:
                raise ValueError(f"unknown window spec {spec!r}")
        return pa.table(cols)

    return map_groups(
        ds.groupby(by_keys if len(by_keys) > 1 else by_keys[0]), apply)


def rollup_aggregate(ds, keys: Sequence[str], sum_cols: Sequence[str] = (),
                     count_name: Optional[str] = "n"):
    """``GROUP BY ROLLUP(keys...)``: the prefix levels (keys, keys[:-1],
    ..., grand total) of :func:`grouping_sets_aggregate` — ONE scan +
    shuffle of the source at full key resolution, coarser levels derived by
    re-aggregating that combiner-shrunk output."""
    keys = list(keys)
    sets = [keys[:lvl] for lvl in range(len(keys), -1, -1)]
    return grouping_sets_aggregate(ds, keys, sets, sum_cols=sum_cols,
                                   count_name=count_name)


def pivot_aggregate(ds, key, pivot_col: str, pivot_values: Sequence,
                    value_col: str, prefix: Optional[str] = None):
    """Wide pivot: ``SUM(value_col) FILTER (pivot_col = v)`` per listed
    value, grouped by ``key``. The pivot set must be KNOWN and small (the
    output schema is fixed up front — at 100 TB you never want a schema
    discovered by a full scan); per-block conditional sums pre-aggregate
    before one combiner-sized shuffle. Cells with no contributing rows are
    0 (matching ``COALESCE(SUM(...) FILTER ..., 0)``)."""
    from ray.data.aggregate import Sum

    keys = [key] if isinstance(key, str) else list(key)
    prefix = prefix if prefix is not None else f"{value_col}_"
    pv_names = {v: f"{prefix}{v}" for v in pivot_values}

    def partial(batch: pa.Table) -> pa.Table:
        pcol = batch.column(pivot_col)
        vcol = batch.column(value_col)
        add = {}
        for v, nm in pv_names.items():
            mask = pc.equal(pcol, v)
            add[f"__p_{nm}"] = pc.if_else(
                pc.fill_null(mask, False), pc.fill_null(vcol, 0),
                pa.scalar(0, vcol.type))
        t = batch.select(keys)
        for nm, c in add.items():
            t = t.append_column(nm, c)
        g = t.group_by(keys).aggregate([(f"__p_{nm}", "sum")
                                        for nm in pv_names.values()])
        # strip "_sum" ONLY from the partial columns ("__p_*"); a group KEY
        # whose own name ends in "_sum" must stay untouched (same guard as
        # grouped_stats)
        return g.rename_columns(
            [n[:-4] if n.startswith("__p_") and n.endswith("_sum") else n
             for n in g.column_names])

    def rename(batch: pa.Table) -> pa.Table:
        cols = {k: batch.column(k) for k in keys}
        for nm in pv_names.values():
            cols[nm] = batch.column(f"sum(__p_{nm})")
        return pa.table(cols)

    aggs = [Sum(f"__p_{nm}") for nm in pv_names.values()]
    agg = (map_batches(ds, partial)
           .groupby(keys if len(keys) > 1 else keys[0])
           .aggregate(*aggs))
    return map_batches(agg, rename)


def unpivot(ds, id_cols: Sequence[str], value_cols: Sequence[str],
            var_name: str = "name", value_name: str = "value"):
    """Wide -> long (SQL UNPIVOT / pandas melt): one output row per
    (input row, value column), carrying the id columns, the source column
    NAME and its VALUE. Map-only — no shuffle, streams block by block, so
    it costs one pass at any scale.

    All ``value_cols`` must share one Arrow type or be numeric (numeric
    mixes are promoted to float64, the SQL UNPIVOT rule of a common
    super-type); anything else raises rather than silently stringifying."""
    id_cols = list(id_cols)
    value_cols = list(value_cols)
    if not value_cols:
        raise ValueError("unpivot needs at least one value column")
    schema = ds.schema()
    types = [schema.types[schema.names.index(c)] for c in value_cols]
    target = types[0]
    if any(t != target for t in types):
        if all(pa.types.is_integer(t) or pa.types.is_floating(t)
               or pa.types.is_decimal(t) for t in types):
            target = pa.float64()
        else:
            raise ValueError(
                f"unpivot value columns mix incompatible types: {types}")

    def fn(batch: pa.Table):
        # one piece per value column, yielded separately: output volume is
        # len(value_cols) x input, so never concat the pieces into one
        # len(value_cols)-sized block
        for vc in value_cols:
            t = batch.select(id_cols)
            t = t.append_column(
                var_name, pa.array([vc] * batch.num_rows, type=pa.string()))
            t = t.append_column(value_name, batch.column(vc).cast(target))
            yield t

    return map_batches(ds, fn)


def explode(ds, list_col: str, *, pos_col: Optional[str] = None,
            value_name: Optional[str] = None, keep_empty: bool = False):
    """List column -> one row per element (SQL ``unnest`` / Spark
    ``explode``): sibling columns repeat by each row's list length via
    one vectorized take — map-only, no shuffle, streams block by block.

    - ``value_name`` names the element column (default: ``list_col``,
      replacing the list column in place).
    - ``pos_col`` optionally adds the 0-based element index (SQL ``WITH
      ORDINALITY`` minus one).
    - ``keep_empty=False`` (SQL unnest semantics) drops rows whose list
      is empty or NULL; ``True`` keeps them as a single null-element row
      (the LEFT JOIN LATERAL shape)."""
    out_name = value_name or list_col

    def fn(batch: pa.Table) -> pa.Table:
        col = batch.column(list_col)
        col = (col.combine_chunks()
               if isinstance(col, pa.ChunkedArray) else col)
        lens = pc.fill_null(pc.list_value_length(col), 0).to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(col)     # skips nulls AND empties alike
        if keep_empty:
            n_out = np.maximum(lens, 1)
            rep = np.repeat(np.arange(batch.num_rows, dtype=np.int64),
                            n_out)
            # element index within each output group; empty/null lists
            # get one null-element row (LEFT JOIN LATERAL shape)
            starts = np.concatenate([[0], np.cumsum(n_out)[:-1]])
            pos = (np.arange(len(rep), dtype=np.int64) - starts[rep]
                   if len(rep) else np.empty(0, np.int64))
            src = np.concatenate([[0], np.cumsum(lens)[:-1]])
            has = lens[rep] > 0
            # null slots take element 0 (masked to null right after) —
            # guard the all-empty block where flat has no element at all
            safe_idx = np.where(has, src[rep] + pos, 0)
            if len(flat) == 0:
                vals = pa.nulls(len(rep), flat.type)
            else:
                vals = flat.take(pa.array(safe_idx, type=pa.int64()))
                if not has.all():
                    vals = pc.if_else(pa.array(has), vals,
                                      pa.scalar(None, type=flat.type))
            if pos_col:
                pos_vals = pa.array(pos, type=pa.int64(), mask=~has)
        else:
            rep = np.repeat(np.arange(batch.num_rows, dtype=np.int64),
                            lens)
            vals = flat
            if pos_col:
                starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
                pos_vals = pa.array(
                    np.arange(len(rep), dtype=np.int64) - starts[rep]
                    if len(rep) else np.empty(0, np.int64),
                    type=pa.int64())
        others = batch.drop_columns([list_col])
        t = others.take(pa.array(rep, type=pa.int64()))
        if pos_col:
            t = t.append_column(pos_col, pos_vals)
        return t.append_column(out_name, vals)

    return map_batches(ds, fn)


def sliding_window_aggregate(ds, ts_column: str, window: str = "1h",
                             hop: str = "30m", keys: Sequence[str] = (),
                             count_name: str = "n"):
    """Hopping/sliding-window count: each event lands in window/hop
    overlapping windows, expanded VECTORIZED inside map_batches, then the
    partial-aggregate path runs as usual (the shuffle moves one row per
    (window, key) per block — the expansion factor never hits the
    all-to-all)."""
    win_us = duration_us(window)
    hop_us = duration_us(hop)
    if win_us % hop_us:
        raise ValueError("window must be a multiple of hop")
    k = win_us // hop_us

    def expand(batch: pa.Table) -> pa.Table:
        # rows without an event time belong to no window
        batch = batch.filter(pc.is_valid(batch.column(ts_column)))
        ts = batch.column(ts_column).combine_chunks().cast(
            pa.timestamp("us")).cast(pa.int64()).to_numpy(zero_copy_only=False)
        base = (ts // hop_us) * hop_us
        starts = np.concatenate([base - i * hop_us for i in range(k)])
        idx = np.tile(np.arange(batch.num_rows, dtype=np.int64), k)
        out = batch.take(idx).append_column(
            "window_start", pa.array(starts).cast(pa.timestamp("us")))
        return out

    expanded = map_batches(ds, expand)
    return grouped_aggregate(expanded, ["window_start", *keys],
                             count_name=count_name)


def sessionize(ds, user_column: str, ts_column: str, gap: str = "30m"):
    """Gap-based session windows per user: ONE groupby(user) shuffle, then a
    vectorized in-group split (sorted diffs > gap). Emits one row per
    session: (user, session_start, session_end, n_events). The per-group
    state is one user's events — the natural partitioning key for session
    semantics; hot users can be range-split upstream if one user exceeds a
    worker (not the case for behavioral event streams)."""
    gap_us = duration_us(gap)

    def split(group: pa.Table) -> pa.Table:
        group = group.filter(pc.is_valid(group.column(ts_column)))
        if group.num_rows == 0:
            utyp = group.schema.field(user_column).type
            return pa.table({user_column: pa.array([], type=utyp),
                             "session_start": pa.array([], type=pa.timestamp("us")),
                             "session_end": pa.array([], type=pa.timestamp("us")),
                             "n_events": pa.array([], type=pa.int64())})
        ts = group.column(ts_column).combine_chunks().cast(
            pa.timestamp("us")).cast(pa.int64()).to_numpy(zero_copy_only=False)
        order = np.argsort(ts, kind="stable")
        ts = ts[order]
        new_sess = np.ones(len(ts), dtype=bool)
        new_sess[1:] = np.diff(ts) > gap_us
        sess_id = np.cumsum(new_sess) - 1
        starts = np.flatnonzero(new_sess)
        ends = np.r_[starts[1:], len(ts)] - 1
        user = group.column(user_column)[0].as_py()
        return pa.table({
            user_column: pa.array([user] * len(starts),
                                  type=group.schema.field(user_column).type),
            "session_start": pa.array(ts[starts]).cast(pa.timestamp("us")),
            "session_end": pa.array(ts[ends]).cast(pa.timestamp("us")),
            "n_events": pa.array((ends - starts + 1).astype(np.int64)),
        })

    return map_groups(ds.groupby(user_column), split)


def funnel(ds, user_col: str, ts_col: str, event_col: str,
           steps: Sequence, within: Optional[str] = None) -> pa.Table:
    """Ordered-funnel conversion counts: how many users performed
    ``steps[0]``, then ``steps[1]`` STRICTLY AFTER it, then ``steps[2]``
    after that, ... (greedy earliest-chain semantics — each step matches
    the user's earliest qualifying event, which maximizes unwindowed
    funnel completion, so the counts are well-defined).

    ``within`` (e.g. ``"1h"``; ``ts_col`` must then be a timestamp)
    bounds the whole chain to a conversion window anchored at the user's
    step-1 time: step *i* must satisfy ``t_1 < t_i <= t_1 + within``.
    The greedy chain is anchored at the user's EARLIEST step-1 event
    (the standard analytics-funnel convention) — it does not re-anchor
    to later step-1 occurrences, so a user who converts only from a
    later occurrence is not counted; document this when comparing
    against re-anchoring funnel engines.

    No per-user Python and no whole-events materialization: the frontier
    after step *i* is one fixed-width ``(user, t_i)`` row per surviving
    user — computed as a native grouped Min, joined back to the next
    step's (column-pruned, event-filtered) rows via :func:`hash_join`,
    filtered to ``ts > t_i`` map-only. Per step that is one keyed shuffle
    of slim payloads; the frontier is materialized (it is consumed twice:
    the count and the next join). Rows with a null timestamp never match;
    null users count in step 1's grouped Min (its own group, as SQL
    ``GROUP BY``) but drop out at the first join (SQL equality).

    Returns a driver-side table ``(step, step_idx, n_users)`` — k rows."""
    from ray.data.aggregate import Min

    steps = list(steps)
    if not steps:
        raise ValueError("funnel needs at least one step")
    win = None
    if within is not None:
        win = duration_us(within) if isinstance(within, str) else int(within)

    def ts_int(col):
        if pa.types.is_timestamp(col.type):
            return pc.cast(pc.cast(col, pa.timestamp("us")), pa.int64())
        return pc.cast(col, pa.int64())

    def step_events(step):
        def fn(batch: pa.Table) -> pa.Table:
            m = pc.and_(
                pc.fill_null(pc.equal(batch.column(event_col), step), False),
                pc.is_valid(batch.column(ts_col)))
            return batch.filter(m).select([user_col, ts_col])
        return fn

    def to_frontier(batch: pa.Table) -> pa.Table:
        cols = {user_col: batch.column(user_col),
                "__t": batch.column(f"min({ts_col})")}
        if win is not None:
            # the chain anchor t_1 rides the frontier (constant per user,
            # Min is the identity reduce for it past step 1)
            cols["__t1"] = batch.column("min(__t1)") \
                if "min(__t1)" in batch.column_names else cols["__t"]
        return pa.table(cols)

    def after_prev(batch: pa.Table) -> pa.Table:
        keep = pc.greater(batch.column(ts_col), batch.column("__t"))
        if win is not None:
            keep = pc.and_(keep, pc.less_equal(
                ts_int(batch.column(ts_col)),
                pc.add(ts_int(batch.column("__t1")),
                       pa.scalar(win, pa.int64()))))
        out = batch.filter(pc.fill_null(keep, False))
        sel = [user_col, ts_col] + (["__t1"] if win is not None else [])
        return out.select(sel)

    counts = []
    frontier = None
    for step in steps:
        ev = map_batches(ds, step_events(step))
        if frontier is not None:
            ev = map_batches(hash_join(ev, frontier, key=user_col), after_prev)
        aggs = [Min(ts_col)]
        if win is not None and frontier is not None:
            aggs.append(Min("__t1"))
        frontier = map_batches(ev.groupby(user_col).aggregate(*aggs),
                               to_frontier).materialize()
        counts.append(frontier.count())
        if counts[-1] == 0:
            # nobody reached this step — every later step is 0 (and an
            # empty frontier has no schema for the next hash_join)
            counts.extend([0] * (len(steps) - len(counts)))
            break
    return pa.table({
        "step": pa.array([str(s) for s in steps]),
        "step_idx": pa.array(np.arange(1, len(steps) + 1, dtype=np.int64)),
        "n_users": pa.array(counts, type=pa.int64()),
    })


def asof_join(left, right, on: str, by: str,
              right_cols: Optional[list[str]] = None, suffix: str = "_r",
              join_type: str = "inner", tolerance=None):
    """AS-OF join: for each left row, the most recent right row of the same
    ``by`` key with ``right.on <= left.on``. ``join_type="inner"`` drops
    left rows with no prior right row; ``join_type="left"`` keeps them with
    null right columns (DuckDB ``ASOF LEFT JOIN`` semantics — including
    left rows whose ``by``/``on`` is null, which match nothing but are
    kept, at the cost of one extra streaming scan of the left side).

    ``tolerance`` (optional) bounds the match age: a right row older than
    ``left.on - tolerance`` is no match (pandas ``merge_asof`` tolerance).
    Pass a duration string (``"30m"``) for timestamp ``on`` columns or a
    number for numeric ones; matches exactly at the bound are kept
    (``left.on - right.on <= tolerance``).

    Ray shape: both sides pad to a union schema, tag, union, ONE
    groupby(by) shuffle, then a vectorized in-group merge (sort + one
    searchsorted — never a cross product). The per-group state is one key's
    rows, the natural partitioning for as-of semantics."""
    if join_type not in ("inner", "left"):
        raise ValueError(f"asof_join join_type {join_type!r}: want inner|left")
    tol = None
    if tolerance is not None:
        tol = duration_us(tolerance) if isinstance(tolerance, str) \
            else float(tolerance)
        if tol < 0:
            raise ValueError("asof_join tolerance must be >= 0")
    r_schema = right.schema()
    right_cols = list(right_cols or
                      [n for n in r_schema.names if n not in (on, by)])
    l_schema = left.schema()
    l_names = list(l_schema.names)
    out_r = {}
    for nm in right_cols:
        out_nm = nm + suffix if nm in l_names else nm
        if out_nm in l_names or out_nm in out_r.values():
            raise ValueError(f"asof_join output column {out_nm!r} collides")
        out_r[nm] = out_nm
    out_types = {nm: t for nm, t in zip(l_schema.names, l_schema.types)}
    for nm, t in zip(r_schema.names, r_schema.types):
        if nm in out_r:
            out_types[out_r[nm]] = t
    out_names = l_names + [out_r[nm] for nm in right_cols]
    on_type = l_schema.types[l_names.index(on)]

    def pad(batch: pa.Table, side: int) -> pa.Table:
        cols = {}
        for nm in out_names:
            if side == 1 and nm in out_r.values():
                src = next(s for s, d in out_r.items() if d == nm)
                cols[nm] = batch.column(src)
            elif side == 0 and nm in batch.column_names:
                cols[nm] = batch.column(nm)
            elif side == 1 and nm in (on, by):
                cols[nm] = batch.column(nm).cast(out_types[nm])
            else:
                cols[nm] = pa.nulls(batch.num_rows, out_types[nm])
        cols["__side"] = pa.array(np.full(batch.num_rows, side, dtype=np.int8))
        t = pa.table(cols)
        mask = pc.and_(pc.is_valid(t.column(by)), pc.is_valid(t.column(on)))
        return t.filter(mask)

    tagged = map_batches(left, lambda b: pad(b, 0)).union(
        map_batches(right, lambda b: pad(b, 1)))

    empty = {nm: pa.array([], type=out_types[nm]) for nm in out_names}

    def merge(group: pa.Table) -> pa.Table:
        side = group.column("__side").to_numpy(zero_copy_only=False)
        onv = group.column(on).combine_chunks().cast(
            pa.timestamp("us") if pa.types.is_timestamp(on_type) else on_type
        ).cast(pa.int64() if pa.types.is_timestamp(on_type) else on_type) \
            .to_numpy(zero_copy_only=False)
        li = np.flatnonzero(side == 0)
        ri = np.flatnonzero(side == 1)
        if len(li) == 0:
            return pa.table(empty)
        if len(ri) == 0:
            # padding already filled the right columns with nulls
            return group.take(li).select(out_names) if join_type == "left" \
                else pa.table(empty)
        r_order = ri[np.argsort(onv[ri], kind="stable")]
        # most recent right row at-or-before each left timestamp
        pos = np.searchsorted(onv[r_order], onv[li], side="right") - 1
        has = pos >= 0
        if tol is not None:
            age = onv[li] - onv[r_order[np.maximum(pos, 0)]]
            has = has & (age <= tol)
        lt = group.take(li[has])
        rt = group.take(r_order[pos[has]])
        cols = {nm: (lt if nm in l_names else rt).column(nm)
                for nm in out_names}
        matched = pa.table(cols)
        if join_type == "left" and not has.all():
            unmatched = group.take(li[~has]).select(out_names)
            return pa.concat_tables([matched, unmatched])
        return matched

    joined = map_groups(tagged.groupby(by), merge)
    if join_type != "left":
        return joined

    def null_key_left(batch: pa.Table) -> pa.Table:
        # left rows with a null by/on never match but a LEFT join keeps
        # them; they were filtered before the shuffle, so this second
        # streaming scan of the left side re-emits exactly those rows
        bad = pc.or_(pc.is_null(batch.column(by)), pc.is_null(batch.column(on)))
        t = batch.filter(pc.fill_null(bad, True))
        cols = {nm: (t.column(nm) if nm in t.column_names
                     else pa.nulls(t.num_rows, out_types[nm]))
                for nm in out_names}
        return pa.table(cols)

    return joined.union(map_batches(left, null_key_left))


def interval_join(left, right, on: str, by: str, lo_col: str, hi_col: str,
                  right_cols: Optional[list[str]] = None, suffix: str = "_r",
                  overlap: bool = False):
    """Range join: each left row matches the right interval(s) of the same
    ``by`` key with ``lo <= left.on <= hi`` (inner semantics).

    Two modes:

    - ``overlap=False`` (default): right intervals are NON-OVERLAPPING
      within a key (sessions, validity ranges) — one sorted searchsorted
      per group resolves every match, output is at most one row per left
      row. The assumption is VERIFIED per group (a violating input raises
      a ValueError naming the key and the two clashing intervals, instead
      of silently matching only the greatest-lo interval).
    - ``overlap=True``: intervals may overlap (sliding windows, ad
      campaigns); every (left row, containing interval) pair is emitted.
      Per group: sort left values once, two searchsorteds per interval
      find each interval's member range, and a vectorized multi-range
      take materializes the pairs — O((n+m) log n + output), no interval
      tree, no per-row loop. Output size is inherently the match count;
      partition keys whose match volume explodes should be pre-salted."""
    r_schema = right.schema()
    right_cols = list(right_cols or
                      [n for n in r_schema.names if n not in (lo_col, hi_col, by)])
    l_schema = left.schema()
    l_names = list(l_schema.names)
    out_r = {}
    for nm in [lo_col, hi_col, *right_cols]:
        out_nm = nm + suffix if nm in l_names else nm
        if out_nm in l_names or out_nm in out_r.values():
            raise ValueError(f"interval_join output column {out_nm!r} collides")
        out_r[nm] = out_nm
    out_types = {nm: t for nm, t in zip(l_schema.names, l_schema.types)}
    for nm, t in zip(r_schema.names, r_schema.types):
        if nm in out_r:
            out_types[out_r[nm]] = t
    out_names = l_names + [out_r[nm] for nm in [lo_col, hi_col, *right_cols]]

    def pad(batch: pa.Table, side: int) -> pa.Table:
        cols = {}
        for nm in out_names:
            if side == 1 and nm in out_r.values():
                src = next(s for s, d in out_r.items() if d == nm)
                cols[nm] = batch.column(src)
            elif side == 0 and nm in batch.column_names:
                cols[nm] = batch.column(nm)
            elif side == 1 and nm == by:
                cols[nm] = batch.column(by).cast(out_types[by])
            else:
                cols[nm] = pa.nulls(batch.num_rows, out_types[nm])
        cols["__side"] = pa.array(np.full(batch.num_rows, side, dtype=np.int8))
        t = pa.table(cols)
        mask = pc.is_valid(t.column(by))
        if side == 1:
            # right rows with a null bound define no interval: drop them
            # here instead of relying on NaN comparisons downstream
            mask = pc.and_(mask, pc.and_(
                pc.is_valid(t.column(out_r[lo_col])),
                pc.is_valid(t.column(out_r[hi_col]))))
        else:
            # left rows with a null `on` never match (inner semantics); more
            # importantly a single null would force the whole group's int64
            # `on` column through float64 in to_numpy, rounding values
            # > 2^53 across interval boundaries
            mask = pc.and_(mask, pc.is_valid(t.column(on)))
        return t.filter(mask)

    tagged = map_batches(left, lambda b: pad(b, 0)).union(
        map_batches(right, lambda b: pad(b, 1)))
    empty = {nm: pa.array([], type=out_types[nm]) for nm in out_names}
    lo_out, hi_out = out_r[lo_col], out_r[hi_col]

    def as_i64(chunked):
        c = chunked.combine_chunks()
        if pa.types.is_timestamp(c.type):
            c = c.cast(pa.timestamp("us")).cast(pa.int64())
        return c.to_numpy(zero_copy_only=False)

    def merge(group: pa.Table) -> pa.Table:
        side = group.column("__side").to_numpy(zero_copy_only=False)
        li = np.flatnonzero(side == 0)
        ri = np.flatnonzero(side == 1)
        if len(li) == 0 or len(ri) == 0:
            return pa.table(empty)
        # take each side's subset BEFORE to_numpy: the whole-group column
        # always contains the OTHER side's padding nulls, which would
        # force the int64 values through float64 and round keys > 2^53
        # across interval boundaries (defeating pad()'s null filters)
        v = as_i64(group.column(on).take(pa.array(li)))
        lo = as_i64(group.column(lo_out).take(pa.array(ri)))
        hi = as_i64(group.column(hi_out).take(pa.array(ri)))
        if overlap:
            # all-matches mode: sort left values once; each interval's
            # members are one contiguous range of the sorted values; emit
            # every range with a vectorized concatenated-arange take
            ts_order = np.argsort(v, kind="stable")
            v_s = v[ts_order]
            starts = np.searchsorted(v_s, lo, side="left")
            ends = np.searchsorted(v_s, hi, side="right")
            cnt = np.maximum(ends - starts, 0)
            tot = int(cnt.sum())
            if tot == 0:
                return pa.table(empty)
            shift = np.concatenate(([0], np.cumsum(cnt)[:-1]))
            ev_idx = np.arange(tot, dtype=np.int64) + np.repeat(
                starts - shift, cnt)
            lt = group.take(li[ts_order][ev_idx])
            rt = group.take(np.repeat(ri, cnt))
            return pa.table({nm: (lt if nm in l_names else rt).column(nm)
                             for nm in out_names})
        order = np.argsort(lo, kind="stable")
        lo_s, hi_s = lo[order], hi[order]
        # verify the documented non-overlap assumption: silent wrong answers
        # (a value inside two intervals matching only the greatest-lo one)
        # become loud errors naming the offending key + intervals
        if len(lo_s) > 1:
            bad = np.flatnonzero(lo_s[1:] <= hi_s[:-1])
            if len(bad):
                j = int(bad[0])
                raise ValueError(
                    f"interval_join: overlapping right intervals for "
                    f"{by}={group.column(by)[0].as_py()!r}: "
                    f"[{lo_s[j]}, {hi_s[j]}] and [{lo_s[j + 1]}, "
                    f"{hi_s[j + 1]}] — this operator requires "
                    "non-overlapping intervals per key")
        pos = np.searchsorted(lo_s, v, side="right") - 1
        ok = pos >= 0
        ok[ok] &= v[ok] <= hi[order][pos[ok]]
        lt = group.take(li[ok])
        rt = group.take(ri[order][pos[ok]])
        cols = {nm: (lt if nm in l_names else rt).column(nm)
                for nm in out_names}
        return pa.table(cols)

    return map_groups(tagged.groupby(by), merge)


def count_distinct(ds, column: str) -> int:
    """Exact distinct count: per-block ``unique`` pre-shrink, then ONE keyed
    shuffle of the already-distinct values (the all-to-all moves at most
    blocks x block-distinct values, never raw rows), count groups."""

    def shrink(batch: pa.Table) -> pa.Table:
        u = pc.unique(batch.column(column).combine_chunks())
        return pa.table({column: pc.drop_null(u)})

    shrunk = map_batches(ds, shrink)
    # native grouped count (no per-group python call), then count key rows
    return int(shrunk.groupby(column).count().count())


def exact_quantiles(ds, column: str, qs: Sequence[float],
                    n_buckets: int = 4096) -> dict[float, float]:
    """EXACT order statistics (quantile_disc semantics: the ceil(q*n)-th
    smallest element) over a distributed column without a global sort:

    pass 1 histograms values into fixed buckets per block (pre-aggregated —
    one count row per non-empty bucket per block); the driver locates each
    target rank's bucket from the merged histogram; pass 2 collects ONLY the
    values inside located buckets (expected n/n_buckets of the data) and
    selects the rank within them. Two streaming passes, O(buckets + bucket
    contents) driver memory, deterministic."""
    import math
    from fractions import Fraction

    qs = list(qs)
    n, ranks_of = _order_statistics(
        ds, column,
        lambda n: {q: max(int(math.ceil(Fraction(str(q)) * n)), 1)
                   for q in qs},
        n_buckets)
    if ranks_of is None:
        return {q: n for q in qs}   # degenerate: None (empty) or the
        # constant value (hi == lo), propagated through `n`
    return ranks_of


def exact_quantiles_cont(ds, column: str, qs: Sequence[float],
                         n_buckets: int = 4096) -> dict[float, float]:
    """EXACT interpolated quantiles (SQL ``quantile_cont`` /
    ``PERCENTILE_CONT``: linear interpolation at fractional rank
    ``q*(n-1)`` over the sorted non-null values) with the same two-pass
    histogram-locate machinery as :func:`exact_quantiles` — both bracketing
    order statistics come from one collect pass, no global sort."""
    from fractions import Fraction

    qs = list(qs)

    def make_ranks(n: int) -> dict:
        ranks: dict = {}
        for q in qs:
            h = Fraction(str(q)) * (n - 1)       # 0-based fractional rank
            r0 = int(h) + 1                      # 1-based lower bracket
            ranks[(q, 0)] = min(max(r0, 1), n)
            ranks[(q, 1)] = min(max(r0 + (1 if h != int(h) else 0), 1), n)
        return ranks

    n, ranks_of = _order_statistics(ds, column, make_ranks, n_buckets)
    if ranks_of is None:
        return {q: n for q in qs}
    out = {}
    for q in qs:
        h = Fraction(str(q)) * (n - 1)
        frac = float(h - int(h))
        v0, v1 = ranks_of[(q, 0)], ranks_of[(q, 1)]
        out[q] = v0 + frac * (v1 - v0)
    return out


def _order_statistics(ds, column: str, make_ranks, n_buckets: int):
    """Shared two-pass exact rank selection: ``make_ranks(n)`` maps the
    non-null count to ``{label: 1-based rank}``; returns ``(n, {label:
    value})`` — or ``(None, None)`` when the column is empty and
    ``(constant, None)`` when all values are equal (callers propagate)."""
    col = ds.select_columns([column])
    stats = map_batches(col, lambda b: pa.table({
        "lo": [pc.min(b.column(column)).as_py()],
        "hi": [pc.max(b.column(column)).as_py()],
        "n": [b.num_rows - b.column(column).null_count],
    })).take_all()
    stats = [s for s in stats if s["n"]]
    if not stats:
        return None, None
    lo = min(s["lo"] for s in stats)
    hi = max(s["hi"] for s in stats)
    n = sum(s["n"] for s in stats)
    if hi == lo:
        return lo, None
    width = (hi - lo) / n_buckets

    def hist(batch: pa.Table) -> pa.Table:
        v = batch.column(column).combine_chunks()
        v = pc.drop_null(v).to_numpy(zero_copy_only=False)
        if not len(v):
            return pa.table({"bucket": pa.array([], type=pa.int64()),
                             "cnt": pa.array([], type=pa.int64())})
        b = np.minimum(((v - lo) / width).astype(np.int64), n_buckets - 1)
        uniq, counts = np.unique(b, return_counts=True)
        return pa.table({"bucket": pa.array(uniq),
                         "cnt": pa.array(counts.astype(np.int64))})

    rows = map_batches(col, hist).take_all()
    counts = np.zeros(n_buckets, dtype=np.int64)
    for r in rows:
        counts[r["bucket"]] += r["cnt"]
    cum = np.cumsum(counts)
    # EXACT decimal rank arithmetic happens in make_ranks (quantile_disc's
    # ceil(q*n): float 0.9*10 = 9.000000000000002 would off-by-one the rank)
    ranks = make_ranks(n)
    target_buckets = {int(np.searchsorted(cum, r)) for r in ranks.values()}
    tb = sorted(target_buckets)

    val_type = ds.schema().types[list(ds.schema().names).index(column)]

    def collect(batch: pa.Table) -> pa.Table:
        # (value, count) per DISTINCT value in a target bucket: a bucket
        # full of one repeated value (worst-case skew) collapses to one row
        # instead of flooding the driver. Values keep their NATIVE dtype —
        # a float64 cast here would collapse distinct int64 values > 2^53
        # and break the documented EXACT guarantee (bucket assignment may
        # stay approximate: it only prunes, never selects)
        v = pc.drop_null(batch.column(column).combine_chunks()).to_numpy(
            zero_copy_only=False)
        if not len(v):
            return pa.table({"v": pa.array([], type=val_type),
                             "c": pa.array([], type=pa.int64())})
        b = np.minimum(((v - lo) / width).astype(np.int64), n_buckets - 1)
        kept = v[np.isin(b, tb)]
        uniq, cnts = np.unique(kept, return_counts=True)
        return pa.table({"v": pa.array(uniq, type=val_type),
                         "c": pa.array(cnts.astype(np.int64))})

    agg: dict = {}
    for r in map_batches(col, collect).take_all():
        agg[r["v"]] = agg.get(r["v"], 0) + r["c"]
    svals = sorted(agg)                      # python ints/floats: exact
    vcnt = np.asarray([agg[v] for v in svals], dtype=np.int64)
    vcum = np.cumsum(vcnt)
    # rank of each collected value GLOBALLY = (values below its bucket that
    # were not collected) + cumulative count within collected values; since
    # collected buckets are exactly the target buckets, non-collected mass
    # below value x = cum[bucket(x)-1] - (collected mass in earlier buckets)
    out = {}
    for label, r in ranks.items():
        bucket = int(np.searchsorted(cum, r))
        before_bucket = int(cum[bucket - 1]) if bucket else 0
        earlier_collected = sum(int(counts[x]) for x in tb if x < bucket)
        rank_in_collected = r - before_bucket + earlier_collected
        idx = int(np.searchsorted(vcum, rank_in_collected))
        out[label] = svals[idx]              # native value, no float cast
    return n, out


def stratified_sample(ds, key: str, fractions: dict, id_column: str,
                      default: float = 1.0):
    """Deterministic per-key downsampling (training-data mixing: cap the
    Zipf-head languages, keep the tail). A row survives iff
    ``hash32(id) / 2^32 < fractions.get(key, default)`` with hash32 =
    Knuth multiplicative on the id — a pure function of the row, so the
    sample is reproducible, shuffle-free, map-only, and SQL-expressible
    (the correctness oracle re-evaluates the same arithmetic)."""
    keys = list(fractions.keys())
    fracs = np.asarray([float(fractions[k]) for k in keys])

    def pick(batch: pa.Table) -> pa.Table:
        # null ids: the SQL-equivalent arithmetic yields NULL and the WHERE
        # drops the row — mirror that (and avoid NaN->uint64 UB)
        batch = batch.filter(pc.is_valid(batch.column(id_column)))
        ids = batch.column(id_column).combine_chunks().cast(pa.int64()) \
            .to_numpy(zero_copy_only=False).astype(np.uint64)
        u = ((ids * np.uint64(2654435761)) % np.uint64(1 << 32)) / float(1 << 32)
        thresh = np.full(len(ids), default)
        if keys:
            ords = pc.index_in(batch.column(key),
                               value_set=pa.array(keys))
            ov = ords.to_numpy(zero_copy_only=False)
            valid = ~np.isnan(ov) if ov.dtype.kind == "f" else ov != None  # noqa: E711
            thresh[valid] = fracs[ov[valid].astype(np.int64)]
        return batch.filter(pa.array(u < thresh))

    return map_batches(ds, pick)


def top_k(ds, column: str, k: int = 10, descending: bool = True) -> pa.Table:
    """Global top-k rows by a column: local top-k per block, driver merge.
    No global sort / shuffle. The merge collects per-block ARROW tables
    (<= k rows each, O(k·blocks) driver memory) rather than boxed Python
    rows, so column types — and the schema of an EMPTY result — survive
    exactly."""
    import ray

    def local(batch: pa.Table) -> pa.Table:
        order = "descending" if descending else "ascending"
        idx = pc.array_sort_indices(batch.column(column).combine_chunks(),
                                    order=order)
        return batch.take(idx[: min(k, batch.num_rows)])

    refs = map_batches(ds, local).to_arrow_refs()
    tables = [tb for tb in ray.get(refs) if tb.num_columns]
    if not tables:
        # blocks that went empty mid-chain come back zero-column (Ray
        # emits a schema-less canonical empty block between fused maps);
        # recover the schema from the dataset when it is statically known
        try:
            sch = ds.schema(fetch_if_missing=False)
            if sch is not None:
                return pa.schema(list(zip(sch.names, sch.types))) \
                    .empty_table()
        except Exception:
            pass
        return pa.table({})
    t = pa.concat_tables(tables, promote_options="default").combine_chunks()
    if t.num_rows == 0:
        return t
    idx = pc.array_sort_indices(
        t.column(column).combine_chunks(),
        order="descending" if descending else "ascending")
    return t.take(idx[:k])


def sample_key_stats(ds, key: str, sample_rows: int = 10_000,
                     seed: int = 11) -> dict:
    """One scattered sample pass -> {fractions: {key: frac}, total_rows,
    mean_row_bytes} — shared input for hot-key detection AND size-based
    salt sizing (one pass, two consumers)."""
    total = ds.count()
    if not total:
        return {"fractions": {}, "total_rows": 0, "mean_row_bytes": 0.0}
    frac = min(1.0, sample_rows / total)
    sampled = ds.random_sample(frac, seed=seed) if frac < 1.0 else ds
    rows = sampled.take(sample_rows)
    if not rows:
        return {"fractions": {}, "total_rows": total, "mean_row_bytes": 0.0}
    t = pa.Table.from_pylist(rows)
    counts = pa.table({"v": t.column(key)}).group_by("v").aggregate([("v", "count")])
    fractions = {r["v"]: r["v_count"] / t.num_rows for r in counts.to_pylist()}
    return {"fractions": fractions, "total_rows": total,
            "mean_row_bytes": t.nbytes / t.num_rows}


def salt_counts_for_target(stats: dict, target_bytes: int,
                           hot_frac: float = 0.05, min_hot_salt: int = 1,
                           max_salt: int = 4096) -> dict:
    """Per-key salt counts so each (key, salt) group's ESTIMATED bytes land
    under target_bytes (VERDICT r1: a fixed salt_n still puts ~7.5% of a
    60%-hot corpus in one worker; the salt must scale with the key's mass)."""
    import math

    est_total = stats["mean_row_bytes"] * stats["total_rows"]
    out = {}
    for k, f in stats["fractions"].items():
        n = math.ceil(f * est_total / max(target_bytes, 1))
        if f >= hot_frac:
            n = max(n, min_hot_salt)
        if n > 1:
            out[k] = min(n, max_salt)
    return out


def detect_hot_keys(ds, key: str, sample_rows: int = 10_000,
                    hot_frac: float = 0.05, seed: int = 11) -> list:
    """Hot-key detection on a SCATTERED random sample — ``ds.limit`` reads
    only the first blocks, which on a sorted/clustered 100 TB input sees a
    single key range and misses every other region's hot keys (VERDICT r1).
    ``random_sample`` touches every block at ~sample_rows/total rate
    instead; the per-key frequency estimate is unbiased under reordering."""
    total = ds.count()
    if not total:
        return []
    frac = min(1.0, sample_rows / total)
    sampled = ds.select_columns([key])
    if frac < 1.0:
        sampled = sampled.random_sample(frac, seed=seed)
    rows = sampled.take(sample_rows)
    if not rows:
        return []
    vals = pa.array([r[key] for r in rows])
    counts = pa.table({"v": vals}).group_by("v").aggregate([("v", "count")])
    n = len(rows)
    return [r["v"] for r in counts.to_pylist() if r["v_count"] / n >= hot_frac]


def salted_key(ds, key: str, hot_keys: list = (), salt_n: int = 8,
               out_column: str = "__salted",
               salt_counts: Optional[dict] = None):
    """Append a shuffle key column: cold keys -> "<key>#0", hot keys ->
    "<key>#<deterministic 0..n-1>" so no single reducer drowns.

    ``salt_counts`` (from :func:`salt_counts_for_target`) gives a PER-KEY
    salt count sized to the key's estimated byte mass; without it every key
    in ``hot_keys`` gets the fixed ``salt_n``."""
    import numpy as np

    if salt_counts:
        keys = list(salt_counts.keys())
        counts = np.asarray([int(salt_counts[k]) for k in keys], dtype=np.int64)
    else:
        keys = list(hot_keys)
        counts = np.full(len(keys), salt_n, dtype=np.int64)

    def add(batch: pa.Table) -> pa.Table:
        # vectorized: index_in + elementwise string join, no row loop and
        # no per-batch ray.get (the small key list travels in the closure)
        col = batch.column(key).combine_chunks()
        s = col.cast(pa.string()) if not pa.types.is_string(col.type) else col
        n = len(col)
        per_row = np.ones(n, dtype=np.int64)
        if keys:
            ords = pc.index_in(col, value_set=pa.array(keys, type=col.type))
            ov = ords.to_numpy(zero_copy_only=False)
            valid = ~np.isnan(ov) if ov.dtype.kind == "f" else ov != None  # noqa: E711
            per_row[valid] = counts[ov[valid].astype(np.int64)]
        salts = np.arange(n, dtype=np.int64) % per_row
        out = pc.binary_join_element_wise(
            pc.fill_null(s, "null"), pa.array(salts.astype(str)), "#")
        return batch.append_column(out_column, out)

    return map_batches(ds, add)


def add_url_host(ds, url_column: str = "url", out_column: str = "host"):
    """Vectorized url -> host column (the hot-url-prefix partition key,
    SURVEY.md §7.2.4): `pc.extract_regex` over the whole batch."""

    def extract(batch: pa.Table) -> pa.Table:
        m = pc.extract_regex(batch.column(url_column).combine_chunks(),
                             pattern=r"^[a-z]+://(?P<host>[^/]+)")
        host = pc.struct_field(m, "host")
        return batch.append_column(out_column, host)

    return map_batches(ds, extract)


_UNIT_US = {"s": 1_000_000, "m": 60_000_000, "h": 3_600_000_000,
            "d": 86_400_000_000}


def duration_us(spec: str) -> int:
    """'90s' / '30m' / '2h' / '1d' -> microseconds."""
    import re as _re

    m = _re.fullmatch(r"(\d+)([smhd])", spec)
    if not m:
        raise ValueError(f"bad duration {spec!r} (want e.g. '30m', '1h')")
    return int(m.group(1)) * _UNIT_US[m.group(2)]





def tumbling_window_aggregate(ds, ts_column: str, window: str = "1h",
                              keys: Sequence[str] = (),
                              sum_cols: Sequence[str] = (),
                              count_name: str = "n"):
    """Tumbling-window aggregate over an event-time column: the window start
    is computed inside map_batches (pure truncation, no state/watermarks —
    batch semantics over closed data), then the grouped-aggregate path runs
    with (window, *keys) as the shuffle key. Returns window starts as
    timestamp[us] column ``window_start``."""
    span = duration_us(window) if isinstance(window, str) else int(window)

    def add_window(batch: pa.Table) -> pa.Table:
        # a null event time belongs to no window: drop (mirrors
        # sliding_window_aggregate/sessionize); without this the int64
        # view goes float64-with-NaN and the timestamp cast crashes
        col = batch.column(ts_column)
        if col.null_count:
            batch = batch.filter(pc.is_valid(col))
        ts = batch.column(ts_column).combine_chunks().cast(pa.int64())
        import numpy as np
        v = ts.to_numpy(zero_copy_only=False)
        start = (v // span) * span
        return batch.append_column(
            "window_start", pa.array(start).cast(pa.timestamp("us")))

    with_w = map_batches(ds, add_window)
    return grouped_aggregate(with_w, ["window_start", *keys],
                             sum_cols=sum_cols, count_name=count_name)


def sort_within_partitions(ds, keys: Sequence[str]):
    """Per-block sort (cheap, no shuffle) — e.g. sort by `lang` before the
    dict+RLE encode so runs materialize (SURVEY.md §7.2.4)."""
    keys = list(keys)

    def local_sort(batch: pa.Table) -> pa.Table:
        return batch.sort_by([(k, "ascending") for k in keys])

    return map_batches(ds, local_sort)


def prefix_sum(ds, order_by: str, value_col: str, out_col: str = "cumsum",
               *, exclusive: bool = False, presorted: bool = False):
    """Global running sum of ``value_col`` in ``order_by`` order — the
    distributed prefix scan (SQL ``sum(v) OVER (ORDER BY k)``; with
    ``exclusive=True`` the ``ROWS BETWEEN UNBOUNDED PRECEDING AND 1
    PRECEDING`` variant, 0 for the first row). NULL values count as 0,
    matching SQL ``sum``'s null-skipping.

    Scale shape: one global sort (the unavoidable all-to-all; skipped with
    ``presorted=True``), then ONE map-only partials pass whose output is a
    single fixed-width row per block (block min key + block total) —
    O(blocks), collected to the driver — and ONE map-only pass that adds
    the broadcast block offset to a vectorized within-block cumsum. Both
    passes run with ``batch_size=None`` over the SAME materialized sorted
    dataset, so batches are exactly the sorted blocks and the offset
    lookup (keyed by the block's first key) is exact. Duplicate keys
    *within* a block are fine; a run of equal keys straddling a block
    boundary would make two blocks share a min key and is rejected — pass
    a unique (tiebroken) ``order_by`` key.
    """
    import ray

    sorted_ds = (ds if presorted else ds.sort(order_by)).materialize()
    sch = sorted_ds.schema()
    is_int = pa.types.is_integer(
        dict(zip(sch.names, sch.types))[value_col])
    np_t = np.int64 if is_int else np.float64

    def block_stat(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"k": batch.column(order_by).combine_chunks(),
                             "total": pa.array([], type=(
                                 pa.int64() if is_int else pa.float64()))})
        v = pc.fill_null(batch.column(value_col), 0).combine_chunks(
        ).to_numpy(zero_copy_only=False).astype(np_t)
        return pa.table({"k": batch.column(order_by).slice(0, 1),
                         "total": pa.array([v.sum()], type=(
                             pa.int64() if is_int else pa.float64()))})

    parts = sorted(
        ((r["k"], r["total"]) for r in
         map_batches(sorted_ds, block_stat, batch_size=None).take_all()),
        key=lambda kv: (kv[0] is None, kv[0]))
    if len({k for k, _ in parts}) != len(parts):
        raise ValueError(
            "prefix_sum: two sorted blocks share a min key (an equal-key "
            f"run straddles a block boundary in {order_by!r}); use a "
            "unique tiebroken order key")
    offsets, acc = {}, np_t(0)
    for k, total in parts:
        offsets[k] = acc
        acc += np_t(total)
    ref = ray.put(offsets)

    def add_scan(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column(out_col, pa.array(
                [], type=pa.int64() if is_int else pa.float64()))
        off = ray.get(ref)[batch.column(order_by)[0].as_py()]
        v = pc.fill_null(batch.column(value_col), 0).combine_chunks(
        ).to_numpy(zero_copy_only=False).astype(np_t)
        c = np.cumsum(v) + off
        if exclusive:
            c -= v
        return batch.append_column(out_col, pa.array(c))

    return map_batches(sorted_ds, add_scan, batch_size=None)


def splitmix64(x: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorized splitmix64 of ``x ^ seed`` (uint64 in/out) — the
    public-domain Steele et al. generator; used as the deterministic
    shuffle key. Wraparound is intended."""
    with np.errstate(over="ignore"):
        z = (x.astype(np.uint64) ^ np.uint64(seed)) \
            + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def zorder_key(ds, columns, bits: int = 16, *, zcol: str = "__z",
               stats: Optional[dict] = None):
    """Append a Morton (Z-order) key interleaving ``bits``-bit
    quantizations of the named INTEGER columns — the multi-dimensional
    clustering key Delta/Iceberg ``ZORDER BY`` uses so a later sort
    co-locates rows close in EVERY named dimension and min/max zone maps
    prune on all of them at once (one sorted dimension prunes one).

    Quantization is exact integer arithmetic so a SQL twin reproduces the
    key bit-for-bit: ``q = (v - min) * (2^bits - 1) // (max - min)``
    (constant columns -> bucket 0; NULLs read as the column min ->
    bucket 0). ``bits * len(columns)`` must stay <= 62 (int64 key).
    ``stats`` can inject precomputed {col: (min, max)}; otherwise ONE
    aggregate pass collects them. Returns the Dataset with ``zcol``
    (int64) appended."""
    from ray.data.aggregate import Max, Min

    cols = [columns] if isinstance(columns, str) else list(columns)
    k = len(cols)
    if bits * k > 62:
        raise ValueError(f"zorder_key: {bits} bits x {k} columns "
                         "exceeds the 62-bit int64 key budget")
    m = (1 << bits) - 1
    if stats is None:
        aggs = [a for c in cols for a in (Min(c), Max(c))]
        got = ds.aggregate(*aggs)
        stats = {c: (got[f"min({c})"], got[f"max({c})"]) for c in cols}

    def add_z(batch: pa.Table) -> pa.Table:
        z = np.zeros(batch.num_rows, dtype=np.uint64)
        for j, c in enumerate(cols):
            mn, mx = stats[c]
            v = pc.fill_null(batch.column(c).combine_chunks(), mn) \
                .cast(pa.int64()).to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            if mx > mn:
                q = ((v - mn) * m // (mx - mn)).astype(np.uint64)
            else:
                q = np.zeros(batch.num_rows, dtype=np.uint64)
            for i in range(bits):
                z |= ((q >> np.uint64(i)) & np.uint64(1)) \
                    << np.uint64(i * k + j)
        return batch.append_column(zcol, pa.array(z.astype(np.int64)))

    return map_batches(ds, add_z)


def zorder_sort(ds, columns, id_column: str, bits: int = 16, *,
                rank_col: Optional[str] = None):
    """Z-order clustering: :func:`zorder_key` + ONE global range sort on
    the interleaved key (the unavoidable all-to-all any reclustering
    pays), tiebroken by ``id_column`` for a total deterministic order.
    With ``rank_col`` the output also carries the row's position
    (``row_number() OVER (ORDER BY z, id) - 1``) via the O(blocks)
    :func:`prefix_sum` offset pass — no second shuffle.

    Feeding the result to the container encoder makes every named
    dimension's chunk min/max ranges narrow, so
    ``decode_dataset(predicate=...)`` zone-map pruning skips chunks for
    predicates on ANY of the z-ordered columns, not just a single sort
    key."""
    keyed = zorder_key(ds, columns, bits)

    def add_pk(batch: pa.Table) -> pa.Table:
        # fixed-width sortable (z, id) composite, fully vectorized; ids
        # must be non-negative for the zero-pad order to hold
        z = batch.column("__z").combine_chunks()
        ids = pc.fill_null(batch.column(id_column), 0).combine_chunks() \
            .cast(pa.int64())
        key = pc.binary_join_element_wise(
            pc.utf8_lpad(pc.cast(z, pa.string()), 19, padding="0"),
            pc.utf8_lpad(pc.cast(ids, pa.string()), 20, padding="0"),
            ".")
        one = pa.array(np.ones(batch.num_rows, dtype=np.int64))
        return batch.append_column("__pk", key).append_column("__one", one)

    if rank_col is None:
        return map_batches(
            keyed.sort(["__z", id_column]), lambda t: t.drop_columns(["__z"]))
    scanned = prefix_sum(map_batches(keyed, add_pk),
                         "__pk", "__one", out_col=rank_col,
                         exclusive=True)
    return map_batches(
        scanned, lambda t: t.drop_columns(["__z", "__pk", "__one"]))


def global_shuffle(ds, id_column: str, seed: int = 0, *,
                   rank_col: str = "rank"):
    """Deterministic global shuffle for training-data ordering: every row
    gets ``rank_col`` = its position under the pseudo-random permutation
    ``splitmix64(id ^ seed)``, and the output is sorted in that order.
    Reshuffling between epochs is just a new ``seed``; the permutation is
    reproducible across runs/cluster sizes (unlike ``random_shuffle``,
    which is neither seeded-stable across executions nor rank-labeled).

    Scale shape: one map-only pass adds the 8-byte key, one range-sort
    moves the rows (the unavoidable all-to-all any true shuffle pays),
    and the rank comes from :func:`prefix_sum`'s O(blocks) offset pass —
    no second shuffle. Key collisions are ~n^2/2^65 and would only
    trip the prefix-scan's boundary guard, never silently misorder."""

    def add_key(batch: pa.Table) -> pa.Table:
        col = batch.column(id_column)
        if col.null_count:
            # a shuffle must not silently drop rows, and a null id has no
            # key: one null would also force the whole batch's ids through
            # float64, collapsing distinct ids > 2^53 to equal keys
            raise ValueError(
                f"global_shuffle: {id_column!r} contains nulls; every row "
                "needs a non-null id to receive a deterministic rank")
        ids = col.combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False).astype(np.uint64)  # negatives wrap
        k = splitmix64(ids, seed)
        one = np.ones(len(k), dtype=np.int64)
        return batch.append_column("__shufkey", pa.array(k)) \
                    .append_column("__one", pa.array(one))

    keyed = map_batches(ds, add_key)
    ranked = prefix_sum(keyed, "__shufkey", "__one", out_col=rank_col,
                        exclusive=True)
    return map_batches(
        ranked, lambda b: b.drop_columns(["__shufkey", "__one"]))


def uniform_sample_k(ds, id_column: str, k: int, seed: int = 0) -> pa.Table:
    """Exact-k deterministic uniform sample: the ``k`` rows whose
    ``splitmix64(id ^ seed)`` is smallest. splitmix64 is a bijection on
    uint64, so for distinct ids the order is total (no ties) and the draw
    is uniform over the corpus; a new ``seed`` is a fresh independent
    sample, reproducible across runs and cluster sizes (unlike
    ``Dataset.random_sample``, which is per-execution and fraction-based,
    never exactly k).

    Scale shape: one map-only key pass + per-block local top-k +
    O(k·blocks) driver merge (the :func:`top_k` machinery) — no shuffle,
    no global sort. Null ids are dropped (the SQL-equivalent hash
    arithmetic yields NULL)."""

    def add_key(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch.column(id_column)))
        ids = batch.column(id_column).combine_chunks().cast(pa.int64()) \
            .to_numpy(zero_copy_only=False).astype(np.uint64)
        # sign-bit flip: unsigned order as int64 (top_k's driver merge
        # round-trips rows through Python ints, which can't hold uint64)
        key = (splitmix64(ids, seed) ^ np.uint64(1 << 63)).astype(np.int64)
        return batch.append_column("__uk", pa.array(key))

    t = top_k(map_batches(ds, add_key),
              "__uk", k=k, descending=False)
    if "__uk" in t.column_names:
        return t.drop_columns(["__uk"])
    if t.num_columns == 0:
        # every block went empty (all ids null): Ray's fused-map empty
        # blocks are schema-less — rebuild from the INPUT's known schema
        sch = ds.schema()
        if sch is not None:
            return pa.schema(list(zip(sch.names, sch.types))).empty_table()
    return t


def weighted_sample_k(ds, id_column: str, weight_column: str, k: int,
                      seed: int = 0) -> pa.Table:
    """Exact-k deterministic WEIGHTED sample without replacement
    (Efraimidis & Spirakis 2006, the A-ES one-pass scheme): each row
    draws ``u = (splitmix64(id ^ seed) + 0.5) / 2^64`` and the ``k`` rows
    with the largest ``u^(1/w)`` — equivalently the SMALLEST
    ``-ln(u) / w`` — win, so inclusion probability scales with the
    weight while staying a pure, SQL-recomputable function of
    ``(id, weight, seed)``.  The upweighted-domain / importance-mixing
    draw (sample 1M docs biased by length or quality score).

    Rows with a null id, null weight, or weight <= 0 are dropped (the
    exponential key is undefined there; the oracle mirrors with
    ``WHERE w > 0``).  Scale shape: identical to :func:`uniform_sample_k`
    — one map-only key pass + per-block local top-k + O(k·blocks) driver
    merge; no shuffle, no global sort."""

    def add_key(batch: pa.Table) -> pa.Table:
        w = pc.cast(batch.column(weight_column), pa.float64())
        batch = batch.filter(
            pc.and_(pc.is_valid(batch.column(id_column)),
                    pc.fill_null(pc.greater(w, 0.0), False)))
        ids = batch.column(id_column).combine_chunks().cast(pa.int64()) \
            .to_numpy(zero_copy_only=False).astype(np.uint64)
        wv = pc.cast(batch.column(weight_column),
                     pa.float64()).combine_chunks().to_numpy(
            zero_copy_only=False)
        # +0.5 keeps u in (0, 1): splitmix64 can emit 0, and ln(0) = -inf
        # would tie every zero-draw row regardless of weight
        u = (splitmix64(ids, seed).astype(np.float64) + 0.5) / 2.0 ** 64
        return batch.append_column("__wk", pa.array(-np.log(u) / wv))

    t = top_k(map_batches(ds, add_key),
              "__wk", k=k, descending=False)
    if "__wk" in t.column_names:
        return t.drop_columns(["__wk"])
    if t.num_columns == 0:
        sch = ds.schema()
        if sch is not None:
            return pa.schema(list(zip(sch.names, sch.types))).empty_table()
    return t


def grouped_sample_k(ds, key, k: int, id_column: str, seed: int = 0):
    """Exact-k-per-group deterministic uniform sample: within each ``key``
    group, the ``k`` rows with smallest ``splitmix64(id ^ seed)`` (a
    bijection on uint64, so the per-group draw is uniform, tie-free for
    distinct ids, and reproducible across runs / cluster sizes) — the
    balanced-eval-set / per-domain-inspection draw.

    Scale shape: one map-only key pass, then :func:`grouped_top_k`'s
    two-level selection — each block pre-selects at most k rows per key it
    sees, so the ONE keyed shuffle ships <= k·blocks rows per key, never a
    group's full membership. Null ids are dropped (the SQL-equivalent hash
    arithmetic yields NULL); null group keys form their own group, as in
    SQL GROUP BY."""

    def add_key(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch.column(id_column)))
        ids = batch.column(id_column).combine_chunks().cast(pa.int64()) \
            .to_numpy(zero_copy_only=False).astype(np.uint64)
        kv = (splitmix64(ids, seed) ^ np.uint64(1 << 63)).astype(np.int64)
        return batch.append_column("__gk", pa.array(kv))

    out = grouped_top_k(map_batches(ds, add_key),
                        key, "__gk", k=k, descending=False)
    return map_batches(out, lambda b: b.drop_columns(["__gk"]))


def curriculum_order(ds, score_col: str, id_column: str, *,
                     n_buckets: int = 4, seed: int = 0,
                     bucket_col: str = "bucket",
                     key_col: str = "order_key"):
    """Curriculum data-ordering layout: append a difficulty tier
    (``bucket_col`` = how many exact score-quantile boundaries lie
    strictly below the row's score — easy tiers first when streamed in
    bucket order) and a deterministic in-tier shuffle key (``key_col`` =
    splitmix64(id ^ seed) as signed int64). Consumers stream the corpus
    ordered by ``(bucket, key)``: coarsely easiest-to-hardest, uniformly
    shuffled within each tier — the standard curriculum schedule, fully
    reproducible across runs and cluster sizes.

    Scale shape: the exact-quantile locate (two streaming passes, no
    global sort) pins the n_buckets-1 boundary values, then ONE map-only
    tag pass; the actual ordering is the consumer's range sort (or
    :func:`global_shuffle`'s rank machinery applied per tier). Rows with
    null score or id are dropped (SQL comparison/hash semantics)."""
    if n_buckets < 1:
        raise ValueError("n_buckets must be >= 1")
    qs = [i / n_buckets for i in range(1, n_buckets)]
    bnds = exact_quantiles(ds, score_col, qs) if qs else {}
    b = np.asarray([bnds[q] for q in qs], dtype=np.float64)

    def tag(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(
            pc.is_valid(batch.column(score_col)),
            pc.is_valid(batch.column(id_column))))
        s = batch.column(score_col).combine_chunks().cast(pa.float64()) \
            .to_numpy(zero_copy_only=False)
        ids = batch.column(id_column).combine_chunks().cast(pa.int64()) \
            .to_numpy(zero_copy_only=False).astype(np.uint64)
        bucket = np.searchsorted(b, s, side="left").astype(np.int64)
        key = splitmix64(ids, seed).astype(np.int64)
        return batch.append_column(bucket_col, pa.array(bucket)) \
                    .append_column(key_col, pa.array(key))

    return map_batches(ds, tag)


def assign_splits(ds, id_column: str, fractions: dict, *, seed: int = 0,
                  out_column: str = "split"):
    """Deterministic train/val/test assignment: append ``out_column`` =
    the split whose cumulative [lo, hi) range contains
    ``u = splitmix64(id ^ seed) / 2^64`` — a pure map-only function of the
    row id, so the same document lands in the same split on every run,
    every cluster size, and every corpus refresh (the property random
    splits lose on re-shuffles; leakage-free as long as ids are stable).
    ``fractions`` maps split name -> mass in insertion order; they must
    sum to ~1 (±1e-9). Null ids get a null split.

    Scale shape: no shuffle, no stats pass — one vectorized np.searchsorted
    per batch against the cumulative thresholds."""
    names = list(fractions)
    fracs = np.asarray([float(fractions[n]) for n in names])
    if (fracs < 0).any() or abs(fracs.sum() - 1.0) > 1e-9:
        raise ValueError("fractions must be non-negative and sum to 1")
    cum = np.cumsum(fracs)
    cum[-1] = 1.0 + 1e-12     # u < 1 always lands in the last split

    def tag(batch: pa.Table) -> pa.Table:
        col = batch.column(id_column).combine_chunks()
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        ids = pc.fill_null(col.cast(pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.uint64)
        u = splitmix64(ids, seed).astype(np.float64) / 18446744073709551616.0
        idx = np.searchsorted(cum, u, side="right")
        tags = pa.array(names, type=pa.string()).take(
            pa.array(idx, type=pa.int64()))
        out = pc.if_else(pa.array(valid), tags,
                         pa.scalar(None, pa.string()))
        return batch.append_column(out_column, out)

    return map_batches(ds, tag)


def mixture_sample(ds, key: str, weights: dict, n_target: int,
                   id_column: str, *, default_weight: float = 0.0):
    """Deterministic domain-mixing sampler: draw ~``n_target`` rows whose
    ``key`` composition approaches the target ``weights`` (the data-mixing
    step of training-corpus assembly: e.g. 60% web, 30% code, 10% books).
    Exact per-key counts come from one combiner-shrunk
    :func:`grouped_aggregate`; each key then gets the Bernoulli rate
    ``min(1, n_target·w_key / count_key)`` applied by the shuffle-free
    :func:`stratified_sample` hash — a pure function of the row, so the
    sample is reproducible and SQL-recomputable. Keys absent from
    ``weights`` get ``default_weight``. A key with fewer rows than its
    target allocation saturates at rate 1 (take everything); no other key
    compensates — by design, so rates stay independent per key. Null-key
    rows are dropped (no weight can name them).

    Returns ``(sampled_dataset, fractions_dict)``. Scale shape: one keyed
    count shuffle over (key, count) partials + one map-only filter pass;
    the rows themselves never shuffle."""
    counts = {r[key]: r["n"]
              for r in grouped_aggregate(ds, [key],
                                         count_name="n").take_all()}
    fracs = {kk: min(1.0, float(n_target) * weights.get(kk, default_weight)
                     / c)
             for kk, c in counts.items() if kk is not None and c}
    return stratified_sample(ds, key, fracs, id_column, default=0.0), fracs


def quantile_band_filter(ds, column: str, lo: float = 0.25,
                         hi: float = 0.75, *, interpolated: bool = False):
    """Keep the rows whose ``column`` lies within the corpus's exact
    [``lo``, ``hi``] quantile band — middle-quality selection (drop the
    spam tail AND the boilerplate head of a quality score, the CCNet
    perplexity-bucket trick). Two streaming passes: the exact distributed
    quantile locate (:func:`exact_quantiles` — histogram + bucket read,
    no global sort) pins the two boundary values, then a map-only
    vectorized BETWEEN filter. Null values never pass (SQL BETWEEN
    semantics)."""
    f = exact_quantiles_cont if interpolated else exact_quantiles
    qs = f(ds, column, sorted({lo, hi}))
    vlo, vhi = qs[lo], qs[hi]

    def keep(batch: pa.Table) -> pa.Table:
        c = batch.column(column)
        return batch.filter(pc.and_(pc.greater_equal(c, pa.scalar(vlo)),
                                    pc.less_equal(c, pa.scalar(vhi))))

    return map_batches(ds, keep)


def value_histogram(ds, column: str, lo: float, hi: float,
                    bins: int) -> pa.Table:
    """Fixed-bin corpus profile of ``column``: counts per half-open bin
    ``[lo + i*w, lo + (i+1)*w)`` with ``w = (hi - lo) / bins``; values
    outside ``[lo, hi)`` and nulls are dropped (mirror the SQL WHERE).
    ONE map pass producing a fixed ``bins``-long count vector per block,
    driver (or tree) sum — no shuffle, no sort; the length/token/score
    distribution snapshot every corpus report needs. Empty bins are
    emitted with n=0 so the output shape is always ``bins`` rows.

    Bin assignment is ``floor((x - lo) / w)`` in float64, bit-identical to
    the SQL recompute."""
    if bins < 1 or not hi > lo:
        raise ValueError("need bins >= 1 and hi > lo")
    w = (hi - lo) / bins

    def partial(t: pa.Table) -> pa.Table:
        v = t.column(column).combine_chunks().cast(pa.float64()) \
            .drop_null().to_numpy(zero_copy_only=False)
        v = v[(v >= lo) & (v < hi)]
        idx = np.floor((v - lo) / w).astype(np.int64)
        # float roundoff at the top edge can yield bins; clip (x < hi held)
        counts = np.bincount(np.minimum(idx, bins - 1), minlength=bins)
        return pa.table({"counts": pa.array([counts.astype(np.int64)
                                             .tobytes()],
                                            type=pa.binary())})

    rows = map_batches(ds, partial).take_all()
    total = np.zeros(bins, dtype=np.int64)
    for r in rows:
        total += np.frombuffer(r["counts"], dtype=np.int64)
    return pa.table({
        "bin": pa.array(np.arange(bins, dtype=np.int64)),
        "lo": pa.array(lo + np.arange(bins, dtype=np.float64) * w),
        "n": pa.array(total)})


def column_moments(ds, column: str) -> dict:
    """ONE streaming pass over ``column``: exact n (non-null), sum, sum of
    squares, min, max — fixed 5-number partials per block, driver sum/min/
    max merge (the tree-reduce payload on a real cluster). The basis for
    :func:`normalize_column` and any threshold that needs global moments
    without a shuffle."""

    def partial(t: pa.Table) -> pa.Table:
        v = t.column(column).combine_chunks().cast(pa.float64())
        v = v.drop_null()
        if len(v) == 0:
            return pa.table({"n": pa.array([0], type=pa.int64()),
                             "sx": pa.array([0.0]), "sxx": pa.array([0.0]),
                             "mn": pa.array([None], type=pa.float64()),
                             "mx": pa.array([None], type=pa.float64())})
        a = v.to_numpy(zero_copy_only=False)
        return pa.table({"n": pa.array([len(a)], type=pa.int64()),
                         "sx": pa.array([float(a.sum())]),
                         "sxx": pa.array([float((a * a).sum())]),
                         "mn": pa.array([float(a.min())]),
                         "mx": pa.array([float(a.max())])})

    rows = map_batches(ds, partial).take_all()
    n = sum(r["n"] for r in rows)
    sx = sum(r["sx"] for r in rows)
    sxx = sum(r["sxx"] for r in rows)
    mns = [r["mn"] for r in rows if r["mn"] is not None]
    mxs = [r["mx"] for r in rows if r["mx"] is not None]
    mean = sx / n if n else None
    var = (sxx - sx * sx / n) / (n - 1) if n > 1 else None
    return {"n": n, "mean": mean,
            "std": float(np.sqrt(max(var, 0.0))) if var is not None
            else None,
            "min": min(mns) if mns else None,
            "max": max(mxs) if mxs else None}


def normalize_column(ds, column: str, *, method: str = "zscore",
                     out_column: Optional[str] = None):
    """Feature scaling for model inputs: append ``out_column`` (default
    ``<column>_norm``) = z-score ``(x - mean) / stddev_samp``, min-max
    ``(x - min) / (max - min)``, or robust ``(x - median) / IQR`` using
    EXACT global statistics (one streaming :func:`column_moments` pass, or
    the two-pass :func:`exact_quantiles` locate for robust), then a
    map-only vectorized transform — no shuffle anywhere. Nulls propagate;
    a constant column (zero std / range / IQR) yields null scores (SQL
    x/0 = NULL semantics)."""
    if method not in ("zscore", "minmax", "robust"):
        raise ValueError(f"unknown method {method!r}")
    out = out_column or f"{column}_norm"
    if method == "robust":
        q = exact_quantiles(ds, column, [0.25, 0.5, 0.75])
        base = q[0.5]
        scale = (q[0.75] - q[0.25]) if q[0.75] is not None else None
    else:
        m = column_moments(ds, column)
        if method == "zscore":
            base, scale = m["mean"], m["std"]
        else:
            base = m["min"]
            scale = (m["max"] - m["min"]) if m["max"] is not None else None

    def xf(t: pa.Table) -> pa.Table:
        v = t.column(column).combine_chunks().cast(pa.float64())
        if base is None or not scale:
            z = pa.array([None] * len(v), type=pa.float64())
        else:
            z = pc.divide(pc.subtract(v, pa.scalar(float(base))),
                          pa.scalar(float(scale)))
        return t.append_column(out, z)

    return map_batches(ds, xf)


def winsorize(ds, column: str, lo: float = 0.05, hi: float = 0.95, *,
              out_column: Optional[str] = None):
    """Outlier clamping for model features: append ``out_column`` (default
    ``<column>_wins``) = ``least(greatest(x, q_lo), q_hi)`` where the
    bounds are EXACT global quantiles (``quantile_disc`` semantics) from
    the shared two-pass :func:`exact_quantiles` locate — then a map-only
    vectorized clamp; no shuffle anywhere. Nulls propagate. ``lo``/``hi``
    are quantile fractions; ``lo=0`` / ``hi=1`` clamp at min/max (a
    no-op) and the pair must satisfy ``0 <= lo <= hi <= 1``."""
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError(f"need 0 <= lo <= hi <= 1, got ({lo}, {hi})")
    out = out_column or f"{column}_wins"
    q = exact_quantiles(ds, column, [lo, hi])
    vlo, vhi = q[lo], q[hi]

    def clamp(t: pa.Table) -> pa.Table:
        v = t.column(column).combine_chunks().cast(pa.float64())
        if vlo is None:                 # all-null column
            z = pa.array([None] * len(v), type=pa.float64())
        else:
            # skip_nulls=False: Arrow's element-wise min/max otherwise
            # SUBSTITUTES the bound for a null input; nulls must propagate
            z = pc.min_element_wise(
                pc.max_element_wise(v, pa.scalar(float(vlo)),
                                    skip_nulls=False),
                pa.scalar(float(vhi)), skip_nulls=False)
        return t.append_column(out, z)

    return map_batches(ds, clamp)


def pack_sequences(ds, cost_col: str, id_col: str, seq_len: int, *,
                   bin_col: str = "bin_id", offset_col: str = "bin_offset"):
    """Concat-and-chop sequence-packing layout for LLM training batches:
    documents are (logically) concatenated in ``id_col`` order and chopped
    into fixed ``seq_len``-token windows; each document is labeled with
    the window it STARTS in and its offset there. ``start`` is the
    exclusive :func:`prefix_sum` of ``cost_col`` (a token/char count
    column), so ``bin_id = start // seq_len``, ``offset = start %
    seq_len`` — the exact layout a pack-then-chunk dataloader materializes,
    computed without moving any text. One sort + two map-only passes."""
    if seq_len <= 0:
        raise ValueError("seq_len must be positive")
    with_start = prefix_sum(ds, id_col, cost_col, out_col="__start",
                            exclusive=True)

    def to_bins(batch: pa.Table) -> pa.Table:
        s = batch.column("__start").combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        batch = batch.drop_columns(["__start"])
        return batch.append_column(
            bin_col, pa.array(s // seq_len)).append_column(
            offset_col, pa.array(s % seq_len))

    return map_batches(with_start, to_bins)


def grouped_quantiles(ds, by, column: str, qs: dict[str, float]):
    """EXACT per-group order statistics (SQL ``quantile_disc`` /
    ``PERCENTILE_DISC`` semantics: the ceil(q*n)-th smallest non-null
    element): ONE ``groupby(by)`` shuffle, one vectorized sort per group.

    ``qs`` maps output column name -> quantile fraction, e.g.
    ``{"p50": 0.5, "p90": 0.9}``; output is the ``by`` keys plus those
    columns, typed like ``column``.

    Scale note: each GROUP's values must fit one worker (the usual
    map_groups contract). For a single giant key — or the global quantile —
    use :func:`exact_quantiles`, whose two-pass histogram never collects
    more than one bucket's values anywhere.
    """
    import math
    from fractions import Fraction

    by_keys = [by] if isinstance(by, str) else list(by)
    # exact decimal rank arithmetic: float 0.9*10 = 9.000000000000002 would
    # off-by-one the rank (same rule as exact_quantiles)
    fracs = {name: Fraction(str(q)) for name, q in qs.items()}

    def apply(group: pa.Table) -> pa.Table:
        col = pc.drop_null(group.column(column).combine_chunks())
        n = len(col)
        cols = {k: group.column(k).slice(0, 1) for k in by_keys}
        if n == 0:
            for name in fracs:
                cols[name] = pa.nulls(1, group.column(column).type)
            return pa.table(cols)
        sv = col.take(pc.sort_indices(col))
        for name, f in fracs.items():
            rank = max(int(math.ceil(f * n)), 1)
            cols[name] = sv.slice(min(rank, n) - 1, 1)
        return pa.table(cols)

    return map_groups(
        ds.select_columns(list(dict.fromkeys(by_keys + [column])))
        .groupby(by_keys if len(by_keys) > 1 else by_keys[0]), apply)


def string_agg(ds, by, column: str, sep: str = ",",
               order_by: Optional[str] = None, out: str = "agg"):
    """SQL ``string_agg(column, sep ORDER BY order_by)`` per group: ONE
    ``groupby(by)`` shuffle; inside each group one vectorized sort plus a
    single ``binary_join`` over a list view of the whole column (no per-row
    Python). Nulls in ``column`` are skipped (SQL semantics); a group of
    only nulls aggregates to null."""
    by_keys = [by] if isinstance(by, str) else list(by)
    need = list(dict.fromkeys(by_keys + [column]
                              + ([order_by] if order_by else [])))

    def apply(group: pa.Table) -> pa.Table:
        g = group
        if order_by:
            g = g.take(pc.sort_indices(g, sort_keys=[(order_by,
                                                      "ascending")]))
        vals = pc.drop_null(g.column(column).combine_chunks())
        if not pa.types.is_string(vals.type) and \
                not pa.types.is_large_string(vals.type):
            vals = vals.cast(pa.string())
        cols = {k: group.column(k).slice(0, 1) for k in by_keys}
        if len(vals) == 0:
            cols[out] = pa.nulls(1, pa.string())
        else:
            lst = pa.ListArray.from_arrays(
                pa.array([0, len(vals)], type=pa.int32()), vals)
            cols[out] = pc.binary_join(lst, sep)
        return pa.table(cols)

    return map_groups(
        ds.select_columns(need)
        .groupby(by_keys if len(by_keys) > 1 else by_keys[0]), apply)


def set_op(left, right, op: str):
    """SQL set operations over whole rows: ``op`` in ``{"union",
    "except", "intersect"}`` (DISTINCT semantics) or ``{"except_all",
    "intersect_all"}`` (bag semantics with SQL multiplicity arithmetic:
    EXCEPT ALL keeps ``max(l - r, 0)`` copies of each row, INTERSECT ALL
    keeps ``min(l, r)``). ``UNION ALL`` needs no shuffle at all — that is
    ``left.union(right)`` directly.

    Right columns are matched to left POSITIONALLY and renamed (SQL rule);
    both sides pre-aggregate per block to (row, side-count) partials, so
    the single all-to-all shuffle ships one row per DISTINCT row per block,
    never the raw corpus — the ALL variants ride the same shuffle because
    the partials already carry the per-side multiplicities. The reduce is
    Ray-native Sum — no per-group Python. NULLs compare equal, as in SQL
    set ops."""
    if op not in ("union", "except", "intersect",
                  "except_all", "intersect_all"):
        raise ValueError(f"unknown set op {op!r}")
    lnames = None

    def tag(side: str):
        def fn(batch: pa.Table) -> pa.Table:
            t = batch
            if side == "r" and lnames is not None \
                    and t.column_names != lnames:
                t = t.rename_columns(lnames)
            g = t.group_by(t.column_names).aggregate([([], "count_all")])
            cnt = g.column("count_all")
            g = g.drop_columns(["count_all"])
            zero = pa.array(np.zeros(g.num_rows, dtype=np.int64))
            return g.append_column("__l", cnt.combine_chunks().cast(
                pa.int64()) if side == "l" else zero) \
                    .append_column("__r", zero if side == "l"
                                   else cnt.combine_chunks().cast(pa.int64()))
        return fn

    lschema = left.schema()
    lnames = list(lschema.names)
    if len(lnames) != len(right.schema().names):
        raise ValueError("set_op sides must have the same column count")
    tagged = map_batches(left, tag("l")).union(
        map_batches(right, tag("r")))

    from ray.data.aggregate import Sum

    merged = (tagged.groupby(lnames if len(lnames) > 1 else lnames[0])
                    .aggregate(Sum("__l"), Sum("__r")))

    def emit(batch: pa.Table):
        l = pc.fill_null(batch.column("sum(__l)"), 0)
        r = pc.fill_null(batch.column("sum(__r)"), 0)
        if op in ("except_all", "intersect_all"):
            # bag semantics: replicate each distinct row by the SQL
            # multiplicity (vectorized np.repeat over take indices). A hot
            # row's multiplicity can exceed worker memory, so the
            # replicated output is YIELDED in bounded slices — the block
            # never materializes whole.
            ln = l.combine_chunks().to_numpy(zero_copy_only=False)
            rn = r.combine_chunks().to_numpy(zero_copy_only=False)
            reps = (np.maximum(ln - rn, 0) if op == "except_all"
                    else np.minimum(ln, rn))
            # per-slice index construction: a global np.repeat would
            # allocate the whole replicated index (8 B x total output
            # rows — a single hot row with multiplicity 1e9 is an 8 GB
            # array) before any slicing. cum is O(block rows); each
            # slice materializes at most cap indices.
            cum = np.concatenate(([0], np.cumsum(reps)))
            total = int(cum[-1])
            src = batch.select(lnames)
            cap = 1 << 20
            for lo in range(0, total, cap):
                hi = min(lo + cap, total)
                idx = np.searchsorted(
                    cum, np.arange(lo, hi, dtype=np.int64), side="right") - 1
                yield src.take(pa.array(idx))
            return
        if op == "union":
            keep = pc.or_(pc.greater(l, 0), pc.greater(r, 0))
        elif op == "except":
            keep = pc.and_(pc.greater(l, 0), pc.equal(r, 0))
        else:
            keep = pc.and_(pc.greater(l, 0), pc.greater(r, 0))
        yield batch.filter(keep).select(lnames)

    return map_batches(merged, emit)


def _group_ranks(t: pa.Table, by_keys: Sequence[str]) -> np.ndarray:
    """0-based rank of each row within its key group, for a table ALREADY
    sorted with ``by_keys`` as the leading sort keys. Vectorized: dictionary
    ordinals per key column, consecutive-difference group starts, one
    ``maximum.accumulate``."""
    n = t.num_rows
    if n == 0:
        return np.empty(0, dtype=np.int64)
    new = np.zeros(n, dtype=bool)
    for c in by_keys:
        # dictionary ordinals make any key type comparable; nulls get a
        # sentinel ordinal so null==null stays one group (SQL PARTITION BY)
        code = pc.dictionary_encode(t.column(c).combine_chunks()).indices
        v = pc.fill_null(code, -1).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        new[1:] |= v[1:] != v[:-1]
    pos = np.arange(n, dtype=np.int64)
    starts = np.where(new, pos, 0)
    starts[0] = 0
    return pos - np.maximum.accumulate(starts)


def grouped_top_k(ds, by, order_col: str, k: int = 3,
                  descending: bool = True, tiebreak: Optional[str] = None):
    """Top-k ROWS per group by ``order_col`` (SQL ``QUALIFY row_number()
    OVER (PARTITION BY by ORDER BY order_col [DESC][, tiebreak]) <= k``).

    Two-level selection, both vectorized: each block keeps at most k rows
    per key it sees (sort + dictionary-ordinal group ranks — no per-group
    Python), so the ONE keyed shuffle ships ≤ k·blocks rows per key, never
    the group's full membership; the same selection inside ``map_groups``
    then picks the global top k. Null ``order_col`` values sort last, as in
    SQL defaults.

    Pass a ``tiebreak`` column that makes (order_col, tiebreak) unique per
    group for deterministic output — with ties ACROSS the k boundary and no
    tiebreak, which tied row survives is unspecified (same as SQL)."""
    by_keys = [by] if isinstance(by, str) else list(by)
    order = "descending" if descending else "ascending"
    sort_keys = [(c, "ascending") for c in by_keys] + [(order_col, order)] \
        + ([(tiebreak, "ascending")] if tiebreak else [])

    def select(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        s = t.take(pc.sort_indices(t, sort_keys=sort_keys))
        return s.filter(pa.array(_group_ranks(s, by_keys) < k))

    return map_groups(
        map_batches(ds, select)
        .groupby(by_keys if len(by_keys) > 1 else by_keys[0]), select)


def grouped_mode(ds, by, column: str, count_name: str = "n"):
    """Most-frequent ``column`` value per group (SQL ``mode()``), with the
    SMALLEST tied value winning so output is deterministic (SQL leaves the
    tie unspecified; mirror with ``row_number() OVER (... ORDER BY
    count(*) DESC, col ASC) = 1``). NULL ``column`` values are excluded,
    as SQL aggregates do.

    Composition of two scale-safe primitives: per-(group, value) counts
    via :func:`grouped_aggregate` (combiner-shrunk single shuffle), then
    :func:`grouped_top_k` with k=1 over the counts — the second shuffle
    moves one row per (group, value) per block at most, never raw rows.

    Output columns: the group keys, ``column`` (the mode), ``count_name``
    (its count)."""
    by_keys = [by] if isinstance(by, str) else list(by)
    filtered = map_batches(
        ds, lambda t: t.filter(pc.is_valid(t.column(column))))
    counts = grouped_aggregate(filtered, [*by_keys, column],
                               count_name=count_name)
    return grouped_top_k(counts, by_keys, count_name, k=1,
                         descending=True, tiebreak=column)


def grouped_stats(ds, by, x: str, y: Optional[str] = None):
    """Distributed second-moment statistics per group via SUFFICIENT
    STATISTICS: per-block ``group_by`` partials (n, Σx, Σx²[, pairwise n,
    Σx, Σy, Σx², Σy², Σxy]) -> ONE keyed shuffle of combiner output ->
    native Sum reduce -> closed-form finish. Nothing ever holds a group's
    raw values; shuffle volume is O(keys·blocks).

    Output columns: by + ``n`` (non-null x count), ``mean_<x>``,
    ``stddev_<x>`` (sample, null for n<2), and with ``y``: ``corr_<x>_<y>``
    (over pairwise-complete rows, null when either variance is 0 — SQL
    corr semantics)."""
    by_keys = [by] if isinstance(by, str) else list(by)
    need = list(dict.fromkeys(by_keys + [x] + ([y] if y else [])))

    def partial(t: pa.Table) -> pa.Table:
        xv = t.column(x).combine_chunks().cast(pa.float64())
        cols = {c: t.column(c) for c in by_keys}
        cols["__n"] = pc.is_valid(xv).cast(pa.int64())
        cols["__sx"] = pc.fill_null(xv, 0.0)
        cols["__sxx"] = pc.fill_null(pc.multiply(xv, xv), 0.0)
        if y:
            yv = t.column(y).combine_chunks().cast(pa.float64())
            both = pc.and_(pc.is_valid(xv), pc.is_valid(yv))
            xp = pc.if_else(both, xv, 0.0)
            yp = pc.if_else(both, yv, 0.0)
            cols["__np"] = both.cast(pa.int64())
            cols["__spx"] = xp
            cols["__spy"] = yp
            cols["__spxx"] = pc.multiply(xp, xp)
            cols["__spyy"] = pc.multiply(yp, yp)
            cols["__spxy"] = pc.multiply(xp, yp)
        part = pa.table(cols)
        aggs = [(c, "sum") for c in part.column_names if c.startswith("__")]
        g = part.group_by(by_keys).aggregate(aggs)
        # strip the "_sum" suffix ONLY from the partial columns ("__*_sum");
        # a group KEY whose own name ends in "_sum" must stay untouched
        return g.rename_columns(
            [c[:-4] if c.startswith("__") and c.endswith("_sum") else c
             for c in g.column_names])

    from ray.data.aggregate import Sum

    part_ds = map_batches(ds.select_columns(need), partial)
    sum_cols = ["__n", "__sx", "__sxx"] + \
        (["__np", "__spx", "__spy", "__spxx", "__spyy", "__spxy"] if y else [])
    merged = (part_ds.groupby(by_keys if len(by_keys) > 1 else by_keys[0])
                     .aggregate(*[Sum(c) for c in sum_cols]))

    def finish(t: pa.Table) -> pa.Table:
        def col(name):
            return pc.fill_null(t.column(f"sum({name})"), 0) \
                .combine_chunks().to_numpy(zero_copy_only=False) \
                .astype(np.float64)
        n = col("__n")
        sx, sxx = col("__sx"), col("__sxx")
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = np.where(n > 0, sx / np.maximum(n, 1), np.nan)
            var = np.where(n > 1,
                           (sxx - sx * sx / np.maximum(n, 1))
                           / np.maximum(n - 1, 1), np.nan)
            std = np.sqrt(np.maximum(var, 0.0))
            std[~(n > 1)] = np.nan
        out = {c: t.column(c) for c in by_keys}
        out["n"] = pa.array(n.astype(np.int64))
        out[f"mean_{x}"] = pa.array(mean, mask=~(n > 0))
        out[f"stddev_{x}"] = pa.array(std, mask=~(n > 1))
        if y:
            np_, spx, spy = col("__np"), col("__spx"), col("__spy")
            spxx, spyy, spxy = col("__spxx"), col("__spyy"), col("__spxy")
            with np.errstate(divide="ignore", invalid="ignore"):
                cov = np_ * spxy - spx * spy
                den = (np_ * spxx - spx * spx) * (np_ * spyy - spy * spy)
                corr = np.where(den > 0, cov / np.sqrt(np.maximum(den, 1e-300)),
                                np.nan)
            out[f"corr_{x}_{y}"] = pa.array(corr, mask=~((np_ > 1) & (den > 0)))
        return pa.table(out)

    return map_batches(merged, finish)


def grouped_linreg(ds, by, x: str, y: str):
    """Per-group ordinary-least-squares fit of ``y`` on ``x`` via the same
    sufficient-statistics shape as :func:`grouped_stats`: per-block
    ``group_by`` partials ``(n, Σx, Σy, Σxy, Σx², Σy²)`` over
    pairwise-complete rows -> ONE keyed shuffle of combiner output ->
    native Sum reduce -> closed-form finish. Raw values never shuffle;
    volume is O(keys·blocks) fixed-width rows.

    Semantics mirror SQL ``regr_*(y, x)`` (PostgreSQL/DuckDB):

    - ``n``         = regr_count  (pairwise non-null rows)
    - ``slope``     = regr_slope  (null when var_pop(x) == 0, incl. n<2)
    - ``intercept`` = regr_intercept (null when slope is null)
    - ``r2``        = regr_r2   (null when var_pop(x)==0; 1.0 when
      var_pop(y)==0 with var_pop(x)>0; else corr²)
    """
    by_keys = [by] if isinstance(by, str) else list(by)
    need = list(dict.fromkeys(by_keys + [x, y]))

    def partial(t: pa.Table) -> pa.Table:
        xv = t.column(x).combine_chunks().cast(pa.float64())
        yv = t.column(y).combine_chunks().cast(pa.float64())
        both = pc.and_(pc.is_valid(xv), pc.is_valid(yv))
        xp = pc.if_else(both, xv, 0.0)
        yp = pc.if_else(both, yv, 0.0)
        cols = {c: t.column(c) for c in by_keys}
        cols["__n"] = both.cast(pa.int64())
        cols["__sx"] = xp
        cols["__sy"] = yp
        cols["__sxy"] = pc.multiply(xp, yp)
        cols["__sxx"] = pc.multiply(xp, xp)
        cols["__syy"] = pc.multiply(yp, yp)
        part = pa.table(cols)
        aggs = [(c, "sum") for c in part.column_names if c.startswith("__")]
        g = part.group_by(by_keys).aggregate(aggs)
        # strip "_sum" ONLY from partial columns; key names stay untouched
        return g.rename_columns(
            [c[:-4] if c.startswith("__") and c.endswith("_sum") else c
             for c in g.column_names])

    from ray.data.aggregate import Sum

    part_ds = map_batches(ds.select_columns(need), partial)
    sum_cols = ["__n", "__sx", "__sy", "__sxy", "__sxx", "__syy"]
    merged = (part_ds.groupby(by_keys if len(by_keys) > 1 else by_keys[0])
                     .aggregate(*[Sum(c) for c in sum_cols]))

    def finish(t: pa.Table) -> pa.Table:
        def col(name):
            return pc.fill_null(t.column(f"sum({name})"), 0) \
                .combine_chunks().to_numpy(zero_copy_only=False) \
                .astype(np.float64)
        n = col("__n")
        sx, sy = col("__sx"), col("__sy")
        sxy, sxx, syy = col("__sxy"), col("__sxx"), col("__syy")
        # population second moments scaled by n²:  n·Σx² − (Σx)²  etc.
        vx = n * sxx - sx * sx
        vy = n * syy - sy * sy
        cov = n * sxy - sx * sy
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(vx > 0, cov / np.where(vx > 0, vx, 1.0), np.nan)
            intercept = np.where(vx > 0,
                                 (sy - slope * sx) / np.maximum(n, 1), np.nan)
            r2 = np.where(vx > 0,
                          np.where(vy > 0,
                                   (cov * cov)
                                   / np.where((vx > 0) & (vy > 0),
                                              vx * vy, 1.0),
                                   1.0),
                          np.nan)
        ok = vx > 0
        out = {c: t.column(c) for c in by_keys}
        out["n"] = pa.array(n.astype(np.int64))
        out["slope"] = pa.array(slope, mask=~ok)
        out["intercept"] = pa.array(intercept, mask=~ok)
        out["r2"] = pa.array(r2, mask=~ok)
        return pa.table(out)

    return map_batches(merged, finish)


def grouping_sets_aggregate(ds, keys: Sequence[str], sets: Sequence[Sequence[str]],
                            sum_cols: Sequence[str] = (),
                            count_name: Optional[str] = "n"):
    """``GROUP BY GROUPING SETS(...)``: ONE full-resolution
    :func:`grouped_aggregate` over all ``keys`` (the only scan + shuffle of
    the source), then every requested set is derived by RE-aggregating that
    finest output — O(distinct full-key combos) combiner-shrunk rows —
    instead of rescanning and reshuffling the source once per set (2^P
    source passes for CUBE). Sums and counts are decomposable, so
    sum-of-sums / sum-of-counts equals the direct aggregation exactly.
    Absent key columns are null-padded; all sets union into one Dataset."""
    from ray.data.aggregate import Sum

    keys = list(keys)
    schema = ds.schema()
    key_types = {k: schema.types[list(schema.names).index(k)] for k in keys}
    cnt = count_name or "__gs_cnt"      # always carry a count internally:
    # it is needed to re-derive coarser sets even when the caller asked for
    # no count column (dropped again in pad below)
    # materialize: every grouping set consumes `finest`, and an
    # un-materialized lineage would re-execute the source scan + shuffle
    # once per set (2^P source passes for CUBE — the exact cost this
    # function exists to avoid). The materialized set is combiner-shrunk:
    # one row per distinct full-key combination.
    finest = grouped_aggregate(ds, keys, sum_cols=sum_cols,
                               count_name=cnt).materialize()
    agg_src = [f"sum_{c}" for c in sum_cols] + [cnt]

    def derive(s_keys: list):
        if s_keys == keys:
            return finest
        if s_keys:
            g = finest.groupby(s_keys if len(s_keys) > 1 else s_keys[0])
        else:
            tagged = map_batches(finest, lambda t: t.append_column(
                "__all", pa.array(np.zeros(t.num_rows, dtype=np.int8))))
            g = tagged.groupby("__all")
        out = g.aggregate(*[Sum(c) for c in agg_src])

        def unwrap(batch: pa.Table, s_keys=tuple(s_keys)) -> pa.Table:
            cols = {k: batch.column(k) for k in s_keys}
            for c in agg_src:
                cols[c] = batch.column(f"sum({c})")
            return pa.table(cols)

        return map_batches(out, unwrap)

    out_levels = []
    for s in sets:
        agg = derive(list(s))

        def pad(batch: pa.Table, s_keys=tuple(s)) -> pa.Table:
            cols = {}
            for k in keys:
                cols[k] = (batch.column(k) if k in s_keys
                           else pa.nulls(batch.num_rows, key_types[k]))
            for c in sum_cols:
                cols[f"sum_{c}"] = batch.column(f"sum_{c}")
            if count_name:
                cols[count_name] = batch.column(cnt)
            return pa.table(cols)

        out_levels.append(map_batches(agg, pad))
    out = out_levels[0]
    for lv in out_levels[1:]:
        out = out.union(lv)
    return out


def cube_aggregate(ds, keys: Sequence[str], sum_cols: Sequence[str] = (),
                   count_name: Optional[str] = "n"):
    """``GROUP BY CUBE(keys...)``: all 2^P key subsets via
    :func:`grouping_sets_aggregate`. P is small (2-3) in practice; each
    subset costs one combiner-shrunk shuffle, never a re-shuffle of raw
    rows."""
    from itertools import combinations

    keys = list(keys)
    sets = [list(c) for r in range(len(keys), -1, -1)
            for c in combinations(keys, r)]
    return grouping_sets_aggregate(ds, keys, sets, sum_cols=sum_cols,
                                   count_name=count_name)


def retention_cohorts(ds, user_col: str = "user_id", ts_col: str = "ts",
                      period_s: int = 86400):
    """Cohort retention matrix — the standard product/corpus-freshness
    analysis: bucket time into ``period_s``-second periods, assign each
    user to the cohort of their FIRST active period, and count how many
    of a cohort's users are active again ``offset`` periods later.
    Returns a Dataset ``(cohort, offset, n_users)`` where ``cohort`` is
    the epoch period index of first activity and ``offset >= 0`` (offset
    0 row = cohort size).  Null users/timestamps are ignored.  Any input
    timestamp unit is normalized to microseconds first (the sessionize /
    funnel convention); PRE-EPOCH timestamps are rejected loudly — the
    SQL twin's ``//`` truncates toward zero while this floor-divides, so
    negative epochs would silently bucket differently.

    Scale shape: events collapse per block to DISTINCT ``(user, period)``
    pairs (a C ``group_by``, so a user's many events in one period never
    leave the block), then ONE ``groupby(user)`` shuffle co-locates each
    user's periods — per-user work is a tiny ``np.unique`` — and the
    resulting one-row-per-(user, cohort, offset) stream pre-counts per
    block before a second, matrix-sized ``groupby([cohort, offset])``
    Sum (cohorts x offsets rows, never user-sized).
    """
    from ray.data.aggregate import Sum

    from ..util import grouped_rename_positional

    scale = int(period_s) * 1_000_000   # timestamps are microseconds

    def distinct_periods(batch: pa.Table) -> pa.Table:
        t = batch.select([user_col, ts_col]).filter(
            pc.and_(pc.is_valid(batch.column(user_col)),
                    pc.is_valid(batch.column(ts_col))))
        # normalize to us FIRST: a raw int64 cast of timestamp[ns/ms/s]
        # would bucket 1000x off (the sessionize/funnel convention)
        us = t.column(ts_col).combine_chunks().cast(
            pa.timestamp("us")).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        if len(us) and us.min() < 0:
            raise ValueError(
                "retention_cohorts: pre-epoch timestamps are not "
                "supported (floor vs truncate bucketing would diverge "
                "from the SQL twin)")
        per = np.floor_divide(us, scale)
        return pa.table({user_col: t.column(user_col),
                         "__per": pa.array(per)}) \
            .group_by([user_col, "__per"]).aggregate([])

    def per_user(group: pa.Table) -> pa.Table:
        per = np.unique(group.column("__per").to_numpy(
            zero_copy_only=False))
        return pa.table({"cohort": pa.array(np.full(len(per), per[0])),
                         "offset": pa.array(per - per[0])})

    def count_partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["cohort", "offset"]).aggregate([([], "count_all")])
        return grouped_rename_positional(
            g, ["cohort", "offset"], ["__n"]).select(
            ["cohort", "offset", "__n"])

    periods = map_batches(ds.select_columns([user_col, ts_col]),
                          distinct_periods)
    pairs = map_groups(periods.groupby(user_col), per_user)
    g = (map_batches(pairs, count_partial)
         .groupby(["cohort", "offset"]).aggregate(Sum("__n")))
    return map_batches(g, lambda t: pa.table({
        "cohort": t.column("cohort").cast(pa.int64()),
        "offset": t.column("offset").cast(pa.int64()),
        "n_users": t.column("sum(__n)").cast(pa.int64())}))


def grouped_count_distinct(ds, key: str, column: str):
    """Exact per-key ``COUNT(DISTINCT column)`` — :func:`count_distinct`
    with a GROUP BY.  Returns a Dataset ``(key, n_distinct)``.

    Scale shape: each block collapses to its DISTINCT ``(key, value)``
    pairs first (one C ``group_by``, so repeated values never leave the
    block), then ONE ``groupby([key, value])`` shuffle finishes the
    global distinct, per-block per-key count partials shrink the result,
    and a key-sized ``groupby(key).Sum`` reduce emits the counts.  Null
    values don't count (SQL semantics); null KEYS are dropped — mirror
    in SQL with ``WHERE key IS NOT NULL`` (a null string key would also
    crash Ray's numpy object sort, the NB-sentinel lesson).  One
    documented divergence from SQL: a key whose values are ALL null
    produces NO output row (SQL's GROUP BY would emit ``(key, 0)``) —
    null values never enter the shuffle, so such keys are invisible;
    mirror with ``AND column IS NOT NULL`` in the WHERE.  For
    high-cardinality value columns prefer
    :func:`~.sketch.grouped_approx_distinct`, whose shuffle moves
    fixed-width registers instead of the values themselves."""
    from ray.data.aggregate import Count, Sum

    from ..util import grouped_rename_positional

    def block_distinct(t: pa.Table) -> pa.Table:
        t = t.select([key, column])
        t = t.filter(pc.and_(pc.is_valid(t.column(key)),
                             pc.is_valid(t.column(column))))
        return t.group_by([key, column]).aggregate([])

    pairs = (map_batches(ds, block_distinct)
               .groupby([key, column]).aggregate(Count()))

    def count_partial(t: pa.Table) -> pa.Table:
        g = t.select([key]).group_by(key).aggregate([([], "count_all")])
        return grouped_rename_positional(g, [key], ["__d"]).select(
            [key, "__d"])

    g = map_batches(pairs, count_partial).groupby(key).aggregate(Sum("__d"))
    return map_batches(g, lambda t: pa.table({
        key: t.column(key),
        "n_distinct": t.column("sum(__d)").cast(pa.int64())}))


def resample_timeseries(ds, key: str, ts_col: str, every: str = "1h",
                        sum_cols: Sequence[str] = (), fill: str = "null",
                        count_name: str = "n", align: str = "per_key"):
    """Time-series resample: bucket event time into fixed ``every``-wide
    intervals, aggregate per ``(key, bucket)``, then DENSIFY each key's
    series from its first to its last active bucket so downstream
    consumers (charting, anomaly scoring, training-curve alignment) see a
    gap-free grid.  The SQL twin is ``GROUP BY key, bucket`` +
    ``unnest(generate_series(min, max, every))`` + ``LEFT JOIN`` +
    (for ``fill='ffill'``) ``last_value(x IGNORE NULLS) OVER (PARTITION
    BY key ORDER BY bucket)``.

    Output columns: ``(key, bucket_start timestamp[us], sum_<c>...,
    count_name int64)``.  Gap buckets get count 0 and sums per ``fill``:

    - ``'null'``  — SQL LEFT-JOIN semantics (sum is NULL in a gap);
    - ``'zero'``  — gaps read as 0 (sums keep their input-sum dtype);
    - ``'ffill'`` — last NON-NULL sum carries forward (exactly DuckDB's
      ``last_value(... IGNORE NULLS)``: an active bucket whose values
      were all null is carried over too, in both systems);
    - ``'interp'`` — linear interpolation strictly BETWEEN non-null
      sums (leading/trailing gaps stay NULL); sums become float64.
      SQL twin: prev/next value+bucket via ``last_value/first_value
      (... IGNORE NULLS)`` over mirrored frames, then the line formula.

    ``align='per_key'`` (default) densifies each key from ITS first to
    ITS last active bucket; ``align='global'`` aligns every key to the
    corpus-wide [min, max] bucket range (one extra pass over the
    bucket-sized aggregate) so downstream feature matrices share one
    time axis.

    Rows with a null key or null timestamp are dropped (mirror in SQL
    with ``WHERE key IS NOT NULL AND ts IS NOT NULL``); pre-epoch
    timestamps are rejected loudly (floor-vs-truncate bucketing would
    silently diverge from the SQL twin — the retention_cohorts rule).

    Scale shape: one C ``group_by`` per block collapses raw events to
    ``(key, bucket)`` partials BEFORE the only row-weight shuffle
    (``groupby([key, bucket]).Sum``), then a ``groupby(key).map_groups``
    over the already-bucket-sized aggregate densifies with one
    ``np.arange`` + scatter per key — raw events never reach the second
    shuffle.  Per-key output is ``(span / every)`` rows emitted from one
    map_groups call: pick ``every`` so the densified series for one key
    fits a block (a year of '1m' buckets is ~526k rows — fine; don't ask
    for '1s' buckets over a decade per key).
    """
    if fill not in ("null", "zero", "ffill", "interp"):
        raise ValueError(f"resample_timeseries: unknown fill {fill!r}")
    if align not in ("per_key", "global"):
        raise ValueError(f"resample_timeseries: unknown align {align!r}")
    from ray.data.aggregate import Sum

    from ..util import grouped_rename_positional

    span = duration_us(every) if isinstance(every, str) else int(every)
    sum_cols = list(sum_cols)
    if key.startswith("__") or any(c.startswith("__") for c in sum_cols):
        raise ValueError("resample_timeseries: '__'-prefixed names "
                         "collide with internal partial columns")

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select([key, ts_col, *sum_cols]).filter(
            pc.and_(pc.is_valid(batch.column(key)),
                    pc.is_valid(batch.column(ts_col))))
        us = t.column(ts_col).combine_chunks().cast(
            pa.timestamp("us")).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        if len(us) and us.min() < 0:
            raise ValueError("resample_timeseries: pre-epoch timestamps "
                             "are not supported")
        b = (us // span) * span
        t = pa.table({key: t.column(key), "__b": pa.array(b),
                      **{c: t.column(c) for c in sum_cols}})
        g = t.group_by([key, "__b"]).aggregate(
            [(c, "sum") for c in sum_cols] + [([], "count_all")])
        return grouped_rename_positional(
            g, [key, "__b"], [f"__s_{c}" for c in sum_cols] + ["__cnt"])

    bounds = [None, None]   # filled before densify runs when align=global

    def densify(group: pa.Table) -> pa.Table:
        group = group.sort_by("__b")
        b = group.column("__b").to_numpy(zero_copy_only=False)
        if align == "global":
            lo, hi = bounds
        else:
            lo, hi = int(b[0]), int(b[-1])
        m = (hi - lo) // span + 1
        idx = (b - lo) // span
        cols = {key: group.column(key).take(
            pa.array(np.zeros(m, dtype=np.int64))),
            "bucket_start": pa.array(
                lo + span * np.arange(m, dtype=np.int64)).cast(
                pa.timestamp("us"))}
        for c in sum_cols:
            s = group.column(f"sum(__s_{c})").combine_chunks()
            src_valid = pc.is_valid(s).to_numpy(zero_copy_only=False)
            # fill nulls BEFORE to_numpy: a nullable int64 would otherwise
            # round-trip through float64+NaN and silently lose sums above
            # 2^53 (review r4)
            sv = pc.fill_null(s, 0).to_numpy(zero_copy_only=False)
            out = np.zeros(m, dtype=sv.dtype if sv.dtype.kind != "O"
                           else np.float64)
            valid = np.zeros(m, dtype=bool)
            out[idx] = sv
            valid[idx] = src_valid
            if fill == "ffill":
                pos = np.where(valid, np.arange(m), -1)
                pos = np.maximum.accumulate(pos)
                hit = pos >= 0
                out = out[np.maximum(pos, 0)]
                valid = hit
            if fill == "interp":
                # linear interpolation STRICTLY BETWEEN valid points;
                # leading/trailing gaps stay NULL (output is float64 —
                # interpolants are fractional regardless of input dtype)
                outf = out.astype(np.float64)
                vi = np.flatnonzero(valid)
                if len(vi) >= 2:
                    pos = np.arange(m)
                    between = (~valid) & (pos > vi[0]) & (pos < vi[-1])
                    outf = np.where(
                        between, np.interp(pos, vi, outf[vi]), outf)
                    valid = valid | between
                arr = pa.array(outf, type=pa.float64(), mask=~valid)
            elif fill == "zero":
                arr = pa.array(out, type=s.type)
            else:
                arr = pa.array(out, type=s.type,
                               mask=~valid)
            cols[f"sum_{c}"] = arr
        n = np.zeros(m, dtype=np.int64)
        n[idx] = group.column("sum(__cnt)").to_numpy(
            zero_copy_only=False)
        cols[count_name] = pa.array(n)
        return pa.table(cols)

    aggs = [Sum(f"__s_{c}") for c in sum_cols] + [Sum("__cnt")]
    agg = (map_batches(ds, partial)
             .groupby([key, "__b"]).aggregate(*aggs))
    if align == "global":
        # one extra pass over the already-bucket-sized aggregate: every
        # key densifies over the same [global min, global max] grid so
        # downstream feature matrices share one time axis
        agg = agg.materialize()
        mm = [(r["min(__b)"], r["max(__b)"]) for r in map_batches(
            agg, lambda t: pa.table({
                "min(__b)": pa.array(
                    [pc.min(t.column("__b")).as_py()], type=pa.int64()),
                "max(__b)": pa.array(
                    [pc.max(t.column("__b")).as_py()], type=pa.int64())})
        ).take_all()]
        mm = [(a, b) for a, b in mm if a is not None]
        if not mm:
            # no row survives and the aggregate has no schema: type the
            # sums from the input as Ray's Sum does (a decimal keeps its
            # input type; Ray infers its precision from the data)
            import ray.data
            sch = ds.schema()
            types = dict(zip(sch.names, sch.types)) if sch is not None else {}
            fields = [(key, types.get(key, pa.null())),
                      ("bucket_start", pa.timestamp("us"))]
            for c in sum_cols:
                t = types.get(c, pa.int64())
                fields.append((f"sum_{c}", pa.float64()
                               if fill == "interp" or pa.types.is_floating(t)
                               else pa.int64() if pa.types.is_integer(t)
                               else t))
            return ray.data.from_arrow(pa.schema(
                fields + [(count_name, pa.int64())]).empty_table())
        bounds[0] = min(a for a, _ in mm)
        bounds[1] = max(b for _, b in mm)
    return map_groups(agg.groupby(key), densify)


def robust_anomalies(ds, key: str, value_col: str, threshold: float = 3.0,
                     out_flag: str = "is_anomaly"):
    """Per-key robust outlier flags: a row is anomalous when its absolute
    deviation from the key's MEDIAN exceeds ``threshold`` x the key's MAD
    (median absolute deviation) — the standard distribution-free
    alternative to z-scores (mean/std are themselves dragged by the
    outliers they're meant to find).  Appends ``abs_dev``, ``mad`` and
    boolean ``out_flag`` columns; rows with a NULL value get NULL flags
    (SQL comparison semantics).  A key whose MAD is 0 (over half its
    values identical) flags EVERY deviating row — by construction, and
    identically in the SQL twin (``quantile_disc(x, 0.5)`` medians).

    Scale shape: intended for ALREADY-AGGREGATED inputs (a resampled
    grid, a per-entity stats table) — two :func:`grouped_quantiles`
    shuffles (each key's rows on one worker, the map_groups contract)
    and two :func:`hash_join` passes against key-sized median/MAD
    tables; the input is materialized once and reused by both.
    """
    for c in ("__med", "__dev", "__mad"):
        if c in ds.schema().names:
            raise ValueError(f"robust_anomalies: column {c} is reserved")

    def drop_null_keys(t: pa.Table) -> pa.Table:
        # null keys are dropped up front (mirror in SQL with WHERE key IS
        # NOT NULL): they'd vanish at the inner median-attach join anyway,
        # and a null string key crashes Ray's groupby sort (the
        # grouped_count_distinct / NB-sentinel lesson)
        col = t.column(key)
        return t.filter(pc.is_valid(col)) if col.null_count else t

    base = map_batches(ds, drop_null_keys).materialize()
    if base.count() == 0:
        # an empty grouped-quantile aggregate has no schema, which would
        # crash the median-attach join — return the empty result directly
        import ray.data
        sch = ds.schema()
        cols = {n: pa.array([], type=t)
                for n, t in zip(sch.names, sch.types)}
        cols["abs_dev"] = pa.array([], type=pa.float64())
        cols["mad"] = pa.array([], type=pa.float64())
        cols[out_flag] = pa.array([], type=pa.bool_())
        return ray.data.from_arrow(pa.table(cols))
    med = grouped_quantiles(base, key, value_col, {"__med": 0.5})
    j1 = hash_join(base, med, key=key)

    def add_dev(t: pa.Table) -> pa.Table:
        dev = pc.abs(pc.subtract(
            t.column(value_col).cast(pa.float64()),
            t.column("__med").cast(pa.float64())))
        return t.append_column("__dev", dev)

    d = map_batches(j1, add_dev).materialize()
    mad = grouped_quantiles(d, key, "__dev", {"__mad": 0.5})
    j2 = hash_join(d, mad, key=key)

    def finish(t: pa.Table) -> pa.Table:
        dev = t.column("__dev")
        madc = t.column("__mad").cast(pa.float64())
        flag = pc.greater(dev, pc.multiply(
            madc, pa.scalar(float(threshold), pa.float64())))
        out = t.drop_columns(["__med"]).append_column(out_flag, flag)
        return out.rename_columns(
            ["abs_dev" if n == "__dev" else "mad" if n == "__mad" else n
             for n in out.column_names])

    return map_batches(j2, finish)


def rolling_aggregate(ds, key: str, order_col: str, value_col: str,
                      window: int, agg: str = "mean",
                      out_col: Optional[str] = None):
    """Trailing rolling-window aggregate per key: for each row, the
    SUM/MEAN of ``value_col`` over the last ``window`` rows of that key in
    ``order_col`` order (inclusive) — SQL ``agg(v) OVER (PARTITION BY key
    ORDER BY o ROWS BETWEEN window-1 PRECEDING AND CURRENT ROW)``, with
    the same null-skipping semantics (null values contribute to neither
    numerator nor denominator; a window of only nulls yields NULL).
    ``order_col`` must be unique within each key (use a densified
    :func:`resample_timeseries` grid or add a tiebreaker).

    Scale shape: ONE groupby(key) shuffle; per-group work is a sort plus
    two cumulative sums (O(rows), no per-window loop).  Each key's rows
    must fit one worker — the map_groups contract, same as
    :func:`grouped_quantiles`; this is meant for already-aggregated
    series, not raw events."""
    if agg not in ("mean", "sum"):
        raise ValueError(f"rolling_aggregate: unknown agg {agg!r}")
    if window < 1:
        raise ValueError("rolling_aggregate: window must be >= 1")
    out = out_col or f"rolling_{agg}_{value_col}"

    def apply(group: pa.Table) -> pa.Table:
        g = group.sort_by(order_col)
        col = g.column(value_col).combine_chunks()
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        x = np.where(valid, pc.fill_null(col, 0).to_numpy(
            zero_copy_only=False).astype(np.float64), 0.0)
        n = len(x)
        cs = np.cumsum(x)
        cc = np.cumsum(valid.astype(np.int64))
        if n > window:
            s = cs - np.concatenate([np.zeros(window), cs[:-window]])
            c = cc - np.concatenate([np.zeros(window, dtype=np.int64),
                                     cc[:-window]])
        else:
            s, c = cs, cc
        if agg == "mean":
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = s / c
        else:
            vals = s
        return g.append_column(out, pa.array(vals, type=pa.float64(),
                                             mask=c == 0))

    return map_groups(ds.groupby(key), apply)


def ema(ds, key: str, order_col: str, value_col: str, alpha: float,
        out_col: Optional[str] = None):
    """Per-key exponential moving average (recursive smoothing,
    ``y_1 = x_1; y_t = alpha*x_t + (1-alpha)*y_{t-1}`` over the key's
    NON-NULL values in ``order_col`` order — pandas ``ewm(adjust=False)``
    semantics). Null values emit a null EMA and do NOT update the state
    (the series simply skips them). ``order_col`` must be unique per key.

    Scale shape: ONE groupby(key) shuffle (same contract as
    :func:`rolling_aggregate` — use an already-aggregated series, each
    key fits one worker); per-group work is a sort plus a SEGMENTED
    renormalized prefix scan — the closed form ``y_j = (1-a)^j * (carry +
    sum_i a*x_i*(1-a)^{-i})`` is evaluated in segments short enough that
    ``(1-a)^{-L}`` stays under ~1e30, with the carry re-based per
    segment, so arbitrarily long series never overflow while every
    segment is one vectorized cumsum (no per-row Python loop). An
    external window-function recompute of the same closed form matches
    to ~1e-12 relative."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"ema: alpha must be in (0, 1], got {alpha}")
    out = out_col or f"ema_{value_col}"
    if alpha == 1.0:
        seg_len = 1 << 62          # y_t = x_t; decay term vanishes
    else:
        seg_len = max(1, min(4096, int(30.0 / -np.log10(1.0 - alpha))))
    decay = 1.0 - alpha

    def apply(group: pa.Table) -> pa.Table:
        g = group.sort_by(order_col)
        col = g.column(value_col).combine_chunks()
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        x = pc.fill_null(col.cast(pa.float64()), 0.0).to_numpy(
            zero_copy_only=False)[valid]
        m = len(x)
        if decay == 0:                  # alpha == 1: y_t = x_t
            y = x.astype(np.float64)
        else:
            y = np.empty(m, dtype=np.float64)
            carry = None
            pos = 0
            while pos < m:
                seg = x[pos:pos + seg_len]
                idx = np.arange(1, len(seg) + 1, dtype=np.float64)
                terms = alpha * seg * decay ** (-idx)
                if carry is None:
                    terms[0] = seg[0] * decay ** -1.0  # seed: y_1 = x_1
                    s = np.cumsum(terms)
                else:
                    s = carry + np.cumsum(terms)
                yseg = decay ** idx * s
                y[pos:pos + len(seg)] = yseg
                carry = yseg[-1]
                pos += len(seg)
        vals = np.zeros(len(g), dtype=np.float64)
        vals[valid] = y
        return g.append_column(out, pa.array(vals, type=pa.float64(),
                                             mask=~valid))

    return map_groups(ds.groupby(key), apply)
