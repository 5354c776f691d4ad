"""CDC merge / upsert: apply a changeset to a snapshot (MERGE INTO).

The reference is a serde fleet with no table-maintenance tasks; this is the
engine-side addition a continuously-crawled training corpus needs: apply the
day's delta (new pages, re-crawls, takedown deletions) to the 100 TB
snapshot without rewriting rows whose key is untouched.

Semantics (Delta-Lake-style ``MERGE INTO`` with CDC ops):

- ``delta`` rows carry the snapshot's columns plus an optional ``op_column``
  (``"upsert"`` | ``"delete"``; absent column = all upserts) and an optional
  ``version_column`` (last-writer-wins: the row with the **max** version per
  key is applied; several rows sharing the max version is ambiguous and
  raises — same "refuse, never guess" convention as the join family).
- every snapshot row whose key matches a delta key is replaced by the
  winning upsert row (or dropped on delete); delta keys absent from the
  snapshot are inserted; snapshot rows with unmatched keys pass through
  unchanged (including duplicate-key snapshot rows).
- NULL merge keys: a delta row with a null key is refused loudly (it could
  never address a target row); snapshot null-key rows pass through, as in
  SQL where NULL matches nothing.
- the output schema is exactly the snapshot schema (delta columns are cast
  to it; op/version/extra delta columns never leak into the output).

Two execution shapes, same contract:

- :func:`broadcast_merge` — delta is a small in-memory table: winners are
  resolved driver-side, the key set ships through the object store ONCE
  (``ray.put``), and the snapshot is filtered map-only (one streaming pass,
  no shuffle) with the upserts unioned on. The 100 TB daily-delta path.
- :func:`merge_changes` — both sides are Datasets: ONE keyed shuffle
  co-partitions snapshot and delta rows (hash_join's stringified-key
  routing, null snapshot keys spread over 64 routing groups), and each key
  group resolves locally. For deltas too big to broadcast.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import map_batches, map_groups
from .relational import _key_join, _keys_valid, _null_route_64

_OPS = ("upsert", "delete")


def _check_ops(ops: pa.ChunkedArray | pa.Array, where: str) -> None:
    if isinstance(ops, pa.ChunkedArray):
        ops = ops.combine_chunks()
    bad = pc.invert(pc.is_in(ops, value_set=pa.array(_OPS)))
    bad = pc.fill_null(bad, True)          # null op is also invalid
    if pc.any(bad).as_py():
        vals = pc.unique(ops.filter(bad)).to_pylist()
        raise ValueError(
            f"{where}: op column must be one of {_OPS}, got {vals!r}")


def _delta_to_out(delta: pa.Table, out_names: list, out_types: dict,
                  where: str) -> pa.Table:
    """Project + cast a delta table to the snapshot schema (loudly)."""
    missing = [nm for nm in out_names if nm not in delta.column_names]
    if missing:
        raise ValueError(f"{where}: delta is missing snapshot columns "
                         f"{missing}")
    cols = {}
    for nm in out_names:
        c = delta.column(nm)
        c = c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
        if c.type != out_types[nm]:
            try:
                c = c.cast(out_types[nm])
            except pa.ArrowInvalid:
                raise ValueError(
                    f"{where}: delta column {nm!r} ({c.type}) has values "
                    f"the snapshot type {out_types[nm]} cannot represent")
        cols[nm] = c
    return pa.table(cols)


def broadcast_merge(snapshot, delta: pa.Table, key,
                    op_column: str | None = None,
                    version_column: str | None = None):
    """Apply a SMALL delta table to a snapshot Dataset: no shuffle — the
    resolved delta key set is ``ray.put`` once, every snapshot batch drops
    matched keys with an Arrow left-anti join, and the winning upserts are
    unioned on as one extra block. See the module docstring for the full
    merge contract."""
    import ray
    import ray.data

    keys = [key] if isinstance(key, str) else list(key)
    schema = snapshot.schema()
    out_names = list(schema.names)
    out_types = dict(zip(schema.names, schema.types))
    for k in keys:
        if k not in out_names:
            raise ValueError(f"broadcast_merge: key {k!r} not in snapshot")
    if delta.num_rows == 0:
        return snapshot

    valid = _keys_valid(delta, keys)
    if not pc.min(valid).as_py():
        raise ValueError("broadcast_merge: delta has null merge keys")

    # last-writer-wins winner per key
    if version_column is not None:
        ver = delta.column(version_column)
        if ver.null_count:
            raise ValueError("broadcast_merge: null version values are "
                             "ambiguous — fill them before merging")
        g = delta.group_by(keys).aggregate([(version_column, "max")])
        j = delta.join(g, keys=keys)
        win = j.filter(pc.equal(j.column(version_column),
                                j.column(f"{version_column}_max")))
    else:
        win = delta
    cnt = win.group_by(keys).aggregate([([], "count_all")])
    if cnt.num_rows and pc.max(cnt.column("count_all")).as_py() > 1:
        what = ("several delta rows share the max version"
                if version_column is not None else
                "several delta rows per key and no version_column")
        raise ValueError(f"broadcast_merge: ambiguous delta — {what}")

    if op_column is not None:
        _check_ops(win.column(op_column), "broadcast_merge")
        keep = pc.invert(pc.equal(win.column(op_column), "delete"))
        upserts = win.filter(keep)
    else:
        upserts = win
    upsert_rows = _delta_to_out(upserts, out_names, out_types,
                                "broadcast_merge")

    # ALL winner keys (deletes included) leave the snapshot; key columns
    # are cast to the snapshot's key types so the anti-join compares
    # equal-typed values
    key_tbl = _delta_to_out(win, keys, {k: out_types[k] for k in keys},
                            "broadcast_merge")
    ref = ray.put(key_tbl)

    def drop_matched(batch: pa.Table) -> pa.Table:
        kt = ray.get(ref)
        # Arrow join: null snapshot keys never match -> they pass through
        return batch.join(kt, keys=keys, join_type="left anti")

    kept = map_batches(snapshot, drop_matched)
    if upsert_rows.num_rows == 0:
        return kept
    return kept.union(ray.data.from_arrow(upsert_rows))


def merge_changes(snapshot, delta, key, op_column: str | None = None,
                  version_column: str | None = None,
                  bloom_bits: int | None = 1 << 23):
    """Big-big merge: ONE keyed shuffle co-partitions snapshot and delta
    rows by the stringified merge key (null snapshot keys spread over 64
    routing groups and pass through); each key group resolves the winner
    locally and emits the survivor rows. See the module docstring for the
    full merge contract; use :func:`broadcast_merge` when the delta fits
    in the object store.

    Scale shape: a daily delta touches a sliver of a 100 TB snapshot, so
    by default the delta's keys are first folded into a distributed Bloom
    bitmap (``relational.build_key_bloom`` — fixed-width partials, one
    ``ray.put``) and snapshot rows that MISS it (definitely unmatched,
    plus null-key rows) pass through MAP-ONLY; only bloom hits enter the
    keyed shuffle, which then costs O(|delta| + |matching snapshot| +
    false positives) instead of O(|snapshot|). ``bloom_bits=None``
    disables the prefilter (same result, full shuffle); size it (a power
    of two) to the delta's distinct-key count. The delta's lineage
    executes twice with the prefilter on (bitmap build + merge)."""
    import ray
    import ray.data  # noqa: F401  (Dataset API via the inputs)

    keys = [key] if isinstance(key, str) else list(key)
    schema = snapshot.schema()
    out_names = list(schema.names)
    out_types = dict(zip(schema.names, schema.types))
    for k in keys:
        if k not in out_names:
            raise ValueError(f"merge_changes: key {k!r} not in snapshot")
    d_schema = delta.schema()
    ver_type = None
    if version_column is not None:
        if version_column not in d_schema.names:
            raise ValueError(f"merge_changes: version column "
                             f"{version_column!r} not in delta")
        ver_type = d_schema.types[list(d_schema.names).index(version_column)]

    def pad_snap(batch: pa.Table) -> pa.Table:
        cols = {nm: batch.column(nm) for nm in out_names}
        cols["__op"] = pa.nulls(batch.num_rows, pa.string())
        if ver_type is not None:
            cols["__ver"] = pa.nulls(batch.num_rows, ver_type)
        cols["__side"] = pa.array(np.zeros(batch.num_rows, dtype=np.int8))
        t = pa.table(cols)
        valid = _keys_valid(batch, keys)
        mk = pc.if_else(valid, _key_join(t, keys),
                        _null_route_64(t.num_rows, "M"))
        return t.append_column("__mk", mk)

    def pad_delta(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            cols = {nm: pa.array([], type=out_types[nm])
                    for nm in out_names}
            cols["__op"] = pa.array([], type=pa.string())
            if ver_type is not None:
                cols["__ver"] = pa.array([], type=ver_type)
            cols["__side"] = pa.array([], type=pa.int8())
            cols["__mk"] = pa.array([], type=pa.string())
            return pa.table(cols)
        if not all(k in batch.column_names for k in keys):
            raise ValueError("merge_changes: delta is missing key columns")
        if not pc.min(_keys_valid(batch, keys)).as_py():
            raise ValueError("merge_changes: delta has null merge keys")
        body = _delta_to_out(batch, out_names, out_types, "merge_changes")
        if op_column is not None:
            ops = batch.column(op_column).combine_chunks()
            ops = ops if pa.types.is_string(ops.type) else ops.cast(
                pa.string())
            _check_ops(ops, "merge_changes")
        else:
            ops = pa.array(np.full(batch.num_rows, "upsert", dtype=object),
                           type=pa.string())
        body = body.append_column("__op", ops)
        if ver_type is not None:
            body = body.append_column(
                "__ver", batch.column(version_column).combine_chunks())
        body = body.append_column(
            "__side", pa.array(np.ones(batch.num_rows, dtype=np.int8)))
        return body.append_column("__mk", _key_join(body, keys))

    empty = pa.table({nm: pa.array([], type=out_types[nm])
                      for nm in out_names})

    def resolve(group: pa.Table) -> pa.Table:
        n = group.num_rows
        side = group.column("__side").to_numpy(zero_copy_only=False)
        # sub-group by the ACTUAL key tuple (a '#' in a string key or a
        # null route could co-locate two distinct keys in one __mk group;
        # correctness never depends on the routing — hash_join convention)
        valid = np.ones(n, dtype=bool)
        code_cols = []
        for knm in keys:
            col = group.column(knm).combine_chunks()
            valid &= pc.is_valid(col).to_numpy(zero_copy_only=False)
            codes = pc.fill_null(pc.dictionary_encode(col).indices, -1)
            code_cols.append(codes.to_numpy(zero_copy_only=False)
                             .astype(np.int64))
        if len(code_cols) == 1:
            comb = code_cols[0]
        else:
            _, comb = np.unique(np.stack(code_cols, axis=1), axis=0,
                                return_inverse=True)
        pieces = []
        if not valid.all():
            # null-key snapshot rows pass through (delta nulls were refused
            # at pad time, so these are all side 0)
            pieces.append(group.filter(pa.array(~valid)).select(out_names))
        for c in (np.unique(comb[valid]) if valid.any() else ()):
            m = valid & (comb == c)
            dm = m & (side == 1)
            if not dm.any():
                pieces.append(group.filter(pa.array(m)).select(out_names))
                continue
            d = group.filter(pa.array(dm))
            if ver_type is not None:
                ver = d.column("__ver").combine_chunks()
                if ver.null_count:
                    raise ValueError("merge_changes: null version values "
                                     "are ambiguous — fill them before "
                                     "merging")
                vn = ver.to_numpy(zero_copy_only=False)
                wmask = vn == vn.max()
                if int(wmask.sum()) > 1:
                    raise ValueError(
                        "merge_changes: ambiguous delta — several rows "
                        "share the max version for one key")
                w = d.filter(pa.array(wmask))
            else:
                if d.num_rows > 1:
                    raise ValueError(
                        "merge_changes: ambiguous delta — several rows per "
                        "key and no version_column")
                w = d
            if w.column("__op")[0].as_py() != "delete":
                pieces.append(w.select(out_names))
        if not pieces:
            return empty
        return pa.concat_tables(pieces) if len(pieces) > 1 else pieces[0]

    passthrough = None
    if bloom_bits is not None:
        from .relational import bloom_probe_hits, build_key_bloom

        if bloom_bits < 64 or bloom_bits & (bloom_bits - 1):
            raise ValueError("bloom_bits must be a power of two >= 64")
        ref = build_key_bloom(delta, keys, out_keys=keys,
                              out_types=out_types, bits=bloom_bits)

        def split(batch: pa.Table, want_hits: bool) -> pa.Table:
            hits = bloom_probe_hits(batch, keys, ray.get(ref), 4)
            t = batch.filter(pa.array(hits if want_hits else ~hits))
            return t if want_hits else t.select(out_names)

        # bloom misses (and null-key rows) are definitely unmatched:
        # emit map-only, never shuffle them
        passthrough = map_batches(snapshot, lambda b: split(b, False))
        snapshot = map_batches(snapshot, lambda b: split(b, True))

    tagged = map_batches(snapshot, pad_snap).union(
        map_batches(delta, pad_delta))
    merged = map_groups(tagged.groupby("__mk"), resolve)
    return merged if passthrough is None else merged.union(passthrough)
