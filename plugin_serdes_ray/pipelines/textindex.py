"""Materialized inverted text index: the keyword-search analog of the IVF
vector path (``ann.py``) — build once into hash-sharded parquet posting
lists, then answer boolean keyword queries by opening ONLY the query
tokens' shards, never the corpus.

100 TB shape: postings rows are ``(token, doc_id)`` — fixed width, never
text; the build is one tokenize pass with per-block distinct collapse
feeding one keyed shuffle; a hot token ("the") is second-level-split by
``doc_id`` hash across ``sub_splits`` files so no single worker writes an
unbounded group. Search is fully distributed: the AND/OR evaluation is a
``groupby(doc_id)`` count over the filtered postings, not a driver-side
set intersection.
"""

from __future__ import annotations

import glob
import json
import os
import zlib
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import map_batches, map_groups


def _shard_of(token: str, num_shards: int) -> int:
    return zlib.crc32(token.encode()) % num_shards


def tokenize_distinct(batch: pa.Table, column: str, id_column: str,
                      carry: dict | None = None) -> pa.Table:
    """(doc_id, token) DISTINCT pairs per document: lower + whitespace
    split + C ``group_by`` distinct — no Python loop over rows.

    ``carry`` maps extra column names to per-DOCUMENT numpy arrays (aligned
    with ``batch`` rows); each is expanded alongside the ids and kept as an
    extra group key (functionally dependent on the id, so the distinct set
    is unchanged)."""
    col = pc.fill_null(batch.column(column).combine_chunks(), "")
    toks_l = pc.split_pattern_regex(pc.utf8_lower(col), r"\s+")
    lens = pc.list_value_length(toks_l).to_numpy(
        zero_copy_only=False).astype(np.int64)
    rep = np.repeat(np.arange(len(col), dtype=np.int64), lens)
    ids = batch.column(id_column).combine_chunks().take(pa.array(rep))
    flat = pc.list_flatten(toks_l)
    data = {id_column: ids, "token": flat}
    extra = []
    for name, arr in (carry or {}).items():
        data[name] = pa.array(np.asarray(arr)[rep])
        extra.append(name)
    pairs = pa.table(data)
    pairs = pairs.filter(pc.not_equal(pairs.column("token"), ""))
    return pairs.group_by([id_column, "token", *extra]).aggregate([])


def tokenize_positions(batch: pa.Table, column: str, id_column: str,
                       carry: dict | None = None) -> pa.Table:
    """(doc_id, token, pos) rows — one per token OCCURRENCE, ``pos`` =
    the token's rank among the document's NON-EMPTY whitespace tokens
    (lowercased), so phrase adjacency is ``pos_b == pos_a + 1`` exactly
    when the tokens are adjacent in the space-joined token string the
    SQL twin tests with LIKE. Fully vectorized."""
    col = pc.fill_null(batch.column(column).combine_chunks(), "")
    toks_l = pc.split_pattern_regex(pc.utf8_lower(col), r"\s+")
    lens = pc.list_value_length(toks_l).to_numpy(
        zero_copy_only=False).astype(np.int64)
    rep = np.repeat(np.arange(len(col), dtype=np.int64), lens)
    flat = pc.list_flatten(toks_l)
    ne = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    rows = rep[ne]
    kept = flat.filter(pa.array(ne))
    counts = np.bincount(rows, minlength=len(col))
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    pos = np.arange(len(kept), dtype=np.int64) - np.repeat(starts, counts)
    ids = batch.column(id_column).combine_chunks().take(pa.array(rows))
    data = {id_column: ids, "token": kept,
            "pos": pa.array(pos.astype(np.int32))}
    for name, arr in (carry or {}).items():
        data[name] = pa.array(np.asarray(arr)[rows])
    return pa.table(data)


def _doc_salt(ids: pa.Array | pa.ChunkedArray, id_column: str,
              sub_splits: int) -> np.ndarray:
    """Per-document sub-split assignment for ANY id type. Integer ids hash
    vectorized; other types crc32 per DOCUMENT (bounded by docs per block,
    not postings). Null ids are rejected loudly — a null doc id would
    corrupt the posting lists silently."""
    ids = ids.combine_chunks() if isinstance(ids, pa.ChunkedArray) else ids
    if ids.null_count:
        raise ValueError(
            f"build_text_index: id column {id_column!r} contains "
            f"{ids.null_count} null(s); doc ids must be non-null")
    if pa.types.is_integer(ids.type):
        return (ids.cast(pa.int64()).to_numpy(zero_copy_only=False)
                .astype(np.int64) % sub_splits)
    s = ids.cast(pa.string())
    return np.asarray([zlib.crc32(v.encode()) for v in s.to_pylist()],
                      dtype=np.int64) % sub_splits


def build_text_index(ds, index_dir: str, column: str = "text",
                     id_column: str = "doc_id", num_shards: int = 64,
                     sub_splits: int = 2, positions: bool = False) -> dict:
    """One-time inverted-index build: tokenize + distinct per block, ONE
    keyed shuffle on (token-hash shard × doc-hash sub-split), one parquet
    posting file per occupied (shard, split) — atomic tmp+rename writes,
    and an existing complete index (meta.json) is reused as-is (resume).

    A missing meta.json means any shard files present are leftovers of an
    INTERRUPTED build (possibly of a different corpus): completeness is
    declared by meta.json alone, so stale shards are deleted up front —
    otherwise a shard the new corpus never rewrites would survive and
    searches would return doc ids that are not in the indexed data.

    Reuse is fingerprint-checked (VERDICT r3 #3): meta.json records a
    :func:`~plugin_serdes_ray.util.corpus_fingerprint` of the indexed
    input + build params; a meta whose fingerprint no longer matches the
    current corpus triggers a full rebuild instead of silently serving
    stale postings."""
    from ..util import corpus_fingerprint

    fp = corpus_fingerprint(
        ds, f"textindex:{column}:{id_column}:{num_shards}:{sub_splits}"
            f":{int(positions)}")
    meta_path = os.path.join(index_dir, "meta.json")
    if os.path.exists(meta_path):
        meta = json.load(open(meta_path))
        if meta.get("fingerprint") == fp:
            return meta
        os.remove(meta_path)   # corpus or params changed -> rebuild
    os.makedirs(index_dir, exist_ok=True)
    for stale in glob.glob(os.path.join(index_dir, "shard-*.parquet*")):
        os.remove(stale)

    def emit(batch: pa.Table) -> pa.Table:
        dsalt = _doc_salt(batch.column(id_column), id_column, sub_splits)
        tok_fn = tokenize_positions if positions else tokenize_distinct
        pairs = tok_fn(batch, column, id_column,
                       carry={"__dsalt": dsalt})
        toks = pairs.column("token").combine_chunks()
        # crc32 per DISTINCT token of the block (C call each; the distinct
        # collapse above bounds the loop by block vocabulary, not text)
        dct = pc.dictionary_encode(toks)
        vocab = dct.dictionary.to_pylist()
        shard_of_code = np.asarray([_shard_of(t, num_shards) for t in vocab],
                                   dtype=np.int64)
        codes = pc.fill_null(dct.indices, 0).to_numpy(
            zero_copy_only=False).astype(np.int64)
        salt = pairs.column("__dsalt").combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        return pairs.drop_columns(["__dsalt"]).append_column(
            "__shard", pa.array(shard_of_code[codes] * sub_splits + salt))

    def write_shard(group: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        key = int(group.column("__shard")[0].as_py())
        shard, salt = divmod(key, sub_splits)
        out = os.path.join(index_dir, f"shard-{shard:04d}-{salt}.parquet")
        tmp = out + f".tmp-{os.getpid()}"
        body = group.drop_columns(["__shard"])
        # cross-block dedup: tokenize_distinct only dedups (doc, token)
        # WITHIN one block, so a duplicate doc_id row in the corpus would
        # double its postings and make AND searches count one token twice
        # (false positives). All of a (doc, token)'s pairs land in THIS
        # group — the salt is a pure function of the id — so a local
        # distinct completes the dedup.
        body = body.group_by(body.column_names).aggregate([])
        # sort by token so parquet row-group stats allow token pruning
        body = body.sort_by("token")
        pq.write_table(body, tmp)
        os.replace(tmp, out)
        return pa.table({"shard": pa.array([shard], type=pa.int64()),
                         "postings": pa.array([group.num_rows],
                                              type=pa.int64())})

    emitted = map_batches(ds.select_columns([id_column, column]), emit)
    # one row per (shard, split)
    parts = map_groups(emitted.groupby("__shard"), write_shard).take_all()
    id_idx = list(ds.schema().names).index(id_column)
    id_schema = pa.schema([pa.field(id_column, ds.schema().types[id_idx])])
    meta = {"num_shards": num_shards, "sub_splits": sub_splits,
            "postings": int(sum(r["postings"] for r in parts)),
            "column": column, "id_column": id_column,
            "fingerprint": fp, "positions": positions,
            # exact Arrow id type (hex-IPC) so empty search results carry
            # the true schema, not a hardcoded int64
            "id_schema_hex": id_schema.serialize().to_pybytes().hex()}
    tmp = meta_path + ".tmp"
    json.dump(meta, open(tmp, "w"))
    os.replace(tmp, meta_path)
    return meta


def search_text_index(index_dir: str, tokens: list[str],
                      mode: str = "and"):
    """Boolean keyword search against a built index -> Dataset of
    ``id_column`` values (distinct, one row per matching document).

    Opens ONLY the shard files the query tokens hash to (a strict subset of
    the index), filters postings to the query tokens, then evaluates AND as
    a distributed ``groupby(doc).count == len(tokens)`` — the driver never
    holds a posting list."""
    import ray.data

    if mode not in ("and", "or"):
        raise ValueError(f"unknown mode {mode!r}")
    meta = json.load(open(os.path.join(index_dir, "meta.json")))
    id_column = meta["id_column"]
    # the index stores LOWERCASED tokens (tokenize_distinct applies
    # utf8_lower) — normalize the query the same way or any uppercase
    # query letter silently matches nothing
    tokens = sorted({t.lower() for t in tokens})
    shards = sorted({_shard_of(t, meta["num_shards"]) for t in tokens})
    files: list[str] = []
    for s in shards:
        files.extend(sorted(glob.glob(
            os.path.join(index_dir, f"shard-{s:04d}-*.parquet"))))
    if not files:
        hexs = meta.get("id_schema_hex")
        sch = (pa.ipc.read_schema(pa.py_buffer(bytes.fromhex(hexs)))
               if hexs else pa.schema([pa.field(id_column, pa.int64())]))
        return ray.data.from_arrow(sch.empty_table())
    need = len(tokens)
    tok_arr = pa.array(tokens)

    def filt(batch: pa.Table) -> pa.Table:
        out = batch.filter(pc.is_in(batch.column("token"),
                                    value_set=tok_arr))
        if meta.get("positions"):
            # positional postings carry one row per OCCURRENCE: collapse
            # to distinct (doc, token) so the AND count stays per-token
            out = out.select([id_column, "token"]).group_by(
                [id_column, "token"]).aggregate([])
        return out

    from ray.data.aggregate import Count

    src = map_batches(ray.data.read_parquet(files), filt)
    if meta.get("positions"):
        # the per-batch collapse in filt is not global: a posting file
        # split across read blocks would count one token twice for a doc
        # and break the AND arithmetic — one keyed distinct fixes it
        src = map_groups(
            src.groupby([id_column, "token"]), lambda g: g.slice(0, 1))
    hits = src.groupby(id_column).aggregate(Count())

    def emit(batch: pa.Table) -> pa.Table:
        cnt = batch.column("count()")
        keep = pc.greater_equal(cnt, need) if mode == "and" \
            else pc.greater_equal(cnt, 1)
        return batch.filter(keep).select([id_column])

    return map_batches(hits, emit)


def keyword_search(ds, tokens: list[str], mode: str = "and",
                   column: str = "text", id_column: str = "doc_id",
                   index_dir: str | None = None):
    """Build (or reuse) the inverted index, then search it."""
    import tempfile

    if index_dir is None:
        index_dir = tempfile.mkdtemp(prefix="text_index_")
    build_text_index(ds, index_dir, column=column, id_column=id_column)
    return search_text_index(index_dir, tokens, mode=mode)


def phrase_search_index(index_dir: str, phrase: str):
    """Exact phrase search against a POSITIONAL index (``positions=True``
    build): a document matches iff the lowercased phrase tokens occur
    CONSECUTIVELY among its non-empty whitespace tokens — exactly the
    docs whose space-joined token string contains ``' phrase '`` (the
    SQL twin). Returns a Dataset of distinct matching ids.

    Distributed evaluation, no driver posting sets: opens only the
    phrase tokens' shards; each occurrence of phrase token i at position
    p emits the candidate anchor ``(doc, p - i, role=i)`` (a token
    appearing at several phrase slots emits one row per role); an
    anchor with all ``len(phrase)`` roles present is a match —
    ``groupby(doc, anchor).count == L`` over distinct role rows, then
    one distinct-doc collapse."""
    import ray.data
    from ray.data.aggregate import Count

    meta = json.load(open(os.path.join(index_dir, "meta.json")))
    if not meta.get("positions"):
        raise ValueError("phrase_search_index needs an index built with "
                         "positions=True")
    id_column = meta["id_column"]
    toks = [t for t in phrase.lower().split() if t]
    if not toks:
        raise ValueError("phrase_search_index: empty phrase")
    roles: dict[str, list[int]] = {}
    for i, t in enumerate(toks):
        roles.setdefault(t, []).append(i)
    need = len(toks)
    shards = sorted({_shard_of(t, meta["num_shards"]) for t in roles})
    files: list[str] = []
    for s in shards:
        files.extend(sorted(glob.glob(
            os.path.join(index_dir, f"shard-{s:04d}-*.parquet"))))
    hexs = meta.get("id_schema_hex")
    empty_sch = (pa.ipc.read_schema(pa.py_buffer(bytes.fromhex(hexs)))
                 if hexs else pa.schema([pa.field(id_column, pa.int64())]))
    if not files:
        return ray.data.from_arrow(empty_sch.empty_table())
    tok_arr = pa.array(sorted(roles), type=pa.string())

    def anchors(batch: pa.Table) -> pa.Table:
        hit = batch.filter(pc.is_in(batch.column("token"),
                                    value_set=tok_arr))
        parts = []
        for t, rs in roles.items():
            rows = hit.filter(pc.equal(hit.column("token"), t))
            if rows.num_rows == 0:
                continue
            pos = rows.column("pos").combine_chunks().cast(pa.int64())
            for i in rs:
                anchor = pc.subtract(pos, pa.scalar(i, type=pa.int64()))
                part = pa.table({id_column: rows.column(id_column),
                                 "anchor": anchor,
                                 "role": pa.array(
                                     np.full(rows.num_rows, i,
                                             dtype=np.int64))})
                # anchors < 0 can never complete a phrase
                parts.append(part.filter(
                    pc.greater_equal(part.column("anchor"), 0)))
        if not parts:
            return pa.table({
                id_column: pa.array(
                    [], type=empty_sch.field(id_column).type),
                "anchor": pa.array([], type=pa.int64()),
                "role": pa.array([], type=pa.int64())})
        out = pa.concat_tables(parts)
        # postings are distinct per (doc, token, pos), so (doc, anchor,
        # role) rows are already distinct within this batch
        return out

    hits = (map_batches(ray.data.read_parquet(files), anchors)
            .groupby([id_column, "anchor"]).aggregate(Count()))

    def emit(batch: pa.Table) -> pa.Table:
        keep = pc.greater_equal(batch.column("count()"), need)
        return batch.filter(keep).select([id_column]) \
            .group_by([id_column]).aggregate([])

    matched = map_batches(hits, emit)
    # a doc can match at several anchors across blocks: one last distinct
    return map_groups(matched.groupby(id_column), lambda g: g.slice(0, 1))


def phrase_search(ds, phrase: str, column: str = "text",
                  id_column: str = "doc_id",
                  index_dir: str | None = None):
    """Build (or reuse) a positional index, then phrase-search it."""
    import tempfile

    if index_dir is None:
        index_dir = tempfile.mkdtemp(prefix="text_index_pos_")
    build_text_index(ds, index_dir, column=column, id_column=id_column,
                     positions=True)
    return phrase_search_index(index_dir, phrase)


# ---------------------------------------------------------------------------
# BM25 ranked retrieval
# ---------------------------------------------------------------------------

def bm25_search(ds, query_tokens: list[str], k: int = 10,
                column: str = "text", id_column: str = "doc_id",
                k1: float = 1.2, b: float = 0.75,
                round_digits: int = 9):
    """Okapi BM25 ranked retrieval over the corpus (Robertson et al.,
    TREC-3 — the standard ranking function boolean :func:`keyword_search`
    lacks), computed exactly and in ONE corpus scan:

    ``score(d) = sum_t idf(t) * tf * (k1+1) / (tf + k1*(1 - b + b*dl/avgdl))``
    with the non-negative idf ``ln(1 + (N - df + 0.5)/(df + 0.5))``;
    ``dl`` = the document's whitespace token count (lowercased, the
    :func:`tokenize_distinct` convention), ``avgdl`` over ALL documents.

    Scale shape: the query token set rides the task closure (it is a
    handful of strings); one tokenize pass per block emits union-tagged
    fixed-width partials — per-block ``(n_docs, sum_dl)`` stat rows and
    ``(doc, token, tf, dl)`` rows for QUERY tokens only (vectorized
    ``pc.is_in`` prefilter) — materialized once for its two consumers.
    ``df`` collapses to <= |query| rows; idf computes driver-side; the
    final ranking is a per-doc Sum shuffle of match rows only, then a
    two-level exact top-k (per-block cut + O(k·blocks) driver merge) by
    ``(round(score, round_digits) DESC, id ASC)`` — round-before-rank
    keeps the cut deterministic under float summation-order noise.

    Doc ids must be UNIQUE and NON-NULL (the standard retrieval-corpus
    contract, same as :func:`build_text_index`): a null id raises inside
    the scan, and a duplicate id is raised when both occurrences land in
    one block (cross-block duplicates are undetectable without a shuffle
    and silently merge their term frequencies).  Any Arrow id type works
    — the output id column keeps the input's type.

    Returns a pyarrow Table ``(id_column, score)`` of the top ``k``.
    """
    from ray.data.aggregate import Sum

    sch = ds.schema()
    id_type = dict(zip(sch.names, sch.types))[id_column]
    qset = pa.array(sorted({t.lower() for t in query_tokens}),
                    type=pa.string())

    def partial(batch: pa.Table) -> pa.Table:
        pre = batch.column(id_column).combine_chunks()
        if pre.null_count:
            raise ValueError(
                f"bm25_search: null {id_column!r} in the corpus — doc ids "
                "must be unique and non-null")
        if len(pre) > pc.count_distinct(pre).as_py():
            raise ValueError(
                f"bm25_search: duplicate {id_column!r} values in one "
                "block — doc ids must be unique")
        col = pc.fill_null(batch.column(column).combine_chunks(), "")
        toks_l = pc.split_pattern_regex(pc.utf8_lower(col), r"\s+")
        lens = pc.list_value_length(toks_l).to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(toks_l)
        ne = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        rep = np.repeat(np.arange(batch.num_rows, dtype=np.int64), lens)
        dl = np.bincount(rep[ne], minlength=batch.num_rows).astype(np.int64)
        hit = pc.is_in(flat, value_set=qset).to_numpy(
            zero_copy_only=False) & ne
        ids = batch.column(id_column).combine_chunks()
        t = pa.table({id_column: ids.take(pa.array(rep[hit])),
                      "token": flat.filter(pa.array(hit))})
        g = t.group_by([id_column, "token"]).aggregate([([], "count_all")])
        from ..util import grouped_rename_positional
        g = grouped_rename_positional(
            g, [id_column, "token"], ["tf"]).select(
            [id_column, "token", "tf"])
        # doc lengths for matching docs ride along via a join-free gather
        pos = pc.index_in(g.column(id_column), value_set=ids).to_numpy(
            zero_copy_only=False).astype(np.int64)
        g = g.append_column("dl", pa.array(dl[pos]))
        g = g.append_column("tag", pa.array(["m"] * g.num_rows))
        stat = pa.table({
            id_column: pa.nulls(1, ids.type),
            "token": pa.array([None], type=pa.string()),
            "tf": pa.array([batch.num_rows], type=pa.int64()),
            "dl": pa.array([int(dl.sum())], type=pa.int64()),
            "tag": pa.array(["s"])})
        return pa.concat_tables([g.cast(stat.schema), stat])

    tagged = map_batches(
        ds.select_columns([id_column, column]), partial).materialize()

    stats = map_batches(tagged, lambda t: t.filter(
        pc.equal(t.column("tag"), "s")).select(["tf", "dl"])).take_all()
    n_docs = sum(r["tf"] for r in stats)
    sum_dl = sum(r["dl"] for r in stats)
    if n_docs == 0:
        return pa.table({id_column: pa.array([], type=id_type),
                         "score": pa.array([], type=pa.float64())})
    avgdl = sum_dl / n_docs

    matches = map_batches(tagged, lambda t: t.filter(
        pc.equal(t.column("tag"), "m")).drop(["tag"]))
    df_rows = matches.groupby("token").count().take_all()   # <= |query|
    idf = {r["token"]: float(np.log(1.0 + (n_docs - r["count()"] + 0.5)
                                    / (r["count()"] + 0.5)))
           for r in df_rows}
    if not idf:
        return pa.table({id_column: pa.array([], type=id_type),
                         "score": pa.array([], type=pa.float64())})

    idf_keys = pa.array(sorted(idf), type=pa.string())
    idf_vals = np.array([idf[t] for t in sorted(idf)])

    def contrib(t: pa.Table) -> pa.Table:
        tf = t.column("tf").combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.float64)
        dl = t.column("dl").combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.float64)
        ti = pc.index_in(t.column("token").combine_chunks(),
                         value_set=idf_keys).to_numpy(
            zero_copy_only=False).astype(np.int64)
        s = idf_vals[ti] * tf * (k1 + 1.0) / (
            tf + k1 * (1.0 - b + b * dl / avgdl))
        return pa.table({id_column: t.column(id_column),
                         "__s": pa.array(s)})

    per_doc = (map_batches(matches, contrib)
                      .groupby(id_column).aggregate(Sum("__s")))

    def block_top(t: pa.Table) -> pa.Table:
        s = t.column("sum(__s)").combine_chunks().to_numpy(
            zero_copy_only=False)
        out = pa.table({id_column: t.column(id_column),
                        "score": pa.array(np.round(s, round_digits))})
        if out.num_rows > k:
            order = pc.sort_indices(out, sort_keys=[
                ("score", "descending"), (id_column, "ascending")])
            out = out.take(order.slice(0, k))
        return out

    rows = map_batches(per_doc, block_top).take_all()
    rows.sort(key=lambda r: (-r["score"], r[id_column]))
    rows = rows[:k]
    return pa.table({
        id_column: pa.array([r[id_column] for r in rows], type=id_type),
        "score": pa.array([r["score"] for r in rows], type=pa.float64())})


def rrf_fuse(ranked_ids: list, k: int = 10, rrf_k: int = 60) -> pa.Table:
    """Reciprocal-rank fusion (Cormack, Clarke & Buettcher, SIGIR 2009)
    of rank-ordered id lists: ``score(d) = Σ_arms 1/(rrf_k + rank_arm(d))``
    over the arms that retrieved ``d`` (1-based ranks), ties broken by id
    ascending. Runs driver-side — the inputs are each arm's top-``fetch_k``
    (O(arms·fetch_k) rows), never the corpus. Accumulation is
    left-to-right in arm order, so an external recompute that adds the
    terms in the same order matches float64 bit-for-bit.

    Returns ``(id, score, rank_0, rank_1, ...)`` — one nullable int64
    rank column per arm — top ``k`` rows."""
    scores: dict = {}
    ranks: list[dict] = []
    for ids in ranked_ids:
        arm_rank: dict = {}
        for rank, i in enumerate(ids, 1):
            scores[i] = scores.get(i, 0.0) + 1.0 / (rrf_k + rank)
            arm_rank[i] = rank
        ranks.append(arm_rank)
    top = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    cols = {"id": pa.array([i for i, _ in top]),
            "score": pa.array([s for _, s in top], type=pa.float64())}
    for a, arm_rank in enumerate(ranks):
        cols[f"rank_{a}"] = pa.array(
            [arm_rank.get(i) for i, _ in top], type=pa.int64())
    return pa.table(cols)


def hybrid_search(ds, query_tokens: list[str], query_vector,
                  k: int = 10, *, rrf_k: int = 60,
                  fetch_k: Optional[int] = None,
                  column: str = "text", id_column: str = "doc_id",
                  emb_ds=None, vector_column: str = "embedding",
                  k1: float = 1.2, b: float = 0.75,
                  round_digits: int = 9) -> pa.Table:
    """Hybrid lexical + dense retrieval with RRF fusion — the standard
    two-tower RAG retrieval shape. Corpus-side cost is exactly the two
    arm scans, each already scale-shaped:

    - BM25 arm: :func:`bm25_search` (one tagged tokenize pass, driver
      idf, per-doc Sum of match rows only, round-then-rank top-k);
    - dense arm: exact cosine top-k (:func:`ann.knn_brute` in float64 —
      query ``ray.put`` once, per-batch matmul, O(k·blocks) merge) over
      ``emb_ds`` (a dataset carrying ``(id_column, vector_column)``;
      default: :func:`vectors.text_to_embeddings` of ``ds`` — the
      model-stand-in featurizer), re-ranked by (round(score,
      ``round_digits``) DESC, id ASC) so rank order is reproducible by
      an external recompute;
    - fusion: :func:`rrf_fuse` driver-side over O(fetch_k) rows per arm
      (``fetch_k`` defaults to ``2*k``).

    Returns ``(id_column, score, bm25_rank, ann_rank)`` top-``k``."""
    import numpy as np

    from .ann import knn_brute

    fk = fetch_k or 2 * k
    bm = bm25_search(ds, query_tokens, k=fk, column=column,
                     id_column=id_column, k1=k1, b=b,
                     round_digits=round_digits)
    if emb_ds is None:
        from .vectors import text_to_embeddings
        emb_ds = text_to_embeddings(ds, column=column,
                                    out_column=vector_column)
    ann = knn_brute(emb_ds, np.asarray([query_vector]), k=fk,
                    vector_column=vector_column, id_column=id_column,
                    dtype=np.float64)
    arows = sorted(
        ((round(float(s), round_digits), i)
         for i, s in zip(ann.column("vec_id").to_pylist(),
                         ann.column("score").to_pylist())),
        key=lambda t: (-t[0], t[1]))
    fused = rrf_fuse([bm.column(id_column).to_pylist(),
                      [i for _, i in arows]], k=k, rrf_k=rrf_k)
    return fused.rename_columns(
        [id_column, "score", "bm25_rank", "ann_rank"])
