"""Turnkey pipeline presets composing the engine's stages end to end —
the one-call entry points a corpus owner actually runs, built ONLY from
the individually oracle-checked operators in this package.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..util import map_batches


def clean_web_corpus(ds, text_col: str = "text", id_col: str = "doc_id", *,
                     min_words: int = 50, max_words: int = 100_000,
                     near_dedup: bool = False, c4_lines: bool = False,
                     boilerplate_min_df: int = 0,
                     dup_spans: bool = False,
                     dup_span_max_occurrences: int | None = 10_000,
                     splits: dict | None = None, seed: int = 0):
    """The standard web-corpus cleaning chain in one call:

    0. optional C4 LINE CLEANING (``c4_lines=True`` —
       textstats.c4_signals: terminal-punctuation / >=3-words /
       no-javascript line keep rule, lorem-ipsum + curly-brace page
       drop) and optional FREQUENT-LINE BOILERPLATE removal
       (``boilerplate_min_df > 0`` — dedup.remove_frequent_lines: every
       occurrence of a line in >= min_df documents is dropped);
    1. Gopher quality FILTER (textstats.gopher_signals + gopher_filter,
       Rae et al. 2021 thresholds) — drops repetitious/degenerate pages
       map-only;
    2. case/punctuation/whitespace-insensitive EXACT DEDUP — the
       canonical key (textstats.canonicalize_text) feeds dedup.exact_dedup
       (min-id per canonical value, one hash-count pass + narrow group),
       catching trivially-reformatted copies without LSH;
    3. optional NEAR-DUP removal (``near_dedup=True`` — the fully
       distributed MinHash-LSH filter, dedup.minhash_lsh_dedup at its
       default thresholds; off by default because LSH thresholds
       are corpus-specific);
    3b. optional EXACT-SUBSTRING removal (``dup_spans=True`` —
       dedup.remove_duplicate_spans excises all-but-first occurrences of
       cross-document duplicated spans from surviving rows, with the
       ``dup_span_max_occurrences`` boilerplate cap; runs after the
       row-level dedups so span work never pays for dropped docs);
    4. deterministic train/val/test SPLIT assignment
       (relational.assign_splits — splitmix64 row hash, stable across
       runs and cluster sizes; default 98/1/1).

    Returns the cleaned Dataset: surviving rows with the original columns
    plus ``split``. Every stage streams; the only shuffles are
    exact_dedup's duplicated-hash group and (when enabled) the LSH band
    buckets.
    """
    from .dedup import (exact_dedup, minhash_lsh_dedup,
                        remove_duplicate_spans, remove_frequent_lines)
    from .relational import assign_splits
    from .textstats import (c4_signals, canonicalize_text, gopher_filter,
                            gopher_signals)

    canon = "__canonical"

    if c4_lines:
        def c4_pass(b: pa.Table) -> pa.Table:
            s = c4_signals(b, column=text_col)
            s = s.filter(s.column("c4_keep_page"))
            keep = s.drop_columns([text_col]).rename_columns(
                [text_col if c == "c4_text" else c
                 for c in s.drop_columns([text_col]).column_names])
            return keep.select(b.column_names)

        ds = map_batches(ds, c4_pass)
    if boilerplate_min_df > 0:
        # replace=True keeps every other column in place — the corpus is
        # never re-joined to itself
        ds = remove_frequent_lines(
            ds, column=text_col, id_column=id_col,
            min_df=boilerplate_min_df, replace=True)
        ds = map_batches(ds, lambda b: b.drop_columns(["n_removed"]))

    def quality_pass(b: pa.Table) -> pa.Table:
        scored = gopher_filter(gopher_signals(b, column=text_col),
                               min_words=min_words, max_words=max_words,
                               out="__keep")
        kept = scored.filter(pc.fill_null(scored.column("__keep"), False))
        kept = kept.select(b.column_names)          # drop signal columns
        return canonicalize_text(kept, text_col, out=canon)

    scored = map_batches(ds, quality_pass)
    deduped = exact_dedup(scored, canon, id_col)
    deduped = map_batches(deduped, lambda b: b.drop_columns([canon]))
    if near_dedup:
        deduped = minhash_lsh_dedup(deduped, text_col, id_col)
    if dup_spans:
        # replace=True keeps sibling columns riding the operator's own
        # bloom routes (the corpus is never re-joined to itself); the
        # upstream dedups re-execute per scan, so pin a snapshot first —
        # the span pass's determinism contract
        deduped = remove_duplicate_spans(
            deduped.materialize(), text_col, id_col,
            max_gram_occurrences=dup_span_max_occurrences,
            replace=True)
        deduped = map_batches(deduped, lambda b: b.drop_columns(
            ["n_spans_removed", "removed_chars"]))
    return assign_splits(deduped, id_col,
                         splits or {"train": 0.98, "val": 0.01,
                                    "test": 0.01}, seed=seed)


def prepare_pretraining_shards(ds, out_dir: str, *,
                               text_col: str = "text",
                               id_col: str = "doc_id",
                               seq_len: int = 2048, n_shards: int = 64,
                               seed: int = 0, resume: bool = True,
                               clean_kwargs: dict | None = None) -> dict:
    """Corpus -> training shards in ONE call, composing the
    individually-oracle-checked stages end to end:

    1. :func:`clean_web_corpus` (quality filter + canonical exact dedup +
       train/val/test split; pass ``clean_kwargs`` to tune or enable the
       optional C4/boilerplate/near-dup stages);
    2. whitespace token counts (``textstats.token_counts``, Arrow-native,
       BPE loop off);
    3. deterministic epoch shuffle (``relational.global_shuffle`` — the
       seeded splitmix permutation, reproducible across cluster sizes);
    4. concat-and-chop sequence packing in SHUFFLED order
       (``relational.pack_sequences`` over the shuffle rank): every doc
       gets the ``seq_len``-token window it starts in;
    5. whole windows round-robin onto ``n_shards`` shards
       (``shard = bin_id % n_shards`` — a window never splits across
       shards) and a RESUMABLE hive-partitioned parquet write
       (``sinks.parquet_.write_partitioned``): a rerun after a failure
       pays only the missing shards.

    Returns the write stats dict (written/skipped shard counts + rows).
    """
    from ..sinks.parquet_ import write_partitioned
    from .relational import global_shuffle, pack_sequences
    from .textstats import token_counts

    cleaned = clean_web_corpus(ds, text_col, id_col, seed=seed,
                               **(clean_kwargs or {}))
    counted = map_batches(
        cleaned, lambda b: token_counts(b, column=text_col, bpe=False))
    shuffled = global_shuffle(counted, id_col, seed=seed)
    packed = pack_sequences(shuffled, "ws_tokens", "rank", int(seq_len))

    # modulo is numpy territory (no pc.mod kernel across versions)
    import numpy as np

    def shard_of(b: pa.Table) -> pa.Table:
        bins = b.column("bin_id").combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        return b.append_column(
            "shard_id", pa.array(bins % int(n_shards), type=pa.int64()))

    sharded = map_batches(packed, shard_of)
    return write_partitioned(sharded, out_dir, "shard_id", resume=resume)
