"""Distributed BPE tokenizer training and encoding.

Implements the public byte-pair-encoding algorithm (Sennrich, Haddow &
Birch, "Neural Machine Translation of Rare Words with Subword Units",
ACL 2016) the way every production tokenizer trainer does: train over the
WORD HISTOGRAM, not the raw corpus.  The reference plugin
(kestra-io/plugin-serdes) has no tokenizer; this module is part of the
engine's LLM-training-data surface (SURVEY.md additions), alongside
``textstats`` (token counting) and ``vectors`` (featurization).

Scale shape (the whole point):

- :func:`word_histogram` — raw text leaves the corpus EXACTLY once: a
  vectorized whitespace split + per-block ``group_by(word)`` partial
  counts, then ONE ``groupby(word).Sum`` shuffle of fixed-width
  ``(word, count)`` rows.  Every later stage runs over the histogram,
  which is |vocab|-sized (millions of rows at 100 TB), not corpus-sized.
- each merge iteration of :func:`bpe_train` — pair extraction is fully
  vectorized (``split_pattern`` + offset math + ``binary_join``), pairs
  are pre-aggregated per block before ONE ``groupby(pair).Sum`` shuffle
  of ``(pair, count)`` rows, the global argmax is a per-block best +
  O(blocks) driver merge, and the merge application touches only rows
  whose symbol string matches a vectorized substring prefilter (the
  per-word scan-merge runs on that usually-tiny residue).  Driver state
  is the merge list — O(n_merges) tuples, never the vocabulary.
- :class:`BpeEncoder` — an actor-pool ``map_batches`` stage: merge ranks
  are built once per actor in ``__init__``; encoding memoizes per
  distinct word, so a templated web corpus pays the merge loop once per
  vocab entry per actor, not once per occurrence.

Determinism: ties on the pair count break by lexicographically smallest
``(left, right)`` pair, so the merge sequence is a pure function of the
corpus — identical across runs, block layouts and cluster sizes (the
pair counts are exact integer sums).

The U+001F (unit separator) character is reserved as the internal symbol
delimiter; words containing it are dropped by ``word_histogram`` (and the
SQL oracle mirrors the drop).  Real text never contains it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import grouped_rename_positional, map_batches

SEP = "\x1f"


# ---------------------------------------------------------------------------
# word histogram
# ---------------------------------------------------------------------------

def word_histogram(ds, column: str = "text"):
    """``(word, n)`` global counts: whitespace-split (``\\s+``, empties
    dropped — the :func:`~.textstats._word_rows` convention, SQL
    ``regexp_split_to_array`` parity), per-block ``group_by`` partials,
    one ``groupby(word).Sum`` shuffle."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        from .textstats import _word_rows

        col = pc.fill_null(batch.column(column).combine_chunks(), "")
        _, words = _word_rows(col)
        # reserved-delimiter words are dropped (doc above); vectorized
        keep = pc.invert(pc.match_substring(words, SEP))
        vc = words.filter(keep).value_counts()
        return pa.table({"word": vc.field(0),
                         "__w": vc.field(1).cast(pa.int64())})

    g = (map_batches(ds, partial)
           .groupby("word").aggregate(Sum("__w")))

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({"word": batch.column("word"),
                         "n": batch.column("sum(__w)").cast(pa.int64())})

    return map_batches(g, rename)


# ---------------------------------------------------------------------------
# pair counting (one merge iteration's statistics)
# ---------------------------------------------------------------------------

def _sym_pairs_partial(batch: pa.Table) -> pa.Table:
    """Per-block ``(pair, w)`` partial sums over a ``(sym, n)`` histogram
    block.  ``sym`` is the word's current symbol sequence joined by SEP.
    Every ADJACENT position counts (the word ``aaa`` contributes the pair
    ``(a, a)`` twice, weighted by the word count) — exactly the reference
    algorithm's statistics.  Fully vectorized."""
    syms = batch.column("sym").combine_chunks()
    n = batch.column("n").combine_chunks().cast(pa.int64()).to_numpy(
        zero_copy_only=False)
    toks = pc.split_pattern(syms, SEP)
    lens = pc.list_value_length(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(toks)
    m = len(flat)
    empty = pa.table({"pair": pa.array([], type=pa.string()),
                      "__w": pa.array([], type=pa.int64())})
    if m < 2:
        return empty
    row = np.repeat(np.arange(len(syms), dtype=np.int64), lens)
    same = row[:-1] == row[1:]
    if not same.any():
        return empty
    a = flat.slice(0, m - 1)
    b = flat.slice(1, m - 1)
    pair = pc.binary_join_element_wise(
        a, b, pa.scalar(SEP, type=a.type)).filter(pa.array(same))
    w = np.repeat(n, lens)[:-1][same]
    t = pa.table({"pair": pair, "w": pa.array(w, type=pa.int64())})
    g = t.group_by("pair").aggregate([("w", "sum")])
    # pin (pair, __w) order — grouped_rename_positional absorbs the
    # pyarrow-version-dependent key/aggregate layout but keeps whichever
    # order the version emitted, and the early-out empty table above is
    # (pair, __w); mixed block schemas would crash the groupby shuffle
    return grouped_rename_positional(g, ["pair"], ["__w"]).select(
        ["pair", "__w"])


def pair_counts(hist, sym_col: str = "sym"):
    """Global ``(pair, cnt)`` counts over a symbolized histogram: block
    partials then ONE ``groupby(pair).Sum``.  ``pair`` is
    ``left + SEP + right``; exposed for the oracle-checked query."""
    from ray.data.aggregate import Sum

    src = hist
    if sym_col != "sym":
        src = map_batches(src, lambda b: pa.table(
            {"sym": b.column(sym_col), "n": b.column("n")}))
    g = (map_batches(src, _sym_pairs_partial)
            .groupby("pair").aggregate(Sum("__w")))

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({"pair": batch.column("pair"),
                         "cnt": batch.column("sum(__w)").cast(pa.int64())})

    return map_batches(g, rename)


def _pair_key(p: str) -> tuple[str, str]:
    """(left, right) TUPLE for tie ordering.  Comparing the SEP-joined
    string instead would diverge from the reference lexicographic tuple
    order whenever a symbol contains a codepoint below U+001F (tuple
    compares left fully before right; the joined string compares the
    separator byte against the symbol's next char).  Symbols never
    contain SEP, so the split is exact."""
    left, _, right = p.partition(SEP)
    return left, right


def _best_pair(counts) -> Optional[tuple[str, str, int]]:
    """Global argmax of a ``(pair, cnt)`` Dataset with deterministic ties
    (count desc, then lexicographically smallest ``(left, right)``):
    per-block best row, O(blocks) driver merge.  Returns
    ``(left, right, count)``.  ``counts`` is the post-aggregate table, so
    each pair appears once and block-max-of-block-maxes is the global
    max; the per-block tie-break boxes only the rows tied at the block's
    max count."""
    def block_best(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        cnt = batch.column("cnt").to_numpy(zero_copy_only=False)
        sub = batch.filter(pa.array(cnt == cnt.max()))
        tied = sub.column("pair").to_pylist()
        i = min(range(len(tied)), key=lambda j: _pair_key(tied[j]))
        return sub.slice(i, 1)

    rows = map_batches(counts, block_best).take_all()
    if not rows:
        return None
    best = min(rows, key=lambda r: (-r["cnt"], _pair_key(r["pair"])))
    left, right = _pair_key(best["pair"])
    return left, right, int(best["cnt"])


# ---------------------------------------------------------------------------
# merge application
# ---------------------------------------------------------------------------

def _merge_word(parts: list[str], a: str, b: str) -> list[str]:
    """Greedy left-to-right merge of adjacent (a, b) — the reference
    semantics (``aaa`` with pair ``(a, a)`` becomes ``[aa, a]``)."""
    out = []
    i, n = 0, len(parts)
    while i < n:
        if i + 1 < n and parts[i] == a and parts[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(parts[i])
            i += 1
    return out


def _apply_merge(batch: pa.Table, a: str, b: str) -> pa.Table:
    """Apply one merge to a ``(sym, n)`` block.  A vectorized substring
    prefilter (``a + SEP + b``) selects candidate rows — zero false
    negatives (the pair's symbols are always SEP-adjacent in ``sym``),
    rare false positives (the pattern matched inside longer symbols) are
    discarded by the exact per-word scan, which runs ONLY on the
    usually-tiny matching residue."""
    syms = batch.column("sym").combine_chunks()
    pat = a + SEP + b
    mask = pc.match_substring(syms, pat)
    if not pc.any(mask).as_py():
        return batch
    # the histogram is a bag of (sym, n) — row order is meaningless — so
    # split matched/unmatched and only ever box the matched residue
    hit = batch.filter(mask)
    miss = batch.filter(pc.invert(mask))
    new = [SEP.join(_merge_word(s.split(SEP), a, b))
           for s in hit.column("sym").to_pylist()]
    merged = pa.table({"sym": pa.array(new, type=pa.string()),
                       "n": hit.column("n")})
    return pa.concat_tables([miss, merged])


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def symbolize(hist):
    """Initial symbolization of a ``(word, n)`` histogram: one symbol per
    Unicode codepoint, SEP-joined (`sym` column).  The join is a C-speed
    per-word ``str.join`` over the VOCAB (one pass, histogram-sized)."""
    def init(batch: pa.Table) -> pa.Table:
        words = batch.column("word").to_pylist()
        return pa.table({
            "sym": pa.array([SEP.join(w) for w in words], type=pa.string()),
            "n": batch.column("n").cast(pa.int64())})

    return map_batches(hist, init)


def bpe_train(ds, column: str = "text", n_merges: int = 100,
              min_count: int = 1) -> list[tuple[str, str]]:
    """Train ``n_merges`` BPE merges over ``ds[column]``.  Returns the
    merge list in training order — the entire driver state.

    The histogram is materialized once and re-materialized per iteration
    (it is vocab-sized; the alternative — an ever-deepening lazy lineage
    — re-runs all prior merges every iteration).  Stops early when the
    best remaining pair's count falls below ``min_count`` or no pairs
    remain (all words are single symbols)."""
    hist = symbolize(word_histogram(ds, column)).materialize()
    merges: list[tuple[str, str]] = []
    for _ in range(n_merges):
        counts = pair_counts(hist)
        best = _best_pair(counts)
        if best is None:
            break
        a, b, cnt = best
        if cnt < min_count:
            break
        merges.append((a, b))
        hist = map_batches(hist, lambda batch, a=a, b=b: _apply_merge(
            batch, a, b)).materialize()
    return merges


# ---------------------------------------------------------------------------
# encoding (inference)
# ---------------------------------------------------------------------------

def encode_word(word: str, ranks: dict[tuple[str, str], int]) -> list[str]:
    """Tokenize one word with trained merges: repeatedly apply the
    LOWEST-RANK applicable merge (equivalent to replaying the merges in
    training order — the standard inference algorithm)."""
    parts = list(word)
    while len(parts) > 1:
        best_rank, best_i = None, -1
        for i in range(len(parts) - 1):
            r = ranks.get((parts[i], parts[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_i = r, i
        if best_rank is None:
            break
        a, b = parts[best_i], parts[best_i + 1]
        # merge EVERY adjacent (a, b) left-to-right, as training did
        parts = _merge_word(parts, a, b)
    return parts


class BpeEncoder:
    """Actor-pool ``map_batches`` stage: append ``n_bpe_tokens`` (and
    optionally the token list is NOT emitted — long format via
    :func:`token_histogram` instead; list columns break the driver's
    row-sort compare).  Ranks built once per actor; per-word memo cache
    bounds the merge loop to once per distinct word per actor.

    Use: ``util.map_batches(ds, BpeEncoder, fn_constructor_kwargs={"merges":
    merges}, concurrency=N)``.
    """

    def __init__(self, merges: Sequence[tuple[str, str]],
                 column: str = "text", out_col: str = "n_bpe_tokens"):
        self.ranks = {tuple(m): i for i, m in enumerate(merges)}
        self.column = column
        self.out_col = out_col
        self.cache: dict[str, int] = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .textstats import _word_rows

        col = pc.fill_null(batch.column(self.column).combine_chunks(), "")
        row, words = _word_rows(col)
        n = len(col)
        if len(words) == 0:
            return batch.append_column(
                self.out_col, pa.array(np.zeros(n, dtype=np.int64)))
        # Python touches each DISTINCT word once (dictionary_encode
        # collapses occurrences in C); the per-occurrence accumulation is
        # one vectorized gather + bincount scatter — a templated corpus
        # pays the merge loop per vocab entry, never per token
        dct = pc.dictionary_encode(words)
        vocab = dct.dictionary.to_pylist()
        cache = self.cache
        tok_len = np.empty(len(vocab), dtype=np.int64)
        for i, w in enumerate(vocab):
            c = cache.get(w)
            if c is None:
                if SEP in w:
                    c = 0      # reserved-delimiter words: dropped, as in
                    #            training (word_histogram drops them)
                else:
                    c = len(encode_word(w, self.ranks))
                cache[w] = c
            tok_len[i] = c
        codes = dct.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        counts = np.bincount(row, weights=tok_len[codes],
                             minlength=n).astype(np.int64)
        return batch.append_column(self.out_col,
                                   pa.array(counts, type=pa.int64()))


def bpe_token_counts(ds, merges: Sequence[tuple[str, str]],
                     column: str = "text", out_col: str = "n_bpe_tokens",
                     concurrency: int = 4):
    """Corpus pass appending the trained-tokenizer token count per row."""
    return map_batches(
        ds, BpeEncoder, fn_constructor_kwargs={
            "merges": [tuple(m) for m in merges], "column": column,
            "out_col": out_col},
        concurrency=concurrency)


def token_histogram(ds, merges: Sequence[tuple[str, str]],
                    column: str = "text", concurrency: int = 4):
    """Global ``(token, n)`` counts under the trained tokenizer: encode
    per block (memoized actor), per-block ``value_counts`` partials, one
    ``groupby(token).Sum`` shuffle — the vocabulary-coverage profile a
    tokenizer evaluation needs."""
    from ray.data.aggregate import Sum

    class Hist(BpeEncoder):
        def __init__(self, **kw):
            super().__init__(**kw)
            self._tcache: dict[str, list[str]] = {}   # word -> token list

        def __call__(self, batch: pa.Table) -> pa.Table:  # type: ignore[override]
            col = pc.fill_null(batch.column(self.column).combine_chunks(),
                               "")
            from .textstats import _word_rows

            _, words = _word_rows(col)
            vc = words.value_counts()
            toks: list[str] = []
            ws: list[int] = []
            wcache = self._tcache
            for w, c in zip(vc.field(0).to_pylist(),
                            vc.field(1).to_pylist()):
                if SEP in w:
                    continue
                t = wcache.get(w)
                if t is None:
                    t = encode_word(w, self.ranks)
                    wcache[w] = t
                toks.extend(t)
                ws.extend([c] * len(t))
            t_ = pa.table({"token": pa.array(toks, type=pa.string()),
                           "__w": pa.array(ws, type=pa.int64())})
            g = t_.group_by("token").aggregate([("__w", "sum")])
            return grouped_rename_positional(g, ["token"], ["__w"])

    hist = map_batches(ds, Hist, fn_constructor_kwargs={
        "merges": [tuple(m) for m in merges], "column": column},
        concurrency=concurrency)
    g = hist.groupby("token").aggregate(Sum("__w"))

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({"token": batch.column("token"),
                         "n": batch.column("sum(__w)").cast(pa.int64())})

    return map_batches(g, rename)
