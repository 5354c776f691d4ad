"""Distributed multinomial Naive Bayes text classification.

The fasttext-style linear quality/language classifier every web-corpus
pipeline trains and applies at scale (CCNet's fasttext language ID, the
GPT-3 WebText quality filter — public papers).  The reference plugin
(kestra-io/plugin-serdes) has no classifier; this module is part of the
engine's LLM-training-data surface alongside ``textstats`` (heuristic
quality signals) and ``vectors`` (featurization / k-means).

Why Naive Bayes and not SGD: training is PURE AGGREGATION — per-(label,
token) occurrence counts plus per-label document counts — so the whole
fit is one corpus scan with per-block ``group_by`` partials and ONE
``groupby([label, token]).Sum`` shuffle of fixed-width rows.  No
parameter server, no iteration, deterministic regardless of block layout
or cluster size (counts are exact integers).

Scale shape:

- :func:`nb_train` — raw text leaves the corpus exactly once.  Every
  post-scan table is vocabulary-sized (|V|·|C| rows), never corpus-sized.
  Driver state is the MODEL: ``O(vocab_size · n_classes)`` floats,
  bounded by the ``vocab_size`` cap (top-V tokens by total count; all
  remaining mass folds into a single OOV bucket, so the cap loses no
  probability mass and the model stays broadcastable at any corpus size).
- :func:`nb_classify` — the model is ``ray.put`` ONCE and read per task;
  scoring is map-only and fully vectorized: one ``pc.index_in`` against
  the vocab per batch, one gather + per-class ``np.bincount`` scatter-add.
  The corpus never shuffles.

Determinism contracts (all mirrored by the SQL oracle):

- tokens: whitespace split (:func:`~.textstats._word_rows` convention).
- vocabulary: top-``vocab_size`` tokens by (total count DESC, token ASC)
  — exact distributed selection (per-block partial top-V, driver merge).
- smoothing: Laplace ``alpha`` over ``V + 1`` buckets (vocab + OOV):
  ``p(t|c) = (cnt + alpha) / (total_c + alpha·(V+1))``.
- prediction: scores rounded to ``round_digits`` BEFORE the argmax, ties
  broken by the lexicographically smallest label — a pure function of
  the corpus, immune to float summation-order noise across block layouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import grouped_rename_positional, map_batches


@dataclass
class NBModel:
    """A trained multinomial NB model — the entire driver/broadcast state.

    ``labels`` is sorted ascending; ``log_cond[v, c]`` is the smoothed
    log p(vocab[v] | labels[c]); ``log_oov[c]`` the shared
    out-of-vocabulary bucket's log-prob; ``log_prior[c]`` the class
    log-prior.  ``vocab`` is a pyarrow StringArray (the ``pc.index_in``
    value set used verbatim at scoring time).
    """

    labels: list
    log_prior: np.ndarray
    vocab: pa.Array
    log_cond: np.ndarray
    log_oov: np.ndarray
    alpha: float = 1.0
    # raw counts kept for introspection/tests (vocab-sized, cheap)
    class_docs: np.ndarray = field(default=None)  # type: ignore[assignment]
    class_tokens: np.ndarray = field(default=None)  # type: ignore[assignment]


def _label_token_partial(column: str, label_column: str):
    """Per-block ``(label, token, __w)`` occurrence-count partial, plus
    one ``token = ""`` stat row per label carrying the block's DOCUMENT
    count (rows with zero tokens included) — so priors ride the same
    single corpus scan and the same keyed shuffle instead of a second
    pass over the input.  The empty string can never be a real token
    (the whitespace split drops empties), and a NULL key would crash
    Ray's sort-based shuffle (numpy object sort can't order None vs
    str), so "" is the collision-free sentinel."""
    def partial(batch: pa.Table) -> pa.Table:
        from .textstats import _word_rows

        col = pc.fill_null(batch.column(column).combine_chunks(), "")
        rows, words = _word_rows(col)
        labels = batch.column(label_column).combine_chunks().take(
            pa.array(rows))
        t = pa.table({"label": labels, "token": words})
        # null-label rows carry no class information: drop (oracle mirrors
        # with WHERE label IS NOT NULL)
        t = t.filter(pc.is_valid(t.column("label")))
        g = t.group_by(["label", "token"]).aggregate([([], "count_all")])
        g = grouped_rename_positional(
            g, ["label", "token"], ["__w"]).select(["label", "token", "__w"])
        lbl = batch.column(label_column).combine_chunks()
        d = (pa.table({"label": lbl.filter(pc.is_valid(lbl))})
             .group_by("label").aggregate([([], "count_all")]))
        d = grouped_rename_positional(d, ["label"], ["__w"])
        d = pa.table({"label": d.column("label"),
                      "token": pa.array([""] * d.num_rows,
                                        type=pa.string()),
                      "__w": d.column("__w").cast(pa.int64())})
        return pa.concat_tables([g.cast(d.schema), d])

    return partial


def nb_train(ds, column: str = "text", label_column: str = "lang",
             vocab_size: int = 4096, alpha: float = 1.0) -> NBModel:
    """Fit a multinomial NB classifier over ``ds[column]`` with classes
    from ``ds[label_column]``.  One corpus scan; see the module docstring
    for the scale shape and determinism contracts."""
    from ray.data.aggregate import Sum

    # --- (label, token) counts: block partials + ONE keyed shuffle ---
    cnt = map_batches(ds.select_columns([label_column, column]),
                      _label_token_partial(column, label_column))
    cnt = cnt.groupby(["label", "token"]).aggregate(Sum("__w"))

    def cnt_finish(t: pa.Table) -> pa.Table:
        return pa.table({"label": t.column("label"),
                         "token": t.column("token"),
                         "c": t.column("sum(__w)").cast(pa.int64())})

    # vocabulary-sized; consumed four times (doc counts, totals, top-V,
    # vocab fetch). token = "" rows are the per-label DOCUMENT counts
    # (priors); real-token consumers filter them out below.
    cnt = map_batches(cnt, cnt_finish).materialize()
    docs = {r["label"]: int(r["c"]) for r in map_batches(
        cnt, lambda t: t.filter(pc.equal(t.column("token"), ""))).take_all()}
    cnt = map_batches(
        cnt, lambda t: t.filter(pc.not_equal(t.column("token"), "")))

    # --- per-label token totals + per-token totals (both tiny) ---
    def tot_partial(t: pa.Table) -> pa.Table:
        g = t.select(["label", "c"]).group_by("label").aggregate(
            [("c", "sum")])
        return grouped_rename_positional(g, ["label"], ["__t"]).select(
            ["label", "__t"])

    tot_rows = (map_batches(cnt, tot_partial)
                   .groupby("label").aggregate(Sum("__t")).take_all())
    totals = {r["label"]: int(r["sum(__t)"]) for r in tot_rows}

    # --- exact top-V vocabulary ---
    # Two-level selection, both levels ordered by (count DESC, token ASC):
    # a block-local pre-top-V CANNOT be applied before the global
    # groupby(token).Sum (a token's partial count under-ranks it), so the
    # shuffle carries the full (token, total) table — vocabulary-sized,
    # the same width every stage here already carries — and the top-V cut
    # runs per OUTPUT block after the Sum, bounding the driver merge to
    # O(V · blocks) rows.
    def topv_block(g: pa.Table) -> pa.Table:
        if g.num_rows <= vocab_size:
            return g
        order = pc.sort_indices(
            g, sort_keys=[("__t", "descending"), ("token", "ascending")])
        return g.take(order.slice(0, vocab_size))

    def tok_partial(t: pa.Table) -> pa.Table:
        g = t.select(["token", "c"]).group_by("token").aggregate(
            [("c", "sum")])
        return grouped_rename_positional(g, ["token"], ["__t"]).select(
            ["token", "__t"])

    tv = (map_batches(cnt, tok_partial)
             .groupby("token").aggregate(Sum("__t")))
    tv = map_batches(tv, lambda t: topv_block(pa.table({
        "token": t.column("token"),
        "__t": t.column("sum(__t)").cast(pa.int64())})))
    tv_rows = tv.take_all()   # O(V · blocks)
    tv_rows.sort(key=lambda r: (-r["__t"], r["token"]))
    vocab_list = [r["token"] for r in tv_rows[:vocab_size]]
    vocab = pa.array(vocab_list, type=pa.string())
    v_index = {t: i for i, t in enumerate(vocab_list)}

    # --- per-label counts for the vocab tokens (V·C rows) ---
    import ray as _ray
    vref = _ray.put(vocab)

    def vocab_rows(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t.column("token"),
                                 value_set=_ray.get(vref)))

    vrows = map_batches(cnt, vocab_rows).take_all()

    labels = sorted(set(docs) | set(totals))
    if not labels:
        raise ValueError("nb_train: no non-null labels in "
                         f"{label_column!r} — nothing to fit")
    c_index = {l: i for i, l in enumerate(labels)}
    C, V = len(labels), len(vocab_list)
    mat = np.zeros((V, C), dtype=np.int64)
    for r in vrows:
        mat[v_index[r["token"]], c_index[r["label"]]] = r["c"]
    tot_v = np.array([totals.get(l, 0) for l in labels], dtype=np.int64)
    n_docs = np.array([docs.get(l, 0) for l in labels], dtype=np.int64)
    oov = tot_v - mat.sum(axis=0)
    den = tot_v.astype(np.float64) + alpha * (V + 1)
    log_cond = np.log((mat + alpha) / den)
    log_oov = np.log((oov + alpha) / den)
    log_prior = np.log(n_docs / n_docs.sum())
    return NBModel(labels=labels, log_prior=log_prior, vocab=vocab,
                   log_cond=log_cond, log_oov=log_oov, alpha=alpha,
                   class_docs=n_docs, class_tokens=tot_v)


def nb_classify(ds, model: NBModel, column: str = "text",
                id_column: str = "doc_id", round_digits: int = 9,
                keep_columns: Optional[list] = None):
    """Score every row against ``model``; map-only, model broadcast once.

    Output: ``(id_column, *keep_columns, pred, n_tokens, avg_neg_logp)``
    where ``pred`` is the argmax class over per-class log-posteriors
    ROUNDED to ``round_digits`` (ties → smallest label) and
    ``avg_neg_logp = round(-score_pred / (n_tokens + 1), round_digits)``
    (the prior counts as one term; rows with no tokens are scored by the
    prior alone and still emit)."""
    import ray as _ray

    labels = list(model.labels)
    mref = _ray.put((model.vocab, model.log_cond.copy(),
                     model.log_oov.copy(), model.log_prior.copy()))
    keep = list(keep_columns or [])

    def score(batch: pa.Table) -> pa.Table:
        from .textstats import _word_rows

        vocab, log_cond, log_oov, log_prior = _ray.get(mref)
        nb = batch.num_rows
        col = pc.fill_null(batch.column(column).combine_chunks(), "")
        rows, words = _word_rows(col)
        idx = pc.fill_null(pc.index_in(words, value_set=vocab),
                           -1).to_numpy(zero_copy_only=False).astype(np.int64)
        hit = idx >= 0
        C = len(log_prior)
        # token log-probs, [n_tok, C]: vocab gather where hit, OOV else
        lp = np.empty((len(idx), C), dtype=np.float64)
        lp[hit] = log_cond[idx[hit]]
        lp[~hit] = log_oov
        s = np.tile(log_prior, (nb, 1))
        for c in range(C):
            s[:, c] += np.bincount(rows, weights=lp[:, c], minlength=nb)
        n_tok = np.bincount(rows, minlength=nb).astype(np.int64)
        pred_i = np.argmax(np.round(s, round_digits), axis=1)
        score_pred = s[np.arange(nb), pred_i]
        avg = np.round(-score_pred / (n_tok + 1), round_digits)
        cols = {id_column: batch.column(id_column)}
        for k in keep:
            cols[k] = batch.column(k)
        cols["pred"] = pa.array([labels[i] for i in pred_i],
                                type=pa.string())
        cols["n_tokens"] = pa.array(n_tok)
        cols["avg_neg_logp"] = pa.array(avg)
        return pa.table(cols)

    cols = list(dict.fromkeys([id_column, column, *keep]))
    return map_batches(ds.select_columns(cols), score)
