"""remove_duplicate_spans (exact-substring dedup, removal form): checked
against a brute-force Python reference implementing the same spec —
sampled char grams, >=2-distinct-doc duplication, keep the globally first
occurrence, merge-and-excise the rest."""

import random
from collections import defaultdict

import pyarrow as pa


def _ref_remove(docs, gram=20, stride=10):
    by = defaultdict(list)
    for did, text in docs:
        if text and len(text) >= gram:
            for p in range(0, len(text) - gram + 1, stride):
                by[text[p:p + gram]].append((did, p))
    removals = defaultdict(list)
    for g, lst in by.items():
        if len({d for d, _ in lst}) >= 2:
            for d, p in sorted(lst)[1:]:
                removals[d].append((p, p + gram))
    out = {}
    for did, text in docs:
        iv = sorted(removals.get(did, []))
        merged = []
        for s, e in iv:
            if merged and s <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], e)
            else:
                merged.append([s, e])
        if text is None:
            out[did] = (None, 0, 0)
            continue
        pieces, prev = [], 0
        for s, e in merged:
            pieces.append(text[prev:s])
            prev = e
        pieces.append(text[prev:])
        out[did] = ("".join(pieces), len(merged),
                    sum(e - s for s, e in merged))
    return out


def _run(rows, **kw):
    import ray.data

    from plugin_serdes_ray.pipelines.dedup import remove_duplicate_spans

    t = pa.table({"doc_id": pa.array([r[0] for r in rows],
                                     type=pa.int64()),
                  "text": pa.array([r[1] for r in rows],
                                   type=pa.string())})
    ds = ray.data.from_arrow(t).repartition(4)
    got = remove_duplicate_spans(ds, "text", "doc_id", **kw).take_all()
    return {r["doc_id"]: (r["text_clean"], r["n_spans_removed"],
                          r["removed_chars"]) for r in got}


def test_span_removal_hand_case(ray_session):
    # sampled grams (every 10th position) only match duplicated spans at
    # equal offsets mod stride — give the shared sentence stride-aligned
    # offsets (0 and 10) so grams line up, like real templated prefixes
    shared = "the quick brown fox jumps over the lazy dog tonight!"
    docs = [
        (1, shared + " unique tail one with extra words here"),
        (2, "BBBBBBBBB " + shared + " other ending entirely different"),
        (3, "totally unrelated text with no overlap at all in here ok"),
        (4, None),
        (5, "short"),
    ]
    got = _run(docs)
    want = _ref_remove(docs)
    assert set(got) == set(want)
    for did in want:
        assert got[did] == want[did], (did, got[did], want[did])
    # the canonical (doc 1) keeps its copy of the shared sentence; doc 2
    # loses characters; doc 3/5 untouched; null stays null
    assert got[2][2] > 0
    assert shared in (got[1][0] or "")
    assert got[3] == (docs[2][1], 0, 0)
    assert got[4] == (None, 0, 0)
    assert got[5] == ("short", 0, 0)


def test_span_removal_random_vs_reference(ray_session):
    rng = random.Random(97)
    # build docs from a pool of sentences so cross-document duplicate
    # spans are common, with unicode thrown in (code-point positions)
    pool = ["sentence %02d aboutす various tõpics number %02d ok" % (i, i)
            for i in range(12)]
    docs = []
    for did in range(40):
        k = rng.randint(0, 5)
        body = " ".join(rng.choice(pool) for _ in range(k))
        body += " unique-%d-%s" % (did, "z" * rng.randint(0, 30))
        if rng.random() < 0.1:
            body = ""
        docs.append((did * 3, body or None))
    got = _run(docs)
    want = _ref_remove(docs)
    assert set(got) == set(want)
    bad = [(d, got[d], want[d]) for d in want if got[d] != want[d]]
    assert not bad, bad[:3]


def test_span_removal_gram_occurrence_cap(ray_session):
    """max_gram_occurrences leaves boilerplate grams (hot keys at web
    scale) to remove_frequent_lines: an over-cap gram is not removed,
    under-cap ones still are."""
    # same offset (0) in every doc -> grams align; 8 docs share 'hot',
    # 2 docs share 'cold'
    hot = "H" * 40
    cold = "C" * 40
    docs = ([(i, hot + f" tail{i}") for i in range(8)]
            + [(100 + i, cold + f" end{i}") for i in range(2)])
    got = _run(docs, max_gram_occurrences=4)
    # hot gram's distinct-doc count (8) > cap -> untouched everywhere,
    # incl. its intra-doc repeats
    assert all(got[i][1] == 0 for i in range(8))
    # cold gram (2 docs <= cap) still dedups — behavior equals the
    # reference run over the cold docs alone (hot grams are disjoint)
    want_cold = _ref_remove(docs[8:])
    assert got[100] == want_cold[100]
    assert got[101] == want_cold[101] and got[101][1] > 0
    # without the cap every hot doc loses spans (doc 0 keeps only the
    # canonical first occurrence of its self-repeating gram)
    got2 = _run(docs)
    want2 = _ref_remove(docs)
    for did in want2:
        assert got2[did] == want2[did], (did, got2[did], want2[did])
    assert all(got2[i][1] > 0 for i in range(8))


def test_span_removal_replace_keeps_sibling_columns(ray_session):
    """replace=True swaps the cleaned text in place and keeps every
    other column — no corpus self-join."""
    import ray.data

    from plugin_serdes_ray.pipelines.dedup import remove_duplicate_spans

    shared = "x" * 45 + " shared middle " + "y" * 45
    rows = [(i, f"{shared} tail{i}", f"l{i % 2}") for i in range(5)]
    t = pa.table({"doc_id": pa.array([r[0] for r in rows],
                                     type=pa.int64()),
                  "text": pa.array([r[1] for r in rows]),
                  "lang": pa.array([r[2] for r in rows])})
    out = remove_duplicate_spans(
        ray.data.from_arrow(t).repartition(3), "text", "doc_id",
        replace=True).take_all()
    got = {r["doc_id"]: r for r in out}
    assert set(got) == set(range(5))
    want = _ref_remove([(r[0], r[1]) for r in rows])
    for did, (wt, wn, wr) in want.items():
        assert got[did]["text"] == wt
        assert got[did]["n_spans_removed"] == wn
        assert got[did]["removed_chars"] == wr
        assert got[did]["lang"] == f"l{did % 2}"   # sibling survives


def test_clean_web_corpus_dup_spans_stage(ray_session):
    """The preset's optional span-removal stage excises copied passages
    from surviving rows while keeping the schema + split assignment."""
    import ray.data

    from plugin_serdes_ray.pipelines.presets import clean_web_corpus

    shared = "P" * 60
    rows = []
    for i in range(12):
        filler = " ".join(f"unique{i}word{j}" for j in range(24))
        body = filler + " " + shared + f" ending {i}"
        rows.append({"doc_id": i, "text": body})
    ds = ray.data.from_items(rows).repartition(3)
    out = clean_web_corpus(ds, min_words=5, dup_spans=True).take_all()
    assert out and set(r["split"] for r in out) <= {"train", "val",
                                                    "test"}
    texts = {r["doc_id"]: r["text"] for r in out}
    # exactly one survivor keeps the shared passage
    assert sum(1 for t in texts.values() if shared in t) == 1
    assert all(f"ending {d}" in t for d, t in texts.items())


def test_span_removal_distributed_tiny_bloom(ray_session):
    """A saturated bloom (everything 'hits') must not change results —
    bitmaps only route, groups decide."""
    shared = "x" * 25 + " common middle part here " + "y" * 25
    docs = [(i, f"head{i} " + shared + f" tail{i}") for i in range(6)]
    got = _run(docs, bloom_bits=64)
    want = _ref_remove(docs)
    for did in want:
        assert got[did] == want[did], (did, got[did], want[did])


def test_span_removal_rejects_non_integer_ids(ray_session):
    """Ids ride every shuffle as int64: a string id column fails at the
    call with a ValueError naming the column, not inside a worker."""
    import pytest
    import ray.data

    from plugin_serdes_ray.pipelines.dedup import remove_duplicate_spans

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(["a", "b"]),
        "text": pa.array(["x" * 40, "x" * 40])}))
    with pytest.raises(ValueError, match="'doc_id' must be an integer"):
        remove_duplicate_spans(ds, "text", "doc_id")


def test_dup_gram_count_independent_of_blocks(ray_session):
    """The duplicate-gram count is a distinct-DOCUMENT count however its
    occurrence rows are split into blocks: a gram repeated inside one
    document is not duplicated, even when that document's rows arrive in
    separate blocks (one row per block here)."""
    import ray.data

    from plugin_serdes_ray.pipelines.dedup import _dup_gram_hashes

    # doc 1 repeats gram 10, doc 3 repeats gram 30 (single-doc grams);
    # grams 11 and 20 occur in two documents each
    occ = pa.table({
        "__h": pa.array([10, 11, 10, 20, 11, 20, 30, 30, 30],
                        type=pa.int64()),
        "doc_id": pa.array([1, 1, 1, 2, 2, 3, 3, 3, 3], type=pa.int64()),
        "pos": pa.array([0, 10, 20, 0, 10, 0, 10, 20, 30],
                        type=pa.int64()),
        "__first": pa.array([True, True, False, True, True, True, True,
                             False, False])})

    def dups(ds, cap=None):
        return sorted(r["__h"] for r in _dup_gram_hashes(ds, cap).take_all())

    whole = ray.data.from_arrow(occ)
    split = ray.data.from_arrow([occ.slice(i, 1)
                                 for i in range(occ.num_rows)])
    assert split.num_blocks() == occ.num_rows
    assert dups(whole) == dups(split) == [11, 20]
    # the occurrence cap reads the same distinct-document count
    assert dups(split, cap=1) == []
    assert dups(split, cap=2) == [11, 20]


def test_span_removal_tiny_blocks_matches_reference(ray_session):
    """End to end with ~400-byte blocks, so one document's occurrence rows
    span several blocks: a gram that repeats only inside one document is
    still not duplicated, and the result equals the reference."""
    import ray.data

    rep = "abcdefghij" * 2
    docs = [(1, "x" * 300),
            (2, "Q" * 10 + rep + "W" * 200 + rep + "E" * 10),
            (3, "z" * 5 + "unique tail text " * 20),
            (4, "head " + rep + " shared " + "v" * 40),
            (5, "x" * 60 + " tail")]
    ctx = ray.data.DataContext.get_current()
    saved = ctx.target_max_block_size
    ctx.target_max_block_size = 400
    try:
        got = _run(docs)
    finally:
        ctx.target_max_block_size = saved
    want = _ref_remove(docs)
    assert got == want
    assert got[1][1] > 0 and got[3] == (docs[2][1], 0, 0)
