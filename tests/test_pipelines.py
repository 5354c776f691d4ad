"""Training-data pipeline tests: dedup variants, ANN, text stats,
multimodal plumbing, wide-op building blocks — over the driver testdata."""

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def docs_ds(ray_session, sf_dir):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/documents.parquet")


@pytest.fixture(scope="module")
def emb_ds(ray_session, sf_dir):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")


def test_exact_dedup(docs_ds, sf_dir):
    import duckdb

    from plugin_serdes_ray.pipelines.dedup import exact_dedup

    out = exact_dedup(docs_ds, "text", "doc_id")
    got = sorted(r["doc_id"] for r in out.take_all())
    want = [r[0] for r in duckdb.sql(
        f"SELECT min(doc_id) FROM read_parquet('{sf_dir}/documents.parquet') "
        f"GROUP BY text ORDER BY 1").fetchall()]
    assert got == want


def test_exact_dedup_distributed_route_matches(ray_session):
    """The drop-set is never collected to the driver: many duplicated
    hashes resolve through the bloom+marker route to the exact
    keep-first answer."""
    import ray.data

    from plugin_serdes_ray.pipelines import dedup

    # 60 distinct texts duplicated across 300 rows, plus 50 singletons
    rows = ([{"doc_id": i, "text": f"dup text {i % 60}"}
             for i in range(300)]
            + [{"doc_id": 1000 + i, "text": f"unique text {i}"}
               for i in range(50)])
    ds = ray.data.from_items(rows)
    out = dedup.exact_dedup(ds, "text", "doc_id", bloom_bits=1 << 16)
    got = sorted(r["doc_id"] for r in out.take_all())
    assert got == list(range(60)) + list(range(1000, 1050))


def test_exact_dedup_distributed_tiny_bloom_still_exact(ray_session):
    """A deliberately saturated bloom (64 bits for many keys -> ~all rows
    are 'hits') must still return the exact answer — the bitmap only
    routes, the marker groups decide."""
    import ray.data

    from plugin_serdes_ray.pipelines import dedup

    rows = [{"doc_id": i, "text": f"doc {i % 40}"} for i in range(200)]
    ds = ray.data.from_items(rows)
    out = dedup.exact_dedup(ds, "text", "doc_id", bloom_bits=64)
    got = sorted(r["doc_id"] for r in out.take_all())
    assert got == list(range(40))


def test_minhash_detects_duplicates(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.dedup import (
        jaccard, minhash_lsh_dedup, minhash_lsh_duplicates,
    )

    base = ("the quick brown fox jumps over the lazy dog and then runs far "
            "away into the woods looking for food " * 3)
    near = base.replace("lazy", "sleepy")
    other = "completely different content about databases and compression " * 5
    rows = [{"doc_id": 1, "text": base}, {"doc_id": 2, "text": base},
            {"doc_id": 3, "text": near}, {"doc_id": 4, "text": other}]
    ds = ray.data.from_items(rows)
    assert jaccard(base, near) > 0.7
    pairs = {(r["keep_id"], r["dup_id"])
             for r in minhash_lsh_duplicates(ds, "text", "doc_id").take_all()}
    assert (1, 2) in pairs
    assert all(d != 4 for _, d in pairs)
    kept = sorted(r["doc_id"] for r in
                  minhash_lsh_dedup(ds, "text", "doc_id").take_all())
    assert 4 in kept and 1 in kept and 2 not in kept


def test_minhash_dedup_distributed_matches_driver_path(ray_session):
    """The distributed filter (pairs -> connected components -> bloom
    anti join) collapses a TRANSITIVE chain (1~2, 2~3 where 1 and 3 may
    never share a bucket): only the smallest id of the cluster survives."""
    import ray.data

    from plugin_serdes_ray.pipelines.dedup import minhash_lsh_dedup

    base = ("the quick brown fox jumps over the lazy dog and then runs far "
            "away into the woods looking for food " * 3)
    rows = [{"doc_id": 1, "text": base},
            {"doc_id": 2, "text": base.replace("lazy", "sleepy")},
            {"doc_id": 3, "text": base.replace("lazy", "sleepy")
                                      .replace("quick", "swift")},
            {"doc_id": 4, "text": "entirely different corpus about arrow "
                                  "columnar formats and compression " * 5}]
    ds = ray.data.from_items(rows)
    kept = sorted(r["doc_id"] for r in
                  minhash_lsh_dedup(ds, "text", "doc_id").take_all())
    assert kept == [1, 4]


def test_minhash_shuffle_ships_no_text(ray_session):
    """100 TB contract: the rows entering the band-key shuffle are exactly
    (band_key, doc_id, sig) — fixed-width, no document text (VERDICT r1:
    shipping text per band was a 16x corpus all-to-all)."""
    import ray.data

    from plugin_serdes_ray.pipelines.dedup import minhash_band_rows

    ds = ray.data.from_items([{"doc_id": 1, "text": "hello world " * 30}])
    rows = minhash_band_rows(ds, "text", "doc_id")
    t = pa.Table.from_pylist(rows.take_all())
    assert sorted(t.column_names) == ["band_key", "doc_id", "sig"]
    assert t.num_rows == 16  # bands rows per doc
    assert all(len(s) == 64 * 8 for s in t.column("sig").to_pylist())


def test_simhash_duplicates(ray_session):
    import ray.data

    from plugin_serdes_ray.fixtures import DEDUP_INJECT_BASE, dedup_corpus_text
    from plugin_serdes_ray.pipelines.dedup import hamming64, simhash64, simhash_duplicates

    # unrelated docs must be FAR apart (the r1 unsigned-score bug collapsed
    # every doc to hamming ~1); tiny perturbations must stay close
    a, other = dedup_corpus_text(0), dedup_corpus_text(1)
    near = dedup_corpus_text(DEDUP_INJECT_BASE, perturb_tokens=1)
    assert hamming64(simhash64(a), simhash64(other)) > 10
    assert hamming64(simhash64(a), simhash64(near)) <= 4
    ds = ray.data.from_items([{"doc_id": 1, "text": a}, {"doc_id": 2, "text": a},
                              {"doc_id": 3, "text": near},
                              {"doc_id": 4, "text": other}])
    pairs = {(r["keep_id"], r["dup_id"])
             for r in simhash_duplicates(ds, "text", "doc_id",
                                         max_hamming=4).take_all()}
    assert (1, 2) in pairs
    assert (1, 3) in pairs or (2, 3) in pairs
    assert all(d != 4 for _, d in pairs)


def test_simhash_pair_with_smaller_unrelated_id(ray_session):
    """b~c is found even though an unrelated smaller id exists (the chained
    -canon verify: unmatched docs become new canons instead of being the
    only comparison point — ADVICE r1)."""
    import ray.data

    from plugin_serdes_ray.fixtures import DEDUP_INJECT_BASE, dedup_corpus_text
    from plugin_serdes_ray.pipelines.dedup import simhash_duplicates

    ds = ray.data.from_items([
        {"doc_id": 1, "text": dedup_corpus_text(3)},  # unrelated, smallest id
        {"doc_id": 2, "text": dedup_corpus_text(7)},
        {"doc_id": 3, "text": dedup_corpus_text(DEDUP_INJECT_BASE + 7,
                                                perturb_tokens=1)},
    ])
    pairs = {(r["keep_id"], r["dup_id"])
             for r in simhash_duplicates(ds, "text", "doc_id",
                                         max_hamming=4).take_all()}
    assert (2, 3) in pairs
    assert all(d != 1 and k != 1 for k, d in pairs)


def test_embedding_duplicates(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.dedup import embedding_duplicates

    rng = np.random.default_rng(0)
    v = rng.standard_normal(16).astype(np.float32)
    rows = [
        {"vec_id": 1, "embedding": v.tolist()},
        {"vec_id": 2, "embedding": (v * 1.001).tolist()},       # near-dup
        {"vec_id": 3, "embedding": rng.standard_normal(16).tolist()},
    ]
    ds = ray.data.from_items(rows)
    pairs = {(r["keep_id"], r["dup_id"])
             for r in embedding_duplicates(ds, "embedding", "vec_id").take_all()}
    assert (1, 2) in pairs


def test_knn_brute_matches_numpy(emb_ds, sf_dir):
    import pyarrow.parquet as pq

    from plugin_serdes_ray.pipelines.ann import knn_brute

    t = pq.read_table(f"{sf_dir}/embeddings.parquet")
    vecs = np.asarray(t.column("embedding").to_pylist(), dtype=np.float32)
    ids = np.asarray(t.column("vec_id").to_pylist())
    q = vecs[:3]
    out = knn_brute(emb_ds, q, query_ids=[0, 1, 2], k=5)
    # oracle: exact numpy
    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    qu = q / np.linalg.norm(q, axis=1, keepdims=True)
    sims = unit @ qu.T
    for qi in range(3):
        want = set(ids[np.argsort(-sims[:, qi])[:5]].astype(int))
        got = {r["vec_id"] for r in out.to_pylist() if r["query_id"] == qi}
        assert got == want, f"query {qi}"


def test_knn_ivf_recall(emb_ds, sf_dir):
    import pyarrow.parquet as pq

    from plugin_serdes_ray.pipelines.ann import knn_brute, knn_ivf

    t = pq.read_table(f"{sf_dir}/embeddings.parquet")
    vecs = np.asarray(t.column("embedding").to_pylist(), dtype=np.float32)
    q = vecs[:2]
    exact = knn_brute(emb_ds, q, k=10).to_pylist()
    approx = knn_ivf(emb_ds, q, k=10, n_clusters=8, nprobe=4).to_pylist()
    for qi in range(2):
        want = {r["vec_id"] for r in exact if r["query_id"] == qi}
        got = {r["vec_id"] for r in approx if r["query_id"] == qi}
        assert len(want & got) >= 5  # >=50% recall at nprobe=half

def test_ivf_materialized_index_probes_subset(emb_ds, sf_dir, tmp_path):
    """The IVF index is real inverted lists: the probe path opens only the
    probed centroids' files (VERDICT r1: the old knn_ivf scanned every batch
    and just masked), and nprobe=all reads everything and is exact."""
    import glob

    import pyarrow.parquet as pq

    from plugin_serdes_ray.pipelines.ann import (
        build_ivf_index, ivf_probe_files, knn_brute, knn_ivf_index,
    )

    t = pq.read_table(f"{sf_dir}/embeddings.parquet")
    vecs = np.asarray(t.column("embedding").to_pylist(), dtype=np.float32)
    idx = str(tmp_path / "ivf")
    meta = build_ivf_index(emb_ds, idx, n_clusters=8, sub_splits=2)
    all_files = glob.glob(f"{idx}/cluster-*.parquet")
    assert meta["rows"] == t.num_rows
    # every vector is in exactly one list
    assert sum(pq.read_metadata(f).num_rows for f in all_files) == t.num_rows

    q = vecs[:2]
    files, probe, _ = ivf_probe_files(idx, q, nprobe=2)
    assert len(files) < len(all_files)  # strict subset read
    assert probe.shape == (2, 2)

    exact = knn_brute(emb_ds, q, k=10).to_pylist()
    full = knn_ivf_index(idx, q, k=10, nprobe=8).to_pylist()
    for qi in range(2):
        want = {r["vec_id"] for r in exact if r["query_id"] == qi}
        got = {r["vec_id"] for r in full if r["query_id"] == qi}
        assert got == want  # nprobe = n_clusters -> exact

    # rebuild is a no-op resume (meta.json short-circuits)
    again = build_ivf_index(emb_ds, idx, n_clusters=8, sub_splits=2)
    assert again == meta


def test_textstats(docs_ds):
    from plugin_serdes_ray.pipelines.textstats import analyze

    out = analyze(docs_ds, bpe=True).take(5)
    for r in out:
        assert r["ws_tokens"] >= 0
        assert r["bpe_tokens"] >= r["ws_tokens"]  # subword splits >= words
        assert 0.0 <= r["q_score"] <= 1.0
        assert "lang_pred" in r and "fingerprint" in r
    # default analyze skips the per-row BPE loop entirely (VERDICT r3 #6)
    lean = analyze(docs_ds).take(1)
    assert "bpe_tokens" not in lean[0] and "ws_tokens" in lean[0]


def test_fingerprint_stable_and_discriminative(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.textstats import fingerprint

    t = pa.table({"text": ["hello world " * 10, "hello world " * 10,
                           "other doc " * 10]})
    out = fingerprint(t)
    fps = out.column("fingerprint").to_pylist()
    assert fps[0] == fps[1] != fps[2]


def test_multimodal_plumbing(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.multimodal import (
        decode_images, featurize_audio, sample_frames,
    )

    rows = [{"id": i, "image": bytes([i]) * 100, "audio": bytes([i]) * 50,
             "video": bytes(range(256))} for i in range(8)]
    ds = ray.data.from_items(rows)
    img = decode_images(ds, concurrency=2).take_all()
    assert len(img[0]["image_feat"]) == 32
    # determinism: same payload -> same features
    img2 = decode_images(ray.data.from_items(rows), concurrency=2).take_all()
    assert img[0]["image_feat"] == img2[0]["image_feat"]
    au = featurize_audio(ds, concurrency=2).take_all()
    assert len(au[0]["audio_feat"]) == 16 * 8
    fr = sample_frames(ds, concurrency=2).take_all()
    assert len(fr[0]["frames"]) == 4


def test_grouped_aggregate_matches_duckdb(ray_session, sf_dir):
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.relational import grouped_aggregate

    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet")
    out = grouped_aggregate(ds, ["l_returnflag"], sum_cols=["l_quantity"],
                            mean_cols=["l_extendedprice"])
    got = {r["l_returnflag"]: (round(r["sum_l_quantity"], 3), r["n"],
                               round(r["mean_l_extendedprice"], 3))
           for r in out.take_all()}
    want = {r[0]: (round(r[1], 3), r[2], round(r[3], 3)) for r in duckdb.sql(
        f"SELECT l_returnflag, sum(l_quantity), count(*), avg(l_extendedprice) "
        f"FROM read_parquet('{sf_dir}/lineitem.parquet') GROUP BY 1").fetchall()}
    assert got == want


def test_broadcast_join(ray_session, sf_dir):
    import duckdb
    import pyarrow.parquet as pq
    import ray.data

    from plugin_serdes_ray.pipelines.relational import broadcast_join, grouped_aggregate

    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet")
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_mktsegment"])
    joined = broadcast_join(orders, cust.rename_columns(["o_custkey", "c_mktsegment"]),
                            key="o_custkey")
    out = grouped_aggregate(joined, ["c_mktsegment"], sum_cols=["o_totalprice"])
    got = {r["c_mktsegment"]: round(r["sum_o_totalprice"], 2) for r in out.take_all()}
    want = {r[0]: round(r[1], 2) for r in duckdb.sql(
        f"SELECT c_mktsegment, sum(o_totalprice) "
        f"FROM read_parquet('{sf_dir}/orders.parquet') o "
        f"JOIN read_parquet('{sf_dir}/customer.parquet') c ON o.o_custkey=c.c_custkey "
        f"GROUP BY 1").fetchall()}
    assert got == want


def test_top_k(ray_session, sf_dir):
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.relational import top_k

    ds = ray.data.read_parquet(f"{sf_dir}/orders.parquet")
    got = top_k(ds, "o_totalprice", k=5).column("o_orderkey").to_pylist()
    want = [r[0] for r in duckdb.sql(
        f"SELECT o_orderkey FROM read_parquet('{sf_dir}/orders.parquet') "
        f"ORDER BY o_totalprice DESC LIMIT 5").fetchall()]
    assert got == want


def test_salted_key_spreads_hot(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import detect_hot_keys, salted_key

    t = pa.table({"k": ["hot"] * 90 + [f"cold{i}" for i in range(10)]})
    ds = ray.data.from_arrow(t)
    hot = detect_hot_keys(ds, "k", hot_frac=0.5)
    assert hot == ["hot"]
    out = salted_key(ds, "k", hot, salt_n=4).take_all()
    hot_salts = {r["__salted"] for r in out if r["k"] == "hot"}
    assert len(hot_salts) == 4
    cold_salts = {r["__salted"] for r in out if r["k"] != "hot"}
    assert all(s.endswith("#0") for s in cold_salts)


def test_sort_within_partitions(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import sort_within_partitions

    ds = ray.data.from_arrow(pa.table({"lang": ["fr", "en", "de", "en"]}))
    out = sort_within_partitions(ds, ["lang"])
    batches = list(out.iter_batches(batch_format="pyarrow", batch_size=None))
    for b in batches:
        vals = b.column("lang").to_pylist()
        assert vals == sorted(vals)


def test_tumbling_window_matches_duckdb(ray_session, sf_dir):
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.relational import tumbling_window_aggregate

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet")
    rows = tumbling_window_aggregate(ds, "ts", "1h", keys=["event_type"]).take_all()
    got = {(r["window_start"], r["event_type"]): r["n"] for r in rows}
    want = {(r[0], r[1]): r[2] for r in duckdb.sql(
        f"SELECT date_trunc('hour', ts), event_type, count(*) "
        f"FROM read_parquet('{sf_dir}/events.parquet') GROUP BY 1,2").fetchall()}
    assert got == want


def test_infer_schema_dataset_distributed(ray_session):
    import pyarrow as pa
    import ray.data

    from plugin_serdes_ray.functions.infer import infer_schema_dataset

    rows = [{"a": 1, "b": "x"}] * 50 + [{"a": None, "c": 2.5}] * 50
    ds = ray.data.from_items(rows)
    schema = infer_schema_dataset(ds, infer_all_fields=True)
    assert schema.field("a").nullable
    assert schema.field("b").nullable
    assert schema.field("c").type == pa.float64()


def test_url_host_hot_prefix_salting(ray_session, tmp_path):
    """SURVEY §7.2.4: hot url prefixes detected from the sample and salted
    for even partition sizes, over the webpages corpus."""
    import ray.data

    from plugin_serdes_ray.fixtures import generate_webpages
    from plugin_serdes_ray.pipelines.relational import (
        add_url_host, detect_hot_keys, salted_key,
    )

    files = generate_webpages(str(tmp_path / "wp"), 2000, 2)
    ds = add_url_host(ray.data.read_parquet(files, columns=["url"]))
    sample = ds.take(5)
    assert all(r["host"].startswith("www.") for r in sample)
    hot = detect_hot_keys(ds, "host", sample_rows=2000, hot_frac=0.02)
    assert hot  # Zipf head hosts exist
    out = salted_key(ds, "host", hot, salt_n=4).take_all()
    hot_salts = {r["__salted"] for r in out if r["host"] == hot[0]}
    assert len(hot_salts) > 1


def test_distributed_convert_files(ray_session, sf_dir, tmp_path):
    """X -> Y conversion fleet: one task per file, atomic resumable outputs
    (the reference's task-chain use case with no ION hub files)."""
    import pyarrow.parquet as pq

    from plugin_serdes_ray.pipelines.convert import convert_files
    from plugin_serdes_ray.sources.json_ import read_json_table

    src = pq.read_table(f"{sf_dir}/nation.parquet")
    from plugin_serdes_ray.sinks.csv_ import table_to_csv_bytes
    ins = []
    for i in range(3):
        p = str(tmp_path / f"n{i}.csv")
        open(p, "wb").write(table_to_csv_bytes(src.slice(i * 8, 8)))
        ins.append(p)
    out = str(tmp_path / "out")
    s = convert_files(ins, out, "csv", "jsonl", concurrency=2)
    assert s["converted"] == 3 and s["rows"] == 24
    back = pa.concat_tables([read_json_table(p) for p in s["outputs"]])
    assert back.num_rows == 24
    assert set(back.column_names) == set(src.column_names)
    # resume: nothing to do
    s2 = convert_files(ins, out, "csv", "jsonl", concurrency=2)
    assert s2["converted"] == 0 and s2["skipped"] == 3


def test_hash_join_no_broadcast(ray_session):
    """Big-big equi-join: one keyed shuffle, correct inner semantics,
    null keys dropped, name collisions suffixed."""
    import ray.data

    from plugin_serdes_ray.pipelines.relational import hash_join

    left = ray.data.from_items([
        {"k": 1, "v": "a"}, {"k": 2, "v": "b"}, {"k": 2, "v": "c"},
        {"k": None, "v": "x"}, {"k": 9, "v": "z"}])
    right = ray.data.from_items([
        {"rk": 2, "v": "R2"}, {"rk": 2, "v": "R2b"}, {"rk": 1, "v": "R1"},
        {"rk": None, "v": "RN"}, {"rk": 7, "v": "R7"}])
    rows = hash_join(left, right, key="k", right_key="rk").take_all()
    got = sorted((r["k"], r["v"], r["v_r"]) for r in rows)
    assert got == [(1, "a", "R1"), (2, "b", "R2"), (2, "b", "R2b"),
                   (2, "c", "R2"), (2, "c", "R2b")]


def test_sliding_window_membership(ray_session):
    import datetime

    import ray.data

    from plugin_serdes_ray.pipelines.relational import sliding_window_aggregate

    base = datetime.datetime(2024, 1, 1, 0, 45)  # in windows 00:00 and 00:30
    ds = ray.data.from_items([{"ts": base}])
    rows = sliding_window_aggregate(ds, "ts", "1h", "30m").take_all()
    starts = sorted(r["window_start"] for r in rows)
    assert starts == [datetime.datetime(2024, 1, 1, 0, 0),
                      datetime.datetime(2024, 1, 1, 0, 30)]
    assert all(r["n"] == 1 for r in rows)
    with pytest.raises(ValueError):
        sliding_window_aggregate(ds, "ts", window="15m", hop="30m")


def test_sessionize_gap_split(ray_session):
    import datetime

    import ray.data

    from plugin_serdes_ray.pipelines.relational import sessionize

    t0 = datetime.datetime(2024, 1, 1)
    mins = lambda m: t0 + datetime.timedelta(minutes=m)
    ds = ray.data.from_items(
        [{"user_id": 1, "ts": mins(m)} for m in (0, 10, 20, 90, 95)] +
        [{"user_id": 2, "ts": mins(0)}])
    rows = sorted(sessionize(ds, "user_id", "ts", gap="30m").take_all(),
                  key=lambda r: (r["user_id"], r["session_start"]))
    assert [(r["user_id"], r["n_events"]) for r in rows] == [(1, 3), (1, 2), (2, 1)]
    assert rows[0]["session_start"] == mins(0)
    assert rows[0]["session_end"] == mins(20)
    assert rows[1]["session_start"] == mins(90)


def test_stratified_sample_deterministic(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import stratified_sample

    rows = [{"id": i, "k": "hot" if i % 2 == 0 else "cold"}
            for i in range(2000)]
    ds = ray.data.from_items(rows)
    out1 = sorted(r["id"] for r in
                  stratified_sample(ds, "k", {"hot": 0.2}, "id").take_all())
    out2 = sorted(r["id"] for r in
                  stratified_sample(ds, "k", {"hot": 0.2}, "id").take_all())
    assert out1 == out2                       # pure function of the row
    hot = [i for i in out1 if i % 2 == 0]
    cold = [i for i in out1 if i % 2 == 1]
    assert len(cold) == 1000                  # default 1.0 keeps everything
    assert 100 <= len(hot) <= 320             # ~20% of 1000


def test_minhash_exact_jaccard_verify(ray_session):
    """The exact path agrees with true Jaccard at the threshold — including
    a pair the est-Jaccard screen admits but exact verification rejects."""
    import ray.data

    from plugin_serdes_ray.pipelines.dedup import (
        jaccard, minhash_lsh_duplicates, minhash_lsh_duplicates_exact,
    )
    from plugin_serdes_ray.fixtures import DEDUP_INJECT_BASE, dedup_corpus_text

    a = dedup_corpus_text(0)
    near = dedup_corpus_text(DEDUP_INJECT_BASE, perturb_tokens=6)   # J ~0.94
    borderline = dedup_corpus_text(DEDUP_INJECT_BASE, perturb_tokens=70)
    jb = jaccard(a, borderline)
    ds = ray.data.from_items([
        {"doc_id": 1, "text": a}, {"doc_id": 2, "text": near},
        {"doc_id": 3, "text": borderline},
        {"doc_id": 4, "text": dedup_corpus_text(9)}])
    thr = 0.7 if jb < 0.65 else jb + 0.03     # put the cut above borderline
    out = minhash_lsh_duplicates_exact(ds, "text", "doc_id", threshold=thr)
    pairs = [(r["keep_id"], r["dup_id"]) for r in out.take_all()]
    assert len(pairs) == len(set(pairs))      # distinct
    assert (1, 2) in pairs
    assert (1, 3) not in pairs                # exact verify rejects it
    assert all(4 not in p for p in pairs)

    # brute-force reference: exact Jaccard over EVERY pair of a corpus
    # whose near-dups share many bands, so each candidate pair repeats
    texts = {1: a, 2: near, 3: borderline, 4: dedup_corpus_text(9),
             5: dedup_corpus_text(DEDUP_INJECT_BASE, perturb_tokens=12),
             6: dedup_corpus_text(DEDUP_INJECT_BASE + 9, perturb_tokens=3),
             7: dedup_corpus_text(11)}
    want = {(i, j) for i in texts for j in texts
            if i < j and jaccard(texts[i], texts[j]) >= thr}
    assert len(want) >= 4
    big = ray.data.from_items([{"doc_id": i, "text": t}
                               for i, t in texts.items()]).repartition(3)
    cand = [(r["keep_id"], r["dup_id"]) for r in minhash_lsh_duplicates(
        big, "text", "doc_id", threshold=thr - 0.1).take_all()]
    assert len(cand) > len(set(cand))
    got = [(r["keep_id"], r["dup_id"]) for r in
           minhash_lsh_duplicates_exact(big, "text", "doc_id",
                                        threshold=thr).take_all()]
    assert sorted(got) == sorted(want)


def test_minhash_exact_no_near_duplicates(ray_session):
    """A corpus with no near-duplicates yields no candidate pairs: the
    exact verify returns an empty typed result and dedup keeps every row."""
    import ray.data

    from plugin_serdes_ray.fixtures import dedup_corpus_text
    from plugin_serdes_ray.pipelines.dedup import (
        minhash_lsh_dedup, minhash_lsh_duplicates,
        minhash_lsh_duplicates_exact,
    )

    ds = ray.data.from_items([{"doc_id": i, "text": dedup_corpus_text(i)}
                              for i in range(6)])
    assert minhash_lsh_duplicates(ds, "text", "doc_id",
                                  threshold=0.6).take_all() == []
    out = minhash_lsh_duplicates_exact(ds, "text", "doc_id").materialize()
    assert out.take_all() == []
    assert out.schema().names == ["keep_id", "dup_id"]
    kept = sorted(r["doc_id"] for r in
                  minhash_lsh_dedup(ds, "text", "doc_id").take_all())
    assert kept == list(range(6))


def test_count_distinct_and_exact_quantiles(ray_session):
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.relational import count_distinct, exact_quantiles

    rng = np.random.default_rng(12)
    vals = rng.normal(100, 25, 5000)
    keys = rng.integers(0, 137, 5000)
    ds = ray.data.from_arrow(pa.table({"v": vals, "k": keys}))
    assert count_distinct(ds, "k") == len(np.unique(keys))

    out = exact_quantiles(ds, "v", [0.25, 0.5, 0.9, 0.999])
    con = duckdb.connect()
    con.register("t", pa.table({"v": vals}))
    for q, got in out.items():
        want = con.execute(
            f"SELECT quantile_disc(v, {q}) FROM t").fetchone()[0]
        assert got == want, q
    # degenerate cases: constant column, empty after nulls
    const = ray.data.from_arrow(pa.table({"v": [7.0] * 10}))
    assert exact_quantiles(const, "v", [0.5]) == {0.5: 7.0}


def test_hash_join_skew_salts_complete(ray_session):
    """Skewed-key handling: left rows salt over n subkeys, right rows of the
    hot key REPLICATE into all n — every (l, r) pair meets exactly once."""
    import ray.data

    from plugin_serdes_ray.pipelines.relational import hash_join

    left = ray.data.from_items(
        [{"k": "hot", "lv": i} for i in range(40)] +
        [{"k": "cold", "lv": 100}])
    right = ray.data.from_items(
        [{"k": "hot", "rv": j} for j in range(3)] +
        [{"k": "cold", "rv": 7}])
    rows = hash_join(left, right, key="k",
                     skew_salts={"hot": 4}).take_all()
    hot_pairs = {(r["lv"], r["rv"]) for r in rows if r["k"] == "hot"}
    assert hot_pairs == {(i, j) for i in range(40) for j in range(3)}
    assert {(r["lv"], r["rv"]) for r in rows if r["k"] == "cold"} == {(100, 7)}
    assert len(rows) == 40 * 3 + 1            # exactly once each


def test_review_fixes_roundup(ray_session):
    """Regression pins for the r2 self-review findings."""
    import ray.data

    from plugin_serdes_ray.pipelines.dedup import (
        estimated_jaccard, minhash_signature,
    )
    from plugin_serdes_ray.pipelines.relational import hash_join, stratified_sample

    # estimated Jaccard is the published verify semantic
    a = minhash_signature("hello world " * 40)
    assert estimated_jaccard(a, a) == 1.0

    # mixed-width join keys must not split group schemas
    left = ray.data.from_arrow(pa.table({"k": pa.array([1, 2], type=pa.int64()),
                                         "v": ["a", "b"]}))
    right = ray.data.from_arrow(pa.table({"rk": pa.array([2], type=pa.int32()),
                                          "w": ["R"]}))
    rows = hash_join(left, right, key="k", right_key="rk").take_all()
    assert [(r["k"], r["v"], r["w"]) for r in rows] == [(2, "b", "R")]

    # suffixed-name collision fails loudly instead of dropping data
    l2 = ray.data.from_arrow(pa.table({"k": [1], "v": ["a"], "v_r": ["keep"]}))
    r2 = ray.data.from_arrow(pa.table({"k": [1], "v": ["R"]}))
    with pytest.raises(ValueError):
        hash_join(l2, r2, key="k")

    # null ids are dropped like the SQL NULL-arithmetic WHERE does
    ds = ray.data.from_arrow(pa.table({"id": pa.array([1, None, 3],
                                                      type=pa.int64()),
                                       "g": ["x", "x", "x"]}))
    out = stratified_sample(ds, "g", {}, "id").take_all()
    assert sorted(r["id"] for r in out) == [1, 3]


def test_simhash_band_autoraise_guarantee():
    """max_hamming >= bands voids the pigeonhole guarantee; _effective_bands
    must raise the band count (and refuse impossible requests)."""
    from plugin_serdes_ray.pipelines.dedup import _effective_bands

    assert _effective_bands(4, 3) == 4     # guarantee already holds
    assert _effective_bands(4, 4) == 8     # the oracle-query configuration
    assert _effective_bands(4, 9) == 16
    assert _effective_bands(3, 3) == 4     # non-power-of-two normalised
    assert _effective_bands(4, 31) == 32
    with pytest.raises(ValueError):
        _effective_bands(4, 32)            # 64-bit simhash can't guarantee
    with pytest.raises(ValueError):
        _effective_bands(0, 3)
    # worst-case hamming-4 pair: one flipped bit per 16-bit quarter shares
    # NO 4-band bucket, but with the raised 8 bands at least one is clean
    a = 0
    b = (1 << 3) | (1 << 19) | (1 << 35) | (1 << 51)
    for bands, expect in ((4, False), (8, True)):
        width = 64 // bands
        shared = any(((a >> (i * width)) & ((1 << width) - 1)) ==
                     ((b >> (i * width)) & ((1 << width) - 1))
                     for i in range(bands))
        assert shared == expect


def test_xml_streaming_does_not_accumulate_nonmatching(ray_session):
    """Non-matching siblings detach as they close (review finding: they
    previously accumulated under the root for the whole parse)."""
    import io

    from plugin_serdes_ray.sources.xml_ import XmlOptions, iter_xml_query

    pad = "y" * 2000   # records >> iterparse's ~16KB read chunk
    body = "".join(
        f"<book id='{i}'><t>x</t></book><junk n='{i}'><pad>{pad}</pad></junk>"
        for i in range(500))
    doc = f"<catalog>{body}</catalog>".encode()
    recs = []
    stats = {}
    for chunk in iter_xml_query(io.BytesIO(doc),
                                XmlOptions(query="/catalog/book"), 100,
                                stats=stats):
        recs.extend(chunk)
    assert len(recs) == 500
    # and the matches themselves are intact
    assert recs[7] == {"id": 7, "t": "x"}
    # the memory pin: finished elements (matching AND not) detach as their
    # end events drain, so the root's high-water is O(one iterparse read
    # chunk), never O(document) — 1000 children pre-fix
    assert stats["max_root_children"] < 100


def test_hash_join_right_right_collision_and_overflow_keys(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import hash_join

    # two RIGHT columns collapsing onto one output name must raise
    l = ray.data.from_arrow(pa.table({"k": [1], "v": ["a"]}))
    r = ray.data.from_arrow(pa.table({"k": [1], "v": ["R"], "v_r": ["R2"]}))
    with pytest.raises(ValueError):
        hash_join(l, r, key="k")

    # right keys unrepresentable in the left key type can never match:
    # they are filtered, not a pipeline crash
    l2 = ray.data.from_arrow(pa.table(
        {"k": pa.array([1, 2], type=pa.int32()), "v": ["a", "b"]}))
    r2 = ray.data.from_arrow(pa.table(
        {"rk": pa.array([2, 2**40], type=pa.int64()), "w": ["R", "BIG"]}))
    rows = hash_join(l2, r2, key="k", right_key="rk").take_all()
    assert [(r["k"], r["v"], r["w"]) for r in rows] == [(2, "b", "R")]


def test_hash_join_sign_flip_keys_filtered(ray_session):
    """Same-width signed/unsigned keys: 2^64-1 must NOT join -1 (a cast
    roundtrip would call them equal); in-range keys still match."""
    import ray.data

    from plugin_serdes_ray.pipelines.relational import hash_join

    l = ray.data.from_arrow(pa.table(
        {"k": pa.array([-1, 5], type=pa.int64()), "v": ["neg", "five"]}))
    r = ray.data.from_arrow(pa.table(
        {"rk": pa.array([2**64 - 1, 5], type=pa.uint64()), "w": ["wrap", "R5"]}))
    rows = hash_join(l, r, key="k", right_key="rk").take_all()
    assert [(x["k"], x["v"], x["w"]) for x in rows] == [(5, "five", "R5")]


def test_grouped_aggregate_mean_null_semantics(ray_session):
    """mean_<c> divides by the NON-NULL count of c (SQL AVG), and
    mean without a count column does not crash."""
    import ray.data

    from plugin_serdes_ray.pipelines.relational import grouped_aggregate

    ds = ray.data.from_arrow(pa.table({
        "k": ["a", "a", "b"],
        "x": pa.array([10.0, None, None], type=pa.float64())}))
    rows = {r["k"]: r for r in
            grouped_aggregate(ds, ["k"], mean_cols=["x"]).take_all()}
    assert rows["a"]["mean_x"] == 10.0      # not 5.0 (null excluded)
    assert rows["b"]["mean_x"] is None      # all-null group -> null, not nan
    rows2 = {r["k"]: r for r in
             grouped_aggregate(ds, ["k"], mean_cols=["x"],
                               count_name=None).take_all()}
    assert rows2["a"]["mean_x"] == 10.0
    assert "n" not in rows2["a"]


def test_minhash_native_batch_bit_identical():
    """The C minhash kernel must produce byte-for-byte the numpy
    signatures (mixed worker paths in one run must agree)."""
    from plugin_serdes_ray.fixtures import dedup_corpus_text
    from plugin_serdes_ray.pipelines.dedup import (
        minhash_signature, minhash_signatures_batch,
    )

    from plugin_serdes_ray.codecs.fsst_native import get_lib, native_minhash

    if get_lib() is None:
        pytest.skip("no system compiler: native path not exercisable")
    texts = [dedup_corpus_text(i) for i in range(20)] + ["hi", "", "ab\xffcd"]
    mat = minhash_signatures_batch(texts)
    ref = np.stack([minhash_signature(t or "") for t in texts])
    assert np.array_equal(mat, ref)
    # k beyond the kernel's fixed window buffers must fall back, not
    # silently corrupt (pw[16]/pad[16] in the C source)
    offs = np.array([0, 2], dtype=np.int64)
    assert native_minhash(b"hi", offs, 17,
                          np.ones(4, np.uint64), np.ones(4, np.uint64)) is None
    big_k = minhash_signatures_batch(["hello world " * 10], k=20)
    ref_k = minhash_signature("hello world " * 10, k=20)
    assert np.array_equal(big_k[0], ref_k)
    # k=16 is the LARGEST accepted k (pw[16]/pad[16]): the boundary itself
    # must be native AND bit-identical, not just the rejection side
    b16 = minhash_signatures_batch(["hello world " * 10, "x"], k=16)
    assert np.array_equal(b16[0], minhash_signature("hello world " * 10, k=16))
    assert np.array_equal(b16[1], minhash_signature("x", k=16))


def test_asof_join_semantics(ray_session):
    """Most recent right row at-or-before each left ts, per key; left rows
    with no prior right row drop (inner as-of)."""
    import datetime

    import ray.data

    from plugin_serdes_ray.pipelines.relational import asof_join

    t0 = datetime.datetime(2024, 1, 1)
    m = lambda x: t0 + datetime.timedelta(minutes=x)
    left = ray.data.from_items([
        {"lid": 1, "u": 1, "ts": m(10)},
        {"lid": 2, "u": 1, "ts": m(5)},    # equal to a right ts -> matches it
        {"lid": 3, "u": 1, "ts": m(1)},    # before any right row -> dropped
        {"lid": 4, "u": 2, "ts": m(10)},   # other key, no right rows -> dropped
    ])
    right = ray.data.from_items([
        {"u": 1, "ts": m(5), "v": 50.0},
        {"u": 1, "ts": m(8), "v": 80.0},
    ])
    rows = sorted(asof_join(left, right, on="ts", by="u").take_all(),
                  key=lambda r: r["lid"])
    assert [(r["lid"], r["v"]) for r in rows] == [(1, 80.0), (2, 50.0)]


def test_interval_join_nonoverlapping(ray_session):
    """Range join against non-overlapping per-key intervals: inside matches,
    boundary-inclusive, gaps and foreign keys drop."""
    import datetime

    import ray.data

    from plugin_serdes_ray.pipelines.relational import interval_join

    t0 = datetime.datetime(2024, 1, 1)
    m = lambda x: t0 + datetime.timedelta(minutes=x)
    left = ray.data.from_items([
        {"lid": 1, "u": 1, "ts": m(5)},    # inside [0, 10]
        {"lid": 2, "u": 1, "ts": m(10)},   # hi boundary inclusive
        {"lid": 3, "u": 1, "ts": m(15)},   # gap -> dropped
        {"lid": 4, "u": 1, "ts": m(20)},   # lo boundary of second interval
        {"lid": 5, "u": 2, "ts": m(5)},    # no intervals for key 2 -> dropped
    ])
    right = ray.data.from_items([
        {"u": 1, "lo": m(0), "hi": m(10), "tag": "a"},
        {"u": 1, "lo": m(20), "hi": m(30), "tag": "b"},
    ])
    rows = sorted(interval_join(left, right, on="ts", by="u",
                                lo_col="lo", hi_col="hi").take_all(),
                  key=lambda r: r["lid"])
    assert [(r["lid"], r["tag"]) for r in rows] == [(1, "a"), (2, "a"), (4, "b")]


def test_hash_join_left_outer(ray_session):
    """LEFT join: unmatched left rows keep null right columns; null-key
    left rows are kept too (SQL: null never matches, LEFT keeps the row)."""
    import ray.data

    from plugin_serdes_ray.pipelines.relational import hash_join

    left = ray.data.from_items([
        {"k": 1, "v": "a"}, {"k": 2, "v": "b"},
        {"k": None, "v": "n"}, {"k": 9, "v": "z"}])
    right = ray.data.from_items([
        {"rk": 1, "w": "R1"}, {"rk": 1, "w": "R1b"}, {"rk": None, "w": "RN"}])
    rows = hash_join(left, right, key="k", right_key="rk",
                     join_type="left").take_all()
    got = sorted(((-1 if r["k"] is None else r["k"]), r["v"], r["w"])
                 for r in rows)
    assert got == [(-1, "n", None), (1, "a", "R1"), (1, "a", "R1b"),
                   (2, "b", None), (9, "z", None)]


def test_hash_join_right_and_full_outer(ray_session):
    """RIGHT/FULL join: unmatched right rows appear once with their key in
    the left-named key column (COALESCE convention) and null left columns."""
    import ray.data

    from plugin_serdes_ray.pipelines.relational import hash_join

    left = ray.data.from_items([
        {"k": 1, "v": "a"}, {"k": 2, "v": "b"}, {"k": None, "v": "n"}])
    right = ray.data.from_items([
        {"rk": 1, "w": "R1"}, {"rk": 7, "w": "R7"}, {"rk": None, "w": "RN"}])

    rows = hash_join(left, right, key="k", right_key="rk",
                     join_type="right").take_all()
    got = sorted(((-1 if r["k"] is None else r["k"]), r["v"], r["w"])
                 for r in rows)
    assert got == [(-1, None, "RN"), (1, "a", "R1"), (7, None, "R7")]

    rows = hash_join(left, right, key="k", right_key="rk",
                     join_type="full").take_all()
    got = sorted(((-1 if r["k"] is None else r["k"]), r["v"] or "", r["w"] or "")
                 for r in rows)
    assert got == [(-1, "", "RN"), (-1, "n", ""), (1, "a", "R1"),
                   (2, "b", ""), (7, "", "R7")]


def test_hash_join_multikey(ray_session):
    """Composite join keys: rows match only when EVERY key column matches;
    a null in any key component never matches (but LEFT keeps the row)."""
    import ray.data

    from plugin_serdes_ray.pipelines.relational import hash_join

    left = ray.data.from_items([
        {"a": 1, "b": "x", "v": "l1"}, {"a": 1, "b": "y", "v": "l2"},
        {"a": 2, "b": "x", "v": "l3"}, {"a": 1, "b": None, "v": "l4"}])
    right = ray.data.from_items([
        {"ra": 1, "rb": "x", "w": "r1"}, {"ra": 2, "rb": "x", "w": "r2"},
        {"ra": 2, "rb": "y", "w": "r3"}])
    rows = hash_join(left, right, key=["a", "b"], right_key=["ra", "rb"],
                     join_type="inner").take_all()
    assert sorted((r["v"], r["w"]) for r in rows) == [("l1", "r1"), ("l3", "r2")]

    rows = hash_join(left, right, key=["a", "b"], right_key=["ra", "rb"],
                     join_type="left").take_all()
    assert sorted((r["v"], r["w"] or "") for r in rows) == [
        ("l1", "r1"), ("l2", ""), ("l3", "r2"), ("l4", "")]


def test_hash_join_guards(ray_session):
    """skew_salts is limited to single-key inner/left joins; bad join_type
    and mismatched key lists fail loudly."""
    import ray.data

    from plugin_serdes_ray.pipelines.relational import hash_join

    l = ray.data.from_items([{"k": 1, "v": "a"}])
    r = ray.data.from_items([{"rk": 1, "w": "R"}])
    with pytest.raises(ValueError):
        hash_join(l, r, key="k", right_key="rk", join_type="cross")
    with pytest.raises(ValueError):
        hash_join(l, r, key=["k"], right_key=["rk", "rk"])
    with pytest.raises(ValueError):
        hash_join(l, r, key="k", right_key="rk", join_type="full",
                  skew_salts={1: 4})
    # left join + salting stays supported: replicated right rows match in
    # every subkey, unmatched left rows are locally (= globally) unmatched
    left = ray.data.from_items(
        [{"k": "hot", "lv": i} for i in range(20)] + [{"k": "lone", "lv": 99}])
    right = ray.data.from_items([{"k": "hot", "rv": j} for j in range(2)])
    rows = hash_join(left, right, key="k", skew_salts={"hot": 4},
                     join_type="left").take_all()
    hot = {(r["lv"], r["rv"]) for r in rows if r["k"] == "hot"}
    assert hot == {(i, j) for i in range(20) for j in range(2)}
    assert [(r["lv"], r["rv"]) for r in rows if r["k"] == "lone"] == [(99, None)]


def test_asof_left_join(ray_session):
    """ASOF LEFT JOIN: left rows with no prior right row (or a null key)
    are kept with null right columns."""
    import datetime

    import ray.data

    from plugin_serdes_ray.pipelines.relational import asof_join

    t0 = datetime.datetime(2024, 1, 1)
    m = lambda x: t0 + datetime.timedelta(minutes=x)
    left = ray.data.from_items([
        {"lid": 1, "u": 1, "ts": m(10)},
        {"lid": 2, "u": 1, "ts": m(1)},     # before any right row -> null v
        {"lid": 3, "u": 2, "ts": m(10)},    # key without right rows -> null v
        {"lid": 4, "u": None, "ts": m(10)},  # null key -> kept, null v
    ])
    right = ray.data.from_items([{"u": 1, "ts": m(5), "v": 50.0}])
    rows = sorted(asof_join(left, right, on="ts", by="u",
                            join_type="left").take_all(),
                  key=lambda r: r["lid"])
    assert [(r["lid"], r["v"]) for r in rows] == [
        (1, 50.0), (2, None), (3, None), (4, None)]
    with pytest.raises(ValueError):
        asof_join(left, right, on="ts", by="u", join_type="full")


def test_interval_join_overlap_raises(ray_session):
    """Inputs violating the documented non-overlap assumption raise a
    ValueError naming the key instead of silently matching one interval."""
    import datetime

    import ray.data

    from plugin_serdes_ray.pipelines.relational import interval_join

    t0 = datetime.datetime(2024, 1, 1)
    m = lambda x: t0 + datetime.timedelta(minutes=x)
    left = ray.data.from_items([{"lid": 1, "u": 1, "ts": m(5)}])
    right = ray.data.from_items([
        {"u": 1, "lo": m(0), "hi": m(10), "tag": "a"},
        {"u": 1, "lo": m(8), "hi": m(20), "tag": "b"},   # overlaps [0, 10]
    ])
    with pytest.raises(Exception) as ei:
        interval_join(left, right, on="ts", by="u",
                      lo_col="lo", hi_col="hi").take_all()
    assert "overlapping" in str(ei.value)
    # null-bound right rows define no interval and are dropped, not matched
    right2 = ray.data.from_items([
        {"u": 1, "lo": m(0), "hi": m(10), "tag": "a"},
        {"u": 1, "lo": m(20), "hi": None, "tag": "bad"},
    ])
    rows = interval_join(left, right2, on="ts", by="u",
                         lo_col="lo", hi_col="hi").take_all()
    assert [(r["lid"], r["tag"]) for r in rows] == [(1, "a")]


def test_bmp_ppm_decode_real():
    """Stdlib image decoders: encode->decode round trip, stride padding,
    bottom-up flip, BGR->RGB order, P6 comments, and loud failures."""
    from plugin_serdes_ray.pipelines.multimodal import (
        decode_bmp, decode_image, decode_ppm, encode_bmp,
    )

    rng = np.random.default_rng(5)
    for h, w in ((1, 1), (3, 5), (7, 2), (8, 16)):   # odd widths hit padding
        px = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        assert np.array_equal(decode_bmp(encode_bmp(px)), px)
    # channel order: a pure-red image must come back red, not blue
    red = np.zeros((2, 2, 3), dtype=np.uint8)
    red[:, :, 0] = 200
    back = decode_bmp(encode_bmp(red))
    assert back[0, 0, 0] == 200 and back[0, 0, 2] == 0

    px = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
    ppm = b"P6\n# a comment\n3 2\n255\n" + px.tobytes()
    assert np.array_equal(decode_ppm(ppm), px)
    assert decode_image(b"\x89PNG....") is None      # unknown format -> None
    with pytest.raises(ValueError):
        decode_bmp(b"BM" + b"\x00" * 10)             # truncated header
    with pytest.raises(ValueError):
        decode_ppm(b"P6\n2 2\n65535\n" + b"\x00" * 24)   # 16-bit maxval
    with pytest.raises(ValueError):
        decode_bmp(encode_bmp(px)[:-4])              # truncated raster


def test_image_stats_actor_stage(ray_session):
    """ImageStats actors parse real BMP bytes; undecodable payloads yield
    nulls (never fake numbers)."""
    import ray.data

    from plugin_serdes_ray.pipelines.multimodal import encode_bmp, image_stats

    px = np.full((4, 6, 3), 37, dtype=np.uint8)
    px[:, :, 0] = 200                                 # R channel distinct
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], type=pa.int64()),
        "image": pa.array([encode_bmp(px), b"not an image"],
                          type=pa.large_binary()),
    }))
    rows = sorted(image_stats(ds, concurrency=1).take_all(),
                  key=lambda r: r["doc_id"])
    assert (rows[0]["width"], rows[0]["height"]) == (6, 4)
    assert rows[0]["mean_r"] == 200.0 and rows[0]["mean_b"] == 37.0
    assert rows[1]["width"] is None and rows[1]["mean_r"] is None


def test_dhash64_invariances():
    """dHash: deterministic; invariant to global brightness shift and
    contrast scale and to changes in pixels the 9x8 grid never samples;
    sensitive to a real content change."""
    from plugin_serdes_ray.pipelines.multimodal import dhash64

    rng = np.random.default_rng(3)
    px = rng.integers(20, 200, size=(32, 32, 3)).astype(np.uint8)
    h0 = dhash64(px)
    assert h0 == dhash64(px.copy())                     # deterministic
    assert 0 <= h0 < (1 << 64)
    assert dhash64(np.clip(px.astype(np.int64) + 30, 0, 255)
                   .astype(np.uint8)) == h0             # brightness shift
    # off-grid pixel tweak: rows sampled are (i*32)//8 -> multiples of 4,
    # so row 1 is never sampled
    tweaked = px.copy()
    tweaked[1, 1] = 255 - tweaked[1, 1]
    assert dhash64(tweaked) == h0
    # a real content change (flip the whole top half) moves the hash
    flipped = px.copy()
    flipped[:16] = 255 - flipped[:16]
    assert dhash64(flipped) != h0


def test_image_near_duplicates_chain(ray_session):
    """image_near_duplicates: injected brightness-shifted copies pair with
    their originals; independent noise images do not; undecodable payloads
    never pair."""
    import ray.data

    from plugin_serdes_ray.pipelines.multimodal import (encode_bmp,
                                                        encode_png,
                                                        image_near_duplicates)

    rng = np.random.default_rng(11)
    ids, imgs = [], []
    for i in range(12):
        px = rng.integers(10, 200, size=(16, 24, 3)).astype(np.uint8)
        ids.append(i)
        imgs.append(encode_bmp(px))
        if i % 4 == 0:
            # near-dup: +20 brightness, PNG container (different BYTES,
            # different format, same perceptual content)
            ids.append(100 + i)
            imgs.append(encode_png((px.astype(np.int64) + 20)
                                   .clip(0, 255).astype(np.uint8)))
    ids.append(999)
    imgs.append(b"JPEG-ish undecodable payload")
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "image": pa.array(imgs, type=pa.large_binary())}))
    pairs = sorted((r["keep_id"], r["dup_id"]) for r in
                   image_near_duplicates(ds, max_hamming=2).take_all())
    assert pairs == [(0, 100), (4, 104), (8, 108)]


def test_audio_fingerprint_invariances():
    """Robust audio fingerprint: deterministic, invariant to exact
    amplitude halving (sign-of-delta structure), sensitive to different
    content; non-PCM payloads raise."""
    import pytest

    from plugin_serdes_ray.pipelines.multimodal import (audio_fingerprint64,
                                                        encode_wav)

    rng = np.random.default_rng(13)
    s = (rng.integers(-8000, 8000, size=2048) * 2).astype(np.int16)
    h0 = audio_fingerprint64(encode_wav(s))
    assert h0 == audio_fingerprint64(encode_wav(s.copy()))
    assert 0 <= h0 < (1 << 64)
    # exact halving: every band energy scales by 0.25 -> signs survive
    assert audio_fingerprint64(encode_wav(s // 2)) == h0
    other = (rng.integers(-8000, 8000, size=2048) * 2).astype(np.int16)
    assert audio_fingerprint64(encode_wav(other)) != h0
    with pytest.raises(ValueError):
        audio_fingerprint64(b"RIFFxxxxWAVEjunk")


def test_audio_near_duplicates_chain(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.multimodal import (
        audio_near_duplicates, encode_wav)

    rng = np.random.default_rng(17)
    ids, clips = [], []
    for i in range(10):
        s = (rng.integers(-8000, 8000, size=1024) * 2).astype(np.int16)
        ids.append(i)
        clips.append(encode_wav(s))
        if i % 5 == 0:
            ids.append(100 + i)           # half-amplitude copy
            clips.append(encode_wav((s // 2).astype(np.int16)))
    ids.append(999)
    clips.append(b"not audio at all")
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "audio": pa.array(clips, type=pa.large_binary())}))
    pairs = sorted((r["keep_id"], r["dup_id"]) for r in
                   audio_near_duplicates(ds, max_hamming=3).take_all())
    assert pairs == [(0, 100), (5, 105)]


def test_video_fingerprint_and_near_duplicates(ray_session):
    """Video fingerprint: brightness-shifted whole-clip copies keep the
    majority-vote frame-dHash fingerprint; different clips differ; the
    chain recovers exactly the injected pairs."""
    import pytest
    import ray.data

    from plugin_serdes_ray.pipelines.multimodal import (
        encode_y4m, video_fingerprint64, video_near_duplicates)

    rng = np.random.default_rng(29)

    def clip(seed):
        r = np.random.default_rng(seed)
        return r.integers(10, 200, size=(4, 16, 32)).astype(np.uint8)

    base = clip(0)
    h0 = video_fingerprint64(encode_y4m(base))
    assert h0 == video_fingerprint64(encode_y4m(base.copy()))
    shifted = np.clip(base.astype(np.int64) + 20, 0, 255).astype(np.uint8)
    assert video_fingerprint64(encode_y4m(shifted)) == h0
    assert video_fingerprint64(encode_y4m(clip(1))) != h0
    with pytest.raises(ValueError):
        video_fingerprint64(b"not video")

    ids, vids = [], []
    for i in range(8):
        c = clip(100 + i)
        ids.append(i)
        vids.append(encode_y4m(c))
        if i % 4 == 0:
            ids.append(900 + i)
            vids.append(encode_y4m(
                np.clip(c.astype(np.int64) + 15, 0, 255).astype(np.uint8)))
    ids.append(999)
    vids.append(b"JUNK payload")
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "video": pa.array(vids, type=pa.large_binary())}))
    pairs = sorted((r["keep_id"], r["dup_id"]) for r in
                   video_near_duplicates(ds).take_all())
    assert pairs == [(0, 900), (4, 904)]


def test_quality_scores_string_layouts():
    """quality_scores must read the offsets buffer at the column's own
    width: large_string (int64 offsets, the north-rule corpus type) and a
    sliced array with a nonzero offset must match the plain-string result."""
    from plugin_serdes_ray.pipelines.textstats import quality_scores

    texts = ["Hello, world! This is fine.", "", None,
             "punct!!!???...", "the and of to in plain words here",
             "xyz " * 50]

    def scores(arr):
        t = quality_scores(pa.table({"text": arr}))
        return [t.column(c).to_pylist() for c in
                ("q_length", "q_alpha", "q_punct", "q_stop", "q_score")]

    base = scores(pa.array(texts, type=pa.string()))
    assert scores(pa.array(texts, type=pa.large_string())) == base
    # sliced window of a larger array: offsets start past buffer position 0
    big = pa.array(["PAD-A-LONG-PREFIX", *texts, "PAD-SUFFIX"],
                   type=pa.string())
    assert scores(big.slice(1, len(texts))) == base
    big_l = pa.array(["PAD-A-LONG-PREFIX", *texts, "PAD-SUFFIX"],
                     type=pa.large_string())
    assert scores(big_l.slice(1, len(texts))) == base


def test_wav_decode_real(ray_session):
    """Stdlib PCM16 WAV codec: encode->decode round trip (mono + stereo),
    real FFT features for WAV payloads, AudioStats nulls for non-WAV."""
    import ray.data

    from plugin_serdes_ray.pipelines.multimodal import (
        AudioFeaturizer, audio_stats, decode_wav, encode_wav,
    )

    rng = np.random.default_rng(9)
    mono = rng.integers(-32768, 32767, 300, dtype=np.int16)
    rate, back = decode_wav(encode_wav(mono, rate=16000))
    assert rate == 16000 and np.array_equal(back[:, 0], mono)
    stereo = rng.integers(-32768, 32767, (200, 2), dtype=np.int16)
    _, back2 = decode_wav(encode_wav(stereo, rate=8000))
    assert np.array_equal(back2, stereo)
    with pytest.raises(ValueError):
        decode_wav(b"RIFFxxxxWAVE")                 # no chunks
    with pytest.raises(ValueError):
        decode_wav(b"OggS" + b"\x00" * 60)          # not RIFF

    # real path: identical WAV payloads -> identical features; distinct
    # payloads -> distinct features (the FFT actually ran over the samples)
    feat = AudioFeaturizer()
    t = pa.table({"audio": pa.array(
        [encode_wav(mono), encode_wav(mono), encode_wav(stereo)],
        type=pa.large_binary())})
    f = feat(t).column("audio_feat").to_pylist()
    assert f[0] == f[1] != f[2] and len(f[0]) == 8 * 16

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], type=pa.int64()),
        "audio": pa.array([encode_wav(np.full(80, 25, dtype=np.int16), 8000),
                           b"not audio"], type=pa.large_binary())}))
    rows = sorted(audio_stats(ds, concurrency=1).take_all(),
                  key=lambda r: r["doc_id"])
    assert rows[0]["n_samples"] == 80 and rows[0]["rms"] == 25.0
    assert rows[0]["duration_s"] == 80 / 8000
    assert rows[1]["n_samples"] is None and rows[1]["rms"] is None


def test_y4m_decode_real(ray_session):
    """Stdlib YUV4MPEG2 codec: encode->decode round trip, VideoStats over
    real clips (nulls for non-Y4M), colorspace/truncation errors."""
    import ray.data

    from plugin_serdes_ray.pipelines.multimodal import (
        decode_y4m, encode_y4m, video_stats,
    )

    rng = np.random.default_rng(11)
    luma = rng.integers(0, 256, (5, 4, 6), dtype=np.uint8)
    info, back = decode_y4m(encode_y4m(luma, fps=(30, 1)))
    assert (info["width"], info["height"], info["n_frames"]) == (6, 4, 5)
    assert info["fps_num"] == 30 and np.array_equal(back, luma)
    # 4:4:4 and mono frame sizes parse too
    mono = b"YUV4MPEG2 W2 H2 F25:1 Cmono\nFRAME\n" + bytes([7, 7, 7, 7])
    i2, f2 = decode_y4m(mono)
    assert i2["n_frames"] == 1 and f2.mean() == 7.0
    with pytest.raises(ValueError):
        decode_y4m(b"YUV4MPEG2 W2 H2 C999\nFRAME\n" + b"\x00" * 6)
    with pytest.raises(ValueError):        # truncated frame body
        decode_y4m(b"YUV4MPEG2 W4 H4 C420\nFRAME\n" + b"\x00" * 5)

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], type=pa.int64()),
        "video": pa.array([encode_y4m(np.full((3, 2, 2), 9, dtype=np.uint8)),
                           b"not video"], type=pa.large_binary())}))
    rows = sorted(video_stats(ds, concurrency=1).take_all(),
                  key=lambda r: r["doc_id"])
    assert rows[0]["n_frames"] == 3 and rows[0]["mean_luma"] == 9.0
    assert rows[0]["fps"] == 25.0
    assert rows[1]["n_frames"] is None and rows[1]["mean_luma"] is None


def test_frame_sampler_real_y4m(ray_session):
    """FrameSampler picks evenly-spaced REAL frames from Y4M and re-encodes
    them as BMPs the image stage can decode; non-Y4M keeps the documented
    byte-slice fallback."""
    import ray.data

    from plugin_serdes_ray.pipelines.multimodal import (
        decode_bmp, encode_y4m, sample_frames,
    )

    luma = np.stack([np.full((2, 4), 10 * f, dtype=np.uint8)
                     for f in range(6)])
    ds = ray.data.from_arrow(pa.table({
        "video": pa.array([encode_y4m(luma), b"rawbytes" * 4],
                          type=pa.large_binary())}))
    rows = sample_frames(ds, n_frames=3, concurrency=1).take_all()
    y4m_frames = next(r["frames"] for r in rows if len(r["frames"]) == 3
                      and r["frames"][0][:2] == b"BM")
    # linspace(0, 5, 3) -> frames 0, 2, 5 -> luma 0, 20, 50
    means = [float(decode_bmp(f).mean()) for f in y4m_frames]
    assert means == [0.0, 20.0, 50.0]
    fake = next(r["frames"] for r in rows if r["frames"]
                and r["frames"][0][:2] != b"BM")
    # byte-slice fallback intact: 3 deterministic slices of the payload
    assert len(fake) == 3
    assert b"".join(fake) == (b"rawbytes" * 4)[:30]


# ---------------------------------------------------------------------------
# dup_span_stats (round 4: cross-doc duplicate n-gram spans)
# ---------------------------------------------------------------------------


def test_dup_span_stats_injected_duplicates(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.dedup import dup_span_stats

    shared = "S" * 7 + "hared boilerplate span " + "x" * 17   # >= 2 grams
    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
        "text": pa.array([
            shared + " unique tail one " + "a" * 40,
            shared + " unique tail two " + "b" * 40,
            "completely different content with no overlap " + "c" * 40,
            "tiny",                      # < 20 chars: no grams, absent
            None,                        # null text: absent
        ]),
    })
    out = {r["doc_id"]: r for r in dup_span_stats(
        ray.data.from_arrow(t), "text", "doc_id",
        gram=20, stride=10).take_all()}
    assert set(out) == {1, 2, 3}
    # docs 1 and 2 share the leading grams of `shared`; doc 3 shares none
    assert out[1]["n_dup_grams"] >= 2 and out[2]["n_dup_grams"] >= 2
    assert out[3]["n_dup_grams"] == 0 and out[3]["dup_frac"] == 0.0
    for d in (1, 2):
        assert 0 < out[d]["dup_frac"] <= 1.0
        assert out[d]["n_dup_grams"] <= out[d]["n_grams"]


def test_dup_span_stats_character_semantics(ray_session):
    """Multi-byte characters count one position each (SQL substr parity):
    two docs sharing a 20-CHAR gram full of multibyte chars must collide."""
    import ray.data

    from plugin_serdes_ray.pipelines.dedup import dup_span_stats

    core = "é世界" * 7                     # 21 chars, multibyte
    t = pa.table({
        "doc_id": pa.array([1, 2], type=pa.int64()),
        "text": pa.array([core + " alpha tail here", core + " beta tails"]),
    })
    out = {r["doc_id"]: r for r in dup_span_stats(
        ray.data.from_arrow(t), "text", "doc_id").take_all()}
    assert out[1]["n_dup_grams"] >= 1 and out[2]["n_dup_grams"] >= 1


def test_span_gram_hashes_match_python_slices(ray_session):
    """The vectorized rolling hash must hash exactly the substrings SQL
    sees: same count as the substr/generate_series enumeration and
    position-independent values (same gram elsewhere -> same hash)."""
    from plugin_serdes_ray.pipelines.dedup import _span_gram_hashes

    text = "abcdefghij" * 8
    h = _span_gram_hashes(text, 20, 10)
    starts = range(0, len(text) - 19, 10)
    grams = {text[i:i + 20] for i in starts}
    assert len(h) == len(grams)       # distinct hashes == distinct grams
    # every 10-aligned gram of this periodic text is the same string
    assert len(grams) == 1 and len(h) == 1
    # position independence: the same gram string embedded at another
    # 10-aligned offset hashes identically
    gram = "qwertyuiopasdfghjkl;"
    alone = _span_gram_hashes(gram, 20, 10)
    embedded = _span_gram_hashes("0123456789" + gram + "aftermath!", 20, 10)
    assert alone[0] in set(embedded.tolist())


def test_exact_dedup_incremental(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.dedup import exact_dedup_incremental

    seen = pa.table({
        "doc_id": pa.array([1, 2, 3], type=pa.int64()),
        "text": pa.array(["alpha", "beta", "gamma"])})
    # new shard: one internal dup pair (keep min id), one text already
    # seen ('beta'), the rest genuinely new
    new = pa.table({
        "doc_id": pa.array([10, 11, 12, 13, 14], type=pa.int64()),
        "text": pa.array(["delta", "delta", "beta", "epsilon", "zeta"])})
    out = exact_dedup_incremental(
        ray.data.from_arrow(new).repartition(3),
        ray.data.from_arrow(seen).repartition(2), "text", "doc_id")
    rows = sorted((r["doc_id"], r["text"]) for r in out.take_all())
    assert rows == [(10, "delta"), (13, "epsilon"), (14, "zeta")]
    assert {c for r in out.take_all() for c in r} == {"doc_id", "text"}


def test_corpus_diff(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.dedup import corpus_diff

    old = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "text": pa.array(["keep", "gone", "stays", "gone"])})
    new = pa.table({
        "doc_id": pa.array([10, 11, 12], type=pa.int64()),
        "text": pa.array(["keep", "fresh", "stays"])})
    out = corpus_diff(ray.data.from_arrow(old).repartition(2),
                      ray.data.from_arrow(new).repartition(2),
                      "text", "doc_id")
    rows = sorted((r["side"], r["doc_id"], r["text"])
                  for r in out.take_all())
    # 'gone' (both old copies) removed; 'fresh' added; shared text silent
    assert rows == [("added", 11, "fresh"), ("removed", 2, "gone"),
                    ("removed", 4, "gone")]


def test_quantize_embeddings_matches_sql_and_roundtrips(ray_session,
                                                        sf_dir):
    import duckdb
    import numpy as np
    import ray.data

    from plugin_serdes_ray.pipelines.vectors import (dequantize,
                                                     quantize_embeddings)
    from plugin_serdes_ray.util import vectors_to_numpy

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    out, (mn, mx) = quantize_embeddings(ds)
    got = {}
    orig = {}
    for b in out.iter_batches(batch_format="pyarrow"):
        q = vectors_to_numpy(b.column("embedding_q"), dtype=np.int64)
        v = vectors_to_numpy(b.column("embedding"), dtype=np.float64)
        for vid, row, vr in zip(b.column("vec_id").to_pylist(), q, v):
            got[vid] = row.tolist()
            orig[vid] = vr
    want = {}
    for vid, i, qv in duckdb.sql(f"""
        WITH flat AS (SELECT vec_id,
                             generate_subscripts(embedding, 1) AS i,
                             unnest(embedding)::DOUBLE AS v
                      FROM read_parquet('{sf_dir}/embeddings.parquet')),
        mm AS (SELECT i, min(v) mn, max(v) mx FROM flat GROUP BY i)
        SELECT f.vec_id, f.i - 1,
               CAST(CASE WHEN mm.mx > mm.mn
                    THEN floor((f.v - mm.mn) / (mm.mx - mm.mn) * 255
                               + 0.5) - 128
                    ELSE 0 END AS BIGINT)
        FROM flat f JOIN mm USING (i)""").fetchall():
        want.setdefault(vid, {})[i] = qv
    assert set(got) == set(want)
    for vid in got:
        assert got[vid] == [want[vid][i] for i in range(len(got[vid]))]
    # reconstruction error bounded by half a quantization step per dim
    step = (mx - mn) / 255.0
    for vid, row in got.items():
        err = np.abs(dequantize(np.array(row), mn, mx) - orig[vid])
        assert (err <= step / 2 + 1e-12).all()


def test_quantize_embeddings_constant_dim_and_nulls(ray_session):
    import numpy as np
    import pytest as _pytest
    import ray.data

    from plugin_serdes_ray.pipelines.vectors import quantize_embeddings
    from plugin_serdes_ray.util import vectors_to_numpy

    t = pa.table({
        "vec_id": pa.array([0, 1], type=pa.int64()),
        "embedding": pa.array([[1.0, 7.0], [1.0, -3.0]],
                              type=pa.list_(pa.float32()))})
    out, (mn, mx) = quantize_embeddings(ray.data.from_arrow(t))
    rows = pa.Table.from_pylist(out.take_all()).sort_by("vec_id")
    q = vectors_to_numpy(rows.column("embedding_q"), dtype=np.int64)
    # constant dim 0 codes to 0; varying dim hits the extremes
    assert q[:, 0].tolist() == [0, 0]
    assert sorted(q[:, 1].tolist()) == [-128, 127]
    withnull = pa.table({
        "vec_id": pa.array([0, 1], type=pa.int64()),
        "embedding": pa.array([[1.0, 2.0], None],
                              type=pa.list_(pa.float32()))})
    ds2, _ = quantize_embeddings(ray.data.from_arrow(withnull),
                                 minmax=(mn, mx))
    with _pytest.raises(Exception):
        ds2.take_all()


def test_pagerank_matches_reference_power_iteration(ray_session):
    import numpy as np
    import ray.data

    from plugin_serdes_ray.pipelines.graph import pagerank

    # 6 vertices; vertex 5 is dangling (dst only), vertex 4 self-loops
    E = [(0, 1), (0, 2), (1, 2), (2, 0), (3, 2), (3, 5), (4, 4), (2, 5)]
    t = pa.table({"src": pa.array([a for a, _ in E], type=pa.int64()),
                  "dst": pa.array([b for _, b in E], type=pa.int64())})
    got = {r["v"]: r["rank"]
           for r in pagerank(ray.data.from_arrow(t).repartition(3),
                             iters=10).take_all()}
    # dense numpy reference with identical semantics
    n, d = 6, 0.85
    od = np.zeros(n)
    for a, _ in E:
        od[a] += 1
    p = np.full(n, 1.0 / n)
    for _ in range(10):
        dangling = p[od == 0].sum()
        new = np.full(n, (1 - d) / n + d * dangling / n)
        for a, b in E:
            new[b] += d * p[a] / od[a]
        p = new
    assert set(got) == set(range(n))
    for v in range(n):
        assert abs(got[v] - p[v]) < 1e-12, v
    # ranks form a probability distribution
    assert abs(sum(got.values()) - 1.0) < 1e-9


def test_clean_web_corpus_preset(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.presets import clean_web_corpus

    good_a = " ".join(f"alpha{i} beta{i}" for i in range(15))  # 30 words
    # a reformatted copy of good_a: different case/punct/spacing only
    good_a_copy = "  " + good_a.upper().replace(" ", "   ") + " !!! "
    good_b = " ".join(f"gamma{i}" for i in range(25))
    too_short = "tiny doc"
    spam = "same line\n" * 40 + " ".join(f"w{i}" for i in range(30))
    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], type=pa.int64()),
        "text": pa.array([good_a, good_a_copy, good_b, too_short, spam])})
    out = clean_web_corpus(ray.data.from_arrow(t).repartition(3),
                           min_words=10,
                           splits={"train": 0.5, "val": 0.5})
    rows = {r["doc_id"]: r for r in out.take_all()}
    # quality filter drops the short and spammy docs; dedup keeps the
    # min-id member of the reformatted pair; originals survive intact
    assert set(rows) == {0, 2}
    assert rows[0]["text"] == good_a and rows[2]["text"] == good_b
    assert all(r["split"] in ("train", "val") for r in rows.values())
    # deterministic end to end
    again = clean_web_corpus(ray.data.from_arrow(t).repartition(2),
                             min_words=10,
                             splits={"train": 0.5, "val": 0.5})
    assert {(r["doc_id"], r["split"]) for r in again.take_all()} == \
        {(d, r["split"]) for d, r in rows.items()}


def test_prepare_pretraining_shards_preset(ray_session, tmp_path):
    """End-to-end corpus -> shards: cleaning drops the dup, packing is the
    exact prefix-sum layout in shuffle-rank order, whole windows land on
    one shard, and a rerun after deleting a shard rewrites ONLY it."""
    import glob as _g

    import pyarrow.parquet as pq_
    import ray.data

    from plugin_serdes_ray.pipelines.presets import prepare_pretraining_shards

    n = 40
    # letter-only tokens: the canonical dedup key strips digits/punct, so
    # numbered tokens would collapse every same-length doc into one
    texts = [" ".join(f"w{chr(97 + i % 26)}{chr(97 + i // 26)}{chr(97 + j)}"
                      for j in range(3 + i % 7)) for i in range(n)]
    texts[7] = texts[3]                       # exact dup -> dropped
    t = pa.table({"doc_id": pa.array(range(n), type=pa.int64()),
                  "text": pa.array(texts)})
    out = str(tmp_path / "shards")
    stats = prepare_pretraining_shards(
        ray.data.from_arrow(t).repartition(4), out, seq_len=16,
        n_shards=4, seed=1, clean_kwargs={"min_words": 1})
    assert stats["written"] >= 1 and stats["rows"] == n - 1
    files = sorted(_g.glob(f"{out}/shard_id=*/part-0.parquet"))
    back = pa.concat_tables([pq_.read_table(f) for f in files])
    assert back.num_rows == n - 1 and 7 not in \
        back.column("doc_id").to_pylist()
    rows = sorted(back.to_pylist(), key=lambda r: r["rank"])
    # exact concat-and-chop invariant over the shuffled order
    start = 0
    for r in rows:
        assert r["bin_id"] == start // 16 and r["bin_offset"] == start % 16
        assert r["shard_id"] == r["bin_id"] % 4
        start += r["ws_tokens"]
    # resume: delete one shard, rerun -> exactly that shard rewritten
    import shutil as _sh
    _sh.rmtree(f"{out}/shard_id=2")
    stats2 = prepare_pretraining_shards(
        ray.data.from_arrow(t).repartition(4), out, seq_len=16,
        n_shards=4, seed=1, clean_kwargs={"min_words": 1})
    assert stats2["written"] == 1 and stats2["skipped"] == len(files) - 1
    files2 = sorted(_g.glob(f"{out}/shard_id=*/part-0.parquet"))
    back2 = pa.concat_tables([pq_.read_table(f) for f in files2])
    assert back2.num_rows == n - 1


def test_clean_web_corpus_near_dedup(ray_session):
    import ray.data

    from plugin_serdes_ray.fixtures import dedup_corpus_table
    from plugin_serdes_ray.pipelines.presets import clean_web_corpus

    # the controlled near-dup corpus: unique bases + 3 injected near-dups
    # (>= 1e6). Near-dup texts differ by several tokens, so canonical
    # EXACT dedup keeps them; the LSH stage must drop exactly them.
    t = dedup_corpus_table(list(range(30)), 3)
    ds = ray.data.from_arrow(t).repartition(4)
    kept_exact = {r["doc_id"] for r in
                  clean_web_corpus(ds, min_words=5).take_all()}
    kept_near = {r["doc_id"] for r in
                 clean_web_corpus(ds, min_words=5,
                                  near_dedup=True).take_all()}
    injected = {i for i in kept_exact if i >= 1_000_000}
    assert len(injected) == 3            # exact dedup alone keeps them
    assert kept_near == kept_exact - injected


def test_write_partitioned_resume(ray_session, tmp_path, sf_dir):
    import os
    import shutil

    import pyarrow.parquet as pq
    import ray.data

    from plugin_serdes_ray.sinks.parquet_ import write_partitioned

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "lang"])
    out = str(tmp_path / "by_lang")
    res = write_partitioned(docs, out, "lang")
    assert res["skipped"] == 0 and res["written"] >= 2
    total = res["rows"]
    dirs = sorted(os.listdir(out))
    assert all(d.startswith("lang=") for d in dirs)
    back = pq.read_table(out + "/" + dirs[0] + "/part-0.parquet")
    assert set(back.column("lang").to_pylist()) == {
        dirs[0].split("=", 1)[1]}
    # resume: delete one partition, stamp the others, rerun
    victim = out + "/" + dirs[0]
    shutil.rmtree(victim)
    stamps = {d: os.path.getmtime(f"{out}/{d}/part-0.parquet")
              for d in dirs[1:]}
    res2 = write_partitioned(docs, out, "lang")
    assert res2["written"] == 1 and res2["skipped"] == len(dirs) - 1
    assert os.path.exists(victim + "/part-0.parquet")
    for d, m in stamps.items():
        assert os.path.getmtime(f"{out}/{d}/part-0.parquet") == m, d
    # all rows land exactly once across partitions
    n = sum(pq.read_metadata(f"{out}/{d}/part-0.parquet").num_rows
            for d in sorted(os.listdir(out)))
    assert n == total == docs.count()
    # null keys round-trip into their own partition
    t = pa.table({"doc_id": pa.array([1, 2], type=pa.int64()),
                  "lang": pa.array(["en", None])})
    out2 = str(tmp_path / "withnull")
    write_partitioned(ray.data.from_arrow(t), out2, "lang")
    assert sorted(os.listdir(out2)) == ["lang=__NULL__", "lang=en"]


def test_quantize_embeddings_empty_block(ray_session):
    """An empty block (e.g. an upstream filter emptied it) must not break
    the (0, d)-vs-(d,) broadcast, and must keep the fixed_size_list<int8,
    d> schema identical to non-empty blocks."""
    import numpy as np
    import ray.data

    from plugin_serdes_ray.pipelines.vectors import quantize_embeddings
    from plugin_serdes_ray.util import vectors_to_numpy

    t = pa.table({
        "vec_id": pa.array([0, 1, 2], type=pa.int64()),
        "embedding": pa.array([[1.0, 7.0], [1.0, -3.0], [0.5, 2.0]],
                              type=pa.list_(pa.float32()))})
    ds = ray.data.from_arrow(t).filter(
        lambda r: r["vec_id"] < 2)           # leaves blocks, empties none
    empty = ray.data.from_arrow(t.slice(0, 0))
    out, _ = quantize_embeddings(ds.union(empty))
    rows = pa.Table.from_pylist(out.take_all()).sort_by("vec_id")
    q = vectors_to_numpy(rows.column("embedding_q"), dtype=np.int64)
    assert q.shape == (2, 2)


def test_write_partitioned_null_vs_literal_null_token(ray_session,
                                                      tmp_path):
    """A NULL key and a LITERAL '__NULL__' string key must land in
    DIFFERENT partitions, and resume must keep them distinct."""
    import os

    import pyarrow.parquet as pq
    import ray.data

    from plugin_serdes_ray.sinks.parquet_ import write_partitioned

    t = pa.table({"doc_id": pa.array([1, 2, 3], type=pa.int64()),
                  "k": pa.array([None, "__NULL__", "en"])})
    out = str(tmp_path / "collide")
    res = write_partitioned(ray.data.from_arrow(t), out, "k")
    assert res["written"] == 3 and res["rows"] == 3
    dirs = sorted(os.listdir(out))
    assert len(dirs) == 3 and "k=__NULL__" in dirs
    by_val = {}
    for d in dirs:
        part = pq.read_table(f"{out}/{d}/part-0.parquet")
        assert part.num_rows == 1
        by_val[d] = part.column("doc_id")[0].as_py()
    assert by_val["k=__NULL__"] == 1          # the genuinely-null row
    assert set(by_val.values()) == {1, 2, 3}
    # resume: everything complete -> nothing rewritten, both stay distinct
    res2 = write_partitioned(ray.data.from_arrow(t), out, "k")
    assert res2["written"] == 0 and res2["skipped"] == 3
    # resume with only the NULL partition done: the literal-key row must
    # still be (re)written, not dropped by the done-set
    out3 = str(tmp_path / "partial")
    os.makedirs(f"{out3}/k=__NULL__", exist_ok=True)
    pq.write_table(t.slice(0, 1), f"{out3}/k=__NULL__/part-0.parquet")
    res3 = write_partitioned(ray.data.from_arrow(t), out3, "k")
    assert res3["written"] == 2 and res3["skipped"] == 1
    assert sorted(os.listdir(out3)) == dirs


def test_corpus_diff_mostly_unchanged_refresh(ray_session):
    """A block whose rows ALL occur in the other snapshot yields an empty
    anti-join block; the appended side column must stay string-typed so the
    union's block schemas agree."""
    import ray.data

    from plugin_serdes_ray.pipelines.dedup import corpus_diff

    old = pa.table({"doc_id": [1, 2, 3, 4], "text": ["a", "b", "c", "d"]})
    new = pa.table({"doc_id": [1, 2, 3, 4], "text": ["a", "b", "c", "e"]})
    out = corpus_diff(ray.data.from_arrow(old).repartition(4),
                      ray.data.from_arrow(new).repartition(4),
                      "text", "doc_id").take_all()
    got = sorted((r["side"], r["text"]) for r in out)
    assert got == [("added", "e"), ("removed", "d")]


def test_multimodal_stages_survive_undecodable_bodies(ray_session):
    """Known magic + unsupported body must yield nulls (stats stages) or the
    deterministic fake (feature stages), never a crashed Ray task."""
    import struct as _struct

    import ray.data

    from plugin_serdes_ray.pipelines.multimodal import (
        AudioFeaturizer, AudioStats, FrameSampler, ImageDecoder, ImageStats,
        encode_wav,
    )

    # 8-bpp BMP header (unsupported: stdlib decoder is 24/32-bpp only)
    bad_bmp = b"BM" + b"\x00" * 12 + _struct.pack("<IiiHH", 40, 2, 2, 1, 8) \
        + b"\x00" * 40
    # IEEE-float WAV (fmt_tag=3) and channels=0 WAV
    def wav_with(fmt_tag, channels, bits):
        fmt = _struct.pack("<HHIIHH", fmt_tag, channels, 8000,
                           8000 * 2, 2, bits)
        return (b"RIFF" + _struct.pack("<I", 36 + 4) + b"WAVE"
                + b"fmt " + _struct.pack("<I", len(fmt)) + fmt
                + b"data" + _struct.pack("<I", 4) + b"\x00" * 4)

    imgs = pa.table({"image": pa.array([bad_bmp, None], pa.large_binary())})
    got = ray.data.from_arrow(imgs).map_batches(
        ImageStats, batch_format="pyarrow", concurrency=1).take_all()
    assert all(r["width"] is None for r in got)
    got = ray.data.from_arrow(imgs).map_batches(
        ImageDecoder, batch_format="pyarrow", concurrency=1).take_all()
    assert len(got[0]["image_feat"]) == 32   # deterministic fake, no crash

    auds = pa.table({"audio": pa.array(
        [wav_with(3, 1, 32), wav_with(1, 0, 16), encode_wav(
            __import__("numpy").zeros((16, 1), "<i2"))], pa.large_binary())})
    got = ray.data.from_arrow(auds).map_batches(
        AudioStats, batch_format="pyarrow", concurrency=1).take_all()
    assert [r["n_samples"] for r in got] == [None, None, 16]
    got = ray.data.from_arrow(auds).map_batches(
        AudioFeaturizer, batch_format="pyarrow", concurrency=1).take_all()
    assert all(len(r["audio_feat"]) == 128 for r in got)

    vids = pa.table({"video": pa.array(
        [b"YUV4MPEG2 W4 H4 F25:1 Cmystery\n"], pa.large_binary())})
    got = ray.data.from_arrow(vids).map_batches(
        FrameSampler, batch_format="pyarrow", concurrency=1).take_all()
    assert len(got) == 1   # fake byte-slice fallback, no crash


def test_convert_files_duplicate_basenames(ray_session, tmp_path):
    from plugin_serdes_ray.pipelines.convert import convert_files

    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(); b.mkdir()
    (a / "data.csv").write_text("x\n1\n")
    (b / "data.csv").write_text("x\n2\n")
    out = str(tmp_path / "out")
    s = convert_files([str(a / "data.csv"), str(b / "data.csv")],
                      out, "csv", "jsonl", concurrency=2)
    assert s["converted"] == 2
    assert len(set(s["outputs"])) == 2
    import json as _json
    vals = sorted(_json.loads(open(p).read())["x"] for p in s["outputs"])
    assert vals == [1, 2]
    # resume skips both now that each has its own output
    s2 = convert_files([str(a / "data.csv"), str(b / "data.csv")],
                       out, "csv", "jsonl", concurrency=2)
    assert s2["skipped"] == 2


def test_generate_webpages_shard_decrease_prunes(tmp_path):
    from plugin_serdes_ray.fixtures import generate_webpages

    d = str(tmp_path / "wp")
    f1 = generate_webpages(d, 120, 6)
    assert len(f1) == 6
    f2 = generate_webpages(d, 80, 2)
    assert len(f2) == 2
    f3 = generate_webpages(d, 80, 2)   # cached call must see ONLY 2
    assert len(f3) == 2


def test_dedup_review_r4_guards(ray_session):
    """Review-r4 regressions: (1) minhash num_perm/bands misconfiguration
    raises instead of collapsing the corpus into one bucket per band;
    (2) simhash bands=1 folds the full 64-bit key into int64 instead of
    overflowing on ~half of all documents; (3) null embeddings (which
    TextFeaturizer emits for null text) are dropped, not crashed on."""
    import pyarrow as pa
    import ray.data

    from plugin_serdes_ray.pipelines.dedup import (
        embedding_duplicates, minhash_band_rows, simhash_duplicates,
    )

    docs = ray.data.from_items(
        [{"doc_id": i, "text": f"totally distinct document {i} " * 5}
         for i in range(6)])
    with pytest.raises(ValueError, match="multiple"):
        minhash_band_rows(docs, "text", "doc_id", num_perm=8, bands=16)
    with pytest.raises(ValueError, match="multiple"):
        minhash_band_rows(docs, "text", "doc_id", num_perm=63, bands=16)

    # bands=1 / max_hamming=0: full-64-bit band keys; must not overflow
    dup = {"doc_id": 7, "text": "totally distinct document 0 " * 5}
    out = simhash_duplicates(docs.union(ray.data.from_items([dup])),
                             "text", "doc_id",
                             max_hamming=0, bands=1).take_all()
    assert {(r["keep_id"], r["dup_id"]) for r in out} == {(0, 7)}

    rng = np.random.default_rng(0)
    v = rng.standard_normal(16).astype(np.float32)
    emb = pa.table({
        "vec_id": pa.array([1, 2, 3], type=pa.int64()),
        "embedding": pa.array([v.tolist(), (v * 1.001).tolist(), None],
                              type=pa.list_(pa.float32()))})
    pairs = {(r["keep_id"], r["dup_id"]) for r in
             embedding_duplicates(ray.data.from_arrow(emb),
                                  "embedding", "vec_id").take_all()}
    assert pairs == {(1, 2)}


def test_knn_brute_skips_null_vectors(ray_session):
    import pyarrow as pa
    import ray.data

    from plugin_serdes_ray.pipelines.ann import knn_brute

    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 8)).astype(np.float32)
    emb = pa.table({
        "vec_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "embedding": pa.array(
            [m[0].tolist(), None, m[2].tolist(), m[3].tolist()],
            type=pa.list_(pa.float32()))})
    out = knn_brute(ray.data.from_arrow(emb), m[:1], k=4)
    got = {r["vec_id"] for r in out.to_pylist()}
    assert got == {0, 2, 3}          # the null row never appears


def test_quantize_clips_out_of_profile_values(ray_session):
    """A caller-supplied profile range must SATURATE out-of-range values
    (review r4: they wrapped through int8, coding 1.5 on a [0,1] profile
    to mid-range)."""
    import pyarrow as pa
    import ray.data

    from plugin_serdes_ray.pipelines.vectors import (dequantize,
                                                     quantize_embeddings)

    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array([1], type=pa.int64()),
        "embedding": pa.array([[1.5, -0.5, 0.5]],
                              type=pa.list_(pa.float32()))}))
    mn, mx = np.zeros(3), np.ones(3)
    out, _ = quantize_embeddings(ds, "embedding", minmax=(mn, mx))
    row = out.take_all()[0]
    q = np.asarray(row["embedding_q"], dtype=np.int64)
    assert q[0] == 127 and q[1] == -128          # saturated, not wrapped
    deq = dequantize(q[None, :], mn, mx)[0]
    assert deq[0] == 1.0 and deq[1] == 0.0


def test_heavy_hitters_empty_keeps_schema(ray_session):
    import pyarrow as pa
    import ray.data

    from plugin_serdes_ray.pipelines.sketch import heavy_hitters

    ds = ray.data.from_arrow(pa.table({
        "lang": pa.array([f"l{i}" for i in range(100)], type=pa.string())}))
    out = heavy_hitters(ds, "lang", fraction=0.5)
    assert out.num_rows == 0
    assert out.schema.field("lang").type == pa.string()


def test_convert_files_reconverts_on_input_change(ray_session, tmp_path):
    """Review r4: resume skipped on bare exists(), serving a stale output
    forever after the input changed; the skip is now size+mtime-stamped."""
    import pyarrow.parquet as pq

    from plugin_serdes_ray.pipelines.convert import convert_files

    src = str(tmp_path / "in.parquet")
    out = str(tmp_path / "out")
    pq.write_table(pa.table({"a": [1, 2]}), src)
    s1 = convert_files([src], out, "parquet", "csv")
    assert (s1["converted"], s1["skipped"]) == (1, 0)
    s2 = convert_files([src], out, "parquet", "csv")
    assert (s2["converted"], s2["skipped"]) == (0, 1)
    pq.write_table(pa.table({"a": [1, 2, 3]}), src)   # input changed
    s3 = convert_files([src], out, "parquet", "csv")
    assert (s3["converted"], s3["skipped"]) == (1, 0)
    body = open(s3["outputs"][0]).read()
    assert body.count("\n") >= 3                       # fresh 3-row output


def test_png_roundtrip_and_filters():
    """encode_png(filter 0) roundtrips; hand-filtered rows (sub/up/avg/
    paeth) reconstruct to the same reference image; gray/palette/alpha
    color types map to RGB; malformed streams raise."""
    import struct
    import zlib

    import numpy as np
    import pytest

    from plugin_serdes_ray.pipelines.multimodal import (
        _PNG_SIG, decode_image, decode_png, encode_png)

    rng = np.random.default_rng(7)
    px = rng.integers(0, 256, size=(9, 7, 3), dtype=np.uint8)
    assert np.array_equal(decode_png(encode_png(px)), px)
    assert np.array_equal(decode_image(encode_png(px)), px)

    def chunk(typ, body):
        return (struct.pack(">I", len(body)) + typ + body
                + struct.pack(">I", zlib.crc32(typ + body) & 0xFFFFFFFF))

    def build(w, h, ctype, ch, scan_rows, extra=b""):
        ihdr = struct.pack(">IIBBBBB", w, h, 8, ctype, 0, 0, 0)
        return (_PNG_SIG + chunk(b"IHDR", ihdr) + extra
                + chunk(b"IDAT", zlib.compress(b"".join(scan_rows)))
                + chunk(b"IEND", b""))

    # forward-apply each filter on the RGB reference, one filter per row
    h, w, ch = px.shape
    flat = px.reshape(h, w * ch).astype(np.int64)
    rows = []
    for y in range(h):
        f = y % 5
        cur = flat[y]
        prev = flat[y - 1] if y else np.zeros(w * ch, dtype=np.int64)
        left = np.concatenate([np.zeros(ch, dtype=np.int64), cur[:-ch]])
        ul = np.concatenate([np.zeros(ch, dtype=np.int64), prev[:-ch]])
        if f == 0:
            enc = cur
        elif f == 1:
            enc = cur - left
        elif f == 2:
            enc = cur - prev
        elif f == 3:
            enc = cur - ((left + prev) >> 1)
        else:
            p = left + prev - ul
            pred = np.where(
                (abs(p - left) <= abs(p - prev))
                & (abs(p - left) <= abs(p - ul)), left,
                np.where(abs(p - prev) <= abs(p - ul), prev, ul))
            enc = cur - pred
        rows.append(bytes([f]) + (enc & 0xFF).astype(np.uint8).tobytes())
    assert np.array_equal(decode_png(build(w, h, 2, 3, rows)), px)

    # gray (type 0) replicates; gray+alpha (4) drops alpha
    g = rng.integers(0, 256, size=(4, 5), dtype=np.uint8)
    rows_g = [b"\x00" + g[y].tobytes() for y in range(4)]
    assert np.array_equal(decode_png(build(5, 4, 0, 1, rows_g)),
                          np.repeat(g[:, :, None], 3, axis=2))
    ga = np.dstack([g, np.full_like(g, 9)])
    rows_ga = [b"\x00" + ga[y].tobytes() for y in range(4)]
    assert np.array_equal(decode_png(build(5, 4, 4, 2, rows_ga)),
                          np.repeat(g[:, :, None], 3, axis=2))

    # palette (type 3) looks up PLTE; RGBA (6) drops alpha
    plte = rng.integers(0, 256, size=(4, 3), dtype=np.uint8)
    pidx = rng.integers(0, 4, size=(3, 6), dtype=np.uint8)
    rows_p = [b"\x00" + pidx[y].tobytes() for y in range(3)]
    got = decode_png(build(6, 3, 3, 1, rows_p,
                           extra=chunk(b"PLTE", plte.tobytes())))
    assert np.array_equal(got, plte[pidx])
    rgba = np.concatenate([px, np.full((h, w, 1), 3, np.uint8)], axis=2)
    rows_a = [b"\x00" + rgba[y].tobytes() for y in range(h)]
    assert np.array_equal(decode_png(build(w, h, 6, 4, rows_a)), px)

    # loud failures: 16-bit depth, interlace, truncated IDAT
    bad_ihdr = struct.pack(">IIBBBBB", w, h, 16, 2, 0, 0, 0)
    with pytest.raises(ValueError, match="bit depth"):
        decode_png(_PNG_SIG + chunk(b"IHDR", bad_ihdr)
                   + chunk(b"IDAT", zlib.compress(b"\x00" * 10))
                   + chunk(b"IEND", b""))
    il_ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 1)
    with pytest.raises(ValueError, match="interlaced"):
        decode_png(_PNG_SIG + chunk(b"IHDR", il_ihdr)
                   + chunk(b"IDAT", zlib.compress(b"\x00" * 10))
                   + chunk(b"IEND", b""))
    with pytest.raises(ValueError, match="size mismatch"):
        decode_png(build(w, h, 2, 3, rows[:-1]))

    # ALL malformed-stream failures surface as ValueError (the stats
    # stages catch exactly that class): corrupt deflate bytes, a short
    # IHDR body, and palette indices past the PLTE end (review r4)
    good = encode_png(px)
    idat_len = struct.unpack(">I", good[33:37])[0]   # sig+IHDR = 33 bytes
    with pytest.raises(ValueError, match="malformed PNG"):
        decode_png(good[:41] + b"\x00" * idat_len + good[41 + idat_len:])
    ihdr_short = struct.pack(">II", 4, 4)
    with pytest.raises(ValueError, match="malformed PNG"):
        decode_png(_PNG_SIG + chunk(b"IHDR", ihdr_short)
                   + chunk(b"IDAT", zlib.compress(b"\x00"))
                   + chunk(b"IEND", b""))
    rows_oob = [b"\x00" + bytes([3]) * 6 for _ in range(3)]
    with pytest.raises(ValueError, match="malformed PNG"):
        decode_png(build(6, 3, 3, 1, rows_oob,
                         extra=chunk(b"PLTE", bytes(6))))  # 2-color PLTE


def test_image_stats_on_png(ray_session):
    """The oracle-checkable stats stage decodes PNG payloads for real."""
    import numpy as np
    import ray.data

    from plugin_serdes_ray.pipelines.multimodal import encode_png, image_stats

    px = np.zeros((4, 6, 3), dtype=np.uint8)
    px[:, :, 0] = 200
    px[:, :, 1] = 100
    t = pa.table({"image_id": pa.array([1, 2], type=pa.int64()),
                  "image": pa.array([encode_png(px), b"\x89PNG bogus"],
                                    type=pa.binary())})
    out = {r["image_id"]: r for r in image_stats(
        ray.data.from_arrow(t)).take_all()}
    assert (out[1]["width"], out[1]["height"]) == (6, 4)
    assert out[1]["mean_r"] == 200.0 and out[1]["mean_g"] == 100.0
    assert out[2]["width"] is None        # undecodable -> null stats


def test_wav_g711_decode(ray_session):
    """G.711 A-law / mu-law WAV payloads expand to int16 through the
    numpy LUTs; the full 256-entry tables match the stdlib audioop
    reference; AudioStats consumes them like PCM16."""
    import struct

    import numpy as np

    from plugin_serdes_ray.pipelines.multimodal import (
        _ALAW_LUT, _ULAW_LUT, audio_stats, decode_wav)

    # frozen CCITT anchor values (independent of any library): mu-law
    # 0xFF->0, 0x00->-32124, 0x80->+32124; A-law 0x55->-8, 0xD5->+8,
    # 0x2A->-32256, 0xAA->+32256
    assert _ULAW_LUT[0xFF] == 0 and _ULAW_LUT[0x00] == -32124
    assert _ULAW_LUT[0x80] == 32124
    assert _ALAW_LUT[0x55] == -8 and _ALAW_LUT[0xD5] == 8
    assert _ALAW_LUT[0x2A] == -32256 and _ALAW_LUT[0xAA] == 32256
    codes = bytes(range(256))
    want_u, want_a = _ULAW_LUT, _ALAW_LUT
    try:  # full-table cross-check vs the stdlib reference when present
        import audioop  # removed from the stdlib in Python 3.13

        want_u = np.frombuffer(audioop.ulaw2lin(codes, 2), dtype="<i2")
        want_a = np.frombuffer(audioop.alaw2lin(codes, 2), dtype="<i2")
        assert np.array_equal(_ULAW_LUT, want_u)
        assert np.array_equal(_ALAW_LUT, want_a)
    except ImportError:
        pass

    def g711_wav(tag, payload, rate=8000, ch=1):
        fmt = struct.pack("<HHIIHH", tag, ch, rate, rate * ch, ch, 8)
        return (b"RIFF" + struct.pack("<I", 28 + len(payload)) + b"WAVE"
                + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", len(payload)) + payload)

    rate, frames = decode_wav(g711_wav(7, codes))
    assert rate == 8000 and frames.shape == (256, 1)
    assert np.array_equal(frames[:, 0], want_u)
    rate, frames = decode_wav(g711_wav(6, codes, ch=2))
    assert frames.shape == (128, 2)
    assert np.array_equal(frames.reshape(-1), want_a)

    import pyarrow as pa
    import ray.data
    t = pa.table({"audio_id": pa.array([1], type=pa.int64()),
                  "audio": pa.array([g711_wav(7, codes)],
                                    type=pa.binary())})
    out = audio_stats(ray.data.from_arrow(t)).take_all()
    assert out[0]["n_samples"] == 256 and out[0]["rms"] > 0


def test_levenshtein_kernel_vs_duckdb_random():
    """The byte DP must equal DuckDB's levenshtein on random short
    strings, including unicode (both byte-based) and the early-abandon
    cap."""
    import random

    import duckdb
    import numpy as np

    from plugin_serdes_ray.pipelines.dedup import _levenshtein_bytes

    rng = random.Random(7)
    alpha = "abcde é"
    cases = [("", ""), ("", "abc"), ("café", "cafe")]
    for _ in range(60):
        a = "".join(rng.choice(alpha) for _ in range(rng.randrange(0, 12)))
        b = "".join(rng.choice(alpha) for _ in range(rng.randrange(0, 12)))
        cases.append((a, b))
    for a, b in cases:
        want = duckdb.sql(
            "SELECT levenshtein(?, ?)", params=[a, b]).fetchone()[0]
        got = _levenshtein_bytes(
            np.frombuffer(a.encode(), dtype=np.uint8),
            np.frombuffer(b.encode(), dtype=np.uint8), 64)
        assert got == want, (a, b, got, want)
        capped = _levenshtein_bytes(
            np.frombuffer(a.encode(), dtype=np.uint8),
            np.frombuffer(b.encode(), dtype=np.uint8), 1)
        assert capped == (want if want <= 1 else 2)


def test_edit_distance_pairs_blocks_and_nulls(ray_session):
    """Blocking semantics: NULL keys never match, cross-block pairs are
    out of scope, in-block pairs are exact, NULL text reads as ''."""
    import ray.data

    from plugin_serdes_ray.pipelines.dedup import edit_distance_pairs

    rows = [
        {"doc_id": 1, "src": "s1", "text": "the quick brown fox jumps"},
        {"doc_id": 2, "src": "s1", "text": "the quick brown fox jumps!"},
        {"doc_id": 3, "src": "s1", "text": "the quick brown fox jumped"},
        {"doc_id": 4, "src": "s2", "text": "the quick brown fox jumps"},
        {"doc_id": 5, "src": "s1", "text": "entirely different body text"},
        {"doc_id": 6, "src": None, "text": "the quick brown fox jumps"},
        {"doc_id": 7, "src": "s1", "text": None},
        {"doc_id": 8, "src": "s1", "text": ""},
    ]
    ds = ray.data.from_items(rows).repartition(3)
    got = sorted(
        (r["id_a"], r["id_b"], r["dist"])
        for r in edit_distance_pairs(ds, "text", "doc_id", ["src"],
                                     max_dist=2).take_all())
    # (2,3): "jumps!" vs "jumped" = two substitutions, still <= 2
    assert got == [(1, 2, 1), (1, 3, 2), (2, 3, 2), (7, 8, 0)]


def test_clean_web_corpus_c4_and_boilerplate_stages(ray_session):
    """The optional stage-0 pair: C4 line cleaning drops non-sentence /
    javascript lines and lorem-ipsum pages; frequent-line removal strips
    the shared banner from every survivor; downstream stages see the
    cleaned text."""
    import ray.data

    from plugin_serdes_ray.pipelines.presets import clean_web_corpus

    def body(i, salt):
        # letter-distinct words: canonicalize_text strips digits, so
        # digit-only distinctions would collapse in exact dedup; the two
        # lines get DIFFERENT bodies or gopher's dup-ngram check fires
        tag = "".join(chr(97 + (i // 26 ** p) % 26) for p in range(3))
        # stay inside a-z: chr(97+26) is '{', which trips the C4 page flag
        return " ".join(f"{salt}{tag}{chr(97 + j)}" for j in range(26))

    rows = []
    for i in range(20):
        rows.append({"doc_id": i, "text": (
            "SHARED BANNER LINE HERE NOW TODAY.\n"
            f"The body {body(i, 'q')} continues properly.\n"
            "no terminal punctuation on this line\n"
            f"Closing sentence variant {body(i, 'z')} here.")})
    rows.append({"doc_id": 99,
                 "text": "Contains lorem ipsum so the page dies."})
    ds = ray.data.from_items(rows).repartition(3)
    out = clean_web_corpus(ds, min_words=10, c4_lines=True,
                           boilerplate_min_df=15)
    res = {r["doc_id"]: r for r in out.take_all()}
    assert 99 not in res                      # lorem-ipsum page dropped
    assert len(res) == 20
    for r in res.values():
        assert "SHARED BANNER" not in r["text"]      # boilerplate gone
        assert "no terminal punctuation" not in r["text"]  # c4 line gone
        assert "continues properly." in r["text"]
        assert "split" in r


def test_validate_rules_engine(ray_session):
    """Each rule counts its violations exactly; labels disambiguate
    duplicate (rule, column) pairs; the ref guard trips loudly."""
    import pytest
    import ray.data

    from plugin_serdes_ray.pipelines.profile import validate

    t = pa.table({
        "id": [1, 2, 3, 3, None],
        "qty": [5.0, -1.0, 200.0, 10.0, 3.0],
        "flag": ["A", "N", "R", "X", None],
        "code": ["ab12", "zz99", "bad!", "cd34", "ef56"],
        "fk": [10, 20, 30, 40, 99],
    })
    ref = ray.data.from_arrow(pa.table({"k": [10, 20, 30, 40, 50]}))
    ds = ray.data.from_arrow(t).repartition(2)
    out = validate(ds, [
        {"rule": "not_null", "column": "id"},
        {"rule": "unique", "column": "id"},
        {"rule": "range", "column": "qty", "min": 0, "max": 100},
        {"rule": "range", "column": "qty", "min": 0},   # dup label -> #2
        {"rule": "in_set", "column": "flag", "values": ["A", "N", "R"]},
        {"rule": "regex", "column": "code",
         "pattern": "[a-z]{2}[0-9]{2}"},
        {"rule": "ref", "column": "fk", "ref": (ref, "k")},
    ])
    rows = {r["rule"]: r for r in out.to_pylist()}
    assert rows["not_null:id"]["violations"] == 1
    assert rows["unique:id"]["violations"] == 1          # one extra 3
    assert rows["range:qty"]["violations"] == 2          # -1 and 200
    assert rows["range:qty#2"]["violations"] == 1        # only -1
    assert rows["in_set:flag"]["violations"] == 1        # X (null skipped)
    assert rows["regex:code"]["violations"] == 1         # bad!
    assert rows["ref:fk"]["violations"] == 1             # 99
    assert all(r["n_rows"] == 5 for r in rows.values())
    assert not any(r["ok"] for r in rows.values())

    clean = validate(ds, [{"rule": "range", "column": "qty",
                           "min": -10, "max": 1000}])
    assert clean.to_pylist()[0]["ok"] is True

    with pytest.raises(ValueError, match="ref_broadcast_limit"):
        validate(ds, [{"rule": "ref", "column": "fk", "ref": (ref, "k")}],
                 ref_broadcast_limit=2)


# ---------------------------------------------------------------------------
# product quantization
# ---------------------------------------------------------------------------


def _pq_corpus(n=300, d=16, seed=5):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(6, d)) * 4.0
    vals = centers[rng.integers(0, 6, size=n)] + rng.normal(size=(n, d))
    return vals


def _vec_ds(vals, ids=None, extra_null=False):
    import ray.data

    n, d = vals.shape
    arr = pa.FixedSizeListArray.from_arrays(
        pa.array(np.asarray(vals, dtype=np.float64).reshape(-1)), d)
    ids = list(ids if ids is not None else range(n))
    if extra_null:
        arr = pa.concat_arrays([arr.cast(pa.list_(pa.float64(), d)),
                                pa.array([None],
                                         type=pa.list_(pa.float64(), d))])
        ids = ids + [10_000]
    return ray.data.from_arrow(pa.table({
        "vec_id": pa.array(ids, type=pa.int64()), "embedding": arr}))


def test_pq_encode_equal_vectors_equal_codes_null_safe(ray_session):
    from plugin_serdes_ray.pipelines.ann import pq_encode, pq_train

    vals = _pq_corpus(280, 16)
    vals[100] = vals[7]           # exact duplicate pair
    vals[200] = vals[7]
    ds = _vec_ds(vals, extra_null=True).repartition(4)
    books = pq_train(ds, m=4, n_codes=16, sample_size=280, seed=1)
    rows = {r["vec_id"]: r["pq_code"]
            for r in pq_encode(ds, books).take_all()}
    assert rows[7] == rows[100] == rows[200]
    assert rows[10_000] is None
    assert len(rows[7]) == 4 and all(0 <= c < 16 for c in rows[7])


def test_pq_adc_matches_numpy_reference(ray_session):
    """knn_pq scores == a direct numpy ADC recompute over the encoded
    corpus, for both metrics, including tie order by id."""
    from plugin_serdes_ray.pipelines.ann import pq_encode, pq_train, knn_pq
    from plugin_serdes_ray.util import vectors_to_numpy

    vals = _pq_corpus(250, 16, seed=9)
    ds = _vec_ds(vals).repartition(5)
    books = pq_train(ds, m=4, n_codes=32, sample_size=250, seed=2)
    enc = pq_encode(ds, books)
    rows = sorted(enc.take_all(), key=lambda r: r["vec_id"])
    codes = np.array([r["pq_code"] for r in rows], dtype=np.int64)
    queries = _pq_corpus(3, 16, seed=77)
    for metric in ("l2", "ip"):
        got = knn_pq(enc, books, queries, k=8, metric=metric)
        # reference ADC
        recon = np.concatenate(
            [books[s][codes[:, s]] for s in range(4)], axis=1)
        for qi in range(3):
            qv = queries[qi]
            if metric == "ip":
                sc = recon @ qv
            else:
                sc = -(((recon - qv) ** 2).sum(axis=1))
            order = sorted(range(len(sc)), key=lambda i: (-sc[i], i))[:8]
            sub = got.filter(pa.compute.equal(got.column("query_id"), qi))
            assert sub.column("vec_id").to_pylist() == order, metric
            np.testing.assert_allclose(
                sub.column("score").to_pylist(), sc[order], rtol=1e-9)


def test_pq_recall_vs_brute(ray_session):
    from plugin_serdes_ray.pipelines.ann import (knn_brute, knn_pq,
                                                 pq_encode, pq_train)

    vals = _pq_corpus(400, 16, seed=21)
    ds = _vec_ds(vals).repartition(4)
    books = pq_train(ds, m=8, n_codes=64, sample_size=400, seed=3)
    enc = pq_encode(ds, books)
    queries = vals[:5] + 0.01
    exact = knn_brute(ds, queries, k=10, dtype=np.float64)
    # cosine brute vs ip ADC over unnormalized data differ; compare l2
    # ADC against exact l2 neighbours instead
    import numpy as _np
    recall = []
    approx = knn_pq(enc, books, queries, k=10, metric="l2")
    for qi in range(5):
        d2 = ((vals - queries[qi]) ** 2).sum(axis=1)
        true10 = set(_np.argsort(d2, kind="stable")[:10].tolist())
        got10 = set(approx.filter(
            pa.compute.equal(approx.column("query_id"), qi))
            .column("vec_id").to_pylist())
        recall.append(len(true10 & got10) / 10.0)
    assert sum(recall) / len(recall) >= 0.6, recall
    assert exact.num_rows == 50


# ---------------------------------------------------------------------------
# materialized MinHash LSH index (incremental near-dup)
# ---------------------------------------------------------------------------


def _mh_corpus(tag, n=40, seed=3):
    import ray.data

    rng = np.random.default_rng(seed)
    words = [f"w{z}" for z in range(400)]
    texts = [" ".join(rng.choice(words, size=30).tolist())
             for _ in range(n)]
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(n), type=pa.int64()),
        "text": pa.array(texts)})), texts


def test_minhash_index_incremental_pairs_and_filter(ray_session, tmp_path):
    from plugin_serdes_ray.pipelines.dedup import (build_minhash_index,
                                                   minhash_dedup_incremental,
                                                   minhash_pairs_incremental)
    import ray.data

    seen, texts = _mh_corpus("seen", n=40)
    idx = str(tmp_path / "mh_idx")
    meta = build_minhash_index(seen.repartition(4), idx, shards=8)
    assert meta["shards"] == 8
    # new shard: 3 exact copies of seen docs (ids 100..102) + 2 fresh
    new = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([100, 101, 102, 103, 104], type=pa.int64()),
        "text": pa.array([texts[5], texts[17], texts[33],
                          "completely fresh document one",
                          "another brand new unseen text"])}))
    pairs = minhash_pairs_incremental(new.repartition(2), idx).take_all()
    got = {(r["seen_id"], r["new_id"]) for r in pairs}
    assert got == {(5, 100), (17, 101), (33, 102)}
    kept = sorted(r["doc_id"] for r in
                  minhash_dedup_incremental(new, idx).take_all())
    assert kept == [103, 104]
    # reuse: same corpus -> meta returned without rebuild (mtime check)
    import os as _os

    f = _os.path.join(idx, "shard-0.parquet")
    mt = _os.path.getmtime(f) if _os.path.exists(f) else None
    meta2 = build_minhash_index(seen.repartition(4), idx, shards=8)
    assert meta2["fingerprint"] == meta["fingerprint"]
    if mt is not None:
        assert _os.path.getmtime(f) == mt


def test_minhash_index_probe_opens_only_mapped_shards(ray_session,
                                                      tmp_path):
    """Corrupt every index shard the new keys do NOT map to: the probe
    must still succeed (it never opens them)."""
    import json
    import os as _os

    import ray.data

    from plugin_serdes_ray.pipelines.dedup import (_mix64,
                                                   build_minhash_index,
                                                   minhash_band_rows,
                                                   minhash_pairs_incremental)

    seen, texts = _mh_corpus("seen", n=30, seed=11)
    idx = str(tmp_path / "mh_idx2")
    build_minhash_index(seen, idx, shards=16)
    new = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([900], type=pa.int64()),
        "text": pa.array([texts[2]])}))
    meta = json.load(open(_os.path.join(idx, "meta.json")))
    rows = minhash_band_rows(new, "text", "doc_id", meta["num_perm"],
                             meta["bands"], meta["k"]).take_all()
    keys = np.array([r["band_key"] for r in rows], dtype=np.uint64)
    needed = set((_mix64(keys) % np.uint64(16)).astype(np.int64).tolist())
    for s in range(16):
        if s in needed:
            continue
        p = _os.path.join(idx, f"shard-{s}.parquet")
        if _os.path.exists(p):
            with open(p, "wb") as f:
                f.write(b"corrupted")
    got = {(r["seen_id"], r["new_id"]) for r in
           minhash_pairs_incremental(new, idx).take_all()}
    assert got == {(2, 900)}


def test_minhash_index_rebuilds_on_corpus_change(ray_session, tmp_path):
    import ray.data

    from plugin_serdes_ray.pipelines.dedup import (build_minhash_index,
                                                   minhash_pairs_incremental)

    seen, texts = _mh_corpus("seen", n=10, seed=7)
    idx = str(tmp_path / "mh_idx3")
    m1 = build_minhash_index(seen, idx, shards=4)
    # changed corpus (one extra doc) -> different fingerprint -> rebuild
    seen2, texts2 = _mh_corpus("seen", n=12, seed=7)
    m2 = build_minhash_index(seen2, idx, shards=4)
    assert m1["fingerprint"] != m2["fingerprint"]
    new = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([500], type=pa.int64()),
        "text": pa.array([texts2[11]])}))   # only in the NEW corpus
    got = {(r["seen_id"], r["new_id"]) for r in
           minhash_pairs_incremental(new, idx).take_all()}
    assert got == {(11, 500)}


def test_ivfpq_recall_and_subset_probe(ray_session, tmp_path):
    """IVF-PQ: recall@10 vs exact cosine at nprobe=all; at nprobe=1 only
    the probed cluster's files are opened (corrupt the rest); the index
    stores codes only (no float vector column)."""
    import pyarrow.parquet as pq_

    from plugin_serdes_ray.pipelines.ann import (build_ivfpq_index,
                                                 knn_brute,
                                                 knn_ivfpq_index)

    vals = _pq_corpus(500, 16, seed=31)
    ds = _vec_ds(vals).repartition(5)
    idx = str(tmp_path / "ivfpq")
    meta = build_ivfpq_index(ds, idx, n_clusters=6, m=8, n_codes=64,
                             sample_size=500, sub_splits=2)
    assert meta["rows"] == 500 and meta["kind"] == "ivfpq"
    # code lists hold (vec_id, pq_code) only — no float payload
    import glob as _glob
    f0 = sorted(_glob.glob(f"{idx}/cluster-*.parquet"))[0]
    assert set(pq_.read_schema(f0).names) == {"vec_id", "pq_code"}
    queries = vals[:4] + 0.01
    exact = knn_brute(ds, queries, k=10, dtype=np.float64)
    approx = knn_ivfpq_index(idx, queries, k=10, nprobe=6)
    recall = []
    for qi in range(4):
        e = set(exact.filter(pa.compute.equal(
            exact.column("query_id"), qi)).column("vec_id").to_pylist())
        a = set(approx.filter(pa.compute.equal(
            approx.column("query_id"), qi)).column("vec_id").to_pylist())
        recall.append(len(e & a) / 10.0)
    assert sum(recall) / len(recall) >= 0.5, recall
    # subset probe: nprobe=1 must not open unprobed clusters
    from plugin_serdes_ray.pipelines.ann import ivf_probe_files

    files, probe, _ = ivf_probe_files(idx, queries[:1], nprobe=1)
    for p in _glob.glob(f"{idx}/cluster-*.parquet"):
        if p not in files:
            with open(p, "wb") as f:
                f.write(b"corrupt")
    one = knn_ivfpq_index(idx, queries[:1], k=5, nprobe=1)
    assert one.num_rows == 5
