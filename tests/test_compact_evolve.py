"""Container maintenance ops: small-part compaction (lakehouse
rewrite_data_files analogue) and read-time schema evolution.

The reference rewrites whole outputs per task run (SURVEY.md §4.1); at
10^12-document scale parts are immutable and maintenance must be an
incremental, resumable job over them — these tests pin that contract.
"""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from plugin_serdes_ray.encode import (
    compact_parts, decode_dataset, decode_table, encode_files, evolve_table,
    plan_compaction_bins,
)
from plugin_serdes_ray.fixtures import generate_webpages
from plugin_serdes_ray.testing import tables_equal


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("wp_ce"))
    return generate_webpages(out, 1200, 6)


@pytest.fixture(scope="module")
def encoded(ray_session, corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("enc_ce"))
    summary = encode_files(corpus, out, concurrency=2)
    assert summary["parts"] == 6
    return out


def _orig(files):
    return pa.concat_tables([pq.read_table(f) for f in files])


# ---------------------------------------------------------------------------
# compaction
# ---------------------------------------------------------------------------


def test_compact_bins_deterministic_and_consecutive(encoded):
    bins = plan_compaction_bins(encoded, target_part_bytes=1)
    assert bins == plan_compaction_bins(encoded, target_part_bytes=1)
    # target=1 byte -> every part is its own bin, in listing order
    assert [b["files"] for b in bins] == sorted(b["files"] for b in bins)
    assert len(bins) == 6
    one = plan_compaction_bins(encoded, target_part_bytes=1 << 40)
    assert len(one) == 1 and len(one[0]["files"].split("\n")) == 6


def test_compact_roundtrip_and_summary(ray_session, corpus, encoded,
                                       tmp_path):
    dst = str(tmp_path / "compacted")
    summary = compact_parts(encoded, dst, target_part_bytes=1 << 40,
                            concurrency=2)
    assert summary["parts"] == 1
    assert summary["source_parts"] == 6
    assert summary["skipped_parts"] == 0
    # decode identity: same rows, same order (consecutive bins)
    assert tables_equal(_orig(corpus), decode_table(dst))
    # the compacted dir is a full container dir: plan + manifest present
    assert os.path.exists(os.path.join(dst, "_manifest", "plan.json"))


def test_compact_partial_bins(ray_session, corpus, encoded, tmp_path):
    sizes = sorted(os.path.getsize(os.path.join(encoded, f))
                   for f in os.listdir(encoded) if f.endswith(".grck"))
    target = sizes[0] + sizes[1]  # ~2-3 source parts per bin
    dst = str(tmp_path / "compacted2")
    summary = compact_parts(encoded, dst, target_part_bytes=target,
                            concurrency=2)
    assert 1 < summary["parts"] < 6
    assert tables_equal(_orig(corpus), decode_table(dst))


def test_compact_resume_skips_and_heals(ray_session, corpus, encoded,
                                        tmp_path):
    dst = str(tmp_path / "compacted3")
    sizes = sorted(os.path.getsize(os.path.join(encoded, f))
                   for f in os.listdir(encoded) if f.endswith(".grck"))
    target = sizes[0] + 1
    s1 = compact_parts(encoded, dst, target_part_bytes=target, concurrency=2)
    assert s1["parts"] >= 2
    s2 = compact_parts(encoded, dst, target_part_bytes=target, concurrency=2)
    assert s2["skipped_parts"] == s1["parts"]
    # kill one output part: a rerun redoes ONLY that bin
    victim = sorted(f for f in os.listdir(dst) if f.endswith(".grck"))[0]
    os.remove(os.path.join(dst, victim))
    s3 = compact_parts(encoded, dst, target_part_bytes=target, concurrency=2)
    assert s3["skipped_parts"] == s1["parts"] - 1
    assert tables_equal(_orig(corpus), decode_table(dst))


def test_compact_refuses_in_place(encoded):
    with pytest.raises(ValueError, match="in-place"):
        compact_parts(encoded, encoded + "/../" + os.path.basename(encoded))


def test_compact_preserves_pruning(ray_session, corpus, encoded, tmp_path):
    """Zone maps/Blooms are recomputed over merged ranges: a predicate
    decode over the compacted dir matches filtering the original."""
    dst = str(tmp_path / "compacted4")
    compact_parts(encoded, dst, target_part_bytes=1 << 40, concurrency=2)
    orig = _orig(corpus)
    want = orig.filter(pc.equal(orig.column("lang"), "fr"))
    rows = decode_dataset(dst, predicate=("lang", "==", "fr")).take_all()
    got = (pa.Table.from_pylist(rows).select(orig.column_names)
           .cast(orig.schema) if rows else orig.schema.empty_table())
    assert tables_equal(want.sort_by("url"), got.sort_by("url"))


def test_compact_empty_dir_raises(tmp_path):
    os.makedirs(str(tmp_path / "empty"), exist_ok=True)
    with pytest.raises(ValueError, match="no .grck"):
        plan_compaction_bins(str(tmp_path / "empty"))


# ---------------------------------------------------------------------------
# schema evolution
# ---------------------------------------------------------------------------


def _evolved_schema():
    return pa.schema([
        ("page_url", pa.string()),          # renamed from url
        ("warc_ts", pa.timestamp("us")),    # unchanged
        ("lang", pa.large_string()),        # widened string type
        ("crawl_id", pa.int64()),           # new, with default
        ("quality", pa.float64()),          # new, null-filled
    ])                                      # html + text dropped


def test_evolve_table_unit():
    t = pa.table({"url": ["a", "b"], "warc_ts": pa.array(
        [1, 2], pa.timestamp("us")), "lang": ["en", "fr"],
        "html": [b"x", b"y"], "text": ["t1", "t2"]})
    out = evolve_table(t, _evolved_schema(), defaults={"crawl_id": 7},
                       renames={"url": "page_url"})
    assert out.schema.equals(_evolved_schema())
    assert out.column("page_url").to_pylist() == ["a", "b"]
    assert out.column("crawl_id").to_pylist() == [7, 7]
    assert out.column("quality").to_pylist() == [None, None]
    assert out.column("lang").type == pa.large_string()


def test_evolve_rename_collision_raises():
    t = pa.table({"a": [1], "b": [2]})
    with pytest.raises(ValueError, match="map to target"):
        evolve_table(t, pa.schema([("b", pa.int64())]), renames={"a": "b"})


def test_evolve_safe_cast_guards_lossy():
    t = pa.table({"v": pa.array([300], pa.int64())})
    tgt = pa.schema([("v", pa.int8())])
    with pytest.raises(pa.ArrowInvalid):
        evolve_table(t, tgt)
    out = evolve_table(t, tgt, safe_cast=False)  # explicit opt-in truncates
    assert out.column("v").type == pa.int8()


def test_evolve_decode_dataset(ray_session, corpus, encoded):
    tgt = _evolved_schema()
    rows = decode_dataset(encoded, target_schema=tgt,
                          defaults={"crawl_id": 7},
                          renames={"url": "page_url"}).take_all()
    got = pa.Table.from_pylist(rows).select(tgt.names).cast(tgt)
    orig = _orig(corpus)
    assert got.num_rows == orig.num_rows
    assert (sorted(got.column("page_url").to_pylist())
            == sorted(orig.column("url").to_pylist()))
    assert set(got.column("crawl_id").to_pylist()) == {7}
    assert got.column("quality").null_count == got.num_rows


def test_evolve_decode_with_predicate_on_source_name(ray_session, corpus,
                                                     encoded):
    """Predicates name SOURCE columns and compose with evolution; manifest
    pruning still applies underneath."""
    tgt = _evolved_schema()
    rows = decode_dataset(encoded, target_schema=tgt,
                          renames={"url": "page_url"},
                          predicate=("lang", "==", "fr")).take_all()
    orig = _orig(corpus)
    want = orig.filter(pc.equal(orig.column("lang"), "fr"))
    assert len(rows) == want.num_rows
    assert set(r["lang"] for r in rows) <= {"fr"}


def test_evolve_decode_predicate_on_absent_column(ray_session, encoded):
    """A predicate on a column no part stores -> NULL never compares true ->
    zero rows (not a crash)."""
    tgt = pa.schema([("url", pa.string()), ("quality", pa.float64())])
    rows = decode_dataset(encoded, target_schema=tgt,
                          predicate=("quality", ">", 0.5)).take_all()
    assert rows == []


def test_evolve_decode_is_null_on_absent_column(ray_session, corpus,
                                                encoded):
    """SQL semantics: ``quality IS NULL`` over parts that predate the
    quality column matches EVERY row (the column reads as all-NULL),
    while ``IS NOT NULL`` matches none."""
    tgt = pa.schema([("url", pa.string()), ("quality", pa.float64())])
    orig = _orig(corpus)
    rows = decode_dataset(encoded, target_schema=tgt,
                          predicate=("quality", "is_null", None)).take_all()
    assert len(rows) == orig.num_rows
    assert (sorted(r["url"] for r in rows)
            == sorted(orig.column("url").to_pylist()))
    assert decode_dataset(
        encoded, target_schema=tgt,
        predicate=("quality", "not_null", None)).count() == 0


def test_evolve_decode_is_null_absent_and_present_conjunct(
        ray_session, corpus, encoded):
    """An is_null conjunct on an absent column is all-true and must still
    AND with predicates on columns the part DOES store."""
    tgt = pa.schema([("url", pa.string()), ("lang", pa.string()),
                     ("quality", pa.float64())])
    rows = decode_dataset(
        encoded, target_schema=tgt,
        predicate=[("quality", "is_null", None),
                   ("lang", "==", "fr")]).take_all()
    orig = _orig(corpus)
    want = orig.filter(pc.equal(orig.column("lang"), "fr"))
    assert len(rows) == want.num_rows
    assert set(r["lang"] for r in rows) <= {"fr"}


def test_evolve_decode_is_null_all_new_target(ray_session, corpus,
                                              encoded):
    """Part stores none of the target sources AND the only predicate is
    is_null on an absent column: every row surfaces as defaults."""
    tgt = pa.schema([("crawl_id", pa.int64())])
    rows = decode_dataset(encoded, target_schema=tgt,
                          defaults={"crawl_id": 3},
                          predicate=("crawl_id", "is_null", None)).take_all()
    # note: predicates name SOURCE columns; crawl_id is absent from every
    # part so is_null matches all rows, then defaults fill the target
    assert len(rows) == _orig(corpus).num_rows
    assert set(r["crawl_id"] for r in rows) == {3}


def test_evolve_decode_dnf_or_with_absent_column(ray_session, corpus,
                                                 encoded):
    """OR-of-ANDs under evolution: a disjunct dead on a part (comparison
    on an absent column) must not kill a sibling disjunct, and an
    is_null-on-absent disjunct that empties out matches the whole part."""
    tgt = pa.schema([("url", pa.string()), ("lang", pa.string()),
                     ("quality", pa.float64())])
    orig = _orig(corpus)
    # quality absent everywhere: first disjunct dead, second limits to fr
    rows = decode_dataset(
        encoded, target_schema=tgt,
        predicate=[[("quality", ">", 0.5)],
                   [("lang", "==", "fr")]]).take_all()
    want = orig.filter(pc.equal(orig.column("lang"), "fr"))
    assert len(rows) == want.num_rows
    # is_null-on-absent disjunct alone is all-true -> whole corpus,
    # regardless of the dead comparison disjunct next to it
    rows2 = decode_dataset(
        encoded, target_schema=tgt,
        predicate=[[("quality", ">", 0.5)],
                   [("quality", "is_null", None)]]).take_all()
    assert len(rows2) == orig.num_rows


def test_evolve_decode_all_new_columns(ray_session, corpus, encoded):
    """Target disjoint from stored columns: rows survive as defaults."""
    tgt = pa.schema([("crawl_id", pa.int64())])
    rows = decode_dataset(encoded, target_schema=tgt,
                          defaults={"crawl_id": 3}).take_all()
    assert len(rows) == _orig(corpus).num_rows
    assert set(r["crawl_id"] for r in rows) == {3}


def test_evolve_decode_table_driver_path(ray_session, corpus, encoded):
    tgt = _evolved_schema()
    got = decode_table(encoded, target_schema=tgt, defaults={"crawl_id": 7},
                       renames={"url": "page_url"})
    assert got.schema.equals(tgt)
    assert got.num_rows == _orig(corpus).num_rows


def test_compact_then_evolve_chain(ray_session, corpus, encoded, tmp_path):
    """Maintenance ops compose: compact, then evolved read of the result."""
    dst = str(tmp_path / "compacted5")
    compact_parts(encoded, dst, target_part_bytes=1 << 40, concurrency=2)
    tgt = pa.schema([("page_url", pa.string()), ("lang", pa.string())])
    rows = decode_dataset(dst, target_schema=tgt,
                          renames={"url": "page_url"}).take_all()
    orig = _orig(corpus)
    assert len(rows) == orig.num_rows
    assert (sorted(r["page_url"] for r in rows)
            == sorted(orig.column("url").to_pylist()))


# ---------------------------------------------------------------------------
# container scrub (fsck)
# ---------------------------------------------------------------------------


def _fresh_encode(corpus, tmp_path, name):
    out = str(tmp_path / name)
    encode_files(corpus, out, concurrency=2)
    return out


def test_scrub_clean_dir(ray_session, corpus, tmp_path):
    from plugin_serdes_ray.encode import verify_container

    out = _fresh_encode(corpus, tmp_path, "scrub_clean")
    rep = verify_container(out, deep=True)
    assert rep["ok"]
    assert rep["parts"].num_rows == 6
    assert rep["manifest_missing"] == [] and rep["orphans"] == []
    assert rep["row_mismatches"] == []
    assert set(rep["parts"].column("ok").to_pylist()) == {True}


def test_scrub_detects_bitflip(ray_session, corpus, tmp_path):
    from plugin_serdes_ray.encode import verify_container

    out = _fresh_encode(corpus, tmp_path, "scrub_flip")
    victim = sorted(f for f in os.listdir(out) if f.endswith(".grck"))[2]
    p = os.path.join(out, victim)
    size = os.path.getsize(p)
    with open(p, "r+b") as f:   # flip one byte in the payload tail
        f.seek(size - 10)
        b = f.read(1)
        f.seek(size - 10)
        f.write(bytes([b[0] ^ 0xFF]))
    rep = verify_container(out)
    assert not rep["ok"]
    bad = {r["file"]: r["error"] for r in rep["parts"].to_pylist()
           if not r["ok"]}
    assert list(bad) == [victim]
    assert "CRC" in bad[victim] or "truncated" in bad[victim]


def test_scrub_detects_missing_and_orphan(ray_session, corpus, tmp_path):
    from plugin_serdes_ray.encode import verify_container

    out = _fresh_encode(corpus, tmp_path, "scrub_files")
    parts = sorted(f for f in os.listdir(out) if f.endswith(".grck"))
    os.remove(os.path.join(out, parts[0]))                 # manifest_missing
    import shutil
    shutil.copy(os.path.join(out, parts[1]),
                os.path.join(out, "block-deadbeef-00000.grck"))  # orphan
    rep = verify_container(out)
    assert not rep["ok"]
    assert rep["manifest_missing"] == [parts[0]]
    assert rep["orphans"] == ["block-deadbeef-00000.grck"]


def test_scrub_detects_truncation(ray_session, corpus, tmp_path):
    from plugin_serdes_ray.encode import verify_container

    out = _fresh_encode(corpus, tmp_path, "scrub_trunc")
    victim = sorted(f for f in os.listdir(out) if f.endswith(".grck"))[1]
    p = os.path.join(out, victim)
    with open(p, "r+b") as f:
        f.truncate(os.path.getsize(p) - 64)
    rep = verify_container(out)
    assert not rep["ok"]
    bad = [r for r in rep["parts"].to_pylist() if not r["ok"]]
    assert [r["file"] for r in bad] == [victim]


# ---------------------------------------------------------------------------
# late-materialization dictionary decode
# ---------------------------------------------------------------------------


def test_decode_array_dictionary_unit():
    from plugin_serdes_ray.codecs import (decode_array_dictionary,
                                          encode_array)

    arr = pa.array(["en", "fr", None, "en", "de", "en"])
    for codec in ("dict", "dict_rle", "dict_fsst", "plain"):
        chunk = encode_array(arr, codec)
        out = decode_array_dictionary(chunk, pa.string())
        assert pa.types.is_dictionary(out.type), codec
        assert out.cast(pa.string()).to_pylist() == arr.to_pylist(), codec


def test_read_partition_dictionary_columns(ray_session, corpus, encoded):
    from plugin_serdes_ray.container import read_partition

    part = sorted(f for f in os.listdir(encoded) if f.endswith(".grck"))[0]
    t = read_partition(os.path.join(encoded, part),
                       columns=["url", "lang"],
                       dictionary_columns=["lang"])
    assert pa.types.is_dictionary(t.schema.field("lang").type)
    assert t.schema.field("url").type == pa.string()
    flat = read_partition(os.path.join(encoded, part), columns=["lang"])
    assert (t.column("lang").cast(pa.string()).combine_chunks()
            .equals(flat.column("lang").combine_chunks()))


def test_decode_dataset_dictionary_with_predicate(ray_session, corpus,
                                                  encoded):
    import collections

    orig = _orig(corpus)
    want = collections.Counter(
        orig.filter(pc.equal(orig.column("lang"), "en"))
        .column("lang").to_pylist())
    rows = decode_dataset(encoded, columns=["url", "lang"],
                          dictionary_columns=["lang"],
                          predicate=("lang", "==", "en")).take_all()
    got = collections.Counter(r["lang"] for r in rows)
    assert got == want


def test_decode_table_dictionary_groupby(ray_session, corpus, encoded):
    import collections

    t = decode_table(encoded, columns=["lang"], dictionary_columns=["lang"])
    assert pa.types.is_dictionary(t.schema.field("lang").type)
    g = t.group_by("lang").aggregate([([], "count_all")]).to_pylist()
    want = collections.Counter(_orig(corpus).column("lang").to_pylist())
    assert {r["lang"]: r["count_all"] for r in g} == dict(want)


def test_evolve_rejects_columns_and_target(ray_session, encoded):
    with pytest.raises(ValueError, match="not both"):
        decode_table(encoded, columns=["url"],
                     target_schema=pa.schema([("url", pa.string())]))
    with pytest.raises(ValueError, match="not both"):
        decode_dataset(encoded, columns=["url"],
                       target_schema=pa.schema([("url", pa.string())])
                       ).take_all()


def test_scrub_orphans_benign_without_manifest(ray_session, corpus,
                                               tmp_path):
    """encode_dataset dirs have no manifest: every part is an 'orphan' but
    the audit must still pass on undamaged data."""
    import ray.data

    from plugin_serdes_ray.encode import encode_dataset, verify_container

    out = str(tmp_path / "scrub_blocks")
    ds = ray.data.read_parquet(corpus)
    encode_dataset(ds, out, concurrency=2)
    rep = verify_container(out, deep=True)
    assert rep["ok"]
    assert rep["orphans"]          # reported for visibility
    assert rep["manifest_missing"] == []


def test_compact_singleton_bins_byte_copy(ray_session, corpus, encoded,
                                          tmp_path):
    """A part already at/over target is byte-copied, not re-encoded —
    compaction CPU must scale with the small-part tail only."""
    import hashlib

    from plugin_serdes_ray.state import checkpoint as ckpt

    dst = str(tmp_path / "compacted_copy")
    summary = compact_parts(encoded, dst, target_part_bytes=1, concurrency=2)
    assert summary["parts"] == 6
    src_parts = sorted(f for f in os.listdir(encoded) if f.endswith(".grck"))
    dst_parts = sorted(f for f in os.listdir(dst) if f.endswith(".grck"))
    for s, d in zip(src_parts, dst_parts):
        h = lambda p: hashlib.sha1(open(p, "rb").read()).hexdigest()
        assert h(os.path.join(encoded, s)) == h(os.path.join(dst, d)), (s, d)
    entries = ckpt.read_manifest_entries(dst)
    assert all(e.get("copied") for e in entries.values())
    # raw_bytes carried over from the source manifest, not zeroed
    assert sum(e["raw_bytes"] for e in entries.values()) > 0
    assert tables_equal(_orig(corpus), decode_table(dst))


def test_compact_singleton_copy_manifestless_source(ray_session, corpus,
                                                    encoded, tmp_path):
    """ADVICE r4: byte-copying from a source dir WITHOUT a manifest must
    record raw_bytes as UNKNOWN (None) — never 0, which understated the
    summary ratio — and summary() must surface the unknown count while
    computing the ratio over known parts only."""
    import shutil

    from plugin_serdes_ray.state import checkpoint as ckpt

    bare = str(tmp_path / "bare_src")
    os.makedirs(bare)
    for f in os.listdir(encoded):
        if f.endswith(".grck"):
            shutil.copyfile(os.path.join(encoded, f), os.path.join(bare, f))
    # a plan file is still required; manifest entries are not
    shutil.copytree(os.path.join(encoded, "_manifest"),
                    os.path.join(bare, "_manifest"))
    for f in os.listdir(os.path.join(bare, "_manifest")):
        if f.startswith("part-"):
            os.remove(os.path.join(bare, "_manifest", f))
    dst = str(tmp_path / "compacted_bare")
    summary = compact_parts(bare, dst, target_part_bytes=1, concurrency=2)
    assert summary["parts"] == 6
    assert summary["raw_unknown_parts"] == 6
    assert summary["ratio"] == 0.0            # no known raw bytes at all
    entries = ckpt.read_manifest_entries(dst)
    assert all(e["raw_bytes"] is None for e in entries.values())
    assert tables_equal(_orig(corpus), decode_table(dst))


# ---------------------------------------------------------------------------
# multi-dir decode + fast count
# ---------------------------------------------------------------------------


def test_multi_dir_decode_union(ray_session, corpus, encoded, tmp_path):
    """Two container dirs (second with a DIFFERENT schema) read as one
    dataset under a common target schema."""
    import pyarrow.parquet as pq_

    extra = pa.table({"url": ["https://x.test/a", "https://x.test/b"],
                      "quality": [0.5, 0.9]})
    p = str(tmp_path / "extra.parquet")
    pq_.write_table(extra, p)
    d2 = str(tmp_path / "enc_extra")
    encode_files([p], d2)
    tgt = pa.schema([("url", pa.string()), ("quality", pa.float64())])
    rows = decode_dataset([encoded, d2], target_schema=tgt).take_all()
    orig = _orig(corpus)
    assert len(rows) == orig.num_rows + 2
    got_q = [r["quality"] for r in rows if r["quality"] is not None]
    assert sorted(got_q) == [0.5, 0.9]


def test_count_rows_manifest_only(ray_session, corpus, encoded, tmp_path,
                                  monkeypatch):
    """Without a predicate, count_rows never decodes a chunk."""
    from plugin_serdes_ray import container, encode as enc

    assert enc.count_rows(encoded) == _orig(corpus).num_rows

    def boom(*a, **k):
        raise AssertionError("count_rows opened a part payload")

    monkeypatch.setattr(container, "read_partition", boom)
    monkeypatch.setattr(enc, "read_partition", boom)
    assert enc.count_rows(encoded) == _orig(corpus).num_rows
    # multi-dir sum
    assert enc.count_rows([encoded, encoded]) == 2 * _orig(corpus).num_rows


def test_count_rows_with_predicate(ray_session, corpus, encoded):
    from plugin_serdes_ray.encode import count_rows

    orig = _orig(corpus)
    want = orig.filter(pc.equal(orig.column("lang"), "en")).num_rows
    assert count_rows(encoded, predicate=("lang", "==", "en")) == want
    assert count_rows(encoded, predicate=("lang", "==", "zz_nope")) == 0


def test_decode_predicates_neq_and_null_ops(ray_session, tmp_path):
    """!=, is_null, not_null keep SQL semantics (NULL != x drops the row)
    and compose with the other conjuncts."""
    import pyarrow.parquet as pq_

    t = pa.table({"k": pa.array([1, 2, None, 4, None], pa.int64()),
                  "tag": pa.array(["a", "b", "b", None, "c"])})
    p = str(tmp_path / "nulls.parquet")
    pq_.write_table(t, p)
    out = str(tmp_path / "enc_nulls")
    encode_files([p], out)

    def q(pred):
        rows = [(r["k"], r["tag"]) for r in
                decode_dataset(out, predicate=pred).take_all()]
        return sorted(rows, key=lambda r: ((r[0] is None, r[0] or 0),
                                           (r[1] is None, r[1] or "")))

    assert q(("tag", "!=", "b")) == [(1, "a"), (None, "c")]
    assert q(("k", "is_null", None)) == [(None, "b"), (None, "c")]
    assert q(("k", "not_null", None)) == [(1, "a"), (2, "b"), (4, None)]
    assert q([("k", "not_null", None), ("tag", "!=", "a")]) == [(2, "b")]
    from plugin_serdes_ray.encode import count_rows
    assert count_rows(out, predicate=("tag", "!=", "b")) == 2


def test_randomized_compaction_roundtrip(ray_session, tmp_path):
    """Random file layouts x random compaction targets: decode equality,
    deterministic bins, resume idempotence."""
    import numpy as np
    import pyarrow.parquet as pq_

    from plugin_serdes_ray.encode import verify_container

    for seed in (0, 1, 2):
        rng = np.random.default_rng([71, seed])
        paths = []
        for i in range(int(rng.integers(2, 6))):
            nrows = int(rng.integers(10, 400))
            t = pa.table({
                "k": pa.array(rng.integers(0, 1000, nrows), pa.int64()),
                "s": pa.array(["x" * int(v) for v in
                               rng.integers(0, 40, nrows)]),
                "f": pa.array(rng.normal(size=nrows))})
            p = str(tmp_path / f"rc{seed}f{i}.parquet")
            pq_.write_table(t, p)
            paths.append(p)
        src = str(tmp_path / f"rc_enc{seed}")
        encode_files(paths, src, concurrency=2)
        sizes = [os.path.getsize(os.path.join(src, f))
                 for f in os.listdir(src) if f.endswith(".grck")]
        target = int(rng.integers(1, sum(sizes) + 2))
        dst = str(tmp_path / f"rc_cmp{seed}")
        s1 = compact_parts(src, dst, target_part_bytes=target, concurrency=2)
        orig = pa.concat_tables([pq_.read_table(p) for p in paths])
        assert tables_equal(orig, decode_table(dst)), (seed, target)
        s2 = compact_parts(src, dst, target_part_bytes=target, concurrency=2)
        assert s2["skipped_parts"] == s1["parts"], (seed, target)
        assert verify_container(dst, deep=True)["ok"], (seed, target)


# ---------------------------------------------------------------------------
# packed task stages: a few Ray tasks per CPU, same bytes as one per item
# ---------------------------------------------------------------------------


def _numpy_row(item: dict) -> dict:
    import numpy as np

    return {k: np.asarray([v]) for k, v in item.items()}


def _part_bytes(d: str) -> dict:
    return {f: open(os.path.join(d, f), "rb").read()
            for f in sorted(os.listdir(d)) if f.endswith(".grck")}


def _entries(d: str) -> dict:
    from plugin_serdes_ray.state.checkpoint import read_manifest_entries

    return {i: {k: v for k, v in e.items() if k != "secs"}
            for i, e in read_manifest_entries(d).items()}


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("wp_small"))
    return generate_webpages(out, 270, 9)


def test_packed_stages_match_in_process(ray_session, small_files, tmp_path):
    """Packed encode, compaction and verify write the bytes, manifest
    entries and report that running each item's task function in process
    gives, from at most 4 x concurrency tasks."""
    from plugin_serdes_ray.encode import (
        _run_task_stage, compact_bin_batch, encode_shard_batch,
        plan_partitions, scrub_part_batch, verify_container)
    from plugin_serdes_ray.state import checkpoint

    def sizes(batch):
        import numpy as np

        return {"n": np.asarray([len(batch["i"])])}

    # one row per task: runs of at most ceil(n / (4 x concurrency)) items,
    # at most 4 x concurrency tasks
    for n, c, runs in [(64, 1, [16] * 4), (3, 4, [1] * 3),
                       (10, 1, [3, 3, 2, 2]), (9, 2, [2] + [1] * 7)]:
        rows = _run_task_stage([{"i": i} for i in range(n)], sizes, {}, c,
                               "numpy")
        assert sorted((r["n"] for r in rows), reverse=True) == runs, (n, c)

    out = str(tmp_path / "enc")
    encode_files(small_files, out, concurrency=1)
    plan = checkpoint.read_plan(out)
    ref = str(tmp_path / "ref")
    checkpoint.ensure_dirs(ref)
    for p in plan_partitions(sorted(small_files)):
        encode_shard_batch(_numpy_row(p), plan=plan, out_dir=ref)
    assert len(_part_bytes(out)) == 9
    assert _part_bytes(out) == _part_bytes(ref)
    assert _entries(out) == _entries(ref)

    # resume re-encodes exactly the parts whose file and entry are gone
    gone = ["part-00001.grck", "part-00004.grck", "part-00007.grck"]
    stamps = {f: os.stat(os.path.join(out, f)).st_mtime_ns
              for f in _part_bytes(out) if f not in gone}
    for f in gone:
        os.remove(os.path.join(out, f))
        os.remove(checkpoint.entry_path(out, int(f[5:10])))
    assert encode_files(small_files, out, concurrency=1)["skipped_parts"] == 6
    assert _part_bytes(out) == _part_bytes(ref)
    assert {f: os.stat(os.path.join(out, f)).st_mtime_ns
            for f in stamps} == stamps

    # decode stays one block per part
    assert len(decode_dataset(out).to_arrow_refs()) == 9

    # compaction: bins of ~3 parts, packed vs in process
    target = sum(len(b) for b in _part_bytes(out).values()) // 3
    dst = str(tmp_path / "compact")
    compact_parts(out, dst, target_part_bytes=target, concurrency=1)
    bins = plan_compaction_bins(out, target)
    assert len(bins) > 1
    ref_dst = str(tmp_path / "compact_ref")
    checkpoint.ensure_dirs(ref_dst)
    src_raw = {e["file"]: e.get("raw_bytes")
               for e in checkpoint.read_manifest_entries(out).values()}
    for b in bins:
        compact_bin_batch(_numpy_row(b), plan=plan, src_dir=out,
                          dst_dir=ref_dst, src_raw_bytes=src_raw)
    assert _part_bytes(dst) == _part_bytes(ref_dst)
    assert _entries(dst) == _entries(ref_dst)

    # verify: the packed report is the per-part report, row for row
    rep = verify_container(out, deep=True, concurrency=1)
    assert rep["ok"]
    ref_rep = pa.concat_tables(
        scrub_part_batch(pa.table({"path": [os.path.join(out, f)]}),
                         deep=True) for f in _part_bytes(out))
    assert rep["parts"].sort_by("file").to_pylist() == ref_rep.to_pylist()


def test_part_bytes_independent_of_input_path(small_files, tmp_path):
    """Part headers name their input by basename (the manifest keeps the
    full path): the same shards, copied into two directories whose paths
    differ in length, encode and compact to identical bytes. No Ray."""
    import shutil

    from plugin_serdes_ray.encode import (
        compact_bin_batch, encode_shard_batch, plan_partitions)
    from plugin_serdes_ray.plan import build_plan
    from plugin_serdes_ray.state import checkpoint

    plan = build_plan(pq.read_table(small_files[0]))
    written = []
    for sub in ("a", "a_much_longer_directory_name"):
        src = tmp_path / sub / "in"
        src.mkdir(parents=True)
        files = []
        for f in sorted(small_files)[:3]:
            files.append(str(src / os.path.basename(f)))
            shutil.copyfile(f, files[-1])
        enc = str(tmp_path / sub / "enc")
        checkpoint.ensure_dirs(enc)
        for p in plan_partitions(files):
            encode_shard_batch(_numpy_row(p), plan=plan, out_dir=enc)
        dst = str(tmp_path / sub / "compact")
        checkpoint.ensure_dirs(dst)
        for b in plan_compaction_bins(enc, 1 << 40):
            compact_bin_batch(_numpy_row(b), plan=plan, src_dir=enc,
                              dst_dir=dst, src_raw_bytes={})
        assert checkpoint.read_manifest_entries(enc)[0]["input"] == files[0]
        written.append((_part_bytes(enc), _part_bytes(dst)))
    assert len(written[0][0]) == 3 and len(written[0][1]) == 1
    assert written[0] == written[1]
