"""Round-3 wide-op additions: semi/anti joins, window functions, rollup,
pivot, and the sketch module (HLL, heavy hitters)."""

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def orders_ds(ray_session, sf_dir):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/orders.parquet")


def test_semi_and_anti_join_match_exists(orders_ds, sf_dir, ray_session):
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.relational import anti_join, semi_join

    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet").filter(
        lambda r: r["c_mktsegment"] == "BUILDING")
    semi = sorted(r["o_orderkey"] for r in semi_join(
        orders_ds, cust, "o_custkey", "c_custkey").take_all())
    want = [r[0] for r in duckdb.sql(
        f"SELECT o_orderkey FROM read_parquet('{sf_dir}/orders.parquet') o "
        f"WHERE EXISTS (SELECT 1 FROM read_parquet('{sf_dir}/customer.parquet') c "
        f"WHERE c.c_custkey=o.o_custkey AND c.c_mktsegment='BUILDING') "
        f"ORDER BY 1").fetchall()]
    assert semi == want
    anti = anti_join(orders_ds, cust, "o_custkey", "c_custkey").count()
    assert anti == orders_ds.count() - len(semi)


def test_semi_join_emits_left_rows_once_per_match_set(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import semi_join

    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 1, 2, 3], type=pa.int64()),
        "x": pa.array(["a", "b", "c", "d"])}))
    # right has DUPLICATE keys: semi must still emit each left row once
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 1, 1, 2], type=pa.int64())}))
    got = sorted(r["x"] for r in semi_join(left, right, "k").take_all())
    assert got == ["a", "b", "c"]


def test_anti_join_keeps_null_key_left_rows(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import anti_join, semi_join

    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, None, 2, None], type=pa.int64()),
        "x": pa.array(["a", "b", "c", "d"])}))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([1, None], type=pa.int64())}))
    # SQL: NULL = NULL is not true -> null-key rows never match
    assert sorted(r["x"] for r in anti_join(left, right, "k").take_all()) \
        == ["b", "c", "d"]
    assert sorted(r["x"] for r in semi_join(left, right, "k").take_all()) \
        == ["a"]


def test_semi_join_composite_keys(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import semi_join

    left = ray.data.from_arrow(pa.table({
        "a": pa.array([1, 1, 2], type=pa.int64()),
        "b": pa.array(["x", "y", "x"]),
        "v": pa.array([10, 20, 30], type=pa.int64())}))
    right = ray.data.from_arrow(pa.table({
        "a": pa.array([1, 2], type=pa.int64()),
        "b": pa.array(["y", "z"])}))
    got = sorted(r["v"] for r in semi_join(left, right, ["a", "b"]).take_all())
    assert got == [20]


def test_window_functions_vs_sql(orders_ds, sf_dir, ray_session):
    import duckdb

    from plugin_serdes_ray.pipelines.relational import window_functions

    out = window_functions(
        orders_ds.select_columns(["o_custkey", "o_orderkey", "o_totalprice"]),
        by="o_custkey", order_by="o_orderkey",
        specs={"rn": ("row_number",),
               "rnk": ("rank", "o_totalprice"),
               "drk": ("dense_rank", "o_totalprice"),
               "nxt": ("lead", "o_orderkey", 1)})
    got = pa.Table.from_pylist(out.take_all()).sort_by(
        [("o_custkey", "ascending"), ("o_orderkey", "ascending")])
    want = duckdb.sql(f"""
        SELECT o_custkey, o_orderkey,
               row_number() OVER w AS rn,
               rank() OVER (PARTITION BY o_custkey ORDER BY o_totalprice) rnk,
               dense_rank() OVER (PARTITION BY o_custkey ORDER BY o_totalprice) drk,
               lead(o_orderkey, 1) OVER w AS nxt
        FROM read_parquet('{sf_dir}/orders.parquet')
        WINDOW w AS (PARTITION BY o_custkey ORDER BY o_orderkey)
        ORDER BY o_custkey, o_orderkey""").arrow()
    for c in ["rn", "rnk", "drk", "nxt"]:
        assert got.column(c).to_pylist() == want.column(c).to_pylist(), c


def test_window_lag_lead_partition_edges(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import window_functions

    t = pa.table({"k": pa.array([1, 1, 1, 2], type=pa.int64()),
                  "o": pa.array([3, 1, 2, 5], type=pa.int64()),
                  "v": pa.array([30.0, 10.0, None, 50.0])})
    out = window_functions(
        ray.data.from_arrow(t), by="k", order_by="o",
        specs={"lag2": ("lag", "v", 2), "lead5": ("lead", "v", 5),
               "cs": ("cumsum", "v")})
    rows = sorted(out.take_all(), key=lambda r: (r["k"], r["o"]))
    assert [r["lag2"] for r in rows] == [None, None, 10.0, None]
    assert [r["lead5"] for r in rows] == [None] * 4
    # cumsum skips nulls; rows before the first non-null stay null
    assert [r["cs"] for r in rows] == [10.0, 10.0, 40.0, 50.0]


def test_window_cumsum_null_prefix(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import window_functions

    t = pa.table({"k": pa.array([1, 1, 1], type=pa.int64()),
                  "o": pa.array([1, 2, 3], type=pa.int64()),
                  "v": pa.array([None, None, 7.0])})
    out = window_functions(ray.data.from_arrow(t), by="k", order_by="o",
                           specs={"cs": ("cumsum", "v")})
    rows = sorted(out.take_all(), key=lambda r: r["o"])
    assert [r["cs"] for r in rows] == [None, None, 7.0]


def test_rollup_matches_sql(ray_session, sf_dir):
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.relational import rollup_aggregate

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity"])
    got = pa.Table.from_pylist(
        rollup_aggregate(li, ["l_returnflag", "l_linestatus"],
                         sum_cols=["l_quantity"]).take_all())
    want = duckdb.sql(f"""
        SELECT l_returnflag, l_linestatus, sum(l_quantity) s, count(*) n
        FROM read_parquet('{sf_dir}/lineitem.parquet')
        GROUP BY ROLLUP(l_returnflag, l_linestatus)""").arrow()
    assert got.num_rows == want.num_rows

    def key(rf, ls, s, n):
        return (rf or "", ls or "", round(float(s), 6), int(n))

    gset = {key(*r) for r in zip(got["l_returnflag"].to_pylist(),
                                 got["l_linestatus"].to_pylist(),
                                 got["sum_l_quantity"].to_pylist(),
                                 got["n"].to_pylist())}
    wset = {key(*r) for r in zip(want["l_returnflag"].to_pylist(),
                                 want["l_linestatus"].to_pylist(),
                                 want["s"].to_pylist(),
                                 want["n"].to_pylist())}
    assert gset == wset


def test_pivot_matches_filtered_sums(ray_session, sf_dir):
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.relational import pivot_aggregate

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity"])
    got = pa.Table.from_pylist(
        pivot_aggregate(li, "l_returnflag", "l_linestatus", ["O", "F", "Z"],
                        "l_quantity").take_all()).sort_by("l_returnflag")
    want = duckdb.sql(f"""
        SELECT l_returnflag,
               COALESCE(sum(l_quantity) FILTER (l_linestatus='O'), 0) qo,
               COALESCE(sum(l_quantity) FILTER (l_linestatus='F'), 0) qf
        FROM read_parquet('{sf_dir}/lineitem.parquet')
        GROUP BY 1 ORDER BY 1""").arrow()
    assert got.column("l_quantity_O").to_pylist() == want.column("qo").to_pylist()
    assert got.column("l_quantity_F").to_pylist() == want.column("qf").to_pylist()
    # a pivot value absent from the data must yield all-zero cells, not fail
    assert set(got.column("l_quantity_Z").to_pylist()) == {0.0}


def test_hll_within_tolerance(ray_session, sf_dir):
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.sketch import approx_count_distinct

    for col, p in [("o_orderkey", 14), ("o_custkey", 12)]:
        ds = ray.data.read_parquet(f"{sf_dir}/orders.parquet", columns=[col])
        est = approx_count_distinct(ds, col, p=p)
        exact = duckdb.sql(
            f"SELECT count(DISTINCT {col}) FROM "
            f"read_parquet('{sf_dir}/orders.parquet')").fetchone()[0]
        assert abs(est - exact) <= 0.05 * exact, (col, est, exact)


def test_hll_registers_merge_like_one_pass(ray_session):
    """Block-split invariance: HLL over 1 block == HLL over many blocks
    (the registers are a true mergeable sketch)."""
    import ray.data

    from plugin_serdes_ray.pipelines.sketch import approx_count_distinct

    vals = pa.array([f"v{i}" for i in range(20_000)])
    one = ray.data.from_arrow(pa.table({"x": vals}))
    many = ray.data.from_arrow(pa.table({"x": vals})).repartition(13)
    assert approx_count_distinct(one, "x") == approx_count_distinct(many, "x")


def test_heavy_hitters_exact_counts(ray_session, sf_dir):
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.sketch import heavy_hitters

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["lang"])
    got = heavy_hitters(docs, "lang", 0.05)
    want = duckdb.sql(f"""
        SELECT lang, count(*) c FROM read_parquet('{sf_dir}/documents.parquet')
        GROUP BY 1 HAVING c >= CEIL(0.05 * (SELECT count(*) FROM
            read_parquet('{sf_dir}/documents.parquet')))
        ORDER BY c DESC, lang""").arrow()
    assert got.column("lang").to_pylist() == want.column("lang").to_pylist()
    assert got.column("n").to_pylist() == want.column("c").to_pylist()


def test_heavy_hitters_no_false_negatives_across_blocks(ray_session):
    """A value heavy globally but below threshold in MOST blocks must still
    be found (pigeonhole: it crosses the local threshold somewhere)."""
    import ray.data

    from plugin_serdes_ray.pipelines.sketch import heavy_hitters

    # "hot" is 15% globally but concentrated in the first blocks; the
    # other blocks are all-distinct values
    rows = ["hot"] * 150 + [f"c{i}" for i in range(850)]
    ds = ray.data.from_arrow(pa.table({"v": pa.array(rows)})).repartition(10)
    got = heavy_hitters(ds, "v", 0.1)
    assert got.column("v").to_pylist() == ["hot"]
    assert got.column("n").to_pylist() == [150]


def test_interval_join_overlap_all_matches(ray_session):
    """overlap=True emits EVERY (row, containing interval) pair — checked
    against a brute-force python double loop."""
    import ray.data

    from plugin_serdes_ray.pipelines.relational import interval_join

    rng = np.random.default_rng(21)
    n_ev, n_iv = 300, 40
    ev = pa.table({
        "eid": pa.array(np.arange(n_ev), type=pa.int64()),
        "key": pa.array(rng.integers(0, 3, n_ev), type=pa.int64()),
        "t": pa.array(rng.integers(0, 1000, n_ev), type=pa.int64())})
    lo = rng.integers(0, 900, n_iv)
    iv = pa.table({
        "iid": pa.array(np.arange(n_iv), type=pa.int64()),
        "key": pa.array(rng.integers(0, 3, n_iv), type=pa.int64()),
        "lo": pa.array(lo, type=pa.int64()),
        "hi": pa.array(lo + rng.integers(10, 400, n_iv), type=pa.int64())})
    out = interval_join(ray.data.from_arrow(ev), ray.data.from_arrow(iv),
                        on="t", by="key", lo_col="lo", hi_col="hi",
                        right_cols=["iid"], overlap=True)
    got = sorted((r["eid"], r["iid"]) for r in out.take_all())
    want = sorted(
        (e, i)
        for e, ke, t in zip(ev["eid"].to_pylist(), ev["key"].to_pylist(),
                            ev["t"].to_pylist())
        for i, ki, l, h in zip(iv["iid"].to_pylist(), iv["key"].to_pylist(),
                               iv["lo"].to_pylist(), iv["hi"].to_pylist())
        if ke == ki and l <= t <= h)
    assert got == want
    assert len(got) > n_ev  # the fixture really does overlap


def test_window_ntile_first_last_vs_sql(ray_session, sf_dir):
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.relational import window_functions

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderkey", "o_totalprice"])
    out = window_functions(
        orders, by="o_custkey", order_by="o_orderkey",
        specs={"q4": ("ntile", 4),
               "first_p": ("first_value", "o_totalprice"),
               "last_p": ("last_value", "o_totalprice")})
    got = pa.Table.from_pylist(out.take_all()).sort_by(
        [("o_custkey", "ascending"), ("o_orderkey", "ascending")])
    want = duckdb.sql(f"""
        SELECT o_custkey, o_orderkey,
               ntile(4) OVER w AS q4,
               first_value(o_totalprice) OVER w AS first_p,
               last_value(o_totalprice) OVER
                 (PARTITION BY o_custkey ORDER BY o_orderkey
                  ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)
                 AS last_p
        FROM read_parquet('{sf_dir}/orders.parquet')
        WINDOW w AS (PARTITION BY o_custkey ORDER BY o_orderkey)
        ORDER BY o_custkey, o_orderkey""").arrow()
    for c in ["q4", "first_p", "last_p"]:
        assert got.column(c).to_pylist() == want.column(c).to_pylist(), c


def test_grouped_quantiles_vs_sql(ray_session, sf_dir):
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.relational import grouped_quantiles

    li = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_returnflag", "l_quantity"])
    got = pa.Table.from_pylist(
        grouped_quantiles(li, "l_returnflag", "l_quantity",
                          {"p50": 0.5, "p90": 0.9}).take_all()
    ).sort_by("l_returnflag")
    want = duckdb.sql(f"""
        SELECT l_returnflag, quantile_disc(l_quantity, 0.5) p50,
               quantile_disc(l_quantity, 0.9) p90
        FROM read_parquet('{sf_dir}/lineitem.parquet')
        GROUP BY l_returnflag ORDER BY l_returnflag""").arrow()
    assert got.to_pylist() == want.to_pylist()


def test_grouped_quantiles_all_null_group(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import grouped_quantiles

    t = pa.table({"k": ["a", "a", "b"],
                  "v": pa.array([None, None, 7], type=pa.int64())})
    rows = {r["k"]: r for r in grouped_quantiles(
        ray.data.from_arrow(t), "k", "v", {"p50": 0.5}).take_all()}
    assert rows["a"]["p50"] is None and rows["b"]["p50"] == 7


def test_string_agg_nulls_and_order(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import string_agg

    t = pa.table({"k": ["x", "x", "x", "y", "y"],
                  "v": ["b", None, "a", None, None],
                  "o": [2, 1, 3, 1, 2]})
    # note order_by picks o: x gives b (o=2) then a (o=3), null skipped
    rows = {r["k"]: r["agg"] for r in string_agg(
        ray.data.from_arrow(t), "k", "v", sep="|",
        order_by="o").take_all()}
    assert rows["x"] == "b|a"
    assert rows["y"] is None  # all-null group -> SQL string_agg null


def test_set_op_vs_sql(ray_session, sf_dir):
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.relational import set_op

    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                 columns=["c_custkey"])
    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                   columns=["o_custkey"])
    for op, sql in [("except", "EXCEPT"), ("intersect", "INTERSECT"),
                    ("union", "UNION")]:
        got = sorted(r["c_custkey"]
                     for r in set_op(cust, orders, op).take_all())
        want = [r[0] for r in duckdb.sql(
            f"SELECT c_custkey FROM read_parquet('{sf_dir}/customer.parquet') "
            f"{sql} SELECT o_custkey FROM "
            f"read_parquet('{sf_dir}/orders.parquet') ORDER BY 1").fetchall()]
        assert got == want, op


def test_set_op_nulls_compare_equal(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import set_op

    lt = ray.data.from_arrow(pa.table({"a": [1, None, 2, None]}))
    rt = ray.data.from_arrow(pa.table({"a": [None, 3]}))
    inter = [r["a"] for r in set_op(lt, rt, "intersect").take_all()]
    assert inter == [None]  # NULL INTERSECT NULL keeps one NULL row (SQL)
    exc = sorted(r["a"] for r in set_op(lt, rt, "except").take_all()
                 if r["a"] is not None)
    assert exc == [1, 2]


def test_grouped_top_k_vs_sql(ray_session, sf_dir):
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.relational import grouped_top_k

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority", "o_totalprice"])
    got = pa.Table.from_pylist(
        grouped_top_k(orders, "o_orderpriority", "o_totalprice", k=3,
                      tiebreak="o_orderkey").take_all()
    ).sort_by([("o_orderpriority", "ascending"),
               ("o_orderkey", "ascending")])
    want = duckdb.sql(f"""
        SELECT o_orderkey, o_orderpriority, o_totalprice
        FROM read_parquet('{sf_dir}/orders.parquet')
        QUALIFY row_number() OVER (PARTITION BY o_orderpriority
            ORDER BY o_totalprice DESC, o_orderkey) <= 3
        ORDER BY o_orderpriority, o_orderkey""").arrow()
    assert got.select(want.column_names).to_pylist() == want.to_pylist()


def test_grouped_top_k_null_keys_one_group(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import grouped_top_k

    t = pa.table({"k": [None, None, None, "a"],
                  "v": [3, 1, 2, 9], "id": [0, 1, 2, 3]})
    rows = grouped_top_k(ray.data.from_arrow(t), "k", "v", k=2,
                         tiebreak="id").take_all()
    by_k = {}
    for r in rows:
        by_k.setdefault(r["k"], []).append(r["v"])
    # SQL PARTITION BY groups nulls together; top-2 of {3,1,2} is {3,2}
    assert sorted(by_k[None]) == [2, 3] and by_k["a"] == [9]


def test_grouped_stats_vs_sql(ray_session, sf_dir):
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.relational import grouped_stats

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"])
    got = pa.Table.from_pylist(
        grouped_stats(li, "l_returnflag", "l_quantity",
                      "l_extendedprice").take_all()).sort_by("l_returnflag")
    want = duckdb.sql(f"""
        SELECT l_returnflag, count(l_quantity) n,
               avg(l_quantity) mean_l_quantity,
               stddev_samp(l_quantity) stddev_l_quantity,
               corr(l_quantity, l_extendedprice)
                   corr_l_quantity_l_extendedprice
        FROM read_parquet('{sf_dir}/lineitem.parquet')
        GROUP BY 1 ORDER BY 1""").arrow()
    assert got.num_rows == want.num_rows
    for c in want.column_names:
        for x, y in zip(got.column(c).to_pylist(),
                        want.column(c).to_pylist()):
            if isinstance(x, float):
                assert abs(x - y) <= 1e-9 * max(1.0, abs(y)), c
            else:
                assert x == y, c


def test_grouped_stats_null_and_tiny_groups(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import grouped_stats

    t = pa.table({"k": ["a", "a", "b", "c", "c"],
                  "x": [1.0, None, 5.0, 2.0, 4.0],
                  "y": [2.0, 9.9, None, 1.0, 3.0]})
    rows = {r["k"]: r for r in grouped_stats(
        ray.data.from_arrow(t), "k", "x", "y").take_all()}
    # n=1 -> stddev null; no pairwise-complete rows in b -> corr null
    assert rows["a"]["n"] == 1 and rows["a"]["stddev_x"] is None
    assert rows["b"]["corr_x_y"] is None
    assert abs(rows["c"]["corr_x_y"] - 1.0) < 1e-12  # perfectly linear


def test_exact_quantiles_cont_vs_sql(ray_session, sf_dir):
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.relational import exact_quantiles_cont

    li = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_extendedprice"])
    got = exact_quantiles_cont(li, "l_extendedprice", [0.0, 0.25, 0.5,
                                                       0.9, 1.0])
    want = duckdb.sql(
        f"SELECT quantile_cont(l_extendedprice, [0.0,0.25,0.5,0.9,1.0]) "
        f"FROM read_parquet('{sf_dir}/lineitem.parquet')").fetchone()[0]
    for q, w in zip([0.0, 0.25, 0.5, 0.9, 1.0], want):
        assert abs(got[q] - w) <= 1e-9 * max(1.0, abs(w)), q


def test_exact_quantiles_cont_edges(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import exact_quantiles_cont

    # single value, constant column, empty column
    one = ray.data.from_arrow(pa.table({"v": [42.0]}))
    assert exact_quantiles_cont(one, "v", [0.5]) == {0.5: 42.0}
    const = ray.data.from_arrow(pa.table({"v": [7.0] * 10}))
    assert exact_quantiles_cont(const, "v", [0.1, 0.9]) == {0.1: 7.0,
                                                            0.9: 7.0}
    empty = ray.data.from_arrow(pa.table(
        {"v": pa.array([None, None], type=pa.float64())}))
    assert exact_quantiles_cont(empty, "v", [0.5]) == {0.5: None}


def test_cube_aggregate_vs_sql(ray_session, sf_dir):
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.relational import cube_aggregate

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity"])
    got = pa.Table.from_pylist(
        cube_aggregate(li, ["l_returnflag", "l_linestatus"],
                       sum_cols=["l_quantity"]).take_all()).rename_columns(
        ["l_returnflag", "l_linestatus", "sum_qty", "n"])
    got = got.sort_by([(c, "ascending") for c in got.column_names])
    want = duckdb.sql(f"""
        SELECT l_returnflag, l_linestatus, sum(l_quantity) sum_qty,
               count(*) n
        FROM read_parquet('{sf_dir}/lineitem.parquet')
        GROUP BY CUBE(l_returnflag, l_linestatus)
        ORDER BY 1, 2, 3, 4""").arrow()
    assert got.num_rows == want.num_rows
    for a, b in zip(got.to_pylist(), want.to_pylist()):
        for k, x in a.items():
            y = b[k]
            if isinstance(x, float):
                assert abs(x - y) <= 1e-9 * max(1.0, abs(y))
            else:
                assert x == y


def test_grouped_stats_key_named_like_partial(ray_session):
    """A group key whose own name ends in '_sum' must not be renamed away
    by the partial-column suffix strip."""
    import ray.data

    from plugin_serdes_ray.pipelines.relational import grouped_stats

    t = pa.table({"revenue_sum": ["a", "a", "b"], "x": [1.0, 3.0, 5.0]})
    rows = {r["revenue_sum"]: r for r in grouped_stats(
        ray.data.from_arrow(t), "revenue_sum", "x").take_all()}
    assert rows["a"]["n"] == 2 and abs(rows["a"]["mean_x"] - 2.0) < 1e-12
    assert rows["b"]["n"] == 1


def test_rollup_counts_null_key_rows(ray_session):
    """count(*) must include rows whose FIRST key value is NULL (ADVICE r3:
    the partial used (keys[0], 'count') and undercounted null-key rows)."""
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.relational import rollup_aggregate

    t = pa.table({
        "a": ["x", None, None, "x", None],
        "b": ["p", "p", None, "q", "p"],
        "v": [1.0, 2.0, 3.0, 4.0, 5.0],
    })
    got = pa.Table.from_pylist(
        rollup_aggregate(ray.data.from_arrow(t), ["a", "b"],
                         sum_cols=["v"]).take_all())
    want = duckdb.sql("""
        SELECT a, b, sum(v) s, count(*) n FROM t
        GROUP BY ROLLUP(a, b)""").arrow()
    assert got.num_rows == want.num_rows

    def key(a, b, s, n):
        return (a or "", b or "", round(float(s), 9), int(n))

    gset = {key(r["a"], r["b"], r["sum_v"], r["n"]) for r in got.to_pylist()}
    wset = {key(r["a"], r["b"], r["s"], r["n"]) for r in want.to_pylist()}
    assert gset == wset


def test_pivot_key_named_like_partial(ray_session):
    """A pivot group key whose own name ends in '_sum' must survive the
    partial-column suffix strip (ADVICE r3)."""
    import ray.data

    from plugin_serdes_ray.pipelines.relational import pivot_aggregate

    t = pa.table({"revenue_sum": ["a", "a", "b"],
                  "st": ["O", "F", "O"], "v": [1.0, 2.0, 4.0]})
    got = pa.Table.from_pylist(
        pivot_aggregate(ray.data.from_arrow(t), "revenue_sum", "st",
                        ["O", "F"], "v").take_all()).sort_by("revenue_sum")
    assert got.column("revenue_sum").to_pylist() == ["a", "b"]
    assert got.column("v_O").to_pylist() == [1.0, 4.0]
    assert got.column("v_F").to_pylist() == [2.0, 0.0]


def test_heavy_hitters_null_group(ray_session):
    """A NULL value above the threshold is reported as its own group, like
    SQL GROUP BY ... HAVING (ADVICE r3: it was silently dropped)."""
    import ray.data

    from plugin_serdes_ray.pipelines.sketch import heavy_hitters

    rows = ["hot"] * 40 + [None] * 30 + [f"c{i}" for i in range(30)]
    ds = ray.data.from_arrow(pa.table(
        {"v": pa.array(rows, type=pa.string())})).repartition(4)
    got = heavy_hitters(ds, "v", 0.2)
    assert got.column("v").to_pylist() == ["hot", None]
    assert got.column("n").to_pylist() == [40, 30]


def test_content_hash_fallback_non_string(monkeypatch):
    """The numpy fallback (no C compiler) must hash ints/floats/dates
    — and produce values BIT-IDENTICAL to the C kernel (VERDICT r4 #2:
    one hash format, every worker of a cluster agrees)."""
    from plugin_serdes_ray.codecs import fsst_native
    from plugin_serdes_ray.pipelines import dedup

    arrs = [pa.array([1, 2, 2, None], type=pa.int64()),
            pa.array([1.5, 2.5], type=pa.float64()),
            pa.array(["a", "bb", None, "", "a" * 5000]),
            pa.array([b"\x00\xff", b""], type=pa.binary())]
    native = [dedup._content_hash64(a) for a in arrs]
    monkeypatch.setattr(fsst_native, "native_hash64",
                        lambda *a, **k: None)
    fallback = [dedup._content_hash64(a) for a in arrs]
    for got, want in zip(fallback, native):
        assert (got == want).all()
    out = fallback[0]
    assert out[1] == out[2] and out[0] != out[1] and out[3] == 0
    assert fallback[1][0] != fallback[1][1]


def test_jaccard_verify_malformed_group_drops(ray_session):
    """Exact-Jaccard pair verify: a pair whose id occurs twice in the
    corpus, whose text is missing, or whose text is null drops — it does
    not raise (ADVICE r3)."""
    import ray.data

    from plugin_serdes_ray.pipelines.dedup import _verify_pairs

    # doc 2 appears twice and doc 1 not at all -> the (1, 2) pair meets
    # two rows of id 2 and none of id 1; doc 6's text is null; doc 8 is
    # missing; (3, 4) verifies normally (threshold 0 accepts any pair)
    t = pa.table({"doc_id": pa.array([2, 2, 3, 4, 5, 6, 7], type=pa.int64()),
                  "text": ["same text here", "same text here",
                           "other text one", "other text two",
                           "fifth text", None, "seventh text"]})
    pairs = ray.data.from_arrow(pa.table({
        "keep_id": pa.array([1, 3, 5, 7], type=pa.int64()),
        "dup_id": pa.array([2, 4, 6, 8], type=pa.int64())}))
    out = _verify_pairs(ray.data.from_arrow(t), "text", "doc_id", pairs,
                        threshold=0.0, k=3)
    assert [(r["keep_id"], r["dup_id"]) for r in out.take_all()] == [(3, 4)]


# ---------------------------------------------------------------------------
# bloom_semi_join (round 4)
# ---------------------------------------------------------------------------


def test_bloom_semi_join_matches_exact(orders_ds, sf_dir, ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import (bloom_semi_join,
                                                        semi_join)

    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet").filter(
        lambda r: r["c_mktsegment"] == "BUILDING")
    for anti in (False, True):
        got = sorted(r["o_orderkey"] for r in bloom_semi_join(
            orders_ds, cust, "o_custkey", right_key="c_custkey",
            anti=anti, bits=1 << 16).take_all())
        want = sorted(r["o_orderkey"] for r in semi_join(
            orders_ds, cust, "o_custkey", right_key="c_custkey",
            anti=anti).take_all())
        assert got == want and len(got) > 0


def test_bloom_anti_keeps_null_key_left_rows(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import bloom_semi_join

    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, None, 2, None, 3], type=pa.int64()),
        "x": pa.array(["a", "b", "c", "d", "e"])}))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([1, None], type=pa.int64())}))
    semi = sorted(r["x"] for r in bloom_semi_join(
        left, right, "k", bits=1 << 12).take_all())
    anti = sorted(r["x"] for r in bloom_semi_join(
        left, right, "k", anti=True, bits=1 << 12).take_all())
    assert semi == ["a"]                      # null keys never match
    assert anti == ["b", "c", "d", "e"]       # null-key rows kept by anti


def test_bloom_bitmap_prunes_nonmember_keys(ray_session):
    """The prefilter must actually prune: members always hit, and probes
    disjoint from the built set stay near the k=4 false-positive rate —
    <5% for 1000 keys in 2^20 bits, and <2.5% for 1,600 keys in 2^14
    bits (~1.1% expected at 10 bits/key; an index family whose second
    hash depends on the masked low bits gave 5.7% there)."""
    import numpy as np

    from plugin_serdes_ray.container import bloom_set, bloom_test
    from plugin_serdes_ray.pipelines.dedup import _content_hash64

    def fp_rate(n_keys, bits, n_probe):
        words = np.zeros(bits >> 6, dtype=np.uint64)
        member = _content_hash64(pa.array([str(i) for i in range(n_keys)]))
        bloom_set(words, member, 4)
        assert bloom_test(words, member, 4).all()
        probe = _content_hash64(pa.array(
            [str(i) for i in range(10_000_000, 10_000_000 + n_probe)]))
        return bloom_test(words, probe, 4).mean()

    assert fp_rate(1000, 1 << 20, 1000) < 0.05
    assert fp_rate(1600, 1 << 14, 20_000) < 0.025


def test_prefix_sum_matches_window_cumsum(ray_session):
    """Distributed prefix scan over many blocks == SQL sum() OVER (ORDER
    BY k), inclusive and exclusive, ints and floats, nulls counted as 0."""
    import duckdb
    import numpy as np
    import ray.data

    from plugin_serdes_ray.pipelines.relational import prefix_sum

    rng = np.random.default_rng(7)
    n = 5_000
    t = pa.table({
        "k": pa.array(rng.permutation(n).astype(np.int64)),
        "v": pa.array([None if i % 97 == 0 else int(rng.integers(0, 50))
                       for i in range(n)], type=pa.int64())})
    ds = ray.data.from_arrow(t).repartition(16)
    for exclusive, frame in [
            (False, "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW"),
            (True, "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING")]:
        got = prefix_sum(ds, "k", "v", "c", exclusive=exclusive).take_all()
        got = {r["k"]: r["c"] for r in got}
        want = duckdb.sql(
            f"SELECT k, coalesce(sum(coalesce(v,0)) OVER (ORDER BY k "
            f"{frame}), 0) AS c FROM t").fetchall()
        assert got == {k: c for k, c in want}


def test_prefix_sum_rejects_boundary_duplicate_keys(ray_session):
    import pytest
    import ray.data

    from plugin_serdes_ray.pipelines.relational import prefix_sum

    t = pa.table({"k": pa.array([1] * 400, type=pa.int64()),
                  "v": pa.array([1] * 400, type=pa.int64())})
    # presorted=True keeps the 4 equal-min-key blocks as-is (a global
    # sort may coalesce them), so the guard must fire
    ds = ray.data.from_arrow(t).repartition(4)
    with pytest.raises(ValueError, match="unique"):
        prefix_sum(ds, "k", "v", presorted=True).take_all()


def test_pack_sequences_concat_and_chop(ray_session):
    """Bins are the concat-then-chunk layout: doc starts at the exclusive
    running total; bin = start // L, offset = start % L."""
    import ray.data

    from plugin_serdes_ray.pipelines.relational import pack_sequences

    t = pa.table({"doc_id": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
                  "tok": pa.array([60, 50, 10, 100, 1], type=pa.int64())})
    out = pack_sequences(ray.data.from_arrow(t).repartition(3),
                         "tok", "doc_id", 64).take_all()
    got = {r["doc_id"]: (r["bin_id"], r["bin_offset"]) for r in out}
    # starts: 0, 60, 110, 120, 220
    assert got == {1: (0, 0), 2: (0, 60), 3: (1, 46), 4: (1, 56), 5: (3, 28)}


def test_global_shuffle_deterministic_ranked_permutation(ray_session):
    """Rank == row_number under splitmix64(id ^ seed) order (checked
    against an independent SQL reimplementation of splitmix64 via
    32-bit-half multiplication); different seeds give different orders,
    same seed is reproducible."""
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.relational import global_shuffle

    t = pa.table({"doc_id": pa.array(list(range(200)), type=pa.int64())})
    ds = ray.data.from_arrow(t).repartition(8)
    got = {r["doc_id"]: r["rank"]
           for r in global_shuffle(ds, "doc_id", seed=7).take_all()}
    mul = (lambda a, b:
           f"((({a}) % 4294967296) * (({b}) % 4294967296) + "
           f"(((({a}) % 4294967296) * (({b}) // 4294967296) + "
           f"(({a}) // 4294967296) * (({b}) % 4294967296)) % 4294967296)"
           f" * 4294967296) % 18446744073709551616")
    want = duckdb.sql(f"""
        WITH ids AS (SELECT unnest(generate_series(0, 199)) AS doc_id),
        s0 AS (SELECT doc_id, (CAST(xor(doc_id, 7) AS HUGEINT)
               + 11400714819323198485) % 18446744073709551616 AS z
               FROM ids),
        s1 AS (SELECT doc_id,
               {mul("xor(z, z // 1073741824)", "13787848793156543929")}
               AS z FROM s0),
        s2 AS (SELECT doc_id,
               {mul("xor(z, z // 134217728)", "10723151780598845931")}
               AS z FROM s1),
        s3 AS (SELECT doc_id, xor(z, z // 2147483648) AS z FROM s2)
        SELECT doc_id,
               row_number() OVER (ORDER BY z, doc_id) - 1 AS rank
        FROM s3
    """).fetchall()
    assert got == {d: r for d, r in want}
    again = {r["doc_id"]: r["rank"]
             for r in global_shuffle(ds, "doc_id", seed=7).take_all()}
    assert again == got
    other = {r["doc_id"]: r["rank"]
             for r in global_shuffle(ds, "doc_id", seed=8).take_all()}
    assert other != got


def test_uniform_sample_k_exact_and_seeded(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import (splitmix64,
                                                        uniform_sample_k)

    ids = list(range(300))
    t = pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                  "v": pa.array([i * 2 for i in ids], type=pa.int64())})
    ds = ray.data.from_arrow(t).repartition(7)
    got = uniform_sample_k(ds, "doc_id", k=20, seed=5)
    assert got.num_rows == 20
    assert set(got.column_names) == {"doc_id", "v"}
    # exactly the 20 smallest splitmix64(id ^ 5), independently computed
    import numpy as np
    keys = splitmix64(np.asarray(ids, dtype=np.uint64), 5)
    want = {ids[i] for i in np.argsort(keys)[:20]}
    assert set(got.column("doc_id").to_pylist()) == want
    # reproducible; different seed differs
    again = uniform_sample_k(ds, "doc_id", k=20, seed=5)
    assert sorted(again.column("doc_id").to_pylist()) == \
        sorted(got.column("doc_id").to_pylist())
    other = uniform_sample_k(ds, "doc_id", k=20, seed=6)
    assert set(other.column("doc_id").to_pylist()) != want


def test_mixture_sample_rates_and_composition(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import mixture_sample

    rows = []
    for i in range(1000):
        rows.append({"doc_id": i,
                     "src": "web" if i % 10 < 8 else
                            ("code" if i % 10 < 9 else "books")})
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(5)
    out, fracs = mixture_sample(ds, "src", {"web": 0.5, "code": 0.3,
                                            "books": 0.2},
                                n_target=200, id_column="doc_id")
    # counts: web 800, code 100, books 100 -> rates 100/800, 60/100, 40/100
    assert fracs == {"web": 0.125, "code": 0.6, "books": 0.4}
    got = out.take_all()
    by = {}
    for r in got:
        by.setdefault(r["src"], []).append(r["doc_id"])
    # deterministic knuth-hash selection: recompute expected per key
    for src, rate in (("web", 0.125), ("code", 0.6), ("books", 0.4)):
        want = [r["doc_id"] for r in rows if r["src"] == src
                and ((r["doc_id"] * 2654435761) % 2**32) / 2**32 < rate]
        assert sorted(by.get(src, [])) == sorted(want)
    # a key with fewer rows than its allocation saturates at rate 1
    _, f2 = mixture_sample(ds, "src", {"books": 0.9, "web": 0.1},
                           n_target=500, id_column="doc_id")
    assert f2["books"] == 1.0 and f2["web"] == 0.0625
    # unlisted keys get default_weight (0 -> dropped)
    assert f2["code"] == 0.0


def test_quantile_band_filter_matches_sql(ray_session, sf_dir):
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.relational import quantile_band_filter

    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_orderkey", "l_extendedprice"])
    out = quantile_band_filter(ds, "l_extendedprice", 0.25, 0.75)
    got = sorted((r["l_orderkey"], r["l_extendedprice"])
                 for r in out.take_all())
    want = duckdb.sql(f"""
        WITH q AS (SELECT quantile_disc(l_extendedprice, 0.25) AS lo,
                          quantile_disc(l_extendedprice, 0.75) AS hi
                   FROM read_parquet('{sf_dir}/lineitem.parquet'))
        SELECT l_orderkey, l_extendedprice
        FROM read_parquet('{sf_dir}/lineitem.parquet'), q
        WHERE l_extendedprice BETWEEN q.lo AND q.hi
        ORDER BY l_orderkey, l_extendedprice""").fetchall()
    assert got == [tuple(r) for r in want]


def test_grouped_sample_k_exact_per_group(ray_session):
    import numpy as np
    import ray.data

    from plugin_serdes_ray.pipelines.relational import (grouped_sample_k,
                                                        splitmix64)

    rows = [{"doc_id": i, "lang": ["en", "de", "fr"][i % 3]}
            for i in range(90)]
    # a tiny group (2 rows < k) must be kept whole
    rows += [{"doc_id": 1000 + i, "lang": "zh"} for i in range(2)]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(7)
    got = grouped_sample_k(ds, "lang", k=5, id_column="doc_id", seed=3)
    by = {}
    for r in got.take_all():
        by.setdefault(r["lang"], set()).add(r["doc_id"])
    # independently recompute: the 5 smallest splitmix64(id ^ 3) per lang
    for lang in ("en", "de", "fr"):
        ids = np.array([r["doc_id"] for r in rows if r["lang"] == lang],
                       dtype=np.uint64)
        keys = splitmix64(ids, 3)
        want = set(ids[np.argsort(keys)][:5].tolist())
        assert by[lang] == want, lang
    assert by["zh"] == {1000, 1001}
    # reproducible; a different seed gives a different draw somewhere
    again = grouped_sample_k(ds, "lang", k=5, id_column="doc_id", seed=3)
    assert {(r["lang"], r["doc_id"]) for r in again.take_all()} == \
        {(lang, d) for lang, s in by.items() for d in s}
    other = grouped_sample_k(ds, "lang", k=5, id_column="doc_id", seed=4)
    assert {(r["lang"], r["doc_id"]) for r in other.take_all()} != \
        {(lang, d) for lang, s in by.items() for d in s}


def test_count_min_sketch_bounds_and_merge(ray_session):
    import numpy as np
    import ray.data

    from plugin_serdes_ray.pipelines.sketch import (CountMinSketch,
                                                    count_min_sketch)

    # zipf-ish corpus: value i appears 200 // (i + 1) times
    vals = [f"v{i}" for i in range(40) for _ in range(200 // (i + 1))]
    truth = {f"v{i}": 200 // (i + 1) for i in range(40)}
    t = pa.table({"x": pa.array(vals)})
    ds = ray.data.from_arrow(t).repartition(6)
    cms = count_min_sketch(ds, "x", width=1024, depth=4, seed=1)
    assert cms.n == len(vals)
    probe = pa.array(list(truth))
    est = cms.estimate(probe)
    exact = np.array([truth[v] for v in truth])
    # never an underestimate; overestimate within the e*n/width bound
    assert (est >= exact).all()
    assert (est <= exact + int(np.ceil(np.e * cms.n / cms.width))).all()
    # merge invariance: one-block sketch == many-block sketch
    one = count_min_sketch(ray.data.from_arrow(t).repartition(1), "x",
                           width=1024, depth=4, seed=1)
    assert (one.counts == cms.counts).all()
    # absent value estimates are bounded by collision mass too
    ghost = cms.estimate(pa.array(["nope"]))[0]
    assert 0 <= ghost <= int(np.ceil(np.e * cms.n / cms.width))
    # nulls are not counted
    with_null = ray.data.from_arrow(
        pa.table({"x": pa.array(["a", None, "a"])}))
    c2 = count_min_sketch(with_null, "x", width=64, depth=2)
    assert c2.n == 2
    # incompatible merge refuses
    import pytest as _pytest
    with _pytest.raises(ValueError):
        cms.merge(CountMinSketch(np.zeros((2, 64), dtype=np.int64), 0, 1))


def test_approx_quantiles_sketch_rank_error(ray_session, sf_dir):
    import numpy as np
    import ray.data

    from plugin_serdes_ray.pipelines.sketch import (approx_quantiles_sketch,
                                                    exact_ranks)

    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_extendedprice"])
    n = ds.count()
    k = 256
    qs = [0.1, 0.25, 0.5, 0.9, 0.99]
    est = approx_quantiles_sketch(ds, "l_extendedprice", qs, k=k)
    ranks = exact_ranks(ds, "l_extendedprice", [est[q] for q in qs])
    # ~2N/k: block thinning + the tree-combine re-compression level
    slack = 2 * (-(-n // k)) + 2
    for q, (lo, hi) in zip(qs, ranks):
        target = max(1, int(np.ceil(q * n)))
        # the estimate's true rank interval must overlap target +- slack
        assert lo + 1 <= target + slack and hi >= target - slack, \
            (q, lo, hi, target, slack)
    # tiny inputs are exact (every value kept at weight 1)
    small = ray.data.from_arrow(
        pa.table({"x": pa.array([5.0, 1.0, 3.0, 2.0, 4.0])})).repartition(2)
    got = approx_quantiles_sketch(small, "x", [0.2, 0.6, 1.0], k=16)
    assert got == {0.2: 1.0, 0.6: 3.0, 1.0: 5.0}
    # all-null column yields None
    nul = ray.data.from_arrow(
        pa.table({"x": pa.array([None, None], type=pa.float64())}))
    assert approx_quantiles_sketch(nul, "x", [0.5]) == {0.5: None}


def test_normalize_column_matches_sql(ray_session, sf_dir):
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.relational import normalize_column

    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_orderkey", "l_linenumber",
                                        "l_quantity"])
    for method, expr in (
            ("zscore", "(l_quantity - avg(l_quantity) OVER ()) / "
                       "stddev_samp(l_quantity) OVER ()"),
            ("minmax", "(l_quantity - min(l_quantity) OVER ()) / "
                       "(max(l_quantity) OVER () - "
                       "min(l_quantity) OVER ())")):
        out = normalize_column(ds, "l_quantity", method=method)
        got = {(r["l_orderkey"], r["l_linenumber"]):
               round(r["l_quantity_norm"], 6) for r in out.take_all()}
        want = {(o, ln): round(v, 6) for o, ln, v in duckdb.sql(f"""
            SELECT l_orderkey, l_linenumber, {expr}
            FROM read_parquet('{sf_dir}/lineitem.parquet')""").fetchall()}
        assert got == want, method


def test_normalize_column_edges(ray_session):
    import math

    import ray.data

    from plugin_serdes_ray.pipelines.relational import (column_moments,
                                                        normalize_column)

    t = pa.table({"x": pa.array([2.0, None, 2.0], type=pa.float64())})
    ds = ray.data.from_arrow(t).repartition(2)
    m = column_moments(ds, "x")
    assert m == {"n": 2, "mean": 2.0, "std": 0.0, "min": 2.0, "max": 2.0}
    # constant column -> null scores (x/0 SQL semantics); nulls propagate
    for method in ("zscore", "minmax"):
        vals = [r["x_norm"] for r in
                normalize_column(ds, "x", method=method).take_all()]
        assert vals == [None, None, None], method
    t2 = pa.table({"x": pa.array([1.0, None, 3.0], type=pa.float64())})
    ds2 = ray.data.from_arrow(t2)
    z = [r["x_norm"] for r in normalize_column(ds2, "x").take_all()]
    assert z[1] is None and math.isclose(z[0], -math.sqrt(0.5))
    mm = [r["x_norm"] for r in
          normalize_column(ds2, "x", method="minmax").take_all()]
    assert mm == [0.0, None, 1.0]
    import pytest as _pytest
    with _pytest.raises(ValueError):
        normalize_column(ds2, "x", method="rank")


def test_value_histogram_matches_sql(ray_session, sf_dir):
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.relational import value_histogram

    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_extendedprice"])
    got = value_histogram(ds, "l_extendedprice", 0.0, 120000.0, 24)
    assert got.num_rows == 24
    want = {int(b): n for b, n in duckdb.sql(f"""
        SELECT CAST(floor(l_extendedprice / 5000.0) AS BIGINT) AS bin,
               count(*) AS n
        FROM read_parquet('{sf_dir}/lineitem.parquet')
        WHERE l_extendedprice >= 0 AND l_extendedprice < 120000
        GROUP BY bin""").fetchall()}
    for b, lo, n in zip(got.column("bin").to_pylist(),
                        got.column("lo").to_pylist(),
                        got.column("n").to_pylist()):
        assert n == want.get(b, 0), b
        assert lo == b * 5000.0
    # total preserved for in-range rows
    assert sum(got.column("n").to_pylist()) == sum(want.values())


def test_value_histogram_edges(ray_session):
    import pytest as _pytest
    import ray.data

    from plugin_serdes_ray.pipelines.relational import value_histogram

    t = pa.table({"x": pa.array([0.0, 0.999, 1.0, 2.5, 3.0, None, -1.0],
                                type=pa.float64())})
    ds = ray.data.from_arrow(t).repartition(3)
    got = value_histogram(ds, "x", 0.0, 3.0, 3)
    # 3.0 (== hi), None and -1.0 dropped; [0,1): 2, [1,2): 1, [2,3): 1
    assert got.column("n").to_pylist() == [2, 1, 1]
    with _pytest.raises(ValueError):
        value_histogram(ds, "x", 3.0, 0.0, 3)


def test_normalize_column_robust(ray_session, sf_dir):
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.relational import normalize_column

    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_orderkey", "l_linenumber",
                                        "l_quantity"])
    out = normalize_column(ds, "l_quantity", method="robust")
    got = {(r["l_orderkey"], r["l_linenumber"]):
           round(r["l_quantity_norm"], 9) for r in out.take_all()}
    want = {(o, ln): round(v, 9) for o, ln, v in duckdb.sql(f"""
        SELECT l_orderkey, l_linenumber,
               (l_quantity - quantile_disc(l_quantity, 0.5) OVER ())
               / (quantile_disc(l_quantity, 0.75) OVER ()
                  - quantile_disc(l_quantity, 0.25) OVER ())
        FROM read_parquet('{sf_dir}/lineitem.parquet')""").fetchall()}
    assert got == want
    # constant column -> IQR 0 -> nulls
    const = ray.data.from_arrow(
        pa.table({"x": pa.array([5.0, 5.0, 5.0])}))
    vals = [r["x_norm"] for r in
            normalize_column(const, "x", method="robust").take_all()]
    assert vals == [None, None, None]


def test_assign_splits_deterministic_and_proportional(ray_session):
    import numpy as np
    import pytest as _pytest
    import ray.data

    from plugin_serdes_ray.pipelines.relational import (assign_splits,
                                                        splitmix64)

    ids = list(range(5000))
    t = pa.table({"doc_id": pa.array(ids, type=pa.int64())})
    ds = ray.data.from_arrow(t).repartition(7)
    fr = {"train": 0.8, "val": 0.1, "test": 0.1}
    got = {r["doc_id"]: r["split"]
           for r in assign_splits(ds, "doc_id", fr, seed=5).take_all()}
    # independently recompute the ranges
    u = splitmix64(np.asarray(ids, dtype=np.uint64), 5).astype(np.float64) \
        / 2.0**64
    want = np.where(u < 0.8, "train", np.where(u < 0.9, "val", "test"))
    assert got == {i: w for i, w in zip(ids, want.tolist())}
    # proportions land near the targets
    n_train = sum(1 for v in got.values() if v == "train")
    assert 0.77 * len(ids) < n_train < 0.83 * len(ids)
    # stable across runs / partitionings; disjoint and exhaustive
    again = {r["doc_id"]: r["split"]
             for r in assign_splits(ds.repartition(3), "doc_id", fr,
                                    seed=5).take_all()}
    assert again == got
    # null ids -> null split
    t2 = pa.table({"doc_id": pa.array([1, None], type=pa.int64())})
    out = assign_splits(ray.data.from_arrow(t2), "doc_id", fr).take_all()
    assert [r["split"] for r in out] == [out[0]["split"], None]
    with _pytest.raises(ValueError):
        assign_splits(ds, "doc_id", {"a": 0.5, "b": 0.6})


def test_curriculum_order_matches_sql(ray_session, sf_dir):
    import duckdb
    import numpy as np
    import ray.data

    from plugin_serdes_ray.pipelines.relational import (curriculum_order,
                                                        splitmix64)

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "n_chars"])
    out = curriculum_order(ds, "n_chars", "doc_id", n_buckets=4, seed=9)
    got = {r["doc_id"]: (r["bucket"], r["order_key"])
           for r in out.take_all()}
    want = duckdb.sql(f"""
        WITH q AS (SELECT quantile_disc(n_chars, 0.25) AS b1,
                          quantile_disc(n_chars, 0.50) AS b2,
                          quantile_disc(n_chars, 0.75) AS b3
                   FROM read_parquet('{sf_dir}/documents.parquet'))
        SELECT doc_id,
               CAST((n_chars > q.b1)::int + (n_chars > q.b2)::int
                    + (n_chars > q.b3)::int AS BIGINT) AS bucket
        FROM read_parquet('{sf_dir}/documents.parquet'), q""").fetchall()
    ids = np.asarray([d for d, _ in want], dtype=np.uint64)
    keys = splitmix64(ids, 9).astype(np.int64)
    assert got == {d: (b, k) for (d, b), k in zip(want, keys.tolist())}
    # every tier non-empty at 4 buckets over a spread column
    assert {b for b, _ in got.values()} == {0, 1, 2, 3}


def test_curriculum_order_edges(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import curriculum_order

    t = pa.table({"doc_id": pa.array([1, 2, None, 4], type=pa.int64()),
                  "score": pa.array([1.0, None, 3.0, 4.0])})
    out = curriculum_order(ray.data.from_arrow(t), "score", "doc_id",
                           n_buckets=1)
    rows = out.take_all()
    # null score / null id rows dropped; one bucket -> all zero
    assert sorted(r["doc_id"] for r in rows) == [1, 4]
    assert all(r["bucket"] == 0 for r in rows)
    import pytest as _pytest
    with _pytest.raises(ValueError):
        curriculum_order(ray.data.from_arrow(t), "score", "doc_id",
                         n_buckets=0)


def test_uniform_sample_k_empty_input_keeps_schema(ray_session):
    """An empty (or all-null-id) input must return an empty table WITH
    the input schema, not a zero-column table (callers index columns)."""
    import ray.data

    from plugin_serdes_ray.pipelines.relational import uniform_sample_k

    allnull = pa.table({"doc_id": pa.array([None, None], type=pa.int64()),
                        "text": pa.array(["a", "b"])})
    got = uniform_sample_k(ray.data.from_arrow(allnull), "doc_id", k=5)
    assert got.num_rows == 0
    assert set(got.column_names) == {"doc_id", "text"}
    assert got.schema.field("doc_id").type == pa.int64()

    # a dataset that is empty AT INGESTION loses its schema inside Ray
    # (from_arrow(empty) normalizes to a zero-column block before any
    # UDF runs) — the call must still return cleanly
    t = pa.table({"doc_id": pa.array([], type=pa.int64()),
                  "text": pa.array([], type=pa.string())})
    got2 = uniform_sample_k(ray.data.from_arrow(t), "doc_id", k=5)
    assert got2.num_rows == 0


def test_grouped_aggregate_key_named_sum_suffix(ray_session):
    """A group KEY literally named '<c>_sum' must not be clobbered by the
    partial's aggregate rename (positional rename; same hazard pivot and
    grouped_stats guard against)."""
    import ray.data

    from plugin_serdes_ray.pipelines.relational import grouped_aggregate

    t = pa.table({"revenue_sum": ["a", "a", "b", None],
                  "revenue": [10, 20, 5, 7]})
    out = grouped_aggregate(ray.data.from_arrow(t), ["revenue_sum"],
                            sum_cols=["revenue"]).take_all()
    got = {r["revenue_sum"]: (r["sum_revenue"], r["n"]) for r in out}
    assert got == {"a": (30, 2), "b": (5, 1), None: (7, 1)}

    with pytest.raises(ValueError, match="__"):
        grouped_aggregate(ray.data.from_arrow(
            pa.table({"__s_x": [1], "x": [1]})), ["__s_x"], sum_cols=["x"])


def test_interval_join_null_on_keeps_int64_precision(ray_session):
    """A left row with null `on` must be dropped in pad (inner semantics) —
    keeping it forces the whole group's int64 `on` through float64 in
    to_numpy, rounding values > 2^53 across interval boundaries."""
    import ray.data

    from plugin_serdes_ray.pipelines.relational import interval_join

    base = (1 << 60) + 1  # not representable in float64 (rounds to 2^60)
    left = pa.table({
        "k": ["a", "a", "a"],
        "on": pa.array([base, base + 256, None], type=pa.int64()),
    })
    right = pa.table({
        "k": ["a", "a"],
        "lo": pa.array([base, base + 200], type=pa.int64()),
        "hi": pa.array([base + 100, base + 300], type=pa.int64()),
        "tag": ["first", "second"],
    })
    out = interval_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                        on="on", by="k", lo_col="lo", hi_col="hi").take_all()
    got = {r["on"]: r["tag"] for r in out}
    # float64 would round base -> 2^60 (< lo) and base+256 toward a wrong
    # boundary; exact int64 matches both rows, null-on row is dropped
    assert got == {base: "first", base + 256: "second"}


def test_window_percent_rank_cume_dist_moving_sum_vs_sql(
        orders_ds, sf_dir, ray_session):
    import duckdb

    from plugin_serdes_ray.pipelines.relational import window_functions

    out = window_functions(
        orders_ds.select_columns(["o_custkey", "o_orderkey", "o_totalprice"]),
        by="o_custkey", order_by="o_orderkey",
        specs={"pr": ("percent_rank", "o_totalprice"),
               "cd": ("cume_dist", "o_totalprice"),
               "ms3": ("moving_sum", "o_totalprice", 3)})
    got = pa.Table.from_pylist(out.take_all()).sort_by(
        [("o_custkey", "ascending"), ("o_orderkey", "ascending")])
    want = duckdb.sql(f"""
        SELECT o_custkey, o_orderkey,
               percent_rank() OVER (PARTITION BY o_custkey
                                    ORDER BY o_totalprice) AS pr,
               cume_dist() OVER (PARTITION BY o_custkey
                                 ORDER BY o_totalprice) AS cd,
               sum(o_totalprice) OVER (PARTITION BY o_custkey
                                       ORDER BY o_orderkey
                                       ROWS BETWEEN 2 PRECEDING
                                       AND CURRENT ROW) AS ms3
        FROM read_parquet('{sf_dir}/orders.parquet')
        ORDER BY o_custkey, o_orderkey""").arrow()
    assert got.column("pr").to_pylist() == want.column("pr").to_pylist()
    assert got.column("cd").to_pylist() == want.column("cd").to_pylist()
    # float sum order differs in the last ulp; true sum is a multiple of .01
    g = [None if v is None else round(v, 2)
         for v in got.column("ms3").to_pylist()]
    w = [None if v is None else round(v, 2)
         for v in want.column("ms3").to_pylist()]
    assert g == w


def test_window_moving_sum_null_frames(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import window_functions

    t = pa.table({"k": pa.array([1] * 5, type=pa.int64()),
                  "o": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
                  "v": pa.array([None, None, 3.0, None, 5.0])})
    out = window_functions(ray.data.from_arrow(t), by="k", order_by="o",
                           specs={"ms2": ("moving_sum", "v", 2)})
    rows = sorted(out.take_all(), key=lambda r: r["o"])
    # frames: {n}, {n,n}, {n,3}, {3,n}, {n,5} — all-null frames are NULL
    assert [r["ms2"] for r in rows] == [None, None, 3.0, 3.0, 5.0]


def test_set_op_all_vs_sql(ray_session, sf_dir):
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.relational import set_op

    left = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                 columns=["o_custkey"])
    right = (ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                   columns=["o_custkey", "o_totalprice"])
             .filter(lambda r: r["o_totalprice"] >= 150000.0)
             .select_columns(["o_custkey"]))
    for op, sql_op in [("except_all", "EXCEPT ALL"),
                       ("intersect_all", "INTERSECT ALL")]:
        got = sorted(r["o_custkey"] for r in
                     set_op(left, right, op).take_all())
        want = sorted(r[0] for r in duckdb.sql(f"""
            SELECT o_custkey FROM read_parquet('{sf_dir}/orders.parquet')
            {sql_op}
            SELECT o_custkey FROM read_parquet('{sf_dir}/orders.parquet')
            WHERE o_totalprice >= 150000.0""").fetchall())
        assert got == want, op


def test_set_op_all_multiplicity_arithmetic(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import set_op

    left = ray.data.from_arrow(pa.table(
        {"k": pa.array([1, 1, 1, 2, None, None], type=pa.int64())}))
    right = ray.data.from_arrow(pa.table(
        {"k": pa.array([1, 3, None], type=pa.int64())}))
    ex = sorted((r["k"] is None, r["k"]) for r in
                set_op(left, right, "except_all").take_all())
    # 3x1 - 1x1 = two 1s; 2 unmatched; nulls compare equal: 2 - 1 = one null
    assert [k for _, k in ex] == [1, 1, 2, None]
    it = sorted((r["k"] is None, r["k"]) for r in
                set_op(left, right, "intersect_all").take_all())
    assert [k for _, k in it] == [1, None]


def test_unpivot_matches_union(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import unpivot

    t = pa.table({"id": pa.array([1, 2], type=pa.int64()),
                  "a": pa.array([10.5, None]),
                  "b": pa.array([3, 4], type=pa.int64())})
    out = unpivot(ray.data.from_arrow(t), ["id"], ["a", "b"]).take_all()
    rows = sorted((r["id"], r["name"], r["value"]) for r in out)
    # numeric mix promotes to float64, nulls survive
    assert rows == [(1, "a", 10.5), (1, "b", 3.0),
                    (2, "a", None), (2, "b", 4.0)]


def test_unpivot_rejects_incompatible_types(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import unpivot

    t = pa.table({"id": [1], "a": [1.0], "b": ["x"]})
    with pytest.raises(ValueError, match="incompatible"):
        unpivot(ray.data.from_arrow(t), ["id"], ["a", "b"])


def test_grouped_mode_vs_sql(ray_session, sf_dir):
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.relational import grouped_mode

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source", "lang"])
    docs = docs.filter(lambda r: r["source"] is not None)
    got = sorted((r["source"], r["lang"], r["n"]) for r in
                 grouped_mode(docs, "source", "lang").take_all())
    want = sorted((r[0], r[1], r[2]) for r in duckdb.sql(f"""
        SELECT source, lang, n FROM (
            SELECT source, lang, count(*) AS n,
                   row_number() OVER (PARTITION BY source
                                      ORDER BY count(*) DESC, lang ASC) rn
            FROM read_parquet('{sf_dir}/documents.parquet')
            WHERE lang IS NOT NULL AND source IS NOT NULL
            GROUP BY source, lang) WHERE rn = 1""").fetchall())
    assert got == want


def test_cross_join_vs_sql(ray_session, sf_dir):
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.relational import cross_join

    import pyarrow.parquet as pq
    region = ray.data.read_parquet(f"{sf_dir}/region.parquet")
    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    got = sorted((r["r_regionkey"], r["n_nationkey"]) for r in
                 cross_join(region, nation).take_all())
    want = sorted((r[0], r[1]) for r in duckdb.sql(f"""
        SELECT r_regionkey, n_nationkey
        FROM read_parquet('{sf_dir}/region.parquet') r
        CROSS JOIN read_parquet('{sf_dir}/nation.parquet') n""").fetchall())
    assert got == want


def test_cross_join_refuses_big_small_side(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import cross_join

    big = pa.table({"x": pa.array(range(1000), type=pa.int64())})
    with pytest.raises(ValueError, match="max_small_rows"):
        cross_join(ray.data.from_arrow(big), big, max_small_rows=10)


def test_cross_join_collision_raises(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import cross_join

    left = ray.data.from_arrow(pa.table({"x": [1]}))
    with pytest.raises(Exception, match="collision"):
        cross_join(left, pa.table({"x": [2]})).take_all()


def test_funnel_within_duration_timestamps(ray_session):
    import datetime as dt

    import ray.data

    from plugin_serdes_ray.pipelines.relational import funnel

    t0 = dt.datetime(2024, 1, 1)
    m = dt.timedelta(minutes=1)
    t = pa.table({
        "u": pa.array([1, 1, 1, 2, 2, 2], type=pa.int64()),
        "ts": pa.array([t0, t0 + 5 * m, t0 + 20 * m,
                        t0, t0 + 90 * m, t0 + 95 * m],
                       type=pa.timestamp("us")),
        "ev": pa.array(["a", "b", "c", "a", "b", "c"]),
    })
    ds = ray.data.from_arrow(t)
    # unwindowed: both users convert fully
    full = funnel(ds, "u", "ts", "ev", ["a", "b", "c"])
    assert full.column("n_users").to_pylist() == [2, 2, 2]
    # 30m window anchored at each user's step-1: user 2's b/c fall outside
    w = funnel(ds, "u", "ts", "ev", ["a", "b", "c"], within="30m")
    assert w.column("n_users").to_pylist() == [2, 1, 1]


def test_funnel_empty_step_zeroes_tail(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import funnel

    t = pa.table({
        "u": pa.array([1, 2], type=pa.int64()),
        "ts": pa.array([1, 2], type=pa.int64()),
        "ev": pa.array(["a", "a"]),
    })
    out = funnel(ray.data.from_arrow(t), "u", "ts", "ev",
                 ["a", "never", "a"])
    assert out.column("n_users").to_pylist() == [2, 0, 0]


def test_interval_join_exact_int64_boundaries(ray_session):
    """Review r4: the union-padding nulls (right rows' `on`, left rows'
    lo/hi) forced ALL THREE key arrays through float64 regardless of
    pad()'s own null filters; values straddling a 2^53 rounding boundary
    produced spurious matches. Each side's subset must convert exactly."""
    import ray.data

    from plugin_serdes_ray.pipelines.relational import interval_join

    b = 1 << 53
    left = pa.table({"k": ["a"], "on": pa.array([b], type=pa.int64())})
    right = pa.table({
        "k": ["a"],
        "lo": pa.array([b + 1], type=pa.int64()),   # rounds DOWN to b in f64
        "hi": pa.array([b + 2], type=pa.int64()),
        "tag": ["spurious"],
    })
    out = interval_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                        on="on", by="k", lo_col="lo", hi_col="hi").take_all()
    assert out == []          # b is OUTSIDE [b+1, b+2]


def test_tumbling_window_drops_null_timestamps(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import tumbling_window_aggregate

    t = pa.table({
        "ts": pa.array([1_000_000, None, 3_600_000_000 + 5],
                       type=pa.timestamp("us")),
        "v": pa.array([1.0, 2.0, 3.0]),
    })
    out = tumbling_window_aggregate(ray.data.from_arrow(t), "ts",
                                    window="1h", sum_cols=["v"]).take_all()
    got = {r["window_start"].timestamp(): r["sum_v"] for r in out}
    assert got == {0.0: 1.0, 3600.0: 3.0}      # the null-ts row is dropped


def test_global_shuffle_rejects_null_ids(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import global_shuffle

    t = pa.table({"id": pa.array([1, None, 3], type=pa.int64())})
    with pytest.raises(Exception, match="null"):
        global_shuffle(ray.data.from_arrow(t), "id").take_all()


def test_exact_quantiles_exact_beyond_2_53(ray_session):
    """Review r4: the collect pass cast values to float64, collapsing
    distinct int64 values > 2^53 and breaking the EXACT guarantee."""
    import ray.data

    from plugin_serdes_ray.pipelines.relational import exact_quantiles

    b = (1 << 60)
    vals = [b + i for i in range(1, 102)]      # 101 adjacent huge ints
    ds = ray.data.from_arrow(pa.table({"x": pa.array(vals, pa.int64())}))
    out = exact_quantiles(ds, "x", [0.5])
    assert out[0.5] == b + 51                  # exact median, not rounded


def test_bloom_semi_join_rejects_tiny_bits(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import bloom_semi_join

    t = ray.data.from_arrow(pa.table({"k": pa.array([1], pa.int64())}))
    with pytest.raises(ValueError, match=">= 64"):
        bloom_semi_join(t, t, "k", bits=32)


def test_weighted_sample_k_reference_and_bias(ray_session):
    import numpy as np
    import ray.data

    from plugin_serdes_ray.pipelines.relational import (splitmix64,
                                                        weighted_sample_k)

    ids = list(range(400))
    # two weight tiers: rows 0..49 weigh 50x the rest
    w = [50.0 if i < 50 else 1.0 for i in ids]
    t = pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                  "w": pa.array(w, type=pa.float64())})
    ds = ray.data.from_arrow(t).repartition(7)
    got = weighted_sample_k(ds, "doc_id", "w", k=30, seed=3)
    assert got.num_rows == 30
    # exact A-ES reference: smallest -ln(u)/w
    u = (splitmix64(np.asarray(ids, dtype=np.uint64), 3)
         .astype(np.float64) + 0.5) / 2.0 ** 64
    keys = -np.log(u) / np.asarray(w)
    want = {ids[i] for i in np.argsort(keys)[:30]}
    assert set(got.column("doc_id").to_pylist()) == want
    # the heavy tier (12.5% of rows, ~86% of mass) must dominate the draw
    heavy = sum(1 for d in got.column("doc_id").to_pylist() if d < 50)
    assert heavy >= 20
    # reproducible; new seed differs
    again = weighted_sample_k(ds, "doc_id", "w", k=30, seed=3)
    assert sorted(again.column("doc_id").to_pylist()) == \
        sorted(got.column("doc_id").to_pylist())
    other = weighted_sample_k(ds, "doc_id", "w", k=30, seed=4)
    assert set(other.column("doc_id").to_pylist()) != want


def test_weighted_sample_k_drops_invalid_weights(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import weighted_sample_k

    t = pa.table({"doc_id": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
                  "w": pa.array([1.0, 0.0, -2.0, None, 3.0],
                                type=pa.float64())})
    got = weighted_sample_k(ray.data.from_arrow(t), "doc_id", "w", k=10,
                            seed=0)
    # zero / negative / null weights are ineligible; k caps at survivors
    assert sorted(got.column("doc_id").to_pylist()) == [1, 5]


def test_retention_cohorts_reference(ray_session):
    import datetime as dt

    import ray.data

    from plugin_serdes_ray.pipelines.relational import retention_cohorts

    base = dt.datetime(2024, 1, 1)
    rows = []
    # user 1 active days 0,1,3; user 2 days 0,1; user 3 day 1 only —
    # with duplicate events inside each period (must count once)
    for u, days in [(1, [0, 1, 3]), (2, [0, 1]), (3, [1])]:
        for d in days:
            rows.append((u, base + dt.timedelta(days=d, minutes=u)))
            rows.append((u, base + dt.timedelta(days=d, minutes=u + 5)))
    rows.append((4, None))        # null ts ignored
    rows.append((None, base))     # null user ignored
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "ts": pa.array([r[1] for r in rows], type=pa.timestamp("us"))})
    out = retention_cohorts(
        ray.data.from_arrow(t).repartition(3)).take_all()
    got = {(r["cohort"], r["offset"]): r["n_users"] for r in out}
    c0 = (base - dt.datetime(1970, 1, 1)).days
    assert got == {(c0, 0): 2, (c0, 1): 2, (c0, 3): 1, (c0 + 1, 0): 1}

    # unit-invariance: timestamp[ns] (the pandas/pyarrow writer default)
    # must bucket identically to timestamp[us], not 1000x off
    t_ns = t.set_column(1, "ts", t.column("ts").cast(pa.timestamp("ns")))
    out_ns = retention_cohorts(
        ray.data.from_arrow(t_ns).repartition(3)).take_all()
    assert {(r["cohort"], r["offset"]): r["n_users"]
            for r in out_ns} == got

    # pre-epoch timestamps are rejected loudly (floor vs the SQL twin's
    # truncate-toward-zero would silently bucket them differently)
    import pytest
    t_pre = pa.table({
        "user_id": pa.array([1], type=pa.int64()),
        "ts": pa.array([dt.datetime(1969, 12, 31, 12)],
                       type=pa.timestamp("us"))})
    with pytest.raises(Exception, match="pre-epoch"):
        retention_cohorts(ray.data.from_arrow(t_pre)).take_all()


def test_grouped_count_distinct_and_hll(ray_session):
    import numpy as np
    import ray.data

    from plugin_serdes_ray.pipelines.relational import grouped_count_distinct
    from plugin_serdes_ray.pipelines.sketch import grouped_approx_distinct

    rng = np.random.RandomState(7)
    keys, vals = [], []
    # per-key distinct cardinalities: a=300, b=40, c=1; nulls ignored
    for k, card, reps in [("a", 300, 3), ("b", 40, 10), ("c", 1, 50)]:
        for i in range(card):
            for _ in range(reps):
                keys.append(k)
                vals.append(f"{k}-v{i}")
    keys += ["a", None, "a", "z", "z"]
    vals += [None, "x", "a-v0", None, None]  # null value / null key rows;
    # key "z" has ONLY null values -> documented: emits NO row (SQL
    # would emit (z, 0); oracles mirror with AND col IS NOT NULL)
    order = rng.permutation(len(keys))
    t = pa.table({
        "k": pa.array([keys[i] for i in order], type=pa.string()),
        "v": pa.array([vals[i] for i in order], type=pa.string())})
    ds = ray.data.from_arrow(t).repartition(9)

    exact = {r["k"]: r["n_distinct"]
             for r in grouped_count_distinct(ds, "k", "v").take_all()}
    assert exact == {"a": 300, "b": 40, "c": 1}

    approx = {r["k"]: r["approx_distinct"]
              for r in grouped_approx_distinct(ds, "k", "v",
                                               p=12).take_all()}
    assert set(approx) == {"a", "b", "c"}
    for k, n in exact.items():
        assert abs(approx[k] - n) <= max(2.0, 0.1 * n), (k, approx[k], n)

    # partition-layout invariance: registers merge to the same banks
    approx1 = {r["k"]: r["approx_distinct"]
               for r in grouped_approx_distinct(
                   ray.data.from_arrow(t).repartition(2), "k", "v",
                   p=12).take_all()}
    assert approx1 == approx


def test_resample_timeseries_fill_modes(ray_session):
    import datetime as dt

    import ray.data

    from plugin_serdes_ray.pipelines.relational import resample_timeseries

    base = dt.datetime(2024, 1, 1)
    mk = lambda m: base + dt.timedelta(minutes=m)
    # key 'a': buckets 0 and 3 active (1,2 are gaps); bucket 3's values
    # are ALL NULL (sum must be NULL, not 0, and ffill must carry bucket
    # 0's sum over it in both systems). key 'b': single bucket.
    t = pa.table({
        "k": pa.array(["a", "a", "a", "a", "b", None, "a"]),
        "ts": pa.array([mk(0), mk(5), mk(45), mk(47), mk(20), mk(0), None],
                       type=pa.timestamp("us")),
        "v": pa.array([1.0, 2.0, None, None, 7.5, 9.9, 4.0],
                      type=pa.float64())})
    ds = ray.data.from_arrow(t).repartition(3)

    def run(fill, align="per_key"):
        out = resample_timeseries(ds, "k", "ts", every="15m",
                                  sum_cols=["v"], fill=fill,
                                  align=align).take_all()
        return {(r["k"], r["bucket_start"]): (r["sum_v"], r["n"])
                for r in out}

    got = run("null")
    assert got == {
        ("a", mk(0)): (3.0, 2), ("a", mk(15)): (None, 0),
        ("a", mk(30)): (None, 0), ("a", mk(45)): (None, 2),
        ("b", mk(15)): (7.5, 1)}
    assert run("zero")[("a", mk(15))] == (0.0, 0)
    assert run("zero")[("a", mk(45))] == (0.0, 2)
    ff = run("ffill")
    # gaps AND the all-null active bucket carry the last non-null sum
    assert ff[("a", mk(15))] == (3.0, 0)
    assert ff[("a", mk(45))] == (3.0, 2)
    assert len(run("null", align="global")) == 8
    # no row survives (null keys only) under a global grid: zero rows,
    # still the schema (the aggregate itself has none)
    empty = resample_timeseries(ray.data.from_arrow(t.slice(5, 1)), "k",
                                "ts", sum_cols=["v"], fill="interp",
                                align="global")
    assert empty.count() == 0
    assert empty.schema().base_schema == pa.schema([
        ("k", pa.string()), ("bucket_start", pa.timestamp("us")),
        ("sum_v", pa.float64()), ("n", pa.int64())])

    # integer sums keep an integer dtype through the dense grid
    t2 = pa.table({"k": ["x", "x"],
                   "ts": pa.array([mk(0), mk(31)], type=pa.timestamp("us")),
                   "c": pa.array([5, 7], type=pa.int64())})
    out2 = resample_timeseries(ray.data.from_arrow(t2), "k", "ts",
                               every="15m", sum_cols=["c"],
                               fill="zero").take_all()
    vals = {r["bucket_start"]: r["sum_c"] for r in out2}
    assert vals == {mk(0): 5, mk(15): 0, mk(30): 7}
    assert all(isinstance(v, int) for v in vals.values())

    # interp: gaps strictly between valid points get the line value
    # (float64 out); leading/trailing gaps and the all-null active
    # bucket interpolate too (it is a null sum like any gap)
    it = pa.table({"k": ["c"] * 3,
                   "ts": pa.array([mk(0), mk(45), mk(60)],
                                  type=pa.timestamp("us")),
                   "v": pa.array([3.0, None, 9.0], type=pa.float64())})
    oi = resample_timeseries(ray.data.from_arrow(it), "k", "ts",
                             every="15m", sum_cols=["v"],
                             fill="interp").take_all()
    vi = {r["bucket_start"]: r["sum_v"] for r in oi}
    # valid points: 0m=3.0 and 60m=9.0 -> linear 1.5/bucket; the 45m
    # bucket is active but null-summed, so it interpolates like a gap
    assert vi == {mk(0): 3.0, mk(15): 4.5, mk(30): 6.0,
                  mk(45): 7.5, mk(60): 9.0}

    # int64 sums above 2^53 with a NULL bucket in the same key must not
    # round-trip through float64 (review r4)
    big = (1 << 53) + 1
    t3 = pa.table({"k": ["y", "y"],
                   "ts": pa.array([mk(0), mk(16)],
                                  type=pa.timestamp("us")),
                   "c": pa.array([big, None], type=pa.int64())})
    out3 = resample_timeseries(ray.data.from_arrow(t3), "k", "ts",
                               every="15m", sum_cols=["c"]).take_all()
    v3 = {r["bucket_start"]: r["sum_c"] for r in out3}
    assert v3 == {mk(0): big, mk(15): None}

    import pytest
    t_pre = pa.table({"k": ["a"],
                      "ts": pa.array([dt.datetime(1969, 6, 1)],
                                     type=pa.timestamp("us")),
                      "v": [1.0]})
    with pytest.raises(Exception, match="pre-epoch"):
        resample_timeseries(ray.data.from_arrow(t_pre), "k", "ts",
                            sum_cols=["v"]).take_all()


def test_profile_reference(ray_session):
    import math

    import ray.data

    from plugin_serdes_ray.pipelines.profile import profile

    t = pa.table({
        "x": pa.array([1.0, 2.0, None, 4.0], type=pa.float64()),
        "s": pa.array(["bb", None, "a", "ccc"]),
        "ts": pa.array([1_000_000, None, 3_000_000, 2_000_000],
                       type=pa.timestamp("us")),
        "b": pa.array([b"z", b"y", b"x", b"w"], type=pa.binary())})
    out = profile(ray.data.from_arrow(t).repartition(3))
    got = {(r["column"], r["stat"]): (r["value_num"], r["value_str"])
           for r in out.to_pylist()}
    assert got[("x", "n")] == (3.0, None)
    assert got[("x", "nulls")] == (1.0, None)
    assert got[("x", "min")] == (1.0, None)
    assert got[("x", "max")] == (4.0, None)
    assert got[("x", "mean")][0] == round(7.0 / 3, 9)
    want_std = math.sqrt((21.0 - 49.0 / 3) / 2)
    assert abs(got[("x", "std")][0] - want_std) < 1e-9
    assert got[("s", "min")] == (None, "a")
    assert got[("s", "max")] == (None, "ccc")
    assert got[("s", "min_len")] == (1.0, None)
    assert got[("s", "max_len")] == (3.0, None)
    assert got[("ts", "min")] == (1_000_000.0, None)
    assert got[("ts", "max")] == (3_000_000.0, None)
    # binary: n/nulls only
    assert got[("b", "n")] == (4.0, None)
    assert ("b", "min") not in got
    # single-value column: std is NULL, not a crash
    one = profile(ray.data.from_arrow(pa.table({
        "v": pa.array([5.0], type=pa.float64())})))
    g1 = {(r["column"], r["stat"]): r["value_num"]
          for r in one.to_pylist()}
    assert g1[("v", "std")] is None and g1[("v", "mean")] == 5.0


def test_robust_anomalies_reference(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import robust_anomalies

    # key 'a': median 10, MAD 1 -> 100 is anomalous at threshold 3;
    # key 'b': constant values -> MAD 0 -> ANY deviation flags; null
    # value -> null flag
    t = pa.table({
        "k": ["a"] * 5 + ["b"] * 4,
        "x": pa.array([9.0, 10.0, 11.0, 100.0, 10.0,
                       5.0, 5.0, 5.0, 6.0], type=pa.float64())})
    out = robust_anomalies(
        ray.data.from_arrow(t).repartition(3), "k", "x").take_all()
    flags = sorted((r["k"], r["x"], r["is_anomaly"]) for r in out)
    assert ("a", 100.0, True) in flags
    assert ("a", 10.0, False) in flags and ("a", 9.0, False) in flags
    assert ("b", 6.0, True) in flags and ("b", 5.0, False) in flags
    byrow = {(r["k"], r["x"]): (r["abs_dev"], r["mad"]) for r in out}
    assert byrow[("a", 100.0)] == (90.0, 1.0)
    assert byrow[("b", 5.0)] == (0.0, 0.0)

    tn = pa.table({"k": ["a", "a", "a", None],
                   "x": pa.array([1.0, None, 2.0, 9.0],
                                 type=pa.float64())})
    outn = robust_anomalies(ray.data.from_arrow(tn), "k", "x").take_all()
    assert any(r["x"] is None and r["is_anomaly"] is None for r in outn)
    # null keys dropped up front (string-key groupby-sort hazard)
    assert len(outn) == 3 and all(r["k"] == "a" for r in outn)

    # empty input returns an empty typed result, not a schema crash
    te = pa.table({"k": pa.array([], type=pa.string()),
                   "x": pa.array([], type=pa.float64())})
    assert robust_anomalies(
        ray.data.from_arrow(te), "k", "x").take_all() == []


def test_resample_global_alignment(ray_session):
    import datetime as dt

    import ray.data

    from plugin_serdes_ray.pipelines.relational import resample_timeseries

    base = dt.datetime(2024, 1, 1)
    mk = lambda m: base + dt.timedelta(minutes=m)
    # key 'a' active 0-15m, key 'b' active 45-60m: per_key grids don't
    # overlap; global aligns both to [0m, 60m] (5 buckets each)
    t = pa.table({
        "k": ["a", "a", "b", "b"],
        "ts": pa.array([mk(0), mk(15), mk(45), mk(60)],
                       type=pa.timestamp("us")),
        "v": pa.array([1.0, 2.0, 3.0, 4.0], type=pa.float64())})
    ds = ray.data.from_arrow(t).repartition(2)
    per = resample_timeseries(ds, "k", "ts", every="15m",
                              sum_cols=["v"]).take_all()
    assert sum(1 for r in per if r["k"] == "a") == 2
    glob = resample_timeseries(ds, "k", "ts", every="15m",
                               sum_cols=["v"], fill="zero",
                               align="global").take_all()
    ga = {r["bucket_start"]: r["sum_v"] for r in glob if r["k"] == "a"}
    gb = {r["bucket_start"]: r["sum_v"] for r in glob if r["k"] == "b"}
    assert set(ga) == set(gb) == {mk(15 * i) for i in range(5)}
    assert ga[mk(0)] == 1.0 and ga[mk(60)] == 0.0
    assert gb[mk(0)] == 0.0 and gb[mk(45)] == 3.0

    import pytest
    with pytest.raises(ValueError, match="unknown align"):
        resample_timeseries(ds, "k", "ts", align="both")


def test_rolling_aggregate_reference(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import rolling_aggregate

    t = pa.table({
        "k": ["a"] * 5 + ["b"] * 2,
        "o": pa.array([1, 2, 3, 4, 5, 1, 2], type=pa.int64()),
        "v": pa.array([10.0, None, 30.0, None, None, 7.0, 9.0],
                      type=pa.float64())})
    out = rolling_aggregate(ray.data.from_arrow(t).repartition(3),
                            "k", "o", "v", window=3).take_all()
    got = {(r["k"], r["o"]): r["rolling_mean_v"] for r in out}
    # trailing 3-row windows with SQL null skipping
    assert got[("a", 1)] == 10.0
    assert got[("a", 2)] == 10.0        # {10, null}
    assert got[("a", 3)] == 20.0        # {10, null, 30}
    assert got[("a", 4)] == 30.0        # {null, 30, null}
    assert got[("a", 5)] == 30.0        # {30, null, null}
    assert got[("b", 2)] == 8.0

    s = rolling_aggregate(ray.data.from_arrow(t), "k", "o", "v",
                          window=2, agg="sum").take_all()
    gs = {(r["k"], r["o"]): r["rolling_sum_v"] for r in s}
    # window=2 at o=3: {null, 30} -> 30; at o=5: {null, null} -> NULL
    assert gs[("a", 3)] == 30.0 and gs[("a", 5)] is None


def test_zorder_sort_matches_reference_and_prunes(ray_session):
    """Rank order must equal a pure-python Morton reference; chopping the
    z-ordered stream into chunks gives 2-D zone-map ranges that prune a
    box predicate far better than a 1-D sort's."""
    import numpy as np
    import ray.data

    from plugin_serdes_ray.pipelines.relational import zorder_sort

    rng = np.random.default_rng(3)
    n = 2048
    t = pa.table({"id": np.arange(n),
                  "x": rng.integers(0, 1000, n),
                  "y": rng.integers(0, 1000, n)})
    ds = ray.data.from_arrow(t).repartition(4)
    got = sorted(zorder_sort(ds, ["x", "y"], "id", bits=8,
                             rank_col="rank").take_all(),
                 key=lambda r: r["rank"])
    assert [r["rank"] for r in got] == list(range(n))

    xs = t.column("x").to_numpy()
    ys = t.column("y").to_numpy()
    mnx, mxx, mny, mxy = xs.min(), xs.max(), ys.min(), ys.max()
    qx = (xs - mnx) * 255 // (mxx - mnx)
    qy = (ys - mny) * 255 // (mxy - mny)
    z = np.zeros(n, dtype=np.int64)
    for i in range(8):
        z |= ((qx >> i) & 1) << (2 * i)
        z |= ((qy >> i) & 1) << (2 * i + 1)
    order = np.lexsort((np.arange(n), z))
    assert [r["id"] for r in got] == list(np.arange(n)[order])

    def chunks_hit(seq_y, n_chunks=32):
        # predicate on the SECOND dimension only (y in [100,200]): an
        # x-sorted layout leaves y unsorted so ~every chunk may match;
        # the z-ordered layout bounds y per chunk too
        hits = 0
        for c in np.array_split(np.arange(n), n_chunks):
            cy = seq_y[c]
            if cy.min() <= 200 and cy.max() >= 100:
                hits += 1
        return hits

    zy = np.array([r["y"] for r in got])
    o1 = np.argsort(xs, kind="stable")
    assert chunks_hit(zy) < chunks_hit(ys[o1]) / 2


def test_zorder_key_guards_and_nulls(ray_session):
    import pytest
    import ray.data

    from plugin_serdes_ray.pipelines.relational import (zorder_key,
                                                        zorder_sort)

    ds = ray.data.from_arrow(pa.table({
        "id": [1, 2, 3], "x": [5, None, 9], "y": [7, 7, 7]}))
    with pytest.raises(ValueError, match="62-bit"):
        zorder_key(ds, ["x", "y", "id", "id"], bits=16)
    # NULL x -> column min -> bucket 0; constant y -> bucket 0 for all
    rows = sorted(zorder_sort(ds, ["x", "y"], "id").take_all(),
                  key=lambda r: r["id"])
    assert [r["id"] for r in rows] == [1, 2, 3]


def test_grouped_linreg_matches_duckdb_regr(ray_session):
    """OLS per group vs DuckDB regr_* — incl. a null-riddled group, a
    constant-x group (slope/intercept/r2 all NULL), a constant-y group
    (r2 = 1.0), and a single-row group (var_pop(x)=0 -> NULL)."""
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.relational import grouped_linreg

    k = ["a"] * 6 + ["b"] * 4 + ["c"] * 3 + ["d"] + ["e"] * 3
    x = [1.0, 2.0, 3.0, None, 5.0, 6.0,      # a: nulls in x
         7.0, 7.0, 7.0, 7.0,                 # b: constant x
         1.0, 2.0, 3.0,                      # c: constant y
         4.0,                                # d: single row
         1.0, 2.0, None]                     # e
    y = [2.0, 3.9, 6.1, 8.0, None, 12.2,     # a: nulls in y too
         1.0, 2.0, 3.0, 4.0,
         5.0, 5.0, 5.0,
         9.0,
         3.0, None, 4.0]
    t = pa.table({"k": pa.array(k), "x": pa.array(x, type=pa.float64()),
                  "y": pa.array(y, type=pa.float64())})
    ds = ray.data.from_arrow(t).repartition(4)
    got = {r["k"]: r for r in grouped_linreg(ds, "k", "x", "y").take_all()}
    con = duckdb.connect()
    con.register("t", t)
    want = con.sql("""
        SELECT k, regr_count(y, x)::BIGINT AS n, regr_slope(y, x) AS slope,
               regr_intercept(y, x) AS intercept, regr_r2(y, x) AS r2
        FROM t GROUP BY k ORDER BY k""").fetchall()
    assert len(got) == len(want)
    for kk, n, slope, intercept, r2 in want:
        g = got[kk]
        assert g["n"] == n, kk
        for name, w in (("slope", slope), ("intercept", intercept),
                        ("r2", r2)):
            if w is None:
                assert g[name] is None, (kk, name, g[name])
            else:
                assert g[name] == pytest.approx(w, abs=1e-12), (kk, name)


def test_winsorize_clamps_and_propagates_nulls(ray_session):
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.relational import winsorize

    vals = [float(v) for v in range(1, 101)] + [None, 1000.0, -50.0]
    t = pa.table({"x": pa.array(vals, type=pa.float64())})
    ds = ray.data.from_arrow(t).repartition(4)
    got = sorted((v for v in (r["x_wins"] for r in
                              winsorize(ds, "x", 0.10, 0.90).take_all())
                  if v is not None))
    con = duckdb.connect()
    con.register("t", t)
    want = sorted(r[0] for r in con.sql("""
        SELECT least(greatest(x, quantile_disc(x, 0.10) OVER ()),
                     quantile_disc(x, 0.90) OVER ()) FROM t
        WHERE x IS NOT NULL""").fetchall())
    assert got == want
    nulls = [r["x_wins"] for r in winsorize(ds, "x").take_all()
             if r["x_wins"] is None]
    assert len(nulls) == 1          # the null row stays null
    import pytest as _pt
    with _pt.raises(ValueError):
        winsorize(ds, "x", 0.9, 0.1)


def _ema_ref(xs, alpha):
    out, state = [], None
    for v in xs:
        if v is None:
            out.append(None)
            continue
        state = v if state is None else alpha * v + (1 - alpha) * state
        out.append(state)
    return out


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 1.0])
def test_ema_matches_recursive_reference(ray_session, alpha):
    """Segmented renormalized scan == the plain recursion, incl. null
    skipping, several keys, and a series long enough to span many
    segments at high alpha (seg_len ~ 30 at alpha=0.9)."""
    import ray.data

    rng = np.random.default_rng(13)
    n = 500
    keys, orders, vals = [], [], []
    for k in ("a", "b"):
        xs = rng.normal(size=n) * 10.0
        xs_list = [None if rng.random() < 0.1 else float(v) for v in xs]
        keys += [k] * n
        orders += list(range(n))
        vals += xs_list
    t = pa.table({"k": pa.array(keys), "o": pa.array(orders,
                                                     type=pa.int64()),
                  "x": pa.array(vals, type=pa.float64())})
    from plugin_serdes_ray.pipelines.relational import ema

    ds = ray.data.from_arrow(t).repartition(6)
    got = {}
    for r in ema(ds, "k", "o", "x", alpha).take_all():
        got[(r["k"], r["o"])] = r["ema_x"]
    for k in ("a", "b"):
        xs = [vals[(0 if k == "a" else n) + i] for i in range(n)]
        want = _ema_ref(xs, alpha)
        for i, w in enumerate(want):
            g = got[(k, i)]
            if w is None:
                assert g is None, (k, i)
            else:
                assert g == pytest.approx(w, rel=1e-9, abs=1e-12), (k, i)


def test_ema_guards():
    from plugin_serdes_ray.pipelines.relational import ema

    with pytest.raises(ValueError):
        ema(None, "k", "o", "x", 0.0)
    with pytest.raises(ValueError):
        ema(None, "k", "o", "x", 1.5)


def test_misra_gries_guarantees_hold_zipf(ray_session):
    """MG theorem on zipf data across many partitions: est never exceeds
    true, deficit <= n/(k+1), every value with true > n/(k+1) retained."""
    import ray.data

    from plugin_serdes_ray.pipelines.sketch import misra_gries

    rng = np.random.default_rng(19)
    vals = [f"w{z}" for z in rng.zipf(1.3, size=20000) if z < 5000]
    t = pa.table({"w": pa.array(vals + [None] * 50)})
    ds = ray.data.from_arrow(t).repartition(16)
    res = misra_gries(ds, "w", k=12)
    assert res["n"] == len(vals)
    from collections import Counter

    true = Counter(vals)
    slack = res["n"] / (12 + 1)
    for v, est in res["counters"].items():
        assert 0 <= true[v] - est <= slack, v
    for v, c in true.items():
        if c > slack:
            assert v in res["counters"], (v, c, slack)


def test_misra_gries_exact_when_k_covers_distinct(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.sketch import misra_gries

    t = pa.table({"x": pa.array(["a"] * 5 + ["b"] * 3 + ["c"] * 2)})
    res = misra_gries(ray.data.from_arrow(t).repartition(3), "x", k=3)
    assert res["counters"] == {"a": 5, "b": 3, "c": 2}


def test_explode_matches_duckdb_unnest(ray_session):
    import duckdb
    import ray.data

    from plugin_serdes_ray.pipelines.relational import explode

    t = pa.table({
        "id": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
        "xs": pa.array([[10, 20], [], None, [30], [40, 50, 60]],
                       type=pa.list_(pa.int64()))})
    ds = ray.data.from_arrow(t).repartition(3)
    got = sorted((r["id"], r["pos"], r["xs"])
                 for r in explode(ds, "xs", pos_col="pos").take_all())
    con = duckdb.connect()
    con.register("t", t)
    want = sorted(tuple(r) for r in con.sql("""
        SELECT id, CAST(generate_subscripts(xs, 1) - 1 AS BIGINT),
               unnest(xs) FROM t""").fetchall())
    assert got == want
    # keep_empty: empty/null lists keep one null-element row
    ke = sorted(((r["id"], r["pos"], r["xs"]) for r in
                 explode(ds, "xs", pos_col="pos",
                         keep_empty=True).take_all()),
                key=lambda x: (x[0], x[1] if x[1] is not None else -1))
    assert (2, None, None) in ke and (3, None, None) in ke
    assert len(ke) == len(want) + 2
    # rename without position
    rn = explode(ds, "xs", value_name="x").take_all()
    assert {r["x"] for r in rn if r["x"] is not None} == \
        {10, 20, 30, 40, 50, 60}


def test_explode_all_empty_block(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import explode

    t = pa.table({"id": pa.array([1, 2], type=pa.int64()),
                  "xs": pa.array([[], None], type=pa.list_(pa.int64()))})
    ds = ray.data.from_arrow(t)
    assert explode(ds, "xs").count() == 0
    rows = explode(ds, "xs", keep_empty=True, pos_col="p").take_all()
    assert sorted(r["id"] for r in rows) == [1, 2]
    assert all(r["xs"] is None and r["p"] is None for r in rows)


def test_asof_join_tolerance(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.relational import asof_join

    left = ray.data.from_arrow(pa.table({
        "id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "k": pa.array(["a"] * 4),
        "t": pa.array([100, 200, 300, 400], type=pa.int64())}))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array(["a"] * 2),
        "t": pa.array([90, 250], type=pa.int64()),
        "v": pa.array([1.0, 2.0], type=pa.float64())}))
    # tolerance 50: id1 matches 90 (age 10), id2 no (age 110), id3
    # matches 250 (age 50 == bound, inclusive), id4 no (age 150)
    got = {r["id"]: r["v"] for r in asof_join(
        left, right, on="t", by="k", right_cols=["v"], join_type="left",
        tolerance=50).take_all()}
    assert got == {1: 1.0, 2: None, 3: 2.0, 4: None}
    inner = sorted(r["id"] for r in asof_join(
        left, right, on="t", by="k", right_cols=["v"],
        tolerance=50).take_all())
    assert inner == [1, 3]
    with pytest.raises(ValueError):
        asof_join(left, right, on="t", by="k", tolerance=-1)


def test_key_skew_report_hot_key_and_nulls(ray_session):
    import ray.data

    from plugin_serdes_ray.pipelines.profile import key_skew_report

    t = pa.table({"k": pa.array(["hot"] * 80 + ["a"] * 10 + ["b"] * 10
                                + [None] * 5)})
    out = key_skew_report(ray.data.from_arrow(t).repartition(4), "k",
                          top=2)
    rows = {(r["stat"], r["key"]): r["v"] for r in out.to_pylist()}
    assert rows[("top", "hot")] == 80.0
    assert rows[("frac", "hot")] == 0.8
    assert rows[("summary", "n_rows")] == 100.0     # nulls excluded
    assert rows[("summary", "n_distinct")] == 3.0
    assert rows[("summary", "skew_ratio")] == round(80 / (100 / 3), 9)
    assert ("top", "b") not in rows                 # top=2 cut, tie by key
    assert ("top", "a") in rows
