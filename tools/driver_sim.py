"""Local simulation of the driver's correctness gate.

Runs each named query from ``__ray_entry__.queries()`` side by side with its
``oracle_sql()`` DuckDB statement over the same sf dir and compares row
count, schema (column names sorted) and values (rows sorted, column order
normalised) — the same shape of check CORRECTNESS_r{N}.json records.

Usage: python tools/driver_sim.py [--sf /root/testdata/sf0.01] [names...]
(no names = every query that has an oracle entry).
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_table(res):
    import pandas as pd
    import pyarrow as pa

    if isinstance(res, pa.Table):
        return res
    if isinstance(res, pd.DataFrame):
        return pa.Table.from_pandas(res, preserve_index=False)
    return pa.Table.from_pylist(res.take_all())  # ray Dataset


def normalise(t):
    import pyarrow as pa

    t = t.select(sorted(t.column_names))
    if t.num_rows:
        t = t.sort_by([(c, "ascending") for c in t.column_names])
    return t


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", default="/root/testdata/sf0.01")
    ap.add_argument("names", nargs="*")
    args = ap.parse_args()

    import ray

    owns_ray = not ray.is_initialized()
    if owns_ray:
        ray.init(address="local", include_dashboard=False,
                 num_cpus=int(os.environ.get(
                     "RAY_GRAFT_CPUS", len(os.sched_getaffinity(0)))),
                 ignore_reinit_error=True)
    import duckdb

    import __ray_entry__ as entrymod

    qs, osql = entrymod.queries(), entrymod.oracle_sql()
    names = args.names or [n for n in qs if n in osql]
    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(args.sf, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")
    failures = 0
    for name in names:
        if name not in qs:
            print(f"{name}: UNKNOWN QUERY")
            failures += 1
            continue
        try:
            got = normalise(to_table(qs[name](args.sf)))
            if name not in osql:
                print(f"{name}: no_oracle rows={got.num_rows}")
                continue
            want = normalise(con.execute(osql[name]).arrow())
            rows_ok = got.num_rows == want.num_rows
            schema_ok = got.column_names == want.column_names
            vals_ok = False
            if rows_ok and schema_ok:
                try:
                    # NaN-tolerant compare (CLAUDE.md: Table.equals treats
                    # NaN != NaN)
                    from plugin_serdes_ray.testing import tables_equal

                    vals_ok = tables_equal(got, want.cast(got.schema))
                except Exception as cmp_exc:
                    # a crashed comparison is NOT a value mismatch — say so
                    vals_ok = f"False (compare {type(cmp_exc).__name__}: {cmp_exc})"
            status = "PASS" if (rows_ok and schema_ok and vals_ok is True) \
                else "FAIL"
            if status == "FAIL":
                failures += 1
            print(f"{name}: {status} rows={got.num_rows}/{want.num_rows} "
                  f"schema={schema_ok} values={vals_ok}")
        except Exception as exc:  # noqa: BLE001 — report and continue
            failures += 1
            print(f"{name}: ERROR {type(exc).__name__}: {exc}")
    if owns_ray:   # never tear down a cluster a caller owns
        ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
