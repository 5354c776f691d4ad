"""Self-tests of the benchmark's checks: each check must fail on a wrong
answer. Run with ``python -m pytest perfbench/test_checks.py -q``; no Ray
cluster is needed."""

import os
import sys

import pyarrow as pa

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.dirname(HERE))

from checks import (  # noqa: E402
    OpLog, check_parts, check_result, check_rows, table_digest)


def _table(n: int = 6) -> pa.Table:
    return pa.table({
        "url": pa.array([f"https://h/{i}" for i in range(n)]),
        "html": pa.array([None if i == 2 else b"<p>%d</p>" % i
                          for i in range(n)], type=pa.large_binary()),
        "x": pa.array([float(i) if i != 3 else float("nan")
                       for i in range(n)]),
        "k": pa.array(range(n), type=pa.int64()),
    })


def test_flipped_byte_counts_a_failed_operation(tmp_path):
    from plugin_serdes_ray.container import write_partition
    from plugin_serdes_ray.encode import decode_part_batch

    path = str(tmp_path / "part-00000.grck")
    write_partition(_table(), path, {"url": "fsst", "k": "delta"})

    def scan():
        return list(decode_part_batch(pa.table({"path": [path]})))

    ops = OpLog()
    assert ops.run(scan) is not None and ops.failed == 0
    data = bytearray(open(path, "rb").read())
    data[-1] ^= 0x01                 # last byte: inside the last chunk
    with open(path, "wb") as f:
        f.write(bytes(data))
    assert ops.run(scan) is None
    assert (ops.attempted, ops.failed) == (2, 1)


def test_missing_row_fails_the_round_trip_check():
    t = _table()
    digests = [table_digest(t)]
    assert check_parts([t], digests, t.schema) is None
    missing_row = pa.concat_tables([t.slice(0, 2), t.slice(3)])
    assert check_parts([missing_row], digests, t.schema) is not None


def test_off_by_one_count_fails_the_lookup_check():
    t = _table()
    hit = t.slice(1, 3)
    right = {"rows": 3, "digest": table_digest(hit, sort=True)}
    assert check_result([hit], right, t.schema) is None
    # parts may return their rows in any order
    assert check_result([t.slice(3, 1), t.slice(1, 2)], right,
                        t.schema) is None
    off_by_one = dict(right, rows=4)
    assert check_result([hit], off_by_one, t.schema) is not None
    # the count-only check of the measured rounds fails on it too
    assert check_rows([hit], right, t.schema) is None
    assert check_rows([hit], off_by_one, t.schema) is not None


def test_digest_sees_null_masks_and_values_but_not_nan_bits():
    t = _table()
    nan2 = pa.array([0.0, 1.0, 2.0, float("-nan"), 4.0, 5.0])
    assert table_digest(t.set_column(2, "x", nan2)) == table_digest(t)
    null_html = pa.array([b"<p>%d</p>" % i for i in range(6)],
                         type=pa.large_binary())
    assert table_digest(t.set_column(1, "html", null_html)) \
        != table_digest(t)
    assert table_digest(t.set_column(3, "k", pa.array(
        [0, 1, 2, 3, 4, 6], type=pa.int64()))) != table_digest(t)


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
