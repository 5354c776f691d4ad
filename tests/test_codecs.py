"""Per-codec bit-identity unit tests on adversarial arrays (FIXTURES.md F5).

Mirrors the reference's per-type converter test layer
(/root/reference src/test/java/.../avro/converter/*, e.g.
PrimitiveIntTest.java:13-42): tables of (input, expected) per codec.
"""

import itertools
from decimal import Decimal

import numpy as np
import pyarrow as pa
import pytest

from plugin_serdes_ray.codecs import codec_names, decode_array, encode_array
from plugin_serdes_ray.codecs.bitpack import (
    pack_uints, unpack_uints, zigzag_decode, zigzag_encode,
)
from plugin_serdes_ray.codecs import fsst, fsst_native
from plugin_serdes_ray.testing import arrays_equal, tables_equal

rng = np.random.default_rng(42)

CASES: dict[str, pa.Array] = {
    "empty_str": pa.array([], type=pa.string()),
    "empty_int": pa.array([], type=pa.int64()),
    "one_str": pa.array(["only"]),
    "strs": pa.array(["hello world", "hello there", None, "", "hello world hello world"]),
    "strs_prefix": pa.array([f"https://example.com/path/{i}" for i in range(500)]),
    "unicode": pa.array(["héllo", "𝔘𝔫𝔦", "a\x00b", "", None, "ff\xff"]),
    "large_str": pa.array(["x" * 10_000, None, "abc"], type=pa.large_string()),
    "bin": pa.array([b"\x00\xff\xfe" * 50, b"", None], type=pa.binary()),
    "large_bin": pa.array([bytes(rng.integers(0, 256, 1000, dtype=np.uint8))], type=pa.large_binary()),
    "ints": pa.array([1, 2, 3, None, 5], type=pa.int64()),
    "ints_minmax": pa.array([-(2**63), 2**63 - 1, 0, None], type=pa.int64()),
    "i8": pa.array([-128, 127, 0, None], type=pa.int8()),
    "u64": pa.array([0, 2**64 - 1, 17], type=pa.uint64()),
    "i32_runs": pa.array([100] * 40 + [200] * 40 + [None] * 5 + [200] * 10, type=pa.int32()),
    "ts_sorted": pa.array(np.arange(10_000, dtype=np.int64) * 1_000_000 + 17, type=pa.timestamp("us")),
    "ts_jitter": pa.array((np.arange(1000) * 1000 + rng.integers(-500, 500, 1000)).astype(np.int64), type=pa.timestamp("us")),
    "ts_tz": pa.array([1, 2, None], type=pa.timestamp("ms", tz="UTC")),
    "f64": pa.array([1.5, float("nan"), None, 0.0, -0.0, float("inf")]),
    "f32": pa.array(np.array([1.5, 2.5], dtype=np.float32), type=pa.float32()),
    "bools": pa.array([True, False, None, True] * 10),
    "date": pa.array([1, 2, 3], type=pa.date32()),
    "time": pa.array([1, 2, None], type=pa.time64("us")),
    "dur": pa.array([5, -5, None], type=pa.duration("ns")),
    "allnull_str": pa.array([None] * 7, type=pa.string()),
    "allnull_int": pa.array([None] * 7, type=pa.int64()),
    "const_int": pa.array([42] * 1000, type=pa.int64()),
    "const_str": pa.array(["same"] * 1000),
    "alternating": pa.array([0, 1] * 500, type=pa.int64()),
    "rand_i64": pa.array(rng.integers(-(2**62), 2**62, 5000), type=pa.int64()),
    "dec": pa.array([Decimal("1.23"), None, Decimal("-99.99")], type=pa.decimal128(10, 2)),
    "fixedbin": pa.array([b"abcd", None, b"wxyz"], type=pa.binary(4)),
    "nested_list": pa.array([[1, 2], [], None, [3]], type=pa.list_(pa.int64())),
    "nested_struct": pa.array([{"a": 1, "b": "x"}, None], type=pa.struct([("a", pa.int64()), ("b", pa.string())])),
}

VARBIN = ["empty_str", "one_str", "strs", "strs_prefix", "unicode", "large_str", "bin", "large_bin", "allnull_str", "const_str"]
FIXED = ["empty_int", "ints", "ints_minmax", "i8", "u64", "i32_runs", "ts_sorted", "ts_jitter", "ts_tz",
         "f64", "f32", "bools", "date", "time", "dur", "allnull_int", "const_int", "alternating", "rand_i64"]
INTLIKE = ["empty_int", "ints", "i8", "i32_runs", "ts_sorted", "ts_jitter", "ts_tz", "date", "time", "dur",
           "allnull_int", "const_int", "alternating"]

APPLICABLE: dict[str, list[str]] = {
    "plain": VARBIN + FIXED + ["dec", "fixedbin"],
    "raw_ipc": list(CASES),
    "for": INTLIKE + ["bools"],
    "delta": INTLIKE,
    "rle": FIXED,
    "dict": VARBIN + FIXED + ["dec"],
    "dict_rle": ["strs", "i32_runs", "const_str", "allnull_str", "alternating"],
    "dict_fsst": ["strs", "strs_prefix", "large_str", "bin", "const_str"],
    "fsst": VARBIN,
    # bss needs an int-view dtype (no bool bit-view, no 128-bit decimals)
    "bss": [c for c in FIXED if c != "bools"],
}


@pytest.mark.parametrize(
    "codec,case",
    [(c, n) for c, names in APPLICABLE.items() for n in names],
    ids=lambda v: v,
)
def test_roundtrip(codec, case):
    arr = CASES[case]
    blob = encode_array(arr, codec)
    out = decode_array(blob, arr.type)
    assert arrays_equal(out, arr), f"{codec} failed on {case}:\n{arr}\n{out}"


def test_constant_codec():
    for arr in (CASES["const_int"], CASES["const_str"], CASES["allnull_str"], CASES["allnull_int"]):
        blob = encode_array(arr, "constant")
        assert arrays_equal(decode_array(blob, arr.type), arr)
        assert len(blob) < 600


def test_sliced_input_roundtrip():
    arr = CASES["strs_prefix"].slice(13, 100)
    out = decode_array(encode_array(arr, "fsst"), arr.type)
    assert arrays_equal(out, arr)
    arr2 = CASES["rand_i64"].slice(7, 77)
    out2 = decode_array(encode_array(arr2, "for"), arr2.type)
    assert arrays_equal(out2, arr2)


BITPACK_NS = [0, 1, 7, 8, 9, 63, 64, 65, 1000, 150001]


def _numpy_bitpack(mp):
    """Route pack_uints/unpack_uints through the numpy fallback."""
    mp.setattr(fsst_native, "native_bitpack", lambda *a: None)
    mp.setattr(fsst_native, "native_bitunpack", lambda *a: None)


def _unaligned(packed: bytes, off: int) -> memoryview:
    """``packed`` as a slice at byte offset ``off`` of a larger buffer,
    the way unpack_sections hands sections out."""
    buf = b"\xa5" * off + bytes(packed) + b"\xff" * 9
    return memoryview(buf)[off:off + len(packed)]


def test_bitpack_roundtrip(monkeypatch):
    """The native kernel and the numpy fallback pack to the same bytes and
    unpack to the same values at every width, for values that span the
    full width (the high bit set at w=64) and for unaligned inputs."""
    assert fsst_native.get_lib() is not None, "native kernel did not build"
    r = np.random.default_rng(7)
    for width, n in itertools.product(range(65), BITPACK_NS):
        top = (1 << width) - 1
        vals = r.integers(0, top, n, dtype=np.uint64, endpoint=True)
        vals[: min(n, 2)] = [top, 0][: min(n, 2)]
        nbytes = (n * width + 7) // 8
        packed = bytes(pack_uints(vals, width))
        assert len(packed) == nbytes
        got = [unpack_uints(packed, n, width)]
        got += [unpack_uints(_unaligned(packed, off), n, width)
                for off in range(1, 8)]
        with monkeypatch.context() as mp:
            _numpy_bitpack(mp)
            assert pack_uints(vals, width) == packed
            got += [unpack_uints(packed, n, width),
                    unpack_uints(_unaligned(packed, 3), n, width)]
        for out in got:
            assert out.dtype == np.uint64 and (out == vals).all()


def test_bitpack_truncated_raises(monkeypatch):
    """A packed section shorter than ceil(n*w/8) bytes raises ValueError on
    both paths, directly and through a FOR chunk; widths above 64 too."""
    from plugin_serdes_ray.codecs.base import pack_chunk, pack_sections

    vals = np.arange(1000, dtype=np.uint64)
    packed = bytes(pack_uints(vals, 10))
    chunk = pack_chunk("for", {"n": 1000, "min": 5, "w": 10},
                       pack_sections([b"", packed[:-1]]))
    for fallback in (False, True):
        with monkeypatch.context() as mp:
            if fallback:
                _numpy_bitpack(mp)
            for short in (packed[:-1], _unaligned(packed[:100], 5), b""):
                with pytest.raises(ValueError):
                    unpack_uints(short, 1000, 10)
            with pytest.raises(ValueError):
                decode_array(chunk, pa.int64())
            with pytest.raises(ValueError):
                unpack_uints(packed, 10, 65)
    # The kernel itself stops at nbytes rather than loading past it.
    lib = fsst_native.get_lib()
    for width in (10, 63, 64):
        full = np.frombuffer(bytes(pack_uints(vals, width)), dtype=np.uint8)
        out = np.empty(1000, dtype=np.uint64)
        for nbytes in (len(full) - 1, len(full) - 8, 3, 0):
            assert lib.bitunpack_u64(full.ctypes.data, nbytes, 1000, width,
                                     out.ctypes.data) == -1
        assert lib.bitunpack_u64(full.ctypes.data, len(full), 1000, width,
                                 out.ctypes.data) == 0
        assert (out == vals).all()


def test_bitpack_paths_write_identical_partitions(tmp_path, monkeypatch):
    """A lineitem-shaped table written on the native path and on the numpy
    fallback gives byte-identical container files."""
    from plugin_serdes_ray.container import read_partition, write_partition

    r = np.random.default_rng(11)
    n = 20_000
    day0 = np.datetime64("1995-01-02", "D")
    qty = r.integers(1, 51, n)
    t = pa.table({
        "l_orderkey": r.integers(0, n // 4, n),
        "l_partkey": pa.array([None if i % 11 == 0 else int(v) for i, v in
                               enumerate(r.integers(0, 20_000, n))]),
        "l_linenumber": pa.array(np.sort(r.integers(1, 8, n)), type=pa.int32()),
        "l_quantity": qty.astype(np.float64),
        "l_returnflag": pa.array(np.array(["A", "N", "R"])[r.integers(0, 3, n)]),
        "l_linestatus": pa.array(np.repeat(["F", "O"], n // 2)),
        "l_shipdate": pa.array(np.sort(day0 + r.integers(0, 2499, n))
                               .astype("datetime64[us]")),
        "l_comment": pa.array([f"carefully final deposits {i % 977}"
                               for i in range(n)]),
    })
    plan = {"l_orderkey": "for", "l_partkey": "for", "l_linenumber": "rle",
            "l_quantity": "dict", "l_returnflag": "dict",
            "l_linestatus": "dict_rle", "l_shipdate": "delta",
            "l_comment": "fsst"}
    native, fallback = str(tmp_path / "native.grck"), str(tmp_path / "np.grck")
    write_partition(t, native, plan)
    with monkeypatch.context() as mp:
        _numpy_bitpack(mp)
        write_partition(t, fallback, plan)
        assert tables_equal(read_partition(native), t)
    assert open(native, "rb").read() == open(fallback, "rb").read()
    assert tables_equal(read_partition(fallback), t)


def test_zigzag():
    v = np.array([0, -1, 1, -(2**62), 2**62, 2**63 - 1, -(2**63)], dtype=np.int64)
    assert (zigzag_decode(zigzag_encode(v)) == v).all()


def test_fsst_stream_roundtrip():
    data = (b"http://example.com/page " * 500) + bytes(range(256)) * 3
    table = fsst.train_table(data[:4096])
    assert len(table) <= 254
    assert all(0xFF not in s for s in table)
    enc = fsst.compress(data, table)
    assert fsst.decompress(enc, table) == data
    assert len(enc) < len(data)  # must actually compress repetitive text


def test_fsst_compresses_urls_well():
    urls = "".join(f"https://www.example{i % 20}.com/articles/2024/05/page-{i}\n" for i in range(2000)).encode()
    table = fsst.train_table(urls[:65536])
    enc = fsst.compress(urls, table)
    assert len(enc) < 0.55 * len(urls)
    assert fsst.decompress(enc, table) == urls


def test_chunk_size_boundaries():
    for n in [0, 1, 7, 8, 9, 63, 64, 65]:
        arr = pa.array(list(range(n)), type=pa.int64())
        for codec in ["plain", "for", "delta", "rle", "dict"]:
            assert arrays_equal(decode_array(encode_array(arr, codec), arr.type), arr)


def test_registry_complete():
    assert set(codec_names()) >= {
        "plain", "raw_ipc", "constant", "for", "delta", "rle",
        "dict", "dict_rle", "dict_fsst", "fsst",
    }


def test_fsst_native_and_fallback_streams_interchangeable():
    """The C greedy encoder and the replace-chain fallback produce different
    parses of the SAME stream format; decode must recover the input from
    either, and the C parse must never be larger."""
    from plugin_serdes_ray.codecs import fsst
    from plugin_serdes_ray.codecs.fsst_native import get_lib, native_compress

    data = (b"http://example.com/path/one http://example.org/path/two " * 200
            + bytes(range(256)) * 3 + b"\xff\xff tail \xff")
    syms = fsst.train_table(data[:4096])
    py_stream = fsst._compress_replace(data, syms)
    assert fsst.decompress(py_stream, syms) == data
    if get_lib() is not None:
        c_stream = native_compress(data, syms)
        assert fsst.decompress(c_stream, syms) == data
        assert len(c_stream) <= len(py_stream)


def test_fsst_outer_frame_size_travels_in_metadata():
    """Files written with any OUTER_FRAME keep decoding when the constant
    changes (the write-time frame size is recorded per chunk)."""
    import plugin_serdes_ray.container as container

    rng = np.random.default_rng(3)
    blob = rng.integers(0, 50, 9_000_000, dtype=np.uint8).tobytes()
    z, outer = container._outer_compress(blob, 3)
    assert outer["fs"] == container.OUTER_FRAME
    old = container.OUTER_FRAME
    try:
        container.OUTER_FRAME = 1 << 20     # reader with a different default
        assert container._outer_decompress(z, outer) == blob
        legacy = dict(outer)
        legacy.pop("fs")                    # r1 file: framed at 1 MiB
        z1, o1 = container._outer_compress(blob, 3)
        assert container._outer_decompress(z1, o1) == blob
    finally:
        container.OUTER_FRAME = old


def test_plain_varbin_wide_lengths_v8(monkeypatch):
    """A single cell >= 4 GiB must not wrap its uint32 length (silent offset
    corruption of every later cell). Exercised by lowering the v8 threshold;
    the real-threshold path was verified once with a 4 GiB+7 cell (same
    stream, meta k='v8')."""
    import plugin_serdes_ray.codecs.plain as plain_mod
    from plugin_serdes_ray.codecs import decode_array, encode_array

    monkeypatch.setattr(plain_mod, "_U32_LEN_LIMIT", 16)
    for typ in (pa.large_binary(), pa.large_string(), pa.string()):
        mk = (lambda b: b) if typ == pa.large_binary() else (
            lambda b: b.decode())
        arr = pa.array([mk(b"ab"), mk(b"x" * 20), None, mk(b""), mk(b"tail")],
                       type=typ)
        blob = encode_array(arr, "plain")
        assert b'"k":"v8"' in bytes(blob[:64])
        assert arrays_equal(decode_array(blob, typ), arr)
    # under the limit stays on the compact uint32 path
    arr = pa.array([b"ab", b"c" * 10], type=pa.large_binary())
    assert b'"k":"v"' in bytes(encode_array(arr, "plain")[:64])


def test_arrays_equal_nested_float_nan():
    """NaN inside list/struct columns must compare equal to itself (the
    flat-float bit-pattern branch does not cover nested types)."""
    from plugin_serdes_ray.testing import arrays_equal

    nan = float("nan")
    a = pa.array([[1.0, nan], None, []], type=pa.list_(pa.float64()))
    b = pa.array([[1.0, nan], None, []], type=pa.list_(pa.float64()))
    assert arrays_equal(a, b)
    c = pa.array([[1.0, 2.0], None, []], type=pa.list_(pa.float64()))
    assert not arrays_equal(a, c)
    st = pa.struct([("f", pa.float64()), ("s", pa.string())])
    d = pa.array([{"f": nan, "s": "x"}], type=st)
    e = pa.array([{"f": nan, "s": "x"}], type=st)
    assert arrays_equal(d, e)
    f2 = pa.array([{"f": nan, "s": "y"}], type=st)
    assert not arrays_equal(d, f2)
