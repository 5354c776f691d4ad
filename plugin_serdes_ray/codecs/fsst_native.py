"""The engine's one native kernel library: small C loops, loaded via ctypes.

It holds the kernels whose loop is sequential per byte or per value, where
numpy would either loop in Python or blow the data up first:

- FSST greedy encode and decode (``fsst.py``): the pure-python encoder
  (bytes.replace chains) costs one full buffer pass per symbol, ~0.5-5
  MB/s with a 100+ symbol table (BASELINE.md r1); the real FSST encodes
  in one greedy longest-match pass (Boncz et al., VLDB 2020 §4);
- MinHash signatures and the 64-bit content hash (``pipelines/dedup.py``);
- bit-pack and bit-unpack (``bitpack.py``), which carry every FOR, delta
  and RLE stream, the dict indices and the FSST lengths: one word-at-a-time
  loop each (Lemire & Boytsov, SPE 2015), where the numpy fallback expands
  every value to 64 one-byte bits.

The source is compiled ONCE per machine into a content-addressed .so under
``$TMPDIR/fsst-<uid>/`` with the system compiler. No third-party packages,
no network. Everything degrades gracefully: each ``native_*`` wrapper
returns None when no compiler exists, and the caller's numpy or python
fallback produces the same bytes (FSST streams are mutually decodable:
decode only needs a valid code/escape stream).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
import threading

import numpy as np

_C_SRC = r"""
#include <string.h>

/* Greedy longest-match FSST encode.
   Stream format (fsst.py): code byte 0..252 = symbol, 254 = literal 0xFF,
   255 b = escaped literal b. Symbols never contain 0xFF (training skips
   them), so no escape can be shadowed.  Returns output length. */
long fsst_encode(const unsigned char *d, long n,
                 const unsigned char *syms, const int *off,
                 const unsigned char *slen, int nsym,
                 unsigned char *out)
{
    static const int HSIZE = 65536;
    int head[65536];
    int nxt[256];
    int one[256];
    memset(head, -1, HSIZE * sizeof(int));
    memset(one, -1, 256 * sizeof(int));
    memset(nxt, -1, 256 * sizeof(int));
    /* build chains LONGEST-FIRST (push-front: iterate length ascending,
       code descending) so the first chain hit is the longest match and the
       walk can break immediately — hot 2-byte prefixes in html/urls carry
       many symbols and a full-chain walk dominated the encode otherwise */
    for (int L = 1; L <= 8; ++L) {
        for (int c = nsym - 1; c >= 0; --c) {
            if (slen[c] != L) continue;
            const unsigned char *s = syms + off[c];
            if (L == 1) {
                if (one[s[0]] < 0) one[s[0]] = c;
            } else {
                int key = (s[0] << 8) | s[1];
                nxt[c] = head[key];
                head[key] = c;
            }
        }
    }
    long o = 0, i = 0;
    while (i < n) {
        int best = -1, bl = 0;
        if (i + 1 < n) {
            int key = (d[i] << 8) | d[i + 1];
            for (int c = head[key]; c >= 0; c = nxt[c]) {
                int L = slen[c];
                if (i + L <= n && memcmp(d + i, syms + off[c], L) == 0) {
                    best = c;
                    bl = L;
                    break;              /* chains are length-descending */
                }
            }
        }
        if (best < 0 && one[d[i]] >= 0) { best = one[d[i]]; bl = 1; }
        if (best >= 0) {
            out[o++] = (unsigned char) best;
            i += bl;
        } else if (d[i] == 0xFF) {
            out[o++] = 254;
            i += 1;
        } else {
            out[o++] = 0xFF;
            out[o++] = d[i];
            i += 1;
        }
    }
    return o;
}

/* MinHash signature batch (pipelines/dedup.py): per doc, rolling
   polynomial char-k-gram hashes -> min over (A[p]*h + B[p]) mod (2^61-1)
   per permutation. Arithmetic wraps mod 2^64 exactly like the numpy
   fallback, so signatures are bit-identical across paths. */
void minhash_batch(const unsigned char *data, const long *offs, long ndocs,
                   int k, const unsigned long long *A,
                   const unsigned long long *B, int nperm,
                   unsigned long long *out)
{
    const unsigned long long P = (1ULL << 61) - 1;
    unsigned long long pw[16];
    pw[0] = 1ULL;
    for (int i = 1; i < k && i < 16; ++i) pw[i] = pw[i - 1] * 1000003ULL;
    for (long d = 0; d < ndocs; ++d) {
        long s = offs[d], e = offs[d + 1], len = e - s;
        unsigned long long *o = out + (long) d * nperm;
        for (int p = 0; p < nperm; ++p) o[p] = ~0ULL;
        unsigned char pad[16];
        const unsigned char *buf;
        long n;
        if (len < k) {          /* short docs pad with spaces, like numpy */
            for (int i = 0; i < k; ++i)
                pad[i] = (i < len) ? data[s + i] : 32;
            buf = pad;
            n = k;
        } else {
            buf = data + s;
            n = len;
        }
        for (long w = 0; w + k <= n; ++w) {
            unsigned long long h = 0;
            for (int i = 0; i < k; ++i)
                h += (unsigned long long) buf[w + i] * pw[i];
            unsigned long long hm = h % P;
            for (int p = 0; p < nperm; ++p) {
                unsigned long long v = A[p] * hm + B[p];  /* wraps 2^64 */
                v = (v >> 61) + (v & P);                  /* mod 2^61-1 */
                if (v >= P) v -= P;
                if (v < o[p]) o[p] = v;
            }
        }
    }
}

/* 64-bit content hash per string slice (pipelines/dedup._content_hash64):
   polynomial h = sum byte_j * P^(end-1-j) mod 2^64 (Horner, 8-lane
   unrolled), xor length-mix, splitmix64 finalize. Bit-identical to the
   numpy fallback, so a cluster mixing compiled and fallback workers
   still hashes identically. */
void hash64_poly(const unsigned char *data, const long *offs, long n,
                 unsigned long long *out)
{
    const unsigned long long P = 0x100000001B3ULL;
    const unsigned long long C = 0x9E3779B97F4A7C15ULL;
    unsigned long long pw[8];
    pw[0] = 1ULL;
    for (int i = 1; i < 8; ++i) pw[i] = pw[i - 1] * P;
    const unsigned long long P8 = pw[7] * P;
    for (long d = 0; d < n; ++d) {
        long s = offs[d], e = offs[d + 1];
        unsigned long long h = 0;
        long i = s;
        for (; i + 8 <= e; i += 8)
            h = h * P8
                + data[i] * pw[7] + data[i + 1] * pw[6]
                + data[i + 2] * pw[5] + data[i + 3] * pw[4]
                + data[i + 4] * pw[3] + data[i + 5] * pw[2]
                + data[i + 6] * pw[1] + data[i + 7];
        for (; i < e; ++i) h = h * P + data[i];
        unsigned long long len = (unsigned long long)(e - s);
        h ^= (len + 1ULL) * C;
        h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
        h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
        out[d] = h ^ (h >> 31);
    }
}

/* Bit-pack (codecs/bitpack.py): the low w bits of each value, LSB-first
   and little-endian, one 64-bit accumulator flushed a word at a time.
   out holds exactly ceil(n*w/8) bytes; the tail is written bytewise. */
void bitpack_u64(const unsigned long long *v, long n, int w,
                 unsigned char *out)
{
    const unsigned long long mask = w == 64 ? ~0ULL : (1ULL << w) - 1;
    unsigned long long acc = 0;
    int bits = 0;
    for (long i = 0; i < n; ++i) {
        unsigned long long x = v[i] & mask;
        acc |= x << bits;
        bits += w;
        if (bits >= 64) {
            memcpy(out, &acc, 8);
            out += 8;
            bits -= 64;
            acc = bits ? x >> (w - bits) : 0;
        }
    }
    for (; bits > 0; bits -= 8, acc >>= 8) *out++ = (unsigned char) acc;
}

/* Inverse: n values of w bits from in[0..nbytes). Loads a word at a time
   and never reads at or past nbytes (the last word is gathered bytewise).
   Returns 0, or -1 when the input runs out (the caller checks the length
   first; this only keeps a misuse from shifting out of range). */
int bitunpack_u64(const unsigned char *in, long nbytes, long n, int w,
                  unsigned long long *out)
{
    const unsigned long long mask = w == 64 ? ~0ULL : (1ULL << w) - 1;
    unsigned long long acc = 0;
    int bits = 0;
    long p = 0;
    for (long i = 0; i < n; ++i) {
        if (bits >= w) {            /* here w < 64: bits never exceeds 63 */
            out[i] = acc & mask;
            acc >>= w;
            bits -= w;
            continue;
        }
        unsigned long long word = 0;
        int got = 64;
        if (p + 8 <= nbytes) {
            memcpy(&word, in + p, 8);
            p += 8;
        } else {
            for (got = 0; p < nbytes && got < 64; got += 8)
                word |= (unsigned long long) in[p++] << got;
        }
        int need = w - bits;
        if (got < need) return -1;
        out[i] = (acc | (word << bits)) & mask;
        acc = need == 64 ? 0 : word >> need;
        bits = got - need;
    }
    return 0;
}

/* Exact decoded length of a code/escape stream (first pass of decode). */
long fsst_decoded_len(const unsigned char *e, long n,
                      const unsigned char *slen, int nsym)
{
    long o = 0, i = 0;
    while (i < n) {
        unsigned char c = e[i];
        if (c == 0xFF) { if (i + 1 < n) o += 1; i += 2; }
        else if (c == 254) { o += 1; i += 1; }
        else { if (c < nsym) o += slen[c]; i += 1; }
    }
    return o;
}

/* Inverse: code/escape stream -> bytes. Caller supplies an exact-size out
   buffer (length precomputed vectorized in python). Unknown codes decode
   to nothing. Returns bytes written. */
long fsst_decode(const unsigned char *e, long n,
                 const unsigned char *syms, const int *off,
                 const unsigned char *slen, int nsym,
                 unsigned char *out)
{
    long o = 0, i = 0;
    while (i < n) {
        unsigned char c = e[i];
        if (c == 0xFF) {
            if (i + 1 < n) out[o++] = e[i + 1];
            i += 2;
        } else if (c == 254) {
            out[o++] = 0xFF;
            i += 1;
        } else if (c < nsym) {
            int L = slen[c];
            memcpy(out + o, syms + off[c], L);
            o += L;
            i += 1;
        } else {
            i += 1;
        }
    }
    return o;
}
"""

_LIB: "ctypes.CDLL | bool | None" = None
_BUILD_LOCK = threading.Lock()


def _kernel_dir() -> str:
    """Per-user 0700 cache dir for the compiled kernel (ADVICE r2: a
    world-writable /tmp path lets another local user pre-plant a malicious
    .so at the predictable name; an attacker cannot write inside a 0700
    directory they don't own)."""
    d = os.path.join(tempfile.gettempdir(), f"fsst-{os.getuid()}")
    os.makedirs(d, mode=0o700, exist_ok=True)
    st = os.stat(d)
    if st.st_uid != os.getuid() or (st.st_mode & 0o077):
        raise OSError(f"{d} is not a private directory owned by this user")
    return d


def _build_lib():
    """Compile (or reuse) the kernel; returns a CDLL or None."""
    digest = hashlib.sha1(_C_SRC.encode()).hexdigest()[:16]
    try:
        so_path = os.path.join(_kernel_dir(), f"fsst_kernel_{digest}.so")
    except OSError:
        return None
    if not os.path.exists(so_path):
        cc = None
        for cand in ("cc", "gcc", "clang"):
            try:
                subprocess.run([cand, "--version"], capture_output=True,
                               check=True)
                cc = cand
                break
            except Exception:
                continue
        if cc is None:
            return None
        # pid+thread-unique scratch names: concurrent builders (threaded
        # plan pass) must not delete each other's in-flight output
        tag = f"{os.getpid()}.{threading.get_ident()}"
        src = so_path + f".{tag}.c"
        tmp = so_path + f".{tag}.so"
        try:
            with open(src, "w") as f:
                f.write(_C_SRC)
            subprocess.run([cc, "-O2", "-shared", "-fPIC", "-o", tmp, src],
                           capture_output=True, check=True)
            os.replace(tmp, so_path)   # atomic: concurrent workers race safely
        except Exception:
            return None
        finally:
            for p in (src, tmp):
                try:
                    os.remove(p)
                except OSError:
                    pass
    try:
        lib = ctypes.CDLL(so_path)
        # data arg is c_void_p (raw address), NOT c_char_p: the callers pass
        # zero-copy numpy views over Arrow buffers/memoryviews instead of
        # forcing a bytes() copy of every chunk through the ctypes marshal
        common = [ctypes.c_void_p, ctypes.c_long, ctypes.c_char_p,
                  ctypes.POINTER(ctypes.c_int), ctypes.c_char_p,
                  ctypes.c_int, ctypes.POINTER(ctypes.c_ubyte)]
        lib.fsst_encode.restype = ctypes.c_long
        lib.fsst_encode.argtypes = common
        lib.fsst_decode.restype = ctypes.c_long
        lib.fsst_decode.argtypes = common
        lib.fsst_decoded_len.restype = ctypes.c_long
        lib.fsst_decoded_len.argtypes = [ctypes.c_void_p, ctypes.c_long,
                                         ctypes.c_char_p, ctypes.c_int]
        u64p = ctypes.POINTER(ctypes.c_uint64)
        lib.minhash_batch.restype = None
        lib.minhash_batch.argtypes = [
            ctypes.c_void_p, ctypes.POINTER(ctypes.c_long), ctypes.c_long,
            ctypes.c_int, u64p, u64p, ctypes.c_int, u64p]
        lib.hash64_poly.restype = None
        lib.hash64_poly.argtypes = [
            ctypes.c_void_p, ctypes.POINTER(ctypes.c_long), ctypes.c_long,
            u64p]
        lib.bitpack_u64.restype = None
        lib.bitpack_u64.argtypes = [
            ctypes.c_void_p, ctypes.c_long, ctypes.c_int, ctypes.c_void_p]
        lib.bitunpack_u64.restype = ctypes.c_int
        lib.bitunpack_u64.argtypes = [
            ctypes.c_void_p, ctypes.c_long, ctypes.c_long, ctypes.c_int,
            ctypes.c_void_p]
        return lib
    except (OSError, AttributeError):
        return None


def get_lib():
    global _LIB
    if _LIB is None:
        with _BUILD_LOCK:       # one build per process; threads wait
            if _LIB is None:
                _LIB = _build_lib() or False
    return _LIB or None


def _sym_args(symbols: list[bytes]):
    flat = b"".join(symbols)
    offs = (ctypes.c_int * max(len(symbols), 1))()
    pos = 0
    for i, s in enumerate(symbols):
        offs[i] = pos
        pos += len(s)
    lens = bytes(len(s) for s in symbols)
    return flat, offs, lens


def _in_ptr(data) -> tuple[np.ndarray, int]:
    """bytes/memoryview -> (keep-alive view, raw address) without copying."""
    view = np.frombuffer(data, dtype=np.uint8)
    return view, view.ctypes.data


def native_compress(data, symbols: list[bytes]):
    """C greedy encode -> stream bytes (as a zero-copy memoryview over the
    output array), or None when no compiler exists."""
    lib = get_lib()
    if lib is None:
        return None
    view, addr = _in_ptr(data)
    flat, offs, lens = _sym_args(symbols)
    out = np.empty(2 * len(view) + 16, dtype=np.uint8)
    n_out = lib.fsst_encode(
        addr, len(view), flat, offs, lens, len(symbols),
        out.ctypes.data_as(ctypes.POINTER(ctypes.c_ubyte)))
    del view
    return out[:n_out].data


def native_minhash(data: bytes, offsets: np.ndarray, k: int,
                   a: np.ndarray, b: np.ndarray):
    """Batched MinHash signatures: (n_docs, num_perm) uint64, or None when
    no compiler exists or k exceeds the kernel's fixed 16-byte window
    buffers (callers fall back to numpy, which handles any k)."""
    lib = get_lib()
    if lib is None or not 1 <= k <= 16:
        return None
    n_docs = len(offsets) - 1
    nperm = len(a)
    view, addr = _in_ptr(data)
    offs = np.ascontiguousarray(offsets, dtype=np.int64)
    a = np.ascontiguousarray(a, dtype=np.uint64)
    b = np.ascontiguousarray(b, dtype=np.uint64)
    out = np.empty((n_docs, nperm), dtype=np.uint64)
    u64p = ctypes.POINTER(ctypes.c_uint64)
    lib.minhash_batch(
        addr, offs.ctypes.data_as(ctypes.POINTER(ctypes.c_long)),
        n_docs, k, a.ctypes.data_as(u64p), b.ctypes.data_as(u64p), nperm,
        out.ctypes.data_as(u64p))
    del view
    return out


def native_hash64(data: np.ndarray, offsets: np.ndarray):
    """Finalized 64-bit polynomial hash per slice ``data[offs[i]:offs[i+1]]``
    (single C pass), or None when no compiler exists. Values are
    bit-identical to dedup.py's numpy fallback."""
    lib = get_lib()
    if lib is None:
        return None
    n = len(offsets) - 1
    offs = np.ascontiguousarray(offsets, dtype=np.int64)
    data = np.ascontiguousarray(data, dtype=np.uint8)
    out = np.empty(max(n, 1), dtype=np.uint64)
    lib.hash64_poly(
        data.ctypes.data, offs.ctypes.data_as(ctypes.POINTER(ctypes.c_long)),
        n, out.ctypes.data_as(ctypes.POINTER(ctypes.c_uint64)))
    return out[:n]


def native_bitpack(values: np.ndarray, width: int):
    """Low ``width`` (1..64) bits of each value, packed LSB-first into
    ceil(n*width/8) bytes (a zero-copy memoryview), or None when no
    compiler exists or the host is big-endian. Bytes are identical to
    bitpack.py's numpy fallback."""
    lib = get_lib()
    if lib is None or sys.byteorder != "little":
        return None
    v = np.ascontiguousarray(values, dtype=np.uint64)
    out = np.empty((len(v) * width + 7) // 8, dtype=np.uint8)
    lib.bitpack_u64(v.ctypes.data, len(v), width, out.ctypes.data)
    return out.data


def native_bitunpack(data, n: int, width: int):
    """Inverse of :func:`native_bitpack`: uint64 array of length ``n``, or
    None without a compiler. Raises ValueError when ``data`` holds fewer
    than ceil(n*width/8) bytes, before the kernel runs."""
    lib = get_lib()
    if lib is None or sys.byteorder != "little":
        return None
    view, addr = _in_ptr(data)
    need = (n * width + 7) // 8
    out = np.empty(n, dtype=np.uint64)
    if len(view) < need or lib.bitunpack_u64(addr, len(view), n, width,
                                             out.ctypes.data):
        raise ValueError(f"bit-packed section has {len(view)} bytes; "
                         f"{n} values of {width} bits need {need}")
    return out


def native_decompress(enc, symbols: list[bytes]):
    """Two C passes (exact length, then decode); None without a compiler.
    Returns a zero-copy memoryview over the output array."""
    lib = get_lib()
    if lib is None:
        return None
    view, addr = _in_ptr(enc)
    flat, offs, lens = _sym_args(symbols)
    total = lib.fsst_decoded_len(addr, len(view), lens, len(symbols))
    out = np.empty(max(int(total), 1), dtype=np.uint8)
    n_out = lib.fsst_decode(
        addr, len(view), flat, offs, lens, len(symbols),
        out.ctypes.data_as(ctypes.POINTER(ctypes.c_ubyte)))
    del view
    return out[:n_out].data
