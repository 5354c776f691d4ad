"""Multimodal column stages: image/audio/video as opaque binary columns
with typed metadata, processed by ACTOR-POOL map_batches stages (decoder
state built once per actor in __init__ — the stateful-stage pattern).

All three modalities decode for REAL on container formats whose parsing
is pure stdlib/numpy: images BMP (24/32-bpp BI_RGB), binary PPM (P6) and
8-bit non-interlaced PNG (zlib inflate + filter reconstruction, all five
filters, color types 0/2/3/4/6); audio PCM16 RIFF/WAVE; video YUV4MPEG2
(mono/420/422/444). Formats needing codecs absent from this container
(JPEG/mp3/mp4/...) fall back to clearly-marked deterministic fakes
(feature stages) or nulls (stats stages). The Ray-side plumbing —
schemas, byte-bounded batch sizing, actor signatures, output layout — is
identical either way, and the real paths are oracle-checked.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Optional

import numpy as np
import pyarrow as pa

from ..util import map_batches


def _seed_from(data: bytes) -> int:
    return int.from_bytes(hashlib.sha1(data).digest()[:4], "little")


def decode_bmp(data: bytes) -> np.ndarray:
    """Minimal stdlib decoder for uncompressed 24/32-bpp BI_RGB BMP ->
    (height, width, 3) uint8 RGB array. Raises ValueError on anything else
    (compressed, paletted, other bit depths)."""
    if len(data) < 54 or data[:2] != b"BM":
        raise ValueError("not a BMP payload")
    pix_off = struct.unpack_from("<I", data, 10)[0]
    hdr_size = struct.unpack_from("<I", data, 14)[0]
    if hdr_size < 40:
        raise ValueError("BITMAPCOREHEADER BMPs not supported")
    w, h = struct.unpack_from("<ii", data, 18)
    bpp = struct.unpack_from("<H", data, 28)[0]
    comp = struct.unpack_from("<I", data, 30)[0]
    if comp != 0 or bpp not in (24, 32) or w <= 0 or h == 0:
        raise ValueError(f"unsupported BMP (bpp={bpp}, compression={comp})")
    flip = h > 0          # positive height = bottom-up row order
    h = abs(h)
    bypp = bpp // 8
    stride = ((w * bypp + 3) // 4) * 4
    need = pix_off + stride * h
    if len(data) < need:
        raise ValueError(f"truncated BMP: {len(data)} < {need} bytes")
    rows = np.frombuffer(data, dtype=np.uint8, count=stride * h,
                         offset=pix_off).reshape(h, stride)
    px = rows[:, : w * bypp].reshape(h, w, bypp)
    if flip:
        px = px[::-1]
    # BMP stores BGR(A); return RGB
    return np.ascontiguousarray(px[:, :, 2::-1])


def encode_bmp(pixels: np.ndarray) -> bytes:
    """(h, w, 3) uint8 RGB -> 24-bpp bottom-up BI_RGB BMP bytes (fixture /
    test helper for the decoder above; stdlib+numpy only)."""
    px = np.asarray(pixels, dtype=np.uint8)
    if px.ndim != 3 or px.shape[2] != 3:
        raise ValueError("want (h, w, 3) uint8 RGB")
    h, w, _ = px.shape
    stride = ((w * 3 + 3) // 4) * 4
    body = np.zeros((h, stride), dtype=np.uint8)
    body[:, : w * 3] = px[::-1, :, ::-1].reshape(h, w * 3)   # bottom-up BGR
    data = body.tobytes()
    hdr = (b"BM" + struct.pack("<IHHI", 54 + len(data), 0, 0, 54)
           + struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(data),
                         2835, 2835, 0, 0))
    return hdr + data


def decode_ppm(data: bytes) -> np.ndarray:
    """Binary PPM (P6, maxval <= 255) -> (height, width, 3) uint8 RGB."""
    if not data.startswith(b"P6"):
        raise ValueError("not a P6 PPM payload")
    # header = magic, width, height, maxval as whitespace/comment-separated
    # tokens, then ONE whitespace byte before the raster
    pos, fields = 2, []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(int(data[start:pos]))
    pos += 1          # the single whitespace after maxval
    w, h, maxval = fields
    if maxval > 255 or w <= 0 or h <= 0:
        raise ValueError(f"unsupported PPM (maxval={maxval})")
    need = w * h * 3
    if len(data) - pos < need:
        raise ValueError(f"truncated PPM: {len(data) - pos} < {need} bytes")
    return np.frombuffer(data, dtype=np.uint8, count=need,
                         offset=pos).reshape(h, w, 3).copy()


_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def decode_png(data: bytes) -> np.ndarray:
    """Pure stdlib+numpy PNG decoder -> (height, width, 3) uint8 RGB.

    Supports the non-interlaced 8-bit-per-sample core of the spec: color
    types 0 (gray), 2 (RGB), 3 (palette), 4 (gray+alpha) and 6 (RGBA) —
    alpha is dropped, gray replicates to 3 channels — with all five
    scanline filters reconstructed (none/up/sub vectorized per row; the
    sequential average/paeth filters per-byte). Raises ValueError on
    other bit depths / Adam7 interlace / malformed streams — ALL decode
    failures surface as ValueError (zlib/struct/index errors are
    translated), because the stats/feature stages' null-fallback
    contract catches exactly that class."""
    import zlib

    if data[:8] != _PNG_SIG:
        raise ValueError("not a PNG payload")
    try:
        return _decode_png_body(data)
    except ValueError:
        raise
    except (zlib.error, struct.error, IndexError, OverflowError) as exc:
        # corrupt deflate stream / short IHDR / palette index out of
        # range must hit the callers' ValueError-only fallback handlers,
        # not crash the actor-pool stage
        raise ValueError(f"malformed PNG: {exc}") from exc


def _decode_png_body(data: bytes) -> np.ndarray:
    import zlib

    pos, w = 8, None
    idat, plte = [], None
    while pos + 8 <= len(data):
        ln = struct.unpack_from(">I", data, pos)[0]
        typ = data[pos + 4:pos + 8]
        body = data[pos + 8:pos + 8 + ln]
        if typ == b"IHDR":
            w, h, depth, ctype, comp, filt, ilace = struct.unpack(
                ">IIBBBBB", body)
            if depth != 8:
                raise ValueError(f"unsupported PNG bit depth {depth}")
            if ctype not in (0, 2, 3, 4, 6):
                raise ValueError(f"unsupported PNG color type {ctype}")
            if comp != 0 or filt != 0:
                raise ValueError("nonstandard PNG compression/filter")
            if ilace != 0:
                raise ValueError("Adam7-interlaced PNGs not supported")
        elif typ == b"PLTE":
            plte = np.frombuffer(body, dtype=np.uint8).reshape(-1, 3)
        elif typ == b"IDAT":
            idat.append(body)
        elif typ == b"IEND":
            break
        pos += 12 + ln
    if w is None or not idat:
        raise ValueError("PNG missing IHDR/IDAT")
    ch = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}[ctype]
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8)
    rowlen = w * ch
    if len(raw) != h * (rowlen + 1):
        raise ValueError("PNG IDAT size mismatch")
    raw = raw.reshape(h, rowlen + 1)
    filters, rows = raw[:, 0], raw[:, 1:]
    out = np.zeros((h, rowlen), dtype=np.uint8)
    prev = np.zeros(rowlen, dtype=np.uint8)
    for y in range(h):
        f, r = int(filters[y]), rows[y]
        if f == 0:
            line = r.copy()
        elif f == 1:          # sub: mod-256 cumsum per byte-stride class
            line = np.empty(rowlen, dtype=np.uint8)
            for c in range(ch):
                line[c::ch] = np.cumsum(
                    r[c::ch], dtype=np.int64) & 0xFF
        elif f == 2:          # up
            line = r + prev
        elif f == 3:          # average (sequential in x)
            line = np.empty(rowlen, dtype=np.uint8)
            for i in range(rowlen):
                a = int(line[i - ch]) if i >= ch else 0
                line[i] = (int(r[i]) + ((a + int(prev[i])) >> 1)) & 0xFF
        elif f == 4:          # paeth (sequential in x)
            line = np.empty(rowlen, dtype=np.uint8)
            for i in range(rowlen):
                a = int(line[i - ch]) if i >= ch else 0
                b = int(prev[i])
                cc = int(prev[i - ch]) if i >= ch else 0
                p = a + b - cc
                pa_, pb, pcc = abs(p - a), abs(p - b), abs(p - cc)
                pred = a if (pa_ <= pb and pa_ <= pcc) else (
                    b if pb <= pcc else cc)
                line[i] = (int(r[i]) + pred) & 0xFF
        else:
            raise ValueError(f"bad PNG filter byte {f}")
        out[y], prev = line, line
    px = out.reshape(h, w, ch)
    if ctype == 2:
        return np.ascontiguousarray(px)
    if ctype == 6:
        return np.ascontiguousarray(px[:, :, :3])
    if ctype == 3:
        if plte is None:
            raise ValueError("paletted PNG missing PLTE")
        return np.ascontiguousarray(plte[px[:, :, 0]])
    # gray / gray+alpha: replicate luminance
    return np.ascontiguousarray(np.repeat(px[:, :, :1], 3, axis=2))


def encode_png(pixels: np.ndarray) -> bytes:
    """(h, w, 3) uint8 RGB -> 8-bit color-type-2 PNG bytes, filter 0
    (fixture / test helper for the decoder above; stdlib+numpy only)."""
    import zlib

    px = np.asarray(pixels, dtype=np.uint8)
    if px.ndim != 3 or px.shape[2] != 3:
        raise ValueError("want (h, w, 3) uint8 RGB")
    h, w, _ = px.shape

    def chunk(typ: bytes, body: bytes) -> bytes:
        return (struct.pack(">I", len(body)) + typ + body
                + struct.pack(">I", zlib.crc32(typ + body) & 0xFFFFFFFF))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    scan = np.concatenate(
        [np.zeros((h, 1), dtype=np.uint8), px.reshape(h, w * 3)], axis=1)
    return (_PNG_SIG + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(scan.tobytes(), 6))
            + chunk(b"IEND", b""))


def decode_image(data: bytes) -> Optional[np.ndarray]:
    """Dispatch on magic bytes -> (h, w, 3) uint8 RGB, or None when the
    payload is not a format the stdlib decoders cover."""
    if data[:2] == b"BM":
        return decode_bmp(data)
    if data[:2] == b"P6":
        return decode_ppm(data)
    if data[:8] == _PNG_SIG:
        return decode_png(data)
    return None


def _g711_luts() -> tuple[np.ndarray, np.ndarray]:
    """256-entry int16 expansion tables for ITU-T G.711 mu-law and A-law
    (the classic CCITT g711.c reconstruction, vectorized)."""
    u = np.arange(256, dtype=np.int32)
    v = (~u) & 0xFF                       # mu-law stores the complement
    t = (((v & 0x0F) << 3) + 0x84) << ((v >> 4) & 7)
    mu = np.where(v & 0x80, 0x84 - t, t - 0x84).astype(np.int16)
    a = u ^ 0x55                          # A-law inverts the even bits
    seg = (a >> 4) & 7
    t = (a & 0x0F) << 4
    t = np.where(seg == 0, t + 8,
                 (t + 0x108) << np.maximum(seg - 1, 0))
    al = np.where(a & 0x80, t, -t).astype(np.int16)
    return mu, al


_ULAW_LUT, _ALAW_LUT = _g711_luts()


def decode_wav(data: bytes) -> tuple[int, np.ndarray]:
    """RIFF/WAVE -> (sample_rate, (n_samples, n_channels) int16).
    Stdlib struct parse of the fmt/data chunks. Formats that expand
    without an audio library: PCM16 (tag 1), G.711 A-law (tag 6) and
    mu-law (tag 7) via the numpy LUTs above; anything else raises."""
    if len(data) < 44 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    pos, fmt_tag, rate, channels, bits = 12, None, None, None, None
    while pos + 8 <= len(data):
        cid = data[pos:pos + 4]
        size = struct.unpack_from("<I", data, pos + 4)[0]
        body = pos + 8
        if cid == b"fmt ":
            if body + 16 > len(data):
                raise ValueError("truncated WAV fmt chunk")
            fmt_tag, channels, rate = struct.unpack_from("<HHI", data, body)
            bits = struct.unpack_from("<H", data, body + 14)[0]
            if not ((fmt_tag == 1 and bits == 16)
                    or (fmt_tag in (6, 7) and bits == 8)):
                raise ValueError(
                    f"unsupported WAV (format={fmt_tag}, bits={bits}): "
                    "only PCM16 / G.711 A-law / mu-law parse without an "
                    "audio library")
            if channels == 0 or rate == 0:
                # must be ValueError: callers' undecodable-payload handlers
                # catch exactly that (a ZeroDivisionError at the data chunk
                # would escape them)
                raise ValueError("corrupt WAV fmt chunk (channels/rate = 0)")
        elif cid == b"data":
            if rate is None:
                raise ValueError("WAV data chunk before fmt chunk")
            avail = min(size, len(data) - body)
            if fmt_tag == 1:
                n = avail // (2 * channels)
                frames = np.frombuffer(data, dtype="<i2",
                                       count=n * channels,
                                       offset=body).reshape(n, channels)
            else:
                n = avail // channels
                codes = np.frombuffer(data, dtype=np.uint8,
                                      count=n * channels, offset=body)
                lut = _ALAW_LUT if fmt_tag == 6 else _ULAW_LUT
                frames = lut[codes].reshape(n, channels)
            return rate, frames
        pos = body + size + (size & 1)   # chunks are 2-byte aligned
    raise ValueError("WAV has no data chunk")


def encode_wav(samples: np.ndarray, rate: int = 16000) -> bytes:
    """(n, channels) int16 -> PCM16 WAV bytes (fixture/test helper)."""
    s = np.asarray(samples, dtype="<i2")
    if s.ndim == 1:
        s = s[:, None]
    n, ch = s.shape
    body = s.tobytes()
    fmt = struct.pack("<HHIIHH", 1, ch, rate, rate * ch * 2, ch * 2, 16)
    return (b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(body)) + body)


class ImageDecoder:
    """Actor-pool stage: binary image column -> fixed-size float features.

    BMP/P6-PPM/PNG payloads decode for REAL (stdlib parsers above) into a
    deterministic feature vector: [width, height, mean_r, mean_g, mean_b,
    then a coarse 2x2-block luminance grid] padded/truncated to ``size``.
    Other formats (JPEG needs PIL, absent here) fall back to a
    clearly-marked deterministic fake so the pipeline stays runnable on
    arbitrary payloads."""

    def __init__(self, column: str = "image", size: int = 32):
        self.column = column
        self.size = size
        try:  # compressed formats, if PIL ever lands in the image
            from PIL import Image  # noqa: F401
            self._pil = True
        except ImportError:
            self._pil = False

    def _features(self, px: np.ndarray) -> np.ndarray:
        h, w, _ = px.shape
        f = np.zeros(self.size, dtype=np.float32)
        head = [float(w), float(h), *px.reshape(-1, 3).mean(axis=0)]
        lum = px.mean(axis=2)
        # 2x2 block-mean luminance grid, row-major, as texture features
        gh, gw = max(h // 2, 1), max(w // 2, 1)
        grid = [lum[i * gh:(i + 1) * gh, j * gw:(j + 1) * gw].mean()
                for i in range(min(2, h)) for j in range(min(2, w))]
        vals = np.asarray(head + grid, dtype=np.float32)[: self.size]
        f[: len(vals)] = vals
        return f

    def _decode(self, data: Optional[bytes]) -> np.ndarray:
        if data is None:
            return np.zeros(self.size, dtype=np.float32)
        try:
            px = decode_image(data)
        except ValueError:
            # right magic, unsupported body (e.g. paletted BMP): treat like
            # any other format we cannot decode here
            px = None
        if px is not None:
            return self._features(px)
        if self._pil:  # pragma: no cover - library absent in this container
            raise NotImplementedError(
                "compressed-format path: wire Image.open(BytesIO(data)) here")
        # DETERMINISTIC FAKE for formats we cannot decode in this container
        rng = np.random.default_rng(_seed_from(data))
        return rng.random(self.size, dtype=np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = [self._decode(v) for v in batch.column(self.column).to_pylist()]
        return batch.append_column(
            "image_feat", pa.array([f.tolist() for f in feats],
                                   type=pa.list_(pa.float32())))


class ImageStats:
    """Actor-pool stage: REAL decode (BMP/PPM) -> per-image width/height and
    channel means. Payloads the stdlib decoders cannot parse yield null
    stats (never fake numbers — this stage is the oracle-checkable one)."""

    def __init__(self, column: str = "image"):
        self.column = column

    def __call__(self, batch: pa.Table) -> pa.Table:
        w_out, h_out, means = [], [], ([], [], [])
        for v in batch.column(self.column).to_pylist():
            try:
                px = decode_image(v) if v is not None else None
            except ValueError:
                # undecodable body behind a known magic -> null stats, as
                # the docstring promises (never a crashed stage)
                px = None
            if px is None:
                w_out.append(None)
                h_out.append(None)
                for m in means:
                    m.append(None)
            else:
                h, w, _ = px.shape
                w_out.append(w)
                h_out.append(h)
                cm = px.reshape(-1, 3).mean(axis=0)
                for m, val in zip(means, cm):
                    m.append(float(val))
        return (batch.append_column("width", pa.array(w_out, type=pa.int64()))
                .append_column("height", pa.array(h_out, type=pa.int64()))
                .append_column("mean_r", pa.array(means[0], type=pa.float64()))
                .append_column("mean_g", pa.array(means[1], type=pa.float64()))
                .append_column("mean_b", pa.array(means[2], type=pa.float64())))


class AudioFeaturizer:
    """Actor-pool stage: binary audio column -> frame-level features
    (``frames`` x ``n_mels`` flattened).

    PCM16 WAV payloads featurize for REAL: channel-0 samples split into
    ``frames`` equal windows, numpy-FFT power spectrum per window folded
    into ``n_mels`` linear bands (log1p-compressed) — a filterbank-style
    front end without any audio library. Non-WAV payloads (mp3/ogg need
    ffmpeg, absent here) fall back to the deterministic fake."""

    def __init__(self, column: str = "audio", n_mels: int = 16, frames: int = 8):
        self.column = column
        self.n_mels = n_mels
        self.frames = frames

    def _wav_features(self, data: bytes) -> np.ndarray:
        _, samples = decode_wav(data)
        x = samples[:, 0].astype(np.float64) / 32768.0
        if len(x) < self.frames:
            x = np.pad(x, (0, self.frames - len(x)))
        step = len(x) // self.frames
        out = np.empty((self.frames, self.n_mels), dtype=np.float32)
        for f in range(self.frames):
            win = x[f * step:(f + 1) * step]
            spec = np.abs(np.fft.rfft(win)) ** 2
            bands = np.array_split(spec, self.n_mels)
            out[f] = [np.log1p(b.sum()) for b in bands]
        return out.reshape(-1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for v in batch.column(self.column).to_pylist():
            if v is None:
                out.append(np.zeros(self.frames * self.n_mels,
                                    dtype=np.float32).tolist())
                continue
            if v[:4] == b"RIFF":
                try:
                    out.append(self._wav_features(v).tolist())
                    continue
                except ValueError:
                    pass  # non-PCM16 / corrupt RIFF -> deterministic fake
            # DETERMINISTIC FAKE for formats needing absent codecs
            rng = np.random.default_rng(_seed_from(v))
            out.append(rng.random(self.frames * self.n_mels,
                                  dtype=np.float32).tolist())
        return batch.append_column(
            "audio_feat", pa.array(out, type=pa.list_(pa.float32())))


class AudioStats:
    """Actor-pool stage: REAL PCM16-WAV decode -> per-clip sample count,
    rate, duration and RMS (int16 units). Undecodable payloads yield nulls
    (never fake numbers — this stage is the oracle-checkable one)."""

    def __init__(self, column: str = "audio"):
        self.column = column

    def __call__(self, batch: pa.Table) -> pa.Table:
        ns, rates, durs, rms = [], [], [], []
        for v in batch.column(self.column).to_pylist():
            try:
                rate, samples = decode_wav(v) if v is not None else (None, None)
            except ValueError:
                rate, samples = None, None
            if samples is None:
                ns.append(None), rates.append(None)
                durs.append(None), rms.append(None)
            else:
                n = len(samples)
                ns.append(n)
                rates.append(rate)
                durs.append(n / rate)
                x = samples.astype(np.float64)
                rms.append(float(np.sqrt((x * x).mean())) if n else 0.0)
        return (batch.append_column("n_samples", pa.array(ns, type=pa.int64()))
                .append_column("sample_rate", pa.array(rates, type=pa.int64()))
                .append_column("duration_s", pa.array(durs, type=pa.float64()))
                .append_column("rms", pa.array(rms, type=pa.float64())))


_Y4M_MAGIC = b"YUV4MPEG2"
_Y4M_PLANES = {           # colorspace tag prefix -> chroma bytes per luma px
    "mono": 0.0, "420": 0.5, "422": 1.0, "444": 2.0,
}


def decode_y4m(data: bytes) -> tuple[dict, np.ndarray]:
    """YUV4MPEG2 (uncompressed planar video; stdlib-parseable like BMP/WAV)
    -> (info dict, (n_frames, height, width) uint8 LUMA array).

    Supports mono / 4:2:0 (all sub-variants) / 4:2:2 / 4:4:4 colorspaces;
    chroma planes are skipped (stats/sampling operate on luma). Raises
    ValueError on anything else."""
    if not data.startswith(_Y4M_MAGIC):
        raise ValueError("not a YUV4MPEG2 payload")
    nl = data.index(b"\n")
    w = h = None
    fps_num, fps_den, cspace = 25, 1, "420"
    for tok in data[len(_Y4M_MAGIC):nl].split():
        tag, val = chr(tok[0]), tok[1:].decode("ascii", "replace")
        if tag == "W":
            w = int(val)
        elif tag == "H":
            h = int(val)
        elif tag == "F":
            fps_num, fps_den = (int(x) for x in val.split(":"))
        elif tag == "C":
            cspace = val
    if w is None or h is None or w <= 0 or h <= 0:
        # a NEGATIVE dimension must fail here like decode_bmp/decode_ppm:
        # it makes frame_bytes negative, and the frame loop then re-scans
        # the same FRAME marker forever (pos steps backward) — a hung
        # worker with an unboundedly growing frames list
        raise ValueError("Y4M header missing or non-positive W/H")
    if fps_den <= 0 or fps_num < 0:
        raise ValueError("Y4M header has non-positive frame rate")
    key = next((k for k in ("mono", "420", "422", "444")
                if cspace.startswith(k)), None)
    if key is None:
        raise ValueError(f"unsupported Y4M colorspace C{cspace}")
    luma = w * h
    frame_bytes = luma + int(luma * _Y4M_PLANES[key])
    frames = []
    pos = nl + 1
    while pos < len(data):
        fnl = data.index(b"\n", pos)
        if data[pos:pos + 5] != b"FRAME":
            raise ValueError("Y4M frame marker missing")
        body = fnl + 1
        if body + frame_bytes > len(data):
            raise ValueError("truncated Y4M frame")
        frames.append(np.frombuffer(data, dtype=np.uint8, count=luma,
                                    offset=body).reshape(h, w))
        pos = body + frame_bytes
    info = {"width": w, "height": h, "fps_num": fps_num, "fps_den": fps_den,
            "colorspace": cspace, "n_frames": len(frames)}
    stack = np.stack(frames) if frames else np.empty((0, h, w), np.uint8)
    return info, stack


def encode_y4m(luma_frames: np.ndarray, fps: tuple[int, int] = (25, 1)) -> bytes:
    """(n, h, w) uint8 luma -> C420 YUV4MPEG2 bytes with neutral chroma
    (fixture/test helper for the decoder above; even dims required)."""
    fr = np.asarray(luma_frames, dtype=np.uint8)
    if fr.ndim != 3:
        raise ValueError("want (n_frames, h, w) uint8 luma")
    n, h, w = fr.shape
    if w % 2 or h % 2:
        raise ValueError("C420 needs even width/height")
    chroma = np.full((h // 2) * (w // 2), 128, dtype=np.uint8).tobytes()
    parts = [b"YUV4MPEG2 W%d H%d F%d:%d Ip A1:1 C420\n"
             % (w, h, fps[0], fps[1])]
    for f in fr:
        parts.append(b"FRAME\n")
        parts.append(f.tobytes())
        parts.append(chroma)
        parts.append(chroma)
    return b"".join(parts)


class VideoStats:
    """Actor-pool stage: REAL Y4M decode -> per-clip frame count, geometry,
    fps and mean luma. Undecodable payloads yield nulls (never fake numbers
    — this stage is the oracle-checkable one)."""

    def __init__(self, column: str = "video"):
        self.column = column

    def __call__(self, batch: pa.Table) -> pa.Table:
        nf, ws, hs, fps, luma = [], [], [], [], []
        for v in batch.column(self.column).to_pylist():
            try:
                info, frames = decode_y4m(v) if v is not None else (None, None)
            except ValueError:
                info, frames = None, None
            if info is None:
                for col in (nf, ws, hs, fps, luma):
                    col.append(None)
            else:
                nf.append(info["n_frames"])
                ws.append(info["width"])
                hs.append(info["height"])
                fps.append(info["fps_num"] / info["fps_den"])
                luma.append(float(frames.mean()) if len(frames) else None)
        return (batch.append_column("n_frames", pa.array(nf, type=pa.int64()))
                .append_column("width", pa.array(ws, type=pa.int64()))
                .append_column("height", pa.array(hs, type=pa.int64()))
                .append_column("fps", pa.array(fps, type=pa.float64()))
                .append_column("mean_luma", pa.array(luma, type=pa.float64())))


class FrameSampler:
    """Actor-pool stage: binary video column -> N sampled frames (each a
    binary blob).

    Y4M payloads sample REAL frames: N evenly-spaced luma frames, each
    re-encoded as a 24-bpp BMP (gray replicated to RGB) so the sampled
    frames feed straight into the image stages — video -> frames ->
    ImageStats composes end to end with no media libraries. Other
    container formats (mp4/webm need absent ffmpeg) fall back to the
    clearly-marked deterministic byte-slice fake."""

    def __init__(self, column: str = "video", n_frames: int = 4):
        self.column = column
        self.n_frames = n_frames

    def _sample_y4m(self, data: bytes) -> list[bytes]:
        _, frames = decode_y4m(data)
        if not len(frames):
            return []
        idx = np.unique(np.linspace(0, len(frames) - 1,
                                    min(self.n_frames, len(frames)),
                                    dtype=np.int64))
        return [encode_bmp(np.repeat(frames[i][:, :, None], 3, axis=2))
                for i in idx]

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for v in batch.column(self.column).to_pylist():
            if not v:
                out.append([])
                continue
            if v.startswith(_Y4M_MAGIC):
                try:
                    out.append(self._sample_y4m(v))
                    continue
                except ValueError:
                    pass  # corrupt Y4M body -> deterministic fake below
            # DETERMINISTIC FAKE for containers needing absent codecs
            step = max(len(v) // self.n_frames, 1)
            out.append([v[i * step:(i + 1) * step] for i in range(self.n_frames)])
        return batch.append_column(
            "frames", pa.array(out, type=pa.list_(pa.large_binary())))


def decode_images(ds, column: str = "image", size: int = 32,
                  concurrency: int = 4, batch_size: int = 64):
    """Byte-heavy media => SMALL row batches (batch x concurrency bounded in
    bytes, SURVEY.md §4.2) and an actor pool (decoder state per actor)."""
    return map_batches(
        ds, ImageDecoder,
        fn_constructor_kwargs={"column": column, "size": size},
        batch_size=batch_size,
        concurrency=concurrency, num_cpus=1)


def image_stats(ds, column: str = "image", concurrency: int = 4,
                batch_size: int = 64):
    """Real-decode stats stage (width/height/channel means per image)."""
    return map_batches(
        ds, ImageStats, fn_constructor_kwargs={"column": column},
        batch_size=batch_size,
        concurrency=concurrency, num_cpus=1)


def featurize_audio(ds, column: str = "audio", concurrency: int = 4,
                    batch_size: int = 64):
    return map_batches(
        ds, AudioFeaturizer, fn_constructor_kwargs={"column": column},
        batch_size=batch_size,
        concurrency=concurrency, num_cpus=1)


def audio_stats(ds, column: str = "audio", concurrency: int = 4,
                batch_size: int = 64):
    """Real-decode WAV stats stage (n_samples/rate/duration/rms per clip)."""
    return map_batches(
        ds, AudioStats, fn_constructor_kwargs={"column": column},
        batch_size=batch_size,
        concurrency=concurrency, num_cpus=1)


def sample_frames(ds, column: str = "video", n_frames: int = 4,
                  concurrency: int = 4, batch_size: int = 16):
    return map_batches(
        ds, FrameSampler,
        fn_constructor_kwargs={"column": column, "n_frames": n_frames},
        batch_size=batch_size,
        concurrency=concurrency, num_cpus=1)


def video_stats(ds, column: str = "video", concurrency: int = 4,
                batch_size: int = 16):
    """Real-decode Y4M stats stage (n_frames/geometry/fps/mean luma)."""
    return map_batches(
        ds, VideoStats, fn_constructor_kwargs={"column": column},
        batch_size=batch_size,
        concurrency=concurrency, num_cpus=1)


# ---------------------------------------------------------------------------
# perceptual hashing / image near-dup
# ---------------------------------------------------------------------------


def dhash64(px: np.ndarray) -> int:
    """64-bit difference hash (dHash, the classic perceptual hash): the
    image is grayscaled, sampled down to a 9x8 grid (nearest-pixel — exact
    and deterministic, no resampling library), and each bit records
    whether a cell is brighter than its right neighbour. Invariant to
    global brightness shifts and contrast scaling; near-duplicate images
    land within a small Hamming distance. Returns an UNSIGNED 64-bit int
    (row-major bit order, bit 63 first)."""
    if px.ndim == 2:                       # grayscale / luma plane
        h, w = px.shape
        lum = px.astype(np.float64)
    else:
        h, w, _ = px.shape
        lum = px.astype(np.float64).mean(axis=2)
    rows = (np.arange(8, dtype=np.int64) * h) // 8
    cols = (np.arange(9, dtype=np.int64) * w) // 9
    grid = lum[np.ix_(rows, cols)]
    bits = (grid[:, :-1] > grid[:, 1:]).reshape(-1)
    return int(np.packbits(bits).view(">u8")[0])


class ImageDHash:
    """Actor-pool stage: binary image column -> signed-folded int64
    ``dhash`` column (REAL BMP/PPM/PNG decode; undecodable payloads get a
    NULL hash and never pair downstream)."""

    def __init__(self, column: str = "image"):
        self.column = column

    def __call__(self, batch: pa.Table) -> pa.Table:
        out: list = []
        for v in batch.column(self.column).to_pylist():
            try:
                px = decode_image(v) if v is not None else None
            except ValueError:
                px = None
            if px is None:
                out.append(None)
            else:
                u = dhash64(px)
                out.append(u - (1 << 64) if u >= (1 << 63) else u)
        return batch.append_column("dhash", pa.array(out, type=pa.int64()))


def image_dhash(ds, column: str = "image", concurrency: int = 4,
                batch_size: int = 64):
    """Append a perceptual-hash column (see :func:`dhash64`)."""
    return map_batches(
        ds, ImageDHash, fn_constructor_kwargs={"column": column},
        batch_size=batch_size,
        concurrency=concurrency, num_cpus=1)


def audio_fingerprint64(data: bytes, frames: int = 9, bands: int = 9) -> int:
    """64-bit robust audio fingerprint (Haitsma & Kalker 2002 shape):
    channel-0 samples split into ``frames`` windows, FFT band energies per
    window, bit(f, b) = sign of the TIME-DELTA of the BAND-DELTA of
    energies — ``(E[f,b]-E[f,b+1]) - (E[f-1,b]-E[f-1,b+1]) > 0``.
    (frames-1) x (bands-1) = 64 bits at the 9/9 defaults. Invariant to
    global amplitude scaling (energies scale uniformly, signs survive);
    near-identical clips land within a small Hamming distance. Raises
    ``ValueError`` on non-PCM16 payloads (callers null those out)."""
    _, samples = decode_wav(data)
    x = samples[:, 0].astype(np.float64)
    if len(x) < frames:
        x = np.pad(x, (0, frames - len(x)))
    step = len(x) // frames
    e = np.empty((frames, bands), dtype=np.float64)
    for f in range(frames):
        spec = np.abs(np.fft.rfft(x[f * step:(f + 1) * step])) ** 2
        e[f] = [b.sum() for b in np.array_split(spec, bands)]
    band_delta = e[:, :-1] - e[:, 1:]          # (frames, bands-1)
    bits = (band_delta[1:] - band_delta[:-1]) > 0
    return int(np.packbits(bits.reshape(-1)).view(">u8")[0])


class AudioFingerprint:
    """Actor-pool stage: binary audio column -> signed-folded int64
    ``afp`` column (REAL PCM16/G.711 WAV decode; undecodable payloads
    get a NULL fingerprint and never pair downstream)."""

    def __init__(self, column: str = "audio"):
        self.column = column

    def __call__(self, batch: pa.Table) -> pa.Table:
        out: list = []
        for v in batch.column(self.column).to_pylist():
            if v is None or v[:4] != b"RIFF":
                out.append(None)
                continue
            try:
                u = audio_fingerprint64(v)
            except ValueError:
                out.append(None)
                continue
            out.append(u - (1 << 64) if u >= (1 << 63) else u)
        return batch.append_column("afp", pa.array(out, type=pa.int64()))


def audio_fingerprints(ds, column: str = "audio", concurrency: int = 4,
                       batch_size: int = 64):
    """Append the robust fingerprint column (see
    :func:`audio_fingerprint64`)."""
    return map_batches(
        ds, AudioFingerprint, fn_constructor_kwargs={"column": column},
        batch_size=batch_size,
        concurrency=concurrency, num_cpus=1)


def audio_near_duplicates(ds, column: str = "audio",
                          id_column: str = "doc_id",
                          max_hamming: int = 3, bands: int = 4,
                          concurrency: int = 4, batch_size: int = 64):
    """Near-duplicate audio pairs: robust fingerprint per clip (actor
    pool, real decode), then the generic banded 64-bit-hash pipeline
    (``dedup.hash64_duplicates``). Audio bytes never shuffle."""
    from .dedup import hash64_duplicates

    hashed = audio_fingerprints(ds, column=column, concurrency=concurrency,
                                batch_size=batch_size).select_columns(
        [id_column, "afp"])
    return hash64_duplicates(hashed, "afp", id_column,
                             max_hamming=max_hamming, bands=bands)


def video_fingerprint64(data: bytes, n_frames: int = 8) -> int:
    """64-bit video fingerprint: dHash of up to ``n_frames`` evenly-spaced
    luma frames, folded by per-bit MAJORITY vote (ties -> 1, so the vote
    is deterministic). Whole-clip transforms that preserve each frame's
    dHash (brightness shift, contrast scale, container re-encode) keep
    the fingerprint; a few changed frames move only near-tie bits.
    Raises ``ValueError`` on non-Y4M / empty payloads."""
    _, frames = decode_y4m(data)
    if frames.shape[0] == 0:
        raise ValueError("video_fingerprint64: clip has no frames")
    idx = np.unique(np.linspace(0, len(frames) - 1,
                                min(n_frames, len(frames))).astype(int))
    hs = np.array([dhash64(frames[i]) for i in idx], dtype=np.uint64)
    bits = (hs[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    maj = bits.sum(axis=0) * 2 >= len(hs)
    return int(np.sum(np.where(maj, np.uint64(1), np.uint64(0))
                      << np.arange(64, dtype=np.uint64)))


class VideoFingerprint:
    """Actor-pool stage: binary video column -> signed-folded int64
    ``vfp`` column (REAL Y4M decode; undecodable payloads get NULL)."""

    def __init__(self, column: str = "video", n_frames: int = 8):
        self.column = column
        self.n_frames = n_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        out: list = []
        for v in batch.column(self.column).to_pylist():
            try:
                u = (video_fingerprint64(v, self.n_frames)
                     if v is not None else None)
            except ValueError:
                u = None
            if u is None:
                out.append(None)
            else:
                out.append(u - (1 << 64) if u >= (1 << 63) else u)
        return batch.append_column("vfp", pa.array(out, type=pa.int64()))


def video_near_duplicates(ds, column: str = "video",
                          id_column: str = "doc_id",
                          max_hamming: int = 3, bands: int = 4,
                          n_frames: int = 8,
                          concurrency: int = 4, batch_size: int = 16):
    """Near-duplicate video pairs: majority-vote frame-dHash fingerprint
    per clip (actor pool, real decode), then ``dedup.hash64_duplicates``.
    Video bytes never shuffle."""
    from .dedup import hash64_duplicates

    hashed = map_batches(
        ds, VideoFingerprint,
        fn_constructor_kwargs={"column": column, "n_frames": n_frames},
        batch_size=batch_size,
        concurrency=concurrency, num_cpus=1).select_columns(
        [id_column, "vfp"])
    return hash64_duplicates(hashed, "vfp", id_column,
                             max_hamming=max_hamming, bands=bands)


def image_near_duplicates(ds, column: str = "image",
                          id_column: str = "doc_id",
                          max_hamming: int = 2, bands: int = 4,
                          concurrency: int = 4, batch_size: int = 64):
    """Near-duplicate image pairs: dHash per image (actor pool, real
    decode), then the generic banded 64-bit-hash pipeline
    (``dedup.hash64_duplicates`` — pigeonhole band bucketing + in-group
    exact Hamming verify, distinct pairs). Image bytes never shuffle:
    only (band_key, id, hash) fixed-width rows move."""
    from .dedup import hash64_duplicates

    hashed = image_dhash(ds, column=column, concurrency=concurrency,
                         batch_size=batch_size).select_columns(
        [id_column, "dhash"])
    return hash64_duplicates(hashed, "dhash", id_column,
                             max_hamming=max_hamming, bands=bands)
