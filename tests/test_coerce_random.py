"""Randomized property tests for the r5 pandas-free coercion paths
(functions/coerce.py): the Arrow-native fraction/offset/fallback-zone
arithmetic in to_timestamp, and the exact integer/float string parsing,
are compared against slow trusted Python references over seeded random
inputs. No Ray needed."""

import calendar
import random
from datetime import datetime, timedelta
from zoneinfo import ZoneInfo

import pyarrow as pa

from plugin_serdes_ray.functions.coerce import (
    CoerceOptions, to_float, to_int, to_timestamp,
)

SKIP = CoerceOptions(on_bad_lines="SKIP")


def test_timestamp_iso_random_fraction_offset_matrix():
    """500 random datetimes (1700-2200, pre- and post-epoch) rendered in
    random ISO shapes — T/space separator, 0/1/3/6/9 fraction digits,
    offset none/Z/+HH:MM/-HHMM — must parse to the exact UTC epoch micros
    (fraction floored, offset subtracted in integer arithmetic)."""
    rng = random.Random(7)
    vals, wants = [], []
    for _ in range(500):
        base = datetime(rng.randint(1700, 2200), rng.randint(1, 12),
                        rng.randint(1, 28), rng.randint(0, 23),
                        rng.randint(0, 59), rng.randint(0, 59))
        frac_digits = rng.choice([0, 1, 3, 6, 9])
        frac = rng.randint(0, 10 ** frac_digits - 1) if frac_digits else 0
        ns_frac = frac * 10 ** (9 - frac_digits) if frac_digits else 0
        sep = rng.choice(["T", " "])
        s = base.strftime(f"%Y-%m-%d{sep}%H:%M:%S")
        if frac_digits:
            s += "." + str(frac).zfill(frac_digits)
        off_kind = rng.choice(["none", "Z", "colon", "nocolon"])
        off_s = 0
        if off_kind in ("colon", "nocolon"):
            hh, mm = rng.randint(0, 14), rng.choice([0, 30, 45])
            sign = rng.choice([1, -1])
            off_s = sign * (hh * 3600 + mm * 60)
            s += (f"{'+' if sign > 0 else '-'}{hh:02d}"
                  f"{':' if off_kind == 'colon' else ''}{mm:02d}")
        elif off_kind == "Z":
            s += "Z"
        vals.append(s)
        base_s = calendar.timegm(base.timetuple())
        wants.append((base_s - off_s) * 10 ** 6 + ns_frac // 1000)
    out = to_timestamp(pa.array(vals), "us", opts=SKIP)
    got = out.cast(pa.int64()).to_pylist()
    bad = [(vals[i], got[i], wants[i]) for i in range(len(vals))
           if got[i] != wants[i]]
    assert not bad, bad[:5]


def test_timestamp_zoneless_fallback_zone_dst():
    """Zoneless strings localize to the fallback zone with DST applied
    per value (pc.assume_timezone path) — matched against zoneinfo for
    non-ambiguous wall times."""
    rng = random.Random(11)
    ny = ZoneInfo("America/New_York")
    opts = CoerceOptions(timezone="America/New_York", on_bad_lines="SKIP")
    vals, wants = [], []
    for _ in range(200):
        # hours 5-22: never inside the 1-3am DST transition window.
        # Years <= 2036: beyond the tzfile's explicit transition table
        # Arrow extrapolates differently from zoneinfo's POSIX-rule tail
        # (observed 1h disagreement on e.g. 2086) — not this code's
        # arithmetic, so the property pins the well-defined range.
        base = datetime(rng.randint(1971, 2036), rng.randint(1, 12),
                        rng.randint(1, 28), rng.randint(5, 22),
                        rng.randint(0, 59), rng.randint(0, 59))
        vals.append(base.strftime("%Y-%m-%d %H:%M:%S"))
        aware = base.replace(tzinfo=ny)
        delta = aware - datetime(1970, 1, 1, tzinfo=ZoneInfo("UTC"))
        wants.append((delta.days * 86400 + delta.seconds) * 10 ** 6
                     + delta.microseconds)
    got = to_timestamp(pa.array(vals), "us", opts=opts) \
        .cast(pa.int64()).to_pylist()
    bad = [(vals[i], got[i], wants[i]) for i in range(len(vals))
           if got[i] != wants[i]]
    assert not bad, bad[:5]


def test_timestamp_offset_inside_fallback_zone_dst_gap():
    """An offset-bearing wall time that falls in the fallback zone's
    spring-forward gap resolves by its own offset; only zoneless rows
    localize (assume_timezone used to raise on the whole batch)."""
    opts = CoerceOptions(timezone="America/New_York")
    got = to_timestamp(pa.array(["2023-03-12T02:30:00+05:00",
                                 "2023-03-12T01:30:00"]), "ms", opts=opts)
    assert got.to_pylist() == [datetime(2023, 3, 11, 21, 30),
                               datetime(2023, 3, 12, 6, 30)]


def _ref_int64(s: str):
    """Trusted reference for _string_to_int64's documented semantics:
    exact decimal-integer strings (int64 range, else null), whole-valued
    float notation via float64, everything else null."""
    t = s.strip()
    body = t[1:] if t[:1] in "+-" else t
    if body.isdigit():
        v = int(t)
        return v if -(1 << 63) <= v < (1 << 63) else None
    if "_" in t:               # Python floats allow it, the grammar doesn't
        return None
    try:
        f = float(t)
    except ValueError:
        return None
    if f != f or f in (float("inf"), float("-inf")):
        return None
    if f != int(f):            # fractional
        return None
    if not (-(2.0 ** 63) <= f < 2.0 ** 63):
        return None
    return int(f)


def test_int_string_random_matrix():
    """Random integer strings (1-21 digits, signs, zero-padding), whole
    and fractional float notation, and garbage — the Arrow path must
    agree with a trusted Python reference, including exact >2^53 values
    and int64-overflow nulls."""
    rng = random.Random(23)
    vals = []
    for _ in range(800):
        kind = rng.randrange(6)
        if kind == 0:       # plain int, any magnitude incl. overflow
            digits = rng.randint(1, 21)
            v = rng.choice(["", "-", "+"]) + "".join(
                str(rng.randint(0, 9)) for _ in range(digits))
            vals.append(v)
        elif kind == 1:     # exact boundary neighborhoods
            base = rng.choice([2 ** 53, 2 ** 63, 2 ** 64])
            vals.append(str(base + rng.randint(-2, 2)
                            ) if rng.random() < 0.5 else
                        str(-base + rng.randint(-2, 2)))
        elif kind == 2:     # whole float notation
            vals.append(f"{rng.randint(-10**6, 10**6)}.0")
        elif kind == 3:     # scientific
            vals.append(f"{rng.randint(-999, 999)}e{rng.randint(0, 4)}")
        elif kind == 4:     # fractional -> fail
            vals.append(f"{rng.randint(-100, 100)}.{rng.randint(1, 9)}")
        else:               # garbage
            vals.append(rng.choice(["x", "1x", "", "--5", "1e", "nan",
                                    "inf", "0x10", "1_000"]))
    out = to_int(pa.array(vals, type=pa.string()), opts=SKIP)
    got = out.to_pylist()
    for v, g in zip(vals, got):
        want = _ref_int64(v)
        # "" nullifies via the null-sentinel list before parsing
        if v.strip() in SKIP.null_values:
            want = None
        assert g == want, (v, g, want)


def test_float_string_random_matrix():
    rng = random.Random(29)
    vals = []
    for _ in range(500):
        kind = rng.randrange(5)
        if kind == 0:
            vals.append(repr(rng.uniform(-1e6, 1e6)))
        elif kind == 1:
            vals.append(f"{rng.randint(-999, 999)}e{rng.randint(-20, 20)}")
        elif kind == 2:
            vals.append(rng.choice(["inf", "-inf", "Infinity", "nan",
                                    "NaN", ".5", "-.5", "5."]))
        elif kind == 3:
            vals.append(str(rng.randint(-10 ** 18, 10 ** 18)))
        else:
            vals.append(rng.choice(["x", "", "1..2", "e5", "1e",
                                    "0x10", "1_000"]))
    out = to_float(pa.array(vals, type=pa.string()), opts=SKIP)
    got = out.to_pylist()
    for v, g in zip(vals, got):
        t = v.strip()
        if t in SKIP.null_values:
            assert g is None, (v, g)
            continue
        if "_" in t:                # grammar rejects; Python float allows
            want = None
        else:
            try:
                want = float(t)
            except ValueError:
                want = None
        if want is None:
            assert g is None, (v, g)
        elif want != want:          # NaN
            assert g is not None and g != g, (v, g)
        else:
            assert g == want, (v, g, want)
