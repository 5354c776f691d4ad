"""URL canonicalization — the first hygiene pass of every web-crawl
pipeline (Common-Crawl / RefinedWeb / DataTrove all run a variant before
URL-level dedup): the same page is crawled under `HTTPS://WWW.Site.com:443`
and `https://www.site.com`, with `utm_*` / `fbclid` tracking junk and
`#fragment`s appended by referrers. Canonicalizing first multiplies the
hit rate of plain exact dedup (`dedup.exact_dedup` over the canonical
column) at zero LSH cost.

Everything here is a map-only batch transform built from RE2 kernels
(`pc.extract_regex` / `pc.replace_substring_regex`) — no Python rows, no
shuffle — and every step is mirrored exactly in DuckDB SQL (both engines
run RE2), so the whole transform is oracle-checkable.

Steps (documented order; each is a whole-column kernel):

1. split `scheme://hostport path query` (the query group's `[^#]*` drops
   the `#fragment` for free; path and query are split at the FIRST `?`
   so later passes can anchor at `^` — a literal `?` inside a query
   value can never be mistaken for the query start). Rows with no
   `scheme://` pass through unchanged (relative refs, garbage — not
   ours to rewrite).
2. lowercase scheme and hostport (RFC 3986 §6.2.2.1 — scheme and host
   are case-insensitive). Rare `user:pass@host` userinfo is lowercased
   too; acceptable for crawl dedup keys, documented divergence from RFC.
3. strip the scheme's default port (`:80` for http, `:443` for https).
4. give an empty path a root `/` (RFC 3986 §6.2.3: `http://x.com` ==
   `http://x.com/`).
5. drop tracking query parameters (default set below) wherever they sit
   in the query string, then a dangling `?`. `&` cannot appear inside a
   param value (it is the separator), so `&name=` is always a real
   param boundary.

Out of scope (kept semantic-preserving and SQL-mirrorable): percent-
encoding normalization, query-param SORTING (reordering `?b=2&a=1` is
lossy for some endpoints), duplicate-slash collapse (path-meaningful on
some servers), IDN/punycode.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..util import map_batches

# Parameter-NAME patterns stripped from query strings. Alternation order
# is irrelevant: each name is always followed by `=` in the composed
# pattern, so a shorter prefix (`ref`) can never steal a longer name
# (`ref_src=`) — RE2 backtracks to the alternative that reaches the `=`.
# Names are matched case-sensitively (trackers emit them lowercase).
DEFAULT_TRACKING_PARAMS: tuple[str, ...] = (
    "utm_[A-Za-z]+", "fbclid", "gclid", "msclkid", "mc_cid", "mc_eid",
    "igshid", "ref_src", "ref",
)

_SPLIT = (r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.-]*)://"
          r"(?P<hostport>[^/?#]*)(?P<path>[^?#]*)(?P<query>[^#]*)")
# the same pattern without named groups (the oracle addresses groups by
# index: 1=scheme 2=hostport 3=path 4=query)
_SPLIT_SQL = r"^([A-Za-z][A-Za-z0-9+.-]*)://([^/?#]*)([^?#]*)([^#]*)"


def _strip_tracking(query: pa.Array, name_pat: str) -> pa.Array:
    """Remove `name=value` tracking params from a `?`-leading query
    column in three passes (mirrored 1:1 in the oracle):

    a. every `&name=value` (global) — after this at most one tracking
       param remains, and only in the leading `^?name=value` position;
    b. leading `^?name=value&` (a non-tracking param follows) -> `?`;
    c. a lone `^?name=value$` -> gone; then a dangling lone `?`.
    """
    query = pc.replace_substring_regex(query, f"&{name_pat}=[^&]*", "")
    query = pc.replace_substring_regex(query, f"^\\?{name_pat}=[^&]*&",
                                       "?")
    query = pc.replace_substring_regex(query, f"^\\?{name_pat}=[^&]*$",
                                       "")
    return pc.replace_substring_regex(query, r"^\?$", "")


def canonicalize_urls(batch: pa.Table, column: str = "url",
                      out: str | None = None,
                      tracking_params: tuple[str, ...] =
                      DEFAULT_TRACKING_PARAMS) -> pa.Table:
    """Batch-level URL canonicalization (see module docstring for the
    exact step list). Nulls stay null; strings without a `scheme://`
    prefix pass through byte-identical. Appends ``out`` (default
    ``{column}_canonical``) unless ``out == column`` (in-place)."""
    col = batch.column(column)
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    m = pc.extract_regex(col, pattern=_SPLIT)
    scheme = pc.utf8_lower(pc.struct_field(m, "scheme"))
    hostport = pc.utf8_lower(pc.struct_field(m, "hostport"))
    hostport = pc.if_else(
        pc.equal(scheme, "http"),
        pc.replace_substring_regex(hostport, r":80$", ""),
        pc.if_else(pc.equal(scheme, "https"),
                   pc.replace_substring_regex(hostport, r":443$", ""),
                   hostport))
    path = pc.struct_field(m, "path")
    path = pc.if_else(pc.equal(path, ""), "/", path)
    name_pat = "(?:" + "|".join(tracking_params) + ")"
    query = _strip_tracking(pc.struct_field(m, "query"), name_pat)
    joined = pc.binary_join_element_wise(scheme, "://", hostport, path,
                                         query, "")
    canon = pc.if_else(m.is_valid(), joined, col)
    if out == column:
        return batch.set_column(batch.schema.get_field_index(column),
                                column, canon)
    return batch.append_column(out or f"{column}_canonical", canon)


def canonicalize_url_dataset(ds, column: str = "url",
                             out: str | None = None,
                             tracking_params: tuple[str, ...] =
                             DEFAULT_TRACKING_PARAMS):
    """Dataset-level wrapper: map-only, streaming, no shuffle. Chain
    ``dedup.exact_dedup(ds, column=out)`` for URL-level dedup."""
    return map_batches(
        ds, lambda b: canonicalize_urls(b, column, out, tracking_params))


def oracle_canonical_sql(url_expr: str,
                         tracking_params: tuple[str, ...] =
                         DEFAULT_TRACKING_PARAMS) -> str:
    """The DuckDB SQL expression computing the SAME canonicalization of
    ``url_expr`` — each RE2 kernel above mirrored 1:1 (DuckDB
    `regexp_replace` needs the explicit 'g' flag to match Arrow's
    always-global `replace_substring_regex` in pass a; the `^`-anchored
    passes match at most once either way). Used by the driver oracle and
    the randomized parity test. NULL input yields NULL (the CASE's
    regexp_matches is NULL)."""
    p = "(?:" + "|".join(tracking_params) + ")"
    scheme = f"lower(regexp_extract({url_expr}, '{_SPLIT_SQL}', 1))"
    hostport = f"lower(regexp_extract({url_expr}, '{_SPLIT_SQL}', 2))"
    hostport = (
        f"CASE WHEN {scheme} = 'http' THEN"
        f" regexp_replace({hostport}, ':80$', '')"
        f" WHEN {scheme} = 'https' THEN"
        f" regexp_replace({hostport}, ':443$', '')"
        f" ELSE {hostport} END")
    path = f"regexp_extract({url_expr}, '{_SPLIT_SQL}', 3)"
    path = f"CASE WHEN {path} = '' THEN '/' ELSE {path} END"
    query = f"regexp_extract({url_expr}, '{_SPLIT_SQL}', 4)"
    query = f"regexp_replace({query}, '&{p}=[^&]*', '', 'g')"
    query = f"regexp_replace({query}, '^\\?{p}=[^&]*&', '?')"
    query = f"regexp_replace({query}, '^\\?{p}=[^&]*$', '')"
    query = f"regexp_replace({query}, '^\\?$', '')"
    return (f"CASE WHEN regexp_matches({url_expr}, '{_SPLIT_SQL}')"
            f" THEN {scheme} || '://' || {hostport} || {path} || {query}"
            f" ELSE {url_expr} END")
