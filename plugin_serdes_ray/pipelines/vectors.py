"""Distributed dense-vector reductions over an embedding column:
per-key centroids (the M-step of k-means) and broadcast-centroid
assignment (the E-step), composed into one Lloyd iteration.

100 TB shape: the E-step is a stateless ``map_batches`` against a
``ray.put``-broadcast centroid matrix (shipped to each worker ONCE via the
object store, never per batch over the wire); the M-step shuffles only
per-block partial sums — one ``(key, d×8 B sum, count)`` row per key per
block — never the vectors themselves. A 100 TB corpus with 1e4 blocks and
k=1e3 clusters moves k·blocks·d·8 B ≈ d·80 GB of partials instead of
100 TB of vectors, and the final reduce groups O(k·blocks) tiny rows.

No counterpart in the reference (kestra-io/plugin-serdes is a format
engine); these are engine-native wide ops like pipelines/ann.py.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import map_batches, map_groups, vectors_to_numpy


#: feature order of :class:`TextFeaturizer` — each is a plain character /
#: token count, so an external oracle can recompute the exact same values
FEATURE_NAMES = ("chars", "words", "digits", "upper", "lower",
                 "newlines", "lt", "dots")


def projection_matrix(dim: int = 8, seed: int = 7) -> np.ndarray:
    """The seeded (8, dim) random-projection matrix TextFeaturizer uses —
    exposed so oracle generators can inline the identical constants."""
    rs = np.random.RandomState(seed)
    return rs.standard_normal((len(FEATURE_NAMES), dim))


def text_features(col: pa.Array) -> np.ndarray:
    """(n, 8) float64 deterministic surface features of a text column:
    char length, whitespace-word count, digit/upper/lower char counts,
    newline / ``<`` / ``.`` counts. All Arrow kernels; null rows are
    filled with zeros (callers mask them back to null)."""
    filled = pc.fill_null(col, "")
    n = len(filled)
    feats = np.empty((n, len(FEATURE_NAMES)), dtype=np.float64)
    feats[:, 0] = pc.utf8_length(filled).to_numpy(zero_copy_only=False)
    toks = pc.split_pattern_regex(filled, r"\s+")
    lens = pc.list_value_length(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    nonempty = pc.not_equal(pc.list_flatten(toks), "") \
        .to_numpy(zero_copy_only=False)
    row_of = np.repeat(np.arange(n, dtype=np.int64), lens)
    feats[:, 1] = np.bincount(row_of[nonempty], minlength=n)
    for i, pat in ((2, "[0-9]"), (3, "[A-Z]"), (4, "[a-z]")):
        feats[:, i] = pc.count_substring_regex(filled, pat).to_numpy(
            zero_copy_only=False)
    for i, pat in ((5, "\n"), (6, "<"), (7, ".")):
        feats[:, i] = pc.count_substring(filled, pat).to_numpy(
            zero_copy_only=False)
    return feats


class TextFeaturizer:
    """Text -> dense embedding actor-pool stage (the model stand-in for a
    neural embedder at 100 TB): a seeded random projection of 8 exact
    surface features. The projection matrix is built ONCE per actor in
    ``__init__`` (the expensive-model-load slot); ``__call__`` is the
    vectorized per-batch path. Use with
    ``util.map_batches(ds, TextFeaturizer, concurrency=N, ...)`` or via
    :func:`text_to_embeddings`.

    The embedding is reproducible externally: component j is the
    LEFT-TO-RIGHT sum ``f0·M[0,j] + f1·M[1,j] + …`` over
    :data:`FEATURE_NAMES`, with ``M = projection_matrix(dim, seed)`` —
    an oracle can inline the constants and match float64 bit-for-bit.
    Null text rows produce a null embedding."""

    def __init__(self, dim: int = 8, seed: int = 7, column: str = "text",
                 out_column: str = "embedding"):
        self.proj = projection_matrix(dim, seed)
        self.dim = dim
        self.column = column
        self.out_column = out_column

    def __call__(self, t: pa.Table) -> pa.Table:
        col = t.column(self.column)
        col = (col.combine_chunks()
               if isinstance(col, pa.ChunkedArray) else col)
        f = text_features(col)
        # left-to-right accumulation — matches the oracle SQL's
        # left-associative `f0*m + f1*m + …` exactly (no matmul reorder)
        emb = f[:, 0:1] * self.proj[0][None, :]
        for i in range(1, self.proj.shape[0]):
            emb = emb + f[:, i:i + 1] * self.proj[i][None, :]
        flat = pa.array(emb.reshape(-1), type=pa.float64())
        arr = pa.FixedSizeListArray.from_arrays(flat, self.dim)
        if col.null_count:
            mask = pc.is_null(col)
            arr = pc.if_else(mask, pa.scalar(
                None, type=pa.list_(pa.float64(), self.dim)), arr)
        return t.append_column(self.out_column, arr)


def text_to_embeddings(ds, dim: int = 8, seed: int = 7,
                       column: str = "text", out_column: str = "embedding",
                       concurrency=2):
    """Run :class:`TextFeaturizer` as an actor pool over the dataset —
    state (the projection matrix) loads once per actor, batches stream
    through ``__call__``."""
    return map_batches(
        ds, TextFeaturizer, concurrency=concurrency,
        fn_constructor_kwargs=dict(dim=dim, seed=seed, column=column,
                                   out_column=out_column))


def _dim_of(ds, vector_column: str) -> int:
    sch = ds.schema()
    t = sch.types[list(sch.names).index(vector_column)]
    if pa.types.is_fixed_size_list(t):
        return t.list_size
    # list/large_list: peek one row (tiny driver read, schema-level info
    # the lazy Dataset cannot provide for ragged list types)
    row = ds.take(1)
    if not row:
        raise ValueError("cannot infer vector dim from an empty dataset")
    return len(row[0][vector_column])


def grouped_vector_mean(ds, by: str, vector_column: str = "embedding",
                        out_column: str = "centroid",
                        count_name: Optional[str] = "n"):
    """Per-key mean vector (centroid): per-block partial (sum, count) via a
    numpy scatter-add — no Python loop over rows, vectors never shuffle —
    then ONE keyed shuffle of the tiny partials and an in-group reduce.

    Rows with a null key or null vector are dropped (SQL AVG semantics).
    Output: (by, out_column list<double>, count) — one row per key."""
    dim = _dim_of(ds, vector_column)

    def partial(t: pa.Table) -> pa.Table:
        keys = t.column(by).combine_chunks()
        vec_col = t.column(vector_column)
        vec_col = (vec_col.combine_chunks()
                   if isinstance(vec_col, pa.ChunkedArray) else vec_col)
        ok = pc.and_(pc.is_valid(keys), pc.is_valid(vec_col))
        if not pc.all(ok).as_py():
            t = t.filter(ok)
            keys = t.column(by).combine_chunks()
            vec_col = t.column(vector_column).combine_chunks()
        if t.num_rows == 0:
            return pa.table({
                by: pa.array([], type=keys.type),
                "__vsum": pa.array([], type=pa.list_(pa.float64(), dim)),
                "__vn": pa.array([], type=pa.int64())})
        vecs = vectors_to_numpy(vec_col, np.float64)
        dct = pc.dictionary_encode(keys)
        codes = dct.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        m = len(dct.dictionary)
        sums = np.zeros((m, dim), dtype=np.float64)
        np.add.at(sums, codes, vecs)
        counts = np.bincount(codes, minlength=m)
        return pa.table({
            by: dct.dictionary,
            "__vsum": pa.FixedSizeListArray.from_arrays(
                pa.array(sums.reshape(-1)), dim),
            "__vn": pa.array(counts.astype(np.int64))})

    def reduce_group(g: pa.Table) -> pa.Table:
        sums = vectors_to_numpy(g.column("__vsum"), np.float64)
        n = int(pc.sum(g.column("__vn")).as_py())
        mean = sums.sum(axis=0) / n
        cols = {by: g.column(by).slice(0, 1),
                out_column: pa.FixedSizeListArray.from_arrays(
                    pa.array(mean), dim)}
        if count_name:
            cols[count_name] = pa.array([n], type=pa.int64())
        return pa.table(cols)

    partials = map_batches(ds.select_columns([by, vector_column]), partial)
    return map_groups(partials.groupby(by), reduce_group)


def kmeans_assign(ds, centroids: np.ndarray,
                  vector_column: str = "embedding",
                  out_column: str = "cluster"):
    """Append the nearest-centroid index (squared-L2, lowest index wins
    ties) to every row. The centroid matrix is ``ray.put`` ONCE and read
    zero-copy inside each task — never re-shipped per batch. Null vectors
    get a null assignment."""
    import ray

    c = np.ascontiguousarray(np.asarray(centroids, dtype=np.float64))
    if c.ndim != 2:
        raise ValueError("centroids must be a (k, d) matrix")
    ref = ray.put(c)
    cnorm_ref = ray.put((c * c).sum(axis=1))

    def assign(t: pa.Table) -> pa.Table:
        cc = ray.get(ref)                   # zero-copy shared-memory read
        cn = ray.get(cnorm_ref)
        col = t.column(vector_column)
        col = (col.combine_chunks()
               if isinstance(col, pa.ChunkedArray) else col)
        valid = pc.is_valid(col)
        if not pc.all(valid).as_py():
            # assign valid rows; nulls keep a null cluster
            vt = t.filter(valid)
            vv = vectors_to_numpy(
                vt.column(vector_column).combine_chunks(), np.float64)
            d2 = -2.0 * (vv @ cc.T) + cn[None, :]
            lab = np.argmin(d2, axis=1).astype(np.int64)
            out = np.zeros(t.num_rows, dtype=np.int64)
            vmask = valid.to_numpy(zero_copy_only=False)
            out[vmask] = lab
            arr = pa.array(out, mask=~vmask)
            return t.append_column(out_column, arr)
        vecs = vectors_to_numpy(col, np.float64)
        # |v-c|^2 = |v|^2 - 2 v.c + |c|^2; |v|^2 is constant per row, so
        # argmin needs only the last two terms
        d2 = -2.0 * (vecs @ cc.T) + cn[None, :]
        lab = np.argmin(d2, axis=1).astype(np.int64)
        return t.append_column(out_column, pa.array(lab))

    return map_batches(ds, assign)


def kmeans_init_first_k(ds, k: int, vector_column: str = "embedding",
                        id_column: str = "vec_id") -> np.ndarray:
    """Deterministic seed centroids: the k rows with the SMALLEST ids —
    via the shuffle-free local-top-k + driver-merge path, not a global
    sort. (Seeding quality is the caller's concern; determinism is what
    makes the result oracle-checkable.)"""
    from .relational import top_k

    rows = top_k(ds.select_columns([id_column, vector_column]),
                 id_column, k=k, descending=False)
    order = pc.sort_indices(rows.column(id_column))
    picked = rows.take(order)
    return vectors_to_numpy(picked.column(vector_column), np.float64)


def kmeans_one_iter(ds, k: int, vector_column: str = "embedding",
                    id_column: str = "vec_id",
                    centroids: Optional[np.ndarray] = None):
    """One Lloyd iteration: broadcast-assign (E-step) + grouped vector
    mean (M-step). Returns a Dataset of (cluster, centroid, n) — empty
    clusters simply emit no row, like SQL GROUP BY. Run it in a driver
    loop for full k-means; each iteration is one map pass plus one
    partials-only shuffle."""
    if centroids is None:
        centroids = kmeans_init_first_k(ds, k, vector_column, id_column)
    assigned = kmeans_assign(ds, centroids, vector_column, "cluster")
    return grouped_vector_mean(assigned, "cluster", vector_column,
                               out_column="centroid")


def kmeans(ds, k: int, iters: int = 10, tol: float = 1e-6,
           vector_column: str = "embedding", id_column: str = "vec_id",
           centroids: Optional[np.ndarray] = None,
           checkpoint_dir: Optional[str] = None) -> dict:
    """Full Lloyd k-means as a driver loop over :func:`kmeans_one_iter` —
    per iteration: one broadcast-assign map pass over the corpus plus one
    partials-only shuffle (O(k·blocks) rows). The driver holds only the
    (k, d) centroid matrix; stops early when the max centroid movement
    drops under ``tol``. An empty cluster keeps its previous centroid
    (standard Lloyd practice; no resampling pass).

    ``checkpoint_dir`` makes the loop RESUMABLE
    (:func:`~..state.iterate.checkpointed_loop`): every iteration's
    centroids persist atomically, and a rerun after a driver crash
    continues from the last completed iteration instead of re-paying the
    corpus passes (fingerprinted against the corpus + parameters).

    Returns {"centroids": (k, d) ndarray, "iters": int, "shift": float}.
    Final assignments are one more :func:`kmeans_assign` away — kept out
    of the return so callers who only need centroids never pay the pass."""
    from ..state.iterate import checkpointed_loop

    if centroids is None:
        centroids = kmeans_init_first_k(ds, k, vector_column, id_column)
    c0 = np.ascontiguousarray(np.asarray(centroids, dtype=np.float64))

    def step(state: dict, it: int):
        c = np.asarray(state["centroids"], dtype=np.float64)
        rows = kmeans_one_iter(ds, k, vector_column, id_column,
                               centroids=c).take_all()   # k tiny rows
        new = c.copy()
        for r in rows:
            new[int(r["cluster"])] = np.asarray(r["centroid"])
        shift = float(np.abs(new - c).max())
        return ({"centroids": new, "shift": shift, "it": it},
                shift < tol)

    fp = ""
    if checkpoint_dir:
        from ..util import corpus_fingerprint
        fp = corpus_fingerprint(
            ds, f"kmeans:{k}:{iters}:{tol}:{vector_column}:{id_column}")
    state, _ = checkpointed_loop(
        step, {"centroids": c0, "shift": float("inf"), "it": 0},
        iters, checkpoint_dir, fingerprint=fp)
    return {"centroids": np.asarray(state["centroids"], dtype=np.float64),
            "iters": int(state["it"]), "shift": float(state["shift"])}


def embedding_dim_minmax(ds, vector_column: str = "embedding"):
    """Per-dimension exact min/max over an embedding column in ONE
    streaming pass: each block reduces to a fixed (2, d) float64 payload
    (zero-copy matrix view via util.vectors_to_numpy), the driver (or a
    tree) takes elementwise min/max. Null vectors are skipped. Returns
    ``(mn, mx)`` float64 arrays of length d."""
    from ..util import vectors_to_numpy

    def partial(t: pa.Table) -> pa.Table:
        col = t.column(vector_column).combine_chunks().drop_null()
        if len(col) == 0:
            return pa.table({"mn": pa.array([], type=pa.binary()),
                             "mx": pa.array([], type=pa.binary())})
        m = vectors_to_numpy(col, dtype=np.float64)
        return pa.table({
            "mn": pa.array([m.min(axis=0).tobytes()], type=pa.binary()),
            "mx": pa.array([m.max(axis=0).tobytes()], type=pa.binary())})

    rows = map_batches(ds, partial).take_all()
    if not rows:
        raise ValueError("no vectors to quantize")
    mn = np.minimum.reduce([np.frombuffer(r["mn"], dtype=np.float64)
                            for r in rows])
    mx = np.maximum.reduce([np.frombuffer(r["mx"], dtype=np.float64)
                            for r in rows])
    return mn, mx


def quantize_embeddings(ds, vector_column: str = "embedding",
                        out_column: str = "embedding_q", *,
                        minmax=None):
    """Int8 scalar quantization of an embedding column — the standard 4x
    storage/bandwidth shrink before shipping a 100 TB embedding corpus to
    an ANN index. Per-dimension affine code: ``q = floor((v - mn_d) /
    (mx_d - mn_d) * 255 + 0.5) - 128`` (half-up rounding, bit-identical
    to the SQL floor(x + 0.5) recompute; a constant dimension codes to
    0). Exact global per-dim ranges come from ONE
    :func:`embedding_dim_minmax` pass (or pass ``minmax`` from a prior
    profile); the quantize itself is map-only on zero-copy matrix views.
    Max reconstruction error is half a step: ``(mx_d - mn_d) / 510``.

    Appends ``out_column`` (fixed_size_list<int8>) plus nothing else —
    ranges are returned to the caller for the dequantize side. Returns
    ``(dataset, (mn, mx))``."""
    from ..util import vectors_to_numpy

    mn, mx = minmax if minmax is not None \
        else embedding_dim_minmax(ds, vector_column)
    span = mx - mn
    safe = np.where(span > 0, span, 1.0)

    def quant(t: pa.Table) -> pa.Table:
        col = t.column(vector_column).combine_chunks()
        if col.null_count:
            raise ValueError(
                f"{vector_column} contains null vectors; filter them "
                "before quantize_embeddings (codes must align row-wise)")
        m = vectors_to_numpy(col, dtype=np.float64)
        if m.shape[0] == 0:     # empty block: pin width to the profile's d
            m = m.reshape(0, len(mn))
        q = np.floor((m - mn) / safe * 255.0 + 0.5) - 128.0
        # clip BEFORE the int8 cast: with a caller-supplied profile range,
        # an out-of-range value would otherwise wrap (1.5 on a [0,1]
        # profile coded to -1 ~ mid-range) instead of saturating
        q = np.clip(np.where(span > 0, q, 0.0), -128.0, 127.0).astype(np.int8)
        d = q.shape[1]
        out = pa.FixedSizeListArray.from_arrays(
            pa.array(q.reshape(-1), type=pa.int8()), d)
        return t.append_column(out_column, out)

    return map_batches(ds, quant), (mn, mx)


def dequantize(q: np.ndarray, mn: np.ndarray, mx: np.ndarray) -> np.ndarray:
    """Inverse of :func:`quantize_embeddings` codes: midpoint
    reconstruction ``mn + (q + 128) / 255 * (mx - mn)`` (float64)."""
    span = mx - mn
    return mn + (np.asarray(q, dtype=np.float64) + 128.0) / 255.0 * span


def covariance_stats(ds, vector_column: str = "embedding"):
    """Exact mean vector and SAMPLE covariance matrix of an embedding
    column in ONE streaming pass: every block reduces to a fixed payload
    ``(n, Σx (d·8 B), XᵀX (d²·8 B))`` shipped as binary blobs; the driver
    sum-merges O(blocks) rows and finishes with the closed form
    ``cov = (ΣXᵀX − (Σx)(Σx)ᵀ/n) / (n−1)``. Null vectors are skipped
    (SQL covar_samp semantics). Vectors never shuffle; the per-block
    payload is d²+d+1 doubles (8 MB at d=1000 — document your d).

    Returns ``(n, mean (d,), cov (d, d))``."""

    def partial(t: pa.Table) -> pa.Table:
        col = t.column(vector_column).combine_chunks().drop_null()
        if len(col) == 0:
            return pa.table({"n": pa.array([], type=pa.int64()),
                             "sx": pa.array([], type=pa.binary()),
                             "xtx": pa.array([], type=pa.binary())})
        m = vectors_to_numpy(col, dtype=np.float64)
        return pa.table({
            "n": pa.array([m.shape[0]], type=pa.int64()),
            "sx": pa.array([m.sum(axis=0).tobytes()], type=pa.binary()),
            "xtx": pa.array([(m.T @ m).tobytes()], type=pa.binary())})

    rows = map_batches(ds.select_columns([vector_column]), partial).take_all()
    if not rows:
        raise ValueError("covariance_stats: no non-null vectors")
    n = int(sum(r["n"] for r in rows))
    sx = np.sum([np.frombuffer(r["sx"], dtype=np.float64) for r in rows],
                axis=0)
    d = len(sx)
    xtx = np.sum([np.frombuffer(r["xtx"], dtype=np.float64).reshape(d, d)
                  for r in rows], axis=0)
    mean = sx / n
    if n < 2:
        return n, mean, np.full((d, d), np.nan)
    cov = (xtx - np.outer(sx, sx) / n) / (n - 1)
    return n, mean, cov


def pca(ds, n_components: int, vector_column: str = "embedding", *,
        stats=None) -> dict:
    """Distributed principal-component analysis: the corpus contributes
    only the :func:`covariance_stats` pass (one streaming map, fixed
    per-block payload); the eigendecomposition runs driver-side on the
    (d, d) covariance — O(d³) with NO dependence on corpus size, the
    standard exact-PCA split for tall-skinny data (d ≤ a few thousand;
    beyond that use randomized sketches). Component signs are pinned
    deterministically: the largest-|loading| entry of each component is
    made positive (first index wins ties), so results are reproducible
    across runs and partitionings.

    Returns ``{"components": (k, d) rows=PCs, "explained_variance": (k,)
    eigenvalues, "explained_variance_ratio": (k,), "mean": (d,),
    "n": int}``. Pass ``stats=(n, mean, cov)`` from a prior
    :func:`covariance_stats` call to skip the corpus pass."""
    n, mean, cov = stats if stats is not None \
        else covariance_stats(ds, vector_column)
    d = len(mean)
    k = int(n_components)
    if not 1 <= k <= d:
        raise ValueError(f"n_components must be in [1, {d}], got {k}")
    if n < 2:
        raise ValueError("pca needs at least 2 non-null vectors")
    vals, vecs = np.linalg.eigh(cov)        # ascending
    order = np.argsort(vals)[::-1][:k]
    comps = vecs[:, order].T                # (k, d)
    flip = comps[np.arange(k), np.argmax(np.abs(comps), axis=1)] < 0
    comps[flip] *= -1.0
    ev = np.maximum(vals[order], 0.0)
    total = float(np.trace(cov))
    ratio = ev / total if total > 0 else np.zeros(k)
    return {"components": comps, "explained_variance": ev,
            "explained_variance_ratio": ratio, "mean": mean, "n": n}


def pca_project(ds, mean: np.ndarray, components: np.ndarray,
                vector_column: str = "embedding",
                out_column: str = "pca"):
    """Map-only projection onto fitted principal components: append
    ``(x − mean) · componentsᵀ`` per row. ``(mean, components)`` are
    ``ray.put`` ONCE and read zero-copy in every task. Null vectors get a
    null projection."""
    import ray

    mu = np.ascontiguousarray(np.asarray(mean, dtype=np.float64))
    w = np.ascontiguousarray(np.asarray(components, dtype=np.float64))
    if w.ndim != 2 or w.shape[1] != len(mu):
        raise ValueError("components must be (k, d) with d == len(mean)")
    k = w.shape[0]
    ref = ray.put((mu, w))

    def project(t: pa.Table) -> pa.Table:
        mmu, ww = ray.get(ref)
        col = t.column(vector_column)
        col = (col.combine_chunks()
               if isinstance(col, pa.ChunkedArray) else col)
        valid = pc.is_valid(col)
        if not pc.all(valid).as_py():
            vt = t.filter(valid)
            p = (vectors_to_numpy(
                vt.column(vector_column).combine_chunks(), np.float64)
                - mmu) @ ww.T
            out = np.zeros((t.num_rows, k), dtype=np.float64)
            vmask = valid.to_numpy(zero_copy_only=False)
            out[vmask] = p
            flat = pa.array(out.reshape(-1), type=pa.float64())
            arr = pa.FixedSizeListArray.from_arrays(flat, k)
            arr = pc.if_else(pc.is_null(col), pa.scalar(
                None, type=pa.list_(pa.float64(), k)), arr)
            return t.append_column(out_column, arr)
        p = (vectors_to_numpy(col, np.float64) - mmu) @ ww.T
        flat = pa.array(p.reshape(-1), type=pa.float64())
        return t.append_column(
            out_column, pa.FixedSizeListArray.from_arrays(flat, k))

    return map_batches(ds, project)


# ---------------------------------------------------------------------------
# distributed logistic regression (full-batch gradient descent)
# ---------------------------------------------------------------------------


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid (no overflow warnings at |z| > 700)."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logreg_partials(ds, w: np.ndarray, b: float,
                    vector_column: str = "embedding",
                    label_column: str = "label",
                    positive_label=1):
    """ONE full-batch pass at weights ``(w, b)``: every block reduces to a
    single fixed-width row ``(X^T r, sum r, logloss sum, n)`` where
    ``r = sigmoid(Xw + b) - y`` — the vectors never leave their block and
    the driver reads O(blocks) rows. Rows with a null vector or null
    label are dropped (documented SQL-style semantics).

    Returns ``(grad_vec_sum, grad_bias_sum, loss_sum, n)`` — UNnormalized
    sums, so the caller owns the 1/n and the L2 term."""
    import ray

    dim = len(w)
    wref = ray.put(np.ascontiguousarray(np.asarray(w, dtype=np.float64)))

    def partial(t: pa.Table) -> pa.Table:
        ww = ray.get(wref)                  # zero-copy shared-memory read
        vec = t.column(vector_column)
        vec = (vec.combine_chunks()
               if isinstance(vec, pa.ChunkedArray) else vec)
        lab = t.column(label_column)
        lab = (lab.combine_chunks()
               if isinstance(lab, pa.ChunkedArray) else lab)
        ok = pc.and_(pc.is_valid(vec), pc.is_valid(lab))
        if not pc.all(ok).as_py():
            t = t.filter(ok)
            vec = t.column(vector_column).combine_chunks()
            lab = t.column(label_column).combine_chunks()
        if t.num_rows == 0:
            return pa.table({
                "__g": pa.array([], type=pa.list_(pa.float64(), dim)),
                "__gb": pa.array([], type=pa.float64()),
                "__loss": pa.array([], type=pa.float64()),
                "__n": pa.array([], type=pa.int64())})
        X = vectors_to_numpy(vec, np.float64)
        y = pc.equal(lab, positive_label).to_numpy(
            zero_copy_only=False).astype(np.float64)
        z = X @ ww + b
        r = _sigmoid(z) - y
        g = X.T @ r
        loss = float(np.sum(np.logaddexp(0.0, z) - y * z))
        return pa.table({
            "__g": pa.FixedSizeListArray.from_arrays(pa.array(g), dim),
            "__gb": pa.array([float(r.sum())]),
            "__loss": pa.array([loss]),
            "__n": pa.array([t.num_rows], type=pa.int64())})

    rows = map_batches(ds.select_columns([vector_column, label_column]),
                       partial).take_all()
    if not rows or sum(r["__n"] for r in rows) == 0:
        return np.zeros(dim), 0.0, 0.0, 0
    g = np.sum([np.asarray(r["__g"], dtype=np.float64) for r in rows],
               axis=0)
    gb = float(sum(r["__gb"] for r in rows))
    loss = float(sum(r["__loss"] for r in rows))
    n = int(sum(r["__n"] for r in rows))
    return g, gb, loss, n


def logreg_train(ds, vector_column: str = "embedding",
                 label_column: str = "label", positive_label=1,
                 iters: int = 25, lr: float = 0.5, l2: float = 0.0,
                 tol: float = 0.0,
                 checkpoint_dir: Optional[str] = None):
    """Distributed binary logistic regression by full-batch gradient
    descent — the iterative-ML pattern beyond k-means: ONE streaming map
    pass per iteration (weights ``ray.put``-broadcast, per-block
    fixed-width gradient partials, driver reduce), driver state O(d).
    Full-batch (not SGD) keeps the result independent of partitioning up
    to float summation order. ``y = (label == positive_label)``.

    ``checkpoint_dir`` makes the loop RESUMABLE: each iteration's
    ``(w, b, losses)`` persist atomically and a rerun continues from the
    last completed iteration (fingerprinted vs corpus + parameters).

    Returns ``(w, b, losses)`` — weights, bias, and the per-iteration
    mean log-loss (computed at the weights BEFORE each step, so
    ``losses[0]`` is the ln(2) baseline of w=0)."""
    from ..state.iterate import checkpointed_loop

    dim = _dim_of(ds, vector_column)
    cols = ds.select_columns([vector_column, label_column])

    def step(state: dict, it: int):
        w = np.asarray(state["w"], dtype=np.float64)
        b = float(state["b"])
        losses = list(state["losses"])
        g, gb, loss, n = logreg_partials(
            cols, w, b, vector_column=vector_column,
            label_column=label_column, positive_label=positive_label)
        if n == 0:
            raise ValueError("logreg_train: no rows with a non-null "
                             "vector AND label")
        losses.append(loss / n + 0.5 * l2 * float(w @ w))
        w = w - lr * (g / n + l2 * w)
        b = b - lr * (gb / n)
        stop = bool(tol and len(losses) >= 2
                    and abs(losses[-2] - losses[-1]) < tol)
        return {"w": w, "b": float(b), "losses": losses}, stop

    fp = ""
    if checkpoint_dir:
        from ..util import corpus_fingerprint
        fp = corpus_fingerprint(
            ds, f"logreg:{vector_column}:{label_column}:{positive_label}:"
                f"{iters}:{lr}:{l2}:{tol}")
    state, _ = checkpointed_loop(
        step, {"w": np.zeros(dim, dtype=np.float64), "b": 0.0,
               "losses": []},
        iters, checkpoint_dir, fingerprint=fp)
    return (np.asarray(state["w"], dtype=np.float64), float(state["b"]),
            [float(v) for v in state["losses"]])


def logreg_predict(ds, w: np.ndarray, b: float,
                   vector_column: str = "embedding",
                   out_column: str = "score"):
    """Broadcast map-only scoring: append ``sigmoid(x·w + b)`` per row
    (null vectors get a null score). The weight vector is ``ray.put``
    once, never re-shipped per batch."""
    import ray

    wref = ray.put(np.ascontiguousarray(np.asarray(w, dtype=np.float64)))

    def score(t: pa.Table) -> pa.Table:
        ww = ray.get(wref)
        col = t.column(vector_column)
        col = (col.combine_chunks()
               if isinstance(col, pa.ChunkedArray) else col)
        valid = pc.is_valid(col)
        if not pc.all(valid).as_py():
            vt = t.filter(valid)
            s = _sigmoid(vectors_to_numpy(
                vt.column(vector_column).combine_chunks(),
                np.float64) @ ww + b)
            out = np.zeros(t.num_rows, dtype=np.float64)
            vmask = valid.to_numpy(zero_copy_only=False)
            out[vmask] = s
            return t.append_column(out_column,
                                   pa.array(out, mask=~vmask))
        s = _sigmoid(vectors_to_numpy(col, np.float64) @ ww + b)
        return t.append_column(out_column, pa.array(s))

    return map_batches(ds, score)
