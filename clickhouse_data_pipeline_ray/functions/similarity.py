"""Similarity search over an embedding column (list<float>).

Baseline: brute-force cosine top-k — per-batch numpy matmul against a
broadcast query matrix (queries ship once per actor via constructor args,
never per batch), emitting per-batch partial top-k; a tiny groupby over
(num_queries × k × num_batches) partials produces the global top-k. Only
partials move — the corpus never shuffles.

Scale path: IVF — centroid assignment per batch (broadcast centroid matrix),
then the same brute-force search restricted to the query's nprobe nearest
centroid buckets (a filter, not a shuffle).

The persisted IVF and PQ indexes are layouts of the shared bucket store
(``state/buckets.py``), bucketed by coarse centroid: a rebuild removes the
meta before it swaps the layout in and writes the centroids (PQ: the
``codes/_model``) and the meta last, so an index whose rebuild died raises
on read instead of probing new buckets with an old model.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from ..state.artifacts import load_meta
from ..state.buckets import bucket_files, swap_in
from ..state.manifest import atomic_json_write
from . import grow_from_one


def _to_matrix(col: pa.ChunkedArray) -> np.ndarray:
    arr = col.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    return flat.reshape(len(arr), -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(m, axis=1, keepdims=True)
    norm[norm == 0] = 1.0
    return m / norm


class BruteForceTopK:
    """Actor-pool stage: per-batch cosine top-k against broadcast queries."""

    def __init__(
        self,
        queries: np.ndarray,       # (Q, dim) — ships once per actor
        query_ids: list,
        k: int = 5,
        key_col: str = "vec_id",
        vec_col: str = "embedding",
        exclude_self: bool = True,
    ):
        self.q = _normalize(np.asarray(queries, dtype=np.float64))
        self.query_ids = np.asarray(query_ids)
        # arrow-typed once, so empty batches emit the same query_id type as
        # nonempty ones (a null-typed empty column would break block concat)
        self._qid_empty = pa.array(list(query_ids)).slice(0, 0)
        self.k, self.key_col, self.vec_col = k, key_col, vec_col
        self.exclude_self = exclude_self

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or len(self.query_ids) == 0:
            # empty pruned set (e.g. every probed IVF bucket is an empty
            # cluster): fold to an empty result instead of crashing on a
            # zero-size reshape / argpartition over a (Q, 0) score matrix
            return pa.table(
                {
                    "query_id": self._qid_empty,
                    "neighbor_id": batch.column(self.key_col).combine_chunks().slice(0, 0),
                    "score": pa.array([], pa.float64()),
                }
            )
        emb = _normalize(_to_matrix(batch.column(self.vec_col)))
        keys = batch.column(self.key_col).to_numpy(zero_copy_only=False)
        sims = self.q @ emb.T  # (Q, batch)
        if self.exclude_self:
            mask = self.query_ids[:, None] == keys[None, :]
            sims[mask] = -np.inf
        k = min(self.k, sims.shape[1])
        top = np.argpartition(-sims, kth=k - 1, axis=1)[:, :k]
        rows_q, rows_n, rows_s = [], [], []
        for qi in range(sims.shape[0]):
            idx = top[qi]
            rows_q.extend([self.query_ids[qi]] * len(idx))
            rows_n.extend(keys[idx].tolist())
            rows_s.extend(sims[qi, idx].tolist())
        return pa.table(
            {
                "query_id": pa.array(rows_q),
                "neighbor_id": pa.array(rows_n),
                "score": pa.array(np.asarray(rows_s, dtype=np.float64)),
            }
        )


def _final_topk(k: int):
    def fn(group: pd.DataFrame) -> pd.DataFrame:
        g = group.copy()
        g["score"] = g["score"].round(6)
        g = g.sort_values(
            ["score", "neighbor_id"], ascending=[False, True]
        ).head(k)
        g["rank"] = range(1, len(g) + 1)
        return g[["query_id", "rank", "neighbor_id", "score"]]

    return fn


def brute_force_topk(
    ds: "ray.data.Dataset | pa.Table",
    queries: np.ndarray,
    query_ids: list,
    k: int = 5,
    key_col: str = "vec_id",
    vec_col: str = "embedding",
    concurrency: int | tuple = 2,
    exclude_self: bool = True,
) -> pd.DataFrame:
    """Global cosine top-k for each query vector. Deterministic: scores are
    rounded to 6 decimals and ties break by neighbor_id ascending.

    Accepts a ``pa.Table`` for the LATENCY path (the point-lookup convention,
    pipelines/lookup.py): top-k serving over a small or index-pruned vector
    set runs the SAME ``BruteForceTopK`` kernel driver-side in one pass,
    skipping a Ray Dataset execution's ~1 s fixed cost. Identical results by
    construction — per-batch partial top-k followed by the global fold is
    associative, so one whole-table "batch" folds to the same answer."""
    if isinstance(ds, pa.Table):
        part = BruteForceTopK(
            queries=queries,
            query_ids=query_ids,
            k=k,
            key_col=key_col,
            vec_col=vec_col,
            exclude_self=exclude_self,
        )(ds)
        pdf = part.to_pandas()
        if pdf.empty:
            # groupby().apply on an empty frame moves query_id into the
            # index, making the later sort ambiguous — short-circuit typed
            pdf = pdf.assign(rank=pd.Series([], dtype="int64"))
            return pdf[["query_id", "rank", "neighbor_id", "score"]]
        return (
            pdf
            .groupby("query_id", group_keys=False, sort=False)
            .apply(_final_topk(k))
            .sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )
    partials = ds.map_batches(
        BruteForceTopK,
        fn_constructor_kwargs={
            "queries": queries,
            "query_ids": query_ids,
            "k": k,
            "key_col": key_col,
            "vec_col": vec_col,
            "exclude_self": exclude_self,
        },
        batch_format="pyarrow",
        concurrency=concurrency,
        num_cpus=0.5,
    )
    out = partials.groupby("query_id").map_groups(
        _final_topk(k), batch_format="pandas"
    )
    return (
        out.to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )


def kmeans_centroids(
    ds: ray.data.Dataset,
    n_centroids: int = 16,
    sample_rows: int = 2048,
    iters: int = 8,
    vec_col: str = "embedding",
    seed: int = 17,
) -> np.ndarray:
    """Mini k-means on a driver-side sample (centroids are tiny; the corpus
    itself never leaves the cluster). A ``pa.Table`` input samples the same
    leading rows driver-side — identical centroids for identical row order."""
    if isinstance(ds, pa.Table):
        sample = ds.slice(0, sample_rows).to_pandas()
    else:
        sample = ds.limit(sample_rows).to_pandas()
    x = _normalize(np.stack(sample[vec_col].to_numpy()).astype(np.float64))
    rng = np.random.default_rng(seed)
    cents = x[rng.choice(len(x), size=min(n_centroids, len(x)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(x @ cents.T, axis=1)
        for c in range(len(cents)):
            members = x[assign == c]
            if len(members):
                cents[c] = members.mean(axis=0)
        cents = _normalize(cents)
    return cents


def kmeans_lloyd(
    ds: "ray.data.Dataset | pa.Table",
    init_centroids: np.ndarray,
    iters: int = 10,
    tol: float = 1e-6,
    vec_col: str = "embedding",
) -> tuple[np.ndarray, list]:
    """Distributed spherical Lloyd iterations (full-corpus k-means E+M, the
    iterative refinement `kmeans_centroids`' driver-side sample can't do).

    Per iteration the corpus streams ONCE through a fused E+M pass: each
    batch assigns its vectors to the nearest current centroid (cosine) and
    emits (cid, sum_vec, n, inertia) partials — k × dim floats per batch,
    never the vectors; the driver folds the partials into new normalized
    means (k is driver-small by definition — it is the model size). Empty
    clusters keep their previous centroid. Stops early when every centroid
    moves less than ``tol`` (L2). Returns (centroids, inertia_history) with
    inertia = Σ (1 - cos(x, nearest centroid)) per iteration — the history
    is non-increasing up to the deterministic tie-break, which tests pin.

    A ``pa.Table`` input runs the same kernel driver-side in one pass per
    iteration (the brute_force_topk latency-path convention)."""
    cents = _normalize(np.asarray(init_centroids, dtype=np.float64))
    history: list = []

    def partials_fn(current: np.ndarray):
        def fn(batch: pa.Table) -> pa.Table:
            emb = _normalize(_to_matrix(batch.column(vec_col)))
            sims = emb @ current.T
            assign = np.argmax(sims, axis=1)
            chosen = sims[np.arange(len(assign)), assign]
            order = np.argsort(assign, kind="stable")
            sa, se = assign[order], emb[order]
            sc = chosen[order]
            if len(sa) == 0:
                return pa.table(
                    {
                        "cid": pa.array([], pa.int64()),
                        "psum": pa.array([], pa.list_(pa.float64())),
                        "n": pa.array([], pa.int64()),
                        "inertia": pa.array([], pa.float64()),
                    }
                )
            starts = np.flatnonzero(np.diff(sa, prepend=sa[0] - 1))
            sums = np.add.reduceat(se, starts, axis=0)
            counts = np.diff(np.append(starts, len(sa)))
            inert = np.add.reduceat(1.0 - sc, starts)
            return pa.table(
                {
                    "cid": pa.array(sa[starts].astype(np.int64), pa.int64()),
                    "psum": pa.array(list(sums), pa.list_(pa.float64())),
                    "n": pa.array(counts.astype(np.int64), pa.int64()),
                    "inertia": pa.array(inert, pa.float64()),
                }
            )

        return fn

    for _ in range(iters):
        fn = partials_fn(cents)
        if isinstance(ds, pa.Table):
            parts = fn(ds).to_pandas()
        else:
            parts = ds.map_batches(fn, batch_format="pyarrow").to_pandas()
        sums = np.zeros_like(cents)
        counts = np.zeros(len(cents), dtype=np.int64)
        inertia = 0.0
        for cid, psum, n, inert in zip(
            parts["cid"], parts["psum"], parts["n"], parts["inertia"]
        ):
            sums[cid] += np.asarray(psum, dtype=np.float64)
            counts[cid] += int(n)
            inertia += float(inert)
        history.append(inertia)
        new = cents.copy()
        nz = counts > 0
        new[nz] = _normalize(sums[nz] / counts[nz, None])
        shift = float(np.max(np.linalg.norm(new - cents, axis=1)))
        cents = new
        if shift < tol:
            break
    return cents, history


class IVFAssign:
    """Actor-pool stage: nearest-centroid bucket id per vector."""

    def __init__(self, centroids: np.ndarray, vec_col: str = "embedding"):
        self.cents = np.asarray(centroids, dtype=np.float64)
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("ivf_bucket", pa.array([], pa.int32()))
        emb = _normalize(_to_matrix(batch.column(self.vec_col)))
        assign = np.argmax(emb @ self.cents.T, axis=1)
        return batch.append_column("ivf_bucket", pa.array(assign.astype(np.int32)))


def build_ivf_index(
    ds: ray.data.Dataset,
    index_dir: str,
    n_centroids: int = 16,
    key_col: str = "vec_id",
    vec_col: str = "embedding",
    concurrency: int | tuple = 2,
    refine_iters: int = 0,
) -> dict:
    """One-time persisted IVF index: centroids + a bucket-partitioned parquet
    layout (`vectors/ivf_bucket=N/...`). This is the 100-TB path the per-call
    ``ivf_topk`` only approximates: the corpus is scanned ONCE at build time,
    and every subsequent search opens only its ``nprobe`` probed buckets'
    files — cost corpus×(nprobe/n_centroids) per query batch, zero full
    scans, and the bucket layout is shared by all future queries.

    IDEMPOTENT, in the whole-store rebuild order of ``state/buckets.py``:
    the vector layout is staged while the old index answers, then the meta
    is removed, the layout swapped in, the centroids and the meta written —
    a rebuild into a reused index_dir never leaves stale or duplicate
    vector files, and one that dies part-way leaves an index that raises
    on read instead of probing new buckets with old centroids."""
    cents = kmeans_centroids(ds, n_centroids=n_centroids, vec_col=vec_col)
    if refine_iters > 0:
        # opt-in distributed Lloyd refinement: the sample-trained centroids
        # are polished against the FULL corpus (one streamed E+M pass per
        # iteration) — tighter buckets, better recall-per-nprobe at scale
        cents, _ = kmeans_lloyd(ds, cents, iters=refine_iters, vec_col=vec_col)
    bucketed = ds.map_batches(
        IVFAssign,
        fn_constructor_kwargs={"centroids": cents, "vec_col": vec_col},
        batch_format="pyarrow",
        concurrency=concurrency,
        num_cpus=0.5,
    )
    swap_in(bucketed, os.path.join(index_dir, "vectors"), "ivf_bucket",
            drop_meta=index_dir)
    np.save(os.path.join(index_dir, "centroids.npy"), cents)
    meta = {
        "n_centroids": int(len(cents)),
        "dim": int(cents.shape[1]),
        "key_col": key_col,
        "vec_col": vec_col,
    }
    atomic_json_write(os.path.join(index_dir, "meta.json"), meta)
    return meta


def ivf_index_topk(
    index_dir: str,
    queries: np.ndarray,
    query_ids: list,
    k: int = 5,
    nprobe: int = 4,
    concurrency: int | tuple = 2,
    small_bytes: int = 256 << 20,
) -> pd.DataFrame:
    """Search a persisted IVF index: read ONLY the probed buckets' parquet
    partitions (file-level pruning — unprobed buckets are never opened),
    then the standard broadcast-query brute-force within them.

    Index search is a LATENCY surface: when the probed buckets total at most
    ``small_bytes`` on disk (the pruning has already done its job), they are
    read driver-side with pyarrow and searched with the same kernel in one
    pass — a few file reads beat a cluster round-trip (the point-lookup
    convention, pipelines/lookup.py). Larger probe sets take the distributed
    scan."""
    meta = load_meta(index_dir)
    cents = np.load(os.path.join(index_dir, "centroids.npy"))
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    probe = np.argsort(-(qn @ cents.T), axis=1)[:, :nprobe]
    wanted = sorted({int(b) for row in probe for b in row})
    vec_dir = os.path.join(index_dir, "vectors")
    paths = [p for b in wanted for p in bucket_files(vec_dir, "ivf_bucket", b)]
    if not paths:
        return pd.DataFrame({"query_id": [], "rank": [], "neighbor_id": [], "score": []})
    if sum(os.path.getsize(p) for p in paths) <= small_bytes:
        import pyarrow.parquet as pq

        tbl = pa.concat_tables(
            pq.read_table(p, columns=[meta["key_col"], meta["vec_col"]])
            for p in paths
        )
        return brute_force_topk(
            tbl, queries, query_ids, k=k,
            key_col=meta["key_col"], vec_col=meta["vec_col"],
        )
    pruned = ray.data.read_parquet(paths)
    return brute_force_topk(
        pruned, queries, query_ids, k=k,
        key_col=meta["key_col"], vec_col=meta["vec_col"],
        concurrency=concurrency,
    )


def ivf_topk(
    ds: "ray.data.Dataset | pa.Table",
    queries: np.ndarray,
    query_ids: list,
    k: int = 5,
    n_centroids: int = 16,
    nprobe: int = 4,
    key_col: str = "vec_id",
    vec_col: str = "embedding",
    concurrency: int | tuple = 2,
    centroids: np.ndarray | None = None,
) -> pd.DataFrame:
    """Approximate top-k: search only the nprobe nearest centroid buckets per
    query (the 100 TB path — prunes the scan instead of sharding it).
    ``centroids`` skips the k-means sampling pass when the caller already
    holds them (e.g. running several nprobe levels over one corpus).
    A ``pa.Table`` input runs the same assign/filter/search kernels
    driver-side (the latency path — see brute_force_topk)."""
    import pyarrow.compute as pc

    # shared between the latency (pa.Table) and distributed branches —
    # kmeans_centroids itself dispatches on the input kind, so centroid
    # resolution and the probe/wanted computation never drift between them
    # (q_ann_topk's branch-equality assertions depend on that)
    cents = (
        centroids
        if centroids is not None
        else kmeans_centroids(ds, n_centroids=n_centroids, vec_col=vec_col)
    )
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    probe = np.argsort(-(qn @ cents.T), axis=1)[:, :nprobe]
    wanted = sorted({int(b) for row in probe for b in row})
    if isinstance(ds, pa.Table):
        assigned = IVFAssign(centroids=cents, vec_col=vec_col)(ds)
        pruned = assigned.filter(
            pc.is_in(
                assigned.column("ivf_bucket"), value_set=pa.array(wanted, pa.int32())
            )
        )
        return brute_force_topk(
            pruned, queries, query_ids, k=k, key_col=key_col, vec_col=vec_col
        )
    bucketed = ds.map_batches(
        IVFAssign,
        fn_constructor_kwargs={"centroids": cents, "vec_col": vec_col},
        batch_format="pyarrow",
        concurrency=concurrency,
        num_cpus=0.5,
    )
    pruned = bucketed.map_batches(
        lambda b: b.filter(pc.is_in(b.column("ivf_bucket"), value_set=pa.array(wanted, pa.int32()))),
        batch_format="pyarrow",
    )
    return brute_force_topk(
        pruned, queries, query_ids, k=k, key_col=key_col, vec_col=vec_col,
        concurrency=concurrency,
    )


def label_centroids(
    ds: ray.data.Dataset,
    label_col: str = "label",
    vec_col: str = "embedding",
) -> tuple[np.ndarray, np.ndarray]:
    """Per-label mean vectors (the Rocchio / nearest-class-centroid model,
    and exactly one k-means M-step with labels as the assignment).

    Combiner discipline: each batch emits one (label, sum_vec, n) partial per
    label present — k × dim float64 per batch, never the vectors — and the
    driver folds the partials (k is the label-space size, driver-small by
    definition; at 10⁴+ labels the same partials feed a
    ``groupby(label).sum`` instead, the term_doc_frequency auto-switch
    shape). Returns (labels_sorted_asc, centroid_matrix)."""

    def partial(batch: pa.Table) -> pa.Table:
        labels = batch.column(label_col).to_numpy(zero_copy_only=False).astype(np.int64)
        emb = _to_matrix(batch.column(vec_col))
        order = np.argsort(labels, kind="stable")
        sl, se = labels[order], emb[order]
        starts = np.flatnonzero(np.diff(sl, prepend=sl[0] - 1)) if len(sl) else np.array([], np.int64)
        sums = np.add.reduceat(se, starts, axis=0) if len(sl) else np.zeros((0, emb.shape[1]))
        counts = np.diff(np.append(starts, len(sl)))
        return pa.table(
            {
                "label": pa.array(sl[starts], pa.int64()),
                "psum": pa.array(list(sums), pa.list_(pa.float64())),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    acc: dict = {}
    for lbl, psum, n in zip(parts["label"], parts["psum"], parts["n"]):
        s, c = acc.get(lbl, (0.0, 0))
        acc[lbl] = (s + np.asarray(psum, dtype=np.float64), c + int(n))
    labels = np.array(sorted(acc), dtype=np.int64)
    cents = np.stack([acc[l][0] / acc[l][1] for l in labels])
    return labels, cents


class CentroidAssign:
    """Actor-pool stage: nearest centroid by squared euclidean distance,
    ties broken by lowest centroid label (centroid rows are sorted by label
    asc, np.argmin takes the first minimum). The centroid matrix ships once
    per actor via ``fn_constructor_kwargs`` — never per batch."""

    def __init__(
        self,
        centroids: np.ndarray,
        centroid_labels: np.ndarray,
        vec_col: str = "embedding",
    ):
        order = np.argsort(np.asarray(centroid_labels))
        self.cents = np.asarray(centroids, dtype=np.float64)[order]
        self.labels = np.asarray(centroid_labels, dtype=np.int64)[order]
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column(
                "assigned_label", pa.array([], pa.int64())
            )
        emb = _to_matrix(batch.column(self.vec_col))
        d2 = ((emb[:, None, :] - self.cents[None, :, :]) ** 2).sum(axis=2)
        assigned = self.labels[np.argmin(d2, axis=1)]
        return batch.append_column(
            "assigned_label", pa.array(assigned, pa.int64())
        )


# Partial-row budget for the driver-side confusion combine; above it the
# final combine auto-switches to a distributed groupby over partial rows
# (the _multi_member_counts / term_doc_frequency convention).
_CONFUSION_DRIVER_ROW_LIMIT = 1_000_000


def nearest_centroid_confusion(
    ds: ray.data.Dataset,
    label_col: str = "label",
    vec_col: str = "embedding",
    concurrency: int | tuple = 2,
) -> pa.Table:
    """Two-phase broadcast-model pipeline: (1) per-label centroids from
    streamed partials, (2) assign every vector to its nearest centroid
    (actor pool, model in ``__init__``), (3) per-(true, assigned) confusion
    counts via per-batch bincount partials — ≤ k² integer rows per batch
    reach the driver, never the vectors. This is the Rocchio-classifier /
    k-means-E-step shape a curation pipeline uses for cluster-balanced
    sampling and SemDeDup-style pruning."""
    labels, cents = label_centroids(ds, label_col=label_col, vec_col=vec_col)
    k = len(labels)
    assigned = ds.map_batches(
        CentroidAssign,
        fn_constructor_kwargs={
            "centroids": cents,
            "centroid_labels": labels,
            "vec_col": vec_col,
        },
        batch_format="pyarrow",
        concurrency=concurrency,
        num_cpus=0.5,
    )
    def confusion_partial(batch: pa.Table) -> pa.Table:
        true = batch.column(label_col).to_numpy(zero_copy_only=False).astype(np.int64)
        asg = batch.column("assigned_label").to_numpy(zero_copy_only=False)
        # labels is sorted asc, so searchsorted is the exact index map
        ti = np.searchsorted(labels, true)
        ai = np.searchsorted(labels, asg)
        flat = np.bincount(ti * k + ai, minlength=k * k)
        nz = np.flatnonzero(flat)
        return pa.table(
            {
                "label": pa.array(labels[nz // k], pa.int64()),
                "assigned_label": pa.array(labels[nz % k], pa.int64()),
                "n_vecs": pa.array(flat[nz].astype(np.int64), pa.int64()),
            }
        )

    partials = assigned.map_batches(
        confusion_partial, batch_format="pyarrow"
    ).materialize()
    # measured auto-switch (the _multi_member_counts convention): partial
    # rows are ≤ k² per batch; if blocks × k² outgrows the driver budget,
    # the combine stays in the cluster as a groupby over partial rows only
    if partials.count() > _CONFUSION_DRIVER_ROW_LIMIT:
        from ray.data.aggregate import Sum

        parts = (
            partials.groupby(["label", "assigned_label"])
            .aggregate(Sum("n_vecs", alias_name="n_vecs"))
            .to_pandas()
        )
        out = parts.sort_values(["label", "assigned_label"]).reset_index(drop=True)
    else:
        parts = partials.to_pandas()
        out = (
            parts.groupby(["label", "assigned_label"], as_index=False)["n_vecs"]
            .sum()
            .sort_values(["label", "assigned_label"])
            .reset_index(drop=True)
        )
    out["n_vecs"] = out["n_vecs"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


# ---------------------------------------------------------------------------
# Product quantization (IVFADC) — the vector-COMPRESSION scale path
# (Jegou, Douze & Schmid, "Product Quantization for Nearest Neighbor
# Search", TPAMI 2011). Vectors become m uint8 codes (m bytes vs 4·dim —
# 32-512x smaller), searched via per-query ADC lookup tables; combined with
# the IVF coarse quantizer, a query reads only its nprobe buckets' CODES.
# At 100 TB of raw embeddings the code layout is the only thing that still
# fits a cache tier. Distances are squared-L2 over unit vectors (the same
# ordering as cosine: ||a-b||^2 = 2 - 2cos); scores surface as the
# cosine-equivalent 1 - d2/2 so results align with brute_force_topk's.
# ---------------------------------------------------------------------------


def _subspace_kmeans(
    x: np.ndarray, ksub: int, iters: int, rng: np.random.Generator
) -> np.ndarray:
    """Plain (L2) Lloyd on one subspace of the training sample. Empty
    clusters keep their previous centroid (the kmeans_lloyd convention)."""
    k = min(ksub, len(x))
    cents = x[rng.choice(len(x), size=k, replace=False)].copy()
    for _ in range(iters):
        d = (
            (x**2).sum(1)[:, None]
            - 2.0 * x @ cents.T
            + (cents**2).sum(1)[None, :]
        )
        assign = np.argmin(d, axis=1)
        for c in range(k):
            members = x[assign == c]
            if len(members):
                cents[c] = members.mean(axis=0)
    return cents


def train_pq(
    residuals: np.ndarray,
    m: int = 8,
    ksub: int = 256,
    iters: int = 10,
    seed: int = 17,
) -> np.ndarray:
    """Train per-subspace codebooks on a driver-side residual sample.

    Returns (m, k, dsub) float64 — the PQ model, KBs however big the
    corpus (like IVF centroids, it ships once per actor). dim must divide
    evenly into m subspaces. k may be < ksub on tiny samples."""
    x = np.asarray(residuals, dtype=np.float64)
    dim = x.shape[1]
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m={m} subspaces")
    dsub = dim // m
    rng = np.random.default_rng(seed)
    books = [
        _subspace_kmeans(x[:, j * dsub : (j + 1) * dsub], ksub, iters, rng)
        for j in range(m)
    ]
    k = min(len(b) for b in books)
    return np.stack([b[:k] for b in books])


def pq_encode(x: np.ndarray, codebooks: np.ndarray) -> np.ndarray:
    """Vectorized encoding: (n, dim) residuals -> (n, m) uint8 codes."""
    m, _, dsub = codebooks.shape
    n = len(x)
    codes = np.empty((n, m), np.uint8)
    for j in range(m):
        sub = x[:, j * dsub : (j + 1) * dsub]
        cb = codebooks[j]
        d = (
            (sub**2).sum(1)[:, None]
            - 2.0 * sub @ cb.T
            + (cb**2).sum(1)[None, :]
        )
        codes[:, j] = np.argmin(d, axis=1)
    return codes


def pq_decode(codes: np.ndarray, codebooks: np.ndarray) -> np.ndarray:
    """Reconstruct (n, dim) vectors from codes (the quantized approximation)."""
    m, _, dsub = codebooks.shape
    return np.concatenate(
        [codebooks[j][codes[:, j]] for j in range(m)], axis=1
    )


def pq_adc_dists(
    residual_q: np.ndarray, codes: np.ndarray, codebooks: np.ndarray
) -> np.ndarray:
    """Asymmetric distance computation: exact squared-L2 between the query
    residual and each code's RECONSTRUCTION, via one (m, k) lookup table —
    never decoding the corpus. Identity pinned by tests:
    adc(q, c) == ||q - decode(c)||^2 up to fp summation order."""
    m, _, dsub = codebooks.shape
    lut = np.stack(
        [
            ((codebooks[j] - residual_q[j * dsub : (j + 1) * dsub]) ** 2).sum(1)
            for j in range(m)
        ]
    )  # (m, k)
    return lut[np.arange(m)[None, :], codes].sum(axis=1)


def _codes_to_arrow(codes: np.ndarray) -> pa.Array:
    n, m = codes.shape
    return pa.FixedSizeBinaryArray.from_buffers(
        pa.binary(m), n, [None, pa.py_buffer(np.ascontiguousarray(codes).tobytes())]
    )


def _codes_from_arrow(col: pa.ChunkedArray, m: int) -> np.ndarray:
    arr = col.combine_chunks()
    if len(arr) == 0:
        return np.empty((0, m), np.uint8)
    return np.frombuffer(
        arr.buffers()[1], dtype=np.uint8, count=len(arr) * m,
        offset=arr.offset * m,
    ).reshape(len(arr), m)


class PQEncode:
    """Actor-pool stage: coarse-assign each vector, encode its RESIDUAL
    (x - centroid) with the broadcast codebooks. Residual encoding is what
    makes IVFADC beat flat PQ: within a bucket the residual energy is a
    fraction of the vector's, so 8 bits/subspace go much further."""

    def __init__(
        self,
        centroids: np.ndarray,
        codebooks: np.ndarray,
        vec_col: str = "embedding",
        key_col: str = "vec_id",
    ):
        self.cents = np.asarray(centroids, dtype=np.float64)
        self.books = np.asarray(codebooks, dtype=np.float64)
        self.vec_col, self.key_col = vec_col, key_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = self.books.shape[0]
        if batch.num_rows == 0:
            return pa.table(
                {
                    self.key_col: batch.column(self.key_col),
                    "ivf_bucket": pa.array([], pa.int32()),
                    "codes": _codes_to_arrow(np.empty((0, m), np.uint8)),
                }
            )
        emb = _normalize(_to_matrix(batch.column(self.vec_col)))
        assign = np.argmax(emb @ self.cents.T, axis=1)
        codes = pq_encode(emb - self.cents[assign], self.books)
        return pa.table(
            {
                self.key_col: batch.column(self.key_col),
                "ivf_bucket": pa.array(assign.astype(np.int32)),
                "codes": _codes_to_arrow(codes),
            }
        )


def build_pq_index(
    ds: ray.data.Dataset,
    index_dir: str,
    n_centroids: int = 16,
    m: int = 8,
    ksub: int = 256,
    sample_rows: int = 4096,
    key_col: str = "vec_id",
    vec_col: str = "embedding",
    concurrency: int | tuple = 2,
    refine_iters: int = 0,
) -> dict:
    """One-time persisted IVFADC index: coarse centroids + residual PQ
    codebooks + a bucket-partitioned parquet layout of (key, codes) — the
    corpus is scanned once; every vector persists as m BYTES.

    Codes are only meaningful together with the EXACT model that produced
    them (ADC decodes against the codebooks), so the model artifacts live
    INSIDE the codes directory (``codes/_model/``), and a rebuild follows
    the whole-store order of ``state/buckets.py`` — meta removed, codes
    swapped in, model and meta written last — so a crash mid-rebuild
    leaves an index that raises on read, never new codes under old
    codebooks."""
    # one driver-side sample feeds both the coarse centroids and the PQ
    # residual training (identical leading rows either way)
    sample = ds.limit(sample_rows).to_pandas()
    sample_tbl = pa.Table.from_pandas(sample, preserve_index=False)
    cents = kmeans_centroids(
        sample_tbl, n_centroids=n_centroids, sample_rows=sample_rows,
        vec_col=vec_col,
    )
    if refine_iters > 0:
        cents, _ = kmeans_lloyd(ds, cents, iters=refine_iters, vec_col=vec_col)
    x = _normalize(np.stack(sample[vec_col].to_numpy()).astype(np.float64))
    books = train_pq(
        x - cents[np.argmax(x @ cents.T, axis=1)], m=m, ksub=ksub
    )
    coded = ds.map_batches(
        PQEncode,
        fn_constructor_kwargs={
            "centroids": cents, "codebooks": books,
            "vec_col": vec_col, "key_col": key_col,
        },
        batch_format="pyarrow",
        concurrency=grow_from_one(concurrency),
        num_cpus=0.5,
    )
    code_dir = os.path.join(index_dir, "codes")
    swap_in(coded, code_dir, "ivf_bucket", drop_meta=index_dir)
    model_dir = os.path.join(code_dir, "_model")
    os.makedirs(model_dir)
    np.save(os.path.join(model_dir, "centroids.npy"), cents)
    np.save(os.path.join(model_dir, "codebooks.npy"), books)
    meta = {
        "n_centroids": int(len(cents)),
        "dim": int(cents.shape[1]),
        "m": int(books.shape[0]),
        "ksub": int(books.shape[1]),
        "key_col": key_col,
        "vec_col": vec_col,
        "bytes_per_vector": int(books.shape[0]),
    }
    atomic_json_write(os.path.join(index_dir, "meta.json"), meta)
    return meta


def pq_index_topk(
    index_dir: str,
    queries: np.ndarray,
    query_ids: list,
    k: int = 5,
    nprobe: int = 4,
    rerank: int = 0,
    source: str | None = None,
) -> pd.DataFrame:
    """Search a persisted IVFADC index: open ONLY the nprobe probed buckets'
    code files (m bytes/vector), score by ADC lookup tables, merge top-k.

    Driver-side by design — the probed code slices are tiny (the whole
    point of PQ); a 10M-vector bucket at m=8 is 80 MB. Scores are the
    cosine-equivalent 1 - d2/2 of the QUANTIZED corpus vectors, so they
    approximate brute_force_topk's to within the quantization error.

    ``rerank=R`` with ``source=<parquet of the original vectors>``: the ADC
    pass generates R candidates per query, then ONE key-filtered parquet
    read fetches just those originals (Q × R rows however big the corpus —
    the FAISS IVFPQR / DiskANN refinement shape) and exact cosine re-scores
    them. On near-tie corpora this lifts recall@5 from ~0.5 to ~1.0 at
    R=10k's cost of a point lookup; scores become TRUE cosines."""
    import pyarrow.parquet as pq_

    # meta is written after the codes and their model, so a committed meta
    # never pairs codes with another build's codebooks
    meta = load_meta(index_dir)
    code_dir = os.path.join(index_dir, "codes")
    model_dir = os.path.join(code_dir, "_model")
    cents = np.load(os.path.join(model_dir, "centroids.npy"))
    books = np.load(os.path.join(model_dir, "codebooks.npy"))
    m = books.shape[0]
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    probe = np.argsort(-(qn @ cents.T), axis=1)[:, :nprobe]
    bucket_cache: dict[int, tuple] = {}

    def load_bucket(b: int):
        if b not in bucket_cache:
            files = bucket_files(code_dir, "ivf_bucket", b)
            if not files:
                bucket_cache[b] = (np.array([], object), np.empty((0, m), np.uint8))
            else:
                t = pa.concat_tables(
                    pq_.read_table(f, columns=[meta["key_col"], "codes"])
                    for f in files
                )
                bucket_cache[b] = (
                    t.column(meta["key_col"]).to_numpy(zero_copy_only=False),
                    _codes_from_arrow(t.column("codes"), m),
                )
        return bucket_cache[b]

    if rerank and not source:
        raise ValueError("rerank needs source=<parquet of original vectors>")
    per_query: list[tuple] = []
    for qi, q in enumerate(qn):
        cand_keys, cand_d = [], []
        for b in probe[qi]:
            keys, codes = load_bucket(int(b))
            if not len(keys):
                continue
            d2 = pq_adc_dists(q - cents[int(b)], codes, books)
            cand_keys.append(keys)
            cand_d.append(d2)
        if not cand_keys:
            per_query.append((np.array([], object), np.array([])))
            continue
        keys = np.concatenate(cand_keys)
        d2 = np.concatenate(cand_d)
        score = 1.0 - d2 / 2.0
        # deterministic tie-break: score desc, neighbor id asc (the
        # _final_topk convention)
        order = np.lexsort((keys, -score.round(6)))[: max(k, rerank)]
        per_query.append((keys[order], score[order]))

    if rerank:
        wanted = sorted(
            {key for keys, _ in per_query for key in keys.tolist()}
        )
        src = pq_.read_table(
            source,
            columns=[meta["key_col"], meta["vec_col"]],
            filters=[(meta["key_col"], "in", wanted)],
        )
        src_keys = src.column(meta["key_col"]).to_numpy(zero_copy_only=False)
        src_vecs = _normalize(_to_matrix(src.column(meta["vec_col"])))
        pos = {key: i for i, key in enumerate(src_keys.tolist())}
        rescored = []
        for qi, (keys, _) in enumerate(per_query):
            present = np.array([key in pos for key in keys.tolist()], bool)
            keys = keys[present]
            idx = np.array([pos[key] for key in keys.tolist()], np.int64)
            score = src_vecs[idx] @ qn[qi] if len(idx) else np.array([])
            rescored.append((keys, score))
        per_query = rescored

    rows = []
    for qi, (keys, score) in enumerate(per_query):
        # rounded scores, like _final_topk: ranking and the returned score
        # agree, and output compares exactly against the other top-k paths
        score = score.round(6) if len(score) else score
        order = np.lexsort((keys, -score))[:k] if len(keys) else []
        for rank, idx in enumerate(order, 1):
            rows.append((query_ids[qi], rank, keys[idx], float(score[idx])))
    return pd.DataFrame(
        rows, columns=["query_id", "rank", "neighbor_id", "score"]
    )


# ---------------------------------------------------------------------------
# Incremental ANN index over a COMMITTED table — one of the table-derived
# artifacts kept by the shared refresh (state/artifacts.py), applied to
# vectors: each partition's (key, vector) rows are one partial, split into
# coarse-bucket files, and a refresh re-derives ONLY the partitions whose
# file chains changed. Updates and deletes are handled for free because
# each partition's slice is REPLACED from its current merged LWW snapshot.
# ---------------------------------------------------------------------------


def refresh_table_ann_index(
    table_dir: str,
    index_dir: str,
    n_centroids: int = 16,
    vec_col: str = "embedding",
    sample_rows: int = 4096,
) -> dict:
    """Build — or incrementally refresh — a persisted IVF index over a
    committed table's merged snapshot, with the shared artifact protocol
    (``state.artifacts``).

    Layout: ``vectors/pid=P/bucket=B.parquet`` (key + raw vector) +
    ``vectors/_model/centroids.npy`` + ``meta.json``. The coarse centroids
    are trained at a full rebuild and PINNED: retraining on a refresh would
    silently re-bucket the unchanged partitions' vectors without rewriting
    them (stale layout). A full rebuild (layout change, different
    n_centroids/vec_col) retrains and commits the centroids in the same
    swap as the vectors they bucketed; the old index stays searchable while
    it derives."""
    from ..state.artifacts import refresh_table_partials
    from ..state.manifest import load_manifest
    from ..stages.merge import read_partition_final

    man = load_manifest(table_dir)
    key_col = man.key_col
    cols = [key_col, vec_col]

    def pinned_centroids(root: str, full: bool):
        path = os.path.join(root, "_model", "centroids.npy")
        if full:
            # train the pinned coarse model on a snapshot sample
            sample_parts, seen = [], 0
            for p in sorted(man.partitions, key=int):
                files = man.partitions[p].get("files") or []
                if not files:
                    continue
                t = read_partition_final(
                    table_dir, files, man.schema, man.mode, man.sum_cols,
                    columns=cols,
                )
                sample_parts.append(t)
                seen += t.num_rows
                if seen >= sample_rows:
                    break
            if not sample_parts or seen == 0:
                raise ValueError(
                    f"table {table_dir} holds no rows to train centroids on"
                )
            sample = pa.concat_tables(sample_parts).slice(0, sample_rows)
            os.makedirs(os.path.dirname(path))
            np.save(path, kmeans_centroids(
                sample, n_centroids=n_centroids, sample_rows=sample_rows,
                vec_col=vec_col,
            ))
        cents = np.load(path)

        def derive(snap: pa.Table) -> pa.Table:
            snap = snap.select(cols)
            if snap.num_rows:
                emb = _normalize(_to_matrix(snap.column(vec_col)))
                assign = np.argmax(emb @ cents.T, axis=1).astype(np.int32)
            else:
                assign = np.empty(0, np.int32)
            return snap.append_column("bucket", pa.array(assign))

        return derive

    params = {"n_centroids": int(n_centroids), "vec_col": vec_col, "key_col": key_col}
    res = refresh_table_partials(
        table_dir, index_dir, params, None, columns=cols,
        layout="vectors", bucketed=True, prepare=pinned_centroids,
    )
    cents = np.load(os.path.join(index_dir, "vectors", "_model", "centroids.npy"))
    return {**res, "dim": int(cents.shape[1])}


def ann_table_index_topk(
    index_dir: str,
    queries: np.ndarray,
    query_ids: list,
    k: int = 5,
    nprobe: int = 4,
    small_bytes: int = 256 << 20,
) -> pd.DataFrame:
    """Cosine top-k over a table ANN index: opens only the ``nprobe`` probed
    coarse buckets' files (across all table partitions) — EXACT within the
    probed buckets (raw vectors, no quantization)."""
    import pyarrow.parquet as pq_

    from ..state.artifacts import partial_files

    meta = load_meta(index_dir)
    cents = np.load(os.path.join(index_dir, "vectors", "_model", "centroids.npy"))
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    probe = np.argsort(-(qn @ cents.T), axis=1)[:, :nprobe]
    paths = partial_files(index_dir, meta, {int(b) for row in probe for b in row})
    if not paths:
        return pd.DataFrame(
            {"query_id": [], "rank": [], "neighbor_id": [], "score": []}
        )
    # the probed slices are RAW vectors (unlike PQ codes) — past small_bytes
    # take the distributed scan instead of a driver concat (the
    # ivf_index_topk convention)
    if sum(os.path.getsize(p) for p in paths) <= small_bytes:
        tbl = pa.concat_tables(
            pq_.read_table(p, columns=[meta["key_col"], meta["vec_col"]])
            for p in paths
        )
        return brute_force_topk(
            tbl, queries, query_ids, k=k,
            key_col=meta["key_col"], vec_col=meta["vec_col"],
            exclude_self=False,
        )
    pruned = ray.data.read_parquet(
        paths, columns=[meta["key_col"], meta["vec_col"]]
    )
    return brute_force_topk(
        pruned, queries, query_ids, k=k,
        key_col=meta["key_col"], vec_col=meta["vec_col"], exclude_self=False,
    )
