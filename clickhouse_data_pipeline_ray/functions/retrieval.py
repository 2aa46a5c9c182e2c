"""Lexical retrieval: BM25 top-k over a document corpus.

Completes the engine's similarity-search family: `functions/similarity.py`
covers the dense/embedding side (brute-force + IVF ANN); this module covers
the sparse/lexical side a training-data curation stack needs — query-based
corpus inspection, contamination triage ("which docs mention this eval
phrase?"), and boolean-ish filtering with ranked output. The reference
pipeline has no search surface at all (its analytics stop at the KPI views,
/root/reference/etl/clickhouse_schema/kpi_views.sql); this is a beyond-
reference operator in the same class as the ANN queries.

Formula: Okapi BM25 (Robertson–Spärck Jones, public knowledge) with the
standard +1 idf smoothing so idf is always positive:

    idf(t)      = ln((N - df_t + 0.5) / (df_t + 0.5) + 1)
    score(d, q) = Σ_{t ∈ q} idf(t) · tf_{t,d}·(k1+1)
                  / (tf_{t,d} + k1·(1 - b + b·|d|/avgdl))

Scale design (100 TB corpus, small query):

- **Phase 1 (corpus stats)** is a map-only pass that reduces each block to a
  SINGLE partial row (n_docs, Σ|d|, and a df vector aligned to the sorted
  query terms) — O(blocks) driver state, no shuffle. Only the |q| query
  terms are counted; the corpus vocabulary never materializes anywhere.
- **Phase 2 (scoring)** broadcasts the tiny (terms, idf, avgdl) model once
  per actor (``fn_constructor_kwargs``) and scores each block vectorized:
  one Arrow split kernel, one searchsorted against the sorted query terms,
  one bincount for the (doc × term) tf matrix — no Python loop over rows or
  terms. Each block emits only its local top-k (docs matching ≥1 term), so
  the driver merge sees O(blocks × k) rows. No shuffle in either phase.
- Tokenization matches ``term_doc_frequency``/the SQL twin exactly: split on
  a single space, no lowercasing, no stemming — so the pytest DuckDB oracle
  (string_split + unnest) reproduces tf/df/|d| bit-for-bit and scores agree
  to float tolerance.

Determinism: results are block-partitioning-invariant (tf/df/avgdl are
global sums; ties break by doc_id ascending) — pinned by the block-count
invariance test.

The persisted text index (``build_text_index`` / ``bm25_index_topk``) is a
layout of the shared bucket store (``state/buckets.py``): postings are
bucketed by term hash, and a rebuild removes the meta before it swaps the
postings in and writes the meta last, so an index whose rebuild died
raises on read instead of answering under a stale meta.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..state.artifacts import load_meta
from ..state.buckets import bucket_files, swap_in
from ..state.manifest import atomic_json_write
from . import grow_from_one

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75


def _terms_of(query: str | list[str]) -> np.ndarray:
    """Sorted unique query terms (BM25 scores each distinct term once;
    duplicates in the query string carry no extra weight by convention)."""
    terms = query.split(" ") if isinstance(query, str) else list(query)
    uniq = sorted({t for t in terms if t})
    if not uniq:
        raise ValueError("BM25 query has no non-empty terms")
    return np.array(uniq, dtype=object)


def _split_docs(batch: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(doc word-lengths, flattened words, row index per word) — one Arrow
    split kernel + one repeat; the shared tokenization of the module.
    NULL text is a zero-length doc (fill_null before the cast — a null list
    length is null, not 0, and poisons np.repeat; list_flatten already
    skips null rows so words/rows stay aligned)."""
    lists = pc.split_pattern(batch.column("text"), pattern=" ").combine_chunks()
    lens = pc.fill_null(pc.list_value_length(lists), 0).cast(pa.int64()).to_numpy(
        zero_copy_only=False
    )
    words = pc.list_flatten(lists).to_numpy(zero_copy_only=False).astype(object)
    rows = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    return lens, words, rows


def _bm25_scores(
    tf: np.ndarray, dl: np.ndarray, idf: np.ndarray, avgdl: float, k1: float, b: float
) -> np.ndarray:
    """THE scoring kernel — every path (streaming scorer, text index, table
    token index) calls this one function, which is what makes their results
    bitwise-identical: same float64 ops in the same order, never three
    hand-synchronized copies."""
    denom = tf + k1 * (1.0 - b + b * (dl[:, None] / avgdl))
    return (idf[None, :] * tf * (k1 + 1.0) / denom).sum(axis=1)


def _rank_topk(doc_ids: np.ndarray, score: np.ndarray, k: int) -> pa.Table:
    """(rank, doc_id, score) for the global top-k with the shared tie-break
    (score DESC, doc_id ASC); zero-score docs (no query term) are excluded."""
    matched = score > 0.0
    d, s = doc_ids[matched], score[matched]
    order = np.lexsort((d, -s))[:k]
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
            "doc_id": pa.array(d[order]),
            "score": pa.array(s[order], pa.float64()),
        }
    )


def _postings_dense(
    tbl: pa.Table, qarr: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(unique docs, doc×term tf matrix, dl per doc, df per term) from
    postings rows already filtered to the query terms — shared by both
    persisted-index query paths."""
    nq = len(qarr)
    terms = tbl.column("term").to_numpy(zero_copy_only=False).astype(qarr.dtype)
    tidx = np.searchsorted(qarr, terms)
    df = np.bincount(tidx, minlength=nq).astype(np.int64)
    doc_ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
    udocs, dinv = np.unique(doc_ids, return_inverse=True)
    tf = np.zeros((len(udocs), nq), dtype=np.float64)
    tf[dinv, tidx] = tbl.column("tf").to_numpy(zero_copy_only=False).astype(np.float64)
    dl = np.zeros(len(udocs), dtype=np.float64)
    dl[dinv] = tbl.column("dl").to_numpy(zero_copy_only=False).astype(np.float64)
    return udocs, tf, dl, df


def _empty_result(doc_id_type: pa.DataType = pa.int64()) -> pa.Table:
    return pa.table(
        {
            "rank": pa.array([], pa.int64()),
            "doc_id": pa.array([], doc_id_type),
            "score": pa.array([], pa.float64()),
        }
    )


def _type_from_name(name: str | None) -> pa.DataType:
    """Arrow type from the meta.json doc_id_type string (int64/string cover
    every table this engine writes; unknown names default to int64)."""
    return {"string": pa.string(), "large_string": pa.large_string()}.get(
        name or "int64", pa.int64()
    )


def _match_terms(words: np.ndarray, qarr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hit mask over words, query-term index per word) via searchsorted
    against the sorted query terms — O(W log |q|), no per-term pass."""
    idx = np.searchsorted(qarr, words)
    idx = np.clip(idx, 0, len(qarr) - 1)
    hit = qarr[idx] == words
    return hit, idx


def corpus_stats(
    ds: ray.data.Dataset, query: str | list[str]
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Phase 1: (sorted terms, df per term, N, avgdl) for the query terms
    only. One map-only pass; each block contributes ONE partial row."""
    qarr = _terms_of(query)
    nq = len(qarr)

    def partial(b: pa.Table) -> pa.Table:
        lens, words, rows = _split_docs(b)
        hit, idx = _match_terms(words, qarr)
        # df: distinct (row, term) pairs per term
        pair = np.unique(rows[hit] * nq + idx[hit])
        df = np.bincount((pair % nq).astype(np.int64), minlength=nq)
        return pa.table(
            {
                "n_docs": pa.array([len(lens)], pa.int64()),
                "sum_len": pa.array([int(lens.sum())], pa.int64()),
                "df": pa.array([df.tolist()], pa.list_(pa.int64())),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    n_docs = int(parts["n_docs"].sum())
    if n_docs == 0:
        return qarr, np.zeros(nq, np.int64), 0, 0.0
    avgdl = float(parts["sum_len"].sum()) / n_docs
    df = np.sum(np.stack(parts["df"].to_numpy()), axis=0).astype(np.int64)
    return qarr, df, n_docs, avgdl


class BM25Scorer:
    """Actor-pool scoring stage: the (terms, idf, avgdl) model is built once
    per actor in ``__init__``; ``__call__`` scores one block vectorized and
    emits only the block-local top-k (docs matching ≥1 query term)."""

    def __init__(
        self,
        terms: list[str],
        idf: list[float],
        avgdl: float,
        k: int,
        k1: float = DEFAULT_K1,
        b: float = DEFAULT_B,
    ) -> None:
        self.qarr = np.array(terms, dtype=object)
        self.idf = np.asarray(idf, dtype=np.float64)
        self.avgdl = float(avgdl)
        self.k = int(k)
        self.k1 = float(k1)
        self.b = float(b)

    def __call__(self, batch: pa.Table) -> pa.Table:
        lens, words, rows = _split_docs(batch)
        nq = len(self.qarr)
        hit, idx = _match_terms(words, self.qarr)
        flat = rows[hit] * nq + idx[hit]
        tf = (
            np.bincount(flat, minlength=len(lens) * nq)
            .reshape(len(lens), nq)
            .astype(np.float64)
        )
        score = _bm25_scores(
            tf, lens.astype(np.float64), self.idf, self.avgdl, self.k1, self.b
        )
        local = _rank_topk(
            batch.column("doc_id").to_numpy(zero_copy_only=False), score, self.k
        )
        return local.drop_columns(["rank"])


def bm25_topk(
    ds: ray.data.Dataset,
    query: str | list[str],
    k: int = 10,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
    concurrency: int = 2,
) -> pa.Table:
    """BM25 top-k over a Dataset with (doc_id, text) columns. Returns
    (rank, doc_id, score) sorted by score DESC, doc_id ASC; docs matching no
    query term are excluded (their score is exactly 0)."""
    try:
        did_type = ds.schema().base_schema.field("doc_id").type
    except Exception:
        did_type = pa.int64()
    empty = _empty_result(did_type)
    qarr, df, n_docs, avgdl = corpus_stats(ds, query)
    if n_docs == 0 or not df.any():
        # empty corpus, or no query term occurs anywhere: every score is
        # exactly 0 and the scoring pass would stream the corpus for nothing
        return empty
    idf = np.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
    parts = ds.map_batches(
        BM25Scorer,
        fn_constructor_kwargs={
            "terms": qarr.tolist(),
            "idf": idf.tolist(),
            "avgdl": avgdl,
            "k": k,
            "k1": k1,
            "b": b,
        },
        batch_format="pyarrow",
        concurrency=grow_from_one(concurrency),
        num_cpus=0.5,
    ).to_pandas()
    if parts.empty:
        return empty
    out = parts.sort_values(
        ["score", "doc_id"], ascending=[False, True], kind="mergesort"
    ).head(k)
    out = out.assign(rank=np.arange(1, len(out) + 1, dtype=np.int64))
    return pa.Table.from_pandas(
        out[["rank", "doc_id", "score"]].reset_index(drop=True),
        preserve_index=False,
    )


# ---------------------------------------------------------------------------
# Persisted inverted index — the 100-TB path (the lexical analog of
# similarity.build_ivf_index / ivf_index_topk): the corpus is scanned ONCE at
# build time into a term-hash-bucketed postings layout; every subsequent
# query opens ONLY the buckets its terms hash to (file-level pruning), reads
# a few small parquet files driver-side, and scores with the exact same
# dense kernel as the streaming path — bitwise-identical results, zero
# corpus scans per query.
# ---------------------------------------------------------------------------


def _term_buckets(terms: np.ndarray, num_buckets: int) -> np.ndarray:
    """Deterministic term → bucket hash (pandas hash_array — stable across
    processes/partitionings, unlike builtin str hash under PYTHONHASHSEED)."""
    from pandas.util import hash_array

    return (hash_array(terms.astype(object)) % np.uint64(num_buckets)).astype(np.int64)


def build_text_index(
    ds: ray.data.Dataset,
    index_dir: str,
    num_buckets: int = 64,
) -> dict:
    """One-time inverted index over (doc_id, text): postings rows
    (term, doc_id, tf, dl) partitioned by ``bucket = hash(term) % B``, plus
    corpus stats (N, avgdl) in meta.json. Postings extraction is one
    vectorized map pass (split → factorize → unique (row, term) pairs with
    counts), and it is genuinely the ONLY corpus pass: each block also emits
    one stats sentinel row (bucket=STATS_BUCKET) carrying (n_docs, sum_len),
    which the driver sums into meta after the write — no second scan.
    A rebuild follows the whole-store order of ``state/buckets.py``: the
    new postings are staged while the old index answers, then the meta is
    removed, the postings swapped in and the new meta written — a rebuild
    that dies after the staging leaves an index that raises on read, never
    postings that ``bm25_index_topk`` reads under a stale meta."""
    import shutil

    import pyarrow.parquet as pq

    nb = int(num_buckets)

    def postings(b: pa.Table) -> pa.Table:
        lens, words, rows = _split_docs(b)
        doc_ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        did_type = b.schema.field("doc_id").type
        stats = pa.table(
            {
                "bucket": pa.array([STATS_BUCKET], pa.int64()),
                "term": pa.array([""], pa.string()),
                "doc_id": pa.array([None], did_type),
                "tf": pa.array([b.num_rows], pa.int64()),
                "dl": pa.array([int(lens.sum())], pa.int64()),
            }
        )
        if len(words) == 0:
            return stats
        uvals, inv = np.unique(words, return_inverse=True)
        pair = rows * len(uvals) + inv
        upair, tf = np.unique(pair, return_counts=True)
        prow = (upair // len(uvals)).astype(np.int64)
        pterm = (upair % len(uvals)).astype(np.int64)
        terms = uvals[pterm]
        body = pa.table(
            {
                "bucket": pa.array(_term_buckets(terms, nb)),
                "term": pa.array(terms.astype(str)),
                "doc_id": pa.array(doc_ids[prow]),
                "tf": pa.array(tf.astype(np.int64)),
                "dl": pa.array(lens[prow]),
            }
        )
        return pa.concat_tables([body, stats.cast(body.schema)])

    post_dir = os.path.join(index_dir, "postings")
    swap_in(
        ds.map_batches(postings, batch_format="pyarrow"), post_dir, "bucket",
        drop_meta=index_dir,
    )
    stats_dir = os.path.join(post_dir, f"bucket={STATS_BUCKET}")
    n_docs, sum_len, did_type_name = 0, 0, "int64"
    if os.path.isdir(stats_dir):
        srow = pq.read_table(stats_dir)
        n_docs = int(pc.sum(srow.column("tf")).as_py() or 0)
        sum_len = int(pc.sum(srow.column("dl")).as_py() or 0)
        did_type_name = str(srow.schema.field("doc_id").type)
        shutil.rmtree(stats_dir)  # queries never probe the sentinel bucket

    avgdl = float(sum_len) / n_docs if n_docs else 0.0
    meta = {
        "n_docs": n_docs,
        "avgdl": avgdl,
        "num_buckets": nb,
        "doc_id_type": did_type_name,
    }
    atomic_json_write(os.path.join(index_dir, "meta.json"), meta)
    return meta


def bm25_index_topk(
    index_dir: str,
    query: str | list[str],
    k: int = 10,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> pa.Table:
    """BM25 top-k against a persisted text index: opens ONLY the postings
    buckets the query terms hash to, then scores the (few) candidate docs
    with the same dense tf-matrix kernel as the streaming path — the two are
    bitwise-identical by construction (same float64 ops in the same order),
    pinned by the identity test. This is a LATENCY surface: a handful of
    file reads, no Ray job, no corpus scan (the point-lookup convention,
    pipelines/lookup.py)."""
    import pyarrow.parquet as pq

    meta = load_meta(index_dir)
    empty = _empty_result(_type_from_name(meta.get("doc_id_type")))
    qarr = _terms_of(query)
    wanted = sorted(set(_term_buckets(qarr, meta["num_buckets"]).tolist()))
    post_dir = os.path.join(index_dir, "postings")
    paths = [p for bk in wanted for p in bucket_files(post_dir, "bucket", bk)]
    if not paths:
        return empty
    tbl = pa.concat_tables(
        pq.read_table(p, columns=["term", "doc_id", "tf", "dl"]) for p in paths
    )
    tbl = tbl.filter(pc.is_in(tbl.column("term"), value_set=pa.array(qarr.astype(str))))
    if tbl.num_rows == 0:
        return empty
    udocs, tf, dl, df = _postings_dense(tbl, qarr)
    idf = np.log((meta["n_docs"] - df + 0.5) / (df + 0.5) + 1.0)
    score = _bm25_scores(tf, dl, idf, meta["avgdl"], k1, b)
    return _rank_topk(udocs, score, k)


DEFAULT_RRF_K0 = 60  # the standard constant from Cormack et al. (SIGIR'09)


def rrf_fuse(
    ranked_lists: list, k: int = 10, k0: int = DEFAULT_RRF_K0, id_col: str = "doc_id"
) -> pa.Table:
    """Reciprocal-rank fusion of ranked result lists (public knowledge:
    Cormack, Clarke & Buettcher, SIGIR 2009): RRF(d) = Σ_lists 1/(k0 +
    rank_list(d)), summed over the lists that returned d. Rank is each
    list's 1-based ORDER (its own score scale never matters — that is the
    point of RRF; sparse BM25 and dense cosine fuse without calibration).

    Pure driver-side arithmetic over k-sized lists — the component searches
    (each a pruned index read or one streamed scan) dominate; fusion is
    O(Σ|lists|). Ties break by id ascending, like every top-k here."""
    scores: dict = {}
    for lst in ranked_lists:
        if isinstance(lst, pa.Table):
            ids = lst.column(id_col).to_pylist()
        else:  # pandas
            ids = list(lst[id_col])
        for rank, d in enumerate(ids, start=1):
            scores[d] = scores.get(d, 0.0) + 1.0 / (k0 + rank)
    if not scores:
        return pa.table(
            {
                "rank": pa.array([], pa.int64()),
                "doc_id": pa.array([], pa.int64()),
                "rrf_score": pa.array([], pa.float64()),
            }
        )
    ids = np.array(sorted(scores), dtype=object)
    vals = np.array([scores[d] for d in ids], dtype=np.float64)
    order = np.lexsort((ids, -vals))[:k]
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
            "doc_id": pa.array(ids[order].tolist()),
            "rrf_score": pa.array(vals[order], pa.float64()),
        }
    )


def hybrid_topk(
    ds_docs: ray.data.Dataset,
    emb_table: pa.Table,
    query_text: str,
    query_vec: np.ndarray,
    k: int = 10,
    fetch_k: int = 50,
    k0: int = DEFAULT_RRF_K0,
    key_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pa.Table:
    """Hybrid sparse+dense retrieval: BM25 over (doc_id, text) fused with
    cosine top-k over an aligned embedding table via RRF. Each component
    runs its own optimized path (BM25's two shuffle-free passes; the
    broadcast-query matmul — swap in ``ivf_index_topk`` / ``bm25_index_topk``
    for the persisted-index variants, the fusion is identical); ``fetch_k``
    deep component lists keep the fused top-k stable at the boundary."""
    from .similarity import brute_force_topk

    sparse = bm25_topk(ds_docs, query_text, k=fetch_k)
    dense = brute_force_topk(
        emb_table,
        np.asarray(query_vec, dtype=np.float64)[None, :],
        query_ids=[-1],  # synthetic id: never exclude a real doc as "self"
        k=fetch_k,
        key_col=key_col,
        vec_col=vec_col,
        exclude_self=False,
    ).rename(columns={"neighbor_id": "doc_id"})
    return rrf_fuse([sparse, dense], k=k, k0=k0)


# ---------------------------------------------------------------------------
# Incremental token index over a COMMITTED table — one of the table-derived
# artifacts kept by the shared refresh (state/artifacts.py): each table
# partition's postings are one partial, split into term-hash bucket files,
# so a refresh after new apply epochs re-derives ONLY the partitions whose
# file chains changed — O(changed partitions) maintenance, not O(table).
# Terms are the table's token IDS (the tokenized-sequence domain of the
# north-star schema), not words; everything else (postings shape, BM25
# kernel) is shared with the text index above.
# ---------------------------------------------------------------------------

STATS_BUCKET = -1  # sentinel bucket carrying per-pid (n_docs, sum_len)


def _token_buckets(terms: np.ndarray, num_buckets: int) -> np.ndarray:
    from pandas.util import hash_array

    return (hash_array(terms.astype(np.int64)) % np.uint64(num_buckets)).astype(
        np.int64
    )


def _pid_postings(t: pa.Table, num_buckets: int, tokens_col: str) -> pa.Table:
    """Postings rows (bucket, term, doc_id, tf, dl) for one partition's
    merged snapshot, plus ONE stats row (bucket=STATS_BUCKET, tf=n_docs,
    dl=sum_len) that queries sum into the corpus stats. Same vectorized
    shape as the text extraction (flatten → unique pairs)."""
    lists = t.column(tokens_col).combine_chunks()
    lens = pc.fill_null(pc.list_value_length(lists), 0).cast(pa.int64()).to_numpy(
        zero_copy_only=False
    )
    doc_ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(lists).to_numpy(zero_copy_only=False).astype(np.int64)
    rows = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    did_type = t.schema.field("doc_id").type
    stats = pa.table(
        {
            "bucket": pa.array([STATS_BUCKET], pa.int64()),
            "term": pa.array([-1], pa.int64()),
            "doc_id": pa.array([None], did_type),
            "tf": pa.array([t.num_rows], pa.int64()),
            "dl": pa.array([int(lens.sum())], pa.int64()),
        }
    )
    if len(flat) == 0:
        return stats
    uvals, inv = np.unique(flat, return_inverse=True)
    pair = rows * len(uvals) + inv
    upair, tf = np.unique(pair, return_counts=True)
    prow = (upair // len(uvals)).astype(np.int64)
    terms = uvals[(upair % len(uvals)).astype(np.int64)]
    body = pa.table(
        {
            "bucket": pa.array(_token_buckets(terms, num_buckets)),
            "term": pa.array(terms, pa.int64()),
            "doc_id": pa.array(doc_ids[prow]),
            "tf": pa.array(tf.astype(np.int64)),
            "dl": pa.array(lens[prow]),
        }
    )
    return pa.concat_tables([body, stats.cast(body.schema)])


def refresh_table_token_index(
    table_dir: str,
    index_dir: str,
    num_buckets: int = 64,
    tokens_col: str = "tokens",
) -> dict:
    """Build — or incrementally refresh — a token-postings BM25 index over a
    committed table's merged snapshot, with the shared artifact protocol
    (``state.artifacts``): ``postings/pid=P/bucket=B.parquet`` + ``meta.json``.
    Only partitions whose file chains changed re-derive; updates and deletes
    are handled for free because a partition's postings are REPLACED from its
    current merged snapshot. A different ``num_buckets`` or ``tokens_col``
    rebuilds. Corpus stats live in each partition's STATS_BUCKET file.

    Returns the meta params plus ``indexed_epoch`` and ``refreshed_pids``."""
    from ..state.artifacts import refresh_table_partials
    from ..state.manifest import load_manifest

    doc_id_type = load_manifest(table_dir).schema.field("doc_id").type
    params = {
        "num_buckets": num_buckets,
        "tokens_col": tokens_col,
        "doc_id_type": str(doc_id_type),
    }
    return refresh_table_partials(
        table_dir, index_dir, params,
        lambda snap: _pid_postings(snap, num_buckets, tokens_col),
        # postings touch doc_id + the token lists only
        columns=["doc_id", tokens_col],
        layout="postings",
        bucketed=True,
    )


def bm25_table_index_topk(
    index_dir: str,
    query_tokens: list[int],
    k: int = 10,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> pa.Table:
    """BM25 top-k over a table token index: opens only the postings buckets
    the query token ids hash to (across all table partitions), scores with
    the shared dense kernel. Terms are token ids (int64)."""
    import pyarrow.parquet as pq

    from ..state.artifacts import partial_files

    meta = load_meta(index_dir)
    empty = _empty_result(_type_from_name(meta["doc_id_type"]))
    stats = [
        pq.read_table(p, columns=["tf", "dl"])
        for p in partial_files(index_dir, meta, [STATS_BUCKET])
    ]
    n_docs = sum(pc.sum(t.column("tf")).as_py() or 0 for t in stats)
    sum_len = sum(pc.sum(t.column("dl")).as_py() or 0 for t in stats)
    if n_docs == 0:
        return empty
    avgdl = float(sum_len) / n_docs
    qarr = np.unique(np.asarray(list(query_tokens), dtype=np.int64))
    if len(qarr) == 0:
        raise ValueError("BM25 token query is empty")
    wanted = sorted(set(_token_buckets(qarr, meta["num_buckets"]).tolist()))
    paths = partial_files(index_dir, meta, wanted)
    if not paths:
        return empty
    tbl = pa.concat_tables(
        pq.read_table(p, columns=["term", "doc_id", "tf", "dl"]) for p in paths
    )
    tbl = tbl.filter(pc.is_in(tbl.column("term"), value_set=pa.array(qarr, pa.int64())))
    if tbl.num_rows == 0:
        return empty
    udocs, tf, dl, df = _postings_dense(tbl, qarr)
    idf = np.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
    score = _bm25_scores(tf, dl, idf, avgdl, k1, b)
    return _rank_topk(udocs, score, k)
