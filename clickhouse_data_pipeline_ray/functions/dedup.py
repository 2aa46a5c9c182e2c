"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Scale shapes (all shuffle-aware):
- exact: content-hash in map_batches → hash-partitioned groupby → keep-first.
- MinHash-LSH: signatures per batch (actor pool, permutation params built once
  per actor) → explode to (band, band_hash) rows → groupby bands → candidate
  pairs → signature-estimated Jaccard verify → connected components.
- SimHash: 64-bit signature → pigeonhole band buckets (4×16 bits ⇒ any pair
  within Hamming distance 3 shares a band) → verify exact Hamming.
- n-gram Jaccard: blocking by (length bucket) → within-block pairwise verify
  in map_groups.
- embedding cosine: random-hyperplane LSH bucket → within-bucket pairwise
  cosine ≥ τ.

Candidate-pair sets are assumed small relative to the corpus (LSH parameters
chosen so bands are selective); only pairs/components ever reach the driver,
never the corpus. Union-find for components runs on the driver over that
bounded pair list — the documented partitioning assumption.

Persisted ledgers (fingerprint, MinHash, embedding) dedup a new crawl against
an existing corpus without rescanning it. Their parts are layouts of the
shared bucket store (``state/buckets.py``): a part is visible only once the
meta names it. The MinHash and embedding ledgers share one probe kernel
(``_neardup_probe_block``) and one survivors-and-hits flow.
"""

from __future__ import annotations

import logging
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..stages.partition import n_reduce_buckets
from ..state.artifacts import load_meta
from ..state.buckets import bucket_files, swap_in
from ..state.manifest import atomic_json_write
from . import grow_from_one
from .textstats import fingerprint_batch

_MERSENNE = (1 << 61) - 1

_LOG = logging.getLogger(__name__)

# Distinct-value budget for the driver-side bucket-count combine; above it the
# prefilter switches to the distributed groupby path automatically.
DRIVER_VALUE_LIMIT = 1_000_000


def _multi_member_counts(
    ds: ray.data.Dataset, col: str, driver_value_limit: int = DRIVER_VALUE_LIMIT
) -> dict:
    """``{value: count}`` for values of ``col`` appearing in ≥2 rows.

    Two plans, auto-selected by MEASURED distinct cardinality:

    - driver combine (common case): each batch emits its value_counts partial
      (tiny (value, n) rows); if the partial row count fits
      ``driver_value_limit`` the driver sums them. Buckets are overwhelmingly
      singletons in LSH blocking, so pre-filtering to multi-member buckets
      before the per-bucket pair stage removes ~all of the per-group overhead.
    - distributed (high cardinality, e.g. 10^10 docs × 16 bands): the partials
      stay in the cluster — ``groupby(col).sum(n)`` (one shuffle over partial
      rows, never raw rows) followed by a map-side anti-singleton filter; only
      the multi-member values (true collision candidates, bounded by the
      candidate-pair budget) ever reach the driver.

    The returned counts also feed the over-cap drop accounting
    (:func:`_over_cap_stats`) so bucket drops are driver-visible, never only
    worker stdout."""
    import pyarrow.compute as pc

    def vc(b: pa.Table) -> pa.Table:
        v = pc.value_counts(b.column(col))
        return pa.table(
            {col: v.field("values"), "n": v.field("counts").cast(pa.int64())}
        )

    parts = ds.map_batches(vc, batch_format="pyarrow").materialize()
    if parts.count() <= driver_value_limit:
        pdf = parts.to_pandas()
        if pdf.empty:
            return {}
        totals = pdf.groupby(col)["n"].sum()
        totals = totals[totals > 1]
        return dict(zip(totals.index, totals.astype(int)))
    from ray.data.aggregate import Sum

    totals = parts.groupby(col).aggregate(Sum("n", alias_name="n_total"))
    hot = totals.map_batches(
        lambda b: b.filter(pc.greater(b.column("n_total"), 1)),
        batch_format="pyarrow",
    ).to_pandas()
    return dict(zip(hot[col], hot["n_total"].astype(int)))


def _over_cap_stats(
    counts: dict, max_bucket: int, op: str, out: pd.DataFrame
) -> pd.DataFrame:
    """Attach bucket-cap drop accounting to a pair frame (``out.attrs``) and
    log it on the DRIVER — a capped bucket is a recall loss the caller must be
    able to see, not a worker-stdout footnote. ``attrs['capped_buckets']`` /
    ``attrs['over_cap_docs']`` are 0 when nothing was dropped."""
    capped = {v: c - max_bucket for v, c in counts.items() if c > max_bucket}
    out.attrs["capped_buckets"] = len(capped)
    out.attrs["over_cap_docs"] = int(sum(capped.values()))
    if capped:
        _LOG.warning(
            "[%s] %d bucket(s) over max_bucket=%d: %d doc(s) not verified "
            "(recall loss; raise max_bucket or tighten blocking)",
            op, len(capped), max_bucket, out.attrs["over_cap_docs"],
        )
    return out


def _filter_to_values(ds: ray.data.Dataset, col: str, values: set) -> ray.data.Dataset:
    """Keep rows whose ``col`` is in ``values`` (broadcast set, map-side)."""
    import pyarrow.compute as pc

    arr = pa.array(sorted(values))

    def f(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_in(b.column(col), value_set=arr))

    return ds.map_batches(f, batch_format="pyarrow")


def exact_dedup(
    ds: ray.data.Dataset,
    text_col: str = "text",
    key_col: str = "doc_id",
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Keep one row per identical text (smallest key wins — deterministic).

    Two-level vectorized plan (the CDC merge shape, not per-group Python):
    per-batch keep-min partial (payload-aware LWW kernel, shrinks each block
    before the shuffle) → hash-bucket the fingerprints into ~2×CPU groups →
    one vectorized keep-min per group. Python is invoked O(buckets) times,
    never O(distinct texts) — the old ``map_groups(keep_first)`` paid one
    interpreter call per (overwhelmingly singleton) fingerprint group."""
    from ..stages.merge import lww_compact

    nb = num_buckets or n_reduce_buckets()

    def partial(b: pa.Table) -> pa.Table:
        b = fingerprint_batch(b, text_col)
        b = lww_compact(b, key="fingerprint", version=key_col, version_order="min")
        fp = b.column("fingerprint").to_numpy(zero_copy_only=False)
        bucket = (fp.astype(np.int64).view(np.uint64) % np.uint64(nb)).astype(np.int32)
        return b.append_column("fpb", pa.array(bucket))

    def final(g: pa.Table) -> pa.Table:
        out = lww_compact(g, key="fingerprint", version=key_col, version_order="min")
        return out.drop_columns(["fpb"])

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("fpb")
        .map_groups(final, batch_format="pyarrow")
    )


def segment_dedup(
    ds: ray.data.Dataset,
    text_col: str = "text",
    key_col: str = "doc_id",
    seg_words: int = 10,
    num_buckets: int | None = None,
    pos_scale: int = 1_000_000,
) -> ray.data.Dataset:
    """Cross-corpus SEGMENT-level dedup (the CCNet/CommonCrawl paragraph-
    dedup operator, adapted to newline-free docs): each document is tiled
    into non-overlapping ``seg_words``-word segments; a segment survives iff
    its global position ``doc_id*pos_scale + seg_no`` is the minimum over all
    exact occurrences of that segment text (first-occurrence-wins, fully
    deterministic). Output per doc: ``(key, n_segments, n_kept, text_clean)``
    with ``text_clean`` = surviving segments re-joined in order; docs whose
    every segment was seen earlier are dropped entirely (n_kept would be 0).

    Plan — two bucket shuffles, zero per-row Python:
    1. map: vectorized tiling (Arrow list offsets → ``binary_join``), SipHash
       per segment, hash-bucket id;
    2. ``groupby(hash bucket)``: one lexsort per bucket keeps the min-pos
       occurrence of every distinct segment (each segment hash lives in
       exactly one bucket → exact);
    3. ``groupby(doc bucket)``: re-join each doc's survivors in segment
       order (run-boundary list rebuild + ``binary_join``).

    Scale notes: segment text crosses the wire twice (once per shuffle). For
    corpora where that dominates, ship ``(hash, pos)`` pairs through step 2
    and ``hash_join`` winners back instead (trade one more shuffle of small
    pairs for not moving text twice). ``pos_scale`` bounds seg_no and
    requires ``max(doc_id) * pos_scale`` to fit int64 — re-key upstream if
    ids are not dense."""
    nb = num_buckets or n_reduce_buckets()
    from pandas.util import hash_array

    def tile(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            # column set AND order must match the non-empty return exactly —
            # Ray unifies block schemas across batches ('h' was missing here)
            return pa.table(
                {
                    key_col: pa.nulls(0, b.schema.field(key_col).type),
                    "seg_no": pa.nulls(0, pa.int64()),
                    "n_segments": pa.nulls(0, pa.int64()),
                    "seg_text": pa.nulls(0, pa.string()),
                    "h": pa.nulls(0, pa.int64()),
                    "hb": pa.nulls(0, pa.int32()),
                    "pos": pa.nulls(0, pa.int64()),
                }
            )
        lists = pc.split_pattern(b.column(text_col), pattern=" ").combine_chunks()
        n_words = pc.list_value_length(lists).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        values = pc.list_flatten(lists)
        n_segs = -(-n_words // seg_words)  # ceil
        # flat word index where each doc starts
        doc_start = np.zeros(len(n_words), dtype=np.int64)
        doc_start[1:] = np.cumsum(n_words[:-1])
        # each segment starts at doc_start + seg_words * (its within-doc idx);
        # segments tile the flat values exactly, so starts + [total] is a
        # valid monotone offsets vector
        seg_no = _grouped_arange(n_segs)
        starts = np.repeat(doc_start, n_segs) + seg_words * seg_no
        offsets = np.append(starts, int(n_words.sum()))
        seg_lists = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), values)
        seg_text = pc.binary_join(seg_lists, " ")
        doc_ids = b.column(key_col).to_numpy(zero_copy_only=False)
        seg_docs = np.repeat(doc_ids, n_segs)
        h = hash_array(
            seg_text.to_numpy(zero_copy_only=False).astype(object), categorize=False
        )
        pos = seg_docs.astype(np.int64) * pos_scale + seg_no
        return pa.table(
            {
                key_col: pa.array(seg_docs),
                "seg_no": pa.array(seg_no),
                "n_segments": pa.array(np.repeat(n_segs, n_segs)),
                "seg_text": seg_text,
                "h": pa.array(h.view(np.int64)),
                "hb": pa.array((h % np.uint64(nb)).astype(np.int32)),
                "pos": pa.array(pos),
            }
        )

    def keep_winners(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return g.drop_columns(["h", "hb"])
        h = g.column("h").to_numpy(zero_copy_only=False)
        pos = g.column("pos").to_numpy(zero_copy_only=False)
        order = np.lexsort((pos, h))
        first = np.empty(len(order), dtype=bool)
        first[:1] = True
        first[1:] = h[order][1:] != h[order][:-1]
        return g.take(pa.array(order[first])).drop_columns(["h", "hb"])

    def rebuild(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table(
                {
                    key_col: pa.nulls(0, g.schema.field(key_col).type),
                    "n_segments": pa.nulls(0, pa.int64()),
                    "n_kept": pa.nulls(0, pa.int64()),
                    "text_clean": pa.nulls(0, pa.string()),
                }
            )
        order = np.lexsort(
            (
                g.column("seg_no").to_numpy(zero_copy_only=False),
                g.column(key_col).to_numpy(zero_copy_only=False),
            )
        )
        g = g.take(pa.array(order))
        docs = g.column(key_col).to_numpy(zero_copy_only=False)
        boundary = np.empty(len(docs), dtype=bool)
        boundary[:1] = True
        boundary[1:] = docs[1:] != docs[:-1]
        starts = np.flatnonzero(boundary)
        n_kept = np.diff(np.append(starts, len(docs)))
        offsets = np.append(starts, len(docs))
        doc_lists = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()),
            g.column("seg_text").combine_chunks(),
        )
        return pa.table(
            {
                key_col: pa.array(docs[starts]),
                "n_segments": g.column("n_segments").take(pa.array(starts)),
                "n_kept": pa.array(n_kept, pa.int64()),
                "text_clean": pc.binary_join(doc_lists, " "),
            }
        )

    kept = (
        ds.map_batches(tile, batch_format="pyarrow")
        .groupby("hb")
        .map_groups(keep_winners, batch_format="pyarrow")
    )

    def dbucket(b: pa.Table) -> pa.Table:
        ids = b.column(key_col).to_numpy(zero_copy_only=False)
        db = (ids.astype(np.int64).view(np.uint64) % np.uint64(nb)).astype(np.int32)
        return b.append_column("db", pa.array(db))

    return (
        kept.map_batches(dbucket, batch_format="pyarrow")
        .groupby("db")
        .map_groups(
            lambda g: rebuild(g.drop_columns(["db"])), batch_format="pyarrow"
        )
    )


_FNV = np.uint64(0x100000001B3)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit finalizer (public SplitMix64 constants)."""
    x = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z = x
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _grouped_arange(counts: np.ndarray) -> np.ndarray:
    """[0..c0-1, 0..c1-1, ...] for per-segment gather indices (vectorized)."""
    total = int(counts.sum())
    starts = np.zeros(len(counts), dtype=np.int64)
    starts[1:] = np.cumsum(counts[:-1])
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def _batch_shingle_hashes(texts: list[str], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Word-k-shingle hashes for a WHOLE batch of docs in one pass.

    Returns ``(flat, offsets)``: doc i's shingle hashes are
    ``flat[offsets[i]:offsets[i+1]]`` (always ≥1 per doc — short docs fall
    back to raw word hashes, empty docs to a 0 sentinel, matching the old
    per-doc kernel exactly). One ``hash_array`` call over all words + one
    rolling-polynomial pass over the concatenation (windows that would cross
    a doc boundary are simply never gathered) — no per-doc Python."""
    from pandas.util import hash_array

    n = len(texts)
    words_per_doc = [t.split() for t in texts]
    lens = np.fromiter((len(w) for w in words_per_doc), np.int64, count=n)
    total = int(lens.sum())
    if total:
        all_words = np.empty(total, dtype=object)
        pos = 0
        for w in words_per_doc:
            all_words[pos : pos + len(w)] = w
            pos += len(w)
        h = hash_array(all_words, categorize=False).astype(np.uint64)
    else:
        h = np.empty(0, np.uint64)
    w_off = np.zeros(n + 1, np.int64)
    np.cumsum(lens, out=w_off[1:])

    s_counts = np.where(lens >= k, lens - k + 1, np.maximum(lens, 1))
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(s_counts, out=offsets[1:])
    flat = np.zeros(int(offsets[-1]), np.uint64)  # zeros = empty-doc sentinel

    if total >= k:
        with np.errstate(over="ignore"):
            acc = h[: total - k + 1].copy()
            for j in range(1, k):
                acc = acc * _FNV + h[j : total - k + 1 + j]
        roll = lens >= k
        if roll.any():
            cnt = s_counts[roll]
            seq = _grouped_arange(cnt)
            flat[np.repeat(offsets[:-1][roll], cnt) + seq] = acc[
                np.repeat(w_off[:-1][roll], cnt) + seq
            ]
    small = (lens > 0) & (lens < k)
    if small.any():
        cnt = lens[small]
        seq = _grouped_arange(cnt)
        flat[np.repeat(offsets[:-1][small], cnt) + seq] = h[
            np.repeat(w_off[:-1][small], cnt) + seq
        ]
    return flat, offsets


def _segment_unique(flat: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-unique values per segment (vectorized lexsort + run masking)."""
    n = len(offsets) - 1
    d = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    order = np.lexsort((flat, d))
    fs, ds_ = flat[order], d[order]
    keep = np.ones(len(fs), dtype=bool)
    keep[1:] = (fs[1:] != fs[:-1]) | (ds_[1:] != ds_[:-1])
    fu, du = fs[keep], ds_[keep]
    counts = np.bincount(du, minlength=n).astype(np.int64)
    new_off = np.zeros(n + 1, np.int64)
    np.cumsum(counts, out=new_off[1:])
    return fu, new_off


def _minhash_signatures(
    flat: np.ndarray,
    offsets: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    chunk_shingles: int = 1 << 19,
) -> np.ndarray:
    """(n_docs, num_perm) MinHash signatures over per-doc shingle segments.

    One ``(num_perm × shingles)`` permutation matrix + ``minimum.reduceat``
    per chunk of docs (chunked so the matrix stays ~num_perm × 2^19 ≈ tens of
    MB regardless of block size). Same wraparound arithmetic as the old
    per-doc kernel, so signatures — and therefore LSH pairs — are identical."""
    n = len(offsets) - 1
    num_perm = len(a)
    sigs = np.empty((n, num_perm), np.uint64)
    i = 0
    while i < n:
        j = i + 1
        while j < n and offsets[j + 1] - offsets[i] <= chunk_shingles:
            j += 1
        sh = flat[offsets[i] : offsets[j]] % np.uint64(_MERSENNE)
        with np.errstate(over="ignore"):
            vals = (a[:, None] * sh[None, :] + b[:, None]) % np.uint64(_MERSENNE)
        idx = (offsets[i : j] - offsets[i]).astype(np.int64)
        sigs[i:j] = np.minimum.reduceat(vals, idx, axis=1).T
        i = j
    return sigs


def _band_buckets(sigs: np.ndarray, bands: int) -> np.ndarray:
    """(n_docs, bands) int64 LSH bucket keys: each band's signature rows mixed
    with the band index through SplitMix64 — fully vectorized, no per-doc
    byte-string hashing."""
    n, num_perm = sigs.shape
    r = num_perm // bands
    m = sigs.reshape(n * bands, r)
    acc = np.tile(np.arange(bands, dtype=np.uint64), n)
    with np.errstate(over="ignore"):
        for j in range(r):
            acc = _splitmix64(acc ^ m[:, j])
    return acc.view(np.int64).reshape(n, bands)


class MinHasher:
    """Actor-pool stage: text → M-permutation MinHash signature, exploded to
    (band, band_hash, doc_id) rows for the LSH groupby. Whole-batch
    vectorized: one hash pass over all words, one permutation matrix per
    shingle chunk — no per-doc Python loop (the SimHash ``reduceat`` pattern
    applied to MinHash)."""

    def __init__(
        self,
        num_perm: int = 64,
        bands: int = 16,
        shingle_k: int = 3,
        text_col: str = "text",
        key_col: str = "doc_id",
        seed: int = 13,
    ):
        assert num_perm % bands == 0
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _MERSENNE, num_perm, dtype=np.uint64)
        self.b = rng.integers(0, _MERSENNE, num_perm, dtype=np.uint64)
        self.num_perm, self.bands = num_perm, bands
        self.rows_per_band = num_perm // bands
        self.k, self.text_col, self.key_col = shingle_k, text_col, key_col

    def signatures(self, texts: list[str]) -> np.ndarray:
        flat, offsets = _batch_shingle_hashes(texts, self.k)
        return _minhash_signatures(flat, offsets, self.a, self.b)

    def signature(self, text: str) -> np.ndarray:
        return self.signatures([text])[0]

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table(
                {
                    self.key_col: pa.array([], batch.schema.field(self.key_col).type),
                    "band": pa.array([], pa.int32()),
                    "band_hash": pa.array([], pa.int64()),
                    "sig": pa.array([], pa.list_(pa.int64())),
                }
            )
        keys = batch.column(self.key_col).to_numpy(zero_copy_only=False)
        sigs = self.signatures(batch.column(self.text_col).to_pylist())
        bhash = _band_buckets(sigs, self.bands)
        flat_sig = np.repeat(sigs.astype(np.int64), self.bands, axis=0).ravel()
        sig_off = np.arange(0, (n * self.bands + 1) * self.num_perm, self.num_perm)
        sig_col = pa.LargeListArray.from_arrays(
            pa.array(sig_off), pa.array(flat_sig)
        ).cast(pa.list_(pa.int64()))
        return pa.table(
            {
                self.key_col: pa.array(np.repeat(keys.astype(object), self.bands)),
                "band": pa.array(np.tile(np.arange(self.bands, dtype=np.int32), n)),
                "band_hash": pa.array(bhash.ravel(), pa.int64()),
                "sig": sig_col,
            }
        )


def _bucket_pairs_block(
    group: pd.DataFrame, key_col: str, max_bucket: int = 512
) -> pd.DataFrame:
    """Candidate pairs for a SUPERBUCKET (many LSH buckets per group, so the
    Python-per-group cost is O(superbuckets) ≈ O(CPUs), not O(buckets)).
    Size-2 buckets — the overwhelming majority — are paired fully vectorized
    (one stacked signature matrix, one equality reduction); larger buckets
    pair all members in one triu-indexed equality reduction, capped at
    ``max_bucket`` members (drop accounting happens on the driver from the
    bucket-count partials — see _over_cap_stats)."""
    g = group.sort_values(["band_hash", key_col]).reset_index(drop=True)
    bh = g["band_hash"].to_numpy()
    if len(g) < 2:
        return pd.DataFrame({"doc_a": [], "doc_b": [], "est_jaccard": []})
    sigs = np.stack(g["sig"].to_numpy())
    keys = g[key_col].to_numpy()
    run_start = np.flatnonzero(np.r_[True, bh[1:] != bh[:-1]])
    run_end = np.r_[run_start[1:], len(bh)]
    sizes = run_end - run_start
    parts_a, parts_b, parts_e = [], [], []
    s2 = run_start[sizes == 2]
    if len(s2):
        parts_a.append(keys[s2])
        parts_b.append(keys[s2 + 1])
        parts_e.append((sigs[s2] == sigs[s2 + 1]).mean(axis=1))
    for st, en in zip(run_start[sizes > 2], run_end[sizes > 2]):
        en = min(en, st + max_bucket)  # bounded bucket guarantee
        ii, jj = np.triu_indices(en - st, k=1)
        parts_a.append(keys[st + ii])
        parts_b.append(keys[st + jj])
        parts_e.append((sigs[st + ii] == sigs[st + jj]).mean(axis=1))
    if not parts_a:
        return pd.DataFrame({"doc_a": [], "doc_b": [], "est_jaccard": []})
    return pd.DataFrame(
        {
            "doc_a": np.concatenate(parts_a),
            "doc_b": np.concatenate(parts_b),
            "est_jaccard": np.concatenate(parts_e),
        }
    )


def minhash_lsh_pairs(
    ds: ray.data.Dataset,
    threshold: float = 0.6,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    text_col: str = "text",
    key_col: str = "doc_id",
    concurrency: int | tuple = 2,
    max_bucket: int = 512,
    driver_value_limit: int = DRIVER_VALUE_LIMIT,
) -> pd.DataFrame:
    """Near-duplicate candidate pairs with estimated Jaccard ≥ threshold.

    Returns the (bounded) pair list as pandas on the driver, deduplicated
    across bands and sorted for determinism. Recall is the standard LSH bound
    1-(1-j^r)^b for a pair of true Jaccard j (r = num_perm/bands rows per
    band); buckets larger than ``max_bucket`` verify only their first
    ``max_bucket`` members by key — the dropped-doc count is logged on the
    driver and returned in ``result.attrs['over_cap_docs']``.
    """
    exploded = ds.map_batches(
        MinHasher,
        fn_constructor_kwargs={
            "num_perm": num_perm,
            "bands": bands,
            "shingle_k": shingle_k,
            "text_col": text_col,
            "key_col": key_col,
        },
        batch_format="pyarrow",
        concurrency=grow_from_one(concurrency),
        num_cpus=0.5,
    ).materialize()
    # Pre-filter to colliding buckets (≥2 members) before any per-bucket
    # work: the pair stage then only ever sees true candidates.
    counts = _multi_member_counts(exploded, "band_hash", driver_value_limit)
    empty = pd.DataFrame({"doc_a": [], "doc_b": [], "est_jaccard": []})
    if not counts:
        return _over_cap_stats(counts, max_bucket, "minhash_lsh", empty)
    candidates = _filter_to_values(exploded, "band_hash", set(counts))

    # Superbucket the candidates: each shuffle group holds MANY LSH buckets,
    # so the per-group Python cost is O(superbuckets), and the bucket runs
    # inside are paired vectorized (_bucket_pairs_block).
    n_super = n_reduce_buckets()

    def add_super(b: pa.Table) -> pa.Table:
        bh = b.column("band_hash").to_numpy(zero_copy_only=False)
        sb = (bh.astype(np.int64).view(np.uint64) % np.uint64(n_super)).astype(np.int32)
        return b.append_column("sb", pa.array(sb))

    pairs = (
        candidates.map_batches(add_super, batch_format="pyarrow")
        .groupby("sb")
        .map_groups(
            lambda g: _bucket_pairs_block(g, key_col, max_bucket),
            batch_format="pandas",
        )
    )
    pdf = pairs.to_pandas()
    if pdf.empty:
        return _over_cap_stats(counts, max_bucket, "minhash_lsh", empty)
    pdf = (
        pdf.groupby(["doc_a", "doc_b"], as_index=False)["est_jaccard"]
        .max()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    pdf = pdf[pdf["est_jaccard"] >= threshold].reset_index(drop=True)
    return _over_cap_stats(counts, max_bucket, "minhash_lsh", pdf)


def connected_components(ids_a, ids_b) -> dict:
    """``{member_id: component_rep}`` over an edge list, rep = smallest
    member id in the component. Union-find (path-halving + min-root union)
    on the driver — the usual case: verified pair lists are bounded by the
    LSH candidate budget (≪ corpus size). The at-scale swap is implemented
    (:func:`connected_components_distributed`, alternating
    large-star/small-star rounds) and :func:`connected_components_auto`
    switches between the two by measured pair count."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(ids_a, ids_b):
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = sorted((ra, rb))
            parent[hi] = lo
    return {m: find(m) for m in parent}


# Pair budget for the driver union-find; above it connected_components_auto
# runs the distributed star rounds instead (same measured-switch convention
# as DRIVER_VALUE_LIMIT).
CC_DRIVER_PAIR_LIMIT = 2_000_000


def _star_emit(tbl: pa.Table, large: bool) -> pa.Table:
    """One Large-Star or Small-Star operation over one bucket's symmetric
    adjacency rows (columns u, v, bucket) — fully vectorized: one lexsort,
    per-node neighbor minima via ``minimum.reduceat``, masked emissions.

    Kiveris et al., "Connected Components in MapReduce and Beyond" (SoCC'14):
    with m = min over a node's neighborhood ∪ itself, Large-Star points every
    strictly-larger neighbor at m; Small-Star points the ≤-neighbors and the
    node itself at the minimum of that closed ≤-neighborhood. Alternating
    rounds converge to per-component stars rooted at the component minimum.
    """
    u = tbl.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
    v = tbl.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
    if len(u) == 0:
        return pa.table({"u": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    starts = np.flatnonzero(np.diff(u, prepend=u[0] - 1))
    seg_of = np.cumsum(np.diff(u, prepend=u[0] - 1) != 0) - 1
    u_seg = u[starts]
    if large:
        m = np.minimum(np.minimum.reduceat(v, starts), u_seg)
        mask = v > u
        out_u, out_v = v[mask], m[seg_of[mask]]
    else:
        big = np.iinfo(np.int64).max
        v_le = np.where(v <= u, v, big)
        m = np.minimum(np.minimum.reduceat(v_le, starts), u_seg)
        mask = v <= u
        out_u = np.concatenate([v[mask], u_seg])
        out_v = np.concatenate([m[seg_of[mask]], m])
        keep = out_u != out_v
        out_u, out_v = out_u[keep], out_v[keep]
    # within-bucket dedup keeps round-over-round growth bounded (cross-bucket
    # duplicates are removed by the next round's regrouping)
    key = np.stack([out_u, out_v], axis=1)
    key = np.unique(key, axis=0) if len(key) else key.reshape(0, 2)
    return pa.table(
        {"u": pa.array(key[:, 0], pa.int64()), "v": pa.array(key[:, 1], pa.int64())}
    )


def _cc_bucket(col: np.ndarray, n_buckets: int) -> np.ndarray:
    return ((col.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(40)).astype(
        np.int64
    ) % n_buckets


def connected_components_distributed(
    edges: ray.data.Dataset,
    n_buckets: int | None = None,
    max_rounds: int = 64,
) -> pa.Table:
    """Distributed connected components over an edge Dataset (columns
    ``u``, ``v``): the at-scale path for pair lists that outgrow the driver.

    Alternating Large-Star / Small-Star rounds (see :func:`_star_emit`);
    each round symmetrizes the edge list map-side, hash-buckets nodes into
    O(CPUs) groups (every node's whole neighborhood lands in one bucket),
    and runs the vectorized star kernel per bucket — two bounded shuffles
    per round over the CURRENT edge set (which only shrinks toward star
    edges), never the corpus. Terminates at edge-set fixpoint (count +
    order-invariant checksum). Returns (node, rep) sorted by node, rep =
    smallest member id — exactly :func:`connected_components`'s contract,
    pinned by an identity test over random graphs."""
    if n_buckets is None:
        n_buckets = max(4, int(ray.cluster_resources().get("CPU", 8)))

    def symmetrize(b: pa.Table) -> pa.Table:
        us = b.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        vs = b.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        all_u = np.concatenate([us, vs])
        all_v = np.concatenate([vs, us])
        return pa.table(
            {
                "u": pa.array(all_u, pa.int64()),
                "v": pa.array(all_v, pa.int64()),
                "bucket": pa.array(_cc_bucket(all_u, n_buckets), pa.int64()),
            }
        )

    def signature(ds: ray.data.Dataset) -> tuple:
        def part(b: pa.Table) -> pa.Table:
            us = b.column("u").to_numpy(zero_copy_only=False).astype(np.uint64)
            vs = b.column("v").to_numpy(zero_copy_only=False).astype(np.uint64)
            mixed = (us * np.uint64(0x9E3779B97F4A7C15)) ^ (
                vs * np.uint64(0xC2B2AE3D27D4EB4F)
            )
            # wraparound SUM (not xor): order-invariant across blocks but
            # duplicate edges don't cancel out of the checksum; folded to 62
            # bits so partials and their sum stay inside int64
            h = int(mixed.sum(dtype=np.uint64)) & ((1 << 62) - 1) if len(us) else 0
            return pa.table(
                {
                    "n": pa.array([len(us)], pa.int64()),
                    "h": pa.array([h], pa.int64()),
                }
            )

        pdf = ds.map_batches(part, batch_format="pyarrow").to_pandas()
        n = int(pdf["n"].sum()) if len(pdf) else 0
        h = (
            int(np.sum(pdf["h"].to_numpy(np.uint64), dtype=np.uint64) & np.uint64((1 << 62) - 1))
            if len(pdf)
            else 0
        )
        return n, h

    cur = edges.materialize()
    if cur.count() == 0:
        return pa.table(
            {"node": pa.array([], pa.int64()), "rep": pa.array([], pa.int64())}
        )
    prev_sig = None
    for _ in range(max_rounds):
        for large in (True, False):
            cur = (
                cur.map_batches(symmetrize, batch_format="pyarrow")
                .groupby("bucket")
                .map_groups(
                    lambda g, _lg=large: _star_emit(g, _lg),
                    batch_format="pyarrow",
                )
                .materialize()
            )
        sig = signature(cur)
        if sig == prev_sig:
            break
        prev_sig = sig
    else:
        raise RuntimeError(f"star rounds did not converge in {max_rounds} rounds")
    star = cur.to_pandas()
    # converged star edges are (member, root); roots map to themselves
    nodes = np.concatenate([star["u"].to_numpy(), np.unique(star["v"].to_numpy())])
    reps = np.concatenate([star["v"].to_numpy(), np.unique(star["v"].to_numpy())])
    order = np.argsort(nodes, kind="stable")
    return pa.table(
        {
            "node": pa.array(nodes[order], pa.int64()),
            "rep": pa.array(reps[order], pa.int64()),
        }
    )


def connected_components_auto(
    ids_a, ids_b, driver_pair_limit: int = CC_DRIVER_PAIR_LIMIT
) -> dict:
    """``connected_components`` with the measured auto-switch: union-find on
    the driver while the pair list fits ``driver_pair_limit``, the
    distributed star rounds above it (identical output by the identity
    test; the component dict itself is bounded by the number of
    non-singleton nodes either way)."""
    if len(ids_a) <= driver_pair_limit:
        return connected_components(ids_a, ids_b)
    ua, ub = np.asarray(ids_a), np.asarray(ids_b)
    decode = None
    if ua.dtype.kind not in "iu":
        # non-integer ids (doc keys are strings): encode to dense int64
        # codes via SORTED uniques, so code order == id order and the star
        # rounds' min-code root is exactly the driver union-find's
        # min-id root — the identity the tests pin survives the round-trip
        decode = np.unique(np.concatenate([ua, ub]))
        ua = np.searchsorted(decode, ua).astype(np.int64)
        ub = np.searchsorted(decode, ub).astype(np.int64)
    edges = ray.data.from_arrow(
        pa.table(
            {
                "u": pa.array(ua.astype(np.int64), pa.int64()),
                "v": pa.array(ub.astype(np.int64), pa.int64()),
            }
        )
    )
    tbl = connected_components_distributed(edges)
    node = tbl.column("node").to_numpy()
    rep = tbl.column("rep").to_numpy()
    if decode is not None:
        return dict(zip(decode[node].tolist(), decode[rep].tolist()))
    return dict(zip(node.tolist(), rep.tolist()))


def minhash_dedup(
    ds: ray.data.Dataset,
    threshold: float = 0.6,
    cc_driver_pair_limit: int = CC_DRIVER_PAIR_LIMIT,
    **kwargs,
) -> pd.DataFrame:
    """Cluster near-duplicates (connected components over verified pairs —
    driver union-find below the measured pair budget, distributed star
    rounds above it) and return (doc_id, cluster) with cluster = smallest
    member key."""
    pairs = minhash_lsh_pairs(ds, threshold=threshold, **kwargs)
    comp = connected_components_auto(
        pairs["doc_a"], pairs["doc_b"], driver_pair_limit=cc_driver_pair_limit
    )
    members = sorted(comp)
    return pd.DataFrame(
        {"doc_id": members, "cluster": [comp[m] for m in members]}
    )


class SimHasher:
    """Actor-pool stage: 64-bit SimHash + pigeonhole band columns."""

    def __init__(self, text_col: str = "text", key_col: str = "doc_id", n_bands: int = 4):
        self.text_col, self.key_col, self.n_bands = text_col, key_col, n_bands

    def simhash_batch(self, texts: list[str]) -> np.ndarray:
        """Whole-batch SimHash: one word-hash pass + segment-summed bit votes
        (np.add.reduceat over doc offsets) — no per-doc Python loop."""
        from pandas.util import hash_array

        words_per_doc = [t.split() for t in texts]
        lens = np.array([len(w) for w in words_per_doc], dtype=np.int64)
        sigs = np.zeros(len(texts), dtype=np.uint64)
        nonempty = np.flatnonzero(lens > 0)
        if len(nonempty) == 0:
            return sigs
        all_words = np.concatenate(
            [np.array(words_per_doc[i], dtype=object) for i in nonempty]
        )
        h = hash_array(all_words, categorize=False).astype(np.uint64)
        bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1).astype(
            np.int32
        )
        votes2 = 2 * bits  # vote = sum(2b - 1) = 2*sum(b) - n
        offsets = np.zeros(len(nonempty), dtype=np.int64)
        offsets[1:] = np.cumsum(lens[nonempty])[:-1]
        seg = np.add.reduceat(votes2, offsets, axis=0)
        vote = seg - lens[nonempty][:, None]
        powers = (np.uint64(1) << np.arange(64, dtype=np.uint64))[None, :]
        sigs[nonempty] = ((vote > 0).astype(np.uint64) * powers).sum(axis=1)
        return sigs

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            # typed empty (pa.array([]) would infer a null key column and
            # break block-schema unification against non-empty batches)
            cols = {
                self.key_col: pa.nulls(0, batch.schema.field(self.key_col).type),
                "simhash": pa.nulls(0, pa.int64()),
            }
            for b in range(self.n_bands):
                cols[f"band{b}"] = pa.nulls(0, pa.int64())
            return pa.table(cols)
        keys = batch.column(self.key_col).to_pylist()
        sigs = self.simhash_batch(batch.column(self.text_col).to_pylist())
        cols = {self.key_col: pa.array(keys), "simhash": pa.array(sigs.astype(np.int64))}
        width = 64 // self.n_bands
        for b in range(self.n_bands):
            seg = (sigs >> np.uint64(b * width)) & np.uint64((1 << width) - 1)
            cols[f"band{b}"] = pa.array(seg.astype(np.int64))
        return pa.table(cols)


# 8-bit popcount lookup table: Hamming distance over uint64 signatures is
# XOR → byte view → LUT gather → row sum, fully vectorized (no per-element
# Python bin().count()).
_POP8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1
).astype(np.uint8)


def _hamming64(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Element-wise Hamming distance between two uint64 arrays."""
    xor = np.bitwise_xor(x, y)
    return _POP8[xor.view(np.uint8).reshape(len(xor), 8)].sum(
        axis=1, dtype=np.int64
    )


def _simhash_block_pairs(
    group: pd.DataFrame, key_col: str, max_hamming: int, max_bucket: int
) -> pd.DataFrame:
    """Exact-Hamming verify for a SUPERBUCKET group (many pigeonhole buckets
    per Python call — the _bucket_pairs_block pattern). Size-2 bucket runs —
    the overwhelming majority — verify in one vectorized XOR+popcount pass;
    larger runs pair via triu indices, capped at ``max_bucket`` members
    (16-bit bands mean a bucket holds ~corpus/65k docs at scale — the cap
    bounds the quadratic, and the drop is accounted on the driver)."""
    g = group.sort_values(["bucket", key_col]).reset_index(drop=True)
    if len(g) < 2:
        return pd.DataFrame({"doc_a": [], "doc_b": [], "hamming": []})
    bh = g["bucket"].to_numpy()
    sig = g["simhash"].to_numpy().astype(np.int64).view(np.uint64)
    keys = g[key_col].to_numpy()
    run_start = np.flatnonzero(np.r_[True, bh[1:] != bh[:-1]])
    run_end = np.r_[run_start[1:], len(bh)]
    sizes = run_end - run_start
    parts_a, parts_b, parts_d = [], [], []
    s2 = run_start[sizes == 2]
    if len(s2):
        d = _hamming64(sig[s2], sig[s2 + 1])
        keep = d <= max_hamming
        parts_a.append(keys[s2][keep])
        parts_b.append(keys[s2 + 1][keep])
        parts_d.append(d[keep])
    for st, en in zip(run_start[sizes > 2], run_end[sizes > 2]):
        en = min(en, st + max_bucket)  # bounded bucket guarantee
        ii, jj = np.triu_indices(en - st, k=1)
        d = _hamming64(sig[st + ii], sig[st + jj])
        keep = d <= max_hamming
        parts_a.append(keys[st + ii[keep]])
        parts_b.append(keys[st + jj[keep]])
        parts_d.append(d[keep])
    if not parts_a:
        return pd.DataFrame({"doc_a": [], "doc_b": [], "hamming": []})
    return pd.DataFrame(
        {
            "doc_a": np.concatenate(parts_a),
            "doc_b": np.concatenate(parts_b),
            "hamming": np.concatenate(parts_d),
        }
    )


def simhash_pairs(
    ds: ray.data.Dataset,
    max_hamming: int = 3,
    text_col: str = "text",
    key_col: str = "doc_id",
    concurrency: int | tuple = 2,
    max_bucket: int = 512,
    driver_value_limit: int = DRIVER_VALUE_LIMIT,
) -> pd.DataFrame:
    """Pairs within Hamming distance ``max_hamming`` (must be < n_bands for
    the pigeonhole blocking to be exhaustive). Buckets over ``max_bucket``
    members verify only their first ``max_bucket`` by key; the dropped-doc
    count is logged on the driver and returned in
    ``result.attrs['over_cap_docs']``."""
    n_bands = 4
    assert max_hamming < n_bands
    sigs = ds.map_batches(
        SimHasher,
        fn_constructor_kwargs={"text_col": text_col, "key_col": key_col, "n_bands": n_bands},
        batch_format="pyarrow",
        concurrency=concurrency,
        num_cpus=0.5,
    )

    # One pass over all bands: explode each doc to (bucket, doc, simhash)
    # rows with the band id salted into the bucket key, so a single
    # hot-bucket prefilter + groupby covers every pigeonhole block.
    def explode(b: pa.Table) -> pa.Table:
        n = b.num_rows
        keys = pa.concat_arrays(
            [b.column(key_col).combine_chunks()] * n_bands
        )
        sh = pa.concat_arrays([b.column("simhash").combine_chunks()] * n_bands)
        buckets = np.concatenate(
            [
                b.column(f"band{i}").to_numpy() | np.int64(i << 16)
                for i in range(n_bands)
            ]
        )
        return pa.table(
            {key_col: keys, "simhash": sh, "bucket": pa.array(buckets, pa.int64())}
        )

    exploded = sigs.map_batches(explode, batch_format="pyarrow").materialize()

    counts = _multi_member_counts(exploded, "bucket", driver_value_limit)
    empty = pd.DataFrame({"doc_a": [], "doc_b": [], "hamming": []})
    if not counts:
        return _over_cap_stats(counts, max_bucket, "simhash", empty)
    cands = _filter_to_values(exploded, "bucket", set(counts))

    # Superbucket shuffle key (hash(bucket) % 2×CPUs): O(CPUs) Python group
    # calls with every bucket's rows co-grouped; the verify inside is the
    # vectorized XOR+popcount pass, never per-element Python.
    n_super = n_reduce_buckets()

    def add_super(b: pa.Table) -> pa.Table:
        bh = b.column("bucket").to_numpy(zero_copy_only=False)
        sb = (_splitmix64(bh.view(np.uint64)) % np.uint64(n_super)).astype(np.int32)
        return b.append_column("sb", pa.array(sb))

    pdf = (
        cands.map_batches(add_super, batch_format="pyarrow")
        .groupby("sb")
        .map_groups(
            lambda g: _simhash_block_pairs(g, key_col, max_hamming, max_bucket),
            batch_format="pandas",
        )
        .to_pandas()
    )
    if pdf.empty:
        return _over_cap_stats(counts, max_bucket, "simhash", empty)
    pdf = (
        pdf.groupby(["doc_a", "doc_b"], as_index=False)["hamming"]
        .min()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    pdf["hamming"] = pdf["hamming"].astype("int64")
    return _over_cap_stats(counts, max_bucket, "simhash", pdf)


class NGramBlocker:
    """Actor-pool stage 1 of content-blocked n-gram Jaccard: per-doc
    sorted-unique n-gram hash set (list column) + r=1 MinHash band buckets
    over that set, exploded to (doc, bucket, grams) rows. Content blocking —
    a pair can only become a candidate by sharing a minhash of its actual
    grams — unlike the old length-bucket blocking, where one bucket held a
    constant fraction of the corpus and went O(n²)."""

    def __init__(
        self,
        n: int = 3,
        bands: int = 16,
        rows_per_band: int = 2,
        text_col: str = "text",
        key_col: str = "doc_id",
        seed: int = 29,
    ):
        # r=2 rows per band: a bucket key combines TWO independent minhashes,
        # so sharing one globally common gram (whose hash is often the corpus
        # minimum) is not enough to collide — r=1 produced corpus-scale
        # buckets of docs sharing a single boilerplate gram.
        rng = np.random.default_rng(seed)
        num_perm = bands * rows_per_band
        self.a = rng.integers(1, _MERSENNE, num_perm, dtype=np.uint64)
        self.b = rng.integers(0, _MERSENNE, num_perm, dtype=np.uint64)
        self.n, self.bands = n, bands
        self.text_col, self.key_col = text_col, key_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n_docs = batch.num_rows
        if n_docs == 0:
            return pa.table(
                {
                    self.key_col: pa.array([], batch.schema.field(self.key_col).type),
                    "bucket": pa.array([], pa.int64()),
                    "grams": pa.array([], pa.list_(pa.int64())),
                }
            )
        keys = batch.column(self.key_col).to_numpy(zero_copy_only=False)
        flat, off = _batch_shingle_hashes(
            batch.column(self.text_col).to_pylist(), self.n
        )
        gu, guoff = _segment_unique(flat, off)
        sigs = _minhash_signatures(gu, guoff, self.a, self.b)
        bhash = _band_buckets(sigs, self.bands)
        grams_doc = pa.LargeListArray.from_arrays(
            pa.array(guoff), pa.array(gu.astype(np.int64))
        ).cast(pa.list_(pa.int64()))
        idx = pa.array(np.repeat(np.arange(n_docs, dtype=np.int64), self.bands))
        return pa.table(
            {
                self.key_col: pa.array(np.repeat(keys.astype(object), self.bands)),
                "bucket": pa.array(bhash.ravel(), pa.int64()),
                "grams": pc.take(grams_doc, idx),
            }
        )


def _ngram_bucket_pairs(
    group: pd.DataFrame, key_col: str, threshold: float, max_bucket: int
) -> pd.DataFrame:
    """Exact-Jaccard verify for a SUPERBUCKET group (many LSH buckets per
    Python call). Pairs already verified for an earlier bucket run in this
    group are skipped via a seen-set, so multi-band collisions don't repeat
    the set intersection."""
    g = group.sort_values(["bucket", key_col]).reset_index(drop=True)
    bh = g["bucket"].to_numpy()
    grams_all = g["grams"].to_numpy()
    keys_all = g[key_col].to_numpy()
    run_start = np.flatnonzero(np.r_[True, bh[1:] != bh[:-1]])
    run_end = np.r_[run_start[1:], len(bh)]
    out_a, out_b, out_j, out_i, out_u = [], [], [], [], []
    seen: set = set()
    for st, en in zip(run_start, run_end):
        if en - st < 2:
            continue
        if en - st > max_bucket:
            # Bounded bucket guarantee: a degenerate bucket (e.g. boilerplate
            # grams shared corpus-wide) is capped, not O(n²)-scanned. Logged
            # so the drop is visible, never silent.
            print(
                f"[ngram_jaccard] bucket over cap: {en - st} docs > "
                f"{max_bucket}, verifying the first {max_bucket} by key"
            )
            en = st + max_bucket
        grams = [np.asarray(x, dtype=np.int64) for x in grams_all[st:en]]
        keys = keys_all[st:en]
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                pk = (keys[i], keys[j])
                if pk in seen:
                    continue
                seen.add(pk)
                inter = np.intersect1d(grams[i], grams[j], assume_unique=True).size
                if inter == 0:
                    continue
                union = len(grams[i]) + len(grams[j]) - inter
                jac = inter / union
                if jac >= threshold:
                    out_a.append(keys[i])
                    out_b.append(keys[j])
                    out_j.append(round(jac, 6))
                    out_i.append(inter)
                    out_u.append(union)
    # n_inter / n_union are the EXACT integer set sizes behind the jaccard —
    # integer-comparable against a SQL oracle with no float-rounding hazard
    return pd.DataFrame(
        {
            "doc_a": out_a,
            "doc_b": out_b,
            "jaccard": out_j,
            "n_inter": np.asarray(out_i, dtype=np.int64),
            "n_union": np.asarray(out_u, dtype=np.int64),
        }
    )


def _empty_ngram() -> pd.DataFrame:
    return pd.DataFrame(
        {
            "doc_a": [],
            "doc_b": [],
            "jaccard": [],
            "n_inter": pd.Series([], dtype="int64"),
            "n_union": pd.Series([], dtype="int64"),
        }
    )


def ngram_jaccard_pairs(
    ds: ray.data.Dataset,
    threshold: float = 0.5,
    n: int = 3,
    text_col: str = "text",
    key_col: str = "doc_id",
    block_col: str | None = None,
    bands: int = 16,
    max_bucket: int = 64,
    concurrency: int | tuple = 2,
    driver_value_limit: int = DRIVER_VALUE_LIMIT,
) -> pd.DataFrame:
    """Exact word n-gram Jaccard over content-blocked candidate pairs.

    Blocking is MinHash-band LSH over each doc's own gram set (r=2 rows per
    band: a pair with Jaccard j collides with prob 1-(1-j²)^bands — ≈0.48 at
    j=0.2, ≈0.99 at j=0.5 with b=16 — an explicitly approximate blocking for
    sub-threshold pairs; callers wanting exhaustive pairs must supply
    ``block_col``), so bucket membership depends on shared content, never on
    document length. Exact Jaccard (set intersection over the sorted-unique
    gram-hash arrays) verifies each bucket; buckets are pre-filtered to ≥2
    members and capped at ``max_bucket`` — the dropped-doc count is logged on
    the DRIVER and returned in ``result.attrs['over_cap_docs']`` (plus
    ``attrs['capped_buckets']``), never only worker stdout. ``block_col``
    overrides blocking with a user column (caller asserts bounded blocks)."""
    counts: dict = {}
    if block_col is None:
        exploded = ds.map_batches(
            NGramBlocker,
            fn_constructor_kwargs={
                "n": n,
                "bands": bands,
                "text_col": text_col,
                "key_col": key_col,
            },
            batch_format="pyarrow",
            batch_size=2048,
            concurrency=concurrency,
            num_cpus=0.5,
        ).materialize()
        counts = _multi_member_counts(exploded, "bucket", driver_value_limit)
        if not counts:
            return _over_cap_stats(counts, max_bucket, "ngram_jaccard", _empty_ngram())
        cands = _filter_to_values(exploded, "bucket", set(counts))
    else:
        # user blocking: still compute the gram sets vectorized, group by the
        # caller's column. Block-member counts come from a cheap key-only pass
        # (never recomputing grams) so _over_cap_stats reflects real caps on
        # this path too — drops are driver-visible, never only worker stdout.
        blocks_only = ds.map_batches(
            lambda b: pa.table({"bucket": b.column(block_col).cast(pa.int64())}),
            batch_format="pyarrow",
        )
        counts = _multi_member_counts(blocks_only, "bucket", driver_value_limit)

        def add_grams(batch: pa.Table) -> pa.Table:
            flat, off = _batch_shingle_hashes(batch.column(text_col).to_pylist(), n)
            gu, guoff = _segment_unique(flat, off)
            grams = pa.LargeListArray.from_arrays(
                pa.array(guoff), pa.array(gu.astype(np.int64))
            ).cast(pa.list_(pa.int64()))
            return pa.table(
                {
                    key_col: batch.column(key_col),
                    "bucket": batch.column(block_col).cast(pa.int64()),
                    "grams": grams,
                }
            )

        cands = ds.map_batches(add_grams, batch_format="pyarrow", batch_size=2048)

    # Superbucket shuffle key: O(CPUs) Python group calls, with all of a
    # bucket's rows guaranteed co-grouped (bucket → superbucket is pure).
    n_super = n_reduce_buckets()

    def add_super(b: pa.Table) -> pa.Table:
        bh = b.column("bucket").to_numpy(zero_copy_only=False)
        sb = (bh.astype(np.int64).view(np.uint64) % np.uint64(n_super)).astype(np.int32)
        return b.append_column("sb", pa.array(sb))

    pdf = (
        cands.map_batches(add_super, batch_format="pyarrow")
        .groupby("sb")
        .map_groups(
            lambda g: _ngram_bucket_pairs(g, key_col, threshold, max_bucket),
            batch_format="pandas",
        )
        .to_pandas()
    )
    if pdf.empty:
        return _over_cap_stats(counts, max_bucket, "ngram_jaccard", _empty_ngram())
    # a pair re-verified in different superbuckets yields identical rows
    # (same gram sets) — max() is a pure dedup here
    pdf = (
        pdf.groupby(["doc_a", "doc_b"], as_index=False)[["jaccard", "n_inter", "n_union"]]
        .max()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    for c in ("n_inter", "n_union"):
        pdf[c] = pdf[c].astype("int64")
    return _over_cap_stats(counts, max_bucket, "ngram_jaccard", pdf)


class HyperplaneLSH:
    """Actor-pool stage: random-hyperplane bucket for embedding vectors."""

    def __init__(self, dim: int, n_planes: int = 12, seed: int = 5, vec_col: str = "embedding"):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((dim, n_planes))
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            # np.stack([]) raises; pass the empty block through typed
            return batch.append_column("bucket", pa.nulls(0, pa.int64()))
        emb = np.stack(batch.column(self.vec_col).to_pylist()).astype(np.float64)
        bits = (emb @ self.planes) > 0
        bucket = (bits * (1 << np.arange(bits.shape[1]))).sum(axis=1)
        return batch.append_column("bucket", pa.array(bucket.astype(np.int64)))


def embedding_neardup_pairs(
    ds: ray.data.Dataset,
    dim: int,
    threshold: float = 0.95,
    n_planes: int = 12,
    key_col: str = "vec_id",
    vec_col: str = "embedding",
    concurrency: int | tuple = 2,
    max_bucket: int = 512,
    driver_value_limit: int = DRIVER_VALUE_LIMIT,
) -> pd.DataFrame:
    """Embedding-cosine near-duplicates: hyperplane-LSH blocking, exact
    within-bucket cosine verify. Buckets are capped at ``max_bucket`` — a
    degenerate bucket (e.g. a cluster of identical vectors) is bounded, never
    O(n²)-scanned; the dropped count is logged on the driver and returned in
    ``result.attrs['over_cap_docs']``."""
    bucketed = ds.map_batches(
        HyperplaneLSH,
        fn_constructor_kwargs={"dim": dim, "n_planes": n_planes, "vec_col": vec_col},
        batch_format="pyarrow",
        concurrency=grow_from_one(concurrency),
        num_cpus=0.5,
    ).materialize()
    counts = _multi_member_counts(bucketed, "bucket", driver_value_limit)
    empty = pd.DataFrame({"id_a": [], "id_b": [], "cosine": []})
    if not counts:
        return _over_cap_stats(counts, max_bucket, "embedding_neardup", empty)
    bucketed = _filter_to_values(bucketed, "bucket", set(counts))

    def verify(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(key_col).reset_index(drop=True)
        if len(g) < 2:
            return pd.DataFrame({"id_a": [], "id_b": [], "cosine": []})
        if len(g) > max_bucket:
            print(
                f"[embedding_neardup] bucket over cap: {len(g)} vectors > "
                f"{max_bucket}, verifying the first {max_bucket} by key"
            )
            g = g.head(max_bucket)
        emb = np.stack(g[vec_col].to_numpy()).astype(np.float64)
        norm = np.linalg.norm(emb, axis=1, keepdims=True)
        norm[norm == 0] = 1.0
        emb = emb / norm
        sims = emb @ emb.T
        ii, jj = np.triu_indices(len(g), k=1)
        keep = sims[ii, jj] >= threshold
        keys = g[key_col].to_numpy()
        return pd.DataFrame(
            {
                "id_a": keys[ii[keep]],
                "id_b": keys[jj[keep]],
                "cosine": np.round(sims[ii, jj][keep], 6),
            }
        )

    pdf = bucketed.groupby("bucket").map_groups(verify, batch_format="pandas").to_pandas()
    if pdf.empty:
        return _over_cap_stats(counts, max_bucket, "embedding_neardup", empty)
    pdf = pdf.sort_values(["id_a", "id_b"]).reset_index(drop=True)
    return _over_cap_stats(counts, max_bucket, "embedding_neardup", pdf)


# ---------------------------------------------------------------------------
# Persisted fingerprint index — the dedup ledger
#
# Incremental exact dedup against an EXISTING corpus without rescanning it:
# the corpus's content fingerprints live in a bucket-partitioned parquet
# index (bucket = fingerprint hash % B), each build/extend swaps in one
# "part" directory (state/buckets.py), and `incremental_dedup` shuffles only
# the INCOMING batch by the same bucket function — each reduce group opens
# only its own bucket's index files. At 100 TB: the corpus is hashed exactly
# once (when its part was built); deduplicating a new crawl costs one map
# pass + one hash shuffle over the new data only, plus O(new-data buckets)
# bounded index reads. Reference analog: ClickHouse's dedup-on-merge only
# dedups within one table part — this ledger is the cross-run generalization
# the reference lacks (etl/core/pipeline.py syncs blindly re-upsert).
# ---------------------------------------------------------------------------


def _keepmin_counts(
    fp: np.ndarray, keys: np.ndarray, counts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized per-fingerprint winner selection: index of the min-key row
    for every distinct fingerprint plus the (weighted) copy count. One
    lexsort + run-length reduction — O(n log n), no per-group Python."""
    order = np.lexsort((keys, fp))
    fps = fp[order]
    start = np.flatnonzero(np.r_[True, fps[1:] != fps[:-1]])
    take = order[start]
    if counts is None:
        n = np.diff(np.r_[start, len(fps)])
    else:
        n = np.add.reduceat(counts[order], start)
    return take, n.astype(np.int64)


# Shared ledger plumbing (fingerprint / MinHash / embedding ledgers): a
# ledger is meta.json (parameters pinned by the FIRST build) plus additive
# `parts/<name>/` layouts of bucket-partitioned parquet. Each part is
# swapped in by ``state.buckets.swap_in`` before the meta that names it is
# written, so a probe only ever opens parts the meta commits.

# kind → (bucket column, the hashed column the bucket is derived from)
_LEDGERS = {
    "fingerprint": ("fpb", "fingerprint"),
    "minhash": ("bkb", "band_hash"),
    "embedding": ("ebk", "bucket"),
}


def _bucket_of(h: np.ndarray, nb: int) -> np.ndarray:
    """Ledger bucket of 64-bit hash values: unsigned ``h % nb``."""
    return (h.astype(np.int64).view(np.uint64) % np.uint64(nb)).astype(np.int32)


def _ledger_parts(index_dir: str, meta: dict | None = None) -> list[str]:
    """The LIVE part names: meta.json's ``parts`` manifest when present
    (written by every commit since compaction landed — a part dir not in the
    manifest is an orphan from a crashed compaction and is invisible), else
    a directory listing (pre-manifest ledgers)."""
    if meta is None:
        meta = load_meta(index_dir, missing_ok=True) or {}
    if "parts" in meta:
        return list(meta["parts"])
    parts_dir = os.path.join(index_dir, "parts")
    if not os.path.isdir(parts_dir):
        return []
    return sorted(p for p in os.listdir(parts_dir) if not p.endswith(".tmp"))


def _ledger_commit(
    index_dir: str,
    part: str,
    ds: ray.data.Dataset,
    kind: str,
    meta: dict,
    *,
    replace_parts: list[str] | None = None,
) -> dict:
    """Swap in one part, then write the meta with its updated ``parts``
    manifest — in that order, so readers switch from the old part set to
    the new one in one step and a crash in between leaves only an
    invisible orphan directory. A zero-row ``ds`` commits an empty part.
    ``replace_parts`` (compaction) makes the manifest exactly that list
    instead of adding ``part`` to it."""
    swap_in(ds, os.path.join(index_dir, "parts", part), _LEDGERS[kind][0])
    if replace_parts is not None:
        parts = sorted(replace_parts)
    else:
        parts = sorted(set(_ledger_parts(index_dir, meta)) | {part})
    meta = {**meta, "parts": parts}
    atomic_json_write(os.path.join(index_dir, "meta.json"), meta)
    return meta


def _ledger_bucket_paths(index_dir: str, bucket_col: str, bucket: int) -> list[str]:
    """Every LIVE part's files for ONE bucket — the only files a reduce
    group for that bucket ever opens (``.tmp`` part dirs are in-progress
    builds, manifest-absent dirs are crashed-compaction orphans; neither is
    ever read)."""
    return [
        f
        for part in _ledger_parts(index_dir)
        for f in bucket_files(os.path.join(index_dir, "parts", part), bucket_col, bucket)
    ]


def ledger_kind(meta: dict) -> str:
    """Which ledger a meta describes (the three kinds share one layout)."""
    if "vec_col" in meta:
        return "embedding"
    if "num_perm" in meta:
        return "minhash"
    return "fingerprint"


def compact_ledger(index_dir: str, into: str = "compacted") -> dict:
    """Merge every live part into ONE (probes over a many-epoch ledger open
    one file set per bucket again). Fingerprint rows re-combine exactly
    (min key, summed copy counts); MinHash/embedding rows deduplicate on
    (key, band)/(key) per bucket — a doc indexed in several parts keeps one
    row. Crash-safe in the manifest order: the compacted part is written
    first, the manifest switch is atomic, and old part directories are
    removed only afterwards (a crash leaves invisible orphans, never a
    double-counted or half-missing ledger)."""
    import shutil

    meta = read_ledger_meta(index_dir)
    kind = ledger_kind(meta)
    bucket_col, hash_col = _LEDGERS[kind]
    old = _ledger_parts(index_dir, meta)
    if len(old) <= 1:
        return {**meta, "compacted": False, "parts_before": len(old)}

    files = [
        os.path.join(root, f)
        for p in old
        for root, _, names in os.walk(os.path.join(index_dir, "parts", p))
        for f in sorted(names)
        if f.endswith(".parquet")
    ]
    # the bucket is a pure function of row data — recompute it rather than
    # trusting hive-parsed partition values/dtypes
    nb = int(meta["num_buckets"])

    def rebucket(b: pa.Table) -> pa.Table:
        if bucket_col in b.column_names:
            # the reader hive-parses the partition value back (as string);
            # recompute it typed instead
            b = b.drop_columns([bucket_col])
        h = b.column(hash_col).to_numpy(zero_copy_only=False)
        return b.append_column(bucket_col, pa.array(_bucket_of(h, nb)))

    # every live part empty: the compacted part is empty too
    ds = ray.data.read_parquet(files) if files else ray.data.from_items([])
    ds = ds.map_batches(rebucket, batch_format="pyarrow")
    key_col = meta["key_col"]
    if kind == "fingerprint":
        merged = ds.groupby(bucket_col).map_groups(
            lambda g: _fp_combine(g, key_col), batch_format="pyarrow"
        )
    else:
        subset = [key_col, "band"] if kind == "minhash" else [key_col]

        def distinct(g: pd.DataFrame) -> pd.DataFrame:
            return g.drop_duplicates(subset=subset, keep="first")

        merged = ds.groupby(bucket_col).map_groups(distinct, batch_format="pandas")

    # the partition column comes back hive-parsed; recompute nothing, just
    # let the partitioned write re-split it
    meta = _ledger_commit(index_dir, into, merged, kind, meta, replace_parts=[into])
    for p in old:
        if p != into:
            shutil.rmtree(os.path.join(index_dir, "parts", p), ignore_errors=True)
    return {**meta, "compacted": True, "parts_before": len(old)}


def read_ledger_meta(index_dir: str) -> dict:
    """The pinned parameters of any ledger (fingerprint/MinHash/embedding)."""
    return load_meta(index_dir)


# backwards-compatible name for the fingerprint ledger's reader
read_fingerprint_meta = read_ledger_meta


def fingerprint_bucket_paths(index_dir: str, bucket: int) -> list[str]:
    return _ledger_bucket_paths(index_dir, "fpb", bucket)


def _bucket_fingerprints(index_dir: str, bucket: int) -> np.ndarray:
    import pyarrow.parquet as pq

    paths = fingerprint_bucket_paths(index_dir, bucket)
    if not paths:
        return np.empty(0, np.int64)
    cols = [
        pq.read_table(p, columns=["fingerprint"]).column("fingerprint") for p in paths
    ]
    return pa.concat_arrays(
        [c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c for c in cols]
    ).to_numpy(zero_copy_only=False)


def _fp_partial(
    b: pa.Table, text_col: str, key_col: str, nb: int, project: bool
) -> pa.Table:
    """Per-batch combiner: fingerprint → keep-min-key row + copy count +
    bucket. ``project=True`` keeps only the ledger columns (index builds —
    shrinks the shuffle); ``project=False`` keeps every incoming column
    (incremental dedup returns full surviving rows)."""
    b = fingerprint_batch(b, text_col)
    if project:
        b = b.select([key_col, "fingerprint"])
    if b.num_rows == 0:
        return b.append_column("n_copies", pa.array([], pa.int64())).append_column(
            "fpb", pa.array([], pa.int32())
        )
    fp = b.column("fingerprint").to_numpy(zero_copy_only=False)
    keys = b.column(key_col).to_numpy(zero_copy_only=False)
    take, n = _keepmin_counts(fp, keys)
    kept = b.take(pa.array(take))
    bucket = _bucket_of(kept.column("fingerprint").to_numpy(zero_copy_only=False), nb)
    return kept.append_column("n_copies", pa.array(n)).append_column(
        "fpb", pa.array(bucket)
    )


def _fp_combine(g: pa.Table, key_col: str) -> pa.Table:
    """Merge per-batch partials for one bucket group: same winner rule,
    counts summed."""
    fp = g.column("fingerprint").to_numpy(zero_copy_only=False)
    keys = g.column(key_col).to_numpy(zero_copy_only=False)
    counts = g.column("n_copies").to_numpy(zero_copy_only=False)
    take, n = _keepmin_counts(fp, keys, counts)
    kept = g.take(pa.array(take))
    return kept.set_column(
        kept.schema.get_field_index("n_copies"), "n_copies", pa.array(n)
    )


def build_fingerprint_index(
    ds: ray.data.Dataset,
    index_dir: str,
    *,
    part: str = "base",
    num_buckets: int = 64,
    text_col: str = "text",
    key_col: str = "doc_id",
) -> dict:
    """Build (or extend, with a new ``part`` name) the fingerprint ledger.

    Each part is one swapped-in directory of bucket-partitioned
    ``(key, fingerprint, n_copies)`` rows (``state/buckets.py``) —
    re-running the same build after a partial failure can never leave
    stale or duplicate files. Parts are additive: extending an index with a
    new crawl's survivors is just ``part="epoch-N"``, and zero survivors
    commit an empty part. ``num_buckets`` is fixed by the FIRST build
    (recorded in meta.json) so every part and every incremental read
    buckets identically."""
    meta = load_meta(index_dir, missing_ok=True) or {
        "num_buckets": int(num_buckets), "key_col": key_col, "text_col": text_col,
    }
    nb = int(meta["num_buckets"])

    combined = (
        ds.map_batches(
            lambda b: _fp_partial(b, text_col, key_col, nb, project=True),
            batch_format="pyarrow",
        )
        .groupby("fpb")
        .map_groups(lambda g: _fp_combine(g, key_col), batch_format="pyarrow")
    )
    return _ledger_commit(index_dir, part, combined, "fingerprint", meta)


def incremental_dedup(
    ds: ray.data.Dataset,
    index_dir: str,
    *,
    text_col: str = "text",
    key_col: str = "doc_id",
) -> ray.data.Dataset:
    """Surviving rows of ``ds`` after exact dedup WITHIN the batch (smallest
    key wins, ``n_copies`` counted) and AGAINST the fingerprint ledger —
    without reading the corpus. One map pass + one hash shuffle over the
    incoming data only; each reduce group opens just its own bucket's index
    files (``fingerprint_bucket_paths``). The surviving Dataset still
    carries ``fingerprint``, so feeding it straight back into
    ``build_fingerprint_index(part="epoch-N")`` extends the ledger for the
    next increment. Partitioning assumption: the index lives on storage
    every worker can read (shared FS / object store)."""
    meta = read_fingerprint_meta(index_dir)
    nb = int(meta["num_buckets"])

    def final(g: pa.Table) -> pa.Table:
        kept = _fp_combine(g, key_col)
        bucket = int(g.column("fpb")[0].as_py())
        seen = _bucket_fingerprints(index_dir, bucket)
        fp = kept.column("fingerprint").to_numpy(zero_copy_only=False)
        fresh = ~np.isin(fp, seen)
        return kept.filter(pa.array(fresh)).drop_columns(["fpb"])

    return (
        ds.map_batches(
            lambda b: _fp_partial(b, text_col, key_col, nb, project=False),
            batch_format="pyarrow",
        )
        .groupby("fpb")
        .map_groups(final, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# Persisted MinHash signature ledger — incremental NEAR-dup dedup
#
# The fuzzy analog of the fingerprint ledger: the corpus's MinHash band rows
# (band_hash, key, full signature) live bucket-partitioned by
# band_hash % B, one swapped-in part per build/extend, and a new
# crawl is near-dup-deduplicated against the corpus by computing ITS
# signatures (one map pass), shuffling only the new data's band rows by the
# same bucket function, and having each reduce group probe only its own
# bucket's index files: candidates are band-hash collisions, verified by the
# exact signature-overlap estimate (matching positions / num_perm) — the
# same estimator, same kernel, as minhash_lsh_pairs. The corpus is never
# re-read or re-hashed. Storage trades bands× signature duplication for
# single-lookup verification; the at-scale refinement (band rows + a
# doc-bucketed signature table, two lookups) drops the duplication and slots
# behind the same API.
# ---------------------------------------------------------------------------


def build_minhash_index(
    ds: ray.data.Dataset,
    index_dir: str,
    *,
    part: str = "base",
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    num_buckets: int = 64,
    text_col: str = "text",
    key_col: str = "doc_id",
) -> dict:
    """Build (or extend, with a new ``part``) the MinHash ledger.

    MAP-ONLY — signatures are per-doc, so unlike the exact-fingerprint
    ledger no combine shuffle is needed: one vectorized MinHasher pass over
    the corpus, partitioned write, part swap. LSH parameters are pinned by
    the FIRST build (meta.json); later parts and every probe use the
    recorded values so banding stays identical across epochs."""
    meta = load_meta(index_dir, missing_ok=True) or {
        "num_perm": int(num_perm),
        "bands": int(bands),
        "shingle_k": int(shingle_k),
        "num_buckets": int(num_buckets),
        "key_col": key_col,
        "text_col": text_col,
    }
    rows = _ledger_rows(ds, meta, "minhash", text_col, meta["key_col"])
    return _ledger_commit(index_dir, part, rows, "minhash", meta)


def minhash_bucket_paths(index_dir: str, bucket: int) -> list[str]:
    return _ledger_bucket_paths(index_dir, "bkb", bucket)


def _sig_matrix(col) -> np.ndarray:
    """(n, num_perm) signature matrix from a list<int64> column — flatten +
    reshape on the Arrow values buffer, never a Python-object ``np.stack``
    (which copies row-by-row and dominated the probe's profile). Also
    accepts Ray's tensor-extension encoding (what a pandas-stage rewrite,
    e.g. ledger compaction, produces) and the object-array fallback."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if isinstance(arr, (pa.ListArray, pa.LargeListArray, pa.FixedSizeListArray)):
        flat = arr.flatten().to_numpy(zero_copy_only=False)
        return flat.reshape(len(arr), -1)
    v = arr.to_numpy(zero_copy_only=False)
    return np.stack(v) if v.dtype == object else np.asarray(v)


# ---------------------------------------------------------------------------
# Persisted embedding ledger — incremental embedding-cosine near-dup dedup
#
# Third member of the ledger family (exact fingerprints, MinHash text
# near-dups, embedding near-dups): corpus vectors live bucket-partitioned by
# their hyperplane-LSH signature (signature % B), one swapped-in part per
# build. A new batch computes ITS signatures with the SAME pinned
# planes (dim / n_planes / seed recorded at first build), shuffles only its
# own rows, and each reduce group probes just its bucket's index files:
# candidates are equal-signature rows, verified by exact cosine. Identical
# vectors share their signature deterministically (recall 1.0); the
# near-but-not-identical regime carries the standard (1-θ/π)^p single-band
# bound — the same contract embedding_neardup_pairs documents and tests.
# ---------------------------------------------------------------------------


def build_embedding_index(
    ds: ray.data.Dataset,
    index_dir: str,
    *,
    part: str = "base",
    n_planes: int = 12,
    seed: int = 5,
    num_buckets: int = 64,
    vec_col: str = "embedding",
    key_col: str = "vec_id",
) -> dict:
    """Build (or extend, with a new ``part``) the embedding ledger — one
    map-only LSH pass, partitioned write, part swap. The hyperplane set is
    pinned by the FIRST build (meta.json records dim/n_planes/seed) so
    every part and every probe bucket identically."""
    meta = load_meta(index_dir, missing_ok=True)
    if meta is None:
        first = ds.take(1)
        if not first:
            raise ValueError("cannot build an embedding ledger from an empty dataset")
        meta = {
            "dim": len(first[0][vec_col]),
            "n_planes": int(n_planes),
            "seed": int(seed),
            "num_buckets": int(num_buckets),
            "key_col": key_col,
            "vec_col": vec_col,
        }
    rows = _ledger_rows(ds, meta, "embedding", vec_col, meta["key_col"])
    return _ledger_commit(index_dir, part, rows, "embedding", meta)


def embedding_bucket_paths(index_dir: str, bucket: int) -> list[str]:
    return _ledger_bucket_paths(index_dir, "ebk", bucket)


def _unit_rows(col) -> np.ndarray:
    """Row-normalized float64 matrix of a list<float> column (an all-zero
    row stays zero)."""
    m = np.stack(col.to_numpy(zero_copy_only=False)).astype(np.float64)
    norm = np.linalg.norm(m, axis=1, keepdims=True)
    norm[norm == 0] = 1.0
    return m / norm


# ---------------------------------------------------------------------------
# The near-dup ledger probe, shared by the MinHash and embedding ledgers:
# the incoming rows get the ledger's pinned LSH rows and bucket, shuffle by
# bucket, and each reduce group matches its rows' hashes against that
# bucket's corpus rows and scores the candidate pairs.
# ---------------------------------------------------------------------------

# near-dup ledger kind → (hits score column, payload column → row matrix,
# score of matched row pairs)
_NEARDUP = {
    # MinHash Jaccard estimate: the share of signature positions that match
    "minhash": ("est_jaccard", _sig_matrix, lambda a, b: (a == b).mean(axis=1)),
    # cosine of unit vectors, rounded to the 6 places hits report
    "embedding": (
        "cosine", _unit_rows, lambda a, b: np.round(np.einsum("ij,ij->i", a, b), 6)
    ),
}


def _ledger_rows(
    ds: ray.data.Dataset, meta: dict, kind: str, src_col: str, key_col: str
) -> ray.data.Dataset:
    """LSH rows of ``ds`` under a near-dup ledger's pinned parameters plus
    their ledger bucket — the shared head of the build and the probe.
    MinHash: (key, band, band_hash, sig, bkb) rows of ``src_col`` text;
    embedding: the input rows plus bucket (the LSH signature of the
    ``src_col`` vector) and ebk."""
    if kind == "minhash":
        stage, params = MinHasher, {
            "num_perm": int(meta["num_perm"]),
            "bands": int(meta["bands"]),
            "shingle_k": int(meta["shingle_k"]),
            "text_col": src_col,
            "key_col": key_col,
        }
    else:
        stage, params = HyperplaneLSH, {
            "dim": int(meta["dim"]),
            "n_planes": int(meta["n_planes"]),
            "seed": int(meta["seed"]),
            "vec_col": src_col,
        }
    bucket_col, hash_col = _LEDGERS[kind]
    nb = int(meta["num_buckets"])

    def add_bucket(b: pa.Table) -> pa.Table:
        h = b.column(hash_col).to_numpy(zero_copy_only=False)
        return b.append_column(bucket_col, pa.array(_bucket_of(h, nb)))

    return ds.map_batches(
        stage,
        fn_constructor_kwargs=params,
        batch_format="pyarrow",
        concurrency=(1, 2),
        num_cpus=0.5,
    ).map_batches(add_bucket, batch_format="pyarrow")


def _neardup_probe_block(
    g: pa.Table,
    index_dir: str,
    kind: str,
    key_col: str,
    payload_col: str,
    threshold: float,
    cap: int,
) -> pd.DataFrame:
    """One bucket group of the INCOMING data's ledger rows vs that bucket's
    corpus rows: candidates are equal hash values (searchsorted range match
    against the sorted corpus — vectorized, no Python pairs), verified by
    the kind's score over the payload (MinHash: signature overlap;
    embedding: cosine). Corpus rows beyond ``cap`` per hash value are
    skipped (hot-bucket cap, counted in ``n_capped``).

    Two-phase index read: a cheap hash-only scan finds which hashes
    collide at all, then ONLY those rows' wide payloads are read back
    through a parquet `in` filter — on a mostly-fresh increment this cuts
    the bucket read from every payload in the bucket to just the colliding
    ones (measured ~10× fewer bytes at a 10% dup rate)."""
    import pyarrow.parquet as pq

    bucket_col, hash_col = _LEDGERS[kind]
    score_col, matrix, score = _NEARDUP[kind]
    empty = pd.DataFrame(
        {
            "doc_id": pd.Series([], dtype=object),
            "corpus_id": pd.Series([], dtype=object),
            score_col: pd.Series([], dtype=np.float64),
            "n_capped": pd.Series([], dtype=np.int64),
        }
    )
    if g.num_rows == 0:
        return empty
    bucket = int(g.column(bucket_col)[0].as_py())
    paths = _ledger_bucket_paths(index_dir, bucket_col, bucket)
    if not paths:
        return empty
    i_h = g.column(hash_col).to_numpy(zero_copy_only=False)
    head = pa.concat_tables(pq.read_table(p, columns=[hash_col]) for p in paths)
    matched = np.intersect1d(
        np.unique(i_h), head.column(hash_col).to_numpy(zero_copy_only=False)
    )
    if len(matched) == 0:
        return empty
    # a pathological all-dup increment reads whole: the filter costs more
    # than it saves
    flt = [(hash_col, "in", matched.tolist())] if len(matched) <= 50_000 else None
    corpus = pa.concat_tables(
        pq.read_table(p, columns=[hash_col, key_col, payload_col], filters=flt)
        for p in paths
    )
    if corpus.num_rows == 0:
        return empty
    c_h = corpus.column(hash_col).to_numpy(zero_copy_only=False)
    order = np.argsort(c_h, kind="stable")
    c_h = c_h[order]
    c_keys = corpus.column(key_col).to_numpy(zero_copy_only=False)[order]
    c_mat = matrix(corpus.column(payload_col))[order]

    lo = np.searchsorted(c_h, i_h, side="left")
    hi = np.searchsorted(c_h, i_h, side="right")
    capped = np.maximum(hi - lo - cap, 0)
    hi = np.minimum(hi, lo + cap)
    counts = hi - lo
    if counts.sum() == 0:
        return empty
    inc_i = np.repeat(np.arange(len(i_h)), counts)
    # flat corpus indices for each (incoming row, matched corpus row) pair
    corp_j = _grouped_arange(counts) + np.repeat(lo, counts)
    est = score(matrix(g.column(payload_col))[inc_i], c_mat[corp_j])
    keep = est >= threshold
    i_keys = g.column(key_col).to_numpy(zero_copy_only=False)
    out = pd.DataFrame(
        {
            "doc_id": i_keys[inc_i[keep]],
            "corpus_id": c_keys[corp_j[keep]],
            score_col: est[keep],
            "n_capped": np.int64(0),
        }
    )
    if not len(out):
        out = empty
    n_capped = int(capped.sum())
    if n_capped:
        _LOG.warning(
            "%s ledger bucket %d: %d corpus candidates over the per-hash "
            "cap (%d) skipped",
            kind,
            bucket,
            n_capped,
            cap,
        )
        cap_row = pd.DataFrame(
            {
                "doc_id": [None],
                "corpus_id": [None],
                score_col: [np.nan],
                "n_capped": [np.int64(n_capped)],
            }
        )
        out = pd.concat([out, cap_row], ignore_index=True)
    return out


def _neardup_dedup(
    ds: ray.data.Dataset,
    index_dir: str,
    kind: str,
    src_col: str | None,
    key_col: str,
    threshold: float,
    cap: int,
) -> tuple[ray.data.Dataset, pd.DataFrame]:
    """(survivors, hits) of ``ds`` probed against a MinHash or embedding
    ledger (``src_col``: the text column; None reads the embedding
    ledger's pinned vector column). ``hits`` is the bounded driver-side
    match list (doc_id, corpus_id, score), deduplicated across rows by max
    score, with total over-cap drops in ``hits.attrs['capped']``;
    ``survivors`` is ``ds`` minus the hit doc ids (broadcast NOT-IN filter —
    hit lists are assumed driver-small relative to the corpus, the
    minhash_lsh_pairs assumption). The incoming data is hashed and shuffled
    once; the corpus is only touched through bucket-pruned index reads."""
    meta = read_ledger_meta(index_dir)
    src_col = src_col or meta["vec_col"]
    payload_col = "sig" if kind == "minhash" else src_col
    score_col = _NEARDUP[kind][0]
    raw = (
        _ledger_rows(ds, meta, kind, src_col, key_col)
        .groupby(_LEDGERS[kind][0])
        .map_groups(
            lambda g: _neardup_probe_block(
                g, index_dir, kind, key_col, payload_col, threshold, cap
            ),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    if len(raw) == 0 or "doc_id" not in raw.columns:
        # a fully-empty map_groups output arrives schema-less
        raw = pd.DataFrame(
            {"doc_id": [], "corpus_id": [], score_col: [], "n_capped": []}
        )
    capped = int(raw["n_capped"].fillna(0).sum()) if len(raw) else 0
    hits = raw[raw["doc_id"].notna()].drop(columns=["n_capped"])
    if len(hits):
        hits = (
            hits.groupby(["doc_id", "corpus_id"], as_index=False)[score_col]
            .max()
            .sort_values(["doc_id", "corpus_id"])
            .reset_index(drop=True)
        )
    hits.attrs["capped"] = capped
    dup_ids = set(hits["doc_id"].tolist())

    def keep_fresh(b: pa.Table) -> pa.Table:
        if not dup_ids or b.num_rows == 0:
            return b
        keys = b.column(key_col).to_numpy(zero_copy_only=False)
        mask = ~np.isin(keys, np.array(sorted(dup_ids), dtype=keys.dtype))
        return b.filter(pa.array(mask))

    return ds.map_batches(keep_fresh, batch_format="pyarrow"), hits


def incremental_neardup_dedup(
    ds: ray.data.Dataset,
    index_dir: str,
    *,
    threshold: float = 0.6,
    text_col: str = "text",
    key_col: str = "doc_id",
    max_per_hash: int = 512,
) -> tuple[ray.data.Dataset, pd.DataFrame]:
    """(survivors, hits) of ``ds`` near-dup-checked AGAINST the MinHash
    ledger: hits = (doc_id, corpus_id, est_jaccard), candidates are
    band-hash collisions verified by signature overlap, at most
    ``max_per_hash`` corpus rows per band hash (``_neardup_dedup``).
    Within-batch near-dups are a separate concern (``minhash_lsh_pairs`` on
    the survivors)."""
    return _neardup_dedup(
        ds, index_dir, "minhash", text_col, key_col, threshold, max_per_hash
    )


def incremental_embdup_dedup(
    ds: ray.data.Dataset,
    index_dir: str,
    *,
    threshold: float = 0.95,
    key_col: str = "vec_id",
    max_per_sig: int = 512,
) -> tuple[ray.data.Dataset, pd.DataFrame]:
    """(survivors, hits) of ``ds`` cosine-near-dup-checked AGAINST the
    embedding ledger: hits = (doc_id, corpus_id, cosine), candidates are
    equal LSH signatures verified by exact cosine (rounded to 6 places), at
    most ``max_per_sig`` corpus rows per signature (``_neardup_dedup``)."""
    return _neardup_dedup(
        ds, index_dir, "embedding", None, key_col, threshold, max_per_sig
    )


# ---------------------------------------------------------------------------
# SemDeDup — semantic deduplication (Abbas et al. 2023, arXiv:2303.09540)
#
# Cluster the embedding space with k-means, then find near-duplicate GROUPS
# by exact pairwise cosine WITHIN each cluster only (k-means blocking makes
# the all-pairs cost n²/k per cluster instead of n² — near-identical vectors
# co-cluster by construction), connect the pairs into components, and keep
# ONE representative per component. The paper keeps the member FARTHEST
# from its cluster centroid (better downstream diversity); `keep="min_key"`
# gives the deterministic-baseline alternative.


class _SemAssign:
    """Actor-pool stage: cosine-nearest centroid + similarity-to-centroid
    for every vector (the broadcast-model-in-__init__ convention). The
    embedding column passes through — the within-cluster verify needs it."""

    def __init__(self, centroids: np.ndarray, vec_col: str = "embedding"):
        c = np.asarray(centroids, dtype=np.float64)
        n = np.linalg.norm(c, axis=1, keepdims=True)
        n[n == 0] = 1.0
        self.cents = c / n
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            batch = batch.append_column("cluster", pa.array([], pa.int64()))
            return batch.append_column(
                "centroid_sim", pa.array([], pa.float64())
            )
        emb = np.stack(
            batch.column(self.vec_col).to_pandas().to_numpy()
        ).astype(np.float64)
        norm = np.linalg.norm(emb, axis=1, keepdims=True)
        norm[norm == 0] = 1.0
        sims = (emb / norm) @ self.cents.T
        cl = np.argmax(sims, axis=1)
        batch = batch.append_column("cluster", pa.array(cl, pa.int64()))
        return batch.append_column(
            "centroid_sim",
            pa.array(sims[np.arange(len(cl)), cl], pa.float64()),
        )


def semdedup(
    ds: ray.data.Dataset,
    *,
    eps: float = 0.05,
    n_clusters: int = 32,
    key_col: str = "vec_id",
    vec_col: str = "embedding",
    keep: str = "far",
    max_cluster: int = 4096,
    sample_rows: int = 2048,
    lloyd_iters: int = 0,
    seed: int = 17,
    concurrency: int | tuple = 2,
) -> pd.DataFrame:
    """Semantic dedup: rows whose cosine similarity to another row in the
    same k-means cluster is ≥ ``1 - eps`` form duplicate components; one
    member per component survives. Returns the DUPLICATED rows only —
    columns (key, rep, keep) with exactly one ``keep=True`` per component
    — plus the dedup family's cap accounting in ``result.attrs`` (a
    cluster larger than ``max_cluster`` verifies its first ``max_cluster``
    members by key; the rest are counted as dropped, never silently).

    keep="far": the paper's choice — the member FARTHEST from the cluster
    centroid survives (lowest centroid cosine; ties → lowest key).
    keep="min_key": lowest key survives (the exact-dedup convention)."""
    from .similarity import kmeans_centroids, kmeans_lloyd

    if keep not in ("far", "min_key"):
        raise ValueError(f"unknown keep strategy {keep!r}")
    threshold = 1.0 - float(eps)
    cents = kmeans_centroids(
        ds,
        n_centroids=n_clusters,
        sample_rows=sample_rows,
        vec_col=vec_col,
        seed=seed,
    )
    if lloyd_iters > 0:
        cents, _ = kmeans_lloyd(ds, cents, iters=lloyd_iters, vec_col=vec_col)

    assigned = ds.map_batches(
        _SemAssign,
        fn_constructor_kwargs={"centroids": cents, "vec_col": vec_col},
        batch_format="pyarrow",
        concurrency=concurrency,
        num_cpus=0.5,
    ).materialize()
    counts = _multi_member_counts(assigned, "cluster", DRIVER_VALUE_LIMIT)

    def verify(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(key_col).reset_index(drop=True)
        empty = pd.DataFrame(
            {"id_a": [], "id_b": [], "sim_a": [], "sim_b": []}
        )
        if len(g) < 2:
            return empty
        if len(g) > max_cluster:
            print(
                f"[semdedup] cluster over cap: {len(g)} vectors > "
                f"{max_cluster}, verifying the first {max_cluster} by key"
            )
            g = g.head(max_cluster)
        emb = np.stack(g[vec_col].to_numpy()).astype(np.float64)
        norm = np.linalg.norm(emb, axis=1, keepdims=True)
        norm[norm == 0] = 1.0
        emb = emb / norm
        sims = emb @ emb.T
        ii, jj = np.triu_indices(len(g), k=1)
        hit = sims[ii, jj] >= threshold
        if not hit.any():
            return empty
        keys = g[key_col].to_numpy()
        csim = g["centroid_sim"].to_numpy()
        return pd.DataFrame(
            {
                "id_a": keys[ii[hit]],
                "id_b": keys[jj[hit]],
                "sim_a": csim[ii[hit]],
                "sim_b": csim[jj[hit]],
            }
        )

    pairs = (
        assigned.groupby("cluster")
        .map_groups(verify, batch_format="pandas")
        .to_pandas()
    )
    empty_out = pd.DataFrame({"key": [], "rep": [], "keep": []})
    if pairs.empty:
        return _over_cap_stats(counts, max_cluster, "semdedup", empty_out)

    comp = connected_components_auto(
        pairs["id_a"].to_numpy(), pairs["id_b"].to_numpy()
    )
    # per-key centroid similarity (for keep="far"), from the pair rows
    csim: dict = {}
    for col_k, col_s in (("id_a", "sim_a"), ("id_b", "sim_b")):
        csim.update(zip(pairs[col_k].to_numpy(), pairs[col_s].to_numpy()))
    members = pd.DataFrame(
        {"key": list(comp.keys()), "rep": list(comp.values())}
    )
    if keep == "far":
        members["_sim"] = members["key"].map(csim)
        members = members.sort_values(["rep", "_sim", "key"]).reset_index(
            drop=True
        )
        keepers = set(members.groupby("rep", sort=False)["key"].first())
        members = members.drop(columns=["_sim"])
    else:
        keepers = set(
            members.sort_values(["rep", "key"])
            .groupby("rep", sort=False)["key"]
            .first()
        )
    members["keep"] = members["key"].isin(keepers)
    members = members.sort_values("key").reset_index(drop=True)
    return _over_cap_stats(counts, max_cluster, "semdedup", members)


# ---------------------------------------------------------------------------
# Corpus-level repeated-SPAN dedup — the substring-dedup role of Lee et al.
# 2021, "Deduplicating Training Data Makes Language Models Better"
# (overlapping windows, any alignment — the operator segment_dedup's
# non-overlapping tiling cannot express).
# ---------------------------------------------------------------------------


def _batch_window_hashes(
    texts: list[str], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rolling k-word window hashes with POSITIONS for a whole batch: doc
    i's windows are ``flat[offsets[i]:offsets[i+1]]``, window j starting at
    word j. Docs shorter than k words emit nothing (a short doc has no
    k-span to deduplicate). Same one-hash-pass + rolling-polynomial shape
    as _batch_shingle_hashes."""
    from pandas.util import hash_array

    n = len(texts)
    words_per_doc = [t.split() for t in texts]
    lens = np.fromiter((len(w) for w in words_per_doc), np.int64, count=n)
    total = int(lens.sum())
    if total:
        all_words = np.empty(total, dtype=object)
        pos = 0
        for w in words_per_doc:
            all_words[pos : pos + len(w)] = w
            pos += len(w)
        h = hash_array(all_words, categorize=False).astype(np.uint64)
    else:
        h = np.empty(0, np.uint64)
    w_off = np.zeros(n + 1, np.int64)
    np.cumsum(lens, out=w_off[1:])

    counts = np.where(lens >= k, lens - k + 1, 0)
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(counts, out=offsets[1:])
    flat = np.zeros(int(offsets[-1]), np.uint64)
    if total >= k:
        with np.errstate(over="ignore"):
            acc = h[: total - k + 1].copy()
            for j in range(1, k):
                acc = acc * _FNV + h[j : total - k + 1 + j]
        roll = lens >= k
        if roll.any():
            cnt = counts[roll]
            seq = _grouped_arange(cnt)
            flat[np.repeat(offsets[:-1][roll], cnt) + seq] = acc[
                np.repeat(w_off[:-1][roll], cnt) + seq
            ]
    return flat, offsets


def span_dedup(
    ds: ray.data.Dataset,
    text_col: str = "text",
    key_col: str = "doc_id",
    span: int = 8,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Remove REPEATED k-word spans corpus-wide: every k-word window whose
    hash occurs more than once across the corpus keeps exactly its
    canonical occurrence — lexicographically min ``(key, position)`` — and
    every OTHER occurrence's word positions are removed from their
    documents (overlapping removal intervals union). Exact with respect to
    window hashes, fully deterministic, partitioning-independent.

    Output per doc: ``(key, text_clean, n_words, n_removed_words)`` — docs
    whose every word was covered by duplicate spans come back empty-text
    (callers typically drop ``text_clean == ""``); a null-text doc comes
    back with null ``text_clean`` and nothing removed.

    Plan — two bucket shuffles, no all-pairs, the corpus text crosses the
    wire once:

    1. map: rolling window hashes + positions per batch (vectorized; one
       ``(h, key, pos)`` row per window occurrence).
    2. ``groupby(h % B)``: per bucket, sort + run masking finds duplicated
       hashes and their canonical occurrence; ONLY non-canonical occurrence
       rows (the removal set) leave the bucket.
    3. docs ∪ removal rows co-shuffled on ``hash(key) % B`` (the hash_join
       union trick): each group rebuilds its affected docs' texts with one
       interval-stabbing cumsum mask per doc; untouched docs pass through
       without even splitting.

    Scale notes: step 1 emits one row per word (stride 1) — the honest cost
    of substring-level dedup; the rows are 24 bytes each and shuffle once.
    Adversarially hot windows (boilerplate repeated millions of times)
    concentrate in one h-group; their removal rows are per-occurrence and
    proportional to the duplication being removed, which is the useful
    output, not overhead.
    """
    import pandas as pd
    from pandas.util import hash_array

    nb = num_buckets or n_reduce_buckets()
    key_type = None  # resolved from the first batch schema at build time

    def emit_windows(b: pa.Table) -> pa.Table:
        keys = b.column(key_col).to_pylist()
        texts = [t if t is not None else "" for t in b.column(text_col).to_pylist()]
        flat, offsets = _batch_window_hashes(texts, span)
        counts = np.diff(offsets)
        rep_keys = np.repeat(np.asarray(keys, dtype=object), counts)
        pos = _grouped_arange(counts)
        hb = (flat % np.uint64(nb)).astype(np.int32)
        return pa.table(
            {
                "h": pa.array(flat),
                "k": pa.array(rep_keys, b.schema.field(key_col).type),
                "pos": pa.array(pos),
                "hb": pa.array(hb),
            }
        )

    def removals(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        df = df.sort_values(["h", "k", "pos"], kind="mergesort")
        h = df["h"].to_numpy()
        first_of_run = np.ones(len(h), dtype=bool)
        first_of_run[1:] = h[1:] != h[:-1]
        run_id = np.cumsum(first_of_run) - 1
        run_sizes = np.bincount(run_id)
        dup = run_sizes[run_id] > 1
        # canonical (first row of a duplicated run) survives; the rest are
        # removal rows
        out = df[dup & ~first_of_run]
        return pa.table(
            {
                "k": pa.array(out["k"].to_numpy(), g.schema.field("k").type),
                "pos": pa.array(out["pos"].to_numpy(), pa.int64()),
            }
        )

    windows = ds.map_batches(
        emit_windows, batch_format="pyarrow", zero_copy_batch=True
    )
    rem = windows.groupby("hb").map_groups(removals, batch_format="pyarrow")

    def doc_side(b: pa.Table) -> pa.Table:
        kb = (
            hash_array(
                b.column(key_col).to_numpy(zero_copy_only=False),
                categorize=False,
            )
            % np.uint64(nb)
        ).astype(np.int32)
        return pa.table(
            {
                "k": b.column(key_col),
                "text": b.column(text_col),
                "pos": pa.nulls(b.num_rows, pa.int64()),
                "kb": pa.array(kb),
                # explicit side tag: a null-text document is still a document
                "is_doc": pa.array(np.ones(b.num_rows, dtype=bool)),
            }
        )

    def rem_side(b: pa.Table) -> pa.Table:
        kb = (
            hash_array(b.column("k").to_numpy(zero_copy_only=False), categorize=False)
            % np.uint64(nb)
        ).astype(np.int32)
        return pa.table(
            {
                "k": b.column("k"),
                "text": pa.nulls(b.num_rows, pa.string()),
                "pos": b.column("pos"),
                "kb": pa.array(kb),
                "is_doc": pa.array(np.zeros(b.num_rows, dtype=bool)),
            }
        )

    unioned = ds.map_batches(doc_side, batch_format="pyarrow").union(
        rem.map_batches(rem_side, batch_format="pyarrow")
    )

    def rebuild(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        docs = df[df["is_doc"]]
        rems = df[~df["is_doc"]]
        by_key = rems.groupby("k")["pos"] if len(rems) else None
        # pos arrives float64 (the union's doc rows hold nulls in the column)
        rem_map = (
            {k: v.to_numpy().astype(np.int64) for k, v in by_key}
            if by_key is not None
            else {}
        )
        keys, cleans, n_words, n_removed = [], [], [], []
        for k, text in zip(docs["k"], docs["text"]):
            if text is None:
                keys.append(k)
                cleans.append(None)
                n_words.append(0)
                n_removed.append(0)
                continue
            words = text.split()
            n = len(words)
            starts = rem_map.get(k)
            if starts is None or n == 0:
                keys.append(k)
                cleans.append(text)
                n_words.append(n)
                n_removed.append(0)
                continue
            cover = np.zeros(n + 1, np.int64)
            np.add.at(cover, np.minimum(starts, n), 1)
            np.add.at(cover, np.minimum(starts + span, n), -1)
            covered = np.cumsum(cover[:-1]) > 0
            kept = [w for w, c in zip(words, covered) if not c]
            keys.append(k)
            cleans.append(" ".join(kept))
            n_words.append(n)
            n_removed.append(int(covered.sum()))
        return pa.table(
            {
                key_col: pa.array(keys, g.schema.field("k").type),
                "text_clean": pa.array(cleans, pa.string()),
                "n_words": pa.array(n_words, pa.int64()),
                "n_removed_words": pa.array(n_removed, pa.int64()),
            }
        )

    return unioned.groupby("kb").map_groups(rebuild, batch_format="pyarrow")
