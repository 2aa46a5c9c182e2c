"""Property tests for the pure (driver-side, no-Ray) retrieval/mixing
kernels: the shared BM25 scoring kernel against a scalar reference, the
postings extraction against a naive Counter, and the budget sampler's
bucket/boundary arithmetic against a direct sort."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from clickhouse_data_pipeline_ray.functions.mixing import _bucket_shift, _lehmer
from clickhouse_data_pipeline_ray.functions.retrieval import (
    STATS_BUCKET,
    _bm25_scores,
    _pid_postings,
    _rank_topk,
)


@settings(max_examples=60, deadline=None)
@given(
    tf=st.lists(
        st.lists(st.integers(0, 20), min_size=3, max_size=3), min_size=1, max_size=8
    ),
    dl=st.lists(st.integers(1, 500), min_size=8, max_size=8),
    df=st.lists(st.integers(0, 99), min_size=3, max_size=3),
    k1=st.floats(0.5, 2.5),
    b=st.floats(0.0, 1.0),
)
def test_bm25_kernel_matches_scalar_reference(tf, dl, df, k1, b):
    n_docs, avgdl = 100, 57.3
    tfm = np.array(tf, dtype=np.float64)
    dla = np.array(dl[: len(tf)], dtype=np.float64)
    idf = np.log((n_docs - np.array(df) + 0.5) / (np.array(df) + 0.5) + 1.0)
    got = _bm25_scores(tfm, dla, idf, avgdl, k1, b)
    for i in range(len(tf)):
        want = sum(
            idf[j]
            * tf[i][j]
            * (k1 + 1.0)
            / (tf[i][j] + k1 * (1.0 - b + b * dla[i] / avgdl))
            for j in range(3)
        )
        assert math.isclose(got[i], want, rel_tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    docs=st.lists(
        st.lists(st.integers(0, 30), min_size=0, max_size=40),
        min_size=0,
        max_size=12,
    )
)
def test_pid_postings_equals_naive_counter(docs):
    t = pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(len(docs))], pa.string()),
            "tokens": pa.array(docs, pa.list_(pa.int32())),
        }
    )
    out = _pid_postings(t, num_buckets=8, tokens_col="tokens")
    body = out.filter(pa.compute.not_equal(out.column("bucket"), STATS_BUCKET))
    got = {
        (r["doc_id"], r["term"]): (r["tf"], r["dl"])
        for r in body.to_pylist()
    }
    want = {}
    for i, toks in enumerate(docs):
        c = Counter(toks)
        for term, tf in c.items():
            want[(f"d{i}", term)] = (tf, len(toks))
    assert got == want
    stats = out.filter(pa.compute.equal(out.column("bucket"), STATS_BUCKET))
    assert stats.num_rows == 1
    assert stats.column("tf")[0].as_py() == len(docs)
    assert stats.column("dl")[0].as_py() == sum(len(d) for d in docs)


@settings(max_examples=60, deadline=None)
@given(
    scores=st.lists(st.floats(0.0, 100.0), min_size=0, max_size=30),
    k=st.integers(1, 10),
)
def test_rank_topk_is_sorted_prefix(scores, k):
    ids = np.arange(len(scores), dtype=np.int64)
    s = np.array(scores, dtype=np.float64)
    out = _rank_topk(ids, s, k)
    got_scores = out.column("score").to_pylist()
    assert got_scores == sorted(got_scores, reverse=True)
    assert all(v > 0 for v in got_scores)
    pos = [v for v in scores if v > 0]
    assert out.num_rows == min(k, len(pos))
    if pos and out.num_rows:
        assert got_scores[0] == max(pos)


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(st.integers(0, 10**9), min_size=1, max_size=200, unique=True),
    n_buckets=st.sampled_from([2, 16, 256, 4096]),
)
def test_lehmer_bucket_order_is_consistent_with_hash_order(ids, n_buckets):
    # range buckets (h >> shift) must preserve the hash ordering: sorting by
    # (bucket, h) equals sorting by h — the invariant the histogram pass's
    # boundary location depends on
    arr = np.array(ids, dtype=np.int64)
    h = _lehmer(arr)
    bkt = h >> _bucket_shift(n_buckets)
    assert (bkt >= 0).all() and (bkt < n_buckets).all()
    by_h = np.lexsort((arr, h))
    by_bh = np.lexsort((arr, h, bkt))
    assert (h[by_h] == h[by_bh]).all()
