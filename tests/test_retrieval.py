"""BM25 lexical retrieval vs an independent DuckDB oracle.

The oracle recomputes the whole BM25 pipeline (tf, df, |d|, avgdl, score)
in SQL from the same parquet with the same tokenization (string_split on a
single space) — integers must match exactly; scores to float tolerance
(ln/÷ may differ in the last ulp between libm and DuckDB)."""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa
import pytest

from clickhouse_data_pipeline_ray.functions.retrieval import bm25_topk

SF_DIR = "/root/testdata/sf0.001"
DOCS = f"{SF_DIR}/documents.parquet"
K1, B = 1.2, 0.75


def _read_docs(ray, num_blocks=None):
    return ray.data.read_parquet(
        DOCS, columns=["doc_id", "text"], override_num_blocks=num_blocks
    )


def _oracle(terms: list[str], k: int):
    tlist = ", ".join(f"'{t}'" for t in terms)
    return duckdb.sql(
        f"""
        WITH d AS (
          SELECT doc_id, string_split(text, ' ') AS w
          FROM read_parquet('{DOCS}')
        ),
        corpus AS (
          SELECT count(*) AS n, CAST(sum(len(w)) AS DOUBLE) / count(*) AS avgdl
          FROM d
        ),
        tf AS (
          SELECT doc_id, term, count(*) AS tf
          FROM (SELECT doc_id, unnest(w) AS term FROM d)
          WHERE term IN ({tlist})
          GROUP BY doc_id, term
        ),
        dft AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
        dl AS (SELECT doc_id, len(w) AS dl FROM d),
        scored AS (
          SELECT tf.doc_id,
                 sum(
                   ln((corpus.n - dft.df + 0.5) / (dft.df + 0.5) + 1.0)
                   * tf.tf * ({K1} + 1.0)
                   / (tf.tf + {K1} * (1.0 - {B} + {B} * dl.dl / corpus.avgdl))
                 ) AS score
          FROM tf
          JOIN dft USING (term)
          JOIN dl ON tf.doc_id = dl.doc_id
          CROSS JOIN corpus
          GROUP BY tf.doc_id
        )
        SELECT doc_id, score FROM scored
        ORDER BY score DESC, doc_id
        LIMIT {k}
        """
    ).df()


@pytest.mark.parametrize("query", ["merge sort filter", "customer", "scan scan hash"])
def test_bm25_matches_duckdb_oracle(ray_session, query):
    got = bm25_topk(_read_docs(ray_session), query, k=10).to_pandas()
    terms = sorted({t for t in query.split(" ") if t})
    want = _oracle(terms, k=10)
    assert list(got["doc_id"]) == list(want["doc_id"])
    np.testing.assert_allclose(got["score"], want["score"], rtol=1e-9)
    assert list(got["rank"]) == list(range(1, len(got) + 1))


def test_bm25_block_count_invariant(ray_session):
    a = bm25_topk(_read_docs(ray_session, num_blocks=1), "join window stream", k=7)
    b = bm25_topk(_read_docs(ray_session, num_blocks=8), "join window stream", k=7)
    assert a.column("doc_id").to_pylist() == b.column("doc_id").to_pylist()
    np.testing.assert_allclose(
        a.column("score").to_pylist(), b.column("score").to_pylist(), rtol=1e-12
    )


def test_bm25_no_match_is_empty_with_schema(ray_session):
    out = bm25_topk(_read_docs(ray_session), "zzzznotaword", k=5)
    assert out.num_rows == 0
    assert out.column_names == ["rank", "doc_id", "score"]


def test_bm25_empty_query_raises(ray_session):
    with pytest.raises(ValueError):
        bm25_topk(_read_docs(ray_session), "   ", k=5)


@pytest.fixture(scope="module")
def text_index(ray_session, tmp_path_factory):
    from clickhouse_data_pipeline_ray.functions.retrieval import build_text_index

    idx = str(tmp_path_factory.mktemp("bm25idx"))
    meta = build_text_index(_read_docs(ray_session), idx, num_buckets=16)
    return idx, meta


def test_index_identical_to_streaming(ray_session, text_index):
    from clickhouse_data_pipeline_ray.functions.retrieval import bm25_index_topk

    idx, meta = text_index
    assert meta["n_docs"] == 500
    for q in ["merge sort filter", "customer", "join window stream"]:
        got = bm25_index_topk(idx, q, k=10)
        want = bm25_topk(_read_docs(ray_session), q, k=10)
        assert got.column("doc_id").to_pylist() == want.column("doc_id").to_pylist()
        # same float64 ops in the same order on both paths → bitwise equal
        assert got.column("score").to_pylist() == want.column("score").to_pylist()


def test_index_opens_only_query_buckets(text_index, monkeypatch):
    from clickhouse_data_pipeline_ray.functions import retrieval as R

    idx, meta = text_index
    qarr = np.array(["merge"], dtype=object)
    want_bucket = int(R._term_buckets(qarr, meta["num_buckets"])[0])
    opened = []
    real = __import__("pyarrow.parquet", fromlist=["read_table"]).read_table

    def spy(path, *a, **kw):
        opened.append(path)
        return real(path, *a, **kw)

    import pyarrow.parquet as pq

    monkeypatch.setattr(pq, "read_table", spy)
    R.bm25_index_topk(idx, "merge", k=5)
    assert opened, "index read no files"
    assert all(f"bucket={want_bucket}" in p for p in opened)
    n_buckets_on_disk = len(
        [d for d in __import__("os").listdir(f"{idx}/postings") if d.startswith("bucket=")]
    )
    assert n_buckets_on_disk > 1  # pruning is real, not vacuous


def test_index_rebuild_idempotent(ray_session, text_index):
    from clickhouse_data_pipeline_ray.functions.retrieval import (
        bm25_index_topk,
        build_text_index,
    )

    idx, _ = text_index
    before = bm25_index_topk(idx, "merge sort", k=5)
    build_text_index(_read_docs(ray_session), idx, num_buckets=16)
    after = bm25_index_topk(idx, "merge sort", k=5)
    assert before.column("doc_id").to_pylist() == after.column("doc_id").to_pylist()
    assert before.column("score").to_pylist() == after.column("score").to_pylist()


def test_index_rebuild_crash_refuses_to_answer(ray_session, tmp_path, monkeypatch):
    """A rebuild (16 → 4 buckets) that dies at its meta write leaves an
    index that raises on read, not the old meta over the new postings
    (which answered most queries with an empty top-k); a clean rebuild
    restores the answers."""
    import os

    import clickhouse_data_pipeline_ray.functions.retrieval as retrieval_mod
    from clickhouse_data_pipeline_ray.functions.retrieval import (
        bm25_index_topk,
        build_text_index,
    )

    idx = str(tmp_path / "bm25idx")
    build_text_index(_read_docs(ray_session), idx, num_buckets=16)
    queries = ["merge", "customer", "join", "window", "stream", "filter", "sort"]
    want = [bm25_index_topk(idx, q, k=5).to_pylist() for q in queries]
    assert all(want)
    real_write = retrieval_mod.atomic_json_write

    def write(path, doc, *a, **kw):
        if os.path.basename(path) == "meta.json":
            raise OSError("injected meta write failure")
        return real_write(path, doc, *a, **kw)

    monkeypatch.setattr(retrieval_mod, "atomic_json_write", write)
    with pytest.raises(OSError, match="injected"):
        build_text_index(_read_docs(ray_session), idx, num_buckets=4)
    monkeypatch.undo()
    for q in queries:
        with pytest.raises(FileNotFoundError):
            bm25_index_topk(idx, q, k=5)
    build_text_index(_read_docs(ray_session), idx, num_buckets=16)
    assert [bm25_index_topk(idx, q, k=5).to_pylist() for q in queries] == want


def test_index_unknown_term_empty(text_index):
    from clickhouse_data_pipeline_ray.functions.retrieval import bm25_index_topk

    idx, _ = text_index
    out = bm25_index_topk(idx, "zzzznotaword", k=5)
    assert out.num_rows == 0
    assert out.column_names == ["rank", "doc_id", "score"]


def test_rrf_fuse_hand_computed():
    import pyarrow as pa

    from clickhouse_data_pipeline_ray.functions.retrieval import rrf_fuse

    a = pa.table({"doc_id": pa.array([10, 20, 30], pa.int64())})
    b = pa.table({"doc_id": pa.array([20, 40], pa.int64())})
    out = rrf_fuse([a, b], k=4, k0=60).to_pandas()
    want = {
        10: 1 / 61,
        20: 1 / 62 + 1 / 61,
        30: 1 / 63,
        40: 1 / 62,
    }
    assert list(out["doc_id"]) == sorted(want, key=lambda d: (-want[d], d))
    for _, r in out.iterrows():
        assert abs(r["rrf_score"] - want[r["doc_id"]]) < 1e-12


def test_hybrid_topk_matches_sql_rrf_oracle(ray_session):
    import pyarrow.parquet as pq

    from clickhouse_data_pipeline_ray.functions.retrieval import hybrid_topk

    emb = pq.read_table(f"{SF_DIR}/embeddings.parquet")
    qvec = np.asarray(emb.column("embedding")[7].as_py(), dtype=np.float64)
    got = hybrid_topk(
        _read_docs(ray_session), emb, "merge sort filter", qvec,
        k=10, fetch_k=25,
    ).to_pandas()
    qv = "[" + ", ".join(repr(float(x)) for x in qvec) + "]"
    terms = "'merge', 'sort', 'filter'"
    want = duckdb.sql(
        f"""
        WITH d AS (SELECT doc_id, string_split(text,' ') w
                   FROM read_parquet('{SF_DIR}/documents.parquet')),
        corpus AS (SELECT count(*) n, CAST(sum(len(w)) AS DOUBLE)/count(*) avgdl FROM d),
        tf AS (SELECT doc_id, term, count(*) tf
               FROM (SELECT doc_id, unnest(w) term FROM d)
               WHERE term IN ({terms}) GROUP BY 1, 2),
        dft AS (SELECT term, count(*) df FROM tf GROUP BY 1),
        dl AS (SELECT doc_id, len(w) dl FROM d),
        bm AS (SELECT tf.doc_id,
                      sum(ln((corpus.n-dft.df+0.5)/(dft.df+0.5)+1.0)*tf.tf*2.2
                          /(tf.tf+1.2*(0.25+0.75*dl.dl/corpus.avgdl))) s
               FROM tf JOIN dft USING(term) JOIN dl ON tf.doc_id=dl.doc_id
               CROSS JOIN corpus GROUP BY 1),
        bm_r AS (SELECT doc_id,
                        row_number() OVER (ORDER BY s DESC, doc_id) r
                 FROM bm ORDER BY s DESC, doc_id LIMIT 25),
        -- dense side mirrors brute_force_topk's determinism contract:
        -- scores rounded to 6 decimals BEFORE ranking, ties by id
        dn AS (SELECT vec_id AS doc_id,
                      round(list_cosine_similarity(embedding, {qv}::FLOAT[]), 6) s
               FROM read_parquet('{SF_DIR}/embeddings.parquet')),
        dn_r AS (SELECT doc_id,
                        row_number() OVER (ORDER BY s DESC, doc_id) r
                 FROM dn ORDER BY s DESC, doc_id LIMIT 25),
        fused AS (
          SELECT doc_id, sum(1.0/(60+r)) rrf FROM (
            SELECT * FROM bm_r UNION ALL SELECT * FROM dn_r
          ) GROUP BY doc_id)
        SELECT doc_id, rrf FROM fused ORDER BY rrf DESC, doc_id LIMIT 10
        """
    ).df()
    assert list(got["doc_id"]) == list(want["doc_id"])
    np.testing.assert_allclose(got["rrf_score"], want["rrf"], rtol=1e-12)


def test_bm25_duplicate_terms_no_double_weight(ray_session):
    once = bm25_topk(_read_docs(ray_session), "merge", k=5)
    twice = bm25_topk(_read_docs(ray_session), "merge merge", k=5)
    assert once.column("doc_id").to_pylist() == twice.column("doc_id").to_pylist()
    np.testing.assert_allclose(
        once.column("score").to_pylist(), twice.column("score").to_pylist()
    )
