"""Incremental token index over a committed table.

Oracle: DuckDB BM25 over the table's merged snapshot (unnest the tokens
list) — scores to float tolerance. Incrementality: a refresh after new
apply epochs must re-derive ONLY the partitions whose manifest file chains
changed, leave other partitions' postings files untouched on disk, and end
bit-identical to a from-scratch rebuild."""

from __future__ import annotations

import os

import duckdb
import numpy as np
import pyarrow.parquet as pq
import pytest

from clickhouse_data_pipeline_ray.functions.retrieval import (
    bm25_table_index_topk,
    refresh_table_token_index,
)
from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    apply_once,
    create_table,
    snapshot_table,
)
from clickhouse_data_pipeline_ray.sources.gen import GenParams, generate_wal

from .helpers import force_ray_venue

PARAMS = GenParams(
    total_events=4_000, base_events=1_500, events_per_segment=1_000, seed=31,
    tok_min=4, tok_max=48, mix=(0.3, 0.55, 0.15),
)
CFG = ApplyConfig(max_segments=2, salt_factor=1, small_epoch_events=0)
K1, B = 1.2, 0.75


def _build(wal_dir, table_dir):
    generate_wal(wal_dir, PARAMS)
    create_table(table_dir, num_partitions=8)
    assert apply_once(table_dir, wal_dir, CFG) is not None  # epoch 1
    return table_dir, wal_dir


@pytest.fixture(scope="module")
def table(ray_session, tmp_path_factory):
    return _build(
        str(tmp_path_factory.mktemp("wal")),
        str(tmp_path_factory.mktemp("tbl") / "t"),
    )


def _snapshot_parquet(table_dir, path):
    pq.write_table(snapshot_table(table_dir), path)
    return path


def _oracle_topk(snap_path: str, qtoks: list[int], k: int):
    tlist = ", ".join(str(t) for t in sorted(set(qtoks)))
    return duckdb.sql(
        f"""
        WITH d AS (SELECT doc_id, tokens, len(tokens) AS dl
                   FROM read_parquet('{snap_path}')),
        corpus AS (SELECT count(*) AS n,
                          CAST(sum(dl) AS DOUBLE) / count(*) AS avgdl FROM d),
        tf AS (SELECT doc_id, term, count(*) AS tf
               FROM (SELECT doc_id, unnest(tokens) AS term FROM d)
               WHERE term IN ({tlist}) GROUP BY doc_id, term),
        dft AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
        scored AS (
          SELECT tf.doc_id,
                 sum(ln((corpus.n - dft.df + 0.5) / (dft.df + 0.5) + 1.0)
                     * tf.tf * ({K1} + 1.0)
                     / (tf.tf + {K1} * (1.0 - {B} + {B} * d.dl / corpus.avgdl))
                 ) AS score
          FROM tf JOIN dft USING (term)
          JOIN d ON tf.doc_id = d.doc_id CROSS JOIN corpus
          GROUP BY tf.doc_id)
        SELECT doc_id, score FROM scored ORDER BY score DESC, doc_id LIMIT {k}
        """
    ).df()


def _some_query_tokens(table_dir, n=5):
    snap = snapshot_table(table_dir)
    toks = snap.column("tokens")[0].as_py()[:n]
    return [int(t) for t in toks]


def test_table_index_matches_snapshot_oracle(ray_session, table, tmp_path):
    table_dir, _ = table
    idx = str(tmp_path / "idx")
    meta = refresh_table_token_index(table_dir, idx, num_buckets=16)
    assert meta["refreshed_pids"]  # first build derives every partition
    qtoks = _some_query_tokens(table_dir)
    got = bm25_table_index_topk(idx, qtoks, k=10).to_pandas()
    snap_path = _snapshot_parquet(table_dir, str(tmp_path / "snap.parquet"))
    want = _oracle_topk(snap_path, qtoks, k=10)
    assert list(got["doc_id"]) == list(want["doc_id"])
    np.testing.assert_allclose(got["score"], want["score"], rtol=1e-9)


def test_refresh_prunes_unchanged_partitions(ray_session, table, tmp_path):
    table_dir, wal_dir = table
    idx = str(tmp_path / "idx")
    refresh_table_token_index(table_dir, idx, num_buckets=16)

    # record on-disk state of every postings file before the refresh
    def files_state(root):
        return {
            os.path.join(d, f): os.stat(os.path.join(d, f)).st_mtime_ns
            for d, _, names in os.walk(root)
            for f in names
        }

    before = files_state(os.path.join(idx, "postings"))

    # epoch 2: new WAL segments → some (not all) partitions change
    stats = apply_once(table_dir, wal_dir, CFG)
    assert stats is not None
    res = refresh_table_token_index(table_dir, idx, num_buckets=16)
    refreshed = set(res["refreshed_pids"])
    all_pids = set(
        __import__(
            "clickhouse_data_pipeline_ray.state.manifest", fromlist=["load_manifest"]
        ).load_manifest(table_dir).partitions
    )
    assert refreshed  # something changed
    after = files_state(os.path.join(idx, "postings"))
    untouched = 0
    for p, m in before.items():
        pid = p.split("pid=")[-1].split(os.sep)[0]
        if pid not in refreshed:
            assert p in after and after[p] == m, f"unchanged pid file rewritten: {p}"
            untouched += 1
    if refreshed != all_pids:
        assert untouched > 0  # pruning actually preserved files

    # incremental result == from-scratch rebuild
    idx2 = str(tmp_path / "idx2")
    refresh_table_token_index(table_dir, idx2, num_buckets=16)
    qtoks = _some_query_tokens(table_dir)
    a = bm25_table_index_topk(idx, qtoks, k=10)
    b = bm25_table_index_topk(idx2, qtoks, k=10)
    assert a.column("doc_id").to_pylist() == b.column("doc_id").to_pylist()
    assert a.column("score").to_pylist() == b.column("score").to_pylist()

    # and still oracle-true at the new epoch
    snap_path = _snapshot_parquet(table_dir, str(tmp_path / "snap2.parquet"))
    want = _oracle_topk(snap_path, qtoks, k=10)
    got = a.to_pandas()
    assert list(got["doc_id"]) == list(want["doc_id"])
    np.testing.assert_allclose(got["score"], want["score"], rtol=1e-9)


def test_refresh_prunes_unchanged_partitions_ray_venue(ray_session, tmp_path, monkeypatch):
    """The same refresh with every per-pid derive in the Ray Data venue."""
    force_ray_venue(monkeypatch)
    fresh = _build(str(tmp_path / "wal"), str(tmp_path / "t"))
    test_refresh_prunes_unchanged_partitions(ray_session, fresh, tmp_path)


def test_noop_refresh_touches_nothing(ray_session, table, tmp_path):
    table_dir, _ = table
    idx = str(tmp_path / "idx")
    refresh_table_token_index(table_dir, idx, num_buckets=16)
    res = refresh_table_token_index(table_dir, idx, num_buckets=16)
    assert res["refreshed_pids"] == []


def test_repartition_forces_full_rebuild_no_stale_postings(ray_session, tmp_path):
    # a layout change (repartition 8→4) must trigger a full rebuild that
    # WIPES the old postings tree — otherwise pid=4..7 dirs would survive
    # and be read as live duplicates (inflated df, resurrected deletes)
    from clickhouse_data_pipeline_ray.pipelines.apply import repartition_table

    wal_dir = str(tmp_path / "wal")
    generate_wal(
        wal_dir,
        GenParams(total_events=2_000, base_events=800, events_per_segment=1_000,
                  seed=41, tok_min=4, tok_max=32),
    )
    table_dir = str(tmp_path / "t")
    create_table(table_dir, num_partitions=8)
    while apply_once(table_dir, wal_dir, CFG) is not None:
        pass
    idx = str(tmp_path / "idx")
    refresh_table_token_index(table_dir, idx, num_buckets=8)

    repartition_table(table_dir, 4)
    res = refresh_table_token_index(table_dir, idx, num_buckets=8)
    assert set(res["refreshed_pids"]) == {"0", "1", "2", "3"}
    post = os.path.join(idx, "postings")
    stale = [pd_ for pd_ in os.listdir(post) if int(pd_.split("=", 1)[-1]) >= 4]
    assert stale == []
    qtoks = _some_query_tokens(table_dir)
    got = bm25_table_index_topk(idx, qtoks, k=10).to_pandas()
    snap_path = _snapshot_parquet(table_dir, str(tmp_path / "snap.parquet"))
    want = _oracle_topk(snap_path, qtoks, k=10)
    assert list(got["doc_id"]) == list(want["doc_id"])
    np.testing.assert_allclose(got["score"], want["score"], rtol=1e-9)


def test_tokens_col_change_forces_full_rebuild(ray_session, table, tmp_path):
    table_dir, _ = table
    idx = str(tmp_path / "idx")
    refresh_table_token_index(table_dir, idx, num_buckets=16)
    # same epoch, different term column → must NOT be treated as a no-op
    res = refresh_table_token_index(
        table_dir, idx, num_buckets=16, tokens_col="tokens"
    )
    assert res["refreshed_pids"] == []  # identical spec → no-op
    import json

    with open(os.path.join(idx, "meta.json")) as f:
        assert json.load(f)["tokens_col"] == "tokens"


def test_null_text_is_zero_length_doc(ray_session):
    import pyarrow as pa

    from clickhouse_data_pipeline_ray.functions.retrieval import bm25_topk

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["alpha beta", None, "alpha alpha"], pa.string()),
        }
    )
    got = bm25_topk(ray_session.data.from_arrow(t), "alpha", k=5)
    assert got.column("doc_id").to_pylist() == [3, 1]  # null doc just absent


def test_empty_result_schema_matches_string_corpus(ray_session, tmp_path):
    import pyarrow as pa

    from clickhouse_data_pipeline_ray.functions.retrieval import (
        bm25_topk,
        build_text_index,
        bm25_index_topk,
    )

    t = pa.table(
        {
            "doc_id": pa.array(["a", "b"], pa.string()),
            "text": pa.array(["x y", "y z"], pa.string()),
        }
    )
    ds = ray_session.data.from_arrow(t)
    hit = bm25_topk(ds, "x", k=5)
    miss = bm25_topk(ds, "qqq", k=5)
    assert hit.schema.field("doc_id").type == miss.schema.field("doc_id").type
    idx = str(tmp_path / "idx")
    build_text_index(ds, idx, num_buckets=4)
    ihit = bm25_index_topk(idx, "x", k=5)
    imiss = bm25_index_topk(idx, "qqq", k=5)
    assert ihit.schema.field("doc_id").type == imiss.schema.field("doc_id").type
    # and index == streaming on the string-keyed corpus too
    assert ihit.column("doc_id").to_pylist() == hit.column("doc_id").to_pylist()
    assert ihit.column("score").to_pylist() == hit.column("score").to_pylist()


def test_deleted_docs_leave_the_index(ray_session, tmp_path):
    # a WAL with a heavy delete mix: every returned doc must exist in the
    # final snapshot (deletes were dropped when their partition re-derived)
    wal_dir = str(tmp_path / "wal")
    generate_wal(
        wal_dir,
        GenParams(total_events=3_000, base_events=1_200, events_per_segment=1_000,
                  seed=37, tok_min=4, tok_max=32, mix=(0.3, 0.3, 0.4)),
    )
    table_dir = str(tmp_path / "t")
    create_table(table_dir, num_partitions=4)
    idx = str(tmp_path / "idx")
    while apply_once(table_dir, wal_dir, CFG) is not None:
        refresh_table_token_index(table_dir, idx, num_buckets=16)
    live = set(snapshot_table(table_dir).column("doc_id").to_pylist())
    qtoks = list(range(0, 64))
    got = bm25_table_index_topk(idx, qtoks, k=50).to_pandas()
    assert len(got) > 0
    assert set(got["doc_id"]).issubset(live)



def test_deleted_docs_leave_the_index_ray_venue(ray_session, tmp_path, monkeypatch):
    """The same refreshes with every per-pid derive in the Ray Data venue."""
    force_ray_venue(monkeypatch)
    test_deleted_docs_leave_the_index(ray_session, tmp_path)
