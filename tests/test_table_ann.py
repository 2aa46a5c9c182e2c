"""Incremental ANN index over a committed upsert table: exact (raw-vector)
within-probe search, changed-partition-only refresh, centroid pinning, and
update/delete visibility — the derived-artifact maintenance contract the
BM25 token index established, applied to vectors."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from clickhouse_data_pipeline_ray.functions.similarity import (
    _normalize,
    ann_table_index_topk,
    brute_force_topk,
    refresh_table_ann_index,
)
from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    create_table,
    replay,
    snapshot_table,
)
from clickhouse_data_pipeline_ray.sources.wal import segment_path

from .helpers import force_ray_venue

DIM = 16
EMB_SCHEMA = pa.schema(
    [
        pa.field("lsn", pa.int64()),
        pa.field("doc_id", pa.string()),
        pa.field("embedding", pa.list_(pa.float32())),
    ]
)


def _vecs(n, seed):
    return _normalize(np.random.default_rng(seed).normal(size=(n, DIM)))


def _seg(wal, lsn0, rows):
    """rows: list of (doc_id, vec | None-for-delete)."""
    lsns = list(range(lsn0, lsn0 + len(rows)))
    t = pa.table(
        {
            "lsn": pa.array(lsns, pa.int64()),
            "op": pa.array(
                ["d" if v is None else "c" for _, v in rows], pa.string()
            ),
            "doc_id": pa.array([k for k, _ in rows], pa.string()),
            "embedding": pa.array(
                [
                    (v.astype(np.float32).tolist() if v is not None else None)
                    for _, v in rows
                ],
                pa.list_(pa.float32()),
            ),
        }
    )
    pq.write_table(t, segment_path(wal, lsns[0], lsns[-1]))
    return lsn0 + len(rows)


@pytest.fixture()
def emb_table(ray_session, tmp_path):
    wal = str(tmp_path / "wal")
    os.makedirs(wal)
    base = _vecs(400, seed=1)
    _seg(wal, 1, [(f"d{i:04d}", base[i]) for i in range(400)])
    table = str(tmp_path / "t")
    create_table(table, schema=EMB_SCHEMA, num_partitions=6)
    replay(table, wal, ApplyConfig(), final_compact=False)
    return table, wal, base


def _exact(table, queries, qids, k=5):
    snap = snapshot_table(table)
    return brute_force_topk(
        snap.select(["doc_id", "embedding"]), queries, qids, k=k,
        key_col="doc_id", exclude_self=False,
    )


def test_full_probe_equals_brute_force_over_snapshot(emb_table, tmp_path):
    table, _, base = emb_table
    idx = str(tmp_path / "ann")
    meta = refresh_table_ann_index(table, idx, n_centroids=4)
    assert meta["refreshed_pids"] == [str(i) for i in range(6)] or len(
        meta["refreshed_pids"]
    ) == 6

    q = base[::97]
    qids = [f"q{i}" for i in range(len(q))]
    got = ann_table_index_topk(idx, q, qids, k=5, nprobe=4)
    want = _exact(table, q, qids, k=5)
    # raw vectors => EXACT equality with brute force at full probe
    assert got.values.tolist() == want.values.tolist()

    # nprobe pruning still returns k rows per query from fewer buckets
    pruned = ann_table_index_topk(idx, q, qids, k=5, nprobe=1)
    assert (pruned.groupby("query_id")["rank"].max() == 5).all()


def test_refresh_rederives_only_changed_partitions(emb_table, tmp_path):
    table, wal, base = emb_table
    idx = str(tmp_path / "ann")
    refresh_table_ann_index(table, idx, n_centroids=4)
    cents_path = os.path.join(idx, "vectors", "_model", "centroids.npy")
    cents_before = np.load(cents_path)

    # one update + one delete → at most two partitions change
    newvec = _normalize(np.ones((1, DIM)))[0]
    _seg(wal, 401, [("d0007", newvec), ("d0011", None)])
    replay(table, wal, ApplyConfig(), final_compact=False)
    meta = refresh_table_ann_index(table, idx, n_centroids=4)
    assert 1 <= len(meta["refreshed_pids"]) <= 2

    # centroids are PINNED across refreshes (unchanged partitions keep
    # their bucket layout)
    assert np.array_equal(
        cents_before, np.load(cents_path)
    )

    q = np.stack([newvec, base[11]])
    got = ann_table_index_topk(idx, q, ["upd", "del"], k=3, nprobe=4)
    # the updated vector is found at its NEW position...
    assert got[got.query_id == "upd"].iloc[0]["neighbor_id"] == "d0007"
    assert got[got.query_id == "upd"].iloc[0]["score"] > 0.999
    # ... and the deleted key is gone from the index entirely
    assert "d0011" not in set(got["neighbor_id"])
    assert got.values.tolist() == _exact(table, q, ["upd", "del"], k=3).values.tolist()

    # caught up: a refresh with no table change re-derives nothing
    meta2 = refresh_table_ann_index(table, idx, n_centroids=4)
    assert meta2["refreshed_pids"] == []



def test_refresh_rederives_only_changed_partitions_ray_venue(
    emb_table, tmp_path, monkeypatch
):
    """The same refresh with every per-pid derive in the Ray Data venue."""
    force_ray_venue(monkeypatch)
    test_refresh_rederives_only_changed_partitions(emb_table, tmp_path)


def test_repartition_forces_full_rebuild(emb_table, tmp_path):
    from clickhouse_data_pipeline_ray.pipelines.apply import repartition_table

    table, _, base = emb_table
    idx = str(tmp_path / "ann")
    refresh_table_ann_index(table, idx, n_centroids=4)
    repartition_table(table, 3)
    meta = refresh_table_ann_index(table, idx, n_centroids=4)
    assert len(meta["refreshed_pids"]) == 3  # clean rebuild over new layout
    q = base[:2]
    got = ann_table_index_topk(idx, q, ["a", "b"], k=5, nprobe=4)
    assert got.values.tolist() == _exact(table, q, ["a", "b"], k=5).values.tolist()



def test_repartition_forces_full_rebuild_ray_venue(emb_table, tmp_path, monkeypatch):
    """The same rebuild with every per-pid derive in the Ray Data venue."""
    force_ray_venue(monkeypatch)
    test_repartition_forces_full_rebuild(emb_table, tmp_path)


def test_incompatible_params_force_rebuild(emb_table, tmp_path):
    table, _, _ = emb_table
    idx = str(tmp_path / "ann")
    refresh_table_ann_index(table, idx, n_centroids=4)
    meta = refresh_table_ann_index(table, idx, n_centroids=8)
    assert len(meta["refreshed_pids"]) == 6
    assert meta["n_centroids"] == 8


def test_failed_full_rebuild_leaves_old_index_searchable(emb_table, tmp_path, monkeypatch):
    """A full rebuild derives into .tmp and swaps at the END — a failure
    mid-derive must leave the previous index fully live (review finding:
    the old code wiped vectors/ first, leaving silent empty results)."""
    table, _, base = emb_table
    idx = str(tmp_path / "ann")
    refresh_table_ann_index(table, idx, n_centroids=4)
    q = base[:2]
    before = ann_table_index_topk(idx, q, ["a", "b"], k=5, nprobe=4)

    import ray.data

    def boom(*a, **k):
        raise RuntimeError("injected derive failure")

    # every partial write fails, whichever venue derives it
    monkeypatch.setattr(ray.data.Dataset, "write_parquet", boom)
    monkeypatch.setattr(pq, "write_table", boom)
    with pytest.raises(RuntimeError, match="injected"):
        # n_centroids change forces the full-rebuild path
        refresh_table_ann_index(table, idx, n_centroids=8)
    monkeypatch.undo()
    after = ann_table_index_topk(idx, q, ["a", "b"], k=5, nprobe=4)
    assert after.values.tolist() == before.values.tolist()


def test_distributed_probe_path_identical(emb_table, tmp_path):
    """Past small_bytes the probed buckets take the distributed scan — same
    results as the driver concat (review finding: the guard was missing)."""
    table, _, base = emb_table
    idx = str(tmp_path / "ann")
    refresh_table_ann_index(table, idx, n_centroids=4)
    q = base[:3]
    qids = ["a", "b", "c"]
    driver = ann_table_index_topk(idx, q, qids, k=5, nprobe=4)
    dist = ann_table_index_topk(idx, q, qids, k=5, nprobe=4, small_bytes=0)
    assert dist.values.tolist() == driver.values.tolist()
