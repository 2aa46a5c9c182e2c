"""The shared artifact refresh (state/artifacts.py) across every kind.

Regression cases for faults the per-kind copies of the protocol had:
- a full rebuild that dies in the write must leave the live index and its
  meta usable (a wiped index behind a live meta answered 0 rows);
- a pid that left the manifest (TTL month drop) must lose its partial, not
  abort the refresh with ``KeyError``;
- a refresh more than ``retention`` commits after the last one must still
  re-derive only the changed pids (planning by recorded chains needs no
  old manifest version).
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from clickhouse_data_pipeline_ray.functions.bpe import refresh_table_bpe
from clickhouse_data_pipeline_ray.functions.classifier import (
    load_table_model,
    refresh_table_classifier,
    train_nb,
)
from clickhouse_data_pipeline_ray.functions.lm import refresh_table_lm
from clickhouse_data_pipeline_ray.functions.retrieval import (
    bm25_table_index_topk,
    refresh_table_token_index,
)
from clickhouse_data_pipeline_ray.functions.similarity import refresh_table_ann_index
from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    create_table,
    mutate_table,
    replay,
    snapshot_table,
    ttl_expire,
)
from clickhouse_data_pipeline_ray.pipelines.mv import read_mv, refresh_mv, register_mv
from clickhouse_data_pipeline_ray.schemas import FACT_SNAPSHOT_SCHEMA
from clickhouse_data_pipeline_ray.sources.gen import (
    FactGenParams,
    GenParams,
    generate_fact_wal,
    generate_wal,
)
from clickhouse_data_pipeline_ray.sources.wal import segment_path
from clickhouse_data_pipeline_ray.stages.merge import read_partition_final
from clickhouse_data_pipeline_ray.state.manifest import load_manifest

from .helpers import force_ray_venue

VENUES = ["driver", "ray"]


def _venue(venue, monkeypatch):
    if venue == "ray":
        force_ray_venue(monkeypatch)


def _docs_table(tmp_path, num_partitions=8):
    wal = str(tmp_path / "wal")
    generate_wal(wal, GenParams(
        total_events=1_200, base_events=800, events_per_segment=400, seed=17,
        tok_min=4, tok_max=24, mix=(0.3, 0.55, 0.15),
    ))
    table = str(tmp_path / "t")
    create_table(table, num_partitions=num_partitions)
    replay(table, wal, ApplyConfig(), final_compact=False)
    return table


def _emb_table(tmp_path, num_partitions=8):
    wal = str(tmp_path / "wal")
    os.makedirs(wal)
    vecs = np.random.default_rng(3).normal(size=(400, 8)).astype(np.float32)
    pq.write_table(
        pa.table({
            "lsn": pa.array(range(1, 401), pa.int64()),
            "op": pa.array(["c"] * 400),
            "doc_id": pa.array([f"d{i:04d}" for i in range(400)]),
            "embedding": pa.array(vecs.tolist(), pa.list_(pa.float32())),
        }),
        segment_path(wal, 1, 400),
    )
    table = str(tmp_path / "t")
    schema = pa.schema([
        pa.field("lsn", pa.int64()),
        pa.field("doc_id", pa.string()),
        pa.field("embedding", pa.list_(pa.float32())),
    ])
    create_table(table, schema=schema, num_partitions=num_partitions)
    replay(table, wal, ApplyConfig(), final_compact=False)
    return table


def _refresh_mv(table, dest):
    name = os.path.basename(dest)
    register_mv(
        table, name, group_keys=["source"],
        sums=[{"col": "n_tok", "scale": 1, "name": "sum_n_tok"}],
        count_col="n_docs",
    )
    return refresh_mv(table, None, name)["changed_pids"]


def _n(res: dict) -> int:
    return len(res["refreshed_pids"])


# kind → refresh returning how many pids it re-derived
KINDS = {
    "tokens": lambda t, d: _n(refresh_table_token_index(t, d, num_buckets=8)),
    "ann": lambda t, d: _n(refresh_table_ann_index(t, d, n_centroids=4)),
    "classifier": lambda t, d: _n(refresh_table_classifier(t, d, dim=1 << 10)),
    "lm": lambda t, d: _n(refresh_table_lm(t, d, dim_u=1 << 8, dim_b=1 << 10)),
    "bpe": lambda t, d: _n(refresh_table_bpe(t, d, text_col="source")),
    "mv": _refresh_mv,
}


def _layout(kind, dest):
    return os.path.join(dest, {"tokens": "postings", "ann": "vectors"}.get(kind, "partials"))


def _files(root):
    """{path under root: (mtime_ns, table)} of every partial file."""
    return {
        os.path.relpath(os.path.join(d, n), root): (
            os.stat(os.path.join(d, n)).st_mtime_ns,
            pq.read_table(os.path.join(d, n)),
        )
        for d, _, names in os.walk(root)
        for n in names
        if n.endswith(".parquet")
    }


@pytest.mark.parametrize("kind", list(KINDS))
def test_refresh_past_retention_rederives_only_changed_pids(
    ray_session, tmp_path, kind
):
    table = (_emb_table if kind == "ann" else _docs_table)(tmp_path)
    dest = str(tmp_path / "inc")
    refresh = KINDS[kind]
    assert refresh(table, dest) == 8
    before = _files(_layout(kind, dest))

    man = load_manifest(table)
    keys = read_partition_final(
        table, man.partitions["7"]["files"], man.schema, man.mode,
        man.sum_cols, columns=["doc_id"],
    ).column("doc_id").to_pylist()[:10]
    assert len(keys) == 10
    for k in keys:  # 10 one-row commits on pid 7, past the retention of 8
        assert mutate_table(table, "doc_id", lo=k, hi=k, delete=True) is not None
    assert load_manifest(table).epoch - man.epoch > man.retention

    assert refresh(table, dest) == 1
    fresh = str(tmp_path / "fresh")
    if kind == "mv":  # incremental view == one built from scratch
        refresh(table, fresh)
        assert read_mv(table, "inc").equals(read_mv(table, "fresh"))
        return
    after = _files(_layout(kind, dest))
    rewritten = {
        p.split(os.sep)[0] for p in before.keys() | after.keys()
        if before.get(p, (None,))[0] != after.get(p, (None,))[0]
    }
    assert rewritten == {"pid=7"}
    if kind != "ann":  # a fresh ann build would train other centroids
        refresh(table, fresh)
        want = _files(_layout(kind, fresh))
        assert after.keys() == want.keys()
        for p, (_, t) in after.items():
            assert t.equals(want[p][1]), p


@pytest.mark.parametrize("venue", VENUES)
def test_ttl_month_drop_leaves_the_model(ray_session, tmp_path, monkeypatch, venue):
    _venue(venue, monkeypatch)
    wal = str(tmp_path / "wal")
    generate_fact_wal(wal, FactGenParams(
        total_events=2_000, events_per_segment=500, seed=91))
    table = str(tmp_path / "t")
    create_table(
        table, schema=FACT_SNAPSHOT_SCHEMA, mode="append", key_col="event_id",
        partition_spec={"kind": "time", "col": "event_ts", "granularity": "month"},
    )
    replay(table, wal, ApplyConfig(), final_compact=False)
    mdir = str(tmp_path / "clf")
    kw = dict(label_col="event_type", feature_col="doc_id", dim=1 << 10)
    refresh_table_classifier(table, mdir, **kw)
    assert os.path.isdir(os.path.join(mdir, "partials", "pid=202401"))

    assert ttl_expire(table, "event_ts", "2024-02-15T00:00:00")["partitions_dropped"] == 1
    res = refresh_table_classifier(table, mdir, **kw)
    assert res["refreshed_pids"] == ["202402"]  # the rewritten boundary month
    assert not os.path.exists(os.path.join(mdir, "partials", "pid=202401"))

    import ray.data as rd

    want = train_nb(
        rd.from_arrow(snapshot_table(table).select(["doc_id", "event_type"])),
        label_col="event_type", text_col="doc_id", dim=1 << 10,
    )
    got = load_table_model(mdir)
    assert got.classes == want.classes
    np.testing.assert_array_equal(got.doc_counts, want.doc_counts)
    np.testing.assert_array_equal(got.feature_counts, want.feature_counts)


def test_crashed_token_rebuild_keeps_index_live(ray_session, tmp_path, monkeypatch):
    table = _docs_table(tmp_path)
    idx = str(tmp_path / "idx")
    refresh_table_token_index(table, idx, num_buckets=64)
    qtoks = [int(t) for t in snapshot_table(table).column("tokens")[0].as_py()[:3]]
    before = bm25_table_index_topk(idx, qtoks, k=3)
    assert before.num_rows > 0

    import ray.data

    def boom(*a, **k):
        raise RuntimeError("injected write failure")

    # every partial write fails, whichever venue derives it
    monkeypatch.setattr(ray.data.Dataset, "write_parquet", boom)
    monkeypatch.setattr(pq, "write_table", boom)
    with pytest.raises(RuntimeError, match="injected"):
        refresh_table_token_index(table, idx, num_buckets=32)  # full rebuild
    monkeypatch.undo()

    assert refresh_table_token_index(table, idx, num_buckets=64)["refreshed_pids"] == []
    assert bm25_table_index_topk(idx, qtoks, k=3).equals(before)


def test_pre_chain_layout_rebuilds_once(ray_session, tmp_path):
    """An index whose meta records no file chains (the bucket-major layout
    with per-pid corpus stats in meta) is rebuilt once, its old files are
    gone, and the next refresh is incremental again."""
    import json

    table = _docs_table(tmp_path)
    idx = str(tmp_path / "idx")
    old_dir = os.path.join(idx, "postings", "bucket=3", "pid=1")
    os.makedirs(old_dir)
    pq.write_table(pa.table({"term": pa.array([1], pa.int64())}),
                   os.path.join(old_dir, "x.parquet"))
    with open(os.path.join(idx, "meta.json"), "w") as f:
        json.dump({"num_buckets": 8, "tokens_col": "tokens",
                   "indexed_epoch": load_manifest(table).epoch,
                   "per_pid": {"1": [1, 1]}}, f)
    assert len(refresh_table_token_index(table, idx, num_buckets=8)["refreshed_pids"]) == 8
    assert not os.path.exists(os.path.join(idx, "postings", "bucket=3"))
    assert refresh_table_token_index(table, idx, num_buckets=8)["refreshed_pids"] == []
