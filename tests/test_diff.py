"""CDC-out (epoch diff): the change stream between two retained epochs.

The load-bearing property is ROUND-TRIP: snapshot(A) + diff(A→B) must
reproduce snapshot(B) exactly — creates/updates upsert by key, deletes
remove the key. Plus: self-diff is empty, unchanged partitions are pruned
at the manifest (never opened), and append mode diffs are pure inserts.
"""

import pandas as pd
import pytest

from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    apply_once,
    create_table,
    replay,
    snapshot_table,
)
from clickhouse_data_pipeline_ray.pipelines.diff import table_diff
from clickhouse_data_pipeline_ray.schemas import FACT_SNAPSHOT_SCHEMA
from clickhouse_data_pipeline_ray.sources.gen import (
    FactGenParams,
    GenParams,
    generate_fact_wal,
    generate_wal,
)


def _doc_table(tmp_path, n_events=6_000, retention=20):
    wal = str(tmp_path / "wal")
    generate_wal(
        wal,
        GenParams(
            total_events=n_events, base_events=n_events // 4,
            events_per_segment=1_000, mix=(0.3, 0.55, 0.15),
            tok_min=8, tok_max=32,
        ),
    )
    table = str(tmp_path / "t")
    create_table(table, num_partitions=8, retention=retention)
    return table, wal


def _apply_roundtrip(base: pd.DataFrame, diff: pd.DataFrame, key: str) -> pd.DataFrame:
    upserts = diff[diff["op"].isin(("c", "u"))].drop(columns=["op"])
    dels = set(diff.loc[diff["op"] == "d", key])
    out = base[~base[key].isin(set(upserts[key]) | dels)]
    return (
        pd.concat([out, upserts], ignore_index=True)
        .sort_values(key)
        .reset_index(drop=True)
    )


def _canon(df: pd.DataFrame, key: str) -> pd.DataFrame:
    df = df.copy()
    df["tokens"] = df["tokens"].map(tuple)
    return df.sort_values(key).reset_index(drop=True)


def test_diff_roundtrip_reproduces_target_epoch(ray_session, tmp_path):
    table, wal = _doc_table(tmp_path)
    cfg = ApplyConfig(max_segments=2, compact_threshold=1)
    while apply_once(table, wal, cfg) is not None:
        pass
    a, b = 1, 3
    snap_a = snapshot_table(table, epoch=a).to_pandas()
    snap_b = snapshot_table(table, epoch=b).to_pandas()
    diff = table_diff(table, from_epoch=a, to_epoch=b).to_pandas()

    assert set(diff["op"]) <= {"c", "u", "d"}
    assert diff["doc_id"].is_unique  # one net change per key between epochs
    got = _canon(_apply_roundtrip(snap_a, diff, "doc_id"), "doc_id")
    want = _canon(snap_b, "doc_id")
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # updates must carry the NEW version, creates keys absent from A
    a_keys = set(snap_a["doc_id"])
    assert not set(diff.loc[diff["op"] == "c", "doc_id"]) & a_keys
    assert set(diff.loc[diff["op"] == "u", "doc_id"]) <= a_keys


def test_diff_to_current_and_self_diff_empty(ray_session, tmp_path):
    table, wal = _doc_table(tmp_path, n_events=2_000)
    replay(table, wal, ApplyConfig(compact_threshold=1), final_compact=False)
    cur = snapshot_table(table).to_pandas()
    epoch = len(cur) and __import__(
        "clickhouse_data_pipeline_ray.state.manifest", fromlist=["load_manifest"]
    ).load_manifest(table).epoch
    assert table_diff(table, from_epoch=epoch).count() == 0  # self-diff
    diff0 = table_diff(table, from_epoch=0).to_pandas()  # from empty
    assert set(diff0["op"]) == {"c"}
    assert len(diff0) == len(cur)


def test_unchanged_partitions_pruned(ray_session, tmp_path):
    """The diff plan must touch only partitions whose file chains differ: a
    one-key final epoch changes exactly one partition, so the diff between
    the last two epochs must schedule exactly one read-diff task."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from clickhouse_data_pipeline_ray.schemas import CHANGE_SCHEMA
    from clickhouse_data_pipeline_ray.sources.wal import segment_path

    table, wal = _doc_table(tmp_path, n_events=4_000)
    replay(table, wal, ApplyConfig(), final_compact=False)
    tiny = pa.table(
        {
            "lsn": pa.array([4_001], pa.int64()),
            "op": pa.array(["u"], pa.string()),
            "doc_id": pa.array(["web-00000001"], pa.string()),
            "tokens": pa.array([[1, 2, 3]], pa.list_(pa.int32())),
            "n_tok": pa.array([3], pa.int32()),
            "source": pa.array(["web"], pa.string()),
        },
        schema=CHANGE_SCHEMA,
    )
    pq.write_table(tiny, segment_path(wal, 4_001, 4_001))
    apply_once(table, wal, ApplyConfig())

    from clickhouse_data_pipeline_ray.state.manifest import load_manifest

    man = load_manifest(table)
    from clickhouse_data_pipeline_ray.pipelines.diff import changed_partitions

    plan = changed_partitions(table, from_epoch=man.epoch - 1)
    assert len(plan) == 1  # 7 of 8 partitions pruned at the manifest
    diff = table_diff(table, from_epoch=man.epoch - 1).to_pandas()
    assert diff["doc_id"].tolist() == ["web-00000001"]
    assert diff["op"].tolist() == ["u"] or diff["op"].tolist() == ["c"]


def test_append_mode_diff_is_pure_inserts(ray_session, tmp_path):
    wal = str(tmp_path / "wal")
    generate_fact_wal(wal, FactGenParams(total_events=2_000, events_per_segment=500))
    table = str(tmp_path / "t")
    create_table(
        table, schema=FACT_SNAPSHOT_SCHEMA, mode="append",
        key_col="event_id", num_partitions=4,
    )
    cfg = ApplyConfig(max_segments=1)
    while apply_once(table, wal, cfg) is not None:
        pass
    diff = table_diff(table, from_epoch=2).to_pandas()
    assert set(diff["op"]) == {"c"}
    assert sorted(diff["lsn"]) == list(range(1_001, 2_001))


def test_reverse_diff_rejected(ray_session, tmp_path):
    table, wal = _doc_table(tmp_path, n_events=2_000)
    replay(table, wal, ApplyConfig(max_segments=1), final_compact=False)
    with pytest.raises(ValueError, match="precedes"):
        table_diff(table, from_epoch=2, to_epoch=1)


def test_diff_reapplies_through_the_engine(ray_session, tmp_path):
    """The diff is a WAL the ENGINE itself can re-apply: a replica standing
    at epoch A that ingests diff(A→current) through apply_once must equal
    the current snapshot — including deletes. (Regression: deletes carried
    the old row's LSN ≤ A's watermark, so the replica's `lsn > watermark`
    ingest filter silently dropped every delete; they are now stamped with
    the to-epoch watermark.)"""
    import os
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from clickhouse_data_pipeline_ray.sources.wal import (
        list_segments,
        segment_path,
    )
    from clickhouse_data_pipeline_ray.state.manifest import load_manifest

    table, wal = _doc_table(tmp_path, n_events=4_000)
    apply_once(table, wal, ApplyConfig(max_segments=2))
    epoch_a = load_manifest(table).epoch
    wm_a = load_manifest(table).watermark
    while apply_once(table, wal, ApplyConfig()) is not None:
        pass

    dt = pa.concat_tables(
        list(
            table_diff(table, from_epoch=epoch_a).iter_batches(
                batch_format="pyarrow"
            )
        )
    )
    ops = set(dt.column("op").to_pylist())
    assert "d" in ops, "fixture must exercise deletes"
    # every diff row must clear the replica's watermark filter
    assert min(dt.column("lsn").to_pylist()) > wm_a

    # replica at epoch A: fresh table + the same first segments
    wal_a = str(tmp_path / "wal_a")
    os.makedirs(wal_a)
    for s in list_segments(wal)[:2]:
        shutil.copy(s.path, os.path.join(wal_a, s.name))
    replica = str(tmp_path / "replica")
    create_table(replica, num_partitions=8)
    replay(replica, wal_a, ApplyConfig())
    assert load_manifest(replica).watermark == wm_a

    # ship the diff as one WAL segment and ingest it
    diff_wal = str(tmp_path / "diff_wal")
    os.makedirs(diff_wal)
    lsns = dt.column("lsn").to_pylist()
    pq.write_table(dt, segment_path(diff_wal, min(lsns), max(lsns)))
    replay(replica, diff_wal, ApplyConfig())

    got = _canon(snapshot_table(replica).to_pandas(), "doc_id")
    want = _canon(snapshot_table(table).to_pandas(), "doc_id")
    pd.testing.assert_frame_equal(got, want)


def test_diff_across_repartition_rejected(ray_session, tmp_path):
    """A pid-level diff across a repartition would emit spurious equal-LSN
    c/d pairs for every moved key — rejected loudly."""
    from clickhouse_data_pipeline_ray.pipelines.apply import repartition_table
    from clickhouse_data_pipeline_ray.state.manifest import load_manifest

    table, wal = _doc_table(tmp_path, n_events=2_000)
    replay(table, wal, ApplyConfig())
    before = load_manifest(table).epoch
    repartition_table(table, 16)
    with pytest.raises(ValueError, match="repartition"):
        table_diff(table, from_epoch=before).materialize()
