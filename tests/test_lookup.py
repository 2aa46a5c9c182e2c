"""Point lookups: correctness vs the full snapshot, partition-level and
granule pruning, tombstone/delta-chain handling, and time travel."""

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    create_table,
    replay,
    snapshot_table,
)
from clickhouse_data_pipeline_ray.pipelines import lookup as L
from clickhouse_data_pipeline_ray.sources.gen import GenParams, generate_wal


def _table(tmp_path, compact_threshold=8, final_compact=False):
    wal = str(tmp_path / "wal")
    generate_wal(
        wal,
        GenParams(
            total_events=4_000, base_events=1_000, events_per_segment=1_000,
            mix=(0.3, 0.55, 0.15), tok_min=8, tok_max=32,
        ),
    )
    table = str(tmp_path / "t")
    create_table(table, num_partitions=8)
    replay(
        table, wal,
        ApplyConfig(max_segments=1, compact_threshold=compact_threshold),
        final_compact=final_compact,
    )
    return table


@pytest.mark.parametrize(
    "compact_threshold,compact", [(8, False), (1, True)],
    ids=["delta-False", "snapshot-True"],
)
def test_lookup_matches_snapshot(ray_session, tmp_path, compact_threshold, compact):
    """Mid-delta-chain AND compacted layouts must serve identical lookups
    (compact_threshold=1 rewrites every touched partition each epoch)."""
    table = _table(tmp_path, compact_threshold, compact)
    snap = snapshot_table(table).to_pandas().set_index("doc_id")
    live = list(snap.index[:5]) + list(snap.index[-5:])
    got = L.lookup_keys(table, live + ["nope-123"]).to_pandas()
    assert sorted(got["doc_id"]) == sorted(live)  # absent key ⇒ absent row
    for _, row in got.iterrows():
        want = snap.loc[row["doc_id"]]
        assert row["lsn"] == want["lsn"] and row["n_tok"] == want["n_tok"]


def test_deleted_key_not_served(ray_session, tmp_path):
    import duckdb

    table = _table(tmp_path)
    wal = str(tmp_path / "wal")
    deleted = duckdb.sql(
        f"""SELECT doc_id FROM read_parquet('{wal}/seg-*.parquet')
            GROUP BY doc_id HAVING arg_max(op, lsn) = 'd' LIMIT 3"""
    ).df()["doc_id"].tolist()
    assert deleted
    assert L.lookup_keys(table, deleted).num_rows == 0


def test_only_routed_partitions_opened(ray_session, tmp_path, monkeypatch):
    table = _table(tmp_path)
    snap = snapshot_table(table).to_pandas()
    key = snap["doc_id"].iloc[0]
    opened = []
    real = L.pq.ParquetFile

    def spy(path, **kw):
        opened.append(path)
        return real(path, **kw)

    monkeypatch.setattr(L.pq, "ParquetFile", spy)
    L.lookup_keys(table, [key])
    from clickhouse_data_pipeline_ray.stages.partition import partition_of

    pid = partition_of(key, 8)
    assert opened and all(f"pid={pid:05d}" in p for p in opened)


def test_lookup_time_travel(ray_session, tmp_path):
    table = _table(tmp_path)
    from clickhouse_data_pipeline_ray.state.manifest import load_manifest

    man = load_manifest(table)
    old = snapshot_table(table, epoch=1).to_pandas()
    cur = snapshot_table(table).to_pandas()
    changed = sorted(
        set(old["doc_id"]) & set(cur["doc_id"])
    )
    # pick a key whose version changed between epoch 1 and now
    om = old.set_index("doc_id")["lsn"]
    cm = cur.set_index("doc_id")["lsn"]
    moved = [k for k in changed if om[k] != cm[k]]
    assert moved and man.epoch > 1
    k = moved[0]
    assert L.lookup_keys(table, [k], epoch=1)["lsn"][0].as_py() == om[k]
    assert L.lookup_keys(table, [k])["lsn"][0].as_py() == cm[k]


def test_wrong_table_kinds_rejected(ray_session, tmp_path):
    from clickhouse_data_pipeline_ray.schemas import FACT_SNAPSHOT_SCHEMA

    t1 = str(tmp_path / "facts")
    create_table(
        t1, schema=FACT_SNAPSHOT_SCHEMA, mode="append",
        key_col="event_id", num_partitions=4,
    )
    with pytest.raises(ValueError, match="append"):
        L.lookup_keys(t1, ["ev-1"])
    t2 = str(tmp_path / "time")
    create_table(
        t2, schema=FACT_SNAPSHOT_SCHEMA, mode="upsert",
        partition_spec={"kind": "time", "col": "event_ts", "granularity": "month"},
    )
    with pytest.raises(ValueError, match="time-partitioned"):
        L.lookup_keys(t2, ["d-1"])


def test_lookup_many_keys_equals_snapshot(ray_session, tmp_path):
    """A lookup of ≥1,000 keys — live, deleted and absent, with duplicates,
    routed in one hash call — equals the snapshot filtered to them, in key
    order."""
    import duckdb

    table = _table(tmp_path)
    wal = str(tmp_path / "wal")
    snap = snapshot_table(table)
    live = snap.column("doc_id").to_pylist()
    deleted = duckdb.sql(
        f"""SELECT doc_id FROM read_parquet('{wal}/seg-*.parquet')
            GROUP BY doc_id HAVING arg_max(op, lsn) = 'd'"""
    ).df()["doc_id"].tolist()
    absent = [f"nope-{i}" for i in range(50)]
    keys = live[::-1] + deleted + absent + live[:200] + deleted[:20]
    assert len(set(keys)) >= 1_000 and deleted
    got = L.lookup_keys(table, keys)
    want = snap.filter(pc.is_in(snap.column("doc_id"), pa.array(keys)))
    want = want.sort_by([("doc_id", "ascending")])
    assert got.column("doc_id").to_pylist() == want.column("doc_id").to_pylist()
    assert got.select(want.column_names).to_pylist() == want.to_pylist()


def test_lookup_reads_one_granule(ray_session, tmp_path, monkeypatch):
    """A compacted partition written in ≥4 granules serves a single-key
    lookup by decoding exactly the one row group that holds the key."""
    from clickhouse_data_pipeline_ray.state.manifest import load_manifest

    wal = str(tmp_path / "wal")
    generate_wal(
        wal,
        GenParams(
            total_events=2_000, base_events=1_500, events_per_segment=1_000,
            tok_min=256, tok_max=512,
        ),
    )
    table = str(tmp_path / "t")
    create_table(table, num_partitions=1)
    replay(table, wal, ApplyConfig(max_segments=1), final_compact=True)
    (rel,) = load_manifest(table).partitions["0"]["files"]
    path = f"{table}/{rel}"
    md = pq.ParquetFile(path).metadata
    assert md.num_row_groups >= 4
    g = md.num_row_groups // 2
    key = pq.ParquetFile(path).read_row_group(g).column("doc_id")[1].as_py()

    decoded = []
    real = L.pq.ParquetFile

    class Spy(real):
        def read_row_groups(self, row_groups, **kw):
            decoded.extend(row_groups)
            return super().read_row_groups(row_groups, **kw)

    monkeypatch.setattr(L.pq, "ParquetFile", Spy)
    got = L.lookup_keys(table, [key])
    assert decoded == [g]
    want = snapshot_table(table).to_pandas().set_index("doc_id").loc[key]
    assert got["lsn"][0].as_py() == want["lsn"]
    assert got["tokens"][0].as_py() == list(want["tokens"])
