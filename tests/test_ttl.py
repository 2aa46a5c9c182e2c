"""TTL retention expiration (the ClickHouse ``TTL <col>`` clause analog).

Contract: rows with ttl_col < cutoff disappear from the committed state in
ONE exactly-once maintenance epoch; months wholly past the cutoff on
time-partitioned tables are dropped from the manifest WITHOUT reading data;
untouched partitions keep their exact file chains (footer min-stat pruning);
null TTL values never expire; prior epochs stay time-travel readable.
"""

import datetime as dt
import os

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    create_table,
    replay,
    snapshot_table,
    ttl_expire,
)
from clickhouse_data_pipeline_ray.schemas import FACT_SNAPSHOT_SCHEMA
from clickhouse_data_pipeline_ray.sources.gen import FactGenParams, generate_fact_wal
from clickhouse_data_pipeline_ray.sources.wal import segment_path
from clickhouse_data_pipeline_ray.state.manifest import load_manifest

from .helpers import head_manifest_path

TIME_SPEC = {"kind": "time", "col": "event_ts", "granularity": "month"}
PARAMS = FactGenParams(total_events=4_000, events_per_segment=1_000, seed=91)


@pytest.fixture(scope="module")
def fact_wal(tmp_path_factory):
    wal = str(tmp_path_factory.mktemp("wal_ttl"))
    generate_fact_wal(wal, PARAMS)
    return wal


def _oracle_remaining(wal: str, cutoff: str) -> int:
    return duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{wal}/seg-*.parquet') "
        f"WHERE event_ts >= TIMESTAMP '{cutoff}'"
    ).fetchone()[0]


def _time_table(tmp_path, wal):
    table = str(tmp_path / "t")
    create_table(
        table, schema=FACT_SNAPSHOT_SCHEMA, mode="append",
        key_col="event_id", partition_spec=TIME_SPEC,
    )
    replay(table, wal, ApplyConfig(), final_compact=False)
    return table


def test_ttl_time_table_drops_whole_months(ray_session, fact_wal, tmp_path):
    table = _time_table(tmp_path, fact_wal)
    man0 = load_manifest(table)
    pre_files = {pid: list(p["files"]) for pid, p in man0.partitions.items()}
    pre_epoch = man0.epoch
    cutoff = "2024-02-15T00:00:00"

    stats = ttl_expire(table, "event_ts", cutoff)
    assert stats is not None
    # January is wholly before the cutoff -> dropped without a read;
    # February is the boundary month -> rewritten; later months untouched.
    assert stats["partitions_dropped"] == 1
    assert stats["partitions_rewritten"] == 1

    man = load_manifest(table)
    assert "202401" not in man.partitions
    for pid, files in pre_files.items():
        if int(pid) >= 202403:
            assert man.partitions[pid]["files"] == files  # never rewritten

    snap = snapshot_table(table)
    want = _oracle_remaining(fact_wal, cutoff)
    assert snap.num_rows == want == man.total_rows()
    assert stats["rows_expired"] == 4_000 - want
    import pyarrow.compute as pc
    assert pc.min(snap.column("event_ts")).as_py() >= dt.datetime(2024, 2, 15)

    # prior epoch still time-travel readable with the expired rows present
    assert snapshot_table(table, epoch=pre_epoch).num_rows == 4_000


def test_ttl_exact_month_start_never_rewrites(ray_session, fact_wal, tmp_path):
    table = _time_table(tmp_path, fact_wal)
    stats = ttl_expire(table, "event_ts", "2024-03-01T00:00:00")
    # 202401+202402 dropped whole; 202403's footer min >= cutoff, so the
    # boundary month is pruned by metadata alone — zero data read or written
    assert stats["partitions_dropped"] == 2
    assert stats["partitions_rewritten"] == 0
    assert snapshot_table(table).num_rows == _oracle_remaining(
        fact_wal, "2024-03-01T00:00:00"
    )


def test_ttl_idempotent_and_noop(ray_session, fact_wal, tmp_path):
    table = _time_table(tmp_path, fact_wal)
    # cutoff before all data: nothing expires, manifest untouched
    head = head_manifest_path(table)
    man_before = open(head).read()
    assert ttl_expire(table, "event_ts", "2023-01-01T00:00:00") is None
    assert head_manifest_path(table) == head
    assert open(head).read() == man_before

    assert ttl_expire(table, "event_ts", "2024-02-15T00:00:00") is not None
    # second run at the same cutoff: boundary month's rewritten file now has
    # footer min >= cutoff -> pure-metadata no-op
    assert ttl_expire(table, "event_ts", "2024-02-15T00:00:00") is None


def test_ttl_hash_table_footer_pruned(ray_session, fact_wal, tmp_path):
    # hash-partitioned table keyed by event_id: the partition column is NOT
    # the ttl column, so expiration relies on the footer-stat path
    table = str(tmp_path / "h")
    create_table(
        table, schema=FACT_SNAPSHOT_SCHEMA, mode="append",
        key_col="event_id", num_partitions=4,
    )
    replay(table, fact_wal, ApplyConfig(salt_factor=1), final_compact=True)
    cutoff = "2024-02-01T00:00:00"
    stats = ttl_expire(table, "event_ts", cutoff)
    assert stats is not None and stats["partitions_dropped"] == 0
    assert snapshot_table(table).num_rows == _oracle_remaining(fact_wal, cutoff)
    # after the rewrite every partition's min crosses the cutoff -> no-op
    assert ttl_expire(table, "event_ts", cutoff) is None


def test_ttl_null_values_never_expire(ray_session, tmp_path):
    # hand-built WAL with one null event_ts row (hash table; nulls are legal
    # when event_ts is not the partition column)
    wal = str(tmp_path / "wal")
    os.makedirs(wal)
    n = 8
    ts = [dt.datetime(2024, 1, 1) + dt.timedelta(days=i) for i in range(n)]
    ts[3] = None
    seg = pa.table({
        "lsn": pa.array(range(1, n + 1), pa.int64()),
        "op": pa.array(["c"] * n),
        "event_id": pa.array([f"e{i}" for i in range(n)]),
        "doc_id": pa.array([f"d{i}" for i in range(n)]),
        "event_ts": pa.array(ts, pa.timestamp("us")),
        "event_type": pa.array(["click"] * n),
        "value": pa.array([float(i) for i in range(n)]),
    })
    pq.write_table(seg, segment_path(wal, 1, n))
    table = str(tmp_path / "t")
    create_table(table, schema=FACT_SNAPSHOT_SCHEMA, mode="append",
                 key_col="event_id", num_partitions=2)
    replay(table, wal, ApplyConfig(salt_factor=1), final_compact=False)

    stats = ttl_expire(table, "event_ts", "2024-01-05T00:00:00")
    assert stats is not None and stats["rows_expired"] == 3  # Jan 1-3; null kept
    snap = snapshot_table(table)
    assert snap.num_rows == 5
    assert "e3" in snap.column("event_id").to_pylist()  # the null-ts row survives


def test_ttl_rejects_bad_column(ray_session, fact_wal, tmp_path):
    table = _time_table(tmp_path, fact_wal)
    with pytest.raises(ValueError, match="not in table schema"):
        ttl_expire(table, "no_such_col", "2024-02-01T00:00:00")
    with pytest.raises(ValueError, match="timestamp column"):
        ttl_expire(table, "event_type", "2024-02-01T00:00:00")


def test_ttl_collapse_drops_whole_key(ray_session, tmp_path):
    """TTL × collapse interaction: an expiring winner row must take its
    key's adjustment rows with it. Adjustment rows carry null payloads
    (null TTL never expires), so leaving them would turn a revivable
    cancelled key (net 0: winner sign=1 + adjustment sign=-1) into an
    unrevivable one (net -1 after the winner alone expires)."""
    import numpy as np

    from clickhouse_data_pipeline_ray.pipelines.apply import apply_once

    US = 1_000_000
    schema = FACT_SNAPSHOT_SCHEMA.append(pa.field("sign", pa.int32()))

    def seg(wal, first_lsn, rows):
        n = len(rows)
        lsn = np.arange(first_lsn, first_lsn + n, dtype=np.int64)
        t = pa.table({
            "lsn": pa.array(lsn),
            "op": pa.array(["c"] * n),
            "event_id": pa.array([f"ev-{x:08d}" for x in lsn]),
            "doc_id": pa.array([r[0] for r in rows]),
            "event_ts": pa.array([int(x) * US for x in lsn], pa.timestamp("us")),
            "event_type": pa.array(["state"] * n),
            "value": pa.array([r[2] for r in rows], pa.float64()),
            "sign": pa.array([r[1] for r in rows], pa.int32()),
        })
        os.makedirs(wal, exist_ok=True)
        pq.write_table(t, segment_path(wal, first_lsn, first_lsn + n - 1))
        return first_lsn + n

    wal = str(tmp_path / "wal")
    table = str(tmp_path / "t")
    # lsn1: a state, lsn2: a cancel (a now net-0 cancelled: winner ts=1s +
    # null-ts adjustment), lsn3: b state (ts=3s, stays past the cutoff)
    nxt = seg(wal, 1, [("a", 1, 10.0), ("a", -1, 10.0), ("b", 1, 20.0)])
    create_table(table, num_partitions=2, schema=schema, mode="collapse")
    cfg = ApplyConfig(write_mode="delta", max_segments=1)
    apply_once(table, wal, cfg)
    snap = snapshot_table(table)
    assert snap.column("doc_id").to_pylist() == ["b"]

    # expire everything before 2.5s: a's winner row (ts=1s) expires; the
    # fix drops a's adjustment row with it instead of stranding sign=-1
    stats = ttl_expire(table, "event_ts", dt.datetime(1970, 1, 1, 0, 0, 2, 500000))
    assert stats is not None
    raw_rows = pa.concat_tables(
        [pq.read_table(os.path.join(table, f))
         for f in load_manifest(table).snapshot_files()]
    )
    assert "a" not in raw_rows.column("doc_id").to_pylist()

    # revive a: one +1 state must bring it back (net 1, not net 0)
    seg(wal, nxt, [("a", 1, 30.0)])
    apply_once(table, wal, cfg)
    snap = snapshot_table(table)
    got = dict(zip(snap.column("doc_id").to_pylist(),
                   snap.column("value").to_pylist()))
    assert got == {"a": 30.0, "b": 20.0}
