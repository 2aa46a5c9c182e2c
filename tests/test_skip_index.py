"""Data-skipping indexes: minmax zones per part + pruned range scans.

The ClickHouse analog is ``INDEX idx col TYPE minmax`` on a MergeTree
(skip indexes let ``WHERE col BETWEEN ...`` skip granules whose marks can't
match). Here: ``init_table(skip_cols=[...])`` → every part write records
per-file ``[lo, hi]`` zones in the manifest → ``pipelines.scan.read_where``
prunes partitions (upsert/sum: merge-on-read → partition granularity) or
files (append: immutable rows → file granularity) with zero parquet I/O,
then exact-filters the survivors. Oracle: the unpruned snapshot filter.
"""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    apply_once,
    compact_table,
    create_table,
    replay,
    snapshot_table,
)
from clickhouse_data_pipeline_ray.pipelines.scan import read_where, scan_plan
from clickhouse_data_pipeline_ray.schemas import (
    CHANGE_SCHEMA,
    FACT_SNAPSHOT_SCHEMA,
    SNAPSHOT_SCHEMA,
)
from clickhouse_data_pipeline_ray.sources.gen import FactGenParams, generate_fact_wal
from clickhouse_data_pipeline_ray.sources.wal import segment_path
from clickhouse_data_pipeline_ray.stages.merge import column_zones
from clickhouse_data_pipeline_ray.stages.partition import key_hash
from clickhouse_data_pipeline_ray.state.fsck import fsck_table
from clickhouse_data_pipeline_ray.state.manifest import init_table, load_manifest

# ---------------------------------------------------------------- kernel


def test_column_zones_kernel():
    t = pa.table(
        {
            "i": pa.array([3, None, 7, 5], pa.int64()),
            "f": pa.array([1.5, float("nan"), -2.0, None], pa.float64()),
            "s": pa.array(["b", "a", "c", "a"], pa.string()),
            "ts": pa.array([1_000_000, 2_000_000, None, 500_000], pa.timestamp("us")),
            "allnull": pa.array([None] * 4, pa.float64()),
        }
    )
    z = column_zones(t, ["i", "f", "s", "ts", "allnull", "missing"])
    assert z["i"] == [3, 7]
    assert z["f"] == [-2.0, 1.5]  # NaN dropped, not propagated
    assert z["s"] == ["a", "c"]
    assert z["ts"] == [500_000, 2_000_000]  # normalized to int64 us
    assert z["allnull"] is None  # no information → never prunes
    assert z["missing"] is None
    json.dumps(z, allow_nan=False)  # strictly JSON-serializable


def test_column_zones_empty_table():
    t = pa.table({"i": pa.array([], pa.int64())})
    assert column_zones(t, ["i"]) == {"i": None}


# ---------------------------------------------------------------- fixtures


def _doc_segment(wal_dir, first_lsn, doc_ids, n_toks, op="c"):
    n = len(doc_ids)
    lsn = np.arange(first_lsn, first_lsn + n, dtype=np.int64)
    t = pa.table(
        {
            "lsn": pa.array(lsn),
            "op": pa.array([op] * n, pa.string()),
            "doc_id": pa.array(doc_ids, pa.string()),
            # normalize recomputes n_tok from tokens — encode it in the list
            "tokens": pa.array(
                [list(range(k)) for k in n_toks], pa.list_(pa.int32())
            ),
            "n_tok": pa.array(n_toks, pa.int32()),
            "source": pa.array(["web"] * n, pa.string()),
        },
        schema=CHANGE_SCHEMA,
    )
    os.makedirs(wal_dir, exist_ok=True)
    pq.write_table(t, segment_path(wal_dir, first_lsn, first_lsn + n - 1))
    return first_lsn + n


def _docs_by_pid(num_partitions, per_pid):
    """doc_ids grouped by the engine's own hash routing (so a test can plant
    partition-correlated values and KNOW which partition holds them)."""
    by_pid = {p: [] for p in range(num_partitions)}
    i = 0
    while any(len(v) < per_pid for v in by_pid.values()):
        d = f"doc-{i:06d}"
        p = int(key_hash(pa.array([d])) % np.uint64(num_partitions))
        if len(by_pid[p]) < per_pid:
            by_pid[p].append(d)
        i += 1
    return by_pid


# ---------------------------------------------------------------- recording


def test_zones_recorded_on_apply_and_match_files(ray_session, tmp_path):
    wal = str(tmp_path / "wal")
    by_pid = _docs_by_pid(4, 5)
    docs = [d for pid in range(4) for d in by_pid[pid]]
    # n_tok = pid * 100 + i → partition p's values live in [100p, 100p+99]
    toks = [
        100 * pid + i for pid in range(4) for i, _ in enumerate(by_pid[pid])
    ]
    _doc_segment(wal, 1, docs, toks)
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4, skip_cols=["n_tok"])
    apply_once(table, wal, ApplyConfig())
    man = load_manifest(table)
    assert man.skip_cols == ["n_tok"]
    for pid, part in man.partitions.items():
        files = part.get("files") or []
        zones = part.get("zones") or {}
        assert set(zones) == set(files), (pid, files, zones)
        lo, hi = zones[files[0]]["n_tok"]
        want = [100 * int(pid) + i for i in range(5)]
        assert lo == min(want) and hi == max(want)


def test_no_skip_cols_records_no_zones(ray_session, tmp_path):
    wal = str(tmp_path / "wal")
    _doc_segment(wal, 1, ["a", "b", "c"], [1, 2, 3])
    table = str(tmp_path / "t")
    create_table(table, num_partitions=2)
    apply_once(table, wal, ApplyConfig())
    man = load_manifest(table)
    assert all("zones" not in p for p in man.partitions.values())
    # scans still work, just unpruned
    ds, plan = read_where(table, "n_tok", lo=2)
    assert plan["pruned_by_zones"] is False
    assert ds.count() == 2


# ---------------------------------------------------------------- pruning


def test_upsert_partition_pruning_sound_and_effective(ray_session, tmp_path):
    """Partition-correlated n_tok values: a range inside one partition's band
    must prune the other 3 partitions AND return exactly the full-filter
    result (including after updates move rows within the chain)."""
    wal = str(tmp_path / "wal")
    by_pid = _docs_by_pid(4, 6)
    docs = [d for pid in range(4) for d in by_pid[pid]]
    toks = [100 * pid + i for pid in range(4) for i in range(6)]
    nxt = _doc_segment(wal, 1, docs, toks)
    # update a few docs in pid 2 (keeps values in-band, adds delta files)
    _doc_segment(wal, nxt, by_pid[2][:3], [205, 206, 207], op="u")
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4, skip_cols=["n_tok"])
    replay(table, wal, ApplyConfig(max_segments=1),
           final_compact=False)

    ds, plan = read_where(table, "n_tok", lo=200, hi=299)
    assert plan["pruned_by_zones"] is True
    assert plan["partitions_pruned"] == 3
    assert len(plan["partitions"]) == 1

    snap = snapshot_table(table)
    want = snap.filter(
        pc.and_(
            pc.greater_equal(snap.column("n_tok"), pa.scalar(200, pa.int32())),
            pc.less_equal(snap.column("n_tok"), pa.scalar(299, pa.int32())),
        )
    )
    got = ds.take_all()
    assert sorted(r["doc_id"] for r in got) == sorted(
        want.column("doc_id").to_pylist()
    )
    assert {r["n_tok"] for r in got} == set(want.column("n_tok").to_pylist())


def test_append_file_level_pruning_on_lsn(ray_session, tmp_path):
    """Append tables prune per FILE: lsn is monotone per epoch, so per-epoch
    append parts have disjoint lsn zones — a bounded lsn scan must open only
    the overlapping epoch's files and still return the exact filter result."""
    wal = str(tmp_path / "wal")
    generate_fact_wal(
        wal, FactGenParams(total_events=3_000, events_per_segment=1_000)
    )
    table = str(tmp_path / "t")
    create_table(
        table, num_partitions=4, schema=FACT_SNAPSHOT_SCHEMA, mode="append",
        key_col="event_id", skip_cols=["lsn", "value"],
    )
    replay(table, wal, ApplyConfig(max_segments=1), final_compact=False)

    ds, plan = read_where(table, "lsn", lo=1, hi=1_000)
    assert plan["pruned_by_zones"] is True
    # 3 epochs → 3 append files per partition; only epoch 1's overlap
    assert plan["files_pruned"] >= plan["files_total"] // 2
    assert ds.count() == 1_000

    # one-sided bound
    ds2, plan2 = read_where(table, "lsn", lo=2_001)
    assert ds2.count() == 1_000
    assert plan2["files_pruned"] > 0


def test_sum_mode_sum_col_predicate_never_prunes(ray_session, tmp_path):
    """Merged sums are NOT bounded by per-file partial zones — a predicate on
    a sum col must fall back to a full scan (pruning would be unsound)."""
    wal = str(tmp_path / "wal")
    generate_fact_wal(
        wal, FactGenParams(total_events=2_000, events_per_segment=500, n_docs=50)
    )
    table = str(tmp_path / "t")
    create_table(
        table, num_partitions=4, schema=FACT_SNAPSHOT_SCHEMA, mode="sum",
        key_col="doc_id", sum_cols=["value"], skip_cols=["value", "lsn"],
    )
    replay(table, wal, ApplyConfig(max_segments=1), final_compact=False)

    snap = snapshot_table(table)
    vals = snap.column("value").to_numpy()
    mid = float(np.median(vals))
    ds, plan = read_where(table, "value", lo=mid)
    assert plan["pruned_by_zones"] is False  # sum col → zones unusable
    assert plan["partitions_pruned"] == 0
    assert ds.count() == int((vals >= mid).sum())

    # non-sum cols still prune like upsert (lsn zones exist and are sound:
    # the merged lsn is max-of-partials, a physical row value)
    p = scan_plan(table, "lsn", lo=1, hi=2_000)
    assert p["pruned_by_zones"] is True


def test_compaction_and_gc_keep_zones_consistent(ray_session, tmp_path):
    wal = str(tmp_path / "wal")
    by_pid = _docs_by_pid(2, 4)
    nxt = _doc_segment(
        wal, 1, by_pid[0] + by_pid[1], [10, 11, 12, 13, 500, 501, 502, 503]
    )
    _doc_segment(wal, nxt, by_pid[0][:2], [20, 21], op="u")
    table = str(tmp_path / "t")
    create_table(table, num_partitions=2, skip_cols=["n_tok"])
    replay(table, wal, ApplyConfig(max_segments=1),
           final_compact=False)
    compact_table(table)
    man = load_manifest(table)
    for part in man.partitions.values():
        files = part.get("files") or []
        assert len(files) == 1  # compacted to one clean snapshot
        assert set(part.get("zones") or {}) == set(files)
    # pruning still effective after compaction
    _, plan = read_where(table, "n_tok", lo=400)
    assert plan["partitions_pruned"] == 1
    # fsck agrees nothing is stale
    rep = fsck_table(table)
    assert rep["ok"] and not any(
        f["check"] == "stale_zone" for f in rep["findings"]
    )


def test_scan_plan_is_metadata_only(ray_session, tmp_path, monkeypatch):
    """The plan must be computable without opening any parquet file."""
    wal = str(tmp_path / "wal")
    _doc_segment(wal, 1, ["a", "b", "c", "d"], [1, 2, 3, 4])
    table = str(tmp_path / "t")
    create_table(table, num_partitions=2, skip_cols=["n_tok"])
    apply_once(table, wal, ApplyConfig())

    real_open = pq.ParquetFile

    def boom(*a, **k):  # any parquet open during planning = fail
        raise AssertionError("scan_plan opened a parquet file")

    monkeypatch.setattr(pq, "ParquetFile", boom)
    monkeypatch.setattr(pq, "read_table", boom)
    plan = scan_plan(table, "n_tok", lo=0, hi=10)
    assert plan["files_total"] >= 1
    monkeypatch.setattr(pq, "ParquetFile", real_open)


def test_fsck_detects_and_repairs_stale_zone(ray_session, tmp_path):
    wal = str(tmp_path / "wal")
    _doc_segment(wal, 1, ["a", "b"], [1, 2])
    table = str(tmp_path / "t")
    create_table(table, num_partitions=1, skip_cols=["n_tok"])
    apply_once(table, wal, ApplyConfig())
    # inject a zone for a file that is not in the live chain
    from clickhouse_data_pipeline_ray.state.manifest import commit_manifest

    man = load_manifest(table)
    pid = next(iter(man.partitions))
    man.partitions[pid]["zones"]["parts/pid=00000/ghost.parquet"] = {
        "n_tok": [0, 1]
    }
    man.epoch += 1  # committed versions are immutable: inject as the next epoch
    man.history.append({"epoch": man.epoch})
    commit_manifest(man)
    rep = fsck_table(table)
    assert any(f["check"] == "stale_zone" for f in rep["findings"])
    rep2 = fsck_table(table, repair=True)
    assert rep2["repaired"] >= 1
    man2 = load_manifest(table)
    assert "ghost.parquet" not in str(man2.partitions[pid].get("zones"))
    assert not any(
        f["check"] == "stale_zone" for f in fsck_table(table)["findings"]
    )


def test_skip_cols_ddl_validation(tmp_path):
    with pytest.raises(ValueError, match="not in schema"):
        init_table(
            str(tmp_path / "a"), SNAPSHOT_SCHEMA, 2, skip_cols=["nope"]
        )
    with pytest.raises(ValueError, match="orderable"):
        init_table(
            str(tmp_path / "b"), SNAPSHOT_SCHEMA, 2, skip_cols=["tokens"]
        )


def test_multi_predicate_conjunction_prunes_by_all_zones(ray_session, tmp_path):
    """AND of two range conjuncts: a file must overlap EVERY bounded
    column's zone to open, and the row filter applies both predicates."""
    from clickhouse_data_pipeline_ray.pipelines.scan import read_where_multi

    wal = str(tmp_path / "wal")
    generate_fact_wal(
        wal, FactGenParams(total_events=3_000, events_per_segment=1_000)
    )
    table = str(tmp_path / "t")
    create_table(
        table, num_partitions=4, schema=FACT_SNAPSHOT_SCHEMA, mode="append",
        key_col="event_id", skip_cols=["lsn", "value"],
    )
    replay(table, wal, ApplyConfig(max_segments=1), final_compact=False)
    snap = snapshot_table(table)
    lsn = snap.column("lsn").to_numpy()
    val = snap.column("value").to_numpy()
    vmid = float(np.median(val))

    ds, plan = read_where_multi(
        table, {"lsn": (1, 1_000), "value": (vmid, None)}
    )
    assert plan["pruned_by_zones"] is True
    # the lsn conjunct alone prunes the other epochs' files
    assert plan["files_pruned"] >= plan["files_total"] // 2
    want = int(((lsn <= 1_000) & (val >= vmid)).sum())
    assert ds.count() == want

    # an impossible conjunction (disjoint lsn band) prunes EVERYTHING
    ds2, plan2 = read_where_multi(
        table, {"lsn": (10_000, None), "value": (vmid, None)}
    )
    assert len(plan2["partitions"]) == 0
    assert ds2.count() == 0


def test_ttl_pruning_uses_zones_without_footer_reads(ray_session, tmp_path, monkeypatch):
    """When the TTL column is a skip col, ttl_expire's no-expired-rows
    answer must come from manifest zones alone — zero parquet opens."""
    import datetime as dt

    from clickhouse_data_pipeline_ray.pipelines.apply import ttl_expire

    wal = str(tmp_path / "wal")
    generate_fact_wal(
        wal, FactGenParams(total_events=1_000, events_per_segment=500)
    )
    table = str(tmp_path / "t")
    create_table(
        table, num_partitions=4, schema=FACT_SNAPSHOT_SCHEMA, mode="append",
        key_col="event_id", skip_cols=["event_ts"],
    )
    replay(table, wal, ApplyConfig(max_segments=1), final_compact=False)
    snap = snapshot_table(table)
    min_us = int(pc.min(snap.column("event_ts").cast(pa.int64())).as_py())
    cutoff = dt.datetime(1970, 1, 1) + dt.timedelta(microseconds=min_us)

    calls = []
    real = pq.ParquetFile

    def spy(*a, **k):
        calls.append(a)
        return real(*a, **k)

    monkeypatch.setattr(pq, "ParquetFile", spy)
    # cutoff == table min → nothing strictly before it → no-op, zones only
    assert ttl_expire(table, "event_ts", cutoff) is None
    assert calls == []  # zone path never opened a footer


def test_scan_projection_and_timestamp_bounds(ray_session, tmp_path):
    wal = str(tmp_path / "wal")
    generate_fact_wal(
        wal, FactGenParams(total_events=1_000, events_per_segment=500)
    )
    table = str(tmp_path / "t")
    create_table(
        table, num_partitions=2, schema=FACT_SNAPSHOT_SCHEMA, mode="append",
        key_col="event_id", skip_cols=["event_ts"],
    )
    replay(table, wal, ApplyConfig(max_segments=1), final_compact=False)
    snap = snapshot_table(table)
    ts = snap.column("event_ts").cast(pa.int64()).to_numpy()
    lo_us = int(np.quantile(ts, 0.25))
    import datetime as dt

    # naive UTC datetime == exactly lo_us in the column's us domain
    lo = dt.datetime(1970, 1, 1) + dt.timedelta(microseconds=lo_us)
    ds, plan = read_where(
        table, "event_ts", lo=lo, columns=["event_id", "event_ts"]
    )
    got = ds.take_all()
    assert len(got) == int((ts >= lo_us).sum())
    assert set(got[0].keys()) == {"event_id", "event_ts"}


def test_read_where_unknown_column_raises(ray_session, tmp_path):
    from clickhouse_data_pipeline_ray.pipelines.scan import read_where_multi

    table = str(tmp_path / "t")
    init_table(table, SNAPSHOT_SCHEMA, 2)
    with pytest.raises(ValueError, match="not in table schema"):
        read_where_multi(table, {"no_such_col": (1, 2)})
