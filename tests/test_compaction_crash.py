"""Compaction exactly-once: a crash mid-compaction must leave the committed
manifest (and therefore reads) untouched, and a re-run must converge — the
same write-once parts → manifest put protocol as apply epochs."""

import os

import pytest

from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    compact_table,
    create_table,
    replay,
    snapshot_table,
)
from clickhouse_data_pipeline_ray.sources.gen import GenParams, generate_wal
from clickhouse_data_pipeline_ray.state.manifest import load_manifest, stale_files

from .helpers import head_manifest_path

PARAMS = GenParams(
    total_events=4_000, base_events=1_000, events_per_segment=500, seed=53,
    mix=(0.3, 0.55, 0.15), tok_min=4, tok_max=32,
)


@pytest.fixture(scope="module")
def wal(tmp_path_factory):
    wal_dir = str(tmp_path_factory.mktemp("wal_cc"))
    generate_wal(wal_dir, PARAMS)
    return wal_dir


def test_crash_mid_compaction_is_invisible(ray_session, wal, tmp_path, monkeypatch):
    table_dir = str(tmp_path / "t")
    create_table(table_dir, num_partitions=4)
    replay(table_dir, wal,
           ApplyConfig(max_segments=1, salt_factor=1, compact_threshold=100),
           final_compact=False)
    before_snap = snapshot_table(table_dir)
    head = head_manifest_path(table_dir)
    before_man = open(head).read()
    before_parts = {
        os.path.join(r, f)
        for r, _d, fs in os.walk(os.path.join(table_dir, "parts"))
        for f in fs
    }

    # Crash injection: the driver dies after the workers wrote their parts
    # but before the commit — simulated by failing the first driver step.
    import clickhouse_data_pipeline_ray.pipelines.apply as apply_mod

    calls = {"n": 0}

    def failing_promote(table_dir, rel):
        calls["n"] += 1
        raise OSError("injected crash during compaction commit")

    monkeypatch.setattr(apply_mod, "promote_part", failing_promote)
    with pytest.raises(OSError, match="injected crash"):
        compact_table(table_dir)
    monkeypatch.undo()
    assert calls["n"] == 1

    # Committed state is untouched: same head manifest bytes, same reads.
    assert head_manifest_path(table_dir) == head
    assert open(head).read() == before_man
    assert snapshot_table(table_dir).equals(before_snap)
    crashed = {
        os.path.join(r, f)
        for r, _d, fs in os.walk(os.path.join(table_dir, "parts"))
        for f in fs
    } - before_parts
    assert crashed

    # Recovery: a clean re-run compacts everything and preserves state.
    stats = compact_table(table_dir)
    assert stats["partitions_compacted"] > 0
    man = load_manifest(table_dir)
    assert all(len(p["files"]) <= 1 for p in man.partitions.values())
    assert snapshot_table(table_dir).equals(before_snap)
    # leftover parts from the crashed run were GC'd at commit
    assert not [f for f in crashed if os.path.exists(f)]
    assert not stale_files(table_dir)


def test_size_tiered_auto_compaction(ray_session, wal, tmp_path):
    """Size-tiered policy: a partition compacts only when its delta bytes
    exceed ratio x base bytes; auto-compact during replay keeps chains
    bounded without changing results."""
    from clickhouse_data_pipeline_ray.pipelines.apply import compact_plan

    # build a long delta chain (no threshold compaction, no final compaction)
    a = str(tmp_path / "a")
    create_table(a, num_partitions=4)
    cfg = ApplyConfig(max_segments=1, salt_factor=1, compact_threshold=100,
                      small_epoch_events=0)
    replay(a, wal, cfg, final_compact=False)
    man = load_manifest(a)
    assert all(len(p["files"]) >= 4 for p in man.partitions.values())
    snap_before = snapshot_table(a)

    # chains are base snapshot (epoch 1) + many deltas: a huge ratio never
    # qualifies, ratio 0 selects every dirty chain
    assert compact_plan(a, size_ratio=1e9)["pids"] == []
    assert set(compact_plan(a, size_ratio=0.0)["pids"]) == {
        int(p) for p in man.partitions
    }

    # compact once (now every chain = one base snapshot), then add ONE small
    # delta epoch: tiny delta vs big base -> ratio 0.5 selects nothing,
    # ratio 0.0 selects everything dirty
    compact_table(a)
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    from clickhouse_data_pipeline_ray.sources.wal import segment_path

    man = load_manifest(a)
    next_lsn = man.watermark + 1
    seg = pa.table({
        "lsn": pa.array([next_lsn], pa.int64()),
        "op": pa.array(["u"]),
        "doc_id": pa.array([snap_before.column("doc_id")[0].as_py()]),
        "tokens": pa.array([[1, 2, 3]], pa.list_(pa.int32())),
        "n_tok": pa.array([3], pa.int64()),
        "source": pa.array(["web"]),
    })
    pq.write_table(seg, segment_path(wal + "", next_lsn, next_lsn))
    try:
        replay(a, wal, ApplyConfig(max_segments=1, salt_factor=1,
                                   compact_threshold=100),
               final_compact=False)
        plan_tight = compact_plan(a, size_ratio=0.0)
        plan_loose = compact_plan(a, size_ratio=0.5)
        assert plan_tight["pids"], "a dirty chain must qualify at ratio 0"
        assert not plan_loose["pids"], (
            "a one-row delta on a full base must NOT qualify at ratio 0.5: "
            f"{plan_loose}"
        )
        # size-tiered compact is a no-op at loose ratio, compacts at 0
        assert compact_table(a, size_ratio=0.5) is None
        stats = compact_table(a, size_ratio=0.0)
        assert stats and stats["partitions_compacted"] == len(plan_tight["pids"])
    finally:
        os.remove(segment_path(wal, next_lsn, next_lsn))

    # auto-compaction during replay: fresh table, ratio 0 -> every epoch is
    # followed by a compaction; chains stay at length 1, results identical
    b = str(tmp_path / "b")
    create_table(b, num_partitions=4)
    replay(b, wal,
           ApplyConfig(max_segments=1, salt_factor=1, compact_threshold=100,
                       auto_compact_ratio=0.0),
           final_compact=False)
    man_b = load_manifest(b)
    assert all(len(p["files"]) <= 1 for p in man_b.partitions.values())
    # identical to table a's pre-extra-segment state (same original WAL)
    assert snapshot_table(b).equals(snap_before)
