"""Delta write mode (MERGE-on-read): correctness + scale-shape invariants.

The scale path of the engine: epochs append O(changes) per-partition delta
files instead of rewriting O(table) snapshots (the write-time analog of
ReplacingMergeTree's deferred merge, /root/reference/etl/clickhouse_schema/
init.sql:14-15); readers reconstruct state per partition; compaction folds a
chain back to one clean file. All three views must agree with the dict-replay
oracle and with snapshot (MERGE-on-write) mode.
"""

import os

import pytest

from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    compact_table,
    create_table,
    read_snapshot,
    replay,
    snapshot_table,
)
from clickhouse_data_pipeline_ray.sources.gen import GenParams, generate_wal
from clickhouse_data_pipeline_ray.state.manifest import load_manifest

from .helpers import assert_snapshots_equal, replay_oracle

PARAMS = GenParams(
    total_events=6_000, base_events=1_500, events_per_segment=1_000, seed=23,
    mix=(0.3, 0.55, 0.15), tok_min=4, tok_max=32,
)


@pytest.fixture(scope="module")
def wal(tmp_path_factory):
    wal_dir = str(tmp_path_factory.mktemp("wal_delta"))
    generate_wal(wal_dir, PARAMS)
    return wal_dir


def _delta_cfg(**kw):
    base = dict(max_segments=1, salt_factor=1,
                compact_threshold=100)  # high threshold: no auto-compaction
    base.update(kw)
    return ApplyConfig(**base)


def test_pending_deltas_read_matches_oracle(ray_session, wal, tmp_path):
    """Merge-on-read over an uncompacted chain (1 epoch per segment = deep
    chain) equals the oracle, both driver-side and as a Dataset."""
    table_dir = str(tmp_path / "t")
    create_table(table_dir, num_partitions=4)
    replay(table_dir, wal, _delta_cfg(), final_compact=False)
    man = load_manifest(table_dir)
    chains = [len(p["files"]) for p in man.partitions.values()]
    assert max(chains) > 1, "expected uncompacted delta chains"
    oracle = replay_oracle(wal)
    assert_snapshots_equal(snapshot_table(table_dir), oracle)
    ds_table = (
        read_snapshot(table_dir)
        .to_arrow_refs()
    )
    import pyarrow as pa
    import ray as _ray

    got = pa.concat_tables([_ray.get(r) for r in ds_table]).sort_by(
        [("doc_id", "ascending")]
    )
    assert_snapshots_equal(got, oracle)


def test_delta_equals_snapshot_mode(ray_session, wal, tmp_path):
    t_delta, t_snap = str(tmp_path / "d"), str(tmp_path / "s")
    create_table(t_delta, num_partitions=4)
    create_table(t_snap, num_partitions=4)
    replay(t_delta, wal, _delta_cfg())
    # compact_threshold=1: every epoch rewrites its touched partitions
    replay(t_snap, wal, ApplyConfig(salt_factor=1, compact_threshold=1),
           final_compact=False)
    assert snapshot_table(t_delta).equals(snapshot_table(t_snap))


def test_compaction_is_state_preserving_and_idempotent(ray_session, wal, tmp_path):
    table_dir = str(tmp_path / "t")
    create_table(table_dir, num_partitions=4)
    replay(table_dir, wal, _delta_cfg(), final_compact=False)
    before = snapshot_table(table_dir)
    stats = compact_table(table_dir)
    assert stats["partitions_compacted"] > 0
    man = load_manifest(table_dir)
    assert all(len(p["files"]) <= 1 for p in man.partitions.values())
    assert all(p.get("exact_rows", True) for p in man.partitions.values())
    assert snapshot_table(table_dir).equals(before)
    assert compact_table(table_dir) is None  # nothing dirty → no-op


def test_auto_compaction_bounds_chain_length(ray_session, wal, tmp_path):
    table_dir = str(tmp_path / "t")
    create_table(table_dir, num_partitions=4)
    replay(table_dir, wal, _delta_cfg(compact_threshold=3), final_compact=False)
    man = load_manifest(table_dir)
    assert max(len(p["files"]) for p in man.partitions.values()) < 3
    assert_snapshots_equal(snapshot_table(table_dir), replay_oracle(wal))


def test_compaction_thresholds_are_jittered_but_bounded():
    """Per-partition threshold jitter desynchronizes compaction waves.

    Uniformly-hashed partitions fill at the same rate, so a fixed threshold
    would compact EVERY partition in the same epoch — a synchronized ~T×
    latency spike every T epochs on the micro-batch path. The effective
    threshold must be (a) deterministic per pid (exactly-once: a crashed
    epoch's re-run takes the same branch), (b) bounded to (T/2, T] so the
    configured value stays a hard chain-length bound, and (c) actually
    spread across pids."""
    from clickhouse_data_pipeline_ray.stages.merge import MergeApply

    def mk(threshold):
        m = MergeApply.__new__(MergeApply)
        m.compact_threshold = threshold
        return m

    for t in (2, 3, 4, 8, 16, 100):
        m, m2 = mk(t), mk(t)
        vals = [m._threshold(pid) for pid in range(256)]
        assert all(v == m2._threshold(pid) for pid, v in enumerate(vals))
        assert all(t // 2 < v <= t for v in vals), (t, min(vals), max(vals))
        if t >= 4:  # span >= 2: jitter must actually spread
            assert len(set(vals)) >= 2, (t, set(vals))
    # span <= 0 degenerates to the fixed threshold (never 0 or negative).
    assert mk(1)._threshold(7) == 1


def test_jittered_compaction_desynchronizes_epochs(ray_session, wal, tmp_path):
    """End-to-end: with many epochs and a small threshold, partitions do NOT
    all carry the same chain length at the end (they compacted in different
    epochs), yet the merged state still matches the oracle."""
    table_dir = str(tmp_path / "t")
    create_table(table_dir, num_partitions=8)
    replay(table_dir, wal, _delta_cfg(compact_threshold=8), final_compact=False)
    man = load_manifest(table_dir)
    chains = sorted(len(p["files"]) for p in man.partitions.values())
    assert max(chains) <= 8
    # 6 epochs / threshold 8: every partition appended every epoch, so equal
    # thresholds would mean equal chain lengths everywhere. Jitter (effective
    # thresholds in (4, 8]) makes some partitions compact earlier.
    assert len(set(chains)) >= 2, chains
    assert_snapshots_equal(snapshot_table(table_dir), replay_oracle(wal))


def test_delta_writes_are_o_changes_not_o_table(ray_session, wal, tmp_path):
    """Shape invariant for the 10^10 design point: a delta epoch's bytes on
    disk scale with the epoch's changes, not the accumulated table."""
    table_dir = str(tmp_path / "t")
    create_table(table_dir, num_partitions=4)
    replay(table_dir, wal, _delta_cfg(), final_compact=False)
    man = load_manifest(table_dir)
    sizes = []
    for p in man.partitions.values():
        for f in p["files"]:
            sizes.append((f, os.path.getsize(os.path.join(table_dir, f))))
    deltas = [s for f, s in sizes if "delta-" in os.path.basename(f)]
    bases = [s for f, s in sizes if "delta-" not in os.path.basename(f)]
    assert deltas, "no delta files written"
    # 6 epochs of ~1k events over a ~2k-row table: mean delta must be well
    # under the mean base/compacted size it would have been rewritten as.
    assert sum(deltas) / len(deltas) < sum(s for _, s in sizes) / len(sizes) * 2
