"""Time travel: every commit retains a versioned manifest (last K epochs) and
GC keeps any file a retained manifest references, so
``snapshot_table(table, epoch=N)`` reconstructs epoch N's exact state — the
Iceberg/Delta snapshot-isolation idea on the same atomic-swap commit."""

import pytest

from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    apply_once,
    compact_table,
    create_table,
    snapshot_table,
)
from clickhouse_data_pipeline_ray.sources.gen import GenParams, generate_wal
from clickhouse_data_pipeline_ray.state.manifest import (
    MANIFEST_RETENTION,
    load_manifest,
    retained_epochs,
)

from .helpers import assert_snapshots_equal, replay_oracle

PARAMS = GenParams(
    total_events=5_000, base_events=1_000, events_per_segment=500, seed=83,
    mix=(0.3, 0.55, 0.15), tok_min=4, tok_max=32,
)


@pytest.fixture(scope="module")
def wal(tmp_path_factory):
    wal_dir = str(tmp_path_factory.mktemp("wal_tt"))
    generate_wal(wal_dir, PARAMS)
    return wal_dir


def test_historical_epochs_replay_exactly(ray_session, wal, tmp_path):
    table_dir = str(tmp_path / "t")
    create_table(table_dir, num_partitions=4)
    cfg = ApplyConfig(max_segments=2, salt_factor=1, compact_threshold=100)
    watermarks = {}
    while (s := apply_once(table_dir, wal, cfg)) is not None:
        watermarks[s["epoch"]] = load_manifest(table_dir).watermark

    # every retained epoch reads back as EXACTLY the state at its watermark
    for ep in retained_epochs(table_dir):
        if ep not in watermarks:
            continue
        assert_snapshots_equal(
            snapshot_table(table_dir, epoch=ep),
            replay_oracle(wal, upto_lsn=watermarks[ep]),
        )

    # compaction rewrites files but retained pre-compaction epochs survive GC
    last_apply = max(watermarks)
    compact_table(table_dir)
    assert_snapshots_equal(
        snapshot_table(table_dir, epoch=last_apply),
        replay_oracle(wal, upto_lsn=watermarks[last_apply]),
    )
    assert_snapshots_equal(snapshot_table(table_dir), replay_oracle(wal))


def test_retention_bound_and_unretained_error(ray_session, wal, tmp_path):
    table_dir = str(tmp_path / "t")
    create_table(table_dir, num_partitions=2)
    cfg = ApplyConfig(max_segments=1, salt_factor=1, compact_threshold=100)
    n = 0
    while apply_once(table_dir, wal, cfg) is not None:
        n += 1
    assert n > MANIFEST_RETENTION
    eps = retained_epochs(table_dir)
    assert len(eps) == MANIFEST_RETENTION
    with pytest.raises(ValueError, match="not retained"):
        snapshot_table(table_dir, epoch=1)


def test_per_table_retention_override(ray_session, tmp_path):
    from clickhouse_data_pipeline_ray.pipelines.apply import (
        ApplyConfig,
        apply_once,
        create_table,
    )
    from clickhouse_data_pipeline_ray.sources.gen import GenParams, generate_wal
    from clickhouse_data_pipeline_ray.state.manifest import (
        load_manifest,
        retained_epochs,
    )

    wal = str(tmp_path / "wal")
    generate_wal(wal, GenParams(total_events=2_000, base_events=500,
                                events_per_segment=250, seed=7,
                                tok_min=4, tok_max=8))
    t = str(tmp_path / "t")
    create_table(t, num_partitions=2, retention=3)
    assert load_manifest(t).retention == 3
    while apply_once(t, wal, ApplyConfig(max_segments=1, salt_factor=1)):
        pass
    # 9 commits total (init + 8 epochs); only the last 3 manifests retained
    assert len(retained_epochs(t)) == 3
    assert retained_epochs(t) == [6, 7, 8]


def test_unretained_error_reports_table_retention(ray_session, wal, tmp_path):
    """The error names the table's own retention, not the default."""
    from clickhouse_data_pipeline_ray.pipelines.apply import read_snapshot
    from clickhouse_data_pipeline_ray.pipelines.lookup import lookup_keys

    t = str(tmp_path / "t")
    create_table(t, num_partitions=2, retention=2)
    cfg = ApplyConfig(max_segments=1, salt_factor=1)
    for _ in range(4):
        apply_once(t, wal, cfg)
    assert retained_epochs(t) == [3, 4]
    with pytest.raises(ValueError, match=r"retention=2\)"):
        lookup_keys(t, ["d-1"], epoch=1)
    with pytest.raises(ValueError, match=r"retention=2\)"):
        read_snapshot(t, epoch=1)
