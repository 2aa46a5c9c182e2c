"""Delta chains spanning a schema evolution: a partition's file chain may mix
pre-evolution deltas (no ``lang``, int32 ``n_tok``) with post-evolution ones.
MERGE-on-read and compaction must unify via Arrow cast (nulls for missing
columns, int widen) — the delta-mode interaction the per-epoch snapshot
rewrite never exercised."""

import pytest

from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    apply_once,
    compact_table,
    create_table,
    snapshot_table,
)
from clickhouse_data_pipeline_ray.sources.gen import GenParams, generate_wal
from clickhouse_data_pipeline_ray.state.manifest import load_manifest

from .helpers import assert_snapshots_equal, replay_oracle

PARAMS = GenParams(
    total_events=4_000, base_events=1_000, events_per_segment=500, seed=31,
    mix=(0.3, 0.55, 0.15), tok_min=4, tok_max=32, evolve_frac=0.5,
)


@pytest.fixture(scope="module")
def wal(tmp_path_factory):
    wal_dir = str(tmp_path_factory.mktemp("wal_devo"))
    generate_wal(wal_dir, PARAMS)
    return wal_dir


def _drain(table_dir, wal, cfg):
    while apply_once(table_dir, wal, cfg) is not None:
        pass


def test_mixed_schema_delta_chain_reads_and_compacts(ray_session, wal, tmp_path):
    table_dir = str(tmp_path / "t")
    create_table(table_dir, num_partitions=4)
    cfg = ApplyConfig(max_segments=1, salt_factor=1,
                      compact_threshold=100)
    _drain(table_dir, wal, cfg)

    man = load_manifest(table_dir)
    assert "lang" in man.schema.names, "manifest schema did not evolve"
    assert max(len(p["files"]) for p in man.partitions.values()) > 1

    oracle = replay_oracle(wal)
    snap = snapshot_table(table_dir)  # merge-on-read over mixed-schema chain
    assert "lang" in snap.column_names
    assert_snapshots_equal(snap, oracle)

    compact_table(table_dir)
    assert snapshot_table(table_dir).equals(snap)


def test_evolution_mid_chain_vs_snapshot_mode(ray_session, wal, tmp_path):
    t_delta, t_snap = str(tmp_path / "d"), str(tmp_path / "s")
    for td in (t_delta, t_snap):
        create_table(td, num_partitions=4)
    _drain(t_delta, wal, ApplyConfig(max_segments=2, salt_factor=1,
                                     compact_threshold=100))
    _drain(t_snap, wal, ApplyConfig(max_segments=2, salt_factor=1,
                                    compact_threshold=1))
    assert snapshot_table(t_delta).equals(snapshot_table(t_snap))
