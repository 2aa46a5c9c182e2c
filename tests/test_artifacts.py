"""Artifact registry: register once, refresh everything per epoch.

Each registered artifact (classifier / lm / tokens / ann) must refresh to
the table's current epoch through the registry exactly as a direct call
would — including changed-partition pruning on the second epoch — with
typo'd params rejected at registration time."""

import numpy as np
import pytest

from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    apply_once,
    create_table,
    snapshot_table,
)
from clickhouse_data_pipeline_ray.sources.gen import GenParams, generate_wal
from clickhouse_data_pipeline_ray.state.artifacts import (
    list_artifacts,
    refresh_artifacts,
    register_artifact,
)

from .helpers import force_ray_venue

PARAMS = GenParams(
    total_events=3_000, base_events=1_200, events_per_segment=750, seed=97,
    tok_min=4, tok_max=40, mix=(0.3, 0.55, 0.15),
)
CFG = ApplyConfig(max_segments=2, salt_factor=1, small_epoch_events=0)


def _build(wal_dir, table_dir):
    generate_wal(wal_dir, PARAMS)
    create_table(table_dir, num_partitions=6)
    assert apply_once(table_dir, wal_dir, CFG) is not None
    return table_dir, wal_dir


@pytest.fixture(scope="module")
def table(ray_session, tmp_path_factory):
    return _build(
        str(tmp_path_factory.mktemp("wal")),
        str(tmp_path_factory.mktemp("tbl") / "t"),
    )


def test_register_validates(ray_session, table, tmp_path):
    table_dir, _ = table
    with pytest.raises(ValueError, match="unknown artifact kind"):
        register_artifact(table_dir, "x", "bloom", str(tmp_path / "x"))
    with pytest.raises(ValueError, match="not accepted"):
        register_artifact(
            table_dir, "c", "classifier", str(tmp_path / "c"),
            {"dims": 64},  # typo for dim
        )


def test_refresh_all_then_incremental(ray_session, table, tmp_path):
    table_dir, wal_dir = table
    register_artifact(
        table_dir, "clf", "classifier", str(tmp_path / "clf"), {"dim": 1 << 12}
    )
    register_artifact(
        table_dir, "lm", "lm", str(tmp_path / "lm"),
        {"dim_u": 1 << 10, "dim_b": 1 << 12},
    )
    register_artifact(
        table_dir, "tok", "tokens", str(tmp_path / "tok"), {"num_buckets": 8}
    )
    assert set(list_artifacts(table_dir)) == {"clf", "lm", "tok"}

    first = refresh_artifacts(table_dir)
    assert set(first) == {"clf", "lm", "tok"}
    for name, r in first.items():
        assert len(r["refreshed_pids"]) == 6, name  # first build: every pid
        assert r["indexed_epoch"] == 1

    # caught up: every artifact no-ops
    again = refresh_artifacts(table_dir)
    assert all(r["refreshed_pids"] == [] for r in again.values())

    # new epoch: each artifact refreshes exactly the changed partitions
    assert apply_once(table_dir, wal_dir, CFG) is not None
    from clickhouse_data_pipeline_ray.pipelines.diff import changed_partitions

    changed = {
        str(c["pid"]) for c in changed_partitions(table_dir, 1, 2)
    }
    after = refresh_artifacts(table_dir)
    for name, r in after.items():
        assert set(r["refreshed_pids"]) == changed, name
        assert r["indexed_epoch"] == 2

    # the registry-refreshed classifier composes equal to a direct retrain
    import ray.data as rd

    from clickhouse_data_pipeline_ray.functions.classifier import (
        load_table_model,
        train_nb,
    )

    composed = load_table_model(str(tmp_path / "clf"))
    direct = train_nb(
        rd.from_arrow(snapshot_table(table_dir).select(["tokens", "source"])),
        label_col="source",
        text_col="tokens",
        dim=1 << 12,
    )
    np.testing.assert_array_equal(composed.feature_counts, direct.feature_counts)


def test_refresh_all_then_incremental_ray_venue(ray_session, tmp_path, monkeypatch):
    """The same refresh with every per-pid derive in the Ray Data venue."""
    force_ray_venue(monkeypatch)
    fresh = _build(str(tmp_path / "wal"), str(tmp_path / "t"))
    test_refresh_all_then_incremental(ray_session, fresh, tmp_path)
