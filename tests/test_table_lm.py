"""Incremental n-gram LM over a committed table: the shared per-partition
partial engine applied to LM counts. Pins compose == full retrain at the
same epoch (exact int counts), changed-partition-only refresh, and snapshot
scoring parity with the streaming scorer."""

import numpy as np
import pyarrow as pa
import pytest

from clickhouse_data_pipeline_ray.functions.lm import (
    load_table_lm,
    refresh_table_lm,
    score_lm_table,
    train_lm,
)
from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    apply_once,
    create_table,
    snapshot_table,
)
from clickhouse_data_pipeline_ray.sources.gen import GenParams, generate_wal

from .helpers import force_ray_venue

PARAMS = GenParams(
    total_events=3_000, base_events=1_200, events_per_segment=750, seed=59,
    tok_min=4, tok_max=40, mix=(0.3, 0.55, 0.15),
)
CFG = ApplyConfig(max_segments=2, salt_factor=1, small_epoch_events=0)
DIM_U, DIM_B = 1 << 10, 1 << 12


def _build(wal_dir, table_dir):
    generate_wal(wal_dir, PARAMS)
    create_table(table_dir, num_partitions=8)
    assert apply_once(table_dir, wal_dir, CFG) is not None
    return table_dir, wal_dir


@pytest.fixture(scope="module")
def table(ray_session, tmp_path_factory):
    return _build(
        str(tmp_path_factory.mktemp("wal")),
        str(tmp_path_factory.mktemp("tbl") / "t"),
    )


def _retrain(ray, table_dir):
    import ray.data as rd

    snap = snapshot_table(table_dir).select(["tokens"])
    return train_lm(
        rd.from_arrow(snap).repartition(4),
        text_col="tokens",
        dim_u=DIM_U,
        dim_b=DIM_B,
    )


def _assert_lm_equal(a, b):
    assert a.n_tokens == b.n_tokens
    np.testing.assert_array_equal(a.uni, b.uni)
    np.testing.assert_array_equal(a.bi, b.bi)
    assert a.feature_kind == b.feature_kind == "tokens"


def test_build_then_incremental_refresh_exact(ray_session, table, tmp_path):
    table_dir, wal_dir = table
    mdir = str(tmp_path / "lm")
    meta = refresh_table_lm(table_dir, mdir, dim_u=DIM_U, dim_b=DIM_B)
    assert len(meta["refreshed_pids"]) == 8
    _assert_lm_equal(load_table_lm(mdir), _retrain(ray_session, table_dir))
    _assert_lm_equal(load_table_lm(mdir), load_table_lm(mdir, driver_limit=0))

    # advance the table; refresh must touch only changed partitions and
    # still compose equal to a full retrain (updates + deletes included)
    assert apply_once(table_dir, wal_dir, CFG) is not None
    from clickhouse_data_pipeline_ray.pipelines.diff import changed_partitions
    from clickhouse_data_pipeline_ray.state.manifest import load_manifest

    man = load_manifest(table_dir)
    changed = {
        str(c["pid"])
        for c in changed_partitions(table_dir, man.epoch - 1, man.epoch)
    }
    meta = refresh_table_lm(table_dir, mdir, dim_u=DIM_U, dim_b=DIM_B)
    assert set(meta["refreshed_pids"]) == changed and changed
    _assert_lm_equal(load_table_lm(mdir), _retrain(ray_session, table_dir))
    assert refresh_table_lm(table_dir, mdir, dim_u=DIM_U, dim_b=DIM_B)[
        "refreshed_pids"
    ] == []


def test_build_then_incremental_refresh_exact_ray_venue(ray_session, tmp_path, monkeypatch):
    """The same refresh with every per-pid derive in the Ray Data venue."""
    force_ray_venue(monkeypatch)
    fresh = _build(str(tmp_path / "wal"), str(tmp_path / "t"))
    test_build_then_incremental_refresh_exact(ray_session, fresh, tmp_path)


def test_dim_change_forces_rebuild(ray_session, table, tmp_path):
    table_dir, _ = table
    mdir = str(tmp_path / "lm")
    refresh_table_lm(table_dir, mdir, dim_u=DIM_U, dim_b=DIM_B)
    meta = refresh_table_lm(table_dir, mdir, dim_u=DIM_U // 2, dim_b=DIM_B)
    assert len(meta["refreshed_pids"]) == 8
    assert load_table_lm(mdir).dim_u == DIM_U // 2


def test_score_table_matches_streaming_scorer(ray_session, table, tmp_path):
    import ray.data as rd

    table_dir, _ = table
    mdir = str(tmp_path / "lm")
    refresh_table_lm(table_dir, mdir, dim_u=DIM_U, dim_b=DIM_B)
    model = load_table_lm(mdir)
    via_table = pa.concat_tables(
        ray_session.get(r)
        for r in score_lm_table(table_dir, model).materialize().to_arrow_refs()
        if ray_session.get(r).num_rows
    )
    snap = snapshot_table(table_dir)
    from clickhouse_data_pipeline_ray.functions.lm import score_lm

    via_stream = pa.concat_tables(
        t
        for t in (
            ray_session.get(r)
            for r in score_lm(rd.from_arrow(snap), model, text_col="tokens")
            .materialize()
            .to_arrow_refs()
        )
        if t.num_rows
    )
    a = {
        d: (lp, n)
        for d, lp, n in zip(
            via_table.column("doc_id").to_pylist(),
            via_table.column("lm_logprob").to_pylist(),
            via_table.column("n_lm_tokens").to_pylist(),
        )
    }
    b = {
        d: (lp, n)
        for d, lp, n in zip(
            via_stream.column("doc_id").to_pylist(),
            via_stream.column("lm_logprob").to_pylist(),
            via_stream.column("n_lm_tokens").to_pylist(),
        )
    }
    assert a == b and len(a) == snap.num_rows
