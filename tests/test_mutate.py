"""Predicate mutations: ALTER TABLE ... DELETE/UPDATE WHERE analog.

ClickHouse mutations rewrite only the parts a predicate touches; here the
driver prunes partitions by skip-index zones first (manifest-only), workers
leave no-match partitions untouched, and the rewrite commits through the
same exactly-once epoch protocol. Oracle: DuckDB DELETE/UPDATE over the LWW
replay of the same WAL.
"""

import os

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    apply_once,
    create_table,
    mutate_table,
    replay,
    snapshot_table,
)
from clickhouse_data_pipeline_ray.schemas import FACT_SNAPSHOT_SCHEMA
from clickhouse_data_pipeline_ray.sources.gen import (
    FactGenParams,
    GenParams,
    generate_fact_wal,
    generate_wal,
)
from clickhouse_data_pipeline_ray.state.manifest import load_manifest


def _make_doc_table(tmp_path, skip_cols=("n_tok",), n_events=5_000):
    wal = str(tmp_path / "wal")
    generate_wal(wal, GenParams(total_events=n_events, events_per_segment=1_000))
    table = str(tmp_path / "t")
    create_table(table, num_partitions=8, skip_cols=list(skip_cols))
    replay(table, wal, ApplyConfig(max_segments=2), final_compact=False)
    return table, wal


def _duck_lww(wal: str):
    return duckdb.sql(
        f"""
        SELECT doc_id, arg_max(n_tok, lsn) AS n_tok,
               arg_max(source, lsn) AS source, arg_max(op, lsn) AS op
        FROM read_parquet('{wal}/seg-*.parquet')
        GROUP BY doc_id HAVING arg_max(op, lsn) != 'd'
        """
    )


def test_delete_where_matches_duckdb(ray_session, tmp_path):
    table, wal = _make_doc_table(tmp_path)
    out = mutate_table(table, "n_tok", lo=100, hi=300, delete=True)
    lww = _duck_lww(wal).df()
    survivors = lww[~lww["n_tok"].between(100, 300)]
    snap = snapshot_table(table)
    assert out is not None and out["mutation"] is True
    assert out["rows_deleted"] == int(lww["n_tok"].between(100, 300).sum())
    assert snap.num_rows == len(survivors)
    assert sorted(snap.column("doc_id").to_pylist()) == sorted(
        survivors["doc_id"]
    )
    # history records the epoch; watermark unchanged
    man = load_manifest(table)
    assert man.history[-1]["mutation"] is True
    assert int(man.watermark) > 0


def test_update_where_sets_constants(ray_session, tmp_path):
    table, wal = _make_doc_table(tmp_path)
    out = mutate_table(
        table, "n_tok", lo=0, hi=64, set_cols={"source": "short"}
    )
    lww = _duck_lww(wal).df()
    n_short = int(lww["n_tok"].between(0, 64).sum())
    assert out["rows_updated"] == n_short
    snap = snapshot_table(table).to_pandas()
    assert (snap["source"] == "short").sum() == n_short
    assert ((snap["n_tok"] <= 64) == (snap["source"] == "short")).all()
    # untouched rows keep their original payloads
    keep = lww[lww["n_tok"] > 64].set_index("doc_id")["source"]
    got = snap[snap["n_tok"] > 64].set_index("doc_id")["source"]
    assert got.sort_index().equals(keep.sort_index())


def test_mutation_prunes_by_zones_and_skips_unmatched(ray_session, tmp_path):
    """Zone-pruned partitions are never handed to workers; candidate
    partitions with no matching merged row are read but not rewritten."""
    table, wal = _make_doc_table(tmp_path)
    man0 = load_manifest(table)
    files0 = {
        pid: list(p["files"]) for pid, p in man0.partitions.items()
    }
    # a range ABOVE every n_tok zone: no partition may be rewritten
    out = mutate_table(table, "n_tok", lo=10_000_000, delete=True)
    assert out is None
    man1 = load_manifest(table)
    assert man1.epoch == man0.epoch  # no-op commits no epoch
    assert {
        pid: list(p["files"]) for pid, p in man1.partitions.items()
    } == files0


def test_mutation_epoch_is_time_travel_visible(ray_session, tmp_path):
    table, wal = _make_doc_table(tmp_path)
    man0 = load_manifest(table)
    before = snapshot_table(table)
    out = mutate_table(table, "n_tok", lo=0, hi=128, delete=True)
    assert out["rows_deleted"] > 0
    # pre-mutation epoch still reconstructable (retention window)
    old = snapshot_table(table, epoch=man0.epoch)
    assert old.num_rows == before.num_rows
    new = snapshot_table(table)
    assert new.num_rows == before.num_rows - out["rows_deleted"]


def test_mutation_then_wal_reinserts_deleted_key(ray_session, tmp_path):
    """The ClickHouse contract: a mutation delete is state surgery, not a
    log event — a later WAL update on the key re-inserts it."""
    table, wal = _make_doc_table(tmp_path)
    snap = snapshot_table(table)
    victim = snap.column("doc_id")[0].as_py()
    vtok = snap.column("n_tok")[0].as_py()
    mutate_table(table, "n_tok", lo=vtok, hi=vtok, delete=True)
    assert victim not in snapshot_table(table).column("doc_id").to_pylist()
    # append one WAL segment updating the victim
    from clickhouse_data_pipeline_ray.sources.wal import segment_path
    from clickhouse_data_pipeline_ray.schemas import CHANGE_SCHEMA

    man = load_manifest(table)
    lsn = man.watermark + 1
    t = pa.table(
        {
            "lsn": pa.array([lsn], pa.int64()),
            "op": pa.array(["u"], pa.string()),
            "doc_id": pa.array([victim], pa.string()),
            "tokens": pa.array([[1, 2, 3]], pa.list_(pa.int32())),
            "n_tok": pa.array([3], pa.int32()),
            "source": pa.array(["web"], pa.string()),
        },
        schema=CHANGE_SCHEMA,
    )
    pq.write_table(t, segment_path(wal, lsn, lsn))
    apply_once(table, wal, ApplyConfig())
    snap2 = snapshot_table(table)
    assert victim in snap2.column("doc_id").to_pylist()


def test_mutation_on_sum_table(ray_session, tmp_path):
    """Sum tables: predicate on a NON-sum column; deleting keys removes
    their accumulated state (and zone pruning on the sum col is bypassed —
    covered by scan tests; here the mutation predicate uses lsn)."""
    wal = str(tmp_path / "wal")
    generate_fact_wal(
        wal, FactGenParams(total_events=2_000, events_per_segment=500, n_docs=40)
    )
    table = str(tmp_path / "t")
    create_table(
        table, num_partitions=4, schema=FACT_SNAPSHOT_SCHEMA, mode="sum",
        key_col="doc_id", sum_cols=["value"],
    )
    replay(table, wal, ApplyConfig(max_segments=1), final_compact=False)
    snap = snapshot_table(table).to_pandas()
    victims = set(snap[snap["value"] > snap["value"].median()]["doc_id"])
    lo = float(snap["value"].median())
    out = mutate_table(table, "value", lo=lo + 1e-9, delete=True)
    snap2 = snapshot_table(table).to_pandas()
    assert set(snap2["doc_id"]) == set(snap["doc_id"]) - victims
    assert out["rows_deleted"] == len(victims)


def test_mutation_validation(ray_session, tmp_path):
    table, _ = _make_doc_table(tmp_path, n_events=1_000)
    with pytest.raises(ValueError, match="exactly one"):
        mutate_table(table, "n_tok", lo=1, delete=True, set_cols={"source": "x"})
    with pytest.raises(ValueError, match="exactly one"):
        mutate_table(table, "n_tok", lo=1)
    with pytest.raises(ValueError, match="at least one bound"):
        mutate_table(table, "n_tok", delete=True)
    with pytest.raises(ValueError, match="immutable"):
        mutate_table(table, "n_tok", lo=1, set_cols={"doc_id": "x"})
    with pytest.raises(ValueError, match="not in table schema"):
        mutate_table(table, "nope", lo=1, delete=True)


def test_mutation_zones_stay_fresh(ray_session, tmp_path):
    """After a delete mutation the rewritten partitions' zones must describe
    the NEW single-file chains (fsck clean, subsequent scans prune right)."""
    from clickhouse_data_pipeline_ray.pipelines.scan import read_where
    from clickhouse_data_pipeline_ray.state.fsck import fsck_table

    table, _ = _make_doc_table(tmp_path)
    mutate_table(table, "n_tok", lo=0, hi=100, delete=True)
    man = load_manifest(table)
    for part in man.partitions.values():
        files = part.get("files") or []
        zones = part.get("zones") or {}
        assert set(zones) == set(files)
    rep = fsck_table(table)
    assert rep["ok"] and not any(
        f["check"] == "stale_zone" for f in rep["findings"]
    )
    ds, _ = read_where(table, "n_tok", lo=0, hi=100)
    assert ds.count() == 0


@pytest.mark.parametrize("mode", ["upsert", "collapse"])
def test_maintenance_on_tasks_matches_driver_side(
    ray_session, tmp_path, monkeypatch, mode
):
    """Compaction, TTL expiry and a mutation send the rewrite worker (and
    its row rewrite) to plain Ray tasks above COMPACT_DRIVER_BYTES, with no
    Ray Data execution; the tasks must commit exactly what the driver-side
    run commits."""
    import datetime as dt

    import ray

    from clickhouse_data_pipeline_ray.pipelines import apply as apply_mod
    from clickhouse_data_pipeline_ray.pipelines.apply import (
        compact_table,
        ttl_expire,
    )
    from clickhouse_data_pipeline_ray.sources.gen import (
        CollapseGenParams,
        generate_collapse_wal,
    )

    wal = str(tmp_path / "wal")
    schema = FACT_SNAPSHOT_SCHEMA
    if mode == "collapse":
        schema = schema.append(pa.field("sign", pa.int32()))
        generate_collapse_wal(wal, CollapseGenParams(
            total_events=1_500, events_per_segment=500, n_docs=200))
    else:
        generate_fact_wal(wal, FactGenParams(
            total_events=1_500, events_per_segment=500, n_docs=200))

    def no_ray_data(*args, **kwargs):
        raise AssertionError("a Ray Data execution in a maintenance pass")

    def run(name: str, driver_bytes: int) -> list:
        monkeypatch.setattr(apply_mod, "COMPACT_DRIVER_BYTES", driver_bytes)
        if not driver_bytes:
            monkeypatch.setattr(ray.data, "from_items", no_ray_data)
        table = str(tmp_path / name)
        create_table(table, num_partitions=4, schema=schema, mode=mode)
        replay(table, wal, ApplyConfig(max_segments=1), final_compact=False)
        steps = [
            compact_table(table),
            ttl_expire(table, "event_ts", dt.datetime(2024, 3, 1)),
        ]
        if mode == "upsert":
            steps.append(mutate_table(
                table, "lsn", lo=1_000, hi=1_400, set_cols={"event_type": "x"}))
        for i, s in enumerate(steps):
            assert s is not None, i
            s.pop("wall_s")
        return steps + [snapshot_table(table)]

    driver, tasks = run("driver", 64 << 20), run("tasks", 0)
    assert driver[:-1] == tasks[:-1]
    assert driver[-1].equals(tasks[-1])
