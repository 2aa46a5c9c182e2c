"""Sum-mode tables: the SummingMergeTree analog (additive rollup by key).

The reference uses SummingMergeTree for its KPI views
(/root/reference/etl/clickhouse_schema/kpi_views.sql:5-8); here the engine
offers it as a first-class TABLE mode beside upsert (Replacing) and append:
insert-only change events fold per key with ``sum_cols`` summed, every other
column last-writer-wins, under the same delta/compact LSM write path and
exactly-once commit protocol. Oracle: DuckDB ``GROUP BY key`` with
``sum()`` / ``arg_max(col, lsn)`` over the raw WAL.
"""

import numpy as np
import duckdb
import pandas as pd
import pyarrow as pa
import pytest

from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    apply_once,
    compact_table,
    create_table,
    replay,
    snapshot_table,
)
from clickhouse_data_pipeline_ray.schemas import FACT_SNAPSHOT_SCHEMA
from clickhouse_data_pipeline_ray.sources.gen import FactGenParams, generate_fact_wal
from clickhouse_data_pipeline_ray.stages.merge import sum_compact
from clickhouse_data_pipeline_ray.state.manifest import init_table, load_manifest

# ---------------------------------------------------------------- kernel


def _rand_table(rng, n, n_keys):
    keys = [f"k{int(i):03d}" for i in rng.integers(0, n_keys, n)]
    return pa.table(
        {
            "doc_id": pa.array(keys, pa.string()),
            "lsn": pa.array(rng.permutation(n) + 1, pa.int64()),
            "m1": pa.array(rng.integers(-5, 100, n), pa.int64()),
            "m2": pa.array(rng.normal(size=n), pa.float64()),
            "tag": pa.array([f"t{int(x)}" for x in rng.integers(0, 4, n)]),
        }
    )


def _pandas_oracle(t: pa.Table, sum_cols=("m1", "m2")):
    df = t.to_pandas()
    out = []
    for key, g in df.groupby("doc_id", sort=True):
        win = g.loc[g["lsn"].idxmax()]
        rec = {c: win[c] for c in df.columns}
        for c in sum_cols:
            rec[c] = g[c].sum()
        out.append(rec)
    return pd.DataFrame(out).reset_index(drop=True)


def test_sum_compact_matches_pandas_oracle():
    rng = np.random.default_rng(7)
    t = _rand_table(rng, 500, 40)
    got = sum_compact(t, sum_cols=["m1", "m2"]).to_pandas()
    want = _pandas_oracle(t)[list(got.columns)]
    pd.testing.assert_frame_equal(got, want, check_dtype=False, atol=1e-12)
    # output is key-sorted (read paths rely on it for row-group pruning)
    assert got["doc_id"].is_monotonic_increasing


def test_sum_compact_hierarchical_folds_compose():
    """Partial sums over arbitrary splits fold to the global result — the
    property the per-batch combiner, salted L1, and delta chain all rely on."""
    rng = np.random.default_rng(11)
    t = _rand_table(rng, 600, 25)
    whole = sum_compact(t, sum_cols=["m1", "m2"])
    cuts = sorted(rng.integers(1, 599, 3).tolist())
    parts = [
        t.slice(a, b - a) for a, b in zip([0] + cuts, cuts + [t.num_rows])
    ]
    partials = [sum_compact(p, sum_cols=["m1", "m2"]) for p in parts]
    refolded = sum_compact(
        pa.concat_tables(partials, promote_options="none"), sum_cols=["m1", "m2"]
    )
    assert refolded.column("doc_id").equals(whole.column("doc_id"))
    assert refolded.column("m1").equals(whole.column("m1"))
    assert np.allclose(
        refolded.column("m2").to_numpy(), whole.column("m2").to_numpy()
    )
    assert refolded.column("lsn").equals(whole.column("lsn"))
    assert refolded.column("tag").equals(whole.column("tag"))


def test_sum_compact_empty_and_no_sum_cols():
    t = _rand_table(np.random.default_rng(3), 50, 10)
    assert sum_compact(t.slice(0, 0), sum_cols=["m1"]).num_rows == 0
    # missing sum cols → plain LWW (one row per key, max-lsn values)
    lww = sum_compact(t, sum_cols=["absent"])
    assert lww.num_rows == len(set(t.column("doc_id").to_pylist()))


# ---------------------------------------------------------------- DDL


def test_sum_ddl_validation(tmp_path):
    with pytest.raises(ValueError, match="non-empty sum_cols"):
        init_table(str(tmp_path / "a"), FACT_SNAPSHOT_SCHEMA, 4, mode="sum")
    with pytest.raises(ValueError, match="must be numeric"):
        init_table(
            str(tmp_path / "b"), FACT_SNAPSHOT_SCHEMA, 4, mode="sum",
            sum_cols=["event_type"],
        )
    with pytest.raises(ValueError, match="not in schema"):
        init_table(
            str(tmp_path / "c"), FACT_SNAPSHOT_SCHEMA, 4, mode="sum",
            sum_cols=["nope"],
        )
    with pytest.raises(ValueError, match="only apply to mode='sum'"):
        init_table(
            str(tmp_path / "d"), FACT_SNAPSHOT_SCHEMA, 4, mode="append",
            key_col="event_id", sum_cols=["value"],
        )
    man = init_table(
        str(tmp_path / "e"), FACT_SNAPSHOT_SCHEMA, 4, mode="sum",
        sum_cols=["value"],
    )
    assert load_manifest(str(tmp_path / "e")).sum_cols == ["value"]
    assert man.mode == "sum"


# ---------------------------------------------------------------- replay


def _make_sum_table(tmp_path, n_events=4_000, n_docs=300, num_partitions=8):
    wal = str(tmp_path / "wal")
    generate_fact_wal(
        wal,
        FactGenParams(
            total_events=n_events, events_per_segment=1_000, n_docs=n_docs
        ),
    )
    table = str(tmp_path / "t")
    create_table(
        table, num_partitions=num_partitions, schema=FACT_SNAPSHOT_SCHEMA,
        mode="sum", key_col="doc_id", sum_cols=["value"],
    )
    return table, wal


def _duck_oracle(wal: str) -> pa.Table:
    return duckdb.sql(
        f"""
        SELECT doc_id,
               sum(value)              AS value,
               arg_max(event_id, lsn)  AS event_id,
               arg_max(event_ts, lsn)  AS event_ts,
               arg_max(event_type, lsn) AS event_type,
               max(lsn)                AS lsn
        FROM read_parquet('{wal}/seg-*.parquet')
        GROUP BY doc_id ORDER BY doc_id
        """
    ).arrow()


def _assert_matches_oracle(snap: pa.Table, want: pa.Table):
    assert snap.num_rows == want.num_rows
    assert snap.column("doc_id").to_pylist() == want.column("doc_id").to_pylist()
    assert np.allclose(
        snap.column("value").to_numpy(), want.column("value").to_numpy(),
        rtol=1e-9,
    )
    for c in ("event_id", "event_type", "lsn"):
        assert snap.column(c).to_pylist() == want.column(c).to_pylist(), c


def test_sum_replay_matches_duckdb_delta_chain(ray_session, tmp_path):
    """4 micro-epochs in delta mode with a tiny compact threshold — the
    chain folds mid-replay — must equal one DuckDB GROUP BY over the WAL."""
    table, wal = _make_sum_table(tmp_path)
    replay(
        table, wal,
        ApplyConfig(compact_threshold=3, max_segments=1),
        final_compact=False,
    )
    _assert_matches_oracle(snapshot_table(table), _duck_oracle(wal))


def test_sum_replay_distributed_path_and_salting(ray_session, tmp_path):
    """small_epoch_events=0 forces the full Dataset plan (no driver
    micro-epoch shortcut); max_segments=2 runs two such epochs, and
    hot_ratio=0 makes epoch 2 salt EVERY partition epoch 1 touched —
    exercising the sum-aware salted L1 — with identical results."""
    table, wal = _make_sum_table(tmp_path)
    stats = replay(
        table, wal,
        ApplyConfig(
            compact_threshold=3, hot_ratio=0.0, salt_factor=4,
            max_segments=2, small_epoch_events=0,
        ),
        final_compact=False,
    )
    assert any(s.get("hot_pids") for s in stats), "salted path was not exercised"
    _assert_matches_oracle(snapshot_table(table), _duck_oracle(wal))


def test_sum_reapply_is_idempotent(ray_session, tmp_path):
    table, wal = _make_sum_table(tmp_path, n_events=2_000, n_docs=100)
    replay(table, wal, ApplyConfig(max_segments=1), final_compact=False)
    before = snapshot_table(table)
    # caught up: nothing pending, nothing double-summed
    assert apply_once(table, wal, ApplyConfig()) is None
    after = snapshot_table(table)
    assert after.equals(before)
    _assert_matches_oracle(after, _duck_oracle(wal))


def test_sum_compaction_preserves_state(ray_session, tmp_path):
    table, wal = _make_sum_table(tmp_path, n_events=2_000, n_docs=100)
    replay(
        table, wal,
        ApplyConfig(compact_threshold=10, max_segments=1),
        final_compact=False,
    )
    man = load_manifest(table)
    assert any(len(p["files"]) > 1 for p in man.partitions.values()), (
        "expected an uncompacted delta chain"
    )
    before = snapshot_table(table)
    compact_table(table)
    man = load_manifest(table)
    assert all(len(p["files"]) <= 1 for p in man.partitions.values())
    assert snapshot_table(table).equals(before)


def test_sum_rejects_updates_and_deletes(ray_session, tmp_path):
    import pyarrow.parquet as pq

    table, wal = _make_sum_table(tmp_path, n_events=1_000, n_docs=50)
    bad = pa.table(
        {
            "lsn": pa.array([10_001], pa.int64()),
            "op": pa.array(["u"], pa.string()),
            "event_id": pa.array(["x"], pa.string()),
            "doc_id": pa.array(["doc-1"], pa.string()),
            "event_ts": pa.array([0], pa.timestamp("us")),
            "event_type": pa.array(["view"], pa.string()),
            "value": pa.array([1.0], pa.float64()),
        }
    )
    pq.write_table(bad, f"{wal}/seg-{10_001:012d}-{10_001:012d}.parquet")
    with pytest.raises(Exception, match="invalid op"):
        replay(table, wal, ApplyConfig(), final_compact=False)


# ------------------------------------------------- surfaces beyond replay


def test_sum_lookup_keys(ray_session, tmp_path):
    """Point lookups on a sum table with an UNCOMPACTED delta chain: each
    key's partial sums fold on the filtered slice (merge-on-read)."""
    from clickhouse_data_pipeline_ray.pipelines.lookup import lookup_keys

    table, wal = _make_sum_table(tmp_path, n_events=2_000, n_docs=100)
    replay(
        table, wal,
        ApplyConfig(compact_threshold=10, max_segments=1),
        final_compact=False,
    )
    man = load_manifest(table)
    assert any(len(p["files"]) > 1 for p in man.partitions.values())
    snap = snapshot_table(table)
    probe = snap.take(pa.array(range(0, snap.num_rows, 7)))
    got = lookup_keys(table, probe.column("doc_id").to_pylist())
    assert got.equals(probe)
    # absent key: simply missing
    assert lookup_keys(table, ["no-such-key"]).num_rows == 0


def test_sum_registry_sync(ray_session, tmp_path):
    """A sum table is a first-class registry citizen: declared with
    sum_cols, synced from its WAL root, status reports mode."""
    from clickhouse_data_pipeline_ray.state import registry as R
    from clickhouse_data_pipeline_ray.sources.gen import generate_fact_wal

    root = str(tmp_path / "lake")
    R.register_table(
        root, "doc_value_rollup", FACT_SNAPSHOT_SCHEMA, key_col="doc_id",
        mode="sum", num_partitions=8, sum_cols=("value",),
    )
    # round-trips through registry.json
    spec = R.load_registry(root)["doc_value_rollup"]
    assert spec.mode == "sum" and spec.sum_cols == ("value",)

    wal = str(tmp_path / "wal")
    generate_fact_wal(
        wal, FactGenParams(total_events=3_000, events_per_segment=1_000)
    )
    out = R.sync_all(root, {"doc_value_rollup": wal}, ApplyConfig())
    assert out[0]["events"] == 3_000 and "error" not in out[0]
    snap = snapshot_table(R.table_dir(root, "doc_value_rollup"))
    _assert_matches_oracle(snap, _duck_oracle(wal))
    assert R.registry_status(root)["doc_value_rollup"]["mode"] == "sum"


def test_sum_import_base_then_deltas(ray_session, tmp_path):
    """Bulk-import a pre-aggregated base into a sum table, then fold WAL
    deltas on top: final = base + per-key delta sums (base rows at lsn 0
    lose every LWW tie, so non-sum columns come from the WAL — exactly the
    'seed the rollup from a backfill' shape)."""
    import pyarrow.parquet as pq

    from clickhouse_data_pipeline_ray.pipelines.apply import import_base

    table, wal = _make_sum_table(tmp_path, n_events=2_000, n_docs=100)
    want = _duck_oracle(wal)
    # base: every WAL doc key, value = 1000.0 each (pre-summed, unique keys)
    base = pa.table(
        {
            "event_id": pa.array(["base"] * want.num_rows),
            "doc_id": want.column("doc_id"),
            "event_ts": pa.array([0] * want.num_rows, pa.timestamp("us")),
            "event_type": pa.array(["seed"] * want.num_rows),
            "value": pa.array([1000.0] * want.num_rows),
        }
    )
    corpus = str(tmp_path / "base.parquet")
    pq.write_table(base, corpus)
    stats = import_base(table, corpus)
    assert stats["rows"] == want.num_rows
    replay(table, wal, ApplyConfig(max_segments=2), final_compact=False)
    snap = snapshot_table(table)
    assert snap.num_rows == want.num_rows
    assert np.allclose(
        snap.column("value").to_numpy(),
        want.column("value").to_numpy() + 1000.0,
    )
    # WAL rows outrank the lsn-0 base on non-sum columns
    assert snap.column("event_type").to_pylist() == want.column(
        "event_type"
    ).to_pylist()


def test_sum_fsck_clean(ray_session, tmp_path):
    from clickhouse_data_pipeline_ray.state.fsck import fsck_table

    table, wal = _make_sum_table(tmp_path, n_events=2_000, n_docs=100)
    replay(
        table, wal,
        ApplyConfig(compact_threshold=10, max_segments=1),
        final_compact=False,
    )
    report = fsck_table(table)
    assert report["ok"], report
