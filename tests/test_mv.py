"""Incremental materialized views (the SummingMergeTree MV analog,
/root/reference/etl/clickhouse_schema/kpi_views.sql): per-tick O(changes)
maintenance must agree bit-for-bit with a full recompute at every step."""

import duckdb
import pytest

from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    apply_once,
    create_table,
    replay,
)
from clickhouse_data_pipeline_ray.pipelines.mv import (
    list_mvs,
    load_mv,
    read_mv,
    refresh_mv,
    register_mv,
)
from clickhouse_data_pipeline_ray.schemas import FACT_SNAPSHOT_SCHEMA
from clickhouse_data_pipeline_ray.sources.gen import FactGenParams, generate_fact_wal
from clickhouse_data_pipeline_ray.sources.wal import truncate_wal

from .helpers import force_ray_venue

MV_SUMS = [{"col": "value", "scale": 1000, "name": "sum_value_milli"}]


def _make(tmp_path, n_events=4_000):
    wal = str(tmp_path / "wal")
    generate_fact_wal(
        wal, FactGenParams(total_events=n_events, events_per_segment=500)
    )
    table = str(tmp_path / "t")
    create_table(
        table, schema=FACT_SNAPSHOT_SCHEMA, mode="append",
        key_col="event_id", num_partitions=4,
    )
    return table, wal


def _oracle(wal, upto_lsn):
    return duckdb.sql(
        f"""
        SELECT strftime(event_ts, '%Y-%m-%d') AS event_date, event_type,
               CAST(count(*) AS BIGINT) AS n_events,
               CAST(sum(CAST(FLOOR(value * 1000 + 0.5) AS BIGINT)) AS BIGINT)
                   AS sum_value_milli
        FROM read_parquet('{wal}/seg-*.parquet')
        WHERE lsn <= {upto_lsn}
        GROUP BY 1, 2 ORDER BY 1, 2
        """
    ).df()


def _mv_df(table):
    df = read_mv(table, "daily").to_pandas()
    return df[["event_date", "event_type", "n_events", "sum_value_milli"]]


def test_incremental_equals_full_recompute_every_tick(ray_session, tmp_path):
    table, wal = _make(tmp_path)
    register_mv(
        table, "daily", group_keys=["event_date", "event_type"],
        sums=MV_SUMS, date_from="event_ts",
    )
    cfg = ApplyConfig(max_segments=2)
    ticks = 0
    while True:
        stats = apply_once(table, wal, cfg)
        if stats is None:
            break
        tick = refresh_mv(table, wal, "daily")
        assert tick is not None and tick["to_lsn"] > tick["from_lsn"]
        got = _mv_df(table)
        want = _oracle(wal, tick["to_lsn"])
        assert got.values.tolist() == want.values.tolist(), f"tick {ticks}"
        ticks += 1
    assert ticks >= 4  # genuinely incremental, not one big fold


def test_refresh_caught_up_is_noop(ray_session, tmp_path):
    table, wal = _make(tmp_path, n_events=1_000)
    register_mv(
        table, "daily", group_keys=["event_date", "event_type"],
        sums=MV_SUMS, date_from="event_ts",
    )
    replay(table, wal, ApplyConfig(), final_compact=False)
    assert refresh_mv(table, wal, "daily") is not None
    before = load_mv(table, "daily")
    assert refresh_mv(table, wal, "daily") is None
    assert load_mv(table, "daily")["state_file"] == before["state_file"]


def test_lagging_mv_catches_up_in_one_tick(ray_session, tmp_path):
    """MV registered late / refreshed rarely: one tick folds several epochs."""
    table, wal = _make(tmp_path, n_events=2_000)
    replay(table, wal, ApplyConfig(max_segments=1), final_compact=False)
    register_mv(
        table, "daily", group_keys=["event_date", "event_type"],
        sums=MV_SUMS, date_from="event_ts",
    )
    tick = refresh_mv(table, wal, "daily")
    assert (tick["from_lsn"], tick["to_lsn"]) == (0, 2_000)
    assert _mv_df(table).values.tolist() == _oracle(wal, 2_000).values.tolist()


# ---------------------------------------------------------------------------
# Upsert-table MVs: partition-incremental maintenance (recompute only the
# partitions whose manifest file chain changed; the view = sum of partials).
# Updates and tombstoned deletes fold correctly by construction — every
# partial is recomputed from its partition's merged LWW state.
# ---------------------------------------------------------------------------

UP_SUMS = [{"col": "n_tok", "scale": 1, "name": "sum_n_tok"}]


def _up_make(tmp_path, n_events=2_000, per_seg=400, num_partitions=8,
             mix=(0.2, 0.6, 0.2)):
    from clickhouse_data_pipeline_ray.sources.gen import GenParams, generate_wal

    wal = str(tmp_path / "uwal")
    generate_wal(
        wal,
        GenParams(
            total_events=n_events, base_events=min(400, n_events),
            events_per_segment=per_seg, mix=mix,
        ),
    )
    table = str(tmp_path / "ut")
    create_table(table, num_partitions=num_partitions)  # default upsert/docs
    register_mv(
        table, "by_source", group_keys=["source"], sums=UP_SUMS,
        count_col="n_docs",
    )
    return table, wal


def _up_oracle(wal, upto_lsn):
    return duckdb.sql(
        f"""
        WITH ev AS (SELECT * FROM read_parquet('{wal}/seg-*.parquet')
                    WHERE lsn <= {upto_lsn}),
        r AS (SELECT doc_id, arg_max(source, lsn) AS source,
                     arg_max(n_tok, lsn) AS n_tok, arg_max(op, lsn) AS op
              FROM ev GROUP BY doc_id)
        SELECT source, CAST(sum(n_tok) AS BIGINT) AS sum_n_tok,
               CAST(count(*) AS BIGINT) AS n_docs
        FROM r WHERE op != 'd' GROUP BY source ORDER BY source
        """
    ).df()


def _up_mv_df(table):
    df = read_mv(table, "by_source").to_pandas()
    return df[["source", "sum_n_tok", "n_docs"]]


def test_upsert_mv_incremental_equals_recompute_every_tick(ray_session, tmp_path):
    from clickhouse_data_pipeline_ray.state.manifest import load_manifest

    table, wal = _up_make(tmp_path)
    cfg = ApplyConfig(max_segments=1)
    ticks = 0
    while apply_once(table, wal, cfg) is not None:
        tick = refresh_mv(table, wal, "by_source")
        assert tick is not None and tick["changed_pids"] >= 1
        wm = load_manifest(table).watermark
        got = _up_mv_df(table)
        want = _up_oracle(wal, wm)
        assert got.values.tolist() == want.values.tolist(), f"tick {ticks}"
        ticks += 1
    assert ticks >= 4


def test_upsert_mv_prunes_unchanged_partitions(ray_session, tmp_path, monkeypatch):
    """A one-event epoch changes exactly one partition's chain — the tick
    must recompute exactly that one partial (the others are never read)."""
    import clickhouse_data_pipeline_ray.state.artifacts as artifacts_mod

    table, wal = _up_make(tmp_path, n_events=201, per_seg=200,
                          mix=(0.0, 1.0, 0.0))
    cfg = ApplyConfig(max_segments=1)
    assert apply_once(table, wal, cfg) is not None  # 200-insert base segment
    assert refresh_mv(table, wal, "by_source")["changed_pids"] >= 1

    assert apply_once(table, wal, cfg) is not None  # the single update
    calls = []
    real = artifacts_mod.read_partition_final

    def spy(table_dir, files, *args, **kwargs):
        calls.append(files)
        return real(table_dir, files, *args, **kwargs)

    monkeypatch.setattr(artifacts_mod, "read_partition_final", spy)
    tick = refresh_mv(table, wal, "by_source")
    assert tick["changed_pids"] == 1
    assert len(calls) == 1
    from clickhouse_data_pipeline_ray.state.manifest import load_manifest

    wm = load_manifest(table).watermark
    assert _up_mv_df(table).values.tolist() == _up_oracle(wal, wm).values.tolist()
    # caught up: a further refresh with no table change is a no-op
    assert refresh_mv(table, wal, "by_source") is None


def test_upsert_mv_distributed_path_identical(ray_session, tmp_path, monkeypatch):
    table, wal = _up_make(tmp_path, n_events=1_000, per_seg=1_000)
    replay(table, wal, ApplyConfig(), final_compact=False)
    force_ray_venue(monkeypatch)
    tick = refresh_mv(table, wal, "by_source")
    assert tick["changed_pids"] >= 1
    from clickhouse_data_pipeline_ray.state.manifest import load_manifest

    wm = load_manifest(table).watermark
    assert _up_mv_df(table).values.tolist() == _up_oracle(wal, wm).values.tolist()


def test_upsert_mv_survives_compaction_and_repartition(ray_session, tmp_path):
    from clickhouse_data_pipeline_ray.pipelines.apply import (
        compact_table,
        repartition_table,
    )
    from clickhouse_data_pipeline_ray.state.manifest import load_manifest

    table, wal = _up_make(tmp_path, n_events=1_200, per_seg=300)
    replay(table, wal, ApplyConfig(max_segments=2), final_compact=False)
    refresh_mv(table, wal, "by_source")
    wm = load_manifest(table).watermark
    want = _up_oracle(wal, wm).values.tolist()
    assert _up_mv_df(table).values.tolist() == want

    # compaction rewrites chains but not state: ticks re-fold, same answer
    compact_table(table)
    tick = refresh_mv(table, wal, "by_source")
    assert tick is not None
    assert _up_mv_df(table).values.tolist() == want

    # repartition invalidates the pid space: the next tick is a clean full
    # rebuild (changed = every new partition) with the same answer
    repartition_table(table, 5)
    tick = refresh_mv(table, wal, "by_source")
    assert tick["changed_pids"] == 5
    assert _up_mv_df(table).values.tolist() == want


def test_upsert_mv_orphan_partials_invisible_and_gcd(ray_session, tmp_path):
    import os

    table, wal = _up_make(tmp_path, n_events=600, per_seg=300)
    assert apply_once(table, wal, ApplyConfig(max_segments=1)) is not None
    refresh_mv(table, wal, "by_source")
    before = _up_mv_df(table).values.tolist()
    d = os.path.join(table, "mv", "by_source", "partials", "pid=99999")
    os.makedirs(d)
    orphan = os.path.join(d, "part.parquet")
    import pyarrow.parquet as pq

    pq.write_table(read_mv(table, "by_source"), orphan)
    # a crashed tick's stray partial is invisible (meta lists the live pids)
    assert _up_mv_df(table).values.tolist() == before
    # ... and the next committing tick garbage-collects it
    replay(table, wal, ApplyConfig(), final_compact=False)
    assert refresh_mv(table, wal, "by_source") is not None
    assert not os.path.exists(orphan)


def test_upsert_mv_enrich_rejected_and_empty_state_typed(ray_session, tmp_path):
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4)  # default upsert/docs
    with pytest.raises(ValueError, match="enrich"):
        register_mv(
            table, "bad", group_keys=["source"], sums=UP_SUMS,
            enrich={"table": table, "on": "doc_id", "add": ["source"]},
        )
    register_mv(table, "by_source", group_keys=["source"], sums=UP_SUMS,
                count_col="n_docs")
    empty = read_mv(table, "by_source")
    assert empty.num_rows == 0
    assert set(empty.column_names) == {"source", "sum_n_tok", "n_docs"}
    import pyarrow as pa

    assert empty.schema.field("source").type == pa.string()


def test_reregistration_rules(ray_session, tmp_path):
    table, _ = _make(tmp_path, n_events=500)
    spec = register_mv(
        table, "daily", group_keys=["event_date", "event_type"],
        sums=MV_SUMS, date_from="event_ts",
    )
    # identical re-registration: idempotent
    again = register_mv(
        table, "daily", group_keys=["event_date", "event_type"],
        sums=MV_SUMS, date_from="event_ts",
    )
    assert again["group_keys"] == spec["group_keys"]
    # conflicting definition: loud
    with pytest.raises(ValueError, match="different definition"):
        register_mv(table, "daily", group_keys=["event_type"], sums=MV_SUMS)
    # unknown columns: loud
    with pytest.raises(ValueError, match="not in table schema"):
        register_mv(table, "bad", group_keys=["nope"], sums=[])
    assert list_mvs(table) == ["daily"]


def test_truncated_wal_gap_detected(ray_session, tmp_path):
    table, wal = _make(tmp_path, n_events=2_000)
    register_mv(
        table, "daily", group_keys=["event_date", "event_type"],
        sums=MV_SUMS, date_from="event_ts",
    )
    replay(table, wal, ApplyConfig(), final_compact=False)
    truncate_wal(wal, 2_000)  # table is durable; the lagging MV is not
    with pytest.raises(ValueError, match="truncated past the MV watermark"):
        refresh_mv(table, wal, "daily")


def test_enriched_mv_null_group_preserved(ray_session, tmp_path):
    """Dim-enriched group keys: facts whose key misses the dim must land in
    a NULL group (LEFT JOIN convention), not silently vanish in the pandas
    combine; enrichment validation rejects non-dim tables and bad columns."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from clickhouse_data_pipeline_ray.pipelines.apply import import_base
    from clickhouse_data_pipeline_ray.schemas import FACT_CHANGE_SCHEMA
    from clickhouse_data_pipeline_ray.sources.wal import segment_path

    # dim: 3 docs with known sources (bulk import, lsn=0)
    dim = str(tmp_path / "dim")
    create_table(dim, num_partitions=4)
    corpus = str(tmp_path / "corpus.parquet")
    pq.write_table(
        pa.table(
            {
                "doc_id": ["d-1", "d-2", "d-3"],
                "tokens": pa.array([[1]] * 3, pa.list_(pa.int32())),
                "n_tok": pa.array([1, 1, 1], pa.int32()),
                "source": ["web", "web", "books"],
            }
        ),
        corpus,
    )
    import_base(dim, corpus)
    # facts: 4 events, one referencing a doc the dim does not have
    wal = str(tmp_path / "fwal")
    import os

    os.makedirs(wal)
    n = 4
    t = pa.table(
        {
            "lsn": pa.array(np.arange(1, n + 1)),
            "op": pa.array(["c"] * n),
            "event_id": pa.array([f"ev-{i}" for i in range(n)]),
            "doc_id": pa.array(["d-1", "d-2", "d-3", "d-MISSING"]),
            "event_ts": pa.array([1_700_000_000_000_000] * n, pa.timestamp("us")),
            "event_type": pa.array(["view", "click", "view", "view"]),
            "value": pa.array([1.0] * n, pa.float64()),
        },
        schema=FACT_CHANGE_SCHEMA,
    )
    pq.write_table(t, segment_path(wal, 1, n))

    facts = str(tmp_path / "facts")
    create_table(
        facts, schema=FACT_SNAPSHOT_SCHEMA, mode="append",
        key_col="event_id", num_partitions=2,
    )
    from clickhouse_data_pipeline_ray.pipelines.mv import (
        read_mv as rmv,
        refresh_mv as rfr,
        register_mv as reg,
    )

    with pytest.raises(ValueError, match="upsert"):
        reg(facts, "bad", group_keys=["source"], sums=[],
            enrich={"table": facts, "on": "doc_id", "add": ["source"]})
    with pytest.raises(ValueError, match="not in dim schema"):
        reg(facts, "bad", group_keys=["nope"], sums=[],
            enrich={"table": dim, "on": "doc_id", "add": ["nope"]})

    reg(facts, "ctr", group_keys=["source", "event_type"], sums=[],
        enrich={"table": dim, "on": "doc_id", "add": ["source"]})
    replay(facts, wal, ApplyConfig(), final_compact=False)
    rfr(facts, wal, "ctr")
    df = rmv(facts, "ctr").to_pandas()
    got = {
        (s if isinstance(s, str) else None, e): n
        for s, e, n in zip(df["source"], df["event_type"], df["n_events"])
    }
    assert got == {
        ("web", "view"): 1, ("web", "click"): 1,
        ("books", "view"): 1, (None, "view"): 1,
    }


def test_empty_mv_state_typed_from_schema(ray_session, tmp_path):
    """Pre-first-tick state must carry the REAL group-key types (from the
    table / dim schemas), not all-string: an MV keyed on a numeric column
    would otherwise coerce the key to object dtype in the first tick's
    concat."""
    import pyarrow as pa

    table, wal = _make(tmp_path, n_events=600)
    # numeric group key (value is float64 in the fact schema)
    register_mv(table, "byval", group_keys=["value"], sums=MV_SUMS)
    empty = read_mv(table, "byval")
    assert empty.num_rows == 0
    assert empty.schema.field("value").type == pa.float64()
    # derived event_date stays string; base event_type keeps its table type
    register_mv(
        table, "daily", group_keys=["event_date", "event_type"],
        sums=MV_SUMS, date_from="event_ts",
    )
    e2 = read_mv(table, "daily")
    assert e2.schema.field("event_date").type == pa.string()
    assert e2.schema.field("event_type").type == pa.string()
    # first tick over the numeric key keeps a numeric dtype end-to-end
    replay(table, wal, ApplyConfig(), final_compact=False)
    refresh_mv(table, wal, "byval")
    df = read_mv(table, "byval").to_pandas()
    assert df["value"].dtype.kind == "f"


def test_tick_reads_are_column_pruned(ray_session, tmp_path, monkeypatch):
    """Refresh ticks must read ONLY (lsn, group keys, date_from, sum cols,
    enrich-on) from the WAL — spied via the columns argument of the WAL
    reader's ``read_part`` calls."""
    import clickhouse_data_pipeline_ray.pipelines.apply as apply_mod

    table, wal = _make(tmp_path, n_events=800)
    register_mv(
        table, "daily", group_keys=["event_date", "event_type"],
        sums=MV_SUMS, date_from="event_ts",
    )
    replay(table, wal, ApplyConfig(), final_compact=False)

    seen = []
    real = apply_mod.read_part

    def spy(path, columns=None, *a, **kw):
        seen.append(columns)
        return real(path, columns, *a, **kw)

    monkeypatch.setattr(apply_mod, "read_part", spy)
    refresh_mv(table, wal, "daily")
    tick_reads = [c for c in seen if c is not None]
    assert tick_reads, "fast-path tick read never went through read_part"
    for cols in tick_reads:
        assert set(cols) == {"lsn", "event_ts", "event_type", "value"}
    # result still exact vs the oracle
    import pandas as pd

    got = _mv_df(table).sort_values(["event_date", "event_type"]).reset_index(drop=True)
    want = _oracle(wal, 10**9)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_enrich_dim_read_never_decodes_tokens(ray_session, tmp_path, monkeypatch):
    """The enrichment dim read must go through the column-pruned merged
    reader (key + enrich columns + lsn/op only) — the wide tokens payload
    is never requested."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq_mod

    import clickhouse_data_pipeline_ray.stages.merge as merge_mod
    from clickhouse_data_pipeline_ray.pipelines.apply import import_base
    from clickhouse_data_pipeline_ray.schemas import FACT_CHANGE_SCHEMA
    from clickhouse_data_pipeline_ray.sources.wal import segment_path

    dim = str(tmp_path / "dim")
    create_table(dim, num_partitions=2)
    corpus = str(tmp_path / "corpus.parquet")
    pq_mod.write_table(
        pa.table(
            {
                "doc_id": ["d-1", "d-2"],
                "tokens": pa.array([[1, 2]] * 2, pa.list_(pa.int32())),
                "n_tok": pa.array([2, 2], pa.int32()),
                "source": ["web", "books"],
            }
        ),
        corpus,
    )
    import_base(dim, corpus)
    wal = str(tmp_path / "fwal")
    import os

    os.makedirs(wal)
    t = pa.table(
        {
            "lsn": pa.array([1, 2]),
            "op": pa.array(["c", "c"]),
            "event_id": pa.array(["e1", "e2"]),
            "doc_id": pa.array(["d-1", "d-2"]),
            "event_ts": pa.array([1_700_000_000_000_000] * 2, pa.timestamp("us")),
            "event_type": pa.array(["view", "click"]),
            "value": pa.array([1.0, 2.0], pa.float64()),
        },
        schema=FACT_CHANGE_SCHEMA,
    )
    pq_mod.write_table(t, segment_path(wal, 1, 2))
    facts = str(tmp_path / "facts")
    create_table(
        facts, schema=FACT_SNAPSHOT_SCHEMA, mode="append",
        key_col="event_id", num_partitions=2,
    )
    register_mv(facts, "bysrc", group_keys=["source"], sums=[],
                enrich={"table": dim, "on": "doc_id", "add": ["source"]})
    replay(facts, wal, ApplyConfig(), final_compact=False)

    seen = []
    real = merge_mod.read_part

    def spy(path, columns=None, *a, **kw):
        seen.append((str(path), columns))
        return real(path, columns, *a, **kw)

    monkeypatch.setattr(merge_mod, "read_part", spy)
    refresh_mv(facts, wal, "bysrc")
    dim_reads = [c for p, c in seen if "dim" in p]
    assert dim_reads, "dim read did not go through the pruned reader"
    for cols in dim_reads:
        assert cols is not None and "tokens" not in cols
    got = read_mv(facts, "bysrc").to_pandas()
    assert dict(zip(got["source"], got["n_events"])) == {"web": 1, "books": 1}


def test_small_tick_fast_path_equals_distributed(ray_session, tmp_path, monkeypatch):
    """The driver-side small-tick fold and the distributed path must commit
    identical state (one shared combiner; the threshold only picks the
    execution venue)."""
    import clickhouse_data_pipeline_ray.pipelines.mv as M

    table, wal = _make(tmp_path, n_events=2_000)
    register_mv(
        table, "daily", group_keys=["event_date", "event_type"],
        sums=MV_SUMS, date_from="event_ts",
    )
    replay(table, wal, ApplyConfig(), final_compact=False)
    monkeypatch.setattr(M, "SMALL_TICK_EVENTS", 0)  # force distributed
    refresh_mv(table, wal, "daily")
    dist = _mv_df(table).values.tolist()

    table2, wal2 = _make(tmp_path / "b", n_events=2_000)
    register_mv(
        table2, "daily", group_keys=["event_date", "event_type"],
        sums=MV_SUMS, date_from="event_ts",
    )
    replay(table2, wal2, ApplyConfig(), final_compact=False)
    monkeypatch.setattr(M, "SMALL_TICK_EVENTS", 500_000)  # fast path
    refresh_mv(table2, wal2, "daily")
    assert _mv_df(table2).values.tolist() == dist == _oracle(wal, 2_000).values.tolist()


def test_read_dim_columns_respects_table_mode(ray_session, tmp_path):
    """_read_dim_columns mirrors read_partition's mode dispatch: upsert
    chains LWW-merge on the physical doc_id key, append chains plain-concat
    (legal duplicate business keys survive — never an LWW pass)."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from clickhouse_data_pipeline_ray.pipelines.mv import _read_dim_columns
    from clickhouse_data_pipeline_ray.schemas import FACT_CHANGE_SCHEMA
    from clickhouse_data_pipeline_ray.sources.wal import segment_path

    wal = str(tmp_path / "wal")
    os.makedirs(wal)
    n = 6
    t = pa.table(
        {
            "lsn": pa.array(np.arange(1, n + 1)),
            "op": pa.array(["c"] * n),
            "event_id": pa.array([f"ev-{i}" for i in range(n)]),
            # duplicate doc_ids are LEGAL fact rows in append mode
            "doc_id": pa.array(["d-1", "d-1", "d-2", "d-2", "d-2", "d-3"]),
            "event_ts": pa.array([1_700_000_000_000_000] * n, pa.timestamp("us")),
            "event_type": pa.array(["view"] * n),
            "value": pa.array([1.0] * n, pa.float64()),
        },
        schema=FACT_CHANGE_SCHEMA,
    )
    pq.write_table(t, segment_path(wal, 1, n))
    facts = str(tmp_path / "facts")
    create_table(
        facts, schema=FACT_SNAPSHOT_SCHEMA, mode="append",
        key_col="event_id", num_partitions=2,
    )
    replay(facts, wal, ApplyConfig(), final_compact=False)
    got = _read_dim_columns(facts, ["doc_id", "event_type"])
    assert got.num_rows == n  # every duplicate survived
    assert sorted(got.column("doc_id").to_pylist()) == sorted(
        t.column("doc_id").to_pylist()
    )


def test_upsert_table_requires_doc_id_key(ray_session, tmp_path):
    """DDL-time rejection of an upsert schema without the physical doc_id
    LWW key (the merge kernels' engine-wide convention)."""
    import pyarrow as pa

    with pytest.raises(ValueError, match="doc_id"):
        create_table(
            str(tmp_path / "bad"),
            schema=pa.schema([("k", pa.string()), ("lsn", pa.int64())]),
            mode="upsert",
        )


def test_upsert_table_requires_doc_id_key_col(ray_session, tmp_path):
    """upsert + key_col != 'doc_id' would split LWW semantics between the
    key_col-honoring pre-compaction and the doc_id-keyed merge kernels
    (batch-boundary-dependent row loss) — rejected at DDL time."""
    with pytest.raises(ValueError, match="key_col"):
        create_table(str(tmp_path / "bad"), mode="upsert", key_col="user_id")


def test_mv_tick_spans_schema_evolution(ray_session, tmp_path):
    """A refresh tick over a WAL that evolved mid-stream must read each
    file's PRESENT columns and null-fill the gap (projecting an absent
    column from parquet raises) — pre-evolution rows fold into the NULL
    group, the LEFT-JOIN convention."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from clickhouse_data_pipeline_ray.pipelines.mv import (
        read_mv,
        refresh_mv,
        register_mv,
    )
    from clickhouse_data_pipeline_ray.schemas import FACT_CHANGE_SCHEMA
    from clickhouse_data_pipeline_ray.sources.wal import segment_path

    wal = str(tmp_path / "wal")
    os.makedirs(wal)

    def seg(lsns, extra=None):
        n = len(lsns)
        cols = {
            "lsn": pa.array(lsns, pa.int64()),
            "op": pa.array(["c"] * n),
            "event_id": pa.array([f"e{i}" for i in lsns]),
            "doc_id": pa.array(["d"] * n),
            "event_ts": pa.array([1_700_000_000_000_000] * n, pa.timestamp("us")),
            "event_type": pa.array(["view"] * n),
            "value": pa.array([1.0] * n, pa.float64()),
        }
        if extra is not None:
            cols["channel"] = pa.array(extra)
        return pa.table(cols)

    pq.write_table(seg([1, 2]), segment_path(wal, 1, 2))  # pre-evolution
    pq.write_table(
        seg([3, 4], extra=["web", "app"]), segment_path(wal, 3, 4)
    )  # evolved: channel column added

    facts = str(tmp_path / "facts")
    schema = FACT_CHANGE_SCHEMA.remove(
        FACT_CHANGE_SCHEMA.get_field_index("op")
    ).append(pa.field("channel", pa.string()))
    create_table(
        facts, schema=schema, mode="append", key_col="event_id",
        num_partitions=2,
    )
    replay(facts, wal, ApplyConfig(), final_compact=False)
    register_mv(facts, "by_channel", group_keys=["channel"], sums=[])
    refresh_mv(facts, wal, "by_channel")
    df = read_mv(facts, "by_channel").to_pandas()
    got = {
        (c if isinstance(c, str) else None): n
        for c, n in zip(df["channel"], df["n_events"])
    }
    assert got == {None: 2, "web": 1, "app": 1}


# ---------------------------------------------------------------------------
# min/max and approximate-distinct (HLL) measures — the AggregatingMergeTree
# uniqState/uniqMerge analog; the reference's own MVs count DISTINCT ids
# (kpi_views.sql:20-22).
# ---------------------------------------------------------------------------


def _minmax_oracle(wal, upto_lsn):
    return duckdb.sql(
        f"""
        SELECT event_type,
               CAST(count(*) AS BIGINT) AS n_events,
               min(value) AS min_value, max(value) AS max_value,
               CAST(count(DISTINCT doc_id) AS BIGINT) AS uniq_docs_true
        FROM read_parquet('{wal}/seg-*.parquet')
        WHERE lsn <= {upto_lsn}
        GROUP BY 1 ORDER BY 1
        """
    ).df()


def test_append_mv_minmax_exact_and_uniq_bounded_every_tick(ray_session, tmp_path):
    table, wal = _make(tmp_path, n_events=3_000)
    register_mv(
        table, "ext", group_keys=["event_type"], sums=[],
        mins=[{"col": "value", "name": "min_value"}],
        maxs=[{"col": "value", "name": "max_value"}],
        distincts=[{"col": "doc_id", "name": "uniq_docs", "p": 12}],
    )
    cfg = ApplyConfig(max_segments=2)
    ticks = 0
    while apply_once(table, wal, cfg) is not None:
        tick = refresh_mv(table, wal, "ext")
        assert tick is not None
        got = read_mv(table, "ext").to_pandas().sort_values("event_type")
        want = _minmax_oracle(wal, tick["to_lsn"])
        assert got["event_type"].tolist() == want["event_type"].tolist()
        assert got["n_events"].tolist() == want["n_events"].tolist()
        # extrema are EXACT (monotone under append-only folding)
        assert got["min_value"].tolist() == want["min_value"].tolist()
        assert got["max_value"].tolist() == want["max_value"].tolist()
        # HLL estimate within 3 sigma (sigma = 1.04/sqrt(2^12) ~ 1.6%)
        for est, true in zip(got["uniq_docs"], want["uniq_docs_true"]):
            assert abs(est - true) <= max(3 * 0.0163 * true, 3.0)
        ticks += 1
    assert ticks >= 3


def test_append_mv_uniq_registers_tick_boundary_invariant(ray_session, tmp_path):
    """Max-merge associativity: N incremental ticks produce BIT-IDENTICAL
    estimates to one catch-up fold of the same WAL."""
    table, wal = _make(tmp_path, n_events=2_000)
    kw = dict(group_keys=["event_type"], sums=[],
              distincts=[{"col": "doc_id", "name": "uniq_docs", "p": 12}])
    register_mv(table, "inc", **kw)
    cfg = ApplyConfig(max_segments=1)
    while apply_once(table, wal, cfg) is not None:
        refresh_mv(table, wal, "inc")
    register_mv(table, "oneshot", **kw)
    refresh_mv(table, wal, "oneshot")  # single tick over the whole WAL
    a = read_mv(table, "inc").to_pandas().sort_values("event_type")
    b = read_mv(table, "oneshot").to_pandas().sort_values("event_type")
    assert a["uniq_docs"].tolist() == b["uniq_docs"].tolist()
    assert a["n_events"].tolist() == b["n_events"].tolist()


def test_upsert_mv_minmax_and_uniq(ray_session, tmp_path):
    from clickhouse_data_pipeline_ray.state.manifest import load_manifest

    table, wal = _up_make(tmp_path, n_events=1_500, per_seg=500)
    register_mv(
        table, "ext", group_keys=["source"], sums=[], count_col="n_docs",
        mins=[{"col": "n_tok", "name": "min_tok"}],
        maxs=[{"col": "n_tok", "name": "max_tok"}],
        distincts=[{"col": "doc_id", "name": "uniq_docs", "p": 12}],
    )
    cfg = ApplyConfig(max_segments=1)
    while apply_once(table, wal, cfg) is not None:
        refresh_mv(table, wal, "ext")
    wm = load_manifest(table).watermark
    want = duckdb.sql(
        f"""
        WITH ev AS (SELECT * FROM read_parquet('{wal}/seg-*.parquet')
                    WHERE lsn <= {wm}),
        r AS (SELECT doc_id, arg_max(source, lsn) AS source,
                     arg_max(n_tok, lsn) AS n_tok, arg_max(op, lsn) AS op
              FROM ev GROUP BY doc_id)
        SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
               min(n_tok) AS min_tok, max(n_tok) AS max_tok,
               CAST(count(DISTINCT doc_id) AS BIGINT) AS uniq_true
        FROM r WHERE op != 'd' GROUP BY source ORDER BY source
        """
    ).df()
    got = read_mv(table, "ext").to_pandas().sort_values("source")
    assert got["source"].tolist() == want["source"].tolist()
    assert got["n_docs"].tolist() == want["n_docs"].tolist()
    # exact on an upsert table BECAUSE partials are full recomputes: a
    # deleted/updated row's old extremum never lingers
    assert got["min_tok"].tolist() == want["min_tok"].tolist()
    assert got["max_tok"].tolist() == want["max_tok"].tolist()
    for est, true in zip(got["uniq_docs"], want["uniq_true"]):
        assert abs(est - true) <= max(3 * 0.0163 * true, 3.0)


def test_mv_measure_validation(ray_session, tmp_path):
    table, _ = _make(tmp_path, n_events=500)
    with pytest.raises(ValueError, match="min column"):
        register_mv(table, "bad1", group_keys=["event_type"], sums=[],
                    mins=[{"col": "nope"}])
    with pytest.raises(ValueError, match="out of"):
        register_mv(table, "bad2", group_keys=["event_type"], sums=[],
                    distincts=[{"col": "doc_id", "p": 25}])
    with pytest.raises(ValueError, match="duplicate measure"):
        register_mv(table, "bad3", group_keys=["event_type"],
                    sums=[{"col": "value", "name": "x"}],
                    maxs=[{"col": "value", "name": "x"}])
    # pre-extension specs (no mins/maxs/distincts keys) re-register cleanly
    register_mv(table, "plain", group_keys=["event_type"], sums=MV_SUMS)
    import json
    import os
    p = os.path.join(table, "mv", "plain", "mvspec.json")
    with open(p) as f:
        legacy = json.load(f)
    for k in ("mins", "maxs", "distincts"):
        legacy.pop(k, None)
    with open(p, "w") as f:
        json.dump(legacy, f)
    assert register_mv(table, "plain", group_keys=["event_type"],
                       sums=MV_SUMS)["name"] == "plain"


def test_tick_partial_distinct_null_stability(ray_session):
    """Two review-found defects, pinned: (1) a nullable int measure column
    must not flip a partial's schema int64→double (ArrowInvalid on the
    cross-segment concat); (2) a value's HLL register must not depend on
    whether its batch happened to contain a null (int→float pandas
    conversion used to change the hash)."""
    import pyarrow as pa

    from clickhouse_data_pipeline_ray.pipelines.mv import _regs_col, _tick_partial

    spec = {
        "group_keys": ["g"], "sums": [], "count_col": "n",
        "date_from": None, "enrich": None,
        "mins": [{"col": "v", "name": "min_v"}], "maxs": [],
        "distincts": [{"col": "u", "name": "uniq_u", "p": 8}],
    }
    fn = _tick_partial(spec)
    batch_nonull = pa.table({
        "g": ["a", "a"], "v": pa.array([5, 7], pa.int64()),
        "u": pa.array([5, 7], pa.int64()),
    })
    batch_null = pa.table({
        "g": ["a", "a", "a"], "v": pa.array([5, 7, None], pa.int64()),
        "u": pa.array([5, 7, None], pa.int64()),
    })
    p1, p2 = fn(batch_nonull), fn(batch_null)
    # (1) schema-stable: int measure stays int64 with or without nulls
    assert p1.schema.field("min_v").type == pa.int64()
    assert p2.schema.field("min_v").type == pa.int64()
    merged = pa.concat_tables([p1, p2])  # used to raise ArrowInvalid
    assert merged.num_rows == 2
    # (2) null-invariant hashing: same values -> bit-identical registers
    assert (
        p1.column(_regs_col("uniq_u")).to_pylist()
        == p2.column(_regs_col("uniq_u")).to_pylist()
    )
    # NULLs don't count toward the distinct estimate's input
    assert p2.column("n").to_pylist() == [3]
