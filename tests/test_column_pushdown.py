"""Projection pushdown in merge-on-read: only requested columns + the
mode's merge keys leave parquet (the 100-TB rule — never move the wide
tokens payload for a 2-column scan)."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    create_table,
    read_snapshot,
    replay,
    snapshot_table,
)
from clickhouse_data_pipeline_ray.pipelines.scan import read_where
from clickhouse_data_pipeline_ray.schemas import FACT_SNAPSHOT_SCHEMA
from clickhouse_data_pipeline_ray.sources.gen import (
    FactGenParams,
    GenParams,
    generate_fact_wal,
    generate_wal,
)
from clickhouse_data_pipeline_ray.state.manifest import load_manifest
from clickhouse_data_pipeline_ray.stages.merge import (
    merge_needed_columns,
    read_partition,
)


def _upsert_table(tmp_path, ray_cfg=None):
    wal = str(tmp_path / "wal")
    generate_wal(wal, GenParams(total_events=3_000, events_per_segment=1_000))
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4)
    replay(table, wal, ApplyConfig(max_segments=1),
           final_compact=False)
    return table


def test_merge_needed_columns():
    from clickhouse_data_pipeline_ray.schemas import SNAPSHOT_SCHEMA

    sub, phys = merge_needed_columns(SNAPSHOT_SCHEMA, ["n_tok"], "upsert")
    assert set(phys) == {"doc_id", "lsn", "n_tok"}
    assert [f.name for f in sub] == phys  # declared order preserved
    sub2, phys2 = merge_needed_columns(SNAPSHOT_SCHEMA, ["n_tok"], "append")
    assert phys2 == ["n_tok"]
    assert merge_needed_columns(SNAPSHOT_SCHEMA, None, "upsert") == (None, None)
    with pytest.raises(ValueError, match="not in table schema"):
        merge_needed_columns(SNAPSHOT_SCHEMA, ["nope"], "upsert")


def test_read_partition_pruned_equals_full(ray_session, tmp_path):
    table = _upsert_table(tmp_path)
    man = load_manifest(table)
    for pid, part in man.partitions.items():
        files = part.get("files") or []
        if not files:
            continue
        full = read_partition(table, files, man.schema)
        pruned = read_partition(
            table, files, man.schema, columns=["doc_id", "n_tok"]
        )
        assert set(pruned.column_names) == {"doc_id", "lsn", "n_tok"}
        assert pruned.column("doc_id").to_pylist() == full.column(
            "doc_id"
        ).to_pylist()
        assert pruned.column("n_tok").to_pylist() == full.column(
            "n_tok"
        ).to_pylist()


def test_parquet_reads_fetch_only_needed_columns(ray_session, tmp_path, monkeypatch):
    """Spy on ParquetFile.read: the wide tokens column must never be
    requested when the projection excludes it — on both clean-snapshot and
    delta files (delta files legitimately add op)."""
    table = _upsert_table(tmp_path)
    man = load_manifest(table)
    requested = []
    real = pq.ParquetFile.read

    def spy(self, columns=None, **k):
        requested.append(tuple(columns) if columns is not None else None)
        return real(self, columns=columns, **k)

    monkeypatch.setattr(pq.ParquetFile, "read", spy)
    pid, part = next(
        (p, m) for p, m in man.partitions.items() if len(m["files"]) > 1
    )
    read_partition(
        table, part["files"], man.schema, columns=["doc_id", "n_tok"]
    )
    assert requested, "pushdown path never engaged"
    for cols in requested:
        assert cols is not None, "a pruned read fell back to all columns"
        assert "tokens" not in cols
        assert set(cols) <= {"doc_id", "lsn", "n_tok", "op"}


def test_read_snapshot_columns_dataset(ray_session, tmp_path):
    table = _upsert_table(tmp_path)
    rows = read_snapshot(table, columns=["doc_id", "n_tok"]).take_all()
    full = snapshot_table(table)
    assert set(rows[0].keys()) == {"doc_id", "n_tok"}
    assert sorted(r["doc_id"] for r in rows) == sorted(
        full.column("doc_id").to_pylist()
    )
    got = {r["doc_id"]: r["n_tok"] for r in rows}
    want = dict(
        zip(full.column("doc_id").to_pylist(), full.column("n_tok").to_pylist())
    )
    assert got == want


def test_scan_pushdown_keeps_predicate_column_internal(ray_session, tmp_path):
    """read_where projecting columns that EXCLUDE the predicate column must
    still filter correctly (the predicate col is fetched internally and
    dropped at the end)."""
    wal = str(tmp_path / "wal")
    generate_fact_wal(
        wal, FactGenParams(total_events=2_000, events_per_segment=1_000)
    )
    table = str(tmp_path / "t")
    create_table(
        table, num_partitions=4, schema=FACT_SNAPSHOT_SCHEMA, mode="append",
        key_col="event_id", skip_cols=["lsn"],
    )
    replay(table, wal, ApplyConfig(max_segments=1), final_compact=False)
    ds, plan = read_where(table, "lsn", lo=1, hi=500, columns=["event_id"])
    rows = ds.take_all()
    assert len(rows) == 500
    assert set(rows[0].keys()) == {"event_id"}


def test_sum_and_collapse_pruned_reads(ray_session, tmp_path):
    # sum: pruned read folds only the requested measure
    wal = str(tmp_path / "swal")
    generate_fact_wal(
        wal, FactGenParams(total_events=2_000, events_per_segment=500, n_docs=50)
    )
    stab = str(tmp_path / "st")
    create_table(
        stab, num_partitions=4, schema=FACT_SNAPSHOT_SCHEMA, mode="sum",
        key_col="doc_id", sum_cols=["value"],
    )
    replay(stab, wal, ApplyConfig(max_segments=1),
           final_compact=False)
    full = snapshot_table(stab)
    rows = read_snapshot(stab, columns=["doc_id", "value"]).take_all()
    got = {r["doc_id"]: r["value"] for r in rows}
    want = dict(
        zip(full.column("doc_id").to_pylist(), full.column("value").to_pylist())
    )
    assert got.keys() == want.keys()
    assert all(abs(got[k] - want[k]) < 1e-9 for k in got)

    # collapse: finalize works on the pruned subset (sign+lsn fetched)
    from clickhouse_data_pipeline_ray.sources.gen import (
        CollapseGenParams,
        generate_collapse_wal,
    )

    cwal = str(tmp_path / "cwal")
    generate_collapse_wal(
        cwal, CollapseGenParams(total_events=2_000, events_per_segment=500,
                                n_docs=100)
    )
    ctab = str(tmp_path / "ct")
    create_table(
        ctab, num_partitions=4,
        schema=FACT_SNAPSHOT_SCHEMA.append(pa.field("sign", pa.int32())),
        mode="collapse",
    )
    replay(ctab, cwal, ApplyConfig(max_segments=1),
           final_compact=False)
    cfull = snapshot_table(ctab)
    crows = read_snapshot(ctab, columns=["doc_id", "value"]).take_all()
    cgot = {r["doc_id"]: r["value"] for r in crows}
    cwant = dict(
        zip(cfull.column("doc_id").to_pylist(),
            cfull.column("value").to_pylist())
    )
    assert cgot == cwant
