"""Key-sorted granules: the part layout point lookups prune by, and tables
written before it.

Every part is written in row groups of about ``GRANULE_BYTES`` of Arrow
data, key-sorted, with the key's min/max in each row group's footer
statistics; list payloads carry no dictionary. A table whose parts were
written in the earlier layout (one row group per file, token dictionary)
must serve the same answers, and compaction rewrites it into granules."""

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    apply_once,
    compact_table,
    create_table,
    snapshot_table,
)
from clickhouse_data_pipeline_ray.pipelines.lookup import lookup_keys
from clickhouse_data_pipeline_ray.schemas import FACT_SNAPSHOT_SCHEMA
from clickhouse_data_pipeline_ray.sources.gen import (
    FactGenParams,
    GenParams,
    generate_fact_wal,
    generate_wal,
)
from clickhouse_data_pipeline_ray.state.manifest import load_manifest

from .helpers import replay_oracle


def _sum_oracle(wal: str) -> pa.Table:
    return duckdb.sql(
        f"""SELECT max(lsn) AS lsn, arg_max(event_id, lsn) AS event_id,
                   doc_id, arg_max(event_ts, lsn) AS event_ts,
                   arg_max(event_type, lsn) AS event_type, sum(value) AS value
            FROM read_parquet('{wal}/seg-*.parquet')
            GROUP BY doc_id ORDER BY doc_id"""
    ).arrow()


def _table(tmp_path, mode):
    """A one-partition table and its oracle over a 6-segment WAL."""
    wal, table = str(tmp_path / "wal"), str(tmp_path / "t")
    if mode == "upsert":
        generate_wal(wal, GenParams(
            total_events=3_000, base_events=1_500, events_per_segment=500,
            mix=(0.3, 0.55, 0.15), tok_min=256, tok_max=512,
        ))
        create_table(table, num_partitions=1)
        return table, lambda: replay_oracle(wal)
    generate_fact_wal(wal, FactGenParams(
        total_events=24_000, events_per_segment=4_000, n_docs=10_000,
    ))
    create_table(
        table, num_partitions=1, schema=FACT_SNAPSHOT_SCHEMA, mode="sum",
        sum_cols=["value"],
    )
    return table, lambda: _sum_oracle(wal)


def _files(table):
    return [f"{table}/{f}" for f in load_manifest(table).partitions["0"]["files"]]


def _assert_rows_equal(got: pa.Table, want: pa.Table) -> None:
    got = got.sort_by([("doc_id", "ascending")])
    want = want.sort_by([("doc_id", "ascending")])
    assert got.column("doc_id").to_pylist() == want.column("doc_id").to_pylist()
    for name in want.column_names:
        a, b = got.column(name), want.column(name)
        if pa.types.is_floating(b.type):
            assert np.allclose(a.to_numpy(), b.to_numpy(), rtol=1e-9), name
        else:
            assert a.cast(b.type).to_pylist() == b.to_pylist(), name


def _assert_serves_oracle(table, want: pa.Table) -> None:
    _assert_rows_equal(snapshot_table(table), want)
    keys = want.column("doc_id").to_pylist() + ["nope-1", "nope-2"]
    _assert_rows_equal(lookup_keys(table, keys), want)


def _edge_keys(path) -> list[str]:
    """The first and last key of every row group of one part."""
    pf = pq.ParquetFile(path)
    out = []
    for g in range(pf.metadata.num_row_groups):
        keys = pf.read_row_group(g, columns=["doc_id"]).column("doc_id")
        out += [keys[0].as_py(), keys[-1].as_py()]
    return out


def test_parts_are_written_in_granules(ray_session, tmp_path):
    table, _ = _table(tmp_path, "upsert")
    apply_once(table, f"{tmp_path}/wal", ApplyConfig(max_segments=6))
    (path,) = _files(table)
    md = pq.ParquetFile(path).metadata
    assert md.num_row_groups >= 4
    keys = pq.read_table(path, columns=["doc_id"]).column("doc_id").to_pylist()
    assert keys == sorted(keys)
    cols = {md.schema.column(i).path: i for i in range(md.num_columns)}
    for g in range(md.num_row_groups):
        rg = md.row_group(g)
        stats = rg.column(cols["doc_id"]).statistics
        assert stats.has_min_max and stats.min <= stats.max
        assert rg.column(cols["doc_id"]).has_dictionary_page
        assert not rg.column(cols["tokens.list.element"]).has_dictionary_page


@pytest.mark.parametrize("mode", ["upsert", "sum"])
def test_old_layout_table_serves_and_compacts(ray_session, tmp_path, mode):
    table, oracle = _table(tmp_path, mode)
    wal = f"{tmp_path}/wal"
    apply_once(table, wal, ApplyConfig(max_segments=4))
    # rewrite the base snapshot the way parts were written before granules
    (old,) = _files(table)
    old_rows = pq.read_table(old)
    pq.write_table(old_rows, old, compression="zstd")
    old_md = pq.ParquetFile(old).metadata
    assert old_md.num_row_groups == 1
    if mode == "upsert":  # the token dictionary of the earlier layout
        tok = old_md.schema.names.index("element")
        assert old_md.row_group(0).column(tok).has_dictionary_page
    old_lsn = dict(zip(
        old_rows.column("doc_id").to_pylist(), old_rows.column("lsn").to_pylist()
    ))

    # a new delta on top, written in granules
    apply_once(table, wal, ApplyConfig(max_segments=2))
    files = _files(table)
    assert files[0] == old and len(files) == 2
    assert pq.ParquetFile(files[1]).metadata.num_row_groups >= 2
    want = oracle()
    _assert_serves_oracle(table, want)

    # keys updated by the delta that sit at one of its granule edges
    newest = dict(zip(want.column("doc_id").to_pylist(), want.column("lsn").to_pylist()))
    edge = [
        k for k in _edge_keys(files[1])
        if k in old_lsn and newest.get(k, 0) > old_lsn[k]
    ]
    assert edge
    for k in edge:
        got = lookup_keys(table, [k])
        assert got.column("lsn").to_pylist() == [newest[k]]

    compact_table(table)
    (new,) = _files(table)
    assert pq.ParquetFile(new).metadata.num_row_groups > 1
    _assert_serves_oracle(table, want)
    for k in _edge_keys(new):
        assert lookup_keys(table, [k]).column("lsn").to_pylist() == [newest[k]]
