"""Independent dict-replay oracle + table comparison (pure pyarrow, no Ray).

Oracle semantics (FIXTURES.md §4, mirroring ReplacingMergeTree LWW,
/root/reference/etl/clickhouse_schema/init.sql:14): replay the change log in
LSN order over an empty table; c/u set the key, d removes it. The engine's
final snapshot must equal this per-row, including token-array equality.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

from clickhouse_data_pipeline_ray.sources.wal import list_segments
from clickhouse_data_pipeline_ray.state.manifest import retained_epochs


def force_ray_venue(monkeypatch) -> None:
    """Run every artifact refresh's per-pid derive on the partition
    runner's Ray tasks: a maintenance budget of 0 bytes leaves no pid to
    the driver."""
    from clickhouse_data_pipeline_ray.pipelines import apply

    monkeypatch.setattr(apply, "COMPACT_DRIVER_BYTES", 0)


def head_manifest_path(table_dir: str) -> str:
    """The table's current (highest) versioned manifest."""
    return os.path.join(table_dir, f"manifest-{retained_epochs(table_dir)[-1]:06d}.json")


def replay_oracle(wal_dir: str, upto_lsn: int | None = None) -> pa.Table:
    state: dict[str, dict] = {}
    columns: list[str] = ["lsn", "doc_id", "tokens", "n_tok", "source"]
    # evolved/extra columns keep their ACTUAL arrow type from the segment
    # that introduced them (assuming string crashed on numeric evolutions)
    extra_types: dict[str, pa.DataType] = {}
    for seg in list_segments(wal_dir):
        table = pq.read_table(seg.path)
        for name in table.column_names:
            if name not in columns and name != "op":
                columns.append(name)
                extra_types[name] = table.schema.field(name).type
        for row in table.to_pylist():
            if upto_lsn is not None and row["lsn"] > upto_lsn:
                continue
            op = "c" if row["op"] == "r" else row["op"]
            if op == "d":
                state.pop(row["doc_id"], None)
            else:
                rec = {k: row.get(k) for k in columns if k != "op"}
                if rec.get("tokens") is not None:
                    rec["n_tok"] = len(rec["tokens"])
                state[row["doc_id"]] = rec
    rows = [state[k] for k in sorted(state)]
    data = {c: [r.get(c) for r in rows] for c in columns}
    fields = [
        pa.field("lsn", pa.int64()),
        pa.field("doc_id", pa.string()),
        pa.field("tokens", pa.list_(pa.int32())),
        pa.field("n_tok", pa.int64()),
        pa.field("source", pa.string()),
    ] + [pa.field(c, extra_types[c]) for c in columns[5:]]
    return pa.table({f.name: pa.array(data[f.name], f.type) for f in fields})


def assert_snapshots_equal(engine: pa.Table, oracle: pa.Table) -> None:
    assert engine.num_rows == oracle.num_rows, (
        f"row count {engine.num_rows} != oracle {oracle.num_rows}"
    )
    assert set(engine.column_names) == set(oracle.column_names), (
        engine.column_names,
        oracle.column_names,
    )
    engine = engine.sort_by([("doc_id", "ascending")]).combine_chunks()
    oracle = oracle.sort_by([("doc_id", "ascending")]).combine_chunks()
    for name in oracle.column_names:
        a = engine.column(name).cast(oracle.column(name).type)
        b = oracle.column(name)
        if not a.equals(b):
            for i in range(len(a)):
                if a[i].as_py() != b[i].as_py():
                    raise AssertionError(
                        f"column {name} row {i} (doc_id="
                        f"{oracle.column('doc_id')[i].as_py()}): "
                        f"{a[i].as_py()!r} != {b[i].as_py()!r}"
                    )
            raise AssertionError(f"column {name} differs (chunking?)")
