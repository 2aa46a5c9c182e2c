"""Point lookups on committed tables: O(touched partitions), never O(table).

The reference serves point SELECTs from ClickHouse, where the table's
``ORDER BY (key)`` primary index prunes granules
(/root/reference/etl/clickhouse_schema/init.sql:13-15). This engine's
equivalent pruning stack, applied per lookup:

1. **Partition routing** — ``pid = H(key) % P`` is the same hash the write
   path uses (stages/partition.py), so each key lives in exactly ONE
   partition: a lookup opens only the partitions its keys route to.
2. **Row-group pruning** — snapshot AND delta files are key-sorted on disk
   (lww_compact emits winners in key order), so the parquet key filter
   skips whole row groups by their min/max stats — the sparse-primary-index
   analog inside each file.
3. **MERGE-on-read on the filtered slice** — the partition's file chain is
   LWW-merged over only the surviving rows (a key's tombstone or newer
   delta version matches the same filter), so lookups are correct mid-chain
   without compaction.

This is deliberately a DRIVER-side path (pure pyarrow, no Ray job): point
lookups are a latency surface — a handful of row-group reads beats a
cluster round-trip. Batches of thousands of keys still group per partition,
so the cost stays O(touched partitions + matching row groups).
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

from ..stages.merge import fold_chain
from ..stages.partition import partition_of
from ..state.manifest import load_manifest


def lookup_keys(
    table_dir: str, keys: list[str], epoch: int | None = None
) -> pa.Table:
    """Current (or time-travelled) committed rows for the given keys, in key
    order. Missing and deleted keys are simply absent from the result."""
    man = load_manifest(table_dir, epoch=epoch)
    if man.spec.get("kind") == "time":
        raise ValueError(
            "lookup_keys routes by key hash; time-partitioned tables are "
            "routed by timestamp — use read_time_range instead"
        )
    if man.mode not in ("upsert", "sum"):
        raise ValueError(
            "lookup_keys needs unique keys (upsert/sum tables); append "
            "tables legally hold duplicate business keys — scan with "
            "read_snapshot"
        )
    # route by the spec's modulus — the WRITE path's routing source
    # (assign_by_spec); init_table pins spec num == num_partitions, but a
    # divergence here must miss loudly-never silently, so use the same field
    num = int(man.spec.get("num", man.num_partitions))
    by_pid: dict[int, list[str]] = {}
    for k in dict.fromkeys(keys):  # de-dup, keep caller order
        by_pid.setdefault(partition_of(k, num), []).append(k)

    out = []
    for pid in sorted(by_pid):
        pkeys = by_pid[pid]
        meta = man.partitions.get(str(pid)) or {}
        files = meta.get("files") or []
        if not files:
            continue
        tables = [
            pq.read_table(
                os.path.join(table_dir, f),
                filters=[(man.key_col, "in", pkeys)],
            )
            for f in files
        ]
        # the filtered slice folds exactly like the full-partition read
        # (every mode's fold is per key)
        out.append(fold_chain(tables, man.schema, man.mode, man.sum_cols))
    if not out:
        return man.schema.empty_table()
    return pa.concat_tables(out).sort_by([(man.key_col, "ascending")])
