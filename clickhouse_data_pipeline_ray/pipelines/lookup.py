"""Point lookups on committed tables: O(touched partitions), never O(table).

The reference serves point SELECTs from ClickHouse, where the table's
``ORDER BY (key)`` primary index prunes granules
(/root/reference/etl/clickhouse_schema/init.sql:13-15). This engine's
equivalent pruning stack, applied per lookup:

1. **Partition routing** — ``pid = H(key) % P`` is the same hash the write
   path uses (stages/partition.py), so each key lives in exactly ONE
   partition: a lookup opens only the partitions its keys route to. All of
   a lookup's keys are hashed in one vectorized call.
2. **Granule pruning** — every part (snapshot AND delta) is written
   key-sorted in row groups of about 256 KiB of Arrow data
   (``stages.merge.write_part``), and each row group's key min/max sits in
   the parquet footer: the sparse-primary-index analog. A lookup reads a
   file's footer (cached per path; parts are write-once under
   writer-unique names, so a cached footer never goes stale), picks the
   row groups whose key range can hold one of the partition's keys and
   decodes only those; a file where no row group qualifies is never read.
   A row group without key statistics counts as a match. Tables written
   before granules have one row group per file: they serve the same
   answers by decoding whole files, until compaction rewrites them.
3. **MERGE-on-read on the filtered slice** — the decoded granules are
   filtered to the partition's keys and the chain is LWW-merged over only
   those rows (a key's tombstone or newer delta version lies in a granule
   whose range holds the key), so lookups are correct mid-chain without
   compaction.

This is deliberately a DRIVER-side path (pure pyarrow, no Ray job): point
lookups are a latency surface — a handful of granule reads beats a
cluster round-trip. Batches of thousands of keys still group per partition,
so the cost stays O(touched partitions + matching granules).
"""

from __future__ import annotations

import bisect
import functools
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..stages.merge import fold_chain, granule_ranges
from ..stages.partition import key_hash
from ..state.manifest import load_manifest


@functools.lru_cache(maxsize=4096)
def _footer(path: str, key_col: str) -> tuple[pq.FileMetaData, list]:
    """A part's footer and its per-row-group key ranges."""
    md = pq.ParquetFile(path).metadata
    return md, granule_ranges(md, key_col)


def _read_granules(path: str, key_col: str, keys: list[str]) -> pa.Table | None:
    """The rows of ``keys`` (sorted) in one part, decoding only the row
    groups whose key range can hold one of them; None when none can."""
    md, ranges = _footer(path, key_col)
    groups = []
    for g, r in enumerate(ranges):
        if r is not None:
            i = bisect.bisect_left(keys, r[0])
            if i == len(keys) or keys[i] > r[1]:
                continue
        groups.append(g)
    if not groups:
        return None
    t = pq.ParquetFile(path, metadata=md).read_row_groups(groups, use_threads=False)
    col = t.column(key_col)
    return t.filter(pc.is_in(col, value_set=pa.array(keys, col.type)))


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
    uniq = sorted(set(keys))
    pids = key_hash(pa.array(uniq, pa.string())) % np.uint64(num)
    by_pid: dict[int, list[str]] = {}
    for k, pid in zip(uniq, pids.tolist()):
        by_pid.setdefault(pid, []).append(k)

    out = []
    for pid in sorted(by_pid):
        meta = man.partitions.get(str(pid)) or {}
        slices = (
            _read_granules(os.path.join(table_dir, f), man.key_col, by_pid[pid])
            for f in meta.get("files") or []
        )
        tables = [t for t in slices if t is not None]
        if tables:
            # the filtered slice folds exactly like the full-partition read
            # (every mode's fold is per key)
            out.append(fold_chain(tables, man.schema, man.mode, man.sum_cols))
    if not out:
        return man.schema.empty_table()
    return pa.concat_tables(out).sort_by([(man.key_col, "ascending")])
