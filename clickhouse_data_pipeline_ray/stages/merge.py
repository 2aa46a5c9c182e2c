"""Last-writer-wins merge: the correctness heart of the engine.

Re-realizes ``ReplacingMergeTree(updated_at) ORDER BY (key)`` semantics
(/root/reference/etl/clickhouse_schema/init.sql:14-15,28-29) as a vectorized
Arrow kernel: per key, the row with the maximum version (LSN) wins; a winning
delete op is a tombstone that removes the key (the reference receives delete
events but drops them, /root/reference/stream_etl/core/processor.py:214-217 —
here they are implemented per the north rule).

LWW is an associative, commutative, idempotent reduction (argmax by LSN per
key), so it can be applied hierarchically: per input batch (pre-compaction
before the shuffle), per (pid, salt) sub-group (skew salting), and finally per
partition against the base snapshot — all yielding the same result as one
global pass. Tests pin this (tests/test_merge_kernel.py, tests/test_salting.py).
"""

from __future__ import annotations

import json
import os
import time
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..schemas import cast_table, schema_from_b64
from ..state.store import fsync_path, part_name, write_file_once

# Transient routing columns added by the partition stage.
ROUTING_COLS = ("pid", "salt")

# Tie-break rank: base-snapshot rows lose to change rows at equal LSN (an
# equal-LSN change is the same write replayed; preferring the change keeps
# re-apply bit-identical). The reference's RMT tie-break is arbitrary
# (init.sql:14); ours is deterministic.
_SRC_BASE = 0
_SRC_CHANGE = 1


# Arrow bytes per row group ("granule") of every written part. Parts are
# key-sorted, so each granule's key min/max in the footer is the sparse
# primary index a point lookup prunes by (pipelines/lookup.py).
GRANULE_BYTES = 256 << 10


def write_part(
    table_dir: str,
    pid: int,
    epoch: int,
    kind: str,
    table: pa.Table,
    compression: str = "zstd",
) -> tuple[str, int]:
    """The worker half of the commit protocol (state/store.py), shared by
    every part writer (MergeApply; CompactWorker, which also runs TTL expiry
    and mutations; SnapshotWriter): write the part ONCE under a fresh
    writer-unique, epoch-stamped name (``O_EXCL`` create, write, fsync — no
    staging file, no rename). The fsync orders the parquet bytes BEFORE the manifest that
    references them: without it a power loss could persist the manifest
    while its parts are still page-cache-only. The part stays invisible
    until a committed manifest names it; a crashed, losing or retried
    writer leaves only unreferenced files for GC, never a changed one.

    Granules: the part is written in row groups of
    ``ceil(num_rows * GRANULE_BYTES / table.nbytes)`` rows, about 256 KiB
    of Arrow data each, whose footer statistics hold each group's key
    min/max (the rows arrive key-sorted, so the ranges do not overlap).
    List payload columns (``tokens``) are written without a dictionary:
    every row group carries its own dictionary, so a dictionary of token
    ids would repeat the vocabulary in every granule. The other columns
    keep theirs.

    Returns (relative path, bytes)."""
    part_dir = os.path.join(table_dir, "parts", f"pid={pid:05d}")
    os.makedirs(part_dir, exist_ok=True)
    rel = os.path.join("parts", f"pid={pid:05d}", part_name(kind, epoch))
    group_rows = max(1, -(-table.num_rows * GRANULE_BYTES // max(1, table.nbytes)))
    dict_cols = [f.name for f in table.schema if not pa.types.is_nested(f.type)]
    size = write_file_once(
        os.path.join(table_dir, rel),
        lambda f: pq.write_table(
            table, f, compression=compression, row_group_size=group_rows,
            use_dictionary=dict_cols,
        ),
    )
    return rel, size


def granule_ranges(md: pq.FileMetaData, col: str) -> list[tuple | None]:
    """Per row group ``(min, max)`` of ``col`` from the footer statistics
    alone (no data page read); ``None`` for a group without them, and for
    every group of a file that has no such column."""
    idx = next(
        (i for i in range(md.num_columns) if md.schema.column(i).path == col),
        None,
    )
    out: list[tuple | None] = []
    for rg in range(md.num_row_groups):
        st = None if idx is None else md.row_group(rg).column(idx).statistics
        out.append((st.min, st.max) if st is not None and st.has_min_max else None)
    return out


def promote_part(table_dir: str, rel: str) -> None:
    """The driver half of the commit protocol: fsync the part's directory,
    so its entry is durable BEFORE the manifest put that references it."""
    fsync_path(os.path.dirname(os.path.join(table_dir, rel)))


def column_zones(table: pa.Table, skip_cols: list[str] | tuple) -> dict:
    """Per-column ``[lo, hi]`` minmax zone over one written part — the
    ClickHouse ``INDEX ... TYPE minmax`` skip-index analog, computed at part
    write time (where ClickHouse computes granule marks at merge time) and
    stored in the manifest so range scans prune files without opening them.

    Rules (the export zone-map lessons, pipelines/export.py:110-121):
    - nulls are skipped (min_max default) and NaNs are dropped explicitly —
      a NaN min/max would poison every overlap test AND json-serialize as a
      nonstandard token;
    - timestamps/dates normalize to int64 microseconds (JSON-safe, readers
      cast bounds the same way);
    - an all-null/all-NaN/empty column gets a ``None`` zone = "no information"
      → always treated as overlapping on read (prunes nothing, never wrong).
    """
    zones: dict = {}
    for c in skip_cols:
        if c not in table.column_names or table.num_rows == 0:
            zones[c] = None
            continue
        col = table.column(c)
        t = col.type
        if pa.types.is_timestamp(t) or pa.types.is_date(t):
            col = col.cast(pa.timestamp("us")).cast(pa.int64())
        elif pa.types.is_floating(t):
            col = col.filter(pc.invert(pc.fill_null(pc.is_nan(col), False)))
        mm = pc.min_max(col)
        lo, hi = mm["min"].as_py(), mm["max"].as_py()
        zones[c] = None if lo is None else [lo, hi]
    return zones


def zone_bound(value, field_type: pa.DataType):
    """Normalize a user predicate bound to its column's zone domain (the
    same mapping column_zones applies to the data)."""
    if value is None:
        return None
    if pa.types.is_timestamp(field_type) or pa.types.is_date(field_type):
        return pa.scalar(value).cast(pa.timestamp("us")).cast(pa.int64()).as_py()
    return value


def _last_wins_mask(keys: pa.Array) -> pa.Array:
    """Boolean mask selecting the last row of each equal-key run.

    ``keys`` must be sorted. Vectorized: row i wins iff keys[i] != keys[i+1].

    Null-safe: ``not_equal`` is null (→ False after cast) whenever either
    side is null, which would silently DROP the last real key's winner
    adjacent to the null run and keep a null-key row. Nulls compare here as
    one ordinary key group: exactly-one-null = different keys (True),
    both-null = same key (False). The CDC path additionally rejects null
    keys loudly at normalize time; this guard protects every other caller
    (dedup's keep-min reduction, user tables)."""
    n = len(keys)
    if n == 0:
        return pa.array([], type=pa.bool_())
    a, b = keys.slice(0, n - 1), keys.slice(1, n - 1)
    neq = pc.fill_null(pc.not_equal(a, b), False)
    one_null = pc.xor(pc.is_null(a), pc.is_null(b))
    mask = np.ones(n, dtype=bool)
    mask[: n - 1] = pc.or_(neq, one_null).to_numpy(zero_copy_only=False)
    return pa.array(mask)


def lww_compact(
    table: pa.Table,
    key: str = "doc_id",
    version: str = "lsn",
    src_rank: str | None = None,
    version_order: str = "max",
) -> pa.Table:
    """Keep, per key, only the max-version row (tombstones retained as rows).
    ``version_order="min"`` flips the winner to the minimum version — the
    keep-smallest-key reduction dedup uses (same payload-aware kernel).

    Used as the per-batch pre-compaction combiner (shrinks update-heavy change
    streams *before* the shuffle — the partial-aggregation pattern) and as the
    per-(pid, salt) sub-group compactor for skew salting.

    Payload-aware: sorts only the (key, version) columns and gathers just the
    winning rows — the wide ``tokens`` payload is never moved for losing
    rows (a full-table sort_by gathers every column; with 2 KB rows that
    dominates the merge CPU). Output rows come out key-sorted.
    """
    if table.num_rows == 0:
        return table
    vdir = "ascending" if version_order == "max" else "descending"
    sort_keys = [(key, "ascending"), (version, vdir)]
    if src_rank is not None:
        sort_keys.append((src_rank, "ascending"))
    idx = pc.sort_indices(
        table.select([k for k, _ in sort_keys]), sort_keys=sort_keys
    )
    keys_sorted = pc.take(table.column(key), idx).combine_chunks()
    mask = _last_wins_mask(keys_sorted)
    winners = pc.filter(idx, mask)
    return table.take(winners)


def sum_compact(
    table: pa.Table,
    key: str = "doc_id",
    sum_cols: list[str] | tuple = (),
    version: str = "lsn",
) -> pa.Table:
    """SummingMergeTree-analog reduction: one row per key, with ``sum_cols``
    summed across the key's rows and every OTHER column taken from the
    max-``version`` row (ClickHouse keeps an arbitrary value for non-summed
    columns, init.sql's SummingMergeTree engine for the kpi views,
    /root/reference/etl/clickhouse_schema/kpi_views.sql:5-8 — ours is
    deterministic: last writer wins).

    Associative and commutative (sums and max both are; LSNs are unique per
    event so the max-version row is unambiguous), so it folds hierarchically
    exactly like :func:`lww_compact`: per batch before the shuffle, per
    (pid, salt) sub-group, and per partition against the base — partial sums
    compose to the same result as one global pass. Output is key-sorted.

    Summed values are cast back to the column's declared type — an overflow
    raises loudly (declare wide-enough measure types at DDL time)."""
    if table.num_rows == 0:
        return table
    sum_cols = [c for c in sum_cols if c in table.column_names]
    if not sum_cols:
        return lww_compact(table, key=key, version=version)
    # non-sum columns: payload-aware LWW (key-sorted winners, losers' payload
    # never gathered); sum columns: one vectorized hash aggregation
    winners = lww_compact(
        table.drop_columns(sum_cols), key=key, version=version
    )
    sums = (
        table.select([key] + sum_cols)
        .group_by(key)
        .aggregate([(c, "sum") for c in sum_cols])
        .sort_by([(key, "ascending")])
    )
    if sums.num_rows != winners.num_rows:  # pragma: no cover - invariant
        raise AssertionError(
            f"sum_compact key mismatch: {sums.num_rows} summed keys vs "
            f"{winners.num_rows} LWW winners"
        )
    cols = {}
    for name in table.column_names:
        if name in sum_cols:
            cols[name] = sums.column(f"{name}_sum").cast(
                table.schema.field(name).type
            )
        else:
            cols[name] = winners.column(name)
    return pa.table(cols)


def collapse_winner_mask(
    table: pa.Table, sign_col: str = "sign", version: str = "lsn"
) -> pa.Array:
    """Rows that are collapse winner candidates: ``sign > 0`` with a
    non-null version (state rows; cancel and adjustment rows never are)."""
    sign = table.column(sign_col)
    return pc.and_(
        pc.fill_null(pc.greater(sign, pa.scalar(0).cast(sign.type)), False),
        pc.is_valid(table.column(version)),
    )


def collapse_compact(
    table: pa.Table,
    key: str = "doc_id",
    sign_col: str = "sign",
    version: str = "lsn",
) -> pa.Table:
    """CollapsingMergeTree-analog reduction to a MERGEABLE partial state.

    Raw change rows carry ``sign`` ∈ {+1 (state), −1 (cancel)}; the key's
    truth is ``net = Σ sign`` (alive iff net > 0) with payload from the
    max-version STATE row. The partial encoding makes that fold associative
    under ARBITRARY row splits (batches split a key's events randomly, so
    epoch-ordered folds are not enough):

    - *winner row*: max-``version`` row among ``sign > 0 ∧ version non-null``
      rows — raw +1 rows and prior winner rows both qualify; cancel rows and
      adjustment rows (null version) never do. Emitted with
      ``sign = net`` when net > 0 (the common, single-row case) or
      ``sign = 1`` when the key is currently net-cancelled (the winner must
      survive the fold: a batch split can put the latest state in a
      net-≤0 fragment — see test_collapse_hierarchical_arbitrary_splits).
    - *adjustment row* (only when needed): null payload, ``sign = net − 1``
      beside a cancelled winner, or ``sign = net`` for a key with no state
      row yet — always ≤ −1 (a winnerless key's net is strictly negative),
      so adjustment rows are never winner candidates. Their ``version`` is
      the key's max version in the fold (a REAL value: watermark re-filters
      must pass these rows — a null version would silently drop the cancel
      balance at the merge's idempotency filter).

    Σ sign over the emitted rows always equals the key's true net, and
    re-folding emitted rows reproduces them — associative, commutative,
    idempotent-under-refold, exactly like the LWW and sum kernels. A key
    whose net is 0 with no winner disappears entirely; a cancelled key keeps
    at most 2 thin rows until TTL/mutation removes them (ClickHouse's
    collapsing merges keep residual rows in the uneven cases too).
    Final user-facing reads apply :func:`collapse_finalize`.
    """
    if table.num_rows == 0:
        return table
    import pandas as pd

    winners = lww_compact(
        table.filter(collapse_winner_mask(table, sign_col, version))
        .drop_columns([sign_col]),
        key=key,
        version=version,
    )  # key-sorted, one row per key-with-state
    nets = (
        table.select([key, sign_col, version])
        .group_by(key)
        .aggregate([(sign_col, "sum"), (version, "max")])
        .sort_by([(key, "ascending")])
    )
    net_keys = nets.column(key)
    net = nets.column(f"{sign_col}_sum").to_numpy(zero_copy_only=False)
    max_ver = nets.column(f"{version}_max")
    w_idx = pd.Index(winners.column(key).to_pandas()).get_indexer(
        net_keys.to_pandas()
    )
    has_w = w_idx >= 0
    sign_type = table.schema.field(sign_col).type

    out_parts = []
    if has_w.any():
        w_take = winners.take(pa.array(w_idx[has_w]))
        w_net = net[has_w]
        # alive keys carry their whole net on the winner row; cancelled
        # winners keep sign=1 and push the balance to an adjustment row
        w_sign = np.where(w_net > 0, w_net, 1)
        w_take = w_take.append_column(
            sign_col, pa.array(w_sign).cast(sign_type)
        )
        out_parts.append(w_take.select(table.column_names))
    # adjustment rows: cancelled winners (net-1) + winnerless keys (net)
    adj_w = has_w & (net <= 0)
    adj_n = (~has_w) & (net != 0)
    adj_keys = pa.concat_arrays(
        [
            net_keys.filter(pa.array(adj_w)).combine_chunks(),
            net_keys.filter(pa.array(adj_n)).combine_chunks(),
        ]
    )
    if len(adj_keys):
        adj_sign = np.concatenate([net[adj_w] - 1, net[adj_n]])
        adj_ver = pa.concat_arrays(
            [
                max_ver.filter(pa.array(adj_w)).combine_chunks(),
                max_ver.filter(pa.array(adj_n)).combine_chunks(),
            ]
        )
        n_adj = len(adj_keys)
        cols = {}
        for name in table.column_names:
            if name == key:
                cols[name] = adj_keys
            elif name == sign_col:
                cols[name] = pa.array(adj_sign).cast(sign_type)
            elif name == version:
                cols[name] = adj_ver
            else:
                cols[name] = pa.nulls(n_adj, table.schema.field(name).type)
        out_parts.append(pa.table(cols))
    if not out_parts:
        return table.schema.empty_table()
    out = pa.concat_tables(out_parts, promote_options="none")
    # deterministic bytes: key order, winner row before its adjustment row
    # (null version sorts after real versions)
    return out.sort_by([(key, "ascending"), (version, "ascending")])


def collapse_finalize(
    table: pa.Table,
    key: str = "doc_id",
    sign_col: str = "sign",
    version: str = "lsn",
) -> pa.Table:
    """Partial state → user-facing snapshot: keys with net > 0 only, one
    winner row each (its ``sign`` already holds the net). Assumes ``table``
    is collapse_compact output (≤2 rows per key)."""
    if table.num_rows == 0:
        return table
    import pandas as pd

    nets = (
        table.select([key, sign_col]).group_by(key).aggregate([(sign_col, "sum")])
    )
    alive = nets.filter(
        pc.greater(nets.column(f"{sign_col}_sum"), pa.scalar(0))
    ).column(key)
    winners = table.filter(collapse_winner_mask(table, sign_col, version))
    keep = pc.is_in(winners.column(key), value_set=alive.combine_chunks())
    return winners.filter(keep)


def merge_file_tables(
    tables: list[pa.Table],
    snapshot_schema: pa.Schema,
    drop_tombstones: bool = True,
) -> pa.Table:
    """LWW-merge a partition's file chain (base snapshot + delta files).

    ``tables`` must be in commit order (oldest first). Snapshot files carry no
    ``op`` column (implicitly all-alive, op='c'); delta files keep ``op`` so
    their tombstones participate. Winner per key = max (lsn, file rank). This
    is the MERGE-on-read kernel (the read-time half of ReplacingMergeTree
    semantics, /root/reference/etl/clickhouse_schema/init.sql:14-15): the
    write path appends O(changes) deltas and reads reconstruct the merged
    state, so per-epoch write cost never scales with table size.
    """
    parts = []
    for rank, t in enumerate(tables):
        if t.num_rows == 0:
            continue
        has_op = "op" in t.column_names
        op = t.column("op") if has_op else None
        t = cast_table(t, snapshot_schema)
        n = t.num_rows
        if op is None:
            op = pa.nulls(n, pa.string()).fill_null("c")
        t = t.append_column("op", op.cast(pa.string()) if op.type != pa.string() else op)
        # int32: a delta chain can legally exceed 127 files (the CLI accepts
        # any --compact-threshold), and int8 fill_null would raise there.
        t = t.append_column("_src", pa.nulls(n, pa.int32()).fill_null(rank))
        parts.append(t)
    if not parts:
        return snapshot_schema.empty_table()
    combined = pa.concat_tables(parts, promote_options="none")
    winners = lww_compact(combined, src_rank="_src")
    if drop_tombstones:
        winners = winners.filter(pc.not_equal(winners.column("op"), pa.scalar("d")))
        return cast_table(winners, snapshot_schema)
    op = winners.column("op")
    return cast_table(winners, snapshot_schema).append_column("op", op)


def merge_base_and_changes(
    base: pa.Table | None,
    changes: pa.Table,
    snapshot_schema: pa.Schema,
) -> pa.Table:
    """MERGE: base snapshot ⊔ change rows → new snapshot (tombstones dropped).

    ``base`` rows carry the LSN of their last writer (stored in the snapshot),
    so re-merging is a pure LWW reduction. ``changes`` must have an ``op``
    column; the result conforms to ``snapshot_schema`` and is key-sorted for
    deterministic output files (exactly-once re-runs produce identical bytes).

    Thin wrapper over :func:`merge_file_tables` — there is ONE LWW merge
    kernel in the engine, so the semantics the tests pin here are exactly the
    semantics the shipped apply/compact path runs (a base snapshot carries no
    ``op`` column → implicit all-alive at rank 0; the change table keeps
    ``op`` at rank 1, the equal-LSN tie-break the kernel defines).
    """
    changes = changes.drop_columns(
        [c for c in ROUTING_COLS if c in changes.column_names]
    )
    tables = [base] if base is not None else []
    return merge_file_tables(tables + [changes], snapshot_schema)


def reduce_changes(
    rows: pa.Table, mode: str, sum_cols: list[str] | tuple = ()
) -> pa.Table:
    """The table mode's change-reduce rule: a batch of change rows → the
    mode's mergeable partial, key-sorted. Upsert keeps each key's LWW
    winner (tombstones kept as rows), sum its partial sum, collapse its
    partial state (:func:`collapse_compact`); append rows are immutable and
    only ordered by lsn (deterministic part bytes).

    Every rule is associative, so normalize's per-batch pre-compaction, the
    salted L1 per (pid, salt) and MergeApply's per-partition pass all call
    this one function and compose to one global pass.

    Routing columns ride along: they are a function of the key. Collapse
    adjustment rows null every non-key column, so their ``pid``/``salt``
    are copied back from the key's first input row."""
    if mode == "upsert":
        return lww_compact(rows)
    if mode == "sum":
        return sum_compact(rows, sum_cols=sum_cols)
    if mode == "collapse":
        routing = [c for c in ROUTING_COLS if c in rows.column_names]
        out = collapse_compact(rows.drop_columns(routing))
        if routing:
            first = pc.index_in(
                out.column("doc_id"), value_set=rows.column("doc_id")
            )
            for c in routing:
                out = out.append_column(c, rows.column(c).take(first))
        return out
    return rows.sort_by([("lsn", "ascending")])


def fold_chain(
    tables: list[pa.Table],
    snapshot_schema: pa.Schema,
    mode: str = "upsert",
    sum_cols: list[str] | tuple = (),
) -> pa.Table:
    """The table mode's chain-fold rule: one partition's file tables
    (commit order, oldest first) → its merged state, cast to
    ``snapshot_schema``. Every reader and writer of a chain folds through
    here: ``read_partition``, MergeApply's compaction, point lookups.

    - upsert: LWW over the chain (:func:`merge_file_tables`); a single
      clean snapshot (no ``op`` column) needs only a cast;
    - append: a plain concat — duplicate business keys are legal facts;
    - sum / collapse: concat + the mode's reduce, valid in any order
      because partials compose. Sum's non-sum columns resolve to the
      max-LSN contribution (deltas are strictly newer than the base by the
      watermark filter — no ties). Collapse returns PARTIAL state
      (residual cancel balances kept); user reads finalize.

    Any committed sum/collapse/append part is already in the mode's
    reduced form, so a one-part chain is returned as is."""
    if mode == "upsert":
        if len(tables) == 1 and "op" not in tables[0].column_names:
            return cast_table(tables[0], snapshot_schema)
        return merge_file_tables(tables, snapshot_schema)
    parts = [cast_table(t, snapshot_schema) for t in tables if t.num_rows]
    if not parts:
        return snapshot_schema.empty_table()
    if len(parts) == 1:
        return parts[0]
    combined = pa.concat_tables(parts, promote_options="none")
    if mode == "sum":
        return sum_compact(combined, sum_cols=sum_cols)
    if mode == "collapse":
        return collapse_compact(combined)
    return combined


def _stats_row(
    pid: int,
    rows: int,
    exact: bool,
    nbytes: int,
    applied: int,
    deletes: int,
    max_lsn: int,
    new_file: str,
    files: list[str],
    merge_s: float,
    max_event_ts_us: int | None = None,
    late_events: int = 0,
    zones_json: str = "",
) -> pa.Table:
    return pa.table(
        {
            "pid": pa.array([pid], pa.int32()),
            "rows": pa.array([rows], pa.int64()),
            "exact": pa.array([exact], pa.bool_()),
            "bytes": pa.array([nbytes], pa.int64()),
            "applied": pa.array([applied], pa.int64()),
            "deletes": pa.array([deletes], pa.int64()),
            "max_lsn": pa.array([max_lsn], pa.int64()),
            "new_file": pa.array([new_file], pa.string()),
            "files_json": pa.array([json.dumps(files)], pa.string()),
            "merge_s": pa.array([time.perf_counter() - merge_s], pa.float64()),
            # event-time partials (None/0 when the table has no event-time
            # column): combined on the driver into the epoch's event-time
            # watermark advance + late-arrival count.
            "max_event_ts_us": pa.array([max_event_ts_us], pa.int64()),
            "late_events": pa.array([late_events], pa.int64()),
            # skip-index partial: {rel_file: {col: [lo, hi] | None}} for the
            # file(s) THIS call wrote ("" when no skip_cols / no new file).
            # The driver folds it into partitions[pid]["zones"] at commit.
            "zones_json": pa.array([zones_json], pa.string()),
        }
    )


def merge_needed_columns(
    snapshot_schema: pa.Schema,
    columns: list[str] | None,
    mode: str,
    key_col: str = "doc_id",
) -> tuple[pa.Schema, list[str]] | tuple[None, None]:
    """Column pushdown for merge-on-read: the physical columns a pruned
    partition read must fetch = the requested ``columns`` plus whatever the
    mode's merge kernel keys on (key + lsn for LWW/sum/collapse, + sign for
    collapse; append folds nothing). Returns (pruned snapshot schema in
    declared order, physical column list), or (None, None) for a full read.
    At the 100-TB design point this is the difference between moving the
    wide ``tokens`` payload for a 2-column scan and not."""
    if columns is None:
        return None, None
    need = set(columns)
    if mode in ("upsert", "sum"):
        need |= {key_col, "lsn"}
    elif mode == "collapse":
        need |= {key_col, "lsn", "sign"}
    missing = need - set(snapshot_schema.names)
    if missing:
        raise ValueError(
            f"columns {sorted(missing)} not in table schema "
            f"{list(snapshot_schema.names)}"
        )
    sub = pa.schema([f for f in snapshot_schema if f.name in need])
    return sub, list(sub.names)


def read_part(
    path: str, columns: list[str] | None = None, row_groups=None
) -> pa.Table:
    """The one reader of Parquet table parts and WAL segments: the file, or
    only its ``row_groups``, through ``ParquetFile`` on the calling thread.
    ``pq.read_table`` goes through the dataset layer, about 1 ms per file,
    and a scan task or a chain fold reads many small files; the read, scan
    and maintenance tasks already run about one per CPU. ``columns`` keeps
    the requested columns the file has: delta parts carry ``op`` and
    snapshots do not, and a WAL segment from before a schema evolution
    lacks the new columns (the caller null-fills them)."""
    with pq.ParquetFile(path) as pf:
        if columns is not None:
            names = set(pf.schema_arrow.names)
            columns = [c for c in columns if c in names]
        if row_groups is None:
            return pf.read(columns=columns, use_threads=False)
        return pf.read_row_groups(row_groups, columns=columns, use_threads=False)


def read_partition(
    table_dir: str,
    files: list[str],
    snapshot_schema: pa.Schema,
    mode: str = "upsert",
    sum_cols: list[str] | tuple = (),
    columns: list[str] | None = None,
) -> pa.Table:
    """Reconstruct one partition's merged state from its file chain: read
    every file, then :func:`fold_chain` for the table's mode (collapse
    state stays PARTIAL — see :func:`read_partition_final`).

    ``columns`` pushes projection into the parquet reads: only the requested
    columns plus the mode's merge keys leave storage (see
    :func:`merge_needed_columns`); the result still contains the merge keys
    — callers select the final projection."""
    phys = None
    if columns is not None:
        snapshot_schema, phys = merge_needed_columns(
            snapshot_schema, columns, mode
        )
    # ``op`` is always fetched where present: the merge kernel needs
    # tombstones regardless of the projection
    want = None if phys is None else phys + ["op"]
    tables = [read_part(os.path.join(table_dir, f), want) for f in files]
    return fold_chain(tables, snapshot_schema, mode, sum_cols)


def read_partition_final(
    table_dir: str,
    files: list[str],
    snapshot_schema: pa.Schema,
    mode: str = "upsert",
    sum_cols: list[str] | tuple = (),
    columns: list[str] | None = None,
) -> pa.Table:
    """:func:`read_partition` + user-facing finalize: collapse tables return
    alive winners only (the partial winner+adjustment encoding stripped).
    Every OTHER mode's merged state is
    already final. Artifact derivers / snapshot scorers must read through
    this, never raw :func:`read_partition` — counting a cancelled key's
    winner row or a null-payload adjustment row would poison derived counts
    (token indexes, classifier/LM/BPE partials, quality scores, MV partials,
    ANN vectors)."""
    t = read_partition(table_dir, files, snapshot_schema, mode, sum_cols, columns)
    if mode == "collapse":
        t = collapse_finalize(t)
    return t


def make_partition_reader(
    table_dir: str,
    snapshot_schema_b64: str,
    files_by_pid: dict[str, list[str]],
    mode: str = "upsert",
    sum_cols: list[str] | tuple = (),
    columns: list[str] | None = None,
):
    """MERGE-on-read fn of the partition runner: ``read_pids(pids)`` is the
    merged state of those partitions, concatenated in the order given.
    ``columns`` pushes projection into the parquet reads (merge keys are
    fetched as needed and dropped again — the result holds exactly the
    requested columns)."""

    def read_pids(pids: list[int]) -> pa.Table:
        schema = schema_from_b64(snapshot_schema_b64)
        out = []
        for pid in pids:
            files = files_by_pid.get(str(pid)) or []
            if files:
                t = read_partition_final(
                    table_dir, files, schema, mode, sum_cols, columns
                )
                if columns is not None:
                    t = t.select(columns)
                out.append(t)
        if not out:
            if columns is not None:
                return pa.schema(
                    [schema.field(c) for c in columns]
                ).empty_table()
            return schema.empty_table()
        return pa.concat_tables(out)

    return read_pids


def _zones_json(rel: str, table: pa.Table, skip_cols: list[str]) -> str:
    """Skip-index partial for one written part ("" when the table declares
    no skip cols — the stats row stays empty, zero overhead)."""
    if not skip_cols:
        return ""
    return json.dumps({rel: column_zones(table, skip_cols)})


class MergeApply:
    """Stateful merge worker: applies one partition's change group per call.

    The kernel of both apply paths: ``pipelines.apply.merge_by_pid`` splits
    an epoch's change rows by pid and calls one instance on each group —
    driver-side on a micro-epoch, inside the session-long merge actors on a
    distributed one (the Ray analog of the reference's long-lived loader
    with its DB connection + watermark, the reference's
    etl/core/db.py:113-115 and etl/core/pipeline.py:197-202). Per-partition
    state (base-file paths, watermarks, target schema) is resolved once per
    epoch in ``__init__``; each ``__call__`` handles one pid group.

    One flow for every table mode: watermark filter → :func:`reduce_changes`
    → either EXTEND the chain or FOLD it (an upsert fold skips the separate
    reduce: its LWW pass over chain + changes is that reduce).

    - extend (the scale path): write the reduced rows as one
      ``delta-{epoch}.parquet`` (upsert deltas keep ``op`` and their
      tombstones) or, on append tables, one ``append-{epoch}.parquet``.
      Per-epoch write cost is O(changes), never O(table) — at the
      10^10-event design point a partition's base may be tens of GB while an
      epoch touches a few MB of it.
    - fold: once the chain would reach the partition's compact threshold,
      :func:`fold_chain` the old chain + reduced rows into one clean
      ``snapshot-{epoch}.parquet`` (``append-`` on append tables), bounding
      read amplification LSM-style. A keyed partition's first write is its
      snapshot directly (deltas only pay off once a base exists), and
      ``compact_threshold=1`` folds on every epoch (MERGE-on-write).

    Output files are written once under writer-unique names (``write_part``)
    and become visible only when the driver commits a manifest naming them,
    after *all* partitions succeed (exactly-once: a crashed epoch leaves no
    visible state; re-running writes fresh files).
    """

    def __init__(
        self,
        table_dir: str,
        epoch: int,
        partitions: dict[str, dict],
        snapshot_schema_b64: str,
        compact_threshold: int = 8,
        mode: str = "upsert",
        default_watermark: int = 0,
        event_time_col: str = "",
        event_time_watermark_us: int | None = None,
        allowed_lateness_us: int = 0,
        sum_cols: list[str] | tuple = (),
        skip_cols: list[str] | tuple = (),
    ):
        self.table_dir = table_dir
        self.epoch = epoch
        self.partitions = partitions
        self.snapshot_schema = schema_from_b64(snapshot_schema_b64)
        self.compact_threshold = compact_threshold
        self.mode = mode
        self.sum_cols = list(sum_cols)
        self.skip_cols = list(skip_cols)
        # watermark for partitions the manifest hasn't seen yet (dynamic
        # time partitions): the table-level committed floor.
        self.default_watermark = default_watermark
        # event-time watermark accounting (late-data metrics): the committed
        # table-level event-time high-water mark as of the PREVIOUS epoch; an
        # event this epoch is "late" if its event time is more than
        # allowed_lateness behind it. Disabled when the col is "".
        self.event_time_col = event_time_col
        self.event_time_watermark_us = event_time_watermark_us
        self.allowed_lateness_us = allowed_lateness_us

    def _threshold(self, pid) -> int:
        """Effective compact threshold for one partition: the configured value
        minus a deterministic per-pid jitter, bounded to (T/2, T].

        Partitions that fill at the same rate (uniform key hashing does
        exactly that) would otherwise all hit the threshold in the SAME
        epoch and compact together — a synchronized ~T× latency spike every
        T epochs on the micro-batch path. Downward jitter keeps the
        configured threshold as a hard chain-length bound (the documented
        invariant tests pin) while spreading compaction epochs across
        partitions. crc32 keeps it stable across processes, so a crashed
        epoch re-runs with the same compaction decisions."""
        span = self.compact_threshold // 2
        if span <= 0:
            return self.compact_threshold
        return self.compact_threshold - (zlib.crc32(str(pid).encode()) % span)

    def _event_time_partials(self, changes: pa.Table) -> tuple[int | None, int]:
        """(max event-time us, late-event count) for one change group."""
        col = self.event_time_col
        if not col or col not in changes.column_names or changes.num_rows == 0:
            return None, 0
        ts = changes.column(col).cast(pa.timestamp("us")).cast(pa.int64())
        ev_max = pc.max(ts).as_py()
        if self.event_time_watermark_us is None:
            return ev_max, 0
        bound = self.event_time_watermark_us - self.allowed_lateness_us
        late = pc.sum(pc.less(ts, pa.scalar(bound)).cast(pa.int64())).as_py() or 0
        return ev_max, int(late)

    def _write(self, table: pa.Table, pid: int, kind: str) -> tuple[str, int]:
        # zstd for long-lived snapshots, lz4 for short-lived deltas (cheaper
        # to write; they are rewritten away at the next compaction anyway).
        comp = "lz4" if kind == "delta" else "zstd"
        return write_part(self.table_dir, pid, self.epoch, kind, table, comp)

    def __call__(self, group: pa.Table) -> pa.Table:
        t0 = time.perf_counter()
        pid = group.column("pid")[0].as_py()
        meta = self.partitions.get(str(pid)) or {
            "watermark_lsn": self.default_watermark,
            "rows": 0,
            "bytes": 0,
            "files": [],
        }
        watermark = int(meta["watermark_lsn"])
        old_files = list(meta.get("files") or [])
        old_rows, old_bytes = int(meta.get("rows", 0)), int(meta.get("bytes", 0))

        # Idempotent re-apply: skip events at or below this partition's
        # committed watermark (the manifest is the single source of truth,
        # unlike the reference's in-memory last_sync, pipeline.py:197-202).
        changes = group.filter(pc.greater(group.column("lsn"), pa.scalar(watermark)))
        n_applied = changes.num_rows
        if n_applied == 0:
            return _stats_row(
                pid, old_rows, bool(meta.get("exact_rows", True)), old_bytes,
                0, 0, watermark, "", old_files, t0,
            )
        op = changes.column("op")
        n_del = pc.sum(pc.equal(op, pa.scalar("d")).cast(pa.int64())).as_py() or 0
        max_lsn = int(pc.max(changes.column("lsn")).as_py())
        ev_max, ev_late = self._event_time_partials(changes)

        # routing columns and (outside upsert, where only inserts are legal)
        # op fall away in the cast; upsert deltas keep op for tombstones
        rows = cast_table(changes, self.snapshot_schema)
        if self.mode == "upsert":
            rows = rows.append_column("op", op.cast(pa.string()))

        # extend until the chain would reach this pid's threshold; a keyed
        # partition's first write folds (deltas need a base to pay off)
        append = self.mode == "append"
        extend = (old_files or append) and len(old_files) + 1 < self._threshold(pid)
        if extend or self.mode != "upsert":
            # the upsert fold is itself an LWW pass over chain + changes:
            # reducing its changes first would gather every wide winner row
            # twice
            rows = reduce_changes(rows, self.mode, self.sum_cols)
        if extend:
            rel, nbytes = self._write(rows, pid, "append" if append else "delta")
            # rows is exact for append chains and stale (last exact value)
            # while deltas are pending; bytes covers the whole live chain
            return _stats_row(
                pid, old_rows + n_applied if append else old_rows, append,
                old_bytes + nbytes, n_applied, n_del, max_lsn, rel,
                old_files + [rel], t0, ev_max, ev_late,
                _zones_json(rel, rows, self.skip_cols),
            )
        chain = [read_part(os.path.join(self.table_dir, f)) for f in old_files]
        merged = fold_chain(
            chain + [rows], self.snapshot_schema, self.mode, self.sum_cols
        )
        rel, nbytes = self._write(merged, pid, "append" if append else "snapshot")
        return _stats_row(
            pid, merged.num_rows, True, nbytes, n_applied, n_del, max_lsn,
            rel, [rel], t0, ev_max, ev_late,
            _zones_json(rel, merged, self.skip_cols),
        )


class CompactWorker:
    """The one per-partition rewrite worker behind every maintenance pass:
    fold a partition's chain (:func:`read_partition`), optionally rewrite
    its rows, and write the result as one clean part (``snapshot-``, or
    ``append-`` on append tables). Each call takes a list of pids and
    returns their stats rows; it runs driver-side for small passes, else on
    the partition runner's tasks. Same write-once + manifest-put commit
    protocol as MergeApply.

    - ``rewrite=None`` is major compaction (a manual ``OPTIMIZE TABLE ...
      FINAL`` on a ReplacingMergeTree): the folded state is written as is.
    - ``rewrite(rows) -> (rows, n_updated, n_deleted) | None`` is a TTL
      expiry or predicate mutation (see ``pipelines.apply``); ``None``
      leaves the partition's chain untouched (``new_file=""``), so a pass
      that matches nothing in a partition costs reads, never writes."""

    def __init__(
        self,
        table_dir: str,
        epoch: int,
        partitions: dict[str, dict],
        snapshot_schema_b64: str,
        mode: str = "upsert",
        sum_cols: list[str] | tuple = (),
        skip_cols: list[str] | tuple = (),
        rewrite=None,
    ):
        self.table_dir = table_dir
        self.epoch = epoch
        self.partitions = partitions
        self.snapshot_schema = schema_from_b64(snapshot_schema_b64)
        self.mode = mode
        self.sum_cols = list(sum_cols)
        self.skip_cols = list(skip_cols)
        self.rewrite = rewrite

    def __call__(self, pids: list[int]) -> pa.Table:
        out = []
        kind = "append" if self.mode == "append" else "snapshot"
        for pid in pids:
            t0 = time.perf_counter()
            meta = self.partitions[str(pid)]
            files = list(meta.get("files") or [])
            watermark = int(meta["watermark_lsn"])
            # doc_id-sorted for keyed modes, lsn order for append chains —
            # deterministic either way
            rows = read_partition(
                self.table_dir, files, self.snapshot_schema, self.mode,
                self.sum_cols,
            )
            n_upd = n_del = 0
            if self.rewrite is not None:
                res = self.rewrite(rows)
                if res is None:
                    out.append(_stats_row(
                        pid, int(meta.get("rows", 0)),
                        bool(meta.get("exact_rows", True)),
                        int(meta.get("bytes", 0)), 0, 0, watermark, "", files,
                        t0,
                    ))
                    continue
                rows, n_upd, n_del = res
            rel, nbytes = write_part(self.table_dir, pid, self.epoch, kind, rows)
            out.append(_stats_row(
                pid, rows.num_rows, True, nbytes, n_upd, n_del, watermark,
                rel, [rel], t0,
                zones_json=_zones_json(rel, rows, self.skip_cols),
            ))
        return pa.concat_tables(out)


class SnapshotWriter:
    """Write one pid group of already-merged snapshot rows as a clean
    snapshot file: the merge class of an import or repartition epoch, whose
    rows arrive routed from read tasks rather than from a file chain. Same
    write-once commit protocol. With ``check_unique`` a key that occurs
    twice in the group raises ``ValueError`` (the caller commits nothing)."""

    def __init__(
        self,
        table_dir: str,
        epoch: int,
        snapshot_schema_b64: str,
        check_unique: bool = False,
        skip_cols: list[str] | tuple = (),
    ):
        self.table_dir = table_dir
        self.epoch = epoch
        self.snapshot_schema = schema_from_b64(snapshot_schema_b64)
        self.check_unique = check_unique
        self.skip_cols = list(skip_cols)

    def __call__(self, group: pa.Table) -> pa.Table:
        t0 = time.perf_counter()
        pid = group.column("pid")[0].as_py()
        rows = group.drop_columns(
            [c for c in ROUTING_COLS if c in group.column_names]
        )
        rows = cast_table(rows, self.snapshot_schema).sort_by(
            [("doc_id", "ascending")]
        )
        if self.check_unique and rows.num_rows > 1:
            # Bulk import has no LSN order to break ties with, so duplicate
            # keys would silently produce a non-unique "clean" snapshot:
            # adjacent-equal on the sorted keys finds them
            keys = rows.column("doc_id").combine_chunks()
            n = len(keys)
            dup = pc.equal(keys.slice(0, n - 1), keys.slice(1, n - 1))
            if pc.any(dup).as_py():
                sample = pc.filter(keys.slice(0, n - 1), dup).slice(0, 5).to_pylist()
                raise ValueError(
                    f"import: duplicate key(s) in corpus (e.g. {sample}); "
                    f"deduplicate before import"
                )
        rel, nbytes = write_part(
            self.table_dir, pid, self.epoch, "snapshot", rows
        )
        return _stats_row(
            pid, rows.num_rows, True, nbytes,
            rows.num_rows, 0, 0, rel, [rel], t0,
            zones_json=_zones_json(rel, rows, self.skip_cols),
        )
