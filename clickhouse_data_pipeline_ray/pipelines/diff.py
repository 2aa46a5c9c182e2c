"""CDC-out: emit the change stream between two committed table epochs.

The reference CONSUMES CDC (Debezium → Kafka → ClickHouse,
/root/reference/stream_etl/core/consumer.py); a lake engine should also
PRODUCE it — downstream consumers (cache invalidation, search indexing,
replica sync) want "what changed between epoch A and epoch B", not a full
re-scan. Time travel already retains historical manifests
(state/manifest.py); the diff derives the change stream from two of them.

Scale shape (the whole point at 10^10 rows):

- **Manifest-level pruning**: a partition whose file chain is IDENTICAL in
  both manifests cannot have changed — skipped without opening a file. For
  adjacent epochs that's most of the table (an epoch touches the partitions
  its events hash to), so the diff is O(changed partitions), not O(table).
- **Per-partition vectorized key diff**: changed partitions reconstruct
  both states (the same MERGE-on-read path and partition runner as
  read_snapshot, no shuffle) and diff them with two
  ``pc.index_in`` passes on the key column — rows only in the new state are
  creates, key matches with a different version LSN are updates, keys only
  in the old state are deletes. LSN comparison IS the value comparison: a
  committed row's lsn changes iff the row was rewritten.
- **Append-mode fast path**: immutable rows mean the diff is exactly the
  new rows — one vectorized ``lsn > old watermark`` filter, no key join.

Output rows are the snapshot schema plus ``op`` ('c'|'u'|'d'), i.e. the
engine's own change-event format: a diff can be re-applied as a WAL (the
round-trip property pinned by tests/test_diff.py).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..schemas import cast_table
from ..stages.merge import read_partition_final
from ..state.manifest import load_manifest


def _diff_partition(
    old: pa.Table, new: pa.Table, key_col: str, delete_lsn: int
) -> pa.Table:
    """Vectorized three-way diff of one partition's merged states (upsert
    mode: keys unique per side; both sides already cast to one schema).

    Deletes are stamped with ``delete_lsn`` (the to-epoch watermark), NOT
    the vanished row's old LSN: the old LSN is ≤ the from-epoch watermark,
    so a replica standing at the from-epoch would silently drop every
    delete at its ``lsn > watermark`` ingest filter — breaking the
    "re-apply the diff as a WAL" contract for exactly the rows that matter."""
    ok, nk = old.column(key_col), new.column(key_col)
    # new side → creates / updates
    pos_in_old = pc.index_in(nk, ok)
    is_create = pc.is_null(pos_in_old)
    old_lsn_for_new = pc.take(old.column("lsn"), pos_in_old)
    is_update = pc.and_not(
        pc.not_equal(new.column("lsn"), pc.fill_null(old_lsn_for_new, -1)),
        is_create,
    )
    creates = new.filter(is_create)
    updates = new.filter(pc.fill_null(is_update, False))
    # old side → deletes (key vanished), re-stamped past the old watermark
    gone = pc.is_null(pc.index_in(ok, nk))
    deletes = old.filter(gone)
    deletes = deletes.set_column(
        deletes.schema.get_field_index("lsn"),
        "lsn",
        pa.nulls(deletes.num_rows, pa.int64()).fill_null(delete_lsn),
    )

    def with_op(t: pa.Table, op: str) -> pa.Table:
        return t.append_column(
            "op", pa.nulls(t.num_rows, pa.string()).fill_null(op)
        )

    return pa.concat_tables(
        [with_op(creates, "c"), with_op(updates, "u"), with_op(deletes, "d")]
    )


def changed_partitions(
    table_dir: str, from_epoch: int, to_epoch: int | None = None
) -> list[dict]:
    """The diff's manifest-level plan: partitions whose file chains differ
    between the two retained epochs (everything else is provably unchanged
    and never opened). Exposed separately so callers/tests can see how much
    of the table a diff will actually touch."""
    man_old = load_manifest(table_dir, epoch=from_epoch)
    man_new = load_manifest(
        table_dir, epoch=None if to_epoch is None else to_epoch
    )
    if man_new.epoch < man_old.epoch:
        raise ValueError(
            f"to_epoch {man_new.epoch} precedes from_epoch {man_old.epoch} — "
            "reverse diffs are not defined (swap the arguments)"
        )
    if (
        man_old.num_partitions != man_new.num_partitions
        or man_old.partition_spec != man_new.partition_spec
    ):
        # a diff across a repartition would emit a spurious equal-LSN c/d
        # pair for every MOVED key (a key's pid changes, so it looks gone
        # from one partition and new in another) — violating the
        # one-net-change-per-key property consumers rely on. Diff each side
        # of the repartition separately instead.
        raise ValueError(
            "partition layout changed between the two epochs "
            f"({man_old.num_partitions}/{man_old.partition_spec} -> "
            f"{man_new.num_partitions}/{man_new.partition_spec}); a "
            "pid-level diff across a repartition is not defined — diff up "
            "to the repartition epoch and from it separately"
        )
    changed = []
    for pid in sorted(set(man_old.partitions) | set(man_new.partitions), key=int):
        old_files = (man_old.partitions.get(pid) or {}).get("files") or []
        new_files = (man_new.partitions.get(pid) or {}).get("files") or []
        if old_files != new_files:  # identical chain ⇒ provably unchanged
            changed.append({"pid": int(pid), "old": old_files, "new": new_files})
    return changed


def table_diff(
    table_dir: str, from_epoch: int, to_epoch: int | None = None
) -> ray.data.Dataset:
    """Change stream turning the table's ``from_epoch`` state into its
    ``to_epoch`` (default: current) state. Both epochs must be retained
    (load_manifest raises otherwise). The CHANGED partitions are read and
    diffed at call time on the partition runner
    (``pipelines.apply._scan``), so later commits or GC cannot take files
    from under the returned Dataset."""
    from .apply import _scan_dataset

    changed = changed_partitions(table_dir, from_epoch, to_epoch)
    man_old = load_manifest(table_dir, epoch=from_epoch)
    man_new = load_manifest(
        table_dir, epoch=None if to_epoch is None else to_epoch
    )
    out_schema = man_new.schema.append(pa.field("op", pa.string()))
    if not changed:
        return ray.data.from_arrow(out_schema.empty_table())

    mode, key_col = man_new.mode, man_new.key_col
    sum_cols = man_new.sum_cols
    schema, old_schema = man_new.schema, man_old.schema
    old_wm, new_wm = man_old.watermark, man_new.watermark
    chains = {c["pid"]: (c["old"], c["new"]) for c in changed}

    def state(files: list[str], schema: pa.Schema) -> pa.Table:
        if not files:
            return schema.empty_table()
        # collapse tables diff FINAL states, not the partial encoding:
        # partials hold winner + adjustment rows (duplicate keys, residual
        # cancel balances) that would surface as phantom changes. The
        # emitted stream is LWW ops over alive rows — replayable onto an
        # upsert replica (a collapse replica takes cancel rows, not ops;
        # see merge.collapse_compact).
        return read_partition_final(table_dir, files, schema, mode, sum_cols)

    def diff_pids(pids: list[int]) -> pa.Table:
        out = []
        for pid in pids:
            old_files, new_files = chains[pid]
            new_t = state(new_files, schema)
            if mode == "append":
                # immutable rows: the diff IS the new rows
                d = new_t.filter(pc.greater(new_t.column("lsn"), pa.scalar(old_wm)))
                d = d.append_column(
                    "op", pa.nulls(d.num_rows, pa.string()).fill_null("c")
                )
            else:
                old_t = cast_table(state(old_files, old_schema), schema)
                d = _diff_partition(old_t, new_t, key_col, new_wm)
            out.append(d)
        return pa.concat_tables(out)

    return _scan_dataset(diff_pids, man_new, list(chains))
