"""Normalize stage: the vectorized analog of the reference's transformers.

The reference normalizes row-by-row in Python — null-coalescing timestamps
(/root/reference/etl/core/pipeline.py:57-68), casting decimal strings
(pipeline.py:70-87), deriving ``event_date`` (pipeline.py:89-104), and
defensively parsing scalars (/root/reference/stream_etl/core/processor.py:41-141).
Here all of that is one zero-copy Arrow ``map_batches`` stage:

- op normalization: Debezium snapshot-read ``r`` → ``c``
  (processor.py:196-198 treats them identically), unknown ops rejected;
- schema unification: cast each batch to the epoch's unified change schema
  (missing columns → typed nulls, int widen) — the engine's schema-evolution
  path, replacing per-value parsing;
- derived-column recompute: ``n_tok = len(tokens)`` invariant (mirror of the
  derived ``event_date``, pipeline.py:94-95);
- partition assignment (pid/salt routing columns);
- per-batch change-reduce (the combiner before the shuffle).
"""

from __future__ import annotations

from typing import Callable

import pyarrow as pa
import pyarrow.compute as pc

from ..schemas import cast_table
from .merge import reduce_changes
from .partition import assign_by_spec

_VALID_OPS = ("c", "u", "d")


def normalize_batch(
    batch: pa.Table, change_schema: pa.Schema, valid_ops: tuple = _VALID_OPS
) -> pa.Table:
    """Normalize one Arrow batch of change events to the unified schema.
    ``valid_ops`` narrows to ("c",) for append-only tables — an update or
    delete against an immutable fact table is a pipeline bug and fails the
    epoch loudly (vs the reference silently dropping deletes,
    processor.py:214-217)."""
    op = batch.column("op")
    op = pc.if_else(pc.equal(op, pa.scalar("r")), pa.scalar("c"), op)
    bad = pc.sum(pc.invert(pc.is_in(op, value_set=pa.array(list(valid_ops)))).cast(pa.int64()))
    if (bad.as_py() or 0) > 0:
        raise ValueError(
            f"invalid op codes for this table mode (allowed {valid_ops}): "
            f"{pc.unique(op).to_pylist()}"
        )

    batch = batch.drop_columns(["op"]) if "op" in batch.column_names else batch
    batch = cast_table(batch, change_schema.remove(change_schema.get_field_index("op")))

    # Recompute the n_tok invariant from the payload (null for tombstones) —
    # only for token-table schemas that carry it.
    if "n_tok" in batch.column_names and "tokens" in batch.column_names:
        n_tok_type = change_schema.field("n_tok").type
        n_tok = pc.list_value_length(batch.column("tokens")).cast(n_tok_type)
        batch = batch.set_column(batch.schema.get_field_index("n_tok"), "n_tok", n_tok)
    return batch.append_column("op", op)


def split_malformed(
    batch: pa.Table, valid_ops: tuple, key_col: str = "doc_id"
) -> tuple[pa.Table, pa.Table]:
    """(good rows, quarantined rows + ``reason`` column) on a RAW change
    batch — the dead-letter split (the Kafka-Connect DLQ analog; the
    reference logs-and-drops malformed messages, processor.py:214-217 —
    here nothing is ever dropped silently). Reasons, first match wins:

    - ``invalid_op``: op not legal for the table mode (after the r→c map);
    - ``null_lsn``: an event without an offset can't be watermarked —
      without the split it would be SILENTLY dropped by the watermark
      filter (NULL comparison → filtered);
    - ``null_key``: a change event without its key can't be merged.

    Quarantined rows keep their raw (pre-cast) form so the DLQ preserves
    exactly what arrived."""
    import numpy as np

    n = batch.num_rows
    # a segment missing the op or lsn column ENTIRELY is wholly malformed:
    # quarantine every row rather than KeyError-ing the epoch (the strict
    # no-DLQ path never reaches here and still fails loudly)
    for col, why in (("op", "missing_op"), ("lsn", "missing_lsn")):
        if col not in batch.column_names:
            return batch.slice(0, 0), batch.append_column(
                "reason", pa.array([why] * n, pa.string())
            )
    op = pc.if_else(
        pc.equal(batch.column("op"), pa.scalar("r")), pa.scalar("c"),
        batch.column("op"),
    )
    bad_op = pc.fill_null(
        pc.invert(pc.is_in(op, value_set=pa.array(list(valid_ops)))), True
    ).to_numpy(zero_copy_only=False)
    null_lsn = pc.is_null(batch.column("lsn")).to_numpy(zero_copy_only=False)
    if key_col in batch.column_names:
        null_key = pc.is_null(batch.column(key_col)).to_numpy(
            zero_copy_only=False
        )
    else:
        null_key = np.zeros(n, dtype=bool)  # missing column: caught post-cast
    reason = np.select(
        [bad_op, null_lsn, null_key],
        ["invalid_op", "null_lsn", "null_key"],
        default="",
    )
    bad_mask = reason != ""
    if not bad_mask.any():
        return batch, batch.slice(0, 0).append_column(
            "reason", pa.array([], pa.string())
        )
    good = batch.filter(pa.array(~bad_mask))
    bad = batch.filter(pa.array(bad_mask)).append_column(
        "reason", pa.array(reason[bad_mask].astype(str))
    )
    return good, bad


def make_normalize_fn(
    change_schema: pa.Schema,
    partition_spec: dict,
    salt_factor: int = 1,
    watermark: int = 0,
    key_col: str = "doc_id",
    mode: str = "upsert",
    dlq_writer: Callable[[pa.Table], None] | None = None,
    sum_cols: list[str] | tuple = (),
    pid_watermarks: dict[str, int] | None = None,
) -> Callable[[pa.Table], pa.Table]:
    """Build the map_batches function for one epoch (stateless tasks).
    Append mode: only 'c' ops are legal and there is no pre-compaction
    (every row survives). Sum and collapse modes: only 'c' ops (additive or
    ±1 deltas — an update/delete against a rollup is a pipeline bug). Keyed
    modes pre-compact each batch with the mode's ``reduce_changes`` (LWW
    winners, partial sums or collapse partials shrink the shuffle — partial
    sums more so, on hot counter keys).

    With ``dlq_writer`` set, malformed rows (invalid op / null lsn / null
    key) are QUARANTINED through it instead of failing the epoch — the
    dead-letter-queue ingest mode; without it the epoch fails loudly, the
    strict default."""
    valid_ops = ("c",) if mode in ("append", "sum", "collapse") else _VALID_OPS

    def fn(batch: pa.Table) -> pa.Table:
        if (
            dlq_writer is not None
            and batch.num_rows
            and ("lsn" not in batch.column_names or "op" not in batch.column_names)
        ):
            # wholly malformed segment (no lsn/op column): quarantine it all
            # BEFORE the watermark filter would KeyError on the lsn column
            _, bad = split_malformed(batch, valid_ops, key_col)
            dlq_writer(bad)
            batch = batch.slice(0, 0)
        if watermark > 0 and batch.num_rows:
            keep = pc.greater(batch.column("lsn"), pa.scalar(watermark))
            if dlq_writer is not None:
                # a null-lsn row must SURVIVE the watermark filter to reach
                # quarantine (NULL > wm is NULL → silently dropped otherwise)
                keep = pc.fill_null(keep, True)
            batch = batch.filter(keep)
        if dlq_writer is not None and batch.num_rows:
            # after the watermark filter: an epoch re-reading a straddling
            # segment's already-applied half must not re-quarantine its rows
            batch, bad = split_malformed(batch, valid_ops, key_col)
            if bad.num_rows:
                dlq_writer(bad)
        if batch.num_rows == 0:
            # SAME column order as the non-empty path (op appended last,
            # after the cast) — Ray 2.49 unifies block schemas by name, but
            # strict consumers (concat with promote_options='none') do not
            no_op = change_schema.remove(change_schema.get_field_index("op"))
            empty = cast_table(batch, no_op).append_column(
                "op", pa.nulls(0, pa.string())
            )
            return assign_by_spec(empty, partition_spec, salt_factor, key_col)
        batch = normalize_batch(batch, change_schema, valid_ops)
        n_null_keys = batch.column(key_col).null_count
        if n_null_keys:
            if dlq_writer is not None:
                # the raw segment lacked the key column entirely, so the
                # pre-cast split couldn't see it — quarantine the null-filled
                # rows in their normalized form
                null_mask = pc.is_null(batch.column(key_col))
                bad = batch.filter(null_mask).append_column(
                    "reason",
                    pa.array(["null_key"] * n_null_keys, pa.string()),
                )
                dlq_writer(bad)
                batch = batch.filter(pc.invert(null_mask))
            else:
                # a change event without its key is malformed input (e.g. a
                # JSONL segment missing the field entirely — cast_table
                # null-fills it); fail the epoch loudly like invalid ops do,
                # instead of letting a null key reach the LWW merge
                raise ValueError(
                    f"{n_null_keys} change event(s) with null {key_col!r} key"
                )
        if mode == "collapse" and batch.num_rows:
            # change-event contract: sign is strictly ±1 and non-null (a
            # partial net only ever appears in COMMITTED state, never in the
            # WAL); garbage signs corrupt nets silently, so fail loudly
            sign = batch.column("sign")
            ok = pc.is_in(sign, value_set=pa.array([1, -1], sign.type))
            n_bad = batch.num_rows - (
                pc.sum(pc.fill_null(ok, False).cast(pa.int64())).as_py() or 0
            )
            if n_bad:
                raise ValueError(
                    f"{n_bad} collapse change event(s) with sign not in "
                    "(+1, -1)"
                )
        batch = assign_by_spec(batch, partition_spec, salt_factor, key_col)
        if mode in ("sum", "collapse") and pid_watermarks and batch.num_rows:
            # Sum-mode exactly-once hazard: a batch can span an
            # already-applied segment and a new one (per-partition watermarks
            # legally lead the table-min watermark when an epoch touches only
            # some partitions). LWW partials are idempotent under that mix —
            # SUM partials are NOT (bundling an applied row double-counts
            # it), so filter at each row's OWN partition watermark BEFORE
            # compacting. MergeApply's per-pid re-filter then agrees with
            # the partials by construction.
            import numpy as np

            pid_np = batch.column("pid").to_numpy(zero_copy_only=False)
            lsn_np = batch.column("lsn").to_numpy(zero_copy_only=False)
            keep = np.ones(len(pid_np), dtype=bool)
            for p in np.unique(pid_np):
                wm = int(pid_watermarks.get(str(p), watermark))
                if wm > watermark:  # the global filter already ran
                    m = pid_np == p
                    keep[m] = lsn_np[m] > wm
            if not keep.all():
                batch = batch.filter(pa.array(keep))
        if mode != "append":
            # per-batch combiner: the mode's change-reduce (LWW winners,
            # partial sums or collapse partials) shrinks the shuffle
            batch = reduce_changes(batch, mode, sum_cols)
        return batch

    return fn
