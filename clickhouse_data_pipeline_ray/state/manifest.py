"""Per-partition high-watermark manifest: the engine's durable state.

Replaces the reference's two watermark mechanisms — the *in-memory*
``last_sync`` dict that is lost on restart (/root/reference/etl/core/
pipeline.py:197-202, reset at /root/reference/etl/main.py:116-119) and the
Kafka consumer-group offsets (/root/reference/stream_etl/core/consumer.py:
103-105) — with one versioned JSON manifest per committed epoch holding, per
partition: the high watermark (max applied LSN), current part files,
row/byte counts, and applied-segment lineage.

Commit protocol (exactly-once, the fix for the reference's at-least-once
delivery; see ``state/store.py``): workers write each part once under a
writer-unique, epoch-stamped name; the driver fsyncs the part directories
and then commits by a put-if-absent of ``manifest-{epoch:06d}.json``. The
current epoch is the highest versioned manifest a LIST returns. A crash
anywhere before the put leaves the previous epoch authoritative and the
crashed epoch's parts unreferenced (GC removes them); a racing writer that
loses the put raises ``ConcurrentCommitError`` and retries from the new
head. Driver state is O(P + epochs), never O(keys) — the 10^10-event design
point.
"""

from __future__ import annotations

import errno
import json
import os
import time
from dataclasses import dataclass, field

import pyarrow as pa

from ..schemas import schema_from_b64, schema_to_b64
from .store import (
    ConcurrentCommitError,
    fsync_path,
    part_epoch,
    put_json_if_absent,
)

# Retained versioned manifests (time travel): manifest-{epoch:06d}.json.
MANIFEST_RETENTION = 8


def _versioned(table_dir: str, epoch: int) -> str:
    return os.path.join(table_dir, f"manifest-{epoch:06d}.json")


@dataclass
class Manifest:
    table_dir: str
    num_partitions: int
    schema_b64: str
    epoch: int = 0
    # pid (as str, JSON-friendly) -> {watermark_lsn, rows, bytes, files, lineage}
    partitions: dict[str, dict] = field(default_factory=dict)
    # bounded per-epoch metrics history (events applied, wall seconds, ...)
    history: list[dict] = field(default_factory=list)
    # pid -> change rows applied in the LAST committed epoch. Used for
    # shuffle-free hot-partition prediction: skew in CDC streams is sticky
    # (hot sources stay hot), so last epoch's histogram decides this epoch's
    # salting without an extra counting pass over the data. O(P).
    last_applied: dict[str, int] = field(default_factory=dict)
    updated_at: float = 0.0
    # Write discipline (the reference's table engines,
    # /root/reference/etl/clickhouse_schema/init.sql:8-29 vs 32-52, and the
    # SummingMergeTree the reference uses for its kpi views,
    # kpi_views.sql:5-8):
    # "upsert" = ReplacingMergeTree-style LWW keyed by key_col;
    # "append" = MergeTree-style append-only facts (no per-key sort, no
    # tombstones — the cheap fast path for event tables);
    # "sum"    = SummingMergeTree-style additive rollup: insert-only change
    # events fold per key with sum_cols summed and other columns LWW'd.
    mode: str = "upsert"
    key_col: str = "doc_id"
    # measure columns summed per key by sum-mode merges (empty otherwise)
    sum_cols: list[str] = field(default_factory=list)
    # {"kind": "hash", "num": P} (default) or
    # {"kind": "time", "col": <ts col>, "granularity": "month"} — the analog
    # of PARTITION BY toYYYYMM(event_date) (init.sql:40): pid = yyyymm, so
    # date-range reads prune whole partitions at the manifest. Time
    # partitions are created dynamically as new months appear.
    partition_spec: dict = field(default_factory=dict)
    # Resume floor for tables whose partition set is dynamic (time
    # partitioning starts with ZERO partitions); equals every partition's
    # watermark after any commit.
    watermark_floor: int = 0
    # retained versioned manifests for time travel (per-table override of
    # the MANIFEST_RETENTION default)
    retention: int = MANIFEST_RETENTION
    # EVENT-TIME watermark (late-data accounting, §2.9 streaming concerns):
    # when set, every epoch tracks max(event_time_col) across applied events
    # and counts arrivals whose event time is BEHIND the committed watermark
    # (out-of-order beyond allowed lateness). Processing-time progress is the
    # LSN watermark above; this is the event-time twin (the Flink watermark
    # idea, applied per micro-batch). "" = disabled (doc tables carry no
    # event time).
    event_time_col: str = ""
    # microseconds since epoch; None until the first event is seen
    event_time_watermark_us: int | None = None
    # Data-skipping index columns (ClickHouse `INDEX ... TYPE minmax` analog,
    # declared like the skip indexes a MergeTree DDL would carry): every part
    # write records per-file min/max zones for these columns in the manifest
    # (partitions[pid]["zones"][file][col] = [lo, hi]); `pipelines.scan.
    # read_where` prunes partitions/files whose zones cannot overlap a range
    # predicate BEFORE opening any parquet. [] = no skip index (no zones
    # recorded, scans read everything).
    skip_cols: list[str] = field(default_factory=list)

    @property
    def schema(self) -> pa.Schema:
        return schema_from_b64(self.schema_b64)

    @property
    def spec(self) -> dict:
        return self.partition_spec or {"kind": "hash", "num": self.num_partitions}

    @property
    def watermark(self) -> int:
        """Global resume point = min per-partition watermark (they are equal
        after every atomic commit; min is safe if that invariant ever breaks
        because merge workers re-filter per-pid). Dynamic-partition tables
        fall back to the committed floor while empty."""
        if not self.partitions:
            return self.watermark_floor
        return min(int(p["watermark_lsn"]) for p in self.partitions.values())

    def snapshot_files(self) -> list[str]:
        out: list[str] = []
        for pid in sorted(self.partitions, key=int):
            out.extend(
                os.path.join(self.table_dir, f) for f in self.partitions[pid]["files"]
            )
        return out

    def total_rows(self) -> int:
        return sum(int(p["rows"]) for p in self.partitions.values())


def empty_partition(watermark_lsn: int = 0) -> dict:
    return {"watermark_lsn": watermark_lsn, "rows": 0, "bytes": 0, "files": [], "lineage": []}


def init_table(
    table_dir: str,
    schema: pa.Schema,
    num_partitions: int,
    mode: str = "upsert",
    key_col: str = "doc_id",
    partition_spec: dict | None = None,
    retention: int = MANIFEST_RETENTION,
    event_time_col: str = "",
    sum_cols: list[str] | None = None,
    skip_cols: list[str] | None = None,
) -> Manifest:
    """Create an empty table layout + manifest v0 (idempotent, the analog of
    the reference's ``CREATE TABLE IF NOT EXISTS`` DDL path,
    /root/reference/etl/core/schema.py:16-24). Hash-partitioned tables
    pre-create their fixed partition set; time-partitioned tables start empty
    (partitions appear as their months do)."""
    if mode not in ("upsert", "append", "sum", "collapse"):
        raise ValueError(
            f"unknown table mode {mode!r} (upsert|append|sum|collapse)"
        )
    if mode == "collapse":
        # CollapsingMergeTree-analog: keyed like upsert/sum, plus a sign
        # column holding +1 (state) / -1 (cancel) on change events and the
        # mergeable net in committed partial state.
        if "doc_id" not in schema.names or key_col != "doc_id":
            raise ValueError(
                "collapse tables are keyed by a physical 'doc_id' column "
                "(rename your key at import/normalize time), like upsert"
            )
        if "sign" not in schema.names or not pa.types.is_integer(
            schema.field("sign").type
        ):
            raise ValueError(
                "collapse tables need an integer 'sign' column "
                f"(got schema {list(schema.names)})"
            )
    if mode == "sum":
        # SummingMergeTree-analog: keyed like upsert (the merge kernels key
        # on the physical doc_id column — same convention, same reason), but
        # additionally needs the measure columns to sum.
        if "doc_id" not in schema.names or key_col != "doc_id":
            raise ValueError(
                "sum tables are keyed by a physical 'doc_id' column "
                "(rename your key at import/normalize time), like upsert"
            )
        if not sum_cols:
            raise ValueError("sum tables need non-empty sum_cols")
        for c in sum_cols:
            if c not in schema.names:
                raise ValueError(f"sum col {c!r} not in schema {list(schema.names)}")
            t = schema.field(c).type
            if not (pa.types.is_integer(t) or pa.types.is_floating(t)):
                raise ValueError(f"sum col {c!r} must be numeric, got {t}")
            if c in ("doc_id", "lsn", key_col):
                raise ValueError(f"sum col {c!r} cannot be the key or lsn")
    elif sum_cols:
        raise ValueError(f"sum_cols only apply to mode='sum' (got mode={mode!r})")
    if mode == "upsert" and "doc_id" not in schema.names:
        # the LWW merge kernels (lww_compact / merge_file_tables) key on the
        # physical doc_id column; import_base renames foreign key columns to
        # it. An upsert table without one would fail deep in the first merge
        # — reject at DDL time instead.
        raise ValueError(
            "upsert tables need a 'doc_id' key column in the schema "
            "(rename your key at import/normalize time); got "
            f"{list(schema.names)}"
        )
    if mode == "upsert" and key_col != "doc_id":
        # half the pipeline (normalize pre-compaction, partition hashing)
        # honors key_col while the merge kernels key on the physical doc_id;
        # an upsert table keyed elsewhere would get batch-boundary-dependent
        # LWW (nondeterministic row loss). The engine convention: upsert keys
        # are ALWAYS physically named doc_id (import_base renames); key_col
        # is a real choice only for append tables (e.g. event_id facts).
        raise ValueError(
            f"upsert tables must use key_col='doc_id' (got {key_col!r}); "
            "rename the key column at import/normalize time instead"
        )
    for c in skip_cols or []:
        if c not in schema.names:
            raise ValueError(f"skip col {c!r} not in schema {list(schema.names)}")
        t = schema.field(c).type
        if not (
            pa.types.is_integer(t)
            or pa.types.is_floating(t)
            or pa.types.is_timestamp(t)
            or pa.types.is_string(t)
            or pa.types.is_large_string(t)
            or pa.types.is_date(t)
        ):
            raise ValueError(
                f"skip col {c!r} must be orderable scalar "
                f"(int/float/timestamp/date/string), got {t}"
            )
    spec = partition_spec or {"kind": "hash", "num": num_partitions}
    if spec.get("kind") == "hash" and int(spec.get("num", num_partitions)) != num_partitions:
        # the write path routes by spec['num'] while readers size loops by
        # num_partitions — a mismatch would make point lookups silently miss
        raise ValueError(
            f"hash partition_spec num ({spec.get('num')}) must equal "
            f"num_partitions ({num_partitions})"
        )
    os.makedirs(os.path.join(table_dir, "parts"), exist_ok=True)
    if retained_epochs(table_dir):
        return load_manifest(table_dir)  # idempotent re-create
    partitions = (
        {str(pid): empty_partition() for pid in range(num_partitions)}
        if spec.get("kind") == "hash"
        else {}
    )
    man = Manifest(
        table_dir=table_dir,
        num_partitions=num_partitions,
        schema_b64=schema_to_b64(schema),
        partitions=partitions,
        mode=mode,
        key_col=key_col,
        partition_spec=spec,
        retention=max(1, retention),
        event_time_col=event_time_col,
        sum_cols=list(sum_cols or []),
        skip_cols=list(skip_cols or []),
    )
    try:
        commit_manifest(man)
    except ConcurrentCommitError:
        return load_manifest(table_dir)  # a racing init committed first
    return man


def load_manifest(table_dir: str, epoch: int | None = None) -> Manifest:
    """Load the current manifest, or a retained historical one (time travel:
    every commit also writes ``manifest-{epoch:06d}.json`` and keeps the last
    ``MANIFEST_RETENTION`` of them; file GC preserves any file referenced by
    a retained manifest, so historical snapshots stay readable — the
    Iceberg/Delta snapshot-isolation idea on the same put-if-absent commit).

    The CURRENT manifest is the highest versioned manifest a LIST returns."""
    while True:
        head = epoch
        if head is None:
            try:
                eps = retained_epochs(table_dir)
            except FileNotFoundError:
                eps = []
            if not eps:
                raise FileNotFoundError(
                    errno.ENOENT, "no committed manifest",
                    os.path.join(table_dir, "manifest-*.json"),
                )
            head = eps[-1]
        try:
            with open(_versioned(table_dir, head)) as f:
                doc = json.load(f)
            break
        except FileNotFoundError:
            if epoch is not None:
                raise ValueError(
                    f"epoch {epoch} is not retained (retention="
                    f"{MANIFEST_RETENTION}); available: {retained_epochs(table_dir)}"
                ) from None
            # the listed head was superseded and pruned before the open
    return Manifest(
        table_dir=table_dir,
        num_partitions=doc["num_partitions"],
        schema_b64=doc["schema_b64"],
        epoch=doc["epoch"],
        partitions=doc["partitions"],
        history=doc.get("history", []),
        last_applied=doc.get("last_applied", {}),
        updated_at=doc.get("updated_at", 0.0),
        mode=doc.get("mode", "upsert"),
        key_col=doc.get("key_col", "doc_id"),
        sum_cols=doc.get("sum_cols", []),
        partition_spec=doc.get("partition_spec", {}),
        watermark_floor=doc.get("watermark_floor", 0),
        retention=doc.get("retention", MANIFEST_RETENTION),
        event_time_col=doc.get("event_time_col", ""),
        event_time_watermark_us=doc.get("event_time_watermark_us"),
        skip_cols=doc.get("skip_cols", []),
    )


def atomic_json_write(path: str, doc: dict, fsync_dir: bool = True) -> None:
    """Atomic JSON replace for documents that are NOT table commits (registry,
    MV specs, artifacts, bpe): pid-suffixed tmp name (two concurrent writers
    never interleave bytes in one tmp file), content fsync, atomic rename,
    parent-directory fsync (the rename itself must be durable before anything
    references the file)."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(doc, f, indent=1)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    if fsync_dir:
        fsync_path(os.path.dirname(os.path.abspath(path)))


def commit_manifest(man: Manifest) -> None:
    """Commit ``man`` as epoch ``man.epoch``: put-if-absent of
    ``manifest-{epoch:06d}.json`` (the commit point, see state/store.py),
    then prune versions beyond the retention window.

    Raises :class:`ConcurrentCommitError` when another writer committed
    this epoch first — and also when a HIGHER version already exists. Then
    this epoch was committed and pruned while the caller was more than
    ``retention`` epochs stale; the put only succeeded because the key was
    gone, and listing readers would never see it, so the version is removed
    again. (The listing follows the link at once; a writer that read this
    version would need its own fsynced part and manifest writes to commit on
    top of it, which cannot finish in that window.)"""
    man.updated_at = time.time()
    doc = {
        "version": 2,
        "num_partitions": man.num_partitions,
        "schema_b64": man.schema_b64,
        "epoch": man.epoch,
        "partitions": man.partitions,
        "history": man.history[-50:],
        "last_applied": man.last_applied,
        "updated_at": man.updated_at,
        "mode": man.mode,
        "key_col": man.key_col,
        "sum_cols": man.sum_cols,
        "partition_spec": man.partition_spec,
        "watermark_floor": man.watermark_floor,
        "retention": man.retention,
        "event_time_col": man.event_time_col,
        "event_time_watermark_us": man.event_time_watermark_us,
        "skip_cols": man.skip_cols,
    }
    path = _versioned(man.table_dir, man.epoch)
    put_json_if_absent(path, doc)
    eps = retained_epochs(man.table_dir)
    if eps[-1] > man.epoch:
        os.remove(path)
        raise ConcurrentCommitError(
            f"stale commit: epoch {man.epoch} is behind the table head "
            f"{eps[-1]}; re-read table state and retry"
        )
    fsync_path(man.table_dir)
    for old in eps[: -man.retention]:
        try:
            os.remove(_versioned(man.table_dir, old))
        except FileNotFoundError:
            pass  # a concurrent committer pruned it first


def retained_epochs(table_dir: str) -> list[int]:
    """Epochs with a retained versioned manifest, ascending."""
    out = []
    for name in os.listdir(table_dir):
        if name.startswith("manifest-") and name.endswith(".json"):
            stamp = name[len("manifest-"):-len(".json")]
            if stamp.isdigit():
                out.append(int(stamp))
    return sorted(out)


def stale_files(table_dir: str, man: Manifest | None = None) -> list[str]:
    """Files under ``parts/`` (table-relative) that no retained manifest
    references and whose name does not stamp an epoch newer than the
    committed head. A newer stamp belongs to a writer still working on the
    next epoch; a writer working on an epoch at or below the head loses its
    manifest put, so its parts are dead. ``man`` (a manifest already in
    hand, e.g. the one just committed) saves re-reading its version."""
    eps = retained_epochs(table_dir)
    head = max(eps[-1] if eps else 0, man.epoch if man else 0)
    live: set[str] = set()
    for ep in eps:
        if man is not None and ep == man.epoch:
            m = man
        else:
            try:
                m = load_manifest(table_dir, epoch=ep)
            except ValueError:
                if ep == eps[-1]:
                    return []  # head pruned mid-walk: no safe live set
                continue  # pruned mid-walk: its files are dead or live above
        live.update(f for p in m.partitions.values() for f in p["files"])
    if man is not None:
        live.update(f for p in man.partitions.values() for f in p["files"])
    out = []
    for root, _dirs, names in os.walk(os.path.join(table_dir, "parts")):
        for name in names:
            rel = os.path.relpath(os.path.join(root, name), table_dir)
            if rel not in live and (part_epoch(name) or 0) <= head:
                out.append(rel)
    return out


def gc_stale_files(man: Manifest) -> int:
    """Remove :func:`stale_files`: crashed or losing writers' parts and
    parts only dead epochs referenced. Files still referenced by a retained
    historical manifest survive, so time-travel reads keep working. Needs no
    lock and no grace window. Returns count removed."""
    removed = 0
    for rel in stale_files(man.table_dir, man):
        try:
            os.remove(os.path.join(man.table_dir, rel))
            removed += 1
        except FileNotFoundError:
            pass  # a concurrent GC removed it first
    return removed
