"""Multi-table registry: named tables with write modes + dependency order.

The reference manages four tables with two write disciplines — LWW-upsert
dims (ReplacingMergeTree, /root/reference/etl/clickhouse_schema/init.sql:8-29)
and append-only time-partitioned facts (init.sql:32-52) — and syncs them in a
fixed dependency order, dims before facts
(/root/reference/etl/core/pipeline.py:341-347: sync_advertisers →
sync_campaigns → sync_impressions → sync_clicks). This module is that
registry for the Ray engine: ``{name: (schema, key, mode, partition_spec,
depends_on)}`` persisted as ``registry.json`` at a lake root, each table its
own manifest-committed directory, and ``sync_all`` applying per-table WALs in
topological order. Per-table failures degrade gracefully (one table's error
doesn't abort the others' sync — the reference's per-table try/except,
pipeline.py:239-241 — unless it is a dependency of a later table).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import pyarrow as pa

from ..schemas import schema_from_b64, schema_to_b64
from .manifest import atomic_json_write, init_table, load_manifest

REGISTRY_NAME = "registry.json"
LAKE_NAME = "lake.json"
# retained lake epoch vectors (lake-{epoch:06d}.json) for pinned reads
LAKE_RETENTION = 8


@dataclass(frozen=True)
class TableSpec:
    name: str
    schema_b64: str
    key_col: str = "doc_id"
    mode: str = "upsert"                      # upsert | append | sum
    partition_spec: dict = field(default_factory=dict)
    num_partitions: int = 16
    depends_on: tuple = ()
    # measure columns summed per key by sum-mode merges (empty otherwise);
    # tuple (not list) so TableSpec stays hashable/frozen-comparable
    sum_cols: tuple = ()
    # data-skipping index columns (minmax zones recorded per part write)
    skip_cols: tuple = ()

    @property
    def schema(self) -> pa.Schema:
        return schema_from_b64(self.schema_b64)


def _registry_path(root: str) -> str:
    return os.path.join(root, REGISTRY_NAME)


def table_dir(root: str, name: str) -> str:
    return os.path.join(root, "tables", name)


class file_lock:
    """Blocking ``flock`` on a permanent lock file: guards a read-modify-write
    of the non-table documents beside it (the lake registry, an MV's spec
    and state). Table commits take no lock; see state/store.py.

    ``flock`` is owned by the open fd, so the kernel releases it the instant
    a crashed owner dies — no staleness judgment. The file itself is never
    unlinked: unlink+recreate would let two processes flock DIFFERENT inodes
    at the same path."""

    def __init__(self, path: str):
        self.path = path
        self.fd = None

    def __enter__(self):
        import fcntl

        self.fd = os.open(self.path, os.O_CREAT | os.O_RDWR)
        fcntl.flock(self.fd, fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc):
        import fcntl

        if self.fd is not None:
            fcntl.flock(self.fd, fcntl.LOCK_UN)
            os.close(self.fd)
            self.fd = None
        return False


def load_registry(root: str) -> dict[str, TableSpec]:
    try:
        with open(_registry_path(root)) as f:
            doc = json.load(f)
    except FileNotFoundError:
        return {}
    return {
        name: TableSpec(
            name=name,
            schema_b64=spec["schema_b64"],
            key_col=spec.get("key_col", "doc_id"),
            mode=spec.get("mode", "upsert"),
            partition_spec=spec.get("partition_spec", {}),
            num_partitions=spec.get("num_partitions", 16),
            depends_on=tuple(spec.get("depends_on", ())),
            sum_cols=tuple(spec.get("sum_cols", ())),
            skip_cols=tuple(spec.get("skip_cols", ())),
        )
        for name, spec in doc["tables"].items()
    }


def _save_registry(root: str, tables: dict[str, TableSpec]) -> None:
    doc = {
        "version": 1,
        "tables": {
            s.name: {
                "schema_b64": s.schema_b64,
                "key_col": s.key_col,
                "mode": s.mode,
                "partition_spec": s.partition_spec,
                "num_partitions": s.num_partitions,
                "depends_on": list(s.depends_on),
                "sum_cols": list(s.sum_cols),
                "skip_cols": list(s.skip_cols),
            }
            for s in tables.values()
        },
    }
    atomic_json_write(_registry_path(root), doc)


def register_table(
    root: str,
    name: str,
    schema: pa.Schema,
    key_col: str = "doc_id",
    mode: str = "upsert",
    partition_spec: dict | None = None,
    num_partitions: int = 16,
    depends_on: tuple = (),
    sum_cols: tuple = (),
    skip_cols: tuple = (),
) -> TableSpec:
    """Declare a table (idempotent) and create its empty layout + manifest —
    the CREATE TABLE IF NOT EXISTS analog, one directory per table."""
    os.makedirs(root, exist_ok=True)
    # lake-level registration lock: the registry read-modify-write below is
    # not atomic on its own — two concurrent registrations would each save a
    # map missing the other's table (last rename wins).
    with file_lock(os.path.join(root, "registry.lock")):
        tables = load_registry(root)
        missing = [d for d in depends_on if d not in tables]
        if missing:
            raise ValueError(f"unknown dependencies for table {name!r}: {missing}")
        spec = TableSpec(
            name=name,
            schema_b64=schema_to_b64(schema),
            key_col=key_col,
            mode=mode,
            partition_spec=partition_spec or {"kind": "hash", "num": num_partitions},
            num_partitions=num_partitions,
            depends_on=tuple(depends_on),
            sum_cols=tuple(sum_cols),
            skip_cols=tuple(skip_cols),
        )
        existing = tables.get(name)
        if existing is not None and existing != spec:
            raise ValueError(f"table {name!r} already registered with a different spec")
        # create the layout FIRST: init_table validates the spec (mode /
        # key_col / doc_id rules), and a rejected spec must not leave a
        # poisoned registry entry pointing at a table with no manifest
        init_table(
            table_dir(root, name),
            schema,
            num_partitions,
            mode=mode,
            key_col=key_col,
            partition_spec=spec.partition_spec,
            sum_cols=list(sum_cols) or None,
            skip_cols=list(skip_cols) or None,
        )
        tables[name] = spec
        _save_registry(root, tables)
    return spec


def sync_order(tables: dict[str, TableSpec]) -> list[str]:
    """Topological order over depends_on (dims before facts). Deterministic:
    ready tables are taken in name order."""
    done: list[str] = []
    pending = dict(tables)
    while pending:
        ready = sorted(
            n for n, s in pending.items() if all(d in done for d in s.depends_on)
        )
        if not ready:
            raise ValueError(f"dependency cycle among tables: {sorted(pending)}")
        for n in ready:
            done.append(n)
            del pending[n]
    return done


def sync_all(
    root: str,
    wals: dict[str, str],
    cfg=None,
    commit_lake: bool = True,
) -> list[dict]:
    """One sync cycle over every registered table, in dependency order
    (the run_sync_cycle analog, pipeline.py:332-365, minus its
    watermark-loss bug): each table replays its pending WAL to caught-up.
    Tables without a WAL entry are skipped. A table's failure is recorded
    and does not abort later INDEPENDENT tables; tables depending on a
    failed one are skipped (their inputs may be inconsistent).

    When every table synced cleanly, the round ends by committing a LAKE
    EPOCH (see :func:`commit_lake_epoch`) so readers can pin a
    cross-table-consistent snapshot; a round with any failure commits no
    lake epoch (the vector would mix old and new table states)."""
    from ..pipelines.apply import replay

    tables = load_registry(root)
    failed: set[str] = set()
    out: list[dict] = []
    for name in sync_order(tables):
        spec = tables[name]
        if any(d in failed for d in spec.depends_on):
            out.append({"table": name, "skipped": True,
                        "reason": f"dependency failed: {sorted(set(spec.depends_on) & failed)}"})
            failed.add(name)
            continue
        wal = wals.get(name)
        if wal is None:
            continue
        try:
            epochs = replay(table_dir(root, name), wal, cfg)
            out.append({"table": name, "epochs": len(epochs),
                        "events": sum(e.get("events_applied", 0) for e in epochs)})
        except Exception as e:  # degrade per table, like the reference
            failed.add(name)
            out.append({"table": name, "error": f"{type(e).__name__}: {e}"})
    if commit_lake and not failed:
        out.append({"lake": commit_lake_epoch(root)})
    return out


# ---------------------------------------------------------------- lake epochs
#
# Per-table commits are atomic, but sync_all commits tables ONE AT A TIME: a
# reader joining dims with facts mid-sync can pair sync-round-N dims with
# round-N−1 facts (the reference has the same hazard — its fixed
# dims-before-facts ordering, pipeline.py:341-347, is exactly this
# consistency concern, unguarded). A LAKE EPOCH is an atomically committed
# {table → manifest epoch} vector captured after a clean sync round;
# pinned reads resolve every table through one vector and the per-table
# time-travel manifests, giving a cross-table-consistent snapshot no matter
# what a concurrent sync is doing.


def _lake_path(root: str, lake_epoch: int | None = None) -> str:
    name = LAKE_NAME if lake_epoch is None else f"lake-{lake_epoch:06d}.json"
    return os.path.join(root, name)


def lake_epochs(root: str) -> list[int]:
    """Retained lake epochs, ascending."""
    out = []
    for name in os.listdir(root):
        if name.startswith("lake-") and name.endswith(".json"):
            out.append(int(name[len("lake-"):-len(".json")]))
    return sorted(out)


def commit_lake_epoch(root: str) -> dict:
    """Atomically commit the current {table → epoch} vector as the next lake
    epoch (versioned copy + pointer swap under the registry lock).
    The pinned-read window is bounded by BOTH retentions: a lake epoch is
    readable while every table still retains its pinned manifest epoch."""
    import time as _time

    with file_lock(os.path.join(root, "registry.lock")):
        vector = {
            name: load_manifest(table_dir(root, name)).epoch
            for name in sorted(load_registry(root))
        }
        prev = load_lake(root)
        lake_epoch = (int(prev["lake_epoch"]) + 1) if prev else 1
        doc = {
            "version": 1,
            "lake_epoch": lake_epoch,
            "tables": vector,
            "updated_at": _time.time(),
        }
        atomic_json_write(_lake_path(root, lake_epoch), doc, fsync_dir=False)
        atomic_json_write(_lake_path(root), doc)
        for old in lake_epochs(root)[:-LAKE_RETENTION]:
            os.remove(_lake_path(root, old))
    return doc


def load_lake(root: str, lake_epoch: int | None = None) -> dict | None:
    """The current (or a retained historical) lake vector; None before the
    first commit."""
    try:
        with open(_lake_path(root, lake_epoch)) as f:
            return json.load(f)
    except FileNotFoundError:
        if lake_epoch is not None:
            raise ValueError(
                f"lake epoch {lake_epoch} is not retained; available: "
                f"{lake_epochs(root)}"
            ) from None
        return None


def lake_snapshot(root: str, name: str, lake_epoch: int | None = None) -> pa.Table:
    """Merged snapshot of one table AT the pinned lake vector — combine with
    other tables' lake_snapshot at the SAME lake epoch for a cross-table-
    consistent read. Raises if the table's pinned manifest epoch has aged
    out of its retention."""
    from ..pipelines.apply import snapshot_table

    lake = load_lake(root, lake_epoch)
    if lake is None:
        raise ValueError(f"no lake epoch committed yet at {root}")
    if name not in lake["tables"]:
        raise ValueError(
            f"table {name!r} not in lake epoch {lake['lake_epoch']} "
            f"(tables: {sorted(lake['tables'])})"
        )
    return snapshot_table(table_dir(root, name), epoch=int(lake["tables"][name]))


def registry_status(root: str) -> dict:
    """Watermarks/rows per registered table (driver-small)."""
    out = {}
    for name in sorted(load_registry(root)):
        man = load_manifest(table_dir(root, name))
        out[name] = {
            "epoch": man.epoch,
            "watermark": man.watermark,
            "rows": man.total_rows(),
            "mode": man.mode,
            "partitions": len(man.partitions),
        }
    return out
