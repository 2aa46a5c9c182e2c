"""Skip-index range scans: prune parts at the manifest before opening them.

The ClickHouse analog is a data-skipping index (``INDEX idx col TYPE minmax``)
over a MergeTree table: each part carries min/max marks for the indexed
column, and a ``WHERE col BETWEEN lo AND hi`` opens only parts whose marks
overlap the range. Here the marks are per-part ``[lo, hi]`` zones recorded in
the table manifest at part-write time (stages/merge.py column_zones) for the
columns declared in ``init_table(skip_cols=[...])``, and ``read_where`` plans
the pruned read with ZERO parquet I/O — a pure manifest computation, O(files)
driver work, which is what makes it hold at the 100-TB design point (the
manifest is KB per partition; the data is TB).

Conjunctive predicates (``read_where_multi``) prune by EVERY bounded
column's zones: a part survives only if all its zones can overlap — the
same AND-of-marks rule ClickHouse applies across multiple skip indexes.

Pruning granularity is mode-aware for soundness:

- **append** tables: rows are immutable, so any merged-output row is a
  physical row in exactly one file → per-FILE pruning is sound.
- **upsert** tables: merge-on-read means a partition's output depends on its
  whole file chain, but every output VALUE is still a physical row value in
  some chain file (LWW picks rows, never synthesizes values) → pruning is
  sound at PARTITION granularity: skip a partition iff every file's zone is
  disjoint from the range.
- **sum** tables: merged sum columns are SUMS of per-file partials — an
  output value can land inside a range no partial is in — so a predicate on
  a ``sum_col`` never prunes (full scan for that conjunct, still correct).
  Other (LWW'd) columns prune like upsert.

A file with no zone for the column (written before the skip index existed,
or all-null/all-NaN values) counts as "always overlapping" — missing
information can only cost speed, never rows.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..state.manifest import load_manifest
from ..stages.merge import make_partition_reader, zone_bound


def _zone_overlaps(zone, lo, hi) -> bool:
    """Does a file's [zmin, zmax] zone intersect the (possibly one-sided)
    query range? Missing zone (None) = unknown = must read."""
    if zone is None:
        return True
    zmin, zmax = zone
    if lo is not None and zmax < lo:
        return False
    if hi is not None and zmin > hi:
        return False
    return True


def _normalize_preds(man, predicates: dict) -> list[tuple]:
    """[(col, zone-domain lo, zone-domain hi, zones_usable)] — one conjunct
    per bounded column. ``zones_usable`` is False when the manifest records
    no zones for the column or when pruning would be unsound (sum-mode
    measure columns)."""
    out = []
    bounded = False
    for col, (lo, hi) in predicates.items():
        if col not in man.schema.names:
            # reject up front (like mutate_table does) instead of crashing
            # later with a raw KeyError when read_where builds its bounds
            raise ValueError(
                f"predicate column {col!r} not in table schema "
                f"{list(man.schema.names)}"
            )
        if lo is None and hi is None:
            continue
        bounded = True
        ftype = man.schema.field(col).type
        usable = (
            col in (man.skip_cols or [])
            # merged sum measures / collapse nets are SUMS of per-file
            # values — zones on partials can't bound them
            and not (man.mode == "sum" and col in (man.sum_cols or []))
            and not (man.mode == "collapse" and col == "sign")
        )
        out.append((col, zone_bound(lo, ftype), zone_bound(hi, ftype), usable))
    if not bounded:
        raise ValueError("scan needs at least one bound (lo and/or hi)")
    return out


def scan_plan(
    table_dir: str,
    col: str,
    lo=None,
    hi=None,
    epoch: int | None = None,
) -> dict:
    """Single-column plan (see scan_plan_multi)."""
    return scan_plan_multi(table_dir, {col: (lo, hi)}, epoch=epoch)


def scan_plan_multi(
    table_dir: str,
    predicates: dict,
    epoch: int | None = None,
) -> dict:
    """Plan a conjunctive range scan from the manifest only (no parquet I/O).

    ``predicates`` = ``{col: (lo, hi)}`` (inclusive bounds, either side may
    be None; at least one bound overall). A part survives only if EVERY
    usable conjunct's zone overlaps. Returns ``{"partitions": {pid:
    [files]}, "files_total", "files_pruned", "partitions_total",
    "partitions_pruned", "pruned_by_zones": bool}`` — the partitions/files
    the read must open. The plan dict doubles as the pruning evidence the
    spy tests assert on.
    """
    return _plan(load_manifest(table_dir, epoch=epoch), predicates)


def _plan(man, predicates: dict) -> dict:
    """:func:`scan_plan_multi` over the manifest ``man``."""
    preds = _normalize_preds(man, predicates)
    usable = [p for p in preds if p[3]]

    chains: dict[str, list[str]] = {}
    files_total = files_pruned = parts_pruned = 0
    parts_total = 0
    for pid, meta in man.partitions.items():
        files = meta.get("files") or []
        if not files:
            continue
        parts_total += 1
        files_total += len(files)
        if not usable:
            chains[pid] = files
            continue
        zones = meta.get("zones") or {}
        hits = {
            f: all(
                _zone_overlaps((zones.get(f) or {}).get(c), qlo, qhi)
                for c, qlo, qhi, _ in usable
            )
            for f in files
        }
        if not any(hits.values()):
            parts_pruned += 1
            files_pruned += len(files)
            continue
        if man.mode == "append":
            # immutable rows: per-file pruning is sound
            keep = [f for f in files if hits[f]]
            files_pruned += len(files) - len(keep)
            chains[pid] = keep
        else:
            # merge-on-read: the whole chain participates in LWW/sum
            chains[pid] = files
    return {
        "partitions": chains,
        "files_total": files_total,
        "files_pruned": files_pruned,
        "partitions_total": parts_total,
        "partitions_pruned": parts_pruned,
        "pruned_by_zones": bool(usable),
        "mode": man.mode,
    }


def read_where(
    table_dir: str,
    col: str,
    lo=None,
    hi=None,
    columns: list[str] | None = None,
    epoch: int | None = None,
) -> tuple[ray.data.Dataset, dict]:
    """Single-column range scan (see read_where_multi)."""
    return read_where_multi(
        table_dir, {col: (lo, hi)}, columns=columns, epoch=epoch
    )


def read_where_multi(
    table_dir: str,
    predicates: dict,
    columns: list[str] | None = None,
    epoch: int | None = None,
) -> tuple[ray.data.Dataset, dict]:
    """Conjunctive range scan ``WHERE col1 BETWEEN .. AND col2 BETWEEN ..``
    (bounds inclusive, either side of any conjunct may be None) with
    manifest-level skip-index pruning across ALL bounded columns.

    Returns ``(dataset, plan)``; the dataset holds the EXACT predicate
    result (zones only decide which parts open — the row filter always
    runs), optionally projected to ``columns``. The surviving partitions are
    read at call time on the partition runner (``pipelines.apply._scan``),
    no shuffle, so later commits or GC cannot take files from under the
    Dataset.
    """
    from .apply import _scan_dataset

    man = load_manifest(table_dir, epoch=epoch)
    plan = _plan(man, predicates)
    schema = man.schema
    out_schema = (
        pa.schema([schema.field(c) for c in columns]) if columns else schema
    )
    if not plan["partitions"]:
        return ray.data.from_arrow(out_schema.empty_table()), plan

    bounds = []  # (col, lo scalar | None, hi scalar | None) in column types
    for col, (lo, hi) in predicates.items():
        if lo is None and hi is None:
            continue
        ftype = schema.field(col).type
        bounds.append(
            (
                col,
                pa.scalar(lo).cast(ftype) if lo is not None else None,
                pa.scalar(hi).cast(ftype) if hi is not None else None,
            )
        )
    # projection pushdown: fetch the requested columns + every predicate
    # column from parquet (merge keys are added internally); project to the
    # user's columns after the row filter
    cols = list(columns) if columns else None
    read_cols = None
    if cols is not None:
        read_cols = list(dict.fromkeys(cols + [c for c, _, _ in bounds]))
    reader = make_partition_reader(
        table_dir,
        man.schema_b64,
        plan["partitions"],
        mode=man.mode,
        sum_cols=man.sum_cols,
        columns=read_cols,
    )

    def read_and_filter(pids: list[int]) -> pa.Table:
        t = reader(pids)
        mask = None
        for col, slo, shi in bounds:
            c = t.column(col)
            if slo is not None:
                m = pc.greater_equal(c, slo)
                mask = m if mask is None else pc.and_(mask, m)
            if shi is not None:
                m = pc.less_equal(c, shi)
                mask = m if mask is None else pc.and_(mask, m)
        t = t.filter(pc.fill_null(mask, False))
        return t.select(cols) if cols else t

    pids = [int(pid) for pid in plan["partitions"]]
    return _scan_dataset(read_and_filter, man, pids), plan
