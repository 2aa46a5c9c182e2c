"""Incremental materialized views over append-mode tables.

The reference maintains its KPI aggregates as ClickHouse SummingMergeTree
materialized views (/root/reference/etl/clickhouse_schema/kpi_views.sql:4-27,
30-47): every insert into the base fact table folds additively into the
view's summed state. This module runs the same contract on the engine's
manifest/commit machinery:

- an MV registers (group keys, summed measures) against an APPEND table;
- each refresh tick aggregates ONLY the WAL events between the MV's
  committed watermark and the table's committed watermark — O(tick), never
  O(table) — and folds the partial into the persisted state;
- state commits use the same tmp-write + atomic-rename protocol as table
  epochs, so a crashed refresh leaves the old state visible and the next
  refresh redoes the tick idempotently (deterministic bytes).

Scale shape: the per-tick partial is a streamed ``map_batches`` Arrow
``group_by`` combiner (only (keys, sums) rows leave each batch — the
aggregate-first discipline); the persisted state is group-cardinality-sized,
bounded for the KPI-style views this models (dates × types — exactly the
reference's mv_daily_performance shape).

Sums are exact by construction: every measure goes through the fixed-point
integer convention (``CAST(FLOOR(x * scale + 0.5) AS BIGINT)`` on both
engines), so incremental maintenance and a full recompute agree bit-for-bit
regardless of fold order.

Upsert (LWW) tables are supported through a DIFFERENT maintenance scheme:
WAL folding cannot work there (an update/delete would need the OLD row's
values — a retraction the change stream does not carry; the same reason
ClickHouse SummingMergeTree MVs only see inserts). Instead the MV is one of
the table-derived artifacts kept by the shared refresh
(``state.artifacts.refresh_table_partials``): ONE grouped partial aggregate
per table partition under ``mv/<name>/partials/``, recomputed only for the
partitions whose manifest file chain changed since the last tick (identical
chain ⇒ provably identical state) — O(changed partitions), never O(table).
The view is the sum of the partials; updates and tombstoned deletes are
handled by construction because each partial is recomputed from the
partition's merged LWW state.
Fixed-point integer sums make partial replacement exact — incremental
maintenance and a full recompute agree bit-for-bit. Dim enrichment is NOT
supported on upsert MVs: a dim change would silently stale every fact
partial without touching the fact table's chains.

WAL-retention contract: a refresh needs the WAL back to the MV's watermark.
``truncate_wal`` keyed to the TABLE watermark can outrun a lagging MV; the
refresh detects the gap (first pending segment starts past watermark+1) and
fails loudly instead of silently under-counting.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..sources.wal import pending_segments
from ..stages.merge import merge_needed_columns, read_partition_final
from ..state.artifacts import load_meta, partial_files, refresh_table_partials
from ..state.manifest import atomic_json_write, load_manifest
from ..state.registry import file_lock

MV_DIR = "mv"
SPEC_NAME = "mvspec.json"
# append-table ticks at or below this many events run the combiner
# driver-side instead of scheduling read tasks; large catch-up folds run on
# the apply path's read tasks
SMALL_TICK_EVENTS = 500_000


def _mv_dir(table_dir: str, name: str) -> str:
    return os.path.join(table_dir, MV_DIR, name)


def register_mv(
    table_dir: str,
    name: str,
    group_keys: list[str],
    sums: list[dict],
    count_col: str = "n_events",
    date_from: str | None = None,
    enrich: dict | None = None,
    mins: list[dict] | None = None,
    maxs: list[dict] | None = None,
    distincts: list[dict] | None = None,
) -> dict:
    """Register an incremental MV on an append table (idempotent: an
    identical re-registration returns the existing spec; a conflicting one
    is rejected).

    ``sums``: [{"col": <source col>, "scale": <fixed-point scale>,
    "name": <output col>}]. ``date_from``: optional timestamp column from
    which a derived ``event_date`` (%Y-%m-%d) group key is computed — the
    toYYYYMMDD convention of the reference's daily views.

    ``enrich``: optional dim join for group keys — the mv_campaign_ctr shape
    (kpi_views.sql:16-27: fact counts grouped by columns JOINed from a dim
    table): {"table": <upsert table dir>, "on": <fact key col>,
    "add": [<dim cols usable as group keys>]}. Each tick reads the dim's
    CURRENT snapshot keys+cols once (dims are broadcast-small, exactly the
    reference's dim assumption) and maps fact keys vectorized
    (``index_in``/``take``); facts whose key misses the dim get NULL group
    values (the LEFT JOIN convention).

    ``mins`` / ``maxs``: [{"col", "name"}] — EXACT extrema measures. Safe in
    both modes: append-only folding is monotone (an extremum never needs
    retraction when rows are only added), and upsert partials are full
    per-partition recomputes.

    ``distincts``: [{"col", "name", "p": 12}] — approximate COUNT(DISTINCT)
    measures, the reference's own MV semantics (kpi_views.sql:20-22 counts
    DISTINCT impression/click ids) and the ClickHouse AggregatingMergeTree
    ``uniqState``/``uniqMerge`` analog: the state holds 2^p HyperLogLog
    registers per group (``functions/sketch.py``), merged by elementwise max
    — associative + commutative, so incremental ticks produce BIT-IDENTICAL
    registers to a one-shot fold regardless of tick boundaries. ~0.8-1.6 %
    standard error at p=14-12; 2^p bytes of state per group per measure.
    NULLs don't count (the SQL convention).
    """
    man = load_manifest(table_dir)
    if man.mode not in ("append", "upsert"):
        raise ValueError(f"unsupported table mode {man.mode!r} for an MV")
    if man.mode == "upsert" and enrich:
        raise ValueError(
            "dim enrichment is not supported on upsert-table MVs: a dim "
            "change would stale every fact partial without touching the "
            "fact table's file chains — join at read time instead"
        )
    schema_names = set(man.schema.names)
    derived = {"event_date"} if date_from else set()
    if enrich:
        emam = load_manifest(enrich["table"])
        if emam.mode != "upsert":
            raise ValueError("enrich table must be an upsert (dim) table")
        for c in enrich["add"]:
            if c not in emam.schema.names:
                raise ValueError(f"enrich column {c!r} not in dim schema")
        if enrich["on"] not in schema_names:
            raise ValueError(f"enrich join key {enrich['on']!r} not in fact schema")
        derived |= set(enrich["add"])
    for k in group_keys:
        if k not in schema_names and k not in derived:
            raise ValueError(f"group key {k!r} not in table schema")
    for s in sums:
        if s["col"] not in schema_names:
            raise ValueError(f"sum column {s['col']!r} not in table schema")
    for kind, lst in (("min", mins), ("max", maxs), ("distinct", distincts)):
        for m in lst or []:
            if m["col"] not in schema_names:
                raise ValueError(
                    f"{kind} column {m['col']!r} not in table schema"
                )
    for d in distincts or []:
        p = int(d.get("p", 12))
        if not 4 <= p <= 18:
            raise ValueError(f"distinct {d['col']!r}: p={p} out of [4, 18]")
    if date_from and date_from not in schema_names:
        raise ValueError(f"date_from column {date_from!r} not in table schema")
    out_names = [s.get("name", f"sum_{s['col']}") for s in sums] + [count_col]
    out_names += [m.get("name", f"min_{m['col']}") for m in mins or []]
    out_names += [m.get("name", f"max_{m['col']}") for m in maxs or []]
    out_names += [d.get("name", f"uniq_{d['col']}") for d in distincts or []]
    if len(set(out_names)) != len(out_names):
        raise ValueError(f"duplicate measure output names in {out_names}")
    spec = {
        "name": name,
        "table_mode": man.mode,
        "group_keys": list(group_keys),
        "sums": [
            {"col": s["col"], "scale": float(s.get("scale", 1.0)),
             "name": s.get("name", f"sum_{s['col']}")}
            for s in sums
        ],
        "mins": [
            {"col": m["col"], "name": m.get("name", f"min_{m['col']}")}
            for m in mins or []
        ],
        "maxs": [
            {"col": m["col"], "name": m.get("name", f"max_{m['col']}")}
            for m in maxs or []
        ],
        "distincts": [
            {"col": d["col"], "name": d.get("name", f"uniq_{d['col']}"),
             "p": int(d.get("p", 12))}
            for d in distincts or []
        ],
        "count_col": count_col,
        "date_from": date_from,
        "enrich": enrich,
        "watermark_lsn": 0,
        "state_file": None,
        "updated_at": 0.0,
    }
    d = _mv_dir(table_dir, name)
    spec_path = os.path.join(d, SPEC_NAME)
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            existing = json.load(f)
        same = all(
            # `or None` folds [] against a pre-extension spec's missing key
            (existing.get(k) or None) == (spec[k] or None)
            for k in ("group_keys", "sums", "count_col", "date_from",
                      "enrich", "mins", "maxs", "distincts")
        )
        if not same:
            raise ValueError(
                f"MV {name!r} already exists with a different definition — "
                "drop its directory to redefine"
            )
        return existing
    os.makedirs(d, exist_ok=True)
    atomic_json_write(spec_path, spec)
    return spec


def load_mv(table_dir: str, name: str) -> dict:
    """The MV's spec. An upsert MV's ``watermark_epoch`` (-1 before its
    first tick) is the epoch its partials' meta commits."""
    d = _mv_dir(table_dir, name)
    with open(os.path.join(d, SPEC_NAME)) as f:
        spec = json.load(f)
    if spec.get("table_mode") == "upsert":
        meta = load_meta(d, missing_ok=True) or {}
        spec["watermark_epoch"] = meta.get("indexed_epoch", -1)
    return spec


def list_mvs(table_dir: str) -> list[str]:
    root = os.path.join(table_dir, MV_DIR)
    if not os.path.isdir(root):
        return []
    return sorted(
        n for n in os.listdir(root)
        if os.path.exists(os.path.join(root, n, SPEC_NAME))
    )


def _group_key_types(table_dir: str, spec: dict) -> dict[str, pa.DataType]:
    """Arrow type per group key: base columns from the table schema, enrich
    columns from the dim's schema, the derived event_date as string — so the
    pre-first-tick empty state is CORRECTLY typed (an all-string empty frame
    would coerce a numeric key to object dtype in the first tick's concat)."""
    man = load_manifest(table_dir)
    enrich_types: dict[str, pa.DataType] = {}
    if spec.get("enrich"):
        e = spec["enrich"]
        try:
            dim_schema = load_manifest(e["table"]).schema
            enrich_types = {c: dim_schema.field(c).type for c in e["add"]}
        except (FileNotFoundError, OSError):
            # the dim may live elsewhere (absolute path, possibly cleaned
            # scratch); a missing dim must not break inspecting the MV's own
            # (empty) state — only a refresh tick genuinely needs the dim.
            enrich_types = {c: pa.string() for c in e["add"]}
    out: dict[str, pa.DataType] = {}
    for k in spec["group_keys"]:
        if k in enrich_types:
            out[k] = enrich_types[k]
        elif k == "event_date" and spec.get("date_from"):
            out[k] = pa.string()
        else:
            out[k] = man.schema.field(k).type
    return out


def _public_columns(spec: dict) -> list[str]:
    """Canonical read_mv column order: keys, sums, count, mins, maxs, uniqs."""
    return (
        list(spec["group_keys"])
        + [s["name"] for s in spec["sums"]]
        + [spec["count_col"]]
        + [m["name"] for m in spec.get("mins") or []]
        + [m["name"] for m in spec.get("maxs") or []]
        + [d["name"] for d in spec.get("distincts") or []]
    )


def _state_to_public(state: pd.DataFrame, spec: dict) -> pa.Table:
    """Committed state → the public view: HLL register blobs become rounded
    ``uniq`` estimates (int64), internal columns are dropped."""
    from ..functions.sketch import HyperLogLog

    out = state.copy()
    for d in spec.get("distincts") or []:
        p = int(d.get("p", 12))
        out[d["name"]] = [
            int(round(HyperLogLog(p, np.frombuffer(b, np.uint8).copy()).estimate()))
            for b in out[_regs_col(d["name"])]
        ]
        out[d["name"]] = out[d["name"]].astype("int64")
    return pa.Table.from_pandas(
        out[_public_columns(spec)], preserve_index=False
    )


def _empty_state(table_dir: str, spec: dict, raw: bool):
    """Typed pre-first-tick state: raw=True → DataFrame with register blob
    columns (the refresh fold input); raw=False → the public Arrow table."""
    key_types = _group_key_types(table_dir, spec)
    man = load_manifest(table_dir)
    fields = [pa.field(k, key_types[k]) for k in spec["group_keys"]]
    fields += [pa.field(s["name"], pa.int64()) for s in spec["sums"]]
    fields.append(pa.field(spec["count_col"], pa.int64()))
    for m in (spec.get("mins") or []) + (spec.get("maxs") or []):
        fields.append(pa.field(m["name"], man.schema.field(m["col"]).type))
    empty = pa.table({f.name: pa.array([], f.type) for f in fields})
    if not raw:
        for d in spec.get("distincts") or []:
            empty = empty.append_column(d["name"], pa.array([], pa.int64()))
        return empty
    df = empty.to_pandas()
    for d in spec.get("distincts") or []:
        df[_regs_col(d["name"])] = pd.Series([], dtype=object)
    return df


def _state_raw(table_dir: str, name: str, spec: dict | None = None) -> pd.DataFrame:
    """Committed state INCLUDING internal register-blob columns — the
    refresh fold input. Upsert MVs: the fold of the per-partition partials
    (O(partitions × groups) driver work on group-cardinality rows, never a
    table read)."""
    spec = spec or load_mv(table_dir, name)
    d = _mv_dir(table_dir, name)
    if spec.get("table_mode", "append") == "upsert":
        meta = load_meta(d, missing_ok=True)
        files = partial_files(d, meta) if meta else []
        if files:
            return _combine_states(
                [pq.read_table(f).to_pandas() for f in files], spec
            )
        return _empty_state(table_dir, spec, raw=True)
    if spec["state_file"]:
        return pq.read_table(os.path.join(d, spec["state_file"])).to_pandas()
    return _empty_state(table_dir, spec, raw=True)


def read_mv(table_dir: str, name: str) -> pa.Table:
    """Current committed MV state (empty-but-typed before the first tick).
    Distinct measures surface as rounded HLL estimates; the register blobs
    stay internal."""
    spec = load_mv(table_dir, name)
    if (
        spec.get("table_mode", "append") != "upsert"
        and not spec["state_file"]
    ):
        return _empty_state(table_dir, spec, raw=False)
    state = _state_raw(table_dir, name, spec)
    if not len(state):
        return _empty_state(table_dir, spec, raw=False)
    return _state_to_public(state, spec)


def _tick_columns(spec: dict) -> list[str]:
    """The ONLY columns a refresh tick needs from the WAL: lsn, the
    non-derived group keys, the date/enrich source columns, and the summed
    measures. Threaded into both the driver fast-path reads and the
    distributed read so a tick never decodes unrelated payload columns."""
    enrich = spec.get("enrich") or {}
    derived = set(enrich.get("add") or [])
    need = {"lsn"}
    for k in spec["group_keys"]:
        if k in derived or (k == "event_date" and spec.get("date_from")):
            continue
        need.add(k)
    need.update(s["col"] for s in spec["sums"])
    need.update(m["col"] for m in spec.get("mins") or [])
    need.update(m["col"] for m in spec.get("maxs") or [])
    need.update(d["col"] for d in spec.get("distincts") or [])
    if spec.get("date_from"):
        need.add(spec["date_from"])
    if enrich:
        need.add(enrich["on"])
    return sorted(need)


def _regs_col(name: str) -> str:
    """Internal state column holding a distinct measure's HLL registers."""
    return f"__{name}_regs"


def _agg_plan(spec: dict) -> dict:
    """How each persisted state column combines across partials/ticks."""
    plan = {s["name"]: "sum" for s in spec["sums"]}
    plan[spec["count_col"]] = "sum"
    plan.update({m["name"]: "min" for m in spec.get("mins") or []})
    plan.update({m["name"]: "max" for m in spec.get("maxs") or []})
    return plan


def _merge_reg_blobs(blobs) -> bytes:
    """Elementwise-max fold of HLL register blobs (associative/commutative —
    tick boundaries can never change the result)."""
    out = None
    for b in blobs:
        a = np.frombuffer(b, dtype=np.uint8)
        out = a.copy() if out is None else np.maximum(out, a, out=out)
    return out.tobytes()


def _combine_states(frames: list[pd.DataFrame], spec: dict) -> pd.DataFrame:
    """Fold state/partial frames into the canonical committed state: group
    keys → summed/extremal measures + max-merged HLL registers, sorted by
    key. dropna=False: a NULL group key (enrich miss / evolved column) is
    real state."""
    keys = spec["group_keys"]
    plan = _agg_plan(spec)
    agg = dict(plan)
    for d in spec.get("distincts") or []:
        agg[_regs_col(d["name"])] = _merge_reg_blobs
    merged = pd.concat(frames, ignore_index=True)
    out = merged.groupby(keys, as_index=False, dropna=False).agg(agg)
    for s in spec["sums"]:
        out[s["name"]] = out[s["name"]].astype("int64")
    out[spec["count_col"]] = out[spec["count_col"]].astype("int64")
    return out.sort_values(keys).reset_index(drop=True)


def _read_dim_columns(table_dir: str, cols: list[str]) -> pa.Table:
    """Merged table snapshot restricted to ``cols`` (plus the mode's merge
    keys) across all partitions — column-pruned, user-facing reads.
    Replaces the full ``snapshot_table`` read (a tests/small-tables API) on
    the enrichment path."""
    man = load_manifest(table_dir)
    parts = []
    for pid in sorted(man.partitions, key=int):
        files = man.partitions[pid].get("files") or []
        if not files:
            continue
        t = read_partition_final(
            table_dir, files, man.schema, man.mode, man.sum_cols, columns=cols
        )
        if t.num_rows:
            parts.append(t)
    if not parts:
        return merge_needed_columns(man.schema, cols, man.mode)[0].empty_table()
    return pa.concat_tables(parts, promote_options="none")


def _tick_partial(
    spec: dict,
    lo: int | None = None,
    hi: int | None = None,
    enrich_map: tuple | None = None,
):
    """Per-batch combiner: fixed-point measures + derived date key + dim
    enrichment, then an Arrow group_by — only (keys, sums) rows leave the
    batch. ``enrich_map`` = (dim key array, {col: dim value array}) captured
    once per tick (broadcast-small dim assumption). ``lo``/``hi`` bound the
    folded LSN window (append-table WAL ticks); ``lo=None`` folds every row
    (upsert-table partition partials, where the input is already the
    partition's merged live state)."""
    keys = spec["group_keys"]
    sums = spec["sums"]
    count_col = spec["count_col"]
    date_from = spec["date_from"]
    enrich = spec.get("enrich")

    def partial(b: pa.Table) -> pa.Table:
        if lo is not None:
            lsn = b.column("lsn")
            b = b.filter(
                pc.and_(
                    pc.greater(lsn, pa.scalar(lo)),
                    pc.less_equal(lsn, pa.scalar(hi)),
                )
            )
        enriched = {}
        if enrich and enrich_map is not None:
            dim_keys, dim_cols = enrich_map
            pos = pc.index_in(b.column(enrich["on"]), dim_keys)
            enriched = {c: pc.take(v, pos) for c, v in dim_cols.items()}
        cols = {}
        for k in keys:
            if k in enriched:
                cols[k] = enriched[k]
            elif k == "event_date" and date_from:
                cols[k] = pc.strftime(
                    b.column(date_from).cast(pa.timestamp("s")), format="%Y-%m-%d"
                )
            else:
                cols[k] = b.column(k)
        for s in sums:
            v = pc.multiply(b.column(s["col"]).cast(pa.float64()), s["scale"])
            cols[s["name"]] = pc.floor(pc.add(v, 0.5)).cast(pa.int64())
        for m in spec.get("mins") or []:
            cols[m["name"]] = b.column(m["col"])
        for m in spec.get("maxs") or []:
            cols[m["name"]] = b.column(m["col"])
        distincts = spec.get("distincts") or []
        t = pa.table(cols)
        t = t.append_column(count_col, pa.nulls(t.num_rows, pa.int64()).fill_null(1))
        if distincts:
            # HLL register blobs need raw per-group values — one pandas
            # named-agg pass computes every measure AND the blobs in group
            # lockstep (only distinct-measured MVs pay this; the pure-sum
            # path below stays zero-copy Arrow).
            #
            # Hashes are computed from the ARROW column BEFORE the pandas
            # conversion: to_pandas turns int-with-nulls into float64, and
            # hash_array(float64) != hash_array(int64) for the same value —
            # a batch's null content must never change which register a
            # value lands in (the tick-boundary-invariance contract).
            from pandas.util import hash_array

            from ..functions.sketch import HyperLogLog

            hash_cols = {}
            for d_ in distincts:
                a = b.column(d_["col"]).combine_chunks()
                valid = pc.is_valid(a).to_numpy(zero_copy_only=False)
                if pa.types.is_integer(a.type):
                    vals = a.fill_null(0).cast(pa.int64()).to_numpy()
                elif pa.types.is_floating(a.type):
                    vals = a.fill_null(0.0).cast(pa.float64()).to_numpy()
                else:
                    vals = a.cast(pa.string()).fill_null("").to_numpy(
                        zero_copy_only=False
                    ).astype(object)
                h = hash_array(vals, categorize=False).astype(np.uint64)
                ser = pd.array(h, dtype="UInt64")
                ser[~valid] = pd.NA
                hash_cols[_regs_col(d_["name"])] = ser
            agg_map: dict = dict(_agg_plan(spec))
            for d_ in distincts:
                p_ = int(d_.get("p", 12))

                def blobfn(s, _p=p_):
                    return (
                        HyperLogLog(_p)
                        .add_hashed(s.dropna().to_numpy(dtype=np.uint64))
                        .registers.tobytes()
                    )

                agg_map[_regs_col(d_["name"])] = blobfn
            df = t.to_pandas()
            for c, arr in hash_cols.items():
                df[c] = arr
            out = df.groupby(keys, as_index=False, dropna=False).agg(agg_map)
            # pandas degrades int-with-nulls to float64 — restore every
            # column's ARROW type so partials are schema-stable across
            # batches/segments regardless of null content
            target = pa.schema(
                [t.schema.field(k) for k in keys]
                + [pa.field(c, pa.int64()) for c in
                   [s["name"] for s in sums] + [count_col]]
                + [pa.field(m["name"], t.schema.field(m["name"]).type)
                   for m in (spec.get("mins") or []) + (spec.get("maxs") or [])]
                + [pa.field(_regs_col(d_["name"]), pa.binary())
                   for d_ in distincts]
            )
            for f in target:
                if pa.types.is_integer(f.type) and out[f.name].dtype.kind == "f":
                    out[f.name] = out[f.name].astype("Int64")
            return pa.Table.from_pandas(
                out[target.names], schema=target, preserve_index=False
            )
        plan = _agg_plan(spec)
        agg = t.group_by(keys).aggregate(list(plan.items()))
        names = {f"{c}_{how}": c for c, how in plan.items()}
        return agg.rename_columns([names.get(n, n) for n in agg.column_names])

    return partial


def refresh_mv(table_dir: str, wal_dir: str | None, name: str) -> dict | None:
    """One maintenance tick. Append tables: fold WAL events in (mv
    watermark, table watermark] into the persisted state. Upsert tables:
    recompute the grouped partial of every partition whose file chain
    changed since the last tick (``wal_dir`` unused). Returns tick stats, or
    None when the MV is caught up. Ray must already be initialized.

    Concurrent refreshes of one MV take turns on the MV's lock file (its
    state is published by rename, outside the table's manifest commit); the
    table itself stays writable meanwhile."""
    with file_lock(os.path.join(_mv_dir(table_dir, name), "refresh.lock")):
        spec = load_mv(table_dir, name)
        if spec.get("table_mode", "append") == "upsert":
            return _refresh_upsert_mv_locked(table_dir, name)
        return _refresh_mv_locked(table_dir, wal_dir, name)


def _refresh_upsert_mv_locked(table_dir: str, name: str) -> dict | None:
    """Partition-incremental maintenance for an upsert-table MV: the shared
    artifact refresh over ``mv/<name>/``, each partition's partial the
    grouped aggregate of its merged LWW state (column-pruned read: group
    keys + measures only). Updates and deletes need no retractions — the
    recompute sees only live rows; a repartition rebuilds every partial."""
    t0 = time.perf_counter()
    spec = load_mv(table_dir, name)
    partial_fn = _tick_partial(spec)
    res = refresh_table_partials(
        table_dir, _mv_dir(table_dir, name), {"artifact": "mv"}, partial_fn,
        # columns a partial needs: non-derived group keys + measure sources
        # + the date_from source (never the wide payload)
        columns=[c for c in _tick_columns(spec) if c != "lsn"],
    )
    changed = res["refreshed_pids"]
    if not changed and res["indexed_epoch"] == spec["watermark_epoch"]:
        return None
    return {
        "mv": name,
        "epoch": res["indexed_epoch"],
        "changed_pids": len(changed),
        # no partial changed — don't pay a state fold just for a log field
        "groups": int(read_mv(table_dir, name).num_rows) if changed else None,
        "wall_s": round(time.perf_counter() - t0, 4),
    }


def _refresh_mv_locked(table_dir: str, wal_dir: str, name: str) -> dict | None:
    from .apply import _read_on_tasks, _read_pieces

    t0 = time.perf_counter()
    spec = load_mv(table_dir, name)
    man = load_manifest(table_dir)
    lo, hi = int(spec["watermark_lsn"]), int(man.watermark)
    if hi <= lo:
        return None
    segs = [s for s in pending_segments(wal_dir, lo) if s.first_lsn <= hi]
    if not segs or segs[0].first_lsn > lo + 1:
        raise ValueError(
            f"MV {name!r} needs WAL events from lsn {lo + 1} but the first "
            f"pending segment starts at "
            f"{segs[0].first_lsn if segs else 'nothing'} — the WAL was "
            "truncated past the MV watermark; rebuild the view"
        )

    enrich_map = None
    if spec.get("enrich"):
        e = spec["enrich"]
        # the dim's CURRENT committed state, key + enrich columns ONLY — a
        # column-pruned merged read per tick (dims are broadcast-small; the
        # reference's MVs lean on the same), never the full snapshot
        dim_key = load_manifest(e["table"]).key_col
        dim = _read_dim_columns(e["table"], [dim_key, *e["add"]])
        enrich_map = (
            dim.column(dim_key).combine_chunks(),
            {c: dim.column(c).combine_chunks() for c in e["add"]},
        )

    partial_fn = _tick_partial(spec, lo, hi, enrich_map)
    tick_cols = _tick_columns(spec)
    tick_events = sum(s.last_lsn - s.first_lsn + 1 for s in segs)
    # A tick can span a WAL schema evolution: pre-evolution segments lack
    # newly added columns, and projecting an absent column from parquet
    # raises. Both paths read only the columns each FILE has, then null-fill
    # the gap (the apply path's unify+cast convention), so an MV over an
    # evolved column folds pre-evolution rows into the NULL group.
    from ..schemas import unify
    from ..sources.wal import segment_schema

    ref = unify([segment_schema(s) for s in segs])

    def conform(b: pa.Table) -> pa.Table:
        for c in tick_cols:
            if c not in b.column_names:
                b = b.append_column(c, pa.nulls(b.num_rows, ref.field(c).type))
        return b

    def tick_partial(b: pa.Table) -> pa.Table:
        return partial_fn(conform(b))

    if tick_events <= SMALL_TICK_EVENTS:
        # latency fast path: for a small tick (the steady-state case:
        # refresh-per-epoch over micro-batches) reading the few segments on
        # the driver beats scheduling read tasks. Identical results by
        # construction (one shared reader and partial fn); the read tasks
        # take over when a lagging MV catches up over a large WAL span.
        # Both paths read only the tick's needed columns.
        parts = _read_pieces([(s.path, None) for s in segs], tick_partial, tick_cols)
    else:
        refs = _read_on_tasks(segs, tick_partial, columns=tick_cols)
        parts = pa.concat_tables(
            ray.get([r for (r,) in refs]), promote_options="permissive"
        )
    parts = parts.to_pandas()
    prev = _state_raw(table_dir, name, spec)
    # dropna=False inside: an enriched group key is NULL when the dim misses
    # the fact's key (LEFT JOIN convention) — those groups are real state
    out = _combine_states([prev, parts], spec)

    # ---- commit: state parquet (tmp + rename), then atomic spec swap ----
    d = _mv_dir(table_dir, name)
    state_name = f"state-{hi:012d}.parquet"
    tmp = os.path.join(d, f"{state_name}.tmp.{os.getpid()}")
    pq.write_table(pa.Table.from_pandas(out, preserve_index=False), tmp,
                   compression="zstd")
    os.replace(tmp, os.path.join(d, state_name))
    old_state = spec["state_file"]
    spec.update(
        {"watermark_lsn": hi, "state_file": state_name, "updated_at": time.time()}
    )
    atomic_json_write(os.path.join(d, SPEC_NAME), spec)
    if old_state and old_state != state_name:
        try:
            os.remove(os.path.join(d, old_state))
        except FileNotFoundError:
            pass
    return {
        "mv": name,
        "from_lsn": lo,
        "to_lsn": hi,
        "groups": int(len(out)),
        "wall_s": round(time.perf_counter() - t0, 4),
    }
