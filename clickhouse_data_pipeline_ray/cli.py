"""CLI entry points (the analog of the reference's service mains: the
`etl/main.py` CLI flags and the `seeder/main.py` subcommands).

Every subcommand is one row of ``COMMANDS``: name, help, arguments and a
handler ``fn(args) -> exit code``. ``build_parser`` turns the rows into
argparse subparsers and dispatches through ``set_defaults``. ``main`` alone
owns what the rows share:

- the Ray session (the library never starts one): a row marked ``ray``
  gets a session before its handler runs, and ``main`` shuts down only a
  session it started itself, so a caller's live session survives;
- the ``--output`` guard: a row marked ``writes_parts`` refuses an output
  directory that already holds parquet files (a second run would mix its
  parts with the first run's);
- one-line errors for operator mistakes.

    python -m clickhouse_data_pipeline_ray.cli init  --table /tmp/t --num-partitions 64
    python -m clickhouse_data_pipeline_ray.cli gen   --wal /tmp/wal --events 100000
    python -m clickhouse_data_pipeline_ray.cli apply --table /tmp/t --wal /tmp/wal --follow
    python -m clickhouse_data_pipeline_ray.cli kpi   --table /tmp/t
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

# --- shared helpers ---------------------------------------------------------


def _csv(s: str | None) -> list[str]:
    return [x for x in (s or "").split(",") if x]


def _wall(args) -> float:
    """Seconds since dispatch (after the session start)."""
    return round(time.perf_counter() - args.t0, 3)


def _read(path: str, columns: list[str] | None = None):
    import ray.data as rd

    return rd.read_parquet(path, columns=columns)


def _sf(args, name: str = "documents", columns: list[str] | None = None):
    """A testdata table of ``--sf-dir`` as a Dataset."""
    return _read(os.path.join(args.sf_dir, f"{name}.parquet"), columns)


def _holds_parts(path: str) -> bool:
    return os.path.isdir(path) and any(
        f.endswith(".parquet") for f in os.listdir(path)
    )


def _sink(ds, output: str | None):
    """Stream ``ds`` to ``output`` (when given) and return a Dataset over
    the written files, so a summary executes the pipeline once. None = the
    written dataset was empty (no parquet files to re-open)."""
    if not output:
        return ds
    ds.write_parquet(output)
    has_files = any(
        f.endswith(".parquet") for _r, _d, fs in os.walk(output) for f in fs
    )
    return _read(output) if has_files else None


def _write_part(table, output: str) -> None:
    """A driver-side result as the single part of ``output``."""
    import pyarrow.parquet as pq

    os.makedirs(output, exist_ok=True)
    pq.write_table(table, os.path.join(output, "part-00000.parquet"))


def _typed(schema, col: str, s: str | None):
    """A CLI bound or value cast to ``col``'s numeric type; "" is None and
    other types stay strings (timestamps cast from ISO strings
    downstream)."""
    if s in (None, ""):
        return None
    if col in schema.names:
        import pyarrow as pa

        t = schema.field(col).type
        if pa.types.is_integer(t):
            return int(s)
        if pa.types.is_floating(t):
            return float(s)
    return s


def _new_table_layout(mode: str, schema_name: str | None, key_col: str | None):
    """(schema name, schema, key column) of a new table: docs for upsert,
    facts otherwise unless named; collapse adds its ``sign`` column; an
    append fact table keys on ``event_id`` unless a key is given."""
    import pyarrow as pa

    from .schemas import FACT_SNAPSHOT_SCHEMA, SNAPSHOT_SCHEMA

    name = schema_name or ("docs" if mode == "upsert" else "facts")
    schema = FACT_SNAPSHOT_SCHEMA if name == "facts" else SNAPSHOT_SCHEMA
    if mode == "collapse" and "sign" not in schema.names:
        schema = schema.append(pa.field("sign", pa.int32()))
    if key_col is None:
        key_col = "event_id" if name == "facts" and mode == "append" else "doc_id"
    return name, schema, key_col


def _month_spec(ts_col: str | None) -> dict | None:
    return {"kind": "time", "col": ts_col, "granularity": "month"} if ts_col else None


# --- tables -----------------------------------------------------------------


def _init(args) -> int:
    from .pipelines.apply import create_table

    # the parser's --key-col default is doc_id: that default means "choose"
    schema_name, schema, key_col = _new_table_layout(
        args.mode, args.schema, None if args.key_col == "doc_id" else args.key_col
    )
    ev_col = args.event_time_col
    if ev_col is None and schema_name == "facts":
        ev_col = "event_ts"
    man = create_table(
        args.table, num_partitions=args.num_partitions, schema=schema,
        mode=args.mode, key_col=key_col,
        partition_spec=_month_spec(args.partition_by_month),
        retention=args.retention, event_time_col=ev_col or "",
        sum_cols=_csv(args.sum_cols) if args.mode == "sum" else None,
        skip_cols=_csv(args.skip_cols) or None,
    )
    print(json.dumps({"table": args.table, "epoch": man.epoch, "mode": man.mode,
                      "partition_spec": man.spec,
                      "num_partitions": man.num_partitions}))
    return 0


def _gen(args) -> int:
    from .sources.gen import (
        FactGenParams,
        GenParams,
        generate_fact_wal,
        generate_wal,
    )

    if args.facts:
        paths = generate_fact_wal(args.wal, FactGenParams(
            total_events=args.events,
            events_per_segment=args.events_per_segment,
            seed=args.seed,
        ))
        print(json.dumps({"wal": args.wal, "segments": len(paths),
                          "events": args.events, "facts": True}))
        return 0
    params = GenParams(
        total_events=args.events,
        base_events=args.base_events if args.base_events is not None else args.events // 4,
        events_per_segment=args.events_per_segment,
        mix=tuple(float(x) for x in args.mix.split(",")),
        seed=args.seed,
        zipf_a=args.zipf_a,
        hot_frac=args.hot_frac,
        tok_min=args.tok_min,
        tok_max=args.tok_max,
        evolve_frac=args.evolve_frac,
        fmt=args.format,
        segments_per_shard=args.segments_per_shard,
    )
    paths = generate_wal(args.wal, params, parallel=args.parallel)
    print(json.dumps({"wal": args.wal, "segments": len(paths),
                      "events": args.events}))
    return 0


def _apply(args) -> int:
    from .pipelines.apply import ApplyConfig, apply_once

    cfg = ApplyConfig(
        max_segments=args.epoch_segments,
        salt_factor=args.salt_factor,
        hot_ratio=args.hot_ratio,
        compact_threshold=args.compact_threshold,
        allowed_lateness_s=args.allowed_lateness,
        dlq_dir=args.dlq,
        auto_compact_ratio=args.auto_compact,
    )
    while True:
        stats = apply_once(args.table, args.wal, cfg)
        if stats:
            print(json.dumps(stats))
            if args.auto_compact is not None:
                from .pipelines.apply import compact_table

                cstats = compact_table(args.table, size_ratio=args.auto_compact)
                if cstats:
                    print(json.dumps(cstats))
            if args.refresh_mvs:
                from .pipelines.mv import list_mvs, refresh_mv

                for name in list_mvs(args.table):
                    tick = refresh_mv(args.table, args.wal, name)
                    if tick:
                        print(json.dumps(tick))
            if args.refresh_artifacts:
                from .state.artifacts import refresh_artifacts

                res = refresh_artifacts(args.table)
                if res:
                    print(json.dumps({"artifacts": res}))
        if args.once or (stats is None and not args.follow):
            return 0
        if stats is None:
            time.sleep(args.interval)


def _compact(args) -> int:
    from .pipelines.apply import compact_table

    stats = compact_table(args.table, size_ratio=args.size_ratio)
    print(json.dumps(stats if stats else {"compacted": 0, "clean": True}))
    return 0


def _ttl_expire(args) -> int:
    from .pipelines.apply import ttl_expire

    stats = ttl_expire(args.table, args.col, args.cutoff)
    print(json.dumps(stats if stats else {"rows_expired": 0, "clean": True}))
    return 0


def _import(args) -> int:
    from .pipelines.apply import import_base

    print(json.dumps(import_base(args.table, args.parquet, key_col=args.key_col)))
    return 0


def _repartition(args) -> int:
    from .pipelines.apply import repartition_table

    print(json.dumps(repartition_table(args.table, args.num_partitions)))
    return 0


def _truncate_wal(args) -> int:
    from .sources.wal import truncate_wal
    from .state.manifest import load_manifest

    removed = truncate_wal(args.wal, load_manifest(args.table).watermark)
    print(json.dumps({"removed_segments": len(removed)}))
    return 0


def _mutate(args) -> int:
    from .pipelines.apply import mutate_table
    from .state.manifest import load_manifest

    schema = load_manifest(args.table).schema
    col, lo, hi = args.where.split(":", 2)
    set_cols = {
        name: _typed(schema, name, val)
        for name, _, val in (item.partition("=") for item in args.set)
    }
    out = mutate_table(
        args.table, col, _typed(schema, col, lo), _typed(schema, col, hi),
        delete=args.delete, set_cols=set_cols or None,
    )
    print(json.dumps(out if out is not None
                     else {"mutated": False, "reason": "no rows matched"}))
    return 0


# --- lake registry ------------------------------------------------------------


def _register(args) -> int:
    from .state import registry as R

    _name, schema, key_col = _new_table_layout(args.mode, args.schema, args.key_col)
    s = R.register_table(
        args.root, args.name, schema, key_col=key_col, mode=args.mode,
        partition_spec=_month_spec(args.partition_by_month),
        num_partitions=args.num_partitions,
        depends_on=tuple(_csv(args.depends_on)),
        sum_cols=tuple(_csv(args.sum_cols)),
    )
    print(json.dumps({"registered": s.name, "mode": s.mode,
                      "key_col": s.key_col, "partition_spec": s.partition_spec,
                      "depends_on": list(s.depends_on)}))
    return 0


def _sync(args) -> int:
    from .pipelines.apply import ApplyConfig
    from .state import registry as R

    wals = {
        name: wal
        for name in R.load_registry(args.root)
        if os.path.isdir(wal := os.path.join(args.wal_root, name))
    }
    out = R.sync_all(args.root, wals, ApplyConfig(max_segments=args.epoch_segments))
    for line in out:
        print(json.dumps(line))
    return 0 if not any("error" in o for o in out) else 1


def _registry_status(args) -> int:
    from .state import registry as R

    print(json.dumps(R.registry_status(args.root)))
    return 0


def _lake_status(args) -> int:
    from .state import registry as R

    print(json.dumps({
        "current": R.load_lake(args.root),
        "retained": R.lake_epochs(args.root),
    }))
    return 0


# --- reads and reports ------------------------------------------------------


def _kpi(args) -> int:
    from .pipelines.kpi import kpi_report

    print(json.dumps(kpi_report(args.table, epoch=args.epoch), default=str))
    return 0


def _status(args) -> int:
    from .pipelines.mv import list_mvs, load_mv
    from .state.manifest import load_manifest, retained_epochs

    man = load_manifest(args.table)
    dirty = sum(
        1 for p in man.partitions.values() if not p.get("exact_rows", True)
    )
    doc = {
        "epoch": man.epoch,
        "num_partitions": man.num_partitions,
        "watermark": man.watermark,
        # exact after compaction; a lower bound while delta chains
        # are pending (run `compact` for an exact count)
        "rows": man.total_rows(),
        "rows_exact": dirty == 0,
        "partitions_with_pending_deltas": dirty,
        "retained_epochs": retained_epochs(args.table),
        "schema": str(man.schema).replace("\n", ", "),
        "last": man.history[-1] if man.history else None,
    }
    if man.event_time_col:
        doc["event_time_col"] = man.event_time_col
        doc["event_time_watermark_us"] = man.event_time_watermark_us
    mvs = list_mvs(args.table)
    if mvs:
        doc["mvs"] = {}
        for n in mvs:
            mspec = load_mv(args.table, n)
            if mspec.get("table_mode", "append") == "upsert":
                # upsert MVs track progress by EPOCH (partition-partial
                # maintenance), not WAL lsn — lag is epochs behind
                we = mspec.get("watermark_epoch", -1)
                doc["mvs"][n] = {
                    "watermark_epoch": we,
                    "lag_epochs": man.epoch - we,
                }
            else:
                wm = mspec["watermark_lsn"]
                doc["mvs"][n] = {
                    "watermark_lsn": wm,
                    "lag_events": man.watermark - wm,
                }
    print(json.dumps(doc))
    return 0


def _fsck(args) -> int:
    from .state.fsck import fsck_table

    report = fsck_table(args.table, repair=args.repair)
    print(json.dumps(report))
    return 0 if report["ok"] else 1


def _scan(args) -> int:
    from .pipelines.scan import read_where_multi
    from .state.manifest import load_manifest

    schema = load_manifest(args.table).schema
    preds = {
        col: (_typed(schema, col, lo), _typed(schema, col, hi))
        for col, lo, hi in [(args.col, args.lo, args.hi)]
        + [spec.split(":", 2) for spec in args.and_preds]
    }
    ds, plan = read_where_multi(
        args.table, preds, columns=_csv(args.columns) or None, epoch=args.epoch
    )
    n = ds.count()
    sample = ds.limit(args.limit).to_pandas() if n else None
    print(json.dumps({
        "rows": int(n),
        "partitions_scanned": len(plan["partitions"]),
        "partitions_pruned": plan["partitions_pruned"],
        "files_total": plan["files_total"],
        "files_pruned": plan["files_pruned"],
        "pruned_by_zones": plan["pruned_by_zones"],
    }))
    if sample is not None:
        print(sample.to_string(index=False))
    return 0


def _get(args) -> int:
    from .pipelines.lookup import lookup_keys

    t = lookup_keys(args.table, _csv(args.keys), epoch=args.epoch)
    print(json.dumps({"rows": t.num_rows, "columns": t.column_names}))
    if t.num_rows:
        print(t.to_pandas().to_string(index=False))
    return 0


def _diff(args) -> int:
    from .pipelines.diff import changed_partitions, table_diff

    head = {
        "from_epoch": args.from_epoch, "to_epoch": args.to_epoch,
        "changed_partitions": len(
            changed_partitions(args.table, args.from_epoch, args.to_epoch)
        ),
    }
    ds = table_diff(args.table, args.from_epoch, args.to_epoch)
    if args.output:
        ds.write_parquet(args.output)
        print(json.dumps({**head, "output": args.output}))
        return 0
    import pandas as pd

    with pd.option_context("display.width", 200):
        rows = ds.limit(args.limit).to_pandas()
        print(json.dumps({**head, "columns": list(rows.columns)}))
        print(rows.to_string(index=False))
    return 0


# --- materialized views and artifacts ------------------------------------------


def _measures(raw: str, what: str, keys: tuple, casts: dict | None = None):
    """``--<what>`` entries (comma-separated, colon-separated fields) as
    dicts keyed by ``keys``, each field cast per ``casts``."""
    usage = ":".join("outname" if k == "name" else k for k in keys)
    out = []
    for item in _csv(raw):
        parts = item.split(":")
        if len(parts) != len(keys):
            raise ValueError(f"--{what} entry {item!r} must be {usage}")
        out.append({k: (casts or {}).get(k, str)(v) for k, v in zip(keys, parts)})
    return out


def _mv_register(args) -> int:
    from .pipelines.mv import register_mv

    spec = register_mv(
        args.table, args.name,
        group_keys=_csv(args.group_keys),
        sums=_measures(args.sums, "sums", ("col", "scale", "name"),
                       {"scale": float}),
        date_from=args.date_from,
        mins=_measures(args.mins, "mins", ("col", "name")),
        maxs=_measures(args.maxs, "maxs", ("col", "name")),
        distincts=_measures(args.distincts, "distincts", ("col", "p", "name"),
                            {"p": int}),
    )
    # .get(): an idempotent re-registration returns the EXISTING spec,
    # which may predate the mins/maxs/distincts extension
    print(json.dumps({"mv": spec["name"], "group_keys": spec["group_keys"],
                      "sums": spec["sums"], "mins": spec.get("mins", []),
                      "maxs": spec.get("maxs", []),
                      "distincts": spec.get("distincts", []),
                      "watermark_lsn": spec["watermark_lsn"]}))
    return 0


def _mv_refresh(args) -> int:
    from .pipelines.mv import list_mvs, refresh_mv

    names = [args.name] if args.name else list_mvs(args.table)
    if not names:
        print(json.dumps({"refreshed": 0, "note": "no MVs registered"}))
        return 0
    for name in names:
        tick = refresh_mv(args.table, args.wal, name)
        print(json.dumps(tick if tick else {"mv": name, "caught_up": True}))
    return 0


def _has_mvs(args) -> bool:
    from .pipelines.mv import list_mvs

    return bool(args.name or list_mvs(args.table))


def _mv_read(args) -> int:
    from .pipelines.mv import read_mv

    t = read_mv(args.table, args.name)
    print(json.dumps({"mv": args.name, "groups": t.num_rows,
                      "columns": t.column_names}))
    print(t.to_pandas().head(args.limit).to_string(index=False))
    return 0


def _artifact_register(args) -> int:
    from .state.artifacts import register_artifact

    params = {}
    for kv in args.param:
        k, eq, v = kv.partition("=")
        if not eq:
            raise ValueError(f"--param needs key=value, got {kv!r}")
        if v.lower() in ("true", "false"):
            params[k] = v.lower() == "true"
        else:
            try:
                params[k] = int(v)
            except ValueError:
                try:
                    params[k] = float(v)
                except ValueError:
                    params[k] = v
    spec = register_artifact(args.table, args.name, args.kind, args.dest, params)
    print(json.dumps({"name": args.name, **spec}))
    return 0


def _artifacts_refresh(args) -> int:
    from .state.artifacts import refresh_artifacts

    res = refresh_artifacts(args.table)
    print(json.dumps({"table": args.table, "artifacts": res,
                      "wall_s": _wall(args)}))
    return 0


# --- exports ----------------------------------------------------------------


def _export_sorted(args) -> int:
    from .pipelines.apply import read_snapshot
    from .pipelines.export import export_sorted

    index = export_sorted(
        read_snapshot(args.table), args.col, args.output, num_files=args.num_files
    )
    print(json.dumps({
        "output": args.output, "sort_col": args.col,
        "files": len(index["files"]), "rows": index["total_rows"],
    }))
    return 0


def _export_zorder(args) -> int:
    from .pipelines.apply import read_snapshot
    from .pipelines.export import export_zorder

    cols = [c.strip() for c in args.cols.split(",") if c.strip()]
    index = export_zorder(
        read_snapshot(args.table), cols, args.output, num_files=args.num_files
    )
    print(json.dumps({
        "output": args.output, "zorder_cols": cols,
        "files": len(index["files"]), "rows": index["total_rows"],
    }))
    return 0


def _zbox(args) -> int:
    from .pipelines.export import read_zorder_box

    box = {}
    for part in args.where.split(","):
        col, lo, hi = part.split(":")
        box[col] = (float(lo) if lo else None, float(hi) if hi else None)
    ds = read_zorder_box(args.dir, box)
    n = ds.count()
    sample = ds.limit(args.limit).to_pandas() if n else None
    print(json.dumps({
        "dir": args.dir,
        "box": {c: list(b) for c, b in box.items()},
        "rows": int(n),
        "sample": sample.to_dict("records") if sample is not None else [],
    }, default=str))
    return 0


def _export_shuffled(args) -> int:
    from .pipelines.export import export_shuffled

    meta = export_shuffled(
        _read(args.input), args.output,
        num_shards=args.num_shards, seed=args.seed, key_col=args.key_col,
    )
    print(json.dumps({"output": args.output, **meta, "wall_s": _wall(args)}))
    return 0


# --- corpus operators over --sf-dir -----------------------------------------


def _search_bm25(args) -> int:
    from .functions.retrieval import bm25_index_topk, bm25_topk

    if args.index:
        # latency path: a few postings-bucket file reads, no Ray session
        res = bm25_index_topk(args.index, args.query, k=args.k,
                              k1=args.k1, b=args.b)
    else:
        res = bm25_topk(_sf(args, columns=["doc_id", "text"]), args.query,
                        k=args.k, k1=args.k1, b=args.b)
    print(json.dumps({
        "query": args.query, "k": args.k, "rows": res.num_rows,
        "indexed": bool(args.index), "wall_s": _wall(args),
    }))
    print(res.to_pandas().to_string(index=False))
    return 0


def _mix_sample(args) -> int:
    from .functions.mixing import (
        source_token_totals,
        temperature_budgets,
        token_budget_sample,
    )

    if (args.budgets is None) == (args.total_tokens is None):
        raise ValueError(
            "mix-sample needs exactly one of --budgets or --total-tokens"
        )
    ds = _sf(args)
    if args.budgets is not None:
        budgets = {
            s: int(v) for s, _, v in (p.partition(":") for p in args.budgets.split(","))
        }
    else:
        totals = source_token_totals(ds, tok_col=args.tok_col)
        budgets = temperature_budgets(totals, args.total_tokens, args.temperature)
    out = _sink(token_budget_sample(ds, budgets, tok_col=args.tok_col), args.output)
    pdf = out.groupby("source").sum(args.tok_col).to_pandas()
    pdf = pdf.sort_values("source").reset_index(drop=True)
    print(json.dumps({
        "budgets": budgets, "tok_col": args.tok_col,
        "output": args.output, "wall_s": _wall(args),
    }))
    print(pdf.to_string(index=False))
    return 0


def _decontaminate(args) -> int:
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from .functions.textstats import ngram_decontaminate

    snippets = pq.read_table(args.snippets, columns=["text"]).column("text").to_pylist()
    out = ngram_decontaminate(
        _sf(args, columns=["doc_id", "text"]), snippets,
        k=args.k, min_hits=args.min_hits,
    )
    # contamination is rare by nature — the flagged set is small
    # (driver-safe) however big the corpus; materialize it once, then
    # write, so a zero-hit run still has a typed frame to report
    hits = out.to_pandas()
    if hits.empty:
        hits = pd.DataFrame(
            columns=["doc_id", "n_shingles", "n_contaminated", "contam_frac"]
        )
    hits = hits.sort_values(["n_contaminated", "doc_id"], ascending=[False, True])
    if args.output:
        _write_part(pa.Table.from_pandas(hits, preserve_index=False), args.output)
    print(json.dumps({
        "snippets": len(snippets), "k": args.k,
        "min_hits": args.min_hits, "flagged_docs": len(hits),
        "output": args.output, "wall_s": _wall(args),
    }))
    print(hits.head(20).to_string(index=False))
    return 0


def _gopher_filter(args) -> int:
    import pyarrow.compute as pc

    from .functions.textstats import GopherRules

    out = _sf(args).map_batches(
        GopherRules,
        fn_constructor_kwargs={"text_col": args.text_col, "min_words": args.min_words},
        batch_format="pyarrow",
        concurrency=(1, 8),
        num_cpus=1,
    )
    if args.keep:
        out = out.map_batches(
            lambda b: b.filter(pc.equal(b.column("gopher_pass"), True)),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    out = _sink(out, args.output)
    n = out.count() if out is not None else 0
    n_pass = n if args.keep or not n else out.sum("gopher_pass")
    print(json.dumps({
        "rows": int(n), "gopher_pass": int(n_pass or 0), "wall_s": _wall(args),
    }))
    return 0


def _span_dedup(args) -> int:
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from .functions.dedup import span_dedup

    docs = os.path.join(args.sf_dir, "documents.parquet")
    out = span_dedup(
        _read(docs, ["doc_id", args.text_col]), text_col=args.text_col, span=args.span
    )
    batches = [b for b in out.iter_batches(batch_format="pyarrow") if b.num_rows]
    # an empty corpus yields no batches at all: report a typed empty result
    t = pa.concat_tables(batches) if batches else pa.schema([
        ("doc_id", pq.read_schema(docs).field("doc_id").type),
        ("text_clean", pa.string()),
        ("n_words", pa.int64()),
        ("n_removed_words", pa.int64()),
    ]).empty_table()
    if args.output:
        _write_part(t, args.output)
    removed = t.column("n_removed_words")
    print(json.dumps({
        "span": args.span, "docs": t.num_rows,
        "docs_touched": int(pc.sum(pc.greater(removed, 0).cast("int64")).as_py() or 0),
        "words_removed": int(pc.sum(removed).as_py() or 0),
        "wall_s": _wall(args),
    }))
    return 0


def _semdedup(args) -> int:
    import pyarrow as pa

    from .functions.dedup import semdedup

    out = semdedup(
        _sf(args, "embeddings", ["vec_id", "embedding"]),
        eps=args.eps,
        n_clusters=args.n_clusters,
        keep=args.keep,
        max_cluster=args.max_cluster,
    )
    if args.output:
        _write_part(pa.Table.from_pandas(out, preserve_index=False), args.output)
    n_groups = out["rep"].nunique() if len(out) else 0
    print(json.dumps({
        "eps": args.eps, "n_clusters": args.n_clusters,
        "keep": args.keep, "dup_rows": int(len(out)),
        "dup_groups": int(n_groups),
        "rows_dropped": int(len(out) - n_groups),
        "capped_buckets": int(out.attrs.get("capped_buckets", 0)),
        "output": args.output, "wall_s": _wall(args),
    }))
    print(out.head(20).to_string(index=False))
    return 0


# --- models: classifier, n-gram LM, BPE ---------------------------------------


def _train_classifier(args) -> int:
    from .functions.classifier import train_nb

    model = train_nb(
        _sf(args, columns=[args.text_col, args.label_col]),
        label_col=args.label_col,
        text_col=args.text_col,
        dim=args.dim,
        alpha=args.alpha,
        bigrams=not args.no_bigrams,
    )
    model.save(args.output)
    print(json.dumps({
        "classes": model.classes,
        "doc_counts": model.doc_counts.tolist(),
        "dim": model.dim, "bigrams": model.bigrams,
        "model": args.output, "wall_s": _wall(args),
    }))
    return 0


def _classifier_refresh(args) -> int:
    from .functions.classifier import refresh_table_classifier

    meta = refresh_table_classifier(
        args.table,
        args.output,
        label_col=args.label_col,
        feature_col=args.feature_col,
        dim=args.dim,
        alpha=args.alpha,
        bigrams=not args.no_bigrams,
    )
    print(json.dumps({
        **{k: meta[k] for k in
           ("indexed_epoch", "dim", "bigrams", "label_col", "feature_col")},
        "refreshed_pids": meta["refreshed_pids"],
        "output": args.output, "wall_s": _wall(args),
    }))
    return 0


def _classify(args) -> int:
    import pandas as pd

    from .functions.classifier import classify, classify_table, load_classifier_any

    model = load_classifier_any(args.model)
    if args.table:
        if args.min_prob is not None:
            raise ValueError(
                "--min-prob filtering applies to --sf-dir scoring; "
                "table scoring reports scores for every committed row"
            )
        out = classify_table(
            args.table, model, feature_col=args.feature_col, positive=args.positive
        )
    else:
        out = classify(
            _sf(args), model, text_col=args.text_col,
            positive=args.positive, min_prob=args.min_prob,
        )
    out = _sink(out, args.output)
    if out is None:  # every row filtered: a valid, empty result
        hist = pd.DataFrame(columns=["pred_label", "count()"])
    else:
        hist = out.groupby("pred_label").count().to_pandas()
    print(json.dumps({
        "model": args.model, "rows": int(hist["count()"].sum()) if len(hist) else 0,
        "per_class": {
            r["pred_label"]: int(r["count()"]) for _, r in hist.iterrows()
        },
        "positive": args.positive, "min_prob": args.min_prob,
        "output": args.output, "wall_s": _wall(args),
    }))
    return 0


def _train_lm(args) -> int:
    from .functions.lm import train_lm

    model = train_lm(
        _sf(args, columns=[args.text_col]),
        text_col=args.text_col, dim_u=args.dim_u, dim_b=args.dim_b,
    )
    model.save(args.output)
    print(json.dumps({
        "n_tokens": model.n_tokens,
        "dim_u": model.dim_u, "dim_b": model.dim_b,
        "feature_kind": model.feature_kind,
        "distinct_unigram_buckets": int((model.uni > 0).sum()),
        "distinct_bigram_buckets": int((model.bi > 0).sum()),
        "model": args.output, "wall_s": _wall(args),
    }))
    return 0


def _lm_refresh(args) -> int:
    from .functions.lm import refresh_table_lm

    meta = refresh_table_lm(
        args.table,
        args.output,
        feature_col=args.feature_col,
        dim_u=args.dim_u,
        dim_b=args.dim_b,
    )
    print(json.dumps({
        **{k: meta[k] for k in ("indexed_epoch", "dim_u", "dim_b", "feature_col")},
        "refreshed_pids": meta["refreshed_pids"],
        "output": args.output, "wall_s": _wall(args),
    }))
    return 0


def _lm_score(args) -> int:
    from .functions.lm import load_lm_any, score_lm, score_lm_table

    model = load_lm_any(args.model)
    if args.table:
        if args.max_ppl is not None:
            raise ValueError(
                "--max-ppl filtering applies to --sf-dir scoring; table "
                "scoring reports lm_ppl for every committed row"
            )
        out = score_lm_table(args.table, model, feature_col=args.feature_col)
    else:
        out = score_lm(_sf(args), model, text_col=args.text_col, max_ppl=args.max_ppl)
    out = _sink(out, args.output)
    stats = None
    if out is not None:
        from ray.data.aggregate import Count, Mean

        # aggregate() returns None on an empty dataset (a max-ppl cut
        # can legitimately drop every row)
        stats = out.aggregate(Count(), Mean("lm_ppl"))
    rows = int(stats.get("count()", 0)) if stats else 0
    mean = stats.get("mean(lm_ppl)") if stats else None
    print(json.dumps({
        "model": args.model,
        "rows": rows,
        "mean_ppl": round(float(mean), 4) if rows and mean is not None else None,
        "max_ppl": args.max_ppl, "output": args.output, "wall_s": _wall(args),
    }))
    return 0


def _train_bpe(args) -> int:
    from .functions.bpe import train_bpe

    model = train_bpe(
        _sf(args, columns=[args.text_col]), text_col=args.text_col,
        num_merges=args.merges, min_count=args.min_count,
        max_words=args.max_words, model_dir=args.output,
    )
    print(json.dumps({
        "merges": len(model.merges),
        "vocab_size": len(model.vocab),
        "first_merges": [list(m) for m in model.merges[:5]],
        "model": args.output, "wall_s": _wall(args),
    }))
    return 0


def _bpe_refresh(args) -> int:
    from .functions.bpe import refresh_table_bpe

    meta = refresh_table_bpe(args.table, args.output, text_col=args.text_col)
    print(json.dumps({
        "indexed_epoch": meta["indexed_epoch"],
        "refreshed_pids": meta["refreshed_pids"],
        "output": args.output, "wall_s": _wall(args),
    }))
    return 0


def _bpe_encode(args) -> int:
    from .functions.bpe import BPEModel, encode_dataset, load_table_bpe

    if os.path.isdir(os.path.join(args.model, "partials")):
        model = load_table_bpe(args.model, num_merges=args.merges)
    else:
        model = BPEModel.load(args.model)
    out = _sink(encode_dataset(_sf(args), model, text_col=args.text_col), args.output)
    n_rows = out.count() if out is not None else 0
    sample = out.limit(args.limit).to_pandas() if n_rows else None
    print(json.dumps({
        "rows": int(n_rows),
        "total_pieces": int(out.sum("n_bpe_pieces")) if n_rows else 0,
        "vocab_size": len(model.vocab),
        "sample_ids": sample["bpe_ids"].iloc[0][:12].tolist() if n_rows else [],
        "wall_s": _wall(args),
    }))
    return 0


def _curate(args) -> int:
    from .pipelines.curate import curate_table

    res = curate_table(
        args.table,
        args.output,
        lm_model_dir=args.lm,
        max_ppl=args.max_ppl,
        clf_model_dir=args.classifier,
        positive=args.positive,
        min_prob=args.min_prob,
        feature_col=args.feature_col,
        num_shards=args.num_shards,
        seed=args.seed,
    )
    print(json.dumps({**res, "output": args.output, "wall_s": _wall(args)}))
    return 0


# --- indexes and search -------------------------------------------------------


def _index_text(args) -> int:
    from .functions.retrieval import build_text_index

    meta = build_text_index(
        _sf(args, columns=["doc_id", "text"]), args.output,
        num_buckets=args.num_buckets,
    )
    print(json.dumps({"output": args.output, **meta, "wall_s": _wall(args)}))
    return 0


def _index_pq(args) -> int:
    from .functions.similarity import build_pq_index

    meta = build_pq_index(
        _sf(args, "embeddings", ["vec_id", "embedding"]), args.output,
        n_centroids=args.n_centroids, m=args.m,
        ksub=args.ksub, refine_iters=args.refine_iters,
    )
    print(json.dumps({"output": args.output, **meta, "wall_s": _wall(args)}))
    return 0


def _search_pq(args) -> int:
    import numpy as np
    import pyarrow.parquet as pq

    from .functions.similarity import pq_index_topk

    emb_path = os.path.join(args.sf_dir, "embeddings.parquet")
    qids = [int(s) for s in _csv(args.query_ids)]
    qt = pq.read_table(
        emb_path, columns=["vec_id", "embedding"], filters=[("vec_id", "in", qids)]
    )
    order = {int(v): i for i, v in enumerate(qt.column("vec_id").to_pylist())}
    missing = sorted(set(qids) - set(order))
    if missing:
        raise ValueError(f"query ids not in the embeddings table: {missing}")
    emb = np.stack([qt.column("embedding")[order[q]].as_py() for q in qids])
    res = pq_index_topk(
        args.index, emb, qids, k=args.k, nprobe=args.nprobe,
        rerank=args.rerank, source=emb_path if args.rerank else None,
    )
    print(json.dumps({
        "index": args.index, "k": args.k, "nprobe": args.nprobe,
        "rerank": args.rerank, "rows": len(res), "wall_s": _wall(args),
    }))
    print(res.to_string(index=False))
    return 0


def _index_ann(args) -> int:
    from .functions.similarity import refresh_table_ann_index

    meta = refresh_table_ann_index(
        args.table, args.output, n_centroids=args.n_centroids, vec_col=args.vec_col
    )
    print(json.dumps({
        "table": args.table, "output": args.output,
        "indexed_epoch": meta["indexed_epoch"],
        "refreshed_pids": meta["refreshed_pids"],
        "n_centroids": meta["n_centroids"], "dim": meta["dim"],
        "wall_s": _wall(args),
    }))
    return 0


def _search_ann(args) -> int:
    import numpy as np

    from .functions.similarity import ann_table_index_topk
    from .pipelines.lookup import lookup_keys

    with open(os.path.join(args.index, "meta.json")) as f:
        imeta = json.load(f)
    keys = _csv(args.keys)
    rows = lookup_keys(args.table, keys)
    found = rows.column(imeta["key_col"]).to_pylist()
    missing = sorted(set(keys) - set(found))
    if missing:
        raise ValueError(f"query keys not in table: {missing}")
    emb = np.stack([
        np.asarray(v, dtype=np.float64)
        for v in rows.column(imeta["vec_col"]).to_pylist()
    ])
    res = ann_table_index_topk(args.index, emb, found, k=args.k, nprobe=args.nprobe)
    print(json.dumps({
        "index": args.index, "k": args.k, "nprobe": args.nprobe,
        "rows": len(res), "wall_s": _wall(args),
    }))
    print(res.to_string(index=False))
    return 0


def _index_tokens(args) -> int:
    from .functions.retrieval import refresh_table_token_index

    res = refresh_table_token_index(args.table, args.output, num_buckets=args.num_buckets)
    print(json.dumps({
        "table": args.table, "output": args.output,
        "indexed_epoch": res["indexed_epoch"],
        "refreshed_pids": res["refreshed_pids"],
        "wall_s": _wall(args),
    }))
    return 0


def _search_tokens(args) -> int:
    from .functions.retrieval import bm25_table_index_topk

    qtoks = [int(t) for t in _csv(args.tokens)]
    res = bm25_table_index_topk(args.index, qtoks, k=args.k, k1=args.k1, b=args.b)
    print(json.dumps({
        "tokens": qtoks, "k": args.k, "rows": res.num_rows, "wall_s": _wall(args),
    }))
    print(res.to_pandas().to_string(index=False))
    return 0


# --- dedup ledgers ------------------------------------------------------------


def _ledger_index(build: str, columns: list[str], params: tuple, args) -> int:
    """index-fingerprints / index-minhash / index-embeddings: build or
    extend a ledger from ``--input`` with the library's ``build``."""
    from .functions import dedup

    meta = getattr(dedup, build)(
        _read(args.input, columns), args.output,
        part=args.part, num_buckets=args.num_buckets,
        **{p: getattr(args, p) for p in params},
    )
    print(json.dumps({
        "output": args.output, "part": args.part, **meta, "wall_s": _wall(args),
    }))
    return 0


def _ledger_dedup(find: str, build: str, columns: list[str], args) -> int:
    """dedup-incremental / dedup-neardup / dedup-embdup: drop ``--input``
    rows the ledger (or the input itself) already holds with the library's
    ``find``; optionally extend the ledger with the survivors via
    ``build``."""
    from .functions import dedup

    kw = {"threshold": args.threshold} if "threshold" in args else {}
    res = getattr(dedup, find)(_read(args.input), args.index, **kw)
    surv, hits = res if isinstance(res, tuple) else (res, None)
    if args.output or args.update_part:
        # consumed up to three times below — pin the blocks once
        surv = surv.materialize()
    doc = {"survivors": surv.count()}
    if args.output:
        surv.write_parquet(args.output)
    if args.update_part:
        getattr(dedup, build)(
            surv.select_columns(columns), args.index, part=args.update_part
        )
    if hits is not None:
        doc.update(near_dups=len(hits), capped_candidates=hits.attrs.get("capped", 0))
    print(json.dumps({
        **doc, "index": args.index, "output": args.output,
        "update_part": args.update_part, "wall_s": _wall(args),
    }))
    if hits is not None:
        print(hits.head(args.limit).to_string(index=False))
    return 0


def _compact_ledger(args) -> int:
    from .functions.dedup import compact_ledger

    out = compact_ledger(args.index, into=args.into)
    print(json.dumps({"index": args.index, **out, "wall_s": _wall(args)}))
    return 0


# --- driver-contract queries ----------------------------------------------------


def _query(args) -> int:
    from .pipelines.queries import ALL_QUERIES

    if args.list_queries or args.name is None:
        print(json.dumps(sorted(ALL_QUERIES)))
        return 0
    if args.name not in ALL_QUERIES:
        raise ValueError(
            f"unknown query {args.name!r} — `query --list` prints the names"
        )
    res = ALL_QUERIES[args.name](args.sf_dir)
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    if args.output:
        import pyarrow.parquet as pq

        if isinstance(res, rd.Dataset):
            # streaming sink: one file per block, no driver materialization
            res.write_parquet(args.output)
        else:
            _write_part(res if isinstance(res, pa.Table) else pa.Table.from_pandas(
                pd.DataFrame(res), preserve_index=False), args.output)
        files = sorted(f for f in os.listdir(args.output) if f.endswith(".parquet"))
        rows = sum(
            pq.ParquetFile(os.path.join(args.output, f)).metadata.num_rows
            for f in files
        )
        print(json.dumps({
            "query": args.name, "sf_dir": args.sf_dir, "output": args.output,
            "files": len(files), "rows": rows, "wall_s": _wall(args),
        }))
        return 0
    if isinstance(res, (rd.Dataset, pa.Table)):
        pdf = res.to_pandas()
    else:
        pdf = pd.DataFrame(res)
    print(json.dumps({
        "query": args.name, "sf_dir": args.sf_dir, "rows": len(pdf),
        "columns": list(map(str, pdf.columns)), "wall_s": _wall(args),
    }))
    with pd.option_context("display.max_columns", 20, "display.width", 200):
        print(pdf.head(args.limit).to_string(index=False))
    return 0


def _verify_queries(args) -> int:
    from .pipelines.queries import verify_queries

    res = verify_queries(args.sf_dir, _csv(args.names) or None)
    for name in sorted(res):
        print(json.dumps({"query": name, **res[name]}))
    bad = [n for n, r in res.items() if r.get("err") or not r.get("match")]
    print(json.dumps({"total": len(res), "mismatches": sorted(bad)}))
    return 1 if bad else 0


# --- the command table ----------------------------------------------------------


@dataclass(frozen=True)
class Cmd:
    """One subcommand: its parser, its handler and what ``main`` does
    around the handler."""

    name: str
    help: str
    args: tuple
    run: Callable[[argparse.Namespace], int]
    # needs a Ray session: always, or when this predicate holds for the args
    ray: bool | Callable[[argparse.Namespace], bool] = False
    # --output receives parquet parts, so it must not already hold any
    writes_parts: bool = False


def _a(*flags, **kw):
    """One ``add_argument`` call of a row."""
    return flags, kw


MODES = ("upsert", "append", "sum", "collapse")
TABLE = _a("--table", required=True)
WAL = _a("--wal", required=True)
SF_DIR = _a("--sf-dir", default="/root/testdata/sf0.001")
TEXT_COL = _a("--text-col", default="text")
FEATURE_COL = _a("--feature-col", default="tokens")
KEY_COL = _a("--key-col", default="doc_id")
EPOCH = _a("--epoch", type=int, default=None,
           help="time-travel to a retained historical epoch")
NUM_FILES = _a("--num-files", type=int, default=None)
NUM_BUCKETS = _a("--num-buckets", type=int, default=64)
N_CENTROIDS = _a("--n-centroids", type=int, default=16)
DIM_U = _a("--dim-u", type=int, default=1 << 20)
DIM_B = _a("--dim-b", type=int, default=1 << 22)
ALPHA = _a("--alpha", type=float, default=1.0)
NO_BIGRAMS = _a("--no-bigrams", action="store_true")
MODEL_DIR = _a("--output", required=True, help="model directory")
BM25 = (
    _a("-k", type=int, default=10),
    _a("--k1", type=float, default=1.2),
    _a("--b", type=float, default=0.75),
)
ANN_TOPK = (_a("--k", type=int, default=5), _a("--nprobe", type=int, default=4))
SCORE_INPUT = (
    SF_DIR,
    _a("--table", default=None,
       help="score this committed table's merged snapshot "
            "instead of --sf-dir documents"),
    _a("--text-col", default="text",
       help="feature column for --sf-dir scoring"),
    _a("--feature-col", default="tokens",
       help="feature column for --table scoring"),
)
SCORED_OUTPUT = _a("--output", default=None,
                   help="write scored rows to this directory as parquet")
LEDGER = _a("--index", required=True, help="ledger directory")
LEDGER_OUTPUT = _a("--output", required=True, help="ledger directory")
PART = _a("--part", default="base")
DEDUP_IO = (
    _a("--input", required=True),
    LEDGER,
)
SURVIVORS = (
    _a("--output", default=None,
       help="write surviving rows to this directory as parquet"),
    _a("--update-part", default=None,
       help="also extend the ledger with the survivors under "
            "this part name"),
)

COMMANDS = (
    Cmd("init", "create an empty table layout + manifest", (
        TABLE,
        _a("--num-partitions", type=int, default=64),
        _a("--mode", choices=MODES, default="upsert",
           help="upsert: LWW by key (ReplacingMergeTree analog); "
                "append: immutable facts (MergeTree analog); "
                "sum: additive rollup by key (SummingMergeTree "
                "analog); collapse: ±1 sign cancellation by key "
                "(CollapsingMergeTree analog — a 'sign' int column "
                "is added to the schema)"),
        KEY_COL,
        _a("--sum-cols", default=None,
           help="comma-separated measure columns summed per key "
                "(required for --mode sum; e.g. 'value')"),
        _a("--schema", choices=("docs", "facts"), default=None,
           help="built-in schema (default: docs for upsert, facts for append)"),
        _a("--partition-by-month", metavar="TS_COL", default=None,
           help="time-partition by yyyymm of this timestamp column "
                "(PARTITION BY toYYYYMM analog)"),
        _a("--event-time-col", default=None,
           help="enable event-time watermark + late-data metrics on "
                "this column (default: event_ts for fact schemas)"),
        _a("--retention", type=int, default=None,
           help="retained versioned manifests for time travel (default 8)"),
        _a("--skip-cols", default=None,
           help="comma-separated data-skipping index columns "
                "(ClickHouse `INDEX ... TYPE minmax` analog): part "
                "writes record per-file min/max zones; `scan` prunes "
                "by them"),
    ), _init),
    Cmd("gen", "generate a deterministic CDC WAL", (
        _a("--wal", required=True),
        _a("--facts", action="store_true",
           help="append-only fact events (event_id/doc_id/event_ts/"
                "event_type/value) instead of the doc change log"),
        _a("--events", type=int, default=100_000),
        _a("--base-events", type=int, default=None),
        _a("--events-per-segment", type=int, default=2_000),
        _a("--seed", type=int, default=42),
        _a("--mix", default="0.3,0.6,0.1", help="c,u,d fractions"),
        _a("--zipf-a", type=float, default=1.5),
        _a("--hot-frac", type=float, default=0.5),
        _a("--tok-min", type=int, default=8),
        _a("--tok-max", type=int, default=512),
        _a("--evolve-frac", type=float, default=None),
        _a("--format", choices=("parquet", "jsonl"), default="parquet",
           help="segment file format (jsonl = Debezium-style interop)"),
        _a("--segments-per-shard", type=int, default=None,
           help="group segments into LSN-named shard dirs (listing "
                "stays O(unapplied) at million-segment WALs)"),
        _a("--parallel", action="store_true"),
    ), _gen, ray=lambda a: a.parallel and not a.facts),
    Cmd("apply", "apply pending WAL epochs to a table", (
        TABLE,
        WAL,
        _a("--epoch-segments", type=int, default=None),
        _a("--salt-factor", type=int, default=8),
        _a("--hot-ratio", type=float, default=4.0),
        _a("--once", action="store_true", help="apply one epoch only"),
        _a("--follow", action="store_true", help="poll for new segments"),
        _a("--interval", type=float, default=5.0),
        _a("--refresh-mvs", action="store_true",
           help="fold each committed epoch into all registered "
                "materialized views (the ClickHouse MV "
                "trigger-on-insert analog)"),
        _a("--allowed-lateness", type=float, default=0.0,
           help="seconds of event-time lateness tolerated before an "
                "arrival counts as late (event_time_col tables only)"),
        _a("--compact-threshold", type=int, default=8,
           help="compact a partition when its file chain reaches this "
                "(1 = rewrite touched partitions every epoch)"),
        _a("--auto-compact", type=float, default=None, metavar="RATIO",
           help="size-tiered background compaction: after each "
                "committed epoch, compact partitions whose delta "
                "bytes exceed RATIO x base snapshot bytes (bounds "
                "merge-on-read amplification at (1+RATIO)x)"),
        _a("--dlq", default=None,
           help="dead-letter directory: quarantine malformed change "
                "events (invalid op / null lsn / null key) there "
                "instead of failing the epoch"),
        _a("--refresh-artifacts", action="store_true",
           help="after each committed epoch, refresh every "
                "artifact registered via artifact-register "
                "(classifier/lm/ann/token indexes; each prunes to "
                "changed partitions)"),
    ), _apply, ray=True),
    Cmd("compact", "fold delta chains into clean per-partition snapshots", (
        TABLE,
        _a("--size-ratio", type=float, default=None,
           help="size-tiered selection: compact only partitions "
                "whose delta bytes exceed RATIO x base bytes "
                "(default: major compaction, every dirty chain)"),
    ), _compact, ray=True),
    Cmd("ttl-expire",
        "drop rows whose timestamp column is before a cutoff (ClickHouse TTL)", (
            TABLE,
            _a("--col", required=True, help="timestamp column rows expire by"),
            _a("--cutoff", required=True,
               help="ISO timestamp; rows with col < cutoff are expired"),
        ), _ttl_expire, ray=True),
    Cmd("import", "seed an EMPTY table from an existing parquet corpus (lsn=0)", (
        TABLE,
        _a("--parquet", required=True),
        KEY_COL,
    ), _import, ray=True),
    Cmd("repartition", "change the table's partition count (whole-table job)", (
        TABLE,
        _a("--num-partitions", type=int, required=True),
    ), _repartition, ray=True),
    Cmd("truncate-wal",
        "delete WAL segments fully applied at the table's watermark",
        (TABLE, WAL), _truncate_wal),
    Cmd("register", "declare a table in a multi-table lake registry", (
        _a("--root", required=True, help="lake root (holds registry.json)"),
        _a("--name", required=True),
        _a("--mode", choices=MODES, default="upsert"),
        _a("--key-col", default=None),
        _a("--sum-cols", default=None,
           help="comma-separated measure columns (mode sum only)"),
        _a("--schema", choices=("docs", "facts"), default=None),
        _a("--num-partitions", type=int, default=16),
        _a("--partition-by-month", metavar="TS_COL", default=None),
        _a("--depends-on", default="", help="comma-separated table names"),
    ), _register),
    Cmd("sync",
        "sync every registered table from <wal-root>/<name>, dims before facts", (
            _a("--root", required=True),
            _a("--wal-root", required=True),
            _a("--epoch-segments", type=int, default=None),
        ), _sync, ray=True),
    Cmd("registry-status", "per-table watermarks/rows",
        (_a("--root", required=True),), _registry_status),
    Cmd("verify-queries",
        "run driver-contract queries AND their DuckDB oracle SQL "
        "side-by-side over the same tables and compare values — the "
        "in-repo correctness gate (exit 1 on any mismatch)", (
            SF_DIR,
            _a("--names", default=None,
               help="comma-separated subset (default: all)"),
        ), _verify_queries, ray=True),
    Cmd("lake-status",
        "lake epoch vectors — the cross-table consistent read pins a "
        "clean sync round commits (see state/registry.py)",
        (_a("--root", required=True),), _lake_status),
    Cmd("kpi", "KPI report over a committed table", (TABLE, EPOCH), _kpi, ray=True),
    Cmd("status", "print the manifest summary", (TABLE,), _status),
    Cmd("artifact-register",
        "register a derived artifact (classifier/lm/ann/tokens) so "
        "artifacts-refresh / apply --refresh-artifacts maintains it", (
            TABLE,
            _a("--name", required=True),
            _a("--kind", required=True,
               choices=["classifier", "lm", "ann", "tokens", "bpe"]),
            _a("--dest", required=True, help="artifact directory"),
            _a("--param", action="append", default=[],
               help="refresher kwarg as key=value (repeatable); "
                    "values parse as int/float/bool when they look "
                    "like one"),
        ), _artifact_register),
    Cmd("artifacts-refresh",
        "refresh every registered artifact to the table's current "
        "epoch (each prunes to changed partitions / no-ops if caught "
        "up)", (TABLE,), _artifacts_refresh, ray=True),
    Cmd("fsck",
        "table integrity check (manifest vs filesystem: missing/"
        "orphan/tmp files, footer row counts, watermark + history "
        "invariants; metadata-only, no data pages read)", (
            TABLE,
            _a("--repair", action="store_true",
               help="remove orphan and tmp files (what post-commit GC "
                    "would do); errors are never auto-repaired"),
        ), _fsck),
    Cmd("mv-register",
        "register an incremental materialized view (append tables: "
        "WAL-folding ticks; upsert tables: changed-partition partial "
        "recompute)", (
            TABLE,
            _a("--name", required=True),
            _a("--group-keys", required=True, help="comma-separated"),
            _a("--sums", default="",
               help="comma-separated col:scale:outname specs, e.g. "
                    "value:1000:sum_value_milli"),
            _a("--date-from", default=None,
               help="timestamp column to derive an event_date group key"),
            _a("--mins", default="",
               help="comma-separated col:outname exact-min measures"),
            _a("--maxs", default="",
               help="comma-separated col:outname exact-max measures"),
            _a("--distincts", default="",
               help="comma-separated col:p:outname approximate "
                    "COUNT(DISTINCT) measures (HLL with 2^p registers "
                    "per group; uniqState/uniqMerge analog)"),
        ), _mv_register),
    Cmd("mv-refresh",
        "one MV maintenance tick: fold WAL events since the MV "
        "watermark (append) or recompute changed partitions' partials "
        "(upsert); all registered MVs unless --name", (
            TABLE,
            WAL,
            _a("--name", default=None),
        ), _mv_refresh, ray=_has_mvs),
    Cmd("mv-read", "print an MV's committed state", (
        TABLE,
        _a("--name", required=True),
        _a("--limit", type=int, default=20),
    ), _mv_read),
    Cmd("export-sorted",
        "write a committed table as a globally sorted, range-partitioned "
        "parquet layout with a zone-map index (pruned range reads later)", (
            TABLE,
            _a("--col", required=True, help="numeric sort column"),
            _a("--output", required=True),
            NUM_FILES,
        ), _export_sorted, ray=True),
    Cmd("export-zorder",
        "write a committed table as a z-order-clustered parquet layout "
        "over several columns with per-dimension zone maps (box reads "
        "prune on ANY bounded dimension)", (
            TABLE,
            _a("--cols", required=True,
               help="comma-separated numeric z-order columns"),
            _a("--output", required=True),
            NUM_FILES,
        ), _export_zorder, ray=True),
    Cmd("zbox",
        "box read over a z-order export: prints matching row count and "
        "a sample; opens only files whose per-dimension zones overlap", (
            _a("--dir", required=True, help="export-zorder output dir"),
            _a("--where", required=True,
               help="comma-separated col:lo:hi bounds (empty lo/hi = unbounded), "
                    "e.g. n_tok:100:200,lsn::10000"),
            _a("--limit", type=int, default=5),
        ), _zbox, ray=True),
    Cmd("search-bm25",
        "BM25 lexical top-k over a documents parquet (two map-only "
        "passes, no shuffle; query-term stats only, never the vocab)", (
            _a("--query", required=True, help="space-separated terms"),
            SF_DIR,
            *BM25,
            _a("--index", default=None,
               help="persisted text-index dir (index-text output): "
                    "opens only the query terms' postings buckets — "
                    "no Ray job, no corpus scan"),
        ), _search_bm25, ray=lambda a: not a.index),
    Cmd("mix-sample",
        "token-budget mixture sampling: keep each source's greedy "
        "hash-prefix within its token budget (two small map-only "
        "passes + a filter — exact, partitioning-independent)", (
            SF_DIR,
            _a("--budgets", default=None,
               help="comma-separated source:max_tokens, e.g. "
                    "src0:5000,src1:2000 (unlisted sources kept whole)"),
            _a("--total-tokens", type=int, default=None,
               help="derive per-source budgets from a single mixture "
                    "budget at --temperature (Conneau-Lample τ-mixing; "
                    "alternative to --budgets)"),
            _a("--temperature", type=float, default=0.7,
               help="mixing temperature τ for --total-tokens: share ∝ "
                    "source_tokens^τ (1=natural, →0 uniform)"),
            _a("--tok-col", default="n_chars",
               help="integer weight column (n_tok on snapshot tables)"),
            _a("--output", default=None,
               help="write the sampled rows to this directory as parquet"),
        ), _mix_sample, ray=True, writes_parts=True),
    Cmd("decontaminate",
        "n-gram-hash test-set decontamination: flag corpus docs "
        "sharing any k-word window with the benchmark snippets (one "
        "map-only pass, cost independent of snippet count)", (
            SF_DIR,
            _a("--snippets", required=True,
               help="parquet file/dir with a text column of benchmark "
                    "snippets (each must have at least k words)"),
            _a("--k", type=int, default=8,
               help="shingle width in words (GPT-3 used 13)"),
            _a("--min-hits", type=int, default=1,
               help="flag docs with at least this many distinct "
                    "contaminated shingles"),
            _a("--output", default=None,
               help="write flagged rows to this directory as parquet"),
        ), _decontaminate, ray=True, writes_parts=True),
    Cmd("train-classifier",
        "train a hashed-feature multinomial Naive Bayes text "
        "classifier (fastText-classifier role) in one distributed "
        "count-aggregation pass; persists the model tmp+rename", (
            SF_DIR,
            _a("--label-col", default="lang"),
            TEXT_COL,
            _a("--dim", type=int, default=1 << 18,
               help="hashed feature buckets (model size is C x dim, "
                    "independent of corpus vocabulary)"),
            ALPHA,
            NO_BIGRAMS,
            MODEL_DIR,
        ), _train_classifier, ray=True),
    Cmd("train-lm",
        "train a Stupid-Backoff hashed n-gram LM (KenLM role) in one "
        "distributed count-aggregation pass; persists counts tmp+rename",
        (SF_DIR, TEXT_COL, DIM_U, DIM_B, MODEL_DIR), _train_lm, ray=True),
    Cmd("lm-refresh",
        "build/refresh per-partition n-gram LM count partials over a "
        "committed table (changed-partition-only via the manifest "
        "diff; composes equal to a retrain)", (
            TABLE,
            _a("--output", required=True, help="partials/model dir"),
            FEATURE_COL,
            DIM_U,
            DIM_B,
        ), _lm_refresh, ray=True),
    Cmd("gopher-filter",
        "Gopher quality-rule bundle (Rae et al. 2021): per-doc rule "
        "signals + gopher_pass verdict; optionally keep passing docs "
        "only (one vectorized RE2 pass, actor pool)", (
            SF_DIR,
            TEXT_COL,
            _a("--min-words", type=int, default=50),
            _a("--keep", action="store_true",
               help="emit only docs that pass every rule"),
            _a("--output", default=None),
            _a("--limit", type=int, default=3),
        ), _gopher_filter, ray=True, writes_parts=True),
    Cmd("train-bpe",
        "learn a BPE tokenizer: one distributed word-count pass "
        "(corpus compressed to a top-N frequency dict), deterministic "
        "driver-side merges (Sennrich 2016); persists merges+vocab", (
            SF_DIR,
            TEXT_COL,
            _a("--merges", type=int, default=200),
            _a("--min-count", type=int, default=2),
            _a("--max-words", type=int, default=100_000),
            MODEL_DIR,
        ), _train_bpe, ray=True),
    Cmd("bpe-refresh",
        "build/refresh per-partition word-count partials over a "
        "committed table (changed-partition-only via the manifest "
        "diff); training from the composed counts equals a retrain", (
            TABLE,
            _a("--output", required=True, help="partials dir"),
            TEXT_COL,
        ), _bpe_refresh, ray=True),
    Cmd("bpe-encode",
        "encode a documents parquet (or composed table partials) with "
        "a trained BPE model: actor pool, merges broadcast once, "
        "per-actor word cache", (
            _a("--model", required=True,
               help="train-bpe output, or bpe-refresh partials dir "
                    "(trained on the fly)"),
            SF_DIR,
            TEXT_COL,
            _a("--merges", type=int, default=200,
               help="merge count when training from partials"),
            _a("--output", default=None,
               help="write encoded parquet here (default: print stats)"),
            _a("--limit", type=int, default=3),
        ), _bpe_encode, ray=True, writes_parts=True),
    Cmd("lm-score",
        "perplexity-score a documents parquet under a trained n-gram "
        "LM (counts broadcast once, vectorized gathers); optionally "
        "keep only rows with lm_ppl <= --max-ppl (CCNet head cut)", (
            _a("--model", required=True, help="train-lm or lm-refresh output"),
            *SCORE_INPUT,
            _a("--max-ppl", type=float, default=None),
            SCORED_OUTPUT,
        ), _lm_score, ray=True, writes_parts=True),
    Cmd("classifier-refresh",
        "build/refresh the per-partition count partials of an NB "
        "classifier over a committed table (changed-partition-only "
        "refresh via the manifest diff; composes equal to a retrain)", (
            TABLE,
            _a("--output", required=True, help="partials/model dir"),
            _a("--label-col", default="source"),
            FEATURE_COL,
            _a("--dim", type=int, default=1 << 18),
            ALPHA,
            NO_BIGRAMS,
        ), _classifier_refresh, ray=True),
    Cmd("classify",
        "score a documents parquet with a trained classifier "
        "(weights broadcast once via ray.put, actor-pool scoring); "
        "optionally keep only rows past --min-prob of --positive", (
            _a("--model", required=True,
               help="train-classifier or classifier-refresh output"),
            *SCORE_INPUT,
            _a("--positive", default=None,
               help="class whose probability is emitted as p_positive"),
            _a("--min-prob", type=float, default=None,
               help="keep only rows with p_positive >= this"),
            SCORED_OUTPUT,
        ), _classify, ray=True, writes_parts=True),
    Cmd("semdedup",
        "semantic dedup (SemDeDup): k-means-blocked within-cluster "
        "cosine near-dup groups; one representative survives per group", (
            SF_DIR,
            _a("--eps", type=float, default=0.05,
               help="duplicate if cosine >= 1 - eps"),
            _a("--n-clusters", type=int, default=32),
            _a("--keep", choices=["far", "min_key"], default="far",
               help="far = keep the member farthest from its centroid "
                    "(the paper's rule); min_key = lowest key"),
            _a("--max-cluster", type=int, default=4096),
            _a("--output", default=None,
               help="write the duplicate table (key, rep, keep) here"),
        ), _semdedup, ray=True, writes_parts=True),
    Cmd("span-dedup",
        "corpus-level repeated-SPAN dedup (Lee et al. 2021 substring "
        "dedup role): every duplicated k-word window keeps only its "
        "canonical occurrence; other occurrences' words are removed "
        "from their documents", (
            SF_DIR,
            _a("--span", type=int, default=8, help="window length in words"),
            TEXT_COL,
            _a("--output", default=None,
               help="write the cleaned docs parquet here"),
            _a("--limit", type=int, default=3),
        ), _span_dedup, ray=True, writes_parts=True),
    Cmd("curate",
        "end-to-end curation: committed table -> LM perplexity cut -> "
        "classifier cut -> deterministic shuffled training shards "
        "(one snapshot pass + the exporter's one shuffle)", (
            TABLE,
            _a("--output", required=True, help="shard directory"),
            _a("--lm", default=None, help="train-lm or lm-refresh model dir"),
            _a("--max-ppl", type=float, default=None),
            _a("--classifier", default=None,
               help="train-classifier or classifier-refresh model dir"),
            _a("--positive", default=None),
            _a("--min-prob", type=float, default=None),
            FEATURE_COL,
            _a("--num-shards", type=int, default=16),
            _a("--seed", type=int, default=1),
        ), _curate, ray=True),
    Cmd("index-text",
        "build a persisted BM25 inverted index (term-hash-bucketed "
        "postings + corpus stats; a build stages the layout, swaps it in "
        "and writes the meta last)", (
            SF_DIR,
            _a("--output", required=True),
            NUM_BUCKETS,
        ), _index_text, ray=True),
    Cmd("index-pq",
        "build a persisted IVFADC index (coarse centroids + residual "
        "product-quantization codes, m bytes/vector; a build stages the "
        "codes, swaps them in and writes the meta last)", (
            SF_DIR,
            _a("--output", required=True),
            N_CENTROIDS,
            _a("--m", type=int, default=8,
               help="PQ subspaces = bytes per stored vector"),
            _a("--ksub", type=int, default=256),
            _a("--refine-iters", type=int, default=0),
        ), _index_pq, ray=True),
    Cmd("search-pq",
        "ADC top-k over a persisted IVFADC index (opens only the "
        "nprobe probed buckets' code files)", (
            _a("--index", required=True),
            _a("--query-ids", required=True,
               help="comma-separated vec_ids from the embeddings table "
                    "to use as queries"),
            SF_DIR,
            *ANN_TOPK,
            _a("--rerank", type=int, default=0,
               help="exact-rescore this many ADC candidates per query "
                    "against the original vectors (one key-filtered "
                    "read of the embeddings parquet)"),
        ), _search_pq),
    Cmd("index-ann",
        "build or incrementally refresh an IVF vector index over a "
        "committed table (re-derives ONLY partitions whose file chains "
        "changed since the indexed epoch)", (
            TABLE,
            _a("--output", required=True, help="index directory"),
            N_CENTROIDS,
            _a("--vec-col", default="embedding"),
        ), _index_ann, ray=True),
    Cmd("search-ann",
        "cosine top-k over a table ANN index (opens only the nprobe "
        "probed buckets; exact within the probe — raw vectors)", (
            _a("--index", required=True),
            _a("--table", required=True,
               help="the indexed table (query vectors are looked up "
                    "here by key)"),
            _a("--keys", required=True,
               help="comma-separated doc_ids whose vectors are the "
                    "queries"),
            *ANN_TOPK,
        ), _search_ann),
    Cmd("index-fingerprints",
        "build or extend the exact-dedup fingerprint ledger over a "
        "parquet input (each build stages one part and swaps it in "
        "before the meta)", (
            _a("--input", required=True,
               help="parquet file or directory with (doc_id, text)"),
            LEDGER_OUTPUT,
            _a("--part", default="base",
               help="part name (re-using a name overwrites that part)"),
            _a("--num-buckets", type=int, default=64,
               help="fixed by the FIRST build; later values are ignored"),
        ), partial(_ledger_index, "build_fingerprint_index",
                   ["doc_id", "text"], ()), ray=True),
    Cmd("dedup-incremental",
        "dedup a parquet input within itself AND against the "
        "fingerprint ledger without rescanning the corpus; optionally "
        "commit survivors back as a new ledger part",
        (*DEDUP_IO, *SURVIVORS),
        partial(_ledger_dedup, "incremental_dedup", "build_fingerprint_index",
                ["doc_id", "text"]), ray=True, writes_parts=True),
    Cmd("index-minhash",
        "build or extend the MinHash near-dup ledger over a parquet "
        "input (map-only signature pass; each build stages one part and "
        "swaps it in before the meta; LSH params pinned by the first "
        "build)", (
            _a("--input", required=True,
               help="parquet file or directory with (doc_id, text)"),
            LEDGER_OUTPUT,
            PART,
            NUM_BUCKETS,
            _a("--num-perm", type=int, default=64),
            _a("--bands", type=int, default=16),
            _a("--shingle-k", type=int, default=3),
        ), partial(_ledger_index, "build_minhash_index", ["doc_id", "text"],
                   ("num_perm", "bands", "shingle_k")), ray=True),
    Cmd("dedup-neardup",
        "near-dup dedup a parquet input against the MinHash ledger "
        "(bucket-pruned probes, corpus never rescanned); optionally "
        "commit survivors back as a new ledger part", (
            *DEDUP_IO,
            _a("--threshold", type=float, default=0.6),
            *SURVIVORS,
            _a("--limit", type=int, default=20,
               help="hit rows printed (full hit list still computed)"),
        ), partial(_ledger_dedup, "incremental_neardup_dedup",
                   "build_minhash_index", ["doc_id", "text"]),
        ray=True, writes_parts=True),
    Cmd("index-embeddings",
        "build or extend the embedding near-dup ledger over a parquet "
        "input (map-only hyperplane-LSH pass, atomic part swap; planes "
        "pinned by the first build)", (
            _a("--input", required=True,
               help="parquet file or directory with (vec_id, embedding)"),
            LEDGER_OUTPUT,
            PART,
            NUM_BUCKETS,
            _a("--n-planes", type=int, default=12),
            _a("--seed", type=int, default=5),
        ), partial(_ledger_index, "build_embedding_index",
                   ["vec_id", "embedding"], ("n_planes", "seed")), ray=True),
    Cmd("dedup-embdup",
        "cosine near-dup dedup a parquet input against the embedding "
        "ledger (bucket-pruned probes, exact cosine verify)", (
            *DEDUP_IO,
            _a("--threshold", type=float, default=0.95),
            *SURVIVORS,
            _a("--limit", type=int, default=20),
        ), partial(_ledger_dedup, "incremental_embdup_dedup",
                   "build_embedding_index", ["vec_id", "embedding"]),
        ray=True, writes_parts=True),
    Cmd("compact-ledger",
        "merge a dedup ledger's epoch parts into one (manifest-ordered: "
        "compacted part first, atomic switch, old dirs removed last)", (
            LEDGER,
            _a("--into", default="compacted", help="compacted part name"),
        ), _compact_ledger, ray=True),
    Cmd("export-shuffled",
        "deterministic seeded global shuffle of a parquet input into N "
        "training shards (one map pass + one exchange; (shard, order) "
        "is a pure hash of key and seed)", (
            _a("--input", required=True,
               help="parquet file or directory to shuffle"),
            _a("--output", required=True),
            _a("--num-shards", type=int, default=64),
            _a("--seed", type=int, default=1),
            KEY_COL,
        ), _export_shuffled, ray=True),
    Cmd("index-tokens",
        "build or incrementally refresh a BM25 token index over a "
        "committed table (re-derives ONLY partitions whose file "
        "chains changed since the indexed epoch)", (
            TABLE,
            _a("--output", required=True, help="index directory"),
            NUM_BUCKETS,
        ), _index_tokens, ray=True),
    Cmd("search-tokens",
        "BM25 top-k over a table token index — opens only the query "
        "token ids' postings buckets, no Ray job", (
            _a("--index", required=True),
            _a("--tokens", required=True, help="comma-separated token ids"),
            *BM25,
        ), _search_tokens),
    Cmd("mutate",
        "predicate mutation (ALTER TABLE ... DELETE/UPDATE WHERE "
        "analog): delete or set-constant rows WHERE col BETWEEN lo AND "
        "hi; partitions pruned by skip-index zones first, unmatched "
        "partitions never rewritten", (
            TABLE,
            _a("--where", required=True,
               help="col:lo:hi range predicate (empty lo/hi = unbounded "
                    "side), e.g. n_tok:100:200 or event_ts:2024-01-01:"),
            _a("--delete", action="store_true"),
            _a("--set", action="append", default=[], metavar="COL=VALUE",
               help="assign a constant to matched rows (repeatable)"),
        ), _mutate, ray=True),
    Cmd("scan",
        "range scan WHERE col BETWEEN lo AND hi with skip-index pruning "
        "(ClickHouse minmax skip-index analog): partitions/files whose "
        "manifest zones cannot overlap never open", (
            TABLE,
            _a("--col", required=True),
            _a("--lo", default=None, help="inclusive lower bound"),
            _a("--hi", default=None, help="inclusive upper bound"),
            _a("--columns", default=None,
               help="comma-separated projection (default: all)"),
            _a("--and", dest="and_preds", action="append", default=[],
               metavar="COL:LO:HI",
               help="additional conjunct (repeatable); parts must "
                    "overlap EVERY bounded column's zones to open"),
            _a("--limit", type=int, default=10),
            EPOCH,
        ), _scan, ray=True),
    Cmd("get",
        "point lookup by key — opens only the routed partitions "
        "(driver-side latency path, no Ray job)", (
            TABLE,
            _a("--keys", required=True, help="comma-separated key values"),
            EPOCH,
        ), _get),
    Cmd("diff",
        "CDC-out: the change stream (op c|u|d) between two retained "
        "epochs — unchanged partitions pruned at the manifest", (
            TABLE,
            _a("--from-epoch", type=int, required=True),
            _a("--to-epoch", type=int, default=None),
            _a("--limit", type=int, default=20),
            _a("--output", default=None,
               help="stream the full change set to this directory as "
                    "parquet (one file per changed partition)"),
        ), _diff, ray=True, writes_parts=True),
    Cmd("query",
        "run a driver-contract query/operator by name over an sf dir "
        "(list available names with `query --list`)", (
            _a("name", nargs="?", default=None),
            SF_DIR,
            _a("--list", action="store_true", dest="list_queries"),
            _a("--limit", type=int, default=20,
               help="rows printed (full result still computed)"),
            _a("--output", default=None,
               help="write the FULL result to this directory as parquet "
                    "(Dataset results stream one file per block — never "
                    "materialized on the driver)"),
        ), _query, ray=lambda a: a.name is not None and not a.list_queries,
        writes_parts=True),
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cdp-ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)
    for cmd in COMMANDS:
        sp = sub.add_parser(cmd.name, help=cmd.help)
        for flags, kw in cmd.args:
            sp.add_argument(*flags, **kw)
        sp.set_defaults(command=cmd)
    return p


def _start_ray(num_cpus: int | None) -> bool:
    """Start the CLI's Ray session unless one is live; True = started
    here (so ``main`` owns its shutdown)."""
    import ray

    started = not ray.is_initialized()
    if started:
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return started


def main(argv: list[str] | None = None) -> int:
    """Dispatch with one-line actionable errors (a missing table, a lost
    commit race or a bad epoch is an operator mistake, not a traceback —
    unlike the reference services, which surface raw exceptions)."""
    from .state.manifest import ConcurrentCommitError

    args = build_parser().parse_args(argv)
    cmd = args.command
    started = False
    try:
        if cmd.writes_parts and args.output and _holds_parts(args.output):
            # Ray writes unique file names, so a reused dir silently
            # interleaves two runs (and a summary re-reading it counts both)
            raise ValueError(
                f"output dir {args.output} already holds parquet files; "
                "point --output at an empty or new directory"
            )
        if cmd.ray(args) if callable(cmd.ray) else cmd.ray:
            started = _start_ray(args.num_cpus)
        args.t0 = time.perf_counter()
        return cmd.run(args)
    except ConcurrentCommitError as e:
        print(f"error: {e} — another writer committed to this table first; "
              f"re-run the command", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        missing = getattr(e, "filename", None) or str(e)
        hint = (" — table not initialized? run `init --table ...` first"
                if "manifest-" in str(missing) else "")
        print(f"error: not found: {missing}{hint}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        if started:
            import ray

            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
