"""Row-level equivalence of two engine checkouts, one replay per table mode.

Each scenario replays an 8-segment WAL one segment per epoch: every third
epoch runs driver-side (micro-epoch), the others distributed with every pid
the previous epoch touched salted; compact threshold 3 makes chains fold on
both paths. Then it runs ``compact_table``, ``ttl_expire`` and
``mutate_table``. After every step it
records ``snapshot_table``, each partition's (file count, row count) and the
step's returned stats (timings dropped).

Run each side from its own checkout directory: Ray workers import the
package from the driver's working directory, so ``PYTHONPATH`` alone would
run the workers on whatever checkout the shell is in.

    cd <checkout A> && PYTHONPATH=. python <this file> run OUT_A
    cd <checkout B> && PYTHONPATH=. python <this file> run OUT_B
    python <this file> compare OUT_A OUT_B
"""

from __future__ import annotations

import datetime as dt
import json
import os
import shutil
import sys
import tempfile

import pyarrow as pa
import pyarrow.parquet as pq

NOISE = {"wall_s", "events_per_s", "stage_stats"}


def _scenarios(work: str):
    from clickhouse_data_pipeline_ray.schemas import FACT_SNAPSHOT_SCHEMA
    from clickhouse_data_pipeline_ray.sources.gen import (
        CollapseGenParams,
        FactGenParams,
        GenParams,
        generate_collapse_wal,
        generate_fact_wal,
        generate_wal,
    )

    facts = os.path.join(work, "wal_facts")
    generate_fact_wal(facts, FactGenParams(
        total_events=3_000, events_per_segment=375, n_docs=300, seed=5))
    tokens = os.path.join(work, "wal_tokens")
    generate_wal(tokens, GenParams(
        total_events=3_000, base_events=500, events_per_segment=375, seed=7,
        mix=(0.3, 0.5, 0.2), tok_min=4, tok_max=32))
    collapse = os.path.join(work, "wal_collapse")
    generate_collapse_wal(collapse, CollapseGenParams(
        total_events=3_000, events_per_segment=375, n_docs=300, seed=9))
    lo, hi = 800, 1_600
    ttl = dt.datetime(2024, 3, 1)
    return {
        # token table: tombstones, no timestamp column for a TTL
        "upsert_tokens": (tokens, {}, None, dict(col="lsn", lo=lo, hi=hi, delete=True)),
        "upsert_facts": (facts, dict(schema=FACT_SNAPSHOT_SCHEMA, skip_cols=["lsn"]),
                         ttl, dict(col="lsn", lo=lo, hi=hi, set_cols={"value": 0.0})),
        "append": (facts, dict(schema=FACT_SNAPSHOT_SCHEMA, mode="append",
                               key_col="event_id"),
                   ttl, dict(col="lsn", lo=lo, hi=hi, delete=True)),
        "sum": (facts, dict(schema=FACT_SNAPSHOT_SCHEMA, mode="sum",
                            sum_cols=["value"], skip_cols=["lsn"]),
                ttl, dict(col="lsn", lo=lo, hi=hi, set_cols={"event_type": "x"})),
        "collapse": (collapse, dict(schema=FACT_SNAPSHOT_SCHEMA.append(
            pa.field("sign", pa.int32())), mode="collapse"),
            ttl, dict(col="lsn", lo=lo, hi=hi, delete=True)),
    }


def run(out: str) -> None:
    import ray

    from clickhouse_data_pipeline_ray.pipelines.apply import (
        ApplyConfig,
        apply_once,
        compact_table,
        create_table,
        mutate_table,
        snapshot_table,
        ttl_expire,
    )
    from clickhouse_data_pipeline_ray.state.manifest import load_manifest

    ray.init(num_cpus=2, include_dashboard=False, logging_level="ERROR")
    work = tempfile.mkdtemp(prefix="mode_equiv_")
    os.makedirs(out, exist_ok=True)
    try:
        for name, (wal, ddl, ttl, mutation) in _scenarios(work).items():
            table = os.path.join(work, name)
            create_table(table, num_partitions=4, **ddl)
            log = []

            def record(step: str, stats) -> None:
                man = load_manifest(table)
                pq.write_table(snapshot_table(table),
                               os.path.join(out, f"{name}-{len(log):02d}.parquet"))
                if isinstance(stats, dict):
                    stats = {k: v for k, v in stats.items() if k not in NOISE}
                log.append({
                    "step": step,
                    "stats": stats,
                    "partitions": {pid: [len(p["files"]), int(p["rows"])]
                                   for pid, p in sorted(man.partitions.items())},
                })

            epoch = 0
            while True:
                cfg = ApplyConfig(
                    max_segments=1, compact_threshold=3, salt_factor=4,
                    hot_ratio=0.0, small_epoch_events=20_000 if epoch % 3 == 0 else 0,
                )
                stats = apply_once(table, wal, cfg)
                if stats is None:
                    break
                epoch += 1
                record(f"apply{epoch}", stats)
            record("compact", compact_table(table))
            if ttl is not None:
                record("ttl", ttl_expire(table, "event_ts", ttl))
            try:
                record("mutate", mutate_table(table, **mutation))
            except ValueError as e:
                record("mutate", f"ValueError: {e}")
            with open(os.path.join(out, f"{name}.json"), "w") as f:
                json.dump(log, f, indent=1, default=str)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        ray.shutdown()


def compare(a: str, b: str) -> int:
    bad = 0
    for fn in sorted(f for f in os.listdir(a) if f.endswith(".json")):
        name = fn[:-5]
        la, lb = (json.load(open(os.path.join(d, fn))) for d in (a, b))
        for i, (sa, sb) in enumerate(zip(la, lb)):
            snap = f"{name}-{i:02d}.parquet"
            ta, tb = (pq.read_table(os.path.join(d, snap)) for d in (a, b))
            same = ta.equals(tb) and sa == sb
            bad += not same
            print(f"{name:14s} {sa['step']:8s} rows={ta.num_rows:5d} "
                  f"{'equal' if same else 'DIFFERENT'}"
                  + ("" if sa["stats"] is None or isinstance(sa["stats"], str)
                     else f" hot_pids={sa['stats'].get('hot_pids', '-')}"))
        if len(la) != len(lb):
            bad += 1
            print(f"{name}: {len(la)} vs {len(lb)} steps")
    print("ALL EQUAL" if not bad else f"{bad} DIFFERENCES")
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1] == "run":
        run(sys.argv[2])
    else:
        sys.exit(compare(sys.argv[2], sys.argv[3]))
