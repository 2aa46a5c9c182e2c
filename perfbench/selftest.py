"""The benchmark's checks on itself (``run.py --selftest``):

1. the percentile helper refuses percentiles with fewer than 10 samples
   beyond them;
2. the open-loop schedule times segments from when they were due: a stall
   injected into one ``apply_once`` call shows up in the freshness of the
   segments that fell due during it, and as generator lag;
3. the oracle catches an injected corruption: one flipped token in a copy
   of a committed table, and one delete dropped from the replayed WAL.
"""

from __future__ import annotations

import os
import shutil
import time

import pyarrow as pa
import pyarrow.parquet as pq
import ray

from clickhouse_data_pipeline_ray.pipelines.apply import (
    apply_once,
    create_table,
    read_snapshot,
)
from clickhouse_data_pipeline_ray.pipelines.lookup import lookup_keys

from . import workloads as W
from .loadgen import generate
from .measure import percentile
from .oracle import Oracle

STALL_S = 1.0


def _check(results: list, name: str, ok: bool, detail: str = "") -> None:
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name} {detail}", flush=True)


def _percentiles(results: list) -> None:
    _check(results, "p90 refused at 99 samples", percentile(list(range(99)), 0.9) is None)
    _check(results, "p90 given at 100 samples", percentile(list(range(100)), 0.9) is not None)
    _check(results, "p50 refused at 19 samples", percentile(list(range(19)), 0.5) is None)
    _check(results, "p50 given at 20 samples", percentile(list(range(20)), 0.5) is not None)


def _schedule(results: list, run_dir: str, merge_concurrency: int) -> None:
    b = W.Bench(run_dir, os.path.join(run_dir, "cache"), 7, 6, merge_concurrency, 0.0)
    calls = {"n": 0, "stall": None}
    apply = b.apply

    def stalled_apply(table, wal, p, max_segments=None):
        calls["n"] += 1
        if calls["n"] == 15:   # a tail epoch, after the set-up epochs
            calls["stall"] = time.perf_counter()
            time.sleep(STALL_S)
        return apply(table, wal, p, max_segments)

    b.apply = stalled_apply
    p = W.tail_trickle(b)
    worst = max(p.freshness)
    _check(results, "stall counts in freshness (timed from due)",
           worst >= STALL_S, f"max freshness {worst:.3f}s, stall {STALL_S}s")
    _check(results, "stall shows as generator lag",
           max(p.lag) >= 0.5 * STALL_S, f"max lag {max(p.lag):.3f}s")
    _check(results, "stalled run still correct", p.failed == 0)


def _flip_one_token(table_dir: str) -> str:
    """Add 1 to the first token of the first row of one part file; returns
    the row's key."""
    for d, _dirs, names in sorted(os.walk(os.path.join(table_dir, "parts"))):
        for name in sorted(names):
            if not name.startswith("snapshot-"):
                continue
            path = os.path.join(d, name)
            t = pq.read_table(path)
            toks = t.column("tokens").to_pylist()
            toks[0] = [toks[0][0] + 1] + toks[0][1:]
            i = t.schema.get_field_index("tokens")
            t = t.set_column(i, t.schema.field(i), pa.array(toks, t.schema.field(i).type))
            pq.write_table(t, path)
            return t.column("doc_id")[0].as_py()
    raise RuntimeError("no snapshot part to corrupt")


def _snapshot(table_dir: str) -> pa.Table:
    return pa.concat_tables(ray.get(read_snapshot(table_dir).to_arrow_refs()))


def _oracle_catches(results: list, run_dir: str) -> None:
    wal = os.path.join(run_dir, "st-wal")
    stream = generate(wal, W.tail_spec(600, 40, 10.0, 4), seed=11)
    last = sum(stream.seg_events)
    oracle = Oracle(wal, stream.segments)
    table = os.path.join(run_dir, "st-table")
    create_table(table, num_partitions=W.TAIL_PARTITIONS)
    b = W.Bench(run_dir, "", 0, 0, 1, 0.0)
    while apply_once(table, wal, b.cfg()) is not None:
        pass
    _check(results, "clean table matches oracle",
           oracle.table_mismatches(_snapshot(table), last) == 0)

    copy = os.path.join(run_dir, "st-copy")
    shutil.copytree(table, copy)
    key = _flip_one_token(copy)
    bad = oracle.table_mismatches(_snapshot(copy), last)
    _check(results, "flipped token caught by table check", bad == 1, f"{bad} rows flagged")
    bad = oracle.lookup_mismatches([([key], last, lookup_keys(copy, [key]))])
    _check(results, "flipped token caught by lookup check", bad == 1)

    # drop the last delete whose key has no later event, then replay
    ev = pa.concat_tables(pq.read_table(os.path.join(wal, s)) for s in stream.segments)
    rows = ev.to_pylist()
    last_lsn_of = {r["doc_id"]: r["lsn"] for r in rows}
    victim = next(r for r in reversed(rows)
                  if r["op"] == "d" and last_lsn_of[r["doc_id"]] == r["lsn"])
    wal2, table2 = os.path.join(run_dir, "st-wal2"), os.path.join(run_dir, "st-table2")
    os.makedirs(wal2)
    for s in stream.segments:
        t = pq.read_table(os.path.join(wal, s))
        keep = pa.array([lsn != victim["lsn"] for lsn in t.column("lsn").to_pylist()])
        pq.write_table(t.filter(keep), os.path.join(wal2, s))
    create_table(table2, num_partitions=W.TAIL_PARTITIONS)
    while apply_once(table2, wal2, b.cfg()) is not None:
        pass
    bad = oracle.table_mismatches(_snapshot(table2), last)
    _check(results, "dropped delete caught by table check", bad == 1, f"{bad} rows flagged")
    bad = oracle.lookup_mismatches(
        [([victim["doc_id"]], last, lookup_keys(table2, [victim["doc_id"]]))]
    )
    _check(results, "dropped delete caught by lookup check", bad == 1)
    oracle.close()


def selftest(run_dir, merge_concurrency: int) -> int:
    results: list[bool] = []
    _percentiles(results)
    _oracle_catches(results, str(run_dir))
    _schedule(results, str(run_dir), merge_concurrency)
    print(f"selftest: {results.count(True)}/{len(results)} passed", flush=True)
    return 0 if all(results) else 1
