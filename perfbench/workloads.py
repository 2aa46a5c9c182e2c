"""The workloads, each driven from one single-threaded driver process.

Each workload sets up (input preparation, table create, a warm-up epoch),
measures for ``--seconds`` and then checks every read it made against the
DuckDB oracle. See README.md for the input properties each one fixes and
the layers it is meant to stress.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import ray

from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    apply_once,
    compact_table,
    create_table,
    read_snapshot,
)
from clickhouse_data_pipeline_ray.pipelines.lookup import lookup_keys
from clickhouse_data_pipeline_ray.stages.partition import partition_of
from clickhouse_data_pipeline_ray.state.manifest import (
    ConcurrentCommitError,
    load_manifest,
)

from .loadgen import Stream, StreamSpec, cached_stream
from .measure import PartsWatcher, peak_rss_mb, process_tree, reset_peak_rss
from .oracle import Oracle

# Epochs above this many events take the distributed Ray Data path; at or
# below it the driver-side micro-epoch path. Fixed here (not the engine
# default of 20k) so that bulk epochs of 3,000 long rows stay distributed
# while every tail epoch stays driver-side.
SMALL_EPOCH_EVENTS = 2_000
# Delta chains fold into a snapshot at this length (engine default 8): at
# 16, about a third of tail epochs include a threshold compaction, so the
# freshness median sits among plain epochs and the p90 among compacting
# ones instead of on the boundary between them.
COMPACT_THRESHOLD = 16
SETUP_REPS = 3
READ_LOOKUPS = 200   # closed-loop point lookups in the read phase
READ_SCANS = 3       # full merge-on-read scans in the read phase
BULK_LOOKUPS = 50    # lookups on each bulk replay's compacted table
# lookup key kinds per 10 lookups: 0 Zipf over inserted keys, 1 uniform
# (cold), 2 hot-partition keys, 3 deleted at some point, 4 never inserted
LOOKUP_KINDS = [0, 0, 0, 0, 1, 1, 2, 2, 3, 4]

BULK = StreamSpec(
    base_events=0, base_seg_events=1, tail_events=6_000, tail_seg_events=100,
    tok_min=256, tok_max=2048, zipf_a=1.2, hot_keys=600, hot_share=0.5,
    num_partitions=20,
)
BULK_EPOCH_SEGMENTS = 30     # 3,000 events per epoch, 2 epochs per replay
BULK_MIN_REPLAYS = 3

TAIL_PARTITIONS = 4
TAIL_RATE = 7.0              # segments per second offered
TAIL_SEG_EVENTS = 40
RUT_RATE = 4.5
RUT_SEG_EVENTS = 16
RUT_SCAN_EVERY_S = 5.0


def tail_spec(base: int, seg_events: int, rate: float, seconds: int) -> StreamSpec:
    n = math.ceil(rate * seconds)
    return StreamSpec(
        base_events=base, base_seg_events=base, tail_events=n * seg_events,
        tail_seg_events=seg_events, tok_min=32, tok_max=512, zipf_a=1.2,
        num_partitions=TAIL_PARTITIONS,
    )


@dataclass
class Pass:
    """What one measured pass recorded."""

    setup_s: float = 0.0
    apply_events: int = 0
    apply_s: float = 0.0                 # wall inside apply_once + compaction
    catchup_rates: list[float] = field(default_factory=list)
    freshness: list[float] = field(default_factory=list)
    lookup_ms: list[float] = field(default_factory=list)
    scan_rates: list[float] = field(default_factory=list)
    wal_bytes: int = 0
    table_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    backlog: int = 0
    lag: list[float] = field(default_factory=list)
    rss_mb: float = 0.0


class Bench:
    """One benchmark process: its scratch directories, the Ray session's
    sizing, the optional tracer and the workload seed."""

    def __init__(self, run_dir: str, cache_dir: str, seed: int, seconds: int,
                 merge_concurrency: int, ray_start_s: float):
        self.run_dir = run_dir
        self.cache_dir = cache_dir
        self.seed = seed
        self.seconds = seconds
        self.merge_concurrency = merge_concurrency
        self.ray_start_s = ray_start_s
        self.tracer = None
        self.rng = np.random.default_rng([seed, 0x100C])

    def cfg(self, max_segments: int | None = None) -> ApplyConfig:
        return ApplyConfig(
            max_segments=max_segments,
            merge_concurrency=self.merge_concurrency,
            small_epoch_events=SMALL_EPOCH_EVENTS,
            compact_threshold=COMPACT_THRESHOLD,
        )

    def path(self, name: str) -> str:
        return os.path.join(self.run_dir, name)

    def span(self, name: str, **attrs):
        if self.tracer and self.tracer.active:
            return self.tracer.span(name, **attrs)
        return contextlib.nullcontext({})

    # ---- calls into the engine -------------------------------------------

    def apply(self, table: str, wal: str, p: Pass, max_segments: int | None = None):
        t0 = time.perf_counter()
        retries = 0
        with self.span("apply") as sp:
            while True:
                try:
                    stats = apply_once(table, wal, self.cfg(max_segments))
                    break
                except ConcurrentCommitError:
                    retries += 1
            sp.update(events=stats["events_applied"] if stats else 0,
                      segments=stats["segments"] if stats else 0,
                      hot_pids=len(stats["hot_pids"]) if stats else 0,
                      retries=retries)
        if stats:
            p.apply_s += time.perf_counter() - t0
            p.apply_events += stats["events_applied"]
        return stats

    def compact(self, table: str, p: Pass) -> None:
        t0 = time.perf_counter()
        with self.span("compact_table"):
            compact_table(table, concurrency=self.merge_concurrency)
        p.apply_s += time.perf_counter() - t0

    def scan(self, table: str) -> tuple[pa.Table, float]:
        files = 0
        if self.tracer and self.tracer.active:
            man = load_manifest(table)
            files = sum(len(m.get("files") or []) for m in man.partitions.values())
        t0 = time.perf_counter()
        with self.span("scan", files=files) as sp:
            ds = read_snapshot(table)
            rows = pa.concat_tables(ray.get(ds.to_arrow_refs()))
            sp["rows"] = rows.num_rows
        return rows, time.perf_counter() - t0

    def lookup(self, table: str, keys: list[str]) -> tuple[pa.Table, float]:
        chain = 0.0
        if self.tracer and self.tracer.active:
            man = load_manifest(table)
            chain = statistics.mean(
                len((man.partitions.get(str(partition_of(k, man.num_partitions))) or {})
                    .get("files") or [])
                for k in keys
            )
        t0 = time.perf_counter()
        with self.span("lookup", keys=len(keys), files_per_key=chain) as sp:
            rows = lookup_keys(table, keys)
            sp["rows"] = rows.num_rows
        return rows, time.perf_counter() - t0

    # ---- shared pieces ---------------------------------------------------

    def lookup_keys_for(self, stream: Stream, n: int) -> list[str]:
        """Zipf-chosen keys: hot (low ranks), cold (uniform), hot-partition
        keys, keys that were deleted at some point, and never-inserted keys."""
        out = []
        # exact shares per run (shuffled), so that no percentile depends on
        # how many slow hot-partition keys a seed happened to draw
        kinds = np.resize(LOOKUP_KINDS, n)
        self.rng.shuffle(kinds)
        ranks = self.rng.zipf(1.2, n)
        for kind, r in zip(kinds, ranks):
            if kind == 0:
                out.append(f"doc-{(r - 1) % stream.n_inserted:09d}")
            elif kind == 1:
                out.append(f"doc-{self.rng.integers(stream.n_inserted):09d}")
            elif kind == 2 and stream.hot_keys:
                out.append(stream.hot_keys[self.rng.integers(len(stream.hot_keys))])
            elif kind == 3 and stream.deleted_keys:
                out.append(stream.deleted_keys[self.rng.integers(len(stream.deleted_keys))])
            else:
                out.append(f"absent-{self.rng.integers(1 << 30):010d}")
        return out

    def setup(self, prepare) -> float:
        """Median wall of ``SETUP_REPS`` repetitions of ``prepare`` (input
        preparation + table create + warm-up epoch) plus the Ray start."""
        reps = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            prepare()
            reps.append(time.perf_counter() - t0)
        return self.ray_start_s + statistics.median(reps)

    def read_phase(self, table: str, stream: Stream, oracle: Oracle, wm: int, p: Pass,
                   scans: int = READ_SCANS) -> None:
        """Scans and closed-loop point lookups on the final table, each one
        checked against the oracle at watermark ``wm``."""
        for _ in range(scans):
            rows, secs = self.scan(table)
            p.scan_rates.append(rows.num_rows / secs)
            self.check_table(oracle, rows, wm, p)
        done = []
        for key in self.lookup_keys_for(stream, READ_LOOKUPS):
            rows, secs = self.lookup(table, [key])
            p.lookup_ms.append(secs * 1e3)
            done.append(([key], wm, rows))
        self.check_lookups(oracle, done, p)

    def check_table(self, oracle: Oracle, rows: pa.Table, wm: int, p: Pass) -> None:
        p.attempted += 1
        bad = oracle.table_mismatches(rows, wm)
        if bad:
            print(f"ORACLE MISMATCH: {bad} rows differ at watermark {wm}", flush=True)
            p.failed += 1

    def check_lookups(self, oracle: Oracle, done: list, p: Pass) -> None:
        p.attempted += len(done)
        bad = oracle.lookup_mismatches(done)
        if bad:
            print(f"ORACLE MISMATCH: {bad} of {len(done)} lookups", flush=True)
            p.failed += bad

    def start_window(self) -> list[int]:
        """Start of the measured window: the set-up's file writes are flushed
        (so their writeback does not land inside the window), tracing goes on
        (traced passes only) and every process's peak-RSS counter restarts."""
        os.sync()
        if self.tracer:
            self.tracer.install()
        pids = process_tree()
        reset_peak_rss(pids)
        return pids


def _copy(stream: Stream, names: list[str], dst: str) -> None:
    os.makedirs(dst, exist_ok=True)
    for name in names:
        shutil.copyfile(os.path.join(stream.dir, name), os.path.join(dst, name))


def _fresh(*dirs: str) -> None:
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)


# ---- bulk_catchup ----------------------------------------------------------


def bulk_catchup(b: Bench) -> Pass:
    """Closed loop: replay the whole pre-generated WAL into a fresh table in
    bounded distributed epochs, then compact; repeat for the window."""
    stream = cached_stream(b.cache_dir, "bulk", BULK, b.seed)
    wal, warm = b.path("wal"), b.path("warm")
    p = Pass()

    def prepare():
        _fresh(wal, warm)
        _copy(stream, stream.segments, wal)
        create_table(warm, num_partitions=BULK.num_partitions)
        b.apply(warm, wal, Pass(), max_segments=BULK_EPOCH_SEGMENTS)
        _fresh(warm)

    p.setup_s = b.setup(prepare)
    oracle = Oracle(stream.dir, stream.segments)
    last_lsn = BULK.tail_events
    pids = b.start_window()
    t_end = time.perf_counter() + b.seconds
    tables, reads = [], []
    while len(tables) < BULK_MIN_REPLAYS or time.perf_counter() < t_end:
        table = b.path(f"t{len(tables)}")
        create_table(table, num_partitions=BULK.num_partitions)
        watch = PartsWatcher(table)
        due = time.perf_counter()
        while (stats := b.apply(table, wal, p, BULK_EPOCH_SEGMENTS)) is not None:
            p.freshness += [time.perf_counter() - due] * stats["segments"]
            watch.scan()
        b.compact(table, p)
        watch.scan()
        p.catchup_rates.append(last_lsn / (time.perf_counter() - due))
        p.table_bytes += watch.bytes
        p.wal_bytes += sum(stream.wal_bytes)
        tables.append(table)
        # reads of the caught-up table, spread over the window with the
        # replays; checked against the oracle after the window
        rows, secs = b.scan(table)
        p.scan_rates.append(rows.num_rows / secs)
        looks = []
        for key in b.lookup_keys_for(stream, BULK_LOOKUPS):
            found, secs = b.lookup(table, [key])
            p.lookup_ms.append(secs * 1e3)
            looks.append(([key], last_lsn, found))
        reads.append((rows, looks))
    p.rss_mb = peak_rss_mb(pids)
    for table, (rows, looks) in zip(tables, reads):
        b.check_table(oracle, rows, last_lsn, p)
        b.check_lookups(oracle, looks, p)
        _fresh(table)
    _fresh(wal)
    oracle.close()
    return p


# ---- tail_trickle / read_under_tail -----------------------------------------


def _tail(b: Bench, tag: str, base: int, seg_events: int, rate: float,
          reads: bool) -> Pass:
    """Open loop: tail segments are renamed into the live WAL directory on a
    fixed schedule; ``apply_once`` runs whenever segments are pending. Each
    segment's freshness runs from the time it was due to the commit that
    made it visible. With ``reads``, idle time is filled with closed-loop
    point lookups and a full scan is due every ``RUT_SCAN_EVERY_S``."""
    spec = tail_spec(base, seg_events, rate, b.seconds)
    stream = cached_stream(b.cache_dir, tag, spec, b.seed)
    wal, staging, table = b.path("wal"), b.path("staging"), b.path("table")
    base_segs, tail_segs = stream.segments[:1], stream.segments[1:]
    p = Pass()

    def prepare():
        _fresh(wal, staging, table)
        _copy(stream, base_segs, wal)
        _copy(stream, tail_segs, staging)
        create_table(table, num_partitions=TAIL_PARTITIONS)
        b.apply(table, wal, Pass())   # the preload: one distributed epoch
        compact_table(table, concurrency=b.merge_concurrency)

    p.setup_s = b.setup(prepare)
    oracle = Oracle(stream.dir, stream.segments)
    watch = PartsWatcher(table)
    watch.scan()
    watch.bytes = 0   # count only what the tail writes
    n = len(tail_segs)
    wm_of = np.cumsum([base] + stream.seg_events[1:])   # watermark after k commits
    pids = b.start_window()
    t0 = time.perf_counter()
    t_end = t0 + b.seconds
    due = [t0 + (i + 1) / rate for i in range(n)]
    commit_at = [0.0] * n
    landed = committed = 0
    next_scan = t0 + RUT_SCAN_EVERY_S
    scans, looks = [], []
    keys = itertools.cycle(b.lookup_keys_for(stream, 4096))
    while committed < n:
        now = time.perf_counter()
        while landed < n and due[landed] <= now:
            os.rename(os.path.join(staging, tail_segs[landed]),
                      os.path.join(wal, tail_segs[landed]))
            p.lag.append(time.perf_counter() - due[landed])
            landed += 1
        if committed < landed:
            stats = b.apply(table, wal, p)
            t = time.perf_counter()
            for k in range(committed, committed + stats["segments"]):
                commit_at[k] = t
                p.freshness.append(t - due[k])
            committed += stats["segments"]
            watch.scan()
        elif reads and now >= next_scan and now < t_end:
            rows, secs = b.scan(table)
            p.scan_rates.append(rows.num_rows / secs)
            scans.append((rows, int(wm_of[committed])))
            next_scan += RUT_SCAN_EVERY_S
        elif reads and now < t_end:
            key = [next(keys)]
            rows, secs = b.lookup(table, key)
            p.lookup_ms.append(secs * 1e3)
            looks.append((key, int(wm_of[committed]), rows))
        elif landed < n:
            time.sleep(max(0.0, due[landed] - time.perf_counter()))
    p.rss_mb = peak_rss_mb(pids)
    # segments already due at the end of the window but not yet visible
    p.backlog = sum(1 for d, c in zip(due, commit_at) if d <= t_end < c)
    p.wal_bytes = sum(stream.wal_bytes[1:])
    p.table_bytes = watch.bytes
    for rows, wm in scans:
        b.check_table(oracle, rows, wm, p)
    b.check_lookups(oracle, looks, p)
    if not reads:
        b.read_phase(table, stream, oracle, int(wm_of[-1]), p)
    else:
        rows, _ = b.scan(table)
        b.check_table(oracle, rows, int(wm_of[-1]), p)
    _fresh(wal, staging, table)
    oracle.close()
    return p


def tail_trickle(b: Bench) -> Pass:
    return _tail(b, "tail", 2_400, TAIL_SEG_EVENTS, TAIL_RATE, reads=False)


def read_under_tail(b: Bench) -> Pass:
    return _tail(b, "rut", 8_000, RUT_SEG_EVENTS, RUT_RATE, reads=True)


WORKLOADS = {
    "bulk_catchup": bulk_catchup,
    "tail_trickle": tail_trickle,
    "read_under_tail": read_under_tail,
}
