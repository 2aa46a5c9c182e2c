"""Epoch driver: compose the stages into one epoch and commit.

The analog of the reference's sync cycle (`ETLPipeline.run_sync_cycle`,
/root/reference/etl/core/pipeline.py:332-365: extract → transform → load with
an in-memory watermark) and of its Kafka poll loop
(/root/reference/stream_etl/core/consumer.py:86-109), unified into one
resumable micro-batch loop:

    pending segments (> manifest watermark, name-pruned)
      → read tasks (plain Ray tasks, ~1 per CPU, balanced by event count;
        a segment splits by row group or row range when there are fewer
        segments than CPUs):
          read → normalize + pid/salt + per-batch reduce
          → route: one table per merge dest, one return value each
      → merge actor pool (session-long, n actors):
          hot (pid, salt) dests: reduce_changes             [salted L1]
          own dest + hot partials: split by pid, MergeApply [stateful merge]
      → driver: fsync part dirs + put-if-absent manifest    [exactly-once]

No stage runs a Ray Data execution: the tasks, the actor calls and the
commit are the whole epoch. The per-epoch change volume is bounded by
``max_segments``, and one epoch's routed change set sits in the object
store until its merge calls return. A cold pid goes to actor ``pid % n``; a
hot pid's rows fan out over ``salt_factor`` extra dests whose reduced
partials feed that pid's merge. Each merge call fetches only its own dest's
tables and runs the same split-and-apply kernel (:func:`merge_by_pid`) as
the driver-side micro-epoch path. Hot-partition detection uses the previous
epoch's per-pid applied counts from the manifest (skew is sticky in CDC
streams), so there is no extra counting pass. The driver never holds row
data — only O(P) stats rows from the merge actors.

Each epoch appends O(changes) per-partition delta files and folds a
partition's chain into one snapshot when it reaches ``compact_threshold`` —
the MERGE-on-read scale path; ``compact_threshold=1`` folds touched
partitions every epoch (MERGE-on-write). Every per-partition table job
runs on one partition runner (:func:`_scan`: about one plain Ray task per
CPU over byte-balanced runs of whole partitions, at call time): the scans
here and in ``scan``/``diff``, maintenance above ``COMPACT_DRIVER_BYTES``,
artifact refreshes, snapshot scoring and the read side of a repartition.
An import or a repartition is an epoch with another source, merged on the
same pool, so the table engine runs no Ray Data execution.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from ..schemas import (
    BASE_SCHEMA,
    SNAPSHOT_SCHEMA,
    schema_to_b64,
    snapshot_schema_of,
    unify,
)
from ..sources.wal import (
    Segment,
    pending_segments,
    segment_num_rows,
    segment_schema,
)
from ..stages.merge import (
    MergeApply,
    collapse_winner_mask,
    granule_ranges,
    promote_part,
    read_part,
    reduce_changes,
)
from ..stages.normalize import make_normalize_fn
from ..state import manifest as manifest_mod
from ..state.manifest import (
    ConcurrentCommitError,
    Manifest,
    commit_manifest,
    empty_partition,
    init_table,
    load_manifest,
)


@dataclass
class ApplyConfig:
    max_segments: int | None = None       # per-epoch segment cap (backpressure)
    salt_factor: int = 8                  # sub-keys per hot partition
    hot_ratio: float = 4.0                # pid is "hot" if its rows > ratio × mean
    # Size of the session-long merge actor pool (see _merge_pool): an int is
    # used as given; a (lo, hi) range is clamped around the session's CPU
    # count. The actors reserve no CPU — they only run after the epoch's
    # read tasks have finished, so they never compete with them, and an
    # idle pool leaves every CPU to other Ray work.
    merge_concurrency: int | tuple = (1, 8)
    # a partition's file chain folds into one snapshot when it would reach
    # this many files (see MergeApply); 1 = MERGE-on-write every epoch
    compact_threshold: int = 8
    # late-data tolerance for event-time watermark accounting (only used by
    # tables with an event_time_col): an event is counted late when its event
    # time is more than this many seconds behind the committed event-time
    # watermark. 0 = strictly monotone expectation.
    allowed_lateness_s: float = 0.0
    # Epochs at or below this many raw events run read+normalize+merge
    # DRIVER-SIDE with the SAME kernels and commit protocol (identical
    # results by construction; pinned by tests): the read tasks and the
    # actor round trips cost tens of ms, which dominates micro-batch epochs
    # — the steady-state CDC tail case. Large epochs take the distributed
    # path. 0 disables the fast path.
    small_epoch_events: int = 20_000
    # Dead-letter queue: with a directory set, malformed change events
    # (invalid op, null lsn, null key) are QUARANTINED to
    # <dlq_dir>/epoch=N/part-*.parquet (raw rows + a `reason` column)
    # instead of failing the epoch — the Kafka-Connect DLQ analog. The
    # epoch's DLQ dir is wiped when the epoch (re)starts, so a crash-retried
    # epoch never double-quarantines; `dlq_rows` lands in the epoch stats.
    # None (default) keeps the strict fail-loudly contract.
    dlq_dir: str | None = None
    # Size-tiered background compaction (the LSM/ClickHouse background-merge
    # policy, see compact_plan): after each committed epoch, compact the
    # partitions whose delta bytes exceed ratio × base snapshot bytes.
    # Bounds read amplification at (1+ratio)× without the per-replay-config
    # chain-length heuristic (compact_threshold still applies inside the
    # merge workers). None = off (explicit compact_table calls only).
    auto_compact_ratio: float | None = None


def create_table(
    table_dir: str,
    num_partitions: int = 64,
    schema: pa.Schema | None = None,
    mode: str = "upsert",
    key_col: str = "doc_id",
    partition_spec: dict | None = None,
    retention: int | None = None,
    event_time_col: str = "",
    sum_cols: list[str] | None = None,
    skip_cols: list[str] | None = None,
) -> Manifest:
    from ..state.manifest import MANIFEST_RETENTION

    return init_table(
        table_dir,
        schema or SNAPSHOT_SCHEMA,
        num_partitions,
        mode=mode,
        key_col=key_col,
        partition_spec=partition_spec,
        retention=retention if retention is not None else MANIFEST_RETENTION,
        event_time_col=event_time_col,
        sum_cols=sum_cols,
        skip_cols=skip_cols,
    )


def _epoch_change_schema(man: Manifest, segs: list[Segment]) -> pa.Schema:
    """Unified schema for this epoch = snapshot schema ⊔ all segment schemas
    (Arrow schema unification: column add + permissive widen). The engine's
    schema-evolution point, replacing the reference's per-value parsers
    (/root/reference/stream_etl/core/processor.py:41-141)."""
    seg_snap = [snapshot_schema_of(segment_schema(s)) for s in segs]
    snap = unify([man.schema] + seg_snap)
    return snap.insert(1, pa.field("op", pa.string())), snap


def _read_piece(path: str, rows: tuple | None, columns: list[str] | None) -> pa.Table:
    """One WAL piece: a whole segment (``rows=None``) or its ``[lo, hi)``
    row range, which reads only the parquet row groups that hold it.
    ``columns`` keeps the requested columns the file has: a WAL spanning a
    schema evolution has pre-evolution files without the new columns, and
    the caller null-fills the gap (the unify+cast convention)."""
    if path.endswith(".jsonl"):
        import pyarrow.json as pj

        # one parse block: types are inferred over the whole file
        size = max(1 << 20, os.path.getsize(path) + 1)
        t = pj.read_json(path, read_options=pj.ReadOptions(block_size=size))
        return t.select([c for c in columns if c in t.column_names]) if columns else t
    columns = columns or None
    if rows is None:
        return read_part(path, columns)
    lo, hi = rows
    starts = _row_group_starts(pq.read_metadata(path))
    first = int(np.searchsorted(starts, lo, side="right")) - 1
    last = int(np.searchsorted(starts, hi, side="left"))
    t = read_part(path, columns, range(first, last))
    return t.slice(lo - int(starts[first]), hi - lo)


def _row_group_starts(md) -> np.ndarray:
    """First row of every row group, then the file's row count."""
    sizes = [md.row_group(i).num_rows for i in range(md.num_row_groups)]
    return np.cumsum([0] + sizes)


def _read_pieces(pieces: list[tuple], fn, columns: list[str] | None = None) -> pa.Table:
    """Read ``(path, rows)`` pieces (see :func:`_read_piece`) and map them
    through ``fn``: the one reader of both apply paths and both MV tick
    paths, on the driver or inside a read task. Consecutive pieces of one
    file schema are concatenated into one ``fn`` call."""
    runs: list[list[pa.Table]] = []
    for path, rows in pieces:
        t = _read_piece(path, rows, columns)
        if runs and runs[-1][0].schema.equals(t.schema):
            runs[-1].append(t)
        else:
            runs.append([t])
    outs = [fn(pa.concat_tables(run)) for run in runs]
    return pa.concat_tables(outs, promote_options="permissive")


def _session_cpus() -> int:
    return max(1, int(ray.cluster_resources().get("CPU", 8)))


def _balanced_runs(weights: list[int], n: int) -> list[list[int]]:
    """Cut the items ``0 .. len(weights) - 1`` into at most ``n`` contiguous
    runs of about equal weight: item ``i`` joins run ``n * (weight before
    i) // total`` (all-zero weights count 1 each). The one balancing rule of
    every task plan: read tasks over WAL segments (by event count), scan
    and maintenance tasks over partitions (by chain bytes)."""
    total = sum(weights)
    if total <= 0:
        weights, total = [1] * len(weights), len(weights)
    runs: list[list[int]] = [[] for _ in range(n)]
    done = 0
    for i, w in enumerate(weights):
        runs[min(n - 1, done * n // total)].append(i)
        done += w
    return [r for r in runs if r]


def _plan_reads(segs: list[Segment], n: int) -> list[list[tuple]]:
    """The pieces of about ``n`` read tasks (``n`` = the session's CPUs),
    balanced by event count. With at least ``n`` segments each task reads a
    contiguous run of whole segments (:func:`_balanced_runs`). With fewer,
    each segment is split into its share of the ``n`` tasks: at row-group
    edges when it has enough row groups, else into even row ranges (a JSONL
    segment stays whole: a row range of it would parse the whole file). Many tasks of tiny pieces would
    each cost a task, an object per merge dest and a fetch per merge call;
    fewer than ``n`` would leave CPUs idle."""
    sizes = [segment_num_rows(s) for s in segs]
    total = sum(sizes)
    if len(segs) >= n:
        return [
            [(segs[i].path, None) for i in run] for run in _balanced_runs(sizes, n)
        ]
    out = []
    for s, k in zip(segs, sizes):
        parts = max(1, round(n * k / total))
        out.extend([(s.path, rows)] for rows in _split_segment(s, parts))
    return out


def _split_segment(seg: Segment, parts: int) -> list[tuple | None]:
    """Row ranges that cut ``seg`` into about ``parts`` even pieces."""
    if parts <= 1 or seg.format == "jsonl":
        return [None]
    md = pq.ParquetFile(seg.path).metadata
    starts = _row_group_starts(md)
    even = np.linspace(0, md.num_rows, parts + 1)
    if md.num_row_groups >= parts:
        # the row-group edge nearest each even cut
        cuts = starts[np.abs(np.subtract.outer(starts, even)).argmin(axis=0)]
    else:
        cuts = even.round().astype(np.int64)
    cuts = np.unique(cuts)
    return [(int(a), int(b)) for a, b in zip(cuts[:-1], cuts[1:])] or [None]


@ray.remote
def _task(fn, items: list, split):
    """The one Ray task of the engine: ``fn(items)``, then ``split`` (if
    given) cuts the result into one table per merge dest, each its own
    return value."""
    out = fn(items)
    if split is None:
        return out
    tables = split(out)
    return tables[0] if len(tables) == 1 else tuple(tables)


def _run_tasks(fn, plan: list[list], split=None, num_returns: int = 1) -> list[list]:
    """Run ``fn`` over each item list of ``plan`` on its own :func:`_task`.
    Returns each task's ``num_returns`` object refs."""
    task = _task.options(num_returns=num_returns)
    fn = ray.put(fn)
    refs = [task.remote(fn, items, split) for items in plan]
    return [r if isinstance(r, list) else [r] for r in refs]


def _read_on_tasks(
    segs: list[Segment], fn, split=None, num_returns: int = 1,
    columns: list[str] | None = None,
) -> list[list]:
    """Run :func:`_read_pieces` over ``segs`` as plain Ray tasks, about one
    per session CPU (see :func:`_plan_reads`). Returns each task's
    ``num_returns`` object refs."""
    read = functools.partial(_read_pieces, fn=fn, columns=columns)
    return _run_tasks(read, _plan_reads(segs, _session_cpus()), split, num_returns)


def _worker_partitions(partitions: dict[str, dict]) -> dict[str, dict]:
    """The per-pid fields merge/compact workers actually read — lineage (up
    to ~200 applied-segment names per pid, driver-only audit data) stays out
    of the actor constructor args, whose pickling cost otherwise grows with
    table age on the micro-batch hot path."""
    return {
        pid: {k: v for k, v in meta.items() if k != "lineage"}
        for pid, meta in partitions.items()
    }

def _detect_hot_pids(man: Manifest, cfg: ApplyConfig) -> list[int]:
    """Partitions whose change volume warrants two-level salted compaction,
    predicted from the previous epoch's per-pid applied histogram in the
    manifest — O(P) driver work, zero data passes. CDC skew is sticky (a
    hot source stays hot across epochs), and salting is correctness-neutral
    either way (every change-reduce is associative), so a one-epoch
    prediction lag only costs a little balance on the first hot epoch.
    ``salt_factor=1`` never salts."""
    if cfg.salt_factor <= 1 or man.num_partitions <= 1:
        return []
    if man.spec.get("kind") != "hash":
        # assign_by_spec only creates the salt column for hash specs — a
        # time-partitioned upsert table would crash the salted groupby on a
        # missing column (and its skew is time-locality, not key-hash skew,
        # which salting cannot fix anyway)
        return []
    counts = {int(p): n for p, n in man.last_applied.items() if n > 0}
    if len(counts) <= 1:
        return []
    mean = sum(counts.values()) / len(counts)
    return sorted(p for p, n in counts.items() if n > cfg.hot_ratio * mean)


def merge_by_pid(merger, tables: list[pa.Table]) -> list[dict]:
    """The split-and-apply kernel of both apply paths: concatenate one
    epoch's change rows, split them by pid (one stable argsort + run
    boundaries) and apply each pid's group through ``merger`` (a MergeApply).
    The driver-side micro-epoch runs it over the whole change set, each merge
    actor over the rows routed to it — the same parts either way, for the
    shared commit path. Returns the merger's stats rows."""
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return []
    names = tables[0].column_names
    changes = pa.concat_tables([t.select(names) for t in tables])
    pids = changes.column("pid").to_numpy(zero_copy_only=False)
    order = np.argsort(pids, kind="stable")
    grouped = changes.take(pa.array(order))
    spids = pids[order]
    starts = np.flatnonzero(np.r_[True, spids[1:] != spids[:-1]])
    ends = np.r_[starts[1:], len(spids)]
    stats: list[dict] = []
    for st, en in zip(starts, ends):
        stats.extend(merger(grouped.slice(st, en - st)).to_pylist())
    return stats


def _router(n: int, hot_pids: list[int], salt_factor: int):
    """The distributed epoch's split: one table per merge dest, each a
    zero-copy slice of the routed rows. A cold pid goes to ``pid % n``; hot
    pid ``hot_pids[i]`` fans out to ``n + i * salt_factor + salt`` — one
    reduce dest per (pid, salt)."""
    hot = np.asarray(hot_pids, np.int64)
    n_dests = n + len(hot_pids) * salt_factor

    def split(out: pa.Table) -> list[pa.Table]:
        pid = out.column("pid").to_numpy(zero_copy_only=False).astype(np.int64)
        dest = pid % n
        is_hot = np.isin(pid, hot)
        if is_hot.any():
            salt = out.column("salt").to_numpy(zero_copy_only=False)[is_hot]
            dest[is_hot] = n + np.searchsorted(hot, pid[is_hot]) * salt_factor + salt
        order = np.argsort(dest, kind="stable")
        routed = out.take(pa.array(order))
        edges = np.searchsorted(dest[order], np.arange(n_dests + 1))
        return [routed.slice(a, b - a) for a, b in zip(edges[:-1], edges[1:])]

    return split


@ray.remote(num_cpus=0)
class MergeActor:
    """One long-lived member of the merge pool (see :func:`_merge_pool`).
    Holds no table state between calls: each epoch passes its merge class and
    kwargs, so one pool serves every table and epoch of the session. Each
    call fetches only its own dest's tables, one from every read task."""

    def reduce(self, parts: list, mode: str, sum_cols: list) -> pa.Table:
        """A hot pid's salted L1: the mode's change-reduce over one
        (pid, salt) dest. Every doc_id lives in exactly one salt, so the
        output is fully reduced per key."""
        rows = [t for t in ray.get(parts) if t.num_rows]
        if not rows:
            return pa.table({})
        return reduce_changes(pa.concat_tables(rows), mode, sum_cols)

    def merge(self, spec, parts: list, partials: list) -> list[dict]:
        """Apply this actor's own dest plus the reduced partials of the hot
        pids it owns, through :func:`merge_by_pid`."""
        merge_cls, merge_kwargs = spec
        return merge_by_pid(merge_cls(**merge_kwargs), ray.get(parts) + ray.get(partials))


# this process's merge pool: the Ray session it belongs to and its actors
_POOL: dict = {}


def _pool_size(concurrency: int | tuple) -> int:
    """Merge pool size: an int as given; a (lo, hi) range clamped around
    the session's CPU count."""
    if isinstance(concurrency, int):
        return max(1, concurrency)
    lo, hi = concurrency
    return max(lo, min(hi, _session_cpus()))


def _merge_pool(n: int, fresh: bool = False) -> list:
    """``n`` actors of the session-long merge pool, built on first use and
    cached per Ray session (grown when a caller asks for more). A
    ray.shutdown()/ray.init() pair gets a new pool, and so does
    ``fresh=True`` (after an actor died)."""
    ctx = ray.get_runtime_context()
    session = (ctx.get_node_id(), ctx.get_job_id())
    if fresh or _POOL.get("session") != session:
        _POOL.update(session=session, actors=[])
    actors = _POOL["actors"]
    actors.extend(MergeActor.remote() for _ in range(n - len(actors)))
    return actors[:n]


def _merge_on_pool(
    parts: list[list], pool: list, spec, hot_pids: list[int] = (),
    salt_factor: int = 1, mode: str = "", sum_cols=(),
) -> list[dict]:
    """Run one epoch's merge on ``pool``: ``parts[t][d]`` is read task
    ``t``'s table for dest ``d`` (see :func:`_router`), and ``spec`` is the
    ``(merge class, kwargs)`` each merge call applies through
    :func:`merge_by_pid`. When an actor dies (killed between epochs or
    mid-call), the merge runs again on a fresh pool: what the dead one
    wrote is unreferenced, and the commit's GC removes it."""
    n_dests = len(pool) + len(hot_pids) * salt_factor
    by_dest = [[task[d] for task in parts] for d in range(n_dests)]
    merge = functools.partial(
        _merge_calls, by_dest, spec=ray.put(spec), hot_pids=hot_pids,
        salt_factor=salt_factor, mode=mode, sum_cols=sum_cols,
    )
    try:
        return merge(pool)
    except ray.exceptions.RayActorError:
        return merge(_merge_pool(len(pool), fresh=True))


def _merge_calls(
    by_dest: list[list], pool: list, spec, hot_pids, salt_factor, mode, sum_cols,
) -> list[dict]:
    """The actor calls of one merge; ``by_dest[d]`` holds every read task's
    table for dest ``d``. Every hot (pid, salt) dest is reduced first,
    round-robin over the actors, and its partial feeds the merge call of the
    actor that owns the pid. Reduce calls are submitted before any merge
    call and an actor runs calls in submission order, so every call waits
    only on calls submitted before it: no deadlock, also when several
    threads' epochs share the pool."""
    n = len(pool)
    partials: list[list] = [[] for _ in range(n)]
    for i, pid in enumerate(hot_pids):
        for salt in range(salt_factor):
            dest = n + i * salt_factor + salt
            partials[pid % n].append(
                pool[dest % n].reduce.remote(by_dest[dest], mode, sum_cols)
            )
    calls = [
        actor.merge.remote(spec, by_dest[k], partials[k])
        for k, actor in enumerate(pool)
    ]
    # settle every call before raising, so that no surviving actor still
    # writes parts while the caller retries and commits; a failed read
    # fails every call that fetches it
    stats, error = [], None
    for call in calls:
        try:
            stats.extend(ray.get(call))
        except ray.exceptions.RayError as e:
            error = error or e
    if error is not None:
        raise error
    return stats


def _fold_zone_stats(part: dict, row: dict) -> None:
    """Fold one stats row's skip-index partial into the partition's zones map
    (``partitions[pid]["zones"] = {rel_file: {col: [lo, hi] | None}}``).
    Must run AFTER ``part["files"]`` is updated: zones for files no longer in
    the live chain are dropped (compaction replaced them), carried-over files
    keep the zones recorded when they were written. No-op for tables without
    skip cols (no zones key ever appears)."""
    new = json.loads(row["zones_json"]) if row.get("zones_json") else {}
    if not new and "zones" not in part:
        return
    zones = dict(part.get("zones") or {})
    zones.update(new)
    live = set(part.get("files") or [])
    zones = {f: z for f, z in zones.items() if f in live}
    if zones:
        part["zones"] = zones
    else:
        part.pop("zones", None)


def _make_dlq_writer(dlq_dir: str, epoch: int):
    """Per-epoch dead-letter writer for the normalize tasks: each call
    lands one parquet part under ``<dlq_dir>/epoch=N/`` via tmp+rename.
    Part names are CONTENT-ADDRESSED (sha1 of the serialized rows), so a
    Ray task retry re-emitting the same bad batch overwrites its own part
    instead of duplicating it; the whole epoch dir is additionally wiped
    at epoch (re)start, covering full-epoch retries. (Many small files is
    the nature of a DLQ — its volume is pathological input, not the
    corpus.)"""
    import hashlib
    import io
    import shutil
    import uuid

    edir = os.path.join(dlq_dir, f"epoch={epoch}")
    shutil.rmtree(edir, ignore_errors=True)
    os.makedirs(edir, exist_ok=True)

    def write(bad: pa.Table) -> None:
        buf = io.BytesIO()
        pq.write_table(bad, buf)
        payload = buf.getvalue()
        name = f"part-{hashlib.sha1(payload).hexdigest()}.parquet"
        tmp = os.path.join(edir, f"{name}.{uuid.uuid4().hex}.tmp")
        with open(tmp, "wb") as f:
            f.write(payload)
        os.replace(tmp, os.path.join(edir, name))

    return write


def _dlq_epoch_rows(dlq_dir: str, epoch: int) -> int:
    """Quarantined-row count for one epoch, from parquet footers only."""
    edir = os.path.join(dlq_dir, f"epoch={epoch}")
    if not os.path.isdir(edir):
        return 0
    return sum(
        pq.ParquetFile(os.path.join(edir, f)).metadata.num_rows
        for f in os.listdir(edir)
        if f.endswith(".parquet")
    )


def _commit(man: Manifest, entry: dict) -> None:
    """Commit ``man`` as the epoch ``entry`` records, then collect the parts
    no retained manifest references. Raises ConcurrentCommitError when
    another writer committed that epoch first."""
    man.epoch = entry["epoch"]
    man.history.append(entry)
    commit_manifest(man)
    manifest_mod.gc_stale_files(man)


def _install_parts(table_dir: str, partitions: dict, stats: list[dict]) -> None:
    """Driver half of a maintenance commit: make each rewritten part's
    directory entry durable and point its partition at the new chain."""
    for row in stats:
        promote_part(table_dir, row["new_file"])
        part = partitions[str(row["pid"])]
        part.update(
            {
                "rows": int(row["rows"]),
                "exact_rows": True,
                "bytes": int(row["bytes"]),
                "files": json.loads(row["files_json"]),
            }
        )
        _fold_zone_stats(part, row)


def apply_once(table_dir: str, wal_dir: str, cfg: ApplyConfig | None = None) -> dict | None:
    """Apply one epoch of pending WAL segments. Returns stats, or None when
    caught up. Ray must already be initialized by the caller. Raises
    ConcurrentCommitError when another writer committed the epoch first."""
    cfg = cfg or ApplyConfig()
    t0 = time.perf_counter()
    man = load_manifest(table_dir)
    watermark = man.watermark
    segs = pending_segments(wal_dir, watermark, cfg.max_segments)
    if not segs:
        return None

    change_schema, snap_schema = _epoch_change_schema(man, segs)
    epoch = man.epoch + 1
    epoch_max_lsn = max(s.last_lsn for s in segs)

    is_append = man.mode == "append"
    dlq_writer = None
    if cfg.dlq_dir:
        dlq_writer = _make_dlq_writer(cfg.dlq_dir, epoch)
    normalize = make_normalize_fn(
        change_schema,
        man.spec,
        salt_factor=1 if is_append else cfg.salt_factor,
        watermark=watermark,
        key_col=man.key_col,
        mode=man.mode,
        dlq_writer=dlq_writer,
        sum_cols=man.sum_cols,
        # sum/collapse modes: partials must exclude each partition's already-
        # applied rows (see make_normalize_fn) — O(P) ints, broadcast once
        pid_watermarks=(
            {pid: int(p["watermark_lsn"]) for pid, p in man.partitions.items()}
            if man.mode in ("sum", "collapse")
            else None
        ),
    )
    # Raw change events in this epoch (pre-compaction), from parquet metadata.
    n_events = sum(segment_num_rows(s) for s in segs)
    merge_kwargs = {
        "table_dir": table_dir,
        "epoch": epoch,
        "partitions": _worker_partitions(man.partitions),
        "snapshot_schema_b64": schema_to_b64(snap_schema),
        "compact_threshold": cfg.compact_threshold,
        "mode": man.mode,
        "default_watermark": watermark,
        "event_time_col": man.event_time_col,
        "event_time_watermark_us": man.event_time_watermark_us,
        "allowed_lateness_us": int(cfg.allowed_lateness_s * 1_000_000),
        "sum_cols": man.sum_cols,
        "skip_cols": man.skip_cols,
    }
    hot_pids = []
    t_read = time.perf_counter()
    if n_events <= cfg.small_epoch_events:
        # Micro-epoch latency fast path (the MV small-tick trick applied to
        # the apply loop itself): run the SAME reader, normalize fn and merge
        # kernel driver-side, skipping the tasks' scheduling and the actor
        # round trips. Identical results and the same part files by
        # construction — the commit code below is shared; salting is skipped
        # (every change-reduce is associative, and a micro-batch has no skew
        # worth fanning out).
        changes = _read_pieces([(s.path, None) for s in segs], normalize)
        t_merge = time.perf_counter()
        stats = merge_by_pid(MergeApply(**merge_kwargs), [changes])
    else:
        # Skew salting applies to the per-key compacting modes (upsert LWW,
        # sum rollups — a hot counter key is the sum-mode pain case — and
        # collapse); append groups do a plain concat, nothing to fan out.
        if not is_append:
            hot_pids = _detect_hot_pids(man, cfg)
        pool = _merge_pool(_pool_size(cfg.merge_concurrency))
        parts = _read_on_tasks(
            segs, normalize, split=_router(len(pool), hot_pids, cfg.salt_factor),
            num_returns=len(pool) + len(hot_pids) * cfg.salt_factor,
        )
        # every merge call needs its dest from every task: wait for the
        # reads (without fetching them here) to time the phases apart
        refs = [r for task in parts for r in task]
        ray.wait(refs, num_returns=len(refs), fetch_local=False)
        t_merge = time.perf_counter()
        # the class is resolved here, at call time, and shipped with each
        # epoch, so a swapped-in MergeApply (tracing) reaches the actors
        stats = _merge_on_pool(
            parts, pool, (MergeApply, merge_kwargs), hot_pids, cfg.salt_factor,
            man.mode, man.sum_cols,
        )
        del parts, refs  # the epoch's tables leave the object store
    stats.sort(key=lambda row: row["pid"])  # actors answer in any order

    # ---- commit point: part dirs durable, then the manifest put ----
    t_commit = time.perf_counter()
    seg_names = [s.name for s in segs]
    merged_rows = 0  # post-compaction change rows that reached the merge
    man.last_applied = {}
    for row in stats:
        pid = str(row["pid"])
        if row["new_file"]:
            promote_part(table_dir, row["new_file"])
        # Dynamic (time) partitions materialize in the manifest on first write
        part = man.partitions.setdefault(pid, empty_partition(watermark))
        part.update(
            {
                "watermark_lsn": epoch_max_lsn,
                # rows is exact after a compaction/snapshot write and stale
                # (last exact value) while deltas are pending — recomputing
                # it would defeat the O(changes) append path.
                "rows": int(row["rows"]),
                "exact_rows": bool(row["exact"]),
                "bytes": int(row["bytes"]),
                "files": json.loads(row["files_json"]),
            }
        )
        _fold_zone_stats(part, row)
        part["lineage"] = (part.get("lineage") or [])[-200:] + seg_names
        merged_rows += int(row["applied"])
        man.last_applied[pid] = int(row["applied"])
    # Event-time watermark advance + late-arrival count (tables with an
    # event_time_col only): combine the O(P) per-partition partials. The
    # watermark is monotone — late events never move it backwards.
    late_events = 0
    if man.event_time_col:
        ev_maxes = [row["max_event_ts_us"] for row in stats if row["max_event_ts_us"] is not None]
        late_events = sum(int(row["late_events"]) for row in stats)
        if ev_maxes:
            prev = man.event_time_watermark_us
            man.event_time_watermark_us = max(
                int(max(ev_maxes)), prev if prev is not None else -(1 << 63)
            )
    # Partitions with no changes this epoch advance their watermark too
    # (no event ≤ epoch_max_lsn can belong to them).
    for part in man.partitions.values():
        part["watermark_lsn"] = max(int(part["watermark_lsn"]), epoch_max_lsn)
    man.watermark_floor = max(man.watermark_floor, epoch_max_lsn)

    wall = time.perf_counter() - t0
    epoch_stats = {
        "epoch": epoch,
        "segments": len(segs),
        "events_applied": int(n_events),
        "merged_rows": int(merged_rows),
        "hot_pids": hot_pids,
        "rows_total": sum(int(p["rows"]) for p in man.partitions.values()),
        "wall_s": round(wall, 4),
        "events_per_s": round(n_events / wall, 1) if wall > 0 else 0.0,
    }
    if man.event_time_col:
        epoch_stats["late_events"] = int(late_events)
        epoch_stats["event_time_watermark_us"] = man.event_time_watermark_us
    if cfg.dlq_dir:
        epoch_stats["dlq_rows"] = _dlq_epoch_rows(cfg.dlq_dir, epoch)
    man.schema_b64 = schema_to_b64(snap_schema)
    _commit(man, epoch_stats)
    t_end = time.perf_counter()
    # returned copy only — the manifest history stays O(small)
    phases = {
        "read_normalize": t_merge - t_read,
        "merge": t_commit - t_merge,
        "commit": t_end - t_commit,
    }
    return {**epoch_stats, "phases_s": {k: round(v, 4) for k, v in phases.items()}}


def replay(
    table_dir: str,
    wal_dir: str,
    cfg: ApplyConfig | None = None,
    final_compact: bool = True,
) -> list[dict]:
    """Run epochs until the WAL is fully applied (resumable: picks up from the
    committed manifest watermark — the fix for the reference's restart-equals-
    full-resync behavior, /root/reference/etl/main.py:116-119). In delta mode
    a final compaction pass (checkpoint) leaves every partition as one clean
    snapshot file, so readers pay zero merge cost afterwards.

    Any number of replays may run against one table at once: an epoch or
    compaction that loses the commit race is retried from the new head."""
    cfg = cfg or ApplyConfig()
    out = []
    while (stats := _until_committed(apply_once, table_dir, wal_dir, cfg)) is not None:
        out.append(stats)
        if cfg.auto_compact_ratio is not None:
            out.append(_until_committed(
                compact_table,
                table_dir,
                concurrency=cfg.merge_concurrency,
                size_ratio=cfg.auto_compact_ratio,
            ))
    if final_compact:
        # No-op when every partition chain is already a single clean file
        # (snapshot-mode upsert tables); folds delta chains (upsert) or
        # coalesces append parts otherwise.
        out.append(_until_committed(
            compact_table, table_dir, concurrency=cfg.merge_concurrency
        ))
    return [s for s in out if s is not None]


def _until_committed(op, *args, **kwargs):
    """Run a table operation until its commit lands. Losing the manifest put
    means another writer advanced the table, so re-running from the fresh
    head always makes progress (an apply resumes past the segments the
    winner applied; a compaction re-plans)."""
    while True:
        try:
            return op(*args, **kwargs)
        except ConcurrentCommitError:
            continue


def _dirty_pids(man: Manifest) -> list[int]:
    """Partitions whose file chain needs a merge on read: more than one file,
    or a single file that is a delta (op/tombstones present)."""
    out = []
    for pid, p in man.partitions.items():
        files = p.get("files") or []
        if len(files) > 1 or (files and "delta-" in os.path.basename(files[0])):
            out.append(int(pid))
    return sorted(out)


def compact_plan(
    table_dir: str, size_ratio: float | None = None
) -> dict:
    """Pick the partitions a compaction pass should rewrite.

    ``size_ratio=None`` is the major compaction: every dirty chain. A float
    is the SIZE-TIERED policy (the LSM/ClickHouse background-merge shape):
    compact a partition only when its accumulated delta bytes exceed
    ``size_ratio × base snapshot bytes`` — so read amplification is bounded
    (a reader merges at most ``(1+ratio)×`` the base bytes) while write
    amplification stays O(log) instead of rewrite-the-base-every-epoch. A
    chain with NO base snapshot yet compacts once its delta count exceeds 1
    (there is nothing cheap to merge against). Planning is metadata-only:
    file sizes come from stat/LIST, no parquet is opened."""
    return _compact_pick(table_dir, load_manifest(table_dir), size_ratio)


def _compact_pick(table_dir: str, man: Manifest, size_ratio: float | None) -> dict:
    """:func:`compact_plan` over the manifest ``man``."""
    chosen: list[int] = []
    accounting: dict[str, dict] = {}
    for pid in _dirty_pids(man):
        files = man.partitions[str(pid)].get("files") or []
        base = delta = 0
        n_deltas = 0
        for f in files:
            try:
                sz = os.path.getsize(os.path.join(table_dir, f))
            except OSError:
                sz = 0
            if os.path.basename(f).startswith("delta-"):
                delta += sz
                n_deltas += 1
            else:
                base += sz
        pick = (
            size_ratio is None
            or (base == 0 and n_deltas > 1)
            or (base > 0 and delta > size_ratio * base)
        )
        accounting[str(pid)] = {
            "base_bytes": base, "delta_bytes": delta,
            "chain_len": len(files), "compact": pick,
        }
        if pick:
            chosen.append(pid)
    return {"pids": chosen, "partitions": accounting}


def compact_table(
    table_dir: str,
    concurrency: int | tuple = (1, 8),
    size_ratio: float | None = None,
) -> dict | None:
    """Compact delta chains into clean snapshot files. ``size_ratio=None``
    = major compaction (every dirty partition); a float selects partitions
    by the size-tiered policy (see :func:`compact_plan`). Same exactly-once
    protocol as an apply epoch: all part writes land, then one manifest put.
    Returns stats, or None when nothing qualifies."""
    man = load_manifest(table_dir)
    # planned from the manifest the pass rewrites: a commit after it loads
    # fails this pass's put instead of handing it unknown partitions
    dirty = _compact_pick(table_dir, man, size_ratio)["pids"]
    if not dirty:
        return None
    return _maintenance_epoch(
        table_dir, man, dirty, concurrency,
        lambda stats: {
            "compaction": True,
            "partitions_compacted": len(dirty),
            "rows_total": sum(int(p["rows"]) for p in man.partitions.values()),
        },
    )


# Maintenance passes (compaction / TTL / mutation) whose selected chains
# total at most this many bytes fold DRIVER-SIDE with the same worker kernel
# (identical files by construction) instead of on Ray tasks — the
# micro-epoch fast-path idea applied to maintenance, so `auto_compact_ratio`
# and targeted mutations stay cheap in the steady-state CDC tail where a
# tick touches a few small chains. Table-derived artifact refreshes use the
# same budget (state/artifacts.py). 0 disables the fast path.
COMPACT_DRIVER_BYTES = 64 << 20


def _maintenance_epoch(
    table_dir: str,
    man: Manifest,
    pids: list,
    concurrency: int | tuple,
    summarize,
    rewrite=None,
) -> dict | None:
    """One maintenance epoch (compaction, TTL expiry or mutation): run the
    per-partition rewrite worker over ``pids`` — driver-side below
    COMPACT_DRIVER_BYTES of selected chain bytes; above, on the partition
    runner (:func:`_scan`) capped at the pool size of ``concurrency`` —
    install the parts it wrote, and commit ``summarize(stats)`` as the
    epoch's history entry (``None`` commits nothing). The worker class is
    resolved from ``stages.merge`` at call time and passed to the tasks, so
    a wrapped ``CompactWorker`` (tracing) sees every pass."""
    from ..stages import merge as merge_mod

    t0 = time.perf_counter()
    epoch = man.epoch + 1
    worker_kwargs = {
        "table_dir": table_dir,
        "epoch": epoch,
        "partitions": _worker_partitions(man.partitions),
        "snapshot_schema_b64": man.schema_b64,
        "mode": man.mode,
        "sum_cols": man.sum_cols,
        "skip_cols": man.skip_cols,
        "rewrite": rewrite,
    }
    pids = [int(pid) for pid in pids]
    chain_bytes = sum(int(man.partitions[str(pid)].get("bytes", 0)) for pid in pids)
    worker = merge_mod.CompactWorker(**worker_kwargs)
    if not pids:
        stats = []
    elif chain_bytes <= COMPACT_DRIVER_BYTES:
        stats = worker(pids).to_pylist()
    else:
        refs = _scan(worker, man, pids, cap=_pool_size(concurrency))
        stats = [row for t in ray.get([r for r, in refs]) for row in t.to_pylist()]
    _install_parts(table_dir, man.partitions, [r for r in stats if r["new_file"]])
    entry = summarize(stats)
    if entry is None:
        return None
    entry = {"epoch": epoch, **entry, "wall_s": round(time.perf_counter() - t0, 4)}
    _commit(man, entry)
    return entry


def ttl_expire(
    table_dir: str,
    ttl_col: str,
    cutoff,
    concurrency: int | tuple = (1, 8),
) -> dict | None:
    """Expire rows whose ``ttl_col`` is strictly before ``cutoff`` — the
    ClickHouse ``TTL <col>`` retention clause (rows past their TTL are
    dropped when parts merge), run as an explicit exactly-once maintenance
    epoch. ``cutoff`` is a naive datetime or ISO string (engine timestamps
    are tz-naive ``timestamp[us]``). Null TTL values never expire.

    Scale shape — the whole point of doing this manifest-first:

    - time-partitioned tables whose partition column IS the TTL column
      (the reference's fact layout, init.sql:40 ``PARTITION BY toYYYYMM``):
      months entirely before the cutoff are DROPPED from the manifest
      without reading a byte (ClickHouse's drop-whole-part TTL fast path);
      only the single boundary month is a candidate for rewrite.
    - everything else: per-partition parquet FOOTER min-statistics decide
      (metadata-only driver read); a partition is rewritten only when some
      file's min(ttl_col) crosses the cutoff. A 100-TB table where only the
      oldest slice expires rewrites only that slice.

    Returns the history entry, or None when nothing expired. Old epochs
    remain time-travel readable until manifest retention ages them out.

    Note for upsert tables: expiring a key erases its base row, so a later
    WAL update to that key re-inserts it as new — the same contract as
    ClickHouse TTL deleting a row a later INSERT re-creates.
    """
    import datetime as _dt

    from ..stages.partition import yyyymm_of

    if isinstance(cutoff, str):
        cutoff = _dt.datetime.fromisoformat(cutoff)
    if cutoff.tzinfo is not None:
        cutoff = cutoff.astimezone(_dt.timezone.utc).replace(tzinfo=None)
    cutoff_us = pa.scalar(cutoff, pa.timestamp("us")).value

    man = load_manifest(table_dir)
    if ttl_col not in man.schema.names:
        raise ValueError(f"ttl column {ttl_col!r} not in table schema")
    if not pa.types.is_timestamp(man.schema.field(ttl_col).type):
        raise ValueError(f"ttl column {ttl_col!r} must be a timestamp column")
    spec = man.spec
    drop_pids: list[str] = []
    candidates: list[str] = []
    if spec.get("kind") == "time" and spec.get("col") == ttl_col:
        cutoff_ym = yyyymm_of(cutoff)
        for pid in man.partitions:
            if int(pid) < cutoff_ym:
                drop_pids.append(pid)
            elif int(pid) == cutoff_ym:
                candidates.append(pid)
    else:
        candidates = list(man.partitions)
    # prune partitions that provably hold no pre-cutoff rows: skip-index
    # zones first (pure manifest read — free when the TTL column is a
    # declared skip col; zones are already int64 us), parquet FOOTER
    # min-stats as the fallback (metadata-only, but one open per file)
    zones_on = ttl_col in (man.skip_cols or [])
    scan_pids: list[str] = []
    for pid in candidates:
        part = man.partitions[pid]
        files = part.get("files") or []
        if not files:
            continue
        mn = None
        if zones_on:
            zs = [
                ((part.get("zones") or {}).get(f) or {}).get(ttl_col)
                for f in files
            ]
            if all(z is not None for z in zs):
                mn = min(z[0] for z in zs)
        if mn is None:
            mn = _files_min_ts_us(table_dir, files, ttl_col)
        if mn is None or mn < cutoff_us:
            scan_pids.append(pid)
    if not drop_pids and not scan_pids:
        return None

    rows_dropped = sum(int(man.partitions[pid]["rows"]) for pid in drop_pids)
    if drop_pids:
        # pin the resume floor before partitions vanish: the global
        # watermark is min over partitions and must not move backwards
        # (or fall to 0 if every partition drops)
        man.watermark_floor = max(man.watermark_floor, man.watermark)
        for pid in drop_pids:
            del man.partitions[pid]
    collapse = man.mode == "collapse"

    def expire(rows: pa.Table):
        col = rows.column(ttl_col)
        cutoff_v = pa.scalar(cutoff_us, pa.timestamp("us")).cast(col.type)
        # keep = ttl_col >= cutoff; nulls keep (never expire)
        keep = pc.fill_null(pc.greater_equal(col, cutoff_v), True)
        if collapse:
            # an expiring winner must take its key's adjustment rows with
            # it: adjustments carry null payloads (null TTL never expires),
            # so leaving them would turn a revivable cancelled key (net 0)
            # into an unrevivable one (net -1). Drop the WHOLE key when its
            # winner row expires; winnerless adjustment keys have no TTL
            # value and persist until a mutation removes them.
            expired_keys = rows.filter(
                pc.and_(collapse_winner_mask(rows), pc.invert(keep))
            ).column("doc_id")
            if len(expired_keys):
                keep = pc.and_(keep, pc.invert(pc.is_in(
                    rows.column("doc_id"),
                    value_set=expired_keys.combine_chunks(),
                )))
        kept = rows.filter(keep)
        return kept, 0, rows.num_rows - kept.num_rows

    return _maintenance_epoch(
        table_dir, man, scan_pids, concurrency,
        lambda stats: {
            "ttl": True,
            "ttl_col": ttl_col,
            "cutoff": cutoff.isoformat(),
            "partitions_dropped": len(drop_pids),
            "partitions_rewritten": len(scan_pids),
            "rows_expired": rows_dropped + sum(int(r["deletes"]) for r in stats),
        },
        rewrite=expire,
    )


def mutate_table(
    table_dir: str,
    col: str,
    lo=None,
    hi=None,
    delete: bool = False,
    set_cols: dict | None = None,
    concurrency: int | tuple = (1, 8),
) -> dict | None:
    """Predicate mutation — the ClickHouse ``ALTER TABLE ... DELETE WHERE`` /
    ``UPDATE ... WHERE`` analog, run as an exactly-once maintenance epoch:
    rows WHERE ``col BETWEEN lo AND hi`` (inclusive, either bound optional)
    are dropped (``delete=True``) or get ``set_cols`` constants assigned.

    Scale shape: partitions are pruned FIRST by skip-index zones (a pure
    manifest computation — pipelines/scan.scan_plan), so on a zone-indexed
    column a targeted mutation over a 100-TB table reads only the slice whose
    zones can overlap; partitions whose merged state then matches nothing
    return their chain untouched (read, never rewritten). Watermarks are
    unchanged — a mutation rewrites state, it does not advance the log (a
    later WAL event on a deleted key re-inserts it, the ClickHouse mutation +
    later-INSERT contract, same as ttl_expire).

    Returns the history entry, or None when no row matched (no epoch is
    committed — a no-op mutation leaves no trace to replay or time-travel).
    """
    from .scan import _plan

    if delete == bool(set_cols):
        raise ValueError("mutation needs exactly one of delete=True or set_cols")
    if lo is None and hi is None:
        raise ValueError("mutation needs at least one bound (lo and/or hi)")

    man = load_manifest(table_dir)
    if man.mode == "collapse":
        # a collapse table's committed state is a partial encoding
        # (winner + adjustment rows); rewriting rows by predicate would
        # corrupt the cancel balances. The ClickHouse answer applies:
        # delete by inserting cancel (sign=-1) rows.
        raise ValueError(
            "mutations are not supported on collapse tables — insert "
            "cancel (sign=-1) change events instead"
        )
    if col not in man.schema.names:
        raise ValueError(f"mutation column {col!r} not in table schema")
    immutable = {"doc_id", "lsn", man.key_col}
    for name in set_cols or {}:
        if name not in man.schema.names:
            raise ValueError(f"set column {name!r} not in table schema")
        if name in immutable:
            raise ValueError(
                f"set column {name!r} is the key/version — immutable "
                "(mutations rewrite payloads, not identities)"
            )
    # zone pruning (correct-by-construction: the plan falls back to all
    # partitions when zones are missing or unsound for this column), over
    # the manifest the pass rewrites
    plan = _plan(man, {col: (lo, hi)})
    candidates = sorted(plan["partitions"], key=int)
    if not candidates:
        return None
    set_cols = dict(set_cols or {})

    def mutate(rows: pa.Table):
        c = rows.column(col)
        mask = None
        if lo is not None:
            mask = pc.greater_equal(c, pa.scalar(lo).cast(c.type))
        if hi is not None:
            m2 = pc.less_equal(c, pa.scalar(hi).cast(c.type))
            mask = m2 if mask is None else pc.and_(mask, m2)
        # nulls never match a range predicate (SQL semantics)
        mask = pc.fill_null(mask, False)
        n_hit = pc.sum(mask.cast(pa.int64())).as_py() or 0
        if n_hit == 0:
            # zone said "maybe" but the merged state says no: leave the
            # chain alone (rows/bytes/files unchanged, nothing written)
            return None
        if delete:
            return rows.filter(pc.invert(mask)), 0, n_hit
        for name, value in set_cols.items():
            idx = rows.schema.get_field_index(name)
            old = rows.column(name)
            new = pc.if_else(mask, pa.scalar(value).cast(old.type), old)
            rows = rows.set_column(idx, rows.schema.field(idx), new)
        return rows, n_hit, 0

    def summarize(stats: list[dict]) -> dict | None:
        rewritten = sum(1 for r in stats if r["new_file"])
        if not rewritten:
            return None  # predicate matched nothing: no writes, no epoch
        return {
            "mutation": True,
            "col": col,
            "lo": None if lo is None else str(lo),
            "hi": None if hi is None else str(hi),
            "action": "delete" if delete else f"set {sorted(set_cols)}",
            "rows_deleted": sum(int(r["deletes"]) for r in stats),
            "rows_updated": sum(int(r["applied"]) for r in stats),
            "partitions_rewritten": rewritten,
            "partitions_pruned_by_zones": plan["partitions_pruned"],
            "partitions_unchanged": len(stats) - rewritten,
        }

    return _maintenance_epoch(
        table_dir, man, candidates, concurrency, summarize, rewrite=mutate
    )


def _files_min_ts_us(table_dir: str, files: list[str], col: str) -> int | None:
    """min(col) across a partition's parquet files from footer row-group
    statistics only (no data pages read). None = some file/row-group lacks
    stats for the column, i.e. the caller must treat the partition as
    overlapping and scan it."""
    mins: list[int] = []
    for rel in files:
        md = pq.ParquetFile(os.path.join(table_dir, rel)).metadata
        for r in granule_ranges(md, col):
            if r is None:
                return None
            mins.append(pa.scalar(r[0], pa.timestamp("us")).value)
    return min(mins) if mins else None


def import_base(
    table_dir: str,
    parquet_path: str,
    key_col: str = "doc_id",
    cfg: ApplyConfig | None = None,
) -> dict:
    """Initial load: seed an EMPTY table from an existing Parquet corpus
    (the Debezium snapshot-phase analog — op='r' rows before the binlog tail,
    /root/reference/stream_etl/main.py:54 configures exactly this; here the
    snapshot phase is a first-class bulk import instead of synthetic WAL
    inserts). Rows get lsn=0, so ANY subsequent WAL event on the same key
    wins LWW — the imported corpus is strictly "before" the log.

    An apply epoch whose source is the corpus (a file or a directory):
    read tasks over runs of its files conform the rows to the snapshot
    schema (key column renamed/cast, n_tok recomputed when absent) and
    route them by hash pid to the merge pool, which writes each partition
    as one clean snapshot → atomic commit. A duplicate key raises
    ``ValueError`` before the commit.
    """
    cfg = cfg or ApplyConfig()
    man = load_manifest(table_dir)
    # a sum-table base import is pre-aggregated state: one row per key
    # (enforced by check_unique below) — later WAL deltas fold onto it
    # through the normal sum chain
    if man.mode not in ("upsert", "sum") or man.spec.get("kind") != "hash":
        raise ValueError(
            "import_base supports hash-partitioned upsert/sum tables"
        )
    if man.total_rows() > 0 or any(p["files"] for p in man.partitions.values()):
        raise ValueError("import_base requires an empty table")
    t0 = time.perf_counter()
    epoch = man.epoch + 1
    schema = man.schema
    num_partitions = man.num_partitions

    from ..schemas import cast_table
    from ..stages.partition import assign_partitions

    def conform(b: pa.Table) -> pa.Table:
        if key_col != "doc_id":
            idx = b.schema.get_field_index(key_col)
            b = b.set_column(idx, "doc_id", b.column(idx))
        if "doc_id" in b.column_names and b.column("doc_id").type != pa.string():
            b = b.set_column(
                b.schema.get_field_index("doc_id"),
                "doc_id",
                b.column("doc_id").cast(pa.string()),
            )
        if "n_tok" not in b.column_names and "tokens" in b.column_names:
            b = b.append_column(
                "n_tok", pc.list_value_length(b.column("tokens")).cast(pa.int32())
            )
        if "lsn" not in b.column_names:
            b = b.append_column("lsn", pa.nulls(b.num_rows, pa.int64()).fill_null(0))
        b = cast_table(b, schema)
        return assign_partitions(b, num_partitions, salt_factor=1)

    files = _corpus_files(parquet_path)
    sizes = [pq.read_metadata(f).num_rows for f in files]
    plan = [
        [(files[i], None) for i in run]
        for run in _balanced_runs(sizes, _session_cpus())
    ]
    # imports carry no LSN order to tie-break duplicates, so a non-unique
    # corpus must fail loudly instead of landing as a snapshot with
    # repeated keys (LWW only fixes it after the first WAL merge happens to
    # touch the partition)
    read = functools.partial(_read_pieces, fn=conform)
    stats = _write_snapshots(
        table_dir, man, epoch, cfg, functools.partial(_run_tasks, read, plan),
        check_unique=True,
    )
    _install_parts(table_dir, man.partitions, stats)
    out = {
        "imported": True,
        "epoch": epoch,
        "rows": sum(int(row["rows"]) for row in stats),
        "wall_s": round(time.perf_counter() - t0, 4),
    }
    _commit(man, out)
    return out


def _corpus_files(path: str) -> list[str]:
    """The Parquet files of an import corpus: ``path`` itself, or every
    file under the directory ``path`` whose name starts with neither ``.``
    nor ``_`` (marker and hidden files), in path order."""
    if not os.path.isdir(path):
        return [path]
    out = []
    for root, dirs, names in os.walk(path):
        dirs[:] = [d for d in dirs if not d.startswith((".", "_"))]
        out += [os.path.join(root, n) for n in names if not n.startswith((".", "_"))]
    return sorted(out)


def _write_snapshots(
    table_dir: str, man: Manifest, epoch: int, cfg: ApplyConfig, start,
    check_unique: bool = False,
) -> list[dict]:
    """The merge half of an import or repartition epoch: ``start(split=,
    num_returns=)`` starts the read tasks, which route pid-assigned
    snapshot rows with ``split``; the session merge pool writes each
    partition's rows as one clean snapshot (``SnapshotWriter``). Returns
    the stats rows, by pid."""
    from ..stages.merge import SnapshotWriter

    pool = _merge_pool(_pool_size(cfg.merge_concurrency))
    parts = start(split=_router(len(pool), [], 1), num_returns=len(pool))
    spec = (SnapshotWriter, {
        "table_dir": table_dir,
        "epoch": epoch,
        "snapshot_schema_b64": man.schema_b64,
        "check_unique": check_unique,
        "skip_cols": man.skip_cols,
    })
    return sorted(_merge_on_pool(parts, pool, spec), key=lambda row: row["pid"])


def repartition_table(
    table_dir: str,
    new_num_partitions: int,
    cfg: ApplyConfig | None = None,
) -> dict:
    """Change a table's partition count (the ALTER-layout operation a
    long-lived lake needs as data grows — P is pinned in the manifest because
    ``pid = H(doc_id) % P`` must stay stable between epochs, so changing it
    is an explicit whole-table job, not a config flip).

    An apply epoch whose source is the table: the partition runner
    (:func:`_scan`) merges-on-read the old partitions, re-assigns pids
    under the new P and routes the rows to the merge pool, which writes
    clean snapshots into a fresh layout → same commit protocol (write-once
    parts, one manifest put). Watermarks carry over (min across old
    partitions — they are equal after any commit).
    """
    cfg = cfg or ApplyConfig()
    man = load_manifest(table_dir)
    if man.mode not in ("upsert", "sum") or man.spec.get("kind") != "hash":
        raise ValueError("repartition supports hash-partitioned upsert/sum tables")
    if new_num_partitions == man.num_partitions:
        return {"repartitioned": False, "num_partitions": man.num_partitions}
    t0 = time.perf_counter()
    epoch = man.epoch + 1
    watermark = man.watermark

    from ..stages.merge import make_partition_reader
    from ..stages.partition import assign_partitions

    chains = {pid: p["files"] for pid, p in man.partitions.items() if p.get("files")}
    reader = make_partition_reader(
        table_dir, man.schema_b64, chains, mode=man.mode, sum_cols=man.sum_cols
    )

    def reassign(pids: list[int]) -> pa.Table:
        return assign_partitions(reader(pids), new_num_partitions, salt_factor=1)

    old_pids = [int(pid) for pid in chains]
    stats = _write_snapshots(
        table_dir, man, epoch, cfg, functools.partial(_scan, reassign, man, old_pids)
    )
    new_parts = {
        str(pid): {"watermark_lsn": watermark, "rows": 0, "bytes": 0,
                   "files": [], "lineage": [], "exact_rows": True}
        for pid in range(new_num_partitions)
    }
    _install_parts(table_dir, new_parts, stats)
    man.num_partitions = new_num_partitions
    man.partition_spec = {"kind": "hash", "num": new_num_partitions}
    man.partitions = new_parts
    man.last_applied = {}
    out = {
        "repartitioned": True,
        "epoch": epoch,
        "num_partitions": new_num_partitions,
        "rows_total": sum(int(p["rows"]) for p in new_parts.values()),
        "wall_s": round(time.perf_counter() - t0, 4),
    }
    _commit(man, out)
    return out


def _scan(
    fn, man: Manifest, pids: list[int], cap: int | None = None, split=None,
    num_returns: int = 1,
) -> list[list]:
    """The engine's partition runner: run ``fn(run of pids)`` now, on about
    one Ray task per session CPU (at most ``cap``). A task gets a contiguous
    run of whole partitions in ascending pid order, the runs balanced by the
    manifest's chain ``bytes`` (:func:`_balanced_runs`): a task per
    partition would pay more in task and block overhead than its few ms of
    reading. ``split`` routes each task's table to merge dests, as on a read
    task. Returns each task's ``num_returns`` object refs."""
    pids = sorted(pids)
    weights = [int((man.partitions.get(str(pid)) or {}).get("bytes", 0)) for pid in pids]
    n = min(cap or len(pids), _session_cpus())
    plan = [[pids[i] for i in run] for run in _balanced_runs(weights, n)]
    return _run_tasks(fn, plan, split, num_returns)


def _scan_dataset(
    fn, man: Manifest, pids: list[int], cap: int | None = None
) -> ray.data.Dataset:
    """:func:`_scan` with one table per task, wrapped as a Dataset of one
    block each: read at call time, so later commits or GC cannot take files
    from under it."""
    return ray.data.from_arrow_refs([ref for ref, in _scan(fn, man, pids, cap)])


def read_snapshot(
    table_dir: str,
    epoch: int | None = None,
    columns: list[str] | None = None,
) -> ray.data.Dataset:
    """The committed table as a Ray Dataset, read at call time.

    MERGE-on-read: each partition is reconstructed from its file chain
    (base snapshot + deltas → LWW → drop tombstones). Partition chains are
    independent, so this is an embarrassingly parallel read — no shuffle —
    run on about one Ray task per session CPU, each folding a contiguous
    run of whole partitions in pid order, balanced by chain bytes (see
    :func:`_scan`). After a compaction the chain is one clean file and the
    merge is a no-op cast.

    The returned Dataset is materialized: its blocks are the tasks' tables
    (whole partitions, ascending pid), so every consumer reads each
    partition once, and later commits or GC cannot take files from under
    it. The cost is that the (projected) snapshot is held in the object
    store while the Dataset lives.

    ``columns`` pushes projection into the parquet reads (only the requested
    columns + the mode's merge keys leave storage — pass it whenever a
    pipeline touches a few columns of a wide table).

    ``epoch`` time-travels to a retained historical commit (see
    manifest.load_manifest) — GC keeps files referenced by retained epochs."""
    from ..stages.merge import make_partition_reader

    man = load_manifest(table_dir, epoch=epoch)
    pids = [int(pid) for pid, p in man.partitions.items() if p.get("files")]
    if not pids:
        schema = (
            pa.schema([man.schema.field(c) for c in columns])
            if columns
            else man.schema
        )
        return ray.data.from_arrow(schema.empty_table())
    reader = make_partition_reader(
        table_dir,
        man.schema_b64,
        {pid: man.partitions[pid]["files"] for pid in map(str, pids)},
        mode=man.mode,
        sum_cols=man.sum_cols,
        columns=columns,
    )
    return _scan_dataset(reader, man, pids)


def files_for_time_range(
    table_dir: str, start, end, epoch: int | None = None
) -> dict[str, list[str]]:
    """Manifest-level partition pruning for a time-partitioned table:
    the file chains of ONLY the partitions whose month overlaps
    [start, end) — nothing else is ever opened."""
    from ..stages.partition import yyyymm_of

    import datetime as _dt

    man = load_manifest(table_dir, epoch=epoch)
    if man.spec.get("kind") != "time":
        raise ValueError("files_for_time_range requires a time-partitioned table")
    # end is exclusive: an end exactly on a month boundary doesn't touch it
    ym0 = yyyymm_of(start)
    ym1 = yyyymm_of(end - _dt.timedelta(microseconds=1))
    return {
        pid: meta["files"]
        for pid, meta in man.partitions.items()
        if meta.get("files") and ym0 <= int(pid) <= ym1
    }


def read_time_range(
    table_dir: str, start, end, epoch: int | None = None
) -> ray.data.Dataset:
    """Date-range scan of a time-partitioned table: prune partitions by
    yyyymm at the manifest (the PARTITION BY toYYYYMM read path,
    init.sql:40), then row-filter the boundary months to [start, end)."""
    from ..stages.merge import make_partition_reader

    man = load_manifest(table_dir, epoch=epoch)
    chains = files_for_time_range(table_dir, start, end, epoch=epoch)
    if not chains:
        return ray.data.from_arrow(man.schema.empty_table())
    ts_col = man.spec["col"]
    reader = make_partition_reader(
        table_dir, man.schema_b64, chains, mode=man.mode, sum_cols=man.sum_cols
    )
    lo, hi = pa.scalar(start, pa.timestamp("us")), pa.scalar(end, pa.timestamp("us"))

    def read_and_trim(pids: list[int]) -> pa.Table:
        t = reader(pids)
        mask = pc.and_(
            pc.greater_equal(t.column(ts_col), lo), pc.less(t.column(ts_col), hi)
        )
        return t.filter(mask)

    return _scan_dataset(read_and_trim, man, [int(pid) for pid in chains])


def snapshot_table(table_dir: str, epoch: int | None = None) -> pa.Table:
    """Driver-side snapshot materialization (tests / small tables only).
    ``epoch`` time-travels to a retained historical commit."""
    from ..stages.merge import read_partition_final

    man = load_manifest(table_dir, epoch=epoch)
    tables = []
    for pid in sorted(man.partitions, key=int):
        files = man.partitions[pid].get("files") or []
        if files:
            tables.append(read_partition_final(
                table_dir, files, man.schema, man.mode, man.sum_cols
            ))
    if not tables:
        return man.schema.empty_table()
    # deterministic order: key for keyed modes (keys unique), lsn for append
    sort_col = man.key_col if man.mode in ("upsert", "sum", "collapse") else "lsn"
    return pa.concat_tables(tables).sort_by([(sort_col, "ascending")])
