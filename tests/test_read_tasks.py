"""The distributed apply epoch and the merge-on-read scan on plain Ray tasks.

An epoch's read+normalize+route runs as about one task per session CPU (a
segment splits when there are fewer segments than CPUs), each returning one
table per merge dest; a scan runs, when it is called, about one task per
session CPU, each over a contiguous run of whole partitions balanced by
chain bytes. Neither runs a Ray Data execution, a scan reads each partition
once, a scan's, a range scan's or a diff's Dataset keeps its rows after
later commits collect their files, and no part or WAL read goes through
``pq.read_table``."""

import datetime as dt
import os
import shutil

import numpy as np

import pyarrow as pa
import pyarrow.parquet as pq
import ray

import clickhouse_data_pipeline_ray.pipelines.apply as apply_mod
import clickhouse_data_pipeline_ray.pipelines.diff as diff_mod
import clickhouse_data_pipeline_ray.pipelines.scan as scan_mod
from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    apply_once,
    compact_table,
    create_table,
    read_snapshot,
    read_time_range,
    replay,
    snapshot_table,
)
from clickhouse_data_pipeline_ray.schemas import FACT_SNAPSHOT_SCHEMA
from clickhouse_data_pipeline_ray.sources.gen import (
    FactGenParams,
    GenParams,
    generate_fact_wal,
    generate_wal,
)
from clickhouse_data_pipeline_ray.sources.wal import list_segments, segment_path
from clickhouse_data_pipeline_ray.stages import merge as merge_mod
from clickhouse_data_pipeline_ray.stages.partition import partition_of

from .helpers import assert_snapshots_equal, replay_oracle

PARAMS = GenParams(
    total_events=3_000, base_events=500, events_per_segment=250, seed=53,
    mix=(0.2, 0.65, 0.15), zipf_a=1.2, hot_frac=0.8, tok_min=4, tok_max=16,
)


def _log_lines(path: str) -> list[str]:
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return f.read().splitlines()


def _count_calls(monkeypatch, module, factory: str, log: str) -> None:
    """Wrap the fns ``module.factory`` builds so that every call, in any
    process, appends one line to ``log``."""
    make = getattr(module, factory)

    def counting(*args, **kwargs):
        inner = make(*args, **kwargs)

        def fn(batch):
            with open(log, "a") as f:
                f.write(f"{len(batch)}\n")
            return inner(batch)

        return fn

    monkeypatch.setattr(module, factory, counting)


def _log_reader_pids(monkeypatch, log: str, module=merge_mod) -> None:
    """Wrap every partition reader ``module`` makes so that each call, in
    any process, appends the pids it was asked for as one comma-separated
    line."""
    make = module.make_partition_reader

    def logging_reader(*args, **kwargs):
        inner = make(*args, **kwargs)

        def fn(pids):
            with open(log, "a") as f:
                f.write(",".join(map(str, pids)) + "\n")
            return inner(pids)

        return fn

    monkeypatch.setattr(module, "make_partition_reader", logging_reader)


def _reader_calls(log: str) -> list[list[int]]:
    return [[int(p) for p in line.split(",")] for line in _log_lines(log)]


def _seg_table(rows: list[tuple]) -> pa.Table:
    """rows: (lsn, op, doc_id) with a short token list per row."""
    return pa.table({
        "lsn": pa.array([r[0] for r in rows], pa.int64()),
        "op": pa.array([r[1] for r in rows], pa.string()),
        "doc_id": pa.array([r[2] for r in rows], pa.string()),
        "tokens": pa.array([[r[0] % 97, 1] for r in rows], pa.list_(pa.int32())),
        "n_tok": pa.array([2] * len(rows), pa.int32()),
        "source": pa.array(["web"] * len(rows), pa.string()),
    })


def test_hot_paths_run_no_ray_data_execution(ray_session, tmp_path, monkeypatch):
    """A salted distributed replay over a mixed jsonl+parquet WAL with a
    DLQ, then a scan, with Ray Data's readers and ``from_items`` disabled:
    the replay equals the oracle, the DLQ holds the one malformed row, and
    the scan reads every partition exactly once."""
    wal_pq, wal = str(tmp_path / "wal_pq"), str(tmp_path / "wal")
    generate_wal(wal_pq, PARAMS)
    # a last segment with one malformed row: the oracle's copy lacks it
    last = list_segments(wal_pq)[-1].last_lsn
    good = [(last + 1, "c", "late-1"), (last + 2, "u", "late-1")]
    pq.write_table(_seg_table(good), segment_path(wal_pq, last + 1, last + 2))
    shutil.copytree(wal_pq, wal)
    os.remove(segment_path(wal, last + 1, last + 2))
    pq.write_table(
        _seg_table(good + [(last + 3, "x", "late-2")]),
        segment_path(wal, last + 1, last + 3),
    )
    for i, seg in enumerate(list_segments(wal)):
        if i % 2:
            pq.read_table(seg.path).to_pandas().to_json(
                seg.path[: -len(".parquet")] + ".jsonl", orient="records", lines=True
            )
            os.remove(seg.path)
    assert {s.format for s in list_segments(wal)} == {"parquet", "jsonl"}

    def no_ray_data(*args, **kwargs):
        raise AssertionError("a Ray Data execution on a hot path")

    for name in ("read_parquet", "read_json", "from_items"):
        monkeypatch.setattr(ray.data, name, no_ray_data)

    table = str(tmp_path / "t")
    create_table(table, num_partitions=4)
    stats = replay(table, wal, ApplyConfig(
        max_segments=3, salt_factor=4, hot_ratio=0.0, small_epoch_events=0,
        dlq_dir=str(tmp_path / "dlq"),
    ), final_compact=False)
    assert any(s.get("hot_pids") for s in stats), "no epoch was salted"
    assert sum(s.get("dlq_rows", 0) for s in stats) == 1
    assert_snapshots_equal(snapshot_table(table), replay_oracle(wal_pq))

    log = str(tmp_path / "reader.log")
    _count_calls(monkeypatch, merge_mod, "make_partition_reader", log)
    ds = read_snapshot(table)
    rows = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    assert_snapshots_equal(rows, snapshot_table(table))
    assert len(_log_lines(log)) == 4


def test_one_segment_epoch_splits_into_cpu_tasks(ray_session, tmp_path, monkeypatch):
    """In a 4-CPU session, a one-segment epoch runs on at least 4 read
    tasks. The segment straddles the watermark (its applied first half is
    filtered out, so two tasks route no rows) and a hot pid gets no rows
    this epoch (every one of its salted dests is empty)."""
    assert int(ray.cluster_resources()["CPU"]) == 4
    wal = str(tmp_path / "wal")
    os.makedirs(wal)
    keys = [f"k{i}" for i in range(400)]
    first = [(i + 1, "c", k) for i, k in enumerate(keys)]
    pq.write_table(_seg_table(first), segment_path(wal, 1, 400))
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4)
    cfg = ApplyConfig(salt_factor=4, hot_ratio=0.0, small_epoch_events=0)
    apply_once(table, wal, cfg)

    # the WAL is re-segmented: one segment now spans the applied lsn 1-400
    # and 400 new events that touch no key of partition 3
    cold = [k for k in keys if partition_of(k, 4) != 3]
    second = [
        (401 + i, "d" if i % 10 == 9 else "u", cold[i % len(cold)])
        for i in range(400)
    ]
    os.remove(segment_path(wal, 1, 400))
    pq.write_table(_seg_table(first + second), segment_path(wal, 1, 800))

    log = str(tmp_path / "normalize.log")
    _count_calls(monkeypatch, apply_mod, "make_normalize_fn", log)
    stats = apply_once(table, wal, cfg)
    assert stats["segments"] == 1
    assert 3 in stats["hot_pids"]
    calls = [int(n) for n in _log_lines(log)]
    assert len(calls) >= 4, calls
    assert sum(calls) == 800
    assert_snapshots_equal(snapshot_table(table), replay_oracle(wal))


def test_snapshot_dataset_outlives_gc(ray_session, tmp_path):
    """A read_snapshot Dataset taken before 10 commits, whose GC removes
    every file it was read from, still yields the rows of its epoch."""
    wal = str(tmp_path / "wal")
    generate_wal(wal, GenParams(
        total_events=2_200, base_events=200, events_per_segment=200, seed=59,
        tok_min=4, tok_max=16,
    ))
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4, retention=1)
    cfg = ApplyConfig(max_segments=1, compact_threshold=1)
    apply_once(table, wal, cfg)
    want = snapshot_table(table)
    ds = read_snapshot(table)
    for _ in range(10):
        assert apply_once(table, wal, cfg) is not None
    got = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    assert_snapshots_equal(got, want)


def _gc_table(tmp_path, retention: int) -> tuple[str, str, ApplyConfig]:
    """A 4-partition table whose every commit rewrites the partitions it
    touches and collects what no retained manifest references, after one
    epoch of an 11-segment WAL."""
    wal = str(tmp_path / "wal")
    generate_wal(wal, GenParams(
        total_events=2_200, base_events=200, events_per_segment=200, seed=59,
        tok_min=4, tok_max=16,
    ))
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4, retention=retention)
    cfg = ApplyConfig(max_segments=1, compact_threshold=1)
    apply_once(table, wal, cfg)
    return table, wal, cfg


def test_read_where_dataset_outlives_gc(ray_session, tmp_path, monkeypatch):
    """A read_where Dataset taken before 10 commits of a retention=1 table
    still yields the rows of its epoch, and its ``to_arrow_refs()`` runs the
    partition reader once for each partition it reads."""
    table, wal, cfg = _gc_table(tmp_path, retention=1)
    want = snapshot_table(table)
    want = want.filter(pa.compute.greater_equal(want.column("n_tok"), 8))
    log = str(tmp_path / "reader.log")
    _log_reader_pids(monkeypatch, log, scan_mod)
    ds, plan = scan_mod.read_where(table, "n_tok", lo=8)
    for _ in range(10):
        assert apply_once(table, wal, cfg) is not None
    got = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    assert 0 < got.num_rows
    assert_snapshots_equal(got, want)
    read = sorted(p for c in _reader_calls(log) for p in c)
    assert read == sorted(int(p) for p in plan["partitions"]) == [0, 1, 2, 3]


def test_table_diff_dataset_outlives_gc(ray_session, tmp_path, monkeypatch):
    """A table_diff Dataset taken before 5 commits of a retention=3 table
    still yields the changes between its epochs, and its
    ``to_arrow_refs()`` reads each changed partition's chain once per
    side."""
    table, wal, cfg = _gc_table(tmp_path, retention=3)
    for _ in range(2):
        apply_once(table, wal, cfg)
    old, new = snapshot_table(table, epoch=1), snapshot_table(table)
    old_lsn = dict(zip(old.column("doc_id").to_pylist(), old.column("lsn").to_pylist()))
    new_lsn = dict(zip(new.column("doc_id").to_pylist(), new.column("lsn").to_pylist()))
    want = sorted(
        [(k, "c") for k in new_lsn if k not in old_lsn]
        + [(k, "u") for k in new_lsn if k in old_lsn and new_lsn[k] != old_lsn[k]]
        + [(k, "d") for k in old_lsn if k not in new_lsn]
    )
    changed = diff_mod.changed_partitions(table, 1)
    chains = sorted(
        ",".join(c[side]) for c in changed for side in ("old", "new") if c[side]
    )
    log = str(tmp_path / "chains.log")
    read = diff_mod.read_partition_final

    def logging_read(table_dir, files, *args, **kwargs):
        with open(log, "a") as f:
            f.write(",".join(files) + "\n")
        return read(table_dir, files, *args, **kwargs)

    monkeypatch.setattr(diff_mod, "read_partition_final", logging_read)
    ds = diff_mod.table_diff(table, 1)
    for _ in range(5):
        assert apply_once(table, wal, cfg) is not None
    got = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    assert want and sorted(zip(
        got.column("doc_id").to_pylist(), got.column("op").to_pylist()
    )) == want
    assert sorted(_log_lines(log)) == chains and len(changed) == 4


def _keyed_rows(counts: dict[int, int], num_partitions: int) -> list[tuple]:
    """(lsn, op, doc_id) inserts: ``counts[pid]`` fresh keys of each pid."""
    rows, i = [], 0
    left = dict(counts)
    while any(left.values()):
        key = f"k{i}"
        pid = partition_of(key, num_partitions)
        if left.get(pid):
            left[pid] -= 1
            rows.append((len(rows) + 1, "c", key))
        i += 1
    return rows


def _wide_seg_table(rows: list[tuple]) -> pa.Table:
    """:func:`_seg_table` with 64 random token ids per row, so a
    partition's chain bytes grow with its rows."""
    t = _seg_table(rows)
    rng = np.random.default_rng(7)
    tokens = rng.integers(0, 50_000, (len(rows), 64), dtype=np.int32)
    return t.set_column(
        t.schema.get_field_index("tokens"), "tokens",
        pa.array(list(tokens), pa.list_(pa.int32())),
    )


def test_scan_plans_one_task_per_cpu_by_chain_bytes(ray_session, tmp_path, monkeypatch):
    """In a 4-CPU session a scan of 20 partitions, one of them about 10x
    the others by chain bytes, runs at most 4 reader tasks; each block
    holds whole partitions in ascending pid order and the rows equal the
    driver's snapshot. A 2-partition table runs 2 tasks, and a time-range
    scan still prunes months at the manifest and trims the boundary ones."""
    assert int(ray.cluster_resources()["CPU"]) == 4
    log = str(tmp_path / "reader.log")
    _log_reader_pids(monkeypatch, log)

    counts = {pid: 30 for pid in range(20)}
    counts[7] = 300
    wal = str(tmp_path / "wal")
    os.makedirs(wal)
    rows = _keyed_rows(counts, 20)
    pq.write_table(_wide_seg_table(rows), segment_path(wal, 1, len(rows)))
    table = str(tmp_path / "t")
    create_table(table, num_partitions=20)
    apply_once(table, wal, ApplyConfig())
    man = apply_mod.load_manifest(table)
    big = man.partitions["7"]["bytes"]
    assert all(big > 6 * p["bytes"] for pid, p in man.partitions.items() if pid != "7")

    ds = read_snapshot(table)
    blocks = ray.get(ds.to_arrow_refs())
    calls = _reader_calls(log)
    assert 1 < len(calls) <= 4, calls
    assert sorted(p for c in calls for p in c) == list(range(20))
    block_pids = [
        [partition_of(k, 20) for k in b.column("doc_id").to_pylist()] for b in blocks
    ]
    assert [sorted(set(p)) for p in block_pids] == sorted(calls)
    for pids in block_pids:
        assert pids == sorted(pids)
    assert_snapshots_equal(pa.concat_tables(blocks), snapshot_table(table))

    os.remove(log)
    two_wal, two = str(tmp_path / "wal2"), str(tmp_path / "t2")
    os.makedirs(two_wal)
    rows = _keyed_rows({0: 5, 1: 5}, 2)
    pq.write_table(_seg_table(rows), segment_path(two_wal, 1, len(rows)))
    create_table(two, num_partitions=2)
    apply_once(two, two_wal, ApplyConfig())
    got = pa.concat_tables(ray.get(read_snapshot(two).to_arrow_refs()))
    assert sorted(_reader_calls(log)) == [[0], [1]]
    assert_snapshots_equal(got, snapshot_table(two))

    os.remove(log)
    fact_wal, facts = str(tmp_path / "fact_wal"), str(tmp_path / "facts")
    generate_fact_wal(fact_wal, FactGenParams(total_events=4_000, events_per_segment=1_000))
    create_table(
        facts, schema=FACT_SNAPSHOT_SCHEMA, mode="append", key_col="event_id",
        partition_spec={"kind": "time", "col": "event_ts", "granularity": "month"},
    )
    apply_once(facts, fact_wal, ApplyConfig())
    assert len(apply_mod.load_manifest(facts).partitions) > 2
    start, end = dt.datetime(2024, 1, 20), dt.datetime(2024, 2, 10)
    got = pa.concat_tables(ray.get(read_time_range(facts, start, end).to_arrow_refs()))
    assert sorted(p for c in _reader_calls(log) for p in c) == [202401, 202402]
    want = snapshot_table(facts)
    ts = want.column("event_ts")
    want = want.filter(pa.compute.and_(
        pa.compute.greater_equal(ts, pa.scalar(start, ts.type)),
        pa.compute.less(ts, pa.scalar(end, ts.type)),
    ))
    assert 0 < got.num_rows < snapshot_table(facts).num_rows
    assert sorted(got.column("lsn").to_pylist()) == want.column("lsn").to_pylist()


class _TaskHere:
    """Stands in for ``apply._task``, the one Ray task of the engine: runs
    each task's fn in this process, where a monkeypatch can see its
    reads."""

    @staticmethod
    def options(num_returns=1):
        assert num_returns == 1
        return _TaskHere

    @staticmethod
    def remote(fn, items, split):
        assert split is None
        return ray.put(ray.get(fn)(items))


def test_part_and_wal_reads_skip_the_dataset_layer(ray_session, tmp_path, monkeypatch):
    """No part or WAL read made by ``apply_once`` (whole segments, row
    ranges of a split segment, threshold folds), ``compact_table`` or a
    ``read_snapshot`` scan calls ``pq.read_table``. Ray tasks run in other
    processes, so the epochs and the compaction take their driver-side
    paths and the scan's tasks run here; each runs the same reader code."""
    wal = str(tmp_path / "wal")
    generate_wal(wal, PARAMS)
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4)

    def no_read_table(*args, **kwargs):
        raise AssertionError("pq.read_table on a part or WAL read")

    monkeypatch.setattr(pq, "read_table", no_read_table)
    monkeypatch.setattr(apply_mod, "_task", _TaskHere)
    cfg = ApplyConfig(max_segments=2, compact_threshold=3)
    stats = []
    while (s := apply_once(table, wal, cfg)) is not None:
        stats.append(s)
    assert len(stats) >= 6
    assert compact_table(table) is not None

    seg = list_segments(wal)[0]
    pieces = apply_mod._plan_reads([seg], 4)
    assert len(pieces) > 1 and all(rows for [(_, rows)] in pieces)
    split = apply_mod._read_pieces([p for [p] in pieces], lambda t: t)
    whole = apply_mod._read_pieces([(seg.path, None)], lambda t: t)
    assert split.equals(whole)

    rows = pa.concat_tables(ray.get(read_snapshot(table).to_arrow_refs()))
    monkeypatch.undo()
    assert_snapshots_equal(rows, replay_oracle(wal))
