"""The distributed apply epoch and the merge-on-read scan on plain Ray tasks.

An epoch's read+normalize+route runs as about one task per session CPU (a
segment splits when there are fewer segments than CPUs), each returning one
table per merge dest; a scan runs one task per partition when it is called.
Neither runs a Ray Data execution, a scan reads each partition once, and a
scan's Dataset keeps its rows after later commits collect their files."""

import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import ray

import clickhouse_data_pipeline_ray.pipelines.apply as apply_mod
from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    apply_once,
    create_table,
    read_snapshot,
    replay,
    snapshot_table,
)
from clickhouse_data_pipeline_ray.sources.gen import GenParams, generate_wal
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
                f.write(f"{batch.num_rows}\n")
            return inner(batch)

        return fn

    monkeypatch.setattr(module, factory, counting)


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
