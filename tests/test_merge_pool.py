"""The distributed apply epoch's session-long merge actor pool.

Each epoch routes its changes in the normalize map and merges them on a pool
of actors that outlives the epoch, so the pool must survive what a cached
handle does not: an actor killed between epochs, an actor dying in the middle
of a merge, and a Ray session restarted in the same process. The actors
reserve no CPU, so the maintenance tasks right after a salted epoch still
get the session's CPUs, the epochs of two threads can share the pool, and
an import and a repartition, epochs on the same pool, finish in a 2-CPU
session. Every apply result reports the same phase timers on both apply
paths."""

import os
import signal
import subprocess
import sys
import threading

import ray

import clickhouse_data_pipeline_ray.pipelines.apply as apply_mod
from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    apply_once,
    create_table,
    snapshot_table,
)
from clickhouse_data_pipeline_ray.sources.gen import GenParams, generate_wal
from clickhouse_data_pipeline_ray.stages.merge import MergeApply
from clickhouse_data_pipeline_ray.state.manifest import load_manifest

from .helpers import assert_snapshots_equal, replay_oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PARAMS = GenParams(
    total_events=2_000, base_events=500, events_per_segment=500, seed=31,
    tok_min=4, tok_max=32,
)
DIST = dict(max_segments=2, salt_factor=1, small_epoch_events=0)


def _wal(tmp_path, params=PARAMS) -> str:
    wal = str(tmp_path / "wal")
    generate_wal(wal, params)
    return wal


def _parts_on_disk(table: str) -> set[str]:
    out = set()
    for d, _dirs, names in os.walk(os.path.join(table, "parts")):
        out.update(
            os.path.relpath(os.path.join(d, n), table)
            for n in names if n.endswith(".parquet")
        )
    return out


def test_phase_timers_on_both_paths(ray_session, tmp_path):
    wal = _wal(tmp_path)
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4)
    micro = apply_once(table, wal, ApplyConfig(max_segments=1))
    dist = apply_once(table, wal, ApplyConfig(**DIST))
    for stats in (micro, dist):
        assert set(stats["phases_s"]) == {"read_normalize", "merge", "commit"}
        assert all(v >= 0 for v in stats["phases_s"].values())
    # returned only: the committed history entry stays small
    assert all("phases_s" not in e for e in load_manifest(table).history)


def test_actor_killed_between_epochs_is_replaced(ray_session, tmp_path):
    wal = _wal(tmp_path)
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4)
    cfg = ApplyConfig(merge_concurrency=1, **DIST)
    assert apply_once(table, wal, cfg) is not None
    (actor,) = apply_mod._merge_pool(1)
    ray.kill(actor)
    assert apply_once(table, wal, cfg)["epoch"] == 2
    assert_snapshots_equal(
        snapshot_table(table), replay_oracle(wal, load_manifest(table).watermark)
    )


def test_actor_dies_mid_epoch(ray_session, tmp_path, monkeypatch):
    wal = _wal(tmp_path)
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4)
    cfg = ApplyConfig(merge_concurrency=2, **DIST)
    # epoch 1 writes each partition's snapshot, so epoch 2 only extends the
    # chains: the head then names every part a committed epoch wrote
    assert apply_once(table, wal, cfg) is not None
    marker = str(tmp_path / "died")

    class DiesOnFirstCall(MergeApply):
        """Writes its first part, then kills its actor process."""

        def __call__(self, group):
            out = super().__call__(group)
            if not os.path.exists(marker):
                open(marker, "w").close()
                os._exit(1)
            return out

    monkeypatch.setattr(apply_mod, "MergeApply", DiesOnFirstCall)
    stats = apply_once(table, wal, cfg)
    assert os.path.exists(marker), "no merge actor died"
    assert stats["epoch"] == 2 and stats["events_applied"] == 1_000
    man = load_manifest(table)
    assert [e["epoch"] for e in man.history] == [1, 2]
    assert_snapshots_equal(snapshot_table(table), replay_oracle(wal, man.watermark))
    head = {f for p in man.partitions.values() for f in p.get("files") or []}
    assert _parts_on_disk(table) == head


def test_concurrent_salted_epochs_share_the_pool(ray_session, tmp_path):
    """Two threads replay their own tables with salted distributed epochs on
    the one pool; both finish and both equal the oracle."""
    wal = _wal(tmp_path)
    cfg = ApplyConfig(merge_concurrency=2, salt_factor=4, hot_ratio=0.0,
                      max_segments=1, small_epoch_events=0)
    tables = [str(tmp_path / f"t{i}") for i in range(2)]
    errors = []

    def replay_table(table):
        try:
            while apply_once(table, wal, cfg) is not None:
                pass
        except Exception as e:  # reported by the assertion below
            errors.append(e)

    for table in tables:
        # epoch 1 in this thread gives epoch 2 a histogram to salt from
        create_table(table, num_partitions=4)
        apply_once(table, wal, cfg)
    threads = [threading.Thread(target=replay_table, args=(t,), daemon=True)
               for t in tables]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads), "an epoch never finished"
    assert not errors, errors
    for table in tables:
        assert load_manifest(table).history[-1]["hot_pids"]
        assert_snapshots_equal(snapshot_table(table), replay_oracle(wal))


def _run(script: str, *args: str, timeout: float) -> None:
    """Run ``script`` in a fresh Python process with its own Ray session;
    past ``timeout`` the process group (the Ray processes too) is killed."""
    env = dict(os.environ, PYTHONPATH=ROOT)
    proc = subprocess.Popen(
        [sys.executable, "-c", script, *args], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError(f"no result within {timeout} s") from None
    assert proc.returncode == 0, err[-4000:]
    assert out.strip().endswith("OK"), out[-2000:]


_PRELUDE = """
import sys
import ray
from clickhouse_data_pipeline_ray.pipelines import apply as apply_mod
from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig, apply_once, compact_table, create_table, snapshot_table)
from tests.helpers import assert_snapshots_equal, replay_oracle

def init():
    ray.init(address="local", num_cpus=2, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

wal, table = sys.argv[1], sys.argv[2]
create_table(table, num_partitions=4)
"""


def test_pool_after_ray_restart_in_one_process(tmp_path):
    wal = _wal(tmp_path)
    _run(_PRELUDE + """
cfg = ApplyConfig(max_segments=2, salt_factor=1, small_epoch_events=0)
for epoch in (1, 2):
    init()
    assert apply_once(table, wal, cfg)["epoch"] == epoch
    ray.shutdown()
assert_snapshots_equal(snapshot_table(table), replay_oracle(wal))
print("OK")
""", wal, str(tmp_path / "t"), timeout=120)


def test_salted_epoch_then_actor_pool_job_in_two_cpus(tmp_path):
    """A salted distributed epoch, then a compaction on maintenance tasks,
    in a 2-CPU session: merge actors that held CPUs would leave the
    compaction's tasks none and stall it."""
    wal = _wal(tmp_path, GenParams(
        total_events=3_000, base_events=500, events_per_segment=500, seed=47,
        mix=(0.1, 0.8, 0.1), zipf_a=1.2, hot_frac=0.8, tok_min=4, tok_max=32,
    ))
    _run(_PRELUDE + """
init()
cfg = ApplyConfig(max_segments=2, salt_factor=4, hot_ratio=0.0,
                  small_epoch_events=0)
apply_once(table, wal, cfg)
assert apply_once(table, wal, cfg)["hot_pids"], "epoch 2 was not salted"
apply_mod.COMPACT_DRIVER_BYTES = 0
assert compact_table(table)["partitions_compacted"] > 0
while apply_once(table, wal, cfg) is not None:
    pass
assert_snapshots_equal(snapshot_table(table), replay_oracle(wal))
ray.shutdown()
print("OK")
""", wal, str(tmp_path / "t"), timeout=120)


def test_import_and_repartition_in_two_cpus(tmp_path):
    """An import and a repartition are apply epochs on the session merge
    pool: in a 2-CPU session, after a distributed epoch, both finish, and
    the table holds the corpus plus the WAL under the new partition
    count."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    wal = _wal(tmp_path)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(2):
        keys = [f"imported-{i}-{j}" for j in range(150)]
        pq.write_table(pa.table({
            "doc_id": keys,
            "tokens": pa.array([[j, j + 1] for j in range(150)], pa.list_(pa.int32())),
            "source": ["imported"] * 150,
        }), str(corpus / f"part-{i}.parquet"))
    _run(_PRELUDE + """
from clickhouse_data_pipeline_ray.pipelines.apply import import_base, repartition_table
init()
assert import_base(table, sys.argv[3])["rows"] == 300
while apply_once(table, wal, ApplyConfig(**%r)) is not None:
    pass
before = snapshot_table(table)
assert before.num_rows == 300 + replay_oracle(wal).num_rows
assert repartition_table(table, 7)["num_partitions"] == 7
assert snapshot_table(table).equals(before)
ray.shutdown()
print("OK")
""" % DIST, wal, str(tmp_path / "t"), str(corpus), timeout=120)
