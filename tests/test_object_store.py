"""The table commit protocol: write-once parts, put-if-absent manifests.

Every table commits the object-store way (state/store.py): parts are written
once under writer-unique, epoch-stamped names; the commit point is a
put-if-absent of the immutable versioned manifest; readers resolve the head
by listing; concurrency is optimistic (racing writers both run, exactly one
wins the conditional put, losers raise ConcurrentCommitError).

These tests pin crash recovery, that no table mutation renames or locks,
that racing, storming and stale writers never change a committed file, and
the GC rule that replaces a grace window.
"""

import datetime as dt
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import clickhouse_data_pipeline_ray.pipelines.apply as apply_mod
import clickhouse_data_pipeline_ray.state.manifest as manifest_mod
from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    apply_once,
    compact_table,
    create_table,
    import_base,
    mutate_table,
    replay,
    repartition_table,
    snapshot_table,
    ttl_expire,
)
from clickhouse_data_pipeline_ray.schemas import FACT_SNAPSHOT_SCHEMA
from clickhouse_data_pipeline_ray.sources.gen import (
    FactGenParams,
    GenParams,
    generate_fact_wal,
    generate_wal,
)
from clickhouse_data_pipeline_ray.state.fsck import fsck_table
from clickhouse_data_pipeline_ray.state.manifest import (
    ConcurrentCommitError,
    commit_manifest,
    gc_stale_files,
    load_manifest,
    retained_epochs,
)

from .helpers import assert_snapshots_equal, replay_oracle

PARAMS = GenParams(
    total_events=4_000, base_events=1_000, events_per_segment=1_000, seed=31,
    tok_min=4, tok_max=32,
)
CFG = ApplyConfig(max_segments=2, salt_factor=1)
# distributed path (Ray merge workers) — the protocol must hold there too
DIST_CFG = ApplyConfig(max_segments=2, salt_factor=1, small_epoch_events=0)
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def wal(tmp_path_factory):
    wal_dir = str(tmp_path_factory.mktemp("wal_obj"))
    generate_wal(wal_dir, PARAMS)
    return wal_dir


def _no_tmps(table_dir):
    stray = [
        os.path.join(r, f)
        for r, _d, fs in os.walk(os.path.join(table_dir, "parts"))
        for f in fs
        if ".tmp" in f or ".staged." in f
    ]
    assert not stray, stray


def _digests(table_dir) -> dict[str, str]:
    """sha256 of every file in the table (parts and manifests)."""
    out = {}
    for root, _d, names in os.walk(table_dir):
        for n in names:
            path = os.path.join(root, n)
            with open(path, "rb") as f:
                out[os.path.relpath(path, table_dir)] = hashlib.sha256(f.read()).hexdigest()
    return out


def _unreferenced(table_dir) -> set[str]:
    live = {
        f
        for ep in retained_epochs(table_dir)
        for p in load_manifest(table_dir, epoch=ep).partitions.values()
        for f in p["files"]
    }
    return {
        os.path.relpath(os.path.join(r, n), table_dir)
        for r, _d, names in os.walk(os.path.join(table_dir, "parts"))
        for n in names
    } - live


def _fact_table(tmp_path) -> tuple[str, str]:
    wal = str(tmp_path / "fw")
    generate_fact_wal(wal, FactGenParams(total_events=3_000,
                                         events_per_segment=1_000, seed=19))
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4, schema=FACT_SNAPSHOT_SCHEMA,
                 mode="append", key_col="event_id")
    replay(table, wal, ApplyConfig(max_segments=1, salt_factor=1),
           final_compact=False)
    return table, wal


def test_object_replay_matches_oracle(ray_session, wal, tmp_path):
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4)
    replay(table, wal, DIST_CFG)
    assert_snapshots_equal(snapshot_table(table), replay_oracle(wal))
    _no_tmps(table)
    # no lock file and no pointer file: nothing is ever overwritten
    assert not os.path.exists(os.path.join(table, "table.lock"))
    assert not os.path.exists(os.path.join(table, "manifest.json"))
    # idempotent re-apply
    assert apply_once(table, wal, ApplyConfig()) is None


def _prepared(kind, wal, tmp_path):
    """A table ready for one mutation, and that mutation."""
    if kind == "ttl_expire":
        table, _ = _fact_table(tmp_path)
        return table, lambda: ttl_expire(table, "event_ts", dt.datetime(2024, 1, 10))
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4)
    if kind == "import_base":
        corpus = str(tmp_path / "corpus.parquet")
        pq.write_table(pa.table({
            "doc_id": pa.array([f"d{i}" for i in range(200)]),
            "tokens": pa.array([[i, i + 1] for i in range(200)], pa.list_(pa.int32())),
            "source": pa.array(["imported"] * 200),
        }), corpus)
        return table, lambda: import_base(table, corpus)
    apply_cfgs = {
        "apply_micro": CFG,
        "apply_distributed": DIST_CFG,
        "apply_snapshot": ApplyConfig(max_segments=2, salt_factor=1,
                                      write_mode="snapshot"),
    }
    if kind in apply_cfgs:
        return table, lambda: apply_once(table, wal, apply_cfgs[kind])
    replay(table, wal, CFG, final_compact=False)
    return table, {
        "compact_table": lambda: compact_table(table),
        "mutate_table": lambda: mutate_table(table, "n_tok", lo=0, hi=10, delete=True),
        "repartition_table": lambda: repartition_table(table, 8),
    }[kind]


@pytest.mark.parametrize("kind", [
    "apply_micro", "apply_distributed", "apply_snapshot", "compact_table",
    "ttl_expire", "mutate_table", "import_base", "repartition_table",
])
def test_object_protocol_never_renames_or_locks(
    ray_session, wal, tmp_path, monkeypatch, kind
):
    """Every table mutation — part writes, manifest commit, GC — completes
    with os.replace and fcntl.flock FORBIDDEN in the driver, and leaves no
    staging file behind."""
    import fcntl

    table, op = _prepared(kind, wal, tmp_path)
    before = load_manifest(table)
    rows_before = snapshot_table(table)

    def no_replace(src, dst):
        raise AssertionError(f"os.replace({src}, {dst}) during a table commit")

    def no_flock(fd, op):
        raise AssertionError("flock during a table commit")

    monkeypatch.setattr(os, "replace", no_replace)
    monkeypatch.setattr(fcntl, "flock", no_flock)
    assert op() is not None
    monkeypatch.undo()
    assert load_manifest(table).epoch == before.epoch + 1
    _no_tmps(table)
    assert fsck_table(table)["ok"]
    after = snapshot_table(table)
    if kind.startswith("apply"):
        assert_snapshots_equal(after, replay_oracle(wal, upto_lsn=2_000))
    elif kind in ("compact_table", "repartition_table"):
        assert after.equals(rows_before)
    else:
        assert after.num_rows != rows_before.num_rows


def test_object_crash_before_commit_is_invisible_and_recoverable(
    ray_session, wal, tmp_path, monkeypatch
):
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4)
    assert apply_once(table, wal, CFG) is not None  # epoch 1

    real_commit = apply_mod.commit_manifest

    def boom(man):
        raise RuntimeError("simulated crash before manifest commit")

    monkeypatch.setattr(apply_mod, "commit_manifest", boom)
    with pytest.raises(RuntimeError, match="simulated crash"):
        apply_once(table, wal, CFG)
    monkeypatch.setattr(apply_mod, "commit_manifest", real_commit)

    # crashed epoch invisible: its parts exist but no manifest references them
    man = load_manifest(table)
    assert man.epoch == 1
    assert _unreferenced(table)
    assert_snapshots_equal(
        snapshot_table(table), replay_oracle(wal, upto_lsn=2_000)
    )
    # recovery: the re-run writes fresh parts and collects the crashed ones
    replay(table, wal, CFG)
    assert_snapshots_equal(snapshot_table(table), replay_oracle(wal))
    assert not _unreferenced(table)


def test_crashed_writer_leaves_nothing_to_release(ray_session, tmp_path):
    """A writer process that dies mid-epoch (parts written, no manifest put)
    holds nothing: the next writer commits at once, the dead writer's parts
    are collected, and the replay still matches the oracle."""
    wal = str(tmp_path / "wal")
    generate_wal(wal, GenParams(total_events=2_000, base_events=500,
                                events_per_segment=500, seed=71,
                                tok_min=4, tok_max=16))
    table = str(tmp_path / "t")
    create_table(table, num_partitions=2)
    script = (
        "import os, sys; sys.path.insert(0, %r);"
        "from clickhouse_data_pipeline_ray.pipelines import apply as A;"
        "A.commit_manifest = lambda man: os._exit(3);"
        "A.apply_once(%r, %r, A.ApplyConfig(max_segments=1, salt_factor=1))"
    ) % (REPO, table, wal)
    assert subprocess.run([sys.executable, "-c", script]).returncode == 3
    leftovers = _unreferenced(table)
    assert leftovers, "the dead writer wrote its parts"
    assert apply_once(table, wal, ApplyConfig(salt_factor=1)) is not None
    while apply_once(table, wal, ApplyConfig(salt_factor=1)):
        pass
    assert_snapshots_equal(snapshot_table(table), replay_oracle(wal))
    assert not any(os.path.exists(os.path.join(table, f)) for f in leftovers)


def test_object_two_writer_race_exactly_one_loser(ray_session, wal, tmp_path):
    """Two writers read the same table state and race to commit the next
    epoch: the conditional put lets exactly one win; the loser gets
    ConcurrentCommitError, re-reads, and finds the work already done."""
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4)
    apply_once(table, wal, CFG)

    man_a = load_manifest(table)
    man_b = load_manifest(table)  # second writer's independent view
    assert man_a.epoch == man_b.epoch == 1
    man_a.epoch = 2
    man_b.epoch = 2
    commit_manifest(man_a)  # writer A wins
    with pytest.raises(ConcurrentCommitError, match="already exists"):
        commit_manifest(man_b)  # writer B loses, loudly
    # loser retry path: fresh read sees A's commit; a caught-up apply no-ops
    assert load_manifest(table).epoch == 2
    assert apply_once(table, wal, ApplyConfig(max_segments=2)) is not None  # segs 3-4
    assert_snapshots_equal(snapshot_table(table), replay_oracle(wal))


def test_object_pointer_loss_resolves_by_listing(ray_session, wal, tmp_path):
    """There is no pointer to lose: the head is the highest versioned
    manifest a LIST returns. A ``manifest.json`` left by an older layout
    (here: pinned at a stale epoch) is never read."""
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4)
    apply_once(table, wal, CFG)
    assert not os.path.exists(os.path.join(table, "manifest.json"))
    with open(os.path.join(table, "manifest-000000.json")) as f:
        stale = json.load(f)
    with open(os.path.join(table, "manifest.json"), "w") as f:
        json.dump(stale, f)

    man = load_manifest(table)  # resolved by LISTing versions
    assert man.epoch == 1
    assert_snapshots_equal(
        snapshot_table(table), replay_oracle(wal, upto_lsn=2_000)
    )
    # idempotent re-create doesn't reset the table either
    again = create_table(table, num_partitions=4)
    assert again.epoch == 1
    apply_once(table, wal, CFG)
    assert load_manifest(table).epoch == 2
    assert_snapshots_equal(snapshot_table(table), replay_oracle(wal))


def test_object_compaction_crash_and_gc_grace(ray_session, wal, tmp_path, monkeypatch):
    """The GC's grace is an epoch, not a clock: parts stamped newer than
    the head belong to a writer still at work and survive; once the head
    reaches their epoch they are dead and collected."""
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4)
    replay(table, wal,
           ApplyConfig(max_segments=1, salt_factor=1, compact_threshold=100,
                       write_mode="delta", small_epoch_events=0),
           final_compact=False)
    before_snap = snapshot_table(table)
    before_epoch = load_manifest(table).epoch

    def boom(man):
        raise RuntimeError("injected crash during compaction commit")

    monkeypatch.setattr(apply_mod, "commit_manifest", boom)
    with pytest.raises(RuntimeError, match="injected crash"):
        compact_table(table)
    monkeypatch.undo()

    # committed state untouched; the orphaned snapshot parts are invisible
    assert load_manifest(table).epoch == before_epoch
    assert snapshot_table(table).equals(before_snap)

    # grace: the crashed parts are stamped head+1, like a live writer's...
    man = load_manifest(table)
    crashed = _unreferenced(table)
    assert crashed
    assert gc_stale_files(man) == 0
    # ...until another writer commits that epoch: then they are dead
    man.epoch += 1
    man.history.append({"epoch": man.epoch})
    commit_manifest(man)
    assert gc_stale_files(man) == len(crashed)
    assert snapshot_table(table).equals(before_snap)

    # recovery: clean re-run compacts and preserves state
    stats = compact_table(table)
    assert stats["partitions_compacted"] > 0
    man = load_manifest(table)
    assert all(len(p["files"]) <= 1 for p in man.partitions.values())
    assert snapshot_table(table).equals(before_snap)
    _no_tmps(table)


def test_object_time_travel_still_works(ray_session, wal, tmp_path):
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4)
    replay(table, wal, CFG, final_compact=False)
    eps = retained_epochs(table)
    assert len(eps) >= 2
    old = snapshot_table(table, epoch=eps[-2])
    cur = snapshot_table(table)
    assert old.num_rows != cur.num_rows or not old.equals(cur)
    assert_snapshots_equal(cur, replay_oracle(wal))


def _concurrent_replay(tmp_path, writers: int):
    """``writers`` independent PROCESSES (no shared locks of any kind)
    replay the same WAL into one table concurrently. Losers of the
    conditional manifest put retry from fresh state (replay's
    ConcurrentCommitError path); every segment must be applied exactly once
    and the final state must equal the oracle."""
    wal = str(tmp_path / "wal")
    generate_wal(
        wal,
        GenParams(total_events=4_000, base_events=1_000,
                  events_per_segment=500, seed=47, tok_min=4, tok_max=16),
    )
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4)

    # micro-epochs ride the driver-side path (no Ray session needed in the
    # workers), one segment per epoch so the writers interleave a lot
    script = (
        "import sys; sys.path.insert(0, %r);"
        "from clickhouse_data_pipeline_ray.pipelines.apply import ApplyConfig, replay;"
        "replay(%r, %r, ApplyConfig(max_segments=1, salt_factor=1), final_compact=False)"
    ) % (REPO, table, wal)
    procs = [
        subprocess.Popen([sys.executable, "-c", script],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for _ in range(writers)
    ]
    for p in procs:
        _out, err = p.communicate(timeout=300)
        assert p.returncode == 0, err.decode()[-2000:]

    man = load_manifest(table)
    assert man.watermark == 4_000
    # every epoch committed exactly once, with no gaps
    eps = [h["epoch"] for h in man.history]
    assert eps == list(range(1, man.epoch + 1))
    lineage = [s for p_ in man.partitions.values() for s in p_["lineage"]]
    # every partition records each segment exactly once
    per_seg = Counter(lineage)
    assert len(per_seg) == 8
    assert all(c == len(man.partitions) for c in per_seg.values()), per_seg
    assert_snapshots_equal(snapshot_table(table), replay_oracle(wal))
    assert fsck_table(table)["ok"]


def test_object_two_process_concurrent_replay(tmp_path):
    _concurrent_replay(tmp_path, writers=2)


def test_commit_storm_four_processes(tmp_path):
    _concurrent_replay(tmp_path, writers=4)


def test_stale_list_loses_and_overwrites_nothing(ray_session, wal, tmp_path, monkeypatch):
    """An object store's LIST may briefly miss the newest manifest. A writer
    that plans from the stale head must lose its put and change no file."""
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4)
    apply_once(table, wal, ApplyConfig(max_segments=1, salt_factor=1))
    apply_once(table, wal, ApplyConfig(max_segments=1, salt_factor=1))
    head = load_manifest(table).epoch
    before = _digests(table)

    real_list = manifest_mod.retained_epochs
    hidden = []

    def stale_list(table_dir):
        eps = real_list(table_dir)
        if not hidden:
            hidden.append(eps[-1])
            return eps[:-1]
        return eps

    monkeypatch.setattr(manifest_mod, "retained_epochs", stale_list)
    with pytest.raises(ConcurrentCommitError):
        apply_once(table, wal, ApplyConfig(max_segments=1, salt_factor=1))
    monkeypatch.undo()
    assert hidden == [head]
    after = _digests(table)
    assert {k: after[k] for k in before} == before
    assert load_manifest(table).epoch == head
    assert_snapshots_equal(
        snapshot_table(table), replay_oracle(wal, upto_lsn=2_000)
    )


def test_racing_maintenance_never_changes_committed_parts(
    ray_session, tmp_path, monkeypatch
):
    """compact_table and ttl_expire plan from the same base epoch and both
    rewrite the same partitions. The loser must leave every byte of the
    winner's committed parts as it was."""
    table, wal = _fact_table(tmp_path)
    base = load_manifest(table)
    assert compact_table(table) is not None  # the winner
    winner = load_manifest(table)
    parts = {f for p in winner.partitions.values() for f in p["files"]}
    digests = {f: v for f, v in _digests(table).items() if f in parts}
    assert parts and set(digests) == parts

    # the loser read the table before the winner committed
    monkeypatch.setattr(apply_mod, "load_manifest", lambda table_dir, epoch=None: base)
    lost = False
    try:
        ttl_expire(table, "event_ts", dt.datetime(2024, 1, 10))
    except ConcurrentCommitError:
        lost = True
    monkeypatch.undo()
    assert {f: v for f, v in _digests(table).items() if f in parts} == digests
    assert lost
    assert load_manifest(table).epoch == winner.epoch
    assert snapshot_table(table).num_rows == 3_000


def test_ghost_commit_after_retention_prune_raises(ray_session, tmp_path):
    """A writer more than ``retention`` epochs stale can put a version that
    was already pruned. That commit would be invisible to listing readers,
    so it must fail loudly and leave no version behind."""
    table = str(tmp_path / "t")
    create_table(table, num_partitions=2)
    stale = load_manifest(table)
    for _ in range(9):  # another handle advances the table 9 epochs
        m = load_manifest(table)
        m.epoch += 1
        m.history.append({"epoch": m.epoch})
        commit_manifest(m)
    assert retained_epochs(table) == list(range(2, 10))
    stale.epoch += 1
    stale.history.append({"epoch": stale.epoch})
    with pytest.raises(ConcurrentCommitError, match="stale"):
        commit_manifest(stale)
    assert retained_epochs(table) == list(range(2, 10))
    assert load_manifest(table).epoch == 9


def test_retention_prune_tolerates_concurrent_prune(ray_session, tmp_path, monkeypatch):
    """Two committers whose listings both hold the same stale version both
    prune it; the one that finds it gone still reports success."""
    table = str(tmp_path / "t")
    create_table(table, num_partitions=2, retention=2)
    m = load_manifest(table)
    for _ in range(2):
        m.epoch += 1
        m.history.append({"epoch": m.epoch})
        commit_manifest(m)
    assert retained_epochs(table) == [1, 2]  # the epoch-2 commit pruned 0

    real_list = manifest_mod.retained_epochs
    # this committer listed before the other one's prune of version 0 landed
    monkeypatch.setattr(manifest_mod, "retained_epochs",
                        lambda d: sorted(set(real_list(d)) | {0}))
    m.epoch += 1
    m.history.append({"epoch": m.epoch})
    commit_manifest(m)
    monkeypatch.undo()
    assert retained_epochs(table) == [2, 3]
    assert load_manifest(table).epoch == 3


def test_replay_retries_lost_auto_compaction(ray_session, wal, tmp_path, monkeypatch):
    """A background compaction that loses its commit race is retried; the
    replay completes and still matches the oracle."""
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4)
    real_compact = apply_mod.compact_table
    lost = []

    def compact_losing_once(table_dir, **kwargs):
        # the first compaction with work to do (after epoch 2's second
        # delta) loses its race once
        epoch = load_manifest(table_dir).epoch
        if epoch == 2 and not lost:
            lost.append(epoch)
            raise ConcurrentCommitError("a rival writer committed this epoch first")
        return real_compact(table_dir, **kwargs)

    monkeypatch.setattr(apply_mod, "compact_table", compact_losing_once)
    out = replay(table, wal,
                 ApplyConfig(max_segments=1, salt_factor=1, compact_threshold=100,
                             auto_compact_ratio=0.0),
                 final_compact=False)
    assert lost == [2]
    # the compaction after epoch 2 ran on the retry, before epoch 3's apply
    assert out[2].get("compaction") and out[2]["epoch"] == 3
    assert all(len(p["files"]) <= 1 for p in load_manifest(table).partitions.values())
    assert_snapshots_equal(snapshot_table(table), replay_oracle(wal))


def test_object_maintenance_ops(ray_session, tmp_path):
    """Mutations, TTL, size-tiered compaction, and fsck all run through the
    one commit protocol (conditional-put commits, no renames)."""
    import duckdb

    table, wal = _fact_table(tmp_path)
    base = load_manifest(table).total_rows()
    assert base == 3_000

    m = mutate_table(table, "value", lo=0.0, hi=20.0, delete=True)
    assert m is not None and m["rows_deleted"] > 0
    t = ttl_expire(table, "event_ts", dt.datetime(2024, 1, 10))
    assert t is not None and t["rows_expired"] > 0
    c = compact_table(table, size_ratio=0.0)
    assert c is None or c["partitions_compacted"] >= 0
    # state agrees with a relational recompute over the WAL
    want = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{wal}/seg-*.parquet') "
        "WHERE NOT (value >= 0.0 AND value <= 20.0) "
        "AND event_ts >= TIMESTAMP '2024-01-10'"
    ).fetchone()[0]
    assert load_manifest(table).total_rows() == want
    res = fsck_table(table)
    assert res["ok"], res["findings"]
    _no_tmps(table)


def test_object_repartition(ray_session, wal, tmp_path):
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4)
    replay(table, wal, CFG)
    before = snapshot_table(table)
    stats = repartition_table(table, 8)
    assert stats["num_partitions"] == 8
    man = load_manifest(table)
    assert len(man.partitions) == 8
    after = snapshot_table(table)
    assert after.sort_by("doc_id").equals(before.sort_by("doc_id"))
    _no_tmps(table)
    # applies keep working against the new layout
    assert apply_once(table, wal, ApplyConfig()) is None
