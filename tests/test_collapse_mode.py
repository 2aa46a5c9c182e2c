"""Collapse-mode tables: the CollapsingMergeTree analog (±1 sign cancellation).

Semantics: change events are insert-only with ``sign`` ∈ {+1 (state), −1
(cancel)}; a key is alive iff net = Σ sign > 0, with payload from the
max-LSN state row. The committed state is an associative PARTIAL encoding
(winner row + residual cancel-balance adjustment rows — see
``stages/merge.py collapse_compact``); user reads finalize. Oracle: DuckDB
``GROUP BY doc_id HAVING sum(sign) > 0`` with ``arg_max(col, lsn) FILTER
(sign = 1)`` over the raw WAL.
"""

import os
from collections import defaultdict

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    apply_once,
    compact_table,
    create_table,
    mutate_table,
    read_snapshot,
    replay,
    snapshot_table,
)
from clickhouse_data_pipeline_ray.schemas import FACT_SNAPSHOT_SCHEMA
from clickhouse_data_pipeline_ray.sources.wal import segment_path
from clickhouse_data_pipeline_ray.stages.merge import (
    collapse_compact,
    collapse_finalize,
)
from clickhouse_data_pipeline_ray.state.manifest import init_table, load_manifest

SCHEMA = FACT_SNAPSHOT_SCHEMA.append(pa.field("sign", pa.int32()))

US = 1_000_000


# ---------------------------------------------------------------- kernel


def _events_table(events):
    """events: list of (key, lsn, sign, value)."""
    return pa.table(
        {
            "doc_id": pa.array([e[0] for e in events], pa.string()),
            "lsn": pa.array([e[1] for e in events], pa.int64()),
            "sign": pa.array([e[2] for e in events], pa.int32()),
            "value": pa.array([e[3] for e in events], pa.float64()),
        }
    )


def _naive(events):
    """Reference semantics straight from the contract."""
    net = defaultdict(int)
    win: dict = {}
    for k, lsn, s, v in events:
        net[k] += s
        if s > 0 and (k not in win or lsn > win[k][0]):
            win[k] = (lsn, v)
    return {k: win[k] for k in net if net[k] > 0 and k in win}


def _random_events(seed, n=600, keys=50):
    rng = np.random.default_rng(seed)
    return [
        (f"k{rng.integers(0, keys)}", lsn, int(rng.choice([1, -1])), float(lsn))
        for lsn in range(1, n + 1)
    ]


def test_kernel_matches_naive_oracle():
    events = _random_events(3)
    fin = collapse_finalize(collapse_compact(_events_table(events)))
    got = {r["doc_id"]: (r["lsn"], r["value"]) for r in fin.to_pylist()}
    assert got == _naive(events)
    # winner rows carry the positive net in sign
    for r in fin.to_pylist():
        assert r["sign"] > 0


def test_kernel_associative_under_arbitrary_splits():
    """Batches split a key's events randomly — the partial encoding must
    compose to the same result as one global fold, and refolding a fold
    must be a fixpoint."""
    events = _random_events(7)
    want = _naive(events)
    t = _events_table(events)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        idx = rng.permutation(len(events))
        chunks = np.array_split(idx, rng.integers(2, 9))
        parts = [
            collapse_compact(_events_table([events[i] for i in c]))
            for c in chunks
        ]
        refold = collapse_compact(pa.concat_tables(parts))
        got = {
            r["doc_id"]: (r["lsn"], r["value"])
            for r in collapse_finalize(refold).to_pylist()
        }
        assert got == want, seed
        key = [("doc_id", "ascending"), ("lsn", "ascending")]
        assert collapse_compact(refold).sort_by(key).equals(refold.sort_by(key))


def test_kernel_residuals_preserve_cancel_balance():
    # fully cancelled key: residual rows keep net information
    events = [("a", 1, 1, 1.0), ("a", 2, -1, 1.0)]
    part = collapse_compact(_events_table(events))
    assert collapse_finalize(part).num_rows == 0
    # a later state revives the key (net back to +1)
    revived = collapse_compact(
        pa.concat_tables([part, _events_table([("a", 3, 1, 3.0)])])
    )
    fin = collapse_finalize(revived)
    assert fin.to_pylist()[0]["lsn"] == 3
    # an over-cancelled key needs TWO states to revive
    over = collapse_compact(
        pa.concat_tables([part, _events_table([("a", 3, -1, 0.0)])])
    )
    one_state = collapse_compact(
        pa.concat_tables([over, _events_table([("a", 4, 1, 4.0)])])
    )
    assert collapse_finalize(one_state).num_rows == 0  # net 0: still dead


def test_collapse_ddl_validation(tmp_path):
    with pytest.raises(ValueError, match="'sign' column"):
        init_table(str(tmp_path / "a"), FACT_SNAPSHOT_SCHEMA, 2, mode="collapse")
    bad = FACT_SNAPSHOT_SCHEMA.append(pa.field("sign", pa.string()))
    with pytest.raises(ValueError, match="integer 'sign'"):
        init_table(str(tmp_path / "b"), bad, 2, mode="collapse")
    with pytest.raises(ValueError, match="keyed by"):
        init_table(str(tmp_path / "c"), SCHEMA, 2, mode="collapse",
                   key_col="event_id")
    man = init_table(str(tmp_path / "d"), SCHEMA, 2, mode="collapse")
    assert man.mode == "collapse"


# ---------------------------------------------------------------- replay


def _write_segment(wal, first_lsn, rows):
    """rows: list of (doc_id, sign, value)."""
    n = len(rows)
    lsn = np.arange(first_lsn, first_lsn + n, dtype=np.int64)
    t = pa.table(
        {
            "lsn": pa.array(lsn),
            "op": pa.array(["c"] * n, pa.string()),
            "event_id": pa.array([f"ev-{x:08d}" for x in lsn], pa.string()),
            "doc_id": pa.array([r[0] for r in rows], pa.string()),
            "event_ts": pa.array([int(x) * US for x in lsn], pa.timestamp("us")),
            "event_type": pa.array(["state"] * n, pa.string()),
            "value": pa.array([r[2] for r in rows], pa.float64()),
            "sign": pa.array([r[1] for r in rows], pa.int32()),
        }
    )
    os.makedirs(wal, exist_ok=True)
    pq.write_table(t, segment_path(wal, first_lsn, first_lsn + n - 1))
    return first_lsn + n


def _canonical_wal(tmp_path, n_keys=60, n_rounds=6, seed=5, per_seg=40):
    """Canonical CollapsingMergeTree usage: to update, insert a cancel COPY
    of the current state then the new state; to delete, insert the cancel
    only. Interleaved across segments."""
    rng = np.random.default_rng(seed)
    state: dict = {}
    rows = []
    for rnd in range(n_rounds):
        for k in range(n_keys):
            key = f"d{k:03d}"
            act = rng.random()
            if key not in state:
                if act < 0.7:
                    v = float(rng.integers(0, 1000))
                    rows.append((key, 1, v))
                    state[key] = v
            elif act < 0.25:
                rows.append((key, -1, state.pop(key)))  # delete
            elif act < 0.75:
                rows.append((key, -1, state[key]))      # cancel old
                v = float(rng.integers(0, 1000))
                rows.append((key, 1, v))                # new state
                state[key] = v
    wal = str(tmp_path / "wal")
    lsn = 1
    for i in range(0, len(rows), per_seg):
        lsn = _write_segment(wal, lsn, rows[i : i + per_seg])
    return wal, state


def _duck_oracle(wal):
    return duckdb.sql(
        f"""
        SELECT doc_id,
               arg_max(value, lsn) FILTER (sign = 1) AS value,
               max(lsn) FILTER (sign = 1)            AS state_lsn
        FROM read_parquet('{wal}/seg-*.parquet')
        GROUP BY doc_id HAVING sum(sign) > 0
        ORDER BY doc_id
        """
    ).arrow()


def _assert_state(table_dir, wal, expected_state):
    snap = snapshot_table(table_dir)
    want = _duck_oracle(wal)
    assert snap.num_rows == want.num_rows
    assert snap.column("doc_id").to_pylist() == want.column("doc_id").to_pylist()
    assert snap.column("value").to_pylist() == want.column("value").to_pylist()
    assert snap.column("lsn").to_pylist() == want.column("state_lsn").to_pylist()
    # and the generator's own tracked state agrees
    got = dict(zip(snap.column("doc_id").to_pylist(),
                   snap.column("value").to_pylist()))
    assert got == expected_state


def test_collapse_replay_delta_chain_matches_duckdb(ray_session, tmp_path):
    wal, state = _canonical_wal(tmp_path)
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4, schema=SCHEMA, mode="collapse")
    replay(table, wal,
           ApplyConfig(compact_threshold=3, max_segments=2),
           final_compact=False)
    _assert_state(table, wal, state)


def test_collapse_distributed_salted_path(ray_session, tmp_path):
    wal, state = _canonical_wal(tmp_path, seed=9)
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4, schema=SCHEMA, mode="collapse")
    # small_epoch_events=0: distributed epochs; from epoch 2 on, hot_ratio=0
    # salts every partition the previous epoch touched
    stats = replay(table, wal,
                   ApplyConfig(compact_threshold=3, hot_ratio=0.0,
                               salt_factor=4, max_segments=2,
                               small_epoch_events=0),
                   final_compact=False)
    assert any(s.get("hot_pids") for s in stats), "salted path was not exercised"
    _assert_state(table, wal, state)


def test_collapse_compaction_and_reapply(ray_session, tmp_path):
    wal, state = _canonical_wal(tmp_path, seed=13)
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4, schema=SCHEMA, mode="collapse")
    replay(table, wal, ApplyConfig(max_segments=1),
           final_compact=False)
    compact_table(table)
    _assert_state(table, wal, state)
    man = load_manifest(table)
    assert all(len(p["files"]) == 1 for p in man.partitions.values())
    # caught up: re-apply is a no-op
    assert apply_once(table, wal, ApplyConfig()) is None
    # read_snapshot (Dataset path) agrees with the driver path
    ds_rows = read_snapshot(table).take_all()
    assert len(ds_rows) == snapshot_table(table).num_rows


def test_collapse_cancel_revive_across_epochs(ray_session, tmp_path):
    wal = str(tmp_path / "wal")
    nxt = _write_segment(wal, 1, [("a", 1, 10.0), ("b", 1, 20.0)])
    table = str(tmp_path / "t")
    create_table(table, num_partitions=2, schema=SCHEMA, mode="collapse")
    cfg = ApplyConfig(max_segments=1)
    apply_once(table, wal, cfg)
    assert snapshot_table(table).num_rows == 2
    # epoch 2: delete a
    nxt = _write_segment(wal, nxt, [("a", -1, 10.0)])
    apply_once(table, wal, cfg)
    snap = snapshot_table(table)
    assert snap.column("doc_id").to_pylist() == ["b"]
    # compaction must keep a's residual so a revive works
    compact_table(table)
    nxt = _write_segment(wal, nxt, [("a", 1, 30.0)])
    apply_once(table, wal, cfg)
    snap = snapshot_table(table)
    got = dict(zip(snap.column("doc_id").to_pylist(),
                   snap.column("value").to_pylist()))
    assert got == {"a": 30.0, "b": 20.0}


def test_collapse_invalid_sign_fails_loudly(ray_session, tmp_path):
    wal = str(tmp_path / "wal")
    _write_segment(wal, 1, [("a", 2, 1.0)])  # sign=2 is garbage
    table = str(tmp_path / "t")
    create_table(table, num_partitions=2, schema=SCHEMA, mode="collapse")
    with pytest.raises(Exception, match="sign not in"):
        apply_once(table, wal, ApplyConfig())


def test_collapse_rejects_mutations_and_updates(ray_session, tmp_path):
    wal = str(tmp_path / "wal")
    _write_segment(wal, 1, [("a", 1, 1.0)])
    table = str(tmp_path / "t")
    create_table(table, num_partitions=2, schema=SCHEMA, mode="collapse")
    apply_once(table, wal, ApplyConfig())
    with pytest.raises(ValueError, match="cancel"):
        mutate_table(table, "value", lo=0.0, delete=True)


def test_collapse_generator_canonical_stream(ray_session, tmp_path):
    """The seeded generator emits canonical collapse usage (±1 only, cancels
    copy live state) and a full replay matches the DuckDB oracle."""
    from clickhouse_data_pipeline_ray.sources.gen import (
        CollapseGenParams,
        generate_collapse_wal,
    )

    wal = str(tmp_path / "wal")
    generate_collapse_wal(
        wal, CollapseGenParams(total_events=4_000, events_per_segment=1_000,
                               n_docs=300)
    )
    raw = duckdb.sql(
        f"SELECT sign, count(*) AS n FROM read_parquet('{wal}/seg-*.parquet') "
        "GROUP BY sign ORDER BY sign"
    ).fetchall()
    assert {s for s, _ in raw} == {-1, 1}
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4, schema=SCHEMA, mode="collapse")
    replay(table, wal, ApplyConfig(max_segments=1),
           final_compact=False)
    snap = snapshot_table(table)
    want = _duck_oracle(wal)
    assert snap.num_rows == want.num_rows
    assert snap.column("doc_id").to_pylist() == want.column("doc_id").to_pylist()
    assert snap.column("value").to_pylist() == want.column("value").to_pylist()


def test_collapse_epoch_diff_emits_final_state_changes(ray_session, tmp_path):
    """CDC-out over a collapse table must diff FINAL states (alive winners),
    never the partial encoding's residual rows."""
    from clickhouse_data_pipeline_ray.pipelines.diff import table_diff

    wal = str(tmp_path / "wal")
    nxt = _write_segment(wal, 1, [("a", 1, 10.0), ("b", 1, 20.0), ("c", 1, 30.0)])
    table = str(tmp_path / "t")
    create_table(table, num_partitions=2, schema=SCHEMA, mode="collapse")
    cfg = ApplyConfig(max_segments=1)
    apply_once(table, wal, cfg)
    epoch1 = load_manifest(table).epoch
    # epoch 2: delete a, update b (cancel + new state)
    _write_segment(wal, nxt, [("a", -1, 10.0), ("b", -1, 20.0), ("b", 1, 25.0)])
    apply_once(table, wal, cfg)

    d = table_diff(table, epoch1).take_all()
    by_key = {}
    for r in d:
        by_key.setdefault(r["doc_id"], []).append(r)
    assert set(by_key) == {"a", "b"}  # c unchanged: no phantom rows
    assert [r["op"] for r in by_key["a"]] == ["d"]
    b_ops = sorted(r["op"] for r in by_key["b"])
    assert b_ops in (["u"], ["c", "d"], ["u", "u"]) or "u" in b_ops
    b_new = [r for r in by_key["b"] if r["op"] != "d"]
    assert b_new and b_new[0]["value"] == 25.0


# ------------------------------------------- finalized artifact/scorer reads


def test_collapse_artifact_reads_are_finalized(ray_session, tmp_path):
    """Every derived-artifact read path must see FINALIZED collapse state
    (alive winners only) — counting cancelled keys' winner rows or
    null-payload adjustment rows would poison token indexes, model
    partials, quality scores, MV partials, and ANN vectors."""
    from clickhouse_data_pipeline_ray.functions.classifier import (
        score_table_snapshot,
    )
    from clickhouse_data_pipeline_ray.pipelines.mv import _read_dim_columns
    from clickhouse_data_pipeline_ray.stages.merge import read_partition_final

    wal, state = _canonical_wal(tmp_path, seed=21)
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4, schema=SCHEMA, mode="collapse")
    replay(table, wal,
           ApplyConfig(compact_threshold=3, max_segments=2),
           final_compact=False)
    man = load_manifest(table)
    fin = snapshot_table(table)  # finalized truth (matches the DuckDB oracle)
    # the partial encoding really does hold residual rows beyond the
    # finalized state — otherwise this test proves nothing
    raw = pa.concat_tables(
        [pq.read_table(os.path.join(table, f)) for f in man.snapshot_files()]
    )
    assert raw.num_rows > fin.num_rows

    # 1. read_partition_final (shared by classifier/LM/BPE partials and the
    # token-index deriver)
    got = 0
    for pid in man.partitions:
        files = man.partitions[pid].get("files") or []
        if files:
            got += read_partition_final(
                table, files, man.schema, man.mode, man.sum_cols,
                columns=["doc_id", "value"],
            ).num_rows
    assert got == fin.num_rows

    # 2. score_table_snapshot sees finalized rows only
    def make_scorer():
        def score(t: pa.Table) -> pa.Table:
            return pa.table({"n": pa.array([t.num_rows], pa.int64())})
        return score

    n = sum(
        r["n"]
        for r in score_table_snapshot(table, make_scorer, concurrency=1)
        .take_all()
    )
    assert n == fin.num_rows

    # 3. column-pruned MV reads (the same read_partition_final path as MV
    # partials and ANN vector derivation)
    t = _read_dim_columns(table, ["value"])
    assert "sign" in t.column_names  # the fold's merge keys were fetched
    vals = t.column("value").to_pylist()
    assert sorted(vals, key=lambda v: (v is None, v)) == sorted(
        fin.column("value").to_pylist(), key=lambda v: (v is None, v)
    )
    assert None not in vals  # no adjustment-row null payloads leaked
