"""The benchmark's tracing hooks keep working against the engine.

``perfbench/trace.py`` subclasses ``stages.merge.MergeApply`` and
``stages.merge.CompactWorker`` and swaps them in at the names the apply and
compaction drivers resolve at call time. This runs one driver-side
micro-epoch and one driver-side compaction under the tracer (no Ray worker,
so every span lands in the tracer's memory) and checks that both layers
report their spans and the table still matches the oracle."""

from clickhouse_data_pipeline_ray.pipelines import apply as apply_mod
from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    apply_once,
    compact_table,
    create_table,
    snapshot_table,
)
from clickhouse_data_pipeline_ray.sources.gen import GenParams, generate_wal
from clickhouse_data_pipeline_ray.stages import merge as merge_mod
from perfbench.trace import Tracer

from .helpers import assert_snapshots_equal, replay_oracle


def test_trace_hooks_record_merge_and_compact_spans(tmp_path):
    wal, table = str(tmp_path / "wal"), str(tmp_path / "t")
    generate_wal(
        wal,
        GenParams(
            total_events=400, base_events=200, events_per_segment=200, seed=3,
            mix=(0.3, 0.55, 0.15), tok_min=4, tok_max=16,
        ),
    )
    create_table(table, num_partitions=4)
    cfg = ApplyConfig(max_segments=1)
    # epoch 1 writes each partition's first snapshot; the traced epoch 2
    # then extends the chains with deltas for the compaction to fold
    assert apply_once(table, wal, cfg) is not None

    originals = (apply_mod.MergeApply, merge_mod.CompactWorker)
    tracer = Tracer(str(tmp_path / "trace"))
    tracer.install()
    try:
        stats = apply_once(table, wal, cfg)
        assert stats is not None and stats["events_applied"] == 200
        assert compact_table(table)["partitions_compacted"] > 0
    finally:
        tracer.uninstall()
    assert (apply_mod.MergeApply, merge_mod.CompactWorker) == originals

    spans = tracer.collect()
    merges = [s for s in spans if s["name"] == "merge"]
    compacts = [s for s in spans if s["name"] == "compact"]
    assert merges and compacts
    for s in merges:
        assert 0 <= s["pid"] < 4
        assert s["bytes"] > 0 if s["applied"] else s["bytes"] == 0
    assert any(s["applied"] and not s["compaction"] for s in merges)
    assert sum(s["pids"] for s in compacts) > 0
    assert all(s["bytes"] > 0 for s in compacts)

    assert_snapshots_equal(snapshot_table(table), replay_oracle(wal))
