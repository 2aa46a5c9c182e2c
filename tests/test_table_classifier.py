"""Incremental NB classifier over a committed table.

Contracts pinned here:
- the composed model from per-partition partials is BITWISE equal (integer
  counts, float32 weights) to a one-pass retrain over the merged snapshot
  at the same epoch;
- a refresh after new apply epochs re-derives ONLY the partitions whose
  manifest file chains changed, leaves other partials untouched on disk,
  and still composes equal to a full retrain (updates + deletes included);
- hyperparameter changes force a full rebuild;
- the token featurizer matches a per-row Python recompute;
- classify_table scores the exact merged snapshot rows.
"""

import os

import numpy as np
import pyarrow as pa
import pytest

from clickhouse_data_pipeline_ray.functions.classifier import (
    _GOLDEN,
    _featurize_token_lists,
    classify_table,
    load_table_model,
    refresh_table_classifier,
    train_nb,
)
from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    apply_once,
    create_table,
    snapshot_table,
)
from clickhouse_data_pipeline_ray.sources.gen import GenParams, generate_wal

from .helpers import force_ray_venue

PARAMS = GenParams(
    total_events=4_000, base_events=1_500, events_per_segment=1_000, seed=43,
    tok_min=4, tok_max=48, mix=(0.3, 0.55, 0.15),
)
CFG = ApplyConfig(max_segments=2, salt_factor=1, small_epoch_events=0)
DIM = 1 << 12


def _build(wal_dir, table_dir):
    generate_wal(wal_dir, PARAMS)
    create_table(table_dir, num_partitions=8)
    assert apply_once(table_dir, wal_dir, CFG) is not None  # epoch 1
    return table_dir, wal_dir


@pytest.fixture(scope="module")
def table(ray_session, tmp_path_factory):
    return _build(
        str(tmp_path_factory.mktemp("wal")),
        str(tmp_path_factory.mktemp("tbl") / "t"),
    )


def _retrain_from_snapshot(ray, table_dir):
    import ray.data as rd

    snap = snapshot_table(table_dir).select(["tokens", "source"])
    return train_nb(
        rd.from_arrow(snap).repartition(4),
        label_col="source",
        text_col="tokens",
        dim=DIM,
    )


def _assert_models_equal(a, b):
    assert a.classes == b.classes
    np.testing.assert_array_equal(a.doc_counts, b.doc_counts)
    np.testing.assert_array_equal(a.feature_counts, b.feature_counts)
    np.testing.assert_array_equal(a.log_lik, b.log_lik)
    np.testing.assert_array_equal(a.log_prior, b.log_prior)
    assert a.feature_kind == b.feature_kind == "tokens"


def test_token_featurizer_matches_python(ray_session):
    col = pa.array(
        [[3, 0, 3], [7], None, []], pa.list_(pa.int32())
    )
    buckets, rows, lens = _featurize_token_lists(col, DIM, bigrams=True)
    g, mask = int(_GOLDEN), (1 << 64) - 1
    want_b, want_r = [], []
    for r, toks in enumerate([[3, 0, 3], [7], [], []]):
        h = [((t + 1) * g) & mask for t in toks]
        for x in h:
            want_b.append(x % DIM)
            want_r.append(r)
    for r, toks in enumerate([[3, 0, 3], [7], [], []]):
        h = [((t + 1) * g) & mask for t in toks]
        for i in range(len(h) - 1):
            want_b.append((((h[i] * g) & mask) ^ h[i + 1]) % DIM)
            want_r.append(r)
    # kernel orders unigrams-then-bigrams too; compare as multisets per row
    got = sorted(zip(rows.tolist(), buckets.tolist()))
    assert got == sorted(zip(want_r, want_b))
    assert lens.tolist() == [3, 1, 0, 0]


def test_build_composes_equal_to_retrain(ray_session, table, tmp_path):
    table_dir, _ = table
    mdir = str(tmp_path / "clf")
    meta = refresh_table_classifier(table_dir, mdir, dim=DIM)
    assert len(meta["refreshed_pids"]) == 8  # first build derives every pid
    composed = load_table_model(mdir)
    _assert_models_equal(composed, _retrain_from_snapshot(ray_session, table_dir))
    # distributed compose path identical
    _assert_models_equal(composed, load_table_model(mdir, driver_limit=0))


def test_incremental_refresh_prunes_and_stays_exact(ray_session, table, tmp_path):
    table_dir, wal_dir = table
    mdir = str(tmp_path / "clf")
    refresh_table_classifier(table_dir, mdir, dim=DIM)

    untouched_mtimes = {
        d: os.path.getmtime(os.path.join(mdir, "partials", d))
        for d in os.listdir(os.path.join(mdir, "partials"))
    }
    # advance the table (updates + deletes in the generated mix)
    assert apply_once(table_dir, wal_dir, CFG) is not None

    from clickhouse_data_pipeline_ray.pipelines.diff import changed_partitions
    from clickhouse_data_pipeline_ray.state.manifest import load_manifest

    man = load_manifest(table_dir)
    changed = {
        str(c["pid"])
        for c in changed_partitions(table_dir, man.epoch - 1, man.epoch)
    }
    meta = refresh_table_classifier(table_dir, mdir, dim=DIM)
    assert set(meta["refreshed_pids"]) == changed
    assert changed and len(changed) <= 8
    for d, mt in untouched_mtimes.items():
        pid = d.split("=", 1)[-1]
        if pid not in changed:
            assert os.path.getmtime(os.path.join(mdir, "partials", d)) == mt
    _assert_models_equal(
        load_table_model(mdir), _retrain_from_snapshot(ray_session, table_dir)
    )
    # idempotent: nothing left to refresh, model unchanged
    again = refresh_table_classifier(table_dir, mdir, dim=DIM)
    assert again["refreshed_pids"] == []


def test_incremental_refresh_prunes_and_stays_exact_ray_venue(ray_session, tmp_path, monkeypatch):
    """The same refresh with every per-pid derive in the Ray Data venue."""
    force_ray_venue(monkeypatch)
    fresh = _build(str(tmp_path / "wal"), str(tmp_path / "t"))
    test_incremental_refresh_prunes_and_stays_exact(ray_session, fresh, tmp_path)


def test_hyperparameter_change_forces_rebuild(ray_session, table, tmp_path):
    table_dir, _ = table
    mdir = str(tmp_path / "clf")
    refresh_table_classifier(table_dir, mdir, dim=DIM)
    meta = refresh_table_classifier(table_dir, mdir, dim=DIM, bigrams=False)
    assert len(meta["refreshed_pids"]) == 8
    m = load_table_model(mdir)
    assert m.bigrams is False
    import ray.data as rd

    _retrained = train_nb(
        rd.from_arrow(snapshot_table(table_dir).select(["tokens", "source"])),
        label_col="source",
        text_col="tokens",
        dim=DIM,
        bigrams=False,
    )
    np.testing.assert_array_equal(m.feature_counts, _retrained.feature_counts)


def test_classify_table_scores_snapshot(ray_session, table, tmp_path):
    table_dir, _ = table
    mdir = str(tmp_path / "clf")
    refresh_table_classifier(table_dir, mdir, dim=DIM)
    model = load_table_model(mdir)
    out = pa.concat_tables(
        ray_session.get(r)
        for r in classify_table(table_dir, model, positive=model.classes[0])
        .materialize()
        .to_arrow_refs()
    )
    snap = snapshot_table(table_dir)
    assert out.num_rows == snap.num_rows
    assert set(out.column("doc_id").to_pylist()) == set(
        snap.column("doc_id").to_pylist()
    )
    assert set(out.column("pred_label").to_pylist()) <= set(model.classes)
    p = out.column("p_positive").to_numpy()
    assert np.all((p >= 0) & (p <= 1))


def test_kind_mismatch_rejected(ray_session, table, tmp_path):
    table_dir, _ = table
    mdir = str(tmp_path / "clf")
    refresh_table_classifier(table_dir, mdir, dim=DIM)
    model = load_table_model(mdir)  # tokens-trained
    from clickhouse_data_pipeline_ray.functions.classifier import NBScorer

    scorer = NBScorer(payload=model.payload())
    with pytest.raises(ValueError, match="trained on 'tokens'"):
        scorer(pa.table({"text": pa.array(["a b"])}))


def test_crashed_rebuild_state_recovers(ray_session, table, tmp_path):
    """A crashed full rebuild leaves partials WITHOUT meta.json (meta is
    invalidated first) — the next refresh must full-rebuild, never trust
    mixed-hyperparameter partials."""
    table_dir, _ = table
    mdir = str(tmp_path / "clf")
    refresh_table_classifier(table_dir, mdir, dim=DIM)
    os.remove(os.path.join(mdir, "meta.json"))  # the crashed-rebuild state
    meta = refresh_table_classifier(table_dir, mdir, dim=DIM)
    assert len(meta["refreshed_pids"]) == 8  # full rebuild, not incremental
    _assert_models_equal(
        load_table_model(mdir), _retrain_from_snapshot(ray_session, table_dir)
    )


def test_model_save_crash_leaves_previous_loadable(ray_session, table, tmp_path):
    """Simulate a crash between the two renames of commit_model_dir: the
    previous model survives at path.old and load() falls back to it."""
    from clickhouse_data_pipeline_ray.functions.classifier import NBModel

    table_dir, _ = table
    mdir = str(tmp_path / "clf")
    refresh_table_classifier(table_dir, mdir, dim=DIM)
    model = load_table_model(mdir)
    saved = str(tmp_path / "saved")
    model.save(saved)
    # crash window: old moved aside, new never renamed in
    os.rename(saved, saved + ".old")
    loaded = NBModel.load(saved)
    np.testing.assert_array_equal(loaded.log_lik, model.log_lik)
