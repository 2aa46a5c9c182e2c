"""Ledger parts manifest + compaction: probe-identical results before and
after, exact cross-part count merging, atomic manifest switch (orphan parts
invisible), and the pre-manifest listdir fallback."""

import json
import os

import pandas as pd
import pyarrow as pa
import pytest

import ray.data

from clickhouse_data_pipeline_ray.functions.dedup import (
    build_fingerprint_index,
    build_minhash_index,
    compact_ledger,
    fingerprint_bucket_paths,
    incremental_dedup,
    incremental_neardup_dedup,
    read_ledger_meta,
)


def _docs(ids, texts):
    return ray.data.from_arrow(
        pa.table({"doc_id": pa.array(ids), "text": pa.array(texts)})
    )


def _fp_ledger(tmp_path):
    idx = str(tmp_path / "fp")
    build_fingerprint_index(
        _docs([1, 2, 3], ["alpha", "bravo", "alpha"]), idx, part="base",
        num_buckets=4,
    )
    # cross-part duplicate content: "bravo" appears in base AND epoch-1
    build_fingerprint_index(
        _docs([10, 11], ["bravo", "charlie"]), idx, part="epoch-1",
        num_buckets=4,
    )
    return idx


def test_manifest_written_and_governs_reads(ray_session, tmp_path):
    idx = _fp_ledger(tmp_path)
    meta = read_ledger_meta(idx)
    assert meta["parts"] == ["base", "epoch-1"]
    # an orphan dir (crashed compaction) must be invisible to probes
    orphan = os.path.join(idx, "parts", "zz-orphan", "fpb=0")
    os.makedirs(orphan)
    open(os.path.join(orphan, "junk.parquet"), "w").close()
    for b in range(4):
        for p in fingerprint_bucket_paths(idx, b):
            assert "zz-orphan" not in p


def test_compact_fingerprint_merges_counts(ray_session, tmp_path):
    idx = _fp_ledger(tmp_path)
    before = (
        incremental_dedup(_docs([50, 51], ["charlie", "delta"]), idx)
        .to_pandas()
        .sort_values("doc_id")
    )
    out = compact_ledger(idx)
    assert out["compacted"] and out["parts_before"] == 2
    assert read_ledger_meta(idx)["parts"] == ["compacted"]
    assert sorted(os.listdir(os.path.join(idx, "parts"))) == ["compacted"]
    after = (
        incremental_dedup(_docs([50, 51], ["charlie", "delta"]), idx)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert list(before["doc_id"]) == list(after["doc_id"]) == [51]
    # cross-part "bravo" (docs 2 and 10) merged exactly: min key, counts summed
    part = ray.data.read_parquet(os.path.join(idx, "parts", "compacted")).to_pandas()
    assert sorted(part["doc_id"]) == [1, 2, 11]
    assert int(part.set_index("doc_id").loc[2, "n_copies"]) == 2
    assert int(part.set_index("doc_id").loc[1, "n_copies"]) == 2  # in-part dup


def test_compact_minhash_probe_identical(ray_session, tmp_path):
    idx = str(tmp_path / "mh")
    t1 = "the quick brown fox jumps over the lazy dog by the river"
    t2 = "pack my box with five dozen liquor jugs tonight my friend"
    build_minhash_index(_docs([1], [t1]), idx, part="base", num_buckets=4,
                        shingle_k=2)
    build_minhash_index(_docs([2, 1], [t2, t1]), idx, part="epoch-1",
                        num_buckets=4, shingle_k=2)  # doc 1 indexed twice
    inc = _docs([9, 8], [t1, "fresh unrelated content entirely new"])
    _, before = incremental_neardup_dedup(inc, idx, threshold=0.6)
    n_rows_before = sum(
        ray.data.read_parquet(os.path.join(idx, "parts", p)).count()
        for p in read_ledger_meta(idx)["parts"]
    )
    out = compact_ledger(idx)
    assert out["compacted"]
    _, after = incremental_neardup_dedup(inc, idx, threshold=0.6)
    pd.testing.assert_frame_equal(
        before.reset_index(drop=True), after.reset_index(drop=True)
    )
    n_rows_after = ray.data.read_parquet(
        os.path.join(idx, "parts", "compacted")
    ).count()
    assert n_rows_after < n_rows_before  # doc 1's double indexing collapsed


def test_compact_single_part_is_noop(ray_session, tmp_path):
    idx = str(tmp_path / "fp1")
    build_fingerprint_index(_docs([1], ["alpha"]), idx, part="base")
    out = compact_ledger(idx)
    assert out["compacted"] is False and out["parts_before"] == 1
    assert read_ledger_meta(idx)["parts"] == ["base"]


def test_legacy_meta_listdir_fallback(ray_session, tmp_path):
    """A pre-manifest ledger (no 'parts' key) still probes and compacts."""
    idx = _fp_ledger(tmp_path)
    meta = read_ledger_meta(idx)
    del meta["parts"]
    with open(os.path.join(idx, "meta.json"), "w") as f:
        json.dump(meta, f)
    got = incremental_dedup(_docs([50], ["charlie"]), idx).to_pandas()
    assert got.empty  # epoch-1's "charlie" still found via listdir
    out = compact_ledger(idx)
    assert out["compacted"] and read_ledger_meta(idx)["parts"] == ["compacted"]


def test_compact_ledger_of_empty_parts(ray_session, tmp_path):
    """Parts built from empty inputs are empty layouts; compacting a
    ledger of them commits one empty part that still probes."""
    idx = str(tmp_path / "fp")
    empty = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
    )
    build_fingerprint_index(empty, idx, part="base", num_buckets=4)
    build_fingerprint_index(empty, idx, part="epoch-1")
    out = compact_ledger(idx)
    assert out["compacted"] and out["parts_before"] == 2
    assert read_ledger_meta(idx)["parts"] == ["compacted"]
    assert os.listdir(os.path.join(idx, "parts")) == ["compacted"]
    assert incremental_dedup(_docs([5], ["delta"]), idx).count() == 1
