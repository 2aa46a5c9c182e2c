"""Fingerprint ledger (persisted exact-dedup index): build layout and
idempotence, incremental dedup vs a pandas oracle, ledger extension across
epochs, bucket-path pruning, string keys, and empty inputs."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data

from clickhouse_data_pipeline_ray.functions.dedup import (
    build_fingerprint_index,
    fingerprint_bucket_paths,
    incremental_dedup,
    read_fingerprint_meta,
)


def _docs(ids, texts):
    return ray.data.from_arrow(
        pa.table({"doc_id": pa.array(ids), "text": pa.array(texts)})
    )


def _base(tmp_path, num_buckets=8):
    idx = str(tmp_path / "fpidx")
    ds = _docs(
        [10, 11, 12, 13, 14],
        ["alpha", "bravo", "charlie", "alpha", "delta"],  # 13 dups 10
    )
    meta = build_fingerprint_index(ds, idx, part="base", num_buckets=num_buckets)
    return idx, meta


def _oracle(base_texts: list[str], inc: pd.DataFrame) -> pd.DataFrame:
    """Within-batch keep-min + counts, then anti-join against base texts."""
    grouped = (
        inc.groupby("text", as_index=False)
        .agg(doc_id=("doc_id", "min"), n_copies=("doc_id", "size"))
    )
    out = grouped[~grouped["text"].isin(set(base_texts))]
    return out.sort_values("doc_id").reset_index(drop=True)


def test_build_layout_and_meta(ray_session, tmp_path):
    idx, meta = _base(tmp_path)
    assert meta == {
        "num_buckets": 8,
        "key_col": "doc_id",
        "text_col": "text",
        "parts": ["base"],
    }
    assert read_fingerprint_meta(idx) == meta
    parts = os.listdir(os.path.join(idx, "parts"))
    assert parts == ["base"]
    buckets = sorted(os.listdir(os.path.join(idx, "parts", "base")))
    assert all(b.startswith("fpb=") for b in buckets)
    # the ledger content IS the deduped base: 4 distinct texts, min-key wins
    part = ray.data.read_parquet(os.path.join(idx, "parts", "base")).to_pandas()
    assert sorted(part["doc_id"]) == [10, 11, 12, 14]
    assert int(part.set_index("doc_id").loc[10, "n_copies"]) == 2


def test_rebuild_is_idempotent(ray_session, tmp_path):
    idx, _ = _base(tmp_path)
    first = (
        ray.data.read_parquet(os.path.join(idx, "parts", "base"))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    ds = _docs([10, 11, 12, 13, 14], ["alpha", "bravo", "charlie", "alpha", "delta"])
    build_fingerprint_index(ds, idx, part="base")  # same part name = overwrite
    second = (
        ray.data.read_parquet(os.path.join(idx, "parts", "base"))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(first, second)
    assert os.listdir(os.path.join(idx, "parts")) == ["base"]  # no .tmp litter


def test_incremental_dedup_matches_oracle(ray_session, tmp_path):
    idx, _ = _base(tmp_path)
    inc = pd.DataFrame(
        {
            # "alpha"/"delta" collide with the ledger; "echo" dups in-batch;
            # "foxtrot" is fresh and unique
            "doc_id": [20, 21, 22, 23, 24, 25],
            "text": ["alpha", "echo", "echo", "delta", "foxtrot", "echo"],
        }
    )
    got = (
        incremental_dedup(ray.data.from_pandas(inc), idx)
        .to_pandas()[["doc_id", "text", "n_copies"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = _oracle(["alpha", "bravo", "charlie", "delta"], inc)
    assert list(got["doc_id"]) == list(want["doc_id"])
    assert list(got["n_copies"]) == list(want["n_copies"])
    assert list(got["text"]) == list(want["text"])


def test_extend_ledger_across_epochs(ray_session, tmp_path):
    """Feeding survivors back as a new part makes the NEXT increment skip
    them — the new-crawl-per-epoch loop."""
    idx, _ = _base(tmp_path)
    inc1 = _docs([20, 21], ["echo", "foxtrot"])
    surv1 = incremental_dedup(inc1, idx)
    assert sorted(surv1.to_pandas()["doc_id"]) == [20, 21]
    # survivors still carry `fingerprint`; building the part re-derives it
    # from text — same kernel, same answer
    build_fingerprint_index(
        surv1.select_columns(["doc_id", "text"]), idx, part="epoch-1"
    )
    assert sorted(os.listdir(os.path.join(idx, "parts"))) == ["base", "epoch-1"]
    inc2 = _docs([30, 31, 32], ["echo", "golf", "alpha"])
    surv2 = incremental_dedup(inc2, idx).to_pandas()
    assert sorted(surv2["doc_id"]) == [31]  # echo & alpha now in the ledger


def test_bucket_paths_prune_and_skip_tmp(ray_session, tmp_path):
    idx, meta = _base(tmp_path)
    nb = meta["num_buckets"]
    all_paths = [p for b in range(nb) for p in fingerprint_bucket_paths(idx, b)]
    for b in range(nb):
        for p in fingerprint_bucket_paths(idx, b):
            assert f"fpb={b}" in p  # a bucket read never touches another bucket
    # an in-progress (crashed) build must be invisible to readers
    tmp_part = os.path.join(idx, "parts", "epoch-9.tmp", "fpb=0")
    os.makedirs(tmp_part)
    with open(os.path.join(tmp_part, "junk.parquet"), "w") as f:
        f.write("not parquet")
    assert [
        p for b in range(nb) for p in fingerprint_bucket_paths(idx, b)
    ] == all_paths


def test_string_keys(ray_session, tmp_path):
    idx = str(tmp_path / "fpidx")
    base = _docs(["u-b", "u-a", "u-c"], ["alpha", "alpha", "bravo"])
    build_fingerprint_index(base, idx, part="base", num_buckets=4)
    part = ray.data.read_parquet(os.path.join(idx, "parts", "base")).to_pandas()
    assert sorted(part["doc_id"]) == ["u-a", "u-c"]  # min STRING key wins
    inc = _docs(["z-2", "z-1"], ["alpha", "charlie"])
    got = incremental_dedup(inc, idx).to_pandas()
    assert list(got["doc_id"]) == ["z-1"]


def test_empty_increment(ray_session, tmp_path):
    idx, _ = _base(tmp_path)
    empty = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
    )
    assert incremental_dedup(empty, idx).count() == 0


def test_num_buckets_pinned_by_first_build(ray_session, tmp_path):
    """A later part ignores a mismatched num_buckets argument — every part
    must bucket identically or incremental reads would miss fingerprints."""
    idx, _ = _base(tmp_path, num_buckets=8)
    build_fingerprint_index(
        _docs([50], ["hotel"]), idx, part="epoch-1", num_buckets=64
    )
    assert read_fingerprint_meta(idx)["num_buckets"] == 8
    got = incremental_dedup(_docs([60], ["hotel"]), idx).to_pandas()
    assert got.empty  # found in the ledger despite the bogus argument


def test_extend_with_zero_survivors(ray_session, tmp_path):
    """An increment the ledger already holds leaves zero survivors;
    extending the ledger with them commits an empty part, and the ledger
    probes exactly as before."""
    idx, _ = _base(tmp_path)

    def probe() -> pd.DataFrame:
        inc = _docs([30, 31, 32], ["alpha", "golf", "charlie"])
        return incremental_dedup(inc, idx).to_pandas().sort_values("doc_id")

    before = probe()
    surv = incremental_dedup(_docs([20, 21], ["bravo", "delta"]), idx)
    assert surv.count() == 0
    meta = build_fingerprint_index(
        surv.select_columns(["doc_id", "text"]), idx, part="p2"
    )
    assert meta["parts"] == ["base", "p2"] == read_fingerprint_meta(idx)["parts"]
    assert sorted(os.listdir(os.path.join(idx, "parts"))) == ["base", "p2"]
    pd.testing.assert_frame_equal(probe(), before)
