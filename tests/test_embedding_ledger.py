"""Embedding ledger (persisted cosine near-dup index): build/pinning, probe
correctness vs brute force through the same blocking, guaranteed recall for
identical vectors, epoch extension, cap accounting, empty input."""

import json
import os

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from clickhouse_data_pipeline_ray.functions.dedup import (
    HyperplaneLSH,
    build_embedding_index,
    embedding_bucket_paths,
    incremental_embdup_dedup,
)

DIM = 16
rng = np.random.default_rng(42)
BASE = {i: rng.standard_normal(DIM).tolist() for i in range(10, 16)}


def _vecs(d: dict):
    return ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(list(d)),
                "embedding": pa.array(list(d.values()), pa.list_(pa.float64())),
            }
        )
    )


def _ledger(tmp_path, **kw):
    idx = str(tmp_path / "embidx")
    meta = build_embedding_index(_vecs(BASE), idx, part="base", **kw)
    return idx, meta


def _brute_hits(meta, inc: dict, threshold: float) -> set:
    """Truth through the SAME single-band blocking: equal LSH signature AND
    exact cosine >= threshold."""
    h = HyperplaneLSH(dim=meta["dim"], n_planes=meta["n_planes"], seed=meta["seed"])

    def sig(v):
        bits = (np.asarray(v) @ h.planes) > 0
        return int((bits * (1 << np.arange(len(bits)))).sum())

    def cos(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    return {
        (ik, bk)
        for ik, iv in inc.items()
        for bk, bv in BASE.items()
        if sig(iv) == sig(bv) and cos(iv, bv) >= threshold
    }


def test_build_pins_params_and_layout(ray_session, tmp_path):
    idx, meta = _ledger(tmp_path, num_buckets=8, n_planes=6, seed=7)
    assert meta["dim"] == DIM and meta["n_planes"] == 6
    build_embedding_index(
        _vecs({99: rng.standard_normal(DIM).tolist()}), idx, part="epoch-1",
        n_planes=12, seed=1, num_buckets=64,
    )
    with open(os.path.join(idx, "meta.json")) as f:
        got = json.load(f)
    assert got["n_planes"] == 6 and got["num_buckets"] == 8  # first build wins
    for b in range(8):
        for p in embedding_bucket_paths(idx, b):
            assert f"ebk={b}" in p


def test_identical_vector_always_hits(ray_session, tmp_path):
    idx, _ = _ledger(tmp_path, num_buckets=8, n_planes=6)
    inc = {20: BASE[10], 21: rng.standard_normal(DIM).tolist()}
    surv, hits = incremental_embdup_dedup(_vecs(inc), idx, threshold=0.95)
    assert (20, 10) in set(zip(hits["doc_id"], hits["corpus_id"]))
    assert float(
        hits.set_index(["doc_id", "corpus_id"]).loc[(20, 10), "cosine"]
    ) == pytest.approx(1.0)
    got = sorted(surv.to_pandas()["vec_id"])
    assert 20 not in got and 21 in got


def test_hits_match_brute_force(ray_session, tmp_path):
    idx, meta = _ledger(tmp_path, num_buckets=8, n_planes=4)
    inc = {
        30: BASE[11],
        31: (np.asarray(BASE[12]) + 0.05 * rng.standard_normal(DIM)).tolist(),
        32: rng.standard_normal(DIM).tolist(),
        33: (np.asarray(BASE[13]) * 2.5).tolist(),  # scaled: cosine 1.0
    }
    _, hits = incremental_embdup_dedup(_vecs(inc), idx, threshold=0.9)
    got = {(a, b) for a, b in zip(hits["doc_id"], hits["corpus_id"])}
    assert got == _brute_hits(meta, inc, 0.9)
    assert hits.attrs["capped"] == 0


def test_extend_across_epochs(ray_session, tmp_path):
    idx, _ = _ledger(tmp_path, num_buckets=8, n_planes=6)
    fresh = rng.standard_normal(DIM).tolist()
    surv1, hits1 = incremental_embdup_dedup(_vecs({40: fresh}), idx, threshold=0.95)
    assert hits1.empty and surv1.count() == 1
    build_embedding_index(
        surv1.select_columns(["vec_id", "embedding"]), idx, part="epoch-1"
    )
    surv2, hits2 = incremental_embdup_dedup(
        _vecs({41: fresh, 42: rng.standard_normal(DIM).tolist()}), idx,
        threshold=0.95,
    )
    assert (41, 40) in set(zip(hits2["doc_id"], hits2["corpus_id"]))
    assert sorted(surv2.to_pandas()["vec_id"]) == [42]


def test_cap_is_counted(ray_session, tmp_path):
    idx = str(tmp_path / "embidx")
    v = rng.standard_normal(DIM).tolist()
    build_embedding_index(
        _vecs({k: v for k in range(100, 108)}), idx, part="base",
        num_buckets=4, n_planes=6,
    )
    _, hits = incremental_embdup_dedup(
        _vecs({1: v}), idx, threshold=0.95, max_per_sig=1
    )
    assert hits.attrs["capped"] > 0 and len(hits) == 1


def test_empty_increment(ray_session, tmp_path):
    idx, _ = _ledger(tmp_path, num_buckets=8)
    empty = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array([], pa.int64()),
                "embedding": pa.array([], pa.list_(pa.float64())),
            }
        )
    )
    surv, hits = incremental_embdup_dedup(empty, idx, threshold=0.9)
    assert hits.empty and surv.count() == 0


def test_extend_with_zero_survivors(ray_session, tmp_path):
    """Every incoming vector already in the ledger: zero survivors extend
    it with an empty part, and the ledger probes exactly as before."""
    idx, _ = _ledger(tmp_path, num_buckets=8, n_planes=6)
    fresh = np.random.default_rng(3).standard_normal(DIM).tolist()

    def probe():
        surv, hits = incremental_embdup_dedup(
            _vecs({50: BASE[10], 51: fresh, 52: BASE[14]}), idx, threshold=0.95
        )
        return sorted(surv.to_pandas()["vec_id"]), hits

    surv_before, hits_before = probe()
    surv, hits = incremental_embdup_dedup(
        _vecs({60: BASE[11], 61: BASE[12]}), idx, threshold=0.95
    )
    assert surv.count() == 0 and len(hits) == 2
    meta = build_embedding_index(
        surv.select_columns(["vec_id", "embedding"]), idx, part="p2"
    )
    assert meta["parts"] == ["base", "p2"]
    surv_after, hits_after = probe()
    assert surv_after == surv_before == [51]
    assert hits_after.equals(hits_before) and hits_after.attrs == hits_before.attrs
