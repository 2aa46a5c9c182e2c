"""Answer-level equivalence of every table-derived artifact across two
engine checkouts.

Two tables, built as the per-kind tests build them: a token table
(``tests/test_table_classifier.py``'s WAL: inserts, updates and deletes)
carries the BM25 token index, the NB classifier, the n-gram LM, BPE word
counts and an upsert MV; an embedding table (``tests/test_table_ann.py``'s
shape, with an update/delete segment per epoch) carries the ANN index.
Steps: first build, two more apply epochs, ``compact_table``,
``mutate_table`` (a delete of a few rows), ``repartition_table``. After
every step each artifact is refreshed and the script records its query
answers (``bm25_table_index_topk``, ``ann_table_index_topk``), composed
model arrays (``load_table_model``, ``load_table_lm``, ``load_table_bpe``
merges), the ``read_mv`` table and how many pids the refresh re-derived.

Run each side from its own checkout directory: Ray workers import the
package from the driver's working directory.

    cd <checkout A> && PYTHONPATH=. python <this file> run OUT_A
    cd <checkout B> && PYTHONPATH=. python <this file> run OUT_B [--ray-venue]
    python <this file> compare OUT_A OUT_B

``--ray-venue`` sets the maintenance budget to 0 bytes, so a checkout
with the shared refresh derives every partial on Ray workers (the
partition runner's tasks).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

DIM = 16


def _emb_segment(wal: str, lsn0: int, keys: list[str], vecs, deletes=()) -> int:
    from clickhouse_data_pipeline_ray.sources.wal import segment_path

    rows = [(k, v) for k, v in zip(keys, vecs)] + [(k, None) for k in deletes]
    lsns = list(range(lsn0, lsn0 + len(rows)))
    pq.write_table(pa.table({
        "lsn": pa.array(lsns, pa.int64()),
        "op": pa.array(["d" if v is None else "c" for _, v in rows]),
        "doc_id": pa.array([k for k, _ in rows]),
        "embedding": pa.array(
            [None if v is None else v.tolist() for _, v in rows],
            pa.list_(pa.float32()),
        ),
    }), segment_path(wal, lsns[0], lsns[-1]))
    return lsn0 + len(rows)


def _tables(work: str):
    from clickhouse_data_pipeline_ray.pipelines.apply import create_table
    from clickhouse_data_pipeline_ray.sources.gen import GenParams, generate_wal

    docs_wal = os.path.join(work, "wal_docs")
    generate_wal(docs_wal, GenParams(
        total_events=4_000, base_events=1_500, events_per_segment=1_000, seed=43,
        tok_min=4, tok_max=48, mix=(0.3, 0.55, 0.15)))
    docs = os.path.join(work, "docs")
    create_table(docs, num_partitions=8)

    emb_wal = os.path.join(work, "wal_emb")
    os.makedirs(emb_wal)
    rng = np.random.default_rng(1)
    vecs = rng.normal(size=(400, DIM)).astype(np.float32)
    lsn = _emb_segment(emb_wal, 1, [f"d{i:04d}" for i in range(400)], vecs)
    for e in range(2):  # one update + delete segment per later epoch
        upd = [f"d{i:04d}" for i in range(e * 40, e * 40 + 20)]
        lsn = _emb_segment(emb_wal, lsn, upd,
                           rng.normal(size=(20, DIM)).astype(np.float32),
                           deletes=[f"d{i:04d}" for i in range(300 + e * 10, 310 + e * 10)])
    emb = os.path.join(work, "emb")
    create_table(emb, schema=pa.schema([
        pa.field("lsn", pa.int64()),
        pa.field("doc_id", pa.string()),
        pa.field("embedding", pa.list_(pa.float32())),
    ]), num_partitions=6)
    return (docs, docs_wal), (emb, emb_wal), vecs


def _answers(docs: str, emb: str, work: str, qvecs) -> dict:
    from clickhouse_data_pipeline_ray.functions.bpe import (
        load_table_bpe,
        refresh_table_bpe,
    )
    from clickhouse_data_pipeline_ray.functions.classifier import (
        load_table_model,
        refresh_table_classifier,
    )
    from clickhouse_data_pipeline_ray.functions.lm import load_table_lm, refresh_table_lm
    from clickhouse_data_pipeline_ray.functions.retrieval import (
        bm25_table_index_topk,
        refresh_table_token_index,
    )
    from clickhouse_data_pipeline_ray.functions.similarity import (
        ann_table_index_topk,
        refresh_table_ann_index,
    )
    from clickhouse_data_pipeline_ray.pipelines.mv import read_mv, refresh_mv

    d = lambda name: os.path.join(work, name)  # noqa: E731
    out = {}
    r = refresh_table_token_index(docs, d("tok"), num_buckets=16)
    out["tokens"] = {
        "refreshed": len(r["refreshed_pids"]),
        "topk": [bm25_table_index_topk(d("tok"), q, k=10).to_pylist()
                 for q in ([1, 2, 3], [7, 11, 13, 17], list(range(40, 60)))],
    }
    r = refresh_table_ann_index(emb, d("ann"), n_centroids=4)
    out["ann"] = {
        "refreshed": len(r["refreshed_pids"]),
        "topk": [ann_table_index_topk(d("ann"), qvecs, [f"q{i}" for i in range(len(qvecs))],
                                      k=5, nprobe=p).values.tolist() for p in (1, 4)],
    }
    r = refresh_table_classifier(docs, d("clf"), dim=1 << 12)
    m = load_table_model(d("clf"))
    out["classifier"] = {
        "refreshed": len(r["refreshed_pids"]), "classes": m.classes,
        **{a: getattr(m, a).tolist()
           for a in ("doc_counts", "feature_counts", "log_lik", "log_prior")},
    }
    r = refresh_table_lm(docs, d("lm"), dim_u=1 << 10, dim_b=1 << 12)
    lm = load_table_lm(d("lm"))
    out["lm"] = {"refreshed": len(r["refreshed_pids"]), "n_tokens": lm.n_tokens,
                 "uni": lm.uni.tolist(), "bi": lm.bi.tolist()}
    r = refresh_table_bpe(docs, d("bpe"), text_col="source")
    out["bpe"] = {"refreshed": len(r["refreshed_pids"]),
                  "merges": load_table_bpe(d("bpe"), num_merges=20, min_count=1).merges}
    tick = refresh_mv(docs, None, "by_source")
    out["mv"] = {"refreshed": tick and tick["changed_pids"],
                 "view": read_mv(docs, "by_source").to_pylist()}
    return out


def run(out: str, ray_venue: bool = False) -> None:
    import ray

    from clickhouse_data_pipeline_ray.pipelines import apply as apply_mod
    from clickhouse_data_pipeline_ray.pipelines.apply import (
        ApplyConfig,
        apply_once,
        compact_table,
        mutate_table,
        repartition_table,
    )
    from clickhouse_data_pipeline_ray.pipelines.mv import register_mv

    if ray_venue:
        apply_mod.COMPACT_DRIVER_BYTES = 0
    ray.init(num_cpus=2, include_dashboard=False, logging_level="ERROR")
    work = tempfile.mkdtemp(prefix="artifact_equiv_")
    try:
        (docs, docs_wal), (emb, emb_wal), vecs = _tables(work)
        register_mv(docs, "by_source", group_keys=["source"],
                    sums=[{"col": "n_tok", "scale": 1, "name": "sum_n_tok"}],
                    count_col="n_docs", maxs=[{"col": "lsn", "name": "max_lsn"}])
        cfg = ApplyConfig(max_segments=1, salt_factor=1, small_epoch_events=0)
        qvecs = vecs[::50].astype(np.float64)
        log = []
        for step in ("build", "apply2", "apply3", "compact", "mutate", "repartition"):
            if step in ("build", "apply2", "apply3"):
                for table, wal in ((docs, docs_wal), (emb, emb_wal)):
                    assert apply_once(table, wal, cfg) is not None
            elif step == "compact":
                compact_table(docs)
                compact_table(emb)
            elif step == "mutate":
                mutate_table(docs, "lsn", lo=800, hi=803, delete=True)
                mutate_table(emb, "doc_id", lo="d0100", hi="d0102", delete=True)
            else:
                repartition_table(docs, 5)
                repartition_table(emb, 4)
            log.append({"step": step, **_answers(docs, emb, work, qvecs)})
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        with open(out, "w") as f:
            json.dump(log, f)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        ray.shutdown()


def compare(a: str, b: str) -> int:
    la, lb = (json.load(open(p)) for p in (a, b))
    bad = int(len(la) != len(lb))
    for sa, sb in zip(la, lb):
        row = []
        for kind in ("tokens", "ann", "classifier", "lm", "bpe", "mv"):
            same = sa[kind] == sb[kind]
            bad += not same
            row.append(f"{kind}={'equal' if same else 'DIFFERENT'}"
                       f"({sa[kind]['refreshed']}/{sb[kind]['refreshed']})")
        print(f"{sa['step']:12s} " + " ".join(row))
    print("ALL EQUAL" if not bad else f"{bad} DIFFERENCES")
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1] == "run":
        run(sys.argv[2], ray_venue="--ray-venue" in sys.argv[3:])
    else:
        sys.exit(compare(sys.argv[2], sys.argv[3]))
