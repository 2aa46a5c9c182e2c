"""Answer- and layout-level equivalence of the six standalone bucketed
indexes across two engine checkouts.

The stores: the fingerprint, MinHash and embedding dedup ledgers
(``functions/dedup.py``), the BM25 text index (``functions/retrieval.py``)
and the IVF and PQ indexes (``functions/similarity.py``), all over
sf0.001's documents and embeddings. ``build`` builds each store, extends
it (ledgers: a second part from an increment's survivors; whole-store
indexes: a rebuild over the full corpus), compacts each ledger, and
records after every step the survivors, the hits frames (with
``attrs['capped']``), the top-k answers, each store's meta and its layout
(parquet rows and file count per directory, other files by name).
``probe`` records only the final answers over stores another checkout
built, so each side can read the other's stores. A zero-survivor extend is
left out: the parent fails it (its regression tests cover it).

Run each side from its own checkout directory: Ray workers import the
package from the driver's working directory.

    cd <checkout A> && PYTHONPATH=. python <this file> build STORES_A A.json
    cd <checkout B> && PYTHONPATH=. python <this file> build STORES_B B.json
    cd <checkout A> && PYTHONPATH=. python <this file> probe STORES_B A_on_B.json
    cd <checkout B> && PYTHONPATH=. python <this file> probe STORES_A B_on_A.json
    python <this file> compare A.json B.json A_on_B.json B_on_A.json
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pyarrow.parquet as pq

QUERIES = ["merge", "customer join", "window stream filter", "sort", "nothing-matches"]
LEDGERS = ("fingerprint", "minhash", "embedding")


def _sf(table: str) -> str:
    """A table of the CLI's default testdata scale factor (sf0.001)."""
    from clickhouse_data_pipeline_ray.cli import SF_DIR

    return f"{SF_DIR[1]['default']}/{table}.parquet"


def _rows(path: str, lo: int, hi: int, cols: list[str]):
    import ray.data

    t = pq.read_table(path, columns=cols).slice(lo, hi - lo)
    return ray.data.from_arrow(t)


def _hits(hits) -> dict:
    return {"rows": hits.astype(object).values.tolist(),
            "columns": list(hits.columns), "capped": int(hits.attrs["capped"])}


def _layout(root: str) -> dict:
    out = {}
    for d, _, names in os.walk(root):
        rel = os.path.relpath(d, root)
        pq_files = [n for n in names if n.endswith(".parquet")]
        if pq_files:
            out[rel] = {"files": len(pq_files), "rows": sum(
                pq.read_metadata(os.path.join(d, n)).num_rows for n in pq_files)}
        for n in names:
            if not n.endswith(".parquet"):
                meta = n == "meta.json"
                out[os.path.join(rel, n)] = (
                    json.load(open(os.path.join(d, n))) if meta else "present")
    return out


def _probe(stores: str) -> dict:
    """Read-only answers of every store under ``stores``."""
    from clickhouse_data_pipeline_ray.functions import dedup
    from clickhouse_data_pipeline_ray.functions.retrieval import bm25_index_topk
    from clickhouse_data_pipeline_ray.functions.similarity import (
        ivf_index_topk,
        pq_index_topk,
    )

    d = lambda name: os.path.join(stores, name)  # noqa: E731
    docs = _rows(_sf("documents"), 350, 500, ["doc_id", "text"])
    embs = _rows(_sf("embeddings"), 350, 500, ["vec_id", "embedding"])
    surv = dedup.incremental_dedup(docs, d("fingerprint")).to_pandas()
    out = {"fingerprint": sorted(map(list, zip(surv["doc_id"], surv["n_copies"])))}
    for cap in (512, 1):
        s, h = dedup.incremental_neardup_dedup(docs, d("minhash"), threshold=0.5,
                                               max_per_hash=cap)
        out[f"minhash/cap={cap}"] = {"survivors": sorted(s.to_pandas()["doc_id"]),
                                     "hits": _hits(h)}
        s, h = dedup.incremental_embdup_dedup(embs, d("embedding"), threshold=0.9,
                                              max_per_sig=cap)
        out[f"embedding/cap={cap}"] = {"survivors": sorted(s.to_pandas()["vec_id"]),
                                       "hits": _hits(h)}
    out["text"] = [bm25_index_topk(d("text"), q, k=5).to_pylist() for q in QUERIES]
    qv = np.stack(pq.read_table(_sf("embeddings"), columns=["embedding"]).column("embedding")
                  .to_numpy(zero_copy_only=False)[::37]).astype(np.float64)
    qids = list(range(len(qv)))
    out["ivf"] = [ivf_index_topk(d("ivf"), qv, qids, k=5, nprobe=p).values.tolist()
                  for p in (1, 3)]
    out["pq"] = [pq_index_topk(d("pq"), qv, qids, k=5, nprobe=2, rerank=r,
                               source=_sf("embeddings") if r else None).values.tolist()
                 for r in (0, 20)]
    return out


def build(stores: str, out: str) -> None:
    from clickhouse_data_pipeline_ray.functions import dedup
    from clickhouse_data_pipeline_ray.functions.retrieval import build_text_index
    from clickhouse_data_pipeline_ray.functions.similarity import (
        build_ivf_index,
        build_pq_index,
    )

    d = lambda name: os.path.join(stores, name)  # noqa: E731
    log = []

    def record(step: str, **answers) -> None:
        log.append({"step": step, **answers,
                    "layout": {s: _layout(d(s)) for s in sorted(os.listdir(stores))}})

    base_docs = lambda: _rows(_sf("documents"), 0, 300, ["doc_id", "text"])  # noqa: E731
    inc_docs = lambda: _rows(_sf("documents"), 250, 400, ["doc_id", "text"])  # noqa: E731
    base_embs = lambda: _rows(_sf("embeddings"), 0, 300, ["vec_id", "embedding"])  # noqa: E731
    inc_embs = lambda: _rows(_sf("embeddings"), 250, 400, ["vec_id", "embedding"])  # noqa: E731

    dedup.build_fingerprint_index(base_docs(), d("fingerprint"), num_buckets=8)
    dedup.build_minhash_index(base_docs(), d("minhash"), num_buckets=8)
    dedup.build_embedding_index(base_embs(), d("embedding"), num_buckets=8, n_planes=6)
    build_text_index(base_docs(), d("text"), num_buckets=16)
    build_ivf_index(base_embs(), d("ivf"), n_centroids=8)
    build_pq_index(base_embs(), d("pq"), n_centroids=4, m=4, ksub=16)
    record("build")

    surv = dedup.incremental_dedup(inc_docs(), d("fingerprint")).materialize()
    dedup.build_fingerprint_index(surv.select_columns(["doc_id", "text"]),
                                  d("fingerprint"), part="p1")
    s, h = dedup.incremental_neardup_dedup(inc_docs(), d("minhash"), threshold=0.5)
    dedup.build_minhash_index(s.select_columns(["doc_id", "text"]), d("minhash"),
                              part="p1")
    ans = {"fingerprint": sorted(surv.to_pandas()["doc_id"]),
           "minhash": {"survivors": sorted(s.to_pandas()["doc_id"]), "hits": _hits(h)}}
    s, h = dedup.incremental_embdup_dedup(inc_embs(), d("embedding"), threshold=0.9)
    dedup.build_embedding_index(s.select_columns(["vec_id", "embedding"]),
                                d("embedding"), part="p1")
    ans["embedding"] = {"survivors": sorted(s.to_pandas()["vec_id"]), "hits": _hits(h)}
    all_docs = _rows(_sf("documents"), 0, 500, ["doc_id", "text"])
    all_embs = _rows(_sf("embeddings"), 0, 500, ["vec_id", "embedding"])
    build_text_index(all_docs, d("text"), num_buckets=16)
    build_ivf_index(all_embs, d("ivf"), n_centroids=8)
    build_pq_index(all_embs, d("pq"), n_centroids=4, m=4, ksub=16)
    record("extend", increment=ans, answers=_probe(stores))

    compacted = {s: dedup.compact_ledger(d(s))["parts_before"] for s in LEDGERS}
    record("compact", compacted=compacted, answers=_probe(stores))
    _dump(log, out)


def probe(stores: str, out: str) -> None:
    _dump([{"step": "probe", "answers": _probe(stores)}], out)


def _dump(doc, out: str) -> None:
    # numpy scalars (keys, counts) as their Python values
    with open(out, "w") as f:
        json.dump(doc, f, default=lambda o: o.item())


def compare(a: str, b: str, a_on_b: str, b_on_a: str) -> int:
    la, lb, ab, ba = (json.load(open(p)) for p in (a, b, a_on_b, b_on_a))
    bad = int(len(la) != len(lb))
    for sa, sb in zip(la, lb):
        keys = sorted((set(sa) | set(sb)) - {"step"})
        row = []
        for k in keys:
            if k == "layout":
                for store in sorted(set(sa[k]) | set(sb[k])):
                    same = sa[k].get(store) == sb[k].get(store)
                    bad += not same
                    row.append(f"layout/{store}={'equal' if same else 'DIFFERENT'}")
                continue
            same = sa.get(k) == sb.get(k)
            bad += not same
            row.append(f"{k}={'equal' if same else 'DIFFERENT'}")
        print(f"{sa['step']:8s} " + " ".join(row))
    final = la[-1]["answers"]
    for name, other in (("A reads B's stores", ab), ("B reads A's stores", ba)):
        got = other[-1]["answers"]
        row = []
        for store in sorted(set(final) | set(got)):
            same = final.get(store) == got.get(store)
            bad += not same
            row.append(f"{store}={'equal' if same else 'DIFFERENT'}")
        print(f"{name}: " + " ".join(row))
    print("ALL EQUAL" if not bad else f"{bad} DIFFERENCES")
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1] == "compare":
        sys.exit(compare(*sys.argv[2:6]))
    import ray

    ray.init(num_cpus=2, include_dashboard=False, logging_level="ERROR")
    try:
        os.makedirs(os.path.dirname(os.path.abspath(sys.argv[3])), exist_ok=True)
        (build if sys.argv[1] == "build" else probe)(sys.argv[2], sys.argv[3])
    finally:
        ray.shutdown()
