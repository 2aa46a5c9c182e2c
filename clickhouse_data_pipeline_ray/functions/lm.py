"""Hashed n-gram language model with Stupid Backoff — perplexity filtering.

The KenLM role of a CCNet-style corpus pipeline: score every document's
per-token log-probability under an n-gram LM trained ON a reference corpus,
then keep/bucket documents by perplexity. Smoothing is Stupid Backoff
(Brants et al. 2007, "Large Language Models in Machine Translation" — the
smoothing designed FOR distributed web-scale LMs: no normalization pass,
counts are all you store):

    S(w_i | w_{i-1}) = c(w_{i-1} w_i) / c(w_{i-1})   if the bigram was seen
                     = 0.4 · c(w_i) / N              otherwise
    S(w_0)           = c(w_0) / N                    (row-initial token)

built Ray-Data-first on the same machinery as the NB classifier
(`classifier.py`):

- **Training is ONE distributed count-aggregation pass** emitting sparse
  (key, count) partials — unigram buckets, bigram buckets offset by
  ``dim_u``, and the corpus token total as the last key — reduced by the
  shared auto-switching combine (`aggregate_sparse_counts`).
- **The model is two dense count vectors** (``dim_u`` unigram + ``dim_b``
  bigram int64 buckets — the hashing trick again: fixed size regardless of
  vocabulary). Hash collisions can only INFLATE a count, so the scorer
  clamps the bigram ratio at 1.0; unseen unigrams floor at pseudo-count 1.
- **Scoring is a broadcast-model actor pool**: one ``ray.put``, per-batch
  vectorized gathers + one ``np.bincount`` per doc-mean — zero per-row
  Python.

Features hash exactly like the classifier's (`_featurize` /
`_featurize_token_lists`): SipHash words or golden-ratio-mixed token ids,
bigrams mixed within row boundaries only.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from .classifier import (
    COMPOSE_DRIVER_LIMIT,
    NB_DRIVER_LIMIT,
    _features_of,
    _kind_of,
    aggregate_sparse_counts,
    score_table_snapshot,
)

BACKOFF = 0.4  # Brants et al.'s empirically-good constant
DEFAULT_DIM_U = 1 << 20
DEFAULT_DIM_B = 1 << 22


def _grams(
    col: pa.ChunkedArray | pa.Array, dim_u: int, dim_b: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(unigram buckets, rows, first-token mask, bigram buckets) with the
    unigram and bigram spaces sized independently. Two featurizer calls
    (dim_u unigrams-only, dim_b with bigrams) stay vectorized and keep the
    bucket math in ONE place — the classifier's featurizers."""
    uni, urows, lens = _features_of(col, dim_u, bigrams=False)
    both, brows, _ = _features_of(col, dim_b, bigrams=True)
    n_tok = len(uni)
    bi = both[n_tok:]
    first = np.ones(n_tok, dtype=bool)
    if n_tok:
        first[1:] = urows[1:] != urows[:-1]
    return uni, urows, first, bi


@dataclass
class LMModel:
    dim_u: int
    dim_b: int
    feature_kind: str
    n_tokens: int  # corpus total (N in the backoff formula)
    uni: np.ndarray  # (dim_u,) int64
    bi: np.ndarray  # (dim_b,) int64

    def save(self, path: str) -> None:
        """tmp+rename commit, like every persisted artifact in the repo."""
        tmp = path + ".tmp"
        os.makedirs(tmp, exist_ok=True)
        np.savez_compressed(
            os.path.join(tmp, "counts.npz"), uni=self.uni, bi=self.bi
        )
        with open(os.path.join(tmp, "meta.json"), "w") as f:
            json.dump(
                {
                    "dim_u": self.dim_u,
                    "dim_b": self.dim_b,
                    "feature_kind": self.feature_kind,
                    "n_tokens": self.n_tokens,
                },
                f,
            )
        from .classifier import commit_model_dir

        commit_model_dir(tmp, path)

    @staticmethod
    def load(path: str) -> "LMModel":
        from .classifier import open_model_dir

        path = open_model_dir(path)
        with open(os.path.join(path, "meta.json")) as f:
            meta = json.load(f)
        w = np.load(os.path.join(path, "counts.npz"))
        return LMModel(
            dim_u=int(meta["dim_u"]),
            dim_b=int(meta["dim_b"]),
            feature_kind=meta["feature_kind"],
            n_tokens=int(meta["n_tokens"]),
            uni=w["uni"],
            bi=w["bi"],
        )

    def payload(self) -> dict:
        return {
            "dim_u": self.dim_u,
            "dim_b": self.dim_b,
            "feature_kind": self.feature_kind,
            "n_tokens": self.n_tokens,
            "uni": self.uni,
            "bi": self.bi,
        }


def train_lm(
    ds: ray.data.Dataset,
    text_col: str = "text",
    dim_u: int = DEFAULT_DIM_U,
    dim_b: int = DEFAULT_DIM_B,
    driver_limit: int = NB_DRIVER_LIMIT,
) -> LMModel:
    """One distributed pass: sparse unigram/bigram count partials, shared
    auto-switching combine. Key layout: [0, dim_u) unigrams, [dim_u,
    dim_u+dim_b) bigrams, last key = corpus token total."""
    size = dim_u + dim_b + 1

    def partial(b: pa.Table) -> pa.Table:
        uni, _, _, bi = _grams(b.column(text_col), dim_u, dim_b)
        keys = np.concatenate(
            [
                uni,
                bi + np.int64(dim_u),
                np.full(len(uni), size - 1, dtype=np.int64),
            ]
        )
        uk, counts = np.unique(keys, return_counts=True)
        return pa.table(
            {
                "key": pa.array(uk, pa.int64()),
                "count": pa.array(counts, pa.int64()),
            }
        )

    counts = aggregate_sparse_counts(
        ds.map_batches(partial, batch_format="pyarrow"), size, driver_limit
    )
    kind = _kind_of(dict(zip(ds.schema().names, ds.schema().types))[text_col])
    return LMModel(
        dim_u=dim_u,
        dim_b=dim_b,
        feature_kind=kind,
        n_tokens=int(counts[size - 1]),
        uni=np.ascontiguousarray(counts[:dim_u]),
        bi=np.ascontiguousarray(counts[dim_u : dim_u + dim_b]),
    )


def lm_logprob_columns(
    col: pa.ChunkedArray | pa.Array,
    dim_u: int,
    dim_b: int,
    n_tokens: int,
    uni: np.ndarray,
    bi: np.ndarray,
) -> dict[str, pa.Array]:
    """THE scoring kernel (one copy, used by the actor pool and any driver
    path). Per token: row-initial → log(max(c(w),1)/N); seen bigram →
    log(min(c(bigram)/c(prev unigram), 1)) (the clamp absorbs cross-space
    hash-collision inflation); else → log(0.4·max(c(w),1)/N). Per doc:
    mean over its tokens (lm_logprob), perplexity exp(-mean) (lm_ppl),
    n_lm_tokens; token-less docs get nulls."""
    n = len(col)
    u, rows, first, b = _grams(col, dim_u, dim_b)
    cu = uni[u].astype(np.float64)
    N = float(max(n_tokens, 1))
    tok_lp = np.empty(len(u), dtype=np.float64)
    # row-initial tokens: unigram estimate (floor unseen at pseudo-count 1)
    tok_lp[first] = np.log(np.maximum(cu[first], 1.0) / N)
    rest = ~first
    if rest.any():
        cb = bi[b].astype(np.float64)  # aligned with the non-first tokens
        cprev = np.maximum(uni[u[:-1][rest[1:]]], 1).astype(np.float64)
        seen = cb > 0
        ratio = np.minimum(cb / cprev, 1.0)
        backed = BACKOFF * np.maximum(cu[rest], 1.0) / N
        tok_lp[rest] = np.where(
            seen, np.log(np.maximum(ratio, 1e-300)), np.log(backed)
        )
    n_tok_row = np.bincount(rows, minlength=n).astype(np.int64)
    sums = np.bincount(rows, weights=tok_lp, minlength=n)
    has = n_tok_row > 0
    mean = np.zeros(n, dtype=np.float64)
    mean[has] = sums[has] / n_tok_row[has]
    mask = ~has  # masked slots become nulls; their values are never read
    return {
        "lm_logprob": pa.array(mean, pa.float64(), mask=mask),
        "lm_ppl": pa.array(np.exp(-mean), pa.float64(), mask=mask),
        "n_lm_tokens": pa.array(n_tok_row, pa.int64()),
    }


class LMScorer:
    """Broadcast-model perplexity scorer for ``map_batches(LMScorer,
    concurrency=N)`` — counts arrive once per actor (object-store ref or
    model dir), batches score with vectorized gathers."""

    def __init__(
        self,
        model_ref=None,
        payload: dict | None = None,
        model_path: str | None = None,
        text_col: str = "text",
    ):
        if model_ref is not None:
            payload = ray.get(model_ref)
        elif model_path is not None:
            payload = LMModel.load(model_path).payload()
        if payload is None:
            raise ValueError("LMScorer needs model_ref, payload, or model_path")
        self.dim_u = int(payload["dim_u"])
        self.dim_b = int(payload["dim_b"])
        self.feature_kind = payload["feature_kind"]
        self.n_tokens = int(payload["n_tokens"])
        self.uni = payload["uni"]
        self.bi = payload["bi"]
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        got = _kind_of(batch.column(self.text_col).type)
        if got != self.feature_kind:
            raise ValueError(
                f"LM was trained on {self.feature_kind!r} features but "
                f"column {self.text_col!r} is {got!r}"
            )
        cols = lm_logprob_columns(
            batch.column(self.text_col),
            self.dim_u,
            self.dim_b,
            self.n_tokens,
            self.uni,
            self.bi,
        )
        for name, arr in cols.items():
            batch = batch.append_column(name, arr)
        return batch


def score_lm(
    ds: ray.data.Dataset,
    model: LMModel,
    text_col: str = "text",
    max_ppl: float | None = None,
    concurrency: int | tuple = (1, 8),
) -> ray.data.Dataset:
    """Score a corpus; optionally keep only rows whose perplexity is at
    most ``max_ppl`` (the CCNet head/middle cut). Token-less docs never
    pass a perplexity filter (their lm_ppl is null)."""
    ref = ray.put(model.payload())
    out = ds.map_batches(
        LMScorer,
        fn_constructor_kwargs={"model_ref": ref, "text_col": text_col},
        batch_format="pyarrow",
        concurrency=concurrency,
        num_cpus=1,
    )
    if max_ppl is not None:
        thr = float(max_ppl)
        out = out.map_batches(
            lambda b: b.filter(
                pc.fill_null(pc.less_equal(b.column("lm_ppl"), thr), False)
            ),
            batch_format="pyarrow",
        )
    return out


# --- incremental LM over a committed table ---------------------------------
#
# n-gram counts are additive across partitions exactly like NB class counts,
# so the LM over a committed table rides the shared artifact refresh
# (`state.artifacts.refresh_table_partials`): cached sparse (key, count)
# partials per pid, changed-partition-only refresh, compose == full retrain
# at the same epoch.


def refresh_table_lm(
    table_dir: str,
    model_dir: str,
    feature_col: str = "tokens",
    dim_u: int = DEFAULT_DIM_U,
    dim_b: int = DEFAULT_DIM_B,
) -> dict:
    """Build/refresh per-partition n-gram count partials over a committed
    table's merged snapshot. Key layout matches ``train_lm``: [0, dim_u)
    unigrams, [dim_u, dim_u+dim_b) bigrams, last key = token total."""
    from ..state.artifacts import refresh_table_partials
    from ..state.manifest import load_manifest

    man = load_manifest(table_dir)
    if feature_col not in man.schema.names:
        raise ValueError(f"column {feature_col!r} not in table schema")
    params = {
        "artifact": "lm",
        "feature_col": feature_col,
        "feature_kind": _kind_of(man.schema.field(feature_col).type),
        "dim_u": dim_u,
        "dim_b": dim_b,
    }
    size = dim_u + dim_b + 1

    def derive_partial(snap: pa.Table) -> pa.Table:
        uni, _, _, bi = _grams(snap.column(feature_col), dim_u, dim_b)
        keys = np.concatenate(
            [
                uni,
                bi + np.int64(dim_u),
                np.full(len(uni), size - 1, dtype=np.int64),
            ]
        )
        uk, counts = np.unique(keys, return_counts=True)
        return pa.table(
            {
                "key": pa.array(uk, pa.int64()),
                "count": pa.array(counts, pa.int64()),
            }
        )

    return refresh_table_partials(
        table_dir, model_dir, params, derive_partial, columns=[feature_col]
    )


def load_table_lm(
    model_dir: str, driver_limit: int = COMPOSE_DRIVER_LIMIT
) -> LMModel:
    """Compose the LMModel from a refreshed partial set — same measured
    auto-switch as the classifier composer (footer row counts decide
    whether the reduce runs on the driver or in-cluster)."""
    import pyarrow.dataset as pds

    from ..state.artifacts import load_meta, partial_files

    meta = load_meta(model_dir)
    dim_u, dim_b = int(meta["dim_u"]), int(meta["dim_b"])
    size = dim_u + dim_b + 1
    # an empty table refreshes to zero partial files: zero-count LM
    files = partial_files(model_dir, meta)
    total_rows = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    counts = np.zeros(size, dtype=np.int64)
    if not files:
        pass
    elif total_rows <= driver_limit:
        t = pds.dataset(files, format="parquet").to_table(columns=["key", "count"])
        np.add.at(
            counts,
            t.column("key").to_numpy(zero_copy_only=False),
            t.column("count").to_numpy(zero_copy_only=False),
        )
    else:
        from ray.data.aggregate import Sum

        t = (
            ray.data.read_parquet(files, columns=["key", "count"])
            .groupby("key")
            .aggregate(Sum("count", alias_name="count"))
            .to_pandas()
        )
        counts[t["key"].to_numpy()] = t["count"].to_numpy().astype(np.int64)
    return LMModel(
        dim_u=dim_u,
        dim_b=dim_b,
        feature_kind=meta["feature_kind"],
        n_tokens=int(counts[size - 1]),
        uni=np.ascontiguousarray(counts[:dim_u]),
        bi=np.ascontiguousarray(counts[dim_u : dim_u + dim_b]),
    )


def load_lm_any(model_dir: str) -> LMModel:
    """train-lm output or lm-refresh partials — one loader for both."""
    if os.path.isdir(os.path.join(model_dir, "partials")):
        return load_table_lm(model_dir)
    return LMModel.load(model_dir)


def score_lm_table(
    table_dir: str,
    model: LMModel,
    feature_col: str = "tokens",
    concurrency: int | tuple = (1, 8),
) -> ray.data.Dataset:
    """Perplexity-score a committed table's merged snapshot (one
    MERGE-on-read pass, broadcast counts fetched once per task)."""
    ref = ray.put(model.payload())
    return score_table_snapshot(
        table_dir,
        lambda: LMScorer(model_ref=ref, text_col=feature_col),
        concurrency=concurrency,
    )
