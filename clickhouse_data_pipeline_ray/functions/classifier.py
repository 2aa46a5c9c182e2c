"""Learned text classifier: hashed-feature multinomial Naive Bayes.

The fastText-classifier role of a CCNet/DCLM-style corpus pipeline — a
learned quality / language / domain classifier trained ON the corpus and
then used to score or filter it — built Ray-Data-first:

- **Training is ONE distributed aggregation pass.** Each batch tokenizes,
  hashes tokens into ``dim`` buckets (the hashing trick — the model never
  holds a vocabulary, so its size is fixed regardless of corpus size), and
  emits SPARSE per-class count partials. The combine auto-switches on
  measured partial volume (the same convention as ``q_term_doc_frequency``
  and ``dedup._multi_member_counts``): driver-small sums in numpy; past the
  limit the partials reduce in-cluster via ``groupby(key).sum`` — one
  shuffle over (class × bucket) partial rows, never raw text — and only the
  finished ≤ C·(dim+1)-row matrix reaches the driver. The model must fit on
  the driver by construction: it is the thing that gets broadcast.
- **Scoring is a broadcast-model actor pool.** The trained weights go into
  the object store ONCE (``ray.put``); each ``NBScorer`` actor fetches them
  once in ``__init__`` (zero-copy for the float32 weight matrix) and scores
  whole batches with per-class ``np.bincount(rows, weights=...)`` — no
  per-row Python, no per-batch model shipping.

Features are word unigrams plus (optionally) bigrams, fastText-style.
Bigram buckets are a numeric mix of the two unigram hashes (golden-ratio
multiply + xor), so bigram featurization never materializes joined strings.
Hashes are pandas ``hash_array`` (SipHash, fixed key) — deterministic
across processes and the same primitive the dedup family uses.

Reference analog: the reference pipeline has no learned filter (its
transforms are defensive parsers, stream_etl/core/processor.py); this is
part of the beyond-reference LLM-data operator set, next to lang-id and
quality heuristics in ``textstats.py``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from pandas.util import hash_array

import ray
import ray.data

from ..state.artifacts import load_meta, partial_files, refresh_table_partials

# Partial-row budget for the driver-side count combine during TRAINING;
# above it the final combine stays in the cluster (groupby over packed
# keys) and only the reduced model-sized matrix reaches the driver.
NB_DRIVER_LIMIT = 1_000_000

# Partial-row budget for COMPOSING a model from per-partition cached
# partials. Composition is a dense np.add.at over already-reduced sparse
# rows — sub-second at tens of millions of rows — so the driver path is
# bounded by MEMORY (16 bytes/row ≈ 0.5 GB at the limit), not compute.
# Only a genuinely huge table (thousands of partitions × near-saturated
# bucket spaces) should pay the in-cluster groupby's fixed cost.
COMPOSE_DRIVER_LIMIT = 32_000_000

# 64-bit golden-ratio constant for the bigram hash mix (public-domain
# Fibonacci-hashing constant; same role as in segment dedup's rolling hash).
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

DEFAULT_DIM = 1 << 18


def _featurize(
    text: pa.ChunkedArray | pa.Array, dim: int, bigrams: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(feature buckets, row index per feature, words-per-row) for one
    batch's text column. One Arrow split/flatten + one vectorized SipHash;
    bigrams are numeric mixes of adjacent unigram hashes within a row (the
    row-boundary mask keeps a doc's last word from pairing with the next
    doc's first). Null text rows contribute zero features but keep their
    row slot, so scoring them yields prior-only scores."""
    lists = pc.split_pattern(text, pattern=" ")
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    lens = (
        pc.fill_null(pc.list_value_length(lists), 0)
        .cast(pa.int64())
        .to_numpy(zero_copy_only=False)
    )
    words = pc.list_flatten(lists).to_numpy(zero_copy_only=False).astype(object)
    rows = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    h = hash_array(words, categorize=False)  # uint64 SipHash
    buckets = (h % np.uint64(dim)).astype(np.int64)
    if bigrams and len(h) > 1:
        same_row = rows[1:] == rows[:-1]
        bi = ((h[:-1] * _GOLDEN) ^ h[1:]) % np.uint64(dim)
        buckets = np.concatenate([buckets, bi[same_row].astype(np.int64)])
        rows = np.concatenate([rows, rows[1:][same_row]])
    return buckets, rows, lens


def _featurize_token_lists(
    col: pa.ChunkedArray | pa.Array, dim: int, bigrams: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Token-id featurizer for committed tables (``tokens: list<int32>`` —
    the pre-tokenized training-sequence payload): same output contract as
    the text featurizer. Buckets are a golden-ratio multiply of the token
    id (+1 so token 0 doesn't map to the fixed point 0) — a full-avalanche
    hash is unnecessary because the multiply already spreads consecutive
    ids across the bucket space, and it keeps the kernel pure numpy."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    lens = (
        pc.fill_null(pc.list_value_length(col), 0)
        .cast(pa.int64())
        .to_numpy(zero_copy_only=False)
    )
    toks = pc.list_flatten(col).to_numpy(zero_copy_only=False)
    rows = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    h = (toks.astype(np.uint64) + np.uint64(1)) * _GOLDEN
    buckets = (h % np.uint64(dim)).astype(np.int64)
    if bigrams and len(h) > 1:
        same_row = rows[1:] == rows[:-1]
        bi = ((h[:-1] * _GOLDEN) ^ h[1:]) % np.uint64(dim)
        buckets = np.concatenate([buckets, bi[same_row].astype(np.int64)])
        rows = np.concatenate([rows, rows[1:][same_row]])
    return buckets, rows, lens


def _features_of(
    col: pa.ChunkedArray | pa.Array, dim: int, bigrams: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dispatch by column type: string → word featurizer, list<int> →
    token-id featurizer. The kind is also recorded on the trained model so
    a tokens-trained model can never silently score a text column."""
    typ = col.type
    if pa.types.is_list(typ) or pa.types.is_large_list(typ):
        return _featurize_token_lists(col, dim, bigrams)
    return _featurize(col, dim, bigrams)


def _kind_of(typ: pa.DataType) -> str:
    if pa.types.is_list(typ) or pa.types.is_large_list(typ):
        return "tokens"
    if pa.types.is_string(typ) or pa.types.is_large_string(typ):
        return "text"
    raise ValueError(f"unsupported feature column type {typ}")


def commit_model_dir(tmp: str, path: str) -> None:
    """Swap a fully-written tmp model dir into place WITHOUT a window where
    neither old nor new exists: old → ``path.old``, tmp → path, drop the
    old. A crash between the renames leaves ``path.old`` intact, which
    ``open_model_dir`` falls back to — re-saving over an existing model can
    never destroy it."""
    import shutil

    old = path + ".old"
    shutil.rmtree(old, ignore_errors=True)
    if os.path.exists(path):
        os.rename(path, old)
    os.rename(tmp, path)
    shutil.rmtree(old, ignore_errors=True)


def open_model_dir(path: str) -> str:
    """The usable model dir: ``path``, or the ``path.old`` a crashed save
    left behind (the previous model — still valid)."""
    if os.path.exists(os.path.join(path, "meta.json")):
        return path
    old = path + ".old"
    if os.path.exists(os.path.join(old, "meta.json")):
        return old
    return path  # let the caller's open fail with the natural error


@dataclass
class NBModel:
    """Trained multinomial NB over hashed features. ``log_lik`` is float32
    (C × dim) — the broadcast payload; scoring upcasts to float64 in the
    per-class reductions."""

    classes: list[str]
    dim: int
    alpha: float
    bigrams: bool
    doc_counts: np.ndarray  # (C,) int64
    feature_counts: np.ndarray  # (C, dim) int64 — kept for exact-oracle tests
    log_prior: np.ndarray  # (C,) float64
    log_lik: np.ndarray  # (C, dim) float32
    feature_kind: str = "text"  # "text" | "tokens" — guards scoring dispatch

    def save(self, path: str) -> None:
        """Persist under ``path`` with the repo-wide tmp+rename commit
        protocol: a crashed save never leaves a half-written model."""
        tmp = path + ".tmp"
        os.makedirs(tmp, exist_ok=True)
        np.savez(
            os.path.join(tmp, "weights.npz"),
            doc_counts=self.doc_counts,
            feature_counts=self.feature_counts,
            log_prior=self.log_prior,
            log_lik=self.log_lik,
        )
        meta = {
            "classes": self.classes,
            "dim": self.dim,
            "alpha": self.alpha,
            "bigrams": self.bigrams,
            "feature_kind": self.feature_kind,
            "n_docs": int(self.doc_counts.sum()),
        }
        with open(os.path.join(tmp, "meta.json"), "w") as f:
            json.dump(meta, f, indent=1)
        commit_model_dir(tmp, path)

    @staticmethod
    def load(path: str) -> "NBModel":
        path = open_model_dir(path)
        with open(os.path.join(path, "meta.json")) as f:
            meta = json.load(f)
        w = np.load(os.path.join(path, "weights.npz"))
        return NBModel(
            classes=list(meta["classes"]),
            dim=int(meta["dim"]),
            alpha=float(meta["alpha"]),
            bigrams=bool(meta["bigrams"]),
            doc_counts=w["doc_counts"],
            feature_counts=w["feature_counts"],
            log_prior=w["log_prior"],
            log_lik=w["log_lik"],
            feature_kind=meta.get("feature_kind", "text"),
        )

    def payload(self) -> dict:
        """The broadcast slice of the model: what scoring needs, nothing
        else (the int64 count matrix stays behind)."""
        return {
            "classes": self.classes,
            "dim": self.dim,
            "bigrams": self.bigrams,
            "feature_kind": self.feature_kind,
            "log_prior": self.log_prior,
            "log_lik": self.log_lik,
        }


def _model_from_counts(
    classes: list[str],
    dim: int,
    alpha: float,
    bigrams: bool,
    feature_kind: str,
    doc_counts: np.ndarray,
    feature_counts: np.ndarray,
) -> NBModel:
    """THE weight formula — one copy shared by the one-pass trainer and the
    incremental table-model composer, so a composed model is bitwise equal
    to a retrained one whenever the counts are equal."""
    total = doc_counts.sum()
    if total == 0:
        raise ValueError("no training documents")
    log_prior = np.log(doc_counts.astype(np.float64) / total)
    denom = (
        feature_counts.sum(axis=1, keepdims=True).astype(np.float64)
        + alpha * dim
    )
    log_lik = np.log(
        (feature_counts.astype(np.float64) + alpha) / denom
    ).astype(np.float32)
    return NBModel(
        classes=classes,
        dim=dim,
        alpha=alpha,
        bigrams=bigrams,
        doc_counts=doc_counts,
        feature_counts=feature_counts,
        log_prior=log_prior,
        log_lik=log_lik,
        feature_kind=feature_kind,
    )


def _count_partial(
    batch: pa.Table, label_col: str, text_col: str, class_idx: dict,
    dim: int, bigrams: bool,
) -> pa.Table:
    """Sparse per-batch count partial: rows of (key, count) where
    key = class·(dim+1)+bucket for feature counts and bucket == dim is the
    class's document count. Summable across batches because every (doc,
    token) lives in exactly one batch."""
    width = dim + 1
    labels = batch.column(label_col).to_numpy(zero_copy_only=False).astype(object)
    cls = np.array([class_idx[l] for l in labels], dtype=np.int64)
    buckets, rows, _ = _features_of(batch.column(text_col), dim, bigrams)
    keys = cls[rows] * width + buckets
    # per-class doc counts ride along as bucket == dim
    keys = np.concatenate([keys, cls * width + dim])
    uk, counts = np.unique(keys, return_counts=True)
    return pa.table(
        {"key": pa.array(uk, pa.int64()), "count": pa.array(counts, pa.int64())}
    )


def aggregate_sparse_counts(
    partials: ray.data.Dataset, size: int, driver_limit: int = NB_DRIVER_LIMIT
) -> np.ndarray:
    """Reduce sparse (key, count) partial rows into one dense int64 count
    vector of ``size``. The combine auto-switches on MEASURED partial
    volume: driver-small sums via ``np.add.at``; past ``driver_limit`` the
    partials reduce in-cluster via ``groupby(key).sum`` (one shuffle over
    partial rows) and only the reduced ≤ ``size``-row table reaches the
    driver. Shared by the NB trainer and the n-gram LM trainer — their
    models must fit on the driver by construction (they get broadcast)."""
    partials = partials.materialize()
    counts = np.zeros(size, dtype=np.int64)
    if partials.count() <= driver_limit:
        t = pa.concat_tables(
            ray.get(ref) for ref in partials.to_arrow_refs()
        ).combine_chunks()
        np.add.at(
            counts,
            t.column("key").to_numpy(zero_copy_only=False),
            t.column("count").to_numpy(zero_copy_only=False),
        )
    else:
        from ray.data.aggregate import Sum

        reduced = partials.groupby("key").aggregate(
            Sum("count", alias_name="count")
        )
        t = pa.concat_tables(
            ray.get(ref) for ref in reduced.to_arrow_refs()
        ).combine_chunks()
        counts[t.column("key").to_numpy(zero_copy_only=False)] = t.column(
            "count"
        ).to_numpy(zero_copy_only=False)
    return counts


def train_nb(
    ds: ray.data.Dataset,
    label_col: str = "lang",
    text_col: str = "text",
    dim: int = DEFAULT_DIM,
    alpha: float = 1.0,
    bigrams: bool = True,
    driver_limit: int = NB_DRIVER_LIMIT,
) -> NBModel:
    """Train in one distributed pass over (text, label) rows. Class
    discovery is a separate column-pruned ``unique`` over the label column
    only (labels are low-cardinality by nature; the text column never
    travels for it)."""
    uniq = ds.select_columns([label_col]).unique(label_col)
    if any(c is None for c in uniq):
        raise ValueError(
            f"label column {label_col!r} contains nulls — filter or "
            "backfill them before training (a null class is meaningless)"
        )
    classes = sorted(uniq)
    if not classes:
        raise ValueError("training dataset is empty")
    class_idx = {c: i for i, c in enumerate(classes)}
    C, width = len(classes), dim + 1

    partials = ds.map_batches(
        lambda b: _count_partial(b, label_col, text_col, class_idx, dim, bigrams),
        batch_format="pyarrow",
    )
    counts = aggregate_sparse_counts(partials, C * width, driver_limit)
    mat = counts.reshape(C, width)
    return _model_from_counts(
        classes,
        dim,
        alpha,
        bigrams,
        _kind_of(dict(zip(ds.schema().names, ds.schema().types))[text_col]),
        np.ascontiguousarray(mat[:, dim]),
        np.ascontiguousarray(mat[:, :dim]),
    )


def score_table(
    batch_text: pa.ChunkedArray | pa.Array,
    classes: list[str],
    dim: int,
    bigrams: bool,
    log_prior: np.ndarray,
    log_lik: np.ndarray,
    positive: str | None,
) -> dict[str, pa.Array]:
    """THE scoring kernel — both the actor pool and any driver-side path
    call this one function (the `_bm25_scores` convention: one copy of the
    float ops, bitwise-identical everywhere). Returns the output columns.

    Per class: one ``np.bincount(rows, weights=log_lik[c][buckets])`` —
    C vectorized reductions per batch, zero per-row Python. Ties (e.g. an
    empty doc under uniform priors) break to the lexicographically first
    class (argmax convention, classes are sorted)."""
    n = len(batch_text)
    buckets, rows, _ = _features_of(batch_text, dim, bigrams)
    C = len(classes)
    scores = np.empty((n, C), dtype=np.float64)
    for c in range(C):
        scores[:, c] = log_prior[c] + np.bincount(
            rows, weights=log_lik[c][buckets].astype(np.float64), minlength=n
        )
    pred = scores.argmax(axis=1)
    # stable softmax over class log-scores
    mx = scores.max(axis=1, keepdims=True)
    ex = np.exp(scores - mx)
    probs = ex / ex.sum(axis=1, keepdims=True)
    out = {
        "pred_label": pa.array(np.array(classes, dtype=object)[pred].astype(str)),
        "pred_prob": pa.array(probs[np.arange(n), pred], pa.float64()),
    }
    if positive is not None:
        out["p_positive"] = pa.array(probs[:, classes.index(positive)], pa.float64())
    return out


class NBScorer:
    """Broadcast-model scoring stage for ``map_batches(NBScorer,
    concurrency=N)``. The model arrives ONCE per actor — as an object-store
    ref (`ray.put` upstream; `ray.get` here is zero-copy for the weight
    matrix), as an in-process payload dict (tests / driver-side use), or as
    an on-disk model directory (CLI latency path, no re-broadcast)."""

    def __init__(
        self,
        model_ref=None,
        payload: dict | None = None,
        model_path: str | None = None,
        text_col: str = "text",
        positive: str | None = None,
    ):
        if model_ref is not None:
            payload = ray.get(model_ref)
        elif model_path is not None:
            payload = NBModel.load(model_path).payload()
        if payload is None:
            raise ValueError("NBScorer needs model_ref, payload, or model_path")
        self.classes = list(payload["classes"])
        self.dim = int(payload["dim"])
        self.bigrams = bool(payload["bigrams"])
        self.feature_kind = payload.get("feature_kind", "text")
        self.log_prior = payload["log_prior"]
        self.log_lik = payload["log_lik"]
        self.text_col = text_col
        self.positive = positive

    def __call__(self, batch: pa.Table) -> pa.Table:
        got = _kind_of(batch.column(self.text_col).type)
        if got != self.feature_kind:
            raise ValueError(
                f"model was trained on {self.feature_kind!r} features but "
                f"column {self.text_col!r} is {got!r}"
            )
        cols = score_table(
            batch.column(self.text_col),
            self.classes,
            self.dim,
            self.bigrams,
            self.log_prior,
            self.log_lik,
            self.positive,
        )
        for name, arr in cols.items():
            batch = batch.append_column(name, arr)
        return batch


def classify(
    ds: ray.data.Dataset,
    model: NBModel,
    text_col: str = "text",
    positive: str | None = None,
    min_prob: float | None = None,
    concurrency: int | tuple = (1, 8),
) -> ray.data.Dataset:
    """Score a corpus with a trained model; optionally keep only rows whose
    positive-class probability clears ``min_prob`` (the CCNet-style quality
    filter). One ``ray.put`` for the weights, however many actors run."""
    if positive is not None and positive not in model.classes:
        raise ValueError(f"positive class {positive!r} not in {model.classes}")
    ref = ray.put(model.payload())
    out = ds.map_batches(
        NBScorer,
        fn_constructor_kwargs={
            "model_ref": ref,
            "text_col": text_col,
            "positive": positive,
        },
        batch_format="pyarrow",
        concurrency=concurrency,
        num_cpus=1,
    )
    if min_prob is not None:
        if positive is None:
            raise ValueError("min_prob filtering needs a positive class")
        thr = float(min_prob)
        out = out.map_batches(
            lambda b: b.filter(pc.greater_equal(b.column("p_positive"), thr)),
            batch_format="pyarrow",
        )
    return out


# --- incremental classifier over a committed table ------------------------
#
# NB counts are ADDITIVE across partitions, so the model over a committed
# table decomposes into per-partition sparse count partials maintained by
# the shared artifact refresh (`state.artifacts.refresh_table_partials`).
# Updates and deletes are handled for free because a refreshed partition's
# partial is REPLACED from its current merged snapshot. The composed model
# is bitwise equal to a full retrain at the same epoch (pinned in tests)
# because both run the same count → weight formula (`_model_from_counts`).


def _pid_count_partial(
    snap: pa.Table, label_col: str, feature_col: str, dim: int, bigrams: bool,
) -> pa.Table:
    """One partition's sparse (label, bucket, count) partial; bucket == -1
    rows carry the per-label document count. Labels stay strings here (no
    global class index exists during incremental maintenance — a refresh
    may introduce a class no other partition has seen)."""
    labels = (
        snap.column(label_col).to_numpy(zero_copy_only=False).astype(object)
    )
    buckets, rows, _ = _features_of(snap.column(feature_col), dim, bigrams)
    lab_feat = labels[rows]
    all_lab = np.concatenate([lab_feat, labels])
    all_bkt = np.concatenate(
        [buckets, np.full(len(labels), -1, dtype=np.int64)]
    )
    import pandas as pd

    g = (
        pd.DataFrame({"label": all_lab, "bucket": all_bkt})
        .groupby(["label", "bucket"], sort=False)
        .size()
        .reset_index(name="count")
    )
    return pa.table(
        {
            "label": pa.array(g["label"].astype(str)),
            "bucket": pa.array(g["bucket"].to_numpy(), pa.int64()),
            "count": pa.array(g["count"].to_numpy(), pa.int64()),
        }
    )


def refresh_table_classifier(
    table_dir: str,
    model_dir: str,
    label_col: str = "source",
    feature_col: str = "tokens",
    dim: int = DEFAULT_DIM,
    alpha: float = 1.0,
    bigrams: bool = True,
) -> dict:
    """Build — or incrementally refresh — the per-partition count partials
    of an NB classifier over a committed table's merged snapshot, with the
    shared artifact protocol (``state.artifacts``): ``partials/pid=P/`` +
    ``meta.json`` holding the hyperparameters; only partitions whose file
    chains changed re-derive, and any hyperparameter change rebuilds."""
    from ..state.manifest import load_manifest

    man = load_manifest(table_dir)
    for col in (label_col, feature_col):
        if col not in man.schema.names:
            raise ValueError(f"column {col!r} not in table schema")
    params = {
        "label_col": label_col,
        "feature_col": feature_col,
        "feature_kind": _kind_of(man.schema.field(feature_col).type),
        "dim": dim,
        "alpha": alpha,
        "bigrams": bigrams,
    }
    return refresh_table_partials(
        table_dir, model_dir, params,
        lambda snap: _pid_count_partial(
            snap, label_col, feature_col, dim, bigrams
        ),
        # pushdown: counts touch only the label + feature columns — the
        # wide payload never leaves parquet
        columns=list(dict.fromkeys([label_col, feature_col])),
    )


def load_table_model(
    model_dir: str, driver_limit: int = COMPOSE_DRIVER_LIMIT
) -> NBModel:
    """Compose the NBModel from a refreshed partial set. The combine
    auto-switches on measured partial volume (parquet footer row counts —
    no data read to decide): driver-small sums in pandas; past the limit
    the partials reduce in-cluster via ``groupby([label, bucket]).sum``
    and only the ≤ C·(dim+1)-row matrix reaches the driver."""
    import pyarrow.dataset as pds

    meta = load_meta(model_dir)
    files = partial_files(model_dir, meta)
    total_rows = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    if not files:
        # an EMPTY table refreshes to zero partial files: compose the
        # zero-count model instead of crashing on the missing columns
        import pandas as pd

        g = pd.DataFrame({"label": [], "bucket": [], "count": []})
    elif total_rows <= driver_limit:
        t = pds.dataset(files, format="parquet").to_table(
            columns=["label", "bucket", "count"]
        ).to_pandas()
        g = t.groupby(["label", "bucket"], as_index=False)["count"].sum()
    else:
        from ray.data.aggregate import Sum

        g = (
            ray.data.read_parquet(files, columns=["label", "bucket", "count"])
            .groupby(["label", "bucket"])
            .aggregate(Sum("count", alias_name="count"))
            .to_pandas()
        )
    classes = sorted(g["label"].unique())
    idx = {c: i for i, c in enumerate(classes)}
    dim = int(meta["dim"])
    fc = np.zeros((len(classes), dim), dtype=np.int64)
    dc = np.zeros(len(classes), dtype=np.int64)
    # astype: the empty-table frame's columns default to object/float dtype
    ci = g["label"].map(idx).to_numpy(dtype=np.int64, na_value=0) if len(g) else np.array([], dtype=np.int64)
    bk = g["bucket"].to_numpy().astype(np.int64)
    cn = g["count"].to_numpy().astype(np.int64)
    is_doc = bk == -1
    np.add.at(dc, ci[is_doc], cn[is_doc])
    np.add.at(fc, (ci[~is_doc], bk[~is_doc]), cn[~is_doc])
    return _model_from_counts(
        classes,
        dim,
        float(meta["alpha"]),
        bool(meta["bigrams"]),
        meta["feature_kind"],
        dc,
        fc,
    )


def load_classifier_any(model_dir: str) -> NBModel:
    """train-classifier output (saved weights) or classifier-refresh output
    (per-partition partials, composed on the fly) — one loader for both."""
    if os.path.isdir(os.path.join(model_dir, "partials")):
        return load_table_model(model_dir)
    return NBModel.load(model_dir)


def score_table_snapshot(
    table_dir: str,
    make_scorer,
    concurrency: int | tuple = (1, 8),
    columns: list[str] | None = None,
) -> ray.data.Dataset:
    """Apply a per-batch scorer to a committed table's merged snapshot: one
    MERGE-on-read pass at call time on the partition runner
    (``pipelines.apply._scan``, at most the pool size of ``concurrency``
    tasks) with the scorer applied in the same task — no shuffle, no driver
    materialization. ``make_scorer`` is a zero-arg factory evaluated once
    per TASK (broadcast fetch / pattern compile happens there, never per
    partition). ``columns`` prunes the
    partition reads (None = full rows — scorers emit the snapshot columns
    plus their score columns, so pruning changes the output schema; opt in
    when the caller only consumes a subset). Collapse tables are read
    FINALIZED: scorers see alive winner rows only, never the partial
    adjustment encoding."""
    from ..pipelines.apply import _pool_size, _scan_dataset
    from ..stages.merge import read_partition_final
    from ..state.manifest import load_manifest

    man = load_manifest(table_dir)
    files_by_pid = {
        p: (man.partitions[p].get("files") or []) for p in man.partitions
    }
    schema, mode = man.schema, man.mode
    sum_cols = man.sum_cols

    def score_pids(pids: list[int]) -> pa.Table:
        scorer = make_scorer()
        out = []
        for pid in pids:
            files = files_by_pid[str(pid)]
            snap = (
                read_partition_final(
                    table_dir, files, schema, mode, sum_cols, columns
                )
                if files
                else schema.empty_table()
            )
            out.append(scorer(snap))
        return pa.concat_tables(out)

    pids = [int(p) for p in man.partitions]
    return _scan_dataset(score_pids, man, pids, cap=_pool_size(concurrency))


def classify_table(
    table_dir: str,
    model: NBModel,
    feature_col: str = "tokens",
    positive: str | None = None,
    concurrency: int | tuple = (1, 8),
) -> ray.data.Dataset:
    """Score a committed table's merged snapshot with the broadcast NB
    scorer (one ``ray.put``, fetched once per task)."""
    if positive is not None and positive not in model.classes:
        raise ValueError(f"positive class {positive!r} not in {model.classes}")
    ref = ray.put(model.payload())
    return score_table_snapshot(
        table_dir,
        lambda: NBScorer(model_ref=ref, text_col=feature_col, positive=positive),
        concurrency=concurrency,
    )
