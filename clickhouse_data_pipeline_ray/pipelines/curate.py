"""End-to-end corpus curation: committed table → learned filters → shards.

The flagship composition of the round's learned-filter operators with the
CDC table and the shard exporter — what a training-data pipeline actually
runs before a training job:

    merged snapshot (MERGE-on-read, one pass, no driver materialization)
      → n-gram-LM perplexity cut   (lm_ppl ≤ max_ppl, CCNet head/middle)
      → classifier quality cut     (p_positive ≥ min_prob, DCLM-style)
      → deterministic shuffled export into training shards

Both models score inside the SAME snapshot task (broadcast payloads
fetched once per task), so the whole job is one snapshot read + the one
unavoidable shuffle of the shard exporter. Kept rows carry their
``lm_ppl`` / ``p_positive`` columns into the shards — training-side
curriculum or re-weighting can reuse them without rescoring.

Model directories are accepted in either form: a saved one-pass model
(``train-lm`` / ``train-classifier`` output) or an incrementally maintained
per-partition partial set (``lm-refresh`` / ``classifier-refresh`` output,
composed on the fly) — so the curation input can track the table through
CDC epochs at O(changed partitions) maintenance cost.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from ..functions.classifier import (
    NBScorer,
    load_classifier_any,
    score_table_snapshot,
)
from ..functions.lm import LMScorer, load_lm_any
from .export import export_shuffled


class _CurateScorer:
    """Per-actor composite: LM-score → ppl cut → classify → prob cut.
    Filters apply between the two scorings, so the (usually more
    expensive) classifier only sees perplexity survivors."""

    def __init__(
        self,
        lm_ref=None,
        max_ppl: float | None = None,
        clf_ref=None,
        positive: str | None = None,
        min_prob: float | None = None,
        feature_col: str = "tokens",
    ):
        self.lm = (
            LMScorer(model_ref=lm_ref, text_col=feature_col)
            if lm_ref is not None
            else None
        )
        self.clf = (
            NBScorer(model_ref=clf_ref, text_col=feature_col, positive=positive)
            if clf_ref is not None
            else None
        )
        self.max_ppl = max_ppl
        self.min_prob = min_prob

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.lm is not None:
            batch = self.lm(batch)
            if self.max_ppl is not None:
                batch = batch.filter(
                    pc.fill_null(
                        pc.less_equal(batch.column("lm_ppl"), self.max_ppl),
                        False,
                    )
                )
        if self.clf is not None and batch.num_rows:
            batch = self.clf(batch)
            if self.min_prob is not None:
                batch = batch.filter(
                    pc.greater_equal(
                        batch.column("p_positive"), self.min_prob
                    )
                )
        elif self.clf is not None:
            batch = self.clf(batch)  # keep the output schema stable
        return batch


def curate_table(
    table_dir: str,
    out_dir: str,
    *,
    lm_model_dir: str | None = None,
    max_ppl: float | None = None,
    clf_model_dir: str | None = None,
    positive: str | None = None,
    min_prob: float | None = None,
    feature_col: str = "tokens",
    num_shards: int = 16,
    seed: int = 1,
    key_col: str = "doc_id",
    concurrency: int | tuple = (1, 8),
) -> dict:
    """Run the curation pipeline; returns export meta + kept-row stats.
    ``rows_kept`` is counted from the written shards' parquet footers
    (metadata-only — the stream is never consumed twice)."""
    if max_ppl is not None and lm_model_dir is None:
        raise ValueError("max_ppl needs lm_model_dir")
    if min_prob is not None and (clf_model_dir is None or positive is None):
        raise ValueError("min_prob needs clf_model_dir and positive")
    kwargs: dict = {
        "max_ppl": max_ppl,
        "min_prob": min_prob,
        "positive": positive,
        "feature_col": feature_col,
    }
    if lm_model_dir is not None:
        lm = load_lm_any(lm_model_dir)
        kwargs["lm_ref"] = ray.put(lm.payload())
    if clf_model_dir is not None:
        clf = load_classifier_any(clf_model_dir)
        if positive is not None and positive not in clf.classes:
            raise ValueError(
                f"positive class {positive!r} not in {clf.classes}"
            )
        kwargs["clf_ref"] = ray.put(clf.payload())

    kept = score_table_snapshot(
        table_dir, lambda: _CurateScorer(**kwargs), concurrency=concurrency
    )
    meta = export_shuffled(
        kept, out_dir, num_shards=num_shards, seed=seed, key_col=key_col
    )
    rows_kept = 0
    for sh in os.listdir(out_dir):
        d = os.path.join(out_dir, sh)
        if not (sh.startswith("shard=") and os.path.isdir(d)):
            continue
        for f in os.listdir(d):
            if f.endswith(".parquet"):
                rows_kept += pq.ParquetFile(os.path.join(d, f)).metadata.num_rows
    return {
        **meta,
        "rows_kept": rows_kept,
        "max_ppl": max_ppl,
        "min_prob": min_prob,
        "positive": positive,
        "lm": lm_model_dir,
        "classifier": clf_model_dir,
    }
