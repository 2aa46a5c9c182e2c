"""Learned BPE tokenizer: distributed word counting + driver-side merges.

The tokenizer-training role of a training-data pipeline (the reference has
no analog; public method: Sennrich et al. 2016, "Neural Machine Translation
of Rare Words with Subword Units"). The scalable shape is the standard one:

1. ONE distributed pass compresses the corpus to a ``word → count`` table
   (per-batch vectorized partials → ``groupby(word).sum`` — the shuffle
   moves distinct words per batch, never the corpus), truncated to the
   ``max_words`` most frequent words above ``min_count``. 100 TB of text
   becomes a dict that fits on the driver.
2. Classic BPE training runs DRIVER-SIDE over that dict: repeatedly merge
   the most frequent adjacent symbol pair (count-weighted), with a
   deterministic tie-break (count desc, then lexicographically smallest
   pair) so training is reproducible across runs and partitionings.
3. Encoding is an actor-pool stage whose per-actor ``word → pieces`` cache
   makes cost proportional to DISTINCT words seen per actor, not token
   occurrences (the merges are broadcast once per actor, never per batch).

Incremental maintenance over a committed table rides the shared artifact
refresh (``state.artifacts.refresh_table_partials``), like the NB
classifier and n-gram LM: word-count partials per pid,
changed-partitions-only refresh, compose == full recount at the same epoch.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

# training words = alphanumeric runs (the WORD_RE dual: split on everything
# else). RE2-safe on both the engine and any SQL oracle side.
SPLIT_RE = r"[^A-Za-z0-9]+"
END = "</w>"  # end-of-word marker (Sennrich's convention)


# ---------------------------------------------------------------- counting


def word_count_partial(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Vectorized per-batch ``(word, n)`` partial: regex split → flatten →
    value_counts. Arrow kernels end to end (no Python per row)."""
    words = pc.split_pattern_regex(batch.column(text_col), pattern=SPLIT_RE)
    flat = pc.list_flatten(words)
    flat = flat.filter(pc.not_equal(flat, pa.scalar("")))
    vc = pc.value_counts(flat.combine_chunks())
    return pa.table(
        {
            "word": vc.field("values"),
            "n": vc.field("counts").cast(pa.int64()),
        }
    )


def corpus_word_counts(
    ds: ray.data.Dataset,
    text_col: str = "text",
    min_count: int = 2,
    max_words: int = 100_000,
) -> tuple[list[str], np.ndarray]:
    """The distributed pass: corpus → top-``max_words`` word counts.
    The groupby shuffles (word, partial-count) rows — O(distinct words ×
    batches), independent of corpus token volume."""
    from ray.data.aggregate import Sum

    counts = (
        ds.map_batches(
            lambda b: word_count_partial(b, text_col),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .groupby("word")
        .aggregate(Sum("n", alias_name="n"))
    )
    top = counts.map_batches(
        lambda b: b.filter(
            pc.greater_equal(b.column("n"), pa.scalar(min_count, pa.int64()))
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    # deterministic truncation: count desc, word asc (ties stable across
    # partitionings)
    t = (
        top.sort(["n", "word"], descending=[True, False])
        .limit(max_words)
        .to_pandas()
    )
    return list(t["word"]), t["n"].to_numpy().astype(np.int64)


# ---------------------------------------------------------------- training


def train_bpe_from_counts(
    words: list[str], counts: np.ndarray, num_merges: int = 200
) -> "BPEModel":
    """Classic count-weighted BPE over a word-frequency dict (driver-side;
    the dict is the corpus compressed by the distributed pass). Incremental
    pair-count maintenance: each merge touches only the words that contain
    the merged pair."""
    symseqs: list[list[str]] = [list(w) + [END] for w in words]
    wcount = [int(c) for c in counts]

    pair_counts: dict[tuple, int] = {}
    pair_words: dict[tuple, set] = {}
    for i, seq in enumerate(symseqs):
        c = wcount[i]
        for a, b in zip(seq, seq[1:]):
            pair_counts[(a, b)] = pair_counts.get((a, b), 0) + c
            pair_words.setdefault((a, b), set()).add(i)

    merges: list[tuple] = []
    for _ in range(num_merges):
        if not pair_counts:
            break
        # deterministic argmax: count desc, then lexicographically smallest
        best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        if pair_counts[best] <= 0:
            break
        merges.append(best)
        new_sym = best[0] + best[1]
        for i in list(pair_words.get(best, ())):
            seq, c = symseqs[i], wcount[i]
            # remove this word's contribution to all its pairs
            for a, b in zip(seq, seq[1:]):
                pair_counts[(a, b)] -= c
                if pair_counts[(a, b)] <= 0:
                    pair_counts.pop((a, b), None)
                ws = pair_words.get((a, b))
                if ws is not None:
                    ws.discard(i)
                    if not ws:
                        pair_words.pop((a, b), None)
            # apply the merge in-place
            j, out = 0, []
            while j < len(seq):
                if (
                    j + 1 < len(seq)
                    and seq[j] == best[0]
                    and seq[j + 1] == best[1]
                ):
                    out.append(new_sym)
                    j += 2
                else:
                    out.append(seq[j])
                    j += 1
            symseqs[i] = out
            # add back the rewritten word's pairs
            for a, b in zip(out, out[1:]):
                pair_counts[(a, b)] = pair_counts.get((a, b), 0) + c
                pair_words.setdefault((a, b), set()).add(i)

    # vocab: base symbols (sorted) then merge products in merge order
    base: set[str] = set()
    for w in words:
        base.update(w)
    base.add(END)
    vocab: dict[str, int] = {}
    for s in sorted(base):
        vocab[s] = len(vocab)
    for a, b in merges:
        tok = a + b
        if tok not in vocab:
            vocab[tok] = len(vocab)
    return BPEModel(merges=merges, vocab=vocab)


class BPEModel:
    """Learned merges + vocab. Encode follows GPT-2's greedy lowest-rank
    merge loop; a ``word → pieces`` cache amortizes repeated words."""

    def __init__(self, merges: list[tuple], vocab: dict[str, int]):
        self.merges = [tuple(m) for m in merges]
        self.vocab = dict(vocab)
        self.ranks = {m: i for i, m in enumerate(self.merges)}
        self._cache: dict[str, list[str]] = {}

    # -- persistence (atomic: tmp + rename, like every engine artifact) ----
    def save(self, model_dir: str) -> None:
        from ..state.manifest import atomic_json_write

        os.makedirs(model_dir, exist_ok=True)
        atomic_json_write(
            os.path.join(model_dir, "bpe.json"),
            {
                "version": 1,
                "merges": [list(m) for m in self.merges],
                "vocab": self.vocab,
            },
        )

    @staticmethod
    def load(model_dir: str) -> "BPEModel":
        with open(os.path.join(model_dir, "bpe.json")) as f:
            doc = json.load(f)
        return BPEModel(
            merges=[tuple(m) for m in doc["merges"]], vocab=doc["vocab"]
        )

    def payload(self) -> dict:
        return {"merges": [list(m) for m in self.merges], "vocab": self.vocab}

    # -- encoding ----------------------------------------------------------
    def encode_word(self, word: str) -> list[str]:
        got = self._cache.get(word)
        if got is not None:
            return got
        seq = list(word) + [END]
        while len(seq) > 1:
            pairs = [(self.ranks.get((a, b)), k)
                     for k, (a, b) in enumerate(zip(seq, seq[1:]))]
            ranked = [(r, k) for r, k in pairs if r is not None]
            if not ranked:
                break
            r, _ = min(ranked)
            a, b = self.merges[r]
            j, out = 0, []
            while j < len(seq):
                if j + 1 < len(seq) and seq[j] == a and seq[j + 1] == b:
                    out.append(a + b)
                    j += 2
                else:
                    out.append(seq[j])
                    j += 1
            seq = out
        self._cache[word] = seq
        return seq

    def encode_word_ids(self, word: str) -> list[int]:
        # unknown base symbols (chars never seen in training) map to -1
        return [self.vocab.get(p, -1) for p in self.encode_word(word)]


class BPEEncoder:
    """Actor-pool encode stage: merges broadcast once per actor (``ray.put``
    ref or a model dir read once in ``__init__``), per-actor word cache,
    output = ``bpe_ids`` (list<int32>) + ``n_bpe_pieces`` per row."""

    def __init__(
        self,
        model_dir: str | None = None,
        model_ref=None,
        text_col: str = "text",
    ):
        if model_ref is not None:
            doc = ray.get(model_ref)
            self.model = BPEModel(
                merges=[tuple(m) for m in doc["merges"]], vocab=doc["vocab"]
            )
        else:
            self.model = BPEModel.load(model_dir)
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Vectorized occurrence path: the Python BPE merge loop runs over
        the batch's UNIQUE words only (dictionary-encode), and the
        per-occurrence expansion back to rows is a pure numpy ragged gather
        — no Python iteration per row/word/occurrence. Bitwise-identical
        ids to the per-row loop (pinned by test_bpe)."""
        if batch.num_rows == 0:
            batch = batch.append_column(
                "bpe_ids", pa.array([], pa.list_(pa.int32()))
            )
            return batch.append_column("n_bpe_pieces", pa.array([], pa.int64()))
        text = pc.fill_null(batch.column(self.text_col), "")
        words = pc.split_pattern_regex(text, pattern=SPLIT_RE)
        n_words = (
            pc.list_value_length(words)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        flat = pc.list_flatten(words).combine_chunks()
        darr = pc.dictionary_encode(flat)

        # encode each distinct word once (per-actor cache persists across
        # batches, so steady-state cost is new-distinct-words only)
        enc = self.model.encode_word_ids
        uniq_ids = [enc(w) if w else [] for w in darr.dictionary.to_pylist()]
        uniq_lens = np.array([len(u) for u in uniq_ids], dtype=np.int64)
        uniq_flat = np.concatenate(
            [np.asarray(u, dtype=np.int32) for u in uniq_ids]
            or [np.array([], dtype=np.int32)]
        )
        uniq_starts = np.concatenate(([0], np.cumsum(uniq_lens)[:-1])) if len(
            uniq_lens
        ) else np.array([], dtype=np.int64)

        # ragged gather: occurrence j expands to
        # uniq_flat[uniq_starts[idx[j]] : + uniq_lens[idx[j]]]
        idx = darr.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        occ_lens = uniq_lens[idx] if len(idx) else np.array([], dtype=np.int64)
        occ_cs = np.concatenate(([0], np.cumsum(occ_lens)))
        total = int(occ_cs[-1])
        run_off = np.arange(total, dtype=np.int64) - np.repeat(
            occ_cs[:-1], occ_lens
        )
        gather = np.repeat(uniq_starts[idx], occ_lens) + run_off
        out_flat = (
            uniq_flat[gather] if total else np.array([], dtype=np.int32)
        )

        # rows rebuilt from list offsets: row r's pieces end where its last
        # word occurrence ends
        row_ends = occ_cs[np.cumsum(n_words)]
        offsets = np.concatenate(([0], row_ends))
        batch = batch.append_column(
            "bpe_ids",
            pa.ListArray.from_arrays(
                pa.array(offsets, pa.int32()), pa.array(out_flat, pa.int32())
            ),
        )
        return batch.append_column(
            "n_bpe_pieces", pa.array(np.diff(offsets), pa.int64())
        )


# ---------------------------------------------------------------- pipelines


def train_bpe(
    ds: ray.data.Dataset,
    text_col: str = "text",
    num_merges: int = 200,
    min_count: int = 2,
    max_words: int = 100_000,
    model_dir: str | None = None,
) -> BPEModel:
    """One-shot training: distributed word counts → driver merges →
    (optionally) persisted artifact."""
    words, counts = corpus_word_counts(ds, text_col, min_count, max_words)
    model = train_bpe_from_counts(words, counts, num_merges)
    if model_dir:
        model.save(model_dir)
    return model


def encode_dataset(
    ds: ray.data.Dataset,
    model: BPEModel,
    text_col: str = "text",
    concurrency: int | tuple = (1, 8),
) -> ray.data.Dataset:
    """Streamed encode: broadcast the model once, actor pool with per-actor
    word caches."""
    ref = ray.put(model.payload())
    return ds.map_batches(
        BPEEncoder,
        fn_constructor_kwargs={"model_ref": ref, "text_col": text_col},
        batch_format="pyarrow",
        concurrency=concurrency,
        num_cpus=1,
    )


# --- incremental BPE over a committed table --------------------------------
#
# Word counts are additive across partitions exactly like NB class counts and
# LM n-gram counts, so the table tokenizer rides the shared artifact refresh
# (`state.artifacts`): cached (word, n) partials per pid, changed-partition-only
# refresh, compose == full recount at the same epoch. Training from composed
# counts is deterministic, so refresh-then-train == train-from-scratch.


def refresh_table_bpe(
    table_dir: str,
    model_dir: str,
    text_col: str = "text",
) -> dict:
    """Build/refresh per-partition word-count partials over a committed
    table's merged snapshot."""
    from ..state.artifacts import refresh_table_partials
    from ..state.manifest import load_manifest

    man = load_manifest(table_dir)
    if text_col not in man.schema.names:
        raise ValueError(f"column {text_col!r} not in table schema")
    params = {"artifact": "bpe", "text_col": text_col}

    return refresh_table_partials(
        table_dir, model_dir, params,
        lambda snap: word_count_partial(snap, text_col), columns=[text_col],
    )


def load_table_bpe(
    model_dir: str,
    num_merges: int = 200,
    min_count: int = 2,
    max_words: int = 100_000,
) -> BPEModel:
    """Compose the refreshed word-count partials (driver-side pandas groupby
    — the partial set is O(distinct words × partitions), already corpus-
    independent) and train merges deterministically."""
    import pyarrow.dataset as pds

    from ..state.artifacts import load_meta, partial_files

    files = partial_files(model_dir, load_meta(model_dir))
    if not files:  # an empty table refreshes to zero partial files
        return train_bpe_from_counts([], np.array([], dtype=np.int64), num_merges)
    t = pds.dataset(files, format="parquet").to_table(columns=["word", "n"]).to_pandas()
    g = t.groupby("word", sort=False)["n"].sum()
    g = g[g >= min_count]
    g = g.sort_values(ascending=False, kind="stable")
    # deterministic truncation: count desc then word asc (match
    # corpus_word_counts)
    df = g.reset_index()
    df = df.sort_values(
        ["n", "word"], ascending=[False, True], kind="stable"
    ).head(max_words)
    return train_bpe_from_counts(
        list(df["word"]), df["n"].to_numpy().astype(np.int64), num_merges
    )
