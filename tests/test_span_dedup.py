"""Corpus-level repeated-span dedup (functions/dedup.py span_dedup — the
substring-dedup role of Lee et al. 2021): every duplicated k-word window
keeps only its canonical (min (key, pos)) occurrence; removed-word masks
union across overlapping windows. Oracle: a direct per-contract Python
recompute over the same corpus."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from clickhouse_data_pipeline_ray.functions.dedup import span_dedup

SPAN = 4


def _oracle(docs: dict[str, str], span: int = SPAN) -> dict[str, tuple[str, int]]:
    """Straight from the contract, no vectorization: windows by word, dup
    detection on exact word-tuples, canonical = min (key, pos)."""
    occ: dict[tuple, list[tuple[str, int]]] = {}
    for k in sorted(docs):
        words = docs[k].split()
        for p in range(max(0, len(words) - span + 1)):
            occ.setdefault(tuple(words[p : p + span]), []).append((k, p))
    removed: dict[str, set[int]] = {k: set() for k in docs}
    for _w, places in occ.items():
        if len(places) < 2:
            continue
        places = sorted(places)
        for k, p in places[1:]:
            removed[k].update(range(p, p + span))
    out = {}
    for k, text in docs.items():
        words = text.split()
        dead = {i for i in removed[k] if i < len(words)}
        kept = [w for i, w in enumerate(words) if i not in dead]
        out[k] = (" ".join(kept), len(dead))
    return out


def _run(docs: dict[str, str], num_blocks=2, **kw) -> dict[str, tuple[str, int]]:
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(sorted(docs), pa.string()),
                "text": pa.array([docs[k] for k in sorted(docs)], pa.string()),
            }
        )
    ).repartition(num_blocks)
    t = pa.concat_tables(
        [b for b in span_dedup(ds, span=SPAN, **kw).iter_batches(batch_format="pyarrow")]
    )
    return {
        k: (c, r)
        for k, c, r in zip(
            t.column("doc_id").to_pylist(),
            t.column("text_clean").to_pylist(),
            t.column("n_removed_words").to_pylist(),
        )
    }


def _mk_corpus():
    boiler = "the quick brown fox jumps over lazy dogs"  # 8 words
    return {
        "a": f"alpha beta {boiler} gamma delta",
        "b": f"one two three {boiler} four five",          # dup span, later key
        "c": "totally unique words nothing repeats here at all",
        "d": f"{boiler} prefix copy of the boilerplate run",
        "e": "self self self self self self self self self",  # self-repetition
        "f": "tiny doc",                                    # < span words
    }


def test_matches_contract_oracle(ray_session):
    docs = _mk_corpus()
    got = _run(docs)
    want = _oracle(docs)
    assert got == want
    # the planted boilerplate really was removed from the non-canonical docs
    assert got["a"][1] == 0 or got["b"][1] > 0  # canonical holder keeps it
    assert sum(r for _c, r in got.values()) > 0


def test_partitioning_invariance(ray_session):
    docs = _mk_corpus()
    assert _run(docs, num_blocks=1) == _run(docs, num_blocks=6)
    assert _run(docs, num_blocks=1, num_buckets=3) == _run(docs, num_blocks=1)


def test_no_duplicates_is_identity(ray_session):
    docs = {
        "x": "completely fresh words with no repetition anywhere in sight",
        "y": "another entirely different sentence of unique vocabulary items",
    }
    got = _run(docs)
    for k, (clean, removed) in got.items():
        assert clean == docs[k] and removed == 0


def test_self_repetition_within_one_doc(ray_session):
    docs = {"solo": "ping pong ding dong ping pong ding dong tail words here x"}
    got = _run(docs)
    want = _oracle(docs)
    assert got == want
    assert got["solo"][1] > 0  # the second occurrence's words were removed


def test_short_docs_untouched(ray_session):
    docs = {"s1": "one two three", "s2": "one two three"}  # < span words
    got = _run(docs)
    assert got["s1"] == ("one two three", 0)
    assert got["s2"] == ("one two three", 0)


def test_randomized_corpora_match_oracle(ray_session):
    """Seeded random corpora with injected duplications (shared spans at
    random offsets, self-repetitions, near-misses one word off) must equal
    the per-contract oracle exactly."""
    rng = np.random.default_rng(123)
    vocab = [f"w{i}" for i in range(40)]
    for trial in range(8):
        docs = {}
        n_docs = int(rng.integers(4, 10))
        for i in range(n_docs):
            n = int(rng.integers(0, 30))
            docs[f"d{i:02d}"] = " ".join(rng.choice(vocab, size=n))
        # inject a shared span into a random subset at random offsets
        span_words = " ".join(rng.choice(vocab, size=SPAN + 2))
        for i in rng.choice(n_docs, size=min(3, n_docs), replace=False):
            k = f"d{i:02d}"
            words = docs[k].split()
            at = int(rng.integers(0, len(words) + 1))
            docs[k] = " ".join(words[:at] + span_words.split() + words[at:])
        got = _run(docs, num_blocks=int(rng.integers(1, 5)))
        want = _oracle(docs)
        assert got == want, f"trial {trial}: {got} != {want}"


def test_null_text_document_survives(ray_session):
    """A null-text document is a document, not a removal row: it comes back
    with null text_clean and nothing removed, beside deduplicated peers."""
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(["a", "b", "n"], pa.string()),
                "text": pa.array(
                    ["x y z w v", "x y z w u", None], pa.string()
                ),
            }
        )
    )
    t = pa.concat_tables(
        list(span_dedup(ds, span=SPAN).iter_batches(batch_format="pyarrow"))
    )
    got = {
        k: (c, r)
        for k, c, r in zip(
            t.column("doc_id").to_pylist(),
            t.column("text_clean").to_pylist(),
            t.column("n_removed_words").to_pylist(),
        )
    }
    assert got["n"] == (None, 0)
    assert got["a"] == ("x y z w v", 0)
    assert got["b"] == ("u", 4)
