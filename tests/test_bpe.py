"""Learned BPE tokenizer: distributed word counts + deterministic merges.

Training oracle: the classic Sennrich (2016) worked example — the corpus
{low×5, lower×2, newest×6, widest×3} has a provable merge sequence
(es, est, est</w>, lo, low) under count-desc/lex-asc tie-breaking. The
distributed word-count pass is pinned to a Counter oracle; incremental
table partials compose equal to a from-scratch recount.
"""

import collections
import re

import numpy as np
import pyarrow as pa
import pytest

from clickhouse_data_pipeline_ray.functions.bpe import (
    SPLIT_RE,
    BPEModel,
    corpus_word_counts,
    encode_dataset,
    load_table_bpe,
    refresh_table_bpe,
    train_bpe,
    train_bpe_from_counts,
    word_count_partial,
)

from .helpers import force_ray_venue

SENNRICH = (["low", "lower", "newest", "widest"], np.array([5, 2, 6, 3]))


def test_sennrich_worked_example():
    model = train_bpe_from_counts(*SENNRICH, num_merges=5)
    assert model.merges == [
        ("e", "s"),        # 6 + 3 = 9
        ("es", "t"),       # 9
        ("est", "</w>"),   # 9
        ("l", "o"),        # 7, ties ("o","w") → lexicographically smaller
        ("lo", "w"),       # 7
    ]
    # encode a word the model never saw: "lowest" → low + est</w>
    assert model.encode_word("lowest") == ["low", "est</w>"]
    # all pieces are in the vocab, ids are stable and non-negative
    ids = model.encode_word_ids("lowest")
    assert all(i >= 0 for i in ids)
    inv = {v: k for k, v in model.vocab.items()}
    assert [inv[i] for i in ids] == ["low", "est</w>"]


def test_merges_deterministic_and_exhaustion():
    m1 = train_bpe_from_counts(*SENNRICH, num_merges=1000)
    m2 = train_bpe_from_counts(*SENNRICH, num_merges=1000)
    assert m1.merges == m2.merges  # runs out of pairs, stops early
    # every training word now encodes to exactly one token
    for w in SENNRICH[0]:
        assert m1.encode_word(w) == [w + "</w>"]


def test_encode_roundtrip_reconstructs_word():
    model = train_bpe_from_counts(*SENNRICH, num_merges=3)
    for w in ["low", "newest", "wildest", "stow"]:
        pieces = model.encode_word(w)
        assert "".join(pieces).replace("</w>", "") == w


def test_save_load_roundtrip(tmp_path):
    model = train_bpe_from_counts(*SENNRICH, num_merges=5)
    model.save(str(tmp_path / "m"))
    loaded = BPEModel.load(str(tmp_path / "m"))
    assert loaded.merges == model.merges
    assert loaded.vocab == model.vocab
    assert loaded.encode_word("lowest") == model.encode_word("lowest")


def test_word_count_partial_matches_counter():
    texts = [
        "the cat sat on the mat",
        "the dog ate the cat's dinner!",
        "42 cats, 7 dogs...",
        "",
    ]
    batch = pa.table({"text": pa.array(texts, pa.string())})
    got = word_count_partial(batch)
    want = collections.Counter(
        w for t in texts for w in re.split(SPLIT_RE, t) if w
    )
    assert dict(
        zip(got.column("word").to_pylist(), got.column("n").to_pylist())
    ) == dict(want)


def test_corpus_word_counts_distributed_matches_counter(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(50)]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(3, 30)))
        for _ in range(400)
    ]
    ds = rd.from_arrow(pa.table({"text": texts})).repartition(8)
    words, counts = corpus_word_counts(ds, min_count=1, max_words=10_000)
    want = collections.Counter(w for t in texts for w in t.split())
    assert dict(zip(words, counts.tolist())) == dict(want)
    # sorted count-desc, word-asc
    pairs = list(zip(counts.tolist(), words))
    assert pairs == sorted(pairs, key=lambda p: (-p[0], p[1]))


def test_train_and_encode_dataset(ray_session, tmp_path):
    import ray.data as rd

    ds = rd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["text"]
    )
    model = train_bpe(
        ds, num_merges=50, min_count=2, max_words=5_000,
        model_dir=str(tmp_path / "m"),
    )
    assert len(model.merges) == 50
    enc = encode_dataset(
        rd.read_parquet("/root/testdata/sf0.001/documents.parquet"),
        model,
    ).take(5)
    for row in enc:
        assert row["n_bpe_pieces"] == len(row["bpe_ids"])
        assert row["n_bpe_pieces"] > 0
    # determinism across retrains
    model2 = train_bpe(ds, num_merges=50, min_count=2, max_words=5_000)
    assert model2.merges == model.merges


def test_table_bpe_incremental_composes_to_retrain(ray_session, tmp_path):
    """Partials refreshed over a committed table, then updated after more
    WAL epochs, must train the SAME model as a from-scratch count at the
    final epoch (the classifier/LM compose-equals-retrain contract)."""
    from clickhouse_data_pipeline_ray.pipelines.apply import (
        ApplyConfig,
        create_table,
        replay,
        snapshot_table,
    )
    from clickhouse_data_pipeline_ray.sources.gen import GenParams, generate_wal

    wal = str(tmp_path / "wal")
    generate_wal(wal, GenParams(total_events=2_000, events_per_segment=500))
    table = str(tmp_path / "t")
    create_table(table, num_partitions=4)
    cfg = ApplyConfig(max_segments=2)
    replay(table, wal, cfg, final_compact=False)

    model_dir = str(tmp_path / "bpe")
    # docs tables carry token lists, not text — use source as a tiny text col
    meta1 = refresh_table_bpe(table, model_dir, text_col="source")
    assert set(meta1["refreshed_pids"]) == {0, 1, 2, 3} or len(
        meta1["refreshed_pids"]
    ) == 4
    m_inc = load_table_bpe(model_dir, num_merges=20, min_count=1)

    # from-scratch oracle over the merged snapshot
    snap = snapshot_table(table)
    want = collections.Counter(
        w
        for t in snap.column("source").to_pylist()
        for w in re.split(SPLIT_RE, t or "")
        if w
    )
    items = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))
    m_full = train_bpe_from_counts(
        [w for w, _ in items], np.array([c for _, c in items]), num_merges=20
    )
    assert m_inc.merges == m_full.merges

    # second refresh with no new epochs: no partition re-derived
    meta2 = refresh_table_bpe(table, model_dir, text_col="source")
    assert meta2["refreshed_pids"] == []



def test_table_bpe_incremental_composes_to_retrain_ray_venue(
    ray_session, tmp_path, monkeypatch
):
    """The same refresh with every per-pid derive in the Ray Data venue."""
    force_ray_venue(monkeypatch)
    test_table_bpe_incremental_composes_to_retrain(ray_session, tmp_path)


def test_empty_table_partials_compose_cleanly(ray_session, tmp_path):
    """An EMPTY table's refresh writes zero partial files; every composer
    must handle the schema-less partials dir: BPE/LM compose zero-count
    models, the classifier fails loudly with its no-documents contract
    (scoring with zero classes is meaningless)."""
    from clickhouse_data_pipeline_ray.functions.classifier import (
        load_table_model,
        refresh_table_classifier,
    )
    from clickhouse_data_pipeline_ray.functions.lm import (
        load_table_lm,
        refresh_table_lm,
    )
    from clickhouse_data_pipeline_ray.pipelines.apply import create_table

    table = str(tmp_path / "t")
    create_table(table, num_partitions=2)

    m = str(tmp_path / "bpe")
    refresh_table_bpe(table, m, text_col="source")
    model = load_table_bpe(m, num_merges=5)
    assert model.merges == [] and list(model.vocab) == ["</w>"]

    m2 = str(tmp_path / "lm")
    refresh_table_lm(table, m2, feature_col="tokens")
    assert load_table_lm(m2).n_tokens == 0

    m3 = str(tmp_path / "clf")
    refresh_table_classifier(table, m3, label_col="source", feature_col="tokens")
    with pytest.raises(ValueError, match="no training documents"):
        load_table_model(m3)
