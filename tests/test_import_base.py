"""Initial load (Debezium snapshot-phase analog): seed an empty table from a
Parquet corpus at lsn=0, then tail the WAL — any logged event on an imported
key wins LWW."""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    create_table,
    import_base,
    replay,
    snapshot_table,
)
from clickhouse_data_pipeline_ray.sources.gen import GenParams, generate_wal

from .helpers import replay_oracle


def test_import_then_tail(ray_session, tmp_path):
    # corpus in testdata shape: (doc_id:int64!, text, ...) -> key cast to string
    docs = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id"]
    ).slice(0, 200)
    corpus = pa.table(
        {
            "doc_id": docs.column("doc_id"),
            "tokens": pa.array([[i, i + 1] for i in range(200)], pa.list_(pa.int32())),
            "source": pa.array(["imported"] * 200),
        }
    )
    corpus_path = str(tmp_path / "corpus.parquet")
    pq.write_table(corpus, corpus_path)

    table_dir = str(tmp_path / "t")
    create_table(table_dir, num_partitions=4)
    stats = import_base(table_dir, corpus_path)
    assert stats["rows"] == 200

    snap = snapshot_table(table_dir)
    assert snap.num_rows == 200
    assert pc.all(pc.equal(snap.column("lsn"), pa.scalar(0, pa.int64()))).as_py()
    assert snap.column("n_tok").to_pylist() == [2] * 200  # recomputed

    # tail a WAL: logged keys are disjoint from imported ones (generator key
    # space is 'web-...' style vs int-string ids), so final = import + log
    wal = str(tmp_path / "wal")
    generate_wal(wal, GenParams(total_events=2_000, base_events=500,
                                events_per_segment=500, seed=97,
                                tok_min=4, tok_max=16))
    replay(table_dir, wal, ApplyConfig(salt_factor=1))
    final = snapshot_table(table_dir)
    oracle = replay_oracle(wal)
    assert final.num_rows == 200 + oracle.num_rows
    imported = final.filter(pc.equal(final.column("lsn"), pa.scalar(0, pa.int64())))
    assert imported.num_rows == 200


def test_import_requires_empty_table(ray_session, tmp_path):
    corpus_path = str(tmp_path / "c.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(["a"]), "tokens": pa.array([[1]], pa.list_(pa.int32())),
                  "source": pa.array(["s"])}),
        corpus_path,
    )
    table_dir = str(tmp_path / "t")
    create_table(table_dir, num_partitions=2)
    import_base(table_dir, corpus_path)
    with pytest.raises(ValueError, match="empty table"):
        import_base(table_dir, corpus_path)


def test_import_rejects_duplicate_keys(ray_session, tmp_path):
    corpus = pa.table(
        {
            "doc_id": pa.array(["a", "b", "a"]),
            "tokens": pa.array([[1], [2], [3]], pa.list_(pa.int32())),
            "source": pa.array(["s"] * 3),
        }
    )
    corpus_path = str(tmp_path / "dup.parquet")
    pq.write_table(corpus, corpus_path)
    table_dir = str(tmp_path / "t")
    create_table(table_dir, num_partitions=2)
    with pytest.raises(Exception, match="duplicate key"):
        import_base(table_dir, corpus_path)


def test_import_rejects_a_duplicate_key_across_files(ray_session, tmp_path):
    """A directory corpus whose duplicate key sits in two files, so two
    read tasks route it to one merge call: the import raises "duplicate
    key" and commits nothing, and the same table then imports the corpus
    without the duplicate. Marker and hidden files are not read."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()

    def part(name: str, keys: list[str]) -> None:
        pq.write_table(pa.table({
            "doc_id": pa.array(keys),
            "tokens": pa.array([[i] for i in range(len(keys))], pa.list_(pa.int32())),
            "source": pa.array(["s"] * len(keys)),
        }), str(corpus / name))

    part("part-0.parquet", [f"k{i}" for i in range(50)])
    part("part-1.parquet", [f"k{i}" for i in range(50, 100)] + ["k7"])
    (corpus / "_SUCCESS").write_text("")
    (corpus / ".part-1.parquet.crc").write_text("not parquet")
    table_dir = str(tmp_path / "t")
    create_table(table_dir, num_partitions=4)
    with pytest.raises(ValueError, match="duplicate key"):
        import_base(table_dir, str(corpus))
    assert snapshot_table(table_dir).num_rows == 0

    part("part-1.parquet", [f"k{i}" for i in range(50, 100)])
    assert import_base(table_dir, str(corpus))["rows"] == 100
    assert snapshot_table(table_dir).num_rows == 100
