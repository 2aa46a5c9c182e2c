"""Seeded load generator: WAL segments in the engine's change-event layout.

The engine only ever sees the parquet segments written here. A stream is a
pure function of ``(StreamSpec, seed)``: the same seed gives byte-identical
segments. Op semantics are Debezium-style upserts, the same contract the
oracle replays: ``c``/``u`` set the whole row for a key, ``d`` removes it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import asdict, dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

CHANGE_SCHEMA = pa.schema(
    [
        pa.field("lsn", pa.int64()),
        pa.field("op", pa.string()),
        pa.field("doc_id", pa.string()),
        pa.field("tokens", pa.list_(pa.int32())),
        pa.field("n_tok", pa.int32()),
        pa.field("source", pa.string()),
    ]
)
SOURCES = ("web", "books", "code", "wiki", "chat")
VOCAB = 50_257
CACHE_KEEP = 6


@dataclass(frozen=True)
class StreamSpec:
    """Input properties of one workload's change stream."""

    base_events: int          # pure-insert prefix (the table's initial load)
    base_seg_events: int      # segment size inside the prefix
    tail_events: int          # mixed c/u/d events after the prefix
    tail_seg_events: int      # segment size after the prefix
    tok_min: int              # row length range, tokens per row
    tok_max: int
    mix: tuple[float, float, float] = (0.3, 0.6, 0.1)  # c/u/d after the prefix
    zipf_a: float = 1.2       # skew of u/d targets over inserted keys
    hot_keys: int = 0         # distinct keys sharing ONE table partition
    hot_share: float = 0.0    # share of u/d events aimed at the hot keys
    num_partitions: int = 16  # partition count the hot keys are routed for


@dataclass
class Stream:
    """A generated stream on disk plus the key facts lookups are drawn from."""

    dir: str
    segments: list[str]       # file names, LSN order
    seg_events: list[int]
    wal_bytes: list[int]
    n_inserted: int           # regular keys doc-000000000 .. n_inserted-1
    hot_keys: list[str]
    deleted_keys: list[str]   # keys that received at least one delete


def hot_key_names(n: int, num_partitions: int) -> list[str]:
    """``n`` key names that the engine routes to one partition. The engine's
    public router decides, so the skew lands on a partition whatever hash the
    engine uses."""
    from clickhouse_data_pipeline_ray.stages.partition import partition_of

    out, i = [], 0
    while len(out) < n:
        name = f"hot-{i:07d}"
        if partition_of(name, num_partitions) == 0:
            out.append(name)
        i += 1
    return out


def _segment_table(
    rng: np.random.Generator, lsn0: int, ops: np.ndarray, keys: list[str],
    spec: StreamSpec,
) -> pa.Table:
    n = len(ops)
    alive = ops != "d"
    lens = np.zeros(n, dtype=np.int64)
    lens[alive] = rng.integers(spec.tok_min, spec.tok_max + 1, int(alive.sum()))
    flat = rng.integers(0, VOCAB, int(lens.sum()), dtype=np.int32)
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(lens, out=offsets[1:])
    tokens = pa.ListArray.from_arrays(
        pa.array(offsets), pa.array(flat), mask=pa.array(~alive)
    )
    src = rng.integers(0, len(SOURCES), n)
    return pa.table(
        {
            "lsn": pa.array(np.arange(lsn0, lsn0 + n, dtype=np.int64)),
            "op": pa.array(ops.tolist(), pa.string()),
            "doc_id": pa.array(keys, pa.string()),
            "tokens": tokens,
            "n_tok": pa.array(lens.astype(np.int32), pa.int32(), mask=~alive),
            "source": pa.array(
                [SOURCES[s] if a else None for s, a in zip(src, alive)], pa.string()
            ),
        },
        schema=CHANGE_SCHEMA,
    )


def generate(out_dir: str, spec: StreamSpec, seed: int) -> Stream:
    """Write the stream's segments as ``seg-{first:012d}-{last:012d}.parquet``
    (dense LSNs from 1). The hot keys, when any, are inserted first."""
    rng = np.random.default_rng([seed, 0xCDC])
    os.makedirs(out_dir, exist_ok=True)
    hot = hot_key_names(spec.hot_keys, spec.num_partitions) if spec.hot_keys else []
    sizes = [spec.base_seg_events] * (spec.base_events // spec.base_seg_events)
    sizes += [spec.tail_seg_events] * (spec.tail_events // spec.tail_seg_events)
    n_ins, lsn = 0, 1
    deleted: set[str] = set()
    names, nbytes = [], []
    for n in sizes:
        if lsn <= spec.base_events:
            codes = np.zeros(n, dtype=np.int64)
        else:
            codes = rng.choice(3, size=n, p=spec.mix)
        targets = rng.zipf(spec.zipf_a, n)
        to_hot = rng.random(n) < spec.hot_share
        hot_pick = rng.integers(0, max(1, len(hot)), n)
        ops = np.array(["c", "u", "d"], dtype=object)[codes]
        keys: list[str] = []
        for j in range(n):
            if lsn + j <= len(hot):
                ops[j] = "c"
                keys.append(hot[lsn + j - 1])
            elif ops[j] == "c" or n_ins == 0:
                ops[j] = "c"
                keys.append(f"doc-{n_ins:09d}")
                n_ins += 1
            elif hot and to_hot[j]:
                keys.append(hot[hot_pick[j]])
            else:
                keys.append(f"doc-{(targets[j] - 1) % n_ins:09d}")
            if ops[j] == "d":
                deleted.add(keys[-1])
        table = _segment_table(rng, lsn, ops, keys, spec)
        name = f"seg-{lsn:012d}-{lsn + n - 1:012d}.parquet"
        pq.write_table(table, os.path.join(out_dir, name), compression="lz4")
        names.append(name)
        nbytes.append(os.path.getsize(os.path.join(out_dir, name)))
        lsn += n
    return Stream(out_dir, names, sizes, nbytes, n_ins, hot, sorted(deleted))


def cached_stream(cache_root: str, tag: str, spec: StreamSpec, seed: int) -> Stream:
    """Generate once per (workload, seed, spec) under ``cache_root``; later
    runs with the same key reuse the files. Only the ``CACHE_KEEP`` most
    recently used entries are retained, so the cache stays bounded."""
    key = hashlib.sha1(repr((asdict(spec), seed)).encode()).hexdigest()[:12]
    d = os.path.join(cache_root, f"{tag}-s{seed}-{key}")
    meta = os.path.join(d, "_DONE.json")
    if os.path.exists(meta):
        with open(meta) as f:
            doc = json.load(f)
        os.utime(d)
        return Stream(d, **doc)
    shutil.rmtree(d, ignore_errors=True)
    stream = generate(d, spec, seed)
    with open(meta, "w") as f:
        doc = asdict(stream)
        doc.pop("dir")
        json.dump(doc, f)
    entries = sorted(
        (os.path.join(cache_root, e) for e in os.listdir(cache_root)),
        key=os.path.getmtime,
    )
    for old in entries[:-CACHE_KEEP]:
        shutil.rmtree(old, ignore_errors=True)
    return stream
