"""One store for the standalone bucketed indexes.

Six indexes keep their rows as bucket-partitioned parquet plus a
``meta.json``: the fingerprint, MinHash and embedding dedup ledgers
(``functions/dedup.py``, one layout per ledger part), the BM25 text index
(``functions/retrieval.py``) and the IVF and PQ indexes
(``functions/similarity.py``). A layout is ``<dest>/<col>=<bucket>/*.parquet``;
this module writes and lists it, and the meta is written with
``state.manifest.atomic_json_write``.

Two commit rules keep a reader from ever seeing rows without the meta that
describes them:

- **ledger part, then meta.** A ledger swaps in a new part and only then
  writes the meta that names it. A crash in between leaves an orphan part
  directory that no probe opens.
- **whole-store rebuild: drop meta, swap, write meta.** The text, IVF and
  PQ builds stage the new layout, remove the live meta, swap the layout in
  and write the new meta last (``swap_in(..., drop_meta=index_dir)``).
  The old index answers while the new one is staged; a rebuild that dies
  after that leaves an index that raises on read until it is rebuilt,
  never one that answers from a mismatched meta.
"""

from __future__ import annotations

import os
import shutil


def swap_in(ds, dest: str, bucket_col: str, drop_meta: str | None = None) -> None:
    """Write ``ds`` partitioned by ``bucket_col`` into ``dest + ".tmp"``,
    then swap it into ``dest``. A zero-row Dataset writes no files, so it
    commits an empty layout. ``drop_meta`` (a whole-store rebuild) is the
    index directory whose ``meta.json`` is removed between the staged
    write and the swap: from then until the caller writes the new meta the
    index raises on read."""
    stage = dest + ".tmp"
    shutil.rmtree(stage, ignore_errors=True)  # a crashed build's leftovers
    ds.write_parquet(stage, partition_cols=[bucket_col])
    os.makedirs(stage, exist_ok=True)
    if drop_meta is not None and os.path.exists(meta := os.path.join(drop_meta, "meta.json")):
        os.remove(meta)
    shutil.rmtree(dest, ignore_errors=True)
    os.replace(stage, dest)


def bucket_files(root: str, bucket_col: str, bucket: int) -> list[str]:
    """The sorted ``.parquet`` files of one bucket of the layout at
    ``root`` (none when the bucket holds no rows)."""
    d = os.path.join(root, f"{bucket_col}={bucket}")
    if not os.path.isdir(d):
        return []
    return [os.path.join(d, f) for f in sorted(os.listdir(d)) if f.endswith(".parquet")]

