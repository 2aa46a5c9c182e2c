"""Table-derived artifacts: one registry and one refresh protocol.

Six artifact kinds follow a committed table partition by partition: the
BM25 token index, the IVF ANN index, the NB classifier, the n-gram LM and
BPE word counts (registered here in ``artifacts.json`` and refreshed by
``refresh_artifacts``, e.g. from ``apply --refresh-artifacts``), and the
upsert-table materialized views (``pipelines/mv.py``). Every one of them
is a per-partition partial derived from the partition's merged state, and
:func:`refresh_table_partials` is the only code that maintains them:

- **plan by recorded chains.** ``meta.json`` records each pid's manifest
  file chain. A pid whose chain is unchanged is never read or rewritten; a
  pid that left the manifest (TTL month drop, repartition) loses its
  partial. A missing meta, a layout change (partition count or spec) or a
  params change rebuilds everything. The plan never needs an old manifest
  version, so retention pruning cannot force a rebuild.
- **one venue rule.** Each changed pid is read with
  ``read_partition_final``, derived and written to a staging layout by one
  function: driver-side when the changed pids' manifest bytes total at
  most ``pipelines.apply.COMPACT_DRIVER_BYTES`` (the maintenance budget),
  otherwise on the engine's partition runner (``pipelines.apply._scan``:
  about one plain Ray task per CPU over byte-balanced runs of pids).
- **one commit.** Incremental: swap each changed pid's directory, remove
  partials of vanished pids, write meta. Full rebuild: derive the whole
  layout aside, remove meta, swap the layout, write meta. The live layout
  stays readable while a rebuild derives, and a crashed rebuild leaves no
  meta, so the next refresh rebuilds again.

Layout: ``<dest>/<layout>/pid=P/part.parquet`` (or ``bucket=B.parquet``
per bucket for the bucketed indexes) + ``<dest>/meta.json``. Readers list
files with :func:`partial_files`, which only opens pids meta commits.
Registration is declarative: params are stored, not re-passed per
refresh, so a cron/follow loop can't drift from the registered
hyperparameters (a param change is an explicit re-register, answered with
a full rebuild).
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..stages.merge import read_partition_final
from .manifest import atomic_json_write, load_manifest

ARTIFACTS_NAME = "artifacts.json"

# kind → (import path, callable) — resolved lazily so importing the
# registry never drags in every functions module
_KINDS = {
    "classifier": ("..functions.classifier", "refresh_table_classifier"),
    "lm": ("..functions.lm", "refresh_table_lm"),
    "ann": ("..functions.similarity", "refresh_table_ann_index"),
    "tokens": ("..functions.retrieval", "refresh_table_token_index"),
    "bpe": ("..functions.bpe", "refresh_table_bpe"),
}


def load_meta(dest: str, missing_ok: bool = False) -> dict | None:
    """An artifact's committed meta. Before its first commit: None when
    ``missing_ok``, else FileNotFoundError."""
    path = os.path.join(dest, "meta.json")
    if missing_ok and not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def partial_files(dest: str, meta: dict, buckets=None) -> list[str]:
    """Parquet files of the partials ``meta`` commits, pid by pid; with
    ``buckets``, only those buckets' files of a bucketed layout."""
    root = os.path.join(dest, meta["layout"])
    wanted = None if buckets is None else {f"bucket={b}.parquet" for b in buckets}
    out = []
    for pid in sorted(meta["chains"], key=int):
        d = os.path.join(root, f"pid={pid}")
        if os.path.isdir(d):
            out += [
                os.path.join(d, n) for n in sorted(os.listdir(d))
                if wanted is None or n in wanted
            ]
    return out


def _write_partial(d: str, t: pa.Table, bucketed: bool) -> None:
    """One pid's derived rows → ``d`` (nothing for an empty partial). A
    bucketed partial gets one file per ``bucket`` value, so a query opens
    only the buckets it needs."""
    if not t.num_rows:
        return
    os.makedirs(d)
    if not bucketed:
        pq.write_table(t, os.path.join(d, "part.parquet"))
        return
    b = t.column("bucket").to_numpy()
    order = np.argsort(b, kind="stable")
    b, t = b[order], t.take(order).drop_columns(["bucket"])
    cuts = [0, *(np.flatnonzero(np.diff(b)) + 1).tolist(), len(b)]
    for lo, hi in zip(cuts, cuts[1:]):
        pq.write_table(
            t.slice(lo, hi - lo), os.path.join(d, f"bucket={b[lo]}.parquet")
        )


def refresh_table_partials(
    table_dir: str,
    dest: str,
    params: dict,
    derive,
    columns: list[str] | None = None,
    layout: str = "partials",
    bucketed: bool = False,
    prepare=None,
) -> dict:
    """Build or incrementally refresh one artifact's per-pid partials
    (protocol in the module docstring). ``derive(merged partition) ->
    pa.Table`` makes one pid's partial; ``columns`` pushes projection into
    the partition reads. ``bucketed`` splits each partial by its ``bucket``
    column. ``prepare(root, full) -> derive`` is for a kind whose derive
    needs a model pinned in the layout: at a full rebuild it trains and
    saves the model under the staging ``root`` (committed by the same
    swap), otherwise it loads it from the live one.

    Returns ``params`` plus ``indexed_epoch`` and ``refreshed_pids``."""
    from ..pipelines import apply as apply_mod

    man = load_manifest(table_dir)
    old = load_meta(dest, missing_ok=True)
    chains = {p: list(v.get("files") or []) for p, v in man.partitions.items()}
    plan = {
        **params,
        "layout": layout,
        "num_partitions": man.num_partitions,
        "partition_spec": man.partition_spec,
    }
    full = old is None or any(old.get(k) != v for k, v in plan.items())
    recorded = {} if full else old["chains"]
    pids = sorted((p for p, f in chains.items() if recorded.get(p) != f), key=int)

    root = os.path.join(dest, layout)
    stage = root + ".tmp"
    shutil.rmtree(stage, ignore_errors=True)  # a crashed refresh's leftovers
    os.makedirs(stage)
    if prepare is not None:
        derive = prepare(stage if full else root, full)

    def work(run: list[int]) -> None:
        # both venues run this: each pid's merged state (collapse tables:
        # alive winners only) → its partial → files under ``stage``
        for pid in map(str, run):
            snap = read_partition_final(
                table_dir, chains[pid], man.schema, man.mode, man.sum_cols, columns
            )
            _write_partial(os.path.join(stage, f"pid={pid}"), derive(snap), bucketed)

    changed_bytes = sum(int(man.partitions[p].get("bytes") or 0) for p in pids)
    if changed_bytes <= apply_mod.COMPACT_DRIVER_BYTES:
        work(pids)
    else:
        import ray

        ray.get([ref for ref, in apply_mod._scan(work, man, list(map(int, pids)))])

    meta_path = os.path.join(dest, "meta.json")
    if full:
        # drop meta BEFORE the swap: a crash mid-swap must leave "no meta"
        # (next refresh rebuilds), never an old meta over new partials
        if os.path.exists(meta_path):
            os.remove(meta_path)
        shutil.rmtree(root, ignore_errors=True)
        os.replace(stage, root)
    else:
        # a crash mid-swap leaves the old meta: the swapped pids' chains
        # still differ from it, so the next refresh re-derives them
        os.makedirs(root, exist_ok=True)
        for pid in pids:
            dst = os.path.join(root, f"pid={pid}")
            shutil.rmtree(dst, ignore_errors=True)
            if os.path.isdir(src := os.path.join(stage, f"pid={pid}")):
                os.replace(src, dst)
        shutil.rmtree(stage)
    for name in os.listdir(root):  # partials of pids no longer in the table
        if name.startswith("pid=") and name[4:] not in chains:
            shutil.rmtree(os.path.join(root, name))
    atomic_json_write(meta_path, {**plan, "indexed_epoch": man.epoch, "chains": chains})
    return {**params, "indexed_epoch": man.epoch, "refreshed_pids": pids}


def _load(table_dir: str) -> dict:
    path = os.path.join(table_dir, ARTIFACTS_NAME)
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def register_artifact(
    table_dir: str, name: str, kind: str, dest: str, params: dict | None = None
) -> dict:
    """Register (or re-register — last write wins) a derived artifact.
    ``params`` are keyword arguments of the kind's refresher (validated
    here by name so a typo fails at registration, not at 3 a.m. refresh)."""
    if kind not in _KINDS:
        raise ValueError(f"unknown artifact kind {kind!r} (have {sorted(_KINDS)})")
    import inspect

    # every refresher is (table_dir, destination, **params)
    allowed = list(inspect.signature(_resolve(kind)).parameters)[2:]
    bad = set(params or {}) - set(allowed)
    if bad:
        raise ValueError(
            f"params {sorted(bad)} not accepted by {kind!r} "
            f"(allowed: {sorted(allowed)})"
        )
    doc = _load(table_dir)
    doc[name] = {"kind": kind, "dest": dest, "params": params or {}}
    atomic_json_write(os.path.join(table_dir, ARTIFACTS_NAME), doc)
    return doc[name]


def list_artifacts(table_dir: str) -> dict:
    return _load(table_dir)


def _resolve(kind: str):
    import importlib

    mod_path, fn_name = _KINDS[kind]
    mod = importlib.import_module(mod_path, package=__package__)
    return getattr(mod, fn_name)


def refresh_artifacts(table_dir: str) -> dict:
    """Refresh every registered artifact against the table's current epoch.
    Each refresher re-derives only the partitions whose chains changed (or
    no-ops when caught up), so calling this after every epoch costs
    O(changed partitions) per artifact. Returns {name: {kind, dest,
    refreshed_pids, indexed_epoch}}; a failing artifact aborts loudly (a
    silently stale index is worse than a failed refresh)."""
    out = {}
    for name, spec in sorted(_load(table_dir).items()):
        meta = _resolve(spec["kind"])(table_dir, spec["dest"], **spec["params"])
        out[name] = {
            "kind": spec["kind"],
            "dest": spec["dest"],
            "indexed_epoch": meta["indexed_epoch"],
            "refreshed_pids": meta["refreshed_pids"],
        }
    return out
