"""Artifact registry: one place that knows every derived artifact a table
maintains, so one call (or one ``apply --refresh-artifacts`` flag) keeps
them ALL fresh after each CDC epoch.

The engine grew four incrementally maintained derived-artifact families —
the BM25 token index, the IVF ANN index, the NB classifier partials, and
the n-gram LM partials — each refreshing changed-partitions-only via the
manifest diff. This registry records (kind, destination, params) per
artifact in ``artifacts.json`` beside the table's manifest (atomic
write), and ``refresh_artifacts`` dispatches each
to its refresher. Registration is declarative: params are stored, not
re-passed per refresh, so a cron/follow loop can't drift from the
registered hyperparameters (a param change is an explicit re-register,
which the underlying refreshers answer with a clean full rebuild).
"""

from __future__ import annotations

import json
import os

from .manifest import atomic_json_write

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
    fn = _resolve(kind)
    import inspect

    allowed = set(inspect.signature(fn).parameters) - {"table_dir"}
    bad = set(params or {}) - allowed
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
    Each refresher prunes to changed partitions itself (or no-ops when
    caught up), so calling this after every epoch costs O(changed
    partitions) per artifact. Returns {name: {kind, refreshed_pids,
    indexed_epoch}}; a failing artifact aborts loudly (a silently stale
    index is worse than a failed refresh)."""
    out = {}
    for name, spec in sorted(_load(table_dir).items()):
        fn = _resolve(spec["kind"])
        second = (
            "model_dir"
            if spec["kind"] in ("classifier", "lm", "bpe")
            else "index_dir"
        )
        meta = fn(table_dir, **{second: spec["dest"]}, **spec["params"])
        out[name] = {
            "kind": spec["kind"],
            "dest": spec["dest"],
            "indexed_epoch": meta.get("indexed_epoch"),
            "refreshed_pids": meta.get("refreshed_pids", []),
        }
    return out
