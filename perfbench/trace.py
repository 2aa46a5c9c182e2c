"""Spans around the calls into each engine layer, recorded from outside the
package.

``Tracer.install`` swaps the engine's module-level entry points (the names
``pipelines.apply`` resolves at call time) for thin wrappers; ``uninstall``
puts the originals back. Driver-side spans are kept in memory. The merge,
compaction and normalize wrappers also run inside Ray workers: there each call
appends its span to ``$PERFBENCH_TRACE_DIR/spans-<pid>.jsonl``, and
``Tracer.collect`` reads those files back at the end. Times are
``time.perf_counter`` (CLOCK_MONOTONIC, shared by all processes on a host).
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import time

import pyarrow as pa

from clickhouse_data_pipeline_ray.pipelines import apply as apply_mod
from clickhouse_data_pipeline_ray.stages import merge as merge_mod
from clickhouse_data_pipeline_ray.state import manifest as manifest_mod

TRACE_ENV = "PERFBENCH_TRACE_DIR"

# the driver's active tracer; None in Ray workers, whose spans go to files
_ACTIVE: "Tracer | None" = None


def emit(name: str, t0: float, t1: float, **attrs) -> None:
    span = {"name": name, "t0": t0, "t1": t1, "proc": os.getpid(), **attrs}
    if _ACTIVE is not None:
        _ACTIVE.spans.append(span)
        return
    path = os.path.join(os.environ[TRACE_ENV], f"spans-{os.getpid()}.jsonl")
    with open(path, "a") as f:
        f.write(json.dumps(span) + "\n")


class TracedNormalize:
    """Wraps the per-epoch normalize fn (stateless Ray tasks, or the driver on
    the micro-epoch path)."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, batch: pa.Table) -> pa.Table:
        t0 = time.perf_counter()
        out = self.fn(batch)
        emit("normalize", t0, time.perf_counter(),
             rows_in=batch.num_rows, rows_out=out.num_rows)
        return out


class TracedMergeApply(merge_mod.MergeApply):
    """One span per partition group merged."""

    def __call__(self, group: pa.Table) -> pa.Table:
        t0 = time.perf_counter()
        out = super().__call__(group)
        t1 = time.perf_counter()
        row = out.to_pylist()[0]
        old = (self.partitions.get(str(row["pid"])) or {}).get("files") or []
        new = row["new_file"]
        nbytes = 0
        if new:
            tmp = os.path.join(self.table_dir, new + ".tmp")
            nbytes = os.path.getsize(tmp if os.path.exists(tmp) else
                                     os.path.join(self.table_dir, new))
        emit("merge", t0, t1, pid=int(row["pid"]), rows_in=group.num_rows,
             applied=int(row["applied"]), bytes=nbytes,
             compaction=bool(new) and "snapshot-" in new and bool(old))
        return out


class TracedCompactWorker(merge_mod.CompactWorker):
    """One span per compaction call (a batch of partitions)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        t0 = time.perf_counter()
        out = super().__call__(batch)
        emit("compact", t0, time.perf_counter(), pids=out.num_rows,
             bytes=int(sum(out.column("bytes").to_pylist())))
        return out


class Tracer:
    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.spans: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []

    @property
    def active(self) -> bool:
        return _ACTIVE is self

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Driver-side span around a call the benchmark makes itself; the
        body may add attributes to the yielded dict."""
        t0 = time.perf_counter()
        extra: dict = {}
        try:
            yield extra
        finally:
            emit(name, t0, time.perf_counter(), **attrs, **extra)

    def _timed(self, name: str, fn, count=None):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            attrs = {"n": count(out)} if count else {}
            emit(name, t0, time.perf_counter(), **attrs)
            return out

        return wrapper

    def _swap(self, module, attr: str, new) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self) -> None:
        global _ACTIVE
        os.makedirs(self.trace_dir, exist_ok=True)
        make_normalize = apply_mod.make_normalize_fn
        self._swap(apply_mod, "make_normalize_fn",
                   lambda *a, **k: TracedNormalize(make_normalize(*a, **k)))
        self._swap(apply_mod, "pending_segments",
                   self._timed("wal.pending", apply_mod.pending_segments, len))
        self._swap(apply_mod, "MergeApply", TracedMergeApply)
        self._swap(merge_mod, "CompactWorker", TracedCompactWorker)
        self._swap(apply_mod, "promote_part",
                   self._timed("promote", apply_mod.promote_part))
        self._swap(apply_mod, "commit_manifest",
                   self._timed("manifest", apply_mod.commit_manifest))
        self._swap(manifest_mod, "gc_stale_files",
                   self._timed("gc", manifest_mod.gc_stale_files, int))
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)
        _ACTIVE = None

    def collect(self) -> list[dict]:
        """Driver spans plus every span the workers wrote, by start time."""
        spans = list(self.spans)
        for path in glob.glob(os.path.join(self.trace_dir, "spans-*.jsonl")):
            with open(path) as f:
                spans.extend(json.loads(line) for line in f)
        return sorted(spans, key=lambda s: s["t0"])


_CHILDREN = ("wal.pending", "normalize", "merge", "promote", "manifest", "gc")


def _dur(s: dict) -> float:
    return s["t1"] - s["t0"]


def layer_metrics(spans: list[dict], driver_pid: int) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans. Child spans belong to
    the ``apply`` span (one ``apply_once`` call) whose interval holds their
    start; worker spans count as children too, which is a valid serial
    residual because every process shares one core's worth of work."""
    from .measure import require_percentile

    by: dict[str, list[dict]] = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)
    applies = [a for a in by.get("apply", []) if a.get("events", 0) > 0]
    kids: dict[int, list[dict]] = {id(a): [] for a in applies}
    for s in spans:
        if s["name"] in _CHILDREN:
            for a in applies:
                if a["t0"] <= s["t0"] <= a["t1"]:
                    kids[id(a)].append(s)
                    break

    def total(name: str, key: str | None = None) -> float:
        return float(sum(s[key] if key else _dur(s) for s in by.get(name, [])))

    self_s = {id(a): _dur(a) - sum(_dur(k) for k in kids[id(a)]) for a in applies}
    distributed = [
        a for a in applies
        if any(k["proc"] != driver_pid and k["name"] in ("normalize", "merge")
               for k in kids[id(a)])
    ]
    skew = []
    for a in applies:
        rows = [k["rows_in"] for k in kids[id(a)] if k["name"] == "merge"]
        if len(rows) > 1:
            skew.append(max(rows) * len(rows) / sum(rows))
    merges = by.get("merge", [])
    comp_merges = [m for m in merges if m["compaction"]]
    rows_in = total("normalize", "rows_in")
    lookups = by.get("lookup", [])
    keys = sum(s["keys"] for s in lookups)
    return {
        "normalize.busy_s": total("normalize"),
        "normalize.rows_in": rows_in,
        "normalize.rows_out": total("normalize", "rows_out"),
        "normalize.keep_ratio": total("normalize", "rows_out") / rows_in if rows_in else 0.0,
        "partition.hot_pids": float(sum(a["hot_pids"] for a in applies)),
        "partition.pid_rows_max_over_mean": float(sorted(skew)[len(skew) // 2]) if skew else 0.0,
        "apply.epochs": float(len(applies)),
        "apply.distributed_epochs": float(len(distributed)),
        "apply.wall_s": float(sum(_dur(a) for a in applies)),
        "apply.execute_s": float(sum(self_s.values())),
        "apply.shuffle_other_s": float(sum(self_s[id(a)] for a in distributed)),
        "merge.calls": float(len(merges)),
        "merge.busy_s": total("merge"),
        "merge.call_p90_s": require_percentile([_dur(m) for m in merges], 0.9, "merge.call_p90_s"),
        "merge.rows_applied": total("merge", "applied"),
        "merge.bytes_written": total("merge", "bytes"),
        "merge.compactions": float(len(comp_merges)),
        "wal.pending_s": total("wal.pending"),
        "wal.segments_per_epoch_max": float(max((a["segments"] for a in applies), default=0)),
        "commit.promote_s": total("promote"),
        "commit.manifest_s": total("manifest"),
        "commit.gc_s": total("gc"),
        "commit.gc_files": total("gc", "n"),
        "commit.retries": float(sum(a.get("retries", 0) for a in by.get("apply", []))),
        "compact.calls": total("compact", "pids") + len(comp_merges),
        "compact.s": total("compact") + sum(_dur(m) for m in comp_merges),
        "compact.bytes_rewritten": total("compact", "bytes") + sum(m["bytes"] for m in comp_merges),
        "lookup.calls": float(len(lookups)),
        "lookup.files_per_key": total("lookup", "files_per_key") / len(lookups) if lookups else 0.0,
        "lookup.hit_frac": total("lookup", "rows") / keys if keys else 0.0,
        "scan.calls": float(len(by.get("scan", []))),
        "scan.s": total("scan"),
        "scan.files_read": total("scan", "files"),
    }
