"""Table integrity check — the lake's fsck.

Verifies a committed table's manifest ↔ filesystem invariants (the things
the exactly-once commit protocol promises) and reports findings instead of
assuming them:

- ``missing_file``   (error): a file referenced by a retained manifest is
  gone from disk — time-travel or HEAD reads would fail. Can't be repaired;
  restore from the WAL via replay.
- ``row_mismatch``   (error): a clean single-snapshot partition whose
  parquet footer row count disagrees with the manifest's exact row count.
- ``orphan_file``    (warn): a parts/ file no retained manifest references
  — a crashed or losing writer's leftovers. Parts stamped with an epoch
  newer than the head belong to a writer still at work and are not
  reported. ``repair=True`` removes orphans with the post-commit GC itself.
- ``tmp_leftover``   (warn): an unreferenced ``*.tmp*`` file (interrupted
  writes of an older engine layout); removed on repair like an orphan.
- ``watermark_skew`` (warn): per-partition LSN watermarks differ — legal
  mid-crash (merge re-filters per pid) but never after a clean commit.
- ``bad_history``    (error): manifest history epochs not strictly
  increasing or head epoch mismatched.
- ``bad_epoch``      (warn): a retained historical manifest that fails to
  load (time travel to it is gone; HEAD is unaffected).

Everything here is parquet-FOOTER / manifest metadata work — no data pages
are read, so fsck on a huge table costs O(files) metadata reads."""

from __future__ import annotations

import os

import pyarrow.parquet as pq

from .manifest import (
    Manifest,
    commit_manifest,
    gc_stale_files,
    load_manifest,
    retained_epochs,
    stale_files,
)


def fsck_table(table_dir: str, repair: bool = False) -> dict:
    """Check a table; with ``repair=True`` also fix what can be fixed. Both
    run lock-free beside live writers: orphans are exactly what
    ``gc_stale_files`` removes (an in-flight writer's parts are stamped
    newer than the head and never count), and a metadata repair commits
    ``epoch+1`` through the normal put, so it loses cleanly to a racing
    writer (ConcurrentCommitError) instead of overwriting its commit."""
    man = load_manifest(table_dir)
    findings: list[dict] = []
    manifest_dirty = False  # a repair edited manifest state (not just disk)

    def add(check: str, severity: str, detail: str) -> None:
        findings.append(
            {"check": check, "severity": severity, "detail": detail}
        )

    # referenced files across HEAD + retained history
    manifests: list[tuple[int, Manifest]] = [(man.epoch, man)]
    for ep in retained_epochs(table_dir):
        if ep == man.epoch:
            continue
        try:
            manifests.append((ep, load_manifest(table_dir, epoch=ep)))
        except Exception as e:  # unreadable history: time travel hole
            add("bad_epoch", "warn", f"epoch {ep} manifest unreadable: {e}")
    for ep, m in manifests:
        for pid, part in m.partitions.items():
            for f in part.get("files") or []:
                if not os.path.exists(os.path.join(table_dir, f)):
                    add(
                        "missing_file",
                        "error",
                        f"epoch {ep} pid {pid}: {f} referenced but absent",
                    )

    # filesystem walk: orphans + tmps
    parts_root = os.path.join(table_dir, "parts")
    checked = sum(len(names) for _r, _d, names in os.walk(parts_root))
    for rel in stale_files(table_dir, man):
        add("tmp_leftover" if ".tmp" in rel else "orphan_file", "warn", rel)
    repaired = gc_stale_files(man) if repair else 0

    # exact row counts for clean single-snapshot chains (footer-only; delta
    # chains need a merge to verify and are out of fsck's metadata budget)
    for pid, part in man.partitions.items():
        files = part.get("files") or []
        if (
            part.get("exact_rows")
            and len(files) == 1
            and os.path.exists(os.path.join(table_dir, files[0]))
            and "delta-" not in os.path.basename(files[0])
        ):
            got = pq.ParquetFile(
                os.path.join(table_dir, files[0])
            ).metadata.num_rows
            if got != int(part["rows"]):
                add(
                    "row_mismatch",
                    "error",
                    f"pid {pid}: manifest says {part['rows']} rows, "
                    f"footer says {got} ({files[0]})",
                )

    # skip-index zones must describe live files only (a zone for a vanished
    # file is stale metadata — harmless to reads, but a commit-path bug)
    for pid, part in man.partitions.items():
        files = set(part.get("files") or [])
        stale = [f for f in (part.get("zones") or {}) if f not in files]
        if stale:
            add(
                "stale_zone",
                "warn",
                f"pid {pid}: zones for non-live file(s) {stale[:3]}",
            )
            if repair:
                part["zones"] = {
                    f: z for f, z in part["zones"].items() if f in files
                }
                repaired += 1
                manifest_dirty = True

    # watermark invariant: equal across partitions after a clean commit
    if man.partitions:
        wms = {int(p["watermark_lsn"]) for p in man.partitions.values()}
        if len(wms) > 1:
            add(
                "watermark_skew",
                "warn",
                f"per-partition watermarks differ: min {min(wms)} "
                f"max {max(wms)} (legal mid-crash; merge re-filters)",
            )

    # history sanity
    eps = [int(h["epoch"]) for h in man.history if "epoch" in h]
    if any(b <= a for a, b in zip(eps, eps[1:])):
        add("bad_history", "error", f"history epochs not increasing: {eps}")
    if eps and eps[-1] != man.epoch:
        add(
            "bad_history",
            "error",
            f"head epoch {man.epoch} != last history epoch {eps[-1]}",
        )

    if repair and manifest_dirty:
        # metadata repairs (stale zones) live in the manifest: commit them as
        # the next epoch through the normal put (no version is rewritten)
        man.epoch += 1
        man.history.append({"epoch": man.epoch, "fsck_repair": True})
        commit_manifest(man)

    errors = sum(1 for f in findings if f["severity"] == "error")
    return {
        "table": table_dir,
        "epoch": man.epoch,
        "ok": errors == 0,
        "errors": errors,
        "warnings": len(findings) - errors,
        "checked_files": checked,
        "repaired": repaired,
        "findings": findings,
    }
