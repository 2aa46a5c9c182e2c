"""The table commit protocol: write-once parts, put-if-absent manifests.

Every table commits the same way, on a local filesystem or on an
S3/GCS-style object store (no atomic rename, no advisory locks):

- **Parts are written once under writer-unique names.** A worker names each
  part ``{kind}-{epoch:06d}-{token}.parquet`` with a fresh random token,
  creates it with ``O_EXCL``, writes it and fsyncs it. No file is ever
  renamed or overwritten, so a losing or retried writer can never touch a
  part another writer committed, and no byte-determinism is assumed. A part
  is invisible until a committed manifest references it.
- **The commit point is a conditional put** of the immutable versioned
  manifest ``manifest-{epoch:06d}.json`` (HTTP ``If-None-Match: *`` / GCS
  ``ifGenerationMatch=0``; the commit primitive of the Delta Lake and
  Apache Iceberg protocols). Exactly one of N racing writers wins; the
  others get :class:`ConcurrentCommitError`, re-read the table and retry.
- **Readers resolve the current epoch by listing** the versioned manifests
  and taking the max. There is no pointer file.

On a local filesystem the store's atomic put is simulated by a hard-link
publish of a fully-written, fsynced staging file: ``os.link`` fails
atomically with EEXIST when the key exists, which is put-if-absent. Staging
is used for manifests only, because a listing reader must never see a
half-written manifest; parts need none, because readers only open parts a
committed manifest names.
"""

from __future__ import annotations

import json
import os


class ConcurrentCommitError(RuntimeError):
    """Another writer committed this table epoch first (the conditional
    manifest put lost). Re-read the table state and retry the operation."""


def fsync_path(path: str) -> None:
    """fsync a file's data (or a directory's entries) by path."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def unique_token() -> str:
    return os.urandom(6).hex()


def part_name(kind: str, epoch: int) -> str:
    """A fresh writer-unique part file name stamped with its epoch."""
    return f"{kind}-{epoch:06d}-{unique_token()}.parquet"


def part_epoch(name: str) -> int | None:
    """The epoch stamped into a part file name, or None for a name this
    protocol did not write."""
    fields = name.split("-", 2)
    if len(fields) == 3 and fields[1].isdigit() and fields[2].endswith(".parquet"):
        return int(fields[1])
    return None


def write_file_once(path: str, write_fn) -> int:
    """Create ``path`` exclusively, let ``write_fn(file)`` fill it, fsync
    it. Returns the file size."""
    with open(path, "xb") as f:
        write_fn(f)
        f.flush()
        os.fsync(f.fileno())
        return f.tell()


def put_json_if_absent(path: str, doc: dict) -> None:
    """CONDITIONAL PUT of a JSON document: the commit point. The staging
    file is written and fsynced once, then linked to ``path``, which fails
    atomically when the key exists; the directory is fsynced only by the
    caller, once it knows the put stands. Raises
    :class:`ConcurrentCommitError` when the key already exists."""
    d, name = os.path.split(path)
    staging = os.path.join(d, f".staged.{name}.{unique_token()}")
    with open(staging, "w") as f:
        json.dump(doc, f, indent=1)
        f.flush()
        os.fsync(f.fileno())
    try:
        os.link(staging, path)
    except FileExistsError:
        raise ConcurrentCommitError(
            f"conditional put lost: {path} already exists (another writer "
            "committed this epoch first; re-read table state and retry)"
        ) from None
    finally:
        os.unlink(staging)
