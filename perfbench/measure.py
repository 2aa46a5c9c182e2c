"""Measurement helpers: percentiles, write amplification, process-tree RSS."""

from __future__ import annotations

import os

import numpy as np

MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float | None:
    """The ``q`` quantile (0 < q < 1) of ``values``, or None unless at least
    ``MIN_BEYOND`` samples lie beyond it: a p90 needs 100 samples, a p50 20."""
    if int(len(values) * (1.0 - q) + 1e-9) < MIN_BEYOND:
        return None
    return float(np.percentile(np.asarray(values, dtype=float), q * 100.0))


def require_percentile(values: list[float], q: float, what: str) -> float:
    p = percentile(values, q)
    if p is None:
        raise RuntimeError(
            f"{what}: {len(values)} samples cannot support p{round(q * 100)} "
            f"(needs {MIN_BEYOND} beyond it); run longer"
        )
    return p


class PartsWatcher:
    """Counts the bytes of every table data file that ever appears under a
    table's ``parts/`` directory (a file is counted once, by final name).
    Called after each commit; garbage collection never removes a file
    younger than the retained manifests, so no committed file is missed."""

    def __init__(self, table_dir: str):
        self.root = os.path.join(table_dir, "parts")
        self.seen: set[str] = set()
        self.bytes = 0

    def scan(self) -> None:
        for d, _dirs, names in os.walk(self.root):
            for name in names:
                if name.endswith(".parquet"):
                    path = os.path.join(d, name)
                    if path not in self.seen:
                        self.seen.add(path)
                        self.bytes += os.path.getsize(path)


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat[stat.rfind(")") + 2 :].split()[1])
        kids.setdefault(ppid, []).append(int(entry))
    return kids


def process_tree(root: int | None = None) -> list[int]:
    """``root`` (default: this process) and all its descendants: the Ray
    head processes and workers are children of the driver that started them."""
    kids = _children()
    out, todo = [], [root or os.getpid()]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(kids.get(p, []))
    return out


def reset_peak_rss(pids: list[int]) -> None:
    """Restart each process's peak-RSS counter (VmHWM) from its current RSS."""
    for p in pids:
        try:
            with open(f"/proc/{p}/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            pass


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of VmHWM over ``pids``, in MiB, read from /proc (no psutil)."""
    total_kb = 0
    for p in pids:
        try:
            with open(f"/proc/{p}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb / 1024.0
