"""Token-budget mixture sampling (domain mixing for pretraining).

Given per-source token budgets ({source: max_total_tokens}), select the
deterministic greedy hash-prefix of each source: order the source's docs by
(LehmerHash(doc_id), doc_id) and keep docs while the running token total
stays within budget. The hash order is the same engine-independent Lehmer
permutation ``sample_documents`` uses ((key*48271) % (2^31-1), Park–Miller
constants) — plain int64 arithmetic any engine reproduces, so the selected
set is identical on any partitioning and expressible as a SQL window cumsum
(the pytest DuckDB oracle).

This is the "data mixing" step of a pretraining pipeline (set the
web/code/books/wiki token ratios of a training run); the reference has no
analog (SURVEY.md "beyond" items, same class as sequence packing).

Scale shape — EXACT result in two small passes plus one map-only filter,
no sort, no shuffle:

1. **Histogram pass** (map-only): each block bincounts token sums into
   (source, range-bucket) cells where ``bucket = hash >> shift`` — range
   buckets preserve the hash ORDER, so the driver's per-source cumulative
   over ≤``n_buckets`` cells locates the single boundary bucket where each
   budget is crossed. O(sources × n_buckets) driver state.
2. **Boundary pass** (map-only, pushdown-filtered): fetch only the docs in
   each source's boundary bucket (~corpus/n_buckets rows per source), sort
   that sliver on the driver, and resolve the exact greedy prefix within it.
3. **Filter** (map-only): keep a doc iff its bucket is fully inside the
   prefix, or it is one of the boundary bucket's resolved keeps (the tiny
   per-source keep-sets ship once per actor via ``fn_constructor_kwargs``).

Sources absent from ``budgets`` are kept in full (unlimited); a 0 budget
keeps nothing from that source.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from . import grow_from_one

LEHMER_A = 48271
LEHMER_M = 2147483647  # 2^31 - 1
N_BUCKETS_DEFAULT = 4096


def _lehmer(doc_id: np.ndarray) -> np.ndarray:
    """Order hash in [0, 2^31-1): Lehmer permutation for integer keys (plain
    int64 arithmetic — SQL-reproducible, the sample_documents convention);
    stable pandas hash_array for string keys (the engine's own snapshot
    tables key docs by STRING doc_id — a blind int cast crashed the packing
    and connected-components paths before the same treatment)."""
    if np.issubdtype(np.asarray(doc_id).dtype, np.integer):
        return (doc_id.astype(np.int64) * LEHMER_A) % LEHMER_M
    from pandas.util import hash_array

    return (hash_array(np.asarray(doc_id, dtype=object)) % np.uint64(LEHMER_M)).astype(
        np.int64
    )


def _bucket_shift(n_buckets: int) -> int:
    if n_buckets & (n_buckets - 1):
        raise ValueError("n_buckets must be a power of two")
    return 31 - n_buckets.bit_length() + 1


def source_token_totals(
    ds: ray.data.Dataset,
    source_col: str = "source",
    tok_col: str = "n_tok",
) -> dict[str, int]:
    """Per-source token totals in one map-only pass (per-block partials →
    tiny driver sum; O(sources × blocks) rows move, never the corpus)."""

    def part(b: pa.Table) -> pa.Table:
        t = (
            b.select([source_col, tok_col])
            .group_by(source_col)
            .aggregate([(tok_col, "sum")])
        )
        # select by NAME before renaming: pyarrow's group_by output column
        # order (keys-first vs aggregates-first) has differed across
        # versions — a positional rename could silently swap source/total
        return t.select([source_col, f"{tok_col}_sum"]).rename_columns(
            [source_col, "n"]
        )

    pdf = (
        ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
    )
    if pdf.empty:
        return {}
    return {
        str(s): int(n)
        for s, n in pdf.groupby(source_col)["n"].sum().items()
    }


def temperature_budgets(
    totals: dict[str, int],
    total_tokens: int,
    temperature: float = 1.0,
) -> dict[str, int]:
    """Per-source token budgets for a ``total_tokens`` mixture at sampling
    temperature τ — the multilingual-pretraining mixing rule (Conneau &
    Lample 2019): target share ∝ totals^τ. τ=1 keeps natural proportions,
    τ→0 approaches uniform across sources, τ>1 exaggerates big sources.

    Exact water-filling: a source whose τ-share exceeds what it HAS is
    capped at its total and the surplus is redistributed over the uncapped
    sources by the same τ-weights (≤ n_sources rounds, deterministic).
    Feed the result to :func:`token_budget_sample`."""
    if total_tokens < 0 or temperature < 0:
        raise ValueError("total_tokens and temperature must be >= 0")
    remaining = {s: t for s, t in totals.items() if t > 0}
    budgets = {s: 0 for s in totals}
    pool = min(int(total_tokens), sum(remaining.values()))
    while pool > 0 and remaining:
        w = {s: float(t) ** temperature for s, t in remaining.items()}
        z = sum(w.values())
        # deterministic largest-remainder rounding on sorted names
        alloc = {s: int(pool * w[s] / z) for s in sorted(remaining)}
        short = pool - sum(alloc.values())
        for s in sorted(remaining)[:short]:
            alloc[s] += 1
        capped = {s for s in remaining if alloc[s] >= remaining[s]}
        if not capped:
            for s, a in alloc.items():
                budgets[s] += a
            break
        # capped sources take their whole total; the uncapped re-allocate
        # the rest by the same weights next round
        for s in capped:
            budgets[s] += remaining[s]
            pool -= remaining[s]
        remaining = {s: t for s, t in remaining.items() if s not in capped}
    return budgets


def token_budget_sample(
    ds: ray.data.Dataset,
    budgets: dict[str, int],
    source_col: str = "source",
    key_col: str = "doc_id",
    tok_col: str = "n_tok",
    n_buckets: int = N_BUCKETS_DEFAULT,
    concurrency: int = 2,
) -> ray.data.Dataset:
    """Filter ``ds`` to each source's greedy hash-prefix within its token
    budget. Returns the filtered Dataset (all input columns); the kept set
    equals the SQL ``sum(n_tok) OVER (PARTITION BY source ORDER BY hash,
    doc_id) <= budget`` prefix exactly."""
    shift = _bucket_shift(n_buckets)
    budgeted = sorted(budgets)
    if not budgeted:
        return ds

    def hist(b: pa.Table) -> pa.Table:
        src = b.column(source_col).to_numpy(zero_copy_only=False).astype(object)
        did = b.column(key_col).to_numpy(zero_copy_only=False)
        tok = b.column(tok_col).to_numpy(zero_copy_only=False).astype(np.int64)
        mask = np.isin(src, budgeted)
        if not mask.any():
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "bucket": pa.array([], pa.int64()),
                    "sum_tok": pa.array([], pa.int64()),
                }
            )
        src, did, tok = src[mask], did[mask], tok[mask]
        sidx = np.searchsorted(np.array(budgeted, dtype=object), src)
        cell = sidx * n_buckets + (_lehmer(did) >> shift)
        sums = np.bincount(cell, weights=tok, minlength=len(budgeted) * n_buckets)
        nz = np.flatnonzero(sums)
        return pa.table(
            {
                "source": pa.array(np.array(budgeted, dtype=object)[nz // n_buckets].astype(str)),
                "bucket": pa.array((nz % n_buckets).astype(np.int64)),
                "sum_tok": pa.array(sums[nz].astype(np.int64)),
            }
        )

    cells = ds.map_batches(hist, batch_format="pyarrow").to_pandas()
    if "source" not in cells:
        # no budgeted source occurs (or the corpus is empty): every row is
        # kept, and no filter pool needs to start
        return ds
    cells = cells.groupby(["source", "bucket"], as_index=False)["sum_tok"].sum()

    # driver: locate each source's boundary bucket (< n_buckets cumulative
    # cells per source — O(sources × n_buckets) total)
    full_upto: dict[str, int] = {}  # buckets < this are kept whole
    boundary: dict[str, tuple[int, int]] = {}  # source -> (bucket, remaining)
    for s in budgeted:
        budget = int(budgets[s])
        sc = cells[cells["source"] == s].sort_values("bucket")
        cum = 0
        full_upto[s] = n_buckets  # whole source fits
        for bkt, st in zip(sc["bucket"], sc["sum_tok"]):
            if cum + st > budget:
                full_upto[s] = int(bkt)
                boundary[s] = (int(bkt), budget - cum)
                break
            cum += st

    # boundary pass: resolve the exact greedy prefix inside each boundary
    # bucket — fetch only those slivers (map-only, ~corpus/n_buckets rows
    # per source), order by (hash, doc_id), walk the cumsum on the driver
    keep_ids: dict[str, set] = {}
    if boundary:
        bsrc = sorted(boundary)
        bbkt = np.array([boundary[s][0] for s in bsrc], dtype=np.int64)

        def sliver(b: pa.Table) -> pa.Table:
            src = b.column(source_col).to_numpy(zero_copy_only=False).astype(object)
            did = b.column(key_col).to_numpy(zero_copy_only=False)
            sidx = np.searchsorted(np.array(bsrc, dtype=object), src)
            sidx_c = np.clip(sidx, 0, len(bsrc) - 1)
            mask = (np.array(bsrc, dtype=object)[sidx_c] == src) & (
                (_lehmer(did) >> shift) == bbkt[sidx_c]
            )
            t = b.filter(pa.array(mask))
            return pa.table(
                {
                    "source": t.column(source_col),
                    "doc_id": t.column(key_col),
                    "n_tok": t.column(tok_col).cast(pa.int64()),
                }
            )

        sl = ds.map_batches(sliver, batch_format="pyarrow").to_pandas()
        sl["h"] = _lehmer(sl["doc_id"].to_numpy())
        sl = sl.sort_values(["source", "h", "doc_id"], kind="mergesort")
        for s, grp in sl.groupby("source", sort=False):
            remaining = boundary[str(s)][1]
            cum = grp["n_tok"].cumsum()
            keep_ids[str(s)] = set(grp["doc_id"][cum <= remaining].tolist())

    class BudgetFilter:
        """Per-actor state: the per-source boundary plan + tiny keep-sets,
        shipped once via the constructor — never per batch."""

        def __init__(self, full_upto, keep_ids, budgeted):
            self.full_upto = dict(full_upto)
            self.keep = {s: np.sort(np.asarray(sorted(ids)))
                         for s, ids in keep_ids.items()}
            self.budgeted = np.array(sorted(budgeted), dtype=object)

        def __call__(self, b: pa.Table) -> pa.Table:
            src = b.column(source_col).to_numpy(zero_copy_only=False).astype(object)
            did = b.column(key_col).to_numpy(zero_copy_only=False)
            bkt = _lehmer(did) >> shift
            sidx = np.searchsorted(self.budgeted, src)
            sidx_c = np.clip(sidx, 0, max(len(self.budgeted) - 1, 0))
            is_budgeted = (
                (self.budgeted[sidx_c] == src)
                if len(self.budgeted)
                else np.zeros(len(src), dtype=bool)
            )
            keep = ~is_budgeted  # unlisted sources pass through whole
            for s in np.unique(src[is_budgeted]):
                m = src == s
                lim = self.full_upto[s]
                k = bkt[m] < lim
                ids = self.keep.get(s)
                if ids is not None and len(ids):
                    pos = np.searchsorted(ids, did[m])
                    pos_c = np.clip(pos, 0, len(ids) - 1)
                    k |= ids[pos_c] == did[m]
                keep[m] = k
            return b.filter(pa.array(keep))

    return ds.map_batches(
        BudgetFilter,
        fn_constructor_kwargs={
            "full_upto": full_upto,
            "keep_ids": keep_ids,
            "budgeted": budgeted,
        },
        batch_format="pyarrow",
        concurrency=grow_from_one(concurrency),
        num_cpus=0.5,
    )
