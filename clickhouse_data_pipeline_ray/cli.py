"""CLI entry points (the analog of the reference's service mains:
/root/reference/etl/main.py:15-44 CLI flags, /root/reference/seeder/main.py
subcommands). Owns the Ray session (the library never does).

    python -m clickhouse_data_pipeline_ray.cli init  --table /tmp/t --num-partitions 64
    python -m clickhouse_data_pipeline_ray.cli gen   --wal /tmp/wal --events 100000
    python -m clickhouse_data_pipeline_ray.cli apply --table /tmp/t --wal /tmp/wal --follow
    python -m clickhouse_data_pipeline_ray.cli kpi   --table /tmp/t
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _read_parquet_or_empty(rd, path: str):
    """Re-open a directory write_parquet just wrote — which holds NO
    parquet files when the written dataset was empty (read_parquet would
    raise). None = empty result."""
    has_files = any(
        f.endswith(".parquet")
        for _r, _d, fs in os.walk(path)
        for f in fs
    )
    return rd.read_parquet(path) if has_files else None


def _init_ray(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def main(argv: list[str] | None = None) -> int:
    """Dispatch with one-line actionable errors (a missing table, a lost
    commit race or a bad epoch is an operator mistake, not a traceback —
    unlike the reference services, which surface raw exceptions)."""
    from .state.manifest import ConcurrentCommitError

    try:
        return _run(argv)
    except ConcurrentCommitError as e:
        print(f"error: {e} — another writer committed to this table first; "
              f"re-run the command", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        missing = getattr(e, "filename", None) or str(e)
        hint = (" — table not initialized? run `init --table ...` first"
                if "manifest-" in str(missing) else "")
        print(f"error: not found: {missing}{hint}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _run(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="cdp-ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("init", help="create an empty table layout + manifest")
    sp.add_argument("--table", required=True)
    sp.add_argument("--num-partitions", type=int, default=64)
    sp.add_argument("--mode", choices=("upsert", "append", "sum", "collapse"),
                    default="upsert",
                    help="upsert: LWW by key (ReplacingMergeTree analog); "
                         "append: immutable facts (MergeTree analog); "
                         "sum: additive rollup by key (SummingMergeTree "
                         "analog); collapse: ±1 sign cancellation by key "
                         "(CollapsingMergeTree analog — a 'sign' int column "
                         "is added to the schema)")
    sp.add_argument("--key-col", default="doc_id")
    sp.add_argument("--sum-cols", default=None,
                    help="comma-separated measure columns summed per key "
                         "(required for --mode sum; e.g. 'value')")
    sp.add_argument("--schema", choices=("docs", "facts"), default=None,
                    help="built-in schema (default: docs for upsert, facts for append)")
    sp.add_argument("--partition-by-month", metavar="TS_COL", default=None,
                    help="time-partition by yyyymm of this timestamp column "
                         "(PARTITION BY toYYYYMM analog)")
    sp.add_argument("--event-time-col", default=None,
                    help="enable event-time watermark + late-data metrics on "
                         "this column (default: event_ts for fact schemas)")
    sp.add_argument("--retention", type=int, default=None,
                    help="retained versioned manifests for time travel (default 8)")
    sp.add_argument("--skip-cols", default=None,
                    help="comma-separated data-skipping index columns "
                         "(ClickHouse `INDEX ... TYPE minmax` analog): part "
                         "writes record per-file min/max zones; `scan` prunes "
                         "by them")

    sp = sub.add_parser("gen", help="generate a deterministic CDC WAL")
    sp.add_argument("--wal", required=True)
    sp.add_argument("--facts", action="store_true",
                    help="append-only fact events (event_id/doc_id/event_ts/"
                         "event_type/value) instead of the doc change log")
    sp.add_argument("--events", type=int, default=100_000)
    sp.add_argument("--base-events", type=int, default=None)
    sp.add_argument("--events-per-segment", type=int, default=2_000)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--mix", default="0.3,0.6,0.1", help="c,u,d fractions")
    sp.add_argument("--zipf-a", type=float, default=1.5)
    sp.add_argument("--hot-frac", type=float, default=0.5)
    sp.add_argument("--tok-min", type=int, default=8)
    sp.add_argument("--tok-max", type=int, default=512)
    sp.add_argument("--evolve-frac", type=float, default=None)
    sp.add_argument("--format", choices=("parquet", "jsonl"), default="parquet",
                    help="segment file format (jsonl = Debezium-style interop)")
    sp.add_argument("--segments-per-shard", type=int, default=None,
                    help="group segments into LSN-named shard dirs (listing "
                         "stays O(unapplied) at million-segment WALs)")
    sp.add_argument("--parallel", action="store_true")

    sp = sub.add_parser("apply", help="apply pending WAL epochs to a table")
    sp.add_argument("--table", required=True)
    sp.add_argument("--wal", required=True)
    sp.add_argument("--epoch-segments", type=int, default=None)
    sp.add_argument("--salt-factor", type=int, default=8)
    sp.add_argument("--hot-ratio", type=float, default=4.0)
    sp.add_argument("--once", action="store_true", help="apply one epoch only")
    sp.add_argument("--follow", action="store_true", help="poll for new segments")
    sp.add_argument("--interval", type=float, default=5.0)
    sp.add_argument("--refresh-mvs", action="store_true",
                    help="fold each committed epoch into all registered "
                         "materialized views (the ClickHouse MV "
                         "trigger-on-insert analog)")
    sp.add_argument("--allowed-lateness", type=float, default=0.0,
                    help="seconds of event-time lateness tolerated before an "
                         "arrival counts as late (event_time_col tables only)")
    sp.add_argument("--compact-threshold", type=int, default=8,
                    help="compact a partition when its file chain reaches this "
                         "(1 = rewrite touched partitions every epoch)")
    sp.add_argument("--auto-compact", type=float, default=None, metavar="RATIO",
                    help="size-tiered background compaction: after each "
                         "committed epoch, compact partitions whose delta "
                         "bytes exceed RATIO x base snapshot bytes (bounds "
                         "merge-on-read amplification at (1+RATIO)x)")
    sp.add_argument("--dlq", default=None,
                    help="dead-letter directory: quarantine malformed change "
                         "events (invalid op / null lsn / null key) there "
                         "instead of failing the epoch")
    sp.add_argument("--refresh-artifacts", action="store_true",
                    help="after each committed epoch, refresh every "
                         "artifact registered via artifact-register "
                         "(classifier/lm/ann/token indexes; each prunes to "
                         "changed partitions)")

    sp = sub.add_parser(
        "compact", help="fold delta chains into clean per-partition snapshots"
    )
    sp.add_argument("--table", required=True)
    sp.add_argument("--size-ratio", type=float, default=None,
                    help="size-tiered selection: compact only partitions "
                         "whose delta bytes exceed RATIO x base bytes "
                         "(default: major compaction, every dirty chain)")

    sp = sub.add_parser(
        "ttl-expire",
        help="drop rows whose timestamp column is before a cutoff (ClickHouse TTL)",
    )
    sp.add_argument("--table", required=True)
    sp.add_argument("--col", required=True, help="timestamp column rows expire by")
    sp.add_argument("--cutoff", required=True,
                    help="ISO timestamp; rows with col < cutoff are expired")

    sp = sub.add_parser(
        "import", help="seed an EMPTY table from an existing parquet corpus (lsn=0)"
    )
    sp.add_argument("--table", required=True)
    sp.add_argument("--parquet", required=True)
    sp.add_argument("--key-col", default="doc_id")

    sp = sub.add_parser(
        "repartition", help="change the table's partition count (whole-table job)"
    )
    sp.add_argument("--table", required=True)
    sp.add_argument("--num-partitions", type=int, required=True)

    sp = sub.add_parser(
        "truncate-wal",
        help="delete WAL segments fully applied at the table's watermark",
    )
    sp.add_argument("--table", required=True)
    sp.add_argument("--wal", required=True)

    sp = sub.add_parser(
        "register", help="declare a table in a multi-table lake registry"
    )
    sp.add_argument("--root", required=True, help="lake root (holds registry.json)")
    sp.add_argument("--name", required=True)
    sp.add_argument("--mode", choices=("upsert", "append", "sum", "collapse"),
                    default="upsert")
    sp.add_argument("--key-col", default=None)
    sp.add_argument("--sum-cols", default=None,
                    help="comma-separated measure columns (mode sum only)")
    sp.add_argument("--schema", choices=("docs", "facts"), default=None)
    sp.add_argument("--num-partitions", type=int, default=16)
    sp.add_argument("--partition-by-month", metavar="TS_COL", default=None)
    sp.add_argument("--depends-on", default="", help="comma-separated table names")

    sp = sub.add_parser(
        "sync",
        help="sync every registered table from <wal-root>/<name>, dims before facts",
    )
    sp.add_argument("--root", required=True)
    sp.add_argument("--wal-root", required=True)
    sp.add_argument("--epoch-segments", type=int, default=None)

    sp = sub.add_parser("registry-status", help="per-table watermarks/rows")
    sp.add_argument("--root", required=True)

    sp = sub.add_parser(
        "verify-queries",
        help="run driver-contract queries AND their DuckDB oracle SQL "
             "side-by-side over the same tables and compare values — the "
             "in-repo correctness gate (exit 1 on any mismatch)",
    )
    sp.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    sp.add_argument("--names", default=None,
                    help="comma-separated subset (default: all)")

    sp = sub.add_parser(
        "lake-status",
        help="lake epoch vectors — the cross-table consistent read pins a "
             "clean sync round commits (see state/registry.py)",
    )
    sp.add_argument("--root", required=True)

    sp = sub.add_parser("kpi", help="KPI report over a committed table")
    sp.add_argument("--table", required=True)
    sp.add_argument("--epoch", type=int, default=None,
                    help="time-travel to a retained historical epoch")

    sp = sub.add_parser("status", help="print the manifest summary")
    sp.add_argument("--table", required=True)

    sp = sub.add_parser(
        "artifact-register",
        help="register a derived artifact (classifier/lm/ann/tokens) so "
             "artifacts-refresh / apply --refresh-artifacts maintains it",
    )
    sp.add_argument("--table", required=True)
    sp.add_argument("--name", required=True)
    sp.add_argument("--kind", required=True,
                    choices=["classifier", "lm", "ann", "tokens", "bpe"])
    sp.add_argument("--dest", required=True, help="artifact directory")
    sp.add_argument("--param", action="append", default=[],
                    help="refresher kwarg as key=value (repeatable); "
                         "values parse as int/float/bool when they look "
                         "like one")

    sp = sub.add_parser(
        "artifacts-refresh",
        help="refresh every registered artifact to the table's current "
             "epoch (each prunes to changed partitions / no-ops if caught "
             "up)",
    )
    sp.add_argument("--table", required=True)

    sp = sub.add_parser(
        "fsck",
        help="table integrity check (manifest vs filesystem: missing/"
             "orphan/tmp files, footer row counts, watermark + history "
             "invariants; metadata-only, no data pages read)",
    )
    sp.add_argument("--table", required=True)
    sp.add_argument("--repair", action="store_true",
                    help="remove orphan and tmp files (what post-commit GC "
                         "would do); errors are never auto-repaired")

    sp = sub.add_parser(
        "mv-register",
        help="register an incremental materialized view (append tables: "
             "WAL-folding ticks; upsert tables: changed-partition partial "
             "recompute)",
    )
    sp.add_argument("--table", required=True)
    sp.add_argument("--name", required=True)
    sp.add_argument("--group-keys", required=True, help="comma-separated")
    sp.add_argument("--sums", default="",
                    help="comma-separated col:scale:outname specs, e.g. "
                         "value:1000:sum_value_milli")
    sp.add_argument("--date-from", default=None,
                    help="timestamp column to derive an event_date group key")
    sp.add_argument("--mins", default="",
                    help="comma-separated col:outname exact-min measures")
    sp.add_argument("--maxs", default="",
                    help="comma-separated col:outname exact-max measures")
    sp.add_argument("--distincts", default="",
                    help="comma-separated col:p:outname approximate "
                         "COUNT(DISTINCT) measures (HLL with 2^p registers "
                         "per group; uniqState/uniqMerge analog)")

    sp = sub.add_parser(
        "mv-refresh",
        help="one MV maintenance tick: fold WAL events since the MV "
             "watermark (append) or recompute changed partitions' partials "
             "(upsert); all registered MVs unless --name",
    )
    sp.add_argument("--table", required=True)
    sp.add_argument("--wal", required=True)
    sp.add_argument("--name", default=None)

    sp = sub.add_parser("mv-read", help="print an MV's committed state")
    sp.add_argument("--table", required=True)
    sp.add_argument("--name", required=True)
    sp.add_argument("--limit", type=int, default=20)

    sp = sub.add_parser(
        "export-sorted",
        help="write a committed table as a globally sorted, range-partitioned "
             "parquet layout with a zone-map index (pruned range reads later)",
    )
    sp.add_argument("--table", required=True)
    sp.add_argument("--col", required=True, help="numeric sort column")
    sp.add_argument("--output", required=True)
    sp.add_argument("--num-files", type=int, default=None)

    sp = sub.add_parser(
        "export-zorder",
        help="write a committed table as a z-order-clustered parquet layout "
             "over several columns with per-dimension zone maps (box reads "
             "prune on ANY bounded dimension)",
    )
    sp.add_argument("--table", required=True)
    sp.add_argument("--cols", required=True,
                    help="comma-separated numeric z-order columns")
    sp.add_argument("--output", required=True)
    sp.add_argument("--num-files", type=int, default=None)

    sp = sub.add_parser(
        "zbox",
        help="box read over a z-order export: prints matching row count and "
             "a sample; opens only files whose per-dimension zones overlap",
    )
    sp.add_argument("--dir", required=True, help="export-zorder output dir")
    sp.add_argument(
        "--where", required=True,
        help="comma-separated col:lo:hi bounds (empty lo/hi = unbounded), "
             "e.g. n_tok:100:200,lsn::10000",
    )
    sp.add_argument("--limit", type=int, default=5)

    sp = sub.add_parser(
        "search-bm25",
        help="BM25 lexical top-k over a documents parquet (two map-only "
             "passes, no shuffle; query-term stats only, never the vocab)",
    )
    sp.add_argument("--query", required=True, help="space-separated terms")
    sp.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    sp.add_argument("-k", type=int, default=10)
    sp.add_argument("--k1", type=float, default=1.2)
    sp.add_argument("--b", type=float, default=0.75)
    sp.add_argument("--index", default=None,
                    help="persisted text-index dir (index-text output): "
                         "opens only the query terms' postings buckets — "
                         "no Ray job, no corpus scan")

    sp = sub.add_parser(
        "mix-sample",
        help="token-budget mixture sampling: keep each source's greedy "
             "hash-prefix within its token budget (two small map-only "
             "passes + a filter — exact, partitioning-independent)",
    )
    sp.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    sp.add_argument("--budgets", default=None,
                    help="comma-separated source:max_tokens, e.g. "
                         "src0:5000,src1:2000 (unlisted sources kept whole)")
    sp.add_argument("--total-tokens", type=int, default=None,
                    help="derive per-source budgets from a single mixture "
                         "budget at --temperature (Conneau-Lample τ-mixing; "
                         "alternative to --budgets)")
    sp.add_argument("--temperature", type=float, default=0.7,
                    help="mixing temperature τ for --total-tokens: share ∝ "
                         "source_tokens^τ (1=natural, →0 uniform)")
    sp.add_argument("--tok-col", default="n_chars",
                    help="integer weight column (n_tok on snapshot tables)")
    sp.add_argument("--output", default=None,
                    help="write the sampled rows to this directory as parquet")

    sp = sub.add_parser(
        "decontaminate",
        help="n-gram-hash test-set decontamination: flag corpus docs "
             "sharing any k-word window with the benchmark snippets (one "
             "map-only pass, cost independent of snippet count)",
    )
    sp.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    sp.add_argument("--snippets", required=True,
                    help="parquet file/dir with a text column of benchmark "
                         "snippets (each must have at least k words)")
    sp.add_argument("--k", type=int, default=8,
                    help="shingle width in words (GPT-3 used 13)")
    sp.add_argument("--min-hits", type=int, default=1,
                    help="flag docs with at least this many distinct "
                         "contaminated shingles")
    sp.add_argument("--output", default=None,
                    help="write flagged rows to this directory as parquet")

    sp = sub.add_parser(
        "train-classifier",
        help="train a hashed-feature multinomial Naive Bayes text "
             "classifier (fastText-classifier role) in one distributed "
             "count-aggregation pass; persists the model tmp+rename",
    )
    sp.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    sp.add_argument("--label-col", default="lang")
    sp.add_argument("--text-col", default="text")
    sp.add_argument("--dim", type=int, default=1 << 18,
                    help="hashed feature buckets (model size is C x dim, "
                         "independent of corpus vocabulary)")
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--no-bigrams", action="store_true")
    sp.add_argument("--output", required=True, help="model directory")

    sp = sub.add_parser(
        "train-lm",
        help="train a Stupid-Backoff hashed n-gram LM (KenLM role) in one "
             "distributed count-aggregation pass; persists counts tmp+rename",
    )
    sp.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    sp.add_argument("--text-col", default="text")
    sp.add_argument("--dim-u", type=int, default=1 << 20)
    sp.add_argument("--dim-b", type=int, default=1 << 22)
    sp.add_argument("--output", required=True, help="model directory")

    sp = sub.add_parser(
        "lm-refresh",
        help="build/refresh per-partition n-gram LM count partials over a "
             "committed table (changed-partition-only via the manifest "
             "diff; composes equal to a retrain)",
    )
    sp.add_argument("--table", required=True)
    sp.add_argument("--output", required=True, help="partials/model dir")
    sp.add_argument("--feature-col", default="tokens")
    sp.add_argument("--dim-u", type=int, default=1 << 20)
    sp.add_argument("--dim-b", type=int, default=1 << 22)

    sp = sub.add_parser(
        "gopher-filter",
        help="Gopher quality-rule bundle (Rae et al. 2021): per-doc rule "
             "signals + gopher_pass verdict; optionally keep passing docs "
             "only (one vectorized RE2 pass, actor pool)",
    )
    sp.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    sp.add_argument("--text-col", default="text")
    sp.add_argument("--min-words", type=int, default=50)
    sp.add_argument("--keep", action="store_true",
                    help="emit only docs that pass every rule")
    sp.add_argument("--output", default=None)
    sp.add_argument("--limit", type=int, default=3)

    sp = sub.add_parser(
        "train-bpe",
        help="learn a BPE tokenizer: one distributed word-count pass "
             "(corpus compressed to a top-N frequency dict), deterministic "
             "driver-side merges (Sennrich 2016); persists merges+vocab",
    )
    sp.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    sp.add_argument("--text-col", default="text")
    sp.add_argument("--merges", type=int, default=200)
    sp.add_argument("--min-count", type=int, default=2)
    sp.add_argument("--max-words", type=int, default=100_000)
    sp.add_argument("--output", required=True, help="model directory")

    sp = sub.add_parser(
        "bpe-refresh",
        help="build/refresh per-partition word-count partials over a "
             "committed table (changed-partition-only via the manifest "
             "diff); training from the composed counts equals a retrain",
    )
    sp.add_argument("--table", required=True)
    sp.add_argument("--output", required=True, help="partials dir")
    sp.add_argument("--text-col", default="text")

    sp = sub.add_parser(
        "bpe-encode",
        help="encode a documents parquet (or composed table partials) with "
             "a trained BPE model: actor pool, merges broadcast once, "
             "per-actor word cache",
    )
    sp.add_argument("--model", required=True,
                    help="train-bpe output, or bpe-refresh partials dir "
                         "(trained on the fly)")
    sp.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    sp.add_argument("--text-col", default="text")
    sp.add_argument("--merges", type=int, default=200,
                    help="merge count when training from partials")
    sp.add_argument("--output", default=None,
                    help="write encoded parquet here (default: print stats)")
    sp.add_argument("--limit", type=int, default=3)

    sp = sub.add_parser(
        "lm-score",
        help="perplexity-score a documents parquet under a trained n-gram "
             "LM (counts broadcast once, vectorized gathers); optionally "
             "keep only rows with lm_ppl <= --max-ppl (CCNet head cut)",
    )
    sp.add_argument("--model", required=True,
                    help="train-lm or lm-refresh output")
    sp.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    sp.add_argument("--table", default=None,
                    help="score this committed table's merged snapshot "
                         "instead of --sf-dir documents")
    sp.add_argument("--text-col", default="text",
                    help="feature column for --sf-dir scoring")
    sp.add_argument("--feature-col", default="tokens",
                    help="feature column for --table scoring")
    sp.add_argument("--max-ppl", type=float, default=None)
    sp.add_argument("--output", default=None,
                    help="write scored rows to this directory as parquet")

    sp = sub.add_parser(
        "classifier-refresh",
        help="build/refresh the per-partition count partials of an NB "
             "classifier over a committed table (changed-partition-only "
             "refresh via the manifest diff; composes equal to a retrain)",
    )
    sp.add_argument("--table", required=True)
    sp.add_argument("--output", required=True, help="partials/model dir")
    sp.add_argument("--label-col", default="source")
    sp.add_argument("--feature-col", default="tokens")
    sp.add_argument("--dim", type=int, default=1 << 18)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--no-bigrams", action="store_true")

    sp = sub.add_parser(
        "classify",
        help="score a documents parquet with a trained classifier "
             "(weights broadcast once via ray.put, actor-pool scoring); "
             "optionally keep only rows past --min-prob of --positive",
    )
    sp.add_argument("--model", required=True,
                    help="train-classifier or classifier-refresh output")
    sp.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    sp.add_argument("--table", default=None,
                    help="score this committed table's merged snapshot "
                         "instead of --sf-dir documents")
    sp.add_argument("--text-col", default="text",
                    help="feature column for --sf-dir scoring")
    sp.add_argument("--feature-col", default="tokens",
                    help="feature column for --table scoring")
    sp.add_argument("--positive", default=None,
                    help="class whose probability is emitted as p_positive")
    sp.add_argument("--min-prob", type=float, default=None,
                    help="keep only rows with p_positive >= this")
    sp.add_argument("--output", default=None,
                    help="write scored rows to this directory as parquet")

    sp = sub.add_parser(
        "semdedup",
        help="semantic dedup (SemDeDup): k-means-blocked within-cluster "
             "cosine near-dup groups; one representative survives per group",
    )
    sp.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    sp.add_argument("--eps", type=float, default=0.05,
                    help="duplicate if cosine >= 1 - eps")
    sp.add_argument("--n-clusters", type=int, default=32)
    sp.add_argument("--keep", choices=["far", "min_key"], default="far",
                    help="far = keep the member farthest from its centroid "
                         "(the paper's rule); min_key = lowest key")
    sp.add_argument("--max-cluster", type=int, default=4096)
    sp.add_argument("--output", default=None,
                    help="write the duplicate table (key, rep, keep) here")

    sp = sub.add_parser(
        "span-dedup",
        help="corpus-level repeated-SPAN dedup (Lee et al. 2021 substring "
             "dedup role): every duplicated k-word window keeps only its "
             "canonical occurrence; other occurrences' words are removed "
             "from their documents",
    )
    sp.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    sp.add_argument("--span", type=int, default=8,
                    help="window length in words")
    sp.add_argument("--text-col", default="text")
    sp.add_argument("--output", default=None,
                    help="write the cleaned docs parquet here")
    sp.add_argument("--limit", type=int, default=3)

    sp = sub.add_parser(
        "curate",
        help="end-to-end curation: committed table -> LM perplexity cut -> "
             "classifier cut -> deterministic shuffled training shards "
             "(one snapshot pass + the exporter's one shuffle)",
    )
    sp.add_argument("--table", required=True)
    sp.add_argument("--output", required=True, help="shard directory")
    sp.add_argument("--lm", default=None,
                    help="train-lm or lm-refresh model dir")
    sp.add_argument("--max-ppl", type=float, default=None)
    sp.add_argument("--classifier", default=None,
                    help="train-classifier or classifier-refresh model dir")
    sp.add_argument("--positive", default=None)
    sp.add_argument("--min-prob", type=float, default=None)
    sp.add_argument("--feature-col", default="tokens")
    sp.add_argument("--num-shards", type=int, default=16)
    sp.add_argument("--seed", type=int, default=1)

    sp = sub.add_parser(
        "index-text",
        help="build a persisted BM25 inverted index (term-hash-bucketed "
             "postings + corpus stats; idempotent tmp+rename build)",
    )
    sp.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    sp.add_argument("--output", required=True)
    sp.add_argument("--num-buckets", type=int, default=64)

    sp = sub.add_parser(
        "index-pq",
        help="build a persisted IVFADC index (coarse centroids + residual "
             "product-quantization codes, m bytes/vector; idempotent "
             "tmp+rename build)",
    )
    sp.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    sp.add_argument("--output", required=True)
    sp.add_argument("--n-centroids", type=int, default=16)
    sp.add_argument("--m", type=int, default=8,
                    help="PQ subspaces = bytes per stored vector")
    sp.add_argument("--ksub", type=int, default=256)
    sp.add_argument("--refine-iters", type=int, default=0)

    sp = sub.add_parser(
        "search-pq",
        help="ADC top-k over a persisted IVFADC index (opens only the "
             "nprobe probed buckets' code files)",
    )
    sp.add_argument("--index", required=True)
    sp.add_argument("--query-ids", required=True,
                    help="comma-separated vec_ids from the embeddings table "
                         "to use as queries")
    sp.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    sp.add_argument("--k", type=int, default=5)
    sp.add_argument("--nprobe", type=int, default=4)
    sp.add_argument("--rerank", type=int, default=0,
                    help="exact-rescore this many ADC candidates per query "
                         "against the original vectors (one key-filtered "
                         "read of the embeddings parquet)")

    sp = sub.add_parser(
        "index-ann",
        help="build or incrementally refresh an IVF vector index over a "
             "committed table (re-derives ONLY partitions whose file chains "
             "changed since the indexed epoch)",
    )
    sp.add_argument("--table", required=True)
    sp.add_argument("--output", required=True, help="index directory")
    sp.add_argument("--n-centroids", type=int, default=16)
    sp.add_argument("--vec-col", default="embedding")

    sp = sub.add_parser(
        "search-ann",
        help="cosine top-k over a table ANN index (opens only the nprobe "
             "probed buckets; exact within the probe — raw vectors)",
    )
    sp.add_argument("--index", required=True)
    sp.add_argument("--table", required=True,
                    help="the indexed table (query vectors are looked up "
                         "here by key)")
    sp.add_argument("--keys", required=True,
                    help="comma-separated doc_ids whose vectors are the "
                         "queries")
    sp.add_argument("--k", type=int, default=5)
    sp.add_argument("--nprobe", type=int, default=4)

    sp = sub.add_parser(
        "index-fingerprints",
        help="build or extend the exact-dedup fingerprint ledger over a "
             "parquet input (one atomically-swapped part per build)",
    )
    sp.add_argument("--input", required=True,
                    help="parquet file or directory with (doc_id, text)")
    sp.add_argument("--output", required=True, help="ledger directory")
    sp.add_argument("--part", default="base",
                    help="part name (re-using a name overwrites that part)")
    sp.add_argument("--num-buckets", type=int, default=64,
                    help="fixed by the FIRST build; later values are ignored")

    sp = sub.add_parser(
        "dedup-incremental",
        help="dedup a parquet input within itself AND against the "
             "fingerprint ledger without rescanning the corpus; optionally "
             "commit survivors back as a new ledger part",
    )
    sp.add_argument("--input", required=True)
    sp.add_argument("--index", required=True, help="ledger directory")
    sp.add_argument("--output", default=None,
                    help="write surviving rows to this directory as parquet")
    sp.add_argument("--update-part", default=None,
                    help="also extend the ledger with the survivors under "
                         "this part name")

    sp = sub.add_parser(
        "index-minhash",
        help="build or extend the MinHash near-dup ledger over a parquet "
             "input (map-only signature pass, one atomically-swapped part "
             "per build; LSH params pinned by the first build)",
    )
    sp.add_argument("--input", required=True,
                    help="parquet file or directory with (doc_id, text)")
    sp.add_argument("--output", required=True, help="ledger directory")
    sp.add_argument("--part", default="base")
    sp.add_argument("--num-buckets", type=int, default=64)
    sp.add_argument("--num-perm", type=int, default=64)
    sp.add_argument("--bands", type=int, default=16)
    sp.add_argument("--shingle-k", type=int, default=3)

    sp = sub.add_parser(
        "dedup-neardup",
        help="near-dup dedup a parquet input against the MinHash ledger "
             "(bucket-pruned probes, corpus never rescanned); optionally "
             "commit survivors back as a new ledger part",
    )
    sp.add_argument("--input", required=True)
    sp.add_argument("--index", required=True, help="ledger directory")
    sp.add_argument("--threshold", type=float, default=0.6)
    sp.add_argument("--output", default=None,
                    help="write surviving rows to this directory as parquet")
    sp.add_argument("--update-part", default=None,
                    help="also extend the ledger with the survivors under "
                         "this part name")
    sp.add_argument("--limit", type=int, default=20,
                    help="hit rows printed (full hit list still computed)")

    sp = sub.add_parser(
        "index-embeddings",
        help="build or extend the embedding near-dup ledger over a parquet "
             "input (map-only hyperplane-LSH pass, atomic part swap; planes "
             "pinned by the first build)",
    )
    sp.add_argument("--input", required=True,
                    help="parquet file or directory with (vec_id, embedding)")
    sp.add_argument("--output", required=True, help="ledger directory")
    sp.add_argument("--part", default="base")
    sp.add_argument("--num-buckets", type=int, default=64)
    sp.add_argument("--n-planes", type=int, default=12)
    sp.add_argument("--seed", type=int, default=5)

    sp = sub.add_parser(
        "dedup-embdup",
        help="cosine near-dup dedup a parquet input against the embedding "
             "ledger (bucket-pruned probes, exact cosine verify)",
    )
    sp.add_argument("--input", required=True)
    sp.add_argument("--index", required=True, help="ledger directory")
    sp.add_argument("--threshold", type=float, default=0.95)
    sp.add_argument("--output", default=None,
                    help="write surviving rows to this directory as parquet")
    sp.add_argument("--update-part", default=None,
                    help="also extend the ledger with the survivors under "
                         "this part name")
    sp.add_argument("--limit", type=int, default=20)

    sp = sub.add_parser(
        "compact-ledger",
        help="merge a dedup ledger's epoch parts into one (manifest-ordered: "
             "compacted part first, atomic switch, old dirs removed last)",
    )
    sp.add_argument("--index", required=True, help="ledger directory")
    sp.add_argument("--into", default="compacted", help="compacted part name")

    sp = sub.add_parser(
        "export-shuffled",
        help="deterministic seeded global shuffle of a parquet input into N "
             "training shards (one map pass + one exchange; (shard, order) "
             "is a pure hash of key and seed)",
    )
    sp.add_argument("--input", required=True,
                    help="parquet file or directory to shuffle")
    sp.add_argument("--output", required=True)
    sp.add_argument("--num-shards", type=int, default=64)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--key-col", default="doc_id")

    sp = sub.add_parser(
        "index-tokens",
        help="build or incrementally refresh a BM25 token index over a "
             "committed table (re-derives ONLY partitions whose file "
             "chains changed since the indexed epoch)",
    )
    sp.add_argument("--table", required=True)
    sp.add_argument("--output", required=True, help="index directory")
    sp.add_argument("--num-buckets", type=int, default=64)

    sp = sub.add_parser(
        "search-tokens",
        help="BM25 top-k over a table token index — opens only the query "
             "token ids' postings buckets, no Ray job",
    )
    sp.add_argument("--index", required=True)
    sp.add_argument("--tokens", required=True,
                    help="comma-separated token ids")
    sp.add_argument("-k", type=int, default=10)
    sp.add_argument("--k1", type=float, default=1.2)
    sp.add_argument("--b", type=float, default=0.75)

    sp = sub.add_parser(
        "mutate",
        help="predicate mutation (ALTER TABLE ... DELETE/UPDATE WHERE "
             "analog): delete or set-constant rows WHERE col BETWEEN lo AND "
             "hi; partitions pruned by skip-index zones first, unmatched "
             "partitions never rewritten",
    )
    sp.add_argument("--table", required=True)
    sp.add_argument("--where", required=True,
                    help="col:lo:hi range predicate (empty lo/hi = unbounded "
                         "side), e.g. n_tok:100:200 or event_ts:2024-01-01:")
    sp.add_argument("--delete", action="store_true")
    sp.add_argument("--set", action="append", default=[],
                    metavar="COL=VALUE",
                    help="assign a constant to matched rows (repeatable)")

    sp = sub.add_parser(
        "scan",
        help="range scan WHERE col BETWEEN lo AND hi with skip-index pruning "
             "(ClickHouse minmax skip-index analog): partitions/files whose "
             "manifest zones cannot overlap never open",
    )
    sp.add_argument("--table", required=True)
    sp.add_argument("--col", required=True)
    sp.add_argument("--lo", default=None, help="inclusive lower bound")
    sp.add_argument("--hi", default=None, help="inclusive upper bound")
    sp.add_argument("--columns", default=None,
                    help="comma-separated projection (default: all)")
    sp.add_argument("--and", dest="and_preds", action="append", default=[],
                    metavar="COL:LO:HI",
                    help="additional conjunct (repeatable); parts must "
                         "overlap EVERY bounded column's zones to open")
    sp.add_argument("--limit", type=int, default=10)
    sp.add_argument("--epoch", type=int, default=None,
                    help="time-travel to a retained historical epoch")

    sp = sub.add_parser(
        "get",
        help="point lookup by key — opens only the routed partitions "
             "(driver-side latency path, no Ray job)",
    )
    sp.add_argument("--table", required=True)
    sp.add_argument("--keys", required=True, help="comma-separated key values")
    sp.add_argument("--epoch", type=int, default=None,
                    help="time-travel to a retained historical epoch")

    sp = sub.add_parser(
        "diff",
        help="CDC-out: the change stream (op c|u|d) between two retained "
             "epochs — unchanged partitions pruned at the manifest",
    )
    sp.add_argument("--table", required=True)
    sp.add_argument("--from-epoch", type=int, required=True)
    sp.add_argument("--to-epoch", type=int, default=None)
    sp.add_argument("--limit", type=int, default=20)
    sp.add_argument("--output", default=None,
                    help="stream the full change set to this directory as "
                         "parquet (one file per changed partition)")

    sp = sub.add_parser(
        "query",
        help="run a driver-contract query/operator by name over an sf dir "
             "(list available names with `query --list`)",
    )
    sp.add_argument("name", nargs="?", default=None)
    sp.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    sp.add_argument("--list", action="store_true", dest="list_queries")
    sp.add_argument("--limit", type=int, default=20,
                    help="rows printed (full result still computed)")
    sp.add_argument("--output", default=None,
                    help="write the FULL result to this directory as parquet "
                         "(Dataset results stream one file per block — never "
                         "materialized on the driver)")

    args = p.parse_args(argv)

    if args.cmd == "init":
        from .pipelines.apply import create_table
        from .schemas import FACT_SNAPSHOT_SCHEMA, SNAPSHOT_SCHEMA

        schema_name = args.schema or (
            "facts" if args.mode in ("append", "sum", "collapse") else "docs"
        )
        schema = FACT_SNAPSHOT_SCHEMA if schema_name == "facts" else SNAPSHOT_SCHEMA
        if args.mode == "collapse" and "sign" not in schema.names:
            import pyarrow as _pa

            schema = schema.append(_pa.field("sign", _pa.int32()))
        spec = (
            {"kind": "time", "col": args.partition_by_month, "granularity": "month"}
            if args.partition_by_month
            else None
        )
        key_col = args.key_col
        if args.key_col == "doc_id" and schema_name == "facts" and args.mode == "append":
            key_col = "event_id"
        ev_col = args.event_time_col
        if ev_col is None and schema_name == "facts":
            ev_col = "event_ts"
        sum_cols = (
            [c for c in (args.sum_cols or "").split(",") if c]
            if args.mode == "sum"
            else None
        )
        skip_cols = [c for c in (args.skip_cols or "").split(",") if c]
        man = create_table(
            args.table, num_partitions=args.num_partitions, schema=schema,
            mode=args.mode, key_col=key_col, partition_spec=spec,
            retention=args.retention, event_time_col=ev_col or "",
            sum_cols=sum_cols, skip_cols=skip_cols or None,
        )
        print(json.dumps({"table": args.table, "epoch": man.epoch, "mode": man.mode,
                          "partition_spec": man.spec,
                          "num_partitions": man.num_partitions}))
        return 0

    if args.cmd == "gen" and args.facts:
        from .sources.gen import FactGenParams, generate_fact_wal

        paths = generate_fact_wal(
            args.wal,
            FactGenParams(
                total_events=args.events,
                events_per_segment=args.events_per_segment,
                seed=args.seed,
            ),
        )
        print(json.dumps({"wal": args.wal, "segments": len(paths),
                          "events": args.events, "facts": True}))
        return 0

    if args.cmd == "gen":
        from .sources.gen import GenParams, generate_wal

        mix = tuple(float(x) for x in args.mix.split(","))
        params = GenParams(
            total_events=args.events,
            base_events=args.base_events if args.base_events is not None else args.events // 4,
            events_per_segment=args.events_per_segment,
            mix=mix,
            seed=args.seed,
            zipf_a=args.zipf_a,
            hot_frac=args.hot_frac,
            tok_min=args.tok_min,
            tok_max=args.tok_max,
            evolve_frac=args.evolve_frac,
            fmt=args.format,
            segments_per_shard=args.segments_per_shard,
        )
        if args.parallel:
            _init_ray(args.num_cpus)
        paths = generate_wal(args.wal, params, parallel=args.parallel)
        print(json.dumps({"wal": args.wal, "segments": len(paths),
                          "events": args.events}))
        if args.parallel:
            import ray

            ray.shutdown()
        return 0

    if args.cmd == "register":
        from .schemas import FACT_SNAPSHOT_SCHEMA, SNAPSHOT_SCHEMA
        from .state import registry as R

        schema_name = args.schema or (
            "facts" if args.mode in ("append", "sum", "collapse") else "docs"
        )
        schema = FACT_SNAPSHOT_SCHEMA if schema_name == "facts" else SNAPSHOT_SCHEMA
        if args.mode == "collapse" and "sign" not in schema.names:
            import pyarrow as _pa

            schema = schema.append(_pa.field("sign", _pa.int32()))
        key_col = args.key_col or (
            "event_id" if schema_name == "facts" and args.mode == "append"
            else "doc_id"
        )
        spec = (
            {"kind": "time", "col": args.partition_by_month, "granularity": "month"}
            if args.partition_by_month
            else None
        )
        s = R.register_table(
            args.root, args.name, schema, key_col=key_col, mode=args.mode,
            partition_spec=spec, num_partitions=args.num_partitions,
            depends_on=tuple(d for d in args.depends_on.split(",") if d),
            sum_cols=tuple(
                c for c in (args.sum_cols or "").split(",") if c
            ),
        )
        print(json.dumps({"registered": s.name, "mode": s.mode,
                          "key_col": s.key_col, "partition_spec": s.partition_spec,
                          "depends_on": list(s.depends_on)}))
        return 0

    if args.cmd == "registry-status":
        from .state import registry as R

        print(json.dumps(R.registry_status(args.root)))
        return 0

    if args.cmd == "verify-queries":
        from .pipelines.queries import verify_queries

        _init_ray(args.num_cpus)
        names = [n for n in (args.names or "").split(",") if n] or None
        res = verify_queries(args.sf_dir, names)
        for name in sorted(res):
            print(json.dumps({"query": name, **res[name]}))
        bad = [n for n, r in res.items() if r.get("err") or not r.get("match")]
        print(json.dumps({"total": len(res), "mismatches": sorted(bad)}))
        return 1 if bad else 0

    if args.cmd == "lake-status":
        from .state import registry as R

        print(json.dumps({
            "current": R.load_lake(args.root),
            "retained": R.lake_epochs(args.root),
        }))
        return 0

    if args.cmd == "sync":
        from .pipelines.apply import ApplyConfig
        from .state import registry as R

        ray = _init_ray(args.num_cpus)
        try:
            wals = {
                name: wal
                for name in R.load_registry(args.root)
                if os.path.isdir(wal := os.path.join(args.wal_root, name))
            }
            out = R.sync_all(
                args.root, wals, ApplyConfig(max_segments=args.epoch_segments)
            )
            for line in out:
                print(json.dumps(line))
            return 0 if not any("error" in o for o in out) else 1
        finally:
            ray.shutdown()

    if args.cmd == "truncate-wal":
        from .sources.wal import truncate_wal
        from .state.manifest import load_manifest

        removed = truncate_wal(args.wal, load_manifest(args.table).watermark)
        print(json.dumps({"removed_segments": len(removed)}))
        return 0

    if args.cmd == "mv-register":
        from .pipelines.mv import register_mv

        sums = []
        for item in filter(None, args.sums.split(",")):
            parts = item.split(":")
            if len(parts) != 3:
                print(f"error: --sums entry {item!r} must be col:scale:outname",
                      file=sys.stderr)
                return 1
            sums.append({"col": parts[0], "scale": float(parts[1]), "name": parts[2]})
        def _pairs(raw, what):
            out = []
            for item in filter(None, raw.split(",")):
                parts = item.split(":")
                if len(parts) != 2:
                    raise ValueError(
                        f"--{what} entry {item!r} must be col:outname"
                    )
                out.append({"col": parts[0], "name": parts[1]})
            return out

        distincts = []
        for item in filter(None, args.distincts.split(",")):
            parts = item.split(":")
            if len(parts) != 3:
                print(f"error: --distincts entry {item!r} must be "
                      "col:p:outname", file=sys.stderr)
                return 1
            distincts.append(
                {"col": parts[0], "p": int(parts[1]), "name": parts[2]}
            )
        spec = register_mv(
            args.table, args.name,
            group_keys=[k for k in args.group_keys.split(",") if k],
            sums=sums, date_from=args.date_from,
            mins=_pairs(args.mins, "mins"), maxs=_pairs(args.maxs, "maxs"),
            distincts=distincts,
        )
        # .get(): an idempotent re-registration returns the EXISTING spec,
        # which may predate the mins/maxs/distincts extension
        print(json.dumps({"mv": spec["name"], "group_keys": spec["group_keys"],
                          "sums": spec["sums"], "mins": spec.get("mins", []),
                          "maxs": spec.get("maxs", []),
                          "distincts": spec.get("distincts", []),
                          "watermark_lsn": spec["watermark_lsn"]}))
        return 0

    if args.cmd == "mv-read":
        from .pipelines.mv import read_mv

        t = read_mv(args.table, args.name)
        print(json.dumps({"mv": args.name, "groups": t.num_rows,
                          "columns": t.column_names}))
        print(t.to_pandas().head(args.limit).to_string(index=False))
        return 0

    if args.cmd == "mv-refresh":
        from .pipelines.mv import list_mvs, refresh_mv

        names = [args.name] if args.name else list_mvs(args.table)
        if not names:
            print(json.dumps({"refreshed": 0, "note": "no MVs registered"}))
            return 0
        ray = _init_ray(args.num_cpus)
        try:
            for name in names:
                tick = refresh_mv(args.table, args.wal, name)
                print(json.dumps(tick if tick else {"mv": name, "caught_up": True}))
        finally:
            ray.shutdown()
        return 0

    if args.cmd in ("apply", "compact", "ttl-expire", "repartition", "import", "kpi"):
        ray = _init_ray(args.num_cpus)
        try:
            if args.cmd == "apply":
                from .pipelines.apply import ApplyConfig, apply_once

                cfg = ApplyConfig(
                    max_segments=args.epoch_segments,
                    salt_factor=args.salt_factor,
                    hot_ratio=args.hot_ratio,
                    compact_threshold=args.compact_threshold,
                    allowed_lateness_s=args.allowed_lateness,
                    dlq_dir=args.dlq,
                    auto_compact_ratio=args.auto_compact,
                )
                while True:
                    stats = apply_once(args.table, args.wal, cfg)
                    if stats:
                        print(json.dumps(stats))
                        if args.auto_compact is not None:
                            from .pipelines.apply import compact_table

                            cstats = compact_table(
                                args.table, size_ratio=args.auto_compact
                            )
                            if cstats:
                                print(json.dumps(cstats))
                        if args.refresh_mvs:
                            from .pipelines.mv import list_mvs, refresh_mv

                            for name in list_mvs(args.table):
                                tick = refresh_mv(args.table, args.wal, name)
                                if tick:
                                    print(json.dumps(tick))
                        if args.refresh_artifacts:
                            from .state.artifacts import refresh_artifacts

                            res = refresh_artifacts(args.table)
                            if res:
                                print(json.dumps({"artifacts": res}))
                    if args.once or (stats is None and not args.follow):
                        break
                    if stats is None:
                        time.sleep(args.interval)
            elif args.cmd == "compact":
                from .pipelines.apply import compact_table

                stats = compact_table(args.table, size_ratio=args.size_ratio)
                print(json.dumps(stats if stats else {"compacted": 0, "clean": True}))
            elif args.cmd == "ttl-expire":
                from .pipelines.apply import ttl_expire

                stats = ttl_expire(args.table, args.col, args.cutoff)
                print(json.dumps(stats if stats else {"rows_expired": 0, "clean": True}))
            elif args.cmd == "repartition":
                from .pipelines.apply import repartition_table

                print(json.dumps(repartition_table(args.table, args.num_partitions)))
            elif args.cmd == "import":
                from .pipelines.apply import import_base

                print(json.dumps(import_base(args.table, args.parquet, key_col=args.key_col)))
            else:
                from .pipelines.kpi import kpi_report

                print(json.dumps(kpi_report(args.table, epoch=args.epoch), default=str))
        finally:
            ray.shutdown()
        return 0

    if args.cmd == "export-sorted":
        from .pipelines.apply import read_snapshot
        from .pipelines.export import export_sorted

        ray = _init_ray(args.num_cpus)
        try:
            index = export_sorted(
                read_snapshot(args.table), args.col, args.output,
                num_files=args.num_files,
            )
            print(json.dumps({
                "output": args.output, "sort_col": args.col,
                "files": len(index["files"]), "rows": index["total_rows"],
            }))
        finally:
            ray.shutdown()
        return 0

    if args.cmd == "export-zorder":
        from .pipelines.apply import read_snapshot
        from .pipelines.export import export_zorder

        ray = _init_ray(args.num_cpus)
        try:
            cols = [c.strip() for c in args.cols.split(",") if c.strip()]
            index = export_zorder(
                read_snapshot(args.table), cols, args.output,
                num_files=args.num_files,
            )
            print(json.dumps({
                "output": args.output, "zorder_cols": cols,
                "files": len(index["files"]), "rows": index["total_rows"],
            }))
        finally:
            ray.shutdown()
        return 0

    if args.cmd == "zbox":
        from .pipelines.export import read_zorder_box

        box = {}
        for part in args.where.split(","):
            col, lo, hi = part.split(":")
            box[col] = (float(lo) if lo else None, float(hi) if hi else None)
        ray = _init_ray(args.num_cpus)
        try:
            ds = read_zorder_box(args.dir, box)
            n = ds.count()
            sample = ds.limit(args.limit).to_pandas() if n else None
            print(json.dumps({
                "dir": args.dir,
                "box": {c: list(b) for c, b in box.items()},
                "rows": int(n),
                "sample": (
                    sample.to_dict("records") if sample is not None else []
                ),
            }, default=str))
        finally:
            ray.shutdown()
        return 0

    if args.cmd == "mutate":
        from .pipelines.apply import mutate_table
        from .state.manifest import load_manifest

        man = load_manifest(args.table)

        def _typed(colname, s):
            if s is None or s == "" or colname not in man.schema.names:
                return None if s in (None, "") else s
            import pyarrow as _pa

            t = man.schema.field(colname).type
            if _pa.types.is_integer(t):
                return int(s)
            if _pa.types.is_floating(t):
                return float(s)
            return s  # strings/timestamps: workers cast ISO strings

        w_col, w_lo, w_hi = args.where.split(":", 2)
        set_cols = {}
        for item in args.set:
            name, _, val = item.partition("=")
            set_cols[name] = _typed(name, val)
        ray = _init_ray(args.num_cpus)
        try:
            out = mutate_table(
                args.table, w_col, _typed(w_col, w_lo), _typed(w_col, w_hi),
                delete=args.delete, set_cols=set_cols or None,
            )
            print(json.dumps(out if out is not None
                             else {"mutated": False, "reason": "no rows matched"}))
        finally:
            ray.shutdown()
        return 0

    if args.cmd == "scan":
        from .pipelines.scan import read_where_multi
        from .state.manifest import load_manifest

        man = load_manifest(args.table)

        def _bound(colname, s):
            if s in (None, "") or colname not in man.schema.names:
                return None if s in (None, "") else s
            import pyarrow as _pa

            t = man.schema.field(colname).type
            if _pa.types.is_integer(t):
                return int(s)
            if _pa.types.is_floating(t):
                return float(s)
            return s  # strings/timestamps: Arrow casts ISO strings itself

        preds = {args.col: (_bound(args.col, args.lo), _bound(args.col, args.hi))}
        for spec in args.and_preds:
            c, lo, hi = spec.split(":", 2)
            preds[c] = (_bound(c, lo), _bound(c, hi))
        ray = _init_ray(args.num_cpus)
        try:
            ds, plan = read_where_multi(
                args.table, preds,
                columns=(
                    [c for c in args.columns.split(",") if c]
                    if args.columns else None
                ),
                epoch=args.epoch,
            )
            n = ds.count()
            sample = ds.limit(args.limit).to_pandas() if n else None
            print(json.dumps({
                "rows": int(n),
                "partitions_scanned": len(plan["partitions"]),
                "partitions_pruned": plan["partitions_pruned"],
                "files_total": plan["files_total"],
                "files_pruned": plan["files_pruned"],
                "pruned_by_zones": plan["pruned_by_zones"],
            }))
            if sample is not None:
                print(sample.to_string(index=False))
        finally:
            ray.shutdown()
        return 0

    if args.cmd == "get":
        from .pipelines.lookup import lookup_keys

        t = lookup_keys(
            args.table, [k for k in args.keys.split(",") if k], epoch=args.epoch
        )
        print(json.dumps({"rows": t.num_rows, "columns": t.column_names}))
        if t.num_rows:
            print(t.to_pandas().to_string(index=False))
        return 0

    if args.cmd == "diff":
        from .pipelines.diff import changed_partitions, table_diff

        plan = changed_partitions(args.table, args.from_epoch, args.to_epoch)
        ray = _init_ray(args.num_cpus)
        try:
            ds = table_diff(args.table, args.from_epoch, args.to_epoch)
            if args.output:
                ds.write_parquet(args.output)
                print(json.dumps({
                    "from_epoch": args.from_epoch, "to_epoch": args.to_epoch,
                    "changed_partitions": len(plan), "output": args.output,
                }))
            else:
                import pandas as pd

                with pd.option_context("display.width", 200):
                    head = ds.limit(args.limit).to_pandas()
                    print(json.dumps({
                        "from_epoch": args.from_epoch, "to_epoch": args.to_epoch,
                        "changed_partitions": len(plan),
                        "columns": list(head.columns),
                    }))
                    print(head.to_string(index=False))
        finally:
            ray.shutdown()
        return 0

    if args.cmd == "search-bm25":
        from .functions.retrieval import bm25_index_topk, bm25_topk

        t0 = time.perf_counter()
        if args.index:
            # latency path: a few postings-bucket file reads, no Ray session
            res = bm25_index_topk(args.index, args.query, k=args.k,
                                  k1=args.k1, b=args.b)
        else:
            _init_ray(args.num_cpus)
            import ray.data as rd

            ds = rd.read_parquet(
                os.path.join(args.sf_dir, "documents.parquet"),
                columns=["doc_id", "text"],
            )
            res = bm25_topk(ds, args.query, k=args.k, k1=args.k1, b=args.b)
        print(json.dumps({
            "query": args.query, "k": args.k, "rows": res.num_rows,
            "indexed": bool(args.index),
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        print(res.to_pandas().to_string(index=False))
        return 0

    if args.cmd == "index-tokens":
        from .functions.retrieval import refresh_table_token_index

        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        res = refresh_table_token_index(
            args.table, args.output, num_buckets=args.num_buckets
        )
        print(json.dumps({
            "table": args.table, "output": args.output,
            "indexed_epoch": res["indexed_epoch"],
            "refreshed_pids": res["refreshed_pids"],
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        return 0

    if args.cmd == "search-tokens":
        from .functions.retrieval import bm25_table_index_topk

        t0 = time.perf_counter()
        qtoks = [int(t) for t in args.tokens.split(",") if t]
        res = bm25_table_index_topk(args.index, qtoks, k=args.k,
                                    k1=args.k1, b=args.b)
        print(json.dumps({
            "tokens": qtoks, "k": args.k, "rows": res.num_rows,
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        print(res.to_pandas().to_string(index=False))
        return 0

    if args.cmd == "mix-sample":
        from .functions.mixing import (
            source_token_totals,
            temperature_budgets,
            token_budget_sample,
        )

        if (args.budgets is None) == (args.total_tokens is None):
            raise ValueError(
                "mix-sample needs exactly one of --budgets or --total-tokens"
            )
        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        import ray.data as rd

        ds = rd.read_parquet(os.path.join(args.sf_dir, "documents.parquet"))
        if args.budgets is not None:
            budgets = {}
            for part in args.budgets.split(","):
                s, _, v = part.partition(":")
                budgets[s] = int(v)
        else:
            totals = source_token_totals(ds, tok_col=args.tok_col)
            budgets = temperature_budgets(
                totals, args.total_tokens, args.temperature
            )
        out = token_budget_sample(ds, budgets, tok_col=args.tok_col)
        if args.output:
            if os.path.isdir(args.output) and any(
                f.endswith(".parquet") for f in os.listdir(args.output)
            ):
                # same guard as `query --output`: Ray writes unique file
                # names, so a reused dir silently interleaves two samples
                raise ValueError(
                    f"output dir {args.output} already holds parquet files; "
                    "point --output at an empty or new directory"
                )
            # streaming sink; the summary below reads the written files so
            # the pipeline executes exactly once
            out.write_parquet(args.output)
            out = rd.read_parquet(args.output)
        pdf = out.groupby("source").sum(args.tok_col).to_pandas()
        pdf = pdf.sort_values("source").reset_index(drop=True)
        print(json.dumps({
            "budgets": budgets, "tok_col": args.tok_col,
            "output": args.output,
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        print(pdf.to_string(index=False))
        return 0

    if args.cmd == "decontaminate":
        from .functions.textstats import ngram_decontaminate

        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        import pandas as pd
        import pyarrow.parquet as pq
        import ray.data as rd

        snippets = (
            pq.read_table(args.snippets, columns=["text"])
            .column("text")
            .to_pylist()
        )
        ds = rd.read_parquet(
            os.path.join(args.sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        )
        out = ngram_decontaminate(
            ds, snippets, k=args.k, min_hits=args.min_hits
        )
        # contamination is rare by nature — the flagged set is small
        # (driver-safe) however big the corpus; materialize it once, then
        # write, so a zero-hit run still has a typed frame to report
        hits = out.to_pandas()
        if hits.empty:
            hits = pd.DataFrame(
                columns=["doc_id", "n_shingles", "n_contaminated",
                         "contam_frac"]
            )
        hits = hits.sort_values(
            ["n_contaminated", "doc_id"], ascending=[False, True]
        )
        if args.output:
            if os.path.isdir(args.output) and any(
                f.endswith(".parquet") for f in os.listdir(args.output)
            ):
                raise ValueError(
                    f"output dir {args.output} already holds parquet files; "
                    "point --output at an empty or new directory"
                )
            os.makedirs(args.output, exist_ok=True)
            import pyarrow as pa_

            pq.write_table(
                pa_.Table.from_pandas(hits, preserve_index=False),
                os.path.join(args.output, "part-00000.parquet"),
            )
        print(json.dumps({
            "snippets": len(snippets), "k": args.k,
            "min_hits": args.min_hits, "flagged_docs": len(hits),
            "output": args.output,
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        print(hits.head(20).to_string(index=False))
        return 0

    if args.cmd == "train-classifier":
        from .functions.classifier import train_nb

        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        import ray.data as rd

        ds = rd.read_parquet(
            os.path.join(args.sf_dir, "documents.parquet"),
            columns=[args.text_col, args.label_col],
        )
        model = train_nb(
            ds,
            label_col=args.label_col,
            text_col=args.text_col,
            dim=args.dim,
            alpha=args.alpha,
            bigrams=not args.no_bigrams,
        )
        model.save(args.output)
        print(json.dumps({
            "classes": model.classes,
            "doc_counts": model.doc_counts.tolist(),
            "dim": model.dim, "bigrams": model.bigrams,
            "model": args.output,
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        return 0

    if args.cmd == "train-lm":
        from .functions.lm import train_lm

        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        import ray.data as rd

        ds = rd.read_parquet(
            os.path.join(args.sf_dir, "documents.parquet"),
            columns=[args.text_col],
        )
        model = train_lm(
            ds, text_col=args.text_col, dim_u=args.dim_u, dim_b=args.dim_b
        )
        model.save(args.output)
        print(json.dumps({
            "n_tokens": model.n_tokens,
            "dim_u": model.dim_u, "dim_b": model.dim_b,
            "feature_kind": model.feature_kind,
            "distinct_unigram_buckets": int((model.uni > 0).sum()),
            "distinct_bigram_buckets": int((model.bi > 0).sum()),
            "model": args.output,
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        return 0

    if args.cmd == "lm-refresh":
        from .functions.lm import refresh_table_lm

        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        meta = refresh_table_lm(
            args.table,
            args.output,
            feature_col=args.feature_col,
            dim_u=args.dim_u,
            dim_b=args.dim_b,
        )
        print(json.dumps({
            **{k: meta[k] for k in
               ("indexed_epoch", "dim_u", "dim_b", "feature_col")},
            "refreshed_pids": meta["refreshed_pids"],
            "output": args.output,
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        return 0

    if args.cmd == "gopher-filter":
        from .functions.textstats import GopherRules

        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        import pyarrow.compute as _pc
        import ray.data as rd

        ds = rd.read_parquet(os.path.join(args.sf_dir, "documents.parquet"))
        out = ds.map_batches(
            GopherRules,
            fn_constructor_kwargs={
                "text_col": args.text_col, "min_words": args.min_words
            },
            batch_format="pyarrow",
            concurrency=(1, 8),
            num_cpus=1,
        )
        if args.keep:
            out = out.map_batches(
                lambda b: b.filter(_pc.equal(b.column("gopher_pass"), True)),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
        if args.output:
            out.write_parquet(args.output)
            out = rd.read_parquet(args.output)
        n = out.count()
        n_pass = out.sum("gopher_pass") if not args.keep else n
        print(json.dumps({
            "rows": int(n),
            "gopher_pass": int(n_pass or 0),
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        return 0

    if args.cmd == "train-bpe":
        from .functions.bpe import train_bpe

        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        import ray.data as rd

        ds = rd.read_parquet(
            os.path.join(args.sf_dir, "documents.parquet"),
            columns=[args.text_col],
        )
        model = train_bpe(
            ds, text_col=args.text_col, num_merges=args.merges,
            min_count=args.min_count, max_words=args.max_words,
            model_dir=args.output,
        )
        print(json.dumps({
            "merges": len(model.merges),
            "vocab_size": len(model.vocab),
            "first_merges": [list(m) for m in model.merges[:5]],
            "model": args.output,
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        return 0

    if args.cmd == "bpe-refresh":
        from .functions.bpe import refresh_table_bpe

        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        meta = refresh_table_bpe(args.table, args.output, text_col=args.text_col)
        print(json.dumps({
            "indexed_epoch": meta["indexed_epoch"],
            "refreshed_pids": meta["refreshed_pids"],
            "output": args.output,
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        return 0

    if args.cmd == "bpe-encode":
        from .functions.bpe import BPEModel, encode_dataset, load_table_bpe

        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        import ray.data as rd

        if os.path.isdir(os.path.join(args.model, "partials")):
            model = load_table_bpe(args.model, num_merges=args.merges)
        else:
            model = BPEModel.load(args.model)
        ds = rd.read_parquet(os.path.join(args.sf_dir, "documents.parquet"))
        out = encode_dataset(ds, model, text_col=args.text_col)
        if args.output:
            out.write_parquet(args.output)
            out = rd.read_parquet(args.output)
        n_rows = out.count()
        pieces = out.sum("n_bpe_pieces")
        sample = out.limit(args.limit).to_pandas()
        print(json.dumps({
            "rows": int(n_rows),
            "total_pieces": int(pieces),
            "vocab_size": len(model.vocab),
            "sample_ids": sample["bpe_ids"].iloc[0][:12].tolist()
            if len(sample) else [],
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        return 0

    if args.cmd == "lm-score":
        from .functions.lm import load_lm_any, score_lm, score_lm_table

        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        import ray.data as rd

        model = load_lm_any(args.model)
        if args.table:
            if args.max_ppl is not None:
                raise ValueError(
                    "--max-ppl filtering applies to --sf-dir scoring; table "
                    "scoring reports lm_ppl for every committed row"
                )
            out = score_lm_table(
                args.table, model, feature_col=args.feature_col
            )
        else:
            ds = rd.read_parquet(
                os.path.join(args.sf_dir, "documents.parquet")
            )
            out = score_lm(
                ds, model, text_col=args.text_col, max_ppl=args.max_ppl
            )
        if args.output:
            out.write_parquet(args.output)
            out = _read_parquet_or_empty(rd, args.output)
        stats = None
        if out is not None:
            from ray.data.aggregate import Count, Mean

            # aggregate() returns None on an empty dataset (a max-ppl cut
            # can legitimately drop every row)
            stats = out.aggregate(Count(), Mean("lm_ppl"))
        rows = int(stats.get("count()", 0)) if stats else 0
        mean = stats.get("mean(lm_ppl)") if stats else None
        print(json.dumps({
            "model": args.model,
            "rows": rows,
            "mean_ppl": round(float(mean), 4) if rows and mean is not None else None,
            "max_ppl": args.max_ppl, "output": args.output,
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        return 0

    if args.cmd == "classifier-refresh":
        from .functions.classifier import refresh_table_classifier

        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        meta = refresh_table_classifier(
            args.table,
            args.output,
            label_col=args.label_col,
            feature_col=args.feature_col,
            dim=args.dim,
            alpha=args.alpha,
            bigrams=not args.no_bigrams,
        )
        print(json.dumps({
            **{k: meta[k] for k in
               ("indexed_epoch", "dim", "bigrams", "label_col", "feature_col")},
            "refreshed_pids": meta["refreshed_pids"],
            "output": args.output,
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        return 0

    if args.cmd == "classify":
        from .functions.classifier import (
            classify as classify_ds,
            classify_table,
            load_classifier_any,
        )

        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        import ray.data as rd

        model = load_classifier_any(args.model)
        if args.table:
            if args.min_prob is not None:
                raise ValueError(
                    "--min-prob filtering applies to --sf-dir scoring; "
                    "table scoring reports scores for every committed row"
                )
            out = classify_table(
                args.table, model,
                feature_col=args.feature_col,
                positive=args.positive,
            )
        else:
            ds = rd.read_parquet(
                os.path.join(args.sf_dir, "documents.parquet")
            )
            out = classify_ds(
                ds, model,
                text_col=args.text_col,
                positive=args.positive,
                min_prob=args.min_prob,
            )
        import pandas as pd

        if args.output:
            out.write_parquet(args.output)
            out = _read_parquet_or_empty(rd, args.output)
        if out is None:  # every row filtered: a valid, empty result
            hist = pd.DataFrame(columns=["pred_label", "count()"])
        else:
            hist = out.groupby("pred_label").count().to_pandas()
        n = int(hist["count()"].sum()) if len(hist) else 0
        print(json.dumps({
            "model": args.model, "rows": n,
            "per_class": {
                r["pred_label"]: int(r["count()"]) for _, r in hist.iterrows()
            },
            "positive": args.positive, "min_prob": args.min_prob,
            "output": args.output,
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        return 0

    if args.cmd == "span-dedup":
        from .functions.dedup import span_dedup

        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        import pyarrow as pa_
        import ray.data as rd

        ds = rd.read_parquet(
            os.path.join(args.sf_dir, "documents.parquet"),
            columns=["doc_id", args.text_col],
        )
        out = span_dedup(ds, text_col=args.text_col, span=args.span)
        tables = [b for b in out.iter_batches(batch_format="pyarrow")]
        t = pa_.concat_tables([b for b in tables if b.num_rows])
        if args.output:
            import pyarrow.parquet as pq_

            os.makedirs(args.output, exist_ok=True)
            pq_.write_table(t, os.path.join(args.output, "part-00000.parquet"))
        import pyarrow.compute as pc_

        n_docs = t.num_rows
        n_touched = int(
            pc_.sum(pc_.greater(t.column("n_removed_words"), 0).cast("int64")).as_py()
            or 0
        )
        print(json.dumps({
            "span": args.span, "docs": n_docs, "docs_touched": n_touched,
            "words_removed": int(pc_.sum(t.column("n_removed_words")).as_py() or 0),
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        return 0

    if args.cmd == "semdedup":
        from .functions.dedup import semdedup

        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        import pyarrow as pa_
        import pyarrow.parquet as pq_
        import ray.data as rd

        ds = rd.read_parquet(
            os.path.join(args.sf_dir, "embeddings.parquet"),
            columns=["vec_id", "embedding"],
        )
        out = semdedup(
            ds,
            eps=args.eps,
            n_clusters=args.n_clusters,
            keep=args.keep,
            max_cluster=args.max_cluster,
        )
        if args.output:
            os.makedirs(args.output, exist_ok=True)
            pq_.write_table(
                pa_.Table.from_pandas(out, preserve_index=False),
                os.path.join(args.output, "part-00000.parquet"),
            )
        n_groups = out["rep"].nunique() if len(out) else 0
        print(json.dumps({
            "eps": args.eps, "n_clusters": args.n_clusters,
            "keep": args.keep, "dup_rows": int(len(out)),
            "dup_groups": int(n_groups),
            "rows_dropped": int(len(out) - n_groups),
            "capped_buckets": int(out.attrs.get("capped_buckets", 0)),
            "output": args.output,
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        print(out.head(20).to_string(index=False))
        return 0

    if args.cmd == "curate":
        from .pipelines.curate import curate_table

        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        res = curate_table(
            args.table,
            args.output,
            lm_model_dir=args.lm,
            max_ppl=args.max_ppl,
            clf_model_dir=args.classifier,
            positive=args.positive,
            min_prob=args.min_prob,
            feature_col=args.feature_col,
            num_shards=args.num_shards,
            seed=args.seed,
        )
        print(json.dumps({
            **res, "output": args.output,
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        return 0

    if args.cmd == "index-text":
        from .functions.retrieval import build_text_index

        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        import ray.data as rd

        ds = rd.read_parquet(
            os.path.join(args.sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        )
        meta = build_text_index(ds, args.output, num_buckets=args.num_buckets)
        print(json.dumps({
            "output": args.output, **meta,
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        return 0

    if args.cmd == "index-pq":
        from .functions.similarity import build_pq_index

        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        import ray.data as rd

        ds = rd.read_parquet(
            os.path.join(args.sf_dir, "embeddings.parquet"),
            columns=["vec_id", "embedding"],
        )
        meta = build_pq_index(
            ds, args.output, n_centroids=args.n_centroids, m=args.m,
            ksub=args.ksub, refine_iters=args.refine_iters,
        )
        print(json.dumps({
            "output": args.output, **meta,
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        return 0

    if args.cmd == "search-pq":
        import numpy as np
        import pyarrow.parquet as pq

        from .functions.similarity import pq_index_topk

        t0 = time.perf_counter()
        qids = [int(s) for s in args.query_ids.split(",") if s]
        qt = pq.read_table(
            os.path.join(args.sf_dir, "embeddings.parquet"),
            columns=["vec_id", "embedding"],
            filters=[("vec_id", "in", qids)],
        )
        order = {int(v): i for i, v in enumerate(qt.column("vec_id").to_pylist())}
        missing = sorted(set(qids) - set(order))
        if missing:
            raise ValueError(
                f"query ids not in the embeddings table: {missing}"
            )
        emb = np.stack(
            [qt.column("embedding")[order[q]].as_py() for q in qids]
        )
        res = pq_index_topk(
            args.index, emb, qids, k=args.k, nprobe=args.nprobe,
            rerank=args.rerank,
            source=os.path.join(args.sf_dir, "embeddings.parquet")
            if args.rerank else None,
        )
        print(json.dumps({
            "index": args.index, "k": args.k, "nprobe": args.nprobe,
            "rerank": args.rerank, "rows": len(res),
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        print(res.to_string(index=False))
        return 0

    if args.cmd == "index-ann":
        from .functions.similarity import refresh_table_ann_index

        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        meta = refresh_table_ann_index(
            args.table, args.output, n_centroids=args.n_centroids,
            vec_col=args.vec_col,
        )
        print(json.dumps({
            "table": args.table, "output": args.output,
            "indexed_epoch": meta["indexed_epoch"],
            "refreshed_pids": meta["refreshed_pids"],
            "n_centroids": meta["n_centroids"], "dim": meta["dim"],
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        return 0

    if args.cmd == "search-ann":
        import json as _json

        import numpy as np

        from .functions.similarity import ann_table_index_topk
        from .pipelines.lookup import lookup_keys

        t0 = time.perf_counter()
        with open(os.path.join(args.index, "meta.json")) as f:
            imeta = _json.load(f)
        keys = [s for s in args.keys.split(",") if s]
        rows = lookup_keys(args.table, keys)
        found = rows.column(imeta["key_col"]).to_pylist()
        missing = sorted(set(keys) - set(found))
        if missing:
            raise ValueError(f"query keys not in table: {missing}")
        emb = np.stack(
            [np.asarray(v, dtype=np.float64)
             for v in rows.column(imeta["vec_col"]).to_pylist()]
        )
        res = ann_table_index_topk(
            args.index, emb, found, k=args.k, nprobe=args.nprobe
        )
        print(json.dumps({
            "index": args.index, "k": args.k, "nprobe": args.nprobe,
            "rows": len(res),
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        print(res.to_string(index=False))
        return 0

    if args.cmd == "index-fingerprints":
        from .functions.dedup import build_fingerprint_index

        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        import ray.data as rd

        ds = rd.read_parquet(args.input, columns=["doc_id", "text"])
        meta = build_fingerprint_index(
            ds, args.output, part=args.part, num_buckets=args.num_buckets
        )
        print(json.dumps({
            "output": args.output, "part": args.part, **meta,
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        return 0

    if args.cmd == "dedup-incremental":
        from .functions.dedup import build_fingerprint_index, incremental_dedup

        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        import ray.data as rd

        surv = incremental_dedup(rd.read_parquet(args.input), args.index)
        if args.output or args.update_part:
            # consumed up to three times below — pin the blocks once
            surv = surv.materialize()
        n = surv.count()
        if args.output:
            surv.write_parquet(args.output)
        if args.update_part:
            build_fingerprint_index(
                surv.select_columns(["doc_id", "text"]),
                args.index,
                part=args.update_part,
            )
        print(json.dumps({
            "survivors": n, "index": args.index, "output": args.output,
            "update_part": args.update_part,
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        return 0

    if args.cmd == "index-minhash":
        from .functions.dedup import build_minhash_index

        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        import ray.data as rd

        ds = rd.read_parquet(args.input, columns=["doc_id", "text"])
        meta = build_minhash_index(
            ds, args.output, part=args.part, num_buckets=args.num_buckets,
            num_perm=args.num_perm, bands=args.bands, shingle_k=args.shingle_k,
        )
        print(json.dumps({
            "output": args.output, "part": args.part, **meta,
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        return 0

    if args.cmd == "dedup-neardup":
        from .functions.dedup import build_minhash_index, incremental_neardup_dedup

        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        import ray.data as rd

        surv, hits = incremental_neardup_dedup(
            rd.read_parquet(args.input), args.index, threshold=args.threshold
        )
        if args.output or args.update_part:
            surv = surv.materialize()
        n = surv.count()
        if args.output:
            surv.write_parquet(args.output)
        if args.update_part:
            build_minhash_index(
                surv.select_columns(["doc_id", "text"]),
                args.index,
                part=args.update_part,
            )
        print(json.dumps({
            "survivors": n, "near_dups": len(hits),
            "capped_candidates": hits.attrs.get("capped", 0),
            "index": args.index, "output": args.output,
            "update_part": args.update_part,
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        print(hits.head(args.limit).to_string(index=False))
        return 0

    if args.cmd == "index-embeddings":
        from .functions.dedup import build_embedding_index

        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        import ray.data as rd

        ds = rd.read_parquet(args.input, columns=["vec_id", "embedding"])
        meta = build_embedding_index(
            ds, args.output, part=args.part, num_buckets=args.num_buckets,
            n_planes=args.n_planes, seed=args.seed,
        )
        print(json.dumps({
            "output": args.output, "part": args.part, **meta,
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        return 0

    if args.cmd == "dedup-embdup":
        from .functions.dedup import build_embedding_index, incremental_embdup_dedup

        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        import ray.data as rd

        surv, hits = incremental_embdup_dedup(
            rd.read_parquet(args.input), args.index, threshold=args.threshold
        )
        if args.output or args.update_part:
            surv = surv.materialize()
        n = surv.count()
        if args.output:
            surv.write_parquet(args.output)
        if args.update_part:
            build_embedding_index(
                surv.select_columns(["vec_id", "embedding"]),
                args.index,
                part=args.update_part,
            )
        print(json.dumps({
            "survivors": n, "near_dups": len(hits),
            "capped_candidates": hits.attrs.get("capped", 0),
            "index": args.index, "output": args.output,
            "update_part": args.update_part,
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        print(hits.head(args.limit).to_string(index=False))
        return 0

    if args.cmd == "export-shuffled":
        from .pipelines.export import export_shuffled

        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        import ray.data as rd

        meta = export_shuffled(
            rd.read_parquet(args.input), args.output,
            num_shards=args.num_shards, seed=args.seed, key_col=args.key_col,
        )
        print(json.dumps({
            "output": args.output, **meta,
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        return 0

    if args.cmd == "compact-ledger":
        from .functions.dedup import compact_ledger

        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        out = compact_ledger(args.index, into=args.into)
        print(json.dumps({
            "index": args.index, **out,
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        return 0

    if args.cmd == "query":
        from .pipelines.queries import ALL_QUERIES

        if args.list_queries or args.name is None:
            print(json.dumps(sorted(ALL_QUERIES)))
            return 0
        if args.name not in ALL_QUERIES:
            raise ValueError(
                f"unknown query {args.name!r} — `query --list` prints the names"
            )
        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        res = ALL_QUERIES[args.name](args.sf_dir)
        import pandas as pd
        import pyarrow as pa

        import ray.data as rd

        if args.output:
            import pyarrow.parquet as pq

            if os.path.isdir(args.output) and any(
                f.endswith(".parquet") for f in os.listdir(args.output)
            ):
                # refuse to interleave with a previous result: the row count
                # below (and any downstream reader) cannot tell the two
                # queries' files apart
                raise ValueError(
                    f"output dir {args.output} already holds parquet files; "
                    "point --output at an empty or new directory"
                )
            if isinstance(res, rd.Dataset):
                # streaming sink: one file per block, no driver materialization
                res.write_parquet(args.output)
            else:
                tbl = (
                    res
                    if isinstance(res, pa.Table)
                    else pa.Table.from_pandas(pd.DataFrame(res), preserve_index=False)
                )
                os.makedirs(args.output, exist_ok=True)
                pq.write_table(tbl, os.path.join(args.output, "part-0.parquet"))
            files = sorted(
                f for f in os.listdir(args.output) if f.endswith(".parquet")
            )
            rows = sum(
                pq.ParquetFile(os.path.join(args.output, f)).metadata.num_rows
                for f in files
            )
            print(json.dumps({
                "query": args.name, "sf_dir": args.sf_dir, "output": args.output,
                "files": len(files), "rows": rows,
                "wall_s": round(time.perf_counter() - t0, 3),
            }))
            return 0
        if isinstance(res, rd.Dataset):
            pdf = res.to_pandas()
        elif isinstance(res, pa.Table):
            pdf = res.to_pandas()
        else:
            pdf = pd.DataFrame(res)
        wall = time.perf_counter() - t0
        print(json.dumps({
            "query": args.name, "sf_dir": args.sf_dir, "rows": len(pdf),
            "columns": list(map(str, pdf.columns)), "wall_s": round(wall, 3),
        }))
        with pd.option_context("display.max_columns", 20, "display.width", 200):
            print(pdf.head(args.limit).to_string(index=False))
        return 0

    if args.cmd == "artifact-register":
        from .state.artifacts import register_artifact

        params = {}
        for kv in args.param:
            k, _, v = kv.partition("=")
            if not _:
                raise ValueError(f"--param needs key=value, got {kv!r}")
            if v.lower() in ("true", "false"):
                params[k] = v.lower() == "true"
            else:
                try:
                    params[k] = int(v)
                except ValueError:
                    try:
                        params[k] = float(v)
                    except ValueError:
                        params[k] = v
        spec = register_artifact(
            args.table, args.name, args.kind, args.dest, params
        )
        print(json.dumps({"name": args.name, **spec}))
        return 0

    if args.cmd == "artifacts-refresh":
        from .state.artifacts import refresh_artifacts

        _init_ray(args.num_cpus)
        t0 = time.perf_counter()
        res = refresh_artifacts(args.table)
        print(json.dumps({
            "table": args.table,
            "artifacts": res,
            "wall_s": round(time.perf_counter() - t0, 3),
        }))
        return 0

    if args.cmd == "fsck":
        from .state.fsck import fsck_table

        report = fsck_table(args.table, repair=args.repair)
        print(json.dumps(report))
        return 0 if report["ok"] else 1

    if args.cmd == "status":
        from .state.manifest import load_manifest, retained_epochs

        from .pipelines.mv import list_mvs, load_mv

        man = load_manifest(args.table)
        dirty = sum(
            1 for p in man.partitions.values() if not p.get("exact_rows", True)
        )
        doc = {
            "epoch": man.epoch,
            "num_partitions": man.num_partitions,
            "watermark": man.watermark,
            # exact after compaction; a lower bound while delta chains
            # are pending (run `compact` for an exact count)
            "rows": man.total_rows(),
            "rows_exact": dirty == 0,
            "partitions_with_pending_deltas": dirty,
            "retained_epochs": retained_epochs(args.table),
            "schema": str(man.schema).replace("\n", ", "),
            "last": man.history[-1] if man.history else None,
        }
        if man.event_time_col:
            doc["event_time_col"] = man.event_time_col
            doc["event_time_watermark_us"] = man.event_time_watermark_us
        mvs = list_mvs(args.table)
        if mvs:
            doc["mvs"] = {}
            for n in mvs:
                mspec = load_mv(args.table, n)
                if mspec.get("table_mode", "append") == "upsert":
                    # upsert MVs track progress by EPOCH (partition-partial
                    # maintenance), not WAL lsn — lag is epochs behind
                    we = mspec.get("watermark_epoch", -1)
                    doc["mvs"][n] = {
                        "watermark_epoch": we,
                        "lag_epochs": man.epoch - we,
                    }
                else:
                    wm = mspec["watermark_lsn"]
                    doc["mvs"][n] = {
                        "watermark_lsn": wm,
                        "lag_events": man.watermark - wm,
                    }
        print(json.dumps(doc))
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
