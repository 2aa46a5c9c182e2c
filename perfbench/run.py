"""Benchmark entry point.

    python3 perfbench/run.py --workload bulk_catchup --seed 1 --seconds 25 --trace 0

Prints informational lines, then as its LAST stdout line one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Exits non-zero when
any read disagrees with the oracle. All scratch data lives under
``.perfbench_work/`` at the repository root and is removed per run (the
input cache is bounded).

``python3 perfbench/run.py --selftest`` runs the benchmark's own checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
NEED_FREE_BYTES = 2 << 30
# a run that has not finished by then stops itself, shutting Ray down
WATCHDOG_S = 175
# Ray puts its sockets at <temp>/session_<date>_<time>_<usec>_<pid>/sockets/,
# and AF_UNIX socket paths are limited to 107 bytes
_RAY_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_/sockets/plasma_store")


def _env_line(nproc: int, logical: int, merge_concurrency: int) -> dict:
    import pyarrow
    import ray

    return {
        "nproc": nproc,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "logical_cpus": logical,
        "merge_concurrency": merge_concurrency,
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "python": sys.version.split()[0],
    }


def host_cores() -> int:
    """What ``nproc`` prints: the CPUs this process may run on, capped by
    OMP_NUM_THREADS when it is set (GNU nproc honours it too)."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return min(n, int(omp)) if omp.isdigit() and int(omp) > 0 else n


def start_ray() -> tuple[float, int, int, int]:
    """Host-sized local Ray session: 4 logical CPUs per core and a fixed
    merge actor pool of one actor per core, so read, normalize and shuffle
    tasks always keep 3 CPUs per core that the actors cannot take. (With 2
    logical CPUs and one actor on one core, salted epochs, which run two
    shuffles beside the actor pool, stalled for 17-20 s.)"""
    import logging

    import ray
    from ray.data import DataContext

    nproc = host_cores()
    logical = 4 * nproc
    merge_concurrency = nproc
    ray_tmp = str(WORK / f"ray-{os.getpid()}")
    kwargs = {}
    if len(ray_tmp) + _RAY_SOCKET_SUFFIX + len(str(os.getpid())) <= 107:
        kwargs["_temp_dir"] = ray_tmp   # else Ray's default temp dir

    t0 = time.perf_counter()
    ray.init(
        address="local",
        num_cpus=logical,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 << 20,
        _system_config={'kill_idle_workers_interval_ms': 0},
        **kwargs,
    )
    for name in ("ray", "ray.data"):
        logging.getLogger(name).setLevel(logging.ERROR)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    # no per-task memory-poll thread: starting it hung one map task inside
    # Thread.start() for minutes (seen once in ~40 runs)
    ctx.memory_usage_poll_interval_s = None
    return time.perf_counter() - t0, nproc, logical, merge_concurrency


def e2e_metrics(p) -> dict[str, float]:
    from perfbench.measure import require_percentile

    catchup = (
        statistics.median(p.catchup_rates) if p.catchup_rates
        else p.apply_events / p.apply_s
    )
    return {
        "setup_s": p.setup_s,
        "catchup_events_per_s": catchup,
        "freshness_p50_s": require_percentile(p.freshness, 0.5, "freshness"),
        "freshness_p90_s": require_percentile(p.freshness, 0.9, "freshness"),
        "lookup_p50_ms": require_percentile(p.lookup_ms, 0.5, "lookup"),
        "lookup_p90_ms": require_percentile(p.lookup_ms, 0.9, "lookup"),
        "scan_rows_per_s": statistics.median(p.scan_rates),
        "write_amp": p.table_bytes / p.wal_bytes,
        "peak_rss_mb": p.rss_mb,
    }


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``kind`` ("end_to_end" or "per_layer") as
    BENCHMARK.json declares them: the one list the output must match."""
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT))
    # Ray workers import the engine and the trace wrappers from the repo
    # root, whatever directory the benchmark was started from
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    import clickhouse_data_pipeline_ray  # noqa: F401  (fail early without the engine)

    from perfbench.trace import TRACE_ENV
    from perfbench.workloads import WORKLOADS

    if not args.selftest and args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    free = shutil.disk_usage(WORK).free
    if free < NEED_FREE_BYTES:
        print(f"not enough free disk under {WORK}: {free >> 20} MiB free, "
              f"{NEED_FREE_BYTES >> 20} MiB needed", file=sys.stderr)
        return 2
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    os.environ[TRACE_ENV] = str(run_dir / "trace")

    import ray

    def expire(_sig, _frame):
        raise TimeoutError(f"run did not finish within {WATCHDOG_S} s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(WATCHDOG_S)
    try:
        ray_start_s, nproc, logical, merge_conc = start_ray()
        if args.selftest:
            from perfbench.selftest import selftest

            return selftest(run_dir, merge_conc)
        result, info = run(args, run_dir, ray_start_s, merge_conc)
        info.update(_env_line(nproc, logical, merge_conc))
    finally:
        signal.alarm(0)
        ray.shutdown()
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(WORK / f"ray-{os.getpid()}", ignore_errors=True)
    print(json.dumps({"info": info}), flush=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run(args, run_dir: Path, ray_start_s: float, merge_conc: int) -> tuple[dict, dict]:
    from perfbench.measure import percentile
    from perfbench.trace import Tracer, layer_metrics
    from perfbench.workloads import WORKLOADS, Bench

    fn = WORKLOADS[args.workload]

    def bench() -> Bench:
        return Bench(str(run_dir), str(WORK / "cache"), args.seed, args.seconds,
                     merge_conc, ray_start_s)

    p = fn(bench())
    passes = [p]
    if args.trace:
        traced = bench()
        traced.tracer = Tracer(str(run_dir / "trace"))
        try:
            tp = fn(traced)
        finally:
            traced.tracer.uninstall()
        passes.append(tp)
        metrics = layer_metrics(traced.tracer.collect(), os.getpid())
        metrics["loadgen.lag_p90_s"] = percentile(tp.lag, 0.9) or 0.0
        metrics["wal.backlog_segments"] = float(tp.backlog)
        metrics["trace.overhead_frac"] = (
            (tp.apply_s / tp.apply_events) / (p.apply_s / p.apply_events) - 1.0
        )
        units = declared_units("per_layer")
    else:
        metrics = e2e_metrics(p)
        units = declared_units("end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json"
        )
    attempted = sum(x.attempted for x in passes)
    failed = sum(x.failed for x in passes)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "error_rate": failed / attempted,
        "backlog_segments": p.backlog, "freshness_n": len(p.freshness),
        "lookup_n": len(p.lookup_ms), "scans": len(p.scan_rates),
        "lag_p90_s": percentile(p.lag, 0.9),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    return result, info


if __name__ == "__main__":
    sys.exit(main())
