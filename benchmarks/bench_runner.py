"""Experiment-runner performance: cold vs warm cache vs batched parallel.

Regenerates Figure 7 several ways -- cold (executing and filling a
fresh result cache), warm (re-pricing cached counter deltas without
running any guest code), serial (no cache; the parallel baseline),
parallel (``jobs=4`` over the batched warm worker pool, adaptive chunk
size) and warm-pool (a second grid on the same persistent pool, what
repeat sweeps actually see) -- checks every variant produces an
identical table, measures chunk-dispatch overhead and shipped payload
bytes, sweeps explicit chunk sizes, and emits ``BENCH_runner.json`` at
the repo root.

Gates: the warm-cache run must be at least 5x faster than cold, and on
hosts with >= 2 cores ``parallel_speedup`` and ``warm_pool_speedup``
must both be >= 1.0 (on a single-core host fan-out cannot beat serial,
so those gates are skipped with a notice instead of failing).

Also runnable standalone: ``PYTHONPATH=src python benchmarks/bench_runner.py``.
"""

import json
import os
import pathlib
import tempfile
import time

from repro.analysis import figures
from repro.core import ExperimentRunner, ResultCache
from repro.obs.metrics import METRICS

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = pathlib.Path(__file__).parent / "results"
SCALE = 0.5
JOBS = 4
#: Explicit chunk sizes swept for the sensitivity table (the adaptive
#: default is reported under "auto").
CHUNK_SIZES = (1, 4)


def _timed_figure7(runner, scale):
    start = time.perf_counter()
    table = figures.figure7(scale=scale, runner=runner)
    return table, time.perf_counter() - start


def run_cold_warm_parallel(scale=SCALE, jobs=JOBS):
    with tempfile.TemporaryDirectory() as cache_dir:
        cold_runner = ExperimentRunner(cache=ResultCache(cache_dir))
        cold, cold_seconds = _timed_figure7(cold_runner, scale)
        warm_runner = ExperimentRunner(cache=ResultCache(cache_dir))
        warm, warm_seconds = _timed_figure7(warm_runner, scale)

    # The parallel baseline: plain serial execution, no cache -- the
    # cold run above also pays cache-fill I/O, which would flatter the
    # pool.
    serial_runner = ExperimentRunner()
    serial, serial_seconds = _timed_figure7(serial_runner, scale)

    # Batched pool run (adaptive chunks), dispatch instruments captured
    # from a clean registry; then a second grid on the SAME pool -- the
    # workers stay warm, which is what repeat sweeps see.
    METRICS.reset()
    with ExperimentRunner(jobs=jobs) as parallel_runner:
        parallel, parallel_seconds = _timed_figure7(parallel_runner, scale)
        parallel_stats = dict(parallel_runner.last_stats)
        snapshot = METRICS.snapshot()
        warm_pool, warm_pool_seconds = _timed_figure7(parallel_runner, scale)
    METRICS.reset()

    # Explicit chunk-size sensitivity (fresh pool per size).
    sensitivity = {}
    for chunk_size in CHUNK_SIZES:
        with ExperimentRunner(jobs=jobs, chunk_size=chunk_size) as sized:
            sized_table, sized_seconds = _timed_figure7(sized, scale)
        assert sized_table == cold, (
            "chunk_size=%d changed the Figure 7 table" % chunk_size
        )
        sensitivity[str(chunk_size)] = sized_seconds
    sensitivity["auto"] = parallel_seconds

    assert warm == cold, "warm cache changed the Figure 7 table"
    assert serial == cold, "serial re-run changed the Figure 7 table"
    assert parallel == cold, "parallel execution changed the Figure 7 table"
    assert warm_pool == cold, "warm-pool re-run changed the Figure 7 table"
    assert warm_runner.last_stats["executed"] == 0, "warm run executed guest code"

    dispatch = snapshot["phases"].get(
        "runner.dispatch", {"count": 0, "total_ns": 0}
    )
    chunks = parallel_stats.get("chunks", 0)
    cpu_count = os.cpu_count() or 1
    return {
        "figure": "figure7",
        "scale": scale,
        "jobs": jobs,
        "cpu_count": cpu_count,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "warm_pool_seconds": warm_pool_seconds,
        "warm_speedup": cold_seconds / warm_seconds,
        "parallel_speedup": serial_seconds / parallel_seconds,
        "warm_pool_speedup": serial_seconds / warm_pool_seconds,
        "chunks": chunks,
        "chunk_size": parallel_stats.get("chunk_size", 0),
        "payload_bytes": parallel_stats.get("payload_bytes", 0),
        "dispatch_total_ns": dispatch["total_ns"],
        "dispatch_overhead_ns": dispatch["total_ns"] // max(1, dispatch["count"]),
        "chunk_size_sensitivity_seconds": sensitivity,
        "parallel_gate": (
            "enforced"
            if cpu_count >= 2
            else "skipped: single-core host, fan-out cannot beat serial"
        ),
        "cold_stats": cold_runner.last_stats,
        "warm_stats": warm_runner.last_stats,
        "parallel_stats": parallel_stats,
        "identical": True,
    }


def check_gates(payload):
    """Gate failures as strings (empty = all good); prints the
    skip-with-notice for the pool gates on single-core hosts."""
    failures = []
    if payload["warm_speedup"] < 5.0:
        failures.append(
            "warm cache speedup %.2fx is below the 5x floor"
            % payload["warm_speedup"]
        )
    for key in ("parallel_speedup", "warm_pool_speedup"):
        if payload["cpu_count"] < 2:
            print(
                "NOTICE: single-core host -- %s gate skipped (measured %.2fx)"
                % (key, payload[key])
            )
        elif payload[key] < 1.0:
            failures.append(
                "%s %.2fx is below the 1.0x floor on a %d-core host"
                % (key, payload[key], payload["cpu_count"])
            )
    return failures


def test_runner_cold_warm_parallel(benchmark, save_artifact):
    payload = benchmark.pedantic(run_cold_warm_parallel, rounds=1, iterations=1)
    text = json.dumps(payload, indent=2) + "\n"
    save_artifact("BENCH_runner.json", text)
    print()
    print(text)
    assert not check_gates(payload)


def main():
    payload = run_cold_warm_parallel()
    text = json.dumps(payload, indent=2) + "\n"
    path = REPO_ROOT / "BENCH_runner.json"
    path.write_text(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_runner.json").write_text(text)
    print(text)
    print("wrote %s" % path)
    failures = check_gates(payload)
    if failures:
        raise SystemExit("; ".join(failures))


if __name__ == "__main__":
    main()
