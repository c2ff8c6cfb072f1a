"""Observability-layer tests: the metrics registry, the worker-merge
protocol, the JSONL exporter, persistent store totals, and the stats/
deadline bugfix regressions from the runner audit.

Contracts under test:

- registry semantics: counters/gauges/phases/histograms record, reset,
  snapshot (sorted, JSON-safe) and merge deterministically; the phase
  timer is a shared no-op when disabled;
- the runner emits one observability row per submitted job (source =
  executed/cache/static/dedup) and merges worker metrics snapshots and
  code-store deltas back into the parent under ``jobs=N``;
- store accounting survives the process boundary: ``_totals.json``
  accumulates across instances/processes and ``repro cache stats``
  reports it;
- ``retried``/``worker_lost`` reset exactly once per run (a crash-once
  engine retried to success leaves ``crashed == 0``, and the next run
  starts from zero);
- a deadline that cannot arm ``SIGALRM`` (off the main thread, or no
  ``setitimer``) degrades to a wall-clock check -- overruns become
  ``timeout`` records, counted as ``runner.deadline_softcheck`` --
  and a pre-existing ``ITIMER_REAL`` is restored with its remaining
  time.
"""

import json
import signal
import threading
import time
import warnings

import pytest

import repro.core.runner as runner_mod
from repro.arch import ARM
from repro.core import (
    ExperimentRunner,
    Harness,
    JobSpec,
    ResultCache,
    TimingPolicy,
    get_benchmark,
)
from repro.core.benchmark import Benchmark
from repro.obs.export import (
    breakdown,
    jsonl_lines,
    read_jsonl,
    render_breakdown,
    render_phases,
    write_jsonl,
)
from repro.obs.metrics import METRICS, Metrics, enabled_scope
from repro.platform import VEXPRESS
from repro.sim.dbt.codestore import CodeStore
from repro.sim.dbt.translator import TRANSLATION_MEMO
from tests.core.test_faults import _grid, _ok_benchmarks


@pytest.fixture(autouse=True)
def _clean_registry():
    """Every test starts from (and leaves behind) a pristine disabled
    process-global registry."""
    METRICS.reset()
    METRICS.enable(False)
    yield
    METRICS.reset()
    METRICS.enable(False)


# ---------------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------------


class TestInstruments:
    def test_counter_gauge_record(self):
        reg = Metrics()
        reg.inc("a")
        reg.inc("a", 4)
        reg.set_gauge("g", 7)
        reg.set_gauge("g", 9)
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 5}
        assert snap["gauges"] == {"g": 9}

    def test_phase_min_max_total(self):
        reg = Metrics()
        for ns in (30, 10, 20):
            reg.add_phase_ns("p", ns)
        payload = reg.snapshot()["phases"]["p"]
        assert payload == {"count": 3, "total_ns": 60, "min_ns": 10, "max_ns": 30}

    def test_histogram_buckets_power_of_two(self):
        reg = Metrics()
        for value in (0, 1, 2, 3, 1000):
            reg.observe("h", value)
        payload = reg.snapshot()["histograms"]["h"]
        assert payload["count"] == 5
        assert payload["sum"] == 1006
        assert payload["min"] == 0
        assert payload["max"] == 1000
        # bucket index == bit_length: 0 -> 0, 1 -> 1, 2/3 -> 2, 1000 -> 10
        assert payload["buckets"] == {"0": 1, "1": 1, "2": 2, "10": 1}

    def test_phase_timer_records_only_when_enabled(self):
        reg = Metrics(enabled=True)
        with reg.phase("t"):
            pass
        assert reg.snapshot()["phases"]["t"]["count"] == 1
        reg.disable()
        with reg.phase("t"):
            pass
        assert reg.snapshot()["phases"]["t"]["count"] == 1

    def test_disabled_phase_is_shared_noop(self):
        reg = Metrics()
        assert reg.phase("x") is reg.phase("y")  # one shared null timer

    def test_reset_keeps_enabled_flag(self):
        reg = Metrics(enabled=True)
        reg.inc("a")
        reg.reset()
        assert reg.enabled
        assert reg.snapshot()["counters"] == {}

    def test_snapshot_is_json_safe_and_sorted(self):
        reg = Metrics()
        reg.inc("z")
        reg.inc("a")
        reg.add_phase_ns("p", 5)
        reg.observe("h", 3)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert list(snap["counters"]) == ["a", "z"]

    def test_enabled_scope_restores(self):
        assert not METRICS.enabled
        with enabled_scope() as reg:
            assert reg is METRICS
            assert METRICS.enabled
        assert not METRICS.enabled


class TestMerge:
    def test_merge_equals_single_registry(self):
        a, b, together = Metrics(), Metrics(), Metrics()
        for reg in (a, together):
            reg.inc("c", 2)
            reg.add_phase_ns("p", 10)
            reg.observe("h", 4)
        for reg in (b, together):
            reg.inc("c", 3)
            reg.inc("only_b")
            reg.add_phase_ns("p", 50)
            reg.observe("h", 1)
        merged = Metrics()
        merged.merge(a.snapshot())
        merged.merge(b.snapshot())
        assert merged.snapshot() == together.snapshot()

    def test_merge_survives_json_roundtrip(self):
        src = Metrics()
        src.inc("c")
        src.add_phase_ns("p", 7)
        src.observe("h", 9)
        src.set_gauge("g", 1.5)
        merged = Metrics()
        merged.merge(json.loads(json.dumps(src.snapshot())))
        assert merged.snapshot() == src.snapshot()

    def test_gauge_merge_is_last_write_wins(self):
        merged = Metrics()
        first, second = Metrics(), Metrics()
        first.set_gauge("g", 1)
        second.set_gauge("g", 2)
        merged.merge(first.snapshot())
        merged.merge(second.snapshot())
        assert merged.snapshot()["gauges"]["g"] == 2

    def test_merge_empty_payload_is_noop(self):
        reg = Metrics()
        reg.inc("c")
        before = reg.snapshot()
        reg.merge(None)
        reg.merge({})
        assert reg.snapshot() == before


# ---------------------------------------------------------------------------
# Exporter
# ---------------------------------------------------------------------------


def _sample_rows():
    return [
        {
            "benchmark": "System Call",
            "engine": "simit",
            "arch": "arm",
            "platform": "vexpress",
            "iterations": 10,
            "status": "ok",
            "source": "executed",
            "wall_ns": 1_000_000,
            "queue_wait_ns": 100,
            "attempts": 1,
            "where": "pool",
        },
        {
            "benchmark": "System Call",
            "engine": "simit",
            "arch": "arm",
            "platform": "vexpress",
            "iterations": 10,
            "status": "ok",
            "source": "dedup",
            "wall_ns": 0,
            "queue_wait_ns": 0,
            "attempts": 0,
            "where": None,
        },
        {
            "benchmark": "TLB Flush",
            "engine": "gem5",
            "arch": "arm",
            "platform": "vexpress",
            "iterations": 10,
            "status": "crashed",
            "source": "executed",
            "wall_ns": 2_000_000,
            "queue_wait_ns": 0,
            "attempts": 2,
            "where": "parent",
        },
    ]


class TestExport:
    def test_jsonl_roundtrip(self, tmp_path):
        reg = Metrics()
        reg.inc("runner.retried", 2)
        reg.add_phase_ns("harness.run", 123)
        path = tmp_path / "out.jsonl"
        count = write_jsonl(
            path, meta={"command": "test"}, jobs=_sample_rows(), snapshot=reg.snapshot()
        )
        lines = read_jsonl(path)
        assert count == len(lines) == 1 + 3 + 2
        assert lines[0]["type"] == "meta"
        assert lines[0]["command"] == "test"
        assert lines[0]["schema"] == 1
        jobs = [line for line in lines if line["type"] == "job"]
        assert [job["benchmark"] for job in jobs] == [
            "System Call", "System Call", "TLB Flush",
        ]
        counter = [line for line in lines if line["type"] == "counter"]
        assert counter == [
            {"type": "counter", "name": "runner.retried", "value": 2}
        ]
        phase = [line for line in lines if line["type"] == "phase"][0]
        assert phase["name"] == "harness.run"
        assert phase["total_ns"] == 123

    def test_every_line_is_standalone_json(self):
        for line in jsonl_lines(meta={"x": 1}, jobs=_sample_rows()):
            assert isinstance(json.loads(line), dict)

    def test_breakdown_aggregates_per_cell(self):
        rows = breakdown(_sample_rows())
        assert [(row["benchmark"], row["engine"]) for row in rows] == [
            ("System Call", "simit"),
            ("TLB Flush", "gem5"),
        ]
        first, second = rows
        assert first["jobs"] == 2
        assert first["executed"] == 1
        assert first["dedup"] == 1
        assert first["failed"] == 0
        assert first["wall_ns"] == 1_000_000
        assert second["failed"] == 1

    def test_render_tables_are_text(self):
        table = render_breakdown(breakdown(_sample_rows()))
        assert "System Call" in table and "wall_ms" in table
        reg = Metrics()
        reg.add_phase_ns("p", 1000)
        assert "p" in render_phases(reg.snapshot())


# ---------------------------------------------------------------------------
# Persistent store totals
# ---------------------------------------------------------------------------


class TestStoreTotals:
    def test_fold_accumulates_across_instances(self, tmp_path):
        delta = {"hits": 2, "misses": 1, "stores": 1, "quarantined": 0}
        first = ResultCache(tmp_path / "cache")
        first.fold_totals(delta)
        second = ResultCache(tmp_path / "cache")  # a "new process"
        second.fold_totals(delta)
        assert second.totals() == {
            "hits": 4, "misses": 2, "stores": 2, "quarantined": 0,
        }

    def test_totals_file_is_not_an_entry(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.fold_totals({"hits": 1, "misses": 0, "stores": 0, "quarantined": 0})
        assert cache.stats()["entries"] == 0

    def test_zero_delta_writes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.fold_totals({"hits": 0, "misses": 0, "stores": 0, "quarantined": 0})
        assert not (tmp_path / "cache").exists()

    def test_clear_removes_totals(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.fold_totals({"hits": 1, "misses": 0, "stores": 0, "quarantined": 0})
        cache.clear()
        assert cache.totals() == {
            "hits": 0, "misses": 0, "stores": 0, "quarantined": 0,
        }

    def test_store_traffic_mirrors_into_metrics(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.get("ab" + "0" * 62)
        assert METRICS.counters["resultcache.misses"].value == 1


# ---------------------------------------------------------------------------
# Runner observability: job rows and worker merge
# ---------------------------------------------------------------------------


class TestJobRows:
    def test_sources_executed_dedup_static(self):
        runner = ExperimentRunner()
        bench = get_benchmark("System Call")
        specs = _grid(bench, bench) + [
            # gem5 has no testctl support for this one: decided
            # statically, no guest code runs.
            JobSpec("Memory Mapped Device", "gem5", ARM, VEXPRESS, iterations=5)
        ]
        runner.run(specs)
        rows = runner.last_jobs
        assert [row["source"] for row in rows] == ["executed", "dedup", "static"]
        assert rows[0]["wall_ns"] > 0
        assert rows[0]["attempts"] == 1
        assert rows[1]["wall_ns"] == 0
        assert rows[2]["status"] == "unsupported"

    def test_cache_hits_become_cache_rows(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = lambda: _grid(get_benchmark("System Call"))  # noqa: E731
        ExperimentRunner(cache=cache).run(specs())
        warm = ExperimentRunner(cache=cache)
        warm.run(specs())
        assert [row["source"] for row in warm.last_jobs] == ["cache"]

    def test_jobs_log_accumulates_across_runs(self):
        runner = ExperimentRunner()
        runner.run(_grid(get_benchmark("System Call")))
        runner.run(_grid(get_benchmark("TLB Flush")))
        assert len(runner.last_jobs) == 1
        assert [row["benchmark"] for row in runner.jobs_log] == [
            "System Call", "TLB Flush",
        ]

    def test_pool_rows_report_pool_and_queue_wait(self):
        METRICS.enable()
        runner = ExperimentRunner(jobs=2)
        runner.run(_grid(*_ok_benchmarks()))
        rows = runner.last_jobs
        assert all(row["where"] == "pool" for row in rows)
        assert all(row["wall_ns"] > 0 for row in rows)
        assert all(row["queue_wait_ns"] >= 0 for row in rows)


class TestWorkerMetricsMerge:
    def test_worker_snapshots_merge_into_parent(self):
        METRICS.enable()
        runner = ExperimentRunner(jobs=2)
        runner.run(_grid(*_ok_benchmarks()))
        snap = METRICS.snapshot()
        # Engine/harness phases only happen inside workers here; their
        # presence in the parent snapshot proves the merge.
        assert snap["phases"]["harness.run"]["count"] == 3
        assert snap["phases"]["runner.job_wall"]["count"] == 3
        assert "funccore.decode" in snap["phases"]

    def test_parallel_merge_matches_serial_counts(self):
        METRICS.enable()
        serial = ExperimentRunner(jobs=1)
        serial.run(_grid(*_ok_benchmarks()))
        serial_snap = METRICS.snapshot()
        METRICS.reset()
        parallel = ExperimentRunner(jobs=2)
        parallel.run(_grid(*_ok_benchmarks()))
        parallel_snap = METRICS.snapshot()
        # Counts are deterministic; timings are not.  Compare the
        # deterministic projection of both snapshots, excluding the
        # pool-only dispatch instruments (they only exist under --jobs:
        # queue waits, chunk dispatch/execution phases and the shipped
        # payload-bytes counter).
        pool_only = {
            "runner.queue_wait",
            "runner.dispatch",
            "runner.chunk",
            "runner.payload_bytes",
            "runner.chunk_splits",
        }
        def counts(snap):
            return (
                {
                    name: value
                    for name, value in snap["counters"].items()
                    if name not in pool_only
                },
                {
                    name: phase["count"]
                    for name, phase in snap["phases"].items()
                    if name not in pool_only
                },
            )
        assert counts(parallel_snap) == counts(serial_snap)

    def test_worker_codestore_delta_reaches_totals(self, tmp_path):
        # Workers fork from this process: with its translation memo warm
        # from earlier tests they would compile (and store) nothing.
        TRANSLATION_MEMO.clear()
        code_dir = tmp_path / "code"
        runner = ExperimentRunner(jobs=2, code_cache_dir=code_dir)
        runner.run(
            [
                JobSpec(bench, "qemu-dbt", ARM, VEXPRESS, iterations=5)
                for bench in _ok_benchmarks()
            ]
        )
        totals = CodeStore(code_dir).totals()
        # Translation happened only inside pool workers, yet the store
        # totals saw it: the delta crossed the process boundary.
        assert totals["stores"] > 0
        assert totals["misses"] > 0

    def test_parent_resultcache_folds_totals(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = lambda: _grid(get_benchmark("System Call"))  # noqa: E731
        runner = ExperimentRunner(cache=cache)
        runner.run(specs())
        assert cache.totals()["stores"] == 1
        runner.run(specs())
        assert cache.totals()["hits"] == 1
        # Folds are incremental: the first run's counters were not
        # double-counted by the second fold.
        assert cache.totals()["stores"] == 1


# ---------------------------------------------------------------------------
# Bugfix regressions: _exec_stats reset semantics
# ---------------------------------------------------------------------------

_CRASH_ONCE = {"count": 0}


class CrashOnceBenchmark(Benchmark):
    """Crashes on the first build, runs cleanly on the retry -- the
    transient-failure shape (in-parent retries run in this process, so
    a module global observes the attempts)."""

    name = "Crash Once Cell"
    group = "Faults"
    default_iterations = 5

    def build(self, arch, platform):
        _CRASH_ONCE["count"] += 1
        if _CRASH_ONCE["count"] == 1:
            raise RuntimeError("transient boom")
        return get_benchmark("System Call").build(arch, platform)


class TestExecStatsReset:
    def test_retried_success_is_not_double_counted(self):
        _CRASH_ONCE["count"] = 0
        harness = Harness(timing=TimingPolicy.WALLCLOCK)  # crashes retriable
        runner = ExperimentRunner(harness=harness, retries=2, retry_backoff=0.0)
        results = runner.run(_grid(CrashOnceBenchmark()))
        assert results[0].ok
        assert _CRASH_ONCE["count"] == 2
        # One retry, which succeeded: final statuses show no crash and
        # the retry is counted exactly once.
        assert runner.last_stats["retried"] == 1
        assert runner.last_stats["crashed"] == 0
        assert runner.last_stats["executed"] == 1
        assert runner.last_jobs[0]["attempts"] == 2
        assert runner.last_jobs[0]["status"] == "ok"

    def test_stats_reset_between_runs_single_source(self):
        _CRASH_ONCE["count"] = 0
        harness = Harness(timing=TimingPolicy.WALLCLOCK)
        runner = ExperimentRunner(harness=harness, retries=2, retry_backoff=0.0)
        runner.run(_grid(CrashOnceBenchmark()))
        assert runner.last_stats["retried"] == 1
        # Second run: the program is built and cached now, nothing
        # crashes -- and the counters start from zero again (no
        # carry-over from the first run).
        runner.run(_grid(CrashOnceBenchmark()))
        assert runner.last_stats["retried"] == 0
        assert runner.last_stats["worker_lost"] == 0
        assert runner.last_stats["crashed"] == 0

    def test_fresh_exec_stats_is_the_single_source(self):
        # ``__init__`` and ``run`` must share one reset definition.
        runner = ExperimentRunner()
        assert runner._exec_stats == ExperimentRunner._fresh_exec_stats()
        assert ExperimentRunner._fresh_exec_stats() == {
            "retried": 0, "worker_lost": 0,
        }

    def test_retry_events_counted_in_metrics(self):
        _CRASH_ONCE["count"] = 0
        harness = Harness(timing=TimingPolicy.WALLCLOCK)
        runner = ExperimentRunner(harness=harness, retries=2, retry_backoff=0.0)
        runner.run(_grid(CrashOnceBenchmark()))
        assert METRICS.counters["runner.retried"].value == 1


# ---------------------------------------------------------------------------
# Bugfix regressions: deadline enforcement surface + itimer restore
# ---------------------------------------------------------------------------


class TestDeadlineSurfacing:
    def test_off_main_thread_soft_checks_and_counts(self):
        out = {}

        def work():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                first = runner_mod._call_with_deadline(lambda: "ran", 0.5)
                second = runner_mod._call_with_deadline(lambda: "again", 0.5)
            out["values"] = (first, second)
            out["warnings"] = [
                w for w in caught if issubclass(w.category, RuntimeWarning)
            ]

        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
        # Jobs inside the deadline pass through untouched, without
        # warning spam; every soft-checked call is counted.
        assert out["values"] == ("ran", "again")
        assert out["warnings"] == []
        assert METRICS.counters["runner.deadline_softcheck"].value == 2

    def test_off_main_thread_overrun_still_times_out(self):
        out = {}

        def work():
            try:
                runner_mod._call_with_deadline(lambda: time.sleep(0.15), 0.05)
            except runner_mod._DeadlineExpired:
                out["expired"] = True

        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
        # The degraded watchdog cannot interrupt the job, but the
        # overrun still surfaces as a timeout -- never a silent pass.
        assert out.get("expired") is True

    def test_without_setitimer_soft_checks(self, monkeypatch):
        monkeypatch.delattr(signal, "setitimer")
        assert runner_mod._call_with_deadline(lambda: 42, 0.1) == 42
        assert METRICS.counters["runner.deadline_softcheck"].value == 1
        with pytest.raises(runner_mod._DeadlineExpired):
            runner_mod._call_with_deadline(lambda: time.sleep(0.15), 0.05)

    def test_no_deadline_is_not_a_softcheck(self):
        assert runner_mod._call_with_deadline(lambda: 1, None) == 1
        assert runner_mod._call_with_deadline(lambda: 2, 0) == 2
        assert "runner.deadline_softcheck" not in METRICS.counters

    def test_enforced_deadline_still_fires(self):
        with pytest.raises(runner_mod._DeadlineExpired):
            runner_mod._call_with_deadline(lambda: time.sleep(5), 0.1)

    def test_threaded_submission_yields_timeout_records(self):
        """A grid submitted from a worker thread -- the experiment
        service's scheduler shape -- still enforces per-job deadlines
        via the wall-clock degrade (serial path has no pool workers to
        arm SIGALRM for it)."""
        from tests.core.test_faults import SleepyBenchmark

        out = {}

        def work():
            runner = ExperimentRunner(deadline=0.2, retries=0)
            results = runner.run(_grid(SleepyBenchmark()))
            out["statuses"] = [r.status for r in results]
            out["stats"] = dict(runner.last_stats)

        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
        assert out["statuses"] == ["timeout"]
        assert out["stats"]["timeout"] == 1
        assert METRICS.counters["runner.deadline_softcheck"].value >= 1


class TestItimerRestore:
    def test_preexisting_itimer_and_handler_survive(self):
        fired = []

        def _outer(signum, frame):
            fired.append(signum)

        previous_handler = signal.signal(signal.SIGALRM, _outer)
        signal.setitimer(signal.ITIMER_REAL, 60.0)
        try:
            assert runner_mod._call_with_deadline(lambda: "ok", 0.5) == "ok"
            remaining, interval = signal.getitimer(signal.ITIMER_REAL)
            # The outer 60s timer is re-armed with (roughly) its
            # remaining time -- not cancelled, not restarted from 60.
            assert 0.0 < remaining <= 60.0
            assert remaining > 55.0
            assert interval == 0.0
            assert signal.getsignal(signal.SIGALRM) is _outer
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous_handler)
        assert fired == []

    def test_no_outer_timer_leaves_itimer_disarmed(self):
        previous_handler = signal.getsignal(signal.SIGALRM)
        assert runner_mod._call_with_deadline(lambda: "ok", 0.5) == "ok"
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is previous_handler
