"""The experiment service's per-submission state and dataset fold.

A daemon is left running for days: finished jobs must not pin their
resolvers, connection threads or the shared runner's logs, and the
dataset's ``_totals.json`` is folded on a clock (at most once per
``FOLD_INTERVAL_S`` after a slice, plus once at drain) instead of after
every slice, without losing or double-counting a hit, miss or store.
"""

import math
import os
import threading
import time

import pytest

from repro.exp import Dataset
from repro.serve import ExperimentService, ServeClient
from repro.serve import daemon

GRID = {"arch": "arm", "engines": ["simit"], "benchmarks": ["system-call"], "iterations": 4}


def grid(benchmark="system-call", iterations=4):
    return dict(GRID, benchmarks=[benchmark], iterations=iterations)


def run_all(service):
    while service.run_next_slice(timeout=0):
        pass


def count_folds(service):
    """Count the dataset's totals folds (one per write of _totals.json)."""
    folds = []
    real = service.dataset.fold_totals

    def counting(delta=None):
        folds.append(dict(delta))
        return real(delta)

    service.dataset.fold_totals = counting
    return folds


def session_sums(jobs):
    """What the dataset counted over ``jobs``: one probe per cell, a hit
    per dataset-resolved cell, a miss and a store per executed one."""
    return {
        "hits": sum(job.stats["from_dataset"] for job in jobs),
        "misses": sum(job.stats["executed"] for job in jobs),
        "stores": sum(job.stats["dataset_appended"] for job in jobs),
        "quarantined": 0,
    }


@pytest.fixture
def service(tmp_path):
    svc = ExperimentService(
        socket_path=os.fspath(tmp_path / "serve.sock"),
        dataset_dir=os.fspath(tmp_path / "dataset"),
        slice_size=1,
    )
    yield svc
    svc.runner.close()


class TestBoundedState:
    def test_finished_jobs_release_their_resolvers_and_logs(self, service):
        for index in range(200):
            service.submit({"grid": grid(iterations=4 + index % 3), "tenant": "t"})
            run_all(service)
        assert all(job.state == "done" for job in service._jobs.values())
        assert service._resolvers == {}
        assert service.runner.jobs_log == []
        assert service.runner.failures == []
        # Every job still answers with its own rows.
        assert all(len(job.rows) == 1 for job in service._jobs.values())

    def test_failed_and_drained_jobs_release_their_resolvers(self, service):
        failing = service.submit({"grid": grid(), "tenant": "t"})["job"]

        def explode(_specs):
            raise RuntimeError("boom")

        service._resolvers[failing].run = explode
        queued = service.submit({"grid": grid("tlb-flush"), "tenant": "t"})["job"]
        service.run_next_slice(timeout=0)
        assert service._jobs[failing].state == "failed"
        service.drain()
        assert service._jobs[queued].state == "drained"
        assert service._resolvers == {}

    def test_socket_daemon_holds_nothing_after_200_submissions(self, tmp_path):
        sock = os.fspath(tmp_path / "serve.sock")
        service = ExperimentService(socket_path=sock, dataset_dir=os.fspath(tmp_path / "ds"))
        with service.start():
            client = ServeClient(sock, tenant="t")
            for index in range(200):
                job = client.submit(grid=grid(iterations=4 + index % 3))["job"]
                assert client.wait(job, timeout=60)["job"]["state"] == "done"
            # Every earlier connection has ended; the next accept prunes.
            deadline = time.monotonic() + 10
            while sum(t.is_alive() for t in service._conn_threads) > 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            client.ping()
            assert service.queue.depth() == 0
            assert service._resolvers == {}
            assert service.runner.jobs_log == []
            assert len(service._conn_threads) <= 2
            assert threading.active_count() < 10


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now

    def time_ns(self):
        return time.time_ns()


class TestFoldCadence:
    def test_folds_once_per_interval_and_at_drain(self, tmp_path, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(daemon, "time", clock)
        service = ExperimentService(
            socket_path=os.fspath(tmp_path / "serve.sock"),
            dataset_dir=os.fspath(tmp_path / "ds"),
        )
        try:
            folds = count_folds(service)
            for index in range(20):
                clock.now = 0.25 * index
                # One fresh cell, then a repeat from the dataset.
                service.submit({"grid": grid(iterations=4 + index % 2), "tenant": "t"})
                run_all(service)
            # Slices ran at 0 .. 4.75 s: the service folded at 1, 2, 3, 4.
            assert len(folds) == 4
            service.stop()
            assert len(folds) == 5
            totals = Dataset(tmp_path / "ds").totals()
            assert totals == session_sums(service._jobs.values())
            assert totals == {"hits": 18, "misses": 2, "stores": 2, "quarantined": 0}
        finally:
            service.runner.close()

    def test_quick_repeats_fold_at_most_once_per_second(self, tmp_path):
        sock = os.fspath(tmp_path / "serve.sock")
        start = time.monotonic()
        service = ExperimentService(socket_path=sock, dataset_dir=os.fspath(tmp_path / "ds"))
        folds = count_folds(service)
        with service.start():
            client = ServeClient(sock, tenant="t")
            for index in range(60):
                job = client.submit(grid=grid(["system-call", "tlb-flush"][index % 2]))["job"]
                client.wait(job, timeout=60)
        elapsed = time.monotonic() - start
        assert 1 <= len(folds) <= math.ceil(elapsed) + 1
        totals = Dataset(tmp_path / "ds").totals()
        assert totals == session_sums(service._jobs.values())
        assert totals == {"hits": 58, "misses": 2, "stores": 2, "quarantined": 0}

    def test_per_job_resolvers_leave_the_fold_to_the_service(self, service):
        folds = count_folds(service)
        for _ in range(5):
            service.submit({"grid": grid(), "tenant": "t"})
            run_all(service)
        assert folds == []  # well inside the first interval
        service.stop()
        assert folds == [{"hits": 4, "misses": 1, "stores": 1, "quarantined": 0}]
