"""The ``repro serve`` daemon: a long-lived experiment service.

One process owns one persistent warm worker pool (an
:class:`~repro.core.runner.ExperimentRunner`) and one result dataset,
and serves experiment submissions from many clients over a local Unix
socket (:mod:`repro.serve.protocol`).  This is ROADMAP item 1's
production-scale step: instead of every sweep paying pool warm-up,
registry imports and dataset probing per invocation, clients submit
manifests (or ad-hoc grids) to a process whose workers stay warm --
built programs, translation memos, open code store -- across
submissions, and whose dataset makes repeated submissions of the same
cells free.

Execution model:

- a **submission** (manifest payload, bundled-manifest reference, or
  ad-hoc grid table) expands to its exact :class:`JobSpec` cell set at
  submit time -- malformed grids are refused in the submit response,
  never mid-run;
- cells are cut into **slices** (``slice_size`` cells each) which are
  the fair-scheduling unit: slices enqueue into a
  :class:`~repro.serve.queue.FairQueue` under the submitting tenant,
  so concurrent tenants' work interleaves slice-by-slice (weighted
  round-robin, ``--priority`` ordering within a tenant) instead of
  queueing whole submissions behind each other;
- the **scheduler thread** drains the queue one slice at a time
  through a per-job :class:`~repro.exp.resolver.DatasetResolver` over
  the shared runner: cells already in the dataset are priced warm
  (zero guest cost), the rest ride the existing dedup / result-cache /
  chunked warm-pool dispatch path with all its PR 3 fault semantics
  (crash/timeout rows, worker-death recovery, retries).  Per-job
  deadlines stay enforced: pool workers arm SIGALRM in their own
  chunk loop, and the scheduler thread's serial fallback degrades to
  the wall-clock check;
- every slice's telemetry rows (the PR 5 JSONL job rows) accumulate on
  the job, so ``wait``/``status`` stream per-cell outcomes and warm/
  cold provenance back to the client.

Graceful drain: on SIGTERM (or ``drain``), the service stops accepting
submissions, cancels queued slices (their jobs finish ``drained`` with
partial stats -- completed slices' dataset rows are already
persisted), lets the in-flight slice finish, folds every store's
``_totals.json``, closes the socket, and exits 0.

Service observability rides the PR 5 registry: ``serve.queue_depth`` /
``serve.tenants`` / ``serve.inflight_slices`` gauges,
``serve.submissions`` / ``serve.slices`` / ``serve.cells`` /
``serve.drained_slices`` counters, and a ``serve.slice`` phase timer.
"""

import os
import socket
import threading
import time

from repro.core.resultcache import ResultCache
from repro.core.runner import ExperimentRunner
from repro.exp.dataset import Dataset
from repro.exp.manifest import Manifest, ManifestError, resolve_manifest
from repro.exp.resolver import DatasetResolver
from repro.obs.metrics import METRICS
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    MessageStream,
    ProtocolError,
    error_response,
)
from repro.serve.queue import FairQueue, QueueClosed

#: Cells per scheduling slice: small enough that tenants interleave at
#: interactive granularity, large enough that the chunked dispatch
#: below still amortises (a slice is the unit the fair queue orders;
#: the runner re-chunks it for the pool).
DEFAULT_SLICE_SIZE = 8

#: Seconds between folds of the dataset's session counters into its
#: ``_totals.json`` while serving.  Rows are durable as soon as they are
#: appended; only the hit/miss/store counters of the last interval are
#: at risk if the process dies without draining.
FOLD_INTERVAL_S = 1.0

#: Job lifecycle states; ``drained``/``failed``/``done`` are terminal.
JOB_STATES = ("queued", "running", "done", "failed", "drained")


class ServiceError(Exception):
    """Service-level failure surfaced to clients as ``ok: false``."""


class Job:
    """One submission's lifecycle record."""

    _STAT_KEYS = (
        "executed",
        "from_dataset",
        "cache_hits",
        "static",
        "dataset_appended",
        "crashed",
        "timeout",
        "errors",
        "retried",
        "worker_lost",
    )

    def __init__(self, job_id, tenant, priority, name, manifest_id, cells):
        self.id = job_id
        self.tenant = tenant
        self.priority = priority
        self.name = name
        self.manifest_id = manifest_id
        self.cells = cells
        self.state = "queued"
        self.slices_total = 0
        self.slices_done = 0
        self.stats = dict.fromkeys(self._STAT_KEYS, 0)
        self.failures = []
        self.rows = []
        self.error = None
        self.submitted_ns = time.time_ns()
        self.finished_ns = None
        self.done = threading.Event()

    def fold_slice(self, stats, rows):
        for key in self._STAT_KEYS:
            self.stats[key] += int(stats.get(key, 0))
        self.failures.extend(stats.get("failures") or [])
        self.rows.extend(rows)

    def finish(self, state, error=None):
        self.state = state
        self.error = error
        self.finished_ns = time.time_ns()
        self.done.set()

    def summary(self):
        info = {
            "id": self.id,
            "tenant": self.tenant,
            "priority": self.priority,
            "name": self.name,
            "manifest": self.manifest_id[:12] if self.manifest_id else None,
            "state": self.state,
            "cells": self.cells,
            "slices": self.slices_total,
            "slices_done": self.slices_done,
            "failures": len(self.failures),
            "submitted_ns": self.submitted_ns,
            "finished_ns": self.finished_ns,
            "error": self.error,
        }
        info.update(self.stats)
        return info


class ExperimentService:
    """The daemon: one warm runner, one dataset, many tenants.

    Parameters mirror the CLI runner knobs (``jobs``, ``deadline``,
    ``retries``, ``chunk_size``, ``cache_dir``, ``code_cache_dir``,
    ``dataset_dir``) plus the service's own: ``socket_path``,
    ``slice_size`` and ``weights`` (tenant -> fair-share weight).

    The scheduler and listener run on daemon threads after
    :meth:`start`; :meth:`serve_forever` parks the calling (main)
    thread until a drain completes, so signal handlers installed there
    can call :meth:`drain`.  Tests may instead drive the scheduler
    synchronously with :meth:`run_next_slice`.
    """

    def __init__(
        self,
        socket_path,
        dataset_dir=None,
        cache_dir=None,
        code_cache_dir=None,
        jobs=1,
        deadline=None,
        retries=1,
        chunk_size=None,
        slice_size=DEFAULT_SLICE_SIZE,
        weights=None,
    ):
        self.socket_path = os.fspath(socket_path)
        self.slice_size = max(1, int(slice_size))
        self.runner = ExperimentRunner(
            jobs=jobs,
            cache=ResultCache(cache_dir) if cache_dir else None,
            deadline=deadline,
            retries=retries,
            code_cache_dir=code_cache_dir,
            chunk_size=chunk_size,
        )
        self.dataset = Dataset(dataset_dir) if dataset_dir else None
        self.queue = FairQueue()
        for tenant, weight in (weights or {}).items():
            self.queue.set_weight(tenant, weight)
        self._jobs = {}
        self._jobs_lock = threading.Lock()
        self._job_counter = 0
        # job id -> per-job DatasetResolver, dropped when the job ends.
        self._resolvers = {}
        self._last_fold = time.monotonic()
        #: Completed (job_id, tenant) pairs in scheduling order -- the
        #: observable fairness record (and the smoke test's evidence).
        self.slice_log = []
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._listener = None
        self._scheduler = None
        self._server_sock = None
        self._conn_threads = []

    # -- submission --------------------------------------------------------
    def _load_manifest(self, request):
        payload = request.get("manifest")
        if payload is not None:
            if not isinstance(payload, dict):
                raise ServiceError("'manifest' must be a manifest payload object")
            return Manifest(payload)
        ref = request.get("manifest_ref")
        if ref is not None:
            return resolve_manifest(ref)
        grid = request.get("grid")
        if grid is not None:
            if not isinstance(grid, dict):
                raise ServiceError("'grid' must be a grid table object")
            name = request.get("name") or "adhoc"
            return Manifest(
                {
                    "manifest": {"schema": 1, "name": str(name), "seed": 0},
                    "grid": [grid],
                }
            )
        raise ServiceError("submit needs 'manifest', 'manifest_ref' or 'grid'")

    def submit(self, request):
        """Expand and enqueue one submission; returns the submit
        response payload (``job`` id + expanded ``cells``)."""
        if self._draining.is_set():
            raise ServiceError("service is draining; submission refused")
        try:
            manifest = self._load_manifest(request)
        except ManifestError as exc:
            raise ServiceError("bad manifest: %s" % exc) from None
        tenant = str(request.get("tenant") or "default")
        priority = int(request.get("priority") or 0)
        specs = manifest.jobs()
        if not specs:
            raise ServiceError("submission expands to zero cells")
        with self._jobs_lock:
            self._job_counter += 1
            job = Job(
                "j%04d" % self._job_counter,
                tenant,
                priority,
                manifest.name,
                manifest.manifest_id(),
                len(specs),
            )
            self._jobs[job.id] = job
            self._resolvers[job.id] = DatasetResolver(
                self.runner, self.dataset, manifest=manifest, fold_totals=False
            )
            slices = [
                specs[start : start + self.slice_size]
                for start in range(0, len(specs), self.slice_size)
            ]
            job.slices_total = len(slices)
        try:
            for slice_specs in slices:
                self.queue.push(tenant, (job.id, slice_specs), priority=priority)
        except QueueClosed:
            self._finish(job, "drained")
            raise ServiceError("service is draining; submission refused") from None
        METRICS.inc("serve.submissions")
        METRICS.inc("serve.cells", len(specs))
        self._update_gauges()
        return {
            "job": job.id,
            "cells": len(specs),
            "slices": job.slices_total,
            "manifest": manifest.short_id,
        }

    # -- scheduling --------------------------------------------------------
    def run_next_slice(self, timeout=0.2):
        """Pop and execute one slice; ``False`` when nothing ran.

        The scheduler thread loops this; tests call it directly for
        deterministic, single-stepped scheduling.
        """
        entry = self.queue.pop(timeout=timeout)
        if entry is None:
            return False
        job_id, slice_specs = entry
        job = self._jobs[job_id]
        resolver = self._resolvers.get(job_id)
        if resolver is None or job.done.is_set():
            # The job already reached a terminal state (an earlier
            # slice failed, or a drain finished it); its leftover
            # slices are dropped, never resurrected into "done".
            METRICS.inc("serve.drained_slices")
            self._update_gauges()
            return True
        if job.state == "queued":
            job.state = "running"
        METRICS.set_gauge("serve.inflight_slices", 1)
        try:
            with METRICS.phase("serve.slice"):
                resolver.run(slice_specs)
            rows = [
                dict(row, job=job_id, tenant=job.tenant)
                for row in resolver.last_jobs
            ]
            job.fold_slice(resolver.last_stats, rows)
        except Exception as exc:  # a slice failure fails its job only
            self._finish(job, "failed", error="%s: %s" % (type(exc).__name__, exc))
            return True
        finally:
            # Each job keeps its own rows and failures; the shared
            # runner's cross-run logs would only grow.
            self.runner.jobs_log.clear()
            self.runner.failures.clear()
            METRICS.set_gauge("serve.inflight_slices", 0)
            METRICS.inc("serve.slices")
            job.slices_done += 1
            self._update_gauges()
            if time.monotonic() - self._last_fold >= FOLD_INTERVAL_S:
                self._fold_dataset()
        if job.slices_done >= job.slices_total:
            self._finish(job, "done")
        self.slice_log.append((job_id, job.tenant))
        return True

    def _finish(self, job, state, error=None):
        """Move ``job`` to a terminal state and release its resolver."""
        job.finish(state, error=error)
        self._resolvers.pop(job.id, None)

    def _fold_dataset(self):
        """Fold the dataset's session counters into its totals.  The
        service owns this fold (its resolvers skip theirs): at most once
        per :data:`FOLD_INTERVAL_S` after a slice, and once at drain."""
        self._last_fold = time.monotonic()
        if self.dataset is not None:
            self.dataset.fold_session()

    def _scheduler_loop(self):
        while True:
            ran = self.run_next_slice(timeout=0.2)
            if not ran and self.queue.closed and not self.queue.depth():
                return

    def _update_gauges(self):
        METRICS.set_gauge("serve.queue_depth", self.queue.depth())
        METRICS.set_gauge("serve.tenants", len(self.queue.tenants()))

    # -- request handling --------------------------------------------------
    def handle_request(self, request):
        """One request dict -> one response dict (never raises)."""
        try:
            op = request.get("op")
            if op == "ping":
                return {
                    "ok": True,
                    "protocol": PROTOCOL_VERSION,
                    "server": "repro-serve",
                    "pid": os.getpid(),
                    "draining": self._draining.is_set(),
                }
            if op == "submit":
                response = self.submit(request)
                response["ok"] = True
                return response
            if op == "status":
                return self._status_response(request)
            if op == "wait":
                return self._wait_response(request)
            if op == "drain":
                self.drain()
                return {"ok": True, "draining": True}
            return error_response("unknown op %r" % op)
        except ServiceError as exc:
            return error_response(exc)
        except Exception as exc:  # a bad request never kills the daemon
            return error_response("%s: %s" % (type(exc).__name__, exc))

    def _job_for(self, request):
        job_id = request.get("job")
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError("unknown job %r" % job_id)
        return job

    def _status_response(self, request):
        if request.get("job"):
            job = self._job_for(request)
            response = {"ok": True, "job": job.summary()}
            if request.get("rows"):
                response["rows"] = list(job.rows)
            return response
        with self._jobs_lock:
            jobs = [job.summary() for job in self._jobs.values()]
        states = {}
        for info in jobs:
            states[info["state"]] = states.get(info["state"], 0) + 1
        return {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "queue_depth": self.queue.depth(),
            "tenants": self.queue.tenants(),
            "draining": self._draining.is_set(),
            "states": states,
            "jobs": jobs,
        }

    def _wait_response(self, request):
        job = self._job_for(request)
        timeout = request.get("timeout")
        if not job.done.wait(float(timeout) if timeout else None):
            raise ServiceError("timed out waiting for %s" % job.id)
        return {"ok": True, "job": job.summary(), "rows": list(job.rows)}

    # -- socket plumbing ---------------------------------------------------
    def _bind(self):
        path = self.socket_path
        if os.path.exists(path):
            # A previous daemon's socket: refuse if it answers, reclaim
            # if it is stale.
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.settimeout(0.5)
                probe.connect(path)
            except OSError:
                os.unlink(path)
            else:
                probe.close()
                raise ServiceError("a daemon is already serving on %s" % path)
            finally:
                probe.close()
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(path)
        sock.listen(16)
        sock.settimeout(0.2)
        return sock

    def _listener_loop(self):
        while not self._stopped.is_set():
            try:
                conn, _addr = self._server_sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()
            self._conn_threads = [
                live for live in self._conn_threads if live.is_alive()
            ]
            self._conn_threads.append(thread)

    def _serve_connection(self, conn):
        stream = MessageStream(conn)
        try:
            while True:
                try:
                    request = stream.recv()
                except ProtocolError as exc:
                    stream.send(error_response(exc))
                    return
                if request is None:
                    return
                stream.send(self.handle_request(request))
        except OSError:
            pass  # client went away mid-reply
        finally:
            stream.close()

    # -- lifecycle ---------------------------------------------------------
    def start(self):
        """Bind the socket and start the listener/scheduler threads."""
        self._server_sock = self._bind()
        self._scheduler = threading.Thread(
            target=self._scheduler_loop, name="serve-scheduler", daemon=True
        )
        self._scheduler.start()
        self._listener = threading.Thread(
            target=self._listener_loop, name="serve-listener", daemon=True
        )
        self._listener.start()
        return self

    def drain(self):
        """Begin graceful shutdown (idempotent, signal-safe): refuse
        new work, cancel queued slices, let the in-flight slice finish."""
        if self._draining.is_set():
            return
        self._draining.set()
        self.queue.close()
        for job_id, _slice_specs in self.queue.cancel_pending():
            METRICS.inc("serve.drained_slices")
            job = self._jobs.get(job_id)
            if job is not None and not job.done.is_set():
                self._finish(job, "drained")

    def serve_forever(self):
        """Park until a drain completes; returns 0 (the drain exit
        contract: in-flight work finished, rows and totals persisted)."""
        self._draining.wait()
        if self._scheduler is not None:
            self._scheduler.join()
        self._shutdown()
        return 0

    def _shutdown(self):
        self._stopped.set()
        if self._listener is not None:
            self._listener.join(timeout=2.0)
        if self._server_sock is not None:
            try:
                self._server_sock.close()
            except OSError:
                pass
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        # Any job still marked running lost its remaining slices to the
        # drain; close it out so waiters unblock.
        with self._jobs_lock:
            for job in self._jobs.values():
                if not job.done.is_set():
                    self._finish(job, "drained")
        # Persist every store's totals: the runner folds cache/code
        # store once per run; the dataset's counters since the last
        # timed fold go in one final locked fold, then the pool goes
        # down.
        self._fold_dataset()
        self.runner.close()

    def stop(self):
        """Drain and fully shut down (test/embedding convenience)."""
        self.drain()
        if self._scheduler is not None and self._scheduler.is_alive():
            self._scheduler.join(timeout=30.0)
        self._shutdown()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()
