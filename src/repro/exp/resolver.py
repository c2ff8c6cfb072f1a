"""Resumable execution: a dataset-backed view of the experiment runner.

:class:`DatasetResolver` wraps an
:class:`~repro.core.runner.ExperimentRunner` with the same ``run(specs)
-> results`` contract, adding one resolution layer in front of it: a
job whose cell (structural fingerprint) already has a row in the
:class:`~repro.exp.dataset.Dataset` is *priced from the stored record*
-- zero guest instructions -- and only the missing cells reach the
runner (which still applies its own dedup, result cache, warm-pool
fan-out and fault isolation, unchanged).  Newly executed cells are
appended to the dataset with a provenance stamp, so every run makes
the next one cheaper; failure records are never appended, so failed
cells retry.

Because the wrapper duck-types the runner (``run``, ``run_suite``,
``harness``, ``last_stats``/``last_jobs``/``jobs_log``/``failures``,
``close``), every existing driver -- :class:`~repro.analysis.sweep.VersionSweep`,
the figure generators, the CLI grid commands -- becomes a dataset
consumer by being handed a resolver where it used to take a runner.
Dataset resolution (like the result cache) only applies under the
deterministic MODELED timing policy; pricing a stored record there is
bit-identical to pricing a fresh execution, which is what keeps
serial, parallel and dataset-warm tables equal.
"""

from repro.core.harness import FAILURE_STATUSES, SuiteResult, TimingPolicy
from repro.core.runner import JobSpec
from repro.core.suite import SUITE
from repro.core.harness import ExecutionRecord
from repro.exp import provenance
from repro.exp.dataset import STORABLE_STATUSES, make_row
from repro.obs.metrics import METRICS
from repro.sim.spec import as_engine_spec


def _fresh_row(spec, cell_id, status, source, manifest_id):
    return {
        "benchmark": spec.benchmark.name,
        "engine": spec.engine_spec.engine,
        "arch": spec.arch.name,
        "platform": spec.platform.name,
        "iterations": spec.iterations,
        "status": status,
        "source": source,
        "cell_id": cell_id,
        "manifest": manifest_id,
        "wall_ns": 0,
        "queue_wait_ns": 0,
        "attempts": 0,
        "where": None,
    }


class DatasetResolver:
    """An :class:`ExperimentRunner` facade that resolves grid cells
    from a result dataset before executing anything.

    Parameters
    ----------
    runner:
        The wrapped :class:`~repro.core.runner.ExperimentRunner`; it
        receives exactly the specs the dataset could not resolve.
    dataset:
        The :class:`~repro.exp.dataset.Dataset` to resolve from and
        append to.  ``None`` degrades to a transparent pass-through.
    manifest:
        Optional :class:`~repro.exp.manifest.Manifest` (or manifest id
        string) the run belongs to; stamped onto appended rows and the
        per-job telemetry rows, so JSONL exports join against dataset
        rows on both ``cell_id`` and ``manifest``.
    seed:
        Recorded in the provenance stamp of appended rows.
    fold_totals:
        Fold the dataset's session counters into its ``_totals.json``
        at the end of every :meth:`run` (one fold per CLI or manifest
        run).  A long-lived owner of the dataset passes ``False`` and
        folds on its own cadence (:mod:`repro.serve.daemon`).
    """

    def __init__(self, runner, dataset, manifest=None, seed=None, fold_totals=True):
        self.runner = runner
        self.dataset = dataset
        self.fold_totals = fold_totals
        if manifest is not None and not isinstance(manifest, str):
            seed = seed if seed is not None else manifest.seed
            manifest = manifest.manifest_id()
        self.manifest_id = manifest
        self.seed = seed
        self._stamp = None
        #: Counters for the last :meth:`run` call (runner stats plus
        #: ``from_dataset``/``dataset_cells``, with ``jobs`` covering
        #: the full submitted grid).
        self.last_stats = {}
        #: Per-job telemetry rows for the last run, submission order;
        #: dataset-resolved cells appear with ``source="dataset"``.
        self.last_jobs = []
        #: Rows accumulated across every run on this resolver.
        self.jobs_log = []

    # -- runner facade -----------------------------------------------------
    @property
    def harness(self):
        return self.runner.harness

    @property
    def cache(self):
        return self.runner.cache

    @property
    def failures(self):
        return self.runner.failures

    def close(self):
        self.runner.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # ------------------------------------------------------------------
    def _usable(self):
        """Dataset resolution is only sound under MODELED timing, where
        a stored record prices to exactly what a fresh run would."""
        return (
            self.dataset is not None
            and self.harness.timing is TimingPolicy.MODELED
        )

    def _provenance(self):
        if self._stamp is None:
            self._stamp = provenance.capture(
                seed=self.seed, manifest=self.manifest_id
            )
        return self._stamp

    def run(self, specs):
        """Run a grid; one priced result per spec, submission order.

        Identical output to ``runner.run(specs)`` -- the dataset only
        changes *where* records come from, never what they price to.
        """
        specs = [
            spec if isinstance(spec, JobSpec) else JobSpec(*spec) for spec in specs
        ]
        usable = self._usable()

        # Resolve: one dataset probe per unique execution key.
        resolved = {}
        fingerprints = {}
        pending = []
        for spec in specs:
            key = spec.execution_key()
            if key in fingerprints:
                if key not in resolved:
                    # Unresolved repeats still go to the runner, which
                    # dedups them against the first submission.
                    pending.append(spec)
                continue
            fingerprints[key] = cell_id = spec.fingerprint()
            if usable and spec.executes():
                row = self.dataset.get(cell_id)
                if row is not None:
                    resolved[key] = ExecutionRecord.from_payload(row["record"])
                    continue
            pending.append(spec)

        # Execute (and cache/fan out/fault-isolate) the rest.
        try:
            pending_results = self.runner.run(pending)
        except KeyboardInterrupt:
            # The runner already tore its pool down and flushed the
            # cache/code-store totals; flush the dataset's own session
            # counters too so an interrupted run leaves consistent
            # accounting, then keep unwinding (the CLI exits 130).
            self._fold()
            raise

        # Append newly executed cells to the dataset, provenance-stamped.
        appended = 0
        if usable:
            seen = set()
            for spec in pending:
                key = spec.execution_key()
                if key in seen or not spec.executes():
                    continue
                seen.add(key)
                record = self.runner.last_records.get(key)
                if record is not None and record.status in STORABLE_STATUSES:
                    if self.dataset.append(
                        make_row(
                            spec,
                            record,
                            provenance=self._provenance(),
                            manifest=self.manifest_id,
                        )
                    ):
                        appended += 1

        # Merge: dataset-resolved cells price locally (the exact
        # pricing path the runner uses), the rest keep their runner
        # results; telemetry rows interleave in submission order.
        results = []
        rows = []
        pending_iter = iter(zip(pending_results, self.runner.last_jobs))
        dataset_hits = 0
        for spec in specs:
            key = spec.execution_key()
            record = resolved.get(key)
            if record is None:
                result, row = next(pending_iter)
                row = dict(row)
                row["manifest"] = self.manifest_id
                results.append(result)
                rows.append(row)
                continue
            dataset_hits += 1
            results.append(
                self.harness.price_record(
                    record,
                    spec.benchmark,
                    spec.engine_spec,
                    spec.arch,
                    spec.platform,
                    iterations=spec.iterations,
                )
            )
            rows.append(
                _fresh_row(
                    spec,
                    fingerprints[key],
                    record.status,
                    "dataset",
                    self.manifest_id,
                )
            )
            METRICS.inc("dataset.resolved")

        self.last_stats = dict(self.runner.last_stats)
        self.last_stats.update(
            {
                "jobs": len(specs),
                "from_dataset": dataset_hits,
                "dataset_cells": len(resolved),
                "dataset_appended": appended,
            }
        )
        self.last_jobs = rows
        self.jobs_log.extend(rows)
        # Fold the dataset's own session counters into its persistent
        # totals, mirroring what the runner does for cache/code store.
        self._fold()
        return results

    def _fold(self):
        if self.dataset is not None and self.fold_totals:
            self.dataset.fold_session()

    def run_suite(self, simulator, arch, platform, benchmarks=None, scale=1.0, dbt_config=None):
        """Dataset-backed equivalent of ``ExperimentRunner.run_suite``."""
        engine_spec = as_engine_spec(simulator, dbt_config)
        if benchmarks is None:
            benchmarks = SUITE
        specs = [
            JobSpec(
                benchmark,
                engine_spec,
                arch,
                platform,
                iterations=max(1, int(benchmark.default_iterations * scale)),
            )
            for benchmark in benchmarks
        ]
        return SuiteResult(
            engine_spec.engine, arch.name, platform.name, self.run(specs)
        )


class ManifestResult:
    """The outcome of one manifest run."""

    def __init__(self, manifest, specs, results, stats, runner):
        self.manifest = manifest
        self.specs = specs
        self.results = results
        self.stats = dict(stats)
        #: The resolver (or bare runner) that executed the grid --
        #: callers reach telemetry/failures through it.
        self.runner = runner

    def failures(self):
        return [r for r in self.results if r.status in FAILURE_STATUSES]

    def __repr__(self):
        return "ManifestResult(%s, %d cells)" % (
            self.manifest.name,
            len(self.results),
        )


def run_manifest(manifest, runner, dataset=None):
    """Execute a manifest's grid, resuming from ``dataset`` when given.

    Returns a :class:`ManifestResult`; re-running the same manifest
    against the same dataset executes only cells whose rows are
    missing (none, on a fully warm dataset).
    """
    target = runner
    if dataset is not None:
        target = DatasetResolver(runner, dataset, manifest=manifest)
    specs = manifest.jobs()
    results = target.run(specs)
    return ManifestResult(manifest, specs, results, target.last_stats, target)
