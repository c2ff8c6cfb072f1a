"""Resumable-execution tests: the dataset-backed runner facade."""

import math

import pytest

from repro.core.harness import Harness, TimingPolicy
from repro.core.runner import ExperimentRunner
from repro.exp import Dataset, DatasetResolver, Manifest, parse_query, run_manifest


def tiny_manifest(**grid_overrides):
    grid = {
        "arch": "arm",
        "platform": "vexpress",
        "engines": ["simit", "qemu-dbt"],
        "benchmarks": ["tlb-*", "system-call"],
    }
    grid.update(grid_overrides)
    return Manifest(
        {
            "manifest": {"schema": 1, "name": "tiny", "seed": 0},
            "runner": {"scale": 0.02},
            "grid": [grid],
        }
    )


def table(results):
    return [
        (r.benchmark, r.simulator, r.status, r.kernel_ns if r.ok else None)
        for r in results
    ]


class TestRunManifest:
    def test_cold_run_executes_and_appends(self, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        with ExperimentRunner() as runner:
            result = run_manifest(tiny_manifest(), runner, dataset=dataset)
        assert result.stats["executed"] == 6
        assert result.stats["from_dataset"] == 0
        assert result.stats["dataset_appended"] == 6
        assert len(dataset.rows()) == 6
        assert result.failures() == []

    def test_warm_run_executes_nothing(self, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        manifest = tiny_manifest()
        with ExperimentRunner() as runner:
            cold = run_manifest(manifest, runner, dataset=dataset)
        with ExperimentRunner() as runner:
            warm = run_manifest(manifest, runner, dataset=dataset)
        assert warm.stats["executed"] == 0
        assert warm.stats["from_dataset"] == 6
        assert all(row["source"] == "dataset" for row in warm.runner.last_jobs)
        assert table(warm.results) == table(cold.results)

    def test_partial_resume_executes_only_missing_cells(self, tmp_path):
        """The resumability contract: delete a subset of rows, re-run,
        and exactly the missing cells execute (checked through the
        runner's per-job source telemetry); the final table is
        bit-identical to the cold run's."""
        dataset = Dataset(tmp_path / "ds")
        manifest = tiny_manifest()
        with ExperimentRunner() as runner:
            cold = run_manifest(manifest, runner, dataset=dataset)
        victims = [
            row["cell"]
            for row in dataset.rows(parse_query("engine=simit bench=tlb-*"))
        ]
        assert len(victims) == 2
        for cell in victims:
            assert dataset.remove(cell)
        with ExperimentRunner() as runner:
            resumed = run_manifest(manifest, runner, dataset=dataset)
        executed = [
            (row["benchmark"], row["engine"])
            for row in resumed.runner.last_jobs
            if row["source"] == "executed"
        ]
        assert sorted(executed) == [
            ("TLB Eviction", "simit"),
            ("TLB Flush", "simit"),
        ]
        assert resumed.stats["executed"] == 2
        assert resumed.stats["from_dataset"] == 4
        assert resumed.stats["dataset_appended"] == 2
        assert table(resumed.results) == table(cold.results)

    def test_manifest_id_stamped_on_rows_and_jobs(self, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        manifest = tiny_manifest()
        with ExperimentRunner() as runner:
            result = run_manifest(manifest, runner, dataset=dataset)
        for row in dataset.rows():
            assert row["manifest"] == manifest.manifest_id()
            assert row["provenance"]["manifest"] == manifest.manifest_id()
            assert row["provenance"]["seed"] == 0
        for job in result.runner.last_jobs:
            assert job["manifest"] == manifest.manifest_id()
            assert job["cell_id"]

    def test_without_dataset_is_plain_runner(self):
        with ExperimentRunner() as runner:
            result = run_manifest(tiny_manifest(), runner)
        assert result.runner is runner
        assert result.stats["executed"] == 6


class TestResolver:
    def test_pricing_variants_share_one_row(self, tmp_path):
        """Specs differing only in META/PRICING fields share a cell:
        the dataset stores one record, and each spec prices it under
        its own cost table -- the sweep's execute-once-price-many."""
        manifest = tiny_manifest(
            engines=[{"sweep": "qemu-versions"}], benchmarks=["system-call"]
        )
        dataset = Dataset(tmp_path / "ds")
        with ExperimentRunner() as runner:
            cold = run_manifest(manifest, runner, dataset=dataset)
        # 20 versions, but only the structural groups hit the dataset.
        assert len(dataset.rows()) == cold.stats["executed"]
        assert cold.stats["executed"] < len(manifest.jobs())
        with ExperimentRunner() as runner:
            warm = run_manifest(manifest, runner, dataset=dataset)
        assert warm.stats["executed"] == 0
        assert table(warm.results) == table(cold.results)
        # Different versions genuinely price differently from the same rows.
        seconds = {r.kernel_ns for r in warm.results if r.ok}
        assert len(seconds) > 1

    def test_wallclock_timing_bypasses_dataset(self, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        manifest = tiny_manifest(benchmarks=["tlb-flush"])
        harness = Harness(timing=TimingPolicy.WALLCLOCK)
        with ExperimentRunner(harness=harness) as runner:
            resolver = DatasetResolver(runner, dataset)
            resolver.run(manifest.jobs())
            assert resolver.last_stats["from_dataset"] == 0
            assert dataset.rows() == []
            resolver.run(manifest.jobs())
            assert resolver.last_stats["executed"] == 2

    def test_failures_not_appended_and_retry(self, tmp_path):
        """Failure rows never enter the dataset, so failed cells
        re-execute on the next run instead of pinning the failure."""
        dataset = Dataset(tmp_path / "ds")
        manifest = tiny_manifest(
            engines=["gem5"], benchmarks=["nonprivileged-access"]
        )
        with ExperimentRunner(deadline=1e-12, retries=0) as runner:
            resolver = DatasetResolver(runner, dataset)
            results = resolver.run(manifest.jobs())
        if any(not r.ok for r in results):
            failed_cells = {
                spec.fingerprint()
                for spec, r in zip(manifest.jobs(), results)
                if not r.ok
            }
            for cell in failed_cells:
                assert not dataset.contains(cell)

    def test_duck_types_runner_surface(self, tmp_path):
        from repro.arch import ARM
        from repro.platform import VEXPRESS

        dataset = Dataset(tmp_path / "ds")
        with ExperimentRunner() as runner:
            resolver = DatasetResolver(runner, dataset)
            assert resolver.harness is runner.harness
            assert resolver.failures is runner.failures
            suite_result = resolver.run_suite(
                "simit", ARM, VEXPRESS, scale=0.02
            )
            assert len(list(suite_result)) == 18
            assert resolver.last_stats["jobs"] == 18
            again = resolver.run_suite("simit", ARM, VEXPRESS, scale=0.02)
            assert resolver.last_stats["executed"] == 0
            assert table(list(again)) == table(list(suite_result))

    def test_telemetry_rows_join_dataset_rows(self, tmp_path):
        """Satellite contract: JSONL job rows carry cell_id + manifest,
        so telemetry joins dataset rows by key; dataset-resolved cells
        count under their own breakdown column."""
        from repro.obs.export import breakdown, read_jsonl, write_jsonl

        dataset = Dataset(tmp_path / "ds")
        manifest = tiny_manifest(engines=["simit"], benchmarks=["tlb-*"])
        with ExperimentRunner() as runner:
            run_manifest(manifest, runner, dataset=dataset)
        with ExperimentRunner() as runner:
            warm = run_manifest(manifest, runner, dataset=dataset)
        path = tmp_path / "jobs.jsonl"
        write_jsonl(path, meta={"command": "test"}, jobs=warm.runner.last_jobs)
        jobs = [line for line in read_jsonl(path) if line["type"] == "job"]
        assert len(jobs) == 2
        by_cell = {row["cell"]: row for row in dataset.rows()}
        for job in jobs:
            assert job["source"] == "dataset"
            assert job["manifest"] == manifest.manifest_id()
            joined = by_cell[job["cell_id"]]
            assert joined["benchmark"] == job["benchmark"]
        cells = breakdown(jobs)
        assert all(cell["dataset"] == 1 for cell in cells)
        assert all(cell["executed"] == 0 for cell in cells)

    def test_repeated_specs_collapse(self, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        manifest = tiny_manifest(engines=["simit"], benchmarks=["tlb-flush"])
        specs = manifest.jobs() * 3
        with ExperimentRunner() as runner:
            resolver = DatasetResolver(runner, dataset)
            results = resolver.run(specs)
        assert len(results) == 3
        assert len({id(r) for r in results}) == 3  # distinct result objects
        assert len(dataset.rows()) == 1
        values = {r.kernel_ns for r in results}
        assert len(values) == 1 and not any(math.isnan(v) for v in values)


class TestTotalsFold:
    def _counting(self, dataset):
        folds = []
        real = dataset.fold_totals

        def counting(delta=None):
            folds.append(dict(delta))
            return real(delta)

        dataset.fold_totals = counting
        return folds

    def test_one_fold_per_manifest_run(self, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        folds = self._counting(dataset)
        manifest = tiny_manifest(engines=["simit"])
        with ExperimentRunner() as runner:
            run_manifest(manifest, runner, dataset=dataset)
            run_manifest(manifest, runner, dataset=dataset)
        assert folds == [
            {"hits": 0, "misses": 3, "stores": 3, "quarantined": 0},
            {"hits": 3, "misses": 0, "stores": 0, "quarantined": 0},
        ]
        assert Dataset(tmp_path / "ds").totals() == {
            "hits": 3, "misses": 3, "stores": 3, "quarantined": 0
        }

    def test_resolver_without_fold_leaves_counters_to_its_owner(self, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        folds = self._counting(dataset)
        manifest = tiny_manifest(engines=["simit"])
        with ExperimentRunner() as runner:
            for _ in range(2):
                DatasetResolver(runner, dataset, manifest=manifest, fold_totals=False).run(
                    manifest.jobs()
                )
        assert folds == []
        assert dataset.session_stats() == {
            "hits": 3, "misses": 3, "stores": 3, "quarantined": 0
        }
        dataset.fold_session()
        assert dataset.session_stats() == dict.fromkeys(dataset.session_stats(), 0)
        assert Dataset(tmp_path / "ds").totals() == {
            "hits": 3, "misses": 3, "stores": 3, "quarantined": 0
        }
