"""Manifest layer tests: validation, identity, expansion, TOML."""

import json

import pytest

from repro.analysis.figures import figure_manifest
from repro.core.suite import SUITE, find_benchmarks, slugify
from repro.exp.manifest import (
    Manifest,
    ManifestError,
    bundled_manifests,
    resolve_manifest,
)
from repro.sim.dbt.versions import QEMU_VERSIONS
from repro.sim.spec import engines_for_arch
from repro.workloads import SPEC_PROXIES


def smoke_payload(**overrides):
    payload = {
        "manifest": {"schema": 1, "name": "t", "seed": 3},
        "runner": {"scale": 0.02},
        "grid": [
            {
                "arch": "arm",
                "platform": "vexpress",
                "engines": ["simit", {"engine": "qemu-dbt", "fields": {"tlb_bits": 7}}],
                "benchmarks": ["tlb-*", "system-call"],
            }
        ],
    }
    payload.update(overrides)
    return payload


class TestValidation:
    def test_loads_and_expands(self):
        manifest = Manifest(smoke_payload())
        jobs = manifest.jobs()
        assert len(jobs) == 6  # 2 engines x 3 benchmarks
        assert {spec.engine_spec.engine for spec in jobs} == {"simit", "qemu-dbt"}
        assert {spec.benchmark.name for spec in jobs} == {
            "TLB Eviction",
            "TLB Flush",
            "System Call",
        }

    def test_missing_manifest_section(self):
        with pytest.raises(ManifestError, match="manifest"):
            Manifest({"grid": []})

    def test_wrong_schema_rejected(self):
        payload = smoke_payload()
        payload["manifest"]["schema"] = 99
        with pytest.raises(ManifestError, match="schema"):
            Manifest(payload)

    def test_unknown_section_rejected(self):
        payload = smoke_payload(extra={"x": 1})
        with pytest.raises(ManifestError, match="extra"):
            Manifest(payload)

    def test_unknown_grid_key_rejected(self):
        payload = smoke_payload()
        payload["grid"][0]["typo"] = 1
        with pytest.raises(ManifestError, match="typo"):
            Manifest(payload)

    def test_unknown_runner_key_rejected(self):
        payload = smoke_payload(runner={"scale": 1.0, "jobs": 4})
        with pytest.raises(ManifestError, match="jobs"):
            Manifest(payload)

    def test_unknown_engine_rejected_at_load(self):
        payload = smoke_payload()
        payload["grid"][0]["engines"] = ["bochs"]
        with pytest.raises(ManifestError, match="bochs"):
            Manifest(payload)

    def test_unknown_benchmark_rejected_at_load(self):
        payload = smoke_payload()
        payload["grid"][0]["benchmarks"] = ["no-such-bench"]
        with pytest.raises(ManifestError, match="no-such-bench"):
            Manifest(payload)

    def test_unknown_engine_field_rejected(self):
        payload = smoke_payload()
        payload["grid"][0]["engines"] = [
            {"engine": "qemu-dbt", "fields": {"tb_size": 1}}
        ]
        with pytest.raises(ManifestError, match="tb_size"):
            Manifest(payload)

    def test_empty_grid_rejected(self):
        with pytest.raises(ManifestError, match="grid"):
            Manifest(smoke_payload(grid=[]))


class TestExpansion:
    def test_iterations_follow_runner_scale(self):
        manifest = Manifest(smoke_payload())
        for spec in manifest.jobs():
            expected = max(1, int(spec.benchmark.default_iterations * 0.02))
            assert spec.iterations == expected

    def test_explicit_iterations_override_scale(self):
        payload = smoke_payload()
        payload["grid"][0]["iterations"] = 5
        assert all(spec.iterations == 5 for spec in Manifest(payload).jobs())

    def test_grid_scale_overrides_runner_scale(self):
        payload = smoke_payload()
        payload["grid"][0]["scale"] = 0.1
        manifest = Manifest(payload)
        for spec in manifest.jobs():
            assert spec.iterations == max(
                1, int(spec.benchmark.default_iterations * 0.1)
            )

    def test_sweep_macro_expands_all_versions(self):
        payload = smoke_payload()
        payload["grid"][0]["engines"] = [{"sweep": "qemu-versions"}]
        payload["grid"][0]["benchmarks"] = ["system-call"]
        jobs = Manifest(payload).jobs()
        assert len(jobs) == len(QEMU_VERSIONS)
        assert all(spec.engine_spec.engine == "qemu-dbt" for spec in jobs)

    def test_suite_and_proxy_macros(self):
        payload = smoke_payload()
        payload["grid"][0]["benchmarks"] = ["suite", "spec-proxies"]
        names = [spec.benchmark.name for spec in Manifest(payload).jobs()]
        assert len(set(names)) == len(SUITE) + len(SPEC_PROXIES)

    def test_benchmark_dedupe_preserves_order(self):
        payload = smoke_payload()
        payload["grid"][0]["engines"] = ["simit"]
        payload["grid"][0]["benchmarks"] = ["tlb-flush", "tlb-*", "tlb-flush"]
        names = [spec.benchmark.name for spec in Manifest(payload).jobs()]
        assert names == ["TLB Flush", "TLB Eviction"]


class TestIdentity:
    def test_manifest_id_stable_across_instances(self):
        assert (
            Manifest(smoke_payload()).manifest_id()
            == Manifest(smoke_payload()).manifest_id()
        )

    def test_manifest_id_changes_with_grid(self):
        payload = smoke_payload()
        payload["grid"][0]["benchmarks"] = ["tlb-flush"]
        assert (
            Manifest(payload).manifest_id()
            != Manifest(smoke_payload()).manifest_id()
        )

    def test_cells_use_structural_fingerprints(self):
        manifest = Manifest(smoke_payload())
        for cell_id, spec in manifest.cells():
            assert cell_id == spec.fingerprint()

    def test_diff(self):
        mine = Manifest(smoke_payload())
        payload = smoke_payload()
        payload["grid"][0]["benchmarks"] = ["tlb-*"]
        theirs = Manifest(payload)
        delta = mine.diff(theirs)
        assert delta["common"] == 4
        assert delta["added"] == []
        assert {cell["benchmark"] for cell in delta["removed"]} == {"System Call"}


class TestSerialization:
    def test_toml_round_trip(self, tmp_path):
        manifest = Manifest(smoke_payload())
        path = tmp_path / "m.toml"
        path.write_text(manifest.to_toml())
        again = Manifest.load(path)
        assert again.manifest_id() == manifest.manifest_id()
        assert [s.fingerprint() for s in again.jobs()] == [
            s.fingerprint() for s in manifest.jobs()
        ]

    def test_json_round_trip(self, tmp_path):
        manifest = Manifest(smoke_payload())
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest.to_payload()))
        assert Manifest.load(path).manifest_id() == manifest.manifest_id()

    def test_unparseable_file_is_manifest_error(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("[manifest\n")
        with pytest.raises(ManifestError, match="unparseable"):
            Manifest.load(path)

    def test_missing_file_is_manifest_error(self, tmp_path):
        with pytest.raises(ManifestError, match="cannot read"):
            Manifest.load(tmp_path / "nope.toml")


class TestBundled:
    def test_bundled_set(self):
        assert set(bundled_manifests()) == {
            "figure2",
            "figure6",
            "figure7",
            "figure8",
            "smoke",
        }

    @pytest.mark.parametrize("number", [2, 6, 7, 8])
    def test_bundled_figures_match_builders(self, number):
        """The shipped TOML is exactly figure_manifest(n) at scale 0.5:
        same manifest id, hence the same expanded cells."""
        bundled = resolve_manifest("figure%d" % number)
        built = figure_manifest(number, scale=0.5)
        assert bundled.manifest_id() == built.manifest_id()

    def test_figure7_covers_both_arch_columns(self):
        manifest = resolve_manifest("figure7")
        jobs = manifest.jobs()
        assert len(jobs) == len(SUITE) * (
            len(engines_for_arch("arm")) + len(engines_for_arch("x86"))
        )

    def test_resolve_prefers_paths(self, tmp_path):
        path = tmp_path / "figure7"  # a *file* named like a bundled manifest
        path.write_text(Manifest(smoke_payload()).to_toml())
        assert resolve_manifest(str(path)).name == "t"

    def test_resolve_unknown_lists_bundled(self):
        with pytest.raises(ManifestError, match="figure7"):
            resolve_manifest("no-such-manifest")


class TestFindBenchmarks:
    def test_finds_by_slug_and_name(self):
        assert find_benchmarks("tlb-flush")[0].name == "TLB Flush"
        assert find_benchmarks("TLB Flush")[0].name == "TLB Flush"

    def test_glob(self):
        assert {b.name for b in find_benchmarks("tlb-*")} == {
            "TLB Eviction",
            "TLB Flush",
        }

    def test_unknown_raises_keyerror_with_examples(self):
        with pytest.raises(KeyError, match="small-blocks"):
            find_benchmarks("zzz")

    def test_slugify(self):
        assert slugify("TLB Eviction") == "tlb-eviction"
        assert slugify("perlbench") == "perlbench"


def _glob_every_name(pattern):
    """The reference lookup: ``pattern`` tried as a glob against every
    name and slug (what :func:`find_benchmarks` must keep returning)."""
    from fnmatch import fnmatchcase

    from repro.core.suite import all_benchmarks

    lowered = pattern.lower()
    found = [
        bench
        for bench in all_benchmarks()
        if fnmatchcase(bench.name.lower(), lowered) or fnmatchcase(slugify(bench.name), lowered)
    ]
    if not found:
        raise KeyError(
            "no benchmark or workload matches %r (e.g. %s)"
            % (pattern, ", ".join(slugify(b.name) for b in SUITE[:3]))
        )
    return found


def _same_lookup(pattern):
    try:
        expected = _glob_every_name(pattern)
    except KeyError as exc:
        with pytest.raises(KeyError) as raised:
            find_benchmarks(pattern)
        assert str(raised.value) == str(exc)
        return
    assert find_benchmarks(pattern) == expected


class TestFindBenchmarksExactLookup:
    def _spellings(self):
        from repro.core.suite import all_benchmarks

        for bench in all_benchmarks():
            for text in (bench.name, slugify(bench.name)):
                yield from {text, text.lower(), text.upper(), text.title(), text.swapcase()}

    def test_every_name_and_slug_in_any_case(self):
        spellings = list(self._spellings())
        assert len(spellings) > 2 * len(SUITE)
        for text in spellings:
            _same_lookup(text)

    @pytest.mark.parametrize(
        "pattern",
        [
            "*", "tlb-*", "TLB *", "*-access", "*fault*", "?lb-flush", "[it]*",
            "inter-page-*", "*page*", "s*", "*[!a-z]*", "[", "tlb-flush]", "zzz",
            "", "tlb flush ", "tlb--flush", "perlbench", "PERL*",
        ],
    )
    def test_globs_and_misses_match_the_reference(self, pattern):
        _same_lookup(pattern)
