"""Provenance stamps: the git revision is looked up once per process."""

import os
import subprocess
import sys

import pytest

from repro.exp import provenance


@pytest.fixture
def git_calls(monkeypatch):
    calls = []

    def fake_run(args, **kwargs):
        calls.append(args)
        return subprocess.CompletedProcess(args, 0, stdout="f00d\n", stderr="")

    provenance.git_revision.cache_clear()
    monkeypatch.setattr(provenance.subprocess, "run", fake_run)
    yield calls
    provenance.git_revision.cache_clear()


def test_git_runs_at_most_once_per_process(git_calls):
    stamps = [provenance.capture(seed=index, manifest="m%d" % index) for index in range(5)]
    assert len(git_calls) == 1
    assert git_calls[0][:2] == ["git", "-C"]
    assert all(stamp["git_rev"] == "f00d" for stamp in stamps)
    # Everything else is still per stamp.
    assert [stamp["seed"] for stamp in stamps] == list(range(5))
    assert [stamp["manifest"] for stamp in stamps] == ["m%d" % i for i in range(5)]
    assert all(stamp["host"] and stamp["spec_schema"] for stamp in stamps)
    assert stamps[0]["created"] <= stamps[-1]["created"]


def test_a_failed_lookup_is_also_remembered(monkeypatch):
    calls = []

    def failing(args, **kwargs):
        calls.append(args)
        raise OSError("no git")

    provenance.git_revision.cache_clear()
    monkeypatch.setattr(provenance.subprocess, "run", failing)
    try:
        assert provenance.capture()["git_rev"] is None
        assert provenance.capture()["git_rev"] is None
        assert len(calls) == 1
    finally:
        provenance.git_revision.cache_clear()


def test_import_does_not_run_git():
    package = os.path.dirname(os.path.dirname(provenance.__file__))
    probe = (
        "import repro.exp.provenance as p, repro.serve.daemon; "
        "print(p.git_revision.cache_info().misses)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "0"
