"""Record the reference digest of every cell any workload can run.

Run from the repository root::

    python3 perfbench/record.py

Each cell runs once, serially, through ``ExperimentRunner(jobs=1)``;
its status and the digest of its deterministic fields (status, kernel
counter delta, total instructions) go to ``perfbench/reference.json``.
Then one traced run of each workload records the per-layer counts that
must repeat exactly (``tracing.EXACT``).
Host-only optimisations keep guest counters bit-identical, so this file
should never need regenerating; a change that moves a digest changed
simulated behaviour.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import decks  # noqa: E402
import tracing  # noqa: E402
from repro.core.runner import ExperimentRunner, JobSpec  # noqa: E402
from repro.exp.manifest import resolve_manifest  # noqa: E402

#: The ``--seconds`` whose exact per-layer counts are recorded.
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def figure7_cells():
    return [
        (
            spec.benchmark.name,
            spec.engine_spec.engine,
            spec.arch.name,
            spec.platform.name,
            spec.iterations,
        )
        for spec in resolve_manifest("figure7").jobs()
    ]


def to_spec(cell):
    from repro.arch import get_arch
    from repro.platform import get_platform

    benchmark, engine, arch, platform, iterations = cell
    return JobSpec(benchmark, engine, get_arch(arch), get_platform(platform), iterations)


def main():
    cells = figure7_cells() + decks.engine_cells() + decks.serve_cells()
    unique = list(dict.fromkeys(cells))
    runner = ExperimentRunner(jobs=1)
    reference = {}
    for start in range(0, len(unique), 50):
        batch = unique[start : start + 50]
        specs = [to_spec(cell) for cell in batch]
        runner.run(specs)
        for cell, spec in zip(batch, specs):
            payload = runner.last_records[spec.execution_key()].to_payload()
            reference[decks.cell_key(cell)] = {
                "status": payload["status"],
                "digest": decks.digest(payload),
            }
        print("recorded %d/%d cells" % (len(reference), len(unique)), file=sys.stderr)
    write({"cells": reference})
    exact = {}
    seconds = BENCHMARK["run_seconds"]
    for workload in (entry["name"] for entry in BENCHMARK["workloads"]):
        command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", "0", "--seconds", str(seconds), "--trace", "1"]
        output = subprocess.run(command, capture_output=True, text=True, check=True).stdout
        metrics = json.loads(output.strip().splitlines()[-1])["metrics"]
        exact["%s/%g" % (workload, seconds)] = {name: metrics[name]["value"] for name in tracing.EXACT}
        print("recorded exact counts of %s" % workload, file=sys.stderr)
    write({"cells": reference, "exact": exact})


def write(payload):
    with open(decks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
