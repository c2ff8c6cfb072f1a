"""Per-cell fixed-cost smoke: set-up must not dominate a figure grid.

Runs a serial Figure 7 grid at a small scale with the metrics layer
enabled and compares the two harness phases every executed cell goes
through: ``harness.setup`` (program build, board construction, program
load, engine build) and ``harness.run`` (guest execution).  Set-up is
host overhead charged to no simulated mechanism, so the smoke fails if
its share of ``harness.setup + harness.run`` exceeds ``MAX_SETUP_SHARE``.

Runnable standalone: ``PYTHONPATH=src python benchmarks/smoke_setup.py``.
"""

import time

from repro.analysis import figures
from repro.core import ExperimentRunner
from repro.obs.metrics import METRICS

SCALE = 0.25
MAX_SETUP_SHARE = 0.2


def main():
    METRICS.reset()
    METRICS.enable(True)
    start = time.perf_counter()
    try:
        figures.figure7(scale=SCALE, runner=ExperimentRunner())
        phases = METRICS.snapshot()["phases"]
    finally:
        METRICS.enable(False)
        METRICS.reset()
    wall = time.perf_counter() - start

    setup = phases["harness.setup"]
    run = phases["harness.run"]
    share = setup["total_ns"] / (setup["total_ns"] + run["total_ns"])
    print(
        "setup smoke: figure 7 at scale %.2f in %.2fs -- %d cells, "
        "harness.setup %.3fs, harness.run %.3fs, setup share %.3f "
        "(ceiling %.2f)"
        % (
            SCALE,
            wall,
            setup["count"],
            setup["total_ns"] / 1e9,
            run["total_ns"] / 1e9,
            share,
            MAX_SETUP_SHARE,
        )
    )
    if share > MAX_SETUP_SHARE:
        raise SystemExit(
            "harness.setup is %.3f of harness.setup + harness.run, above the "
            "%.2f ceiling" % (share, MAX_SETUP_SHARE)
        )


if __name__ == "__main__":
    main()
