"""Set-up probe: start the program the way a user's command does, and
print ``ready`` once it could accept its first op.

    python3 perfbench/ready.py grid|engine

``grid`` loads the Figure 7 manifest and builds the two-worker runner
(``repro manifest run``); ``engine`` builds the serial runner
(``repro run``).  Both import the CLI module every ``repro`` command
starts from.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import repro.cli  # noqa: E402,F401
from repro.core.runner import ExperimentRunner  # noqa: E402


def main(kind):
    if kind == "grid":
        from repro.exp.manifest import resolve_manifest

        resolve_manifest("figure7")
        runner = ExperimentRunner(jobs=2)
    else:
        runner = ExperimentRunner(jobs=1)
    print("ready", flush=True)
    runner.close()


if __name__ == "__main__":
    main(sys.argv[1])
