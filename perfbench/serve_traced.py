"""Launch ``repro serve`` with the benchmark's layer spans installed.

    python3 perfbench/serve_traced.py DUMP.json [repro serve options...]

The daemon runs exactly as ``python -m repro serve`` would, in this
process.  SIGUSR1 clears the metrics registry and then creates
``DUMP.json.reset``, so the benchmark can start its timed region after
warm-up; when the daemon drains, the registry snapshot is written to
``DUMP.json``.
"""

import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402


def main(argv):
    dump, serve_args = argv[0], argv[1:]
    tracing.install()
    from repro.cli import main as cli_main
    from repro.obs.metrics import METRICS

    def reset(_signum, _frame):
        METRICS.reset()
        with open(dump + ".reset", "w", encoding="utf-8"):
            pass

    signal.signal(signal.SIGUSR1, reset)
    status = cli_main(["serve"] + serve_args)
    with open(dump, "w", encoding="utf-8") as fh:
        json.dump(METRICS.snapshot(), fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
