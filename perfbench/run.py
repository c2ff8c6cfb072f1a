"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload grid-cold|engine-long|serve-mixed \\
        --seed N --seconds S --trace 0|1

Run it from the repository root.  It drives the program from outside,
through its public entry points (``run_manifest``,
``ExperimentRunner.run``, the ``repro serve`` daemon via
``ServeClient``), as one closed loop whose work is a pure function of
the seed (see ``decks.py``).  It checks every cell's guest counters
against ``reference.json`` and prints, as its last line, one JSON
object: the end-to-end metrics with ``--trace 0``, or the per-layer
metrics of a traced run with ``--trace 1``.  The lines before it are a
human-readable report.  README.md in this directory explains each
workload and metric.
"""

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import decks  # noqa: E402
import tracing  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for datasets and sockets; relative to the repository
#: root, which is the working directory (AF_UNIX paths must stay short).
WORK = ".perfbench-work"

#: Fresh launches per run whose median is ``setup_s``.
SETUP_LAUNCHES = 7
#: Pool size of grid-cold: the host's two cores.
POOL_JOBS = 2
#: Upper bound on any single wait on a child process or daemon.
CHILD_TIMEOUT = 120

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "guest_mips": "MIPS",
    "peak_rss_mib": "MiB",
    "success_rate": "ratio",
}


class BenchError(Exception):
    """The run cannot produce a result (the program is missing, a child
    failed to start, a daemon never answered)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith(("_ratio", "_share", "_share_of_op")):
        return "ratio"
    if name.startswith("sim.mips."):
        return "MIPS"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("ops_per_s"):
        return "ops/s"
    return "count"


# -- measurement helpers -----------------------------------------------------
def spin_probe():
    """Seconds for a fixed pure-Python loop: how fast this host
    interprets Python right now."""
    start = time.perf_counter()
    total = 0
    for index in range(200_000):
        total += index & 7
    return time.perf_counter() - start


def zero_probe():
    """Seconds to allocate and zero 32 MiB (always a fresh mmap): how
    fast this host faults in and clears memory right now, as guest RAM
    set-up does."""
    start = time.perf_counter()
    buf = bytearray(32 << 20)
    del buf
    return time.perf_counter() - start


#: probe name -> (probe, its typical time on the 2-core reference host).
HOST_PROBES = {"spin": (spin_probe, 0.012), "zero": (zero_probe, 0.024)}


def tree_pids(root_pid):
    """``root_pid`` and every live descendant, from /proc."""
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry, encoding="ascii", errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    pids, frontier = [], [root_pid]
    while frontier:
        pid = frontier.pop()
        pids.append(pid)
        frontier.extend(children.get(pid, ()))
    return pids


def wait_for_children():
    """Block until every process this run started has exited."""
    deadline = time.perf_counter() + CHILD_TIMEOUT
    while len(tree_pids(os.getpid())) > 1:
        if time.perf_counter() > deadline:
            raise BenchError("child processes outlived the run")
        time.sleep(0.01)


def tree_peak_mib(root_pid):
    """Sum of every process's peak resident set (VmHWM) over the tree."""
    total_kib = 0
    for pid in tree_pids(root_pid):
        try:
            with open("/proc/%d/status" % pid, encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
        except OSError:
            continue
    return total_kib / 1024.0


def launch_ready(kind):
    """Seconds from launching ``ready.py kind`` to its ``ready`` line."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "ready.py"), kind],
        stdout=subprocess.PIPE,
        env=child_env(),
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait(timeout=CHILD_TIMEOUT) != 0 or line.strip() != "ready":
            raise BenchError("set-up probe %r failed (exit %s)" % (kind, proc.returncode))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return elapsed


class Daemon:
    """One ``repro serve --jobs 1`` process on a fresh dataset."""

    def __init__(self, index, dump=None):
        from repro.serve.client import ServeClient

        self.socket = os.path.join(WORK, "serve%d.sock" % index)
        self.dataset_dir = os.path.join(WORK, "serve%d-dataset" % index)
        self.dump = dump
        serve_args = ["--jobs", "1", "--socket", self.socket, "--dataset-dir", self.dataset_dir]
        if dump is None:
            command = [sys.executable, "-m", "repro", "serve"] + serve_args
        else:
            command = [sys.executable, os.path.join(HERE, "serve_traced.py"), dump] + serve_args
        self.client = ServeClient(self.socket, timeout=CHILD_TIMEOUT)
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            command, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        deadline = start + CHILD_TIMEOUT
        while not self.client.is_up():
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise BenchError("repro serve did not come up")
            time.sleep(0.002)
        #: Launch to first answered ping.
        self.setup_s = time.perf_counter() - start

    def reset_metrics(self):
        """Clear the traced daemon's registry; returns once it has."""
        marker = self.dump + ".reset"
        os.kill(self.proc.pid, signal.SIGUSR1)
        deadline = time.perf_counter() + CHILD_TIMEOUT
        while not os.path.exists(marker):
            if time.perf_counter() > deadline:
                raise BenchError("traced daemon did not reset its metrics")
            time.sleep(0.001)

    def stop(self):
        """Drain the daemon and wait for it to exit."""
        from repro.serve.client import ServeError

        if self.proc.poll() is None:
            try:
                self.client.drain()
                self.proc.wait(timeout=CHILD_TIMEOUT)
            except (OSError, ServeError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


# -- workloads ---------------------------------------------------------------
class Outcome:
    """What one workload run measured and checked."""

    def __init__(self):
        self.setup = []
        self.latencies_ns = []
        self.wall_ns = 0
        self.guest_insns = 0
        self.peak_mib = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.tally = {"kernel": {}, "insns_by_engine": {}}
        self.snapshot = {}
        self.report = []
        self.probe = None
        self.probe_s = []

    def calibrate(self, samples=1):
        """Time the workload's host probe between ops (never inside one)."""
        probe = HOST_PROBES[self.probe][0]
        self.probe_s.extend(probe() for _ in range(samples))

    def host_scale(self):
        """Reference probe time over this run's mean probe time.

        The host's speed drifts by 20-30% over seconds to minutes (other
        tenants); multiplying every measured op time by this factor
        states it at the reference host speed, which removes that drift
        from run-to-run comparisons without biasing them.
        """
        return HOST_PROBES[self.probe][1] / statistics.mean(self.probe_s)

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)
        return ok

    def add_cell(self, engine, payload):
        """Fold one executed cell's record into the exact tallies."""
        insns = payload.get("total_instructions") or 0
        self.guest_insns += insns
        by_engine = self.tally["insns_by_engine"]
        by_engine[engine] = by_engine.get(engine, 0) + insns
        kernel = self.tally["kernel"]
        for name, value in (payload.get("kernel_delta") or {}).items():
            kernel[name] = kernel.get(name, 0) + value

    def end_to_end(self):
        scale = self.host_scale()
        seconds = self.wall_ns * scale / 1e9
        return {
            "setup_s": statistics.median(self.setup),
            "ops_per_s": self.attempted / seconds,
            "op_p50_ms": tracing.percentile(self.latencies_ns, 50) * scale / 1e6,
            "op_p90_ms": tracing.percentile(self.latencies_ns, 90) * scale / 1e6,
            "guest_mips": self.guest_insns / seconds / 1e6,
            "peak_rss_mib": self.peak_mib,
            "success_rate": (self.attempted - self.failed) / self.attempted,
        }


def cell_of(spec):
    return (
        spec.benchmark.name,
        spec.engine_spec.engine,
        spec.arch.name,
        spec.platform.name,
        spec.iterations,
    )


def matches(reference, cell, payload):
    expected = reference.get(decks.cell_key(cell))
    return (
        expected is not None
        and payload["status"] == expected["status"]
        and decks.digest(payload) == expected["digest"]
    )


def grid_cold(seed, seconds, trace, out):
    """Consecutive cold Figure 7 passes on one warm two-worker pool."""
    from repro.core.runner import ExperimentRunner
    from repro.exp.dataset import Dataset
    from repro.exp.manifest import Manifest, resolve_manifest
    from repro.exp.resolver import run_manifest
    from repro.obs.metrics import METRICS

    out.probe = "zero"
    out.setup = [launch_ready("grid") for _ in range(SETUP_LAUNCHES)]
    if trace:
        tracing.install()
    reference = decks.load_reference()["cells"]
    base = [cell_of(spec) for spec in resolve_manifest("figure7").jobs()]
    runner = ExperimentRunner(jobs=POOL_JOBS)
    tally = out.tally
    tally.update(
        workers=POOL_JOBS,
        job_wall_ns=[],
        queue_wait_ns=[],
        chunk_size=0,
        chunks=0,
        worker_lost=0,
        retried=0,
        appended=0,
        from_dataset=0,
        cells=0,
        # The parent side of the grid runs outside any cell.
        outside_spans=(
            "exp.expand",
            "exp.resolve",
            "exp.dataset_get",
            "exp.dataset_append",
            "exp.provenance",
            "storage.fold_totals",
            "runner.run",
            "harness.price",
        ),
    )

    def one_pass(index):
        cells = decks.grid_pass_cells(base, seed, index)
        dataset_dir = os.path.join(WORK, "grid-pass%d" % index)
        start = time.perf_counter_ns()
        manifest = Manifest(decks.grid_manifest_payload(cells, seed))
        result = run_manifest(manifest, runner, dataset=Dataset(dataset_dir))
        wall = time.perf_counter_ns() - start
        shutil.rmtree(dataset_dir, ignore_errors=True)
        stats = result.stats
        out.report.append(
            "pass %d: %.3f s, executed %d, from dataset %d, chunk_size %s, chunks %s"
            % (index, wall / 1e9, stats["executed"], stats["from_dataset"],
               stats.get("chunk_size"), stats.get("chunks"))
        )
        return cells, result, wall

    try:
        # Warm-up pass: forks the pool and seeds the runner's per-job
        # time estimate, so every timed pass plans its chunks the same way.
        one_pass(-1)
        METRICS.reset()
        for index in range(decks.grid_passes(seconds)):
            out.calibrate(8)
            cells, result, wall = one_pass(index)
            out.wall_ns += wall
            stats = result.stats
            out.check(
                stats["executed"] == decks.GRID_EXECUTED and stats["from_dataset"] == 0,
                "pass %d executed %d cells and resolved %d from the dataset"
                % (index, stats["executed"], stats["from_dataset"]),
            )
            records = result.runner.runner.last_records
            for cell, spec, row in zip(cells, result.specs, result.runner.last_jobs):
                payload = records[spec.execution_key()].to_payload()
                if row["source"] != "executed":
                    out.check(matches(reference, cell, payload), "static cell %s" % (cell,))
                    continue
                out.attempted += 1
                out.failed += not matches(reference, cell, payload)
                out.latencies_ns.append(row["wall_ns"])
                out.add_cell(cell[1], payload)
                tally["job_wall_ns"].append(row["wall_ns"])
                tally["queue_wait_ns"].append(row["queue_wait_ns"])
            for key in ("chunks", "worker_lost", "retried"):
                tally[key] += stats.get(key, 0)
            tally["chunk_size"] = stats.get("chunk_size", 0)
            tally["appended"] += stats["dataset_appended"]
            tally["from_dataset"] += stats["from_dataset"]
            tally["cells"] += len(cells)
        out.calibrate(8)
        out.peak_mib = tree_peak_mib(os.getpid())
        out.snapshot = METRICS.snapshot()
    finally:
        runner.close()
    tally["ops"] = out.attempted
    tally["op_wall_ns"] = sum(tally["job_wall_ns"])


def engine_long(seed, seconds, trace, out):
    """Every kernel on three engine columns, one ``repro run`` each."""
    from repro.arch import get_arch
    from repro.core.runner import ExperimentRunner, JobSpec
    from repro.obs.metrics import METRICS
    from repro.platform import get_platform
    from repro.sim.dbt.translator import TRANSLATION_MEMO

    out.probe = "spin"
    out.setup = [launch_ready("engine") for _ in range(SETUP_LAUNCHES)]
    if trace:
        tracing.install()
    reference = decks.load_reference()["cells"]
    out.tally["job_wall_ns"] = []
    METRICS.reset()
    for cell in decks.engine_deck(seed, seconds):
        benchmark, engine, arch, platform, iterations = cell
        # A fresh `repro run` process translates its code cold and
        # starts with an empty heap.
        TRANSLATION_MEMO.clear()
        gc.collect()
        out.calibrate()
        start = time.perf_counter_ns()
        spec = JobSpec(benchmark, engine, get_arch(arch), get_platform(platform), iterations)
        runner = ExperimentRunner(jobs=1)
        runner.run([spec])
        latency = time.perf_counter_ns() - start
        payload = runner.last_records[spec.execution_key()].to_payload()
        out.tally["job_wall_ns"].append(runner.last_jobs[0]["wall_ns"])
        out.latencies_ns.append(latency)
        out.wall_ns += latency
        out.attempted += 1
        out.failed += not matches(reference, cell, payload)
        out.add_cell(engine, payload)
    out.peak_mib = tree_peak_mib(os.getpid())
    out.snapshot = METRICS.snapshot()
    out.tally.update(ops=out.attempted, op_wall_ns=out.wall_ns)
    if trace:
        share = tracing.layer_table(out.snapshot, out.tally)["harness.run_share_of_op"]
        out.check(share >= 0.85, "harness.run is only %.1f%% of op wall time" % (100 * share))


def serve_mixed(seed, seconds, trace, out):
    """One closed-loop client: fresh submissions and their repeats."""
    from repro.exp.dataset import Dataset

    out.probe = "zero"
    for index in range(SETUP_LAUNCHES - 1):
        launch = Daemon(index)
        launch.stop()
        out.setup.append(launch.setup_s)
    dump = os.path.join(WORK, "serve-metrics.json") if trace else None
    daemon = Daemon(SETUP_LAUNCHES, dump=dump)
    out.setup.append(daemon.setup_s)
    client = daemon.client
    tally = out.tally
    tally.update(
        submit_ns=[], wait_ns=[], daemon_ns=[], job_wall_ns=[], appended=0, from_dataset=0, cells=0
    )
    done = []
    try:
        for grid in decks.serve_warmup_grids():
            done.append(("warm-up", grid, client.wait(client.submit(grid=grid)["job"])))
        if trace:
            daemon.reset_metrics()
        for kind, grid in decks.serve_deck(seed, seconds):
            if kind == "fresh":
                out.calibrate()
            start = time.perf_counter_ns()
            job = client.submit(grid=grid)["job"]
            submitted = time.perf_counter_ns()
            answer = client.wait(job)
            finished = time.perf_counter_ns()
            out.latencies_ns.append(finished - start)
            tally["submit_ns"].append(submitted - start)
            tally["wait_ns"].append(finished - submitted)
            summary = answer["job"]
            tally["daemon_ns"].append(summary["finished_ns"] - summary["submitted_ns"])
            done.append((kind, grid, answer))
        out.wall_ns = sum(out.latencies_ns)
        out.calibrate()
        out.peak_mib = tree_peak_mib(os.getpid())
    finally:
        daemon.stop()
    if trace:
        with open(dump, encoding="utf-8") as fh:
            out.snapshot = json.load(fh)

    reference = decks.load_reference()["cells"]
    dataset = Dataset(daemon.dataset_dir)
    records = {}
    for kind, grid, answer in done:
        summary, rows = answer["job"], answer["rows"]
        fresh = kind != "repeat"
        expected = decks.grid_cells(grid)
        source = "executed" if fresh else "dataset"
        ok = out.check(
            summary["state"] == "done"
            and summary["executed"] == (len(expected) if fresh else 0)
            and summary["from_dataset"] == (0 if fresh else len(expected))
            and [(row["benchmark"], row["engine"], row["arch"], row["platform"], row["iterations"]) for row in rows] == expected
            and all(row["source"] == source for row in rows),
            "%s submission of %s ran %d cells, %d from the dataset"
            % (kind, grid["benchmarks"][0], summary["executed"], summary["from_dataset"]),
        )
        for cell, row in zip(expected, rows):
            payload = records.get(row["cell_id"])
            if payload is None:
                stored = dataset.get(row["cell_id"])
                payload = records[row["cell_id"]] = stored["record"] if stored else {"status": "missing"}
            ok = matches(reference, cell, payload) and ok
            if kind == "fresh":
                out.add_cell(cell[1], payload)
                tally["job_wall_ns"].append(row["wall_ns"])
        if kind == "warm-up":
            out.check(ok, "warm-up submission of %s" % grid["benchmarks"][0])
            continue
        out.attempted += 1
        out.failed += not ok
        tally["appended"] += summary.get("dataset_appended", 0)
        tally["from_dataset"] += summary["from_dataset"]
        tally["cells"] += len(expected)
    tally.update(ops=out.attempted, op_wall_ns=sum(out.latencies_ns))


WORKLOADS = {
    "grid-cold": grid_cold,
    "engine-long": engine_long,
    "serve-mixed": serve_mixed,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program source under %s" % SRC, file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    out = Outcome()
    try:
        WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), out)
        wait_for_children()
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    if args.trace:
        values = tracing.layer_table(out.snapshot, out.tally)
        expected = decks.load_reference().get("exact", {})
        for name, value in expected.get("%s/%g" % (args.workload, args.seconds), {}).items():
            out.check(values[name] == value, "%s is %s, recorded %s" % (name, values[name], value))
    print("perfbench %s seed=%d seconds=%g trace=%d" % (args.workload, args.seed, args.seconds, args.trace))
    for line in out.report:
        print("  " + line)
    for problem in out.problems:
        print("  CHECK FAILED: " + problem)
    if args.trace:
        values["trace.ops_per_s"] = out.attempted / (out.wall_ns * out.host_scale() / 1e9)
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in values.items()}
        print("  layer totals (ms, whole timed region):")
        totals = tracing.layer_totals(out.snapshot)
        for name, value in sorted(totals.items(), key=lambda item: -item[1]):
            if not name.endswith(".self"):
                print("    %-36s %12.1f" % (name, value))
    else:
        metrics = {
            name: {"value": value, "unit": E2E_UNITS[name]}
            for name, value in out.end_to_end().items()
        }
    print(
        "  host probe %s: mean %.2f ms over %d samples, op times scaled by %.4f"
        % (out.probe, 1e3 * statistics.mean(out.probe_s), len(out.probe_s), out.host_scale())
    )
    print(
        "  unscaled: %d ops in %.3f s of op time, p50 %.2f ms, p90 %.2f ms"
        % (out.attempted, out.wall_ns / 1e9,
           tracing.percentile(out.latencies_ns, 50) / 1e6,
           tracing.percentile(out.latencies_ns, 90) / 1e6)
    )
    print("  setup launches (s): " + " ".join("%.4f" % value for value in out.setup))
    for name, metric in metrics.items():
        print("  %-36s %14.6g %s" % (name, metric["value"], metric["unit"]))
    result = {
        "correct": not out.problems and out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
