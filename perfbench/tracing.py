"""Layer spans for the traced run, recorded from outside the program.

``install()`` wraps public functions of each layer with a timer that
feeds the program's own metrics registry (``repro.obs.metrics.METRICS``)
under a ``pb.`` prefix: phase ``pb.<span>`` holds the calls' wall time
and ``pb.<span>.self`` the part not covered by a nested span.  Pool
workers inherit the wrappers through fork, and the runner already ships
their registry snapshots back to the parent, so one snapshot in the
measuring process covers the whole tree.  The program's own phases
(``harness.*``, ``dbt.*``, ``funccore.*``, ``runner.*``, ``serve.*``)
are read from the same registry.

``layer_table()`` turns a snapshot plus the workload's own tallies into
the per-layer metrics named in BENCHMARK.json.
"""

import threading
import time

#: (module, attribute path, span name).  A span name ending in "." is
#: completed with the class name of the instance the method runs on.
SPANS = (
    ("repro.exp.manifest", "Manifest.__init__", "exp.expand"),
    ("repro.exp.resolver", "DatasetResolver.run", "exp.resolve"),
    ("repro.exp.dataset", "Dataset.get", "exp.dataset_get"),
    ("repro.exp.dataset", "Dataset.append", "exp.dataset_append"),
    ("repro.exp.provenance", "capture", "exp.provenance"),
    ("repro.storage", "DirectoryStore.fold_totals", "storage.fold_totals"),
    ("repro.core.runner", "ExperimentRunner.run", "runner.run"),
    ("repro.core.harness", "Harness.build_program", "harness.build_program"),
    ("repro.core.benchmark", "Benchmark.build", "harness.program_build"),
    ("repro.core.harness", "Harness.price_record", "harness.price"),
    ("repro.machine.board", "Board.__init__", "machine.board"),
    ("repro.machine.mmu", "PageTableWalker.walk", "machine.ptw_walk"),
    ("repro.sim.spec", "EngineSpec.build", "sim.build"),
    ("repro.sim.dbt.engine", "DBTSimulator.run", "sim.run."),
    ("repro.sim.funccore", "FunctionalCore.run", "sim.run."),
    ("repro.sim.dbt.translator", "TranslationMemo.get", "dbt.memo_get"),
)

#: Per-layer counts that must repeat exactly across runs and seeds:
#: they count work the deck fixes (cells, rows, slices) or guest events.
EXACT = (
    "serve.slices",
    "exp.dataset_gets",
    "exp.dataset_appends",
    "exp.dataset_hit_ratio",
    "machine.boards",
    "sim.guest_insns",
    "dbt.translations",
    "dbt.tlb_misses",
    "dbt.chain_patches",
    "dbt.side_exits",
    "funccore.exceptions",
)

_stack = threading.local()


def _wrap(func, name, metrics):
    by_class = name.endswith(".")

    def span(*args, **kwargs):
        frames = getattr(_stack, "frames", None)
        if frames is None:
            frames = _stack.frames = []
        frames.append(0)
        start = time.perf_counter_ns()
        result = None
        try:
            result = func(*args, **kwargs)
            return result
        finally:
            elapsed = time.perf_counter_ns() - start
            child = frames.pop()
            if frames:
                frames[-1] += elapsed
            label = name + type(args[0]).__name__ if by_class else name
            metrics.add_phase_ns("pb." + label, elapsed)
            metrics.add_phase_ns("pb." + label + ".self", elapsed - child)
            if result is not None and label == "dbt.memo_get":
                metrics.inc("pb.dbt.memo_hits")

    span.__wrapped__ = func
    return span


def install():
    """Wrap every span in SPANS (idempotent) and enable the registry."""
    import importlib

    from repro.obs.metrics import METRICS

    for module_name, path, name in SPANS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        # Look the function up on the owner itself: Dataset.get is
        # inherited, and wrapping it on Dataset leaves the other stores
        # untouched.
        func = getattr(owner, attr)
        if getattr(func, "__wrapped__", None) is None:
            setattr(owner, attr, _wrap(func, name, METRICS))
    METRICS.enable()


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_table(snapshot, tally):
    """Per-layer metrics from a registry snapshot and the workload's tally.

    ``tally`` holds what the workload measured itself: ``ops``,
    ``op_wall_ns`` (summed op latency, or summed job wall on a pooled
    grid), client-side serve latencies (``submit_ns``, ``wait_ns``,
    ``daemon_ns``), the runner's job rows (``job_wall_ns``,
    ``queue_wait_ns``), exact sums of the executed cells' kernel counter
    deltas (``kernel``), guest instructions by engine
    (``insns_by_engine``), dataset and pool stats, and ``outside_spans``:
    spans that run outside any op (the parent side of a pooled grid),
    left out of ``unattributed_ms``.

    ``*_ms`` values are per call: p50 (and p90 where named) for the
    latencies the benchmark sees itself, the mean for spans in the
    registry, which keeps only counts and totals.
    """
    phases = snapshot.get("phases", {})
    counters = snapshot.get("counters", {})

    def total_ms(name):
        return phases.get(name, {}).get("total_ns", 0) / 1e6

    def count(name):
        return phases.get(name, {}).get("count", 0)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def mean_ms(name, calls=None):
        return ratio(total_ms(name), count(name) if calls is None else calls)

    def p_ms(values, q):
        return percentile(values, q) / 1e6 if values else 0.0

    kernel = tally.get("kernel", {})
    insns = tally.get("insns_by_engine", {})
    op_wall_ms = tally.get("op_wall_ns", 0) / 1e6
    dbt_runs = count("pb.sim.run.DBTSimulator")
    dbt_run = total_ms("pb.sim.run.DBTSimulator")
    # Every other engine is a FunctionalCore (simit, gem5, native, kvm).
    core_spans = [
        name
        for name in phases
        if name.startswith("pb.sim.run.")
        and not name.endswith((".self", ".DBTSimulator"))
    ]
    core_runs = sum(count(name) for name in core_spans)
    core_run = sum(total_ms(name) for name in core_spans)
    setup = total_ms("harness.setup")
    run = total_ms("harness.run")
    builds = count("pb.harness.build_program")
    outside = set(tally.get("outside_spans", ()))
    attributed = sum(
        value["total_ns"] / 1e6
        for name, value in phases.items()
        if name.startswith("pb.")
        and name.endswith(".self")
        and name[3 : -len(".self")] not in outside
    )
    return {
        "serve.submit_ms": p_ms(tally.get("submit_ns"), 50),
        "serve.wait_ms": p_ms(tally.get("wait_ns"), 50),
        "serve.wait_p90_ms": p_ms(tally.get("wait_ns"), 90),
        "serve.daemon_ms": p_ms(tally.get("daemon_ns"), 50),
        "serve.daemon_p90_ms": p_ms(tally.get("daemon_ns"), 90),
        "serve.slices": counters.get("serve.slices", 0),
        "exp.expand_ms": mean_ms("pb.exp.expand"),
        "exp.resolve_self_ms": mean_ms("pb.exp.resolve.self"),
        "exp.dataset_get_ms": mean_ms("pb.exp.dataset_get"),
        "exp.dataset_gets": count("pb.exp.dataset_get"),
        "exp.dataset_append_ms": mean_ms("pb.exp.dataset_append"),
        "exp.dataset_appends": tally.get("appended", 0),
        "exp.provenance_ms": mean_ms("pb.exp.provenance"),
        "exp.dataset_hit_ratio": ratio(tally.get("from_dataset", 0), tally.get("cells", 0)),
        "storage.fold_totals_ms": mean_ms("pb.storage.fold_totals"),
        "runner.run_self_ms": ratio(
            total_ms("pb.runner.run")
            - total_ms("runner.job_wall") / tally.get("workers", 1),
            count("pb.runner.run"),
        ),
        "runner.job_wall_ms": p_ms(tally.get("job_wall_ns"), 50),
        "runner.job_wall_p90_ms": p_ms(tally.get("job_wall_ns"), 90),
        "runner.queue_wait_ms": p_ms(tally.get("queue_wait_ns"), 50),
        "runner.chunks": tally.get("chunks", 0),
        "runner.chunk_size": tally.get("chunk_size", 0),
        "runner.payload_bytes": counters.get("runner.payload_bytes", 0),
        "runner.worker_lost": tally.get("worker_lost", 0),
        "runner.retried": tally.get("retried", 0),
        "harness.build_program_ms": mean_ms("pb.harness.build_program"),
        "harness.program_cache_hit_ratio": ratio(
            builds - count("pb.harness.program_build"), builds
        ),
        "harness.setup_ms": mean_ms("harness.setup"),
        "harness.run_ms": mean_ms("harness.run"),
        "harness.price_ms": mean_ms("harness.price"),
        "harness.setup_share": ratio(setup, setup + run),
        "harness.run_share_of_op": ratio(run, op_wall_ms),
        "machine.board_ms": mean_ms("pb.machine.board"),
        "machine.boards": count("pb.machine.board"),
        "machine.ptw_walk_us": mean_ms("pb.machine.ptw_walk") * 1e3,
        "machine.ptw_walks": count("pb.machine.ptw_walk"),
        "sim.build_ms": mean_ms("pb.sim.build"),
        "sim.guest_insns": sum(insns.values()),
        "sim.mips.qemu-dbt": ratio(insns.get("qemu-dbt", 0), dbt_run * 1e3),
        "sim.mips.simit": ratio(
            insns.get("simit", 0), total_ms("pb.sim.run.FastInterpreter") * 1e3
        ),
        "dbt.translate_ms": mean_ms("dbt.translate"),
        "dbt.translations": kernel.get("translations", 0),
        "dbt.memo_hit_ratio": ratio(
            counters.get("pb.dbt.memo_hits", 0), count("pb.dbt.memo_get")
        ),
        "dbt.exec_self_ms": ratio(
            dbt_run - total_ms("dbt.translate") - total_ms("dbt.tlb_walk"), dbt_runs
        ),
        "dbt.tlb_misses": kernel.get("tlb_misses", 0),
        "dbt.chain_patches": counters.get("dbt.chain_patches", 0),
        "dbt.side_exits": counters.get("dbt.side_exits", 0),
        "funccore.decode_ms": mean_ms("funccore.decode", core_runs),
        "funccore.exec_self_ms": ratio(
            core_run - total_ms("funccore.decode") - total_ms("funccore.tlb_walk"),
            core_runs,
        ),
        "funccore.exceptions": counters.get("funccore.exceptions", 0),
        "unattributed_ms": ratio(op_wall_ms - attributed, tally.get("ops", 0)),
    }


def layer_totals(snapshot):
    """``{layer: total ms}`` of every span and program phase, for the
    human-readable table: which layer the time went to."""
    return {
        name: value["total_ns"] / 1e6
        for name, value in sorted(snapshot.get("phases", {}).items())
    }
