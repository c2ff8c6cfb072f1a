"""Wall-clock engine benchmarks (pytest-benchmark proper).

Unlike the figure benches (which use deterministic modeled time),
these measure how fast the *engines themselves* execute guest code on
this host -- the genuinely structural comparison: the DBT engine runs
compiled Python per block, the fast interpreter dispatches per
instruction (or replays predecoded blocks), and the detailed
interpreter does an order of magnitude more bookkeeping per
instruction.

Three guest kernels stress the three hot paths:

- ``hot-loop``  -- ALU-bound straight-line loop (dispatch cost);
- ``mem-loop``  -- load/store-bound loop walking a buffer (the
  ``_mem_read``/``_mem_write`` fast path);
- ``exc-loop``  -- SWI-per-iteration loop through a real vector table
  (exception entry/return, which predecoded blocks must not break).

Besides the per-engine matrix, two tracked speedups gate the fast-path
work: the fast interpreter with predecoded blocks vs the same engine
with them disabled (floor: 2x on ``hot-loop``), and a warm vs cold DBT
sweep through the persistent code cache (floor: 3x).  A third tracked
split runs ``hot-loop`` with the observability layer disabled vs
enabled (ceiling: 5% overhead enabled, guest counters bit-identical).
A fourth matrix runs every kernel on the DBT engine at each optimizer
level (``opt_level`` 0/1/2) with guest counters asserted bit-identical
across levels; the optimized lowering must not lose to the direct
emitter on ``hot-loop``.
The standalone entry point emits ``BENCH_engines.json`` at the repo
root (same shape as ``BENCH_runner.json``); all runs assert counters
are bit-identical across the toggles.

Runnable standalone::

    PYTHONPATH=src python benchmarks/bench_engine_wallclock.py [--quick]
"""

import json
import os
import pathlib
import tempfile
import time

import pytest

from repro.arch import ARM
from repro.core import Harness, get_benchmark
from repro.isa.assembler import assemble
from repro.machine import Board
from repro.platform import VEXPRESS
from repro.obs.metrics import METRICS
from repro.sim import DBTSimulator, DetailedInterpreter, FastInterpreter
from repro.sim.dbt import DBTConfig, codestore
from repro.sim.dbt.translator import TRANSLATION_MEMO

REPO_ROOT = pathlib.Path(__file__).parent.parent

HOT_LOOP_ITERS = 20_000
MEM_LOOP_OUTER = 300
EXC_LOOP_ITERS = 8_000
UNROLLED_INSNS = 6_000

HOT_LOOP = """
.org 0x8000
_start:
    li sp, 0x100000
    li r1, %d
loop:
    addi r2, r2, 3
    eori r2, r2, 0x55
    subi r1, r1, 1
    cmpi r1, 0
    bne loop
    halt #0
"""

MEM_LOOP = """
.org 0x8000
_start:
    li sp, 0x100000
    li r1, %d
outer:
    li r3, 0x20000
    li r5, 64
inner:
    str r2, [r3]
    ldr r4, [r3, #4]
    str r4, [r3, #8]
    ldr r2, [r3, #12]
    addi r3, r3, 16
    subi r5, r5, 1
    cmpi r5, 0
    bne inner
    subi r1, r1, 1
    cmpi r1, 0
    bne outer
    halt #0
"""

EXC_LOOP = """
.org 0x4000
    b _start          ; RESET
    b other_handler   ; UNDEF
    b swi_handler     ; SWI
    b other_handler   ; PREFETCH_ABORT
    b other_handler   ; DATA_ABORT
    b other_handler   ; IRQ
.org 0x8000
_start:
    li sp, 0x100000
    li r0, 0x4000
    mcr r0, p15, c6
    li r1, %d
loop:
    swi #1
    subi r1, r1, 1
    cmpi r1, 0
    bne loop
    halt #0
swi_handler:
    addi r2, r2, 1
    sret
other_handler:
    halt #0xEE
"""


def kernels(scale=1):
    """The three guest kernels at 1/scale of their full iteration
    counts (quick mode uses scale=4)."""
    return {
        "hot-loop": HOT_LOOP % max(HOT_LOOP_ITERS // scale, 1000),
        "mem-loop": MEM_LOOP % max(MEM_LOOP_OUTER // scale, 20),
        "exc-loop": EXC_LOOP % max(EXC_LOOP_ITERS // scale, 500),
    }


def unrolled_program(n_insns=UNROLLED_INSNS):
    """A straight-line program of ``n_insns`` distinct instructions,
    each executed exactly once: translation cost dominates, which is
    what the persistent code cache amortizes across sweep processes."""
    body = []
    for i in range(n_insns):
        if i % 2:
            body.append("    eori r2, r2, 0x%x" % (1 + i % 251))
        else:
            body.append("    addi r3, r3, %d" % (1 + i % 63))
    return (
        ".org 0x8000\n_start:\n    li sp, 0x100000\n"
        + "\n".join(body)
        + "\n    halt #0\n"
    )


_ENGINES = {
    "qemu-dbt": DBTSimulator,
    "simit": FastInterpreter,
    "gem5": DetailedInterpreter,
}


def _run_engine(engine_cls, program, max_insns=2_000_000, **kwargs):
    board = Board(VEXPRESS)
    board.load(program)
    engine = engine_cls(board, arch=ARM, **kwargs)
    t0 = time.perf_counter()
    result = engine.run(max_insns=max_insns)
    seconds = time.perf_counter() - t0
    assert result.halted_ok, result
    return engine, seconds


def run_engine_matrix(scale=1):
    """Wall-clock seconds for every engine on every kernel."""
    matrix = {}
    for kernel_name, source in kernels(scale).items():
        program = assemble(source)
        row = {}
        for engine_name, engine_cls in _ENGINES.items():
            engine, seconds = _run_engine(engine_cls, program)
            row[engine_name] = {
                "seconds": seconds,
                "instructions": engine.counters.instructions,
                "mips": engine.counters.instructions / seconds / 1e6,
            }
        matrix[kernel_name] = row
    return matrix


def run_interp_block_split(scale=1, rounds=5):
    """Fast interpreter with predecoded blocks vs without, on the hot
    loop; counters must be bit-identical, wallclock must not be.

    One warm-up pass, then ``rounds`` interleaved rounds (the two modes
    alternate within each round, min taken per mode) so a host-load
    drift hits both modes equally.
    """
    program = assemble(kernels(scale)["hot-loop"])
    _run_engine(FastInterpreter, program)  # warm-up, not timed
    timings = {False: [], True: []}
    snapshots = {}
    for _ in range(rounds):
        for use_block_cache in timings:
            engine, seconds = _run_engine(
                FastInterpreter, program, use_block_cache=use_block_cache
            )
            timings[use_block_cache].append(seconds)
            snapshots[use_block_cache] = engine.counters.snapshot()
    assert (
        snapshots[False] == snapshots[True]
    ), "predecoded blocks changed guest-visible counters"
    base_seconds = min(timings[False])
    fast_seconds = min(timings[True])
    return {
        "baseline_seconds": base_seconds,
        "block_seconds": fast_seconds,
        "speedup": base_seconds / fast_seconds,
        "instructions": snapshots[True]["instructions"],
        "identical_counters": True,
    }


def run_dbt_code_cache_sweep(scale=1, rounds=5):
    """Cold vs warm pass over a translation-heavy program through the
    persistent code cache.

    ``TRANSLATION_MEMO`` is cleared before each pass so every pass
    behaves like a fresh sweep process: the cold pass lowers and
    compiles every block (filling the store), the warm pass loads the
    marshalled code objects back instead.  Each round runs a cold and
    a warm pass against a fresh, empty store; the first round is a
    warm-up and is not timed, and the min over ``rounds`` timed rounds
    is taken per mode so a host-load drift hits both modes equally.
    """
    program = assemble(unrolled_program(max(UNROLLED_INSNS // scale, 1500)))
    timings = {"cold": [], "warm": []}
    snapshots = {}
    for round_index in range(rounds + 1):
        with tempfile.TemporaryDirectory() as cache_dir:
            try:
                store = codestore.configure(cache_dir)
                for mode in timings:
                    TRANSLATION_MEMO.clear()
                    engine, seconds = _run_engine(DBTSimulator, program)
                    if round_index:
                        timings[mode].append(seconds)
                    snapshots[mode] = engine.counters.snapshot()
                stats = store.stats()
            finally:
                codestore.configure(None)
        assert stats["hits"] > 0, "warm pass never hit the code cache"
    assert (
        snapshots["cold"] == snapshots["warm"]
    ), "persistent code cache changed guest-visible counters"
    cold_seconds = min(timings["cold"])
    warm_seconds = min(timings["warm"])
    return {
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds,
        "instructions": snapshots["warm"]["instructions"],
        "store_stats": {
            key: stats[key]
            for key in ("entries", "bytes", "hits", "misses", "stores", "quarantined")
        },
        "identical_counters": True,
    }


def run_dbt_opt_matrix(scale=1, rounds=3):
    """Every kernel on the DBT engine at each optimizer level.

    Levels are interleaved within each round (min taken per level) so
    host-load drift hits all of them equally; the translation memo is
    cleared before every pass so each level pays its own lowering.
    Guest counters must be bit-identical across levels -- the tier
    optimizes host code only.
    """
    matrix = {}
    for kernel_name, source in kernels(scale).items():
        program = assemble(source)
        timings = {level: [] for level in (0, 1, 2)}
        snapshots = {}
        for _ in range(rounds):
            for level in timings:
                TRANSLATION_MEMO.clear()
                engine, seconds = _run_engine(
                    DBTSimulator, program, config=DBTConfig(opt_level=level)
                )
                timings[level].append(seconds)
                snapshots[level] = engine.counters.snapshot()
        assert snapshots[0] == snapshots[1] == snapshots[2], (
            "optimizer tier changed guest-visible counters on %s" % kernel_name
        )
        instructions = snapshots[0]["instructions"]
        matrix[kernel_name] = {
            "opt%d" % level: {
                "seconds": min(times),
                "mips": instructions / min(times) / 1e6,
            }
            for level, times in timings.items()
        }
        matrix[kernel_name]["identical_counters"] = True
    return matrix


def run_metrics_overhead_split(scale=1, rounds=5):
    """Hot interpreter kernel with the observability layer disabled vs
    enabled: one warm-up pass, then ``rounds`` interleaved rounds (the
    two modes alternate within each round, min taken per mode, so a
    host-load drift hits both modes equally).

    The per-instruction dispatch loop carries no instrumentation at
    all -- only decode misses and TLB walks check ``METRICS.enabled``
    -- so even the *enabled* overhead must stay small on this kernel,
    and the disabled overhead (what every normal run pays) is bounded
    above by it.  Guest counters must be bit-identical either way.
    """
    program = assemble(kernels(scale)["hot-loop"])
    _run_engine(FastInterpreter, program)  # warm-up, not timed
    timings = {"disabled": [], "enabled": []}
    snapshots = {}
    try:
        for _ in range(rounds):
            for mode, enabled in (("disabled", False), ("enabled", True)):
                METRICS.reset()
                METRICS.enable(enabled)
                engine, seconds = _run_engine(FastInterpreter, program)
                METRICS.enable(False)
                timings[mode].append(seconds)
                snapshots[mode] = engine.counters.snapshot()
    finally:
        METRICS.enable(False)
        METRICS.reset()
    assert (
        snapshots["disabled"] == snapshots["enabled"]
    ), "metrics layer changed guest-visible counters"
    disabled = min(timings["disabled"])
    enabled = min(timings["enabled"])
    return {
        "disabled_seconds": disabled,
        "enabled_seconds": enabled,
        "overhead_pct": (enabled - disabled) / disabled * 100.0,
        "instructions": snapshots["enabled"]["instructions"],
        "identical_counters": True,
    }


def run_all(scale=1):
    return {
        "scale": scale,
        "cpu_count": os.cpu_count(),
        "engines": run_engine_matrix(scale),
        "interp_block_cache": run_interp_block_split(scale),
        "dbt_code_cache": run_dbt_code_cache_sweep(scale),
        "dbt_opt_levels": run_dbt_opt_matrix(scale),
        "metrics_overhead": run_metrics_overhead_split(scale),
    }


# ---------------------------------------------------------------- pytest


@pytest.mark.parametrize("engine_name", list(_ENGINES), ids=list(_ENGINES))
@pytest.mark.parametrize("kernel_name", ["hot-loop", "mem-loop", "exc-loop"])
def test_engine_kernel_wallclock(benchmark, engine_name, kernel_name):
    """Host time to retire one kernel on one engine."""
    program = assemble(kernels()[kernel_name])

    def run():
        engine, _seconds = _run_engine(_ENGINES[engine_name], program)
        return engine.counters.instructions

    insns = benchmark(run)
    assert insns > 10_000


@pytest.mark.parametrize("opt_level", [0, 1, 2], ids=["opt0", "opt1", "opt2"])
@pytest.mark.parametrize("kernel_name", ["hot-loop", "mem-loop", "exc-loop"])
def test_dbt_opt_level_wallclock(benchmark, kernel_name, opt_level):
    """Host time per kernel at each DBT optimizer level."""
    program = assemble(kernels()[kernel_name])

    def run():
        TRANSLATION_MEMO.clear()
        engine, _seconds = _run_engine(
            DBTSimulator, program, config=DBTConfig(opt_level=opt_level)
        )
        return engine.counters.instructions

    insns = benchmark(run)
    assert insns > 10_000


@pytest.mark.parametrize("engine_name", ["qemu-dbt", "simit"], ids=["qemu-dbt", "simit"])
def test_engine_smc_workload_wallclock(benchmark, engine_name):
    """Host time for the Small Blocks benchmark: the DBT engine pays
    real retranslation cost here, the interpreter does not."""
    harness = Harness()
    bench = get_benchmark("Small Blocks")

    def run():
        result = harness.run_benchmark(bench, engine_name, ARM, VEXPRESS, iterations=40)
        assert result.ok
        return result.kernel_wall_ns

    benchmark(run)


def test_engines_tracked_trajectory(benchmark):
    """The tracked artifact: full matrix plus the two gated speedups."""
    payload = benchmark.pedantic(run_all, rounds=1, iterations=1)
    text = json.dumps(payload, indent=2) + "\n"
    print()
    print(text)
    assert payload["interp_block_cache"]["speedup"] >= 2.0
    assert payload["dbt_code_cache"]["speedup"] >= 3.0
    assert payload["metrics_overhead"]["identical_counters"]
    assert all(row["identical_counters"] for row in payload["dbt_opt_levels"].values())


# ------------------------------------------------------------ standalone


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI mode: quarter-size kernels, same floors",
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_engines.json"),
        help="where to write the JSON artifact (default: repo root)",
    )
    args = parser.parse_args(argv)
    payload = run_all(scale=4 if args.quick else 1)
    text = json.dumps(payload, indent=2) + "\n"
    path = pathlib.Path(args.output)
    path.write_text(text)
    print(text)
    print("wrote %s" % path)
    failures = []
    if payload["interp_block_cache"]["speedup"] < 2.0:
        failures.append(
            "interpreter block-cache speedup %.2fx is below the 2x floor"
            % payload["interp_block_cache"]["speedup"]
        )
    if payload["dbt_code_cache"]["speedup"] < 3.0:
        failures.append(
            "DBT code-cache warm speedup %.2fx is below the 3x floor"
            % payload["dbt_code_cache"]["speedup"]
        )
    if payload["metrics_overhead"]["overhead_pct"] > 5.0:
        failures.append(
            "metrics-enabled overhead %.2f%% on the hot interpreter kernel "
            "exceeds the 5%% ceiling"
            % payload["metrics_overhead"]["overhead_pct"]
        )
    hot_opt = payload["dbt_opt_levels"]["hot-loop"]
    if hot_opt["opt2"]["seconds"] > hot_opt["opt0"]["seconds"]:
        failures.append(
            "DBT opt_level=2 is slower than the direct emitter on hot-loop "
            "(%.4fs vs %.4fs)"
            % (hot_opt["opt2"]["seconds"], hot_opt["opt0"]["seconds"])
        )
    if failures:
        raise SystemExit("; ".join(failures))


if __name__ == "__main__":
    main()
