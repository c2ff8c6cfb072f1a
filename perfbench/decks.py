"""The work of each workload, as a pure function of the seed.

The seed only orders and deals a fixed set of grid cells; it never
changes which cells exist.  That keeps every count the benchmark calls
*exact* identical across seeds, and lets one reference file
(``reference.json``, written by ``record.py``) hold the expected guest
counter digest of every cell any run can execute.

A cell is a plain tuple ``(benchmark, engine, arch, platform,
iterations)`` whose engine is a registry name with default fields, so
the decks can be built without importing the program.
"""

import hashlib
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: The longest ``--seconds`` the reference covers (the contract's cap).
MAX_SECONDS = 60

# -- grid-cold ---------------------------------------------------------------
#: Executed cells in one Figure 7 pass (144 cells, 4 not applicable).
GRID_EXECUTED = 140
#: Measured wall time of one pooled pass on a 2-core host; sets how many
#: passes fill ``--seconds``.
GRID_PASS_SECONDS = 4.7

# -- engine-long -------------------------------------------------------------
ENGINE_COLUMNS = (
    ("qemu-dbt", "arm", "vexpress"),
    ("qemu-dbt", "x86", "pcplat"),
    ("simit", "arm", "vexpress"),
)
#: Iterations per kernel for each column of ENGINE_COLUMNS, calibrated so
#: every cell takes about 0.4 s, 0.36 s of it guest code, against about
#: 45 ms of set-up; equal cells keep the latency percentiles off any
#: single kernel.  ``None`` marks the one cell that does not execute
#: (Nonprivileged Access is not applicable on x86).
ENGINE_ITERATIONS = {
    "Small Blocks": (1500, 1600, 800),
    "Large Blocks": (6700, 4700, 470),
    "Inter-Page Direct": (13000, 12000, 5000),
    "Inter-Page Indirect": (7300, 8000, 4300),
    "Intra-Page Direct": (32000, 31000, 12000),
    "Intra-Page Indirect": (7900, 7900, 6600),
    "Data Access Fault": (13000, 11000, 7700),
    "Instruction Access Fault": (15000, 14000, 11000),
    "Undefined Instruction": (31000, 33000, 20000),
    "System Call": (35000, 36000, 23000),
    "External Software Interrupt": (13000, 12000, 6800),
    "Memory Mapped Device": (24000, 26000, 18000),
    "Coprocessor Access": (33000, 35000, 40000),
    "Cold Memory Access": (28000, 21000, 18000),
    "Hot Memory Access": (8900, 9000, 8100),
    "Nonprivileged Access": (18000, None, 16000),
    "TLB Eviction": (28000, 23000, 16000),
    "TLB Flush": (25000, 23000, 14000),
}
#: Measured wall time of one 53-cell deck on a 2-core host.
ENGINE_DECK_SECONDS = 22.0

# -- serve-mixed -------------------------------------------------------------
SERVE_COLUMNS = (("qemu-dbt", "arm", "vexpress"), ("simit", "arm", "vexpress"))
#: Cells per submission: one third of the 18-kernel suite.
SERVE_CELLS = 6
SERVE_WARM_ITERATIONS = 99
SERVE_BASE_ITERATIONS = 100
#: Repeat submissions after each fresh one.  About one repeat in eight
#: is slowed by the daemon's garbage collection; with four repeats per
#: fresh submission the median op sits at the repeats' 62nd percentile,
#: clear of that tail, and p90 at the middle of the fresh mode.
SERVE_REPEATS = 4
#: Measured wall time of one fresh submission plus its repeats.
SERVE_BLOCK_SECONDS = 0.32
#: At least 20 blocks, so every run has at least 100 ops.
SERVE_MIN_BLOCKS = 20


def suite_names():
    return list(ENGINE_ITERATIONS)


def cell_key(cell):
    return "|".join(str(part) for part in cell)


def digest(record_payload):
    """Digest of a cell's deterministic output: its status, kernel
    counter delta and total guest instruction count."""
    fields = {
        "status": record_payload["status"],
        "kernel_delta": record_payload.get("kernel_delta") or {},
        "total_instructions": record_payload.get("total_instructions") or 0,
    }
    blob = json.dumps(fields, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def load_reference():
    """``{"cells": {cell key: {status, digest}}, "exact": {"workload/seconds":
    {count: value}}}``."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- grid-cold ---------------------------------------------------------------
def grid_passes(seconds):
    return max(1, round(seconds / GRID_PASS_SECONDS))


def grid_pass_cells(base_cells, seed, pass_index):
    """One pass's cell order: the Figure 7 cells permuted by the seed."""
    order = list(base_cells)
    random.Random("grid-cold/%d/%d" % (seed, pass_index)).shuffle(order)
    return order


def grid_manifest_payload(cells, seed):
    """A manifest with one ``[[grid]]`` block per cell, in deck order, so
    ``run_manifest`` submits the cells in exactly that order."""
    return {
        "manifest": {"schema": 1, "name": "figure7-permuted", "seed": seed},
        "grid": [
            {
                "arch": arch,
                "platform": platform,
                "engines": [engine],
                "benchmarks": [benchmark],
                "iterations": iterations,
            }
            for benchmark, engine, arch, platform, iterations in cells
        ],
    }


# -- engine-long -------------------------------------------------------------
def engine_cells():
    cells = []
    for benchmark, per_column in ENGINE_ITERATIONS.items():
        for (engine, arch, platform), iterations in zip(ENGINE_COLUMNS, per_column):
            if iterations is not None:
                cells.append((benchmark, engine, arch, platform, iterations))
    return cells


def engine_deck(seed, seconds):
    """Every engine-long cell once per repetition, in seed order."""
    rng = random.Random("engine-long/%d" % seed)
    reps = max(1, round(seconds / ENGINE_DECK_SECONDS))
    deck = []
    for _ in range(reps):
        cells = engine_cells()
        rng.shuffle(cells)
        deck.extend(cells)
    return deck


# -- serve-mixed -------------------------------------------------------------
def serve_grid(index, iterations):
    """The ``index``-th (column, kernel third) pair as an ad-hoc grid."""
    names = suite_names()
    engine, arch, platform = SERVE_COLUMNS[index % len(SERVE_COLUMNS)]
    third = (index // len(SERVE_COLUMNS)) % 3
    return {
        "arch": arch,
        "platform": platform,
        "engines": [engine],
        "benchmarks": names[third * SERVE_CELLS : (third + 1) * SERVE_CELLS],
        "iterations": iterations,
    }


def serve_fresh_grid(index):
    """Fresh submission ``index``: its cells appear in no other fresh
    submission, because the iteration count grows every six."""
    return serve_grid(index, SERVE_BASE_ITERATIONS + index // 6)


def serve_warmup_grids():
    """Every (column, kernel) pair once, at an iteration count no timed
    submission uses: builds each guest program before timing starts."""
    return [serve_grid(index, SERVE_WARM_ITERATIONS) for index in range(6)]


def serve_blocks(seconds):
    return max(SERVE_MIN_BLOCKS, round(seconds / SERVE_BLOCK_SECONDS))


def serve_deck(seed, seconds):
    """``[(kind, grid)]``: blocks of one fresh submission followed by
    SERVE_REPEATS resubmissions of fresh ones already done.

    The fresh submissions and their order are fixed by ``seconds``, so
    the daemon allocates guest RAM in the same sequence on every run;
    the seed deals the repeats, picking which earlier fresh submission
    each one resubmits.  One client keeps one submission outstanding, so
    the fresh/repeat split of every op is known before it is sent.
    """
    rng = random.Random("serve-mixed/%d" % seed)
    deck = []
    done = []
    for index in range(serve_blocks(seconds)):
        grid = serve_fresh_grid(index)
        deck.append(("fresh", grid))
        done.append(grid)
        for _ in range(SERVE_REPEATS):
            deck.append(("repeat", rng.choice(done)))
    return deck


def grid_cells(grid):
    return [
        (benchmark, grid["engines"][0], grid["arch"], grid["platform"], grid["iterations"])
        for benchmark in grid["benchmarks"]
    ]


def serve_cells():
    """Every cell a serve-mixed run with ``seconds <= MAX_SECONDS`` can
    execute."""
    cells = []
    for grid in serve_warmup_grids():
        cells.extend(grid_cells(grid))
    for index in range(serve_blocks(MAX_SECONDS)):
        cells.extend(grid_cells(serve_fresh_grid(index)))
    return cells
