"""Bit-identical guest behaviour with every host fast path toggled.

The fast-path subsystem (predecoded block interpretation in the
interpreters, translation memoization in the DBT engine, the
persistent cross-run code cache) buys host wallclock only: guest-
visible counter deltas and modeled results must be bit-for-bit
identical with each layer on vs off, across the full 18-benchmark
suite on both arch profiles.  Self-modifying code must invalidate
predecoded block lists exactly as it invalidates the decode cache.
"""

import pytest

from repro.arch import ARM, get_arch
from repro.core import SUITE, Harness
from repro.isa.assembler import assemble
from repro.machine import Board
from repro.obs.metrics import METRICS
from repro.platform import VEXPRESS, get_platform
from repro.sim import DBTSimulator, FastInterpreter
from repro.sim.dbt import codestore
from repro.sim.dbt.translator import TRANSLATION_MEMO
from repro.sim.spec import spec_for
from tests.sim.util import run_asm

ITERATIONS = 2
_PLATFORM = {"arm": "vexpress", "x86": "pcplat"}
ARCH_NAMES = ("arm", "x86")
BENCH_IDS = [bench.name for bench in SUITE]


@pytest.fixture(scope="module")
def harness():
    # Shared across the module so benchmark programs build once.
    return Harness()


def _observe(harness, bench, arch_name, spec):
    """Everything guest-visible about one run: the execution record
    (minus host wallclock) and the modeled kernel time."""
    arch = get_arch(arch_name)
    platform = get_platform(_PLATFORM[arch_name])
    record = harness.execute_benchmark(
        bench, spec, arch, platform, iterations=ITERATIONS
    )
    payload = record.to_payload()
    payload.pop("kernel_wall_ns")
    result = harness.price_record(
        record, bench, spec, arch, platform, iterations=ITERATIONS
    )
    return payload, result.kernel_ns


@pytest.mark.parametrize("arch_name", ARCH_NAMES)
@pytest.mark.parametrize("bench", SUITE, ids=BENCH_IDS)
class TestToggleEquivalence:
    def test_interp_block_cache(self, harness, bench, arch_name):
        on = _observe(
            harness, bench, arch_name, spec_for("simit", use_block_cache=True)
        )
        off = _observe(
            harness, bench, arch_name, spec_for("simit", use_block_cache=False)
        )
        assert on == off

    def test_dbt_memoization(self, harness, bench, arch_name):
        TRANSLATION_MEMO.clear()
        on = _observe(harness, bench, arch_name, spec_for("qemu-dbt", memoize=True))
        TRANSLATION_MEMO.clear()
        off = _observe(harness, bench, arch_name, spec_for("qemu-dbt", memoize=False))
        assert on == off

    def test_dbt_opt_levels(self, harness, bench, arch_name):
        # The optimizer tier (peephole passes at 1, superblocks at 2)
        # rearranges host code only: every guest-visible counter and
        # the modeled time must be bit-identical across levels.
        TRANSLATION_MEMO.clear()
        base = _observe(harness, bench, arch_name, spec_for("qemu-dbt", opt_level=0))
        for level in (1, 2):
            TRANSLATION_MEMO.clear()
            opt = _observe(
                harness, bench, arch_name, spec_for("qemu-dbt", opt_level=level)
            )
            assert opt == base, "opt_level=%d diverged" % level

    def test_metrics_toggle(self, harness, bench, arch_name):
        # The observability layer records host-side phases/counters
        # only: guest-visible counters and modeled time must be
        # bit-identical with metrics enabled vs disabled, on both the
        # interpreter and the DBT engine.
        for sim in ("simit", "qemu-dbt"):
            spec = spec_for(sim)
            METRICS.reset()
            METRICS.enable(False)
            off = _observe(harness, bench, arch_name, spec)
            try:
                METRICS.enable()
                on = _observe(harness, bench, arch_name, spec)
            finally:
                METRICS.enable(False)
                METRICS.reset()
            assert on == off

    def test_dbt_persistent_store(self, harness, bench, arch_name, tmp_path):
        # memoize off forces every translate through the disk store.
        spec = spec_for("qemu-dbt", memoize=False)
        baseline = _observe(harness, bench, arch_name, spec)
        try:
            codestore.configure(str(tmp_path / "code"))
            cold = _observe(harness, bench, arch_name, spec)  # fills the store
            warm = _observe(harness, bench, arch_name, spec)  # loads from it
        finally:
            codestore.configure(None)
        assert cold == baseline
        assert warm == baseline


class TestHostFieldNeutrality:
    """Host-only knobs must not move structural identity: toggling
    them cannot change cache keys or dedup groups."""

    def test_interp_block_cache_is_host_only(self):
        on = spec_for("simit", use_block_cache=True)
        off = spec_for("simit", use_block_cache=False)
        assert on.structural_key() == off.structural_key()
        assert on.cache_key_payload() == off.cache_key_payload()
        assert on != off  # identity still distinguishes them

    def test_dbt_memoize_is_host_only(self):
        on = spec_for("qemu-dbt", memoize=True)
        off = spec_for("qemu-dbt", memoize=False)
        assert on.structural_key() == off.structural_key()
        assert on.cache_key_payload() == off.cache_key_payload()

    def test_dbt_opt_level_is_host_only(self):
        # opt_level changes how blocks are lowered, never what the
        # guest observes -- it must not split dedup groups or result
        # cache keys (it IS part of the translation/code-store key,
        # which tests/sim/test_dbt_opt.py covers).
        direct = spec_for("qemu-dbt", opt_level=0)
        traced = spec_for("qemu-dbt", opt_level=2)
        assert direct.structural_key() == traced.structural_key()
        assert direct.cache_key_payload() == traced.cache_key_payload()
        assert direct != traced


SMC_BODY = """
    movi r5, 20
outer:
    li r0, patchme
    li r1, 0
    str r1, [r0]          ; rewrite the nop with a nop
    bl patchme
    subi r5, r5, 1
    cmpi r5, 0
    bne outer
    halt #0
.page
patchme:
    nop
    addi r4, r4, 1
    br lr
"""

PATCH_BODY = """
    bl f                   ; predecode the original
    mov r6, r4
    li r0, f
    li r1, 0x19400002      ; movi r4, 2
    str r1, [r0]
    bl f
    halt #0
.page
f:
    movi r4, 1
    br lr
"""


LIMIT_BODY = """
    movi r5, 12
    li r3, 0x20000
loop:
    addi r2, r2, 3
    eori r2, r2, 0x55
    str r2, [r3]
    ldr r4, [r3]
    addi r3, r3, 4
    subi r5, r5, 1
    cmpi r5, 0
    bne loop
    halt #0
"""


class TestPredecodedBlockLimits:
    @pytest.mark.parametrize("step", [1, 2, 3, 5, 7])
    def test_instruction_limit_cuts_blocks_exactly(self, step):
        """Running in ``max_insns`` slices must stop the block runner at
        the same instruction, with the same state, as the plain loop."""
        program = assemble(".org 0x8000\n_start:\n    li sp, 0x100000\n" + LIMIT_BODY)
        traces = {}
        for flag in (False, True):
            board = Board(VEXPRESS)
            board.load(program)
            engine = FastInterpreter(board, arch=ARM, use_block_cache=flag)
            trace = []
            while not board.cpu.halted:
                result = engine.run(max_insns=step)
                trace.append(
                    (
                        result.exit_reason,
                        result.instructions,
                        board.cpu.pc,
                        list(board.cpu.regs),
                        engine.counters.snapshot(),
                    )
                )
            traces[flag] = trace
        assert traces[True] == traces[False]
        assert traces[True][-1][3][4] == traces[True][-1][3][2]


REPLAY_SMC_BODY = """
    li r0, 0x20000         ; passes 1-2 store to data: the blocks record
    li r11, 0x20000
    movi r5, 3
loop:
    li r1, 0x19400002      ; movi r4, 2
    str r1, [r0]           ; pass 3 (a replay) patches `target`
target:
    movi r4, 1
    add r6, r6, r4
    mov r0, r11
    li r11, target
    subi r5, r5, 1
    cmpi r5, 0
    bne loop
    halt #0
"""

REPLAY_IRQ_SOURCE = """
.org 0x4000
    b _start
    b bad
    b bad
    b bad
    b bad
    b irq_handler
.org 0x8000
_start:
    li sp, 0x100000
    li r0, 0x4000
    mcr r0, p15, c6
    li r1, 0xf0004004      ; INTC.ENABLE
    movi r2, 1
    str r2, [r1]
    cps #3                 ; kernel mode, IRQs on
    li r1, 0xf0004008      ; INTC.TRIGGER
    li r0, 0x20000         ; passes 1-2 store to data: the blocks record
    li r11, 0x20000
    movi r5, 4
loop:
    str r2, [r0]           ; passes 3-4 (replays) raise the IRQ
    addi r7, r7, 1         ; must retire after the IRQ is taken
    mov r0, r11
    mov r11, r1
    subi r5, r5, 1
    cmpi r5, 0
    bne loop
    cps #1
    halt #0
irq_handler:
    li r8, 0xf000400c      ; INTC.ACK
    movi r9, 1
    str r9, [r8]
    add r10, r10, r7
    sret
bad:
    halt #0xEE
"""


class TestPredecodedBlockReplayChecks:
    """A store in a replayed block can stale the rest of the block or
    raise an interrupt; replay must stop right after it, exactly where
    the plain loop re-fetches or takes the IRQ."""

    def _final_states(self, program):
        states = {}
        for flag in (False, True):
            board = Board(VEXPRESS)
            board.load(program)
            engine = FastInterpreter(board, arch=ARM, use_block_cache=flag)
            result = engine.run(max_insns=100_000)
            assert result.halted_ok
            states[flag] = (list(board.cpu.regs), engine.counters.snapshot())
        assert states[True] == states[False]
        return states[True]

    def test_store_patching_the_running_block(self):
        program = assemble(
            ".org 0x8000\n_start:\n    li sp, 0x100000\n" + REPLAY_SMC_BODY
        )
        regs, counters = self._final_states(program)
        assert regs[6] == 1 + 1 + 2
        assert counters["smc_invalidations"] >= 1

    def test_store_raising_an_interrupt_mid_block(self):
        regs, counters = self._final_states(assemble(REPLAY_IRQ_SOURCE))
        assert counters["irqs"] == 2
        assert regs[7] == 4
        assert regs[10] == 2 + 3


class TestPredecodedBlockInvalidation:
    def test_smc_counters_identical_with_blocks(self):
        runs = {}
        for flag in (False, True):
            engine, board, res = run_asm(
                FastInterpreter, SMC_BODY, use_block_cache=flag
            )
            assert res.halted_ok
            assert board.cpu.regs[4] == 20
            runs[flag] = engine.counters.snapshot()
        assert runs[True] == runs[False]
        assert runs[True]["smc_invalidations"] >= 19

    def test_modified_code_takes_effect_in_replay(self):
        # The store to `f` must drop the predecoded block so the
        # second call replays the *patched* instruction.
        for flag in (False, True):
            engine, board, res = run_asm(
                FastInterpreter, PATCH_BODY, use_block_cache=flag
            )
            assert res.halted_ok
            assert board.cpu.regs[6] == 1
            assert board.cpu.regs[4] == 2


class TestRetranslationCounter:
    def test_smc_rewrite_counts_retranslations(self):
        # Rewriting a nop with a nop re-creates byte-identical blocks:
        # after the first translation every one is a retranslation.
        engine, board, res = run_asm(DBTSimulator, SMC_BODY)
        assert res.halted_ok
        assert engine.counters.translations >= 20
        assert engine.counters.retranslations >= 18
        assert engine.counters.retranslations < engine.counters.translations

    def test_patched_block_is_not_a_retranslation(self):
        # Here the rewritten block has *different* bytes, so the
        # second translation of `f` is fresh, not a retranslation.
        engine, board, res = run_asm(DBTSimulator, PATCH_BODY)
        assert res.halted_ok
        assert engine.counters.retranslations == 0
