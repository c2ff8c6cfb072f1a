"""DBT optimizer-tier tests: IR passes, superblocks, key hygiene.

Two kinds of guarantees live here:

- each peephole pass fires on its golden shape and provably does NOT
  fire when its safety precondition fails;
- the optimizer tier never leaks across cache identities (translation
  memo, persistent code store) and never changes guest counters, even
  through superblock side exits, SMC invalidation, and run limits.
"""

import inspect

import pytest

from repro.isa.assembler import assemble
from repro.isa.decoder import decode
from repro.isa.encoding import Cond, Op, encode
from repro.machine import Board
from repro.platform import VEXPRESS
from repro.sim import DBTSimulator
from repro.sim.dbt import DBTConfig
from repro.sim.dbt import codestore
from repro.sim.dbt.ir import lift_block
from repro.sim.dbt.passes import (
    eliminate_dead_flags,
    eliminate_dead_stores,
    fold_constants,
    fuse_pairs,
)
from repro.sim.dbt.translator import TRANSLATION_MEMO, Translator
from tests.sim.util import run_asm


def lift(words, vaddr=0x8000):
    """Hand-built IR: encoded words -> lifted nodes."""
    return lift_block([decode(word) for word in words], vaddr)


class TestFoldConstants:
    def test_movi_chain_folds_alu(self):
        nodes = lift(
            [
                encode(Op.MOVI, rd=0, imm=6),
                encode(Op.MOVI, rd=1, imm=7),
                encode(Op.ADD, rd=2, rn=0, rm=1),
                encode(Op.HALT),
            ]
        )
        assert fold_constants(nodes) == 3
        assert nodes[2].const_value == 13

    def test_movt_extends_known_immediate(self):
        nodes = lift(
            [
                encode(Op.MOVI, rd=0, imm=0x1234),
                encode(Op.MOVT, rd=0, imm=0xDEAD),
                encode(Op.HALT),
            ]
        )
        fold_constants(nodes)
        assert nodes[1].const_value == 0xDEAD1234

    def test_unknown_operand_must_not_fold(self):
        # A load's result is runtime data: nothing downstream may fold.
        nodes = lift(
            [
                encode(Op.LDR, rd=0, rn=1),
                encode(Op.ADDI, rd=2, rn=0, imm=1),
                encode(Op.HALT),
            ]
        )
        assert fold_constants(nodes) == 0
        assert all(node.const_value is None for node in nodes)

    def test_fold_mirrors_runtime_semantics(self):
        # Shift amounts are masked to 5 bits and division by zero
        # yields 0, exactly as the emitted Python computes them.
        nodes = lift(
            [
                encode(Op.MOVI, rd=0, imm=1),
                encode(Op.LSLI, rd=1, rn=0, imm=33),  # shift amount & 31
                encode(Op.MOVI, rd=2, imm=0),
                encode(Op.UDIV, rd=3, rn=0, rm=2),  # div by zero -> 0
                encode(Op.HALT),
            ]
        )
        fold_constants(nodes)
        assert nodes[1].const_value == 2
        assert nodes[3].const_value == 0


class TestDeadFlagElimination:
    def test_overwritten_cmp_dies(self):
        nodes = lift(
            [
                encode(Op.CMP, rn=0, rm=1),
                encode(Op.CMPI, rn=2, imm=0),
                encode(Op.B, imm=2, cond=Cond.EQ),
            ]
        )
        assert eliminate_dead_flags(nodes) == 1
        assert nodes[0].dead
        assert not nodes[1].dead

    def test_read_flags_must_not_die(self):
        nodes = lift(
            [
                encode(Op.CMP, rn=0, rm=1),
                encode(Op.B, imm=2, cond=Cond.NE),
            ]
        )
        assert eliminate_dead_flags(nodes) == 0

    def test_observation_point_keeps_flags_live(self):
        # The store may fault; the fault handler observes the flags the
        # first CMP wrote, so it must survive the overwrite after it.
        nodes = lift(
            [
                encode(Op.CMP, rn=0, rm=1),
                encode(Op.STR, rd=2, rn=3),
                encode(Op.CMPI, rn=2, imm=0),
                encode(Op.B, imm=2, cond=Cond.EQ),
            ]
        )
        assert eliminate_dead_flags(nodes) == 0


class TestDeadStoreElimination:
    def test_overwritten_def_dies(self):
        nodes = lift(
            [
                encode(Op.MOVI, rd=0, imm=1),
                encode(Op.MOVI, rd=0, imm=2),
                encode(Op.HALT),
            ]
        )
        assert eliminate_dead_stores(nodes) == 1
        assert nodes[0].dead
        assert not nodes[1].dead

    def test_read_before_overwrite_must_not_die(self):
        nodes = lift(
            [
                encode(Op.MOVI, rd=0, imm=1),
                encode(Op.STR, rd=0, rn=1),  # reads r0 (and may fault)
                encode(Op.MOVI, rd=0, imm=2),
                encode(Op.HALT),
            ]
        )
        assert eliminate_dead_stores(nodes) == 0


class TestPairFusion:
    def test_addi_feeding_load_fuses(self):
        nodes = lift(
            [
                encode(Op.ADDI, rd=1, rn=1, imm=4),
                encode(Op.LDR, rd=0, rn=1),
                encode(Op.HALT),
            ]
        )
        assert fuse_pairs(nodes) == 1
        assert nodes[0].addr_temp
        assert nodes[1].addr_from is nodes[0]

    def test_base_mismatch_must_not_fuse(self):
        nodes = lift(
            [
                encode(Op.ADDI, rd=1, rn=2, imm=4),
                encode(Op.LDR, rd=0, rn=3),  # base is not the ADDI's def
                encode(Op.HALT),
            ]
        )
        assert fuse_pairs(nodes) == 0

    def test_cmp_feeding_conditional_branch_fuses(self):
        nodes = lift(
            [
                encode(Op.CMPI, rn=0, imm=0),
                encode(Op.B, imm=2, cond=Cond.EQ),
            ]
        )
        assert fuse_pairs(nodes) == 1
        assert nodes[0].fuse_branch
        assert nodes[1].fused_cmp is nodes[0]

    def test_unconditional_branch_must_not_fuse(self):
        # An AL branch never reads the comparison; fusing it would
        # change nothing but the annotation must not appear.
        nodes = lift(
            [
                encode(Op.CMP, rn=0, rm=1),
                encode(Op.B, imm=2, cond=Cond.AL),
            ]
        )
        assert fuse_pairs(nodes) == 0

    def test_folded_addi_must_not_fuse(self):
        # Once the ADDI folds to a literal the access address is a
        # constant too; the `_a` temp would be dead weight.
        nodes = lift(
            [
                encode(Op.MOVI, rd=1, imm=0x100),
                encode(Op.ADDI, rd=1, rn=1, imm=4),
                encode(Op.LDR, rd=0, rn=1),
                encode(Op.HALT),
            ]
        )
        fold_constants(nodes)
        assert fuse_pairs(nodes) == 0


def _block_sources(asm_body, vaddrs=(0x8000,), **fields):
    """Translate the given block starts under a config and return
    their concatenated generated source."""
    board = Board(VEXPRESS)
    board.load(assemble(".org 0x8000\n_start:\n%s\n" % asm_body))
    translator = Translator(DBTConfig(**fields))
    return "\n".join(
        translator.translate(board.memory, vaddr, vaddr).source for vaddr in vaddrs
    )


#: One block exercising every codegen-sensitive shape on one page:
#: foldable constants, an address pair over a runtime-unknown base (the
#: load's result), a fusible compare+branch, and a same-page chainable
#: conditional terminal.
_PEEPHOLE_BODY = """
    movi r0, 6
    movi r1, 7
    add r2, r0, r1
    ldr r4, [sp]
    addi r4, r4, 4
    ldr r3, [r4]
    cmpi r3, 0
    bne _start
"""

#: ... and one whose terminal branches across a page boundary.
_CROSS_PAGE_BODY = """
    nop
    nop
    nop
    nop
    b far
.page
far:
    halt #0
"""


class TestOptimizedEmission:
    def test_fused_source_is_smaller(self):
        TRANSLATION_MEMO.clear()
        direct = _block_sources(_PEEPHOLE_BODY, opt_level=0)
        TRANSLATION_MEMO.clear()
        optimized = _block_sources(_PEEPHOLE_BODY, opt_level=1)
        assert len(optimized) < len(direct)
        assert "_a = (r[4] + 4)" in optimized  # fused address pair
        assert "condition_holds" in direct
        assert "condition_holds" not in optimized  # inlined branch cond
        assert "r[2] = 13" in optimized  # folded constant chain


class TestKeyCompleteness:
    """Every config field that changes generated code must be part of
    the translation key (and therefore of the code-store address)."""

    #: Fields whose toggling must change the generated source for the
    #: probe programs below.  A new DBTConfig field that affects
    #: codegen must be added here AND to translation_key().
    CODEGEN_FIELDS = {"chain_enabled", "chain_cross_page", "max_block_insns", "opt_level"}

    VARIANTS = {
        "chain_enabled": False,
        "chain_cross_page": True,
        "max_block_insns": 3,
        "tlb_bits": 9,
        "tcache_capacity": 5,
        "cost_overrides": {"instructions": 123.0},
        "version": "v9.9.9",
        "asid_tagged": True,
        "memoize": False,
        "opt_level": 1,
    }

    def test_variant_table_covers_every_field(self):
        params = set(inspect.signature(DBTConfig.__init__).parameters) - {"self"}
        assert set(self.VARIANTS) == params

    @pytest.mark.parametrize("field", sorted(VARIANTS))
    def test_codegen_sensitive_fields_are_keyed(self, field):
        def sources(**fields):
            TRANSLATION_MEMO.clear()
            return _block_sources(_PEEPHOLE_BODY, **fields) + _block_sources(
                _CROSS_PAGE_BODY, **fields
            )

        base_cfg = DBTConfig()
        variant_cfg = DBTConfig(**{field: self.VARIANTS[field]})
        differs = sources() != sources(**{field: self.VARIANTS[field]})
        assert differs == (field in self.CODEGEN_FIELDS)
        if differs:
            assert base_cfg.translation_key() != variant_cfg.translation_key()
            word_bytes = b"\x00\x00\x00\x00"
            assert codestore.block_key(
                base_cfg.translation_key(), 0x8000, word_bytes
            ) != codestore.block_key(
                variant_cfg.translation_key(), 0x8000, word_bytes
            )


class TestOptLevelIsolation:
    def test_memo_entries_are_distinct_per_level(self):
        board = Board(VEXPRESS)
        board.load(
            assemble(
                ".org 0x8000\n_start:\n    movi r0, 6\n    movi r1, 7\n"
                "    add r2, r0, r1\n    halt #0\n"
            )
        )
        TRANSLATION_MEMO.clear()
        plain = Translator(DBTConfig(opt_level=0))
        opt = Translator(DBTConfig(opt_level=1))
        block_plain = plain.translate(board.memory, 0x8000, 0x8000)
        block_opt = opt.translate(board.memory, 0x8000, 0x8000)
        assert block_plain.source != block_opt.source
        assert len(TRANSLATION_MEMO) == 2
        # Memo hits keep serving the level they were lowered at.
        assert plain.translate(board.memory, 0x8000, 0x8000).source == block_plain.source
        assert opt.translate(board.memory, 0x8000, 0x8000).source == block_opt.source
        TRANSLATION_MEMO.clear()

    def test_code_store_addresses_are_distinct_per_level(self):
        word_bytes = b"\x12\x34\x56\x78"
        keys = {
            codestore.block_key(DBTConfig(opt_level=lvl).translation_key(), 0x8000, word_bytes)
            for lvl in (0, 1, 2)
        }
        assert len(keys) == 3

    def test_superblock_address_differs_from_plain_block(self):
        # Same head bytes, but the trace's continuation segment is part
        # of the identity: a superblock never aliases the plain block.
        key = DBTConfig(opt_level=2).translation_key()
        head = b"\x12\x34\x56\x78"
        plain = codestore.block_key(key, 0x8000, head)
        traced = codestore.block_key(key, 0x8000, head, ((8, b"\x9a\xbc\xde\xf0"),))
        assert plain != traced


#: Bottom-branching loop: the tail's unconditional back-edge forms a
#: two-segment superblock at opt_level 2.
_LOOP_BODY = """
    li r0, 0
    li r1, 500
head:
    cmp r0, r1
    beq done
    addi r0, r0, 1
    b head
done:
    halt #0
"""

#: Same loop shape, but the body rewrites an instruction of its own
#: superblock (with identical bytes) every iteration, invalidating the
#: trace mid-execution.
_SMC_LOOP_BODY = """
    li r5, 10
    li r6, tgt
    li r1, 0
head:
    cmpi r5, 0
    beq done
    subi r5, r5, 1
    str r1, [r6]
tgt:
    nop
    b head
done:
    halt #0
"""


def _run_level(body, opt_level, max_insns=200_000):
    TRANSLATION_MEMO.clear()
    engine, board, res = run_asm(
        DBTSimulator, body, config=DBTConfig(opt_level=opt_level), max_insns=max_insns
    )
    return engine, board, res


class TestSuperblocks:
    def test_trace_forms_on_loop_back_edge(self):
        engine, _board, res = _run_level(_LOOP_BODY, 2)
        assert res.halted_ok
        entries = TRANSLATION_MEMO.entries()
        traced = [entry for entry in entries if entry.segments]
        assert len(traced) == 1
        assert traced[0].n_crossings == 1
        # The compiled unit inlines the tail: its source carries the
        # crossing's chain-follow accounting and the shared tail block.
        assert any(
            block.source and "hb = nb" in block.source
            for block in engine.translation_cache._blocks.values()
        )

    def test_no_trace_without_chaining(self):
        # Crossings replay *chained* dispatch accounting; with chaining
        # disabled level 2 must degrade to peephole-only lowering.
        TRANSLATION_MEMO.clear()
        engine, _board, res = run_asm(
            DBTSimulator,
            _LOOP_BODY,
            config=DBTConfig(opt_level=2, chain_enabled=False),
        )
        assert res.halted_ok
        assert not any(e.segments for e in TRANSLATION_MEMO.entries())

    def test_loop_counters_bit_identical(self):
        base = _run_level(_LOOP_BODY, 0)
        for level in (1, 2):
            engine, board, res = _run_level(_LOOP_BODY, level)
            assert res.halted_ok
            assert board.cpu.regs[0] == 500
            assert engine.counters.snapshot() == base[0].counters.snapshot()
            assert res.exit_reason == base[2].exit_reason

    def test_limit_side_exit_counters_bit_identical(self):
        # An odd limit lands mid-loop, exercising the crossing's
        # run-limit side exit; the instruction count must stop at the
        # same point the baseline dispatcher stops.
        base = _run_level(_LOOP_BODY, 0, max_insns=101)
        for level in (1, 2):
            engine, _board, res = _run_level(_LOOP_BODY, level, max_insns=101)
            assert res.exit_reason == base[2].exit_reason
            assert engine.counters.snapshot() == base[0].counters.snapshot()

    def test_smc_invalidates_trace_and_counters_match(self):
        base_engine, base_board, base_res = _run_level(_SMC_LOOP_BODY, 0)
        assert base_res.halted_ok
        engine, board, res = _run_level(_SMC_LOOP_BODY, 2)
        assert res.halted_ok
        assert board.cpu.regs[5] == 0
        assert engine.counters.smc_invalidations >= 9
        assert engine.counters.snapshot() == base_engine.counters.snapshot()
