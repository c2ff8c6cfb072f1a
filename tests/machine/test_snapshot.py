"""Machine snapshot/restore tests."""

import pytest

from repro.arch import ARM
from repro.isa.assembler import assemble
from repro.machine import Board
from repro.machine.snapshot import restore, snapshot
from repro.platform import PCPLAT, VEXPRESS
from repro.sim import DBTSimulator, FastInterpreter

PROGRAM = """
.org 0x8000
_start:
    li sp, 0x100000
    movi r1, 7
    li r2, 0x2000000
    str r1, [r2]
    li r3, 0xf0000000
    movi r4, 90
    strb r4, [r3]
    halt #0
"""


def _run_board():
    board = Board(VEXPRESS)
    board.load(assemble(PROGRAM))
    board.set_iterations(33)
    engine = FastInterpreter(board, arch=ARM)
    result = engine.run(max_insns=10_000)
    assert result.halted_ok
    return board


class TestSnapshotRestore:
    def test_roundtrip_preserves_everything(self):
        board = _run_board()
        snap = snapshot(board)
        # Scribble over the state.
        board.cpu.reset()
        board.memory.write32(0x2000000, 0xDEAD)
        board.uart.reset()
        board.cp15.sctlr = 1
        restore(board, snap)
        assert board.memory.read32(0x2000000) == 7
        assert board.cpu.regs[1] == 7
        assert board.cpu.halted
        assert board.uart.text == "Z"
        assert board.cp15.sctlr == 0
        assert board.testctl.iterations == 33

    def test_snapshot_is_isolated_from_later_writes(self):
        board = _run_board()
        snap = snapshot(board)
        board.memory.write32(0x2000000, 0xFFFF)
        restore(board, snap)
        assert board.memory.read32(0x2000000) == 7

    def test_platform_mismatch_rejected(self):
        board = _run_board()
        snap = snapshot(board)
        other = Board(PCPLAT)
        with pytest.raises(ValueError):
            restore(other, snap)

    def test_compressed_size_reported(self):
        snap = snapshot(_run_board())
        assert 0 < snap.compressed_size < VEXPRESS.ram_size
        assert "MachineSnapshot" in repr(snap)

    def test_rerun_from_snapshot_is_deterministic(self):
        """Boot once, snapshot, then re-run on two fresh engines: the
        results must be identical (the checkpoint-and-measure pattern)."""
        source = """
.org 0x8000
_start:
    li sp, 0x100000
    movi r5, 0
warm:
    addi r5, r5, 1
    cmpi r5, 100
    bne warm
    movi r6, 1       ; "boot done" marker
spin:
    cmpi r7, 0       ; harness flips r7 via restore-time poke
    beq spin
    mul r8, r5, r7
    halt #0
"""
        board = Board(VEXPRESS)
        board.load(assemble(source))
        warm = FastInterpreter(board, arch=ARM)
        warm.run(max_insns=450)  # run the warm-up loop, park in spin
        assert board.cpu.regs[6] == 1
        snap = snapshot(board)

        outcomes = []
        for engine_cls in (FastInterpreter, DBTSimulator):
            restore(board, snap)
            board.cpu.regs[7] = 3  # release the spin
            engine = engine_cls(board, arch=ARM)
            result = engine.run(max_insns=10_000)
            assert result.halted_ok
            outcomes.append(board.cpu.snapshot())
        assert outcomes[0] == outcomes[1]
        assert board.cpu.regs[8] == 300


class TestSparseSnapshot:
    def test_page_zero_at_snapshot_reads_zero_after_restore(self):
        board = _run_board()
        snap = snapshot(board)
        # 0x3000000 was never touched, so the snapshot does not store it.
        assert board.memory.read32(0x3000000) == 0
        board.memory.write32(0x3000000, 0xBAD)
        board.memory.write32(0x3000FFC, 0xBAD)
        restore(board, snap)
        assert board.memory.read32(0x3000000) == 0
        assert board.memory.read32(0x3000FFC) == 0
        assert board.memory.read32(0x2000000) == 7

    def test_fresh_board_snapshot_is_small(self):
        board = Board(VEXPRESS)
        board.load(assemble(PROGRAM))
        snap = snapshot(board)
        stored = snap.compressed_size + sum(
            4 * len(offsets) for _base, _size, offsets, _data in snap.ram
        )
        assert stored < 64 * 1024, stored
        restore(board, snap)
        assert board.memory.read_bytes(0x8000, 4) != bytes(4)
