"""The DBT engine's host fast paths against its full paths.

``mem_read32``/``mem_write32`` test a softmmu hit inline (one call, the
slot's permission bitmask, no ``_read``/``_write``), and ``_lookup``
returns a cached block straight from the fetch TLB and the translation
cache's dict when the page is executable in the current mode and lies
inside RAM.  Each must count and fault exactly like the full path:
these tests hit the corners where a fast path could skip a check.
"""

import pytest

from repro.arch import ARM
from repro.isa.assembler import assemble
from repro.machine import Board
from repro.machine.cpu import PSR_MODE_KERNEL
from repro.machine.mmu import (
    AP_KERNEL_RW,
    AP_USER_RW,
    AccessType,
    Fault,
    FaultType,
    PageTableBuilder,
)
from repro.platform import VEXPRESS
from repro.sim import DBTSimulator, FastInterpreter

TTBR = 0x0100_0000
L2_POOL = 0x0101_0000
KERNEL_DATA = 0x0020_0000
#: The last page of VEXPRESS's 64 MiB RAM region.
TOP_PAGE = VEXPRESS.ram_base + VEXPRESS.ram_size - 0x1000


def _mmu_board():
    """A board with the MMU on, in kernel mode, and one kernel-only
    data page; the engine is driven through its helpers directly."""
    board = Board(VEXPRESS)
    builder = PageTableBuilder(board.memory, TTBR, L2_POOL)
    builder.map_page(KERNEL_DATA, KERNEL_DATA, ap=AP_KERNEL_RW, xn=True)
    board.cp15.ttbr = TTBR
    board.cp15.sctlr = 1
    return board


class TestSoftmmuPermissionOnHit:
    @pytest.mark.parametrize(
        "helper, args, access",
        [
            ("mem_read32", (), AccessType.READ),
            ("mem_read8", (), AccessType.READ),
            ("mem_write32", (7,), AccessType.WRITE),
            ("mem_write8", (7,), AccessType.WRITE),
        ],
    )
    def test_user_access_to_kernel_page_hits_then_faults(self, helper, args, access):
        board = _mmu_board()
        engine = DBTSimulator(board, arch=ARM)
        # Kernel access fills the slot.
        board.cpu.psr = PSR_MODE_KERNEL
        getattr(engine, helper)(KERNEL_DATA + 8, *args)
        assert engine.counters.tlb_misses == 1
        hits = engine.counters.tlb_hits
        # The same page from user mode is a TLB *hit* that must still
        # raise the permission fault.
        board.cpu.psr = 0
        with pytest.raises(Fault) as exc:
            getattr(engine, helper)(KERNEL_DATA + 12, *args)
        assert exc.value.fault_type == FaultType.PERMISSION
        assert exc.value.access == access
        assert exc.value.vaddr == KERNEL_DATA + 12
        assert engine.counters.tlb_hits == hits + 1
        assert engine.counters.tlb_misses == 1

    def test_user_helper_from_kernel_mode_faults_on_hit(self):
        board = _mmu_board()
        engine = DBTSimulator(board, arch=ARM)
        board.cpu.psr = PSR_MODE_KERNEL
        engine.mem_read32(KERNEL_DATA)
        with pytest.raises(Fault) as exc:
            engine.mem_read32_user(KERNEL_DATA)
        assert exc.value.fault_type == FaultType.PERMISSION
        assert engine.counters.tlb_hits == 1

    def test_kernel_hit_reads_back_the_write(self):
        board = _mmu_board()
        engine = DBTSimulator(board, arch=ARM)
        board.cpu.psr = PSR_MODE_KERNEL
        engine.mem_write32(KERNEL_DATA + 4, 0x1_DEADBEEF)
        assert engine.mem_read32(KERNEL_DATA + 4) == 0xDEADBEEF
        assert board.memory.read32(KERNEL_DATA + 4) == 0xDEADBEEF
        assert (engine.counters.tlb_misses, engine.counters.tlb_hits) == (1, 1)


_HEADER = """
.org 0x4000
    b _start
    b bad
    b bad
    b pab
    b bad
    b bad
.org 0x8000
_start:
    li r0, 0x4000
    mcr r0, p15, c6
    li r0, 0x%08x
    mcr r0, p15, c2
    movi r0, 1
    mcr r0, p15, c1
""" % TTBR

_HANDLERS = """
pab:
    mrc r8, p15, c4        ; FSR
    mrc r9, p15, c5        ; FAR
    halt #0
bad:
    halt #0xEE
"""

#: Kernel code calls a function on a kernel-only page (caching its fetch
#: translation and its block), drops to user mode and calls it again:
#: the cached fetch page must now take a prefetch abort.
KERNEL_FN_SOURCE = (
    _HEADER
    + """
    bl kfn
    bl kfn
    cps #0                 ; user mode, IRQs off
    bl kfn
    halt #0xE1
"""
    + _HANDLERS
    + """
.org 0x9000
kfn:
    addi r4, r4, 1
    br lr
"""
)

#: A function on the last page of RAM, called from another page: its
#: page has no room for the spill word, so every dispatch to it must
#: take the full lookup path (with the bus check).
TOP_FN_SOURCE = (
    _HEADER
    + """
    movi r5, 6
    li r6, topfn           ; out of direct-branch range
loop:
    blr r6
    subi r5, r5, 1
    cmpi r5, 0
    bne loop
    halt #0
"""
    + _HANDLERS
    + """
.org 0x%08x
topfn:
    addi r4, r4, 1
    br lr
"""
    % TOP_PAGE
)


def _run(source, engine_cls=DBTSimulator, full_lookup=False, spy=None):
    program = assemble(source)
    board = Board(VEXPRESS)
    builder = PageTableBuilder(board.memory, TTBR, L2_POOL)
    builder.map_page(0x4000, 0x4000, ap=AP_USER_RW)
    builder.map_page(0x8000, 0x8000, ap=AP_USER_RW)
    builder.map_page(0x9000, 0x9000, ap=AP_KERNEL_RW)
    builder.map_page(TOP_PAGE, TOP_PAGE, ap=AP_USER_RW)
    board.load(program)
    engine = engine_cls(board, arch=ARM)
    if full_lookup:
        engine._lookup = engine._lookup_full
    if spy is not None:
        full = engine._lookup_full

        def spying(vaddr):
            spy.append(vaddr)
            return full(vaddr)

        engine._lookup_full = spying
    result = engine.run(max_insns=10_000)
    return engine, board, result


class TestDispatcherFastPath:
    def test_cached_fetch_page_faults_after_dropping_to_user(self):
        engine, board, result = _run(KERNEL_FN_SOURCE)
        assert result.halted_ok
        counters = engine.counters
        assert counters.prefetch_aborts == 1
        assert board.cpu.regs[4] == 2
        assert board.cpu.regs[8] == FaultType.PERMISSION
        assert board.cpu.regs[9] == 0x9000
        # Identical to the full lookup path on every counter ...
        full, full_board, _ = _run(KERNEL_FN_SOURCE, full_lookup=True)
        assert counters.snapshot() == full.counters.snapshot()
        assert board.cpu.snapshot() == full_board.cpu.snapshot()
        # ... and architecturally identical to the interpreter.
        _interp, interp_board, _ = _run(KERNEL_FN_SOURCE, engine_cls=FastInterpreter)
        assert board.cpu.snapshot() == interp_board.cpu.snapshot()

    def test_top_of_ram_page_takes_the_full_path(self):
        spy = []
        engine, board, result = _run(TOP_FN_SOURCE, spy=spy)
        assert result.halted_ok
        assert board.cpu.regs[4] == 6
        entry = engine._ftlb[TOP_PAGE >> 12]
        assert entry[2] is False  # page + spill word leaves RAM
        assert engine._ftlb[0x8000 >> 12][2] is True
        # Every dispatch to the top page went through the full path;
        # the return site (an ordinary page) only on its first visit.
        assert spy.count(TOP_PAGE) == 6
        return_sites = [v for v in spy if v >> 12 == 0x8 and v != 0x8000]
        assert len(return_sites) == len(set(return_sites))
        full, full_board, _ = _run(TOP_FN_SOURCE, full_lookup=True)
        assert engine.counters.snapshot() == full.counters.snapshot()
        assert board.cpu.snapshot() == full_board.cpu.snapshot()
