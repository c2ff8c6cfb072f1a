"""A GDB-style debugger for the interpreter-family engines.

Wraps a :class:`~repro.sim.funccore.FunctionalCore` engine with
breakpoints, watchpoints (on data addresses), single-stepping and
state inspection -- the tooling a simulator project ships for guest
bring-up.  Like the tracer, it uses the ``_pre_execute`` hook plus the
memory path, so it needs no engine changes.

Example::

    dbg = Debugger(engine)
    dbg.add_breakpoint(prog.symbol("loop"))
    reason = dbg.cont()          # runs until the breakpoint
    print(dbg.where(), dbg.read_registers()["r1"])
    dbg.step()                   # one instruction
"""

from repro.errors import IncompatibleEngineError
from repro.isa.disasm import disassemble
from repro.sim.base import ExitReason
from repro.sim.trace import restore_hook

#: Stop reasons returned by :meth:`Debugger.cont`/:meth:`Debugger.step`.
STOP_BREAKPOINT = "breakpoint"
STOP_WATCHPOINT = "watchpoint"
STOP_STEP = "step"
STOP_HALT = "halt"
STOP_LIMIT = "limit"
STOP_DEADLOCK = "deadlock"


class _DebugStop(Exception):
    def __init__(self, reason, detail=None):
        self.reason = reason
        self.detail = detail


class Debugger:
    """Interactive control over a functional-core engine."""

    def __init__(self, engine):
        if not getattr(engine, "supports_insn_trace", False):
            raise IncompatibleEngineError(
                "Debugger",
                getattr(engine, "name", type(engine).__name__),
                hint="single-stepping needs the per-instruction "
                "supports_insn_trace capability",
            )
        self.engine = engine
        self.breakpoints = set()
        self.watchpoints = set()  # watched word-aligned data addresses
        self.hits = []  # (reason, pc, detail) history
        self._armed = False
        self._skip_once = None  # pc whose breakpoint is suppressed once
        self._pending_watch = None  # deferred watchpoint (fires post-insn)

    # -- configuration ----------------------------------------------------
    def add_breakpoint(self, addr):
        self.breakpoints.add(addr & 0xFFFFFFFF)

    def remove_breakpoint(self, addr):
        self.breakpoints.discard(addr & 0xFFFFFFFF)

    def add_watchpoint(self, addr):
        self.watchpoints.add(addr & ~0x3)

    def remove_watchpoint(self, addr):
        self.watchpoints.discard(addr & ~0x3)

    # -- hooks ---------------------------------------------------------------
    def _install(self):
        engine = self.engine
        saved_pre = engine._pre_execute
        saved_write = engine._mem_write
        self._own_hooks = {
            name: engine.__dict__.get(name) for name in ("_pre_execute", "_mem_write")
        }

        def pre_execute(insn, pc, _saved=saved_pre):
            # Watchpoints fire *after* the writing instruction completes
            # (GDB semantics), i.e. at the next instruction boundary.
            if self._pending_watch is not None:
                detail, self._pending_watch = self._pending_watch, None
                engine.counters.instructions -= 1  # not executed yet
                raise _DebugStop(STOP_WATCHPOINT, detail)
            if pc in self.breakpoints and pc != self._skip_once:
                engine.counters.instructions -= 1  # not executed yet
                raise _DebugStop(STOP_BREAKPOINT, pc)
            self._skip_once = None
            _saved(insn, pc)

        def mem_write(vaddr, value, size, kernel, _saved=saved_write):
            _saved(vaddr, value, size, kernel)
            if (vaddr & ~0x3) in self.watchpoints:
                self._pending_watch = (vaddr, value)

        engine._pre_execute = pre_execute
        engine._mem_write = mem_write
        # The dispatch table binds handler methods, but memory handlers
        # call self._mem_write dynamically, so no rebuild is needed.
        self._armed = True

    def _uninstall(self):
        if not self._armed:
            return
        for name, own in self._own_hooks.items():
            restore_hook(self.engine, name, own)
        self._armed = False

    # -- execution -------------------------------------------------------------
    def _run(self, max_insns):
        self._install()
        try:
            result = self.engine.run(max_insns=max_insns)
        except _DebugStop as stop:
            pc = self.engine.cpu.pc
            self.hits.append((stop.reason, pc, stop.detail))
            return stop.reason
        finally:
            self._uninstall()
        if result.exit_reason is ExitReason.HALT:
            return STOP_HALT
        if result.exit_reason is ExitReason.DEADLOCK:
            return STOP_DEADLOCK
        return STOP_LIMIT

    def cont(self, max_insns=1_000_000):
        """Run until a breakpoint/watchpoint, halt, or the limit.

        When resuming *on* a breakpoint address, that one occurrence is
        skipped (GDB semantics)."""
        if self.engine.cpu.pc in self.breakpoints:
            self._skip_once = self.engine.cpu.pc
        return self._run(max_insns)

    def step(self, count=1):
        """Execute exactly ``count`` instructions (breakpoints ignored)."""
        engine = self.engine
        saved_breakpoints = self.breakpoints
        self.breakpoints = set()
        try:
            for _ in range(count):
                if engine.cpu.halted:
                    return STOP_HALT
                result = engine.run(max_insns=1)
                if result.exit_reason is ExitReason.HALT:
                    return STOP_HALT
                if result.exit_reason is ExitReason.DEADLOCK:
                    return STOP_DEADLOCK
        finally:
            self.breakpoints = saved_breakpoints
        return STOP_STEP

    # -- inspection ----------------------------------------------------------------
    def where(self):
        """Disassembly of the next instruction to execute."""
        cpu = self.engine.cpu
        try:
            word = self.engine.board.memory.read32(cpu.pc)
        except Exception:
            return "0x%08x: <unreadable>" % cpu.pc
        return "0x%08x: %s" % (cpu.pc, disassemble(word, pc=cpu.pc))

    def read_registers(self):
        cpu = self.engine.cpu
        registers = {"r%d" % i: cpu.regs[i] for i in range(16)}
        registers.update(pc=cpu.pc, psr=cpu.psr, elr=cpu.elr, spsr=cpu.spsr)
        return registers

    def read_memory(self, addr, count=4):
        """Read ``count`` words of physical memory."""
        memory = self.engine.board.memory
        return [memory.read32(addr + 4 * i) for i in range(count)]

    def write_register(self, name, value):
        cpu = self.engine.cpu
        if name == "pc":
            cpu.pc = value & 0xFFFFFFFF
        elif name.startswith("r") and name[1:].isdigit() and int(name[1:]) < 16:
            cpu.regs[int(name[1:])] = value & 0xFFFFFFFF
        else:
            raise KeyError("unknown register %r" % name)
