"""The Gem5-like detailed interpreter.

This engine is *functionally* identical to the fast interpreter but
models much more per-instruction machinery, the way a cycle-oriented
simulator does even when run in its fastest mode:

- every instruction is freshly decoded and cracked into micro-op
  objects (no decode cache);
- each micro-op is pushed through a small event queue, and every event
  is "ticked" individually;
- the TLB is a set-associative structure with an explicitly modelled
  LRU update on every lookup.

All of that is real Python work, so this engine is genuinely an order
of magnitude slower to run than :class:`FastInterpreter` -- the same
relationship the paper observes between Gem5 and SimIt-ARM.

Matching Figure 7's daggers, the detailed engine does not implement the
platform's safe test device or the interrupt controller's
software-trigger register; touching them raises
:class:`~repro.errors.UnsupportedFeatureError`, which the harness
reports as a missing result.
"""

import collections

from repro.isa.encoding import Op
from repro.machine.tlb import SetAssociativeTLB
from repro.sim.costs import detailed_cost_model
from repro.sim.funccore import FunctionalCore

_INTC_TRIGGER_OFFSET = 0x08

#: Ops whose execution serializes the modelled pipeline.
_SERIALIZING_OPS = frozenset({Op.SWI, Op.SRET, Op.UND, Op.MRC, Op.MCR, Op.CPS, Op.WFI})


class MicroOp:
    """One micro-operation of a cracked instruction."""

    __slots__ = ("kind", "insn")

    def __init__(self, kind, insn):
        self.kind = kind
        self.insn = insn


class EventQueue:
    """A tiny tick-driven event queue (FIFO at instruction granularity)."""

    def __init__(self):
        self._queue = collections.deque()
        self.ticks = 0

    def schedule(self, event):
        self._queue.append(event)

    def drain(self):
        count = 0
        while self._queue:
            self._queue.popleft()
            self.ticks += 1
            count += 1
        return count


class DetailedInterpreter(FunctionalCore):
    """Detailed interpreter with modelled micro-ops, events and TLB.

    ``mode`` selects the detail level, mirroring Gem5's CPU models:

    - ``"atomic"`` (the paper's configuration, "non cycle accurate"):
      one event per micro-op;
    - ``"timing"``: memory micro-ops additionally schedule modelled
      cache-access request/response events, roughly tripling the event
      traffic of loads and stores.
    """

    name = "gem5"
    execution_model = "detailed interpreter"

    MODES = ("atomic", "timing")

    #: Device features the engine does not implement (Figure 7 daggers).
    UNSUPPORTED_DEVICES = ("safedev",)

    def __init__(self, board, arch=None, tlb_sets=32, tlb_ways=2, mode="atomic"):
        if mode not in self.MODES:
            raise ValueError("mode must be one of %s" % (self.MODES,))
        super().__init__(
            board,
            arch=arch,
            dtlb=SetAssociativeTLB(sets=tlb_sets, ways=tlb_ways),
            itlb=SetAssociativeTLB(sets=16, ways=2),
            # No decode cache, and therefore no predecoded block
            # replay either (see FunctionalCore.run): every fetch pays
            # the full decode, and the per-instruction _pre_execute
            # micro-op model below would be skipped by block replay.
            use_decode_cache=False,
        )
        self.mode = mode
        self.cost_model = detailed_cost_model()
        self._events = EventQueue()

    def _device_access_allowed(self, device, offset, is_write):
        if device.name in self.UNSUPPORTED_DEVICES:
            return False
        if device.name == "intc" and is_write and offset == _INTC_TRIGGER_OFFSET:
            # Software-triggered external interrupts are not implemented.
            return False
        return True

    def _crack(self, insn):
        """Crack an instruction into micro-ops (freshly allocated, as a
        detailed model would)."""
        op = insn.op
        uops = [MicroOp("fetch", insn), MicroOp("decode", insn)]
        if insn.is_mem:
            uops.append(MicroOp("agen", insn))
            uops.append(MicroOp("mem", insn))
        elif insn.is_branch:
            uops.append(MicroOp("bpred", insn))
        uops.append(MicroOp("execute", insn))
        if op in _SERIALIZING_OPS:
            uops.append(MicroOp("serialize", insn))
        uops.append(MicroOp("commit", insn))
        return uops

    def _pre_execute(self, insn, pc):
        uops = self._crack(insn)
        events = self._events
        for uop in uops:
            events.schedule(uop)
            if self.mode == "timing" and uop.kind == "mem":
                # Timing mode models the cache access explicitly: a
                # request event and a response event per memory micro-op.
                events.schedule(MicroOp("cache-req", insn))
                events.schedule(MicroOp("cache-resp", insn))
        drained = events.drain()
        self.counters.micro_ops += len(uops)
        self.counters.tick_events += drained

    def feature_summary(self):
        return {
            "Execution Model": "Interpreter (%s)" % self.mode
            if self.mode != "atomic"
            else "Interpreter",
            "Memory Access": "Modelled TLB",
            "Code Generation": "None",
            "Control Flow (Inter-Page)": "Interpreted",
            "Control Flow (Intra-Page)": "Interpreted",
            "Interrupts": "Insn. Boundaries",
            "Synchronous Exceptions": "Interpreted",
            "Undefined Instruction": "Interpreted",
        }
