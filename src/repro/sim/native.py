"""The native-hardware baseline.

The paper's "Hardware" columns run SimBench bare-metal on an
ODROID-XU3 (ARM) and an HP z440 (x86).  We model those hosts with the
functional core plus a direct-execution cost table per architecture
profile; structural behaviour (TLB fills/evictions/flushes, faults,
interrupts) still comes from real execution, so e.g. the TLB Flush
benchmark really does refill the TLB every iteration.
"""

from repro.machine.tlb import SoftTLB
from repro.sim.costs import native_cost_model
from repro.sim.funccore import FunctionalCore


class NativeMachine(FunctionalCore):
    """Bare-hardware execution model."""

    name = "native"
    execution_model = "native execution"

    def __init__(self, board, arch=None, tlb_capacity=1024):
        super().__init__(
            board,
            arch=arch,
            dtlb=SoftTLB(capacity=tlb_capacity),
            itlb=SoftTLB(capacity=512),
            use_decode_cache=True,
            # Predecoded block replay: host-only, counters are identical
            # to the per-instruction loop (tracers/debuggers still force
            # that loop, see FunctionalCore.run).
            use_block_cache=True,
        )
        arch_name = arch.name if arch is not None else "arm"
        self.cost_model = native_cost_model(arch_name)

    def feature_summary(self):
        return {
            "Execution Model": "Direct",
            "Memory Access": "Direct",
            "Code Generation": "None",
            "Control Flow (Inter-Page)": "Direct",
            "Control Flow (Intra-Page)": "Direct",
            "Interrupts": "Direct",
            "Synchronous Exceptions": "Direct",
            "Undefined Instruction": "Direct",
        }
