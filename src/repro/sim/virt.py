"""The QEMU-KVM-like hardware-assisted virtualization model.

The paper runs QEMU with KVM, i.e. guest code executes directly on the
host CPU and only privileged/device operations trap into the hypervisor
("vm-exits").  We cannot execute guest code natively from Python, so
this engine reuses the functional core for semantics but accounts time
with a direct-execution cost model: instructions are almost free, while
MMIO accesses, external interrupts, and (on x86) undefined instructions
carry multi-microsecond trap costs.

The set of trapped operations is architecture dependent, matching the
paper's findings: the paper's ARM KVM setup was unstable for control
flow and paid enormous costs for device and interrupt traps; its x86
KVM paid for undefined-instruction hypercalls, device traps and
interrupt injection.
"""

from repro.machine.tlb import SoftTLB
from repro.sim.costs import virt_cost_model
from repro.sim.funccore import FunctionalCore

#: Per-architecture trap sets (which counters represent vm-exits).
TRAPPED_EVENTS = {
    "arm": ("mmio_reads", "mmio_writes", "irqs"),
    "x86": ("mmio_reads", "mmio_writes", "irqs", "undefs", "coproc_writes"),
}


class VirtSimulator(FunctionalCore):
    """Direct-execution (KVM-style) virtualization model."""

    name = "qemu-kvm"
    execution_model = "direct execution (hardware-assisted)"

    def __init__(self, board, arch=None, tlb_capacity=2048):
        super().__init__(
            board,
            arch=arch,
            # The host hardware TLB is large; guest TLB maintenance
            # operations still hit this structure.
            dtlb=SoftTLB(capacity=tlb_capacity),
            itlb=SoftTLB(capacity=1024),
            use_decode_cache=True,
            # Predecoded block replay: host-only, counters are identical
            # to the per-instruction loop (tracers/debuggers still force
            # that loop, see FunctionalCore.run).
            use_block_cache=True,
        )
        arch_name = arch.name if arch is not None else "arm"
        self.cost_model = virt_cost_model(arch_name)
        self._trapped = TRAPPED_EVENTS.get(arch_name, TRAPPED_EVENTS["arm"])

    def vm_exit_count(self, delta):
        """Number of vm-exits implied by a counter delta."""
        return sum(delta.get(name, 0) for name in self._trapped)

    def run(self, max_insns=None):
        before = self.counters.snapshot()
        result = super().run(max_insns=max_insns)
        delta = self.counters.delta(before, self.counters.snapshot())
        self.counters.vm_exits += self.vm_exit_count(delta)
        return result

    def feature_summary(self):
        return {
            "Execution Model": "Direct",
            "Memory Access": "Direct",
            "Code Generation": "None",
            "Control Flow (Inter-Page)": "Direct",
            "Control Flow (Intra-Page)": "Direct",
            "Interrupts": "Via Emulation Layer",
            "Synchronous Exceptions": "Direct",
            "Undefined Instruction": "Hypercall",
        }
