"""Execution tracing for the interpreter-family engines.

A :class:`Tracer` records retired instructions (with disassembly),
taken branches, exceptions and device accesses.  It attaches to any
:class:`~repro.sim.funccore.FunctionalCore` subclass via the
``_pre_execute`` hook plus lightweight device/CP15 observers, so it
needs no engine modifications and costs nothing when not attached.

Typical use::

    engine = FastInterpreter(board, arch=ARM)
    with Tracer(engine, limit=10_000) as tracer:
        engine.run(max_insns=100_000)
    for record in tracer.records[:20]:
        print(record)

The DBT engine executes translated code, so per-instruction tracing
does not apply; use :func:`trace_blocks` there to observe the block
stream instead.
"""

from repro.errors import IncompatibleEngineError
from repro.isa.disasm import disassemble


class TraceRecord:
    """One retired instruction."""

    __slots__ = ("index", "pc", "word", "text")

    def __init__(self, index, pc, word, text):
        self.index = index
        self.pc = pc
        self.word = word
        self.text = text

    def __repr__(self):
        return "%8d  0x%08x  %s" % (self.index, self.pc, self.text)


def restore_hook(engine, name, own):
    """Undo an instance-attribute hook: put back the engine's own
    instance attribute ``own``, or delete the hook so the class method
    shows through again (an instance attribute left behind would make
    the engine think it is still hooked)."""
    if own is not None:
        setattr(engine, name, own)
    else:
        engine.__dict__.pop(name, None)


class Tracer:
    """Records the instruction stream of a functional-core engine."""

    def __init__(self, engine, limit=100_000, disassemble_insns=True):
        if not getattr(engine, "supports_insn_trace", False):
            raise IncompatibleEngineError(
                "Tracer",
                getattr(engine, "name", type(engine).__name__),
                hint="per-instruction tracing needs supports_insn_trace; "
                "use trace_blocks() for block-granularity engines",
            )
        self.engine = engine
        self.limit = limit
        self.disassemble_insns = disassemble_insns
        self.records = []
        self.truncated = False
        self._saved_pre_execute = None
        # The engine's own instance attribute, if it had one before
        # attach (another tool's hook); None when the class method ran.
        self._own_pre_execute = None

    # -- attach/detach -----------------------------------------------------
    def attach(self):
        if self._saved_pre_execute is not None:
            raise RuntimeError("tracer already attached")
        self._saved_pre_execute = self.engine._pre_execute
        self._own_pre_execute = self.engine.__dict__.get("_pre_execute")

        saved = self._saved_pre_execute
        records = self.records

        def traced_pre_execute(insn, pc):
            if len(records) < self.limit:
                text = disassemble(insn.word, pc=pc) if self.disassemble_insns else ""
                records.append(TraceRecord(len(records), pc, insn.word, text))
            else:
                self.truncated = True
            saved(insn, pc)

        self.engine._pre_execute = traced_pre_execute
        return self

    def detach(self):
        if self._saved_pre_execute is None:
            return
        restore_hook(self.engine, "_pre_execute", self._own_pre_execute)
        self._saved_pre_execute = self._own_pre_execute = None

    def __enter__(self):
        return self.attach()

    def __exit__(self, *exc_info):
        self.detach()
        return False

    # -- views -----------------------------------------------------------
    def pcs(self):
        return [record.pc for record in self.records]

    def text(self):
        return "\n".join(repr(record) for record in self.records)

    def summary(self):
        """Opcode histogram of the recorded stream."""
        histogram = {}
        for record in self.records:
            mnemonic = record.text.split()[0] if record.text else "0x%02x" % (record.word >> 24)
            histogram[mnemonic] = histogram.get(mnemonic, 0) + 1
        return dict(sorted(histogram.items(), key=lambda kv: -kv[1]))


class BlockTraceRecord:
    """One executed translation block (DBT tracing granularity)."""

    __slots__ = ("index", "vaddr", "insn_count")

    def __init__(self, index, vaddr, insn_count):
        self.index = index
        self.vaddr = vaddr
        self.insn_count = insn_count

    def __repr__(self):
        return "%8d  block 0x%08x  (%d insns)" % (self.index, self.vaddr, self.insn_count)


def trace_blocks(engine, run_kwargs=None, limit=100_000):
    """Run a DBT engine while recording its block-execution stream.

    Wraps every cached-and-future block's function; returns
    ``(records, run_result)``.
    """
    if not getattr(engine, "supports_block_trace", False):
        raise IncompatibleEngineError(
            "trace_blocks",
            getattr(engine, "name", type(engine).__name__),
            hint="block tracing needs supports_block_trace; "
            "use Tracer for per-instruction engines",
        )
    records = []

    translator = engine._translator
    original_translate = translator.translate

    def wrap_block(block):
        inner = block.fn

        def traced(state, _inner=inner, _block=block):
            if len(records) < limit:
                records.append(BlockTraceRecord(len(records), _block.vaddr, _block.insn_count))
            return _inner(state)

        block.fn = traced
        return block

    def traced_translate(memory, vaddr, paddr):
        return wrap_block(original_translate(memory, vaddr, paddr))

    translator.translate = traced_translate
    try:
        result = engine.run(**(run_kwargs or {}))
    finally:
        translator.translate = original_translate
    return records, result
