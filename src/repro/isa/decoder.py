"""Decoder for SRV32 instruction words."""

from repro.errors import DecodeError
from repro.isa.encoding import (
    ALU_IMM_OPS,
    ALU_REG_OPS,
    BRANCH_OPS,
    DIRECT_BRANCH_OPS,
    INDIRECT_BRANCH_OPS,
    LOAD_OPS,
    MEM_OPS,
    NONPRIV_OPS,
    STORE_OPS,
    Cond,
    Op,
)


class Instruction:
    """A decoded SRV32 instruction.

    Attributes are plain integers so engines can consume them without
    further unpacking.  ``imm`` is sign-extended where the encoding
    calls for it (memory offsets, branch offsets).
    """

    __slots__ = ("word", "op", "rd", "rn", "rm", "imm", "cond")

    def __init__(self, word, op, rd, rn, rm, imm, cond):
        self.word = word
        self.op = op
        self.rd = rd
        self.rn = rn
        self.rm = rm
        self.imm = imm
        self.cond = cond

    # -- classification helpers -------------------------------------
    @property
    def is_branch(self):
        return self.op in BRANCH_OPS

    @property
    def is_direct_branch(self):
        return self.op in DIRECT_BRANCH_OPS

    @property
    def is_indirect_branch(self):
        return self.op in INDIRECT_BRANCH_OPS

    @property
    def is_load(self):
        return self.op in LOAD_OPS

    @property
    def is_store(self):
        return self.op in STORE_OPS

    @property
    def is_mem(self):
        return self.op in MEM_OPS

    @property
    def is_nonpriv(self):
        return self.op in NONPRIV_OPS

    @property
    def is_alu_reg(self):
        return self.op in ALU_REG_OPS

    @property
    def is_alu_imm(self):
        return self.op in ALU_IMM_OPS

    def __repr__(self):
        return "Instruction(word=0x%08x, op=%s)" % (self.word, Op(self.op).name)

    def __eq__(self, other):
        return isinstance(other, Instruction) and other.word == self.word

    def __hash__(self):
        return hash(self.word)


#: Decode tables: opcode byte -> :class:`Op` member, condition nibble
#: -> :class:`Cond` member.  ``Op(x)`` costs ~0.8 us and every ``Op.X``
#: attribute lookup ~160 ns on CPython 3.11; a dict probe is ~35 ns.
_OP_BY_BITS = {int(op): op for op in Op}
_COND_BY_BITS = {int(cond): cond for cond in Cond}
_COND_BRANCH_OPBITS = frozenset({int(Op.B), int(Op.BL)})
_SIGNED_IMM_OPBITS = frozenset(int(op) for op in MEM_OPS)
_AL = Cond.AL


def decode(word):
    """Decode a 32-bit instruction word.

    Raises :class:`~repro.errors.DecodeError` for words whose opcode
    byte is not architecturally defined.  Engines convert that into a
    guest undefined-instruction exception (as does the canonical
    ``UND`` encoding, which decodes successfully but whose semantics
    are "raise UNDEF").
    """
    opbits = (word >> 24) & 0xFF
    op = _OP_BY_BITS.get(opbits)
    if op is None:
        raise DecodeError("undefined opcode 0x%02x in word 0x%08x" % (opbits, word))
    if opbits in _COND_BRANCH_OPBITS:
        cond_bits = (word >> 20) & 0xF
        cond = _COND_BY_BITS.get(cond_bits)
        if cond is None:
            raise DecodeError(
                "undefined condition code %d in word 0x%08x" % (cond_bits, word)
            )
        imm = word & 0xFFFFF
        if imm & 0x80000:
            imm -= 0x100000
        return Instruction(word, op, 0, 0, 0, imm, cond)
    rd = (word >> 20) & 0xF
    rn = (word >> 16) & 0xF
    if opbits in _SIGNED_IMM_OPBITS:
        imm = word & 0xFFFF
        if imm & 0x8000:
            imm -= 0x10000
        return Instruction(word, op, rd, rn, 0, imm, _AL)
    return Instruction(word, op, rd, rn, (word >> 12) & 0xF, word & 0xFFFF, _AL)


class DecodeCache:
    """A simple physical-address-indexed decode cache.

    This is the structure the fast interpreter uses to avoid re-decoding
    hot code.  It must be invalidated when guest code is overwritten;
    :meth:`invalidate_page` supports that, and :attr:`pages` lets the
    owner test cheaply whether a store touches cached code.
    """

    def __init__(self, capacity=1 << 16):
        self.capacity = capacity
        self._cache = {}
        self.pages = set()
        self.hits = 0
        self.misses = 0

    def lookup(self, paddr, word):
        entry = self._cache.get(paddr)
        if entry is not None and entry.word == word:
            self.hits += 1
            return entry
        self.misses += 1
        insn = decode(word)
        if len(self._cache) >= self.capacity:
            self._cache.clear()
            self.pages.clear()
        self._cache[paddr] = insn
        self.pages.add(paddr >> 12)
        return insn

    def invalidate_page(self, ppage):
        if ppage not in self.pages:
            return 0
        base = ppage << 12
        removed = 0
        for addr in range(base, base + (1 << 12), 4):
            if self._cache.pop(addr, None) is not None:
                removed += 1
        self.pages.discard(ppage)
        return removed

    def clear(self):
        self._cache.clear()
        self.pages.clear()

    def __len__(self):
        return len(self._cache)
