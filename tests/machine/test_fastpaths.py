"""Host fast paths of the machine layer pinned against reference rules.

``TranslationResult.perms`` replaces the per-access ``(ap, xn)``
permission rule with a bitmask computed once per mapping, ``decode()``
is table-driven instead of calling ``Op(...)``/``Cond(...)`` per word,
and ``Fault`` formats its message lazily.  Each is checked here against
a straightforward reference so the fast form can never drift from the
rule it replaces.
"""

import pickle

import pytest

from repro.errors import DecodeError
from repro.isa.decoder import decode
from repro.isa.encoding import MEM_OPS, VALID_OPCODES, Cond, Op, sext
from repro.machine.cpu import PSR_MODE_KERNEL
from repro.machine.mmu import (
    AP_KERNEL_RW,
    AP_READ_ONLY,
    AP_USER_RW,
    AccessType,
    Fault,
    FaultType,
    TranslationResult,
)


def _reference_allows(ap, xn, access, is_kernel):
    """The AP/XN rule as the MMU documents it, evaluated per access."""
    if access == AccessType.WRITE:
        if ap == AP_READ_ONLY:
            return False
        if not is_kernel and ap != AP_USER_RW:
            return False
        return True
    if access == AccessType.EXECUTE and xn:
        return False
    if not is_kernel and ap == AP_KERNEL_RW:
        return False
    return True


def _mapping(ap, xn, page_size=1 << 20):
    return TranslationResult(
        paddr=0x0030_0123,
        vpage=0x0010_0000,
        ppage=0x0030_0000,
        page_size=page_size,
        ap=ap,
        xn=xn,
        levels=1,
    )


class TestPermissionBits:
    @pytest.mark.parametrize("ap", range(4))
    @pytest.mark.parametrize("xn", [False, True])
    @pytest.mark.parametrize("access", list(AccessType), ids=lambda a: a.name)
    @pytest.mark.parametrize("kernel", [0, PSR_MODE_KERNEL])
    def test_perms_bit_matches_rule(self, ap, xn, access, kernel):
        expected = _reference_allows(ap, xn, access, kernel)
        result = _mapping(ap, xn)
        assert bool(result.perms >> (2 * access + kernel) & 1) == expected
        assert result.allows(access, kernel) == expected
        # A narrowed 4 KiB view keeps the same permissions.
        assert result.narrow(0x0010_5000).perms == result.perms

    def test_perms_uses_only_six_bits(self):
        for ap in range(4):
            for xn in (False, True):
                assert 0 <= _mapping(ap, xn).perms < 1 << 6

    def test_allows_accepts_bool_mode(self):
        result = _mapping(AP_KERNEL_RW, False)
        assert result.allows(AccessType.READ, True)
        assert not result.allows(AccessType.READ, False)


def _reference_decode(word):
    """The original enum-constructing decoder, kept as the reference."""
    opbits = (word >> 24) & 0xFF
    if opbits not in VALID_OPCODES:
        raise DecodeError("undefined opcode 0x%02x in word 0x%08x" % (opbits, word))
    op = Op(opbits)
    rd = (word >> 20) & 0xF
    rn = (word >> 16) & 0xF
    rm = (word >> 12) & 0xF
    cond = Cond.AL
    if op in (Op.B, Op.BL):
        cond_bits = (word >> 20) & 0xF
        try:
            cond = Cond(cond_bits)
        except ValueError:
            raise DecodeError(
                "undefined condition code %d in word 0x%08x" % (cond_bits, word)
            )
        imm = sext(word & 0xFFFFF, 20)
        rd = rn = rm = 0
    elif op in MEM_OPS:
        imm = sext(word & 0xFFFF, 16)
        rm = 0
    else:
        imm = word & 0xFFFF
    return (word, op, rd, rn, rm, imm, cond)


def _outcome(decoder, word):
    try:
        result = decoder(word)
    except DecodeError as exc:
        return ("error", str(exc))
    if not isinstance(result, tuple):
        assert type(result.op) is Op
        assert type(result.cond) is Cond
        result = (
            result.word,
            result.op,
            result.rd,
            result.rn,
            result.rm,
            result.imm,
            result.cond,
        )
    return ("ok", result)


#: Operand patterns exercising sign bits, every field's extremes and
#: mixed nibbles.
_OPERANDS = (0x000000, 0xFFFFFF, 0x7FFFFF, 0x800000, 0x008000, 0x007FFF, 0x123456, 0xA5C3F0)


class TestTableDrivenDecode:
    @pytest.mark.parametrize("opbits", range(256))
    def test_every_opcode_byte(self, opbits):
        for operands in _OPERANDS:
            word = (opbits << 24) | operands
            assert _outcome(decode, word) == _outcome(_reference_decode, word)

    @pytest.mark.parametrize("op", [Op.B, Op.BL], ids=lambda op: op.name)
    @pytest.mark.parametrize("cond_bits", range(16))
    def test_every_branch_condition_nibble(self, op, cond_bits):
        for offset in (0x00000, 0x7FFFF, 0x80000, 0xFFFFF, 0x12345):
            word = (int(op) << 24) | (cond_bits << 20) | offset
            assert _outcome(decode, word) == _outcome(_reference_decode, word)

    def test_undefined_condition_message(self):
        with pytest.raises(DecodeError) as exc:
            decode(0x30F00001)
        assert str(exc.value) == "undefined condition code 15 in word 0x30f00001"

    def test_undefined_opcode_message(self):
        with pytest.raises(DecodeError) as exc:
            decode(0x0F000000)
        assert str(exc.value) == "undefined opcode 0x0f in word 0x0f000000"


class TestLazyFaultMessage:
    def test_message_text(self):
        fault = Fault(FaultType.PERMISSION, 0x1234, AccessType.WRITE)
        assert str(fault) == "PERMISSION fault on WRITE at 0x00001234"

    def test_message_from_plain_ints(self):
        fault = Fault(1, 0xDEADBEEF, 2)
        assert str(fault) == "TRANSLATION_L1 fault on EXECUTE at 0xdeadbeef"

    def test_fields_and_pickling(self):
        fault = Fault(FaultType.BUS, 0x40, AccessType.READ)
        assert (fault.fault_type, fault.vaddr, fault.access) == (
            FaultType.BUS,
            0x40,
            AccessType.READ,
        )
        clone = pickle.loads(pickle.dumps(fault))
        assert str(clone) == str(fault) == "BUS fault on READ at 0x00000040"
