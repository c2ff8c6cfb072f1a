"""MMU: page-table formats, the walker, and guest fault descriptions.

SRV32 uses a two-level page-table scheme modelled on ARMv5's short
descriptors.  The level-1 table (4096 word entries at TTBR) covers the
32-bit space in 1 MiB chunks; each entry is invalid, a *section*
(a single-level 1 MiB mapping, as used by the paper's ARM profile),
or a pointer to a level-2 *coarse* table of 256 small-page entries.

Entry formats (word)::

    L1 section: [31:20] base | [6] XN | [5:4] AP | [1:0] = 0b01
    L1 coarse:  [31:10] L2 table base              | [1:0] = 0b10
    L2 page:    [31:12] base | [6] XN | [5:4] AP | [1:0] = 0b01

Access permissions (AP):

    0  kernel RW, user none
    1  kernel RW, user RO
    2  kernel RW, user RW
    3  read-only in both modes
"""

import enum

from repro.errors import BusError

AP_KERNEL_RW = 0
AP_USER_RO = 1
AP_USER_RW = 2
AP_READ_ONLY = 3

L1_SHIFT = 20
L2_SHIFT = 12
PAGE_MASK = 0xFFFFF000
SECTION_MASK = 0xFFF00000

ENTRY_INVALID = 0
ENTRY_SECTION = 1
ENTRY_COARSE = 2
ENTRY_PAGE = 1


class AccessType(enum.IntEnum):
    READ = 0
    WRITE = 1
    EXECUTE = 2


class FaultType(enum.IntEnum):
    """Fault status codes written to the FSR coprocessor register."""

    NONE = 0
    TRANSLATION_L1 = 1
    TRANSLATION_L2 = 2
    PERMISSION = 3
    BUS = 4


class Fault(Exception):
    """A guest memory-management fault (not a host error).

    Faults are raised on every guest data or prefetch abort, so the
    message is formatted only when someone asks for it (``str``);
    ``args`` holds the raw ``(fault_type, vaddr, access)`` triple.
    """

    def __init__(self, fault_type, vaddr, access):
        self.fault_type = fault_type
        self.vaddr = vaddr
        self.access = access

    def __str__(self):
        return "%s fault on %s at 0x%08x" % (
            FaultType(self.fault_type).name,
            AccessType(self.access).name,
            self.vaddr,
        )


def _rule_allows(ap, xn, access, is_kernel):
    """The AP/XN permission rule (see the module docstring)."""
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


#: ``(ap << 1) | xn`` -> permission bitmask with bit ``2*access + kernel``
#: set when the access is allowed (``kernel`` is 0 or 1, the value of
#: ``psr & PSR_MODE_KERNEL``), so a cached mapping's check is one shift
#: and one mask.
_PERMS = tuple(
    sum(
        1 << (2 * access + kernel)
        for access in AccessType
        for kernel in (0, 1)
        if _rule_allows(ap_xn >> 1, ap_xn & 1, access, kernel)
    )
    for ap_xn in range(8)
)


class TranslationResult:
    """A successful translation, page-granular so it can be cached.

    ``page_base``/``page_size`` describe the mapped region containing
    the virtual address, so TLB models can cache whole mappings.
    ``perms`` is the mapping's permission bitmask: bit
    ``2*access + kernel`` is set when that access is allowed in that
    mode, so engines test a cached entry with
    ``entry.perms >> (2*access + kernel) & 1`` instead of re-deriving
    the rule from ``(ap, xn)`` on every access.
    """

    __slots__ = ("paddr", "vpage", "ppage", "page_size", "ap", "xn", "levels", "perms")

    def __init__(self, paddr, vpage, ppage, page_size, ap, xn, levels):
        self.paddr = paddr
        self.vpage = vpage
        self.ppage = ppage
        self.page_size = page_size
        self.ap = ap
        self.xn = xn
        self.levels = levels
        self.perms = _PERMS[(ap << 1) | (1 if xn else 0)]

    def narrow(self, vaddr):
        """Return a 4 KiB-granular view of this mapping around ``vaddr``.

        Engines cache translations at page granularity even for section
        mappings (as QEMU's softmmu does), so TLB structures always hold
        4 KiB entries.
        """
        if self.page_size == (1 << L2_SHIFT):
            return self
        vpage = vaddr & PAGE_MASK
        ppage = (self.ppage + (vpage - self.vpage)) & 0xFFFFFFFF
        return TranslationResult(
            paddr=self.paddr,
            vpage=vpage,
            ppage=ppage,
            page_size=1 << L2_SHIFT,
            ap=self.ap,
            xn=self.xn,
            levels=self.levels,
        )

    def allows(self, access, is_kernel):
        """Permission check for a cached mapping."""
        return bool(self.perms >> (2 * access + (1 if is_kernel else 0)) & 1)


def make_section_entry(phys_base, ap=AP_KERNEL_RW, xn=False):
    """Build a level-1 section entry mapping 1 MiB at ``phys_base``."""
    return (phys_base & SECTION_MASK) | (int(bool(xn)) << 6) | (ap << 4) | ENTRY_SECTION


def make_coarse_entry(l2_base):
    """Build a level-1 entry pointing at a level-2 table."""
    return (l2_base & 0xFFFFFC00) | ENTRY_COARSE


def make_page_entry(phys_base, ap=AP_KERNEL_RW, xn=False):
    """Build a level-2 small-page entry mapping 4 KiB at ``phys_base``."""
    return (phys_base & PAGE_MASK) | (int(bool(xn)) << 6) | (ap << 4) | ENTRY_PAGE


class PageTableWalker:
    """Walks guest page tables in physical memory.

    The walker is shared by every engine; what differs between engines
    is the *caching structure in front of it* (single-level page cache,
    modelled TLB, softmmu TLB array), exactly as in the paper's
    Figure 4.
    """

    def __init__(self, memory):
        self._memory = memory
        #: Total page-table levels traversed (for cost accounting).
        self.levels_walked = 0
        #: Number of walks performed.
        self.walks = 0

    def walk(self, ttbr, vaddr, access, is_kernel):
        """Translate ``vaddr``; returns :class:`TranslationResult` or
        raises :class:`Fault`."""
        self.walks += 1
        l1_index = (vaddr >> L1_SHIFT) & 0xFFF
        try:
            l1_entry = self._memory.read32((ttbr & ~0x3FFF) + 4 * l1_index)
        except BusError:
            raise Fault(FaultType.BUS, vaddr, access)
        self.levels_walked += 1
        kind = l1_entry & 0x3
        if kind == ENTRY_SECTION:
            ap = (l1_entry >> 4) & 0x3
            xn = bool((l1_entry >> 6) & 1)
            result = TranslationResult(
                paddr=(l1_entry & SECTION_MASK) | (vaddr & ~SECTION_MASK),
                vpage=vaddr & SECTION_MASK,
                ppage=l1_entry & SECTION_MASK,
                page_size=1 << L1_SHIFT,
                ap=ap,
                xn=xn,
                levels=1,
            )
        elif kind == ENTRY_COARSE:
            l2_base = l1_entry & 0xFFFFFC00
            l2_index = (vaddr >> L2_SHIFT) & 0xFF
            try:
                l2_entry = self._memory.read32(l2_base + 4 * l2_index)
            except BusError:
                raise Fault(FaultType.BUS, vaddr, access)
            self.levels_walked += 1
            if (l2_entry & 0x3) != ENTRY_PAGE:
                raise Fault(FaultType.TRANSLATION_L2, vaddr, access)
            ap = (l2_entry >> 4) & 0x3
            xn = bool((l2_entry >> 6) & 1)
            result = TranslationResult(
                paddr=(l2_entry & PAGE_MASK) | (vaddr & ~PAGE_MASK),
                vpage=vaddr & PAGE_MASK,
                ppage=l2_entry & PAGE_MASK,
                page_size=1 << L2_SHIFT,
                ap=ap,
                xn=xn,
                levels=2,
            )
        else:
            raise Fault(FaultType.TRANSLATION_L1, vaddr, access)
        if not result.allows(access, is_kernel):
            raise Fault(FaultType.PERMISSION, vaddr, access)
        return result


class PageTableBuilder:
    """Helper for constructing guest page tables directly in RAM.

    Used by host-side test code; the benchmarks build their own tables
    from guest code via the architecture support packages.
    """

    def __init__(self, memory, ttbr, l2_pool_base):
        self._memory = memory
        self.ttbr = ttbr & ~0x3FFF
        self._l2_pool = l2_pool_base
        self._l2_allocated = {}

    def clear(self):
        for i in range(4096):
            self._memory.write32(self.ttbr + 4 * i, 0)

    def map_section(self, vaddr, paddr, ap=AP_KERNEL_RW, xn=False):
        index = (vaddr >> L1_SHIFT) & 0xFFF
        self._memory.write32(self.ttbr + 4 * index, make_section_entry(paddr, ap, xn))

    def unmap_l1(self, vaddr):
        index = (vaddr >> L1_SHIFT) & 0xFFF
        self._memory.write32(self.ttbr + 4 * index, 0)

    def map_page(self, vaddr, paddr, ap=AP_KERNEL_RW, xn=False):
        l1_index = (vaddr >> L1_SHIFT) & 0xFFF
        l2_base = self._l2_allocated.get(l1_index)
        if l2_base is None:
            l2_base = self._l2_pool
            self._l2_pool += 0x400
            self._l2_allocated[l1_index] = l2_base
            for i in range(256):
                self._memory.write32(l2_base + 4 * i, 0)
            self._memory.write32(self.ttbr + 4 * l1_index, make_coarse_entry(l2_base))
        l2_index = (vaddr >> L2_SHIFT) & 0xFF
        self._memory.write32(l2_base + 4 * l2_index, make_page_entry(paddr, ap, xn))

    def unmap_page(self, vaddr):
        l1_index = (vaddr >> L1_SHIFT) & 0xFFF
        l2_base = self._l2_allocated.get(l1_index)
        if l2_base is None:
            return
        l2_index = (vaddr >> L2_SHIFT) & 0xFF
        self._memory.write32(l2_base + 4 * l2_index, 0)
