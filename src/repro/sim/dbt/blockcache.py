"""Translated blocks and the translation cache."""


class TranslatedBlock:
    """One translated guest basic block.

    ``fn(engine)`` executes the block and returns:

    - another :class:`TranslatedBlock` -- a followed chain link;
    - an ``int`` -- the virtual address to dispatch to next;
    - ``None`` -- control state changed (exception entry/return, halt,
      wait-for-interrupt); the dispatcher restarts from ``cpu.pc``.

    ``succ_taken``/``succ_not`` are the chaining slots patched by the
    dispatcher; ``valid`` is cleared on invalidation so stale chain
    links are never followed.

    Superblocks (``opt_level >= 2`` traces spanning two guest blocks)
    need no extra state: the internal crossing uses this block's own
    ``succ_taken`` slot -- patched by the dispatcher to the *standalone*
    tail block on the crossing's first execution -- as both its chain
    state and its handle on the standalone block, whose ``succ`` slots
    the inlined tail's exits then patch and follow.  Standalone and
    inlined executions of the tail therefore share one chain lifecycle,
    exactly as the baseline's single tail block would.
    """

    __slots__ = (
        "fn",
        "vaddr",
        "paddr",
        "insn_count",
        "valid",
        "succ_taken",
        "succ_not",
        "source",
        "word_bytes",
    )

    def __init__(self, vaddr, paddr, insn_count, fn, source=None):
        self.vaddr = vaddr
        self.paddr = paddr
        self.insn_count = insn_count
        self.fn = fn
        self.valid = True
        self.succ_taken = None
        self.succ_not = None
        self.source = source
        #: Raw instruction bytes the block was translated from (the
        #: content identity used by memoization and retranslation
        #: accounting); ``None`` for hand-built blocks in tests.
        self.word_bytes = None

    @property
    def ppage(self):
        return self.paddr >> 12

    def set_succ(self, slot, block):
        if slot == 0:
            self.succ_taken = block
        else:
            self.succ_not = block

    def invalidate(self):
        self.valid = False
        self.succ_taken = None
        self.succ_not = None

    def __repr__(self):
        return "TranslatedBlock(v=0x%08x, p=0x%08x, n=%d, valid=%r)" % (
            self.vaddr,
            self.paddr,
            self.insn_count,
            self.valid,
        )


class TranslationCache:
    """Block cache keyed by (virtual, physical) start address.

    A per-physical-page index supports self-modifying-code
    invalidation; overflow flushes the whole cache (QEMU-style).
    """

    def __init__(self, capacity=16384):
        self.capacity = capacity
        self._blocks = {}
        self._by_page = {}
        self.full_flushes = 0

    def __len__(self):
        return len(self._blocks)

    @property
    def blocks(self):
        """The live ``(vaddr, paddr) -> block`` dict (never rebound, so
        a caller may keep a reference and probe it directly)."""
        return self._blocks

    @property
    def pages(self):
        """Set-like view of physical pages containing translated code."""
        return self._by_page.keys()

    def get(self, vaddr, paddr):
        return self._blocks.get((vaddr, paddr))

    def insert(self, block):
        if len(self._blocks) >= self.capacity:
            self.flush()
        key = (block.vaddr, block.paddr)
        old = self._blocks.get(key)
        if old is not None:
            old.invalidate()
        self._blocks[key] = block
        self._by_page.setdefault(block.ppage, set()).add(key)

    def invalidate_page(self, ppage):
        """Invalidate every block on a physical page; returns count."""
        keys = self._by_page.pop(ppage, None)
        if not keys:
            return 0
        for key in keys:
            block = self._blocks.pop(key, None)
            if block is not None:
                block.invalidate()
        return len(keys)

    def flush(self):
        for block in self._blocks.values():
            block.invalidate()
        self._blocks.clear()
        self._by_page.clear()
        self.full_flushes += 1
