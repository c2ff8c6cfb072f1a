"""TLB models used by the different engines.

Two structures are provided:

- :class:`SoftTLB` -- an associative map with FIFO eviction, used by the
  interpreters and by the functional core.  Capacity, hit/miss counters
  and flush/invalidate statistics are first-class so the TLB Eviction /
  TLB Flush benchmarks observe real behaviour.
- :class:`SetAssociativeTLB` -- a direct-mapped/k-way structure with a
  modelled replacement policy, used by the detailed (Gem5-like) engine.
"""

import collections

from repro.machine.mmu import L2_SHIFT


def _vpage(vaddr):
    return vaddr >> L2_SHIFT


class SoftTLB:
    """An associative TLB with FIFO replacement.

    Entries are keyed by (virtual page, kernel-mode flag is *not* part of
    the key -- permissions are stored and checked per access, mirroring
    hardware TLBs that store AP bits).
    """

    def __init__(self, capacity=64):
        self.capacity = capacity
        self._entries = collections.OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.flushes = 0
        self.invalidations = 0

    def lookup(self, vaddr):
        entry = self._entries.get(vaddr >> L2_SHIFT)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def peek(self, vaddr):
        """``lookup`` without touching the hit/miss tallies (used by
        the engines' last-data-page fast path to capture the live
        entry after an accounted translation)."""
        return self._entries.get(vaddr >> L2_SHIFT)

    def insert(self, vaddr, result):
        key = _vpage(vaddr)
        if key not in self._entries and len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = result

    def invalidate(self, vaddr):
        self.invalidations += 1
        return self._entries.pop(_vpage(vaddr), None) is not None

    def invalidate_ppage(self, ppage_base):
        """Drop every entry whose physical page matches (SMC support)."""
        doomed = [k for k, v in self._entries.items() if v.ppage == ppage_base]
        for key in doomed:
            del self._entries[key]
        return len(doomed)

    def flush(self):
        self.flushes += 1
        self._entries.clear()

    def __len__(self):
        return len(self._entries)

    def __contains__(self, vaddr):
        return _vpage(vaddr) in self._entries


class ASIDTaggedTLB(SoftTLB):
    """A SoftTLB whose entries are tagged with the current ASID.

    Mirrors hardware with address-space identifiers (the ARM ASID /
    x86 PCID the paper names as future work): switching address spaces
    does *not* require a TLB flush, because entries from different
    contexts coexist under different tags.  Engines set
    :attr:`current_asid` from the CP15 ASID write hook.
    """

    def __init__(self, capacity=64):
        super().__init__(capacity=capacity)
        self.current_asid = 0

    def _key(self, vaddr):
        return (self.current_asid, vaddr >> L2_SHIFT)

    def lookup(self, vaddr):
        entry = self._entries.get(self._key(vaddr))
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def peek(self, vaddr):
        return self._entries.get(self._key(vaddr))

    def insert(self, vaddr, result):
        key = self._key(vaddr)
        if key not in self._entries and len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = result

    def invalidate(self, vaddr):
        self.invalidations += 1
        return self._entries.pop(self._key(vaddr), None) is not None

    def invalidate_all_asids(self, vaddr):
        """Drop the page's entry under every ASID (global invalidate)."""
        vpage = vaddr >> L2_SHIFT
        doomed = [key for key in self._entries if key[1] == vpage]
        for key in doomed:
            del self._entries[key]
        return len(doomed)

    def __contains__(self, vaddr):
        return self._key(vaddr) in self._entries

    def entries_for_asid(self, asid):
        return sum(1 for key in self._entries if key[0] == asid)


class SetAssociativeTLB:
    """A k-way set-associative TLB with LRU replacement per set.

    This mirrors the 'Modelled TLB' of the detailed engine: lookups
    compute a set index and scan ways, and the replacement decision is
    modelled explicitly -- which makes it measurably slower to simulate,
    exactly the effect the paper attributes to Gem5.
    """

    def __init__(self, sets=32, ways=2):
        self.sets = sets
        self.ways = ways
        self._sets = [[] for _ in range(sets)]  # list of (vpage, entry), MRU last
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.flushes = 0
        self.invalidations = 0

    def _set_for(self, vpage):
        return self._sets[vpage % self.sets]

    def lookup(self, vaddr):
        vpage = _vpage(vaddr)
        bucket = self._set_for(vpage)
        for i, (tag, entry) in enumerate(bucket):
            if tag == vpage:
                # Move to MRU position (modelled LRU update).
                bucket.append(bucket.pop(i))
                self.hits += 1
                return entry
        self.misses += 1
        return None

    def insert(self, vaddr, result):
        vpage = _vpage(vaddr)
        bucket = self._set_for(vpage)
        for i, (tag, _entry) in enumerate(bucket):
            if tag == vpage:
                bucket.pop(i)
                break
        if len(bucket) >= self.ways:
            bucket.pop(0)
            self.evictions += 1
        bucket.append((vpage, result))

    def invalidate(self, vaddr):
        self.invalidations += 1
        vpage = _vpage(vaddr)
        bucket = self._set_for(vpage)
        for i, (tag, _entry) in enumerate(bucket):
            if tag == vpage:
                bucket.pop(i)
                return True
        return False

    def invalidate_ppage(self, ppage_base):
        removed = 0
        for bucket in self._sets:
            keep = [(t, e) for (t, e) in bucket if e.ppage != ppage_base]
            removed += len(bucket) - len(keep)
            bucket[:] = keep
        return removed

    def flush(self):
        self.flushes += 1
        for bucket in self._sets:
            bucket.clear()

    def __len__(self):
        return sum(len(bucket) for bucket in self._sets)
