"""The translator: guest basic blocks -> compiled Python functions.

This is the reproduction's "TCG": each guest basic block is decoded
once, lowered to Python source, and compiled with :func:`compile`.
Executing a block therefore runs host (CPython) bytecode -- genuinely
fast compared to interpretation -- while translation itself genuinely
costs time, which is exactly the trade-off the Code Generation
benchmarks probe.

Lowering has two tiers, selected by the host-only
``DBTConfig.opt_level``:

- **Level 0** -- the direct emitter: one Python statement per guest
  instruction, no analysis.
- **Level 1** -- decode is lifted into the explicit IR
  (:mod:`repro.sim.dbt.ir`) and run through the peephole pipeline
  (:mod:`repro.sim.dbt.passes`) before emission: constant folding,
  dead flag/store elimination, and adjacent-pair fusion.
- **Level 2** -- additionally forms *superblocks*: when a block ends
  in an unconditional same-page direct branch (and chaining is
  enabled), the branch target is decoded too and both blocks compile
  as one unit -- the shape of a bottom-branching loop, where the tail
  jumps back to an earlier head.  The internal branch becomes a
  *crossing* with dispatcher-equivalent accounting and
  limit/interrupt side-exit guards; its first execution exits to the
  dispatcher so the successor is translated and dispatched exactly as
  the baseline would have, making guest counters bit-identical to
  running the blocks separately (see :meth:`Translator._plan_trace`
  for why traces stop at one crossing).

Generated blocks follow the contract documented on
:class:`~repro.sim.dbt.blockcache.TranslatedBlock`.
"""

import collections

from repro.errors import DecodeError
from repro.isa.decoder import decode
from repro.isa.encoding import BLOCK_END_OPS, MEM_OPS, Op
from repro.obs.metrics import METRICS
from repro.sim.dbt import codestore
from repro.sim.dbt.blockcache import TranslatedBlock
from repro.sim.dbt.ir import lift_block, lift_trace
from repro.sim.dbt.passes import run_pipeline

MASK = "4294967295"
PAGE_SHIFT = 12

#: Superblock formation caps.  Traces stop at TWO segments (one
#: crossing) because the counter-parity argument depends on it: a
#: single crossing executes exactly when the baseline head block's
#: exit would, so its link state can mirror the baseline chain patch
#: one-for-one.  A second crossing would go cold while the baseline's
#: corresponding chain is warmed by the standalone dispatch the first
#: crossing triggers, swapping a ``chain_follows`` for a
#: ``slow_dispatches`` on its first inline execution.
SB_MAX_SEGMENTS = 2
SB_MAX_INSNS = 256

#: Inline branch-condition expressions over ``_x``/``_y`` (the latched
#: unsigned 32-bit CMP operands), equivalent to ``set_flags_sub(x, y)``
#: followed by ``condition_holds(cond)``.  Signed comparisons bias both
#: sides by 2**31; MI/PL test bit 31 of the difference (Python ints are
#: two's-complement under ``&``).
_COND_EXPR = {
    1: "_x == _y",  # EQ: Z
    2: "_x != _y",  # NE: !Z
    3: "(_x ^ 2147483648) < (_y ^ 2147483648)",  # LT: N != V
    4: "(_x ^ 2147483648) >= (_y ^ 2147483648)",  # GE: N == V
    5: "(_x ^ 2147483648) <= (_y ^ 2147483648)",  # LE: Z or N != V
    6: "(_x ^ 2147483648) > (_y ^ 2147483648)",  # GT: !Z and N == V
    7: "_x < _y",  # LO: !C
    8: "_x >= _y",  # HS: C
    9: "(_x - _y) & 2147483648",  # MI: N
    10: "not (_x - _y) & 2147483648",  # PL: !N
}


class _MemoEntry:
    """Reusable product of one lowering: everything except the block
    object itself, which carries per-engine chain state and must stay
    private to its translation cache.

    ``segments`` (superblocks only) holds ``(delta, word_bytes)`` for
    every continuation segment, ``delta`` relative to the head's
    address, so a memo hit can verify the *whole* trace against live
    memory; ``n_crossings`` records how many internal crossings the
    unit compiled with (0 for plain blocks).
    """

    __slots__ = ("word_bytes", "insn_count", "source", "make", "segments", "n_crossings")

    def __init__(self, word_bytes, insn_count, source, make, segments=None, n_crossings=0):
        self.word_bytes = word_bytes
        self.insn_count = insn_count
        self.source = source
        self.make = make
        self.segments = segments
        self.n_crossings = n_crossings


def _entry_matches(memory, paddr, entry):
    """True when the live bytes at ``paddr`` still spell the memoized
    unit (every segment of it, for superblocks).  Compared straight
    out of the RAM region (no ``read32``, so no chance of device side
    effects); anything not fully RAM-backed simply misses and takes
    the full path."""
    region = memory.find_ram(paddr, 4)
    if region is None:
        return False
    word_bytes = entry.word_bytes
    if not region.contains(paddr, len(word_bytes)):
        return False
    off = paddr - region.base
    if region.data[off : off + len(word_bytes)] != word_bytes:
        return False
    if entry.segments:
        for delta, seg_bytes in entry.segments:
            seg_paddr = paddr + delta
            if not region.contains(seg_paddr, len(seg_bytes)):
                return False
            soff = seg_paddr - region.base
            if region.data[soff : soff + len(seg_bytes)] != seg_bytes:
                return False
    return True


class TranslationMemo:
    """Process-wide bounded LRU of lowered+compiled blocks.

    Keyed by ``(vaddr, DBTConfig.translation_key())``; generated source
    embeds absolute PCs, so the start address is part of the identity.
    Every guest program loads at the same addresses, so one key sees
    many different blocks over a grid: each key keeps up to
    :attr:`VARIANTS` entries, most recently used first, and a program
    that comes back finds its blocks still compiled.  :meth:`get`
    returns only an entry verified against the live instruction bytes
    (every segment of them, for superblocks -- the trace plan is a pure
    function of the bytes, so byte equality implies plan equality; see
    :meth:`Translator.translate`), which makes entries safe across
    self-modifying code and across the many engines of a sweep.

    At most ``capacity`` entries are held in total; past that the
    least-recently-used key gives up its oldest variant first.
    """

    #: Variants per key.  The 18 SimBench kernels put at most 14
    #: distinct blocks behind one key, so a daemon or pool worker keeps
    #: the whole suite compiled; a miss checks every variant, which is
    #: still microseconds against a ``compile()`` of about 0.5 ms.
    VARIANTS = 16

    def __init__(self, capacity=16384):
        self.capacity = capacity
        # key -> [entry, ...], most recent first; dict order is LRU
        # order over keys.
        self._entries = collections.OrderedDict()
        self._size = 0
        self.hits = 0
        self.misses = 0

    def get(self, key, memory, paddr):
        """The entry for ``key`` whose bytes match live memory at
        ``paddr``, or None."""
        variants = self._entries.get(key)
        if variants is not None:
            for index, entry in enumerate(variants):
                if _entry_matches(memory, paddr, entry):
                    if index:
                        del variants[index]
                        variants.insert(0, entry)
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return entry
        self.misses += 1
        return None

    def insert(self, key, entry):
        """Make ``entry`` the most recent variant of ``key``.  Callers
        insert only after :meth:`get` missed, so no held variant
        matches the same bytes."""
        entries = self._entries
        variants = entries.get(key)
        if variants is None:
            entries[key] = [entry]
        else:
            variants.insert(0, entry)
            entries.move_to_end(key)
            if len(variants) > self.VARIANTS:
                variants.pop()
                self._size -= 1
        self._size += 1
        while self._size > self.capacity:
            oldest_key, oldest = next(iter(entries.items()))
            oldest.pop()
            self._size -= 1
            if not oldest:
                del entries[oldest_key]

    def entries(self):
        """Every held entry, least recently used key first."""
        return [entry for variants in self._entries.values() for entry in variants]

    def clear(self):
        self._entries.clear()
        self._size = 0

    def __len__(self):
        return self._size


#: Shared across every engine in the process: a 20-version sweep
#: lowers and compiles each distinct block once, not twenty times.
TRANSLATION_MEMO = TranslationMemo()


class _EmitCtx:
    """Per-lowering emission state.

    ``accounted`` is the number of instructions already covered by an
    emitted ``c.instructions`` increment.  A fresh context per
    ``_generate*`` call keeps the translator reentrant (no mutable
    instance state threads across emitter calls) and makes the
    incremental-accounting invariant explicit.
    """

    __slots__ = ("accounted",)

    def __init__(self):
        self.accounted = 0


class Translator:
    """Translates basic blocks under a given :class:`DBTConfig`."""

    def __init__(self, config):
        self.config = config

    # ------------------------------------------------------------------
    def translate(self, memory, vaddr, paddr):
        """Translate the compiled unit starting at ``vaddr`` (physical
        ``paddr``) and return a :class:`TranslatedBlock`.

        Hot path: a memo (or persistent code-store) hit binds an
        already-compiled ``make`` factory to a fresh block -- no
        lowering, no ``compile``, no ``exec`` (memo) / one ``exec``
        (disk).  Accounting is the caller's and does not change with
        the cache level that served the block.

        The superblock trace plan (``opt_level >= 2``) is a pure
        function of the instruction bytes, so the memo key never
        carries it: verifying every memoized segment against live
        memory already pins the plan down.
        """
        cfg = self.config
        cfg_key = cfg.translation_key()
        memo_key = (vaddr, cfg_key)
        if cfg.memoize:
            entry = TRANSLATION_MEMO.get(memo_key, memory, paddr)
            if entry is not None:
                return self._bind(entry, vaddr, paddr)
        if cfg.opt_level >= 2:
            segments = self._plan_trace(memory, vaddr, paddr)
        else:
            insns, word_bytes = self._decode_block(memory, paddr)
            segments = [(vaddr, insns, word_bytes)]
        word_bytes = segments[0][2]
        deltas = tuple((seg[0] - vaddr, seg[2]) for seg in segments[1:]) or None
        entry = None
        store = codestore.active()
        key = None
        if store is not None:
            key = codestore.block_key(cfg_key, vaddr, word_bytes, deltas)
            payload = store.get(key)
            if payload is not None and payload[0] == word_bytes:
                _wb, insn_count, source, code = payload
                namespace = {}
                exec(code, namespace)
                entry = _MemoEntry(
                    word_bytes,
                    insn_count,
                    source,
                    namespace["make"],
                    segments=deltas,
                    n_crossings=len(segments) - 1,
                )
        if entry is None:
            if cfg.opt_level >= 1:
                source, n_crossings, stats = self._generate_opt(segments)
            else:
                source = self._generate(segments[0][1], vaddr)
                n_crossings, stats = 0, None
            code = compile(source, "<dbt block 0x%08x>" % vaddr, "exec")
            namespace = {}
            exec(code, namespace)
            entry = _MemoEntry(
                word_bytes,
                len(segments[0][1]),
                source,
                namespace["make"],
                segments=deltas,
                n_crossings=n_crossings,
            )
            if key is not None:
                store.put(key, (word_bytes, entry.insn_count, source, code))
            if METRICS.enabled and stats is not None:
                if len(segments) > 1:
                    METRICS.inc("dbt.superblocks")
                if stats["insns_folded"]:
                    METRICS.inc("dbt.insns_folded", stats["insns_folded"])
                if stats["stores_elided"]:
                    METRICS.inc("dbt.stores_elided", stats["stores_elided"])
                if stats["flags_elided"]:
                    METRICS.inc("dbt.flags_elided", stats["flags_elided"])
                if stats["pairs_fused"]:
                    METRICS.inc("dbt.pairs_fused", stats["pairs_fused"])
        if cfg.memoize:
            TRANSLATION_MEMO.insert(memo_key, entry)
        return self._bind(entry, vaddr, paddr)

    @staticmethod
    def _bind(entry, vaddr, paddr):
        block = TranslatedBlock(
            vaddr, paddr, entry.insn_count, fn=None, source=entry.source
        )
        block.word_bytes = entry.word_bytes
        block.fn = entry.make(block)
        return block

    def _decode_block(self, memory, paddr):
        """Decode instructions until a block-ending op, the page end, or
        the configured length limit.  Undecodable words terminate the
        block with an UNDEF terminal (handled in codegen via op=None).
        Returns ``(insns, word_bytes)``; the raw bytes are the block's
        content identity for memoization and SMC verification."""
        insns = []
        words = bytearray()
        addr = paddr
        page_end = (paddr | ((1 << PAGE_SHIFT) - 1)) + 1
        max_insns = self.config.max_block_insns
        while addr < page_end and len(insns) < max_insns:
            word = memory.read32(addr)
            words += word.to_bytes(4, "little")
            try:
                insn = decode(word)
            except DecodeError:
                insns.append(None)  # undefined encoding terminal
                break
            insns.append(insn)
            if insn.op in BLOCK_END_OPS:
                break
            addr += 4
        return insns, bytes(words)

    def _plan_trace(self, memory, vaddr, paddr):
        """Plan a superblock: follow unconditional same-page direct
        branches through decode.  Returns ``[(vaddr, insns,
        word_bytes), ...]`` (length 1 when no trace forms).

        Formation is purely static -- a function of the bytes alone --
        so the same trace forms on every engine and on every memo hit.
        It requires ``chain_enabled``: crossings replay *chained*
        dispatch accounting, and a chain-less baseline would re-check
        the fetch translation at every dispatch, which inlined code
        cannot replay.  Traces stop at one crossing (two segments); see
        ``SB_MAX_SEGMENTS`` for why more would break counter parity.
        """
        segments = []
        seen = {vaddr}
        cur_v, cur_p = vaddr, paddr
        total = 0
        page = vaddr >> PAGE_SHIFT
        follow = self.config.chain_enabled
        while True:
            insns, word_bytes = self._decode_block(memory, cur_p)
            segments.append((cur_v, insns, word_bytes))
            total += len(insns)
            if (
                not follow
                or len(segments) >= SB_MAX_SEGMENTS
                or total >= SB_MAX_INSNS
            ):
                break
            last = insns[-1]
            if last is None or last.op is not Op.B or last.cond != 0:
                break
            last_pc = cur_v + 4 * (len(insns) - 1)
            target = (last_pc + 4 + 4 * last.imm) & 0xFFFFFFFF
            if (target >> PAGE_SHIFT) != page or target in seen:
                break
            tpaddr = (cur_p & ~((1 << PAGE_SHIFT) - 1)) | (target & ((1 << PAGE_SHIFT) - 1))
            seen.add(target)
            cur_v, cur_p = target, tpaddr
        return segments

    # ------------------------------------------------------------------
    # Code generation: the level-0 direct emitter
    # ------------------------------------------------------------------
    def _generate(self, insns, vaddr):
        lines = [
            "def make(blk):",
            "    def block(s):",
            "        cpu = s.cpu",
            "        r = cpu.regs",
            "        c = s.counters",
        ]
        body = []
        n = len(insns)
        terminal_emitted = False
        # Instructions are accounted incrementally: before every helper
        # call that might fault or touch a device (so counters are exact
        # at side exits and at device-observed snapshot points), and the
        # remainder at the terminal.
        ctx = _EmitCtx()
        for idx, insn in enumerate(insns):
            pc = vaddr + 4 * idx
            if insn is None:
                self._emit_undef_terminal(ctx, body, pc, idx)
                terminal_emitted = True
                break
            if insn.op in BLOCK_END_OPS:
                self._emit_terminal(ctx, body, insn, pc, idx, n)
                terminal_emitted = True
                break
            self._emit_insn(ctx, body, insn, pc, idx)
        if not terminal_emitted:
            # Fall off the end of the block (length/page limit).
            next_pc = vaddr + 4 * n
            self._emit_account(ctx, body, n)
            body.append("cpu.pc = %d" % next_pc)
            self._emit_chain_exit(body, vaddr + 4 * (n - 1), next_pc, slot=0)
        if not body:
            body.append("pass")
        lines.extend("        " + line for line in body)
        lines.append("    return block")
        return "\n".join(lines) + "\n"

    @staticmethod
    def _emit_account(ctx, body, through):
        """Emit 'instructions += k' covering insns up to index ``through``
        (exclusive count), relative to what is already accounted."""
        pending = through - ctx.accounted
        if pending > 0:
            body.append("c.instructions += %d" % pending)
            ctx.accounted = through

    # -- straight-line instructions --------------------------------------
    def _emit_insn(self, ctx, body, insn, pc, idx):
        op = insn.op
        rd, rn, rm, imm = insn.rd, insn.rn, insn.rm, insn.imm
        if op == Op.NOP:
            return
        if op == Op.ADD:
            body.append("r[%d] = (r[%d] + r[%d]) & %s" % (rd, rn, rm, MASK))
        elif op == Op.SUB:
            body.append("r[%d] = (r[%d] - r[%d]) & %s" % (rd, rn, rm, MASK))
        elif op == Op.AND:
            body.append("r[%d] = r[%d] & r[%d]" % (rd, rn, rm))
        elif op == Op.ORR:
            body.append("r[%d] = r[%d] | r[%d]" % (rd, rn, rm))
        elif op == Op.EOR:
            body.append("r[%d] = r[%d] ^ r[%d]" % (rd, rn, rm))
        elif op == Op.LSL:
            body.append("r[%d] = (r[%d] << (r[%d] & 31)) & %s" % (rd, rn, rm, MASK))
        elif op == Op.LSR:
            body.append("r[%d] = r[%d] >> (r[%d] & 31)" % (rd, rn, rm))
        elif op == Op.ASR:
            body.append("_t = r[%d]" % rn)
            body.append("if _t & 2147483648: _t -= 4294967296")
            body.append("r[%d] = (_t >> (r[%d] & 31)) & %s" % (rd, rm, MASK))
        elif op == Op.MUL:
            body.append("r[%d] = (r[%d] * r[%d]) & %s" % (rd, rn, rm, MASK))
        elif op == Op.UDIV:
            body.append("_d = r[%d]" % rm)
            body.append("r[%d] = r[%d] // _d if _d else 0" % (rd, rn))
        elif op == Op.UREM:
            body.append("_d = r[%d]" % rm)
            body.append("r[%d] = r[%d] %% _d if _d else 0" % (rd, rn))
        elif op == Op.MOV:
            body.append("r[%d] = r[%d]" % (rd, rm))
        elif op == Op.MVN:
            body.append("r[%d] = r[%d] ^ %s" % (rd, rm, MASK))
        elif op == Op.CMP:
            body.append("cpu.set_flags_sub(r[%d], r[%d])" % (rn, rm))
        elif op == Op.ADDI:
            body.append("r[%d] = (r[%d] + %d) & %s" % (rd, rn, imm, MASK))
        elif op == Op.SUBI:
            body.append("r[%d] = (r[%d] - %d) & %s" % (rd, rn, imm, MASK))
        elif op == Op.ANDI:
            body.append("r[%d] = r[%d] & %d" % (rd, rn, imm))
        elif op == Op.ORRI:
            body.append("r[%d] = r[%d] | %d" % (rd, rn, imm))
        elif op == Op.EORI:
            body.append("r[%d] = r[%d] ^ %d" % (rd, rn, imm))
        elif op == Op.LSLI:
            body.append("r[%d] = (r[%d] << %d) & %s" % (rd, rn, imm & 31, MASK))
        elif op == Op.LSRI:
            body.append("r[%d] = r[%d] >> %d" % (rd, rn, imm & 31))
        elif op == Op.ASRI:
            body.append("_t = r[%d]" % rn)
            body.append("if _t & 2147483648: _t -= 4294967296")
            body.append("r[%d] = (_t >> %d) & %s" % (rd, imm & 31, MASK))
        elif op == Op.MULI:
            body.append("r[%d] = (r[%d] * %d) & %s" % (rd, rn, imm, MASK))
        elif op == Op.MOVI:
            body.append("r[%d] = %d" % (rd, imm))
        elif op == Op.MOVT:
            body.append("r[%d] = (r[%d] & 65535) | %d" % (rd, rd, imm << 16))
        elif op == Op.CMPI:
            body.append("cpu.set_flags_sub(r[%d], %d)" % (rn, imm))
        elif op == Op.LDR:
            self._emit_account(ctx, body, idx + 1)
            body.append("s.fault_state = (%d, %d)" % (pc, idx))
            body.append("r[%d] = s.mem_read32((r[%d] + %d) & %s)" % (rd, rn, imm, MASK))
        elif op == Op.STR:
            self._emit_account(ctx, body, idx + 1)
            body.append("s.fault_state = (%d, %d)" % (pc, idx))
            body.append("s.mem_write32((r[%d] + %d) & %s, r[%d])" % (rn, imm, MASK, rd))
        elif op == Op.LDRB:
            self._emit_account(ctx, body, idx + 1)
            body.append("s.fault_state = (%d, %d)" % (pc, idx))
            body.append("r[%d] = s.mem_read8((r[%d] + %d) & %s)" % (rd, rn, imm, MASK))
        elif op == Op.STRB:
            self._emit_account(ctx, body, idx + 1)
            body.append("s.fault_state = (%d, %d)" % (pc, idx))
            body.append(
                "s.mem_write8((r[%d] + %d) & %s, r[%d] & 255)" % (rn, imm, MASK, rd)
            )
        elif op == Op.LDRT:
            self._emit_account(ctx, body, idx + 1)
            body.append("s.fault_state = (%d, %d)" % (pc, idx))
            body.append(
                "r[%d] = s.mem_read32_user((r[%d] + %d) & %s)" % (rd, rn, imm, MASK)
            )
        elif op == Op.STRT:
            self._emit_account(ctx, body, idx + 1)
            body.append("s.fault_state = (%d, %d)" % (pc, idx))
            body.append(
                "s.mem_write32_user((r[%d] + %d) & %s, r[%d])" % (rn, imm, MASK, rd)
            )
        elif op == Op.MRC:
            self._emit_account(ctx, body, idx + 1)
            body.append("s.fault_state = (%d, %d)" % (pc, idx))
            body.append("r[%d] = s.cop_read(%d, %d)" % (rd, rn, imm & 0xFF))
        elif op == Op.MCR:
            self._emit_account(ctx, body, idx + 1)
            body.append("s.fault_state = (%d, %d)" % (pc, idx))
            body.append("s.cop_write(%d, %d, r[%d])" % (rn, imm & 0xFF, rd))
        elif op == Op.CPS:
            body.append("s.fault_state = (%d, %d)" % (pc, idx))
            body.append("s.do_cps(%d)" % imm)
        else:  # pragma: no cover - BLOCK_END ops handled elsewhere
            raise AssertionError("unexpected op in straight-line emitter: %r" % op)

    # -- terminals ---------------------------------------------------------
    def _chainable(self, from_pc, to_pc):
        if not self.config.chain_enabled:
            return False
        if (from_pc >> PAGE_SHIFT) == (to_pc >> PAGE_SHIFT):
            return True
        return self.config.chain_cross_page

    def _emit_chain_exit(self, body, from_pc, target, slot, obj="blk"):
        """Emit the block exit for a statically-known target.

        ``obj`` names the block whose chain slots the exit patches and
        follows: ``blk`` normally, ``hb`` (the standalone tail block)
        for exits emitted inside a superblock's inlined tail segment,
        so both copies of the tail share one chain lifecycle.
        """
        attr = "succ_taken" if slot == 0 else "succ_not"
        if self._chainable(from_pc, target):
            body.append("nb = %s.%s" % (obj, attr))
            body.append("if nb is not None and nb.valid:")
            body.append("    c.chain_follows += 1")
            body.append("    return nb")
            body.append("%s.%s = None" % (obj, attr))
            body.append("s.pending_chain = (%s, %d)" % (obj, slot))
        body.append("return %d" % target)

    def _branch_counter(self, from_pc, target, direct):
        same = (from_pc >> PAGE_SHIFT) == (target >> PAGE_SHIFT)
        if direct:
            return "branches_direct_intra" if same else "branches_direct_inter"
        return "branches_indirect_intra" if same else "branches_indirect_inter"

    def _emit_terminal(self, ctx, body, insn, pc, idx, n):
        op = insn.op
        count = idx + 1
        next_pc = pc + 4
        if op in (Op.B, Op.BL):
            target = (pc + 4 + 4 * insn.imm) & 0xFFFFFFFF
            taken = []
            if op == Op.BL:
                taken.append("r[14] = %d" % next_pc)
                taken.append("c.calls += 1")
            taken.append("c.%s += 1" % self._branch_counter(pc, target, True))
            taken.append("cpu.pc = %d" % target)
            taken_exit = []
            self._emit_chain_exit(taken_exit, pc, target, slot=0)
            self._emit_account(ctx, body, count)
            if insn.cond == 0:
                body.extend(taken)
                body.extend(taken_exit)
                return
            body.append("if cpu.condition_holds(%d):" % insn.cond)
            for line in taken + taken_exit:
                body.append("    " + line)
            body.append("c.branches_not_taken += 1")
            body.append("cpu.pc = %d" % next_pc)
            self._emit_chain_exit(body, pc, next_pc, slot=1)
            return
        if op in (Op.BR, Op.BLR):
            self._emit_account(ctx, body, count)
            body.append("_t = r[%d]" % insn.rn)
            if op == Op.BLR:
                body.append("r[14] = %d" % next_pc)
                body.append("c.calls += 1")
            body.append("if (_t >> 12) == %d:" % (pc >> PAGE_SHIFT))
            body.append("    c.branches_indirect_intra += 1")
            body.append("else:")
            body.append("    c.branches_indirect_inter += 1")
            body.append("cpu.pc = _t")
            body.append("return _t")
            return
        if op == Op.SWI:
            self._emit_account(ctx, body, count)
            body.append("c.syscalls += 1")
            body.append("s.do_swi(%d)" % next_pc)
            body.append("return None")
            return
        if op == Op.UND:
            self._emit_undef_terminal(ctx, body, pc, idx)
            return
        if op == Op.SRET:
            self._emit_account(ctx, body, count)
            body.append("s.fault_state = (%d, %d)" % (pc, idx))
            body.append("s.do_sret()")
            body.append("return None")
            return
        if op == Op.HALT:
            self._emit_account(ctx, body, count)
            body.append("cpu.halted = True")
            body.append("cpu.halt_code = %d" % insn.imm)
            body.append("cpu.pc = %d" % next_pc)
            body.append("return None")
            return
        if op == Op.WFI:
            self._emit_account(ctx, body, count)
            body.append("cpu.waiting = True")
            body.append("cpu.pc = %d" % next_pc)
            body.append("return None")
            return
        if op == Op.CPS:
            # Mode/interrupt-mask changes take effect at the boundary;
            # never chained, so the dispatcher re-checks state.
            self._emit_account(ctx, body, count)
            body.append("s.fault_state = (%d, %d)" % (pc, idx))
            body.append("s.do_cps(%d)" % insn.imm)
            body.append("cpu.pc = %d" % next_pc)
            body.append("return %d" % next_pc)
            return
        raise AssertionError("unexpected terminal op: %r" % op)  # pragma: no cover

    def _emit_undef_terminal(self, ctx, body, pc, idx):
        self._emit_account(ctx, body, idx + 1)
        body.append("c.undefs += 1")
        body.append("s.do_undef(%d)" % (pc + 4))
        body.append("return None")

    # ------------------------------------------------------------------
    # Code generation: the optimizer tier (opt_level >= 1)
    # ------------------------------------------------------------------
    def _generate_opt(self, segments):
        """Lift ``segments`` to IR, run the pass pipeline, and emit.
        Returns ``(source, n_crossings, stats)``."""
        if len(segments) == 1:
            nodes = lift_block(segments[0][1], segments[0][0])
            n_crossings = 0
        else:
            nodes, n_crossings = lift_trace(
                [(seg_vaddr, insns) for seg_vaddr, insns, _wb in segments]
            )
        if METRICS.enabled:
            with METRICS.phase("translate.opt"):
                stats = run_pipeline(nodes, self.config.opt_level)
        else:
            stats = run_pipeline(nodes, self.config.opt_level)
        lines = [
            "def make(blk):",
            "    def block(s):",
            "        cpu = s.cpu",
            "        r = cpu.regs",
            "        c = s.counters",
        ]
        body = []
        ctx = _EmitCtx()
        n = len(nodes)
        terminal_emitted = False
        # Past a crossing, emitted code is the inlined tail segment:
        # its chain exits go through `hb`, the standalone tail block.
        obj = "blk"
        for node in nodes:
            if node.op is None:
                self._emit_undef_terminal(ctx, body, node.pc, node.idx)
                terminal_emitted = True
                break
            if node.crossing is not None:
                self._emit_crossing(ctx, body, node)
                obj = "hb"
                continue
            if node.terminal:
                self._emit_opt_terminal(ctx, body, node, n, obj)
                terminal_emitted = True
                break
            self._emit_opt_insn(ctx, body, node)
        if not terminal_emitted:
            next_pc = nodes[-1].pc + 4
            self._emit_account(ctx, body, n)
            body.append("cpu.pc = %d" % next_pc)
            self._emit_chain_exit(body, nodes[-1].pc, next_pc, slot=0, obj=obj)
        if not body:
            body.append("pass")
        lines.extend("        " + line for line in body)
        lines.append("    return block")
        return "\n".join(lines) + "\n", n_crossings, stats

    @staticmethod
    def _rx(node, reg):
        """The operand expression for ``reg``: a literal when the fold
        pass proved its value, else the register read."""
        value = node.sub(reg)
        return "r[%d]" % reg if value is None else str(value)

    def _addr_expr(self, node):
        """The memory-address expression for a load/store node."""
        imm = node.imm
        if node.addr_from is not None:
            # Fused with the preceding ADDI/SUBI: the base is the `_a`
            # local that was just computed (and stored to the base reg).
            if imm == 0:
                return "_a"
            return "(_a + %d) & %s" % (imm, MASK)
        base = node.sub(node.rn)
        if base is not None:
            return str((base + imm) & 0xFFFFFFFF)
        if imm == 0:
            return "r[%d]" % node.rn  # regs are invariantly masked
        return "(r[%d] + %d) & %s" % (node.rn, imm, MASK)

    def _emit_opt_insn(self, ctx, body, node):
        if node.dead:
            return  # accounting is positional; nothing to emit
        op = node.op
        rd, rn, rm, imm = node.rd, node.rn, node.rm, node.imm
        if op == Op.NOP:
            return
        if node.const_value is not None:
            body.append("r[%d] = %d" % (rd, node.const_value))
            return
        if node.addr_temp:
            sign = "+" if op == Op.ADDI else "-"
            body.append("_a = (r[%d] %s %d) & %s" % (rn, sign, imm, MASK))
            body.append("r[%d] = _a" % rd)
            return
        if op in MEM_OPS:
            self._emit_account(ctx, body, node.idx + 1)
            body.append("s.fault_state = (%d, %d)" % (node.pc, node.idx))
            addr = self._addr_expr(node)
            if op == Op.LDR:
                body.append("r[%d] = s.mem_read32(%s)" % (rd, addr))
            elif op == Op.STR:
                body.append("s.mem_write32(%s, %s)" % (addr, self._rx(node, rd)))
            elif op == Op.LDRB:
                body.append("r[%d] = s.mem_read8(%s)" % (rd, addr))
            elif op == Op.STRB:
                value = node.sub(rd)
                data = "r[%d] & 255" % rd if value is None else str(value & 255)
                body.append("s.mem_write8(%s, %s)" % (addr, data))
            elif op == Op.LDRT:
                body.append("r[%d] = s.mem_read32_user(%s)" % (rd, addr))
            else:  # STRT
                body.append("s.mem_write32_user(%s, %s)" % (addr, self._rx(node, rd)))
            return
        if op in (Op.CMP, Op.CMPI):
            x = self._rx(node, rn)
            y = str(imm) if op == Op.CMPI else self._rx(node, rm)
            if node.fuse_branch:
                # The following branch tests _x/_y directly; flags are
                # still set because they are live-out through it.
                body.append("_x = %s" % x)
                body.append("_y = %s" % y)
                body.append("cpu.set_flags_sub(_x, _y)")
            else:
                body.append("cpu.set_flags_sub(%s, %s)" % (x, y))
            return
        a = self._rx(node, rn)
        b = self._rx(node, rm)
        if op == Op.ADD:
            body.append("r[%d] = (%s + %s) & %s" % (rd, a, b, MASK))
        elif op == Op.SUB:
            body.append("r[%d] = (%s - %s) & %s" % (rd, a, b, MASK))
        elif op == Op.AND:
            body.append("r[%d] = %s & %s" % (rd, a, b))
        elif op == Op.ORR:
            body.append("r[%d] = %s | %s" % (rd, a, b))
        elif op == Op.EOR:
            body.append("r[%d] = %s ^ %s" % (rd, a, b))
        elif op in (Op.LSL, Op.LSR, Op.ASR):
            shift_const = node.sub(rm)
            shift = (
                "(r[%d] & 31)" % rm if shift_const is None else "%d" % (shift_const & 31)
            )
            if op == Op.LSL:
                body.append("r[%d] = (%s << %s) & %s" % (rd, a, shift, MASK))
            elif op == Op.LSR:
                body.append("r[%d] = %s >> %s" % (rd, a, shift))
            else:
                body.append("_t = %s" % a)
                body.append("if _t & 2147483648: _t -= 4294967296")
                body.append("r[%d] = (_t >> %s) & %s" % (rd, shift, MASK))
        elif op in (Op.UDIV, Op.UREM):
            oper = "//" if op == Op.UDIV else "%"
            divisor = node.sub(rm)
            if divisor is not None:
                if divisor:
                    body.append("r[%d] = %s %s %d" % (rd, a, oper, divisor))
                else:
                    body.append("r[%d] = 0" % rd)
            else:
                body.append("_d = r[%d]" % rm)
                body.append("r[%d] = %s %s _d if _d else 0" % (rd, a, oper))
        elif op == Op.MUL:
            body.append("r[%d] = (%s * %s) & %s" % (rd, a, b, MASK))
        elif op == Op.MOV:
            body.append("r[%d] = %s" % (rd, self._rx(node, rm)))
        elif op == Op.MVN:
            body.append("r[%d] = %s ^ %s" % (rd, self._rx(node, rm), MASK))
        elif op == Op.ADDI:
            body.append("r[%d] = (%s + %d) & %s" % (rd, a, imm, MASK))
        elif op == Op.SUBI:
            body.append("r[%d] = (%s - %d) & %s" % (rd, a, imm, MASK))
        elif op == Op.ANDI:
            body.append("r[%d] = %s & %d" % (rd, a, imm))
        elif op == Op.ORRI:
            body.append("r[%d] = %s | %d" % (rd, a, imm))
        elif op == Op.EORI:
            body.append("r[%d] = %s ^ %d" % (rd, a, imm))
        elif op == Op.LSLI:
            body.append("r[%d] = (%s << %d) & %s" % (rd, a, imm & 31, MASK))
        elif op == Op.LSRI:
            body.append("r[%d] = %s >> %d" % (rd, a, imm & 31))
        elif op == Op.ASRI:
            body.append("_t = %s" % a)
            body.append("if _t & 2147483648: _t -= 4294967296")
            body.append("r[%d] = (_t >> %d) & %s" % (rd, imm & 31, MASK))
        elif op == Op.MULI:
            body.append("r[%d] = (%s * %d) & %s" % (rd, a, imm, MASK))
        elif op == Op.MOVI:
            body.append("r[%d] = %d" % (rd, imm))
        elif op == Op.MOVT:
            body.append("r[%d] = (r[%d] & 65535) | %d" % (rd, rd, imm << 16))
        elif op == Op.MRC:
            self._emit_account(ctx, body, node.idx + 1)
            body.append("s.fault_state = (%d, %d)" % (node.pc, node.idx))
            body.append("r[%d] = s.cop_read(%d, %d)" % (rd, rn, imm & 0xFF))
        elif op == Op.MCR:
            self._emit_account(ctx, body, node.idx + 1)
            body.append("s.fault_state = (%d, %d)" % (node.pc, node.idx))
            body.append("s.cop_write(%d, %d, %s)" % (rn, imm & 0xFF, self._rx(node, rd)))
        else:  # pragma: no cover - terminals handled elsewhere
            raise AssertionError("unexpected op in optimizer emitter: %r" % op)

    def _emit_opt_terminal(self, ctx, body, node, n, obj="blk"):
        op = node.op
        pc, idx = node.pc, node.idx
        next_pc = pc + 4
        if op in (Op.B, Op.BL):
            target = (pc + 4 + 4 * node.imm) & 0xFFFFFFFF
            taken = []
            if op == Op.BL:
                taken.append("r[14] = %d" % next_pc)
                taken.append("c.calls += 1")
            taken.append("c.%s += 1" % self._branch_counter(pc, target, True))
            taken.append("cpu.pc = %d" % target)
            taken_exit = []
            self._emit_chain_exit(taken_exit, pc, target, slot=0, obj=obj)
            self._emit_account(ctx, body, idx + 1)
            if node.cond == 0:
                body.extend(taken)
                body.extend(taken_exit)
                return
            if node.fused_cmp is not None and node.cond in _COND_EXPR:
                body.append("if %s:" % _COND_EXPR[node.cond])
            else:
                body.append("if cpu.condition_holds(%d):" % node.cond)
            for line in taken + taken_exit:
                body.append("    " + line)
            body.append("c.branches_not_taken += 1")
            body.append("cpu.pc = %d" % next_pc)
            self._emit_chain_exit(body, pc, next_pc, slot=1, obj=obj)
            return
        if op in (Op.BR, Op.BLR):
            self._emit_account(ctx, body, idx + 1)
            body.append("_t = %s" % self._rx(node, node.rn))
            if op == Op.BLR:
                body.append("r[14] = %d" % next_pc)
                body.append("c.calls += 1")
            body.append("if (_t >> 12) == %d:" % (pc >> PAGE_SHIFT))
            body.append("    c.branches_indirect_intra += 1")
            body.append("else:")
            body.append("    c.branches_indirect_inter += 1")
            body.append("cpu.pc = _t")
            body.append("return _t")
            return
        # SWI/UND/SRET/HALT/WFI/CPS carry no foldable operands; the
        # baseline templates are already exact.
        self._emit_terminal(ctx, body, node, pc, idx, n)

    def _emit_crossing(self, ctx, body, node):
        """Emit a superblock crossing: the unconditional branch into the
        next segment, replayed with the *exact* counter effects the
        dispatcher would have produced running the segments as separate
        blocks, then side-exit guards in dispatcher order (validity,
        dispatch accounting, instruction limit, interrupt window) before
        falling through into the inlined successor.

        The crossing's chain state is the superblock's own
        ``succ_taken`` slot, exactly as the baseline head block's exit
        would use it.  Cold (or invalidated): request a chain patch and
        return to the dispatcher, whose lookup replays the baseline's
        slow dispatch, translates the successor standalone -- charging
        the very ``translations`` and ``translated_insns`` the baseline
        would have -- and patches the slot.  Warm: replay a followed
        chain and fall through into the inlined tail, with ``hb`` (the
        patched standalone tail block) carrying the chain slots the
        tail's own exits patch and follow.  Sharing the standalone
        object keeps one chain lifecycle per guest block no matter how
        many host copies of its code exist -- the invariant the whole
        counter-parity argument rests on.
        """
        target = node.target
        self._emit_account(ctx, body, node.idx + 1)
        body.append("c.branches_direct_intra += 1")
        body.append("cpu.pc = %d" % target)
        body.append("nb = blk.succ_taken")
        body.append("if nb is None or not nb.valid:")
        body.append("    blk.succ_taken = None")
        body.append("    s.pending_chain = (blk, 0)")
        body.append("    return %d" % target)
        body.append("c.chain_follows += 1")
        body.append("if c.instructions >= s.run_limit:")
        body.append("    return None")
        body.append("_ip = s._intc")
        body.append("if _ip.pending & _ip.enable and cpu.psr & 2:")
        body.append("    return None")
        body.append("c.block_executions += 1")
        body.append("hb = nb")
