"""The process-wide translation memo keeps several blocks per address.

Every guest program loads at the same addresses, so one memo key
``(vaddr, translation key)`` sees a different block for every kernel.
These tests pin the multi-variant memo: programs that take turns at the
same addresses stop recompiling, changed bytes still miss, counters
never depend on what the memo held, and the variant and capacity
bounds hold.
"""

import builtins

import pytest

from repro.machine import Board
from repro.platform import VEXPRESS
from repro.sim import DBTSimulator
from repro.sim.dbt import DBTConfig, translator
from repro.sim.dbt.translator import TRANSLATION_MEMO, TranslationMemo, _MemoEntry
from tests.sim.util import run_asm

#: Two loops with the same shape at the same addresses; only their
#: immediates differ, so every block lands on a key the other one used.
PROGRAM_A = """
    li r0, 0
    li r1, 40
loop:
    addi r0, r0, 3
    cmp r0, r1
    blt loop
    halt #0
"""
PROGRAM_B = PROGRAM_A.replace("addi r0, r0, 3", "addi r0, r0, 5").replace(
    "li r1, 40", "li r1, 70"
)


@pytest.fixture
def compiles(monkeypatch):
    """Count the translator's ``compile()`` calls."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return builtins.compile(*args, **kwargs)

    monkeypatch.setattr(translator, "compile", counting, raising=False)
    TRANSLATION_MEMO.clear()
    yield calls
    TRANSLATION_MEMO.clear()


def _run(body, **config):
    engine, board, res = run_asm(DBTSimulator, body, config=DBTConfig(**config))
    assert res.halted_ok
    return engine.counters.snapshot(), board.cpu.regs[0]


@pytest.mark.parametrize("opt_level", [0, 1, 2])
def test_alternating_programs_stop_recompiling(compiles, opt_level):
    first = [_run(PROGRAM_A, opt_level=opt_level), _run(PROGRAM_B, opt_level=opt_level)]
    assert compiles, "the first round must compile"
    del compiles[:]
    second = [_run(PROGRAM_A, opt_level=opt_level), _run(PROGRAM_B, opt_level=opt_level)]
    assert compiles == []
    assert second == first
    assert first[0][1] == 42 and first[1][1] == 70


def test_counters_do_not_depend_on_the_memo(compiles):
    _run(PROGRAM_B)
    warm = _run(PROGRAM_A)
    cold = _run(PROGRAM_A, memoize=False)
    assert warm == cold


def test_changed_bytes_miss_and_recompile(compiles):
    _run(PROGRAM_A)
    _run(PROGRAM_B)
    del compiles[:]
    # Same addresses, bytes neither program had: every block whose bytes
    # changed compiles again and the result is the new program's.
    changed = PROGRAM_A.replace("addi r0, r0, 3", "addi r0, r0, 7").replace(
        "li r1, 40", "li r1, 90"
    )
    counters, r0 = _run(changed)
    assert compiles
    assert r0 == 91
    assert (counters, r0) == _run(changed, memoize=False)


def test_self_modified_block_is_not_served_stale():
    board = Board(VEXPRESS)
    memory = board.memory
    memo = TranslationMemo()
    memory.write32(0x8000, 0x11111111)
    entry = _MemoEntry(memory.read_bytes(0x8000, 4), 1, "", None)
    memo.insert("k", entry)
    assert memo.get("k", memory, 0x8000) is entry
    memory.write32(0x8000, 0x22222222)
    assert memo.get("k", memory, 0x8000) is None


# -- bounds ---------------------------------------------------------------
def _entries_for(memory, words, paddr=0x8000):
    """One memo entry per word; returns them with a function that puts a
    given word back in memory."""
    entries = []
    for word in words:
        memory.write32(paddr, word)
        entries.append(_MemoEntry(memory.read_bytes(paddr, 4), 1, "", None))

    def show(word):
        memory.write32(paddr, word)

    return entries, show


def test_variants_are_bounded_most_recent_first():
    memory = Board(VEXPRESS).memory
    memo = TranslationMemo(capacity=100)
    memo.VARIANTS = 3
    words = [0x1000 + i for i in range(5)]
    entries, show = _entries_for(memory, words)
    for entry in entries:
        memo.insert("k", entry)
    assert len(memo) == 3
    assert memo.entries() == [entries[4], entries[3], entries[2]]
    for word, entry in zip(words, entries):
        show(word)
        expected = entry if word in words[2:] else None
        assert memo.get("k", memory, 0x8000) is expected
    # A hit moves its variant to the front.
    assert memo.entries()[0] is entries[4]
    show(words[2])
    memo.get("k", memory, 0x8000)
    assert memo.entries()[0] is entries[2]


def test_capacity_evicts_least_recently_used_first():
    memory = Board(VEXPRESS).memory
    memo = TranslationMemo(capacity=4)
    memo.VARIANTS = 2
    entries, show = _entries_for(memory, [0xA0, 0xA1, 0xB0, 0xB1, 0xC0])
    memo.insert("a", entries[0])
    memo.insert("a", entries[1])
    memo.insert("b", entries[2])
    memo.insert("b", entries[3])
    assert len(memo) == 4
    # Touch "a": "b" becomes the least recently used key.
    show(0xA0)
    assert memo.get("a", memory, 0x8000) is entries[0]
    memo.insert("c", entries[4])
    assert len(memo) == 4
    # "b" gave up its oldest variant; both of "a"'s survive.
    show(0xB0)
    assert memo.get("b", memory, 0x8000) is None
    show(0xB1)
    assert memo.get("b", memory, 0x8000) is entries[3]
    for key, word, entry in (("a", 0xA0, entries[0]), ("a", 0xA1, entries[1]), ("c", 0xC0, entries[4])):
        show(word)
        assert memo.get(key, memory, 0x8000) is entry


def test_capacity_never_exceeded_and_empty_keys_dropped():
    memory = Board(VEXPRESS).memory
    memo = TranslationMemo(capacity=5)
    memo.VARIANTS = 3
    entries, _show = _entries_for(memory, range(40))
    for index, entry in enumerate(entries):
        memo.insert(index % 7, entry)
        assert len(memo) <= 5
        assert len(memo) == len(memo.entries())
        assert all(memo._entries.values())
    memo.clear()
    assert len(memo) == 0 and memo.entries() == []
