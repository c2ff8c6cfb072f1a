"""Tracer and debugger sessions leave no hook behind.

Both tools hook an engine by shadowing ``_pre_execute`` (and, for the
debugger, ``_mem_write``) with instance attributes.  Detaching must
delete what was added -- not re-assign the saved bound method as a new
instance attribute -- or ``FunctionalCore._pre_execute_hooked()`` stays
true and the engine never returns to predecoded-block replay.
"""

import pytest

from repro.arch import ARM
from repro.isa.assembler import assemble
from repro.machine import Board
from repro.platform import VEXPRESS
from repro.sim import FastInterpreter, NativeMachine
from repro.sim.debug import STOP_LIMIT, STOP_STEP, Debugger
from repro.sim.trace import Tracer

PROGRAM = """
.org 0x8000
_start:
    movi r1, 40
    li r6, 0x2000000
loop:
    addi r2, r2, 10
    str r2, [r6]
    subi r1, r1, 1
    cmpi r1, 0
    bne loop
    halt #0
"""

ENGINES = [FastInterpreter, NativeMachine]


def _engine(cls):
    board = Board(VEXPRESS)
    board.load(assemble(PROGRAM))
    return cls(board, arch=ARM)


def _untouched(cls):
    engine = _engine(cls)
    result = engine.run(max_insns=100_000)
    assert result.halted_ok
    return engine.counters.snapshot(), engine.cpu.regs[:]


def _finish_with_replay(engine, monkeypatch):
    """Run ``engine`` to halt; asserts it took the block-replay loop."""
    replays = []
    real = engine._run_blocks

    def spy(*args, **kwargs):
        replays.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "_run_blocks", spy)
    result = engine.run(max_insns=100_000)
    assert result.halted_ok
    assert replays, "block replay did not resume"
    return engine.counters.snapshot(), engine.cpu.regs[:]


@pytest.mark.parametrize("cls", ENGINES)
def test_tracer_detach_restores_block_replay(cls, monkeypatch):
    engine = _engine(cls)
    assert not engine._pre_execute_hooked()
    tracer = Tracer(engine).attach()
    assert engine._pre_execute_hooked()
    engine.run(max_insns=25)
    tracer.detach()
    assert not engine._pre_execute_hooked()
    assert "_pre_execute" not in vars(engine)
    assert len(tracer.records) == 25
    assert _finish_with_replay(engine, monkeypatch) == _untouched(cls)


@pytest.mark.parametrize("cls", ENGINES)
def test_debugger_session_restores_block_replay(cls, monkeypatch):
    engine = _engine(cls)
    debugger = Debugger(engine)
    # Both hooks go in; nothing stops the run early (a breakpoint stop
    # re-decodes its instruction on resume, which an untouched run
    # would not).
    debugger.add_watchpoint(0x3000000)
    assert debugger.cont(max_insns=25) == STOP_LIMIT
    assert debugger.step(3) == STOP_STEP
    assert not engine._pre_execute_hooked()
    assert "_pre_execute" not in vars(engine)
    assert "_mem_write" not in vars(engine)
    assert _finish_with_replay(engine, monkeypatch) == _untouched(cls)


@pytest.mark.parametrize("cls", ENGINES)
def test_nested_sessions_restore_the_outer_hook(cls):
    engine = _engine(cls)
    outer = Tracer(engine).attach()
    outer_hook = vars(engine)["_pre_execute"]
    inner = Tracer(engine).attach()
    debugger = Debugger(engine)
    debugger.cont(max_insns=5)
    assert vars(engine)["_pre_execute"] is not outer_hook  # inner still on
    inner.detach()
    assert vars(engine)["_pre_execute"] is outer_hook
    assert engine._pre_execute_hooked()
    engine.run(max_insns=5)
    assert len(outer.records) == 10 and len(inner.records) == 5
    outer.detach()
    assert not engine._pre_execute_hooked()
    assert "_pre_execute" not in vars(engine)
