"""Core-model tests: the latch map (full table), cloning, instruction
semantics including phase-routed %esv access and the pseudo-registers."""

import pytest

from empa import isa
from empa.coremodel import (CoreState, EsvContext, Latch, LatchSet, READ,
                            State, WRITE, clone_into, condition_holds, map_esv,
                            step_instruction)
from empa.engine import Memory
from empa.errors import AddressOutOfRange, RuntimeFault


ESV_TABLE_CELLS = [
    (EsvContext.CLONING, READ, Latch.FOR_PARENT),
    (EsvContext.CLONING, WRITE, Latch.FROM_CHILD),
    (EsvContext.MASS_CHILD, READ, Latch.FROM_PARENT),
    (EsvContext.MASS_CHILD, WRITE, Latch.FOR_PARENT),
    (EsvContext.MASS_PRE, READ, Latch.FROM_PARENT),
    (EsvContext.MASS_PRE, WRITE, Latch.FOR_CHILD),
    (EsvContext.MASS_POST, READ, Latch.FROM_CHILD),
    (EsvContext.MASS_POST, WRITE, Latch.FOR_PARENT),
    (EsvContext.GENERAL, READ, Latch.FROM_CHILD),
    (EsvContext.GENERAL, WRITE, Latch.FOR_PARENT),
]


@pytest.mark.parametrize("context,access,expected", ESV_TABLE_CELLS)
def test_map_esv_cell(context, access, expected):
    assert map_esv(context, access) is expected


def test_map_esv_total():
    for context in EsvContext:
        for access in (READ, WRITE):
            assert map_esv(context, access) in Latch


class _Sink:
    def __init__(self):
        self.reads = []
        self.writes = []

    def latch_read(self, core, latch, value, addr):
        self.reads.append((latch, value))

    def latch_write(self, core, latch, value, addr):
        self.writes.append((latch, value))


def _core(phase=EsvContext.GENERAL, **latches):
    core = CoreState(0)
    core.state = State.RUNNING
    core.phase = phase
    core.latches = LatchSet(**latches)
    return core


def _exec(core, instr, mem=None, sink=None):
    core.inflight = instr
    core.inflight_addr = core.pc
    return step_instruction(core, mem or Memory(bytes(64)), sink or _Sink())


def test_clone_into_copies_register_file_and_flags():
    parent, child = CoreState(0), CoreState(1)
    parent.regs = [10, 1, 2, 3, 4, 5, 6, 7]
    parent.zf, parent.sf, parent.of = False, True, False
    parent.latches.for_child = 0x200
    parent.mode = 5
    clone_into(parent, child, isa.REG_EAX)
    assert child.regs == parent.regs
    assert child.regs is not parent.regs
    assert (child.zf, child.sf, child.of) == (False, True, False)
    assert child.latches.from_parent == 0x200
    assert child.parent_mode == 5
    assert child.latches.for_parent == 0
    assert child.mode == 0


def test_addl_flags():
    core = _core()
    core.regs[isa.REG_ECX] = 3
    core.regs[isa.REG_EAX] = 4
    _exec(core, isa.Instruction(isa.ADDL, isa.REG_ECX, isa.REG_EAX))
    assert core.regs[isa.REG_EAX] == 7
    assert (core.zf, core.sf, core.of) == (False, False, False)


def test_subl_overflow_flag():
    core = _core()
    core.regs[isa.REG_EAX] = 0x80000000      # INT_MIN
    core.regs[isa.REG_ECX] = 1
    _exec(core, isa.Instruction(isa.SUBL, isa.REG_ECX, isa.REG_EAX))
    assert core.regs[isa.REG_EAX] == 0x7FFFFFFF
    assert core.of


def test_rrmovl_esv_to_esv_in_mass_child():
    """Forwarding in a mass child copies FromParent into ForParent."""
    core = _core(EsvContext.MASS_CHILD, from_parent=0x1234)
    sink = _Sink()
    _exec(core, isa.Instruction(isa.RRMOVL, isa.REG_ESV, isa.REG_ESV), sink=sink)
    assert core.latches.for_parent == 0x1234
    assert sink.reads == [(Latch.FROM_PARENT, 0x1234)]
    assert sink.writes == [(Latch.FOR_PARENT, 0x1234)]
    assert core.for_parent_dirty


def test_mrmovl_via_esv_base_in_mass_child():
    mem = Memory(bytes(0x400))
    mem.write_word(0x200, 5)
    core = _core(EsvContext.MASS_CHILD, from_parent=0x200)
    _exec(core, isa.Instruction(isa.MRMOVL, isa.REG_EAX, isa.REG_ESV, imm=0),
          mem=mem)
    assert core.regs[isa.REG_EAX] == 5


def test_esv_write_routing_per_phase():
    for phase, latch in [(EsvContext.MASS_PRE, Latch.FOR_CHILD),
                         (EsvContext.MASS_POST, Latch.FOR_PARENT),
                         (EsvContext.GENERAL, Latch.FOR_PARENT)]:
        core = _core(phase)
        core.regs[isa.REG_EBX] = 0x99
        _exec(core, isa.Instruction(isa.RRMOVL, isa.REG_EBX, isa.REG_ESV))
        assert core.latches.get(latch) == 0x99, phase


def test_eno_reads_zero_ignores_writes():
    core = _core()
    core.regs[isa.REG_EAX] = 7
    _exec(core, isa.Instruction(isa.RRMOVL, isa.REG_EAX, isa.REG_ENO))
    core.pc = 0
    _exec(core, isa.Instruction(isa.RRMOVL, isa.REG_ENO, isa.REG_EBX))
    assert core.regs[isa.REG_EBX] == 0


def test_ecc_write_is_a_fault():
    core = _core()
    with pytest.raises(RuntimeFault):
        _exec(core, isa.Instruction(isa.RRMOVL, isa.REG_EAX, isa.REG_ECC))


def test_memory_out_of_range():
    core = _core()
    with pytest.raises(AddressOutOfRange):
        _exec(core, isa.Instruction(isa.MRMOVL, isa.REG_EAX, isa.RNONE,
                                    imm=0x10000))


def test_conditions_against_truth_table():
    core = CoreState(0)
    for zf in (False, True):
        for sf in (False, True):
            for of in (False, True):
                core.zf, core.sf, core.of = zf, sf, of
                lt = sf != of
                expect = [True, lt or zf, lt, zf, not zf, not lt,
                          not lt and not zf]
                for fn in range(7):
                    assert condition_holds(core, fn) == expect[fn]


def test_cmov_moves_only_when_condition_holds():
    core = _core()
    core.zf = False
    core.regs[isa.REG_ECX] = 42
    _exec(core, isa.Instruction(isa.RRMOVL | 3, isa.REG_ECX, isa.REG_EAX))  # cmove
    assert core.regs[isa.REG_EAX] == 0
    core.zf = True
    core.pc = 0
    _exec(core, isa.Instruction(isa.RRMOVL | 3, isa.REG_ECX, isa.REG_EAX))
    assert core.regs[isa.REG_EAX] == 42


def test_push_pop_call_ret():
    mem = Memory(bytes(0x100))
    core = _core()
    core.regs[isa.REG_ESP] = 0x80
    core.regs[isa.REG_EAX] = 0xDEAD
    _exec(core, isa.Instruction(isa.PUSHL, isa.REG_EAX), mem=mem)
    assert core.regs[isa.REG_ESP] == 0x7C
    assert mem.read_word(0x7C) == 0xDEAD
    core.pc = 0
    _exec(core, isa.Instruction(isa.POPL, isa.REG_EBX), mem=mem)
    assert core.regs[isa.REG_EBX] == 0xDEAD
    assert core.regs[isa.REG_ESP] == 0x80

    core.pc = 0x10
    _exec(core, isa.Instruction(isa.CALL, imm=0x40), mem=mem)
    assert core.pc == 0x40
    assert mem.read_word(0x7C) == 0x15   # return address after 5-byte call
    _exec(core, isa.Instruction(isa.RET), mem=mem)
    assert core.pc == 0x15
    assert core.regs[isa.REG_ESP] == 0x80


def test_jumps_taken_and_fallthrough():
    core = _core()
    core.zf = True
    core.pc = 0
    _exec(core, isa.Instruction(isa.JMP | 3, imm=0x30))   # je taken
    assert core.pc == 0x30
    core.zf = False
    _exec(core, isa.Instruction(isa.JMP | 3, imm=0x60))   # je not taken
    assert core.pc == 0x35


def test_meta_only_advances_pc():
    core = _core()
    core.pc = 0x20
    outcome = _exec(core, isa.Instruction(isa.QCREATE, ra=isa.REG_EAX, imm=0x40))
    assert outcome == "meta"
    assert core.pc == 0x26
