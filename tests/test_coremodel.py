"""Core-model tests: the latch map (full table), cloning, instruction
semantics (the executors bind builds) including phase-routed %esv access
and the pseudo-registers."""

import pytest

from empa import assembler, engine, isa, trace as tr
from empa.coremodel import (FOR_CHILD, FOR_PARENT, FROM_CHILD, FROM_PARENT,
                            CONDITIONS, CoreState, EsvContext, State, bind,
                            clone_into)
from empa.engine import Memory
from empa.errors import AddressOutOfRange, RuntimeFault


# (row, access, latch): the ten cells of the %esv table.
ESV_TABLE_CELLS = [
    (EsvContext.CLONING, "read", FOR_PARENT),
    (EsvContext.CLONING, "write", FROM_CHILD),
    (EsvContext.MASS_CHILD, "read", FROM_PARENT),
    (EsvContext.MASS_CHILD, "write", FOR_PARENT),
    (EsvContext.MASS_PRE, "read", FROM_PARENT),
    (EsvContext.MASS_PRE, "write", FOR_CHILD),
    (EsvContext.MASS_POST, "read", FROM_CHILD),
    (EsvContext.MASS_POST, "write", FOR_PARENT),
    (EsvContext.GENERAL, "read", FROM_CHILD),
    (EsvContext.GENERAL, "write", FOR_PARENT),
]


@pytest.mark.parametrize("context,access,expected", ESV_TABLE_CELLS,
                         ids=["%s-%s" % (c.value, a) for c, a, _ in ESV_TABLE_CELLS])
def test_esv_table_cell(context, access, expected):
    assert getattr(context, access) == expected


def test_esv_table_total():
    """Every row names a latch for both accesses, and the table has no
    other cell."""
    cells = {(context, access) for context, access, _ in ESV_TABLE_CELLS}
    assert cells == {(c, a) for c in EsvContext for a in ("read", "write")}
    for context in EsvContext:
        assert {context.read, context.write} <= set(range(4))


class _Sink:
    def __init__(self):
        self.reads = []
        self.writes = []

    def latch_read(self, core, value, addr):
        self.reads.append(value)

    def latch_write(self, core, latch, value, addr):
        self.writes.append((latch, value))


def _core(phase=EsvContext.GENERAL, latches=(0, 0, 0, 0)):
    core = CoreState(0)
    core.state = State.RUNNING
    core.phase = phase
    core.latches = list(latches)
    return core


def _exec(core, instr, mem=None, sink=None):
    """Retire `instr` at core.pc through the executor bound there."""
    return bind(instr, core.pc)(core, mem or Memory(bytes(64)),
                                sink or _Sink())


def test_clone_into_copies_register_file_and_flags():
    parent, child = CoreState(0), CoreState(1)
    parent.regs = [10, 1, 2, 3, 4, 5, 6, 7]
    parent.zf, parent.sf, parent.of = False, True, False
    parent.latches = [0x200, 1, 2, 3]
    parent.mode = 5
    clone_into(parent, child, isa.REG_EAX)
    assert child.regs == parent.regs
    assert child.regs is not parent.regs
    assert (child.zf, child.sf, child.of) == (False, True, False)
    assert child.latches == [0, 0, 0, 0x200]     # FromParent = ForChild
    assert child.parent_mode == 5
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


# Latch i holds 0x10 + i, so a read value names the latch it came from.
_MARKED = [0x10 + latch for latch in range(4)]


def test_rrmovl_esv_to_esv_in_mass_child():
    """Forwarding in a mass child copies FromParent into ForParent."""
    core = _core(EsvContext.MASS_CHILD, latches=_MARKED)
    sink = _Sink()
    _exec(core, isa.Instruction(isa.RRMOVL, isa.REG_ESV, isa.REG_ESV), sink=sink)
    assert core.latches == [0x10, 0x11, 0x10 + FROM_PARENT, 0x13]
    assert sink.reads == [0x10 + FROM_PARENT]
    assert sink.writes == [(FOR_PARENT, 0x10 + FROM_PARENT)]


def test_mrmovl_via_esv_base_in_mass_child():
    mem = Memory(bytes(0x400))
    mem.write_word(0x200, 5)
    core = _core(EsvContext.MASS_CHILD, latches=(0, 0, 0, 0x200))
    _exec(core, isa.Instruction(isa.MRMOVL, isa.REG_EAX, isa.REG_ESV, imm=0),
          mem=mem)
    assert core.regs[isa.REG_EAX] == 5


def _machine_core(phase):
    """The root core of a one-core machine, in `phase`, with marked
    latches: the machine is the sink, so accesses become trace events."""
    machine = engine.Machine(assembler.assemble("halt\n"),
                             engine.MachineConfig(cores=1))
    core = machine.cores[0]
    core.phase = phase
    core.latches = list(_MARKED)
    return machine, core


# The rows a core can be in; the cloning row is applied only by QTerm.
_CORE_ROWS = [EsvContext.MASS_CHILD, EsvContext.MASS_PRE,
              EsvContext.MASS_POST, EsvContext.GENERAL]


@pytest.mark.parametrize("phase", _CORE_ROWS, ids=lambda row: row.value)
def test_esv_routing_per_phase(phase):
    """An %esv read takes the row's read latch and an %esv write sets
    its write latch; each emits one event whose payload is the word."""
    cells = {(row, access): latch for row, access, latch in ESV_TABLE_CELLS}
    read, write = cells[phase, "read"], cells[phase, "write"]
    machine, core = _machine_core(phase)
    _exec(core, isa.Instruction(isa.RRMOVL, isa.REG_ESV, isa.REG_EAX),
          sink=machine)
    assert core.regs[isa.REG_EAX] == 0x10 + read
    core.regs[isa.REG_EBX] = 0x99
    _exec(core, isa.Instruction(isa.RRMOVL, isa.REG_EBX, isa.REG_ESV),
          sink=machine)
    expected = list(_MARKED)
    expected[write] = 0x99
    assert core.latches == expected
    assert [(ev.kind, ev.payload) for ev in machine.events] == [
        (tr.LATCH_READ, 0x10 + read), (tr.LATCH_WRITE, 0x99)]
    assert core.for_parent_dirty == (write == FOR_PARENT)


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
                    assert CONDITIONS[fn](core) == expect[fn]


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
    _exec(core, isa.Instruction(isa.QCREATE, ra=isa.REG_EAX, imm=0x40))
    assert core.pc == 0x26
