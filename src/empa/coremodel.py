"""One Y86 core extended with the EMPA latch set, mode state and the
context-dependent %esv mapping, and the executors that retire its
instructions.

An executor is bound once per decoded address (bind) and run by the
engine when the instruction's cycle budget runs out; meta-instructions
only advance pc here, they raise a request for the supervisor.  %esv is
never a storage cell: every access resolves at the moment of access
through the latch table row that the core's phase names.

A core's state and qt are properties.  A write that changes one tells
the owner, the machine's supervisor (Supervisor.state_written,
Supervisor.qt_written), which keeps the core bookkeeping in step; a
lone core (owner None) takes both writes with no supervisor.  The
supervisor keeps core indices only, so a core and its owner form no
reference cycle.
"""

import enum
import operator
from dataclasses import dataclass, field

from . import isa
from .errors import RuntimeFault

WORD_MASK = isa.WORD_MASK


# Indices into CoreState.latches, in the order `regs` prints them.
FOR_CHILD, FROM_CHILD, FOR_PARENT, FROM_PARENT = range(4)


class EsvContext(enum.Enum):
    """The five rows of the latch-mapping table.  A row names the latch
    an %esv read takes (`read`) and the latch an %esv write sets
    (`write`)."""
    CLONING = "cloning", FOR_PARENT, FROM_CHILD
    MASS_CHILD = "mass-child", FROM_PARENT, FOR_PARENT
    MASS_PRE = "mass-pre", FROM_PARENT, FOR_CHILD
    MASS_POST = "mass-post", FROM_CHILD, FOR_PARENT
    GENERAL = "general", FROM_CHILD, FOR_PARENT

    def __new__(cls, value, read, write):
        row = object.__new__(cls)
        row._value_ = value
        row.read = read
        row.write = write
        return row


class State(enum.Enum):
    """The one condition of a core that the supervisor sees."""
    FREE = "free"
    PREALLOCATED = "preallocated"    # reserved by a QAlloc grant
    RUNNING = "running"
    SV = "sv"                        # a meta request waits for the SV phase
    POSTPONED = "postponed"          # request served again next tick
    WAITING = "waiting"              # QWait/QPWait; wait_cond holds the scope
    MASSLOOP = "massloop"            # the SV runs its FOR/SUMUP loop
    PARKED = "parked"                # stopped by a runtime fault

    # Enum hashes by name in Python code; states key the supervisor's
    # per-state sets on every state write.
    __hash__ = object.__hash__


# Module constants: a global read is cheaper than State.X on hot paths.
(FREE, PREALLOCATED, RUNNING, SV, POSTPONED, WAITING, MASSLOOP,
 PARKED) = State


@dataclass
class CoreState:
    index: int
    regs: list = field(default_factory=lambda: [0] * isa.GPR_COUNT)
    zf: bool = True
    sf: bool = False
    of: bool = False
    pc: int = 0
    latches: list = field(default_factory=lambda: [0] * 4)
    mode: int = 0
    parent_mode: int = 0
    phase: EsvContext = EsvContext.GENERAL   # %esv table row; never CLONING

    # execution bookkeeping (engine-owned)
    inflight = None          # decode_at entry executing at pc: (Instruction,
                             # cycles, executor, event kind, halts)
    remaining: int = 0
    for_parent_dirty: bool = False
    request = None           # (Instruction, addr) while SV or POSTPONED
    wait_cond = None         # (instr_addr, QTs, their parent's live) while WAITING

    # The supervisor that keeps the core's bookkeeping; None for a lone core.
    owner = None
    _state = FREE
    _qt = None               # QTDescriptor the core runs, or None

    def _set_state(self, value):
        old = self._state
        if value is not old:
            self._state = value
            if self.owner is not None:
                self.owner.state_written(self.index, old, value)

    def _set_qt(self, value):
        if value is not self._qt:
            self._qt = value
            if self.owner is not None:
                self.owner.qt_written(self.index)

    state = property(operator.attrgetter("_state"), _set_state)
    qt = property(operator.attrgetter("_qt"), _set_qt)
    del _set_state, _set_qt

    def reset_runtime(self):
        self.inflight = None
        self.remaining = 0
        self.for_parent_dirty = False


def clone_into(parent, child, link):
    """Creation-trigger transfers: full register file and flags, parent's
    ForChild into the child's FromParent, parent Mode into ParentMode.
    The link register is recorded by the caller on the QT descriptor."""
    child.regs = list(parent.regs)
    child.zf, child.sf, child.of = parent.zf, parent.sf, parent.of
    child.latches = [0, 0, 0, parent.latches[FOR_CHILD]]
    child.parent_mode = parent.mode
    child.mode = 0
    child.reset_runtime()


def read_register(core, code, sink=None, addr=0):
    """The value of register `code`.  An %esv read takes the latch that
    the core's row names and tells the sink; the SV reads with no sink,
    so its reads emit no event."""
    if code < isa.GPR_COUNT:
        return core.regs[code]
    if code == isa.REG_ESV:
        value = core.latches[core.phase.read]
        if sink is not None:
            sink.latch_read(core, value, addr)
        return value
    if code == isa.REG_ECC:
        return core.qt.ecc_index if core.qt is not None else 0
    return 0                                     # %eno


def write_register(core, code, value, sink, addr):
    """A write of %eno is dropped; an %esv write sets the latch that the
    core's row names and tells the sink which latch it set."""
    value &= WORD_MASK
    if code < isa.GPR_COUNT:
        core.regs[code] = value
    elif code == isa.REG_ESV:
        latch = core.phase.write
        core.latches[latch] = value
        sink.latch_write(core, latch, value, addr)
    elif code == isa.REG_ECC:
        raise RuntimeFault("%ecc is read-only", core=core.index, addr=addr)


# ---- executors -----------------------------------------------------------
#
# An executor retires one decoded instruction at one address:
# execute(core, memory, sink) advances pc before anything can fault, then
# applies the semantics and tells the sink of each %esv access.  halt,
# nop and the meta-instructions only advance pc; the engine hands a
# meta-instruction to the supervisor.  An executor never touches any
# other core's state.
#
# bind() builds one per decoded address, with the operands, the address
# and the next pc closed over.  An instruction whose operands are all
# GPRs reads and writes core.regs directly; only one that names %eno,
# %ecc or %esv goes through read_register/write_register.

MAX_POSITIVE = 0x7FFFFFFF
_ESP = isa.REG_ESP

# The condition of cmovXX/jXX by function code: always, le, l, e, ne, ge, g.
CONDITIONS = (
    lambda core: True,
    lambda core: core.sf != core.of or core.zf,
    lambda core: core.sf != core.of,
    lambda core: core.zf,
    lambda core: not core.zf,
    lambda core: core.sf == core.of,
    lambda core: core.sf == core.of and not core.zf,
)


# OPl by opcode: (a, b) -> (result, overflow flag) of `b op a`.  The
# sign bit of the xor terms is set where signs differ.
def _addl(a, b):
    result = (b + a) & WORD_MASK           # a, b alike, result not
    return result, ((a ^ result) & (b ^ result)) > MAX_POSITIVE


def _subl(a, b):
    result = (b - a) & WORD_MASK           # a, b differ, result not b
    return result, ((a ^ b) & (b ^ result)) > MAX_POSITIVE


def _andl(a, b):
    return b & a, False


def _xorl(a, b):
    return b ^ a, False


_ALU = {isa.ADDL: _addl, isa.SUBL: _subl, isa.ANDL: _andl, isa.XORL: _xorl}


def _pseudo(code):
    """Whether register operand `code` names %eno, %ecc or %esv."""
    return isa.GPR_COUNT <= code != isa.RNONE


def _advance(instr, addr, nxt):
    def execute(core, memory, sink):
        core.pc = nxt
    return execute


def _rrmovl(instr, addr, nxt):
    ra, rb, fn = instr.ra, instr.rb, instr.opcode & 0x0F
    holds = CONDITIONS[fn]
    if _pseudo(ra) or _pseudo(rb):
        def execute(core, memory, sink):
            core.pc = nxt
            value = read_register(core, ra, sink, addr)   # read even if not moved
            if holds(core):
                write_register(core, rb, value, sink, addr)
    elif fn == 0:
        def execute(core, memory, sink):
            core.pc = nxt
            regs = core.regs
            regs[rb] = regs[ra]
    else:
        def execute(core, memory, sink):
            core.pc = nxt
            if holds(core):
                regs = core.regs
                regs[rb] = regs[ra]
    return execute


def _irmovl(instr, addr, nxt):
    rb, imm = instr.rb, instr.imm
    if _pseudo(rb):
        def execute(core, memory, sink):
            core.pc = nxt
            write_register(core, rb, imm, sink, addr)
    else:
        def execute(core, memory, sink):
            core.pc = nxt
            core.regs[rb] = imm
    return execute


def _rmmovl(instr, addr, nxt):
    ra, rb, imm = instr.ra, instr.rb, instr.imm
    if _pseudo(ra) or _pseudo(rb):
        def execute(core, memory, sink):
            core.pc = nxt
            base = 0 if rb == isa.RNONE else read_register(core, rb, sink, addr)
            value = read_register(core, ra, sink, addr)
            memory.write_word((imm + base) & WORD_MASK, value, core.index, addr)
    elif rb == isa.RNONE:
        def execute(core, memory, sink):
            core.pc = nxt
            memory.write_word(imm, core.regs[ra], core.index, addr)
    else:
        def execute(core, memory, sink):
            core.pc = nxt
            regs = core.regs
            memory.write_word((imm + regs[rb]) & WORD_MASK, regs[ra],
                              core.index, addr)
    return execute


def _mrmovl(instr, addr, nxt):
    ra, rb, imm = instr.ra, instr.rb, instr.imm
    if _pseudo(ra) or _pseudo(rb):
        def execute(core, memory, sink):
            core.pc = nxt
            base = 0 if rb == isa.RNONE else read_register(core, rb, sink, addr)
            value = memory.read_word((imm + base) & WORD_MASK, core.index, addr)
            write_register(core, ra, value, sink, addr)
    elif rb == isa.RNONE:
        def execute(core, memory, sink):
            core.pc = nxt
            core.regs[ra] = memory.read_word(imm, core.index, addr)
    else:
        def execute(core, memory, sink):
            core.pc = nxt
            regs = core.regs
            regs[ra] = memory.read_word((imm + regs[rb]) & WORD_MASK,
                                        core.index, addr)
    return execute


def _opl(instr, addr, nxt):
    ra, rb = instr.ra, instr.rb
    alu = _ALU[instr.opcode]
    if _pseudo(ra) or _pseudo(rb):
        def execute(core, memory, sink):
            core.pc = nxt
            a = read_register(core, ra, sink, addr)
            b = read_register(core, rb, sink, addr)
            result, core.of = alu(a, b)
            core.zf = result == 0
            core.sf = result > MAX_POSITIVE
            write_register(core, rb, result, sink, addr)  # %eno: flags only
    else:
        def execute(core, memory, sink):
            core.pc = nxt
            regs = core.regs
            result, core.of = alu(regs[ra], regs[rb])
            core.zf = result == 0
            core.sf = result > MAX_POSITIVE
            regs[rb] = result
    return execute


def _jxx(instr, addr, nxt):
    target, fn = instr.imm, instr.opcode & 0x0F
    holds = CONDITIONS[fn]
    if fn == 0:
        def execute(core, memory, sink):
            core.pc = target
    else:
        def execute(core, memory, sink):
            core.pc = target if holds(core) else nxt
    return execute


def _call(instr, addr, nxt):
    target = instr.imm

    def execute(core, memory, sink):
        core.pc = nxt
        regs = core.regs
        sp = (regs[_ESP] - 4) & WORD_MASK
        memory.write_word(sp, nxt, core.index, addr)
        regs[_ESP] = sp
        core.pc = target
    return execute


def _ret(instr, addr, nxt):
    def execute(core, memory, sink):
        core.pc = nxt
        regs = core.regs
        sp = regs[_ESP]
        core.pc = memory.read_word(sp, core.index, addr)
        regs[_ESP] = (sp + 4) & WORD_MASK
    return execute


def _pushl(instr, addr, nxt):
    ra = instr.ra
    if _pseudo(ra):
        def execute(core, memory, sink):
            core.pc = nxt
            value = read_register(core, ra, sink, addr)
            regs = core.regs
            sp = (regs[_ESP] - 4) & WORD_MASK
            memory.write_word(sp, value, core.index, addr)
            regs[_ESP] = sp
    else:
        def execute(core, memory, sink):
            core.pc = nxt
            regs = core.regs
            sp = (regs[_ESP] - 4) & WORD_MASK
            memory.write_word(sp, regs[ra], core.index, addr)  # old %esp
            regs[_ESP] = sp
    return execute


def _popl(instr, addr, nxt):
    ra = instr.ra
    if _pseudo(ra):
        def execute(core, memory, sink):
            core.pc = nxt
            regs = core.regs
            sp = regs[_ESP]
            value = memory.read_word(sp, core.index, addr)
            regs[_ESP] = (sp + 4) & WORD_MASK
            write_register(core, ra, value, sink, addr)
    else:
        def execute(core, memory, sink):
            core.pc = nxt
            regs = core.regs
            sp = regs[_ESP]
            value = memory.read_word(sp, core.index, addr)
            regs[_ESP] = (sp + 4) & WORD_MASK
            regs[ra] = value                    # popl %esp keeps the word
    return execute


_GROUP_FACTORIES = {
    isa.RRMOVL: _rrmovl, isa.IRMOVL: _irmovl, isa.RMMOVL: _rmmovl,
    isa.MRMOVL: _mrmovl, isa.ADDL: _opl, isa.JMP: _jxx, isa.CALL: _call,
    isa.RET: _ret, isa.PUSHL: _pushl, isa.POPL: _popl,
}
_FACTORIES = {op: _GROUP_FACTORIES.get(op & 0xF0, _advance)
              for op in isa.OPCODES}


def bind(instr, addr):
    """The executor of `instr` decoded at `addr`."""
    return _FACTORIES[instr.opcode](
        instr, addr, (addr + instr.length) & WORD_MASK)
