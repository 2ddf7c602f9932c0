"""One Y86 core extended with the EMPA latch set, mode state and the
context-dependent %esv mapping.

A core is stepped by the engine when its current instruction's cycle
budget runs out; meta-instructions are never executed here, they raise a
request for the supervisor.  %esv is never a storage cell: every access
resolves at the moment of access through the latch table row that the
core's phase names.
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
    inflight = None          # decoded Instruction currently executing
    inflight_addr: int = 0
    inflight_cycles = 0      # cycles of the inflight instruction
    remaining: int = 0
    for_parent_dirty: bool = False
    request = None           # (Instruction, addr) while SV or POSTPONED
    wait_cond = None         # (instr_addr, frozenset of QTDescriptor) while WAITING

    # The machine that owns the core, told of every change to state and
    # qt (the properties below); None for a lone core.
    owner = None
    _state = FREE
    _qt = None               # QTDescriptor the core runs, or None

    def _set_state(self, value):
        old = self._state
        if value is not old:
            self._state = value
            if self.owner is not None:
                self.owner.touch(self, old)

    def _set_qt(self, value):
        if value is not self._qt:
            self._qt = value
            if self.owner is not None:
                self.owner.touch(self)

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


def _set_flags(core, result, a, b, op):
    result &= WORD_MASK
    core.zf = result == 0
    core.sf = bool(result & 0x80000000)
    sa, sb, sr = a & 0x80000000, b & 0x80000000, result & 0x80000000
    if op == isa.ADDL:
        core.of = sa == sb and sr != sa
    elif op == isa.SUBL:
        core.of = sa != sb and sr != sb
    else:
        core.of = False
    return result


def condition_holds(core, fn):
    zf, sf, of = core.zf, core.sf, core.of
    if fn == 0:
        return True
    if fn == 1:                      # le
        return (sf != of) or zf
    if fn == 2:                      # l
        return sf != of
    if fn == 3:                      # e
        return zf
    if fn == 4:                      # ne
        return not zf
    if fn == 5:                      # ge
        return not (sf != of)
    if fn == 6:                      # g
        return not (sf != of) and not zf
    raise AssertionError(fn)


def step_instruction(core, memory, sink):
    """Retire core.inflight: apply Y86 semantics, advance pc, emit latch
    events through the sink.  halt, nop and meta-instructions only
    advance pc; the caller hands a meta-instruction to the supervisor.
    Never touches any other core's state."""
    instr = core.inflight
    addr = core.inflight_addr
    op = instr.opcode
    group = op & 0xF0
    fn = op & 0x0F
    core.pc = (addr + instr.length) & WORD_MASK

    if group == isa.RRMOVL:
        value = read_register(core, instr.ra, sink, addr)
        if condition_holds(core, fn):
            write_register(core, instr.rb, value, sink, addr)
    elif op == isa.IRMOVL:
        write_register(core, instr.rb, instr.imm, sink, addr)
    elif op == isa.RMMOVL:
        base = 0 if instr.rb == isa.RNONE else read_register(core, instr.rb, sink, addr)
        value = read_register(core, instr.ra, sink, addr)
        memory.write_word((instr.imm + base) & WORD_MASK, value, core=core.index, addr=addr)
    elif op == isa.MRMOVL:
        base = 0 if instr.rb == isa.RNONE else read_register(core, instr.rb, sink, addr)
        value = memory.read_word((instr.imm + base) & WORD_MASK, core=core.index, addr=addr)
        write_register(core, instr.ra, value, sink, addr)
    elif group == 0x60:
        a = read_register(core, instr.ra, sink, addr)
        b = read_register(core, instr.rb, sink, addr)
        if op == isa.ADDL:
            result = b + a
        elif op == isa.SUBL:
            result = b - a
        elif op == isa.ANDL:
            result = b & a
        else:
            result = b ^ a
        result = _set_flags(core, result, a, b, op)
        write_register(core, instr.rb, result, sink, addr)
    elif group == isa.JMP:
        if condition_holds(core, fn):
            core.pc = instr.imm
    elif op == isa.CALL:
        sp = (read_register(core, isa.REG_ESP, sink, addr) - 4) & WORD_MASK
        memory.write_word(sp, core.pc, core=core.index, addr=addr)
        write_register(core, isa.REG_ESP, sp, sink, addr)
        core.pc = instr.imm
    elif op == isa.RET:
        sp = read_register(core, isa.REG_ESP, sink, addr)
        core.pc = memory.read_word(sp, core=core.index, addr=addr)
        write_register(core, isa.REG_ESP, (sp + 4) & WORD_MASK, sink, addr)
    elif op == isa.PUSHL:
        value = read_register(core, instr.ra, sink, addr)
        sp = (read_register(core, isa.REG_ESP, sink, addr) - 4) & WORD_MASK
        memory.write_word(sp, value, core=core.index, addr=addr)
        write_register(core, isa.REG_ESP, sp, sink, addr)
    elif op == isa.POPL:
        sp = read_register(core, isa.REG_ESP, sink, addr)
        value = memory.read_word(sp, core=core.index, addr=addr)
        write_register(core, isa.REG_ESP, (sp + 4) & WORD_MASK, sink, addr)
        write_register(core, instr.ra, value, sink, addr)
