"""Reference instruction semantics for differential testing of the
executors that `coremodel.bind` builds.

This is the opcode-dispatching interpreter the executors replaced, kept
as one routine over a decoded instruction.  Its register, flag,
condition and %esv-table helpers are its own: nothing here comes from
`empa.coremodel`.  Events go through the same sink interface:
`latch_read(core, value, addr)` and `latch_write(core, latch, value,
addr)`.
"""

from empa.errors import RuntimeFault

MASK = 0xFFFFFFFF

# Latch indices in CoreState.latches.
FOR_CHILD, FROM_CHILD, FOR_PARENT, FROM_PARENT = range(4)

# %esv table row (EsvContext value) -> (latch a read takes, latch a
# write sets).
ESV_ROWS = {
    "cloning": (FOR_PARENT, FROM_CHILD),
    "mass-child": (FROM_PARENT, FOR_PARENT),
    "mass-pre": (FROM_PARENT, FOR_CHILD),
    "mass-post": (FROM_CHILD, FOR_PARENT),
    "general": (FROM_CHILD, FOR_PARENT),
}


def read_reg(core, code, sink, addr):
    if code < 8:
        return core.regs[code]
    if code == 0xA:                                  # %esv
        value = core.latches[ESV_ROWS[core.phase.value][0]]
        sink.latch_read(core, value, addr)
        return value
    if code == 0x9:                                  # %ecc
        return core.qt.ecc_index if core.qt is not None else 0
    return 0                                         # %eno


def write_reg(core, code, value, sink, addr):
    value &= MASK
    if code < 8:
        core.regs[code] = value
    elif code == 0xA:
        latch = ESV_ROWS[core.phase.value][1]
        core.latches[latch] = value
        sink.latch_write(core, latch, value, addr)
    elif code == 0x9:
        raise RuntimeFault("%ecc is read-only", core=core.index, addr=addr)


def set_flags(core, result, a, b, op):
    result &= MASK
    core.zf = result == 0
    core.sf = bool(result & 0x80000000)
    sa, sb, sr = a & 0x80000000, b & 0x80000000, result & 0x80000000
    if op == 0x60:
        core.of = sa == sb and sr != sa
    elif op == 0x61:
        core.of = sa != sb and sr != sb
    else:
        core.of = False
    return result


def holds(core, fn):
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


def step_instruction(core, instr, addr, memory, sink):
    """Retire `instr`, decoded at `addr`: apply Y86 semantics, advance
    pc, emit latch events through the sink.  halt, nop and
    meta-instructions only advance pc."""
    op = instr.opcode
    group = op & 0xF0
    fn = op & 0x0F
    core.pc = (addr + instr.length) & MASK

    if group == 0x20:                                # rrmovl, cmovXX
        value = read_reg(core, instr.ra, sink, addr)
        if holds(core, fn):
            write_reg(core, instr.rb, value, sink, addr)
    elif op == 0x30:                                 # irmovl
        write_reg(core, instr.rb, instr.imm, sink, addr)
    elif op == 0x40:                                 # rmmovl
        base = 0 if instr.rb == 0xF else read_reg(core, instr.rb, sink, addr)
        value = read_reg(core, instr.ra, sink, addr)
        memory.write_word((instr.imm + base) & MASK, value, core=core.index, addr=addr)
    elif op == 0x50:                                 # mrmovl
        base = 0 if instr.rb == 0xF else read_reg(core, instr.rb, sink, addr)
        value = memory.read_word((instr.imm + base) & MASK, core=core.index, addr=addr)
        write_reg(core, instr.ra, value, sink, addr)
    elif group == 0x60:                              # OPl
        a = read_reg(core, instr.ra, sink, addr)
        b = read_reg(core, instr.rb, sink, addr)
        if op == 0x60:
            result = b + a
        elif op == 0x61:
            result = b - a
        elif op == 0x62:
            result = b & a
        else:
            result = b ^ a
        result = set_flags(core, result, a, b, op)
        write_reg(core, instr.rb, result, sink, addr)
    elif group == 0x70:                              # jmp, jXX
        if holds(core, fn):
            core.pc = instr.imm
    elif op == 0x80:                                 # call
        sp = (read_reg(core, 4, sink, addr) - 4) & MASK
        memory.write_word(sp, core.pc, core=core.index, addr=addr)
        write_reg(core, 4, sp, sink, addr)
        core.pc = instr.imm
    elif op == 0x90:                                 # ret
        sp = read_reg(core, 4, sink, addr)
        core.pc = memory.read_word(sp, core=core.index, addr=addr)
        write_reg(core, 4, (sp + 4) & MASK, sink, addr)
    elif op == 0xA0:                                 # pushl
        value = read_reg(core, instr.ra, sink, addr)
        sp = (read_reg(core, 4, sink, addr) - 4) & MASK
        memory.write_word(sp, value, core=core.index, addr=addr)
        write_reg(core, 4, sp, sink, addr)
    elif op == 0xB0:                                 # popl
        sp = read_reg(core, 4, sink, addr)
        value = memory.read_word(sp, core=core.index, addr=addr)
        write_reg(core, 4, (sp + 4) & MASK, sink, addr)
        write_reg(core, instr.ra, value, sink, addr)


def bind_ref(instr, addr):
    """An executor-shaped wrapper around the reference: what
    `coremodel.bind` would return, computed by step_instruction."""
    def execute(core, memory, sink):
        step_instruction(core, instr, addr, memory, sink)
    return execute
