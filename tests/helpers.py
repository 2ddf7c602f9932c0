"""Shared helpers for the test suite."""

from hypothesis import strategies as st

from empa import assembler, engine, fixtures, isa, trace as tr
from empa.errors import Deadlock


def assemble_run(source, cores=8, watchdog=10000, timing=None, max_cycles=200000):
    """Assemble, run to halt, return (image, machine, events)."""
    image = assembler.assemble(source)
    cfg = engine.MachineConfig(cores=cores, watchdog=watchdog,
                               timing=timing or engine.TimingConfig())
    machine = engine.Machine(image, cfg)
    events, machine = machine.run_to_halt(max_cycles=max_cycles)
    return image, machine, events


def make_machine(source, cores=8, watchdog=10000):
    image = assembler.assemble(source)
    cfg = engine.MachineConfig(cores=cores, watchdog=watchdog)
    return image, engine.Machine(image, cfg)


def word(machine, image, label):
    return machine.memory.read_word(image.symbols[label])


def format_instruction(instr):
    """Assembly text for an instruction (addresses as hex literals)."""
    name, form, reg = instr.mnemonic, instr.spec.form, isa.REGISTER_NAMES
    if form == "n":
        return name
    if form == "rr":
        return "%s %s,%s" % (name, reg[instr.ra], reg[instr.rb])
    if form == "r":
        return "%s %s" % (name, reg[instr.ra])
    if form == "ir":
        return "%s $0x%x,%s" % (name, instr.imm, reg[instr.rb])
    if form == "rm":
        mem = "0x%x" % instr.imm
        if instr.rb != isa.RNONE:
            mem += "(%s)" % reg[instr.rb]
        if instr.opcode == isa.RMMOVL:
            return "%s %s,%s" % (name, reg[instr.ra], mem)
        return "%s %s,%s" % (name, mem, reg[instr.ra])
    if form == "d":
        if instr.imm == isa.WORD_MASK and instr.opcode in (isa.QWAIT, isa.QPWAIT):
            return "%s -1" % name
        return "%s 0x%x" % (name, instr.imm)
    if form == "qr":
        if instr.opcode == isa.QALLOC:
            return "%s %d,%s" % (name, instr.imm, reg[instr.ra])
        return "%s 0x%x,%s" % (name, instr.imm, reg[instr.ra])
    raise AssertionError(form)


def valid_instruction_space():
    """Strategy over every syntactically valid instruction."""
    regs = st.sampled_from(sorted(isa.VALID_REG_CODES))
    imm = st.integers(min_value=0, max_value=0xFFFFFFFF)

    def for_opcode(op):
        form = isa.OPCODES[op].form
        if form == "n":
            return st.just(isa.Instruction(op))
        if form == "rr":
            return st.builds(isa.Instruction, st.just(op), regs, regs)
        if form == "r":
            return st.builds(isa.Instruction, st.just(op), regs)
        if form == "ir":
            return st.builds(lambda o, r, i: isa.Instruction(o, rb=r, imm=i),
                             st.just(op), regs, imm)
        if form == "rm":
            base = st.sampled_from(sorted(isa.VALID_REG_CODES) + [isa.RNONE])
            return st.builds(isa.Instruction, st.just(op), regs, base, imm)
        if form == "d":
            return st.builds(lambda o, i: isa.Instruction(o, imm=i),
                             st.just(op), imm)
        if form == "qr":
            return st.builds(lambda o, r, i: isa.Instruction(o, ra=r, imm=i),
                             st.just(op), regs, imm)
        raise AssertionError(form)

    return st.sampled_from(sorted(isa.OPCODES)).flatmap(for_opcode)


def listing_source(text):
    """The source column of a listing written by assembler.write_listing."""
    lines = []
    for line in text.splitlines():
        if " | " in line:
            lines.append(line.split(" | ", 1)[1])
    return "\n".join(lines) + "\n"


class CountingList(list):
    """A list that counts how often it is iterated from the start."""
    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def fixture_trace(name, cores):
    """The fixture's events on `cores` cores, up to a deadlock if any."""
    _, machine = make_machine(fixtures.FIXTURES[name](), cores=cores)
    try:
        machine.run_to_halt()
    except Deadlock:
        pass
    return machine.events


# QT ids for generated traces: the id grammar's shapes, plus ids that a
# parsed trace may hold (any non-blank characters, or none) with XML
# specials in the id and in its parent's id.
QT_IDS = ("1", "11", "12", "111", "1(36)", "", "1&", "1&2", '1"', '1"<',
          "1>", '1(<&">)')


@st.composite
def event_lists(draw):
    """(cores, events): up to 40 arbitrary events on 1..5 cores."""
    cores = draw(st.integers(1, 5))
    event = st.builds(tr.Event,
                      cycle=st.integers(0, 30),
                      core=st.integers(0, cores - 1),
                      qt=st.sampled_from(QT_IDS),
                      kind=st.sampled_from(sorted(tr.KINDS)),
                      addr=st.integers(0, 3),
                      payload=st.sampled_from((None, 1, 2, 3)))
    return cores, draw(st.lists(event, max_size=40))
