"""The executors that `coremodel.bind` builds, against the reference
semantics in `tests/step_ref.py`, which dispatches on the opcode at
every step and shares no code with them.

Every opcode runs with every register form it can encode (the GPRs,
%eno, %ecc, %esv and, for a memory base, no register), on every %esv
row a core can be in, from random registers, flags and latches.  Both
sides must leave the same pc, registers, flags, latches, break-channel
mark and memory, make the same sink calls in the same order and raise
the same fault.  Whole runs with the reference bound in place of the
executors must give the same machine.
"""

import random

import pytest

from empa import assembler, coremodel, engine, fixtures, isa, trace as tr
from empa.coremodel import EsvContext, State, bind
from empa.errors import AddressOutOfRange, RuntimeFault, SimulationError
from empa.supervisor import KIND_MASS_TRUE, MODE_SUMUP, MassControl
from helpers import format_instruction
from step_ref import bind_ref

# The rows a core can be in; the cloning row is applied only by QTerm.
CORE_ROWS = [EsvContext.MASS_CHILD, EsvContext.MASS_PRE,
             EsvContext.MASS_POST, EsvContext.GENERAL]

REGISTERS = list(range(isa.REG_ESV + 1))          # %eax..%edi, %eno, %ecc, %esv
MEMORY = 64


def register_forms(opcode):
    """Every (ra, rb) the opcode's form can encode."""
    form = isa.OPCODES[opcode].form
    none = [isa.RNONE]
    ras = REGISTERS if form in ("rr", "r", "rm", "qr") else none
    rbs = {"rr": REGISTERS, "ir": REGISTERS,
           "rm": REGISTERS + none}.get(form, none)
    return [(ra, rb) for ra in ras for rb in rbs]


class Recorder:
    """A sink that records every call, in order."""

    def __init__(self):
        self.calls = []

    def latch_read(self, core, value, addr):
        self.calls.append(("read", core.index, value, addr))

    def latch_write(self, core, latch, value, addr):
        self.calls.append(("write", core.index, latch, value, addr))


class _QT:
    def __init__(self, ecc_index):
        self.ecc_index = ecc_index


def _word(rng):
    """Mostly in-range addresses, some sign and wrap edges, some noise."""
    return rng.choice((rng.randrange(0, MEMORY, 4), rng.randrange(MEMORY),
                       0, 4, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFC, 0xFFFFFFFF,
                       rng.getrandbits(32)))


def _state(rng, row):
    """(core, memory) in a random state on `row`."""
    core = coremodel.CoreState(3)
    core.regs = [_word(rng) for _ in range(isa.GPR_COUNT)]
    core.zf, core.sf, core.of = (rng.random() < 0.5 for _ in range(3))
    core.latches = [_word(rng) for _ in range(4)]
    core.phase = row
    core.qt = _QT(rng.randrange(5)) if rng.random() < 0.8 else None
    memory = engine.Memory(bytes(rng.getrandbits(8) for _ in range(MEMORY)))
    return core, memory


def _clone(core, memory):
    twin = coremodel.CoreState(core.index)
    twin.regs = list(core.regs)
    twin.zf, twin.sf, twin.of = core.zf, core.sf, core.of
    twin.latches = list(core.latches)
    twin.phase = core.phase
    twin.qt = core.qt
    twin.pc = core.pc
    return twin, engine.Memory(memory.data)


def _outcome(execute, core, memory):
    sink = Recorder()
    try:
        execute(core, memory, sink)
        fault = None
    except RuntimeFault as exc:
        fault = (type(exc), str(exc))
    return {"pc": core.pc, "regs": core.regs,
            "flags": (core.zf, core.sf, core.of), "latches": core.latches,
            "dirty": core.for_parent_dirty, "memory": bytes(memory.data),
            "calls": sink.calls, "fault": fault}


def _agree(instr, addr, core, memory, execute=None):
    """Run `execute` (by default the executor bound for `instr` at
    `addr`) and the reference on twin states; returns the outcome they
    share."""
    twin, twin_memory = _clone(core, memory)
    got = _outcome(execute or bind(instr, addr), core, memory)
    want = _outcome(bind_ref(instr, addr), twin, twin_memory)
    assert got == want, (format_instruction(instr), addr)
    return got


def assert_acts_as_reference(execute, instr, addr, seed=0):
    """`execute` does what the reference does for `instr` at `addr`, from
    a random state on each row."""
    rng = random.Random(seed)
    for row in CORE_ROWS:
        core, memory = _state(rng, row)
        _agree(instr, addr, core, memory, execute)


def _immediates(rng, form):
    if form in ("n", "rr", "r"):
        return [0]
    return [rng.randrange(MEMORY), rng.randrange(0, MEMORY, 4),
            rng.getrandbits(32), 0xFFFFFFFC]


@pytest.mark.parametrize("opcode", sorted(isa.OPCODES),
                         ids=lambda op: isa.OPCODES[op].mnemonic)
def test_every_register_form_matches_the_reference(opcode):
    rng = random.Random(opcode)
    form = isa.OPCODES[opcode].form
    for ra, rb in register_forms(opcode):
        for row in CORE_ROWS:
            for imm in _immediates(rng, form):
                instr = isa.Instruction(opcode, ra, rb, imm)
                for addr in (0, rng.randrange(MEMORY), 0xFFFFFFFE):
                    core, memory = _state(rng, row)
                    _agree(instr, addr, core, memory)


def _run(instr, row=EsvContext.GENERAL, regs=(), latches=(0, 0, 0, 0),
         addr=0x10, **flags):
    """One instruction from a set state, on both sides."""
    core = coremodel.CoreState(0)
    core.regs = [0] * isa.GPR_COUNT
    for reg, value in regs:
        core.regs[reg] = value
    core.latches = list(latches)
    core.phase = row
    core.qt = _QT(2)
    for flag, value in flags.items():
        setattr(core, flag, value)
    return _agree(instr, addr, core, engine.Memory(bytes(range(MEMORY))))


ESV, ECC, ENO, EAX, ECX, ESP = (isa.REG_ESV, isa.REG_ECC, isa.REG_ENO,
                                isa.REG_EAX, isa.REG_ECX, isa.REG_ESP)
I = isa.Instruction


@pytest.mark.parametrize("instr", [
    I(isa.MRMOVL, EAX, isa.RNONE, 0x1000),
    I(isa.MRMOVL, EAX, ECX, 0x1000),
    I(isa.RMMOVL, EAX, isa.RNONE, 0x1000),
    I(isa.CALL, imm=0x40), I(isa.RET),
    I(isa.PUSHL, EAX), I(isa.POPL, EAX),
    I(isa.RRMOVL, EAX, ECC), I(isa.IRMOVL, rb=ECC, imm=1),
], ids=format_instruction)
def test_pc_advances_before_the_fault(instr):
    regs = [(ESP, 0x1000)] if instr.opcode in (isa.CALL, isa.RET, isa.PUSHL,
                                               isa.POPL) else []
    out = _run(instr, regs=regs)
    assert out["fault"] is not None
    assert out["pc"] == 0x10 + instr.length


def test_a_cmov_not_taken_still_reads_esv():
    out = _run(I(isa.RRMOVL | 3, ESV, EAX), latches=(0, 7, 0, 0), zf=False)
    assert out["calls"] == [("read", 0, 7, 0x10)]
    assert out["regs"][EAX] == 0


@pytest.mark.parametrize("opcode", [isa.RMMOVL, isa.MRMOVL])
def test_an_esv_base_is_read_before_ra_and_memory(opcode):
    """rA %esv as well: two reads, both before the memory fault."""
    out = _run(I(opcode, ESV, ESV, 0x1000), latches=(0, 8, 0, 0))
    reads = [("read", 0, 8, 0x10)]
    assert out["calls"] == (reads * 2 if opcode == isa.RMMOVL else reads)
    assert out["fault"][0] is AddressOutOfRange


def test_a_memory_fault_in_mrmovl_comes_before_the_ecc_fault():
    out = _run(I(isa.MRMOVL, ECC, isa.RNONE, 0x1000))
    assert "beyond image" in out["fault"][1]
    out = _run(I(isa.MRMOVL, ECC, isa.RNONE, 0x8))
    assert "%ecc is read-only" in out["fault"][1]


def test_pushl_esp_pushes_the_old_esp_and_popl_esp_keeps_the_word():
    out = _run(I(isa.PUSHL, ESP), regs=[(ESP, 0x20)])
    assert out["regs"][ESP] == 0x1C
    assert out["memory"][0x1C:0x20] == (0x20).to_bytes(4, "little")
    out = _run(I(isa.POPL, ESP), regs=[(ESP, 0x20)])
    assert out["regs"][ESP] == 0x23222120         # the popped word


def test_opl_into_eno_sets_the_flags():
    out = _run(I(isa.SUBL, EAX, ENO), regs=[(EAX, 1)])
    assert out["flags"] == (False, True, False)    # 0 - 1
    assert out["regs"] == [1] + [0] * 7


def _sumup_child(value):
    """Core 1 runs a SUMUP child of the root on a two-core machine."""
    machine = engine.Machine(engine.image_from_bytes(bytes([isa.HALT])),
                             engine.MachineConfig(cores=2))
    machine.root_qt.alloc = MassControl(MODE_SUMUP, [1])
    child = machine.cores[1]
    machine.sv.create_qt(machine.cores[0], 1, 0, 0, ENO, KIND_MASS_TRUE, 0)
    child.state = State.RUNNING
    child.phase = EsvContext.MASS_CHILD
    child.regs[EAX] = value
    return machine, child


def test_a_for_parent_write_marks_the_break_channel_and_feeds_the_adder():
    instr = I(isa.RRMOVL, EAX, ESV)
    runs = []
    for execute in (bind(instr, 0), bind_ref(instr, 0)):
        machine, child = _sumup_child(0x1234)
        created = len(machine.events)
        execute(child, machine.memory, machine)
        runs.append((child.for_parent_dirty, list(child.latches),
                     list(machine.cores[0].latches),
                     machine.root_qt.alloc.adder, machine.events[created:]))
    assert runs[0] == runs[1]
    dirty, _, root_latches, adder, events = runs[0]
    assert dirty and adder == 0x1234 == root_latches[coremodel.FROM_CHILD]
    assert [ev.kind for ev in events] == [tr.LATCH_WRITE, tr.SUM_FEED]


CORE_COUNTS = (1, 2, 3, 4, 5, 8, 64)


def _whole_run(source, cores):
    machine = engine.Machine(assembler.assemble(source),
                             engine.MachineConfig(cores=cores))
    try:
        machine.run_to_halt()
        error = None
    except SimulationError as exc:    # compared, not swallowed
        error = (type(exc), str(exc))
    return {"error": error, "clock": machine.clock, "events": machine.events,
            "memory": bytes(machine.memory.data),
            "cores": [(c.state, c.pc, c.regs, (c.zf, c.sf, c.of), c.latches,
                       c.for_parent_dirty) for c in machine.cores]}


@pytest.mark.parametrize("cores", CORE_COUNTS)
@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_whole_runs_match_the_reference(name, cores, monkeypatch):
    """The fixtures run the same with the reference bound at decode."""
    source = fixtures.FIXTURES[name]()
    got = _whole_run(source, cores)
    monkeypatch.setattr(engine, "bind", bind_ref)
    assert _whole_run(source, cores) == got


def test_gpr_only_code_never_takes_the_pseudo_register_path(monkeypatch):
    """The conventional vector sum names no pseudo-register, so it runs
    the same with the pseudo-register helpers made to fail."""
    source = fixtures.no_mode_source()
    want = _whole_run(source, 64)

    def refuse(*args):
        raise AssertionError("pseudo-register helper called")

    monkeypatch.setattr(coremodel, "read_register", refuse)
    monkeypatch.setattr(coremodel, "write_register", refuse)
    got = _whole_run(source, 64)
    assert got == want
    assert got["error"] is None and got["events"][-1].kind == tr.INSTR_RETIRED
