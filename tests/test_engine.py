"""Engine tests: loading, timing, tick determinism, watchdog, memory."""

import pytest

from empa import assembler, engine, fixtures, isa, trace as tr
from empa.errors import Deadlock, ImageTooLarge, WatchdogExpired
from helpers import assemble_run, make_machine


def test_empty_image_halts_at_cycle_one():
    image = assembler.assemble("")
    machine = engine.Machine(image, engine.MachineConfig(cores=1))
    events, machine = machine.run_to_halt()
    assert machine.clock == 1
    assert events[-1].kind == tr.INSTR_RETIRED
    assert events[-1].addr == 0


def test_image_too_large():
    image = assembler.ObjectImage(8192)
    with pytest.raises(ImageTooLarge):
        engine.Machine(image, engine.MachineConfig(mem_bytes=4096))


def test_core_count_validated():
    with pytest.raises(ValueError):
        engine.MachineConfig(cores=0)
    with pytest.raises(ValueError):
        engine.MachineConfig(cores=65)


def test_default_timing_values():
    t = engine.TimingConfig()
    assert t.cycles_for(isa.NOP) == 1
    assert t.cycles_for(isa.HALT) == 1
    assert t.cycles_for(isa.RRMOVL | 3) == 1
    assert t.cycles_for(isa.IRMOVL) == 1
    assert t.cycles_for(isa.ADDL) == 1
    assert t.cycles_for(isa.JMP | 4) == 1
    assert t.cycles_for(isa.MRMOVL) == 3
    assert t.cycles_for(isa.RMMOVL) == 3
    assert t.cycles_for(isa.CALL) == 2
    assert t.cycles_for(isa.RET) == 2
    assert t.cycles_for(isa.PUSHL) == 2
    assert t.cycles_for(isa.POPL) == 2
    for op in isa.META_OPCODES:
        assert t.cycles_for(op) == 1


def _timing_class(opcode):
    """The per-call classifier that the opcode table replaced."""
    group = opcode & 0xF0
    if group == 0xE0:
        return "meta"
    if group == isa.RRMOVL:
        return "rrmovl"
    if group == 0x60:
        return "opl"
    if group == isa.JMP:
        return "jxx"
    return {isa.HALT: "halt", isa.NOP: "nop", isa.IRMOVL: "irmovl",
            isa.RMMOVL: "rmmovl", isa.MRMOVL: "mrmovl", isa.CALL: "call",
            isa.RET: "ret", isa.PUSHL: "pushl", isa.POPL: "popl"}[opcode]


def test_cycles_for_follows_the_old_classifier_on_every_opcode():
    # a distinct cycle count per class makes the class visible
    classes = sorted(engine.DEFAULT_TIMING)
    t = engine.TimingConfig({cls: i + 1 for i, cls in enumerate(classes)})
    for op in isa.OPCODES:
        assert t.cycles_for(op) == t.cycles[_timing_class(op)], hex(op)


def test_timing_from_text_and_validation():
    t = engine.TimingConfig.from_text("mrmovl = 5\n# comment\nopl=2\n")
    assert t.cycles_for(isa.MRMOVL) == 5
    assert t.cycles_for(isa.ADDL) == 2
    with pytest.raises(ValueError):
        engine.TimingConfig({"mrmovl": 0})
    with pytest.raises(ValueError):
        engine.TimingConfig({"frobnicate": 2})


@pytest.mark.parametrize("cycles", (2.7, True, "07"))
def test_timing_override_that_is_not_an_int_names_its_class(cycles):
    with pytest.raises(ValueError) as error:
        engine.TimingConfig({"nop": cycles})
    assert str(error.value) == "class 'nop': %r is not a whole number" % cycles


def test_clock_conservation():
    """Every retired instruction occupies exactly timing(class) cycles on
    its core: retire cycles are spaced by at least the next duration."""
    _, _, events = assemble_run(fixtures.no_mode_source(), cores=1)
    timing = engine.TimingConfig()
    retires = [(ev.cycle, ev.payload) for ev in events
               if ev.kind in (tr.INSTR_RETIRED, tr.META_RETIRED)]
    for (c1, _), (c2, d2) in zip(retires, retires[1:]):
        assert c2 - c1 >= d2
    total = sum(d for _, d in retires)
    assert retires[-1][0] >= total


def test_multicycle_instruction_not_disturbed_by_sibling_qterm():
    source = """
        QCreate A,%eno
        nop
A:      QTerm
        mrmovl V,%edx
        QWait -1
        halt
V:      .long 9
"""
    _, _, events = assemble_run(source, cores=4)
    loads = [ev for ev in events if ev.kind == tr.INSTR_RETIRED and ev.payload == 3]
    assert len(loads) == 1


def test_memory_multiported_same_cycle():
    """Two cores read the same word in the same cycle with no stall."""
    source = """
        QCreate A,%eno
        mrmovl V,%ecx
A:      QTerm
        mrmovl V,%edx
        QWait -1
        halt
V:      .long 0x55
"""
    _, machine, events = assemble_run(source, cores=2)
    loads = [ev for ev in events
             if ev.kind == tr.INSTR_RETIRED and ev.payload == 3]
    assert len(loads) == 2
    assert loads[0].cycle == loads[1].cycle    # perfectly overlapped


def test_deterministic_traces():
    for name, builder in fixtures.FIXTURES.items():
        cores = 8 if name == "dynpar" else 5
        _, _, ev1 = assemble_run(builder(), cores=cores)
        _, _, ev2 = assemble_run(builder(), cores=cores)
        assert tr.format_trace(ev1) == tr.format_trace(ev2), name


def test_watchdog_expires_without_events():
    # A QCreate on 1 core never finds a free core.  No event follows, and
    # the watchdog names the stuck core, so the run ends in Deadlock.
    # An event-less window with no stuck core is WatchdogExpired (below).
    source = "QCreate T,%eno\nnop\nT: QTerm\nhalt\n"
    _, machine = make_machine(source, cores=1, watchdog=30)
    with pytest.raises(Deadlock):
        machine.run_to_halt()


@pytest.mark.parametrize("run", ["tick", "run_to_halt"])
def test_instruction_slower_than_the_watchdog_window(run):
    image = assembler.assemble(fixtures.no_mode_source())
    machine = engine.Machine(image, engine.MachineConfig(
        cores=2, watchdog=30, timing=engine.TimingConfig({"mrmovl": 40})))
    with pytest.raises(WatchdogExpired, match="^no event for 30 cycles$"):
        if run == "tick":
            while not machine.halted:
                machine.tick()
        else:
            machine.run_to_halt()
    assert machine.clock == 41


def test_run_to_halt_cycle_budget():
    source = "L: jmp L\n"
    _, machine = make_machine(source, cores=1)
    with pytest.raises(WatchdogExpired):
        machine.run_to_halt(max_cycles=100)


def test_two_same_cycle_qcreates_allocate_in_core_order():
    source = """
        QCreate AT,%eno       # root creates A on core 1
        QCreate CT,%eno       # A's first instruction
        nop
CT:     QTerm
        QWait -1
AT:     QTerm
        QCreate BT,%eno       # root's next instruction
        nop
BT:     QTerm
        QWait -1
        halt
"""
    # Root's QCreate B and A's QCreate C retire in the same cycle, so both
    # requests land in one SV phase: the lower-index requester (root,
    # core 0) gets the lower-index free core.
    _, _, events = assemble_run(source, cores=8)
    created = [ev for ev in events if ev.kind == tr.QT_CREATED]
    assert created[0].core == 1                      # A
    same_cycle = created[1], created[2]
    assert same_cycle[0].cycle == same_cycle[1].cycle
    assert same_cycle[0].qt == "12"                  # root's B first
    assert same_cycle[0].core == 2
    assert same_cycle[1].qt == "111"                 # then A's C
    assert same_cycle[1].core == 3


def test_pool_invariant_checked_every_tick():
    image = assembler.assemble(fixtures.adaptive_source())
    machine = engine.Machine(image, engine.MachineConfig(cores=5))
    while not machine.halted:
        machine.tick()      # _check_invariants runs inside
    assert machine.clock > 0


def test_monotone_adaptive_cycles_over_k():
    counts = {}
    for cores in (4, 5, 6, 7, 8):
        _, machine, _ = assemble_run(fixtures.adaptive_source(), cores=cores)
        counts[cores] = machine.clock
    values = [counts[k] for k in (4, 5, 6, 7, 8)]
    assert values == sorted(values, reverse=True) or \
        all(a >= b for a, b in zip(values, values[1:]))


def test_events_cycle_nondecreasing():
    _, _, events = assemble_run(fixtures.sumup_mode_source(), cores=5)
    cycles = [ev.cycle for ev in events]
    assert cycles == sorted(cycles)


def test_fetch_illegal_opcode_faults_with_core_identified():
    image = assembler.assemble(".pos 0\n.long 0xCCCCCCCC\n")
    machine = engine.Machine(image, engine.MachineConfig(cores=1))
    from empa.errors import RuntimeFault
    with pytest.raises(RuntimeFault) as exc:
        machine.run_to_halt()
    assert exc.value.core == 0


def test_image_from_bytes_roundtrip():
    payload = isa.encode(isa.Instruction(isa.IRMOVL, rb=isa.REG_EAX, imm=7)) \
        + isa.encode(isa.Instruction(isa.HALT))
    image = engine.image_from_bytes(payload, size=64)
    machine = engine.Machine(image, engine.MachineConfig(cores=1, mem_bytes=64))
    _, machine = machine.run_to_halt()
    assert machine.cores[0].regs[isa.REG_EAX] == 7


@pytest.mark.parametrize("kwargs", [{"mem_bytes": 2}, {"watchdog": 0},
                                    {"watchdog": -3}])
def test_machine_config_rejects_unusable_values(kwargs):
    with pytest.raises(ValueError):
        engine.MachineConfig(**kwargs)
