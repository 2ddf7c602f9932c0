"""Shared helpers for the test suite."""

import functools
import hashlib
import importlib.util
import tracemalloc
from operator import itemgetter
from pathlib import Path

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


class CountingTrace(tr.Trace):
    """A Trace that counts how often it is iterated from the start."""
    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def count_calls(monkeypatch, *names):
    """The calls of each function trace.`name` from now on, as a list of
    their names in call order."""
    calls = []
    for name in names:
        def counted(events, _name=name, _real=getattr(tr, name)):
            calls.append(_name)
            return _real(events)
        monkeypatch.setattr(tr, name, counted)
    return calls


def traced_memory(fn):
    """(fn(), the bytes still allocated when it returns, the peak bytes
    allocated while it ran), both counted by tracemalloc from the call
    on, in this process."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def fixture_trace(name, cores):
    """The fixture's events on `cores` cores, up to a deadlock if any."""
    _, machine = make_machine(fixtures.FIXTURES[name](), cores=cores)
    try:
        machine.run_to_halt()
    except Deadlock:
        pass
    return machine.events


@functools.lru_cache(maxsize=None)
def bench_workloads():
    """The benchmark's workload generator module, `bench/workloads.py`."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@functools.lru_cache(maxsize=None)
def pinned_traces():
    """{name: ((cores, events), ...)}: the engine traces of every seed-0
    program of each benchmark workload, and of each fixture on 64 cores
    (named "fixture:<builder>")."""
    workloads = bench_workloads()
    traces = {}
    for name in sorted(workloads.PARAMS):
        runs = []
        for program in workloads.generate(name, 0):
            image = assembler.assemble(program.source, program.mem_bytes)
            machine = engine.Machine(image, engine.MachineConfig(
                cores=program.cores, mem_bytes=program.mem_bytes))
            events, _ = machine.run_to_halt()
            runs.append((program.cores, events))
        traces[name] = tuple(runs)
    for name in sorted(fixtures.FIXTURES):
        traces["fixture:" + name] = ((64, fixture_trace(name, 64)),)
    return traces


def rendered_sha256(render):
    """{name: sha256 of `render(events, cores)` over each run of
    `pinned_traces()[name]`, concatenated}."""
    digests = {}
    for name, runs in pinned_traces().items():
        digest = hashlib.sha256()
        for cores, events in runs:
            digest.update(render(events, cores).encode())
        digests[name] = digest.hexdigest()
    return digests


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


@st.composite
def wide_event_lists(draw):
    """(cores, events): up to 300 events on 1..64 cores over cycles
    0..300.  Besides arbitrary events there are QT spans and waits (a
    begin and an end of one core and QT) that last many cycles, so rows
    share long background runs, and instructions retired at several
    cycles.  The events fall on at most 8 of the cores and within a
    drawn last cycle, so rows often hold several marked cells and
    instructions repeat a (core, addr, duration).  The list is in cycle
    order or as drawn."""
    cores = draw(st.integers(1, 64))
    core = st.sampled_from(draw(st.lists(st.integers(0, cores - 1),
                                         min_size=1, max_size=8)))
    cycle = st.integers(0, draw(st.integers(0, 300)))
    qt = st.sampled_from(QT_IDS)
    addr = st.integers(0, 3)
    payload = st.sampled_from((None, 0, 1, 2, 3, 4, 5))
    event = st.builds(tr.Event, cycle=cycle, core=core, qt=qt,
                      kind=st.sampled_from(sorted(tr.KINDS)), addr=addr,
                      payload=payload)

    def pair(begin, end):
        return st.builds(
            lambda c, q, a, b, at: (tr.Event(min(a, b), c, q, begin, at, None),
                                    tr.Event(max(a, b), c, q, end, at, None)),
            core, qt, cycle, cycle, addr)

    # one instruction (core, addr, payload) retired at several cycles
    repeats = st.builds(
        lambda c, at, p, cycles: [tr.Event(x, c, tr.ROOT_QT_ID,
                                           tr.INSTR_RETIRED, at, p)
                                  for x in cycles],
        core, addr, payload, st.lists(cycle, min_size=2, max_size=10))
    groups = st.lists(st.one_of(pair(tr.QT_CREATED, tr.QT_TERMINATED),
                                pair(tr.WAIT_BEGIN, tr.WAIT_END), repeats),
                      max_size=20)
    events = [ev for group in draw(groups) for ev in group]
    events += draw(st.lists(event, max_size=300 - len(events)))
    if draw(st.booleans()):
        events.sort(key=itemgetter(0))
    return cores, events
