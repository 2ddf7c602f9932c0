"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` (or -rP) to see the
per-criterion lines.
"""

import random
import time
import xml.etree.ElementTree as ET
from fractions import Fraction

from empa import assembler, diagram, engine, isa, stats, trace as tr
from empa.coremodel import (FOR_CHILD, FOR_PARENT, FROM_CHILD, FROM_PARENT,
                            EsvContext)
from empa.fixtures import (FIXTURES, adaptive_source, dynpar_source,
                           no_mode_source)

from helpers import assemble_run, word
from y86_ref import run_y86


def _passed(n, text):
    print("ACCEPTANCE %2d PASS: %s" % (n, text))


# ---- 1. encoding round-trip -------------------------------------------------

def _random_instruction(rng):
    opcode = rng.choice(sorted(isa.OPCODES))
    form = isa.OPCODES[opcode].form
    regs = sorted(isa.VALID_REG_CODES)
    imm = rng.getrandbits(32)
    if form == "n":
        return isa.Instruction(opcode)
    if form == "rr":
        return isa.Instruction(opcode, rng.choice(regs), rng.choice(regs))
    if form == "r":
        return isa.Instruction(opcode, rng.choice(regs))
    if form == "ir":
        return isa.Instruction(opcode, rb=rng.choice(regs), imm=imm)
    if form == "rm":
        return isa.Instruction(opcode, rng.choice(regs),
                               rng.choice(regs + [isa.RNONE]), imm)
    if form == "d":
        return isa.Instruction(opcode, imm=imm)
    if form == "qr":
        return isa.Instruction(opcode, ra=rng.choice(regs), imm=imm)
    raise AssertionError(form)


def test_criterion_1_roundtrip():
    start = time.monotonic()
    # exhaustive opcode sweep: every known opcode byte round-trips a
    # canonical instruction, every unknown byte raises IllegalOpcode
    def canonical(opcode):
        form = isa.OPCODES[opcode].form
        if form == "n":
            return isa.Instruction(opcode)
        if form in ("rr",):
            return isa.Instruction(opcode, isa.REG_EAX, isa.REG_ECX)
        if form == "r":
            return isa.Instruction(opcode, isa.REG_EAX)
        if form == "ir":
            return isa.Instruction(opcode, rb=isa.REG_EAX, imm=0x1234)
        if form == "rm":
            return isa.Instruction(opcode, isa.REG_EAX, isa.REG_EBX, 0x10)
        if form == "d":
            return isa.Instruction(opcode, imm=0x40)
        if form == "qr":
            return isa.Instruction(opcode, ra=isa.REG_EAX, imm=0x40)
        raise AssertionError(form)

    for byte in range(256):
        if byte in isa.OPCODES:
            instr = canonical(byte)
            decoded, length = isa.decode(isa.encode(instr) + bytes(4))
            assert decoded == instr
            assert length == isa.OPCODES[byte].length
        else:
            try:
                isa.decode(bytes([byte]) + bytes(6))
            except isa.IllegalOpcode:
                pass
            else:
                raise AssertionError("0x%02x decoded unexpectedly" % byte)
    rng = random.Random(0xE1)
    samples = 100000
    for _ in range(samples):
        instr = _random_instruction(rng)
        data = isa.encode(instr)
        assert len(data) == instr.length
        decoded, length = isa.decode(data)
        assert decoded == instr and length == instr.length
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, "round-trip property took %.1fs" % elapsed
    _passed(1, "decode(encode) identity on %d samples + exhaustive sweep "
               "in %.1fs" % (samples, elapsed))


# ---- 2. Y86 differential -----------------------------------------------------

_GPRS = [isa.REG_EAX, isa.REG_ECX, isa.REG_EDX, isa.REG_EBX,
         isa.REG_ESI, isa.REG_EDI]


def _random_straight_line(rng):
    prog = [isa.Instruction(isa.IRMOVL, rb=isa.REG_ESP, imm=0x800),
            isa.Instruction(isa.IRMOVL, rb=isa.REG_EBP, imm=0x600)]
    depth = 0
    for _ in range(rng.randrange(5, 40)):
        pick = rng.randrange(10)
        if pick == 0:
            prog.append(isa.Instruction(isa.NOP))
        elif pick == 1:
            prog.append(isa.Instruction(isa.RRMOVL | rng.randrange(7),
                                        rng.choice(_GPRS), rng.choice(_GPRS)))
        elif pick == 2:
            prog.append(isa.Instruction(isa.IRMOVL, rb=rng.choice(_GPRS),
                                        imm=rng.getrandbits(32)))
        elif pick == 3:
            prog.append(isa.Instruction(0x60 | rng.randrange(4),
                                        rng.choice(_GPRS), rng.choice(_GPRS)))
        elif pick == 4:
            prog.append(isa.Instruction(isa.RMMOVL, rng.choice(_GPRS),
                                        isa.REG_EBP, rng.randrange(64) * 4))
        elif pick == 5:
            prog.append(isa.Instruction(isa.MRMOVL, rng.choice(_GPRS),
                                        isa.REG_EBP, rng.randrange(64) * 4))
        elif pick == 6:
            prog.append(isa.Instruction(isa.RMMOVL, rng.choice(_GPRS),
                                        isa.RNONE, 0x600 + rng.randrange(64) * 4))
        elif pick == 7:
            prog.append(isa.Instruction(isa.MRMOVL, rng.choice(_GPRS),
                                        isa.RNONE, 0x600 + rng.randrange(64) * 4))
        elif pick == 8 and depth < 50:
            prog.append(isa.Instruction(isa.PUSHL, rng.choice(_GPRS)))
            depth += 1
        elif pick == 9 and depth > 0:
            prog.append(isa.Instruction(isa.POPL, rng.choice(_GPRS)))
            depth -= 1
        else:
            prog.append(isa.Instruction(isa.NOP))
    prog.append(isa.Instruction(isa.HALT))
    return b"".join(isa.encode(i) for i in prog)


def test_criterion_2_y86_differential():
    rng = random.Random(0x59E6)
    for case in range(1000):
        blob = _random_straight_line(rng)
        image = engine.image_from_bytes(blob, size=4096)
        machine = engine.Machine(image, engine.MachineConfig(cores=1))
        _, machine = machine.run_to_halt()
        ref_regs, ref_mem = run_y86(bytes(image.memory).ljust(4096, b"\0"))
        assert machine.cores[0].regs == ref_regs, "case %d" % case
        assert machine.memory.data == ref_mem, "case %d" % case
    _passed(2, "1000 random straight-line programs bit-identical to the "
               "reference oracle")


# ---- 3. sum correctness oracle -------------------------------------------------

def test_criterion_3_sum_oracle():
    rng = random.Random(0x5D11)
    sum_fixtures = ["no_mode", "for_mode", "sumup_mode", "adaptive"]
    for case in range(200):
        length = rng.randrange(1, 17)
        values = [rng.getrandbits(32) for _ in range(length)]
        expected = sum(values) % 2**32          # the sequential oracle
        sources = {name: FIXTURES[name](values) for name in sum_fixtures}
        images = {name: assembler.assemble(src)
                  for name, src in sources.items()}
        for cores in range(1, 9):
            for name in sum_fixtures:
                image = images[name]
                machine = engine.Machine(image, engine.MachineConfig(cores=cores))
                events, machine = machine.run_to_halt()
                got = machine.memory.read_word(image.symbols["Sum"])
                assert got == expected, (case, name, cores)
                if name == "adaptive":
                    sumup_taken = any(
                        ev.kind == tr.QT_CREATED
                        and ev.addr == image.symbols["ATC"]
                        for ev in events)
                    assert sumup_taken == (cores >= length + 1), (case, cores)
    _passed(3, "200 random vectors x 4 variants x cores 1..8 all equal the "
               "sequential modular sum; adaptive branch choice correct")


# ---- 4. latch-map table -----------------------------------------------------------

def test_criterion_4_esv_table():
    expected = {
        (EsvContext.CLONING, "read"): FOR_PARENT,
        (EsvContext.CLONING, "write"): FROM_CHILD,
        (EsvContext.MASS_CHILD, "read"): FROM_PARENT,
        (EsvContext.MASS_CHILD, "write"): FOR_PARENT,
        (EsvContext.MASS_PRE, "read"): FROM_PARENT,
        (EsvContext.MASS_PRE, "write"): FOR_CHILD,
        (EsvContext.MASS_POST, "read"): FROM_CHILD,
        (EsvContext.MASS_POST, "write"): FOR_PARENT,
        (EsvContext.GENERAL, "read"): FROM_CHILD,
        (EsvContext.GENERAL, "write"): FOR_PARENT,
    }
    assert len(expected) == 10
    assert len(EsvContext) == 5
    for (context, access), latch in expected.items():
        assert getattr(context, access) == latch
    _passed(4, "context-dependent latch map matches all 5 rows / 10 cells")


# ---- 5. parallelization-model table ------------------------------------------------

def test_criterion_5_model_calculator():
    rows = [
        ((8, 3, 4), Fraction(8, 3), Fraction(2, 3), "2.67", "0.67"),
        ((8, 7, 2), Fraction(8, 7), Fraction(4, 7), "1.14", "0.57"),
        ((8, 6, 2), Fraction(4, 3), Fraction(2, 3), "1.33", "0.67"),
        ((8, Fraction("3.8"), Fraction("4.1")), Fraction(40, 19),
         Fraction(400, 779), "2.11", "0.51"),
    ]
    for inputs, speed_exact, eff_exact, speed_str, eff_str in rows:
        par, speed, eff = stats.model_calculator(*inputs)
        assert par == speed == speed_exact
        assert eff == eff_exact
        assert "%.2f" % float(speed) == speed_str
        assert "%.2f" % float(eff) == eff_str
    _passed(5, "model calculator reproduces all four rows exactly "
               "(2.67/0.67, 1.14/0.57, 1.33/0.67, 2.11/0.51)")


# ---- 6. adaptive speedup table (partial) ---------------------------------------------

def test_criterion_6_speedup_and_alpha():
    assert abs(stats.alpha_eff(2, 0.91) - (-0.20)) <= 0.005
    assert abs(stats.alpha_eff(5, 3.74) - 0.92) <= 0.005
    assert stats.alpha_eff(1, 1.0) == 1.0

    cycles = {}
    for cores in (1, 4, 5):
        _, machine, _ = assemble_run(adaptive_source(), cores=cores)
        cycles[("adaptive", cores)] = machine.clock
    _, machine, _ = assemble_run(no_mode_source(), cores=1)
    cycles[("no_mode", 1)] = machine.clock

    a5, a4 = cycles[("adaptive", 5)], cycles[("adaptive", 4)]
    n1, a1 = cycles[("no_mode", 1)], cycles[("adaptive", 1)]
    assert a5 < a4 < n1 <= a1, (a5, a4, n1, a1)
    speedup = n1 / a5
    assert speedup >= 2.0, speedup
    _passed(6, "alpha_eff rows k=1,2,5 within 0.005; cycle ordering "
               "%d < %d < %d <= %d; speedup %.2f >= 2.0"
            % (a5, a4, n1, a1, speedup))


# ---- 7. FOR semantics ------------------------------------------------------------------

_FOR_BREAK_TEMPLATE = """
        irmovl Vec,%ebx
        irmovl $8,%ecx
        irmovl $BREAKAT,%edi
        xorl %eax,%eax
        QAlloc 1,%ecx
        rrmovl %ebx,%esv
BTC:    QTCreate BTT,%eax
        mrmovl 0(%esv),%edx
        addl %edx,%eax
        rrmovl %ecc,%ebp
        subl %edi,%ebp
        jne BGo
        xorl %edx,%edx
        rrmovl %edx,%esv
BGo:    nop
BTT:    QTerm
BFC:    QFCreate BFT,%eax
        nop
BFT:    QTerm
        rmmovl %eax,Sum
        halt
        .pos 0x200
Vec:    .long 1
        .long 2
        .long 3
        .long 4
        .long 5
        .long 6
        .long 7
        .long 8
Sum:    .long 0
"""


def test_criterion_7_for_semantics():
    # full run: the address sequence is exactly base, base+4, ...
    image, machine, events = assemble_run(
        _FOR_BREAK_TEMPLATE.replace("$BREAKAT", "$99"), cores=2)
    base = image.symbols["Vec"]
    child_reads = [ev.payload for ev in events
                   if ev.kind == tr.LATCH_READ and ev.qt != "1"]
    assert child_reads == [base + 4 * i for i in range(8)]
    assert word(machine, image, "Sum") == 36

    for j in (0, 2, 5):
        image, machine, events = assemble_run(
            _FOR_BREAK_TEMPLATE.replace("$BREAKAT", "$%d" % j), cores=2)
        created = [ev for ev in events if ev.kind == tr.QT_CREATED]
        assert len(created) == j + 1, j
        child_reads = [ev.payload for ev in events
                       if ev.kind == tr.LATCH_READ and ev.qt != "1"]
        assert child_reads == [base + 4 * i for i in range(j + 1)], j
        assert word(machine, image, "Sum") == sum(range(1, j + 2)), j
    _passed(7, "FOR children observe base,base+4,...; a break after "
               "iteration j leaves exactly j+1 children ever created")


# ---- 8. dynamic-parallelism mapping ------------------------------------------------------

def test_criterion_8_dynpar_mapping():
    image8, machine8, ev8 = assemble_run(dynpar_source(), cores=8)
    st8 = stats.compute_stats(ev8, 8)
    assert st8.max_concurrent <= 7
    assert all(ev.core <= 6 for ev in ev8)

    image4, machine4, ev4 = assemble_run(dynpar_source(), cores=4)
    assert machine4.clock > machine8.clock

    def payload_multiset(events):
        return sorted(ev.addr for ev in events if ev.kind == tr.INSTR_RETIRED)

    assert payload_multiset(ev4) == payload_multiset(ev8)
    assert word(machine4, image4, "RA") == word(machine8, image8, "RA")
    assert word(machine4, image4, "RB") == word(machine8, image8, "RB")
    _passed(8, "dynpar: <=7 busy cores on 8; 4-core run %d > %d cycles with "
               "an identical retired-instruction set"
            % (machine4.clock, machine8.clock))


# ---- 9. pool conservation + determinism ---------------------------------------------------

def test_criterion_9_conservation_and_determinism():
    # The partition/forest checker runs inside every tick() of every run in
    # this suite and raises InvariantViolation on any breach; run all the
    # fixtures once more here, then compare two complete artifact sets.
    for name, builder in FIXTURES.items():
        for cores in ((8, 4) if name == "dynpar" else (1, 2, 5, 8)):
            outputs = []
            for _ in range(2):
                image = assembler.assemble(builder())
                machine = engine.Machine(image, engine.MachineConfig(cores=cores))
                events, machine = machine.run_to_halt()
                st = stats.compute_stats(events, cores)
                outputs.append((tr.format_trace(events),
                                diagram.render_diagram(events, cores),
                                stats.format_stats(st)))
            assert outputs[0] == outputs[1], (name, cores)
    _passed(9, "invariant checker green on every tick; repeated runs give "
               "byte-identical traces, diagrams and stats")


# ---- 10. diagram contract ------------------------------------------------------------------

def test_criterion_10_diagram_contract():
    _, machine, events = assemble_run(FIXTURES["sumup_mode"](), cores=5)
    svg = diagram.render_diagram(events, 5)
    root = ET.fromstring(svg)              # well-formed XML or this raises

    rects = [el for el in root.iter() if el.get("class") == "qt-rect"]
    child_rects = [r for r in rects if r.get("data-parent")]
    assert len(child_rects) == 4

    feeds = [el for el in root.iter() if el.get("class") == "sumfeed"]
    assert len(feeds) == 4
    assert all(el.text == "+" for el in feeds)

    grid = [el for el in root.iter() if el.get("class") == "grid"]
    total = max(ev.cycle for ev in events)
    assert len(grid) == total // 5 + 1
    ys = sorted(float(el.get("y1")) for el in grid)
    diffs = {round(b - a) for a, b in zip(ys, ys[1:])}
    assert len(diffs) == 1                 # one line every 5th cycle
    _passed(10, "sumup diagram: 4 child rectangles, 4 '+' marks, 5-cycle "
                "grid, well-formed XML")
