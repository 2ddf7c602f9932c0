"""The machine's decode cache: one decode per code address, reused only
while memory still holds the decoded bytes.

Self-modifying programs are run against `tests/y86_ref.py`, which
decodes every step from memory, so a stale cached decode shows up as a
register mismatch.  The same holds across cores: the cache is the
machine's, and one core's write must be seen by another core's fetch.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from empa import engine, fixtures, isa, trace as tr
from empa.coremodel import State
from empa.errors import RuntimeFault
from helpers import assemble_run, make_machine
from test_executors import assert_acts_as_reference
from test_quiet_ticks import _assert_same_run
from y86_ref import run_y86

# Each program loops over code that it rewrites ahead of its next fetch;
# the pinned %eax differs from what unpatched code would compute.
SELF_MODIFYING = {
    # the immediate of an irmovl in the loop body
    "immediate": ("""
        irmovl Loop,%ebp      # the patched instruction
        irmovl $5,%ecx        # passes
        irmovl $1,%edi
        xorl %eax,%eax
        xorl %esi,%esi
Loop:   irmovl $0,%edx        # immediate := pass number - 1
        addl %edx,%eax
        addl %edi,%esi
        rmmovl %esi,2(%ebp)
        subl %edi,%ecx
        jne Loop
        halt
""", 10),
    # the opcode byte: addl <-> subl on every pass
    "opcode": ("""
        irmovl $6,%ecx
        irmovl $1,%edi
        irmovl $1,%ebx        # flips 0x60 (addl) and 0x61 (subl)
        irmovl $7,%edx
        xorl %eax,%eax
Loop:   mrmovl Op,%esi
        xorl %ebx,%esi
        rmmovl %esi,Op
Op:     addl %edx,%eax
        addl %edi,%eax
        subl %edi,%ecx
        jne Loop
        halt
""", 6),
    # one word across two instructions: the last two bytes of an irmovl
    # (its top immediate bytes) and the first two of the addl after it
    "straddle": ("""
        irmovl $4,%ecx
        irmovl $1,%edi
        irmovl $0x10100,%ebx  # immediate += 1 << 24, addl <-> subl
        irmovl A,%ebp
        xorl %eax,%eax
Loop:   mrmovl 4(%ebp),%esi
        xorl %ebx,%esi
        rmmovl %esi,4(%ebp)
A:      irmovl $5,%edx
        addl %edx,%eax
        subl %edi,%ecx
        jne Loop
        halt
""", (-0x1000005 + 5 - 0x1000005 + 5) & isa.WORD_MASK),
    # an rmmovl that stores into its own displacement while in flight:
    # the first pass retargets it, the second stores through the new one
    "own_bytes": ("""
        irmovl R,%ebp
        irmovl $2,%ecx
        irmovl $1,%edi
        irmovl Slot,%edx
        subl %ebp,%edx        # Slot - R
Loop:
R:      rmmovl %edx,2(%ebp)
        subl %edi,%ecx
        jne Loop
        mrmovl Slot,%eax
        halt
        .align 4
Slot:   .long 0
""", None),
}


@pytest.mark.parametrize("name", sorted(SELF_MODIFYING))
def test_self_modifying_code_matches_the_reference(name):
    source, eax = SELF_MODIFYING[name]
    image, machine, _ = assemble_run(source, cores=1)
    ref_regs, ref_mem = run_y86(bytes(image.memory).ljust(4096, b"\0"))
    assert machine.cores[0].regs == ref_regs
    assert machine.memory.data[:len(image.memory)] == ref_mem[:len(image.memory)]
    if eax is None:                          # own_bytes: Slot - R
        eax = image.symbols["Slot"] - image.symbols["R"]
    assert machine.cores[0].regs[isa.REG_EAX] == eax


def test_one_core_fetches_code_another_core_patched():
    """The root runs P, patches it and creates a child that runs it; the
    child patches P again and the root runs it once more after the wait."""
    source = """
        irmovl $0x400,%esp
        irmovl P,%ebp
        call P                # root: P as assembled, %eax = 1
        rrmovl %eax,%edi
        irmovl $2,%ecx
        rmmovl %ecx,2(%ebp)   # root patches P
        QCreate CT,%esi
        irmovl $0x380,%esp    # child: own stack
        call P                # child: the root's patch, %eax = 2
        rrmovl %eax,%esi
        irmovl $3,%ecx
        rmmovl %ecx,2(%ebp)   # child patches P
CT:     QTerm
        QWait -1
        call P                # root: the child's patch, %eax = 3
        halt
P:      irmovl $1,%eax
        ret
"""
    for cores in (2, 4):
        _, machine, events = assemble_run(source, cores=cores)
        root = machine.cores[0]
        assert (root.regs[isa.REG_EDI], root.regs[isa.REG_ESI],
                root.regs[isa.REG_EAX]) == (1, 2, 3), cores
        assert {ev.core for ev in events if ev.kind == tr.INSTR_RETIRED} \
            == {0, 1}


# A child QT on core 1 and the root on core 0 both run; one of them
# patches the immediate of T (1 -> 2), a one-cycle irmovl that the other
# fetches.  Padding nops set the patch's cycle against T's fetch.
PATCHED_BY_ROOT = """
        irmovl T,%ebp
        irmovl $2,%ecx
        QCreate CT,%eax
        nop
        nop
        nop
        nop
T:      irmovl $1,%eax        # core 1
CT:     QTerm
{pad}        rmmovl %ecx,2(%ebp)   # core 0 patches T
        QWait -1              # %eax linked back from the child
        halt
"""
PATCHED_BY_CHILD = """
        irmovl T,%ebp
        irmovl $2,%ecx
        QCreate CT,%eno
        nop
        rmmovl %ecx,2(%ebp)   # core 1 patches T
CT:     QTerm
{pad}T:      irmovl $1,%eax        # core 0
        QWait -1
        halt
"""


@pytest.mark.parametrize("source, writer, nops, offset", [
    (PATCHED_BY_ROOT, 0, 2, 0),      # the write lands in the fetch's cycle
    (PATCHED_BY_ROOT, 0, 1, -1),     # ... one cycle earlier
    (PATCHED_BY_ROOT, 0, 3, 1),      # ... one cycle later
    (PATCHED_BY_CHILD, 1, 3, 0),
    (PATCHED_BY_CHILD, 1, 4, -1),
], ids=["root-same", "root-earlier", "root-later", "child-same",
        "child-earlier"])
def test_a_same_cycle_code_patch_is_seen_in_ascending_core_order(
        source, writer, nops, offset):
    """A write is seen by the fetches of higher cores in its own cycle and
    by every core from the next cycle on; quiet stretches agree."""
    source = source.format(pad="        nop\n" * nops)
    outcome = _assert_same_run(source, 2)
    image, machine, events = assemble_run(source, cores=2)
    write = [ev.cycle for ev in events if ev.core == writer
             and ev.kind == tr.INSTR_RETIRED and ev.payload == 3]
    fetch = [ev.cycle for ev in events if ev.core != writer
             and ev.addr == image.symbols["T"]]
    assert len(write) == len(fetch) == 1
    assert write[0] - fetch[0] == offset
    seen = offset < 0 or (offset == 0 and writer == 0)
    assert outcome["error"] is None
    assert machine.cores[0].regs[isa.REG_EAX] == (2 if seen else 1)


def test_qcall_sees_its_target_patched_between_calls():
    """The SV decodes a QCall's target through the same cache: the second
    call links back through the register the patch put in the QCreate."""
    source = """
        QCall C
        QWait -1              # linked through %eax
        irmovl C,%ebp
        mrmovl 0(%ebp),%esi
        irmovl $0x2000,%edi   # register byte 0x0f -> 0x2f: link %edx
        xorl %edi,%esi
        rmmovl %esi,0(%ebp)
        xorl %eax,%eax
        QCall C
        QWait -1              # linked through %edx
        halt
C:      QCreate T,%eax
        irmovl $5,%eax
        irmovl $9,%edx
T:      QTerm
"""
    _, machine, _ = assemble_run(source, cores=2)
    root = machine.cores[0]
    assert (root.regs[isa.REG_EAX], root.regs[isa.REG_EDX]) == (0, 9)


def test_each_code_address_is_decoded_once(monkeypatch):
    """On a 64-core run, decode calls follow the distinct code addresses,
    not the retired instructions."""
    _, machine = make_machine(
        fixtures.no_mode_source(list(range(1, 201))), cores=64)
    calls = []
    decode = isa.decode

    def counted(buf, offset=0):
        calls.append(offset)
        return decode(buf, offset)

    monkeypatch.setattr(isa, "decode", counted)
    machine.run_to_halt()
    fetched = [ev.addr for ev in machine.events
               if ev.kind in (tr.INSTR_RETIRED, tr.META_RETIRED)]
    assert len(fetched) > 1500
    assert sorted(calls) == sorted(set(fetched))


def test_a_failed_fetch_is_not_cached():
    """Code that ran once and is then overwritten with an illegal opcode
    fails at its next fetch, and keeps failing until it is mended."""
    _, machine = make_machine("""
        irmovl $0xff,%eax
        irmovl Bad,%ebp
Bad:    nop                   # runs once, then holds opcode 0xff
        rmmovl %eax,0(%ebp)
        jmp Bad
""", cores=1)
    with pytest.raises(RuntimeFault, match="fetch failed: illegal opcode 0xff"):
        machine.run_to_halt(max_cycles=100)
    bad = machine.cores[0].pc
    assert (machine.clock, bad, machine.cores[0].state) \
        == (8, 12, State.PARKED)
    with pytest.raises(isa.IllegalOpcode):
        machine.decode_at(bad)
    machine.memory.data[bad] = isa.NOP
    assert machine.decode_at(bad)[:2] == (isa.Instruction(isa.NOP), 1)


def _sample(opcode):
    """A valid instruction of the opcode with every field in use."""
    form = isa.OPCODES[opcode].form
    ra = isa.REG_ECX if form in ("rr", "r", "rm", "qr") else isa.RNONE
    rb = isa.REG_EDX if form in ("rr", "ir", "rm") else isa.RNONE
    imm = 0x04030201 if form in ("ir", "rm", "d", "qr") else 0
    return isa.Instruction(opcode, ra, rb, imm)


@pytest.mark.parametrize("opcode", sorted(isa.OPCODES))
def test_a_change_to_any_byte_of_a_cached_instruction_is_seen(opcode):
    """Also by the executor in the entry: after a flip it does what the
    flipped instruction does, and after the flip is undone what the
    original does."""
    sample = _sample(opcode)
    raw = isa.encode(sample)
    machine = engine.Machine(engine.image_from_bytes(raw),
                             engine.MachineConfig(cores=1, mem_bytes=8))
    memory = machine.memory.data
    for i in range(len(raw)):
        machine.decode_at(0)
        memory[i] ^= 0x01
        try:
            want = isa.decode(bytes(memory), 0)[0]
        except isa.IllegalOpcode as exc:
            with pytest.raises(isa.IllegalOpcode, match=re.escape(str(exc))):
                machine.decode_at(0)
        else:
            instr, _, execute = machine.decode_at(0)[:3]
            assert instr == want != sample
            assert_acts_as_reference(execute, want, 0, seed=i)
        memory[i] ^= 0x01
        instr, _, execute = machine.decode_at(0)[:3]
        assert instr == sample
        assert_acts_as_reference(execute, sample, 0, seed=i)


_MEMORY = 12
# Bytes that are often opcodes, so that most addresses decode.
_BYTE = st.one_of(st.sampled_from(sorted(isa.OPCODES)), st.integers(0, 255))


@settings(max_examples=300, deadline=None)
@given(st.lists(_BYTE, min_size=_MEMORY, max_size=_MEMORY),
       st.lists(st.tuples(st.integers(0, _MEMORY - 1), st.none() | _BYTE),
                max_size=40))
def test_decode_at_equals_a_fresh_decode_after_any_writes(data, steps):
    """Between arbitrary byte writes, decode_at gives what isa.decode
    gives on the memory of the moment, errors included, with the cycles,
    event kind and halt flag of that instruction."""
    machine = engine.Machine(engine.image_from_bytes(b"\0"),
                             engine.MachineConfig(cores=1, mem_bytes=_MEMORY))
    memory = machine.memory.data
    memory[:] = bytes(data)
    timing = machine.cfg.timing
    for pc, byte in steps:
        if byte is not None:
            memory[pc] = byte
            continue
        try:
            want, _ = isa.decode(bytes(memory), pc)
        except isa.EncodingError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                machine.decode_at(pc)
            continue
        instr, cycles, _, kind, halts = machine.decode_at(pc)
        assert (instr, cycles) == (want, timing.cycles_for(want.opcode))
        # what its retirement emits, and whether it stops the machine
        assert kind == (tr.META_RETIRED if want.opcode >> 4 == isa.META_GROUP
                        else tr.INSTR_RETIRED)
        assert halts == (want.opcode == isa.HALT)
