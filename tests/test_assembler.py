"""Assembler tests: spec examples, directives, listing round-trip,
error reporting, bracket checking."""

import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from empa import assembler, fixtures, isa
from helpers import (bench_workloads, format_instruction, listing_source,
                     traced_memory, valid_instruction_space)


def test_qpwait_wildcard_example():
    image = assembler.assemble("QPWait -1 # Wait all sister QTs\n")
    assert bytes(image.memory[:5]) == bytes([0xE3, 0xFF, 0xFF, 0xFF, 0xFF])


def test_qcall_label_example():
    source = """
        .pos 0x0
        QCall CLabel
        halt
        .pos 0x40
CLabel: QCreate TLabel,%eax
        nop
TLabel: QTerm
"""
    image = assembler.assemble(source)
    assert image.symbols["CLabel"] == 0x40
    assert bytes(image.memory[0:5]) == bytes([0xE4, 0x40, 0x00, 0x00, 0x00])


def test_empty_source():
    image = assembler.assemble("")
    assert bytes(image.memory) == bytes(image.size)
    assert image.symbols == {}


def test_sumup_fixture_has_mode_5_qalloc():
    image = assembler.assemble(fixtures.sumup_mode_source())
    qallocs = [addr for addr, _, _ in _instructions(image)
               if image.memory[addr] == isa.QALLOC]
    assert qallocs
    instr, _ = isa.decode(image.memory, qallocs[0])
    assert instr.imm == 5


def _instructions(image):
    for addr, data, src in image.listing:
        if data and image.memory[addr] == data[0]:
            yield addr, data, src


def test_listing_format_qterm():
    image = assembler.assemble(".pos 0x10\nQTerm\n")
    line = [ln for ln in assembler.write_listing(image).splitlines()
            if ln.endswith("| QTerm")][0]
    assert line.startswith("0x0010: e1")


def test_listing_pos_line_shows_target_no_bytes():
    image = assembler.assemble(".pos 0x100\nnop\n")
    lines = assembler.write_listing(image).splitlines()
    assert lines[0].startswith("0x0100:")
    assert lines[0].split(" | ")[0].split(":")[1].strip() == ""


def test_listing_roundtrip_reassembles_identically():
    source = fixtures.adaptive_source()
    image1 = assembler.assemble(source)
    recovered = listing_source(assembler.write_listing(image1))
    image2 = assembler.assemble(recovered)
    assert bytes(image1.memory) == bytes(image2.memory)


def test_listing_deterministic():
    src = fixtures.no_mode_source()
    a = assembler.write_listing(assembler.assemble(src))
    b = assembler.write_listing(assembler.assemble(src))
    assert a == b


def test_load_listing_rebuilds_memory():
    image = assembler.assemble(fixtures.for_mode_source())
    loaded = assembler.load_listing(assembler.write_listing(image))
    assert bytes(loaded.memory) == bytes(image.memory)


def test_undefined_label():
    with pytest.raises(assembler.UndefinedLabel) as exc:
        assembler.assemble("jmp Nowhere\n")
    assert exc.value.line == 1


def test_duplicate_label():
    with pytest.raises(assembler.DuplicateLabel) as exc:
        assembler.assemble("A: nop\nA: nop\n")
    assert exc.value.line == 2


def test_syntax_error_has_line_number():
    with pytest.raises(assembler.AssemblySyntaxError) as exc:
        assembler.assemble("nop\nfrobnicate %eax\n")
    assert exc.value.line == 2


def test_bad_operand_count():
    with pytest.raises(assembler.AssemblySyntaxError):
        assembler.assemble("addl %eax\n")


def test_unknown_register():
    with pytest.raises(assembler.AssemblySyntaxError):
        assembler.assemble("addl %foo,%eax\n")


def test_unmatched_qterm_target():
    source = """
CLabel: QCreate Data,%eax
        QTerm
Data:   .long 7
"""
    with pytest.raises(assembler.UnmatchedQTermTarget):
        assembler.assemble(source)


def test_overlap_detected():
    source = """
        .pos 0
        irmovl $1,%eax
        .pos 2
        nop
"""
    with pytest.raises(assembler.AssemblerError) as exc:
        assembler.assemble(source)
    assert "written by both" in str(exc.value)


def test_image_size_limit():
    with pytest.raises(assembler.AssemblerError):
        assembler.assemble(".pos 0xFFC\n.long 1\n.long 2\n")


def test_branch_link_mismatch_detected():
    source = """
        QAlloc 1,%ecx
T:      QTCreate TT,%eax
        nop
TT:     QTerm
F:      QFCreate FT,%ebx
        nop
FT:     QTerm
        halt
"""
    with pytest.raises(assembler.AssemblerError) as exc:
        assembler.assemble(source)
    assert "link" in str(exc.value)


def test_directives_pos_align_long():
    source = """
        .pos 0x10
A:      .long 0x11223344
        .align 8
B:      .long -1
"""
    image = assembler.assemble(source)
    assert image.symbols["A"] == 0x10
    assert image.symbols["B"] == 0x18
    assert bytes(image.memory[0x10:0x14]) == bytes([0x44, 0x33, 0x22, 0x11])
    assert bytes(image.memory[0x18:0x1C]) == b"\xff\xff\xff\xff"


def test_two_pass_fixpoint():
    """Addresses assigned in pass 1 (symbols) are where pass 2 listed
    the bytes."""
    source = fixtures.sumup_mode_source()
    image = assembler.assemble(source)
    listed = {}
    for addr, data, src in image.listing:
        head = src.split("#", 1)[0]
        if ":" in head:
            listed[head.split(":")[0].strip()] = addr
    for name, addr in image.symbols.items():
        if name in listed:
            assert listed[name] == addr


def test_bracket_property_in_fixtures():
    """Each QCreate-family target QTerm lies at a strictly greater
    address in every shipped fixture."""
    for name, builder in fixtures.FIXTURES.items():
        image = assembler.assemble(builder())
        for addr, data, _src in image.listing:
            if data and data[0] in isa.QCREATE_FAMILY:
                instr, _ = isa.decode(image.memory, addr)
                assert instr.imm > addr, name
                assert image.memory[instr.imm] == isa.QTERM


_LINK_MISMATCH = """
        QAlloc 1,%ecx
T:      QTCreate TT,%eax
        nop
TT:     QTerm
F:      QFCreate FT,%ebx
        nop
FT:     QTerm
        halt
"""

# (source, error class, line, message): every error the assembler
# reports, with its exact text.  A pass-1 error (labels, mnemonics,
# empty operands, directives) on any line beats a pass-2 error
# (operand count, registers, values, the image) on an earlier one;
# within a line the operands are resolved in the encoder's order.
ERRORS = [
    ("nop\nfrobnicate %eax\n", assembler.AssemblySyntaxError, 2,
     "line 2: unknown mnemonic 'frobnicate'"),
    ("addl %foo,%eax\n", assembler.AssemblySyntaxError, 1,
     "line 1: unknown register '%foo'"),
    ("addl %eax,\n", assembler.AssemblySyntaxError, 1, "line 1: empty operand"),
    ("addl ,%eax\n", assembler.AssemblySyntaxError, 1, "line 1: empty operand"),
    ("addl %eax\n", assembler.AssemblySyntaxError, 1,
     "line 1: addl takes 2 operand(s), got 1"),
    ("halt %eax\n", assembler.AssemblySyntaxError, 1,
     "line 1: halt takes 0 operand(s), got 1"),
    (".long 1,2\n", assembler.AssemblySyntaxError, 1,
     "line 1: .long takes 1 operand(s), got 2"),
    ("irmovl $0xZZ,%eax\n", assembler.AssemblySyntaxError, 1,
     "line 1: bad value '$0xZZ'"),
    (".pos X\n", assembler.AssemblySyntaxError, 1,
     "line 1: expected a number, got 'X'"),
    ("QAlloc L,%ecx\nL: halt\n", assembler.AssemblySyntaxError, 1,
     "line 1: expected a number, got 'L'"),
    ("jmp Nowhere\n", assembler.UndefinedLabel, 1,
     "line 1: undefined label 'Nowhere'"),
    ("A: nop\nA: nop\n", assembler.DuplicateLabel, 2,
     "line 2: duplicate label 'A'"),
    ("A: .long 1\nA: frob ,\n", assembler.DuplicateLabel, 2,
     "line 2: duplicate label 'A'"),
    ("mrmovl 0%ebp),%eax\n", assembler.AssemblySyntaxError, 1,
     "line 1: mismatched ')' in '0%ebp)'"),
    (".pos -4\n", assembler.AssemblySyntaxError, 1,
     "line 1: .pos before address 0"),
    (".align 0\n", assembler.AssemblySyntaxError, 1,
     "line 1: .align needs a positive value"),
    (".align -8\n", assembler.AssemblySyntaxError, 1,
     "line 1: .align needs a positive value"),
    (".pos 0xFFC\n.long 1\n.long 2\n", assembler.AssemblerError, 3,
     "line 3: program exceeds the 4096-byte image at 0x1000"),
    (".pos 0\nirmovl $1,%eax\n.pos 0x10\nnop\n.pos 2\nnop\n",
     assembler.AssemblerError, 6,
     "line 6: byte 0x2 written by both line 2 and line 6"),
    (".pos 0x10\nnop\n.pos 0\nirmovl $1,%eax\n.pos 4\nnop\n",
     assembler.AssemblerError, 6,
     "line 6: byte 0x4 written by both line 4 and line 6"),
    ("CLabel: QCreate Data,%eax\n        QTerm\nData:   .long 7\n",
     assembler.UnmatchedQTermTarget, 1,
     "line 1: QCreate target 0x7 is not a QTerm"),
    (_LINK_MISMATCH, assembler.AssemblerError, None,
     "QTCreate at 0x6 and QFCreate at 0xe carry different link registers"),
    ("irmovl Undef,%bad\n", assembler.AssemblySyntaxError, 1,
     "line 1: unknown register '%bad'"),
    ("rmmovl %eax,4(%bad)\n", assembler.AssemblySyntaxError, 1,
     "line 1: unknown register '%bad'"),
    ("mrmovl X(%bad),%eax\n", assembler.AssemblySyntaxError, 1,
     "line 1: unknown register '%bad'"),
    ("jmp Nowhere\nfrobnicate\n", assembler.AssemblySyntaxError, 2,
     "line 2: unknown mnemonic 'frobnicate'"),
    # A run of data lines fails on the line of its first bad word.
    ("nop\n.long 1\n.long 0x100000000\n.long 2\n",
     assembler.AssemblySyntaxError, 3,
     "line 3: value '0x100000000' does not fit in 32 bits"),
    (".pos 0xff4\n.long 1\n.long 2\n.long 3 # the last\n.long 4\n.long 5\n",
     assembler.AssemblerError, 5,
     "line 5: program exceeds the 4096-byte image at 0x1000"),
    (".pos 0x10\nnop\n.pos 0x8\n.long 1\n.long 2\n.long 3\n",
     assembler.AssemblerError, 6,
     "line 6: byte 0x10 written by both line 2 and line 6"),
    # A backward .pos over a run written in one step: the owner map
    # reads the run's entry before the listing is ever read.
    (".long 1\n.long 2\n.long 3\n.pos 4\nnop\n", assembler.AssemblerError, 5,
     "line 5: byte 0x4 written by both line 2 and line 5"),
]


@pytest.mark.parametrize("source, cls, line, message", ERRORS)
def test_error_class_line_and_message(source, cls, line, message):
    with pytest.raises(assembler.AssemblerError) as exc:
        assembler.assemble(source)
    assert type(exc.value) is cls
    assert exc.value.line == line
    assert str(exc.value) == message


def test_a_backward_pos_that_does_not_overlap_is_accepted():
    image = assembler.assemble(".pos 0x10\nnop\n.pos 0\nirmovl $1,%eax\n"
                               ".pos 6\nhalt\n")
    assert image.memory[0x10] == isa.NOP
    assert image.memory[6] == isa.HALT
    assert bytes(image.memory[:6]) == bytes([0x30, 0xF0, 1, 0, 0, 0])


@pytest.mark.parametrize("odd, plain", [
    ("\tirmovl\t$5,\t%eax\t# tabs", "irmovl $5,%eax"),
    ("L :\tnop", "L: nop"),
    ("irmovl $ 5,%eax", "irmovl $5,%eax"),
    ("L: irmovl $ L,%eax", "L: irmovl L,%eax"),
    ("mrmovl 0 (%ebp),%eax", "mrmovl 0(%ebp),%eax"),
    ("mrmovl $8( %ebp ),%eax", "mrmovl 8(%ebp),%eax"),
    ("rmmovl %eax , (%ebx)", "rmmovl %eax,0(%ebx)"),
    (".long 1_000", ".long 1000"),
    (".long 0b101", ".long 5"),
    ("jmp +0x10", "jmp 16"),
    (".pos $ 4\nnop", ".pos 4\nnop"),
    ("QAlloc $5,%ecx", "QAlloc 5,%ecx"),
])
def test_odd_forms_are_accepted(odd, plain):
    a, b = assembler.assemble(odd + "\n"), assembler.assemble(plain + "\n")
    assert bytes(a.memory) == bytes(b.memory)
    assert a.symbols == b.symbols


def test_pseudo_registers_accepted_anywhere():
    image = assembler.assemble("rrmovl %esv,%esv\nmrmovl 0(%esv),%eax\n")
    assert image.memory[1] == (isa.REG_ESV << 4) | isa.REG_ESV


def test_negative_one_address_wildcard():
    image = assembler.assemble("QWait -1\n")
    assert bytes(image.memory[1:5]) == b"\xff\xff\xff\xff"


@pytest.mark.parametrize("source, token", [
    (".long 0x1ffffffff\n", "0x1ffffffff"),
    (".long 0x100000000\n", "0x100000000"),
    (".long -0x80000001\n", "-0x80000001"),
    ("irmovl $99999999999,%eax\n", "$99999999999"),
    ("QAlloc $0x1ffffffff,%ecx\n", "$0x1ffffffff"),
    ("mrmovl 0x100000000(%ebp),%eax\n", "0x100000000"),
    ("jmp -0x80000001\n", "-0x80000001"),
    ("QCreate $ 0x100000000 ,%eax\n", "$ 0x100000000"),
    (".pos 0x100000000\nL:\n.pos 0\njmp L\n", "L"),
])
def test_a_value_outside_32_bits_is_an_error(source, token):
    with pytest.raises(assembler.AssemblySyntaxError) as exc:
        assembler.assemble(source)
    line = source.count("\n")
    assert str(exc.value) == "line %d: value %r does not fit in 32 bits" % (
        line, token)


@pytest.mark.parametrize("value, word", [
    ("-1", 0xFFFFFFFF), ("-0x80000000", 0x80000000), ("0xffffffff", 0xFFFFFFFF),
    ("4294967295", 0xFFFFFFFF), ("-2147483648", 0x80000000), ("0", 0),
])
def test_values_from_minus_2_31_to_2_32_minus_1_encode_as_words(value, word):
    for source in (".long %s\n", "irmovl $%s,%%eax\n", "QAlloc %s,%%ecx\n"):
        image = assembler.assemble(source % value)
        start = 0 if source.startswith(".long") else 2
        assert image.memory[start:start + 4] == word.to_bytes(4, "little")


# ---- the compiled pass against the per-line path ----------------------

_NO_LINE = re.compile(r"(?!)")      # matches no line: all go per line


def _outcome(source, size=assembler.DEFAULT_IMAGE_SIZE):
    """What assembling `source` gives: the image, symbols, listing and
    listing text, or the error's class, line and message."""
    try:
        image = assembler.assemble(source, size)
    except assembler.AssemblerError as exc:
        return type(exc), exc.line, str(exc)
    return (bytes(image.memory), image.symbols, image.listing,
            assembler.write_listing(image))


def _per_line_outcome(source, size=assembler.DEFAULT_IMAGE_SIZE):
    """_outcome with every line read by the per-line code: no line
    matches _LINE_RE and no data run matches _RUN_RE."""
    with mock.patch.object(assembler, "_LINE_RE", _NO_LINE), \
            mock.patch.object(assembler, "_RUN_RE", _NO_LINE):
        return _outcome(source, size)


_BLANKS = st.sampled_from([" ", "  ", "\t", " \t ", "\t\t"])
_COMMAS = st.sampled_from([",", ", ", " ,", "\t,\t", " , "])
_COMMENTS = st.sampled_from(["", "# note", "#", "  # a, b: c", "\t#(%eax)"])


@st.composite
def _statement(draw, index):
    """One source line holding a generated instruction: (line, the
    instruction it must encode to, with a QCreate-family target left to
    the End label)."""
    instr = draw(valid_instruction_space())
    mnemonic, _, operands = format_instruction(instr).partition(" ")
    operands = operands.split(",") if operands else []
    if instr.opcode in isa.QCREATE_FAMILY:
        operands[0] = draw(st.sampled_from(["End", "$End"]))
    elif operands and instr.spec.form in ("ir", "d", "qr") \
            and instr.opcode != isa.QALLOC and draw(st.booleans()):
        operands[0] = "$" + operands[0].lstrip("$")
    text = draw(_BLANKS) + mnemonic
    if operands:
        text += draw(_BLANKS) + operands[0]
        for operand in operands[1:]:
            text += draw(_COMMAS) + operand
    if draw(st.booleans()):
        text = "L%d%s:%s%s" % (index, draw(st.sampled_from(["", " "])),
                               draw(_BLANKS), text.lstrip())
    return text + draw(st.sampled_from(["", " ", "\t"])) + draw(_COMMENTS), instr


_ODD = [("$", "$ "), ("(", " ( "), (",", " ,"), ("%eax", "%bad"),
        ("0x", "0X"), ("End", "Nowhere"), ("0x", "0x1_"), ("L", "L:"),
        ("\t", "\x0b"), (" ", "\xa0"), ("1", "9999999999")]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_compiled_pass_equals_the_per_line_path(data):
    """Generated statements of every form, with labels, comments and
    spacing, sometimes with an odd or a bad token, give the same image,
    symbols, listing or error on both paths; a clean program's bytes
    are isa.encode's."""
    count = data.draw(st.integers(1, 12))
    lines, instrs = [], []
    for index in range(count):
        line, instr = data.draw(_statement(index))
        lines.append(line)
        instrs.append(instr)
    odd = data.draw(st.lists(st.tuples(st.integers(0, count - 1),
                                       st.sampled_from(_ODD)), max_size=2))
    for index, (old, new) in odd:
        lines[index] = lines[index].replace(old, new, 1)
    source = "\n".join(lines + ["End: QTerm"]) + "\n"
    fast = _outcome(source)
    assert fast == _per_line_outcome(source)
    if odd:
        return
    memory, symbols, listing, _ = fast
    for (addr, encoded, _), instr in zip(listing, instrs):
        if instr.opcode in isa.QCREATE_FAMILY:
            instr = isa.Instruction(instr.opcode, instr.ra, imm=symbols["End"])
        assert encoded == isa.encode(instr)
        assert memory[addr:addr + len(encoded)] == encoded


# Literals of a .long: in the run grammar, or just outside it but read
# per line (labels defined before and after their use among them).
_LITERALS = st.one_of(
    st.integers(0, isa.WORD_MASK).map(str),
    st.integers(0, isa.WORD_MASK).map(hex),
    st.sampled_from(["0", "0xABC", "0xffffffff", "4294967295", "0X1", "00",
                     "0b1", "1_0", "$5", "-1", "Start", "End", "$End"]))
# Literals that are an error, at most one to a program.
_BAD_LITERALS = st.sampled_from(["007", "0x100000000", "4294967296", "0x",
                                 "Nowhere"])
_POS = st.sampled_from([0, 4, 0x10, 0x40, 0xFF0, 0xFF8, 0xFFC])
# What ends a line: mostly "\n", else another break str.splitlines
# knows (the pattern of a run takes none of them).
_BREAKS = st.sampled_from(["\n"] * 8 + ["\r\n", "\r", "\x0b", "\x0c",
                                        "\x1c", "\x85", "\u2028"])


@st.composite
def _data_line(draw, index):
    """A .long line, sometimes labelled, with a comment or not."""
    text = "%s.long%s%s%s%s" % (
        draw(_BLANKS), draw(st.sampled_from([" ", "\t", " \t"])),
        draw(_LITERALS), draw(st.sampled_from(["", " ", "\t"])),
        draw(st.sampled_from(["", "# w", "#.long 9", "\t# a, b: c", "#~!"])))
    if draw(st.integers(0, 9)) == 0:
        text = "D%d: %s" % (index, text.lstrip())
    return text


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_data_runs_equal_the_per_line_path(data):
    """Generated blocks of .long lines among statements, .pos lines
    (backward ones over a run, or to the image end) and blank lines,
    with any line break, give the same image, symbols, listing, listing
    text or error on both paths."""
    lines = ["Start:"]
    for index in range(data.draw(st.integers(1, 10))):
        kind = data.draw(st.sampled_from(["data"] * 4 + ["code", "pos", ""]))
        if kind == "data":
            lines += [data.draw(_data_line(len(lines) + i))
                      for i in range(data.draw(st.integers(1, 6)))]
        elif kind == "code":
            lines.append(data.draw(_statement(index))[0])
        elif kind == "pos":
            lines.append(".pos 0x%x" % data.draw(_POS))
        else:
            lines.append(data.draw(st.sampled_from(["", " ", "# only"])))
    if data.draw(st.integers(0, 3)) == 0:
        at = data.draw(st.integers(1, len(lines) - 1))
        lines[at] = "\t.long %s" % data.draw(_BAD_LITERALS)
    lines.append("End: QTerm")
    source = "".join(line + data.draw(_BREAKS) for line in lines)
    source = data.draw(st.sampled_from([source[:-1] if source.endswith("\n")
                                        else source, source,
                                        source + "\n\n", source + " \n\n"]))
    assert _outcome(source) == _per_line_outcome(source)


@pytest.mark.parametrize("source, cls, line, message", ERRORS)
def test_pinned_errors_are_the_same_per_line(source, cls, line, message):
    assert _per_line_outcome(source) == (cls, line, message)


def _bench_sources():
    """The seed-0 sources of every benchmark workload, by workload."""
    workloads = bench_workloads()
    return {name: [(program.source, program.mem_bytes)
                   for program in workloads.generate(name, 0)]
            for name in sorted(workloads.PARAMS)}


# An unlabelled .long of a literal number, which a run writes.
_LITERAL_WORD = re.compile(r"\s*\.long\s+(0x[0-9a-fA-F]+|[0-9]+)\s*(#.*)?")


def test_fixture_and_bench_sources_take_the_compiled_pass(monkeypatch):
    """No line a fixture builder or the benchmark writes is split per
    line, no literal data word they write is resolved per line, and
    both paths agree on each fixture and on the first seed-0 program of
    each workload."""
    sources = [(builder(), assembler.DEFAULT_IMAGE_SIZE)
               for _, builder in sorted(fixtures.FIXTURES.items())]
    by_workload = _bench_sources()
    assert by_workload and all(by_workload.values())
    compared = sources + [programs[0] for programs in by_workload.values()]
    for name, programs in by_workload.items():
        words = sum(bool(_LITERAL_WORD.fullmatch(line))
                    for source, _ in programs for line in source.splitlines())
        assert words >= 3000, name
        sources += programs
    expected = [_per_line_outcome(*source) for source in compared]
    calls, resolved = [], []
    monkeypatch.setattr(assembler, "_split_statement",
                        lambda *args: calls.append(args))
    value = assembler._Resolver.value
    monkeypatch.setattr(assembler._Resolver, "value",
                        lambda self, token, line: resolved.append(line)
                        or value(self, token, line))
    for source, size in sources:
        del resolved[:]
        assembler.assemble(source, size)
        assert resolved        # the labelled words and the instructions
        words = {lineno for lineno, line in enumerate(source.splitlines(), 1)
                 if _LITERAL_WORD.fullmatch(line)}
        assert not words.intersection(resolved)
    assert calls == []
    assert [_outcome(*source) for source in compared] == expected


def test_data_runs_stay_unexpanded_until_the_listing_is_read():
    """The seed-0 serial_wide image holds less than twice its source
    text until its listing is read (about 1.3 times; one listing row
    per data word held 7.1 times, and a run entry that kept its words
    2.9 times).  Each read of `listing` then gives the rows and the
    listing text of the per-line path."""
    program = bench_workloads().generate("serial_wide", 0)[0]
    source, size = program.source, program.mem_bytes
    assembler.assemble(source, size)      # leave out first-call allocations
    image, held, _ = traced_memory(lambda: assembler.assemble(source, size))
    assert held < 2 * len(source)
    memory, symbols, listing, text = _per_line_outcome(source, size)
    assert len(listing) == len(source.splitlines())
    for _ in range(2):
        assert (bytes(image.memory), image.symbols, image.listing,
                assembler.write_listing(image)) == (memory, symbols,
                                                    listing, text)


def test_assembling_a_long_data_run_peaks_below_half_a_megabyte():
    """The seed-0 serial_wide source holds one data run of 3,000 lines.
    Matching it in pieces of at most _RUN_LINES lines bounds what the
    pattern's backtracking state takes: assemble peaks at about 0.40 MB
    (1.91 MB when the whole run was one match)."""
    program = bench_workloads().generate("serial_wide", 0)[0]
    source, size = program.source, program.mem_bytes
    assembler.assemble(source, size)      # leave out first-call allocations
    _, _, peak = traced_memory(lambda: assembler.assemble(source, size))
    assert peak < 500_000, peak


# Runs as long as the bound of one match, one line on either side of
# it, past two bounds, and as long as a bench program's.
_BOUND = assembler._RUN_LINES
_RUN_LENGTHS = (_BOUND - 1, _BOUND, _BOUND + 1, 2 * _BOUND + 1, 3000)
_RUN_SIZE = 0x4000          # room for 3,000 words and the code around them


def _run_source(count, case):
    """A source holding one run of `count` .long lines, shaped by `case`,
    and its image size."""
    words = ["\t.long 0x%x\n" % (7 * i + 1) for i in range(count)]
    head, tail, size = "Start: nop\n", "End: halt\n", _RUN_SIZE
    if case == "comments":          # around each edge of a match, and more
        for i in range(0, count, 7):
            words[i] = words[i][:-1] + " # w%d\n" % i
        for i in (_BOUND - 1, _BOUND, count - 1):
            if i < count:
                words[i] = words[i][:-1] + "\t#~!\n"
    elif case == "wide after the bound":
        words[min(_BOUND, count - 1)] = "\t.long 0x100000000\n"
    elif case == "wide last":
        words[-1] = "\t.long 4294967296\n"
    elif case == "past the end at a match edge":
        # the first min(count - 1, _BOUND) words fill the image
        head += ".pos 0x%x\n" % (size - 4 * min(count - 1, _BOUND))
    elif case == "up to the end":   # the run ends the image and the source
        head += ".pos 0x%x\n" % (size - 4 * count)
        tail = ""
    elif case == "after a backward pos":
        # the nop is on the first word of the second match, if any
        head = ".pos 0x%x\nStart: nop\n.pos 0\n" % (4 * _BOUND)
    else:
        assert case == "plain"
    return head + "".join(words) + tail, size


@pytest.mark.parametrize("case", ["plain", "comments", "wide after the bound",
                                  "wide last", "past the end at a match edge",
                                  "up to the end", "after a backward pos"])
@pytest.mark.parametrize("count", _RUN_LENGTHS)
def test_data_runs_across_the_match_bound_equal_the_per_line_path(count, case):
    """A run longer than _RUN_LINES is matched in pieces; with comments,
    a word wider than 32 bits after the first piece or at the end, the
    image end at a piece edge or at the run's end, and a backward .pos
    before it, it gives the image, symbols, listing, listing text or
    error of the per-line path."""
    source, size = _run_source(count, case)
    assert _outcome(source, size) == _per_line_outcome(source, size)


@pytest.mark.parametrize("count", _RUN_LENGTHS)
def test_a_long_run_is_kept_as_one_entry_per_match(count):
    """Each piece of at most _RUN_LINES lines is written in one step and
    kept as one width-4 line-table entry, one line of text per word."""
    image = assembler.assemble(*_run_source(count, "plain"))
    runs = [text for _, width, text in image._lines if width == 4]
    assert [len(text.splitlines()) for text in runs] == \
        [min(_BOUND, count - start) for start in range(0, count, _BOUND)]
