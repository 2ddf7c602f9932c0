"""Encode/decode tests: fixed byte patterns, round-trip property over the
whole opcode/operand space, length accounting, group separation."""

import pytest
from hypothesis import given, strategies as st

from empa import isa
from helpers import format_instruction, valid_instruction_space


def test_nop_encoding():
    assert isa.encode(isa.Instruction(isa.NOP)) == bytes([0x10])


def test_qterm_encoding():
    assert isa.encode(isa.Instruction(isa.QTERM)) == bytes([0xE1])


def test_addl_encoding():
    instr = isa.Instruction(isa.ADDL, isa.REG_ECX, isa.REG_EAX)
    assert isa.encode(instr) == bytes([0x60, 0x10])


def test_qwait_wildcard_encoding():
    instr = isa.Instruction(isa.QWAIT, imm=-1)
    assert isa.encode(instr) == bytes([0xE2, 0xFF, 0xFF, 0xFF, 0xFF])


def test_irmovl_little_endian():
    instr = isa.Instruction(isa.IRMOVL, rb=isa.REG_EDX, imm=0x12345678)
    assert isa.encode(instr) == bytes([0x30, 0xF2, 0x78, 0x56, 0x34, 0x12])


def test_decode_qterm():
    instr, length = isa.decode(bytes([0xE1]))
    assert instr == isa.Instruction(isa.QTERM)
    assert length == 1


def test_decode_halt():
    instr, length = isa.decode(bytes([0x00]))
    assert instr.opcode == isa.HALT
    assert length == 1


def test_decode_illegal_group():
    with pytest.raises(isa.IllegalOpcode):
        isa.decode(bytes([0xC3]))


def test_decode_truncated():
    with pytest.raises(isa.TruncatedInstruction):
        isa.decode(bytes([0x30, 0xF0, 0x01]))
    with pytest.raises(isa.TruncatedInstruction):
        isa.decode(b"", 0)


def test_decode_bad_register_field():
    # 0xB..0xE are invalid register codes
    with pytest.raises(isa.IllegalOpcode):
        isa.decode(bytes([0x60, 0xB0]))


def test_encode_operand_errors():
    with pytest.raises(isa.InvalidOperand):
        isa.encode(isa.Instruction(isa.ADDL, isa.RNONE, isa.REG_EAX))
    with pytest.raises(isa.InvalidOperand):
        isa.encode(isa.Instruction(isa.NOP, ra=isa.REG_EAX))
    with pytest.raises(isa.InvalidOperand):
        isa.encode(isa.Instruction(isa.IRMOVL, ra=isa.REG_EAX, rb=isa.REG_EBX))
    with pytest.raises(isa.InvalidOperand):
        isa.encode(isa.Instruction(isa.PUSHL, isa.REG_EAX, isa.REG_EBX))
    with pytest.raises(isa.IllegalOpcode):
        isa.encode(isa.Instruction(0xC3))


def test_meta_group_disjoint_from_base():
    base = {op for op in isa.OPCODES if op >> 4 != isa.META_GROUP}
    assert not (base & isa.META_OPCODES)
    for op in isa.META_OPCODES:
        assert isa.OPCODES[op].mnemonic.startswith("Q")


def test_lengths_by_form():
    assert isa.OPCODES[isa.QCREATE].length == 6
    assert isa.OPCODES[isa.QTERM].length == 1
    assert isa.OPCODES[isa.QWAIT].length == 5
    assert isa.OPCODES[isa.QALLOC].length == 6
    assert isa.OPCODES[isa.CALL].length == 5
    assert isa.OPCODES[isa.RRMOVL].length == 2
    for op, spec in isa.OPCODES.items():
        assert 1 <= spec.length <= 6


@given(valid_instruction_space())
def test_roundtrip_property(instr):
    data = isa.encode(instr)
    assert len(data) == instr.length
    decoded, length = isa.decode(data)
    assert decoded == instr
    assert length == instr.length


@given(st.lists(valid_instruction_space(), min_size=1, max_size=30))
def test_length_table_matches_byte_span(instrs):
    blob = b"".join(isa.encode(i) for i in instrs)
    offset = 0
    total = 0
    while offset < len(blob):
        _, length = isa.decode(blob, offset)
        offset += length
        total += length
    assert total == len(blob)


def test_decode_at_offset():
    blob = bytes([0x10]) + isa.encode(isa.Instruction(isa.ADDL, 1, 0))
    instr, length = isa.decode(blob, 1)
    assert instr.opcode == isa.ADDL and length == 2


def test_format_instruction_roundtrips_through_mnemonics():
    samples = [
        isa.Instruction(isa.NOP),
        isa.Instruction(isa.ADDL, isa.REG_ECX, isa.REG_EAX),
        isa.Instruction(isa.QCREATE, ra=isa.REG_EAX, imm=0x40),
        isa.Instruction(isa.QWAIT, imm=-1),
        isa.Instruction(isa.MRMOVL, isa.REG_EAX, isa.REG_ESV, imm=0),
    ]
    for instr in samples:
        text = format_instruction(instr)
        assert text.split()[0] == instr.mnemonic
