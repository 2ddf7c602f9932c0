"""Y86 base instruction set plus the EMPA 'Q' meta-instruction group.

Bit-exact encode/decode for the 32-bit little-endian dialect: one opcode
byte (group nibble high, member nibble low), an optional register byte,
an optional 32-bit immediate word.  Total length 1-6 bytes, a pure
function of the opcode.  All functions here are pure and thread-safe.
"""

from dataclasses import dataclass
from functools import cached_property

WORD_MASK = 0xFFFFFFFF

# Register codes.  %eax..%edi are the Y86 general purpose file; the three
# pseudo-registers sit above it; 0xF means "no register".
REG_EAX = 0x0
REG_ECX = 0x1
REG_EDX = 0x2
REG_EBX = 0x3
REG_ESP = 0x4
REG_EBP = 0x5
REG_ESI = 0x6
REG_EDI = 0x7
REG_ENO = 0x8
REG_ECC = 0x9
REG_ESV = 0xA
RNONE = 0xF

GPR_COUNT = 8

REGISTER_NAMES = {
    REG_EAX: "%eax", REG_ECX: "%ecx", REG_EDX: "%edx", REG_EBX: "%ebx",
    REG_ESP: "%esp", REG_EBP: "%ebp", REG_ESI: "%esi", REG_EDI: "%edi",
    REG_ENO: "%eno", REG_ECC: "%ecc", REG_ESV: "%esv",
}
REGISTER_CODES = {name: code for code, name in REGISTER_NAMES.items()}

VALID_REG_CODES = frozenset(REGISTER_NAMES)          # 0x0..0xA

# Opcodes.  Base Y86 groups 0x0..0xB, EMPA meta group 0xE.
HALT = 0x00
NOP = 0x10
RRMOVL = 0x20            # 0x20 unconditional, 0x21..0x26 cmovXX
IRMOVL = 0x30
RMMOVL = 0x40
MRMOVL = 0x50
ADDL = 0x60
SUBL = 0x61
ANDL = 0x62
XORL = 0x63
JMP = 0x70               # 0x70 jmp, 0x71..0x76 conditional
CALL = 0x80
RET = 0x90
PUSHL = 0xA0
POPL = 0xB0

QCREATE = 0xE0
QTERM = 0xE1
QWAIT = 0xE2
QPWAIT = 0xE3
QCALL = 0xE4
QALLOC = 0xE5
QTCREATE = 0xE6
QFCREATE = 0xE7

META_GROUP = 0xE

# Condition-function suffixes shared by cmovXX (0x2n) and jXX (0x7n).
CONDITIONS = ("", "le", "l", "e", "ne", "ge", "g")

# Instruction forms decide both length and which operand fields are live:
#   n    1 byte   no operands
#   rr   2 bytes  regbyte, both registers required
#   r    2 bytes  regbyte, rA required, rB must be none (push/pop)
#   ir   6 bytes  regbyte (rA none, rB required) + immediate
#   rm   6 bytes  regbyte (rA required, rB optional base) + displacement
#   d    5 bytes  immediate only (jumps, call, QWait/QPWait/QCall)
#   qr   6 bytes  regbyte (rA required, rB none) + immediate (Q-create family,
#                 QAlloc)
FORM_LENGTHS = {"n": 1, "rr": 2, "r": 2, "ir": 6, "rm": 6, "d": 5, "qr": 6}


@dataclass(frozen=True)
class OpcodeSpec:
    mnemonic: str
    form: str

    @property
    def length(self):
        return FORM_LENGTHS[self.form]


def _build_opcode_table():
    table = {
        HALT: OpcodeSpec("halt", "n"),
        NOP: OpcodeSpec("nop", "n"),
        IRMOVL: OpcodeSpec("irmovl", "ir"),
        RMMOVL: OpcodeSpec("rmmovl", "rm"),
        MRMOVL: OpcodeSpec("mrmovl", "rm"),
        ADDL: OpcodeSpec("addl", "rr"),
        SUBL: OpcodeSpec("subl", "rr"),
        ANDL: OpcodeSpec("andl", "rr"),
        XORL: OpcodeSpec("xorl", "rr"),
        CALL: OpcodeSpec("call", "d"),
        RET: OpcodeSpec("ret", "n"),
        PUSHL: OpcodeSpec("pushl", "r"),
        POPL: OpcodeSpec("popl", "r"),
        QCREATE: OpcodeSpec("QCreate", "qr"),
        QTERM: OpcodeSpec("QTerm", "n"),
        QWAIT: OpcodeSpec("QWait", "d"),
        QPWAIT: OpcodeSpec("QPWait", "d"),
        QCALL: OpcodeSpec("QCall", "d"),
        QALLOC: OpcodeSpec("QAlloc", "qr"),
        QTCREATE: OpcodeSpec("QTCreate", "qr"),
        QFCREATE: OpcodeSpec("QFCreate", "qr"),
    }
    for fn, cond in enumerate(CONDITIONS):
        table[RRMOVL | fn] = OpcodeSpec("rrmovl" if fn == 0 else "cmov" + cond, "rr")
        table[JMP | fn] = OpcodeSpec("jmp" if fn == 0 else "j" + cond, "d")
    return table


OPCODES = _build_opcode_table()
MNEMONIC_TO_OPCODE = {spec.mnemonic: op for op, spec in OPCODES.items()}

META_OPCODES = frozenset(op for op in OPCODES if op >> 4 == META_GROUP)
QCREATE_FAMILY = frozenset((QCREATE, QTCREATE, QFCREATE))


class EncodingError(Exception):
    """Base for encode/decode failures."""


class InvalidOperand(EncodingError):
    """Instruction fields are inconsistent with the opcode's form."""


class IllegalOpcode(EncodingError):
    """Unknown opcode byte or malformed register field."""


class TruncatedInstruction(EncodingError):
    """Buffer ends in the middle of an instruction."""


@dataclass(frozen=True)
class Instruction:
    """A decoded instruction.  Fields not used by the opcode's form stay
    at their canonical values (RNONE / 0) so decode(encode(i)) == i.
    `length` and `is_meta` are worked out once per instance (they are
    read on every retire) and take no part in equality."""

    opcode: int
    ra: int = RNONE
    rb: int = RNONE
    imm: int = 0

    def __post_init__(self):
        object.__setattr__(self, "imm", self.imm & WORD_MASK)

    @property
    def spec(self):
        return OPCODES[self.opcode]

    @cached_property
    def length(self):
        return self.spec.length

    @property
    def mnemonic(self):
        return self.spec.mnemonic

    @cached_property
    def is_meta(self):
        return self.opcode >> 4 == META_GROUP


def instruction_length(opcode):
    spec = OPCODES.get(opcode)
    if spec is None:
        raise IllegalOpcode("unknown opcode 0x%02x" % opcode)
    return spec.length


def _check_reg(code, *, allow_none, what):
    if code == RNONE:
        if not allow_none:
            raise InvalidOperand("%s requires a register" % what)
        return
    if code not in VALID_REG_CODES:
        raise InvalidOperand("%s: invalid register code 0x%x" % (what, code))


def _validate(instr):
    spec = OPCODES.get(instr.opcode)
    if spec is None:
        raise IllegalOpcode("unknown opcode 0x%02x" % instr.opcode)
    form = spec.form
    name = spec.mnemonic
    if form in ("n", "d"):
        if instr.ra != RNONE or instr.rb != RNONE:
            raise InvalidOperand("%s takes no register operands" % name)
    elif form == "rr":
        _check_reg(instr.ra, allow_none=False, what=name + " rA")
        _check_reg(instr.rb, allow_none=False, what=name + " rB")
    elif form == "r":
        _check_reg(instr.ra, allow_none=False, what=name + " rA")
        if instr.rb != RNONE:
            raise InvalidOperand("%s takes a single register" % name)
    elif form == "ir":
        if instr.ra != RNONE:
            raise InvalidOperand("%s: rA must be empty" % name)
        _check_reg(instr.rb, allow_none=False, what=name + " rB")
    elif form == "rm":
        _check_reg(instr.ra, allow_none=False, what=name + " rA")
        _check_reg(instr.rb, allow_none=True, what=name + " base")
    elif form == "qr":
        _check_reg(instr.ra, allow_none=False, what=name + " rA")
        if instr.rb != RNONE:
            raise InvalidOperand("%s: rB must be empty" % name)
    if form in ("n", "rr", "r") and instr.imm != 0:
        raise InvalidOperand("%s carries no immediate" % name)
    return spec


def encode(instr):
    """Encode to bytes; exactly instr.length of them, immediate words
    little-endian."""
    spec = _validate(instr)
    out = bytearray((instr.opcode,))
    if spec.form in ("rr", "r", "ir", "rm", "qr"):
        out.append(((instr.ra & 0xF) << 4) | (instr.rb & 0xF))
    if spec.form in ("ir", "rm", "d", "qr"):
        out += (instr.imm & WORD_MASK).to_bytes(4, "little")
    return bytes(out)


def decode(buf, offset=0):
    """Decode one instruction at offset.  Returns (Instruction, length).

    Raises IllegalOpcode for unknown opcodes or malformed register
    fields, TruncatedInstruction when the buffer ends mid-instruction.
    """
    if offset >= len(buf):
        raise TruncatedInstruction("no byte at offset 0x%x" % offset)
    opcode = buf[offset]
    spec = OPCODES.get(opcode)
    if spec is None:
        raise IllegalOpcode("illegal opcode 0x%02x at 0x%x" % (opcode, offset))
    length = spec.length
    if offset + length > len(buf):
        raise TruncatedInstruction(
            "%s at 0x%x truncated (need %d bytes)" % (spec.mnemonic, offset, length))
    ra = rb = RNONE
    imm = 0
    pos = offset + 1
    if spec.form in ("rr", "r", "ir", "rm", "qr"):
        regbyte = buf[pos]
        ra, rb = regbyte >> 4, regbyte & 0xF
        pos += 1
    if spec.form in ("ir", "rm", "d", "qr"):
        imm = int.from_bytes(buf[pos:pos + 4], "little")
    instr = Instruction(opcode, ra, rb, imm)
    try:
        _validate(instr)
    except InvalidOperand as exc:
        raise IllegalOpcode(
            "malformed %s at 0x%x: %s" % (spec.mnemonic, offset, exc)) from None
    return instr, length


def format_instruction(instr):
    """Assembly text for an instruction (addresses as hex literals)."""
    name = instr.mnemonic
    form = instr.spec.form
    if form == "n":
        return name
    if form == "rr":
        return "%s %s,%s" % (name, REGISTER_NAMES[instr.ra], REGISTER_NAMES[instr.rb])
    if form == "r":
        return "%s %s" % (name, REGISTER_NAMES[instr.ra])
    if form == "ir":
        return "%s $0x%x,%s" % (name, instr.imm, REGISTER_NAMES[instr.rb])
    if form == "rm":
        mem = "0x%x" % instr.imm
        if instr.rb != RNONE:
            mem += "(%s)" % REGISTER_NAMES[instr.rb]
        if instr.opcode == RMMOVL:
            return "%s %s,%s" % (name, REGISTER_NAMES[instr.ra], mem)
        return "%s %s,%s" % (name, mem, REGISTER_NAMES[instr.ra])
    if form == "d":
        if instr.imm == WORD_MASK and instr.opcode in (QWAIT, QPWAIT):
            return "%s -1" % name
        return "%s 0x%x" % (name, instr.imm)
    if form == "qr":
        if instr.opcode == QALLOC:
            return "%s %d,%s" % (name, instr.imm, REGISTER_NAMES[instr.ra])
        return "%s 0x%x,%s" % (name, instr.imm, REGISTER_NAMES[instr.ra])
    raise AssertionError(form)


def to_signed(value):
    value &= WORD_MASK
    return value - 0x100000000 if value & 0x80000000 else value
