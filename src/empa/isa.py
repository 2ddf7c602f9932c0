"""Y86 base instruction set plus the EMPA 'Q' meta-instruction group.

Bit-exact encode/decode for the 32-bit little-endian dialect: one opcode
byte (group nibble high, member nibble low), an optional register byte,
an optional 32-bit immediate word.  Total length 1-6 bytes, a pure
function of the opcode.  All functions here are pure and thread-safe.

Every per-opcode fact sits in one table, built at import: OPCODE_TABLE
holds, for each opcode byte, its OpcodeSpec (mnemonic, form, length,
whether a register byte and an immediate follow, the register bytes its
form takes, whether it is a meta-instruction), or None.  The operand
rules are stated once, in _check_fields; encode checks fields with it,
and the table's register-byte sets are worked out from it.  decode
reads one table row, tests the register byte against its set, and
builds the Instruction tuple directly; only a rejected register byte
goes back to _check_fields for the message.
"""

import struct
from collections import namedtuple
from dataclasses import dataclass

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

# Instruction forms decide the length and which fields follow the opcode:
#   n    1 byte   no operands
#   rr   2 bytes  regbyte, both registers required
#   r    2 bytes  regbyte, rA required, rB must be none (push/pop)
#   ir   6 bytes  regbyte (rA none, rB required) + immediate
#   rm   6 bytes  regbyte (rA required, rB optional base) + displacement
#   d    5 bytes  immediate only (jumps, call, QWait/QPWait/QCall)
#   qr   6 bytes  regbyte (rA required, rB none) + immediate (Q-create family,
#                 QAlloc)
# form -> (length, a register byte follows the opcode, an immediate word
# ends the instruction)
FORMS = {"n": (1, False, False), "rr": (2, True, False), "r": (2, True, False),
         "ir": (6, True, True), "rm": (6, True, True), "d": (5, False, True),
         "qr": (6, True, True)}


class EncodingError(Exception):
    """Base for encode/decode failures."""


class InvalidOperand(EncodingError):
    """Instruction fields are inconsistent with the opcode's form."""


class IllegalOpcode(EncodingError):
    """Unknown opcode byte or malformed register field."""


class TruncatedInstruction(EncodingError):
    """Buffer ends in the middle of an instruction."""


def _check_reg(code, *, allow_none, what):
    if code == RNONE:
        if not allow_none:
            raise InvalidOperand("%s requires a register" % what)
        return
    if code not in VALID_REG_CODES:
        raise InvalidOperand("%s: invalid register code 0x%x" % (what, code))


def _check_fields(form, name, ra, rb, imm):
    """InvalidOperand unless ra, rb and imm fit `form`; `name` is the
    mnemonic the message names.  The one statement of the operand rules:
    the register bytes of the opcode table are worked out from it."""
    if form in ("n", "d"):
        if ra != RNONE or rb != RNONE:
            raise InvalidOperand("%s takes no register operands" % name)
    elif form == "rr":
        _check_reg(ra, allow_none=False, what=name + " rA")
        _check_reg(rb, allow_none=False, what=name + " rB")
    elif form == "r":
        _check_reg(ra, allow_none=False, what=name + " rA")
        if rb != RNONE:
            raise InvalidOperand("%s takes a single register" % name)
    elif form == "ir":
        if ra != RNONE:
            raise InvalidOperand("%s: rA must be empty" % name)
        _check_reg(rb, allow_none=False, what=name + " rB")
    elif form == "rm":
        _check_reg(ra, allow_none=False, what=name + " rA")
        _check_reg(rb, allow_none=True, what=name + " base")
    elif form == "qr":
        _check_reg(ra, allow_none=False, what=name + " rA")
        if rb != RNONE:
            raise InvalidOperand("%s: rB must be empty" % name)
    if not FORMS[form][2] and imm != 0:
        raise InvalidOperand("%s carries no immediate" % name)


def _valid_regbytes(form):
    """The register bytes that _check_fields lets `form` take."""
    valid = []
    for regbyte in range(256):
        try:
            _check_fields(form, form, regbyte >> 4, regbyte & 0xF, 0)
        except InvalidOperand:
            continue
        valid.append(regbyte)
    return frozenset(valid)


_REGBYTES = {form: _valid_regbytes(form) for form in FORMS}


@dataclass(frozen=True, slots=True)
class OpcodeSpec:
    """Everything decoding needs to know of one opcode, worked out once:
    the mnemonic and form, the length, whether a register byte and an
    immediate word follow the opcode, the register bytes the form takes
    and whether it is a meta-instruction."""

    mnemonic: str
    form: str
    length: int
    has_reg: bool
    has_imm: bool
    regbytes: frozenset
    is_meta: bool


def _build_opcode_table():
    forms = {
        HALT: ("halt", "n"), NOP: ("nop", "n"), IRMOVL: ("irmovl", "ir"),
        RMMOVL: ("rmmovl", "rm"), MRMOVL: ("mrmovl", "rm"),
        ADDL: ("addl", "rr"), SUBL: ("subl", "rr"), ANDL: ("andl", "rr"),
        XORL: ("xorl", "rr"), CALL: ("call", "d"), RET: ("ret", "n"),
        PUSHL: ("pushl", "r"), POPL: ("popl", "r"),
        QCREATE: ("QCreate", "qr"), QTERM: ("QTerm", "n"),
        QWAIT: ("QWait", "d"), QPWAIT: ("QPWait", "d"), QCALL: ("QCall", "d"),
        QALLOC: ("QAlloc", "qr"), QTCREATE: ("QTCreate", "qr"),
        QFCREATE: ("QFCreate", "qr"),
    }
    for fn, cond in enumerate(CONDITIONS):
        forms[RRMOVL | fn] = ("rrmovl" if fn == 0 else "cmov" + cond, "rr")
        forms[JMP | fn] = ("jmp" if fn == 0 else "j" + cond, "d")
    return {op: OpcodeSpec(mnemonic, form, *FORMS[form], _REGBYTES[form],
                           op >> 4 == META_GROUP)
            for op, (mnemonic, form) in forms.items()}


OPCODES = _build_opcode_table()
# The same specs indexed by opcode byte, None where no opcode is defined.
OPCODE_TABLE = tuple(OPCODES.get(byte) for byte in range(256))

META_OPCODES = frozenset(op for op, spec in OPCODES.items() if spec.is_meta)
QCREATE_FAMILY = frozenset((QCREATE, QTCREATE, QFCREATE))

_new = tuple.__new__


class Instruction(namedtuple("Instruction", "opcode ra rb imm")):
    """A decoded instruction, as a tuple of its fields.  Fields not used
    by the opcode's form stay at their canonical values (RNONE / 0) so
    decode(encode(i)) == i; imm is kept as a 32-bit word."""

    __slots__ = ()

    def __new__(cls, opcode, ra=RNONE, rb=RNONE, imm=0):
        return _new(cls, (opcode, ra, rb, imm & WORD_MASK))

    @property
    def spec(self):
        return OPCODES[self.opcode]

    @property
    def length(self):
        return OPCODES[self.opcode].length

    @property
    def mnemonic(self):
        return OPCODES[self.opcode].mnemonic


def _validate(instr):
    spec = OPCODES.get(instr.opcode)
    if spec is None:
        raise IllegalOpcode("unknown opcode 0x%02x" % instr.opcode)
    _check_fields(spec.form, spec.mnemonic, instr.ra, instr.rb, instr.imm)
    return spec


def encode(instr):
    """Encode to bytes; exactly instr.length of them, immediate words
    little-endian."""
    spec = _validate(instr)
    return pack(spec.form, instr.opcode, instr.ra, instr.rb, instr.imm)


_OP_REG_WORD = struct.Struct("<BBI")
_OP_WORD = struct.Struct("<BI")
_unpack_word = struct.Struct("<I").unpack_from


def pack(form, opcode, ra, rb, imm):
    """The bytes of an instruction of `form` with these fields, without
    the checks of _validate: the caller guarantees them, and that imm is
    a word.  Fields the form does not use are ignored."""
    if form == "n":
        return bytes((opcode,))
    if form == "d":
        return _OP_WORD.pack(opcode, imm)
    if form == "rr" or form == "r":
        return bytes((opcode, ra << 4 | rb))
    return _OP_REG_WORD.pack(opcode, ra << 4 | rb, imm)


def decode(buf, offset=0):
    """Decode one instruction at offset.  Returns (Instruction, length).

    Raises IllegalOpcode for unknown opcodes or malformed register
    fields, TruncatedInstruction when the buffer ends mid-instruction.
    """
    if offset >= len(buf):
        raise TruncatedInstruction("no byte at offset 0x%x" % offset)
    opcode = buf[offset]
    spec = OPCODE_TABLE[opcode]
    if spec is None:
        raise IllegalOpcode("illegal opcode 0x%02x at 0x%x" % (opcode, offset))
    length = spec.length
    end = offset + length
    if end > len(buf):
        raise TruncatedInstruction(
            "%s at 0x%x truncated (need %d bytes)" % (spec.mnemonic, offset, length))
    if spec.has_reg:
        regbyte = buf[offset + 1]
        ra = regbyte >> 4
        rb = regbyte & 0xF
        if regbyte not in spec.regbytes:
            try:
                _check_fields(spec.form, spec.mnemonic, ra, rb, 0)
            except InvalidOperand as exc:
                raise IllegalOpcode("malformed %s at 0x%x: %s"
                                    % (spec.mnemonic, offset, exc)) from None
    else:
        ra = rb = RNONE
    # the immediate word, if any, is the instruction's last four bytes
    imm = _unpack_word(buf, end - 4)[0] if spec.has_imm else 0
    return _new(Instruction, (opcode, ra, rb, imm)), length


def to_signed(value):
    value &= WORD_MASK
    return value - 0x100000000 if value & 0x80000000 else value
