"""Reference decoder for differential testing of `isa.decode`.

This is the decoder as it stood before the per-opcode table: one dict
of opcode specs, form tests spelled out in `decode`, and a validation
if-chain whose messages the table-driven decoder must keep word for
word.  Its opcode table, register set and checks are its own; only the
exception classes come from `empa.isa`, since the decoder under test
must raise exactly those.

`decode(buf, offset)` returns `(Fields(opcode, ra, rb, imm), length)`,
or raises what the old decoder raised, with the same message.
"""

from collections import namedtuple

from empa.isa import IllegalOpcode, InvalidOperand, TruncatedInstruction

RNONE = 0xF
VALID_REG_CODES = frozenset(range(0xB))          # %eax..%esv

FORM_LENGTHS = {"n": 1, "rr": 2, "r": 2, "ir": 6, "rm": 6, "d": 5, "qr": 6}

CONDITIONS = ("", "le", "l", "e", "ne", "ge", "g")

Fields = namedtuple("Fields", "opcode ra rb imm")

OPCODES = {
    0x00: ("halt", "n"), 0x10: ("nop", "n"), 0x30: ("irmovl", "ir"),
    0x40: ("rmmovl", "rm"), 0x50: ("mrmovl", "rm"), 0x60: ("addl", "rr"),
    0x61: ("subl", "rr"), 0x62: ("andl", "rr"), 0x63: ("xorl", "rr"),
    0x80: ("call", "d"), 0x90: ("ret", "n"), 0xA0: ("pushl", "r"),
    0xB0: ("popl", "r"), 0xE0: ("QCreate", "qr"), 0xE1: ("QTerm", "n"),
    0xE2: ("QWait", "d"), 0xE3: ("QPWait", "d"), 0xE4: ("QCall", "d"),
    0xE5: ("QAlloc", "qr"), 0xE6: ("QTCreate", "qr"),
    0xE7: ("QFCreate", "qr"),
}
for _fn, _cond in enumerate(CONDITIONS):
    OPCODES[0x20 | _fn] = ("rrmovl" if _fn == 0 else "cmov" + _cond, "rr")
    OPCODES[0x70 | _fn] = ("jmp" if _fn == 0 else "j" + _cond, "d")
del _fn, _cond


def _check_reg(code, *, allow_none, what):
    if code == RNONE:
        if not allow_none:
            raise InvalidOperand("%s requires a register" % what)
        return
    if code not in VALID_REG_CODES:
        raise InvalidOperand("%s: invalid register code 0x%x" % (what, code))


def _validate(opcode, ra, rb, imm):
    name, form = OPCODES[opcode]
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
    if form in ("n", "rr", "r") and imm != 0:
        raise InvalidOperand("%s carries no immediate" % name)


def decode(buf, offset=0):
    if offset >= len(buf):
        raise TruncatedInstruction("no byte at offset 0x%x" % offset)
    opcode = buf[offset]
    spec = OPCODES.get(opcode)
    if spec is None:
        raise IllegalOpcode("illegal opcode 0x%02x at 0x%x" % (opcode, offset))
    name, form = spec
    length = FORM_LENGTHS[form]
    if offset + length > len(buf):
        raise TruncatedInstruction(
            "%s at 0x%x truncated (need %d bytes)" % (name, offset, length))
    ra = rb = RNONE
    imm = 0
    pos = offset + 1
    if form in ("rr", "r", "ir", "rm", "qr"):
        regbyte = buf[pos]
        ra, rb = regbyte >> 4, regbyte & 0xF
        pos += 1
    if form in ("ir", "rm", "d", "qr"):
        imm = int.from_bytes(buf[pos:pos + 4], "little")
    try:
        _validate(opcode, ra, rb, imm)
    except InvalidOperand as exc:
        raise IllegalOpcode(
            "malformed %s at 0x%x: %s" % (name, offset, exc)) from None
    return Fields(opcode, ra, rb, imm), length
