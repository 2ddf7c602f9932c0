"""Two-pass assembler for EMPA/Y86 source (.eyo).

Pass 1 assigns addresses and collects labels; pass 2 encodes bytes and
builds the listing.  Y86 textbook dialect plus the Q mnemonics; `-1` is
accepted wherever an address is expected and encodes as 0xFFFFFFFF.
The assembler is a pure encoder: pseudo-registers are accepted anywhere
a register token fits, semantic legality is the simulator's business.
"""

import re

from . import isa

DEFAULT_IMAGE_SIZE = 4096


class AssemblerError(Exception):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class AssemblySyntaxError(AssemblerError):
    pass


class UndefinedLabel(AssemblerError):
    pass


class DuplicateLabel(AssemblerError):
    pass


class UnmatchedQTermTarget(AssemblerError):
    """A QCreate-family argument does not point at a QTerm opcode."""


class ObjectImage:
    """Assembled memory image with symbols and per-line listing."""

    def __init__(self, size=DEFAULT_IMAGE_SIZE):
        self.memory = bytearray(size)
        self.entry = 0
        self.symbols = {}
        # One (address, bytes, source-text) tuple per source line.
        self.listing = []

    @property
    def size(self):
        return len(self.memory)


_LABEL_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*:")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _parse_int(token, line):
    tok = token.strip()
    if tok.startswith("$"):
        tok = tok[1:]
    try:
        return int(tok, 0)
    except ValueError:
        raise AssemblySyntaxError("expected a number, got %r" % token, line) from None


def _split_statement(text, line):
    parts = text.split(None, 1)
    mnemonic = parts[0]
    operands = []
    if len(parts) > 1:
        operands = [tok.strip() for tok in parts[1].split(",")]
        if any(not tok for tok in operands):
            raise AssemblySyntaxError("empty operand", line)
    return mnemonic, operands


class _Resolver:
    """Resolves value tokens (numbers, labels, $imm) during pass 2."""

    def __init__(self, symbols):
        self.symbols = symbols

    def value(self, token, line):
        tok = token.strip()
        if tok.startswith("$"):
            tok = tok[1:].strip()
        if _NAME_RE.match(tok):
            if tok not in self.symbols:
                raise UndefinedLabel("undefined label %r" % tok, line)
            return self.symbols[tok]
        try:
            return int(tok, 0)
        except ValueError:
            raise AssemblySyntaxError("bad value %r" % token, line) from None

    def register(self, token, line):
        tok = token.strip()
        code = isa.REGISTER_CODES.get(tok)
        if code is None:
            raise AssemblySyntaxError("unknown register %r" % token, line)
        return code

    def memory_operand(self, token, line):
        """D(rB), (rB), plain D or label; returns (disp, base)."""
        tok = token.strip()
        base = isa.RNONE
        if tok.endswith(")"):
            lparen = tok.rfind("(")
            if lparen < 0:
                raise AssemblySyntaxError("mismatched ')' in %r" % token, line)
            base = self.register(tok[lparen + 1:-1], line)
            tok = tok[:lparen].strip()
        disp = self.value(tok, line) if tok else 0
        return disp, base


def _operand_count(mnemonic, operands, expected, line):
    if len(operands) != expected:
        raise AssemblySyntaxError(
            "%s takes %d operand(s), got %d" % (mnemonic, expected, len(operands)),
            line)


def _encode_statement(mnemonic, operands, res, line):
    opcode = isa.MNEMONIC_TO_OPCODE[mnemonic]
    form = isa.OPCODES[opcode].form
    if form == "n":
        _operand_count(mnemonic, operands, 0, line)
        instr = isa.Instruction(opcode)
    elif form == "rr":
        _operand_count(mnemonic, operands, 2, line)
        instr = isa.Instruction(opcode, res.register(operands[0], line),
                                res.register(operands[1], line))
    elif form == "r":
        _operand_count(mnemonic, operands, 1, line)
        instr = isa.Instruction(opcode, res.register(operands[0], line))
    elif form == "ir":
        _operand_count(mnemonic, operands, 2, line)
        instr = isa.Instruction(opcode, rb=res.register(operands[1], line),
                                imm=res.value(operands[0], line))
    elif form == "rm":
        _operand_count(mnemonic, operands, 2, line)
        if opcode == isa.RMMOVL:
            ra = res.register(operands[0], line)
            disp, base = res.memory_operand(operands[1], line)
        else:
            disp, base = res.memory_operand(operands[0], line)
            ra = res.register(operands[1], line)
        instr = isa.Instruction(opcode, ra, base, disp)
    elif form == "d":
        _operand_count(mnemonic, operands, 1, line)
        instr = isa.Instruction(opcode, imm=res.value(operands[0], line))
    elif form == "qr":
        _operand_count(mnemonic, operands, 2, line)
        if opcode == isa.QALLOC:
            # mode immediate first, count register second
            instr = isa.Instruction(opcode, res.register(operands[1], line),
                                    imm=_parse_int(operands[0], line))
        else:
            instr = isa.Instruction(opcode, res.register(operands[1], line),
                                    imm=res.value(operands[0], line))
    else:
        raise AssertionError(form)
    try:
        return isa.encode(instr), instr
    except isa.EncodingError as exc:
        raise AssemblySyntaxError(str(exc), line) from None


def assemble(source, size=DEFAULT_IMAGE_SIZE):
    """Assemble source text into an ObjectImage.

    Raises AssemblerError subclasses carrying the offending line number.
    """
    lines = source.splitlines()
    image = ObjectImage(size)
    symbols = image.symbols

    # Pass 1: each line's address, and the labels.
    parsed = []   # (lineno, text, addr, mnemonic, operands)
    addr = 0
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].rstrip()
        label_m = _LABEL_RE.match(text)
        if label_m:
            name = label_m.group(1)
            if name in symbols:
                raise DuplicateLabel("duplicate label %r" % name, lineno)
            text = text[label_m.end():]
        text = text.strip()
        mnemonic = operands = None
        length = 0
        if text:
            mnemonic, operands = _split_statement(text, lineno)
            if mnemonic == ".pos":
                _operand_count(".pos", operands, 1, lineno)
                addr = _parse_int(operands[0], lineno)
                if addr < 0:
                    raise AssemblySyntaxError(".pos before address 0", lineno)
            elif mnemonic == ".align":
                _operand_count(".align", operands, 1, lineno)
                align = _parse_int(operands[0], lineno)
                if align <= 0:
                    raise AssemblySyntaxError(".align needs a positive value", lineno)
                addr = (addr + align - 1) // align * align
            elif mnemonic == ".long":
                _operand_count(".long", operands, 1, lineno)
                length = 4
            elif mnemonic in isa.MNEMONIC_TO_OPCODE:
                length = isa.instruction_length(isa.MNEMONIC_TO_OPCODE[mnemonic])
            else:
                raise AssemblySyntaxError("unknown mnemonic %r" % mnemonic, lineno)
        if label_m:
            symbols[name] = addr
        parsed.append((lineno, raw, addr, mnemonic, operands))
        addr += length

    # Pass 2: emit bytes at the pass-1 addresses.
    res = _Resolver(symbols)
    owner = [0] * size            # 1-based line number that wrote each byte
    instr_at = {}                 # address -> (Instruction, line number)
    for lineno, raw, addr, mnemonic, operands in parsed:
        if mnemonic == ".long":
            value = res.value(operands[0], lineno)
            data = (value & isa.WORD_MASK).to_bytes(4, "little")
        elif mnemonic in isa.MNEMONIC_TO_OPCODE:
            data, instr = _encode_statement(mnemonic, operands, res, lineno)
            instr_at[addr] = (instr, lineno)
        else:                     # blank, .pos or .align: no bytes
            image.listing.append((addr, b"", raw))
            continue
        end = addr + len(data)
        if end > size:
            raise AssemblerError(
                "program exceeds the %d-byte image at 0x%x" % (size, addr), lineno)
        for i in range(addr, end):
            if owner[i]:
                raise AssemblerError(
                    "byte 0x%x written by both line %d and line %d"
                    % (i, owner[i], lineno), lineno)
            owner[i] = lineno
        image.memory[addr:end] = data
        image.listing.append((addr, bytes(data), raw))

    _check_brackets(instr_at)
    _check_branch_links(instr_at)
    return image


def _opcode_at(instr_at, addr):
    hit = instr_at.get(addr)
    return hit[0].opcode if hit is not None else None


def _check_brackets(instr_at):
    """Every QCreate/QTCreate/QFCreate target must be a QTerm opcode."""
    for instr, lineno in instr_at.values():
        if (instr.opcode in isa.QCREATE_FAMILY
                and _opcode_at(instr_at, instr.imm) != isa.QTERM):
            raise UnmatchedQTermTarget(
                "%s target 0x%x is not a QTerm" % (instr.mnemonic, instr.imm),
                lineno)


def _check_branch_links(instr_at):
    """Where a QFCreate directly follows a QTCreate's QTerm, both branches
    must carry the same link register."""
    for addr, (tinstr, _) in instr_at.items():
        if tinstr.opcode != isa.QTCREATE:
            continue
        after = tinstr.imm + 1
        if (_opcode_at(instr_at, after) == isa.QFCREATE
                and instr_at[after][0].ra != tinstr.ra):
            raise AssemblerError(
                "QTCreate at 0x%x and QFCreate at 0x%x carry different "
                "link registers" % (addr, after))


def write_listing(image):
    """Listing text: one `0xADDR: BYTES | source` line per source line.
    Re-assembling the source column reproduces identical bytes."""
    out = []
    for addr, data, src in image.listing:
        out.append("0x%04x: %-12s | %s" % (addr, data.hex(), src))
    return "\n".join(out) + "\n"


def listing_source(text):
    """Recover the source column of a listing produced by write_listing."""
    lines = []
    for line in text.splitlines():
        if " | " in line:
            lines.append(line.split(" | ", 1)[1])
    return "\n".join(lines) + "\n"


def load_listing(text, size=DEFAULT_IMAGE_SIZE):
    """Build a bare memory image from a listing's address/byte columns."""
    image = ObjectImage(size)
    for lineno, line in enumerate(text.splitlines(), start=1):
        if " | " not in line:
            continue
        head = line.split(" | ", 1)[0]
        if ":" not in head:
            continue
        addr_s, _, hex_s = head.partition(":")
        hex_s = hex_s.strip()
        if not hex_s:
            continue
        try:
            addr = int(addr_s, 16)
            data = bytes.fromhex(hex_s)
        except ValueError:
            raise AssemblerError("unparseable listing line", lineno) from None
        if addr + len(data) > size:
            raise AssemblerError("listing bytes beyond image", lineno)
        image.memory[addr:addr + len(data)] = data
    return image
