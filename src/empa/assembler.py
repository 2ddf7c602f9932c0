"""Two-pass assembler for EMPA/Y86 source (.eyo).

Pass 1 assigns addresses, collects labels and records each line's
address, byte count and text in the image; pass 2 encodes the bytes.
A run of unlabelled `.long` lines of plain literals is found by one
compiled pattern, searched for from the line of the first `.long`, at
most _RUN_LINES lines a match.  Each match is kept as one line-table
entry of its address, width 4 and text, and written with one
`struct.pack`; a match with a word wider than 32 bits, one past the
image end and one after a backward `.pos` are encoded line by line
instead.  `ObjectImage.listing` is built on first read, its bytes read
from the image.  Any other line is read with one compiled pattern and
encoded by the encoder of its instruction form; a line outside the
pattern is split by the per-line code.  The operand resolver tries a
plain lookup first and gives the error of a token it cannot read.
Y86 textbook dialect plus the Q mnemonics; a value is a signed or
unsigned 32-bit word, so `-1` is accepted wherever an address is
expected and encodes as 0xFFFFFFFF.
The assembler is a pure encoder: pseudo-registers are accepted anywhere
a register token fits, semantic legality is the simulator's business.
"""

import re
import struct
from functools import cached_property
from itertools import chain, repeat
from typing import Callable, NamedTuple

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


def _rows(lines, memory):
    """One (address, bytes, text) row per source line of a line table,
    its bytes read from `memory`: a width-4 entry holds one line of
    text per word."""
    memory = bytes(memory)
    rows = []
    for addr, width, text in lines:
        if width != 4:
            rows.append((addr, memory[addr:addr + width], text))
            continue
        for line in text.splitlines():
            rows.append((addr, memory[addr:addr + 4], line))
            addr += 4
    return rows


class ObjectImage:
    """Assembled memory image with symbols and per-line listing.

    `_lines` holds one (address, width, text) entry per source line or
    data-run match: width is the line's byte count (0 for a line with
    no bytes), and 4 for a data-run match, whose text holds one line
    per word.  `listing`, built on first read, holds one (address,
    bytes, source-text) row per source line, its bytes read from the
    image: writes never overlap, so the image holds every line's
    bytes."""

    def __init__(self, size=DEFAULT_IMAGE_SIZE):
        self.memory = bytearray(size)
        self.symbols = {}
        self._lines = []

    @cached_property
    def listing(self):
        return _rows(self._lines, self.memory)

    @property
    def size(self):
        return len(self.memory)


# One canonical line as a whole: an optional label, an optional
# mnemonic or directive with at most two operands, and an optional
# comment, separated by spaces and tabs.  An operand is printable ASCII
# other than "#", "," and ":" (the ranges ! " $..+ -..9 ;..~).  So each
# group holds exactly the token the per-line code cuts at that place,
# and a line the per-line code reads as labelled cannot match without
# its label.  A line outside the pattern goes through _split_line.
_TOKEN = r"([!-\"$-+\--9;-~]+)"
_LINE_RE = re.compile(
    r"[ \t]*(?:([A-Za-z_][A-Za-z0-9_]*)[ \t]*:[ \t]*)?"
    r"(?:(\.?[A-Za-z_][A-Za-z0-9_]*)(?:[ \t]+%s(?:[ \t]*,[ \t]*%s)?)?[ \t]*)?"
    r"(?:#.*)?" % (_TOKEN, _TOKEN), re.ASCII)
# A run of data lines, each an unlabelled `.long` of one plain literal
# (0x hex, or decimal without leading zeros) with an optional comment
# of printable ASCII or tabs, and a final "\n".  Such a line holds no
# other line break, so the lines of a run are the ones str.splitlines
# gives, and its literal is the token _LINE_RE reads.  With the
# comments cut (only a run holding a "#" has one), the run splits on
# whitespace into `.long` and literal.  A run starts a line (after a
# "\n") and holds a `.long`, so none starts before the line of the
# source's first `.long`.  The `re` module keeps backtracking state for
# each repetition of the group until the match ends, about 500 bytes a
# line, so a match takes at most _RUN_LINES lines and a longer run is
# matched in adjacent pieces (1.5 MB of transient state for a run of
# 3,000 lines as one match, about 0.15 MB in pieces of 256).
_RUN_LINES = 256
_RUN_RE = re.compile(r"^(?:[ \t]*\.long[ \t]+(?:0x[0-9A-Fa-f]+|[1-9][0-9]*|0)"
                     r"[ \t]*(?:#[\t -~]*)?\n){1,%d}" % _RUN_LINES, re.M)
_COMMENT_RE = re.compile(r"#.*")
_LABEL_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*:")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

# An encoded value is a signed or an unsigned 32-bit word.
_LOWEST = -(1 << 31)


def _parse_int(token, line):
    tok = token.strip()
    if tok.startswith("$"):
        tok = tok[1:]
    try:
        return int(tok, 0)
    except ValueError:
        raise AssemblySyntaxError("expected a number, got %r" % token, line) from None


def _word(value, token, line):
    """`value` as a word; an error naming `token` if it is out of range."""
    if not _LOWEST <= value <= isa.WORD_MASK:
        raise AssemblySyntaxError("value %r does not fit in 32 bits" % token,
                                  line)
    return value & isa.WORD_MASK


def _split_line(raw, line, symbols):
    """(label, mnemonic, operands) of any line, the slow way; a label
    already in `symbols` is an error before anything else on the line."""
    text = raw.split("#", 1)[0].rstrip()
    label = None
    label_m = _LABEL_RE.match(text)
    if label_m:
        label = label_m.group(1)
        if label in symbols:
            raise DuplicateLabel("duplicate label %r" % label, line)
        text = text[label_m.end():]
    text = text.strip()
    if not text:
        return label, None, ()
    return (label,) + _split_statement(text, line)


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
    """Resolves operand tokens during pass 2.  Each method first tries a
    plain lookup on the token as it stands, which reads every token of
    _LINE_RE; only a miss strips the token and raises its error."""

    def __init__(self, symbols):
        self.symbols = symbols

    def value(self, token, line):
        tok = token[1:] if token[:1] == "$" else token
        value = self.symbols.get(tok)
        if value is None:
            try:
                value = int(tok, 0)      # a token int() reads is no label
            except ValueError:
                value = self._label_or_error(token, line)
        return _word(value, token, line)

    def _label_or_error(self, token, line):
        tok = token.strip()
        if tok.startswith("$"):
            tok = tok[1:].strip()
        if _NAME_RE.match(tok):
            if tok not in self.symbols:
                raise UndefinedLabel("undefined label %r" % tok, line)
            return self.symbols[tok]
        raise AssemblySyntaxError("bad value %r" % token, line)

    def number(self, token, line):
        """A literal number (a QAlloc mode), never a label."""
        return _word(_parse_int(token, line), token, line)

    def register(self, token, line):
        code = isa.REGISTER_CODES.get(token)
        if code is None:
            code = isa.REGISTER_CODES.get(token.strip())
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


# One encoder per form: (opcode, operands, resolver, line) -> the
# fields (ra, rb, imm).  Operands are resolved in the order that decides
# which error a line with two bad operands reports.  A register from
# REGISTER_CODES and a word always meet isa._validate, so the fields
# are packed unchecked.

def _encode_n(opcode, ops, res, line):
    return isa.RNONE, isa.RNONE, 0


def _encode_rr(opcode, ops, res, line):
    return res.register(ops[0], line), res.register(ops[1], line), 0


def _encode_r(opcode, ops, res, line):
    return res.register(ops[0], line), isa.RNONE, 0


def _encode_ir(opcode, ops, res, line):
    rb = res.register(ops[1], line)
    return isa.RNONE, rb, res.value(ops[0], line)


def _encode_rm(opcode, ops, res, line):
    if opcode == isa.RMMOVL:
        ra = res.register(ops[0], line)
        disp, base = res.memory_operand(ops[1], line)
    else:
        disp, base = res.memory_operand(ops[0], line)
        ra = res.register(ops[1], line)
    return ra, base, disp


def _encode_d(opcode, ops, res, line):
    return isa.RNONE, isa.RNONE, res.value(ops[0], line)


def _encode_qr(opcode, ops, res, line):
    ra = res.register(ops[1], line)
    if opcode == isa.QALLOC:        # mode number first, count register second
        return ra, isa.RNONE, res.number(ops[0], line)
    return ra, isa.RNONE, res.value(ops[0], line)


class _Op(NamedTuple):
    """How pass 1 sizes a statement and pass 2 encodes it.  `.long` is
    the entry with no opcode and no form."""
    opcode: int
    form: str
    length: int
    count: int                  # operands
    encode: Callable


_ENCODERS = {"n": (0, _encode_n), "rr": (2, _encode_rr), "r": (1, _encode_r),
             "ir": (2, _encode_ir), "rm": (2, _encode_rm),
             "d": (1, _encode_d), "qr": (2, _encode_qr)}
_LONG = _Op(None, None, 4, 1, _encode_d)
_OPS = {spec.mnemonic: _Op(opcode, spec.form, spec.length, *_ENCODERS[spec.form])
        for opcode, spec in isa.OPCODES.items()}
_OPS[".long"] = _LONG
_RUN = object()                 # the op of a pass-1 entry for a data run


def assemble(source, size=DEFAULT_IMAGE_SIZE):
    """Assemble source text into an ObjectImage.

    Raises AssemblerError subclasses carrying the offending line number.
    """
    image = ObjectImage(size)
    symbols = image.symbols
    resolver = _Resolver(symbols)

    # Pass 1: each line's address, width and text, and the labels.  A
    # run of data lines is one entry; any other line in _LINE_RE is read
    # from its groups, and the rest by _split_line.
    lines = image._lines
    parsed = []   # (lineno, addr, op, operands) of a line with bytes,
                  # and (first lineno, addr, _RUN, words) of a run
    addr = lineno = pos = 0
    backward = False              # a .pos has moved the address back
    fullmatch, ops_of = _LINE_RE.fullmatch, _OPS.get
    first = source.find(".long")
    runs = () if first < 0 else _RUN_RE.finditer(
        source, source.rfind("\n", 0, first) + 1)
    for run in chain(runs, (None,)):
        start = len(source) if run is None else run.start()
        for lineno, raw in enumerate(source[pos:start].splitlines(),
                                     start=lineno + 1):
            m = fullmatch(raw)
            if m is None or m[1] in symbols:
                label, mnemonic, operands = _split_line(raw, lineno, symbols)
            else:
                label, mnemonic, a, b = m.groups()
                operands = () if a is None else (a,) if b is None else (a, b)
            length = 0
            if mnemonic is not None:
                op = ops_of(mnemonic)
                if op is None:
                    to = _directive(mnemonic, operands, addr, lineno)
                    backward = backward or to < addr
                    addr = to
                else:
                    if op is _LONG and len(operands) != 1:
                        _operand_count(".long", operands, 1, lineno)
                    length = op.length
                    parsed.append((lineno, addr, op, operands))
            if label is not None:
                symbols[label] = addr
            lines.append((addr, length, raw))
            addr += length
        if run is None:
            break
        # A run (one match; a longer run is several adjacent ones) is
        # written in one step unless a word is wider than 32 bits, the
        # run passes the image end, or a backward .pos came before it (a
        # write may then start below the highest earlier one and need
        # the owner map).  Such a run is encoded as one .long per line,
        # which reports the error of the first bad line; the line table
        # keeps the match as one entry either way.
        pos = run.end()
        text = run[0]
        tokens = (_COMMENT_RE.sub("", text) if "#" in text
                  else text).split()[1::2]
        words = list(map(int, tokens, repeat(0)))
        end = addr + 4 * len(words)
        if backward or end > size or max(words) > isa.WORD_MASK:
            parsed += zip(range(lineno + 1, lineno + 1 + len(words)),
                          range(addr, end, 4), repeat(_LONG), zip(tokens))
        else:
            parsed.append((lineno + 1, addr, _RUN, words))
        lines.append((addr, 4, text))
        lineno += len(words)
        addr = end

    # Pass 2: emit bytes at the pass-1 addresses.  Writes are checked
    # for overlap against a byte-owner map, built only once a write
    # starts below the end of the highest earlier one.
    memory = image.memory
    pack = isa.pack
    instr_at = {}                 # address -> (opcode, ra, imm, line number)
    high = 0                      # end of the highest write so far
    owner = None                  # address -> line number that wrote it
    for lineno, addr, op, operands in parsed:
        if op is _RUN:
            high = addr + 4 * len(operands)
            memory[addr:high] = struct.pack("<%dI" % len(operands), *operands)
            continue
        opcode, form, _, count, encode = op
        if len(operands) != count:
            _operand_count(isa.OPCODES[opcode].mnemonic, operands, count, lineno)
        ra, rb, imm = encode(opcode, operands, resolver, lineno)
        if op is _LONG:
            data = imm.to_bytes(4, "little")
        else:
            data = pack(form, opcode, ra, rb, imm)
            instr_at[addr] = (opcode, ra, imm, lineno)
        end = addr + len(data)
        if end > size:
            raise AssemblerError(
                "program exceeds the %d-byte image at 0x%x" % (size, addr), lineno)
        if owner is None and addr < high:
            owner = _owners(lines, memory, lineno)
        if owner is None:
            high = end
        else:
            for i in range(addr, end):
                if i in owner:
                    raise AssemblerError(
                        "byte 0x%x written by both line %d and line %d"
                        % (i, owner[i], lineno), lineno)
                owner[i] = lineno
        memory[addr:end] = data

    _check_brackets(instr_at)
    _check_branch_links(instr_at)
    return image


def _owners(lines, memory, before):
    """Address -> line number for every byte of the lines before line
    `before`, which pass 2 has written."""
    owner = {}
    for lineno, (addr, data, _) in zip(range(1, before), _rows(lines, memory)):
        owner.update(dict.fromkeys(range(addr, addr + len(data)), lineno))
    return owner


def _directive(mnemonic, operands, addr, line):
    """The address after a .pos or .align line."""
    if mnemonic == ".pos":
        _operand_count(".pos", operands, 1, line)
        addr = _parse_int(operands[0], line)
        if addr < 0:
            raise AssemblySyntaxError(".pos before address 0", line)
        return addr
    if mnemonic == ".align":
        _operand_count(".align", operands, 1, line)
        align = _parse_int(operands[0], line)
        if align <= 0:
            raise AssemblySyntaxError(".align needs a positive value", line)
        return (addr + align - 1) // align * align
    raise AssemblySyntaxError("unknown mnemonic %r" % mnemonic, line)


def _opcode_at(instr_at, addr):
    hit = instr_at.get(addr)
    return hit[0] if hit is not None else None


def _check_brackets(instr_at):
    """Every QCreate/QTCreate/QFCreate target must be a QTerm opcode."""
    for opcode, _ra, target, lineno in instr_at.values():
        if (opcode in isa.QCREATE_FAMILY
                and _opcode_at(instr_at, target) != isa.QTERM):
            raise UnmatchedQTermTarget(
                "%s target 0x%x is not a QTerm"
                % (isa.OPCODES[opcode].mnemonic, target), lineno)


def _check_branch_links(instr_at):
    """Where a QFCreate directly follows a QTCreate's QTerm, both branches
    must carry the same link register."""
    for addr, (opcode, link, target, _) in instr_at.items():
        if opcode != isa.QTCREATE:
            continue
        after = target + 1
        if (_opcode_at(instr_at, after) == isa.QFCREATE
                and instr_at[after][1] != link):
            raise AssemblerError(
                "QTCreate at 0x%x and QFCreate at 0x%x carry different "
                "link registers" % (addr, after))


def write_listing(image):
    """Listing text: one `0xADDR: BYTES | source` line per source line.
    Re-assembling the source column reproduces identical bytes."""
    return "\n".join(["0x%04x: %-12s | %s" % (addr, data.hex(), src)
                      for addr, data, src in image.listing]) + "\n"


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
