"""Event log model, its line-delimited serialization, and the QT ids
and QT spans read from it.

One self-describing key-value record per line, append-only:

    cycle=<n> core=<n> qt=<id> kind=<k> addr=<hex> payload=<hex?>

The root QT is `1`; a QT's n-th child appends `1`..`9`, `a`..`z` for
n = 1..35 and `(n)` from then on.  The trace is the sole input to
diagrams and statistics.  Both read it through its view: the cores it
needs, its QT spans (`qt_spans`) and its last cycle, which a `Trace`
computes once and keeps.
"""

import re
from collections import namedtuple
from itertools import islice
from operator import itemgetter
from typing import NamedTuple

ROOT_QT_ID = "1"
_SEQ_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"

# Event kinds.  IDLE is part of the vocabulary but the engine never emits
# it: idle time is the absence of events (and the deadlock watchdog counts
# event-less cycles).
QT_CREATED = "QtCreated"
QT_TERMINATED = "QtTerminated"
INSTR_RETIRED = "InstrRetired"
META_RETIRED = "MetaRetired"
WAIT_BEGIN = "WaitBegin"
WAIT_END = "WaitEnd"
LATCH_READ = "LatchRead"
LATCH_WRITE = "LatchWrite"
SUM_FEED = "SumFeed"
IDLE = "Idle"

KINDS = frozenset((
    QT_CREATED, QT_TERMINATED, INSTR_RETIRED, META_RETIRED,
    WAIT_BEGIN, WAIT_END, LATCH_READ, LATCH_WRITE, SUM_FEED, IDLE,
))
# A parsed kind is looked up here, so every event of one kind shares
# one string.
_KIND_OF = {kind: kind for kind in KINDS}


class Event(NamedTuple):
    """One trace record; it equals the plain tuple of its fields.  Hot
    paths build it as tuple.__new__(Event, fields), which skips the
    keyword handling of Event(...), and read it by position in one loop:
    Python 3.11 specializes unpacking and indexing only for an exact
    tuple, so each read of an Event costs more than of a plain tuple."""
    cycle: int
    core: int
    qt: str
    kind: str
    addr: int
    payload: int = None


_new = tuple.__new__


# One QT lifetime: cycles start..end (inclusive) on one core; the
# parent is None for the root.
QtSpan = namedtuple("QtSpan", "id parent core start end")


def child_qt_id(parent_id, seq):
    """Id of the seq-th child (seq >= 1) of the QT `parent_id`."""
    if seq < len(_SEQ_CHARS):
        return parent_id + _SEQ_CHARS[seq]
    return "%s(%d)" % (parent_id, seq)


def parent_qt_id(qt_id):
    """Inverse of child_qt_id: the parent's id, None for the root."""
    if qt_id == ROOT_QT_ID:
        return None
    cut = qt_id.rfind("(") if qt_id.endswith(")") else -1   # "(n)" or 1 char
    return qt_id[:cut]


def qt_spans(events):
    """Every QT's lifetime, root first, then in creation order.  A QT
    alive at the end lasts to the last cycle.  The root lives from
    cycle 1, where every run starts (or from 0 if an event is there),
    to the last cycle, on the core of its first event (else 0).  One
    pass over `events`, a sequence in any cycle order."""
    if not events:
        return []
    first = last = events[0][0]
    root_core = None
    created = []                # [id, core, start, end or None] per create
    open_at = {}                # id -> index in created
    for cycle, core, qt, kind, _addr, _payload in events:
        if cycle > last:
            last = cycle
        if cycle < first:
            first = cycle
        if root_core is None and qt == ROOT_QT_ID:
            root_core = core
        if kind == QT_CREATED:
            open_at[qt] = len(created)
            created.append([qt, core, cycle, None])
        elif kind == QT_TERMINATED and qt in open_at:
            created[open_at.pop(qt)][3] = cycle
    spans = [QtSpan(ROOT_QT_ID, None, root_core or 0, min(first, 1), last)]
    spans += [QtSpan(qt, parent_qt_id(qt), core, start,
                     last if end is None else end)
              for qt, core, start, end in created]
    return spans


def cores_needed(events):
    """The fewest cores of a machine that could write `events`: one more
    than the highest core they name, and at least 1."""
    return max(map(itemgetter(1), events), default=0) + 1


# What the statistics and both renderers read of a trace.
TraceView = namedtuple("TraceView", "cores_needed spans last")


def _build_view(events):
    """The TraceView of `events`: the cores they need, their QT spans
    and their last cycle (0 if none)."""
    spans = qt_spans(events)
    return TraceView(cores_needed(events), spans,
                     spans[0].end if spans else 0)


def _read_only(self, *args, **kwargs):
    raise TypeError("a Trace is read-only")


class Trace(list):
    """The events of one run or one trace text, read-only, with their
    view kept.  Each of the statistics and the renderers reads the view,
    so one Trace pays for one view however many of them read it.  A
    view kept on a list that can change would go stale, so every list
    method that changes the list in place raises TypeError; slicing,
    `+` and `*` give plain lists.  Only the base class's own methods,
    called as list.append(trace, event), get round this, as they get
    round any subclass."""
    __slots__ = ("_view",)

    def __init__(self, events=()):
        super().__init__(events)
        self._view = None

    append = extend = insert = pop = remove = clear = sort = reverse = \
        __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only

    def __reduce__(self):
        return Trace, (list(self),)

    @property
    def view(self):
        """The TraceView of these events, computed on first use."""
        if self._view is None:
            self._view = _build_view(self)
        return self._view


def spans_on(events, cores):
    """The QT spans and the last cycle (0 if none) of `events` written
    on a `cores`-core machine; ValueError unless it has every core that
    they name.  This is where the statistics and the renderers read the
    view: a Trace's own, kept, or for any other sequence one computed
    for this call."""
    needed, spans, last = (events.view if isinstance(events, Trace)
                           else _build_view(events))
    if cores < needed:
        raise ValueError("the trace uses core %d, but cores=%d"
                         % (needed - 1, cores))
    return spans, last


def check_durations(events):
    """ValueError unless every retirement's duration (its payload, 1 if
    none) starts at cycle 0 or later: a payload of at most cycle + 1."""
    for cycle, core, _qt, kind, _addr, payload in events:
        if (payload and payload > cycle + 1
                and (kind == INSTR_RETIRED or kind == META_RETIRED)):
            raise ValueError("the %s at cycle=%d core=%d has payload=0x%08x, "
                             "a duration of %d cycles that starts before "
                             "cycle 0" % (kind, cycle, core, payload, payload))


class TraceFormatError(ValueError):
    """A trace line outside the grammar."""


# The trace text and the SVG are built in blocks of BLOCK lines or
# element strings, so a writer holds one block at a time, and a join
# holds the blocks and its result, not every line as a string of its own.
BLOCK = 1024


def format_event(ev):
    return format_trace((ev,))[:-1]


def batches(items):
    """The items of the iterable `items` in lists of BLOCK, the last one
    shorter; one pass over it."""
    it = iter(items)
    while batch := list(islice(it, BLOCK)):
        yield batch


class _Tails(dict):
    """(kind, addr, payload) -> the rest of a trace line after its QT id,
    made once per distinct key in one trace_blocks call."""

    def __missing__(self, key):
        kind, addr, payload = key
        tail = self[key] = f" kind={kind} addr=0x{addr:04x}" + (
            "\n" if payload is None else f" payload=0x{payload:08x}\n")
        return tail


def trace_blocks(events):
    """The trace text of `events`, one block of text per BLOCK lines.
    The unary + writes a bool cycle or core as 1 or 0, not True."""
    tails = _Tails()
    for batch in batches(events):
        yield "".join([f"cycle={+cycle} core={+core} qt={qt}"
                       f"{tails[kind, addr, payload]}"
                       for cycle, core, qt, kind, addr, payload in batch])


def format_trace(events):
    return "".join(trace_blocks(events))


# The trace grammar: a line as format_event writes it, with single
# spaces and no blanks around it.  Numbers are decimal without leading
# zeros, or lowercase hex of any width after a lowercase 0x; a QT id is
# printable ASCII and a kind is letters.
_DECIMAL = "0|[1-9][0-9]*"
_HEX = "0x[0-9a-f]+"
_LINE_RE = re.compile(
    r"^cycle=(%s) core=(%s) qt=([!-~]+) kind=([A-Za-z]+) addr=(%s)"
    r"(?: payload=(%s))?$" % (_DECIMAL, _DECIMAL, _HEX, _HEX),
    re.ASCII | re.MULTILINE)
_KEYS = ("cycle", "core", "qt", "kind", "addr", "payload")
# The numeric keys and their grammar, for lines outside _LINE_RE.
_NUMBER_RES = {key: re.compile(form, re.ASCII) for key, form in
               (("cycle", _DECIMAL), ("core", _DECIMAL), ("addr", _HEX),
                ("payload", _HEX))}
# Characters of trace text per findall.  The rows of a chunk are freed
# before the next is read, so a parse holds one chunk of rows, and it
# leaves about one new tracked object per event, as few garbage
# collections as a line-by-line parse would cause.
_CHUNK = 1 << 14


class _Ints(dict):
    """Number string -> int for one parse: cores, addresses and payloads
    repeat, so each distinct string is converted once and its int
    shared.  A missing payload, "", is None."""

    def __init__(self):
        super().__init__({"": None})

    def __missing__(self, key):
        value = self[key] = int(key, 0)
        return value


def _events(rows, ints):
    """Events from _LINE_RE rows; KeyError on an unknown kind."""
    kind_of = _KIND_OF
    return [_new(Event, (int(cycle), ints[core], qt, kind_of[kind],
                         ints[addr], ints[payload]))
            for cycle, core, qt, kind, addr, payload in rows]


def parse_trace(text):
    """The events of a trace text, as a Trace.  Text in which every line
    is in _LINE_RE, as format_trace writes it, is read in one compiled
    pass; otherwise each line goes through parse_event."""
    events = _parse_canonical(text)
    return Trace(_parse_lines(text) if events is None else events)


def _parse_canonical(text):
    """The events of `text` if every line is in _LINE_RE and of a known
    kind, else None."""
    events, ints = [], _Ints()
    findall, count = _LINE_RE.findall, text.count
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start + _CHUNK) + 1 or size
        rows = findall(text, start, end)
        # A row is a whole line with no line break of any kind in it, so
        # as many rows as lines means that every line matched.
        if len(rows) != count("\n", start, end) + (text[end - 1] != "\n"):
            return None
        try:
            events += _events(rows, ints)
        except KeyError:
            return None
        start = end
    return events


def _parse_lines(text):
    """The events of `text`, one parse_event per line that is not blank."""
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line:
            events.append(parse_event(line, lineno))
    return events


def parse_event(line, lineno=None):
    """One trace line as an Event.  A line in _LINE_RE is read by it;
    any other goes to _parse_tokens."""
    match = _LINE_RE.fullmatch(line)
    if match is not None and match[4] in _KIND_OF:
        row = match.groups("")
    else:
        row = _parse_tokens(line, lineno)
    return _events((row,), _Ints())[0]


def _parse_tokens(line, lineno):
    """The _LINE_RE row of a line outside it: key=value tokens in any
    order, split by any whitespace.  Every key must be known and given
    once, only payload may be left out, the kind must be known, and each
    number must be in the trace grammar; one that is but for a leading
    "-" is reported as negative."""
    pairs = [token.partition("=") for token in line.split()]
    for token, sep, _ in pairs:
        if not sep:
            raise TraceFormatError("bad token %r on line %s" % (token, lineno))
    fields = {}
    for key, _, value in pairs:
        if key not in _KEYS:
            raise TraceFormatError("unknown key %r on line %s" % (key, lineno))
        if key in fields:
            raise TraceFormatError("duplicate key %r on line %s"
                                   % (key, lineno))
        fields[key] = value
    for key in _KEYS[:5]:
        if key not in fields:
            raise TraceFormatError("missing key %r on line %s" % (key, lineno))
    kind = _KIND_OF.get(fields["kind"])
    if kind is None:
        raise TraceFormatError("unknown kind %r on line %s"
                               % (fields["kind"], lineno))
    for key, number_re in _NUMBER_RES.items():
        value = fields.get(key)
        if value is None or number_re.fullmatch(value):
            continue
        if value[:1] == "-" and number_re.fullmatch(value, 1) \
                and int(value[1:], 0):
            raise TraceFormatError("negative %s on line %s" % (key, lineno))
        raise TraceFormatError("bad %s %r on line %s" % (key, value, lineno))
    return (fields["cycle"], fields["core"], fields["qt"], kind,
            fields["addr"], fields.get("payload", ""))
