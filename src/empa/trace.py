"""Event log model, its line-delimited serialization, and the QT ids
and QT spans read from it.

One self-describing key-value record per line, append-only:

    cycle=<n> core=<n> qt=<id> kind=<k> addr=<hex> payload=<hex?>

The root QT is `1`; a QT's n-th child appends `1`..`9`, `a`..`z` for
n = 1..35 and `(n)` from then on.  The trace is the sole input to
diagrams and statistics, and both read it through `qt_spans`.
"""

from collections import namedtuple
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
    alive at the end lasts to the last cycle; the root spans the whole
    trace on the core of its first event (else 0).  One pass over
    `events`, a sequence in any cycle order."""
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
    spans = [QtSpan(ROOT_QT_ID, None, root_core or 0, first, last)]
    spans += [QtSpan(qt, parent_qt_id(qt), core, start,
                     last if end is None else end)
              for qt, core, start, end in created]
    return spans


def check_cores(events, cores):
    """ValueError unless a `cores`-core machine has every core that
    `events` names."""
    highest = max(map(itemgetter(1), events), default=-1)
    if cores <= highest:
        raise ValueError("the trace uses core %d, but cores=%d"
                         % (highest, cores))


class TraceFormatError(Exception):
    pass


_LINE = "cycle=%d core=%d qt=%s kind=%s addr=0x%04x\n"
_LINE_PAYLOAD = _LINE[:-1] + " payload=0x%08x\n"


def format_event(ev):
    return format_trace((ev,))[:-1]


def format_trace(events):
    line, line_payload = _LINE, _LINE_PAYLOAD
    return "".join([line % ev[:5] if ev[5] is None else line_payload % ev
                    for ev in events])


_KEYS = ("cycle", "core", "qt", "kind", "addr", "payload")


def _key_error(tokens, lineno):
    """What is wrong with the keys of a line that failed the key checks."""
    seen = set()
    for token in tokens:
        key = token.partition("=")[0]
        if key not in _KEYS:
            return TraceFormatError("unknown key %r on line %s" % (key, lineno))
        if key in seen:
            return TraceFormatError("duplicate key %r on line %s" % (key, lineno))
        seen.add(key)
    missing = next(key for key in _KEYS if key not in seen)
    return TraceFormatError("missing key %r on line %s" % (missing, lineno))


def parse_event(line, lineno=None):
    """One trace line as an Event.  Every key must be known and appear
    once, only payload may be left out, and each number must be written
    as format_event writes it: ASCII digits, no sign, no underscores."""
    tokens = line.split()
    fields = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep:
            raise TraceFormatError("bad token %r on line %s" % (token, lineno))
        fields[key] = value
    payload = fields.get("payload")
    # Five tokens, six with a payload: a line with a key that is unknown
    # or given twice then lacks a required one, which a lookup catches.
    if len(tokens) != (5 if payload is None else 6):
        raise _key_error(tokens, lineno)
    try:
        kind = _KIND_OF.get(fields["kind"])
        if kind is None:
            raise TraceFormatError("unknown kind %r on line %s"
                                   % (fields["kind"], lineno))
        ev = _new(Event, (int(fields["cycle"]), int(fields["core"]),
                          fields["qt"], kind, int(fields["addr"], 16),
                          None if payload is None else int(payload, 16)))
    except KeyError:
        raise _key_error(tokens, lineno) from None
    except ValueError as exc:
        raise TraceFormatError("line %s: %s" % (lineno, exc)) from None
    # int() also takes a sign, underscores and non-ASCII digits; a line
    # with none of those characters holds only numbers format_event writes.
    if "-" in line or "+" in line or "_" in line or not line.isascii():
        _check_numbers(fields, ev, lineno)
    return ev


# Each numeric key and its index in Event.
_NUMBERS = (("cycle", 0), ("core", 1), ("addr", 4), ("payload", 5))


def _check_numbers(fields, ev, lineno):
    for name, i in _NUMBERS:
        value = fields.get(name)
        if value is None:
            continue
        if "+" in value or "_" in value or not value.isascii():
            raise TraceFormatError("bad %s %r on line %s"
                                   % (name, value, lineno))
        if ev[i] < 0:
            raise TraceFormatError("negative %s on line %s" % (name, lineno))


def parse_trace(text):
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line:
            events.append(parse_event(line, lineno))
    return events
