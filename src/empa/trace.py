"""Event log model, its line-delimited serialization, and the QT ids
and QT spans read from it.

One self-describing key-value record per line, append-only:

    cycle=<n> core=<n> qt=<id> kind=<k> addr=<hex> payload=<hex?>

The root QT is `1`; a QT's n-th child appends `1`..`9`, `a`..`z` for
n = 1..35 and `(n)` from then on.  The trace is the sole input to
diagrams and statistics, and both read it through `qt_spans`.
"""

from collections import namedtuple
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Event:
    cycle: int
    core: int
    qt: str
    kind: str
    addr: int
    payload: int = None


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
    trace on the core of its first event (else 0)."""
    if not events:
        return []
    last = max(ev.cycle for ev in events)
    root_core = next((ev.core for ev in events if ev.qt == ROOT_QT_ID), 0)
    spans = [QtSpan(ROOT_QT_ID, None, root_core,
                    min(ev.cycle for ev in events), last)]
    open_at = {}                # id -> index in spans
    for ev in events:
        if ev.kind == QT_CREATED:
            open_at[ev.qt] = len(spans)
            spans.append(QtSpan(ev.qt, parent_qt_id(ev.qt), ev.core,
                                ev.cycle, last))
        elif ev.kind == QT_TERMINATED and ev.qt in open_at:
            i = open_at.pop(ev.qt)
            spans[i] = spans[i]._replace(end=ev.cycle)
    return spans


def check_cores(events, cores):
    """ValueError unless a `cores`-core machine has every core that
    `events` names."""
    highest = max((ev.core for ev in events), default=-1)
    if cores <= highest:
        raise ValueError("the trace uses core %d, but cores=%d"
                         % (highest, cores))


class TraceFormatError(Exception):
    pass


def format_event(ev):
    line = "cycle=%d core=%d qt=%s kind=%s addr=0x%04x" % (
        ev.cycle, ev.core, ev.qt, ev.kind, ev.addr)
    if ev.payload is not None:
        line += " payload=0x%08x" % ev.payload
    return line


def format_trace(events):
    return "".join(format_event(ev) + "\n" for ev in events)


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
    once, only payload may be left out, and no number may be negative:
    cycles, core indices, addresses and words never are."""
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
        kind = fields["kind"]
        if kind not in KINDS:
            raise TraceFormatError("unknown kind %r on line %s" % (kind, lineno))
        ev = Event(int(fields["cycle"]), int(fields["core"]), fields["qt"],
                   kind, int(fields["addr"], 16),
                   None if payload is None else int(payload, 16))
    except KeyError:
        raise _key_error(tokens, lineno) from None
    except ValueError as exc:
        raise TraceFormatError("line %s: %s" % (lineno, exc)) from None
    if "-" in line:                 # the only way a number is negative
        for name in ("cycle", "core", "addr", "payload"):
            if (getattr(ev, name) or 0) < 0:
                raise TraceFormatError("negative %s on line %s"
                                       % (name, lineno))
    return ev


def parse_trace(text):
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line:
            events.append(parse_event(line, lineno))
    return events
