"""Trace serialization round-trip and format checks."""

import re

import pytest
from hypothesis import given

from empa import trace as tr
from empa.fixtures import FIXTURES, sumup_mode_source
from helpers import assemble_run, event_lists, fixture_trace


def test_format_event_with_and_without_payload():
    ev = tr.Event(3, 1, "11", tr.INSTR_RETIRED, 0x10, 5)
    assert tr.format_event(ev) == \
        "cycle=3 core=1 qt=11 kind=InstrRetired addr=0x0010 payload=0x00000005"
    ev2 = tr.Event(4, 0, "1", tr.WAIT_END, 0x20)
    assert "payload" not in tr.format_event(ev2)


def test_roundtrip_real_trace():
    _, _, events = assemble_run(sumup_mode_source(), cores=5)
    text = tr.format_trace(events)
    parsed = tr.parse_trace(text)
    assert parsed == events


def test_parse_rejects_garbage():
    with pytest.raises(tr.TraceFormatError):
        tr.parse_event("cycle=1 core=x qt=1 kind=InstrRetired addr=0x0")
    with pytest.raises(tr.TraceFormatError):
        tr.parse_event("cycle=1 core=0 qt=1 kind=Nonsense addr=0x0")
    with pytest.raises(tr.TraceFormatError):
        tr.parse_event("not a record")


_GOOD = "cycle=1 core=0 qt=1 kind=InstrRetired addr=0x0000 payload=0x00000001"


@pytest.mark.parametrize("line, complaint", [
    ("cycle=1 cycle=7 core=0 qt=1 kind=InstrRetired addr=0x0000",
     "duplicate key 'cycle'"),
    ("cycle=1 core=0 qt=1 kind=InstrRetired addr=0x0 payload=0x1 payload=0x2",
     "duplicate key 'payload'"),
    ("cycle=1 core=0 qt=1 kind=InstrRetired addr=0x0000 paylod=0x5",
     "unknown key 'paylod'"),
    ("cycel=1 core=0 qt=1 kind=InstrRetired addr=0x0000",
     "unknown key 'cycel'"),
    ("core=0 qt=1 kind=InstrRetired addr=0x0000", "missing key 'cycle'"),
    ("cycle=-3 core=0 qt=1 kind=InstrRetired addr=0x0000", "negative cycle"),
    ("cycle=3 core=-1 qt=1 kind=InstrRetired addr=0x0000", "negative core"),
    ("cycle=3 core=0 qt=1 kind=InstrRetired addr=-0x4", "negative addr"),
    ("cycle=3 core=0 qt=1 kind=LatchRead addr=0x4 payload=-0x1",
     "negative payload"),
])
def test_parse_rejects_a_malformed_line_naming_it(line, complaint):
    with pytest.raises(tr.TraceFormatError,
                       match=re.escape(complaint + " on line 2")):
        tr.parse_trace(_GOOD + "\n" + line + "\n")


@pytest.mark.parametrize("line, complaint", [
    ("cycle=1_0 core=0 qt=1 kind=InstrRetired addr=0x0000", "bad cycle '1_0'"),
    ("cycle=1 core=+0 qt=1 kind=InstrRetired addr=0x0000", "bad core '+0'"),
    ("cycle=1 core=0 qt=1 kind=InstrRetired addr=0x0_4", "bad addr '0x0_4'"),
    ("cycle=1 core=0 qt=1 kind=LatchRead addr=0x4 payload=+0x1",
     "bad payload '+0x1'"),
    ("cycle=\u0663 core=0 qt=1 kind=InstrRetired addr=0x0000",
     "bad cycle '\u0663'"),
    ("cycle=1 core=0 qt=1 kind=InstrRetired addr=0x\uff14",
     "bad addr '0x\uff14'"),
])
def test_parse_rejects_numbers_format_event_never_writes(line, complaint):
    with pytest.raises(tr.TraceFormatError,
                       match=re.escape(complaint + " on line 2")):
        tr.parse_trace(_GOOD + "\n" + line + "\n")


@pytest.mark.parametrize("line, event", [
    ("cycle=1 core=0 qt=1 kind=InstrRetired addr=0x0",
     (1, 0, "1", tr.INSTR_RETIRED, 0, None)),
    ("cycle=2 core=1 qt=11 kind=LatchRead addr=0x4 payload=0x1",
     (2, 1, "11", tr.LATCH_READ, 4, 1)),
    # a QT id may hold the characters that send a line to the slow path
    ("cycle=3 core=0 qt=1_+-\u00e9 kind=WaitEnd addr=0x0010",
     (3, 0, "1_+-\u00e9", tr.WAIT_END, 16, None)),
])
def test_parse_accepts_short_hex_and_any_qt_id(line, event):
    assert tr.parse_event(line) == tr.Event(*event)


def test_event_contract():
    ev = tr.Event(3, 1, "11", tr.INSTR_RETIRED, 0x10, 5)
    assert tr.Event._fields == ("cycle", "core", "qt", "kind", "addr",
                                "payload")
    assert ev == tr.Event(cycle=3, core=1, qt="11", kind=tr.INSTR_RETIRED,
                          addr=0x10, payload=5)
    assert tr.Event(4, 0, "1", tr.WAIT_END, 0x20).payload is None
    assert (ev.cycle, ev.core, ev.qt, ev.kind, ev.addr, ev.payload) == \
        (3, 1, "11", tr.INSTR_RETIRED, 0x10, 5)
    with pytest.raises(AttributeError):
        ev.cycle = 4
    twin = tr.Event(3, 1, "11", tr.INSTR_RETIRED, 0x10, 5)
    assert twin == ev and hash(twin) == hash(ev)
    assert ev == (3, 1, "11", tr.INSTR_RETIRED, 0x10, 5)
    assert ev != tr.Event(3, 1, "11", tr.INSTR_RETIRED, 0x10)
    assert repr(ev) == ("Event(cycle=3, core=1, qt='11', kind='InstrRetired',"
                        " addr=16, payload=5)")


def test_engine_and_parser_build_events():
    _, machine, events = assemble_run(sumup_mode_source(), cores=5)
    assert type(machine.events[0]) is tr.Event
    assert all(type(ev) is tr.Event for ev in events)
    assert type(tr.parse_event(_GOOD)) is tr.Event


@pytest.mark.parametrize("cores", (1, 2, 4, 5, 8, 64))
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_roundtrip_fixture_traces(name, cores):
    events = fixture_trace(name, cores)
    assert tr.parse_trace(tr.format_trace(events)) == events


@given(event_lists())
def test_roundtrip_generated_traces(case):
    _, events = case
    assert tr.parse_trace(tr.format_trace(events)) == events


def test_kind_vocabulary_closed():
    assert tr.IDLE in tr.KINDS
    assert len(tr.KINDS) == 10


@pytest.mark.parametrize("parent, seq, child", [
    ("1", 1, "11"),
    ("1", 35, "1z"),
    ("1", 36, "1(36)"),
    ("1(36)", 1, "1(36)1"),
    ("11", 36, "11(36)"),
])
def test_child_and_parent_ids_round_trip(parent, seq, child):
    assert tr.child_qt_id(parent, seq) == child
    assert tr.parent_qt_id(child) == parent


def test_root_has_no_parent():
    assert tr.parent_qt_id(tr.ROOT_QT_ID) is None


def test_qt_spans_root_first_and_open_spans_end_at_last_cycle():
    events = [
        tr.Event(1, 0, "1", tr.INSTR_RETIRED, 0x0, 1),
        tr.Event(2, 1, "11", tr.QT_CREATED, 0x6),
        tr.Event(3, 2, "12", tr.QT_CREATED, 0x6),
        tr.Event(5, 1, "11", tr.QT_TERMINATED, 0x20),
        tr.Event(9, 0, "1", tr.INSTR_RETIRED, 0x30, 1),
    ]
    assert tr.qt_spans(events) == [
        tr.QtSpan("1", None, 0, 1, 9),
        tr.QtSpan("11", "1", 1, 2, 5),
        tr.QtSpan("12", "1", 2, 3, 9),
    ]
    assert tr.qt_spans([]) == []
