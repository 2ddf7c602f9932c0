"""Trace serialization round-trip and format checks, and the contract
of the read-only Trace and its view."""

import copy
import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

from empa import trace as tr
from empa.fixtures import FIXTURES, sumup_mode_source
from helpers import (QT_IDS, assemble_run, event_lists, fixture_trace,
                     pinned_traces)


def test_format_event_with_and_without_payload():
    ev = tr.Event(3, 1, "11", tr.INSTR_RETIRED, 0x10, 5)
    assert tr.format_event(ev) == \
        "cycle=3 core=1 qt=11 kind=InstrRetired addr=0x0010 payload=0x00000005"
    ev2 = tr.Event(4, 0, "1", tr.WAIT_END, 0x20)
    assert "payload" not in tr.format_event(ev2)


def test_trace_blocks_hold_block_lines_each():
    """trace_blocks gives the text of format_trace in blocks of BLOCK
    lines, the last one shorter, and no block for no events."""
    (_, events), = pinned_traces()["serial_wide"]
    blocks = list(tr.trace_blocks(events))
    full, rest = divmod(len(events), tr.BLOCK)
    assert [block.count("\n") for block in blocks] == \
        [tr.BLOCK] * full + [rest] * bool(rest)
    assert "".join(blocks) == tr.format_trace(events)
    assert list(tr.trace_blocks([])) == [] and tr.format_trace([]) == ""


# The formatter of an earlier release, one %-template per line: the
# oracle for the text that trace_blocks builds from its pieces.
_TEMPLATE = "cycle=%d core=%d qt=%s kind=%s addr=0x%04x\n"
_TEMPLATE_PAYLOAD = _TEMPLATE[:-1] + " payload=0x%08x\n"


def _template_trace(events):
    return "".join(_TEMPLATE % ev[:5] if ev[5] is None
                   else _TEMPLATE_PAYLOAD % ev for ev in events)


# Few values each, so that lines share their (kind, addr, payload); a
# bool cycle or core is written as 0 or 1, and a bool address or payload
# shares its line end with the int it equals.
_WIDE_EVENTS = st.lists(st.builds(
    tr.Event,
    cycle=st.one_of(st.sampled_from((0, 1, 2, 2**31 - 1, 2**31, 2**40)),
                    st.booleans()),
    core=st.one_of(st.integers(0, 64), st.booleans()),
    qt=st.sampled_from(QT_IDS + ("1(36)", "1(36)(100)", "1z(37)")),
    kind=st.sampled_from(sorted(tr.KINDS)),
    addr=st.one_of(st.sampled_from((0, 1, 0xffff, 0x10000, 2**32 - 1)),
                   st.booleans()),
    payload=st.one_of(st.sampled_from((None, 0, 1, 0xffffffff, 2**32)),
                      st.booleans())), max_size=60)


@settings(max_examples=300)
@given(_WIDE_EVENTS)
def test_trace_text_matches_the_template_formatter(events):
    text = _template_trace(events)
    assert tr.format_trace(events) == text
    assert "".join(tr.trace_blocks(events)) == text
    if events:
        assert tr.format_event(events[0]) == _template_trace(events[:1])[:-1]


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
    ("cycle=1 core=0 qt=1 kind=InstrRetired addr=0XA", "bad addr '0XA'"),
    ("cycle=1 core=0 qt=1 kind=InstrRetired addr=0xA", "bad addr '0xA'"),
    ("cycle=1 core=0 qt=1 kind=InstrRetired addr=a", "bad addr 'a'"),
    ("cycle=1 core=0 qt=1 kind=LatchRead addr=0x4 payload=0X1",
     "bad payload '0X1'"),
    ("cycle=007 core=0 qt=1 kind=InstrRetired addr=0x0", "bad cycle '007'"),
    ("cycle=1 core=01 qt=1 kind=InstrRetired addr=0x0", "bad core '01'"),
    # a sign on a zero is not a negative number
    ("cycle=-0 core=0 qt=1 kind=InstrRetired addr=0x0", "bad cycle '-0'"),
    ("cycle=1 core=0 qt=1 kind=InstrRetired addr=-0x0", "bad addr '-0x0'"),
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


def _count_slow_entries(monkeypatch):
    """Count the calls of parse_event and of its per-token slow path."""
    calls = {"parse_event": 0, "_parse_tokens": 0}
    for name in calls:
        real = getattr(tr, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(tr, name, counted)
    return calls


# Rewrites of a canonical trace that keep every event, and the path its
# lines then take: the compiled pass, parse_event on each line, or the
# per-token path on each line.
_REWRITES = {
    "reordered keys": (lambda text: "\n".join(
        " ".join(reversed(line.split(" "))) for line in text.splitlines()),
        "tokens"),
    "tab separators": (lambda text: text.replace(" ", "\t"), "tokens"),
    "CRLF endings": (lambda text: text.replace("\n", "\r\n"), "lines"),
    "blank lines": (lambda text: "\n  \n" + text.replace("\n", "\n\n"),
                    "lines"),
    "trailing spaces": (lambda text: text.replace("\n", "  \n"), "lines"),
    "no final newline": (lambda text: text[:-1], "compiled"),
}


@pytest.mark.parametrize("rewrite", sorted(_REWRITES))
def test_fallback_reads_rewritten_traces(rewrite, monkeypatch):
    events = fixture_trace("adaptive", 5)
    change, path = _REWRITES[rewrite]
    text = change(tr.format_trace(events))
    calls = _count_slow_entries(monkeypatch)
    assert tr.parse_trace(text) == events
    assert calls == {
        "parse_event": 0 if path == "compiled" else len(events),
        "_parse_tokens": len(events) if path == "tokens" else 0}


def test_fallback_reads_non_ascii_qt_ids(monkeypatch):
    events = [ev._replace(qt=ev.qt + "\u00e9") if ev.qt != "1" else ev
              for ev in fixture_trace("adaptive", 5)]
    calls = _count_slow_entries(monkeypatch)
    assert tr.parse_trace(tr.format_trace(events)) == events
    assert calls["_parse_tokens"] == sum(ev.qt != "1" for ev in events) > 0


@given(event_lists())
def test_compiled_pass_and_per_line_path_agree(case):
    _, events = case
    text = tr.format_trace(events)
    fast = tr._parse_canonical(text)
    # every generated QT id but "" is in the grammar
    assert (fast is None) == any(ev.qt == "" for ev in events)
    assert tr._parse_lines(text) == events
    assert fast is None or fast == events


def test_canonical_traces_take_the_compiled_pass(monkeypatch):
    """What format_trace writes never goes line by line: the fixtures on
    1, 2, 5 and 64 cores and the benchmark's seed-0 programs."""
    traces = [fixture_trace(name, cores) for name in sorted(FIXTURES)
              for cores in (1, 2, 5, 64)]
    traces += [events for name, runs in pinned_traces().items()
               if not name.startswith("fixture:") for _, events in runs]
    calls = _count_slow_entries(monkeypatch)
    for events in traces:
        assert tr.parse_trace(tr.format_trace(events)) == events
    assert len(traces) == 20 + 242
    assert calls == {"parse_event": 0, "_parse_tokens": 0}


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


def test_a_trace_needs_one_core_more_than_the_highest_it_names():
    events = [tr.Event(1, 0, "1", tr.INSTR_RETIRED, 0),
              tr.Event(2, 3, "11", tr.QT_CREATED, 0)]
    assert tr.cores_needed(events) == 4
    assert tr.cores_needed([]) == 1
    assert tr.spans_on(events, 4) == (tr.qt_spans(events), 2)
    assert tr.spans_on([], 1) == ([], 0)
    with pytest.raises(ValueError, match="the trace uses core 3, but cores=3"):
        tr.spans_on(events, 3)


def test_a_malformed_line_is_a_bad_value():
    with pytest.raises(ValueError, match="unknown kind 'Nap' on line 1"):
        tr.parse_trace("cycle=1 core=0 qt=1 kind=Nap addr=0x0\n")


# ---- the read-only Trace and its view ----------------------------------------

def _iadd(trace):
    trace += trace[:1]


def _imul(trace):
    trace *= 2


def _set_item(trace):
    trace[0] = trace[1]


def _set_slice(trace):
    trace[:1] = []


def _del_item(trace):
    del trace[0]


def _del_slice(trace):
    del trace[:]


# Every in-place change that the list type offers.
_MUTATIONS = {
    "append": lambda trace: trace.append(trace[0]),
    "extend": lambda trace: trace.extend(trace[:1]),
    "insert": lambda trace: trace.insert(0, trace[0]),
    "pop": lambda trace: trace.pop(),
    "remove": lambda trace: trace.remove(trace[0]),
    "clear": lambda trace: trace.clear(),
    "sort": lambda trace: trace.sort(key=lambda ev: -ev.cycle, reverse=True),
    "reverse": lambda trace: trace.reverse(),
    "setitem": _set_item,
    "setitem slice": _set_slice,
    "delitem": _del_item,
    "delitem slice": _del_slice,
    "iadd": _iadd,
    "imul": _imul,
}


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
def test_a_trace_is_read_only(mutation):
    events = fixture_trace("adaptive", 5)
    trace = tr.Trace(events)
    view = trace.view
    with pytest.raises(TypeError, match="a Trace is read-only"):
        _MUTATIONS[mutation](trace)
    assert trace == events and len(trace) == len(events)
    assert trace.view is view


def test_a_trace_is_a_list_of_its_events():
    events = fixture_trace("adaptive", 5)
    trace = tr.Trace(events)
    assert isinstance(trace, list)
    assert trace == events and events == trace
    assert trace is not events
    for other in (trace[1:4], trace[:], trace + [], [] + trace, trace * 2,
                  trace.copy()):
        assert type(other) is list
    assert trace[1:4] == events[1:4] and trace + events == events * 2
    assert tr.Trace() == [] and tr.Trace().view == (1, [], 0)


@pytest.mark.parametrize("clone", [
    lambda trace: pickle.loads(pickle.dumps(trace)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_a_trace_copies_to_an_equal_trace(clone):
    trace = tr.parse_trace(tr.format_trace(fixture_trace("dynpar", 8)))
    view = trace.view
    twin = clone(trace)
    assert type(twin) is tr.Trace and twin is not trace
    assert twin == trace and twin.view == view


def test_producers_return_traces_and_the_machine_keeps_its_list():
    _, machine, events = assemble_run(sumup_mode_source(), cores=5)
    assert type(events) is tr.Trace and type(machine.events) is list
    assert events == machine.events and events is not machine.events
    parsed = tr.parse_trace(tr.format_trace(events))
    assert type(parsed) is tr.Trace and parsed == events
    assert type(tr.parse_trace(tr.format_trace(events).replace(" ", "\t"))) \
        is tr.Trace


@given(event_lists())
def test_the_kept_view_is_the_view_of_the_plain_list(case):
    cores, events = case
    trace = tr.Trace(events)
    spans = tr.qt_spans(events)
    last = max((ev.cycle for ev in events), default=0)
    assert trace.view == (tr.cores_needed(events), spans, last)
    assert trace.view is trace.view
    for machine_cores in range(1, cores + 2):
        try:
            want = tr.spans_on(events, machine_cores)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                tr.spans_on(trace, machine_cores)
            assert str(got.value) == str(exc)
            assert machine_cores < trace.view.cores_needed
        else:
            assert tr.spans_on(trace, machine_cores) == want == (spans, last)
