"""Property tests of the QT-span model against the definitions it
replaced, and a count of the passes its consumers make over a trace:
each on its own over a plain list, and all three over one Trace, whose
view they share.

qt_spans is checked against its earlier four-pass form on arbitrary
events.  The second oracle keeps the earlier per-renderer rebuilds:
busy cycles and peak concurrency from per-cycle sets, and nesting depth
from an all-pairs enclosure count.  Its generated traces have the
shapes the engine produces on one core: the root spanning the run, QTs
that follow one another (possibly sharing a cycle), fallback brackets
nested inside them, and QTs still open when the trace ends.
"""

import pytest
from hypothesis import given, settings, strategies as st

from empa import diagram, stats, trace as tr
from empa.fixtures import FIXTURES
from helpers import (CountingList, CountingTrace, count_calls, event_lists,
                     fixture_trace, make_machine)


# ---- oracle: qt_spans as four passes -----------------------------------------

def _four_pass_qt_spans(events):
    """qt_spans as it was first written: the last cycle, the root's core
    and the first cycle each in a pass of their own, then the spans.
    The root starts at cycle 1, or at 0 if an event is there."""
    if not events:
        return []
    last = max(ev.cycle for ev in events)
    root_core = next((ev.core for ev in events if ev.qt == tr.ROOT_QT_ID), 0)
    spans = [tr.QtSpan(tr.ROOT_QT_ID, None, root_core,
                       min(min(ev.cycle for ev in events), 1), last)]
    open_at = {}
    for ev in events:
        if ev.kind == tr.QT_CREATED:
            open_at[ev.qt] = len(spans)
            spans.append(tr.QtSpan(ev.qt, tr.parent_qt_id(ev.qt), ev.core,
                                   ev.cycle, last))
        elif ev.kind == tr.QT_TERMINATED and ev.qt in open_at:
            i = open_at.pop(ev.qt)
            spans[i] = spans[i]._replace(end=ev.cycle)
    return spans


@settings(max_examples=400, deadline=None)
@given(event_lists())
def test_one_pass_spans_match_the_four_pass_oracle(case):
    """Arbitrary events: any cycle order, a root event anywhere or not at
    all, creates of one id repeated, terms with no create."""
    _, events = case
    assert tr.qt_spans(events) == _four_pass_qt_spans(events)


@pytest.mark.parametrize("consume, bound", [
    (tr.qt_spans, 1),
    (lambda events: stats.compute_stats(events, 5), 2),
    (lambda events: diagram.render_ascii(events, 5), 3),
    (lambda events: diagram.render_diagram(events, 5), 3),
], ids=["qt_spans", "compute_stats", "render_ascii", "render_diagram"])
def test_consumers_read_the_events_in_few_passes(consume, bound):
    events = CountingList(fixture_trace("adaptive", 5))
    consume(events)
    assert events.scans <= bound, events.scans


def _trace_from(source, cores):
    """The Trace that `source` ("parse" or "run") gives for the adaptive
    fixture on `cores` cores."""
    if source == "parse":
        return tr.parse_trace(tr.format_trace(fixture_trace("adaptive", cores)))
    _, machine = make_machine(FIXTURES["adaptive"](), cores=cores)
    return machine.run_to_halt()[0]


@pytest.mark.parametrize("cores", (1, 5))
@pytest.mark.parametrize("source", ("parse", "run"))
def test_stats_and_both_renderers_share_one_spans_pass(source, cores,
                                                       monkeypatch):
    """Statistics, ASCII and SVG of one Trace: one view in all (a
    cores_needed pass and a qt_spans pass) and one pass per renderer,
    4 scans of the events where computing the view in each made 8."""
    monkeypatch.setattr(tr, "Trace", CountingTrace)
    events = _trace_from(source, cores)
    assert type(events) is CountingTrace
    calls = count_calls(monkeypatch, "qt_spans")
    stats.compute_stats(events, cores)
    diagram.render_ascii(events, cores)
    diagram.render_diagram(events, cores)
    assert calls == ["qt_spans"]
    assert events.scans <= 4, events.scans


# ---- oracle: the definitions before qt_spans ------------------------------

def _oracle_spans(events, total):
    """(id, core, start, end, nested) per QT, root first."""
    spans, open_by_id = [], {}
    root_core = 0
    for ev in events:
        if ev.qt == "1":
            root_core = ev.core
    first = min((ev.cycle for ev in events), default=0)
    spans.append(["1", root_core, min(first, 1), total])
    for ev in events:
        if ev.kind == tr.QT_CREATED:
            span = [ev.qt, ev.core, ev.cycle, None]
            spans.append(span)
            open_by_id[ev.qt] = span
        elif ev.kind == tr.QT_TERMINATED and ev.qt in open_by_id:
            open_by_id.pop(ev.qt)[3] = ev.cycle
    for span in spans:
        if span[3] is None:
            span[3] = total
    out = []
    for qt_id, core, start, end in spans:
        nested = sum(1 for _, c, s, e in spans
                     if c == core and s <= start and end <= e
                     and (s < start or end < e))
        out.append((qt_id, core, start, end, nested))
    return out


def _oracle_busy(events, cores, total):
    """(per-core busy cycles, max concurrent busy cores)."""
    spans = {}          # qt id -> [core, start, end]
    for ev in events:
        if ev.kind == tr.QT_CREATED:
            spans[ev.qt] = [ev.core, ev.cycle, None]
        elif ev.kind == tr.QT_TERMINATED and ev.qt in spans:
            spans[ev.qt][2] = ev.cycle
    root_cores = {ev.core for ev in events if ev.qt == "1"}
    if events and "1" not in spans:
        first = min(min(ev.cycle for ev in events), 1)
        spans["1"] = [min(root_cores) if root_cores else 0, first, None]
    cycles = [set() for _ in range(cores)]
    for core, start, end in spans.values():
        cycles[core].update(range(start, (total if end is None else end) + 1))
    concurrent = {}
    for marked in cycles:
        for c in marked:
            concurrent[c] = concurrent.get(c, 0) + 1
    return [len(c) for c in cycles], max(concurrent.values(), default=0)


# ---- generated traces --------------------------------------------------------

@st.composite
def _traces(draw):
    cores = draw(st.integers(1, 4))
    root_core = draw(st.integers(0, cores - 1))
    events = [tr.Event(1, root_core, "1", tr.INSTR_RETIRED, 0, 1)]
    ids = iter(tr.child_qt_id("1", n) for n in range(1, 10 ** 6))
    closed_tails = []   # cores whose last top-level QT has terminated

    def chain(core, lo, hi, depth, may_stay_open):
        """QTs on `core` one after another inside cycles lo..hi, each
        holding a nested chain (a fallback bracket) of its own.  Returns
        whether the last of them stays open."""
        t, stays_open = lo, False
        count = draw(st.integers(0, 3 if depth == 0 else 2))
        for k in range(count):
            start = t + draw(st.integers(0, 3))
            end = start + draw(st.integers(1, 8))
            if end > hi:
                break
            qt_id = next(ids)
            events.append(tr.Event(start, core, qt_id, tr.QT_CREATED, 0))
            last = k == count - 1
            stays_open = may_stay_open and last and draw(st.booleans())
            if depth < 2 and end - start >= 2:
                # a nested QT may share its first cycle; an open one may
                # not, as two open QTs from one cycle would be one span
                chain(core, start + stays_open, end - 1, depth + 1,
                      stays_open)
            if not stays_open:
                events.append(tr.Event(end, core, qt_id,
                                       tr.QT_TERMINATED, 0))
            t = end             # the next QT may start in this cycle
        return stays_open

    horizon = draw(st.integers(2, 40))
    for core in range(cores):
        lo = 2 if core == root_core else 1   # brackets start inside the root
        if not chain(core, lo, horizon, 0, True):
            closed_tails.append(core)
    events.append(tr.Event(draw(st.integers(1, horizon)), root_core, "1",
                           tr.INSTR_RETIRED, 0, 1))
    if closed_tails and draw(st.booleans()):    # created in the last cycle
        last = max(ev.cycle for ev in events)
        events.append(tr.Event(last, draw(st.sampled_from(closed_tails)),
                               next(ids), tr.QT_CREATED, 0))
    # any order within a cycle: a QT's creation and end never share one
    return cores, sorted(draw(st.permutations(events)),
                         key=lambda ev: ev.cycle)


@settings(max_examples=400, deadline=None)
@given(_traces())
def test_spans_depths_and_busy_match_the_oracle(trace):
    cores, events = trace
    total = max(ev.cycle for ev in events)
    expect = _oracle_spans(events, total)
    spans = tr.qt_spans(events)
    assert [(s.id, s.core, s.start, s.end) for s in spans] == \
        [e[:4] for e in expect]
    assert diagram._nesting_depths(spans) == [e[4] for e in expect]
    busy, peak = _oracle_busy(events, cores, total)
    got = stats.compute_stats(events, cores)
    assert got.per_core_busy == busy
    assert got.max_concurrent == peak
