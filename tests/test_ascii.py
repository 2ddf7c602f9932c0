"""render_ascii against the per-cell renderer it replaced.

The oracle below is the earlier renderer: a cores x cycles grid of QT
coverage, a set of waiting cells and one glyph decision per cell.  The
renderer under test patches event cells into a per-core background that
changes only at span and wait boundaries; the two must agree byte for
byte on engine traces, on traces cut off while cores wait, and on
arbitrary event lists.
"""

from hypothesis import given, settings

from empa import diagram, fixtures, trace as tr
from helpers import (event_lists, fixture_trace, pinned_traces,
                     rendered_sha256, traced_memory, wide_event_lists)

CORE_COUNTS = (1, 2, 4, 5, 8, 64)

# sha256 of the text, over every seed-0 program of each benchmark
# workload and over each fixture on 64 cores, as the per-cycle renderer
# of the previous release wrote it.
PINNED = {
    "for_stream": "2f9c1ff0f5fecb81b57755e5d9100a44d0d69f7dfcf8614be177fc826e4d6848",
    "serial_wide": "7a1af3ac5412139d3207a615a7c72953156eb4355971c3b279a5e203c6195100",
    "walkthrough_batch": "77540d98cc9064c0d3ce5bf1a4e268a366299b7335f399b921858e62ef609ea6",
    "fixture:adaptive": "ad7dd86589ed166cd94393c5cf5d663dbbdc2244d148d15a30b731b0807c5998",
    "fixture:dynpar": "804978e161ef90681e9703666cede0c068c5c197ecc11a70fbd7fe754904abdc",
    "fixture:for_mode": "4e23a605574640ccc5ebfface29615a697ef260242277dc0fbcc76a62e2b235f",
    "fixture:no_mode": "4c901695e07e4ed84d098c4b4cf5058e245c0a9be3313f65b1f8b9d3e9a9f86d",
    "fixture:sumup_mode": "ad7dd86589ed166cd94393c5cf5d663dbbdc2244d148d15a30b731b0807c5998",
}


def _oracle_ascii(events, cores):
    total = max((ev.cycle for ev in events), default=0)
    alive = [[False] * (total + 1) for _ in range(cores)]
    for span in tr.qt_spans(events):
        for cycle in range(span.start, span.end + 1):
            alive[span.core][cycle] = True
    cells = {}
    for ev in events:
        prio = diagram._GLYPH_PRIORITY.get(ev.kind)
        if prio is None:
            continue
        key = (ev.cycle, ev.core)
        if key not in cells or diagram._GLYPH_PRIORITY[cells[key]] < prio:
            cells[key] = ev.kind
    waiting = set()
    open_waits = {}
    for ev in events:
        if ev.kind == tr.WAIT_BEGIN:
            open_waits[(ev.core, ev.qt)] = ev.cycle
        elif ev.kind == tr.WAIT_END:
            begin = open_waits.pop((ev.core, ev.qt), None)
            if begin is not None:
                for cycle in range(begin, ev.cycle):
                    waiting.add((cycle, ev.core))
    for (core, _qt), begin in open_waits.items():
        for cycle in range(begin, total + 1):
            waiting.add((cycle, core))

    header = "cycle " + "".join(("C%d" % c).center(5) for c in range(cores))
    lines = [header]
    for cycle in range(0, total + 1):
        label = "%5d " % cycle if cycle % 5 == 0 else "      "
        row = []
        for core in range(cores):
            kind = cells.get((cycle, core))
            if kind is not None:
                glyph = diagram._GLYPHS[kind]
            elif (cycle, core) in waiting:
                glyph = "w"
            elif alive[core][cycle]:
                glyph = "|"
            else:
                glyph = "."
            row.append(glyph.center(5))
        lines.append(label + "".join(row))
    return "\n".join(lines) + "\n"


def test_bench_and_fixture_traces_match_their_pinned_hashes():
    assert rendered_sha256(diagram.render_ascii) == PINNED


def test_memory_peak_is_below_1_2_times_the_text():
    """The rows share their strings, and a numbered row is its number
    in front of a shared string, so the text itself is most
    of what render_ascii allocates on a long run of one busy core in 64
    (1.05 times the text; 1.27 when each numbered row was a string of
    its own)."""
    (cores, events), = pinned_traces()["serial_wide"]
    text, _, peak = traced_memory(lambda: diagram.render_ascii(events, cores))
    assert peak < 1.2 * len(text), (peak, len(text))


def test_a_late_event_on_one_core_peaks_below_2_5_times_the_text():
    """A one-line trace at cycle 10**6 on one core: a million rows, all
    but one alike.  The pieces hold a number and a shared body per five
    rows, about 1.2 times the 12.2 MB text; the peak is the text plus
    the pieces (2.2 times; 2.7 when each numbered row was a string of
    its own)."""
    events = tr.parse_trace("cycle=1000000 core=0 qt=1 kind=InstrRetired "
                            "addr=0x0000\n")
    text, _, peak = traced_memory(lambda: diagram.render_ascii(events, 1))
    assert peak < 2.5 * len(text), (peak, len(text))


def test_fixtures_match_the_oracle():
    for name in sorted(fixtures.FIXTURES):
        for cores in CORE_COUNTS:
            events = fixture_trace(name, cores)
            assert diagram.render_ascii(events, cores) == \
                _oracle_ascii(events, cores), (name, cores)


def test_traces_cut_while_waiting_match_the_oracle():
    cuts = 0
    for name in sorted(fixtures.FIXTURES):
        events = fixture_trace(name, 8)
        for begin in (ev for ev in events if ev.kind == tr.WAIT_BEGIN):
            cut = [ev for ev in events if ev.cycle <= begin.cycle]
            assert diagram.render_ascii(cut, 8) == _oracle_ascii(cut, 8)
            cuts += 1
    assert cuts


@settings(max_examples=400, deadline=None)
@given(event_lists())
def test_event_lists_match_the_oracle(trace):
    cores, events = trace
    assert diagram.render_ascii(events, cores) == _oracle_ascii(events, cores)


@settings(max_examples=100, deadline=None)
@given(wide_event_lists())
def test_wide_event_lists_match_the_oracle(trace):
    cores, events = trace
    assert diagram.render_ascii(events, cores) == _oracle_ascii(events, cores)
