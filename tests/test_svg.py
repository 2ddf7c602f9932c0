"""render_diagram against the ElementTree renderer it replaced.

The oracle below is the earlier renderer: it builds an ElementTree of
every SVG element and serializes it.  The renderer under test writes the
same document as text, element by element; the two must
agree byte for byte on engine traces, on a run with `(n)` QT ids, on
traces cut off while cores wait, on arbitrary event lists and on parsed
traces whose QT ids hold XML specials.
"""

import xml.etree.ElementTree as ET

from hypothesis import given, settings

from empa import diagram, fixtures, trace as tr
from helpers import (assemble_run, event_lists, fixture_trace, pinned_traces,
                     rendered_sha256, traced_memory, wide_event_lists)

CORE_COUNTS = (1, 2, 4, 5, 8, 64)

# sha256 of the document, over every seed-0 program of each benchmark
# workload and over each fixture on 64 cores, as the renderer of the
# previous release wrote it.
PINNED = {
    "for_stream": "eeb032531aaacf9cca42f397b7e2ef5added5bb532a797f64dfe5e58d4494350",
    "serial_wide": "80abfcac08d8978a401977472d056ae70303989ec2629b01dd2a2f41aa084089",
    "walkthrough_batch": "76d659ee66554f0db15d1c9c691b88500fb660db6e1a0554357305f3eb5bedba",
    "fixture:adaptive": "ffb04aaa30663141c560714eb77eb615a5298424c07412a5de6e145601554b35",
    "fixture:dynpar": "43d985653417522c49e00ebb1dccbf3b2ad2d12fab4251c3b90113db8390b596",
    "fixture:for_mode": "de9f8a2b2d2f0bb8375a1c658f164e6f758110d0d58c9c996b9bcc4da8c1be3d",
    "fixture:no_mode": "10d39c6d1b525130b0b4c4613312ce485586da1f4495d5e6ed7cfbd467403fd0",
    "fixture:sumup_mode": "245057754e0987be472beb3ba5a14a149301f9c4b5ef9bed75a1bce4ae0a2e7c",
}

_QT_W = diagram._QT_W
_x, _y = diagram._x, diagram._y


def _oracle_svg(events, cores):
    total = max((ev.cycle for ev in events), default=0)
    width = diagram._LEFT + cores * diagram._COL_W + 20
    height = _y(total) + 2 * diagram._ROW_H

    svg = ET.Element("svg", xmlns="http://www.w3.org/2000/svg",
                     width=str(width), height=str(height),
                     viewBox="0 0 %d %d" % (width, height))
    ET.SubElement(svg, "rect", x="0", y="0", width=str(width),
                  height=str(height), fill="white")

    for core in range(cores):
        head = ET.SubElement(svg, "text", x=str(_x(core)),
                             y=str(diagram._TOP - 10),
                             attrib={"class": "core-label", "font-size": "11",
                                     "text-anchor": "middle"})
        head.text = "C%d" % core

    for cycle in range(0, total + 1, 5):
        y = _y(cycle)
        ET.SubElement(svg, "line", x1=str(diagram._LEFT - 26), y1=str(y),
                      x2=str(width - 10), y2=str(y),
                      attrib={"class": "grid", "stroke": "#cccccc",
                              "stroke-width": "1"})
        label = ET.SubElement(svg, "text", x=str(diagram._LEFT - 30),
                              y=str(y + 3),
                              attrib={"class": "grid-label", "font-size": "9",
                                      "text-anchor": "end"})
        label.text = str(cycle)

    spans = tr.qt_spans(events)
    for span, depth in zip(spans, diagram._nesting_depths(spans)):
        w = max(_QT_W - 8 * depth, 12)
        x0 = _x(span.core) - w // 2
        y0, y1 = _y(span.start), _y(span.end)
        attrib = {"class": "qt-rect", "data-qt": span.id,
                  "fill": "none", "stroke": "#333333"}
        if span.parent is not None:
            attrib["data-parent"] = span.parent or "-"
        ET.SubElement(svg, "rect", x=str(x0), y=str(y0), width=str(w),
                      height=str(max(y1 - y0, 2)), attrib=attrib)
        for hy in (y0, y1):
            ET.SubElement(svg, "line", x1=str(x0 - 4), y1=str(hy),
                          x2=str(x0 + w + 4), y2=str(hy),
                          attrib={"class": "qt-hook", "stroke": "#333333"})
        label = ET.SubElement(svg, "text", x=str(x0 + 2), y=str(y0 - 2),
                              attrib={"class": "qt-label", "font-size": "9"})
        label.text = span.id

    waits = {}
    for ev in events:
        x = _x(ev.core)
        y = _y(ev.cycle)
        if ev.kind == tr.INSTR_RETIRED or ev.kind == tr.META_RETIRED:
            duration = ev.payload or 1
            start = ev.cycle - duration + 1
            if ev.kind == tr.META_RETIRED:
                ET.SubElement(svg, "rect", x=str(x + _QT_W // 2 + 4),
                              y=str(_y(start) - 5), width="30", height="10",
                              attrib={"class": "meta-box", "fill": "#ffffff",
                                      "stroke": "#555555"})
                txt = ET.SubElement(svg, "text", x=str(x + _QT_W // 2 + 6),
                                    y=str(_y(start) + 3),
                                    attrib={"class": "meta-addr",
                                            "font-size": "8"})
                txt.text = "%x" % ev.addr
            else:
                ET.SubElement(svg, "circle", cx=str(x), cy=str(_y(start)),
                              r="5", attrib={"class": "instr-ball",
                                             "fill": "#e8e8ff",
                                             "stroke": "#333333"})
                txt = ET.SubElement(svg, "text", x=str(x),
                                    y=str(_y(start) - 6),
                                    attrib={"class": "instr-addr",
                                            "font-size": "8",
                                            "text-anchor": "middle"})
                txt.text = "%x" % ev.addr
                for extra in range(start + 1, ev.cycle + 1):
                    ET.SubElement(svg, "circle", cx=str(x), cy=str(_y(extra)),
                                  r="2", attrib={"class": "instr-ball-tail",
                                                 "fill": "#888888"})
        elif ev.kind == tr.WAIT_BEGIN:
            waits[(ev.core, ev.qt)] = (ev.cycle, ev.addr)
        elif ev.kind == tr.WAIT_END:
            begin = waits.pop((ev.core, ev.qt), None)
            if begin is not None:
                for cycle in range(begin[0], ev.cycle):
                    ET.SubElement(svg, "circle",
                                  cx=str(x - _QT_W // 2 - 10),
                                  cy=str(_y(cycle)), r="4",
                                  attrib={"class": "wait-dot", "fill": "none",
                                          "stroke": "#999999"})
                txt = ET.SubElement(svg, "text", x=str(x - _QT_W // 2 - 18),
                                    y=str(_y(begin[0]) + 3),
                                    attrib={"class": "wait-addr",
                                            "font-size": "8",
                                            "text-anchor": "end"})
                txt.text = "%x" % begin[1]
        elif ev.kind == tr.LATCH_READ:
            glyph = ET.SubElement(svg, "text", x=str(x + _QT_W // 2 - 2),
                                  y=str(y + 3), attrib={"class": "esv-read",
                                                        "font-size": "9"})
            glyph.text = ">"
        elif ev.kind == tr.LATCH_WRITE:
            glyph = ET.SubElement(svg, "text", x=str(x + _QT_W // 2 - 2),
                                  y=str(y + 3), attrib={"class": "esv-write",
                                                        "font-size": "9"})
            glyph.text = "<"
        elif ev.kind == tr.SUM_FEED:
            mark = ET.SubElement(svg, "text", x=str(x - 4), y=str(y + 3),
                                 attrib={"class": "sumfeed",
                                         "font-size": "10",
                                         "font-weight": "bold"})
            mark.text = "+"
    for (core, _qt), (begin, addr) in sorted(waits.items()):
        for cycle in range(begin, total + 1):
            ET.SubElement(svg, "circle", cx=str(_x(core) - _QT_W // 2 - 10),
                          cy=str(_y(cycle)), r="4",
                          attrib={"class": "wait-dot", "fill": "none",
                                  "stroke": "#999999"})

    return ET.tostring(svg, encoding="unicode") + "\n"


def test_bench_and_fixture_traces_match_their_pinned_hashes():
    assert rendered_sha256(diagram.render_diagram) == PINNED


def test_memory_peak_is_below_2_1_times_the_document():
    """svg_blocks joins its element strings a block at a time, so
    render_diagram holds the blocks and the document, not every element
    string of a long run of one busy core in 64 beside the document
    (2.0 times the document; 2.3 when one list held every element)."""
    (cores, events), = pinned_traces()["serial_wide"]
    svg, _, peak = traced_memory(lambda: diagram.render_diagram(events,
                                                                 cores))
    assert peak < 2.1 * len(svg), (peak, len(svg))


def test_blocks_end_at_elements_and_join_to_the_document():
    """A block ends with an element, and a long run's document comes in
    at least one block per tr.BLOCK events, so a writer holds a small
    part of it at a time."""
    (cores, events), = pinned_traces()["serial_wide"]
    blocks = list(diagram.svg_blocks(events, cores))
    assert "".join(blocks) == diagram.render_diagram(events, cores)
    assert all(block.endswith(">") for block in blocks[:-1])
    assert blocks[-1].endswith("</svg>\n")
    assert len(blocks) >= len(events) // tr.BLOCK
    assert max(map(len, blocks)) < 0.1 * sum(map(len, blocks))


def test_fixtures_match_the_oracle():
    for name in sorted(fixtures.FIXTURES):
        for cores in CORE_COUNTS:
            events = fixture_trace(name, cores)
            assert diagram.render_diagram(events, cores) == \
                _oracle_svg(events, cores), (name, cores)


def test_many_children_match_the_oracle():
    _, _, events = assemble_run(fixtures.for_mode_source(list(range(1, 41))),
                                cores=4)
    assert any(ev.qt.endswith(")") for ev in events)      # "(n)" ids
    assert diagram.render_diagram(events, 4) == _oracle_svg(events, 4)


def test_traces_cut_while_waiting_match_the_oracle():
    cuts = 0
    for name in sorted(fixtures.FIXTURES):
        events = fixture_trace(name, 8)
        for begin in (ev for ev in events if ev.kind == tr.WAIT_BEGIN):
            cut = [ev for ev in events if ev.cycle <= begin.cycle]
            assert diagram.render_diagram(cut, 8) == _oracle_svg(cut, 8)
            cuts += 1
    assert cuts


@settings(max_examples=400, deadline=None)
@given(event_lists())
def test_event_lists_match_the_oracle(trace):
    cores, events = trace
    assert diagram.render_diagram(events, cores) == _oracle_svg(events, cores)


@settings(max_examples=100, deadline=None)
@given(wide_event_lists())
def test_wide_event_lists_match_the_oracle(trace):
    cores, events = trace
    assert diagram.render_diagram(events, cores) == _oracle_svg(events, cores)


def test_xml_specials_in_parsed_qt_ids_are_escaped():
    qt = '1&<>"'
    text = "".join(line + "\n" for line in (
        "cycle=0 core=0 qt=1 kind=InstrRetired addr=0x0000 payload=0x00000001",
        "cycle=1 core=1 qt=%s kind=QtCreated addr=0x0004" % qt,
        "cycle=2 core=2 qt=%s2 kind=QtCreated addr=0x0008" % qt,
        "cycle=4 core=2 qt=%s2 kind=QtTerminated addr=0x000c" % qt,
        "cycle=5 core=1 qt=%s kind=QtTerminated addr=0x0010" % qt,
    ))
    events = tr.parse_trace(text)
    svg = diagram.render_diagram(events, 3)
    assert svg == _oracle_svg(events, 3)
    rects = {el.get("data-qt"): el for el in ET.fromstring(svg).iter()
             if el.get("class") == "qt-rect"}
    assert rects[qt + "2"].get("data-parent") == qt
    assert rects[qt].get("data-parent") == '1&<>'
    labels = [el.text for el in ET.fromstring(svg).iter()
              if el.get("class") == "qt-label"]
    assert labels == ["1", qt, qt + "2"]
