"""Processing-diagram rendering: cores across, time down.

SVG dialect: grid lines every 5th clock cycle; one vertical rectangle
per quasi-thread lifetime with creation/termination hooks; executable
instructions as a big ball at issue time with small trailing balls for
the extra cycles; meta-instruction addresses in small boxes right of the
QT; wait periods as circles on the left with the waited address;
pseudo-register traffic as direction glyphs; adder feeds as '+' marks.
The ASCII renderer is the terminal counterpart.
"""

import xml.etree.ElementTree as ET
from collections import defaultdict

from . import trace as tr

_COL_W = 96
_ROW_H = 12
_TOP = 34
_LEFT = 56
_QT_W = 36


def _encloses(outer, inner):
    return (outer.core == inner.core and outer.start <= inner.start
            and inner.end <= outer.end
            and (outer.start < inner.start or inner.end < outer.end))


def _nesting_depths(spans):
    """How many other spans on its core enclose each span.  On a core QT
    spans nest or follow one another, so one pass by start (outer first)
    with a stack of enclosing spans finds them all."""
    depths = [0] * len(spans)
    stack = []
    for i in sorted(range(len(spans)), key=lambda i: (
            spans[i].core, spans[i].start, -spans[i].end)):
        span = spans[i]
        while stack and not _encloses(stack[-1], span):
            stack.pop()
        depths[i] = len(stack)
        stack.append(span)
    return depths


def _x(core):
    return _LEFT + core * _COL_W + _COL_W // 2


def _y(cycle):
    return _TOP + cycle * _ROW_H


def infer_cores(events):
    return max((ev.core for ev in events), default=0) + 1


def render_diagram(events, cores=None, title=None):
    """Render a trace as a standalone SVG document (text)."""
    if cores is None:
        cores = infer_cores(events)
    tr.check_cores(events, cores)
    total = max((ev.cycle for ev in events), default=0)
    width = _LEFT + cores * _COL_W + 20
    height = _y(total) + 2 * _ROW_H

    svg = ET.Element("svg", xmlns="http://www.w3.org/2000/svg",
                     width=str(width), height=str(height),
                     viewBox="0 0 %d %d" % (width, height))
    ET.SubElement(svg, "rect", x="0", y="0", width=str(width),
                  height=str(height), fill="white")
    if title:
        t = ET.SubElement(svg, "text", x=str(_LEFT), y="14",
                          attrib={"class": "title", "font-size": "12"})
        t.text = title

    for core in range(cores):
        head = ET.SubElement(svg, "text", x=str(_x(core)), y=str(_TOP - 10),
                             attrib={"class": "core-label", "font-size": "11",
                                     "text-anchor": "middle"})
        head.text = "C%d" % core

    for cycle in range(0, total + 1, 5):
        y = _y(cycle)
        ET.SubElement(svg, "line", x1=str(_LEFT - 26), y1=str(y),
                      x2=str(width - 10), y2=str(y),
                      attrib={"class": "grid", "stroke": "#cccccc",
                              "stroke-width": "1"})
        label = ET.SubElement(svg, "text", x=str(_LEFT - 30), y=str(y + 3),
                              attrib={"class": "grid-label", "font-size": "9",
                                      "text-anchor": "end"})
        label.text = str(cycle)

    spans = tr.qt_spans(events)
    for span, depth in zip(spans, _nesting_depths(spans)):
        w = max(_QT_W - 8 * depth, 12)
        x0 = _x(span.core) - w // 2
        y0, y1 = _y(span.start), _y(span.end)
        attrib = {"class": "qt-rect", "data-qt": span.id,
                  "fill": "none", "stroke": "#333333"}
        if span.parent is not None:
            attrib["data-parent"] = span.parent or "-"
        ET.SubElement(svg, "rect", x=str(x0), y=str(y0), width=str(w),
                      height=str(max(y1 - y0, 2)), attrib=attrib)
        for hy in (y0, y1):    # creation/termination hooks
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
                txt = ET.SubElement(svg, "text", x=str(x), y=str(_y(start) - 6),
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
    # open waits (machine stopped while waiting)
    for (core, _qt), (begin, addr) in sorted(waits.items()):
        for cycle in range(begin, total + 1):
            ET.SubElement(svg, "circle", cx=str(_x(core) - _QT_W // 2 - 10),
                          cy=str(_y(cycle)), r="4",
                          attrib={"class": "wait-dot", "fill": "none",
                                  "stroke": "#999999"})

    return ET.tostring(svg, encoding="unicode") + "\n"


_GLYPH_PRIORITY = {tr.SUM_FEED: 6, tr.META_RETIRED: 5, tr.INSTR_RETIRED: 4,
                   tr.LATCH_WRITE: 3, tr.LATCH_READ: 3,
                   tr.WAIT_BEGIN: 2, tr.WAIT_END: 2}

_GLYPHS = {tr.SUM_FEED: "+", tr.META_RETIRED: "Q", tr.INSTR_RETIRED: "o",
           tr.LATCH_WRITE: "<", tr.LATCH_READ: ">",
           tr.WAIT_BEGIN: "w", tr.WAIT_END: "w"}


_CELLS = {kind: glyph.center(5) for kind, glyph in _GLYPHS.items()}
_WAIT, _ALIVE, _IDLE = (glyph.center(5) for glyph in "w|.")


def render_ascii(events, cores=None):
    """Character-cell counterpart of the SVG diagram.  A core's cell
    shows its highest-priority event glyph, else 'w' while it waits,
    '|' inside a QT span and '.' otherwise.  The background changes
    only at span and wait boundaries, so each row copies it and patches
    in the cells that have events."""
    if cores is None:
        cores = infer_cores(events)
    tr.check_cores(events, cores)
    total = max((ev.cycle for ev in events), default=0)

    steps = defaultdict(list)   # cycle -> [(core, span step, wait step)]

    def cover(core, start, end, span, wait):
        if start <= end:        # cycles start..end inclusive
            steps[start].append((core, span, wait))
            steps[end + 1].append((core, -span, -wait))

    for span in tr.qt_spans(events):
        cover(span.core, span.start, span.end, 1, 0)
    cells = defaultdict(dict)   # cycle -> {core: event kind shown}
    open_waits = {}
    for ev in events:
        prio = _GLYPH_PRIORITY.get(ev.kind)
        if prio is None:
            continue
        row = cells[ev.cycle]
        shown = row.get(ev.core)
        if shown is None or _GLYPH_PRIORITY[shown] < prio:
            row[ev.core] = ev.kind
        if ev.kind == tr.WAIT_BEGIN:
            open_waits[(ev.core, ev.qt)] = ev.cycle
        elif ev.kind == tr.WAIT_END:
            begin = open_waits.pop((ev.core, ev.qt), None)
            if begin is not None:
                cover(ev.core, begin, ev.cycle - 1, 0, 1)
    for (core, _qt), begin in open_waits.items():
        cover(core, begin, total, 0, 1)

    header = "cycle " + "".join(("C%d" % c).center(5) for c in range(cores))
    lines = [header]
    in_span, waiting = [0] * cores, [0] * cores
    background = [_IDLE] * cores
    for cycle in range(0, total + 1):
        for core, span, wait in steps.get(cycle, ()):
            in_span[core] += span
            waiting[core] += wait
            background[core] = (_WAIT if waiting[core] else
                                _ALIVE if in_span[core] else _IDLE)
        row = background
        marks = cells.get(cycle)
        if marks:
            row = background[:]
            for core, kind in marks.items():
                row[core] = _CELLS[kind]
        label = "%5d " % cycle if cycle % 5 == 0 else "      "
        lines.append(label + "".join(row))
    return "\n".join(lines) + "\n"
