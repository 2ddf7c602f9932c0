"""Processing-diagram rendering: cores across, time down.

SVG dialect: grid lines every 5th clock cycle; one vertical rectangle
per quasi-thread lifetime with creation/termination hooks; executable
instructions as a big ball at issue time with small trailing balls for
the extra cycles; meta-instruction addresses in small boxes right of the
QT; wait periods as circles on the left with the waited address;
pseudo-register traffic as direction glyphs; adder feeds as '+' marks.
The ASCII renderer is the terminal counterpart.
"""

from collections import defaultdict
from itertools import chain, islice

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


# The document is ElementTree's serialization of the elements, written
# directly: attributes in the order ElementTree kept them, " />" on empty
# elements, the same escaping (see _attr and _text).  Elements drawn often
# are built from pieces made once per document or core, and their ys.


def _text(value):
    """`value` as XML character data."""
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _attr(value):
    """`value` inside a double-quoted attribute.  QT ids are the only
    free text, and a parsed trace's ids hold no whitespace."""
    return _text(value).replace('"', "&quot;")


def svg_blocks(events, cores):
    """The SVG document (text) of a trace written on a `cores`-core
    machine, in blocks of about tr.BLOCK element strings.  A trace that
    names a core beyond `cores` raises ValueError here, before the first
    block is made."""
    spans, total = tr.spans_on(events, cores)
    return _svg_blocks(events, cores, spans, total)


def render_diagram(events, cores):
    """The SVG document of svg_blocks, as one string."""
    return "".join(svg_blocks(events, cores))


def _svg_blocks(events, cores, spans, total):
    """The blocks of svg_blocks.  Elements are added to `out`, which is
    yielded as one string and emptied whenever it holds tr.BLOCK of
    them: after each batch of grid lines, wait dots and events, and
    after each QT span."""
    width = _LEFT + cores * _COL_W + 20
    height = _y(total) + 2 * _ROW_H

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}"><rect x="0" '
           f'y="0" width="{width}" height="{height}" fill="white" />']
    add = out.append
    for core in range(cores):
        add(f'<text class="core-label" font-size="11" text-anchor="middle" '
            f'x="{_x(core)}" y="{_TOP - 10}">C{core}</text>')
    line = (f'<line class="grid" stroke="#cccccc" stroke-width="1" '
            f'x1="{_LEFT - 26}" y1="')
    x2 = f'" x2="{width - 10}" y2="'
    label = (f'" /><text class="grid-label" font-size="9" text-anchor="end" '
             f'x="{_LEFT - 30}" y="')
    grid = zip(range(0, total + 1, 5), range(_TOP, _y(total) + 1, 5 * _ROW_H))
    for lines in tr.batches(grid):
        out += [f'{line}{y}{x2}{y}{label}{y + 3}">{cycle}</text>'
                for cycle, y in lines]
        if len(out) >= tr.BLOCK:
            yield _take(out)

    for span, depth in zip(spans, _nesting_depths(spans)):
        w = max(_QT_W - 8 * depth, 12)
        x0 = _x(span.core) - w // 2
        y0, y1 = _y(span.start), _y(span.end)
        parent = ("" if span.parent is None else
                  f' data-parent="{_attr(span.parent or "-")}"')
        hook = f'<line class="qt-hook" stroke="#333333" x1="{x0 - 4}" y1="'
        hook_x2 = f'" x2="{x0 + w + 4}" y2="'
        label = f">{_text(span.id)}</text>" if span.id else " />"
        add(f'<rect class="qt-rect" data-qt="{_attr(span.id)}" fill="none" '
            f'stroke="#333333"{parent} x="{x0}" y="{y0}" width="{w}" '
            f'height="{max(y1 - y0, 2)}" />{hook}{y0}{hook_x2}{y0}" />{hook}'
            f'{y1}{hook_x2}{y1}" /><text class="qt-label" font-size="9" '
            f'x="{x0 + 2}" y="{y0 - 2}"{label}')
        if len(out) >= tr.BLOCK:
            yield _take(out)

    x_mid = _LEFT + _COL_W // 2      # _x(core) is x_mid + core * _COL_W
    half = _QT_W // 2
    balls = {}          # (core, addr) -> the pieces of a ball around its ys
    waits = {}
    for batch in tr.batches(events):
        for cycle, core, qt, kind, addr, payload in batch:
            x = x_mid + core * _COL_W
            if kind == tr.INSTR_RETIRED:
                duration = payload or 1
                y = _TOP + (cycle - duration + 1) * _ROW_H
                ball = balls.get((core, addr))
                if ball is None:
                    ball = balls[core, addr] = (
                        f'<circle class="instr-ball" fill="#e8e8ff" '
                        f'stroke="#333333" cx="{x}" cy="',
                        f'" r="5" /><text class="instr-addr" font-size="8" '
                        f'text-anchor="middle" x="{x}" y="',
                        f'">{addr:x}</text>')
                start, mid, end = ball
                add(f"{start}{y}{mid}{y - 6}{end}")
                if duration > 1:
                    for ty in range(y + _ROW_H, y + duration * _ROW_H, _ROW_H):
                        add(f'<circle class="instr-ball-tail" fill="#888888" '
                            f'cx="{x}" cy="{ty}" r="2" />')
            elif kind == tr.META_RETIRED:
                y = _TOP + (cycle - (payload or 1) + 1) * _ROW_H
                add(f'<rect class="meta-box" fill="#ffffff" stroke="#555555" '
                    f'x="{x + half + 4}" y="{y - 5}" width="30" height="10" />'
                    f'<text class="meta-addr" font-size="8" x="{x + half + 6}" '
                    f'y="{y + 3}">{addr:x}</text>')
            elif kind == tr.WAIT_BEGIN:
                waits[(core, qt)] = (cycle, addr)
            elif kind == tr.WAIT_END:
                begin = waits.pop((core, qt), None)
                if begin is not None:
                    yield from _wait_dots(out, x - half - 10, begin[0], cycle)
                    add(f'<text class="wait-addr" font-size="8" '
                        f'text-anchor="end" x="{x - half - 18}" '
                        f'y="{_y(begin[0]) + 3}">{begin[1]:x}</text>')
            elif kind == tr.LATCH_READ:
                add(f'<text class="esv-read" font-size="9" x="{x + half - 2}" '
                    f'y="{_y(cycle) + 3}">&gt;</text>')
            elif kind == tr.LATCH_WRITE:
                add(f'<text class="esv-write" font-size="9" x="{x + half - 2}" '
                    f'y="{_y(cycle) + 3}">&lt;</text>')
            elif kind == tr.SUM_FEED:
                add(f'<text class="sumfeed" font-size="10" font-weight="bold" '
                    f'x="{x - 4}" y="{_y(cycle) + 3}">+</text>')
        if len(out) >= tr.BLOCK:
            yield _take(out)
    # open waits (machine stopped while waiting)
    for (core, _qt), (begin, addr) in sorted(waits.items()):
        yield from _wait_dots(out, _x(core) - half - 10, begin, total + 1)

    add("</svg>\n")
    yield _take(out)


def _wait_dots(out, x, begin, end):
    """Add to `out` a wait dot at `x` for each cycle begin..end-1,
    yielding `out` as one string and emptying it after each batch that
    fills it to tr.BLOCK elements."""
    dot = f'<circle class="wait-dot" fill="none" stroke="#999999" cx="{x}" cy="'
    for ys in tr.batches(range(_y(begin), _y(end), _ROW_H)):
        out += [f'{dot}{y}" r="4" />' for y in ys]
        if len(out) >= tr.BLOCK:
            yield _take(out)


def _take(out):
    """The strings of `out` as one string; `out` is emptied."""
    text = "".join(out)
    out.clear()
    return text


_GLYPH_PRIORITY = {tr.SUM_FEED: 6, tr.META_RETIRED: 5, tr.INSTR_RETIRED: 4,
                   tr.LATCH_WRITE: 3, tr.LATCH_READ: 3,
                   tr.WAIT_BEGIN: 2, tr.WAIT_END: 2}

_GLYPHS = {tr.SUM_FEED: "+", tr.META_RETIRED: "Q", tr.INSTR_RETIRED: "o",
           tr.LATCH_WRITE: "<", tr.LATCH_READ: ">",
           tr.WAIT_BEGIN: "w", tr.WAIT_END: "w"}


_CELLS = {kind: glyph.center(5) for kind, glyph in _GLYPHS.items()}
_WAIT, _ALIVE, _IDLE = (glyph.center(5) for glyph in "w|.")
_BLANK = " " * 6                # the label of a row whose cycle is unnumbered


def _fives(rows):
    """The whole runs of five rows of `rows`, as tuples."""
    return zip(*[islice(rows, i, None, 5) for i in range(5)])


def render_ascii(events, cores):
    """Character-cell counterpart of the SVG diagram.  A core's cell
    shows its highest-priority event glyph, else 'w' while it waits,
    '|' inside a QT span and '.' otherwise.

    The work grows with the background runs, the marked cells and the
    distinct rows, not with cycles times cores.  The background of all
    cores changes only at span and wait boundaries, so it is joined into
    one row (blank label included) per run and the run's cycles all
    share that string.  Each marked cell's glyph is resolved first; a
    marked cycle then gets its row by patching one cell at a time, and
    each distinct (row, core, glyph) patch is made once.  The text is
    one join of pieces of five rows each, with every fifth row's number
    put in front of a shared string, not in a copy of its row."""
    spans, total = tr.spans_on(events, cores)

    steps = defaultdict(list)   # cycle -> [(core, span step, wait step)]

    def cover(core, start, end, span, wait):
        if start <= end:        # cycles start..end inclusive
            steps[start].append((core, span, wait))
            steps[end + 1].append((core, -span, -wait))

    for span in spans:
        cover(span.core, span.start, span.end, 1, 0)
    marks = {}                  # cycle * cores + core -> event kind shown
    open_waits = {}
    for cycle, core, qt, kind, _addr, _payload in events:
        prio = _GLYPH_PRIORITY.get(kind)
        if prio is None:
            continue
        cell = cycle * cores + core
        shown = marks.get(cell)
        if shown is None or _GLYPH_PRIORITY[shown] < prio:
            marks[cell] = kind
        if kind == tr.WAIT_BEGIN:
            open_waits[(core, qt)] = cycle
        elif kind == tr.WAIT_END:
            begin = open_waits.pop((core, qt), None)
            if begin is not None:
                cover(core, begin, cycle - 1, 0, 1)
    for (core, _qt), begin in open_waits.items():
        cover(core, begin, total, 0, 1)

    rows = [None] * (total + 1)
    in_span, waiting = [0] * cores, [0] * cores
    background = [_IDLE] * cores
    start, row = 0, _BLANK + "".join(background)
    for cycle in sorted(steps):
        if cycle > total:       # ends after the last cycle
            break
        rows[start:cycle] = [row] * (cycle - start)
        for core, span, wait in steps[cycle]:
            in_span[core] += span
            waiting[core] += wait
            background[core] = (_WAIT if waiting[core] else
                                _ALIVE if in_span[core] else _IDLE)
        start, row = cycle, _BLANK + "".join(background)
    rows[start:] = [row] * (total + 1 - start)

    patched = {}                # (row, core, kind) -> row with the glyph
    for cell, kind in marks.items():
        cycle, core = cell // cores, cell % cores
        row = rows[cycle]
        key = (row, core, kind)
        new = patched.get(key)
        if new is None:
            at = len(_BLANK) + 5 * core
            new = patched[key] = row[:at] + _CELLS[kind] + row[at + 5:]
        rows[cycle] = new
    del marks, patched          # freed before the text is joined

    # Five rows a piece: a newline and the first row's five-wide number,
    # then the rest of the five rows as one body.  Bodies repeat, so each
    # distinct one is joined once, under the tuple of its five shared
    # rows, and shared.  The zip stops at the last whole piece; a shorter
    # one after it is added on its own.
    bodies = {}
    pieces = ["cycle " + "".join(f"C{c}".center(5) for c in range(cores))]
    pieces += chain.from_iterable(zip(
        (f"\n{cycle:5d}" for cycle in range(0, total + 1, 5)),
        (bodies.get(five) or bodies.setdefault(five, "\n".join(five)[5:])
         for five in _fives(rows))))
    cycle = (len(pieces) - 1) // 2 * 5
    if cycle <= total:
        pieces += (f"\n{cycle:5d}", "\n".join(rows[cycle:])[5:])
    pieces.append("\n")        # the text ends with a newline
    del rows, bodies            # freed before the text is joined
    return "".join(pieces)
