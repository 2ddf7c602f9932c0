"""Diagram contract: well-formed SVG, rectangles/hooks/marks, grid
spacing, ASCII determinism."""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import given

from empa import diagram, fixtures, stats, trace as tr
from empa.fixtures import dynpar_source, for_mode_source, sumup_mode_source
from helpers import assemble_run, fixture_trace, wide_event_lists

SVG_NS = "{http://www.w3.org/2000/svg}"


def _render(source, cores):
    _, machine, events = assemble_run(source, cores=cores)
    return machine, events, diagram.render_diagram(events, cores)


def _by_class(root, cls):
    return [el for el in root.iter() if el.get("class") == cls]


def test_empty_trace_grid_only():
    svg = diagram.render_diagram([], cores=4)
    root = ET.fromstring(svg)
    assert _by_class(root, "grid")
    assert not _by_class(root, "sumfeed")


def test_svg_well_formed_and_child_rects():
    machine, events, svg = _render(sumup_mode_source(), 5)
    root = ET.fromstring(svg)          # parse = well-formedness check
    rects = _by_class(root, "qt-rect")
    children = [r for r in rects if r.get("data-parent")]
    assert len(children) == 4
    assert len(rects) == 5             # root + 4 children
    feeds = _by_class(root, "sumfeed")
    assert len(feeds) == 4
    assert all(el.text == "+" for el in feeds)


def test_plus_marks_inside_child_rects():
    machine, events, svg = _render(sumup_mode_source(), 5)
    root = ET.fromstring(svg)
    rects = {r.get("data-qt"): r for r in _by_class(root, "qt-rect")}
    feeds = _by_class(root, "sumfeed")
    feed_events = [ev for ev in events if ev.kind == tr.SUM_FEED]
    for el, ev in zip(feeds, feed_events):
        rect = rects[ev.qt]
        x, y = float(el.get("x")), float(el.get("y"))
        rx, ry = float(rect.get("x")), float(rect.get("y"))
        assert rx <= x <= rx + float(rect.get("width"))
        assert ry <= y <= ry + float(rect.get("height"))


def test_grid_lines_every_fifth_cycle():
    machine, events, svg = _render(sumup_mode_source(), 5)
    root = ET.fromstring(svg)
    grid = _by_class(root, "grid")
    total = max(ev.cycle for ev in events)
    assert len(grid) == total // 5 + 1
    ys = [float(el.get("y1")) for el in grid]
    steps = {round(b - a) for a, b in zip(ys, ys[1:])}
    assert len(steps) == 1             # evenly spaced


def test_hooks_meta_boxes_wait_dots_present():
    machine, events, svg = _render(sumup_mode_source(), 5)
    root = ET.fromstring(svg)
    assert _by_class(root, "qt-hook")
    assert _by_class(root, "meta-box")
    assert _by_class(root, "wait-dot")      # the QWait -1 period
    assert _by_class(root, "esv-read")
    assert _by_class(root, "esv-write")


def test_qt_labels_use_parent_prefix_scheme():
    machine, events, svg = _render(sumup_mode_source(), 5)
    root = ET.fromstring(svg)
    labels = {el.text for el in _by_class(root, "qt-label")}
    assert labels == {"1", "11", "12", "13", "14"}


def test_data_parent_names_an_emitted_qt_past_35_children():
    machine, events, svg = _render(for_mode_source(list(range(1, 41))), 4)
    rects = _by_class(ET.fromstring(svg), "qt-rect")
    ids = {r.get("data-qt") for r in rects}
    assert "1(40)" in ids
    parents = {r.get("data-qt"): r.get("data-parent") for r in rects}
    assert parents["1(36)"] == "1"
    assert all(p in ids for p in parents.values() if p is not None)


def test_dynpar_rect_count_same_on_4_and_8_cores():
    _, ev8, svg8 = _render(dynpar_source(), 8)
    _, ev4, svg4 = _render(dynpar_source(), 4)
    r8 = _by_class(ET.fromstring(svg8), "qt-rect")
    r4 = _by_class(ET.fromstring(svg4), "qt-rect")
    assert len(r8) == len(r4)
    cols8 = {int(ev.core) for ev in ev8 if ev.kind == tr.QT_CREATED}
    cols4 = {int(ev.core) for ev in ev4 if ev.kind == tr.QT_CREATED}
    assert max(cols4) <= 3
    assert max(cols8) <= 6


def test_ascii_deterministic_and_shaped():
    _, machine, events = assemble_run(sumup_mode_source(), cores=5)
    a = diagram.render_ascii(events, 5)
    b = diagram.render_ascii(events, 5)
    assert a == b
    lines = a.splitlines()
    assert lines[0].startswith("cycle")
    assert "C4" in lines[0]
    assert len(lines) == machine.clock + 2    # header + cycles 0..clock
    assert "+" in a


def test_ascii_empty_trace_header_only():
    text = diagram.render_ascii([], cores=3)
    lines = text.splitlines()
    assert lines[0].startswith("cycle")
    assert len(lines) == 2


def test_single_qt_run_one_column():
    source = "irmovl $3,%eax\nhalt\n"
    _, _, events = assemble_run(source, cores=2)
    text = diagram.render_ascii(events, 2)
    for line in text.splitlines()[1:]:
        assert line.strip("cycle 0123456789")  # column glyphs exist
    svg = diagram.render_diagram(events, 2)
    assert len(_by_class(ET.fromstring(svg), "qt-rect")) == 1


@pytest.mark.parametrize("render", [diagram.render_ascii,
                                    diagram.render_diagram,
                                    diagram.svg_blocks])
def test_too_few_cores_rejected(render):
    """Every renderer raises when it is called; svg_blocks does before
    its first block is asked for, so a writer can call it before it
    opens its file."""
    _, _, events = assemble_run(dynpar_source(), cores=8)
    with pytest.raises(ValueError, match="core 6"):
        render(events, 2)
    render(events, 7)


def test_the_root_is_alive_from_cycle_1():
    """A first instruction of three cycles: the root's span covers its
    first two cycles too, in the stats and in both diagrams."""
    _, machine, events = assemble_run("mrmovl 0(%eax),%ecx\nhalt\n", cores=1)
    assert min(ev.cycle for ev in events) == 3
    st = stats.compute_stats(events, 1)
    assert st.per_core_busy == [st.total_cycles] == [machine.clock] == [4]
    rows = diagram.render_ascii(events, 1).splitlines()[1:]
    assert [row.strip() for row in rows[1:3]] == ["|", "|"]
    root = ET.fromstring(diagram.render_diagram(events, 1))
    rect, = _by_class(root, "qt-rect")
    ball = _by_class(root, "instr-ball")[0]
    assert rect.get("y") == ball.get("cy") == str(diagram._y(1))


def _fresh_kinds(events):
    """`events` with each kind an equal string made at run time, not the
    trace constant."""
    fresh = [tr.Event(*ev[:3], "".join([ev.kind[:2], ev.kind[2:]]), *ev[4:])
             for ev in events]
    assert all(new.kind is not ev.kind for new, ev in zip(fresh, events))
    return fresh


def _assert_kinds_compared_by_value(events, cores):
    fresh = _fresh_kinds(events)
    assert fresh == events
    assert diagram.render_ascii(fresh, cores) == \
        diagram.render_ascii(events, cores)
    assert diagram.render_diagram(fresh, cores) == \
        diagram.render_diagram(events, cores)


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_renderers_read_a_kind_by_value_not_identity(name):
    """A hand-built event list may hold kinds that equal the trace
    constants without being them; both renderers draw it the same."""
    _assert_kinds_compared_by_value(fixture_trace(name, 5), 5)


@given(wide_event_lists())
def test_generated_kinds_are_read_by_value(case):
    cores, events = case
    _assert_kinds_compared_by_value(events, cores)
