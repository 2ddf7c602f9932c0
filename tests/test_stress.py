"""Randomized structural stress: generated quasi-thread trees must run
to completion with balanced lifecycles, hold every pool invariant, and
replay identically.  Plus assembler robustness on hostile input."""

import random

from hypothesis import given, settings, strategies as st

from empa import assembler, engine, trace as tr
from helpers import assemble_run, word


def test_three_level_esv_forwarding_chain():
    """A child forwards data received from its own child: grandchild
    links through %esv into the child's FromChild; the child's explicit
    esv-to-esv copy stages it in ForParent; the child's own %esv link
    carries it on up."""
    source = """
        QCreate CT,%esv
        QCreate GT,%esv
        irmovl $0x5A5A,%edx
        rrmovl %edx,%esv     # grandchild: value into ForParent
GT:     QTerm                # cloning: child's FromChild receives it
        QWait -1
        rrmovl %esv,%esv     # child: FromChild -> ForParent (forward)
CT:     QTerm                # cloning: root's FromChild receives it
        QWait -1
        rrmovl %esv,%ebx     # root: read FromChild
        rmmovl %ebx,Out
        halt
        .pos 0x100
Out:    .long 0
"""
    image, machine, _ = assemble_run(source, cores=3)
    assert word(machine, image, "Out") == 0x5A5A


def test_qpwait_specific_sister_target():
    source = """
SC:     QCreate S1,%eno
        nop
        nop
        nop
        nop
        nop
S1:     QTerm
        QCreate S2,%eno
        QPWait SC
S2:     QTerm
        QWait -1
        halt
"""
    image, _, events = assemble_run(source, cores=4)
    begins = [ev for ev in events if ev.kind == tr.WAIT_BEGIN and ev.qt == "12"]
    assert len(begins) == 1
    assert begins[0].payload == image.symbols["SC"]
    ends = [ev for ev in events if ev.kind == tr.WAIT_END and ev.qt == "12"]
    s1_term = [ev for ev in events
               if ev.kind == tr.QT_TERMINATED and ev.qt == "11"]
    assert ends[0].cycle == s1_term[0].cycle + 1


def test_wait_on_already_terminated_qt_passes_silently():
    source = """
CL:     QCreate T,%eno
        nop
T:      QTerm
        nop
        nop
        nop
        nop
        QWait CL
        halt
"""
    _, machine, events = assemble_run(source, cores=2)
    assert machine.halted
    assert not machine.warnings
    assert not [ev for ev in events if ev.kind == tr.WAIT_BEGIN]


# ---- random quasi-thread trees -----------------------------------------------


def _emit_block(rng, lines, label_counter, budget):
    """A QT body: a few plain instructions and nested children drawn from
    a shared budget, with an optional closing wait."""
    for _ in range(rng.randrange(0, 3)):
        lines.append("        irmovl $%d,%%e%s" %
                     (rng.randrange(100), rng.choice(["ax", "bx", "cx", "dx"])))
    children = 0
    while budget[0] > 0 and rng.random() < 0.5:
        budget[0] -= 1
        label = "L%d" % label_counter[0]
        label_counter[0] += 1
        lines.append("        QCreate %sT,%%eno" % label)
        _emit_block(rng, lines, label_counter, budget)
        lines.append("%sT:    QTerm" % label)
        children += 1
    if children and rng.random() < 0.7:
        lines.append("        QWait -1")


def _random_tree_program(rng, cores):
    """Nested tree whose total QT count fits the pool, so creation never
    needs to stall."""
    lines = []
    counter = [0]
    budget = [cores - 1]
    _emit_block(rng, lines, counter, budget)
    lines.append("        QWait -1")
    lines.append("        halt")
    return "\n".join(lines) + "\n", counter[0]


def _wide_program(rng, leaves):
    """Flat fan-out wider than the pool: sequential QCreates must stall
    and retry as earlier leaves finish."""
    lines = []
    for i in range(leaves):
        lines.append("        QCreate W%dT,%%eno" % i)
        for _ in range(rng.randrange(0, 3)):
            lines.append("        nop")
        lines.append("W%dT:   QTerm" % i)
    lines.append("        QWait -1")
    lines.append("        halt")
    return "\n".join(lines) + "\n", leaves


def test_random_qt_trees_complete_and_balance():
    rng = random.Random(0xBEEF)
    for trial in range(60):
        if trial % 2 == 0:
            cores = rng.randrange(3, 9)
            source, n_labels = _random_tree_program(rng, cores)
        else:
            cores = rng.randrange(2, 5)
            source, n_labels = _wide_program(rng, rng.randrange(4, 13))
        image, machine, events = assemble_run(source, cores=cores,
                                              max_cycles=50000)
        created = [ev for ev in events if ev.kind == tr.QT_CREATED]
        ended = [ev for ev in events if ev.kind == tr.QT_TERMINATED]
        assert machine.halted, trial
        assert len(created) == n_labels
        assert len(created) == len(ended), trial
        assert sorted(ev.qt for ev in created) == sorted(ev.qt for ev in ended)
        known = {ev.qt for ev in created} | {tr.ROOT_QT_ID}
        for ev in created:       # labeling rule: every parent is a known QT
            assert tr.parent_qt_id(ev.qt) in known, ev.qt
        # replay determinism
        _, _, events2 = assemble_run(source, cores=cores, max_cycles=50000)
        assert tr.format_trace(events) == tr.format_trace(events2)


# ---- hostile assembler input ------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
               min_size=0, max_size=120))
def test_assembler_never_crashes_on_garbage(text):
    try:
        assembler.assemble(text)
    except assembler.AssemblerError as exc:
        assert exc.line is None or exc.line >= 1
