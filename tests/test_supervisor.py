"""Supervisor behavior: QT lifecycle, waits, mass processing, the adder,
pool discipline.  Exercised through small assembled programs."""

import gc
import weakref

import pytest

from empa import engine, fixtures, isa, supervisor, trace as tr
from empa.coremodel import FOR_CHILD, FROM_CHILD
from empa.errors import Deadlock, RuntimeFault
from empa.supervisor import (DENIED, KIND_MASS_FALSE, KIND_MASS_TRUE,
                             MassControl, QTDescriptor)

from helpers import assemble_run, make_machine, word


def kinds(events, kind):
    return [ev for ev in events if ev.kind == kind]


# ---- QCreate / QTerm -------------------------------------------------------

SIMPLE_CHILD = """
        QCreate T,%eax
        irmovl $41,%eax
        addl %ecx,%eax
T:      QTerm
        QWait -1
        rmmovl %eax,Out
        halt
        .pos 0x100
Out:    .long 0
"""


def test_qcreate_runs_child_and_backclones_link():
    image, machine, events = assemble_run(SIMPLE_CHILD, cores=2)
    assert word(machine, image, "Out") == 41
    created = kinds(events, tr.QT_CREATED)
    assert len(created) == 1
    assert created[0].qt == "11"
    assert created[0].core == 1
    assert len(kinds(events, tr.QT_TERMINATED)) == 1


def test_qcreate_with_eno_keeps_parent_register():
    source = SIMPLE_CHILD.replace("QCreate T,%eax", "QCreate T,%eno")
    image, machine, _ = assemble_run(source, cores=2)
    assert word(machine, image, "Out") == 0


def test_parent_continues_after_matching_qterm():
    """QCreate's argument tells the parent where to continue."""
    source = """
        QCreate T,%eno
        irmovl $9,%ebx      # child only
T:      QTerm
        irmovl $5,%ecx      # parent path
        rmmovl %ecx,Out
        halt
        .pos 0x100
Out:    .long 0
"""
    image, machine, _ = assemble_run(source, cores=2)
    assert word(machine, image, "Out") == 5
    assert machine.cores[0].regs[isa.REG_EBX] == 0   # parent never ran child code


def test_qcreate_stalls_until_core_frees():
    # 2 cores: second QCreate must wait for the first child to finish
    source = """
        QCreate A,%eno
        nop
A:      QTerm
        QCreate B,%eno
        nop
B:      QTerm
        QWait -1
        halt
"""
    _, _, events = assemble_run(source, cores=2)
    created = kinds(events, tr.QT_CREATED)
    assert [ev.core for ev in created] == [1, 1]


def test_qcreate_deadlocks_on_one_core():
    _, machine = make_machine("QCreate T,%eno\nnop\nT: QTerm\nhalt\n",
                              cores=1, watchdog=50)
    with pytest.raises(Deadlock) as exc:
        machine.run_to_halt()
    assert "core 0" in str(exc.value)


def test_qterm_waits_for_grandchildren():
    source = """
        QCreate Outer,%eno
        QCreate Inner,%eno
        irmovl $3,%eax
        irmovl $4,%eax
Inner:  QTerm
Outer:  QTerm
        QWait -1
        halt
"""
    _, _, events = assemble_run(source, cores=4)
    ended = {ev.qt: ev.cycle for ev in kinds(events, tr.QT_TERMINATED)}
    assert ended["111"] < ended["11"]


def test_root_qterm_is_a_fault():
    _, machine = make_machine("QTerm\nhalt\n", cores=2)
    with pytest.raises(RuntimeFault):
        machine.run_to_halt()


def test_halt_outside_root_is_a_fault():
    source = """
        QCreate T,%eno
        halt
T:      QTerm
        nop
        nop
        halt
"""
    _, machine = make_machine(source, cores=2)
    with pytest.raises(RuntimeFault) as exc:
        machine.run_to_halt()
    assert "halt outside" in str(exc.value)


# ---- QWait / QPWait ---------------------------------------------------------

def test_qwait_all_unblocks_cycle_after_last_qterm():
    source = """
        QCreate A,%eno
        nop
A:      QTerm
        QCreate B,%eno
        nop
        nop
        nop
B:      QTerm
        QWait -1
        halt
"""
    _, machine, events = assemble_run(source, cores=4)
    last_term = max(ev.cycle for ev in kinds(events, tr.QT_TERMINATED))
    wait_end = kinds(events, tr.WAIT_END)
    assert len(wait_end) == 1
    assert wait_end[0].cycle == last_term + 1


def test_qwait_specific_target():
    source = """
CL:     QCreate A,%eno
        nop
        nop
        nop
        nop
A:      QTerm
        QCreate B,%eno
        nop
B:      QTerm
        QWait CL
        rmmovl %eax,Out
        halt
        .pos 0x100
Out:    .long 0
"""
    image, _, events = assemble_run(source, cores=4)
    begin = kinds(events, tr.WAIT_BEGIN)
    assert len(begin) == 1
    assert begin[0].payload == image.symbols["CL"]


def test_qpwait_blocks_on_live_sister():
    source = """
        QCreate S1,%eno
        nop
        nop
        nop
        nop
        nop
S1:     QTerm
        QCreate S2,%eno
        QPWait -1
S2:     QTerm
        QWait -1
        halt
"""
    _, _, events = assemble_run(source, cores=4)
    begins = kinds(events, tr.WAIT_BEGIN)
    # the second child waited for its sister
    assert any(ev.qt == "12" for ev in begins)
    end = [ev for ev in kinds(events, tr.WAIT_END) if ev.qt == "12"]
    s1_term = [ev for ev in kinds(events, tr.QT_TERMINATED) if ev.qt == "11"]
    assert end[0].cycle == s1_term[0].cycle + 1


def test_wait_on_unknown_target_flags_and_continues():
    """A target that no child ever had warns once, stamped with the
    waiting core and the cycle of the SV phase that served the wait."""
    source = """
        QCreate T,%eno
        nop
        QPWait 0x70           # child: no sister was ever created at 0x70
T:      QTerm
        nop
        QWait -1
        QPWait 0x74           # root: has no sisters at all
        QWait 0x78            # root: no child was ever created at 0x78
        halt
"""
    image, machine, events = assemble_run(source, cores=2)
    assert machine.halted
    served = {(ev.core, ev.addr): ev.cycle + 1
              for ev in kinds(events, tr.META_RETIRED)}
    t = image.symbols["T"]
    assert machine.warnings == [
        "wait target 0x0070 never matched a created QT (core 1, cycle %d)"
        % served[(1, t - 5)],
        "QPWait 0x0074 in the root QT has no sisters (core 0, cycle %d)"
        % served[(0, t + 7)],
        "wait target 0x0078 never matched a created QT (core 0, cycle %d)"
        % served[(0, t + 12)]]


def test_qpwait_on_its_own_qcreate_with_no_sister_left_warns_nothing():
    """Both children come from the QCreate at L and QPWait on L: the
    first has no sister, the second only a terminated one; the root then
    waits on L with both children gone.  A child created at L has existed
    each time, so no wait warns, and the second child is named 12, not
    11 again."""
    source = """
        irmovl $1,%edi
        irmovl $2,%ecx
L:      QCreate T,%eno
        QPWait L              # child: wait for sisters created at L
T:      QTerm
        QWait -1              # root: the first child ends before the next
        subl %edi,%ecx
        jne L
        QWait L               # root: every child from L has ended
        halt
"""
    _, machine, events = assemble_run(source, cores=2)
    assert machine.halted
    assert machine.warnings == []
    assert [ev.qt for ev in kinds(events, tr.QT_CREATED)] == ["11", "12"]
    assert [ev.qt for ev in kinds(events, tr.WAIT_BEGIN)] == ["1", "1"]


# ---- a QT keeps only its live children ----------------------------------------


def _create_wait_loop(n, target, nested=False):
    """`Loop: QCreate CT,%eno; nop; CT: QTerm; QWait target`, n times, in
    the root; nested, in a child QT that QTerms after the loop."""
    loop = """
        irmovl $1,%%edi
        irmovl $%d,%%ecx
Loop:   QCreate CT,%%eno
        nop
CT:     QTerm
        QWait %s
        subl %%edi,%%ecx
        jne Loop
""" % (n, target)
    if nested:
        return "        QCreate Outer,%eno\n" + loop + """
Outer:  QTerm
        QWait -1
        halt
"""
    return loop + "        halt\n"


class _NotingQT(QTDescriptor):
    """A QTDescriptor that notes itself in READ on every attribute read."""

    READ = set()

    def __getattribute__(self, name):
        _NotingQT.READ.add(self)
        return object.__getattribute__(self, name)


@pytest.fixture
def noting_qts(monkeypatch):
    """Machines built now use _NotingQT for every QT; returns the number
    of QTs read by each served QWait, QPWait and QTerm."""
    monkeypatch.setattr(engine, "QTDescriptor", _NotingQT)
    monkeypatch.setattr(supervisor, "QTDescriptor", _NotingQT)
    counts = []

    def noting(handler):
        def serve(sv, machine, core, instr, addr):
            _NotingQT.READ.clear()
            try:
                handler(sv, machine, core, instr, addr)
            finally:
                counts.append(len(_NotingQT.READ))
                _NotingQT.READ.clear()
        return serve
    for op in (isa.QWAIT, isa.QPWAIT, isa.QTERM):
        monkeypatch.setitem(supervisor._HANDLERS, op,
                            noting(supervisor._HANDLERS[op]))
    return counts


@pytest.mark.parametrize("nested", [False, True])
@pytest.mark.parametrize("target", ["Loop", "-1", "CT"])
def test_a_wait_reads_the_live_children_not_the_history(noting_qts, target,
                                                        nested):
    """A QWait and a QTerm read the waiting QT, its parent and the live
    children in scope (at most one per other core), however many
    children the QT has created: the loop reads as many QTs per request
    after 2,000 children as after 200."""
    cores = 2 + nested
    most = []
    for n in (200, 2000):
        noting_qts.clear()
        _, machine, events = assemble_run(_create_wait_loop(n, target, nested),
                                          cores=cores)
        assert machine.halted
        assert len(kinds(events, tr.QT_CREATED)) == n + nested
        most.append(max(noting_qts))
    assert most[0] == most[1] <= cores + 1


def _held_qt_ids(machine):
    """The QTs that a core runs, a wait waits on or a FOR grant runs."""
    held = set()
    for core in machine.cores:
        if core.qt is not None:
            held.add(core.qt.id)
        if core.wait_cond is not None:
            held.update(qt.id for qt in core.wait_cond[1])
    held.update(qt.alloc.current_child.id for _, qt in machine.live_qts()
                if isinstance(qt.alloc, MassControl)
                and qt.alloc.current_child is not None)
    return held


def _run_with_ended_qts_freed(machine):
    """Tick to halt with the collector off.  After every tick, an ended
    QT's descriptor is freed unless a core, a wait or a grant holds it.
    Returns the ids of the QTs that ended."""
    refs, ended, seen = {}, [], 0
    enabled = gc.isenabled()
    gc.disable()
    try:
        while not machine.halted:
            machine.tick()
            for ev in machine.events[seen:]:
                if ev.kind == tr.QT_CREATED:
                    assert machine.cores[ev.core].qt.id == ev.qt
                    refs[ev.qt] = weakref.ref(machine.cores[ev.core].qt)
                elif ev.kind == tr.QT_TERMINATED:
                    ended.append(ev.qt)
            seen = len(machine.events)
            held = _held_qt_ids(machine)
            kept = [i for i in ended if i not in held and refs[i]() is not None]
            assert kept == [], machine.clock
    finally:
        if enabled:
            gc.enable()
    return ended


def test_a_qt_gets_its_child_bookkeeping_with_its_first_child():
    """Until its first child, a QT shares one read-only empty `live` and
    `create_addrs`; then it has its own, and its children hold it
    through a weak reference."""
    root = QTDescriptor(tr.ROOT_QT_ID, None, 0, 0, None, isa.REG_ENO,
                        KIND_MASS_TRUE)
    leaf = QTDescriptor("7", None, 0, 0, None, isa.REG_ENO, KIND_MASS_TRUE)
    assert root.live is leaf.live and root.create_addrs is leaf.create_addrs
    assert not root.live and list(reversed(root.live)) == []
    assert 0x10 not in root.create_addrs and None not in root.live
    with pytest.raises(TypeError):
        root.live[leaf] = None
    child = root.add_child(1, 0x10, 0x20, isa.REG_ENO, KIND_MASS_TRUE)
    assert list(root.live) == [child] and root.create_addrs == {0x10}
    assert leaf.live == {} and leaf.create_addrs == frozenset()
    assert child.parent is root and child.depth == 1 and child.id == "11"
    ref = weakref.ref(child)
    del root.live[child], child
    assert ref() is None and not root.live and root.created == 1


@pytest.mark.parametrize("target", ["Loop", "-1"])
def test_an_ended_child_is_freed_without_the_collector(target):
    _, machine = make_machine(_create_wait_loop(50, target), cores=2)
    assert len(_run_with_ended_qts_freed(machine)) == 50


def test_ended_for_children_are_freed_without_the_collector():
    _, machine = make_machine(fixtures.FIXTURES["for_mode"](), cores=4)
    ended = _run_with_ended_qts_freed(machine)
    assert machine.halted and len(ended) == 4
    assert _held_qt_ids(machine) == {tr.ROOT_QT_ID}


def test_a_wait_on_no_create_address_warns_once_per_wait():
    """CT is a QTerm, not a create address: each of the three waits on
    it warns."""
    _, machine, _ = assemble_run(_create_wait_loop(3, "CT"), cores=2)
    assert machine.warnings == [
        "wait target 0x0013 never matched a created QT (core 0, cycle 5)",
        "wait target 0x0013 never matched a created QT (core 0, cycle 9)",
        "wait target 0x0013 never matched a created QT (core 0, cycle 13)"]


def test_a_wait_on_the_address_of_ended_children_warns_nothing():
    """Every child created at Loop has ended, and Loop still names them."""
    source = _create_wait_loop(3, "-1").replace(
        "        halt\n", "        QWait Loop\n        halt\n")
    _, machine, events = assemble_run(source, cores=2)
    assert machine.halted
    assert len(kinds(events, tr.QT_TERMINATED)) == 3
    assert machine.warnings == []


def test_qpwait_on_a_cousins_create_address_warns():
    """12 waits on the address where its sister 11 created 111: no
    sister of 12 was created there.  Its wait on the address of 11 (an
    ended sister) does not warn."""
    source = """
Sister: QCreate A,%eno         # root: 11
Cousin: QCreate G,%eno         # 11: 111
        nop
G:      QTerm
        QWait -1
A:      QTerm
        QWait -1
        QCreate B,%eno         # root: 12
        QPWait Cousin
        QPWait Sister
B:      QTerm
        QWait -1
        halt
"""
    _, machine, _ = assemble_run(source, cores=3)
    assert machine.halted
    assert machine.warnings == [
        "wait target 0x0006 never matched a created QT (core 1, cycle 10)"]


# ---- QCall --------------------------------------------------------------------

QCALL_PROG = """
        irmovl $7,%ecx
        QCall CLabel
        QWait -1
        rmmovl %eax,Out
        halt
CLabel: QCreate TLabel,%eax
        rrmovl %ecx,%eax
        addl %ecx,%eax
TLabel: QTerm
        .pos 0x100
Out:    .long 0
"""


def test_qcall_runs_out_of_line_qt():
    image, machine, events = assemble_run(QCALL_PROG, cores=2)
    assert word(machine, image, "Out") == 14
    created = kinds(events, tr.QT_CREATED)
    assert created[0].addr == image.symbols["CLabel"]


def test_qcall_stores_no_return_address():
    image, machine, _ = assemble_run(QCALL_PROG, cores=2)
    # nothing was pushed anywhere: %esp untouched on every core
    assert all(core.regs[isa.REG_ESP] == 0 for core in machine.cores)


def test_nested_qcall_builds_parent_chain():
    source = """
        QCall C1
        QWait -1
        rmmovl %eax,Out
        halt
C1:     QCreate T1,%eax
        QCall C2
        QWait -1
T1:     QTerm
C2:     QCreate T2,%eax
        irmovl $33,%eax
T2:     QTerm
        .pos 0x100
Out:    .long 0
"""
    image, machine, events = assemble_run(source, cores=4)
    assert word(machine, image, "Out") == 33
    ids = [ev.qt for ev in kinds(events, tr.QT_CREATED)]
    assert ids == ["11", "111"]


def test_qcall_to_data_is_a_fault():
    source = """
        QCall Data
        halt
Data:   .long 0x12345678
"""
    _, machine = make_machine(source, cores=2)
    with pytest.raises(RuntimeFault) as exc:
        machine.run_to_halt()
    assert "QCall" in str(exc.value)


def test_fault_in_the_sv_phase_parks_the_core_and_drops_no_request():
    """Core 0's bad QCall and core 1's QTerm are served in one SV phase;
    the fault parks core 0 and leaves core 1's request pending."""
    source = """
        QCreate CT,%eno
CT:     QTerm
        QCall Bad
        halt
Bad:    nop
"""
    from empa.coremodel import State
    _, machine = make_machine(source, cores=4)
    with pytest.raises(RuntimeFault, match="QCall"):
        machine.run_to_halt()
    assert machine.clock == 3
    assert machine.sv.queue == [1]
    machine.tick()
    last = machine.events[-1]
    assert (last.cycle, last.core, last.qt, last.kind) == (
        4, 1, "11", tr.QT_TERMINATED)
    assert [c.state for c in machine.cores[:2]] == [State.PARKED, State.FREE]


# ---- QAlloc / QTCreate / QFCreate -----------------------------------------------

def test_qalloc_grant_preallocates_and_seeds_latches():
    source = """
        irmovl $4,%ecx
        QAlloc 5,%ecx
        halt
"""
    _, machine = make_machine(source, cores=8)
    while not machine.halted:
        machine.tick()
    # cores 1..4 were preallocated and never used before halt
    from empa.coremodel import State
    assert [c.state for c in machine.cores[1:5]] == [State.PREALLOCATED] * 4
    root = machine.cores[0]
    assert root.latches[FROM_CHILD] == 4
    assert root.latches[FOR_CHILD] == 0
    assert root.mode == 5


def test_qalloc_denied_leaves_pool_untouched():
    source = """
        irmovl $4,%ecx
        QAlloc 5,%ecx
        halt
"""
    _, machine = make_machine(source, cores=3)
    while not machine.halted:
        machine.tick()
    from empa.coremodel import State
    assert all(c.state is State.FREE for c in machine.cores[1:])
    assert machine.cores[0].qt.alloc is DENIED


def test_qalloc_unknown_mode_faults():
    _, machine = make_machine("irmovl $1,%ecx\nQAlloc 3,%ecx\nhalt\n", cores=4)
    with pytest.raises(RuntimeFault) as exc:
        machine.run_to_halt()
    assert "mode" in str(exc.value)


def test_qalloc_zero_request_grants_trivially():
    source = """
        xorl %ecx,%ecx
        QAlloc 5,%ecx
        rrmovl %ebx,%esv
T:      QTCreate TT,%eno
        nop
TT:     QTerm
F:      QFCreate FT,%eno
        irmovl $1,%edx
FT:     QTerm
        rmmovl %edx,Out
        halt
        .pos 0x100
Out:    .long 0
"""
    image, machine, events = assemble_run(source, cores=8)
    assert not kinds(events, tr.QT_CREATED)     # zero children, branch taken
    assert word(machine, image, "Out") == 0     # QFCreate body skipped


def test_qalloc_count_from_esv_reads_the_phase_latch_silently():
    """The SV reads QAlloc's %esv count through the core's row (general:
    FromChild, here set by the child's cloning-row QTerm) and emits no
    LatchRead for it."""
    source = """
        QCreate PT,%esv
        irmovl $3,%eax
        rrmovl %eax,%esv      # child: ForParent = 3
PT:     QTerm                 # cloning row: the root's FromChild = 3
        QWait -1
Q:      QAlloc 5,%esv         # SUMUP over 3 cores
        halt
"""
    image, machine, events = assemble_run(source, cores=8)
    assert machine.cores[0].qt.alloc.cores == [1, 2, 3]
    assert machine.cores[0].latches[FROM_CHILD] == 3
    assert not [ev for ev in kinds(events, tr.LATCH_READ) if ev.qt == "1"]


def test_qalloc_count_from_ecc_is_the_creation_index():
    """Each SUMUP child asks for as many cores as its %ecc says."""
    source = """
        irmovl $3,%ecx
        QAlloc 5,%ecx
T:      QTCreate TT,%eno
        QAlloc 5,%ecc         # child k asks for k cores
TT:     QTerm
        QWait -1
        halt
"""
    image, machine, events = assemble_run(source, cores=8)
    assert [machine.cores[i].latches[FROM_CHILD] for i in (1, 2, 3)] == [0, 1, 2]
    assert not kinds(events, tr.LATCH_READ)


def test_orphan_qtcreate_faults():
    _, machine = make_machine("QTCreate T,%eax\nnop\nT: QTerm\nhalt\n", cores=4)
    with pytest.raises(RuntimeFault) as exc:
        machine.run_to_halt()
    assert "QAlloc" in str(exc.value)


# A loop that goes back to its QTCreate without a new QAlloc.  In between,
# a child sets the root's FromChild through the cloning row, so a FOR
# loop's break check alone would not stop the second pass.
REUSED_GRANT = """
        irmovl $1,%ecx
        QAlloc {mode},%ecx
TC:     QTCreate TT,%eax
        nop
TT:     QTerm
        QCreate PT,%esv
        irmovl $7,%eax
        rrmovl %eax,%esv
PT:     QTerm
        QWait -1
        jmp TC
        halt
"""


@pytest.mark.parametrize("mode", (1, 5), ids=("for", "sumup"))
def test_qtcreate_on_a_used_up_grant_faults(mode):
    image, machine = make_machine(REUSED_GRANT.format(mode=mode), cores=4)
    with pytest.raises(RuntimeFault, match="used-up QAlloc grant") as exc:
        machine.run_to_halt(max_cycles=500)
    assert exc.value.addr == image.symbols["TC"]
    assert len(kinds(machine.events, tr.QT_CREATED)) == 2    # body once


def test_qtcreate_on_a_used_up_grant_exits_2(tmp_path, capsys):
    from empa import cli
    path = tmp_path / "reuse.eyo"
    path.write_text(REUSED_GRANT.format(mode=1))
    assert cli.main(["run", str(path), "--cores", "4"]) == 2
    assert "used-up QAlloc grant" in capsys.readouterr().err


def test_qfcreate_after_a_granted_loop_skips_its_block():
    source = """
        irmovl $2,%ecx
        QAlloc 1,%ecx
T:      QTCreate TT,%eno
        nop
TT:     QTerm
F:      QFCreate FT,%eno
        irmovl $1,%edx        # the fallback: must not run
FT:     QTerm
        rmmovl %edx,Out
        halt
        .pos 0x100
Out:    .long 0
"""
    image, machine, events = assemble_run(source, cores=2)
    assert word(machine, image, "Out") == 0
    assert not [ev for ev in kinds(events, tr.QT_CREATED)
                if ev.addr == image.symbols["F"]]
    assert len(kinds(events, tr.QT_CREATED)) == 2


def test_qterm_returns_its_unused_grant():
    """A child that QAllocs and ends without a QTCreate leaves no core
    reserved."""
    source = """
        QCreate T1,%eno
        irmovl $2,%ecx
        QAlloc 5,%ecx
T1:     QTerm
        QWait -1
        halt
"""
    from empa.coremodel import State
    _, machine, _ = assemble_run(source, cores=4)
    assert machine.halted
    assert [c.state for c in machine.cores[1:]] == [State.FREE] * 3
    assert [qt.alloc for _, qt in machine.live_qts()] == [None]


def test_fallback_bracket_returns_only_its_own_grant():
    """The grant taken inside a fallback block ends when the bracket
    closes; the grant the outer QT takes afterwards lives on until that
    QT ends."""
    source = """
        QCreate CT,%eno
        irmovl $9,%ecx
        QAlloc 5,%ecx         # denied: 9 cores wanted
        QFCreate FT,%eno      # the child's core runs the fallback QT
        irmovl $1,%ecx
        QAlloc 5,%ecx         # granted to the fallback QT: one core
FT:     QTerm                 # the bracket closes: that core is free again
        irmovl $2,%ecx
OA:     QAlloc 5,%ecx         # granted to the child: two cores
        nop
        nop
CT:     QTerm
        QWait -1
        halt
"""
    from empa.coremodel import State
    image, machine = make_machine(source, cores=4)

    def tick_past(kind, addr):
        while not any(ev.kind == kind and ev.addr == addr
                      for ev in machine.events):
            machine.tick()

    tick_past(tr.QT_TERMINATED, image.symbols["FT"])
    assert [c.state for c in machine.cores[2:]] == [State.FREE] * 2
    assert machine.cores[1].qt.alloc is DENIED     # the child's own outcome
    tick_past(tr.META_RETIRED, image.symbols["OA"])
    machine.tick()                                  # the SV serves OA
    assert machine.cores[1].qt.alloc.cores == [2, 3]
    assert [c.state for c in machine.cores[2:]] == [State.PREALLOCATED] * 2
    machine.run_to_halt()
    assert [c.state for c in machine.cores[1:]] == [State.FREE] * 3



def test_closing_a_fallback_block_restores_the_outer_outcome():
    """A QAlloc belongs to the QT that ran it: the grant taken inside a
    fallback block does not decide the outer QT's next QFCreate, whose
    own QAlloc was denied, so that block runs."""
    source = """
        irmovl $9,%ecx
        QAlloc 5,%ecx         # denied: 9 cores wanted
        QFCreate FT,%eno
        irmovl $1,%ecx
        QAlloc 5,%ecx         # granted to the fallback QT
FT:     QTerm
        irmovl $0,%eax
        QFCreate GT,%eno      # the root's outcome again: denied
        irmovl $1,%eax
GT:     QTerm
        rmmovl %eax,Out
        halt
        .pos 0x100
Out:    .long 0
"""
    image, machine, events = assemble_run(source, cores=4)
    assert word(machine, image, "Out") == 1
    assert machine.clock == 14
    assert [ev.qt for ev in kinds(events, tr.QT_CREATED)] == ["11", "12"]
    assert machine.root_qt.alloc is DENIED


def test_fallback_block_starts_from_its_creators_denial():
    """A QFCreate inside a denied block, before any QAlloc of the
    block's own, opens a nested block on the same core."""
    source = """
        irmovl $9,%ecx
        QAlloc 5,%ecx         # denied
F:      QFCreate FT,%eno      # QT 11
G:      QFCreate GT,%eno      # QT 111, inside 11
        nop
GT:     QTerm
FT:     QTerm
        halt
"""
    image, machine, events = assemble_run(source, cores=4)
    created = [(ev.qt, ev.core, ev.addr) for ev in kinds(events, tr.QT_CREATED)]
    assert created == [("11", 0, image.symbols["F"]),
                       ("111", 0, image.symbols["G"])]
    ended = [(ev.qt, ev.addr) for ev in kinds(events, tr.QT_TERMINATED)]
    assert ended == [("111", image.symbols["GT"]), ("11", image.symbols["FT"])]


# Each program faults in the SV with the message it is keyed by.
SV_FAULTS = {
    "QTCreate without a preceding QAlloc": """
        QTCreate T,%eno
        nop
T:      QTerm
        halt
""",
    "QFCreate without a preceding QAlloc": """
        QFCreate T,%eno
        nop
T:      QTerm
        halt
""",
    "QTerm does not close the open fallback block": """
        irmovl $9,%ecx
        QAlloc 5,%ecx         # denied
        QFCreate FT,%eno
        nop
X:      QTerm                 # a second QTerm inside the block
        nop
FT:     QTerm
        halt
""",
}


@pytest.mark.parametrize("message", sorted(SV_FAULTS))
def test_sv_fault_is_named_by_its_message(message, tmp_path, capsys):
    from empa import cli
    _, machine = make_machine(SV_FAULTS[message], cores=4)
    with pytest.raises(RuntimeFault, match=message) as exc:
        machine.run_to_halt()
    assert exc.value.core == 0
    path = tmp_path / "fault.eyo"
    path.write_text(SV_FAULTS[message])
    assert cli.main(["run", str(path), "--cores", "4"]) == 2
    assert message in capsys.readouterr().err

FOR_PROG = """
        irmovl Vec,%ebx
        irmovl $4,%ecx
        xorl %eax,%eax
        QAlloc 1,%ecx
        rrmovl %ebx,%esv
FTC:    QTCreate FTT,%eax
        mrmovl 0(%esv),%edx
        addl %edx,%eax
FTT:    QTerm
FFC:    QFCreate FFT,%eax
        irmovl $99,%eax
FFT:    QTerm
        rmmovl %eax,Sum
        halt
        .pos 0x200
Vec:    .long 5
        .long 7
        .long 1
        .long 2
Sum:    .long 0
"""


def test_for_mode_address_sequence_and_reuse():
    image, machine, events = assemble_run(FOR_PROG, cores=3)
    assert word(machine, image, "Sum") == 15
    created = kinds(events, tr.QT_CREATED)
    assert len(created) == 4
    assert len({ev.core for ev in created}) == 1   # one core, reused
    base = image.symbols["Vec"]
    reads = [ev.payload for ev in kinds(events, tr.LATCH_READ)]
    assert reads == [base, base + 4, base + 8, base + 12]


def test_for_mode_serial_one_child_at_a_time():
    _, _, events = assemble_run(FOR_PROG, cores=8)
    spans = {}
    for ev in events:
        if ev.kind == tr.QT_CREATED:
            spans[ev.qt] = [ev.cycle, None]
        elif ev.kind == tr.QT_TERMINATED and ev.qt in spans:
            spans[ev.qt][1] = ev.cycle
    ordered = sorted(spans.values())
    for (s1, e1), (s2, _e2) in zip(ordered, ordered[1:]):
        assert e1 <= s2


FOR_BREAK = """
        irmovl Vec,%ebx
        irmovl $6,%ecx
        irmovl $2,%edi       # break after iteration index 2
        xorl %eax,%eax
        QAlloc 1,%ecx
        rrmovl %ebx,%esv
BTC:    QTCreate BTT,%eax
        mrmovl 0(%esv),%edx
        addl %edx,%eax
        rrmovl %ecc,%ebp
        subl %edi,%ebp
        jne BGo
        xorl %edx,%edx
        rrmovl %edx,%esv     # write 0 upward: break
BGo:    nop
BTT:    QTerm
BFC:    QFCreate BFT,%eax
        nop
BFT:    QTerm
        rmmovl %eax,Sum
        halt
        .pos 0x200
Vec:    .long 10
        .long 20
        .long 30
        .long 40
        .long 50
        .long 60
Sum:    .long 0
"""


def test_for_break_stops_creation():
    image, machine, events = assemble_run(FOR_BREAK, cores=2)
    created = kinds(events, tr.QT_CREATED)
    assert len(created) == 3                  # iterations 0,1,2 then break
    assert word(machine, image, "Sum") == 60  # 10+20+30


SUMUP_PROG = """
        irmovl Vec,%ebx
        irmovl $4,%ecx
        xorl %eax,%eax
        QAlloc 5,%ecx
        rrmovl %ebx,%esv
STC:    QTCreate STT,%eno
        mrmovl 0(%esv),%edx
        rrmovl %edx,%esv
STT:    QTerm
        QWait -1
        rrmovl %esv,%eax
SFC:    QFCreate SFT,%eno
        irmovl $99,%eax
SFT:    QTerm
        rmmovl %eax,Sum
        halt
        .pos 0x200
Vec:    .long 5
        .long 7
        .long 1
        .long 2
Sum:    .long 0
"""


def test_sumup_children_skewed_one_per_cycle():
    image, machine, events = assemble_run(SUMUP_PROG, cores=5)
    assert word(machine, image, "Sum") == 15
    created = kinds(events, tr.QT_CREATED)
    cycles = [ev.cycle for ev in created]
    assert cycles == list(range(cycles[0], cycles[0] + 4))
    assert [ev.core for ev in created] == [1, 2, 3, 4]
    feeds = kinds(events, tr.SUM_FEED)
    assert sorted(ev.payload for ev in feeds) == [1, 2, 5, 7]
    fc = [ev.cycle for ev in feeds]
    assert fc == sorted(fc) and len(set(fc)) == 4   # no collision at the adder


def test_sumup_adder_invisible_until_postprocessing_read():
    image, machine, events = assemble_run(SUMUP_PROG, cores=5)
    # no architectural register holds a partial sum before the final read:
    # the only value ever written into root %eax is the complete sum
    assert machine.cores[0].regs[isa.REG_EAX] == 15
    last_feed = max(ev.cycle for ev in kinds(events, tr.SUM_FEED))
    final_read = [ev for ev in kinds(events, tr.LATCH_READ) if ev.core == 0]
    assert final_read[-1].cycle > last_feed


def test_sumup_wraps_modulo_32bit():
    source = SUMUP_PROG.replace(".long 5", ".long 0xFFFFFFFF", 1)
    image, machine, _ = assemble_run(source, cores=5)
    assert word(machine, image, "Sum") == (0xFFFFFFFF + 7 + 1 + 2) % 2**32


def test_sumup_denied_runs_fallback_inline():
    image, machine, events = assemble_run(SUMUP_PROG, cores=4)
    assert word(machine, image, "Sum") == 99
    created = kinds(events, tr.QT_CREATED)
    assert len(created) == 1          # only the inline fallback QT
    assert created[0].core == 0       # on the requesting core itself


def test_denied_then_nested_alloc_can_be_granted():
    """A denied SUMUP falls into QFCreate whose body wins a FOR slot."""
    from empa.fixtures import adaptive_source
    image, machine, events = assemble_run(adaptive_source(), cores=3)
    assert word(machine, image, "Sum") == 15
    fallback = [ev for ev in kinds(events, tr.QT_CREATED) if ev.core == 0]
    assert len(fallback) == 1         # the MassFalse wrapper
    mass_children = [ev for ev in kinds(events, tr.QT_CREATED)
                     if ev.addr == image.symbols["FTC"]]
    assert len(mass_children) == 4
    assert all(ev.qt.startswith("11") for ev in mass_children)


def test_mass_true_children_see_ecc_indices():
    _, _, events = assemble_run(FOR_BREAK, cores=2)
    # break happened at %ecc == 2, so exactly three children ran
    assert len(kinds(events, tr.QT_CREATED)) == 3


def test_esv_as_link_register_uses_cloning_row():
    """Link %esv: the SV reads the child's ForParent and writes the
    parent's FromChild; a later general %esv read brings it out."""
    source = """
        QCreate T,%esv
        irmovl $0x77,%edx
        rrmovl %edx,%esv      # child, general case: write ForParent
T:      QTerm
        QWait -1
        rrmovl %esv,%ebx      # parent, general case: read FromChild
        rmmovl %ebx,Out
        halt
        .pos 0x100
Out:    .long 0
"""
    image, machine, _ = assemble_run(source, cores=2)
    assert word(machine, image, "Out") == 0x77


def test_for_child_address_step_wraps_at_32_bits():
    """The SV steps the parent's ForChild by 4 per child; the step wraps
    like every other latch write."""
    source = """
        irmovl $2,%ecx
        QAlloc 1,%ecx
        irmovl $-4,%ebx
        rrmovl %ebx,%esv      # ForChild = 0xfffffffc
T:      QTCreate TT,%eno
        rrmovl %esv,%eax      # child: FromParent
TT:     QTerm
        halt
"""
    _, machine, events = assemble_run(source, cores=2)
    reads = [ev.payload for ev in kinds(events, tr.LATCH_READ)]
    assert reads == [0xFFFFFFFC, 0]
    assert machine.cores[0].latches[FOR_CHILD] == 4


def test_sumup_feed_order_independent():
    """The adder is commutative: any arrival order gives the sequential
    sum, 32-bit wrap included."""
    import random
    from empa import assembler, engine
    from empa.supervisor import MODE_SUMUP

    rng = random.Random(7)
    image = assembler.assemble("halt\n")
    for trial in range(20):
        values = [rng.getrandbits(32) for _ in range(rng.randrange(1, 8))]
        expected = sum(values) % 2**32
        order = list(values)
        rng.shuffle(order)
        machine = engine.Machine(image, engine.MachineConfig(cores=2))
        sv = machine.sv
        root = machine.cores[0]
        child = machine.cores[1]
        mc = machine.root_qt.alloc = MassControl(MODE_SUMUP, [1])
        sv.create_qt(machine, root, 1, 0, 0, isa.REG_ENO, KIND_MASS_TRUE, 0)
        for value in order:
            assert sv.sumup_feed(machine, child, value, 0)
        assert mc.adder == expected
        assert root.latches[FROM_CHILD] == expected


def test_reissued_qalloc_releases_abandoned_reservation():
    """Only the last QAlloc counts: re-requesting returns the earlier
    grant's cores to the pool instead of leaking them."""
    source = """
        irmovl $4,%ecx
        QAlloc 5,%ecx         # grant: 4 cores reserved
        irmovl $1,%ecx
        QAlloc 1,%ecx         # re-request: old reservation released
        rrmovl %ebx,%esv
T:      QTCreate TT,%eno
        nop
TT:     QTerm
F:      QFCreate FT,%eno
        nop
FT:     QTerm
        QCreate CT,%eno       # needs a free core: would deadlock on a leak
        nop
CT:     QTerm
        QWait -1
        halt
"""
    from empa.coremodel import State
    _, machine, events = assemble_run(source, cores=5, watchdog=200)
    assert machine.halted
    assert all(c.state is State.FREE for c in machine.cores[1:])


def test_released_reservation_not_stolen_from_new_owner():
    """A completed loop's stale control block must not free cores that a
    different parent has since reserved."""
    source = """
        irmovl $1,%ecx
        QAlloc 1,%ecx         # root FOR on core 1
        rrmovl %ebx,%esv
T:      QTCreate TT,%eno
        nop
TT:     QTerm
F:      QFCreate FT,%eno
        nop
FT:     QTerm
        QCreate CT,%eno       # child QT on core 1 (freed by the loop)
        irmovl $2,%ecx
        QAlloc 5,%ecx         # child reserves cores for itself
        irmovl $7,%edx
        rrmovl %ebx,%esv
U:      QTCreate UT,%eno
        nop
UT:     QTerm
G:      QFCreate GT,%eno
        nop
GT:     QTerm
CT:     QTerm
        irmovl $1,%ecx
        QAlloc 1,%ecx         # root re-request while child's mass runs
        rrmovl %ebx,%esv
V:      QTCreate VT,%eno
        nop
VT:     QTerm
H:      QFCreate HT,%eno
        nop
HT:     QTerm
        QWait -1
        halt
"""
    _, machine, events = assemble_run(source, cores=6, watchdog=500)
    assert machine.halted
    # every created QT terminated: no reservation was yanked mid-flight
    created = kinds(events, tr.QT_CREATED)
    ended = kinds(events, tr.QT_TERMINATED)
    assert len(created) == len(ended)


def test_sister_keeps_the_cores_that_an_ended_sumup_freed():
    """P's SUMUP loop ends and its children free cores 3 and 4; sister S
    then reserves them with its own SUMUP QAlloc.  P's next QAlloc drops
    P's ended loop, which holds no cores, so S's cores stay reserved until
    S's loop takes them."""
    delay = """
        irmovl $%d,%%esi
        irmovl $1,%%edi
%s:     subl %%edi,%%esi
        jne %s
"""
    source = """
        QCreate PT,%eno       # P on core 1
        irmovl $2,%ecx
        QAlloc 5,%ecx         # P: SUMUP on cores 3 and 4
PC:     QTCreate PCT,%eno
        irmovl $1,%edx
        rrmovl %edx,%esv
PCT:    QTerm
        QWait -1
PF:     QFCreate PFT,%eno
        nop
PFT:    QTerm
""" + delay % (100, "DP", "DP") + """
PA:     irmovl $0,%ecx
        QAlloc 5,%ecx         # P again: releases what P's ended loop holds
PC2:    QTCreate PCT2,%eno
        nop
PCT2:   QTerm
PF2:    QFCreate PFT2,%eno
        nop
PFT2:   QTerm
PT:     QTerm
        QCreate ST,%eno       # S on core 2
""" + delay % (40, "DS", "DS") + """
        irmovl $2,%ecx
        QAlloc 5,%ecx         # S: the cores that P's children freed
""" + delay % (150, "DT", "DT") + """
SC:     QTCreate SCT,%eno
        irmovl $10,%edx
        rrmovl %edx,%esv
SCT:    QTerm
        QWait -1
        rrmovl %esv,%eax
SF:     QFCreate SFT,%eno
        nop
SFT:    QTerm
        rmmovl %eax,Out
ST:     QTerm
        QWait -1
        halt
        .pos 0x400
Out:    .long 0
"""
    from empa.coremodel import State
    from empa.supervisor import MODE_SUMUP
    image, machine = make_machine(source, cores=5)
    while not machine.halted:
        machine.tick()
        for _, qt in machine.live_qts():
            mc = qt.alloc
            if isinstance(mc, MassControl) and mc.mode == MODE_SUMUP:
                assert all(machine.cores[i].state is State.PREALLOCATED
                           for i in mc.cores), machine.clock
    assert word(machine, image, "Out") == 20
    events = machine.events
    created = {ev.qt: (ev.core, ev.cycle) for ev in kinds(events, tr.QT_CREATED)}
    assert {created["111"][0], created["112"][0]} == {3, 4}      # P's children
    assert {created["121"][0], created["122"][0]} == {3, 4}      # S's children
    p_again = [ev.cycle for ev in kinds(events, tr.META_RETIRED)
               if ev.addr == image.symbols["PA"] + 6]
    assert created["112"][1] < p_again[0] < created["121"][1]


def test_fallback_block_close_waits_for_its_children():
    """The bracket QTerm of an inline fallback block carries the implied
    wait: it cannot close while a QT created inside the block lives."""
    source = """
        irmovl $9,%ecx
        QAlloc 5,%ecx         # 9 helpers never fit: always denied
T:      QTCreate TT,%eno
        nop
TT:     QTerm
F:      QFCreate FT,%eno
        QCreate CT,%eno       # real child spawned from inside the block
        irmovl $5,%esi
        nop
        nop
CT:     QTerm
FT:     QTerm                 # closes the block, after C finishes
        QWait -1
        rmmovl %esi,Out
        halt
        .pos 0x100
Out:    .long 0
"""
    image, machine, events = assemble_run(source, cores=3)
    terms = {ev.qt: ev.cycle for ev in kinds(events, tr.QT_TERMINATED)}
    assert terms["111"] < terms["11"]      # child C before the block QT
    assert machine.halted


def test_custom_timing_preserves_results():
    from empa import engine
    timing = engine.TimingConfig({"mrmovl": 1, "rmmovl": 1, "opl": 2})
    from empa.fixtures import adaptive_source
    for cores in (1, 3, 5):
        image, machine, _ = assemble_run(adaptive_source(), cores=cores,
                                         timing=timing)
        assert word(machine, image, "Sum") == 15


def test_preallocated_cores_invisible_to_other_parents():
    source = """
        irmovl $2,%ecx
        QAlloc 5,%ecx         # reserve cores 1 and 2
        QCreate CT,%eno       # must land on core 3
        nop
CT:     QTerm
        rrmovl %ebx,%esv
T:      QTCreate TT,%eno
        nop
TT:     QTerm
F:      QFCreate FT,%eno
        nop
FT:     QTerm
        QWait -1
        halt
"""
    _, _, events = assemble_run(source, cores=4)
    created = kinds(events, tr.QT_CREATED)
    assert created[0].core == 3
