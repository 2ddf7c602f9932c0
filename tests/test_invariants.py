"""The invariant checker and the incremental core bookkeeping.

The engine keeps one set of core indices per core state and the
active-core list incrementally, and rechecks only the cores whose state
changed.  The full sweep it replaced is kept here as the oracle: after
every tick it rebuilds the sets from every core's state and checks the
whole predicate again, together with the fields that go with each state
and the legality of every state write.  A second oracle checks the
reservations: every preallocated core belongs to exactly one live QT's
grant.
"""

import collections
import random

import pytest
from hypothesis import given, settings, strategies as st

from empa import assembler, engine, fixtures, trace as tr
from empa.coremodel import CoreState, State
from empa.errors import Deadlock, InvariantViolation
from empa.supervisor import KIND_PLAIN, MassControl, QTDescriptor
from helpers import CountingList, make_machine, word
from test_stress import _random_tree_program, _wide_program

CORE_COUNTS = (1, 2, 3, 4, 5, 8, 64)


# Every state write the supervisor and the engine may make.
_S = State
LEGAL_WRITES = {
    (_S.FREE, _S.RUNNING), (_S.FREE, _S.PREALLOCATED),
    (_S.PREALLOCATED, _S.FREE), (_S.PREALLOCATED, _S.RUNNING),
    (_S.RUNNING, _S.SV), (_S.RUNNING, _S.PARKED),
    (_S.SV, _S.RUNNING), (_S.SV, _S.POSTPONED), (_S.SV, _S.WAITING),
    (_S.SV, _S.MASSLOOP), (_S.SV, _S.FREE), (_S.SV, _S.PREALLOCATED),
    (_S.SV, _S.PARKED),
    (_S.POSTPONED, _S.RUNNING), (_S.POSTPONED, _S.FREE),
    (_S.POSTPONED, _S.PREALLOCATED), (_S.POSTPONED, _S.PARKED),
    (_S.WAITING, _S.RUNNING), (_S.MASSLOOP, _S.RUNNING),
}


def _full_sweep(machine):
    """The per-tick checker before incremental sets: the sets derived
    from every core's state partition the cores, no free core holds a
    QT, and every parent chain ends within its QT's depth.  Returns the
    derived sets."""
    derived = {state: set() for state in State}
    for core in machine.cores:
        derived[core.state].add(core.index)
    assert sum(map(len, derived.values())) == machine.cfg.cores
    for core in machine.cores:
        assert core.state is not State.FREE or core.qt is None, core.index
    for core in machine.cores:
        qt, hops = core.qt, 0
        while qt is not None:
            qt = qt.parent
            hops += 1
            assert hops <= core.qt.depth + 1, core.index
    return derived


def _check_grants(machine):
    """Every preallocated core is reserved by exactly one live QT's
    grant: a reservation nothing holds would never return to the pool."""
    held = collections.Counter(
        i for _, qt in machine.live_qts()
        if isinstance(qt.alloc, MassControl) for i in qt.alloc.cores)
    for core in machine.cores:
        if core.state is State.PREALLOCATED:
            assert held[core.index] == 1, (machine.clock, core.index)


def _record_writes(machine):
    """Wrap the supervisor's state_written; returns the list of
    (old, new) state writes."""
    writes = []
    sv = machine.sv
    state_written = sv.state_written

    def recording(index, old, new):
        writes.append((old, new))
        state_written(index, old, new)
    sv.state_written = recording
    return writes


def _run_swept(machine):
    """Tick to halt, comparing the incremental state with the sweep after
    every tick.  Returns False if the run deadlocked."""
    sv = machine.sv
    writes = _record_writes(machine)
    while not machine.halted:
        try:
            machine.tick()
        except Deadlock:
            return False
        at = machine.clock
        assert sv.in_state == _full_sweep(machine), at
        _check_grants(machine)
        running = [c for c in machine.cores if c.state is State.RUNNING]
        assert sv.stale or machine._active == running, at
        for core in machine.cores:
            assert (core.request is not None) == (
                core.state in (State.SV, State.POSTPONED)), (at, core.index)
            assert (core.wait_cond is not None) == (
                core.state is State.WAITING), (at, core.index)
        assert set(writes) <= LEGAL_WRITES, (at, set(writes) - LEGAL_WRITES)
        writes.clear()
    return True


@pytest.mark.parametrize("cores", CORE_COUNTS)
@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_incremental_pools_match_the_full_sweep_on_fixtures(name, cores):
    _, machine = make_machine(fixtures.FIXTURES[name](), cores=cores)
    halted = _run_swept(machine)
    # dynpar needs four cores; on fewer it deadlocks by design
    assert halted == (name != "dynpar" or cores >= 4)


def test_incremental_pools_match_the_full_sweep_on_random_trees():
    rng = random.Random(0xBEEF)
    for trial in range(60):
        if trial % 2 == 0:
            cores = rng.randrange(3, 9)
            source, _ = _random_tree_program(rng, cores)
        else:
            cores = rng.randrange(2, 5)
            source, _ = _wide_program(rng, rng.randrange(4, 13))
        _, machine = make_machine(source, cores=cores)
        assert _run_swept(machine), trial


# A child and a fallback QT inside it each end on a grant they never used.
_UNUSED_GRANTS = """
        QCreate CT,%eno
        irmovl $9,%ecx
        QAlloc 5,%ecx         # denied
        QFCreate FT,%eno
        irmovl $1,%ecx
        QAlloc 5,%ecx         # granted to the fallback QT
FT:     QTerm
        irmovl $1,%ecx
        QAlloc 1,%ecx         # granted to the child
CT:     QTerm
        QWait -1
        halt
"""


@pytest.mark.parametrize("cores", (2, 3, 4))
def test_grants_ended_unused_hold_no_core(cores):
    _, machine = make_machine(_UNUSED_GRANTS, cores=cores)
    assert _run_swept(machine)
    assert all(c.state is State.FREE for c in machine.cores[1:])


def _mid_run(cores=4):
    """A for_mode machine a few ticks in, and one of its free cores."""
    _, machine = make_machine(fixtures.for_mode_source(), cores=cores)
    for _ in range(5):
        machine.tick()
    free = next(c for c in machine.cores if c.state is State.FREE)
    return machine, free


def test_free_core_bound_to_a_qt_is_caught():
    machine, free = _mid_run()
    free.qt = machine.root_qt
    with pytest.raises(InvariantViolation, match="free core %d" % free.index):
        machine.tick()


def test_status_flip_behind_the_pools_back_is_caught():
    machine, free = _mid_run()
    free._state = State.PREALLOCATED         # a write that skips the set move
    machine.sv.touched.add(free.index)
    with pytest.raises(InvariantViolation, match="partition"):
        machine.tick()


def test_core_in_two_pools_is_caught():
    machine, free = _mid_run()
    machine.sv.running.add(free.index)
    with pytest.raises(InvariantViolation, match="partition"):
        machine.tick()


def test_every_core_is_checked_on_the_first_tick():
    _, machine = make_machine(fixtures.no_mode_source(), cores=8)
    machine.sv.free.discard(5)               # core 5 is never touched
    machine.sv.in_state[State.PREALLOCATED].add(5)
    with pytest.raises(InvariantViolation, match="partition"):
        machine.tick()


def test_pool_sizes_are_checked_on_a_tick_that_touches_no_core():
    _, machine = make_machine(fixtures.no_mode_source(), cores=8)
    for _ in range(3):
        machine.tick()
    machine.sv.running.add(5)                # core 5 is free
    assert not machine.sv.touched            # a plain loop changes no core
    with pytest.raises(InvariantViolation, match="partition"):
        machine.tick()


# ---- the CoreState setters keep the bookkeeping ---------------------------

_QT_CHOICES = ("none", "root", "stray")


@settings(max_examples=150, deadline=None)
@given(cores=st.integers(1, 8),
       writes=st.lists(st.tuples(st.integers(0, 63), st.booleans(),
                                 st.sampled_from(list(State)),
                                 st.sampled_from(_QT_CHOICES)),
                       max_size=40))
def test_state_and_qt_writes_keep_the_sets_a_partition(cores, writes):
    """Any sequence of state and qt writes keeps the per-state sets an
    exact partition of the core indices and queues every changed core
    for the checker; only a state change marks the running list stale.
    A lone core takes the same writes with no machine."""
    _, machine = make_machine("halt\n", cores=cores)
    sv = machine.sv
    sv.touched.clear()                        # as after a check
    stray = QTDescriptor("7", None, 0, 0, None, 0, KIND_PLAIN)
    qts = {"none": None, "root": machine.root_qt, "stray": stray}
    lone = [CoreState(i) for i in range(cores)]
    lone[0].state, lone[0].qt = State.RUNNING, machine.root_qt
    for index, is_state, state, qt_name in writes:
        index %= cores
        core = machine.cores[index]
        before = (core.state, core.qt)
        touched = set(sv.touched)
        sv.stale = False                       # as after a rebuild
        if is_state:
            core.state = lone[index].state = state
        else:
            core.qt = lone[index].qt = qts[qt_name]
        changed = (core.state, core.qt) != before
        assert set(sv.touched) == (
            touched | {index} if changed else touched)
        assert sv.stale == (is_state and changed)
        sets = machine.sv.in_state
        assert sum(map(len, sets.values())) == cores
        assert set().union(*sets.values()) == set(range(cores))
        assert all(c.index in sets[c.state] for c in machine.cores)
    assert [(c.state, c.qt) for c in lone] == [
        (c.state, c.qt) for c in machine.cores]


# ---- which violation one check reports ---------------------------------------


def _violations(partition=None, free=False, chain_core=None):
    """A no_mode machine on 8 cores three ticks in (cores 1-7 free), with
    these violations made before the next tick: a broken partition
    ("member": core 6's state changes behind the sets' back; "sizes":
    core 6 is added to a second set), free core 3 bound to a QT, and a
    preallocated core holding a QT off the root chain."""
    _, machine = make_machine(fixtures.no_mode_source(), cores=8)
    for _ in range(3):
        machine.tick()
    stray = QTDescriptor("7", None, 0, 0, None, 0, KIND_PLAIN)
    if chain_core is not None:
        machine.cores[chain_core].state = State.PREALLOCATED
        machine.cores[chain_core].qt = stray
    if free:
        machine.cores[3].qt = stray            # also off the root chain
    if partition == "member":
        machine.cores[6]._state = State.PARKED
        machine.sv.touched.add(6)
    elif partition == "sizes":
        machine.sv.in_state[State.PARKED].add(6)
    return machine


@pytest.mark.parametrize("violations,message", [
    (dict(partition="member", free=True, chain_core=4), "do not partition"),
    (dict(partition="sizes", free=True, chain_core=2), "do not partition"),
    (dict(free=True, chain_core=4), "free core 3 still bound to QT 7"),
    (dict(free=True), "free core 3 still bound to QT 7"),
    (dict(chain_core=4), "QT 7: parent chain does not reach the root"),
    (dict(free=True, chain_core=2), "QT 7: parent chain does not reach"),
])
def test_a_check_reports_the_partition_first_then_the_lowest_core(
        violations, message):
    """With several violations in one tick, a broken partition is
    reported wherever it is; otherwise the lowest core's, and on one
    core a free core's QT before its parent chain."""
    machine = _violations(**violations)
    with pytest.raises(InvariantViolation, match=message):
        machine.tick()


def test_qt_parent_is_read_only():
    _, machine = make_machine(fixtures.no_mode_source(), cores=1)
    with pytest.raises(AttributeError):
        machine.root_qt.parent = machine.root_qt


# Recursion through denied fallback blocks: each level asks SUMUP for 99
# helpers, is denied, and runs its body as a same-core QT one level
# deeper.  Out counts the levels on the way back.
_DEEP_SOURCE = """
        irmovl Stack,%%esp
        irmovl $%d,%%ebx      # recursion depth
        xorl %%eax,%%eax
        call Rec
        rmmovl %%eax,Out
        halt
Rec:    irmovl $99,%%ecx
        QAlloc 5,%%ecx        # denied on fewer than 100 cores
        QFCreate RFT,%%eno    # so this core runs the body itself
        andl %%ebx,%%ebx
        je RFT
        irmovl $1,%%edx
        subl %%edx,%%ebx
        call Rec
        irmovl $1,%%edx
        addl %%edx,%%eax
RFT:    QTerm
        ret
        .pos 0x8000
Stack:
Out:    .long 0
"""


def _deep_machine(depth):
    image = assembler.assemble(_DEEP_SOURCE % depth, 0x10000)
    return image, engine.Machine(image, engine.MachineConfig(
        cores=2, mem_bytes=0x10000))


def test_deep_fallback_recursion_is_legal():
    """Fallback blocks nest on one core without limit: a recursion 1000
    calls deep (1001 nested QTs) halts with the right result."""
    image, machine = _deep_machine(1000)
    events, _ = machine.run_to_halt()
    assert word(machine, image, "Out") == 1000
    created = [ev.qt for ev in events if ev.kind == tr.QT_CREATED]
    assert len(created) == 1001 and len(created[-1]) == 1002


def test_full_sweep_accepts_a_chain_deeper_than_1000():
    """The oracle bounds a parent chain by its QT's depth, not by a
    fixed hop count: recursion through fallback blocks nests deeper."""
    image, machine = _deep_machine(1050)
    deepest = 0
    while not machine.halted:
        machine.tick()
        depth = machine.cores[0].qt.depth
        deepest = max(deepest, depth)
        if depth > 990:
            assert machine.sv.in_state == _full_sweep(machine), machine.clock
    assert deepest == 1051
    assert word(machine, image, "Out") == 1050


def test_live_qts_walks_a_deep_chain():
    _, machine = _deep_machine(1200)
    while machine.cores[0].qt.depth < 1201:   # the deepest level
        machine.tick()
    forest = machine.live_qts()
    assert [depth for depth, _ in forest] == list(range(1202))
    assert all(qt.parent is parent
               for (_, parent), (_, qt) in zip(forest, forest[1:]))


class _TraceForest:
    """The QT tree replayed from the trace: every QT ever created, under
    its parent by trace.parent_qt_id, and which of them are alive."""

    def __init__(self):
        self.children = collections.defaultdict(list)
        self.alive = {tr.ROOT_QT_ID}
        self.seen = 0

    def replay(self, events):
        for ev in events[self.seen:]:
            if ev.kind == tr.QT_CREATED:
                self.children[tr.parent_qt_id(ev.qt)].append(ev.qt)
                self.alive.add(ev.qt)
            elif ev.kind == tr.QT_TERMINATED:
                self.alive.remove(ev.qt)
        self.seen = len(events)

    def preorder(self, qt_id=tr.ROOT_QT_ID, depth=0):
        """The live QTs as (depth, id), parents first.  Ended QTs are
        walked too, so a live QT under an ended one would show."""
        out = [(depth, qt_id)] if qt_id in self.alive else []
        for child in self.children[qt_id]:
            out += self.preorder(child, depth + 1)
        return out


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_live_qts_is_the_preorder_of_the_live_forest(name):
    _, machine = make_machine(fixtures.FIXTURES[name](), cores=8)
    forest = _TraceForest()
    while not machine.halted:
        machine.tick()
        forest.replay(machine.events)
        assert ([(depth, qt.id) for depth, qt in machine.live_qts()]
                == forest.preorder())


def test_qt_off_the_root_chain_is_caught():
    machine, _ = _mid_run()
    machine.cores[0].qt = QTDescriptor("7", None, 0, 0, None, 0, KIND_PLAIN)
    with pytest.raises(InvariantViolation, match="QT 7: parent chain"):
        machine.tick()
    machine, _ = _mid_run()
    child = machine.root_qt.add_child(0, 0, None, 0, KIND_PLAIN)
    child.depth = 3
    machine.cores[0].qt = child
    with pytest.raises(InvariantViolation, match="QT 1.: parent chain"):
        machine.tick()


def test_whole_core_scans_follow_state_changes_not_cycles():
    """No run to halt iterates over all cores: each tick reads the
    per-state sets, not the core list."""
    sources = [fixtures.FIXTURES[name]() for name in sorted(fixtures.FIXTURES)]
    sources.append(fixtures.no_mode_source(list(range(1, 201))))
    for source in sources:
        _, machine = make_machine(source, cores=64)
        machine.cores = CountingList(machine.cores)
        machine.run_to_halt()
        assert machine.cores.scans == 0, (source, machine.cores.scans)
    assert machine.clock > 2000

