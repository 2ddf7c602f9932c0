"""The invariant checker and the incremental core bookkeeping.

The engine keeps the free, preallocated and busy pools, the waiter set
and the active-core list incrementally, and rechecks only the cores
whose state changed.  The full sweep it replaced is kept here as the
oracle: after every tick it rebuilds the pools from every core's status
and checks the whole predicate again.
"""

import random

import pytest

from empa import fixtures, trace as tr
from empa.coremodel import Status
from empa.errors import Deadlock, InvariantViolation
from helpers import CountingList, make_machine
from test_stress import _random_tree_program, _wide_program

CORE_COUNTS = (1, 2, 4, 5, 8, 64)


def _full_sweep(machine):
    """The per-tick checker before incremental pools: pool sets derived
    from status must partition the cores, no free core holds a QT, and
    every parent chain ends.  Returns the derived (free, prealloc, busy)."""
    free, prealloc, busy = set(), set(), set()
    for core in machine.cores:
        if core.status is Status.FREE:
            free.add(core.index)
        elif core.status is Status.PREALLOCATED:
            prealloc.add(core.index)
        else:
            busy.add(core.index)
    assert free | prealloc | busy == set(range(machine.cfg.cores))
    assert len(free) + len(prealloc) + len(busy) == machine.cfg.cores
    for core in machine.cores:
        assert core.status is not Status.FREE or core.qt is None, core.index
    for core in machine.cores:
        qt, hops = core.qt, 0
        while qt is not None:
            qt = qt.parent
            hops += 1
            assert hops <= 1000
    return free, prealloc, busy


def _run_swept(machine):
    """Tick to halt, comparing the incremental state with the sweep after
    every tick.  Returns False if the run deadlocked."""
    sv = machine.sv
    while not machine.halted:
        try:
            machine.tick()
        except Deadlock:
            return False
        assert (sv.free, sv.prealloc, sv.busy) == _full_sweep(machine), \
            machine.clock
        assert sv.waiters == {c.index for c in machine.cores
                              if c.wait_cond is not None}, machine.clock
    return True


@pytest.mark.parametrize("cores", CORE_COUNTS)
@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_incremental_pools_match_the_full_sweep_on_fixtures(name, cores):
    _, machine = make_machine(fixtures.FIXTURES[name](), cores=cores)
    halted = _run_swept(machine)
    # dynpar needs three cores; on fewer it deadlocks by design
    assert halted == (name != "dynpar" or cores > 2)


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


def _mid_run(cores=4):
    """A for_mode machine a few ticks in, and one of its free cores."""
    _, machine = make_machine(fixtures.for_mode_source(), cores=cores)
    for _ in range(5):
        machine.tick()
    free = next(c for c in machine.cores if c.status is Status.FREE)
    return machine, free


def test_free_core_bound_to_a_qt_is_caught():
    machine, free = _mid_run()
    free.qt = machine.root_qt
    with pytest.raises(InvariantViolation, match="free core %d" % free.index):
        machine.tick()


def test_status_flip_behind_the_pools_back_is_caught():
    machine, free = _mid_run()
    free.status = Status.PREALLOCATED        # not through set_pool_status
    with pytest.raises(InvariantViolation, match="partition"):
        machine.tick()


def test_core_in_two_pools_is_caught():
    machine, free = _mid_run()
    machine.sv.busy.add(free.index)
    with pytest.raises(InvariantViolation, match="partition"):
        machine.tick()


def test_every_core_is_checked_on_the_first_tick():
    _, machine = make_machine(fixtures.no_mode_source(), cores=8)
    machine.sv.free.discard(5)               # core 5 is never touched
    machine.sv.prealloc.add(5)
    with pytest.raises(InvariantViolation, match="partition"):
        machine.tick()


def test_pool_sizes_are_checked_on_a_tick_that_touches_no_core():
    _, machine = make_machine(fixtures.no_mode_source(), cores=8)
    for _ in range(3):
        machine.tick()
    machine.sv.busy.add(5)                   # core 5 is free
    assert not machine._touched              # a plain loop changes no core
    with pytest.raises(InvariantViolation, match="partition"):
        machine.tick()


def test_qt_parent_is_read_only():
    _, machine = make_machine(fixtures.no_mode_source(), cores=1)
    with pytest.raises(AttributeError):
        machine.root_qt.parent = machine.root_qt


def test_whole_core_scans_follow_state_changes_not_cycles():
    image, machine = make_machine(
        fixtures.no_mode_source(list(range(1, 201))), cores=64)
    machine.cores = CountingList(machine.cores)
    machine.run_to_halt()
    changes = sum(1 for ev in machine.events if ev.kind in (
        tr.META_RETIRED, tr.QT_CREATED, tr.QT_TERMINATED,
        tr.WAIT_BEGIN, tr.WAIT_END))
    assert machine.clock > 2000
    assert machine.cores.scans <= 1 + 2 * changes, machine.cores.scans

