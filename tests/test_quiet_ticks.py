"""Quiet ticks: run_to_halt skips the SV phase while the SV is idle.

The reference is a plain tick loop, in which every cycle runs the SV
phase and the invariant checker.  run_to_halt must give the same
events, clock, memory, core state and warnings, and fail with the same
exception at the same clock.  The count guards pin that the SV phase
and the checker run in proportion to SV work, not to cycles.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from empa import assembler, engine, fixtures, isa, trace as tr
from empa.coremodel import State
from empa.errors import (AddressOutOfRange, Deadlock, InvariantViolation,
                         RuntimeFault, SimulationError, WatchdogExpired)
from test_stress import _random_tree_program, _wide_program

CORE_COUNTS = (1, 2, 3, 4, 5, 8, 64)


def _machine(source, cores, watchdog=10000, timing=None):
    image = assembler.assemble(source)
    return engine.Machine(image, engine.MachineConfig(
        cores=cores, watchdog=watchdog, timing=timing or engine.TimingConfig()))


def _tick_loop(machine, max_cycles):
    """run_to_halt as a plain loop of full ticks."""
    while not machine.halted:
        if max_cycles is not None and machine.clock >= max_cycles:
            raise WatchdogExpired("cycle budget of %d exhausted" % max_cycles)
        machine.tick()


def _outcome(machine, run, max_cycles):
    try:
        run(machine, max_cycles)
        error = None
    except Exception as exc:     # compared, not swallowed
        error = (type(exc), str(exc), machine.clock)
    return {
        "error": error,
        "clock": machine.clock,
        "events": machine.events,
        "memory": bytes(machine.memory.data),
        "cores": [(c.state, c.pc, c.regs, c.latches, c.remaining,
                   c.inflight and c.inflight[0])
                  for c in machine.cores],
        "warnings": machine.warnings,
    }


def _assert_same_run(source, cores, max_cycles=None, **cfg):
    """Returns the outcome both runs share."""
    quick = _outcome(_machine(source, cores, **cfg),
                     lambda m, n: m.run_to_halt(max_cycles=n), max_cycles)
    plain = _outcome(_machine(source, cores, **cfg), _tick_loop, max_cycles)
    assert quick == plain
    return quick


@pytest.mark.parametrize("cores", CORE_COUNTS)
@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_run_to_halt_matches_the_tick_loop_on_fixtures(name, cores):
    error = _assert_same_run(fixtures.FIXTURES[name](), cores)["error"]
    # dynpar needs four cores; on fewer it deadlocks by design
    assert (error is None) == (name != "dynpar" or cores >= 4)


def _random_trees():
    """(source, cores) of 60 random QT trees and wide programs."""
    rng = random.Random(0xBEEF)
    for trial in range(60):
        if trial % 2 == 0:
            cores = rng.randrange(3, 9)
            source, _ = _random_tree_program(rng, cores)
        else:
            cores = rng.randrange(2, 5)
            source, _ = _wide_program(rng, rng.randrange(4, 13))
        yield source, cores


def test_run_to_halt_matches_the_tick_loop_on_random_trees():
    for trial, (source, cores) in enumerate(_random_trees()):
        outcome = _assert_same_run(source, cores, max_cycles=50000)
        assert outcome["error"] is None, trial


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(fixtures.FIXTURES)),
       cores=st.sampled_from(CORE_COUNTS),
       overrides=st.dictionaries(st.sampled_from(sorted(engine.DEFAULT_TIMING)),
                                 st.integers(1, 6)))
def test_run_to_halt_matches_the_tick_loop_under_any_timing(name, cores,
                                                            overrides):
    _assert_same_run(fixtures.FIXTURES[name](), cores,
                     timing=engine.TimingConfig(overrides))


@pytest.mark.parametrize("cores", (1, 2))
def test_deadlock_at_the_same_clock(cores):
    error = _assert_same_run(fixtures.dynpar_source(), cores)["error"]
    assert error[0] is Deadlock and error[2] == 10000 + cores


def test_cycle_budget_at_the_same_clock():
    error = _assert_same_run("L: jmp L\n", 1, max_cycles=100)["error"]
    assert error == (WatchdogExpired, "cycle budget of 100 exhausted", 100)


def test_cycle_budget_in_the_middle_of_an_instruction():
    # mrmovl takes cycles 101-103 of the 4-cycle loop; the budget ends
    # after its second
    outcome = _assert_same_run("L: mrmovl 0(%eax),%ecx\n   jmp L\n", 1,
                               max_cycles=102)
    assert outcome["error"][0] is WatchdogExpired
    core = outcome["cores"][0]
    assert (core[1], *core[4:]) == (0, 1, isa.Instruction(isa.MRMOVL, 1, 0))


def test_root_halt_leaves_a_higher_core_mid_instruction():
    """The root halts at cycle 4, in which core 1 would have retired the
    mrmovl it began at cycle 2: the halt stops the cycle's stepping."""
    outcome = _assert_same_run("""
        QCreate CT,%eno
L:      mrmovl 0(%eax),%ecx
        jmp L
CT:     QTerm
        nop
        nop
        halt
""", 2)
    assert outcome["error"] is None and outcome["clock"] == 4
    core = outcome["cores"][1]
    assert core[0] is State.RUNNING
    assert (core[1], *core[4:]) == (6, 1, isa.Instruction(isa.MRMOVL, 1, 0))


def test_retire_fault_on_the_second_running_core_parks_only_it():
    outcome = _assert_same_run("""
        irmovl $0x7fff0000,%ebx
        QCreate CT,%eno
        nop
        mrmovl 0(%ebx),%ecx   # core 1: faults at retire, cycle 6
CT:     QTerm
L:      mrmovl 0(%eax),%ecx
        jmp L
""", 2)
    assert outcome["error"][0] is AddressOutOfRange
    assert outcome["clock"] == 6
    assert [core[0] for core in outcome["cores"]] == [State.RUNNING,
                                                      State.PARKED]
    # core 0 stepped first in the fault's cycle: its jmp retired
    assert outcome["events"][-1] == (6, 0, "1", tr.INSTR_RETIRED, 0x1A, 1)


HALT_IN_CHILD = """
        QCreate CT,%eno
        nop                   # core 1: the child QT
        nop
        halt                  # core 1: faults at retire, cycle 4
CT:     QTerm
        nop
L:      nop
        jmp L
"""


@pytest.mark.parametrize("run", [
    lambda m: m.run_to_halt(), lambda m: _tick_loop(m, None)],
    ids=["run_to_halt", "tick"])
def test_halt_in_a_child_qt_faults_and_parks_its_core(run):
    """A halt retired outside the root QT faults, in a full tick and in
    a quiet stretch alike (run_to_halt is in one from cycle 3)."""
    machine = _machine(HALT_IN_CHILD, 2)
    with pytest.raises(RuntimeFault) as exc:
        run(machine)
    fault = exc.value
    assert str(fault) == "halt outside the root QT | core 1 | QT 11 | at 0x0008"
    assert (fault.core, fault.qt, fault.addr) == (1, "11", 0x08)
    assert machine.clock == 4 and not machine.halted
    assert [core.state for core in machine.cores] == [State.RUNNING,
                                                      State.PARKED]
    # the halt's own retirement is the last event, after core 0's
    assert tr.format_trace(machine.events) == (
        "cycle=1 core=0 qt=1 kind=MetaRetired addr=0x0000 payload=0x00000001\n"
        "cycle=2 core=1 qt=11 kind=QtCreated addr=0x0000\n"
        "cycle=2 core=0 qt=1 kind=InstrRetired addr=0x000a payload=0x00000001\n"
        "cycle=2 core=1 qt=11 kind=InstrRetired addr=0x0006 payload=0x00000001\n"
        "cycle=3 core=0 qt=1 kind=InstrRetired addr=0x000b payload=0x00000001\n"
        "cycle=3 core=1 qt=11 kind=InstrRetired addr=0x0007 payload=0x00000001\n"
        "cycle=4 core=0 qt=1 kind=InstrRetired addr=0x000c payload=0x00000001\n"
        "cycle=4 core=1 qt=11 kind=InstrRetired addr=0x0008 payload=0x00000001\n")


def test_fetch_fault_at_the_same_clock_parks_the_core():
    outcome = _assert_same_run(".pos 0\n.long 0xCCCCCCCC\n", 1)
    assert outcome["error"][0] is RuntimeFault and outcome["clock"] == 1
    assert outcome["cores"][0][0] is State.PARKED


def test_event_less_watchdog_at_the_same_clock():
    outcome = _assert_same_run(fixtures.no_mode_source(), 2, watchdog=30,
                               timing=engine.TimingConfig({"mrmovl": 40}))
    assert outcome["error"] == (WatchdogExpired, "no event for 30 cycles", 41)


# ---- bench-shaped streams: one SV round trip per vector item --------------


def _words(n):
    rng = random.Random(n)
    return [rng.getrandbits(32) for _ in range(n)]


def _sum_of(source, outcome):
    """The Sum word the run left in memory."""
    at = assembler.assemble(source).symbols["Sum"]
    return int.from_bytes(outcome["memory"][at:at + 4], "little")


def _mass_children(outcome):
    """QTs created on a helper core (a fallback block stays on core 0)."""
    return sum(1 for ev in outcome["events"]
               if ev.kind == tr.QT_CREATED and ev.core != 0)


@pytest.mark.parametrize("builder,words,cores", [
    ("adaptive", 50, 2), ("adaptive", 173, 2), ("adaptive", 300, 2),
    ("for_mode", 50, 2), ("for_mode", 300, 4),
    ("sumup_mode", 20, 21), ("adaptive", 40, 64),
])
def test_run_to_halt_matches_the_tick_loop_on_mass_streams(builder, words,
                                                          cores):
    """FOR granted (adaptive on 2 cores, for_mode) runs one create/QTerm
    round trip through the SV per item; a granted SUMUP (enough cores)
    creates one child per item."""
    values = _words(words)
    source = fixtures.FIXTURES[builder](values)
    outcome = _assert_same_run(source, cores)
    assert outcome["error"] is None
    assert _sum_of(source, outcome) == sum(values) & isa.WORD_MASK
    assert _mass_children(outcome) == words


_STREAM = fixtures.adaptive_source(_words(50))    # FOR granted on 2 cores


@settings(max_examples=40, deadline=None)
@given(budget=st.integers(13, 267))
def test_a_budget_inside_a_for_round_trip_ends_both_runs_alike(budget):
    """The stream's first child is created at cycle 13 and the root halts
    at 268; every budget between ends inside some round trip."""
    error = _assert_same_run(_STREAM, 2, max_cycles=budget)["error"]
    assert error == (WatchdogExpired,
                     "cycle budget of %d exhausted" % budget, budget)


def _tamper_in_phase(machine, at):
    """After the SV phase at clock `at`, bind a QT to free core 2."""
    phase = machine.sv.phase

    def tampering_phase(cycle):
        phase(cycle)
        if machine.clock == at:
            machine.cores[2].qt = machine.root_qt
    machine.sv.phase = tampering_phase
    return machine


def test_a_qt_bound_to_a_free_core_in_an_sv_phase_raises_at_the_same_clock():
    """A tamper inside one SV phase of a FOR stream (core 2 stays free on
    3 cores) is caught by that tick's check, in both runs."""
    # a clock at which run_to_halt runs an SV phase, mid-stream
    machine = _machine(_STREAM, 3)
    clocks = []
    phase = machine.sv.phase
    machine.sv.phase = lambda cycle: (clocks.append(machine.clock),
                                      phase(cycle))
    machine.run_to_halt()
    at = clocks[len(clocks) // 2]
    assert at > 13
    quick = _outcome(_tamper_in_phase(_machine(_STREAM, 3), at),
                     lambda m, n: m.run_to_halt(max_cycles=n), None)
    plain = _outcome(_tamper_in_phase(_machine(_STREAM, 3), at),
                     _tick_loop, None)
    assert quick == plain
    assert quick["error"] == (InvariantViolation,
                              "free core 2 still bound to QT 1", at)


# ---- the SV phase and the checker follow SV work, not cycles ---------------


def _count_calls(machine):
    """Count sv.phase and _check_invariants calls, as instance wrappers."""
    counts = {"phase": 0, "check": 0}
    phase, check = machine.sv.phase, machine._check_invariants

    def counted_phase(cycle):
        counts["phase"] += 1
        phase(cycle)

    def counted_check():
        counts["check"] += 1
        check()
    machine.sv.phase = counted_phase
    machine._check_invariants = counted_check
    return counts


def test_a_plain_loop_on_64_cores_runs_the_sv_phase_once():
    machine = _machine(fixtures.no_mode_source(list(range(1, 201))), 64)
    counts = _count_calls(machine)
    machine.run_to_halt()
    assert machine.clock > 2000
    assert counts["phase"] <= 2
    assert counts["check"] <= 3


@pytest.mark.parametrize("cores", (2, 5))
@pytest.mark.parametrize("name", ("for_mode", "adaptive"))
def test_sv_phases_follow_meta_retirements_and_qt_ends(name, cores):
    machine = _machine(fixtures.FIXTURES[name](), cores)
    counts = _count_calls(machine)
    events, _ = machine.run_to_halt()
    work = sum(1 for ev in events
               if ev.kind in (tr.META_RETIRED, tr.QT_TERMINATED, tr.WAIT_END))
    assert counts["phase"] <= 1 + work
    assert counts["phase"] < machine.clock


def test_the_checker_still_guards_a_quiet_stretch():
    machine = _machine(fixtures.no_mode_source(), 8)
    counts = _count_calls(machine)
    seen = []

    class TamperingEvents(list):
        """The machine's event list; it breaks the state sets as the
        20th event is recorded."""

        def append(self, event):
            super().append(event)
            if len(self) == 20:               # well inside a quiet stretch
                machine.sv.running.add(5)     # core 5 is free
                seen.append(counts["phase"])

    machine.events = TamperingEvents()
    with pytest.raises(InvariantViolation, match="partition"):
        machine.run_to_halt()
    assert seen and counts["phase"] == seen[0]   # no SV phase since


def test_a_fallback_block_end_wakes_a_sister_waiter():
    # Root's QAlloc is denied (core 1 runs A), so its QFCreate body runs
    # on core 0 as QT 12, closed by the bracket QTerm.  A waits on it.
    source = """
        QCreate AT,%eno
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        QPWait -1            # A: wait for the sister QTs
AT:     QTerm
        irmovl $1,%ecx
        QAlloc 1,%ecx
        QTCreate TT,%eno
        nop
TT:     QTerm
        QFCreate FT,%eno
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        nop
FT:     QTerm
        QWait -1
        halt
"""
    assert _assert_same_run(source, 2)["error"] is None
    machine = _machine(source, 2)
    events, _ = machine.run_to_halt()
    begin = [ev for ev in events if ev.kind == tr.WAIT_BEGIN and ev.qt == "11"]
    end = [ev for ev in events if ev.kind == tr.WAIT_END and ev.qt == "11"]
    fallback_end = [ev for ev in events
                    if ev.kind == tr.QT_TERMINATED and ev.qt == "12"]
    assert begin and fallback_end[0].cycle > begin[0].cycle
    assert end[0].cycle == fallback_end[0].cycle + 1


# ---- an in-flight instruction's address is its core's pc -----------------

def _inflight_checks(machine, max_cycles=50000):
    """Tick until the machine halts, fails or reaches max_cycles; after
    every tick, each core with an instruction in flight must find that
    entry decoded at its pc.  Returns how many in-flight cores were
    checked."""
    checked = 0
    while not machine.halted and machine.clock < max_cycles:
        try:
            machine.tick()
        except SimulationError:
            break
        for core in machine.cores:
            if core.inflight is not None:
                assert machine.decode_at(core.pc) is core.inflight, \
                    (machine.clock, core.index)
                checked += 1
    return checked


# Every instruction two cycles long: each is in flight after a tick.
_TWO_CYCLES = {name: 2 for name in engine.DEFAULT_TIMING}


@pytest.mark.parametrize("cores", (1, 2, 5, 64))
@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_an_inflight_instruction_is_decoded_at_its_cores_pc(name, cores):
    source = fixtures.FIXTURES[name]()
    _inflight_checks(_machine(source, cores))
    assert _inflight_checks(_machine(
        source, cores, timing=engine.TimingConfig(_TWO_CYCLES)))


def test_an_inflight_instruction_is_decoded_at_its_cores_pc_on_trees():
    checked = 0
    for trial, (source, cores) in enumerate(_random_trees()):
        for timing in (None, engine.TimingConfig(_TWO_CYCLES)):
            machine = _machine(source, cores, timing=timing)
            checked += _inflight_checks(machine)
            assert machine.halted, trial
    assert checked
