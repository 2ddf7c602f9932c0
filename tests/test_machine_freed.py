"""A dropped machine is freed by reference counting.

The supervisor keeps core indices only and the cores' owner is the
supervisor, so neither the machine nor its cores sit in a reference
cycle; a live QT holds its parent through a weak reference.  So once
the last reference to a machine goes, its events, decode cache, cores
and QT descriptors go with it, with no collection, also after a
deadlock, a fault or an exhausted budget once the exception is gone.

Each case runs with the collector off, drops the machine, its events
and any exception, and requires a weak reference to the machine to be
dead and `gc.collect()` to find nothing.  Programs are assembled before
the collector is turned off, so only the run's own objects count.
"""

import gc
import weakref

import pytest

from empa import assembler, engine, fixtures
from empa.errors import (Deadlock, RuntimeFault, SimulationError,
                         WatchdogExpired)
from helpers import bench_workloads

HALT_IN_CHILD = """
        QCreate CT,%eno
        nop                   # core 1: the child QT
        halt                  # core 1: faults, "halt outside the root QT"
CT:     QTerm
L:      jmp L
"""


def _outcome(machine, drive):
    """Run `drive(machine)`; the class of the error it raised, or None.
    The exception is gone when this returns."""
    try:
        drive(machine)
    except SimulationError as exc:
        return type(exc)
    return None


def _run_and_drop(image, cores, drive, mem_bytes=4096):
    """Build and drive a machine in a frame of its own, then drop it;
    returns the outcome and a weak reference to the machine."""
    machine = engine.Machine(image, engine.MachineConfig(
        cores=cores, mem_bytes=mem_bytes))
    return _outcome(machine, drive), weakref.ref(machine)


def _to_halt(machine):
    events, _ = machine.run_to_halt()
    assert len(events) == len(machine.events) > 0


def _freed(image, cores, drive=_to_halt, mem_bytes=4096):
    """The outcome of the run; asserts that dropping its machine frees
    it with the collector off and leaves no garbage for the collector."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        outcome, ref = _run_and_drop(image, cores, drive, mem_bytes)
        assert ref() is None
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    return outcome


@pytest.mark.parametrize("cores", (1, 2, 5, 64))
@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_a_fixture_run_is_freed_without_the_collector(name, cores):
    image = assembler.assemble(fixtures.FIXTURES[name]())
    outcome = _freed(image, cores)
    # dynpar needs four cores; on fewer it deadlocks by design, on 2
    # with QT 11 still alive in the root's live children
    assert outcome is (Deadlock if name == "dynpar" and cores < 4 else None)


@pytest.mark.parametrize("workload", ("serial_wide", "for_stream",
                                      "walkthrough_batch"))
def test_the_bench_programs_are_freed_without_the_collector(workload):
    programs = bench_workloads().generate(workload, 0)
    images = [assembler.assemble(p.source, p.mem_bytes) for p in programs]
    for program, image in zip(programs, images):
        assert _freed(image, program.cores, mem_bytes=program.mem_bytes) is None


def test_a_faulted_machine_is_freed():
    image = assembler.assemble(HALT_IN_CHILD)
    assert _freed(image, 2) is RuntimeFault


def test_a_machine_out_of_budget_mid_loop_is_freed():
    """The budget runs out while a FOR child is alive."""
    image = assembler.assemble(fixtures.adaptive_source(list(range(1, 51))))
    outcome = _freed(image, 2, lambda m: m.run_to_halt(max_cycles=100))
    assert outcome is WatchdogExpired


def test_a_machine_dropped_between_ticks_is_freed():
    """As the step REPL leaves it: a few ticks in, with live QTs."""
    image = assembler.assemble(fixtures.FIXTURES["for_mode"]())

    def ticks(machine):
        for _ in range(12):
            machine.tick()
        assert len(machine.live_qts()) > 1

    assert _freed(image, 4, ticks) is None
