"""The seams the traced benchmark times through.

`bench/run.py` `_instrument` times the SV phase and the invariant
checker by replacing them on the machine and supervisor instances, and
decoding by replacing `isa.decode` on the module.  A change to the
engine that stops calling one of them through its seam would leave
that layer's per-layer metrics at 0 with no error, so these tests run
the instrumented machine and count the calls the tracer saw.  The
wrappers sit on the instances, so once they are undone a traced machine
must still be freed by reference counting, like an untraced one.
"""

import functools
import gc
import importlib.util
import weakref
from pathlib import Path

from empa import assembler, engine, trace as tr
from helpers import bench_workloads

BENCH = Path(__file__).resolve().parent.parent / "bench"


@functools.lru_cache(maxsize=None)
def _bench_module(name):
    spec = importlib.util.spec_from_file_location(
        "bench_" + name, BENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dynpar_program():
    return next(p for p in bench_workloads().generate("walkthrough_batch", 0)
                if p.builder == "dynpar")


def test_the_traced_bench_sees_every_layer_call():
    run, spans = _bench_module("run"), _bench_module("spans")
    program = _dynpar_program()
    image = assembler.assemble(program.source, program.mem_bytes)
    machine = engine.Machine(image, engine.MachineConfig(
        cores=program.cores, mem_bytes=program.mem_bytes))
    ticks = []
    tick = machine.tick

    def counted_tick():
        ticks.append(machine.clock)
        tick()

    machine.tick = counted_tick
    tracer = spans.Tracer()
    undo = run._instrument(machine, tracer, [0, 0, 0])
    try:
        machine.run_to_halt()
    finally:
        undo()
    calls = {name: row[2]
             for name, row in spans.totals_by_name(tracer.spans).items()}
    decoded = ({ev.addr for ev in machine.events
                if ev.kind in (tr.INSTR_RETIRED, tr.META_RETIRED)}
               | {core.pc for core in machine.cores
                  if core.inflight is not None})
    assert len(decoded) > 10 and machine.clock > len(ticks) > 1
    assert calls.get("isa.decode", 0) == len(decoded)
    assert calls.get("supervisor.phase", 0) == len(ticks)
    assert calls.get("engine.check_invariants", 0) >= 1


def _traced_run(image, program, run, tracer):
    """Run one program as the traced bench does; a weak reference to its
    machine, which is dropped on return."""
    machine = engine.Machine(image, engine.MachineConfig(
        cores=program.cores, mem_bytes=program.mem_bytes))
    undo = run._instrument(machine, tracer, [0, 0, 0])
    try:
        machine.run_to_halt()
    finally:
        undo()
    assert machine.halted
    return weakref.ref(machine)


def test_a_traced_machine_is_freed_without_the_collector():
    run, spans = _bench_module("run"), _bench_module("spans")
    program = _dynpar_program()
    image = assembler.assemble(program.source, program.mem_bytes)
    tracer = spans.Tracer()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        ref = _traced_run(image, program, run, tracer)
        assert ref() is None
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert tracer.spans
