"""The empa benchmark: one seeded workload through the whole pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every program of the workload goes source -> ``assemble`` -> ``Machine()``
-> ``run_to_halt`` -> ``format_trace`` -> ``parse_trace`` ->
``compute_stats`` -> ``render_ascii`` -> ``render_diagram``, one after
another in this single process (a closed loop with one caller).  One
iteration runs every program once; iterations repeat until ``--seconds``
have passed.  Before timing, the run checks the simulator against the
paper's walk-through cycle counts and the workload's recorded trace
hashes.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates plain and traced iterations and reports the per-layer
metrics.  The last line of standard output is the JSON result.  See
bench/README.md for the metric key.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RECORD = BENCH / "record.json"
SPAN_DIR = ROOT / ".bench_out"

# The paper's walk-through cycle counts (README "Fixtures"): builder,
# cores, cycles.  They are the only reference the model has.
ANCHORS = (("adaptive", 5, 21), ("adaptive", 4, 38), ("adaptive", 1, 65),
           ("no_mode", 1, 53))

WORKLOADS = ("serial_wide", "for_stream", "walkthrough_batch")

# Names of the spans the traced run records around each call.
LAYER_SPANS = ("assembler.assemble", "engine.machine_init", "engine.run",
               "engine.check_invariants", "supervisor.phase", "isa.decode",
               "trace.format", "trace.parse", "stats.compute",
               "diagram.ascii", "diagram.svg")
PROGRAM_SPAN = "bench.program"


def load_empa():
    """Import empa from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "empa" / "__init__.py").is_file():
        sys.exit("bench: no empa sources at %s" % src)
    sys.path.insert(0, str(src))
    import empa
    if Path(empa.__file__).resolve().parent != src / "empa":
        sys.exit("bench: imported empa from %s, not %s" % (empa.__file__, src))


class Outcome:
    """What one program's pipeline produced, with its host timings."""

    def __init__(self):
        self.ok = True
        self.error = None
        self.setup_s = self.run_s = self.wall_s = 0.0
        self.cycles = self.instrs = self.events = 0
        self.trace_text = ""
        self.trace_bytes = self.svg_bytes = 0
        self.busy_core_cycles = self.qt_created = 0
        self.sv = [0, 0, 0]        # requests, requeued, max queue


def _no_span(name, prog=None):
    return contextlib.nullcontext()


def _instrument(machine, tracer, sv_counts):
    """Swap timing wrappers into the tick loop; returns the undo."""
    from empa import isa
    sv = machine.sv
    phase = sv.phase
    decode = isa.decode

    def counted_phase(cycle):
        before = len(sv.queue)
        phase(cycle)
        sv_counts[0] += before
        sv_counts[1] += len(sv.queue)
        sv_counts[2] = max(sv_counts[2], before)

    sv.phase = tracer.wrap(counted_phase, "supervisor.phase")
    machine._check_invariants = tracer.wrap(machine._check_invariants,
                                            "engine.check_invariants")
    isa.decode = tracer.wrap(decode, "isa.decode")

    def undo():
        del sv.phase
        del machine._check_invariants
        isa.decode = decode
    return undo


def run_program(prog, tracer=None, prog_id=None, clock=time.perf_counter):
    """One program through the whole pipeline."""
    from empa import assembler, diagram, engine, stats, trace
    span = tracer.span if tracer else _no_span
    out = Outcome()
    try:
        with span(PROGRAM_SPAN, prog=prog_id) as root:
            t0 = clock()
            with span("assembler.assemble"):
                image = assembler.assemble(prog.source, prog.mem_bytes)
            with span("engine.machine_init"):
                machine = engine.Machine(image, engine.MachineConfig(
                    cores=prog.cores, mem_bytes=prog.mem_bytes))
            t1 = clock()
            with span("engine.run"):
                undo = _instrument(machine, tracer, out.sv) if tracer else None
                try:
                    events, _ = machine.run_to_halt()
                finally:
                    if undo:
                        undo()
            t2 = clock()
            with span("trace.format"):
                text = trace.format_trace(events)
            with span("trace.parse"):
                parsed = trace.parse_trace(text)
            with span("stats.compute"):
                st = stats.compute_stats(parsed, prog.cores)
            with span("diagram.ascii"):
                diagram.render_ascii(parsed, prog.cores)
            with span("diagram.svg"):
                svg = diagram.render_diagram(parsed, prog.cores)
            t3 = clock()
    except Exception:     # a failed program is counted, the run goes on
        out.ok = False
        out.error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        return out
    out.setup_s, out.run_s = t1 - t0, t2 - t1
    out.wall_s = root.busy if tracer else t3 - t0
    out.cycles = machine.clock
    out.trace_text = text
    out.trace_bytes = len(text)
    out.events = len(events)
    out.instrs = sum(1 for ev in events
                     if ev.kind in (trace.INSTR_RETIRED, trace.META_RETIRED))
    out.qt_created = sum(1 for ev in events if ev.kind == trace.QT_CREATED)
    out.svg_bytes = len(svg)
    out.busy_core_cycles = sum(st.per_core_busy)
    for symbol, want in prog.expect.items():
        got = machine.memory.read_word(image.symbols[symbol])
        if got != want:
            out.ok = False
            out.error = "%s = 0x%08x, expected 0x%08x" % (symbol, got, want)
    return out


class Iteration:
    """Every program of the workload run once."""

    def __init__(self, programs, outcomes, traced):
        self.traced = traced
        self.outcomes = outcomes
        self.host_s = 0.0         # host seconds, probes left out
        self.failed = sum(1 for o in outcomes if not o.ok)
        self.wall_s = sum(o.wall_s for o in outcomes)
        self.setup_s = sum(o.setup_s for o in outcomes)
        self.run_s = sum(o.run_s for o in outcomes)
        self.cycles = sum(o.cycles for o in outcomes)
        self.instrs = sum(o.instrs for o in outcomes)
        self.core_slots = sum(p.cores * o.cycles
                              for p, o in zip(programs, outcomes))
        digest = hashlib.sha256()
        self.signatures = []      # (cycles, trace sha256) per program
        for o in outcomes:
            data = o.trace_text.encode()
            digest.update(data)
            self.signatures.append((o.cycles, hashlib.sha256(data).digest()))
            o.trace_text = None
        self.trace_sha256 = digest.hexdigest()


def run_iteration(programs, tracer=None, first_id=0, clock=time.perf_counter):
    outcomes = [run_program(p, tracer, first_id + i, clock)
                for i, p in enumerate(programs)]
    return Iteration(programs, outcomes, tracer is not None)


def check_anchors():
    """Cycle error against the paper's walk-through counts (0 = exact)."""
    from empa import assembler, engine, fixtures
    error, lines = 0, []
    for builder, cores, want in ANCHORS:
        image = assembler.assemble(fixtures.FIXTURES[builder]())
        machine = engine.Machine(image, engine.MachineConfig(cores=cores))
        machine.run_to_halt()
        error += abs(machine.clock - want)
        lines.append("%s@%d=%d (paper %d)" % (builder, cores, machine.clock,
                                              want))
    return error, lines


def check_gate(workload, workloads):
    """Run the recorded gate seed through the whole pipeline, which also
    warms the process up; returns (programs, failed, message)."""
    with open(RECORD) as fh:
        record = json.load(fh)["gate"][workload]
    programs = workloads.generate(workload, record["seed"])
    it = run_iteration(programs)
    same = (it.cycles == record["sim_cycles"]
            and it.trace_sha256 == record["trace_sha256"])
    message = "gate seed %d: sim_cycles=%d (record %d) trace_sha256=%s (record %s)" % (
        record["seed"], it.cycles, record["sim_cycles"], it.trace_sha256[:16],
        record["trace_sha256"][:16])
    failed = it.failed if same else len(programs)
    return len(programs), failed, message + (" ok" if same else " MISMATCH")


def measure(programs, seconds, traced_too):
    """Iterate until ``seconds`` have passed.  With ``traced_too``,
    iterations alternate plain and traced, at least one of each.  Times
    are taken in reference seconds; returns the iterations, the tracer
    and the reference seconds per host second over the measurement."""
    from probe import SpeedProbe
    from spans import Tracer
    iterations = []
    deadline = time.perf_counter() + seconds
    with SpeedProbe() as probe:
        tracer = Tracer(probe.clock) if traced_too else None
        host0, ref0 = probe.host_clock(), probe.clock()
        while True:
            traced = traced_too and len(iterations) % 2 == 1
            host = probe.host_clock()
            it = run_iteration(programs, tracer=tracer if traced else None,
                               first_id=len(iterations) * len(programs),
                               clock=probe.clock)
            it.host_s = probe.host_clock() - host
            iterations.append(it)
            enough = len(iterations) >= (2 if traced_too else 1)
            if enough and time.perf_counter() >= deadline:
                factor = (probe.clock() - ref0) / (probe.host_clock() - host0)
                return iterations, tracer, factor


def determinism_failures(iterations):
    """Programs whose cycles or trace differ from the first iteration."""
    ref = iterations[0].signatures
    return sum(1 for it in iterations[1:]
               for a, b in zip(ref, it.signatures) if a != b)


def ratio(num, den):
    """num / den, or 0 when every program failed and den is 0: a broken
    run still prints its result, with ``correct`` false."""
    return num / den if den else 0.0


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def end_to_end(iterations):
    """Metric name -> (value, unit, note); times in reference seconds."""
    n = len(iterations)
    med = lambda f: statistics.median(f(it) for it in iterations)
    latencies = [o.wall_s * 1e3 for it in iterations for o in it.outcomes]
    return {
        "wall_s": (med(lambda it: it.wall_s), "s", "median of %d" % n),
        "setup_s": (med(lambda it: it.setup_s), "s", "median of %d" % n),
        "sim_cycles_per_s": (med(lambda it: ratio(it.cycles, it.run_s)),
                             "cycles/s", "median of %d" % n),
        "sim_instr_per_s": (med(lambda it: ratio(it.instrs, it.run_s)),
                            "instr/s", "median of %d" % n),
        "prog_p50_ms": (statistics.median(latencies), "ms",
                        "of %d programs" % len(latencies)),
        "prog_p99_ms": (percentile(latencies, 0.99), "ms",
                        "of %d programs" % len(latencies)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB", "whole process"),
        "sim_cycles": (iterations[0].cycles, "cycles", "per iteration, exact"),
    }


def per_layer(iterations, tracer, factor):
    """Per-layer metric name -> (value, unit, note), per traced iteration;
    ``factor`` is the reference seconds per host second of the run."""
    from spans import totals_by_name
    traced = [it for it in iterations if it.traced]
    plain = [it for it in iterations if not it.traced]
    k = len(traced)
    totals = totals_by_name(tracer.spans)
    busy = lambda name: totals.get(name, [0.0, 0.0, 0])[0] / k
    own = lambda name: totals.get(name, [0.0, 0.0, 0])[1] / k
    calls = lambda name: totals.get(name, [0.0, 0.0, 0])[2] // k
    outs = [o for it in traced for o in it.outcomes]
    per_it = lambda f: sum(f(o) for o in outs) // k
    it0 = traced[0]
    requests, requeued = per_it(lambda o: o.sv[0]), per_it(lambda o: o.sv[1])
    traced_wall = sum(it.wall_s for it in traced) / k
    layer_self = sum(own(name) for name in LAYER_SPANS)
    note = "mean of %d traced iterations" % k
    m = {
        "assembler.assemble_s": (own("assembler.assemble"), "s"),
        "assembler.calls": (calls("assembler.assemble"), "count"),
        "engine.machine_init_s": (own("engine.machine_init"), "s"),
        "engine.run_s": (busy("engine.run"), "s"),
        "engine.tick_self_s": (own("engine.run"), "s"),
        "engine.ticks": (it0.cycles, "count"),
        "engine.core_slots": (it0.core_slots, "count"),
        "engine.active_core_ratio": (
            ratio(per_it(lambda o: o.busy_core_cycles), it0.core_slots),
            "ratio"),
        "engine.invariants_s": (own("engine.check_invariants"), "s"),
        "engine.invariant_calls": (calls("engine.check_invariants"), "count"),
        "supervisor.phase_s": (own("supervisor.phase"), "s"),
        "supervisor.phase_calls": (calls("supervisor.phase"), "count"),
        "supervisor.requests": (requests, "count"),
        "supervisor.requeued": (requeued, "count"),
        "supervisor.max_queue": (max(o.sv[2] for o in outs), "count"),
        "supervisor.served_ratio": (
            1.0 - requeued / requests if requests else 1.0, "ratio"),
        "supervisor.qt_created": (per_it(lambda o: o.qt_created), "count"),
        "isa.decode_calls": (calls("isa.decode"), "count"),
        "isa.decode_s": (own("isa.decode"), "s"),
        "isa.decode_per_instr": (ratio(calls("isa.decode"), it0.instrs),
                                 "ratio"),
        "trace.format_s": (own("trace.format"), "s"),
        "trace.parse_s": (own("trace.parse"), "s"),
        "trace.events": (per_it(lambda o: o.events), "count"),
        "trace.bytes": (per_it(lambda o: o.trace_bytes), "bytes"),
        "stats.compute_s": (own("stats.compute"), "s"),
        "diagram.ascii_s": (own("diagram.ascii"), "s"),
        "diagram.svg_s": (own("diagram.svg"), "s"),
        "diagram.qt_spans": (per_it(lambda o: o.qt_created + 1), "count"),
        "diagram.svg_bytes": (per_it(lambda o: o.svg_bytes), "bytes"),
        "bench.traced_wall_s": (traced_wall, "s"),
        "bench.unattributed_s": (traced_wall - layer_self, "s"),
        "bench.trace_overhead": (
            ratio(statistics.median(it.wall_s for it in traced),
                  statistics.median(it.wall_s for it in plain)), "ratio"),
        "bench.host_wall_s": (
            statistics.median(it.host_s for it in plain), "s",
            "median of %d plain iterations, host seconds" % len(plain)),
        "bench.ref_per_host": (factor, "ratio", "over the measurement"),
    }
    # Entries without a note of their own get ``note``.
    return {name: (entry + (note,))[:3] for name, entry in m.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_empa()
    import workloads

    print("empa benchmark: workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("python %s, nproc %d" % (platform.python_version(), os.cpu_count()))
    correct = True
    try:
        model_error, anchor_lines = check_anchors()
    except Exception as exc:    # a broken simulator is a result, not a crash
        model_error, anchor_lines = None, ["anchor run failed: %r" % exc]
    correct &= model_error == 0
    print("model_error_cycles=%s: %s" % (model_error, ", ".join(anchor_lines)))
    print("  (the paper's walk-through counts are the only reference; the "
          "model is otherwise unvalidated against hardware)")

    attempted, failed, gate_line = check_gate(args.workload, workloads)
    print(gate_line)

    programs = workloads.generate(args.workload, args.seed)
    iterations, tracer, factor = measure(programs, args.seconds,
                                         args.trace == 1)
    attempted += sum(len(it.outcomes) for it in iterations)
    failed += sum(it.failed for it in iterations)
    for it in iterations:
        for o in it.outcomes:
            if not o.ok:
                print("FAILED: %s" % o.error)
    failed += determinism_failures(iterations)
    correct &= failed == 0
    print("iterations=%d programs/iteration=%d attempted=%d failed=%d "
          "fail_ratio=%.6f trace_sha256=%s" % (
              len(iterations), len(programs), attempted, failed,
              failed / attempted, iterations[0].trace_sha256))
    print("times in reference seconds; %.4f of them per host second over "
          "the measurement" % factor)
    if not args.trace:
        metrics = end_to_end(iterations)
    else:
        metrics = per_layer(iterations, tracer, factor)
        SPAN_DIR.mkdir(exist_ok=True)
        path = SPAN_DIR / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
        tracer.write(path)
        print("spans: %s (%d)" % (path.relative_to(ROOT), len(tracer.spans)))
    for name, (value, unit, note) in metrics.items():
        print("%-26s %16.6f %-9s %s" % (name, value, unit, note))
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
