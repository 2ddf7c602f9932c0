"""Self-tests of the benchmark's own code.

    python3 -m pytest -q bench
"""

import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_times, totals_by_name  # noqa: E402


def _shape(programs):
    return [(p.builder, p.cores, p.source, p.mem_bytes, p.expect)
            for p in programs]


def test_generator_is_deterministic_for_a_seed():
    for name in run.WORKLOADS:
        assert _shape(workloads.generate(name, 7)) == \
            _shape(workloads.generate(name, 7))
        assert _shape(workloads.generate(name, 7)) != \
            _shape(workloads.generate(name, 8))


def test_batch_covers_every_builder_and_core_range():
    programs = workloads.generate("walkthrough_batch", 3)
    p = workloads.PARAMS["walkthrough_batch"]
    assert len(programs) == p["per_builder"] * len(p["builders"])
    assert {q.builder for q in programs} == set(p["builders"])
    for q in programs:
        lo, hi = p["dynpar_cores"] if q.builder == "dynpar" else p["cores"]
        assert lo <= q.cores <= hi
        if q.builder != "dynpar":
            assert p["words"][0] <= q.words <= p["words"][1]
    pairing = workloads._pairing(p["per_builder"])
    assert sorted(pairing) == list(range(p["per_builder"]))
    assert all(abs(i - j) >= 2 for i, j in enumerate(pairing))


def test_expected_results_match_a_run():
    for q in workloads.generate("walkthrough_batch", 5)[:20]:
        out = run.run_program(q)
        assert out.ok, out.error


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("bench.program", prog=4) as root:
        clock.now = 1.0
        with tracer.span("engine.run") as run_span:
            clock.now = 2.0
            with tracer.span("supervisor.phase"):
                clock.now = 2.5
            clock.now = 4.0
        clock.now = 4.5
        with tracer.span("diagram.svg"):
            clock.now = 6.0
        clock.now = 7.0
    own = self_times(tracer.spans)
    assert root.busy == 7.0 and run_span.busy == 3.0
    assert own[root.id] == 7.0 - 3.0 - 1.5       # grandchild not subtracted
    assert own[run_span.id] == 3.0 - 0.5
    assert sum(own.values()) == root.busy
    assert {s.prog for s in tracer.spans} == {4}


def test_wrap_folds_calls_into_one_aggregate_per_parent():
    clock = FakeClock()
    tracer = Tracer(clock)

    def tick():
        clock.now += 0.25

    phase = tracer.wrap(tick, "supervisor.phase")
    for prog in (0, 1):
        with tracer.span("engine.run", prog=prog):
            for _ in range(4):
                phase()
                clock.now += 1.0
    totals = totals_by_name(tracer.spans)
    assert totals["supervisor.phase"] == [2.0, 2.0, 8]
    assert totals["engine.run"][1] == 8.0            # self: 2 x 4 x 1.0
    aggregates = [s for s in tracer.spans if s.name == "supervisor.phase"]
    assert [(s.prog, s.calls) for s in aggregates] == [(0, 4), (1, 4)]


def test_compare_flags_a_worse_median():
    metric = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}
    result = lambda v: {"correct": True,
                        "metrics": {"wall_s": {"value": v, "unit": "s"}}}
    same = [result(v) for v in (1.0, 1.01, 0.99, 1.0)]
    slower = [result(v) for v in (1.2, 1.21, 1.19, 1.2)]
    row, = compare.compare({"a": same, "b": same}, [metric])
    assert row["agree"] and row["b_wins"] == 0
    row, = compare.compare({"a": same, "b": slower}, [metric])
    assert not row["agree"] and abs(row["b_worse_by"] - 0.2) < 1e-9


def test_probe_clock_is_monotonic_and_scaled_by_probe_speed():
    from probe import REF_PROBE_S, SpeedProbe
    with SpeedProbe(interval=0.005) as probe:
        first = len(probe.samples) - 1
        host0, ref0 = probe.host_clock(), probe.clock()
        last = ref0
        while probe.host_clock() - host0 < 0.2:
            now = probe.clock()
            assert now >= last
            last = now
        host, ref = probe.host_clock() - host0, probe.clock() - ref0
        took = probe.samples[first:]
    assert len(took) > 10
    rate = ref / host
    assert 0.98 * REF_PROBE_S / max(took) <= rate <= 1.02 * REF_PROBE_S / min(took)


def test_reference_time_grows_by_the_same_share_as_host_time():
    """Extra work in the measured region, here a cache-missing walk over
    a 2^19-entry table next to some empa programs, must add the same
    share to reference seconds as to host seconds; the probe itself must
    not be slowed by it.  Plain and extended regions alternate quickly,
    so drift of the host's speed falls on both alike."""
    from probe import SpeedProbe
    programs = workloads.generate("walkthrough_batch", 5)[:3]
    table = list(range(1 << 19))
    random.Random(1).shuffle(table)

    def walk(steps):
        i = 0
        for _ in range(steps):
            i = table[i]
        return i

    host, ref = [0.0, 0.0], [0.0, 0.0]
    with SpeedProbe(interval=0.005) as probe:
        for _ in range(12):
            for extra in (0, 1):
                host0, ref0 = probe.host_clock(), probe.clock()
                for q in programs:
                    assert run.run_program(q).ok
                if extra:
                    walk(100000)
                host[extra] += probe.host_clock() - host0
                ref[extra] += probe.clock() - ref0
    host_growth, ref_growth = host[1] / host[0], ref[1] / ref[0]
    assert host_growth > 1.1
    assert abs(ref_growth / host_growth - 1) < 0.1


def _broken_programs(n):
    good = workloads.generate("walkthrough_batch", 2)[0]
    return [workloads.Program(good.builder, good.cores, good.words,
                              "not an instruction\n", good.mem_bytes,
                              good.expect) for _ in range(n)]


def test_a_run_where_every_program_fails_still_reports():
    from spans import Tracer
    programs = _broken_programs(3)
    tracer = Tracer()
    iterations = [run.run_iteration(programs),
                  run.run_iteration(programs, tracer=tracer)]
    assert all(it.failed == len(programs) for it in iterations)
    e2e = run.end_to_end(iterations)
    assert e2e["sim_cycles_per_s"][0] == 0.0
    layers = run.per_layer(iterations, tracer, 1.0)
    assert layers["isa.decode_per_instr"][0] == 0.0
    assert layers["engine.active_core_ratio"][0] == 0.0


def test_compare_disagrees_on_an_incorrect_run():
    metric = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}
    result = lambda v, ok=True: {"correct": ok, "failed": 0 if ok else 1,
                                 "metrics": {"wall_s": {"value": v,
                                                        "unit": "s"}}}
    a = [result(v) for v in (1.0, 1.01, 0.99, 1.0)]
    b = a[:3] + [result(0.98, ok=False)]
    row, = compare.compare({"a": a, "b": b}, [metric])
    assert not row["agree"] and not row["correct"]


def test_compare_checks_the_spread_of_setup_s_too():
    metric = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}
    result = lambda v: {"correct": True,
                        "metrics": {"setup_s": {"value": v, "unit": "s"}}}
    wide = [result(v) for v in (0.8, 1.0, 1.2, 1.0)]
    row, = compare.compare({"a": wide, "b": wide}, [metric])
    assert not row["agree"]
