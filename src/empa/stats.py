"""Performance statistics over a finished trace.

A core is busy in every cycle that one of its QT spans
(`trace.qt_spans`) covers; busy cycles and peak concurrency follow.

Speedup is measured against a supplied baseline cycle count; effective
parallelization inverts Amdahl's law at the observed speedup, with the
k = 1 singularity defined as 1.  The model calculator reproduces the
closed-form parallelization/speedup/efficiency numbers for the textbook
comparison of parallelism models, in exact rational arithmetic.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import trace as tr


def alpha_eff(k, s):
    """Effective parallelization inferred from speedup s on k cores."""
    if k == 1:
        return 1.0
    return (k / (k - 1)) * (1.0 - 1.0 / s)


def model_calculator(ops, cycles, units):
    """(parallelization, speedup, efficiency) for `ops` operations done
    in `cycles` machine cycles on `units` processing units.  Accepts and
    returns exact rationals; cycles/units may be fractional (rent-cost
    model)."""
    ops = Fraction(ops)
    cycles = Fraction(cycles)
    units = Fraction(units)
    if ops <= 0 or cycles <= 0 or units <= 0:
        raise ValueError("model inputs must be positive")
    speedup = ops / cycles
    return speedup, speedup, speedup / units


@dataclass
class Stats:
    total_cycles: int
    cores: int
    cores_used: int
    per_core_busy: list
    max_concurrent: int
    speedup: float = None
    alpha_eff: float = None


def _core_runs(spans):
    """Each core's spans merged into disjoint [core, start, end] ranges."""
    runs = []
    for span in sorted(spans, key=lambda s: (s.core, s.start)):
        if runs and runs[-1][0] == span.core and span.start <= runs[-1][2]:
            runs[-1][2] = max(runs[-1][2], span.end)
        else:
            runs.append([span.core, span.start, span.end])
    return runs


def compute_stats(events, cores, baseline_cycles=None):
    """Statistics for a complete trace produced on a `cores`-core run."""
    spans, total_cycles = tr.spans_on(events, cores)
    runs = _core_runs(spans)
    busy = [0] * cores
    for core, start, end in runs:
        busy[core] += end - start + 1
    # sweep: a run ending at c frees its core at c + 1 (frees sort first)
    busy_cores = max_concurrent = 0
    for _, step in sorted([(start, 1) for _, start, _ in runs] +
                          [(end + 1, -1) for _, _, end in runs]):
        busy_cores += step
        max_concurrent = max(max_concurrent, busy_cores)
    stats = Stats(
        total_cycles=total_cycles,
        cores=cores,
        cores_used=sum(1 for b in busy if b),
        per_core_busy=busy,
        max_concurrent=max_concurrent,
    )
    if baseline_cycles is not None:
        if total_cycles == 0:
            raise ValueError("the trace ends at cycle 0, so it has no cycle "
                             "count to set against the baseline")
        if baseline_cycles <= 0:
            raise ValueError("baseline cycle count must be positive")
        stats.speedup = baseline_cycles / total_cycles
        stats.alpha_eff = alpha_eff(cores, stats.speedup)
    return stats


def format_stats(stats):
    """Machine-readable key-value form (also the human-facing one)."""
    lines = [
        "totalCycles=%d" % stats.total_cycles,
        "cores=%d" % stats.cores,
        "coresUsed=%d" % stats.cores_used,
        "maxConcurrent=%d" % stats.max_concurrent,
        "perCoreBusyCycles=%s" % ",".join(str(b) for b in stats.per_core_busy),
    ]
    if stats.speedup is not None:
        lines.append("speedup=%.6f" % stats.speedup)
        lines.append("alphaEff=%.6f" % stats.alpha_eff)
    return "\n".join(lines) + "\n"


def _baseline_cycles(text):
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("totalCycles="):
            value = line.partition("=")[2]
            try:
                return int(value)
            except ValueError:
                raise ValueError("totalCycles in baseline file is not an "
                                 "integer: %r" % value) from None
    stripped = text.strip()
    if stripped:
        try:
            return int(stripped.split()[0], 0)
        except ValueError:
            pass
    raise ValueError("no totalCycles in baseline file")


def parse_baseline(text):
    """Baseline cycles from a stats key-value file or a bare integer;
    ValueError unless that is a positive count."""
    cycles = _baseline_cycles(text)
    if cycles <= 0:
        raise ValueError("baseline cycle count must be positive, not %d"
                         % cycles)
    return cycles
