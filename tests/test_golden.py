"""Golden outputs: every fixture on 1, 2, 4, 5, 8 and 64 cores, and a
40-item FOR run on 4 cores, give the recorded cycle count and the
recorded sha256 of the trace text, the ASCII and SVG diagrams and the
statistics; a run that deadlocks gives the recorded message.

A change meant to keep outputs byte-identical must pass this unchanged.
A change that alters them on purpose rewrites the record with

    PYTHONPATH=src python3 tests/test_golden.py

and says in CHANGES.md which entries moved and why.
"""

import hashlib
import json
import os

import pytest

from empa import diagram, engine, fixtures, stats, trace as tr
from empa.assembler import assemble
from empa.errors import Deadlock

RECORD = os.path.join(os.path.dirname(__file__), "golden_outputs.json")

PROGRAMS = {"%s@%d" % (name, cores): (builder, cores)
            for name, builder in sorted(fixtures.FIXTURES.items())
            for cores in (1, 2, 4, 5, 8, 64)}
PROGRAMS["for_mode_40@4"] = (
    lambda: fixtures.for_mode_source(list(range(1, 41))), 4)


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outputs(key):
    """The record entry of one program, computed by this tree."""
    builder, cores = PROGRAMS[key]
    machine = engine.Machine(assemble(builder()),
                             engine.MachineConfig(cores=cores))
    try:
        events, machine = machine.run_to_halt()
    except Deadlock as exc:
        return {"deadlock": str(exc)}
    text = tr.format_trace(events)
    parsed = tr.parse_trace(text)   # what `empa stats`/`diagram` read
    return {
        "cycles": machine.clock,
        "trace": _sha(text),
        "ascii": _sha(diagram.render_ascii(parsed, cores)),
        "svg": _sha(diagram.render_diagram(parsed, cores)),
        "stats": _sha(stats.format_stats(stats.compute_stats(parsed, cores))),
    }


def _record():
    with open(RECORD, encoding="utf-8") as fh:
        return json.load(fh)


def test_record_covers_every_program():
    assert sorted(_record()) == sorted(PROGRAMS)


@pytest.mark.parametrize("key", sorted(PROGRAMS))
def test_outputs_match_the_record(key):
    assert outputs(key) == _record()[key]


if __name__ == "__main__":
    with open(RECORD, "w", encoding="utf-8") as fh:
        json.dump({key: outputs(key) for key in sorted(PROGRAMS)}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
