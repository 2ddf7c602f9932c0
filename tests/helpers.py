"""Shared helpers for the test suite."""

from hypothesis import strategies as st

from empa import assembler, engine, fixtures, trace as tr
from empa.errors import Deadlock


def assemble_run(source, cores=8, watchdog=10000, timing=None, max_cycles=200000):
    """Assemble, run to halt, return (image, machine, events)."""
    image = assembler.assemble(source)
    cfg = engine.MachineConfig(cores=cores, watchdog=watchdog,
                               timing=timing or engine.TimingConfig())
    machine = engine.Machine(image, cfg)
    events, machine = machine.run_to_halt(max_cycles=max_cycles)
    return image, machine, events


def make_machine(source, cores=8, watchdog=10000):
    image = assembler.assemble(source)
    cfg = engine.MachineConfig(cores=cores, watchdog=watchdog)
    return image, engine.Machine(image, cfg)


def word(machine, image, label):
    return machine.memory.read_word(image.symbols[label])


class CountingList(list):
    """A list that counts how often it is iterated from the start."""
    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def fixture_trace(name, cores):
    """The fixture's events on `cores` cores, up to a deadlock if any."""
    _, machine = make_machine(fixtures.FIXTURES[name](), cores=cores)
    try:
        machine.run_to_halt()
    except Deadlock:
        pass
    return machine.events


# QT ids for generated traces: the id grammar's shapes, plus ids that a
# parsed trace may hold (any non-blank characters, or none) with XML
# specials in the id and in its parent's id.
QT_IDS = ("1", "11", "12", "111", "1(36)", "", "1&", "1&2", '1"', '1"<',
          "1>", '1(<&">)')


@st.composite
def event_lists(draw):
    """(cores, events): up to 40 arbitrary events on 1..5 cores."""
    cores = draw(st.integers(1, 5))
    event = st.builds(tr.Event,
                      cycle=st.integers(0, 30),
                      core=st.integers(0, cores - 1),
                      qt=st.sampled_from(QT_IDS),
                      kind=st.sampled_from(sorted(tr.KINDS)),
                      addr=st.integers(0, 3),
                      payload=st.sampled_from((None, 1, 2, 3)))
    return cores, draw(st.lists(event, max_size=40))
