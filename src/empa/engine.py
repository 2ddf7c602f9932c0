"""The cycle-accurate machine: global clock, shared multi-ported memory,
per-core instruction timing, event collection, halt detection and the
invariant checker.

Each tick runs the supervisor phase first (so a QTerm retired at cycle t
takes effect at t+1), then lets every running core burn one cycle of
its current instruction, retiring it when the budget reaches zero.
Identical inputs give identical machines and traces.

One cycle body (Machine._run_cores) steps the running cores: per core,
in ascending index order, the fetch with its decode-cache hit, the
countdown, the executor and the retire, all inline.  tick() runs it for
one full cycle: SV phase, cores, checker, watchdog.  run_to_halt()
gives the same machine and trace with less work: after a full tick that
leaves the SV idle (Supervisor.idle), the same body goes on through a
quiet stretch of cycles, with the watchdog and no SV phase, until some
core is touched, the machine halts or the cycle budget runs out, and
then the checker runs once.  Only a touch can give the SV work or
change the checked state sets, so the checker still sees every touched
core.

A tick costs the running cores plus the state changes it makes, not
the configured core count.  Every write to a core's state or qt goes
through a CoreState property, which calls Supervisor.state_written or
Supervisor.qt_written: the supervisor owns the core bookkeeping.  A
state write moves the core's index to the supervisor's set for its new
state, the one place where that set move happens, and marks the
machine's list of running cores stale (Supervisor.stale; the list is
rebuilt from the running set at the next cycle).  Either write touches
the core: it queues the core's index (Supervisor.touched) for the
invariant checker, which rechecks only touched cores, in one pass.  A
runtime fault parks the core that raised it.

A machine sits in no reference cycle, so dropping the last reference
to it frees it, events and all, with no collection.  The supervisor
keeps core indices only and holds no machine: the engine passes the
machine to the SV entries that need it (phase, idle, sumup_feed,
create_qt).  A core's owner is the supervisor, and a live QT holds its
parent through a weak reference.

Each code address is decoded once.  Machine.decode_at keeps, per pc,
the raw bytes and the entry decoded from them: the instruction, its
cycle count, its executor (coremodel.bind), the kind of event its
retirement emits and whether it is a halt, and reuses the entry only
while memory still holds those bytes.  A retiring core runs the
executor and appends the event of the entry's kind to the trace
itself; there is no dispatch on the opcode and no call to emit, which
records the SV's and the latches' events.  Decoding and binding are
pure functions of the bytes and the pc (and the fixed memory size), so
self-modifying code and writes by other cores need no invalidation.
"""
import math
from dataclasses import dataclass, field

from . import isa, trace as tr
from .assembler import DEFAULT_IMAGE_SIZE, ObjectImage
from .coremodel import (FOR_PARENT, FREE, MASSLOOP, PARKED, RUNNING, WAITING,
                        CoreState, bind)
from .errors import (AddressOutOfRange, Deadlock, ImageTooLarge,
                     InvariantViolation, RuntimeFault, WatchdogExpired)
from .supervisor import KIND_PLAIN, QTDescriptor, Supervisor
from .trace import INSTR_RETIRED, META_RETIRED, Event

_new = tuple.__new__

# instruction class -> default cycles; "arbitrary, but reasonable"
DEFAULT_TIMING = {
    "halt": 1, "nop": 1, "rrmovl": 1, "irmovl": 1, "opl": 1, "jxx": 1,
    "mrmovl": 3, "rmmovl": 3, "call": 2, "ret": 2, "pushl": 2, "popl": 2,
    "meta": 1,
}


# opcode -> instruction class: by opcode group (high nibble)
_GROUP_CLASS = {
    isa.HALT: "halt", isa.NOP: "nop", isa.RRMOVL: "rrmovl",
    isa.IRMOVL: "irmovl", isa.RMMOVL: "rmmovl", isa.MRMOVL: "mrmovl",
    isa.ADDL: "opl", isa.JMP: "jxx", isa.CALL: "call", isa.RET: "ret",
    isa.PUSHL: "pushl", isa.POPL: "popl", isa.QCREATE: "meta",
}
TIMING_CLASS = {op: _GROUP_CLASS[op & 0xF0] for op in isa.OPCODES}

MAX_CORES = 64          # the most cores a machine has


def _class_cycles(key, cycles):
    """`cycles` as the cycle count of instruction class `key`."""
    if key not in DEFAULT_TIMING:
        raise ValueError("unknown instruction class %r" % key)
    if type(cycles) is not int:
        raise ValueError("class %r: %r is not a whole number" % (key, cycles))
    if cycles < 1:
        raise ValueError("class %r needs at least 1 cycle" % key)
    return cycles


class TimingConfig:
    """Cycles per instruction class; a total function, everything >= 1."""

    def __init__(self, overrides=None):
        self.cycles = dict(DEFAULT_TIMING)
        for key, value in (overrides or {}).items():
            self.cycles[key] = _class_cycles(key, value)

    @classmethod
    def from_text(cls, text):
        """Parse `class = cycles` lines (# comments allowed); each error
        names its line."""
        overrides = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            try:
                if not sep:
                    raise ValueError("expected class=cycles")
                overrides[key] = _class_cycles(key, int(value.strip(), 0))
            except ValueError as exc:
                raise ValueError("line %d: %s" % (lineno, exc)) from None
        return cls(overrides)

    def cycles_for(self, opcode):
        return self.cycles[TIMING_CLASS[opcode]]


@dataclass
class MachineConfig:
    cores: int = 8
    mem_bytes: int = DEFAULT_IMAGE_SIZE
    timing: TimingConfig = field(default_factory=TimingConfig)
    watchdog: int = 10000

    def __post_init__(self):
        if not 1 <= self.cores <= MAX_CORES:
            raise ValueError("core count must be between 1 and %d" % MAX_CORES)
        if self.mem_bytes < 4:
            raise ValueError("memory must hold at least one 4-byte word")
        if self.watchdog < 1:
            raise ValueError("watchdog window must be at least 1 cycle")


class Memory:
    """Flat byte memory; multi-ported, any number of cores per cycle."""

    def __init__(self, data):
        self.data = bytearray(data)

    def _check(self, address, core, addr):
        if address + 4 > len(self.data) or address < 0:
            raise AddressOutOfRange("memory access at 0x%08x beyond image"
                                    % address, core=core, addr=addr)

    def read_word(self, address, core=None, addr=None):
        self._check(address, core, addr)
        return int.from_bytes(self.data[address:address + 4], "little")

    def write_word(self, address, value, core=None, addr=None):
        self._check(address, core, addr)
        self.data[address:address + 4] = (value & isa.WORD_MASK).to_bytes(4, "little")


class Machine:
    """Self-contained machine state; step it with tick() or run_to_halt()."""

    def __init__(self, image, cfg=None):
        cfg = cfg or MachineConfig()
        if image.size > cfg.mem_bytes:
            raise ImageTooLarge("image of %d bytes exceeds %d-byte memory"
                                % (image.size, cfg.mem_bytes))
        self.cfg = cfg
        self.memory = Memory(bytes(image.memory).ljust(cfg.mem_bytes, b"\0"))
        self.sv = sv = Supervisor(cfg.cores)
        self.cores = [CoreState(i) for i in range(cfg.cores)]
        for core in self.cores:
            core.owner = sv
        self._active = None       # the running cores while sv.stale is false
        self._decoded = {}        # pc -> (raw bytes, decode_at entry)
        self._state_sets = tuple(sv.in_state.values())
        self.clock = 0
        self.events = []
        self.warnings = []
        self.halted = False
        self._last_event_clock = 0

        self.root_qt = QTDescriptor(tr.ROOT_QT_ID, None, 0, 0, None,
                                    isa.REG_ENO, KIND_PLAIN)
        root = self.cores[0]
        root.state = RUNNING
        root.qt = self.root_qt

    # ---- event sink ------------------------------------------------------

    def emit(self, core, qt_id, kind, addr, payload=None):
        """Record an event at the current clock.  A retirement's event
        is appended by _run_cores itself."""
        clock = self._last_event_clock = self.clock
        self.events.append(_new(Event, (clock, core, qt_id, kind, addr,
                                        payload)))

    def warn(self, message):
        self.warnings.append(message)

    def latch_read(self, core, value, addr):
        self.emit(core.index, core.qt.id, tr.LATCH_READ, addr, payload=value)

    def latch_write(self, core, latch, value, addr):
        """An %esv write: a ForParent write marks the core's break channel
        and feeds the adder when the core is a SUMUP child."""
        self.emit(core.index, core.qt.id, tr.LATCH_WRITE, addr, payload=value)
        if latch == FOR_PARENT:
            core.for_parent_dirty = True
            self.sv.sumup_feed(self, core, value, addr)

    # ---- stepping -----------------------------------------------------------

    def tick(self):
        """One global clock advance: the SV phase, the running cores, the
        invariant checker and the watchdog."""
        if self.halted:
            raise RuntimeFault("tick on a halted machine")
        self.clock += 1
        self.sv.phase(self)
        self._run_cores()
        self._check_invariants()
        if self.clock - self._last_event_clock >= self.cfg.watchdog:
            self._watchdog_failed()

    def _run_cores(self, budget=None):
        """Step every running core through the cycle at self.clock.  With
        a budget (a quiet stretch), go on through the next cycles, with
        the watchdog after each, until a core is touched, the machine
        halts or the clock reaches the budget.  A fault parks the core
        that raised it."""
        # A retiring core changes no other core's state, so one snapshot
        # of the running cores serves a cycle; ascending order keeps
        # same-cycle memory visibility and the halt break.  A stretch goes
        # on only while no core is touched, so the snapshot serves it all.
        # A core's pc is the address of its in-flight instruction until
        # the executor runs: only the executor moves pc, and the SV moves
        # it only on a core with nothing in flight.
        sv = self.sv
        if sv.stale:
            cores = self.cores
            self._active = [cores[i] for i in sorted(sv.running)]
            sv.stale = False
        active = self._active
        touched = sv.touched
        watchdog = self.cfg.watchdog
        memory = self.memory
        data = memory.data
        cached = self._decoded.get
        append = self.events.append
        submit = sv.submit
        clock = self.clock
        try:
            while True:
                for core in active:
                    entry = core.inflight
                    if entry is None:
                        # the fetch: decode_at, with its cache hit inline
                        pc = core.pc
                        hit = cached(pc)
                        if hit is not None and data.startswith(hit[0], pc):
                            entry = hit[1]
                        else:
                            try:
                                entry = self.decode_at(pc)
                            except isa.EncodingError as exc:
                                raise RuntimeFault(
                                    "fetch failed: %s" % exc, core=core.index,
                                    qt=core.qt.id, addr=pc) from None
                        core.inflight = entry
                        remaining = entry[1] - 1
                    else:
                        remaining = core.remaining - 1
                    core.remaining = remaining
                    if remaining:
                        continue
                    # the retire: its event, straight from the entry
                    instr, duration, execute, kind, halts = entry
                    addr = core.pc
                    execute(core, memory, self)
                    core.inflight = None
                    append(_new(Event, (clock, core.index, core.qt.id, kind,
                                        addr, duration)))
                    self._last_event_clock = clock
                    if kind is META_RETIRED:
                        submit(core, instr, addr)
                    elif halts:
                        if core.qt.parent is not None:
                            raise RuntimeFault(
                                "halt outside the root QT",
                                core=core.index, qt=core.qt.id, addr=addr)
                        self.halted = True
                        return
                if budget is None:
                    return
                if clock - self._last_event_clock >= watchdog:
                    self._watchdog_failed()
                if touched or clock >= budget:
                    return
                clock = self.clock = clock + 1
        except RuntimeFault:
            core.state = PARKED
            raise

    def decode_at(self, pc):
        """(Instruction, cycles, executor, event kind, halts) for the
        code at pc: the retirement emits an event of that kind, and a
        halt stops the machine.  EncodingError if it does not decode.
        A cached entry is used only while memory still holds its bytes;
        a failed decode is not cached."""
        data = self.memory.data
        hit = self._decoded.get(pc)
        if hit is not None and data.startswith(hit[0], pc):
            return hit[1]
        instr, length = isa.decode(data, pc)
        opcode = instr.opcode
        entry = (instr, self.cfg.timing.cycles_for(opcode), bind(instr, pc),
                 META_RETIRED if isa.OPCODE_TABLE[opcode].is_meta
                 else INSTR_RETIRED, opcode == isa.HALT)
        self._decoded[pc] = (bytes(data[pc:pc + length]), entry)
        return entry

    def run_to_halt(self, max_cycles=None):
        """Tick until the root QT halts.  Returns (events, self), the
        events as a read-only trace.Trace copy of self.events, which
        stays the plain list that the machine appends to.

        After a tick that leaves the SV idle comes a quiet stretch: the
        running cores step with no SV phase and no checker until a core
        is touched (only then can the phase have work or the checked
        sets change), the machine halts or the budget runs out; then
        the checker runs once."""
        budget = math.inf if max_cycles is None else max_cycles
        while not self.halted:
            if self.clock >= budget:
                raise WatchdogExpired("cycle budget of %d exhausted" % max_cycles)
            self.tick()
            if self.halted or not self.sv.idle(self):
                continue
            if self.clock < budget:
                self.clock += 1
                self._run_cores(budget)
            self._check_invariants()
        return tr.Trace(self.events), self

    # ---- health ------------------------------------------------------------

    def _watchdog_failed(self):
        stuck = []
        for index in self.sv.queue:
            core = self.cores[index]
            stuck.append("core %d (QT %s) blocked at 0x%04x"
                         % (index, core.qt.id if core.qt else "-",
                            core.request[1]))
        for core in self.cores:
            if core.state is WAITING:
                stuck.append("core %d (QT %s) waiting at 0x%04x"
                             % (core.index, core.qt.id, core.wait_cond[0]))
            elif core.state is MASSLOOP:
                stuck.append("core %d (QT %s) in a mass loop"
                             % (core.index, core.qt.id))
        window = self.cfg.watchdog
        if stuck:
            raise Deadlock("no event for %d cycles; stuck: %s"
                           % (window, "; ".join(stuck)))
        raise WatchdogExpired("no event for %d cycles" % window)

    def _check_invariants(self):
        """Every core is in the set of its state, no free core holds a
        QT, and every core's QT parent chain reaches the root.  A core's
        part of that depends only on its state and qt (parent links never
        change), so only cores touched since the last check are checked
        again; the set sizes must still add up to the core count, also
        when none was touched.  A broken partition is reported before
        any other violation; the others in ascending core order."""
        # unrolled: sum(map(len, ...)) costs twice as much, every check
        a, b, c, d, e, f, g, h = self._state_sets
        sizes_ok = (len(a) + len(b) + len(c) + len(d) + len(e) + len(f)
                    + len(g) + len(h) == self.cfg.cores)
        touched = self.sv.touched
        if sizes_ok and not touched:
            return
        in_state = self.sv.in_state
        cores = self.cores
        root = self.root_qt
        partitioned = sizes_ok
        error = None              # the first other violation
        for index in sorted(touched):
            core = cores[index]
            state = core.state
            if index not in in_state[state]:
                partitioned = False
                break
            qt = core.qt
            if error is not None or qt is None:
                continue
            if state is FREE:
                error = ("free core %d still bound to QT %s"
                         % (index, qt.id))
                continue
            # The parent chain reaches the root: every QT is checked here
            # when it first lands on a core, after its parent, and each
            # link lowers the depth by one down to the root's 0.  So one
            # link per core, not the whole chain: fallback blocks nest
            # on one core without limit.
            parent = qt.parent
            if qt is not root and (parent is None
                                   or qt.depth != parent.depth + 1):
                error = "QT %s: parent chain does not reach the root" % qt.id
        if not partitioned:
            raise InvariantViolation(
                "state sets do not partition the cores at cycle %d" % self.clock)
        if error is not None:
            raise InvariantViolation(error)
        touched.clear()

    # ---- views -------------------------------------------------------------

    def live_qts(self):
        """The live QT forest as (depth, descriptor) pairs, root first."""
        out = []
        stack = [self.root_qt]
        while stack:
            qt = stack.pop()
            out.append((qt.depth, qt))
            stack += reversed(qt.live)
        return out


def image_from_bytes(data, size=None):
    """Wrap raw flat bytes as a loadable image."""
    image = ObjectImage(size or max(len(data), 1))
    image.memory[:len(data)] = data
    return image
