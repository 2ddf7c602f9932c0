"""The SV control layer: core pool, quasi-thread lifecycle, wait
resolution, mass-processing (FOR/SUMUP) control and the SUMUP adder.

The supervisor is a single sequential authority invoked before the
cores execute in a tick.  Within one SV phase it runs, in order: wait
re-evaluation, queued meta requests (ascending core index), then
mass-loop steps (ascending core index).  That ordering makes a QTerm at
cycle t unblock a waiter at t+1 and lets a FOR loop re-iterate in the
same cycle its child's termination is processed.

The phase is driven by events.  A wait can only end when some QT ends,
so waiters are re-evaluated only in the phase after a QT ended
(qt_ended).  A QT is alive while it is in its parent's live children
(QTDescriptor.live), so a wait, and the implied wait of a QTerm, costs
the live children in scope, not every child ever created.  idle() tells
when a phase would change nothing: no request is pending, no waiter has
a QT end to see, and every mass loop is a FOR whose current child is
alive.  Only the SV phase and a core's state write can change that, so
the engine runs the cores without the phase until some core is touched.

Each core is in exactly one State.  The supervisor owns the core
bookkeeping: one set of core indices per state, which state_written
keeps in step with every state write, so each step of the phase visits
only the cores in the state it serves, and the indices of the cores
touched since the last invariant check.  It keeps indices, never a
core or the machine, so the machine and its cores form no reference
cycle through it; the machine is an argument of every entry that needs
it.  A meta request lives on its core (core.request) from
submission until it is served; a request that cannot be served yet
leaves its core POSTPONED and is served again next tick.

A QAlloc outcome belongs to the QT that ran it (QTDescriptor.alloc),
and so does the grant it leaves: a core in MASSLOOP runs the loop of
its QT's grant.  A denied QFCreate runs its block as a same-core
fallback QT, which starts from its creator's denial; its QTerm hands
the core back to the outer QT and that QT's own outcome.
"""

import weakref
from types import MappingProxyType

from . import isa
from .coremodel import (FOR_CHILD, FOR_PARENT, FREE, FROM_CHILD, MASSLOOP,
                        PARKED, POSTPONED, PREALLOCATED, RUNNING, SV, WAITING,
                        EsvContext, State, clone_into, read_register)
from .errors import RuntimeFault
from . import trace as tr

MODE_FOR = 1
MODE_SUMUP = 5

WILDCARD = isa.WORD_MASK      # QWait/QPWait -1: all QTs in scope

KIND_PLAIN = "Plain"
KIND_CALL = "Call"
KIND_MASS_TRUE = "MassTrue"
KIND_MASS_FALSE = "MassFalse"

DENIED = "denied"             # QTDescriptor.alloc after a denied QAlloc

_NO_CHILDREN = MappingProxyType({})   # `live` of a QT with no child yet
_NO_ADDRS = frozenset()               # its `create_addrs`


class QTDescriptor:
    """One quasi-thread: identity, parent link, depth in the QT tree
    (the root's is 0), bracket addresses, link register, mass-processing
    role and the outcome of its last QAlloc (`alloc`: None before the
    first, DENIED, or the MassControl of its grant).  The parent never
    changes: it is read-only, so a parent chain checked once stays
    checked.  Of its children it keeps only what the SV reads: the live
    ones (`live`, in creation order), how many it ever created
    (`created`) and the create addresses it ever used (`create_addrs`);
    an ended child leaves `live`, and nothing here refers to it again.
    A QT that never creates a child shares one read-only empty `live`
    and `create_addrs`; its first child gives it its own.

    A live child is in its parent's `live`, so it holds its parent
    through a weak reference: a machine dropped with live QTs leaves no
    cycle.  A live QT's parent is live too (a QTerm waits for its live
    children), held by its own parent's `live` or, for the root, by the
    machine."""

    __slots__ = ("id", "_parent", "depth", "core", "create_addr",
                 "term_addr", "link", "kind", "ecc_index", "alloc", "live",
                 "created", "create_addrs", "__weakref__")

    def __init__(self, qt_id, parent, core, create_addr, term_addr, link,
                 kind, ecc_index=0):
        self.id = qt_id
        if parent is None:
            self._parent = None
            self.depth = 0
        else:
            self._parent = weakref.ref(parent)
            self.depth = parent.depth + 1
        self.core = core
        self.create_addr = create_addr
        self.term_addr = term_addr
        self.link = link
        self.kind = kind
        self.ecc_index = ecc_index
        self.alloc = None
        self.live = _NO_CHILDREN      # live child -> None, in creation order
        self.created = 0
        self.create_addrs = _NO_ADDRS

    @property
    def parent(self):
        parent = self._parent
        return None if parent is None else parent()

    def add_child(self, core, create_addr, term_addr, link, kind,
                  ecc_index=0):
        """A new live child QT, named by its birth order."""
        if not self.created:
            self.live = {}
            self.create_addrs = set()
        self.created += 1
        self.create_addrs.add(create_addr)
        qt = QTDescriptor(tr.child_qt_id(self.id, self.created), self, core,
                          create_addr, term_addr, link, kind, ecc_index)
        self.live[qt] = None
        return qt


class MassControl:
    """One QAlloc grant and the FOR/SUMUP loop it serves; it lives on
    the QT it was granted to (QTDescriptor.alloc).  `cores` holds the
    reserved cores not yet used up: FOR runs every child on cores[0]
    and counts down in the parent's FromChild latch (the break channel);
    SUMUP takes one core per child off the front and ends when none is
    left, because child summands overwrite FromChild on their way into
    the adder.  An ended loop holds no cores.  A grant serves one
    QTCreate, which sets create_addr; a second QTCreate on the same
    grant faults."""

    def __init__(self, mode, cores):
        self.mode = mode
        self.cores = cores            # preallocated core indices, in order
        self.created = 0
        self.adder = 0
        self.link = None
        self.term_addr = None
        self.create_addr = None
        self.current_child = None     # FOR: the one live child


class Supervisor:
    def __init__(self, cores):
        # Core indices by state; only state_written moves them.
        self.in_state = {state: set() for state in State}
        self.in_state[FREE] = set(range(cores))
        self.free = self.in_state[FREE]
        self.running = self.in_state[RUNNING]
        self.requested = self.in_state[SV]
        self.postponed = self.in_state[POSTPONED]
        self.waiting = self.in_state[WAITING]
        self.massloop = self.in_state[MASSLOOP]
        self.qt_ended = False         # a QT ended since the last wait check
        # Indices of cores whose state or qt changed since the last
        # invariant check; all of them before the first.
        self.touched = set(range(cores))
        self.stale = True             # the engine's running list is stale

    def state_written(self, index, old, new):
        """Core `index` went from state `old` to `new` (see CoreState):
        move it between the per-state sets, touch it and mark the
        running list stale."""
        in_state = self.in_state
        in_state[old].discard(index)
        in_state[new].add(index)
        self.touched.add(index)
        self.stale = True

    def qt_written(self, index):
        """Core `index` got a new qt (see CoreState): touch it."""
        self.touched.add(index)

    @property
    def queue(self):
        """The cores with a pending request, in ascending index."""
        if self.postponed:
            return sorted(self.requested | self.postponed)
        return sorted(self.requested)

    # ---- requests from retiring cores -------------------------------

    def submit(self, core, instr, addr):
        core.request = (instr, addr)
        core.state = SV

    # ---- the SV phase of one tick ------------------------------------

    def phase(self, machine):
        """One SV phase of `machine`; its events take the machine clock."""
        if self.qt_ended:
            self.qt_ended = False
            if self.waiting:
                self._reevaluate_waits(machine)
        if self.requested or self.postponed:
            self._serve(machine)
        if self.massloop:
            self._mass_steps(machine)

    def idle(self, machine):
        """True when a phase of `machine` now would change nothing."""
        if (self.requested or self.postponed
                or (self.qt_ended and self.waiting)):
            return False
        for index in self.massloop:
            qt = machine.cores[index].qt
            mc = qt.alloc
            if mc.mode != MODE_FOR or mc.current_child not in qt.live:
                return False
        return True

    def _reevaluate_waits(self, machine):
        for index in sorted(self.waiting):
            core = machine.cores[index]
            addr, scope, live = core.wait_cond
            if scope.isdisjoint(live):
                core.wait_cond = None
                core.state = RUNNING
                machine.emit(core.index, core.qt.id, tr.WAIT_END, addr)

    def _serve(self, machine):
        """Serve every pending request.  One that cannot be served yet
        leaves its core POSTPONED with the request kept; a fault parks
        its core and leaves the later requests pending."""
        for index in self.queue:
            core = machine.cores[index]
            instr, addr = core.request
            try:
                # every meta opcode that decodes has a handler
                _HANDLERS[instr.opcode](self, machine, core, instr, addr)
            except RuntimeFault:
                core.state = PARKED
                raise
            finally:
                if core.state is not POSTPONED:
                    core.request = None

    # ---- QCreate / QCall ---------------------------------------------

    def _handle_create(self, machine, core, instr, addr):
        if instr.opcode == isa.QCALL:
            target = instr.imm
            try:
                created = machine.decode_at(target)[0]
            except isa.EncodingError:
                created = None
            if created is None or created.opcode != isa.QCREATE:
                raise RuntimeFault("QCall target is not a QCreate",
                                   core=core.index, qt=core.qt.id, addr=addr)
            create_addr, term_addr, link = target, created.imm, created.ra
            kind = KIND_CALL
        else:
            create_addr, term_addr, link = addr, instr.imm, instr.ra
            kind = KIND_PLAIN

        free = min(self.free, default=None)
        if free is None:
            core.state = POSTPONED     # no free core
            return
        if instr.opcode == isa.QCREATE:
            core.pc = (term_addr + 1) & isa.WORD_MASK
        core.state = RUNNING
        self.create_qt(machine, core, free, create_addr, term_addr, link,
                       kind, start_pc=create_addr + 6)

    def create_qt(self, machine, parent_core, child_index, create_addr,
                  term_addr, link, kind, start_pc, ecc_index=0):
        child_core = machine.cores[child_index]
        if child_core.state is not FREE and child_core.state is not PREALLOCATED:
            raise RuntimeFault("allocation of a busy core %d" % child_index,
                               core=parent_core.index, addr=create_addr)
        qt = parent_core.qt.add_child(child_index, create_addr, term_addr,
                                      link, kind, ecc_index)
        clone_into(parent_core, child_core, link)
        child_core.state = RUNNING
        child_core.pc = start_pc
        child_core.qt = qt
        child_core.phase = (EsvContext.MASS_CHILD if kind == KIND_MASS_TRUE
                            else EsvContext.GENERAL)
        machine.emit(child_index, qt.id, tr.QT_CREATED, create_addr)
        return qt

    # ---- QTerm --------------------------------------------------------

    def _handle_qterm(self, machine, core, instr, addr):
        qt = core.qt
        fallback = qt.kind == KIND_MASS_FALSE
        if fallback:
            if qt.term_addr != addr:
                raise RuntimeFault("QTerm does not close the open fallback block",
                                   core=core.index, qt=qt.id, addr=addr)
        elif qt.parent is None:
            raise RuntimeFault("QTerm executed by the root QT",
                               core=core.index, qt=qt.id, addr=addr)
        if qt.live:
            # an implied QWait -1 (also before a fallback bracket closes)
            core.state = POSTPONED
            return
        self._drop_grant(machine, qt)
        if fallback:
            del qt.parent.live[qt]
            self.qt_ended = True
            core.qt = qt.parent
            core.state = RUNNING
            machine.emit(core.index, qt.id, tr.QT_TERMINATED, addr)
            return
        self._complete_termination(machine, core, qt, addr)

    def _complete_termination(self, machine, core, qt, addr):
        parent_core = machine.cores[qt.parent.core]
        link = qt.link
        if link not in (isa.REG_ENO, isa.REG_ECC):
            if link == isa.REG_ESV:
                # the cloning row: a child's %esv read, the parent's write
                cloning = EsvContext.CLONING
                parent_core.latches[cloning.write] = core.latches[cloning.read]
            else:
                parent_core.regs[link] = core.regs[link]
        mc = qt.parent.alloc
        in_for = (qt.kind == KIND_MASS_TRUE
                  and mc.__class__ is MassControl and mc.mode == MODE_FOR)
        if in_for and core.for_parent_dirty:
            # the break channel
            parent_core.latches[FROM_CHILD] = core.latches[FOR_PARENT]
        del qt.parent.live[qt]
        self.qt_ended = True
        core.qt = None
        core.state = (PREALLOCATED if in_for and parent_core.state is MASSLOOP
                      else FREE)
        core.phase = EsvContext.GENERAL
        core.reset_runtime()
        machine.emit(core.index, qt.id, tr.QT_TERMINATED, addr)

    # ---- QWait / QPWait -----------------------------------------------

    def _handle_wait(self, machine, core, instr, addr):
        qt = core.qt
        target = instr.imm
        if instr.opcode == isa.QWAIT:
            scope_qt = qt
        else:
            scope_qt = qt.parent
        if scope_qt is None:
            if target != WILDCARD:
                machine.warn("QPWait 0x%04x in the root QT has no sisters "
                             "(core %d, cycle %d)"
                             % (target, core.index, machine.clock))
            core.state = RUNNING
            return
        if target != WILDCARD and target not in scope_qt.create_addrs:
            machine.warn("wait target 0x%04x never matched a created QT "
                         "(core %d, cycle %d)"
                         % (target, core.index, machine.clock))
        scope = frozenset(c for c in scope_qt.live if c is not qt and (
            target == WILDCARD or c.create_addr == target))
        if not scope:
            core.state = RUNNING
            return
        core.wait_cond = (addr, scope, scope_qt.live)
        core.state = WAITING
        machine.emit(core.index, qt.id, tr.WAIT_BEGIN, addr, payload=target)

    # ---- QAlloc ---------------------------------------------------------

    def _handle_qalloc(self, machine, core, instr, addr):
        mode = instr.imm
        if mode not in (MODE_FOR, MODE_SUMUP):
            raise RuntimeFault("unknown mass-processing mode %d" % mode,
                               core=core.index, qt=core.qt.id, addr=addr)
        qt = core.qt
        self._drop_grant(machine, qt)
        count = max(isa.to_signed(read_register(core, instr.ra)), 0)
        need = 1 if mode == MODE_FOR else count
        core.state = RUNNING
        if len(self.free) < need:
            qt.alloc = DENIED
            return
        taken = sorted(self.free)[:need]
        for i in taken:
            machine.cores[i].state = PREALLOCATED
        qt.alloc = MassControl(mode, taken)
        core.latches[FROM_CHILD] = count
        core.latches[FOR_CHILD] = 0
        core.mode = mode
        core.phase = EsvContext.MASS_PRE

    def _drop_grant(self, machine, qt):
        """End qt's grant, if it holds one; its unused cores return to the
        pool.  A grant ends at its QT's next QAlloc or at its QTerm."""
        if qt.alloc.__class__ is MassControl:
            self._release(machine, qt.alloc.cores)

    def _release(self, machine, indices):
        """Return the still-preallocated cores among `indices` to the pool."""
        cores = machine.cores
        for i in indices:
            if cores[i].state is PREALLOCATED:
                cores[i].state = FREE

    # ---- QTCreate / QFCreate --------------------------------------------

    def _handle_qtcreate(self, machine, core, instr, addr):
        mc = core.qt.alloc
        if mc is None:
            raise RuntimeFault("QTCreate without a preceding QAlloc",
                               core=core.index, qt=core.qt.id, addr=addr)
        if mc is DENIED:
            core.pc = (instr.imm + 1) & isa.WORD_MASK
            core.state = RUNNING
            return
        if mc.create_addr is not None:
            raise RuntimeFault("QTCreate on a used-up QAlloc grant: its loop "
                               "has run; QAlloc again first",
                               core=core.index, qt=core.qt.id, addr=addr)
        mc.create_addr = addr
        mc.term_addr = instr.imm
        mc.link = instr.ra
        core.state = MASSLOOP
        core.phase = EsvContext.GENERAL
        # first check/creation happens in this tick's mass step

    def _handle_qfcreate(self, machine, core, instr, addr):
        if core.qt.alloc is None:
            raise RuntimeFault("QFCreate without a preceding QAlloc",
                               core=core.index, qt=core.qt.id, addr=addr)
        core.state = RUNNING
        if core.qt.alloc is not DENIED:
            core.pc = (instr.imm + 1) & isa.WORD_MASK
            return
        # Denied: the requesting core itself runs the fallback body as a
        # same-core QT closed by the bracket QTerm.  The block is the
        # denied branch, so the QT starts from that denial.
        qt = core.qt.add_child(core.index, addr, instr.imm, instr.ra,
                               KIND_MASS_FALSE)
        qt.alloc = DENIED
        core.qt = qt
        machine.emit(core.index, qt.id, tr.QT_CREATED, addr)

    # ---- mass-loop stepping ----------------------------------------------

    def _mass_steps(self, machine):
        # An ended loop's grant stays on its QT: its SUMUP children keep
        # feeding the adder.
        for index in sorted(self.massloop):
            parent = machine.cores[index]
            mc = parent.qt.alloc
            if mc.mode == MODE_FOR:
                self._step_for(machine, mc, parent)
            else:
                self._step_sumup(machine, mc, parent)

    def _step_for(self, machine, mc, parent):
        if mc.current_child in parent.qt.live:
            return
        # break-check after the child's QTerm transfer, before creation
        if parent.latches[FROM_CHILD] == 0:
            self._end_loop(machine, mc, parent)
            return
        mc.current_child = self._create_mass_child(machine, mc, parent,
                                                   mc.cores[0])

    def _step_sumup(self, machine, mc, parent):
        if not mc.cores:
            self._end_loop(machine, mc, parent)
            return
        self._create_mass_child(machine, mc, parent, mc.cores.pop(0))

    def _create_mass_child(self, machine, mc, parent, child_index):
        """The next FOR/SUMUP child, counted down in the parent's latches."""
        qt = self.create_qt(machine, parent, child_index, mc.create_addr,
                            mc.term_addr, mc.link, KIND_MASS_TRUE,
                            start_pc=mc.create_addr + 6, ecc_index=mc.created)
        mc.created += 1
        latches = parent.latches
        latches[FOR_CHILD] = (latches[FOR_CHILD] + 4) & isa.WORD_MASK
        latches[FROM_CHILD] = max(latches[FROM_CHILD] - 1, 0)
        return qt

    def _end_loop(self, machine, mc, parent):
        mc.current_child = None
        self._release(machine, mc.cores)
        mc.cores = []                     # reservation fully disowned
        parent.pc = (mc.term_addr + 1) & isa.WORD_MASK
        parent.state = RUNNING
        parent.phase = EsvContext.MASS_POST

    # ---- SUMUP adder -------------------------------------------------------

    def sumup_feed(self, machine, child_core, value, addr):
        """Triggered by a mass child's ForParent write while its parent
        runs SUMUP: the summand is copied to the parent's FromChild which
        feeds the adder; the adder output latches back into FromChild."""
        qt = child_core.qt
        if qt is None or qt.kind != KIND_MASS_TRUE or qt.parent is None:
            return False
        mc = qt.parent.alloc
        if mc.__class__ is not MassControl or mc.mode != MODE_SUMUP:
            return False
        mc.adder = (mc.adder + value) & isa.WORD_MASK
        parent_core = machine.cores[qt.parent.core]
        parent_core.latches[FROM_CHILD] = mc.adder
        machine.emit(child_core.index, qt.id, tr.SUM_FEED, addr, payload=value)
        return True


_HANDLERS = {
    isa.QCREATE: Supervisor._handle_create, isa.QCALL: Supervisor._handle_create,
    isa.QTERM: Supervisor._handle_qterm, isa.QWAIT: Supervisor._handle_wait,
    isa.QPWAIT: Supervisor._handle_wait, isa.QALLOC: Supervisor._handle_qalloc,
    isa.QTCREATE: Supervisor._handle_qtcreate,
    isa.QFCREATE: Supervisor._handle_qfcreate,
}
