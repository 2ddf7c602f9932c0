"""The SV control layer: core pool, quasi-thread lifecycle, wait
resolution, mass-processing (FOR/SUMUP) control and the SUMUP adder.

The supervisor is a single sequential authority invoked once per global
tick, before any core executes.  Within one SV phase it runs, in order:
wait re-evaluation, queued meta requests (ascending core index), then
mass-loop steps (ascending core index).  That ordering makes a QTerm at
cycle t unblock a waiter at t+1 and lets a FOR loop re-iterate in the
same cycle its child's termination is processed.

The core pool is kept as sets (free, preallocated, busy) that
set_pool_status updates together with a core's status, so allocation
reads the sets instead of scanning the cores.  Wait re-evaluation
visits only the waiter set, the cores with a pending wait condition.
"""

from . import isa
from .coremodel import READ, Latch, Phase, Status, clone_into, map_esv
from .errors import RuntimeFault
from . import trace as tr

MODE_NO = 0
MODE_FOR = 1
MODE_SUMUP = 5

WILDCARD = isa.WORD_MASK      # QWait/QPWait -1: all QTs in scope

KIND_PLAIN = "Plain"
KIND_CALL = "Call"
KIND_MASS_TRUE = "MassTrue"
KIND_MASS_FALSE = "MassFalse"


class QTDescriptor:
    """One quasi-thread: identity, parent link, bracket addresses, link
    register and mass-processing role.  The parent never changes: it is
    read-only, so a parent chain checked once stays checked."""

    def __init__(self, qt_id, parent, core, create_addr, term_addr, link,
                 kind, ecc_index=0):
        self.id = qt_id
        self._parent = parent
        self.core = core
        self.create_addr = create_addr
        self.term_addr = term_addr
        self.link = link
        self.kind = kind
        self.ecc_index = ecc_index
        self.alive = True
        self.children = []
        self.child_seq = 0
        self.child_create_addrs = set()

    @property
    def parent(self):
        return self._parent

    def next_child_id(self):
        self.child_seq += 1
        return tr.child_qt_id(self.id, self.child_seq)

    def live_children(self):
        return [c for c in self.children if c.alive]


class MassControl:
    """Per-parent state of one FOR/SUMUP operation.  The remaining count
    mirrors the parent's FromChild latch (authoritative for the FOR break
    channel); SUMUP keeps its own count because child summands overwrite
    FromChild on their way into the adder."""

    def __init__(self, owner_qt, parent_core, mode, count, cores):
        self.owner_qt = owner_qt
        self.parent_core = parent_core
        self.mode = mode
        self.remaining = count
        self.cores = list(cores)      # preallocated core indices, in order
        self.next_core = 0
        self.created = 0
        self.adder = 0
        self.link = None
        self.term_addr = None
        self.create_addr = None
        self.active = False           # True while the QTCreate loop runs
        self.current_child = None     # FOR: the one live child


class _MetaRequest:
    def __init__(self, core_index, instr, addr):
        self.core_index = core_index
        self.instr = instr
        self.addr = addr


class Supervisor:
    def __init__(self, machine):
        self.m = machine
        self.queue = []               # pending _MetaRequest, FIFO
        self.mass = {}                # parent core index -> MassControl
        self.waiters = set()          # indices of cores with a wait_cond
        # The core pool by status; RUNNING and WAITING share one set.
        # Only set_pool_status moves a core between them.
        self.free = set(range(machine.cfg.cores))
        self.prealloc = set()
        self.busy = set()
        self.pools = {Status.FREE: self.free,
                      Status.PREALLOCATED: self.prealloc,
                      Status.RUNNING: self.busy, Status.WAITING: self.busy}

    def set_pool_status(self, core, status):
        """Set a core's status and move it to that status's pool."""
        self.pools[core.status].discard(core.index)
        core.status = status
        self.pools[status].add(core.index)

    # ---- requests from retiring cores -------------------------------

    def submit(self, core, instr, addr):
        self.queue.append(_MetaRequest(core.index, instr, addr))
        core.blocked = "sv"

    # ---- the SV phase of one tick ------------------------------------

    def phase(self, cycle):
        if self.waiters:
            self._reevaluate_waits(cycle)
        if self.queue:
            self._process_queue(cycle)
        if self.mass:
            self._mass_steps(cycle)

    def _reevaluate_waits(self, cycle):
        for index in sorted(self.waiters):
            core = self.m.cores[index]
            if core.status is Status.WAITING and core.wait_cond is not None:
                addr, scope = core.wait_cond
                if all(not q.alive for q in scope):
                    self.waiters.discard(index)
                    core.wait_cond = None
                    core.status = Status.RUNNING
                    core.blocked = None
                    self.m.emit(cycle, core.index, core.qt.id, tr.WAIT_END, addr)

    def _process_queue(self, cycle):
        pending = sorted(self.queue, key=lambda r: r.core_index)
        self.queue = []
        for req in pending:
            core = self.m.cores[req.core_index]
            op = req.instr.opcode
            if op in (isa.QCREATE, isa.QCALL):
                self._handle_create(core, req, cycle)
            elif op == isa.QTERM:
                self._handle_qterm(core, req, cycle)
            elif op in (isa.QWAIT, isa.QPWAIT):
                self._handle_wait(core, req, cycle)
            elif op == isa.QALLOC:
                self._handle_qalloc(core, req, cycle)
            elif op == isa.QTCREATE:
                self._handle_qtcreate(core, req, cycle)
            elif op == isa.QFCREATE:
                self._handle_qfcreate(core, req, cycle)
            else:
                raise RuntimeFault("unknown meta request 0x%02x" % op,
                                   core=core.index, addr=req.addr)

    # ---- QCreate / QCall ---------------------------------------------

    def _handle_create(self, core, req, cycle):
        if req.instr.opcode == isa.QCALL:
            target = req.instr.imm
            try:
                created, _ = self.m.decode_at(target)
            except isa.EncodingError:
                created = None
            if created is None or created.opcode != isa.QCREATE:
                core.status = Status.RUNNING
                raise RuntimeFault("QCall target is not a QCreate",
                                   core=core.index, qt=core.qt.id, addr=req.addr)
            create_addr, term_addr, link = target, created.imm, created.ra
            kind = KIND_CALL
        else:
            create_addr, term_addr, link = req.addr, req.instr.imm, req.instr.ra
            kind = KIND_PLAIN

        free = min(self.free, default=None)
        if free is None:
            # No resource: postponed for a later cycle.
            core.status = Status.WAITING
            self.queue.append(req)
            return
        if req.instr.opcode == isa.QCREATE:
            core.pc = (term_addr + 1) & isa.WORD_MASK
        core.status = Status.RUNNING
        core.blocked = None
        self.create_qt(core, free, create_addr, term_addr, link, kind,
                       start_pc=create_addr + 6, cycle=cycle)

    def create_qt(self, parent_core, child_index, create_addr, term_addr,
                  link, kind, start_pc, cycle, ecc_index=0):
        child_core = self.m.cores[child_index]
        if child_core.status not in (Status.FREE, Status.PREALLOCATED):
            raise RuntimeFault("allocation of a busy core %d" % child_index,
                               core=parent_core.index, addr=create_addr)
        parent_qt = parent_core.qt
        qt = QTDescriptor(parent_qt.next_child_id(), parent_qt, child_index,
                          create_addr, term_addr, link, kind, ecc_index)
        parent_qt.children.append(qt)
        parent_qt.child_create_addrs.add(create_addr)
        clone_into(parent_core, child_core, link)
        self.set_pool_status(child_core, Status.RUNNING)
        child_core.pc = start_pc
        child_core.qt = qt
        child_core.phase = Phase.MASS_CHILD if kind == KIND_MASS_TRUE else Phase.GENERAL
        self.m.emit(cycle, child_index, qt.id, tr.QT_CREATED, create_addr)
        return qt

    # ---- QTerm --------------------------------------------------------

    def _handle_qterm(self, core, req, cycle):
        qt = core.qt
        if core.brackets:
            if core.brackets[-1][0] != req.addr:
                raise RuntimeFault("QTerm does not close the open fallback block",
                                   core=core.index, qt=qt.id, addr=req.addr)
            if qt.live_children():
                # implied QWait -1 before the bracket closes
                core.status = Status.WAITING
                self.queue.append(req)
                return
            _, outer = core.brackets.pop()
            qt.alive = False
            core.qt = outer
            core.status = Status.RUNNING
            core.blocked = None
            self.m.emit(cycle, core.index, qt.id, tr.QT_TERMINATED, req.addr)
            return

        if qt.parent is None:
            raise RuntimeFault("QTerm executed by the root QT",
                               core=core.index, qt=qt.id, addr=req.addr)
        if qt.live_children():
            core.status = Status.WAITING
            self.queue.append(req)
            return
        self._complete_termination(core, qt, req.addr, cycle)

    def _complete_termination(self, core, qt, addr, cycle):
        parent_core = self.m.cores[qt.parent.core]
        link = qt.link
        if link not in (isa.REG_ENO, isa.REG_ECC):
            if link == isa.REG_ESV:
                # cloning context: child ForParent -> parent FromChild
                parent_core.latches.set(Latch.FROM_CHILD,
                                        core.latches.get(Latch.FOR_PARENT))
            else:
                parent_core.regs[link] = core.regs[link]
        mc = self.mass.get(qt.parent.core)
        in_for = (qt.kind == KIND_MASS_TRUE and mc is not None
                  and mc.owner_qt is qt.parent and mc.mode == MODE_FOR)
        if in_for and core.for_parent_dirty:
            # the break channel
            parent_core.latches.set(Latch.FROM_CHILD,
                                    core.latches.get(Latch.FOR_PARENT))
        qt.alive = False
        core.qt = None
        self.set_pool_status(
            core, Status.PREALLOCATED if (in_for and mc.active) else Status.FREE)
        core.phase = Phase.NONE
        core.reset_runtime()
        self.m.emit(cycle, core.index, qt.id, tr.QT_TERMINATED, addr)

    # ---- QWait / QPWait -----------------------------------------------

    def _handle_wait(self, core, req, cycle):
        qt = core.qt
        target = req.instr.imm
        if req.instr.opcode == isa.QWAIT:
            scope_qt = qt
        else:
            scope_qt = qt.parent
        core.status = Status.RUNNING
        core.blocked = None
        if scope_qt is None:
            if target != WILDCARD:
                self.m.warn("QPWait 0x%04x in the root QT has no sisters "
                            "(core %d, cycle %d)" % (target, core.index, cycle))
            return
        candidates = [c for c in scope_qt.children if c is not qt]
        if target == WILDCARD:
            scope = frozenset(c for c in candidates if c.alive)
        else:
            matching = [c for c in candidates if c.create_addr == target]
            if not matching and target not in scope_qt.child_create_addrs:
                self.m.warn("wait target 0x%04x never matched a created QT "
                            "(core %d, cycle %d)" % (target, core.index, cycle))
            scope = frozenset(c for c in matching if c.alive)
        if not scope:
            return
        core.status = Status.WAITING
        core.wait_cond = (req.addr, scope)
        self.waiters.add(core.index)
        self.m.emit(cycle, core.index, qt.id, tr.WAIT_BEGIN, req.addr,
                    payload=target)

    # ---- QAlloc ---------------------------------------------------------

    def _handle_qalloc(self, core, req, cycle):
        mode = req.instr.imm
        if mode not in (MODE_FOR, MODE_SUMUP):
            raise RuntimeFault("unknown mass-processing mode %d" % mode,
                               core=core.index, qt=core.qt.id, addr=req.addr)
        self._release_abandoned(core.index)
        count = max(isa.to_signed(self._plain_read(core, req.instr.ra)), 0)
        need = 1 if mode == MODE_FOR else count
        core.status = Status.RUNNING
        core.blocked = None
        if len(self.free) < need:
            core.last_alloc = "denied"
            return
        taken = sorted(self.free)[:need]
        for i in taken:
            self.set_pool_status(self.m.cores[i], Status.PREALLOCATED)
        self.mass[core.index] = MassControl(core.qt, core.index, mode, count, taken)
        core.latches.set(Latch.FROM_CHILD, count)
        core.latches.set(Latch.FOR_CHILD, 0)
        core.mode = mode
        core.phase = Phase.MASS_PRE
        core.last_alloc = "granted"

    def _release_abandoned(self, core_index):
        """Only the last QAlloc counts: an unconsumed earlier grant of the
        same core returns its reserved cores to the pool."""
        old = self.mass.pop(core_index, None)
        if old is None or old.active:
            return
        self._release(old.cores[old.next_core:])

    def _release(self, indices):
        """Return the still-preallocated cores among `indices` to the pool."""
        for i in indices:
            if self.m.cores[i].status is Status.PREALLOCATED:
                self.set_pool_status(self.m.cores[i], Status.FREE)

    def _plain_read(self, core, code):
        """Register read by the SV itself (no instruction-level events)."""
        if code < isa.GPR_COUNT:
            return core.regs[code]
        if code == isa.REG_ECC:
            return core.qt.ecc_index if core.qt is not None else 0
        if code == isa.REG_ESV:
            return core.latches.get(map_esv(core.esv_context(), READ))
        return 0

    # ---- QTCreate / QFCreate --------------------------------------------

    def _handle_qtcreate(self, core, req, cycle):
        if core.last_alloc is None:
            raise RuntimeFault("QTCreate without a preceding QAlloc",
                               core=core.index, qt=core.qt.id, addr=req.addr)
        if core.last_alloc == "denied":
            core.pc = (req.instr.imm + 1) & isa.WORD_MASK
            core.status = Status.RUNNING
            core.blocked = None
            return
        mc = self.mass.get(core.index)
        if mc is None or mc.active or mc.owner_qt is not core.qt:
            raise RuntimeFault("QTCreate does not match the granted QAlloc",
                               core=core.index, qt=core.qt.id, addr=req.addr)
        mc.active = True
        mc.create_addr = req.addr
        mc.term_addr = req.instr.imm
        mc.link = req.instr.ra
        core.status = Status.WAITING
        core.blocked = "massloop"
        core.phase = Phase.GENERAL
        # first check/creation happens in this tick's mass step

    def _handle_qfcreate(self, core, req, cycle):
        if core.last_alloc is None:
            raise RuntimeFault("QFCreate without a preceding QAlloc",
                               core=core.index, qt=core.qt.id, addr=req.addr)
        core.status = Status.RUNNING
        core.blocked = None
        if core.last_alloc == "granted":
            core.pc = (req.instr.imm + 1) & isa.WORD_MASK
            return
        # Denied: the requesting core itself runs the fallback body as a
        # same-core QT closed by the bracket QTerm.
        parent_qt = core.qt
        qt = QTDescriptor(parent_qt.next_child_id(), parent_qt, core.index,
                          req.addr, req.instr.imm, req.instr.ra, KIND_MASS_FALSE)
        parent_qt.children.append(qt)
        parent_qt.child_create_addrs.add(req.addr)
        core.brackets.append((req.instr.imm, parent_qt))
        core.qt = qt
        self.m.emit(cycle, core.index, qt.id, tr.QT_CREATED, req.addr)

    # ---- mass-loop stepping ----------------------------------------------

    def _mass_steps(self, cycle):
        for index in sorted(self.mass):
            mc = self.mass[index]
            if not mc.active:
                continue
            if mc.mode == MODE_FOR:
                self._step_for(mc, cycle)
            else:
                self._step_sumup(mc, cycle)

    def _step_for(self, mc, cycle):
        parent = self.m.cores[mc.parent_core]
        if mc.current_child is not None and mc.current_child.alive:
            return
        # break-check after the child's QTerm transfer, before creation
        if parent.latches.get(Latch.FROM_CHILD) == 0:
            self._end_loop(mc, parent, cycle)
            return
        mc.current_child = self._create_mass_child(mc, parent, mc.cores[0],
                                                    cycle)

    def _step_sumup(self, mc, cycle):
        parent = self.m.cores[mc.parent_core]
        if mc.remaining <= 0:
            self._end_loop(mc, parent, cycle)
            return
        child_index = mc.cores[mc.next_core]
        mc.next_core += 1
        self._create_mass_child(mc, parent, child_index, cycle)

    def _create_mass_child(self, mc, parent, child_index, cycle):
        """The next FOR/SUMUP child, counted down in the parent's latches."""
        qt = self.create_qt(parent, child_index, mc.create_addr, mc.term_addr,
                            mc.link, KIND_MASS_TRUE, start_pc=mc.create_addr + 6,
                            cycle=cycle, ecc_index=mc.created)
        mc.created += 1
        mc.remaining -= 1
        parent.latches.set(Latch.FOR_CHILD, parent.latches.get(Latch.FOR_CHILD) + 4)
        parent.latches.set(Latch.FROM_CHILD, max(parent.latches.get(Latch.FROM_CHILD) - 1, 0))
        return qt

    def _end_loop(self, mc, parent, cycle):
        mc.active = False
        mc.current_child = None
        self._release(mc.cores[mc.next_core if mc.mode == MODE_SUMUP else 0:])
        mc.next_core = len(mc.cores)      # reservation fully disowned
        parent.pc = (mc.term_addr + 1) & isa.WORD_MASK
        parent.status = Status.RUNNING
        parent.blocked = None
        parent.phase = Phase.MASS_POST

    # ---- SUMUP adder -------------------------------------------------------

    def sumup_feed(self, child_core, value, addr, cycle):
        """Triggered by a mass child's ForParent write while its parent
        runs SUMUP: the summand is copied to the parent's FromChild which
        feeds the adder; the adder output latches back into FromChild."""
        qt = child_core.qt
        if qt is None or qt.kind != KIND_MASS_TRUE or qt.parent is None:
            return False
        mc = self.mass.get(qt.parent.core)
        if mc is None or mc.owner_qt is not qt.parent or mc.mode != MODE_SUMUP:
            return False
        mc.adder = (mc.adder + value) & isa.WORD_MASK
        parent_core = self.m.cores[qt.parent.core]
        parent_core.latches.set(Latch.FROM_CHILD, mc.adder)
        self.m.emit(cycle, child_core.index, qt.id, tr.SUM_FEED, addr,
                    payload=value)
        return True
