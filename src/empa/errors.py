"""Simulation-side errors.

Assembler and ISA modules carry their own exception families; everything
the running machine can raise lives here so the engine, supervisor and
CLI agree on one hierarchy.
"""


class SimulationError(Exception):
    """Base class for anything that stops a run."""

    def __init__(self, message, core=None, qt=None, addr=None):
        self.core = core
        self.qt = qt
        self.addr = addr
        parts = [message]
        if core is not None:
            parts.append("core %d" % core)
        if qt is not None:
            parts.append("QT %s" % qt)
        if addr is not None:
            parts.append("at 0x%04x" % addr)
        super().__init__(" | ".join(parts))


class RuntimeFault(SimulationError):
    """A core did something illegal; the simulation aborts with the
    offending core marked."""


class AddressOutOfRange(RuntimeFault):
    pass


class Deadlock(SimulationError):
    """No event for the watchdog window while cores are blocked."""


class WatchdogExpired(SimulationError):
    """No event for the watchdog window with nothing blocked (wedged)."""


class ImageTooLarge(SimulationError):
    pass


class InvariantViolation(SimulationError):
    """The per-tick core-state/forest checker found an inconsistency."""
