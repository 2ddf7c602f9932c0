"""Command line front end: assemble, run, stats, diagram, and the
interactive step REPL.

Exit codes: 0 ok, 1 user error, 2 runtime deadlock/watchdog/fault.
The library raises ValueError for bad input (a config, a baseline, a
trace) and ImageTooLarge for an image beyond memory, each with its
message; main() is the one place that turns them into a usage error
with exit 1; it prints an assembler error, with no usage line, under
the name of the file it came from.  EMPA_CORES provides a default core count; explicit flags
win.  The trace and the SVG are written to their files a block at a
time, as they are made; their input is checked before a file is opened.
"""

import argparse
import os
import sys

from . import assembler, diagram, engine, isa, stats as statsmod, trace as tr
from .errors import ImageTooLarge, SimulationError

EXIT_OK = 0
EXIT_USER = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USER, "%s: error: %s\n" % (self.prog, message))


def _cores_default():
    """The core count from EMPA_CORES, the engine's default if it is
    unset or empty."""
    value = os.environ.get("EMPA_CORES")
    if not value:
        return engine.MachineConfig.cores
    try:
        cores = int(value)
    except ValueError:
        cores = None
    if cores is None or not 1 <= cores <= engine.MAX_CORES:
        raise ValueError("EMPA_CORES=%s: must be a whole number between 1 "
                         "and %d" % (value, engine.MAX_CORES))
    return cores


def _cores_flag(cores):
    if not 1 <= cores <= engine.MAX_CORES:
        raise ValueError("--cores must be between 1 and %d" % engine.MAX_CORES)
    return cores


def build_parser():
    parser = _Parser(prog="empa",
                     description="EMPA/Y86 assembler and many-core simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_asm = sub.add_parser("asm", help="assemble a .eyo source file")
    p_asm.add_argument("source")
    p_asm.add_argument("-o", "--output", help="listing path (default: source "
                       "with .yo extension; image goes beside it as .img)")

    p_run = sub.add_parser("run", help="run an assembled image to completion")
    p_run.add_argument("image", help=".yo listing, raw image, or .eyo source")
    p_run.add_argument("--cores", type=int, default=None)
    p_run.add_argument("--timing", help="timing config file (class=cycles)")
    p_run.add_argument("--trace", help="write the event trace here")
    p_run.add_argument("--diagram", help="write the SVG processing diagram here")
    p_run.add_argument("--ascii", action="store_true",
                       help="print the ASCII processing diagram")
    p_run.add_argument("--stats", action="store_true",
                       help="print run statistics")
    p_run.add_argument("--stats-out", help="write statistics key-value file")
    p_run.add_argument("--baseline", help="stats file or cycle count to "
                       "compute speedup against")
    p_run.add_argument("--watchdog", type=int,
                       default=engine.MachineConfig.watchdog)

    p_step = sub.add_parser("step", help="interactive step session")
    p_step.add_argument("image")
    p_step.add_argument("--cores", type=int, default=None)
    p_step.add_argument("--timing")

    p_stats = sub.add_parser("stats", help="statistics from a saved trace")
    p_stats.add_argument("trace")
    p_stats.add_argument("--cores", type=int, default=None,
                         help="core count of the run (default: inferred)")
    p_stats.add_argument("--baseline")
    p_stats.add_argument("-o", "--output", help="write key-value file here")

    p_diag = sub.add_parser("diagram", help="render a saved trace")
    p_diag.add_argument("trace")
    p_diag.add_argument("--cores", type=int, default=None)
    p_diag.add_argument("--ascii", action="store_true")
    p_diag.add_argument("-o", "--output", help="output path: the SVG "
                        "(default: trace path with .svg extension), or "
                        "with --ascii the ASCII diagram (default: stdout)")
    return parser


def _read_text(path):
    """A text input file, read as UTF-8; a file that cannot be read or
    is not UTF-8 is a user error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ValueError("%s: not UTF-8 text (%s)" % (path, exc.reason)) from None


def _write_text(path, text):
    _write_blocks(path, (text,))


def _write_blocks(path, blocks):
    """Write text blocks to `path` as they come, so a generator of them
    (trace.trace_blocks, diagram.svg_blocks) is never held whole."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(blocks)


def _built(path, build, text):
    """build(text); an assembler error it raises is reported under the
    name of the file `text` was read from."""
    try:
        return build(text)
    except assembler.AssemblerError as exc:
        exc.source = path
        raise


def _load_image(path):
    if path.endswith(".eyo"):
        return _built(path, assembler.assemble, _read_text(path))
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValueError(str(exc)) from None
    if not path.endswith(".img"):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            text = None
        if text is not None and " | " in text:
            return _built(path, assembler.load_listing, text)
    return engine.image_from_bytes(raw)


def _machine_config(args):
    cores = _cores_default() if args.cores is None else _cores_flag(args.cores)
    timing = engine.TimingConfig()
    if getattr(args, "timing", None):
        try:
            with open(args.timing, encoding="utf-8") as fh:
                timing = engine.TimingConfig.from_text(fh.read())
        except (OSError, ValueError) as exc:
            raise ValueError("bad timing file: %s" % exc) from None
    watchdog = getattr(args, "watchdog", engine.MachineConfig.watchdog)
    return engine.MachineConfig(cores=cores, timing=timing, watchdog=watchdog)


def cmd_asm(args):
    image = _built(args.source, assembler.assemble, _read_text(args.source))
    listing_path = args.output or _swap_ext(args.source, ".yo")
    image_path = _swap_ext(listing_path, ".img")
    _write_text(listing_path, assembler.write_listing(image))
    with open(image_path, "wb") as fh:
        fh.write(bytes(image.memory))
    print("wrote %s and %s" % (listing_path, image_path))
    return EXIT_OK


def _swap_ext(path, ext):
    return os.path.splitext(path)[0] + ext


def _read_baseline(arg):
    """The cycles of --baseline: a stats file if the path exists, else
    the argument itself must be a cycle count."""
    if arg is None:
        return None
    if os.path.exists(arg):
        return statsmod.parse_baseline(_read_text(arg))
    try:
        int(arg, 0)
    except ValueError:
        raise ValueError("--baseline %s: no such file, and not a cycle count"
                         % arg) from None
    return statsmod.parse_baseline(arg)


# The stats lines that `empa run` prints without --stats.
_SUMMARY_KEYS = ("totalCycles=", "speedup=", "alphaEff=")


def cmd_run(args):
    image = _load_image(args.image)
    cfg = _machine_config(args)
    baseline = _read_baseline(args.baseline)
    machine = engine.Machine(image, cfg)
    try:
        events, machine = machine.run_to_halt()
    except SimulationError as exc:
        print("simulation failed: %s" % exc, file=sys.stderr)
        return EXIT_RUNTIME
    for warning in machine.warnings:
        print("warning: %s" % warning, file=sys.stderr)
    if args.trace:
        _write_blocks(args.trace, tr.trace_blocks(events))
    if args.diagram:
        _write_blocks(args.diagram, diagram.svg_blocks(events, cfg.cores))
    if args.ascii:
        print(diagram.render_ascii(events, cfg.cores), end="")
    text = statsmod.format_stats(
        statsmod.compute_stats(events, cfg.cores, baseline))
    if args.stats:
        print(text, end="")
    if args.stats_out:
        _write_text(args.stats_out, text)
    if not args.stats:
        print("".join(line for line in text.splitlines(True)
                      if line.startswith(_SUMMARY_KEYS)), end="")
    return EXIT_OK


def _read_trace(path, cores):
    """A saved trace's events and the core count of its machine:
    --cores, never too few, or by default the fewest that it needs.
    The cores it needs are read from the Trace's view, which the
    statistics and the renderers then share."""
    events = tr.parse_trace(_read_text(path))
    try:
        tr.check_durations(events)
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None
    if cores is not None:
        _cores_flag(cores)
    needed = events.view.cores_needed
    if needed > engine.MAX_CORES:
        raise ValueError("%s: the trace names core %d, but a machine has at "
                         "most %d cores" % (path, needed - 1, engine.MAX_CORES))
    if cores is None:
        return events, needed
    if cores < needed:
        raise ValueError("the trace uses %d cores, more than --cores" % needed)
    return events, cores


def cmd_stats(args):
    events, cores = _read_trace(args.trace, args.cores)
    baseline = _read_baseline(args.baseline)
    st = statsmod.compute_stats(events, cores, baseline)
    text = statsmod.format_stats(st)
    print(text, end="")
    if args.output:
        _write_text(args.output, text)
    return EXIT_OK


def cmd_diagram(args):
    events, cores = _read_trace(args.trace, args.cores)
    if args.ascii:
        text = diagram.render_ascii(events, cores)
        if not args.output:
            print(text, end="")
            return EXIT_OK
        path = args.output
        _write_text(path, text)
    else:
        path = args.output or _swap_ext(args.trace, ".svg")
        _write_blocks(path, diagram.svg_blocks(events, cores))
    print("wrote %s" % path)
    return EXIT_OK


# ---- interactive stepping ----------------------------------------------

_REPL_HELP = """commands:
  step [n]     advance n clock cycles (default 1)
  run          run until halt or a breakpoint
  cores        state, QT and pc of every core
  regs CORE    register file, latches, mode and phase of one core
  mem ADDR LEN hex dump of memory
  qts          live quasi-thread forest
  break ADDR   toggle a breakpoint on an instruction address
  trace [n]    show the last n trace events (default 10)
  quit         leave the session
"""


def _int_arg(text, name, low, high=None):
    """An integer REPL argument in [low, high); ValueError otherwise."""
    value = int(text, 0)
    if value < low:
        raise ValueError("%s must be at least %d, not %s" % (name, low, text))
    if high is not None and value >= high:
        raise ValueError("%s must be below 0x%x, not %s" % (name, high, text))
    return value


class StepSession:
    def __init__(self, machine, out=sys.stdout):
        self.machine = machine
        self.out = out
        self.breakpoints = set()

    def _p(self, text=""):
        print(text, file=self.out)

    def _at_breakpoint(self):
        """A running core, or one whose request waits for the SV, is at a
        breakpoint; only those cores are looked at."""
        if not self.breakpoints:
            return False
        cores, sv = self.machine.cores, self.machine.sv
        return any(cores[i].pc in self.breakpoints
                   for i in (*sv.running, *sv.requested))

    def _advance(self, limit=None):
        m = self.machine
        ticks = 0
        while not m.halted:
            if limit is not None and ticks >= limit:
                return
            try:
                m.tick()
            except SimulationError as exc:
                self._p("simulation failed: %s" % exc)
                return
            ticks += 1
            if self._at_breakpoint():
                self._p("breakpoint at cycle %d" % m.clock)
                return
        self._p("halted at cycle %d" % m.clock)

    def do_step(self, argv):
        n = _int_arg(argv[0], "step count", 0) if argv else 1
        self._advance(limit=n)
        self._p("cycle %d" % self.machine.clock)

    def do_run(self, argv):
        self._advance()

    def do_cores(self, argv):
        self._p("core status      qt       pc")
        for core in self.machine.cores:
            self._p("%4d %-11s %-8s 0x%04x" % (
                core.index, core.state.value,
                core.qt.id if core.qt else "-", core.pc))

    def do_regs(self, argv):
        if not argv:
            self._p("usage: regs CORE")
            return
        idx = int(argv[0], 0)
        if not 0 <= idx < len(self.machine.cores):
            self._p("no core %d" % idx)
            return
        core = self.machine.cores[idx]
        for code in range(isa.GPR_COUNT):
            self._p("%s = 0x%08x" % (isa.REGISTER_NAMES[code], core.regs[code]))
        self._p("zf=%d sf=%d of=%d pc=0x%04x" %
                (core.zf, core.sf, core.of, core.pc))
        self._p("ForChild=0x%08x FromChild=0x%08x ForParent=0x%08x "
                "FromParent=0x%08x" % tuple(core.latches))
        self._p("mode=%d parentMode=%d phase=%s status=%s qt=%s" % (
            core.mode, core.parent_mode, core.phase.value, core.state.value,
            core.qt.id if core.qt else "-"))

    def do_mem(self, argv):
        if len(argv) != 2:
            self._p("usage: mem ADDR LEN")
            return
        data = self.machine.memory.data
        addr = _int_arg(argv[0], "address", 0, len(data))
        length = _int_arg(argv[1], "length", 1)
        data = data[addr:addr + length]
        for offset in range(0, len(data), 16):
            chunk = data[offset:offset + 16]
            self._p("0x%04x: %s" % (addr + offset, chunk.hex(" ")))

    def do_qts(self, argv):
        for depth, qt in self.machine.live_qts():
            self._p("%s%s  core=%d kind=%s link=%s created@0x%04x" % (
                "  " * depth, qt.id, qt.core, qt.kind,
                isa.REGISTER_NAMES.get(qt.link, "-"), qt.create_addr))

    def do_break(self, argv):
        if not argv:
            self._p("breakpoints: %s" %
                    ", ".join("0x%04x" % a for a in sorted(self.breakpoints)))
            return
        addr = _int_arg(argv[0], "address", 0,
                        len(self.machine.memory.data))
        if addr in self.breakpoints:
            self.breakpoints.discard(addr)
            self._p("cleared 0x%04x" % addr)
        else:
            self.breakpoints.add(addr)
            self._p("set 0x%04x" % addr)

    def do_trace(self, argv):
        n = _int_arg(argv[0], "event count", 0) if argv else 10
        events = self.machine.events
        for ev in events[max(len(events) - n, 0):]:
            self._p(tr.format_event(ev))

    def run(self, lines):
        self._p("EMPA step session; 'quit' to leave, empty line repeats help")
        for line in lines:
            parts = line.strip().split()
            if not parts:
                self._p(_REPL_HELP)
                continue
            cmd, argv = parts[0], parts[1:]
            if cmd in ("quit", "q", "exit"):
                break
            handler = getattr(self, "do_" + cmd, None)
            if handler is None:
                self._p("unknown command %r" % cmd)
                self._p(_REPL_HELP)
                continue
            try:
                handler(argv)
            except ValueError as exc:
                self._p("bad argument: %s" % exc)
        return self.machine


def cmd_step(args):
    image = _load_image(args.image)
    session = StepSession(engine.Machine(image, _machine_config(args)))

    def _lines():
        while True:
            try:
                yield input("empa> ")
            except EOFError:
                return

    session.run(_lines())
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"asm": cmd_asm, "run": cmd_run, "step": cmd_step,
               "stats": cmd_stats, "diagram": cmd_diagram}[args.command]
    try:
        return handler(args)
    except (assembler.AssemblerError, OSError) as exc:
        print("%s: %s" % (getattr(exc, "source", "error"), exc),
              file=sys.stderr)
        return EXIT_USER
    except (ValueError, ImageTooLarge) as exc:
        parser.error(str(exc))
    except SimulationError as exc:
        print("simulation failed: %s" % exc, file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
