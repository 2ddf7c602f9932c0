"""Command line front end: assemble, run, stats, diagram, and the
interactive step REPL.

Exit codes: 0 ok, 1 user error, 2 runtime deadlock/watchdog/fault.
EMPA_CORES provides a default core count; explicit flags win.
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


def _cores_default(parser):
    """The core count from EMPA_CORES, 8 if it is unset or empty."""
    value = os.environ.get("EMPA_CORES")
    if not value:
        return 8
    try:
        cores = int(value)
    except ValueError:
        cores = None
    if cores is None or not 1 <= cores <= 64:
        parser.error("EMPA_CORES=%s: must be a whole number between 1 and 64"
                     % value)
    return cores


def _positive_cores(parser, n):
    if not 1 <= n <= 64:
        parser.error("--cores must be between 1 and 64")
    return n


def _trace_cores(parser, path, events, cores):
    """--cores for a saved trace: inferred by default, never too few."""
    if cores is not None:
        _positive_cores(parser, cores)
    needed = diagram.infer_cores(events)
    if needed > 64:
        parser.error("%s: the trace names core %d, but a machine has at most "
                     "64 cores" % (path, needed - 1))
    if cores is None:
        return needed
    if cores < needed:
        parser.error("the trace uses %d cores, more than --cores" % needed)
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
    p_run.add_argument("--watchdog", type=int, default=10000)

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
    p_diag.add_argument("-o", "--output", help="SVG output path "
                        "(default: trace path with .svg extension)")
    return parser


def _read_text(path, parser):
    """A text input file, read as UTF-8; a file that cannot be read or
    is not UTF-8 is a user error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        parser.error(str(exc))
    except UnicodeDecodeError as exc:
        parser.error("%s: not UTF-8 text (%s)" % (path, exc.reason))


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_image(path, parser):
    if path.endswith(".eyo"):
        return assembler.assemble(_read_text(path, parser))
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        parser.error(str(exc))
    if not path.endswith(".img"):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            text = None
        if text is not None and " | " in text:
            return assembler.load_listing(text)
    return engine.image_from_bytes(raw)


def _machine_config(args, parser):
    if args.cores is None:
        cores = _cores_default(parser)
    else:
        cores = _positive_cores(parser, args.cores)
    timing = engine.TimingConfig()
    if getattr(args, "timing", None):
        try:
            with open(args.timing, encoding="utf-8") as fh:
                timing = engine.TimingConfig.from_text(fh.read())
        except (OSError, ValueError) as exc:
            parser.error("bad timing file: %s" % exc)
    watchdog = getattr(args, "watchdog", 10000)
    try:
        return engine.MachineConfig(cores=cores, timing=timing,
                                    watchdog=watchdog)
    except ValueError as exc:
        parser.error(str(exc))


def _machine(image, cfg, parser):
    try:
        return engine.Machine(image, cfg)
    except ImageTooLarge as exc:
        parser.error(str(exc))


def cmd_asm(args, parser):
    source = _read_text(args.source, parser)
    try:
        image = assembler.assemble(source)
    except assembler.AssemblerError as exc:
        print("%s: %s" % (args.source, exc), file=sys.stderr)
        return EXIT_USER
    listing_path = args.output or _swap_ext(args.source, ".yo")
    image_path = _swap_ext(listing_path, ".img")
    _write_text(listing_path, assembler.write_listing(image))
    with open(image_path, "wb") as fh:
        fh.write(bytes(image.memory))
    print("wrote %s and %s" % (listing_path, image_path))
    return EXIT_OK


def _swap_ext(path, ext):
    stem, _, _old = path.rpartition(".")
    return (stem or path) + ext


def _read_baseline(arg, parser):
    if arg is None:
        return None
    text = _read_text(arg, parser) if os.path.exists(arg) else arg
    try:
        return statsmod.parse_baseline(text)
    except ValueError as exc:
        parser.error(str(exc))


def cmd_run(args, parser):
    image = _load_image(args.image, parser)
    cfg = _machine_config(args, parser)
    baseline = _read_baseline(args.baseline, parser)
    machine = _machine(image, cfg, parser)
    try:
        events, machine = machine.run_to_halt()
    except SimulationError as exc:
        print("simulation failed: %s" % exc, file=sys.stderr)
        return EXIT_RUNTIME
    for warning in machine.warnings:
        print("warning: %s" % warning, file=sys.stderr)
    if args.trace:
        _write_text(args.trace, tr.format_trace(events))
    if args.diagram:
        _write_text(args.diagram, diagram.render_diagram(events, cfg.cores))
    if args.ascii:
        print(diagram.render_ascii(events, cfg.cores), end="")
    st = statsmod.compute_stats(events, cfg.cores, baseline)
    if args.stats or args.stats_out:
        text = statsmod.format_stats(st)
        if args.stats:
            print(text, end="")
        if args.stats_out:
            _write_text(args.stats_out, text)
    if not args.stats:
        print("totalCycles=%d" % st.total_cycles)
        if st.speedup is not None:
            print("speedup=%.6f" % st.speedup)
            print("alphaEff=%.6f" % st.alpha_eff)
    return EXIT_OK


def _read_trace(path, parser):
    text = _read_text(path, parser)
    try:
        return tr.parse_trace(text)
    except tr.TraceFormatError as exc:
        parser.error(str(exc))


def cmd_stats(args, parser):
    events = _read_trace(args.trace, parser)
    cores = _trace_cores(parser, args.trace, events, args.cores)
    baseline = _read_baseline(args.baseline, parser)
    st = statsmod.compute_stats(events, cores, baseline)
    text = statsmod.format_stats(st)
    print(text, end="")
    if args.output:
        _write_text(args.output, text)
    return EXIT_OK


def cmd_diagram(args, parser):
    events = _read_trace(args.trace, parser)
    cores = _trace_cores(parser, args.trace, events, args.cores)
    if args.ascii:
        print(diagram.render_ascii(events, cores), end="")
        return EXIT_OK
    path = args.output or _swap_ext(args.trace, ".svg")
    _write_text(path, diagram.render_diagram(events, cores))
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
                isa.REGISTER_NAMES.get(qt.link, "-"),
                qt.create_addr if qt.create_addr is not None else 0))

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


def cmd_step(args, parser):
    image = _load_image(args.image, parser)
    cfg = _machine_config(args, parser)
    machine = _machine(image, cfg, parser)
    session = StepSession(machine)

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
    try:
        handler = {"asm": cmd_asm, "run": cmd_run, "step": cmd_step,
                   "stats": cmd_stats, "diagram": cmd_diagram}[args.command]
        return handler(args, parser)
    except (assembler.AssemblerError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USER
    except SimulationError as exc:
        print("simulation failed: %s" % exc, file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
