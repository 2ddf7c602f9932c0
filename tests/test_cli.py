"""CLI tests: subcommand flows, exit codes, file outputs, environment
default, and REPL-vs-batch trace equivalence."""

import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import empa
from empa import assembler, cli, engine, fixtures, trace as tr
from empa.cli import StepSession

from helpers import CountingList


@pytest.fixture
def fixture_dir(tmp_path):
    fixtures.write_fixture_files(tmp_path)
    return tmp_path


def _p(path):
    return str(path)


def test_asm_ok(fixture_dir, capsys):
    src = fixture_dir / "no_mode.eyo"
    out = fixture_dir / "no_mode.yo"
    rc = cli.main(["asm", _p(src), "-o", _p(out)])
    assert rc == 0
    assert out.exists()
    assert (fixture_dir / "no_mode.img").exists()
    listing = out.read_text()
    assert " | " in listing


def test_asm_default_output_swaps_extension(fixture_dir):
    src = fixture_dir / "for_mode.eyo"
    rc = cli.main(["asm", _p(src)])
    assert rc == 0
    assert (fixture_dir / "for_mode.yo").exists()
    assert (fixture_dir / "for_mode.img").exists()


def test_asm_undefined_label_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.eyo"
    bad.write_text("jmp Missing\n")
    rc = cli.main(["asm", _p(bad)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Missing" in err and "line 1" in err


@pytest.mark.parametrize("source", [".long 0x1ffffffff",
                                    "irmovl $99999999999,%eax",
                                    "QAlloc $0x1ffffffff,%ecx"])
def test_asm_value_beyond_32_bits_exit_1(tmp_path, capsys, source):
    bad = tmp_path / "wide.eyo"
    bad.write_text("nop\n" + source + "\n")
    assert cli.main(["asm", _p(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 2: value" in err and "does not fit in 32 bits" in err
    assert not (tmp_path / "wide.yo").exists()


def test_run_listing_and_raw_image(fixture_dir, capsys):
    src = fixture_dir / "no_mode.eyo"
    cli.main(["asm", _p(src)])
    capsys.readouterr()
    rc = cli.main(["run", _p(fixture_dir / "no_mode.yo"), "--cores", "1"])
    assert rc == 0
    out1 = capsys.readouterr().out
    rc = cli.main(["run", _p(fixture_dir / "no_mode.img"), "--cores", "1"])
    assert rc == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert "totalCycles=" in out1


def test_run_eyo_directly_with_artifacts(fixture_dir, capsys):
    trace_out = fixture_dir / "run.trace"
    svg_out = fixture_dir / "run.svg"
    stats_out = fixture_dir / "run.kv"
    rc = cli.main(["run", _p(fixture_dir / "sumup_mode.eyo"),
                   "--cores", "5", "--trace", _p(trace_out),
                   "--diagram", _p(svg_out), "--stats",
                   "--stats-out", _p(stats_out)])
    assert rc == 0
    events = tr.parse_trace(trace_out.read_text())
    assert events
    ET.fromstring(svg_out.read_text())
    kv = stats_out.read_text()
    assert kv.startswith("totalCycles=")
    assert capsys.readouterr().out == kv


def test_run_with_baseline_prints_speedup(fixture_dir, capsys):
    base = fixture_dir / "no_mode.cycles"
    rc = cli.main(["run", _p(fixture_dir / "no_mode.eyo"), "--cores", "1",
                   "--stats-out", _p(base)])
    assert rc == 0
    capsys.readouterr()
    rc = cli.main(["run", _p(fixture_dir / "adaptive.eyo"), "--cores", "5",
                   "--baseline", _p(base)])
    assert rc == 0
    out = capsys.readouterr().out
    speed = [ln for ln in out.splitlines() if ln.startswith("speedup=")]
    assert speed and float(speed[0].partition("=")[2]) > 1.0
    assert any(ln.startswith("alphaEff=") for ln in out.splitlines())


def test_run_cores_zero_usage_error(fixture_dir):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", _p(fixture_dir / "no_mode.eyo"), "--cores", "0"])
    assert exc.value.code == 1


def test_run_deadlock_exit_2(tmp_path, capsys):
    bad = tmp_path / "stall.eyo"
    bad.write_text("QCreate T,%eno\nnop\nT: QTerm\nhalt\n")
    rc = cli.main(["run", _p(bad), "--cores", "1", "--watchdog", "50"])
    assert rc == 2
    assert "core 0" in capsys.readouterr().err


def test_run_watchdog_below_one_is_a_user_error(fixture_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", _p(fixture_dir / "no_mode.eyo"), "--watchdog", "0"])
    assert exc.value.code == 1
    assert "watchdog" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "step"])
def test_image_larger_than_memory_is_a_user_error(tmp_path, capsys, command):
    image = tmp_path / "big.img"
    image.write_bytes(bytes(9000))
    with pytest.raises(SystemExit) as exc:
        cli.main([command, _p(image), "--cores", "1"])
    assert exc.value.code == 1
    assert "exceeds 4096-byte memory" in capsys.readouterr().err


def test_empa_cores_environment_default(fixture_dir, capsys, monkeypatch):
    monkeypatch.setenv("EMPA_CORES", "5")
    rc = cli.main(["run", _p(fixture_dir / "adaptive.eyo")])
    assert rc == 0
    five = capsys.readouterr().out
    monkeypatch.setenv("EMPA_CORES", "1")
    cli.main(["run", _p(fixture_dir / "adaptive.eyo")])
    one = capsys.readouterr().out
    assert five != one          # flag default really came from the env
    monkeypatch.setenv("EMPA_CORES", "1")
    cli.main(["run", _p(fixture_dir / "adaptive.eyo"), "--cores", "5"])
    assert capsys.readouterr().out == five     # explicit flag wins


@pytest.mark.parametrize("command", ["run", "step"])
@pytest.mark.parametrize("value", ["abc", "0", "65"])
def test_bad_empa_cores_is_a_user_error_naming_it(fixture_dir, capsys,
                                                  monkeypatch, value, command):
    monkeypatch.setenv("EMPA_CORES", value)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, _p(fixture_dir / "adaptive.eyo")])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "EMPA_CORES=%s" % value in err
    assert "--cores" not in err


def test_stats_subcommand_from_trace(fixture_dir, capsys):
    trace_out = fixture_dir / "s.trace"
    cli.main(["run", _p(fixture_dir / "sumup_mode.eyo"), "--cores", "5",
              "--trace", _p(trace_out)])
    capsys.readouterr()
    out_kv = fixture_dir / "s.kv"
    rc = cli.main(["stats", _p(trace_out), "--cores", "5", "-o", _p(out_kv)])
    assert rc == 0
    text = capsys.readouterr().out
    assert out_kv.read_text() == text
    assert "maxConcurrent=5" in text


def test_diagram_subcommand(fixture_dir, capsys):
    trace_out = fixture_dir / "d.trace"
    cli.main(["run", _p(fixture_dir / "sumup_mode.eyo"), "--cores", "5",
              "--trace", _p(trace_out)])
    capsys.readouterr()
    rc = cli.main(["diagram", _p(trace_out), "--cores", "5"])
    assert rc == 0
    svg = fixture_dir / "d.svg"
    assert svg.exists()
    ET.fromstring(svg.read_text())
    rc = cli.main(["diagram", _p(trace_out), "--ascii"])
    assert rc == 0
    assert "C4" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["stats"], ["diagram", "--ascii"],
                                  ["diagram"]])
def test_saved_trace_with_too_few_cores_is_a_user_error(fixture_dir, capsys,
                                                        argv):
    trace_out = fixture_dir / "dp.trace"
    cli.main(["run", _p(fixture_dir / "dynpar.eyo"), "--cores", "8",
              "--trace", _p(trace_out)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(argv[:1] + [_p(trace_out), "--cores", "2"] + argv[1:])
    assert exc.value.code == 1
    assert "trace uses 7 cores" in capsys.readouterr().err
    assert not (fixture_dir / "dp.svg").exists()


@pytest.mark.parametrize("argv", [["stats"], ["diagram", "--ascii"],
                                  ["diagram"]])
@pytest.mark.parametrize("flag", [[], ["--cores", "8"]])
def test_a_trace_core_beyond_64_is_named_as_the_trace_s(tmp_path, capsys,
                                                        argv, flag):
    trace_out = tmp_path / "far.trace"
    trace_out.write_text("cycle=0 core=0 qt=1 kind=InstrRetired addr=0x0000\n"
                         "cycle=1 core=6400 qt=1 kind=InstrRetired "
                         "addr=0x0000\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv[:1] + [_p(trace_out)] + flag + argv[1:])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "%s: the trace names core 6400, but a machine has at most 64 " \
        "cores" % trace_out in err
    assert "--cores" not in err
    assert not (tmp_path / "far.svg").exists()


def test_a_trace_on_core_63_needs_no_flag(tmp_path, capsys):
    trace_out = tmp_path / "edge.trace"
    trace_out.write_text("cycle=0 core=63 qt=1 kind=InstrRetired addr=0x0000\n")
    assert cli.main(["stats", _p(trace_out)]) == 0
    assert "totalCycles=" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["diagram", "{trace}", "--output", "{missing}/x.svg"],
    ["run", "{src}", "--cores", "5", "--diagram", "{missing}/x.svg"],
    ["asm", "{src}", "-o", "{missing}/x.yo"],
])
def test_unwritable_output_is_a_user_error(fixture_dir, capsys, argv):
    trace_out = fixture_dir / "w.trace"
    cli.main(["run", _p(fixture_dir / "sumup_mode.eyo"), "--cores", "5",
              "--trace", _p(trace_out)])
    capsys.readouterr()
    missing = fixture_dir / "no_such_dir"
    rc = cli.main([arg.format(trace=trace_out, missing=missing,
                              src=fixture_dir / "sumup_mode.eyo")
                   for arg in argv])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no_such_dir" in err
    assert not missing.exists()


@pytest.mark.parametrize("argv", [["stats"], ["diagram", "--ascii"],
                                  ["diagram"]])
@pytest.mark.parametrize("line, complaint", [
    ("cycle=1 cycle=7 core=0 qt=1 kind=InstrRetired addr=0x0000",
     "duplicate key 'cycle'"),
    ("cycle=1 core=0 qt=1 kind=InstrRetired addr=0x0000 paylod=0x5",
     "unknown key 'paylod'"),
    ("cycle=-3 core=0 qt=1 kind=InstrRetired addr=0x0000", "negative cycle"),
    ("cycle=1 core=0 qt=1 kind=InstrRetired addr=0XA", "bad addr '0XA'"),
])
def test_malformed_trace_line_is_a_user_error(tmp_path, capsys, argv, line,
                                              complaint):
    trace = tmp_path / "bad.trace"
    trace.write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv[:1] + [_p(trace)] + argv[1:])
    assert exc.value.code == 1
    assert complaint + " on line 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["stats", "{bad}.trace"],
    ["diagram", "{bad}.trace"],
    ["asm", "{bad}.eyo"],
    ["run", "{bad}.eyo"],
    ["run", "{src}", "--baseline", "{bad}.kv"],
])
def test_input_that_is_not_utf8_is_a_user_error(fixture_dir, capsys, argv):
    argv = [arg.format(bad=fixture_dir / "bad",
                       src=fixture_dir / "no_mode.eyo") for arg in argv]
    bad = next(arg for arg in argv if "bad." in arg)
    with open(bad, "wb") as fh:
        fh.write(b"halt\n# \xff\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error: %s: not UTF-8 text" % bad in err


@pytest.mark.parametrize("argv", [["asm", "{src}"], ["stats", "{trace}"],
                                  ["diagram", "{trace}"]])
def test_text_inputs_are_read_as_utf8_in_an_ascii_locale(tmp_path, argv):
    """A UTF-8 comment assembles and a UTF-8 QT id is read back, whatever
    the locale's encoding."""
    src = tmp_path / "utf8.eyo"
    src.write_bytes("# Σ of nothing\nhalt\n".encode("utf-8"))
    trace = tmp_path / "utf8.trace"
    trace.write_bytes("cycle=1 core=0 qt=1 kind=InstrRetired addr=0x0000\n"
                      "cycle=2 core=0 qt=1é kind=QtCreated addr=0x0000\n"
                      .encode("utf-8"))
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.path.dirname(os.path.dirname(empa.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "empa.cli"]
        + [arg.format(src=src, trace=trace) for arg in argv],
        env=env, capture_output=True, text=True, encoding="utf-8")
    assert done.returncode == 0, done.stderr
    if argv[0] == "diagram":
        assert 'data-qt="1é"' in (tmp_path / "utf8.svg").read_text("utf-8")


def test_outputs_deterministic(fixture_dir):
    args = ["run", _p(fixture_dir / "adaptive.eyo"), "--cores", "5"]
    t1, t2 = fixture_dir / "t1", fixture_dir / "t2"
    d1, d2 = fixture_dir / "d1.svg", fixture_dir / "d2.svg"
    cli.main(args + ["--trace", _p(t1), "--diagram", _p(d1)])
    cli.main(args + ["--trace", _p(t2), "--diagram", _p(d2)])
    assert t1.read_bytes() == t2.read_bytes()
    assert d1.read_bytes() == d2.read_bytes()


# ---- interactive stepping -------------------------------------------------


def _session(source, cores, commands, out):
    image = assembler.assemble(source)
    machine = engine.Machine(image, engine.MachineConfig(cores=cores))
    session = StepSession(machine, out=out)
    session.run(iter(commands))
    return machine, session


def test_repl_matches_batch_trace(tmp_path):
    source = fixtures.sumup_mode_source()
    image = assembler.assemble(source)
    batch = engine.Machine(image, engine.MachineConfig(cores=5))
    batch_events, batch = batch.run_to_halt()

    with open(os.devnull, "w") as null:
        machine, _ = _session(source, 5, ["step", "step 3", "run", "quit"], null)
    assert machine.halted
    assert tr.format_trace(machine.events) == tr.format_trace(batch_events)


def test_repl_step_shows_cycle_and_views(capsys):
    source = fixtures.sumup_mode_source()
    import io
    out = io.StringIO()
    machine, session = _session(source, 5,
                                ["step", "cores", "regs 0", "mem 0x200 16",
                                 "qts", "trace 3", "quit"], out)
    text = out.getvalue()
    assert "cycle 1" in text
    assert "core status" in text
    assert "%eax" in text
    assert "0x0200:" in text
    assert "mode=" in text


def test_repl_cores_show_the_core_state():
    """dynpar on 2 cores postpones a QCreate for lack of a free core."""
    import io
    out = io.StringIO()
    _session(fixtures.dynpar_source(), 2, ["step 5", "cores", "regs 0",
                                           "quit"], out)
    text = out.getvalue()
    assert "core status      qt       pc\n" in text
    assert "blocked" not in text
    assert " postponed " in text
    assert "status=postponed qt=1" in text


def test_repl_regs_match_trace_values(capsys):
    """Displayed latch values agree with what the batch trace records at
    the same cycle: a SUMUP child's FromParent holds its element address,
    and after the feed its ForParent holds the summand."""
    import io
    source = fixtures.sumup_mode_source()
    image = assembler.assemble(source)
    batch = engine.Machine(image, engine.MachineConfig(cores=5))
    batch_events, _ = batch.run_to_halt()
    first_read = next(ev for ev in batch_events
                      if ev.kind == tr.LATCH_READ and ev.qt != "1")
    first_feed = next(ev for ev in batch_events if ev.kind == tr.SUM_FEED)

    out = io.StringIO()
    _session(source, 5, ["step %d" % first_read.cycle,
                         "regs %d" % first_read.core, "quit"], out)
    assert "FromParent=0x%08x" % first_read.payload in out.getvalue()

    out = io.StringIO()
    _session(source, 5, ["step %d" % first_feed.cycle,
                         "regs %d" % first_feed.core, "quit"], out)
    assert "ForParent=0x%08x" % first_feed.payload in out.getvalue()


_SUMUP_CHILD_REGS = """\
cycle 10
%eax = 0x00000000
%ecx = 0x00000004
%edx = 0x00000005
%ebx = 0x00000200
%esp = 0x00000000
%ebp = 0x00000000
%esi = 0x00000000
%edi = 0x00000000
zf=1 sf=0 of=0 pc=0x0024
ForChild=0x00000000 FromChild=0x00000000 ForParent=0x00000005 \
FromParent=0x00000200
mode=0 parentMode=5 phase=mass-child status=running qt=11
"""

_SUMUP_POST_REGS = """\
cycle 16
%eax = 0x0000000f
%ecx = 0x00000004
%edx = 0x00000000
%ebx = 0x00000200
%esp = 0x00000000
%ebp = 0x00000000
%esi = 0x00000000
%edi = 0x00000000
zf=1 sf=0 of=0 pc=0x002c
ForChild=0x00000210 FromChild=0x0000000f ForParent=0x00000000 \
FromParent=0x00000000
mode=5 parentMode=0 phase=mass-post status=running qt=1
"""


@pytest.mark.parametrize("cycle,core,expected", [
    (10, 1, _SUMUP_CHILD_REGS),     # the first SUMUP child, at its feed
    (16, 0, _SUMUP_POST_REGS),      # the parent, at its adder read-out
])
def test_repl_regs_full_output_in_sumup(cycle, core, expected):
    """The whole `regs` view of a SUMUP child and of its parent after
    the loop: each latch under its own name, mode and phase."""
    import io
    out = io.StringIO()
    _session(fixtures.sumup_mode_source(), 5,
             ["step %d" % cycle, "regs %d" % core, "quit"], out)
    text = out.getvalue()
    assert text[text.index("cycle %d\n" % cycle):] == expected


def test_repl_breakpoint_stops_run():
    import io
    source = fixtures.for_mode_source()
    image = assembler.assemble(source)
    term_addr = image.symbols["FTT"]
    out = io.StringIO()
    machine, session = _session(source, 4,
                                ["break 0x%x" % term_addr, "run", "quit"], out)
    assert not machine.halted
    assert "breakpoint" in out.getvalue()
    assert any(core.pc == term_addr for core in machine.cores)


@pytest.mark.parametrize("with_breakpoint", (False, True))
def test_repl_run_looks_only_at_running_cores(with_breakpoint):
    """The breakpoint check follows the work: `run` never scans the core
    list, with no breakpoint or with one that is never hit."""
    import io
    image = assembler.assemble(fixtures.no_mode_source(list(range(1, 201))))
    machine = engine.Machine(image, engine.MachineConfig(cores=64))
    machine.cores = CountingList(machine.cores)
    out = io.StringIO()
    session = StepSession(machine, out=out)
    if with_breakpoint:
        session.do_break(["0x%x" % fixtures.DATA_BASE])    # data, never run
    session.do_run([])
    assert machine.halted and machine.clock > 2000
    assert "breakpoint at" not in out.getvalue()
    assert machine.cores.scans == 0


@pytest.mark.parametrize("command, complaint", [
    ("trace -2", "event count must be at least 0, not -2"),
    ("mem -4 8", "address must be at least 0, not -4"),
    ("mem 0x10000 4", "address must be below 0x1000, not 0x10000"),
    ("mem 0 0", "length must be at least 1, not 0"),
    ("mem 0 -1", "length must be at least 1, not -1"),
    ("break -1", "address must be at least 0, not -1"),
    ("break 0x1000", "address must be below 0x1000, not 0x1000"),
    ("step -2", "step count must be at least 0, not -2"),
])
def test_repl_numbers_out_of_range_are_bad_arguments(command, complaint):
    import io
    out = io.StringIO()
    machine, session = _session("nop\nhalt\n", 1, ["step", command], out)
    lines = out.getvalue().splitlines()
    assert lines[-1] == "bad argument: " + complaint
    assert lines[-2] == "cycle 1"                   # nothing else printed
    assert machine.clock == 1 and not session.breakpoints


def test_repl_trace_counts_from_the_end():
    import io
    out = io.StringIO()
    machine, _ = _session("nop\nnop\nhalt\n", 1,
                          ["run", "trace 0", "trace 2", "trace 9"], out)
    lines = out.getvalue().splitlines()
    shown = [tr.format_event(ev) for ev in machine.events]
    assert len(shown) == 3
    assert lines[lines.index("halted at cycle 3") + 1:] \
        == shown[1:] + shown


def test_repl_unknown_command_prints_help():
    import io
    out = io.StringIO()
    _session("halt\n", 1, ["wat", "quit"], out)
    assert "commands:" in out.getvalue()


@pytest.mark.parametrize("baseline, complaint", [
    ("0", "baseline cycle count must be positive, not 0"),
    ("-3", "baseline cycle count must be positive, not -3"),
    ("{dir}/zero.kv", "baseline cycle count must be positive, not 0"),
    ("{dir}/abc.kv", "totalCycles in baseline file is not an integer: 'abc'"),
])
@pytest.mark.parametrize("command", ["run", "stats"])
def test_a_baseline_that_is_not_a_positive_count_is_a_user_error(
        fixture_dir, command, baseline, complaint):
    (fixture_dir / "zero.kv").write_text("totalCycles=0\ncores=1\n")
    (fixture_dir / "abc.kv").write_text("totalCycles=abc\n")
    source = fixture_dir / "adaptive.eyo"
    trace = fixture_dir / "adaptive.trace"
    assert cli.main(["run", _p(source), "--cores", "5",
                     "--trace", _p(trace)]) == 0
    target = source if command == "run" else trace
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(empa.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "empa.cli", command, _p(target),
         "--baseline", baseline.format(dir=fixture_dir)],
        env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert "error: %s\n" % complaint in done.stderr
    assert done.stdout == ""


def test_python_dash_m_empa_runs_the_cli_from_a_checkout():
    """`python -m empa` is the `empa` command, with only src/ on the path."""
    src = os.path.dirname(os.path.dirname(empa.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "empa", "run", "fixtures/adaptive.eyo",
         "--cores", "5", "--stats"],
        cwd=os.path.dirname(src), env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "totalCycles=21\n" in done.stdout
