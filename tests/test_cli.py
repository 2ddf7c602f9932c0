"""CLI tests: subcommand flows, exit codes, file outputs, environment
default, and REPL-vs-batch trace equivalence."""

import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import empa
from empa import assembler, cli, diagram, engine, fixtures, trace as tr
from empa.cli import StepSession

from helpers import (CountingList, bench_workloads, count_calls,
                     pinned_traces, traced_memory)


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


def test_default_output_paths_swap_only_the_file_name_s_extension(
        tmp_path, monkeypatch, capsys):
    """A dot in a directory name is no extension, and a file name with
    none gets the new one appended."""
    dotted = tmp_path / "build.v1"
    work = tmp_path / "work"
    dotted.mkdir()
    work.mkdir()
    source = fixtures.FIXTURES["no_mode"]()
    (dotted / "prog").write_text(source)
    (tmp_path / "prog").write_text(source)
    monkeypatch.chdir(work)
    assert cli.main(["asm", "../build.v1/prog"]) == 0
    assert cli.main(["asm", "../prog"]) == 0
    assert cli.main(["run", "../prog.yo", "--trace", "../build.v1/run"]) == 0
    assert cli.main(["diagram", "../build.v1/run"]) == 0
    capsys.readouterr()
    assert sorted(os.listdir(dotted)) == ["prog", "prog.img", "prog.yo",
                                          "run", "run.svg"]
    assert sorted(os.listdir(tmp_path)) == ["build.v1", "prog", "prog.img",
                                            "prog.yo", "work"]
    assert os.listdir(work) == []


def test_asm_undefined_label_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.eyo"
    bad.write_text("jmp Missing\n")
    rc = cli.main(["asm", _p(bad)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Missing" in err and "line 1" in err


@pytest.mark.parametrize("argv", [["asm"], ["run"], ["step"],
                                  ["run", "--cores", "4", "--stats"]])
def test_each_command_names_the_source_of_an_assembler_error(
        tmp_path, capsys, monkeypatch, argv):
    """asm, run and step print the same stderr for a bad source: its
    path, the line and the message, with exit 1 and no usage line."""
    monkeypatch.setattr("builtins.input", lambda prompt: pytest.fail(prompt))
    bad = tmp_path / "bad.eyo"
    bad.write_text("nop\nbogus %eax\n")
    assert cli.main(argv[:1] + [_p(bad)] + argv[1:]) == 1
    captured = capsys.readouterr()
    assert captured.err == "%s: line 2: unknown mnemonic 'bogus'\n" % bad
    assert captured.out == ""
    assert not (tmp_path / "bad.yo").exists()


@pytest.mark.parametrize("command", ["run", "step"])
def test_a_bad_listing_names_its_file(tmp_path, capsys, command):
    bad = tmp_path / "bad.yo"
    bad.write_text("0x0000: 10 | nop\n0x0001: zz | nop\n")
    assert cli.main([command, _p(bad)]) == 1
    assert capsys.readouterr().err == (
        "%s: line 2: unparseable listing line\n" % bad)


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


@pytest.mark.parametrize("baseline", ["53", "0x35"])
def test_a_baseline_that_names_no_file_is_a_cycle_count(fixture_dir, capsys,
                                                        baseline):
    rc = cli.main(["run", _p(fixture_dir / "adaptive.eyo"), "--cores", "5",
                   "--baseline", baseline])
    assert rc == 0
    assert capsys.readouterr().out == ("totalCycles=21\nspeedup=2.523810\n"
                                       "alphaEff=0.754717\n")


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


def test_diagram_ascii_writes_the_output_path(fixture_dir, capsys):
    """`--ascii -o PATH` writes the diagram that `--ascii` prints to
    PATH and names the file, as the SVG does."""
    trace_out = fixture_dir / "d.trace"
    cli.main(["run", _p(fixture_dir / "sumup_mode.eyo"), "--cores", "5",
              "--trace", _p(trace_out)])
    capsys.readouterr()
    assert cli.main(["diagram", _p(trace_out), "--ascii"]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("cycle ") and "C4" in printed
    out = fixture_dir / "d.txt"
    assert cli.main(["diagram", _p(trace_out), "--ascii", "-o", _p(out)]) == 0
    assert capsys.readouterr().out == "wrote %s\n" % out
    assert out.read_text(encoding="utf-8") == printed
    assert not (fixture_dir / "d.svg").exists()


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_run_diagrams_equal_those_of_its_saved_trace(fixture_dir, capsys,
                                                     name):
    trace_out = fixture_dir / "r.trace"
    svg_run, svg_saved = fixture_dir / "run.svg", fixture_dir / "saved.svg"
    cli.main(["run", _p(fixture_dir / ("%s.eyo" % name)), "--cores", "5",
              "--trace", _p(trace_out), "--ascii", "--diagram", _p(svg_run)])
    ran = capsys.readouterr().out
    assert cli.main(["diagram", _p(trace_out), "--cores", "5",
                     "--ascii"]) == 0
    ascii_text = capsys.readouterr().out
    assert ascii_text.startswith("cycle ")
    assert ran.startswith(ascii_text)
    assert ran[len(ascii_text):].startswith("totalCycles=")
    assert cli.main(["diagram", _p(trace_out), "--cores", "5",
                     "--output", _p(svg_saved)]) == 0
    assert svg_saved.read_bytes() == svg_run.read_bytes()


@pytest.mark.parametrize("argv", [
    ["stats"], ["stats", "--cores", "8", "--baseline", "53"],
    ["diagram", "--ascii"], ["diagram", "--cores", "6"],
    ["run", "--stats", "--ascii", "--diagram", "{dir}/r.svg"],
], ids=["stats", "stats-cores", "diagram-ascii", "diagram-svg", "run"])
def test_each_command_reads_its_trace_in_one_view(fixture_dir, capsys,
                                                  monkeypatch, argv):
    """One qt_spans pass and one cores_needed pass per command: the core
    count and every consumer read the one view of the Trace."""
    trace_out = fixture_dir / "v.trace"
    cli.main(["run", _p(fixture_dir / "adaptive.eyo"), "--cores", "5",
              "--trace", _p(trace_out)])
    capsys.readouterr()
    calls = count_calls(monkeypatch, "qt_spans", "cores_needed")
    command, *flags = [arg.format(dir=fixture_dir) for arg in argv]
    source = fixture_dir / "adaptive.eyo" if command == "run" else trace_out
    assert cli.main([command, _p(source)] + flags) == 0
    assert sorted(calls) == ["cores_needed", "qt_spans"]


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


@pytest.mark.parametrize("argv", [["stats"], ["diagram", "--ascii"],
                                  ["diagram"]])
@pytest.mark.parametrize("kind, cycle, payload", [
    (tr.INSTR_RETIRED, 1, 0x40000),
    (tr.INSTR_RETIRED, 2, 0xFFFFFFFF),
    (tr.META_RETIRED, 2, 4),
])
def test_a_duration_that_starts_before_cycle_0_is_a_user_error(
        tmp_path, capsys, argv, kind, cycle, payload):
    trace_out = tmp_path / "early.trace"
    trace_out.write_text(
        "cycle=0 core=0 qt=1 kind=InstrRetired addr=0x0000\n"
        "cycle=%d core=0 qt=1 kind=%s addr=0x0000 payload=0x%08x\n"
        % (cycle, kind, payload))
    with pytest.raises(SystemExit) as exc:
        cli.main(argv[:1] + [_p(trace_out)] + argv[1:])
    assert exc.value.code == 1
    assert "%s: the %s at cycle=%d core=0 has payload=0x%08x" % (
        trace_out, kind, cycle, payload) in capsys.readouterr().err
    assert not (tmp_path / "early.svg").exists()


@pytest.mark.parametrize("argv", [["stats"], ["diagram", "--ascii"],
                                  ["diagram"]])
def test_a_duration_that_starts_at_cycle_0_is_accepted(tmp_path, capsys, argv):
    trace_out = tmp_path / "edge.trace"
    trace_out.write_text(
        "cycle=2 core=0 qt=1 kind=InstrRetired addr=0x0000 payload=0x00000003\n"
        "cycle=3 core=0 qt=1 kind=MetaRetired addr=0x0004 payload=0x00000000\n"
        "cycle=3 core=0 qt=1 kind=QtCreated addr=0x0004 payload=0x00000009\n")
    assert cli.main(argv[:1] + [_p(trace_out)] + argv[1:]) == 0
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["diagram", "{trace}", "--output", "{missing}/x.svg"],
    ["run", "{src}", "--cores", "5", "--diagram", "{missing}/x.svg"],
    ["asm", "{src}", "-o", "{missing}/x.yo"],
    ["diagram", "{trace}", "--ascii", "-o", "{missing}/x.txt"],
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


# ---- streamed outputs -----------------------------------------------------


def _cli_outputs(tmp_path, capsys, source, cores):
    """The bytes of the trace and the SVG that `empa run --trace
    --diagram` writes for `source` on `cores` cores."""
    path = tmp_path / "p.eyo"
    path.write_text(source, encoding="utf-8")
    trace_out, svg_out = tmp_path / "p.trace", tmp_path / "p.svg"
    assert cli.main(["run", _p(path), "--cores", str(cores),
                     "--trace", _p(trace_out), "--diagram", _p(svg_out)]) == 0
    capsys.readouterr()
    return trace_out.read_bytes(), svg_out.read_bytes()


@pytest.mark.parametrize("cores", [5, 64])
@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_run_writes_the_trace_and_svg_of_the_library(tmp_path, capsys, name,
                                                     cores):
    """`run --trace --diagram` writes its outputs block by block: the
    bytes of format_trace and render_diagram."""
    source = fixtures.FIXTURES[name]()
    machine = engine.Machine(assembler.assemble(source),
                             engine.MachineConfig(cores=cores))
    events, _ = machine.run_to_halt()
    assert _cli_outputs(tmp_path, capsys, source, cores) == (
        tr.format_trace(events).encode(),
        diagram.render_diagram(events, cores).encode())


def test_run_writes_the_outputs_of_the_walkthrough_programs(tmp_path, capsys):
    """The same on every seed-0 walkthrough_batch program.  The other
    workloads' programs need 16 KB of memory, more than `empa run`
    gives, so their outputs are checked through `empa diagram` below."""
    programs = bench_workloads().generate("walkthrough_batch", 0)
    runs = pinned_traces()["walkthrough_batch"]
    assert len(programs) == len(runs)
    for program, (cores, events) in zip(programs, runs):
        assert program.mem_bytes == assembler.DEFAULT_IMAGE_SIZE
        assert _cli_outputs(tmp_path, capsys, program.source, cores) == (
            tr.format_trace(events).encode(),
            diagram.render_diagram(events, cores).encode())


@pytest.mark.parametrize("name", sorted(bench_workloads().PARAMS) + [
    "fixture:" + name for name in sorted(fixtures.FIXTURES)])
def test_diagram_writes_the_svg_and_ascii_of_the_library(tmp_path, capsys,
                                                         name):
    """`diagram` and `diagram --ascii -o` write the bytes of
    render_diagram and render_ascii, for every seed-0 bench program and
    every fixture on 64 cores."""
    trace_in, svg_out = tmp_path / "p.trace", tmp_path / "p.svg"
    ascii_out = tmp_path / "p.txt"
    for cores, events in pinned_traces()[name]:
        trace_in.write_text(tr.format_trace(events), encoding="utf-8")
        flags = [_p(trace_in), "--cores", str(cores)]
        assert cli.main(["diagram"] + flags) == 0
        assert cli.main(["diagram"] + flags + ["--ascii", "-o",
                                                _p(ascii_out)]) == 0
        capsys.readouterr()
        assert svg_out.read_bytes() == \
            diagram.render_diagram(events, cores).encode()
        assert ascii_out.read_bytes() == \
            diagram.render_ascii(events, cores).encode()


@pytest.mark.parametrize("ascii_flag", [[], ["--ascii"]])
@pytest.mark.parametrize("text, cores, complaint", [
    ("cycle=1 core=6 qt=1 kind=InstrRetired addr=0x0000\n", "2",
     "trace uses 7 cores"),
    ("cycle=1 core=0 qt=1 kind=InstrRetired addr=0XA\n", "2", "bad addr"),
])
def test_a_bad_trace_leaves_an_existing_output_untouched(
        tmp_path, capsys, ascii_flag, text, cores, complaint):
    """Too few --cores and a bad trace line are found before the output
    file is opened, so a file already at its path keeps its bytes."""
    trace_in, out = tmp_path / "bad.trace", tmp_path / "out.svg"
    trace_in.write_text(text, encoding="utf-8")
    out.write_bytes(b"kept\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["diagram", _p(trace_in), "--cores", cores, "-o", _p(out)]
                 + ascii_flag)
    assert exc.value.code == 1
    assert complaint in capsys.readouterr().err
    assert out.read_bytes() == b"kept\n"


def test_a_late_one_line_trace_is_drawn_in_bounded_memory(tmp_path, capsys):
    """One event at cycle 10**6: the SVG holds 200,001 grid lines, 37.4
    MB of text.  `empa diagram` writes it a block at a time, so the
    command peaks below 4 MB (86.4 MB when the document was joined
    first)."""
    trace_in, svg_out = tmp_path / "late.trace", tmp_path / "late.svg"
    trace_in.write_text("cycle=1000000 core=0 qt=1 kind=InstrRetired "
                        "addr=0x0000\n", encoding="utf-8")
    rc, _, peak = traced_memory(lambda: cli.main(["diagram", _p(trace_in)]))
    assert rc == 0
    assert capsys.readouterr().out == "wrote %s\n" % svg_out
    assert svg_out.stat().st_size > 37_000_000
    assert peak < 4_000_000, peak


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


@pytest.mark.parametrize("text", [
    "", "cycle=0 core=0 qt=1 kind=InstrRetired addr=0x0000\n"],
    ids=["empty", "cycle-0"])
def test_a_trace_with_no_cycles_given_a_baseline_is_a_user_error(tmp_path,
                                                                  text):
    trace = tmp_path / "none.trace"
    trace.write_text(text)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(empa.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "empa.cli", "stats", _p(trace),
         "--baseline", "10"],
        env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines()[1:] == [
        "empa: error: the trace ends at cycle 0, so it has no cycle count "
        "to set against the baseline"]
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


# ---- the whole stderr of each user error ----------------------------------

_USER_ERROR = ("usage: empa [-h] {asm,run,step,stats,diagram} ...\n"
               "empa: error: %s\n")
_TRACE_LINES = {
    "far": "cycle=0 core=0 qt=1 kind=InstrRetired addr=0x0000\n"
           "cycle=1 core=6400 qt=1 kind=InstrRetired addr=0x0000\n",
    "early1": "cycle=0 core=0 qt=1 kind=InstrRetired addr=0x0000\n"
              "cycle=1 core=0 qt=1 kind=InstrRetired addr=0x0000 "
              "payload=0x00040000\n",
    "early2": "cycle=0 core=0 qt=1 kind=InstrRetired addr=0x0000\n"
              "cycle=2 core=0 qt=1 kind=InstrRetired addr=0x0000 "
              "payload=0xffffffff\n",
    "early3": "cycle=0 core=0 qt=1 kind=InstrRetired addr=0x0000\n"
              "cycle=2 core=0 qt=1 kind=MetaRetired addr=0x0000 "
              "payload=0x00000004\n",
    "dup": "cycle=1 cycle=7 core=0 qt=1 kind=InstrRetired addr=0x0000\n",
    "key": "cycle=1 core=0 qt=1 kind=InstrRetired addr=0x0000 paylod=0x5\n",
    "neg": "cycle=-3 core=0 qt=1 kind=InstrRetired addr=0x0000\n",
    "hex": "cycle=1 core=0 qt=1 kind=InstrRetired addr=0XA\n",
}
_TRACE_READERS = (["stats"], ["diagram", "--ascii"], ["diagram"])
_EARLY = ("{dir}/early%d.trace: the %s at cycle=%d core=0 has payload=0x%08x, "
          "a duration of %d cycles that starts before cycle 0")
_MALFORMED = {"dup": "duplicate key 'cycle' on line 1",
              "key": "unknown key 'paylod' on line 1",
              "neg": "negative cycle on line 1",
              "hex": "bad addr '0XA' on line 1"}
_BASELINES = {"0": "baseline cycle count must be positive, not 0",
              "-3": "baseline cycle count must be positive, not -3",
              "{dir}/zero.kv": "baseline cycle count must be positive, not 0",
              "{dir}/abc.kv":
                  "totalCycles in baseline file is not an integer: 'abc'",
              "{dir}/missing.kv":
                  "--baseline {dir}/missing.kv: no such file, and not a "
                  "cycle count"}
_TIMINGS = {"noeq": ("nop 3\n", "line 1: expected class=cycles"),
            "number": ("opl = 2\nmrmovl = x\n",
                       "line 2: invalid literal for int() with base 0: "
                       "'x'"),
            "class": ("# classes\n\nfoo = 3\n",
                      "line 3: unknown instruction class 'foo'"),
            "zero": ("mrmovl = 0  # none\n",
                     "line 1: class 'mrmovl' needs at least 1 cycle")}
# (argv, EMPA_CORES or None, message); {dir} is the inputs' directory.
_USER_ERRORS = (
    [([cmd, "{dir}/adaptive.eyo"], value,
      "EMPA_CORES=%s: must be a whole number between 1 and 64" % value)
     for cmd in ("run", "step") for value in ("abc", "0", "65")]
    + [([cmd, "{dir}/adaptive.eyo", "--cores", n], None,
        "--cores must be between 1 and 64")
       for cmd in ("run", "step") for n in ("0", "65")]
    + [(argv[:1] + ["{dir}/dynpar.trace", "--cores", n] + argv[1:], None,
        "--cores must be between 1 and 64")
       for argv in _TRACE_READERS for n in ("0", "65")]
    + [(["run", "{dir}/no_mode.eyo", "--watchdog", "0"], None,
        "watchdog window must be at least 1 cycle")]
    + [([cmd, "{dir}/big.img", "--cores", "1"], None,
        "image of 9000 bytes exceeds 4096-byte memory")
       for cmd in ("run", "step")]
    + [(argv[:1] + ["{dir}/%s.trace" % name] + argv[1:], None, message)
       for argv in _TRACE_READERS for name, message in _MALFORMED.items()]
    + [(argv[:1] + ["{dir}/dynpar.trace", "--cores", "2"] + argv[1:], None,
        "the trace uses 7 cores, more than --cores")
       for argv in _TRACE_READERS]
    + [(argv[:1] + ["{dir}/far.trace"] + flag + argv[1:], None,
        "{dir}/far.trace: the trace names core 6400, but a machine has at "
        "most 64 cores")
       for argv in _TRACE_READERS for flag in ([], ["--cores", "8"])]
    + [(argv[:1] + ["{dir}/early%d.trace" % n] + argv[1:], None,
        _EARLY % (n, kind, cycle, payload, payload))
       for argv in _TRACE_READERS
       for n, kind, cycle, payload in ((1, "InstrRetired", 1, 0x40000),
                                       (2, "InstrRetired", 2, 0xFFFFFFFF),
                                       (3, "MetaRetired", 2, 4))]
    + [([cmd, target, "--baseline", baseline], None, message)
       for cmd, target in (("run", "{dir}/adaptive.eyo"),
                           ("stats", "{dir}/adaptive.trace"))
       for baseline, message in _BASELINES.items()]
    + [([cmd, "{dir}/adaptive.eyo", "--timing", "{dir}/%s.timing" % name],
        None, "bad timing file: " + message)
       for cmd in ("run", "step") for name, (_, message) in _TIMINGS.items()]
)


@pytest.fixture(scope="module")
def error_inputs(tmp_path_factory):
    """A directory of the inputs that _USER_ERRORS name."""
    directory = tmp_path_factory.mktemp("inputs")
    fixtures.write_fixture_files(directory)
    (directory / "big.img").write_bytes(bytes(9000))
    for name, text in _TRACE_LINES.items():
        (directory / ("%s.trace" % name)).write_text(text)
    (directory / "zero.kv").write_text("totalCycles=0\ncores=1\n")
    (directory / "abc.kv").write_text("totalCycles=abc\n")
    for name, (text, _) in _TIMINGS.items():
        (directory / ("%s.timing" % name)).write_text(text)
    for name, cores in (("dynpar", "8"), ("adaptive", "5")):
        assert cli.main(["run", _p(directory / (name + ".eyo")), "--cores",
                         cores, "--trace",
                         _p(directory / (name + ".trace"))]) == 0
    return directory


@pytest.mark.parametrize("argv, empa_cores, message", _USER_ERRORS, ids=[
    ("EMPA_CORES=%s " % env if env else "")
    + " ".join(argv).replace("{dir}/", "") for argv, env, _ in _USER_ERRORS])
def test_each_user_error_prints_its_pinned_stderr(
        error_inputs, capsys, monkeypatch, argv, empa_cores, message):
    """The whole stderr of each rejected input: a usage line and one
    error line, exit 1, and nothing on stdout or on disk."""
    monkeypatch.setenv("COLUMNS", "80")
    if empa_cores is None:
        monkeypatch.delenv("EMPA_CORES", raising=False)
    else:
        monkeypatch.setenv("EMPA_CORES", empa_cores)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main([arg.format(dir=error_inputs) for arg in argv])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.err == _USER_ERROR % message.format(dir=error_inputs)
    assert captured.out == ""
    assert not list(error_inputs.glob("*.svg"))
