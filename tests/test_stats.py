"""Statistics: Amdahl inversion, the model calculator in exact rationals,
trace-derived counters, baseline parsing."""

from fractions import Fraction

import pytest

from empa import stats, trace as tr
from empa.fixtures import dynpar_source, no_mode_source, sumup_mode_source
from helpers import assemble_run


def test_alpha_eff_table_rows():
    assert abs(stats.alpha_eff(2, 0.91) - (-0.20)) <= 0.005
    assert abs(stats.alpha_eff(5, 3.74) - 0.92) <= 0.005
    assert stats.alpha_eff(1, 1.0) == 1.0


def test_alpha_eff_no_gain_is_zero():
    assert stats.alpha_eff(8, 1.0) == 0.0


MODEL_ROWS = [
    ((8, 3, 4), (Fraction(8, 3), Fraction(2, 3)), ("2.67", "0.67")),
    ((8, 7, 2), (Fraction(8, 7), Fraction(4, 7)), ("1.14", "0.57")),
    ((8, 6, 2), (Fraction(4, 3), Fraction(2, 3)), ("1.33", "0.67")),
    ((8, Fraction("3.8"), Fraction("4.1")),
     (Fraction(40, 19), Fraction(400, 779)), ("2.11", "0.51")),
]


@pytest.mark.parametrize("inputs,exact,rounded", MODEL_ROWS)
def test_model_calculator_rows(inputs, exact, rounded):
    par, speed, eff = stats.model_calculator(*inputs)
    assert par == speed == exact[0]
    assert eff == exact[1]
    assert "%.2f" % float(speed) == rounded[0]
    assert "%.2f" % float(eff) == rounded[1]


def test_model_calculator_serial_case():
    par, speed, eff = stats.model_calculator(8, 8, 1)
    assert (par, speed, eff) == (1, 1, 1)


def test_model_calculator_rejects_nonpositive():
    with pytest.raises(ValueError):
        stats.model_calculator(0, 3, 4)
    with pytest.raises(ValueError):
        stats.model_calculator(8, 0, 4)


def test_compute_stats_counts():
    _, machine, events = assemble_run(sumup_mode_source(), cores=5)
    st = stats.compute_stats(events, 5)
    assert st.total_cycles == machine.clock
    assert st.cores == 5
    assert st.cores_used == 5
    assert st.max_concurrent == 5
    assert len(st.per_core_busy) == 5
    assert st.per_core_busy[0] >= max(st.per_core_busy[1:])
    assert st.speedup is None


def test_compute_stats_speedup_and_alpha():
    _, base_machine, _ = assemble_run(no_mode_source(), cores=1)
    _, machine, events = assemble_run(sumup_mode_source(), cores=5)
    st = stats.compute_stats(events, 5, baseline_cycles=base_machine.clock)
    assert st.speedup == base_machine.clock / machine.clock
    assert st.alpha_eff == stats.alpha_eff(5, st.speedup)


def test_dynpar_concurrency_counted_from_trace():
    _, _, events = assemble_run(dynpar_source(), cores=8)
    st = stats.compute_stats(events, 8)
    assert st.max_concurrent == 7
    assert st.cores_used == 7


def test_format_and_parse_baseline():
    _, _, events = assemble_run(no_mode_source(), cores=1)
    st = stats.compute_stats(events, 1)
    text = stats.format_stats(st)
    assert stats.parse_baseline(text) == st.total_cycles
    assert stats.parse_baseline("53") == 53
    with pytest.raises(ValueError):
        stats.parse_baseline("")


def test_nonpositive_baseline_rejected():
    _, _, events = assemble_run(no_mode_source(), cores=1)
    with pytest.raises(ValueError):
        stats.compute_stats(events, 1, baseline_cycles=0)


def test_empty_trace_stats():
    st = stats.compute_stats([], 4)
    assert st.total_cycles == 0
    assert st.max_concurrent == 0
    assert st.cores_used == 0


@pytest.mark.parametrize("events", [
    [], [tr.Event(0, 0, "1", tr.INSTR_RETIRED, 0)]], ids=["empty", "cycle-0"])
def test_a_trace_that_ends_at_cycle_0_has_no_speedup(events):
    with pytest.raises(ValueError, match="ends at cycle 0"):
        stats.compute_stats(events, 1, baseline_cycles=10)


def test_too_few_cores_rejected():
    _, _, events = assemble_run(dynpar_source(), cores=8)
    with pytest.raises(ValueError, match="core 6"):
        stats.compute_stats(events, 2)
    assert stats.compute_stats(events, 7).cores == 7


def test_stats_deterministic_text():
    _, _, e1 = assemble_run(sumup_mode_source(), cores=5)
    _, _, e2 = assemble_run(sumup_mode_source(), cores=5)
    assert stats.format_stats(stats.compute_stats(e1, 5)) == \
        stats.format_stats(stats.compute_stats(e2, 5))
