"""Profile-driven runs, per-window accounting, closed-loop load control."""

import gc
import importlib.resources
import io
import operator
import tracemalloc
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from hdrsim import (
    FeedbackUpdate,
    Profile,
    SystemParams,
    ThresholdPolicy,
    detect_cycles,
    load_profile,
    run,
    run_with_feedback,
    verify_trace,
    windowed_stats,
    write_window_stats_csv,
)
from conftest import constant_profile, diamond

DATA = importlib.resources.files("hdrsim") / "data"
FLAT = str(DATA / "harvest_flat_input.csv")
SCHEDULED = str(DATA / "harvest_scheduled_input.csv")


def fold(values):
    """``values`` added one by one from int 0, as a slot loop adds them."""
    return reduce(operator.add, values, 0)


def scenario_params(g=6.0, ct=0, cr=0):
    # profile overrides harvest slot by slot; thresholds and costs are what
    # matter here
    return diamond(e=(0.3, 0.2), g=g, h=(10.0, 10.0), ct=ct, cr=cr)


# ---------------------------------------------------------------------------
# profile parsing
# ---------------------------------------------------------------------------

def test_load_profile_single_row_matches_constant():
    prof = load_profile(io.StringIO("slot_range,e1,e2,g\n0-7999,0.3,0.2,6.0\n"))
    params = scenario_params()
    assert prof.length == 8000
    assert prof == constant_profile(params.with_input_rate(6.0), 8000)


def test_load_profile_three_node_column():
    prof = load_profile(io.StringIO(
        "slot_range,e1,e2,e3,g\n0-9,0.1,0.2,0.3,5\n10-19,0.2,0.2,0.2,4\n"))
    assert prof.n_nodes == 3
    assert prof.length == 20
    assert prof.segments == (((0.1, 0.2, 0.3), 5.0, 10),
                             ((0.2, 0.2, 0.2), 4.0, 10))


@pytest.mark.parametrize("text, fragment", [
    ("", "empty"),
    ("slot,e1,g\n0-9,1,1\n", "header"),
    # the load column twice, read as node 2's harvest before
    ("slot_range,e1,g,g\n0-9,1,1,1\n", "header"),
    ("slot_range,e2,e1,g\n0-9,1,1,1\n", "header"),
    ("slot_range,e1,e2,g\n0-9,0.1,0.2\n", "fields"),
    ("slot_range,e1,e2,g\nten-20,0.1,0.2,6\n", "range"),
    ("slot_range,e1,e2,g\n9-0,0.1,0.2,6\n", "range"),
    ("slot_range,e1,e2,g\n0-9,0.1,x,6\n", "numeric"),
    ("slot_range,e1,e2,g\n0-9,0.1,-0.2,6\n", "negative"),
    ("slot_range,e1,e2,g\n0-9,0.1,0.2,6\n5-14,0.1,0.2,6\n", "overlap"),
    ("slot_range,e1,e2,g\n0-9,0.1,0.2,6\n20-29,0.1,0.2,6\n", "gap"),
    ("slot_range,e1,e2,g\n", "empty profile"),
    ("slot_range,e1,e2,e3,e4,g\n0-9,0.1,0.2,0.3,0.4,6\n", "2 or 3 nodes"),
])
def test_load_profile_rejects_malformed_input(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        load_profile(io.StringIO(text))


@pytest.mark.parametrize("cells", ["nan,0.2,6", "0.1,inf,6", "0.1,0.2,-inf",
                                   "0.1,0.2,NaN"])
def test_load_profile_rejects_non_finite_values(cells):
    with pytest.raises(ValueError, match="non-finite"):
        load_profile(io.StringIO(f"slot_range,e1,e2,g\n0-3,{cells}\n"))


def test_bundled_profiles_share_the_harvest_budget():
    flat = load_profile(FLAT)
    sched = load_profile(SCHEDULED)
    assert flat.length == sched.length == 8000
    for prof in (flat, sched):
        totals = [sum(row[u] * k for row, _, k in prof.segments)
                  for u in range(2)]
        assert totals[0] == pytest.approx(2553.0)
        assert totals[1] == pytest.approx(1595.0)
        assert sum(g * k for _, g, k in prof.segments) == pytest.approx(
            48000.0)
    # node 1 spends the whole first kiloslot without harvest
    (e1, _), _, length = flat.segments[0]
    assert e1 == 0 and length >= 1000


def test_load_profile_holds_its_segments_not_its_slots():
    text = io.StringIO("slot_range,e1,e2,g\n0-999999,0.3,0.2,6.0\n")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prof = load_profile(text)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert prof.length == 10**6
    # one row per slot would hold two million references, 16 MB
    assert held < 10**4


def test_profile_replay_is_deterministic():
    params = scenario_params()
    a = run(params, profile=load_profile(FLAT), initial_batteries=(5.0, 5.0))
    b = run(params, profile=load_profile(FLAT), initial_batteries=(5.0, 5.0))
    assert a.records == b.records


# cells that are equal in value but not in type or bits, so a profile that
# merged neighbouring slots by value would run differently
HARVEST_CELLS = (0.3, 0.25, 0.5, -0.0, 0.0, 0, 1, F(1, 4), F(1, 2))
LOADS = (6.0, 6, 6.5, F(13, 2), 0.0, -0.0, 0)


@st.composite
def piecewise(draw):
    """A two-node profile as (harvest row, load, length) ranges, a packet
    mode and a window."""
    ranges = draw(st.lists(st.tuples(
        st.tuples(st.sampled_from(HARVEST_CELLS),
                  st.sampled_from(HARVEST_CELLS)),
        st.sampled_from(LOADS), st.integers(1, 60)), min_size=1, max_size=6))
    return (ranges, draw(st.sampled_from(["fractional", "whole"])),
            draw(st.integers(1, 100)))


def per_slot(ranges, cell=lambda x: x):
    """The ranges cut into length-1 segments, each slot with a row object
    of its own."""
    return Profile(tuple((tuple([cell(x) for x in row]), cell(g), 1)
                         for row, g, k in ranges for _ in range(k)))


def whole(ranges, cell=lambda x: x):
    """The ranges as one segment each."""
    return Profile(tuple((tuple(map(cell, row)), cell(g), k)
                         for row, g, k in ranges))


def run_columns(profile, mode, window):
    params = scenario_params(ct=0.01, cr=0.05)
    trace = run(params, profile=profile, packet_mode=mode,
                initial_batteries=(12.0, 11.5))
    cols = (*trace.battery_pre, *trace.battery_post, trace.active,
            trace.switched, trace.packets, trace.suppressed)
    return trace, [list(map(repr, c)) for c in cols], repr(
        windowed_stats(trace, window))


@settings(max_examples=60, deadline=None)
@given(piecewise())
def test_profiles_built_per_slot_or_loaded_run_alike(case):
    ranges, mode, window = case
    # length-1 segments with -0.0, int-zero and Fraction cells: the run
    # sees every slot's own cells, and cutting the ranges changes nothing
    trace, cols, stats = run_columns(per_slot(ranges), mode, window)
    harvest, rates = trace.inputs()
    assert list(map(repr, harvest)) == [repr(row) for row, _, k in ranges
                                        for _ in range(k)]
    assert list(map(repr, rates)) == [repr(g) for _, g, k in ranges
                                      for _ in range(k)]
    assert run_columns(whole(ranges), mode, window)[1:] == (cols, stats)

    # the same ranges as floats, cut into slots and loaded from CSV
    text = "slot_range,e1,e2,g\n"
    lo = 0
    for (e1, e2), g, k in ranges:
        text += (f"{lo}-{lo + k - 1},{float(e1)!r},{float(e2)!r},"
                 f"{float(g)!r}\n")
        lo += k
    loaded = load_profile(io.StringIO(text))
    assert loaded == whole(ranges, float)
    assert (run_columns(loaded, mode, window)[1:]
            == run_columns(per_slot(ranges, float), mode, window)[1:])


# ---------------------------------------------------------------------------
# windowed statistics
# ---------------------------------------------------------------------------

def test_windowed_stats_conserve_the_trace():
    params = scenario_params()
    trace = run(params, profile=load_profile(FLAT),
                initial_batteries=(5.0, 5.0))
    stats = windowed_stats(trace, 1000)
    assert len(stats) == 8
    assert sum(w.delivered for w in stats) == pytest.approx(
        sum(r.packets for r in trace.records))
    assert sum(w.offered for w in stats) == pytest.approx(48000.0)
    assert [w.start_slot for w in stats] == list(range(0, 8000, 1000))


def test_windowed_harvest_adds_slot_by_slot():
    # windows of 333 slots cut across the profile's 1000- and 500-slot
    # ranges; each window's harvest must be the slot loop's sum, bit for bit
    trace = run(scenario_params(), profile=load_profile(SCHEDULED),
                initial_batteries=(5.0, 5.0))
    rows = list(trace.inputs()[0])
    for w in windowed_stats(trace, 333):
        harvested = [0, 0]
        for row in rows[w.start_slot:w.start_slot + w.length]:
            for u in range(2):
                harvested[u] = harvested[u] + row[u]
        assert repr(w.harvested) == repr(tuple(harvested))


def test_windowed_stats_short_final_window():
    params = scenario_params()
    trace = run(params, n_slots=2500, initial_batteries=(5.0, 5.0))
    stats = windowed_stats(trace, 1000)
    assert [w.length for w in stats] == [1000, 1000, 500]
    with pytest.raises(ValueError):
        windowed_stats(trace, 0)


@pytest.mark.parametrize("window", [True, 2.5, 1000.0, "1000"])
def test_windowed_stats_refuse_a_window_that_is_not_an_int(window):
    trace = run(scenario_params(), n_slots=20, initial_batteries=(5.0, 5.0))
    with pytest.raises(ValueError, match="window must be an int"):
        windowed_stats(trace, window)


def test_windowed_stats_without_a_profile_repeat_the_constants():
    # a trace without a profile takes its inputs from the parameters; the
    # windows must come out as for the same run on a constant profile
    params = scenario_params()
    trace = run(params, n_slots=2500, initial_batteries=(5.0, 5.0))
    assert trace.profile is None
    stats = windowed_stats(trace, 1000)
    profiled = run(params, profile=constant_profile(params, 2500),
                   initial_batteries=(5.0, 5.0))
    assert stats == windowed_stats(profiled, 1000)
    # every total is a left fold in slot order, from int 0
    for w in stats:
        window = slice(w.start_slot, w.start_slot + w.length)
        assert w.offered == fold([params.input_rate] * w.length)
        assert w.harvested == tuple(fold([e] * w.length)
                                    for e in params.harvest_rates)
        assert w.delivered == fold(trace.packets[window])
        assert w.mean_battery == tuple(fold(col[window]) / w.length
                                       for col in trace.battery_pre)


def test_first_window_is_harvest_starved():
    # node 1 has nothing to harvest for 1000 slots: whatever it forwards
    # must come out of its initial charge
    params = scenario_params()
    trace = run(params, profile=load_profile(FLAT),
                initial_batteries=(5.0, 5.0))
    stats = windowed_stats(trace, 1000)
    first = stats[0]
    assert first.offered == pytest.approx(6000.0)
    assert first.delivered == pytest.approx(1200.0)  # 10 mJ stored + 86 harvested
    assert first.delivered < first.offered / 4
    spent_by_node1 = sum(r.packets for r in trace.records[:1000]
                         if r.active == 0) * 0.08
    assert spent_by_node1 <= 5.0 + 1e-9
    # once harvesting resumes the later windows saturate
    assert stats[3].delivered == pytest.approx(6000.0)


def test_scheduled_input_beats_flat_input():
    params = scenario_params()
    flat = run(params, profile=load_profile(FLAT),
               initial_batteries=(5.0, 5.0))
    sched = run(params, profile=load_profile(SCHEDULED),
                initial_batteries=(5.0, 5.0))
    flat_total = sum(r.packets for r in flat.records)
    sched_total = sum(r.packets for r in sched.records)
    assert flat_total == pytest.approx(41837.1299, abs=0.01)
    assert sched_total == pytest.approx(48000.0)
    assert sched_total > flat_total


def test_window_stats_csv(tmp_path):
    params = scenario_params()
    trace = run(params, n_slots=2000, initial_batteries=(5.0, 5.0))
    stats = windowed_stats(trace, 500)
    out = tmp_path / "windows.csv"
    write_window_stats_csv(stats, out)
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "window,offered,delivered,harvest1,harvest2"
    assert len(lines) == 5
    with pytest.raises(ValueError):
        write_window_stats_csv([], out)


# ---------------------------------------------------------------------------
# drifting segment
# ---------------------------------------------------------------------------

def test_surplus_segment_cycle_and_drift():
    # harvest exceeds the load, so both batteries climb while the roles
    # keep alternating; the cycle quantizes to 85/86 slots
    params = diamond(e=(0.40754, 0.4), g=6.0, h=(10.0, 10.0), cap=2000.0)
    trace = run(params, n_slots=2500, initial_batteries=(100.0, 95.0))
    cycles = detect_cycles(trace, warmup=200)
    assert len(cycles) >= 20
    lengths = {c.length for c in cycles}
    assert lengths == {85, 86}
    mean = sum(c.length for c in cycles) / len(cycles)
    assert 85.0 <= mean <= 88.0
    for c in cycles:
        rate = c.drift[0] / c.length
        assert 0.15 <= rate <= 0.165
    # long-run per-node climb approaches half the net energy surplus
    ideal = (0.40754 + 0.4 - 0.48) / 2
    first = trace.records[0].battery_pre
    last = trace.records[-1].battery_post
    measured = (sum(last) - sum(first)) / 2 / len(trace.records)
    assert measured == pytest.approx(ideal, abs=1e-3)


# ---------------------------------------------------------------------------
# bounds corner under control costs
# ---------------------------------------------------------------------------

def test_zero_harvest_node_can_dip_below_empty():
    # an idle node always sends status traffic; with nothing to harvest its
    # level crosses zero, which the audit must report as a bounds problem
    # and nothing else
    params = scenario_params(ct=0.01, cr=0.05)
    trace = run(params, profile=load_profile(FLAT),
                initial_batteries=(5.0, 5.0))
    problems = verify_trace(trace)
    assert problems
    for msg in problems:
        assert "node 1" in msg and "outside" in msg
    floor_level = min(r.battery_pre[0] for r in trace.records)
    assert -10.0 < floor_level < 0


# ---------------------------------------------------------------------------
# closed-loop input rate
# ---------------------------------------------------------------------------

def test_feedback_without_switch_cost_is_open_loop():
    # the zero-drift load is then harvest over packet energy, which is what
    # the run already uses, so the controller never changes anything
    params = diamond(e=(0.8, 0.6), g=17.5, h=(5.0, 5.0))
    a = run(params, n_slots=800)
    b = run_with_feedback(params, horizon=800, estimator_window=5)
    assert a.records == b.records
    assert all(not flagged for _, _, _, flagged in b.feedback_log)


def test_feedback_with_giant_window_is_open_loop():
    params = diamond(e=(0.8, 0.6), g=12.0, h=(5.0, 5.0))
    a = run(params, n_slots=800)
    b = run_with_feedback(params, horizon=800, estimator_window=10 ** 6)
    assert a.records == b.records
    assert b.feedback_log == ()


def test_feedback_rate_stays_bounded():
    params = scenario_params(g=6.0, ct=0.01, cr=0.05)
    trace = run_with_feedback(params, profile=load_profile(SCHEDULED),
                              initial_batteries=(40.0, 40.0))
    segments = trace.profile.segments
    ceiling = max(sum(row) for row, _, _ in segments) / 0.08
    for _, g, _ in segments:
        assert 0 <= g <= max(ceiling, 6.0)


def test_feedback_holds_rate_when_harvest_collapses():
    prof = Profile((((0.8, 0.6), 6.0, 1200), ((0.03, 0.03), 6.0, 1200),
                    ((0.8, 0.6), 6.0, 1200)))
    params = diamond(e=(0.8, 0.6), g=10.0, h=(5.0, 5.0), ct=0.05, cr=0.05)
    trace = run_with_feedback(params, profile=prof, estimator_window=5)
    log = trace.feedback_log
    flagged = [i for i, entry in enumerate(log) if entry[3]]
    assert flagged
    for i in flagged:
        assert i > 0
        assert log[i][2] == log[i - 1][2]  # rate held, not driven negative
    assert all(entry[2] > 0 for entry in log)


def test_feedback_log_entries_name_their_fields():
    trace = run_with_feedback(diamond(ct=0.01, cr=0.05), horizon=3000)
    rates = list(trace.inputs()[1])
    for entry in trace.feedback_log:
        assert type(entry) is FeedbackUpdate
        assert entry == (entry.slot, entry.estimate, entry.load,
                         entry.flagged)
        # a handover to node 1, and the load offered from the next slot on
        assert trace.switched[entry.slot] and trace.active[entry.slot] == 0
        assert rates[entry.slot + 1] is entry.load


def test_feedback_load_whose_gap_to_the_harvest_rounds_to_zero():
    # the controller's float load 1.6 against a Fraction harvest of 1/10:
    # demand 0.1 exceeds 1/10 exactly, but 0.1 - 1/10 is 0.0 in floats, so
    # the share of slot 29, where the forwarder has 0.05 to spare, is the
    # limit of spare / gap, the full slot
    params = SystemParams(harvest_rates=(F(1, 4), F(1, 4)), input_rate=F(16),
                          packet_energy=F(1, 16),
                          thresholds=ThresholdPolicy((F(1, 4), F(1, 4))),
                          battery_capacity=F(4))
    profile = Profile((((0, F(1, 10)), F(16), 31),))
    trace = run_with_feedback(params, 30, 2, profile,
                              initial_batteries=(0, F(1, 4)))
    assert trace.profile.segments[-1][1:] == (1.6, 24)
    assert trace.active[29] == 1 and trace.packets[29] == 1.6
    # the audit replays the same rule; a handover charges the new forwarder
    # below zero here, and the levels out of range are all it reports
    problems = verify_trace(trace)
    assert problems
    assert all("outside [0, capacity]" in p for p in problems)


@pytest.mark.parametrize("start, level", [((F(2), F(1)), 1.1),
                                          ((F(0), F(1)), 0)])
def test_steered_load_whose_gap_to_the_harvest_rounds_to_zero(start, level):
    # the float load a controller steers to, here a profile cell, on a
    # Fraction harvest from slot 1 on: spare above 0 takes the full slot,
    # spare 0 the harvest alone; both carry 1.6 packets a slot, and the
    # forwarder's level stays put, up to rounding
    params = diamond(e=(F(1, 10), F(1, 10)), g=F(16), c=F(1, 16),
                     h=(F(50), F(50)), cap=F(4))
    e = (F(1, 10), F(1, 10))
    profile = Profile(((e, F(16), 1), (e, 1.6, 39)))
    trace = run(params, profile=profile, initial_batteries=start)
    assert list(trace.packets[1:]) == [1.6] * 39
    assert trace.battery_pre[0][-1] == pytest.approx(level, abs=1e-12)
    assert verify_trace(trace) == []


def test_feedback_rejects_bad_setup():
    params = diamond()
    with pytest.raises(ValueError):
        run_with_feedback(params, horizon=100, estimator_window=0)
    for window in (True, 2.5):
        with pytest.raises(ValueError, match=f"estimator window {window} is "
                                             f"not an int"):
            run_with_feedback(params, horizon=100, estimator_window=window)
    with pytest.raises(ValueError):
        run_with_feedback(params)  # neither horizon nor profile
