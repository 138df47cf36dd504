"""Slot-level dynamics: switching, charging clips, packet accounting."""

import dataclasses
import gc
import tracemalloc
from array import array
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from hdrsim import (
    Hysteresis2,
    Profile,
    ThresholdPolicy,
    detect_cycles,
    energy_ledger,
    read_trace_csv,
    run,
    summarize,
    verify_trace,
    write_trace_csv,
)
from conftest import constant_profile, diamond, three


def exact_diamond(h1, h2, e=(F(3, 5), F(4, 5)), g=F(35, 2)):
    """Rational-arithmetic system so threshold crossings are exact."""
    return diamond(e=e, g=g, c=F(2, 25), h=(h1, h2), cap=F(1000))


def aligned_gaps(params, h2, n_slots=80):
    """Start just as node 2 hands over to node 1 and collect the
    battery-difference sequence at every subsequent handover."""
    trace = run(params, n_slots=n_slots,
                initial_batteries=(F(50) + h2, F(50)), initial_active=1)
    return [(r.slot, r.battery_pre[0] - r.battery_pre[1])
            for r in trace.records if r.switched]


def first_slot(params, levels, active=0, packet_mode="fractional"):
    """Run two slots from ``levels``; return the trace, whose slot 0 is the
    slot under test, and the levels that slot leaves (slot 1's
    ``battery_pre``)."""
    trace = run(params, n_slots=2, initial_batteries=levels,
                initial_active=active, packet_mode=packet_mode)
    return trace, tuple(col[1] for col in trace.battery_pre)


def test_handover_gap_sequence_short_hysteresis():
    # h=(4, 0.8): handovers land at slots 0, 3, 7 with gaps 0.8, -4, 0.8
    gaps = aligned_gaps(exact_diamond(F(4), F(4, 5)), F(4, 5), n_slots=10)
    assert gaps[:3] == [(0, F(4, 5)), (3, F(-4)), (7, F(4, 5))]


def test_handover_gap_sequence_three_cycle_period():
    # h=(5, 5) repeats only after three full rotations
    gaps = aligned_gaps(exact_diamond(F(5), F(5)), F(5), n_slots=60)
    want = [(0, F(5)), (7, F(-31, 5)), (17, F(29, 5)), (24, F(-27, 5)),
            (33, F(27, 5)), (40, F(-29, 5)), (49, F(5))]
    assert gaps[:7] == want


def test_detect_cycles_period_three():
    params = exact_diamond(F(5), F(5))
    trace = run(params, n_slots=60,
                initial_batteries=(F(55), F(50)), initial_active=1)
    cycles = detect_cycles(trace)
    assert [c.length for c in cycles[:3]] == [17, 16, 16]
    assert cycles[0].active_slots == (7, 10)
    assert cycles[0].start_slot == 0


def test_fractional_duty_midpoint():
    # level exactly halfway between the floor and a full slot of draining:
    # half the slot at full rate, half at the recharge rate
    params = diamond(e=(0.8, 0.6), g=17.5, h=(60, 60))
    trace, nxt = first_slot(params, (0.3, 50.0))
    assert trace.packets[0] == pytest.approx(0.5 * 17.5 + 0.5 * 0.8 / 0.08)
    assert nxt[0] == pytest.approx(0.0)


def test_active_below_floor_idles_and_charges():
    params = diamond(e=(0.8, 0.6), g=17.5, h=(60, 60), ct=0.01, cr=0.05)
    trace, nxt = first_slot(params, (0.05, 50.0))
    assert trace.packets[0] == 0
    assert trace.suppressed[0] == 0b01     # node 1 withheld its status
    assert nxt[0] == pytest.approx(0.05 + 0.8)
    # the idle node pays nothing, the other still reports status
    assert nxt[1] == pytest.approx(50.0 - 0.01 + 0.6)


def test_handover_costs_and_full_slot():
    params = diamond(e=(0.8, 0.6), g=17.5, h=(5, 5), ct=0.01, cr=0.05)
    trace, nxt = first_slot(params, (40.0, 50.0))
    assert trace.switched[0] and trace.active[0] == 1
    assert trace.packets[0] == pytest.approx(17.5)
    # outgoing node: status + switch, then charges
    assert nxt[0] == pytest.approx(40.0 - 0.01 - 0.05 + 0.8)
    # incoming node: status + switch + a full slot of data
    assert nxt[1] == pytest.approx(50.0 - 0.01 - 0.05 + 0.6 - 1.4)


def test_charging_clips_at_capacity():
    params = diamond(e=(0.8, 0.6), g=17.5, h=(60, 60), cap=50.0)
    _, nxt = first_slot(params, (30.0, 49.9))
    assert nxt[1] == 50.0


def test_whole_packets_floor_without_carry():
    # entitlement 12.7 -> 12 packets, energy for exactly 12
    params = diamond(e=(0.8, 0.6), g=17.5, h=(60, 60))
    trace, nxt = first_slot(params, (0.216, 50.0), packet_mode="whole")
    assert trace.packets[0] == 12
    assert nxt[0] == pytest.approx(0.216 + 0.8 - 12 * 0.08)
    # and the shortfall is forgotten: fractional mode sends the full 12.7
    frac, _ = first_slot(params, (0.216, 50.0))
    assert frac.packets[0] == pytest.approx(12.7)


def test_whole_equals_fractional_when_integral():
    params = diamond(e=(0.8, 0.6), g=20.0, h=(5, 5))
    a = run(params, n_slots=200, packet_mode="whole")
    b = run(params, n_slots=200)
    assert [r.packets for r in a.records] == [r.packets for r in b.records]


def test_whole_vs_fractional_throughput_gap_small():
    params = diamond(e=(0.8, 0.6), g=17.5, h=(4.8, 4.8))
    whole = summarize(run(params, n_slots=1500, packet_mode="whole"))
    frac = summarize(run(params, n_slots=1500))
    assert abs(whole.throughput - frac.throughput) < 1.0


def test_constant_profile_is_bit_identical():
    params = three(g=20.0)
    plain = run(params, n_slots=400)
    via_profile = run(params, profile=constant_profile(params, 400))
    assert plain.records == via_profile.records


def test_run_rejects_empty_horizon():
    with pytest.raises(ValueError):
        run(diamond(), n_slots=0)
    with pytest.raises(ValueError):
        run(diamond())  # neither horizon nor profile


def test_run_rejects_short_profile():
    params = diamond()
    with pytest.raises(ValueError):
        run(params, n_slots=100, profile=constant_profile(params, 50))


def test_detect_cycles_without_switches():
    # thresholds beyond the battery capacity: one node forwards forever
    params = diamond(e=(0.8, 0.6), g=17.5, h=(150, 150))
    trace = run(params, n_slots=300)
    assert trace.switch_slots() == []
    assert detect_cycles(trace) == []


def test_earliest_switch_prefers_larger_excess():
    params = three(h=(2.0, 2.0, 2.0), es=True)
    trace, _ = first_slot(params, (10.0, 13.0, 14.0))
    assert trace.switched[0] and trace.active[0] == 2


def test_earliest_switch_tie_takes_lower_index():
    params = three(h=(2.0, 2.0, 2.0), es=True)
    trace, _ = first_slot(params, (10.0, 14.0, 14.0))
    assert trace.switched[0] and trace.active[0] == 1


def test_summarize_matches_manual_accounting():
    params = diamond(e=(0.8, 0.6), g=17.5, h=(4.8, 4.8))
    trace = run(params, n_slots=500)
    s = summarize(trace, warmup=100)
    tail = [r for r in trace.records if r.slot >= 100]
    assert s.slots == 400
    assert s.packets_total == pytest.approx(sum(r.packets for r in tail))
    assert s.switch_count == sum(1 for r in tail if r.switched)
    assert s.throughput == pytest.approx(s.packets_total / 400)
    per_node = [0.0, 0.0]
    for r in tail:
        per_node[r.active] += r.packets
    assert s.per_node_packets == (pytest.approx(per_node[0]),
                                  pytest.approx(per_node[1]))
    assert sum(s.node_share) == pytest.approx(1.0)


def test_energy_ledger_closes():
    params = diamond(e=(0.8, 0.6), g=17.5, h=(5, 5), ct=0.01, cr=0.05)
    trace = run(params, n_slots=400)
    for slot, node, residual, clipped in energy_ledger(trace, params):
        if clipped:
            assert residual <= 1e-9  # clipping can only discard energy
        else:
            assert abs(residual) < 1e-9


def test_verify_trace_accepts_honest_run():
    params = three(g=20.0, cap=100.0)
    assert verify_trace(run(params, n_slots=600), params) == []
    whole = run(params, n_slots=600, packet_mode="whole")
    assert verify_trace(whole, params) == []


def test_verify_trace_catches_tampering():
    params = diamond(e=(0.8, 0.6), g=17.5, h=(5, 5))
    trace = run(params, n_slots=50)
    packets = trace.packets[:]
    packets[25] += 1.0
    bad = dataclasses.replace(trace, packets=packets)
    assert verify_trace(bad, params)


def test_trace_csv_round_trip(tmp_path):
    params = three(g=20.0, ct=0.01, cr=0.05)
    trace = run(params, n_slots=120, packet_mode="whole")
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    back = read_trace_csv(path)
    assert back.n_nodes == 3
    assert len(back.records) == len(trace.records)
    for a, b in zip(trace.records, back.records):
        assert a.slot == b.slot and a.active == b.active
        assert a.switched == b.switched and a.suppressed == b.suppressed
        assert a.battery_pre == b.battery_pre  # .17g survives the trip
        assert a.battery_post == b.battery_post
        assert a.packets == b.packets


@pytest.mark.parametrize("value", ["0", "3", "300"])
def test_read_trace_csv_rejects_unknown_nodes(tmp_path, value):
    path = tmp_path / "trace.csv"
    write_trace_csv(run(diamond(), n_slots=5), path)
    header, first, *rest = path.read_text().splitlines()
    cells = dict(zip(header.split(","), first.split(",")))
    cells["active"] = value
    path.write_text("\n".join([header, ",".join(cells.values()), *rest]))
    with pytest.raises(ValueError, match="out of range"):
        read_trace_csv(path)


@pytest.mark.parametrize("column, value, problem", [
    ("battery_pre1", "nan", "that is not finite"),
    ("battery_post2", "inf", "that is not finite"),
    ("packets", "-inf", "that is not finite"),
    ("suppressed1", "7", "other than 0 or 1"),
    ("switched", "2", "other than 0 or 1")])
def test_read_trace_csv_rejects_bad_cells(tmp_path, column, value, problem):
    # the bad cell sits in the last row, past the first chunk of rows
    path = tmp_path / "trace.csv"
    write_trace_csv(run(diamond(), n_slots=1100), path)
    header, *rows = path.read_text().splitlines()
    cells = dict(zip(header.split(","), rows[-1].split(",")))
    cells[column] = value
    rows[-1] = ",".join(cells.values())
    path.write_text("\n".join([header, *rows]))
    with pytest.raises(ValueError, match=f"trace.csv: column '{column}' "
                                         f"holds a value {problem}"):
        read_trace_csv(path)


@pytest.mark.parametrize("n_slots, row", [(5, 2), (1100, 1099)])
@pytest.mark.parametrize("change", [lambda cells: cells[:-1],
                                    lambda cells: cells + ["0", "0"]],
                         ids=["short", "long"])
def test_read_trace_csv_rejects_rows_of_another_width(tmp_path, n_slots, row,
                                                      change):
    path = tmp_path / "trace.csv"
    write_trace_csv(run(diamond(), n_slots=n_slots), path)
    header, *rows = path.read_text().splitlines()
    cells = change(rows[row].split(","))
    rows[row] = ",".join(cells)
    path.write_text("\n".join([header, *rows]))
    with pytest.raises(ValueError, match=f"trace.csv: line {row + 2} has "
                                         f"{len(cells)} cells where the "
                                         f"header has 10"):
        read_trace_csv(path)


def rewrite_slots(path, slots):
    header, *rows = path.read_text().splitlines()
    rows = [",".join([str(k), row.split(",", 1)[1]])
            for k, row in zip(slots, rows)]
    path.write_text("\n".join([header, *rows]))


@pytest.mark.parametrize("slots, message", [
    (range(1099, -1, -1), "slot 1098 where slot 1100 is due"),
    ([5] * 1100, "slot 5 where slot 6 is due"),
    ([*range(1099), 1100], "slot 1100 where slot 1099 is due")],
    ids=["descending", "repeated", "gapped"])
def test_read_trace_csv_rejects_slots_that_do_not_count_up(tmp_path, slots,
                                                           message):
    # the gap sits in the last row, past the first chunk of rows
    path = tmp_path / "trace.csv"
    write_trace_csv(run(diamond(), n_slots=1100), path)
    rewrite_slots(path, slots)
    with pytest.raises(ValueError, match=f"trace.csv: {message}"):
        read_trace_csv(path)


def test_read_trace_csv_keeps_the_first_slot(tmp_path):
    path = tmp_path / "trace.csv"
    trace = run(diamond(), n_slots=1100)
    write_trace_csv(trace, path)
    rewrite_slots(path, range(7, 1107))
    back = read_trace_csv(path)
    assert back.slots == range(7, 1107)
    assert back.switch_slots() == [k + 7 for k in trace.switch_slots()]


@given(
    e1=st.floats(0.1, 1.0), e2=st.floats(0.1, 1.0),
    g=st.floats(2.0, 30.0), h1=st.floats(0.5, 20.0), h2=st.floats(0.5, 20.0),
)
@settings(max_examples=60, deadline=None)
def test_invariants_hold_without_control_costs(e1, e2, g, h1, h2):
    # a freshly promoted relay forwards a full slot immediately, so bounds
    # are only guaranteed when its lead covers the slot energy
    assume(min(h1, h2) + min(e1, e2) >= 0.08 * g + 1e-6)
    params = diamond(e=(e1, e2), g=g, h=(h1, h2))
    assert verify_trace(run(params, n_slots=250), params) == []


@given(
    e1=st.floats(0.2, 1.0), e2=st.floats(0.2, 1.0), e3=st.floats(0.2, 1.0),
    g=st.floats(2.0, 30.0), h=st.floats(0.5, 15.0),
    es=st.booleans(), whole=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_invariants_hold_with_control_costs(e1, e2, e3, g, h, es, whole):
    # harvest above the control floor keeps every battery solvent, provided
    # the handover lead also covers one full slot of forwarding
    assume(h + min(e1, e2, e3) >= 0.08 * g + 0.06 + 1e-6)
    params = three(e=(e1, e2, e3), g=g, h=(h, h, h), ct=0.01, cr=0.05, es=es)
    trace = run(params, n_slots=250,
                packet_mode="whole" if whole else "fractional")
    assert verify_trace(trace, params) == []


# ---------------------------------------------------------------------------
# columnar trace
# ---------------------------------------------------------------------------

# write_trace_csv output, byte for byte, for a 14-slot es3 run in whole
# packets with control costs: a broke relay in slot 0, a partial slot in
# slot 1, handovers and ceiling clips afterwards.
GOLDEN_TRACE_CSV = (
    'slot,active,switched,packets,battery_pre1,battery_pre2,battery_pre3,'
    'battery_post1,battery_post2,battery_post3,suppressed1,suppressed2,'
    'suppressed3\r\n'
    '0,1,0,0,0.050000000000000003,1.25,1.5,0.050000000000000003,1.24,1.49,1,0,'
    '0\r\n'
    '1,1,0,2,0.15000000000000002,1.9399999999999999,2.29,0.14000000000000001,'
    '1.9299999999999999,2.2800000000000002,0,0,0\r\n'
    '2,3,1,17,0.080000000000000016,2.6299999999999999,3.0800000000000001,'
    '0.020000000000000018,2.5700000000000003,3.0200000000000005,0,0,0\r\n'
    '3,3,0,17,0.12000000000000002,3.2700000000000005,2.46,0.11000000000000003,'
    '3.2600000000000007,2.4500000000000002,0,0,0\r\n'
    '4,3,0,17,0.21000000000000002,3.9600000000000009,1.8899999999999999,'
    '0.20000000000000001,3.9500000000000011,1.8799999999999999,0,0,0\r\n'
    '5,3,0,17,0.30000000000000004,4,1.3199999999999996,0.29000000000000004,'
    '3.9900000000000002,1.3099999999999996,0,0,0\r\n'
    '6,2,1,17,0.39000000000000001,4,0.74999999999999933,0.33000000000000002,'
    '3.9400000000000004,0.68999999999999928,0,0,0\r\n'
    '7,2,0,17,0.43000000000000005,3.2800000000000002,1.4899999999999993,'
    '0.42000000000000004,3.2700000000000005,1.4799999999999993,0,0,0\r\n'
    '8,2,0,17,0.52000000000000002,2.6100000000000003,2.2799999999999994,'
    '0.51000000000000001,2.6000000000000005,2.2699999999999996,0,0,0\r\n'
    '9,2,0,17,0.60999999999999999,1.9400000000000006,3.0699999999999994,'
    '0.59999999999999998,1.9300000000000006,3.0599999999999996,0,0,0\r\n'
    '10,2,0,17,0.69999999999999996,1.2700000000000007,3.8599999999999994,'
    '0.68999999999999995,1.2600000000000007,3.8499999999999996,0,0,0\r\n'
    '11,3,1,17,0.78999999999999992,0.60000000000000053,4,0.72999999999999987,'
    '0.54000000000000048,3.9400000000000004,0,0,0\r\n'
    '12,3,0,17,0.82999999999999985,1.2400000000000004,3.3799999999999999,'
    '0.81999999999999984,1.2300000000000004,3.3700000000000001,0,0,0\r\n'
    '13,3,0,17,0.91999999999999982,1.9300000000000004,2.8099999999999996,'
    '0.90999999999999981,1.9200000000000004,2.7999999999999998,0,0,0\r\n'
)


def test_trace_csv_golden_bytes(tmp_path):
    params = three(g=17.5, ct=0.01, cr=0.05, cap=4.0, h=(3.0, 3.0, 3.0),
                   es=True)
    trace = run(params, n_slots=14, packet_mode="whole",
                initial_batteries=(0.05, 1.25, 1.5))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    assert path.read_bytes() == "".join(GOLDEN_TRACE_CSV).encode()
    back = read_trace_csv(path)
    assert back.records == [r._replace(packets=float(r.packets))
                            for r in trace.records]


def dyadic_diamond(v):
    """Parameters whose trajectory stays on a grid of 1/64 mJ, so float
    arithmetic is exact and must match Fraction arithmetic bit for bit."""
    return diamond(e=(v("0.25"), v("0.75")), g=v("20"), c=v("0.0625"),
                   h=(v("56"), v("40")), ct=v("0.015625"), cr=v("0.03125"),
                   cap=v("64"))


def slot_kind(r):
    if r.switched:
        return "handover"
    if r.packets == 0:
        return "broke"
    return "full" if r.packets == 20 else "partial"


@pytest.mark.parametrize("mode", ["fractional", "whole"])
def test_float_and_fraction_runs_agree(mode):
    # the array path (floats) against the list path (Fractions)
    floats, exact = dyadic_diamond(float), dyadic_diamond(F)
    seen = set()
    for start in ((F(12), F(63)), (F(1, 64), F(50))):
        a = run(floats, n_slots=3000, packet_mode=mode,
                initial_batteries=tuple(map(float, start)))
        b = run(exact, n_slots=3000, packet_mode=mode,
                initial_batteries=start)
        assert isinstance(a.battery_pre[0], array)
        assert isinstance(b.battery_pre[0], list)
        assert a.records == b.records
        assert detect_cycles(a) == detect_cycles(b)
        assert summarize(a).per_node_packets == summarize(b).per_node_packets
        assert verify_trace(a, tol=0) == []
        assert verify_trace(b, tol=0) == []
        seen |= {slot_kind(r) for r in b.records}
        seen |= {"status withheld" for r in b.records if any(r.suppressed)}
        seen |= {"clipped" for r in b.records if 64 in r.battery_pre}
    assert seen == {"handover", "broke", "full", "partial",
                    "status withheld", "clipped"}


def test_float_trace_memory_is_bounded():
    params = diamond(ct=0.01, cr=0.05)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run(params, n_slots=10_000)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == 10_000
    assert held / 10_000 <= 64


def test_verify_trace_memory_is_bounded():
    # the audit streams its energy-ledger rows instead of listing them, and
    # repeats the constant inputs of a run without a profile
    trace = run(diamond(ct=0.01, cr=0.05), n_slots=10_000)
    gc.collect()
    tracemalloc.start()
    try:
        assert verify_trace(trace) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 10_000 <= 4


def test_read_trace_csv_memory_is_bounded(tmp_path):
    # rows are converted a chunk at a time: the peak is the finished
    # columns plus one chunk of text, not the whole file as text
    n_slots = 30_000
    path = tmp_path / "trace.csv"
    write_trace_csv(run(diamond(ct=0.01, cr=0.05), n_slots=n_slots), path)
    gc.collect()
    tracemalloc.start()
    try:
        back = read_trace_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(back) == n_slots
    assert peak / n_slots <= 200


def test_two_node_rules_give_the_same_trace():
    # hyst2 is round robin with n = 2, and earliest switch names the same
    # single candidate
    params = diamond(h=(6.2, 5.0), ct=0.01, cr=0.05)
    traces = [run(dataclasses.replace(params, thresholds=policy),
                  n_slots=3000, packet_mode="whole",
                  initial_batteries=(0.05, 60.0))
              for policy in (Hysteresis2(6.2, 5.0),
                             ThresholdPolicy((6.2, 5.0), "rr"),
                             ThresholdPolicy((6.2, 5.0), "es"))]
    assert sum(traces[0].switched) > 100

    def columns(t):
        return (t.slots, t.battery_pre, t.battery_post, t.active, t.switched,
                t.packets, t.suppressed)

    assert columns(traces[0]) == columns(traces[1]) == columns(traces[2])


def test_records_view_round_trip():
    params = three(g=20.0, ct=0.01, cr=0.05)
    trace = run(params, n_slots=300, packet_mode="whole")
    assert trace.records is trace.records          # built once
    assert isinstance(trace.records[0].switched, bool)
    assert isinstance(trace.records[0].packets, int)
    copy = dataclasses.replace(trace, feedback_log=[])
    assert copy.records == trace.records
    assert trace.switch_slots() == [r.slot for r in trace.records
                                    if r.switched]


def test_run_starts_from_a_given_state():
    params = diamond(ct=0.01, cr=0.05)
    full = run(params, n_slots=60)
    tail = run(params, n_slots=40,
               initial_batteries=tuple(col[20] for col in full.battery_pre),
               initial_active=full.active[19])
    assert tail.slots == range(40)
    assert tail.battery_pre == tuple(col[20:] for col in full.battery_pre)
    assert tail.battery_post == tuple(col[20:] for col in full.battery_post)
    for name in ("active", "switched", "packets", "suppressed"):
        assert getattr(tail, name) == getattr(full, name)[20:]


def test_replace_starts_with_an_empty_records_view():
    trace = run(diamond(), n_slots=30)
    assert trace.records[5].packets == trace.packets[5]
    packets = trace.packets[:]
    packets[5] += 1.0
    copy = dataclasses.replace(trace, packets=packets)
    assert copy.records[5].packets == packets[5] != trace.records[5].packets
    assert copy.records[6] == trace.records[6]


@pytest.mark.parametrize("levels", [
    (float("nan"), 50.0), (50.0, float("inf")), (500.0, -30.0),
    (100.5, 50.0), (50.0, -1e-9),
])
def test_run_rejects_bad_initial_levels(levels):
    with pytest.raises(ValueError, match="initial battery level"):
        run(diamond(), n_slots=10, initial_batteries=levels)


@pytest.mark.parametrize("bad", [Decimal("1.5"), True, "1.5"])
def test_run_rejects_profile_cells_and_steered_loads_of_other_types(bad):
    ints = diamond(e=(1, 2), g=3, c=1, h=(2, 3), cap=40)
    # Profile itself turns away a str cell
    with pytest.raises((TypeError, ValueError),
                       match="Fractions|real number"):
        run(ints, profile=Profile((((1, 2), 3, 1), ((1, 2), bad, 1),
                                   ((1, 2), 3, 1))))
    exact = exact_diamond(F(4), F(4, 5))
    with pytest.raises(TypeError):
        run(exact, n_slots=10, steer=lambda k, active, switched, e: bad)


def test_steered_run_keeps_its_loads_as_segments():
    params = diamond()
    trace = run(params, n_slots=500, steer=lambda *a: params.input_rate)
    assert trace.profile.segments == (
        (params.harvest_rates, params.input_rate, 500),)
    # a new load object starts a segment, and so does a new harvest row;
    # slot k + 1 takes the load returned after slot k
    prof = Profile((((0.8, 0.6), 17.5, 300), ((0.5, 0.4), 17.5, 300)))
    # an equal load of another object at slot 150
    loads = {99: 12.0, 149: float("12"), 399: 9.5}
    g = [params.input_rate]

    def steer(k, active, switched, e):
        g[0] = loads.get(k, g[0])
        return g[0]
    trace = run(params, profile=prof, steer=steer)
    assert trace.profile.segments == (
        ((0.8, 0.6), 17.5, 100), ((0.8, 0.6), 12.0, 50),
        ((0.8, 0.6), 12.0, 150), ((0.5, 0.4), 12.0, 100),
        ((0.5, 0.4), 9.5, 200))
    harvest, rates = trace.inputs()
    assert list(rates) == [17.5] * 100 + [12.0] * 300 + [9.5] * 200
    assert verify_trace(trace) == []


def test_run_on_the_head_of_a_profile():
    prof = Profile((((0.8, 0.6), 17.5, 30), ((0.5, 0.4), 12.0, 30)))
    trace = run(diamond(), n_slots=40, profile=prof)
    assert trace.profile is prof
    assert trace.input_segments() == (((0.8, 0.6), 17.5, 30),
                                      ((0.5, 0.4), 12.0, 10))
    assert verify_trace(trace) == []
