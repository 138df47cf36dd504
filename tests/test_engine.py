"""Slot-level dynamics: switching, charging clips, packet accounting."""

import dataclasses
import gc
import importlib.resources
import operator
import re
import tracemalloc
from array import array
from decimal import Decimal
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import assume, given, settings, strategies as st

from hdrsim import (
    Hysteresis2,
    Profile,
    ThresholdPolicy,
    Trace,
    detect_cycles,
    energy_ledger,
    load_profile,
    read_trace_csv,
    run,
    run_with_feedback,
    summarize,
    verify_trace,
    windowed_stats,
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


@pytest.mark.parametrize("n_slots", [True, False, 2.5, 3.0, "3",
                                     F(3)])
def test_run_refuses_a_horizon_that_is_not_an_int(n_slots):
    params = diamond()
    with pytest.raises(ValueError, match="n_slots must be an int"):
        run(params, n_slots=n_slots)
    with pytest.raises(ValueError, match="n_slots must be an int"):
        run(params, n_slots=n_slots, profile=constant_profile(params, 50))


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


def test_a_run_without_packets_has_no_node_share():
    s = summarize(run(diamond(g=0.0), n_slots=50))
    assert s.packets_total == 0
    assert s.node_share == (0.0, 0.0)


@pytest.mark.parametrize("warmup, message", [
    (-5, "warmup must be an int >= 0, got -5"),
    (2.5, "warmup must be an int >= 0, got 2.5"),
    (True, "warmup must be an int >= 0, got True"),
], ids=["negative", "float", "bool"])
def test_warmup_is_a_slot_count(warmup, message):
    trace = run(diamond(), n_slots=200)
    with pytest.raises(ValueError, match=re.escape(message)):
        summarize(trace, warmup=warmup)
    with pytest.raises(ValueError, match=re.escape(message)):
        detect_cycles(trace, warmup=warmup)


def test_a_warmup_past_the_end_leaves_no_slot():
    trace = run(diamond(), n_slots=200)
    assert summarize(trace, warmup=250).slots == 0
    assert detect_cycles(trace, warmup=250) == []


def test_energy_ledger_closes():
    params = diamond(e=(0.8, 0.6), g=17.5, h=(5, 5), ct=0.01, cr=0.05)
    trace = run(params, n_slots=400)
    for slot, node, residual, clipped in energy_ledger(trace):
        if clipped:
            assert residual <= 1e-9  # clipping can only discard energy
        else:
            assert abs(residual) < 1e-9


def test_verify_trace_accepts_honest_run():
    params = three(g=20.0, cap=100.0)
    assert verify_trace(run(params, n_slots=600)) == []
    whole = run(params, n_slots=600, packet_mode="whole")
    assert verify_trace(whole) == []


def test_verify_trace_catches_tampering():
    params = diamond(e=(0.8, 0.6), g=17.5, h=(5, 5))
    trace = run(params, n_slots=50)
    packets = trace.packets[:]
    packets[25] += 1.0
    bad = dataclasses.replace(trace, packets=packets)
    assert verify_trace(bad)


def in_run_context(back, trace):
    """The re-read ``back`` with the context of the run that made
    ``trace`` put back."""
    return dataclasses.replace(
        back, params=trace.params, packet_mode=trace.packet_mode,
        profile=trace.profile, initial_active=trace.initial_active)


def test_trace_csv_round_trip(tmp_path):
    params = three(g=20.0, ct=0.01, cr=0.05)
    trace = run(params, n_slots=120, packet_mode="whole")
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    back = read_trace_csv(path)
    assert verify_trace(in_run_context(back, trace)) == []
    assert back.n_nodes == 3
    assert len(back.records) == len(trace.records)
    for a, b in zip(trace.records, back.records):
        assert a.slot == b.slot and a.active == b.active
        assert a.switched == b.switched and a.suppressed == b.suppressed
        assert a.battery_pre == b.battery_pre  # .17g survives the trip
        assert a.battery_post == b.battery_post
        assert a.packets == b.packets


FLAT = str(importlib.resources.files("hdrsim") / "data"
           / "harvest_flat_input.csv")


@pytest.mark.parametrize("make", [
    # node 2 leads by 80 at slot 0, so the run hands over at once
    lambda: run(diamond(), n_slots=500, initial_batteries=(10.0, 90.0)),
    lambda: run(diamond(), n_slots=500, packet_mode="whole"),
    lambda: run(diamond(e=(0.3, 0.2), g=6.0, h=(10.0, 10.0)),
                profile=load_profile(FLAT),
                initial_batteries=(5.0, 5.0)),
], ids=["handover-at-slot-0", "whole-packets", "flat-profile"])
def test_a_re_read_trace_audits_clean_in_its_run_context(tmp_path, make):
    trace = make()
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    back = read_trace_csv(path)
    assert (back.params, back.packet_mode, back.profile,
            back.initial_active) == (None, None, None, None)
    restored = in_run_context(back, trace)
    assert verify_trace(restored) == []
    if trace.packet_mode == "fractional":
        # whole packet counts come back as floats, so only here
        assert restored == trace
    # the audit guesses no part of the context
    with pytest.raises(ValueError, match="lacks its run's params, "
                                         "packet_mode, initial_active; "
                                         ".* dataclasses.replace"):
        verify_trace(back)
    with pytest.raises(ValueError,
                       match="lacks its run's packet_mode, initial_active;"):
        verify_trace(dataclasses.replace(back, params=trace.params))
    with pytest.raises(ValueError, match="parameters required"):
        energy_ledger(back)
    with pytest.raises(ValueError, match="carries no harvest or offered-load"):
        back.input_segments()


def test_read_trace_csv_refuses_a_header_only_file(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(run(diamond(), n_slots=5), path)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    path.write_text(header + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="trace.csv: empty trace"):
        read_trace_csv(path)


@pytest.mark.parametrize("value", ["0", "3", "300"])
def test_read_trace_csv_rejects_unknown_nodes(tmp_path, value):
    path = tmp_path / "trace.csv"
    write_trace_csv(run(diamond(), n_slots=5), path)
    header, first, *rest = path.read_text(encoding="utf-8").splitlines()
    cells = dict(zip(header.split(","), first.split(",")))
    cells["active"] = value
    path.write_text("\n".join([header, ",".join(cells.values()), *rest]),
                    encoding="utf-8")
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
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    cells = dict(zip(header.split(","), rows[-1].split(",")))
    cells[column] = value
    rows[-1] = ",".join(cells.values())
    path.write_text("\n".join([header, *rows]), encoding="utf-8")
    with pytest.raises(ValueError, match=f"trace.csv: column '{column}' "
                                         f"holds a value {problem}"):
        read_trace_csv(path)


def rewrite_cell(path, row, column, value):
    """Set ``column`` of data row ``row`` of the trace file ``path`` to the
    text ``value``."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    cells = dict(zip(header.split(","), rows[row].split(",")))
    cells[column] = value
    rows[row] = ",".join(cells.values())
    path.write_text("\n".join([header, *rows]), encoding="utf-8")


@pytest.mark.parametrize("column, value, kind", [
    ("battery_pre1", "abc", "a number"),
    ("battery_post2", "", "a number"),
    ("packets", '"1.5"', "a number"),
    ("battery_pre2", " 1.5", "a number"),
    ("battery_post1", "1.5\t", "a number"),
    ("packets", "1_7", "a number"),
    ("battery_pre1", "\u0661", "a number"),       # an Arabic-Indic 1
    ("active", "x", "a node number"),
    ("active", "", "a node number"),
    ("active", " 1", "a node number"),
    ("active", "01", "a node number"),
    ("active", "1.0", "a node number"),
    ("slot", " 1099", "a slot number"),
    ("slot", "+1099", "a slot number"),
    ("slot", "01099", "a slot number"),
    ("slot", "x", "a slot number"),
])
def test_read_trace_csv_names_the_file_and_column_of_an_unreadable_cell(
        tmp_path, column, value, kind):
    # the bad cell sits in the last row, past the first chunk of rows; the
    # writer never writes any of these cells
    path = tmp_path / "trace.csv"
    write_trace_csv(run(diamond(), n_slots=1100), path)
    rewrite_cell(path, 1099, column, value)
    with pytest.raises(ValueError, match=re.escape(
            f"trace.csv: column '{column}' holds a value that is not {kind}: "
            f"{value!r}")):
        read_trace_csv(path)


@pytest.mark.parametrize("column", ["switched", "suppressed2"])
@pytest.mark.parametrize("value", [" 1", "1 ", '"1"', "1.0", "01", ""])
def test_read_trace_csv_reads_flags_from_0_and_1_only(tmp_path, column,
                                                      value):
    path = tmp_path / "trace.csv"
    write_trace_csv(run(diamond(), n_slots=1100), path)
    rewrite_cell(path, 1099, column, value)
    with pytest.raises(ValueError, match=f"trace.csv: column '{column}' "
                                         f"holds a value other than 0 or 1"):
        read_trace_csv(path)


def test_read_trace_csv_refuses_a_quoted_header(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(run(diamond(), n_slots=5), path)
    first, *rows = path.read_text(encoding="utf-8").splitlines()
    quoted = ",".join(f'"{name}"' for name in first.split(","))
    path.write_text("\n".join([quoted, *rows]), encoding="utf-8")
    with pytest.raises(ValueError, match="trace.csv: header '\"slot\",.*' "
                                         "is not a trace header"):
        read_trace_csv(path)


@pytest.mark.parametrize("ending", ["\r\n", "\n"])
@pytest.mark.parametrize("last", ["", "newline"])
def test_read_trace_csv_reads_either_line_ending(tmp_path, ending, last):
    # the README point, tiled from slot 3068 with period 19
    trace = run(diamond(e=(0.8, 0.6), g=17.5, c=0.08, h=(6.2, 5.0), ct=0.01,
                        cr=0.05), n_slots=5000)
    assert trace.cycles
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    text = ending.join(lines) + (ending if last else "")
    path.write_bytes(text.encode())
    assert in_run_context(read_trace_csv(path), trace) == trace


@pytest.mark.parametrize("n_slots, row", [(5, 2), (1100, 1099)])
@pytest.mark.parametrize("change", [lambda cells: cells[:-1],
                                    lambda cells: cells + ["0", "0"]],
                         ids=["short", "long"])
def test_read_trace_csv_rejects_rows_of_another_width(tmp_path, n_slots, row,
                                                      change):
    path = tmp_path / "trace.csv"
    write_trace_csv(run(diamond(), n_slots=n_slots), path)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    cells = change(rows[row].split(","))
    rows[row] = ",".join(cells)
    path.write_text("\n".join([header, *rows]), encoding="utf-8")
    with pytest.raises(ValueError, match=f"trace.csv: line {row + 2} has "
                                         f"{len(cells)} cells where the "
                                         f"header has 10"):
        read_trace_csv(path)


def test_read_trace_csv_names_a_missing_level_column(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(run(diamond(), n_slots=5), path)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    keep = [i for i, name in enumerate(header.split(","))
            if not name.startswith("battery_pre")]
    path.write_text("\n".join(",".join(line.split(",")[i] for i in keep)
                              for line in [header, *rows]), encoding="utf-8")
    with pytest.raises(ValueError,
                       match="trace.csv: header 'slot,active,switched,"
                             "packets,battery_post1,.*' is not a trace "
                             "header"):
        read_trace_csv(path)


HEADER = ("slot,active,switched,packets,battery_pre1,battery_pre2,"
          "battery_post1,battery_post2,suppressed1,suppressed2").split(",")


@pytest.mark.parametrize("header", [
    HEADER[1::-1] + HEADER[2:],
    HEADER[:4] + HEADER[6:8] + HEADER[4:6] + HEADER[8:],
    HEADER + ["note"],
    [name for name in HEADER if name != "battery_pre1"],
], ids=["shuffled", "post-before-pre", "extra-column", "no-battery_pre1"])
def test_read_trace_csv_refuses_a_header_it_does_not_write(tmp_path, header):
    # the header is refused before any row is read
    path = tmp_path / "trace.csv"
    write_trace_csv(run(diamond(), n_slots=5), path)
    first, *rows = path.read_text(encoding="utf-8").splitlines()
    assert first.split(",") == HEADER
    path.write_text("\n".join([",".join(header), *rows]), encoding="utf-8")
    with pytest.raises(ValueError, match="trace.csv: header '.*' is not a "
                                         "trace header for 1 to 8 nodes"):
        read_trace_csv(path)


def test_read_trace_csv_refuses_nine_nodes(tmp_path):
    # the flag columns are array('B'), which cannot hold a ninth node's bit
    header = HEADER[:4] + [f"{name}{u}" for name in ("battery_pre",
                                                     "battery_post",
                                                     "suppressed")
                           for u in range(1, 10)]
    path = tmp_path / "trace.csv"
    path.write_text(",".join(header) + "\n"
                    + ",".join(["0", "9"] + ["0"] * 29) + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match="trace.csv: header 'slot,.*,"
                                         "suppressed9' is not a trace "
                                         "header for 1 to 8 nodes"):
        read_trace_csv(path)


def test_write_trace_csv_refuses_nine_nodes(tmp_path):
    # the constructor allows nine nodes, but the reader would refuse the
    # file, so the writer refuses the trace before it opens the file
    levels = tuple([1.0] for _ in range(9))
    trace = Trace(battery_pre=levels, battery_post=levels, active=[8],
                  switched=[0], packets=[0.0], suppressed=[1 << 8])
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match="trace.csv: a trace file holds 1 "
                                         "to 8 nodes, not 9"):
        write_trace_csv(trace, path)
    assert not path.exists()


def test_write_trace_csv_refuses_a_trace_of_no_slot(tmp_path):
    # the constructor allows empty columns, but the reader refuses a file
    # of a header alone, so the writer refuses the trace before it opens
    # the file
    trace = Trace(battery_pre=(array("d"),), battery_post=(array("d"),),
                  active=array("B"), switched=array("B"),
                  packets=array("d"), suppressed=array("B"))
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match="trace.csv: a trace file holds at "
                                         "least one slot"):
        write_trace_csv(trace, path)
    assert not path.exists()


def rewrite_slots(path, slots):
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    rows = [",".join([str(k), row.split(",", 1)[1]])
            for k, row in zip(slots, rows)]
    path.write_text("\n".join([header, *rows]), encoding="utf-8")


@pytest.mark.parametrize("slots, message", [
    (range(1099, -1, -1), "slot 1099 where slot 0 is due"),
    ([5] * 1100, "slot 5 where slot 0 is due"),
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


def test_read_trace_csv_refuses_a_first_slot_other_than_0(tmp_path):
    # entry k of a trace is slot k, so a file counts from 0
    path = tmp_path / "trace.csv"
    write_trace_csv(run(diamond(), n_slots=1100), path)
    rewrite_slots(path, range(7, 1107))
    with pytest.raises(ValueError,
                       match="trace.csv: slot 7 where slot 0 is due"):
        read_trace_csv(path)


@pytest.mark.parametrize("change, problem", [
    (lambda t: {"packets": t.packets[:10]},
     "column packets holds 10 entries, not 200"),
    (lambda t: {"switched": t.switched[:10]},
     "column switched holds 10 entries, not 200"),
    (lambda t: {"suppressed": t.suppressed[:10]},
     "column suppressed holds 10 entries, not 200"),
    (lambda t: {"battery_post": (t.battery_post[0][:10], t.battery_post[1])},
     "column battery_post[0] holds 10 entries, not 200"),
    (lambda t: {"battery_post": t.battery_post[:1]},
     "battery_post has 1 columns, not 2"),
], ids=["packets", "switched", "suppressed", "battery_post[0]",
        "one-post-column"])
def test_a_ragged_trace_is_refused_by_the_audit_and_the_writer(
        change, problem):
    # the constructor refuses it, so neither the audit nor the writer is
    # ever handed one
    trace = run(diamond(), n_slots=200)
    with pytest.raises(ValueError, match=re.escape(problem)):
        dataclasses.replace(trace, **change(trace))


def bump(column, k, value):
    """A copy of ``column`` with entry ``k`` set to ``value``."""
    column = column[:]
    column[k] = value
    return column


@pytest.mark.parametrize("change, problem", [
    ({"params": three()}, "params for 3 nodes on a trace of 2"),
    ({"profile": Profile((((0.8, 0.6, 0.5), 17.5, 200),))},
     "profile for 3 nodes on a trace of 2"),
    ({"profile": constant_profile(diamond(), 199)},
     "profile shorter than the trace: 199 slots, not 200"),
    ({"packet_mode": "bogus"}, "unknown packet mode 'bogus'"),
    ({"packet_mode": "Whole"}, "unknown packet mode 'Whole'"),
    ({"initial_active": -1}, "initial_active -1 is not an int below 2"),
    ({"initial_active": 5}, "initial_active 5 is not an int below 2"),
    ({"initial_active": True}, "initial_active True is not an int below 2"),
    ({"active": bump(run(diamond(), n_slots=200).active, 10, 5)},
     "active entry 10 is 5, not an int below 2"),
    ({"active": bump(run(diamond(), n_slots=200).active, 199, 2)},
     "active entry 199 is 2, not an int below 2"),
    ({"active": bump(list(run(diamond(), n_slots=200).active), 10, 5)},
     "active entry 10 is 5, not an int below 2"),
    ({"active": bump(list(run(diamond(), n_slots=200).active), 3, -1)},
     "active entry 3 is -1, not an int below 2"),
    ({"active": bump(list(run(diamond(), n_slots=200).active), 3, True)},
     "active entry 3 is True, not an int below 2"),
    ({"active": bump(list(run(diamond(), n_slots=200).active), 3, 1.0)},
     "active entry 3 is 1.0, not an int below 2"),
    # a suppressed mask sets bit u for node u, so two nodes allow 0 to 3
    ({"suppressed": bump(run(diamond(), n_slots=200).suppressed, 10, 4)},
     "suppressed entry 10 is 4, not an int below 4"),
    ({"suppressed": bump(run(diamond(), n_slots=200).suppressed, 199, 255)},
     "suppressed entry 199 is 255, not an int below 4"),
    ({"suppressed": bump(list(run(diamond(), n_slots=200).suppressed), 3,
                         -1)},
     "suppressed entry 3 is -1, not an int below 4"),
], ids=["params-3-nodes", "profile-3-nodes", "short-profile", "bogus-mode",
        "capitalised-mode", "active-negative", "active-5", "active-bool",
        "active-entry-5", "last-active-entry-2", "listed-active-entry-5",
        "listed-active-entry-negative", "listed-active-entry-bool",
        "listed-active-entry-float", "suppressed-entry-4",
        "last-suppressed-entry-255", "listed-suppressed-entry-negative"])
def test_a_context_that_does_not_fit_the_columns_is_refused(change,
                                                            problem):
    trace = run(diamond(), n_slots=200)
    with pytest.raises(ValueError, match=re.escape(problem)):
        dataclasses.replace(trace, **change)


def test_a_trace_whose_active_nodes_fit_is_accepted():
    trace = run(three(), n_slots=300)
    assert set(trace.active) == {0, 1, 2}
    listed = dataclasses.replace(trace, active=list(trace.active))
    assert verify_trace(listed) == []
    # every node's suppressed bit set is a mask of three nodes
    dataclasses.replace(trace, suppressed=bump(trace.suppressed, 0, 7))


def test_a_suppressed_bit_for_no_node_is_refused():
    # the writer and the records look a row's flags up by its mask, so a
    # bit past the last node is refused when the trace is built
    levels = ([1.0], [2.0])
    with pytest.raises(ValueError, match=re.escape(
            "inconsistent trace: suppressed entry 0 is 4, not an int below "
            "4")):
        Trace(battery_pre=levels, battery_post=levels, active=[0],
              switched=[0], packets=[0.0], suppressed=[4])


def test_the_constructor_lists_every_problem_at_once():
    trace = run(diamond(), n_slots=200)
    with pytest.raises(ValueError) as caught:
        dataclasses.replace(trace, packets=trace.packets[:10],
                            params=three(), packet_mode="bogus")
    assert str(caught.value) == (
        "inconsistent trace: column packets holds 10 entries, not 200; "
        "params for 3 nodes on a trace of 2; unknown packet mode 'bogus'")


def test_a_finished_trace_is_frozen():
    trace = run(diamond(), n_slots=200)
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace.packets = trace.packets[:10]
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace.feedback_log = [(0, 1.0, 2.0, False)]
    # the feedback run hands its log to a copy of the steered trace, as a
    # tuple, so the finished log cannot grow either
    steered = run_with_feedback(diamond(ct=0.01, cr=0.05), horizon=3000)
    assert type(steered.feedback_log) is tuple
    assert len(steered.feedback_log) > 0
    assert steered.feedback_log[0][1] > 0
    with pytest.raises(AttributeError):
        steered.feedback_log.append((0, 1.0, 2.0, False))
    # a list handed to replace is stored as a tuple
    log = [(0, 1.0, 2.0, False)]
    copy = dataclasses.replace(trace, feedback_log=log)
    assert copy.feedback_log == tuple(log)
    assert type(copy.feedback_log) is tuple


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
    assert verify_trace(run(params, n_slots=250)) == []


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
    assert verify_trace(trace) == []


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


def test_verify_trace_memory_of_the_column_pass_is_bounded():
    # the es3 run tiles nowhere, so nearly every slot goes through the
    # column pass, which holds a chunk of each column at a time
    trace = run(three(es=True), n_slots=10_000)
    assert trace.cycles == ()
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
    # columns plus one chunk of text, not the whole file as text.  The
    # diamond tiles from slot 2977, so most of its rows repeat; the es3 run
    # tiles nowhere, so every row of a chunk is its own text
    n_slots = 30_000
    path = tmp_path / "trace.csv"
    for params, tiled in ((diamond(ct=0.01, cr=0.05), True),
                          (three(es=True), False)):
        trace = run(params, n_slots=n_slots)
        assert bool(trace.cycles) is tiled
        write_trace_csv(trace, path)
        del trace
        gc.collect()
        tracemalloc.start()
        try:
            back = read_trace_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(back) == n_slots
        assert peak / n_slots <= 200, params


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
    (100.5, 50.0), (50.0, -1e-9), (50.0,), (50.0, 50.0, 50.0),
])
def test_run_rejects_bad_initial_levels(levels):
    with pytest.raises(ValueError, match="initial battery level"):
        run(diamond(), n_slots=10, initial_batteries=levels)


@pytest.mark.parametrize("kwargs, message", [
    ({"initial_active": 2}, "active node index 2 out of range"),
    ({"profile": Profile((((0.1, 0.7, 0.8), 20.0, 10),))},
     "profile node count does not match parameters"),
    ({"initial_active": True}, "active node index True out of range; it "
                               "must be an int"),
    ({"initial_active": 1.0}, "active node index 1.0 out of range"),
    ({"initial_active": -0.0}, "active node index -0.0 out of range"),
])
def test_run_refuses_a_start_or_profile_for_other_nodes(kwargs, message):
    with pytest.raises(ValueError, match=message):
        run(diamond(), n_slots=10, **kwargs)


@pytest.mark.parametrize("bad", [Decimal("1.5"), True, "1.5"])
def test_run_rejects_profile_cells_and_steered_loads_of_other_types(bad):
    ints = diamond(e=(1, 2), g=3, c=1, h=(2, 3), cap=40)
    # Profile itself turns away a str cell
    with pytest.raises((TypeError, ValueError),
                       match="Fractions|real number"):
        run(ints, profile=Profile((((1, 2), 3, 1), ((1, 2), bad, 1),
                                   ((1, 2), 3, 1))))
    # the run hands over after slots 3 and 8, so the bad load is offered
    exact = exact_diamond(F(4), F(4, 5))
    calls = []

    def steer(k, active, e):
        calls.append(k)
        return bad
    with pytest.raises(TypeError):
        run(exact, n_slots=10, steer=steer)
    assert calls == [3]


def test_steered_run_keeps_its_loads_as_segments():
    params = diamond()
    trace = run(params, n_slots=500, steer=lambda *a: params.input_rate)
    assert trace.profile.segments == (
        (params.harvest_rates, params.input_rate, 500),)
    # a new load object starts a segment, and so does a new harvest row;
    # steer is called after each handover slot k, and slot k + 1 takes the
    # load it returns
    prof = Profile((((0.8, 0.6), 17.5, 300), ((0.5, 0.4), 17.5, 300)))
    # handover slots of the steered run; an equal load of another object
    # after slot 151
    loads = {103: 12.0, 151: float("12"), 399: 9.5}
    g = [params.input_rate]
    calls = []

    def steer(k, active, e):
        calls.append(k)
        g[0] = loads.get(k, g[0])
        return g[0]
    trace = run(params, profile=prof, steer=steer)
    assert set(loads) <= set(calls)
    assert calls == [k for k in trace.slots if trace.switched[k]]
    assert trace.profile.segments == (
        ((0.8, 0.6), 17.5, 104), ((0.8, 0.6), 12.0, 48),
        ((0.8, 0.6), 12.0, 148), ((0.5, 0.4), 12.0, 100),
        ((0.5, 0.4), 9.5, 200))
    harvest, rates = trace.inputs()
    assert list(rates) == [17.5] * 104 + [12.0] * 296 + [9.5] * 200
    assert verify_trace(trace) == []


def test_run_on_the_head_of_a_profile():
    prof = Profile((((0.8, 0.6), 17.5, 30), ((0.5, 0.4), 12.0, 30)))
    trace = run(diamond(), n_slots=40, profile=prof)
    assert trace.profile is prof
    assert trace.input_segments() == (((0.8, 0.6), 17.5, 30),
                                      ((0.5, 0.4), 12.0, 10))
    assert verify_trace(trace) == []
    # a cut inside the first segment leaves out the two after it
    prof = Profile((((0.8, 0.6), 17.5, 30), ((0.5, 0.4), 12.0, 30),
                    ((0.2, 0.1), 9.0, 30)))
    trace = run(diamond(), n_slots=20, profile=prof)
    assert trace.input_segments() == (((0.8, 0.6), 17.5, 20),)
    assert verify_trace(trace) == []
    stats = windowed_stats(trace, 8)
    assert [w.length for w in stats] == [8, 8, 4]
    assert [w.offered for w in stats] == [
        reduce(operator.add, [17.5] * k, 0) for k in (8, 8, 4)]
    assert [w.harvested for w in stats] == [
        tuple(reduce(operator.add, [e] * k, 0) for e in (0.8, 0.6))
        for k in (8, 8, 4)]
