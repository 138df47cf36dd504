"""The shortcuts of ``run`` that skip slot-rule calls.  Within each
stretch of constant inputs, a profile segment or a whole run without a
profile, a run stops simulating once a slot leaves every level as it was,
or, without ``steer``, once the state after a handover comes back, and
repeats the slots in between up to the end of the stretch.  A run of
floats and ints also advances each stretch of plain slots as whole
columns, steered runs included.

The reference, ``reference_run``, steps the slot rule one slot at a time
with neither shortcut.  Every column must come out with the same repr, and
float columns with the same bytes, so a level that differs only in type
(``5`` against ``Fraction(5)``) or in the sign of a zero shows; a steered
run must also offer the same loads and call ``steer`` alike.

A tiled run records each tiled stretch on the trace.  The readers of
those claims, ``write_trace_csv`` and ``summarize``, must give what they
give without them, and a claim that does not hold must cost them only
speed; the writer must also match ``reference_csv``, which formats every
cell.  The audit these shortcuts rest on must catch a change to any one
cell, and its column pass must list what the per-slot audit lists,
mutated traces, ``nan`` and infinite cells included.  On a tiled float
trace the audit leaves out the copies of the claims it confirms, and must
list what it lists without the claims.
"""

import dataclasses
import gc
import importlib.resources
import math
import random
import tempfile
import tracemalloc
from array import array
from bisect import bisect_right
from fractions import Fraction as F
from itertools import accumulate, groupby
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from hdrsim import (
    EarliestSwitch3,
    Hysteresis2,
    Profile,
    RoundRobin3,
    SystemParams,
    Trace,
    batch,
    default_state,
    detect_cycles,
    engine,
    read_trace_csv,
    run,
    run_with_feedback,
    scenarios,
    summarize,
    verify_trace,
    write_trace_csv,
)
from hdrsim.model import _run_segments
from conftest import constant_profile, diamond, three

NUMBERS = {"float": float, "fraction": F, "int": int}

# the README and reference design point, hyst2 policy
README_POINT = dict(e=(0.8, 0.6), g=17.5, c=0.08, h=(6.2, 5.0), ct=0.01,
                    cr=0.05)


def columns(trace):
    """The repr of every column, and the bytes of the array columns."""
    cols = (trace.slots, *trace.battery_pre, *trace.battery_post,
            trace.active, trace.switched, trace.packets, trace.suppressed)
    return ([repr(c) for c in cols],
            [c.tobytes() for c in cols if isinstance(c, array)])


def reference_run(params, n_slots=None, profile=None,
                  packet_mode="fractional", initial_batteries=None,
                  initial_active=0, steer=None):
    """``run`` with none of its shortcuts: ``engine._slot_rule`` stepped
    one slot at a time, ``steer`` called after each handover slot, and the
    columns and the offered loads stored as ``run`` stores them."""
    pre, v = default_state(params, packet_mode, initial_batteries,
                           initial_active)
    slot = engine._slot_rule(params, packet_mode == "whole")
    floats = engine._number_types(params, profile, pre) <= {float, int}
    rows, g = [], params.input_rate
    for i, (e, load, m) in enumerate(_run_segments(
            params, profile, profile.length if n_slots is None else n_slots)):
        for _ in range(m):
            g = g if steer else load
            post, nxt, w, sw, pk, quiet = slot(pre, v, e, g)
            rows.append((pre, post, w, sw, pk, quiet << v, (i, e, g)))
            pre, v = nxt, w
            if steer and sw:
                g = steer(len(rows) - 1, v, e)
    pres, posts, active, switched, packets, masks, used = zip(*rows)
    level, n = (lambda xs: array("d", xs)) if floats else list, len(pre)
    if steer:
        same = [list(loads) for _, loads in
                groupby(used, lambda t: (t[0], id(t[2])))]
        profile = Profile([(*loads[0][1:], len(loads)) for loads in same])
    return Trace(
        battery_pre=tuple(level([x[u] for x in pres]) for u in range(n)),
        battery_post=tuple(level([x[u] for x in posts]) for u in range(n)),
        active=array("B", active), switched=array("B", switched),
        packets=level(packets) if packet_mode != "whole" else list(packets),
        suppressed=array("B", masks), packet_mode=packet_mode,
        initial_active=initial_active, params=params, profile=profile)


def assert_tiling_is_exact(params, n_slots, profile=None, rooms=(),
                           **kwargs):
    """Run ``params`` with and without the shortcuts and compare, also with
    room for only as many handover states as each of ``rooms``, so that
    the run drops them over and over; every claim of a tiled run must
    hold.  Returns the run with the default room."""
    want = columns(reference_run(params, n_slots, profile, **kwargs))
    for room in (*rooms, engine._KEPT_STATES):
        with mock.patch.object(engine, "_KEPT_STATES", room):
            tiled = run(params, n_slots, profile=profile, **kwargs)
        assert columns(tiled) == want
        assert all(engine._claim_holds(tiled, c) for c in tiled.cycles)
    return tiled


@pytest.fixture
def slot_calls(monkeypatch):
    """Count the calls of the slot function that ``run`` builds."""
    calls = [0]
    rule = engine._slot_rule

    def counted(params, whole):
        slot = rule(params, whole)

        def counting(*args):
            calls[0] += 1
            return slot(*args)
        return counting

    monkeypatch.setattr(engine, "_slot_rule", counted)
    return calls


@st.composite
def systems(draw, kinds=tuple(sorted(NUMBERS))):
    """A diamond or three-relay system of one number type, one of
    ``kinds``, a start and a packet mode.  Every node harvests more than its control messages cost
    and less than a full slot of forwarding, so the role keeps moving.
    Small capacities, control costs and partial slots give cap, floor and
    partial-duty orbits."""
    kind = draw(st.sampled_from(kinds))
    num = NUMBERS[kind]
    den = 1 if kind == "int" else draw(st.sampled_from((4, 10, 16)))

    def units(lo, hi):
        """``k / den`` for a drawn int ``k`` in [lo, hi], as a ``num``;
        zero comes out as int 0, the default of the control costs."""
        k = draw(st.integers(lo, hi))
        return num(F(k, den)) if k else 0

    n = draw(st.sampled_from((2, 3)))
    cap = draw(st.integers(4, 16))
    e = [draw(st.integers(1, 3 * den)) for _ in range(n)]
    spare = draw(st.integers(0, min(e) - 1))
    status = units(0, spare)
    switch = units(0, spare - int(status * den))
    c = num(draw(st.sampled_from((F(1, 16), F(1, 10), F(2, 25), F(1, 8))))
            if den > 1 else 1)
    # the load, in half packets (whole ones for ints), beats every harvest
    step = 2 if den > 1 else 1
    least = math.floor(F(max(e), den) / F(c) * step) + 1
    g = num(F(draw(st.integers(least, least + 40)), step))
    thresholds = [units(1, cap * den // 2) for _ in range(n)]
    policy = (Hysteresis2(*thresholds) if n == 2 else
              (EarliestSwitch3 if draw(st.booleans()) else RoundRobin3)(
                  *thresholds))
    params = SystemParams(
        harvest_rates=tuple(num(F(k, den)) for k in e), input_rate=g,
        packet_energy=c, status_energy=status, switch_energy=switch,
        battery_capacity=num(cap), thresholds=policy)
    start = tuple(units(0, cap * den) for _ in range(n))
    return params, dict(
        packet_mode=draw(st.sampled_from(("fractional", "whole"))),
        initial_batteries=start,
        initial_active=draw(st.integers(0, n - 1)))


@given(systems())
@settings(max_examples=150, deadline=None)
def test_tiled_runs_match_the_per_slot_path(system):
    params, kwargs = system
    assert_tiling_is_exact(params, 500, rooms=(1, 2), **kwargs)


@st.composite
def profiled_systems(draw):
    """A system from ``systems``, a profile of 1-6 segments in its number
    type, and a run length that cuts the last segment short.  Harvest rates
    reach past a full slot of forwarding, so both nodes can sit at the cap,
    and down to zero, so relays go broke.  The first segment offers the
    system's own load object, as slot 0 of a steered run does."""
    params, kwargs = draw(systems())
    num = type(params.packet_energy)        # int, float or Fraction
    den = 1 if num is int else draw(st.sampled_from((4, 10, 16)))

    def units(hi):
        k = draw(st.integers(0, hi))
        return num(F(k, den)) if k else draw(st.sampled_from((0, num(0))))

    segments = []
    for i in range(draw(st.integers(1, 6))):
        row = tuple(units(8 * den) for _ in range(params.n_nodes))
        load = params.input_rate if i == 0 else units(30 * den)
        segments.append((row, load, draw(st.integers(2, 300))))
    cut = draw(st.integers(1, segments[-1][2] - 1))
    n_slots = sum(k for _, _, k in segments) - cut
    return params, Profile(segments), n_slots, kwargs


@given(profiled_systems())
@settings(max_examples=100, deadline=None)
def test_tiled_profile_runs_match_the_per_slot_path(system):
    params, profile, n_slots, kwargs = system
    trace = assert_tiling_is_exact(params, n_slots, profile, rooms=(1, 2),
                                   **kwargs)
    # each claim tiles one segment to its end, in slot order
    ends = list(accumulate(k for _, _, k in profile.segments))
    ends[-1] = n_slots
    stops = [stop for _, _, stop in trace.cycles]
    assert stops == sorted(set(stops)) and set(stops) <= set(ends)


def recording_steer(load, swaps=()):
    """A steer that records its calls and offers ``load``, and after each
    handover in ``swaps``, counted from 0, a new load object, one more than
    the last."""
    calls = []

    def steer(k, active, harvest):
        nonlocal load
        if len(calls) in swaps:
            load = load + 1
        calls.append((k, active, harvest))
        return load
    return steer, calls


def assert_batching_is_exact(params, n_slots, profile, kwargs, swaps):
    """``run`` against ``reference_run``, unsteered, steered by a steer that
    keeps its load object and by one that swaps it after each handover in
    ``swaps``, and under the feedback controller: the same columns, loads
    offered, ``steer`` calls and feedback log.  The run tiles the same
    stretches as without batches, steered or not."""
    tiled = assert_tiling_is_exact(params, n_slots, profile, **kwargs)
    with mock.patch.object(batch, "_BREAK_EVEN", math.inf):
        assert run(params, n_slots, profile, **kwargs).cycles == tiled.cycles
    for cut in ((), swaps):
        steer, calls = recording_steer(params.input_rate, cut)
        want, want_calls = recording_steer(params.input_rate, cut)
        steered = run(params, n_slots, profile, steer=steer, **kwargs)
        reference = reference_run(params, n_slots, profile, steer=want,
                                  **kwargs)
        assert columns(steered) == columns(reference)
        assert repr(steered.profile) == repr(reference.profile)
        assert repr(calls) == repr(want_calls)
        assert_steered_claims_hold(steered)
        with mock.patch.object(batch, "_BREAK_EVEN", math.inf):
            steer, _ = recording_steer(params.input_rate, cut)
            assert run(params, n_slots, profile, steer=steer,
                       **kwargs).cycles == steered.cycles
    got = feedback_outcome(params, n_slots, profile, kwargs)
    with mock.patch.object(scenarios, "run", reference_run):
        assert got == feedback_outcome(params, n_slots, profile, kwargs)


def assert_steered_claims_hold(trace):
    """A steered run claims only fixed points: each claim holds, has
    period 1 and lies within one offered-load segment, and the file is the
    one written without the claims."""
    bounds = list(accumulate((k for _, _, k in trace.profile.segments),
                             initial=0))
    for claim in trace.cycles:
        start, period, stop = claim
        assert engine._claim_holds(trace, claim) and period == 1
        i = bisect_right(bounds, start)
        assert stop <= bounds[i], (claim, bounds)
    if trace.cycles:
        assert written(trace) == written(
            dataclasses.replace(trace, cycles=()))


def feedback_outcome(params, n_slots, profile, kwargs):
    """The columns, offered loads and log of a feedback run."""
    trace = run_with_feedback(params, n_slots, 2, profile, **kwargs)
    return columns(trace), repr((trace.profile, trace.feedback_log))


@given(systems(kinds=("float", "int")), st.data())
@settings(max_examples=100, deadline=None)
def test_batched_runs_match_the_reference(system, data):
    params, kwargs = system
    swaps = data.draw(st.sets(st.integers(0, 40), max_size=3))
    assert_batching_is_exact(params, 500, None, kwargs, swaps)


@given(profiled_systems(), st.data())
@settings(max_examples=60, deadline=None)
def test_batched_profile_runs_match_the_reference(system, data):
    params, profile, n_slots, kwargs = system
    swaps = data.draw(st.sets(st.integers(0, 40), max_size=3))
    assert_batching_is_exact(params, n_slots, profile, kwargs, swaps)


@given(profiled_systems(), st.data())
@settings(max_examples=60, deadline=None)
def test_steer_is_called_once_per_handover(system, data):
    # every number type, so runs that batch and runs that do not
    params, profile, n_slots, kwargs = system
    swaps = data.draw(st.sets(st.integers(0, 40), max_size=3))
    steer, calls = recording_steer(params.input_rate, swaps)
    want, want_calls = recording_steer(params.input_rate, swaps)
    trace = run(params, n_slots, profile, steer=steer, **kwargs)
    reference_run(params, n_slots, profile, steer=want, **kwargs)
    assert repr(calls) == repr(want_calls)
    harvest = list(trace.inputs()[0])
    assert repr(calls) == repr([(k, trace.active[k], harvest[k])
                                for k in trace.slots if trace.switched[k]])


@pytest.mark.parametrize("params, kwargs", [
    # both levels rise by 0.1 a slot, so the lead wiggles by an ulp: it
    # reaches the bar entering slot 4 and falls under it again later
    (diamond(e=(0.1, 0.1), g=0.0, h=(3.6142142341728465, 1.0)),
     dict(initial_batteries=(0.07099448810138576, 3.685208722274232))),
    # a spend of int 0 is not subtracted, so the forwarder keeps its -0.0;
    # adding -0, which is int 0, would make it 0.0
    (diamond(e=(0.5, -0.0), g=0, c=1, h=(20.0, 20.0)),
     dict(initial_batteries=(10.0, -0.0), initial_active=1,
          packet_mode="whole")),
], ids=["wiggling-lead", "int-zero-spend"])
def test_batches_keep_the_knife_edges_of_the_slot_rule(params, kwargs,
                                                       slot_calls):
    run(params, 60, **kwargs)
    assert slot_calls[0] < 60          # some slots went by in a batch
    assert_tiling_is_exact(params, 60, **kwargs)


@pytest.mark.parametrize("params, kwargs", [
    (diamond(e=(0.05, 0.05), g=17.5, c=0.08, h=(0.5, 0.5), ct=0.01,
             cr=0.01), dict(initial_batteries=(0.5, 2.0))),
    (three(e=(2, 3, 2), g=6, c=1, h=(3, 4, 2), ct=1, cap=20, es=True),
     dict(packet_mode="whole", initial_batteries=(7, 0, 20))),
], ids=["float-probe", "int-probe"])
def test_runs_that_leave_the_battery_range_match_the_reference(params,
                                                               kwargs):
    # a handover slot charges the new forwarder with no floor check, and
    # these runs drive levels below zero that way; a batch takes no
    # handover that leaves a level at or below the floor, so the slot rule
    # alone decides them
    assert_tiling_is_exact(params, 3000, **kwargs)


@pytest.mark.parametrize("batteries", [None, (25.632, 21.701, 70.146)],
                         ids=["default", "long-trace-draw"])
def test_handovers_go_by_in_batches(slot_calls, batteries):
    # config A under the earliest-switch rule, and long_trace's first es3
    # start at seed 1, hand over about every 11 slots over 4 400 times and
    # never tile: each handover leads the batch of the stint after it, so
    # the slot rule is hardly called
    trace = assert_tiling_is_exact(three(es=True), 50_000,
                                   initial_batteries=batteries)
    assert trace.cycles == () and sum(trace.switched) > 4400
    slot_calls[0] = 0
    run(three(es=True), 50_000, initial_batteries=batteries)
    assert slot_calls[0] <= 20


def test_a_batch_whose_level_stops_moving_is_refused():
    # node 2 harvests 0.5 a slot from 2**52 - 8, where a float's step
    # grows to 1.0: its level stops at 2**52 well below the cap after 16
    # slots, and node 1's stops a slot earlier just under it.  A batch of
    # 16 slots still moves a level in its last slot; one that reaches the
    # fixed point moves none there, and is refused
    params = diamond(e=(1.0, 0.5), g=8.0, c=0.0625, h=(5.0, 5.0),
                     cap=2.0**60)
    stretch = batch._plain_stretch(params, False)
    pre, e, g = [2.0**52 - 8] * 2, params.harvest_rates, params.input_rate
    m, wait, (_, pres, _, _, _, last, _) = stretch(pre, 0, e, g, 16)
    assert (m, wait) == (16, 0)
    assert [x == y for x, y in zip(last, pres[30:])] == [True, False]
    for limit in (17, 99):
        assert stretch(pre, 0, e, g, limit) == (0, 2, None)
    trace = assert_tiling_is_exact(params, 100,
                                   initial_batteries=(2**52 - 8,) * 2)
    # the stopped levels are a fixed point, found by the slot rule
    assert [period for _, period, _ in trace.cycles] == [1]


def test_a_fixed_point_late_in_a_segment_is_tiled():
    # the bundled flat profile under the benchmark's profile parameters:
    # both nodes reach the cap at slot 4722, in the segment of slots 4000
    # to 5000, and the slot after it leaves every level as it was
    params = diamond(e=(0.3, 0.2), g=6.0, c=0.08, ct=0.01, cr=0.05,
                     h=(10.0, 10.0))
    profile = scenarios.load_profile(str(
        importlib.resources.files("hdrsim") / "data"
        / "harvest_flat_input.csv"))
    trace = assert_tiling_is_exact(params, profile=profile,
                                   n_slots=profile.length,
                                   initial_batteries=(30.0, 40.0))
    assert (4722, 1, 5000) in trace.cycles


def test_profile_segments_tile_one_at_a_time(slot_calls):
    # an orbit, a fixed point with both nodes at the cap, a slower orbit
    # and a broke relay that never settles
    params = diamond(**README_POINT)
    e = params.harvest_rates
    g = params.input_rate
    profile = Profile(((e, g, 6000), ((2.0, 2.0), g, 4000),
                       ((0.4, 0.3), g, 4000), ((0.0, 0.0), g, 400)))
    trace = run(params, profile=profile)
    assert [stop for _, _, stop in trace.cycles] == [6000, 10000, 14000]
    assert trace.cycles[1][1] == 1
    # the first orbit is found after about 3100 slots
    assert slot_calls[0] < 6000
    assert_tiling_is_exact(params, profile.length, profile)
    assert verify_trace(trace) == verify_trace(
        reference_run(params, profile=profile))


@pytest.mark.parametrize("params, start, mode", [
    # cap orbit: both nodes take turns at the ceiling
    (diamond(e=(0.8, 0.6), g=15.0, h=(5.0, 5.0)), (10.0, 10.0), "fractional"),
    # floor orbit: the forwarder is clamped at the control floor and runs
    # partial slots
    (diamond(e=(0.25, 0.5), g=20.0, c=0.0625, h=(2.5, 2.5), ct=0.015625,
             cr=0.03125, cap=400.0), (12.0, 12.0), "fractional"),
    (diamond(e=(0.25, 0.5), g=20.0, c=0.0625, h=(2.5, 2.5), ct=0.015625,
             cr=0.03125, cap=16.0), None, "whole"),
    # partial duty and withheld status messages on the dyadic grid
    (diamond(e=(F(1, 4), F(3, 4)), g=F(20), c=F(1, 16), h=(F(56), F(40)),
             ct=F(1, 64), cr=F(1, 32), cap=F(64)), (F(12), F(63)),
     "fractional"),
    # config B of the policy comparison, exact
    (three(e=(F(1, 10), F(7, 10), F(4, 5)), g=F(20), c=F(2, 25),
           h=(F(5), F(10), F(10)), cap=F(12)), None, "whole"),
    (three(e=(0.25, 0.5, 0.75), g=16.0, c=0.0625, h=(2.0, 3.0, 2.0),
           ct=0.03125, cap=16.0), None, "whole"),
    # int inputs: broke relays, partial slots and withheld status messages
    (three(e=(2, 3, 2), g=5, c=1, h=(3, 4, 2), ct=1, cap=30), (7, 0, 30),
     "fractional"),
    (three(e=(2, 3, 2), g=5, c=1, h=(3, 4, 2), ct=1, cap=20, es=True),
     (7, 0, 20), "whole"),
], ids=["cap", "floor", "floor-whole", "partial-fraction", "config-b-exact",
        "three-cap-whole", "int-rr", "int-es-whole"])
def test_tiled_orbits_match_the_per_slot_path(params, start, mode,
                                              slot_calls):
    n_slots = 3000
    trace = assert_tiling_is_exact(params, n_slots, packet_mode=mode,
                                   initial_batteries=start)
    # the tiled run stopped early; the per-slot one took every slot
    assert slot_calls[0] < 2 * n_slots
    assert verify_trace(trace) == []


def test_equal_levels_of_another_type_or_sign_are_another_state():
    assert engine._same_levels([0.5, F(5)], [0.5, F(5)])
    assert not engine._same_levels([-0.0, 1.0], [0.0, 1.0])
    assert not engine._same_levels([F(5), F(1, 2)], [5, F(1, 2)])
    assert not engine._same_levels([5.0, 1.0], [5, 1.0])


@pytest.mark.parametrize("mode", ["fractional", "whole"])
def test_negative_zero_starting_level(mode):
    # -0.0 is a level in [0, capacity], and a harvest rate that is not
    # below 0: node 2 idles at -0.0 until it takes over
    params = diamond(e=(0.5, -0.0), g=10.0, c=0.0625, h=(1.0, 1.0),
                     cap=8.0)
    for start in ((8.0, -0.0), (-0.0, -0.0), (-0.0, 4.0)):
        assert_tiling_is_exact(params, 400, packet_mode=mode,
                               initial_batteries=start)


@pytest.mark.parametrize("mode", ["fractional", "whole"])
def test_int_starting_levels_under_fraction_params(mode):
    # an int capacity clips a level to int 4, while a level that lands on
    # the capacity stays Fraction(4): equal levels, different reprs
    params = diamond(e=(F(7, 4), F(3, 2)), g=F(34), c=F(1, 16),
                     h=(F(3, 4), F(3, 4)), cap=4)
    for start in ((F(5, 4), 2), (4, 0), (1, 3)):
        assert_tiling_is_exact(params, 400, packet_mode=mode,
                               initial_batteries=start)
    # an idle node with int-zero harvest keeps an int level
    params = diamond(e=(F(1, 2), 0), g=F(10), c=F(1, 16), h=(F(1), F(1)),
                     cap=F(8))
    for start in ((8, 5), (3, 3)):
        assert_tiling_is_exact(params, 400, packet_mode=mode,
                               initial_batteries=start)


def test_readme_point_stops_simulating_on_its_orbit(slot_calls):
    trace = run(diamond(**README_POINT), n_slots=10**5)
    assert len(trace) == 10**5
    assert slot_calls[0] < 10**4
    # the audit replays every slot, the copied ones included
    assert verify_trace(trace) == []


def test_tiled_fraction_trace_shares_its_values():
    params = diamond(e=(F(4, 5), F(3, 5)), g=F(35, 2), c=F(2, 25),
                     h=(F(31, 5), F(5)), ct=F(1, 100), cr=F(1, 20),
                     cap=F(100))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run(params, n_slots=10**5)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == 10**5
    # the repeated slots hold references to the orbit's Fractions (about
    # 57 bytes a slot), not Fractions of their own (about 280)
    assert held / 10**5 <= 100


# ---------------------------------------------------------------------------
# the cycle a tiled run records, and its readers
# ---------------------------------------------------------------------------

# tiled runs of each column kind: float levels, Fraction levels, and whole
# packet counts next to float and Fraction levels; each is on its orbit
# within a few hundred slots
CLAIMED = {
    "float": (diamond(e=(0.25, 0.5), g=20.0, c=0.0625, h=(2.5, 2.5),
                      ct=0.015625, cr=0.03125, cap=400.0), "fractional",
              (12.0, 12.0)),
    "fraction": (diamond(e=(F(1, 4), F(3, 4)), g=F(20), c=F(1, 16),
                         h=(F(56), F(40)), ct=F(1, 64), cr=F(1, 32),
                         cap=F(64)), "fractional", (F(12), F(63))),
    "whole-float": (three(e=(0.25, 0.5, 0.75), g=16.0, c=0.0625,
                          h=(2.0, 3.0, 2.0), ct=0.03125, cap=16.0), "whole",
                    None),
    "whole-fraction": (three(e=(F(1, 10), F(7, 10), F(4, 5)), g=F(20),
                             c=F(2, 25), h=(F(5), F(10), F(10)), cap=F(12)),
                       "whole", None),
}


@pytest.fixture(scope="module", params=sorted(CLAIMED))
def claimed(request):
    """A tiled run that records its cycle."""
    params, mode, start = CLAIMED[request.param]
    trace = run(params, n_slots=1500, packet_mode=mode,
                initial_batteries=start)
    (claim,) = trace.cycles
    assert engine._claim_holds(trace, claim)
    return trace


def written(trace):
    """The bytes ``write_trace_csv`` writes for ``trace``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/trace.csv"
        write_trace_csv(trace, path)
        with open(path, "rb") as fh:
            return fh.read()


def bump(column, k, value):
    """A copy of ``column`` with entry ``k`` set to ``value``."""
    column = column[:]
    column[k] = value
    return column


def test_run_records_the_cycle_it_tiles(claimed):
    (start, period, stop), = claimed.cycles
    # a run without a profile is one stretch, tiled to its end
    assert 0 <= start and period >= 1 and start + period < stop
    assert stop == len(claimed)
    # the reference takes every slot and makes no claim; the traces are
    # equal all the same
    reference = reference_run(claimed.params, len(claimed),
                              packet_mode=claimed.packet_mode,
                              initial_batteries=tuple(c[0] for c in
                                                      claimed.battery_pre))
    assert reference.cycles == ()
    assert reference == claimed


def test_runs_that_do_not_tile_make_no_claim():
    params = diamond(**README_POINT)
    assert run(params, 2000).cycles == ()           # still in transit
    assert run(params, 2000,
               profile=constant_profile(params, 2000)).cycles == ()
    # steered runs tile only fixed points: the README point's orbit moves
    # every slot, so a steered run of it claims nothing
    assert run(params, 10**4).cycles != ()
    assert run(params, 10**4,
               steer=lambda *a: params.input_rate).cycles == ()


def test_steered_runs_tile_their_fixed_points():
    # both nodes harvest more than the forwarder spends, so both end up
    # pinned at the cap, where every slot repeats the one before.  steer
    # is called only after a handover, so the first such slot is tiled to
    # the end of the run, with batches or without
    params = diamond(e=(0.9, 0.8), g=6.0, h=(10.0, 10.0), ct=0.01, cr=0.05)

    def hold(*args):
        return params.input_rate

    trace = run(params, 5000, steer=hold)
    (start, period, stop), = trace.cycles
    assert (period, stop) == (1, 5000) and stop - start > 4000
    assert_steered_claims_hold(trace)
    assert columns(trace) == columns(reference_run(params, 5000, steer=hold))
    with mock.patch.object(batch, "_BREAK_EVEN", math.inf):
        assert run(params, 5000, steer=hold).cycles == trace.cycles


def test_claims_cost_the_writer_only_speed(claimed):
    honest = written(dataclasses.replace(claimed, cycles=()))
    assert written(claimed) == honest
    (start, period, stop), = claimed.cycles
    size = len(claimed)
    # a stale claim: one cell past the first period changed, the claim kept
    packets = bump(claimed.packets, size - 3, claimed.packets[size - 3] + 1)
    stale = dataclasses.replace(claimed, packets=packets)
    assert stale.cycles == claimed.cycles
    assert not engine._claim_holds(stale, stale.cycles[0])
    assert written(stale) == written(
        dataclasses.replace(stale, cycles=()))
    assert written(stale) != honest
    # bogus claims
    for claim in ((start, 0, stop), (-1, period, stop), (start, size, stop),
                  (size, 1, size + 1), (start, period, size + 1),
                  (start, period, start + period - 1), (start, -period, stop),
                  (float(start), period, stop), (start, period),
                  [start, period, stop], None):
        bogus = dataclasses.replace(claimed, cycles=(claim,))
        assert not engine._claim_holds(bogus, claim), claim
        assert written(bogus) == honest, claim
    # true claims other than the run's: a later start, two periods, an
    # earlier stop, an empty tail
    for claim in ((start + 5, period, stop), (start, 2 * period, stop),
                  (start, period, stop - 7), (start, period, start + period)):
        other = dataclasses.replace(claimed, cycles=(claim,))
        assert engine._claim_holds(other, claim), claim
        assert written(other) == honest, claim


@pytest.fixture(scope="module", params=sorted(CLAIMED))
def several(request):
    """A profile run of each column kind with a claim per tiled segment:
    a fixed point at the cap, the run's own orbit and a slower one, the
    last segment cut short."""
    params, mode, start = CLAIMED[request.param]
    e, g = params.harvest_rates, params.input_rate
    rows = (tuple(type(x)(4) for x in e), e, tuple(x / 2 for x in e), e)
    trace = run(params, n_slots=2300, packet_mode=mode,
                initial_batteries=start,
                profile=Profile(tuple((row, g, 600) for row in rows)))
    assert len(trace.cycles) >= 2
    assert all(engine._claim_holds(trace, c) for c in trace.cycles)
    return trace


def test_several_claims_cost_the_writer_only_speed(several):
    honest = written(dataclasses.replace(several, cycles=()))
    assert written(several) == honest
    claims = several.cycles
    # one stale claim per stretch: a cell of each tail bumped
    packets = several.packets[:]
    for _, _, stop in claims:
        packets[stop - 1] += 1
    stale = dataclasses.replace(several, packets=packets)
    assert not any(engine._claim_holds(stale, c) for c in claims)
    assert written(stale) == written(
        dataclasses.replace(stale, cycles=()))
    # overlapping claims, claims out of order, claims past the end
    size = len(several)
    (a, pa, sa), (b, pb, _) = claims[:2]
    for cycles in (claims[::-1], claims[1:] + claims[:1],
                   claims + ((a + 1, pa, sa), (a, 2 * pa, sa)),
                   ((a, pa, sa - 3), (a + pa, pa, sa)) + claims[1:],
                   ((a, pa, b + pb),) + claims,
                   claims[:-1] + ((claims[-1][0], claims[-1][1], size + 1),),
                   ((size - 1, 1, size + 5),) + claims):
        other = dataclasses.replace(several, cycles=cycles)
        assert written(other) == honest, cycles


def test_a_stale_claim_fails_in_every_column(claimed):
    claim, = claimed.cycles
    for column, change in mutants(claimed, len(claimed) - 1, 1, 1, 0):
        stale = dataclasses.replace(claimed, **change)
        assert not engine._claim_holds(stale, claim), column
    # a column shorter than the trace makes no trace to hold a claim
    with pytest.raises(ValueError, match="column packets holds"):
        dataclasses.replace(claimed, packets=claimed.packets[:-1])


def test_a_claim_tells_equal_values_apart_by_bits_and_type():
    # a float column: -0.0 == 0.0, but the file prints them differently
    levels = array("d", [1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    flags = array("B", [0] * 6)
    trace = Trace(battery_pre=(levels,), battery_post=(levels,),
                  active=flags, switched=flags, packets=levels,
                  suppressed=flags, cycles=((0, 2, 6),))
    claim, = trace.cycles
    assert engine._claim_holds(trace, claim)
    signed = dataclasses.replace(trace, packets=bump(levels, 5, -0.0))
    assert not engine._claim_holds(signed, claim)
    assert written(signed).endswith(b"\r\n5,1,0,-0,0,0,0\r\n")
    # a list column: 5 == Fraction(5), but they compute differently
    values = [F(5), F(1, 2)] * 3
    listed = dataclasses.replace(trace, packets=values)
    assert engine._claim_holds(listed, claim)
    assert engine._claim_holds(
        dataclasses.replace(trace, packets=bump(values, 4, F(10, 2))), claim)
    assert not engine._claim_holds(
        dataclasses.replace(trace, packets=bump(values, 4, 5)), claim)


def test_a_file_of_a_trace_tail_is_refused(tmp_path):
    # entry k of a trace is slot k, so a tail from slot 40 has no trace
    trace = run(diamond(**README_POINT), 6000)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_bytes().splitlines(keepends=True)
    (tmp_path / "tail.csv").write_bytes(b"".join(lines[:1] + lines[41:]))
    with pytest.raises(ValueError,
                       match="tail.csv: slot 40 where slot 0 is due"):
        read_trace_csv(tmp_path / "tail.csv")


# ---------------------------------------------------------------------------
# the trace reader parses each distinct row of a chunk once
# ---------------------------------------------------------------------------

def assert_re_read_columns_are_the_same(back, trace):
    """Every column of the re-read ``back`` is an array holding the bits of
    ``trace``'s column: levels and packets as doubles (whole packet counts,
    ints in a list, come back as floats), the flags as bytes."""
    for got, want in zip(
            (*back.battery_pre, *back.battery_post, back.packets,
             back.active, back.switched, back.suppressed),
            (*trace.battery_pre, *trace.battery_post, trace.packets,
             trace.active, trace.switched, trace.suppressed)):
        assert type(got) is array
        typecode = want.typecode if isinstance(want, array) else "d"
        assert got.typecode == typecode
        assert got.tobytes() == array(typecode, want).tobytes()


@given(systems(kinds=("float", "int")),
       st.sampled_from((1100, 2100, 4200)) | st.integers(1, 5000))
@settings(max_examples=40, deadline=None)
def test_float_runs_read_back_column_for_column(tmp_path_factory, system,
                                                n_slots):
    # runs of one to four chunks of the reader, whose tiled stretches
    # start wherever their orbit comes back
    params, kwargs = system
    trace = run(params, n_slots, **kwargs)
    path = tmp_path_factory.mktemp("run") / "trace.csv"
    write_trace_csv(trace, path)
    assert_re_read_columns_are_the_same(read_trace_csv(path), trace)


CHUNK = engine._CSV_CHUNK


@st.composite
def tiled_traces(draw, chunk=CHUNK, blocks=0):
    """A float trace of 1 to 3 nodes whose columns repeat one period from
    ``start`` up to ``stop``, claimed in ``cycles``.  The stretch starts
    before, at or after a boundary of the reader's chunks of ``chunk``
    lines, or anywhere in the first three chunks; the period may be longer
    than a chunk.  The stretch holds one to four periods, or, with
    ``blocks``, two periods and up to ``blocks`` chunks more.  Cells come
    from a small pool of finite floats, -0.0 and denormals among them, or
    are drawn at random, so rows outside the stretch repeat too."""
    n = draw(st.integers(1, 3))
    start = draw(st.sampled_from((chunk - 1, chunk, chunk + 1))
                 | st.integers(0, 3 * chunk))
    period = draw(st.sampled_from((1, 19, chunk - 1, chunk + 7))
                  | st.integers(1, 2 * chunk))
    if blocks:
        stop = start + 2 * period + draw(st.just(blocks * chunk)
                                         | st.integers(0, blocks * chunk))
    else:
        stop = start + period * draw(st.integers(1, 3)) + draw(
            st.integers(0, period))
    size = stop + draw(st.integers(0, 40))
    pool = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=1, max_size=6)) + [-0.0, 5e-324]
    mixed = draw(st.sampled_from((0.0, 0.5, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def column(cell):
        values = [cell() for _ in range(size)]
        for k in range(start + period, stop):
            values[k] = values[k - period]
        return values

    def level():
        return (rng.choice(pool) if rng.random() < mixed
                else rng.uniform(-1e3, 1e3))

    levels = [array("d", column(level)) for _ in range(2 * n)]
    trace = Trace(
        battery_pre=tuple(levels[:n]), battery_post=tuple(levels[n:]),
        packets=array("d", column(level)),
        active=array("B", column(lambda: rng.randrange(n))),
        switched=array("B", column(lambda: rng.randrange(2))),
        suppressed=array("B", column(lambda: rng.randrange(1 << n))),
        cycles=((start, period, stop),))
    assert engine._claim_holds(trace, trace.cycles[0])
    return trace


@given(tiled_traces())
@settings(max_examples=40, deadline=None)
def test_tiled_stretches_read_back_across_chunk_boundaries(
        tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("tiled") / "trace.csv"
    write_trace_csv(trace, path)
    assert_re_read_columns_are_the_same(read_trace_csv(path), trace)


@pytest.mark.parametrize("change, message", [
    (lambda cells: cells[:4] + ["nan"] + cells[5:],
     "column 'battery_pre1' holds a value that is not finite"),
    (lambda cells: cells[:2] + ["2"] + cells[3:],
     "column 'switched' holds a value other than 0 or 1"),
    (lambda cells: cells[:-1], "line 5002 has 9 cells where the header has 10"),
    (lambda cells: ["5001"] + cells[1:], "slot 5001 where slot 5000 is due"),
], ids=["nan", "flag-2", "short-row", "slot-number"])
@pytest.mark.parametrize("copies", [1, 3])
def test_a_bad_row_inside_a_tiled_stretch_is_refused(tmp_path, change,
                                                     message, copies):
    # the README point tiles from slot 3068 with period 19: from slot 5000
    # on, past the first chunk, each row's text after its slot number is
    # that of the row 19 slots earlier.  Slot 5000 is changed, or slots
    # 5000, 5019 and 5038 alike, so that the bad text repeats in its chunk
    trace = run(diamond(**README_POINT), 6000)
    assert trace.cycles == ((3068, 19, 6000),)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    for k in range(5000, 5000 + 19 * copies, 19):
        lines[k] = ",".join(change(lines[k].split(",")))
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"trace.csv: {message}"):
        read_trace_csv(path)


def reference_csv(trace):
    """The file ``write_trace_csv`` writes: one ``%d`` or ``%.17g`` per
    cell and one row per slot, with no chunks and no claims."""
    n = trace.n_nodes
    header = ["slot", "active", "switched", "packets"] + [
        f"{name}{u}" for name in ("battery_pre", "battery_post", "suppressed")
        for u in range(1, n + 1)]
    lines = [",".join(header) + "\r\n"]
    for k in range(len(trace)):
        cells = ["%d" % k, "%d" % (trace.active[k] + 1),
                 "%d" % trace.switched[k], "%.17g" % trace.packets[k]]
        cells += ["%.17g" % col[k]
                  for col in (*trace.battery_pre, *trace.battery_post)]
        cells += ["%d" % (trace.suppressed[k] >> u & 1) for u in range(n)]
        lines.append(",".join(cells) + "\r\n")
    return "".join(lines).encode()


@st.composite
def written_traces(draw):
    """A trace to write: a run of a float, int or ``Fraction`` system in
    either packet mode, steered or not, its length around a multiple of
    the writer's chunk or on a profile, or a float trace from
    ``tiled_traces``.  Its claims
    are its own, true ones derived from them, and bogus ones, near chunk
    boundaries or anywhere; one packets cell may be changed, to -0.0 or
    0.0 or by one, inside a claimed stretch when there is one, so that
    the claim goes stale."""
    kind = draw(st.sampled_from(("tiled", "run", "profiled")))
    if kind == "tiled":
        trace = draw(tiled_traces())
    else:
        if kind == "run":
            params, kwargs = draw(systems())
            profile, n_slots = None, draw(
                st.sampled_from((CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1,
                                 2 * CHUNK + 1))
                | st.integers(1, 2 * CHUNK + 60))
        else:
            # harvests past a full slot, so steered runs pin at the cap
            params, profile, n_slots, kwargs = draw(profiled_systems())
        steer = draw(st.sampled_from((None, lambda *a: params.input_rate)))
        trace = run(params, n_slots, profile, steer=steer, **kwargs)
    size, own = len(trace), trace.cycles
    claims = list(own)
    for start, period, stop in own:
        # a later start and an earlier stop, and twice the period
        later = draw(st.integers(0, stop - start - period))
        earlier = draw(st.integers(0, stop - start - period - later))
        claims += [(start + later, period, stop - earlier),
                   (start, 2 * period, stop)]
    edges = st.sampled_from([k * CHUNK + d for k in (1, 2)
                             for d in (-1, 0, 1)])
    ends = edges | st.integers(-1, size + 1)
    claims += draw(st.lists(st.tuples(ends, edges | st.integers(-1, size),
                                      ends), max_size=3))
    trace = dataclasses.replace(trace, cycles=tuple(draw(st.permutations(
        claims))))
    if draw(st.booleans()):
        tails = [(start + period, stop) for start, period, stop in own[:1]
                 if start + period < stop]
        a, b = tails[0] if tails else (0, size)
        k = draw(st.integers(a, b - 1))
        value = draw(st.sampled_from((-0.0, 0.0, trace.packets[k] + 1)))
        trace = dataclasses.replace(trace,
                                    packets=bump(trace.packets, k, value))
    return trace


@given(written_traces())
@settings(max_examples=60, deadline=None)
def test_the_writer_matches_a_writer_of_one_cell_at_a_time(trace):
    assert written(trace) == reference_csv(trace)


# ---------------------------------------------------------------------------
# a level the exchange leaves unchanged is formatted and parsed once
# ---------------------------------------------------------------------------

@st.composite
def exchanged_runs(draw):
    """A float run of the diamond or the three relays whose status cost is
    int 0 or 0.0, which leave every level as it was, or positive.  Its
    batteries may start low, so that a forwarder below the control floor
    withholds its status and keeps its level while the other nodes pay.
    Its claims are its own."""
    status = draw(st.sampled_from((0, 0.0, 0.01, 0.3)))
    n = draw(st.sampled_from((2, 3)))
    params = (diamond(ct=status, cr=draw(st.sampled_from((0, 0.05))))
              if n == 2 else three(ct=status, es=draw(st.booleans())))
    batteries = tuple(draw(st.sampled_from((0.0, 0.1, 0.25, 30.0, 99.5)))
                      for _ in range(n))
    n_slots = draw(st.sampled_from((CHUNK - 1, CHUNK + 1))
                   | st.integers(1, 2 * CHUNK + 60))
    return run(params, n_slots, initial_batteries=batteries,
               initial_active=draw(st.integers(0, n - 1)))


@st.composite
def exchanged_tables(draw):
    """A drawn float trace of 1 to 3 nodes and up to 60 slots, its levels
    from a small pool with 0.0, -0.0 and a denormal in it.  Each node's
    post column copies its pre column, copies it with the sign of some
    zeros flipped, differs from it in some entries, or is drawn on its
    own; it is an ``array('d')`` or, at times, a list.  Packets are an
    ``array('d')`` or a list of ints.  The rows may repeat a period from
    a drawn start, claimed in ``cycles``."""
    n = draw(st.integers(1, 3))
    size = draw(st.integers(1, 60))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = [0.0, -0.0, 5e-324, 1.5, -2.25, 1e300, 0.1]
    modes = [draw(st.sampled_from(("same", "signs", "some", "own")))
             for _ in range(n)]

    def post(level, mode):
        if mode == "own" or (mode == "some" and rng.random() < 0.05):
            return rng.choice(pool)
        if mode == "signs" and level == 0 and rng.random() < 0.3:
            return -level
        return level

    rows = []
    for _ in range(size):
        pre = [rng.choice(pool) for _ in range(n)]
        rows.append((rng.randrange(n), rng.randrange(2), rng.randrange(4),
                     *pre, *map(post, pre, modes), rng.randrange(1 << n)))
    start = draw(st.integers(0, size - 1))
    period = draw(st.integers(1, size - start))
    stop = draw(st.integers(start + period, size))
    for k in range(start + period, stop):
        rows[k] = rows[k - period]
    active, switched, packets, *levels, suppressed = map(list, zip(*rows))
    listed = draw(st.booleans()) and draw(st.booleans())
    return Trace(
        battery_pre=tuple(array("d", col) for col in levels[:n]),
        battery_post=tuple(col if listed else array("d", col)
                           for col in levels[n:]),
        active=array("B", active), switched=array("B", switched),
        packets=packets if draw(st.booleans()) else array("d", packets),
        suppressed=array("B", suppressed),
        cycles=((start, period, stop),) if draw(st.booleans()) else ())


def parsed_columns(text: bytes, n: int) -> list:
    """The columns of the trace file ``text`` as ``read_trace_csv`` returns
    them, parsed one cell at a time: levels and packets by ``float``, the
    active node less one, and each slot's suppressed bits as one mask."""
    rows = [row.split(",") for row in text.decode().split("\r\n")[1:-1]]
    cells = list(zip(*rows))
    return [array("d", map(float, cells[4 + u])) for u in range(2 * n)] + [
        array("d", map(float, cells[3])),
        array("B", [int(cell) - 1 for cell in cells[1]]),
        array("B", map(int, cells[2])),
        array("B", [sum(int(row[4 + 2 * n + u]) << u for u in range(n))
                    for row in rows])]


@given(exchanged_runs() | exchanged_tables(), st.sampled_from((5, CHUNK)),
       st.booleans())
@settings(max_examples=80, deadline=None)
def test_shared_levels_write_and_read_as_one_cell_at_a_time(
        tmp_path_factory, trace, chunk, claimed):
    # a chunk whose post levels have their pre levels' bits takes one text
    # for both blocks, and a post column with its pre column's text takes
    # its values; the file and the re-read columns are the same bytes as
    # one %.17g and one float per cell give, chunk by chunk or not
    if not claimed:
        trace = dataclasses.replace(trace, cycles=())
    path = tmp_path_factory.mktemp("shared") / "trace.csv"
    with mock.patch.object(engine, "_CSV_CHUNK", chunk):
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
    want = reference_csv(trace)
    assert path.read_bytes() == want
    got = (*back.battery_pre, *back.battery_post, back.packets, back.active,
           back.switched, back.suppressed)
    for column, cells in zip(got, parsed_columns(want, trace.n_nodes),
                             strict=True):
        assert column.typecode == cells.typecode
        assert column.tobytes() == cells.tobytes()
    # the re-read post columns are arrays of their own
    for pre, post in zip(back.battery_pre, back.battery_post):
        assert pre is not post


# ---------------------------------------------------------------------------
# the reader copies a repeated period a chunk at a time, as the writer does
# ---------------------------------------------------------------------------

# the reader's chunk in these tests, so that a stretch spans many of them
BLOCK = 40


@st.composite
def copied_traces(draw):
    """A trace of ``tiled_traces`` at chunks of ``BLOCK`` lines, its
    stretch up to eight chunks past its first two periods.  Each row of a
    period has a packets cell of its own, so the reader finds the period
    where the rows of two periods end a chunk."""
    trace = draw(tiled_traces(BLOCK, blocks=8))
    start, period, stop = trace.cycles[0]
    packets = array("d", trace.packets)
    for k in range(start, stop):
        packets[k] = (k - start) % period + 0.25
    return dataclasses.replace(trace, packets=packets)


def copied_blocks(trace) -> range:
    """The first slots of the chunks of ``BLOCK`` lines that the reader
    must copy rather than parse: the chunks within the stretch of
    ``trace.cycles[0]`` that come after two of its periods, where a
    period is at most half a chunk."""
    start, period, stop = trace.cycles[0]
    if 2 * period > BLOCK:
        return range(0)
    return range(-(-(start + 2 * period) // BLOCK) * BLOCK, stop - BLOCK + 1,
                 BLOCK)


def read_in_blocks(path):
    """``read_trace_csv(path)`` at chunks of ``BLOCK`` lines, and the
    number of rows it parsed."""
    with mock.patch.object(engine, "_CSV_CHUNK", BLOCK), mock.patch.object(
            engine, "_chunk_cells", wraps=engine._chunk_cells) as parse:
        back = read_trace_csv(path)
    return back, sum(len(call.args[1]) for call in parse.call_args_list)


def assert_parsed_columns(back, text: bytes):
    """Every column of ``back`` has the bytes of ``parsed_columns``."""
    got = (*back.battery_pre, *back.battery_post, back.packets, back.active,
           back.switched, back.suppressed)
    for column, cells in zip(got, parsed_columns(text, back.n_nodes),
                             strict=True):
        assert column.typecode == cells.typecode
        assert column.tobytes() == cells.tobytes()


@given(copied_traces(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_a_repeated_period_is_read_a_chunk_at_a_time(tmp_path_factory, trace,
                                                     claimed):
    # periods of 1, 19, about a chunk and longer, from before, at or after
    # a chunk boundary: the file is the same with the claim or without it,
    # each chunk after two periods is copied, and every column comes back
    # with the bits of one float per cell
    blocks = copied_blocks(trace)
    if not claimed:
        trace = dataclasses.replace(trace, cycles=())
    path = tmp_path_factory.mktemp("copied") / "trace.csv"
    with mock.patch.object(engine, "_CSV_CHUNK", BLOCK):
        write_trace_csv(trace, path)
    text = path.read_bytes()
    assert text == reference_csv(trace)
    back, parsed = read_in_blocks(path)
    assert_parsed_columns(back, text)
    assert parsed <= len(trace) - BLOCK * len(blocks)


def same_number(cell: str) -> str:
    """Another text of the number ``cell``: ``17.5`` as ``17.50``, ``-1e-07``
    as ``-01e-07``."""
    if "." in cell and "e" not in cell:
        return cell + "0"
    return "-0" + cell[1:] if cell.startswith("-") else "0" + cell


def zero_levels(cells, k):
    """The row with every level written as ``0``, shorter than before."""
    levels = 2 * (len(cells) - 4) // 3
    return cells[:4] + ["0"] * levels + cells[4 + levels:]


def other_text(cells, k):
    """The row with its first level written as another text of its number."""
    return cells[:4] + [same_number(cells[4])] + cells[5:]


def short_row(cells, k):
    """The row without its last cell."""
    return cells[:-1]


SHORT_ROW = "line {line} has {width} cells where the header has {header}"


@pytest.mark.parametrize("change, message, place", [
    (other_text, None, "any"),
    (lambda cells, k: cells[:4] + ["nan"] + cells[5:],
     "column 'battery_pre1' holds a value that is not finite", "any"),
    (lambda cells, k: cells[:2] + ["2"] + cells[3:],
     "column 'switched' holds a value other than 0 or 1", "any"),
    (short_row, SHORT_ROW, "any"),
    (lambda cells, k: [str(k + 1)] + cells[1:],
     "slot {next} where slot {k} is due", "any"),
    (other_text, None, "chunk-end"),
    (short_row, SHORT_ROW, "chunk-end"),
    (zero_levels, None, "any"),
    (None, None, "any"),
], ids=["same-number", "nan", "flag-2", "short-row", "slot-number",
        "chunk-end-same-number", "chunk-end-short-row", "shorter-row",
        "file-ends"])
@given(trace=copied_traces(), data=st.data())
@settings(max_examples=15, deadline=None)
def test_a_changed_row_deep_in_a_copied_stretch(tmp_path_factory, change,
                                                message, place, trace, data):
    # a row three or more chunks into the copied chunks, or anywhere in
    # the stretch where there are fewer, or the last row of such a chunk,
    # is changed, or it and the rows one and two periods after it: another
    # text of the same number, or rows shorter than those they replace, so
    # that the text read for a chunk of copies runs into the rows after
    # it, read back as one float per cell reads them, and a bad cell is
    # refused as it is where nothing is copied.  A file that ends at that
    # row, with or without its last newline, reads back as one float per
    # cell reads it
    start, period, stop = trace.cycles[0]
    blocks = copied_blocks(trace)
    first = blocks[2] if len(blocks) > 2 else start
    if place == "chunk-end":
        ends = [j for j in range(first, stop) if (j + 1) % BLOCK == 0]
        k = data.draw(st.sampled_from(ends or [stop - 1]))
    else:
        k = data.draw(st.integers(first, stop - 1))
    path = tmp_path_factory.mktemp("changed") / "trace.csv"
    header, *lines = reference_csv(trace).decode().split("\r\n")
    if change is None:
        text = "\r\n".join([header, *lines[:k + 1]])
        path.write_bytes((text + data.draw(st.sampled_from(("\r\n", ""))))
                         .encode())
        assert_parsed_columns(read_in_blocks(path)[0],
                              (text + "\r\n").encode())
        return
    for j in range(k, min(k + period * data.draw(st.sampled_from((1, 3))),
                          stop), period):
        lines[j] = ",".join(change(lines[j].split(","), j))
    text = "\r\n".join([header, *lines])
    path.write_bytes(text.encode())
    if message is None:
        assert_parsed_columns(read_in_blocks(path)[0], text.encode())
        return
    width = header.count(",")
    message = message.format(line=k + 2, width=width, header=width + 1, k=k,
                             next=k + 1)
    with pytest.raises(ValueError, match=f"trace.csv: {message}"):
        read_in_blocks(path)


@pytest.mark.parametrize("columns, named", [
    (("battery_post2",), "battery_post2"),
    (("battery_pre1", "battery_post1"), "battery_pre1"),
    (("battery_post1", "battery_post2"), "battery_post1"),
], ids=["post-only", "pre-and-post", "two-posts"])
@pytest.mark.parametrize("value", ["nan", "abc"])
def test_a_bad_level_is_named_by_its_first_column(tmp_path, columns, named,
                                                   value):
    # with no status cost every post cell has its pre cell's text, so the
    # reader takes each post column's values from its pre column wherever
    # their texts agree; a post column with a text of its own is parsed
    # and checked, and a bad cell in both is named in the pre column first
    trace = run(diamond(), n_slots=1100)
    assert all(pre == post for pre, post in zip(trace.battery_pre,
                                                trace.battery_post))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    cells = dict(zip(header.split(","), lines[1099].split(",")))
    for column in columns:
        cells[column] = value
    lines[1099] = ",".join(cells.values())
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"trace.csv: column '{named}' "
                                         f"holds a value that is not"):
        read_trace_csv(path)


def rotation_stats(trace, warmup):
    """Count and mean length of the rotations, from ``detect_cycles``."""
    cycles = detect_cycles(trace, warmup=warmup)
    if not cycles:
        return 0, None
    return len(cycles), (sum(c.length for c in cycles) / len(cycles)).hex()


def assert_summary_counts_the_rotations(trace, warmup):
    got = summarize(trace, warmup=warmup)
    mean = got.mean_cycle_length
    assert (got.cycle_count, None if mean is None else mean.hex()) == \
        rotation_stats(trace, warmup)


@given(systems(), st.integers(1, 400), st.data())
@settings(max_examples=60, deadline=None)
def test_summarize_telescopes_the_rotations(system, n_slots, data):
    params, kwargs = system
    trace = run(params, n_slots, **kwargs)
    for warmup in (0, data.draw(st.integers(0, n_slots - 1))):
        assert_summary_counts_the_rotations(trace, warmup)


@pytest.mark.parametrize("n_slots, rotations", [(1, 0), (9, 0), (30, 1),
                                                (45, 2), (3000, None)])
def test_summarize_counts_few_rotations(n_slots, rotations, tmp_path):
    # the README point from node 2 hands over to node 1 at slots 4, 23, 42
    trace = run(diamond(**README_POINT), n_slots, initial_active=1)
    if rotations is not None:
        assert summarize(trace).cycle_count == rotations
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    back = read_trace_csv(path)
    for warmup in (0, 6, n_slots // 2):
        assert_summary_counts_the_rotations(trace, warmup)
        assert_summary_counts_the_rotations(back, warmup)
        assert summarize(back, warmup) == summarize(trace, warmup)


# ---------------------------------------------------------------------------
# the audit catches a change to any one cell
# ---------------------------------------------------------------------------

def mutants(trace, k, step, shift, bit):
    """One copy of ``trace`` per column, each with its entry ``k`` changed:
    a level or packet count moved by ``step``, the active node moved
    ``shift`` nodes on, the switched flag or bit ``bit`` of the suppressed
    mask flipped."""
    for name in ("battery_pre", "battery_post"):
        for u in range(trace.n_nodes):
            cols = list(getattr(trace, name))
            cols[u] = bump(cols[u], k, cols[u][k] + step)
            yield f"{name}{u + 1}", {name: tuple(cols)}
    yield "packets", {"packets": bump(trace.packets, k,
                                      trace.packets[k] + step)}
    yield "active", {"active": bump(trace.active, k, (trace.active[k] + shift)
                                    % trace.n_nodes)}
    yield "switched", {"switched": bump(trace.switched, k,
                                        1 - trace.switched[k])}
    yield "suppressed", {"suppressed": bump(trace.suppressed, k,
                                            trace.suppressed[k] ^ 1 << bit)}


@given(systems(), st.integers(0, 99),
       st.sampled_from((1, -1, F(1, 1000), F(-1, 1000), 1e-6, -1e-6)),
       st.data())
@settings(max_examples=30, deadline=None)
def test_audit_catches_every_single_cell_change(system, k, step, data):
    params, kwargs = system
    trace = run(params, 100, **kwargs)
    # some regimes break the energy balance unmutated (a handover slot
    # charges the new forwarder below zero); only clean traces count
    assume(verify_trace(trace) == [])
    n = trace.n_nodes
    shift = data.draw(st.integers(1, n - 1))
    bit = data.draw(st.integers(0, n - 1))
    for column, change in mutants(trace, k, step, shift, bit):
        bad = dataclasses.replace(trace, **change)
        assert verify_trace(bad), f"{column} at slot {k}"


def audit_outcome(trace, tol):
    """What ``verify_trace`` gives: its list, or the type and text of the
    error it raises, as ``math.floor`` does on a nan packet count."""
    try:
        return verify_trace(trace, tol=tol)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def assert_audits_agree(trace, tol=1e-9):
    """The audit gives what it gives without its column pass, every slot
    replayed and every ledger row checked one at a time: the problems
    string for string, with chunks of a few slots and of the default
    size."""
    with mock.patch.object(engine, "_column_pass", lambda trace, tol: None):
        want = audit_outcome(trace, tol)
    for chunk in (5, engine._CHUNK):
        with mock.patch.object(engine, "_CHUNK", chunk):
            assert audit_outcome(trace, tol) == want, (chunk, tol)


# the single-cell steps of the audit test, one-ulp steps, and cells made
# nan or infinite
CELL_STEPS = (1, -1, F(1, 1000), F(-1, 1000), 1e-6, -1e-6, 5e-324, -5e-324,
              math.nan, math.inf, -math.inf)


@given(systems(kinds=("float", "int")), st.integers(0, 299),
       st.sampled_from(CELL_STEPS), st.data())
@settings(max_examples=30, deadline=None)
def test_the_column_pass_lists_what_the_per_slot_audit_lists(system, k, step,
                                                             data):
    params, kwargs = system
    trace = run(params, 300, **kwargs)
    assert engine._column_pass(trace, 1e-9) is not None
    # a re-read trace holds its packets as floats in whole-packet mode too
    reread = dataclasses.replace(trace, packets=array("d", trace.packets))
    for t in (trace, reread):
        for tol in (1e-9, 0):
            assert_audits_agree(t, tol)
    # the pass is off at a negative tol, where equal values fail
    assert engine._column_pass(trace, -1) is None
    assert_audits_agree(trace, -1)
    shift = data.draw(st.integers(1, trace.n_nodes - 1))
    bit = data.draw(st.integers(0, trace.n_nodes - 1))
    for _, change in mutants(trace, k, step, shift, bit):
        assert_audits_agree(dataclasses.replace(trace, **change))
    turns = [k for k in trace.slots if trace.switched[k]]
    if turns:
        k = data.draw(st.sampled_from(turns))
        for change in handover_mutants(trace, k, step):
            assert_audits_agree(dataclasses.replace(trace, **change))


@pytest.mark.parametrize("params", [
    three(es=True), three(es=True, ct=0.01, cr=0.02), three(),
    diamond(**README_POINT),
], ids=["es3", "es3-costs", "rr3", "readme-point"])
@pytest.mark.parametrize("step", [1, -1e-6, 5e-324, math.nan])
def test_the_column_pass_checks_handovers_as_the_per_slot_audit(params,
                                                                 step):
    # the first handovers of runs that hand over from each node, each one
    # changed in one cell, or in a lead and the post level that follows
    trace = run(params, 300)
    turns = [k for k in trace.slots if trace.switched[k]]
    assert len(turns) > 4
    for k in turns[:5]:
        for change in handover_mutants(trace, k, step):
            assert_audits_agree(dataclasses.replace(trace, **change))


def handover_mutants(trace, k, step):
    """Copies of ``trace`` with its handover slot ``k`` changed, as changes
    to ``dataclasses.replace``: another target; the target's lead the last
    float under the bar, and the first at or over it; each other
    candidate's lead the target's; the old forwarder's level the last
    float under the floor; the packets, and each post level, moved by
    ``step``.  A level changed before the exchange takes the post level
    the exchange gives it, so the post cells agree with it."""
    params = trace.params
    p = trace.active[k - 1] if k else trace.initial_active
    v = trace.active[k]
    bar = params.thresholds.threshold_from(p)
    for u in range(trace.n_nodes):
        if u != v:
            yield {"active": bump(trace.active, k, u)}
    pre, post = trace.battery_pre, trace.battery_post
    base = pre[p][k]
    under = base + bar
    while under - base >= bar:
        under = math.nextafter(under, -math.inf)
    over = math.nextafter(under, math.inf)
    while over - base < bar:
        over = math.nextafter(over, math.inf)
    levels = [(v, under), (v, over)] + [
        (u, pre[v][k]) for u in params.thresholds.candidates(p) if u != v]
    levels.append((p, math.nextafter(params.control_floor, -math.inf)))
    for u, level in levels:
        yield {"battery_pre": tuple(bump(col, k, level) if w == u else col
                                    for w, col in enumerate(pre)),
               "battery_post": tuple(
                   bump(col, k, level - params.status_energy
                        - params.switch_energy) if w == u else col
                   for w, col in enumerate(post))}
    yield {"packets": bump(trace.packets, k, trace.packets[k] + step)}
    for u in range(trace.n_nodes):
        yield {"battery_post": tuple(
            bump(col, k, col[k] + step) if w == u else col
            for w, col in enumerate(post))}


@given(profiled_systems(), st.integers(0, 10**6), st.data())
@settings(max_examples=20, deadline=None)
def test_the_column_pass_on_profiles_and_steered_runs(system, k, data):
    params, profile, n_slots, kwargs = system
    trace = run(params, n_slots, profile, **kwargs)
    swaps = data.draw(st.sets(st.integers(0, 40), max_size=3))
    steer, _ = recording_steer(params.input_rate, swaps)
    steered = run(params, n_slots, profile, steer=steer, **kwargs)
    # Fraction runs keep list columns and take the per-slot path
    floats = isinstance(trace.battery_pre[0], array)
    assert (engine._column_pass(trace, 1e-9) is None) is not floats
    assert_audits_agree(trace)
    assert_audits_agree(steered)
    step = data.draw(st.sampled_from(CELL_STEPS))
    for _, change in mutants(steered, k % n_slots, step, 1, 0):
        assert_audits_agree(dataclasses.replace(steered, **change))


@pytest.mark.parametrize("mode", ["whole", "fractional"])
@pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
def test_a_non_finite_level_is_listed_outside_its_bounds(mode, level):
    # whole-packet mode cannot floor the packet count of a nan forwarder
    # level; the audit lists the level instead of raising
    trace = run(diamond(), 50, packet_mode=mode)
    u = trace.active[9]
    pre = list(trace.battery_pre)
    pre[u] = bump(pre[u], 10, level)
    bad = dataclasses.replace(trace, battery_pre=tuple(pre))
    assert (f"slot 10: node {u + 1} level {level} outside [0, capacity]"
            in verify_trace(bad))
    assert_audits_agree(bad)


def test_the_audit_replays_only_what_the_column_pass_leaves(slot_calls):
    # long_trace's es3 config, and the README point with its status and
    # switch costs in both packet modes, without its claim: the pass clears
    # every slot, each handover included, so the per-slot replay takes none
    traces = [run(three(es=True), 5000, initial_batteries=(40.0, 60.0, 20.0))]
    traces += [dataclasses.replace(run(diamond(**README_POINT), 3000,
                                       packet_mode=mode), cycles=())
               for mode in ("fractional", "whole")]
    for trace in traces:
        slot_calls[0] = 0
        assert verify_trace(trace) == []
        assert slot_calls[0] == 0 < sum(trace.switched)


# ---------------------------------------------------------------------------
# the audit of a float trace takes each claimed stretch's copies once
# ---------------------------------------------------------------------------

def assert_claims_cost_the_audit_only_speed(trace):
    """``verify_trace`` lists what it lists without the trace's claims,
    with chunks of a few slots and of the default size."""
    for chunk in (5, engine._CHUNK):
        with mock.patch.object(engine, "_CHUNK", chunk):
            assert verify_trace(trace) == verify_trace(
                dataclasses.replace(trace, cycles=())), (chunk, trace.cycles)


def copied(trace):
    """The ``(a, b)`` slot ranges the audit leaves out of ``trace``."""
    return [r for ranges in engine._copied_slots(trace,
                                                 trace.input_segments())
            for r in ranges]


@st.composite
def claimed_float_traces(draw):
    """A float or int run that the audit takes in part: plain, on a profile
    of several segments, or steered, whose claims are of period 1."""
    how = draw(st.sampled_from(("plain", "profile", "steered")))
    if how == "plain":
        params, kwargs = draw(systems(kinds=("float", "int")))
        trace = run(params, draw(st.integers(200, 600)), **kwargs)
    else:
        params, profile, n_slots, kwargs = draw(profiled_systems().filter(
            lambda s: type(s[0].packet_energy) is not F))
        steer = (lambda *a: params.input_rate) if how == "steered" else None
        trace = run(params, n_slots, profile, steer=steer, **kwargs)
    assume(copied(trace))
    return trace


def forged_claims(trace, claim):
    """Claims beside ``claim`` that the audit must not take as they are:
    across the next segment boundary, with fields that are not ints or
    that lie out of range."""
    start, period, stop = claim
    ends = list(accumulate(k for _, _, k in trace.input_segments()))
    beyond = [end for end in ends if end > stop]
    forged = [(start, period, beyond[0])] if beyond else []
    return forged + [
        (float(start), period, stop), (start, period, True), [start, period,
                                                              stop],
        (start, period), (start, period, stop, 0), (-1, period, stop),
        (start, 0, stop), (start, period, len(trace) + 1),
        (stop, period, stop + period)]


@given(claimed_float_traces(), st.sampled_from(CELL_STEPS), st.data())
@settings(max_examples=40, deadline=None)
def test_the_short_audit_lists_what_the_full_audit_lists(trace, step, data):
    assert_claims_cost_the_audit_only_speed(trace)
    claim = data.draw(st.sampled_from(trace.cycles))
    start, period, stop = claim
    forged = dataclasses.replace(trace, cycles=(
        *trace.cycles, *forged_claims(trace, claim)))
    assert_claims_cost_the_audit_only_speed(forged)
    # one cell in the transient, in the first period, at its last slot, in
    # the copies, at the stretch's last slot and just after it; the trace
    # keeps its claims, which some of these changes make stale
    places = [start + period - 1, stop - 1, stop]
    if start:
        places.append(data.draw(st.integers(0, start - 1)))
    places.append(data.draw(st.integers(start, start + period - 1)))
    if start + period < stop:
        places.append(data.draw(st.integers(start + period, stop - 1)))
    k = data.draw(st.sampled_from([k for k in places if k < len(trace)]))
    shift = data.draw(st.integers(1, trace.n_nodes - 1))
    bit = data.draw(st.integers(0, trace.n_nodes - 1))
    for _, change in mutants(trace, k, step, shift, bit):
        assert_claims_cost_the_audit_only_speed(
            dataclasses.replace(trace, **change))
    # the forwarder entering the stretch changed, so the claim holds but
    # its first period is not entered as its copies are
    if start:
        other = (trace.active[start - 1] + shift) % trace.n_nodes
        bad = dataclasses.replace(trace, active=bump(trace.active, start - 1,
                                                     other))
    else:
        bad = dataclasses.replace(trace, initial_active=(
            trace.initial_active + shift) % trace.n_nodes)
    assert engine._claim_holds(bad, claim)
    assert_claims_cost_the_audit_only_speed(bad)


def test_the_audit_leaves_out_only_claims_it_can_confirm():
    # two segments of the same inputs: the run tiles each, and a claim over
    # both holds bit for bit but spans a boundary
    params = diamond(**README_POINT)
    rates = params.harvest_rates, params.input_rate
    trace = run(params, profile=Profile([(*rates, 4000), (*rates, 4000)]))
    (a, period, end), (b, _, stop) = trace.cycles
    assert (end, stop) == (4000, 8000)
    assert copied(trace) == [(a + period, end - 1), (b + period, stop - 1)]
    across = (a, period, stop)
    assert engine._claim_holds(trace, across)
    spanning = dataclasses.replace(trace, cycles=(across,))
    assert copied(spanning) == []
    assert verify_trace(spanning) == []
    # a claim holds, but the forwarder entering its first period is not
    # the one entering its first copy
    shifted = dataclasses.replace(trace, active=bump(
        trace.active, a - 1, 1 - trace.active[a - 1]))
    assert engine._claim_holds(shifted, trace.cycles[0])
    assert copied(shifted) == [(b + period, stop - 1)]
    for claim in forged_claims(trace, trace.cycles[0]):
        assert copied(dataclasses.replace(trace, cycles=(claim,))) == []
    # a claim made stale by a changed cell, in a copy or in the first
    # period
    for k in (a + 2 * period, a):
        stale = dataclasses.replace(trace, packets=bump(
            trace.packets, k, trace.packets[k] + 1))
        assert copied(stale) == [(b + period, stop - 1)]
        assert verify_trace(stale) == verify_trace(
            dataclasses.replace(stale, cycles=()))
        assert f"slot {k}: packets" in verify_trace(stale)[0]


def test_the_audit_takes_each_copied_stretch_once():
    trace = run(diamond(**README_POINT), 50_000)
    (start, period, stop), = trace.cycles
    taken = [0]
    column_pass = engine._column_pass

    def counted(trace, tol):
        audit = column_pass(trace, tol)

        def counting(i, j, e, g):
            taken[0] += j - i
            return audit(i, j, e, g)
        return counting

    with mock.patch.object(engine, "_column_pass", counted):
        assert verify_trace(trace) == []
    assert start + period < taken[0] <= start + period + engine._CHUNK
    # a problem the short audit finds, where the claim still holds, sends
    # every slot through the full one
    taken[0] = 0
    bad = dataclasses.replace(trace, battery_post=(
        bump(trace.battery_post[0], 10, 0.0), trace.battery_post[1]))
    with mock.patch.object(engine, "_column_pass", counted):
        problems = verify_trace(bad)
    assert engine._claim_holds(bad, trace.cycles[0])
    assert problems == ["slot 10: node 1 post-exchange level mismatch"]
    assert taken[0] == start + period + 1 + len(trace)


@given(systems(kinds=("float", "int")), st.integers(0, 399),
       st.sampled_from((1, -1, F(1, 1000), F(-1, 1000), 1e-6, -1e-6)),
       st.data())
@settings(max_examples=30, deadline=None)
def test_the_short_audit_catches_every_single_cell_change(system, k, step,
                                                          data):
    params, kwargs = system
    trace = run(params, 400, **kwargs)
    # the run tiles within its length, so the audit leaves copies out
    assume(copied(trace) and verify_trace(trace) == [])
    n = trace.n_nodes
    shift = data.draw(st.integers(1, n - 1))
    bit = data.draw(st.integers(0, n - 1))
    for column, change in mutants(trace, k, step, shift, bit):
        bad = dataclasses.replace(trace, **change)
        assert verify_trace(bad), f"{column} at slot {k}"
