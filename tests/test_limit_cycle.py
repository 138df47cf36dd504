"""The limit-cycle shortcut of ``run``: a run with constant inputs stops
simulating once a state entered right after a handover comes back, and
repeats the slots in between.

The reference is the same run through ``constant_profile``, which keeps the
per-slot path.  Every column must come out with the same repr, and float
columns with the same bytes, so a level that differs only in type (``5``
against ``Fraction(5)``) or in the sign of a zero shows.
"""

import gc
import math
import tracemalloc
from array import array
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from hdrsim import (
    EarliestSwitch3,
    Hysteresis2,
    RoundRobin3,
    SystemParams,
    engine,
    run,
    verify_trace,
)
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


def assert_tiling_is_exact(params, n_slots, **kwargs):
    """Run ``params`` with and without the shortcut and compare."""
    tiled = run(params, n_slots, **kwargs)
    per_slot = run(params, n_slots, profile=constant_profile(params, n_slots),
                   **kwargs)
    assert columns(tiled) == columns(per_slot)
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
def systems(draw):
    """A diamond or three-relay system of one number type, a start and a
    packet mode.  Every node harvests more than its control messages cost
    and less than a full slot of forwarding, so the role keeps moving.
    Small capacities, control costs and partial slots give cap, floor and
    partial-duty orbits."""
    kind = draw(st.sampled_from(sorted(NUMBERS)))
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
    assert_tiling_is_exact(params, 500, **kwargs)


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
