"""The limit-cycle shortcut of ``run``: a run with constant inputs stops
simulating once a state entered right after a handover comes back, and
repeats the slots in between.

The reference is the same run through ``constant_profile``, which keeps the
per-slot path.  Every column must come out with the same repr, and float
columns with the same bytes, so a level that differs only in type (``5``
against ``Fraction(5)``) or in the sign of a zero shows.

A tiled run records its cycle on the trace.  The readers of that claim,
``write_trace_csv`` and ``summarize``, must give what they give without
it, and a claim that does not hold must cost them only speed.  The audit
these shortcuts rest on must catch a change to any one cell.
"""

import dataclasses
import gc
import math
import tracemalloc
from array import array
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from hdrsim import (
    EarliestSwitch3,
    Hysteresis2,
    RoundRobin3,
    SystemParams,
    Trace,
    detect_cycles,
    engine,
    read_trace_csv,
    run,
    summarize,
    verify_trace,
    write_trace_csv,
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
    assert trace.cycle is not None
    assert engine._cycle_holds(trace)
    return trace


def csv_bytes(trace, tmp_path, name="trace.csv"):
    path = tmp_path / name
    write_trace_csv(trace, path)
    return path.read_bytes()


def bump(column, k, value):
    """A copy of ``column`` with entry ``k`` set to ``value``."""
    column = column[:]
    column[k] = value
    return column


def test_run_records_the_cycle_it_tiles(claimed):
    start, period = claimed.cycle
    assert 0 <= start and period >= 1 and start + period <= len(claimed)
    # the per-slot run takes every slot and makes no claim; the traces are
    # equal all the same once the profile that steers it is dropped
    per_slot = run(claimed.params, len(claimed),
                   profile=constant_profile(claimed.params, len(claimed)),
                   packet_mode=claimed.packet_mode,
                   initial_batteries=tuple(c[0] for c in
                                           claimed.battery_pre))
    assert per_slot.cycle is None
    assert dataclasses.replace(per_slot, profile=None) == claimed


def test_runs_that_do_not_tile_make_no_claim():
    params = diamond(**README_POINT)
    assert run(params, 2000).cycle is None           # still in transit
    assert run(params, 2000, profile=constant_profile(params, 2000)).cycle \
        is None


def test_claims_cost_the_writer_only_speed(claimed, tmp_path):
    honest = csv_bytes(dataclasses.replace(claimed, cycle=None), tmp_path)
    assert csv_bytes(claimed, tmp_path) == honest
    start, period = claimed.cycle
    size = len(claimed)
    # a stale claim: one cell past the first period changed, the claim kept
    packets = bump(claimed.packets, size - 3, claimed.packets[size - 3] + 1)
    stale = dataclasses.replace(claimed, packets=packets)
    assert stale.cycle == claimed.cycle and not engine._cycle_holds(stale)
    assert csv_bytes(stale, tmp_path) == csv_bytes(
        dataclasses.replace(stale, cycle=None), tmp_path, "plain.csv")
    assert csv_bytes(stale, tmp_path) != honest
    # bogus claims
    for claim in ((start, 0), (-1, period), (start, size), (size, 1),
                  (size - period + 1, period), (start, -period),
                  (float(start), period)):
        bogus = dataclasses.replace(claimed, cycle=claim)
        assert not engine._cycle_holds(bogus), claim
        assert csv_bytes(bogus, tmp_path) == honest, claim
    # a true claim other than the run's: a later start, two periods
    for claim in ((start + 5, period), (start, 2 * period)):
        other = dataclasses.replace(claimed, cycle=claim)
        assert engine._cycle_holds(other), claim
        assert csv_bytes(other, tmp_path) == honest, claim


def test_a_stale_claim_fails_in_every_column(claimed):
    for column, change in mutants(claimed, len(claimed) - 1, 1, 1, 0):
        stale = dataclasses.replace(claimed, **change)
        assert not engine._cycle_holds(stale), column
    # a column shorter than the trace
    short = dataclasses.replace(claimed, packets=claimed.packets[:-1])
    assert not engine._cycle_holds(short)


def test_a_claim_tells_equal_values_apart_by_bits_and_type(tmp_path):
    # a float column: -0.0 == 0.0, but the file prints them differently
    levels = array("d", [1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    flags = array("B", [0] * 6)
    trace = Trace(n_nodes=1, slots=range(6), battery_pre=(levels,),
                  battery_post=(levels,), active=flags, switched=flags,
                  packets=levels, suppressed=flags, cycle=(0, 2))
    assert engine._cycle_holds(trace)
    signed = dataclasses.replace(trace, packets=bump(levels, 5, -0.0))
    assert not engine._cycle_holds(signed)
    assert csv_bytes(signed, tmp_path).endswith(b"\r\n5,1,0,-0,0,0,0\r\n")
    # a list column: 5 == Fraction(5), but they compute differently
    values = [F(5), F(1, 2)] * 3
    listed = dataclasses.replace(trace, packets=values)
    assert engine._cycle_holds(listed)
    assert engine._cycle_holds(
        dataclasses.replace(trace, packets=bump(values, 4, F(10, 2))))
    assert not engine._cycle_holds(
        dataclasses.replace(trace, packets=bump(values, 4, 5)))


def test_a_claimed_tail_writes_its_own_slot_numbers(tmp_path):
    # a re-read trace starting at slot 40 with a hand-made claim
    params = diamond(**README_POINT)
    trace = run(params, 6000)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_bytes().splitlines(keepends=True)
    (tmp_path / "tail.csv").write_bytes(b"".join(lines[:1] + lines[41:]))
    back = read_trace_csv(tmp_path / "tail.csv")
    assert back.cycle is None and back.slots[0] == 40
    start, period = trace.cycle
    claimed = dataclasses.replace(back, cycle=(start - 40, period))
    assert engine._cycle_holds(claimed)
    assert csv_bytes(claimed, tmp_path, "again.csv") == \
        (tmp_path / "tail.csv").read_bytes()


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
