"""The slot rule written a second time, from the model alone.

``model_slot`` states one slot of the model as the README and the
``engine._slot_rule`` docstring give it, with none of the rule's
shortcuts, and turns every input into a ``Fraction``, so each of its
comparisons is exact.  It is one slot, not a run loop: ``run`` and
``verify_trace`` both build their slots from ``engine._slot_rule``, so a
wrong rule that still conserves energy passes the audit, and this is the
check that does not share the rule's code.

The property test draws arbitrary states, not only reachable ones, and
weights the knife edges: a lead exactly at its bar, a forwarder exactly
at the floor, a load whose energy equals the forwarder's harvest, levels
at the cap and zero harvest.  It compares values only; the types are the
type goldens' job.
"""

import dataclasses
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from hdrsim import engine

from conftest import diamond, three
from test_limit_cycle import systems


def model_slot(params, whole, pre, v, e, g):
    """One slot of the model: ``(post, nxt, active, switched, packets,
    quiet)`` for the levels ``pre`` entering it, the forwarder ``v``, the
    harvest rates ``e`` and the offered load ``g``, all as Fractions.

    The handover comes first, decided on the levels entering the slot: a
    candidate qualifies when its lead over the forwarder reaches the
    forwarder's threshold.  Under ``rr`` the only candidate is the
    successor ``(v + 1) % n``, under ``es`` every idle node, and the
    largest lead wins, ties going to the lower index.  Then every node
    pays its status message, but a forwarder below the control floor
    (status plus switch cost) stays quiet and pays nothing, and on a
    handover every node pays the switch cost.  Every node harvests.  A new
    forwarder carries the whole load (``floor(g)`` packets in whole-packet
    mode) and pays for it.  An old forwarder left below the floor carries
    nothing.  Otherwise it carries the load in full while it can: for the
    share of the slot its energy above the floor pays for the load beyond
    its harvest, and what its harvest pays for in the rest.  In
    whole-packet mode it carries the whole packets of that and pays for
    them; otherwise its level falls by the load's energy but not below the
    floor.  Last, no level stays above the capacity."""
    n = params.n_nodes
    pre, e, g = [F(x) for x in pre], [F(x) for x in e], F(g)
    c = F(params.packet_energy)
    status, switch = F(params.status_energy), F(params.switch_energy)
    floor = status + switch
    cap = F(params.battery_capacity)

    bar = F(params.thresholds.values[v])
    if params.thresholds.rule == "rr":
        candidates = [(v + 1) % n]
    else:
        candidates = [u for u in range(n) if u != v]
    leads = [(pre[u] - pre[v], -u) for u in candidates
             if pre[u] - pre[v] >= bar]
    switched = bool(leads)

    quiet = pre[v] < floor
    post = [x if u == v and quiet else x - status for u, x in enumerate(pre)]
    if switched:
        post = [x - switch for x in post]
        v = -max(leads)[1]
    nxt = [x + h for x, h in zip(post, e)]

    demand = c * g
    if switched:
        packets = F(math.floor(g)) if whole else g
        nxt[v] -= c * packets
    elif post[v] < floor:
        packets = F(0)
    else:
        if demand <= e[v]:
            share = F(1)
        else:
            share = min(max((post[v] - floor) / (demand - e[v]), F(0)), F(1))
        packets = share * g + (1 - share) * e[v] / c
        if whole:
            packets = F(math.floor(packets))
            nxt[v] -= c * packets
        else:
            nxt[v] = max(nxt[v] - demand, floor)
    return post, [min(x, cap) for x in nxt], v, switched, packets, quiet


def assert_slot_is_the_model(params, whole, pre, v, e, g):
    post, nxt, w, switched, packets, quiet = engine._slot_rule(
        params, whole)(pre, v, e, g)
    want = model_slot(params, whole, pre, v, e, g)
    if type(params.packet_energy) is int and packets != want[4]:
        # a duty slot of ints divides in floats (``spare / gap`` and
        # ``ev / c``), so its packets are the model's up to rounding; a
        # whole count can come out one lower where the model's is a whole
        # number (test_int_inputs_floor_a_rounded_share), and the
        # forwarder then pays for one packet less
        if whole:
            assert packets == want[4] - 1
            want[1][w] = min(want[0][w] + F(e[w]) - params.packet_energy
                             * packets, F(params.battery_capacity))
        else:
            assert math.isclose(packets, want[4], rel_tol=1e-12,
                                abs_tol=1e-12)
        want = (*want[:4], packets, want[5])
    assert (list(post), nxt, w, switched, packets, quiet) == want


@st.composite
def slots(draw):
    """A system of ints or Fractions from ``systems``, a packet mode, and
    the inputs of one slot: arbitrary levels from below empty to above the
    cap, the forwarder, harvest rates and a load, with the knife edges of
    the slot rule drawn often."""
    params, kwargs = draw(systems(kinds=("fraction", "int")))
    num = type(params.packet_energy)        # int or Fraction
    den = 1 if num is int else draw(st.sampled_from((4, 10, 16)))

    def units(lo, hi):
        return num(F(draw(st.integers(lo, hi)), den))

    if draw(st.booleans()):
        # control costs of up to one unit each, so the floor is often
        # above zero
        params = dataclasses.replace(params, status_energy=units(0, den),
                                     switch_energy=units(0, den))
    n = params.n_nodes
    cap, status = params.battery_capacity, params.status_energy
    floor = params.control_floor

    def pick(*values):
        return values[draw(st.integers(0, len(values) - 1))]

    def level(*edges):
        if draw(st.booleans()):
            return pick(0, floor, floor + status, cap, *edges)
        return units(-2 * den, (cap + 2) * den)

    v = draw(st.integers(0, n - 1))
    idle = [u for u in range(n) if u != v]
    step = num(F(1, den))
    bar = params.thresholds.values[v]
    # the forwarder at the floor once its status is paid, or a step above
    # it, in partial duty; the others with a lead exactly at the bar, a
    # step short of it, or anywhere
    pre = [None] * n
    pre[v] = level(floor + status + step)
    for u in idle:
        pre[u] = level(pre[v] + bar, pre[v] + bar - step)
    if len(idle) == 2 and draw(st.booleans()):
        pre[idle[1]] = pre[idle[0]]         # equal leads, tied under es
    e = [pick(0, units(0, 3 * den), units(0, 3 * den)) for _ in range(n)]
    # the forwarder's harvest pays the whole load exactly, no load, or a
    # load with half a packet (a whole one for ints)
    g = pick(params.input_rate, num(F(e[v]) / F(params.packet_energy)), 0,
             units(0, 40 * den), num(F(draw(st.integers(0, 40)) * 2 + 1, 2)))
    return params, kwargs["packet_mode"] == "whole", pre, v, e, g


@given(slots())
@settings(max_examples=250, deadline=None)
def test_the_slot_rule_is_the_model(slot):
    assert_slot_is_the_model(*slot)


@pytest.mark.parametrize("params, whole, pre, v, e, g, want", [
    # es: nodes 2 and 3 both lead node 1 by 4 > 3; the tie goes to node 2,
    # and everyone pays status and switch: 1 - 0.25 - 0.5 + 1
    (three(e=(1, 1, 1), g=2, c=1, h=(3, 3, 3), ct=F(1, 4), cr=F(1, 2),
           es=True), False, (1, 5, 5), 0, (1, 1, 1), 2,
     ([F(1, 4), F(17, 4), F(17, 4)], [F(5, 4), F(13, 4), F(21, 4)], 1,
      True, 2, False)),
    # a forwarder below the floor stays quiet, carries nothing and
    # harvests
    (diamond(e=(F(1, 2), 1), g=3, c=1, h=(9, 9), ct=F(1, 4), cr=F(1, 2)),
     False, (F(1, 2), 2), 0, (F(1, 2), 1), 3,
     ([F(1, 2), F(7, 4)], [1, F(11, 4)], 0, False, 0, True)),
    # partial duty: 1 above the floor pays a ninth of the slot at full
    # load, the harvest pays the rest, and the level lands on the floor
    (diamond(e=(7, 7), g=16, c=1, h=(20, 20)), False, (1, 5), 0, (7, 7),
     16, ([1, 5], [0, 12], 0, False, 8, False)),
    # the same slot in whole packets: 8 of them, which pay 8 mJ
    (diamond(e=(7, 7), g=16, c=1, h=(20, 20)), True, (1, 5), 0, (7, 7),
     16, ([1, 5], [0, 12], 0, False, 8, False)),
], ids=["es-tie-to-the-lower-index", "quiet-below-the-floor",
        "partial-duty-to-the-floor", "partial-duty-whole-packets"])
def test_the_model_by_hand(params, whole, pre, v, e, g, want):
    assert model_slot(params, whole, pre, v, e, g) == want
    assert_slot_is_the_model(params, whole, pre, v, e, g)


@pytest.mark.xfail(strict=True, reason=(
    "ints divide in floats: the share 1/9 makes 16/9 + 8/9 * 7, which is "
    "8 packets exactly, but 7.999999999999999 in floats, so the forwarder "
    "carries 7 whole packets and a run from these levels never drains it"))
def test_int_inputs_floor_a_rounded_share():
    params = diamond(e=(7, 7), g=16, c=1, h=(20, 20))
    got = engine._slot_rule(params, True)([1, 5], 0, (7, 7), 16)
    assert got[4] == model_slot(params, True, (1, 5), 0, (7, 7), 16)[4] == 8
