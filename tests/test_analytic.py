"""Closed-form results: cycle structure, regime table, sustainable rate."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from hdrsim import (
    CycleStepState,
    Hysteresis2,
    analytic,
    away_cycle_diamond,
    away_cycle_three,
    classify_regime_diamond,
    cycle_step,
    feedback_input_rate,
    steady_input_rate,
    three_node_away_solution,
)
from conftest import diamond, three


# ---------------------------------------------------------------------------
# away-from-boundary cycles
# ---------------------------------------------------------------------------

def test_away_cycle_diamond_phase_lengths():
    # gap swings across the combined threshold at the two drain rates
    s = away_cycle_diamond(diamond(e=(F(4, 5), F(3, 5)), g=F(35, 2),
                                   c=F(2, 25), h=(F(5), F(5))))
    assert s.active_slots == (F(25, 3), F(25, 4))  # 10/1.2 and 10/1.6
    assert s.cycle_length == F(25, 3) + F(25, 4)
    assert s.throughput == F(35, 2)
    assert s.drift == 0  # balanced harvest, no control cost


def test_away_cycle_diamond_rejects_dominating_harvest():
    with pytest.raises(ValueError):
        away_cycle_diamond(diamond(e=(2.0, 0.1), g=17.5))


def test_away_cycle_three_closed_form():
    s = away_cycle_three(three(g=20.0))
    assert s.active_slots == pytest.approx(
        (1.76056338, 12.32394366, 14.08450704))
    assert s.cycle_length == pytest.approx(28.16901408)
    assert s.throughput == 20.0
    assert s.drift == 0


def test_away_cycle_three_rejects_degenerate_spread():
    # spread equal to the squared load energy puts the cycle length at a pole
    with pytest.raises(ValueError):
        away_cycle_three(three(e=(0.0, 0.0, 1.0), g=12.5))


def test_linear_solution_matches_closed_form_exactly():
    params = three(e=(F(1, 10), F(7, 10), F(4, 5)), g=F(20), c=F(2, 25),
                   h=(F(5), F(10), F(10)), ct=F(1, 100), cr=F(1, 20),
                   cap=F(100))
    slots, drift, batteries = three_node_away_solution(params, F(50))
    closed = away_cycle_three(params)
    assert tuple(slots) == tuple(closed.active_slots)
    assert drift == closed.drift
    assert batteries[0] == F(50)


def test_linear_solution_anchor_only_shifts_levels():
    params = three(g=20.0, ct=0.01, cr=0.05)
    s1, d1, b1 = three_node_away_solution(params, 40.0)
    s2, d2, b2 = three_node_away_solution(params, 70.0)
    assert s1 == pytest.approx(s2)
    assert d1 == pytest.approx(d2)
    assert [x + 30.0 for x in b1] == pytest.approx(list(b2))


# ---------------------------------------------------------------------------
# sustainable input rate
# ---------------------------------------------------------------------------

def test_steady_rate_collapses_without_switch_cost():
    assert steady_input_rate(diamond(ct=0, cr=0)) == (0.8 + 0.6) / 0.08
    assert steady_input_rate(three(ct=0, cr=0)) == (0.1 + 0.7 + 0.8) / 0.08
    # status cost alone shifts the numerator, no quadratic involved
    assert steady_input_rate(diamond(ct=0.01)) == pytest.approx(1.38 / 0.08)


def test_steady_rate_reference_point():
    params = diamond(h=(6.2, 5.0), ct=0.01, cr=0.05)
    assert steady_input_rate(params) == pytest.approx(17.1006, abs=5e-4)


@pytest.mark.parametrize("params", [
    diamond(h=(6.2, 5.0), ct=0.01, cr=0.05),
    diamond(e=(0.9, 0.2), g=12.0, h=(3.0, 7.0), ct=0.02, cr=0.1),
    three(ct=0.01, cr=0.05),
    three(e=(0.3, 0.5, 0.6), h=(4.0, 4.0, 4.0), ct=0.0, cr=0.2),
])
def test_steady_rate_zeroes_the_cycle_drift(params):
    g = steady_input_rate(params)
    tuned = params.with_input_rate(g)
    if params.n_nodes == 2:
        drift = away_cycle_diamond(tuned).drift
    else:
        drift = away_cycle_three(tuned).drift
    assert abs(drift) < 1e-12


def test_feedback_rate_reference_point():
    params = diamond(h=(6.2, 5.0), ct=0.01, cr=0.05)
    assert feedback_input_rate(18.72, params) == pytest.approx(17.11645299)


def test_feedback_rate_agrees_with_quadratic_at_its_own_cycle():
    # feeding the analytic cycle length back must reproduce the closed form
    params = diamond(h=(6.2, 5.0), ct=0.01, cr=0.05)
    g = steady_input_rate(params)
    length = away_cycle_diamond(params.with_input_rate(g)).cycle_length
    assert feedback_input_rate(length, params) == pytest.approx(g, rel=1e-12)


def test_feedback_rate_rejects_bad_inputs():
    params = diamond(ct=0.01, cr=0.05)
    with pytest.raises(ValueError):
        feedback_input_rate(0.0, params)
    with pytest.raises(ValueError):
        feedback_input_rate(-3.0, params)
    with pytest.raises(ValueError):
        # harvest cannot even cover the status traffic
        feedback_input_rate(20.0, diamond(e=(0.01, 0.01), ct=0.05, cr=0.05))


# ---------------------------------------------------------------------------
# boundary-pinned regimes
# ---------------------------------------------------------------------------

def _classify(e1, e2, g, h1, h2):
    return classify_regime_diamond(
        diamond(e=(e1, e2), g=g, c=F(2, 25), h=(h1, h2), cap=F(100)))


def test_balanced_regime_integral_phases():
    s = _classify(F(4, 5), F(3, 5), F(35, 2), F(12, 5), F(12, 5))
    assert s.regime == "balanced"
    assert s.active_slots == (F(4), F(3))
    assert s.cycle_length == 7
    assert s.throughput == F(35, 2)


def test_deficit_regimes_by_threshold_ratio():
    # e=(0.8, 0.6), cg=1.6: the ratio bounds are 3/4 and 5/4
    cases = [
        (F(1, 2), "down_a"), (F(3, 4), "down_a"),
        (F(1), "down_c"),
        (F(5, 4), "down_b"), (F(2), "down_b"),
    ]
    for ratio, want in cases:
        s = _classify(F(4, 5), F(3, 5), F(20), ratio * F(4), F(4))
        assert s.regime == want, (ratio, s.regime)
        # deficit throughput is harvest-limited, independent of the offer
        assert s.throughput == F(35, 2)
        assert s.drift == 0


def test_surplus_regimes_by_threshold_ratio():
    # e=(0.8, 0.6), cg=1.2: bounds are 2/3 and 4/3
    cases = [
        (F(1, 3), "up_b"), (F(2, 3), "up_b"),
        (F(1), "up_c"),
        (F(4, 3), "up_a"), (F(2), "up_a"),
    ]
    for ratio, want in cases:
        s = _classify(F(4, 5), F(3, 5), F(15), ratio * F(4), F(4))
        assert s.regime == want, (ratio, s.regime)
        # surplus delivers the full offer
        assert s.throughput == F(15)
        assert s.cycle_packets == (F(15) * s.active_slots[0],
                                   F(15) * s.active_slots[1])


def test_deficit_boundary_is_continuous():
    # at ratio = e2/(cg - e1) the single-sided and two-sided formulas agree
    lo = _classify(F(4, 5), F(3, 5), F(20), F(3), F(4))
    assert lo.regime == "down_a"
    assert lo.active_slots == (F(3) / F(3, 5), F(4) / F(4, 5))  # h1/e2, h2/e1


def test_up_c_phase_lengths():
    s = _classify(F(4, 5), F(3, 5), F(15), F(5), F(5))
    assert s.active_slots == (F(5) / F(2, 5), F(5) / F(3, 5))
    assert s.split[0] / s.split[1] == F(25, 2) / F(25, 3)


def test_classifier_rejects_unsupported_inputs():
    with pytest.raises(ValueError):
        classify_regime_diamond(diamond(ct=0.01))
    with pytest.raises(ValueError):
        classify_regime_diamond(diamond(e=(2.0, 0.6), g=17.5))
    with pytest.raises(ValueError):
        classify_regime_diamond(three())


small = st.fractions(min_value=F(1, 10), max_value=F(1), max_denominator=20)
loads = st.fractions(min_value=F(2), max_value=F(30), max_denominator=8)
bars = st.fractions(min_value=F(1, 2), max_value=F(20), max_denominator=10)


@given(e1=small, e2=small, g=loads, h1=bars, h2=bars)
@settings(max_examples=80, deadline=None)
def test_classifier_is_total_and_consistent(e1, e2, g, h1, h2):
    cg = F(2, 25) * g
    if cg <= e1 or cg <= e2:
        return
    s = _classify(e1, e2, g, h1, h2)
    assert s.regime in ("balanced", "down_a", "down_b", "down_c",
                        "up_a", "up_b", "up_c")
    assert all(x > 0 for x in s.active_slots)
    assert s.cycle_length == sum(s.active_slots)
    assert all(p >= 0 for p in s.cycle_packets)
    assert sum(s.split) == 1
    if e1 + e2 < cg:
        assert s.regime.startswith("down")
        assert s.throughput == (e1 + e2) / F(2, 25)
    elif e1 + e2 > cg:
        assert s.regime.startswith("up")
        assert s.throughput == g


# ---------------------------------------------------------------------------
# cycle stepper
# ---------------------------------------------------------------------------

def _stepper_params(cap=F(100), h=(F(3), F(3))):
    return diamond(e=(F(1, 2), F(1, 4)), g=F(8), c=F(1, 8), h=h, cap=cap)


def test_stepper_away_branch():
    # node 1 just took over, so it leads by node 2's threshold
    state, stats = cycle_step(
        CycleStepState(batteries=(F(13), F(10)), active=0), _stepper_params())
    assert state.batteries == (F(9), F(12))
    assert state.active == 1
    assert stats.length == 8           # combined threshold 6 over gap rate 3/4
    assert stats.packets == (F(64), 0)
    assert stats.drift == (F(-4), F(2))


def test_stepper_ceiling_branch():
    # idle node parks at the cap; the gap then opens only by the drain
    state, stats = cycle_step(
        CycleStepState(batteries=(F(13), F(10)), active=0),
        _stepper_params(cap=F(11)))
    assert state.batteries == (F(8), F(11))
    assert stats.length == 10
    assert stats.packets == (F(80), 0)


def test_stepper_floor_branch():
    # active node empties and trickles at its harvest-sustained rate
    state, stats = cycle_step(
        CycleStepState(batteries=(F(3), F(0)), active=0), _stepper_params())
    assert state.batteries == (0, F(3))
    assert stats.length == 12
    assert stats.packets == (F(72), 0)  # 6 slots at 8/slot, then 6 at 4


def test_stepper_requires_draining_load():
    with pytest.raises(ValueError):
        cycle_step(
            CycleStepState(batteries=(F(20), F(10)), active=0),
            diamond(e=(F(1, 2), F(1, 4)), g=F(2), c=F(1, 8)))
    with pytest.raises(ValueError):
        cycle_step(
            CycleStepState(batteries=(F(20), F(10)), active=0),
            diamond(ct=0.01))


def test_stepper_old_names_are_the_stepper():
    assert analytic.cycle_step_diamond is cycle_step
    assert analytic.cycle_step_three is cycle_step
    assert {"cycle_step", "cycle_step_diamond",
            "cycle_step_three"} <= set(analytic.__all__)


def test_stepper_refuses_earliest_switch():
    params = three(e=(F(1, 4), F(1, 4), F(3, 4)), g=F(8), c=F(1, 8),
                   h=(F(10), F(5), F(5)), cap=F(40), es=True)
    with pytest.raises(ValueError, match="earliest-switch"):
        cycle_step(CycleStepState(batteries=(F(38), F(30), F(2)), active=1),
                   params)


@pytest.mark.parametrize("params, batteries, active", [
    (diamond(e=(F(1, 2), 0), g=F(8), c=F(1, 8), h=(F(3), F(3))),
     (F(13), F(10)), 0),
    (three(e=(0.25, 0.25, 0.0), g=8.0, c=0.125), (20.0, 10.0, 5.0), 1)])
def test_stepper_refuses_a_successor_that_harvests_nothing(params, batteries,
                                                           active):
    with pytest.raises(ValueError, match="harvests nothing"):
        cycle_step(CycleStepState(batteries=batteries, active=active), params)


def _old_diamond_step(state, params):
    """The two-relay stepper as it was before the round-robin one replaced
    it: the entry gap is taken to be the threshold that fired."""
    cg = params.slot_data_energy
    v = state.active
    x = 1 - v
    ev = params.harvest_rates[v]
    ex = params.harvest_rates[x]
    bv, bx = state.batteries[v], state.batteries[x]
    cap = params.battery_capacity
    g = params.input_rate
    h = params.thresholds.total
    away = h / (cg + ex - ev)
    if (cap - bx) / ex < away:
        slots = (h - (cap - bx)) / (cg - ev)
        new_v = bv - slots * (cg - ev)
        new_x = cap
        packets = slots * g
    elif bv / (cg - ev) < away:
        drained = bv / (cg - ev)
        slots = (h - bv) / ex
        new_v = 0
        new_x = bx + slots * ex
        packets = drained * g + (slots - drained) * ev / params.packet_energy
    else:
        slots = away
        new_v = bv - slots * (cg - ev)
        new_x = bx + slots * ex
        packets = slots * g
    levels = [None, None]
    levels[v], levels[x] = new_v, new_x
    return tuple(levels), slots, packets


_eighths = st.integers(1, 16).map(lambda k: F(k, 8))


@settings(max_examples=200, deadline=None)
@given(e1=_eighths, e2=_eighths, c=_eighths, g=st.integers(1, 8),
       h1=st.integers(1, 20), h2=st.integers(1, 20), cap=st.integers(1, 40),
       active=st.integers(0, 1), headroom=st.integers(0, 20))
def test_stepper_matches_the_old_diamond_stepper(e1, e2, c, g, h1, h2, cap,
                                                 active, headroom):
    # on every state a handover can leave (the new active node leads by the
    # threshold that fired, both levels inside [0, cap]) the round-robin
    # stepper gives what the two-relay one gave, in value and in type
    params = diamond(e=(e1, e2), g=F(g), c=c, h=(F(h1), F(h2)), cap=F(cap))
    cg = params.slot_data_energy
    fired = params.thresholds.threshold_from(1 - active)
    bv = F(cap - headroom)
    bx = bv - fired
    assume(cg > params.harvest_rates[active] and bx >= 0)
    levels = [None, None]
    levels[active], levels[1 - active] = bv, bx
    state = CycleStepState(batteries=tuple(levels), active=active)
    new, stats = cycle_step(state, params)
    want, slots, packets = _old_diamond_step(state, params)
    got = (new.batteries, stats.length, stats.packets[active])
    assert got == (want, slots, packets)
    assert list(map(type, got[0])) == list(map(type, want))
    assert (type(got[1]), type(got[2])) == (type(slots), type(packets))
    assert new.active == 1 - active


def _three_stepper_params():
    return three(e=(F(1, 4), F(1, 4), F(3, 4)), g=F(8), c=F(1, 8),
                 h=(F(10), F(5), F(5)), cap=F(40))


def test_three_stepper_immediate_handover():
    # successor already leads by more than the bar: zero-length phase
    state, stats = cycle_step(
        CycleStepState(batteries=(F(5), F(20), F(30)), active=0),
        _three_stepper_params())
    assert state.active == 1
    assert state.batteries == (F(5), F(20), F(30))
    assert stats.length == 0
    assert stats.packets == (0, 0, 0)


def test_three_stepper_clips_the_bystander():
    state, stats = cycle_step(
        CycleStepState(batteries=(F(38), F(30), F(2)), active=1),
        _three_stepper_params())
    assert stats.length == 22
    assert state.batteries == (F(40), F(27, 2), F(37, 2))  # node 1 hit the cap
    assert state.active == 2
    assert stats.packets == (0, F(176), 0)


def test_three_stepper_fixed_point_matches_closed_form():
    # the rotation map preserves battery differences, so the analytic cycle
    # is a neutral fixed point rather than an attractor: seed the stepper
    # exactly on it and one rotation must reproduce the phase lengths and
    # return the levels bit for bit
    params = three(e=(F(1, 10), F(7, 10), F(4, 5)), g=F(20), c=F(2, 25),
                   h=(F(5), F(10), F(10)), cap=F(10 ** 6))
    closed = away_cycle_three(params)
    _slots, _drift, batteries = three_node_away_solution(params, F(500))
    state = CycleStepState(batteries=batteries, active=0)
    for v in range(3):
        state, stats = cycle_step(state, params)
        assert stats.length == closed.active_slots[v]
    assert state.batteries == batteries
    assert state.active == 0


def test_three_stepper_off_balance_drifts_uniformly():
    # away from the sustainable rate the same orbit shifts every battery by
    # the per-rotation drift while the phase lengths stay put
    params = three(e=(F(1, 10), F(7, 10), F(4, 5)), g=F(18), c=F(2, 25),
                   h=(F(5), F(10), F(10)), cap=F(10 ** 6))
    closed = away_cycle_three(params)
    _slots, drift, batteries = three_node_away_solution(params, F(500))
    assert drift == closed.drift
    state = CycleStepState(batteries=batteries, active=0)
    for v in range(3):
        state, stats = cycle_step(state, params)
        assert stats.length == closed.active_slots[v]
    for before, after in zip(batteries, state.batteries):
        assert after - before == closed.drift
