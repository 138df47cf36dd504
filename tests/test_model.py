"""Parameter validation, policy objects, and the small value types."""

import dataclasses
import math
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from hdrsim import (
    EarliestSwitch3,
    FRACTIONAL,
    Hysteresis2,
    Profile,
    RoundRobin3,
    SystemParams,
    ThresholdPolicy,
    WHOLE,
    default_state,
    validate,
)
from conftest import diamond


def test_hysteresis2_policy():
    pol = Hysteresis2(4.0, 0.8)
    assert pol.n_nodes == 2
    assert pol.total == pytest.approx(4.8)
    assert pol.threshold_from(0) == 4.0
    assert pol.threshold_from(1) == 0.8
    assert pol.candidates(0) == (1,)
    assert pol.candidates(1) == (0,)


def test_round_robin_candidates_rotate():
    pol = RoundRobin3(5, 10, 10)
    assert pol.candidates(0) == (1,)
    assert pol.candidates(1) == (2,)
    assert pol.candidates(2) == (0,)
    assert pol.total == 25


def test_earliest_switch_candidates_are_both_others():
    pol = EarliestSwitch3(5, 10, 10)
    assert set(pol.candidates(0)) == {1, 2}
    assert set(pol.candidates(1)) == {0, 2}
    assert set(pol.candidates(2)) == {0, 1}


def test_named_policies_are_one_type_with_a_successor_rule():
    assert Hysteresis2(4.0, 0.8) == ThresholdPolicy((4.0, 0.8), "rr")
    assert RoundRobin3(5, 10, 10) == ThresholdPolicy((5, 10, 10), "rr")
    assert EarliestSwitch3(5, 10, 10) == ThresholdPolicy((5, 10, 10), "es")
    pol = ThresholdPolicy([0.1, 0.2, 0.7], "es")
    assert pol.values == (0.1, 0.2, 0.7)
    assert hash(pol) == hash(EarliestSwitch3(0.1, 0.2, 0.7))
    assert (pol.threshold1, pol.threshold2) == (0.1, 0.2)
    assert pol.total == 0.1 + 0.2 + 0.7            # the sum, bit for bit


def test_named_policies_take_their_own_threshold_count():
    with pytest.raises(TypeError):
        Hysteresis2(1.0, 2.0, 3.0)
    with pytest.raises(TypeError):
        RoundRobin3(1.0, 2.0)
    with pytest.raises(TypeError):
        EarliestSwitch3(1.0, 2.0)


def test_unknown_successor_rule():
    with pytest.raises(ValueError, match="successor rule"):
        ThresholdPolicy((1.0, 2.0), "lru")


def test_threshold_must_be_positive():
    with pytest.raises(ValueError):
        Hysteresis2(0.0, 1.0)
    with pytest.raises(ValueError):
        RoundRobin3(1.0, -2.0, 1.0)


def test_params_arity_must_match_policy():
    with pytest.raises(ValueError):
        SystemParams(harvest_rates=(0.5, 0.5, 0.5), input_rate=10,
                     packet_energy=0.08, thresholds=Hysteresis2(1, 1))
    with pytest.raises(ValueError):
        SystemParams(harvest_rates=(0.5, 0.5), input_rate=10,
                     packet_energy=0.08, thresholds=RoundRobin3(1, 1, 1))


def test_params_take_a_threshold_policy_only():
    with pytest.raises(ValueError, match="thresholds must be a "
                                         "ThresholdPolicy, got tuple"):
        SystemParams((0.8, 0.6), 17.5, 0.08, (6.2, 5.0))


def test_params_reject_bad_scalars():
    with pytest.raises(ValueError):
        diamond(e=(-0.1, 0.5))
    with pytest.raises(ValueError):
        diamond(c=0.0)
    with pytest.raises(ValueError):
        diamond(g=math.inf)
    with pytest.raises(ValueError):
        diamond(g=-1.0)


def test_capacity_must_exceed_control_floor():
    with pytest.raises(ValueError):
        diamond(ct=0.4, cr=0.7, cap=1.0)


def test_signs_are_compared_exactly():
    tiny = F(1, 10**400)        # rounds to 0.0 as a float
    with pytest.raises(ValueError, match="harvest rates must be non-neg"):
        diamond(e=(-tiny, 0.6))
    with pytest.raises(ValueError, match="input rate must be non-negative"):
        diamond(g=-tiny)
    with pytest.raises(ValueError, match="control energies must be non-neg"):
        diamond(cr=-tiny)
    assert diamond(c=tiny).packet_energy == tiny


def test_capacity_is_compared_with_the_floor_exactly():
    cap = 1 + F(1, 10**30)      # rounds to 1.0 as a float
    assert diamond(ct=1, cap=cap).control_floor == 1
    with pytest.raises(ValueError, match="capacity must exceed"):
        diamond(ct=F(1, 2), cr=F(1, 2) + F(1, 10**30), cap=cap)


@pytest.mark.parametrize("make, name", [
    (lambda big: diamond(g=big), "input_rate"),
    (lambda big: diamond(e=(0.8, big)), r"harvest_rates\[1\]"),
    (lambda big: diamond(ct=F(big, 3)), "status_energy"),
    (lambda big: diamond(cap=big), "battery_capacity"),
    (lambda big: Hysteresis2(big, 1), r"thresholds\[0\]"),
    (lambda big: RoundRobin3(1, 2, -big), r"thresholds\[2\]")],
    ids=["input_rate", "harvest_rates", "status_energy", "battery_capacity",
         "hysteresis2", "rr3-negative"])
def test_numbers_beyond_the_float_range_name_their_field(make, name):
    with pytest.raises(ValueError, match=f"^{name} is too large for a float$"):
        make(10**400)


_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.1, 0.2, 0.3,
                           0.30000000000000004, 1.0, -1.0, 1e308])


@given(e=_FLOATS, g=_FLOATS, c=_FLOATS, ct=_FLOATS, cr=_FLOATS,
       cap=_FLOATS)
def test_float_parameters_are_accepted_as_before(e, g, c, ct, cr, cap):
    # the checks compared float() of every value before they became exact
    before = (e >= 0 and g >= 0 and c > 0 and ct >= 0 and cr >= 0
              and cap > float(ct + cr))
    try:
        diamond(e=(e, 0.5), g=g, c=c, ct=ct, cr=cr, cap=cap)
    except ValueError:
        assert not before
    else:
        assert before


def test_derived_quantities():
    p = diamond(g=17.5, c=0.08, ct=0.01, cr=0.05)
    assert p.n_nodes == 2
    assert p.control_floor == pytest.approx(0.06)
    assert p.slot_data_energy == pytest.approx(1.4)
    q = p.with_input_rate(10.0)
    assert q.input_rate == 10.0
    assert p.input_rate == 17.5  # original untouched


def test_validate_flags_uncovered_regime():
    # harvesting cannot keep up with even one node's duty: worth a warning
    warnings = validate(diamond(e=(2.0, 0.6), g=17.5))
    assert any("1.4" in w or "harvest" in w for w in warnings)
    assert validate(diamond()) == ()


def test_validate_flags_the_control_floor():
    p = diamond(e=(0.02, 0.6), ct=0.01, cr=0.05)
    (warning,) = validate(p)
    assert warning.startswith("node 1: harvest 0.02 does not cover the "
                              "control floor 0.06")


def test_default_state(diamond_params):
    assert default_state(diamond_params) == ((50.0, 50.0), 0)
    assert default_state(diamond_params, packet_mode=FRACTIONAL) == \
        ((50.0, 50.0), 0)
    assert default_state(diamond_params, packet_mode=WHOLE,
                         batteries=(1.0, 2.0), active=1) == ((1.0, 2.0), 1)


def test_default_state_rejects_bad_mode(diamond_params):
    with pytest.raises(ValueError):
        default_state(diamond_params, packet_mode="half")


@pytest.mark.parametrize("levels", [
    (float("nan"), 50.0), (50.0, float("-inf")), (500.0, -30.0),
    (-0.5, 50.0), (50.0, 100.000001),
])
def test_default_state_rejects_bad_levels(diamond_params, levels):
    with pytest.raises(ValueError, match="initial battery level"):
        default_state(diamond_params, batteries=levels)


def test_default_state_accepts_the_range_ends(diamond_params):
    levels, _ = default_state(diamond_params, batteries=(0.0, 100.0))
    assert levels == (0.0, 100.0)


def test_profile_totals():
    prof = Profile((((0.5, 0.25), 10.0, 2), ((0.1, 0.1), 5.0, 1)))
    assert prof.length == 3
    assert prof.n_nodes == 2
    assert prof.segments == (((0.5, 0.25), 10.0, 2), ((0.1, 0.1), 5.0, 1))
    harvested = tuple(sum(row[u] * k for row, _, k in prof.segments)
                      for u in range(2))
    assert harvested == (pytest.approx(1.1), pytest.approx(0.6))
    assert sum(g * k for _, g, k in prof.segments) == pytest.approx(25.0)


def test_profile_shape_mismatch():
    with pytest.raises(ValueError, match="ragged"):
        Profile((((0.5, 0.25), 10.0, 1), ((0.5,), 10.0, 1)))
    # a segment that is not a (harvest, load, length) triple
    with pytest.raises(ValueError):
        Profile((((0.5, 0.25), 10.0),))


def per_slot(harvest, rates) -> Profile:
    """One length-1 segment per slot."""
    return Profile(tuple((row, g, 1) for row, g in zip(harvest, rates)))


@pytest.mark.parametrize("harvest, rates, match", [
    (((0.5, math.nan), (0.5, 0.25)), (10.0, 10.0), "finite"),
    (((0.5, 0.25), (0.5, 0.25)), (10.0, math.inf), "finite"),
    (((0.5, 0.25), (-0.1, 0.25)), (10.0, 10.0), "non-negative"),
    (((0.5, 0.25), (0.5, 0.25)), (10.0, 10**400), "finite"),
])
def test_profile_rejects_bad_cells(harvest, rates, match):
    with pytest.raises(ValueError, match=match):
        per_slot(harvest, rates)


@pytest.mark.parametrize("bad", [Decimal("1.5"), True, "1.5"])
def test_numbers_are_ints_floats_or_fractions(bad):
    with pytest.raises(ValueError, match="input_rate must be a finite int"):
        diamond(g=bad)
    with pytest.raises(ValueError, match=r"harvest_rates\[1\] must be"):
        diamond(e=(0.8, bad))
    with pytest.raises(ValueError, match="thresholds must be positive ints"):
        Hysteresis2(bad, 5.0)
    with pytest.raises(ValueError, match="level of node 2 must be an int"):
        default_state(diamond(), batteries=(50.0, bad))
    name = type(bad).__name__
    with pytest.raises(ValueError, match=f"profile cells must be .*{name}"):
        per_slot(((0.5, 0.25), (0.5, bad)), (10.0, 10.0))
    with pytest.raises(ValueError, match=f"Fractions, got {name}"):
        per_slot(((0.5, 0.25),) * 2, (10.0, bad))


def test_profile_keeps_its_cell_types_out_of_sight():
    prof = per_slot(((F(1, 2), 0.25), (1, 0.25)), (10.0, 10))
    assert prof._cell_types == {F, float, int}
    assert "_cell_types" not in repr(prof)
    assert prof == per_slot(((0.5, 0.25), (1.0, 0.25)), (10.0, 10.0))
    floats = dataclasses.replace(prof, segments=(((0.5, 0.25), 10.0, 1),
                                                 ((1.0, 0.25), 10.0, 1)))
    assert floats._cell_types == {float}


def test_profiles_are_equal_when_their_segments_are():
    prof = Profile([([0.5, 0.25], 10.0, 3)])
    assert prof.segments == (((0.5, 0.25), 10.0, 3),)
    assert prof == Profile((((0.5, 0.25), 10.0, 3),))
    assert hash(prof) == hash(Profile([((F(1, 2), 0.25), 10, 3)]))
    assert prof != Profile((((0.5, 0.25), 10.0, 2),))
    assert prof != Profile((((0.5, 0.25), 10.0, 2), ((0.5, 0.25), 9.0, 1)))
    assert repr(prof) == "Profile(segments=(((0.5, 0.25), 10.0, 3),))"


@pytest.mark.parametrize("length", [0, -1, 1.5, True, "2"])
def test_profile_segment_lengths_are_positive_ints(length):
    with pytest.raises(ValueError, match="segment lengths"):
        Profile((((0.5, 0.25), 10.0, 2), ((0.5, 0.25), 10.0, length)))


def test_profile_segments_are_checked_like_cells():
    with pytest.raises(ValueError, match="ragged"):
        Profile((((0.5, 0.25), 10.0, 2), ((0.5,), 10.0, 1)))
    with pytest.raises(ValueError, match="non-negative"):
        Profile((((0.5, -0.25), 10.0, 2),))
    with pytest.raises(ValueError, match="got Decimal"):
        Profile((((0.5, 0.25), Decimal(1), 2),))
    assert Profile(()).length == 0
