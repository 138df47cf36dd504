"""Shared parameter factories for the test suite."""

import pytest

from hdrsim import (
    EarliestSwitch3,
    Hysteresis2,
    Profile,
    RoundRobin3,
    SystemParams,
)


def diamond(e=(0.8, 0.6), g=17.5, c=0.08, h=(5.0, 5.0), ct=0, cr=0,
            cap=100.0):
    return SystemParams(
        harvest_rates=tuple(e), input_rate=g, packet_energy=c,
        status_energy=ct, switch_energy=cr, battery_capacity=cap,
        thresholds=Hysteresis2(*h))


def three(e=(0.1, 0.7, 0.8), g=20.0, c=0.08, h=(5.0, 10.0, 10.0), ct=0,
          cr=0, cap=100.0, es=False):
    policy = EarliestSwitch3(*h) if es else RoundRobin3(*h)
    return SystemParams(
        harvest_rates=tuple(e), input_rate=g, packet_energy=c,
        status_energy=ct, switch_energy=cr, battery_capacity=cap,
        thresholds=policy)


def constant_profile(params, length):
    """``length`` slots of the constant rates of ``params`` as a profile."""
    return Profile(((params.harvest_rates, params.input_rate, length),))


@pytest.fixture
def diamond_params():
    return diamond()


@pytest.fixture
def three_params():
    return three()
