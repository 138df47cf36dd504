"""Closed-form steady-state results for the two- and three-relay systems.

Everything here is derived under the modelling assumptions that make the
dynamics piecewise linear: handovers land exactly on threshold differences
and boundaries are reached at slot ends.  The slot simulator makes neither
assumption, which is exactly why both exist: the round-robin cycle stepper
below, which takes any number of relays, serves as an independent oracle
for the engine (and vice versa) wherever the assumptions hold.

As in the rest of the package, numbers are ints, floats or Fractions;
Fraction inputs give exact results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import CycleStats, SystemParams

__all__ = [
    "SteadyStateSummary",
    "CycleStepState",
    "away_cycle_diamond",
    "away_cycle_three",
    "three_node_away_solution",
    "classify_regime_diamond",
    "steady_input_rate",
    "cycle_step",
    "cycle_step_diamond",
    "cycle_step_three",
    "feedback_input_rate",
]

REGIMES = ("away", "balanced", "down_a", "down_b", "down_c",
           "up_a", "up_b", "up_c")


@dataclass(frozen=True)
class SteadyStateSummary:
    """Predicted cycle structure.

    regime         one of REGIMES; "away" means boundaries ignored
    active_slots   per-node slots of forwarding duty per cycle
    cycle_length   total slots per cycle
    cycle_packets  per-node packets per cycle
    throughput     packets/slot averaged over the cycle
    drift          per-node battery change per cycle, mJ (0 for the pinned
                   steady-state regimes by definition)
    """

    regime: str
    active_slots: tuple
    cycle_length: float
    cycle_packets: tuple
    throughput: float
    drift: float

    @property
    def cycle_packets_total(self):
        return sum(self.cycle_packets)

    @property
    def split(self) -> tuple:
        """Per-node share of the cycle's packets (sums to 1)."""
        total = self.cycle_packets_total
        return tuple(p / total for p in self.cycle_packets)


@dataclass(frozen=True)
class CycleStepState:
    """Battery levels at a handover instant; ``active`` just took over."""

    batteries: tuple
    active: int


def _diamond(params: SystemParams):
    if params.n_nodes != 2:
        raise ValueError("two-relay result requested for a different topology")
    e1, e2 = params.harvest_rates
    return e1, e2, params.slot_data_energy


def _no_control(params: SystemParams, what: str):
    if params.status_energy != 0 or params.switch_energy != 0:
        raise ValueError(f"{what} is derived for zero control energies")


# ---------------------------------------------------------------------------
# away from the boundaries
# ---------------------------------------------------------------------------

def away_cycle_diamond(params: SystemParams) -> SteadyStateSummary:
    """Cycle structure with both batteries away from floor and ceiling.

    Phases are the plain quotients of the combined threshold by the
    per-slot gap growth rates; the engine matches them when the quotients
    are whole slots (handovers otherwise wait for a slot end).
    """
    e1, e2, cg = _diamond(params)
    gap_rate_1 = cg + e2 - e1       # growth of B2-B1 while node 1 forwards
    gap_rate_2 = cg + e1 - e2
    if gap_rate_1 <= 0 or gap_rate_2 <= 0:
        raise ValueError("per-slot load must exceed the harvest imbalance")
    h = params.thresholds.total
    slots1 = h / gap_rate_1
    slots2 = h / gap_rate_2
    length = slots1 + slots2
    g = params.input_rate
    tilde = e1 + e2 - 2 * params.status_energy
    drift = -2 * params.switch_energy + (tilde - cg) * length / 2
    return SteadyStateSummary(
        regime="away",
        active_slots=(slots1, slots2),
        cycle_length=length,
        cycle_packets=(g * slots1, g * slots2),
        throughput=g,
        drift=drift,
    )


def away_cycle_three(params: SystemParams) -> SteadyStateSummary:
    """Round-robin cycle structure away from the boundaries, three relays."""
    if params.n_nodes != 3:
        raise ValueError("three-relay result requested for a different topology")
    e1, e2, e3 = params.harvest_rates
    cg = params.slot_data_energy
    spread = e1 * e1 + e2 * e2 + e3 * e3 - e1 * e2 - e2 * e3 - e3 * e1
    denom = 2 * (cg * cg - spread)
    if denom == 0:
        raise ValueError("load energy matches the harvest spread; "
                         "cycle length diverges")
    h = params.thresholds.total
    total = e1 + e2 + e3
    slots = tuple(h * (cg + 3 * e - total) / denom for e in (e1, e2, e3))
    length = 3 * cg * h / denom
    g = params.input_rate
    tilde = total - 3 * params.status_energy
    drift = -3 * params.switch_energy - cg * h * (cg - tilde) / denom
    return SteadyStateSummary(
        regime="away",
        active_slots=slots,
        cycle_length=length,
        cycle_packets=tuple(g * s for s in slots),
        throughput=g,
        drift=drift,
    )


def three_node_away_solution(params: SystemParams, anchor_level):
    """Full away-from-boundary steady state for three relays.

    Solves the linear system formed by the three handover conditions, the
    equal-drift conditions, and the anchor ``B1(0) = anchor_level`` (the
    system determines battery levels only up to a common offset).  Returns
    (active_slots, drift, batteries) where ``batteries`` are the post-switch
    levels at the instant node 1 takes over.

    Exists as an independent route to the closed forms in
    ``away_cycle_three``; the two must agree for any control energies.
    """
    if params.n_nodes != 3:
        raise ValueError("three-relay result requested for a different topology")
    e1, e2, e3 = params.harvest_rates
    cg = params.slot_data_energy
    ct = params.status_energy
    cr = params.switch_energy
    h1 = params.thresholds.threshold_from(0)
    h2 = params.thresholds.threshold_from(1)
    h3 = params.thresholds.threshold_from(2)
    # unknowns: [slots1, slots2, slots3, drift, b1, b2, b3]
    rows = [
        [0, 0, 0, 0, 1, 0, -1, h3],
        [cg + e2 - e1, 0, 0, 0, -1, 1, 0, h1],
        [e3 - e2, cg + e3 - e2, 0, 0, 0, -1, 1, h2],
        [-(cg + ct - e1), e1 - ct, e1 - ct, -1, 0, 0, 0, 3 * cr],
        [e2 - ct, -(cg + ct - e2), e2 - ct, -1, 0, 0, 0, 3 * cr],
        [e3 - ct, e3 - ct, -(cg + ct - e3), -1, 0, 0, 0, 3 * cr],
        [0, 0, 0, 0, 1, 0, 0, anchor_level],
    ]
    sol = _solve_linear(rows)
    return tuple(sol[0:3]), sol[3], tuple(sol[4:7])


def _solve_linear(rows):
    """Gauss-Jordan with partial pivoting.  Each row is coefficients plus
    the constant term.  Type-generic so Fraction systems stay exact."""
    n = len(rows)
    m = [list(r) for r in rows]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(m[r][col]))
        if m[piv][col] == 0:
            raise ValueError("singular system")
        m[col], m[piv] = m[piv], m[col]
        lead = m[col][col]
        m[col] = [x / lead for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


# ---------------------------------------------------------------------------
# boundary-pinned steady states (two relays, zero control)
# ---------------------------------------------------------------------------

def classify_regime_diamond(params: SystemParams) -> SteadyStateSummary:
    """Long-run steady state of the two-relay system with zero control cost.

    The sign of the net energy balance picks the story: balanced levels
    seesaw in place, a deficit parks the system near empty batteries, a
    surplus parks it near full ones.  Within the drifting cases the
    threshold ratio decides whether one node or both take turns sitting on
    the boundary.  Comparisons are exact, so knife-edge classifications
    (balance, ratio exactly at a bound) want exact input types.
    """
    _no_control(params, "the regime table")
    e1, e2, cg = _diamond(params)
    if cg <= e1 or cg <= e2:
        raise ValueError("per-slot load must exceed both harvest rates")
    g = params.input_rate
    h1 = params.thresholds.threshold_from(0)
    h2 = params.thresholds.threshold_from(1)
    h = h1 + h2
    d1 = cg + e2 - e1               # gap growth while node 1 forwards
    d2 = cg + e1 - e2

    total = e1 + e2
    if total == cg:
        slots = (h / (2 * e2), h / (2 * e1))
        return _steady("balanced", slots, g, (g * slots[0], g * slots[1]))

    ratio = h1 / h2
    if total < cg:
        # deficit: floor-pinned; throughput capped at total harvest
        if ratio <= e2 / (cg - e1):
            regime = "down_a"       # node 2 idles at empty, node 1 never does
            slots = (h / d1, h * (cg - e1) / (e1 * d1))
            packets = (g * h / d1, e2 * g * h / (e1 * d1))
        elif ratio >= (cg - e2) / e1:
            regime = "down_b"       # node 1 idles at empty
            slots = (h * (cg - e2) / (e2 * d2), h / d2)
            packets = (e1 * g * h / (e2 * d2), g * h / d2)
        else:
            regime = "down_c"       # both take turns at empty
            slots = (h1 / e2, h2 / e1)
            pool = e1 * h1 + e2 * h2
            c = params.packet_energy
            packets = (pool / (c * e2), pool / (c * e1))
        return _steady(regime, slots, total / params.packet_energy, packets)

    # surplus: ceiling-pinned; everything offered still goes through
    if ratio >= e1 / (cg - e2):
        regime = "up_a"             # node 2 idles at capacity, node 1 never
        slots = (e1 * h / ((cg - e1) * d2), h / d2)
    elif ratio <= (cg - e1) / e2:
        regime = "up_b"             # node 1 idles at capacity
        slots = (h / d1, e2 * h / ((cg - e2) * d1))
    else:
        regime = "up_c"             # both take turns at capacity
        slots = (h1 / (cg - e1), h2 / (cg - e2))
    return _steady(regime, slots, g, (g * slots[0], g * slots[1]))


def _steady(regime, slots, throughput, packets) -> SteadyStateSummary:
    return SteadyStateSummary(
        regime=regime,
        active_slots=tuple(slots),
        cycle_length=sum(slots),
        cycle_packets=tuple(packets),
        throughput=throughput,
        drift=0,
    )


# ---------------------------------------------------------------------------
# sustainable input rate
# ---------------------------------------------------------------------------

def steady_input_rate(params: SystemParams):
    """Input rate at which the away-from-boundary per-cycle drift is zero.

    Control traffic makes this a quadratic in the load energy; the positive
    root is returned.  With zero control cost it collapses to total harvest
    over packet energy.
    """
    h = params.thresholds.total
    cr = params.switch_energy
    ct = params.status_energy
    n = params.n_nodes
    tilde = sum(params.harvest_rates) - n * ct
    if cr == 0:
        return tilde / params.packet_energy
    if n == 2:
        e1, e2 = params.harvest_rates
        spread = (e2 - e1) ** 2
        switches = 2 * cr
        weight = 8 * cr
    else:
        e1, e2, e3 = params.harvest_rates
        spread = e1 * e1 + e2 * e2 + e3 * e3 - e1 * e2 - e2 * e3 - e3 * e1
        switches = 6 * cr
        weight = 24 * cr
    root = math.sqrt(h * h * tilde * tilde + weight * (switches + h) * spread)
    return (h * tilde + root) / (2 * params.packet_energy * (switches + h))


def feedback_input_rate(measured_cycle_length, params: SystemParams):
    """Input rate that zeroes the drift given an observed mean cycle length.

    Inverts the per-cycle drift expression: the handover cost is amortized
    over the measured cycle instead of the analytic one.
    """
    if measured_cycle_length <= 0:
        raise ValueError("cycle length must be positive")
    n = params.n_nodes
    tilde = sum(params.harvest_rates) - n * params.status_energy
    overhead = n * n * params.switch_energy / measured_cycle_length
    g = (tilde - overhead) / params.packet_energy
    if g <= 0:
        raise ValueError("harvest cannot sustain the control overhead")
    return g


# ---------------------------------------------------------------------------
# cycle-granularity stepper (zero control, round robin)
# ---------------------------------------------------------------------------

def cycle_step(state: CycleStepState, params: SystemParams):
    """Advance one forwarding phase of ``n`` round-robin relays.

    ``state`` describes the instant the active node ``v`` took over.  The
    phase ends when its successor ``(v + 1) % n`` leads ``v`` by ``v``'s
    threshold.  The entry lead is read from the levels, so it is free: on
    the diamond a handover leaves it at the threshold that fired, while with
    three or more relays the handover was judged against a different node
    and the successor may already be past the bar (then the phase has zero
    length and the roles swap at once).  Three shapes: the successor
    saturates first, the active node empties first, or neither.  Every
    other node harvests up to the cap.  Returns the state at the next
    handover plus the phase statistics.
    """
    _no_control(params, "the cycle stepper")
    n = params.n_nodes
    if n >= 3 and params.thresholds.rule == "es":
        raise ValueError("the cycle stepper follows the round-robin rule; "
                         "an earliest-switch policy has no fixed successor")
    cg = params.slot_data_energy
    rates = params.harvest_rates
    v = state.active
    x = (v + 1) % n
    ev, ex = rates[v], rates[x]
    if cg <= ev:
        raise ValueError("per-slot load must exceed the active harvest rate")
    if ex == 0:
        raise ValueError(f"the successor, node {x + 1}, harvests nothing, "
                         f"so it never gains on the active node")
    levels = list(state.batteries)
    bv, bx = levels[v], levels[x]
    cap = params.battery_capacity
    g = params.input_rate
    hv = params.thresholds.threshold_from(v)

    slots = packets = 0
    lead_needed = hv + bv - bx
    if lead_needed > 0:
        target = lead_needed / (cg + ex - ev)
        if (cap - bx) / ex < target:
            # successor parks at the cap; the lead then grows by the drain
            slots = (hv + bv - cap) / (cg - ev)
            levels[v] = bv - slots * (cg - ev)
            levels[x] = cap
            packets = slots * g
        elif bv / (cg - ev) < target:
            # active node empties and trickles at its harvest-sustained rate
            drained = bv / (cg - ev)
            slots = (hv - bx) / ex
            levels[v] = 0
            levels[x] = bx + slots * ex
            packets = (drained * g
                       + (slots - drained) * ev / params.packet_energy)
        else:
            slots = target
            levels[v] = bv - slots * (cg - ev)
            levels[x] = bx + slots * ex
            packets = slots * g
        for u in range(n):
            if u != v and u != x:
                levels[u] = min(levels[u] + slots * rates[u], cap)

    active_slots = [0] * n
    active_slots[v] = slots
    per_node = [0] * n
    per_node[v] = packets
    stats = CycleStats(
        length=slots,
        active_slots=tuple(active_slots),
        packets=tuple(per_node),
        drift=tuple(a - b for a, b in zip(levels, state.batteries)),
    )
    return CycleStepState(batteries=tuple(levels), active=x), stats


# the former diamond and three-relay names, still called by bench/
cycle_step_diamond = cycle_step_three = cycle_step
