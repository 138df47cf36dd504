"""Slot-level simulator.

Time is discrete.  A run takes one slot boundary and the slot after it at
a time: nodes exchange status messages, the controller decides whether to
hand the forwarding role over, and the chosen node then carries the
offered load while everyone harvests.

Record ``k`` therefore describes the boundary entering slot ``k`` (battery
levels before and after the control exchange, the handover decision) plus
the traffic of slot ``k`` itself (packets moved by the node that ended up
active).  The next record's ``battery_pre`` is the result of that slot.

The slot rules live in one function (``_slot_rule``) that takes and returns
plain values; ``run`` (and through it the feedback runs) and
``verify_trace`` are its only callers, so a run always starts from the
checked ``default_state``.  A run stores its trace as columns, one per
quantity and per node (see ``Trace``), not as one object per slot: float
runs fill ``array`` columns, while ``Fraction`` inputs fill plain lists
and give exact trajectories, which the golden tests rely on.

The inputs come as segments, ``(harvest, load, length)`` stretches of
constant harvest rates and offered load (see ``Profile``).  ``run`` walks
them one at a time and binds the harvest and load once per segment; a run
without a profile is one segment.  A steered run records the loads it
offered as segments too, so no layer lists a profile slot by slot.

Four shortcuts skip work whose result is known, so every value, type and
repr stays as the full arithmetic makes it.  The first three skip an
operation only where it is an identity on the operands in hand:

1. ``_slot_rule`` does not subtract a control cost (or floor) of int 0.
2. ``_slot_rule`` returns ``g`` for a full-duty slot, ``1 * g + 0 * ev /
   c``, when ``g``, ``ev`` and ``c`` are all Fractions.
3. The audit (``verify_trace``, ``_ledger_rows``) leaves int-zero terms
   out of the energy balance, and passes equal values at ``tol >= 0``
   without computing ``abs(want - got)`` when they are ints or Fractions.
4. ``run`` stops calling the slot rule once a run with constant inputs
   (no profile, no ``steer``) is on its limit cycle, and fills the rest
   of every column with copies of one period.

``x - 0`` is ``x``, type and repr included, for every int, float and
Fraction, so shortcuts 1 and 3 need no check of the types in hand.  Floats
keep the full tolerance check since ``inf - inf`` is nan, and so does a
negative ``tol``, at which the full check fails even for equal values.

Shortcut 4 is exact because a slot's outcome depends only on the state
entering it, the levels and the active node, once the harvest and load are
constant: when that state recurs, every later slot repeats the slots since
its first visit.  ``run`` keeps one state entered right after a handover
and compares every later such state with it, refreshing it after 1, 2, 4,
8, ... handovers (Brent's cycle finding), so it finds the cycle with O(1)
extra memory and one comparison per handover.  Two states match only when
their levels are equal in type and bits, not just in value: ``-0.0 ==
0.0`` and ``5 == Fraction(5)``, but each pair prints and computes
differently.  ``_same_levels`` is that test, and this state match is its
only use.  ``verify_trace`` still replays every slot, the copied ones
included.
"""

from __future__ import annotations

import bisect
import csv
import math
import operator
from array import array
from fractions import Fraction
from itertools import compress, islice, pairwise, repeat
from typing import Callable, Optional, Sequence

from .model import (
    FRACTIONAL,
    NUMBER_TYPES,
    WHOLE,
    CycleStats,
    Profile,
    RunSummary,
    SystemParams,
    Trace,
    _first_slots,
    default_state,
)

__all__ = [
    "run",
    "detect_cycles",
    "summarize",
    "energy_ledger",
    "verify_trace",
    "write_trace_csv",
    "read_trace_csv",
]


# types whose values are always finite, so that want == got makes
# want - got an exact zero
_FINITE = frozenset((int, Fraction))


def _int_zero(x) -> bool:
    return type(x) is int and x == 0


def _number_types(params: SystemParams, profile, levels) -> set:
    """The types of the numbers in ``params``, ``profile`` and ``levels``."""
    kinds = set(map(type, params._scalars()))
    kinds.update(map(type, levels))
    if profile is not None:
        kinds |= profile._cell_types
    return kinds


def _level_column(floats: bool = True):
    """An empty column of battery levels or packet counts: ``array('d')``
    for floats, a list for anything else (``Fraction`` values, or whole
    packet counts, which stay ints)."""
    return array("d") if floats else []


def _same_levels(a, b) -> bool:
    """Whether two sequences of equal numbers hold them with the same type
    and bits, which ``==`` does not check: ``-0.0 == 0.0`` and ``5 ==
    Fraction(5)``, but each pair prints and computes differently.  For the
    three number types a repr tells both apart; the types are compared as
    well, so an unchecked cell cannot pass for a number that prints the
    same."""
    return (list(map(type, a)) == list(map(type, b))
            and list(map(repr, a)) == list(map(repr, b)))


def _tile(column, start: int, stop: int, total: int) -> None:
    """Extend ``column`` from ``stop`` to ``total`` entries by repeating
    its entries ``start`` to ``stop``."""
    period = column[start:stop]
    reps, rest = divmod(total - stop, stop - start)
    column.extend(period * reps)
    column.extend(period[:rest])


def _slot_rule(params: SystemParams, whole: bool):
    """The model's rules for one slot, as a function
    ``slot(pre, v, e, g) -> (post, nxt, active, switched, packets, quiet)``.

    ``pre`` holds the levels before the slot-end exchange, ``v`` is the node
    forwarding into it, ``e`` and ``g`` are the slot's harvest rates and
    offered load.  The function returns the levels right after the exchange
    (a sequence, ``pre`` itself when the exchange charged nothing) and at
    the end of the slot (a list), the node forwarding in the slot, whether
    the exchange handed over, the packets carried, and whether ``v``
    withheld its status message.  Of several idle nodes that qualify for a
    handover the largest lead wins, remaining ties go to the lower index.
    """
    n = params.n_nodes
    policy = params.thresholds
    bars = [policy.threshold_from(u) for u in range(n)]
    successors = [policy.candidates(u) for u in range(n)]
    c = params.packet_energy
    status = params.status_energy
    switch = params.switch_energy
    floor = params.control_floor
    cap = params.battery_capacity
    # a cost of int 0 (and so a floor of int 0) is not subtracted
    pay_status = not _int_zero(status)
    pay_switch = not _int_zero(switch)
    pay_floor = not _int_zero(floor)
    # a full-duty slot (share int 1) carries 1 * g + 0 * ev / c, which is g
    # itself when g, ev and c are all Fractions
    fraction = Fraction if type(c) is Fraction else None

    def slot(pre, v, e, g):
        pv = pre[v]
        bar = bars[v]
        target = None
        for u in successors[v]:
            lead = pre[u] - pv
            if lead >= bar and (target is None or lead > best):
                target, best = u, lead

        # status messages: idle nodes always report, the forwarding node
        # stays quiet when its battery cannot cover a full control exchange
        quiet = not pv >= floor
        if pay_status:
            post = [x - status for x in pre]
            if quiet:
                post[v] = pv
        else:
            post = pre
        switched = target is not None
        if switched:
            if pay_switch:
                post = [x - switch for x in post]
            v = target
        nxt = list(map(operator.add, post, e))
        if switched:
            packets = math.floor(g) if whole else g
            nxt[v] = nxt[v] - c * packets
        elif post[v] < floor:
            # broke relay: the slot is spent recharging, nothing is forwarded
            packets = 0
        else:
            ev = e[v]
            demand = c * g
            if demand <= ev:
                share = 1
            else:
                spare = post[v] - floor if pay_floor else post[v]
                share = spare / (demand - ev)
                share = 0 if share < 0 else (1 if share > 1 else share)
            if (fraction and type(share) is int and share == 1
                    and type(g) is type(ev) is fraction):
                packets = g          # 1 * g + 0 * ev / c
            else:
                packets = share * g + (1 - share) * ev / c
            if whole:
                packets = math.floor(packets)
                nxt[v] = nxt[v] - c * packets
            else:
                cut = nxt[v] - demand
                nxt[v] = cut if cut > floor else floor
        return (post, [cap if x > cap else x for x in nxt], v, switched,
                packets, quiet)

    return slot


def run(params: SystemParams, n_slots: Optional[int] = None,
        profile: Optional[Profile] = None,
        packet_mode: str = FRACTIONAL,
        initial_batteries: Optional[Sequence] = None,
        initial_active: int = 0,
        steer: Optional[Callable] = None) -> Trace:
    """Simulate ``n_slots`` slots and return the trace, slots numbered
    from 0.

    The run starts from the ``(levels, active)`` pair that
    ``default_state(params, packet_mode, initial_batteries,
    initial_active)`` checks and returns.  With a profile, slot ``k`` takes
    the harvest and load of the profile segment that holds it, and
    ``n_slots`` defaults to the profile length.  With ``steer`` the offered
    load is a controller's: ``steer(k, active, switched, harvest)`` is
    called after slot ``k`` with that slot's outcome and harvest rates and
    returns the load from slot ``k + 1`` on (slot 0 gets
    ``params.input_rate``).  The profile's loads are then ignored, and the
    trace carries the effective profile: the harvest used and the load
    actually offered, with a new segment wherever the harvest changes or
    ``steer`` returns another object than the load before.
    Profile cells and steered loads must be ints, floats or Fractions; a
    run whose inputs are all floats or ints stores floats, so there a
    steered load must be a float or an int.  Loads are checked at the end.

    Without a profile or ``steer`` the inputs are constant, and once the
    run is on its limit cycle ``run`` copies one period to the end instead
    of simulating it (shortcut 4 in the module docstring); the trace is
    the one the per-slot loop gives, bit for bit.
    """
    levels, first = default_state(params, packet_mode, initial_batteries,
                                  initial_active)
    if profile is not None:
        if profile.n_nodes != params.n_nodes:
            raise ValueError("profile node count does not match parameters")
        if n_slots is None:
            n_slots = profile.length
        elif n_slots > profile.length:
            raise ValueError("profile shorter than requested run")
    elif n_slots is None:
        raise ValueError("n_slots required when no profile is given")
    if n_slots < 1:
        raise ValueError("n_slots must be at least 1")

    n = params.n_nodes
    whole = packet_mode == WHOLE
    # every number a run stores comes out a float when the levels, energies
    # and loads it starts from are all floats or ints
    floats = _number_types(params, profile, levels) <= {float, int}
    slot = _slot_rule(params, whole)
    if profile is None:
        segments = ((params.harvest_rates, params.input_rate, n_slots),)
    else:
        segments = _first_slots(profile.segments, n_slots)
    g = params.input_rate
    # a steered run's (harvest, load, length) segments, a new one wherever
    # steer returns another load object or the harvest changes
    offered = []

    # levels go in node-interleaved, one extend per slot, and are split
    # into per-node columns at the end
    pre_flat = _level_column(floats)
    post_flat = _level_column(floats)
    packets = _level_column(floats and not whole)
    active, switched, suppressed = (array("B") for _ in range(3))
    add_pre, add_post, add_packets = (pre_flat.extend, post_flat.extend,
                                      packets.append)
    add_active, add_switched, add_suppressed = (
        active.append, switched.append, suppressed.append)

    # shortcut 4: the state entered right after a handover is kept after
    # 1, 2, 4, ... handovers, and when it recurs, the run repeats the slots
    # since it was kept; only a run without a profile takes it, and such a
    # run is one segment, so the break ends the run
    constant = profile is None
    kept_at = kept_v = kept = None
    power = lam = 1
    pre, v = levels, first
    start = 0
    for e, load, m in segments:
        if steer is None:
            g = load
        since = start           # first slot of the current steered load
        for k in range(start, start + m):
            add_pre(pre)
            post, pre, w, sw, pk, quiet = slot(pre, v, e, g)
            add_post(post)
            add_packets(pk)
            add_active(w)
            add_switched(sw)
            add_suppressed(quiet << v)
            v = w
            if steer is not None:
                nxt = steer(k, v, sw, e)
                if nxt is not g:
                    offered.append((e, g, k + 1 - since))
                    since, g = k + 1, nxt
            elif sw and constant:
                if v == kept_v and pre == kept and _same_levels(pre, kept):
                    stop = k + 1
                    for column, width in ((pre_flat, n), (post_flat, n),
                                          (packets, 1), (active, 1),
                                          (switched, 1), (suppressed, 1)):
                        _tile(column, kept_at * width, stop * width,
                              n_slots * width)
                    break
                if lam == power:
                    kept_at, kept_v, kept = k + 1, v, pre
                    power *= 2
                    lam = 0
                lam += 1
        start += m
        if steer is not None and since < start:
            offered.append((e, g, start - since))

    if steer is not None:
        stray = {type(x) for _, x, _ in offered} - (
            {float, int} if floats else NUMBER_TYPES)
        if stray:
            names = ", ".join(sorted(t.__name__ for t in stray))
            why = ("float inputs store floats" if floats
                   else "loads must be ints, floats or Fractions")
            raise TypeError(f"steer offered {names} loads to a run whose "
                            f"{why}")
        profile = Profile(offered)
    return Trace(n_nodes=n, packet_mode=packet_mode,
                 initial_active=first, params=params, profile=profile,
                 slots=range(n_slots),
                 battery_pre=tuple(pre_flat[u::n] for u in range(n)),
                 battery_post=tuple(post_flat[u::n] for u in range(n)),
                 active=active, switched=switched, packets=packets,
                 suppressed=suppressed)


# ---------------------------------------------------------------------------
# trace statistics
# ---------------------------------------------------------------------------

def _node_totals(active, packets, n) -> list:
    """Packets per node, each summed in slot order from 0."""
    totals = [0] * n
    for a, p in zip(active, packets):
        totals[a] = totals[a] + p
    return totals


def detect_cycles(trace: Trace, *, warmup: int = 0) -> list[CycleStats]:
    """Split the trace at handovers to node 1 and measure each full
    rotation of the forwarding role."""
    first = bisect.bisect_left(trace.slots, warmup)
    active, slots = trace.active, trace.slots
    bounds = [i for i in compress(range(first, len(slots)),
                                  trace.switched[first:])
              if active[i] == 0]
    cycles = []
    n = trace.n_nodes
    for a, b in pairwise(bounds):
        cycle_active = active[a:b]
        cycles.append(CycleStats(
            length=slots[b] - slots[a],
            active_slots=tuple(cycle_active.count(u) for u in range(n)),
            packets=tuple(_node_totals(cycle_active, trace.packets[a:b], n)),
            drift=tuple(col[b] - col[a] for col in trace.battery_pre),
            start_slot=slots[a],
        ))
    return cycles


def summarize(trace: Trace, warmup: int = 0) -> RunSummary:
    first = bisect.bisect_left(trace.slots, warmup)
    slots = len(trace) - first
    per_node = _node_totals(trace.active[first:], trace.packets[first:],
                            trace.n_nodes)
    total = sum(per_node)
    cycles = detect_cycles(trace, warmup=warmup)
    mean_len = (sum(c.length for c in cycles) / len(cycles)) if cycles else None
    return RunSummary(
        slots=slots,
        packets_total=total,
        throughput=total / slots if slots else 0.0,
        per_node_packets=tuple(per_node),
        switch_count=sum(trace.switched[first:]),
        cycle_count=len(cycles),
        mean_cycle_length=mean_len,
    )


def energy_ledger(trace: Trace, params: Optional[SystemParams] = None):
    """Per-record, per-node residual of the slot energy balance.

    For each consecutive record pair the change in a node's battery must
    equal harvest minus status cost minus handover cost minus transmit
    energy.  A nonzero residual is only legitimate when the ceiling clipped
    the charge: the level lands exactly on the capacity and the shortfall is
    the discarded surplus, so the residual is negative.  A positive residual
    is energy from nowhere and never legitimate.  Returns a list of
    (slot, node, residual, clipped_at_cap) tuples.
    """
    p = params or trace.params
    if p is None:
        raise ValueError("parameters required to audit a bare trace")
    return list(_ledger_rows(trace, p, trace.inputs(p)[0]))


def _ledger_rows(trace: Trace, p: SystemParams, harvest):
    """The rows of ``energy_ledger``, one at a time; ``harvest`` holds the
    slots' harvest rates.  An absent charge (the status of a suppressed
    node, the handover of a slot without one, the spend of an idle node, a
    cost of int 0) is left out rather than subtracted."""
    c, status, switch = p.packet_energy, p.status_energy, p.switch_energy
    cap = p.battery_capacity
    nodes = range(p.n_nodes)
    if _int_zero(status):
        status = None
    if _int_zero(switch):
        switch = None
    for slot, (a, b), v, switched, packets, mask, e in zip(
            trace.slots, pairwise(zip(*trace.battery_pre)), trace.active,
            trace.switched, trace.packets, trace.suppressed, harvest):
        handover = switch if switched else None
        for u in nodes:
            charge = None if mask >> u & 1 else status
            spent = c * packets if u == v else None
            expect = e[u]
            if charge is not None:
                expect = expect - charge
            if handover is not None:
                expect = expect - handover
            if spent is not None:
                expect = expect - spent
            yield slot, u, (b[u] - a[u]) - expect, b[u] == cap


def verify_trace(trace: Trace, params: Optional[SystemParams] = None,
                 tol: float = 1e-9) -> list[str]:
    """Audit a finished trace against the model rules.

    Replays every slot from its own recorded levels and checks the handover
    decision, control charges, packet count and resulting levels, plus
    battery bounds and the energy balance.  Returns human-readable
    violation strings; an empty list means the trace is consistent.
    """
    p = params or trace.params
    if p is None:
        raise ValueError("parameters required to audit a bare trace")
    problems = []
    report = problems.append
    nodes = range(p.n_nodes)
    low, high = -tol, p.battery_capacity + tol
    slot_rule = _slot_rule(p, trace.packet_mode == WHOLE)
    # equal values pass a tol >= 0 without computing abs(want - got) = 0,
    # for types whose values are finite
    finite = _FINITE if tol >= 0 else ()

    prev_active = trace.initial_active
    if prev_active is None and len(trace):
        # best effort for re-read traces: a switch in the first record means
        # the run began on some other node, which we cannot recover
        prev_active = trace.active[0]
    harvest, rates = trace.inputs(p)
    for slot, pre, post, v, switched, packets, mask, e, g in zip(
            trace.slots, zip(*trace.battery_pre), zip(*trace.battery_post),
            trace.active, trace.switched, trace.packets, trace.suppressed,
            harvest, rates):
        for u in nodes:
            if pre[u] < low or pre[u] > high:
                report(f"slot {slot}: node {u + 1} level {pre[u]} outside "
                       f"[0, capacity]")
        want_post, _, want_v, want_switched, want_packets, want_quiet = \
            slot_rule(pre, prev_active, e, g)
        if want_switched != switched or want_v != v:
            report(f"slot {slot}: handover decision does not follow from "
                   f"the recorded levels")
        if want_quiet << prev_active != mask:
            report(f"slot {slot}: status suppression flags differ")
        if not (type(packets) in finite
                and (want_packets is packets or want_packets == packets)
                or abs(want_packets - packets) <= tol):
            report(f"slot {slot}: packets {packets} != recomputed "
                   f"{want_packets}")
        for u in nodes:
            want, got = want_post[u], post[u]
            if not (type(got) in finite and (want is got or want == got)
                    or abs(want - got) <= tol):
                report(f"slot {slot}: node {u + 1} post-exchange level "
                       f"mismatch")
        prev_active = v

    for slot, u, resid, at_cap in _ledger_rows(trace, p, trace.inputs(p)[0]):
        if resid == 0 <= tol or abs(resid) <= tol:
            continue
        if at_cap and resid < 0:
            continue          # surplus harvest discarded at the ceiling
        report(f"slot {slot}: node {u + 1} energy balance off by {resid}")
    return problems


# ---------------------------------------------------------------------------
# trace persistence
# ---------------------------------------------------------------------------

_CSV_CHUNK = 1024       # rows read_trace_csv holds as text at once


def write_trace_csv(trace: Trace, path) -> None:
    """Node indices are 1-based in the file; floats keep full precision."""
    n = trace.n_nodes
    header = ["slot", "active", "switched", "packets"]
    header += [f"battery_pre{u + 1}" for u in range(n)]
    header += [f"battery_post{u + 1}" for u in range(n)]
    header += [f"suppressed{u + 1}" for u in range(n)]
    # one %-template per row, the same text as csv.writer with %.17g floats
    row = ",".join(["%d"] * 3 + ["%.17g"] * (1 + 2 * n)) + ",%s\r\n"
    flags = [",".join(str(m >> u & 1) for u in range(n))
             for m in range(1 << n)]
    rows = zip(trace.slots, map(operator.add, trace.active, repeat(1)),
               trace.switched, trace.packets, *trace.battery_pre,
               *trace.battery_post, map(flags.__getitem__, trace.suppressed))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(map(row.__mod__, rows))


def _finite_cells(path, columns: dict, column: str) -> list:
    """A chunk of a level or packets column as floats; nan and inf are
    refused."""
    values = list(map(float, columns[column]))
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{path}: column {column!r} holds a value that is "
                         f"not finite")
    return values


def _flag_cells(path, columns: dict, column: str) -> list:
    """A chunk of a switched or suppressed column as ints 0 and 1."""
    bits = list(map(int, columns[column]))
    if not _BITS.issuperset(bits):
        raise ValueError(f"{path}: column {column!r} holds a value other "
                         f"than 0 or 1")
    return bits


_BITS = frozenset((0, 1))


def read_trace_csv(path) -> Trace:
    """Read a trace written by ``write_trace_csv``.  The rows are turned
    into columns ``_CSV_CHUNK`` at a time, so the file's text is never held
    whole.  Every row must be as wide as the header, levels and packets
    finite, flags 0 or 1, and the slot numbers must count up by one from
    the first; a file that breaks one of these rules raises a
    ``ValueError`` naming the file."""
    first = stop = None
    packets = _level_column()
    active, switched, suppressed = (array("B") for _ in range(3))
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        n = sum(1 for k in header if k.startswith("battery_pre"))
        pre = tuple(_level_column() for _ in range(n))
        post = tuple(_level_column() for _ in range(n))
        width = {len(header)}
        for rows in iter(lambda: list(islice(reader, _CSV_CHUNK)), []):
            if not width.issuperset(map(len, rows)):
                i, cells = next((i, len(r)) for i, r in enumerate(rows)
                                if len(r) != len(header))
                line = i + 2 + (0 if first is None else stop - first)
                raise ValueError(f"{path}: line {line} has {cells} cells "
                                 f"where the header has {len(header)}")
            columns = dict(zip(header, zip(*rows)))
            try:
                nodes = list(map(operator.sub, map(int, columns["active"]),
                                 repeat(1)))
                if min(nodes) < 0 or max(nodes) >= n:
                    raise ValueError(f"{path}: active node number out of "
                                     f"range")
                active.extend(nodes)
                slots = list(map(int, columns["slot"]))
                if first is None:
                    first = stop = slots[0]
                want = list(range(stop, stop + len(slots)))
                if slots != want:
                    got, due = next(pair for pair in zip(slots, want)
                                    if pair[0] != pair[1])
                    raise ValueError(f"{path}: slot {got} where slot {due} "
                                     f"is due; slots count up by one")
                stop += len(slots)
                for u in range(n):
                    pre[u].extend(_finite_cells(path, columns,
                                                f"battery_pre{u + 1}"))
                for u in range(n):
                    post[u].extend(_finite_cells(path, columns,
                                                 f"battery_post{u + 1}"))
                # bit u of each slot's mask is node u's suppressed flag
                masks = repeat(0, len(rows))
                for u in range(n):
                    bits = _flag_cells(path, columns, f"suppressed{u + 1}")
                    masks = map(operator.or_, masks,
                                map(operator.lshift, bits, repeat(u)))
                suppressed.extend(masks)
                switched.extend(_flag_cells(path, columns, "switched"))
                packets.extend(_finite_cells(path, columns, "packets"))
            except KeyError as exc:
                raise ValueError(f"{path}: no column {exc.args[0]!r}") \
                    from None
    if first is None:
        raise ValueError(f"{path}: empty trace")
    return Trace(n_nodes=n, slots=range(first, stop), battery_pre=pre,
                 battery_post=post, active=active, switched=switched,
                 packets=packets, suppressed=suppressed)
