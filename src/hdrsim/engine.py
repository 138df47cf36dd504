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

Six shortcuts skip work whose result is known, so every value, type and
repr stays as the full arithmetic makes it, and every audit finds what the
per-slot check finds.  The first three skip an operation only where it is
an identity on the operands in hand:

1. ``_slot_rule`` does not subtract a control cost (or floor) of int 0.
2. ``_slot_rule`` returns ``g`` for a full-duty slot, ``1 * g + 0 * ev /
   c``, when ``g``, ``ev`` and ``c`` are all Fractions.
3. The audit (``verify_trace``, ``_ledger_rows``) leaves int-zero terms
   out of the energy balance, and passes equal values at ``tol >= 0``
   without computing ``abs(want - got)`` when they are ints or Fractions.
4. ``run`` stops calling the slot rule once a segment is on its limit
   cycle, fills every column with copies of its period, as many as fit
   before the segment's end, and records the stretch to that end on the
   trace as a claim ``(start, period, stop)`` in ``trace.cycles``.
5. ``run`` of floats and ints, steered or not, advances a stretch of plain
   slots as whole columns, one ``itertools.accumulate`` per node (see
   ``batch``), and sends only the slot that ends it through the slot
   rule.
6. ``verify_trace`` of a trace of floats and ints, its levels in
   ``array('d')`` columns, at ``tol >= 0``, checks ``audit._CHUNK`` slots
   at a time in a column pass (see ``audit``), which clears each plain
   slot and each balanced ledger row in C, and replays only the rest one
   slot at a time.  It leaves out the copied periods of each claim of
   ``trace.cycles`` it confirms, and audits them all only where it finds
   a problem.

``x - 0`` is ``x``, type and repr included, for every int, float and
Fraction, so shortcuts 1 and 3 need no check of the types in hand.  Floats
keep the full tolerance check since ``inf - inf`` is nan, and so does a
negative ``tol``, at which the full check fails even for equal values.

Shortcut 4 is exact because a slot's outcome depends only on the state
entering it, the levels and the active node, while the harvest and load
are constant: when that state recurs within a segment, every later slot of
the segment repeats the slots since its first visit.  ``run`` looks for the
recurrence only where no batch of shortcut 5 can be.  A slot that hands
nothing over and leaves every level as it was is a fixed point, found in
that slot.  ``steer`` is called only after a handover, so a fixed point
repeats to the segment's end in a steered run too, under one offered load.
Without ``steer``, after each handover ``run`` keeps the state entering
the next slot in a dict of the segment, keyed by ``(active, *levels)``, so
an orbit that hands over is found where it first comes back; the dict
holds at most ``_KEPT_STATES`` states and is emptied when full, which
bounds its memory on a run that never repeats.  A controller has state of
its own, so a steered orbit that hands over is not looked for, and neither
is an orbit of period 2 or more without a handover: the run simulates
them.  Two states match only when their levels are equal in type and
bits, not just in value: ``-0.0 == 0.0`` and ``5 == Fraction(5)``, but each
pair prints and computes differently.  ``_same_levels`` is that test;
``_claim_holds`` uses it too, for list columns.  On a repeat ``run`` copies
the whole periods that fit before the segment's end, and the loop takes
the rest, less than a period, from the live state objects, which the next
segment starts from: a float column may have turned an int level into a
float.  ``verify_trace`` checks every slot of a ``Fraction`` trace, the
copied ones included; shortcut 6 skips them in float traces.

Shortcut 5 is exact because a plain slot applies the slot rule's own
operations to each level, in the rule's order, and the stretch ends at the
first slot whose state the columns show is not plain; that slot takes the
slot rule.  A plain slot hands nothing over, so no batch calls ``steer``,
which ``run`` calls only after a handover, and the load stays the same
across a batch.  It also leaves shortcut 4 as it is: no state a batch
enters follows a handover or is a fixed point, since ``_plain_stretch``
refuses a batch whose last slot moves no level and leaves the fixed point
to the slot rule.  A batch costs more than the slots it skips when the
stretch is short, so one starts only where the stretch predicted from the
leads and the per-slot rates reaches ``batch._BREAK_EVEN`` slots;
``Fraction`` runs, whose additions are Python calls either way, take every
slot.

Shortcut 6 is exact because the pass clears a slot only where it has
recomputed, with the slot rule's and the ledger's own operations in their
order, what the per-slot check would find there; every slot or ledger row
it does not clear goes through that check, in slot order, so the list of
problems is the same.  It makes no use of shortcut 5, which it checks.
The copied slots it leaves out are those of claims that hold, lie within
one input segment and enter their first copy with the forwarder that
entered their first period (``_copied_slots``): each such slot has the
bits, previous forwarder, inputs and ledger row of a slot one period
earlier, so the full audit finds a problem only where the short one finds
one too, and on any problem ``verify_trace`` returns the full audit's
list.  ``Fraction`` traces take every slot, claims or not.

A trace file has one layout, ``_trace_header(n)`` over one row per slot
from 0: ``write_trace_csv`` writes it, and ``read_trace_csv`` accepts no
other.  The writer formats ``_CSV_CHUNK`` rows per ``%`` call, each
distinct packets value of a float chunk once, the levels of a float chunk
once where the exchange left them all unchanged, and copies the text of
each stretch ``_claim_holds`` confirms.  The reader splits the rows itself,
with no ``csv`` module, parses each distinct row text once per chunk of
lines, so the rows of a copied stretch cost it little more than their slot
numbers, and takes a post column with its pre column's text from the pre
values.
"""

from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_right
from fractions import Fraction
from itertools import (accumulate, chain, compress, cycle, islice, pairwise,
                       repeat)
from typing import Callable, Optional, Sequence

from .audit import _CHUNK, _column_pass
from .batch import _plain_stretch
from .model import (
    FRACTIONAL,
    NUMBER_TYPES,
    WHOLE,
    CycleStats,
    Profile,
    RunSummary,
    SystemParams,
    Trace,
    _int_zero,
    _left_sum,
    _number_types,
    _run_segments,
    _same_levels,
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

# the most handover states a segment of a run keeps for shortcut 4; a full
# set is dropped, which bounds its memory on a run that never repeats
_KEPT_STATES = 4096


def _level_column(floats: bool = True):
    """An empty column of battery levels or packet counts: ``array('d')``
    for floats, a list for anything else (``Fraction`` values, or whole
    packet counts, which stay ints)."""
    return array("d") if floats else []


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
                gap = demand - ev
                if gap:
                    share = spare / gap
                    share = 0 if share < 0 else (1 if share > 1 else share)
                else:
                    # a Fraction harvest under a float load: demand > ev,
                    # but the gap rounds to 0.0; spare / gap tends to
                    # +-inf, clipped to 1 or 0
                    share = 1 if spare > 0 else 0
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
    load is a controller's: ``steer(k, active, harvest)`` is called once
    after each slot ``k`` whose exchange handed over, in slot order, with
    the new forwarder and that slot's harvest rates, and returns the load
    from slot ``k + 1`` on (the slots up to the first handover get
    ``params.input_rate``).  The profile's loads are then ignored, and the
    trace carries the effective profile: the harvest used and the load
    actually offered, with a new segment wherever the harvest changes or
    ``steer`` returns another object than the load before.
    Profile cells and steered loads must be ints, floats or Fractions; a
    run whose inputs are all floats or ints stores floats, so there a
    steered load must be a float or an int.  Loads are checked at the end.

    The inputs are constant over each profile segment (a run without a
    profile is one segment), but for the loads ``steer`` returns after a
    handover.  Once a slot without a handover leaves every level as it
    was, or, without ``steer``, the state after a handover comes back
    within a segment, ``run`` copies the whole periods that fit before the
    segment's end instead of simulating them, and records the stretch to
    that end in ``trace.cycles`` (shortcut 4 in the module docstring).  A
    run of floats and ints, with ``steer`` or without, advances each long
    stretch of plain slots, with a fixed forwarder and no handover, part
    duty or clip, as whole columns (shortcut 5); a plain slot hands
    nothing over, so no batch calls ``steer``.  Either way the trace is the
    one the per-slot loop gives, bit for bit.  ``n_slots`` must be an int.
    """
    levels, first = default_state(params, packet_mode, initial_batteries,
                                  initial_active)
    if profile is not None:
        if profile.n_nodes != params.n_nodes:
            raise ValueError("profile node count does not match parameters")
        if n_slots is None:
            n_slots = profile.length
    elif n_slots is None:
        raise ValueError("n_slots required when no profile is given")
    if type(n_slots) is not int:
        raise ValueError(f"n_slots must be an int, got {n_slots!r}")
    if n_slots < 1:
        raise ValueError("n_slots must be at least 1")
    segments = _run_segments(params, profile, n_slots)

    n = params.n_nodes
    whole = packet_mode == WHOLE
    # every number a run stores comes out a float when the levels, energies
    # and loads it starts from are all floats or ints
    floats = _number_types(params, profile, levels) <= {float, int}
    slot = _slot_rule(params, whole)
    stretch = _plain_stretch(params, whole) if floats else None
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
    columns = ((pre_flat, n), (post_flat, n), (packets, 1), (active, 1),
               (switched, 1), (suppressed, 1))

    # (start, period, stop) of each tiled stretch
    cycles = []
    pre, v = levels, first
    start = 0
    for e, load, length in segments:
        end = start + length
        if steer is None:
            g = load
        since = start           # first slot of the current steered load
        # shortcut 4: the state entering the slot after each handover of an
        # unsteered run, by (active, *levels), with that slot
        seen = {}
        # shortcut 5: after slot try_at, the plain slots that follow may be
        # batched
        try_at = start if stretch else end
        slots = iter(range(start, end))
        for k in slots:
            add_pre(pre)
            post, nxt, w, sw, pk, quiet = slot(pre, v, e, g)
            add_post(post)
            add_packets(pk)
            add_active(w)
            add_switched(sw)
            add_suppressed(quiet << v)
            v = w
            at = None           # where the state entering slot k + 1 was
            if not sw:
                if nxt == pre and _same_levels(nxt, pre):
                    at = k      # a fixed point
            elif steer is None:
                if len(seen) == _KEPT_STATES:
                    seen.clear()
                at, was = seen.setdefault((v, *nxt), (k + 1, nxt))
                if was is nxt or not _same_levels(was, nxt):
                    at = None
            else:
                new = steer(k, v, e)
                if new is not g:
                    offered.append((e, g, k + 1 - since))
                    since, g = k + 1, new
            pre = nxt
            if at is not None and k + 1 < end:
                # the segment repeats slots at to k from slot k + 1 on:
                # whole periods are copied, and the loop takes the rest
                period = k + 1 - at
                skip = (end - k - 1) // period * period
                for column, width in columns:
                    _tile(column, at * width, (k + 1) * width,
                          (k + 1 + skip) * width)
                cycles.append((at, period, end))
                seen.clear()
                next(islice(slots, skip, skip), None)
                continue
            if k < try_at:
                continue
            m, wait, states, posts, pk = stretch(pre, v, e, g, end - k - 1)
            if not m:
                try_at = k + wait
                continue
            block = [0] * (m * n)
            for u, col in enumerate(states):
                block[u::n] = col[:m]
            pre_flat.extend(block)
            for u, col in enumerate(posts):
                block[u::n] = col[:m]
            post_flat.extend(block)
            packets.extend([pk] * m)
            active.frombytes(bytes((v,)) * m)
            switched.frombytes(bytes(m))
            suppressed.frombytes(bytes(m))
            pre = [col[m] for col in states]
            next(islice(slots, m, m), None)
            try_at = k + m + 1
        start = end
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
    return Trace(packet_mode=packet_mode, initial_active=first,
                 params=params, profile=profile,
                 battery_pre=tuple(pre_flat[u::n] for u in range(n)),
                 battery_post=tuple(post_flat[u::n] for u in range(n)),
                 active=active, switched=switched, packets=packets,
                 suppressed=suppressed, cycles=tuple(cycles))


# the unsigned memoryview format of each array item size, for comparing
# array entries by their bits
_WORDS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _claim_holds(trace: Trace, claim) -> bool:
    """Whether ``claim``, one of ``trace.cycles``, is borne out by the
    columns: ``(start, period, stop)`` ints with ``0 <= start``, ``period
    >= 1`` and ``start + period <= stop <= len(trace)``, and every column,
    each ``len(trace)`` entries long as ``Trace`` ensures, equal from entry
    ``start + period`` to ``stop`` to itself ``period`` entries earlier.
    Arrays are compared by their bits, since ``-0.0 == 0.0``: as
    ``memoryview(col).cast("B")`` byte slices, taken a word of the item
    size at a time; other columns entry by entry, by identity or else by
    type and repr (see ``_same_levels``).  Neither copies a column, and a
    claim that fails costs its reader only speed."""
    if not (type(claim) is tuple and len(claim) == 3
            and all(type(x) is int for x in claim)):
        return False
    start, period, stop = claim
    if not 0 <= start < start + period <= stop <= len(trace):
        return False
    for column in (*trace.battery_pre, *trace.battery_post, trace.active,
                   trace.switched, trace.packets, trace.suppressed):
        if isinstance(column, array):
            words = memoryview(column).cast("B").cast(
                _WORDS[column.itemsize])
            if words[start + period:stop] != words[start:stop - period]:
                return False
        elif not (all(map(operator.is_, islice(column, start + period, stop),
                          islice(column, start, stop - period)))
                  or _same_levels(column[start + period:stop],
                                  column[start:stop - period])):
            return False
    return True


def _copied_slots(trace: Trace, segments) -> list:
    """For each of ``segments``, the trace's ``input_segments()``, the
    ``(start + period, stop - 1)`` slot ranges of the claims of
    ``trace.cycles`` whose copied slots the audit may leave out: the claim
    holds (``_claim_holds``), slots ``start`` to ``stop`` lie in the
    segment, and the forwarder entering slot ``start + period`` is the one
    entering ``start``.  Each slot of such a range then repeats slot for
    slot, previous forwarder and inputs included, one a period earlier,
    and so does its ledger row; slot ``stop - 1`` keeps its own, since that
    row reads ``battery_pre[stop]``."""
    ends = list(accumulate(length for _, _, length in segments))
    skips = [[] for _ in segments]
    active = trace.active
    for claim in trace.cycles:
        if not _claim_holds(trace, claim):
            continue
        start, period, stop = claim
        i = bisect_right(ends, start)       # the segment of slot start
        before = active[start - 1] if start else trace.initial_active
        if (stop <= ends[i] and active[start + period - 1] == before
                and start + period < stop - 1):
            skips[i].append((start + period, stop - 1))
    return skips


# ---------------------------------------------------------------------------
# trace statistics
# ---------------------------------------------------------------------------

def _node_totals(active, packets, n) -> list:
    """Packets per node, each summed in slot order from 0."""
    totals = [0] * n
    for a, p in zip(active, packets):
        totals[a] = totals[a] + p
    return totals


def _rotation_bounds(trace: Trace, first: int) -> list:
    """The entries from ``first`` on whose exchange handed the forwarding
    role to node 1; each pair of neighbours bounds one rotation."""
    active = trace.active
    return [i for i in compress(range(first, len(trace)),
                                trace.switched[first:])
            if active[i] == 0]


def _warmup_end(trace: Trace, warmup) -> int:
    """The first entry after ``warmup`` slots, an int >= 0."""
    if type(warmup) is not int or warmup < 0:
        raise ValueError(f"warmup must be an int >= 0, got {warmup!r}")
    return min(warmup, len(trace))


def detect_cycles(trace: Trace, *, warmup: int = 0) -> list[CycleStats]:
    """Split the trace at handovers to node 1 and measure each full
    rotation of the forwarding role after the first ``warmup`` slots."""
    bounds = _rotation_bounds(trace, _warmup_end(trace, warmup))
    n = trace.n_nodes
    return [CycleStats(
        length=b - a,
        active_slots=tuple(trace.active[a:b].count(u) for u in range(n)),
        packets=tuple(_node_totals(trace.active[a:b], trace.packets[a:b], n)),
        drift=tuple(col[b] - col[a] for col in trace.battery_pre),
        start_slot=a,
    ) for a, b in pairwise(bounds)]


def summarize(trace: Trace, warmup: int = 0) -> RunSummary:
    """Statistics of the trace's slots after the first ``warmup``: packets
    per node (each a left fold in slot order), throughput, handovers, and
    the count and mean length of the rotations ``detect_cycles`` finds.
    The rotation lengths telescope, so their mean is the span from the
    first handover to node 1 to the last over their count, the same int
    over int as the sum of the lengths over the count, without building
    the rotations."""
    first = _warmup_end(trace, warmup)
    slots = len(trace) - first
    per_node = _node_totals(trace.active[first:], trace.packets[first:],
                            trace.n_nodes)
    total = _left_sum(per_node)
    bounds = _rotation_bounds(trace, first)
    count = max(len(bounds) - 1, 0)
    mean_len = (bounds[-1] - bounds[0]) / count if count else None
    return RunSummary(
        slots=slots,
        packets_total=total,
        throughput=total / slots if slots else 0.0,
        per_node_packets=tuple(per_node),
        switch_count=sum(trace.switched[first:]),
        cycle_count=count,
        mean_cycle_length=mean_len,
    )


def energy_ledger(trace: Trace):
    """Per-record, per-node residual of the slot energy balance.

    For each consecutive record pair the change in a node's battery must
    equal harvest minus status cost minus handover cost minus transmit
    energy.  A nonzero residual is only legitimate when the ceiling clipped
    the charge: the level lands exactly on the capacity and the shortfall is
    the discarded surplus, so the residual is negative.  A positive residual
    is energy from nowhere and never legitimate.  Returns a list of
    (slot, node, residual, clipped_at_cap) tuples, from the trace's own
    ``params`` and inputs.
    """
    if trace.params is None:
        raise ValueError("parameters required to audit a bare trace")
    return list(_ledger_rows(trace, trace.inputs()[0]))


def _ledger_rows(trace: Trace, harvest, slots=None):
    """The rows of ``energy_ledger``, one at a time; ``harvest`` holds the
    slots' harvest rates.  An absent charge (the status of a suppressed
    node, the handover of a slot without one, the spend of an idle node, a
    cost of int 0) is left out rather than subtracted.  ``slots``, a list
    of ascending slots before the last, takes only their rows, with
    ``harvest`` holding their rates."""
    p = trace.params
    c, status, switch = p.packet_energy, p.status_energy, p.switch_energy
    cap = p.battery_capacity
    nodes = range(p.n_nodes)
    if _int_zero(status):
        status = None
    if _int_zero(switch):
        switch = None
    columns = (trace.active, trace.switched, trace.packets, trace.suppressed)
    if slots is None:
        rows = zip(trace.slots, pairwise(zip(*trace.battery_pre)), *columns,
                   harvest)
    else:
        after = [k + 1 for k in slots]
        rows = zip(slots, zip(zip(*_at(trace.battery_pre, slots)),
                              zip(*_at(trace.battery_pre, after))),
                   *_at(columns, slots), harvest)
    for slot, (a, b), v, switched, packets, mask, e in rows:
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


def _at(columns, slots: list) -> list:
    """For each of ``columns``, an iterator over its entries ``slots``."""
    return [map(column.__getitem__, slots) for column in columns]


def verify_trace(trace: Trace, *, tol: float = 1e-9) -> list[str]:
    """Audit a finished trace against the model rules.

    Replays every slot from its own recorded levels and checks the handover
    decision, control charges, packet count and resulting levels, plus
    battery bounds and the energy balance.  Returns human-readable
    violation strings, the replay's in slot order and then the energy
    balance's; an empty list means the trace follows the model.
    The run's context comes from the trace alone: ``params``,
    ``packet_mode``, ``initial_active`` and ``profile``.  A trace that
    lacks one of the first three, such as a re-read one, raises a
    ``ValueError``.  ``Trace`` has checked the columns' shape and context.

    A trace of floats and ints, its levels in ``array('d')`` and its flags
    in ``array('B')`` columns as ``run`` and ``read_trace_csv`` store them,
    audited at ``tol >= 0``, first goes through a column pass a chunk of
    slots at a time (shortcut 6, see ``audit``): it clears the plain slots
    and the balanced ledger rows in C, and only the rest are replayed and
    balanced one at a time.  The pass leaves out the copied slots of each
    claim in ``trace.cycles`` that ``_copied_slots`` confirms, all but the
    first period of the stretch and its last slot; if that short audit
    finds any problem, the full one runs and gives the list.
    ``Fraction`` runs, traces built from lists and audits at a negative
    ``tol`` take the per-slot check alone, every slot of it.  The list is
    the same either way, string for string and in the same order.  A
    non-finite level is reported as outside ``[0, capacity]``.
    """
    missing = [name for name in ("params", "packet_mode", "initial_active")
               if getattr(trace, name) is None]
    if missing:
        raise ValueError(f"trace lacks its run's {', '.join(missing)}; put "
                         f"the context back with dataclasses.replace")
    p = trace.params
    problems, unbalanced = [], []
    report = problems.append
    nodes = range(p.n_nodes)
    low, high = -tol, p.battery_capacity + tol
    slot_rule = _slot_rule(p, trace.packet_mode == WHOLE)
    # equal values pass a tol >= 0 without computing abs(want - got) = 0,
    # for types whose values are finite
    finite = _FINITE if tol >= 0 else ()

    def replay(rows):
        for slot, prev_active, pre, post, v, switched, packets, mask, e, g \
                in rows:
            for u in nodes:
                # a nan level fails both comparisons, so it is reported too
                if not low <= pre[u] <= high:
                    report(f"slot {slot}: node {u + 1} level {pre[u]} "
                           f"outside [0, capacity]")
            try:
                want_post, _, want_v, want_switched, want_packets, \
                    want_quiet = slot_rule(pre, prev_active, e, g)
            except ValueError:
                # whole-packet mode cannot floor the nan packet count of a
                # nan level, reported above, so the slot has no replay
                continue
            if want_switched != switched or want_v != v:
                report(f"slot {slot}: handover decision does not follow "
                       f"from the recorded levels")
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

    def balance(rows):
        for slot, u, resid, at_cap in rows:
            if resid == 0 <= tol or abs(resid) <= tol:
                continue
            if at_cap and resid < 0:
                continue          # surplus harvest discarded at the ceiling
            unbalanced.append(f"slot {slot}: node {u + 1} energy balance off "
                              f"by {resid}")

    pre, post = trace.battery_pre, trace.battery_post
    columns = (trace.active, trace.switched, trace.packets, trace.suppressed)
    audit = _column_pass(trace, tol)
    if audit is None:
        harvest, rates = trace.inputs()
        replay(zip(trace.slots, chain((trace.initial_active,), trace.active),
                   zip(*pre), zip(*post), *columns, harvest, rates))
        balance(_ledger_rows(trace, trace.inputs()[0]))
        return problems + unbalanced

    def audited(skips):
        """The column pass over every slot outside the ``(a, b)`` ranges
        of ``skips``, a list per segment, and the per-slot check over what
        it leaves."""
        problems.clear()
        unbalanced.clear()
        start = 0
        for (e, g, length), skipped in zip(segments, skips):
            end = start + length
            done = start
            for a, b in chain(sorted(skipped), ((end, end),)):
                for i in range(done, a, _CHUNK):
                    redo, rebalance = audit(i, min(i + _CHUNK, a), e, g)
                    prev = [trace.active[k - 1] if k else trace.initial_active
                            for k in redo]
                    replay(zip(redo, prev, zip(*_at(pre, redo)),
                               zip(*_at(post, redo)), *_at(columns, redo),
                               repeat(e), repeat(g)))
                    balance(_ledger_rows(trace, repeat(e), rebalance))
                done = max(done, b)
            start = end
        return problems + unbalanced

    segments = trace.input_segments()
    skips = _copied_slots(trace, segments)
    found = audited(skips)
    if found and any(skips):
        # the full audit lists each problem of a copied slot too
        found = audited([()] * len(segments))
    return found


# ---------------------------------------------------------------------------
# trace persistence
# ---------------------------------------------------------------------------

# rows write_trace_csv formats in one % call, and lines read_trace_csv holds
# as text at once
_CSV_CHUNK = 1024


def _trace_header(n: int) -> list[str]:
    """The column names of an ``n``-node trace file, in their order."""
    return ["slot", "active", "switched", "packets"] + [
        f"{name}{u}" for name in ("battery_pre", "battery_post", "suppressed")
        for u in range(1, n + 1)]


def write_trace_csv(trace: Trace, path) -> None:
    """Node indices are 1-based in the file; floats keep full precision
    (``%.17g``).  Every column holds one entry per row, as ``Trace``
    ensures.  A trace of more than 8 nodes (or of none), or of no slot,
    whose file ``read_trace_csv`` would refuse, raises a ``ValueError``
    before the file is opened.

    The rows are formatted ``_CSV_CHUNK`` at a time, each chunk one ``%``
    call on the row template repeated.  A packets ``array('d')`` is
    formatted once per distinct value in a chunk, values told apart by
    their 64 bits, since ``-0.0 == 0.0``; a list column keeps its
    ``%.17g`` cell.  Where the exchange left every level of a chunk as it
    was, its ``array('d')`` post columns holding the bytes of its pre
    columns (with no status cost, every chunk), the pre levels are
    formatted once, by one ``%`` call over the chunk, and each row's text
    fills both its pre and its post block.  For each claim of
    ``trace.cycles`` that holds (``_claim_holds``) and starts past the
    stretch before it, the rows of its first period are formatted so:
    each later row up to its stop is its slot number and the text of the
    row one period earlier.  The file is the same either way."""
    n = trace.n_nodes
    if not 1 <= n <= 8:
        # the reader's flag columns are array('B'), one bit per node
        raise ValueError(f"{path}: a trace file holds 1 to 8 nodes, not {n}")
    if not len(trace):
        raise ValueError(f"{path}: a trace file holds at least one slot")
    # packets by distinct value only where the 64 bits are a double's
    keyed = isinstance(trace.packets, array) and trace.packets.typecode == "d"
    # levels shared by the pre and post blocks only where both are doubles
    doubles = all(isinstance(col, array) and col.typecode == "d"
                  for col in (*trace.battery_pre, *trace.battery_post))
    packets = "%s" if keyed else "%.17g"
    # the same text as csv.writer with %.17g floats
    row = ",".join(["%d"] * 3 + [packets] + ["%.17g"] * (2 * n)) + ",%s\r\n"
    # a row whose pre and post levels are one text each, and that text
    shared = ",".join(["%d"] * 3 + [packets, "%s", "%s", "%s"]) + "\r\n"
    levels = ",".join(["%.17g"] * n) + "\n"
    flags = [",".join(str(m >> u & 1) for u in range(n))
             for m in range(1 << n)]
    columns = (trace.active, trace.switched, trace.packets,
               *trace.battery_pre, *trace.battery_post, trace.suppressed)

    def text(a, b):
        """The text of entries ``a`` to ``b``, one string per chunk."""
        for i in range(a, b, _CSV_CHUNK):
            j = min(i + _CSV_CHUNK, b)
            cells = [col[i:j] for col in columns]
            cells[0] = map(operator.add, cells[0], repeat(1))
            if keyed:
                keys = memoryview(cells[2]).cast("B").cast("Q")
                texts = dict(zip(keys, cells[2]))
                texts = dict(zip(texts, map("%.17g".__mod__,
                                            texts.values())))
                cells[2] = map(texts.__getitem__, keys)
            cells[-1] = map(flags.__getitem__, cells[-1])
            pre, post = cells[3:3 + n], cells[3 + n:3 + 2 * n]
            # bits, not values: -0.0 == 0.0 prints apart, nan != nan
            if doubles and all(p.tobytes() == q.tobytes()
                               for p, q in zip(pre, post)):
                both = ((levels * (j - i)) % tuple(
                    chain.from_iterable(zip(*pre))))[:-1].split("\n")
                cells[3:3 + 2 * n] = both, both
                template = shared
            else:
                template = row
            yield (template * (j - i)) % tuple(
                chain.from_iterable(zip(range(i, j), *cells)))

    done = 0                    # entries written
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_trace_header(n)) + "\r\n")
        for start, period, stop in sorted(
                c for c in trace.cycles if _claim_holds(trace, c)):
            if start < done:
                continue
            fh.writelines(text(done, start))
            first = "".join(text(start, start + period))
            fh.write(first)
            # each row less its slot number, the comma after it kept
            bodies = [line[line.index(","):] + "\r\n"
                      for line in first.split("\r\n")[:-1]]
            fh.writelines(map(operator.add,
                              map("%d".__mod__,
                                  trace.slots[start + period:stop]),
                              cycle(bodies)))
            done = stop
        fh.writelines(text(done, len(trace)))


def _not_a(path, column: str, kind: str, cell) -> ValueError:
    return ValueError(f"{path}: column {column!r} holds a value that is not "
                      f"{kind}: {cell!r}")


def _finite_cells(path, cells, column: str) -> list:
    """A level or packets column as floats.  Every cell must be a number
    as ``float`` reads it, less what ``float`` also skips and ``%.17g``
    never writes (whitespace, ``_`` and non-ASCII digits), and finite."""
    try:
        values = list(map(float, cells))
        plain = _plain("".join(cells))
    except ValueError:
        plain = False
    if not plain:
        bad = next(cell for cell in cells
                   if not (_plain(cell) and _is_float(cell)))
        raise _not_a(path, column, "a number", bad)
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{path}: column {column!r} holds a value that is "
                         f"not finite")
    return values


# the ASCII characters float() skips: whitespace, and "_" between digits
_SKIPPED = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f_"


def _plain(text: str) -> bool:
    """Whether ``text`` is ASCII without a character ``float`` skips."""
    return text.isascii() and not any(map(text.__contains__, _SKIPPED))


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _is_int(cell: str) -> bool:
    """Whether ``cell`` is an int as ``%d`` writes it."""
    try:
        return str(int(cell)) == cell
    except ValueError:
        return False


def _flag_cells(path, cells, column: str) -> list:
    """A switched or suppressed column as ints 0 and 1, read from the
    cells ``0`` and ``1`` only."""
    try:
        return list(map(_BITS.__getitem__, cells))
    except KeyError:
        raise ValueError(f"{path}: column {column!r} holds a value other "
                         f"than 0 or 1") from None


_BITS = {"0": 0, "1": 1}


def _node_cells(path, cells, n: int) -> list:
    """An active column as node indices from 0, read from the cells ``1``
    to ``n`` only."""
    nodes = {str(u + 1): u for u in range(n)}
    try:
        return list(map(nodes.__getitem__, cells))
    except KeyError:
        bad = next(cell for cell in cells if cell not in nodes)
    if _is_int(bad):
        raise ValueError(f"{path}: active node number out of range")
    raise _not_a(path, "active", "a node number", bad)


def _chunk_bodies(path, lines, first: int, width: int) -> tuple:
    """The rows of ``lines``, numbered from slot ``first``, each less its
    slot number and the comma after it, with the newline kept; every row
    must hold ``width`` cells after its slot number, and the slots count up
    by one."""
    slots, _, bodies = zip(*map(str.partition, lines, repeat(",")))
    distinct = dict.fromkeys(bodies)
    if not {width - 1}.issuperset(map(str.count, distinct, repeat(","))):
        k, line = next((k, line) for k, line in enumerate(lines)
                       if line.count(",") != width)
        text = line.rstrip("\n")
        cells = text.count(",") + 1 if text else 0
        raise ValueError(f"{path}: line {first + k + 2} has {cells} cells "
                         f"where the header has {width + 1}")
    if slots != tuple(map(str, range(first, first + len(lines)))):
        due, got = next((due, got) for due, got in enumerate(slots, first)
                        if got != str(due))
        if not _is_int(got):
            raise _not_a(path, "slot", "a slot number", got)
        raise ValueError(f"{path}: slot {got} where slot {due} is due; "
                         f"slots count up by one from 0")
    return bodies, distinct


def read_trace_csv(path) -> Trace:
    """Read a trace written by ``write_trace_csv``: the header must be
    ``_trace_header(n)`` for 1 to 8 nodes (the flag columns are
    ``array('B')``), and the slots count up by one from 0.

    The file is read ``_CSV_CHUNK`` lines at a time, so its text is never
    held whole.  In each chunk the rows less their slot numbers are
    collected with ``dict.fromkeys``, and only the distinct ones are split
    into cells and parsed: the rows of a stretch the writer copied (see
    ``trace.cycles``) are parsed once per chunk.  A post column whose
    cells there have the text of its pre column's takes the pre values, so
    a level the exchange left unchanged is parsed once too.  The columns
    then take each row's values by its index among them; the post columns
    are arrays of their own either way.

    Every row must be as wide as the header, levels and packets numbers
    ``float`` reads and finite, active nodes written as ``1`` to ``n`` and
    flags ``0`` or ``1``; a file that breaks one of these rules raises a
    ``ValueError`` naming the file, and the column where a cell is at
    fault.  The trace is bare: the file holds no ``params``,
    ``packet_mode``, ``initial_active`` or ``profile``."""
    packets = _level_column()
    active, switched, suppressed = (array("B") for _ in range(3))
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        n = (len(header) - 4) // 3
        if not (1 <= n <= 8 and header == _trace_header(n)):
            raise ValueError(f"{path}: header {','.join(header)!r} is not a "
                             f"trace header for 1 to 8 nodes")
        levels = tuple(_level_column() for _ in range(2 * n))
        names = header[1:]
        width = len(names)          # cells after the slot number
        for lines in iter(lambda: list(islice(fh, _CSV_CHUNK)), []):
            if not lines[-1].endswith("\n"):
                lines[-1] += "\n"
            bodies, distinct = _chunk_bodies(path, lines, len(active),
                                             width)
            # the cells of the distinct rows, row after row, and one "" at
            # the end; column j holds every width-th cell from cell j
            cells = "".join(distinct).replace("\n", ",").split(",")
            columns = [cells[j:-1:width] for j in range(width)]
            named = list(zip(columns, names))
            values = [_node_cells(path, columns[0], n),
                      _flag_cells(path, *named[1])]
            values += [_finite_cells(path, *c) for c in named[2:3 + n]]
            # a post column with its pre column's text has its values
            values += [values[j - n] if columns[j] == columns[j - n]
                       else _finite_cells(path, *named[j])
                       for j in range(3 + n, 3 + 2 * n)]
            # bit u of each slot's mask is node u's suppressed flag
            masks = repeat(0)
            for u, c in enumerate(named[3 + 2 * n:]):
                masks = map(operator.or_, masks,
                            map(operator.lshift, _flag_cells(path, *c),
                                repeat(u)))
            values.append(list(masks))
            if len(distinct) < len(bodies):
                # each row's values, by its index among the distinct rows
                pick = operator.itemgetter(*map(
                    dict(zip(distinct, range(len(distinct)))).__getitem__,
                    bodies))
                values = list(map(pick, values))
            for column, got in zip((active, switched, packets, *levels,
                                    suppressed), values):
                column.fromlist(list(got))
    if not active:
        raise ValueError(f"{path}: empty trace")
    return Trace(battery_pre=levels[:n], battery_post=levels[n:],
                 active=active, switched=switched, packets=packets,
                 suppressed=suppressed)
