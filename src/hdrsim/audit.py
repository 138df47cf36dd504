"""Shortcut 6 of ``engine.verify_trace``: the audit's column pass over a
trace of floats and ints.

Most slots of a run are plain: the forwarder keeps the role, reports its
status and carries the full load.  For such a slot the replay of
``engine._slot_rule`` comes down to a few operations on the recorded
levels, the same ones for every plain slot of one forwarder under one
harvest and load, and so does each row of the energy balance of
``engine._ledger_rows``.  ``_column_pass`` applies those operations to a
chunk of slots at a time, one ``map`` or ``min``/``max`` per operation, in
the rule's and the ledger's own order, and clears a slot or a ledger row
only where it finds what the per-slot check would find there.  Every slot
and row it does not clear goes through the per-slot check, so the audit
lists the same problems with the pass as without it.

The pass restates the conditions of a plain slot and does not call
``batch._plain_stretch``, whose batches it checks.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from itertools import compress, repeat
from operator import ge, gt, itemgetter, lt, mul, ne, sub

from .model import WHOLE, Trace, _int_zero, _number_types

__all__: list = []


# slots the pass takes at a time: it holds a few columns of that many
# levels, which bounds its memory, and numbers the slots from 0, so each
# number is one of the small ints Python keeps cached
_CHUNK = 128
# levels at most this far from 0 keep every difference of two finite
_HUGE = 2.0 ** 1022
# a bytes.translate table that sets every bit of a nonzero byte
_SET = bytes([0] + [255] * 255)


def _mask(flags: bytes) -> int:
    """``flags``, one byte per slot, as an int with every bit of each
    nonzero byte set."""
    return int.from_bytes(flags.translate(_SET), "little")


def _getter(slots: list):
    """A function taking a column to its entries ``slots``, as a tuple."""
    if len(slots) == 1:
        k, = slots
        return lambda column: (column[k],)
    return itemgetter(*slots)


def _column_pass(trace: Trace, tol):
    """The column pass over ``trace`` as a function ``audit(i, j, e, g)
    -> (replay, ledger)``, or None for a trace it does not take.

    The pass takes a trace whose level columns are ``array('d')`` and
    whose flag columns are ``array('B')``, whose parameters and profile
    hold only floats and ints, audited at ``tol >= 0``.  ``audit`` looks at
    slots ``i`` to ``j`` of one input segment, with harvest ``e`` and load
    ``g``, and returns the lists, in slot order, of those slots whose
    replay, and whose ledger rows, it did not clear.  It clears none in a
    chunk where a level is not finite, or further than ``_HUGE`` from 0:
    the per-slot check reports a ``nan`` or an ``inf`` even where the
    recorded bits are the ones it computes, and below ``_HUGE`` no
    difference of two levels overflows, so no residual the pass takes is
    ``nan``.

    A slot's replay is cleared when the slot before it had the same
    forwarder ``v``, the flags show no handover and no quiet node, every
    level lies within the audit's bounds, no candidate's lead ``pre[u] -
    pre[v]`` reaches ``v``'s bar, ``v`` reports, is not broke and runs at
    full duty (``spare / gap >= 1`` where the demand exceeds its harvest),
    every post-exchange level is ``pre[u] - status`` (``pre[u]`` for a
    status of int 0), and the packets equal the rule's full-duty value ``1
    * g + 0 * e[v] / c``, floored in whole-packet mode.  Equal finite
    values pass the per-slot comparisons at any ``tol >= 0``.  The tests
    of ``v``'s level are monotone in it, so the least level of ``v``'s
    slots decides them for all.

    A ledger row is cleared when ``abs(resid) <= tol``, with ``resid``
    taken as ``_ledger_rows`` takes it, ``(b - a) - expect``, and
    ``expect`` the node's harvest less its status, the handover charge in
    a slot that hands over, and its spend ``c * packets`` where it
    forwards, each term left out where the ledger leaves it out.  A slot
    with a quiet node, or whose packets are not the full-duty value, keeps
    its rows for the per-slot check.  ``expect`` is then the same for all
    of a node's rows of one kind, and ``x - expect`` is monotone in ``x``,
    so the least and greatest ``b - a`` of the kind decide them all; a
    packets column that is a list is spent entry by entry, as held."""
    p = trace.params
    flags = (trace.active, trace.switched, trace.suppressed)
    if not (tol >= 0 and _number_types(p, trace.profile) <= {float, int}
            and all(type(col) is array and col.typecode == "d"
                    for col in (*trace.battery_pre, *trace.battery_post))
            and all(type(col) is array and col.typecode == "B"
                    for col in flags)):
        return None

    n = p.n_nodes
    nodes = range(n)
    whole = trace.packet_mode == WHOLE
    policy = p.thresholds
    bars = [policy.threshold_from(v) for v in nodes]
    successors = [policy.candidates(v) for v in nodes]
    c, status, switch = p.packet_energy, p.status_energy, p.switch_energy
    floor = p.control_floor
    pay_status = not _int_zero(status)
    pay_switch = not _int_zero(switch)
    pay_floor = not _int_zero(floor)
    low, high = -tol, p.battery_capacity + tol
    pre, post = trace.battery_pre, trace.battery_post
    active, switched, suppressed = flags
    packets = trace.packets
    # the spend of a full-duty slot is c * x for an x equal to the full-duty
    # value; a float column holds it as a float
    floats = type(packets) is array
    first = trace.initial_active
    last = len(trace) - 1               # the slot without a ledger row
    # bytes.translate tables that set every bit of each slot of a forwarder
    marks = [bytes(255 if b == v else 0 for b in range(256)) for v in nodes]

    def duty(x, ev, demand):
        """Whether a forwarder with level ``x`` entering a slot, under
        harvest ``ev`` and demand ``demand``, reports its status, is not
        broke and runs at full duty, as the slot rule decides each."""
        if not x >= floor:
            return False
        if pay_status:
            x = x - status
        if x < floor:
            return False
        if demand <= ev:
            return True
        spare = x - floor if pay_floor else x
        gap = demand - ev
        return spare / gap >= 1 if gap else spare > 0

    def audit(i, j, e, g):
        size = j - i
        chunk = range(size)             # the slots, numbered from i
        rows = min(size, last - i)      # the slots with ledger rows
        replay, ledger = set(), set()
        # each node's levels entering the slots, and the slot after them
        # where there is one
        levels = []
        for col in pre:
            seq = col[i:j + 1]
            lo, hi = min(seq), max(seq)
            if not (math.isfinite(sum(seq)) and -_HUGE <= lo
                    and hi <= _HUGE):
                return list(range(i, j)), list(range(i, i + rows))
            if not (low <= lo and hi <= high):
                replay.update(k for k, x in zip(chunk, seq)
                              if x < low or x > high)
            levels.append(seq)

        # handovers, quiet nodes and forwarders that change without a
        # handover go to the per-slot replay, and slots whose ledger rows
        # carry a charge to the per-slot ledger
        act = active[i:j].tobytes()
        before = (active[i - 1:j - 1].tobytes() if i
                  else bytes((first,)) + active[:j - 1].tobytes())
        handovers = _mask(switched[i:j].tobytes())
        quiet = _mask(suppressed[i:j].tobytes())
        moved = _mask((int.from_bytes(act, "little") ^ int.from_bytes(
            before, "little")).to_bytes(size, "little"))
        skip = handovers | quiet | moved
        skipped = list(compress(chunk, skip.to_bytes(size, "little")))
        replay.update(skipped)
        if pay_status and quiet:
            # a quiet node's rows leave its status out
            ledger.update(compress(chunk, quiet.to_bytes(size, "little")))
        for seq, col in zip(levels, post):
            got = col[i:j]
            if not pay_status and seq[:size].tobytes() == got.tobytes():
                continue
            got = got.tolist()
            want = (list(map(sub, seq[:size], repeat(status))) if pay_status
                    else seq[:size].tolist())
            if want != got:
                # skipped slots have posts of their own
                for k in skipped:
                    got[k] = want[k]
                if want != got:
                    replay.update(compress(chunk, map(ne, want, got)))
            del got, want

        demand = c * g
        forwarders = [int.from_bytes(act.translate(mark), "little")
                      for mark in marks]
        fulls = []
        for v in nodes:
            ev = e[v]
            full = 1 * g + 0 * ev / c
            fulls.append(math.floor(full) if whole else full)
            mine = forwarders[v] & ~skip
            if not mine:
                continue
            slots = list(compress(chunk, mine.to_bytes(size, "little")))
            get = _getter(slots)
            pv, bar = get(levels[v]), bars[v]
            for u in successors[v]:
                pu = get(levels[u])
                if not max(map(sub, pu, pv)) < bar:
                    replay.update(compress(slots, map(
                        ge, map(sub, pu, pv), repeat(bar))))
                del pu
            if not duty(min(pv), ev, demand):
                # the slots below the least level that passes
                ordered = sorted(pv)
                least = bisect_left(ordered, True,
                                    key=lambda x: duty(x, ev, demand))
                cut = (ordered[least] if least < len(ordered)
                       else math.inf)
                replay.update(compress(slots, map(lt, pv, repeat(cut))))
            del slots, get, pv
        pk = packets[i:j]
        if len(set(fulls)) == 1:
            full = fulls[0]
            same = (pk.tobytes() == array("d", [full]).tobytes() * size
                    if floats else pk.count(full) == size)
            odd = [] if same else list(compress(chunk, map(
                ne, pk, repeat(full))))
        else:
            odd = list(compress(chunk, map(ne, pk, map(fulls.__getitem__,
                                                        act))))
        replay.update(odd)
        ledger.update(odd)

        # each node's rows by the terms of their expect: whether the slot
        # hands over, and whether the node forwards in it
        plain = ((1 << 8 * rows) - 1) & ~(quiet if pay_status else 0)
        for k in odd:
            plain &= ~(255 << 8 * k)
        groups = ([(plain & ~handovers, False), (plain & handovers, True)]
                  if pay_switch else [(plain, False)])
        for u in nodes:
            seq = levels[u]
            diff = list(map(sub, seq[1:rows + 1], seq[:rows]))     # b - a
            charge = e[u] - status if pay_status else e[u]
            for group, handover in groups:
                base = charge - switch if handover else charge
                for mine, forwards in ((group & ~forwarders[u], False),
                                       (group & forwarders[u], True)):
                    if not mine:
                        continue
                    picked = mine.to_bytes(rows, "little")
                    part = list(compress(diff, picked))
                    expect = base
                    if forwards and floats:
                        expect = base - c * float(fulls[u])
                    elif forwards:
                        # ints or whatever the list holds, spent as held
                        part = list(map(sub, part, map(sub, repeat(base), map(
                            mul, repeat(c), compress(pk, picked)))))
                        expect = 0
                    if not (-tol <= min(part) - expect
                            and max(part) - expect <= tol):
                        ledger.update(compress(compress(chunk, picked), map(
                            gt, map(abs, map(sub, part, repeat(expect))),
                            repeat(tol))))
                    del part
            del diff
        return (sorted(map(i.__add__, replay)),
                sorted(i + k for k in ledger if k < rows))

    return audit
