"""Shortcut 5 of ``engine.run``: the batches of a run of floats and ints,
each a stretch of plain slots advanced as whole columns, led by the
handover slot before it where that slot is clear.

A plain slot changes no forwarder and clips no level, so over a stretch of
them each level repeats the slot rule's own operations, and one
``itertools.accumulate`` per node gives its levels in C.  A handover slot
applies the rule's exchange and charge once, to the levels that enter it.
``run`` asks ``_plain_stretch``'s function for the batch ahead whenever
its last prediction has run out, stores the columns it returns, and sends
each slot no batch takes through ``engine._slot_rule``.  The conditions of
a plain slot and of a clear handover restate part of that rule, so the
tests hold every batched run to a reference that steps the rule one slot
at a time.

The batches are exact because they apply the slot rule's own operations
to each level, in the rule's order: a handover that leads a batch goes to
the rule's target and charges what the rule charges, and its plain
stretch ends at the first slot whose state the columns show is not plain,
which the next batch or the slot rule takes.  A batch that starts with a
handover calls ``steer`` for it, once and in slot order, before it builds
the stretch under the load ``steer`` returns; a plain slot hands nothing
over, so the load stays the same across the stretch.  Without ``steer``,
``run`` keeps the state entering the slot after that handover for its
limit-cycle check (shortcut 4), as after any other, and where that state
came back it keeps only the handover and tiles.  No later state a batch
enters follows a handover or is a fixed point, since a stretch whose last
slot moves no level is refused and the fixed point left to the slot rule.
A batch costs more than the slots it skips when it is short, so none
starts within ``_BREAK_EVEN`` slots of a segment's end, and a stretch with
no handover in front only where the leads and the per-slot rates predict
that many slots.  ``Fraction`` runs, whose additions are Python calls
either way, take every slot.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from functools import reduce
from itertools import accumulate, compress, count, repeat

from .model import SystemParams, _int_zero

__all__: list = []


# No batch starts within this many slots of a segment's end, and a plain
# stretch with no handover in front of it starts only where it is
# predicted to last this many slots: on float diamonds and three-relay
# runs, a batch of 8 slots costs about what stepping them does, and longer
# ones cost less (see CHANGES.md).  The stretch after a handover is taken
# at any length, since the handover would take a slot-rule call too
_BREAK_EVEN = 8
# the most slots one batch builds, which bounds the columns it holds
_REACH = 1024


def _plain_stretch(params: SystemParams, whole: bool):
    """The batches of a run of floats and ints, as a function
    ``stretch(pre, v, e, g, limit, steer=None, k=0) -> (m, wait, batch)``.

    A slot is plain when node ``v`` forwards in it and before it: no idle
    node's lead reaches its bar, ``v`` reports its status and carries the
    full load, and no level is clipped at the floor or the cap, except a
    node already pinned at the cap, whose level stays the cap.  Over such
    slots each node repeats the slot rule's operations in its order,
    ``- status``, ``+ e[u]`` and for ``v`` the spend ``- c * packets``,
    less those of an int 0 (``x - 0`` keeps a ``-0.0`` that ``x + -0``
    does not).  IEEE defines ``x - y`` as ``x + -y``, so each node's levels
    are an ``itertools.accumulate`` in C, and they are monotone: every
    operation rounds monotonically.

    The first slot hands over where a lead of the state ``(pre, v)``
    reaches ``v``'s bar; the target is the one the rule picks, the largest
    such lead, a tie going to the candidate first in order.  Such a slot
    leads the batch where it is clear: its exchange and charge, the rule's
    ``- status``, ``- switch``, ``+ e[u]`` and the new forwarder's ``- c *
    packets``, worked out once, leave no level at or below the floor, so
    that no node is quiet and no charge meets the floor the rule does not
    check there, and none above the cap.  ``steer(k, w, e)`` is then
    called with the new forwarder ``w``, and the plain stretch after the
    handover is built under the load it returns.

    ``m`` counts the slots of the batch from the state ``(pre, v)`` on, at
    most ``limit``, and ``batch`` is ``(w, pres, posts, packets, nxt, last,
    g)``: the forwarder in every slot, each node's levels entering each
    slot and after its exchange, node by node in one list each, each slot's
    packets, the levels entering the second slot where the first hands
    over (else None) and those entering the slot after the batch, and the
    load after it.  Some level moves in the last plain slot, and so in
    every one, since a slot that leaves a level as it was leaves it so in
    every later one: no state the batch enters after its first slot is a
    fixed point.  Each condition of a plain slot is monotone along such
    columns, so the stretch ends at the first slot that fails one, found
    near the predicted end, except a lead between two levels that move the
    same way, which is scanned.

    ``m`` is 0, ``batch`` None and ``wait`` the slots to wait before asking
    again, when fewer than ``_BREAK_EVEN`` slots remain, when the load is
    not a float or an int, when the first slot hands over but is not
    clear, or when it does not and the stretch predicted from the leads
    and the rates of the first slot is shorter than ``_BREAK_EVEN``, or the
    columns show no plain slot, or no level that moves in the last one.
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
    pay_status = not _int_zero(status)
    pay_switch = not _int_zero(switch)
    pay_floor = not _int_zero(floor)
    nodes = range(n)
    add = operator.add
    refused = ((), (), None)
    # the harvest and load that the tables below were made for, and the
    # tables
    inputs = [None, None, None]

    def trends(gain, v):
        """The leads that close on forwarder ``v`` with the rate each
        closes at, and the levels that rise, each with its gain."""
        return ([(u, gain[u] - gain[v]) for u in successors[v]
                 if gain[u] > gain[v]],
                [(u, x) for u, x in enumerate(gain) if x > 0])

    def tables(e, g):
        """For each forwarder ``v`` under harvest ``e`` and load ``g``: its
        load and packets in a plain slot, each node's operations in such a
        slot and their count, the level ``v`` needs, nearly, to run it, and
        each node's gain in it, nearly, with its ``trends``; None for a
        load that is not a float or an int."""
        if type(g) not in (float, int):
            return None
        demand = c * g
        out = []
        for v in nodes:
            ev = e[v]
            packets = 1 * g + 0 * ev / c        # the rule's full duty
            if whole:
                packets = math.floor(packets)
            spend = c * packets if whole else demand
            ops = [(-status, x) if pay_status else (x,) for x in e]
            if not _int_zero(spend):
                ops[v] += (-spend,)
            gain = [x - status for x in e]
            gain[v] -= spend
            need = floor + status + (demand - ev if demand > ev else 0)
            out.append((demand, packets, ops, list(map(len, ops)), need, gain,
                        *trends(gain, v)))
        return out

    def stint(pre, v, e, g, limit, least):
        """``(m, wait, seqs, widths, packets)`` of the plain slots from the
        state ``(pre, v)`` on, none where fewer than ``least`` are
        predicted: each node's ``accumulate`` of its ``widths[u]``
        operations a slot, whose entry ``j * widths[u]`` is its level
        entering slot ``j``, and the packets of a plain slot."""
        if e is not inputs[0] or g is not inputs[1]:
            inputs[:] = e, g, tables(e, g)
        if inputs[2] is None:
            return (0, 2) + refused
        (demand, packets, ops, widths, need, gain, closing,
         rising) = inputs[2][v]
        pv, bar = pre[v], bars[v]
        if pv < need:
            # broke or on part duty: plain once v has recharged, or after
            # a handover
            rate = e[v] - status
            reach = (need - pv) / rate if rate > 0 else limit
            for u in successors[v]:
                rise = gain[u] - min(rate, 0)
                if rise > 0:
                    reach = min(reach, (bar - (pre[u] - pv)) / rise)
            return (0, 1 + max(int(min(reach, limit)), 0)) + refused
        pinned = cap in pre
        if pinned:
            # a level pinned at the cap does not gain
            gain = [0 if x == cap and y > 0 else y for x, y in zip(pre, gain)]
            closing, rising = trends(gain, v)
        # the plain slots ahead, as the rates predict them
        reach = limit if limit < _REACH else _REACH
        for u, rate in closing:
            t = (bar - (pre[u] - pv)) / rate + 1
            if t < reach:
                reach = t
        for u, rate in rising:
            t = (cap - pre[u]) / rate
            if t < reach:
                reach = t
        if gain[v] < 0:
            t = (pv - need) / -gain[v] + 1
            if t < reach:
                reach = t
        if reach < least:
            return (0, 1 + max(int(reach), 0)) + refused
        size = min(limit, int(reach) + 2)

        if pinned:
            seqs = [
                # pinned: clipped back to the cap object after every slot
                list(accumulate(row, initial=x))[:-1]
                + list(accumulate(row, initial=cap))[:-1] * (size - 1) + [cap]
                if x == cap and reduce(add, row, x) > cap
                else list(accumulate(row * size, initial=x))
                for row, x in zip(ops, pre)]
        else:
            seqs = [list(accumulate(row * size, initial=x))
                    for row, x in zip(ops, pre)]
        cols = list(zip(seqs, widths))
        V, wv, ev = seqs[v], widths[v], e[v]
        move = V[wv] - pv
        # a lead moves monotonically unless both levels move the same way;
        # the first slot where such a lead reaches the bar is looked up
        monotone = []
        for u in successors[v]:
            seq, w = cols[u]
            if (seq[w] - pre[u]) * move <= 0:
                monotone.append((seq, w))
                continue
            leads = map(operator.sub, seq[:size * w:w], V[:size * wv:wv])
            size = next(compress(count(), map(operator.ge, leads,
                                              repeat(bar))), size)

        def clear(j):
            x = V[j * wv]
            post = V[j * wv + 1] if pay_status else x
            if not (x >= floor and post >= floor):
                return False            # quiet, or broke
            if demand > ev and (post - floor if pay_floor else post) / (
                    demand - ev) < 1:
                return False            # part duty
            if not (whole or V[(j + 1) * wv] > floor):
                return False            # clamped at the floor
            for seq, w in monotone:
                if seq[j * w] - x >= bar:
                    return False        # a handover
            for seq, w in cols:
                if seq[(j + 1) * w] > cap:
                    return False        # clipped at the cap
            return True

        # each condition is monotone in j, so once slot 0 passes, the plain
        # slots come first; where v's level falls, every condition holds
        # up to some slot and fails after it, and slot 0 needs no check of
        # its own.  The last plain slot is looked for where the prediction
        # puts it
        m = min(int(reach), size)
        if not (m and (move < 0 or clear(0))):
            return (0, 2) + refused
        if clear(m - 1):
            while m < size and clear(m):
                m += 1
        else:
            m = bisect_left(range(m - 1), True, key=lambda j: not clear(j))
            if not m:
                return (0, 2) + refused
        if V[m * wv] == V[(m - 1) * wv] and all(
                seq[m * w] == seq[m * w - w] for seq, w in cols):
            # a fixed point within the batch, left to the slot rule
            return (0, 2) + refused
        return m, 0, seqs, widths, packets

    def stretch(pre, v, e, g, limit, steer=None, k=0):
        if limit < _BREAK_EVEN:
            return 0, limit, None
        if e is not inputs[0] or g is not inputs[1]:
            inputs[:] = e, g, tables(e, g)
        if inputs[2] is None:
            return 0, 2, None
        pv, bar = pre[v], bars[v]
        w = v
        for u in successors[v]:
            lead = pre[u] - pv
            if lead >= bar and (w == v or lead > best):
                w, best = u, lead
        if w == v:
            m, wait, seqs, widths, pk = stint(pre, v, e, g, limit,
                                              _BREAK_EVEN)
            if not m:
                return 0, wait, None
            pres, post, nxt, pks = [], (), None, [pk] * m
        else:
            # slot 0 hands over to w: the slot rule's exchange and charge,
            # taken only where no level reaches the floor or passes the cap
            post = [x - status for x in pre] if pay_status else pre
            if pay_switch:
                post = [x - switch for x in post]
            nxt = list(map(add, post, e))
            packets = math.floor(g) if whole else g
            nxt[w] = nxt[w] - c * packets
            if not (min(post) > floor and min(nxt) > floor
                    and max(nxt) <= cap):
                return 0, 1, None
            if steer is not None:
                g = steer(k, w, e)
            m, _, seqs, widths, pk = stint(nxt, w, e, g, limit - 1, 1)
            pres, pks = list(pre), [packets] + [pk] * m
        # the levels entering each slot, and after its exchange, node by
        # node in one list each
        h = len(pres)
        pres += [0] * (m * n)
        for u, seq, step in zip(nodes, seqs, widths):
            pres[h + u::n] = seq[:m * step:step]
        if pay_status:
            posts = list(post) + [0] * (m * n)
            for u, seq, step in zip(nodes, seqs, widths):
                posts[h + u::n] = seq[1:m * step:step]
        elif pay_switch and h:
            posts = post + pres[h:]
        else:
            posts = pres
        last = [seq[m * step] for seq, step in zip(seqs, widths)] if m else nxt
        return h // n + m, 0, (w, pres, posts, pks, nxt, last, g)

    return stretch
