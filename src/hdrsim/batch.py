"""Shortcut 5 of ``engine.run``: the stretches of plain slots of a run of
floats and ints, advanced as whole columns.

A plain slot changes no forwarder and clips no level, so over a stretch of
them each level repeats the slot rule's own operations, and one
``itertools.accumulate`` per node gives its levels in C.  ``run`` asks
``_plain_stretch``'s function for the stretch ahead whenever its last
prediction has run out, stores the columns it returns, and sends the slot
that ends the stretch through ``engine._slot_rule``.  The conditions of a
plain slot restate part of that rule, so the tests hold every batched run
to a reference that steps the rule one slot at a time.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from functools import reduce
from itertools import accumulate, compress, count, repeat

from .model import SystemParams, _int_zero

__all__: list = []


# A plain stretch predicted shorter than this many slots is left to the
# per-slot path: on float diamonds and three-relay runs, a batch of 8
# slots costs about what stepping them does, and longer ones cost less
# (see CHANGES.md)
_BREAK_EVEN = 8
# the most slots one batch builds, which bounds the columns it holds
_REACH = 1024


def _plain_stretch(params: SystemParams, whole: bool):
    """The stretches of plain slots of a run of floats and ints, as a
    function ``stretch(pre, v, e, g, limit) -> (m, wait, levels, posts,
    packets)``.

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

    ``m`` counts the plain slots from the state ``(pre, v)`` on, at most
    ``limit``.  ``levels[u]`` holds node ``u``'s ``m + 1`` levels entering
    them and the slot after, ``posts[u]`` its ``m`` levels after each
    exchange, and every plain slot carries ``packets``.  Some level moves
    in the last slot, and so in every slot, since a slot that leaves a
    level as it was leaves it so in every later one: no state the batch
    enters is a fixed point.  Each condition of a plain slot is monotone
    along such columns, so the stretch ends at the first slot that fails
    one, found near the predicted end, except a lead between two levels
    that move the same way, which is scanned.

    ``m`` is 0, and ``wait`` the slots to wait before asking again, when
    the stretch predicted from the leads and the rates of the first slot is
    shorter than ``_BREAK_EVEN``, when the load is not a float or an int,
    or when the columns show no plain slot, or no level that moves in the
    last one.
    """
    n = params.n_nodes
    policy = params.thresholds
    bars = [policy.threshold_from(u) for u in range(n)]
    successors = [policy.candidates(u) for u in range(n)]
    c = params.packet_energy
    status = params.status_energy
    floor = params.control_floor
    cap = params.battery_capacity
    pay_status = not _int_zero(status)
    pay_floor = not _int_zero(floor)
    nodes = range(n)
    add = operator.add
    refused = (None,) * 3
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
        slot, the level ``v`` needs, nearly, to run it, and each node's
        gain in it, nearly, with its ``trends``; None for a load that is
        not a float or an int."""
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
            out.append((demand, packets, ops, need, gain, *trends(gain, v)))
        return out

    def stretch(pre, v, e, g, limit):
        if e is not inputs[0] or g is not inputs[1]:
            inputs[:] = e, g, tables(e, g)
        if inputs[2] is None:
            return (0, 2) + refused
        demand, packets, ops, need, gain, closing, rising = inputs[2][v]
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
        if cap in pre:
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
        if reach < _BREAK_EVEN:
            return (0, 1 + max(int(reach), 0)) + refused
        size = min(limit, int(reach) + 2)

        widths = list(map(len, ops))
        seqs, moves, free = [], [], []
        for row, x in zip(ops, pre):
            if x == cap and reduce(add, row, x) > cap:
                # pinned: clipped back to the cap object after every slot
                seq = (list(accumulate(row, add, initial=x))[:-1]
                       + list(accumulate(row, add, initial=cap))[:-1]
                       * (size - 1) + [cap])
                moves.append(0)
            else:
                seq = list(accumulate(row * size, add, initial=x))
                moves.append(seq[len(row)] - x)
                free.append((seq, len(row)))
            seqs.append(seq)
        V, wv, move, ev = seqs[v], widths[v], moves[v], e[v]
        # a lead moves monotonically unless both levels move the same way;
        # the first slot where such a lead reaches the bar is looked up
        monotone = []
        for u in successors[v]:
            seq, w = seqs[u], widths[u]
            if moves[u] * move <= 0:
                monotone.append((seq, w))
                continue
            leads = map(operator.sub, seq[:size * w:w], V[:size * wv:wv])
            size = next(compress(count(), map(operator.ge, leads,
                                              repeat(bar))), size)

        def plain(j):
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
            for seq, w in free:
                if seq[(j + 1) * w] > cap:
                    return False        # clipped at the cap
            return True

        # each condition is monotone in j, so once slot 0 passes, the plain
        # slots come first; the last one is looked for where the prediction
        # puts it
        if not (size and plain(0)):
            return (0, 2) + refused
        m = min(int(reach), size)
        if plain(m - 1):
            while m < size and plain(m):
                m += 1
        else:
            m = bisect_left(range(m - 1), True, key=lambda j: not plain(j))
        levels = [seq[:(m + 1) * w:w] for seq, w in zip(seqs, widths)]
        start = 1 if pay_status else 0
        posts = [seq[start:m * w:w] for seq, w in zip(seqs, widths)]
        if all(col[m] == col[m - 1] for col in levels):
            # a fixed point within the batch, left to the slot rule
            return (0, 2) + refused
        return m, 0, levels, posts, packets

    return stretch
