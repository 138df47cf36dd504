"""Core types for the relay-switching simulator.

A source pushes a fixed load of packets per slot through exactly one of
several energy-harvesting relay nodes.  Each node owns a battery; the link
controller swaps the forwarding role whenever an idle node's battery leads
the active node's battery by that node's hysteresis threshold.

Every number is an int, a float or a ``fractions.Fraction``
(``NUMBER_TYPES``), checked where it enters, so ``bool``, ``str`` and
``Decimal`` are rejected.  Fractions pass through the arithmetic exactly;
production paths use floats.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, compress, repeat
from typing import NamedTuple, Optional, Sequence

__all__ = [
    "FRACTIONAL",
    "WHOLE",
    "PACKET_MODES",
    "Hysteresis2",
    "RoundRobin3",
    "EarliestSwitch3",
    "ThresholdPolicy",
    "SystemParams",
    "SlotRecord",
    "Trace",
    "CycleStats",
    "RunSummary",
    "Profile",
    "validate",
    "default_state",
]

FRACTIONAL = "fractional"
WHOLE = "whole"
PACKET_MODES = (FRACTIONAL, WHOLE)
# the number types the package takes; a bool is an int, but its type is not
NUMBER_TYPES = frozenset((int, float, Fraction))


# ---------------------------------------------------------------------------
# switching policies
# ---------------------------------------------------------------------------

_RULES = ("rr", "es")


def _all_finite(values) -> bool:
    """Whether every number is finite as a float, in one pass in C; an int
    or Fraction beyond the float range counts as not finite."""
    try:
        return all(map(math.isfinite, values))
    except OverflowError:
        return False


def _finite_numbers(values) -> bool:
    """Whether every value is an int, float or Fraction that is finite as
    a float: one pass over the types and one over the values, both in C."""
    return NUMBER_TYPES.issuperset(map(type, values)) and _all_finite(values)


def _left_sum(values):
    """``values`` added left to right from int 0, as ``sum`` adds them up
    to Python 3.11; from 3.12 on ``sum`` compensates float sums, so its
    bits depend on the Python version."""
    return reduce(operator.add, values, 0)


def _int_zero(x) -> bool:
    """Whether ``x`` is the int 0, whose subtraction is an identity on
    every int, float and Fraction."""
    return type(x) is int and x == 0


def _same_levels(a, b) -> bool:
    """Whether two sequences of equal numbers hold them with the same type
    and bits, which ``==`` does not check: ``-0.0 == 0.0`` and ``5 ==
    Fraction(5)``, but each pair prints and computes differently.  For the
    three number types a repr tells both apart; the types are compared as
    well, so an unchecked cell cannot pass for a number that prints the
    same."""
    return (list(map(type, a)) == list(map(type, b))
            and list(map(repr, a)) == list(map(repr, b)))


def _finite(name: str, value) -> bool:
    """``math.isfinite`` for one number of the field ``name``, raising a
    ``ValueError`` naming the field for an int or Fraction too large for a
    float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None


@dataclass(frozen=True)
class ThresholdPolicy:
    """The hysteresis rule: while node ``u`` forwards, the role moves to an
    idle candidate whose battery leads by at least ``values[u]``.

    ``rule`` picks the candidates.  Under ``"rr"`` (round robin) the only
    candidate is the successor ``(u + 1) % n``; under ``"es"`` (earliest
    switch) every idle node is one, and of several that qualify in the same
    slot the larger lead wins, remaining ties going to the lower index.
    With two nodes both rules name the other node.
    """

    values: tuple
    rule: str = "rr"
    # the thresholds added left to right, folded once here
    total: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if not _finite_numbers(values) or min(values, default=1) <= 0:
            for u, v in enumerate(values):
                if (type(v) not in NUMBER_TYPES
                        or not _finite(f"thresholds[{u}]", v) or v <= 0):
                    raise ValueError(f"thresholds must be positive ints, "
                                     f"floats or Fractions, got {v!r}")
        if self.rule not in _RULES:
            raise ValueError(f"unknown successor rule {self.rule!r}; "
                             f"expected one of {_RULES}")
        object.__setattr__(self, "total", _left_sum(values))

    @property
    def n_nodes(self) -> int:
        return len(self.values)

    @property
    def threshold1(self):
        return self.values[0]

    @property
    def threshold2(self):
        return self.values[1]

    def threshold_from(self, active: int):
        return self.values[active]

    def candidates(self, active: int) -> tuple[int, ...]:
        n = len(self.values)
        if self.rule == "rr":
            return ((active + 1) % n,)
        return tuple(u for u in range(n) if u != active)


def Hysteresis2(threshold1, threshold2) -> ThresholdPolicy:
    """The two-relay rule: ``threshold1`` guards the handover away from
    node 1, ``threshold2`` the one away from node 2."""
    return ThresholdPolicy((threshold1, threshold2), "rr")


def RoundRobin3(threshold1, threshold2, threshold3) -> ThresholdPolicy:
    """Three relays with the fixed successor order 1 -> 2 -> 3 -> 1."""
    return ThresholdPolicy((threshold1, threshold2, threshold3), "rr")


def EarliestSwitch3(threshold1, threshold2, threshold3) -> ThresholdPolicy:
    """Three relays; the role goes to whichever idle node first leads the
    forwarding node by that node's threshold."""
    return ThresholdPolicy((threshold1, threshold2, threshold3), "es")


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

_SCALAR_NAMES = ("input_rate", "packet_energy", "status_energy",
                 "switch_energy", "battery_capacity")


@dataclass(frozen=True)
class SystemParams:
    """Static description of one deployment.

    harvest_rates     per-node harvested energy, mJ per slot
    input_rate        offered load, packets per slot
    packet_energy     transmit cost per packet, mJ
    status_energy     per-slot status message cost, mJ (every node, each slot
                      end; the forwarding node withholds it when its battery
                      is under the control floor)
    switch_energy     handover command cost, mJ, paid by every node at a swap
    battery_capacity  storage ceiling per node, mJ
    thresholds        ``ThresholdPolicy``, one threshold per node, so its
                      arity must match harvest_rates
    """

    harvest_rates: tuple
    input_rate: float
    packet_energy: float
    thresholds: ThresholdPolicy
    status_energy: float = 0
    switch_energy: float = 0
    battery_capacity: float = 100.0

    def __post_init__(self):
        object.__setattr__(self, "harvest_rates", tuple(self.harvest_rates))
        n = len(self.harvest_rates)
        if n not in (2, 3):
            raise ValueError(f"expected 2 or 3 relay nodes, got {n}")
        if not isinstance(self.thresholds, ThresholdPolicy):
            raise ValueError(f"thresholds must be a ThresholdPolicy, got "
                             f"{type(self.thresholds).__name__}")
        if self.thresholds.n_nodes != n:
            raise ValueError(
                f"policy handles {self.thresholds.n_nodes} nodes, "
                f"params describe {n}"
            )
        scalars = self._scalars()
        if not _finite_numbers(scalars):
            names = _SCALAR_NAMES + tuple(f"harvest_rates[{u}]"
                                          for u in range(n))
            for name, value in zip(names, scalars):
                if type(value) not in NUMBER_TYPES or not _finite(name, value):
                    raise ValueError(f"{name} must be a finite int, float or "
                                     f"Fraction, got {value!r}")
        # exact comparisons: a Fraction or int is not rounded to a float
        if min(self.harvest_rates) < 0:
            raise ValueError("harvest rates must be non-negative")
        if self.input_rate < 0:
            raise ValueError("input rate must be non-negative")
        if self.packet_energy <= 0:
            raise ValueError("packet energy must be positive")
        if self.status_energy < 0 or self.switch_energy < 0:
            raise ValueError("control energies must be non-negative")
        if self.battery_capacity <= self.control_floor:
            raise ValueError("battery capacity must exceed the control floor")

    def _scalars(self) -> tuple:
        """Every number of the parameters, in the order of
        ``_SCALAR_NAMES``, then the harvest rates."""
        return (self.input_rate, self.packet_energy, self.status_energy,
                self.switch_energy, self.battery_capacity,
                *self.harvest_rates)

    @property
    def n_nodes(self) -> int:
        return len(self.harvest_rates)

    @property
    def control_floor(self):
        """Battery level needed to send status and still afford a handover."""
        return self.status_energy + self.switch_energy

    @property
    def slot_data_energy(self):
        """Energy drawn by a full forwarding slot (packet_energy * input_rate)."""
        return self.packet_energy * self.input_rate

    def with_input_rate(self, g) -> "SystemParams":
        return replace(self, input_rate=g)


def validate(params: SystemParams) -> tuple[str, ...]:
    """Check the operating-regime assumptions behind the analytic results.

    Structural problems (negative energies, capacity under the control
    floor, arity mismatches) are rejected earlier, when ``SystemParams`` is
    built.  This reports the softer regime conditions: the forwarding node
    should drain (load above every harvest rate) and every node should
    stay solvent for control traffic (every harvest rate above the control
    floor).  Returns one warning per broken condition, none when all hold.
    """
    notes = []
    cg = float(params.slot_data_energy)
    for u, e in enumerate(params.harvest_rates):
        if cg <= float(e):
            notes.append(
                f"node {u + 1}: harvest {float(e)} >= per-slot data energy "
                f"{cg}; the active battery never drains"
            )
    floor = float(params.control_floor)
    if floor > 0:
        for u, e in enumerate(params.harvest_rates):
            if float(e) <= floor:
                notes.append(
                    f"node {u + 1}: harvest {float(e)} does not cover the "
                    f"control floor {floor}"
                )
    return tuple(notes)


# ---------------------------------------------------------------------------
# run start and outputs
# ---------------------------------------------------------------------------

def default_state(params: SystemParams, packet_mode: str = FRACTIONAL,
                  batteries: Optional[Sequence] = None,
                  active: int = 0) -> tuple:
    """The checked start of a run, ``(levels, active)``: half-full
    batteries and node 1 forwarding unless given.  Given levels must be
    ints, floats or Fractions in ``[0, battery_capacity]``, ``active`` an
    int that names a node and ``packet_mode`` one of ``PACKET_MODES``."""
    if packet_mode not in PACKET_MODES:
        raise ValueError(f"unknown packet mode {packet_mode!r}")
    n = params.n_nodes
    if batteries is None:
        batteries = tuple(params.battery_capacity / 2 for _ in range(n))
    else:
        batteries = tuple(batteries)
        if len(batteries) != n:
            raise ValueError("one initial battery level per node required")
        cap = params.battery_capacity
        for u, b in enumerate(batteries):
            # a finite capacity keeps out nan and inf
            if type(b) not in NUMBER_TYPES or not 0 <= b <= cap:
                raise ValueError(f"initial battery level of node {u + 1} "
                                 f"must be an int, float or Fraction in "
                                 f"[0, {cap}], got {b!r}")
    if type(active) is not int or not 0 <= active < n:
        raise ValueError(f"active node index {active!r} out of range; it "
                         f"must be an int below {n}")
    return batteries, active


class SlotRecord(NamedTuple):
    """One slot-end control exchange plus the following slot's traffic.

    battery_pre / battery_post bracket the exchange itself.  ``active`` is
    the forwarding node after any handover, and ``packets`` is what that node
    carries during the next slot (a handover credits a full input_rate to the
    incoming node).  ``suppressed`` marks nodes that withheld their status
    message.
    """

    slot: int
    battery_pre: tuple
    battery_post: tuple
    active: int
    switched: bool
    packets: float
    suppressed: tuple


def _all_below(column, bound: int) -> bool:
    """Whether every entry of ``column`` is an int below ``bound`` and at
    least 0.  An ``array('B')`` column, a run's, is checked through its
    bytes in C."""
    if isinstance(column, array) and column.typecode == "B":
        return not bytes(column).translate(None,
                                           bytes(range(min(bound, 256))))
    return all(type(v) is int and 0 <= v < bound for v in column)


@dataclass(frozen=True)
class Trace:
    """A finished run, one column per quantity rather than one object per
    slot.

    battery_pre   per node, a column of levels before the slot-end exchange
    battery_post  per node, a column of levels right after it
    active        forwarding node after any handover, 0-based
    switched      1 where the exchange handed the role over, else 0
    packets       packets the active node carries in the following slot
    suppressed    bit ``u`` set where node ``u`` withheld its status message

    Entry ``k`` of each column is slot ``k``, so ``slots`` is
    ``range(len(active))``; ``n_nodes`` is the number of level columns.

    A trace is frozen and consistent by construction.  The constructor,
    which ``run``, ``read_trace_csv`` and ``dataclasses.replace`` all call,
    raises one ``ValueError`` listing every ragged column and every part
    of the context that does not fit the columns: ``params`` or
    ``profile`` for another node count, a profile shorter than the trace,
    an unknown ``packet_mode``, an ``initial_active`` or an ``active``
    entry not naming a node, or a ``suppressed`` entry with a bit for no
    node.

    Float runs keep levels and packets in ``array('d')`` columns and the
    flags in ``array('B')`` columns (so at most 8 nodes).  Runs with a
    ``Fraction`` among their inputs get lists for levels and packets, so
    exact values pass through untouched, and so do whole-packet counts,
    which stay ints.

    ``packet_mode``, ``initial_active``, ``params`` and ``profile`` are the
    run's context, which the audit and ``inputs`` read; a trace re-read
    from CSV has none of them until ``dataclasses.replace`` puts them back.
    ``records`` is a read-only view of the columns, one ``SlotRecord`` per
    slot, built on first access; ``dataclasses.replace`` starts a copy
    with an empty view.

    ``feedback_log`` holds a feedback run's controller updates, one
    ``scenarios.FeedbackUpdate`` ``(slot, estimate, load, flagged)`` each,
    as a tuple; the constructor stores any sequence it is given as one.

    ``cycles`` holds one claim, ``(start, period, stop)``, per stretch
    that ``run`` tiled (``()`` when there is none): from entry ``start +
    period`` up to ``stop`` every column repeats its entries ``period``
    slots earlier.  Readers check a claim before they use it and never
    trust it (see ``engine._claim_holds``), so a stale one, say from a
    ``dataclasses.replace`` that changed a column, or a bogus one costs
    only speed.  Equality ignores them: a float run's trace, re-read with
    its context put back, equals the run's.
    """

    battery_pre: tuple
    battery_post: tuple
    active: Sequence
    switched: Sequence
    packets: Sequence
    suppressed: Sequence
    packet_mode: Optional[str] = None
    initial_active: Optional[int] = None
    params: Optional[SystemParams] = None
    profile: Optional["Profile"] = None
    feedback_log: tuple = ()
    cycles: tuple = field(default=(), compare=False)

    def __post_init__(self):
        object.__setattr__(self, "feedback_log", tuple(self.feedback_log))
        n, size = len(self.battery_pre), len(self.active)
        named = [(f"{side}[{u}]", col)
                 for side in ("battery_pre", "battery_post")
                 for u, col in enumerate(getattr(self, side))]
        named += [(k, getattr(self, k)) for k in ("switched", "packets",
                                                   "suppressed")]
        problems = [f"column {name} holds {len(col)} entries, not {size}"
                    for name, col in named if len(col) != size]
        if len(self.battery_post) != n:
            problems.append(f"battery_post has {len(self.battery_post)} "
                            f"columns, not {n}")
        for name in ("params", "profile"):
            context = getattr(self, name)
            if context is not None and context.n_nodes != n:
                problems.append(f"{name} for {context.n_nodes} nodes on a "
                                f"trace of {n}")
        if self.profile is not None and self.profile.length < size:
            problems.append(f"profile shorter than the trace: "
                            f"{self.profile.length} slots, not {size}")
        if self.packet_mode not in (None, *PACKET_MODES):
            problems.append(f"unknown packet mode {self.packet_mode!r}")
        first = self.initial_active
        if first is not None and not (type(first) is int and 0 <= first < n):
            problems.append(f"initial_active {first!r} is not an int "
                            f"below {n}")
        # an active entry names a node, a suppressed mask sets node bits
        for name, bound in (("active", n), ("suppressed", 1 << n)):
            column = getattr(self, name)
            if not _all_below(column, bound):
                k, v = next((k, v) for k, v in enumerate(column)
                            if not (type(v) is int and 0 <= v < bound))
                problems.append(f"{name} entry {k} is {v!r}, not an int "
                                f"below {bound}")
        if problems:
            raise ValueError(f"inconsistent trace: {'; '.join(problems)}")

    def __len__(self):
        return len(self.active)

    @property
    def n_nodes(self) -> int:
        return len(self.battery_pre)

    @property
    def slots(self) -> range:
        return range(len(self.active))

    @cached_property
    def records(self) -> list:
        """The trace as a list of ``SlotRecord``; the library's own
        functions read the columns instead."""
        flags = [tuple(bool(m >> u & 1) for u in range(self.n_nodes))
                 for m in range(1 << self.n_nodes)]
        # tuple.__new__ fills each named tuple from a row in C
        return list(map(tuple.__new__, repeat(SlotRecord), zip(
            self.slots, zip(*self.battery_pre), zip(*self.battery_post),
            self.active, map(bool, self.switched), self.packets,
            map(flags.__getitem__, self.suppressed))))

    def switch_slots(self) -> list[int]:
        return list(compress(self.slots, self.switched))

    def input_segments(self) -> tuple:
        """The harvest rates and offered load of the trace's slots as
        ``(harvest, load, length)`` segments (see ``Profile``), as the run
        took them: the profile's, cut at the trace's end, else the
        constants of ``params`` as one segment."""
        if self.profile is None and self.params is None:
            raise ValueError("trace carries no harvest or offered-load "
                             "information")
        return _run_segments(self.params, self.profile, len(self))

    def inputs(self) -> tuple:
        """Harvest rates and offered load of every slot, as two iterables
        that repeat each of ``input_segments()`` for its length, in
        O(segments) memory.  Take fresh ones for each pass."""
        segments = self.input_segments()
        return (chain.from_iterable(repeat(row, k) for row, _, k in segments),
                chain.from_iterable(repeat(g, k) for _, g, k in segments))


@dataclass(frozen=True)
class CycleStats:
    """One full rotation of the forwarding role (or one leg of it when
    produced by the closed-form ``cycle_step``, which advances a single
    active period per call)."""

    length: float                  # slots
    active_slots: tuple            # per node
    packets: tuple                 # per node
    drift: tuple                   # per-node battery change over the cycle
    start_slot: Optional[int] = None

    @property
    def packets_total(self):
        return _left_sum(self.packets)


@dataclass(frozen=True)
class RunSummary:
    """Post-warmup statistics for one trace."""

    slots: int
    packets_total: float
    throughput: float
    per_node_packets: tuple
    switch_count: int
    cycle_count: int
    mean_cycle_length: Optional[float]

    @property
    def node_share(self) -> tuple:
        total = self.packets_total
        if not total:
            return tuple(0.0 for _ in self.per_node_packets)
        return tuple(p / total for p in self.per_node_packets)


# ---------------------------------------------------------------------------
# time-varying operating conditions
# ---------------------------------------------------------------------------

def _run_segments(params, profile, n: int) -> tuple:
    """The ``(harvest, load, length)`` segments of a run's first ``n``
    slots: the profile's, the last one cut short where needed, else the
    constants of ``params`` as one segment."""
    if profile is None:
        return ((params.harvest_rates, params.input_rate, n),)
    if profile.length < n:
        raise ValueError("profile shorter than the run")
    head = []
    for row, g, k in profile.segments:
        if n <= 0:
            break
        head.append((row, g, min(k, n)))
        n -= k
    return tuple(head)


@dataclass(frozen=True)
class Profile:
    """Harvest rates and offered load slot by slot, stored as the stretches
    of constant inputs they are made of.

    ``segments`` holds one ``(harvest, load, length)`` triple per stretch:
    for ``length`` slots node ``u`` harvests ``harvest[u]`` and the source
    offers ``load``.  There must be at least one segment, every cell must
    be a finite, non-negative int, float or Fraction, every row hold one
    rate per node and every length be a positive int.  The triples are
    kept as given, rows as tuples, and two profiles are equal when their
    segments are.  Slot-by-slot inputs become length-1 segments:
    ``Profile(tuple((row, g, 1) for row, g in zip(rows, loads)))``.  A
    constant profile reproduces a plain parameterised run exactly.
    """

    segments: tuple
    length: int = field(init=False, repr=False, compare=False)
    # the types of the cells, kept from the checks for engine.run
    _cell_types: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        segments = tuple((tuple(row), g, k) for row, g, k in self.segments)
        if not segments:
            raise ValueError("a profile needs at least one segment")
        n = len(segments[0][0])
        if any(len(row) != n for row, _, _ in segments):
            raise ValueError("ragged harvest rows")
        lengths = [k for _, _, k in segments]
        if not all(type(k) is int and k > 0 for k in lengths):
            raise ValueError("segment lengths must be positive ints")
        cells = [g for _, g, _ in segments]
        cells += chain.from_iterable(row for row, _, _ in segments)
        kinds = frozenset(map(type, cells))
        stray = kinds - NUMBER_TYPES
        if stray:
            names = ", ".join(sorted(t.__name__ for t in stray))
            raise ValueError(f"profile cells must be ints, floats or "
                             f"Fractions, got {names}")
        if not _all_finite(cells) or min(cells, default=0) < 0:
            raise ValueError("profile harvest and input rates must be "
                             "finite and non-negative")
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "length", sum(lengths))
        object.__setattr__(self, "_cell_types", kinds)

    @property
    def n_nodes(self) -> int:
        return len(self.segments[0][0])


def _number_types(params: SystemParams, profile, levels=()) -> set:
    """The types of the numbers in ``params``, ``profile`` and ``levels``."""
    kinds = set(map(type, params._scalars()))
    kinds.update(map(type, levels))
    if profile is not None:
        kinds |= profile._cell_types
    return kinds
