"""Time-varying experiments: harvest/load profiles, per-window statistics,
and the closed-loop input-rate controller."""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, replace
from functools import reduce
from itertools import islice, repeat
from typing import NamedTuple, Optional

from .analytic import feedback_input_rate
from .engine import run
from .model import FRACTIONAL, Profile, SystemParams, Trace, _left_sum

__all__ = [
    "WindowStats",
    "FeedbackUpdate",
    "load_profile",
    "windowed_stats",
    "write_window_stats_csv",
    "run_with_feedback",
]


@dataclass(frozen=True)
class WindowStats:
    """Offered vs delivered packets over one window of slots."""

    window: int
    start_slot: int
    length: int
    offered: float
    delivered: float
    harvested: tuple           # per node, mJ
    mean_battery: tuple        # per node, mJ


class FeedbackUpdate(NamedTuple):
    """One controller update of a feedback run: the handover ``slot`` that
    completed a rotation, the mean rotation length ``estimate``, the
    ``load`` offered from the next slot on, and whether the controller
    ``flagged`` a harvest too weak to pay for control and held the load."""

    slot: int
    estimate: float
    load: float
    flagged: bool


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def load_profile(source) -> Profile:
    """Read a piecewise-constant profile from CSV.

    Expected header: ``slot_range,e1,e2[,e3],g`` and no other, compared
    after stripping and lower-casing each name, where ``slot_range`` is
    ``a-b``, both ends included.  Ranges must tile the horizon: no overlaps
    and no gaps.  ``source`` is a path or an open text file.  Each range
    becomes one segment of the profile; no range is expanded slot by slot.
    """
    if hasattr(source, "read"):
        rows = list(csv.reader(source))
    else:
        with open(source, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows:
        raise ValueError("empty profile")
    header = [cell.strip().lower() for cell in rows[0]]
    n = len(header) - 2
    if header != ["slot_range", *(f"e{u}" for u in range(1, n + 1)), "g"]:
        raise ValueError(f"unexpected profile header {rows[0]!r}")
    if n not in (2, 3):
        raise ValueError("profile must cover 2 or 3 nodes")
    if len(rows) == 1:
        raise ValueError("empty profile: no slot ranges under the header")

    pieces = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != n + 2:
            raise ValueError(f"line {lineno}: expected {n + 2} fields, "
                             f"got {len(row)}")
        span = row[0].strip()
        try:
            lo_s, hi_s = span.split("-")
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise ValueError(f"line {lineno}: bad slot range {span!r}") from None
        if lo < 0 or hi < lo:
            raise ValueError(f"line {lineno}: bad slot range {span!r}")
        try:
            values = [float(cell) for cell in row[1:]]
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric value") from None
        if not all(map(math.isfinite, values)):
            raise ValueError(f"line {lineno}: non-finite value")
        if any(x < 0 for x in values):
            raise ValueError(f"line {lineno}: negative value")
        pieces.append((lo, hi, tuple(values[:n]), values[n]))

    pieces.sort(key=lambda p: p[0])
    expect = 0
    for lo, hi, _, _ in pieces:
        if lo < expect:
            raise ValueError(f"overlapping slot ranges at slot {lo}")
        if lo > expect:
            raise ValueError(f"gap in slot ranges before slot {lo}")
        expect = hi + 1

    return Profile(tuple((e_row, g, hi - lo + 1)
                         for lo, hi, e_row, g in pieces))


# ---------------------------------------------------------------------------
# windowed statistics
# ---------------------------------------------------------------------------

def windowed_stats(trace: Trace, window: int) -> list[WindowStats]:
    """Offered vs delivered packets per window; the final window may be
    shorter and is reported with its true length.  Every total is a left
    fold from int 0 in slot order, so it does not depend on how ``sum``
    adds floats (Python 3.12 compensates its float sums)."""
    if type(window) is not int:
        raise ValueError(f"window must be an int, got {window!r}")
    if window < 1:
        raise ValueError("window must be at least one slot")
    # every column is walked once, window after window, and the inputs
    # segment by segment
    segments = iter(trace.input_segments())
    left = 0                    # slots of the current segment not yet read
    packets = iter(trace.packets)
    levels = [iter(col) for col in trace.battery_pre]
    n = trace.n_nodes
    out = []
    for start in range(0, len(trace), window):
        length = need = min(window, len(trace) - start)
        harvested = [0] * n
        offered = 0
        while need:
            if not left:
                row, load, left = next(segments)
            k = min(left, need)
            # the slot loop's adds, h + e + e + ..., in the same order
            harvested = [reduce(operator.add, repeat(e, k), h)
                         for h, e in zip(harvested, row)]
            offered = reduce(operator.add, repeat(load, k), offered)
            left -= k
            need -= k
        out.append(WindowStats(
            window=len(out),
            start_slot=start,
            length=length,
            offered=offered,
            delivered=_left_sum(islice(packets, length)),
            harvested=tuple(harvested),
            mean_battery=tuple(_left_sum(islice(col, length)) / length
                               for col in levels),
        ))
    return out


def write_window_stats_csv(stats: list[WindowStats], path) -> None:
    if not stats:
        raise ValueError("no windows to write")
    n = len(stats[0].harvested)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["window", "offered", "delivered"]
                   + [f"harvest{u + 1}" for u in range(n)])
        for s in stats:
            w.writerow([s.window, format(float(s.offered), ".17g"),
                        format(float(s.delivered), ".17g")]
                       + [format(float(x), ".17g") for x in s.harvested])


# ---------------------------------------------------------------------------
# closed-loop input rate
# ---------------------------------------------------------------------------

def run_with_feedback(params: SystemParams, horizon: Optional[int] = None,
                      estimator_window: int = 5,
                      profile: Optional[Profile] = None,
                      packet_mode: str = FRACTIONAL,
                      initial_batteries=None, initial_active: int = 0) -> Trace:
    """Simulate with the offered load steered to cancel battery drift.

    The controller is ``run``'s ``steer``, which ``run`` calls after each
    handover.  Each time a full rotation completes (the forwarding role
    returns to node 1), the mean of the last ``estimator_window`` rotation
    lengths feeds the zero-drift load formula and the result becomes the
    new input rate; other handovers keep the rate.  Until that many
    rotations exist the configured rate is used.  A harvest too weak to pay
    for control makes the controller hold the previous rate and flag the
    event.  Each update goes into the trace's ``feedback_log`` as a
    ``FeedbackUpdate``.

    With a ``profile`` the harvest follows it while the input-rate column
    is ignored (the controller owns the load).  The returned trace carries
    the effective profile: actual harvest and the load actually offered.
    """
    if type(estimator_window) is not int or estimator_window < 1:
        raise ValueError(f"estimator window {estimator_window!r} is not an "
                         f"int >= 1")
    if profile is None and horizon is None:
        raise ValueError("horizon required when no profile is given")
    g = params.input_rate
    feedback_log = []
    cycle_lengths = []
    last_activation = None

    def steer(k, active, harvest):
        nonlocal g, last_activation
        if active == 0:
            if last_activation is not None:
                cycle_lengths.append(k - last_activation)
            last_activation = k
            if len(cycle_lengths) >= estimator_window:
                recent = cycle_lengths[-estimator_window:]
                estimate = sum(recent) / len(recent)
                local = replace(params, harvest_rates=tuple(harvest))
                try:
                    g = feedback_input_rate(estimate, local)
                    flagged = False
                except ValueError:
                    flagged = True
                feedback_log.append(FeedbackUpdate(k, estimate, g, flagged))
        return g

    trace = run(params, n_slots=horizon, profile=profile,
                packet_mode=packet_mode, initial_batteries=initial_batteries,
                initial_active=initial_active, steer=steer)
    return replace(trace, feedback_log=tuple(feedback_log))
