"""Summary statistics and the pair rule used to compare two result sets."""

from __future__ import annotations

import statistics


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them.

    A single value is its own quartiles.
    """
    values = list(values)
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def _better(a, b, better: str) -> bool:
    return a > b if better == "higher" else a < b


def pair_verdict(parent, change, better: str, bound=None) -> dict:
    """Judge one metric from runs made in alternating pairs.

    ``parent[i]`` and ``change[i]`` form pair ``i``.  A gain is claimed
    only when the change wins at least nine tenths of all pairs (ties count
    for neither side) and the medians differ by more than the parent's
    interquartile distance.  Otherwise, when a ``bound`` is given, the
    change regresses if its median is worse than the parent's by more than
    ``bound`` times the parent's median.  Where the parent's own spread is
    wider than the bound the metric is "unresolved", unless every change
    run is better than every parent run.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, nonzero number of runs per side")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be higher or lower, got {better!r}")
    pairs = len(parent)
    wins = sum(_better(c, p, better) for p, c in zip(parent, change))
    losses = sum(_better(p, c, better) for p, c in zip(parent, change))
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    iqr = p3 - p1
    diff = cmed - pmed
    worse = -diff if better == "higher" else diff
    out = {"pairs": pairs, "wins": wins, "losses": losses,
           "parent": (p1, pmed, p3), "change": (c1, cmed, c3),
           "parent_spread": iqr / abs(pmed) if pmed else float("inf")}
    if wins >= 0.9 * pairs and abs(diff) > iqr and worse < 0:
        verdict = "improved"
    elif bound is None:
        verdict = "no gain"
    elif out["parent_spread"] > bound and not all(
            _better(c, p, better) for c in change for p in parent):
        verdict = "unresolved"
    elif worse > bound * abs(pmed):
        verdict = "regressed"
    else:
        verdict = "within bound"
    out["verdict"] = verdict
    return out
