"""Compare two result sets, parent and change, run in alternating pairs.

    python3 bench/compare.py parent.json change.json

Both files come from one ``suite.py`` call with two ``--root``s, so run
``i`` of a workload on each side forms pair ``i`` and used the same seed.
For every workload and metric the rule of ``stats.pair_verdict`` applies:
a gain needs at least nine tenths of the pairs won and a median
difference larger than the parent's interquartile distance; an end-to-end
metric regresses when its median is worse than the parent's by more than
its bound in ``BENCHMARK.json``, and is unresolved when the parent's own
spread is wider than that bound.  A gain does not count when the change
fails more: on a workload where any change run is not correct, or where
the change failed more experiments than the parent, every metric is
"failed".  Exits 1 when any metric regressed or failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from stats import pair_verdict
from suite import load_benchmark


def compare(parent: dict, change: dict, bench: dict) -> list[dict]:
    for key in ("trace", "seconds"):
        if parent.get(key) != change.get(key):
            raise ValueError(f"the two result sets differ in {key!r}")
    if set(parent["runs"]) != set(change["runs"]):
        raise ValueError("the two result sets ran other workloads")
    metrics = bench["per_layer" if parent.get("trace") else "end_to_end"]
    rows = []
    for workload, p_runs in parent["runs"].items():
        c_runs = change["runs"][workload]
        n = min(len(p_runs), len(c_runs))
        p_runs, c_runs = p_runs[:n], c_runs[:n]
        if [r["seed"] for r in p_runs] != [r["seed"] for r in c_runs]:
            raise ValueError(f"{workload}: the two sides used other seeds")
        failed = (sum(r["failed"] for r in p_runs),
                  sum(r["failed"] for r in c_runs))
        broken = failed[1] > failed[0] or not all(r["correct"]
                                                  for r in c_runs)
        for spec in metrics:
            name = spec["name"]
            verdict = pair_verdict(
                [r["metrics"][name]["value"] for r in p_runs],
                [r["metrics"][name]["value"] for r in c_runs],
                spec["better"], spec.get("bound"))
            if broken:
                verdict["verdict"] = "failed"
            rows.append({"workload": workload, "metric": name,
                         "unit": spec["unit"], **verdict})
        rows.append({"workload": workload, "metric": "failed",
                     "unit": "count", "verdict": "failed" if broken else "",
                     "failed": failed,
                     "attempted": (sum(r["attempted"] for r in p_runs),
                                   sum(r["attempted"] for r in c_runs)),
                     "not_correct": sum(not r["correct"] for r in c_runs)})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(args.parent) as fh:
        parent = json.load(fh)
    with open(args.change) as fh:
        change = json.load(fh)
    rows = compare(parent, change, load_benchmark())
    bad = False
    for row in rows:
        bad |= row["verdict"] in ("regressed", "failed")
        if row["metric"] == "failed":
            (pf, cf), (pa, ca) = row["failed"], row["attempted"]
            print(f"{row['workload']:18s} failed: parent {pf} of {pa}, "
                  f"change {cf} of {ca} attempted, {row['not_correct']} "
                  f"change runs not correct  {row['verdict']}")
            continue
        p1, pm, p3 = row["parent"]
        c1, cm, c3 = row["change"]
        change_pct = (cm - pm) / abs(pm) if pm else float("nan")
        print(f"{row['workload']:18s} {row['metric']:38s} "
              f"parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
              f"change {cm:.6g} [{c1:.6g}, {c3:.6g}] {row['unit']}  "
              f"{change_pct:+.2%}  wins {row['wins']}/{row['pairs']}  "
              f"{row['verdict']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
