"""Run every benchmark workload, each in its own process, and summarize.

    python3 bench/suite.py --runs 10 --out results.json
    python3 bench/suite.py --runs 10 --root PARENT --out parent.json \\
                                     --root CHANGE --out change.json

Every workload runs, each for BENCHMARK.json's ``run_seconds``, so both
sides of a comparison measure the same work for the same time.  Run ``i``
of a workload uses seed ``--seed + i``.  Every run is a fresh
``python3 bench/run.py`` process started in the root of the checkout it
measures, so ``peak_rss_mb`` belongs to that workload alone.  With two
roots the runs alternate between them, and the side that goes first flips
on every pair; ``compare.py`` then judges the two result files.

For each workload the summary gives every metric by name and unit with its
median and quartiles over the runs, their spread as a share of the median,
and the failed experiments against the number attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from stats import quartiles, spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark(root=ROOT) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(root, workload, seed, seconds, trace) -> dict:
    bench = load_benchmark(root)
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {root} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    return result


def summarize(results: dict, bench: dict, trace: int) -> None:
    metrics = {m["name"]: m for m in
               bench["per_layer" if trace else "end_to_end"]}
    for workload, runs in results["runs"].items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        wrong = sum(not r["correct"] for r in runs)
        print(f"{workload}: {len(runs)} runs, failed {failed} of {attempted} "
              f"experiments attempted ({failed / attempted:.2%}), "
              f"{wrong} of {len(runs)} runs not correct")
        for name, spec in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            bound = spec.get("bound")
            share = spread(values) if med else 0.0
            note = "" if bound is None else (
                f"  bound {bound:.0%}"
                + ("  (spread over a third of the bound)"
                   if share > bound / 3 and name != "setup_s" else ""))
            print(f"  {name:40s} {med:14.6g} {spec['unit']:9s} "
                  f"[{q1:.6g}, {q3:.6g}]  spread {share:.2%}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", action="append",
                        help="checkout to measure (repeatable, at most 2)")
    parser.add_argument("--out", action="append",
                        help="result file, one per root")
    args = parser.parse_args(argv)

    roots = [os.path.abspath(r) for r in (args.root or [ROOT])]
    outs = args.out or [None] * len(roots)
    if len(roots) > 2 or len(outs) != len(roots):
        parser.error("give one or two --root, and one --out per root")
    bench = load_benchmark()
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    results = [{"root": r, "seconds": seconds, "trace": args.trace,
                "runs": {w: [] for w in workloads}} for r in roots]

    for workload in workloads:
        for i in range(args.runs):
            order = range(len(roots)) if i % 2 == 0 else \
                reversed(range(len(roots)))
            for side in order:
                result = run_once(roots[side], workload, args.seed + i,
                                  seconds, args.trace)
                results[side]["runs"][workload].append(result)
                print(f"# {os.path.basename(roots[side])} {workload} "
                      f"seed {args.seed + i}: {json.dumps(result['metrics'])}",
                      file=sys.stderr, flush=True)

    for side, result in enumerate(results):
        if len(roots) > 1:
            print(f"== {roots[side]}")
        summarize(result, bench, args.trace)
        if outs[side]:
            with open(outs[side], "w") as fh:
                json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
