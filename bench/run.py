"""Run one hdrsim benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload long_trace --seed 1 --seconds 12 --trace 0

Workloads: long_trace, exact_fraction, profile_feedback, analytic_sweep (see
``workloads.py`` and ``BENCHMARK.json`` for what each one stresses).  The
program is imported from ``src/`` of the checkout that holds this file; the
run fails, without printing a result, when it is not there.

One client drives the public API in a closed loop: the next experiment
starts when the previous one has finished.  Set-up (import, input
generation and one warm-up experiment, repeated and the median taken) is
not timed with the experiments.  Each experiment's outputs are checked
after its timed region; a raise, a nonzero CLI exit or a failed check
counts it as failed.  At the default seed the outputs of the first cycle
must also match the digests in ``digests.json``; after an intended
behaviour change, replace them with the ones the run prints.

Times are corrected for the host's speed.  The host's cores are shared
with other tenants, and its speed swings by up to 2x within seconds, with
CPU time following wall time; no estimator over raw wall times taken in a
20 s run is steady under that.  So a fixed piece of pure-Python work
(``calibrate``) is timed right before and right after each timed region,
and between the stages of a long one, and each stretch of wall time is
scaled by ``REFERENCE_CAL_S`` over the mean of the calibrations on either
side of it (``Stopwatch``): the metrics are seconds at the host speed at
which the calibration takes ``REFERENCE_CAL_S``.  A change to the program
moves them as it moves wall time, since the calibration does not use it.
The raw wall-time figures are printed on the ``#`` lines.  The process
keeps to one core of those it may use.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` untraced and traced cycles alternate, the traced ones
record spans around the program's public functions (``spans.py``), and
the last line carries the per-layer metrics; the spans are written to
``.bench_out/`` in the checkout.  Lines before the last one start with
``#`` and are for people.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import inspect
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from collections import defaultdict
from fractions import Fraction

from spans import Recorder, attribute, write_spans
from workloads import WORKLOADS, CheckError, digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
# set-up repeats at least 3 times, and up to 9 while it has taken < 5 s
SETUP_REPEATS = (3, 9, 5.0)
# share of the traced experiments' wall time that may lie outside every
# span; more means the spans miss work the benchmark times
UNATTRIBUTED_MAX = 0.10

# calibrate() takes about this long on an uncontended core of a 2.1 GHz
# Xeon with Python 3.11; any fixed value serves, as long as both sides of a
# comparison use the same one
REFERENCE_CAL_S = 0.006

CLOSED_FORM = ("away_cycle_diamond", "away_cycle_three",
               "classify_regime_diamond", "steady_input_rate",
               "three_node_away_solution")
CYCLE_STEP = ("cycle_step_diamond", "cycle_step_three")


def calibrate() -> float:
    """Seconds a fixed piece of work takes now: Fraction and float
    arithmetic, dict and list updates, as the program does them."""
    start = time.perf_counter()
    acc, step, x, table, out = Fraction(0), Fraction(1, 3), 0.5, {}, []
    for i in range(1500):
        acc += step * (i % 7) / (i % 5 + 1)
        x = x * 1.0000001 + 0.1
        table[i % 97] = (x, i)
        out.append((i, x))
    return time.perf_counter() - start


def host_corrected(seconds, before, after):
    """``seconds`` at the speed at which ``calibrate`` takes
    ``REFERENCE_CAL_S``, from the calibrations ``before`` and ``after``."""
    return seconds * REFERENCE_CAL_S * 2 / (before + after)


class Stopwatch:
    """Times a region in stretches, from its creation to each ``lap``,
    calibrating before the first stretch and after each one, outside the
    timed stretches.  ``wall`` is the stretches' wall time and
    ``corrected`` their sum each corrected by its two calibrations."""

    def __init__(self):
        self.wall = self.corrected = 0.0
        self._cal = calibrate()
        self._start = time.perf_counter()

    def lap(self):
        seconds = time.perf_counter() - self._start
        cal = calibrate()
        self.wall += seconds
        self.corrected += host_corrected(seconds, self._cal, cal)
        self._cal = cal
        self._start = time.perf_counter()


class Program:
    """The hdrsim modules the benchmark drives."""

    def __init__(self):
        src = os.path.join(ROOT, "src")
        sys.path.insert(0, src)
        try:
            for name in ("model", "engine", "analytic", "scenarios", "cli"):
                setattr(self, name, importlib.import_module(f"hdrsim.{name}"))
        except ImportError as exc:
            raise SystemExit(f"bench: cannot import hdrsim from {src}: {exc}")
        if not os.path.abspath(self.model.__file__).startswith(src + os.sep):
            raise SystemExit(f"bench: hdrsim was imported from "
                             f"{self.model.__file__}, not from {src}")


def _slots_in(args, kwargs, result):
    return {"slots": len(args[0].records)}


def _slots_out(args, kwargs, result):
    return {"slots": len(result.records)}


# counts taken at the layer boundaries, from each call's arguments and result
COUNTERS = {
    "engine.run": lambda a, k, r: {
        "slots": len(r.records),
        "handovers": sum(1 for x in r.records if x.switched)},
    "engine.summarize": _slots_in,
    "engine.detect_cycles": _slots_in,
    "engine.energy_ledger": _slots_in,
    "engine.verify_trace": lambda a, k, r: {
        "slots": len(a[0].records), "problems": len(r)},
    "engine.write_trace_csv": lambda a, k, r: {
        "slots": len(a[0].records), "bytes": os.path.getsize(a[1])},
    "engine.read_trace_csv": _slots_out,
    "scenarios.windowed_stats": _slots_in,
    "scenarios.load_profile": lambda a, k, r: {"slots": r.length},
    "scenarios.run_with_feedback": lambda a, k, r: {
        "slots": len(r.records), "updates": len(r.feedback_log),
        "flagged": sum(1 for entry in r.feedback_log if entry[3])},
}


def span_targets(hd: Program):
    """(module, attribute, span name) for every public function of the
    four layers' modules, except ``engine.step``."""
    targets = []
    for short in ("engine", "scenarios", "analytic"):
        module = getattr(hd, short)
        for attr in module.__all__:
            fn = getattr(module, attr)
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and attr != "step"):
                targets.append((module, attr, f"{short}.{attr}"))
    # run_with_feedback calls the controller through its own import
    targets.append((hd.scenarios, "feedback_input_rate",
                    "analytic.feedback_input_rate"))
    targets.append((hd.cli, "main", lambda args: f"cli.{args[0][0]}"))
    return targets


class Tally:
    def __init__(self):
        # times of the experiments whose checks passed
        self.walls = defaultdict(list)   # label -> corrected seconds
        self.raw = defaultdict(list)     # label -> wall seconds
        self.units = {}                  # label -> slots or points
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digests = []

    def fail(self, label, exc):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")


def run_cycle(workload, i, tally, expected=None, recorder=None, on_end=None):
    """Run cycle ``i``, timing each experiment.  ``expected`` holds the
    digests the first cycle's outputs must have."""
    for pos, exp in enumerate(workload.cycle(i)):
        tally.attempted += 1
        watch = Stopwatch()
        # a traced experiment is one stretch, so the recorder's window holds
        # no calibration
        lap = watch.lap if recorder is None else (lambda: None)
        if recorder is not None:
            recorder.begin(tally.attempted)
        try:
            out = exp.run(lap)
        except Exception as exc:     # a raising experiment counts as failed
            if recorder is not None:
                recorder.end(exp.label)
            tally.fail(exp.label, exc)
            continue
        if recorder is not None:
            spanned = recorder.end(exp.label)
        watch.lap()
        if recorder is not None:
            on_end(spanned, exp)
        try:
            sha = digest(exp.check(out))
        except (CheckError, KeyError, ValueError, OSError) as exc:
            tally.fail(exp.label, exc)
            continue
        finally:
            del out     # freed here, not inside the next experiment's timer
        if i == 0:
            tally.digests.append(sha)
            if expected is not None and sha != expected[pos]:
                tally.fail(exp.label, CheckError(
                    "output differs from the digest recorded at the "
                    "default seed"))
                continue
        tally.walls[exp.label].append(watch.corrected)
        tally.raw[exp.label].append(watch.wall)
        tally.units[exp.label] = exp.units


def throughput(tally, walls=None):
    """Slots or points per second of a typical cycle: the work of one
    experiment of each kind over the sum of each kind's median time
    (corrected, unless other ``walls`` are given).  Medians keep one
    stalled experiment from moving the figure."""
    walls = tally.walls if walls is None else walls
    time_per_cycle = sum(statistics.median(w) for w in walls.values())
    return sum(tally.units.values()) / time_per_cycle if time_per_cycle \
        else 0.0


def setup(hd, cls, seed, workdir, tally):
    """Generate the inputs and run one warm-up experiment, several times;
    the warm-up counts as one attempted experiment."""
    least, most, budget = SETUP_REPEATS
    times, walls = [], []
    error = None
    while len(walls) < least or (len(walls) < most and sum(walls) < budget):
        watch = Stopwatch()
        workload = cls(hd, random.Random(seed), workdir)
        watch.lap()
        warm = workload.cycle(0)[0]
        try:
            warm.check(warm.run(watch.lap))
        except Exception as exc:     # reported as a failed experiment
            error = exc
        watch.lap()
        times.append(watch.corrected)
        walls.append(watch.wall)
    tally.attempted += 1
    if error is not None:
        tally.fail(f"warm-up {warm.label}", error)
    return workload, statistics.median(times), statistics.median(walls)


def untraced(workload, seconds, expected):
    tally = Tally()
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        run_cycle(workload, i, tally, expected)
        i += 1
    return tally, i


def traced(hd, workload, seconds, expected):
    """Alternate untraced and traced runs of the same cycles."""
    recorder = Recorder(COUNTERS)
    targets = span_targets(hd)
    plain, spanned = Tally(), Tally()
    layers = Layers()
    cycle = 0

    def on_end(exp, experiment):
        layers.add(exp, experiment.units, recorder.counts(exp), cycle == 0)

    start = time.perf_counter()
    while cycle == 0 or time.perf_counter() - start < seconds:
        run_cycle(workload, cycle, plain, expected)
        with recorder.installed(targets):
            run_cycle(workload, cycle, spanned, None, recorder, on_end)
        cycle += 1
    return layers, plain, spanned


def storage_bytes_per_slot(workload):
    """Bytes a trace holds per slot, from tracemalloc around one run."""
    probe = workload.storage_probe()
    if probe is None:
        return 0.0
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = probe()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / len(trace.records)


class Layers:
    """Per-layer totals over the traced experiments.  Only the first
    traced cycle keeps its spans, for writing out."""

    def __init__(self):
        self.own = defaultdict(float)        # self time by span name
        self.duration = defaultdict(float)   # span time by span name
        self.counts = defaultdict(float)
        self.first = defaultdict(float)      # counts of the first cycle
        self.wall = self.unattributed = 0.0
        self.sweep_points = 0
        self.n = 0
        self.kept = []

    def add(self, exp, units, counts, first_cycle):
        parts, rest = attribute(exp.spans, exp.start, exp.end)
        wall = exp.end - exp.start
        for name, t in parts.items():
            self.own[name] += t
        for s in exp.spans:
            self.duration[s.name] += s.end - s.start
        for name, v in counts.items():
            self.counts[name] += v
            if first_cycle:
                self.first[name] += v
        if counts.get("cli.sweep.calls"):
            self.sweep_points += units
        self.wall += wall
        self.unattributed += rest
        self.n += 1
        if first_cycle:
            self.kept.append(exp)

    def per_slot(self, name):
        slots = self.counts.get(name + ".slots", 0)
        return self.own.get(name, 0.0) * 1e6 / slots if slots else 0.0

    def per_call(self, names, unit=1e6):
        calls = sum(self.counts.get(n + ".calls", 0) for n in names)
        own = sum(self.own.get(n, 0.0) for n in names)
        return own * unit / calls if calls else 0.0

    def metrics(self, plain, spanned, oracle_error, bytes_per_slot) -> dict:
        c, first = self.counts, self.first

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "engine.run.us_per_slot": self.per_slot("engine.run"),
            "engine.run.slots": first["engine.run.slots"],
            "engine.run.handovers": first["engine.run.handovers"],
            "engine.trace.bytes_per_slot": bytes_per_slot,
            "engine.summarize.us_per_slot": self.per_slot("engine.summarize"),
            "engine.detect_cycles.us_per_slot":
                self.per_slot("engine.detect_cycles"),
            "scenarios.windowed_stats.us_per_slot":
                self.per_slot("scenarios.windowed_stats"),
            "engine.verify_trace.us_per_slot":
                self.per_slot("engine.verify_trace"),
            "engine.energy_ledger.us_per_slot":
                self.per_slot("engine.energy_ledger"),
            "engine.verify_trace.problems": c["engine.verify_trace.problems"],
            "engine.write_trace_csv.us_per_slot":
                self.per_slot("engine.write_trace_csv"),
            "engine.write_trace_csv.bytes_per_slot": ratio(
                c["engine.write_trace_csv.bytes"],
                c["engine.write_trace_csv.slots"]),
            "engine.read_trace_csv.us_per_slot":
                self.per_slot("engine.read_trace_csv"),
            "scenarios.load_profile.us_per_slot":
                self.per_slot("scenarios.load_profile"),
            "scenarios.write_window_stats_csv.ms":
                self.per_call(["scenarios.write_window_stats_csv"], 1e3),
            "scenarios.run_with_feedback.us_per_slot":
                self.per_slot("scenarios.run_with_feedback"),
            "scenarios.feedback.updates":
                first["scenarios.run_with_feedback.updates"],
            "scenarios.feedback.flagged_ratio": ratio(
                c["scenarios.run_with_feedback.flagged"],
                c["scenarios.run_with_feedback.updates"]),
            "analytic.closed_form.us_per_call":
                self.per_call([f"analytic.{n}" for n in CLOSED_FORM]),
            "analytic.cycle_step.us_per_call":
                self.per_call([f"analytic.{n}" for n in CYCLE_STEP]),
            "analytic.feedback_input_rate.calls":
                first["analytic.feedback_input_rate.calls"],
            "analytic.oracle.max_error": float(oracle_error),
            "cli.run.self_ms": self.per_call(["cli.run"], 1e3),
            "cli.scenario.self_ms": self.per_call(["cli.scenario"], 1e3),
            "cli.sweep.self_ms": self.per_call(["cli.sweep"], 1e3),
            "cli.sweep.us_per_point": ratio(
                self.duration["cli.sweep"] * 1e6, self.sweep_points),
            "trace.overhead_ratio": ratio(throughput(spanned),
                                          throughput(plain)),
            "trace.unattributed_ms": ratio(self.unattributed * 1e3, self.n),
        }


def report(values: dict, specs: list) -> dict:
    """Attach the units BENCHMARK.json gives; the names must match it."""
    units = {m["name"]: m["unit"] for m in specs}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} "
                           f"disagree with BENCHMARK.json")
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def tail_percentile(walls):
    """The highest of p99 and p90 with at least ten samples beyond it."""
    for q in (99, 90):
        if len(walls) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(walls, n=100)[q - 1]
    return None


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one core, as one client needs: on two, the sweep's thread pool would
    # time how the shared host schedules the second core, not the program
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    calibrate()     # the first call pays for warming up the calibration
    watch = Stopwatch()
    hd = Program()
    watch.lap()

    with open(os.path.join(HERE, "digests.json")) as fh:
        recorded = json.load(fh).get(args.workload)
    expected = recorded if args.seed == DEFAULT_SEED else None

    cls = WORKLOADS[args.workload]
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        warm = Tally()
        workload, setup_s, setup_wall = setup(hd, cls, args.seed, workdir,
                                              warm)
        if args.trace:
            layers, plain, spanned = traced(hd, workload, args.seconds,
                                            expected)
            bytes_per_slot = storage_bytes_per_slot(workload)
            tallies = [plain, spanned, warm]
        else:
            tally, cycles = untraced(workload, args.seconds, expected)
            tallies = [tally, warm]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    first = tallies[0]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed} "
          f"failed_ratio={failed / attempted:.6g}")
    for error in (e for t in tallies for e in t.errors):
        print(f"# error {error}")
    print(f"# digests {json.dumps(first.digests)}")
    setup_s += watch.corrected
    print(f"# setup: {setup_s:.6g} s corrected, "
          f"{setup_wall + watch.wall:.6g} s wall")
    correct = failed == 0

    if args.trace:
        values = layers.metrics(plain, spanned,
                                getattr(workload, "oracle_error", 0),
                                bytes_per_slot)
        unattributed = layers.unattributed / layers.wall if layers.wall \
            else 1.0
        correct &= unattributed <= UNATTRIBUTED_MAX
        correct &= values["engine.verify_trace.problems"] == 0
        correct &= values["analytic.oracle.max_error"] == 0
        print(f"# traced experiments={layers.n} wall_ms="
              f"{layers.wall * 1e3:.3f} = layers "
              f"{sum(layers.own.values()) * 1e3:.3f} + unattributed "
              f"{layers.unattributed * 1e3:.3f} ({unattributed:.2%}, at "
              f"most {UNATTRIBUTED_MAX:.0%})")
        for name, t in sorted(layers.own.items()):
            print(f"#   self {name} {t * 1e3:.3f} ms")
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        path = os.path.join(ROOT, ".bench_out",
                            f"spans-{args.workload}-{args.seed}.jsonl")
        write_spans(layers.kept, path)
        print(f"# spans of the first traced cycle written to "
              f"{os.path.relpath(path, ROOT)}")
        metrics = report(values, spec["per_layer"])
    else:
        walls = [w for ws in tally.walls.values() for w in ws] or [0.0]
        raw = [w for ws in tally.raw.values() for w in ws] or [0.0]
        unit = workload.unit
        tail = tail_percentile(walls)
        print(f"# cycles={cycles} experiments={len(walls)} "
              f"{unit}_per_s={throughput(tally):.6g} "
              f"experiment_p50_ms={statistics.median(walls) * 1e3:.6g}"
              + (f" p{tail[0]}_ms={tail[1] * 1e3:.6g}" if tail else "")
              + f" (n={len(walls)}, corrected; wall: {unit}_per_s="
              f"{throughput(tally, tally.raw):.6g} experiment_p50_ms="
              f"{statistics.median(raw) * 1e3:.6g})")
        for label, ws in tally.walls.items():
            print(f"#   {label}: {tally.units[label]} {unit}, median "
                  f"{statistics.median(ws) * 1e3:.6g} ms corrected, "
                  f"{statistics.median(tally.raw[label]) * 1e3:.6g} ms wall, "
                  f"over {len(ws)}")
        metrics = report({
            "throughput_per_s": throughput(tally),
            "experiment_p50_ms": statistics.median(walls) * 1e3,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }, spec["end_to_end"])
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
