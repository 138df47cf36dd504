"""The four benchmark workloads.

Each workload draws its inputs from the seed it is given, builds them
through the public constructors (``SystemParams``, ``load_profile``) so an
invalid input fails set-up instead of being timed, and hands out cycles of
experiments.  An experiment is one closed-loop request: ``run(lap)`` is the
timed pipeline through the public API, and ``check`` verifies its outputs
afterwards, outside the timed region, and returns the text whose digest is
recorded at the default seed.  A pipeline of several stages calls
``lap()`` between them, where the benchmark measures the host's speed
outside the timed stages (see ``run.py``).

Every cycle has the same mix of experiment kinds; the seed picks the
concrete inputs (initial batteries, oracle points, profile, sweep axes).
Fixing the mix keeps the cost of a cycle, and so the metrics, comparable
across seeds.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, replace
from fractions import Fraction as F
from typing import Callable

# each kind of input is drawn this many times; cycle i uses draw i % POOL
POOL = 4


class CheckError(Exception):
    """An experiment's output failed a correctness check."""


@dataclass
class Experiment:
    label: str
    units: int                      # slots simulated, or sweep points
    run: Callable[[Callable[[], None]], object]   # run(lap)
    check: Callable[[object], str]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _reference(model, exact=False):
    """The acceptance reference design point, hyst2 policy."""
    v = F if exact else float
    return model.SystemParams(
        harvest_rates=(v("0.8"), v("0.6")), input_rate=v("17.5"),
        packet_energy=v("0.08"), status_energy=v("0.01"),
        switch_energy=v("0.05"), battery_capacity=v("100"),
        thresholds=model.Hysteresis2(v("6.2"), v("5")))


def _config_a(model, policy):
    """Three-node comparison config A."""
    return model.SystemParams(
        harvest_rates=(0.1, 0.7, 0.8), input_rate=20.0, packet_energy=0.08,
        battery_capacity=100.0, thresholds=policy(5.0, 10.0, 10.0))


# ---------------------------------------------------------------------------
# long_trace
# ---------------------------------------------------------------------------

class LongTrace:
    """Float runs of 5e4 slots through run, summarize, verify_trace and a
    trace CSV round trip, alternating the reference hyst2 point and es3
    config A."""

    unit = "slots"
    SLOTS = 50_000

    def __init__(self, hd, rng: random.Random, workdir: str):
        self.hd = hd
        self.path = os.path.join(workdir, "trace.csv")
        self.params = {"hyst2": _reference(hd.model),
                       "es3": _config_a(hd.model, hd.model.EarliestSwitch3)}
        self.batteries = {
            kind: [tuple(round(rng.uniform(20.0, 80.0), 3)
                         for _ in range(p.n_nodes)) for _ in range(POOL)]
            for kind, p in self.params.items()}
        for kind, p in self.params.items():
            for b in self.batteries[kind]:
                hd.model.default_state(p, batteries=b)

    def cycle(self, i: int) -> list[Experiment]:
        return [self._experiment(kind, self.batteries[kind][i % POOL])
                for kind in ("hyst2", "es3")]

    def storage_probe(self):
        p, b = self.params["hyst2"], self.batteries["hyst2"][0]
        return lambda: self.hd.engine.run(p, n_slots=self.SLOTS,
                                          initial_batteries=b)

    def _experiment(self, kind, batteries):
        engine = self.hd.engine
        params = self.params[kind]

        def run(lap):
            trace = engine.run(params, n_slots=self.SLOTS,
                               initial_batteries=batteries)
            lap()
            summary = engine.summarize(trace)
            lap()
            problems = engine.verify_trace(trace)
            lap()
            engine.write_trace_csv(trace, self.path)
            lap()
            return trace, summary, problems, engine.read_trace_csv(self.path)

        def check(out):
            trace, summary, problems, back = out
            if problems:
                raise CheckError(f"verify_trace: {problems[0]}")
            _same_trace(trace, back)
            with open(self.path, "rb") as fh:
                file_hash = hashlib.sha256(fh.read()).hexdigest()
            return f"{summary!r}\n{file_hash}\n"

        return Experiment(kind, self.SLOTS, run, check)


def _same_trace(trace, back):
    """The re-read trace must equal the in-memory one.  Comparing the floats
    for equality is the 17-significant-digit check: 17 digits round-trip
    every double exactly."""
    if len(back.records) != len(trace.records):
        raise CheckError("re-read trace has a different length")
    for a, b in zip(trace.records, back.records):
        if (a.slot != b.slot or a.active != b.active
                or a.switched != b.switched
                or float(a.packets) != b.packets
                or a.suppressed != b.suppressed
                or tuple(map(float, a.battery_pre)) != b.battery_pre
                or tuple(map(float, a.battery_post)) != b.battery_post):
            raise CheckError(f"slot {a.slot}: re-read record differs")


# ---------------------------------------------------------------------------
# exact_fraction
# ---------------------------------------------------------------------------

# Dyadic points in the style of the oracle-equivalence acceptance check:
# packet energy 1/16 makes every phase a whole number of slots, so the
# cycle steppers are exact oracles for the engine.  Each point, with every
# whole-mJ shift of the initial batteries in [-8, 8] where it has one, keeps
# whole phases over all 5e3 slots; points whose orbit later grazes the
# floor at a fractional level leave the oracle's assumptions and are not
# listed.
# (e1, e2, g, h1, h2, capacity, initial batteries, settle, shiftable)
DIAMOND_POINTS = [
    ("1/4", "1/2", 20, 3, 3, 400, (200, 200), 1, True),
    ("1/2", "1/4", 20, "9/2", "3/2", 400, (200, 200), 1, True),
    ("1/2", "1/2", 24, 3, 3, 400, (200, 200), 1, True),
    ("1/2", "1/4", 20, "5/2", "5/2", 400, (12, 12), 6, False),
    ("1/2", "1/4", 12, "5/2", "5/2", 64, (64, 63), 4, False),
    ("1/2", "3/4", 16, 2, 2, 64, (64, 63), 4, False),
]
# (harvest triple, g, symmetric threshold); capacity 900, batteries 400
# shifted by a whole mJ in [-8, 8]
THREE_POINTS = [
    (("1/2", "1/2", "1/2"), 32, 4),
    (("1/4", "1/4", "3/4"), 16, 4),
    (("1/4", "3/4", "1/4"), 16, 3),
    (("1/4", "1/4", "1/4"), 32, 6),
]


class ExactFraction:
    """Fraction runs of 5e3 slots: run, verify_trace(tol=0), then the
    closed-form cycle stepper over the trace's handovers.  A cycle holds one
    reference-point run and one run of every dyadic point, each labelled by
    its place in ``DIAMOND_POINTS`` or ``THREE_POINTS``, so every cycle
    does the same work whatever the seed and however many cycles fit."""

    unit = "slots"
    SLOTS = 5_000

    def __init__(self, hd, rng: random.Random, workdir: str):
        self.hd = hd
        self.oracle_error = 0        # worst oracle discrepancy seen
        model = hd.model
        self.reference = _reference(model, exact=True)
        self.ref_batteries = [
            (F(rng.randint(3000, 7000), 100), F(rng.randint(3000, 7000), 100))
            for _ in range(POOL)]
        # the seed shifts the initial batteries of every point
        self.diamond = []
        for e1, e2, g, h1, h2, cap, b0, settle, shift in DIAMOND_POINTS:
            offset = rng.randint(-8, 8) if shift else 0
            params = model.SystemParams(
                harvest_rates=(F(e1), F(e2)), input_rate=F(g),
                packet_energy=F(1, 16), battery_capacity=F(cap),
                thresholds=model.Hysteresis2(F(h1), F(h2)))
            self.diamond.append((params, tuple(F(b) + offset for b in b0),
                                 settle))
        self.three = []
        for e, g, h in THREE_POINTS:
            params = model.SystemParams(
                harvest_rates=tuple(F(x) for x in e), input_rate=F(g),
                packet_energy=F(1, 16), battery_capacity=F(900),
                thresholds=model.RoundRobin3(F(h), F(h), F(h)))
            self.three.append((params, (F(400 + rng.randint(-8, 8)),) * 3,
                               3))
        for b0 in self.ref_batteries:
            model.default_state(self.reference, batteries=b0)

    def cycle(self, i: int) -> list[Experiment]:
        return ([self._experiment("reference", self.reference,
                                  self.ref_batteries[i % POOL], None, None)]
                + [self._experiment(f"diamond-{k}", *point,
                                    "cycle_step_diamond")
                   for k, point in enumerate(self.diamond)]
                + [self._experiment(f"three-{k}", *point, "cycle_step_three")
                   for k, point in enumerate(self.three)])

    def storage_probe(self):
        b = self.ref_batteries[0]
        return lambda: self.hd.engine.run(self.reference, n_slots=self.SLOTS,
                                          initial_batteries=b)

    def _experiment(self, label, params, batteries, settle, stepper):
        engine = self.hd.engine

        def run(lap):
            trace = engine.run(params, n_slots=self.SLOTS,
                               initial_batteries=batteries)
            lap()
            problems = engine.verify_trace(trace, tol=0)
            lap()
            oracle = None
            if stepper is not None:
                oracle = self._oracle(trace, params, settle, stepper)
            return trace, problems, oracle

        def check(out):
            trace, problems, oracle = out
            if problems:
                raise CheckError(f"verify_trace: {problems[0]}")
            last = trace.records[-1]
            text = (f"{last.battery_pre} {last.active} "
                    f"{len(trace.switch_slots())}\n")
            if oracle is not None:
                worst, phases, problem = oracle
                if problem:
                    raise CheckError(f"oracle: {problem}")
                self.oracle_error = max(self.oracle_error, worst)
                if worst != 0:
                    raise CheckError(f"oracle error {worst} is not 0")
                if phases < 20:
                    raise CheckError(f"only {phases} oracle phases")
                text += f"{phases}\n"
            return text

        return Experiment(label, self.SLOTS, run, check)

    def _oracle(self, trace, params, settle, stepper_name):
        """Step the closed-form oracle from a settled handover to node 1
        across every later handover.

        Returns (worst error, phases, problem)."""
        analytic = self.hd.analytic
        records = trace.records
        starts = [i for i, r in enumerate(records)
                  if r.switched and r.active == 0]
        if len(starts) <= settle:
            return None, 0, "too few rotations to settle"
        idx = starts[settle]
        state = analytic.CycleStepState(batteries=records[idx].battery_pre,
                                        active=0)
        worst = 0
        phases = 0
        while True:
            state, stats = getattr(analytic, stepper_name)(state, params)
            length = stats.length
            if length != int(length) or length < 1:
                return worst, phases, f"phase length {length} is not whole"
            nxt_idx = idx + int(length)
            if nxt_idx >= len(records):
                return worst, phases, None
            if any(records[j].switched for j in range(idx + 1, nxt_idx)):
                return worst, phases, "engine handed over inside a phase"
            nxt = records[nxt_idx]
            if not nxt.switched or nxt.active != state.active:
                return worst, phases, "engine missed the predicted handover"
            v = records[idx].active
            packets = sum(records[j].packets for j in range(idx, nxt_idx))
            worst = max(worst, abs(packets - stats.packets[v]),
                        *(abs(a - b) for a, b in
                          zip(nxt.battery_pre, state.batteries)))
            state = analytic.CycleStepState(batteries=nxt.battery_pre,
                                            active=nxt.active)
            idx = nxt_idx
            phases += 1


# ---------------------------------------------------------------------------
# CLI-driven workloads
# ---------------------------------------------------------------------------

def _call_cli(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _stdout_map(text):
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


def _csv_packets(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return len(rows), sum(float(r["packets"]) for r in rows)


def _write_config(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


PROFILE_SLOTS = 40_000


def profile_csv(rng: random.Random, slots: int = PROFILE_SLOTS) -> str:
    """A seeded two-node piecewise-constant profile covering ``slots``."""
    lines = ["slot_range,e1,e2,g"]
    lo = 0
    while lo < slots:
        hi = min(slots, lo + rng.randint(400, 2400)) - 1
        e1, e2, g = (rng.uniform(0.0, 0.6), rng.uniform(0.0, 0.6),
                     rng.uniform(2.0, 9.0))
        lines.append(f"{lo}-{hi},{e1:.4f},{e2:.4f},{g:.3f}")
        lo = hi + 1
    return "\n".join(lines) + "\n"


class ProfileFeedback:
    """In-process ``hdrsim scenario`` calls on a seeded 4e4-slot profile
    and the two bundled 8000-slot profiles, each with and without
    ``--feedback``, plus one ``hdrsim run`` on the flat profile."""

    unit = "slots"

    def __init__(self, hd, rng: random.Random, workdir: str):
        self.hd = hd
        data = os.path.join(os.path.dirname(hd.model.__file__), "data")
        seeded = os.path.join(workdir, "profile.csv")
        with open(seeded, "w") as fh:
            fh.write(profile_csv(rng))
        self.profiles = {
            "seeded": seeded,
            "flat": os.path.join(data, "harvest_flat_input.csv"),
            "scheduled": os.path.join(data, "harvest_scheduled_input.csv"),
        }
        self.lengths = {name: hd.scenarios.load_profile(path).length
                        for name, path in self.profiles.items()}
        # the profile supplies the harvest; the controller starts from g
        self.params = hd.model.SystemParams(
            harvest_rates=(0.3, 0.2), input_rate=6.0, packet_energy=0.08,
            status_energy=0.01, switch_energy=0.05,
            thresholds=hd.model.Hysteresis2(10.0, 10.0))
        p = self.params
        self.configs = {}
        for name, path in self.profiles.items():
            for k in range(POOL):
                b = [round(rng.uniform(10.0, 60.0), 3) for _ in range(2)]
                hd.model.default_state(p, batteries=b)
                cfg = {"harvest_rates": list(p.harvest_rates),
                       "input_rate": p.input_rate,
                       "packet_energy": p.packet_energy,
                       "status_energy": p.status_energy,
                       "switch_energy": p.switch_energy,
                       "thresholds": [p.thresholds.threshold1,
                                      p.thresholds.threshold2],
                       "profile": path, "initial_batteries": b,
                       "out": os.path.join(workdir, f"out-{name}-{k}")}
                self.configs[name, k] = (_write_config(
                    os.path.join(workdir, f"{name}-{k}.json"), cfg),
                    cfg["out"])

    def cycle(self, i: int) -> list[Experiment]:
        k = i % POOL
        out = []
        for name in self.profiles:
            for feedback in (False, True):
                out.append(self._scenario(name, k, feedback))
        out.append(self._run("flat", k))
        return out

    def storage_probe(self):
        profile = self.hd.scenarios.load_profile(self.profiles["seeded"])
        return lambda: self.hd.engine.run(self.params, profile=profile)

    def _scenario(self, name, k, feedback):
        cfg, outdir = self.configs[name, k]
        argv = ["scenario", "--config", cfg, "--window", "1000"]
        if feedback:
            argv.append("--feedback")
        label = f"scenario-{name}{'-feedback' if feedback else ''}"

        def check(result):
            code, text = result
            if code != 0:
                raise CheckError(f"{label} exited {code}")
            rows, packets = _csv_packets(os.path.join(outdir, "trace.csv"))
            printed = float(_stdout_map(text)["total_delivered"])
            if rows != self.lengths[name] or not math.isclose(
                    printed, packets, rel_tol=1e-10, abs_tol=1e-9):
                raise CheckError(f"{label}: total_delivered {printed} != "
                                 f"trace.csv packet sum {packets}")
            return text

        return Experiment(label, self.lengths[name],
                          lambda lap: _call_cli(self.hd.cli, argv), check)

    def _run(self, name, k):
        cfg, outdir = self.configs[name, k]
        label = f"run-{name}"

        def check(result):
            code, text = result
            if code != 0:
                raise CheckError(f"{label} exited {code}")
            rows, packets = _csv_packets(os.path.join(outdir, "trace.csv"))
            got = _stdout_map(text)
            if int(got["slots"]) != rows or not math.isclose(
                    float(got["packets_total"]), packets, rel_tol=1e-10,
                    abs_tol=1e-9):
                raise CheckError(f"{label}: summary disagrees with trace.csv")
            return text

        return Experiment(label, self.lengths[name],
                          lambda lap: _call_cli(self.hd.cli,
                                            ["run", "--config", cfg]), check)


SWEEP_POINTS = 10_000


class AnalyticSweep:
    """In-process ``hdrsim sweep`` calls of 1e4 closed-form points: an ``h``
    axis on the reference point and a ``g`` axis on config A, once with the
    es3 and once with the rr3 policy."""

    unit = "points"

    def __init__(self, hd, rng: random.Random, workdir: str):
        self.hd = hd
        model = hd.model
        ref = _reference(model)
        self.params = {
            "reference": ref,
            "es3": _config_a(model, model.EarliestSwitch3),
            "rr3": _config_a(model, model.RoundRobin3),
        }
        self.configs = {}
        for name, p in self.params.items():
            cfg = {"harvest_rates": list(p.harvest_rates),
                   "input_rate": p.input_rate,
                   "packet_energy": p.packet_energy,
                   "status_energy": p.status_energy,
                   "switch_energy": p.switch_energy,
                   "battery_capacity": p.battery_capacity,
                   "policy": "hyst2" if p.n_nodes == 2 else name,
                   "thresholds": [p.thresholds.threshold_from(u)
                                  for u in range(p.n_nodes)]}
            self.configs[name] = _write_config(
                os.path.join(workdir, f"sweep-{name}.json"), cfg)
        self.axes = {
            "h": [self._axis(rng.uniform(1.0, 5.0),
                             rng.uniform(0.002, 0.0045)) for _ in range(POOL)],
            "g": [self._axis(rng.uniform(17.0, 20.0),
                             rng.uniform(0.001, 0.003)) for _ in range(POOL)],
        }

    @staticmethod
    def _axis(lo, step):
        lo, step = round(lo, 4), round(step, 6)
        return lo, lo + (SWEEP_POINTS - 1) * step, step

    def cycle(self, i: int) -> list[Experiment]:
        k = i % POOL
        return [self._sweep("reference", "h", self.axes["h"][k]),
                self._sweep("es3", "g", self.axes["g"][k]),
                self._sweep("reference", "h", self.axes["h"][(k + 1) % POOL]),
                self._sweep("rr3", "g", self.axes["g"][(k + 1) % POOL])]

    def storage_probe(self):
        return None

    def _sweep(self, name, axis, bounds):
        lo, hi, step = bounds
        argv = ["sweep", "--config", self.configs[name],
                "--axis", f"{axis}={lo!r}:{hi!r}:{step!r}"]
        label = f"sweep-{axis}-{name}"

        def check(result):
            code, text = result
            if code != 0:
                raise CheckError(f"{label} exited {code}")
            want = self._serial(name, axis, lo, hi, step)
            got = text.splitlines()
            if len(got) != len(want):
                raise CheckError(f"{label}: {len(got)} lines, "
                                 f"expected {len(want)}")
            for a, b in zip(got, want):
                if a != b:
                    raise CheckError(f"{label}: row {a!r} != serial {b!r}")
            return text

        return Experiment(label, SWEEP_POINTS,
                          lambda lap: _call_cli(self.hd.cli, argv), check)

    def _serial(self, name, axis, lo, hi, step):
        """The sweep's rows from direct serial calls to ``analytic``."""
        analytic, model = self.hd.analytic, self.hd.model
        params = self.params[name]

        def fmt(x):
            return format(float(x), ".12g")

        lines = [f"{axis},steady_input_rate,cycle_length,split,drift"]
        k = 0
        while True:
            v = lo + k * step
            if v > hi + step * 1e-9:
                break
            k += 1
            if axis == "g":
                local = params.with_input_rate(v)
            else:
                t = params.thresholds
                local = replace(params, thresholds=model.Hysteresis2(
                    t.threshold1 * v / t.total, t.threshold2 * v / t.total))
            if local.n_nodes == 3:
                pred = analytic.away_cycle_three(local)
            else:
                pred = analytic.away_cycle_diamond(local)
            shares = pred.split
            split = ":".join(fmt(s / shares[-1]) for s in shares)
            rate = analytic.steady_input_rate(local)
            lines.append(",".join([fmt(v), fmt(rate), fmt(pred.cycle_length),
                                   split, fmt(pred.drift)]))
        return lines


WORKLOADS = {
    "long_trace": LongTrace,
    "exact_fraction": ExactFraction,
    "profile_feedback": ProfileFeedback,
    "analytic_sweep": AnalyticSweep,
}
