"""Command-line front end.

One experiment per JSON config file; subcommands run the simulator, print
closed-form predictions, compare the two, sweep a parameter, or replay a
harvest profile.  All stdout numbers use 12 significant digits so goldens
are stable across IEEE-754 platforms.

Exit codes: 0 success, 1 bad configuration or arguments, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import operator
import os
import sys

from . import analytic, engine, scenarios
from .model import (PACKET_MODES, SystemParams, ThresholdPolicy,
                    _finite_numbers, _left_sum, default_state, validate)

__all__ = ["main"]


class ConfigError(ValueError):
    pass


# policy name -> (successor rule, number of thresholds)
_POLICIES = {"hyst2": ("rr", 2), "rr3": ("rr", 3), "es3": ("es", 3)}

_PARAM_KEYS = ("harvest_rates", "input_rate", "packet_energy", "status_energy",
               "switch_energy", "battery_capacity", "policy", "thresholds")
_RUN_KEYS = ("horizon", "warmup", "packet_mode", "initial_batteries",
             "initial_active", "profile", "out")


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - set(_PARAM_KEYS) - set(_RUN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return cfg


def _build_params(cfg: dict) -> SystemParams:
    try:
        policy_name = cfg.get("policy", "hyst2")
        if policy_name not in _POLICIES:
            raise ConfigError(f"unknown policy {policy_name!r}; "
                              f"expected one of {sorted(_POLICIES)}")
        thresholds = cfg["thresholds"]
        rule, count = _POLICIES[policy_name]
        listed = isinstance(thresholds, (list, tuple))
        if not listed or len(thresholds) != count:
            raise ConfigError(
                f"policy {policy_name!r} takes {count} thresholds, got "
                f"{len(thresholds) if listed else repr(thresholds)}")
        policy = ThresholdPolicy(thresholds, rule)
        return SystemParams(
            harvest_rates=tuple(cfg["harvest_rates"]),
            input_rate=cfg["input_rate"],
            packet_energy=cfg["packet_energy"],
            status_energy=cfg.get("status_energy", 0),
            switch_energy=cfg.get("switch_energy", 0),
            battery_capacity=cfg.get("battery_capacity", 100.0),
            thresholds=policy,
        )
    except KeyError as exc:
        raise ConfigError(f"config missing required key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _effective(cfg: dict, args) -> dict:
    """Config with command-line overrides folded in."""
    out = dict(cfg)
    for key in ("policy", "horizon", "warmup", "out", "packet_mode"):
        value = getattr(args, key, None)
        if value is not None:
            out[key] = value
    return out


def _run_setup(cfg: dict):
    """Common knobs for the simulating subcommands."""
    params = _build_params(cfg)
    # a bool is an int to Python, but not a slot count or a node number
    horizon = cfg.get("horizon")
    if horizon is not None and (type(horizon) is not int or horizon < 1):
        raise ConfigError(f"horizon must be an integer of at least 1 slot, "
                          f"got {horizon!r}")
    warmup = cfg.get("warmup", 0)
    if (type(warmup) is not int or warmup < 0
            or (horizon is not None and warmup >= horizon)):
        raise ConfigError(f"warmup must be a non-negative integer below the "
                          f"horizon, got {warmup!r}")
    mode = cfg.get("packet_mode", "fractional")
    if mode not in PACKET_MODES:
        raise ConfigError(f"packet_mode must be one of {PACKET_MODES}")
    active = cfg.get("initial_active", 1)
    if type(active) is not int or not 1 <= active <= params.n_nodes:
        raise ConfigError(f"initial_active must name node "
                          f"1..{params.n_nodes}, got {active!r}")
    try:
        batteries, _ = default_state(params, mode,
                                     cfg.get("initial_batteries"), active - 1)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad initial_batteries: {exc}") from None
    path = cfg.get("profile")
    if path is not None and not isinstance(path, str):
        raise ConfigError(f"profile must be a path or null, got {path!r}")
    profile = None
    if path:
        try:
            profile = scenarios.load_profile(path)
        except OSError as exc:
            raise ConfigError(f"cannot read profile: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"bad profile: {exc}") from None
    return params, horizon, warmup, mode, batteries, active - 1, profile


def _out_dir(cfg: dict) -> str:
    path = cfg.get("out", ".")
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") \
            from None
    return path


def _print_summary(summary):
    print("slots", summary.slots)
    print("packets_total", _fmt(summary.packets_total))
    print("throughput", _fmt(summary.throughput))
    print("per_node_packets", " ".join(_fmt(p) for p in summary.per_node_packets))
    print("node_share", " ".join(_fmt(s) for s in summary.node_share))
    print("switches", summary.switch_count)
    print("cycles", summary.cycle_count)
    if summary.mean_cycle_length is not None:
        print("mean_cycle_length", _fmt(summary.mean_cycle_length))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_run(args, cfg) -> int:
    params, horizon, warmup, mode, batteries, active, profile = _run_setup(cfg)
    if horizon is None and profile is None:
        raise ConfigError("config needs a horizon or a profile")
    for note in validate(params):
        print(f"note: {note}", file=sys.stderr)
    trace = engine.run(params, n_slots=horizon, profile=profile,
                       packet_mode=mode, initial_batteries=batteries,
                       initial_active=active)
    out = _out_dir(cfg)
    engine.write_trace_csv(trace, os.path.join(out, "trace.csv"))
    summary = engine.summarize(trace, warmup=warmup)
    _print_summary(summary)
    with open(os.path.join(out, "summary.csv"), "w",
              encoding="utf-8") as fh:
        fh.write("slots,packets_total,throughput,switches,cycles,"
                 "mean_cycle_length\n")
        mean = summary.mean_cycle_length
        fh.write(",".join([str(summary.slots), _fmt(summary.packets_total),
                           _fmt(summary.throughput), str(summary.switch_count),
                           str(summary.cycle_count),
                           _fmt(mean) if mean is not None else ""]) + "\n")
    return 0


def _closed_forms(params: SystemParams):
    """The closed form that predicts the steady state of ``params``, and
    its numeric core.  The choice rests on the node count and the control
    floor alone, which an ``h`` or ``g`` axis leaves fixed."""
    if params.n_nodes == 3:
        return analytic.away_cycle_three, analytic._away_three
    if params.control_floor == 0:
        return analytic.classify_regime_diamond, analytic._regime_diamond
    return analytic.away_cycle_diamond, analytic._away_diamond


def _closed_form(params: SystemParams):
    return _closed_forms(params)[0]


def _split_text(summary) -> str:
    shares = summary.split
    base = shares[-1]
    return ":".join(_fmt(s / base) for s in shares)


def _print_prediction(pred, params):
    print("regime", pred.regime)
    print("active_slots", " ".join(_fmt(s) for s in pred.active_slots))
    print("cycle_length", _fmt(pred.cycle_length))
    print("cycle_packets", " ".join(_fmt(p) for p in pred.cycle_packets))
    print("throughput", _fmt(pred.throughput))
    print("drift", _fmt(pred.drift))
    print("split", _split_text(pred))
    print("steady_input_rate", _fmt(analytic.steady_input_rate(params)))


def cmd_analytic(args, cfg) -> int:
    params = _build_params(cfg)
    _print_prediction(_closed_form(params)(params), params)
    return 0


def cmd_compare(args, cfg) -> int:
    if cfg.get("profile"):
        raise ConfigError("compare simulates the static parameters; "
                          "it takes no profile")
    params, horizon, warmup, mode, batteries, active, _ = _run_setup(cfg)
    if horizon is None:
        raise ConfigError("compare needs a horizon")
    pred = _closed_form(params)(params)
    trace = engine.run(params, n_slots=horizon, packet_mode=mode,
                       initial_batteries=batteries, initial_active=active)
    cycles = engine.detect_cycles(trace, warmup=warmup)
    if not cycles:
        raise RuntimeError("no full cycles after warmup; nothing to compare")

    count = len(cycles)
    slots = _left_sum(c.length for c in cycles)
    sim_len = slots / count
    sim_thru = _left_sum(c.packets_total for c in cycles) / slots
    sim_drift = _left_sum(_left_sum(c.drift) / len(c.drift)
                          for c in cycles) / count

    def row(name, sim, ref):
        dev = "" if ref == 0 else _fmt((sim - ref) / ref)
        print(name, _fmt(sim), _fmt(ref), dev)

    print("quantity simulated predicted rel_dev")
    row("cycle_length", sim_len, pred.cycle_length)
    row("throughput", sim_thru, pred.throughput)
    row("drift_per_cycle", sim_drift, pred.drift)
    return 0


_MAX_AXIS_POINTS = 10**6


def _parse_axis(spec: str):
    try:
        name, rng = spec.split("=")
        lo_s, hi_s, step_s = rng.split(":")
        lo, hi, step = float(lo_s), float(hi_s), float(step_s)
    except ValueError:
        raise ConfigError(f"bad axis {spec!r}; expected name=start:stop:step") \
            from None
    if step <= 0 or hi < lo or not all(map(math.isfinite, (lo, hi, step))):
        raise ConfigError("axis needs finite values, start <= stop and a "
                          "positive step")
    # the points are lo + k * step up to hi (and a hair past it); count
    # them before listing any, starting from (hi - lo) / step and moving
    # to where the float rounding of lo + k * step puts the end
    end = hi + step * 1e-9
    count = int(min((hi - lo) / step, _MAX_AXIS_POINTS)) + 1
    while count <= _MAX_AXIS_POINTS and lo + count * step <= end:
        count += 1
    while lo + (count - 1) * step > end:
        count -= 1
    if count > _MAX_AXIS_POINTS:
        many = max((hi - lo) / step + 1, count)
        raise ConfigError(f"axis {spec!r} has about {many:.0f} points, more "
                          f"than the {_MAX_AXIS_POINTS} allowed")
    return name.strip(), [lo + k * step for k in range(count)]


def cmd_sweep(args, cfg) -> int:
    """Closed-form results at each point of an ``h`` or ``g`` axis, from
    the numeric cores, with no objects built per point.  What the axis
    leaves alone is worked out once: the other fields, which
    ``_build_params`` checked, the thresholds' total and rule, the harvest
    rates' sum, the closed form and, on a ``g`` axis, the steady input
    rate, which never reads the input rate.

    Each point still gets the checks ``SystemParams`` makes, in point
    order: ``_CSV_CHUNK`` points at a time, the axis is checked in one
    pass, the cores run up to the first point that fails, and that point
    is built through the constructors, which raise its error.  The rows
    of a chunk are formatted by one ``%`` call on the row template
    repeated; ``%.12g`` gives each cell the text ``_fmt`` gives it."""
    params = _build_params(cfg)
    name, values = _parse_axis(args.axis)
    e, g, c, ths = (params.harvest_rates, params.input_rate,
                    params.packet_energy, params.thresholds)
    ct, cr, cap = (params.status_energy, params.switch_energy,
                   params.battery_capacity)
    shares, total, rule = ths.values, ths.total, ths.rule
    core = _closed_forms(params)[1]
    harvest = _left_sum(e)
    if name == "g":
        def at(v):
            return SystemParams(e, v, c, ths, ct, cr, cap)
    elif name == "h":
        # scale all thresholds, preserving their ratios
        def at(v):
            return SystemParams(e, g, c, ThresholdPolicy(
                tuple([t * v / total for t in shares]), rule), ct, cr, cap)
    else:
        raise ConfigError(f"unsupported sweep axis {name!r}; use h or g")

    # a point that fails leaves stdout and the output file untouched, so
    # the lines collect in a buffer until the last point is done
    text = io.StringIO()
    text.write(f"{name},steady_input_rate,cycle_length,split,drift\n")
    row = ("%.12g,%.12g,%.12g," + ":".join(["%.12g"] * params.n_nodes)
           + ",%.12g\n")
    steady = None
    for i in range(0, len(values), engine._CSV_CHUNK):
        chunk = values[i:i + engine._CSV_CHUNK]
        cells = []
        if name == "g":
            # the other fields passed; of the load, SystemParams refuses
            # only a negative one
            passed = next((k for k, v in enumerate(chunk) if v < 0),
                          len(chunk))
            for v in chunk[:passed]:
                _, _, length, packets, _, drift = core(e, v, c, shares,
                                                       total, ct, cr)
                if steady is None:
                    # taken where the first point takes it, after that
                    # point's checks and closed form
                    steady = analytic._steady_rate(params, harvest)
                p_total = _left_sum(packets)
                base = packets[-1] / p_total
                cells += (v, steady, length,
                          *[p / p_total / base for p in packets], drift)
        else:
            # the scaled thresholds, a column per node; ThresholdPolicy
            # refuses a point with one that is not finite and positive
            cols = [[t * v / total for v in chunk] for t in shares]
            passed = len(chunk)
            if not all(_finite_numbers(col) and min(col) > 0
                       for col in cols):
                passed = next(k for k in range(passed) if not all(
                    math.isfinite(col[k]) and col[k] > 0 for col in cols))
            hs = [0] * passed       # each point's thresholds' left sum
            for col in cols:
                hs = list(map(operator.add, hs, col))
            for v, point, h in zip(chunk[:passed], zip(*cols), hs):
                _, _, length, packets, _, drift = core(e, g, c, point, h,
                                                       ct, cr)
                rate = analytic._steady_rate_of(e, harvest, c, h, ct, cr)
                p_total = _left_sum(packets)
                base = packets[-1] / p_total
                cells += (v, rate, length,
                          *[p / p_total / base for p in packets], drift)
        if passed < len(chunk):
            at(chunk[passed])           # raises that point's error
        text.write(row * passed % tuple(cells))
    if cfg.get("out"):
        path = os.path.join(_out_dir(cfg), "sweep.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.getvalue())
        print(f"wrote {path}")
    else:
        sys.stdout.write(text.getvalue())
    return 0


def cmd_scenario(args, cfg) -> int:
    params, horizon, warmup, mode, batteries, active, profile = _run_setup(cfg)
    if profile is None and not args.feedback:
        raise ConfigError("scenario needs a profile (or --feedback)")
    if args.feedback:
        trace = scenarios.run_with_feedback(
            params, horizon=horizon, profile=profile, packet_mode=mode,
            initial_batteries=batteries, initial_active=active)
    else:
        trace = engine.run(params, n_slots=horizon, profile=profile,
                           packet_mode=mode, initial_batteries=batteries,
                           initial_active=active)
    stats = scenarios.windowed_stats(trace, args.window)
    out = _out_dir(cfg)
    engine.write_trace_csv(trace, os.path.join(out, "trace.csv"))
    scenarios.write_window_stats_csv(stats, os.path.join(out, "windows.csv"))
    print("window offered delivered")
    for w in stats:
        print(w.window, _fmt(w.offered), _fmt(w.delivered))
    print("total_offered", _fmt(_left_sum(w.offered for w in stats)))
    print("total_delivered", _fmt(_left_sum(w.delivered for w in stats)))
    if args.feedback and trace.feedback_log:
        last = trace.feedback_log[-1]
        print("feedback_updates", len(trace.feedback_log))
        print("final_input_rate", _fmt(last.load))
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdrsim",
        description="Simulator and steady-state analytics for "
                    "hysteresis-switched relaying.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, horizon=True):
        p.add_argument("--config", required=True, help="JSON experiment file")
        p.add_argument("--policy", choices=sorted(_POLICIES))
        p.add_argument("--out", help="output directory")
        if horizon:
            p.add_argument("--horizon", type=int)
            p.add_argument("--warmup", type=int)
            p.add_argument("--packet-mode", dest="packet_mode",
                           choices=list(PACKET_MODES))

    p = sub.add_parser("run", help="simulate and write trace + summary")
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("analytic", help="print closed-form predictions")
    common(p, horizon=False)
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("compare", help="simulation vs prediction, side by side")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="closed-form results along one axis")
    common(p, horizon=False)
    p.add_argument("--axis", required=True, help="e.g. h=1:50:0.5")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("scenario", help="profile replay with windowed stats")
    common(p)
    p.add_argument("--window", type=int, default=1000)
    p.add_argument("--feedback", action="store_true",
                   help="steer the input rate to cancel drift")
    p.set_defaults(func=cmd_scenario)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; we reserve 2 for runtime failures
        return 0 if exc.code in (0, None) else 1
    try:
        cfg = _effective(_load_config(args.config), args)
        return args.func(args, cfg)
    except ValueError as exc:      # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
