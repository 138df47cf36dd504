"""Command-line behavior: exit codes, outputs, file artifacts."""

import builtins
import dataclasses
import hashlib
import importlib.resources
import io
import json
import math
import operator
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from hdrsim import (ThresholdPolicy, analytic, cli, read_trace_csv,
                    run_with_feedback)
from hdrsim.cli import (ConfigError, _build_params, _closed_form, _fmt,
                        _parse_axis, _split_text, main)

from conftest import three

FLAT = str(importlib.resources.files("hdrsim") / "data"
           / "harvest_flat_input.csv")


def write_config(path, **overrides):
    cfg = {
        "harvest_rates": [0.8, 0.6],
        "input_rate": 17.5,
        "packet_energy": 0.08,
        "status_energy": 0.01,
        "switch_energy": 0.05,
        "thresholds": [6.2, 5.0],
        "horizon": 400,
    }
    cfg.update(overrides)
    cfg = {k: v for k, v in cfg.items() if v is not None}
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


@pytest.fixture
def config(tmp_path):
    return write_config(tmp_path / "config.json",
                        out=str(tmp_path / "out"))


def stdout_map(capsys):
    """Parse `key value...` stdout lines into a dict."""
    out = {}
    for line in capsys.readouterr().out.strip().splitlines():
        parts = line.split()
        out[parts[0]] = parts[1:] if len(parts) > 2 else parts[1]
    return out


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_writes_artifacts(config, tmp_path, capsys):
    assert main(["run", "--config", config]) == 0
    got = stdout_map(capsys)
    assert got["slots"] == "400"
    assert float(got["throughput"]) > 0
    assert len(got["per_node_packets"]) == 2
    assert (tmp_path / "out" / "trace.csv").exists()
    assert (tmp_path / "out" / "summary.csv").exists()
    trace = read_trace_csv(tmp_path / "out" / "trace.csv")
    assert len(trace.records) == 400
    header = (tmp_path / "out" / "summary.csv").read_text(
        encoding="utf-8").splitlines()[0]
    assert header.startswith("slots,packets_total,throughput")


def test_run_respects_cli_overrides(config, tmp_path, capsys):
    assert main(["run", "--config", config, "--horizon", "250",
                 "--packet-mode", "whole"]) == 0
    got = stdout_map(capsys)
    assert got["slots"] == "250"
    trace = read_trace_csv(tmp_path / "out" / "trace.csv")
    assert len(trace.records) == 250
    assert all(float(r.packets) == int(r.packets) for r in trace.records)


def test_run_warns_on_shaky_parameters(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", harvest_rates=[2.0, 0.6],
                       out=str(tmp_path / "out"))
    assert main(["run", "--config", cfg]) == 0
    assert "note:" in capsys.readouterr().err


# `hdrsim run` on configs whose runs reach their limit cycle and are tiled:
# the README point over 20000 slots (on its 19-slot orbit from slot 4797)
# and a three-relay round robin in whole packets (on a 17-slot orbit from
# slot 84).  Stdout byte for byte and the sha256 of trace.csv and
# summary.csv, captured before the trace writer read the run's cycle.
GOLDEN_TILED_RUN = {
    "hyst2": (
        dict(horizon=20000, warmup=300),
        "slots 19700\n"
        "packets_total 338281.5\n"
        "throughput 17.1716497462\n"
        "per_node_packets 193756 144525.5\n"
        "node_share 0.572765581328 0.427234418672\n"
        "switches 2079\n"
        "cycles 1038\n"
        "mean_cycle_length 18.9527938343\n",
        "5eae4c62a63750a3581dbf3eac1e6caede47b25657f8225c7447a5fec8f263ca",
        "5114a2dc9acf72cd0425f8bda3c0e0965c3f4146f75018aed341eae8d5fb58f2"),
    "rr3-whole": (
        dict(policy="rr3", harvest_rates=[0.25, 0.5, 0.75], input_rate=16.0,
             packet_energy=0.0625, status_energy=0.03125, switch_energy=None,
             thresholds=[2.0, 3.0, 2.0], battery_capacity=16.0,
             packet_mode="whole", horizon=5000),
        "slots 5000\n"
        "packets_total 80000\n"
        "throughput 16\n"
        "per_node_packets 14064 28192 37744\n"
        "node_share 0.1758 0.3524 0.4718\n"
        "switches 883\n"
        "cycles 293\n"
        "mean_cycle_length 16.9965870307\n",
        "0a345ddb128ffcbda62bb0c0ef0a18f11c522d7cfc09a0491a9a732b09089f95",
        "f49f5dd1c22d3a1cd54b0f314bd3b499c2204b4d356384b2b2d3192ab2320650"),
}


@pytest.mark.parametrize("name", list(GOLDEN_TILED_RUN))
def test_tiled_run_golden_stdout_and_files(tmp_path, capsys, name):
    overrides, stdout, trace_sha, summary_sha = GOLDEN_TILED_RUN[name]
    cfg = write_config(tmp_path / "c.json", out=str(tmp_path / "out"),
                       **overrides)
    assert main(["run", "--config", cfg]) == 0
    assert capsys.readouterr().out == stdout
    for file, want in (("trace.csv", trace_sha), ("summary.csv", summary_sha)):
        got = hashlib.sha256((tmp_path / "out" / file).read_bytes())
        assert got.hexdigest() == want


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_missing_config_file(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1


def test_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 1


def test_config_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text("[1, 2]", encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 1
    assert "config must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command, message", [
    ("run", "config needs a horizon or a profile"),
    ("compare", "compare needs a horizon")])
def test_run_without_a_horizon_is_a_config_error(tmp_path, capsys, command,
                                                 message):
    cfg = write_config(tmp_path / "c.json", horizon=None,
                       out=str(tmp_path / "out"))
    assert main([command, "--config", cfg]) == 1
    assert message in capsys.readouterr().err


def test_unknown_config_key(tmp_path):
    assert main(["run", "--config",
                 write_config(tmp_path / "c.json", typo_key=3)]) == 1


def test_missing_required_key(tmp_path):
    assert main(["analytic", "--config",
                 write_config(tmp_path / "c.json", thresholds=None)]) == 1


def test_zero_horizon(tmp_path):
    assert main(["run", "--config",
                 write_config(tmp_path / "c.json", horizon=0)]) == 1


def test_warmup_beyond_horizon(tmp_path):
    assert main(["run", "--config",
                 write_config(tmp_path / "c.json", warmup=400)]) == 1


def test_bad_initial_active(tmp_path):
    assert main(["run", "--config",
                 write_config(tmp_path / "c.json", initial_active=3)]) == 1


@pytest.mark.parametrize("key, value", [
    ("horizon", "200"), ("horizon", 200.5), ("initial_active", "1"),
    ("warmup", None), ("horizon", True), ("profile", True), ("profile", 0),
    ("packet_mode", "half"),
])
def test_run_key_of_the_wrong_type_is_a_config_error(tmp_path, capsys, key,
                                                      value):
    path = tmp_path / "c.json"
    write_config(path, out=str(tmp_path / "out"))
    # write_config drops None values; this probe needs a JSON null
    cfg = json.loads(path.read_text(encoding="utf-8"))
    cfg[key] = value
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 1
    assert f"{key} must" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "analytic"])
@pytest.mark.parametrize("key, value", [
    ("input_rate", "17.5"), ("thresholds", ["6.2", 5.0]),
    ("harvest_rates", [0.8, True]), ("battery_capacity", False),
])
def test_number_of_the_wrong_type_is_a_config_error(tmp_path, capsys,
                                                    command, key, value):
    cfg = write_config(tmp_path / "c.json", out=str(tmp_path / "out"),
                       **{key: value})
    assert main([command, "--config", cfg]) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("levels", [5, [True, 50.0], ["1", 2]])
def test_initial_batteries_of_the_wrong_type_is_a_config_error(
        tmp_path, capsys, levels):
    cfg = write_config(tmp_path / "c.json", initial_batteries=levels,
                       out=str(tmp_path / "out"))
    assert main(["run", "--config", cfg]) == 1
    assert "bad initial_batteries" in capsys.readouterr().err


@pytest.mark.parametrize("levels", [["NaN", 50.0], [500.0, -30.0]])
def test_bad_initial_batteries(tmp_path, capsys, levels):
    path = tmp_path / "c.json"
    write_config(path, initial_batteries=levels, out=str(tmp_path / "out"))
    # strict JSON has no NaN, but Python's json module reads the literal
    path.write_text(path.read_text(encoding="utf-8").replace('"NaN"', "NaN"),
                    encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 1
    assert "initial battery level" in capsys.readouterr().err


def test_bad_policy_name(tmp_path):
    assert main(["run", "--config",
                 write_config(tmp_path / "c.json", policy="lru")]) == 1


def test_unknown_subcommand(config, capsys):
    assert main(["explode", "--config", config]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "subcommand" in capsys.readouterr().out.lower() or True


# ---------------------------------------------------------------------------
# analytic
# ---------------------------------------------------------------------------

def test_analytic_prints_prediction(config, capsys):
    assert main(["analytic", "--config", config]) == 0
    got = stdout_map(capsys)
    assert got["regime"] == "away"
    assert float(got["steady_input_rate"]) == pytest.approx(17.1006, abs=5e-4)
    assert float(got["cycle_length"]) > 0
    assert ":" in got["split"]


def test_analytic_symmetric_three_node_split(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", harvest_rates=[0.5, 0.5, 0.5],
                       input_rate=12.0, policy="rr3",
                       thresholds=[4.0, 4.0, 4.0], status_energy=0,
                       switch_energy=0)
    assert main(["analytic", "--config", cfg]) == 0
    assert stdout_map(capsys)["split"] == "1:1:1"


def test_analytic_regime_table_when_costs_vanish(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", status_energy=0, switch_energy=0,
                       input_rate=20.0, thresholds=[4.0, 4.0])
    assert main(["analytic", "--config", cfg]) == 0
    got = stdout_map(capsys)
    assert got["regime"].startswith("down")
    assert float(got["throughput"]) == pytest.approx(17.5)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_prints_side_by_side(tmp_path, capsys):
    # drive at the sustainable rate so the away-from-boundary model applies
    cfg = write_config(tmp_path / "c.json", input_rate=17.100579510530338,
                       horizon=3000, warmup=300)
    assert main(["compare", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "quantity simulated predicted rel_dev"
    names = [ln.split()[0] for ln in lines[1:]]
    assert names == ["cycle_length", "throughput", "drift_per_cycle"]
    # delivered rate matches the offer exactly; cycle length carries the
    # slot-quantization surcharge of roughly one slot per phase
    thru_dev = float(lines[2].split()[3])
    assert abs(thru_dev) < 1e-12
    len_dev = float(lines[1].split()[3])
    assert 0 <= len_dev < 0.2


def test_compare_without_cycles_is_a_runtime_failure(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", thresholds=[150.0, 150.0],
                       horizon=300)
    assert main(["compare", "--config", cfg]) == 2
    capsys.readouterr()


def test_compare_rejects_a_profile(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", profile=FLAT,
                       out=str(tmp_path / "out"))
    assert main(["compare", "--config", cfg]) == 1
    assert "profile" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_to_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", status_energy=0, switch_energy=0)
    assert main(["sweep", "--config", cfg, "--axis", "h=10:12:1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "h,steady_input_rate,cycle_length,split,drift"
    assert len(lines) == 4
    # zero control cost: the sustainable rate is flat along the h axis
    rates = {ln.split(",")[1] for ln in lines[1:]}
    assert rates == {"17.5"}


def test_sweep_to_file(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", out=str(tmp_path / "out"))
    assert main(["sweep", "--config", cfg, "--axis", "g=16:18:0.5"]) == 0
    assert "wrote" in capsys.readouterr().out
    lines = (tmp_path / "out" / "sweep.csv").read_text(
        encoding="utf-8").strip().splitlines()
    assert len(lines) == 6  # header + 5 points, endpoints included


def test_sweep_rejects_bad_axes(config, capsys):
    assert main(["sweep", "--config", config, "--axis", "h=1:50"]) == 1
    assert main(["sweep", "--config", config, "--axis", "h=5:1:1"]) == 1
    assert main(["sweep", "--config", config, "--axis", "cap=1:9:1"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("spec", ["h=1:2:nan", "h=1:inf:1", "h=nan:2:1",
                                  "h=-inf:2:1", "g=1:2:inf"])
def test_sweep_axis_must_be_finite(spec):
    with pytest.raises(ConfigError, match="finite"):
        _parse_axis(spec)


@pytest.mark.parametrize("spec, count", [
    ("h=1:1e9:1", "1000000000"), ("g=0:1e6:1", "1000001"),
    ("h=0:1:5e-324", "inf"),
    # the points lo + k * step do not move past lo, so counting must stop
    ("h=1e16:1e16:1e-300", "1000001")])
def test_sweep_axis_point_count_is_bounded(spec, count):
    with pytest.raises(ConfigError, match=f"about {count} points"):
        _parse_axis(spec)


def test_huge_sweep_axis_is_a_config_error(config, capsys):
    assert main(["sweep", "--config", config, "--axis", "h=1:1e9:1"]) == 1
    assert "1000000000 points" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["h=0.1:0.3:0.1", "g=0:1:0.1", "h=1:1:1",
                                  "h=1:2:0.3", "g=17.5:18.5:0.05",
                                  "h=1e16:1.0000000000000002e16:0.5"])
def test_sweep_axis_points_are_lo_plus_k_steps(spec):
    # the end is passed at the first k with lo + k * step > hi + step * 1e-9
    lo, hi, step = map(float, spec[2:].split(":"))
    values = []
    while lo + len(values) * step <= hi + step * 1e-9:
        values.append(lo + len(values) * step)
    assert _parse_axis(spec) == (spec[0], values)


def test_sweep_axis_whose_span_overflows_counts_down(tmp_path, capsys):
    # found by search: the first count only overshoots when stop - start
    # overflows to inf and k * step overflows with it; the axis then
    # counts down from the cap to its last finite point, short of stop.
    # Such an axis starts below zero, where every sweep refuses its first
    # point.  A random search of 5e7 finite spans, from subnormal to huge
    # and with steps that do not divide them, found no other way there
    name, values = _parse_axis("h=-1e308:1e308:2.5e302")
    assert name == "h"
    assert len(values) == 719078
    assert values == [-1e308 + k * 2.5e302 for k in range(719078)]
    assert -1e308 + 719078 * 2.5e302 == math.inf
    cfg = write_config(tmp_path / "c.json")
    assert main(["sweep", "--config", cfg, "--axis",
                 "h=-1e308:1e308:2.5e302"]) == 1
    assert capsys.readouterr() == ("", "error: thresholds must be positive "
                                   "ints, floats or Fractions, got -inf\n")


# `hdrsim sweep --axis h=12:31:1.9` stdout, byte for byte, for the
# three-node config of test_sweep_h_axis_three_nodes_golden_stdout; both
# successor rules share the closed form, so both print this.
GOLDEN_SWEEP_H_THREE = (
    "h,steady_input_rate,cycle_length,split,drift\n"
    "12,22.8515738771,14.451382694,0.196428571429:0.732142857143:1,"
    "1.92136485281\n"
    "13.9,22.9214863975,16.7395182872,0.196428571429:0.732142857143:1,"
    "2.2493309545\n"
    "15.8,22.974923914,19.0276538805,0.196428571429:0.732142857143:1,"
    "2.5772970562\n"
    "17.7,23.0170960178,21.3157894737,0.196428571429:0.732142857143:1,"
    "2.90526315789\n"
    "19.6,23.0512253291,23.6039250669,0.196428571429:0.732142857143:1,"
    "3.23322925959\n"
    "21.5,23.0794123237,25.8920606601,0.196428571429:0.732142857143:1,"
    "3.56119536128\n"
    "23.4,23.1030846395,28.1801962533,0.196428571429:0.732142857143:1,"
    "3.88916146298\n"
    "25.3,23.1232465081,30.4683318466,0.196428571429:0.732142857143:1,"
    "4.21712756467\n"
    "27.2,23.140624885,32.7564674398,0.196428571429:0.732142857143:1,"
    "4.54509366637\n"
    "29.1,23.1557589673,35.044603033,0.196428571429:0.732142857143:1,"
    "4.87305976806\n"
    "31,23.1690571345,37.3327386262,0.196428571429:0.732142857143:1,"
    "5.20102586976\n"
)


@pytest.mark.parametrize("policy", ["rr3", "es3"])
def test_sweep_h_axis_three_nodes_golden_stdout(tmp_path, capsys, policy):
    cfg = write_config(tmp_path / "c.json", policy=policy,
                       harvest_rates=[0.3, 0.7, 0.9], input_rate=18.0,
                       thresholds=[4.5, 7.25, 11.0])
    assert main(["sweep", "--config", cfg, "--axis", "h=12:31:1.9"]) == 0
    assert capsys.readouterr().out == GOLDEN_SWEEP_H_THREE


@pytest.mark.parametrize("policy, rule", [("hyst2", "rr"), ("rr3", "rr"),
                                          ("es3", "es")])
def test_sweep_h_axis_scales_thresholds_and_keeps_the_rule(
        tmp_path, capsys, monkeypatch, policy, rule):
    ths = (6.2, 5.0) if policy == "hyst2" else (4.5, 7.25, 11.0)
    cfg = write_config(tmp_path / "c.json", policy=policy,
                       harvest_rates=[0.3, 0.7, 0.9][:len(ths)],
                       input_rate=18.0, thresholds=list(ths),
                       status_energy=None, switch_energy=None)
    # every point's scaled thresholds, and their left sum, reach the
    # closed form's numeric core
    seen = []
    for name in ("_away_diamond", "_away_three", "_regime_diamond"):
        monkeypatch.setattr(analytic, name,
                            lambda *args, core=getattr(analytic, name):
                            seen.append(args[3:5]) or core(*args))
    assert main(["sweep", "--config", cfg, "--axis", "h=29.1:29.1:1"]) == 0
    capsys.readouterr()
    total = reduce(operator.add, ths, 0)
    scaled = tuple(t * 29.1 / total for t in ths)
    assert seen == [(scaled, reduce(operator.add, scaled, 0))]
    # a point the checks refuse is built, with the config's rule, by the
    # constructor whose error the sweep reports
    rules = []
    monkeypatch.setattr(cli, "ThresholdPolicy", lambda values, r:
                        rules.append(r) or ThresholdPolicy(values, r))
    assert main(["sweep", "--config", cfg, "--axis", "h=0:1:1"]) == 1
    assert capsys.readouterr().err == (
        "error: thresholds must be positive ints, floats or Fractions, "
        "got 0.0\n")
    assert rules == [rule, rule]


# `hdrsim sweep` stdout, byte for byte, on three-node config A (both
# successor rules share the closed form), on the diamond with control
# costs (away_cycle_diamond) and on the diamond with a zero control floor
# (classify_regime_diamond); captured before the sweep was restructured
GOLDEN_SWEEP_G_CONFIG_A = (
    "g,steady_input_rate,cycle_length,split,drift\n"
    "16,20,39.7219463754,-0.00961538461538:0.855769230769:1,4.23700761337\n"
    "16.75,20,36.7970123023,0.018691588785:0.859813084112:1,3.18907439953\n"
    "17.5,20,34.3137254902,0.0454545454545:0.863636363636:1,2.28758169935\n"
    "18.25,20,32.1755994358,0.070796460177:0.867256637168:1,1.50152797367\n"
    "19,20,30.3126994257,0.0948275862069:0.870689655172:1,0.808338651351\n"
    "19.75,20,28.6730545877,0.117647058824:0.873949579832:1,0.191153697251\n"
    "20.5,20,27.2172065852,0.139344262295:0.877049180328:1,-0.362896087803\n"
    "21.25,20,25.9146341463,0.16:0.88:1,-0.863821138211\n"
    "22,20,24.7413405308,0.1796875:0.8828125:1,-1.31953816164\n"
)
GOLDEN_SWEEP_H_DIAMOND = (
    "h,steady_input_rate,cycle_length,split,drift\n"
    "4,16.8383213937,5.83333333333,1.33333333333:1,-0.158333333333\n"
    "5.5,16.9485493415,8.02083333333,1.33333333333:1,-0.180208333333\n"
    "7,17.0122166626,10.2083333333,1.33333333333:1,-0.202083333333\n"
    "8.5,17.0536801141,12.3958333333,1.33333333333:1,-0.223958333333\n"
    "10,17.0828303409,14.5833333333,1.33333333333:1,-0.245833333333\n"
    "11.5,17.1044431218,16.7708333333,1.33333333333:1,-0.267708333333\n"
    "13,17.1211072251,18.9583333333,1.33333333333:1,-0.289583333333\n"
    "14.5,17.1343477013,21.1458333333,1.33333333333:1,-0.311458333333\n"
    "16,17.1451213366,23.3333333333,1.33333333333:1,-0.333333333333\n"
)
GOLDEN_SWEEP_H_DIAMOND_NO_FLOOR = (
    "h,steady_input_rate,cycle_length,split,drift\n"
    "2,17.5,2.96130952381,1.33333333333:1,0\n"
    "4,17.5,5.92261904762,1.33333333333:1,0\n"
    "6,17.5,8.88392857143,1.33333333333:1,0\n"
    "8,17.5,11.8452380952,1.33333333333:1,0\n"
    "10,17.5,14.806547619,1.33333333333:1,0\n"
    "12,17.5,17.7678571429,1.33333333333:1,0\n"
    "14,17.5,20.7291666667,1.33333333333:1,0\n"
    "16,17.5,23.6904761905,1.33333333333:1,0\n"
    "18,17.5,26.6517857143,1.33333333333:1,0\n"
    "20,17.5,29.6130952381,1.33333333333:1,0\n"
)
CONFIG_A = {"harvest_rates": [0.1, 0.7, 0.8], "input_rate": 20.0,
            "thresholds": [5.0, 10.0, 10.0], "status_energy": None,
            "switch_energy": None}


@pytest.mark.parametrize("overrides, axis, golden", [
    (dict(CONFIG_A, policy="es3"), "g=16:22:0.75", GOLDEN_SWEEP_G_CONFIG_A),
    (dict(CONFIG_A, policy="rr3"), "g=16:22:0.75", GOLDEN_SWEEP_G_CONFIG_A),
    ({}, "h=4:16:1.5", GOLDEN_SWEEP_H_DIAMOND),
    (dict(status_energy=0, switch_energy=0, input_rate=20.0), "h=2:20:2",
     GOLDEN_SWEEP_H_DIAMOND_NO_FLOOR)],
    ids=["g-es3", "g-rr3", "h-diamond", "h-diamond-no-floor"])
def test_sweep_golden_stdout(tmp_path, capsys, overrides, axis, golden):
    cfg = write_config(tmp_path / "c.json", **overrides)
    assert main(["sweep", "--config", cfg, "--axis", axis]) == 0
    assert capsys.readouterr().out == golden


# three-node config whose load energy meets the harvest spread at g = 2
DIVERGING = dict(policy="rr3", harvest_rates=[0, 0, 1], input_rate=2,
                 packet_energy=0.5, thresholds=[1, 1, 1])
# three-node config whose harvest just pays the status messages, and whose
# harvest spread rounds below zero; the steady rate takes that spread as 0
NO_STEADY_RATE = dict(policy="rr3", status_energy=0.10000000000000002,
                      harvest_rates=[0.1, 0.10000000000000002,
                                     0.10000000000000002],
                      thresholds=[4.5, 7.25, 11.0])


@pytest.mark.parametrize("overrides, axis, err", [
    ({}, "g=-1:1:0.5", "input rate must be non-negative"),
    ({}, "h=-2:2:1", "thresholds must be positive ints, floats or "
                     "Fractions, got -1.1071428571428572"),
    # the points g = 1 and 1.5 pass, the third fails in the closed form
    (DIVERGING, "g=1:3:0.5", "load energy matches the harvest spread; "
                             "cycle length diverges"),
    ({}, "cap=1:9:1", "unsupported sweep axis 'cap'; use h or g"),
    # the three-relay closed form needs a load
    (dict(CONFIG_A, policy="rr3"), "g=0:2:1", "load energy is zero; the "
     "three-relay cycle needs an input rate above 0")],
    ids=["g-negative", "h-negative", "closed-form-part-way", "axis-name",
         "g-zero"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
def test_sweep_checks_every_point(tmp_path, capsys, overrides, axis, err,
                                  to_file):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", out=str(out) if to_file else None,
                       **overrides)
    assert main(["sweep", "--config", cfg, "--axis", axis]) == 1
    assert capsys.readouterr() == ("", f"error: {err}\n")
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("overrides, axis, err", [
    (NO_STEADY_RATE, "g=1:3:1", "no steady rate"),
    (NO_STEADY_RATE, "g=-1:3:1", "input rate must be non-negative"),
    (DIVERGING, "g=2:3:1", "load energy matches the harvest spread; "
                           "cycle length diverges")],
    ids=["steady-rate", "point-before-steady-rate",
         "closed-form-before-steady-rate"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
def test_sweep_takes_the_steady_rate_after_the_first_points_checks(
        tmp_path, capsys, monkeypatch, overrides, axis, err, to_file):
    # a g axis takes its steady rate once, but where its first point takes
    # it: after the point's own checks and closed form
    def refuse(params, harvest):
        raise ValueError("no steady rate")
    monkeypatch.setattr(analytic, "_steady_rate", refuse)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", out=str(out) if to_file else None,
                       **overrides)
    assert main(["sweep", "--config", cfg, "--axis", axis]) == 1
    assert capsys.readouterr() == ("", f"error: {err}\n")
    assert not (out / "sweep.csv").exists()


def test_a_spread_rounded_below_zero_has_a_steady_rate(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", **NO_STEADY_RATE)
    assert main(["analytic", "--config", cfg]) == 0
    assert "steady_input_rate" in capsys.readouterr().out
    assert main(["sweep", "--config", cfg, "--axis", "g=1:3:1"]) == 0
    with open(cfg, encoding="utf-8") as fh:
        want = reference_sweep(json.load(fh), "g=1:3:1")
    assert capsys.readouterr() == (want, "")


def test_analytic_refuses_a_zero_three_relay_load(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", **dict(CONFIG_A, policy="rr3",
                                                   input_rate=0))
    assert main(["analytic", "--config", cfg]) == 1
    assert capsys.readouterr() == ("", "error: load energy is zero; the "
                                   "three-relay cycle needs an input rate "
                                   "above 0\n")


def test_sweep_fails_part_way_only_at_the_diverging_point(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", **DIVERGING)
    assert main(["sweep", "--config", cfg, "--axis", "g=1:1.5:0.5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_analytic_refuses_a_packet_total_beyond_the_float_range(tmp_path,
                                                                capsys):
    cfg = write_config(tmp_path / "c.json", thresholds=[6.2e306, 5e306])
    assert main(["analytic", "--config", cfg]) == 1
    assert capsys.readouterr() == (
        "", "error: the cycle's packet total overflows a float\n")


@pytest.mark.parametrize("overrides, lo, step, refused, err", [
    # the README diamond's packet total overflows from h = 7.04e306 on,
    # well before 6.2 * h does
    ({}, 5e303, 5e303, 1408, "the cycle's packet total overflows a float"),
    # at a load of 1, 6.2 * h overflows first, from h = 2.9e307 on
    (dict(input_rate=1, packet_energy=1, harvest_rates=[0.1, 0.2]), 1e304,
     1e304, 2899, "thresholds must be positive ints, floats or Fractions, "
                  "got inf"),
    # the load energy meets the harvest spread at g = 2
    (DIVERGING, 0.5, 2 ** -10, 1536, "load energy matches the harvest "
                                     "spread; cycle length diverges")],
    ids=["closed-form", "check", "g-closed-form"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
def test_sweep_refusal_past_the_first_chunk(tmp_path, capsys, overrides, lo,
                                            step, refused, err, to_file):
    # the sweep checks and computes 1024 points at a time; the first point
    # refused, in a later chunk, fails it with that point's error, as a
    # loop of one point at a time fails, and nothing is written
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", out=str(out) if to_file else None,
                       **overrides)
    spec = f"{lo!r}:{lo + (refused - 1) * step!r}:{step!r}"
    axis = "g" if overrides is DIVERGING else "h"
    assert main(["sweep", "--config", cfg, "--axis", f"{axis}={spec}"]) == 0
    capsys.readouterr()
    spec = f"{axis}={lo!r}:{lo + (refused + 3000) * step!r}:{step!r}"
    with open(cfg, encoding="utf-8") as fh:
        with pytest.raises(ValueError) as want:
            reference_sweep(json.load(fh), spec)
    assert str(want.value) == err
    shutil.rmtree(out, ignore_errors=True)
    assert main(["sweep", "--config", cfg, "--axis", spec]) == 1
    assert capsys.readouterr() == ("", f"error: {err}\n")
    assert not (out / "sweep.csv").exists()


# three-node comparison config A, earliest switch
CONFIG_A = dict(policy="es3", harvest_rates=[0.1, 0.7, 0.8], input_rate=20.0,
                packet_energy=0.08, status_energy=0, switch_energy=0,
                thresholds=[5, 10, 10])


def test_analytic_refuses_a_load_whose_square_overflows(tmp_path, capsys):
    # 2 * (c * g) ** 2 overflows; every phase would come out 0.0
    cfg = write_config(tmp_path / "c.json", **{**CONFIG_A,
                                               "input_rate": 1e300})
    assert main(["analytic", "--config", cfg]) == 1
    assert capsys.readouterr() == (
        "", "error: the cycle's packet total overflows a float\n")


def test_sweep_refuses_the_first_load_whose_square_overflows(tmp_path,
                                                             capsys):
    # 2 * (c * g) ** 2 overflows from g = 1.186e155 on, point 1185 of the
    # axis, in the sweep's second chunk; the points before it pass
    cfg = write_config(tmp_path / "c.json", **CONFIG_A)
    err = "the cycle's packet total overflows a float"
    assert main(["sweep", "--config", cfg, "--axis",
                 f"g=1e152:{1e152 + 1184 * 1e152!r}:1e152"]) == 0
    capsys.readouterr()
    spec = f"g=1e152:{1e152 + 4000 * 1e152!r}:1e152"
    with open(cfg, encoding="utf-8") as fh:
        with pytest.raises(ValueError, match=err):
            reference_sweep(json.load(fh), spec)
    assert main(["sweep", "--config", cfg, "--axis", spec]) == 1
    assert capsys.readouterr() == ("", f"error: {err}\n")


@pytest.mark.parametrize("rates, node", [([0, 0.5], 0), ([0.5, 0], 1)])
def test_analytic_refuses_a_zero_harvest_rate_in_deficit(tmp_path, capsys,
                                                         rates, node):
    cfg = write_config(tmp_path / "c.json", harvest_rates=rates,
                       input_rate=20, status_energy=0, switch_energy=0,
                       thresholds=[5, 5])
    assert main(["analytic", "--config", cfg]) == 1
    assert capsys.readouterr() == (
        "", f"error: harvest_rates[{node}] is 0: the deficit regimes need "
            f"both harvest rates above 0\n")


def reference_sweep(cfg, spec):
    """``hdrsim sweep`` text as a loop of one point at a time gives it:
    each row one ``",".join`` of ``_fmt`` cells, and the steady rate taken
    at every point."""
    params = _build_params(cfg)
    name, values = _parse_axis(spec)
    predict = _closed_form(params)
    ths = params.thresholds
    rows = [f"{name},steady_input_rate,cycle_length,split,drift\n"]
    for v in values:
        if name == "g":
            local = dataclasses.replace(params, input_rate=v)
        else:
            local = dataclasses.replace(params, thresholds=ThresholdPolicy(
                tuple([t * v / ths.total for t in ths.values]), ths.rule))
        pred = predict(local)
        rows.append(",".join([
            _fmt(v), _fmt(analytic.steady_input_rate(local)),
            _fmt(pred.cycle_length), _split_text(pred),
            _fmt(pred.drift)]) + "\n")
    return "".join(rows)


@st.composite
def sweep_cases(draw):
    """A config for each closed form, in JSON ints or floats, and an ``h``
    or ``g`` axis whose point count lies around the 1024 points that the
    sweep formats at a time; axes that start low reach points the model
    or the closed form refuses."""
    form = draw(st.sampled_from(("away", "no-floor", "rr3", "es3")))
    ints = draw(st.booleans())

    def num(lo, hi, scale):
        k = draw(st.integers(lo, hi))
        return k if ints else k / scale

    n = 2 if form in ("away", "no-floor") else 3
    cost = 0 if form == "no-floor" else None
    cfg = {"harvest_rates": [num(1, 9, 10) for _ in range(n)],
           "input_rate": num(5, 40, 2),
           "packet_energy": draw(st.sampled_from((1, 2) if ints
                                                 else (0.08, 0.1))),
           "status_energy": num(0, 2, 100) if cost is None else cost,
           "switch_energy": num(1, 2, 20) if cost is None else cost,
           "thresholds": [num(1, 40, 2) for _ in range(n)],
           "battery_capacity": 100 if ints else 100.0}
    if n == 3:
        cfg["policy"] = form
    axis = draw(st.sampled_from("hg"))
    count = draw(st.sampled_from((1, 1023, 1024, 1025, 2049)))
    lo = draw(st.integers(-4, 160)) / 4
    # points of all twelve digits too
    step = draw(st.sampled_from((0.001, 0.0125, 0.25, 1 / 3, 1 / 7)))
    return cfg, f"{axis}={lo!r}:{lo + (count - 1) * step!r}:{step!r}"


@given(sweep_cases(), st.booleans())
@settings(max_examples=20, deadline=None)
def test_sweep_matches_a_loop_of_one_point_at_a_time(tmp_path_factory,
                                                     case, to_file):
    cfg, spec = case
    out = tmp_path_factory.mktemp("sweep")
    path = out / "c.json"
    if to_file:
        cfg = dict(cfg, out=str(out / "out"))
    path.write_text(json.dumps(cfg), encoding="utf-8")
    try:
        want, err = reference_sweep(
            json.loads(path.read_text(encoding="utf-8")), spec), None
    except Exception as exc:        # the sweep must fail alike
        want, err = None, exc
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(["sweep", "--config", str(path), "--axis", spec])
    csv = out / "out" / "sweep.csv"
    if err is not None:
        assert (code, stdout.getvalue(), stderr.getvalue()) == (
            1 if isinstance(err, ValueError) else 2, "", f"error: {err}\n")
        assert not csv.exists()
    elif to_file:
        assert (code, stdout.getvalue()) == (0, f"wrote {csv}\n")
        assert csv.read_bytes() == want.encode("utf-8")
    else:
        assert (code, stdout.getvalue(), stderr.getvalue()) == (0, want, "")


def test_number_beyond_the_float_range_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", input_rate=10**400)
    assert main(["analytic", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "error: input_rate is too large for a float\n")


@pytest.mark.parametrize("policy, thresholds", [
    ("hyst2", [6.2, 5.0, 4.0]), ("rr3", [6.2, 5.0]), ("es3", [6.2, 5.0]),
    ("hyst2", 6.2)])
def test_threshold_count_must_match_the_policy(tmp_path, capsys, policy,
                                               thresholds):
    # as many harvest rates as thresholds: only the policy name objects
    listed = isinstance(thresholds, list)
    cfg = write_config(tmp_path / "c.json", policy=policy,
                       harvest_rates=[0.3, 0.7, 0.9][:len(thresholds)
                                                     if listed else 2],
                       thresholds=thresholds)
    assert main(["analytic", "--config", cfg]) == 1
    count = 2 if policy == "hyst2" else 3
    got = len(thresholds) if listed else thresholds
    assert capsys.readouterr().err == (
        f"error: policy {policy!r} takes {count} thresholds, got {got}\n")


# ---------------------------------------------------------------------------
# scenario
# ---------------------------------------------------------------------------

def test_scenario_replays_profile(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", harvest_rates=[0.3, 0.2],
                       input_rate=6.0, status_energy=0, switch_energy=0,
                       thresholds=[10.0, 10.0], horizon=None,
                       profile=FLAT, initial_batteries=[5.0, 5.0],
                       out=str(tmp_path / "out"))
    assert main(["scenario", "--config", cfg]) == 0
    got = stdout_map(capsys)
    assert float(got["total_offered"]) == pytest.approx(48000.0)
    assert float(got["total_delivered"]) < 48000.0
    assert (tmp_path / "out" / "windows.csv").exists()
    assert (tmp_path / "out" / "trace.csv").exists()
    windows = (tmp_path / "out" / "windows.csv").read_text(
        encoding="utf-8").splitlines()
    assert len(windows) == 9  # header + 8 kiloslot windows


def test_scenario_without_profile_is_a_config_error(config):
    assert main(["scenario", "--config", config]) == 1


def test_scenario_feedback_without_profile(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", horizon=2500,
                       out=str(tmp_path / "out"))
    assert main(["scenario", "--config", cfg, "--feedback",
                 "--window", "500"]) == 0
    got = stdout_map(capsys)
    assert int(got["feedback_updates"]) > 0
    # the controller settles near the sustainable rate
    assert float(got["final_input_rate"]) == pytest.approx(17.1, abs=0.2)


def test_scenario_feedback_on_profile(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", harvest_rates=[0.3, 0.2],
                       input_rate=6.0, thresholds=[10.0, 10.0], horizon=None,
                       profile=FLAT, initial_batteries=[40.0, 40.0],
                       out=str(tmp_path / "out"))
    assert main(["scenario", "--config", cfg, "--feedback"]) == 0
    got = stdout_map(capsys)
    assert float(got["total_delivered"]) > 0


# `hdrsim scenario` on both bundled profiles, with and without --feedback:
# stdout byte for byte and the sha256 of the trace.csv and windows.csv it
# writes, captured before the trace storage was last reworked.  The
# controller replaces the profile"s load, and both profiles share their
# harvest, so both print the same with --feedback.
SCHEDULED = str(importlib.resources.files("hdrsim") / "data"
                / "harvest_scheduled_input.csv")
GOLDEN_SCENARIO_FLAT = (
    "window offered delivered\n"
    "0 6000 1919.175\n"
    "1 6000 4531.2\n"
    "2 6000 6000\n"
    "3 6000 6000\n"
    "4 6000 6000\n"
    "5 6000 6000\n"
    "6 6000 6000\n"
    "7 6000 5245.122125\n"
    "total_offered 48000\n"
    "total_delivered 41695.497125\n"
)
GOLDEN_SCENARIO_SCHEDULED = (
    "window offered delivered\n"
    "0 1000 1000\n"
    "1 5000 5000\n"
    "2 8000 8000\n"
    "3 8000 8000\n"
    "4 8000 8000\n"
    "5 8000 8000\n"
    "6 5000 5000\n"
    "7 5000 5000\n"
    "total_offered 48000\n"
    "total_delivered 48000\n"
)
GOLDEN_SCENARIO_FEEDBACK = (
    "window offered delivered\n"
    "0 6000 1919.175\n"
    "1 5260.14547942 4509.07228058\n"
    "2 8578.16893917 8578.16893917\n"
    "3 9185.64048034 9185.64048034\n"
    "4 9673.70538394 9673.70538394\n"
    "5 7338.1181979 7338.1181979\n"
    "6 5394.43946228 5394.43946228\n"
    "7 3768.08104241 3768.08104241\n"
    "total_offered 55198.2989855\n"
    "total_delivered 50366.4007866\n"
    "feedback_updates 83\n"
    "final_input_rate 3.58818639835\n"
)
GOLDEN_SCENARIO = {
    ("flat", False): (
        GOLDEN_SCENARIO_FLAT,
        "ce8c4eeaa51380070334d17cfb11d8cb9cf294414f9c1f70b22d7d4a9da16f67",
        "c7592bc921416969a62111c67832e10bd255a3c5f76f8520d14f0e428d3cf09f"),
    ("scheduled", False): (
        GOLDEN_SCENARIO_SCHEDULED,
        "75e78522d35c638e07a3d7e0be029e1f62d3b8f4308740543e9329816b780151",
        "2b14543a3cc39ea744f36836c7f42c469cd9103ae37b8efa303dd56b3f6ecd1f"),
    ("flat", True): (
        GOLDEN_SCENARIO_FEEDBACK,
        "dbf6fa945f667ced7c6ad12b16881dc998999f1d85d26d05b38f9798ff1038cf",
        "46440e2aabce4a22682b6a384a177f0804a47bd5ac0386d3d0f92dbb6e5c3a1d"),
    ("scheduled", True): (
        GOLDEN_SCENARIO_FEEDBACK,
        "dbf6fa945f667ced7c6ad12b16881dc998999f1d85d26d05b38f9798ff1038cf",
        "46440e2aabce4a22682b6a384a177f0804a47bd5ac0386d3d0f92dbb6e5c3a1d"),
}


@pytest.mark.parametrize("profile, feedback", list(GOLDEN_SCENARIO))
def test_scenario_golden_stdout_and_files(tmp_path, capsys, profile,
                                          feedback):
    cfg = write_config(tmp_path / "c.json", harvest_rates=[0.3, 0.2],
                       input_rate=6.0, thresholds=[10.0, 10.0], horizon=None,
                       profile={"flat": FLAT, "scheduled": SCHEDULED}[profile],
                       initial_batteries=[40.0, 40.0],
                       out=str(tmp_path / "out"))
    flags = ["--feedback"] if feedback else []
    assert main(["scenario", "--config", cfg, *flags]) == 0
    stdout, trace_sha, windows_sha = GOLDEN_SCENARIO[profile, feedback]
    assert capsys.readouterr().out == stdout
    for name, want in (("trace.csv", trace_sha), ("windows.csv", windows_sha)):
        got = hashlib.sha256((tmp_path / "out" / name).read_bytes())
        assert got.hexdigest() == want


def seeded_profile_csv(seed=13, slots=6000):
    """A two-node profile of random ranges, 50 to 900 slots each, whose
    boundaries do not fall on multiples of the 700-slot window below."""
    rng = random.Random(seed)
    lines = ["slot_range,e1,e2,g"]
    lo = 0
    while lo < slots:
        hi = min(slots, lo + rng.randint(50, 900)) - 1
        e1, e2 = rng.randint(0, 80) / 100, rng.randint(0, 80) / 100
        g = rng.randint(40, 160) / 10
        lines.append(f"{lo}-{hi},{e1!r},{e2!r},{g!r}")
        lo = hi + 1
    return "\n".join(lines) + "\n"


# `hdrsim scenario --window 700` on the 12-range profile above, with and
# without --feedback, with control costs: stdout byte for byte and the
# sha256 of trace.csv and windows.csv, captured while profiles were still
# stored one row per slot
GOLDEN_SEEDED_SCENARIO = {
    False: (
        "window offered delivered\n"
        "0 7848.8 5165.375\n"
        "1 3430 3227.5\n"
        "2 2990.4 2990.4\n"
        "3 6313 5039.575\n"
        "4 9480.4 7467.125\n"
        "5 6916.7 5136.825\n"
        "6 8228.8 8228.8\n"
        "7 9024.1 7792.25\n"
        "8 4422.4 4387.375\n"
        "total_offered 58654.6\n"
        "total_delivered 49435.225\n",
        "dcf00527ab8344a3855a2156c68a162e5a11d628d94e612b5264485bfadbc5fd",
        "4f73489fa2f86d5ac15cc05829ff3d9594a8a9d219c4d8b7b1b80baa6401cb90"),
    True: (
        "window offered delivered\n"
        "0 4047.13523028 4047.13523028\n"
        "1 3220.85649745 3220.85649745\n"
        "2 5254.04378816 5254.04378816\n"
        "3 5499.41860471 5499.41860471\n"
        "4 2256.9214876 2256.9214876\n"
        "5 2256.9214876 2256.9214876\n"
        "6 2256.9214876 2256.9214876\n"
        "7 2256.9214876 2256.9214876\n"
        "8 1289.66942149 1289.66942149\n"
        "total_offered 28338.8094925\n"
        "total_delivered 28338.8094925\n"
        "feedback_updates 23\n"
        "final_input_rate 3.22417355372\n",
        "ba8cf2630c366d3f11a233c37bd2b1c1d0eaae2b7c985264e1d37c5f4f07a08a",
        "c15e75a776b592cc487605957c46fff3cd7db8a71f45ffb03a5ea9e0e2a9e287"),
}


@pytest.mark.parametrize("feedback", [False, True])
def test_scenario_seeded_profile_golden(tmp_path, capsys, feedback):
    profile = tmp_path / "profile.csv"
    profile.write_text(seeded_profile_csv(), encoding="utf-8")
    cfg = write_config(tmp_path / "c.json", harvest_rates=[0.3, 0.2],
                       input_rate=6.0, thresholds=[10.0, 10.0], horizon=None,
                       profile=str(profile), initial_batteries=[40.0, 40.0],
                       out=str(tmp_path / "out"))
    flags = ["--feedback"] if feedback else []
    assert main(["scenario", "--config", cfg, "--window", "700",
                 *flags]) == 0
    stdout, trace_sha, windows_sha = GOLDEN_SEEDED_SCENARIO[feedback]
    assert capsys.readouterr().out == stdout
    for name, want in (("trace.csv", trace_sha), ("windows.csv", windows_sha)):
        got = hashlib.sha256((tmp_path / "out" / name).read_bytes())
        assert got.hexdigest() == want


# `hdrsim scenario --feedback --window 1000` on the first six ranges of
# the benchmark's seeded profile at seed 1, with control costs.  From about
# slot 3556 to the last range, both nodes sit at the cap under a held
# controller load, so the steered run tiles its fixed points and the
# writer copies their rows.  stdout byte for byte and the sha256 of
# trace.csv and windows.csv, captured before steered runs made claims.
PINNED_PROFILE = (
    "slot_range,e1,e2,g\n"
    "0-674,0.3415,0.4814,2.442\n"
    "675-1315,0.2973,0.2697,6.561\n"
    "1316-3330,0.1260,0.2927,8.253\n"
    "3331-4528,0.2597,0.4574,2.015\n"
    "4529-5840,0.1598,0.4811,6.138\n"
    "5841-6449,0.5409,0.0184,2.178\n"
)
GOLDEN_PINNED_SCENARIO = (
    "window offered delivered\n"
    "0 6139.50193451 6139.50193451\n"
    "1 5651.64315066 5651.64315066\n"
    "2 4963.60468287 4963.60468287\n"
    "3 4963.61750688 4963.61750688\n"
    "4 4963.62117552 4963.62117552\n"
    "5 5197.74068675 5197.74068675\n"
    "6 3031.76422634 3031.76422634\n"
    "total_offered 34911.4933635\n"
    "total_delivered 34911.4933635\n"
    "feedback_updates 24\n"
    "final_input_rate 6.73725383632\n",
    "7da6a1533507bcb3066b5a380ca5001205c76cd3ae0d41dff61127f8d9d8200b",
    "80a17ce9912b93518c9e420fd364350a1b798a3ec02c7aecab94e3b1719f8b49")


def test_scenario_pinned_at_the_cap_golden(tmp_path, capsys):
    profile = tmp_path / "profile.csv"
    profile.write_text(PINNED_PROFILE, encoding="utf-8")
    cfg = write_config(tmp_path / "c.json", harvest_rates=[0.3, 0.2],
                       input_rate=6.0, thresholds=[10.0, 10.0], horizon=None,
                       profile=str(profile), initial_batteries=[40.0, 40.0],
                       out=str(tmp_path / "out"))
    assert main(["scenario", "--config", cfg, "--window", "1000",
                 "--feedback"]) == 0
    stdout, trace_sha, windows_sha = GOLDEN_PINNED_SCENARIO
    assert capsys.readouterr().out == stdout
    for name, want in (("trace.csv", trace_sha), ("windows.csv", windows_sha)):
        got = hashlib.sha256((tmp_path / "out" / name).read_bytes())
        assert got.hexdigest() == want
    # both nodes pinned at the cap from slot 3556 to the last range
    back = read_trace_csv(tmp_path / "out" / "trace.csv")
    for col in back.battery_pre:
        assert set(col[3556:5841]) == {100.0}


def compensated_sum(iterable, /, start=0):
    """``sum`` as Python 3.12 computes it: ints exactly, then floats with
    Neumaier's compensation, ints that fit a C long added to the float
    total plainly, and anything else by ``+``."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for x in items:
            if type(x) in (int, bool):
                total += x
                continue
            total = total + x
            break
        else:
            return total
    if type(total) is float:
        comp = 0.0
        for x in items:
            if type(x) is float:
                t = total + x
                if abs(total) >= abs(x):
                    comp += (total - t) + x
                else:
                    comp += (x - t) + total
                total = t
                continue
            if isinstance(x, int) and -2**63 <= x < 2**63:
                total += float(x)
                continue
            if comp and math.isfinite(comp):
                total += comp
            total = total + x
            break
        else:
            if comp and math.isfinite(comp):
                total += comp
            return total
    for x in items:
        total = total + x
    return total


def test_compensated_sum_is_not_a_plain_fold():
    values = [0.1] * 10
    assert compensated_sum(values) == math.fsum(values) == 1.0
    assert reduce(operator.add, values, 0) == 0.9999999999999999
    assert compensated_sum([1, 2, 0.5, 3]) == 6.5
    assert compensated_sum([0.5, 1, 2], 0.25) == 3.75
    assert repr(compensated_sum([F(1, 2), 0.25])) == "0.75"


@pytest.mark.parametrize("case", [
    *(pytest.param(key, id=f"{key[0]}-{key[1]}") for key in GOLDEN_SCENARIO),
    pytest.param(False, id="seeded-False"),
    pytest.param(True, id="seeded-True")])
def test_scenario_goldens_hold_under_a_compensated_sum(tmp_path, capsys,
                                                       monkeypatch, case):
    # Python 3.12 and later compensate float sums; the scenario outputs
    # must not depend on that
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    if isinstance(case, tuple):
        test_scenario_golden_stdout_and_files(tmp_path, capsys, *case)
    else:
        test_scenario_seeded_profile_golden(tmp_path, capsys, case)


def float_sum_probes():
    """A threshold total of three floats, and the last load and packets
    column of a three-relay feedback run, which adds three harvest rates
    whenever the controller steers."""
    params = three(e=(0.1, 0.2, 0.3), g=10.0, c=0.08, ct=0.001, cr=0.01,
                   h=(5.0, 5.0, 5.0))
    trace = run_with_feedback(params, horizon=20_000)
    return (ThresholdPolicy((0.1, 0.2, 0.3)).total, trace.feedback_log[-1][2],
            trace.packets.tobytes())


def test_float_sums_do_not_depend_on_the_python_version(monkeypatch):
    plain = float_sum_probes()
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert float_sum_probes() == plain


def test_a_threshold_total_adds_left_to_right():
    assert ThresholdPolicy((0.1, 0.2, 0.3)).total == 0.1 + 0.2 + 0.3


def test_a_profile_path_that_is_a_directory_is_a_config_error(tmp_path,
                                                              capsys):
    cfg = write_config(tmp_path / "c.json", horizon=None,
                       profile=str(tmp_path), out=str(tmp_path / "out"))
    assert main(["scenario", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read profile: ")


def test_scenario_on_a_header_only_profile_is_a_config_error(tmp_path,
                                                             capsys):
    profile = tmp_path / "profile.csv"
    profile.write_text("slot_range,e1,e2,g\n", encoding="utf-8")
    cfg = write_config(tmp_path / "c.json", horizon=None,
                       profile=str(profile), out=str(tmp_path / "out"))
    assert main(["scenario", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "error: bad profile: empty profile: no slot ranges under the "
        "header\n")


@pytest.mark.parametrize("argv", [["run"], ["scenario", "--feedback"],
                                  ["sweep", "--axis", "h=4:5:1"]],
                         ids=["run", "scenario", "sweep"])
def test_an_out_path_that_is_a_file_is_a_config_error(tmp_path, capsys,
                                                      argv):
    out = tmp_path / "out"
    out.write_text("not a directory\n", encoding="utf-8")
    cfg = write_config(tmp_path / "c.json", out=str(out))
    assert main([*argv, "--config", cfg]) == 1
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err.splitlines()[-1].startswith(
        "error: cannot create output directory: ")
    assert out.read_text(encoding="utf-8") == "not a directory\n"
